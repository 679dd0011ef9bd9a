//! # hsm-simnet — discrete-event network simulator substrate
//!
//! This crate is the measurement substrate of the `hsm` workspace, which
//! reproduces *"Measurement, Modeling, and Analysis of TCP in High-Speed
//! Mobility Scenarios"* (ICDCS 2016). The paper's raw input — 40 GB of
//! packet traces captured on the Beijing–Tianjin high-speed railway — is
//! proprietary, so this simulator regenerates statistically equivalent
//! transport-layer conditions:
//!
//! * a deterministic [`engine::Engine`] (seeded, reproducible runs),
//! * [`link::Link`]s with bandwidth, delay, jitter and drop-tail queues,
//! * one closed [`loss::LossModel`] per link (independent, bursty
//!   Gilbert–Elliott or periodic-outage loss) under a [`timeline::Timeline`],
//! * a 300 km/h train [`mobility::Trajectory`] and the handoff schedule of
//!   a [`cellular::MobilityScenario`]: the outages and loss spikes the
//!   paper observes,
//! * an [`arena::PacketArena`] holding one row per packet, send to
//!   arrival: the run's capture, like a `tcpdump` at both endpoints.
//!
//! TCP itself lives in the `hsm-tcp` crate; analyses in `hsm-trace`.
//!
//! # Quick example
//!
//! ```
//! use hsm_simnet::prelude::*;
//!
//! // A sink agent that counts deliveries.
//! #[derive(Default)]
//! struct Sink { got: u64 }
//! impl Agent for Sink {
//!     fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) { self.got += 1; }
//! }
//!
//! let mut eng = Engine::new(7);
//! let sink = eng.add_agent(Box::new(Sink::default()));
//! let wire = eng.add_link(LinkSpec::new(sink, "wire").prop_delay(SimDuration::from_millis(30)));
//! for seq in 0..10 {
//!     eng.inject(wire, Packet::data(FlowId(0), SeqNo(seq), false));
//! }
//! eng.run_until_idle();
//! assert_eq!(eng.agent_mut::<Sink>(sink).unwrap().got, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod arena;
pub mod cellular;
pub mod chaos;
pub mod engine;
pub mod error;
pub mod event;
pub mod link;
pub mod loss;
pub mod mobility;
pub mod packet;
pub mod rng;
pub mod time;
pub mod timeline;

/// Convenient glob-import surface: `use hsm_simnet::prelude::*;`.
pub mod prelude {
    pub use crate::agent::{Agent, AgentId, NullAgent};
    pub use crate::arena::PacketArena;
    pub use crate::cellular::{CellLayout, CoverageHole, HandoffParams, MobilityScenario};
    pub use crate::chaos::{StormEpisode, StormKind, StormPlan};
    pub use crate::engine::{Ctx, Engine};
    pub use crate::error::SimError;
    pub use crate::event::{EventId, QueueStats};
    pub use crate::link::{LinkId, LinkSpec, QueuedPacket};
    pub use crate::loss::{GilbertElliott, LossModel};
    pub use crate::mobility::Trajectory;
    pub use crate::packet::{FlowId, Packet, PacketId, PacketKind, SeqNo};
    pub use crate::rng::{RngFactory, SimRng};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::timeline::Impairment;
}
