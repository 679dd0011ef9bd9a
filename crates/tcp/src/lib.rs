//! # hsm-tcp — TCP Reno / NewReno / MPTCP over the hsm simulator
//!
//! A from-scratch, segment-granular TCP implementation providing exactly
//! the mechanisms the paper's model reasons about:
//!
//! * [`rtt`] — Jacobson/Karn RTT estimation and the exponential-backoff
//!   retransmission timer capped at 64·T;
//! * [`cwnd`] — the Reno congestion state machine (slow start, congestion
//!   avoidance, fast recovery) with the `W_m` advertised-window cap, and
//!   its Veno variant;
//! * [`cc`] — the [`cc::CongestionControl`] trait the sender drives, the
//!   [`cc::Algorithm`] configuration label and the rest of the zoo;
//! * [`reno`] — the one sender agent (fast retransmit on triple dup-ACKs,
//!   lone-segment retransmission during timeout recovery, optional NewReno
//!   partial-ACK handling, optional redundant backup-path retransmission);
//!   NewReno and Veno are [`reno::SenderConfig`] settings
//!   (`newreno: true`, `algorithm: Algorithm::veno()`), not types;
//! * [`recovery`] — the §V loss-recovery countermeasure zoo (redundant
//!   retransmit-on-RTO, RFC 5682 F-RTO spurious-timeout undo, and an
//!   ACK-loss-robust backoff), pluggable like the [`cc`] zoo;
//! * [`receiver`] — cumulative + delayed ACKs (`b`), reordering buffer,
//!   duplicate-payload accounting (spurious-timeout ground truth);
//! * [`connection`] — one-call wiring of a full measurement rig
//!   (sender ↔ cellular path ↔ receiver, optional 300 km/h mobility,
//!   optional chaos storm), its capture handed back as a trace or analysed
//!   in place, and the shared pieces every rig is built from;
//! * [`mptcp`] — the same pieces wired as duplex-mode aggregation,
//!   backup-mode redundant retransmission and a shared radio (paper §V-B);
//! * [`metrics`] — endpoint-internal ground truth (cwnd logs, timeout
//!   times) used to validate the trace analyses.
//!
//! ```
//! use hsm_tcp::prelude::*;
//!
//! let cfg = ConnectionConfig {
//!     sender: SenderConfig { max_segments: Some(50), ..Default::default() },
//!     ..Default::default()
//! };
//! let out = run_connection(1, &PathSpec::default(), None, &cfg);
//! assert_eq!(out.receiver.next_expected, 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod connection;
pub mod cwnd;
pub mod demux;
pub mod metrics;
pub mod mptcp;
pub mod receiver;
pub mod recovery;
pub mod reno;
pub mod rtt;

/// Convenient glob-import surface: `use hsm_tcp::prelude::*;`.
pub mod prelude {
    pub use crate::cc::{Algorithm, Bbr, Compound, CongestionControl, Cubic};
    pub use crate::connection::{
        run_connection, try_analyze_connection_with, try_run_connection_with, AnalyzedConnection,
        ConnectionConfig, ConnectionOutcome, ConnectionScratch, Keep, LossSpec, MobilityScenario,
        PathSpec,
    };
    pub use crate::cwnd::{Cwnd, Phase};
    pub use crate::demux::Demux;
    pub use crate::metrics::{CwndSample, ReceiverMetrics, SenderMetrics};
    pub use crate::mptcp::{
        run_mptcp_duplex, run_mptcp_shared_radio, run_with_backup_path, MptcpOutcome,
    };
    pub use crate::receiver::{AdaptiveDelAck, Receiver, ReceiverConfig};
    pub use crate::recovery::{AckDisposition, LossRecovery, Recovery, TimeoutPlan};
    pub use crate::reno::{RenoSender, SenderConfig};
    pub use crate::rtt::{Backoff, RttEstimator};
}
