//! # hsm-trace — packet traces and measurement analyses
//!
//! This crate plays the role of the paper's measurement toolchain
//! (wireshark captures + offline analysis): it defines the dual-endpoint
//! [`record::FlowTrace`] format, reads a simulator run as packet records —
//! from the engine's packet arena as its packets land, or folded into a
//! trace ([`capture`]) — and implements every §III analysis:
//!
//! * lifetime data/ACK loss rates ([`analysis::loss`]),
//! * one-way delay scatter and RTT estimation ([`analysis::latency`],
//!   Fig. 1),
//! * round segmentation and ACK-burst-loss detection
//!   ([`analysis::rounds`], the trigger of spurious timeouts),
//! * timeout detection, spurious classification, recovery phases and the
//!   in-recovery retransmission loss rate `q̂` ([`analysis::timeout`],
//!   Figs. 2–3),
//! * throughput/goodput ([`analysis::throughput`]),
//! * a one-stop per-flow summary feeding the models: one push fold
//!   ([`summary::FlowFold`]) that a running flow feeds record by record,
//!   and [`summary::analyze_records`] / [`summary::analyze_flow`], the same
//!   fold over any record iterator or a whole [`record::FlowTrace`],
//! * CDFs / correlation statistics ([`stats`]) and CSV export
//!   ([`export`]).
//!
//! ```
//! use hsm_trace::prelude::*;
//!
//! let trace = FlowTrace::new(0, FlowMeta::default());
//! let analysis = analyze_flow(&trace, &TimeoutConfig::default());
//! assert_eq!(analysis.summary.timeouts, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod capture;
mod column;
pub mod export;
pub mod record;
pub mod stats;
pub mod summary;

/// Convenient glob-import surface: `use hsm_trace::prelude::*;`.
pub mod prelude {
    pub use crate::analysis::latency::{delay_scatter, estimate_rtt, DelayPoint};
    pub use crate::analysis::loss::{loss_rates, LossRates};
    pub use crate::analysis::rounds::{ack_burst_stats, ack_rounds, AckBurstStats, AckRound};
    pub use crate::analysis::throughput::{throughput, Throughput};
    pub use crate::analysis::timeout::{
        analyze_timeouts, TimeoutAnalysis, TimeoutConfig, TimeoutEvent, TimeoutSequence,
    };
    pub use crate::capture::flow_records;
    pub use crate::export::{fnum, fpct, Table};
    pub use crate::record::{FlowMeta, FlowTrace, PacketRecord};
    pub use crate::stats::{linear_fit, mean, pearson, Cdf, LinearFit};
    pub use crate::summary::{
        analyze_flow, analyze_records, FlowAnalysis, FlowFold, FlowSummary, FoldColumns,
    };
}
