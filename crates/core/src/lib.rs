//! # hsm-core — the enhanced TCP throughput model (the paper's
//! contribution)
//!
//! Implements Section IV of *"Measurement, Modeling, and Analysis of TCP
//! in High-Speed Mobility Scenarios"* (ICDCS 2016):
//!
//! * [`params`] — validated model inputs (Table II + `P_a`, `q`);
//! * [`padhye`] — the Padhye baseline (simple and full forms);
//! * [`enhanced`] — the enhanced model, Eqs. (1)–(21), with Eq. (4)'s
//!   `E[W]` in the form its own derivation gives (see that module's docs
//!   for the slip in the printed algebra and the Monte-Carlo that settles
//!   it);
//! * [`ack_burst`] — `P_a = p_a^(w/b)` and the `P_a ↔ E[W]` fixed point;
//! * [`estimate`] — fitting parameters from measured
//!   [`FlowSummary`](hsm_trace::summary::FlowSummary)s;
//! * [`eval`] — the deviation metric `D` (Eq. 22) and the Fig. 10
//!   enhanced-vs-Padhye comparison;
//! * [`sensitivity`] — the §V analyses (delayed-ACK harm, MPTCP
//!   redundant-retransmission benefit) and general parameter sweeps;
//! * [`recovery`] — predicted throughput gains of the §V loss-recovery
//!   countermeasures (`hsm-tcp`'s `Recovery` zoo, matched by label).
//!
//! ```
//! use hsm_core::prelude::*;
//!
//! let params = ModelParams::high_speed_example();
//! let enhanced = enhanced_throughput(&params)?;
//! let padhye = padhye_full(&params)?;
//! // Padhye ignores lossy recoveries and spurious timeouts, so it
//! // overestimates throughput at 300 km/h.
//! assert!(enhanced < padhye);
//! # Ok::<(), hsm_core::params::ValidateParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ack_burst;
pub mod enhanced;
pub mod estimate;
pub mod eval;
pub mod padhye;
pub mod params;
pub mod recovery;
pub mod sensitivity;

/// Convenient glob-import surface: `use hsm_core::prelude::*;`.
pub mod prelude {
    pub use crate::ack_burst::{p_a_from_ack_loss, solve_p_a, PaSolution};
    pub use crate::enhanced::{
        breakdown as enhanced_breakdown, e_v, e_w, e_x, q_enhanced, round_distribution,
        throughput as enhanced_throughput, timeout_sequence_terms, EnhancedBreakdown,
        RoundProbability,
    };
    pub use crate::estimate::{estimate_params, EstimateConfig, PdSource, QSource};
    pub use crate::eval::{deviation, evaluate_dataset, evaluate_flow, AccuracyReport, FlowEval};
    pub use crate::padhye::{expected_window, f_backoff, full as padhye_full, q_p, x_p};
    pub use crate::params::{ModelParams, ValidateParamsError};
    pub use crate::recovery::{
        predict as predict_recovery_gains, RecoveryPrediction, STRATEGY_LABELS as RECOVERY_LABELS,
    };
    pub use crate::sensitivity::{
        delayed_ack_analysis, redundant_retransmit_benefit, sweep_p_a, sweep_p_d, sweep_q,
        sweep_w_m, DelayedAckPoint, RedundantRetransmitBenefit, SweepPoint,
    };
}
