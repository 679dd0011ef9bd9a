//! # hsm-bench — the experiment harness
//!
//! Regenerates **every table and figure** of the paper from the synthetic
//! substrate:
//!
//! * [`registry`] — id → experiment mapping (`table1`, `headline`,
//!   `fig1`–`fig12`, `table3`, `va_delack`, `vb_qsweep`);
//! * [`experiments`] — one module per regenerated artifact;
//! * [`context`] — scale presets (smoke / standard / full) and cached
//!   dataset generation;
//! * [`report`] — printable/CSV-exportable results.
//!
//! Run the `repro` binary to print paper-vs-measured for any experiment:
//!
//! ```text
//! repro fig10            # one experiment at standard scale
//! repro all --full       # everything at the full 255-flow scale
//! repro fig3 --csv out/  # also export the figure data as CSV
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc_study;
pub mod cli;
pub mod context;
pub mod experiments;
pub mod recovery_study;
pub mod registry;
pub mod report;

pub use cli::Opts;
pub use context::{Ctx, Scale};
pub use registry::{find, run_all, Experiment, EXPERIMENTS};
pub use report::ExperimentResult;
