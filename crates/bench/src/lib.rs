//! # hsm-bench — the experiment harness
//!
//! Regenerates **every table and figure** of the paper from the synthetic
//! substrate:
//!
//! * [`registry`] — id → experiment mapping (`table1`, `fig1`–`fig12`,
//!   `table3`, `va_delack`, `vb_qsweep`, the `ext_*` extensions);
//! * [`experiments`] — one module per regenerated artifact;
//! * [`context`] — scale presets (smoke / standard / full) and cached
//!   dataset generation;
//! * [`report`] — printable/CSV-exportable results;
//! * [`accuracy`] — `repro accuracy`, the one science artifact: the
//!   ledger of every `D`, every paper-vs-ours number and the §V
//!   countermeasures under a delay-flap storm.
//!
//! Run the `repro` binary to print any experiment's series and shape
//! targets (`repro accuracy` prints the paper-vs-ours comparison):
//!
//! ```text
//! repro fig10            # one experiment at standard scale
//! repro all --full       # everything at the full 255-flow scale
//! repro fig3 --csv out/  # also export the figure data as CSV
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod cli;
pub mod context;
pub mod experiments;
pub mod registry;
pub mod report;

pub use cli::Opts;
pub use context::{Ctx, Scale};
pub use registry::{find, Experiment, EXPERIMENTS};
pub use report::ExperimentResult;
