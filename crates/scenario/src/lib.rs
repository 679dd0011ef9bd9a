//! # hsm-scenario — Beijing–Tianjin HSR scenarios and dataset generation
//!
//! Bridges the substrate crates into the paper's measurement setting:
//!
//! * [`btr`] — the Beijing–Tianjin Intercity Railway (120 km, 300 km/h);
//! * [`provider`] — transport-layer channel profiles for the three ISPs of
//!   Table I (China Mobile LTE, China Unicom 3G, China Telecom 3G with
//!   poor corridor coverage);
//! * [`runner`] — one-call scenario execution: provider + motion + seed →
//!   simulated flow → analysis and model-ready summary, read straight from
//!   the engine's packet arena, with the trace when the caller wants it;
//! * [`dataset`] — the plan of the synthetic Table-I dataset (255 flows
//!   across four campaigns), fully seed-reproducible; `hsm-runtime`
//!   executes it;
//! * [`fnv`] — the one FNV-1a-64 state that flow identity
//!   ([`runner::ScenarioConfig::hash_into`]), cache keys and spec digests
//!   stream through;
//! * [`calibrate`] — the paper's §III headline statistics as calibration
//!   targets, with paper-vs-measured reporting;
//! * [`spec`] — declarative TOML campaign specs ([`spec::CampaignSpec`])
//!   whose parameter grids expand deterministically into
//!   [`runner::ScenarioConfig`]s.
//!
//! ```
//! use hsm_scenario::prelude::*;
//! use hsm_scenario::runner::run;
//! use hsm_simnet::chaos::StormPlan;
//! use hsm_simnet::time::SimDuration;
//!
//! let config = ScenarioConfig {
//!     provider: Provider::ChinaUnicom,
//!     duration: SimDuration::from_secs(10),
//!     ..Default::default()
//! };
//! let out = run(&mut Scratch::new(), &config, &StormPlan::default(), Keep::Summary)?;
//! assert_eq!(&*out.summary().provider, "China Unicom");
//! assert!(out.trace.is_none());
//! assert_eq!(run_scenario(&config).summary(), out.summary());
//! # Ok::<(), ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btr;
pub mod calibrate;
pub mod dataset;
pub mod fnv;
pub mod provider;
pub mod runner;
pub mod spec;

/// Convenient glob-import surface: `use hsm_scenario::prelude::*;`.
pub mod prelude {
    pub use crate::btr;
    pub use crate::calibrate::{
        aggregate, calibration_report, CalibrationRow, DatasetAggregates, PaperTargets, PAPER,
    };
    pub use crate::dataset::{
        plan_dataset, plan_stationary_baseline, table1_total_flows, DatasetConfig, DatasetFlow,
        MeasurementCampaign, TABLE1,
    };
    pub use crate::provider::Provider;
    pub use crate::runner::{
        run_scenario, Keep, Motion, ScenarioConfig, ScenarioConfigBuilder, ScenarioError, Scratch,
        SCENARIO_HIGH_SPEED, SCENARIO_STATIONARY,
    };
    pub use crate::spec::{
        expansion_digest, load_spec, CampaignSpec, GridKind, ScenarioBase, ScenarioGrid, SpecError,
        SweepAxis,
    };
}
