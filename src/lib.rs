//! # hsm — TCP in High-Speed Mobility Scenarios
//!
//! A full reproduction of *"Measurement, Modeling, and Analysis of TCP in
//! High-Speed Mobility Scenarios"* (ICDCS 2016): a discrete-event cellular
//! network simulator with a 300 km/h train mobility model, a from-scratch
//! TCP Reno/NewReno/MPTCP stack, the paper's measurement methodology, and
//! its enhanced throughput model alongside the Padhye baseline.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`simnet`] — discrete-event simulator substrate (engine, links, loss
//!   models, mobility, handoffs);
//! * [`tcp`] — the TCP implementation and connection/MPTCP runners;
//! * [`trace`] — packet traces and transport-layer measurement analyses;
//! * [`model`] — the enhanced throughput model (the paper's contribution)
//!   and the Padhye baseline;
//! * [`scenario`] — Beijing–Tianjin railway scenarios, provider profiles,
//!   declarative TOML campaign specs and synthetic dataset generation;
//! * [`runtime`] — the sharded campaign engine with its memoizing flow
//!   cache, multi-process spec sharding and structured telemetry;
//! * [`chaos`] — the seeded fault-injection and differential-testing
//!   harness (scenario fuzzer, fault drills, model-vs-simulation oracle).
//!
//! The [`prelude`] curates the types most programs need, and [`Error`]
//! unifies the fallible surface of every layer.
//!
//! # Quickstart
//!
//! Configs are built with validating builders; single flows run through
//! [`scenario::runner::run`], anything bigger through a
//! [`runtime::engine::Campaign`]:
//!
//! ```
//! use hsm::prelude::*;
//! use hsm::scenario::runner::run;
//! use hsm_simnet::chaos::StormPlan;
//! use hsm_simnet::time::SimDuration;
//!
//! # fn main() -> Result<(), hsm::Error> {
//! let config = ScenarioConfig::builder()
//!     .provider(Provider::ChinaMobile)
//!     .motion(Motion::HighSpeed)
//!     .seed(7)
//!     .duration(SimDuration::from_secs(30))
//!     .build()?;
//!
//! // One flow, one summary.
//! let out = run(&mut Scratch::new(), &config, &StormPlan::default(), Keep::Summary)?;
//! assert!(out.summary().rtt_s > 0.0);
//!
//! // The same flow as a (memoized, sharded) campaign of one.
//! let campaign = Campaign::builder().config(config).workers(2).build()?;
//! let output = campaign.run()?;
//! assert_eq!(output.report.flows, 1);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! experiment harness regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hsm_chaos as chaos;
pub use hsm_core as model;
pub use hsm_runtime as runtime;
pub use hsm_scenario as scenario;
pub use hsm_simnet as simnet;
pub use hsm_tcp as tcp;
pub use hsm_trace as trace;

mod error;
pub use error::Error;

/// The types most programs need, in one import.
///
/// ```
/// use hsm::prelude::*;
/// ```
pub mod prelude {
    pub use crate::Error;
    pub use hsm_chaos::{run_chaos, ChaosOptions, ChaosReport};
    pub use hsm_core::params::ModelParams;
    pub use hsm_runtime::cache::{CacheConfig, FlowCache};
    pub use hsm_runtime::engine::{Campaign, CampaignBuilder, CampaignOutput, CampaignReport};
    pub use hsm_runtime::error::{CacheError, EngineError};
    pub use hsm_runtime::shard::{
        merge_shards, read_shard_report, run_shard, shard_file_name, write_shard_report,
        CampaignResult, ShardReport,
    };
    pub use hsm_scenario::provider::Provider;
    pub use hsm_scenario::runner::{
        run_scenario, Keep, Motion, ScenarioConfig, ScenarioConfigBuilder, ScenarioError, Scratch,
    };
    pub use hsm_scenario::spec::{
        expansion_digest, load_spec, CampaignSpec, GridKind, ScenarioBase, ScenarioGrid, SpecError,
        SweepAxis,
    };
    pub use hsm_trace::summary::{analyze_flow, FlowSummary};
}
