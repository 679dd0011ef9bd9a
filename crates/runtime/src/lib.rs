//! # hsm-runtime — the campaign-execution engine
//!
//! Production-scale orchestration for the simulation substrate: the paper's
//! results are averages over hundreds of flows, and everything above the
//! per-flow layer — Table III, Fig. 10/12 sweeps, calibration, the
//! 255-flow Table-I dataset — is a *campaign* of independent, deterministic
//! flows. This crate runs those campaigns as fast as the hardware allows:
//!
//! * [`engine`] — [`Campaign`]: shards scenarios across a self-scheduling
//!   worker pool (each worker reusing one simulation scratch across its
//!   flows), analyses each flow where the engine recorded it — no trace
//!   is built or kept (near-constant memory) — and collects each worker's
//!   results on a vector of its own, merged by flow index, so output is
//!   bit-identical for any worker count;
//! * [`cache`] — [`FlowCache`]: content-addressed memoization of completed
//!   flows (key = the config's canonical identity encoding + engine
//!   version, streamed into the hash with no per-lookup allocation) with
//!   a sharded in-memory tier (evicting in insertion order) and an
//!   integrity-checked on-disk tier in
//!   the binary format of [`codec`], so repeated experiments stop
//!   re-simulating identical flows and workers stop serializing on one
//!   lock;
//! * [`shard`] — multi-process campaign sharding: round-robin partition
//!   of an expanded spec, per-shard [`shard::ShardReport`]s, and a merge
//!   that folds them into one [`shard::CampaignResult`] bit-identical to
//!   the single-process run;
//! * [`parallel`] — the one worker pool both the engine and the
//!   index-ordered parallel map run on;
//! * [`error`] — the engine/cache failure surface.
//!
//! ```
//! use hsm_runtime::prelude::*;
//! use hsm_scenario::prelude::*;
//! use hsm_simnet::time::SimDuration;
//!
//! let cfg = ScenarioConfig::builder()
//!     .motion(Motion::Stationary)
//!     .duration(SimDuration::from_secs(5))
//!     .build()?;
//! let campaign = Campaign::builder().config(cfg).workers(2).build()?;
//! let cache = FlowCache::new(CacheConfig::memory_only());
//! let cold = campaign.run_with_cache(&cache)?;
//! let warm = campaign.run_with_cache(&cache)?;
//! assert_eq!(warm.report.cache_hits, 1); // no re-simulation
//! assert!(cold.summaries().eq(warm.summaries())); // bit-identical
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod codec;
pub mod engine;
pub mod error;
pub mod parallel;
pub mod shard;

pub use cache::{CacheConfig, CacheKey, CacheStats, FlowCache, ENGINE_VERSION};
#[cfg(any(test, feature = "chaos"))]
pub use engine::ChaosInjection;
pub use engine::{
    run_dataset, run_stationary_baseline, Campaign, CampaignBuilder, CampaignOutput,
    CampaignReport, FlowRun,
};
pub use error::{CacheError, EngineError};
pub use shard::{
    merge_shards, read_shard_report, run_shard, shard_file_name, write_shard_report,
    CampaignResult, ShardReport,
};

/// Convenient glob-import surface: `use hsm_runtime::prelude::*;`.
pub mod prelude {
    pub use crate::cache::{CacheConfig, CacheKey, CacheStats, FlowCache, ENGINE_VERSION};
    pub use crate::engine::{
        run_dataset, run_stationary_baseline, Campaign, CampaignBuilder, CampaignOutput,
        CampaignReport, FlowRun,
    };
    pub use crate::error::{CacheError, EngineError};
    pub use crate::parallel::{par_map, par_map_workers};
    pub use crate::shard::{
        merge_shards, read_shard_report, run_shard, shard_file_name, write_shard_report,
        CampaignResult, ShardReport,
    };
}
