//! Simnet macro-benchmark: end-to-end events/sec through the campaign
//! engine's hot path.
//!
//! Unlike `BENCH_campaign.json` (which tracks cold-vs-warm cache
//! behaviour), this measures the raw simulator: one **cold** campaign at
//! the given scale — every flow simulated, nothing served from cache —
//! and the resulting events-per-second of campaign wall clock. `repro`
//! writes it as `BENCH_simnet.json`; `tools/bench_gate.sh` compares a
//! fresh run against the committed baseline in CI.

use crate::context::Scale;
use hsm_runtime::cache::{CacheConfig, FlowCache};
use hsm_runtime::engine::Campaign;
use serde::Serialize;

/// One simnet macro-benchmark sample.
#[derive(Debug, Clone, Serialize)]
pub struct SimnetBench {
    /// Scale preset the campaign ran at.
    pub scale: String,
    /// Flows simulated (all cold — zero cache hits).
    pub flows: usize,
    /// Total simulator events processed.
    pub events: u64,
    /// End-to-end campaign wall clock, seconds.
    pub wall_clock_s: f64,
    /// `events / wall_clock_s` — the number the CI gate compares.
    pub events_per_sec: f64,
    /// Events scheduled across all flows (event-queue telemetry).
    pub queue_schedules: u64,
    /// Events cancelled before firing across all flows.
    pub queue_cancels: u64,
    /// Fraction of scheduled events cancelled before firing — the RTO
    /// churn the event queue's remove-on-cancel is designed around.
    pub queue_cancel_ratio: f64,
    /// Peak live event-queue depth over any single flow.
    pub queue_max_depth: usize,
    /// Mean live depth sampled after every schedule, averaged over flows.
    pub queue_mean_depth: f64,
}

/// Runs one cold campaign at `scale` and reports simulator throughput.
///
/// # Errors
///
/// Returns a human-readable message when the campaign fails to build or
/// run.
pub fn measure(scale: Scale) -> Result<SimnetBench, String> {
    let campaign = Campaign::builder()
        .dataset(&scale.dataset_config())
        .cache(CacheConfig::memory_only())
        .build()
        .map_err(|e| e.to_string())?;
    let cache = FlowCache::new(CacheConfig::memory_only());
    let out = campaign.run_with_cache(&cache).map_err(|e| e.to_string())?;
    let report = out.report;
    if report.cache_hits != 0 {
        return Err(format!(
            "cold campaign saw {} cache hits",
            report.cache_hits
        ));
    }
    Ok(SimnetBench {
        scale: format!("{scale:?}"),
        flows: report.flows,
        events: report.events_processed,
        wall_clock_s: report.wall_clock_s,
        events_per_sec: report.events_per_sec(),
        queue_schedules: report.queue.schedules,
        queue_cancels: report.queue.cancels,
        queue_cancel_ratio: report.queue.cancel_ratio(),
        queue_max_depth: report.queue.max_depth,
        queue_mean_depth: report.queue.mean_depth(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_measures_nonzero_throughput() {
        let b = measure(Scale::Smoke).expect("smoke campaign runs");
        assert_eq!(b.scale, "Smoke");
        assert!(b.flows >= 4);
        assert!(b.events > 0);
        assert!(b.wall_clock_s > 0.0);
        assert!(b.events_per_sec > 0.0);
        assert!(b.queue_schedules > 0, "queue telemetry must flow through");
        assert!(b.queue_max_depth > 0);
        assert!(b.queue_mean_depth > 0.0);
        assert!((0.0..=1.0).contains(&b.queue_cancel_ratio));
    }
}
