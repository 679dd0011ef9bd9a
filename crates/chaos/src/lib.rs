//! # hsm-chaos — seeded fault injection and differential testing
//!
//! The stack's results (Table III, Fig. 10/12, the 255-flow dataset) are
//! only as trustworthy as the machinery that computes them: the
//! simulator's determinism, the campaign engine's worker pool, the flow
//! cache's integrity checks, the models' algebra. This crate attacks all
//! of them at once, deterministically:
//!
//! * [`fuzz`] — a compact seed expands into randomized-but-valid
//!   [`ScenarioConfig`]s, with greedy shrinking of any failure to a
//!   minimal reproducible config;
//! * [`fault`] — drills that inject real faults beneath the runtime
//!   (worker death, disk-cache bit flips and forgeries, link flap and
//!   burst-loss storms, ACK-burst episodes, scratch poisoning) and verify
//!   each is detected or contained;
//! * [`oracle`] — the differential oracle run on every fuzzed config:
//!   fresh vs poisoned-scratch vs warm-cache runs must be bit-identical,
//!   debug invariants must hold, both throughput models must evaluate in
//!   domain, and the enhanced model must beat the Padhye baseline on
//!   average inside the paper's operating region;
//! * [`report`] — the JSON-serializable [`ChaosReport`] with every
//!   violation pinned to a reproducible `(seed, case)` pair.
//!
//! Entry point: [`run_chaos`]. The same `(seed, cases)` pair always
//! produces the same report (modulo wall-clock), for any worker count.
//!
//! ```
//! use hsm_chaos::{run_chaos, ChaosOptions};
//!
//! let report = run_chaos(&ChaosOptions {
//!     seed: 42,
//!     cases: 2,
//!     workers: 2,
//!     drills: false, // keep the doctest fast; real runs enable them
//!     ..Default::default()
//! });
//! assert!(report.ok(), "violations: {:?}", report.violations);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod fuzz;
pub mod oracle;
pub mod report;
pub mod rng;

pub use fault::run_drills;
pub use fuzz::{config_for_case, in_operating_region, shrink, spec_for_case, FuzzRanges};
pub use oracle::{check_case, compare_summaries, CaseOutcome, OracleConfig};
pub use report::{AggregateOracle, ChaosReport, DrillResult, Violation};
pub use rng::ChaosRng;

use hsm_runtime::parallel::par_map_workers;
use hsm_scenario::runner::ScenarioConfig;
use std::path::PathBuf;

/// Evaluation budget for shrinking one violation. Each evaluation re-runs
/// the failing check, so this bounds the post-mortem cost of a red run.
const SHRINK_BUDGET: usize = 120;

/// Parameters of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Master seed: `(seed, case)` reproduces any single case.
    pub seed: u64,
    /// Fuzzed cases to run.
    pub cases: u64,
    /// Worker threads (0 = all available). Output is identical for any
    /// worker count.
    pub workers: usize,
    /// Ranges the fuzzer draws from.
    pub ranges: FuzzRanges,
    /// Oracle thresholds.
    pub oracle: OracleConfig,
    /// Whether to run the fault-injection drills too.
    pub drills: bool,
    /// Scratch directory for disk-cache faults and the disk-tier
    /// differential; defaults to a seed-derived directory under the
    /// system temp dir.
    pub dir: Option<PathBuf>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 42,
            cases: 200,
            workers: 0,
            ranges: FuzzRanges::default(),
            oracle: OracleConfig::default(),
            drills: true,
            dir: None,
        }
    }
}

/// Runs the full harness: fuzzed differential cases (in parallel), then
/// the fault drills (serially), then the aggregate accuracy oracle, and
/// shrinks every violating config to a minimal reproduction.
pub fn run_chaos(opts: &ChaosOptions) -> ChaosReport {
    let t0 = std::time::Instant::now();
    let workers = if opts.workers == 0 {
        std::thread::available_parallelism()
            .map(|w| w.get())
            .unwrap_or(4)
    } else {
        opts.workers
    };
    let dir = opts
        .dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("hsm-chaos-{}", opts.seed)));
    let mut oracle = opts.oracle.clone();
    if oracle.cache_dir.is_none() {
        oracle.cache_dir = Some(dir.join("warm-cache"));
    }

    // Per-case work is pure in (seed, case), so sharding over workers
    // cannot change the result, only the wall-clock.
    let outcomes = par_map_workers(opts.cases, workers, |case| {
        let config = config_for_case(&opts.ranges, opts.seed, case);
        check_case(case, &config, &oracle)
    });

    let mut violations = Vec::new();
    let mut region = Vec::new();
    for outcome in outcomes {
        if outcome.in_region {
            let eval = outcome.eval.as_ref().expect("in_region implies eval");
            region.push(eval.clone());
        }
        violations.extend(outcome.violations);
    }

    // Shrink each violation to a minimal config still failing the same
    // check. The predicate re-runs the oracle, so this is the expensive
    // path — it only runs when something is already wrong.
    for v in &mut violations {
        let check = v.check.clone();
        let shrunk = shrink(
            &v.config,
            |candidate| {
                check_case(v.case, candidate, &oracle)
                    .violations
                    .iter()
                    .any(|cv| cv.check == check)
            },
            SHRINK_BUDGET,
        );
        if shrunk != v.config {
            v.shrunk = Some(shrunk);
        }
    }

    let aggregate = judge_aggregate(&region, &oracle);

    let drills = if opts.drills {
        run_drills(&dir.join("drills"))
    } else {
        Vec::new()
    };

    // Best-effort cleanup of the scratch space (ignore failures: the
    // report matters, the temp files do not).
    let _ = std::fs::remove_dir_all(&dir);

    ChaosReport {
        seed: opts.seed,
        cases: opts.cases,
        workers,
        violations,
        drills,
        aggregate,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Judges the aggregate accuracy oracle over the operating-region sample:
/// mean enhanced deviation within the calibrated envelope and strictly
/// below the Padhye baseline's mean, both means being
/// [`AccuracyReport::of`](hsm_core::eval::AccuracyReport::of) the region.
fn judge_aggregate(region: &[hsm_core::eval::FlowEval], oracle: &OracleConfig) -> AggregateOracle {
    let n = region.len();
    if n < oracle.min_region_flows {
        return AggregateOracle {
            region_flows: n,
            envelope: oracle.mean_envelope,
            skipped: true,
            ..Default::default()
        };
    }
    let report = hsm_core::eval::AccuracyReport::of(region);
    AggregateOracle {
        region_flows: n,
        mean_d_enhanced: report.mean_d_enhanced,
        mean_d_padhye: report.mean_d_padhye,
        envelope: oracle.mean_envelope,
        within_envelope: report.mean_d_enhanced <= oracle.mean_envelope
            && report.mean_d_enhanced < report.mean_d_padhye,
        skipped: false,
    }
}

/// Reproduces one `(seed, case)` pair end to end: the config it expands
/// to and the oracle outcome. The debugging entry point for a violation
/// found by a long run.
pub fn reproduce_case(seed: u64, case: u64) -> (ScenarioConfig, CaseOutcome) {
    let config = config_for_case(&FuzzRanges::default(), seed, case);
    let outcome = check_case(case, &config, &OracleConfig::default());
    (config, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_core::enhanced::EnhancedModel;
    use hsm_core::eval::{AccuracyReport, FlowEval};
    use hsm_core::params::ModelParams;

    /// A region sample whose predictions genuinely come from the model
    /// and whose measured throughput is placed to hit the requested
    /// enhanced-model deviation.
    fn region_eval(d_enhanced_target: f64) -> FlowEval {
        let params = ModelParams::high_speed_example();
        let enhanced_sps = EnhancedModel::as_published().throughput(&params).unwrap();
        let padhye_sps = hsm_core::padhye::full(&params).unwrap();
        // measured = enhanced / (1 + D) puts the enhanced prediction
        // exactly D above the measurement.
        let measured_sps = enhanced_sps / (1.0 + d_enhanced_target);
        FlowEval {
            flow: 0,
            provider: "China Mobile".into(),
            measured_sps,
            enhanced_sps,
            padhye_sps,
            d_enhanced: hsm_core::eval::deviation(enhanced_sps, measured_sps),
            d_padhye: hsm_core::eval::deviation(padhye_sps, measured_sps),
            params,
        }
    }

    #[test]
    fn aggregate_judgement_skips_small_samples() {
        let oracle = OracleConfig::default();
        let few = vec![region_eval(0.1); oracle.min_region_flows - 1];
        let skipped = judge_aggregate(&few, &oracle);
        assert!(skipped.skipped);
        let enough = vec![region_eval(0.1); oracle.min_region_flows];
        let agg = judge_aggregate(&enough, &oracle);
        assert!(!agg.skipped);
        assert!(agg.within_envelope);
        assert!((agg.mean_d_enhanced - 0.1).abs() < 1e-9);
        // Padhye overshoots the same measurement by more (it ignores the
        // recovery losses), so the ordering holds.
        assert!(agg.mean_d_padhye > agg.mean_d_enhanced);
    }

    #[test]
    fn aggregate_judgement_fails_on_inverted_means() {
        let oracle = OracleConfig::default();
        // Claim a measurement *above* the Padhye prediction: the enhanced
        // model (strictly lower) then deviates more than Padhye does.
        let mut inverted = region_eval(0.0);
        inverted.measured_sps = inverted.padhye_sps * 1.05;
        inverted.d_enhanced =
            hsm_core::eval::deviation(inverted.enhanced_sps, inverted.measured_sps);
        inverted.d_padhye = hsm_core::eval::deviation(inverted.padhye_sps, inverted.measured_sps);
        let agg = judge_aggregate(&vec![inverted; oracle.min_region_flows], &oracle);
        assert!(!agg.skipped);
        assert!(!agg.within_envelope, "enhanced worse than padhye must fail");
    }

    #[test]
    fn aggregate_means_are_the_accuracy_report_of_the_region() {
        let oracle = OracleConfig::default();
        let region: Vec<FlowEval> = (0..oracle.min_region_flows)
            .map(|i| region_eval(0.02 * i as f64))
            .collect();
        let agg = judge_aggregate(&region, &oracle);
        let report = AccuracyReport::of(&region);
        assert!(!agg.skipped);
        assert_eq!(agg.region_flows, region.len());
        assert_eq!(
            agg.mean_d_enhanced.to_bits(),
            report.mean_d_enhanced.to_bits()
        );
        assert_eq!(agg.mean_d_padhye.to_bits(), report.mean_d_padhye.to_bits());
    }
}
