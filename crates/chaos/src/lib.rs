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
//!   debug invariants must hold, and both throughput models must evaluate
//!   in domain, with the enhanced prediction inside the Padhye bound where
//!   the algebra makes that exact;
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
pub use fuzz::{config_for_case, shrink, FuzzRanges};
pub use oracle::{check_case, compare_summaries, OracleConfig, TABLE_TOL};
pub use report::{ChaosReport, DrillResult, Violation};
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
/// the fault drills (serially), and shrinks every violating config to a
/// minimal reproduction.
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
    let mut violations: Vec<Violation> = par_map_workers(opts.cases, workers, |case| {
        let config = config_for_case(&opts.ranges, opts.seed, case);
        check_case(case, &config, &oracle)
    })
    .into_iter()
    .flatten()
    .collect();

    // Shrink each violation to a minimal config still failing the same
    // check. The predicate re-runs the oracle, so this is the expensive
    // path — it only runs when something is already wrong.
    for v in &mut violations {
        let check = v.check.clone();
        let shrunk = shrink(
            &v.config,
            |candidate| {
                check_case(v.case, candidate, &oracle)
                    .iter()
                    .any(|cv| cv.check == check)
            },
            SHRINK_BUDGET,
        );
        if shrunk != v.config {
            v.shrunk = Some(shrunk);
        }
    }

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
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Reproduces one `(seed, case)` pair end to end: the config it expands
/// to and the violations the oracle finds in it. The debugging entry point
/// for a violation found by a long run.
pub fn reproduce_case(seed: u64, case: u64) -> (ScenarioConfig, Vec<Violation>) {
    let config = config_for_case(&FuzzRanges::default(), seed, case);
    let violations = check_case(case, &config, &OracleConfig::default());
    (config, violations)
}
