//! Integration tests for the chaos harness: the full `run_chaos` loop is
//! deterministic for any worker count, every injected fault class is
//! detected, shrinking preserves failures end to end, and the oracle's
//! Table III check agrees with the pinned golden fixture at its own
//! tolerance.

use hsm::chaos::{
    config_for_case, reproduce_case, run_chaos, run_drills, ChaosOptions, ChaosReport, FuzzRanges,
    OracleConfig, TABLE_TOL,
};
use hsm::model::prelude::round_distribution;

/// Short-flow ranges so harness-level tests stay fast: same shape as the
/// defaults, but operating-region cases are 2–3 s instead of 60–120 s.
fn quick_ranges() -> FuzzRanges {
    FuzzRanges {
        duration_s: (2, 3),
        region_duration_s: (2, 3),
        ..FuzzRanges::default()
    }
}

fn quick_options(seed: u64, cases: u64, workers: usize) -> ChaosOptions {
    ChaosOptions {
        seed,
        cases,
        workers,
        ranges: quick_ranges(),
        oracle: OracleConfig::default(),
        drills: false,
        dir: Some(std::env::temp_dir().join(format!(
            "hsm_chaos_it_{seed}_{workers}_{}",
            std::process::id()
        ))),
    }
}

#[test]
fn chaos_run_is_clean_and_worker_count_invariant() {
    let one = run_chaos(&quick_options(99, 24, 1));
    let four = run_chaos(&quick_options(99, 24, 4));
    assert!(one.violations.is_empty(), "{:?}", one.violations);
    assert!(one.ok(), "single-worker run must hold every oracle");
    assert!(four.ok());
    // Identical modulo wall-clock and the recorded worker count.
    let host_free = |r: &ChaosReport| {
        serde_json::to_string(&ChaosReport {
            workers: 0,
            wall_s: 0.0,
            ..r.clone()
        })
        .unwrap()
    };
    assert_eq!(host_free(&one), host_free(&four));
}

#[test]
fn every_fault_drill_detects_its_fault() {
    let dir = std::env::temp_dir().join(format!("hsm_chaos_it_drills_{}", std::process::id()));
    let drills = run_drills(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let expected = [
        "worker-death",
        "cache-corruption",
        "cache-forgery",
        "link-storm",
        "ack-burst-loss",
        "ack-delay-frto-undo",
        "scratch-poison",
    ];
    assert_eq!(drills.len(), expected.len());
    for name in expected {
        let drill = drills
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("missing drill {name}"));
        assert!(drill.passed, "drill {name} failed: {}", drill.detail);
    }
}

#[test]
fn violations_shrink_to_configs_that_still_fail() {
    // Sabotage the ordering bound (zero slack means `enhanced ≤ 0`), so
    // the harness reports real violations to exercise shrinking on.
    let mut opts = quick_options(5, 12, 2);
    opts.oracle.ordering_slack = 0.0;
    let report = run_chaos(&opts);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.check == "model-ordering"),
        "sabotaged oracle must produce ordering violations: {:?}",
        report.violations
    );
    for v in report
        .violations
        .iter()
        .filter(|v| v.check == "model-ordering")
    {
        // The shrunk config (when shrinking made progress) must reproduce
        // the same violation class under the same oracle.
        let minimal = v.shrunk.as_ref().unwrap_or(&v.config);
        let violations = hsm::chaos::check_case(v.case, minimal, &opts.oracle);
        assert!(
            violations.iter().any(|cv| cv.check == v.check),
            "shrunk config lost the {} failure",
            v.check
        );
    }
}

#[test]
fn reproduce_case_expands_to_the_fuzzed_config() {
    let (config, violations) = reproduce_case(42, 7);
    assert_eq!(config, config_for_case(&FuzzRanges::default(), 42, 7));
    assert!(violations.is_empty(), "{violations:?}");
}

/// Satellite of the differential harness: the Table III fixture pinned in
/// `crates/core/tests/golden.rs` regenerated through the oracle's own
/// check — same `round_distribution` call, same 1e-12 tolerance the
/// oracle applies to every fuzzed flow's distribution mass.
#[test]
fn table_iii_golden_agrees_through_the_oracle_tolerance() {
    let tol = TABLE_TOL;
    assert_eq!(tol, 1e-12, "oracle tolerance is the golden tolerance");

    // Paper's Table III point: P_a = 0.2, X_P = 3.
    let rows = round_distribution(0.2, 3.0);
    let golden = [(1u32, 0.2f64), (2, 0.16), (3, 0.128), (4, 0.512)];
    assert_eq!(rows.len(), golden.len());
    for (row, (rounds, p)) in rows.iter().zip(golden) {
        assert_eq!(row.rounds, rounds);
        assert!(
            (row.probability - p).abs() <= tol,
            "P(X={rounds}) = {} departs from golden {p}",
            row.probability
        );
    }
    let mass: f64 = rows.iter().map(|r| r.probability).sum();
    assert!((mass - 1.0).abs() <= tol, "mass {mass}");

    // And the oracle actually enforces that mass on live flows: a clean
    // case reports no table-iii-mass violation.
    let cfg = config_for_case(&quick_ranges(), 1, 0);
    let violations = hsm::chaos::check_case(0, &cfg, &OracleConfig::default());
    assert!(
        !violations.iter().any(|v| v.check == "table-iii-mass"),
        "{violations:?}"
    );
}
