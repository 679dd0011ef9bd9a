//! The differential oracle: one fuzzed config in, a list of violated
//! guarantees out.
//!
//! Three layers of checking per case:
//!
//! 1. **Determinism** — the same config run three ways (fresh scratch,
//!    deliberately poisoned reused scratch, warm cache round-trip) must
//!    produce bit-identical summaries (compared as the disk tier's
//!    exact-bits encoding) and identical traces.
//! 2. **Debug invariants** — every probability in the summary is a
//!    probability, counters are consistent, the config echoes back.
//! 3. **Model oracle** — both throughput models evaluate; the enhanced
//!    breakdown's intermediate quantities stay in domain; the Table III
//!    round distribution carries unit mass to 1e-12; and on the b = 2
//!    operating slice the enhanced prediction respects the Padhye bound.
//!
//! Accuracy against the measurement (`D`) is not judged here: a single
//! flow's measurement can legitimately sit anywhere relative to the two
//! predictions, and every `D` the repo reports is pinned byte for byte by
//! the accuracy ledger (`repro accuracy` → `ACCURACY.json`).

use crate::report::Violation;
use hsm_core::enhanced::{self, round_distribution};
use hsm_core::estimate::EstimateConfig;
use hsm_core::eval::{evaluate_flow, FlowEval};
use hsm_runtime::cache::{CacheConfig, CacheKey, FlowCache};
use hsm_runtime::codec::encode_entry;
use hsm_scenario::runner::{run, Keep, ScenarioConfig, Scratch};
use hsm_simnet::chaos::StormPlan;
use hsm_trace::summary::FlowSummary;
use std::path::{Path, PathBuf};

/// Tolerance on the Table III probability mass.
pub const TABLE_TOL: f64 = 1e-12;

/// Tunable settings of the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleConfig {
    /// Slack factor on the per-case `enhanced ≤ padhye` ordering bound
    /// (numerical headroom, not a modeling allowance).
    pub ordering_slack: f64,
    /// Where the warm-cache differential keeps its disk tier; `None`
    /// checks the in-memory tier only.
    pub cache_dir: Option<PathBuf>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            ordering_slack: 1.05,
            cache_dir: None,
        }
    }
}

/// Compares two summaries as the disk tier's exact-bits encoding
/// ([`encode_entry`]), so NaN, +∞ and −∞ are three different values.
/// Returns a description of the divergence, or `None` when bit-identical.
///
/// Public because the cache-forgery drill uses this exact comparison to
/// prove that a self-consistent forged disk entry — undetectable to the
/// integrity hash by construction — is still caught by the differential
/// oracle.
pub fn compare_summaries(a: &FlowSummary, b: &FlowSummary) -> Option<String> {
    if encode_entry(0, a) == encode_entry(0, b) {
        None
    } else {
        Some(format!(
            "summaries diverge:\n  left:  {a:?}\n  right: {b:?}"
        ))
    }
}

fn violation(case: u64, config: &ScenarioConfig, check: &str, detail: String) -> Violation {
    Violation {
        case,
        check: check.to_owned(),
        detail,
        config: config.clone(),
        shrunk: None,
    }
}

/// Runs the full per-case oracle against one config.
pub fn check_case(case: u64, config: &ScenarioConfig, oracle: &OracleConfig) -> Vec<Violation> {
    let mut violations = Vec::new();

    // --- Layer 1: the three-way differential. -------------------------
    let calm = StormPlan::default();
    let fresh = match run(&mut Scratch::new(), config, &calm, Keep::Trace) {
        Ok(out) => out,
        Err(e) => {
            violations.push(violation(
                case,
                config,
                "run-failed",
                format!("valid config refused to run: {e}"),
            ));
            return violations;
        }
    };
    let summary = fresh.summary();

    let mut scratch = Scratch::new();
    scratch.poison();
    match run(&mut scratch, config, &calm, Keep::Trace) {
        Ok(reused) => {
            if let Some(diff) = compare_summaries(summary, reused.summary()) {
                violations.push(violation(
                    case,
                    config,
                    "determinism-scratch",
                    format!("poisoned-scratch run diverged from fresh run: {diff}"),
                ));
            } else if reused.trace != fresh.trace {
                violations.push(violation(
                    case,
                    config,
                    "determinism-scratch",
                    "summaries match but raw traces diverge".to_owned(),
                ));
            }
        }
        Err(e) => violations.push(violation(
            case,
            config,
            "determinism-scratch",
            format!("poisoned-scratch run failed: {e}"),
        )),
    }

    match warm_cache_round_trip(config, summary, oracle.cache_dir.as_deref()) {
        Ok(Some(diff)) => violations.push(violation(
            case,
            config,
            "determinism-cache",
            format!("warm-cache summary diverged: {diff}"),
        )),
        Ok(None) => {}
        Err(detail) => violations.push(violation(case, config, "determinism-cache", detail)),
    }

    // --- Layer 2: summary invariants. ---------------------------------
    check_summary_invariants(case, config, summary, &mut violations);

    // --- Layer 3: the model oracle. -----------------------------------
    if let Some(eval) = evaluate_flow(summary, &EstimateConfig::default()) {
        check_model_invariants(case, config, &eval, oracle, &mut violations);
    }
    violations
}

/// Inserts the summary into a cache (disk tier when a directory is
/// given), looks it straight back up and compares byte-for-byte.
fn warm_cache_round_trip(
    config: &ScenarioConfig,
    summary: &FlowSummary,
    dir: Option<&Path>,
) -> Result<Option<String>, String> {
    let cache_cfg = match dir {
        // Disk-only: forces the round-trip through the serialized tier.
        Some(d) => CacheConfig {
            memory_entries: 0,
            disk_dir: Some(d.to_path_buf()),
        },
        None => CacheConfig::memory_only(),
    };
    let cache = FlowCache::new(cache_cfg);
    let key = CacheKey::of(config);
    cache
        .insert(key, summary)
        .map_err(|e| format!("cache insert failed: {e}"))?;
    match cache.lookup(key) {
        Some(warm) => Ok(compare_summaries(summary, &warm)),
        None => Err("freshly inserted entry missing on lookup".to_owned()),
    }
}

fn check_summary_invariants(
    case: u64,
    config: &ScenarioConfig,
    s: &FlowSummary,
    out: &mut Vec<Violation>,
) {
    let mut fail = |detail: String| {
        out.push(violation(case, config, "invariant-summary", detail));
    };
    for (name, p) in [
        ("p_d", s.p_d),
        ("p_a", s.p_a),
        ("p_a_burst", s.p_a_burst),
        ("q_hat", s.q_hat),
    ] {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            fail(format!("{name} = {p} is not a probability"));
        }
    }
    for (name, v) in [
        ("throughput_sps", s.throughput_sps),
        ("goodput_sps", s.goodput_sps),
        ("rtt_s", s.rtt_s),
        ("mean_recovery_s", s.mean_recovery_s),
        ("t_rto_s", s.t_rto_s),
        ("acks_per_round", s.acks_per_round),
    ] {
        if !v.is_finite() || v < 0.0 {
            fail(format!("{name} = {v} is negative or non-finite"));
        }
    }
    if !(s.duration_s.is_finite() && s.duration_s > 0.0) {
        fail(format!(
            "duration_s = {} must be finite and positive",
            s.duration_s
        ));
    }
    if s.spurious_timeouts > s.timeouts {
        fail(format!(
            "spurious timeouts {} exceed timeouts {}",
            s.spurious_timeouts, s.timeouts
        ));
    }
    if s.timeout_sequences > s.timeouts {
        fail(format!(
            "timeout sequences {} exceed timeouts {}",
            s.timeout_sequences, s.timeouts
        ));
    }
    if (s.flow, s.w_m, s.b) != (config.flow, config.w_m, config.b) {
        fail(format!(
            "summary echoes flow/w_m/b = {:?}, config says {:?}",
            (s.flow, s.w_m, s.b),
            (config.flow, config.w_m, config.b)
        ));
    }
    if &*s.scenario != config.motion.label() {
        fail(format!(
            "summary scenario '{}' does not match motion '{}'",
            s.scenario,
            config.motion.label()
        ));
    }
}

fn check_model_invariants(
    case: u64,
    config: &ScenarioConfig,
    eval: &FlowEval,
    oracle: &OracleConfig,
    out: &mut Vec<Violation>,
) {
    let breakdown = match enhanced::breakdown(&eval.params) {
        Ok(b) => b,
        Err(e) => {
            out.push(violation(
                case,
                config,
                "invariant-model",
                format!("fitted params left the model domain: {e}"),
            ));
            return;
        }
    };
    let mut fail = |detail: String| {
        out.push(violation(case, config, "invariant-model", detail));
    };
    if !(breakdown.x_p.is_finite() && breakdown.x_p > 0.0) {
        fail(format!("X_P = {} out of domain", breakdown.x_p));
    }
    if !(breakdown.e_x.is_finite() && breakdown.e_x > 0.0) {
        fail(format!("E[X] = {} out of domain", breakdown.e_x));
    }
    if !(breakdown.e_w.is_finite() && breakdown.e_w >= 1.0) {
        fail(format!("E[W] = {} below its clamp", breakdown.e_w));
    }
    if !(0.0..=1.0).contains(&breakdown.q_timeout) {
        fail(format!("Q = {} is not a probability", breakdown.q_timeout));
    }
    if breakdown.window_limited != (breakdown.e_w >= eval.params.w_m) {
        fail(format!(
            "window_limited = {} inconsistent with E[W] = {} vs W_m = {}",
            breakdown.window_limited, breakdown.e_w, eval.params.w_m
        ));
    }
    if !(breakdown.throughput_sps.is_finite() && breakdown.throughput_sps >= 0.0) {
        fail(format!(
            "model throughput {} is negative or non-finite",
            breakdown.throughput_sps
        ));
    }
    if breakdown.throughput_sps != eval.enhanced_sps {
        fail(format!(
            "breakdown throughput {} disagrees with evaluate_flow's {}",
            breakdown.throughput_sps, eval.enhanced_sps
        ));
    }

    // Table III: the CA-round distribution is a probability distribution.
    let rows = round_distribution(eval.params.p_a_burst, breakdown.x_p);
    let mass: f64 = rows.iter().map(|r| r.probability).sum();
    if (mass - 1.0).abs() > TABLE_TOL {
        out.push(violation(
            case,
            config,
            "table-iii-mass",
            format!(
                "round distribution mass {mass} misses 1.0 by {} (> {})",
                (mass - 1.0).abs(),
                TABLE_TOL
            ),
        ));
    }
    if rows
        .iter()
        .any(|r| !(0.0..=1.0).contains(&r.probability) || !r.probability.is_finite())
    {
        out.push(violation(
            case,
            config,
            "table-iii-mass",
            "round distribution contains a non-probability entry".to_owned(),
        ));
    }

    // The Padhye bound: the enhanced model only *adds* impairments, so on
    // the slice where its algebra is exact (b = 2) and parameters are
    // moderate it can never predict materially more than the baseline.
    let p = &eval.params;
    if p.b == 2.0 && p.p_d <= 0.08 && p.w_m >= 8.0 {
        let bound = eval.padhye_sps * oracle.ordering_slack;
        if eval.enhanced_sps > bound {
            out.push(violation(
                case,
                config,
                "model-ordering",
                format!(
                    "enhanced {} exceeds padhye {} × {} slack",
                    eval.enhanced_sps, eval.padhye_sps, oracle.ordering_slack
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_scenario::runner::{run_scenario, Motion};
    use hsm_simnet::time::SimDuration;

    fn quick_config() -> ScenarioConfig {
        ScenarioConfig::builder()
            .motion(Motion::Stationary)
            .duration(SimDuration::from_secs(5))
            .seed(3)
            .build()
            .expect("valid")
    }

    #[test]
    fn clean_config_passes_every_check() {
        let violations = check_case(0, &quick_config(), &OracleConfig::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn forged_summary_is_caught_by_the_differential() {
        let cfg = quick_config();
        let fresh = run_scenario(&cfg);
        let mut forged = fresh.summary().clone();
        forged.throughput_sps *= 1.5;
        let diff = compare_summaries(fresh.summary(), &forged);
        assert!(diff.is_some(), "altered summary must not compare equal");
        assert!(compare_summaries(fresh.summary(), fresh.summary()).is_none());
        // JSON writes NaN and ±∞ alike (as `null`); the exact-bits
        // comparison must still tell them apart.
        let mut nan = fresh.summary().clone();
        nan.acks_per_round = f64::NAN;
        let mut inf = nan.clone();
        inf.acks_per_round = f64::INFINITY;
        assert!(
            compare_summaries(&nan, &inf).is_some(),
            "NaN and +inf must not compare equal"
        );
    }

    #[test]
    fn broken_invariant_is_detected() {
        // Feed the summary checker a deliberately corrupted summary: the
        // oracle must flag it (detection proof for the invariant layer).
        let cfg = quick_config();
        let fresh = run_scenario(&cfg);
        let mut bad = fresh.summary().clone();
        bad.p_d = 1.5;
        bad.spurious_timeouts = bad.timeouts + 1;
        bad.duration_s = f64::NAN;
        bad.acks_per_round = f64::INFINITY;
        let mut violations = Vec::new();
        check_summary_invariants(9, &cfg, &bad, &mut violations);
        assert!(
            violations.iter().any(|v| v.detail.contains("p_d")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.detail.contains("spurious")),
            "{violations:?}"
        );
        for field in ["duration_s", "acks_per_round"] {
            assert!(
                violations.iter().any(|v| v.detail.contains(field)),
                "{field}: {violations:?}"
            );
        }
        assert!(violations.iter().all(|v| v.case == 9));
    }

    #[test]
    fn warm_cache_round_trip_detects_divergence() {
        let cfg = quick_config();
        let fresh = run_scenario(&cfg);
        assert_eq!(
            warm_cache_round_trip(&cfg, fresh.summary(), None),
            Ok(None),
            "honest round-trip must be bit-identical"
        );
    }
}
