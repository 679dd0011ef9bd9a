//! Scenario fuzzing: compact seed → randomized-but-valid
//! [`ScenarioConfig`], plus greedy shrinking to a minimal failing config.
//!
//! The paper's model inputs (`p_d`, `P_a`, `q`, RTT, handoff cadence) are
//! emergent properties of a simulated flow, not free knobs: the fuzzer
//! varies everything that *determines* them — provider (three distinct
//! path/cell/handoff profiles), motion, master seed (which also picks the
//! corridor starting point, i.e. which coverage holes the ride crosses),
//! duration, `w_m` and `b` — so a sweep of cases sweeps the model's whole
//! input surface.

use crate::rng::ChaosRng;
use hsm_scenario::provider::Provider;
use hsm_scenario::runner::{Motion, ScenarioConfig};
use hsm_simnet::time::SimDuration;
use hsm_tcp::cc::Algorithm;
use hsm_tcp::recovery::Recovery;

/// Salt for the congestion-control draw's *separate* rng stream: drawing
/// the CC from `master ^ CC_SALT` instead of the main case stream keeps
/// every pre-existing field draw for `(master, case)` bit-identical to
/// the pre-zoo fuzzer, so pinned chaos reports stay comparable.
const CC_SALT: u64 = 0xcc5a_0070_0b8d_641d;

/// Salt for the loss-recovery draw's rng stream. Same trick as
/// [`CC_SALT`]: a separate stream keyed on `master ^ RECOVERY_SALT`
/// leaves every pre-existing draw for `(master, case)` bit-identical, so
/// the pinned chaos fixture only changes where recovery itself differs.
const RECOVERY_SALT: u64 = 0x7ec0_3e6e_5a1d_9b2f;

/// Bounds the fuzzer draws configurations from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzRanges {
    /// Flow duration, whole seconds (inclusive) — the roaming cases.
    pub duration_s: (u64, u64),
    /// Advertised window, segments (inclusive) — the roaming cases.
    pub w_m: (u32, u32),
    /// Delayed-ACK factor (inclusive).
    pub b: (u32, u32),
    /// Flow ids are drawn from `0..=max_flow`.
    pub max_flow: u32,
    /// Flow duration, whole seconds (inclusive), for operating-region
    /// cases: long enough for steady-state model assumptions to apply.
    pub region_duration_s: (u64, u64),
    /// Advertised window (inclusive) for operating-region cases.
    pub region_w_m: (u32, u32),
}

impl Default for FuzzRanges {
    /// Ranges spanning the paper's operating region and its surroundings:
    /// roaming cases use short flows, windows from tiny (4) to the
    /// measured defaults (48–64) and every delayed-ACK factor the models
    /// accept; operating-region cases replicate the paper's measurement
    /// campaigns (60–120 s flows, `w_m` 32–64).
    fn default() -> Self {
        FuzzRanges {
            duration_s: (2, 12),
            w_m: (4, 64),
            b: (1, 3),
            max_flow: 999,
            region_duration_s: (60, 120),
            region_w_m: (32, 64),
        }
    }
}

/// Derives case `case` of master seed `master`: always valid (passes
/// [`ScenarioConfig::validate`]), always the same for the same pair.
///
/// Roughly 40 % of cases are pinned inside the paper's operating region
/// (high-speed, `b = 2`, long flows, `w_m ≥ 32`): they are the fuzzer's
/// only 60–120 s flows, so the per-case checks see the long rides the
/// paper measured; the rest roam the full ranges.
pub fn config_for_case(ranges: &FuzzRanges, master: u64, case: u64) -> ScenarioConfig {
    let mut rng = ChaosRng::for_case(master, case);
    let in_region = rng.chance(2, 5);
    let (dur_lo, dur_hi) = ranges.duration_s;
    let (wm_lo, wm_hi) = ranges.w_m;
    let provider = *pick(&mut rng, &Provider::ALL);
    if in_region {
        let dur = rng.range_u64(ranges.region_duration_s.0, ranges.region_duration_s.1);
        let w_m = rng.range_u64(
            u64::from(ranges.region_w_m.0),
            u64::from(ranges.region_w_m.1),
        ) as u32;
        ScenarioConfig {
            provider,
            motion: Motion::HighSpeed,
            seed: rng.next_u64(),
            duration: SimDuration::from_secs(dur),
            w_m,
            b: 2,
            flow: rng.range_u64(0, u64::from(ranges.max_flow)) as u32,
            // Operating-region cases always run Reno with no recovery
            // countermeasure: the paper's measurement campaigns and its
            // models assume plain AIMD timeout dynamics.
            cc: Algorithm::Reno,
            recovery: Recovery::None,
        }
    } else {
        let motion = if rng.chance(3, 4) {
            Motion::HighSpeed
        } else {
            Motion::Stationary
        };
        ScenarioConfig {
            provider,
            motion,
            seed: rng.next_u64(),
            duration: SimDuration::from_secs(rng.range_u64(dur_lo, dur_hi)),
            w_m: rng.range_u64(u64::from(wm_lo), u64::from(wm_hi)) as u32,
            b: rng.range_u64(u64::from(ranges.b.0), u64::from(ranges.b.1)) as u32,
            flow: rng.range_u64(0, u64::from(ranges.max_flow)) as u32,
            cc: cc_for_case(master, case),
            recovery: recovery_for_case(master, case),
        }
    }
}

/// The congestion control a roaming case runs, drawn from the whole zoo
/// so the differential oracle's invariants cover every controller.
fn cc_for_case(master: u64, case: u64) -> Algorithm {
    let mut rng = ChaosRng::for_case(master ^ CC_SALT, case);
    let zoo = Algorithm::zoo();
    *pick(&mut rng, &zoo)
}

/// The loss-recovery countermeasure a roaming case runs, drawn from all
/// four variants so the differential oracle exercises every strategy
/// against every controller.
fn recovery_for_case(master: u64, case: u64) -> Recovery {
    let mut rng = ChaosRng::for_case(master ^ RECOVERY_SALT, case);
    *pick(&mut rng, &Recovery::ALL)
}

/// One shrinking pass: every candidate reduction of `config`, roughly
/// ordered from biggest simplification to smallest.
fn shrink_candidates(config: &ScenarioConfig) -> Vec<ScenarioConfig> {
    let mut out = Vec::new();
    let mut push = |c: ScenarioConfig| {
        if c != *config && c.validate().is_ok() {
            out.push(c);
        }
    };
    // Stationary flows are far simpler to reason about than mobile ones.
    push(ScenarioConfig {
        motion: Motion::Stationary,
        ..config.clone()
    });
    // Reno is the best-understood controller; drop the zoo member first.
    push(ScenarioConfig {
        cc: Algorithm::Reno,
        ..config.clone()
    });
    // Likewise strip any recovery countermeasure back to plain RFC 6298.
    push(ScenarioConfig {
        recovery: Recovery::None,
        ..config.clone()
    });
    push(ScenarioConfig {
        provider: Provider::ChinaMobile,
        ..config.clone()
    });
    let dur_s = config.duration.as_secs_f64().ceil() as u64;
    if dur_s > 2 {
        push(ScenarioConfig {
            duration: SimDuration::from_secs((dur_s / 2).max(2)),
            ..config.clone()
        });
    }
    if config.w_m > 4 {
        push(ScenarioConfig {
            w_m: (config.w_m / 2).max(4),
            ..config.clone()
        });
    }
    if config.b > 1 {
        push(ScenarioConfig {
            b: config.b - 1,
            ..config.clone()
        });
    }
    if config.flow != 0 {
        push(ScenarioConfig {
            flow: 0,
            ..config.clone()
        });
    }
    if config.seed != 0 {
        push(ScenarioConfig {
            seed: config.seed / 2,
            ..config.clone()
        });
    }
    out
}

/// Greedily shrinks a failing config to a local minimum: repeatedly takes
/// the first candidate reduction that still makes `fails` return `true`,
/// until no reduction does (or the evaluation budget runs out). `fails`
/// must be deterministic; the result is then reproducible from the
/// original config alone.
pub fn shrink(
    config: &ScenarioConfig,
    mut fails: impl FnMut(&ScenarioConfig) -> bool,
    budget: usize,
) -> ScenarioConfig {
    let mut current = config.clone();
    let mut evals = 0;
    'outer: loop {
        for candidate in shrink_candidates(&current) {
            if evals >= budget {
                break 'outer;
            }
            evals += 1;
            if fails(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        break;
    }
    current
}

fn pick<'a, T>(rng: &mut ChaosRng, xs: &'a [T]) -> &'a T {
    &xs[rng.range_u64(0, xs.len() as u64 - 1) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `config` is an operating-region case: the shape only the
    /// region branch of [`config_for_case`] draws.
    fn in_operating_region(config: &ScenarioConfig) -> bool {
        config.motion == Motion::HighSpeed
            && config.b == 2
            && config.w_m >= 32
            && config.duration >= SimDuration::from_secs(60)
            && config.cc == Algorithm::Reno
            && config.recovery == Recovery::None
    }

    #[test]
    fn fuzzed_configs_are_valid_and_reproducible() {
        let ranges = FuzzRanges::default();
        for case in 0..200 {
            let a = config_for_case(&ranges, 42, case);
            let b = config_for_case(&ranges, 42, case);
            assert_eq!(a, b, "case {case} not reproducible");
            a.validate().expect("fuzzed config must be valid");
            assert!(a.w_m >= 4 && a.w_m <= 64);
            assert!(a.b >= 1 && a.b <= 3);
            let dur = a.duration.as_secs_f64();
            if in_operating_region(&a) {
                assert!((60.0..=120.0).contains(&dur), "region duration {dur}");
            } else {
                assert!((2.0..=120.0).contains(&dur), "duration {dur}");
            }
        }
    }

    #[test]
    fn region_cases_run_reno_and_roamers_cover_the_zoo() {
        let ranges = FuzzRanges::default();
        let mut seen = std::collections::BTreeSet::new();
        for case in 0..400 {
            let cfg = config_for_case(&ranges, 42, case);
            if in_operating_region(&cfg) {
                assert_eq!(cfg.cc, Algorithm::Reno, "case {case}");
            } else {
                seen.insert(cfg.cc.label());
            }
        }
        for member in Algorithm::zoo() {
            assert!(
                seen.contains(member.label()),
                "400 cases never drew {}",
                member.label()
            );
        }
    }

    #[test]
    fn region_cases_pin_no_recovery_and_roamers_cover_all_variants() {
        let ranges = FuzzRanges::default();
        let mut seen = std::collections::BTreeSet::new();
        for case in 0..400 {
            let cfg = config_for_case(&ranges, 42, case);
            if in_operating_region(&cfg) {
                assert_eq!(cfg.recovery, Recovery::None, "case {case}");
            } else {
                seen.insert(cfg.recovery.label());
            }
        }
        for variant in Recovery::ALL {
            assert!(
                seen.contains(variant.label()),
                "400 cases never drew {}",
                variant.label()
            );
        }
    }

    #[test]
    fn recovery_draw_does_not_perturb_the_other_streams() {
        // The recovery stream is salted separately: every other field of
        // a roaming case must match a draw made without consuming it.
        let ranges = FuzzRanges::default();
        for case in 0..50 {
            let cfg = config_for_case(&ranges, 42, case);
            let again = config_for_case(&ranges, 42, case);
            assert_eq!(cfg, again);
        }
    }

    #[test]
    fn fuzzer_populates_the_operating_region() {
        let ranges = FuzzRanges::default();
        let hits = (0..200)
            .filter(|&c| in_operating_region(&config_for_case(&ranges, 7, c)))
            .count();
        assert!(hits >= 40, "only {hits}/200 cases in the operating region");
    }

    #[test]
    fn shrink_reaches_the_minimal_config_for_a_simple_predicate() {
        // A predicate any config satisfies shrinks to the global floor.
        let start = config_for_case(&FuzzRanges::default(), 1, 3);
        let min = shrink(&start, |_| true, 500);
        assert_eq!(min.motion, Motion::Stationary);
        assert_eq!(min.cc, Algorithm::Reno);
        assert_eq!(min.recovery, Recovery::None);
        assert_eq!(min.provider, Provider::ChinaMobile);
        assert_eq!(min.w_m, 4);
        assert_eq!(min.b, 1);
        assert_eq!(min.flow, 0);
        assert_eq!(min.seed, 0);
        assert!(min.duration <= SimDuration::from_secs(2));
    }

    #[test]
    fn shrink_preserves_the_failure() {
        // Predicate: fails whenever w_m >= 16. The shrinker must keep it.
        let start = ScenarioConfig {
            w_m: 64,
            ..ScenarioConfig::default()
        };
        let min = shrink(&start, |c| c.w_m >= 16, 500);
        assert_eq!(min.w_m, 16);
        assert_eq!(min.b, 1);
    }

    #[test]
    fn shrink_respects_the_budget() {
        let start = config_for_case(&FuzzRanges::default(), 9, 9);
        let mut evals = 0;
        let _ = shrink(
            &start,
            |_| {
                evals += 1;
                true
            },
            10,
        );
        assert!(evals <= 10);
    }
}
