//! Eq. (21) against a Monte-Carlo of the renewal process it assumes.
//!
//! [`simulate`] plays that process round by round, and nothing else:
//!
//! * each phase starts at half the previous phase's final window; there is
//!   no slow start, as in the model;
//! * each round sends `n = max(1, min(⌊W⌋, W_m))` segments, and `W` grows
//!   by `1/b` per round up to `W_m`;
//! * with probability `P_a` every ACK of the round is lost, and the phase
//!   ends in a timeout;
//! * otherwise the first data loss is one geometric draw per round. The
//!   rest of that round is lost, and one more round is sent: one segment
//!   per segment the loss round delivered. The indication is a timeout iff
//!   fewer than 3 segments of that extra round arrive before a loss (fewer
//!   than 3 duplicate ACKs); otherwise the window halves;
//! * a timeout sequence fails each retry with
//!   `1 − (1 − max(q, p_d))(1 − P_a)`, and its k-th timeout (k from 0)
//!   lasts `T·2^min(k,6)`;
//! * throughput = segments sent ÷ (rounds·RTT + timeout time), the units of
//!   Eq. (21)'s numerator.
//!
//! Over the grid `p_d` {1e-3, 1e-2, 5e-2} × `P_a` {0, 0.05} × `q`
//! {0.1, 0.4} × `b` {1, 2, 3} × `W_m` {8, 64} × `T/RTT` {2, 10} the process
//! settles two questions about the closed form:
//!
//! * **Which algebra.** `hsm_core::enhanced` (Eq. 4 as derived,
//!   `E[W] = (2/b)·E[X] − 2`) stays inside [`BAND`] at every point. The
//!   printed algebra (`E[W] = (b/2)·E[X] − 2`, Eq. 15's constants), kept
//!   here only as [`printed`], leaves it at `b = 1` and `b = 3`.
//! * **Which `Q̂`.** Padhye's exact timeout probability lowers the worst
//!   miss at `b = 1` only; at `b = 2` and `b = 3` the worst points are
//!   window-limited, where `Q̂` barely enters. So `hsm-core` keeps the
//!   `min(1, 3/w)` shortcut, and the exact form lives here as
//!   [`q_p_exact`].

use hsm::model::enhanced::{self, e_v, e_x, q_enhanced, timeout_sequence_terms};
use hsm::model::padhye::{q_p, x_p};
use hsm::model::params::ModelParams;
use hsm::simnet::rng::SimRng;
use std::ops::RangeInclusive;
use std::sync::OnceLock;

/// Model ÷ Monte-Carlo throughput: the validity region of the kept
/// algebra over the grid.
const BAND: RangeInclusive<f64> = 0.5..=2.0;

/// Renewal phases simulated per grid point.
const PHASES: u32 = 5_000;

/// Simulates [`PHASES`] phases of Eq. (21)'s process (module docs) and
/// returns the throughput in segments per second.
fn simulate(p: &ModelParams, rng: &mut SimRng) -> f64 {
    let ln_keep = (1.0 - p.p_d).ln();
    // Segments delivered before the first data loss: Geometric(p_d) on {0, 1, …}.
    let delivered_before_loss = |rng: &mut SimRng| ((1.0 - rng.unit()).ln() / ln_keep) as u64;
    let p_fail = 1.0 - (1.0 - p.q.max(p.p_d)) * (1.0 - p.p_a_burst);
    let (mut w, mut sent, mut rounds, mut timeout_s) = (1.0_f64, 0_u64, 0_u64, 0.0_f64);
    for _ in 0..PHASES {
        let timeout = loop {
            let n = w.floor().min(p.w_m).max(1.0) as u64;
            rounds += 1;
            sent += n;
            if rng.chance(p.p_a_burst) {
                break true;
            }
            let k = delivered_before_loss(rng);
            if k < n {
                rounds += 1;
                sent += k;
                break delivered_before_loss(rng).min(k) < 3;
            }
            w = (w + 1.0 / p.b).min(p.w_m);
        };
        if timeout {
            let mut k = 0;
            loop {
                timeout_s += p.t_rto_s * f64::from(1_u32 << k.min(6));
                sent += 1;
                k += 1;
                if !rng.chance(p_fail) {
                    break;
                }
            }
        }
        w /= 2.0;
    }
    sent as f64 / (rounds as f64 * p.rtt_s + timeout_s)
}

/// One grid point and its simulated throughput.
struct Point {
    params: ModelParams,
    mc_sps: f64,
}

/// The grid, simulated once per test binary from one fixed seed.
fn grid() -> &'static [Point] {
    static GRID: OnceLock<Vec<Point>> = OnceLock::new();
    GRID.get_or_init(|| {
        let mut rng = SimRng::seed_from_u64(2016);
        let mut points = Vec::new();
        for b in [1.0, 2.0, 3.0] {
            for p_d in [1e-3, 1e-2, 5e-2] {
                for p_a_burst in [0.0, 0.05] {
                    for q in [0.1, 0.4] {
                        for w_m in [8.0, 64.0] {
                            for t_over_rtt in [2.0, 10.0] {
                                let params = ModelParams {
                                    rtt_s: 0.1,
                                    t_rto_s: 0.1 * t_over_rtt,
                                    p_d,
                                    p_a_burst,
                                    q,
                                    b,
                                    w_m,
                                };
                                let mc_sps = simulate(&params, &mut rng);
                                points.push(Point { params, mc_sps });
                            }
                        }
                    }
                }
            }
        }
        points
    })
}

/// `model ÷ Monte-Carlo` at every grid point with delayed-ACK factor `b`.
fn ratios(b: f64, model: impl Fn(&ModelParams) -> f64) -> Vec<f64> {
    grid()
        .iter()
        .filter(|pt| pt.params.b == b)
        .map(|pt| model(&pt.params) / pt.mc_sps)
        .collect()
}

/// The worst `|model ÷ Monte-Carlo − 1|` at delayed-ACK factor `b`.
fn worst_miss(b: f64, model: impl Fn(&ModelParams) -> f64) -> f64 {
    ratios(b, model)
        .into_iter()
        .map(|r| (r - 1.0).abs())
        .fold(0.0, f64::max)
}

fn kept(p: &ModelParams) -> f64 {
    enhanced::throughput(p).unwrap()
}

/// Eq. (21)'s quotient around the given CA-phase terms and timeout
/// probability.
fn assemble(p: &ModelParams, e_x: f64, e_y: f64, q: f64) -> f64 {
    let to = timeout_sequence_terms(p);
    (e_y.max(0.0) + q * to.e_y_to) / (p.rtt_s * e_x + q * to.e_a_to)
}

/// Eq. (21) in the printed algebra `hsm-core` does not evaluate: Eq. (4)'s
/// first line `E[W] = (b/2)·E[X] − 2` and Eq. (15)'s
/// `E[Y] = 3b/8·E²[X] − (6+b)/4·E[X] − 1`.
fn printed(p: &ModelParams) -> f64 {
    let (b, w_m) = (p.b, p.w_m);
    let xp = x_p(p.p_d, b);
    let ex = e_x(p.p_a_burst, xp);
    let ew = ((b / 2.0) * ex - 2.0).max(1.0);
    let (ex, ey) = if ew < w_m {
        (ex, 3.0 * b / 8.0 * ex * ex - (6.0 + b) / 4.0 * ex - 1.0)
    } else {
        // Eqs. (16)–(20), the same in both algebras.
        let v_p = ((1.0 - p.p_d) / (p.p_d * w_m) + 1.0 - 3.0 * b * w_m / 8.0).max(1.0);
        let ev = e_v(p.p_a_burst, v_p);
        (
            b * w_m / 2.0 + ev,
            3.0 * b * w_m * w_m / 8.0 + w_m * (ev - 0.5),
        )
    };
    assemble(p, ex, ey, q_enhanced(q_p(ew), p.p_a_burst, xp))
}

/// Padhye's exact timeout probability (ToN 2000, Eq. 23): given a loss in
/// a window of `w`, the probability that fewer than three duplicate ACKs
/// return, `min(1, (1−(1−p)³)(1+(1−p)³(1−(1−p)^(w−3))) / (1−(1−p)^w))`.
fn q_p_exact(p: f64, w: f64) -> f64 {
    if w <= 3.0 {
        return 1.0;
    }
    let s = 1.0 - p;
    let num = (1.0 - s.powi(3)) * (1.0 + s.powi(3) * (1.0 - s.powf(w - 3.0)));
    (num / (1.0 - s.powf(w))).min(1.0)
}

/// `hsm-core`'s model with [`q_p_exact`] in place of `min(1, 3/w)`.
fn with_exact_q(p: &ModelParams) -> f64 {
    let bd = enhanced::breakdown(p).unwrap();
    let q = q_enhanced(q_p_exact(p.p_d, bd.e_w), p.p_a_burst, bd.x_p);
    assemble(p, bd.e_x, bd.e_y, q)
}

#[test]
fn the_derived_algebra_stays_inside_the_band_at_every_point() {
    for pt in grid() {
        let ratio = kept(&pt.params) / pt.mc_sps;
        assert!(
            BAND.contains(&ratio),
            "model/MC = {ratio:.3} outside {BAND:?} at {:?} (MC {:.2} seg/s)",
            pt.params,
            pt.mc_sps
        );
    }
}

#[test]
fn the_printed_algebra_leaves_the_band_at_b_1_and_3() {
    for b in [1.0, 3.0] {
        let outside = ratios(b, printed)
            .into_iter()
            .filter(|r| !BAND.contains(r))
            .count();
        assert!(outside > 0, "printed algebra inside {BAND:?} at b = {b}");
        assert!(worst_miss(b, printed) > worst_miss(b, kept), "b = {b}");
    }
    // At b = 2 the two E[W] forms coincide; only the ±1 constant differs.
    assert!(ratios(2.0, printed).iter().all(|r| BAND.contains(r)));
}

#[test]
fn the_exact_timeout_probability_does_not_lower_the_worst_miss_at_every_b() {
    // "Lowers" means by more than 0.01, far below the worst miss's own
    // seed-to-seed spread at this sample size.
    let lowers = |b: f64| worst_miss(b, with_exact_q) < worst_miss(b, kept) - 0.01;
    assert!(lowers(1.0), "exact Q̂ no longer helps at b = 1");
    assert!(!lowers(2.0) && !lowers(3.0));
}

#[test]
fn assemble_reproduces_the_breakdown() {
    for pt in grid() {
        let bd = enhanced::breakdown(&pt.params).unwrap();
        let again = assemble(&pt.params, bd.e_x, bd.e_y, bd.q_timeout);
        assert_eq!(again.to_bits(), bd.throughput_sps.to_bits());
    }
}
