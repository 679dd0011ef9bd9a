//! The enhanced TCP throughput model for high-speed mobility scenarios —
//! the paper's contribution (Section IV, Eqs. (1)–(21)).
//!
//! Two features distinguish it from the Padhye baseline:
//!
//! * **ACK burst loss** (`P_a`): a congestion-avoidance phase can end not
//!   only by data loss but also because *all ACKs of a round* were lost,
//!   which always produces a (spurious) timeout. The number of rounds in a
//!   CA phase becomes the truncated-geometric variable of Table III with
//!   expectation `E[X] = (1 − (1−P_a)^(X_P+1)) / P_a` (Eq. 2).
//! * **Lossy timeout recovery** (`q`): retransmissions inside the timeout
//!   recovery phase are lost at rate `q ≫ p_d`, so a timeout sequence
//!   lasts `E[A^TO] = T·f(p)/(1−p)` with
//!   `p = 1 − (1−q)(1−P_a)` (retransmission *or* its ACK lost).
//!
//! ## One algebra for Eq. (4)
//!
//! The printed Eq. (4) first line states `E[W] = (b/2)·E[X] − 2`, and
//! Eqs. (7)/(15) are built from it with a `−1` constant term. Its own
//! derivation from Eq. (3) (`W_i = W_{i−1}/2 + X/b − 1` in equilibrium)
//! gives `E[W] = (2/b)·E[X] − 2` ([`e_w`]) and
//! `E[Y] = E[W]/2·(3E[X]/2 − 1)` (Eq. 6, a `+1` constant), which is what
//! this module evaluates. The two `E[W]` forms coincide at `b = 2`. A
//! round-level Monte-Carlo of the renewal process Eq. (21) assumes
//! (`tests/model_form.rs`) keeps this form within `[0.5, 2]` of the
//! process at every point of its grid, while the printed form predicts as
//! little as 1.2 % of the simulated throughput at `b = 1` and up to 5.7×
//! at `b = 3`.

use crate::padhye::{f_backoff, q_p, x_p};
use crate::params::{ModelParams, ValidateParamsError};

/// Expected number of rounds in a CA phase (Eq. 2):
/// `E[X] = (1 − (1−P_a)^(X_P+1)) / P_a`, with the `P_a → 0` limit
/// `X_P + 1`.
pub fn e_x(p_a: f64, x_p_rounds: f64) -> f64 {
    truncated_geometric_mean(p_a, x_p_rounds + 1.0)
}

/// Expected number of post-`W_m` rounds in a window-limited CA phase
/// (Eq. 18): `E[V] = (1 − (1−P_a)^(V_P)) / P_a`, limit `V_P`.
pub fn e_v(p_a: f64, v_p_rounds: f64) -> f64 {
    truncated_geometric_mean(p_a, v_p_rounds)
}

/// Expected window at the end of a CA phase (Eq. 4, from Eq. 3's
/// equilibrium): `E[W] = (2/b)·E[X] − 2`, floored at one segment.
pub fn e_w(e_x: f64, b: f64) -> f64 {
    ((2.0 / b) * e_x - 2.0).max(1.0)
}

/// `E[min(G, n)]` for `G ~ Geometric(p)` over `{1, 2, …}`:
/// `(1 − (1−p)^n) / p`, with the `p → 0` limit `n`.
fn truncated_geometric_mean(p: f64, n: f64) -> f64 {
    if p <= 1e-12 {
        n
    } else {
        (1.0 - (1.0 - p).powf(n)) / p
    }
}

/// Probability that a loss indication is a timeout (Eq. 10):
/// `Q = 1 − (1 − Q_P)·(1−P_a)^(X_P)`.
pub fn q_enhanced(q_padhye: f64, p_a: f64, x_p_rounds: f64) -> f64 {
    1.0 - (1.0 - q_padhye) * (1.0 - p_a).powf(x_p_rounds)
}

/// Per-timeout-sequence quantities (Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeoutSequenceTerms {
    /// `p = 1 − (1−q)(1−P_a)`: probability one recovery attempt fails.
    pub p_fail: f64,
    /// `E[R] = 1/(1−p)`: expected timeouts per sequence (Eq. 11).
    pub e_r: f64,
    /// `E[Y^TO] = (1−q)^(E[R])`: packets delivered per sequence (Eq. 12).
    pub e_y_to: f64,
    /// `E[A^TO] = T·f(p)/(1−p)`: sequence duration, seconds (Eq. 13).
    pub e_a_to: f64,
}

/// Computes the timeout-sequence terms for the given parameters.
pub fn timeout_sequence_terms(params: &ModelParams) -> TimeoutSequenceTerms {
    // Retransmissions traverse the same channel as first transmissions, so
    // the per-retransmission loss rate can never sit below the ambient
    // data-loss rate: floor q at p_d. Without the floor, `q < p_d` (e.g. a
    // trace with no measured retransmission loss) priced timeout recovery
    // *cheaper* than Padhye's `T·f(p)/(1−p)` with `p = p_d`, letting the
    // enhanced model exceed the Padhye bound it only adds impairments to.
    let q = params.q.max(params.p_d);
    let p_fail = (1.0 - (1.0 - q) * (1.0 - params.p_a_burst)).clamp(0.0, 0.999_999);
    let e_r = 1.0 / (1.0 - p_fail);
    TimeoutSequenceTerms {
        p_fail,
        e_r,
        e_y_to: (1.0 - q).powf(e_r),
        e_a_to: params.t_rto_s * f_backoff(p_fail) / (1.0 - p_fail),
    }
}

/// One row of Table III: the distribution of the number of rounds `X` in a
/// CA phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundProbability {
    /// Number of rounds `X = k`.
    pub rounds: u32,
    /// `P(X = k)`.
    pub probability: f64,
}

/// The full Table III distribution: `P(X=k) = (1−P_a)^(k−1)·P_a` for
/// `k ≤ X_P` and `P(X = X_P+1) = (1−P_a)^(X_P)`, with `X_P` rounded to the
/// nearest whole round.
pub fn round_distribution(p_a: f64, x_p_rounds: f64) -> Vec<RoundProbability> {
    let xp = x_p_rounds.round().max(1.0) as u32;
    let mut out = Vec::with_capacity(xp as usize + 1);
    for k in 1..=xp {
        out.push(RoundProbability {
            rounds: k,
            probability: (1.0 - p_a).powi(k as i32 - 1) * p_a,
        });
    }
    out.push(RoundProbability {
        rounds: xp + 1,
        probability: (1.0 - p_a).powi(xp as i32),
    });
    out
}

/// Every intermediate quantity of one model evaluation — exposed so the
/// experiment harness can print the full derivation chain
/// (C-INTERMEDIATE).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnhancedBreakdown {
    /// `X_P` (Eq. 1).
    pub x_p: f64,
    /// `E[X]` (Eq. 2, or Eq. 20 in the window-limited branch).
    pub e_x: f64,
    /// `E[W]` (Eq. 4).
    pub e_w: f64,
    /// `E[Y]` (Eq. 6 / 19).
    pub e_y: f64,
    /// `Q` (Eq. 10).
    pub q_timeout: f64,
    /// Timeout-sequence terms.
    pub to: TimeoutSequenceTerms,
    /// True when the `E[W] ≥ W_m` branch of Eq. (21) was taken.
    pub window_limited: bool,
    /// The resulting steady-state throughput, segments per second.
    pub throughput_sps: f64,
}

/// Evaluates Eq. (21) and returns every intermediate quantity.
///
/// # Errors
///
/// Returns the parameter-validation error if `params` is out of domain.
pub fn breakdown(params: &ModelParams) -> Result<EnhancedBreakdown, ValidateParamsError> {
    params.validate()?;
    let (p_a, b, rtt, w_m) = (params.p_a_burst, params.b, params.rtt_s, params.w_m);
    let xp = x_p(params.p_d, b);
    let ex_unlimited = e_x(p_a, xp);
    let ew = e_w(ex_unlimited, b);
    let to = timeout_sequence_terms(params);
    let q = q_enhanced(q_p(ew), p_a, xp);

    let window_limited = ew >= w_m;
    let (ex, ey) = if !window_limited {
        // E[Y] = E[W]/2 · (3E[X]/2 − 1)  (Eq. 6).
        (ex_unlimited, ew / 2.0 * (3.0 * ex_unlimited / 2.0 - 1.0))
    } else {
        // Window-limited branch (Section IV-D).
        let e_u = b * w_m / 2.0; // Eq. (16)
        let v_p = ((1.0 - params.p_d) / (params.p_d * w_m) + 1.0 - 3.0 * b * w_m / 8.0).max(1.0); // Eq. (17)
        let ev = e_v(p_a, v_p); // Eq. (18)
        let ey = 3.0 * b * w_m * w_m / 8.0 + w_m * (ev - 0.5); // Eq. (19)
        (e_u + ev, ey) // Eq. (20)
    };

    let numerator = ey.max(0.0) + q * to.e_y_to;
    let denominator = rtt * ex + q * to.e_a_to;
    let throughput_sps = (numerator / denominator).max(0.0);
    Ok(EnhancedBreakdown {
        x_p: xp,
        e_x: ex,
        e_w: ew,
        e_y: ey,
        q_timeout: q,
        to,
        window_limited,
        throughput_sps,
    })
}

/// Eq. (21): the steady-state throughput in segments per second.
///
/// # Errors
///
/// Returns the parameter-validation error if `params` is out of domain.
pub fn throughput(params: &ModelParams) -> Result<f64, ValidateParamsError> {
    Ok(breakdown(params)?.throughput_sps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e_x_matches_exact_distribution_sum() {
        // E[X] computed from the Table III distribution must equal Eq. (2)
        // when X_P is whole.
        for &(pa, xp) in &[(0.1, 7.0), (0.01, 25.0), (0.5, 3.0)] {
            let dist = round_distribution(pa, xp);
            let mean: f64 = dist
                .iter()
                .map(|r| f64::from(r.rounds) * r.probability)
                .sum();
            let formula = e_x(pa, xp);
            assert!(
                (mean - formula).abs() < 1e-9,
                "pa={pa} xp={xp}: {mean} vs {formula}"
            );
        }
    }

    #[test]
    fn round_distribution_sums_to_one() {
        for &(pa, xp) in &[(0.0, 5.0), (0.2, 10.0), (0.9, 2.0)] {
            let total: f64 = round_distribution(pa, xp)
                .iter()
                .map(|r| r.probability)
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "pa={pa}: total {total}");
        }
    }

    #[test]
    fn e_x_limits() {
        // P_a -> 0: E[X] -> X_P + 1 (the paper's L'Hôpital check).
        assert!((e_x(0.0, 12.0) - 13.0).abs() < 1e-12);
        assert!((e_x(1e-13, 12.0) - 13.0).abs() < 1e-6);
        // P_a -> 1: every CA phase ends in its first round.
        assert!((e_x(1.0 - 1e-12, 12.0) - 1.0).abs() < 1e-6);
        // Monotone decreasing in P_a.
        assert!(e_x(0.05, 20.0) > e_x(0.2, 20.0));
    }

    #[test]
    fn q_enhanced_limits() {
        // No ACK burst loss: reduces to Padhye's Q_P.
        assert!((q_enhanced(0.4, 0.0, 15.0) - 0.4).abs() < 1e-12);
        // Certain ACK burst loss: every indication is a timeout.
        assert!((q_enhanced(0.1, 1.0, 15.0) - 1.0).abs() < 1e-12);
        // Monotone increasing in P_a.
        assert!(q_enhanced(0.2, 0.05, 15.0) < q_enhanced(0.2, 0.2, 15.0));
    }

    #[test]
    fn timeout_terms_hand_computed() {
        // q = 0.5, P_a = 0: p = 0.5, E[R] = 2, E[Y^TO] = 0.25,
        // E[A^TO] = T*f(0.5)/0.5 = T*8.
        let params = ModelParams::high_speed_example()
            .with_q(0.5)
            .with_p_a_burst(0.0);
        let to = timeout_sequence_terms(&params);
        assert!((to.p_fail - 0.5).abs() < 1e-12);
        assert!((to.e_r - 2.0).abs() < 1e-12);
        assert!((to.e_y_to - 0.25).abs() < 1e-12);
        assert!((to.e_a_to - params.t_rto_s * 8.0).abs() < 1e-9);
    }

    #[test]
    fn recovery_failure_combines_data_and_ack_loss() {
        let params = ModelParams::high_speed_example()
            .with_q(0.3)
            .with_p_a_burst(0.1);
        let to = timeout_sequence_terms(&params);
        assert!((to.p_fail - (1.0 - 0.7 * 0.9)).abs() < 1e-12);
    }

    #[test]
    fn reduces_toward_padhye_when_features_vanish() {
        // P_a = 0, q = p_d: the enhanced model should be in the same
        // ballpark as full Padhye (they still differ in the E[Y]
        // bookkeeping, so allow a generous band).
        let params = ModelParams::stationary_example()
            .with_p_a_burst(0.0)
            .with_q(0.002)
            .with_w_m(10_000.0);
        let ours = throughput(&params).unwrap();
        let padhye = crate::padhye::full(&params).unwrap();
        let ratio = ours / padhye;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn monotone_in_each_impairment() {
        let base = ModelParams::high_speed_example().with_w_m(10_000.0);
        let tp = |p: &ModelParams| throughput(p).unwrap();
        // More data loss -> less throughput.
        assert!(tp(&base.with_p_d(0.002)) > tp(&base.with_p_d(0.02)));
        // More ACK burst loss -> less throughput.
        assert!(tp(&base.with_p_a_burst(0.001)) > tp(&base.with_p_a_burst(0.2)));
        // Lossier recovery -> less throughput.
        assert!(tp(&base.with_q(0.05)) > tp(&base.with_q(0.6)));
    }

    #[test]
    fn window_limited_branch() {
        let roomy = ModelParams::stationary_example().with_w_m(10_000.0);
        let capped = roomy.with_w_m(8.0);
        let bd_roomy = breakdown(&roomy).unwrap();
        let bd_capped = breakdown(&capped).unwrap();
        assert!(!bd_roomy.window_limited);
        assert!(bd_capped.window_limited);
        assert!(bd_capped.throughput_sps < bd_roomy.throughput_sps);
        // Never exceeds the hard W_m/RTT ceiling (small tolerance for the
        // model's continuous approximations).
        assert!(bd_capped.throughput_sps <= 8.0 / capped.rtt_s * 1.10);
    }

    #[test]
    fn breakdown_is_internally_consistent() {
        let params = ModelParams::high_speed_example();
        let bd = breakdown(&params).unwrap();
        assert!(bd.x_p > 0.0);
        assert!(bd.e_x > 0.0);
        assert!(bd.q_timeout >= q_p(bd.e_w) - 1e-12, "Q >= Q_P always");
        assert!(bd.q_timeout <= 1.0);
        assert!(bd.to.e_a_to > 0.0);
        assert!(bd.throughput_sps > 0.0);
    }

    #[test]
    fn spurious_timeouts_hurt_more_when_recovery_is_lossy() {
        // The interaction the paper highlights: P_a matters more when q is
        // large (each spurious timeout costs a long recovery).
        let cheap_recovery = ModelParams::high_speed_example()
            .with_q(0.05)
            .with_w_m(10_000.0);
        let costly_recovery = cheap_recovery.with_q(0.5);
        let drop = |base: &ModelParams| {
            let low = throughput(&base.with_p_a_burst(0.0)).unwrap();
            let high = throughput(&base.with_p_a_burst(0.1)).unwrap();
            (low - high) / low
        };
        assert!(
            drop(&costly_recovery) > drop(&cheap_recovery),
            "relative P_a damage should grow with q"
        );
    }

    #[test]
    fn invalid_params_rejected() {
        let bad = ModelParams::high_speed_example().with_q(1.5);
        assert!(throughput(&bad).is_err());
        assert!(breakdown(&bad).is_err());
    }
}
