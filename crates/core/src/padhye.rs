//! The Padhye TCP-Reno throughput model (ToN 2000) — the baseline the
//! paper enhances and evaluates against in Fig. 10.
//!
//! Implemented in two flavours:
//!
//! * [`simple`] — the famous square-root approximation with the timeout
//!   term,
//! * [`full`] — the full model with the timeout probability `Q̂`, the
//!   backoff series `f(p)` and the window-limitation branch.
//!
//! Throughputs are in **segments per second**. The model assumes ACKs are
//! never lost and retransmissions are lost at the lifetime rate `p` — the
//! two assumptions the paper shows break down at 300 km/h.

use crate::params::ModelParams;

/// The exponential-backoff duration series
/// `f(p) = 1 + p + 2p² + 4p³ + 8p⁴ + 16p⁵ + 32p⁶` (paper Eq. 14).
pub fn f_backoff(p: f64) -> f64 {
    1.0 + p * (1.0 + p * (2.0 + p * (4.0 + p * (8.0 + p * (16.0 + p * 32.0)))))
}

/// Expected round in which the first data loss occurs in a CA phase
/// (paper Eq. 1).
pub fn x_p(p_d: f64, b: f64) -> f64 {
    let c = (2.0 + b) / 6.0;
    c + (2.0 * b * (1.0 - p_d) / (3.0 * p_d) + c * c).sqrt()
}

/// Padhye's expected window at the end of a CA phase:
/// `E[W] = (2+b)/(3b) + sqrt(8(1−p)/(3bp) + ((2+b)/(3b))²)`.
pub fn expected_window(p: f64, b: f64) -> f64 {
    let c = (2.0 + b) / (3.0 * b);
    c + (8.0 * (1.0 - p) / (3.0 * b * p) + c * c).sqrt()
}

/// Probability that a loss indication is a timeout, `Q̂(w) = min(1, 3/w)`
/// (paper Eq. 9 — the approximation both the paper and most users of the
/// Padhye model adopt).
pub fn q_p(w: f64) -> f64 {
    (3.0 / w.max(1.0)).min(1.0)
}

/// Padhye's *exact* timeout probability (ToN 2000, Eq. 23):
///
/// `Q̂(p, w) = min(1, (1−(1−p)³)(1+(1−p)³(1−(1−p)^(w−3))) / (1−(1−p)^w))`
///
/// — the probability that, given a loss in a window of `w`, fewer than
/// three duplicate ACKs come back, forcing a timeout. [`q_p`] is its
/// small-`p` limit.
pub fn q_p_exact(p: f64, w: f64) -> f64 {
    let w = w.max(1.0);
    if w <= 3.0 {
        return 1.0;
    }
    if p <= 0.0 {
        // lim p->0 equals the 3/w approximation.
        return q_p(w);
    }
    let s = 1.0 - p;
    let denom = 1.0 - s.powf(w);
    if denom <= 0.0 {
        return 1.0;
    }
    let num = (1.0 - s.powi(3)) * (1.0 + s.powi(3) * (1.0 - s.powf(w - 3.0)));
    (num / denom).min(1.0)
}

/// The square-root approximation with the timeout correction:
/// `B ≈ min(W_m/RTT, 1 / (RTT·sqrt(2bp/3) + T·min(1, 3·sqrt(3bp/8))·p·(1+32p²)))`.
///
/// # Errors
///
/// Returns the parameter-validation error if `params` is out of domain.
pub fn simple(params: &ModelParams) -> Result<f64, crate::params::ValidateParamsError> {
    params.validate()?;
    let (p, b, rtt, t) = (params.p_d, params.b, params.rtt_s, params.t_rto_s);
    let denom = rtt * (2.0 * b * p / 3.0).sqrt()
        + t * (3.0 * (3.0 * b * p / 8.0).sqrt()).min(1.0) * p * (1.0 + 32.0 * p * p);
    Ok((params.w_m / rtt).min(1.0 / denom))
}

/// The full Padhye model with window limitation.
///
/// For `E[W] < W_m`:
/// `B = ((1−p)/p + E[W] + Q̂(E[W])/(1−p)) / (RTT·(b/2·E[W] + 1) + Q̂(E[W])·T·f(p)/(1−p))`
///
/// and for `E[W] ≥ W_m` the window-limited variant with `W_m` in place of
/// `E[W]` and the longer inter-loss period in the denominator.
///
/// # Errors
///
/// Returns the parameter-validation error if `params` is out of domain.
pub fn full(params: &ModelParams) -> Result<f64, crate::params::ValidateParamsError> {
    params.validate()?;
    let (p, b, rtt, t, w_m) = (
        params.p_d,
        params.b,
        params.rtt_s,
        params.t_rto_s,
        params.w_m,
    );
    let ew = expected_window(p, b);
    let fp = f_backoff(p);
    Ok(if ew < w_m {
        let q = q_p(ew);
        ((1.0 - p) / p + ew + q / (1.0 - p)) / (rtt * (b / 2.0 * ew + 1.0) + q * t * fp / (1.0 - p))
    } else {
        let q = q_p(w_m);
        ((1.0 - p) / p + w_m + q / (1.0 - p))
            / (rtt * (b / 8.0 * w_m + (1.0 - p) / (p * w_m) + 2.0) + q * t * fp / (1.0 - p))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_backoff_known_values() {
        assert_eq!(f_backoff(0.0), 1.0);
        // f(1) = 1+1+2+4+8+16+32 = 64.
        assert!((f_backoff(1.0) - 64.0).abs() < 1e-12);
        // Hand-computed f(0.5) = 1 + .5 + .5 + .5 + .5 + .5 + .5 = 4.0
        assert!((f_backoff(0.5) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn x_p_matches_hand_computation() {
        // p_d = 0.01, b = 1: X_P = 0.5 + sqrt(2*0.99/0.03 + 0.25).
        let expect = 0.5 + (2.0 * 0.99 / 0.03 + 0.25f64).sqrt();
        assert!((x_p(0.01, 1.0) - expect).abs() < 1e-12);
        // Rarer loss -> longer CA phases.
        assert!(x_p(0.001, 1.0) > x_p(0.01, 1.0));
        // Delayed ACKs slow window growth -> loss takes more rounds.
        assert!(x_p(0.01, 2.0) > x_p(0.01, 1.0));
    }

    #[test]
    fn expected_window_sane() {
        // Classic sanity: W ~ sqrt(8/(3bp)) for small p.
        let w = expected_window(0.0001, 1.0);
        assert!((w - (8.0f64 / (3.0 * 0.0001)).sqrt()).abs() / w < 0.02);
        assert!(expected_window(0.01, 1.0) > expected_window(0.1, 1.0));
    }

    #[test]
    fn q_p_clamps() {
        assert_eq!(q_p(1.0), 1.0);
        assert_eq!(q_p(2.0), 1.0);
        assert_eq!(q_p(6.0), 0.5);
        assert_eq!(q_p(0.0), 1.0, "degenerate window clamps to 1");
    }

    #[test]
    fn q_p_exact_limits() {
        // Small windows always time out.
        assert_eq!(q_p_exact(0.01, 3.0), 1.0);
        assert_eq!(q_p_exact(0.01, 1.0), 1.0);
        // p -> 0 converges to the 3/w approximation.
        for w in [8.0, 16.0, 40.0] {
            let exact = q_p_exact(1e-9, w);
            assert!(
                (exact - q_p(w)).abs() < 1e-3,
                "w={w}: {exact} vs {}",
                q_p(w)
            );
        }
        // p -> 1: everything is a timeout.
        assert!((q_p_exact(0.999999, 20.0) - 1.0).abs() < 1e-3);
        // Bounded and monotone in p for a fixed window.
        let mut prev = 0.0;
        for i in 1..50 {
            let p = i as f64 * 0.02;
            let q = q_p_exact(p, 20.0);
            assert!((0.0..=1.0).contains(&q));
            assert!(q >= prev - 1e-12, "not monotone at p={p}");
            prev = q;
        }
    }

    #[test]
    fn q_p_exact_exceeds_approximation_at_moderate_loss() {
        // At HSR-like loss the exact form predicts more timeouts than the
        // 3/w shortcut — part of why the shortcut underestimates timeout
        // costs.
        assert!(q_p_exact(0.05, 20.0) > q_p(20.0));
    }

    #[test]
    fn simple_monotone_in_loss() {
        let base = ModelParams::stationary_example();
        let lo = simple(&base.with_p_d(0.001)).unwrap();
        let hi = simple(&base.with_p_d(0.05)).unwrap();
        assert!(lo > hi, "more loss, less throughput ({lo} vs {hi})");
    }

    #[test]
    fn simple_respects_window_cap() {
        // Tiny loss: the W_m/RTT cap binds.
        let p = ModelParams::stationary_example()
            .with_p_d(1e-7)
            .with_w_m(10.0);
        let tp = simple(&p).unwrap();
        assert!((tp - 10.0 / p.rtt_s).abs() < 1e-9);
    }

    #[test]
    fn full_monotone_in_loss_and_close_to_simple_mid_range() {
        let base = ModelParams::stationary_example().with_w_m(1000.0);
        let tp1 = full(&base.with_p_d(0.002)).unwrap();
        let tp2 = full(&base.with_p_d(0.02)).unwrap();
        assert!(tp1 > tp2);
        // In the moderate-loss regime the simple and full forms agree
        // within a factor of ~1.5 (they famously diverge at extremes).
        let s = simple(&base.with_p_d(0.02)).unwrap();
        let ratio = tp2 / s;
        assert!((0.5..2.0).contains(&ratio), "full/simple ratio {ratio}");
    }

    #[test]
    fn full_window_limited_branch_engages() {
        let unlimited = ModelParams::stationary_example()
            .with_p_d(0.0005)
            .with_w_m(10_000.0);
        let limited = unlimited.with_w_m(8.0);
        let tp_u = full(&unlimited).unwrap();
        let tp_l = full(&limited).unwrap();
        assert!(tp_l < tp_u, "small advertised window must cap throughput");
        // Window-limited throughput can never exceed W_m/RTT.
        assert!(tp_l <= 8.0 / limited.rtt_s * 1.05);
    }

    #[test]
    fn invalid_params_propagate() {
        let bad = ModelParams::stationary_example().with_p_d(0.0);
        assert!(simple(&bad).is_err());
        assert!(full(&bad).is_err());
    }
}
