//! The Padhye TCP-Reno throughput model (ToN 2000) — the baseline the
//! paper enhances and evaluates against in Fig. 10.
//!
//! [`full`] is the full model with the timeout probability `Q̂`, the
//! backoff series `f(p)` and the window-limitation branch.
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
    fn full_monotone_in_loss() {
        let base = ModelParams::stationary_example().with_w_m(1000.0);
        let tp1 = full(&base.with_p_d(0.002)).unwrap();
        let tp2 = full(&base.with_p_d(0.02)).unwrap();
        assert!(tp1 > tp2);
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
        assert!(full(&bad).is_err());
    }
}
