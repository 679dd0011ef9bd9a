//! Deriving `P_a` from the per-ACK loss rate (Section IV-A).
//!
//! `P_a` — the probability that *all* ACKs of a round are lost — cannot be
//! probed directly. Under the independence assumption the paper uses,
//! `P_a = p_a^n` where `n` is the number of ACKs per round. With window
//! `w` and delayed-ACK factor `b` there are `n = w/b` ACKs per round —
//! which is precisely why §V-A argues delayed ACKs (larger `b`, fewer ACKs
//! per round) increase spurious timeouts.
//!
//! `P_a` and the expected window are mutually dependent (`P_a` shortens CA
//! phases, shrinking `E[W]`, which raises `P_a`); [`solve_p_a`] runs the
//! fixed point.

use crate::enhanced::{e_w, e_x};
use crate::padhye::x_p;
use crate::params::ModelParams;

/// `P_a = p_a^(w/b)`: probability that an entire round of ACKs is lost,
/// assuming independent per-ACK loss.
///
/// `acks_per_round` is floored at 1 (a round always has at least one ACK).
pub fn p_a_from_ack_loss(p_ack: f64, acks_per_round: f64) -> f64 {
    if p_ack <= 0.0 {
        return 0.0;
    }
    let n = acks_per_round.max(1.0);
    p_ack.clamp(0.0, 1.0).powf(n)
}

/// Result of the `P_a ↔ E[W]` fixed point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaSolution {
    /// The converged ACK-burst-loss probability.
    pub p_a_burst: f64,
    /// The window (segments) at the fixed point.
    pub window: f64,
    /// Iterations used.
    pub iterations: u32,
}

/// Solves the coupled system: window `w` under the enhanced model with
/// `P_a = p_a^(w/b)`, capped at `W_m`.
///
/// Converges in a handful of iterations for realistic inputs; gives up
/// (returning the last iterate) after 64.
pub fn solve_p_a(params: &ModelParams, p_ack: f64) -> PaSolution {
    let b = params.b;
    // Start from the no-burst-loss window.
    let mut w = initial_window(params);
    let mut pa = p_a_from_ack_loss(p_ack, w / b);
    let mut iterations = 0;
    for _ in 0..64 {
        iterations += 1;
        let next_w = window_given_pa(params, pa);
        let next_pa = p_a_from_ack_loss(p_ack, next_w / b);
        if (next_pa - pa).abs() < 1e-12 && (next_w - w).abs() < 1e-9 {
            w = next_w;
            pa = next_pa;
            break;
        }
        w = next_w;
        pa = next_pa;
    }
    PaSolution {
        p_a_burst: pa,
        window: w,
        iterations,
    }
}

fn initial_window(params: &ModelParams) -> f64 {
    window_given_pa(params, 0.0)
}

fn window_given_pa(params: &ModelParams, pa: f64) -> f64 {
    let ex = e_x(pa, x_p(params.p_d, params.b));
    e_w(ex, params.b).min(params.w_m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_probability_basic_cases() {
        assert_eq!(p_a_from_ack_loss(0.0, 10.0), 0.0);
        assert!((p_a_from_ack_loss(0.5, 3.0) - 0.125).abs() < 1e-12);
        // Floor at one ACK per round.
        assert!((p_a_from_ack_loss(0.3, 0.2) - 0.3).abs() < 1e-12);
        // Clamps pathological inputs.
        assert_eq!(p_a_from_ack_loss(2.0, 2.0), 1.0);
    }

    #[test]
    fn more_acks_per_round_means_smaller_burst_probability() {
        // Fig. 11's point: every additional surviving ACK opportunity
        // protects the round.
        let p = 0.1;
        assert!(p_a_from_ack_loss(p, 1.0) > p_a_from_ack_loss(p, 2.0));
        assert!(p_a_from_ack_loss(p, 2.0) > p_a_from_ack_loss(p, 8.0));
    }

    #[test]
    fn delayed_ack_raises_burst_probability() {
        // §V-A: with the same window, larger b -> fewer ACKs -> larger P_a.
        let w = 16.0;
        let pa_b1 = p_a_from_ack_loss(0.05, w / 1.0);
        let pa_b2 = p_a_from_ack_loss(0.05, w / 2.0);
        let pa_b4 = p_a_from_ack_loss(0.05, w / 4.0);
        assert!(pa_b1 < pa_b2 && pa_b2 < pa_b4);
    }

    #[test]
    fn fixed_point_converges_and_is_consistent() {
        let params = ModelParams::high_speed_example().with_w_m(64.0);
        let sol = solve_p_a(&params, 0.0066);
        assert!(sol.iterations < 64, "did not converge");
        assert!((0.0..1.0).contains(&sol.p_a_burst));
        assert!((1.0..=64.0).contains(&sol.window));
        // Self-consistency: P_a = p_ack^(w/b) at the fixed point.
        let expect = p_a_from_ack_loss(0.0066, sol.window / params.b);
        assert!((sol.p_a_burst - expect).abs() < 1e-9);
    }

    #[test]
    fn zero_ack_loss_gives_zero_pa() {
        let params = ModelParams::stationary_example();
        let sol = solve_p_a(&params, 0.0);
        assert_eq!(sol.p_a_burst, 0.0);
    }

    #[test]
    fn higher_ack_loss_higher_pa() {
        let params = ModelParams::high_speed_example();
        let lo = solve_p_a(&params, 0.001).p_a_burst;
        let hi = solve_p_a(&params, 0.1).p_a_burst;
        assert!(hi > lo);
    }
}
