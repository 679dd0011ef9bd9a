//! Model-driven sensitivity analyses — the quantitative backing of the
//! paper's Section V discussion:
//!
//! * §V-A: the traditional delayed-ACK technique shrinks the number of
//!   ACKs per round (`w/b`), which raises the ACK-burst-loss probability
//!   `P_a = p_a^(w/b)` and with it the spurious-timeout rate — so larger
//!   delayed windows can *hurt* in high-speed mobility scenarios.
//! * §V-B: reliable retransmission (MPTCP backup mode) retransmits over
//!   two paths at once, turning the recovery failure rate from `q` into
//!   `q·q₂` and shortening timeout sequences dramatically.

use crate::ack_burst::p_a_from_ack_loss;
use crate::enhanced::throughput;
use crate::params::ModelParams;

/// A `(x, throughput)` sample of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The swept value.
    pub x: f64,
    /// Model throughput at that value, segments per second.
    pub throughput_sps: f64,
}

fn sweep(
    base: &ModelParams,
    xs: &[f64],
    set: impl Fn(&ModelParams, f64) -> ModelParams,
) -> Vec<SweepPoint> {
    xs.iter()
        .filter_map(|&x| {
            let p = set(base, x);
            throughput(&p).ok().map(|tp| SweepPoint {
                x,
                throughput_sps: tp,
            })
        })
        .collect()
}

/// Throughput as a function of the ACK-burst-loss probability `P_a`.
pub fn sweep_p_a(base: &ModelParams, values: &[f64]) -> Vec<SweepPoint> {
    sweep(base, values, |p, x| p.with_p_a_burst(x))
}

/// Throughput as a function of the recovery loss rate `q`.
pub fn sweep_q(base: &ModelParams, values: &[f64]) -> Vec<SweepPoint> {
    sweep(base, values, |p, x| p.with_q(x))
}

/// Throughput as a function of the data loss rate `p_d`.
pub fn sweep_p_d(base: &ModelParams, values: &[f64]) -> Vec<SweepPoint> {
    sweep(base, values, |p, x| p.with_p_d(x))
}

/// Throughput as a function of the window limitation `W_m`.
pub fn sweep_w_m(base: &ModelParams, values: &[f64]) -> Vec<SweepPoint> {
    sweep(base, values, |p, x| p.with_w_m(x))
}

/// One row of the §V-A delayed-ACK analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayedAckPoint {
    /// Delayed-ACK factor `b`.
    pub b: f64,
    /// ACKs per round at the working window.
    pub acks_per_round: f64,
    /// Resulting `P_a = p_a^(w/b)`.
    pub p_a_burst: f64,
    /// Model throughput, segments per second.
    pub throughput_sps: f64,
}

/// §V-A: sweeps the delayed-ACK factor `b`, recomputing `P_a` from the
/// per-ACK loss rate at a fixed working window.
///
/// `window` is the typical congestion window (e.g. the measured mean);
/// `p_ack` the per-ACK loss rate.
pub fn delayed_ack_analysis(
    base: &ModelParams,
    window: f64,
    p_ack: f64,
    bs: &[f64],
) -> Vec<DelayedAckPoint> {
    bs.iter()
        .filter_map(|&b| {
            let acks_per_round = (window / b).max(1.0);
            let p_a = p_a_from_ack_loss(p_ack, acks_per_round);
            let params = base.with_b(b).with_p_a_burst(p_a);
            throughput(&params).ok().map(|tp| DelayedAckPoint {
                b,
                acks_per_round,
                p_a_burst: p_a,
                throughput_sps: tp,
            })
        })
        .collect()
}

/// §V-B: the benefit of redundant (two-path) timeout retransmission.
///
/// With backup-path retransmission, a recovery attempt fails only if it
/// fails on *both* paths: `q_eff = q · q_backup`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedundantRetransmitBenefit {
    /// Throughput with single-path recovery, segments/s.
    pub single_path_sps: f64,
    /// Throughput with redundant recovery, segments/s.
    pub redundant_sps: f64,
    /// The effective recovery loss rate with redundancy.
    pub q_effective: f64,
}

impl RedundantRetransmitBenefit {
    /// Relative throughput gain (0.42 = +42 %).
    pub fn gain(&self) -> f64 {
        if self.single_path_sps <= 0.0 {
            0.0
        } else {
            self.redundant_sps / self.single_path_sps - 1.0
        }
    }
}

/// Computes the §V-B benefit for a backup path whose recovery loss rate is
/// `q_backup`.
///
/// # Errors
///
/// Returns the parameter-validation error if `base` is out of domain.
pub fn redundant_retransmit_benefit(
    base: &ModelParams,
    q_backup: f64,
) -> Result<RedundantRetransmitBenefit, crate::params::ValidateParamsError> {
    let single = throughput(base)?;
    let q_eff = (base.q * q_backup.clamp(0.0, 1.0)).min(0.999);
    let redundant = throughput(&base.with_q(q_eff))?;
    Ok(RedundantRetransmitBenefit {
        single_path_sps: single,
        redundant_sps: redundant,
        q_effective: q_eff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ModelParams {
        ModelParams::high_speed_example().with_w_m(10_000.0)
    }

    #[test]
    fn sweeps_are_monotone_where_theory_says_so() {
        let b = base();
        let pa = sweep_p_a(&b, &[0.0, 0.05, 0.1, 0.2]);
        assert!(pa
            .windows(2)
            .all(|w| w[1].throughput_sps <= w[0].throughput_sps));
        let q = sweep_q(&b, &[0.0, 0.2, 0.4, 0.6]);
        assert!(q
            .windows(2)
            .all(|w| w[1].throughput_sps <= w[0].throughput_sps));
        let pd = sweep_p_d(&b, &[0.001, 0.005, 0.02, 0.08]);
        assert!(pd
            .windows(2)
            .all(|w| w[1].throughput_sps <= w[0].throughput_sps));
    }

    #[test]
    fn w_m_sweep_saturates() {
        let b = base().with_p_d(0.0005);
        let wm = sweep_w_m(&b, &[4.0, 8.0, 16.0, 10_000.0]);
        // Growing W_m helps until the loss-determined window binds.
        assert!(wm[0].throughput_sps < wm[2].throughput_sps);
        assert!(wm[2].throughput_sps <= wm[3].throughput_sps + 1e-9);
    }

    #[test]
    fn delayed_ack_hurts_under_ack_loss() {
        // §V-A's core claim, at a high per-ACK loss rate.
        let pts = delayed_ack_analysis(&base(), 16.0, 0.15, &[1.0, 2.0, 4.0, 8.0]);
        assert_eq!(pts.len(), 4);
        // P_a grows with b…
        assert!(pts.windows(2).all(|w| w[1].p_a_burst >= w[0].p_a_burst));
        // …and the spurious-timeout damage eventually outweighs the
        // delayed-ACK efficiency in the model: TP(b=8) < TP(b=1).
        assert!(
            pts[3].throughput_sps < pts[0].throughput_sps,
            "b=8 {} vs b=1 {}",
            pts[3].throughput_sps,
            pts[0].throughput_sps
        );
    }

    #[test]
    fn redundant_retransmission_pays_off_when_recovery_is_lossy() {
        let b = base().with_q(0.4).with_p_a_burst(0.05);
        let benefit = redundant_retransmit_benefit(&b, 0.4).unwrap();
        assert!((benefit.q_effective - 0.16).abs() < 1e-12);
        assert!(benefit.gain() > 0.0, "gain {}", benefit.gain());
        // A clean backup path (q2 = 0) helps at least as much.
        let clean = redundant_retransmit_benefit(&b, 0.0).unwrap();
        assert!(clean.redundant_sps >= benefit.redundant_sps);
    }

    #[test]
    fn redundant_benefit_small_in_stationary_conditions() {
        let b = ModelParams::stationary_example();
        let benefit = redundant_retransmit_benefit(&b, 0.01).unwrap();
        assert!(
            benefit.gain() < 0.05,
            "stationary gain should be small: {}",
            benefit.gain()
        );
    }

    #[test]
    fn invalid_base_propagates() {
        let bad = base().with_p_d(0.0);
        assert!(redundant_retransmit_benefit(&bad, 0.5).is_err());
        assert!(sweep_p_a(&bad, &[0.1]).is_empty());
    }
}
