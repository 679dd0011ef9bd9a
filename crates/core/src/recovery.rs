//! Predicted effect of the §V loss-recovery countermeasures on the
//! enhanced model's timeout-sequence pricing.
//!
//! The paper's §V diagnoses the timeout-recovery phase as the throughput
//! killer — spurious RTOs entered through ACK-burst loss (`P_a`) and a
//! recovery-phase loss rate `q ≫ p_d` stretching each sequence to
//! `E[A^TO] = T·f(p)/(1−p)` — and sketches countermeasures without
//! modeling them. This module closes that loop: for each strategy the
//! simulator implements (`hsm-tcp`'s `Recovery` zoo, matched here by
//! label so `hsm-core` stays dependency-free), it derives the adjusted
//! [`TimeoutSequenceTerms`] and re-assembles Eq. (21) around them,
//! yielding a predicted throughput gain the recovery study compares
//! against measurement.
//!
//! The per-strategy algebra, all built from Section IV quantities:
//!
//! * **RedundantRto** — the sender retransmits the oldest unacked
//!   segment *and its successor*, so a recovery round only stalls when
//!   the retransmission is lost (`q`) or *both* ACKs of the pair are
//!   lost: `p' = 1 − (1−q)(1−P_a²)` replaces
//!   `p = 1 − (1−q)(1−P_a)` in Eqs. (11)–(13).
//! * **Frto** — the spurious share `s` of timeout sequences (the part of
//!   `Q` that exists only because of ACK-burst loss, Eq. 10) is undone
//!   after a single RTO when the probe round's ACK survives
//!   (probability `1−p`): those sequences cost `T` instead of
//!   `T·f(p)/(1−p)`.
//! * **AckRobust** — the same spurious share keeps retransmitting until
//!   an ACK arrives but never escalates the exponential ladder, so its
//!   expected duration is `T·E[R] = T/(1−p)` instead of `T·f(p)/(1−p)`
//!   (the backoff sum `f(p)` collapses to 1 per rung).
//!
//! Every strategy leaves the congestion-avoidance terms (`E[X]`, `E[Y]`,
//! `Q`) untouched: countermeasures act inside the recovery phase only,
//! which is also why each prediction is a throughput *floor-preserving
//! improvement* — `gain_pct ≥ 0` always, with equality when the channel
//! gives the strategy nothing to fix (`P_a = 0`).

use crate::enhanced::{breakdown, timeout_sequence_terms, TimeoutSequenceTerms};
use crate::padhye::{f_backoff, q_p};
use crate::params::{ModelParams, ValidateParamsError};

/// The recovery-strategy labels, in `hsm-tcp`'s canonical study order.
/// `hsm-core` cannot depend on `hsm-tcp`, so the contract is by label:
/// these strings equal `Recovery::label()` exactly.
pub const STRATEGY_LABELS: [&str; 4] = ["None", "RedundantRto", "Frto", "AckRobust"];

/// One strategy's predicted effect on the enhanced model.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPrediction {
    /// Strategy label (matches `Recovery::label()` in `hsm-tcp`).
    pub label: String,
    /// Effective per-attempt recovery failure probability after the
    /// strategy's adjustment (the model's `q`-side prediction: how much
    /// of `p = 1 − (1−q)(1−P_a)` the countermeasure removes).
    pub p_fail: f64,
    /// Adjusted expected timeout-sequence duration, seconds.
    pub e_a_to_s: f64,
    /// Predicted steady-state throughput, segments per second.
    pub throughput_sps: f64,
    /// Predicted throughput gain over the `None` baseline, percent.
    pub gain_pct: f64,
}

/// The spurious share of timeout indications: the fraction of `Q`
/// (Eq. 10) that exists only because of ACK-burst loss,
/// `s = (Q − Q_P)/Q`. With `P_a = 0`, `Q = Q_P` and `s = 0`.
fn spurious_share(q_timeout: f64, q_padhye: f64) -> f64 {
    if q_timeout <= 0.0 {
        0.0
    } else {
        ((q_timeout - q_padhye) / q_timeout).clamp(0.0, 1.0)
    }
}

/// The timeout-sequence terms after one strategy's adjustment (see the
/// module docs for the per-strategy algebra). `spurious` is the share
/// from [`spurious_share`]; unknown labels return the unadjusted terms.
fn adjusted_terms(label: &str, params: &ModelParams, spurious: f64) -> TimeoutSequenceTerms {
    let base = timeout_sequence_terms(params);
    let q = params.q.max(params.p_d);
    match label {
        "RedundantRto" => {
            // Both ACKs of the redundant pair must vanish to stall a
            // round: P_a → P_a² inside p only (CA-phase terms keep the
            // single-ACK P_a).
            let p_a2 = params.p_a_burst * params.p_a_burst;
            let p_fail = (1.0 - (1.0 - q) * (1.0 - p_a2)).clamp(0.0, 0.999_999);
            let e_r = 1.0 / (1.0 - p_fail);
            TimeoutSequenceTerms {
                p_fail,
                e_r,
                e_y_to: (1.0 - q).powf(e_r),
                e_a_to: params.t_rto_s * f_backoff(p_fail) / (1.0 - p_fail),
            }
        }
        "Frto" => {
            // Undone sequences cost a single un-backed-off RTO; the undo
            // needs the probe round's ACK to survive (1 − p).
            let undone = (spurious * (1.0 - base.p_fail)).clamp(0.0, 1.0);
            TimeoutSequenceTerms {
                e_a_to: undone * params.t_rto_s + (1.0 - undone) * base.e_a_to,
                ..base
            }
        }
        "AckRobust" => {
            // Withheld backoff: spurious sequences still retransmit until
            // an ACK arrives but the ladder never doubles — f(p) → 1.
            let flat = params.t_rto_s / (1.0 - base.p_fail);
            TimeoutSequenceTerms {
                e_a_to: spurious * flat.min(base.e_a_to) + (1.0 - spurious) * base.e_a_to,
                ..base
            }
        }
        _ => base,
    }
}

/// Predicts every strategy's throughput under `params`, in
/// [`STRATEGY_LABELS`] order ("None" first, `gain_pct = 0` by
/// construction).
///
/// # Errors
///
/// Returns the parameter-validation error if `params` is out of domain.
pub fn predict(params: &ModelParams) -> Result<Vec<RecoveryPrediction>, ValidateParamsError> {
    let bd = breakdown(params)?;
    let spurious = spurious_share(bd.q_timeout, q_p(bd.e_w));
    // Eq. (21) reassembled around the adjusted recovery terms; with the
    // unadjusted terms this reproduces `bd.throughput_sps` exactly.
    let assemble = |to: &TimeoutSequenceTerms| {
        let numerator = bd.e_y.max(0.0) + bd.q_timeout * to.e_y_to;
        let denominator = params.rtt_s * bd.e_x + bd.q_timeout * to.e_a_to;
        (numerator / denominator).max(0.0)
    };
    let baseline = assemble(&timeout_sequence_terms(params));
    Ok(STRATEGY_LABELS
        .iter()
        .map(|&label| {
            let to = adjusted_terms(label, params, spurious);
            let throughput_sps = assemble(&to);
            RecoveryPrediction {
                label: label.to_owned(),
                p_fail: to.p_fail,
                e_a_to_s: to.e_a_to,
                throughput_sps,
                gain_pct: if baseline > 0.0 {
                    (throughput_sps - baseline) / baseline * 100.0
                } else {
                    0.0
                },
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams::high_speed_example().with_w_m(10_000.0)
    }

    #[test]
    fn labels_match_the_tcp_zoo_order() {
        assert_eq!(
            STRATEGY_LABELS,
            ["None", "RedundantRto", "Frto", "AckRobust"]
        );
        let rows = predict(&params()).unwrap();
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, STRATEGY_LABELS);
    }

    #[test]
    fn none_reproduces_the_enhanced_model_exactly() {
        let p = params();
        let rows = predict(&p).unwrap();
        let direct = crate::enhanced::throughput(&p).unwrap();
        assert_eq!(
            rows[0].throughput_sps.to_bits(),
            direct.to_bits(),
            "the None row must be the unmodified Eq. (21)"
        );
        assert_eq!(rows[0].gain_pct, 0.0);
    }

    #[test]
    fn every_countermeasure_is_a_floor_preserving_improvement() {
        for &(pa, q) in &[(0.02, 0.3), (0.1, 0.5), (0.2, 0.6)] {
            let p = params().with_p_a_burst(pa).with_q(q);
            let rows = predict(&p).unwrap();
            for r in &rows[1..] {
                assert!(
                    r.gain_pct >= 0.0,
                    "{} must never predict a loss (P_a {pa}, q {q}): {}",
                    r.label,
                    r.gain_pct
                );
                assert!(r.e_a_to_s <= rows[0].e_a_to_s + 1e-12, "{}", r.label);
            }
        }
    }

    #[test]
    fn nothing_to_fix_means_no_predicted_gain() {
        // With no ACK-burst loss every strategy degenerates: RedundantRto
        // has no second ACK to amortize over, F-RTO and AckRobust have no
        // spurious share.
        let p = params().with_p_a_burst(0.0);
        let rows = predict(&p).unwrap();
        for r in &rows {
            assert!(
                r.gain_pct.abs() < 1e-9,
                "{} predicted {}% gain on a spurious-free channel",
                r.label,
                r.gain_pct
            );
        }
    }

    #[test]
    fn redundant_rto_reduces_the_recovery_failure_probability() {
        let p = params().with_p_a_burst(0.15).with_q(0.3);
        let rows = predict(&p).unwrap();
        let base = timeout_sequence_terms(&p);
        let redundant = &rows[1];
        assert_eq!(redundant.label, "RedundantRto");
        assert!(
            redundant.p_fail < base.p_fail,
            "pairing ACK chances must cut p: {} vs {}",
            redundant.p_fail,
            base.p_fail
        );
        // The q-side prediction: exactly 1 − (1−q)(1−P_a²).
        let expected = 1.0 - (1.0 - p.q) * (1.0 - p.p_a_burst * p.p_a_burst);
        assert!((redundant.p_fail - expected).abs() < 1e-12);
    }

    #[test]
    fn frto_gain_grows_with_moderate_ack_burst_loss() {
        // In the paper's measured P_a regime more ACK-burst loss means
        // more spurious timeouts for F-RTO to undo. (At extreme P_a the
        // CA window collapses until even Padhye's Q saturates at 1, the
        // spurious share vanishes and the gain returns to zero — so the
        // monotonicity claim is deliberately limited to the moderate
        // range.)
        let gain = |pa: f64| predict(&params().with_p_a_burst(pa).with_q(0.4)).unwrap()[2].gain_pct;
        assert!(gain(0.005) < gain(0.02));
        assert!(gain(0.02) < gain(0.05));
        assert!(gain(0.05) > 0.0);
    }

    #[test]
    fn spurious_share_is_clamped_and_vanishes_without_ack_loss() {
        assert_eq!(spurious_share(0.0, 0.0), 0.0);
        assert_eq!(spurious_share(0.5, 0.5), 0.0);
        assert_eq!(spurious_share(0.5, 0.7), 0.0, "Q < Q_P clamps to 0");
        assert!((spurious_share(0.8, 0.2) - 0.75).abs() < 1e-12);
        assert_eq!(spurious_share(0.3, 0.0), 1.0);
    }

    #[test]
    fn unknown_label_falls_back_to_the_unadjusted_terms() {
        let p = params();
        let base = timeout_sequence_terms(&p);
        assert_eq!(adjusted_terms("Quic", &p, 0.5), base);
        assert_eq!(adjusted_terms("None", &p, 0.5), base);
    }

    #[test]
    fn invalid_params_are_rejected() {
        assert!(predict(&params().with_q(1.5)).is_err());
    }
}
