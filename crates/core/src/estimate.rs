//! Fitting [`ModelParams`] from measured flow summaries.
//!
//! Mirrors how the paper parameterizes its evaluation: `p_d`, `p_a`,
//! `RTT`, `T`, `W_m` and `b` come straight from the traces; `q` is
//! measured where timeout sequences exist and otherwise defaults to the
//! recommended 0.25–0.4 band; `P_a` is taken from the per-round burst
//! measurement when rounds were observed, falling back to the
//! `p_a^(w/b)` derivation.

use crate::ack_burst::solve_p_a;
use crate::params::ModelParams;
use hsm_trace::summary::FlowSummary;

/// How `q` is chosen when fitting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QSource {
    /// Use the per-flow measured `q̂` (lost retransmissions over
    /// retransmissions) when available, shrunk toward the recommended
    /// default in proportion to the sample size, else the default alone.
    ///
    /// A per-flow `q̂` rests on only `timeouts` Bernoulli observations —
    /// often fewer than a dozen — so the raw ratio can sit at extremes
    /// (0 or 0.5+) by chance alone. The paper's recommended band plays the
    /// role of a prior worth [`Q_PSEUDO_OBS`] pseudo-observations:
    /// `q = (lost + m·q₀) / (n + m)`.
    MeasuredOrDefault,
    /// Always use the paper's recommended default
    /// ([`ModelParams::DEFAULT_Q`]).
    RecommendedDefault,
    /// Invert `q` from the measured ladder length: the model says the
    /// number of timeouts per sequence is geometric with mean
    /// `E[R] = 1/(1−p)` and `p = 1−(1−q)(1−P_a)`, so
    /// `p = 1 − sequences/timeouts` and `q = 1 − (1−p)/(1−P_a)`.
    /// Self-consistent with the model's own timeout-sequence structure;
    /// falls back to the default when no timeouts occurred.
    SequenceLength,
    /// Invert `q` from the measured mean recovery duration: solve
    /// `T·f(p)/(1−p) = mean_recovery` for `p` (monotone — bisection), then
    /// `q = 1 − (1−p)/(1−P_a)`. Falls back to the default when no
    /// recovery phases were observed.
    RecoveryDuration,
}

/// Prior strength for [`QSource::MeasuredOrDefault`]: the recommended
/// default `q` counts as this many pseudo-observations when blended with
/// the per-flow measurement.
pub const Q_PSEUDO_OBS: f64 = 10.0;

/// Solves `f(p)/(1−p) = target` for `p ∈ [0, 0.99]` by bisection
/// (the left side is strictly increasing from 1).
fn invert_backoff_ratio(target: f64) -> f64 {
    if target <= 1.0 {
        return 0.0;
    }
    let g = |p: f64| crate::padhye::f_backoff(p) / (1.0 - p);
    let (mut lo, mut hi) = (0.0_f64, 0.99_f64);
    if g(hi) <= target {
        return hi;
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if g(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// `q` from a combined failure probability `p` and the ACK-burst rate:
/// `q = 1 − (1−p)/(1−P_a)`, clamped to the model domain.
fn q_from_p_fail(p_fail: f64, p_a_burst: f64) -> f64 {
    let denom = (1.0 - p_a_burst).max(1e-9);
    (1.0 - (1.0 - p_fail) / denom).clamp(0.0, 0.95)
}

/// How the data-loss parameter `p_d` is measured from a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PdSource {
    /// Raw lifetime loss rate (lost packets / sent packets). Under bursty
    /// HSR loss this counts whole loss clusters packet-by-packet.
    Lifetime,
    /// Loss-*event* rate: every timer expiry plus every fast
    /// retransmission, per packet sent.
    LossEvents,
    /// Loss-*indication* rate: each timeout *sequence* counted once (plus
    /// fast retransmissions), per packet sent — the `p` of the canonical
    /// Padhye trace-validation methodology, where one indication ends one
    /// CA phase.
    LossIndications,
}

/// Estimation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateConfig {
    /// Where `q` comes from.
    pub q_source: QSource,
    /// Where `p_d` comes from.
    pub pd_source: PdSource,
}

impl Default for EstimateConfig {
    /// The paper's own parameterization: lifetime `p_d`, measured `q̂`
    /// (falling back to the recommended 0.25–0.4 band), measured per-round
    /// `P_a`.
    fn default() -> Self {
        EstimateConfig {
            q_source: QSource::MeasuredOrDefault,
            pd_source: PdSource::Lifetime,
        }
    }
}

/// Fits model parameters from a flow summary.
///
/// Values are clamped into the models' domains: a flow with zero observed
/// data loss gets the smallest representable positive `p_d` (the model
/// needs `p_d > 0`), and degenerate RTT/T estimates fall back to sane
/// defaults.
pub fn estimate_params(summary: &FlowSummary, cfg: &EstimateConfig) -> ModelParams {
    let rtt_s = if summary.rtt_s > 1e-6 {
        summary.rtt_s
    } else {
        0.06
    };
    // T: measured mean first RTO; fall back to a Jacobson-flavoured
    // multiple of the RTT, floored at the usual 200 ms minimum.
    let t_rto_s = if summary.t_rto_s > 1e-6 {
        summary.t_rto_s
    } else {
        (4.0 * rtt_s).max(0.2)
    };
    let p_d_raw = match cfg.pd_source {
        PdSource::Lifetime => summary.p_d,
        PdSource::LossEvents => summary.p_d_indications(),
        PdSource::LossIndications => summary.p_d_sequences(),
    };
    let p_d = p_d_raw.clamp(1e-6, 0.999);
    let mut params = ModelParams {
        rtt_s,
        t_rto_s,
        p_d,
        p_a_burst: 0.0,
        q: ModelParams::DEFAULT_Q,
        b: f64::from(summary.b.max(1)),
        w_m: f64::from(summary.w_m.max(1)),
    };
    // P_a first: the q inversions need it.
    params.p_a_burst = if summary.p_a_burst > 0.0 {
        summary.p_a_burst.min(0.999)
    } else {
        solve_p_a(&params, summary.p_a).p_a_burst
    };
    params.q = match cfg.q_source {
        QSource::RecommendedDefault => ModelParams::DEFAULT_Q,
        QSource::MeasuredOrDefault => {
            if summary.timeout_sequences > 0 && summary.timeouts > 0 {
                let n = f64::from(summary.timeouts);
                let lost = summary.q_hat.clamp(0.0, 1.0) * n;
                ((lost + Q_PSEUDO_OBS * ModelParams::DEFAULT_Q) / (n + Q_PSEUDO_OBS))
                    .clamp(0.0, 0.95)
            } else {
                ModelParams::DEFAULT_Q
            }
        }
        QSource::SequenceLength => {
            if summary.timeout_sequences > 0 && summary.timeouts >= summary.timeout_sequences {
                let p_fail =
                    1.0 - f64::from(summary.timeout_sequences) / f64::from(summary.timeouts);
                q_from_p_fail(p_fail, params.p_a_burst)
            } else {
                ModelParams::DEFAULT_Q
            }
        }
        QSource::RecoveryDuration => {
            if summary.timeout_sequences > 0 && summary.mean_recovery_s > 0.0 && t_rto_s > 0.0 {
                let p_fail = invert_backoff_ratio(summary.mean_recovery_s / t_rto_s);
                q_from_p_fail(p_fail, params.p_a_burst)
            } else {
                ModelParams::DEFAULT_Q
            }
        }
    };
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> FlowSummary {
        FlowSummary {
            flow: 1,
            provider: "China Mobile".into(),
            scenario: "high-speed".into(),
            rtt_s: 0.062,
            p_d: 0.0075,
            data_sent: 20_000,
            p_a: 0.0066,
            p_a_burst: 0.015,
            acks_per_round: 6.0,
            q_hat: 0.27,
            timeouts: 12,
            spurious_timeouts: 6,
            timeout_sequences: 8,
            mean_recovery_s: 5.0,
            t_rto_s: 0.55,
            loss_indications: 20,
            fast_retransmissions: 12,
            w_m: 64,
            b: 2,
            throughput_sps: 180.0,
            goodput_sps: 178.0,
            duration_s: 120.0,
        }
    }

    #[test]
    fn direct_fields_carried_over() {
        let p = estimate_params(&summary(), &EstimateConfig::default());
        assert_eq!(p.rtt_s, 0.062);
        assert_eq!(p.t_rto_s, 0.55);
        assert_eq!(p.p_d, 0.0075);
        assert_eq!(p.b, 2.0);
        assert_eq!(p.w_m, 64.0);
        // q̂ = 0.27 over 12 retransmissions, shrunk toward the 0.3 default
        // with 10 pseudo-observations: (0.27·12 + 0.3·10) / 22.
        let expect_q = (0.27 * 12.0 + 0.3 * 10.0) / 22.0;
        assert!((p.q - expect_q).abs() < 1e-12, "{} vs {expect_q}", p.q);
        assert_eq!(p.p_a_burst, 0.015);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn q_shrinkage_tracks_sample_size() {
        // A tiny sample stays near the default; a large one converges to
        // the measurement.
        let mut s = summary();
        s.q_hat = 0.9;
        s.timeouts = 2;
        let small = estimate_params(&s, &EstimateConfig::default());
        assert!(
            small.q < 0.45,
            "2 observations barely move the prior: {}",
            small.q
        );
        s.timeouts = 2_000;
        let large = estimate_params(&s, &EstimateConfig::default());
        assert!(
            (large.q - 0.9).abs() < 0.01,
            "2000 observations dominate: {}",
            large.q
        );
    }

    #[test]
    fn alternative_pd_sources() {
        let events = EstimateConfig {
            pd_source: PdSource::LossEvents,
            ..Default::default()
        };
        let p = estimate_params(&summary(), &events);
        // (12 timeouts + 12 fast retransmissions) / 20_000 packets.
        assert!((p.p_d - 24.0 / 20_000.0).abs() < 1e-12);
        let inds = EstimateConfig {
            pd_source: PdSource::LossIndications,
            ..Default::default()
        };
        let p = estimate_params(&summary(), &inds);
        // 20 loss indications / 20_000 packets.
        assert!((p.p_d - 0.001).abs() < 1e-12);
    }

    #[test]
    fn q_inversion_sources() {
        // SequenceLength: 12 timeouts over 8 sequences -> E[R] = 1.5,
        // p = 1/3, q = 1 - (2/3)/(1-P_a).
        let cfg = EstimateConfig {
            q_source: QSource::SequenceLength,
            ..Default::default()
        };
        let p = estimate_params(&summary(), &cfg);
        let expect = 1.0 - (2.0 / 3.0) / (1.0 - p.p_a_burst);
        assert!((p.q - expect).abs() < 1e-9, "{} vs {expect}", p.q);

        // RecoveryDuration: solve T*f(p)/(1-p) = 5.0 with T = 0.55.
        let cfg = EstimateConfig {
            q_source: QSource::RecoveryDuration,
            ..Default::default()
        };
        let p = estimate_params(&summary(), &cfg);
        assert!(p.q > 0.0 && p.q < 0.95);
        // Verify the inversion round-trips: f(p_fail)/(1-p_fail) == 5/0.55.
        let p_fail = 1.0 - (1.0 - p.q) * (1.0 - p.p_a_burst);
        let ratio = crate::padhye::f_backoff(p_fail) / (1.0 - p_fail);
        assert!((ratio - 5.0 / 0.55).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn q_inversions_fall_back_without_timeouts() {
        let mut s = summary();
        s.timeout_sequences = 0;
        s.timeouts = 0;
        for source in [QSource::SequenceLength, QSource::RecoveryDuration] {
            let cfg = EstimateConfig {
                q_source: source,
                ..Default::default()
            };
            assert_eq!(estimate_params(&s, &cfg).q, ModelParams::DEFAULT_Q);
        }
    }

    #[test]
    fn q_falls_back_when_no_timeouts() {
        let mut s = summary();
        s.timeout_sequences = 0;
        s.q_hat = 0.0;
        let p = estimate_params(&s, &EstimateConfig::default());
        assert_eq!(p.q, ModelParams::DEFAULT_Q);
    }

    #[test]
    fn q_sources() {
        let rec = estimate_params(
            &summary(),
            &EstimateConfig {
                q_source: QSource::RecommendedDefault,
                ..Default::default()
            },
        );
        assert_eq!(rec.q, ModelParams::DEFAULT_Q);
    }

    #[test]
    fn derives_pa_when_burst_unmeasured() {
        let mut s = summary();
        s.p_a_burst = 0.0;
        let p = estimate_params(&s, &EstimateConfig::default());
        // Derived from p_a = 0.0066: tiny but positive.
        assert!(p.p_a_burst > 0.0);
        assert!(p.p_a_burst < 0.01);
    }

    #[test]
    fn degenerate_measurements_get_sane_defaults() {
        let mut s = summary();
        s.rtt_s = 0.0;
        s.t_rto_s = 0.0;
        s.p_d = 0.0;
        s.timeouts = 0;
        s.fast_retransmissions = 0;
        let p = estimate_params(&s, &EstimateConfig::default());
        assert!(p.validate().is_ok());
        assert_eq!(p.rtt_s, 0.06);
        assert!((p.t_rto_s - 0.24).abs() < 1e-12);
        assert_eq!(p.p_d, 1e-6, "no loss events clamps to the domain floor");
    }
}
