//! Dataset-level model fitting.
//!
//! The paper recommends choosing `q` "between 0.25 and 0.4" when it cannot
//! be measured. This module turns that recommendation into a procedure:
//! grid-search a *global* `q` (and optionally a multiplicative `P_a`
//! scale) that minimizes the mean deviation `D` over a measured dataset.
//! Useful both to auto-calibrate against new environments and as an
//! ablation ("how much does per-flow measurement of `q` buy over one
//! global constant?").

use crate::enhanced;
use crate::estimate::{estimate_params, EstimateConfig, QSource};
use crate::eval::deviation;
use hsm_trace::summary::FlowSummary;
use serde::{Deserialize, Serialize};

/// Search space for the global fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitConfig {
    /// Inclusive `q` search range.
    pub q_range: (f64, f64),
    /// Number of `q` grid points.
    pub q_steps: usize,
    /// Multiplicative scales applied to the measured `P_a` (1.0 = trust
    /// the measurement).
    pub p_a_scales: Vec<f64>,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            // The paper's recommended band, padded on both sides.
            q_range: (0.05, 0.6),
            q_steps: 23,
            p_a_scales: vec![0.5, 1.0, 2.0],
        }
    }
}

/// Best-fitting global parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitResult {
    /// The fitted global `q`.
    pub q: f64,
    /// The fitted `P_a` scale.
    pub p_a_scale: f64,
    /// Mean deviation `D` at the optimum.
    pub mean_d: f64,
    /// Flows scored.
    pub flows: usize,
}

/// Mean deviation of the enhanced model over `summaries` with a global
/// `q` and a `P_a` scale.
pub fn score(summaries: &[FlowSummary], q: f64, p_a_scale: f64) -> Option<(f64, usize)> {
    let cfg = EstimateConfig {
        q_source: QSource::Fixed(q),
        ..Default::default()
    };
    let mut total = 0.0;
    let mut n = 0;
    for s in summaries {
        if s.throughput_sps <= 0.0 {
            continue;
        }
        let mut params = estimate_params(s, &cfg);
        params.p_a_burst = (params.p_a_burst * p_a_scale).min(0.999);
        let Ok(tp) = enhanced::throughput(&params) else {
            continue;
        };
        let d = deviation(tp, s.throughput_sps);
        if d.is_finite() {
            total += d;
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some((total / n as f64, n))
    }
}

/// Grid-searches the global `q` (and `P_a` scale) minimizing mean `D`.
///
/// Returns `None` when no flow in the dataset is scoreable.
pub fn fit_global(summaries: &[FlowSummary], cfg: &FitConfig) -> Option<FitResult> {
    let mut best: Option<FitResult> = None;
    let (lo, hi) = cfg.q_range;
    let steps = cfg.q_steps.max(2);
    for i in 0..steps {
        let q = lo + (hi - lo) * i as f64 / (steps - 1) as f64;
        for &scale in &cfg.p_a_scales {
            let Some((mean_d, flows)) = score(summaries, q, scale) else {
                continue;
            };
            if best.as_ref().is_none_or(|b| mean_d < b.mean_d) {
                best = Some(FitResult {
                    q,
                    p_a_scale: scale,
                    mean_d,
                    flows,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;

    /// Builds a synthetic dataset whose measured throughput IS the
    /// enhanced model's output at a known q — the fit must recover it.
    fn synthetic_dataset(true_q: f64, n: usize) -> Vec<FlowSummary> {
        (0..n)
            .map(|i| {
                let p_d = 0.004 + 0.001 * i as f64;
                let p_a_burst = 0.005 + 0.002 * (i % 3) as f64;
                let params = ModelParams {
                    rtt_s: 0.06,
                    t_rto_s: 0.4,
                    p_d,
                    p_a_burst,
                    q: true_q,
                    b: 2.0,
                    w_m: 64.0,
                };
                let tp = enhanced::throughput(&params).unwrap();
                FlowSummary {
                    flow: i as u32,
                    provider: "synthetic".into(),
                    scenario: "synthetic".into(),
                    rtt_s: params.rtt_s,
                    p_d,
                    data_sent: 50_000,
                    p_a: 0.006,
                    p_a_burst,
                    acks_per_round: 8.0,
                    q_hat: 0.0,
                    timeouts: 10,
                    spurious_timeouts: 5,
                    timeout_sequences: 6,
                    mean_recovery_s: 2.0,
                    t_rto_s: params.t_rto_s,
                    loss_indications: 12,
                    fast_retransmissions: 6,
                    w_m: 64,
                    b: 2,
                    throughput_sps: tp,
                    goodput_sps: tp,
                    duration_s: 120.0,
                }
            })
            .collect()
    }

    #[test]
    fn recovers_the_true_global_q() {
        let data = synthetic_dataset(0.3, 8);
        let fit = fit_global(&data, &FitConfig::default()).unwrap();
        assert_eq!(fit.flows, 8);
        assert!((fit.q - 0.3).abs() < 0.05, "fitted q = {}", fit.q);
        assert!(
            (fit.p_a_scale - 1.0).abs() < 1e-9,
            "scale = {}",
            fit.p_a_scale
        );
        assert!(fit.mean_d < 0.02, "residual D = {}", fit.mean_d);
    }

    #[test]
    fn score_matches_manual_computation() {
        let data = synthetic_dataset(0.3, 1);
        let (d_true, n) = score(&data, 0.3, 1.0).unwrap();
        assert_eq!(n, 1);
        assert!(d_true < 1e-9, "exact q scores zero deviation: {d_true}");
        let (d_off, _) = score(&data, 0.6, 1.0).unwrap();
        assert!(d_off > d_true);
    }

    #[test]
    fn empty_dataset_yields_none() {
        assert!(fit_global(&[], &FitConfig::default()).is_none());
        assert!(score(&[], 0.3, 1.0).is_none());
    }

    #[test]
    fn unscoreable_flows_are_skipped() {
        let mut data = synthetic_dataset(0.3, 2);
        data[0].throughput_sps = 0.0;
        let fit = fit_global(&data, &FitConfig::default()).unwrap();
        assert_eq!(fit.flows, 1);
    }
}
