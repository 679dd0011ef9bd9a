//! Model evaluation: the deviation metric `D` (Eq. 22) and the Fig. 10
//! comparison between the enhanced model and the Padhye baseline.

use crate::enhanced::EnhancedModel;
use crate::estimate::{estimate_params, EstimateConfig};
use crate::padhye;
use crate::params::ModelParams;
use hsm_trace::summary::FlowSummary;
use serde::{Deserialize, Serialize};

/// The absolute deviation rate `D = |TP_model − TP_trace| / TP_trace`
/// (Eq. 22), as a ratio (0.05 = 5 %).
///
/// Returns `f64::INFINITY` for a zero measured throughput.
pub fn deviation(tp_model: f64, tp_trace: f64) -> f64 {
    if tp_trace <= 0.0 {
        f64::INFINITY
    } else {
        (tp_model - tp_trace).abs() / tp_trace
    }
}

/// Per-flow model comparison (one point of Fig. 10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowEval {
    /// Flow id.
    pub flow: u32,
    /// Provider label.
    pub provider: String,
    /// Measured throughput, segments/s.
    pub measured_sps: f64,
    /// Enhanced-model prediction, segments/s.
    pub enhanced_sps: f64,
    /// Padhye prediction, segments/s.
    pub padhye_sps: f64,
    /// `D` for the enhanced model.
    pub d_enhanced: f64,
    /// `D` for the Padhye model.
    pub d_padhye: f64,
    /// The fitted parameters (for inspection/export).
    pub params: ModelParams,
}

impl FlowEval {
    /// Whether both deviations are finite: the flows a mean `D` counts.
    fn is_finite(&self) -> bool {
        self.d_enhanced.is_finite() && self.d_padhye.is_finite()
    }
}

/// Aggregate accuracy report (the Fig. 10 headline numbers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AccuracyReport {
    /// Flows evaluated.
    pub flows: usize,
    /// Mean `D` of the enhanced model (paper: 5.66 %).
    pub mean_d_enhanced: f64,
    /// Mean `D` of the Padhye model (paper: 21.96 %).
    pub mean_d_padhye: f64,
}

impl AccuracyReport {
    /// The mean `D` of both models over the evaluations whose two
    /// deviations are finite — the one definition every headline mean
    /// uses. `Default` (zero flows) when none is.
    pub fn of<'a>(evals: impl IntoIterator<Item = &'a FlowEval>) -> AccuracyReport {
        let (mut flows, mut sum_enhanced, mut sum_padhye) = (0, 0.0, 0.0);
        for e in evals.into_iter().filter(|e| e.is_finite()) {
            flows += 1;
            sum_enhanced += e.d_enhanced;
            sum_padhye += e.d_padhye;
        }
        if flows == 0 {
            return AccuracyReport::default();
        }
        AccuracyReport {
            flows,
            mean_d_enhanced: sum_enhanced / flows as f64,
            mean_d_padhye: sum_padhye / flows as f64,
        }
    }

    /// Accuracy improvement in percentage points (paper: 16.3).
    pub fn improvement_pp(&self) -> f64 {
        (self.mean_d_padhye - self.mean_d_enhanced) * 100.0
    }
}

/// Evaluates both models against one measured flow.
///
/// Returns `None` when the flow has no usable measured throughput.
pub fn evaluate_flow(summary: &FlowSummary, cfg: &EstimateConfig) -> Option<FlowEval> {
    if summary.throughput_sps <= 0.0 {
        return None;
    }
    let params = estimate_params(summary, cfg);
    let enhanced_sps = EnhancedModel::as_published().throughput(&params).ok()?;
    // The Padhye baseline sees the world through its own assumptions: no
    // ACK loss, retransmissions lost like ordinary data.
    let padhye_sps = padhye::full(&params).ok()?;
    Some(FlowEval {
        flow: summary.flow,
        provider: summary.provider.to_string(),
        measured_sps: summary.throughput_sps,
        enhanced_sps,
        padhye_sps,
        d_enhanced: deviation(enhanced_sps, summary.throughput_sps),
        d_padhye: deviation(padhye_sps, summary.throughput_sps),
        params,
    })
}

/// Evaluates a whole dataset ([`evaluate_flow`] per flow, unmeasurable
/// and out-of-domain flows dropped) and aggregates the accuracy report
/// ([`AccuracyReport::of`]).
pub fn evaluate_dataset(
    summaries: &[FlowSummary],
    cfg: &EstimateConfig,
) -> (Vec<FlowEval>, AccuracyReport) {
    let evals: Vec<FlowEval> = summaries
        .iter()
        .filter_map(|s| evaluate_flow(s, cfg))
        .collect();
    let report = AccuracyReport::of(&evals);
    (evals, report)
}

/// Aggregated model fit for one labeled slice of flows — one row of the
/// congestion-control study, where the label is the controller name.
///
/// Carries the measured means the study compares across controllers
/// (`P_a`, `q̂`, throughput) next to the model-side means and the
/// [`AccuracyReport`], so a consumer can see at a glance both how a
/// controller behaved and how well the paper's models fit it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledAccuracy {
    /// Slice label (the congestion-control name in the cc-study).
    pub label: String,
    /// Mean measured ACK-loss rate `P_a` across the slice.
    pub mean_p_a: f64,
    /// Mean measured spurious-timeout ratio `q̂` across the slice.
    pub mean_q_hat: f64,
    /// Mean measured throughput, segments/s.
    pub mean_measured_sps: f64,
    /// Mean enhanced-model prediction, segments/s.
    pub mean_enhanced_sps: f64,
    /// Mean Padhye prediction, segments/s.
    pub mean_padhye_sps: f64,
    /// The aggregate deviation report for the slice.
    pub report: AccuracyReport,
}

/// Evaluates one labeled slice of flows (see [`LabeledAccuracy`]).
///
/// Measured means (`P_a`, `q̂`, throughput) average over every summary;
/// model-side means average over the flows [`AccuracyReport::of`] counts.
pub fn evaluate_labeled(
    label: impl Into<String>,
    summaries: &[FlowSummary],
    cfg: &EstimateConfig,
) -> LabeledAccuracy {
    let (evals, report) = evaluate_dataset(summaries, cfg);
    let mean = |xs: &mut dyn Iterator<Item = f64>| {
        let xs: Vec<f64> = xs.collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let finite: Vec<&FlowEval> = evals.iter().filter(|e| e.is_finite()).collect();
    LabeledAccuracy {
        label: label.into(),
        mean_p_a: mean(&mut summaries.iter().map(|s| s.p_a)),
        mean_q_hat: mean(&mut summaries.iter().map(|s| s.q_hat)),
        mean_measured_sps: mean(&mut summaries.iter().map(|s| s.throughput_sps)),
        mean_enhanced_sps: mean(&mut finite.iter().map(|e| e.enhanced_sps)),
        mean_padhye_sps: mean(&mut finite.iter().map(|e| e.padhye_sps)),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(flow: u32, tp: f64) -> FlowSummary {
        FlowSummary {
            flow,
            provider: "China Unicom".into(),
            scenario: "high-speed".into(),
            rtt_s: 0.065,
            p_d: 0.0075,
            data_sent: 40_000,
            p_a: 0.0066,
            p_a_burst: 0.02,
            acks_per_round: 5.0,
            q_hat: 0.27,
            timeouts: 10,
            spurious_timeouts: 5,
            timeout_sequences: 7,
            mean_recovery_s: 5.0,
            t_rto_s: 0.6,
            loss_indications: 15,
            fast_retransmissions: 8,
            w_m: 64,
            b: 2,
            throughput_sps: tp,
            goodput_sps: tp,
            duration_s: 300.0,
        }
    }

    #[test]
    fn deviation_matches_definition() {
        assert!((deviation(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!((deviation(90.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(deviation(5.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn evaluate_flow_produces_both_predictions() {
        let e = evaluate_flow(&summary(3, 150.0), &EstimateConfig::default()).unwrap();
        assert_eq!(e.flow, 3);
        assert!(e.enhanced_sps > 0.0);
        assert!(e.padhye_sps > 0.0);
        assert!(e.d_enhanced.is_finite());
        // Under heavy recovery losses the enhanced model predicts less
        // throughput than Padhye (which ignores q and P_a).
        assert!(e.enhanced_sps < e.padhye_sps);
    }

    #[test]
    fn zero_throughput_flow_skipped() {
        assert!(evaluate_flow(&summary(0, 0.0), &EstimateConfig::default()).is_none());
    }

    #[test]
    fn dataset_aggregation() {
        // Use each flow's enhanced prediction as its "measured" value for
        // one of them -> its d_enhanced is 0 and the mean reflects it.
        let probe = evaluate_flow(&summary(0, 100.0), &EstimateConfig::default()).unwrap();
        let flows = vec![
            summary(0, probe.enhanced_sps),
            summary(1, probe.enhanced_sps * 1.1),
        ];
        let (evals, report) = evaluate_dataset(&flows, &EstimateConfig::default());
        assert_eq!(evals.len(), 2);
        assert_eq!(report.flows, 2);
        assert!(report.mean_d_enhanced < report.mean_d_padhye);
        assert!(report.improvement_pp() > 0.0);
        assert!(evals[0].d_enhanced < 1e-9);
        let of = AccuracyReport::of(&evals);
        assert_eq!(report.flows, of.flows);
        assert_eq!(
            report.mean_d_enhanced.to_bits(),
            of.mean_d_enhanced.to_bits()
        );
        assert_eq!(report.mean_d_padhye.to_bits(), of.mean_d_padhye.to_bits());
    }

    #[test]
    fn dataset_evaluation_is_evaluate_flow_per_flow() {
        let cfg = EstimateConfig::default();
        let flows: Vec<FlowSummary> = (0..8)
            .map(|i| summary(i, 40.0 + 35.0 * f64::from(i)))
            .chain(std::iter::once(summary(99, 0.0))) // unmeasurable: dropped
            .collect();
        let (batch, batch_report) = evaluate_dataset(&flows, &cfg);
        let scalar: Vec<FlowEval> = flows
            .iter()
            .filter_map(|s| evaluate_flow(s, &cfg))
            .collect();
        assert_eq!(batch.len(), scalar.len());
        for (b, s) in batch.iter().zip(&scalar) {
            assert_eq!(b.flow, s.flow);
            assert_eq!(b.enhanced_sps.to_bits(), s.enhanced_sps.to_bits());
            assert_eq!(b.padhye_sps.to_bits(), s.padhye_sps.to_bits());
            assert_eq!(b.d_enhanced.to_bits(), s.d_enhanced.to_bits());
            assert_eq!(b.d_padhye.to_bits(), s.d_padhye.to_bits());
            assert_eq!(b.params, s.params);
        }
        assert_eq!(batch_report.flows, 8);
    }

    #[test]
    fn accuracy_report_skips_non_finite_deviations() {
        let cfg = EstimateConfig::default();
        let a = evaluate_flow(&summary(0, 100.0), &cfg).unwrap();
        let b = evaluate_flow(&summary(1, 180.0), &cfg).unwrap();
        let mut no_enhanced = a.clone();
        no_enhanced.d_enhanced = f64::INFINITY;
        let mut no_padhye = b.clone();
        no_padhye.d_padhye = f64::NAN;
        let mixed = [a.clone(), no_enhanced, b.clone(), no_padhye];
        let report = AccuracyReport::of(&mixed);
        assert_eq!(report, AccuracyReport::of(&[a, b]));
        assert_eq!(report.flows, 2);
        assert_eq!(AccuracyReport::of(&mixed[1..2]), AccuracyReport::default());
        assert_eq!(AccuracyReport::of(&[]), AccuracyReport::default());
    }

    #[test]
    fn empty_dataset_report() {
        let (evals, report) = evaluate_dataset(&[], &EstimateConfig::default());
        assert!(evals.is_empty());
        assert_eq!(report.flows, 0);
        assert_eq!(report.improvement_pp(), 0.0);
    }

    #[test]
    fn labeled_slice_carries_measured_and_model_means() {
        let flows = vec![summary(0, 100.0), summary(1, 200.0)];
        let row = evaluate_labeled("Cubic", &flows, &EstimateConfig::default());
        assert_eq!(row.label, "Cubic");
        assert!((row.mean_measured_sps - 150.0).abs() < 1e-9);
        assert!((row.mean_p_a - 0.0066).abs() < 1e-12);
        assert!((row.mean_q_hat - 0.27).abs() < 1e-12);
        assert!(row.mean_enhanced_sps > 0.0);
        assert!(row.mean_padhye_sps > 0.0);
        assert_eq!(row.report.flows, 2);
        let json = serde_json::to_string(&row).expect("row serializes");
        let back: LabeledAccuracy = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back, row);
    }

    #[test]
    fn labeled_slice_of_nothing_is_all_zeroes() {
        let row = evaluate_labeled("Bbr", &[], &EstimateConfig::default());
        assert_eq!(row.report.flows, 0);
        assert_eq!(row.mean_measured_sps, 0.0);
        assert_eq!(row.mean_enhanced_sps, 0.0);
    }
}
