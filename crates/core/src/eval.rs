//! Model evaluation: the deviation metric `D` (Eq. 22) and the Fig. 10
//! comparison between the enhanced model and the Padhye baseline.

use crate::enhanced;
use crate::estimate::{estimate_params, EstimateConfig};
use crate::padhye;
use crate::params::ModelParams;
use hsm_trace::record::Label;
use hsm_trace::summary::FlowSummary;
use serde::Serialize;

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
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEval {
    /// Flow id.
    pub flow: u32,
    /// Provider label.
    pub provider: Label,
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
    /// Whether both deviations are finite: the flows a `D` statistic
    /// counts.
    pub fn is_finite(&self) -> bool {
        self.d_enhanced.is_finite() && self.d_padhye.is_finite()
    }
}

/// Aggregate accuracy report (the Fig. 10 headline numbers).
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct AccuracyReport {
    /// Flows evaluated.
    pub flows: usize,
    /// Mean `D` of the enhanced model (paper: 5.66 %).
    pub mean_d_enhanced: f64,
    /// Mean `D` of the Padhye model (paper: 21.96 %).
    pub mean_d_padhye: f64,
    /// Median `D` of the enhanced model (the paper reports none).
    pub median_d_enhanced: f64,
    /// Median `D` of the Padhye model.
    pub median_d_padhye: f64,
}

impl AccuracyReport {
    /// The mean and median `D` of both models over the evaluations whose
    /// two deviations are finite — the one definition every headline `D`
    /// uses. `Default` (zero flows) when none is.
    pub fn of<'a>(evals: impl IntoIterator<Item = &'a FlowEval>) -> AccuracyReport {
        let (mut enhanced, mut padhye) = (Vec::new(), Vec::new());
        let (mut sum_enhanced, mut sum_padhye) = (0.0, 0.0);
        for e in evals.into_iter().filter(|e| e.is_finite()) {
            sum_enhanced += e.d_enhanced;
            sum_padhye += e.d_padhye;
            enhanced.push(e.d_enhanced);
            padhye.push(e.d_padhye);
        }
        let flows = enhanced.len();
        if flows == 0 {
            return AccuracyReport::default();
        }
        AccuracyReport {
            flows,
            mean_d_enhanced: sum_enhanced / flows as f64,
            mean_d_padhye: sum_padhye / flows as f64,
            median_d_enhanced: median(&mut enhanced),
            median_d_padhye: median(&mut padhye),
        }
    }
}

/// The middle value of a non-empty sample of finite values (the mean of
/// the two middle values for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_unstable_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
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
    let enhanced_sps = enhanced::throughput(&params).ok()?;
    // The Padhye baseline sees the world through its own assumptions: no
    // ACK loss, retransmissions lost like ordinary data.
    let padhye_sps = padhye::full(&params).ok()?;
    Some(FlowEval {
        flow: summary.flow,
        provider: summary.provider,
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

    /// A real evaluation with its two deviations replaced.
    fn with_d(d_enhanced: f64, d_padhye: f64) -> FlowEval {
        let mut e = evaluate_flow(&summary(0, 100.0), &EstimateConfig::default()).unwrap();
        e.d_enhanced = d_enhanced;
        e.d_padhye = d_padhye;
        e
    }

    #[test]
    fn accuracy_report_medians() {
        // Odd count: the middle value, whatever the input order.
        let odd = [with_d(2.0, 0.25), with_d(0.25, 1.5), with_d(0.5, 0.5)];
        let r = AccuracyReport::of(&odd);
        assert_eq!((r.median_d_enhanced, r.median_d_padhye), (0.5, 0.5));
        // Even count: the mean of the two middle values.
        let even = [
            with_d(1.0, 0.5),
            with_d(0.25, 4.0),
            with_d(2.0, 0.25),
            with_d(0.5, 1.5),
        ];
        let r = AccuracyReport::of(&even);
        assert_eq!((r.median_d_enhanced, r.median_d_padhye), (0.75, 1.0));
        assert_eq!(r.mean_d_enhanced, 0.9375);
        // A flow with either deviation non-finite leaves both medians.
        let mixed = [
            odd[0].clone(),
            with_d(f64::INFINITY, 0.0),
            odd[1].clone(),
            with_d(0.0, f64::NAN),
            odd[2].clone(),
        ];
        assert_eq!(AccuracyReport::of(&mixed), AccuracyReport::of(&odd));
    }

    #[test]
    fn empty_dataset_report() {
        let (evals, report) = evaluate_dataset(&[], &EstimateConfig::default());
        assert!(evals.is_empty());
        assert_eq!(report.flows, 0);
    }
}
