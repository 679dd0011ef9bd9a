//! Calibration targets: the paper's §III headline statistics, against
//! which the synthetic dataset is checked.
//!
//! The reproduction never aims to match the *absolute* values of a
//! proprietary 2015 cellular measurement — only their shape: orders of
//! magnitude, ratios between scenarios, and orderings between providers.
//! [`calibration_report`] records paper-vs-measured for every headline
//! number (EXPERIMENTS.md is generated from it).

use crate::dataset::DatasetFlow;
use hsm_trace::stats::mean;

/// The paper's measured headline numbers (§I and §III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTargets {
    /// Mean timeout-recovery duration at 300 km/h, seconds.
    pub recovery_high_speed_s: f64,
    /// Mean timeout-recovery duration stationary, seconds.
    pub recovery_stationary_s: f64,
    /// Fraction of timeouts that are spurious.
    pub spurious_fraction: f64,
    /// Mean ACK loss rate at high speed.
    pub ack_loss_high_speed: f64,
    /// Mean ACK loss rate stationary.
    pub ack_loss_stationary: f64,
    /// Mean lifetime data loss rate at high speed.
    pub data_loss_lifetime: f64,
    /// Mean loss rate of retransmissions inside timeout recovery.
    pub recovery_loss_rate: f64,
    /// Fig. 10: mean deviation of the Padhye model.
    pub padhye_mean_d: f64,
    /// Fig. 10: mean deviation of the enhanced model.
    pub enhanced_mean_d: f64,
    /// Fig. 12: MPTCP throughput gains per provider
    /// (Mobile, Unicom, Telecom).
    pub mptcp_gains: [f64; 3],
}

/// The paper's values, verbatim.
pub const PAPER: PaperTargets = PaperTargets {
    recovery_high_speed_s: 5.05,
    recovery_stationary_s: 0.65,
    spurious_fraction: 0.4924,
    ack_loss_high_speed: 0.00661,
    ack_loss_stationary: 0.000718,
    data_loss_lifetime: 0.007526,
    recovery_loss_rate: 0.2726,
    padhye_mean_d: 0.2196,
    enhanced_mean_d: 0.0566,
    mptcp_gains: [0.4215, 0.9564, 2.8333],
};

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationRow {
    /// What is being compared.
    pub metric: String,
    /// The paper's value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl CalibrationRow {
    /// measured / paper (1.0 = exact).
    pub fn ratio(&self) -> f64 {
        if self.paper == 0.0 {
            f64::INFINITY
        } else {
            self.measured / self.paper
        }
    }
}

/// Aggregate statistics of a generated high-speed dataset.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DatasetAggregates {
    /// Mean lifetime data loss rate.
    pub mean_p_d: f64,
    /// Mean lifetime ACK loss rate.
    pub mean_p_a: f64,
    /// Mean in-recovery retransmission loss rate (flows with timeouts).
    pub mean_q: f64,
    /// Mean recovery duration, seconds (flows with timeouts).
    pub mean_recovery_s: f64,
    /// Pooled spurious-timeout fraction (all timeouts in the dataset).
    pub spurious_fraction: f64,
    /// Number of flows.
    pub flows: usize,
    /// Total timeouts across the dataset.
    pub total_timeouts: u64,
}

/// Computes dataset aggregates.
pub fn aggregate(flows: &[DatasetFlow]) -> DatasetAggregates {
    let summaries: Vec<_> = flows.iter().map(|f| &f.summary).collect();
    let p_d: Vec<f64> = summaries.iter().map(|s| s.p_d).collect();
    let p_a: Vec<f64> = summaries.iter().map(|s| s.p_a).collect();
    let with_to: Vec<_> = summaries
        .iter()
        .filter(|s| s.timeout_sequences > 0)
        .collect();
    let q: Vec<f64> = with_to.iter().map(|s| s.q_hat).collect();
    let rec: Vec<f64> = with_to.iter().map(|s| s.mean_recovery_s).collect();
    let total_timeouts: u64 = summaries.iter().map(|s| u64::from(s.timeouts)).sum();
    let total_spurious: u64 = summaries
        .iter()
        .map(|s| u64::from(s.spurious_timeouts))
        .sum();
    DatasetAggregates {
        mean_p_d: mean(&p_d).unwrap_or(0.0),
        mean_p_a: mean(&p_a).unwrap_or(0.0),
        mean_q: mean(&q).unwrap_or(0.0),
        mean_recovery_s: mean(&rec).unwrap_or(0.0),
        spurious_fraction: if total_timeouts == 0 {
            0.0
        } else {
            total_spurious as f64 / total_timeouts as f64
        },
        flows: flows.len(),
        total_timeouts,
    }
}

/// Builds the paper-vs-measured calibration report for a high-speed
/// dataset (and optionally a stationary baseline).
pub fn calibration_report(
    high_speed: &DatasetAggregates,
    stationary: Option<&DatasetAggregates>,
) -> Vec<CalibrationRow> {
    let mut rows = vec![
        CalibrationRow {
            metric: "data loss rate (lifetime, high-speed)".into(),
            paper: PAPER.data_loss_lifetime,
            measured: high_speed.mean_p_d,
        },
        CalibrationRow {
            metric: "ACK loss rate (high-speed)".into(),
            paper: PAPER.ack_loss_high_speed,
            measured: high_speed.mean_p_a,
        },
        CalibrationRow {
            metric: "retransmission loss in recovery (q)".into(),
            paper: PAPER.recovery_loss_rate,
            measured: high_speed.mean_q,
        },
        CalibrationRow {
            metric: "mean recovery duration (high-speed, s)".into(),
            paper: PAPER.recovery_high_speed_s,
            measured: high_speed.mean_recovery_s,
        },
        CalibrationRow {
            metric: "spurious timeout fraction".into(),
            paper: PAPER.spurious_fraction,
            measured: high_speed.spurious_fraction,
        },
    ];
    if let Some(st) = stationary {
        rows.push(CalibrationRow {
            metric: "ACK loss rate (stationary)".into(),
            paper: PAPER.ack_loss_stationary,
            measured: st.mean_p_a,
        });
        rows.push(CalibrationRow {
            metric: "mean recovery duration (stationary, s)".into(),
            paper: PAPER.recovery_stationary_s,
            measured: st.mean_recovery_s,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{plan_dataset, plan_stationary_baseline, DatasetConfig};
    use crate::runner::{run_scenario, ScenarioConfig};
    use hsm_simnet::time::SimDuration;

    fn run(plans: impl IntoIterator<Item = (usize, ScenarioConfig)>) -> Vec<DatasetFlow> {
        plans
            .into_iter()
            .map(|(campaign, config)| DatasetFlow {
                campaign,
                summary: run_scenario(&config).analysis.summary,
            })
            .collect()
    }

    #[test]
    fn paper_constants_are_the_papers() {
        assert_eq!(PAPER.recovery_high_speed_s, 5.05);
        assert_eq!(PAPER.spurious_fraction, 0.4924);
        assert_eq!(PAPER.mptcp_gains[2], 2.8333);
        // 21.96% − 5.66% ≈ the paper's 16.3-point improvement.
        assert!((PAPER.padhye_mean_d - PAPER.enhanced_mean_d - 0.163).abs() < 0.001);
    }

    /// True when `paper/band ≤ measured ≤ paper·band`.
    fn in_band(row: &CalibrationRow, band: f64) -> bool {
        let r = row.ratio();
        r.is_finite() && r >= 1.0 / band && r <= band
    }

    #[test]
    fn row_ratio_and_band() {
        let row = CalibrationRow {
            metric: "x".into(),
            paper: 2.0,
            measured: 3.0,
        };
        assert!((row.ratio() - 1.5).abs() < 1e-12);
        assert!(in_band(&row, 2.0));
        assert!(!in_band(&row, 1.2));
        let zero = CalibrationRow {
            metric: "z".into(),
            paper: 0.0,
            measured: 1.0,
        };
        assert_eq!(zero.ratio(), f64::INFINITY);
        assert!(!in_band(&zero, 10.0));
    }

    #[test]
    fn small_dataset_lands_in_calibration_bands() {
        // A smoke-scale calibration: a few flows, short duration — the
        // bands are therefore generous; the full-scale check lives in the
        // bench harness where flows are long enough for tight statistics.
        let cfg = DatasetConfig {
            scale: 0.05, // ~13 flows
            flow_duration: SimDuration::from_secs(45),
            ..Default::default()
        };
        let agg = aggregate(&run(plan_dataset(&cfg)));
        assert!(agg.flows >= 8);
        assert!(agg.total_timeouts > 0, "high-speed flows must hit timeouts");
        // Loss rates within a factor 4 of the paper's order of magnitude.
        let report = calibration_report(&agg, None);
        let p_d_row = &report[0];
        assert!(
            in_band(p_d_row, 4.0),
            "p_d {} vs paper {}",
            p_d_row.measured,
            p_d_row.paper
        );
        let q_row = &report[2];
        assert!(
            in_band(q_row, 4.0),
            "q {} vs paper {}",
            q_row.measured,
            q_row.paper
        );
        // Spurious timeouts must be a substantial fraction, as in the
        // paper (49%): require at least 10%.
        assert!(
            agg.spurious_fraction > 0.10,
            "spurious fraction {}",
            agg.spurious_fraction
        );
    }

    #[test]
    fn stationary_recovers_faster_than_high_speed() {
        let cfg = DatasetConfig {
            scale: 0.03,
            flow_duration: SimDuration::from_secs(45),
            ..Default::default()
        };
        let hs = aggregate(&run(plan_dataset(&cfg)));
        let baseline = plan_stationary_baseline(&cfg, 6);
        let st = aggregate(&run(baseline.into_iter().map(|c| (usize::MAX, c))));
        // The defining contrast of the paper: recovery at speed is much
        // slower, ACK loss much higher.
        assert!(
            hs.mean_p_a > st.mean_p_a,
            "hs {} st {}",
            hs.mean_p_a,
            st.mean_p_a
        );
        if st.total_timeouts > 0 {
            assert!(hs.mean_recovery_s > st.mean_recovery_s);
        }
        let report = calibration_report(&hs, Some(&st));
        assert_eq!(report.len(), 7);
    }
}
