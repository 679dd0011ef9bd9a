//! `repro accuracy` — the accuracy ledger, `ACCURACY.json`: every `D` the
//! repo reports, per provider × motion × cc × recovery slice of one
//! campaign, and every [`PAPER`] number next to ours. Flows under the
//! chaos oracle's `min_region_throughput_sps` stay in every statistic and
//! are counted apart, so the median, the intervals and that count show
//! when a tail drives a mean.

use crate::context::Scale;
use crate::experiments::fig12_mptcp::gains;
use hsm_chaos::OracleConfig;
use hsm_core::estimate::EstimateConfig;
use hsm_core::eval::{evaluate_dataset, AccuracyReport, FlowEval};
use hsm_runtime::engine::Campaign;
use hsm_scenario::calibrate::{aggregate, calibration_report, PAPER};
use hsm_scenario::dataset::{plan_dataset, plan_stationary_baseline, DatasetFlow};
use hsm_scenario::provider::Provider;
use hsm_scenario::runner::{Motion, ScenarioConfig};
use hsm_simnet::rng::SimRng;
use hsm_tcp::cc::Algorithm;
use hsm_tcp::recovery::Recovery;
use hsm_trace::export::fnum;
use hsm_trace::stats::mean;
use serde::Serialize;

/// Resamples behind every bootstrap interval.
const RESAMPLES: usize = 1000;
/// Seed of every slice's resampling stream: a constant, so the ledger is
/// a function of its flows alone.
const BOOTSTRAP_SEED: u64 = 0xACC0_2016;

/// A slice's flow filter: motion, congestion control, recovery strategy.
type Slice = (Motion, Algorithm, Recovery);

/// The cc zoo and the recovery zoo on the high-speed Table-I plan (Reno
/// with no countermeasure first, shared by both), then the stationary
/// baseline.
fn slices() -> Vec<Slice> {
    let mut slices: Vec<Slice> = Algorithm::zoo()
        .map(|cc| (Motion::HighSpeed, cc, Recovery::None))
        .into();
    let recovery = Recovery::ALL[1..].iter();
    slices.extend(recovery.map(|&r| (Motion::HighSpeed, Algorithm::Reno, r)));
    slices.push((Motion::Stationary, Algorithm::Reno, Recovery::None));
    slices
}

/// A statistic of `D` and its 95 % percentile-bootstrap interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
struct Estimate {
    value: f64,
    lo: f64,
    hi: f64,
}

/// One slice of flows, evaluated.
#[derive(Debug, Clone, Serialize)]
struct Row {
    /// Provider name, or `all`.
    provider: &'static str,
    /// Trace scenario label (`high-speed` / `stationary`).
    motion: &'static str,
    cc: &'static str,
    recovery: &'static str,
    /// Flows in the slice.
    n: usize,
    /// Flows both models evaluate.
    n_in_domain: usize,
    /// Flows measuring under `OracleConfig::min_region_throughput_sps`.
    n_below_floor: usize,
    mean_d_enhanced: Estimate,
    median_d_enhanced: Estimate,
    mean_d_padhye: Estimate,
    median_d_padhye: Estimate,
    /// Mean measured ACK-loss rate `P_a`.
    mean_p_a: f64,
    /// Mean measured retransmission loss rate inside timeout recovery, `q̂`.
    mean_q_hat: f64,
    /// Mean measured throughput, segments/s.
    mean_measured_sps: f64,
    /// Mean enhanced-model prediction over the flows `D` counts.
    mean_enhanced_sps: f64,
    /// Mean Padhye prediction over the flows `D` counts.
    mean_padhye_sps: f64,
}

/// One [`PAPER`] field next to ours.
#[derive(Debug, Clone, Serialize)]
struct PaperRow {
    metric: String,
    paper: f64,
    ours: f64,
    /// `ours / paper`.
    ratio: f64,
}

/// The ledger `repro accuracy` writes as `ACCURACY.json`.
#[derive(Debug, Clone, Serialize)]
pub struct AccuracyLedger {
    engine_version: String,
    scale: String,
    /// Per slice: all providers, then `Provider::ALL` order.
    rows: Vec<Row>,
    /// §III (7 rows), Fig. 10 (enhanced, Padhye), Fig. 12 (per provider).
    paper: Vec<PaperRow>,
}

/// Runs the ledger's campaign and Fig. 12's rides at a scale preset.
///
/// # Errors
///
/// Returns a displayable message when the campaign fails to build or run.
pub fn run_accuracy(scale: Scale, workers: Option<usize>) -> Result<AccuracyLedger, String> {
    let base = scale.dataset_config();
    let mut plan = Vec::new();
    for (motion, cc, recovery) in slices() {
        let mut cfg = base;
        (cfg.cc, cfg.recovery) = (cc, recovery);
        match motion {
            Motion::HighSpeed => plan.extend(plan_dataset(&cfg)),
            Motion::Stationary => {
                let baseline = plan_stationary_baseline(&cfg, scale.stationary_flows());
                plan.extend(baseline.into_iter().map(|c| (usize::MAX, c)));
            }
        }
    }
    let (tags, configs): (Vec<usize>, Vec<_>) = plan.into_iter().unzip();
    let mut builder = Campaign::builder().configs(configs);
    if let Some(w) = workers {
        builder = builder.workers(w);
    }
    let output = builder.build().and_then(|c| c.run());
    let runs = output.map_err(|e| e.to_string())?.runs;
    let flows = |(motion, cc, recovery): Slice, provider: Option<Provider>| -> Vec<DatasetFlow> {
        let in_slice = |c: &ScenarioConfig| {
            (c.motion, c.cc, c.recovery) == (motion, cc, recovery)
                && provider.is_none_or(|p| c.provider == p)
        };
        let tagged = tags.iter().zip(&runs).filter(|(_, r)| in_slice(&r.config));
        tagged
            .map(|(&campaign, r)| DatasetFlow {
                campaign,
                summary: r.summary.clone(),
            })
            .collect()
    };

    let mut rows = Vec::new();
    for slice in slices() {
        for provider in [None].into_iter().chain(Provider::ALL.map(Some)) {
            let name = provider.map_or("all", |p| p.name());
            rows.push(row(name, slice, &flows(slice, provider)));
        }
    }
    let reno = |motion| aggregate(&flows((motion, Algorithm::Reno, Recovery::None), None));
    let iii = calibration_report(&reno(Motion::HighSpeed), Some(&reno(Motion::Stationary)));
    let mut paper: Vec<_> = iii
        .into_iter()
        .map(|r| (r.metric, r.paper, r.measured))
        .collect();
    // Fig. 10: the first row, all providers' high-speed Reno flows.
    let (enhanced, padhye) = (rows[0].mean_d_enhanced.value, rows[0].mean_d_padhye.value);
    paper.push(("mean D, enhanced".into(), PAPER.enhanced_mean_d, enhanced));
    paper.push(("mean D, Padhye".into(), PAPER.padhye_mean_d, padhye));
    for (i, (_, _, gain)) in gains(scale).into_iter().enumerate() {
        let metric = format!("MPTCP gain, {}", Provider::ALL[i].name());
        paper.push((metric, PAPER.mptcp_gains[i], gain));
    }
    let paper = paper.into_iter().map(|(metric, paper, ours)| PaperRow {
        metric,
        paper,
        ours,
        ratio: ours / paper,
    });
    Ok(AccuracyLedger {
        engine_version: hsm_runtime::cache::ENGINE_VERSION.to_owned(),
        scale: format!("{scale:?}"),
        rows,
        paper: paper.collect(),
    })
}

/// Evaluates one slice of flows.
fn row(provider: &'static str, (motion, cc, recovery): Slice, flows: &[DatasetFlow]) -> Row {
    let summaries: Vec<_> = flows.iter().map(|f| f.summary.clone()).collect();
    let (evals, _) = evaluate_dataset(&summaries, &EstimateConfig::default());
    let [mean_d_enhanced, median_d_enhanced, mean_d_padhye, median_d_padhye] = bootstrap(&evals);
    let floor = OracleConfig::default().min_region_throughput_sps;
    let counted: Vec<&FlowEval> = evals.iter().filter(|e| e.is_finite()).collect();
    let below = summaries.iter().filter(|s| s.throughput_sps < floor);
    Row {
        provider,
        motion: motion.label(),
        cc: cc.label(),
        recovery: recovery.label(),
        n: summaries.len(),
        n_in_domain: evals.len(),
        n_below_floor: below.count(),
        mean_d_enhanced,
        median_d_enhanced,
        mean_d_padhye,
        median_d_padhye,
        mean_p_a: mean_by(&summaries, |s| s.p_a),
        mean_q_hat: mean_by(&summaries, |s| s.q_hat),
        mean_measured_sps: mean_by(&summaries, |s| s.throughput_sps),
        mean_enhanced_sps: mean_by(&counted, |e| e.enhanced_sps),
        mean_padhye_sps: mean_by(&counted, |e| e.padhye_sps),
    }
}

/// The mean of `f` over `xs`; 0 when `xs` is empty or a value is not
/// finite.
pub(crate) fn mean_by<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    mean(&xs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Mean and median `D` of the enhanced, then the Padhye model over
/// `evals` ([`AccuracyReport::of`]), each with its 95 %
/// percentile-bootstrap interval: every one of [`RESAMPLES`] resamples
/// draws `evals.len()` evaluations with replacement from one [`SimRng`]
/// stream seeded [`BOOTSTRAP_SEED`], and is itself [`AccuracyReport::of`].
fn bootstrap(evals: &[FlowEval]) -> [Estimate; 4] {
    let mut rng = SimRng::seed_from_u64(BOOTSTRAP_SEED);
    let n = evals.len() as u64;
    let resamples: Vec<AccuracyReport> = (0..RESAMPLES)
        .map(|_| AccuracyReport::of((0..n).map(|_| &evals[rng.range_u64(0, n) as usize])))
        .collect();
    let point = AccuracyReport::of(evals);
    let estimate = |stat: fn(&AccuracyReport) -> f64| {
        let mut draws: Vec<f64> = resamples.iter().map(stat).collect();
        draws.sort_unstable_by(f64::total_cmp);
        let at = |q: f64| draws[(q * (RESAMPLES - 1) as f64).round() as usize];
        Estimate {
            value: stat(&point),
            lo: at(0.025),
            hi: at(0.975),
        }
    };
    [
        estimate(|r| r.mean_d_enhanced),
        estimate(|r| r.median_d_enhanced),
        estimate(|r| r.mean_d_padhye),
        estimate(|r| r.median_d_padhye),
    ]
}

impl std::fmt::Display for Estimate {
    /// `value [lo, hi]`, in percent.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [value, lo, hi] = [self.value, self.lo, self.hi].map(|x| 100.0 * x);
        write!(f, "{value:.1} [{lo:.1}, {hi:.1}]")
    }
}

/// A markdown table of paper rows.
fn paper_table(rows: &[PaperRow]) -> String {
    let mut out = String::from("| Metric | Paper | Ours | Ratio |\n|---|---|---|---|\n");
    for r in rows {
        let (paper, ours) = (fnum(r.paper), fnum(r.ours));
        out += &format!("| {} | {paper} | {ours} | {:.2} |\n", r.metric, r.ratio);
    }
    out
}

/// A markdown table of slice rows, `D` in percent with its interval.
fn slice_table<'a>(rows: impl Iterator<Item = &'a Row>) -> String {
    let mut out = String::from(
        "| Provider | Motion | cc | Recovery | n | in domain | below floor \
         | mean D enhanced | mean D Padhye | median D enhanced | median D Padhye \
         | P_a | q̂ | measured | enhanced | Padhye |\n",
    );
    out += &"|---".repeat(16);
    out += "|\n";
    for r in rows {
        let head = [r.provider, r.motion, r.cc, r.recovery].join(" | ");
        let counts = format!("{} | {} | {}", r.n, r.n_in_domain, r.n_below_floor);
        let (me, mp) = (r.mean_d_enhanced, r.mean_d_padhye);
        let (de, dp) = (r.median_d_enhanced, r.median_d_padhye);
        let (p_a, q, tp) = (r.mean_p_a, r.mean_q_hat, r.mean_measured_sps);
        let (enhanced, padhye) = (r.mean_enhanced_sps, r.mean_padhye_sps);
        out += &format!(
            "| {head} | {counts} | {me} | {mp} | {de} | {dp} \
             | {p_a:.4} | {q:.3} | {tp:.1} | {enhanced:.1} | {padhye:.1} |\n"
        );
    }
    out
}

impl AccuracyLedger {
    /// The §III, Fig. 10 and Fig. 12 tables and every slice's `D` as
    /// markdown: what `repro accuracy` prints and EXPERIMENTS.md quotes.
    /// `D` is in percent with its 95 % bootstrap interval; throughputs
    /// are segments/s.
    pub fn to_markdown(&self) -> String {
        let fig10 = &self.rows[..1 + Provider::ALL.len()];
        let all = self.rows.iter().filter(|r| r.provider == "all");
        format!(
            "### §III measurement findings ({} scale)\n\n{}\n\
             ### Fig. 10 — model accuracy on the high-speed Reno flows\n\n{}\n{}\n\
             `D` in percent with its 95 % bootstrap interval; `below floor` counts flows \
             measuring under 1 segment/s, which every statistic keeps.\n\n\
             ### Fig. 12 — MPTCP gain over TCP\n\n{}\n\
             ### Every slice, all providers\n\n{}",
            self.scale,
            paper_table(&self.paper[..7]),
            paper_table(&self.paper[7..9]),
            slice_table(fig10.iter()),
            paper_table(&self.paper[9..]),
            slice_table(all),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_core::params::ModelParams;

    fn eval(d_enhanced: f64, d_padhye: f64) -> FlowEval {
        FlowEval {
            flow: 0,
            provider: "China Mobile".into(),
            measured_sps: 100.0,
            enhanced_sps: 100.0 * (1.0 + d_enhanced),
            padhye_sps: 100.0 * (1.0 + d_padhye),
            d_enhanced,
            d_padhye,
            params: ModelParams::high_speed_example(),
        }
    }

    #[test]
    fn bootstrap_is_reproducible_and_brackets_its_estimates() {
        let evals: Vec<FlowEval> = (0..41u32)
            .map(|i| {
                let x = f64::from(i);
                eval((x * 0.37) % 1.3, (x * 0.61) % 2.1)
            })
            .collect();
        let a = bootstrap(&evals);
        let json = |d: &[Estimate; 4]| serde_json::to_string(d).unwrap();
        assert_eq!(json(&a), json(&bootstrap(&evals)));
        let report = AccuracyReport::of(&evals);
        assert_eq!(a[0].value, report.mean_d_enhanced);
        assert_eq!(a[3].value, report.median_d_padhye);
        for e in a {
            assert!(e.lo <= e.value && e.value <= e.hi, "{e:?}");
            assert!(e.lo < e.hi, "a spread sample has a spread interval: {e:?}");
        }
    }

    #[test]
    fn a_constant_d_slice_has_a_zero_width_interval() {
        let evals = vec![eval(0.3, 0.7); 9];
        for e in bootstrap(&evals) {
            assert_eq!((e.lo, e.hi), (e.value, e.value));
        }
        for e in bootstrap(&[]) {
            assert_eq!((e.value, e.lo, e.hi), (0.0, 0.0, 0.0));
        }
    }

    #[test]
    fn smoke_ledger_is_worker_invariant_and_complete() {
        let ledger = run_accuracy(Scale::Smoke, Some(1)).expect("ledger runs");
        let json = serde_json::to_string(&ledger).unwrap();
        let two = run_accuracy(Scale::Smoke, Some(2)).expect("ledger runs");
        assert_eq!(json, serde_json::to_string(&two).unwrap());
        assert!(
            json.starts_with("{\"engine_version\":\"hsm-runtime/"),
            "{json}"
        );

        // No slice is empty, and every zoo member, recovery strategy and
        // motion has one.
        assert!(ledger.rows.iter().all(|r| r.n > 0), "an empty slice");
        let has = |pick: &dyn Fn(&Row) -> bool| ledger.rows.iter().any(pick);
        for cc in Algorithm::zoo() {
            assert!(has(&|r| r.cc == cc.label()), "{}", cc.label());
        }
        for recovery in Recovery::ALL {
            let label = recovery.label();
            assert!(has(&|r| r.recovery == label), "{label}");
        }
        assert!(has(&|r| r.motion == "stationary"));

        let sorted = |mut xs: Vec<f64>| {
            xs.sort_by(f64::total_cmp);
            xs
        };
        let mut want = vec![
            PAPER.recovery_high_speed_s,
            PAPER.recovery_stationary_s,
            PAPER.spurious_fraction,
            PAPER.ack_loss_high_speed,
            PAPER.ack_loss_stationary,
            PAPER.data_loss_lifetime,
            PAPER.recovery_loss_rate,
            PAPER.padhye_mean_d,
            PAPER.enhanced_mean_d,
        ];
        want.extend(PAPER.mptcp_gains);
        let got: Vec<f64> = ledger.paper.iter().map(|r| r.paper).collect();
        assert_eq!(sorted(got), sorted(want));
        for r in &ledger.paper {
            assert!(r.ours.is_finite() && r.ratio == r.ours / r.paper, "{r:?}");
        }
        let md = ledger.to_markdown();
        for title in ["§III", "Fig. 10", "Fig. 12", "Every slice"] {
            assert!(md.contains(&format!("### {title}")), "{title}");
        }
    }
}
