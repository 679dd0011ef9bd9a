//! `repro accuracy` — the accuracy ledger, `ACCURACY.json`: every `D` the
//! repo reports, per provider × motion × cc × recovery slice of one
//! campaign, every [`PAPER`] number next to ours, the §V countermeasures
//! measured against the model under a delay-flap storm, and Fig. 10's
//! estimator ablation.
//! Flows under the ledger's floor of 1 segment/s stay in every statistic
//! and are counted apart, so the median, the intervals and that count show
//! when a tail drives a mean.
//!
//! The storm flows ([`StormPlan::periodic_flaps`], stationary, one slice
//! per provider × recovery strategy) run serially outside the campaign: a
//! storm is not part of a flow's cache key, so they are never cached. Each
//! strategy's throughput gain over `None` is the measured analogue of the
//! paper's MPTCP 42 %/96 %/283 % template; the `None` flows, fitted by
//! [`estimate_params`], give [`predict`]'s modeled gain beside it.

use crate::context::Scale;
use crate::experiments::fig12_mptcp::gains;
use hsm_core::estimate::{estimate_params, EstimateConfig, PdSource, QSource};
use hsm_core::eval::{evaluate_dataset, AccuracyReport, FlowEval};
use hsm_core::recovery::{predict, STRATEGY_LABELS};
use hsm_runtime::engine::Campaign;
use hsm_scenario::calibrate::{aggregate, calibration_report, PAPER};
use hsm_scenario::dataset::{plan_dataset, plan_stationary_baseline, DatasetFlow};
use hsm_scenario::provider::Provider;
use hsm_scenario::runner::{run, Keep, Motion, ScenarioConfig, Scratch};
use hsm_simnet::chaos::StormPlan;
use hsm_simnet::rng::SimRng;
use hsm_simnet::time::SimDuration;
use hsm_tcp::cc::Algorithm;
use hsm_tcp::recovery::Recovery;
use hsm_trace::export::{fnum, fpct};
use hsm_trace::stats::mean;
use hsm_trace::summary::FlowSummary;
use serde::Serialize;

/// Resamples behind every bootstrap interval.
const RESAMPLES: usize = 1000;
/// Seed of every slice's resampling stream: a constant, so the ledger is
/// a function of its flows alone.
const BOOTSTRAP_SEED: u64 = 0xACC0_2016;
/// Seed base of the storm flows.
const STORM_SEED_BASE: u64 = 0x57_0a00;
/// Floor on measured throughput, segments/s: `D = |pred − meas| / meas`
/// is unbounded as the measurement nears zero, so each row counts the
/// flows under it.
const FLOOR_SPS: f64 = 1.0;

/// The ablation's `p_d` definitions, each with its label.
const PD_SOURCES: [(&str, PdSource); 3] = [
    ("lifetime", PdSource::Lifetime),
    ("loss-events", PdSource::LossEvents),
    ("loss-indications", PdSource::LossIndications),
];
/// The ablation's `q` sources, each with its label.
const Q_SOURCES: [(&str, QSource); 4] = [
    ("measured", QSource::MeasuredOrDefault),
    ("recommended-default", QSource::RecommendedDefault),
    ("sequence-length", QSource::SequenceLength),
    ("recovery-duration", QSource::RecoveryDuration),
];

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
    /// Flows measuring under `FLOOR_SPS`.
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

/// One recovery strategy's storm flows on one provider, aggregated.
#[derive(Debug, Clone, Serialize)]
struct StormSlice {
    label: &'static str,
    flows: usize,
    /// Mean measured throughput, segments/s.
    mean_throughput_sps: f64,
    /// Mean measured ACK-loss rate `P_a`.
    mean_p_a: f64,
    /// Mean measured retransmission loss rate inside timeout recovery, `q̂`.
    mean_q_hat: f64,
    /// Retransmission timeouts across the slice (sender ground truth).
    timeouts: u64,
    /// Timeouts detected as spurious and undone (F-RTO).
    spurious_undone: u64,
    /// F-RTO new-data probes sent.
    frto_probes: u64,
    /// Backoffs withheld by the ACK-loss-robust strategy.
    backoff_skipped: u64,
    /// Throughput gain over the `None` slice, percent.
    gain_pct: f64,
}

/// Measured-vs-modeled gain of one strategy on one provider's storm.
#[derive(Debug, Clone, Serialize)]
struct VariantFit {
    label: &'static str,
    /// Measured gain over `None`, percent.
    measured_gain_pct: f64,
    /// Gain [`predict`]ed from the fitted `None` flows, percent.
    predicted_gain_pct: f64,
    /// `|measured − predicted|`, percentage points.
    abs_error_pp: f64,
    /// Predicted recovery-failure probability `p′` under the strategy.
    predicted_p_fail: f64,
}

/// One provider's storm slices and fits, both in `Recovery::ALL` order.
#[derive(Debug, Clone, Serialize)]
struct ProviderStudy {
    provider: &'static str,
    storm: Vec<StormSlice>,
    fits: Vec<VariantFit>,
}

/// The §V countermeasures under the delay-flap storm.
#[derive(Debug, Clone, Serialize)]
struct StormStudy {
    storm_flows_per_slice: usize,
    /// `Provider::ALL` order.
    providers: Vec<ProviderStudy>,
}

/// One estimator choice of Fig. 10's ablation, evaluated.
#[derive(Debug, Clone, Serialize)]
struct AblationRow {
    /// `PD_SOURCES` label.
    p_d: &'static str,
    /// `Q_SOURCES` label.
    q: &'static str,
    report: AccuracyReport,
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
    recovery: StormStudy,
    /// Every `PD_SOURCES` × `Q_SOURCES` estimator on the all-provider
    /// high-speed Reno flows, `p_d` outermost.
    ablation: Vec<AblationRow>,
}

/// Runs the ledger's campaign, Fig. 12's rides and the storm flows at a
/// scale preset.
///
/// # Errors
///
/// Returns a displayable message when the campaign fails to build or run,
/// a storm flow fails, or a provider's storm study is incomplete.
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
    let reno_flows = |motion| flows((motion, Algorithm::Reno, Recovery::None), None);
    let reno = |motion| aggregate(&reno_flows(motion));
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
        recovery: storm_study(scale)?,
        ablation: ablation(&reno_flows(Motion::HighSpeed)),
    })
}

/// Evaluates `flows` under every `PD_SOURCES` × `Q_SOURCES` estimator.
fn ablation(flows: &[DatasetFlow]) -> Vec<AblationRow> {
    let summaries: Vec<_> = flows.iter().map(|f| f.summary.clone()).collect();
    let mut rows = Vec::new();
    for (p_d, pd_source) in PD_SOURCES {
        for (q, q_source) in Q_SOURCES {
            let cfg = EstimateConfig {
                q_source,
                pd_source,
            };
            let report = evaluate_dataset(&summaries, &cfg).1;
            rows.push(AblationRow { p_d, q, report });
        }
    }
    rows
}

/// Runs every provider × recovery strategy under the delay-flap storm and
/// fits the model to each provider's `None` flows.
fn storm_study(scale: Scale) -> Result<StormStudy, String> {
    let (seeds, duration) = match scale {
        Scale::Smoke => (2, SimDuration::from_secs(12)),
        Scale::Standard => (4, SimDuration::from_secs(30)),
        Scale::Full => (6, SimDuration::from_secs(60)),
    };
    let estimate = EstimateConfig::default();
    let plan = StormPlan::periodic_flaps(duration);
    let mut scratch = Scratch::new();
    let mut providers = Vec::new();
    for provider in Provider::ALL {
        let mut storm = Vec::new();
        let mut baseline: Vec<FlowSummary> = Vec::new();
        for recovery in Recovery::ALL {
            let mut summaries = Vec::new();
            let (mut timeouts, mut undone, mut probes, mut skipped) = (0u64, 0u64, 0u64, 0u64);
            for i in 0..seeds {
                let config = ScenarioConfig {
                    provider,
                    motion: Motion::Stationary,
                    seed: STORM_SEED_BASE + i,
                    duration,
                    flow: i as u32,
                    recovery,
                    ..ScenarioConfig::default()
                };
                let out =
                    run(&mut scratch, &config, &plan, Keep::Summary).map_err(|e| e.to_string())?;
                timeouts += out.sender.timeouts.len() as u64;
                undone += out.sender.spurious_rto_undone;
                probes += out.sender.frto_probes;
                skipped += out.sender.backoff_skipped;
                summaries.push(out.analysis.summary);
            }
            storm.push(StormSlice {
                label: recovery.label(),
                flows: summaries.len(),
                mean_throughput_sps: mean_by(&summaries, |s| s.throughput_sps),
                mean_p_a: mean_by(&summaries, |s| s.p_a),
                mean_q_hat: mean_by(&summaries, |s| s.q_hat),
                timeouts,
                spurious_undone: undone,
                frto_probes: probes,
                backoff_skipped: skipped,
                gain_pct: 0.0,
            });
            if recovery == Recovery::None {
                baseline = summaries;
            }
        }
        let baseline_sps = storm[0].mean_throughput_sps;
        for slice in &mut storm {
            slice.gain_pct = if baseline_sps > 0.0 {
                (slice.mean_throughput_sps / baseline_sps - 1.0) * 100.0
            } else {
                0.0
            };
        }

        let predictions: Vec<_> = baseline
            .iter()
            .filter_map(|summary| {
                let mut params = estimate_params(summary, &estimate);
                // The delay storm's spurious timeouts are ACK-burst failures
                // the loss-based estimator cannot see (nothing is dropped):
                // a burst held past the RTO fails for timer purposes exactly
                // like a lost one. Fold the measured spurious-timeout rate
                // in as an effective per-round burst-failure floor on `P_a`.
                let rounds = (summary.duration_s / params.rtt_s.max(1e-6)).max(1.0);
                let p_a_storm = (f64::from(summary.spurious_timeouts) / rounds).clamp(0.0, 0.5);
                params.p_a_burst = params.p_a_burst.max(p_a_storm);
                predict(&params).ok()
            })
            .collect();
        let fits: Vec<_> = STRATEGY_LABELS
            .iter()
            .enumerate()
            .map(|(k, &label)| {
                let predicted = mean_by(&predictions, |p| p[k].gain_pct);
                let measured = storm[k].gain_pct;
                VariantFit {
                    label,
                    measured_gain_pct: measured,
                    predicted_gain_pct: predicted,
                    abs_error_pp: (measured - predicted).abs(),
                    predicted_p_fail: mean_by(&predictions, |p| p[k].p_fail),
                }
            })
            .collect();

        if storm.iter().any(|s| s.flows == 0) || storm[0].timeouts == 0 || fits.len() != storm.len()
        {
            return Err(format!(
                "incomplete storm study on {}: an empty slice, a storm that never drove \
                 `None` into a timeout, or a missing fit",
                provider.name()
            ));
        }
        providers.push(ProviderStudy {
            provider: provider.name(),
            storm,
            fits,
        });
    }
    Ok(StormStudy {
        storm_flows_per_slice: seeds as usize,
        providers,
    })
}

/// Evaluates one slice of flows.
fn row(provider: &'static str, (motion, cc, recovery): Slice, flows: &[DatasetFlow]) -> Row {
    let summaries: Vec<_> = flows.iter().map(|f| f.summary.clone()).collect();
    let (evals, _) = evaluate_dataset(&summaries, &EstimateConfig::default());
    let [mean_d_enhanced, median_d_enhanced, mean_d_padhye, median_d_padhye] = bootstrap(&evals);
    let counted: Vec<&FlowEval> = evals.iter().filter(|e| e.is_finite()).collect();
    let below = summaries.iter().filter(|s| s.throughput_sps < FLOOR_SPS);
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
fn mean_by<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
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

/// A markdown table of the ablation rows, `D` in percent.
fn ablation_table(rows: &[AblationRow]) -> String {
    let mut out = String::from(
        "| p_d | q | flows | mean D enhanced | mean D Padhye | median D enhanced \
         | median D Padhye |\n|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let d = &r.report;
        let [me, mp, de, dp] = [
            d.mean_d_enhanced,
            d.mean_d_padhye,
            d.median_d_enhanced,
            d.median_d_padhye,
        ]
        .map(fpct);
        let (p_d, q, n) = (r.p_d, r.q, d.flows);
        out += &format!("| {p_d} | {q} | {n} | {me} | {mp} | {de} | {dp} |\n");
    }
    out
}

/// A markdown table of the storm study, one row per provider × strategy.
fn storm_table(study: &StormStudy) -> String {
    let mut out = String::from(
        "| Provider | Recovery | measured | gain | P_a | q̂ | timeouts | undone | probes \
         | no-backoff | predicted gain | \\|err\\| | p′ |\n",
    );
    out += &"|---".repeat(13);
    out += "|\n";
    for p in &study.providers {
        for (s, f) in p.storm.iter().zip(&p.fits) {
            out += &format!(
                "| {} | {} | {:.2} | {:+.1} | {:.4} | {:.3} | {} | {} | {} | {} \
                 | {:+.1} | {:.1} | {:.4} |\n",
                p.provider,
                s.label,
                s.mean_throughput_sps,
                s.gain_pct,
                s.mean_p_a,
                s.mean_q_hat,
                s.timeouts,
                s.spurious_undone,
                s.frto_probes,
                s.backoff_skipped,
                f.predicted_gain_pct,
                f.abs_error_pp,
                f.predicted_p_fail,
            );
        }
    }
    out
}

impl AccuracyLedger {
    /// The §III, Fig. 10, Fig. 10 ablation, Fig. 12 and §V-storm tables
    /// and every slice's `D` as markdown: what `repro accuracy` prints and
    /// EXPERIMENTS.md quotes. `D` is in percent, with its 95 % bootstrap
    /// interval outside the ablation; throughputs are segments/s.
    pub fn to_markdown(&self) -> String {
        let fig10 = &self.rows[..1 + Provider::ALL.len()];
        let all = self.rows.iter().filter(|r| r.provider == "all");
        format!(
            "### §III measurement findings ({} scale)\n\n{}\n\
             ### Fig. 10 — model accuracy on the high-speed Reno flows\n\n{}\n{}\n\
             `D` in percent with its 95 % bootstrap interval; `below floor` counts flows \
             measuring under 1 segment/s, which every statistic keeps.\n\n\
             ### Fig. 10 ablation — estimator choices on the same flows\n\n{}\n\
             ### Fig. 12 — MPTCP gain over TCP\n\n{}\n\
             ### Every slice, all providers\n\n{}\n\
             ### §V countermeasures under the delay-flap storm\n\n{}\n\
             {} stationary flows per slice under 500 ms delay flaps every 2.5 s; measured \
             throughput in segments/s, gains over `None` in percent, `|err|` in percentage \
             points; the predicted gain and `p′` come from the model fitted to the `None` \
             flows.\n",
            self.scale,
            paper_table(&self.paper[..7]),
            paper_table(&self.paper[7..9]),
            slice_table(fig10.iter()),
            ablation_table(&self.ablation),
            paper_table(&self.paper[9..]),
            slice_table(all),
            storm_table(&self.recovery),
            self.recovery.storm_flows_per_slice,
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
        let storm_title = "### §V countermeasures under the delay-flap storm";
        for title in [
            "### §III",
            "### Fig. 10 —",
            "### Fig. 10 ablation",
            "### Fig. 12",
            "### Every slice",
            storm_title,
        ] {
            assert!(md.contains(title), "{title}");
        }
        let storm_section = |md: &str| md[md.find(storm_title).unwrap()..].to_owned();
        assert_eq!(storm_section(&md), storm_section(&two.to_markdown()));

        // The §V storm: every provider, every strategy in `Recovery::ALL`
        // order, and the storm bites — the baseline times out, and the
        // strategy-specific counters fire only for their owners.
        let study = &ledger.recovery;
        assert_eq!(study.storm_flows_per_slice, 2);
        let names: Vec<_> = study.providers.iter().map(|p| p.provider).collect();
        assert_eq!(names, Provider::ALL.map(|p| p.name()));
        for p in &study.providers {
            let labels: Vec<_> = p.storm.iter().map(|s| s.label).collect();
            assert_eq!(labels, ["None", "RedundantRto", "Frto", "AckRobust"]);
            let fit_labels: Vec<_> = p.fits.iter().map(|f| f.label).collect();
            assert_eq!(fit_labels, labels);
            let [none, _, frto, ack_robust] = &p.storm[..] else {
                unreachable!()
            };
            assert!(none.timeouts > 0, "{}", p.provider);
            assert_eq!(
                (none.spurious_undone, none.frto_probes, none.backoff_skipped),
                (0, 0, 0)
            );
            assert!(frto.frto_probes > 0, "{} F-RTO never probed", p.provider);
            assert!(
                ack_robust.backoff_skipped > 0,
                "{} AckRobust never withheld a backoff",
                p.provider
            );
            for fit in &p.fits {
                assert!((0.0..1.0).contains(&fit.predicted_p_fail), "{fit:?}");
            }
            // The storm-aware fit sees the flap-induced spurious timeouts:
            // with them folded into `P_a`, the modeled F-RTO gain is > 0.
            assert!(
                p.fits[2].predicted_gain_pct > 0.0,
                "{} modeled F-RTO gain not positive",
                p.provider
            );
            assert_eq!(p.fits[0].measured_gain_pct, 0.0, "None is its own baseline");
        }
        // Some cure helps in the timeout-dominated regime (the Fig. 12 claim).
        let best = study.providers.iter().flat_map(|p| &p.storm[1..]);
        let best = best.map(|s| s.gain_pct).fold(f64::NEG_INFINITY, f64::max);
        assert!(best > 1.0, "no cure helped: best gain {best:.2} %");

        // Fig. 10's ablation: all 3 × 4 estimators, `p_d` outermost, each
        // finite over the flows, and the paper's parameterization (the
        // first) is the ledger's first slice row.
        let sources: Vec<_> = ledger.ablation.iter().map(|r| (r.p_d, r.q)).collect();
        let want: Vec<_> = PD_SOURCES
            .iter()
            .flat_map(|&(p_d, _)| Q_SOURCES.iter().map(move |&(q, _)| (p_d, q)))
            .collect();
        assert_eq!((sources.len(), sources), (12, want));
        let stats = |d: &AccuracyReport| {
            [
                d.mean_d_enhanced,
                d.median_d_enhanced,
                d.mean_d_padhye,
                d.median_d_padhye,
            ]
        };
        for r in &ledger.ablation {
            let finite = stats(&r.report).iter().all(|x| x.is_finite());
            assert!(r.report.flows > 0 && finite, "{r:?}");
        }
        let first = &ledger.rows[0];
        let estimates = [
            first.mean_d_enhanced,
            first.median_d_enhanced,
            first.mean_d_padhye,
            first.median_d_padhye,
        ];
        assert_eq!(
            stats(&ledger.ablation[0].report),
            estimates.map(|e| e.value)
        );
    }
}
