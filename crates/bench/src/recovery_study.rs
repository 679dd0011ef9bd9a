//! `repro recovery-study` — measure the §V loss-recovery countermeasures
//! and check the model's predicted gains against simulation.
//!
//! Per provider the study runs a **storm** slice for every [`Recovery`]
//! variant: stationary flows under a periodic delay-flap storm
//! (delayed-but-not-lost bursts, the timeout-dominated regime of
//! Fig. 12). Each variant's throughput gain over `None` is the measured
//! analogue of the paper's MPTCP 42 %/96 %/283 % template. (The model's
//! `D` per provider × recovery strategy on high-speed flows is a row of
//! the accuracy ledger, [`crate::accuracy`].)
//!
//! The storm slices are then fitted: [`estimate_params`] on the baseline
//! (`None`) flows feeds [`hsm_core::recovery::predict`], and the
//! measured-vs-modeled gain per variant lands in [`VariantFit`]. The
//! whole report is written as `RECOVERY_report.json`.

use crate::accuracy::mean_by;
use crate::context::Scale;
use hsm_core::estimate::{estimate_params, EstimateConfig};
use hsm_core::recovery::{predict, STRATEGY_LABELS};
use hsm_scenario::provider::Provider;
use hsm_scenario::runner::{run, Keep, Motion, ScenarioConfig, Scratch};
use hsm_simnet::chaos::{StormEpisode, StormKind, StormPlan};
use hsm_simnet::time::{SimDuration, SimTime};
use hsm_tcp::recovery::Recovery;
use hsm_trace::summary::FlowSummary;
use serde::Serialize;

/// Seed base of the storm flows.
const STORM_SEED_BASE: u64 = 0x57_0a00;

/// One measured storm slice: a recovery variant under the delay-flap
/// storm, aggregated over its flows.
#[derive(Debug, Clone, Serialize)]
pub struct StormSlice {
    /// Recovery label (`Recovery::label`).
    pub label: String,
    /// Flows simulated in the slice.
    pub flows: usize,
    /// Mean measured throughput, segments/s.
    pub mean_throughput_sps: f64,
    /// Mean measured ACK-loss rate `P_a`.
    pub mean_p_a: f64,
    /// Mean measured retransmission loss rate inside timeout recovery,
    /// `q̂`.
    pub mean_q_hat: f64,
    /// Total retransmission timeouts across the slice (sender ground
    /// truth — the storm must make this non-zero for `None`).
    pub timeouts: u64,
    /// Timeouts detected as spurious and undone (F-RTO).
    pub spurious_undone: u64,
    /// F-RTO new-data probes sent.
    pub frto_probes: u64,
    /// Backoffs withheld by the ACK-loss-robust strategy.
    pub backoff_skipped: u64,
    /// Throughput gain over the `None` slice, percent.
    pub gain_pct: f64,
}

/// Measured-vs-modeled gain for one variant on one provider's storm.
#[derive(Debug, Clone, Serialize)]
pub struct VariantFit {
    /// Recovery label.
    pub label: String,
    /// Measured storm-slice gain over `None`, percent.
    pub measured_gain_pct: f64,
    /// Model-predicted gain from the fitted baseline params, percent.
    pub predicted_gain_pct: f64,
    /// `|measured − predicted|`, percentage points.
    pub abs_error_pp: f64,
    /// Model-predicted recovery-failure probability `p'` under the
    /// variant (drives the predicted `q`-reduction).
    pub predicted_p_fail: f64,
}

/// The storm slices plus the model fit for one provider.
#[derive(Debug, Clone, Serialize)]
pub struct ProviderStudy {
    /// Provider display name.
    pub provider: String,
    /// Storm-scenario rows, one per recovery variant (`None` first).
    pub storm: Vec<StormSlice>,
    /// Measured-vs-modeled gains, one per variant.
    pub fits: Vec<VariantFit>,
}

/// The full study report (`RECOVERY_report.json`).
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryStudyReport {
    /// Engine version that ran the storm flows.
    pub engine_version: String,
    /// Scale preset the study ran at.
    pub scale: String,
    /// Flows per (provider × recovery) storm slice.
    pub storm_flows_per_slice: usize,
    /// Per-provider studies, in `Provider::ALL` order.
    pub providers: Vec<ProviderStudy>,
}

impl RecoveryStudyReport {
    /// True when every provider produced a full set of non-empty slices
    /// and the storm actually drove the baseline into timeouts.
    pub fn complete(&self) -> bool {
        self.providers.len() == Provider::ALL.len()
            && self.providers.iter().all(|p| {
                p.storm.len() == Recovery::ALL.len()
                    && p.storm.iter().all(|s| s.flows > 0)
                    && p.storm[0].timeouts > 0
                    && p.fits.len() == Recovery::ALL.len()
            })
    }

    /// Largest measured storm-slice gain of any countermeasure, percent
    /// — the headline "does any cure help in the timeout-dominated
    /// regime" number.
    pub fn best_storm_gain_pct(&self) -> f64 {
        self.providers
            .iter()
            .flat_map(|p| p.storm.iter().skip(1))
            .map(|s| s.gain_pct)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The recovery-study chaos storm: ~500 ms delay flaps every 2.5 s.
///
/// Each flap holds ACKs back for longer than the first-rung RTO
/// (~200–350 ms on the provider paths) without losing them — the
/// delayed-but-not-lost regime where the baseline times out spuriously.
/// The flap deliberately ends *before* the second backoff rung would
/// expire: a repeat RTO is RFC 5682's "the retransmission was lost too"
/// case and rightly cancels F-RTO, so a longer flap would never let the
/// countermeasure act (verified empirically — at 900 ms every flap
/// climbs the ladder and F-RTO never probes).
pub fn storm_plan(duration: SimDuration) -> StormPlan {
    let flap = SimDuration::from_millis(500);
    let period = SimDuration::from_millis(2500);
    let mut episodes = Vec::new();
    let mut at = SimTime::ZERO + SimDuration::from_millis(600);
    // Leave a flap-sized calm tail so every episode's fallout lands
    // inside the measured window.
    while at + period < SimTime::ZERO + duration {
        episodes.push(StormEpisode {
            at,
            duration: flap,
            kind: StormKind::Flap(flap),
        });
        at += period;
    }
    StormPlan { episodes }
}

/// Runs the study at a scale preset across all providers and variants.
///
/// # Errors
///
/// Returns a displayable message when a storm flow fails to run.
pub fn run_recovery_study(scale: Scale) -> Result<RecoveryStudyReport, String> {
    let (storm_seeds, storm_duration) = match scale {
        Scale::Smoke => (2, SimDuration::from_secs(12)),
        Scale::Standard => (4, SimDuration::from_secs(30)),
        Scale::Full => (6, SimDuration::from_secs(60)),
    };
    let estimate = EstimateConfig::default();
    let plan = storm_plan(storm_duration);
    let mut scratch = Scratch::new();

    let mut providers = Vec::new();
    for provider in Provider::ALL {
        // Storm slice: stationary flows under the delay-flap storm.
        let mut storm_rows = Vec::new();
        let mut baseline_summaries: Vec<FlowSummary> = Vec::new();
        for recovery in Recovery::ALL {
            let mut summaries = Vec::new();
            let (mut timeouts, mut undone, mut probes, mut skipped) = (0u64, 0u64, 0u64, 0u64);
            for i in 0..storm_seeds {
                let config = ScenarioConfig {
                    provider,
                    motion: Motion::Stationary,
                    seed: STORM_SEED_BASE + i,
                    duration: storm_duration,
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
            storm_rows.push(StormSlice {
                label: recovery.label().to_owned(),
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
                baseline_summaries = summaries;
            }
        }
        let baseline_sps = storm_rows[0].mean_throughput_sps;
        for row in &mut storm_rows {
            row.gain_pct = if baseline_sps > 0.0 {
                (row.mean_throughput_sps / baseline_sps - 1.0) * 100.0
            } else {
                0.0
            };
        }

        // Fit: baseline flows → ModelParams → predicted gains.
        let predictions: Vec<_> = baseline_summaries
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
        let fits = STRATEGY_LABELS
            .iter()
            .enumerate()
            .map(|(k, label)| {
                let predicted = mean_by(&predictions, |p| p[k].gain_pct);
                let measured = storm_rows[k].gain_pct;
                VariantFit {
                    label: (*label).to_owned(),
                    measured_gain_pct: measured,
                    predicted_gain_pct: predicted,
                    abs_error_pp: (measured - predicted).abs(),
                    predicted_p_fail: mean_by(&predictions, |p| p[k].p_fail),
                }
            })
            .collect();

        providers.push(ProviderStudy {
            provider: provider.name().to_owned(),
            storm: storm_rows,
            fits,
        });
    }

    Ok(RecoveryStudyReport {
        engine_version: hsm_runtime::cache::ENGINE_VERSION.to_owned(),
        scale: format!("{scale:?}"),
        storm_flows_per_slice: storm_seeds as usize,
        providers,
    })
}

/// One printable line per storm slice (the `repro recovery-study`
/// stdout).
pub fn render_storm_row(provider: &str, row: &StormSlice) -> String {
    format!(
        "{:13} {:12} storm {:8.2} sps ({:+7.1} %)  P_a {:.4}  q {:.3}  to {:4}  undone {:3}  probes {:3}  no-backoff {:3}",
        provider,
        row.label,
        row.mean_throughput_sps,
        row.gain_pct,
        row.mean_p_a,
        row.mean_q_hat,
        row.timeouts,
        row.spurious_undone,
        row.frto_probes,
        row.backoff_skipped,
    )
}

/// One printable measured-vs-modeled line per variant.
pub fn render_fit_row(provider: &str, fit: &VariantFit) -> String {
    format!(
        "{:13} {:12} gain measured {:+7.1} %  modeled {:+7.1} %  |err| {:5.1} pp  p' {:.4}",
        provider,
        fit.label,
        fit.measured_gain_pct,
        fit.predicted_gain_pct,
        fit.abs_error_pp,
        fit.predicted_p_fail,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_plan_fits_inside_the_flow_and_is_periodic() {
        let plan = storm_plan(SimDuration::from_secs(12));
        assert!(plan.episodes.len() >= 4, "{:?}", plan.episodes.len());
        let end = SimTime::ZERO + SimDuration::from_secs(12);
        for ep in &plan.episodes {
            assert!(ep.at + ep.duration < end);
            assert_eq!(ep.kind, StormKind::Flap(SimDuration::from_millis(500)));
        }
        for pair in plan.episodes.windows(2) {
            assert_eq!(pair[1].at, pair[0].at + SimDuration::from_millis(2500));
        }
    }

    #[test]
    fn smoke_study_covers_every_provider_and_variant() {
        let report = run_recovery_study(Scale::Smoke).expect("study runs");
        assert!(report.complete(), "incomplete study: {report:?}");
        assert_eq!(report.providers.len(), Provider::ALL.len());
        for study in &report.providers {
            let labels: Vec<&str> = study.storm.iter().map(|s| s.label.as_str()).collect();
            assert_eq!(labels, ["None", "RedundantRto", "Frto", "AckRobust"]);
            // The storm must actually bite: the baseline times out, and
            // the strategy-specific counters fire only for their owners.
            assert!(study.storm[0].timeouts > 0, "{}", study.provider);
            assert_eq!(study.storm[0].spurious_undone, 0);
            assert_eq!(study.storm[0].frto_probes, 0);
            assert_eq!(study.storm[0].backoff_skipped, 0);
            assert!(
                study.storm[2].frto_probes > 0,
                "{} F-RTO never probed",
                study.provider
            );
            assert!(
                study.storm[3].backoff_skipped > 0,
                "{} AckRobust never withheld a backoff",
                study.provider
            );
            for fit in &study.fits {
                assert!(fit.predicted_p_fail >= 0.0 && fit.predicted_p_fail < 1.0);
            }
            // The storm-aware fit must see the flap-induced spurious
            // timeouts: with them folded into `P_a`, the model predicts
            // a strictly positive F-RTO gain.
            assert!(
                study.fits[2].predicted_gain_pct > 0.0,
                "{} modeled F-RTO gain not positive",
                study.provider
            );
            assert!(
                (study.fits[0].measured_gain_pct).abs() < 1e-9,
                "None must be its own baseline"
            );
        }
        // At least one countermeasure must show a meaningful measured
        // gain in the timeout-dominated regime (the Fig. 12 claim).
        assert!(
            report.best_storm_gain_pct() > 1.0,
            "no cure helped: best gain {:.2} %",
            report.best_storm_gain_pct()
        );
        let json = serde_json::to_string(&report).expect("report serializes");
        for label in STRATEGY_LABELS {
            assert!(json.contains(&format!("\"label\":\"{label}\"")), "{label}");
        }
    }
}
