//! Synthetic reproduction of the paper's dataset (Table I).
//!
//! The real dataset — 40.47 GB of pcaps, 255 flows over 32 BTR trips — is
//! proprietary. This module regenerates its *structure*: the same four
//! campaigns (date, phone model, provider, flow count), with each flow
//! simulated end-to-end through the calibrated channel profiles.
//!
//! This module only *plans* the dataset ([`plan_dataset`],
//! [`plan_stationary_baseline`]); `hsm_runtime::run_dataset` executes a
//! plan across cores with memoization. Each flow derives from its own
//! master seed, so the dataset is fully reproducible and any single flow
//! can be regenerated in isolation with [`crate::runner::run_scenario`].

use crate::provider::Provider;
use crate::runner::{Motion, ScenarioConfig};
use hsm_simnet::time::SimDuration;
use hsm_tcp::cc::Algorithm;
use hsm_tcp::recovery::Recovery;
use hsm_trace::summary::FlowSummary;

/// One row of Table I — a real-world measurement campaign of the paper.
/// (Declarative sweep campaigns are `crate::spec::CampaignSpec`.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementCampaign {
    /// Measurement campaign date.
    pub date: &'static str,
    /// Trips in the campaign.
    pub trips: u32,
    /// Handset used.
    pub phone: &'static str,
    /// ISP measured.
    pub provider: Provider,
    /// Number of TCP flows captured.
    pub flows: u32,
    /// Raw trace volume reported by the paper, GB.
    pub trace_gb: f64,
}

/// Table I verbatim: 255 flows, 40.47 GB, two campaigns, four rows.
pub const TABLE1: [MeasurementCampaign; 4] = [
    MeasurementCampaign {
        date: "January 2015",
        trips: 8,
        phone: "Samsung Note 3",
        provider: Provider::ChinaMobile,
        flows: 52,
        trace_gb: 7.73,
    },
    MeasurementCampaign {
        date: "October 2015",
        trips: 24,
        phone: "Samsung Note 3",
        provider: Provider::ChinaMobile,
        flows: 73,
        trace_gb: 18.9,
    },
    MeasurementCampaign {
        date: "October 2015",
        trips: 24,
        phone: "Samsung Galaxy S4",
        provider: Provider::ChinaUnicom,
        flows: 65,
        trace_gb: 9.63,
    },
    MeasurementCampaign {
        date: "October 2015",
        trips: 24,
        phone: "Samsung Galaxy S4",
        provider: Provider::ChinaTelecom,
        flows: 65,
        trace_gb: 4.21,
    },
];

/// Total flows in Table I (the paper's 255).
pub fn table1_total_flows() -> u32 {
    TABLE1.iter().map(|c| c.flows).sum()
}

/// Dataset generation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Master seed; flow `i` uses `seed + i`.
    pub seed: u64,
    /// Sender duration per flow.
    pub flow_duration: SimDuration,
    /// Fraction of each campaign's flows to actually simulate (1.0 =
    /// the full 255-flow dataset; tests use much less).
    pub scale: f64,
    /// Advertised window.
    pub w_m: u32,
    /// Delayed-ACK factor.
    pub b: u32,
    /// Motion of the generated flows.
    pub motion: Motion,
    /// Congestion-control algorithm every generated flow runs.
    pub cc: Algorithm,
    /// Loss-recovery countermeasure every generated flow runs (§V).
    pub recovery: Recovery,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            seed: 20150131,
            flow_duration: SimDuration::from_secs(120),
            scale: 1.0,
            w_m: 48,
            b: 2,
            motion: Motion::HighSpeed,
            cc: Algorithm::Reno,
            recovery: Recovery::None,
        }
    }
}

/// A generated flow, tagged with its campaign.
#[derive(Debug, Clone)]
pub struct DatasetFlow {
    /// Index of the campaign in [`TABLE1`].
    pub campaign: usize,
    /// The flow's model-ready summary — everything the §III statistics
    /// and the §IV models read of a flow.
    pub summary: FlowSummary,
}

/// Plans the scenario configurations of a dataset without running them.
pub fn plan_dataset(cfg: &DatasetConfig) -> Vec<(usize, ScenarioConfig)> {
    let mut plans = Vec::new();
    let mut flow_id = 0u32;
    for (idx, campaign) in TABLE1.iter().enumerate() {
        let n = ((f64::from(campaign.flows) * cfg.scale).round() as u32).max(1);
        for _ in 0..n {
            plans.push((
                idx,
                ScenarioConfig {
                    provider: campaign.provider,
                    motion: cfg.motion,
                    seed: cfg.seed + u64::from(flow_id),
                    duration: cfg.flow_duration,
                    w_m: cfg.w_m,
                    b: cfg.b,
                    flow: flow_id,
                    cc: cfg.cc,
                    recovery: cfg.recovery,
                },
            ));
            flow_id += 1;
        }
    }
    plans
}

/// Plans `n` stationary baseline flows (for the Fig. 3/6 comparisons),
/// spread across providers, without running them.
pub fn plan_stationary_baseline(cfg: &DatasetConfig, n: u32) -> Vec<ScenarioConfig> {
    (0..n)
        .map(|i| {
            let provider = Provider::ALL[(i as usize) % Provider::ALL.len()];
            ScenarioConfig {
                provider,
                motion: Motion::Stationary,
                seed: cfg.seed ^ 0x5747_a717 ^ u64::from(i),
                duration: cfg.flow_duration,
                w_m: cfg.w_m,
                b: cfg.b,
                flow: 10_000 + i,
                cc: cfg.cc,
                recovery: cfg.recovery,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario;

    #[test]
    fn table1_shape_matches_paper() {
        assert_eq!(table1_total_flows(), 255);
        assert_eq!(TABLE1.len(), 4);
        let total_gb: f64 = TABLE1.iter().map(|c| c.trace_gb).sum();
        assert!(
            (total_gb - 40.47).abs() < 0.01,
            "paper total 40.47 GB, got {total_gb}"
        );
        assert_eq!(TABLE1[0].date, "January 2015");
        assert_eq!(
            TABLE1[0].flows + TABLE1[1].flows,
            125,
            "China Mobile flows across campaigns"
        );
    }

    #[test]
    fn plan_scales_flow_counts() {
        let cfg = DatasetConfig {
            scale: 0.1,
            ..Default::default()
        };
        let plans = plan_dataset(&cfg);
        // 5 + 7 + 7 + 7 (rounding 5.2, 7.3, 6.5, 6.5) with max(1) floors.
        assert!(plans.len() >= 20 && plans.len() <= 30, "{}", plans.len());
        // Flow ids unique and sequential.
        for (i, (_, cfg)) in plans.iter().enumerate() {
            assert_eq!(cfg.flow, i as u32);
        }
        let full = plan_dataset(&DatasetConfig::default());
        assert_eq!(full.len(), 255);
    }

    #[test]
    fn planned_flows_run_and_keep_their_campaign() {
        let cfg = DatasetConfig {
            scale: 0.02, // 1 flow per campaign
            flow_duration: SimDuration::from_secs(8),
            ..Default::default()
        };
        let plans = plan_dataset(&cfg);
        assert_eq!(plans.len(), 4);
        for (i, (campaign, config)) in plans.iter().enumerate() {
            assert_eq!(*campaign, i);
            assert_eq!(config.provider, TABLE1[i].provider);
            let out = run_scenario(config);
            assert!(out.summary().throughput_sps > 0.0);
            assert_eq!(&*out.summary().scenario, "high-speed");
        }
    }

    #[test]
    fn stationary_baseline_flows() {
        let cfg = DatasetConfig {
            flow_duration: SimDuration::from_secs(8),
            ..Default::default()
        };
        let plans = plan_stationary_baseline(&cfg, 3);
        assert_eq!(plans.len(), 3);
        for config in &plans {
            assert_eq!(&*run_scenario(config).summary().scenario, "stationary");
        }
    }

    #[test]
    fn dataset_deterministic_for_seed() {
        let cfg = DatasetConfig {
            scale: 0.02,
            flow_duration: SimDuration::from_secs(5),
            ..Default::default()
        };
        let run = || -> Vec<_> {
            plan_dataset(&cfg)
                .iter()
                .map(|(_, c)| run_scenario(c).summary().clone())
                .collect()
        };
        assert_eq!(run(), run());
    }
}
