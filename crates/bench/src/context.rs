//! Shared experiment context: scale presets and lazily generated, cached
//! datasets (several figures consume the same 255-flow dataset; generate
//! it once per process).
//!
//! Dataset generation runs through the `hsm-runtime` campaign engine
//! (sharded workers); its telemetry is `benchmark/`'s business, not the
//! experiments'.

use hsm_runtime::engine::{run_dataset, run_stationary_baseline};
use hsm_scenario::dataset::{DatasetConfig, DatasetFlow};
use hsm_simnet::time::SimDuration;
use std::cell::OnceCell;

/// How much work an experiment run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// A handful of short flows — used by unit benches and CI.
    Smoke,
    /// ~30 flows of 120 s — statistics become meaningful (default).
    #[default]
    Standard,
    /// The full 255-flow Table-I dataset at 120 s per flow.
    Full,
}

impl Scale {
    /// Dataset generation parameters for this scale.
    pub fn dataset_config(&self) -> DatasetConfig {
        match self {
            Scale::Smoke => DatasetConfig {
                scale: 0.02,
                flow_duration: SimDuration::from_secs(25),
                ..Default::default()
            },
            Scale::Standard => DatasetConfig {
                scale: 0.12,
                flow_duration: SimDuration::from_secs(120),
                ..Default::default()
            },
            Scale::Full => DatasetConfig {
                scale: 1.0,
                flow_duration: SimDuration::from_secs(120),
                ..Default::default()
            },
        }
    }

    /// Number of stationary baseline flows.
    pub fn stationary_flows(&self) -> u32 {
        match self {
            Scale::Smoke => 3,
            Scale::Standard => 12,
            Scale::Full => 40,
        }
    }

    /// Seeds per data point in per-provider repetition experiments.
    pub fn repetitions(&self) -> u64 {
        match self {
            Scale::Smoke => 2,
            Scale::Standard => 8,
            Scale::Full => 20,
        }
    }

    /// Duration of individual (non-dataset) scenario runs.
    pub fn flow_duration(&self) -> SimDuration {
        match self {
            Scale::Smoke => SimDuration::from_secs(25),
            Scale::Standard | Scale::Full => SimDuration::from_secs(120),
        }
    }
}

/// Lazily built shared state for one harness invocation.
#[derive(Debug, Default)]
pub struct Ctx {
    /// The scale everything runs at.
    pub scale: Scale,
    high_speed: OnceCell<Vec<DatasetFlow>>,
    stationary: OnceCell<Vec<DatasetFlow>>,
}

impl Ctx {
    /// Creates a context at the given scale.
    pub fn new(scale: Scale) -> Ctx {
        Ctx {
            scale,
            ..Default::default()
        }
    }

    /// The high-speed dataset (generated on first use, cached after).
    pub fn high_speed(&self) -> &[DatasetFlow] {
        self.high_speed.get_or_init(|| {
            run_dataset(&self.scale.dataset_config())
                .expect("dataset campaign runs")
                .0
        })
    }

    /// The stationary baseline (generated on first use, cached after).
    pub fn stationary(&self) -> &[DatasetFlow] {
        self.stationary.get_or_init(|| {
            run_stationary_baseline(&self.scale.dataset_config(), self.scale.stationary_flows())
                .expect("stationary campaign runs")
                .0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let smoke = Scale::Smoke.dataset_config();
        let full = Scale::Full.dataset_config();
        assert!(smoke.scale < full.scale);
        assert!(smoke.flow_duration < full.flow_duration);
        assert!(Scale::Smoke.repetitions() < Scale::Full.repetitions());
    }

    #[test]
    fn ctx_caches_datasets() {
        let ctx = Ctx::new(Scale::Smoke);
        let a = ctx.high_speed().len();
        let b = ctx.high_speed().len();
        assert_eq!(a, b);
        assert!(a >= 4);
        let st = ctx.stationary();
        assert_eq!(st.len(), 3);
    }
}
