//! ISP channel profiles.
//!
//! The dataset covers three tier-1 Chinese ISPs (Table I): China Mobile
//! (LTE, tested January 2015) and China Unicom / China Telecom (3G, tested
//! October 2015). The paper notes that China Telecom's 3G backbone mainly
//! covers southern China, so the Beijing–Tianjin corridor sits at the edge
//! of its coverage — which is why Fig. 12's MPTCP gain is largest there.
//!
//! Profiles are *transport-layer equivalents*: bandwidth/delay plus a
//! bursty base loss and a handoff footprint tuned so the synthetic traces
//! land near the paper's §III headline statistics (see
//! [`calibrate`](crate::calibrate)).

use hsm_simnet::cellular::{CellLayout, CoverageHole, HandoffParams};
use hsm_simnet::loss::{GilbertElliott, LossModel};
use hsm_simnet::time::SimDuration;
use hsm_tcp::connection::PathSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A Gilbert–Elliott base loss.
fn gilbert_elliott(p_good: f64, p_bad: f64, g2b: f64, b2g: f64) -> LossModel {
    LossModel::GilbertElliott(GilbertElliott::new(p_good, p_bad, g2b, b2g))
}

/// The three ISPs of the dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Provider {
    /// China Mobile — LTE (January 2015 campaign).
    ChinaMobile,
    /// China Unicom — 3G (October 2015 campaign).
    ChinaUnicom,
    /// China Telecom — 3G with poor corridor coverage (October 2015).
    ChinaTelecom,
}

impl Provider {
    /// All providers, in the dataset's order.
    pub const ALL: [Provider; 3] = [
        Provider::ChinaMobile,
        Provider::ChinaUnicom,
        Provider::ChinaTelecom,
    ];

    /// Human-readable name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Provider::ChinaMobile => "China Mobile",
            Provider::ChinaUnicom => "China Unicom",
            Provider::ChinaTelecom => "China Telecom",
        }
    }

    /// Path characteristics while *moving at 300 km/h*.
    pub fn high_speed_path(&self) -> PathSpec {
        match self {
            Provider::ChinaMobile => PathSpec {
                down_bandwidth_bps: 40_000_000,
                up_bandwidth_bps: 15_000_000,
                down_delay: SimDuration::from_millis(26),
                up_delay: SimDuration::from_millis(26),
                jitter_sd: SimDuration::from_millis(3),
                queue_capacity: 128,
                down_loss: gilbert_elliott(0.00015, 0.25, 0.00015, 0.05),
                up_loss: gilbert_elliott(0.0001, 0.92, 0.0004, 0.08),
            },
            Provider::ChinaUnicom => PathSpec {
                down_bandwidth_bps: 9_000_000,
                up_bandwidth_bps: 2_500_000,
                down_delay: SimDuration::from_millis(36),
                up_delay: SimDuration::from_millis(36),
                jitter_sd: SimDuration::from_millis(5),
                queue_capacity: 96,
                down_loss: gilbert_elliott(0.0002, 0.3, 0.0002, 0.045),
                up_loss: gilbert_elliott(0.00012, 0.93, 0.0005, 0.07),
            },
            Provider::ChinaTelecom => PathSpec {
                down_bandwidth_bps: 6_000_000,
                up_bandwidth_bps: 1_800_000,
                down_delay: SimDuration::from_millis(42),
                up_delay: SimDuration::from_millis(42),
                jitter_sd: SimDuration::from_millis(6),
                queue_capacity: 96,
                down_loss: gilbert_elliott(0.0003, 0.35, 0.0003, 0.04),
                up_loss: gilbert_elliott(0.00015, 0.94, 0.0005, 0.065),
            },
        }
    }

    /// Path characteristics while *stationary* (same radio tech, benign
    /// channel: no fades from Doppler/handoffs).
    pub fn stationary_path(&self) -> PathSpec {
        let mut path = self.high_speed_path();
        path.down_loss = LossModel::Bernoulli(0.0008);
        path.up_loss = LossModel::Bernoulli(0.0004);
        path.jitter_sd = SimDuration::from_millis(1);
        path
    }

    /// Base-station layout along the corridor.
    pub fn cell_layout(&self) -> CellLayout {
        match self {
            Provider::ChinaMobile => CellLayout::rail_corridor(1_800.0, 0.002),
            Provider::ChinaUnicom => CellLayout::rail_corridor(1_500.0, 0.003),
            Provider::ChinaTelecom => CellLayout::rail_corridor(1_400.0, 0.004)
                // The corridor sits at the edge of Telecom's 3G coverage:
                // recurring holes along the route.
                .with_hole(CoverageHole {
                    from_m: 20_000.0,
                    to_m: 28_000.0,
                    extra_loss: 0.06,
                })
                .with_hole(CoverageHole {
                    from_m: 55_000.0,
                    to_m: 66_000.0,
                    extra_loss: 0.08,
                })
                .with_hole(CoverageHole {
                    from_m: 88_000.0,
                    to_m: 101_000.0,
                    extra_loss: 0.07,
                }),
        }
    }

    /// Handoff footprint at 300 km/h.
    pub fn handoff_params(&self) -> HandoffParams {
        match self {
            Provider::ChinaMobile => HandoffParams {
                outage_mean: SimDuration::from_millis(1500),
                outage_sd: SimDuration::from_millis(350),
                down_loss: 0.40,
                up_loss: 0.99,
                extra_delay: SimDuration::from_millis(50),
                failure_prob: 0.18,
                failure_factor: 3.5,
            },
            Provider::ChinaUnicom => HandoffParams {
                outage_mean: SimDuration::from_millis(1900),
                outage_sd: SimDuration::from_millis(500),
                down_loss: 0.45,
                up_loss: 0.99,
                extra_delay: SimDuration::from_millis(80),
                failure_prob: 0.25,
                failure_factor: 4.0,
            },
            Provider::ChinaTelecom => HandoffParams {
                outage_mean: SimDuration::from_millis(2300),
                outage_sd: SimDuration::from_millis(800),
                down_loss: 0.50,
                up_loss: 0.99,
                extra_delay: SimDuration::from_millis(110),
                failure_prob: 0.28,
                failure_factor: 4.5,
            },
        }
    }
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Provider::ChinaMobile.name(), "China Mobile");
        assert_eq!(format!("{}", Provider::ChinaUnicom), "China Unicom");
    }

    #[test]
    fn provider_quality_ordering() {
        // Mobile (LTE) should have the mildest channel, Telecom the worst.
        let loss = |p: Provider| p.high_speed_path().down_loss.steady_state();
        assert!(loss(Provider::ChinaMobile) < loss(Provider::ChinaUnicom));
        assert!(loss(Provider::ChinaUnicom) < loss(Provider::ChinaTelecom));
        let outage = |p: Provider| p.handoff_params().outage_mean;
        assert!(outage(Provider::ChinaMobile) < outage(Provider::ChinaTelecom));
    }

    #[test]
    fn stationary_is_benign() {
        for p in Provider::ALL {
            let hs = p.high_speed_path().down_loss.steady_state();
            let st = p.stationary_path().down_loss.steady_state();
            assert!(st < hs, "{p}: stationary must be cleaner");
        }
    }

    #[test]
    fn only_telecom_has_coverage_holes() {
        assert!(Provider::ChinaMobile.cell_layout().holes.is_empty());
        assert!(Provider::ChinaUnicom.cell_layout().holes.is_empty());
        assert_eq!(Provider::ChinaTelecom.cell_layout().holes.len(), 3);
    }

    #[test]
    fn uplink_outages_worse_than_downlink() {
        // The ACK-burst phenomenon needs handoffs to hit the uplink at
        // least as hard as the downlink.
        for p in Provider::ALL {
            let h = p.handoff_params();
            assert!(h.up_loss >= h.down_loss, "{p}");
        }
    }
}
