//! An additional loss model: the periodic-outage channel.
//!
//! It complements the stochastic models in [`loss`](crate::loss):
//! [`PeriodicOutage`] models a strictly periodic impairment (a crude
//! stand-in for evenly spaced cell crossings when the full mobility model
//! is overkill).

use crate::loss::LossModel;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A strictly periodic outage: every `period`, the channel is fully lossy
/// for `outage` (phase-shifted by `offset`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicOutage {
    period: SimDuration,
    outage: SimDuration,
    offset: SimDuration,
    loss_during: f64,
}

impl PeriodicOutage {
    /// Creates a periodic outage.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero, `outage > period`, or `loss_during` is
    /// outside `[0, 1]`.
    pub fn new(
        period: SimDuration,
        outage: SimDuration,
        offset: SimDuration,
        loss_during: f64,
    ) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        assert!(outage <= period, "outage longer than period");
        assert!((0.0..=1.0).contains(&loss_during), "loss out of range");
        PeriodicOutage {
            period,
            outage,
            offset,
            loss_during,
        }
    }

    /// True when `now` falls inside an outage window.
    fn in_outage(&self, now: SimTime) -> bool {
        let t = (now + self.offset).as_micros() % self.period.as_micros();
        t < self.outage.as_micros()
    }

    /// Long-run fraction of time spent in outage.
    fn duty_cycle(&self) -> f64 {
        self.outage.as_secs_f64() / self.period.as_secs_f64()
    }
}

impl LossModel for PeriodicOutage {
    fn is_lost(&mut self, now: SimTime, rng: &mut SimRng) -> bool {
        self.in_outage(now) && rng.chance(self.loss_during)
    }

    fn steady_state_rate(&self) -> Option<f64> {
        // Time-averaged; the packet-averaged rate depends on the arrival
        // process, so this is an approximation flagged as such.
        Some(self.duty_cycle() * self.loss_during)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1)
    }

    #[test]
    fn periodic_outage_windows() {
        let p = PeriodicOutage::new(
            SimDuration::from_secs(10),
            SimDuration::from_secs(1),
            SimDuration::ZERO,
            1.0,
        );
        assert!(p.in_outage(SimTime::from_millis(500)));
        assert!(!p.in_outage(SimTime::from_secs(5)));
        assert!(p.in_outage(SimTime::from_millis(10_500)));
        assert!((p.duty_cycle() - 0.1).abs() < 1e-12);
        assert_eq!(p.steady_state_rate(), Some(0.1));
    }

    #[test]
    fn periodic_outage_offset_shifts_phase() {
        let p = PeriodicOutage::new(
            SimDuration::from_secs(10),
            SimDuration::from_secs(1),
            SimDuration::from_secs(5),
            1.0,
        );
        assert!(p.in_outage(SimTime::from_secs(5)));
        assert!(!p.in_outage(SimTime::from_millis(500)));
    }

    #[test]
    fn periodic_outage_kills_only_in_window() {
        let mut p = PeriodicOutage::new(
            SimDuration::from_secs(10),
            SimDuration::from_secs(1),
            SimDuration::ZERO,
            1.0,
        );
        let mut r = rng();
        assert!(p.is_lost(SimTime::from_millis(100), &mut r));
        assert!(!p.is_lost(SimTime::from_secs(3), &mut r));
    }

    #[test]
    #[should_panic]
    fn periodic_outage_validates() {
        let _ = PeriodicOutage::new(
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::ZERO,
            1.0,
        );
    }
}
