//! Packet-loss models.
//!
//! The paper's transport-layer findings hinge on *how* packets are lost,
//! not just how often:
//!
//! * a small independent background loss produces the ~0.75 % lifetime
//!   data-loss rate;
//! * *bursty* loss (handoff outages, deep fades) produces ACK-burst loss —
//!   all ACKs of a round lost — which triggers spurious timeouts, and the
//!   very high retransmission loss rate `q` inside timeout recovery.
//!
//! [`LossModel`] is the extension point; [`Bernoulli`] models independent
//! loss, [`GilbertElliott`] models two-state bursty loss, and every link
//! additionally supports a time-bounded [`Outage`] overlay that the
//! cellular handoff process drives.

use crate::rng::SimRng;
use crate::time::SimTime;
use std::fmt::Debug;

/// Decides, per packet, whether the channel destroys it.
pub trait LossModel: Debug + Send {
    /// Returns `true` if a packet entering the channel at `now` is lost.
    fn is_lost(&mut self, now: SimTime, rng: &mut SimRng) -> bool;

    /// Long-run average loss probability, if the model can state one
    /// (used for reporting and calibration checks).
    fn steady_state_rate(&self) -> Option<f64> {
        None
    }
}

/// Independent (Bernoulli) loss with fixed probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates an independent-loss model.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability out of range: {p}"
        );
        Bernoulli { p }
    }

    /// A loss-free channel.
    pub fn lossless() -> Self {
        Bernoulli { p: 0.0 }
    }

    /// The per-packet loss probability.
    pub fn probability(&self) -> f64 {
        self.p
    }
}

impl LossModel for Bernoulli {
    fn is_lost(&mut self, _now: SimTime, rng: &mut SimRng) -> bool {
        rng.chance(self.p)
    }

    fn steady_state_rate(&self) -> Option<f64> {
        Some(self.p)
    }
}

/// Two-state Gilbert–Elliott burst-loss model.
///
/// The channel alternates between a *good* state with loss `p_good` and a
/// *bad* state with loss `p_bad`; transitions happen per packet with
/// probabilities `g2b` (good→bad) and `b2g` (bad→good). Expected burst
/// length in packets is `1/b2g`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    p_good: f64,
    p_bad: f64,
    g2b: f64,
    b2g: f64,
    in_bad: bool,
}

impl GilbertElliott {
    /// Creates a Gilbert–Elliott model starting in the good state.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(p_good: f64, p_bad: f64, g2b: f64, b2g: f64) -> Self {
        for (name, v) in [
            ("p_good", p_good),
            ("p_bad", p_bad),
            ("g2b", g2b),
            ("b2g", b2g),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} out of range: {v}");
        }
        GilbertElliott {
            p_good,
            p_bad,
            g2b,
            b2g,
            in_bad: false,
        }
    }

    /// Stationary probability of being in the bad state.
    fn bad_state_fraction(&self) -> f64 {
        if self.g2b + self.b2g == 0.0 {
            0.0
        } else {
            self.g2b / (self.g2b + self.b2g)
        }
    }
}

impl LossModel for GilbertElliott {
    fn is_lost(&mut self, _now: SimTime, rng: &mut SimRng) -> bool {
        // Transition first, then draw loss from the (new) state; this makes
        // a g2b transition immediately lossy, which is what a fade onset
        // looks like.
        if self.in_bad {
            if rng.chance(self.b2g) {
                self.in_bad = false;
            }
        } else if rng.chance(self.g2b) {
            self.in_bad = true;
        }
        let p = if self.in_bad { self.p_bad } else { self.p_good };
        rng.chance(p)
    }

    fn steady_state_rate(&self) -> Option<f64> {
        let pi_bad = self.bad_state_fraction();
        Some(pi_bad * self.p_bad + (1.0 - pi_bad) * self.p_good)
    }
}

/// A time-bounded overlay that raises loss to `probability` during
/// `[from, until)` — how handoff outages are imposed on a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Start of the outage window.
    pub from: SimTime,
    /// End of the outage window (exclusive).
    pub until: SimTime,
    /// Loss probability while the window is active.
    pub probability: f64,
}

impl Outage {
    /// Creates an outage window.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0, 1]` or the window is empty.
    pub fn new(from: SimTime, until: SimTime, probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "outage probability out of range"
        );
        assert!(until > from, "empty outage window");
        Outage {
            from,
            until,
            probability,
        }
    }

    /// True if `now` falls inside the window.
    pub fn active_at(&self, now: SimTime) -> bool {
        now >= self.from && now < self.until
    }
}

/// Per-link loss state: a base model plus an optional outage overlay.
///
/// A packet is lost if the overlay (when active) says so, *or* the base
/// model says so — the overlay models an additional impairment, not a
/// replacement.
#[derive(Debug)]
pub struct ChannelLoss {
    base: Box<dyn LossModel>,
    overlay: Option<Outage>,
    extra: f64,
    /// Packets offered to this channel.
    pub offered: u64,
    /// Packets destroyed by this channel.
    pub lost: u64,
}

impl ChannelLoss {
    /// Wraps a base loss model.
    pub fn new(base: Box<dyn LossModel>) -> Self {
        ChannelLoss {
            base,
            overlay: None,
            extra: 0.0,
            offered: 0,
            lost: 0,
        }
    }

    /// A loss-free channel.
    pub fn lossless() -> Self {
        ChannelLoss::new(Box::new(Bernoulli::lossless()))
    }

    /// Installs (or replaces) the outage overlay.
    pub fn set_outage(&mut self, outage: Option<Outage>) {
        self.overlay = outage;
    }

    /// The currently installed overlay, if any.
    pub fn outage(&self) -> Option<Outage> {
        self.overlay
    }

    /// Sets an additional independent loss probability applied on top of
    /// the base model — the channel process uses this for slowly varying
    /// spatial effects (cell-edge fading, coverage holes).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_extra(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "extra loss out of range: {p}");
        self.extra = p;
    }

    /// The current additional independent loss probability.
    pub fn extra(&self) -> f64 {
        self.extra
    }

    /// Decides the fate of a packet entering the channel at `now`.
    pub fn is_lost(&mut self, now: SimTime, rng: &mut SimRng) -> bool {
        self.offered += 1;
        let by_overlay = match self.overlay {
            Some(o) if o.active_at(now) => rng.chance(o.probability),
            _ => false,
        };
        // Always consult the base model so its internal state (e.g. GE
        // transitions) advances at the same packet cadence regardless of
        // overlay activity.
        let by_base = self.base.is_lost(now, rng);
        let by_extra = self.extra > 0.0 && rng.chance(self.extra);
        let lost = by_overlay || by_base || by_extra;
        if lost {
            self.lost += 1;
        }
        lost
    }

    /// Steady-state rate of the base model, if known.
    pub fn base_steady_state(&self) -> Option<f64> {
        self.base.steady_state_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0xfeed)
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        let mut never = Bernoulli::new(0.0);
        let mut always = Bernoulli::new(1.0);
        for _ in 0..100 {
            assert!(!never.is_lost(SimTime::ZERO, &mut r));
            assert!(always.is_lost(SimTime::ZERO, &mut r));
        }
        assert_eq!(never.steady_state_rate(), Some(0.0));
    }

    #[test]
    fn bernoulli_long_run_rate() {
        let mut r = rng();
        let mut m = Bernoulli::new(0.0075);
        let n = 400_000;
        let lost = (0..n).filter(|_| m.is_lost(SimTime::ZERO, &mut r)).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.0075).abs() < 0.001, "rate {rate}");
    }

    #[test]
    #[should_panic]
    fn bernoulli_rejects_invalid() {
        let _ = Bernoulli::new(1.5);
    }

    #[test]
    fn gilbert_elliott_steady_state_matches_simulation() {
        let mut r = rng();
        let mut m = GilbertElliott::new(0.001, 0.5, 0.01, 0.2);
        let expect = m.steady_state_rate().unwrap();
        let n = 600_000;
        let lost = (0..n).filter(|_| m.is_lost(SimTime::ZERO, &mut r)).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - expect).abs() < 0.01, "rate {rate} vs {expect}");
    }

    #[test]
    fn gilbert_elliott_produces_bursts() {
        // With a very lossy bad state, consecutive losses should appear far
        // more often than under independent loss at the same average rate.
        let mut r = rng();
        let mut ge = GilbertElliott::new(0.0, 0.9, 0.02, 0.2);
        let avg = ge.steady_state_rate().unwrap();
        let n = 200_000;
        let outcomes: Vec<bool> = (0..n).map(|_| ge.is_lost(SimTime::ZERO, &mut r)).collect();
        let pairs = outcomes.windows(2).filter(|w| w[0] && w[1]).count() as f64;
        let losses = outcomes.iter().filter(|&&l| l).count() as f64;
        let p_loss_given_loss = pairs / losses;
        assert!(
            p_loss_given_loss > 3.0 * avg,
            "burstiness: P(loss|loss)={p_loss_given_loss} vs avg={avg}"
        );
    }

    #[test]
    fn bad_state_fraction() {
        let m = GilbertElliott::new(0.0, 1.0, 0.1, 0.3);
        assert!((m.bad_state_fraction() - 0.25).abs() < 1e-12);
        let frozen = GilbertElliott::new(0.0, 1.0, 0.0, 0.0);
        assert_eq!(frozen.bad_state_fraction(), 0.0);
    }

    #[test]
    fn outage_window_membership() {
        let o = Outage::new(SimTime::from_secs(1), SimTime::from_secs(2), 1.0);
        assert!(!o.active_at(SimTime::from_millis(999)));
        assert!(o.active_at(SimTime::from_secs(1)));
        assert!(o.active_at(SimTime::from_millis(1999)));
        assert!(!o.active_at(SimTime::from_secs(2)));
    }

    #[test]
    fn channel_overlay_dominates_during_window() {
        let mut r = rng();
        let mut ch = ChannelLoss::lossless();
        ch.set_outage(Some(Outage::new(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            1.0,
        )));
        assert!(!ch.is_lost(SimTime::from_millis(500), &mut r));
        assert!(ch.is_lost(SimTime::from_millis(1500), &mut r));
        assert!(!ch.is_lost(SimTime::from_millis(2500), &mut r));
        assert_eq!(ch.offered, 3);
        assert_eq!(ch.lost, 1);
    }

    #[test]
    fn channel_base_still_applies_outside_overlay() {
        let mut r = rng();
        let mut ch = ChannelLoss::new(Box::new(Bernoulli::new(1.0)));
        ch.set_outage(Some(Outage::new(
            SimTime::from_secs(5),
            SimTime::from_secs(6),
            0.0,
        )));
        assert!(ch.is_lost(SimTime::ZERO, &mut r));
    }

    #[test]
    fn lossless_channel_has_no_extra_loss() {
        let ch = ChannelLoss::lossless();
        assert_eq!(ch.extra(), 0.0);
    }

    #[test]
    fn extra_loss_applies_everywhere() {
        let mut r = rng();
        let mut ch = ChannelLoss::lossless();
        ch.set_extra(1.0);
        assert!(ch.is_lost(SimTime::ZERO, &mut r));
        ch.set_extra(0.0);
        assert!(!ch.is_lost(SimTime::from_secs(9), &mut r));
    }

    #[test]
    #[should_panic]
    fn extra_loss_validated() {
        let mut ch = ChannelLoss::lossless();
        ch.set_extra(2.0);
    }
}
