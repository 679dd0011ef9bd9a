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
//! [`LossModel`] is a link's base loss, one closed `Copy` enum: independent
//! loss, two-state [`GilbertElliott`] bursts, or strictly periodic outages.
//! What changes over a run — handoff outages, spatial fading, storm burst
//! windows — is the link's [`Timeline`](crate::timeline::Timeline), whose
//! overlay loss is drawn before the base model and whose extra loss after.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A link's base loss: the value a path spec names and the state its
/// channel owns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent loss with this per-packet probability; `Bernoulli(0.0)`
    /// is a lossless channel and never draws.
    Bernoulli(f64),
    /// Two-state bursty loss.
    GilbertElliott(GilbertElliott),
    /// A strictly periodic outage (scripted ACK blackouts, evenly spaced
    /// cell crossings): every `period`, phase-shifted by `offset`, packets
    /// are lost with probability `loss` for `outage`.
    PeriodicOutage {
        /// Window period.
        period: SimDuration,
        /// Outage length within each period.
        outage: SimDuration,
        /// Phase offset.
        offset: SimDuration,
        /// Loss probability during the outage.
        loss: f64,
    },
}

impl LossModel {
    /// Returns `true` if a packet entering the channel at `now` is lost.
    pub fn is_lost(&mut self, now: SimTime, rng: &mut SimRng) -> bool {
        match self {
            LossModel::Bernoulli(p) => rng.chance(*p),
            LossModel::GilbertElliott(ge) => ge.is_lost(now, rng),
            LossModel::PeriodicOutage {
                period,
                outage,
                offset,
                loss,
            } => {
                (now + *offset).as_micros() % period.as_micros() < outage.as_micros()
                    && rng.chance(*loss)
            }
        }
    }

    /// Long-run average loss probability. A periodic outage's is
    /// time-averaged; its packet-averaged rate depends on the arrivals.
    pub fn steady_state(&self) -> f64 {
        match *self {
            LossModel::Bernoulli(p) => p,
            LossModel::GilbertElliott(ge) => {
                let pi_bad = if ge.g2b + ge.b2g == 0.0 {
                    0.0
                } else {
                    ge.g2b / (ge.g2b + ge.b2g)
                };
                pi_bad * ge.p_bad + (1.0 - pi_bad) * ge.p_good
            }
            LossModel::PeriodicOutage {
                period,
                outage,
                loss,
                ..
            } => outage.as_secs_f64() / period.as_secs_f64() * loss,
        }
    }

    /// Checks the model's parameters; a link checks its model when it is
    /// built.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`, or a periodic outage's
    /// period is zero or shorter than its outage.
    pub(crate) fn check(&self) {
        match *self {
            LossModel::Bernoulli(p) => {
                assert!(
                    (0.0..=1.0).contains(&p),
                    "loss probability out of range: {p}"
                )
            }
            // `GilbertElliott::new` checked its probabilities.
            LossModel::GilbertElliott(_) => {}
            LossModel::PeriodicOutage {
                period,
                outage,
                loss,
                ..
            } => {
                assert!(!period.is_zero(), "period must be positive");
                assert!(outage <= period, "outage longer than period");
                assert!((0.0..=1.0).contains(&loss), "loss out of range: {loss}");
            }
        }
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

    /// Returns `true` if a packet entering the channel is lost.
    pub fn is_lost(&mut self, _now: SimTime, rng: &mut SimRng) -> bool {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentId;
    use crate::link::{Link, LinkSpec};
    use crate::timeline::Impairment;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0xfeed)
    }

    fn ge(p_good: f64, p_bad: f64, g2b: f64, b2g: f64) -> LossModel {
        LossModel::GilbertElliott(GilbertElliott::new(p_good, p_bad, g2b, b2g))
    }

    fn periodic(offset_s: u64) -> LossModel {
        LossModel::PeriodicOutage {
            period: SimDuration::from_secs(10),
            outage: SimDuration::from_secs(1),
            offset: SimDuration::from_secs(offset_s),
            loss: 1.0,
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        let mut never = LossModel::Bernoulli(0.0);
        let mut always = LossModel::Bernoulli(1.0);
        for _ in 0..100 {
            assert!(!never.is_lost(SimTime::ZERO, &mut r));
            assert!(always.is_lost(SimTime::ZERO, &mut r));
        }
        assert_eq!(never.steady_state(), 0.0);
    }

    #[test]
    fn bernoulli_long_run_rate() {
        let mut r = rng();
        let mut m = LossModel::Bernoulli(0.0075);
        let n = 400_000;
        let lost = (0..n).filter(|_| m.is_lost(SimTime::ZERO, &mut r)).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.0075).abs() < 0.001, "rate {rate}");
    }

    #[test]
    #[should_panic]
    fn bernoulli_rejects_invalid() {
        LossModel::Bernoulli(1.5).check();
    }

    #[test]
    fn gilbert_elliott_steady_state_matches_simulation() {
        let mut r = rng();
        let mut m = ge(0.001, 0.5, 0.01, 0.2);
        let expect = m.steady_state();
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
        let mut m = ge(0.0, 0.9, 0.02, 0.2);
        let avg = m.steady_state();
        let n = 200_000;
        let outcomes: Vec<bool> = (0..n).map(|_| m.is_lost(SimTime::ZERO, &mut r)).collect();
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
        // With a lossless good state and a fully lossy bad one, the
        // steady-state rate is the stationary bad-state fraction.
        assert!((ge(0.0, 1.0, 0.1, 0.3).steady_state() - 0.25).abs() < 1e-12);
        assert_eq!(ge(0.0, 1.0, 0.0, 0.0).steady_state(), 0.0);
    }

    #[test]
    fn periodic_outage_windows() {
        let mut p = periodic(0);
        let mut r = rng();
        assert!(p.is_lost(SimTime::from_millis(500), &mut r));
        assert!(!p.is_lost(SimTime::from_secs(5), &mut r));
        assert!(p.is_lost(SimTime::from_millis(10_500), &mut r));
        assert!((p.steady_state() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn periodic_outage_offset_shifts_phase() {
        let mut p = periodic(5);
        let mut r = rng();
        assert!(p.is_lost(SimTime::from_secs(5), &mut r));
        assert!(!p.is_lost(SimTime::from_millis(500), &mut r));
    }

    #[test]
    #[should_panic]
    fn periodic_outage_validates() {
        LossModel::PeriodicOutage {
            period: SimDuration::from_secs(1),
            outage: SimDuration::from_secs(2),
            offset: SimDuration::ZERO,
            loss: 1.0,
        }
        .check();
    }

    /// FNV-1a-64 of 100k `is_lost` outcomes on a 137-µs schedule
    /// (≈ 13.7 s, so a 2-s periodic outage window is crossed many times).
    fn outcome_digest(mut draw: impl FnMut(SimTime, &mut SimRng) -> bool) -> u64 {
        let mut r = SimRng::seed_from_u64(0x0d15_ea5e);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..100_000u64 {
            h ^= u64::from(draw(SimTime::from_micros(i * 137), &mut r));
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Every arm's draw order, pinned at the values the boxed-trait models
    /// gave, and a link's overlay/base/extra order at the value the
    /// overlay-and-extra channel state gave: a reordered draw anywhere
    /// changes a digest.
    #[test]
    fn every_arm_draw_sequence_is_bit_pinned() {
        let mut bernoulli = LossModel::Bernoulli(0.01);
        let mut gilbert = ge(0.001, 0.3, 0.01, 0.2);
        let mut periodic = LossModel::PeriodicOutage {
            period: SimDuration::from_secs_f64(2.0),
            outage: SimDuration::from_secs_f64(0.5),
            offset: SimDuration::from_secs_f64(0.7),
            loss: 0.8,
        };
        // A link under an outage and an extra loss over this base model:
        // what the overlay/extra channel gave, without jitter.
        let mut link = Link::from_spec(
            LinkSpec::new(AgentId::from_raw(0), "pinned").loss(ge(0.001, 0.3, 0.01, 0.2)),
        );
        let outage = Impairment::outage(0.5);
        link.timeline
            .impose(SimTime::from_secs(3), SimTime::from_secs(9), outage);
        let extra = Impairment {
            extra: 0.02,
            ..Impairment::NONE
        };
        link.timeline.impose(SimTime::ZERO, SimTime::MAX, extra);
        let got = [
            outcome_digest(|t, r| bernoulli.is_lost(t, r)),
            outcome_digest(|t, r| gilbert.is_lost(t, r)),
            outcome_digest(|t, r| periodic.is_lost(t, r)),
            outcome_digest(|t, r| link.fate(t, r).is_none()),
        ];
        assert_eq!(
            got,
            [
                0xcc6d_992c_da03_a4c0,
                0xf825_e697_aeb4_40a0,
                0x93bb_3625_c21f_0ca6,
                0xa294_d1f6_e3ec_0c7a,
            ]
        );
    }
}
