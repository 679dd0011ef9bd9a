//! Deterministic link-impairment storms — the simnet-layer fault hooks of
//! the `hsm-chaos` harness.
//!
//! A [`StormPlan`] is a seed-derived schedule of impairment episodes on
//! one link: delay *flaps* (sudden extra propagation delay, as when a
//! handoff stalls the radio link) and *burst-loss* windows (a high
//! superimposed loss probability, as when the train crosses a coverage
//! hole). The [`StormInjector`] agent replays the plan with ordinary
//! engine timers and mutates the target [`Link`](crate::link::Link)
//! through [`Ctx::link_mut`], so a storm is part of the simulation itself:
//! fully deterministic, replayable from the seed, and covered by the
//! engine's packet-conservation invariant like any other traffic.
//!
//! Episodes restore the link's previous impairment when they end, so a
//! plan leaves the link exactly as it found it.

use crate::agent::Agent;
use crate::engine::Ctx;
use crate::link::LinkId;
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};

/// What one storm episode does to the link while it is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StormKind {
    /// A delay flap: `extra_delay` jumps by this much for the episode.
    Flap(SimDuration),
    /// A burst-loss window: this probability is superimposed on the
    /// link's loss model (`ChannelLoss::set_extra`) for the episode.
    BurstLoss(f64),
}

/// One scheduled impairment window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormEpisode {
    /// When the impairment switches on.
    pub at: SimTime,
    /// How long it stays on.
    pub duration: SimDuration,
    /// The impairment applied.
    pub kind: StormKind,
}

/// A schedule of non-overlapping storm episodes (seed-derived, or the
/// fixed §V flap storm).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StormPlan {
    /// The episodes, in start-time order.
    pub episodes: Vec<StormEpisode>,
}

/// SplitMix64 step — the same tiny generator the chaos harness seeds its
/// fuzzing from; kept local so `hsm-simnet` stays dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl StormPlan {
    /// Derives a storm schedule covering `[0, horizon)` from `seed`:
    /// alternating flap and burst-loss episodes with seed-dependent
    /// spacing, length, spike size and loss intensity. Identical seeds
    /// produce identical plans.
    pub fn from_seed(seed: u64, horizon: SimDuration) -> StormPlan {
        let mut state = seed ^ 0x5747_4f52_4d21_2121; // "STORM!!"
        let mut episodes = Vec::new();
        let horizon_us = horizon.as_micros();
        // Start after a short calm; march windows until the horizon.
        let mut cursor_us: u64 = 200_000 + splitmix64(&mut state) % 300_000;
        while cursor_us < horizon_us {
            let len_us = 50_000 + splitmix64(&mut state) % 400_000;
            let kind = if splitmix64(&mut state).is_multiple_of(2) {
                StormKind::Flap(SimDuration::from_micros(
                    20_000 + splitmix64(&mut state) % 180_000,
                ))
            } else {
                StormKind::BurstLoss(0.3 + (splitmix64(&mut state) % 60) as f64 / 100.0)
            };
            episodes.push(StormEpisode {
                at: SimTime::ZERO + SimDuration::from_micros(cursor_us),
                duration: SimDuration::from_micros(len_us),
                kind,
            });
            // Calm gap before the next episode.
            cursor_us = cursor_us + len_us + 100_000 + splitmix64(&mut state) % 800_000;
        }
        StormPlan { episodes }
    }

    /// The §V delay-flap storm over a flow of length `horizon`: 500 ms
    /// delay flaps every 2.5 s from t = 600 ms. The last flap starts more
    /// than one period before `horizon`, so every episode's fallout lands
    /// inside the flow.
    ///
    /// Each flap holds ACKs back for longer than the first-rung RTO
    /// (~200–350 ms on the provider paths) without losing them — the
    /// delayed-but-not-lost regime where a plain sender times out
    /// spuriously. The flap deliberately ends *before* the second backoff
    /// rung would expire: a repeat RTO is RFC 5682's "the retransmission
    /// was lost too" case and rightly cancels F-RTO, so a longer flap would
    /// never let that countermeasure act (at 900 ms every flap climbs the
    /// ladder and F-RTO never probes).
    pub fn periodic_flaps(horizon: SimDuration) -> StormPlan {
        let flap = SimDuration::from_millis(500);
        let period = SimDuration::from_millis(2500);
        let mut episodes = Vec::new();
        let mut at = SimTime::ZERO + SimDuration::from_millis(600);
        while at + period < SimTime::ZERO + horizon {
            episodes.push(StormEpisode {
                at,
                duration: flap,
                kind: StormKind::Flap(flap),
            });
            at += period;
        }
        StormPlan { episodes }
    }
}

/// Timer tags: episode `i` starts at `2 * i` and ends at `2 * i + 1`.
fn start_tag(i: usize) -> u64 {
    2 * i as u64
}
fn end_tag(i: usize) -> u64 {
    2 * i as u64 + 1
}

/// An agent that replays a [`StormPlan`] against one link.
///
/// Register it on the engine alongside the traffic agents; it schedules
/// one timer per episode boundary and applies/restores the impairment in
/// the timer callbacks. Restoration is exact: the pre-episode
/// `extra_delay` / superimposed-loss values are saved when the episode
/// starts and written back when it ends.
#[derive(Debug)]
pub struct StormInjector {
    /// The link under storm.
    pub link: LinkId,
    /// The schedule to replay.
    pub plan: StormPlan,
    /// Episodes applied so far (telemetry for tests).
    pub applied: u64,
    /// Saved `extra_delay` to restore after a flap.
    saved_delay: SimDuration,
    /// Saved superimposed loss to restore after a burst window.
    saved_extra_loss: f64,
}

impl StormInjector {
    /// Creates an injector replaying `plan` against `link`.
    pub fn new(link: LinkId, plan: StormPlan) -> StormInjector {
        StormInjector {
            link,
            plan,
            applied: 0,
            saved_delay: SimDuration::ZERO,
            saved_extra_loss: 0.0,
        }
    }
}

impl Agent for StormInjector {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, ep) in self.plan.episodes.iter().enumerate() {
            ctx.schedule_at(ep.at, start_tag(i));
            ctx.schedule_at(ep.at + ep.duration, end_tag(i));
        }
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {
        // The injector is not an endpoint; traffic never addresses it.
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let i = (tag / 2) as usize;
        let Some(ep) = self.plan.episodes.get(i).copied() else {
            return;
        };
        let starting = tag.is_multiple_of(2);
        let link = ctx.link_mut(self.link);
        match (ep.kind, starting) {
            (StormKind::Flap(spike), true) => {
                self.saved_delay = link.extra_delay;
                link.extra_delay = self.saved_delay + spike;
                self.applied += 1;
            }
            (StormKind::Flap(_), false) => {
                link.extra_delay = self.saved_delay;
            }
            (StormKind::BurstLoss(p), true) => {
                self.saved_extra_loss = link.loss.extra();
                link.loss.set_extra(p);
                self.applied += 1;
            }
            (StormKind::BurstLoss(_), false) => {
                link.loss.set_extra(self.saved_extra_loss);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::NullAgent;
    use crate::engine::Engine;
    use crate::link::LinkSpec;
    use crate::packet::{FlowId, SeqNo};

    /// Fixed-rate sender: one packet per millisecond onto one link.
    #[derive(Debug)]
    struct Pinger {
        out: LinkId,
        sent: u64,
        budget: u64,
    }

    impl Agent for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule_in(SimDuration::from_micros(1), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            if self.sent >= self.budget {
                return;
            }
            ctx.send(self.out, Packet::data(FlowId(1), SeqNo(self.sent), false));
            self.sent += 1;
            ctx.schedule_in(SimDuration::from_millis(1), 0);
        }
    }

    fn storm_run(seed: u64) -> (u64, u64, u64, u64) {
        let mut eng = Engine::new(seed);
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let wire = eng.add_link(
            LinkSpec::new(sink, "storm-wire")
                .bandwidth_bps(100_000_000)
                .prop_delay(SimDuration::from_millis(5)),
        );
        let pinger = eng.add_agent(Box::new(Pinger {
            out: wire,
            sent: 0,
            budget: 3000,
        }));
        let plan = StormPlan::from_seed(seed, SimDuration::from_secs(3));
        assert!(!plan.episodes.is_empty(), "seed {seed} produced no storm");
        let injector = eng.add_agent(Box::new(StormInjector::new(wire, plan)));
        eng.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let applied = eng
            .agent_mut::<StormInjector>(injector)
            .expect("injector")
            .applied;
        let sent = eng.agent_mut::<Pinger>(pinger).expect("pinger").sent;
        let link = eng.link(wire);
        (applied, sent, link.delivered, link.channel_drops)
    }

    #[test]
    fn storms_apply_and_restore_deterministically() {
        let a = storm_run(11);
        let b = storm_run(11);
        assert_eq!(a, b, "identical seeds must replay identical storms");
        assert!(a.0 >= 2, "expected several episodes, got {}", a.0);
        assert_eq!(a.1, 3000);
        // Every packet is accounted for (delivered or dropped) and the
        // storm actually bit: burst windows drop traffic a calm link
        // would deliver.
        let calm_delivery = {
            let mut eng = Engine::new(11);
            let sink = eng.add_agent(Box::new(NullAgent::new()));
            let wire = eng.add_link(
                LinkSpec::new(sink, "calm-wire")
                    .bandwidth_bps(100_000_000)
                    .prop_delay(SimDuration::from_millis(5)),
            );
            eng.add_agent(Box::new(Pinger {
                out: wire,
                sent: 0,
                budget: 3000,
            }));
            eng.run_until(SimTime::ZERO + SimDuration::from_secs(5));
            eng.link(wire).delivered
        };
        assert_eq!(calm_delivery, 3000);
        assert!(
            a.2 < calm_delivery && a.3 > 0,
            "storm must drop packets: delivered {} drops {}",
            a.2,
            a.3
        );
    }

    #[test]
    fn different_seeds_storm_differently() {
        assert_ne!(
            StormPlan::from_seed(1, SimDuration::from_secs(3)),
            StormPlan::from_seed(2, SimDuration::from_secs(3))
        );
    }

    #[test]
    fn periodic_flaps_fit_inside_the_flow_and_are_periodic() {
        let plan = StormPlan::periodic_flaps(SimDuration::from_secs(12));
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

    /// The conservation invariant keeps watching during a storm: corrupt
    /// the ledger mid-storm and the post-run check must fire.
    #[test]
    #[should_panic(expected = "packet conservation violated")]
    fn conservation_check_fires_during_a_storm() {
        let mut eng = Engine::new(7);
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let wire = eng.add_link(LinkSpec::new(sink, "storm-wire"));
        eng.add_agent(Box::new(Pinger {
            out: wire,
            sent: 0,
            budget: 100,
        }));
        let plan = StormPlan::from_seed(7, SimDuration::from_secs(1));
        eng.add_agent(Box::new(StormInjector::new(wire, plan)));
        eng.link_mut(wire).inject_conservation_violation();
        eng.run_until(SimTime::ZERO + SimDuration::from_secs(2));
    }
}
