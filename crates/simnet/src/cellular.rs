//! Cellular layout and the handoff schedule of a ride.
//!
//! At 300 km/h a train crosses a cell roughly every 25–60 s. Each crossing
//! triggers a handoff, which at the transport layer manifests as a short
//! *outage* (bursty loss on both directions, often asymmetric) and a
//! latency spike. The paper attributes the long timeout-recovery phases and
//! the ACK-burst losses precisely to these windows.
//!
//! A [`MobilityScenario`] — a [`Trajectory`], a [`CellLayout`] and a
//! handoff footprint — is a path's channel over a whole ride, known before
//! the flow starts. [`MobilityScenario::impose`] samples it every 100 ms of
//! the ride, draws each handoff's outage when the train enters a new cell,
//! and writes the result onto the path's two link
//! [`Timeline`](crate::timeline::Timeline)s: the outage overlay and its
//! extra delay, and the cell-edge and coverage-hole extra loss.

use crate::engine::Engine;
use crate::link::LinkId;
use crate::mobility::Trajectory;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::timeline::Impairment;

/// A stretch of the route with degraded coverage (e.g. the paper notes
/// China Telecom's 3G barely covers the Beijing–Tianjin corridor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageHole {
    /// Start of the hole along the route, metres.
    pub from_m: f64,
    /// End of the hole, metres.
    pub to_m: f64,
    /// Additional independent loss probability inside the hole.
    pub extra_loss: f64,
}

impl CoverageHole {
    /// True if `pos_m` lies inside the hole.
    pub fn contains(&self, pos_m: f64) -> bool {
        pos_m >= self.from_m && pos_m < self.to_m
    }
}

/// Base stations every `spacing_m` along the line.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLayout {
    /// Distance between adjacent cell boundaries, metres.
    pub spacing_m: f64,
    /// Offset of the first boundary from position 0, metres.
    pub offset_m: f64,
    /// Additional loss applied near cell edges (worst at the boundary,
    /// zero at the centre).
    pub edge_extra_loss: f64,
    /// Coverage holes along the route.
    pub holes: Vec<CoverageHole>,
}

impl CellLayout {
    /// A typical LTE rail corridor: cells every 2 km, mild edge effect.
    pub fn rail_corridor(spacing_m: f64, edge_extra_loss: f64) -> CellLayout {
        assert!(spacing_m > 0.0, "cell spacing must be positive");
        CellLayout {
            spacing_m,
            offset_m: spacing_m / 2.0,
            edge_extra_loss,
            holes: Vec::new(),
        }
    }

    /// Adds a coverage hole (builder style).
    pub fn with_hole(mut self, hole: CoverageHole) -> CellLayout {
        self.holes.push(hole);
        self
    }

    /// Index of the serving cell at `pos_m`.
    fn cell_index(&self, pos_m: f64) -> i64 {
        ((pos_m + self.offset_m) / self.spacing_m).floor() as i64
    }

    /// Distance from `pos_m` to the centre of its serving cell, normalized
    /// to `[0, 1]` where 1 is the cell edge.
    fn edge_proximity(&self, pos_m: f64) -> f64 {
        let rel = (pos_m + self.offset_m) / self.spacing_m;
        let frac = rel - rel.floor();
        // frac = 0 at one boundary, 1 at the next; centre is at 0.5.
        ((frac - 0.5).abs() * 2.0).clamp(0.0, 1.0)
    }

    /// Extra independent loss at `pos_m` (edge effect + coverage holes).
    fn extra_loss_at(&self, pos_m: f64) -> f64 {
        let edge = self.edge_extra_loss * self.edge_proximity(pos_m).powi(2);
        let hole: f64 = self
            .holes
            .iter()
            .filter(|h| h.contains(pos_m))
            .map(|h| h.extra_loss)
            .sum();
        (edge + hole).clamp(0.0, 1.0)
    }
}

/// Transport-layer footprint of one handoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoffParams {
    /// Mean outage duration.
    pub outage_mean: SimDuration,
    /// Standard deviation of the outage duration.
    pub outage_sd: SimDuration,
    /// Loss probability on the *downlink* during the outage.
    pub down_loss: f64,
    /// Loss probability on the *uplink* during the outage. ACKs travel the
    /// uplink; the paper's ACK-burst losses require this to be high.
    pub up_loss: f64,
    /// Extra one-way delay imposed while the outage lasts.
    pub extra_delay: SimDuration,
    /// Probability the handoff fails and the outage is `failure_factor`×
    /// longer (radio-link failure → reattach).
    pub failure_prob: f64,
    /// Multiplier applied to the outage duration on failure.
    pub failure_factor: f64,
}

impl HandoffParams {
    /// Typical LTE rail handoff: ~0.4 s outage, occasional failures.
    pub fn lte_rail() -> HandoffParams {
        HandoffParams {
            outage_mean: SimDuration::from_millis(400),
            outage_sd: SimDuration::from_millis(150),
            down_loss: 0.9,
            up_loss: 0.9,
            extra_delay: SimDuration::from_millis(60),
            failure_prob: 0.15,
            failure_factor: 4.0,
        }
    }
}

/// The handoffs of a ride's schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Handoffs performed.
    pub handoffs: u64,
    /// Handoffs that failed (long outage).
    pub failed_handoffs: u64,
}

/// The mobility side of a scenario: train trajectory, cell layout and
/// handoff footprint — a path's channel over the whole ride, written onto
/// its links before the flow starts by [`MobilityScenario::impose`].
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityScenario {
    /// Train trajectory along the line.
    pub trajectory: Trajectory,
    /// Base-station layout (and coverage holes).
    pub layout: CellLayout,
    /// Transport-layer handoff footprint.
    pub handoff: HandoffParams,
}

/// How often the channel is sampled along the ride.
const TICK: SimDuration = SimDuration::from_millis(100);

/// The channel at one sample of the ride, which holds until the next one.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tick {
    at: SimTime,
    /// Extra loss at the train's position (cell edge and coverage holes).
    extra: f64,
    /// When the train has just entered a new cell, the handoff's outage as
    /// drawn and whether the handoff failed.
    handoff: Option<(SimDuration, bool)>,
}

impl MobilityScenario {
    /// The ride sampled every [`TICK`] from zero, until the train has
    /// arrived or the next sample would be at or after `end`. A handoff
    /// draws from `rng` its outage (`normal_clamped`), then whether it
    /// failed (`chance`).
    fn ticks<'a>(&'a self, rng: &'a mut SimRng, end: SimTime) -> impl Iterator<Item = Tick> + 'a {
        let mut serving = None;
        let mut next = Some(SimTime::ZERO);
        std::iter::from_fn(move || {
            let at = next.filter(|&at| at < end)?;
            let pos = self.trajectory.position_m(at);
            let cell = self.layout.cell_index(pos);
            let moved = serving.replace(cell).is_some_and(|prev| prev != cell);
            let handoff = moved.then(|| {
                let h = &self.handoff;
                let (mean, sd) = (h.outage_mean.as_secs_f64(), h.outage_sd.as_secs_f64());
                let mut secs = rng.normal_clamped(mean, sd, 0.05);
                let failed = rng.chance(h.failure_prob);
                if failed {
                    secs *= h.failure_factor;
                }
                (SimDuration::from_secs_f64(secs), failed)
            });
            next = (!self.trajectory.arrived(at)).then(|| at + TICK);
            let extra = self.layout.extra_loss_at(pos);
            Some(Tick { at, extra, handoff })
        })
    }

    /// Writes the ride's schedule onto a path's `[down, up]` links of `eng`
    /// and counts its handoffs. Each sample's extra loss holds on both links
    /// until the next sample (the last one's for ever). Each outage loses
    /// packets with `down_loss`/`up_loss` and adds `extra_delay` until it
    /// ends or the next handoff starts. The handoffs draw from `rng`;
    /// sampling stops at `end`, the first instant nothing reads the schedule.
    pub fn impose(
        &self,
        eng: &mut Engine,
        [down, up]: [LinkId; 2],
        rng: &mut SimRng,
        end: SimTime,
    ) -> ChannelStats {
        let h = self.handoff;
        let outage = |eng: &mut Engine, (from, until)| {
            for (link, overlay) in [(down, h.down_loss), (up, h.up_loss)] {
                let delay = h.extra_delay;
                let impairment = Impairment {
                    overlay,
                    delay,
                    ..Impairment::NONE
                };
                eng.impose(link, from, until, impairment);
            }
        };
        let mut stats = ChannelStats::default();
        let mut window: Option<(SimTime, SimTime)> = None;
        let mut ticks = self.ticks(rng, end).peekable();
        while let Some(Tick { at, extra, handoff }) = ticks.next() {
            let until = ticks.peek().map_or(SimTime::MAX, |next| next.at);
            let fading = Impairment {
                extra,
                ..Impairment::NONE
            };
            for link in [down, up] {
                eng.impose(link, at, until, fading);
            }
            if let Some((length, failed)) = handoff {
                stats.handoffs += 1;
                stats.failed_handoffs += u64::from(failed);
                if let Some((from, until)) = window.replace((at, at + length)) {
                    outage(eng, (from, until.min(at)));
                }
            }
        }
        if let Some(last) = window {
            outage(eng, last);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::NullAgent;
    use crate::link::LinkSpec;
    use crate::rng::RngFactory;
    use crate::timeline::tests::segments;

    #[test]
    fn cell_index_advances_with_position() {
        let layout = CellLayout::rail_corridor(2_000.0, 0.0);
        assert_eq!(layout.cell_index(0.0), 0);
        assert_eq!(layout.cell_index(999.0), 0);
        assert_eq!(layout.cell_index(1_000.0), 1);
        assert_eq!(layout.cell_index(2_999.0), 1);
        assert_eq!(layout.cell_index(3_000.0), 2);
    }

    #[test]
    fn edge_proximity_peaks_at_boundaries() {
        let layout = CellLayout::rail_corridor(2_000.0, 0.1);
        // Boundaries at 1000, 3000, …; centres at 0, 2000, ….
        assert!(layout.edge_proximity(0.0) < 1e-9);
        assert!((layout.edge_proximity(1_000.0) - 1.0).abs() < 1e-9);
        assert!((layout.edge_proximity(500.0) - 0.5).abs() < 1e-9);
        // Extra loss is edge^2-weighted.
        assert!((layout.extra_loss_at(1_000.0) - 0.1).abs() < 1e-9);
        assert!(layout.extra_loss_at(0.0) < 1e-12);
    }

    #[test]
    fn coverage_holes_add_loss() {
        let layout = CellLayout::rail_corridor(2_000.0, 0.0).with_hole(CoverageHole {
            from_m: 100.0,
            to_m: 200.0,
            extra_loss: 0.4,
        });
        assert_eq!(layout.extra_loss_at(150.0), 0.4);
        assert_eq!(layout.extra_loss_at(250.0), 0.0);
        assert!(layout.holes[0].contains(100.0));
        assert!(!layout.holes[0].contains(200.0));
    }

    /// The 10-km test route: cells every kilometre, the LTE rail footprint.
    fn ten_km_ride() -> MobilityScenario {
        MobilityScenario {
            trajectory: Trajectory::new(10.0, 300.0, 0.5),
            layout: CellLayout::rail_corridor(1_000.0, 0.05),
            handoff: HandoffParams::lte_rail(),
        }
    }

    /// The draws come from the stream the channel process agent had when it
    /// was registered as agent 1 (after a sink) of an engine seeded `seed`.
    fn agent_one(seed: u64) -> SimRng {
        RngFactory::new(seed).stream("agent.1")
    }

    /// Each handoff's onset (ms), outage (µs) and failed flag on the 10-km
    /// route for seeds 5 and 9, as the ticking channel process agent drew
    /// them: the schedule replays it draw for draw.
    #[test]
    fn handoffs_replay_the_channel_process_exactly() {
        /// A handoff's onset (ms), outage (µs) and failed flag.
        type Drawn = (u64, u64, bool);
        let pinned: [(u64, [Drawn; 10]); 2] = [
            (
                5,
                [
                    (44_800, 295_326, false),
                    (77_500, 393_183, false),
                    (100_000, 387_641, false),
                    (118_400, 2_463_628, true),
                    (134_200, 167_355, false),
                    (148_700, 562_242, false),
                    (164_600, 312_268, false),
                    (182_900, 414_971, false),
                    (205_400, 456_159, false),
                    (238_200, 1_472_801, true),
                ],
            ),
            (
                9,
                [
                    (44_800, 1_903_583, true),
                    (77_500, 660_648, false),
                    (100_000, 536_129, false),
                    (118_400, 596_142, false),
                    (134_200, 222_198, false),
                    (148_700, 392_151, false),
                    (164_600, 261_034, false),
                    (182_900, 1_416_345, true),
                    (205_400, 312_365, false),
                    (238_200, 301_370, false),
                ],
            ),
        ];
        let ride = ten_km_ride();
        for (seed, want) in pinned {
            let mut rng = agent_one(seed);
            let got: Vec<Drawn> = ride
                .ticks(&mut rng, SimTime::MAX)
                .filter_map(|t| {
                    let (outage, failed) = t.handoff?;
                    Some((t.at.as_micros() / 1_000, outage.as_micros(), failed))
                })
                .collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    /// The timelines the schedule writes: the extra loss of the sample
    /// before, each outage on both links with its own loss and the extra
    /// delay, cut short by the next handoff, and nothing left after the
    /// last outage but the fading at the end of the line.
    #[test]
    fn the_schedule_lands_on_both_links() {
        let mut eng = Engine::new(5);
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let down = eng.add_link(LinkSpec::new(sink, "down"));
        let up = eng.add_link(LinkSpec::new(sink, "up"));
        let mut ride = ten_km_ride();
        ride.handoff.up_loss = 0.95;
        let stats = ride.impose(&mut eng, [down, up], &mut agent_one(5), SimTime::MAX);
        assert_eq!(
            stats,
            ChannelStats {
                handoffs: 10,
                failed_handoffs: 2
            }
        );
        let ms = SimTime::from_millis;
        let down_timeline = &eng.link(down).timeline;
        let up_timeline = &eng.link(up).timeline;
        let outage_windows = |t: &crate::timeline::Timeline, loss: f64| {
            let mut windows: Vec<(SimTime, SimTime)> = Vec::new();
            for (from, until, held) in segments(t) {
                assert!(held.overlay == 0.0 || held.overlay == loss);
                assert_eq!(held.delay.is_zero(), held.overlay == 0.0);
                if held.overlay == 0.0 {
                    continue;
                }
                match windows.last_mut() {
                    Some(last) if last.1 == from => last.1 = until,
                    _ => windows.push((from, until)),
                }
            }
            windows
        };
        let down_windows = outage_windows(down_timeline, 0.9);
        assert_eq!(down_windows, outage_windows(up_timeline, 0.95));
        assert_eq!(down_windows.len(), 10);
        assert_eq!(
            down_windows[3],
            (
                ms(118_400),
                ms(118_400) + SimDuration::from_micros(2_463_628)
            )
        );
        // The last sample, at arrival, holds its extra loss for ever.
        let (_, until, last) = segments(down_timeline).last().unwrap();
        assert_eq!(until, SimTime::MAX);
        assert_eq!(last.overlay, 0.0);
        let end = ride.trajectory.duration();
        let ticks = ride.ticks(&mut agent_one(5), SimTime::MAX).count() as u64;
        assert_eq!(ticks, end.as_micros().div_ceil(100_000) + 1);
        assert_eq!(
            last.extra,
            ride.layout
                .extra_loss_at(ride.trajectory.position_m(ms(100 * (ticks - 1))))
        );
    }

    /// A schedule cut at `end` samples no further; the handoffs before it
    /// are the same draws.
    #[test]
    fn sampling_stops_at_the_end_of_the_run() {
        let ride = ten_km_ride();
        let end = SimTime::from_millis(118_400);
        let cut: Vec<Tick> = ride.ticks(&mut agent_one(9), end).collect();
        assert_eq!(cut.len(), 1_184);
        let full: Vec<Tick> = ride.ticks(&mut agent_one(9), SimTime::MAX).collect();
        assert_eq!(cut[..], full[..1_184]);
    }

    #[test]
    fn stationary_trajectory_never_hands_off() {
        let ride = MobilityScenario {
            trajectory: Trajectory::stationary(),
            layout: CellLayout::rail_corridor(2_000.0, 0.0),
            handoff: HandoffParams::lte_rail(),
        };
        let mut eng = Engine::new(1);
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let down = eng.add_link(LinkSpec::new(sink, "down"));
        let up = eng.add_link(LinkSpec::new(sink, "up"));
        let stats = ride.impose(
            &mut eng,
            [down, up],
            &mut agent_one(1),
            SimTime::from_secs(100),
        );
        assert_eq!(stats, ChannelStats::default());
        assert_eq!(ride.ticks(&mut agent_one(1), SimTime::MAX).count(), 1);
        assert_eq!(segments(&eng.link(down).timeline).count(), 0);
    }
}
