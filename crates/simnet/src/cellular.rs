//! Cellular layout and the handoff-driven channel process.
//!
//! At 300 km/h a train crosses a cell roughly every 25–60 s. Each crossing
//! triggers a handoff, which at the transport layer manifests as a short
//! *outage* (bursty loss on both directions, often asymmetric) and a
//! latency spike. The paper attributes the long timeout-recovery phases and
//! the ACK-burst losses precisely to these windows.
//!
//! [`ChannelProcess`] is an [`Agent`] that ticks along a [`Trajectory`],
//! detects cell-boundary crossings in a [`CellLayout`], and drives the
//! downlink/uplink [`ChannelLoss`](crate::loss::ChannelLoss) state (outage overlays, extra delay,
//! cell-edge extra loss, coverage holes).

use crate::agent::Agent;
use crate::engine::Ctx;
use crate::link::LinkId;
use crate::loss::Outage;
use crate::mobility::Trajectory;
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A stretch of the route with degraded coverage (e.g. the paper notes
/// China Telecom's 3G barely covers the Beijing–Tianjin corridor).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// Counters exported by the channel process after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Handoffs performed.
    pub handoffs: u64,
    /// Handoffs that failed (long outage).
    pub failed_handoffs: u64,
}

/// The agent driving link impairments along the journey.
#[derive(Debug)]
pub struct ChannelProcess {
    downlink: LinkId,
    uplink: LinkId,
    trajectory: Trajectory,
    layout: CellLayout,
    handoff: HandoffParams,
    tick: SimDuration,
    serving_cell: Option<i64>,
    outage_until: SimTime,
    /// Statistics for reporting.
    pub stats: ChannelStats,
}

const TAG_TICK: u64 = 1;
const TAG_OUTAGE_END: u64 = 2;

impl ChannelProcess {
    /// Creates the process; register it with the engine like any agent.
    pub fn new(
        downlink: LinkId,
        uplink: LinkId,
        trajectory: Trajectory,
        layout: CellLayout,
        handoff: HandoffParams,
    ) -> ChannelProcess {
        ChannelProcess {
            downlink,
            uplink,
            trajectory,
            layout,
            handoff,
            tick: SimDuration::from_millis(100),
            serving_cell: None,
            outage_until: SimTime::ZERO,
            stats: ChannelStats::default(),
        }
    }

    fn begin_handoff(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let mean = self.handoff.outage_mean.as_secs_f64();
        let sd = self.handoff.outage_sd.as_secs_f64();
        let mut dur = ctx.rng().normal_clamped(mean, sd, 0.05);
        let failed = ctx.rng().chance(self.handoff.failure_prob);
        if failed {
            dur *= self.handoff.failure_factor;
            self.stats.failed_handoffs += 1;
        }
        self.stats.handoffs += 1;
        let until = now + SimDuration::from_secs_f64(dur);
        self.outage_until = until;
        let (dl, ul, delay) = (
            self.handoff.down_loss,
            self.handoff.up_loss,
            self.handoff.extra_delay,
        );
        {
            let link = ctx.link_mut(self.downlink);
            link.loss.set_outage(Some(Outage::new(now, until, dl)));
            link.extra_delay = delay;
        }
        {
            let link = ctx.link_mut(self.uplink);
            link.loss.set_outage(Some(Outage::new(now, until, ul)));
            link.extra_delay = delay;
        }
        ctx.schedule_at(until, TAG_OUTAGE_END);
    }

    fn end_outage(&mut self, ctx: &mut Ctx<'_>) {
        // Another handoff may have started meanwhile; only clear if this
        // is the newest outage.
        if ctx.now() >= self.outage_until {
            for link_id in [self.downlink, self.uplink] {
                let link = ctx.link_mut(link_id);
                link.loss.set_outage(None);
                link.extra_delay = SimDuration::ZERO;
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        let pos = self.trajectory.position_m(ctx.now());
        let cell = self.layout.cell_index(pos);
        match self.serving_cell {
            None => self.serving_cell = Some(cell),
            Some(prev) if prev != cell => {
                self.serving_cell = Some(cell);
                self.begin_handoff(ctx);
            }
            _ => {}
        }
        let extra = self.layout.extra_loss_at(pos);
        ctx.link_mut(self.downlink).loss.set_extra(extra);
        ctx.link_mut(self.uplink).loss.set_extra(extra);
        if !self.trajectory.arrived(ctx.now()) {
            ctx.schedule_in(self.tick, TAG_TICK);
        }
    }
}

impl Agent for ChannelProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule_in(SimDuration::ZERO, TAG_TICK);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {
        // The channel process receives no packets.
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            TAG_TICK => self.on_tick(ctx),
            TAG_OUTAGE_END => self.end_outage(ctx),
            other => unreachable!("unknown channel-process timer tag {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::NullAgent;
    use crate::engine::Engine;
    use crate::link::LinkSpec;

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

    #[test]
    fn process_performs_handoffs_along_the_route() {
        let mut eng = Engine::new(5);
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let down = eng.add_link(LinkSpec::new(sink, "down"));
        let up = eng.add_link(LinkSpec::new(sink, "up"));
        // 10 km route, cells every 1 km -> ~10 boundary crossings.
        let traj = Trajectory::new(10.0, 300.0, 0.5);
        let layout = CellLayout::rail_corridor(1_000.0, 0.05);
        let proc_id = eng.add_agent(Box::new(ChannelProcess::new(
            down,
            up,
            traj,
            layout,
            HandoffParams::lte_rail(),
        )));
        eng.run_until_idle();
        let stats = eng.agent_mut::<ChannelProcess>(proc_id).unwrap().stats;
        assert!(
            (8..=12).contains(&stats.handoffs),
            "expected ~10 handoffs, got {}",
            stats.handoffs
        );
    }

    #[test]
    fn outage_clears_after_window() {
        let mut eng = Engine::new(9);
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let down = eng.add_link(LinkSpec::new(sink, "down"));
        let up = eng.add_link(LinkSpec::new(sink, "up"));
        let traj = Trajectory::new(3.0, 300.0, 0.5);
        let layout = CellLayout::rail_corridor(1_000.0, 0.0);
        let mut params = HandoffParams::lte_rail();
        params.failure_prob = 0.0;
        eng.add_agent(Box::new(ChannelProcess::new(
            down, up, traj, layout, params,
        )));
        eng.run_until_idle();
        // After the trip everything must be back to normal.
        assert!(
            eng.link(down).loss.outage().is_none()
                || !eng.link(down).loss.outage().unwrap().active_at(eng.now())
        );
        assert_eq!(eng.link(down).extra_delay, SimDuration::ZERO);
        assert_eq!(eng.link(up).extra_delay, SimDuration::ZERO);
    }

    #[test]
    fn stationary_trajectory_never_hands_off() {
        let mut eng = Engine::new(1);
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let down = eng.add_link(LinkSpec::new(sink, "down"));
        let up = eng.add_link(LinkSpec::new(sink, "up"));
        let proc_id = eng.add_agent(Box::new(ChannelProcess::new(
            down,
            up,
            Trajectory::stationary(),
            CellLayout::rail_corridor(2_000.0, 0.0),
            HandoffParams::lte_rail(),
        )));
        eng.run_until(SimTime::from_secs(100));
        let stats = eng.agent_mut::<ChannelProcess>(proc_id).unwrap().stats;
        assert_eq!(stats.handoffs, 0);
    }
}
