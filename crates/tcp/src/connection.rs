//! Connection wiring: build an engine, a sender/receiver pair, the
//! two-directional cellular path, an optional mobility channel process —
//! run it — and hand back the dual-endpoint capture, as a [`FlowTrace`] or
//! already analysed, plus internal metrics.
//!
//! This module is the equivalent of the paper's measurement rig: a phone
//! on the train talking to a dedicated server, with wireshark running on
//! both ends.
//!
//! It is also the one place a TCP world is assembled and harvested. One
//! private `simulate` resets, wires and runs the single-flow world;
//! [`try_analyze_connection_with`] — what every scenario runs — analyses
//! the capture where the engine left it and, under [`Keep::Trace`], also
//! folds it into a [`FlowTrace`]. [`try_run_connection_with`] returns the
//! trace without the analysis (and [`run_connection`] is its panicking
//! shorthand). The MPTCP rigs of
//! [`crate::mptcp`] are the same `pub(crate)` pieces — `add_sender`,
//! `add_receiver`, `add_path`, `add_impairments`, `ConnectionConfig::meta`,
//! `harvest` — called in a different order. Registration order is
//! behaviour: every agent and link draws its random stream from its
//! registration index.

use crate::metrics::{ReceiverMetrics, SenderMetrics};
use crate::receiver::{Receiver, ReceiverConfig};
use crate::reno::{RenoSender, SenderConfig};
use hsm_simnet::agent::AgentId;
use hsm_simnet::cellular::{CellLayout, ChannelProcess, ChannelStats, HandoffParams};
use hsm_simnet::chaos::{StormInjector, StormPlan};
use hsm_simnet::error::SimError;
use hsm_simnet::event::QueueStats;
use hsm_simnet::link::{LinkId, LinkSpec};
use hsm_simnet::loss::{Bernoulli, ChannelLoss, GilbertElliott};
use hsm_simnet::mobility::Trajectory;
use hsm_simnet::packet::FlowId;
use hsm_simnet::prelude::Engine;
use hsm_simnet::time::{SimDuration, SimTime};
use hsm_trace::analysis::timeout::TimeoutConfig;
use hsm_trace::capture::{arena_records, trace_from_arena};
use hsm_trace::record::{FlowMeta, FlowTrace};
use hsm_trace::summary::{analyze_records, FlowAnalysis, FlowSummary};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Declarative loss-model description (buildable, serializable).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossSpec {
    /// No channel loss.
    Lossless,
    /// Independent loss with the given probability.
    Bernoulli(f64),
    /// Two-state bursty loss.
    GilbertElliott {
        /// Loss probability in the good state.
        p_good: f64,
        /// Loss probability in the bad state.
        p_bad: f64,
        /// Good→bad transition probability per packet.
        g2b: f64,
        /// Bad→good transition probability per packet.
        b2g: f64,
    },
    /// Strictly periodic outage windows (scripted impairments for
    /// behavioural studies).
    PeriodicOutage {
        /// Window period, seconds.
        period_s: f64,
        /// Outage length within each period, seconds.
        outage_s: f64,
        /// Phase offset, seconds.
        offset_s: f64,
        /// Loss probability during the outage.
        loss: f64,
    },
}

impl LossSpec {
    /// Instantiates the channel-loss state.
    pub fn build(&self) -> ChannelLoss {
        match *self {
            LossSpec::Lossless => ChannelLoss::lossless(),
            LossSpec::Bernoulli(p) => ChannelLoss::new(Box::new(Bernoulli::new(p))),
            LossSpec::GilbertElliott {
                p_good,
                p_bad,
                g2b,
                b2g,
            } => ChannelLoss::new(Box::new(GilbertElliott::new(p_good, p_bad, g2b, b2g))),
            LossSpec::PeriodicOutage {
                period_s,
                outage_s,
                offset_s,
                loss,
            } => ChannelLoss::new(Box::new(hsm_simnet::loss_ext::PeriodicOutage::new(
                SimDuration::from_secs_f64(period_s),
                SimDuration::from_secs_f64(outage_s),
                SimDuration::from_secs_f64(offset_s),
                loss,
            ))),
        }
    }

    /// Long-run average loss rate of the spec.
    pub fn steady_state(&self) -> f64 {
        self.build().base_steady_state().unwrap_or(0.0)
    }
}

/// Description of the two-directional server↔phone path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathSpec {
    /// Downlink (server→phone) bandwidth, bits/s.
    pub down_bandwidth_bps: u64,
    /// Uplink (phone→server) bandwidth, bits/s.
    pub up_bandwidth_bps: u64,
    /// Downlink one-way delay.
    pub down_delay: SimDuration,
    /// Uplink one-way delay.
    pub up_delay: SimDuration,
    /// Per-packet delay jitter (standard deviation) on both directions.
    pub jitter_sd: SimDuration,
    /// Queue capacity in packets on both directions.
    pub queue_capacity: usize,
    /// Downlink channel loss (affects data packets).
    pub down_loss: LossSpec,
    /// Uplink channel loss (affects ACKs).
    pub up_loss: LossSpec,
}

impl Default for PathSpec {
    /// A healthy LTE-ish path: RTT ≈ 55 ms, moderate bandwidth, lossless.
    fn default() -> Self {
        PathSpec {
            down_bandwidth_bps: 40_000_000,
            up_bandwidth_bps: 15_000_000,
            down_delay: SimDuration::from_millis(27),
            up_delay: SimDuration::from_millis(27),
            jitter_sd: SimDuration::from_millis(2),
            queue_capacity: 128,
            down_loss: LossSpec::Lossless,
            up_loss: LossSpec::Lossless,
        }
    }
}

/// The mobility side of a scenario: train trajectory, cell layout and
/// handoff footprint, driven by a [`ChannelProcess`].
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityScenario {
    /// Train trajectory along the line.
    pub trajectory: Trajectory,
    /// Base-station layout (and coverage holes).
    pub layout: CellLayout,
    /// Transport-layer handoff footprint.
    pub handoff: HandoffParams,
}

/// Everything needed to run one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionConfig {
    /// Flow id used in packets and the resulting trace.
    pub flow: u32,
    /// Sender tunables.
    pub sender: SenderConfig,
    /// Receiver tunables.
    pub receiver: ReceiverConfig,
    /// Provider label recorded in the trace meta (shared with it).
    pub provider: Arc<str>,
    /// Scenario label recorded in the trace meta (shared with it).
    pub scenario: Arc<str>,
    /// MSS recorded in the trace meta.
    pub mss_bytes: u32,
    /// Hard wall-clock (simulated) limit for the run.
    pub deadline: SimTime,
    /// A deterministic chaos-storm schedule replayed against the uplink —
    /// the §V ACK-delay / ACK-burst impairment under study, with the full
    /// trace/analysis pipeline attached. Empty (the default) adds no
    /// injector agent: the world is bit-identical to a storm-free one.
    pub storm: StormPlan,
}

impl ConnectionConfig {
    /// The trace meta this configuration's flows are recorded under.
    pub(crate) fn meta(&self) -> FlowMeta {
        FlowMeta {
            provider: self.provider.clone(),
            scenario: self.scenario.clone(),
            w_m: self.sender.w_m,
            b: self.receiver.b,
            mss_bytes: self.mss_bytes,
        }
    }
}

impl Default for ConnectionConfig {
    fn default() -> Self {
        ConnectionConfig {
            flow: 0,
            sender: SenderConfig::default(),
            receiver: ReceiverConfig::default(),
            provider: "synthetic".into(),
            scenario: "unlabelled".into(),
            mss_bytes: 1460,
            deadline: SimTime::from_secs(3_600),
            storm: StormPlan::default(),
        }
    }
}

/// Results of a connection run.
#[derive(Debug, Clone)]
pub struct ConnectionOutcome {
    /// The dual-endpoint packet trace.
    pub trace: FlowTrace,
    /// Sender-internal ground truth.
    pub sender: SenderMetrics,
    /// Receiver-internal ground truth.
    pub receiver: ReceiverMetrics,
    /// Handoff statistics when a mobility scenario was attached.
    pub channel: Option<ChannelStats>,
    /// Simulated time at the end of the run.
    pub finished_at: SimTime,
    /// Discrete events the simulator processed for this run (campaign
    /// telemetry).
    pub events_processed: u64,
    /// Event-queue telemetry for this run: schedule/cancel volume and
    /// live depth, surfaced into the simnet bench baseline.
    pub queue: QueueStats,
}

/// Results of a connection run whose capture was analysed where the engine
/// left it: [`ConnectionOutcome`] plus the [`FlowAnalysis`] of the flow,
/// its trace only when the caller asked for it.
#[derive(Debug, Clone)]
pub struct AnalyzedConnection {
    /// Full measurement analysis of the flow's capture.
    pub analysis: FlowAnalysis,
    /// The dual-endpoint packet trace, under [`Keep::Trace`] only.
    pub trace: Option<FlowTrace>,
    /// Sender-internal ground truth.
    pub sender: SenderMetrics,
    /// Receiver-internal ground truth.
    pub receiver: ReceiverMetrics,
    /// Handoff statistics when a mobility scenario was attached.
    pub channel: Option<ChannelStats>,
    /// Simulated time at the end of the run.
    pub finished_at: SimTime,
    /// Discrete events the simulator processed for this run.
    pub events_processed: u64,
    /// Event-queue telemetry for this run.
    pub queue: QueueStats,
}

impl AnalyzedConnection {
    /// The model-ready flow summary.
    pub fn summary(&self) -> &FlowSummary {
        &self.analysis.summary
    }
}

/// What an analysed run hands back besides its analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// The analysis and endpoint metrics only: what campaigns keep.
    Summary,
    /// Also the flow's [`FlowTrace`], folded from the capture the analysis
    /// just read.
    Trace,
}

/// Reusable per-worker state for running many flows through one engine.
///
/// Every buffer that a connection run grows — the simulator's event-queue
/// slab, link queue buffers, the packet arena — lives in the engine held
/// here and is recycled between runs, so a worker that holds one
/// `ConnectionScratch` across a campaign stops allocating once it has seen
/// its largest flow. Results are bit-identical to fresh-engine runs
/// (`Engine::reset` re-derives every random stream from the new seed).
///
/// The run registers no recorder: the engine's packet arena records every
/// sent packet and its delivery time as it goes, and stays as the run left
/// it until the next run resets it — the analysis reads it in place
/// ([`arena_records`]) and, under [`Keep::Trace`], folds it into a trace.
#[derive(Debug)]
pub struct ConnectionScratch {
    engine: Engine,
}

impl Default for ConnectionScratch {
    fn default() -> Self {
        ConnectionScratch {
            // The seed is irrelevant: every run resets with its own seed.
            engine: Engine::new(0),
        }
    }
}

impl ConnectionScratch {
    /// Creates an empty scratch.
    pub fn new() -> ConnectionScratch {
        ConnectionScratch::default()
    }

    /// Deliberately dirties every component of the scratch — stale agents
    /// and links registered on the engine and a *partially executed* junk
    /// simulation: advanced clock, pending events, consumed random
    /// streams, and an arena of junk packets of which some are delivered
    /// (their rows carry arrival stamps) and the rest queued or in flight.
    ///
    /// This is the `hsm-chaos` scratch-poisoning fault: a subsequent
    /// run through the poisoned scratch must
    /// produce a bit-identical result to a fresh run, because the
    /// per-run reset is specified to clear *all* of this state.
    pub fn poison(&mut self) {
        use hsm_simnet::agent::NullAgent;
        use hsm_simnet::packet::{Packet, SeqNo};

        let eng = &mut self.engine;
        eng.reset(0xBAD_5EED);
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let junk = eng.add_link(LinkSpec::new(sink, "chaos-poison"));
        for seq in 0..17u64 {
            eng.inject(junk, Packet::data(FlowId(u32::MAX), SeqNo(seq), false));
        }
        // Run only partway — the first junk packets have arrived, the rest
        // are queued or propagating, the clock stops mid-simulation: the
        // most adversarial state to hand the next reset.
        let _ = eng.try_run_until(SimTime::from_millis(16));
    }
}

/// The link id endpoints carry until their links exist.
const UNWIRED: LinkId = LinkId::from_raw(u32::MAX);

/// Registers flow `flow`'s sender, its [`RenoSender::data_link`] yet to be
/// wired.
pub(crate) fn add_sender(eng: &mut Engine, flow: u32, cfg: &ConnectionConfig) -> AgentId {
    eng.add_agent(Box::new(RenoSender::new(FlowId(flow), UNWIRED, cfg.sender)))
}

/// Registers flow `flow`'s receiver, its [`Receiver::uplink`] yet to be
/// wired.
pub(crate) fn add_receiver(eng: &mut Engine, flow: u32, cfg: &ConnectionConfig) -> AgentId {
    eng.add_agent(Box::new(Receiver::new(FlowId(flow), UNWIRED, cfg.receiver)))
}

/// Registers `path`'s two links — `downlink{suffix}` into `down_to`, then
/// `uplink{suffix}` into `up_to` — and returns `(down, up)`.
pub(crate) fn add_path(
    eng: &mut Engine,
    path: &PathSpec,
    down_to: AgentId,
    up_to: AgentId,
    suffix: &str,
) -> (LinkId, LinkId) {
    let mut link = |to, direction: &str, bandwidth_bps, delay, loss: &LossSpec| {
        eng.add_link(
            LinkSpec::new(to, format!("{direction}{suffix}"))
                .bandwidth_bps(bandwidth_bps)
                .prop_delay(delay)
                .jitter_sd(path.jitter_sd)
                .queue_capacity(path.queue_capacity)
                .loss(loss.build()),
        )
    };
    let down = link(
        down_to,
        "downlink",
        path.down_bandwidth_bps,
        path.down_delay,
        &path.down_loss,
    );
    let up = link(
        up_to,
        "uplink",
        path.up_bandwidth_bps,
        path.up_delay,
        &path.up_loss,
    );
    (down, up)
}

/// Attaches what impairs the path `(down, up)` beyond its own loss models:
/// the mobility channel process, when the phone is on the train (its agent
/// id is returned for [`channel_stats`]), and then the storm injector on
/// the uplink, when `storm` has episodes.
pub(crate) fn add_impairments(
    eng: &mut Engine,
    mobility: Option<&MobilityScenario>,
    storm: &StormPlan,
    down: LinkId,
    up: LinkId,
) -> Option<AgentId> {
    let channel = mobility.map(|m| {
        eng.add_agent(Box::new(ChannelProcess::new(
            down,
            up,
            m.trajectory,
            m.layout.clone(),
            m.handoff,
        )))
    });
    if !storm.episodes.is_empty() {
        eng.add_agent(Box::new(StormInjector::new(up, storm.clone())));
    }
    channel
}

/// The sender registered as `tx`.
pub(crate) fn sender_mut(eng: &mut Engine, tx: AgentId) -> &mut RenoSender {
    eng.agent_mut(tx).expect("sender")
}

/// The receiver registered as `rx`.
pub(crate) fn receiver_mut(eng: &mut Engine, rx: AgentId) -> &mut Receiver {
    eng.agent_mut(rx).expect("receiver")
}

/// Takes the sender's ground-truth logs (the world is finished: the next
/// `Engine::reset` would drop them with the agent).
pub(crate) fn sender_metrics(eng: &mut Engine, tx: AgentId) -> SenderMetrics {
    std::mem::take(&mut sender_mut(eng, tx).metrics)
}

/// The handoff statistics of the channel process registered as `id`.
pub(crate) fn channel_stats(eng: &mut Engine, id: AgentId) -> ChannelStats {
    eng.agent_mut::<ChannelProcess>(id).expect("channel").stats
}

/// Everything a finished single-flow world reports besides its capture.
struct Endpoints {
    sender: SenderMetrics,
    receiver: ReceiverMetrics,
    channel: Option<ChannelStats>,
    finished_at: SimTime,
    events_processed: u64,
    queue: QueueStats,
}

fn endpoints(
    eng: &mut Engine,
    (tx, rx): (AgentId, AgentId),
    channel: Option<AgentId>,
) -> Endpoints {
    Endpoints {
        sender: sender_metrics(eng, tx),
        receiver: receiver_mut(eng, rx).metrics,
        channel: channel.map(|id| channel_stats(eng, id)),
        finished_at: eng.now(),
        events_processed: eng.events_processed(),
        queue: eng.queue_stats(),
    }
}

/// Harvests a finished single-flow world. The arena is the capture: every
/// packet of the flow crossed exactly one link, so nothing was recorded
/// twice and no recorder ran.
pub(crate) fn harvest(
    eng: &mut Engine,
    cfg: &ConnectionConfig,
    ends: (AgentId, AgentId),
    channel: Option<AgentId>,
) -> ConnectionOutcome {
    let trace = trace_from_arena(eng.arena(), cfg.flow, cfg.meta());
    let e = endpoints(eng, ends, channel);
    ConnectionOutcome {
        trace,
        sender: e.sender,
        receiver: e.receiver,
        channel: e.channel,
        finished_at: e.finished_at,
        events_processed: e.events_processed,
        queue: e.queue,
    }
}

/// Builds, runs and harvests a single TCP flow: [`try_run_connection_with`]
/// on a fresh scratch, for tests and examples.
///
/// # Panics
///
/// Panics if the engine reports a [`SimError`].
pub fn run_connection(
    seed: u64,
    path: &PathSpec,
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
) -> ConnectionOutcome {
    match try_run_connection_with(&mut ConnectionScratch::new(), seed, path, mobility, cfg) {
        Ok(outcome) => outcome,
        Err(e) => panic!("simulation engine invariant violated: {e}"),
    }
}

/// Resets the scratch's engine to `seed`, wires the single-flow world and
/// runs it to its end. Returns the endpoints' agent ids and the channel
/// process's, for the harvest.
fn simulate(
    scratch: &mut ConnectionScratch,
    seed: u64,
    path: &PathSpec,
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
) -> Result<((AgentId, AgentId), Option<AgentId>), SimError> {
    scratch.engine.reset(seed);
    let eng = &mut scratch.engine;
    let tx = add_sender(eng, cfg.flow, cfg);
    let rx = add_receiver(eng, cfg.flow, cfg);
    let (down, up) = add_path(eng, path, rx, tx, "");
    sender_mut(eng, tx).data_link = down;
    receiver_mut(eng, rx).uplink = up;
    let channel = add_impairments(eng, mobility, &cfg.storm, down, up);
    eng.try_run_until(cfg.deadline)?;
    Ok(((tx, rx), channel))
}

/// Builds, runs and harvests a single TCP flow through a caller-held
/// [`ConnectionScratch`], returning its capture as a [`FlowTrace`].
///
/// Its only callers outside this crate's tests are the pinned benchmark
/// signatures; it waits for ROADMAP item 5(b) to go.
///
/// The run ends when the sender finishes (`stop_after`/`max_segments`),
/// the event queue drains, or `cfg.deadline` passes — whichever comes
/// first.
///
/// # Errors
///
/// Engine bookkeeping corruption surfaces as the [`SimError`] reported by
/// [`Engine::try_run_until`] instead of panicking, so campaign runners can
/// fail one flow and keep the process alive.
pub fn try_run_connection_with(
    scratch: &mut ConnectionScratch,
    seed: u64,
    path: &PathSpec,
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
) -> Result<ConnectionOutcome, SimError> {
    let (ends, channel) = simulate(scratch, seed, path, mobility, cfg)?;
    Ok(harvest(&mut scratch.engine, cfg, ends, channel))
}

/// The same run as [`try_run_connection_with`], analysed in place: the
/// measurement pipeline reads the flow's packets straight from the
/// engine's arena — the allocation-recycling path campaign workers use to
/// run thousands of flows per engine. Under [`Keep::Trace`] the same
/// capture is then folded into the [`FlowTrace`] the trace-returning run
/// returns; under [`Keep::Summary`] no trace is built. The analysis equals
/// `analyze_flow(&outcome.trace, timeouts)` of the trace-returning run.
///
/// # Errors
///
/// Same contract as [`try_run_connection_with`].
pub fn try_analyze_connection_with(
    scratch: &mut ConnectionScratch,
    seed: u64,
    path: &PathSpec,
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
    timeouts: &TimeoutConfig,
    keep: Keep,
) -> Result<AnalyzedConnection, SimError> {
    let (ends, channel) = simulate(scratch, seed, path, mobility, cfg)?;
    let eng = &mut scratch.engine;
    let arena = eng.arena();
    let records = arena_records(arena, cfg.flow);
    let analysis = analyze_records(cfg.flow, &cfg.meta(), arena.len(), records, timeouts);
    let trace = (keep == Keep::Trace).then(|| trace_from_arena(arena, cfg.flow, cfg.meta()));
    let e = endpoints(eng, ends, channel);
    Ok(AnalyzedConnection {
        analysis,
        trace,
        sender: e.sender,
        receiver: e.receiver,
        channel: e.channel,
        finished_at: e.finished_at,
        events_processed: e.events_processed,
        queue: e.queue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_trace::prelude::*;

    #[test]
    fn lossless_run_produces_clean_trace() {
        let cfg = ConnectionConfig {
            sender: SenderConfig {
                max_segments: Some(300),
                ..Default::default()
            },
            ..Default::default()
        };
        let out = run_connection(1, &PathSpec::default(), None, &cfg);
        assert_eq!(out.sender.retransmissions, 0);
        assert_eq!(out.receiver.next_expected, 300);
        let a = analyze_flow(&out.trace, &TimeoutConfig::default());
        assert_eq!(a.summary.p_d, 0.0);
        assert_eq!(a.summary.timeouts, 0);
        assert!(a.summary.throughput_sps > 0.0);
        // RTT estimate close to configured 54 ms + tx times.
        assert!(
            (a.summary.rtt_s - 0.055).abs() < 0.02,
            "rtt {}",
            a.summary.rtt_s
        );
    }

    #[test]
    fn lossy_run_trace_matches_internal_ground_truth() {
        let cfg = ConnectionConfig {
            sender: SenderConfig {
                stop_after: Some(SimDuration::from_secs(60)),
                ..Default::default()
            },
            ..Default::default()
        };
        let path = PathSpec {
            down_loss: LossSpec::GilbertElliott {
                p_good: 0.002,
                p_bad: 0.7,
                g2b: 0.003,
                b2g: 0.08,
            },
            up_loss: LossSpec::Bernoulli(0.004),
            ..Default::default()
        };
        let out = run_connection(7, &path, None, &cfg);
        let a = analyze_flow(&out.trace, &TimeoutConfig::default());
        // The trace-derived loss rate must match the sender's view.
        assert!(a.summary.p_d > 0.0);
        // Trace-inferred timeouts should be close to ground truth.
        let truth = out.sender.timeouts.len() as f64;
        let inferred = f64::from(a.summary.timeouts);
        assert!(
            (inferred - truth).abs() <= truth.max(4.0) * 0.5,
            "inferred {inferred} vs truth {truth}"
        );
    }

    #[test]
    fn mobility_scenario_attaches_channel_stats() {
        let cfg = ConnectionConfig {
            sender: SenderConfig {
                stop_after: Some(SimDuration::from_secs(120)),
                ..Default::default()
            },
            scenario: "high-speed".into(),
            ..Default::default()
        };
        let mob = MobilityScenario {
            trajectory: Trajectory::new(12.0, 300.0, 2.0),
            layout: CellLayout::rail_corridor(1_000.0, 0.02),
            handoff: HandoffParams::lte_rail(),
        };
        let out = run_connection(21, &PathSpec::default(), Some(&mob), &cfg);
        let stats = out.channel.expect("channel stats");
        assert!(stats.handoffs >= 3, "handoffs {}", stats.handoffs);
        assert_eq!(&*out.trace.meta.scenario, "high-speed");
    }

    #[test]
    fn reused_scratch_reproduces_fresh_runs_bit_for_bit() {
        let cfg = ConnectionConfig {
            sender: SenderConfig {
                stop_after: Some(SimDuration::from_secs(20)),
                ..Default::default()
            },
            ..Default::default()
        };
        let path = PathSpec {
            down_loss: LossSpec::Bernoulli(0.01),
            up_loss: LossSpec::Bernoulli(0.004),
            ..Default::default()
        };
        let mut scratch = ConnectionScratch::new();
        for seed in [3u64, 11, 3] {
            let reused = try_run_connection_with(&mut scratch, seed, &path, None, &cfg)
                .expect("scratch run succeeds");
            let fresh = run_connection(seed, &path, None, &cfg);
            assert_eq!(reused.trace, fresh.trace, "seed {seed}");
            assert_eq!(reused.sender.retransmissions, fresh.sender.retransmissions);
            assert_eq!(reused.receiver, fresh.receiver);
            assert_eq!(reused.finished_at, fresh.finished_at);
            assert_eq!(reused.events_processed, fresh.events_processed);
        }
    }

    #[test]
    fn reset_and_poisoned_scratch_leak_no_arrival_stamp() {
        // On a downlink that loses everything no packet ever arrives, so
        // any `arrived_at` in the trace is a stamp a previous tenant of
        // the arena row left behind.
        let dead_path = PathSpec {
            down_loss: LossSpec::Bernoulli(1.0),
            ..Default::default()
        };
        let cfg = ConnectionConfig {
            deadline: SimTime::from_secs(60),
            ..Default::default()
        };
        let fresh = run_connection(5, &dead_path, None, &cfg);
        assert!(fresh.trace.records.len() > 3, "the sender never retried");

        let mut scratch = ConnectionScratch::new();
        for poisoned in [true, false] {
            if poisoned {
                scratch.poison();
            } else {
                try_run_connection_with(&mut scratch, 5, &PathSpec::default(), None, &cfg)
                    .expect("clean run");
            }
            // The dirt is real: stamped rows under the ids the dead run
            // reuses (and, after the poison, unstamped ones in flight).
            let stamped: Vec<bool> = scratch
                .engine
                .arena()
                .iter()
                .map(|(_, at)| at.is_some())
                .collect();
            assert!(stamped[0] && stamped[1], "no delivered packet left behind");
            assert!(!poisoned || !stamped[stamped.len() - 1]);

            let out = try_run_connection_with(&mut scratch, 5, &dead_path, None, &cfg)
                .expect("dead-path run");
            assert!(out.trace.records.iter().all(|r| r.arrived_at.is_none()));
            assert_eq!(out.trace, fresh.trace);
        }
    }

    #[test]
    fn deadline_bounds_the_run() {
        let cfg = ConnectionConfig {
            deadline: SimTime::from_secs(5),
            ..Default::default() // endless sender
        };
        let out = run_connection(3, &PathSpec::default(), None, &cfg);
        assert!(out.finished_at <= SimTime::from_secs(5));
        assert!(!out.trace.records.is_empty());
    }

    #[test]
    fn storm_runs_are_deterministic_and_empty_plans_are_identity() {
        use hsm_simnet::chaos::{StormEpisode, StormKind};

        let cfg = ConnectionConfig {
            sender: SenderConfig {
                stop_after: Some(SimDuration::from_secs(10)),
                ..Default::default()
            },
            ..Default::default()
        };
        let path = PathSpec::default();
        let plan = StormPlan {
            episodes: vec![StormEpisode {
                at: SimTime::from_millis(500),
                duration: SimDuration::from_millis(900),
                kind: StormKind::Flap(SimDuration::from_millis(900)),
            }],
        };
        let stormy_cfg = ConnectionConfig {
            storm: plan,
            ..cfg.clone()
        };
        let mut scratch = ConnectionScratch::new();
        let mut run = |cfg| try_run_connection_with(&mut scratch, 9, &path, None, cfg);
        let stormy = run(&stormy_cfg).expect("storm run succeeds");
        let replay = run(&stormy_cfg).expect("storm replay succeeds");
        assert_eq!(stormy.trace, replay.trace, "storm runs must replay");

        // The delay flap must actually bite: timeouts appear that the
        // storm-free run does not have. The default plan is the empty one,
        // which adds no injector agent — the world every pinned digest of
        // a storm-free flow was computed in.
        assert!(cfg.storm.episodes.is_empty());
        let calm = run(&cfg).expect("calm run");
        assert!(
            stormy.sender.timeouts.len() > calm.sender.timeouts.len(),
            "storm {} vs calm {} timeouts",
            stormy.sender.timeouts.len(),
            calm.sender.timeouts.len()
        );
    }

    #[test]
    fn loss_spec_steady_state() {
        assert_eq!(LossSpec::Lossless.steady_state(), 0.0);
        assert!((LossSpec::Bernoulli(0.25).steady_state() - 0.25).abs() < 1e-12);
        let ge = LossSpec::GilbertElliott {
            p_good: 0.0,
            p_bad: 1.0,
            g2b: 0.1,
            b2g: 0.3,
        };
        assert!((ge.steady_state() - 0.25).abs() < 1e-12);
    }
}
