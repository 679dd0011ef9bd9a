//! Connection wiring: build an engine, a sender/receiver pair, the
//! two-directional cellular path and its impairment schedule (a ride's
//! handoffs, a storm) — run it — and hand back the dual-endpoint capture,
//! as a [`FlowTrace`] or already analysed, plus internal metrics.
//!
//! This module is the equivalent of the paper's measurement rig: a phone
//! on the train talking to a dedicated server, with wireshark running on
//! both ends.
//!
//! It is also the one place a TCP world is assembled and harvested. One
//! private `simulate` resets, wires and runs the single-flow world in
//! slices of simulated time, and after each slice drains the packet rows
//! that have landed — delivered or dropped — into a record reader; at the
//! end the rows still in flight follow. So a flow holds the arena rows of
//! its packets in flight, not of its whole run.
//! [`try_analyze_connection_with`] — what every scenario runs — reads them
//! into the analysis fold and, under [`Keep::Trace`], also into a
//! [`FlowTrace`], and keeps the sender's window log.
//! [`try_run_connection_with`] reads them into the trace alone (and
//! [`run_connection`] is its panicking shorthand). The MPTCP rigs of
//! [`crate::mptcp`] are the same `pub(crate)` pieces — `add_sender`,
//! `add_receiver`, `add_path`, `add_impairments`, `ConnectionConfig::meta`,
//! `harvest` — called in a different order, on an arena nobody drains.
//! Registration order is behaviour: every agent and link draws its random
//! stream from its registration index, and a ride's handoffs draw from the
//! stream of the index its channel process agent was once registered
//! under.

use crate::metrics::{ReceiverMetrics, SenderMetrics};
use crate::receiver::{Receiver, ReceiverConfig};
use crate::reno::{RenoSender, SenderConfig};
use hsm_simnet::agent::AgentId;
use hsm_simnet::arena::Rows;
use hsm_simnet::cellular::ChannelStats;
use hsm_simnet::chaos::StormPlan;
use hsm_simnet::error::SimError;
use hsm_simnet::event::QueueStats;
use hsm_simnet::link::{LinkId, LinkSpec};
use hsm_simnet::loss::LossModel;
use hsm_simnet::packet::FlowId;
use hsm_simnet::prelude::Engine;
use hsm_simnet::rng::RngFactory;
use hsm_simnet::time::{SimDuration, SimTime};
use hsm_trace::analysis::timeout::TimeoutConfig;
use hsm_trace::capture::flow_records;
use hsm_trace::record::{FlowMeta, FlowTrace, Label};
use hsm_trace::summary::{FlowAnalysis, FlowFold, FlowSummary, FoldColumns};

/// Description of the two-directional server↔phone path.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    pub down_loss: LossModel,
    /// Uplink channel loss (affects ACKs).
    pub up_loss: LossModel,
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
            down_loss: LossModel::Bernoulli(0.0),
            up_loss: LossModel::Bernoulli(0.0),
        }
    }
}

pub use hsm_simnet::cellular::MobilityScenario;

/// Everything needed to run one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionConfig {
    /// Flow id used in packets and the resulting trace.
    pub flow: u32,
    /// Sender tunables.
    pub sender: SenderConfig,
    /// Receiver tunables.
    pub receiver: ReceiverConfig,
    /// Provider label recorded in the trace meta.
    pub provider: Label,
    /// Scenario label recorded in the trace meta.
    pub scenario: Label,
    /// Hard wall-clock (simulated) limit for the run.
    pub deadline: SimTime,
    /// A deterministic chaos-storm schedule written onto the uplink's
    /// timeline — the §V ACK-delay / ACK-burst impairment under study, with
    /// the full trace/analysis pipeline attached. On a moving flow its
    /// episodes add to the ride's handoffs. Empty (the default) writes
    /// nothing: the world is bit-identical to a storm-free one.
    pub storm: StormPlan,
}

impl ConnectionConfig {
    /// The trace meta this configuration's flows are recorded under.
    pub(crate) fn meta(&self) -> FlowMeta {
        FlowMeta {
            provider: self.provider,
            scenario: self.scenario,
            w_m: self.sender.w_m,
            b: self.receiver.b,
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
    /// The analysis and endpoint metrics only: what campaigns keep. The
    /// sender's window log is not kept either: [`SenderMetrics::cwnd_log`]
    /// comes back empty, and every other sender metric is the same.
    Summary,
    /// Also the flow's [`FlowTrace`], made of the records the analysis
    /// reads, and the sender's full window log.
    Trace,
}

/// Reusable per-worker state for running many flows through one engine.
///
/// Every buffer that a connection run grows — the simulator's event-queue
/// slab, link queue buffers, the packet arena's chunks in the engine held
/// here, and the analysis fold's columns — is recycled between runs, so a
/// worker that holds one `ConnectionScratch` across a campaign stops
/// allocating once it has seen its largest flow. Results are bit-identical
/// to fresh-engine runs (`Engine::reset` re-derives every random stream
/// from the new seed, and a fold empties its columns when it starts).
///
/// The engine's packet arena records every sent packet and its delivery
/// time as it goes, and the run drains the landed packets' rows into the
/// analysis ([`flow_records`] into a [`FlowFold`]) and, under
/// [`Keep::Trace`], into a trace, reusing their chunks as it goes.
#[derive(Debug)]
pub struct ConnectionScratch {
    engine: Engine,
    columns: FoldColumns,
}

impl Default for ConnectionScratch {
    fn default() -> Self {
        ConnectionScratch {
            // The seed is irrelevant: every run resets with its own seed.
            engine: Engine::new(0),
            columns: FoldColumns::default(),
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
    /// streams, an arena of junk packets of which some are delivered
    /// (their rows carry arrival stamps) and the rest queued or in flight,
    /// and analysis columns holding a half-folded junk flow.
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
        let mut fold = FlowFold::new(&TimeoutConfig::default(), &mut self.columns);
        fold.extend(flow_records(u32::MAX, eng.arena().iter()));
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
    let mut link = |to, direction: &str, bandwidth_bps, delay, loss: LossModel| {
        eng.add_link(
            LinkSpec::new(to, format!("{direction}{suffix}"))
                .bandwidth_bps(bandwidth_bps)
                .prop_delay(delay)
                .jitter_sd(path.jitter_sd)
                .queue_capacity(path.queue_capacity)
                .loss(loss),
        )
    };
    let down = link(
        down_to,
        "downlink",
        path.down_bandwidth_bps,
        path.down_delay,
        path.down_loss,
    );
    let up = link(
        up_to,
        "uplink",
        path.up_bandwidth_bps,
        path.up_delay,
        path.up_loss,
    );
    (down, up)
}

/// Writes what impairs the path `[down, up]` beyond its own loss models
/// onto its timelines, before the run: the ride's handoffs, when the phone
/// is on the train (their counts are returned), then `cfg.storm` on the
/// uplink. The handoffs draw from the stream of agent `channel` of a world
/// seeded `seed`, where a channel process agent was once registered.
/// `halts` says whether the sender's stop ends the run.
pub(crate) fn add_impairments(
    eng: &mut Engine,
    (seed, channel): (u64, usize),
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
    [down, up]: [LinkId; 2],
    halts: bool,
) -> Option<ChannelStats> {
    // The first instant the run cannot reach: just past its deadline, or the
    // stop, which fires before any transmission that ends at that instant.
    let mut end = cfg.deadline + SimDuration::from_micros(1);
    if let (Some(after), true) = (cfg.sender.stop_after, halts) {
        end = end.min(SimTime::ZERO + after);
    }
    let stats = mobility.map(|m| {
        let mut rng = RngFactory::new(seed).stream(&format!("agent.{channel}"));
        m.impose(eng, [down, up], &mut rng, end)
    });
    cfg.storm.impose(eng, up);
    stats
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
    channel: Option<ChannelStats>,
) -> Endpoints {
    Endpoints {
        sender: sender_metrics(eng, tx),
        receiver: receiver_mut(eng, rx).metrics,
        channel,
        finished_at: eng.now(),
        events_processed: eng.events_processed(),
        queue: eng.queue_stats(),
    }
}

/// Harvests a finished single-flow world whose capture is `trace`.
pub(crate) fn harvest(
    eng: &mut Engine,
    trace: FlowTrace,
    ends: (AgentId, AgentId),
    channel: Option<ChannelStats>,
) -> ConnectionOutcome {
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

/// Simulated time a single-flow run advances between two drains of its
/// packet arena. A drain leaves the rows still in flight, so a flow holds
/// about a slice's worth of rows however long it runs; a slice holds
/// hundreds of events, so the drains cost nothing measurable.
const SLICE: SimDuration = SimDuration::from_millis(250);

/// Resets `eng` to `seed`, wires the single-flow world and runs it to its
/// end; the sender keeps its window log only when `keep` is
/// [`Keep::Trace`]. The run goes in [`SLICE`]s: after each, `read` is
/// handed the rows of the packets that have landed since (a
/// [`Engine::drain_settled`]), and at the end those of every packet left
/// — so it sees every packet once, in send order. Returns the endpoints'
/// agent ids and the ride's handoff counts, for the harvest.
fn simulate(
    eng: &mut Engine,
    seed: u64,
    path: &PathSpec,
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
    keep: Keep,
    mut read: impl FnMut(Rows<'_>),
) -> Result<((AgentId, AgentId), Option<ChannelStats>), SimError> {
    eng.reset(seed);
    let tx = add_sender(eng, cfg.flow, cfg);
    let rx = add_receiver(eng, cfg.flow, cfg);
    let (down, up) = add_path(eng, path, rx, tx, "");
    let sender = sender_mut(eng, tx);
    sender.data_link = down;
    sender.log_window = keep == Keep::Trace;
    receiver_mut(eng, rx).uplink = up;
    // Handoffs draw from agent 2's stream, where a channel process agent
    // (after the sender and receiver) drew them when the digests were pinned.
    let channel = add_impairments(eng, (seed, 2), mobility, cfg, [down, up], true);
    // Slicing moves no event: the engine pops by time alone and its clock
    // moves only to the events it fires.
    let mut until = SimTime::ZERO;
    loop {
        until = (until + SLICE).min(cfg.deadline);
        eng.try_run_until(until)?;
        if until == cfg.deadline || eng.stopped() || eng.is_idle() {
            break;
        }
        eng.drain_settled(&mut read);
    }
    read(eng.arena().iter());
    Ok(((tx, rx), channel))
}

/// Builds, runs and harvests a single TCP flow through a caller-held
/// [`ConnectionScratch`], returning its capture as a [`FlowTrace`]: the
/// drained rows go into the trace alone.
///
/// Its only caller outside this crate's tests is the benchmark's traced
/// flow (`benchmark/src/layers.rs::traced_flow`); it goes once that flow
/// runs the campaign body instead.
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
    let mut trace = FlowTrace::new(cfg.flow, cfg.meta());
    let read = |rows: Rows<'_>| trace.records.extend(flow_records(cfg.flow, rows));
    let eng = &mut scratch.engine;
    let (ends, channel) = simulate(eng, seed, path, mobility, cfg, Keep::Trace, read)?;
    Ok(harvest(eng, trace, ends, channel))
}

/// The same run as [`try_run_connection_with`], analysed as it goes: the
/// measurement pipeline ([`FlowFold`], in the scratch's columns) takes the
/// flow's packets straight from the engine's arena as they land — the
/// allocation-recycling path campaign workers use to run thousands of
/// flows per engine. Under [`Keep::Trace`] the same records also make the
/// [`FlowTrace`] the trace-returning run returns; under [`Keep::Summary`]
/// no trace is built and the sender keeps no window log. The analysis
/// equals `analyze_flow(&outcome.trace, timeouts)` of the trace-returning
/// run.
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
    let ConnectionScratch {
        engine: eng,
        columns,
    } = scratch;
    let mut fold = FlowFold::new(timeouts, columns);
    let mut trace = (keep == Keep::Trace).then(|| FlowTrace::new(cfg.flow, cfg.meta()));
    let read = |rows: Rows<'_>| {
        fold.extend(flow_records(cfg.flow, rows).inspect(|&record| {
            if let Some(trace) = &mut trace {
                trace.records.push(record);
            }
        }));
    };
    let (ends, channel) = simulate(eng, seed, path, mobility, cfg, keep, read)?;
    let analysis = fold.finish(cfg.flow, &cfg.meta());
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
    use hsm_simnet::cellular::{CellLayout, HandoffParams};
    use hsm_simnet::loss::GilbertElliott;
    use hsm_simnet::mobility::Trajectory;
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
            down_loss: LossModel::GilbertElliott(GilbertElliott::new(0.002, 0.7, 0.003, 0.08)),
            up_loss: LossModel::Bernoulli(0.004),
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
            down_loss: LossModel::Bernoulli(0.01),
            up_loss: LossModel::Bernoulli(0.004),
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
            down_loss: LossModel::Bernoulli(1.0),
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
            // The dirt is real: stamped rows in the chunks the dead run
            // reuses (and, after the poison, unstamped ones in flight).
            let stamped: Vec<bool> = scratch
                .engine
                .arena()
                .iter()
                .map(|(_, at)| at.is_some())
                .collect();
            assert!(
                stamped.iter().any(|&s| s),
                "no delivered packet left behind"
            );
            assert!(!poisoned || (stamped[0] && !stamped[stamped.len() - 1]));

            let out = try_run_connection_with(&mut scratch, 5, &dead_path, None, &cfg)
                .expect("dead-path run");
            assert!(out.trace.records.iter().all(|r| r.arrived_at.is_none()));
            assert_eq!(out.trace, fresh.trace);
        }
    }

    #[test]
    fn a_short_flow_after_a_long_one_reads_none_of_its_rows() {
        let cfg = |secs| ConnectionConfig {
            sender: SenderConfig {
                stop_after: Some(SimDuration::from_secs(secs)),
                ..Default::default()
            },
            ..Default::default()
        };
        let path = PathSpec {
            down_loss: LossModel::Bernoulli(0.01),
            ..Default::default()
        };
        let mut scratch = ConnectionScratch::new();
        let long = try_run_connection_with(&mut scratch, 4, &path, None, &cfg(30))
            .expect("long run")
            .trace;
        let chunks = scratch.engine.arena().capacity();
        let short = try_run_connection_with(&mut scratch, 5, &path, None, &cfg(1))
            .expect("short run")
            .trace;
        // The long run cycled its rows through arena chunks the short one
        // reuses: every row the short run did not write is a stale one of
        // the long.
        let rows = scratch.engine.arena().len();
        assert!(long.records.len() > 3 * 1024 && long.records.len() > 4 * rows);
        assert_eq!(scratch.engine.arena().capacity(), chunks);
        assert_eq!(short.records.len(), rows);
        assert!(short.records.iter().all(|r| r.id < rows as u64));
        assert_eq!(short, run_connection(5, &path, None, &cfg(1)).trace);
    }

    /// Only a run that keeps a trace keeps the sender's window log; every
    /// other sender metric is the same either way.
    #[test]
    fn the_window_log_is_kept_only_with_a_trace() {
        let cfg = ConnectionConfig {
            sender: SenderConfig {
                stop_after: Some(SimDuration::from_secs(10)),
                ..Default::default()
            },
            ..Default::default()
        };
        let path = PathSpec {
            down_loss: LossModel::Bernoulli(0.01),
            ..Default::default()
        };
        let traced = run_connection(4, &path, None, &cfg);
        assert!(!traced.sender.cwnd_log.is_empty());
        let mut scratch = ConnectionScratch::new();
        let mut analyze = |keep| {
            try_analyze_connection_with(
                &mut scratch,
                4,
                &path,
                None,
                &cfg,
                &TimeoutConfig::default(),
                keep,
            )
            .expect("flow runs")
            .sender
        };
        assert_eq!(analyze(Keep::Trace), traced.sender);
        let summary = analyze(Keep::Summary);
        assert!(summary.cwnd_log.is_empty());
        let unlogged = SenderMetrics {
            cwnd_log: Vec::new(),
            ..traced.sender
        };
        assert_eq!(summary, unlogged);
    }

    /// A 600-s flow on the train holds its packets in flight, not its
    /// run: the arena never holds more than [`MAX_ROWS_HELD`] rows at once
    /// (its capacity bounds every count it held), and it ends no larger
    /// than a 60-s flow left it.
    #[test]
    fn a_flow_holds_its_rows_in_flight_however_long_it_runs() {
        /// Four 1,024-row chunks; both flows need two (158,664 rows in
        /// the 600-s one).
        const MAX_ROWS_HELD: usize = 4 * 1024;
        let mob = MobilityScenario {
            trajectory: Trajectory::new(60.0, 300.0, 2.0),
            layout: CellLayout::rail_corridor(1_000.0, 0.02),
            handoff: HandoffParams::lte_rail(),
        };
        let path = PathSpec {
            down_loss: LossModel::Bernoulli(0.002),
            ..Default::default()
        };
        let mut scratch = ConnectionScratch::new();
        let mut run = |secs| {
            let cfg = ConnectionConfig {
                sender: SenderConfig {
                    stop_after: Some(SimDuration::from_secs(secs)),
                    ..Default::default()
                },
                scenario: "high-speed".into(),
                ..Default::default()
            };
            let timeouts = TimeoutConfig::default();
            let keep = Keep::Summary;
            let out = try_analyze_connection_with(
                &mut scratch,
                8,
                &path,
                Some(&mob),
                &cfg,
                &timeouts,
                keep,
            )
            .expect("flow runs");
            let arena = scratch.engine.arena();
            (arena.len(), arena.capacity(), out.summary().timeouts)
        };
        let (_, after_minute, _) = run(60);
        let (rows, after_ten, timeouts) = run(600);
        assert!(timeouts > 0, "the train never cut the flow off");
        assert!(
            rows > 20 * MAX_ROWS_HELD,
            "only {rows} rows: nothing to bound"
        );
        assert!(after_ten <= MAX_ROWS_HELD, "held {after_ten} rows at once");
        assert!(
            after_ten <= after_minute,
            "{after_ten} rows vs {after_minute}"
        );
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
        // which writes nothing onto the uplink — the world every pinned
        // digest of a storm-free flow was computed in.
        assert!(cfg.storm.episodes.is_empty());
        let calm = run(&cfg).expect("calm run");
        assert!(
            stormy.sender.timeouts.len() > calm.sender.timeouts.len(),
            "storm {} vs calm {} timeouts",
            stormy.sender.timeouts.len(),
            calm.sender.timeouts.len()
        );
    }
}
