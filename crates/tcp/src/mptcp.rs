//! Multi-path TCP (paper §V-B).
//!
//! Three rigs, mirroring how the paper evaluates MPTCP — each the
//! single-flow rig's pieces ([`crate::connection`]) wired differently:
//!
//! * **Duplex mode** ([`run_mptcp_duplex`]) — the paper approximates MPTCP
//!   throughput by running *two independent TCP flows over disjoint paths
//!   and summing their throughput* ("the total throughput getting by these
//!   two flows can also be regarded as MPTCP throughput", §V-B). We do the
//!   same: two sender/receiver pairs in one engine, independent handoff
//!   schedules, aggregate throughput reported.
//!
//! * **Backup mode** ([`run_with_backup_path`]) — redundant timeout
//!   retransmission over a second path, which reduces the retransmission
//!   loss rate from `q` to about `q·q₂`: the `backup_link` of
//!   [`RenoSender`](crate::reno::RenoSender). A *path* mechanism (Fig. 12),
//!   distinct from `Recovery::RedundantRto`, which sends the second copy
//!   down the same path.
//!
//! * **Shared radio** ([`run_mptcp_shared_radio`]) — both subflows through
//!   one handset's radio, the one multi-hop world here: its capture is the
//!   packet arena without the copies the [`Demux`] agents forward.

use crate::connection::{
    add_impairments, add_path, add_receiver, add_sender, harvest, receiver_mut, sender_metrics,
    sender_mut, ConnectionConfig, ConnectionOutcome, MobilityScenario, PathSpec,
};
use crate::demux::{Demux, FORWARDED};
use crate::metrics::{ReceiverMetrics, SenderMetrics};
use hsm_simnet::agent::AgentId;
use hsm_simnet::cellular::ChannelStats;
use hsm_simnet::link::LinkSpec;
use hsm_simnet::prelude::Engine;
use hsm_simnet::time::SimDuration;
use hsm_trace::capture::{flow_records, trace_from_arena};
use hsm_trace::record::FlowTrace;

/// Outcome of a duplex-mode MPTCP run: one trace per subflow.
#[derive(Debug, Clone)]
pub struct MptcpOutcome {
    /// Per-subflow traces (flow ids `base_flow` and `base_flow + 1`).
    pub subflows: Vec<FlowTrace>,
    /// Per-subflow sender metrics.
    pub senders: Vec<SenderMetrics>,
    /// Per-subflow receiver metrics.
    pub receivers: Vec<ReceiverMetrics>,
    /// Per-path channel statistics when mobility was attached.
    pub channels: Vec<ChannelStats>,
    /// Discrete events the simulator processed for the whole world.
    pub events_processed: u64,
}

impl MptcpOutcome {
    /// Aggregate delivered segments per second across subflows, over the
    /// longest subflow duration (the paper's MPTCP throughput proxy).
    pub fn aggregate_throughput_sps(&self) -> f64 {
        let duration = self
            .subflows
            .iter()
            .map(|t| t.duration().as_secs_f64())
            .fold(0.0_f64, f64::max);
        if duration <= 0.0 {
            return 0.0;
        }
        let delivered: u64 = self
            .subflows
            .iter()
            .map(|t| t.data().filter(|r| r.arrived_at.is_some()).count() as u64)
            .sum();
        delivered as f64 / duration
    }

    /// Harvests a finished two-subflow world.
    fn harvest(
        eng: &mut Engine,
        subflows: Vec<FlowTrace>,
        endpoints: &[(AgentId, AgentId)],
        channels: impl IntoIterator<Item = ChannelStats>,
    ) -> MptcpOutcome {
        MptcpOutcome {
            subflows,
            senders: endpoints
                .iter()
                .map(|&(tx, _)| sender_metrics(eng, tx))
                .collect(),
            receivers: endpoints
                .iter()
                .map(|&(_, rx)| receiver_mut(eng, rx).metrics)
                .collect(),
            channels: channels.into_iter().collect(),
            events_processed: eng.events_processed(),
        }
    }
}

/// Runs two independent subflows over two disjoint paths and reports the
/// aggregate (duplex-mode MPTCP, evaluated as the paper does in Fig. 12).
///
/// Each subflow uses `cfg` with flow ids `cfg.flow` and `cfg.flow + 1`.
/// When `mobility` is provided, each path gets its *own* handoff schedule
/// (independent handoff randomness — disjoint carriers).
pub fn run_mptcp_duplex(
    seed: u64,
    paths: [&PathSpec; 2],
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
) -> MptcpOutcome {
    let mut eng = Engine::new(seed);
    let mut endpoints = Vec::new();
    let mut channels = Vec::new();
    // Path `i`'s handoffs draw from agent `i * stride + 2`'s stream, where a
    // channel process agent drew them when the digests were pinned: each
    // path registered its endpoints, that agent and, with a storm, an
    // injector.
    let stride = 3 + usize::from(!cfg.storm.episodes.is_empty());
    for (i, path) in paths.into_iter().enumerate() {
        let flow = cfg.flow + i as u32;
        let (tx, rx) = (
            add_sender(&mut eng, flow, cfg),
            add_receiver(&mut eng, flow, cfg),
        );
        let (down, up) = add_path(&mut eng, path, rx, tx, &format!(".sub{i}"));
        let sender = sender_mut(&mut eng, tx);
        sender.data_link = down;
        // One sender stopping must not truncate its sibling subflow.
        sender.halt_engine_on_stop = false;
        receiver_mut(&mut eng, rx).uplink = up;
        let channel = (seed, i * stride + 2);
        let stats = add_impairments(&mut eng, channel, mobility, cfg, [down, up], false);
        channels.extend(stats);
        endpoints.push((tx, rx));
    }
    eng.run_until(cfg.deadline);

    // Disjoint single-hop paths: each subflow's rows of the arena are its
    // capture, as in the single-flow rig.
    let subflows = (0..endpoints.len() as u32)
        .map(|i| trace_from_arena(eng.arena(), cfg.flow + i, cfg.meta()))
        .collect();
    MptcpOutcome::harvest(&mut eng, subflows, &endpoints, channels)
}

/// Runs a single flow whose timeout retransmissions are duplicated over a
/// second (backup) downlink — MPTCP backup mode's recovery behaviour.
///
/// Returns the flow trace (which includes the redundant copies) and the
/// endpoint metrics.
pub fn run_with_backup_path(
    seed: u64,
    primary: &PathSpec,
    backup: &PathSpec,
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
) -> ConnectionOutcome {
    let mut eng = Engine::new(seed);
    let tx = add_sender(&mut eng, cfg.flow, cfg);
    let rx = add_receiver(&mut eng, cfg.flow, cfg);
    let (down, up) = add_path(&mut eng, primary, rx, tx, ".primary");
    let (backup_down, backup_up) = add_path(&mut eng, backup, rx, tx, ".backup");
    let sender = sender_mut(&mut eng, tx);
    sender.data_link = down;
    sender.backup_link = Some(backup_down);
    let receiver = receiver_mut(&mut eng, rx);
    receiver.uplink = up;
    // Recovery-phase ACKs are mirrored over the backup carrier: the
    // redundant exchange must survive whenever *either* path works.
    receiver.backup_uplink = Some(backup_up);
    // Mobility (and any storm) impairs only the primary path; the backup is
    // assumed to be a different carrier, modelled by its own PathSpec
    // losses.
    // Handoffs draw from agent 2's stream, where a channel process agent
    // (after the sender and receiver) drew them when the digests were pinned.
    let channel = add_impairments(&mut eng, (seed, 2), mobility, cfg, [down, up], true);
    eng.run_until(cfg.deadline);
    let trace = trace_from_arena(eng.arena(), cfg.flow, cfg.meta());
    harvest(&mut eng, trace, (tx, rx), channel)
}

/// Runs two subflows through **one shared radio** (the single-handset
/// reality of the paper's measurements): both senders transmit over the
/// same downlink and both receivers acknowledge over the same uplink, with
/// [`Demux`] agents fanning packets out to their flow's endpoint over
/// zero-delay `internal.*` links. The traces read the radio's rows: the
/// copies a demux forwards carry [`FORWARDED`] and are skipped.
///
/// Against a disjoint-path duplex run, this isolates how much of the
/// MPTCP gain comes from *extra capacity* versus from *filling the dead
/// time* a single flow spends in timeout recovery.
pub fn run_mptcp_shared_radio(
    seed: u64,
    path: &PathSpec,
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
) -> MptcpOutcome {
    let mut eng = Engine::new(seed);
    let flows = [cfg.flow, cfg.flow + 1];
    let txs = flows.map(|f| add_sender(&mut eng, f, cfg));
    let rxs = flows.map(|f| add_receiver(&mut eng, f, cfg));
    let demux_down = eng.add_agent(Box::new(Demux::new()));
    let demux_up = eng.add_agent(Box::new(Demux::new()));
    let (down, up) = add_path(&mut eng, path, demux_down, demux_up, "");
    let mut fan_out = |demux, to, flow, label: String| {
        let link = eng.add_link(
            LinkSpec::new(to, label)
                .bandwidth_bps(u64::MAX / 1024)
                .prop_delay(SimDuration::from_micros(1))
                .queue_capacity(4_096),
        );
        let demux: &mut Demux = eng.agent_mut(demux).expect("demux");
        demux.add_route(flow, link);
    };
    for (i, &flow) in flows.iter().enumerate() {
        fan_out(demux_down, rxs[i], flow, format!("internal.rx{i}"));
        fan_out(demux_up, txs[i], flow, format!("internal.tx{i}"));
    }
    for (&tx, &rx) in txs.iter().zip(&rxs) {
        let sender = sender_mut(&mut eng, tx);
        sender.data_link = down;
        sender.halt_engine_on_stop = false;
        receiver_mut(&mut eng, rx).uplink = up;
    }
    // Handoffs draw from agent 6's stream, where a channel process agent
    // (after the endpoints and demuxes) drew them when the digests were pinned.
    let channel = add_impairments(&mut eng, (seed, 6), mobility, cfg, [down, up], false);
    eng.run_until(cfg.deadline);

    let subflows = flows
        .iter()
        .map(|&f| {
            let radio = eng.arena().iter().filter(|(p, _)| p.tag != FORWARDED);
            let mut trace = FlowTrace::new(f, cfg.meta());
            trace.records.extend(flow_records(f, radio));
            trace
        })
        .collect();
    let endpoints: Vec<_> = txs.into_iter().zip(rxs).collect();
    MptcpOutcome::harvest(&mut eng, subflows, &endpoints, channel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::run_connection;
    use crate::reno::SenderConfig;
    use hsm_simnet::loss::{GilbertElliott, LossModel};
    use hsm_simnet::time::SimTime;

    fn lossy_path() -> PathSpec {
        PathSpec {
            down_loss: LossModel::GilbertElliott(GilbertElliott::new(0.003, 0.8, 0.004, 0.05)),
            up_loss: LossModel::GilbertElliott(GilbertElliott::new(0.003, 0.8, 0.004, 0.05)),
            ..Default::default()
        }
    }

    fn timed_cfg(secs: u64) -> ConnectionConfig {
        ConnectionConfig {
            sender: SenderConfig {
                stop_after: Some(SimDuration::from_secs(secs)),
                ..Default::default()
            },
            deadline: SimTime::from_secs(secs),
            ..Default::default()
        }
    }

    #[test]
    fn duplex_runs_two_subflows() {
        let cfg = timed_cfg(30);
        let p1 = lossy_path();
        let p2 = PathSpec::default();
        let out = run_mptcp_duplex(5, [&p1, &p2], None, &cfg);
        assert_eq!(out.subflows.len(), 2);
        assert_eq!(out.senders.len(), 2);
        assert!(out.aggregate_throughput_sps() > 0.0);
        // Subflow flow ids are consecutive.
        assert_eq!(out.subflows[0].flow, 0);
        assert_eq!(out.subflows[1].flow, 1);
    }

    #[test]
    fn duplex_beats_single_flow_on_bad_paths() {
        let cfg = timed_cfg(60);
        let p = lossy_path();
        let single = run_connection(9, &p, None, &cfg);
        let single_tp = {
            let a = hsm_trace::summary::analyze_flow(&single.trace, &Default::default());
            a.summary.throughput_sps
        };
        let duplex = run_mptcp_duplex(9, [&p, &p], None, &cfg);
        let agg = duplex.aggregate_throughput_sps();
        assert!(
            agg > single_tp,
            "MPTCP aggregate {agg} should beat single-flow {single_tp}"
        );
    }

    #[test]
    fn shared_radio_runs_both_subflows_through_one_pipe() {
        let cfg = timed_cfg(30);
        let path = PathSpec::default();
        let out = run_mptcp_shared_radio(3, &path, None, &cfg);
        assert_eq!(out.subflows.len(), 2);
        for (i, t) in out.subflows.iter().enumerate() {
            assert!(
                t.data().count() > 50,
                "subflow {i} starved: {} data records",
                t.data().count()
            );
            // No internal-hop pollution: every record crossed the shared
            // radio (latency >= the configured propagation delay).
            for r in t.records.iter().take(200) {
                if let Some(lat) = r.latency() {
                    assert!(
                        lat >= SimDuration::from_millis(20),
                        "internal hop leaked: {r:?}"
                    );
                }
            }
        }
        // Two flows share one pipe: aggregate within the link capacity
        // (~40 Mb/s / 1500 B ≈ 3300 seg/s).
        assert!(out.aggregate_throughput_sps() < 3_500.0);
    }

    #[test]
    fn shared_radio_aggregate_close_to_single_flow_when_pipe_bound() {
        // When the radio (not W_m) is the bottleneck, two flows split the
        // same capacity: the aggregate cannot approach 2x a single flow.
        let cfg = timed_cfg(30);
        let path = PathSpec {
            down_bandwidth_bps: 6_000_000, // ~500 seg/s, well under W_m/RTT
            ..Default::default()
        };
        let single = run_connection(4, &path, None, &cfg);
        let single_tp = hsm_trace::summary::analyze_flow(&single.trace, &Default::default())
            .summary
            .throughput_sps;
        let shared = run_mptcp_shared_radio(4, &path, None, &cfg);
        let agg = shared.aggregate_throughput_sps();
        assert!(
            agg < single_tp * 1.5,
            "shared radio cannot double capacity: {agg} vs single {single_tp}"
        );
        assert!(
            agg > single_tp * 0.7,
            "sharing should not collapse: {agg} vs {single_tp}"
        );
    }

    #[test]
    fn backup_path_reduces_recovery_losses() {
        // Primary path with brutal bursty loss; clean backup. With
        // redundant retransmission the flow should deliver more unique
        // segments than without.
        let cfg = timed_cfg(60);
        let bad = lossy_path();
        let clean = PathSpec::default();
        let without = run_connection(11, &bad, None, &cfg);
        let with = run_with_backup_path(11, &bad, &clean, None, &cfg);
        assert!(
            with.receiver.next_expected >= without.receiver.next_expected,
            "backup {} vs plain {}",
            with.receiver.next_expected,
            without.receiver.next_expected
        );
        // The redundant copies show up as extra sends in the trace.
        assert!(with.sender.segments_sent > with.sender.max_seq_sent);
    }
}
