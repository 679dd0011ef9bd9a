//! Reading a simulator run as packet records.
//!
//! The engine's [`PacketArena`] is the capture: every packet's send-side
//! facts and delivery time, one row each, as endpoint captures at both
//! ends of a link would show it. [`flow_records`] reads rows as the
//! [`PacketRecord`]s of one flow, in send order, without storing them:
//! a single-flow run reads the rows that have landed
//! ([`Engine::drain_settled`](hsm_simnet::engine::Engine::drain_settled))
//! while it runs and the rest ([`PacketArena::iter`]) at its end, and the
//! analysis ([`FlowFold`](crate::summary::FlowFold)) takes each record as
//! it comes, so a campaign flow never holds a copy of its capture, nor its
//! landed rows. [`trace_from_arena`] collects the rows of a finished run
//! nobody drained into a [`FlowTrace`]. A multi-hop world filters the rows
//! before reading them: the shared-radio MPTCP rig skips the copies its
//! demux forwards.

use crate::record::{FlowMeta, FlowTrace, PacketRecord};
use hsm_simnet::arena::PacketArena;
use hsm_simnet::packet::{Packet, PacketKind};
use hsm_simnet::time::SimTime;

/// The capture record of `packet`.
fn record_of(packet: &Packet, arrived_at: Option<SimTime>) -> PacketRecord {
    let (seq, is_ack, retransmit, acked_count) = match packet.kind {
        PacketKind::Data { seq, retransmit } => (seq.as_u64(), false, retransmit, 0),
        PacketKind::Ack { cum, acked_count } => (cum.as_u64(), true, false, acked_count),
    };
    PacketRecord {
        id: packet.id.0,
        seq,
        is_ack,
        retransmit,
        acked_count,
        size_bytes: packet.size_bytes,
        sent_at: packet.sent_at,
        arrived_at,
    }
}

/// The records of `flow` among `rows` — a packet arena's, from
/// [`PacketArena::iter`] or [`PacketArena::drain_settled`] — in the order
/// the rows come, without storing them.
///
/// A row holds every fact a [`PacketRecord`] needs — the engine wrote the
/// send side when the packet was stamped and the delivery time when it was
/// handed over. Rows come in send order by construction: the engine mints
/// ids as packets are sent, under a clock that never runs backwards, so
/// the rows of `flow` are already sorted by `(sent_at, id)`
/// ([`FlowTrace::sort_by_send_time`]'s order) and nothing is sorted or
/// stored here. A row without a delivery time was dropped (by the channel
/// or a full queue) or, read after the run stopped, still in flight — all
/// read as `arrived_at: None`, as a finite capture is analyzed.
pub fn flow_records(
    flow: u32,
    rows: impl Iterator<Item = (Packet, Option<SimTime>)>,
) -> impl Iterator<Item = PacketRecord> {
    rows.filter(move |(packet, _)| packet.flow.0 == flow)
        .map(|(packet, arrived_at)| record_of(&packet, arrived_at))
}

/// Builds a single-flow trace from the rows of a finished run's packet
/// arena that nobody drained: the [`flow_records`] of `flow`, collected.
/// The send order is asserted in debug builds. A flow the arena holds no
/// packets for folds to an empty trace.
pub fn trace_from_arena(arena: &PacketArena, flow: u32, meta: FlowMeta) -> FlowTrace {
    let mut trace = FlowTrace::new(flow, meta);
    // The flow's own count, not the arena's: the duplex and backup-path
    // rigs keep two flows in one arena.
    let records = flow_records(flow, arena.iter()).count();
    trace.records.reserve_exact(records);
    trace.records.extend(flow_records(flow, arena.iter()));
    debug_assert!(
        trace.records.is_sorted_by_key(|r| (r.sent_at, r.id)),
        "arena rows of flow {flow} are not in send order",
    );
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Label;
    use hsm_simnet::loss::LossModel;
    use hsm_simnet::prelude::*;
    use std::collections::HashMap;

    /// A sink that logs each arrival: the receiving end of the reference.
    #[derive(Default)]
    struct Log {
        arrivals: HashMap<u64, SimTime>,
    }
    impl Agent for Log {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
            self.arrivals.insert(packet.id.0, ctx.now());
        }
    }

    /// The capture kept beside the engine through the public agent API
    /// only: each packet as it was injected, stamped with the id
    /// [`Engine::inject`] returned and the time, the ids a full queue
    /// refused (the link's `overflow_drops` rising across the call), and
    /// the [`Log`] sink's arrivals.
    #[derive(Default)]
    struct Reference {
        sent: Vec<Packet>,
        refused: Vec<u64>,
    }

    impl Reference {
        fn inject(&mut self, eng: &mut Engine, link: LinkId, mut packet: Packet) {
            let refused = eng.link(link).overflow_drops;
            packet.id = eng.inject(link, packet.clone());
            packet.sent_at = eng.now();
            if eng.link(link).overflow_drops > refused {
                self.refused.push(packet.id.0);
            }
            self.sent.push(packet);
        }

        /// The records of `flow`, in injection order.
        fn records(&self, flow: u32, arrivals: &HashMap<u64, SimTime>) -> Vec<PacketRecord> {
            let sent = self.sent.iter().filter(|p| p.flow.0 == flow);
            sent.map(|p| record_of(p, arrivals.get(&p.id.0).copied()))
                .collect()
        }
    }

    fn arrivals(eng: &mut Engine, sink: AgentId) -> HashMap<u64, SimTime> {
        eng.agent_mut::<Log>(sink)
            .expect("log sink")
            .arrivals
            .clone()
    }

    /// A two-flow run whose packets meet every fate — delivered, destroyed
    /// by the channel, refused by a full queue, still queued or in flight
    /// when the run stops — captured in the engine's arena (arrivals
    /// stamped by the `Deliver` arm, drops marked at the two drop sites)
    /// and in a [`Reference`]. `between` is handed the engine after each of
    /// its five runs.
    fn mixed_fate_run(mut between: impl FnMut(&mut Engine)) -> (Engine, AgentId, Reference) {
        let mut eng = Engine::new(1);
        let sink = eng.add_agent(Box::new(Log::default()));
        let link = eng.add_link(
            LinkSpec::new(sink, "dl")
                .bandwidth_bps(1_200_000) // 10 ms per data packet
                .prop_delay(SimDuration::from_millis(20))
                .jitter_sd(SimDuration::from_millis(2))
                .queue_capacity(4)
                .loss(LossModel::Bernoulli(0.3)),
        );
        let mut reference = Reference::default();
        for round in 0..4u64 {
            eng.run_until(SimTime::from_millis(45 * round));
            between(&mut eng);
            for i in 0..7 {
                let seq = SeqNo(round * 7 + i);
                reference.inject(&mut eng, link, Packet::data(FlowId(5), seq, i == 6));
                if i % 2 == 0 {
                    let ack = Packet::ack(FlowId(9), seq, 2).with_tag(i);
                    reference.inject(&mut eng, link, ack);
                }
            }
        }
        // Stop with the last burst half drained: packets in the queue, on
        // the wire and propagating.
        eng.run_until(SimTime::from_millis(45 * 3 + 27));
        between(&mut eng);
        (eng, sink, reference)
    }

    #[test]
    fn arena_fold_matches_the_reference_bit_for_bit() {
        let (mut eng, sink, reference) = mixed_fate_run(|_| {});
        let arrivals = arrivals(&mut eng, sink);
        let link = eng.link(LinkId::from_raw(0));
        assert!(arrivals.len() >= 2, "too few packets delivered");
        assert!(link.channel_drops >= 2, "too few channel drops");
        assert!(reference.refused.len() >= 2, "too few overflow drops");
        assert_eq!(reference.refused.len() as u64, link.overflow_drops);
        assert!(link.queue_len() > 0, "nothing left queued");
        assert!(link.deliver_pending > 0, "nothing left in flight");
        for flow in [5u32, 9] {
            let meta = FlowMeta {
                provider: Label::intern(&format!("p{flow}")).unwrap(),
                ..Default::default()
            };
            let from_arena = trace_from_arena(eng.arena(), flow, meta);
            assert_eq!(from_arena.meta, meta);
            assert_eq!(from_arena.records, reference.records(flow, &arrivals));
        }
        let records = [5, 9].map(|f| reference.records(f, &arrivals).len());
        assert_eq!(records.iter().sum::<usize>(), eng.arena().len());
        let unknown = trace_from_arena(eng.arena(), 77, FlowMeta::default());
        assert!(unknown.records.is_empty());
    }

    /// The same world, its settled rows drained after every run and the
    /// rest read when it stops: the records equal the reference's bit for
    /// bit, and both drop sites settle their rows — the drains pass rows a
    /// full queue refused and rows the channel destroyed (undelivered, not
    /// refused), and the last stops only at a packet still on its way.
    #[test]
    fn rows_drained_as_they_land_match_the_reference_bit_for_bit() {
        let mut rows = Vec::new();
        let (mut eng, sink, reference) =
            mixed_fate_run(|eng| eng.drain_settled(|landed| rows.extend(landed)));
        let arrivals = arrivals(&mut eng, sink);
        let lost = rows.iter().filter(|(_, arrived)| arrived.is_none());
        let (refused, destroyed): (Vec<_>, Vec<_>) =
            lost.partition(|(p, _)| reference.refused.contains(&p.id.0));
        assert!(!refused.is_empty(), "no overflow drop was drained");
        assert!(!destroyed.is_empty(), "no channel drop was drained");
        let (first_left, _) = eng.arena().iter().next().expect("packets in flight");
        assert!(!arrivals.contains_key(&first_left.id.0));
        assert!(!reference.refused.contains(&first_left.id.0));

        rows.extend(eng.arena().iter());
        assert_eq!(rows.len(), eng.arena().len());
        for flow in [5u32, 9] {
            let records: Vec<PacketRecord> = flow_records(flow, rows.iter().cloned()).collect();
            assert_eq!(records, reference.records(flow, &arrivals), "flow {flow}");
        }
        // The first row left behind lands after the stop: it was on its way.
        let stopped = eng.now();
        eng.run_until_idle();
        let landed = eng.agent_mut::<Log>(sink).unwrap().arrivals[&first_left.id.0];
        assert!(landed > stopped);
    }

    #[test]
    fn interleaved_flows_read_from_one_arena_as_their_own_captures() {
        use crate::analysis::timeout::TimeoutConfig;
        use crate::summary::{analyze_flow, FlowFold, FoldColumns};

        // Two whole flows — data, retransmissions and ACKs each — taking
        // turns on one link that never idles (the clock moves with its
        // events): each burst opens with a retransmission, one round's
        // silence after the flow's last send.
        let mut eng = Engine::new(3);
        let sink = eng.add_agent(Box::new(Log::default()));
        let link = eng.add_link(
            LinkSpec::new(sink, "dl")
                .bandwidth_bps(1_200_000) // 10 ms per data packet
                .prop_delay(SimDuration::from_millis(20))
                .queue_capacity(8)
                .loss(LossModel::Bernoulli(0.2)),
        );
        let mut reference = Reference::default();
        for round in 0..4u64 {
            eng.run_until(SimTime::from_millis(45 * round));
            for flow in [FlowId(1), FlowId(2)] {
                if round > 0 {
                    let retx = Packet::data(flow, SeqNo(round * 2 - 1), true);
                    reference.inject(&mut eng, link, retx);
                }
                for i in 0..2 {
                    let data = Packet::data(flow, SeqNo(round * 2 + i), false);
                    reference.inject(&mut eng, link, data);
                }
                reference.inject(&mut eng, link, Packet::ack(flow, SeqNo(round * 2), 2));
            }
        }
        // Stop with the last burst half drained.
        eng.run_until(SimTime::from_millis(45 * 3 + 27));
        let arrivals = arrivals(&mut eng, sink);
        let dl = eng.link(link);
        assert!(dl.deliver_pending > 0 || dl.is_busy(), "nothing in flight");
        assert!(dl.channel_drops + dl.overflow_drops > 0, "nothing dropped");

        let cfg = TimeoutConfig {
            silence_threshold: SimDuration::from_millis(30),
        };
        for flow in [1u32, 2] {
            let meta = FlowMeta::default();
            let trace = trace_from_arena(eng.arena(), flow, meta);
            assert_eq!(trace.records, reference.records(flow, &arrivals));
            // Half the arena is the other flow's: none of it is reserved.
            assert_eq!(trace.records.len() * 2, eng.arena().len());
            assert_eq!(trace.records.capacity(), trace.records.len());

            // A record's index is its place in its flow, not its arena row.
            let stored = analyze_flow(&trace, &cfg);
            let mut columns = FoldColumns::default();
            let mut fold = FlowFold::new(&cfg, &mut columns);
            fold.extend(flow_records(flow, eng.arena().iter()));
            let read = fold.finish(flow, &trace.meta);
            assert_eq!(read.summary, stored.summary, "flow {flow}");
            assert_eq!(read.losses, stored.losses, "flow {flow}");
            assert_eq!(read.timeouts, stored.timeouts, "flow {flow}");
            assert_eq!(read.ack_bursts, stored.ack_bursts, "flow {flow}");
            assert_eq!(read.throughput, stored.throughput, "flow {flow}");
            let timeouts = read.timeouts.sequences.iter().flat_map(|s| &s.events);
            let retransmissions: Vec<usize> = timeouts.map(|e| e.retx_idx).collect();
            assert_eq!(retransmissions.len(), 3, "flow {flow}");
            for idx in retransmissions {
                assert!(trace.records[idx].retransmit, "flow {flow} record {idx}");
            }
        }
    }
}
