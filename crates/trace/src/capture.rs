//! Reading a simulator run as packet records.
//!
//! The engine's [`PacketArena`] is the capture: every packet's send-side
//! facts and delivery time, one row each. [`flow_records`] reads rows as
//! the [`PacketRecord`]s of one flow, in send order, without storing them:
//! a single-flow run reads the rows that have landed
//! ([`Engine::drain_settled`](hsm_simnet::engine::Engine::drain_settled))
//! while it runs and the rest ([`PacketArena::iter`]) at its end, and the
//! analysis ([`FlowFold`](crate::summary::FlowFold)) takes each record as
//! it comes, so a campaign flow never holds a copy of its capture, nor its
//! landed rows. [`trace_from_arena`] collects the rows of a finished run
//! nobody drained into a [`FlowTrace`]. Neither needs a recorder. The
//! event folds ([`traces_from_events_filtered`] and
//! [`single_flow_trace`]) match each packet's
//! `Sent` event with its terminal `Delivered`/`Dropped` event from a
//! [`VecRecorder`](hsm_simnet::observer::VecRecorder) stream — the
//! equivalent of endpoint packet captures, needed for multi-hop wirings,
//! and the reference the arena fold is tested against.

use crate::record::{FlowMeta, FlowTrace, PacketRecord};
use hsm_simnet::arena::PacketArena;
use hsm_simnet::observer::{PacketEvent, PacketEventKind};
use hsm_simnet::packet::{Packet, PacketKind};
use hsm_simnet::time::SimTime;
use std::collections::HashMap;

/// The capture record of `packet`, sent at `sent_at`.
fn record_of(packet: &Packet, sent_at: SimTime, arrived_at: Option<SimTime>) -> PacketRecord {
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
        sent_at,
        arrived_at,
    }
}

/// Folds a raw event stream into one trace per flow, ignoring
/// transmissions on links whose label starts with `ignore_prefix`.
///
/// `meta_for` supplies the [`FlowMeta`] for each flow id encountered.
/// Packets with a `Sent` event but no terminal event by the end of the
/// stream (still in flight when the simulation stopped) are treated as
/// lost, which matches how a finite capture is analyzed.
///
/// Multi-hop wirings (e.g. the shared-radio MPTCP demux) use auxiliary
/// zero-delay links labelled `internal.*`; their per-hop copies must not
/// appear as extra packet records.
pub fn traces_from_events_filtered(
    events: &[PacketEvent],
    mut meta_for: impl FnMut(u32) -> FlowMeta,
    ignore_prefix: Option<&str>,
) -> Vec<FlowTrace> {
    // Engine-stamped packet ids are dense (a per-run counter), so the
    // pending-record table is a slab indexed by packet id rather than a
    // hash map — the fold does zero hashing per event in the single-flow
    // case. Each slab entry packs (flow slot << 32 | record index);
    // `OPEN_NONE` marks empty.
    const OPEN_NONE: u64 = u64::MAX;
    let mut flows: Vec<FlowTrace> = Vec::new();
    let mut flow_slots: HashMap<u32, usize> = HashMap::new();
    // One-entry cache: event streams are usually a single flow.
    let mut last_slot: Option<(u32, usize)> = None;
    let mut open: Vec<u64> = Vec::new();

    for ev in events {
        let flow_id = ev.packet.flow.0;
        let pkt_id = ev.packet.id.0 as usize;
        match ev.kind {
            PacketEventKind::Sent => {
                if ignore_prefix.is_some_and(|p| ev.link_label.starts_with(p)) {
                    continue;
                }
                let slot = match last_slot {
                    Some((f, s)) if f == flow_id => s,
                    _ => {
                        let s = *flow_slots.entry(flow_id).or_insert_with(|| {
                            flows.push(FlowTrace::new(flow_id, meta_for(flow_id)));
                            flows.len() - 1
                        });
                        last_slot = Some((flow_id, s));
                        s
                    }
                };
                let trace = &mut flows[slot];
                trace.records.push(record_of(&ev.packet, ev.time, None));
                if open.len() <= pkt_id {
                    open.resize(pkt_id + 1, OPEN_NONE);
                }
                open[pkt_id] = (slot as u64) << 32 | (trace.records.len() - 1) as u64;
            }
            PacketEventKind::Delivered => {
                if let Some(entry) = open.get_mut(pkt_id) {
                    let packed = std::mem::replace(entry, OPEN_NONE);
                    if packed != OPEN_NONE {
                        let (slot, idx) = ((packed >> 32) as usize, packed as u32 as usize);
                        flows[slot].records[idx].arrived_at = Some(ev.time);
                    }
                }
            }
            PacketEventKind::Dropped(_) => {
                // Terminal: the record stays `arrived_at: None`.
                if let Some(entry) = open.get_mut(pkt_id) {
                    *entry = OPEN_NONE;
                }
            }
        }
    }

    flows.sort_by_key(|t| t.flow);
    for t in &mut flows {
        t.sort_by_send_time();
    }
    flows
}

/// The records of `flow` among `rows` — a packet arena's, from
/// [`PacketArena::iter`] or [`PacketArena::drain_settled`] — in the order
/// the rows come, without storing them.
///
/// A row holds every fact a [`PacketRecord`] needs — the engine wrote the
/// send side when the packet was stamped and the delivery time when it was
/// handed over. Rows come in send order by construction: the engine mints
/// ids as packets are sent, under a clock that never runs backwards, so
/// the rows of `flow` are already sorted by `(sent_at, id)` — the order
/// the event fold sorts its records into — and nothing is sorted or stored
/// here. A row without a delivery time was dropped (by the channel or a
/// full queue) or, read after the run stopped, still in flight — all read
/// as `arrived_at: None`, exactly as [`traces_from_events_filtered`] treats them.
pub fn flow_records(
    flow: u32,
    rows: impl Iterator<Item = (Packet, Option<SimTime>)>,
) -> impl Iterator<Item = PacketRecord> {
    rows.filter(move |(packet, _)| packet.flow.0 == flow)
        .map(|(packet, arrived_at)| record_of(&packet, packet.sent_at, arrived_at))
}

/// Builds a single-flow trace from the rows of a finished run's packet
/// arena that nobody drained: the [`flow_records`] of `flow`, collected.
///
/// Produces bit-identical traces to running [`single_flow_trace`] over a
/// full [`VecRecorder`](hsm_simnet::observer::VecRecorder) stream of the
/// same run, with nothing recorded during it (the send order is asserted
/// in debug builds).
///
/// A flow the arena holds no packets for folds to an empty trace (where
/// [`single_flow_trace`] has no trace to return).
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

/// Convenience wrapper for the single-flow case.
///
/// Returns `None` if the event stream contains no packets for `flow`.
pub fn single_flow_trace(events: &[PacketEvent], flow: u32, meta: FlowMeta) -> Option<FlowTrace> {
    traces_from_events_filtered(events, |_| meta, None)
        .into_iter()
        .find(|t| t.flow == flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Label;
    use hsm_simnet::loss::LossModel;
    use hsm_simnet::observer::DropCause;
    use hsm_simnet::prelude::*;

    fn ev(kind: PacketEventKind, time_ms: u64, id: u64, flow: u32, pkt: Packet) -> PacketEvent {
        let mut p = pkt;
        p.id = PacketId(id);
        p.flow = FlowId(flow);
        p.sent_at = SimTime::from_millis(time_ms);
        PacketEvent {
            time: SimTime::from_millis(time_ms),
            link: 0,
            link_label: "dl".into(),
            kind,
            packet: p,
        }
    }

    #[test]
    fn matches_sent_with_delivered_and_dropped() {
        let data = Packet::data(FlowId(0), SeqNo(0), false);
        let ack = Packet::ack(FlowId(0), SeqNo(1), 1);
        let events = vec![
            ev(PacketEventKind::Sent, 0, 1, 0, data.clone()),
            ev(PacketEventKind::Delivered, 30, 1, 0, data.clone()),
            ev(PacketEventKind::Sent, 35, 2, 0, ack.clone()),
            ev(PacketEventKind::Dropped(DropCause::Channel), 36, 2, 0, ack),
            ev(
                PacketEventKind::Sent,
                40,
                3,
                0,
                Packet::data(FlowId(0), SeqNo(1), true),
            ),
        ];
        let traces = traces_from_events_filtered(&events, |_| FlowMeta::default(), None);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.records.len(), 3);
        assert_eq!(t.records[0].arrived_at, Some(SimTime::from_millis(30)));
        assert!(t.records[1].is_ack && t.records[1].lost());
        assert!(t.records[2].retransmit);
        assert!(
            t.records[2].lost(),
            "in-flight at end of capture counts as lost"
        );
    }

    #[test]
    fn filtered_capture_ignores_internal_hops() {
        let data = Packet::data(FlowId(0), SeqNo(0), false);
        let mut internal = ev(PacketEventKind::Sent, 31, 2, 0, data.clone());
        internal.link_label = "internal.0".into();
        let mut internal_done = ev(PacketEventKind::Delivered, 32, 2, 0, data.clone());
        internal_done.link_label = "?".into();
        let events = vec![
            ev(PacketEventKind::Sent, 0, 1, 0, data.clone()),
            ev(PacketEventKind::Delivered, 30, 1, 0, data.clone()),
            internal,
            internal_done,
        ];
        let traces =
            traces_from_events_filtered(&events, |_| FlowMeta::default(), Some("internal"));
        assert_eq!(
            traces[0].records.len(),
            1,
            "internal hop must not duplicate records"
        );
        // Without the filter the internal copy shows up.
        let unfiltered = traces_from_events_filtered(&events, |_| FlowMeta::default(), None);
        assert_eq!(unfiltered[0].records.len(), 2);
    }

    /// A two-flow run whose packets meet every fate — delivered, destroyed
    /// by the channel, refused by a full queue, still queued or in flight
    /// when the run stops — captured twice by the same engine: in its
    /// arena (arrivals stamped by the `Deliver` arm, drops marked at the
    /// two drop sites) and as the full `VecRecorder` event stream.
    /// `between` is handed the engine after each of its five runs.
    fn mixed_fate_run(mut between: impl FnMut(&mut Engine)) -> (Engine, Vec<PacketEvent>) {
        let mut eng = Engine::new(1);
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let link = eng.add_link(
            LinkSpec::new(sink, "dl")
                .bandwidth_bps(1_200_000) // 10 ms per data packet
                .prop_delay(SimDuration::from_millis(20))
                .jitter_sd(SimDuration::from_millis(2))
                .queue_capacity(4)
                .loss(LossModel::Bernoulli(0.3)),
        );
        let rec = VecRecorder::new();
        eng.add_recorder(rec.clone());
        for round in 0..4u64 {
            eng.run_until(SimTime::from_millis(45 * round));
            between(&mut eng);
            for i in 0..7 {
                let seq = SeqNo(round * 7 + i);
                eng.inject(link, Packet::data(FlowId(5), seq, i == 6));
                if i % 2 == 0 {
                    eng.inject(link, Packet::ack(FlowId(9), seq, 2).with_tag(i));
                }
            }
        }
        // Stop with the last burst half drained: packets in the queue, on
        // the wire and propagating.
        eng.run_until(SimTime::from_millis(45 * 3 + 27));
        between(&mut eng);
        (eng, rec.take_events())
    }

    #[test]
    fn arena_fold_matches_event_fold_bit_for_bit() {
        let (eng, events) = mixed_fate_run(|_| {});
        for flow in [5u32, 9] {
            let meta = FlowMeta {
                provider: Label::intern(&format!("p{flow}")).unwrap(),
                ..Default::default()
            };
            let from_arena = trace_from_arena(eng.arena(), flow, meta);
            let from_events = single_flow_trace(&events, flow, meta);
            assert_eq!(Some(from_arena), from_events, "flow {flow}");
        }
        let unknown = trace_from_arena(eng.arena(), 77, FlowMeta::default());
        assert!(unknown.records.is_empty());
        assert!(single_flow_trace(&events, 77, FlowMeta::default()).is_none());
    }

    /// The same world, its settled rows drained after every run and the
    /// rest read when it stops: the records equal the event fold's bit for
    /// bit, and both drop sites settle their rows — the last drain stops
    /// only at a packet still on its way.
    #[test]
    fn rows_drained_as_they_land_match_the_event_fold_bit_for_bit() {
        let mut rows = Vec::new();
        let (eng, events) = mixed_fate_run(|eng| eng.drain_settled(|landed| rows.extend(landed)));
        let landed = |id: u64| {
            let terminal = events.iter().filter(|e| e.kind != PacketEventKind::Sent);
            terminal.map(|e| e.packet.id.0).any(|landed| landed == id)
        };
        let (first_left, _) = eng.arena().iter().next().expect("packets in flight");
        assert!(!landed(first_left.id.0), "a landed row was left behind");
        for cause in [DropCause::Channel, DropCause::QueueOverflow] {
            let dropped = events
                .iter()
                .filter(|e| e.kind == PacketEventKind::Dropped(cause));
            let drained = |e: &PacketEvent| rows.iter().any(|(p, _)| p.id == e.packet.id);
            assert!(
                dropped.clone().any(drained),
                "no {cause:?} drop was drained"
            );
        }
        rows.extend(eng.arena().iter());
        assert_eq!(rows.len(), eng.arena().len());
        for flow in [5u32, 9] {
            let records: Vec<PacketRecord> = flow_records(flow, rows.iter().cloned()).collect();
            let from_events = single_flow_trace(&events, flow, FlowMeta::default());
            assert_eq!(Some(records), from_events.map(|t| t.records), "flow {flow}");
        }
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
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let link = eng.add_link(
            LinkSpec::new(sink, "dl")
                .bandwidth_bps(1_200_000) // 10 ms per data packet
                .prop_delay(SimDuration::from_millis(20))
                .queue_capacity(8)
                .loss(LossModel::Bernoulli(0.2)),
        );
        let rec = VecRecorder::new();
        eng.add_recorder(rec.clone());
        for round in 0..4u64 {
            eng.run_until(SimTime::from_millis(45 * round));
            for flow in [FlowId(1), FlowId(2)] {
                if round > 0 {
                    eng.inject(link, Packet::data(flow, SeqNo(round * 2 - 1), true));
                }
                for i in 0..2 {
                    eng.inject(link, Packet::data(flow, SeqNo(round * 2 + i), false));
                }
                eng.inject(link, Packet::ack(flow, SeqNo(round * 2), 2));
            }
        }
        // Stop with the last burst half drained.
        eng.run_until(SimTime::from_millis(45 * 3 + 27));
        let events = rec.take_events();
        let terminal = events.iter().filter(|e| e.kind != PacketEventKind::Sent);
        assert!(
            terminal.clone().count() < eng.arena().len(),
            "nothing in flight"
        );
        assert!(
            terminal
                .clone()
                .any(|e| e.kind != PacketEventKind::Delivered),
            "nothing dropped"
        );

        let cfg = TimeoutConfig {
            silence_threshold: SimDuration::from_millis(30),
        };
        for flow in [1u32, 2] {
            let meta = FlowMeta::default();
            let trace = trace_from_arena(eng.arena(), flow, meta);
            assert_eq!(
                Some(&trace),
                single_flow_trace(&events, flow, meta).as_ref()
            );
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

    #[test]
    fn undelivered_packets_of_every_kind_fold_to_lost() {
        let (eng, events) = mixed_fate_run(|_| {});
        let ids = |kind: PacketEventKind| -> Vec<u64> {
            let of_kind = events.iter().filter(|e| e.kind == kind);
            of_kind.map(|e| e.packet.id.0).collect()
        };
        let delivered = ids(PacketEventKind::Delivered);
        let channel = ids(PacketEventKind::Dropped(DropCause::Channel));
        let overflow = ids(PacketEventKind::Dropped(DropCause::QueueOverflow));
        let in_flight: Vec<u64> = (0..eng.arena().len() as u64)
            .filter(|id| {
                ![&delivered, &channel, &overflow]
                    .iter()
                    .any(|v| v.contains(id))
            })
            .collect();
        let link = eng.link(LinkId::from_raw(0));
        assert!(
            link.deliver_pending > 0 && link.queue_len() > 0,
            "nothing left mid-path"
        );
        for (fate, ids) in [
            ("channel", &channel),
            ("overflow", &overflow),
            ("in flight", &in_flight),
        ] {
            assert!(ids.len() >= 2, "the run produced no {fate} packets");
        }
        let records: Vec<PacketRecord> = [5u32, 9]
            .iter()
            .flat_map(|&f| trace_from_arena(eng.arena(), f, FlowMeta::default()).records)
            .collect();
        assert_eq!(records.len(), eng.arena().len());
        for r in &records {
            assert_eq!(
                r.arrived_at.is_some(),
                delivered.contains(&r.id),
                "packet {}",
                r.id
            );
        }
    }

    #[test]
    fn separates_flows() {
        let events = vec![
            ev(
                PacketEventKind::Sent,
                0,
                1,
                0,
                Packet::data(FlowId(0), SeqNo(0), false),
            ),
            ev(
                PacketEventKind::Sent,
                1,
                2,
                7,
                Packet::data(FlowId(7), SeqNo(0), false),
            ),
            ev(
                PacketEventKind::Delivered,
                30,
                2,
                7,
                Packet::data(FlowId(7), SeqNo(0), false),
            ),
        ];
        let traces = traces_from_events_filtered(
            &events,
            |f| FlowMeta {
                provider: Label::intern(&format!("p{f}")).unwrap(),
                ..Default::default()
            },
            None,
        );
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].flow, 0);
        assert_eq!(traces[1].flow, 7);
        assert_eq!(&*traces[1].meta.provider, "p7");
        assert!(single_flow_trace(&events, 7, FlowMeta::default()).is_some());
        assert!(single_flow_trace(&events, 9, FlowMeta::default()).is_none());
    }
}
