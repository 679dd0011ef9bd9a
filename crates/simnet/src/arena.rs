//! Arena-backed packet storage: one row per packet, written once.
//!
//! The engine stamps every sent packet into a [`PacketArena`]: one 48-byte
//! row per packet, indexed by [`PacketId`]. Ids are minted sequentially,
//! so a packet's id **is** its arena index — nothing is ever freed within
//! a run, and [`PacketArena::clear`] recycles the rows (capacity kept)
//! when the engine resets.
//!
//! Everything downstream of the stamp then moves a 16-byte handle instead
//! of the full packet: link queues and in-flight slots hold
//! [`QueuedPacket`](crate::link::QueuedPacket)s, and `Deliver` events carry
//! a bare [`PacketId`]. The full [`Packet`] is materialized from its row
//! only at the edges (the packet recorder and
//! [`Agent::on_packet`](crate::agent::Agent::on_packet)).
//!
//! A row is also the packet's whole capture record: the send-side facts
//! are stored by [`PacketArena::push`] and the delivery time by
//! [`PacketArena::deliver`], in the row the engine reads anyway to hand the
//! packet to its agent. The trace layer folds a flow's trace from
//! [`PacketArena::iter`] in one pass, with no recorder registered.

use crate::packet::{FlowId, Packet, PacketId, PacketKind, SeqNo};
use crate::time::SimTime;

/// Row tag: a first-transmission data segment.
const KIND_DATA: u8 = 0;
/// Row tag: a retransmitted data segment.
const KIND_DATA_RETX: u8 = 1;
/// Row tag: a cumulative ACK.
const KIND_ACK: u8 = 2;

/// `arrived_at` of a packet that was dropped or is still in flight.
const NOT_ARRIVED: SimTime = SimTime::MAX;

/// Everything the engine knows about one packet, widest fields first so
/// the row packs into 48 bytes (six rows per four cache lines).
#[derive(Debug, Clone, Copy)]
struct Row {
    /// `seq` for data segments, `cum` for ACKs.
    word: u64,
    sent_at: SimTime,
    /// [`NOT_ARRIVED`] until the packet is handed to its destination.
    arrived_at: SimTime,
    tag: u64,
    flow: u32,
    size: u32,
    /// `acked_count` for ACKs, 0 for data segments.
    count: u32,
    kind: u8,
}

impl Row {
    fn packet(&self, id: PacketId) -> Packet {
        let kind = match self.kind {
            KIND_ACK => PacketKind::Ack {
                cum: SeqNo(self.word),
                acked_count: self.count,
            },
            retx => PacketKind::Data {
                seq: SeqNo(self.word),
                retransmit: retx == KIND_DATA_RETX,
            },
        };
        Packet {
            id,
            flow: FlowId(self.flow),
            kind,
            size_bytes: self.size,
            sent_at: self.sent_at,
            tag: self.tag,
        }
    }

    fn arrived_at(&self) -> Option<SimTime> {
        (self.arrived_at != NOT_ARRIVED).then_some(self.arrived_at)
    }
}

/// Store of every packet stamped by an engine run.
///
/// Indexed by [`PacketId`]; see the module docs for the layout rationale.
#[derive(Debug, Default)]
pub struct PacketArena {
    rows: Vec<Row>,
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// Number of packets stamped so far (equals the next packet id).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True before the first packet is stamped.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Forgets every packet — delivery stamps included — while keeping the
    /// allocation, so a recycled engine stamps its first packet without
    /// touching the allocator.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Stores `packet`'s fields in the next arena row, not yet delivered,
    /// and returns the id (== row index) it must travel under. The caller
    /// stamps `sent_at` on the packet before pushing; `packet.id` is not
    /// read.
    pub fn push(&mut self, packet: &Packet) -> PacketId {
        let id = PacketId(self.rows.len() as u64);
        let (kind, word, count) = match packet.kind {
            PacketKind::Data { seq, retransmit } => (
                if retransmit {
                    KIND_DATA_RETX
                } else {
                    KIND_DATA
                },
                seq.0,
                0,
            ),
            PacketKind::Ack { cum, acked_count } => (KIND_ACK, cum.0, acked_count),
        };
        self.rows.push(Row {
            word,
            sent_at: packet.sent_at,
            arrived_at: NOT_ARRIVED,
            tag: packet.tag,
            flow: packet.flow.0,
            size: packet.size_bytes,
            count,
            kind,
        });
        id
    }

    /// Materializes the full [`Packet`] stored under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted by this arena since the last clear.
    pub fn get(&self, id: PacketId) -> Packet {
        self.rows[id.0 as usize].packet(id)
    }

    /// Records that packet `id` reached its destination at `at` and
    /// materializes it for the hand-over — one row access for both.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted by this arena since the last clear.
    pub fn deliver(&mut self, id: PacketId, at: SimTime) -> Packet {
        debug_assert!(at != NOT_ARRIVED, "delivery at the not-arrived sentinel");
        let row = &mut self.rows[id.0 as usize];
        row.arrived_at = at;
        row.packet(id)
    }

    /// Every packet in id (== send) order with its delivery time — `None`
    /// while it is queued or in flight, and forever if it was dropped —
    /// for bulk readers such as the trace capture.
    pub fn iter(&self) -> impl Iterator<Item = (Packet, Option<SimTime>)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .map(|(id, row)| (row.packet(PacketId(id as u64)), row.arrived_at()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamped(mut p: Packet, id: u64, at_ms: u64) -> Packet {
        p.id = PacketId(id);
        p.sent_at = SimTime::from_millis(at_ms);
        p
    }

    #[test]
    fn ids_are_dense_row_indices() {
        let mut arena = PacketArena::new();
        for i in 0..10u64 {
            let p = stamped(Packet::data(FlowId(3), SeqNo(i), i % 2 == 1), i, i);
            assert_eq!(arena.push(&p), PacketId(i));
        }
        assert_eq!(arena.len(), 10);
        assert!(!arena.is_empty());
        assert_eq!(std::mem::size_of::<Row>(), 48);
    }

    #[test]
    fn round_trips_data_and_ack_packets() {
        let mut arena = PacketArena::new();
        let d = stamped(Packet::data(FlowId(1), SeqNo(41), true).with_tag(9), 0, 5);
        let a = stamped(Packet::ack(FlowId(2), SeqNo(7), 2), 1, 6);
        arena.push(&d);
        arena.push(&a);
        assert_eq!(arena.get(PacketId(0)), d);
        assert_eq!(arena.get(PacketId(1)), a);
    }

    #[test]
    fn deliver_stamps_the_row_it_materializes() {
        let mut arena = PacketArena::new();
        let d = stamped(Packet::data(FlowId(1), SeqNo(0), false), 0, 5);
        let a = stamped(Packet::ack(FlowId(1), SeqNo(1), 1), 1, 6);
        arena.push(&d);
        arena.push(&a);
        assert!(arena.iter().all(|(_, arrived_at)| arrived_at.is_none()));
        let at = SimTime::from_millis(30);
        assert_eq!(arena.deliver(PacketId(0), at), d);
        assert_eq!(
            arena.get(PacketId(0)),
            d,
            "the stamp leaves the packet alone"
        );
        let rows: Vec<_> = arena.iter().collect();
        assert_eq!(rows, vec![(d, Some(at)), (a, None)]);
    }

    #[test]
    fn clear_recycles_rows_restarts_ids_and_forgets_deliveries() {
        let mut arena = PacketArena::new();
        arena.push(&stamped(Packet::data(FlowId(0), SeqNo(0), false), 0, 0));
        arena.deliver(PacketId(0), SimTime::from_millis(1));
        arena.clear();
        assert!(arena.is_empty());
        let p = stamped(Packet::ack(FlowId(5), SeqNo(3), 1), 0, 1);
        assert_eq!(arena.push(&p), PacketId(0));
        assert_eq!(arena.get(PacketId(0)), p);
        assert_eq!(arena.iter().next(), Some((p, None)), "stale delivery stamp");
    }
}
