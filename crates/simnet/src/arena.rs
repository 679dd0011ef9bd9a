//! Arena-backed packet storage: one row per packet, written once.
//!
//! The engine stamps every sent packet into a [`PacketArena`]: one 32-byte
//! row per packet, indexed by [`PacketId`]. Ids are minted sequentially,
//! so a packet's id **is** its row index, and [`PacketArena::clear`]
//! recycles every row when the engine resets.
//!
//! Rows live in fixed chunks of 1,024, each allocated the first time a
//! packet lands in it and kept across [`PacketArena::clear`], so a
//! recycled arena allocates nothing and a growing one never reallocates,
//! copies or leaves a freed block behind (a doubling `Vec` does all three
//! on its way to twice the rows it holds).
//!
//! A row is sized for the packets a run sends: a 16-bit size, an 8-bit
//! tag and a 32-bit flight time in microseconds (≈ 71.6 min). A packet
//! with a wider value — any [`Packet`] the public API can build — is kept
//! exactly: its size, tag and arrival escape to a cold side table keyed
//! by id, and a flag in the row's kind says to look there.
//!
//! Everything downstream of the stamp then moves a 16-byte handle instead
//! of the full packet: link queues and in-flight slots hold
//! [`QueuedPacket`](crate::link::QueuedPacket)s, and `Deliver` events carry
//! a bare [`PacketId`]. The full [`Packet`] is materialized from its row
//! only to hand it to [`Agent::on_packet`](crate::agent::Agent::on_packet).
//!
//! A row is also the packet's whole capture record: the send-side facts
//! are stored by [`PacketArena::push`] and the delivery time by
//! [`PacketArena::deliver`], in the row the engine reads anyway to hand the
//! packet to its agent.
//!
//! A row *settles* when its packet lands: [`PacketArena::deliver`] settles
//! it, and so does [`PacketArena::drop_packet`], which the engine calls
//! where the channel or a full queue destroys a packet. Nothing changes a
//! settled row again, so [`PacketArena::drain_settled`] hands the settled
//! prefix of the rows, in id order, to a reader while the run goes on, and
//! puts every chunk it has emptied back behind the one being filled: a
//! drained arena holds the rows still in flight, not the whole run. An
//! arena nobody drains keeps every row until the next clear, and
//! [`PacketArena::iter`] reads the rows not drained.

use crate::packet::{FlowId, Packet, PacketId, PacketKind, SeqNo};
use crate::time::SimTime;
use std::collections::BTreeMap;

/// Rows per chunk: a power of two, so a row's place in its chunk is the
/// low bits of its id.
const CHUNK: usize = 1024;

/// Row kind: a first-transmission data segment.
const KIND_DATA: u8 = 0;
/// Row kind: a retransmitted data segment.
const KIND_DATA_RETX: u8 = 1;
/// Row kind: a cumulative ACK.
const KIND_ACK: u8 = 2;
/// The bits of a row's kind that hold one of the `KIND_*` values.
const KIND_BITS: u8 = 0x03;
/// Flag on a row's kind: the side table holds its size, tag and arrival.
const ESCAPED: u8 = 0x80;
/// Flag on a row's kind: the packet was dropped, so the row is settled.
const DROPPED: u8 = 0x40;

/// `arrival` of a packet that was dropped or is still in flight.
const NOT_ARRIVED: u32 = u32::MAX;
/// `arrival` of a delivered escaped row: its time is in the side table.
const ARRIVED_ESCAPED: u32 = 0;

/// Everything the engine knows about one packet, widest fields first so
/// the row packs into 32 bytes (two rows per cache line).
#[derive(Debug, Clone, Copy)]
struct Row {
    /// `seq` for data segments, `cum` for ACKs.
    word: u64,
    sent_at: SimTime,
    flow: u32,
    /// `acked_count` for ACKs, 0 for data segments.
    count: u32,
    /// Microseconds from `sent_at` to delivery; [`NOT_ARRIVED`] until the
    /// packet is handed to its destination.
    arrival: u32,
    size: u16,
    /// One of the `KIND_*` values, with [`ESCAPED`] set when the row's
    /// size, tag and arrival did not fit it and [`DROPPED`] once the
    /// packet was.
    kind: u8,
    tag: u8,
}

const _: () = assert!(std::mem::size_of::<Row>() == 32);

impl Row {
    /// The packet the row holds, with the size and tag given.
    #[inline]
    fn packet(&self, id: u64, size_bytes: u32, tag: u64) -> Packet {
        let kind = match self.kind & KIND_BITS {
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
            id: PacketId(id),
            flow: FlowId(self.flow),
            kind,
            size_bytes,
            sent_at: self.sent_at,
            tag,
        }
    }

    /// True once the packet was delivered or dropped.
    #[inline]
    fn settled(&self) -> bool {
        self.arrival != NOT_ARRIVED || self.kind & DROPPED != 0
    }

    /// What a chunk's rows hold before their first packet.
    const EMPTY: Row = Row {
        word: 0,
        sent_at: SimTime::ZERO,
        flow: 0,
        count: 0,
        arrival: NOT_ARRIVED,
        size: 0,
        kind: KIND_DATA,
        tag: 0,
    };
}

/// The fields of an escaped row at full width.
#[derive(Debug, Clone, Copy)]
struct Wide {
    size: u32,
    tag: u64,
    arrived_at: Option<SimTime>,
}

/// Store of every packet stamped by an engine run and not yet drained.
///
/// Indexed by [`PacketId`]; see the module docs for the layout rationale.
#[derive(Debug, Default)]
pub struct PacketArena {
    /// The chunk that holds row `base * CHUNK`, the chunks after it in row
    /// order, then the one being filled; any after that are spares, kept
    /// from before the last clear or emptied by a drain.
    chunks: Vec<Box<[Row; CHUNK]>>,
    /// The chunk number of `chunks[0]`: row `id` lives in
    /// `chunks[id / CHUNK - base]`.
    base: usize,
    len: usize,
    /// Rows below this id were handed to a drain.
    drained: usize,
    /// The full-width fields of every escaped row not yet recycled, by id.
    escaped: BTreeMap<u64, Wide>,
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// Number of packets stamped so far (equals the next packet id).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first packet is stamped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows the arena holds without allocating: its chunks, spares
    /// included, times the 1,024 rows of a chunk — a bound on the rows it
    /// has held at once since it was created.
    pub fn capacity(&self) -> usize {
        self.chunks.len() * CHUNK
    }

    /// Forgets every packet — delivery stamps included — while keeping the
    /// chunks, so a recycled engine stamps its packets without touching
    /// the allocator.
    pub fn clear(&mut self) {
        self.len = 0;
        self.base = 0;
        self.drained = 0;
        self.escaped.clear();
    }

    /// Stores `packet`'s fields in the next arena row, not yet delivered,
    /// and returns the id (== row index) it must travel under. The caller
    /// stamps `sent_at` on the packet before pushing; `packet.id` is not
    /// read.
    #[inline]
    pub fn push(&mut self, packet: &Packet) -> PacketId {
        let i = self.len;
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
        let mut row = Row {
            word,
            sent_at: packet.sent_at,
            flow: packet.flow.0,
            count,
            arrival: NOT_ARRIVED,
            size: 0,
            kind,
            tag: 0,
        };
        match (u16::try_from(packet.size_bytes), u8::try_from(packet.tag)) {
            (Ok(size), Ok(tag)) => (row.size, row.tag) = (size, tag),
            _ => {
                row.kind |= ESCAPED;
                let wide = Wide {
                    size: packet.size_bytes,
                    tag: packet.tag,
                    arrived_at: None,
                };
                self.escaped.insert(i as u64, wide);
            }
        }
        let chunk = i / CHUNK - self.base;
        if chunk == self.chunks.len() {
            self.grow();
        }
        self.chunks[chunk][i % CHUNK] = row;
        self.len += 1;
        PacketId(i as u64)
    }

    /// Materializes the full [`Packet`] stored under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted by this arena since the last clear,
    /// or was drained.
    #[inline]
    pub fn get(&self, id: PacketId) -> Packet {
        let (chunk, row) = self.index(id);
        self.packet(id.0, &self.chunks[chunk][row])
    }

    /// Records that packet `id` reached its destination at `at` and
    /// materializes it for the hand-over — one row access for both. The
    /// row is settled.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted by this arena since the last clear,
    /// or was drained.
    #[inline]
    pub fn deliver(&mut self, id: PacketId, at: SimTime) -> Packet {
        let (chunk, row) = self.index(id);
        let row = &mut self.chunks[chunk][row];
        let flight = at.as_micros().checked_sub(row.sent_at.as_micros());
        match flight.and_then(|us| u32::try_from(us).ok()) {
            Some(us) if us != NOT_ARRIVED && row.kind & ESCAPED == 0 => row.arrival = us,
            _ => escape_arrival(&mut self.escaped, id.0, row, at),
        }
        let row = *row;
        self.packet(id.0, &row)
    }

    /// Records that packet `id` was dropped — by the channel or a full
    /// queue — which settles its row; it reads as never delivered.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted by this arena since the last clear,
    /// or was drained.
    #[inline]
    pub fn drop_packet(&mut self, id: PacketId) {
        let (chunk, row) = self.index(id);
        self.chunks[chunk][row].kind |= DROPPED;
    }

    /// Hands `f` the settled rows not yet drained that precede the first
    /// unsettled one — in id (== send) order, each as its packet and
    /// delivery time (`None` for a dropped packet) — then recycles each
    /// chunk all of whose rows are drained, with its side-table entries.
    /// `f` gets the rows as one iterator, so its loop over them is its
    /// own; rows it leaves unread are drained all the same.
    ///
    /// The drained ids are gone: [`PacketArena::get`] and
    /// [`PacketArena::deliver`] panic on them, [`PacketArena::iter`] skips
    /// them, and only [`PacketArena::clear`] mints them again.
    pub fn drain_settled(&mut self, f: impl FnOnce(Rows<'_>)) {
        let end = self.settled_end();
        f(self.rows(end));
        self.drained = end;
        let spent = end / CHUNK - self.base;
        if spent > 0 {
            self.recycle(spent);
        }
    }

    /// Every packet not drained, in id (== send) order, with its delivery
    /// time — `None` while it is queued or in flight, and forever if it
    /// was dropped — for bulk readers such as the trace capture.
    pub fn iter(&self) -> Rows<'_> {
        self.rows(self.len)
    }

    /// The rows from the first not drained up to `end`.
    fn rows(&self, end: usize) -> Rows<'_> {
        Rows {
            arena: self,
            rows: [].iter(),
            id: self.drained,
            end,
        }
    }

    /// The id of the first unsettled row not drained, or `len`.
    fn settled_end(&self) -> usize {
        let mut id = self.drained;
        while id < self.len {
            let first = id - id % CHUNK;
            let chunk = &self.chunks[first / CHUNK - self.base];
            let rows = &chunk[id % CHUNK..(self.len - first).min(CHUNK)];
            match rows.iter().position(|row| !row.settled()) {
                Some(unsettled) => return id + unsettled,
                None => id += rows.len(),
            }
        }
        id
    }

    /// The chunk (an index into `chunks`) and row within it of `id`,
    /// checked against the rows stamped since the last clear and not
    /// drained (the chunks hold stale rows on both sides).
    #[inline]
    fn index(&self, id: PacketId) -> (usize, usize) {
        assert!(
            id.0 < self.len as u64 && id.0 >= self.drained as u64,
            "packet {} was drained or not minted since the arena's last clear",
            id.0
        );
        let i = id.0 as usize;
        (i / CHUNK - self.base, i % CHUNK)
    }

    /// Moves the first `spent` chunks, every row of which is drained,
    /// behind the spares, and forgets their escaped rows.
    #[cold]
    fn recycle(&mut self, spent: usize) {
        self.chunks.rotate_left(spent);
        self.base += spent;
        let kept = (self.base * CHUNK) as u64;
        while let Some(entry) = self.escaped.first_entry() {
            if *entry.key() >= kept {
                break;
            }
            entry.remove();
        }
    }

    #[cold]
    fn grow(&mut self) {
        self.chunks.push(Box::new([Row::EMPTY; CHUNK]));
    }

    /// The packet `row` holds; an escaped row's size and tag are read from
    /// the side table.
    #[inline]
    fn packet(&self, id: u64, row: &Row) -> Packet {
        let (size_bytes, tag) = if row.kind & ESCAPED == 0 {
            (u32::from(row.size), u64::from(row.tag))
        } else {
            let wide = self.wide(id);
            (wide.size, wide.tag)
        };
        row.packet(id, size_bytes, tag)
    }

    /// The packet `row` holds and its delivery time; an escaped row's size,
    /// tag and arrival are read from the side table.
    #[inline]
    fn read(&self, id: u64, row: &Row) -> (Packet, Option<SimTime>) {
        if row.kind & ESCAPED != 0 {
            return self.read_escaped(id, row);
        }
        // A stored flight never overflows: it is `at - sent_at` of an `at`.
        let arrived_at = (row.arrival != NOT_ARRIVED)
            .then(|| SimTime::from_micros(row.sent_at.as_micros() + u64::from(row.arrival)));
        let packet = row.packet(id, u32::from(row.size), u64::from(row.tag));
        (packet, arrived_at)
    }

    /// `read` of an escaped row, one call out of line: the `iter` loop the
    /// trace sweep inlines stays as small as the narrow path.
    #[cold]
    fn read_escaped(&self, id: u64, row: &Row) -> (Packet, Option<SimTime>) {
        let wide = self.wide(id);
        (row.packet(id, wide.size, wide.tag), wide.arrived_at)
    }

    #[cold]
    fn wide(&self, id: u64) -> &Wide {
        &self.escaped[&id]
    }
}

/// Rows of a [`PacketArena`] in id (== send) order, each as its packet
/// and delivery time: what [`PacketArena::iter`] and
/// [`PacketArena::drain_settled`] hand out. A slice walk over one chunk's
/// rows at a time.
#[derive(Debug)]
pub struct Rows<'a> {
    arena: &'a PacketArena,
    /// The current chunk's rows not yet yielded.
    rows: std::slice::Iter<'a, Row>,
    /// The id of the next row.
    id: usize,
    /// The id past the last row to yield.
    end: usize,
}

impl Iterator for Rows<'_> {
    type Item = (Packet, Option<SimTime>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let row = match self.rows.next() {
            Some(row) => row,
            None => self.next_chunk()?,
        };
        let id = self.id as u64;
        self.id += 1;
        Some(self.arena.read(id, row))
    }
}

impl<'a> Rows<'a> {
    /// Moves on to the chunk that holds row `id`, and takes that row;
    /// `None` at `end`.
    #[cold]
    fn next_chunk(&mut self) -> Option<&'a Row> {
        if self.id >= self.end {
            return None;
        }
        let first = self.id - self.id % CHUNK;
        let chunk = &self.arena.chunks[first / CHUNK - self.arena.base];
        self.rows = chunk[self.id % CHUNK..(self.end - first).min(CHUNK)].iter();
        self.rows.next()
    }
}

/// Stamps a delivery the row cannot hold — a flight of `u32::MAX` µs or
/// more, a delivery before the send, or any delivery of an escaped row —
/// into the side table, escaping the row first if it was not.
#[cold]
fn escape_arrival(escaped: &mut BTreeMap<u64, Wide>, id: u64, row: &mut Row, at: SimTime) {
    let narrow = Wide {
        size: u32::from(row.size),
        tag: u64::from(row.tag),
        arrived_at: None,
    };
    escaped.entry(id).or_insert(narrow).arrived_at = Some(at);
    row.kind |= ESCAPED;
    row.arrival = ARRIVED_ESCAPED;
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

    #[test]
    fn a_drain_hands_over_the_settled_prefix_and_recycles_its_chunks() {
        let mut arena = PacketArena::new();
        let rows = 3 * CHUNK as u64 + 7;
        for i in 0..rows {
            let p = stamped(Packet::data(FlowId(1), SeqNo(i), false), i, i);
            arena.push(&p.with_tag(if i % 100 == 0 { 1 << 20 } else { 0 }));
        }
        let stop = 2 * CHUNK as u64 + 5;
        for i in (0..stop).chain([stop + 1]) {
            if i.is_multiple_of(3) {
                arena.drop_packet(PacketId(i));
            } else {
                arena.deliver(PacketId(i), SimTime::from_millis(i + 30));
            }
        }
        let mut drained = Vec::new();
        arena.drain_settled(|rows| {
            drained.extend(rows.map(|(p, at)| (p.data_seq().unwrap().0, at)));
        });
        assert_eq!(drained.len() as u64, stop, "stopped short of row {stop}");
        for (i, &(seq, at)) in drained.iter().enumerate() {
            let i = i as u64;
            assert_eq!(seq, i);
            assert_eq!(
                at,
                (!i.is_multiple_of(3)).then(|| SimTime::from_millis(i + 30))
            );
        }
        // The two emptied chunks are spares now, their escaped rows gone.
        assert_eq!((arena.base, arena.capacity()), (2, 4 * CHUNK));
        assert!(arena.escaped.keys().all(|&id| id >= 2 * CHUNK as u64));
        assert_eq!(arena.iter().next().map(|(p, _)| p.id), Some(PacketId(stop)));
        for i in rows..rows + 2 * CHUNK as u64 {
            arena.push(&stamped(Packet::ack(FlowId(1), SeqNo(i), 1), i, i));
        }
        assert_eq!(arena.capacity(), 4 * CHUNK, "the spares were not reused");
        assert_eq!(arena.get(PacketId(rows)).ack_cum(), Some(SeqNo(rows)));
        arena.drain_settled(|mut rows| assert!(rows.next().is_none(), "row {stop} drained"));
    }

    #[test]
    fn a_recycled_arena_refills_the_chunks_it_kept() {
        let mut arena = PacketArena::new();
        let rows = 3 * CHUNK as u64 + 7;
        for pass in 0..2u64 {
            for i in 0..rows {
                let p = stamped(Packet::data(FlowId(1), SeqNo(i + pass), false), i, i);
                assert_eq!(arena.push(&p), PacketId(i));
            }
            assert_eq!(arena.chunks.len(), 4, "pass {pass} grew the arena");
            let seqs = arena.iter().map(|(p, _)| p.data_seq().unwrap().0);
            assert!(seqs.eq(pass..rows + pass));
            arena.clear();
        }
    }
}
