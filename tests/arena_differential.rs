//! Differential proptest: `PacketArena` against a `Vec` model.
//!
//! The arena keeps a packet in a 32-byte row inside fixed 1,024-row
//! chunks that outlive a clear, and escapes any value too wide for the row
//! (a size of 2^16 bytes or more, a tag of 2^8 or more, a flight of
//! `u32::MAX` µs or more, a delivery before the send) to a side table.
//! It also hands its settled rows — delivered or marked dropped — to a
//! drain, in id order up to the first unsettled one, and recycles every
//! chunk the drain empties behind the one being filled.
//! The model is the contract with none of that: a `Vec` of
//! `(Packet, Option<SimTime>)` in id order with a settled flag each and a
//! drained prefix, where a push appends, a delivery overwrites the arrival
//! and settles, a drop settles, a drain hands over the settled rows past
//! the prefix and extends it, and a clear empties it. So: feed randomized
//! push / delivery / drop / drain / clear interleavings over several flows
//! to both, with values that take every escape and row counts that cross
//! several chunk boundaries, and assert they agree on what each drain
//! hands over and on `len`, `get` and `iter` after every step, and that
//! `get` and `deliver` of a drained id panic. Any divergence is an arena
//! bug by definition.

use hsm_simnet::arena::PacketArena;
use hsm_simnet::packet::{FlowId, Packet, PacketId, SeqNo};
use hsm_simnet::time::SimTime;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The arena's chunk length, which the script must cross.
const CHUNK: usize = 1024;

/// One scripted arena operation.
#[derive(Debug, Clone)]
enum Op {
    /// Push one packet, stamped as the caller leaves it.
    Push(Packet),
    /// Push `n` MSS-sized segments of `flow`, one microsecond apart after
    /// `sent` — the bulk that carries the arena over chunk boundaries.
    Burst { flow: u32, n: usize, sent: u64 },
    /// Deliver the `k`-th packet (mod `len`) `flight` µs after its send,
    /// or — when `early` is set — `flight` µs before it (saturating at 0).
    Deliver { k: usize, flight: u64, early: bool },
    /// Deliver the `k`-th packet at `SimTime::MAX`.
    DeliverAtMax { k: usize },
    /// Mark the `k`-th packet dropped.
    Drop { k: usize },
    /// Settle the `n` oldest packets not drained, in id order, `flight`
    /// µs after their sends: every third one is dropped instead — the bulk
    /// that lets a drain empty whole chunks.
    Land { n: usize, flight: u64 },
    /// Drain the settled prefix.
    Drain,
    /// Forget everything; ids restart at 0.
    Clear,
}

/// A packet with the given wire fields: `kind` 0 is a first
/// transmission, 1 a retransmission, and 2 and up an ACK of `kind - 2`
/// segments.
fn packet(flow: u32, word: u64, kind: u32, size: u32, tag: u64, sent: u64) -> Packet {
    let (flow, word) = (FlowId(flow), SeqNo(word));
    let mut p = match kind {
        0 | 1 => Packet::data(flow, word, kind == 1),
        _ => Packet::ack(flow, word, kind - 2),
    };
    (p.size_bytes, p.tag, p.sent_at) = (size, tag, SimTime::from_micros(sent));
    p
}

/// Sizes from an ACK's to past the row's 16 bits.
fn arb_size() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(Packet::DATA_BYTES),
        Just(Packet::ACK_BYTES),
        0u32..65_536,
        65_536u32..u32::MAX,
    ]
}

/// Tags from none to past the row's 8 bits.
fn arb_tag() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..256, 256u64..u64::MAX]
}

/// Send instants, from the start to far beyond any run.
fn arb_sent() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1_000_000, 0u64..1 << 40, (u64::MAX - 1_000)..u64::MAX]
}

/// Flights from same-instant to past the row's 32 bits, straddling
/// `u32::MAX` itself (the row's not-arrived sentinel).
fn arb_flight() -> impl Strategy<Value = u64> {
    let edge = u64::from(u32::MAX);
    prop_oneof![
        0u64..100_000,
        (edge - 2)..(edge + 3),
        (1u64 << 32)..(1u64 << 60),
    ]
}

/// Packets of four flows, of every kind, with values that take every
/// escape.
fn arb_packet() -> impl Strategy<Value = Packet> {
    let fields = (
        0u32..4,
        0u64..1 << 40,
        0u32..6,
        arb_size(),
        arb_tag(),
        arb_sent(),
    );
    fields.prop_map(|(flow, word, kind, size, tag, sent)| packet(flow, word, kind, size, tag, sent))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_packet().prop_map(Op::Push),
        arb_packet().prop_map(Op::Push),
        (0u32..4, 1usize..900, 0u64..1_000_000).prop_map(|(flow, n, sent)| Op::Burst {
            flow,
            n,
            sent
        }),
        (0usize..1 << 16, arb_flight(), 0u8..4).prop_map(|(k, flight, e)| Op::Deliver {
            k,
            flight,
            early: e == 0
        }),
        (0usize..1 << 16).prop_map(|k| Op::DeliverAtMax { k }),
        (0usize..1 << 16).prop_map(|k| Op::Drop { k }),
        (1usize..2_000, arb_flight()).prop_map(|(n, flight)| Op::Land { n, flight }),
        Just(Op::Drain),
        Just(Op::Drain),
        Just(Op::Clear),
    ]
}

/// The arena and the model side by side.
#[derive(Default)]
struct Pair {
    arena: PacketArena,
    model: Vec<(Packet, Option<SimTime>)>,
    /// Whether each of the model's packets was delivered or dropped.
    settled: Vec<bool>,
    /// The model's rows below this id were drained.
    drained: usize,
    /// The most rows the arena has held, so ids of rows a clear left
    /// behind in its chunks can be probed.
    high_water: usize,
}

impl Pair {
    fn push(&mut self, mut packet: Packet) {
        let id = PacketId(self.model.len() as u64);
        // The arena mints the id; whatever the caller left there is junk.
        packet.id = PacketId(u64::MAX - id.0);
        assert_eq!(self.arena.push(&packet), id, "id is not the row index");
        packet.id = id;
        self.model.push((packet, None));
        self.settled.push(false);
        self.high_water = self.high_water.max(self.model.len());
    }

    /// The id of the `k`-th (mod their count) packet not drained.
    fn undrained(&self, k: usize) -> Option<usize> {
        let left = self.model.len() - self.drained;
        (left > 0).then(|| self.drained + k % left)
    }

    fn deliver(&mut self, k: usize, at: impl Fn(SimTime) -> SimTime) {
        let Some(i) = self.undrained(k) else { return };
        let (packet, arrived_at) = &mut self.model[i];
        let at = at(packet.sent_at);
        *arrived_at = Some(at);
        self.settled[i] = true;
        assert_eq!(self.arena.deliver(packet.id, at), *packet, "deliver");
    }

    fn drop_packet(&mut self, k: usize) {
        let Some(i) = self.undrained(k) else { return };
        self.settled[i] = true;
        self.arena.drop_packet(PacketId(i as u64));
    }

    /// Drains both; they must hand over the same rows.
    fn drain(&mut self) {
        let mut got = Vec::new();
        self.arena.drain_settled(|rows| got.extend(rows));
        let start = self.drained;
        while self.drained < self.model.len() && self.settled[self.drained] {
            self.drained += 1;
        }
        assert_eq!(got, self.model[start..self.drained], "drained rows");
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Push(p) => self.push(p),
            Op::Burst { flow, n, sent } => {
                for i in 0..n as u64 {
                    let mut p = Packet::data(FlowId(flow), SeqNo(i), false);
                    p.sent_at = SimTime::from_micros(sent + i);
                    self.push(p);
                }
            }
            Op::Deliver { k, flight, early } => self.deliver(k, |sent| {
                let sent = sent.as_micros();
                SimTime::from_micros(if early {
                    sent.saturating_sub(flight)
                } else {
                    sent.saturating_add(flight)
                })
            }),
            Op::DeliverAtMax { k } => self.deliver(k, |_| SimTime::MAX),
            Op::Drop { k } => self.drop_packet(k),
            Op::Land { n, flight } => {
                for i in 0..n.min(self.model.len() - self.drained) {
                    if i % 3 == 2 {
                        self.drop_packet(i);
                    } else {
                        self.deliver(i, |sent| {
                            SimTime::from_micros(sent.as_micros().saturating_add(flight))
                        });
                    }
                }
            }
            Op::Drain => self.drain(),
            Op::Clear => {
                self.arena.clear();
                self.model.clear();
                self.settled.clear();
                self.drained = 0;
            }
        }
        self.check();
        self.stale_ids_panic();
        self.drained_ids_panic();
    }

    /// `len`, `iter` and `get` agree with the model: `iter` over the rows
    /// not drained, `get` at those around every chunk boundary, at the
    /// first and at the last.
    fn check(&self) {
        assert_eq!(self.arena.len(), self.model.len(), "len");
        assert_eq!(self.arena.is_empty(), self.model.is_empty());
        let left = self.model[self.drained..].iter().cloned();
        assert!(self.arena.iter().eq(left), "iter");
        let probes = (CHUNK..=self.model.len())
            .step_by(CHUNK)
            .flat_map(|edge| [edge - 1, edge])
            .chain([self.drained])
            .chain(self.model.len().checked_sub(1));
        for i in probes.filter(|&i| (self.drained..self.model.len()).contains(&i)) {
            let id = PacketId(i as u64);
            assert_eq!(self.arena.get(id), self.model[i].0, "get row {i}");
        }
    }

    /// Ids the arena minted before a clear, at and past its new `len`,
    /// name rows its chunks still hold: reading or delivering one must
    /// panic, not hand back the stale packet.
    fn stale_ids_panic(&mut self) {
        let len = self.model.len();
        let stale_ids = len..self.high_water;
        for stale in [stale_ids.start, stale_ids.end.saturating_sub(1)] {
            if !stale_ids.contains(&stale) {
                continue;
            }
            let (arena, stale) = (&mut self.arena, PacketId(stale as u64));
            assert!(catch_unwind(AssertUnwindSafe(|| arena.get(stale))).is_err());
            let at = SimTime::from_micros(1);
            assert!(catch_unwind(AssertUnwindSafe(|| arena.deliver(stale, at))).is_err());
        }
        assert_eq!(self.arena.len(), len, "a refused delivery moved the arena");
    }

    /// Drained ids — the first, the last, and those around every chunk
    /// boundary between — are gone: reading or delivering one must panic,
    /// whether its chunk was recycled or still holds its row.
    fn drained_ids_panic(&mut self) {
        let drained = self.drained;
        let edges = (CHUNK..=drained).step_by(CHUNK).flat_map(|e| [e - 1, e]);
        let probes = [0, drained.saturating_sub(1)].into_iter().chain(edges);
        for id in probes.filter(|&id| id < drained) {
            let (arena, id) = (&mut self.arena, PacketId(id as u64));
            assert!(catch_unwind(AssertUnwindSafe(|| arena.get(id))).is_err());
            let at = SimTime::from_micros(1);
            assert!(catch_unwind(AssertUnwindSafe(|| arena.deliver(id, at))).is_err());
        }
    }
}

fn run_script(ops: &[Op]) -> Pair {
    let mut pair = Pair::default();
    ops.iter().for_each(|op| pair.apply(op.clone()));
    pair
}

proptest! {
    #[test]
    fn arena_and_model_agree(
        lead in (3 * CHUNK)..(4 * CHUNK),
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        // Every case starts past three chunk boundaries, so its clears
        // leave stale rows in chunks its later bursts fill again.
        let mut script = vec![Op::Burst { flow: 3, n: lead, sent: 0 }];
        script.extend(ops);
        run_script(&script);
    }
}

/// Every escape on one short script, behind three chunk boundaries: a
/// wide size, a wide tag, a flight of exactly the row's sentinel, one past
/// 2^32 µs, a delivery before the send and one at `SimTime::MAX` — then
/// the same packets again after a clear, so each escape is taken into
/// chunks that already hold rows.
#[test]
fn every_escape_round_trips_past_three_chunk_boundaries() {
    let wide = |size, tag| Op::Push(packet(1, 7, 1, size, tag, 5));
    let last = 3 * CHUNK + 3;
    let mut ops = vec![Op::Burst {
        flow: 0,
        n: 3 * CHUNK,
        sent: 0,
    }];
    ops.extend([
        wide(1 << 16, 0),
        wide(40, 1 << 8),
        Op::Push(packet(2, 9, 4, 40, 3, 5)),
        wide(1500, 0),
        Op::Deliver {
            k: last - 1,
            flight: u64::from(u32::MAX),
            early: false,
        },
        Op::Deliver {
            k: last,
            flight: 1 << 32,
            early: false,
        },
        Op::Deliver {
            k: last - 2,
            flight: 1,
            early: true,
        },
        Op::DeliverAtMax { k: last - 3 },
        Op::Deliver {
            k: 0,
            flight: 20,
            early: false,
        },
    ]);
    let once = ops.clone();
    ops.push(Op::Clear);
    ops.extend(once);
    let pair = run_script(&ops);
    let arrivals: Vec<_> = pair.arena.iter().skip(last - 3).map(|(_, at)| at).collect();
    assert_eq!(
        arrivals,
        [
            Some(SimTime::MAX),
            Some(SimTime::from_micros(4)),
            Some(SimTime::from_micros(5 + u64::from(u32::MAX))),
            Some(SimTime::from_micros(5 + (1 << 32))),
        ]
    );
}
