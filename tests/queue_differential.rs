//! Differential proptest: `EventQueue` against an ordered-map model.
//!
//! The queue's `(firing time, insertion sequence)` total FIFO order is a
//! contract every bit-identical-replay suite in the workspace leans on.
//! The queue keeps it with timer slots that carry their own keys (freed
//! on cancel, rewritten in place on reschedule) and per-source FIFO lanes
//! that take no slot — a pop scans the slot keys and the lane heads for
//! the least; the model keeps it with a `BTreeMap` keyed by `(time, seq)`,
//! whose ordering is one derived `Ord`. So: feed randomized schedule /
//! lane-schedule / single-slot-lane / cancel / reschedule / bounded-pop
//! interleavings to both and assert they agree on
//! **everything observable** — the popped `(time, seq, tag)` stream,
//! cancel return values and live counts. `reschedule` moves an entry in
//! place; the model spells out what it must equal: remove, then insert.
//! Any divergence is a queue bug by definition.

use hsm_simnet::agent::AgentId;
use hsm_simnet::event::{Event, EventId, EventKind, EventQueue};
use hsm_simnet::time::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The ordering contract, stated as directly as it can be.
#[derive(Default)]
struct Model {
    pending: BTreeMap<(SimTime, u64), u64>,
    next_seq: u64,
}

impl Model {
    fn schedule(&mut self, at: SimTime, tag: u64) -> (SimTime, u64) {
        let key = (at, self.next_seq);
        self.next_seq += 1;
        self.pending.insert(key, tag);
        key
    }

    fn cancel(&mut self, key: (SimTime, u64)) -> bool {
        self.pending.remove(&key).is_some()
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, u64, u64)> {
        let (at, seq) = *self.pending.keys().next()?;
        (at <= deadline).then(|| (at, seq, self.pending.remove(&(at, seq)).expect("peeked")))
    }
}

/// As many lanes as a duplex MPTCP world has (two paths × two directions
/// × a delivery and a tx-complete lane); a campaign flow has four.
const LANES: usize = 8;

/// One scripted queue operation. Times are deltas so the generator can
/// never violate the monotonicity invariant (schedules land at or after
/// the last fired instant).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `last_fired + dt`.
    Schedule { dt: u64 },
    /// Schedule in `lane` at `dt` past the lane's latest time — or, when
    /// `rewind` is set, at `last_fired + dt`, which is usually *below*
    /// the lane's tail and must take the fallback path.
    Lane { lane: usize, dt: u64, rewind: bool },
    /// Schedule in `lane` at `last_fired + dt`, but only while nothing
    /// scheduled through that lane is pending — the engine's `LinkReady`
    /// pattern, a lane that never holds two events.
    Slot { lane: usize, dt: u64 },
    /// Cancel the k-th newest live id (no-op when none are live) — or,
    /// when `dead` is set, re-cancel an already-dead id to check the
    /// `false` path agrees too.
    Cancel { k: usize, dead: bool },
    /// Re-arm the k-th newest live id at `last_fired + dt` (the RTO
    /// pattern) — or, when `dead` is set, a fired or cancelled id, which
    /// must come out as a plain schedule.
    Reschedule { k: usize, dt: u64, dead: bool },
    /// Pop one event from both and compare everything.
    Pop,
    /// Pop with a deadline `last_fired + dt` (exercises the "leave it
    /// queued" path).
    PopBefore { dt: u64 },
}

/// Time deltas from same-instant to far future (the RTO-sized and
/// "effectively never" timers that sit deep in the heap).
fn arb_dt() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4,
        0u64..4096,
        0u64..1_000_000_000,
        1_000_000_000_000u64..2_000_000_000_000,
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_dt().prop_map(|dt| Op::Schedule { dt }),
        arb_dt().prop_map(|dt| Op::Schedule { dt }),
        (0..LANES, 0u64..2000, 0u64..4).prop_map(|(lane, dt, r)| Op::Lane {
            lane,
            dt,
            rewind: r == 0
        }),
        (0..LANES, 0u64..2000, 0u64..4).prop_map(|(lane, dt, r)| Op::Lane {
            lane,
            dt,
            rewind: r == 0
        }),
        (0..LANES, arb_dt()).prop_map(|(lane, dt)| Op::Slot { lane, dt }),
        (0usize..64, 0u64..2).prop_map(|(k, d)| Op::Cancel { k, dead: d == 1 }),
        (0usize..64, arb_dt(), 0u64..4).prop_map(|(k, dt, d)| Op::Reschedule {
            k,
            dt,
            dead: d == 0
        }),
        Just(Op::Pop),
        Just(Op::Pop),
        arb_dt().prop_map(|dt| Op::PopBefore { dt }),
    ]
}

fn ev(at: SimTime, tag: u64) -> Event {
    Event {
        at,
        dst: AgentId::from_raw(0),
        kind: EventKind::Timer { tag },
    }
}

/// A cancellable event as `(queue id, model key)`.
type Handle = (EventId, (SimTime, u64));

/// The queue and the model side by side, plus what the script needs to
/// stay legal (live handles, lane tails, the last fired instant).
#[derive(Default)]
struct Pair {
    queue: EventQueue,
    model: Model,
    live: Vec<Handle>,
    dead: Vec<Handle>,
    lane_tail: [u64; LANES],
    /// Pending events scheduled through each lane, and the lane each tag
    /// went through (tags are issued in order, so they index this).
    lane_pending: [usize; LANES],
    lane_of: Vec<Option<usize>>,
    last_fired: u64,
    next_tag: u64,
}

impl Pair {
    /// Pops both sides under `deadline` and compares; false when empty
    /// or past the deadline (on both sides alike).
    fn pop_before(&mut self, deadline: SimTime) -> bool {
        let got = self.queue.pop_before(deadline);
        let want = self.model.pop_before(deadline);
        let got_key = got.map(|(_, e)| match e.kind {
            EventKind::Timer { tag } => (e.at, tag),
            _ => unreachable!("script schedules only timers"),
        });
        assert_eq!(got_key, want.map(|(at, _, tag)| (at, tag)), "pop diverged");
        let Some((at, seq, tag)) = want else {
            return false;
        };
        // Tags are issued in schedule order, so they double as the
        // sequence the queue does not expose.
        assert_eq!(tag, seq);
        assert!(at.as_micros() >= self.last_fired, "time ran backwards");
        self.last_fired = at.as_micros();
        if let Some(lane) = self.lane_of[tag as usize] {
            self.lane_pending[lane] -= 1;
        }
        if let Some(i) = self.live.iter().position(|(_, key)| *key == (at, seq)) {
            let id = got.expect("compared above").0;
            assert_eq!(self.live[i].0, id, "popped id is not the issued one");
            self.dead.push(self.live.remove(i));
        }
        true
    }

    fn schedule_in_lane(&mut self, lane: usize, at_us: u64) {
        let at = SimTime::from_micros(at_us);
        self.lane_tail[lane] = self.lane_tail[lane].max(at_us);
        self.lane_pending[lane] += 1;
        self.lane_of[self.next_tag as usize] = Some(lane);
        self.queue.schedule_in_lane(lane, ev(at, self.next_tag));
        self.model.schedule(at, self.next_tag);
    }

    fn apply(&mut self, op: Op) {
        // Every scheduling op below issues exactly the tag `next_tag`.
        self.lane_of.resize(self.next_tag as usize + 1, None);
        match op {
            Op::Schedule { dt } => {
                let at = SimTime::from_micros(self.last_fired.saturating_add(dt));
                let id = self.queue.schedule(ev(at, self.next_tag));
                self.live.push((id, self.model.schedule(at, self.next_tag)));
                self.next_tag += 1;
            }
            Op::Lane { lane, dt, rewind } => {
                let base = if rewind {
                    self.last_fired
                } else {
                    self.last_fired.max(self.lane_tail[lane])
                };
                self.schedule_in_lane(lane, base + dt);
                self.next_tag += 1;
            }
            Op::Slot { lane, dt } if self.lane_pending[lane] == 0 => {
                self.schedule_in_lane(lane, self.last_fired.saturating_add(dt));
                self.next_tag += 1;
            }
            Op::Slot { .. } => {}
            Op::Cancel { k, dead: true } if !self.dead.is_empty() => {
                let (id, key) = self.dead[k % self.dead.len()];
                assert!(!self.queue.cancel(id), "queue revived a dead id");
                assert!(!self.model.cancel(key));
            }
            Op::Cancel { k, .. } if !self.live.is_empty() => {
                let newest = self.live.len() - 1;
                let (id, key) = self.live.remove(newest - k % self.live.len());
                assert!(self.queue.cancel(id), "queue lost a live id");
                assert!(self.model.cancel(key));
                self.dead.push((id, key));
            }
            Op::Cancel { .. } => {}
            Op::Reschedule { k, dt, dead } => {
                let old = if dead && !self.dead.is_empty() {
                    Some(self.dead[k % self.dead.len()])
                } else if !self.live.is_empty() {
                    let newest = self.live.len() - 1;
                    let old = self.live.remove(newest - k % self.live.len());
                    self.dead.push(old);
                    Some(old)
                } else {
                    None
                };
                if let Some((old_id, old_key)) = old {
                    let at = SimTime::from_micros(self.last_fired.saturating_add(dt));
                    let id = self.queue.reschedule(old_id, ev(at, self.next_tag));
                    assert!(!self.queue.is_pending(old_id), "the old id survived");
                    self.model.cancel(old_key);
                    self.live.push((id, self.model.schedule(at, self.next_tag)));
                    self.next_tag += 1;
                }
            }
            Op::Pop => {
                self.pop_before(SimTime::MAX);
            }
            Op::PopBefore { dt } => {
                self.pop_before(SimTime::from_micros(self.last_fired.saturating_add(dt)));
            }
        }
        assert_eq!(self.queue.len(), self.model.pending.len(), "len diverged");
        assert!(self.live.iter().all(|(id, _)| self.queue.is_pending(*id)));
    }
}

/// Drives the queue and the model through one op script, asserting
/// observable equivalence after every step and through the final drain.
fn run_script(ops: &[Op]) {
    let mut pair = Pair::default();
    ops.iter().for_each(|op| pair.apply(*op));
    while pair.pop_before(SimTime::MAX) {}
    assert!(pair.queue.is_empty() && pair.live.is_empty());
}

proptest! {
    #[test]
    fn queue_and_model_pop_identically(ops in proptest::collection::vec(arb_op(), 1..300)) {
        run_script(&ops);
    }
}

/// Same-instant events that reach the queue by different routes — early
/// and late plain schedules, a lane append, a lane fallback — must still
/// fire in schedule order.
#[test]
fn cross_level_same_instant_script() {
    let ops = [
        Op::Schedule { dt: 0 },   // t=0, tag 0
        Op::Schedule { dt: 100 }, // t=100, tag 1
        Op::Lane {
            lane: 0,
            dt: 100,
            rewind: false,
        }, // t=100, tag 2: lane head
        Op::Lane {
            lane: 0,
            dt: 50,
            rewind: false,
        }, // t=150, tag 3: queued behind it
        Op::Pop,                  // fires tag 0
        Op::Schedule { dt: 60 },  // t=60, tag 4
        Op::Pop,                  // fires tag 4
        Op::Schedule { dt: 40 },  // t=100, tag 5
        Op::Lane {
            lane: 0,
            dt: 40,
            rewind: true,
        }, // t=100, tag 6: below the lane's tail → plain insert
        Op::Schedule { dt: 40 },  // t=100, tag 7
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
        Op::Pop,
    ];
    run_script(&ops);
}

/// One instant reached through everything the queue has: the heap, a
/// delivery-style lane, a single-slot lane, a second lane's head, and a
/// rewound lane entry that lands in the heap *behind* lane entries of the
/// same instant. Nothing but the sequence separates them.
#[test]
fn same_instant_heap_two_lanes_and_rewound_entry_script() {
    let lane = |lane, dt, rewind| Op::Lane { lane, dt, rewind };
    let ops = [
        Op::Schedule { dt: 300 },      // tag 0, heap
        lane(0, 300, false),           // tag 1, lane 0's head
        Op::Slot { lane: 7, dt: 300 }, // tag 2, lane 7's only entry
        Op::Schedule { dt: 300 },      // tag 3, heap
        lane(0, 0, false),             // tag 4, behind tag 1
        lane(2, 400, false),           // tag 5, t=400: lane 2's tail
        lane(2, 300, true),            // tag 6, t=300 < 400: plain insert
        Op::Slot { lane: 7, dt: 300 }, // lane 7 is taken: nothing
        lane(0, 0, false),             // tag 7, t=300
        Op::PopBefore { dt: 299 },     // leaves everything queued
        Op::Pop,                       // tag 0
        Op::Pop,                       // tag 1
        Op::Pop,                       // tag 2: lane 7 drains
        Op::Slot { lane: 7, dt: 0 },   // tag 8, t=300 again
        Op::Pop,                       // tag 3
        Op::Pop,                       // tag 4
        Op::Pop,                       // tag 6
        Op::Pop,                       // tag 7
        Op::Pop,                       // tag 8
        Op::Pop,                       // tag 5 at t=400
    ];
    let mut pair = Pair::default();
    ops.iter().for_each(|op| pair.apply(*op));
    assert_eq!((pair.next_tag, pair.last_fired), (9, 400));
    assert!(pair.queue.is_empty() && pair.model.pending.is_empty());
}

/// Schedule-then-cancel churn (the RTO pattern) mixed with deliveries
/// and pops: every cancel removes a far-future entry from under the
/// near ones.
#[test]
fn rto_churn_script() {
    let mut ops = Vec::new();
    for i in 0..200 {
        ops.push(Op::Schedule { dt: 200_000 + i });
        ops.push(Op::Cancel { k: 0, dead: false });
        ops.push(Op::Schedule { dt: 63 });
        // The same churn done in place: the far timer moves nearer and
        // back out, from wherever the pops left it in the heap.
        ops.push(Op::Schedule { dt: 300_000 });
        ops.push(Op::Reschedule {
            k: 0,
            dt: i,
            dead: false,
        });
        ops.push(Op::Reschedule {
            k: 0,
            dt: 250_000 - i,
            dead: i % 7 == 0,
        });
        ops.push(Op::Lane {
            lane: i as usize % LANES,
            dt: 30,
            rewind: false,
        });
        ops.push(Op::Slot {
            lane: (i as usize + 1) % LANES,
            dt: 45,
        });
        if i % 3 == 0 {
            ops.push(Op::Pop);
        }
    }
    run_script(&ops);
}
