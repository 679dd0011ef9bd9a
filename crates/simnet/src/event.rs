//! Future event list.
//!
//! A flow keeps about thirty events pending (measured mean depth 27, peak
//! 67 over the 255-flow Table I campaign), nine in ten of them link events
//! that are never cancelled, and at most three timers (the sender's RTO
//! and stop, the receiver's delayed ACK), so the queue is two scanned
//! arrays:
//!
//! * a **slab of timer slots**, for the cancellable events. A pending slot
//!   carries its own `(time, sequence)` key and a free one reads the
//!   empty key, so [`EventQueue::schedule`], [`EventQueue::cancel`] and
//!   [`EventQueue::reschedule`] are each one slot write — one schedule in
//!   four is a timer, half of those a retransmission timer re-armed by an
//!   ACK. Freed slots are reused last-in first-out, so the slab is as long
//!   as the most timers ever pending at once;
//! * **FIFO lanes** ([`EventQueue::schedule_in_lane`]) for sources that
//!   schedule in non-decreasing time — each link's `Deliver` events and
//!   its pending `LinkReady`. A lane is a ring buffer plus a head key in a
//!   small array.
//!
//! A pop takes the least key by one scan over the lane heads and one over
//! the slot keys — O(lanes + slots), sized against a flow's 4 lanes and 3
//! timers and the largest world's 12 lanes (DESIGN.md §15). A world that
//! kept thousands of timers pending would pay for each on every pop.
//!
//! # Ordering contract
//!
//! Events fire strictly ordered by `(firing time, insertion sequence)`:
//! earlier times first, and events scheduled for the **same instant** in
//! the order they were scheduled (FIFO). The sequence is one queue-global
//! counter shared by both schedule paths, so the order is total,
//! deterministic, and independent of cancellation history and of which
//! events went through a lane — the property every bit-identical-replay
//! test in the workspace leans on.
//!
//! Lanes keep the contract without trusting the caller: a lane is sorted
//! by `(time, sequence)` because sequences only grow and an event *below*
//! the lane's tail time is not appended but takes a timer slot. A sorted
//! lane's head is its minimum, so the global minimum is a slot key or one
//! of the head keys. `tests/queue_differential.rs` checks randomized
//! interleavings against an ordered-map model.

use crate::agent::AgentId;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Unique handle of a scheduled event, usable for cancellation.
///
/// Internally packs the slab slot index and its generation; the raw value
/// is only meaningful for debugging/logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// Raw numeric value (mostly for debugging/logging).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    fn new(slot: u32, gen: u32) -> EventId {
        EventId((u64::from(slot) << 32) | u64::from(gen))
    }

    fn slot(self) -> usize {
        (self.0 >> 32) as usize
    }

    fn gen(self) -> u32 {
        self.0 as u32
    }
}

/// What a fired event means to the destination agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A packet finished traversing a link and arrives at the agent.
    Deliver {
        /// Arena id of the arriving packet; the engine materializes the
        /// full [`Packet`](crate::packet::Packet) from its
        /// [`PacketArena`](crate::arena::PacketArena) at delivery time.
        packet: crate::packet::PacketId,
        /// The link it traversed — used for the recorded event and for the
        /// per-link packet-conservation invariant.
        link: crate::link::LinkId,
    },
    /// A timer set by the agent expired.
    Timer {
        /// Agent-defined tag passed back verbatim.
        tag: u64,
    },
    /// A link that was busy transmitting is ready for the next packet.
    LinkReady(crate::link::LinkId),
}

/// A scheduled event: at `at`, deliver `kind` to `dst`.
///
/// `Copy` by design: every payload is a compact handle (timer tag, link
/// id, packet arena id), so the queue stores and returns events without
/// moving heap data.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Firing time.
    pub at: SimTime,
    /// Destination agent (ignored for [`EventKind::LinkReady`]).
    pub dst: AgentId,
    /// Payload.
    pub kind: EventKind,
}

/// Cheap per-queue telemetry: schedule/cancel volume and live depth,
/// maintained with two adds and a compare per schedule.
///
/// Campaign runners sum these over flows (the `simnet.event.*` ledger rows),
/// so the choice of queue structure rests on measured depth and timer churn.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct QueueStats {
    /// Events scheduled.
    pub schedules: u64,
    /// Events cancelled before firing.
    pub cancels: u64,
    /// Peak number of live (pending) events.
    pub max_depth: usize,
    /// Sum of the live depth sampled after every schedule; divide by
    /// `schedules` for the mean depth the queue operated at.
    pub depth_sum: u64,
}

impl QueueStats {
    /// Mean live depth over all schedules (0 when nothing was scheduled).
    pub fn mean_depth(&self) -> f64 {
        self.depth_sum as f64 / self.schedules.max(1) as f64
    }

    /// Fraction of schedules cancelled before firing — the RTO churn that
    /// makes a cancel in place (no tombstones) worth a slot per timer.
    pub fn cancel_ratio(&self) -> f64 {
        self.cancels as f64 / self.schedules.max(1) as f64
    }

    /// Folds another queue's counters into this one (campaign totals).
    pub fn merge(&mut self, other: &QueueStats) {
        self.schedules += other.schedules;
        self.cancels += other.cancels;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.depth_sum += other.depth_sum;
    }
}

/// The ordering key: `(firing time, insertion sequence)`.
type Key = (SimTime, u64);
/// Key of an empty lane and of a free slot: sorts after every real key.
const EMPTY: Key = (SimTime::MAX, u64::MAX);
/// The id popped with a lane event: no slab slot, so never pending.
const LANE_EVENT: EventId = EventId(u64::MAX);

/// One slab slot: the pending timer's key ([`EMPTY`] while the slot is
/// free), its payload and the generation that validates ids pointing at it.
#[derive(Debug)]
struct Slot {
    key: Key,
    gen: u32,
    event: Option<Event>,
}

/// The future event list.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Timer slots, scanned by key on every pop; `free` lists the free
    /// ones, the last freed on top.
    slab: Vec<Slot>,
    free: Vec<u32>,
    /// Per-lane `(seq, event)` queues, each sorted by `(at, seq)`.
    lanes: Vec<VecDeque<(u64, Event)>>,
    /// `heads[i]` is the key of lane *i*'s front, or [`EMPTY`]: one slot
    /// per lane used since construction or `reset` (`lanes` only grows).
    heads: Vec<Key>,
    live: usize,
    next_seq: u64,
    stats: QueueStats,
    /// Firing time of the last popped event. Debug/test builds refuse a
    /// schedule below it: time running backwards corrupts every statistic.
    #[cfg(any(debug_assertions, test))]
    last_popped: SimTime,
}

/// The position and value of the first least key, or `(0, EMPTY)` when
/// there is none: a pop's one way of choosing, over the lane heads and
/// over the slot keys alike. A plain compare: forcing a conditional move
/// (`select_unpredictable`) chains every key on the one before and made a
/// flow 8–10 % slower.
fn least(keys: impl Iterator<Item = Key>) -> (usize, Key) {
    keys.enumerate().fold(
        (0, EMPTY),
        |best, (i, key)| if key < best.1 { (i, key) } else { best },
    )
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule/cancel/depth counters since construction or `reset`.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Schedules `event` and returns its cancellation handle. Debug/test
    /// builds panic if it fires earlier than an event already popped.
    pub fn schedule(&mut self, event: Event) -> EventId {
        let key = (event.at, self.admit(event.at));
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(Slot {
                key: EMPTY,
                gen: 0,
                event: None,
            });
            (self.slab.len() - 1) as u32
        });
        let s = &mut self.slab[slot as usize];
        (s.key, s.event) = (key, Some(event));
        EventId::new(slot, s.gen)
    }

    /// Schedules `event` behind the earlier events of `lane`, for sources
    /// whose firing times never decrease (the engine gives each link a lane
    /// for its `Deliver` events and one for its `LinkReady`). It fires
    /// exactly where `schedule` would have put it — an event earlier than
    /// the lane's tail simply takes a timer slot — but is a ring-buffer
    /// append. Every pop reads a head key per lane in use, so lanes are for
    /// a few busy sources. Lane events cannot be cancelled, so no handle is
    /// returned.
    pub fn schedule_in_lane(&mut self, lane: usize, event: Event) {
        if lane >= self.heads.len() {
            self.heads.resize(lane + 1, EMPTY);
            if lane >= self.lanes.len() {
                self.lanes.resize_with(lane + 1, VecDeque::new);
            }
        }
        let tail = self.lanes[lane].back();
        if tail.is_some_and(|(_, tail)| event.at < tail.at) {
            self.schedule(event);
            return;
        }
        let seq = self.admit(event.at);
        self.lanes[lane].push_back((seq, event));
        // Appended to a sorted lane: the least key unless the lane was empty.
        self.heads[lane] = self.heads[lane].min((event.at, seq));
    }

    /// Clears the queue for reuse, keeping every allocation. Otherwise
    /// indistinguishable from a fresh queue: the insertion sequence restarts
    /// at zero, previously issued [`EventId`]s are dead, no lane is in use.
    pub fn reset(&mut self) {
        self.slab.clear();
        self.free.clear();
        self.lanes.iter_mut().for_each(VecDeque::clear);
        self.heads.clear();
        self.live = 0;
        self.next_seq = 0;
        self.stats = QueueStats::default();
        #[cfg(any(debug_assertions, test))]
        {
            self.last_popped = SimTime::ZERO;
        }
    }

    /// Cancels a scheduled event, freeing its slot. Returns `false` if it
    /// already fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.is_pending(id) {
            return false;
        }
        self.retire(id.slot() as u32);
        self.stats.cancels += 1;
        true
    }

    /// Replaces the pending event `id` by `event`, returning the new
    /// handle. Indistinguishable from [`EventQueue::cancel`] followed by
    /// [`EventQueue::schedule`] — `event` takes the next global sequence
    /// number, the counters move as for one cancel and one schedule, and
    /// the handle is the one `schedule` would have issued, because a
    /// cancel frees the slot `schedule` takes next — but the slot is
    /// rewritten where it is, without passing through the free list. A dead
    /// `id` makes this a plain `schedule`.
    pub fn reschedule(&mut self, id: EventId, event: Event) -> EventId {
        if !self.is_pending(id) {
            return self.schedule(event);
        }
        // The cancel's half of the live count and the schedule's cancel
        // out; `admit` does the schedule's bookkeeping on the live count
        // the pair would have left.
        self.live -= 1;
        self.stats.cancels += 1;
        let key = (event.at, self.admit(event.at));
        let s = &mut self.slab[id.slot()];
        s.gen = s.gen.wrapping_add(1);
        (s.key, s.event) = (key, Some(event));
        EventId::new(id.slot() as u32, s.gen)
    }

    /// True if `id` was scheduled and has neither fired nor been cancelled.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.slab
            .get(id.slot())
            .is_some_and(|s| s.gen == id.gen() && s.event.is_some())
    }

    /// Pops the next event.
    pub fn pop(&mut self) -> Option<(EventId, Event)> {
        self.pop_before(SimTime::MAX)
    }

    /// Pops the next event if it fires at or before `deadline`, else leaves
    /// it queued. The returned id is dead; a lane event's was never alive.
    /// Inlined into the engine's loop: out of line the 40-byte result is
    /// stored and reloaded at another width, a stall per event (DESIGN §15).
    #[inline]
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(EventId, Event)> {
        let (lane, head) = least(self.heads.iter().copied());
        let (slot, timer) = least(self.slab.iter().map(|s| s.key));
        // Keys are unique (sequences are), so at most one side is least.
        let at = timer.min(head).0;
        if at > deadline || self.live == 0 {
            return None;
        }
        #[cfg(any(debug_assertions, test))]
        {
            assert!(at >= self.last_popped, "queue popped out of order");
            self.last_popped = at;
        }
        if timer < head {
            return Some(self.retire(slot as u32));
        }
        let queued = &mut self.lanes[lane];
        let (_, event) = queued.pop_front().expect("a head key is its lane's front");
        self.heads[lane] = queued.front().map_or(EMPTY, |&(seq, next)| (next.at, seq));
        self.live -= 1;
        Some((LANE_EVENT, event))
    }

    /// Both schedule paths: monotonicity check, telemetry, next sequence.
    fn admit(&mut self, _at: SimTime) -> u64 {
        #[cfg(any(debug_assertions, test))]
        assert!(
            _at >= self.last_popped,
            "event-queue time monotonicity violated: scheduling an event at \
             {_at:?} after already firing one at {:?}",
            self.last_popped,
        );
        self.live += 1;
        self.stats.schedules += 1;
        self.stats.depth_sum += self.live as u64;
        self.stats.max_depth = self.stats.max_depth.max(self.live);
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Frees a live slab slot (fired or cancelled), killing its id.
    fn retire(&mut self, slot: u32) -> (EventId, Event) {
        let s = &mut self.slab[slot as usize];
        let fired = (
            EventId::new(slot, s.gen),
            s.event.take().expect("retiring a live slot"),
        );
        (s.key, s.gen) = (EMPTY, s.gen.wrapping_add(1));
        self.free.push(slot);
        self.live -= 1;
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    impl EventQueue {
        /// Lanes in use since construction or `reset`: what a pop scans.
        pub(crate) fn lanes_scanned(&self) -> usize {
            self.heads.len()
        }
    }

    fn ev(at_us: u64, tag: u64) -> Event {
        Event {
            at: SimTime::from_micros(at_us),
            dst: AgentId::from_raw(0),
            kind: EventKind::Timer { tag },
        }
    }

    fn tag_of(e: &Event) -> u64 {
        let EventKind::Timer { tag } = e.kind else {
            panic!("not a timer");
        };
        tag
    }

    fn drain(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect()
    }

    /// The structural invariants the module docs promise.
    fn assert_invariants(q: &EventQueue) {
        // A live slot's key is its event's; a free slot's sorts last, so
        // the pop scan never picks it, and it is on the free list.
        for (i, slot) in q.slab.iter().enumerate() {
            match slot.event {
                Some(e) => assert_eq!(slot.key.0, e.at, "slot {i}: stale key"),
                None => assert_eq!(slot.key, EMPTY, "slot {i}: free but keyed"),
            }
        }
        let live_slots = q.slab.iter().filter(|s| s.event.is_some()).count();
        let in_lanes: usize = q.lanes.iter().map(VecDeque::len).sum();
        assert_eq!(q.free.len(), q.slab.len() - live_slots);
        assert_eq!(q.len(), live_slots + in_lanes);
        // Every lane is sorted and its head key is its front's; a lane
        // without a head slot (not used since the reset) is empty.
        assert!(q.heads.len() <= q.lanes.len());
        for (i, lane) in q.lanes.iter().enumerate() {
            let keys: Vec<Key> = lane.iter().map(|(seq, e)| (e.at, *seq)).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "lane out of order");
            let head = q.heads.get(i).copied().unwrap_or(EMPTY);
            assert_eq!(head, keys.first().copied().unwrap_or(EMPTY), "lane {i}");
        }
    }

    #[test]
    fn pops_in_time_order_fifo_within_an_instant() {
        // One instant, plain and lane schedules interleaved, some
        // cancelled, freed slots reused: pops follow schedule order.
        let mut q = EventQueue::new();
        q.schedule(ev(u64::MAX, 999)); // the "disabled timer" sentinel
        let mut ids = Vec::new();
        for tag in 0..100 {
            match tag % 3 {
                0 => q.schedule_in_lane(tag as usize % 2, ev(500, tag)),
                _ => ids.push((tag, q.schedule(ev(500, tag)))),
            }
        }
        for &(_, id) in ids.iter().filter(|(tag, _)| tag % 5 == 0) {
            assert!(q.cancel(id));
        }
        q.schedule(ev(20, 997));
        for tag in 100..130 {
            q.schedule(ev(500, tag)); // reuses freed slots
        }
        assert_invariants(&q);
        let mut expected = vec![997];
        expected.extend((0..100u64).filter(|t| t % 3 == 0 || t % 5 != 0));
        expected.extend((100..130).chain([999]));
        assert_eq!(drain(&mut q), expected);
    }

    #[test]
    fn cancel_the_first_a_middle_and_the_last_id_and_a_dead_id() {
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (0..20).map(|i| q.schedule(ev(10 + i, i))).collect();
        let (first, middle, last) = (ids[0], ids[9], ids[19]);
        assert!(q.is_pending(last) && q.cancel(last), "last");
        assert!(!q.is_pending(last) && !q.cancel(last), "double cancel");
        assert_invariants(&q);
        assert!(q.cancel(first), "first: the event the next pop would take");
        assert_invariants(&q);
        assert!(q.cancel(middle), "middle");
        assert_invariants(&q);
        assert_eq!((q.len(), q.free.len()), (17, 3), "cancelled slots are free");
        let stats = q.stats();
        assert_eq!((stats.schedules, stats.cancels), (20, 3));
        assert_eq!((stats.mean_depth(), stats.cancel_ratio()), (10.5, 0.15));
        let mut twice = stats;
        twice.merge(&stats);
        assert_eq!((twice.depth_sum, twice.max_depth), (420, 20));
        let (fired, _) = q.pop().unwrap();
        assert_eq!(fired, ids[1], "the least key left");
        assert!(!q.is_pending(fired) && !q.cancel(fired), "fired");
        let reused = q.schedule(ev(50, 50)); // takes the fired event's slot
        assert_eq!(reused.slot(), fired.slot(), "the last freed slot first");
        assert!(!q.cancel(fired) && q.is_pending(reused), "stale id");
    }

    #[test]
    #[should_panic(expected = "time monotonicity")]
    fn scheduling_into_the_fired_past_trips_the_invariant() {
        let mut q = EventQueue::new();
        q.schedule(ev(10, 1));
        q.pop().unwrap();
        q.schedule(ev(10, 2)); // the same instant is legal
        q.schedule(ev(5, 3));
    }

    #[test]
    fn lane_takes_no_slot_and_falls_back_when_time_decreases() {
        let mut q = EventQueue::new();
        for tag in 0..10 {
            q.schedule_in_lane(3, ev(100 + 10 * tag, tag));
        }
        assert_eq!((q.len(), q.slab.len()), (10, 0));
        assert_eq!(q.lanes_scanned(), 4, "lanes 0..=3 have a head slot");
        assert_eq!(q.heads[3], (SimTime::from_micros(100), 0));
        q.schedule_in_lane(3, ev(125, 10)); // below the tail: a timer slot
        assert_eq!((q.len(), q.slab.len(), q.lanes[3].len()), (11, 1, 10));
        q.schedule(ev(110, 11)); // same instant as a queued lane entry
        assert_invariants(&q);
        assert!(q.pop_before(SimTime::from_micros(99)).is_none());
        let (id, first) = q.pop_before(SimTime::from_micros(100)).unwrap();
        assert_eq!(tag_of(&first), 0);
        assert!(!q.is_pending(id) && !q.cancel(id), "lane ids are inert");
        assert_eq!(q.heads[3], (SimTime::from_micros(110), 1), "next front");
        // A second lane, a single-slot one refilled as it drains (the
        // `LinkReady` pattern), interleaves by the same keys.
        q.schedule_in_lane(1, ev(110, 12));
        let mut fired = Vec::new();
        while let Some((_, e)) = q.pop() {
            fired.push(tag_of(&e));
            if tag_of(&e) == 12 {
                q.schedule_in_lane(1, ev(135, 13));
            }
            assert_invariants(&q);
        }
        assert_eq!(fired, vec![1, 11, 12, 2, 10, 3, 13, 4, 5, 6, 7, 8, 9]);
        assert_eq!(q.heads, vec![EMPTY; 4], "drained lanes read empty");
        assert!(q.pop().is_none() && q.pop_before(SimTime::MAX).is_none());
        q.schedule_in_lane(3, ev(500, 14)); // an emptied lane starts over
        q.schedule(ev(u64::MAX, 15)); // `SimTime::MAX` still sorts before EMPTY
        let live_slots = q.slab.len() - q.free.len();
        assert_eq!((live_slots, drain(&mut q)), (1, vec![14, 15]));
    }

    #[test]
    fn re_armed_and_fired_timers_keep_the_slab_at_two_slots() {
        // A pop scans every slot, so the slab must stay as short as the
        // timers pending at once: a sender's RTO re-armed on every ACK,
        // beside a receiver's delayed ACK that is scheduled and fires.
        let mut q = EventQueue::new();
        let mut rto = q.schedule(ev(1_000, 0));
        for ack in 1..=10_000 {
            let now = 10 * ack;
            q.schedule_in_lane(0, ev(now + 7, 2));
            let delack = q.schedule(ev(now + 5, 1));
            rto = q.reschedule(rto, ev(now + 1_000, 0));
            let (fired, e) = q.pop().unwrap();
            assert_eq!((fired, tag_of(&e)), (delack, 1), "ack {ack}");
            assert_eq!(tag_of(&q.pop().unwrap().1), 2);
        }
        assert!(
            q.is_pending(rto) && q.slab.len() <= 2,
            "{} slots",
            q.slab.len()
        );
        assert_invariants(&q);
        let stats = q.stats();
        assert_eq!((stats.schedules, stats.cancels), (30_001, 10_000));
        // A reset forgets the slots: nothing stale is scanned.
        q.reset();
        assert!(q.slab.is_empty() && q.free.is_empty() && q.pop().is_none());
        assert!(!q.is_pending(rto));
        let fresh = q.schedule(ev(3, 3));
        assert_eq!((q.slab.len(), fresh), (1, EventId::new(0, 0)));
        assert_eq!(q.pop().map(|(id, e)| (id, tag_of(&e))), Some((fresh, 3)));
    }

    #[test]
    fn invariants_hold_through_seeded_churn() {
        // Pop order under churn is tests/queue_differential.rs's job. The
        // twin does cancel + schedule wherever `q` reschedules, and must
        // be told apart by nothing: ids, pops, counters.
        let mut rng = SimRng::seed_from_u64(12);
        let (mut q, mut twin) = (EventQueue::new(), EventQueue::new());
        let mut live: Vec<EventId> = Vec::new();
        let mut now = 0u64;
        for tag in 0..10_000 {
            let mut at = now + rng.range_u64(0, 50_000);
            match rng.range_u64(0, 12) {
                0..=2 => {
                    live.push(q.schedule(ev(at, tag)));
                    assert_eq!(twin.schedule(ev(at, tag)), *live.last().unwrap());
                }
                lane @ 3..=4 => {
                    // Rarely below the lane's tail: the fallback path.
                    let tail = q.lanes.get(lane as usize).and_then(|l| l.back());
                    if let Some((_, tail)) = tail.filter(|_| !rng.chance(0.2)) {
                        at = at.max(tail.at.as_micros());
                    }
                    q.schedule_in_lane(lane as usize, ev(at, tag));
                    twin.schedule_in_lane(lane as usize, ev(at, tag));
                }
                5..=6 if !live.is_empty() => {
                    let id = live.swap_remove(rng.range_u64(0, live.len() as u64) as usize);
                    assert!(q.cancel(id) && twin.cancel(id));
                }
                7..=8 if !live.is_empty() => {
                    let i = rng.range_u64(0, live.len() as u64) as usize;
                    let moved = q.reschedule(live[i], ev(at, tag));
                    assert!(twin.cancel(live[i]) && !q.is_pending(live[i]));
                    assert_eq!(
                        twin.schedule(ev(at, tag)),
                        moved,
                        "not the id schedule issues"
                    );
                    live[i] = moved;
                }
                _ => {
                    let popped = q.pop();
                    let twin_popped = twin.pop().map(|(id, e)| (id, e.at, tag_of(&e)));
                    assert_eq!(popped.map(|(id, e)| (id, e.at, tag_of(&e))), twin_popped);
                    if let Some((id, e)) = popped {
                        now = e.at.as_micros();
                        live.retain(|l| *l != id);
                    }
                }
            }
            assert_invariants(&q);
            assert_eq!(q.stats(), twin.stats());
        }
        assert!(q.stats().cancels > 2_000 && q.len() > 8, "no churn");
        // A fired or cancelled id reschedules as a plain schedule: one
        // more event, nothing counted as cancelled.
        let (fired, _) = q.pop().unwrap();
        let (len, cancels) = (q.len(), q.stats().cancels);
        let fresh = q.reschedule(fired, ev(now + 50_000, 0));
        assert!(q.is_pending(fresh) && !q.is_pending(fired));
        assert_eq!((q.len(), q.stats().cancels), (len + 1, cancels));
        assert_invariants(&q);
    }

    #[test]
    fn reset_queue_behaves_like_fresh() {
        // A recycled queue must replay a fresh one exactly (ids, order).
        let drive = |q: &mut EventQueue| -> Vec<(u64, u64)> {
            q.schedule(ev(10, 1));
            let b = q.schedule(ev(10, 2));
            q.schedule_in_lane(1, ev(10, 3));
            q.schedule(ev(5, 0));
            assert!(q.cancel(b));
            std::iter::from_fn(|| q.pop())
                .map(|(id, e)| (id.as_u64(), tag_of(&e)))
                .collect()
        };
        let fresh_run = drive(&mut EventQueue::new());
        // Dirty one: fired, cancelled, live leftovers in slots and lanes.
        let mut recycled = EventQueue::new();
        let dead = recycled.schedule(ev(7, 9));
        recycled.schedule(ev(1, 8));
        recycled.pop().unwrap();
        recycled.cancel(dead);
        recycled.schedule(ev(99, 7));
        recycled.schedule_in_lane(1, ev(50, 6));
        recycled.schedule_in_lane(1, ev(60, 5));
        recycled.schedule_in_lane(7, ev(70, 4));
        recycled.reset();
        assert!(recycled.is_empty() && recycled.pop().is_none());
        // The head keys are forgotten, the lane buffers are not.
        assert_eq!((recycled.lanes_scanned(), recycled.lanes.len()), (0, 8));
        assert!(recycled.lanes[1].capacity() >= 2);
        assert!(!recycled.is_pending(dead), "pre-reset ids must be dead");
        assert_eq!(recycled.stats(), QueueStats::default());
        assert_invariants(&recycled);
        assert_eq!(drive(&mut recycled), fresh_run);
        assert_eq!(recycled.lanes_scanned(), 2, "only the lanes `drive` used");
        assert_invariants(&recycled);
    }
}
