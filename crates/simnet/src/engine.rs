//! The discrete-event engine.
//!
//! [`Engine`] owns the clock, the future event list, all [`Link`]s, all
//! [`Agent`]s and the [`PacketArena`]. Agents interact with the world
//! through the [`Ctx`] passed to their callbacks: sending packets onto links,
//! scheduling/cancelling timers and drawing random numbers. What a link's
//! channel does over the run — handoff outages, fading, storm windows — is
//! its [`Timeline`](crate::timeline::Timeline), written with
//! [`Engine::impose`] before the run starts; nothing writes a link while it
//! runs.
//!
//! # Hot path
//!
//! The per-event loop is engineered to avoid allocation entirely and to
//! walk dense memory:
//!
//! * a packet is one 32-byte row of the [`PacketArena`], written when it
//!   is sent — ids are arena indices, links queue 16-byte [`QueuedPacket`]
//!   handles, `Deliver` events carry a bare id, and the full [`Packet`] is
//!   materialized from its row only for [`Agent::on_packet`]. The
//!   `Deliver` arm stamps the arrival time into the row it is reading and
//!   the two drop sites mark theirs, so the arena is the run's only
//!   capture, and a caller that runs in slices drains the landed packets'
//!   rows between them ([`Engine::drain_settled`]);
//! * the [`EventQueue`]'s timer slots hold only the agents' timers, each
//!   slot keyed by its timer: a cancel frees its slot on the spot and a
//!   re-armed timer ([`Ctx::reschedule_in`]) rewrites its own. Link events
//!   never take a slot — link *i*'s `Deliver` events wait in FIFO lane
//!   `2i`, its one pending `LinkReady` in lane `2i + 1`, and a pop scans
//!   the few slot keys and lane heads for the least (see the `event`
//!   module docs);
//! * dispatch is one deadline-bounded pop per event — the engine's only
//!   queue read — so an event stays in the queue, cancellable, until the
//!   moment it fires.
//!
//! # Failure model
//!
//! Internal bookkeeping corruption (a vanished queue entry, a ready link
//! with nothing in flight, a delivery with none pending) surfaces as a
//! structured [`SimError`] from [`Engine::try_run_until`] instead of
//! panicking, so campaign runners can fail one flow and keep the process
//! alive. The infallible [`Engine::run_until`] wrapper panics on those
//! errors and is fine for tests and examples.
//!
//! # Examples
//!
//! ```
//! use hsm_simnet::prelude::*;
//!
//! #[derive(Default)]
//! struct Echo { got: u64 }
//! impl Agent for Echo {
//!     fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) { self.got += 1; }
//! }
//!
//! let mut eng = Engine::new(42);
//! let echo = eng.add_agent(Box::new(Echo::default()));
//! let link = eng.add_link(LinkSpec::new(echo, "wire"));
//! eng.inject(link, Packet::data(FlowId(0), SeqNo(0), false));
//! eng.run_until_idle();
//! assert_eq!(eng.agent_mut::<Echo>(echo).unwrap().got, 1);
//! ```

use crate::agent::{Agent, AgentId};
use crate::arena::{PacketArena, Rows};
use crate::error::SimError;
use crate::event::{Event, EventId, EventKind, EventQueue, QueueStats};
use crate::link::{Accept, Buffers, Link, LinkId, LinkSpec, QueuedPacket};
use crate::packet::{Packet, PacketId};
use crate::rng::{RngFactory, SimRng};
use crate::time::{SimDuration, SimTime};
use crate::timeline::Impairment;
use std::any::Any;

/// Everything an agent may touch from inside a callback.
pub struct Ctx<'a> {
    core: &'a mut Core,
    id: AgentId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Sends `packet` onto `link`. The engine stamps the packet id and send
    /// time. Returns the stamped id.
    pub fn send(&mut self, link: LinkId, packet: Packet) -> PacketId {
        self.core.send_packet(link, packet)
    }

    /// Schedules a timer for this agent `after` from now; `tag` is returned
    /// verbatim in [`Agent::on_timer`].
    pub fn schedule_in(&mut self, after: SimDuration, tag: u64) -> EventId {
        let at = self.core.now + after;
        self.core.queue.schedule(Event {
            at,
            dst: self.id,
            kind: EventKind::Timer { tag },
        })
    }

    /// Moves the pending timer `id` to `after` from now under a new `tag`
    /// — exactly [`Ctx::cancel_timer`] followed by [`Ctx::schedule_in`]
    /// (same firing order, same returned id, same queue statistics), but
    /// the timer's queue slot is rewritten in place. A timer that already
    /// fired or was cancelled is simply scheduled afresh.
    pub fn reschedule_in(&mut self, id: EventId, after: SimDuration, tag: u64) -> EventId {
        let at = self.core.now + after;
        self.core.queue.reschedule(
            id,
            Event {
                at,
                dst: self.id,
                kind: EventKind::Timer { tag },
            },
        )
    }

    /// Cancels a pending timer. Returns `false` if it already fired or was
    /// already cancelled.
    pub fn cancel_timer(&mut self, id: EventId) -> bool {
        self.core.queue.cancel(id)
    }

    /// This agent's private random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.agent_rngs[self.id.as_usize()]
    }

    /// Requests the engine stop after the current event.
    pub fn stop(&mut self) {
        self.core.stop_requested = true;
    }
}

struct Core {
    now: SimTime,
    queue: EventQueue,
    links: Vec<Link>,
    agent_rngs: Vec<SimRng>,
    link_rngs: Vec<SimRng>,
    rng_factory: RngFactory,
    /// One row per stamped packet; ids are row indices, so `arena.len()`
    /// is also the next packet id.
    arena: PacketArena,
    stop_requested: bool,
    events_processed: u64,
    /// Queue and timeline buffers of links retired by [`Engine::reset`],
    /// handed back to links registered after the reset so a recycled
    /// engine wires itself without reallocating.
    spare_buffers: Vec<Buffers>,
}

impl Core {
    fn send_packet(&mut self, link_id: LinkId, mut packet: Packet) -> PacketId {
        packet.id = PacketId(self.arena.len() as u64);
        packet.sent_at = self.now;
        let idx = link_id.as_usize();
        let handle = QueuedPacket {
            id: self.arena.push(&packet),
            size_bytes: packet.size_bytes,
        };
        debug_assert_eq!(handle.id, packet.id, "arena row diverged from id");
        match self.links[idx].offer(handle) {
            Accept::StartTx => self.start_tx(link_id, handle),
            Accept::Queued => {}
            Accept::DroppedOverflow(dropped) => self.arena.drop_packet(dropped.id),
        }
        handle.id
    }

    /// Schedules the `LinkReady` that ends the transmission of `packet`,
    /// which `link_id` has just taken in flight. A link transmits one
    /// packet at a time, so its tx-complete lane never holds two events.
    fn start_tx(&mut self, link_id: LinkId, packet: QueuedPacket) {
        let link = &mut self.links[link_id.as_usize()];
        let event = Event {
            at: self.now + link.tx_time(packet.size_bytes),
            dst: link.to,
            kind: EventKind::LinkReady(link_id),
        };
        self.queue
            .schedule_in_lane(2 * link_id.as_usize() + 1, event);
    }

    fn link_ready(&mut self, link_id: LinkId) -> Result<(), SimError> {
        let idx = link_id.as_usize();
        let Some((done, next)) = self.links[idx].try_complete_tx() else {
            return Err(SimError::LinkIdle { link: link_id });
        };
        // Chain the next transmission, if any.
        if let Some(next) = next {
            self.start_tx(link_id, next);
        }
        // Decide the fate of the completed packet.
        let Some(latency) = self.links[idx].fate(self.now, &mut self.link_rngs[idx]) else {
            self.links[idx].channel_drops += 1;
            self.arena.drop_packet(done.id);
            return Ok(());
        };
        // FIFO: jitter must not let packets overtake each other — which
        // also makes this link's deliveries a non-decreasing sequence, so
        // they queue in the link's delivery lane instead of a timer slot.
        let at = (self.now + latency).max(self.links[idx].last_delivery);
        self.links[idx].last_delivery = at;
        self.links[idx].deliver_pending += 1;
        let dst = self.links[idx].to;
        self.queue.schedule_in_lane(
            2 * idx,
            Event {
                at,
                dst,
                kind: EventKind::Deliver {
                    packet: done.id,
                    link: link_id,
                },
            },
        );
        Ok(())
    }
}

/// The simulation engine. See the module docs for an example.
pub struct Engine {
    core: Core,
    agents: Vec<Option<Box<dyn Agent>>>,
    started: bool,
}

impl Engine {
    /// Creates an engine whose every random stream derives from
    /// `master_seed`.
    pub fn new(master_seed: u64) -> Engine {
        Engine {
            core: Core {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                links: Vec::new(),
                agent_rngs: Vec::new(),
                link_rngs: Vec::new(),
                rng_factory: RngFactory::new(master_seed),
                arena: PacketArena::new(),
                stop_requested: false,
                events_processed: 0,
                spare_buffers: Vec::new(),
            },
            agents: Vec::new(),
            started: false,
        }
    }

    /// Returns the engine to its just-constructed state under a new master
    /// seed while keeping every recyclable allocation: the event queue's
    /// slab and lane capacity, the packet arena's rows, link queue
    /// and timeline buffers, and the agent/link/RNG vectors' capacity.
    ///
    /// All agents and links are dropped (re-register them), and
    /// every random stream re-derives from `master_seed` — a reset engine
    /// replays a fresh `Engine::new(master_seed)` bit for bit. Campaign
    /// workers lean on this to reuse one engine across thousands of flows.
    pub fn reset(&mut self, master_seed: u64) {
        self.core.now = SimTime::ZERO;
        self.core.queue.reset();
        self.core
            .spare_buffers
            .extend(self.core.links.drain(..).map(Link::into_buffers));
        self.core.agent_rngs.clear();
        self.core.link_rngs.clear();
        self.core.rng_factory = RngFactory::new(master_seed);
        self.core.arena.clear();
        self.core.stop_requested = false;
        self.core.events_processed = 0;
        self.agents.clear();
        self.started = false;
    }

    /// Registers an agent and returns its id.
    pub fn add_agent(&mut self, agent: Box<dyn Agent>) -> AgentId {
        let id = AgentId::from_raw(self.agents.len() as u32);
        let label = format!("agent.{}", id.as_usize());
        self.core
            .agent_rngs
            .push(self.core.rng_factory.stream(&label));
        self.agents.push(Some(agent));
        id
    }

    /// Registers a link and returns its id.
    pub fn add_link(&mut self, spec: LinkSpec) -> LinkId {
        let id = LinkId::from_raw(self.core.links.len() as u32);
        let label = format!("link.{}", id.as_usize());
        self.core
            .link_rngs
            .push(self.core.rng_factory.stream(&label));
        let buffers = self.core.spare_buffers.pop().unwrap_or_default();
        self.core
            .links
            .push(Link::from_spec_with_buffers(spec, buffers));
        id
    }

    /// Adds `impairment` to `link`'s
    /// [`Timeline`](crate::timeline::Timeline) over `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics once the run has started — a timeline is the link's schedule
    /// for the whole run — or if a loss probability is outside `[0, 1]`.
    pub fn impose(&mut self, link: LinkId, from: SimTime, until: SimTime, impairment: Impairment) {
        assert!(
            !self.started,
            "a link's timeline is written before the run starts"
        );
        self.core.links[link.as_usize()]
            .timeline
            .impose(from, until, impairment);
    }

    /// Injects a packet onto a link from outside any agent (used by tests
    /// and wiring code before the simulation starts).
    pub fn inject(&mut self, link: LinkId, packet: Packet) -> PacketId {
        self.core.send_packet(link, packet)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Event-queue telemetry for this run: schedule/cancel volume, peak
    /// and mean live depth. Campaign runners aggregate it into the simnet
    /// bench baseline so timer-churn regressions are visible.
    pub fn queue_stats(&self) -> QueueStats {
        self.core.queue.stats()
    }

    /// Read-only view of the packet arena: every packet stamped this run
    /// and not drained, with its delivery time, one row per [`PacketId`] —
    /// the capture the trace layer folds.
    pub fn arena(&self) -> &PacketArena {
        &self.core.arena
    }

    /// Hands the arena's settled rows — packets delivered or dropped — to
    /// `f` in id order, up to the first packet still queued or in flight,
    /// and lets the arena reuse their chunks: a caller that runs the
    /// engine in slices of time and drains between them holds the rows in
    /// flight, not the whole run. See [`PacketArena::drain_settled`].
    pub fn drain_settled(&mut self, f: impl FnOnce(Rows<'_>)) {
        self.core.arena.drain_settled(f);
    }

    /// True when no event is pending: running on would process nothing.
    pub fn is_idle(&self) -> bool {
        self.core.queue.is_empty()
    }

    /// Immutable view of a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.core.links[id.as_usize()]
    }

    /// Concrete-typed mutable access to an agent (after or between runs).
    ///
    /// Returns `None` if the id is unknown or the concrete type differs.
    pub fn agent_mut<T: Agent>(&mut self, id: AgentId) -> Option<&mut T> {
        let slot = self.agents.get_mut(id.as_usize())?;
        let agent = slot.as_mut()?;
        let any: &mut dyn Any = agent.as_mut();
        any.downcast_mut::<T>()
    }

    /// Runs until the event queue drains, `deadline` passes, or an agent
    /// calls [`Ctx::stop`]. Returns the number of events processed by this
    /// call.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the engine's internal bookkeeping is
    /// corrupt (see the module docs). The run must then be discarded.
    pub fn try_run_until(&mut self, deadline: SimTime) -> Result<u64, SimError> {
        let mut processed = 0;
        if !self.started {
            self.started = true;
            for idx in 0..self.agents.len() {
                self.with_agent(AgentId::from_raw(idx as u32), |agent, ctx| {
                    agent.on_start(ctx)
                });
            }
        }
        while !self.core.stop_requested {
            let Some((_, event)) = self.core.queue.pop_before(deadline) else {
                break;
            };
            debug_assert!(event.at >= self.core.now, "event in the past");
            self.core.now = event.at;
            self.core.events_processed += 1;
            processed += 1;
            match event.kind {
                EventKind::LinkReady(link) => self.core.link_ready(link)?,
                EventKind::Deliver { packet, link } => {
                    let l = &mut self.core.links[link.as_usize()];
                    l.deliver_pending = l
                        .deliver_pending
                        .checked_sub(1)
                        .ok_or(SimError::DeliverUnderflow { link })?;
                    l.delivered += 1;
                    let packet = self.core.arena.deliver(packet, self.core.now);
                    self.with_agent(event.dst, |agent, ctx| agent.on_packet(ctx, packet));
                }
                EventKind::Timer { tag } => {
                    self.with_agent(event.dst, |agent, ctx| agent.on_timer(ctx, tag));
                }
            }
        }
        // Cross-layer invariant: no link may have lost or duplicated a
        // packet. Cheap (one pass over the links), so we verify after every
        // run in debug/test builds.
        #[cfg(any(debug_assertions, test))]
        for link in &self.core.links {
            link.assert_conservation();
        }
        Ok(processed)
    }

    /// Infallible twin of [`Engine::try_run_until`].
    ///
    /// # Panics
    ///
    /// Panics if the engine reports a [`SimError`] — campaign runners that
    /// must survive a corrupt run use the fallible twin instead.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        match self.try_run_until(deadline) {
            Ok(processed) => processed,
            Err(e) => panic!("simulation engine invariant violated: {e}"),
        }
    }

    /// Runs until the event queue drains or an agent stops the engine.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the engine's internal bookkeeping is
    /// corrupt (see the module docs).
    pub fn try_run_until_idle(&mut self) -> Result<u64, SimError> {
        self.try_run_until(SimTime::MAX)
    }

    /// Infallible twin of [`Engine::try_run_until_idle`].
    ///
    /// # Panics
    ///
    /// Panics if the engine reports a [`SimError`].
    pub fn run_until_idle(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// True once an agent has requested a stop.
    pub fn stopped(&self) -> bool {
        self.core.stop_requested
    }

    fn with_agent(&mut self, id: AgentId, f: impl FnOnce(&mut dyn Agent, &mut Ctx<'_>)) {
        let Some(slot) = self.agents.get_mut(id.as_usize()) else {
            return;
        };
        let Some(mut agent) = slot.take() else { return };
        let mut ctx = Ctx {
            core: &mut self.core,
            id,
        };
        f(agent.as_mut(), &mut ctx);
        self.agents[id.as_usize()] = Some(agent);
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.core.now)
            .field("agents", &self.agents.len())
            .field("links", &self.core.links.len())
            .field("pending_events", &self.core.queue.len())
            .field("events_processed", &self.core.events_processed)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Corrupts `link`'s conservation ledger, so tests can prove the
    /// invariant actually fires.
    pub(crate) fn inject_conservation_violation(eng: &mut Engine, link: LinkId) {
        eng.core.links[link.as_usize()].offered += 1;
    }
    use crate::loss::LossModel;
    use crate::packet::{FlowId, SeqNo};

    /// Sends `count` packets spaced by a timer, records delivery times.
    struct Pinger {
        link: LinkId,
        count: u64,
        sent: u64,
    }
    impl Agent for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule_in(SimDuration::ZERO, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            if self.sent < self.count {
                ctx.send(self.link, Packet::data(FlowId(0), SeqNo(self.sent), false));
                self.sent += 1;
                ctx.schedule_in(SimDuration::from_millis(1), 0);
            }
        }
    }

    struct Sink {
        deliveries: Vec<SimTime>,
    }
    impl Agent for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _p: Packet) {
            self.deliveries.push(ctx.now());
        }
    }

    fn build(seed: u64, loss_p: f64, count: u64) -> (Engine, AgentId) {
        let mut eng = Engine::new(seed);
        let sink = eng.add_agent(Box::new(Sink {
            deliveries: Vec::new(),
        }));
        let link = eng.add_link(
            LinkSpec::new(sink, "wire")
                .bandwidth_bps(12_000_000)
                .prop_delay(SimDuration::from_millis(10))
                .loss(LossModel::Bernoulli(loss_p)),
        );
        let pinger = eng.add_agent(Box::new(Pinger {
            link,
            count,
            sent: 0,
        }));
        let _ = pinger;
        (eng, sink)
    }

    #[test]
    fn packets_arrive_after_tx_plus_prop_delay() {
        let (mut eng, sink) = build(1, 0.0, 1);
        eng.run_until_idle();
        let sink = eng.agent_mut::<Sink>(sink).unwrap();
        assert_eq!(sink.deliveries.len(), 1);
        // 1500 bytes at 12 Mbit/s = 1 ms tx + 10 ms prop = 11 ms.
        assert_eq!(sink.deliveries[0], SimTime::from_millis(11));
    }

    #[test]
    fn lossy_link_drops_roughly_expected_fraction() {
        let (mut eng, sink) = build(7, 0.3, 3000);
        eng.run_until_idle();
        let delivered = eng.agent_mut::<Sink>(sink).unwrap().deliveries.len() as f64;
        let rate = 1.0 - delivered / 3000.0;
        assert!((rate - 0.3).abs() < 0.05, "loss rate {rate}");
        let drops = eng.link(LinkId::from_raw(0)).channel_drops;
        assert_eq!(drops as f64 + delivered, 3000.0);
    }

    #[test]
    fn identical_seeds_reproduce_exactly() {
        let trace = |seed| {
            let (mut eng, sink) = build(seed, 0.2, 500);
            eng.run_until_idle();
            eng.agent_mut::<Sink>(sink).unwrap().deliveries.clone()
        };
        assert_eq!(trace(99), trace(99));
        assert_ne!(trace(99), trace(100));
    }

    #[test]
    fn reset_engine_replays_a_fresh_engine_bit_for_bit() {
        // Same seed, same wiring: a recycled engine must reproduce a fresh
        // engine's full observable behaviour — delivery times, arena rows
        // (packet ids, send and arrival times), event counts.
        let wire = |eng: &mut Engine| -> AgentId {
            let sink = eng.add_agent(Box::new(Sink {
                deliveries: Vec::new(),
            }));
            let link = eng.add_link(
                LinkSpec::new(sink, "wire")
                    .bandwidth_bps(12_000_000)
                    .prop_delay(SimDuration::from_millis(10))
                    .loss(LossModel::Bernoulli(0.2)),
            );
            eng.add_agent(Box::new(Pinger {
                link,
                count: 400,
                sent: 0,
            }));
            sink
        };

        let mut fresh = Engine::new(42);
        let sink = wire(&mut fresh);
        fresh.run_until_idle();
        let fresh_deliveries = fresh.agent_mut::<Sink>(sink).unwrap().deliveries.clone();
        let fresh_rows: Vec<_> = fresh.arena().iter().collect();
        let fresh_count = fresh.events_processed();

        // Dirty an engine with a different seed and a many-link world
        // (eight lanes), stop it mid-flight with packets still queued in
        // the delivery lanes and a transmission (a `LinkReady` in its
        // tx-complete lane) under way, then reset it to 42.
        let mut recycled = Engine::new(7);
        let junk_sink = wire(&mut recycled);
        for _ in 0..3 {
            let spare = recycled.add_link(LinkSpec::new(junk_sink, "spare"));
            recycled.inject(spare, Packet::data(FlowId(9), SeqNo(0), false));
        }
        recycled.run_until(SimTime::from_millis(100));
        let first = recycled.link(LinkId::from_raw(0));
        let in_lane = first.deliver_pending;
        assert!(in_lane > 1, "only {in_lane} deliveries in flight at reset");
        assert!(first.is_busy(), "no tx-complete pending at reset");
        assert_eq!(recycled.core.queue.lanes_scanned(), 8);
        recycled.reset(42);
        assert_eq!(recycled.events_processed(), 0);
        assert_eq!(recycled.now(), SimTime::ZERO);
        assert_eq!(recycled.core.queue.lanes_scanned(), 0);
        let sink2 = wire(&mut recycled);
        recycled.run_until_idle();
        // The single-link run pops past its own two lanes, not the eight
        // the previous tenant left.
        assert_eq!(recycled.core.queue.lanes_scanned(), 2);
        assert_eq!(
            recycled.agent_mut::<Sink>(sink2).unwrap().deliveries,
            fresh_deliveries
        );
        assert_eq!(recycled.arena().iter().collect::<Vec<_>>(), fresh_rows);
        assert_eq!(recycled.events_processed(), fresh_count);
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut eng, _sink) = build(1, 0.0, 100);
        eng.run_until(SimTime::from_millis(5));
        assert!(eng.now() <= SimTime::from_millis(5));
        let before = eng.events_processed();
        eng.run_until_idle();
        assert!(eng.events_processed() > before);
    }

    struct Stopper;
    impl Agent for Stopper {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule_in(SimDuration::from_millis(1), 7);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            assert_eq!(tag, 7);
            ctx.stop();
        }
    }

    #[test]
    fn agent_can_stop_engine() {
        let mut eng = Engine::new(0);
        eng.add_agent(Box::new(Stopper));
        eng.run_until_idle();
        assert!(eng.stopped());
        assert_eq!(eng.now(), SimTime::from_millis(1));
    }

    #[test]
    fn timer_cancellation_prevents_firing() {
        struct Cancels {
            fired: bool,
        }
        impl Agent for Cancels {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let a = ctx.schedule_in(SimDuration::from_millis(1), 1);
                ctx.schedule_in(SimDuration::from_millis(2), 2);
                assert!(ctx.cancel_timer(a));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
                assert_eq!(tag, 2, "cancelled timer fired");
                self.fired = true;
            }
        }
        let mut eng = Engine::new(0);
        let id = eng.add_agent(Box::new(Cancels { fired: false }));
        eng.run_until_idle();
        assert!(eng.agent_mut::<Cancels>(id).unwrap().fired);
    }

    #[test]
    fn rescheduled_timer_fires_once_at_its_new_time_under_its_new_tag() {
        struct Rearms {
            fired: Vec<(SimTime, u64)>,
        }
        impl Agent for Rearms {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let a = ctx.schedule_in(SimDuration::from_millis(5), 1);
                ctx.schedule_in(SimDuration::from_millis(7), 2);
                let b = ctx.reschedule_in(a, SimDuration::from_millis(9), 3);
                assert!(!ctx.cancel_timer(a), "the old handle is dead");
                // Re-arming a dead handle is a plain schedule.
                let c = ctx.reschedule_in(a, SimDuration::from_millis(1), 4);
                assert_ne!(b, c);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                self.fired.push((ctx.now(), tag));
            }
        }
        let mut eng = Engine::new(0);
        let id = eng.add_agent(Box::new(Rearms { fired: Vec::new() }));
        eng.run_until_idle();
        let ms = SimTime::from_millis;
        assert_eq!(
            eng.agent_mut::<Rearms>(id).unwrap().fired,
            vec![(ms(1), 4), (ms(7), 2), (ms(9), 3)]
        );
        let stats = eng.queue_stats();
        assert_eq!((stats.schedules, stats.cancels), (4, 1));
    }

    #[test]
    fn same_instant_cancel_suppresses_sibling() {
        // Two timers at the same instant; the first one's callback cancels
        // the second. Events leave the queue one at a time, so the sibling
        // is still queued: the cancel reports true, and the timer neither
        // fires nor counts as processed.
        struct SiblingCancel {
            second: Option<EventId>,
            fired: Vec<u64>,
            cancel_ok: Option<bool>,
        }
        impl Agent for SiblingCancel {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule_in(SimDuration::from_millis(1), 1);
                self.second = Some(ctx.schedule_in(SimDuration::from_millis(1), 2));
                ctx.schedule_in(SimDuration::from_millis(1), 3);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                self.fired.push(tag);
                if tag == 1 {
                    let id = self.second.take().unwrap();
                    self.cancel_ok = Some(ctx.cancel_timer(id));
                    assert!(!ctx.cancel_timer(id), "double cancel must be false");
                }
            }
        }
        let mut eng = Engine::new(0);
        let id = eng.add_agent(Box::new(SiblingCancel {
            second: None,
            fired: Vec::new(),
            cancel_ok: None,
        }));
        let processed = eng.run_until_idle();
        let agent = eng.agent_mut::<SiblingCancel>(id).unwrap();
        assert_eq!(agent.fired, vec![1, 3], "cancelled timer must not fire");
        assert_eq!(agent.cancel_ok, Some(true), "same-instant cancel succeeds");
        assert_eq!(processed, 2, "cancelled event is not counted");
        assert_eq!(eng.events_processed(), 2);
    }

    #[test]
    fn same_instant_tx_complete_delivery_and_timer_fire_in_schedule_order() {
        // One instant (2 ms) holds an event from each of the queue's three
        // sources — a delivery lane, a tx-complete lane and a timer slot:
        // the delivery is the sink's log, the tx-complete the channel drop
        // of a link that loses everything, the timer the marker row of the
        // packet its callback sends. A witness — the sink on the delivery
        // or the timer's callback — stops the engine, which leaves exactly
        // the events up to its own behind it.
        const MARK: FlowId = FlowId(7);
        enum Act {
            Send(LinkId),
            Timer { after_us: u64, tag: u64 },
        }
        struct Scripted {
            on_start: Vec<Act>,
            on_tag_zero: Vec<Act>,
            mark: LinkId,
            stop: bool,
        }
        impl Scripted {
            fn run(acts: &[Act], ctx: &mut Ctx<'_>) {
                for act in acts {
                    match *act {
                        Act::Send(link) => {
                            ctx.send(link, Packet::data(FlowId(0), SeqNo(0), false));
                        }
                        Act::Timer { after_us, tag } => {
                            ctx.schedule_in(SimDuration::from_micros(after_us), tag);
                        }
                    }
                }
            }
        }
        impl Agent for Scripted {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                Scripted::run(&self.on_start, ctx);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                match tag {
                    0 => Scripted::run(&self.on_tag_zero, ctx),
                    _ => {
                        ctx.send(self.mark, Packet::data(MARK, SeqNo(0), false));
                        if self.stop {
                            ctx.stop();
                        }
                    }
                }
            }
        }
        struct StopSink {
            deliveries: Vec<SimTime>,
            stop: bool,
        }
        impl Agent for StopSink {
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, _p: Packet) {
                self.deliveries.push(ctx.now());
                if self.stop {
                    ctx.stop();
                }
            }
        }
        #[derive(Clone, Copy, PartialEq)]
        enum Witness {
            Delivery,
            Timer,
            Neither,
        }
        let (delivered, dropped, sent) = ("delivered on wire", "dropped on lossy", "sent on mark");
        type Script = fn(LinkId, LinkId) -> [Vec<Act>; 2];
        // `wire`: 1 ms to clock a packet out, 1 ms to propagate. `lossy`
        // takes `lossy_tx_us` to clock one out, then destroys it. Returns
        // the events that happened before the run stopped.
        let run = |lossy_tx_us: u64, script: Script, witness: Witness| {
            let mut eng = Engine::new(1);
            let sink = eng.add_agent(Box::new(StopSink {
                deliveries: Vec::new(),
                stop: witness == Witness::Delivery,
            }));
            let link = |label: &str, tx_us: u64| {
                LinkSpec::new(sink, label).bandwidth_bps(1500 * 8 * 1_000_000 / tx_us)
            };
            let wire = eng.add_link(link("wire", 1000).prop_delay(SimDuration::from_millis(1)));
            let lossy = eng.add_link(link("lossy", lossy_tx_us).loss(LossModel::Bernoulli(1.0)));
            let mark = eng.add_link(link("mark", 1000));
            let [on_start, on_tag_zero] = script(wire, lossy);
            eng.add_agent(Box::new(Scripted {
                on_start,
                on_tag_zero,
                mark,
                stop: witness == Witness::Timer,
            }));
            eng.run_until(SimTime::from_millis(2));
            assert_eq!(eng.stopped(), witness != Witness::Neither);
            assert_eq!(eng.now(), SimTime::from_millis(2));
            let at_two = [SimTime::from_millis(2)];
            let mut seen = Vec::new();
            let deliveries = &eng.agent_mut::<StopSink>(sink).unwrap().deliveries;
            if !deliveries.is_empty() {
                assert_eq!(deliveries, &at_two);
                seen.push(delivered);
            }
            if eng.link(lossy).channel_drops > 0 {
                seen.push(dropped);
            }
            let marks = eng.arena().iter().filter(|(p, _)| p.flow == MARK);
            let marks: Vec<SimTime> = marks.map(|(p, _)| p.sent_at).collect();
            if !marks.is_empty() {
                assert_eq!(marks, at_two);
                seen.push(sent);
            }
            seen
        };
        // Each witness's stop leaves its own event and those before it, so
        // their count is its place; the drop takes the place left over.
        let order = |lossy_tx_us: u64, script: Script| {
            assert_eq!(run(lossy_tx_us, script, Witness::Neither).len(), 3);
            let mut order = [dropped; 3];
            for (witness, event) in [(Witness::Delivery, delivered), (Witness::Timer, sent)] {
                let seen = run(lossy_tx_us, script, witness);
                assert!(seen.contains(&event), "{event} did not stop the run");
                order[seen.len() - 1] = event;
            }
            order
        };
        // Scheduled at 0 ms: tx-complete (2 ms of clocking), then the
        // timer; the delivery is scheduled when `wire` finishes at 1 ms.
        let first = order(2000, |wire, lossy| {
            let timer = Act::Timer {
                after_us: 2000,
                tag: 1,
            };
            [vec![Act::Send(wire), Act::Send(lossy), timer], vec![]]
        });
        assert_eq!(first, [dropped, sent, delivered]);
        // The delivery scheduled at 1 ms, then at 1.5 ms the timer and a
        // 0.5-ms transmission on `lossy`, in that order.
        let second = order(500, |wire, lossy| {
            let (phase_two, timer) = (
                Act::Timer {
                    after_us: 1500,
                    tag: 0,
                },
                Act::Timer {
                    after_us: 500,
                    tag: 1,
                },
            );
            [
                vec![Act::Send(wire), phase_two],
                vec![timer, Act::Send(lossy)],
            ]
        });
        assert_eq!(second, [delivered, sent, dropped]);
    }

    #[test]
    fn stop_leaves_same_instant_siblings_undispatched() {
        struct StopsOnFirst;
        impl Agent for StopsOnFirst {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for tag in 1..=3 {
                    ctx.schedule_in(SimDuration::from_millis(1), tag);
                }
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                assert_eq!(tag, 1, "a sibling fired after stop");
                ctx.stop();
            }
        }
        let mut eng = Engine::new(0);
        eng.add_agent(Box::new(StopsOnFirst));
        assert_eq!(eng.run_until_idle(), 1);
        assert_eq!(eng.events_processed(), 1);
        assert!(eng.stopped());
    }

    #[test]
    fn queue_stats_surface_schedule_and_cancel_counts() {
        let (mut eng, _sink) = build(1, 0.0, 10);
        eng.run_until_idle();
        let stats = eng.queue_stats();
        assert!(stats.schedules > 0);
        assert!(stats.max_depth >= 1);
        assert!(stats.mean_depth() > 0.0);
    }

    #[test]
    fn agent_mut_wrong_type_is_none() {
        let mut eng = Engine::new(0);
        let id = eng.add_agent(Box::new(Stopper));
        assert!(eng.agent_mut::<Sink>(id).is_none());
        assert!(eng.agent_mut::<Stopper>(id).is_some());
    }

    #[test]
    fn lossy_link_conserves_packets() {
        // injected = delivered + dropped, per link, after the queue drains.
        let (mut eng, _sink) = build(11, 0.25, 2000);
        eng.run_until_idle();
        let link = eng.link(LinkId::from_raw(0));
        assert_eq!(link.offered, 2000);
        assert_eq!(
            link.offered,
            link.delivered + link.channel_drops + link.overflow_drops
        );
        assert!(link.channel_drops > 0, "loss process never fired");
        assert_eq!(link.deliver_pending, 0);
    }

    #[test]
    #[should_panic(expected = "packet conservation violated")]
    fn conservation_check_fires_on_injected_violation() {
        let (mut eng, _sink) = build(1, 0.0, 5);
        eng.run_until_idle();
        inject_conservation_violation(&mut eng, LinkId::from_raw(0));
        // Any subsequent run re-checks the ledger and must refuse it.
        eng.run_until_idle();
    }

    #[test]
    fn corrupt_delivery_ledger_is_a_structured_error() {
        // Violation injection for the fallible path: force deliver_pending
        // to underflow and check the engine reports DeliverUnderflow
        // instead of panicking.
        struct Corruptor {
            link: LinkId,
        }
        impl Agent for Corruptor {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(self.link, Packet::data(FlowId(0), SeqNo(0), false));
                ctx.schedule_in(SimDuration::from_millis(5), 0);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                // The packet is propagating: a Deliver event is scheduled.
                // Zeroing the counter makes its arrival underflow.
                let link = &mut ctx.core.links[self.link.as_usize()];
                link.deliver_pending = 0;
                link.offered -= 1; // keep the conservation ledger quiet
            }
        }
        let mut eng = Engine::new(0);
        let sink = eng.add_agent(Box::new(Sink {
            deliveries: Vec::new(),
        }));
        let link =
            eng.add_link(LinkSpec::new(sink, "wire").prop_delay(SimDuration::from_millis(50)));
        eng.add_agent(Box::new(Corruptor { link }));
        let err = eng.try_run_until_idle().unwrap_err();
        assert_eq!(err, SimError::DeliverUnderflow { link });
    }

    #[test]
    fn queueing_serializes_transmissions() {
        // Two back-to-back packets on a slow link: second arrives one full
        // tx time after the first.
        let mut eng = Engine::new(3);
        let sink = eng.add_agent(Box::new(Sink {
            deliveries: Vec::new(),
        }));
        let link = eng.add_link(
            LinkSpec::new(sink, "slow")
                .bandwidth_bps(1_200_000) // 1500B -> 10 ms tx
                .prop_delay(SimDuration::from_millis(5)),
        );
        eng.inject(link, Packet::data(FlowId(0), SeqNo(0), false));
        eng.inject(link, Packet::data(FlowId(0), SeqNo(1), false));
        eng.run_until_idle();
        let d = &eng.agent_mut::<Sink>(sink).unwrap().deliveries;
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], SimTime::from_millis(15));
        assert_eq!(d[1], SimTime::from_millis(25));
    }
}
