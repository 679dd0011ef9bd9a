//! Point-to-point links.
//!
//! A [`Link`] models one direction of a network hop: a transmission rate,
//! a propagation delay (plus optional jitter), a drop-tail queue, a base
//! [`LossModel`], and a [`Timeline`] of what its channel adds over the run
//! (handoff outages and latency spikes, fading, storm windows). Together
//! they decide which packets the channel destroys and how late the others
//! arrive.
//!
//! Links are owned and driven by the engine; this module contains the
//! per-link state machine (idle / transmitting, queueing decisions) in a
//! directly testable form.

use crate::agent::AgentId;
use crate::loss::LossModel;
use crate::packet::PacketId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::timeline::Timeline;
use std::collections::VecDeque;

/// Identity of a link within an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(u32);

impl LinkId {
    /// Builds an id from a raw index. Minted by the engine; exposed for
    /// tests and wiring code.
    pub const fn from_raw(raw: u32) -> LinkId {
        LinkId(raw)
    }

    /// Raw index.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// Static description of a link, passed to
/// [`Engine::add_link`](crate::engine::Engine::add_link).
#[derive(Debug)]
pub struct LinkSpec {
    /// Agent that receives packets exiting this link.
    pub to: AgentId,
    /// Transmission rate in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: SimDuration,
    /// Standard deviation of per-packet delay jitter (0 disables).
    pub jitter_sd: SimDuration,
    /// Drop-tail queue capacity in packets (not counting the one in
    /// transmission).
    pub queue_capacity: usize,
    /// The channel's base loss model.
    pub loss: LossModel,
    /// Human-readable label ("downlink", "uplink", …) that the link's
    /// conservation check names when it fails.
    pub label: String,
}

impl LinkSpec {
    /// A sensible default: 50 Mbit/s, 15 ms delay, 100-packet queue,
    /// lossless — callers override what they need.
    pub fn new(to: AgentId, label: impl Into<String>) -> Self {
        LinkSpec {
            to,
            bandwidth_bps: 50_000_000,
            prop_delay: SimDuration::from_millis(15),
            jitter_sd: SimDuration::ZERO,
            queue_capacity: 100,
            loss: LossModel::Bernoulli(0.0),
            label: label.into(),
        }
    }

    /// Sets the bandwidth (builder style).
    pub fn bandwidth_bps(mut self, bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        self.bandwidth_bps = bps;
        self
    }

    /// Sets the propagation delay (builder style).
    pub fn prop_delay(mut self, d: SimDuration) -> Self {
        self.prop_delay = d;
        self
    }

    /// Sets the jitter standard deviation (builder style).
    pub fn jitter_sd(mut self, d: SimDuration) -> Self {
        self.jitter_sd = d;
        self
    }

    /// Sets the queue capacity (builder style).
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// Sets the base loss model (builder style).
    pub fn loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }
}

/// Dense handle a link moves instead of the full packet.
///
/// The packet's fields live in the engine's
/// [`PacketArena`](crate::arena::PacketArena); links only need the id (to
/// identify the packet downstream) and the on-wire size (to compute
/// transmission time), so queues and in-flight slots hold this 16-byte
/// pair and the hot path never copies a full [`Packet`](crate::packet::Packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedPacket {
    /// Arena id of the packet.
    pub id: PacketId,
    /// On-wire size in bytes (headers included).
    pub size_bytes: u32,
}

/// Outcome of offering a packet to a link.
///
/// Accepted packets are stored inside the link (in-flight slot or queue)
/// as compact [`QueuedPacket`] handles; a rejected one is handed back
/// inside [`Accept::DroppedOverflow`] so the caller can settle its arena
/// row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// Link was idle; transmission starts now.
    StartTx,
    /// Link busy; packet queued.
    Queued,
    /// Queue full; the packet is returned to the caller, dropped.
    DroppedOverflow(QueuedPacket),
}

/// Runtime state of a link.
#[derive(Debug)]
pub struct Link {
    /// Destination agent.
    pub to: AgentId,
    /// Transmission rate, bits per second. Fixed at construction: `last_tx`
    /// is computed from it.
    bandwidth_bps: u64,
    /// Base propagation delay.
    pub prop_delay: SimDuration,
    /// Jitter standard deviation, fixed at construction, and the same in
    /// seconds — what every jitter draw scales by.
    jitter_sd: SimDuration,
    jitter_sd_s: f64,
    /// The last size [`Link::tx_time`] was asked for and its answer: a
    /// link carries one flow's data segments or its ACKs, so consecutive
    /// sizes are nearly always equal.
    last_tx: (u32, SimDuration),
    /// The channel's base loss model.
    loss: LossModel,
    /// What the channel adds to the base loss and to `prop_delay` over the
    /// run, written before it starts.
    pub(crate) timeline: Timeline,
    /// The spec's label, named by the conservation check when it fails.
    pub label: String,
    queue_capacity: usize,
    queue: VecDeque<QueuedPacket>,
    in_flight: Option<QueuedPacket>,
    /// Packets dropped due to queue overflow.
    pub overflow_drops: u64,
    /// Packets offered to this link (accepted, queued or dropped alike).
    pub offered: u64,
    /// Packets destroyed by the channel loss process.
    pub channel_drops: u64,
    /// Packets handed to the destination agent.
    pub delivered: u64,
    /// Packets that finished transmission and are propagating (a `Deliver`
    /// event is scheduled but has not fired yet).
    pub deliver_pending: u64,
    /// Delivery time of the most recently delivered packet; used to keep
    /// the link FIFO under jitter (packets never overtake each other).
    pub last_delivery: SimTime,
}

impl Link {
    /// Instantiates runtime state from a spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec's loss model is invalid (see `LossModel::check`).
    pub fn from_spec(spec: LinkSpec) -> Link {
        Link::from_spec_with_buffers(spec, Buffers::default())
    }

    /// Like [`Link::from_spec`], but reusing previously allocated buffers
    /// (the engine's reset path feeds retired links' queues and timelines
    /// back in so a recycled engine wires its links without reallocating).
    pub(crate) fn from_spec_with_buffers(
        spec: LinkSpec,
        (mut queue, mut timeline): Buffers,
    ) -> Link {
        spec.loss.check();
        queue.clear();
        timeline.clear();
        Link {
            to: spec.to,
            bandwidth_bps: spec.bandwidth_bps,
            prop_delay: spec.prop_delay,
            jitter_sd: spec.jitter_sd,
            jitter_sd_s: spec.jitter_sd.as_secs_f64(),
            last_tx: (0, clock_out(spec.bandwidth_bps, 0)),
            loss: spec.loss,
            timeline,
            label: spec.label,
            queue_capacity: spec.queue_capacity,
            queue,
            in_flight: None,
            overflow_drops: 0,
            offered: 0,
            channel_drops: 0,
            delivered: 0,
            deliver_pending: 0,
            last_delivery: SimTime::ZERO,
        }
    }

    /// Transmission rate, bits per second.
    pub fn bandwidth_bps(&self) -> u64 {
        self.bandwidth_bps
    }

    /// Jitter standard deviation.
    pub fn jitter_sd(&self) -> SimDuration {
        self.jitter_sd
    }

    /// Time to clock `bytes` onto the wire at this link's rate.
    pub fn tx_time(&mut self, bytes: u32) -> SimDuration {
        if self.last_tx.0 != bytes {
            self.last_tx = (bytes, clock_out(self.bandwidth_bps, bytes));
        }
        self.last_tx.1
    }

    /// Offers a packet handle. If `StartTx` is returned the engine must
    /// begin a transmission (the handle is stored as in-flight); `Queued`
    /// stores it in the queue; `DroppedOverflow` hands the handle back for
    /// drop reporting.
    pub fn offer(&mut self, packet: QueuedPacket) -> Accept {
        self.offered += 1;
        if self.in_flight.is_none() {
            self.in_flight = Some(packet);
            Accept::StartTx
        } else if self.queue.len() < self.queue_capacity {
            self.queue.push_back(packet);
            Accept::Queued
        } else {
            self.overflow_drops += 1;
            Accept::DroppedOverflow(packet)
        }
    }

    /// Completes the in-flight transmission, returning the transmitted
    /// packet handle and, if the queue is non-empty, the next handle which
    /// immediately becomes in-flight; `None` when nothing was in flight (an
    /// engine bookkeeping bug, which the engine fails the run on as a
    /// structured error).
    pub fn try_complete_tx(&mut self) -> Option<(QueuedPacket, Option<QueuedPacket>)> {
        let done = self.in_flight.take()?;
        if let Some(next) = self.queue.pop_front() {
            self.in_flight = Some(next);
        }
        Some((done, self.in_flight))
    }

    /// Consumes the link and hands back its buffers for reuse by the next
    /// link registered on a recycled engine.
    pub(crate) fn into_buffers(self) -> Buffers {
        (self.queue, self.timeline)
    }

    /// True while a packet is being clocked onto the wire.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Number of packets waiting behind the in-flight one.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Checks the packet-conservation invariant: every packet offered to
    /// the link is exactly one of delivered, dropped (overflow or channel)
    /// or still in transit (queued, transmitting, or propagating). The
    /// engine calls this after every run in debug/test builds; a violation
    /// means the engine lost or duplicated a packet.
    ///
    /// # Panics
    ///
    /// Panics when the accounts do not balance.
    #[cfg(any(debug_assertions, test))]
    pub fn assert_conservation(&self) {
        let in_transit =
            self.queue.len() as u64 + u64::from(self.in_flight.is_some()) + self.deliver_pending;
        let accounted = self.delivered + self.overflow_drops + self.channel_drops + in_transit;
        assert!(
            self.offered == accounted,
            "packet conservation violated on link '{}': offered {} != \
             delivered {} + overflow {} + channel {} + in-transit {}",
            self.label,
            self.offered,
            self.delivered,
            self.overflow_drops,
            self.channel_drops,
            in_transit,
        );
    }

    /// The fate of the packet whose transmission ends at `now`: `None` if
    /// the timeline's overlay loss, the base model *or* the timeline's extra
    /// loss destroys it — all three drawn, so a Gilbert–Elliott chain
    /// advances at the same packet cadence in an outage and out of it —
    /// else its latency: propagation, the timeline's delay and jitter.
    pub(crate) fn fate(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimDuration> {
        let held = self.timeline.at(now);
        let by_overlay = rng.chance(held.overlay);
        let by_base = self.loss.is_lost(now, rng);
        let by_extra = rng.chance(held.extra);
        if by_overlay || by_base || by_extra {
            return None;
        }
        let delay = self.prop_delay + held.delay;
        Some(if self.jitter_sd.is_zero() {
            delay
        } else {
            delay + SimDuration::from_secs_f64(rng.rectified_normal(self.jitter_sd_s))
        })
    }
}

/// A link's queue and timeline, kept across an engine reset.
pub(crate) type Buffers = (VecDeque<QueuedPacket>, Timeline);

/// Time to clock `bytes` onto a `bandwidth_bps` wire, rounded up to the
/// next microsecond so tiny packets still take time.
fn clock_out(bandwidth_bps: u64, bytes: u32) -> SimDuration {
    let bits = u64::from(bytes) * 8;
    let us = (bits * 1_000_000).div_ceil(bandwidth_bps).max(1);
    SimDuration::from_micros(us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Impairment;

    fn spec(cap: usize) -> LinkSpec {
        LinkSpec::new(AgentId::from_raw(1), "test")
            .bandwidth_bps(8_000_000) // 1 byte per microsecond
            .prop_delay(SimDuration::from_millis(10))
            .queue_capacity(cap)
    }

    fn link(cap: usize) -> Link {
        Link::from_spec(spec(cap))
    }

    fn pkt(id: u64) -> QueuedPacket {
        QueuedPacket {
            id: PacketId(id),
            size_bytes: 1500,
        }
    }

    #[test]
    fn tx_time_scales_with_size() {
        let mut l = link(10);
        assert_eq!(l.bandwidth_bps(), 8_000_000);
        // Repeated and alternating sizes: the remembered answer is only
        // ever returned for the size it was computed for.
        for bytes in [1500, 1500, 40, 1500, 40, 40, 0, 1, 0] {
            assert_eq!(l.tx_time(bytes), clock_out(8_000_000, bytes), "{bytes} B");
        }
        assert_eq!(l.tx_time(1500).as_micros(), 1500);
        assert_eq!(l.tx_time(40).as_micros(), 40);
        // Rounds up, minimum 1us — also for the size a new link remembers.
        assert_eq!(link(10).tx_time(0).as_micros(), 1);
        let mut fast = Link::from_spec(
            LinkSpec::new(AgentId::from_raw(0), "fast").bandwidth_bps(u64::MAX / 16),
        );
        assert_eq!(fast.tx_time(1).as_micros(), 1);
    }

    #[test]
    fn offer_transitions() {
        let mut l = link(1);
        assert_eq!(l.offer(pkt(0)), Accept::StartTx);
        assert!(l.is_busy());
        assert_eq!(l.offer(pkt(1)), Accept::Queued);
        assert_eq!(l.queue_len(), 1);
        match l.offer(pkt(2)) {
            Accept::DroppedOverflow(p) => {
                assert_eq!(p.id, PacketId(2), "dropped packet handed back")
            }
            other => panic!("expected overflow drop, got {other:?}"),
        }
        assert_eq!(l.overflow_drops, 1);
    }

    #[test]
    fn complete_tx_pumps_queue() {
        let mut l = link(2);
        l.offer(pkt(0));
        l.offer(pkt(1));
        let (done, next) = l.try_complete_tx().unwrap();
        assert_eq!(done.id, PacketId(0));
        assert_eq!(next.unwrap().id, PacketId(1));
        assert!(l.is_busy());
        let (done, next) = l.try_complete_tx().unwrap();
        assert_eq!(done.id, PacketId(1));
        assert!(next.is_none());
        assert!(!l.is_busy());
    }

    #[test]
    fn try_complete_tx_on_idle_link_is_none() {
        let mut l = link(1);
        assert!(l.try_complete_tx().is_none());
        l.offer(pkt(0));
        assert!(l.try_complete_tx().is_some());
    }

    #[test]
    fn latency_includes_the_timeline_delay() {
        let mut l = link(1);
        let spike = Impairment {
            delay: SimDuration::from_millis(5),
            ..Impairment::NONE
        };
        l.timeline
            .impose(SimTime::from_millis(1), SimTime::from_millis(2), spike);
        let mut rng = SimRng::seed_from_u64(1);
        let latencies: Vec<u64> = [0, 1, 2]
            .map(|t| l.fate(SimTime::from_millis(t), &mut rng).unwrap())
            .map(|d| d.as_micros() / 1_000)
            .to_vec();
        assert_eq!(latencies, [10, 15, 10]);
    }

    #[test]
    fn jitter_is_nonnegative_and_varies() {
        let mut l = Link::from_spec(spec(1).jitter_sd(SimDuration::from_millis(2)));
        assert_eq!(l.jitter_sd(), SimDuration::from_millis(2));
        let mut rng = SimRng::seed_from_u64(2);
        let samples: Vec<SimDuration> = (0..64)
            .map(|_| l.fate(SimTime::ZERO, &mut rng).unwrap())
            .collect();
        assert!(samples.iter().all(|&s| s >= l.prop_delay));
        assert!(samples.windows(2).any(|w| w[0] != w[1]));
    }

    /// The overlay loses everything inside its window and nothing outside
    /// it, where the base model and the extra loss still apply.
    #[test]
    fn overlay_base_and_extra_losses_each_destroy_packets() {
        let mut rng = SimRng::seed_from_u64(0xfeed);
        let secs = SimTime::from_secs;
        let mut outage = link(1);
        outage
            .timeline
            .impose(secs(1), secs(2), Impairment::outage(1.0));
        let fates = [0, 1, 2].map(|t| outage.fate(secs(t), &mut rng).is_none());
        assert_eq!(fates, [false, true, false]);

        let mut dead = Link::from_spec(spec(1).loss(LossModel::Bernoulli(1.0)));
        dead.timeline
            .impose(secs(5), secs(6), Impairment::outage(0.0));
        assert!(dead.fate(SimTime::ZERO, &mut rng).is_none());

        let mut faded = link(1);
        let fade = Impairment {
            extra: 1.0,
            ..Impairment::NONE
        };
        faded.timeline.impose(SimTime::ZERO, secs(9), fade);
        assert!(faded.fate(SimTime::ZERO, &mut rng).is_none());
        assert!(faded.fate(secs(9), &mut rng).is_some());
    }

    #[test]
    #[should_panic(expected = "loss probability out of range")]
    fn a_link_refuses_an_invalid_loss_model() {
        let _ = Link::from_spec(spec(1).loss(LossModel::Bernoulli(1.5)));
    }
}
