//! Packet-event observation.
//!
//! Observers are the simulator's equivalent of running *wireshark on both
//! endpoints*: they see every packet enter a link, get destroyed by the
//! channel or queue, and get delivered. The trace crate builds per-flow
//! traces from these events; tests use the bundled [`VecRecorder`].
//!
//! # Dispatch fast path
//!
//! The engine stores observers in an [`ObserverSet`] — an enum with three
//! states (`None`, a single [`VecRecorder`], or a mixed list). The two
//! overwhelmingly common configurations cost near zero per event:
//!
//! * **no observer** — one discriminant check, nothing else (the engine
//!   does not even resolve the link label);
//! * **single recorder** — a direct, inlineable call into
//!   [`VecRecorder::record`] with no virtual dispatch and no allocation:
//!   the recorded [`PacketEvent`] shares the link's interned `Arc<str>`
//!   label instead of cloning a `String` per event.
//!
//! Arbitrary boxed [`Observer`]s remain supported through
//! [`ObserverSet::Mixed`], which falls back to dynamic dispatch.

use crate::link::LinkId;
use crate::packet::Packet;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Why a packet died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropCause {
    /// The channel's loss model destroyed it (wireless loss / outage).
    Channel,
    /// The link's drop-tail queue was full.
    QueueOverflow,
}

/// What happened to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketEventKind {
    /// Entered a link (started transmission or was queued).
    Sent,
    /// Destroyed.
    Dropped(DropCause),
    /// Arrived at the link's destination agent.
    Delivered,
}

/// A recorded packet event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketEvent {
    /// When it happened.
    pub time: SimTime,
    /// On which link.
    pub link: u32,
    /// Link label at the time of recording ("downlink", "uplink", …).
    /// Shares the link's interned allocation — cloning an event bumps a
    /// refcount instead of copying the string.
    pub link_label: Arc<str>,
    /// What happened.
    pub kind: PacketEventKind,
    /// The packet (cloned at recording time).
    pub packet: Packet,
}

/// Receives packet events as the simulation runs.
pub trait Observer {
    /// A packet entered `link`.
    fn on_sent(&mut self, time: SimTime, link: LinkId, label: &str, packet: &Packet);
    /// A packet was destroyed on `link`.
    fn on_dropped(
        &mut self,
        time: SimTime,
        link: LinkId,
        label: &str,
        packet: &Packet,
        cause: DropCause,
    );
    /// A packet exiting `link` was delivered to its destination.
    fn on_delivered(&mut self, time: SimTime, link: LinkId, label: &str, packet: &Packet);
}

/// An observer that records every event into a shared `Vec`.
///
/// Cloning shares the underlying storage, so an experiment can keep a
/// handle while the engine owns the observer:
///
/// ```
/// use hsm_simnet::observer::VecRecorder;
///
/// let recorder = VecRecorder::new();
/// let handle = recorder.clone();
/// // engine.add_recorder(recorder);
/// // ... run ...
/// assert!(handle.events().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct VecRecorder {
    events: Rc<RefCell<Vec<PacketEvent>>>,
}

impl VecRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all events recorded so far (cloned).
    ///
    /// Prefer [`VecRecorder::take_events`] on hot paths: it drains the
    /// batch without copying it.
    pub fn events(&self) -> Vec<PacketEvent> {
        self.events.borrow().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Drains and returns all recorded events, leaving the recorder empty.
    ///
    /// This moves the backing `Vec` out, so the recorder starts its next
    /// batch from a fresh (empty-capacity) buffer. Scratch-reusing callers
    /// should prefer [`VecRecorder::with_events`] + [`VecRecorder::clear`],
    /// which keep the allocation alive across runs.
    pub fn take_events(&self) -> Vec<PacketEvent> {
        std::mem::take(&mut *self.events.borrow_mut())
    }

    /// Runs `f` over a borrow of the recorded events without copying or
    /// draining them — the allocation-free way to consume a batch.
    pub fn with_events<R>(&self, f: impl FnOnce(&[PacketEvent]) -> R) -> R {
        f(&self.events.borrow())
    }

    /// Forgets all recorded events but keeps the buffer's capacity, so a
    /// recorder reused across simulation runs stops allocating once it has
    /// seen its largest batch.
    pub fn clear(&self) {
        self.events.borrow_mut().clear();
    }

    /// Records one event sharing the interned link label — the engine's
    /// allocation-free fast path.
    #[inline]
    pub fn record(
        &self,
        kind: PacketEventKind,
        time: SimTime,
        link: LinkId,
        label: &Arc<str>,
        packet: &Packet,
    ) {
        self.events.borrow_mut().push(PacketEvent {
            time,
            link: link.as_usize() as u32,
            link_label: Arc::clone(label),
            kind,
            packet: packet.clone(),
        });
    }

    fn push(&self, ev: PacketEvent) {
        self.events.borrow_mut().push(ev);
    }
}

impl Observer for VecRecorder {
    fn on_sent(&mut self, time: SimTime, link: LinkId, label: &str, packet: &Packet) {
        self.push(PacketEvent {
            time,
            link: link.as_usize() as u32,
            link_label: label.into(),
            kind: PacketEventKind::Sent,
            packet: packet.clone(),
        });
    }

    fn on_dropped(
        &mut self,
        time: SimTime,
        link: LinkId,
        label: &str,
        packet: &Packet,
        cause: DropCause,
    ) {
        self.push(PacketEvent {
            time,
            link: link.as_usize() as u32,
            link_label: label.into(),
            kind: PacketEventKind::Dropped(cause),
            packet: packet.clone(),
        });
    }

    fn on_delivered(&mut self, time: SimTime, link: LinkId, label: &str, packet: &Packet) {
        self.push(PacketEvent {
            time,
            link: link.as_usize() as u32,
            link_label: label.into(),
            kind: PacketEventKind::Delivered,
            packet: packet.clone(),
        });
    }
}

/// One registered observer: either the recorder fast path or a boxed
/// trait object.
pub enum AnyObserver {
    /// A [`VecRecorder`] dispatched without virtual calls.
    Recorder(VecRecorder),
    /// Anything else, behind dynamic dispatch.
    Dyn(Box<dyn Observer>),
}

impl AnyObserver {
    #[inline]
    fn emit(
        &mut self,
        kind: PacketEventKind,
        time: SimTime,
        link: LinkId,
        label: &Arc<str>,
        packet: &Packet,
    ) {
        match self {
            AnyObserver::Recorder(rec) => rec.record(kind, time, link, label, packet),
            AnyObserver::Dyn(obs) => match kind {
                PacketEventKind::Sent => obs.on_sent(time, link, label, packet),
                PacketEventKind::Dropped(cause) => obs.on_dropped(time, link, label, packet, cause),
                PacketEventKind::Delivered => obs.on_delivered(time, link, label, packet),
            },
        }
    }
}

/// The engine's observer registry (see the module docs for the dispatch
/// strategy).
#[derive(Default)]
pub enum ObserverSet {
    /// No observer registered: events are not materialized at all.
    #[default]
    None,
    /// Exactly one [`VecRecorder`]: direct calls, no virtual dispatch.
    Recorder(VecRecorder),
    /// General case: any number of observers, dispatched in
    /// registration order.
    Mixed(Vec<AnyObserver>),
}

impl ObserverSet {
    /// True when no observer is registered (lets the engine skip label
    /// resolution and borrow juggling entirely).
    #[inline]
    pub fn is_none(&self) -> bool {
        matches!(self, ObserverSet::None)
    }

    /// Registers another observer, upgrading the set's shape as needed.
    pub fn push(&mut self, obs: AnyObserver) {
        match std::mem::take(self) {
            ObserverSet::None => {
                *self = match obs {
                    AnyObserver::Recorder(rec) => ObserverSet::Recorder(rec),
                    other => ObserverSet::Mixed(vec![other]),
                }
            }
            ObserverSet::Recorder(rec) => {
                *self = ObserverSet::Mixed(vec![AnyObserver::Recorder(rec), obs]);
            }
            ObserverSet::Mixed(mut list) => {
                list.push(obs);
                *self = ObserverSet::Mixed(list);
            }
        }
    }

    /// Emits one packet event to every registered observer.
    #[inline]
    pub fn emit(
        &mut self,
        kind: PacketEventKind,
        time: SimTime,
        link: LinkId,
        label: &Arc<str>,
        packet: &Packet,
    ) {
        match self {
            ObserverSet::None => {}
            ObserverSet::Recorder(rec) => rec.record(kind, time, link, label, packet),
            ObserverSet::Mixed(list) => {
                for obs in list {
                    obs.emit(kind, time, link, label, packet);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, SeqNo};

    #[test]
    fn recorder_shares_storage_across_clones() {
        let rec = VecRecorder::new();
        let mut sink = rec.clone();
        let p = Packet::data(FlowId(0), SeqNo(1), false);
        sink.on_sent(SimTime::from_millis(1), LinkId::from_raw(0), "dl", &p);
        sink.on_dropped(
            SimTime::from_millis(2),
            LinkId::from_raw(0),
            "dl",
            &p,
            DropCause::Channel,
        );
        assert_eq!(rec.len(), 2);
        let evs = rec.events();
        assert_eq!(evs[0].kind, PacketEventKind::Sent);
        assert_eq!(evs[1].kind, PacketEventKind::Dropped(DropCause::Channel));
        assert_eq!(&*evs[1].link_label, "dl");
    }

    #[test]
    fn take_events_empties() {
        let rec = VecRecorder::new();
        let mut sink = rec.clone();
        let p = Packet::ack(FlowId(0), SeqNo(1), 1);
        sink.on_delivered(SimTime::ZERO, LinkId::from_raw(1), "ul", &p);
        let evs = rec.take_events();
        assert_eq!(evs.len(), 1);
        assert!(rec.is_empty());
    }

    #[test]
    fn with_events_borrows_and_clear_keeps_capacity() {
        let rec = VecRecorder::new();
        let mut sink = rec.clone();
        let p = Packet::data(FlowId(0), SeqNo(0), false);
        for _ in 0..32 {
            sink.on_sent(SimTime::ZERO, LinkId::from_raw(0), "dl", &p);
        }
        let n = rec.with_events(|evs| evs.len());
        assert_eq!(n, 32);
        assert_eq!(rec.len(), 32, "with_events must not drain");
        rec.clear();
        assert!(rec.is_empty());
        // The shared buffer survives the clear: new events land in it.
        sink.on_sent(SimTime::ZERO, LinkId::from_raw(0), "dl", &p);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn record_shares_the_interned_label() {
        let rec = VecRecorder::new();
        let label: Arc<str> = "downlink".into();
        let p = Packet::data(FlowId(0), SeqNo(0), false);
        rec.record(
            PacketEventKind::Sent,
            SimTime::ZERO,
            LinkId::from_raw(0),
            &label,
            &p,
        );
        let evs = rec.take_events();
        assert!(
            Arc::ptr_eq(&evs[0].link_label, &label),
            "label must be shared, not copied"
        );
    }

    #[test]
    fn observer_set_upgrades_shape_and_dispatches() {
        let mut set = ObserverSet::default();
        assert!(set.is_none());
        let a = VecRecorder::new();
        set.push(AnyObserver::Recorder(a.clone()));
        assert!(matches!(set, ObserverSet::Recorder(_)));
        let b = VecRecorder::new();
        set.push(AnyObserver::Dyn(Box::new(b.clone())));
        assert!(matches!(set, ObserverSet::Mixed(_)));

        let label: Arc<str> = "wire".into();
        let p = Packet::data(FlowId(0), SeqNo(0), false);
        set.emit(
            PacketEventKind::Sent,
            SimTime::ZERO,
            LinkId::from_raw(0),
            &label,
            &p,
        );
        assert_eq!(a.len(), 1, "fast-path recorder sees the event");
        assert_eq!(b.len(), 1, "dyn observer sees the event");
        assert_eq!(&*b.events()[0].link_label, "wire");
    }
}
