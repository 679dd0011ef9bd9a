//! Packet-event recording.
//!
//! A [`VecRecorder`] is the simulator's equivalent of running *wireshark
//! on every hop*: registered with [`Engine::add_recorder`], it sees every
//! packet enter a link, get destroyed by the channel or queue, and get
//! delivered. Single-path connection runs do not need one — the engine's
//! packet arena already is their capture — so the recorder serves the
//! worlds the arena cannot describe (several links per direction: the
//! MPTCP rigs, the Fig. 5 burst cases) and the tests that hold the arena
//! fold to the recorded stream.
//!
//! The engine keeps one optional recorder. With none registered an emit
//! site costs one discriminant check (the engine does not even resolve
//! the link label); with one, recording is a direct, inlineable call with
//! no allocation: the [`PacketEvent`] shares the link's interned
//! `Arc<str>` label instead of cloning a `String` per event.
//!
//! [`Engine::add_recorder`]: crate::engine::Engine::add_recorder

use crate::link::LinkId;
use crate::packet::Packet;
use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Why a packet died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// The channel's loss model destroyed it (wireless loss / outage).
    Channel,
    /// The link's drop-tail queue was full.
    QueueOverflow,
}

/// What happened to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketEventKind {
    /// Entered a link (started transmission or was queued).
    Sent,
    /// Destroyed.
    Dropped(DropCause),
    /// Arrived at the link's destination agent.
    Delivered,
}

/// A recorded packet event.
#[derive(Debug, Clone, PartialEq)]
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

/// Records every packet event into a shared `Vec`.
///
/// Cloning shares the underlying storage, so an experiment can keep a
/// handle while the engine owns the recorder:
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
    pub fn take_events(&self) -> Vec<PacketEvent> {
        std::mem::take(&mut *self.events.borrow_mut())
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, SeqNo};

    fn record(sink: &VecRecorder, kind: PacketEventKind, ms: u64, label: &str, packet: &Packet) {
        sink.record(
            kind,
            SimTime::from_millis(ms),
            LinkId::from_raw(0),
            &label.into(),
            packet,
        );
    }

    #[test]
    fn recorder_shares_storage_across_clones() {
        let rec = VecRecorder::new();
        let sink = rec.clone();
        let p = Packet::data(FlowId(0), SeqNo(1), false);
        record(&sink, PacketEventKind::Sent, 1, "dl", &p);
        let dropped = PacketEventKind::Dropped(DropCause::Channel);
        record(&sink, dropped, 2, "dl", &p);
        assert_eq!(rec.len(), 2);
        let evs = rec.events();
        assert_eq!(evs[0].kind, PacketEventKind::Sent);
        assert_eq!(evs[1].kind, dropped);
        assert_eq!(&*evs[1].link_label, "dl");
    }

    #[test]
    fn take_events_empties() {
        let rec = VecRecorder::new();
        let p = Packet::ack(FlowId(0), SeqNo(1), 1);
        record(&rec.clone(), PacketEventKind::Delivered, 0, "ul", &p);
        let evs = rec.take_events();
        assert_eq!(evs.len(), 1);
        assert!(rec.is_empty());
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
}
