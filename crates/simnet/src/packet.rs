//! Packets.
//!
//! The simulator moves [`Packet`]s — either TCP data segments or
//! (cumulative) ACKs. Sequence numbers are counted in MSS-sized segments,
//! exactly the unit the Padhye-family models reason in.

use crate::time::SimTime;
use std::fmt;

/// Globally unique packet identity (unique per engine run, across flows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

/// Flow identity; one TCP connection (or MPTCP subflow) per flow id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FlowId(pub u32);

/// Segment sequence number, in MSS units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SeqNo(pub u64);

impl SeqNo {
    /// The first sequence number of a flow.
    pub const ZERO: SeqNo = SeqNo(0);

    /// The next sequence number.
    pub fn next(self) -> SeqNo {
        SeqNo(self.0 + 1)
    }

    /// Raw value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The transport-level meaning of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A data segment carrying one MSS of payload.
    Data {
        /// Segment sequence number.
        seq: SeqNo,
        /// True when this is a retransmission of an earlier segment —
        /// needed to classify spurious timeouts at the receiver.
        retransmit: bool,
    },
    /// A cumulative acknowledgment.
    Ack {
        /// Next expected sequence number (everything below is received).
        cum: SeqNo,
        /// How many data segments this ACK acknowledges (`b` in the model);
        /// 1 without delayed ACKs.
        acked_count: u32,
    },
}

impl PacketKind {
    /// True for data segments.
    pub fn is_data(&self) -> bool {
        matches!(self, PacketKind::Data { .. })
    }

    /// True for ACKs.
    pub fn is_ack(&self) -> bool {
        matches!(self, PacketKind::Ack { .. })
    }
}

/// A packet in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Unique id (assigned by the engine when sent).
    pub id: PacketId,
    /// Owning flow.
    pub flow: FlowId,
    /// Data or ACK semantics.
    pub kind: PacketKind,
    /// On-wire size in bytes (headers included).
    pub size_bytes: u32,
    /// Time the packet entered its first link (stamped by the engine).
    pub sent_at: SimTime,
    /// 0, except on the copies the shared-radio MPTCP rig's demux forwards
    /// (`hsm_tcp::demux::FORWARDED`), which that rig's capture skips: the
    /// tag has one value and one reader.
    pub tag: u64,
}

impl Packet {
    /// Default MSS-sized data packet length on the wire, bytes.
    pub const DATA_BYTES: u32 = 1460 + 40;
    /// Default ACK length on the wire, bytes.
    pub const ACK_BYTES: u32 = 40;

    /// Builds a data segment (id/sent_at are stamped by the engine).
    pub fn data(flow: FlowId, seq: SeqNo, retransmit: bool) -> Packet {
        Packet {
            id: PacketId(0),
            flow,
            kind: PacketKind::Data { seq, retransmit },
            size_bytes: Self::DATA_BYTES,
            sent_at: SimTime::ZERO,
            tag: 0,
        }
    }

    /// Builds a cumulative ACK (id/sent_at are stamped by the engine).
    pub fn ack(flow: FlowId, cum: SeqNo, acked_count: u32) -> Packet {
        Packet {
            id: PacketId(0),
            flow,
            kind: PacketKind::Ack { cum, acked_count },
            size_bytes: Self::ACK_BYTES,
            sent_at: SimTime::ZERO,
            tag: 0,
        }
    }

    /// Sets the tag (builder style).
    pub fn with_tag(mut self, tag: u64) -> Packet {
        self.tag = tag;
        self
    }

    /// Sequence number if this is a data segment.
    pub fn data_seq(&self) -> Option<SeqNo> {
        match self.kind {
            PacketKind::Data { seq, .. } => Some(seq),
            PacketKind::Ack { .. } => None,
        }
    }

    /// Cumulative-ACK value if this is an ACK.
    pub fn ack_cum(&self) -> Option<SeqNo> {
        match self.kind {
            PacketKind::Ack { cum, .. } => Some(cum),
            PacketKind::Data { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_classify() {
        let d = Packet::data(FlowId(1), SeqNo(5), false);
        assert!(d.kind.is_data());
        assert!(!d.kind.is_ack());
        assert_eq!(d.data_seq(), Some(SeqNo(5)));
        assert_eq!(d.ack_cum(), None);
        assert_eq!(d.size_bytes, Packet::DATA_BYTES);

        let a = Packet::ack(FlowId(1), SeqNo(6), 2);
        assert!(a.kind.is_ack());
        assert_eq!(a.ack_cum(), Some(SeqNo(6)));
        assert_eq!(a.data_seq(), None);
        assert_eq!(a.size_bytes, Packet::ACK_BYTES);
    }

    #[test]
    fn seqno_next_increments() {
        assert_eq!(SeqNo::ZERO.next(), SeqNo(1));
        assert_eq!(SeqNo(41).next().as_u64(), 42);
        assert_eq!(format!("{}", SeqNo(7)), "#7");
    }

    #[test]
    fn tag_builder() {
        let p = Packet::data(FlowId(0), SeqNo(0), false).with_tag(3);
        assert_eq!(p.tag, 3);
    }
}
