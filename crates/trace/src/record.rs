//! Flow traces.
//!
//! A [`FlowTrace`] is the dual-endpoint view of one TCP flow — what you
//! would get by running wireshark on both the phone and the server, as the
//! paper's testers did: for every transmitted packet, when it was sent and
//! when (or whether) it arrived.

use hsm_simnet::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One packet transmission, as seen from both endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketRecord {
    /// Engine-global packet id.
    pub id: u64,
    /// Data sequence number, or cumulative-ACK value for ACKs (MSS units).
    pub seq: u64,
    /// True for ACKs (travelling receiver → sender).
    pub is_ack: bool,
    /// True for data retransmissions.
    pub retransmit: bool,
    /// Number of data segments this ACK acknowledges (`b`); 0 for data.
    pub acked_count: u32,
    /// Wire size in bytes.
    pub size_bytes: u32,
    /// When the packet entered the network.
    pub sent_at: SimTime,
    /// When it arrived — `None` means it was lost. (Fig. 1 plots lost
    /// packets at −1 for exactly this reason.)
    pub arrived_at: Option<SimTime>,
}

impl PacketRecord {
    /// True if the packet was lost in transit.
    pub fn lost(&self) -> bool {
        self.arrived_at.is_none()
    }

    /// One-way latency, if the packet arrived.
    pub fn latency(&self) -> Option<SimDuration> {
        self.arrived_at.map(|a| a.saturating_since(self.sent_at))
    }
}

/// Static facts about a flow that a pure packet capture cannot know; the
/// TCP layer fills these in when producing the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowMeta {
    /// Human label of the ISP profile ("China Mobile", …). Shared, not
    /// owned: every summary and cache hit of the flow clones the `Arc`
    /// (a counter bump) instead of allocating a `String`.
    pub provider: Arc<str>,
    /// Scenario label ("high-speed", "stationary", …), shared likewise.
    pub scenario: Arc<str>,
    /// Receiver-advertised window limitation, segments (`W_m`).
    pub w_m: u32,
    /// Delayed-ACK factor (`b`): data segments acknowledged per ACK.
    pub b: u32,
}

impl Default for FlowMeta {
    fn default() -> Self {
        FlowMeta {
            provider: "unknown".into(),
            scenario: "unknown".into(),
            w_m: 64,
            b: 1,
        }
    }
}

/// The full two-endpoint trace of one TCP flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowTrace {
    /// Flow id within the dataset.
    pub flow: u32,
    /// Flow facts from the TCP layer.
    pub meta: FlowMeta,
    /// All packet transmissions in send order.
    pub records: Vec<PacketRecord>,
}

impl FlowTrace {
    /// Creates an empty trace for a flow.
    pub fn new(flow: u32, meta: FlowMeta) -> FlowTrace {
        FlowTrace {
            flow,
            meta,
            records: Vec::new(),
        }
    }

    /// Iterator over data records, in send order.
    pub fn data(&self) -> impl Iterator<Item = &PacketRecord> {
        self.records.iter().filter(|r| !r.is_ack)
    }

    /// Iterator over ACK records, in send order.
    pub fn acks(&self) -> impl Iterator<Item = &PacketRecord> {
        self.records.iter().filter(|r| r.is_ack)
    }

    /// First send time, if the trace is non-empty.
    pub fn start(&self) -> Option<SimTime> {
        self.records.iter().map(|r| r.sent_at).min()
    }

    /// Last event time (send or arrival), if non-empty.
    pub fn end(&self) -> Option<SimTime> {
        self.records
            .iter()
            .map(|r| r.arrived_at.unwrap_or(r.sent_at))
            .max()
    }

    /// Flow duration from first send to last event.
    pub fn duration(&self) -> SimDuration {
        match (self.start(), self.end()) {
            (Some(s), Some(e)) => e.saturating_since(s),
            _ => SimDuration::ZERO,
        }
    }

    /// Sorts records by send time (stable); capture emits them in order,
    /// but synthetic traces built by tests may not.
    pub fn sort_by_send_time(&mut self) {
        self.records.sort_by_key(|r| (r.sent_at, r.id));
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if serialization fails (it cannot for this type,
    /// but the signature is honest).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserializes from JSON produced by [`FlowTrace::to_json`].
    ///
    /// # Errors
    ///
    /// Returns an error if `s` is not a valid serialized trace.
    pub fn from_json(s: &str) -> Result<FlowTrace, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, is_ack: bool, sent_ms: u64, arrived_ms: Option<u64>) -> PacketRecord {
        PacketRecord {
            id: seq * 2 + u64::from(is_ack),
            seq,
            is_ack,
            retransmit: false,
            acked_count: u32::from(is_ack),
            size_bytes: if is_ack { 40 } else { 1500 },
            sent_at: SimTime::from_millis(sent_ms),
            arrived_at: arrived_ms.map(SimTime::from_millis),
        }
    }

    #[test]
    fn lost_and_latency() {
        let ok = rec(1, false, 10, Some(40));
        assert!(!ok.lost());
        assert_eq!(ok.latency(), Some(SimDuration::from_millis(30)));
        let dead = rec(2, false, 10, None);
        assert!(dead.lost());
        assert_eq!(dead.latency(), None);
    }

    #[test]
    fn trace_partitions_and_bounds() {
        let mut t = FlowTrace::new(0, FlowMeta::default());
        t.records.push(rec(0, false, 0, Some(30)));
        t.records.push(rec(1, true, 35, Some(65)));
        t.records.push(rec(1, false, 70, None));
        assert_eq!(t.data().count(), 2);
        assert_eq!(t.acks().count(), 1);
        assert_eq!(t.start(), Some(SimTime::ZERO));
        assert_eq!(t.end(), Some(SimTime::from_millis(70)));
        assert_eq!(t.duration(), SimDuration::from_millis(70));
    }

    #[test]
    fn empty_trace_duration_zero() {
        let t = FlowTrace::new(0, FlowMeta::default());
        assert_eq!(t.duration(), SimDuration::ZERO);
        assert_eq!(t.start(), None);
    }

    #[test]
    fn sort_by_send_time_orders() {
        let mut t = FlowTrace::new(0, FlowMeta::default());
        t.records.push(rec(5, false, 50, None));
        t.records.push(rec(1, false, 10, Some(40)));
        t.sort_by_send_time();
        assert_eq!(t.records[0].seq, 1);
    }

    #[test]
    fn json_round_trip() {
        let mut t = FlowTrace::new(
            3,
            FlowMeta {
                provider: "China Mobile".into(),
                ..Default::default()
            },
        );
        t.records.push(rec(0, false, 0, Some(30)));
        let back = FlowTrace::from_json(&t.to_json().unwrap()).unwrap();
        assert_eq!(t, back);
    }
}
