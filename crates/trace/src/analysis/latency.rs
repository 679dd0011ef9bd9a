//! One-way latency series and RTT estimation (the basis of Fig. 1).

use crate::column::Column;
use crate::record::{FlowTrace, PacketRecord};
use hsm_simnet::time::SimDuration;

/// A point of the Fig. 1 scatter: `(send_time_s, one_way_delay_s)`, where a
/// lost packet is plotted at delay −1 exactly as the paper does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayPoint {
    /// When the packet was sent, seconds since flow start.
    pub sent_s: f64,
    /// One-way delay in seconds, or −1.0 for lost packets.
    pub delay_s: f64,
    /// True for ACKs (upper half of Fig. 1), false for data (lower half).
    pub is_ack: bool,
}

/// Builds the Fig. 1 scatter from a trace.
pub fn delay_scatter(trace: &FlowTrace) -> Vec<DelayPoint> {
    let Some(start) = trace.start() else {
        return Vec::new();
    };
    trace
        .records
        .iter()
        .map(|r| DelayPoint {
            sent_s: r.sent_at.saturating_since(start).as_secs_f64(),
            delay_s: match r.latency() {
                Some(d) => d.as_secs_f64(),
                None => -1.0,
            },
            is_ack: r.is_ack,
        })
        .collect()
}

/// The RTT fold, one record at a time: every delivered packet's one-way
/// latency, kept per direction for the two medians, in whole
/// microseconds — four bytes a packet, unless a latency reaches 2³² µs
/// (71 minutes) and widens its direction's column to eight. Its columns
/// keep their capacity across [`RttSweep::reset`].
#[derive(Debug, Default)]
pub(crate) struct RttSweep {
    data: Column,
    acks: Column,
}

impl RttSweep {
    /// Empties the fold for the next flow.
    pub(crate) fn reset(&mut self) {
        self.data.clear();
        self.acks.clear();
    }

    /// Folds in one transmission; lost packets have no latency.
    #[inline]
    pub(crate) fn record(&mut self, rec: &PacketRecord) {
        if let Some(latency) = rec.latency() {
            if rec.is_ack {
                self.acks.push(latency.as_micros());
            } else {
                self.data.push(latency.as_micros());
            }
        }
    }

    /// (Median data one-way delay) + (median ACK one-way delay), or
    /// `None` if either direction delivered nothing.
    pub(crate) fn finish(&mut self) -> Option<SimDuration> {
        let (data, acks) = (self.data.median()?, self.acks.median()?);
        Some(SimDuration::from_micros(data) + SimDuration::from_micros(acks))
    }

    /// Bytes the two columns' latencies take.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        self.data.held_bytes() + self.acks.held_bytes()
    }
}

/// Estimates the flow's base RTT as (median data one-way delay) + (median
/// ACK one-way delay). Returns `None` if either direction has no delivered
/// packets.
pub fn estimate_rtt(trace: &FlowTrace) -> Option<SimDuration> {
    let mut sweep = RttSweep::default();
    for rec in &trace.records {
        sweep.record(rec);
    }
    sweep.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FlowMeta, PacketRecord};
    use hsm_simnet::time::SimTime;

    fn rec(sent_ms: u64, delay_ms: Option<u64>, is_ack: bool) -> PacketRecord {
        PacketRecord {
            id: sent_ms,
            seq: 0,
            is_ack,
            retransmit: false,
            acked_count: 0,
            size_bytes: 1500,
            sent_at: SimTime::from_millis(sent_ms),
            arrived_at: delay_ms.map(|d| SimTime::from_millis(sent_ms + d)),
        }
    }

    #[test]
    fn scatter_marks_lost_at_minus_one() {
        let mut t = FlowTrace::new(0, FlowMeta::default());
        t.records = vec![
            rec(100, Some(30), false),
            rec(200, None, false),
            rec(250, Some(28), true),
        ];
        let pts = delay_scatter(&t);
        assert_eq!(pts.len(), 3);
        assert!((pts[0].sent_s - 0.0).abs() < 1e-9);
        assert!((pts[0].delay_s - 0.030).abs() < 1e-9);
        assert_eq!(pts[1].delay_s, -1.0);
        assert!(pts[2].is_ack);
        assert!((pts[2].sent_s - 0.150).abs() < 1e-9);
    }

    #[test]
    fn rtt_is_sum_of_direction_medians() {
        let mut t = FlowTrace::new(0, FlowMeta::default());
        t.records = vec![
            rec(0, Some(30), false),
            rec(1, Some(32), false),
            rec(2, Some(31), false),
            rec(3, Some(25), true),
            rec(4, Some(27), true),
        ];
        let rtt = estimate_rtt(&t).unwrap();
        // median data = 31 ms, median ack = 27 ms.
        assert_eq!(rtt, SimDuration::from_millis(58));
    }

    #[test]
    fn rtt_none_without_both_directions() {
        let mut t = FlowTrace::new(0, FlowMeta::default());
        t.records = vec![rec(0, Some(30), false)];
        assert_eq!(estimate_rtt(&t), None);
        t.records = vec![rec(0, None, false), rec(1, Some(5), true)];
        assert_eq!(estimate_rtt(&t), None);
        assert!(delay_scatter(&FlowTrace::new(0, FlowMeta::default())).is_empty());
    }
}
