//! Throughput and goodput.
//!
//! The models predict throughput as *packets received per unit time*
//! (Section IV: "the number of packets received by the receiver per unit
//! time"), so the measures here are delivered segments per second.

use super::dense_reach;
use crate::record::{FlowTrace, PacketRecord};
use hsm_simnet::time::{SimDuration, SimTime};
use std::collections::HashSet;

/// Throughput measures of one flow.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Throughput {
    /// Data segments delivered (counting duplicates from spurious
    /// retransmissions).
    pub segments_delivered: u64,
    /// Distinct sequence numbers delivered at least once.
    pub unique_segments_delivered: u64,
    /// Flow duration in seconds.
    pub duration_s: f64,
}

impl Throughput {
    /// Delivered segments per second — the model's `TP`.
    pub fn segments_per_sec(&self) -> f64 {
        safe_rate(self.segments_delivered as f64, self.duration_s)
    }

    /// Goodput: *unique* payload segments per second (duplicates from
    /// spurious retransmissions don't count).
    pub fn goodput_segments_per_sec(&self) -> f64 {
        safe_rate(self.unique_segments_delivered as f64, self.duration_s)
    }
}

fn safe_rate(num: f64, dur: f64) -> f64 {
    if dur <= 0.0 {
        0.0
    } else {
        num / dur
    }
}

/// The throughput fold, one record at a time: delivered segments, a
/// delivered-once bit per sequence number, and the flow's time span
/// (first send to last event — [`FlowTrace::duration`] without its two
/// scans). Its columns keep their capacity across
/// [`ThroughputSweep::reset`].
#[derive(Debug, Default)]
pub(crate) struct ThroughputSweep {
    /// Records folded in so far.
    records: usize,
    /// Sequence numbers count segments from zero, so the dedup set is a
    /// bitset, grown as the seqs reach it, for any seq within
    /// [`dense_reach`]; a hash set catches the rest. A seq lives in
    /// exactly one of the two.
    bits: Vec<u64>,
    dense_unique: u64,
    sparse: HashSet<u64>,
    delivered: u64,
    span: Option<(SimTime, SimTime)>,
}

impl ThroughputSweep {
    /// Empties the fold for the next flow.
    pub(crate) fn reset(&mut self) {
        self.records = 0;
        self.bits.clear();
        self.dense_unique = 0;
        self.sparse.clear();
        self.delivered = 0;
        self.span = None;
    }

    /// Folds in one transmission (data or ACK — both bound the span).
    #[inline]
    pub(crate) fn record(&mut self, rec: &PacketRecord) {
        self.records += 1;
        let last_event = rec.arrived_at.unwrap_or(rec.sent_at);
        self.span = Some(match self.span {
            Some((start, end)) => (start.min(rec.sent_at), end.max(last_event)),
            None => (rec.sent_at, last_event),
        });
        if rec.is_ack || rec.arrived_at.is_none() {
            return;
        }
        self.delivered += 1;
        let word = usize::try_from(rec.seq / 64).unwrap_or(usize::MAX);
        if word < self.bits.len() || self.reach(word) {
            self.mark(word, rec.seq % 64);
        } else {
            self.sparse.insert(rec.seq);
        }
    }

    /// Sets bit `bit` of word `word`, counting it the first time.
    #[inline]
    fn mark(&mut self, word: usize, bit: u64) {
        if self.bits[word] & (1 << bit) == 0 {
            self.bits[word] |= 1 << bit;
            self.dense_unique += 1;
        }
    }

    /// Bytes the per-seq columns take.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        (self.bits.len() + self.sparse.len()) * 8
    }

    /// Grows the bitset to hold word `word`, moving in any spilled seq it
    /// now covers, if that word is within [`dense_reach`] of the records
    /// so far; false, and nothing grown, if it is not.
    #[cold]
    fn reach(&mut self, word: usize) -> bool {
        let words = dense_reach(self.records).div_ceil(64);
        if word >= words {
            return false;
        }
        let len = (word + 1).max(2 * self.bits.len()).min(words);
        self.bits.resize(len, 0);
        let dense_seqs = len as u64 * 64;
        let spilled: Vec<u64> = self.sparse.extract_if(|&s| s < dense_seqs).collect();
        for seq in spilled {
            self.mark((seq / 64) as usize, seq % 64);
        }
        true
    }

    /// Last event (send or arrival) folded in so far — the trace's
    /// [`FlowTrace::end`] once every record has been.
    pub(crate) fn end(&self) -> Option<SimTime> {
        self.span.map(|(_, end)| end)
    }

    /// The measures of the flow folded so far.
    pub(crate) fn finish(&self) -> Throughput {
        let duration = match self.span {
            Some((start, end)) => end.saturating_since(start),
            None => SimDuration::ZERO,
        };
        Throughput {
            segments_delivered: self.delivered,
            unique_segments_delivered: self.dense_unique + self.sparse.len() as u64,
            duration_s: duration.as_secs_f64(),
        }
    }
}

/// Measures throughput for a flow.
pub fn throughput(trace: &FlowTrace) -> Throughput {
    let mut sweep = ThroughputSweep::default();
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

    fn data(seq: u64, sent_ms: u64, arrived: bool) -> PacketRecord {
        PacketRecord {
            id: sent_ms,
            seq,
            is_ack: false,
            retransmit: false,
            acked_count: 0,
            size_bytes: 1500,
            sent_at: SimTime::from_millis(sent_ms),
            arrived_at: if arrived {
                Some(SimTime::from_millis(sent_ms + 30))
            } else {
                None
            },
        }
    }

    #[test]
    fn counts_unique_vs_duplicate_deliveries() {
        let mut t = FlowTrace::new(0, FlowMeta::default());
        t.records = vec![
            data(0, 0, true),
            data(1, 10, true),
            data(1, 400, true), // spurious retransmission duplicate
            data(2, 500, false),
        ];
        // Duration: first send 0 to last arrival 430 ms... last event is
        // send at 500 ms.
        let tp = throughput(&t);
        assert_eq!(tp.segments_delivered, 3);
        assert_eq!(tp.unique_segments_delivered, 2);
        assert!((tp.duration_s - 0.5).abs() < 1e-9);
        assert!((tp.segments_per_sec() - 6.0).abs() < 1e-9);
        assert!((tp.goodput_segments_per_sec() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_flow_zero_rates() {
        let t = FlowTrace::new(0, FlowMeta::default());
        let tp = throughput(&t);
        assert_eq!(tp.segments_per_sec(), 0.0);
        assert_eq!(tp.goodput_segments_per_sec(), 0.0);
    }
}
