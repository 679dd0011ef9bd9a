//! Timeout detection, spurious classification and recovery phases.
//!
//! Reproduces the paper's §III methodology:
//!
//! * **Detecting RTO retransmissions** — a data retransmission that follows
//!   a send-silence of at least `silence_threshold` is attributed to a
//!   retransmission-timer expiry (fast retransmissions happen while the
//!   pipe is still flowing, i.e. within about one RTT of the previous
//!   send).
//! * **Timeout sequences** — consecutive RTO retransmissions with no new
//!   data in between form one sequence (the exponential-backoff ladder of
//!   Fig. 2). The *timeout recovery phase* runs from the end of the last
//!   congestion-avoidance transmission to the first new-data transmission
//!   after the sequence.
//! * **Spurious classification** — a timeout is *spurious* when the packet
//!   whose timer expired actually arrived (the receiver then sees two
//!   copies of the same payload; paper §III-B-2). With the dual-endpoint
//!   trace we can check arrival directly.
//! * **`q̂`** — the loss rate of retransmissions inside timeout sequences,
//!   the paper's `q` (measured at 27.26 % vs a lifetime 0.75 %).

use super::dense_reach;
use crate::record::{FlowTrace, PacketRecord};
use hsm_simnet::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Tunables for timeout detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeoutConfig {
    /// Minimum send-silence before a retransmission is attributed to an
    /// RTO. Should sit between the RTT and the minimum RTO.
    pub silence_threshold: SimDuration,
}

impl Default for TimeoutConfig {
    fn default() -> Self {
        TimeoutConfig {
            silence_threshold: SimDuration::from_millis(150),
        }
    }
}

/// One classified timeout event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeoutEvent {
    /// Index into `trace.records` of the retransmission this timeout
    /// produced.
    pub retx_idx: usize,
    /// True when the previously transmitted copy of the packet had in fact
    /// arrived — i.e. the timeout was spurious.
    pub spurious: bool,
}

/// A run of consecutive timeouts (the backoff ladder) plus its recovery
/// phase boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeoutSequence {
    /// The timeouts of this sequence, in order.
    pub events: Vec<TimeoutEvent>,
    /// Retransmissions sent during the sequence that were lost.
    pub retrans_lost: u32,
    /// End of the preceding congestion-avoidance phase (send time of the
    /// last pre-sequence *new-data* packet).
    pub ca_end: SimTime,
    /// Last transmission of any kind before the first timeout — the point
    /// from which the expired retransmission timer's silence ran. Equal to
    /// `ca_end` unless recovery traffic (fast retransmissions, go-back-N
    /// resends) intervened between the CA phase and the ladder.
    pub silence_start: SimTime,
    /// Send time of the first retransmission of the sequence; the gap from
    /// `silence_start` estimates the retransmission timer `T`.
    pub first_retx_at: SimTime,
    /// Start of the post-recovery slow-start phase (send time of the first
    /// new data packet after the sequence), or the trace end if the flow
    /// died during recovery.
    pub recovery_end: SimTime,
}

impl TimeoutSequence {
    /// Number of timeouts in the sequence (`R` in the model).
    pub fn timeouts(&self) -> u32 {
        self.events.len() as u32
    }

    /// Duration of the timeout recovery phase.
    pub fn recovery_duration(&self) -> SimDuration {
        self.recovery_end.saturating_since(self.ca_end)
    }

    /// Loss rate of retransmissions inside this sequence.
    pub fn retrans_loss_rate(&self) -> f64 {
        if self.events.is_empty() {
            0.0
        } else {
            f64::from(self.retrans_lost) / self.events.len() as f64
        }
    }

    /// True when the *first* timeout of the sequence was spurious (the
    /// sequence should never have started).
    pub fn started_spurious(&self) -> bool {
        self.events.first().is_some_and(|e| e.spurious)
    }

    /// Estimate of the retransmission timer `T` that fired first: the
    /// send-silence the expiry ended, i.e. the gap between the last
    /// transmission before the ladder and the first retransmission.
    pub fn first_rto(&self) -> SimDuration {
        self.first_retx_at.saturating_since(self.silence_start)
    }
}

/// Full timeout analysis of one flow.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeoutAnalysis {
    /// All timeout sequences, in time order.
    pub sequences: Vec<TimeoutSequence>,
}

impl TimeoutAnalysis {
    /// Total number of timeout events.
    pub fn total_timeouts(&self) -> u32 {
        self.sequences.iter().map(TimeoutSequence::timeouts).sum()
    }

    /// Number of spurious timeout events.
    pub fn spurious_timeouts(&self) -> u32 {
        self.sequences
            .iter()
            .flat_map(|s| &s.events)
            .filter(|e| e.spurious)
            .count() as u32
    }

    /// Fraction of timeouts that were spurious (paper: 49.24 %).
    pub fn spurious_fraction(&self) -> f64 {
        let total = self.total_timeouts();
        if total == 0 {
            0.0
        } else {
            f64::from(self.spurious_timeouts()) / f64::from(total)
        }
    }

    /// Loss rate of retransmissions across all timeout sequences — the
    /// paper's `q` (measured 27.26 % in high-speed traces).
    pub fn q_hat(&self) -> f64 {
        let retx: u32 = self.sequences.iter().map(TimeoutSequence::timeouts).sum();
        let lost: u32 = self.sequences.iter().map(|s| s.retrans_lost).sum();
        if retx == 0 {
            0.0
        } else {
            f64::from(lost) / f64::from(retx)
        }
    }

    /// Mean timeout-recovery-phase duration (paper: 5.05 s high-speed vs
    /// 0.65 s stationary).
    pub fn mean_recovery(&self) -> Option<SimDuration> {
        if self.sequences.is_empty() {
            return None;
        }
        let total_us: u64 = self
            .sequences
            .iter()
            .map(|s| s.recovery_duration().as_micros())
            .sum();
        Some(SimDuration::from_micros(
            total_us / self.sequences.len() as u64,
        ))
    }

    /// Median first-RTO estimate across sequences — the robust choice for
    /// the model's `T`. First-RTO samples are heavy-tailed: one sequence
    /// that fires after a long RTT spike inflated the timer (the paper's
    /// tens-of-seconds RTO observations) can dominate the arithmetic mean,
    /// while the model needs the *typical* timer value at ladder start.
    pub fn median_first_rto(&self) -> Option<SimDuration> {
        if self.sequences.is_empty() {
            return None;
        }
        let mut us: Vec<u64> = self
            .sequences
            .iter()
            .map(|s| s.first_rto().as_micros())
            .collect();
        us.sort_unstable();
        let n = us.len();
        let median = if n % 2 == 1 {
            us[n / 2]
        } else {
            (us[n / 2 - 1] + us[n / 2]) / 2
        };
        Some(SimDuration::from_micros(median))
    }
}

/// What the sweep remembers of a sequence number's latest transmission.
const NEVER_SENT: u8 = 0;
const LAST_COPY_LOST: u8 = 1;
const LAST_COPY_ARRIVED: u8 = 2;

/// The timeout fold, one data record at a time (in send order). Its
/// columns keep their capacity across [`TimeoutSweep::reset`].
#[derive(Debug, Default)]
pub(crate) struct TimeoutSweep {
    silence_threshold: SimDuration,
    /// Fate of the latest transmission per seq, updated as we sweep.
    /// Sequence numbers count from zero, so this is a dense byte slab,
    /// grown as the seqs reach it, with a hash-map spillway for any seq
    /// beyond [`dense_reach`]; a seq lives in exactly one of the two.
    last_copy_dense: Vec<u8>,
    last_copy_sparse: HashMap<u64, u8>,
    sequences: Vec<TimeoutSequence>,
    current: Option<TimeoutSequence>,
    prev_send: Option<SimTime>,
    last_data_send: Option<SimTime>,
    fast_retransmissions: u32,
}

impl TimeoutSweep {
    /// An empty fold.
    pub(crate) fn new(cfg: &TimeoutConfig) -> TimeoutSweep {
        let mut sweep = TimeoutSweep::default();
        sweep.reset(cfg);
        sweep
    }

    /// Empties the fold for the next flow, detected under `cfg`.
    pub(crate) fn reset(&mut self, cfg: &TimeoutConfig) {
        self.silence_threshold = cfg.silence_threshold;
        self.last_copy_dense.clear();
        self.last_copy_sparse.clear();
        self.sequences.clear();
        self.current = None;
        self.prev_send = None;
        self.last_data_send = None;
        self.fast_retransmissions = 0;
    }

    /// Folds in the data record at `trace.records[idx]`.
    #[inline]
    pub(crate) fn data(&mut self, idx: usize, rec: &PacketRecord) {
        let seq = usize::try_from(rec.seq).unwrap_or(usize::MAX);
        if seq >= self.last_copy_dense.len() {
            self.reach(idx + 1, seq);
        }
        let last_copy = match self.last_copy_dense.get_mut(seq) {
            Some(dense) => dense,
            None => self.last_copy_sparse.entry(rec.seq).or_insert(NEVER_SENT),
        };
        if !rec.retransmit {
            // The recovery phase runs until the first *new-data*
            // transmission (paper §III): only that closes the sequence.
            // Non-silent retransmissions (go-back-N resends, fast
            // retransmits) are recovery traffic — if a ladder chains into
            // another through them with no new data in between, it is one
            // recovery phase, not two overlapping ones.
            if let Some(mut seq) = self.current.take() {
                seq.recovery_end = rec.sent_at;
                self.sequences.push(seq);
            }
            self.last_data_send = Some(rec.sent_at);
        } else if self
            .prev_send
            .is_some_and(|p| rec.sent_at.saturating_since(p) >= self.silence_threshold)
        {
            // An RTO retransmission is a retransmission that follows a
            // long send-silence (the timer had to expire). It is spurious
            // when the copy it repeats had arrived.
            let seq = self.current.get_or_insert_with(|| TimeoutSequence {
                events: Vec::new(),
                retrans_lost: 0,
                ca_end: self.last_data_send.unwrap_or(rec.sent_at),
                silence_start: self.prev_send.unwrap_or(rec.sent_at),
                first_retx_at: rec.sent_at,
                recovery_end: rec.sent_at,
            });
            seq.events.push(TimeoutEvent {
                retx_idx: idx,
                spurious: *last_copy == LAST_COPY_ARRIVED,
            });
            seq.retrans_lost += u32::from(rec.lost());
        } else {
            // Every other retransmission is a fast one: a loss indication
            // of its own outside a sequence, recovery traffic inside one.
            self.fast_retransmissions += 1;
        }
        *last_copy = if rec.lost() {
            LAST_COPY_LOST
        } else {
            LAST_COPY_ARRIVED
        };
        self.prev_send = Some(rec.sent_at);
    }

    /// Bytes the per-seq columns and the closed sequences take.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        let sparse = self.last_copy_sparse.len() * std::mem::size_of::<(u64, u8)>();
        let sequences = self.sequences.len() * std::mem::size_of::<TimeoutSequence>();
        self.last_copy_dense.len() + sparse + sequences
    }

    /// Grows the dense slab to hold `seq`, moving in any spilled seq it
    /// now covers, if `seq` is within [`dense_reach`] of the `records`
    /// so far; else leaves it to the spillway.
    #[cold]
    fn reach(&mut self, records: usize, seq: usize) {
        let reach = dense_reach(records);
        if seq >= reach {
            return;
        }
        let len = (seq + 1).max(2 * self.last_copy_dense.len()).min(reach);
        let dense = &mut self.last_copy_dense;
        dense.resize(len, NEVER_SENT);
        self.last_copy_sparse.retain(|&s, &mut fate| {
            let Some(slot) = usize::try_from(s).ok().and_then(|s| dense.get_mut(s)) else {
                return true;
            };
            *slot = fate;
            false
        });
    }

    /// The analysis, and the number of retransmissions that were not
    /// timeouts. `trace_end` is asked for the trace's last event only when
    /// the flow ended during a recovery phase.
    pub(crate) fn finish(
        &mut self,
        trace_end: impl FnOnce() -> Option<SimTime>,
    ) -> (TimeoutAnalysis, u32) {
        if let Some(mut seq) = self.current.take() {
            seq.recovery_end = trace_end().unwrap_or(seq.ca_end);
            self.sequences.push(seq);
        }
        let analysis = TimeoutAnalysis {
            sequences: std::mem::take(&mut self.sequences),
        };
        (analysis, self.fast_retransmissions)
    }
}

/// Runs the timeout analysis over a flow trace.
pub fn analyze_timeouts(trace: &FlowTrace, cfg: &TimeoutConfig) -> TimeoutAnalysis {
    let mut sweep = TimeoutSweep::new(cfg);
    // Sweep data records in send order (the trace is kept send-sorted).
    for (idx, rec) in trace.records.iter().enumerate() {
        if !rec.is_ack {
            sweep.data(idx, rec);
        }
    }
    sweep.finish(|| trace.end()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FlowMeta, PacketRecord};

    fn data(seq: u64, sent_ms: u64, arrived: bool, retransmit: bool) -> PacketRecord {
        PacketRecord {
            id: sent_ms,
            seq,
            is_ack: false,
            retransmit,
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

    fn trace(records: Vec<PacketRecord>) -> FlowTrace {
        let mut t = FlowTrace::new(0, FlowMeta::default());
        t.records = records;
        t.sort_by_send_time();
        t
    }

    #[test]
    fn detects_backoff_ladder_and_recovery_duration() {
        // CA sends 0,1,2 then seq 2 is lost; RTO at 300ms, retransmission
        // lost, second RTO at 900ms, retransmission arrives, new data at
        // 1000ms.
        let t = trace(vec![
            data(0, 0, true, false),
            data(1, 10, true, false),
            data(2, 20, false, false),
            data(2, 300, false, true), // 1st timeout retx (lost)
            data(2, 900, true, true),  // 2nd timeout retx (arrives)
            data(3, 1000, true, false),
        ]);
        let a = analyze_timeouts(&t, &TimeoutConfig::default());
        assert_eq!(a.sequences.len(), 1);
        let s = &a.sequences[0];
        assert_eq!(s.timeouts(), 2);
        assert_eq!(s.retrans_lost, 1);
        assert_eq!(s.ca_end, SimTime::from_millis(20));
        assert_eq!(s.recovery_end, SimTime::from_millis(1000));
        assert_eq!(s.recovery_duration(), SimDuration::from_millis(980));
        // First RTO estimate: 300 - 20 = 280 ms.
        assert_eq!(s.first_rto(), SimDuration::from_millis(280));
        assert_eq!(a.median_first_rto(), Some(SimDuration::from_millis(280)));
        // 1st timeout: original (lost) => not spurious.
        assert!(!s.events[0].spurious);
        // 2nd timeout: previous retransmission lost => not spurious.
        assert!(!s.events[1].spurious);
        assert_eq!(a.total_timeouts(), 2);
        assert!((a.q_hat() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spurious_timeout_detected_when_original_arrived() {
        // Packet 2 arrives but all its ACKs die; sender still times out.
        let t = trace(vec![
            data(0, 0, true, false),
            data(1, 10, true, false),
            data(2, 20, true, false), // arrived!
            data(2, 300, true, true), // timeout retx => receiver sees dup
            data(3, 340, true, false),
        ]);
        let a = analyze_timeouts(&t, &TimeoutConfig::default());
        assert_eq!(a.total_timeouts(), 1);
        assert_eq!(a.spurious_timeouts(), 1);
        assert!((a.spurious_fraction() - 1.0).abs() < 1e-12);
        assert!(a.sequences[0].started_spurious());
    }

    #[test]
    fn fast_retransmit_is_not_a_timeout() {
        // Retransmission 40 ms after the last send (within the silence
        // threshold) is a fast retransmit, not an RTO.
        let t = trace(vec![
            data(0, 0, true, false),
            data(1, 10, false, false),
            data(2, 20, true, false),
            data(3, 30, true, false),
            data(4, 40, true, false),
            data(1, 70, true, true), // fast retransmit
            data(5, 80, true, false),
        ]);
        let a = analyze_timeouts(&t, &TimeoutConfig::default());
        assert!(a.sequences.is_empty());
        assert_eq!(a.total_timeouts(), 0);
        assert_eq!(a.spurious_fraction(), 0.0);
        assert_eq!(a.mean_recovery(), None);
    }

    #[test]
    fn flow_dying_in_recovery_uses_trace_end() {
        let t = trace(vec![
            data(0, 0, true, false),
            data(1, 10, false, false),
            data(1, 300, false, true),
            data(1, 900, false, true),
        ]);
        let a = analyze_timeouts(&t, &TimeoutConfig::default());
        assert_eq!(a.sequences.len(), 1);
        assert_eq!(a.sequences[0].recovery_end, SimTime::from_millis(900));
    }

    #[test]
    fn multiple_sequences_and_mean_recovery() {
        let t = trace(vec![
            data(0, 0, true, false),
            data(1, 10, false, false),
            data(1, 300, true, true),  // seq A: 1 timeout
            data(2, 400, true, false), // recovery A ends: 390ms
            data(3, 410, false, false),
            data(3, 700, true, true),  // seq B: 1 timeout
            data(4, 800, true, false), // recovery B ends: 390ms
        ]);
        let a = analyze_timeouts(&t, &TimeoutConfig::default());
        assert_eq!(a.sequences.len(), 2);
        let mean = a.mean_recovery().unwrap();
        assert_eq!(mean, SimDuration::from_millis(390));
    }

    #[test]
    fn consecutive_spurious_classification_within_ladder() {
        // Retransmission arrives but the sender (whose ACKs keep dying)
        // times out again: the second timeout is spurious.
        let t = trace(vec![
            data(0, 0, true, false),
            data(1, 10, false, false),
            data(1, 300, true, true), // 1st timeout: original lost, genuine
            data(1, 900, true, true), // 2nd timeout: previous retx arrived => spurious
            data(2, 1000, true, false),
        ]);
        let a = analyze_timeouts(&t, &TimeoutConfig::default());
        let s = &a.sequences[0];
        assert!(!s.events[0].spurious);
        assert!(s.events[1].spurious);
        assert!((a.spurious_fraction() - 0.5).abs() < 1e-12);
    }
}
