//! Endpoint-internal metrics.
//!
//! The trace analyses (hsm-trace) infer everything from packet captures,
//! as the paper had to. The TCP implementation additionally exports its
//! *internal* ground truth — actual timeout events, cwnd evolution, phase
//! changes — which the integration tests use to validate the trace-based
//! inference, and which the Fig. 7–9 window-evolution plots are drawn
//! from.

use crate::cwnd::Phase;
use hsm_simnet::time::SimTime;

/// One point of the congestion-window evolution (Figs. 7–9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CwndSample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Congestion window, fractional segments.
    pub cwnd: f64,
    /// Effective send window (min(cwnd, W_m)), whole segments.
    pub window: u64,
    /// Phase at the time.
    pub phase: Phase,
}

/// Sender-side ground truth.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SenderMetrics {
    /// Window samples, one per change. Empty for a run under
    /// [`Keep::Summary`](crate::connection::Keep::Summary), whose sender
    /// logs nothing: campaigns never read the log, and it runs to tens of
    /// thousands of samples a flow.
    pub cwnd_log: Vec<CwndSample>,
    /// Times at which the retransmission timer expired.
    pub timeouts: Vec<SimTime>,
    /// The (backed-off) timer value that expired, seconds, parallel to
    /// `timeouts`.
    pub rto_at_timeout: Vec<f64>,
    /// Times of fast retransmissions.
    pub fast_retransmits: Vec<SimTime>,
    /// Data segments sent, including retransmissions.
    pub segments_sent: u64,
    /// Retransmissions sent.
    pub retransmissions: u64,
    /// Highest sequence number sent so far.
    pub max_seq_sent: u64,
    /// ACK packets received.
    pub acks_received: u64,
    /// Duplicate ACKs received.
    pub dup_acks_received: u64,
    /// Timeouts detected as spurious and undone, by either of the two
    /// distinct detectors: the cumulative-jump check of
    /// [`SenderConfig::spurious_rto_undo`](crate::reno::SenderConfig::spurious_rto_undo),
    /// which also catches ACK-burst loss, or the F-RTO recovery strategy.
    pub spurious_rto_undone: u64,
    /// New-data probe segments sent by the F-RTO state machine
    /// (RFC 5682 step 2b; at most two per timeout).
    pub frto_probes: u64,
    /// Timeouts whose exponential backoff was withheld by the
    /// ACK-loss-robust strategy pending a corroborating silent RTO.
    pub backoff_skipped: u64,
}

impl SenderMetrics {
    /// Records a window sample.
    pub fn log_cwnd(&mut self, at: SimTime, cwnd: f64, window: u64, phase: Phase) {
        self.cwnd_log.push(CwndSample {
            at,
            cwnd,
            window,
            phase,
        });
    }

    /// Number of timeout events.
    pub fn timeout_count(&self) -> usize {
        self.timeouts.len()
    }

    /// Checks the cross-counter invariants of the metrics ledger:
    /// retransmissions are a subset of sends, duplicate ACKs a subset of
    /// ACKs, spurious (undone) timeouts a subset of timeouts, and the
    /// timeout/RTO logs move in lockstep. The sender re-checks after every
    /// ACK and timeout in debug/test builds.
    ///
    /// # Panics
    ///
    /// Panics when the ledger is inconsistent.
    #[cfg(any(debug_assertions, test))]
    pub fn assert_invariants(&self) {
        assert!(
            self.retransmissions <= self.segments_sent,
            "metrics invariant violated: {} retransmissions > {} segments sent",
            self.retransmissions,
            self.segments_sent,
        );
        assert!(
            self.dup_acks_received <= self.acks_received,
            "metrics invariant violated: {} dup ACKs > {} ACKs received",
            self.dup_acks_received,
            self.acks_received,
        );
        assert!(
            self.spurious_rto_undone <= self.timeouts.len() as u64,
            "metrics invariant violated: {} spurious timeouts > {} timeouts",
            self.spurious_rto_undone,
            self.timeouts.len(),
        );
        assert_eq!(
            self.timeouts.len(),
            self.rto_at_timeout.len(),
            "metrics invariant violated: timeout and RTO logs out of lockstep",
        );
        assert!(
            self.frto_probes <= 2 * self.timeouts.len() as u64,
            "metrics invariant violated: {} F-RTO probes > 2 × {} timeouts",
            self.frto_probes,
            self.timeouts.len(),
        );
        assert!(
            self.backoff_skipped <= self.timeouts.len() as u64,
            "metrics invariant violated: {} skipped backoffs > {} timeouts",
            self.backoff_skipped,
            self.timeouts.len(),
        );
    }
}

/// Receiver-side ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReceiverMetrics {
    /// Data segments received (including duplicates).
    pub segments_received: u64,
    /// Segments whose payload had already been received — the receiver-side
    /// witness of a *spurious* retransmission (paper §III-B-2).
    pub duplicate_payloads: u64,
    /// ACKs sent.
    pub acks_sent: u64,
    /// Highest in-order sequence number received (next expected − 1).
    pub next_expected: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_and_count() {
        let mut m = SenderMetrics::default();
        m.log_cwnd(SimTime::ZERO, 1.0, 1, Phase::SlowStart);
        m.log_cwnd(SimTime::from_millis(10), 2.0, 2, Phase::SlowStart);
        m.timeouts.push(SimTime::from_secs(1));
        assert_eq!(m.cwnd_log.len(), 2);
        assert_eq!(m.timeout_count(), 1);
        assert_eq!(m.cwnd_log[1].window, 2);
    }

    #[test]
    #[should_panic(expected = "spurious timeouts")]
    fn spurious_exceeding_timeouts_trips_the_invariant() {
        // Violation injection: claim a spurious timeout that never
        // happened. The ledger check must refuse it.
        let m = SenderMetrics {
            spurious_rto_undone: 1,
            ..Default::default()
        };
        m.assert_invariants();
    }

    #[test]
    fn consistent_ledger_passes_the_invariant() {
        let mut m = SenderMetrics {
            segments_sent: 10,
            retransmissions: 2,
            acks_received: 8,
            dup_acks_received: 3,
            ..Default::default()
        };
        m.timeouts.push(SimTime::from_secs(1));
        m.rto_at_timeout.push(1.0);
        m.spurious_rto_undone = 1;
        m.assert_invariants();
    }

    #[test]
    fn receiver_metrics_default_zero() {
        let r = ReceiverMetrics::default();
        assert_eq!(r.segments_received, 0);
        assert_eq!(r.duplicate_payloads, 0);
    }
}
