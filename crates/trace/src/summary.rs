//! Per-flow measurement summary — every quantity the throughput models
//! need, extracted from a [`FlowTrace`] by one call. [`analyze_flow`] runs
//! the `analysis` modules one after another, and each makes its own full
//! scan (or several) of the records: loss rates, timeout sequences, RTT,
//! ACK rounds, throughput, fast retransmissions — nine-plus passes per
//! flow, not one.

use crate::analysis::latency::estimate_rtt;
use crate::analysis::loss::{loss_rates, LossRates};
use crate::analysis::rounds::{ack_burst_stats_excluding, AckBurstStats};
use crate::analysis::throughput::{throughput, Throughput};
use crate::analysis::timeout::{analyze_timeouts, TimeoutAnalysis, TimeoutConfig};
use crate::record::FlowTrace;
use hsm_simnet::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Everything the models need to know about one measured flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSummary {
    /// Flow id within the dataset.
    pub flow: u32,
    /// Provider label copied from the trace meta.
    pub provider: String,
    /// Scenario label copied from the trace meta.
    pub scenario: String,
    /// Estimated base RTT, seconds.
    pub rtt_s: f64,
    /// Lifetime data loss rate `p_d` (every transmission counted).
    pub p_d: f64,
    /// Data packets sent (including retransmissions).
    pub data_sent: u64,
    /// Lifetime ACK loss rate `p_a`.
    pub p_a: f64,
    /// Empirical ACK-burst loss rate per *congestion-avoidance* round
    /// (recovery-phase pseudo-rounds excluded) — the estimate of `P_a`.
    pub p_a_burst: f64,
    /// Mean ACKs per round (≈ `w/b`).
    pub acks_per_round: f64,
    /// Retransmission loss rate inside timeout recovery, `q̂`.
    pub q_hat: f64,
    /// Total timeouts observed.
    pub timeouts: u32,
    /// Spurious timeouts observed.
    pub spurious_timeouts: u32,
    /// Number of timeout sequences.
    pub timeout_sequences: u32,
    /// Mean timeout-recovery duration, seconds (0 when none occurred).
    pub mean_recovery_s: f64,
    /// Median first-RTO estimate, seconds — the model's `T` (0 when no
    /// timeouts occurred; callers should fall back to `4 * rtt_s`).
    pub t_rto_s: f64,
    /// Number of loss indications (timeout sequences + fast
    /// retransmissions); used to estimate `Q`.
    pub loss_indications: u32,
    /// Fast retransmissions (loss indications that were not timeouts).
    pub fast_retransmissions: u32,
    /// Receiver window limitation `W_m` (segments).
    pub w_m: u32,
    /// Delayed-ACK factor `b`.
    pub b: u32,
    /// Measured throughput, segments per second.
    pub throughput_sps: f64,
    /// Measured goodput, segments per second.
    pub goodput_sps: f64,
    /// Flow duration, seconds.
    pub duration_s: f64,
}

impl FlowSummary {
    /// Fraction of timeouts that were spurious.
    pub fn spurious_fraction(&self) -> f64 {
        if self.timeouts == 0 {
            0.0
        } else {
            f64::from(self.spurious_timeouts) / f64::from(self.timeouts)
        }
    }

    /// Empirical probability that a loss indication is a timeout (the
    /// model's `Q`), measured as timeout sequences over all loss
    /// indications.
    pub fn q_indication_fraction(&self) -> f64 {
        if self.loss_indications == 0 {
            0.0
        } else {
            f64::from(self.timeout_sequences) / f64::from(self.loss_indications)
        }
    }

    /// Loss-*event* rate: loss events the sender reacted to (every timeout
    /// plus every fast retransmission) per data packet sent. This is the
    /// `p` of the canonical Padhye trace methodology — under the bursty
    /// loss of high-speed rails it is far below the raw lifetime `p_d`,
    /// which is precisely why Padhye overestimates there.
    pub fn p_d_indications(&self) -> f64 {
        if self.data_sent == 0 {
            0.0
        } else {
            f64::from(self.timeouts + self.fast_retransmissions) / self.data_sent as f64
        }
    }

    /// Loss-*indication* rate with each timeout sequence counted once
    /// (timeout sequences + fast retransmissions, per data packet sent) —
    /// the model's view, where one indication ends one CA phase.
    pub fn p_d_sequences(&self) -> f64 {
        if self.data_sent == 0 {
            0.0
        } else {
            f64::from(self.loss_indications) / self.data_sent as f64
        }
    }
}

/// Intermediate analyses bundled with the summary, for callers that need
/// the details (figure generators).
#[derive(Debug, Clone)]
pub struct FlowAnalysis {
    /// The one-number-per-quantity summary.
    pub summary: FlowSummary,
    /// Loss counts.
    pub losses: LossRates,
    /// Timeout sequences and classifications.
    pub timeouts: TimeoutAnalysis,
    /// ACK-round burst statistics.
    pub ack_bursts: AckBurstStats,
    /// Throughput measures.
    pub throughput: Throughput,
}

/// Counts fast retransmissions: retransmitted data packets that are *not*
/// part of any timeout sequence.
fn fast_retransmissions(trace: &FlowTrace, timeouts: &TimeoutAnalysis) -> u32 {
    let in_timeout: std::collections::HashSet<usize> = timeouts
        .sequences
        .iter()
        .flat_map(|s| s.events.iter().map(|e| e.retx_idx))
        .collect();
    trace
        .records
        .iter()
        .enumerate()
        .filter(|(i, r)| !r.is_ack && r.retransmit && !in_timeout.contains(i))
        .count() as u32
}

/// Runs the full measurement pipeline over one trace.
pub fn analyze_flow(trace: &FlowTrace, cfg: &TimeoutConfig) -> FlowAnalysis {
    let losses = loss_rates(trace);
    let timeouts = analyze_timeouts(trace, cfg);
    let rtt = estimate_rtt(trace).unwrap_or(SimDuration::from_millis(60));
    // Round gap: half an RTT separates one round's ACK burst from the next.
    let gap = SimDuration::from_secs_f64(rtt.as_secs_f64() * 0.5);
    // P_a is a congestion-avoidance quantity: exclude recovery phases.
    let recovery_windows: Vec<_> = timeouts
        .sequences
        .iter()
        .map(|s| (s.ca_end, s.recovery_end))
        .collect();
    let ack_bursts = ack_burst_stats_excluding(trace, gap, &recovery_windows);
    let tp = throughput(trace);
    let fast_rtx = fast_retransmissions(trace, &timeouts);

    let summary = FlowSummary {
        flow: trace.flow,
        provider: trace.meta.provider.clone(),
        scenario: trace.meta.scenario.clone(),
        rtt_s: rtt.as_secs_f64(),
        p_d: losses.data_loss_rate(),
        data_sent: losses.data_sent,
        p_a: losses.ack_loss_rate(),
        p_a_burst: ack_bursts.burst_loss_rate(),
        acks_per_round: ack_bursts.mean_acks_per_round,
        q_hat: timeouts.q_hat(),
        timeouts: timeouts.total_timeouts(),
        spurious_timeouts: timeouts.spurious_timeouts(),
        timeout_sequences: timeouts.sequences.len() as u32,
        mean_recovery_s: timeouts
            .mean_recovery()
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0),
        // Median, not mean: first-RTO samples are heavy-tailed (a single
        // post-RTT-spike timer can be 10× the rest) and `T` must be the
        // typical timer at ladder start.
        t_rto_s: timeouts
            .median_first_rto()
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0),
        loss_indications: timeouts.sequences.len() as u32 + fast_rtx,
        fast_retransmissions: fast_rtx,
        w_m: trace.meta.w_m,
        b: trace.meta.b,
        throughput_sps: tp.segments_per_sec(),
        goodput_sps: tp.goodput_segments_per_sec(),
        duration_s: tp.duration_s,
    };
    // A spurious timeout is a *kind* of timeout; the classifier can never
    // find more of them than timeouts total.
    debug_assert!(
        summary.spurious_timeouts <= summary.timeouts,
        "metrics invariant violated: {} spurious timeouts > {} timeouts",
        summary.spurious_timeouts,
        summary.timeouts,
    );
    FlowAnalysis {
        summary,
        losses,
        timeouts,
        ack_bursts,
        throughput: tp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FlowMeta, PacketRecord};
    use hsm_simnet::time::SimTime;

    fn data(seq: u64, sent_ms: u64, arrived: bool, retransmit: bool) -> PacketRecord {
        PacketRecord {
            id: sent_ms * 10,
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

    fn ack(cum: u64, sent_ms: u64, arrived: bool) -> PacketRecord {
        PacketRecord {
            id: sent_ms * 10 + 1,
            seq: cum,
            is_ack: true,
            retransmit: false,
            acked_count: 1,
            size_bytes: 40,
            sent_at: SimTime::from_millis(sent_ms),
            arrived_at: if arrived {
                Some(SimTime::from_millis(sent_ms + 28))
            } else {
                None
            },
        }
    }

    fn sample_trace() -> FlowTrace {
        let mut t = FlowTrace::new(
            4,
            FlowMeta {
                provider: "China Mobile".into(),
                scenario: "high-speed".into(),
                w_m: 32,
                b: 2,
                mss_bytes: 1460,
            },
        );
        t.records = vec![
            data(0, 0, true, false),
            ack(1, 31, true),
            data(1, 60, true, false),
            data(2, 61, false, false),
            ack(2, 92, false),
            data(2, 400, true, true), // timeout retx
            data(3, 450, true, false),
            ack(4, 481, true),
        ];
        t.sort_by_send_time();
        t
    }

    #[test]
    fn summary_extracts_all_parameters() {
        let a = analyze_flow(&sample_trace(), &TimeoutConfig::default());
        let s = &a.summary;
        assert_eq!(s.provider, "China Mobile");
        assert_eq!(s.w_m, 32);
        assert_eq!(s.b, 2);
        // 5 data transmissions, 1 lost.
        assert!((s.p_d - 0.2).abs() < 1e-12);
        // 3 ACKs, 1 lost.
        assert!((s.p_a - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.timeout_sequences, 1);
        assert_eq!(s.loss_indications, 1);
        assert!(s.rtt_s > 0.0);
        assert!(s.throughput_sps > 0.0);
        assert!(s.goodput_sps <= s.throughput_sps);
        assert_eq!(s.q_indication_fraction(), 1.0);
    }

    #[test]
    fn fast_retransmissions_counted_as_indications() {
        let mut t = sample_trace();
        // Add a fast retransmit (short gap after last send at 481... put
        // new data then a quick retransmission).
        t.records.push(data(4, 500, true, false));
        t.records.push(data(5, 505, false, false));
        t.records.push(data(6, 510, true, false));
        t.records.push(data(5, 560, true, true)); // 50ms gap: fast rtx
        t.records.push(data(7, 570, true, false));
        t.sort_by_send_time();
        let a = analyze_flow(&t, &TimeoutConfig::default());
        assert_eq!(a.summary.timeout_sequences, 1);
        assert_eq!(a.summary.loss_indications, 2);
        assert!((a.summary.q_indication_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spurious_fraction_zero_without_timeouts() {
        let mut t = FlowTrace::new(0, FlowMeta::default());
        t.records = vec![data(0, 0, true, false), ack(1, 31, true)];
        let a = analyze_flow(&t, &TimeoutConfig::default());
        assert_eq!(a.summary.spurious_fraction(), 0.0);
        assert_eq!(a.summary.q_indication_fraction(), 0.0);
    }
}
