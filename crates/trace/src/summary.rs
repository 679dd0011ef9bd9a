//! Per-flow measurement summary — every quantity the throughput models
//! need, extracted from a flow's packet records by one fold.
//! [`FlowFold`] takes each record once, in send order, as it becomes
//! final: one sweep advances every `analysis` module's per-record step
//! together (loss counts, the timeout state machine, latencies for the RTT
//! medians, deliveries and the flow's time span) and keeps `sent_at` and
//! `lost` of each ACK, four bytes for both; its finish then forms the ACK
//! rounds, whose gap is half the RTT the sweep has measured. A campaign
//! flow pushes the records the engine's packet arena drains while it runs
//! ([`flow_records`](crate::capture::flow_records)) and never stores its
//! capture; [`analyze_records`] runs the same fold over any record
//! iterator and [`analyze_flow`] over a stored [`FlowTrace`]. The
//! stand-alone functions of the `analysis` modules fold a trace through
//! the same steps, one analysis at a time.

use crate::analysis::latency::RttSweep;
use crate::analysis::loss::LossRates;
use crate::analysis::rounds::{AckBurstStats, BurstSweep, WindowWalk};
use crate::analysis::throughput::{Throughput, ThroughputSweep};
use crate::analysis::timeout::{TimeoutAnalysis, TimeoutConfig, TimeoutSweep};
use crate::column::Column;
use crate::record::{FlowMeta, FlowTrace, Label, PacketRecord};
use hsm_simnet::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Everything the models need to know about one measured flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSummary {
    /// Flow id within the dataset.
    pub flow: u32,
    /// Provider label, copied from the trace meta. A [`Label`] is a
    /// `&'static str`, so the summary is plain data: cloning it (a
    /// memory-cache hit does) is a copy and dropping it touches no
    /// counter. Serialized as the plain string.
    pub provider: Label,
    /// Scenario label, copied from the trace meta likewise.
    pub scenario: Label,
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

// A summary is plain data: an `Arc` or `String` label would make every
// cache hit's clone and every dropped pass touch a counter or the heap.
const _: () = assert!(!std::mem::needs_drop::<FlowSummary>());

impl FlowSummary {
    /// Fraction of timeouts that were spurious.
    pub fn spurious_fraction(&self) -> f64 {
        if self.timeouts == 0 {
            0.0
        } else {
            f64::from(self.spurious_timeouts) / f64::from(self.timeouts)
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

/// Runs the full measurement pipeline over one trace: [`analyze_records`]
/// over its stored records.
pub fn analyze_flow(trace: &FlowTrace, cfg: &TimeoutConfig) -> FlowAnalysis {
    let records = trace.records.iter().copied();
    analyze_records(trace.flow, &trace.meta, records, cfg)
}

/// Runs the full measurement pipeline over the records of flow `flow`,
/// read once, in send order, from wherever they are kept: a [`FlowFold`]
/// over fresh columns, fed the iterator. A record's index — what
/// [`TimeoutEvent::retx_idx`](crate::analysis::timeout::TimeoutEvent::retx_idx)
/// names — is its position in `records`.
pub fn analyze_records(
    flow: u32,
    meta: &FlowMeta,
    records: impl Iterator<Item = PacketRecord>,
    cfg: &TimeoutConfig,
) -> FlowAnalysis {
    let mut columns = FoldColumns::default();
    let mut fold = FlowFold::new(cfg, &mut columns);
    fold.extend(records);
    fold.finish(flow, meta)
}

/// The working columns of a [`FlowFold`]: every per-record fact the
/// analysis keeps until the flow's last record — 4 bytes a delivered
/// packet's latency, 4 an ACK's send time and fate, and a byte and a bit
/// a sequence number for the timeout and throughput sweeps. A fold
/// empties them when it starts and leaves their capacity behind, so a
/// caller that holds one `FoldColumns` across many flows stops allocating
/// once it has folded its longest.
#[derive(Debug, Default)]
pub struct FoldColumns {
    timeouts: TimeoutSweep,
    rtt: RttSweep,
    tp: ThroughputSweep,
    // Rounds wait for the RTT (their gap), which waits for the last
    // record: keep the two facts a round needs of each ACK (4 bytes an
    // ACK; a receiver sends at most one ACK per segment).
    acks: AckColumn,
}

impl FoldColumns {
    /// Bytes the columns' values take.
    #[cfg(test)]
    fn held_bytes(&self) -> usize {
        let (timeouts, tp) = (self.timeouts.held_bytes(), self.tp.held_bytes());
        timeouts + self.rtt.held_bytes() + tp + self.acks.packed.held_bytes()
    }
}

/// Each ACK's send time and fate, one packed value an ACK: the
/// microseconds since the previous ACK's send, shifted left one bit, with
/// the loss flag in bit 0. Send times only grow, so the value fits four
/// bytes unless ACKs fall silent for 2³¹ µs (36 minutes), which widens the
/// column to eight. The shift drops a gap's bit 63, so gaps are kept
/// modulo 2⁶³: every send time below 2⁶³ µs reads back exactly, even one
/// earlier than the ACK before it.
#[derive(Debug, Default)]
struct AckColumn {
    packed: Column,
    /// The last ACK's send time, microseconds.
    last_sent: u64,
}

impl AckColumn {
    const TIME_MASK: u64 = u64::MAX >> 1;

    fn clear(&mut self) {
        self.packed.clear();
        self.last_sent = 0;
    }

    #[inline]
    fn push(&mut self, sent_at: SimTime, lost: bool) {
        let sent = sent_at.as_micros();
        assert!(
            sent <= Self::TIME_MASK,
            "an ACK sent at {sent} µs, past the fold's 2⁶³ µs"
        );
        self.packed
            .push(sent.wrapping_sub(self.last_sent) << 1 | u64::from(lost));
        self.last_sent = sent;
    }

    /// Every ACK's `(sent_at, lost)`, in push order.
    fn iter(&self) -> impl Iterator<Item = (SimTime, bool)> + '_ {
        let mut sent = 0;
        self.packed.iter().map(move |packed| {
            sent = (sent + (packed >> 1)) & Self::TIME_MASK;
            (SimTime::from_micros(sent), packed & 1 == 1)
        })
    }
}

/// The measurement pipeline as a push fold: [`FlowFold::push`] takes a
/// flow's records one at a time, in send order, as they become final —
/// straight from the engine's packet arena while the flow still runs —
/// or `extend` a batch of them, and [`FlowFold::finish`] turns them into
/// the [`FlowAnalysis`].
///
/// One sweep advances every `analysis` module's per-record step together
/// (loss counts, the timeout state machine, latencies for the RTT
/// medians, deliveries and the flow's time span) and keeps `sent_at` and
/// `lost` of each ACK; the finish then forms the ACK rounds, whose gap is
/// half the RTT the sweep has measured.
#[derive(Debug)]
pub struct FlowFold<'a> {
    columns: &'a mut FoldColumns,
    losses: LossRates,
    /// Records pushed so far: the next one's index.
    records: usize,
}

impl<'a> FlowFold<'a> {
    /// An empty fold for a flow whose timeouts are detected under `cfg`,
    /// working in `columns` (emptied here, their capacity kept).
    pub fn new(cfg: &TimeoutConfig, columns: &'a mut FoldColumns) -> FlowFold<'a> {
        columns.timeouts.reset(cfg);
        columns.rtt.reset();
        columns.tp.reset();
        columns.acks.clear();
        FlowFold {
            columns,
            losses: LossRates::default(),
            records: 0,
        }
    }

    /// Folds in the flow's next record.
    ///
    /// # Panics
    ///
    /// On an ACK sent at or after 2⁶³ µs, which the ACK column cannot
    /// hold.
    pub fn push(&mut self, rec: PacketRecord) {
        self.extend(std::iter::once(rec));
    }

    /// The analysis of flow `flow`, recorded under `meta`, from every
    /// record pushed.
    pub fn finish(self, flow: u32, meta: &FlowMeta) -> FlowAnalysis {
        let FlowFold {
            columns, losses, ..
        } = self;
        // A retransmission is an RTO's or a fast one: the second count is the
        // loss indications that were not timeouts.
        let tp = &columns.tp;
        let (timeouts, fast_rtx) = columns.timeouts.finish(|| tp.end());
        let tp = tp.finish();
        let rtt = columns.rtt.finish().unwrap_or(SimDuration::from_millis(60));

        // Round gap: half an RTT separates one round's ACK burst from the next.
        let gap = SimDuration::from_secs_f64(rtt.as_secs_f64() * 0.5);
        // P_a is a congestion-avoidance quantity: exclude rounds that start in
        // a recovery phase. The phases are sorted and disjoint — a sequence's
        // `ca_end` is a new-data send no earlier than the one that closed the
        // sequence before it at `recovery_end`.
        let mut recovery = WindowWalk::new(
            timeouts
                .sequences
                .iter()
                .map(|s| (s.ca_end, s.recovery_end)),
        );
        let mut bursts = BurstSweep::new(gap, |round_start| recovery.contains(round_start));
        for (sent_at, lost) in columns.acks.iter() {
            bursts.ack(sent_at, lost);
        }
        let ack_bursts = bursts.finish();

        let summary = FlowSummary {
            flow,
            provider: meta.provider,
            scenario: meta.scenario,
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
            w_m: meta.w_m,
            b: meta.b,
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
}

/// Folds in the flow's next records, in order: the sweep's loop, which
/// inlines every per-record step, so a batch costs no call per record.
impl Extend<PacketRecord> for FlowFold<'_> {
    fn extend<I: IntoIterator<Item = PacketRecord>>(&mut self, records: I) {
        let FlowFold {
            columns,
            losses,
            records: next,
        } = self;
        // `for_each`, not `for`: an adapter chain (filter, map) then folds
        // inside one loop instead of returning each record through `next`.
        records.into_iter().for_each(|rec| {
            losses.record(&rec);
            columns.rtt.record(&rec);
            columns.tp.record(&rec);
            if rec.is_ack {
                columns.acks.push(rec.sent_at, rec.lost());
            } else {
                columns.timeouts.data(*next, &rec);
            }
            *next += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::latency::estimate_rtt;
    use crate::analysis::loss::loss_rates;
    use crate::analysis::rounds::{ack_burst_stats_excluding, ack_rounds};
    use crate::analysis::throughput::throughput;
    use crate::analysis::timeout::analyze_timeouts;
    use crate::record::{FlowMeta, PacketRecord};
    use std::collections::HashSet;

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
        assert_eq!(&*s.provider, "China Mobile");
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
    }

    #[test]
    fn spurious_fraction_zero_without_timeouts() {
        let mut t = FlowTrace::new(0, FlowMeta::default());
        t.records = vec![data(0, 0, true, false), ack(1, 31, true)];
        let a = analyze_flow(&t, &TimeoutConfig::default());
        assert_eq!(a.summary.spurious_fraction(), 0.0);
    }

    // ---- The sweep against the multi-pass composition it replaced ----

    /// Fast retransmissions as a set difference: retransmitted data
    /// records that no timeout event names.
    fn fast_retransmissions(trace: &FlowTrace, timeouts: &TimeoutAnalysis) -> u32 {
        let in_timeout: HashSet<usize> = timeouts
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

    /// Burst statistics with every round materialised and tested against
    /// every window.
    fn burst_stats_by_any(
        trace: &FlowTrace,
        gap: SimDuration,
        recovery_windows: &[(SimTime, SimTime)],
    ) -> AckBurstStats {
        let rounds = ack_rounds(trace, gap);
        let kept: Vec<_> = rounds
            .iter()
            .filter(|r| {
                !recovery_windows
                    .iter()
                    .any(|&(from, to)| r.start >= from && r.start < to)
            })
            .collect();
        let measurable: Vec<_> = kept.iter().filter(|r| r.acks.len() >= 2).collect();
        AckBurstStats {
            rounds: kept.len(),
            measurable_rounds: measurable.len(),
            burst_lost_rounds: measurable.iter().filter(|r| r.burst_lost()).count(),
            mean_acks_per_round: if kept.is_empty() {
                0.0
            } else {
                kept.iter().map(|r| r.acks.len()).sum::<usize>() as f64 / kept.len() as f64
            },
        }
    }

    /// The spurious verdict from its definition: the latest earlier
    /// transmission of the retransmitted seq arrived.
    fn previous_copy_arrived(trace: &FlowTrace, retx_idx: usize) -> bool {
        let seq = trace.records[retx_idx].seq;
        let mut earlier = trace.records[..retx_idx].iter().rev();
        earlier
            .find(|r| !r.is_ack && r.seq == seq)
            .is_some_and(|r| r.arrived_at.is_some())
    }

    /// The RTT from full-width latencies: each direction's delivered
    /// latencies as `SimDuration`s, sorted, and the one at `len / 2`.
    fn wide_rtt(trace: &FlowTrace) -> Option<SimDuration> {
        let median = |acks: bool| {
            let mut xs: Vec<SimDuration> = trace
                .records
                .iter()
                .filter(|r| r.is_ack == acks)
                .filter_map(|r| r.latency())
                .collect();
            xs.sort_unstable();
            xs.get(xs.len() / 2).copied()
        };
        Some(median(false)? + median(true)?)
    }

    /// `analyze_flow` as it was before the sweep: the stand-alone analyses
    /// one after another, each scanning the records for itself, and the
    /// RTT from full-width latencies.
    fn analyze_flow_by_parts(trace: &FlowTrace, cfg: &TimeoutConfig) -> FlowAnalysis {
        let losses = loss_rates(trace);
        let timeouts = analyze_timeouts(trace, cfg);
        let rtt = wide_rtt(trace);
        assert_eq!(estimate_rtt(trace), rtt);
        let rtt = rtt.unwrap_or(SimDuration::from_millis(60));
        let gap = SimDuration::from_secs_f64(rtt.as_secs_f64() * 0.5);
        let recovery_windows: Vec<_> = timeouts
            .sequences
            .iter()
            .map(|s| (s.ca_end, s.recovery_end))
            .collect();
        let ack_bursts = burst_stats_by_any(trace, gap, &recovery_windows);
        assert_eq!(
            ack_burst_stats_excluding(trace, gap, &recovery_windows),
            ack_bursts
        );
        let tp = throughput(trace);
        let fast_rtx = fast_retransmissions(trace, &timeouts);
        let summary = FlowSummary {
            flow: trace.flow,
            provider: trace.meta.provider,
            scenario: trace.meta.scenario,
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
            mean_recovery_s: timeouts.mean_recovery().map_or(0.0, |d| d.as_secs_f64()),
            t_rto_s: timeouts.median_first_rto().map_or(0.0, |d| d.as_secs_f64()),
            loss_indications: timeouts.sequences.len() as u32 + fast_rtx,
            fast_retransmissions: fast_rtx,
            w_m: trace.meta.w_m,
            b: trace.meta.b,
            throughput_sps: tp.segments_per_sec(),
            goodput_sps: tp.goodput_segments_per_sec(),
            duration_s: tp.duration_s,
        };
        FlowAnalysis {
            summary,
            losses,
            timeouts,
            ack_bursts,
            throughput: tp,
        }
    }

    /// Runs both and compares the whole `FlowAnalysis`, part by part.
    fn assert_sweep_matches_parts(trace: &FlowTrace) -> FlowAnalysis {
        let cfg = TimeoutConfig::default();
        let sweep = analyze_flow(trace, &cfg);
        let parts = analyze_flow_by_parts(trace, &cfg);
        assert_eq!(sweep.summary, parts.summary);
        assert_eq!(sweep.losses, parts.losses);
        assert_eq!(sweep.timeouts, parts.timeouts);
        assert_eq!(sweep.ack_bursts, parts.ack_bursts);
        assert_eq!(sweep.throughput, parts.throughput);
        for event in sweep.timeouts.sequences.iter().flat_map(|s| &s.events) {
            assert_eq!(
                event.spurious,
                previous_copy_arrived(trace, event.retx_idx),
                "timeout at record {}",
                event.retx_idx
            );
        }
        sweep
    }

    fn trace_of(records: Vec<PacketRecord>) -> FlowTrace {
        let mut t = FlowTrace::new(7, FlowMeta::default());
        t.records = records;
        t.sort_by_send_time();
        t
    }

    const FALLBACK_RTT_S: f64 = 0.060;

    #[test]
    fn one_direction_traces_fall_back_to_the_default_rtt() {
        let empty = assert_sweep_matches_parts(&trace_of(vec![]));
        assert_eq!(empty.summary.rtt_s, FALLBACK_RTT_S);
        assert_eq!(empty.summary.duration_s, 0.0);

        let acks = (0..6).map(|i| ack(i, i * 20, i % 2 == 0)).collect();
        let ack_only = assert_sweep_matches_parts(&trace_of(acks));
        assert_eq!(ack_only.summary.rtt_s, FALLBACK_RTT_S);
        assert_eq!(ack_only.ack_bursts.rounds, 1);

        let data_only = assert_sweep_matches_parts(&trace_of(vec![
            data(0, 0, true, false),
            data(1, 10, false, false),
            data(1, 300, true, true),
        ]));
        assert_eq!(data_only.summary.rtt_s, FALLBACK_RTT_S);
        assert_eq!(data_only.summary.timeouts, 1);

        let deaf = assert_sweep_matches_parts(&trace_of(vec![
            data(0, 0, true, false),
            ack(1, 31, false),
            data(1, 60, true, false),
            ack(2, 91, false),
        ]));
        assert_eq!(deaf.summary.rtt_s, FALLBACK_RTT_S);
        assert_eq!(deaf.summary.p_a, 1.0);
    }

    #[test]
    fn spurious_verdict_reaches_seqs_past_the_dense_slab() {
        // 4 records: the slab ends at 4 * 4 + 1024.
        let far = 1 << 40;
        let a = assert_sweep_matches_parts(&trace_of(vec![
            data(0, 0, true, false),
            data(far, 10, true, false),
            data(far, 300, false, true), // the copy it repeats arrived
            data(far, 900, true, true),  // the copy it repeats was lost
        ]));
        let verdicts: Vec<bool> = a.timeouts.sequences[0]
            .events
            .iter()
            .map(|e| e.spurious)
            .collect();
        assert_eq!(verdicts, [true, false]);
        assert_eq!(a.throughput.unique_segments_delivered, 2);
    }

    #[test]
    fn a_seq_spilled_before_the_dense_slab_reached_it_keeps_one_fate() {
        // Seq 3000 comes first, past the slab's reach of one record, and
        // spills; 601 new segments later the slab grows over it. Its RTO
        // retransmission must still see the first copy arrived, and its
        // delivery must not count a second unique segment.
        let mut records = vec![data(3000, 0, true, false)];
        records.extend((0..=600).map(|seq| data(seq, 1 + seq, true, false)));
        records.push(data(3000, 2000, true, true));
        let a = assert_sweep_matches_parts(&trace_of(records));
        assert_eq!(a.timeouts.total_timeouts(), 1);
        assert_eq!(a.timeouts.spurious_timeouts(), 1);
        assert_eq!(a.throughput.segments_delivered, 603);
        assert_eq!(a.throughput.unique_segments_delivered, 602);
    }

    /// Columns kept from one flow to the next carry none of its facts: a
    /// flow that opens with an RTO retransmission of a seq the last flow
    /// delivered sees no copy of it, and counts its own delivery. Pushed
    /// one record at a time, the fold equals `analyze_flow`'s batch.
    #[test]
    fn a_fold_on_kept_columns_forgets_the_last_flow() {
        let cfg = TimeoutConfig::default();
        let mut columns = FoldColumns::default();
        let first = trace_of((0..4).map(|seq| data(seq, seq, true, false)).collect());
        let second = trace_of(vec![
            data(9, 0, true, false),
            data(2, 900, true, true),
            data(10, 950, true, false),
        ]);
        for trace in [&first, &second] {
            let mut fold = FlowFold::new(&cfg, &mut columns);
            trace.records.iter().for_each(|&rec| fold.push(rec));
            let kept = fold.finish(trace.flow, &trace.meta);
            let fresh = analyze_flow(trace, &cfg);
            assert_eq!(kept.summary, fresh.summary);
            assert_eq!(kept.timeouts, fresh.timeouts);
            assert_eq!(kept.throughput, fresh.throughput);
        }
        let second = analyze_flow(&second, &cfg);
        assert_eq!(second.timeouts.spurious_timeouts(), 0);
        assert_eq!(second.throughput.unique_segments_delivered, 3);
    }

    #[test]
    fn flow_dying_in_recovery_ends_its_phase_at_the_last_event() {
        let a = assert_sweep_matches_parts(&trace_of(vec![
            data(0, 0, true, false),
            ack(1, 31, true),
            data(1, 60, false, false),
            data(1, 400, false, true),
            data(1, 1000, true, true), // arrives at 1030, the trace's end
        ]));
        let seq = &a.timeouts.sequences[0];
        assert_eq!(seq.timeouts(), 2);
        assert_eq!(seq.recovery_end, SimTime::from_millis(1030));
    }

    #[test]
    fn ladders_chained_through_fast_retransmits_are_one_phase() {
        let a = assert_sweep_matches_parts(&trace_of(vec![
            data(0, 0, true, false),
            data(1, 10, false, false),
            data(2, 20, false, false),
            data(1, 400, false, true),  // RTO
            data(2, 450, false, true),  // go-back-N resend: not silent
            data(1, 1000, true, true),  // RTO again, no new data in between
            data(2, 1040, true, true),  // resend
            data(3, 1100, true, false), // new data closes the phase
        ]));
        assert_eq!(a.summary.timeout_sequences, 1);
        assert_eq!(a.summary.timeouts, 2);
        assert_eq!(a.summary.fast_retransmissions, 2);
        assert_eq!(
            a.timeouts.sequences[0].recovery_end,
            SimTime::from_millis(1100)
        );
    }

    #[test]
    fn recovery_window_is_closed_at_ca_end_and_open_at_recovery_end() {
        // RTT 30 + 28 ms, so ACKs more than 29 ms apart start a new round.
        let a = assert_sweep_matches_parts(&trace_of(vec![
            data(0, 0, true, false),
            data(1, 10, true, false),
            ack(1, 40, true),
            ack(2, 45, true), // round {40, 45}: congestion avoidance
            data(2, 100, false, false),
            ack(2, 100, false), // starts exactly at ca_end: recovery
            data(2, 400, true, true),
            ack(3, 431, true), // inside the phase
            data(3, 500, true, false),
            ack(3, 500, false), // starts exactly at recovery_end: kept
            ack(3, 505, false),
            data(4, 510, true, false),
        ]));
        let seq = &a.timeouts.sequences[0];
        assert_eq!(
            (seq.ca_end, seq.recovery_end),
            (SimTime::from_millis(100), SimTime::from_millis(500))
        );
        assert_eq!(a.ack_bursts.rounds, 2);
        assert_eq!(a.ack_bursts.measurable_rounds, 2);
        assert_eq!(a.ack_bursts.burst_lost_rounds, 1);
    }

    /// Send gaps that sit on both sides of the round gap and of the 150 ms
    /// silence threshold; zero keeps ACKs on the instant of a data send.
    const GAPS_MS: [u64; 8] = [0, 0, 1, 7, 40, 149, 150, 600];

    /// A send-sorted trace from a script of `(kind, gap, pick, fate,
    /// delay_ms)` steps. `shape` 1 drops every data step, 2 every ACK
    /// step, 3 loses every ACK; other values leave the script alone.
    fn scripted_trace(shape: u8, script: &[(u8, usize, u64, u8, u64)]) -> FlowTrace {
        let mut t = FlowTrace::new(7, FlowMeta::default());
        let (mut now_ms, mut next_seq) = (0u64, 0u64);
        for (id, &(kind, gap, pick, fate, delay_ms)) in script.iter().enumerate() {
            let is_ack = kind < 4;
            if (shape == 1 && !is_ack) || (shape == 2 && is_ack) {
                continue;
            }
            now_ms += GAPS_MS[gap];
            let (seq, retransmit) = match kind {
                0..=3 => (next_seq, false),
                // A retransmission, half the time of the newest segment
                // (ladders), else of any earlier one.
                7 | 8 if next_seq > 0 && pick < 32 => (next_seq - 1, true),
                7 | 8 if next_seq > 0 => (pick % next_seq, true),
                // Past the dense per-seq tables, first copies and repeats.
                9 => ((1 << 40) + pick % 3, pick >= 24),
                _ => {
                    next_seq += 1;
                    (next_seq - 1, false)
                }
            };
            let arrived = fate != 0 && !(shape == 3 && is_ack);
            let sent_at = SimTime::from_millis(now_ms);
            t.records.push(PacketRecord {
                id: id as u64,
                seq,
                is_ack,
                retransmit,
                acked_count: u32::from(is_ack),
                size_bytes: if is_ack { 40 } else { 1500 },
                sent_at,
                arrived_at: arrived.then_some(sent_at + SimDuration::from_millis(delay_ms)),
            });
        }
        t
    }

    /// Latencies and ACK send gaps, µs, on both sides of what four bytes
    /// hold: a latency column widens at 2³² µs, the ACK column at a 2³¹ µs
    /// gap. Zero makes ties.
    const EDGES_US: [u64; 9] = [
        0,
        1,
        30_000,
        (1 << 31) - 1,
        1 << 31,
        (1 << 31) + 1,
        (1 << 32) - 1,
        1 << 32,
        (1 << 32) + 1,
    ];

    /// A trace from `(kind, gap, latency, fate)` steps: kind 1 an ACK,
    /// else data; each gap and latency an index into [`EDGES_US`] or else
    /// that many µs; fate 0 a loss. `shape` 1
    /// loses every ACK, 2 every data packet, 3 sends the ACKs in reverse
    /// order (send times that fall); other values leave the script alone.
    fn edge_trace(shape: u8, script: &[(u8, u64, u64, u8)]) -> FlowTrace {
        let us = |pick: u64| EDGES_US.get(pick as usize).copied().unwrap_or(pick);
        let mut t = FlowTrace::new(7, FlowMeta::default());
        let mut now = 0;
        for (id, &(kind, gap, latency, fate)) in script.iter().enumerate() {
            now += us(gap);
            let is_ack = kind == 1;
            let lost = fate == 0 || (shape == 1 && is_ack) || (shape == 2 && !is_ack);
            let sent_at = SimTime::from_micros(now);
            t.records.push(PacketRecord {
                id: id as u64,
                seq: id as u64,
                is_ack,
                retransmit: false,
                acked_count: u32::from(is_ack),
                size_bytes: if is_ack { 40 } else { 1500 },
                sent_at,
                arrived_at: (!lost).then_some(sent_at + SimDuration::from_micros(us(latency))),
            });
        }
        if shape == 3 {
            let acks: Vec<usize> = (0..t.records.len())
                .filter(|&i| t.records[i].is_ack)
                .collect();
            for k in 0..acks.len() / 2 {
                t.records.swap(acks[k], acks[acks.len() - 1 - k]);
            }
        }
        t
    }

    /// A flow of 400,000 segments, every second one acknowledged — a
    /// 600-s flow's worth of records — keeps at most 8 bytes a record in
    /// its fold columns (and a constant) at every point of the flow: 4 a
    /// delivered packet's latency, 4 an ACK's send time and fate, and the
    /// per-seq tables, which grow in steps, so the check runs all along
    /// the flow, not at one length. (Each `Vec` may reserve up to twice
    /// what it holds; a page never written is not resident.)
    #[test]
    fn a_600_s_flow_keeps_at_most_8_bytes_a_record_in_its_columns() {
        const SEGMENTS: u64 = 400_000;
        const CONSTANT: usize = 64 << 10;
        let mut columns = FoldColumns::default();
        let mut fold = FlowFold::new(&TimeoutConfig::default(), &mut columns);
        for seq in 0..SEGMENTS {
            let sent_at = SimTime::from_micros(seq * 1_500);
            let arrived =
                |lost: bool, us: u64| (!lost).then_some(sent_at + SimDuration::from_micros(us));
            fold.push(PacketRecord {
                id: 2 * seq,
                seq,
                is_ack: false,
                retransmit: false,
                acked_count: 0,
                size_bytes: 1500,
                sent_at,
                arrived_at: arrived(seq % 50 == 7, 40_000 + seq * 7_919 % 20_000),
            });
            if seq % 2 == 1 {
                fold.push(PacketRecord {
                    id: 2 * seq + 1,
                    seq: seq + 1,
                    is_ack: true,
                    retransmit: false,
                    acked_count: 2,
                    size_bytes: 40,
                    sent_at: sent_at + SimDuration::from_micros(500),
                    arrived_at: arrived(seq % 100 == 31, 30_000 + seq * 104_729 % 9_000),
                });
            }
            let records = fold.records;
            if records % 1024 < 2 {
                let bytes = fold.columns.held_bytes();
                assert!(
                    bytes <= 8 * records + CONSTANT,
                    "{records} records keep {bytes} bytes in the fold columns"
                );
            }
        }
        assert!(fold.records as u64 >= SEGMENTS * 3 / 2);
        let a = fold.finish(0, &FlowMeta::default());
        assert_eq!(a.throughput.segments_delivered, SEGMENTS - SEGMENTS / 50);
    }

    /// The strings were printed by the same statements when the labels
    /// were `Arc<str>`s: JSON reports and `repro` output keep their bytes.
    #[test]
    fn a_summary_prints_and_serializes_its_labels_as_strings() {
        let s = FlowSummary {
            flow: 7,
            provider: "China Mobile".into(),
            scenario: Label::intern("high-speed").unwrap(),
            rtt_s: 0.0625,
            p_d: 0.01,
            data_sent: 12345,
            p_a: 0.002,
            p_a_burst: 0.25,
            acks_per_round: 8.5,
            q_hat: 0.5,
            timeouts: 3,
            spurious_timeouts: 1,
            timeout_sequences: 2,
            mean_recovery_s: 1.5,
            t_rto_s: 0.75,
            loss_indications: 9,
            fast_retransmissions: 7,
            w_m: 64,
            b: 2,
            throughput_sps: 100.0,
            goodput_sps: 98.5,
            duration_s: 120.0,
        };
        assert_eq!(
            format!("{s:?}"),
            "FlowSummary { flow: 7, provider: \"China Mobile\", scenario: \"high-speed\", \
             rtt_s: 0.0625, p_d: 0.01, data_sent: 12345, p_a: 0.002, p_a_burst: 0.25, \
             acks_per_round: 8.5, q_hat: 0.5, timeouts: 3, spurious_timeouts: 1, \
             timeout_sequences: 2, mean_recovery_s: 1.5, t_rto_s: 0.75, loss_indications: 9, \
             fast_retransmissions: 7, w_m: 64, b: 2, throughput_sps: 100.0, \
             goodput_sps: 98.5, duration_s: 120.0 }"
        );
        assert_eq!(
            format!("{} / {}", s.provider, s.scenario),
            "China Mobile / high-speed"
        );
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(
            json,
            "{\"flow\":7,\"provider\":\"China Mobile\",\"scenario\":\"high-speed\",\
             \"rtt_s\":0.0625,\"p_d\":0.01,\"data_sent\":12345,\"p_a\":0.002,\
             \"p_a_burst\":0.25,\"acks_per_round\":8.5,\"q_hat\":0.5,\"timeouts\":3,\
             \"spurious_timeouts\":1,\"timeout_sequences\":2,\"mean_recovery_s\":1.5,\
             \"t_rto_s\":0.75,\"loss_indications\":9,\"fast_retransmissions\":7,\"w_m\":64,\
             \"b\":2,\"throughput_sps\":100.0,\"goodput_sps\":98.5,\"duration_s\":120.0}"
        );
        assert_eq!(serde_json::from_str::<FlowSummary>(&json).unwrap(), s);
    }

    #[test]
    #[should_panic(expected = "past the fold's 2⁶³ µs")]
    fn an_ack_sent_past_2_pow_63_us_is_refused() {
        let mut columns = FoldColumns::default();
        let mut fold = FlowFold::new(&TimeoutConfig::default(), &mut columns);
        fold.push(PacketRecord {
            sent_at: SimTime::from_micros(1 << 63),
            ..ack(1, 0, false)
        });
    }

    proptest::proptest! {
        /// Random streams with latencies and ACK gaps past what four bytes
        /// hold, zero latencies, ties, all-lost directions and falling ACK
        /// send times: the fold's narrow columns widen where they must and
        /// give the analysis that full-width latencies and the
        /// stand-alone rounds over the trace give.
        #[test]
        fn narrow_columns_give_the_full_width_analysis(
            shape in 0u8..6,
            script in proptest::collection::vec(
                (0u8..2, 0u64..40, 0u64..40, 0u8..5),
                0..64,
            ),
        ) {
            assert_sweep_matches_parts(&edge_trace(shape, &script));
        }

        /// Over random scripts — ACK-only, data-only and deaf flows among
        /// them, ladders that chain or run into the trace's end, far-off
        /// seqs, rounds on window edges — the one sweep returns what the
        /// stand-alone analyses and the naive oracles compose to.
        #[test]
        fn sweep_matches_the_analyses_run_one_by_one(
            shape in 0u8..8,
            script in proptest::collection::vec(
                (0u8..10, 0usize..8, 0u64..64, 0u8..4, 1u64..200),
                0..96,
            ),
        ) {
            assert_sweep_matches_parts(&scripted_trace(shape, &script));
        }
    }
}
