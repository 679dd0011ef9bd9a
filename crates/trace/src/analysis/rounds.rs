//! Round segmentation and ACK-burst-loss detection.
//!
//! The paper's key mechanism is *ACK burst loss*: a spurious timeout fires
//! only when **all** ACKs of one transmission round are lost (Section
//! III-B-2). This module segments a flow's ACK stream into rounds — groups
//! of ACKs generated in response to one window of data — and measures how
//! often an entire round's worth of ACKs vanished (an estimate of `P_a`).

use crate::record::FlowTrace;
use hsm_simnet::time::{SimDuration, SimTime};

/// A group of ACKs belonging to one transmission round.
#[derive(Debug, Clone, PartialEq)]
pub struct AckRound {
    /// Send time of the first ACK of the round.
    pub start: SimTime,
    /// Send time of the last ACK of the round.
    pub end: SimTime,
    /// Indices into `trace.records` of the ACKs in this round.
    pub acks: Vec<usize>,
    /// Number of those ACKs that were lost.
    pub lost: usize,
}

impl AckRound {
    /// True when every ACK of the round was lost — the trigger of a
    /// spurious retransmission timeout.
    pub fn burst_lost(&self) -> bool {
        !self.acks.is_empty() && self.lost == self.acks.len()
    }
}

/// One round as the segmentation carries it: bounds and counts, no
/// record indices.
#[derive(Debug, Clone, Copy)]
struct RoundSpan {
    start: SimTime,
    end: SimTime,
    acks: usize,
    lost: usize,
}

/// The segmentation rule, one ACK at a time: an ACK sent within `gap` of
/// the previous one extends the open round, a later one closes it.
struct RoundFormer {
    gap: SimDuration,
    open: Option<RoundSpan>,
}

impl RoundFormer {
    fn new(gap: SimDuration) -> RoundFormer {
        RoundFormer { gap, open: None }
    }

    /// Adds the next ACK (in send order); returns the round it closed, if
    /// it opened a new one.
    #[inline]
    fn ack(&mut self, sent_at: SimTime, lost: bool) -> Option<RoundSpan> {
        if let Some(r) = &mut self.open {
            if sent_at.saturating_since(r.end) <= self.gap {
                r.end = sent_at;
                r.acks += 1;
                r.lost += usize::from(lost);
                return None;
            }
        }
        self.open.replace(RoundSpan {
            start: sent_at,
            end: sent_at,
            acks: 1,
            lost: usize::from(lost),
        })
    }

    /// Closes the round still open after the last ACK.
    fn finish(&mut self) -> Option<RoundSpan> {
        self.open.take()
    }
}

/// Segments the ACK stream into rounds.
///
/// ACKs whose send times are separated by more than `gap` start a new
/// round. For TCP the natural gap is about half an RTT: ACKs of one window
/// leave the receiver back-to-back, while the next window's ACKs trail a
/// full RTT later. Use [`super::latency::estimate_rtt`] to pick `gap`.
pub fn ack_rounds(trace: &FlowTrace, gap: SimDuration) -> Vec<AckRound> {
    let mut rounds: Vec<AckRound> = Vec::new();
    let mut former = RoundFormer::new(gap);
    let mut acks: Vec<usize> = Vec::new();
    let mut close = |span: RoundSpan, acks: &mut Vec<usize>| {
        rounds.push(AckRound {
            start: span.start,
            end: span.end,
            acks: std::mem::take(acks),
            lost: span.lost,
        });
    };
    for (idx, rec) in trace.records.iter().enumerate() {
        if !rec.is_ack {
            continue;
        }
        if let Some(done) = former.ack(rec.sent_at, rec.lost()) {
            close(done, &mut acks);
        }
        acks.push(idx);
    }
    if let Some(done) = former.finish() {
        close(done, &mut acks);
    }
    rounds
}

/// Summary of ACK-burst behaviour over a flow.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AckBurstStats {
    /// Rounds counted (single-ACK rounds included): every round that does
    /// not start inside an excluded recovery window — every round when
    /// nothing is excluded ([`ack_burst_stats`]).
    pub rounds: usize,
    /// Rounds with at least two ACKs — the sample `P_a` is estimated
    /// from. A one-ACK round cannot distinguish *burst* loss from plain
    /// single-ACK loss (which the model already prices via `p_a`), and
    /// post-collapse windows produce many of them; counting them would
    /// inflate `P_a` toward `p_a` itself, an order of magnitude above the
    /// paper's measured 0.04–1.61 % band.
    pub measurable_rounds: usize,
    /// Measurable rounds in which every ACK was lost.
    pub burst_lost_rounds: usize,
    /// Mean number of ACKs per counted round (the [`rounds`](Self::rounds)
    /// above, recovery windows excluded). A flow's summary reports it as
    /// `FlowSummary::acks_per_round`, the `n` of the model's `P_a = p_a^n`.
    pub mean_acks_per_round: f64,
}

impl AckBurstStats {
    /// Empirical `P_a`: fraction of measurable (≥ 2 ACK) rounds whose
    /// ACKs were all lost.
    pub fn burst_loss_rate(&self) -> f64 {
        if self.measurable_rounds == 0 {
            0.0
        } else {
            self.burst_lost_rounds as f64 / self.measurable_rounds as f64
        }
    }
}

/// The burst-statistics fold, one ACK at a time: segments the stream into
/// rounds and tallies those whose start `excluded` does not reject.
/// Rounds close in start order, so `excluded` sees increasing times.
pub(crate) struct BurstSweep<F> {
    former: RoundFormer,
    excluded: F,
    stats: AckBurstStats,
    kept_acks: usize,
}

impl<F: FnMut(SimTime) -> bool> BurstSweep<F> {
    pub(crate) fn new(gap: SimDuration, excluded: F) -> BurstSweep<F> {
        BurstSweep {
            former: RoundFormer::new(gap),
            excluded,
            stats: AckBurstStats::default(),
            kept_acks: 0,
        }
    }

    /// Adds the next ACK (in send order).
    #[inline]
    pub(crate) fn ack(&mut self, sent_at: SimTime, lost: bool) {
        if let Some(done) = self.former.ack(sent_at, lost) {
            self.tally(done);
        }
    }

    fn tally(&mut self, round: RoundSpan) {
        if (self.excluded)(round.start) {
            return;
        }
        self.stats.rounds += 1;
        self.kept_acks += round.acks;
        if round.acks >= 2 {
            self.stats.measurable_rounds += 1;
            self.stats.burst_lost_rounds += usize::from(round.lost == round.acks);
        }
    }

    pub(crate) fn finish(mut self) -> AckBurstStats {
        if let Some(last) = self.former.finish() {
            self.tally(last);
        }
        if self.stats.rounds > 0 {
            self.stats.mean_acks_per_round = self.kept_acks as f64 / self.stats.rounds as f64;
        }
        self.stats
    }
}

/// Membership in a list of sorted, disjoint half-open windows
/// `from ≤ t < to`, for queries that arrive in increasing `t`: each window
/// is passed once over the whole run of queries.
pub(crate) struct WindowWalk<I: Iterator> {
    windows: std::iter::Peekable<I>,
}

impl<I: Iterator<Item = (SimTime, SimTime)>> WindowWalk<I> {
    pub(crate) fn new(windows: I) -> WindowWalk<I> {
        WindowWalk {
            windows: windows.peekable(),
        }
    }

    /// True when some window holds `t` (no smaller than any earlier `t`).
    pub(crate) fn contains(&mut self, t: SimTime) -> bool {
        while self.windows.next_if(|&(_, to)| to <= t).is_some() {}
        self.windows.peek().is_some_and(|&(from, _)| from <= t)
    }
}

/// Computes ACK-burst statistics with the given round gap.
pub fn ack_burst_stats(trace: &FlowTrace, gap: SimDuration) -> AckBurstStats {
    ack_burst_stats_excluding(trace, gap, &[])
}

/// Computes ACK-burst statistics, ignoring rounds that start inside any
/// of the `excluded` time windows.
///
/// The model's `P_a` describes rounds of a *congestion-avoidance* phase;
/// timeout recovery phases generate single-ACK pseudo-rounds (one
/// retransmission → one ACK, frequently lost) that would otherwise inflate
/// the estimate. Pass the recovery windows from
/// [`analyze_timeouts`](super::timeout::analyze_timeouts) to exclude them.
pub fn ack_burst_stats_excluding(
    trace: &FlowTrace,
    gap: SimDuration,
    excluded: &[(SimTime, SimTime)],
) -> AckBurstStats {
    // Any windows, in any order: test each round against all of them.
    let mut sweep = BurstSweep::new(gap, |start| {
        excluded
            .iter()
            .any(|&(from, to)| start >= from && start < to)
    });
    for rec in trace.acks() {
        sweep.ack(rec.sent_at, rec.lost());
    }
    sweep.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FlowMeta, PacketRecord};

    fn ack(sent_ms: u64, lost: bool) -> PacketRecord {
        PacketRecord {
            id: sent_ms,
            seq: 0,
            is_ack: true,
            retransmit: false,
            acked_count: 1,
            size_bytes: 40,
            sent_at: SimTime::from_millis(sent_ms),
            arrived_at: if lost {
                None
            } else {
                Some(SimTime::from_millis(sent_ms + 25))
            },
        }
    }

    fn trace(acks: Vec<PacketRecord>) -> FlowTrace {
        let mut t = FlowTrace::new(0, FlowMeta::default());
        t.records = acks;
        t
    }

    #[test]
    fn segments_by_gap() {
        // Two rounds: {0,2,4} ms and {100,102} ms with a 30 ms gap rule.
        let t = trace(vec![
            ack(0, false),
            ack(2, false),
            ack(4, false),
            ack(100, true),
            ack(102, true),
        ]);
        let rounds = ack_rounds(&t, SimDuration::from_millis(30));
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].acks.len(), 3);
        assert!(!rounds[0].burst_lost());
        assert_eq!(rounds[1].acks.len(), 2);
        assert!(rounds[1].burst_lost());
    }

    #[test]
    fn burst_stats() {
        let t = trace(vec![
            ack(0, true),
            ack(2, true), // round 1: all lost
            ack(100, false),
            ack(102, true), // round 2: partial
            ack(200, true), // round 3: single, lost
        ]);
        let s = ack_burst_stats(&t, SimDuration::from_millis(30));
        assert_eq!(s.rounds, 3);
        // Round 3 has a single ACK: too small to witness a *burst* loss,
        // so only the two 2-ACK rounds enter the P_a sample.
        assert_eq!(s.measurable_rounds, 2);
        assert_eq!(s.burst_lost_rounds, 1);
        assert!((s.burst_loss_rate() - 1.0 / 2.0).abs() < 1e-12);
        assert!((s.mean_acks_per_round - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_surviving_ack_saves_the_round() {
        // Fig. 11: one ACK arriving is enough.
        let t = trace(vec![
            ack(0, true),
            ack(1, true),
            ack(2, false),
            ack(3, true),
        ]);
        let rounds = ack_rounds(&t, SimDuration::from_millis(30));
        assert_eq!(rounds.len(), 1);
        assert!(!rounds[0].burst_lost());
    }

    #[test]
    fn exclusion_windows_drop_recovery_rounds() {
        let t = trace(vec![
            ack(0, true),
            ack(2, true),    // CA round, burst lost
            ack(500, true),  // inside the excluded recovery window
            ack(900, false), // after the window
        ]);
        let windows = [(SimTime::from_millis(400), SimTime::from_millis(800))];
        let s = ack_burst_stats_excluding(&t, SimDuration::from_millis(30), &windows);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.burst_lost_rounds, 1);
        // Without exclusion the recovery round appears in `rounds`, but as
        // a single-ACK round it still cannot enter the burst sample.
        let all = ack_burst_stats(&t, SimDuration::from_millis(30));
        assert_eq!(all.rounds, 3);
        assert_eq!(all.measurable_rounds, 1);
        assert_eq!(all.burst_lost_rounds, 1);
    }

    #[test]
    fn window_walk_agrees_with_testing_every_window() {
        // Touching, empty and far-apart windows; queries on every edge.
        let ms = SimTime::from_millis;
        let windows =
            [(10, 20), (20, 20), (20, 35), (50, 51), (90, 90)].map(|(from, to)| (ms(from), ms(to)));
        let mut walk = WindowWalk::new(windows.into_iter());
        for t in (0..100).flat_map(|t| [ms(t), ms(t)]) {
            let by_any = windows.iter().any(|&(from, to)| t >= from && t < to);
            assert_eq!(walk.contains(t), by_any, "t = {t:?}");
        }
    }

    #[test]
    fn empty_and_dataless_traces() {
        let t = trace(vec![]);
        assert!(ack_rounds(&t, SimDuration::from_millis(30)).is_empty());
        let s = ack_burst_stats(&t, SimDuration::from_millis(30));
        assert_eq!(s.burst_loss_rate(), 0.0);
        assert_eq!(s.mean_acks_per_round, 0.0);
    }
}
