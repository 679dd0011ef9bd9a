//! A link's impairment schedule.
//!
//! What a link's channel adds over a run to its base
//! [`LossModel`](crate::loss::LossModel) — handoff outages and cell-edge
//! fading ([`crate::cellular`]), storm episodes ([`crate::chaos`]), scripted
//! outages — is a [`Timeline`]: sorted half-open segments `[from, until)`,
//! each an [`Impairment`]. It is written with
//! [`Engine::impose`](crate::engine::Engine::impose) before the run starts,
//! and the link reads it with a cursor that only moves forward, as the clock
//! does: amortised O(1). A packet whose transmission ends at a segment's
//! `from` sees the segment; one ending at its `until` does not.
//!
//! Windows on the same stretch compose: delays add, and losses combine as
//! `1 − Π(1 − p)`, pairwise. A stretch with one source keeps its `p`
//! verbatim: `1 − (1 − p)` is not always `p` in floating point, and a moved
//! probability would move a `chance` draw.

use crate::time::{SimDuration, SimTime};

/// What a link's channel adds, over one stretch of time, to its base loss
/// model and propagation delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Impairment {
    /// Loss probability drawn *before* the base model: a handoff outage.
    pub overlay: f64,
    /// Loss probability drawn *after* the base model: cell-edge fading, a
    /// coverage hole, a storm's burst-loss window.
    pub extra: f64,
    /// Delay added to the link's propagation delay.
    pub delay: SimDuration,
}

impl Impairment {
    /// No impairment at all.
    pub const NONE: Impairment = Impairment {
        overlay: 0.0,
        extra: 0.0,
        delay: SimDuration::ZERO,
    };

    /// An outage that loses each packet with probability `p`.
    pub fn outage(p: f64) -> Impairment {
        Impairment {
            overlay: p,
            ..Impairment::NONE
        }
    }

    /// Both at once: delays add; losses combine as `1 − (1 − p)(1 − q)`,
    /// or as whichever of the two is not zero, verbatim.
    fn and(self, other: Impairment) -> Impairment {
        let combine = |p: f64, q: f64| match (p == 0.0, q == 0.0) {
            (true, _) => q,
            (_, true) => p,
            _ => 1.0 - (1.0 - p) * (1.0 - q),
        };
        Impairment {
            overlay: combine(self.overlay, other.overlay),
            extra: combine(self.extra, other.extra),
            delay: self.delay + other.delay,
        }
    }
}

/// A link's impairment schedule for one run; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Each segment's start and impairment, in start order, the first at
    /// zero; a segment holds until the next one starts. Empty while nothing
    /// was imposed.
    segments: Vec<(SimTime, Impairment)>,
    /// The segment the last read fell in.
    cursor: usize,
}

impl Timeline {
    /// Adds `impairment` over `[from, until)` to what the timeline already
    /// holds there. An empty window adds nothing.
    ///
    /// # Panics
    ///
    /// Panics if a loss probability is outside `[0, 1]`.
    pub(crate) fn impose(&mut self, from: SimTime, until: SimTime, impairment: Impairment) {
        for p in [impairment.overlay, impairment.extra] {
            assert!(
                (0.0..=1.0).contains(&p),
                "impairment loss out of range: {p}"
            );
        }
        if from >= until || impairment == Impairment::NONE {
            return;
        }
        if self.segments.is_empty() {
            self.segments.push((SimTime::ZERO, Impairment::NONE));
        }
        let first = self.split(from);
        let end = self.split(until);
        for (_, held) in &mut self.segments[first..end] {
            *held = held.and(impairment);
        }
    }

    /// The index of the segment starting at `at`, splitting the one that
    /// holds `at` if none does; the length for [`SimTime::MAX`].
    fn split(&mut self, at: SimTime) -> usize {
        let len = self.segments.len();
        if at == SimTime::MAX {
            return len;
        }
        // Builders impose in time order: `at` is nearly always in the last
        // segment.
        let after = if self.segments[len - 1].0 <= at {
            len
        } else {
            self.segments.partition_point(|&(from, _)| from <= at)
        };
        let (from, held) = self.segments[after - 1];
        if from == at {
            return after - 1;
        }
        self.segments.insert(after, (at, held));
        after
    }

    /// The impairment at `now`; reads must not go back in time.
    pub(crate) fn at(&mut self, now: SimTime) -> Impairment {
        while let Some(&(from, _)) = self.segments.get(self.cursor + 1) {
            if from > now {
                break;
            }
            self.cursor += 1;
        }
        self.segments
            .get(self.cursor)
            .map_or(Impairment::NONE, |&(_, held)| held)
    }

    /// Empties the timeline, keeping its buffer.
    pub(crate) fn clear(&mut self) {
        self.segments.clear();
        self.cursor = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Every segment of `t` as `(from, until, impairment)`, the last one's
    /// `until` being [`SimTime::MAX`].
    pub(crate) fn segments(
        t: &Timeline,
    ) -> impl Iterator<Item = (SimTime, SimTime, Impairment)> + '_ {
        let untils = t.segments.iter().skip(1).map(|&(from, _)| from);
        t.segments
            .iter()
            .zip(untils.chain([SimTime::MAX]))
            .map(|(&(from, held), until)| (from, until, held))
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    fn extra(p: f64) -> Impairment {
        Impairment {
            extra: p,
            ..Impairment::NONE
        }
    }

    fn delay(d: u64) -> Impairment {
        Impairment {
            delay: SimDuration::from_millis(d),
            ..Impairment::NONE
        }
    }

    /// A tick, an outage end or a storm boundary used to be an event with
    /// a lower sequence than any transmission ending at the same instant,
    /// so that transmission saw the new state: a segment holds at its
    /// `from` and no longer at its `until`.
    #[test]
    fn segments_are_half_open() {
        let mut t = Timeline::default();
        t.impose(ms(100), ms(200), Impairment::outage(1.0));
        let reads: Vec<f64> = [0, 99, 100, 150, 199, 200, 5_000]
            .iter()
            .map(|&at| t.at(ms(at)).overlay)
            .collect();
        assert_eq!(reads, [0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0]);
        let micro = SimDuration::from_micros(1);
        let mut t2 = Timeline::default();
        t2.impose(ms(100), ms(200), Impairment::outage(1.0));
        assert_eq!(t2.at(ms(100) - micro).overlay, 0.0);
        assert_eq!(t2.at(ms(100)).overlay, 1.0);
        assert_eq!(t2.at(ms(200) - micro).overlay, 1.0);
        assert_eq!(t2.at(ms(200)).overlay, 0.0);
    }

    #[test]
    fn an_empty_timeline_and_an_empty_window_impair_nothing() {
        let mut t = Timeline::default();
        assert_eq!(t.at(SimTime::ZERO), Impairment::NONE);
        t.impose(ms(5), ms(5), Impairment::outage(1.0));
        t.impose(ms(9), ms(5), Impairment::outage(1.0));
        t.impose(ms(1), ms(5), Impairment::NONE);
        assert_eq!(segments(&t).count(), 0);
        assert_eq!(t.at(ms(5)), Impairment::NONE);
    }

    /// A stretch with one source hands `chance` that source's `p` bit for
    /// bit — the same draw outcomes as the bare probability — however many
    /// other windows overlap it on another field or split it.
    #[test]
    fn a_single_source_probability_reaches_chance_bit_for_bit() {
        // 1 − (1 − p) moves these in the last bit.
        for p in [0.1_f64, 0.3, 0.7, 0.02, 0.99] {
            assert_ne!(1.0 - (1.0 - (1.0 - p) * (1.0 - 0.0)), p, "{p}");
            let mut t = Timeline::default();
            t.impose(ms(0), ms(1_000), extra(p));
            t.impose(ms(200), ms(400), Impairment::outage(0.5));
            t.impose(ms(300), ms(600), delay(40));
            for at in [0, 250, 350, 500, 999] {
                let got = t.at(ms(at)).extra;
                assert_eq!(got.to_bits(), p.to_bits(), "p {p} at {at} ms");
            }
            let (mut a, mut b) = (SimRng::seed_from_u64(3), SimRng::seed_from_u64(3));
            let mut t = t.clone();
            t.cursor = 0;
            for i in 0..1_000u64 {
                let held = t.at(ms(i)).extra;
                assert_eq!(a.chance(held), b.chance(p));
            }
        }
    }

    /// A storm burst over a handoff outage: delays add, the extra losses
    /// combine, and the outage's overlay stays the handoff's own.
    #[test]
    fn overlapping_storm_and_handoff_segments_compose() {
        let handoff = Impairment {
            overlay: 0.9,
            extra: 0.02,
            delay: SimDuration::from_millis(60),
        };
        let mut t = Timeline::default();
        t.impose(ms(1_000), ms(1_400), handoff);
        t.impose(ms(1_200), ms(1_800), extra(0.5));
        t.impose(ms(1_300), ms(1_500), delay(200));
        let both = Impairment {
            overlay: 0.9,
            extra: 1.0 - (1.0 - 0.02) * (1.0 - 0.5),
            delay: SimDuration::from_millis(60),
        };
        let all_three = Impairment {
            delay: SimDuration::from_millis(260),
            ..both
        };
        let storm_only = Impairment {
            delay: SimDuration::from_millis(200),
            ..extra(0.5)
        };
        let got: Vec<_> = segments(&t).collect();
        assert_eq!(
            got,
            [
                (SimTime::ZERO, ms(1_000), Impairment::NONE),
                (ms(1_000), ms(1_200), handoff),
                (ms(1_200), ms(1_300), both),
                (ms(1_300), ms(1_400), all_three),
                (ms(1_400), ms(1_500), storm_only),
                (ms(1_500), ms(1_800), extra(0.5)),
                (ms(1_800), SimTime::MAX, Impairment::NONE),
            ]
        );
        // The composition does not depend on the order of the windows.
        let mut reversed = Timeline::default();
        reversed.impose(ms(1_300), ms(1_500), delay(200));
        reversed.impose(ms(1_200), ms(1_800), extra(0.5));
        reversed.impose(ms(1_000), ms(1_400), handoff);
        assert!(segments(&reversed).eq(segments(&t)));
    }

    #[test]
    fn reads_follow_the_clock_and_a_cleared_timeline_starts_over() {
        let mut t = Timeline::default();
        for k in 0..50u64 {
            t.impose(ms(10 * k), ms(10 * k + 10), extra(k as f64 / 100.0));
        }
        for at in (0..600).step_by(3) {
            let want = if at < 500 {
                (at / 10) as f64 / 100.0
            } else {
                0.0
            };
            assert_eq!(t.at(ms(at)).extra, want, "at {at} ms");
        }
        t.clear();
        assert_eq!(t.at(ms(600)), Impairment::NONE);
        t.impose(ms(0), ms(10), extra(0.4));
        assert_eq!(t.at(ms(5)).extra, 0.4);
    }

    #[test]
    #[should_panic(expected = "impairment loss out of range")]
    fn an_out_of_range_loss_is_refused() {
        Timeline::default().impose(ms(0), ms(1), extra(1.5));
    }
}
