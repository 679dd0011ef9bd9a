//! RTT estimation (Jacobson/Karn) and base-RTO computation.
//!
//! Implements the standard smoothed-RTT estimator of RFC 6298:
//! `SRTT = 7/8·SRTT + 1/8·R'`, `RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R'|`,
//! `RTO = SRTT + 4·RTTVAR`, clamped to `[200 ms, 60 s]`, with an initial
//! RTO of 1 s. Karn's rule (never sample a retransmitted segment) is
//! enforced by the sender, which only feeds unambiguous samples.

use hsm_simnet::time::SimDuration;

/// Base RTO before any RTT sample, seconds (RFC 6298 §2.1).
const INITIAL_RTO_S: f64 = 1.0;
/// Lower bound of the base RTO, seconds: Linux's 200 ms rather than the
/// RFC's conservative 1 s.
const MIN_RTO_S: f64 = 0.2;
/// Upper bound of the *base* RTO, seconds. It clamps the estimator's
/// `SRTT + 4·RTTVAR`, not the backed-off timer: [`Backoff`] multiplies the
/// clamped base by up to 64, so a 1-s base backs off to 64 s (the paper's
/// `64·T` cap), past this bound.
const MAX_BASE_RTO_S: f64 = 60.0;
/// The largest backoff multiplier: the timer doubles up to `64·T`.
const MAX_FACTOR: u64 = 64;

/// Jacobson RTT estimator. A fresh one (`default()`) has a base RTO of
/// 1 s until its first sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RttEstimator {
    srtt: Option<f64>,
    rttvar: f64,
    samples: u64,
}

impl RttEstimator {
    /// Feeds one RTT sample (from a never-retransmitted segment).
    ///
    /// Audited against RFC 6298 §2.2–§2.3: the first measurement `R`
    /// sets `SRTT = R` and `RTTVAR = R/2`; every later measurement `R'`
    /// updates `RTTVAR` *before* `SRTT` (the variance term must use the
    /// previous smoothed value) with the standard gains `β = 1/4` and
    /// `α = 1/8`. So the first sample's base RTO is `R + 4·(R/2) = 3R`,
    /// pre-clamp — pinned by a unit test.
    pub fn sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_secs_f64();
        self.samples += 1;
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
    }

    /// The smoothed RTT, if at least one sample arrived.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_secs_f64)
    }

    /// Number of samples consumed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The current base retransmission timeout (before backoff).
    pub fn rto(&self) -> SimDuration {
        let raw = match self.srtt {
            None => INITIAL_RTO_S,
            Some(srtt) => srtt + 4.0 * self.rttvar,
        };
        SimDuration::from_secs_f64(raw.clamp(MIN_RTO_S, MAX_BASE_RTO_S))
    }
}

/// The retransmission timer with exponential backoff.
///
/// After each consecutive timeout the timer doubles; the paper notes the
/// doubling continues until the timer reaches `64·T` (RFC 6298's cap
/// behaviour), after which it stays there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Backoff {
    /// Consecutive timeouts since the last reset. Tracked separately from
    /// the factor cap: the multiplier saturates at 64× but ladder lengths
    /// (the paper's Table-III-style `R` statistics) must keep counting.
    count: u32,
}

impl Backoff {
    /// Fresh, un-backed-off state.
    pub fn new() -> Backoff {
        Backoff::default()
    }

    /// The current multiplier (1, 2, 4, …, 64).
    pub fn factor(&self) -> u64 {
        1u64 << self.count.min(MAX_FACTOR.ilog2())
    }

    /// Applies the backoff to a base RTO.
    pub fn apply(&self, base: SimDuration) -> SimDuration {
        base * self.factor()
    }

    /// Doubles the timer (the factor saturates at 64×; the count does
    /// not).
    pub fn on_timeout(&mut self) {
        self.count = self.count.saturating_add(1);
    }

    /// Resets after an ACK for new data.
    pub fn reset(&mut self) {
        self.count = 0;
    }

    /// Consecutive timeouts so far — unbounded, unlike the factor.
    pub fn consecutive_timeouts(&self) -> u32 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 6298 §2.2: the first measurement `R` must set `SRTT = R`,
    /// `RTTVAR = R/2`, hence base RTO `= R + 4·(R/2) = 3R` — not the
    /// `R + 4·0` a zero-initialized RTTVAR would give, which fires
    /// spurious timeouts on the very first jitter of a flow.
    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::default();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
        // RTO = SRTT + 4·RTTVAR = 100 + 4·50 = 300 ms = 3R.
        assert_eq!(e.rto(), SimDuration::from_millis(300));
        assert_eq!(e.samples(), 1);
        // The 3R shape must hold across magnitudes (within the clamp).
        for r_ms in [80u64, 250, 1000, 5000] {
            let mut e = RttEstimator::default();
            e.sample(SimDuration::from_millis(r_ms));
            assert_eq!(
                e.rto(),
                SimDuration::from_millis(3 * r_ms),
                "first-sample RTO must be 3R for R = {r_ms} ms"
            );
        }
    }

    /// RFC 6298 §2.3 ordering: the second sample's RTTVAR must be
    /// computed from the *previous* SRTT. Updating SRTT first would give
    /// rttvar = 0.75·50 + 0.25·|112.5 − 200| = 59.375 ms instead.
    #[test]
    fn second_sample_updates_rttvar_before_srtt() {
        let mut e = RttEstimator::default();
        e.sample(SimDuration::from_millis(100));
        e.sample(SimDuration::from_millis(200));
        // rttvar = 0.75·50 + 0.25·|100 − 200| = 62.5 ms
        // srtt   = 0.875·100 + 0.125·200     = 112.5 ms
        let srtt = e.srtt().unwrap().as_secs_f64();
        assert!((srtt - 0.1125).abs() < 1e-12);
        let rto = e.rto().as_secs_f64();
        assert!((rto - (0.1125 + 4.0 * 0.0625)).abs() < 1e-12);
    }

    #[test]
    fn smoothing_converges_to_stable_rtt() {
        let mut e = RttEstimator::default();
        for _ in 0..200 {
            e.sample(SimDuration::from_millis(80));
        }
        let srtt = e.srtt().unwrap().as_secs_f64();
        assert!((srtt - 0.080).abs() < 1e-6);
        // Variance decays toward zero, so RTO approaches the min bound.
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn rto_clamped_to_bounds() {
        let mut e = RttEstimator::default();
        e.sample(SimDuration::from_secs(100));
        assert_eq!(e.rto(), SimDuration::from_secs(60));
        let mut fast = RttEstimator::default();
        fast.sample(SimDuration::from_micros(10));
        assert_eq!(fast.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn variance_reacts_to_jitter() {
        let mut e = RttEstimator::default();
        e.sample(SimDuration::from_millis(50));
        e.sample(SimDuration::from_millis(250));
        // srtt = 0.875*50 + 0.125*250 = 75 ms; rttvar = 0.75*25 + 0.25*200 = 68.75 ms.
        let srtt = e.srtt().unwrap().as_secs_f64();
        assert!((srtt - 0.075).abs() < 1e-9);
        let rto = e.rto().as_secs_f64();
        assert!((rto - (0.075 + 4.0 * 0.06875)).abs() < 1e-9);
    }

    #[test]
    fn backoff_doubles_to_64x_cap() {
        let mut b = Backoff::new();
        let base = SimDuration::from_millis(500);
        let mut factors = Vec::new();
        for _ in 0..9 {
            factors.push(b.factor());
            b.on_timeout();
        }
        assert_eq!(factors, vec![1, 2, 4, 8, 16, 32, 64, 64, 64]);
        assert_eq!(b.apply(base), SimDuration::from_secs(32));
        // The count keeps going past the factor cap (ladder length > 6).
        assert_eq!(b.consecutive_timeouts(), 9);
        b.reset();
        assert_eq!(b.factor(), 1);
        assert_eq!(b.consecutive_timeouts(), 0);
    }

    /// The 60-s bound clamps the *base* RTO only: a 1-s base doubles to
    /// 64 s at the sixth consecutive timeout and stays there, past the
    /// bound — the paper's `64·T` cap.
    #[test]
    fn backed_off_timer_passes_the_base_bound_at_64x() {
        let e = RttEstimator::default();
        let mut b = Backoff::new();
        let mut timers = Vec::new();
        for _ in 0..9 {
            timers.push(b.apply(e.rto()).as_micros() / 1_000_000);
            b.on_timeout();
        }
        assert_eq!(timers, vec![1, 2, 4, 8, 16, 32, 64, 64, 64]);
        assert!(b.apply(e.rto()).as_secs_f64() > MAX_BASE_RTO_S);
    }

    /// The constants are the `f64` seconds the simulator's durations
    /// convert to, bit for bit.
    #[test]
    fn bounds_are_the_durations_seconds_exactly() {
        for (secs, d) in [
            (INITIAL_RTO_S, SimDuration::from_secs(1)),
            (MIN_RTO_S, SimDuration::from_millis(200)),
            (MAX_BASE_RTO_S, SimDuration::from_secs(60)),
        ] {
            assert_eq!(secs.to_bits(), d.as_secs_f64().to_bits());
        }
    }
}
