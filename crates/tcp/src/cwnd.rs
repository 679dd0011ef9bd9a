//! Congestion-window state machine (TCP Reno, RFC 5681).
//!
//! Tracks the congestion window in fractional segments through slow start,
//! congestion avoidance and fast recovery, capped by the receiver's
//! advertised window `W_m` — the same window limitation the model's
//! Section IV-D branch covers.

use crate::cc::{Algorithm, CongestionControl};
use serde::{Deserialize, Serialize};

/// Veno's backlog threshold `β`, packets: a loss with a smaller backlog
/// estimate is deemed random (Fu & Liew's default).
pub(crate) const VENO_BETA: f64 = 3.0;

/// Which congestion phase the sender is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Exponential growth below `ssthresh`.
    SlowStart,
    /// Additive increase above `ssthresh`.
    CongestionAvoidance,
    /// Reno fast recovery (window inflation during dup-ACKs).
    FastRecovery,
}

/// The Reno-family congestion controller: Reno, or Veno when built with
/// [`Algorithm::Veno`]. It speaks [`CongestionControl`] natively and is
/// the reference implementation the other controllers are held to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cwnd {
    cwnd: f64,
    ssthresh: f64,
    phase: Phase,
    w_m: f64,
    algo: Algorithm,
    base_rtt_s: f64,
    last_rtt_s: f64,
}

impl Cwnd {
    /// Creates a Reno controller with initial window 1 and the given
    /// advertised window limitation.
    ///
    /// # Panics
    ///
    /// Panics if `w_m` is zero.
    pub fn new(w_m: u32) -> Cwnd {
        Cwnd::with_algorithm(w_m, Algorithm::Reno)
    }

    /// Creates a controller running the given algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `w_m` is zero.
    pub fn with_algorithm(w_m: u32, algo: Algorithm) -> Cwnd {
        assert!(w_m > 0, "advertised window must be positive");
        Cwnd {
            cwnd: 1.0,
            ssthresh: f64::from(w_m),
            phase: Phase::SlowStart,
            w_m: f64::from(w_m),
            algo,
            base_rtt_s: f64::INFINITY,
            last_rtt_s: f64::INFINITY,
        }
    }

    /// Veno's router-backlog estimate `N`, when enough RTT information is
    /// available.
    fn backlog_estimate(&self) -> Option<f64> {
        if self.base_rtt_s.is_finite() && self.last_rtt_s.is_finite() && self.last_rtt_s > 0.0 {
            Some(self.cwnd * (self.last_rtt_s - self.base_rtt_s) / self.last_rtt_s)
        } else {
            None
        }
    }

    fn random_loss_suspected(&self) -> bool {
        match self.algo {
            Algorithm::Veno => self.backlog_estimate().is_some_and(|n| n < VENO_BETA),
            // Reno — and any non-classic variant handed to this struct by
            // mistake — treats every loss as congestive.
            _ => false,
        }
    }

    /// Corrupts the window so tests can prove the invariant check fires.
    /// Test-only by design.
    #[cfg(any(debug_assertions, test))]
    #[doc(hidden)]
    pub fn inject_invariant_violation(&mut self) {
        self.cwnd = 0.0;
    }
}

impl CongestionControl for Cwnd {
    /// Veno's backlog estimator needs the minimum and the most recent
    /// RTT; Reno never reads them.
    fn observe_rtt(&mut self, rtt_s: f64) {
        if rtt_s > 0.0 && rtt_s.is_finite() {
            self.base_rtt_s = self.base_rtt_s.min(rtt_s);
            self.last_rtt_s = rtt_s;
        }
    }

    fn on_new_ack(&mut self, acked: u64) {
        match self.phase {
            Phase::SlowStart => {
                // One MSS per ACKed segment (byte-counting slow start).
                self.cwnd += acked as f64;
                if self.cwnd >= self.ssthresh {
                    self.phase = Phase::CongestionAvoidance;
                }
            }
            Phase::CongestionAvoidance => {
                // 1/cwnd per ACK: +1 MSS per window per RTT; with delayed
                // ACKs (fewer ACKs per round) growth slows to 1 per b
                // rounds, matching the model's Eq. (3). Veno halves the
                // growth once the backlog estimate exceeds beta.
                let congested = self.algo == Algorithm::Veno && !self.random_loss_suspected();
                let step = if congested { 0.5 } else { 1.0 };
                self.cwnd += step / self.cwnd.max(1.0);
            }
            Phase::FastRecovery => {
                // Callers exit fast recovery explicitly.
            }
        }
        self.cwnd = self.cwnd.min(self.w_m.max(1.0) * 2.0); // keep bounded
    }

    /// Reno halves the window; Veno, when its backlog estimate indicates a
    /// *random* (wireless) loss, only takes a 1/5 cut.
    fn enter_fast_recovery(&mut self, flight: u64) {
        let factor = if self.random_loss_suspected() {
            0.8
        } else {
            0.5
        };
        self.ssthresh = (flight as f64 * factor).max(2.0);
        self.cwnd = self.ssthresh + 3.0;
        self.phase = Phase::FastRecovery;
    }

    fn on_dup_ack_in_recovery(&mut self) {
        if self.phase == Phase::FastRecovery {
            self.cwnd += 1.0;
        }
    }

    fn exit_fast_recovery(&mut self) {
        if self.phase == Phase::FastRecovery {
            self.cwnd = self.ssthresh;
            self.phase = Phase::CongestionAvoidance;
        }
    }

    fn on_partial_ack(&mut self, acked: u64) {
        if self.phase == Phase::FastRecovery {
            self.cwnd = (self.cwnd - acked as f64 + 1.0).max(1.0);
        }
    }

    /// Collapses to one segment and restarts slow start.
    fn on_timeout(&mut self, flight: u64) {
        self.ssthresh = (flight as f64 / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.phase = Phase::SlowStart;
    }

    fn window(&self) -> u64 {
        send_window(self.cwnd, self.w_m)
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn phase(&self) -> Phase {
        self.phase
    }

    fn window_limited(&self) -> bool {
        self.cwnd >= self.w_m
    }

    fn clone_box(&self) -> Box<dyn CongestionControl> {
        Box::new(*self)
    }

    /// The window never collapses below one segment, never escapes its
    /// `2·W_m` ceiling, and both `cwnd` and `ssthresh` stay finite and
    /// positive. The sender re-checks after every state transition in
    /// debug/test builds.
    #[cfg(any(debug_assertions, test))]
    fn assert_invariants(&self) {
        assert!(
            self.cwnd.is_finite() && self.cwnd >= 1.0,
            "cwnd invariant violated: cwnd = {} (must be finite and >= 1)",
            self.cwnd,
        );
        assert!(
            self.ssthresh.is_finite() && self.ssthresh >= 1.0,
            "ssthresh invariant violated: ssthresh = {} (must be finite and >= 1)",
            self.ssthresh,
        );
        // ACK-driven growth is clamped at 2*W_m (see on_new_ack), and
        // fast-recovery inflation adds at most one segment per duplicate
        // ACK — at most one window's worth, twice over when a backup path
        // mirrors ACKs — on top of ssthresh + 3. Anything above that is a
        // runaway window.
        let ceiling = self.w_m.max(1.0) * 3.0 + 4.0;
        assert!(
            self.cwnd <= ceiling,
            "cwnd {} escaped its {} ceiling",
            self.cwnd,
            ceiling
        );
        let w = self.window();
        assert!(
            (1..=self.w_m as u64).contains(&w),
            "effective window {} outside [1, W_m = {}]",
            w,
            self.w_m,
        );
    }
}

/// Every controller's effective send window in whole segments:
/// `max(1, floor(min(cwnd, w_m)))`, for any `f64` whatever. The saturating
/// `as` cast truncates — which is `floor` from 1 upwards — and sends NaN
/// and everything below 1 to 0, which the `max` lifts to 1 as it lifted
/// their floors; no libm call per ACK.
pub(crate) fn send_window(cwnd: f64, w_m: f64) -> u64 {
    (cwnd.min(w_m) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The expression `send_window` replaced, kept as its oracle.
    fn floored_window(cwnd: f64, w_m: f64) -> u64 {
        cwnd.min(w_m).floor().max(1.0) as u64
    }

    #[test]
    fn send_window_equals_the_floored_expression_at_every_edge() {
        let two53 = (1u64 << 53) as f64;
        let edges = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            -1.0,
            -1e300,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            0.999_999_999_999_999_9,
            1.0,
            1.000_000_000_000_000_2,
            1.5,
            2.0,
            63.999_999_999_999_99,
            64.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            u64::MAX as f64,
            (u64::MAX as f64) * 2.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for cwnd in edges {
            for w_m in edges {
                let want = floored_window(cwnd, w_m);
                assert_eq!(send_window(cwnd, w_m), want, "cwnd {cwnd:e} w_m {w_m:e}");
            }
        }
        assert_eq!(send_window(f64::NAN, f64::NAN), 1);
        assert_eq!(send_window(0.999_999_999_999_999_9, 64.0), 1);
        assert_eq!(send_window(two53 - 1.0, f64::INFINITY), (1 << 53) - 1);
        assert_eq!(send_window(f64::INFINITY, u64::MAX as f64), u64::MAX);
    }

    proptest::proptest! {
        /// Arbitrary bit patterns (NaN payloads, subnormals, both signs)
        /// and window-sized values against the oracle.
        #[test]
        fn send_window_equals_the_floored_expression(
            bits in 0u64..u64::MAX,
            w_m_bits in 0u64..u64::MAX,
            cwnd in 0.0f64..70_000.0,
            w_m in 0.0f64..70_000.0,
        ) {
            let (wild, wild_w_m) = (f64::from_bits(bits), f64::from_bits(w_m_bits));
            for (c, w) in [(wild, wild_w_m), (wild, w_m), (cwnd, wild_w_m), (cwnd, w_m)] {
                proptest::prop_assert_eq!(send_window(c, w), floored_window(c, w));
            }
        }
    }

    #[test]
    fn slow_start_doubles_per_round() {
        let mut c = Cwnd::new(64);
        assert_eq!(c.phase(), Phase::SlowStart);
        assert_eq!(c.window(), 1);
        // One round: every segment ACKed individually.
        c.on_new_ack(1);
        assert_eq!(c.window(), 2);
        c.on_new_ack(1);
        c.on_new_ack(1);
        assert_eq!(c.window(), 4);
    }

    #[test]
    fn transitions_to_ca_at_ssthresh() {
        let mut c = Cwnd::new(64);
        c.on_timeout(32); // ssthresh = 16, cwnd = 1, slow start
        assert_eq!(c.ssthresh(), 16.0);
        for _ in 0..15 {
            c.on_new_ack(1);
        }
        assert_eq!(c.phase(), Phase::CongestionAvoidance);
        let w = c.cwnd();
        c.on_new_ack(1);
        assert!(
            (c.cwnd() - (w + 1.0 / w)).abs() < 1e-12,
            "additive increase"
        );
    }

    #[test]
    fn ca_grows_one_window_per_rtt() {
        let mut c = Cwnd::new(1000);
        c.on_timeout(20); // ssthresh = 10
        for _ in 0..9 {
            c.on_new_ack(1);
        }
        assert_eq!(c.phase(), Phase::CongestionAvoidance);
        let start = c.cwnd();
        // One round = cwnd ACKs.
        let acks = start.floor() as u32;
        for _ in 0..acks {
            c.on_new_ack(1);
        }
        assert!(
            (c.cwnd() - (start + 1.0)).abs() < 0.1,
            "{} -> {}",
            start,
            c.cwnd()
        );
    }

    #[test]
    fn window_capped_by_advertised() {
        let mut c = Cwnd::new(8);
        for _ in 0..100 {
            c.on_new_ack(1);
        }
        assert_eq!(c.window(), 8);
        assert!(c.window_limited());
    }

    #[test]
    fn fast_recovery_cycle() {
        let mut c = Cwnd::new(64);
        for _ in 0..20 {
            c.on_new_ack(1);
        }
        c.enter_fast_recovery(20);
        assert_eq!(c.phase(), Phase::FastRecovery);
        assert_eq!(c.ssthresh(), 10.0);
        assert_eq!(c.cwnd(), 13.0);
        c.on_dup_ack_in_recovery();
        assert_eq!(c.cwnd(), 14.0);
        // New ACKs during recovery do not grow the window.
        c.on_new_ack(1);
        assert_eq!(c.cwnd(), 14.0);
        c.exit_fast_recovery();
        assert_eq!(c.phase(), Phase::CongestionAvoidance);
        assert_eq!(c.cwnd(), 10.0);
    }

    #[test]
    fn timeout_resets_to_one() {
        let mut c = Cwnd::new(64);
        for _ in 0..30 {
            c.on_new_ack(1);
        }
        c.on_timeout(31);
        assert_eq!(c.phase(), Phase::SlowStart);
        assert_eq!(c.window(), 1);
        assert_eq!(c.ssthresh(), 15.5);
    }

    #[test]
    fn minimum_flight_floor_for_ssthresh() {
        let mut c = Cwnd::new(64);
        c.on_timeout(1);
        assert_eq!(c.ssthresh(), 2.0);
        c.enter_fast_recovery(1);
        assert_eq!(c.ssthresh(), 2.0);
    }

    #[test]
    fn partial_ack_deflates_but_stays_in_recovery() {
        let mut c = Cwnd::new(64);
        c.enter_fast_recovery(20);
        let before = c.cwnd();
        c.on_partial_ack(4);
        assert_eq!(c.phase(), Phase::FastRecovery);
        assert!((c.cwnd() - (before - 4.0 + 1.0)).abs() < 1e-12);
        c.on_partial_ack(1000);
        assert!(c.cwnd() >= 1.0);
    }

    #[test]
    fn veno_backlog_estimate() {
        let mut c = Cwnd::with_algorithm(64, Algorithm::Veno);
        assert_eq!(c.backlog_estimate(), None, "no RTT info yet");
        for _ in 0..20 {
            c.on_new_ack(1);
        }
        c.observe_rtt(0.050); // base
        c.observe_rtt(0.075); // queueing building up
        let n = c.backlog_estimate().unwrap();
        // N = cwnd * (0.075-0.050)/0.075 = cwnd/3.
        assert!((n - c.cwnd() / 3.0).abs() < 1e-9);
    }

    #[test]
    fn veno_takes_smaller_cut_on_random_loss() {
        let mut veno = Cwnd::with_algorithm(64, Algorithm::Veno);
        let mut reno = Cwnd::new(64);
        for c in [&mut veno, &mut reno] {
            for _ in 0..20 {
                c.on_new_ack(1);
            }
        }
        // RTT at its base: backlog ~ 0 -> random loss suspected.
        veno.observe_rtt(0.050);
        veno.observe_rtt(0.050);
        veno.enter_fast_recovery(20);
        reno.enter_fast_recovery(20);
        assert_eq!(reno.ssthresh(), 10.0, "Reno halves");
        assert_eq!(veno.ssthresh(), 16.0, "Veno cuts by 1/5 on random loss");
    }

    #[test]
    fn veno_halves_like_reno_when_congested() {
        let mut veno = Cwnd::with_algorithm(64, Algorithm::Veno);
        for _ in 0..20 {
            veno.on_new_ack(1);
        }
        // Large queueing delay: backlog exceeds beta.
        veno.observe_rtt(0.050);
        veno.observe_rtt(0.200);
        assert!(veno.backlog_estimate().unwrap() > 3.0);
        veno.enter_fast_recovery(20);
        assert_eq!(veno.ssthresh(), 10.0);
    }

    #[test]
    fn veno_slows_ca_growth_under_backlog() {
        let mut c = Cwnd::with_algorithm(64, Algorithm::Veno);
        c.on_timeout(20); // ssthresh 10
        for _ in 0..9 {
            c.on_new_ack(1);
        }
        assert_eq!(c.phase(), Phase::CongestionAvoidance);
        c.observe_rtt(0.050);
        c.observe_rtt(0.300); // heavy queueing
        let w = c.cwnd();
        c.on_new_ack(1);
        assert!((c.cwnd() - (w + 0.5 / w)).abs() < 1e-12, "half-rate growth");
    }

    #[test]
    fn reno_ignores_rtt_observations() {
        let mut c = Cwnd::new(64);
        c.observe_rtt(0.050);
        c.observe_rtt(0.500);
        c.enter_fast_recovery(20);
        assert_eq!(c.ssthresh(), 10.0);
    }

    #[test]
    fn invariants_hold_through_a_full_lifecycle() {
        let mut c = Cwnd::new(16);
        c.assert_invariants();
        for _ in 0..40 {
            c.on_new_ack(1);
            c.assert_invariants();
        }
        c.enter_fast_recovery(16);
        c.assert_invariants();
        for _ in 0..16 {
            c.on_dup_ack_in_recovery();
            c.assert_invariants();
        }
        c.on_partial_ack(5);
        c.assert_invariants();
        c.exit_fast_recovery();
        c.assert_invariants();
        c.on_timeout(16);
        c.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "cwnd invariant violated")]
    fn invariant_check_fires_on_injected_violation() {
        let mut c = Cwnd::new(16);
        c.inject_invariant_violation();
        c.assert_invariants();
    }

    #[test]
    fn window_never_zero() {
        let c = Cwnd::new(5);
        assert!(c.window() >= 1);
        let mut c2 = Cwnd::new(5);
        c2.on_timeout(10);
        assert_eq!(c2.window(), 1);
    }
}
