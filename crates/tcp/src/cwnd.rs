//! The congestion-window machine (TCP Reno, RFC 5681) that every
//! controller of the [`crate::cc`] zoo runs on.
//!
//! [`Cwnd`] tracks the window in fractional segments through slow start,
//! congestion avoidance and fast recovery, capped by the receiver's
//! advertised window `W_m` — the same window limitation the model's
//! Section IV-D branch covers. The Reno cycle is written once: byte-counting
//! slow start and its exit at `ssthresh`, `+1` per duplicate ACK in fast
//! recovery, NewReno partial-ACK deflation, and the collapse to one segment
//! on a timeout. A controller is a *law* on top of that cycle, as in the
//! paper's Eq. (21): what it makes of an RTT sample, its congestion-
//! avoidance step, its loss cut, the window it leaves fast recovery with
//! and what a timeout resets. Compound's delay window and BBR's per-ACK
//! round accounting are the two laws that reach further, and their arms
//! say where.

use crate::cc::{bbr, compound, cubic, Algorithm};

/// Veno's backlog threshold `β`, packets: a loss with a smaller backlog
/// estimate is deemed random (Fu & Liew's default).
pub(crate) const VENO_BETA: f64 = 3.0;

/// Which congestion phase the sender is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Exponential growth below `ssthresh`.
    SlowStart,
    /// Additive increase above `ssthresh`.
    CongestionAvoidance,
    /// Reno fast recovery (window inflation during dup-ACKs).
    FastRecovery,
}

/// The congestion window of one sender, running the controller its
/// [`Algorithm`] names. It is `Copy`: the sender's spurious-timeout undo
/// keeps a whole machine, law state included, by value.
#[derive(Debug, Clone, Copy)]
pub struct Cwnd {
    /// The Reno window; Compound's loss-based component.
    cwnd: f64,
    ssthresh: f64,
    phase: Phase,
    w_m: f64,
    law: Law,
}

/// Each controller's own state: the only part of a window machine that
/// differs between the zoo's members.
#[derive(Debug, Clone, Copy)]
enum Law {
    Reno,
    Veno(Backlog),
    Cubic(cubic::Epoch),
    Bbr(bbr::Model),
    Compound(compound::DelayWindow),
}

/// The minimum and the latest RTT, seconds, and the Vegas-style backlog
/// estimate Veno and Compound make from them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Backlog {
    base_rtt_s: f64,
    last_rtt_s: f64,
}

impl Backlog {
    pub(crate) const NEW: Backlog = Backlog {
        base_rtt_s: f64::INFINITY,
        last_rtt_s: f64::INFINITY,
    };

    pub(crate) fn observe(&mut self, rtt_s: f64) {
        self.base_rtt_s = self.base_rtt_s.min(rtt_s);
        self.last_rtt_s = rtt_s;
    }

    /// The packets a window `win` keeps queued, `win·(RTT − baseRTT)/RTT`,
    /// once an RTT has been seen.
    pub(crate) fn estimate(&self, win: f64) -> Option<f64> {
        self.last_rtt_s
            .is_finite()
            .then(|| win * (self.last_rtt_s - self.base_rtt_s) / self.last_rtt_s)
    }

    /// Veno's verdict: a loss with the backlog below `β` is random.
    fn random_loss(&self, cwnd: f64) -> bool {
        self.estimate(cwnd).is_some_and(|n| n < VENO_BETA)
    }
}

impl Law {
    /// Feeds a positive, finite RTT sample.
    fn observe_rtt(&mut self, rtt_s: f64, cwnd: f64) {
        match self {
            Law::Reno => {}
            Law::Veno(backlog) => backlog.observe(rtt_s),
            Law::Cubic(epoch) => epoch.observe_rtt(rtt_s),
            Law::Bbr(model) => model.observe_rtt(rtt_s, cwnd),
            Law::Compound(delay) => delay.observe_rtt(rtt_s),
        }
    }

    /// One ACK's congestion-avoidance step.
    fn grow(&mut self, cwnd: &mut f64, acked: u64) {
        match self {
            // 1/cwnd per ACK: +1 MSS per window per RTT; with delayed ACKs
            // (fewer ACKs per round) growth slows to 1 per b rounds,
            // matching the model's Eq. (3).
            Law::Reno => *cwnd += 1.0 / cwnd.max(1.0),
            // Veno halves the growth unless its backlog estimate is below β.
            Law::Veno(backlog) => {
                let step = if backlog.random_loss(*cwnd) { 1.0 } else { 0.5 };
                *cwnd += step / cwnd.max(1.0);
            }
            Law::Cubic(epoch) => epoch.grow(cwnd, acked),
            Law::Bbr(model) => model.grow(cwnd, acked),
            Law::Compound(delay) => delay.grow(cwnd),
        }
    }

    /// The loss cut on a third duplicate ACK: the new `ssthresh` and the
    /// window before fast retransmit inflates it.
    fn cut(&mut self, cwnd: f64, flight: u64) -> (f64, f64) {
        let ssthresh = match self {
            Law::Reno => (flight as f64 * 0.5).max(2.0),
            // Veno, when its backlog estimate indicates a *random*
            // (wireless) loss, only takes a 1/5 cut.
            Law::Veno(backlog) => {
                let factor = if backlog.random_loss(cwnd) { 0.8 } else { 0.5 };
                (flight as f64 * factor).max(2.0)
            }
            Law::Cubic(epoch) => epoch.cut(cwnd),
            Law::Bbr(_) => bbr::cut(flight),
            Law::Compound(delay) => return delay.cut(flight),
        };
        (ssthresh, ssthresh)
    }

    /// The window fast recovery ends with, and the phase it resumes.
    fn recovery_exit(&mut self, ssthresh: f64, ceiling: f64) -> (f64, Phase) {
        match self {
            Law::Cubic(epoch) => epoch.start(ssthresh),
            Law::Bbr(model) => return model.recovery_exit(ssthresh, ceiling),
            Law::Compound(delay) => {
                return (delay.exit_window(ssthresh), Phase::CongestionAvoidance)
            }
            Law::Reno | Law::Veno(_) => {}
        }
        (ssthresh, Phase::CongestionAvoidance)
    }

    /// What a timeout resets; returns the new `ssthresh`.
    fn timeout(&mut self, cwnd: f64, flight: u64) -> f64 {
        match self {
            Law::Cubic(epoch) => return epoch.cut(cwnd),
            Law::Bbr(model) => model.restart(),
            Law::Compound(delay) => delay.dwnd = 0.0,
            Law::Reno | Law::Veno(_) => {}
        }
        (flight as f64 / 2.0).max(2.0)
    }
}

impl Cwnd {
    /// Creates the window machine for `algorithm` with initial window 1
    /// and the given advertised window limitation.
    ///
    /// # Panics
    ///
    /// Panics if `w_m` is zero.
    pub fn new(w_m: u32, algorithm: Algorithm) -> Cwnd {
        assert!(w_m > 0, "advertised window must be positive");
        let law = match algorithm {
            Algorithm::Reno => Law::Reno,
            Algorithm::Veno => Law::Veno(Backlog::NEW),
            Algorithm::Cubic => Law::Cubic(cubic::Epoch::NEW),
            Algorithm::Bbr => Law::Bbr(bbr::Model::NEW),
            Algorithm::Compound => Law::Compound(compound::DelayWindow::NEW),
        };
        Cwnd {
            cwnd: 1.0,
            ssthresh: f64::from(w_m),
            phase: Phase::SlowStart,
            w_m: f64::from(w_m),
            law,
        }
    }

    /// Feeds a clean (Karn-filtered) RTT observation, seconds; a sample
    /// that is not positive and finite is ignored.
    pub fn observe_rtt(&mut self, rtt_s: f64) {
        if rtt_s > 0.0 && rtt_s.is_finite() {
            self.law.observe_rtt(rtt_s, self.cwnd);
        }
    }

    /// An ACK advanced the cumulative point by `acked` segments. The
    /// sender ends fast recovery explicitly, so in fast recovery this does
    /// nothing.
    pub fn on_new_ack(&mut self, acked: u64) {
        if self.phase == Phase::FastRecovery {
            return;
        }
        if let Law::Bbr(model) = &mut self.law {
            if model.count_acks(acked, self.cwnd) {
                self.phase = Phase::CongestionAvoidance;
            }
        }
        if self.phase == Phase::SlowStart {
            // One MSS per ACKed segment (byte-counting slow start). BBR's
            // STARTUP ends on its bandwidth plateau instead of at ssthresh.
            self.cwnd += acked as f64;
            if !matches!(self.law, Law::Bbr(_)) && self.win() >= self.ssthresh {
                self.phase = Phase::CongestionAvoidance;
                if let Law::Cubic(epoch) = &mut self.law {
                    epoch.start(self.cwnd);
                }
            }
        } else {
            self.law.grow(&mut self.cwnd, acked);
        }
        // Keep the window in [1, 2·W_m], draining Compound's delay window
        // first.
        let ceiling = 2.0 * self.w_m;
        if let Law::Compound(delay) = &mut self.law {
            delay.clamp(self.cwnd, ceiling);
        }
        self.cwnd = self.cwnd.min(ceiling).max(1.0);
    }

    /// Third duplicate ACK: cut the window and enter fast recovery.
    /// `flight` is the outstanding data in segments.
    pub fn enter_fast_recovery(&mut self, flight: u64) {
        let (ssthresh, cut) = self.law.cut(self.cwnd, flight);
        self.ssthresh = ssthresh;
        self.cwnd = cut + 3.0;
        self.phase = Phase::FastRecovery;
    }

    /// A further duplicate ACK while in fast recovery (window inflation).
    pub fn on_dup_ack_in_recovery(&mut self) {
        if self.phase == Phase::FastRecovery {
            self.cwnd += 1.0;
        }
    }

    /// An ACK for new data ended fast recovery (window deflation).
    pub fn exit_fast_recovery(&mut self) {
        if self.phase == Phase::FastRecovery {
            (self.cwnd, self.phase) = self.law.recovery_exit(self.ssthresh, 2.0 * self.w_m);
        }
    }

    /// NewReno partial ACK: deflate but stay in fast recovery.
    pub fn on_partial_ack(&mut self, acked: u64) {
        if self.phase == Phase::FastRecovery {
            self.cwnd = (self.cwnd - acked as f64 + 1.0).max(1.0);
        }
    }

    /// Retransmission timeout: collapses to one segment and restarts slow
    /// start. `flight` is the outstanding data in segments.
    pub fn on_timeout(&mut self, flight: u64) {
        self.ssthresh = self.law.timeout(self.cwnd, flight);
        self.cwnd = 1.0;
        self.phase = Phase::SlowStart;
    }

    /// The whole window in fractional segments: `cwnd`, plus Compound's
    /// delay window.
    fn win(&self) -> f64 {
        match self.law {
            Law::Compound(delay) => self.cwnd + delay.dwnd,
            _ => self.cwnd,
        }
    }

    /// The effective send window in whole segments:
    /// `max(1, floor(min(cwnd, W_m)))`.
    pub fn window(&self) -> u64 {
        send_window(self.win(), self.w_m)
    }

    /// The raw (fractional, uncapped) congestion window in segments —
    /// for Compound, the sum of its two components.
    pub fn cwnd(&self) -> f64 {
        self.win()
    }

    /// The congestion phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The window never collapses below one segment, never escapes its
    /// ceiling, and its state stays finite and positive. The sender
    /// re-checks after every state transition in debug/test builds.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn assert_invariants(&self) {
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
        let ceiling = 3.0 * self.w_m + 4.0;
        assert!(
            self.win() <= ceiling,
            "cwnd {} escaped its {} ceiling",
            self.win(),
            ceiling
        );
        let w = self.window();
        assert!(
            (1..=self.w_m as u64).contains(&w),
            "effective window {} outside [1, W_m = {}]",
            w,
            self.w_m,
        );
        match &self.law {
            Law::Cubic(epoch) => epoch.assert_invariants(),
            Law::Bbr(model) => model.assert_invariants(),
            Law::Compound(delay) => delay.assert_invariants(),
            Law::Reno | Law::Veno(_) => {}
        }
    }
}

/// The effective send window in whole segments:
/// `max(1, floor(min(cwnd, w_m)))`, for any `f64` whatever. The saturating
/// `as` cast truncates — which is `floor` from 1 upwards — and sends NaN
/// and everything below 1 to 0, which the `max` lifts to 1 as it lifted
/// their floors; no libm call per ACK.
fn send_window(cwnd: f64, w_m: f64) -> u64 {
    (cwnd.min(w_m) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the zoo's unit tests read of a machine beyond its public
    /// getters.
    impl Cwnd {
        pub(crate) fn ssthresh(&self) -> f64 {
            self.ssthresh
        }

        pub(crate) fn cubic(&self) -> &cubic::Epoch {
            match &self.law {
                Law::Cubic(epoch) => epoch,
                law => panic!("not CUBIC: {law:?}"),
            }
        }

        pub(crate) fn bbr(&self) -> &bbr::Model {
            match &self.law {
                Law::Bbr(model) => model,
                law => panic!("not BBR: {law:?}"),
            }
        }

        pub(crate) fn compound(&self) -> &compound::DelayWindow {
            match &self.law {
                Law::Compound(delay) => delay,
                law => panic!("not Compound: {law:?}"),
            }
        }
    }

    fn reno(w_m: u32) -> Cwnd {
        Cwnd::new(w_m, Algorithm::Reno)
    }

    fn veno(w_m: u32) -> Cwnd {
        Cwnd::new(w_m, Algorithm::Veno)
    }

    fn backlog(c: &Cwnd) -> Option<f64> {
        match c.law {
            Law::Veno(backlog) => backlog.estimate(c.cwnd),
            _ => None,
        }
    }

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
        let mut c = reno(64);
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
        let mut c = reno(64);
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
        let mut c = reno(1000);
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
        let mut c = reno(8);
        for _ in 0..100 {
            c.on_new_ack(1);
        }
        assert_eq!(c.window(), 8);
        assert!(c.cwnd >= c.w_m, "W_m is the binding limit");
    }

    #[test]
    fn fast_recovery_cycle() {
        let mut c = reno(64);
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
        let mut c = reno(64);
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
        let mut c = reno(64);
        c.on_timeout(1);
        assert_eq!(c.ssthresh(), 2.0);
        c.enter_fast_recovery(1);
        assert_eq!(c.ssthresh(), 2.0);
    }

    #[test]
    fn partial_ack_deflates_but_stays_in_recovery() {
        let mut c = reno(64);
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
        let mut c = veno(64);
        assert_eq!(backlog(&c), None, "no RTT info yet");
        for _ in 0..20 {
            c.on_new_ack(1);
        }
        c.observe_rtt(0.050); // base
        c.observe_rtt(0.075); // queueing building up
        let n = backlog(&c).unwrap();
        // N = cwnd * (0.075-0.050)/0.075 = cwnd/3.
        assert!((n - c.cwnd() / 3.0).abs() < 1e-9);
    }

    #[test]
    fn veno_takes_smaller_cut_on_random_loss() {
        let mut veno = veno(64);
        let mut reno = reno(64);
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
        let mut veno = veno(64);
        for _ in 0..20 {
            veno.on_new_ack(1);
        }
        // Large queueing delay: backlog exceeds beta.
        veno.observe_rtt(0.050);
        veno.observe_rtt(0.200);
        assert!(backlog(&veno).unwrap() > 3.0);
        veno.enter_fast_recovery(20);
        assert_eq!(veno.ssthresh(), 10.0);
    }

    #[test]
    fn veno_slows_ca_growth_under_backlog() {
        let mut c = veno(64);
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
        let mut c = reno(64);
        c.observe_rtt(0.050);
        c.observe_rtt(0.500);
        c.enter_fast_recovery(20);
        assert_eq!(c.ssthresh(), 10.0);
    }

    #[test]
    fn invariants_hold_through_a_full_lifecycle() {
        let mut c = reno(16);
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
        let mut c = reno(16);
        c.cwnd = 0.0;
        c.assert_invariants();
    }

    #[test]
    fn window_never_zero() {
        let c = reno(5);
        assert!(c.window() >= 1);
        let mut c2 = reno(5);
        c2.on_timeout(10);
        assert_eq!(c2.window(), 1);
    }
}
