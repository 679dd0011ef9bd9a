//! A BBR-style model-based controller.
//!
//! Instead of reacting to loss, BBR builds an explicit model of the path —
//! a windowed maximum of observed delivery rate (`BtlBw`) and a running
//! minimum RTT (`RTprop`) — and sets the window to a gain-cycled multiple
//! of the bandwidth-delay product. This is a deliberately simplified
//! rendition with the two load-bearing states, STARTUP and PROBE_BW:
//!
//! * **STARTUP** doubles the window each round (slow-start-like) until the
//!   bandwidth estimate stops growing for three consecutive rounds;
//! * **PROBE_BW** cycles the BDP gain through `[1.25, 0.75, 1, 1, 1, 1]`,
//!   probing for more bandwidth then draining the queue it created.
//!
//! Losses still route through the Reno event vocabulary — the sender's
//! recovery bookkeeping needs the [`Phase`] machine — but the window cut
//! is mild (0.85·flight) and the model, not the cut, dominates steady
//! state, which is exactly the behavior the HSR measurement studies
//! report for BBR under random loss.

use crate::cwnd::{send_window, Phase};

use super::CongestionControl;

/// PROBE_BW pacing-gain cycle (probe, drain, cruise ×4).
const GAIN_CYCLE: [f64; 6] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0];

/// Delivery-rate samples kept for the windowed max (about one cycle).
const BW_WINDOW: usize = 10;

/// STARTUP exits after this many rounds without 25 % bandwidth growth.
const FULL_BW_ROUNDS: u32 = 3;

/// Internal state machine (the simplified STARTUP/PROBE_BW subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Startup,
    ProbeBw,
}

/// The BBR-style controller.
#[derive(Debug, Clone, Copy)]
pub struct Bbr {
    cwnd: f64,
    ssthresh: f64,
    phase: Phase,
    w_m: f64,
    mode: Mode,
    /// Running minimum RTT (RTprop), seconds.
    min_rtt_s: f64,
    /// Ring of recent delivery-rate samples, segments/s.
    bw_samples: [f64; BW_WINDOW],
    bw_len: usize,
    bw_next: usize,
    /// Best bandwidth seen when the current plateau streak started.
    full_bw: f64,
    full_bw_rounds: u32,
    /// ACK accounting to delimit rounds.
    round_acks: f64,
    cycle_idx: usize,
}

impl Bbr {
    /// Creates a BBR controller with initial window 1.
    ///
    /// # Panics
    ///
    /// Panics if `w_m` is zero.
    pub fn new(w_m: u32) -> Bbr {
        assert!(w_m > 0, "advertised window must be positive");
        Bbr {
            cwnd: 1.0,
            ssthresh: f64::from(w_m),
            phase: Phase::SlowStart,
            w_m: f64::from(w_m),
            mode: Mode::Startup,
            min_rtt_s: f64::INFINITY,
            bw_samples: [0.0; BW_WINDOW],
            bw_len: 0,
            bw_next: 0,
            full_bw: 0.0,
            full_bw_rounds: 0,
            round_acks: 0.0,
            cycle_idx: 0,
        }
    }

    /// Windowed maximum of the delivery-rate samples, segments/s.
    fn max_bw(&self) -> f64 {
        self.bw_samples[..self.bw_len]
            .iter()
            .fold(0.0f64, |m, &s| m.max(s))
    }

    /// Bandwidth-delay product in segments, when the model has data.
    fn bdp(&self) -> Option<f64> {
        let bw = self.max_bw();
        if bw > 0.0 && self.min_rtt_s.is_finite() {
            Some(bw * self.min_rtt_s)
        } else {
            None
        }
    }

    /// The model-driven window target for the current gain.
    fn target_cwnd(&self, gain: f64) -> Option<f64> {
        self.bdp().map(|bdp| (gain * bdp).max(4.0))
    }

    /// The phase PROBE_BW/STARTUP map onto outside of loss recovery.
    fn steady_phase(&self) -> Phase {
        match self.mode {
            Mode::Startup => Phase::SlowStart,
            Mode::ProbeBw => Phase::CongestionAvoidance,
        }
    }

    /// Ends a round: advance the gain cycle and the STARTUP plateau check.
    fn on_round_end(&mut self) {
        let bw = self.max_bw();
        if bw > self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_rounds = 0;
        } else {
            self.full_bw_rounds += 1;
        }
        match self.mode {
            Mode::Startup => {
                if self.full_bw_rounds >= FULL_BW_ROUNDS && self.bdp().is_some() {
                    self.mode = Mode::ProbeBw;
                    self.cycle_idx = 0;
                    if self.phase != Phase::FastRecovery {
                        self.phase = Phase::CongestionAvoidance;
                    }
                }
            }
            Mode::ProbeBw => {
                self.cycle_idx = (self.cycle_idx + 1) % GAIN_CYCLE.len();
            }
        }
    }

    fn clamp(&mut self) {
        self.cwnd = self.cwnd.min(self.w_m.max(1.0) * 2.0).max(1.0);
    }
}

impl CongestionControl for Bbr {
    fn observe_rtt(&mut self, rtt_s: f64) {
        if rtt_s > 0.0 && rtt_s.is_finite() {
            self.min_rtt_s = self.min_rtt_s.min(rtt_s);
            // Delivery-rate proxy: a window's worth of data per RTT.
            let sample = self.cwnd / rtt_s;
            self.bw_samples[self.bw_next] = sample;
            self.bw_next = (self.bw_next + 1) % BW_WINDOW;
            self.bw_len = (self.bw_len + 1).min(BW_WINDOW);
        }
    }

    fn on_new_ack(&mut self, acked: u64) {
        self.round_acks += acked as f64;
        if self.round_acks >= self.cwnd.max(1.0) {
            self.round_acks = 0.0;
            self.on_round_end();
        }
        if self.phase == Phase::FastRecovery {
            return; // callers exit recovery explicitly
        }
        match self.mode {
            Mode::Startup => {
                // Exponential growth while the pipe is not yet full.
                self.cwnd += acked as f64;
            }
            Mode::ProbeBw => {
                let gain = GAIN_CYCLE[self.cycle_idx];
                if let Some(target) = self.target_cwnd(gain) {
                    // Glide toward the model target instead of jumping:
                    // keeps the trajectory smooth across gain steps.
                    let step = (target - self.cwnd) / self.cwnd.max(1.0);
                    self.cwnd += step.clamp(-1.0, 1.0) * acked as f64;
                } else {
                    self.cwnd += acked as f64 / self.cwnd.max(1.0);
                }
            }
        }
        self.clamp();
    }

    fn enter_fast_recovery(&mut self, flight: u64) {
        // Mild loss response: the model, not the cut, sets steady state.
        self.ssthresh = (flight as f64 * 0.85).max(2.0);
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
            // Restore the model target when there is one; the loss-based
            // ssthresh is only a floor for the model-less cold start.
            self.cwnd = match self.target_cwnd(1.0) {
                Some(target) => target.max(self.ssthresh).min(self.w_m.max(1.0) * 2.0),
                None => self.ssthresh,
            };
            self.phase = self.steady_phase();
        }
    }

    fn on_partial_ack(&mut self, acked: u64) {
        if self.phase == Phase::FastRecovery {
            self.cwnd = (self.cwnd - acked as f64 + 1.0).max(1.0);
        }
    }

    fn on_timeout(&mut self, flight: u64) {
        self.ssthresh = (flight as f64 / 2.0).max(2.0);
        self.cwnd = 1.0;
        // Restart bandwidth discovery: the model is stale after an RTO.
        self.mode = Mode::Startup;
        self.full_bw = 0.0;
        self.full_bw_rounds = 0;
        self.round_acks = 0.0;
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

    #[cfg(any(debug_assertions, test))]
    fn assert_invariants(&self) {
        assert!(
            self.cwnd.is_finite() && self.cwnd >= 1.0,
            "bbr cwnd invariant violated: cwnd = {}",
            self.cwnd,
        );
        assert!(
            self.ssthresh.is_finite() && self.ssthresh >= 1.0,
            "bbr ssthresh invariant violated: ssthresh = {}",
            self.ssthresh,
        );
        assert!(
            self.min_rtt_s > 0.0,
            "bbr min_rtt invariant violated: {}",
            self.min_rtt_s,
        );
        let ceiling = self.w_m.max(1.0) * 3.0 + 4.0;
        assert!(
            self.cwnd <= ceiling,
            "bbr cwnd {} escaped its {} ceiling",
            self.cwnd,
            ceiling
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `rounds` rounds of ACK-per-segment with a fixed RTT.
    fn drive(b: &mut Bbr, rounds: u32, rtt: f64) {
        for _ in 0..rounds {
            let w = b.window();
            b.observe_rtt(rtt);
            for _ in 0..w {
                b.on_new_ack(1);
            }
        }
    }

    #[test]
    fn startup_grows_exponentially() {
        let mut b = Bbr::new(256);
        drive(&mut b, 4, 0.05);
        assert!(b.cwnd() >= 8.0, "cwnd {} after 4 startup rounds", b.cwnd());
        assert_eq!(b.mode, Mode::Startup);
    }

    #[test]
    fn startup_exits_on_bandwidth_plateau() {
        let mut b = Bbr::new(32);
        // Window soon pegs at w_m = 32, so the cwnd/rtt delivery-rate proxy
        // plateaus and STARTUP must exit within a few rounds.
        drive(&mut b, 20, 0.05);
        assert_eq!(b.mode, Mode::ProbeBw, "plateau must end STARTUP");
        assert_eq!(b.phase(), Phase::CongestionAvoidance);
    }

    #[test]
    fn probe_bw_tracks_the_bdp() {
        let mut b = Bbr::new(64);
        drive(&mut b, 30, 0.05);
        let bdp = b.bdp().expect("model populated");
        // The window must stay within the gain cycle's envelope of the BDP
        // (plus the glide's one-segment slack).
        assert!(
            b.cwnd() <= 1.25 * bdp + 2.0 && b.cwnd() >= 4.0f64.min(0.75 * bdp - 2.0),
            "cwnd {} vs bdp {}",
            b.cwnd(),
            bdp
        );
    }

    #[test]
    fn loss_cut_is_mild_and_model_restores() {
        let mut b = Bbr::new(64);
        drive(&mut b, 30, 0.05);
        let before = b.cwnd();
        b.enter_fast_recovery(before as u64);
        assert_eq!(b.phase(), Phase::FastRecovery);
        assert!((b.ssthresh() - (before.floor() * 0.85).max(2.0)).abs() < 1e-9);
        b.exit_fast_recovery();
        let target = b.target_cwnd(1.0).unwrap();
        assert!(
            (b.cwnd() - target.max(b.ssthresh())).abs() < 1e-9,
            "model target restored after recovery"
        );
    }

    #[test]
    fn timeout_restarts_discovery() {
        let mut b = Bbr::new(64);
        drive(&mut b, 30, 0.05);
        b.on_timeout(16);
        assert_eq!(b.window(), 1);
        assert_eq!(b.mode, Mode::Startup);
        assert_eq!(b.phase(), Phase::SlowStart);
        b.assert_invariants();
    }

    #[test]
    fn deterministic_event_stream() {
        let run = || {
            let mut b = Bbr::new(48);
            for i in 0..400u64 {
                b.observe_rtt(0.04 + (i % 7) as f64 * 0.001);
                b.on_new_ack(1 + i % 2);
                if i % 113 == 0 {
                    b.enter_fast_recovery(b.window());
                    b.exit_fast_recovery();
                }
            }
            b.cwnd()
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }
}
