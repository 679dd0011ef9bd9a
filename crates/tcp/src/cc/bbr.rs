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
//! recovery bookkeeping needs the [`Phase`] machine, where STARTUP is slow
//! start and PROBE_BW congestion avoidance — but the window cut is mild
//! (0.85·flight) and the model, not the cut, dominates steady state, which
//! is exactly the behavior the HSR measurement studies report for BBR
//! under random loss.

use crate::cwnd::Phase;

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

/// BBR's law: the path model and the state machine that reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Model {
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

/// The mild loss cut: the model, not the cut, sets steady state. Returns
/// the new `ssthresh`.
pub(crate) fn cut(flight: u64) -> f64 {
    (flight as f64 * 0.85).max(2.0)
}

impl Model {
    pub(crate) const NEW: Model = Model {
        mode: Mode::Startup,
        min_rtt_s: f64::INFINITY,
        bw_samples: [0.0; BW_WINDOW],
        bw_len: 0,
        bw_next: 0,
        full_bw: 0.0,
        full_bw_rounds: 0,
        round_acks: 0.0,
        cycle_idx: 0,
    };

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

    pub(crate) fn observe_rtt(&mut self, rtt_s: f64, cwnd: f64) {
        self.min_rtt_s = self.min_rtt_s.min(rtt_s);
        // Delivery-rate proxy: a window's worth of data per RTT.
        self.bw_samples[self.bw_next] = cwnd / rtt_s;
        self.bw_next = (self.bw_next + 1) % BW_WINDOW;
        self.bw_len = (self.bw_len + 1).min(BW_WINDOW);
    }

    /// Counts an ACK of `acked` segments toward the round a window of
    /// `cwnd` makes. At a round's end it advances the gain cycle, or the
    /// STARTUP plateau check; true when that check switched to PROBE_BW.
    pub(crate) fn count_acks(&mut self, acked: u64, cwnd: f64) -> bool {
        self.round_acks += acked as f64;
        if self.round_acks < cwnd.max(1.0) {
            return false;
        }
        self.round_acks = 0.0;
        let bw = self.max_bw();
        if bw > self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_rounds = 0;
        } else {
            self.full_bw_rounds += 1;
        }
        match self.mode {
            Mode::Startup if self.full_bw_rounds >= FULL_BW_ROUNDS && self.bdp().is_some() => {
                self.mode = Mode::ProbeBw;
                self.cycle_idx = 0;
                true
            }
            Mode::Startup => false,
            Mode::ProbeBw => {
                self.cycle_idx = (self.cycle_idx + 1) % GAIN_CYCLE.len();
                false
            }
        }
    }

    /// One ACK in PROBE_BW: glide toward the model target instead of
    /// jumping, which keeps the trajectory smooth across gain steps.
    pub(crate) fn grow(&mut self, cwnd: &mut f64, acked: u64) {
        let gain = GAIN_CYCLE[self.cycle_idx];
        if let Some(target) = self.target_cwnd(gain) {
            let step = (target - *cwnd) / cwnd.max(1.0);
            *cwnd += step.clamp(-1.0, 1.0) * acked as f64;
        } else {
            *cwnd += acked as f64 / cwnd.max(1.0);
        }
    }

    /// Leaving fast recovery restores the model target when there is one
    /// (the loss-based ssthresh is only a floor for the model-less cold
    /// start) and resumes the mode's phase.
    pub(crate) fn recovery_exit(&self, ssthresh: f64, ceiling: f64) -> (f64, Phase) {
        let cwnd = match self.target_cwnd(1.0) {
            Some(target) => target.max(ssthresh).min(ceiling),
            None => ssthresh,
        };
        let phase = match self.mode {
            Mode::Startup => Phase::SlowStart,
            Mode::ProbeBw => Phase::CongestionAvoidance,
        };
        (cwnd, phase)
    }

    /// A timeout restarts bandwidth discovery: the model is stale.
    pub(crate) fn restart(&mut self) {
        self.mode = Mode::Startup;
        self.full_bw = 0.0;
        self.full_bw_rounds = 0;
        self.round_acks = 0.0;
    }

    #[cfg(any(debug_assertions, test))]
    pub(crate) fn assert_invariants(&self) {
        assert!(
            self.min_rtt_s > 0.0,
            "bbr min_rtt invariant violated: {}",
            self.min_rtt_s,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::Algorithm;
    use crate::cwnd::Cwnd;

    fn bbr(w_m: u32) -> Cwnd {
        Cwnd::new(w_m, Algorithm::Bbr)
    }

    /// Drives `rounds` rounds of ACK-per-segment with a fixed RTT.
    fn drive(b: &mut Cwnd, rounds: u32, rtt: f64) {
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
        let mut b = bbr(256);
        drive(&mut b, 4, 0.05);
        assert!(b.cwnd() >= 8.0, "cwnd {} after 4 startup rounds", b.cwnd());
        assert_eq!(b.bbr().mode, Mode::Startup);
    }

    #[test]
    fn startup_exits_on_bandwidth_plateau() {
        let mut b = bbr(32);
        // Window soon pegs at w_m = 32, so the cwnd/rtt delivery-rate proxy
        // plateaus and STARTUP must exit within a few rounds.
        drive(&mut b, 20, 0.05);
        assert_eq!(b.bbr().mode, Mode::ProbeBw, "plateau must end STARTUP");
        assert_eq!(b.phase(), Phase::CongestionAvoidance);
    }

    #[test]
    fn probe_bw_tracks_the_bdp() {
        let mut b = bbr(64);
        drive(&mut b, 30, 0.05);
        let bdp = b.bbr().bdp().expect("model populated");
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
        let mut b = bbr(64);
        drive(&mut b, 30, 0.05);
        let before = b.cwnd();
        b.enter_fast_recovery(before as u64);
        assert_eq!(b.phase(), Phase::FastRecovery);
        assert!((b.ssthresh() - (before.floor() * 0.85).max(2.0)).abs() < 1e-9);
        b.exit_fast_recovery();
        let target = b.bbr().target_cwnd(1.0).unwrap();
        assert!(
            (b.cwnd() - target.max(b.ssthresh())).abs() < 1e-9,
            "model target restored after recovery"
        );
    }

    #[test]
    fn timeout_restarts_discovery() {
        let mut b = bbr(64);
        drive(&mut b, 30, 0.05);
        b.on_timeout(16);
        assert_eq!(b.window(), 1);
        assert_eq!(b.bbr().mode, Mode::Startup);
        assert_eq!(b.phase(), Phase::SlowStart);
        b.assert_invariants();
    }
}
