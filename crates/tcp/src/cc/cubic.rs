//! CUBIC congestion control (RFC 8312).
//!
//! Window growth in congestion avoidance is a cubic function of the time
//! elapsed since the last reduction, `W_cubic(t) = C·(t − K)³ + W_max`,
//! which plateaus around the previous loss point `W_max` and then probes
//! aggressively beyond it. Fast convergence releases bandwidth when the
//! loss point keeps moving down, and the TCP-friendly region keeps CUBIC
//! no slower than Reno on short-RTT paths.
//!
//! The simulator has no wall clock inside the controller, so elapsed time
//! is accumulated virtually: each ACK of `a` segments advances the epoch
//! clock by `a·RTT/cwnd` — one full RTT per acknowledged window, which is
//! exactly what "time since the epoch started" means in round units. This
//! keeps the controller a pure function of its event stream (bit-for-bit
//! deterministic across workers and replays).

use crate::cwnd::{send_window, Phase};

use super::CongestionControl;

/// Cubic scaling constant `C` (RFC 8312).
pub(super) const C: f64 = 0.4;
/// Multiplicative decrease factor `β` (RFC 8312).
pub(super) const BETA: f64 = 0.7;
/// RFC 8312 TCP-friendly region constant `3·(1−β)/(1+β)`.
const FRIENDLY_GAIN: f64 = 3.0 * (1.0 - BETA) / (1.0 + BETA);

/// The CUBIC controller.
#[derive(Debug, Clone, Copy)]
pub struct Cubic {
    cwnd: f64,
    ssthresh: f64,
    phase: Phase,
    w_m: f64,
    /// Window at the last reduction (after fast convergence).
    w_max: f64,
    /// Time for the cubic to regrow to `w_max`: `∛(W_max·(1−β)/C)`.
    k: f64,
    /// Virtual time since the current epoch started, seconds.
    t_s: f64,
    /// Reno-equivalent window for the TCP-friendly region.
    w_est: f64,
    /// Most recent clean RTT observation, seconds.
    last_rtt_s: f64,
}

impl Cubic {
    /// Creates a CUBIC controller with initial window 1, at the RFC 8312
    /// constants `C = 0.4`, `β = 0.7`.
    ///
    /// # Panics
    ///
    /// Panics if `w_m` is zero.
    pub fn new(w_m: u32) -> Cubic {
        assert!(w_m > 0, "advertised window must be positive");
        Cubic {
            cwnd: 1.0,
            ssthresh: f64::from(w_m),
            phase: Phase::SlowStart,
            w_m: f64::from(w_m),
            w_max: 0.0,
            k: 0.0,
            t_s: 0.0,
            w_est: 0.0,
            last_rtt_s: f64::INFINITY,
        }
    }

    /// Starts a growth epoch from the current window (RFC 8312 §4.1).
    fn start_epoch(&mut self) {
        if self.w_max < self.cwnd {
            self.w_max = self.cwnd;
        }
        self.k = ((self.w_max - self.cwnd).max(0.0) / C).cbrt();
        self.t_s = 0.0;
        self.w_est = self.cwnd;
    }

    fn w_cubic(&self, t: f64) -> f64 {
        C * (t - self.k).powi(3) + self.w_max
    }

    fn clamp(&mut self) {
        self.cwnd = self.cwnd.min(self.w_m.max(1.0) * 2.0);
    }
}

impl CongestionControl for Cubic {
    fn observe_rtt(&mut self, rtt_s: f64) {
        if rtt_s > 0.0 && rtt_s.is_finite() {
            self.last_rtt_s = rtt_s;
        }
    }

    fn on_new_ack(&mut self, acked: u64) {
        match self.phase {
            Phase::SlowStart => {
                self.cwnd += acked as f64;
                if self.cwnd >= self.ssthresh {
                    self.phase = Phase::CongestionAvoidance;
                    self.start_epoch();
                }
            }
            Phase::CongestionAvoidance => {
                if !self.last_rtt_s.is_finite() {
                    // No RTT sample yet: fall back to Reno-style additive
                    // increase rather than inventing a time base.
                    self.cwnd += 1.0 / self.cwnd.max(1.0);
                } else {
                    let rtt = self.last_rtt_s;
                    let a = acked as f64;
                    // One RTT of virtual time per acknowledged window.
                    self.t_s += a * rtt / self.cwnd.max(1.0);
                    // Reno-equivalent AIMD estimate for the friendly region.
                    self.w_est += FRIENDLY_GAIN * a / self.cwnd.max(1.0);
                    let target = self.w_cubic(self.t_s + rtt);
                    if self.w_cubic(self.t_s) < self.w_est {
                        // TCP-friendly region: track the Reno estimate.
                        self.cwnd = self.cwnd.max(self.w_est);
                    } else {
                        // Concave/convex cubic growth toward the target.
                        let step = (target - self.cwnd).max(0.0) / self.cwnd.max(1.0);
                        self.cwnd += step * a;
                    }
                }
            }
            Phase::FastRecovery => {
                // Callers exit fast recovery explicitly.
            }
        }
        self.clamp();
    }

    fn enter_fast_recovery(&mut self, _flight: u64) {
        // Fast convergence (RFC 8312 §4.6): when the loss point is lower
        // than last time, release extra bandwidth for newcomers.
        let w = self.cwnd;
        self.w_max = if w < self.w_max {
            w * (2.0 - BETA) / 2.0
        } else {
            w
        };
        self.ssthresh = (w * BETA).max(2.0);
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
            self.start_epoch();
        }
    }

    fn on_partial_ack(&mut self, acked: u64) {
        if self.phase == Phase::FastRecovery {
            self.cwnd = (self.cwnd - acked as f64 + 1.0).max(1.0);
        }
    }

    fn on_timeout(&mut self, _flight: u64) {
        let w = self.cwnd;
        self.w_max = if w < self.w_max {
            w * (2.0 - BETA) / 2.0
        } else {
            w
        };
        self.ssthresh = (w * BETA).max(2.0);
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

    #[cfg(any(debug_assertions, test))]
    fn assert_invariants(&self) {
        assert!(
            self.cwnd.is_finite() && self.cwnd >= 1.0,
            "cubic cwnd invariant violated: cwnd = {}",
            self.cwnd,
        );
        assert!(
            self.ssthresh.is_finite() && self.ssthresh >= 1.0,
            "cubic ssthresh invariant violated: ssthresh = {}",
            self.ssthresh,
        );
        assert!(
            self.w_max.is_finite() && self.w_max >= 0.0 && self.k.is_finite(),
            "cubic epoch state invariant violated: w_max = {}, k = {}",
            self.w_max,
            self.k,
        );
        let ceiling = self.w_m.max(1.0) * 3.0 + 4.0;
        assert!(
            self.cwnd <= ceiling,
            "cubic cwnd {} escaped its {} ceiling",
            self.cwnd,
            ceiling
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grown(w_m: u32) -> Cubic {
        let mut c = Cubic::new(w_m);
        c.observe_rtt(0.05);
        for _ in 0..40 {
            c.on_new_ack(1);
        }
        c
    }

    #[test]
    fn slow_start_matches_reno() {
        let mut c = Cubic::new(64);
        assert_eq!(c.window(), 1);
        c.on_new_ack(1);
        c.on_new_ack(1);
        c.on_new_ack(1);
        assert_eq!(c.window(), 4, "byte-counting slow start");
    }

    #[test]
    fn beta_cut_is_gentler_than_reno() {
        let mut c = grown(64);
        let w = c.cwnd();
        c.enter_fast_recovery(w as u64);
        assert!((c.ssthresh() - (w * 0.7).max(2.0)).abs() < 1e-12, "0.7 cut");
        c.exit_fast_recovery();
        assert_eq!(c.phase(), Phase::CongestionAvoidance);
    }

    #[test]
    fn growth_plateaus_near_w_max_then_probes() {
        // Big pipe so the cubic term dominates the TCP-friendly floor:
        // slow-start to ~300, lose, and watch the epoch's growth curve.
        let mut c = Cubic::new(300);
        c.observe_rtt(0.05);
        while c.phase() == Phase::SlowStart {
            c.on_new_ack(1);
        }
        c.enter_fast_recovery(c.cwnd() as u64);
        c.exit_fast_recovery();
        let w_max = c.w_max;
        // Per-round (one RTT ≈ cwnd ACKs) window gains across the epoch.
        let mut gains = Vec::new();
        let mut cwnds = Vec::new();
        for _ in 0..200 {
            let before = c.cwnd();
            for _ in 0..before as u32 {
                c.on_new_ack(1);
            }
            gains.push(c.cwnd() - before);
            cwnds.push(before);
        }
        let (min_idx, min_gain) = gains
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, g)| (i, *g))
            .unwrap();
        assert!(
            (cwnds[min_idx] - w_max).abs() < 0.15 * w_max,
            "slowest growth must sit near the loss point: cwnd {} vs w_max {}",
            cwnds[min_idx],
            w_max
        );
        assert!(
            gains[0] > min_gain && *gains.last().unwrap() > min_gain,
            "concave-then-convex: first {} min {} last {}",
            gains[0],
            min_gain,
            gains.last().unwrap()
        );
    }

    #[test]
    fn fast_convergence_lowers_w_max_on_consecutive_losses() {
        let mut c = grown(64);
        c.enter_fast_recovery(c.window());
        c.exit_fast_recovery();
        let w_max_1 = c.w_max;
        c.enter_fast_recovery(c.window());
        assert!(
            c.w_max < w_max_1,
            "second (lower) loss point must shrink w_max: {} -> {}",
            w_max_1,
            c.w_max
        );
    }

    #[test]
    fn timeout_collapses_to_one() {
        let mut c = grown(64);
        c.on_timeout(20);
        assert_eq!(c.window(), 1);
        assert_eq!(c.phase(), Phase::SlowStart);
        c.assert_invariants();
    }

    #[test]
    fn deterministic_event_stream() {
        let run = || {
            let mut c = Cubic::new(48);
            c.observe_rtt(0.08);
            for i in 0..500u64 {
                c.on_new_ack(1 + i % 2);
                if i % 97 == 0 {
                    c.enter_fast_recovery(c.window());
                    c.on_dup_ack_in_recovery();
                    c.exit_fast_recovery();
                }
            }
            c.cwnd()
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }
}
