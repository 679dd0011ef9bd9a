//! Compound TCP (Tan et al., INFOCOM 2006).
//!
//! Compound adds a scalable *delay window* `dwnd` on top of the standard
//! loss-based `cwnd`; the send window is their sum. While the Vegas-style
//! backlog estimate `diff = win·(RTT − baseRTT)/RTT` stays below the
//! threshold `γ` the path is considered underutilized and `dwnd` grows
//! binomially (`α·win^k` per RTT); once queueing builds, `dwnd` drains
//! gracefully and Compound degenerates to Reno. Under pure random loss —
//! the paper's high-speed-mobility regime — queues never build, so the
//! delay window stays open and Compound recovers lost throughput much
//! like Veno, but with scalable growth. Poojary & Sharma's closed-form
//! Compound approximation under random loss is the model-side reference.
//!
//! Per-RTT update rules are amortized per ACK (divide by the current
//! window), keeping the controller a pure function of its event stream.

use crate::cwnd::{send_window, Phase};

use super::CongestionControl;

/// Delay-window growth gain `α` (Tan et al.).
pub(super) const ALPHA: f64 = 0.125;
/// Multiplicative decrease factor `β`.
pub(super) const BETA: f64 = 0.5;
/// Delay-window growth exponent `k`.
pub(super) const K: f64 = 0.75;
/// Backlog threshold `γ`, packets.
pub(super) const GAMMA: f64 = 30.0;

/// The Compound TCP controller.
#[derive(Debug, Clone, Copy)]
pub struct Compound {
    /// Loss-based (Reno) component.
    cwnd: f64,
    /// Delay-based component.
    dwnd: f64,
    ssthresh: f64,
    phase: Phase,
    w_m: f64,
    base_rtt_s: f64,
    last_rtt_s: f64,
}

impl Compound {
    /// Creates a Compound controller with initial window 1, at the
    /// published constants `α = 1/8`, `β = 1/2`, `k = 3/4`, `γ = 30`.
    ///
    /// # Panics
    ///
    /// Panics if `w_m` is zero.
    pub fn new(w_m: u32) -> Compound {
        assert!(w_m > 0, "advertised window must be positive");
        Compound {
            cwnd: 1.0,
            dwnd: 0.0,
            ssthresh: f64::from(w_m),
            phase: Phase::SlowStart,
            w_m: f64::from(w_m),
            base_rtt_s: f64::INFINITY,
            last_rtt_s: f64::INFINITY,
        }
    }

    /// The combined window `cwnd + dwnd`, fractional segments.
    fn win(&self) -> f64 {
        self.cwnd + self.dwnd
    }

    /// Vegas-style backlog estimate `diff`, when RTT data is available.
    fn diff(&self) -> Option<f64> {
        if self.base_rtt_s.is_finite() && self.last_rtt_s.is_finite() && self.last_rtt_s > 0.0 {
            Some(self.win() * (self.last_rtt_s - self.base_rtt_s) / self.last_rtt_s)
        } else {
            None
        }
    }

    /// Keeps the combined window under its `2·W_m` ceiling, draining the
    /// delay component first.
    fn clamp(&mut self) {
        let ceiling = self.w_m.max(1.0) * 2.0;
        if self.win() > ceiling {
            self.dwnd = (ceiling - self.cwnd).max(0.0);
            self.cwnd = self.cwnd.min(ceiling);
        }
    }
}

impl CongestionControl for Compound {
    fn observe_rtt(&mut self, rtt_s: f64) {
        if rtt_s > 0.0 && rtt_s.is_finite() {
            self.base_rtt_s = self.base_rtt_s.min(rtt_s);
            self.last_rtt_s = rtt_s;
        }
    }

    fn on_new_ack(&mut self, acked: u64) {
        match self.phase {
            Phase::SlowStart => {
                self.cwnd += acked as f64;
                if self.win() >= self.ssthresh {
                    self.phase = Phase::CongestionAvoidance;
                }
            }
            Phase::CongestionAvoidance => {
                let w = self.win().max(1.0);
                // Loss-based component: standard Reno additive increase
                // over the *combined* window.
                self.cwnd += 1.0 / w;
                // Delay-based component, per-RTT rules amortized per ACK:
                // grow α·win^k while the queue is empty, drain by the
                // backlog estimate once it builds.
                match self.diff() {
                    Some(d) if d >= GAMMA => {
                        self.dwnd = (self.dwnd - d / w).max(0.0);
                    }
                    _ => {
                        self.dwnd += (ALPHA * w.powf(K) - 1.0).max(0.0) / w;
                    }
                }
            }
            Phase::FastRecovery => {
                // Callers exit fast recovery explicitly.
            }
        }
        self.clamp();
    }

    fn enter_fast_recovery(&mut self, flight: u64) {
        // The combined window takes the standard β cut; the delay window
        // is halved outright (Tan et al. §III-C with β = 1/2 gives
        // dwnd' = win·(1−β) − cwnd/2 = dwnd/2).
        self.ssthresh = (flight as f64 * (1.0 - BETA)).max(2.0);
        self.dwnd *= 1.0 - BETA;
        self.cwnd = (self.ssthresh - self.dwnd).max(1.0) + 3.0;
        self.phase = Phase::FastRecovery;
    }

    fn on_dup_ack_in_recovery(&mut self) {
        if self.phase == Phase::FastRecovery {
            self.cwnd += 1.0;
        }
    }

    fn exit_fast_recovery(&mut self) {
        if self.phase == Phase::FastRecovery {
            self.cwnd = (self.ssthresh - self.dwnd).max(1.0);
            self.phase = Phase::CongestionAvoidance;
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
        self.dwnd = 0.0;
        self.phase = Phase::SlowStart;
    }

    fn window(&self) -> u64 {
        send_window(self.win(), self.w_m)
    }

    fn cwnd(&self) -> f64 {
        self.win()
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn phase(&self) -> Phase {
        self.phase
    }

    fn window_limited(&self) -> bool {
        self.win() >= self.w_m
    }

    fn clone_box(&self) -> Box<dyn CongestionControl> {
        Box::new(*self)
    }

    #[cfg(any(debug_assertions, test))]
    fn assert_invariants(&self) {
        assert!(
            self.cwnd.is_finite() && self.cwnd >= 1.0,
            "compound cwnd invariant violated: cwnd = {}",
            self.cwnd,
        );
        assert!(
            self.dwnd.is_finite() && self.dwnd >= 0.0,
            "compound dwnd invariant violated: dwnd = {}",
            self.dwnd,
        );
        assert!(
            self.ssthresh.is_finite() && self.ssthresh >= 1.0,
            "compound ssthresh invariant violated: ssthresh = {}",
            self.ssthresh,
        );
        let ceiling = self.w_m.max(1.0) * 3.0 + 4.0;
        assert!(
            self.win() <= ceiling,
            "compound window {} escaped its {} ceiling",
            self.win(),
            ceiling
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_matches_reno() {
        let mut c = Compound::new(64);
        assert_eq!(c.window(), 1);
        c.on_new_ack(1);
        c.on_new_ack(1);
        c.on_new_ack(1);
        assert_eq!(c.window(), 4);
        assert_eq!(c.dwnd, 0.0, "no delay window during slow start");
    }

    #[test]
    fn empty_queue_opens_the_delay_window() {
        let mut c = Compound::new(256);
        c.on_timeout(64); // ssthresh 32, restart
        c.observe_rtt(0.05);
        c.observe_rtt(0.05); // RTT at base: queue empty
        for _ in 0..200 {
            c.on_new_ack(1);
        }
        assert!(c.dwnd > 1.0, "dwnd {} must open while diff < gamma", c.dwnd);
        assert!(
            c.cwnd() > 32.0 + 200.0 / 64.0,
            "combined growth {} must outpace pure Reno",
            c.cwnd()
        );
    }

    #[test]
    fn queue_buildup_drains_the_delay_window() {
        let mut c = Compound::new(256);
        c.on_timeout(64);
        c.observe_rtt(0.05);
        for _ in 0..200 {
            c.on_new_ack(1);
        }
        let opened = c.dwnd;
        assert!(opened > 1.0);
        // Heavy queueing: diff = win·(0.25−0.05)/0.25 = 0.8·win ≫ γ only
        // once the window is large; scale RTT so it clearly exceeds γ.
        c.observe_rtt(0.25);
        for _ in 0..300 {
            c.on_new_ack(1);
        }
        assert!(
            c.dwnd < opened,
            "dwnd must drain under backlog: {} -> {}",
            opened,
            c.dwnd
        );
    }

    #[test]
    fn loss_halves_the_combined_window() {
        let mut c = Compound::new(256);
        c.on_timeout(64);
        c.observe_rtt(0.05);
        for _ in 0..200 {
            c.on_new_ack(1);
        }
        let flight = c.window();
        c.enter_fast_recovery(flight);
        assert_eq!(c.phase(), Phase::FastRecovery);
        assert!((c.ssthresh() - (flight as f64 * 0.5).max(2.0)).abs() < 1e-12);
        c.exit_fast_recovery();
        assert!(
            (c.cwnd() - c.ssthresh()).abs() < 1e-12,
            "combined window deflates to ssthresh"
        );
        c.assert_invariants();
    }

    #[test]
    fn timeout_clears_both_components() {
        let mut c = Compound::new(64);
        c.observe_rtt(0.05);
        for _ in 0..100 {
            c.on_new_ack(1);
        }
        c.on_timeout(20);
        assert_eq!(c.window(), 1);
        assert_eq!(c.dwnd, 0.0);
        assert_eq!(c.phase(), Phase::SlowStart);
    }

    #[test]
    fn deterministic_event_stream() {
        let run = || {
            let mut c = Compound::new(48);
            c.observe_rtt(0.06);
            for i in 0..500u64 {
                c.on_new_ack(1);
                if i % 89 == 0 {
                    c.observe_rtt(0.06 + (i % 3) as f64 * 0.01);
                    c.enter_fast_recovery(c.window());
                    c.on_partial_ack(2);
                    c.exit_fast_recovery();
                }
            }
            c.cwnd()
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }
}
