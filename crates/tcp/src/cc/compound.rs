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
//! The loss-based component is the machine's own window
//! ([`crate::cwnd::Cwnd`]); this law holds the delay component.

use crate::cwnd::Backlog;

/// Delay-window growth gain `α` (Tan et al.).
pub(super) const ALPHA: f64 = 0.125;
/// Multiplicative decrease factor `β`.
pub(super) const BETA: f64 = 0.5;
/// Delay-window growth exponent `k`.
pub(super) const K: f64 = 0.75;
/// Backlog threshold `γ`, packets.
pub(super) const GAMMA: f64 = 30.0;

/// Compound's law: the delay window and the RTTs that steer it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DelayWindow {
    /// Delay-based component, segments.
    pub(crate) dwnd: f64,
    backlog: Backlog,
}

impl DelayWindow {
    pub(crate) const NEW: DelayWindow = DelayWindow {
        dwnd: 0.0,
        backlog: Backlog::NEW,
    };

    pub(crate) fn observe_rtt(&mut self, rtt_s: f64) {
        self.backlog.observe(rtt_s);
    }

    /// One ACK in congestion avoidance; `cwnd` is the loss-based component.
    pub(crate) fn grow(&mut self, cwnd: &mut f64) {
        let w = (*cwnd + self.dwnd).max(1.0);
        // Loss-based component: standard Reno additive increase over the
        // *combined* window.
        *cwnd += 1.0 / w;
        // Delay-based component, per-RTT rules amortized per ACK: grow
        // α·win^k while the queue is empty, drain by the backlog estimate
        // once it builds.
        match self.backlog.estimate(*cwnd + self.dwnd) {
            Some(d) if d >= GAMMA => {
                self.dwnd = (self.dwnd - d / w).max(0.0);
            }
            _ => {
                self.dwnd += (ALPHA * w.powf(K) - 1.0).max(0.0) / w;
            }
        }
    }

    /// Keeps the combined window under `ceiling` by draining the delay
    /// component first; the machine then caps `cwnd` itself.
    pub(crate) fn clamp(&mut self, cwnd: f64, ceiling: f64) {
        if cwnd + self.dwnd > ceiling {
            self.dwnd = (ceiling - cwnd).max(0.0);
        }
    }

    /// The loss cut: the combined window takes the standard β cut and the
    /// delay window is halved outright (Tan et al. §III-C with β = 1/2
    /// gives dwnd' = win·(1−β) − cwnd/2 = dwnd/2). Returns the new
    /// `ssthresh` and the loss-based window before fast-retransmit
    /// inflation.
    pub(crate) fn cut(&mut self, flight: u64) -> (f64, f64) {
        let ssthresh = (flight as f64 * (1.0 - BETA)).max(2.0);
        self.dwnd *= 1.0 - BETA;
        (ssthresh, self.exit_window(ssthresh))
    }

    /// The loss-based window that makes the combined window `ssthresh`.
    pub(crate) fn exit_window(&self, ssthresh: f64) -> f64 {
        (ssthresh - self.dwnd).max(1.0)
    }

    #[cfg(any(debug_assertions, test))]
    pub(crate) fn assert_invariants(&self) {
        assert!(
            self.dwnd.is_finite() && self.dwnd >= 0.0,
            "compound dwnd invariant violated: dwnd = {}",
            self.dwnd,
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::cc::Algorithm;
    use crate::cwnd::{Cwnd, Phase};

    fn compound(w_m: u32) -> Cwnd {
        Cwnd::new(w_m, Algorithm::Compound)
    }

    #[test]
    fn slow_start_matches_reno() {
        let mut c = compound(64);
        assert_eq!(c.window(), 1);
        c.on_new_ack(1);
        c.on_new_ack(1);
        c.on_new_ack(1);
        assert_eq!(c.window(), 4);
        assert_eq!(c.compound().dwnd, 0.0, "no delay window during slow start");
    }

    #[test]
    fn empty_queue_opens_the_delay_window() {
        let mut c = compound(256);
        c.on_timeout(64); // ssthresh 32, restart
        c.observe_rtt(0.05);
        c.observe_rtt(0.05); // RTT at base: queue empty
        for _ in 0..200 {
            c.on_new_ack(1);
        }
        assert!(
            c.compound().dwnd > 1.0,
            "dwnd {} must open while diff < gamma",
            c.compound().dwnd
        );
        assert!(
            c.cwnd() > 32.0 + 200.0 / 64.0,
            "combined growth {} must outpace pure Reno",
            c.cwnd()
        );
    }

    #[test]
    fn queue_buildup_drains_the_delay_window() {
        let mut c = compound(256);
        c.on_timeout(64);
        c.observe_rtt(0.05);
        for _ in 0..200 {
            c.on_new_ack(1);
        }
        let opened = c.compound().dwnd;
        assert!(opened > 1.0);
        // Heavy queueing: diff = win·(0.25−0.05)/0.25 = 0.8·win ≫ γ only
        // once the window is large; scale RTT so it clearly exceeds γ.
        c.observe_rtt(0.25);
        for _ in 0..300 {
            c.on_new_ack(1);
        }
        assert!(
            c.compound().dwnd < opened,
            "dwnd must drain under backlog: {} -> {}",
            opened,
            c.compound().dwnd
        );
    }

    #[test]
    fn loss_halves_the_combined_window() {
        let mut c = compound(256);
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
        let mut c = compound(64);
        c.observe_rtt(0.05);
        for _ in 0..100 {
            c.on_new_ack(1);
        }
        c.on_timeout(20);
        assert_eq!(c.window(), 1);
        assert_eq!(c.compound().dwnd, 0.0);
        assert_eq!(c.phase(), Phase::SlowStart);
    }
}
