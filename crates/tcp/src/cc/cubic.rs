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

/// Cubic scaling constant `C` (RFC 8312).
pub(super) const C: f64 = 0.4;
/// Multiplicative decrease factor `β` (RFC 8312).
pub(super) const BETA: f64 = 0.7;
/// RFC 8312 TCP-friendly region constant `3·(1−β)/(1+β)`.
const FRIENDLY_GAIN: f64 = 3.0 * (1.0 - BETA) / (1.0 + BETA);

/// CUBIC's law: the growth epoch since the last reduction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Epoch {
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

impl Epoch {
    pub(crate) const NEW: Epoch = Epoch {
        w_max: 0.0,
        k: 0.0,
        t_s: 0.0,
        w_est: 0.0,
        last_rtt_s: f64::INFINITY,
    };

    pub(crate) fn observe_rtt(&mut self, rtt_s: f64) {
        self.last_rtt_s = rtt_s;
    }

    /// Starts a growth epoch from window `cwnd` (RFC 8312 §4.1).
    pub(crate) fn start(&mut self, cwnd: f64) {
        if self.w_max < cwnd {
            self.w_max = cwnd;
        }
        self.k = ((self.w_max - cwnd).max(0.0) / C).cbrt();
        self.t_s = 0.0;
        self.w_est = cwnd;
    }

    fn w_cubic(&self, t: f64) -> f64 {
        C * (t - self.k).powi(3) + self.w_max
    }

    /// One ACK of `acked` segments in congestion avoidance.
    pub(crate) fn grow(&mut self, cwnd: &mut f64, acked: u64) {
        if !self.last_rtt_s.is_finite() {
            // No RTT sample yet: fall back to Reno-style additive
            // increase rather than inventing a time base.
            *cwnd += 1.0 / cwnd.max(1.0);
            return;
        }
        let rtt = self.last_rtt_s;
        let a = acked as f64;
        // One RTT of virtual time per acknowledged window.
        self.t_s += a * rtt / cwnd.max(1.0);
        // Reno-equivalent AIMD estimate for the friendly region.
        self.w_est += FRIENDLY_GAIN * a / cwnd.max(1.0);
        let target = self.w_cubic(self.t_s + rtt);
        if self.w_cubic(self.t_s) < self.w_est {
            // TCP-friendly region: track the Reno estimate.
            *cwnd = cwnd.max(self.w_est);
        } else {
            // Concave/convex cubic growth toward the target.
            let step = (target - *cwnd).max(0.0) / cwnd.max(1.0);
            *cwnd += step * a;
        }
    }

    /// The reduction at window `cwnd`, on a loss or a timeout: records the
    /// loss point and returns the new `ssthresh`.
    pub(crate) fn cut(&mut self, cwnd: f64) -> f64 {
        // Fast convergence (RFC 8312 §4.6): when the loss point is lower
        // than last time, release extra bandwidth for newcomers.
        self.w_max = if cwnd < self.w_max {
            cwnd * (2.0 - BETA) / 2.0
        } else {
            cwnd
        };
        (cwnd * BETA).max(2.0)
    }

    #[cfg(any(debug_assertions, test))]
    pub(crate) fn assert_invariants(&self) {
        assert!(
            self.w_max.is_finite() && self.w_max >= 0.0 && self.k.is_finite(),
            "cubic epoch state invariant violated: w_max = {}, k = {}",
            self.w_max,
            self.k,
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::cc::Algorithm;
    use crate::cwnd::{Cwnd, Phase};

    fn cubic(w_m: u32) -> Cwnd {
        Cwnd::new(w_m, Algorithm::Cubic)
    }

    fn grown(w_m: u32) -> Cwnd {
        let mut c = cubic(w_m);
        c.observe_rtt(0.05);
        for _ in 0..40 {
            c.on_new_ack(1);
        }
        c
    }

    #[test]
    fn slow_start_matches_reno() {
        let mut c = cubic(64);
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
        let mut c = cubic(300);
        c.observe_rtt(0.05);
        while c.phase() == Phase::SlowStart {
            c.on_new_ack(1);
        }
        c.enter_fast_recovery(c.cwnd() as u64);
        c.exit_fast_recovery();
        let w_max = c.cubic().w_max;
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
        let w_max_1 = c.cubic().w_max;
        c.enter_fast_recovery(c.window());
        assert!(
            c.cubic().w_max < w_max_1,
            "second (lower) loss point must shrink w_max: {} -> {}",
            w_max_1,
            c.cubic().w_max
        );
    }
}
