//! Pluggable congestion control.
//!
//! The sender drives its window through the [`CongestionControl`] trait,
//! so the loss-based Reno family (with the Veno variant — [`Cwnd`], whose
//! trait impl in [`crate::cwnd`] is its whole method surface), [`Cubic`]
//! (RFC 8312), the model-based [`Bbr`] sender and the hybrid loss/delay
//! [`Compound`] controller are interchangeable: every
//! [`crate::reno::RenoSender`] feature — NewReno partial ACKs, spurious-RTO
//! undo, redundant backup-path retransmission — composes with every
//! controller.
//!
//! The trait deliberately mirrors the event vocabulary of the Reno state
//! machine (new ACK, third duplicate ACK, duplicate ACK during recovery,
//! partial ACK, timeout) rather than a rate/pacing abstraction: the
//! paper's measurement methodology is defined in terms of those events,
//! and every controller — even BBR, which internally reasons about rates
//! — must keep the [`Phase`] machine honest so the sender's recovery
//! bookkeeping (and the analyzer downstream) keeps working unchanged.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cwnd::{Cwnd, Phase};

mod bbr;
mod compound;
mod cubic;

pub use bbr::Bbr;
pub use compound::Compound;
pub use cubic::Cubic;

/// A congestion controller driven by the sender's ACK/loss/timeout events.
///
/// Implementations own the full window state machine: they must keep
/// [`CongestionControl::phase`] consistent with the calls they receive
/// (`enter_fast_recovery` ⇒ [`Phase::FastRecovery`] until
/// `exit_fast_recovery`, `on_timeout` ⇒ [`Phase::SlowStart`]), because the
/// sender branches on the phase to decide between recovery bookkeeping and
/// normal window growth.
pub trait CongestionControl: fmt::Debug + Send {
    /// Feeds a clean (Karn-filtered) RTT observation, seconds.
    fn observe_rtt(&mut self, rtt_s: f64);

    /// An ACK advanced the cumulative point by `acked` segments outside
    /// fast recovery.
    fn on_new_ack(&mut self, acked: u64);

    /// Third duplicate ACK: cut the window and enter fast recovery.
    /// `flight` is the outstanding data in segments.
    fn enter_fast_recovery(&mut self, flight: u64);

    /// A further duplicate ACK while in fast recovery (window inflation).
    fn on_dup_ack_in_recovery(&mut self);

    /// An ACK for new data ended fast recovery (window deflation).
    fn exit_fast_recovery(&mut self);

    /// NewReno partial ACK: deflate but stay in fast recovery.
    fn on_partial_ack(&mut self, acked: u64);

    /// Retransmission timeout. `flight` is outstanding data in segments.
    fn on_timeout(&mut self, flight: u64);

    /// The effective send window in whole segments:
    /// `max(1, floor(min(cwnd, W_m)))`.
    fn window(&self) -> u64;

    /// The raw (fractional, uncapped) congestion window in segments —
    /// for controllers with several components, their sum.
    fn cwnd(&self) -> f64;

    /// The current slow-start threshold (or the controller's nearest
    /// equivalent — every implementation must keep it finite and ≥ 1).
    fn ssthresh(&self) -> f64;

    /// The congestion phase, as defined by the Reno event vocabulary.
    fn phase(&self) -> Phase;

    /// True when the advertised window is the binding constraint.
    fn window_limited(&self) -> bool;

    /// Stable display name ("Reno", "Cubic", …).
    fn name(&self) -> &'static str;

    /// Clones the controller state (used by the F-RTO spurious-RTO undo,
    /// which snapshots the pre-collapse window).
    fn clone_box(&self) -> Box<dyn CongestionControl>;

    /// Checks the controller's structural invariants (window ≥ 1 segment,
    /// bounded by its ceiling, all state finite).
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    #[cfg(any(debug_assertions, test))]
    fn assert_invariants(&self);
}

/// Which congestion-control algorithm shapes the window.
///
/// This is pure *configuration* — a serializable label with parameters
/// that flows through `SenderConfig`, scenario configs and campaign cache
/// keys; [`Algorithm::build`] turns it into a live [`CongestionControl`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Algorithm {
    /// Classic Reno (the paper's modelling target).
    #[default]
    Reno,
    /// TCP Veno (Fu et al., cited by the paper): estimates the router
    /// backlog `N = cwnd·(RTT − baseRTT)/RTT`; a loss with `N < beta` is
    /// deemed *random* (wireless) and the window is only reduced by 1/5,
    /// and congestion-avoidance growth slows to every other ACK once the
    /// backlog builds up.
    Veno {
        /// Backlog threshold distinguishing random from congestive loss
        /// (Veno's default is 3 packets).
        beta: f64,
    },
    /// CUBIC (RFC 8312): window growth is a cubic function of the time
    /// since the last reduction, with fast convergence and a
    /// TCP-friendly region.
    Cubic {
        /// Cubic scaling constant `C` (RFC 8312 default 0.4).
        c: f64,
        /// Multiplicative decrease factor `β` (RFC 8312 default 0.7).
        beta: f64,
    },
    /// A BBR-style model-based sender: windowed max-bandwidth and
    /// min-RTT estimates set the window to a gain-cycled BDP through a
    /// simple STARTUP/PROBE_BW state machine.
    Bbr,
    /// Compound TCP (Tan et al.): a scalable delay window `dwnd` grows
    /// alongside the loss-based `cwnd` while queueing delay stays below
    /// `gamma`, and drains when queues build.
    Compound {
        /// Delay-window growth gain `α` (default 1/8).
        alpha: f64,
        /// Multiplicative decrease factor `β` (default 1/2).
        beta: f64,
        /// Delay-window growth exponent `k` (default 3/4).
        k: f64,
        /// Queue backlog threshold `γ`, packets (default 30).
        gamma: f64,
    },
}

impl Algorithm {
    /// Veno with its standard `beta = 3`.
    pub fn veno() -> Algorithm {
        Algorithm::Veno { beta: 3.0 }
    }

    /// CUBIC with the RFC 8312 constants (`C = 0.4`, `β = 0.7`).
    pub fn cubic() -> Algorithm {
        Algorithm::Cubic { c: 0.4, beta: 0.7 }
    }

    /// Compound with the published defaults
    /// (`α = 1/8`, `β = 1/2`, `k = 3/4`, `γ = 30`).
    pub fn compound() -> Algorithm {
        Algorithm::Compound {
            alpha: 0.125,
            beta: 0.5,
            k: 0.75,
            gamma: 30.0,
        }
    }

    /// Every member of the congestion-control zoo at its defaults, in
    /// study order.
    pub fn zoo() -> [Algorithm; 5] {
        [
            Algorithm::Reno,
            Algorithm::veno(),
            Algorithm::cubic(),
            Algorithm::Bbr,
            Algorithm::compound(),
        ]
    }

    /// Stable display label of the variant.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Reno => "Reno",
            Algorithm::Veno { .. } => "Veno",
            Algorithm::Cubic { .. } => "Cubic",
            Algorithm::Bbr => "Bbr",
            Algorithm::Compound { .. } => "Compound",
        }
    }

    /// Instantiates the live controller for this configuration.
    ///
    /// # Panics
    ///
    /// Panics if `w_m` is zero.
    pub fn build(&self, w_m: u32) -> Box<dyn CongestionControl> {
        match *self {
            Algorithm::Reno | Algorithm::Veno { .. } => Box::new(Cwnd::with_algorithm(w_m, *self)),
            Algorithm::Cubic { c, beta } => Box::new(Cubic::new(w_m, c, beta)),
            Algorithm::Bbr => Box::new(Bbr::new(w_m)),
            Algorithm::Compound {
                alpha,
                beta,
                k,
                gamma,
            } => Box::new(Compound::new(w_m, alpha, beta, k, gamma)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dispatches_every_variant() {
        for algo in Algorithm::zoo() {
            let cc = algo.build(48);
            assert_eq!(cc.name(), algo.label());
            assert_eq!(cc.window(), 1, "{}: initial window", cc.name());
            assert_eq!(cc.phase(), Phase::SlowStart);
        }
    }

    #[test]
    fn zoo_members_serialize_with_external_tags() {
        let json = |a: &Algorithm| serde_json::to_string(a).unwrap();
        assert_eq!(json(&Algorithm::Reno), "\"Reno\"");
        assert_eq!(json(&Algorithm::Bbr), "\"Bbr\"");
        assert_eq!(json(&Algorithm::veno()), "{\"Veno\":{\"beta\":3.0}}");
        assert_eq!(
            json(&Algorithm::cubic()),
            "{\"Cubic\":{\"c\":0.4,\"beta\":0.7}}"
        );
        assert_eq!(
            json(&Algorithm::compound()),
            "{\"Compound\":{\"alpha\":0.125,\"beta\":0.5,\"k\":0.75,\"gamma\":30.0}}"
        );
        for algo in Algorithm::zoo() {
            let back: Algorithm = serde_json::from_str(&json(&algo)).unwrap();
            assert_eq!(back, algo, "round trip");
        }
    }

    #[test]
    fn clone_box_preserves_state() {
        for algo in Algorithm::zoo() {
            let mut cc = algo.build(32);
            for _ in 0..10 {
                cc.on_new_ack(1);
            }
            cc.observe_rtt(0.05);
            let snap = cc.clone_box();
            assert_eq!(snap.cwnd(), cc.cwnd(), "{}", cc.name());
            assert_eq!(snap.window(), cc.window());
            assert_eq!(snap.phase(), cc.phase());
        }
    }

    #[test]
    fn every_controller_honors_the_phase_contract() {
        for algo in Algorithm::zoo() {
            let mut cc = algo.build(48);
            for _ in 0..30 {
                cc.on_new_ack(1);
                cc.assert_invariants();
            }
            cc.observe_rtt(0.05);
            cc.enter_fast_recovery(20);
            assert_eq!(cc.phase(), Phase::FastRecovery, "{}", cc.name());
            cc.on_dup_ack_in_recovery();
            cc.on_partial_ack(3);
            assert_eq!(cc.phase(), Phase::FastRecovery, "{}", cc.name());
            cc.assert_invariants();
            cc.exit_fast_recovery();
            assert_ne!(cc.phase(), Phase::FastRecovery, "{}", cc.name());
            cc.on_timeout(16);
            assert_eq!(cc.phase(), Phase::SlowStart, "{}", cc.name());
            assert_eq!(cc.window(), 1, "{}: timeout collapses to 1", cc.name());
            cc.assert_invariants();
        }
    }

    #[test]
    fn loss_cuts_reduce_the_window() {
        for algo in Algorithm::zoo() {
            let mut cc = algo.build(64);
            for _ in 0..40 {
                cc.on_new_ack(1);
            }
            cc.observe_rtt(0.05);
            let before = cc.window();
            cc.enter_fast_recovery(before);
            cc.exit_fast_recovery();
            // Every controller must at least not grow through a loss; the
            // loss-based ones must actually cut. BBR is exempt from the
            // strict cut: it deliberately restores its model target.
            assert!(
                cc.window() <= before,
                "{}: {} -> {} grew through a loss",
                cc.name(),
                before,
                cc.window()
            );
            if !matches!(algo, Algorithm::Bbr) {
                assert!(
                    cc.window() < before || before == 1,
                    "{}: {} -> {} after loss",
                    cc.name(),
                    before,
                    cc.window()
                );
            }
        }
    }
}
