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

    /// Clones the controller state (used by the sender's spurious-timeout
    /// undo, which snapshots the pre-collapse window).
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
/// This is pure *configuration* — a serializable label that flows
/// through `SenderConfig`, scenario configs and campaign cache keys;
/// [`Algorithm::build`] turns it into a live [`CongestionControl`]. Each
/// controller runs at its published constants ([`Algorithm::constants`]),
/// so a label names exactly one controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Algorithm {
    /// Classic Reno (the paper's modelling target).
    #[default]
    Reno,
    /// TCP Veno (Fu et al., cited by the paper): estimates the router
    /// backlog `N = cwnd·(RTT − baseRTT)/RTT`; a loss with `N < β = 3`
    /// packets is deemed *random* (wireless) and the window is only
    /// reduced by 1/5, and congestion-avoidance growth slows to every
    /// other ACK once the backlog builds up.
    Veno,
    /// CUBIC (RFC 8312, `C = 0.4`, `β = 0.7`): window growth is a cubic
    /// function of the time since the last reduction, with fast
    /// convergence and a TCP-friendly region.
    Cubic,
    /// A BBR-style model-based sender: windowed max-bandwidth and
    /// min-RTT estimates set the window to a gain-cycled BDP through a
    /// simple STARTUP/PROBE_BW state machine.
    Bbr,
    /// Compound TCP (Tan et al., `α = 1/8`, `β = 1/2`, `k = 3/4`,
    /// `γ = 30`): a scalable delay window `dwnd` grows alongside the
    /// loss-based `cwnd` while queueing delay stays below `γ` packets,
    /// and drains when queues build.
    Compound,
}

impl Algorithm {
    /// Every member of the congestion-control zoo, in study order.
    pub fn zoo() -> [Algorithm; 5] {
        [
            Algorithm::Reno,
            Algorithm::Veno,
            Algorithm::Cubic,
            Algorithm::Bbr,
            Algorithm::Compound,
        ]
    }

    /// Stable display label of the variant.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Reno => "Reno",
            Algorithm::Veno => "Veno",
            Algorithm::Cubic => "Cubic",
            Algorithm::Bbr => "Bbr",
            Algorithm::Compound => "Compound",
        }
    }

    /// The published constants the controller runs at, in the order the
    /// flow identity hashes them: Veno's `β`; CUBIC's `C`, `β`;
    /// Compound's `α`, `β`, `k`, `γ`. Reno and BBR have none.
    pub fn constants(&self) -> &'static [f64] {
        match self {
            Algorithm::Reno | Algorithm::Bbr => &[],
            Algorithm::Veno => &[crate::cwnd::VENO_BETA],
            Algorithm::Cubic => &[cubic::C, cubic::BETA],
            Algorithm::Compound => &[
                compound::ALPHA,
                compound::BETA,
                compound::K,
                compound::GAMMA,
            ],
        }
    }

    /// Instantiates the live controller for this configuration.
    ///
    /// # Panics
    ///
    /// Panics if `w_m` is zero.
    pub fn build(&self, w_m: u32) -> Box<dyn CongestionControl> {
        match *self {
            Algorithm::Reno | Algorithm::Veno => Box::new(Cwnd::with_algorithm(w_m, *self)),
            Algorithm::Cubic => Box::new(Cubic::new(w_m)),
            Algorithm::Bbr => Box::new(Bbr::new(w_m)),
            Algorithm::Compound => Box::new(Compound::new(w_m)),
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
            assert_eq!(cc.window(), 1, "{}: initial window", algo.label());
            assert_eq!(cc.phase(), Phase::SlowStart);
        }
    }

    #[test]
    fn zoo_members_serialize_as_their_labels() {
        for algo in Algorithm::zoo() {
            let json = serde_json::to_string(&algo).unwrap();
            assert_eq!(json, format!("\"{}\"", algo.label()));
            let back: Algorithm = serde_json::from_str(&json).unwrap();
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
            assert_eq!(snap.cwnd(), cc.cwnd(), "{}", algo.label());
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
            assert_eq!(cc.phase(), Phase::FastRecovery, "{}", algo.label());
            cc.on_dup_ack_in_recovery();
            cc.on_partial_ack(3);
            assert_eq!(cc.phase(), Phase::FastRecovery, "{}", algo.label());
            cc.assert_invariants();
            cc.exit_fast_recovery();
            assert_ne!(cc.phase(), Phase::FastRecovery, "{}", algo.label());
            cc.on_timeout(16);
            assert_eq!(cc.phase(), Phase::SlowStart, "{}", algo.label());
            assert_eq!(cc.window(), 1, "{}: timeout collapses to 1", algo.label());
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
                algo.label(),
                before,
                cc.window()
            );
            if !matches!(algo, Algorithm::Bbr) {
                assert!(
                    cc.window() < before || before == 1,
                    "{}: {} -> {} after loss",
                    algo.label(),
                    before,
                    cc.window()
                );
            }
        }
    }
}
