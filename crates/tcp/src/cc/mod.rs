//! The congestion-control zoo.
//!
//! Every sender runs one window machine, [`crate::cwnd::Cwnd`]: the Reno
//! cycle of slow start, congestion avoidance, fast recovery and timeout,
//! written once. A controller is a law on that cycle — its congestion-
//! avoidance step, its loss cut, its recovery-exit window, its timeout
//! reset and what it reads from RTT samples — chosen by the [`Algorithm`]
//! label: the loss-based Reno family (with the Veno variant, whose law
//! lives in [`crate::cwnd`]), CUBIC (RFC 8312), the model-based BBR
//! sender and the hybrid loss/delay Compound controller, one file each
//! here. Every [`crate::reno::RenoSender`] feature — NewReno partial ACKs,
//! spurious-RTO undo, redundant backup-path retransmission — composes with
//! every controller.
//!
//! The machine speaks the event vocabulary of the Reno state machine (new
//! ACK, third duplicate ACK, duplicate ACK during recovery, partial ACK,
//! timeout) rather than a rate/pacing abstraction: the paper's measurement
//! methodology is defined in terms of those events, and every controller —
//! even BBR, which internally reasons about rates — keeps the
//! [`crate::cwnd::Phase`] machine honest so the sender's recovery
//! bookkeeping (and the analyzer downstream) keeps working unchanged.

use serde::{Deserialize, Serialize};

pub(crate) mod bbr;
pub(crate) mod compound;
pub(crate) mod cubic;

/// Which congestion-control algorithm shapes the window.
///
/// This is pure *configuration* — a serializable label that flows
/// through `SenderConfig`, scenario configs and campaign cache keys;
/// [`Cwnd::new`](crate::cwnd::Cwnd::new) turns it into a live window
/// machine. Each controller runs at its published constants
/// ([`Algorithm::constants`]), so a label names exactly one controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cwnd::{Cwnd, Phase};

    #[test]
    fn every_law_starts_at_one_segment_in_slow_start() {
        for algo in Algorithm::zoo() {
            let cc = Cwnd::new(48, algo);
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
    fn every_controller_honors_the_phase_contract() {
        for algo in Algorithm::zoo() {
            let mut cc = Cwnd::new(48, algo);
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

    /// FNV-1a-64 of every `(cwnd, ssthresh, phase, window)` a controller
    /// passes through on one scripted event tape, in the sender's call
    /// protocol (no `on_new_ack` during fast recovery; a loss or timeout
    /// sees the current window as its flight).
    fn trajectory_hash(algo: Algorithm) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut record = |c: &Cwnd| {
            let phase = c.phase() as u8;
            let words = [c.cwnd().to_bits(), c.ssthresh().to_bits(), c.window()];
            let bytes = words.iter().flat_map(|w| w.to_le_bytes()).chain([phase]);
            for b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        // One round: an RTT sample, then the window acknowledged in
        // delayed-ACK pairs.
        let round = |c: &mut Cwnd, record: &mut dyn FnMut(&Cwnd), rtt_s: f64| {
            c.observe_rtt(rtt_s);
            record(c);
            let mut left = c.window();
            while left > 0 {
                let acked = left.min(2);
                c.on_new_ack(acked);
                record(c);
                left -= acked;
            }
        };
        let loss = |c: &mut Cwnd, record: &mut dyn FnMut(&Cwnd), dups: u32| {
            let flight = c.window();
            c.enter_fast_recovery(flight);
            record(c);
            for _ in 0..dups {
                c.on_dup_ack_in_recovery();
                record(c);
            }
            c.on_partial_ack(3);
            record(c);
            c.on_dup_ack_in_recovery();
            record(c);
            c.exit_fast_recovery();
            record(c);
        };
        let mut c = Cwnd::new(96, algo);
        record(&c);
        // Empty queue: slow start, then Veno's random-loss branch,
        // Compound's open delay window and BBR's STARTUP → PROBE_BW switch
        // and gain cycle.
        for _ in 0..20 {
            round(&mut c, &mut record, 0.050);
        }
        // Queue builds: Veno's congested branch, Compound's γ-drain.
        for _ in 0..8 {
            round(&mut c, &mut record, 0.200);
        }
        loss(&mut c, &mut record, 5);
        for _ in 0..6 {
            round(&mut c, &mut record, 0.050);
        }
        loss(&mut c, &mut record, 4);
        for _ in 0..4 {
            round(&mut c, &mut record, 0.060);
        }
        // A timeout whose snapshot is restored, as a spurious verdict does.
        let snapshot = c;
        let flight = c.window();
        c.on_timeout(flight);
        record(&c);
        for _ in 0..3 {
            round(&mut c, &mut record, 0.050);
        }
        c = snapshot;
        record(&c);
        for _ in 0..3 {
            round(&mut c, &mut record, 0.070);
        }
        // A genuine timeout and the slow start after it.
        let flight = c.window();
        c.on_timeout(flight);
        record(&c);
        for _ in 0..8 {
            round(&mut c, &mut record, 0.050);
        }
        loss(&mut c, &mut record, 2);
        hash
    }

    /// Every controller's whole window trajectory on one tape, bit for bit.
    #[test]
    fn every_controller_trajectory_is_bit_pinned() {
        assert_eq!(
            Algorithm::zoo().map(trajectory_hash),
            [
                0x3083_b08f_8a99_cd6f, // Reno
                0x0f56_2ead_202c_ab71, // Veno
                0x8aa4_7bff_ff64_b17a, // Cubic
                0x47ac_bac7_5f9a_4c04, // Bbr
                0x5618_b02e_8645_6b85, // Compound
            ]
        );
    }

    #[test]
    fn loss_cuts_reduce_the_window() {
        for algo in Algorithm::zoo() {
            let mut cc = Cwnd::new(64, algo);
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
