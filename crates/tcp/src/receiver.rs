//! The TCP receiver: cumulative ACKs, delayed ACKs, reordering buffer and
//! duplicate-payload accounting.
//!
//! The receiver implements the behaviours the paper's analysis leans on:
//!
//! * **Cumulative acknowledgment** — one surviving ACK covers every ACK
//!   lost before it (Fig. 11), which is why only an *ACK burst loss* can
//!   trigger a spurious timeout.
//! * **Delayed ACKs** (RFC 1122) — one ACK per `b` in-order segments, with
//!   a deadline timer; §V-A discusses how larger `b` shrinks the number of
//!   ACKs per round and raises `P_a`.
//! * **Immediate ACKs on out-of-order / duplicate data** (RFC 5681), which
//!   produce the duplicate ACKs fast retransmit needs.
//! * **Duplicate-payload counting** — a segment received twice is the
//!   receiver-side witness of a spurious retransmission.

use crate::metrics::ReceiverMetrics;
use hsm_simnet::engine::Ctx;
use hsm_simnet::event::EventId;
use hsm_simnet::link::LinkId;
use hsm_simnet::packet::{FlowId, Packet, PacketKind, SeqNo};
use hsm_simnet::prelude::Agent;
use hsm_simnet::time::SimDuration;
use std::collections::BTreeSet;

/// Receiver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiverConfig {
    /// Delayed-ACK factor `b`: ACK every `b` in-order segments (1 disables
    /// delaying). Ignored when `adaptive` is set.
    pub b: u32,
    /// TCP-DCA-style adaptive delayed window (Chen et al., cited in §V-A;
    /// the paper leaves its high-speed evaluation as future work — the
    /// `ext_delack` experiment provides it). The window starts at 1, grows
    /// by one per 64 undisturbed in-order segments up to 2, and collapses
    /// back to 1 on any disorder signal (out-of-order or duplicate
    /// payloads — the receiver-visible footprints of loss and spurious
    /// timeouts).
    pub adaptive: bool,
}

impl Default for ReceiverConfig {
    fn default() -> Self {
        // The paper's traces show delayed ACKs in use; b = 2 holds.
        ReceiverConfig {
            b: 2,
            adaptive: false,
        }
    }
}

/// The adaptive window's floor, in force right after any disturbance.
const ADAPTIVE_B_MIN: u32 = 1;
/// The adaptive window's ceiling: the §V-A analysis shows that large
/// delayed windows amplify ACK-burst loss, so it never grows past the
/// standard `b = 2`.
const ADAPTIVE_B_MAX: u32 = 2;
/// Consecutive undisturbed in-order segments per adaptive increment.
const ADAPTIVE_GROW_AFTER: u32 = 64;

const TAG_DELACK: u64 = 100;
/// Deadline after which a pending delayed ACK is sent anyway.
const DELACK_TIMEOUT: SimDuration = SimDuration::from_millis(100);

/// The receiver agent. Wire its `uplink` to the sender after both agents
/// are registered (see `connection`).
#[derive(Debug)]
pub struct Receiver {
    flow: FlowId,
    /// The link carrying ACKs back to the sender. Set by the wiring code.
    pub uplink: LinkId,
    /// Optional backup uplink (MPTCP backup mode, §V-B). ACKs elicited by
    /// retransmitted data are mirrored over it: the backup path duplicates
    /// the whole recovery exchange, not just the data direction — otherwise
    /// a redundantly delivered retransmission still stalls for a full
    /// backoff rung whenever its ACK dies on the impaired primary uplink.
    pub backup_uplink: Option<LinkId>,
    cfg: ReceiverConfig,
    next_expected: SeqNo,
    /// Segments above `next_expected` waiting for the hole to fill. For
    /// `s >= next_expected` this is also the "payload seen before" set: an
    /// accepted segment that is not the next one is buffered here and
    /// leaves only when `next_expected` passes it.
    ooo: BTreeSet<u64>,
    pending_acks: u32,
    delack_timer: Option<EventId>,
    /// The delayed-ACK window in force: `b`, unless the adaptive policy
    /// moves it.
    current_b: u32,
    healthy_streak: u32,
    /// Ground-truth counters.
    pub metrics: ReceiverMetrics,
}

impl Receiver {
    /// Creates a receiver for `flow`; `uplink` may be a placeholder fixed
    /// up by wiring code before the simulation starts.
    pub fn new(flow: FlowId, uplink: LinkId, cfg: ReceiverConfig) -> Receiver {
        assert!(cfg.b >= 1, "delayed-ACK factor must be at least 1");
        let current_b = if cfg.adaptive { ADAPTIVE_B_MIN } else { cfg.b };
        Receiver {
            flow,
            uplink,
            backup_uplink: None,
            cfg,
            next_expected: SeqNo::ZERO,
            ooo: BTreeSet::new(),
            pending_acks: 0,
            delack_timer: None,
            current_b,
            healthy_streak: 0,
            metrics: ReceiverMetrics::default(),
        }
    }

    /// Next expected in-order sequence number.
    pub fn next_expected(&self) -> SeqNo {
        self.next_expected
    }

    fn on_disorder(&mut self) {
        if self.cfg.adaptive {
            self.current_b = ADAPTIVE_B_MIN;
            self.healthy_streak = 0;
        }
    }

    fn on_healthy(&mut self, segments: u32) {
        if self.cfg.adaptive {
            self.healthy_streak += segments;
            while self.healthy_streak >= ADAPTIVE_GROW_AFTER && self.current_b < ADAPTIVE_B_MAX {
                self.healthy_streak -= ADAPTIVE_GROW_AFTER;
                self.current_b += 1;
            }
        }
    }

    fn send_ack(&mut self, ctx: &mut Ctx<'_>, acked_count: u32) {
        self.send_ack_inner(ctx, acked_count, false);
    }

    /// `mirror` — also send a copy over the backup uplink (recovery-phase
    /// ACKs in MPTCP backup mode).
    fn send_ack_inner(&mut self, ctx: &mut Ctx<'_>, acked_count: u32, mirror: bool) {
        let ack = Packet::ack(self.flow, self.next_expected, acked_count);
        if mirror {
            if let Some(backup) = self.backup_uplink {
                ctx.send(backup, ack.clone());
                self.metrics.acks_sent += 1;
            }
        }
        ctx.send(self.uplink, ack);
        self.metrics.acks_sent += 1;
        self.pending_acks = 0;
        if let Some(t) = self.delack_timer.take() {
            ctx.cancel_timer(t);
        }
    }
}

impl Agent for Receiver {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        let PacketKind::Data { seq, retransmit } = packet.kind else {
            return; // Receivers only consume data.
        };
        self.metrics.segments_received += 1;
        let s = seq.as_u64();
        let expected = self.next_expected.as_u64();

        if s < expected || self.ooo.contains(&s) {
            // Duplicate payload: the original had arrived, so any timeout
            // that caused this retransmission was spurious.
            self.metrics.duplicate_payloads += 1;
            self.on_disorder();
            self.send_ack_inner(ctx, 0, retransmit);
            return;
        }

        if s == expected {
            // In-order: advance, draining any buffered continuation.
            let mut next = expected + 1;
            while self.ooo.remove(&next) {
                next += 1;
            }
            let advanced = (next - expected) as u32;
            self.next_expected = SeqNo(next);
            self.metrics.next_expected = next;
            self.pending_acks += advanced;
            self.on_healthy(advanced);
            if !self.ooo.is_empty() {
                // Still a hole above: ACK immediately (RFC 5681).
                let count = self.pending_acks;
                self.send_ack_inner(ctx, count, retransmit);
            } else if self.pending_acks >= self.current_b {
                let count = self.pending_acks;
                self.send_ack_inner(ctx, count, retransmit);
            } else if self.delack_timer.is_none() {
                self.delack_timer = Some(ctx.schedule_in(DELACK_TIMEOUT, TAG_DELACK));
            }
        } else {
            // Out of order: buffer and emit an immediate duplicate ACK.
            self.ooo.insert(s);
            self.on_disorder();
            self.send_ack_inner(ctx, 0, retransmit);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        debug_assert_eq!(tag, TAG_DELACK);
        self.delack_timer = None;
        if self.pending_acks > 0 {
            let count = self.pending_acks;
            self.send_ack(ctx, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_simnet::prelude::*;

    /// Drives a receiver by injecting data packets on a link towards it;
    /// the ACKs it sends on its uplink are the arena's ACK rows.
    struct Harness {
        eng: Engine,
        rx: AgentId,
        downlink: LinkId,
    }

    fn harness(cfg: ReceiverConfig) -> Harness {
        let mut eng = Engine::new(11);
        let sink = eng.add_agent(Box::new(NullAgent::new())); // stands in for the sender
        let uplink =
            eng.add_link(LinkSpec::new(sink, "uplink").prop_delay(SimDuration::from_millis(5)));
        let rx = eng.add_agent(Box::new(Receiver::new(FlowId(0), uplink, cfg)));
        let downlink =
            eng.add_link(LinkSpec::new(rx, "downlink").prop_delay(SimDuration::from_millis(5)));
        Harness { eng, rx, downlink }
    }

    fn acks_sent(eng: &Engine) -> Vec<(u64, u32)> {
        let rows = eng.arena().iter();
        rows.filter_map(|(p, _)| match p.kind {
            PacketKind::Ack { cum, acked_count } => Some((cum.as_u64(), acked_count)),
            PacketKind::Data { .. } => None,
        })
        .collect()
    }

    #[test]
    fn delayed_ack_coalesces_pairs() {
        let mut h = harness(ReceiverConfig::default());
        for seq in 0..4 {
            h.eng
                .inject(h.downlink, Packet::data(FlowId(0), SeqNo(seq), false));
        }
        h.eng.run_until_idle();
        let acks = acks_sent(&h.eng);
        // b = 2: two ACKs, each covering two segments.
        assert_eq!(acks, vec![(2, 2), (4, 2)]);
        let rx = h.eng.agent_mut::<Receiver>(h.rx).unwrap();
        assert_eq!(rx.metrics.acks_sent, 2);
        assert_eq!(rx.next_expected(), SeqNo(4));
    }

    #[test]
    fn delack_deadline_flushes_odd_segment() {
        let mut h = harness(ReceiverConfig::default());
        h.eng
            .inject(h.downlink, Packet::data(FlowId(0), SeqNo(0), false));
        h.eng.run_until_idle();
        let acks = acks_sent(&h.eng);
        assert_eq!(acks, vec![(1, 1)], "flushed by the 100 ms delack timer");
        // The flush happened at delivery (+5ms) + 100 ms.
        assert!(h.eng.now() >= SimTime::from_millis(105));
    }

    #[test]
    fn out_of_order_triggers_immediate_dup_acks() {
        let mut h = harness(ReceiverConfig {
            b: 2,
            adaptive: false,
        });
        // seq 0 arrives, then 2, 3, 4 (1 missing): expect dup ACKs cum=1.
        for seq in [0u64, 2, 3, 4] {
            h.eng
                .inject(h.downlink, Packet::data(FlowId(0), SeqNo(seq), false));
        }
        h.eng.run_until_idle();
        let acks = acks_sent(&h.eng);
        // First ACK may be delayed; the three OOO arrivals each force an
        // immediate ACK with cum = 1.
        let dups: Vec<_> = acks.iter().filter(|(cum, _)| *cum == 1).collect();
        assert_eq!(dups.len(), 3, "acks: {acks:?}");
    }

    #[test]
    fn hole_fill_acks_cumulatively() {
        let mut h = harness(ReceiverConfig {
            b: 2,
            adaptive: false,
        });
        for seq in [0u64, 2, 3] {
            h.eng
                .inject(h.downlink, Packet::data(FlowId(0), SeqNo(seq), false));
        }
        h.eng.run_until(SimTime::from_millis(50));
        // Fill the hole.
        h.eng
            .inject(h.downlink, Packet::data(FlowId(0), SeqNo(1), false));
        h.eng.run_until_idle();
        let acks = acks_sent(&h.eng);
        assert_eq!(
            acks.last().unwrap().0,
            4,
            "cumulative ACK jumps over the filled hole"
        );
    }

    #[test]
    fn duplicate_payload_is_counted_and_acked() {
        let mut h = harness(ReceiverConfig {
            b: 1,
            adaptive: false,
        });
        h.eng
            .inject(h.downlink, Packet::data(FlowId(0), SeqNo(0), false));
        h.eng.run_until(SimTime::from_millis(50));
        h.eng
            .inject(h.downlink, Packet::data(FlowId(0), SeqNo(0), true)); // spurious retx
        h.eng.run_until_idle();
        let rx = h.eng.agent_mut::<Receiver>(h.rx).unwrap();
        assert_eq!(rx.metrics.duplicate_payloads, 1);
        let acks = acks_sent(&h.eng);
        assert_eq!(acks.len(), 2);
        assert_eq!(acks[1].0, 1, "duplicate re-ACKed at the cumulative point");
    }

    #[test]
    fn b_equals_one_acks_every_segment() {
        let mut h = harness(ReceiverConfig {
            b: 1,
            adaptive: false,
        });
        for seq in 0..5 {
            h.eng
                .inject(h.downlink, Packet::data(FlowId(0), SeqNo(seq), false));
        }
        h.eng.run_until_idle();
        assert_eq!(acks_sent(&h.eng).len(), 5);
    }

    /// Injects in-order segments `seqs` into an adaptive receiver and
    /// returns its delayed window once they have landed.
    fn adaptive_b_after(h: &mut Harness, seqs: std::ops::Range<u64>) -> u32 {
        for seq in seqs {
            h.eng
                .inject(h.downlink, Packet::data(FlowId(0), SeqNo(seq), false));
        }
        h.eng.run_until_idle();
        h.eng.agent_mut::<Receiver>(h.rx).unwrap().current_b
    }

    #[test]
    fn adaptive_delack_grows_on_healthy_stream() {
        let mut h = harness(ReceiverConfig {
            adaptive: true,
            ..Default::default()
        });
        assert_eq!(adaptive_b_after(&mut h, 0..63), 1, "63 clean segments");
        assert_eq!(adaptive_b_after(&mut h, 63..64), 2, "the 64th grows it");
        assert_eq!(adaptive_b_after(&mut h, 64..128), 2, "b = 2 is the ceiling");
        let rx = h.eng.agent_mut::<Receiver>(h.rx).unwrap();
        assert_eq!(rx.next_expected(), SeqNo(128));
    }

    #[test]
    fn adaptive_delack_collapses_on_disorder() {
        let mut h = harness(ReceiverConfig {
            adaptive: true,
            ..Default::default()
        });
        assert_eq!(adaptive_b_after(&mut h, 0..64), 2);
        // Seq 65 before 64: disorder.
        assert_eq!(
            adaptive_b_after(&mut h, 65..66),
            1,
            "disorder resets the window"
        );
    }

    #[test]
    fn fixed_b_receiver_reports_constant_current_b() {
        let h = harness(ReceiverConfig::default());
        let mut h = h;
        let rx = h.eng.agent_mut::<Receiver>(h.rx).unwrap();
        assert_eq!(rx.current_b, 2);
    }

    /// Reference receiver with the two sets its predecessor kept: `seen`
    /// (every accepted payload, compacted 64 below the cumulative point)
    /// answers "duplicate?", `ooo` only buffers. The one-set receiver must
    /// be indistinguishable from it.
    #[derive(Default)]
    struct TwoSetModel {
        next: u64,
        ooo: BTreeSet<u64>,
        seen: BTreeSet<u64>,
        pending: u32,
        timer_armed: bool,
        b: u32,
        streak: u32,
        metrics: ReceiverMetrics,
        acks: Vec<(u64, u32)>,
    }

    impl TwoSetModel {
        fn ack(&mut self, count: u32, mirrored: bool) {
            for _ in 0..1 + u32::from(mirrored) {
                self.acks.push((self.next, count));
                self.metrics.acks_sent += 1;
            }
            self.pending = 0;
            self.timer_armed = false;
        }

        fn disorder_ack(&mut self, cfg: &ReceiverConfig, mirrored: bool) {
            if cfg.adaptive {
                (self.b, self.streak) = (ADAPTIVE_B_MIN, 0);
            }
            self.ack(0, mirrored);
        }

        fn arrive(&mut self, cfg: &ReceiverConfig, s: u64, mirrored: bool) {
            self.metrics.segments_received += 1;
            if self.seen.contains(&s) || s < self.next {
                self.metrics.duplicate_payloads += 1;
                return self.disorder_ack(cfg, mirrored);
            }
            self.seen.insert(s);
            while self.seen.first().is_some_and(|lo| lo + 64 < self.next) {
                self.seen.pop_first();
            }
            if s != self.next {
                self.ooo.insert(s);
                return self.disorder_ack(cfg, mirrored);
            }
            self.next += 1;
            while self.ooo.remove(&self.next) {
                self.next += 1;
            }
            let advanced = (self.next - s) as u32;
            self.metrics.next_expected = self.next;
            self.pending += advanced;
            if cfg.adaptive {
                self.streak += advanced;
                while self.streak >= ADAPTIVE_GROW_AFTER && self.b < ADAPTIVE_B_MAX {
                    self.streak -= ADAPTIVE_GROW_AFTER;
                    self.b += 1;
                }
            }
            if !self.ooo.is_empty() || self.pending >= self.b {
                self.ack(self.pending, mirrored);
            } else {
                self.timer_armed = true;
            }
        }

        fn delack_deadline_passes(&mut self) {
            if std::mem::take(&mut self.timer_armed) {
                self.ack(self.pending, false);
            }
        }
    }

    proptest::proptest! {
        /// Random arrival scripts — in-order runs, gaps, duplicates below
        /// and above `next_expected`, far-ahead sequence numbers, with and
        /// without the retransmit flag and a mirroring backup uplink —
        /// produce the reference model's exact ACK stream and metrics.
        #[test]
        fn one_set_receiver_matches_the_two_set_model(
            b in proptest::prop_oneof![proptest::Just(1u32), proptest::Just(2), proptest::Just(4)],
            adaptive in 0u32..2,
            backup in 0u32..2,
            script in proptest::collection::vec((0u32..9, 0u64..4096, 0u32..2, 0u32..5), 1..250),
        ) {
            let cfg = ReceiverConfig { b, adaptive: adaptive == 1 };
            let mut h = harness(cfg);
            if backup == 1 {
                let sink = AgentId::from_raw(0);
                let link = h.eng.add_link(LinkSpec::new(sink, "backup-uplink"));
                h.eng.agent_mut::<Receiver>(h.rx).unwrap().backup_uplink = Some(link);
            }
            let mut model = TwoSetModel {
                b: if cfg.adaptive { ADAPTIVE_B_MIN } else { b },
                ..Default::default()
            };
            for (shape, x, retransmit, pause) in script {
                let next = model.next;
                let seq = match shape {
                    0..=3 => next,
                    4 => next + 1 + x % 6,
                    5 => next.saturating_sub(1 + x % 80),
                    6 => {
                        let buffered = model.ooo.iter().nth(x as usize % model.ooo.len().max(1));
                        buffered.copied().unwrap_or(next + 2)
                    }
                    7 => next + 1_000 + x,
                    _ => (1 << 40) + x % 4,
                };
                // Arrivals are 1 ms apart — a delayed ACK waits at most
                // three of them, far inside its 100 ms — or 150 ms apart,
                // which always outlasts it: the deadline never ties with
                // an arrival.
                let gap_ms = if pause == 0 { 150 } else { 1 };
                if pause == 0 {
                    model.delack_deadline_passes();
                }
                let until = h.eng.now() + SimDuration::from_millis(gap_ms);
                h.eng.run_until(until);
                let retransmit = retransmit == 1;
                h.eng.inject(h.downlink, Packet::data(FlowId(0), SeqNo(seq), retransmit));
                model.arrive(&cfg, seq, retransmit && backup == 1);
            }
            h.eng.run_until_idle();
            model.delack_deadline_passes();
            proptest::prop_assert_eq!(acks_sent(&h.eng), model.acks);
            let rx = h.eng.agent_mut::<Receiver>(h.rx).unwrap();
            proptest::prop_assert_eq!(rx.metrics, model.metrics);
            proptest::prop_assert_eq!(rx.current_b, model.b);
        }
    }
}
