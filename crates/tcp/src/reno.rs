//! The TCP Reno sender.
//!
//! Implements the sender half the paper models: slow start, congestion
//! avoidance, fast retransmit/recovery on triple duplicate ACKs
//! (RFC 5681), and retransmission timeouts with exponential backoff capped
//! at 64·T. During a timeout recovery phase the sender retransmits *only*
//! the lost segment (Fig. 2) — which is exactly why a lossy recovery phase
//! (`q`) is so expensive.
//!
//! Three extensions are [`SenderConfig`] settings:
//!
//! * `newreno` — NewReno partial-ACK handling (stay in fast recovery until
//!   the `recover` point is acknowledged);
//! * `recovery` — one of the §V countermeasures of [`Recovery`], which
//!   [`RenoSender`] matches on at every timeout;
//! * `spurious_rto_undo` — cumulative-jump spurious-timeout detection.
//!
//! Both spurious-timeout detectors (this flag and [`Recovery::Frto`]) save
//! the pre-collapse controller in one undo slot, and a spurious verdict of
//! either restores it the same way.
//!
//! One extension is wiring rather than a setting: `backup_link`, set by
//! the MPTCP rigs, makes MPTCP-backup-style *redundant retransmission* —
//! after a timeout the lost segment is retransmitted on the primary
//! **and** a backup path, reducing the effective retransmission loss rate
//! from `q` to roughly `q·q_backup` (paper §V-B).

use crate::cc::Algorithm;
use crate::cwnd::{Cwnd, Phase};
use crate::metrics::SenderMetrics;
use crate::recovery::{AckDisposition, AckRobust, Frto, Recovery};
use crate::rtt::{Backoff, RttEstimator};
use hsm_simnet::engine::Ctx;
use hsm_simnet::event::EventId;
use hsm_simnet::link::LinkId;
use hsm_simnet::packet::{FlowId, Packet, PacketKind, SeqNo};
use hsm_simnet::prelude::Agent;
use hsm_simnet::time::{SimDuration, SimTime};

/// Sender configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenderConfig {
    /// Receiver-advertised window limitation `W_m`, segments.
    pub w_m: u32,
    /// Enable NewReno partial-ACK handling.
    pub newreno: bool,
    /// Congestion-control algorithm (any member of the [`crate::cc`] zoo).
    pub algorithm: Algorithm,
    /// Cumulative-jump spurious-RTO detection: when the first new ACK
    /// after a timeout covers more than the single retransmitted segment,
    /// the original flight is taken to have arrived — undo the window
    /// collapse and skip the go-back-N resends. This catches ACK-burst
    /// *loss* (the first ACK through covers the whole recovery point),
    /// which [`Recovery::Frto`]'s basic algorithm cannot classify and
    /// treats conventionally; `tests/extensions.rs` pins that difference.
    /// It also fires on a genuine single-segment loss whose successors
    /// were buffered at the receiver, so it is an extension (the
    /// `ext_undo` experiment), not a default. It arms only on the first rung
    /// of a backoff ladder, and stands down on a ladder whose first rung
    /// [`Recovery::Frto`] took for its own probe, so that no timeout is
    /// undone twice.
    pub spurious_rto_undo: bool,
    /// Loss-recovery countermeasure (§V). [`Recovery::None`] is the plain
    /// RFC 6298 recovery the paper measures.
    pub recovery: Recovery,
    /// Stop sending new data after this long (the flow keeps draining).
    pub stop_after: Option<SimDuration>,
    /// Stop after this many distinct segments have been sent.
    pub max_segments: Option<u64>,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            w_m: 64,
            newreno: false,
            algorithm: Algorithm::Reno,
            spurious_rto_undo: false,
            recovery: Recovery::None,
            stop_after: None,
            max_segments: None,
        }
    }
}

const TAG_STOP: u64 = 1;
const TAG_RTO_BASE: u64 = 1_000;

/// Which spurious-timeout detector took an [`Undo`] snapshot, and so which
/// verdict may restore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UndoRule {
    /// [`SenderConfig::spurious_rto_undo`]: the first advancing ACK decides,
    /// spurious when it covers more than the segment retransmitted from
    /// `armed_snd_una`.
    Jump {
        /// `snd_una` at the timeout.
        armed_snd_una: u64,
    },
    /// [`Recovery::Frto`]: its RFC 5682 step-3b verdict decides.
    Frto,
}

/// The window machine as it stood before a timeout collapsed it.
#[derive(Debug)]
struct Undo {
    cwnd: Cwnd,
    rule: UndoRule,
}

/// The Reno sender agent with an infinite backlog of data.
#[derive(Debug)]
pub struct RenoSender {
    flow: FlowId,
    /// Link carrying data to the receiver. Set by wiring code.
    pub data_link: LinkId,
    /// Optional backup link for redundant timeout retransmission (§V-B).
    pub backup_link: Option<LinkId>,
    /// Whether `stop_after` halts the whole engine (true for single-flow
    /// rigs). Multi-flow wirings set this false so one sender's stop does
    /// not truncate its siblings.
    pub halt_engine_on_stop: bool,
    cfg: SenderConfig,
    cwnd: Cwnd,
    rtt: RttEstimator,
    backoff: Backoff,
    /// Next sequence number to (re)transmit. After a timeout this is reset
    /// to just above `snd_una` (go-back-N): segments between `snd_nxt` and
    /// `high_water` are presumed lost and resent as the window reopens.
    snd_nxt: u64,
    /// Highest sequence number ever sent + 1 (new data starts here).
    high_water: u64,
    snd_una: u64,
    dup_acks: u32,
    recover: u64,
    rto_timer: Option<EventId>,
    rto_gen: u64,
    timing: Option<(u64, SimTime)>,
    /// The one spurious-timeout undo snapshot, whichever detector armed it.
    undo: Option<Undo>,
    /// [`Recovery::Frto`]'s probe state (idle under any other recovery).
    frto: Frto,
    /// [`Recovery::AckRobust`]'s ACK inter-arrival history.
    ack_robust: AckRobust,
    stopped: bool,
    /// Whether window changes are appended to `metrics.cwnd_log`. On for
    /// every sender but those of a [`Keep::Summary`](crate::connection::Keep)
    /// run, whose log nothing reads.
    pub(crate) log_window: bool,
    /// Ground-truth counters and logs.
    pub metrics: SenderMetrics,
}

impl RenoSender {
    /// Creates a sender for `flow`; `data_link` may be a placeholder fixed
    /// up by wiring code before the simulation starts.
    pub fn new(flow: FlowId, data_link: LinkId, cfg: SenderConfig) -> RenoSender {
        RenoSender {
            flow,
            data_link,
            backup_link: None,
            halt_engine_on_stop: true,
            cwnd: Cwnd::new(cfg.w_m, cfg.algorithm),
            rtt: RttEstimator::default(),
            backoff: Backoff::new(),
            cfg,
            snd_nxt: 0,
            high_water: 0,
            snd_una: 0,
            dup_acks: 0,
            recover: 0,
            rto_timer: None,
            rto_gen: 0,
            timing: None,
            undo: None,
            frto: Frto::IDLE,
            ack_robust: AckRobust::NEW,
            stopped: false,
            log_window: true,
            metrics: SenderMetrics::default(),
        }
    }

    /// Segments in flight (standard `pipe` approximation): sent since the
    /// last (re)transmission point and not yet acknowledged.
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Lowest unacknowledged sequence number.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// The congestion window machine (for inspection).
    pub fn cwnd(&self) -> &Cwnd {
        &self.cwnd
    }

    /// The RTT estimator (for inspection).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// The backoff ladder (for inspection).
    pub fn backoff(&self) -> &Backoff {
        &self.backoff
    }

    fn log(&mut self, now: SimTime) {
        if self.log_window {
            let (c, w, p) = (self.cwnd.cwnd(), self.cwnd.window(), self.cwnd.phase());
            self.metrics.log_cwnd(now, c, w, p);
        }
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_>) {
        self.rto_gen += 1;
        let delay = self.backoff.apply(self.rtt.rto());
        let tag = TAG_RTO_BASE + self.rto_gen;
        // Every new ACK re-arms: move the pending timer, don't replace it.
        self.rto_timer = Some(match self.rto_timer {
            Some(pending) => ctx.reschedule_in(pending, delay, tag),
            None => ctx.schedule_in(delay, tag),
        });
    }

    fn disarm_rto(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(t) = self.rto_timer.take() {
            ctx.cancel_timer(t);
        }
        self.rto_gen += 1; // invalidate any in-flight firing
    }

    fn may_send_new(&self) -> bool {
        if self.stopped {
            return false;
        }
        if let Some(max) = self.cfg.max_segments {
            if self.high_water >= max {
                return false;
            }
        }
        true
    }

    fn send_available(&mut self, ctx: &mut Ctx<'_>) {
        let win = self.cwnd.window();
        while self.flight() < win {
            let is_resend = self.snd_nxt < self.high_water;
            if !is_resend && !self.may_send_new() {
                break;
            }
            let seq = self.snd_nxt;
            ctx.send(
                self.data_link,
                Packet::data(self.flow, SeqNo(seq), is_resend),
            );
            self.metrics.segments_sent += 1;
            if is_resend {
                self.metrics.retransmissions += 1;
                // Backup mode duplicates the whole recovery phase: every
                // go-back-N resend below the recover point rides the backup
                // path too, not just the RTO-triggered segment (§V-B).
                if seq < self.recover {
                    if let Some(backup) = self.backup_link {
                        ctx.send(backup, Packet::data(self.flow, SeqNo(seq), true));
                        self.metrics.segments_sent += 1;
                    }
                }
                if self.timing.is_some_and(|(t_seq, _)| t_seq == seq) {
                    self.timing = None; // Karn
                }
            } else {
                if self.timing.is_none() {
                    self.timing = Some((seq, ctx.now()));
                }
                self.metrics.max_seq_sent = self.metrics.max_seq_sent.max(seq);
                self.high_water = seq + 1;
            }
            self.snd_nxt += 1;
        }
        if self.flight() > 0 && self.rto_timer.is_none() {
            self.arm_rto(ctx);
        }
    }

    /// Sends up to `n` previously-unsent segments regardless of the
    /// congestion window (RFC 5682 step 2b F-RTO probes). Returns how many
    /// went out; `snd_nxt` must sit at `high_water` on entry.
    fn send_probe_segments(&mut self, ctx: &mut Ctx<'_>, n: u64) -> u64 {
        debug_assert_eq!(self.snd_nxt, self.high_water);
        let mut sent = 0;
        for _ in 0..n {
            if !self.may_send_new() {
                break;
            }
            let seq = self.high_water;
            ctx.send(self.data_link, Packet::data(self.flow, SeqNo(seq), false));
            self.metrics.segments_sent += 1;
            if self.timing.is_none() {
                self.timing = Some((seq, ctx.now()));
            }
            self.metrics.max_seq_sent = self.metrics.max_seq_sent.max(seq);
            self.high_water = seq + 1;
            self.snd_nxt = self.high_water;
            sent += 1;
        }
        sent
    }

    fn retransmit(&mut self, ctx: &mut Ctx<'_>, seq: u64, redundant: bool) {
        ctx.send(self.data_link, Packet::data(self.flow, SeqNo(seq), true));
        self.metrics.segments_sent += 1;
        self.metrics.retransmissions += 1;
        if redundant {
            if let Some(backup) = self.backup_link {
                ctx.send(backup, Packet::data(self.flow, SeqNo(seq), true));
                self.metrics.segments_sent += 1;
            }
        }
        // Karn: a retransmitted segment can no longer give a clean sample.
        if self.timing.is_some_and(|(t_seq, _)| t_seq == seq) {
            self.timing = None;
        }
    }

    /// Cross-layer invariant sweep, run after every ACK and timeout in
    /// debug/test builds: sequence pointers stay ordered (`snd_una` ≤
    /// `snd_nxt` ≤ `high_water`, `recover` never beyond data actually
    /// sent), the congestion window stays in bounds, and the metrics
    /// ledger stays consistent.
    #[cfg(any(debug_assertions, test))]
    fn assert_invariants(&self) {
        assert!(
            self.snd_una <= self.snd_nxt,
            "sequence invariant violated: snd_una {} > snd_nxt {}",
            self.snd_una,
            self.snd_nxt,
        );
        assert!(
            self.snd_nxt <= self.high_water,
            "sequence invariant violated: snd_nxt {} > high_water {}",
            self.snd_nxt,
            self.high_water,
        );
        assert!(
            self.recover <= self.high_water,
            "sequence invariant violated: recover {} > high_water {}",
            self.recover,
            self.high_water,
        );
        self.cwnd.assert_invariants();
        self.metrics.assert_invariants();
    }

    /// Consumes the undo snapshot. A spurious verdict restores the
    /// pre-collapse controller and skips go-back-N: the old in-flight data
    /// was not lost.
    fn settle_undo(&mut self, spurious: bool) {
        if let Some(undo) = self.undo.take() {
            if spurious {
                self.cwnd = undo.cwnd;
                self.snd_nxt = self.high_water.max(self.snd_una);
                self.metrics.spurious_rto_undone += 1;
            }
        }
    }

    fn on_ack(&mut self, ctx: &mut Ctx<'_>, cum: u64) {
        self.metrics.acks_received += 1;
        if self.cfg.recovery == Recovery::AckRobust {
            self.ack_robust.observe_ack(ctx.now());
        }
        if cum > self.snd_una {
            let disposition = self.frto.classify(cum, true);
            let acked = cum - self.snd_una;
            self.snd_una = cum;
            // The receiver may have buffered out-of-order data: never
            // retransmit below the cumulative point.
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.backoff.reset();
            match self.undo.as_ref().map(|u| u.rule) {
                // The jump rule decides on the first new ACK after the
                // RTO: if it covers more than the one retransmitted
                // segment, the original in-flight data must have arrived.
                Some(UndoRule::Jump { armed_snd_una }) => self.settle_undo(cum > armed_snd_una + 1),
                // F-RTO decides on its probe round (RFC 5682 step 3b:
                // spurious when that ACK advances too); any other
                // resolution makes the saved window moot.
                Some(UndoRule::Frto) if disposition != AckDisposition::SendNewData => {
                    self.settle_undo(disposition == AckDisposition::SpuriousUndo)
                }
                _ => {}
            }
            if disposition == AckDisposition::SendNewData {
                // RFC 5682 step 2b: defer the recovery decision — skip
                // go-back-N for now (the old window may still be in
                // flight) and probe with up to two new segments. Window
                // updates wait for the verdict.
                self.snd_nxt = self.high_water.max(self.snd_una);
                self.dup_acks = 0;
                let sent = self.send_probe_segments(ctx, 2);
                self.metrics.frto_probes += sent;
                if self.flight() == 0 {
                    self.disarm_rto(ctx);
                } else {
                    self.arm_rto(ctx);
                }
                self.log(ctx.now());
                #[cfg(any(debug_assertions, test))]
                self.assert_invariants();
                return;
            }
            if let Some((seq, t0)) = self.timing {
                if cum > seq {
                    let sample = ctx.now().saturating_since(t0);
                    self.rtt.sample(sample);
                    self.cwnd.observe_rtt(sample.as_secs_f64());
                    self.timing = None;
                }
            }
            if self.cwnd.phase() == Phase::FastRecovery {
                if self.cfg.newreno && cum < self.recover {
                    // Partial ACK: retransmit the next hole, stay in FR.
                    self.cwnd.on_partial_ack(acked);
                    let seq = self.snd_una;
                    self.retransmit(ctx, seq, false);
                    self.arm_rto(ctx);
                } else {
                    self.cwnd.exit_fast_recovery();
                    self.dup_acks = 0;
                }
            } else {
                self.cwnd.on_new_ack(acked);
                self.dup_acks = 0;
            }
            if self.flight() == 0 {
                self.disarm_rto(ctx);
            } else {
                self.arm_rto(ctx);
            }
            self.log(ctx.now());
            self.send_available(ctx);
        } else if cum == self.snd_una && self.flight() > 0 {
            let disposition = self.frto.classify(cum, false);
            self.dup_acks += 1;
            self.metrics.dup_acks_received += 1;
            // A dup ACK settles F-RTO as genuine: straight after the RTO
            // retransmission it reverts F-RTO (RFC 5682 step 2a), during the
            // probe round it declares the loss (step 3a). The jump rule
            // waits for an advancing ACK.
            if self.undo.as_ref().is_some_and(|u| u.rule == UndoRule::Frto) {
                self.settle_undo(false);
            }
            if disposition == AckDisposition::GenuineLoss {
                // Step 3a: resume conventional go-back-N from the
                // cumulative point.
                self.dup_acks = 0;
                self.snd_nxt = self.snd_una;
                self.send_available(ctx);
                self.log(ctx.now());
                #[cfg(any(debug_assertions, test))]
                self.assert_invariants();
                return;
            }
            match self.cwnd.phase() {
                Phase::FastRecovery => {
                    self.cwnd.on_dup_ack_in_recovery();
                    self.send_available(ctx);
                }
                // RFC 6582 "avoiding multiple fast retransmits": duplicate
                // ACKs below `recover` are echoes of the go-back-N resends
                // after a timeout (or of redundant backup-path copies), not
                // evidence of a new loss — entering fast recovery on them
                // halves cwnd spuriously.
                _ if self.dup_acks == 3 && cum >= self.recover => {
                    self.recover = self.high_water;
                    let flight = self.flight();
                    self.cwnd.enter_fast_recovery(flight);
                    self.metrics.fast_retransmits.push(ctx.now());
                    let seq = self.snd_una;
                    self.retransmit(ctx, seq, false);
                    self.arm_rto(ctx);
                    self.log(ctx.now());
                }
                _ => {}
            }
        }
        // cum < snd_una: stale/reordered ACK; ignore.
        #[cfg(any(debug_assertions, test))]
        self.assert_invariants();
    }

    fn on_rto(&mut self, ctx: &mut Ctx<'_>) {
        if self.flight() == 0 {
            self.rto_timer = None;
            return;
        }
        let expired = self.backoff.apply(self.rtt.rto());
        self.metrics.timeouts.push(ctx.now());
        self.metrics.rto_at_timeout.push(expired.as_secs_f64());
        let first = self.backoff.consecutive_timeouts() == 0;
        let (una, high_water) = (self.snd_una, self.high_water);
        let (mut frto_armed, mut skip_backoff, mut successor) = (false, false, false);
        match self.cfg.recovery {
            Recovery::None => {}
            // Redundant retransmit-on-RTO: only when a successor segment is
            // actually outstanding.
            Recovery::RedundantRto => successor = high_water > una + 1,
            Recovery::Frto => frto_armed = self.frto.arm(first, una, high_water),
            Recovery::AckRobust => skip_backoff = self.ack_robust.skip_backoff(ctx.now(), first),
        }
        // The undo slot keeps the controller as it stood before a ladder's
        // first collapse. F-RTO snapshots when it arms and keeps its
        // snapshot when it re-arms; a rung on which it does not is the
        // RFC's "the retransmission is lost too" path — the loss is
        // genuine. The jump rule arms only on a first rung the slot leaves
        // free, so never on a ladder F-RTO took (restoring twice would
        // count one timeout as two undos), and its snapshot lasts until
        // the first advancing ACK.
        if frto_armed {
            if self.undo.is_none() {
                self.undo = Some(Undo {
                    cwnd: self.cwnd,
                    rule: UndoRule::Frto,
                });
            }
        } else if self.undo.as_ref().is_some_and(|u| u.rule == UndoRule::Frto) {
            self.undo = None;
        }
        if self.cfg.spurious_rto_undo && first && self.undo.is_none() {
            self.undo = Some(Undo {
                cwnd: self.cwnd,
                rule: UndoRule::Jump { armed_snd_una: una },
            });
        }
        let flight = self.flight();
        self.cwnd.on_timeout(flight);
        if skip_backoff {
            // ACK-robust RTO: the inter-arrival history says burst delay,
            // not loss — re-arm at the same value and demand corroborating
            // silence before the exponential ladder starts.
            self.metrics.backoff_skipped += 1;
        } else {
            self.backoff.on_timeout();
        }
        self.dup_acks = 0;
        self.recover = self.high_water;
        self.rto_timer = None;
        let seq = self.snd_una;
        // Timeout recovery: retransmit only the lost segment (Fig. 2),
        // redundantly over the backup path when configured (§V-B). All
        // other in-flight data is presumed lost: go-back-N from here.
        self.retransmit(ctx, seq, true);
        self.snd_nxt = seq + 1;
        if successor {
            // Redundant retransmit-on-RTO: the successor rides along,
            // giving the receiver two chances to produce an advancing ACK.
            self.retransmit(ctx, seq + 1, true);
            self.snd_nxt = seq + 2;
        }
        self.arm_rto(ctx);
        self.log(ctx.now());
        #[cfg(any(debug_assertions, test))]
        self.assert_invariants();
    }
}

impl Agent for RenoSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(after) = self.cfg.stop_after {
            ctx.schedule_in(after, TAG_STOP);
        }
        self.log(ctx.now());
        self.send_available(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if let PacketKind::Ack { cum, .. } = packet.kind {
            self.on_ack(ctx, cum.as_u64());
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            TAG_STOP => {
                self.stopped = true;
                self.disarm_rto(ctx);
                if self.halt_engine_on_stop {
                    ctx.stop();
                }
            }
            t if t == TAG_RTO_BASE + self.rto_gen => self.on_rto(ctx),
            _ => { /* stale RTO generation: ignore */ }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::{Receiver, ReceiverConfig};
    use hsm_simnet::loss::LossModel;
    use hsm_simnet::prelude::*;

    struct World {
        eng: Engine,
        tx: AgentId,
        rx: AgentId,
        down: LinkId,
        up: LinkId,
    }

    fn world(
        seed: u64,
        scfg: SenderConfig,
        rcfg: ReceiverConfig,
        down_loss: f64,
        up_loss: f64,
    ) -> World {
        let mut eng = Engine::new(seed);
        let tx = eng.add_agent(Box::new(RenoSender::new(
            FlowId(0),
            LinkId::from_raw(0),
            scfg,
        )));
        let rx = eng.add_agent(Box::new(Receiver::new(
            FlowId(0),
            LinkId::from_raw(0),
            rcfg,
        )));
        let down = eng.add_link(
            LinkSpec::new(rx, "downlink")
                .bandwidth_bps(50_000_000)
                .prop_delay(SimDuration::from_millis(25))
                .loss(LossModel::Bernoulli(down_loss)),
        );
        let up = eng.add_link(
            LinkSpec::new(tx, "uplink")
                .bandwidth_bps(50_000_000)
                .prop_delay(SimDuration::from_millis(25))
                .loss(LossModel::Bernoulli(up_loss)),
        );
        eng.agent_mut::<RenoSender>(tx).unwrap().data_link = down;
        eng.agent_mut::<Receiver>(rx).unwrap().uplink = up;
        World {
            eng,
            tx,
            rx,
            down,
            up,
        }
    }

    #[test]
    fn lossless_flow_delivers_everything_in_order() {
        let mut w = world(
            1,
            SenderConfig {
                max_segments: Some(200),
                ..Default::default()
            },
            ReceiverConfig::default(),
            0.0,
            0.0,
        );
        w.eng.run_until_idle();
        let rx = w.eng.agent_mut::<Receiver>(w.rx).unwrap();
        assert_eq!(rx.next_expected(), SeqNo(200));
        assert_eq!(rx.metrics.duplicate_payloads, 0);
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        assert_eq!(tx.metrics.retransmissions, 0);
        assert_eq!(tx.metrics.timeout_count(), 0);
        assert_eq!(tx.flight(), 0);
    }

    #[test]
    fn slow_start_grows_window_exponentially() {
        let mut w = world(
            2,
            SenderConfig {
                max_segments: Some(1000),
                ..Default::default()
            },
            ReceiverConfig {
                b: 1,
                adaptive: false,
            },
            0.0,
            0.0,
        );
        w.eng.run_until(SimTime::from_millis(400));
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        // After several RTTs (~55 ms each) of lossless slow start the
        // window must have grown well beyond the initial 1.
        assert!(tx.cwnd().cwnd() > 16.0, "cwnd {}", tx.cwnd().cwnd());
        assert_eq!(tx.metrics.timeout_count(), 0);
    }

    #[test]
    fn single_data_loss_triggers_fast_retransmit_not_timeout() {
        let mut w = world(
            3,
            SenderConfig {
                max_segments: Some(400),
                ..Default::default()
            },
            ReceiverConfig {
                b: 1,
                adaptive: false,
            },
            0.0,
            0.0,
        );
        // Kill exactly one data packet mid-flow with a surgical outage.
        w.eng.impose(
            w.down,
            SimTime::from_millis(300),
            SimTime::from_millis(302),
            Impairment::outage(1.0),
        );
        w.eng.run_until_idle();
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        assert!(tx.metrics.retransmissions >= 1);
        assert!(
            !tx.metrics.fast_retransmits.is_empty(),
            "expected fast retransmit; timeouts={:?}",
            tx.metrics.timeouts
        );
        let rx = w.eng.agent_mut::<Receiver>(w.rx).unwrap();
        assert_eq!(rx.next_expected(), SeqNo(400), "flow completes");
    }

    #[test]
    fn full_window_loss_causes_timeout_and_backoff() {
        let mut w = world(
            4,
            SenderConfig {
                max_segments: Some(400),
                ..Default::default()
            },
            ReceiverConfig::default(),
            0.0,
            0.0,
        );
        // A long outage swallows a whole window: only RTO can recover.
        w.eng.impose(
            w.down,
            SimTime::from_millis(280),
            SimTime::from_millis(1200),
            Impairment::outage(1.0),
        );
        w.eng.run_until_idle();
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        assert!(
            tx.metrics.timeout_count() >= 1,
            "timeouts: {:?}",
            tx.metrics.timeouts
        );
        // Recovery finished: all 400 segments delivered.
        let rx = w.eng.agent_mut::<Receiver>(w.rx).unwrap();
        assert_eq!(rx.next_expected(), SeqNo(400));
    }

    #[test]
    fn consecutive_timeouts_double_the_timer() {
        let mut w = world(
            5,
            SenderConfig {
                max_segments: Some(50),
                ..Default::default()
            },
            ReceiverConfig::default(),
            0.0,
            0.0,
        );
        // Outage long enough for several backoff rungs.
        w.eng.impose(
            w.down,
            SimTime::from_millis(260),
            SimTime::from_millis(4_000),
            Impairment::outage(1.0),
        );
        w.eng.run_until_idle();
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        let rtos = &tx.metrics.rto_at_timeout;
        assert!(rtos.len() >= 3, "rtos: {rtos:?}");
        for pair in rtos.windows(2) {
            assert!(pair[1] >= pair[0] * 1.9, "backoff not doubling: {rtos:?}");
        }
    }

    #[test]
    fn ack_burst_loss_causes_spurious_timeout() {
        // No data loss at all; uplink dies completely for a while. The
        // sender must time out spuriously and the receiver must see
        // duplicate payloads (paper Fig. 5).
        let mut w = world(
            6,
            SenderConfig {
                max_segments: Some(300),
                ..Default::default()
            },
            ReceiverConfig::default(),
            0.0,
            0.0,
        );
        w.eng.impose(
            w.up,
            SimTime::from_millis(250),
            SimTime::from_millis(900),
            Impairment::outage(1.0),
        );
        w.eng.run_until_idle();
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        assert!(
            tx.metrics.timeout_count() >= 1,
            "no timeout despite ACK burst loss"
        );
        let rx = w.eng.agent_mut::<Receiver>(w.rx).unwrap();
        assert!(
            rx.metrics.duplicate_payloads >= 1,
            "spurious retransmission must duplicate payloads"
        );
        assert_eq!(rx.next_expected(), SeqNo(300));
    }

    #[test]
    fn flow_survives_sustained_random_loss() {
        let mut w = world(
            7,
            SenderConfig {
                max_segments: Some(2_000),
                ..Default::default()
            },
            ReceiverConfig::default(),
            0.02,
            0.01,
        );
        w.eng.run_until(SimTime::from_secs(600));
        let rx = w.eng.agent_mut::<Receiver>(w.rx).unwrap();
        assert_eq!(
            rx.next_expected(),
            SeqNo(2_000),
            "flow must complete under loss"
        );
    }

    #[test]
    fn stop_after_halts_the_flow() {
        let mut w = world(
            8,
            SenderConfig {
                stop_after: Some(SimDuration::from_secs(2)),
                ..Default::default()
            },
            ReceiverConfig::default(),
            0.0,
            0.0,
        );
        w.eng.run_until_idle();
        assert!(w.eng.stopped());
        assert!(w.eng.now() >= SimTime::from_secs(2));
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        assert!(tx.metrics.segments_sent > 100, "should stream for 2 s");
    }

    #[test]
    fn window_respects_advertised_limit() {
        let mut w = world(
            9,
            SenderConfig {
                w_m: 4,
                max_segments: Some(500),
                ..Default::default()
            },
            ReceiverConfig::default(),
            0.0,
            0.0,
        );
        w.eng.run_until_idle();
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        assert!(tx.metrics.cwnd_log.iter().all(|s| s.window <= 4));
    }

    #[test]
    fn spurious_rto_undo_restores_the_window() {
        // A pure ACK blackout: the timeout is spurious. The original
        // window's data keeps arriving, so the first ACK after the blackout
        // arrives almost immediately after the (needless) retransmission.
        let run = |undo: bool| {
            let mut w = world(
                12,
                SenderConfig {
                    max_segments: Some(1_000),
                    spurious_rto_undo: undo,
                    ..Default::default()
                },
                ReceiverConfig::default(),
                0.0,
                0.0,
            );
            w.eng.impose(
                w.up,
                SimTime::from_millis(400),
                SimTime::from_millis(1_100),
                Impairment::outage(1.0),
            );
            w.eng.run_until_idle();
            let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
            (
                tx.metrics.spurious_rto_undone,
                tx.metrics.retransmissions,
                w.eng.now(),
            )
        };
        let (undone, retx_undo, finish_undo) = run(true);
        let (baseline_undone, retx_plain, finish_plain) = run(false);
        assert_eq!(baseline_undone, 0);
        assert!(
            undone >= 1,
            "the blackout timeout must be detected as spurious"
        );
        assert!(
            retx_undo <= retx_plain,
            "undo must not add retransmissions ({retx_undo} vs {retx_plain})"
        );
        // Undoing the window collapse can only help completion time.
        assert!(
            finish_undo <= finish_plain,
            "undo must not slow the flow ({finish_undo} vs {finish_plain})"
        );
    }

    #[test]
    fn genuine_timeouts_are_not_undone() {
        // A real downlink outage: the data is genuinely lost, so the first
        // ACK after recovery arrives a full backed-off RTO later — far
        // past the undo deadline.
        let mut w = world(
            13,
            SenderConfig {
                max_segments: Some(400),
                spurious_rto_undo: true,
                ..Default::default()
            },
            ReceiverConfig::default(),
            0.0,
            0.0,
        );
        w.eng.impose(
            w.down,
            SimTime::from_millis(280),
            SimTime::from_millis(1_500),
            Impairment::outage(1.0),
        );
        w.eng.run_until_idle();
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        assert!(tx.metrics.timeout_count() >= 1);
        assert_eq!(
            tx.metrics.spurious_rto_undone, 0,
            "a genuine loss must not trigger the undo"
        );
    }

    /// A delayed-but-not-lost ACK-burst storm: `episodes` delay spikes on
    /// the uplink (paper Fig. 5 — the ACKs all arrive, late and bunched).
    fn flap_storm(episodes: &[(u64, u64, u64)]) -> hsm_simnet::chaos::StormPlan {
        use hsm_simnet::chaos::{StormEpisode, StormKind, StormPlan};
        StormPlan {
            episodes: episodes
                .iter()
                .map(|&(at, dur, extra)| StormEpisode {
                    at: SimTime::from_millis(at),
                    duration: SimDuration::from_millis(dur),
                    kind: StormKind::Flap(SimDuration::from_millis(extra)),
                })
                .collect(),
        }
    }

    fn flap_world(seed: u64, recovery: crate::recovery::Recovery) -> World {
        let mut w = world(
            seed,
            SenderConfig {
                max_segments: Some(600),
                recovery,
                ..Default::default()
            },
            ReceiverConfig::default(),
            0.0,
            0.0,
        );
        flap_storm(&[(400, 800, 800), (2_500, 800, 800)]).impose(&mut w.eng, w.up);
        w
    }

    #[test]
    fn frto_undoes_the_delay_storm_timeout_and_beats_no_recovery() {
        use crate::recovery::Recovery;
        let run = |recovery| {
            let mut w = flap_world(17, recovery);
            w.eng.run_until_idle();
            let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
            (
                tx.metrics.spurious_rto_undone,
                tx.metrics.frto_probes,
                tx.metrics.retransmissions,
                w.eng.now(),
            )
        };
        let (undone, probes, retx, finish) = run(Recovery::Frto);
        let (undone_none, _, retx_none, finish_none) = run(Recovery::None);
        assert_eq!(undone_none, 0);
        assert!(undone >= 1, "delay storm must be detected as spurious");
        assert!(probes >= 1, "F-RTO must have probed with new data");
        assert!(
            retx <= retx_none,
            "F-RTO must not retransmit more than plain recovery ({retx} vs {retx_none})"
        );
        assert!(
            finish <= finish_none,
            "undoing a spurious collapse must not slow the flow ({finish:?} vs {finish_none:?})"
        );
    }

    #[test]
    fn the_jump_rule_arms_only_on_a_ladders_first_rung() {
        // A pure ACK blackout that spans two rungs: every segment and both
        // retransmissions arrive, only their ACKs die, so the first ACK
        // through jumps past the recovery point.
        let run = |recovery| {
            let mut w = world(
                24,
                SenderConfig {
                    max_segments: Some(1_000),
                    spurious_rto_undo: true,
                    recovery,
                    ..Default::default()
                },
                ReceiverConfig::default(),
                0.0,
                0.0,
            );
            w.eng.impose(
                w.up,
                SimTime::from_millis(400),
                SimTime::from_millis(1_600),
                Impairment::outage(1.0),
            );
            w.eng.run_until_idle();
            let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
            (tx.metrics.timeout_count(), tx.metrics.spurious_rto_undone)
        };
        // Alone, the jump rule arms at rung 1 and undoes the ladder.
        let (timeouts, undone) = run(Recovery::None);
        assert!(timeouts >= 2, "the blackout must span two rungs");
        assert_eq!(undone, 1);
        // With F-RTO, F-RTO takes rung 1 and stands down at rung 2 (the
        // retransmission is lost too). Rung 2 is no first rung: its
        // snapshot would be the controller rung 1 already collapsed, so
        // the jump rule stays unarmed and nothing is undone.
        let (timeouts, undone) = run(Recovery::Frto);
        assert!(timeouts >= 2, "the blackout must span two rungs");
        assert_eq!(undone, 0);
    }

    #[test]
    fn frto_leaves_genuine_loss_ladders_untouched() {
        use crate::recovery::Recovery;
        // Same genuine whole-window loss as
        // `consecutive_timeouts_double_the_timer`, now with F-RTO enabled:
        // the ladder must still escalate (the RFC's "retransmission is
        // lost too" path disengages the probe) and nothing may be undone.
        let mut w = world(
            5,
            SenderConfig {
                max_segments: Some(50),
                recovery: Recovery::Frto,
                ..Default::default()
            },
            ReceiverConfig::default(),
            0.0,
            0.0,
        );
        w.eng.impose(
            w.down,
            SimTime::from_millis(260),
            SimTime::from_millis(4_000),
            Impairment::outage(1.0),
        );
        w.eng.run_until_idle();
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        assert_eq!(tx.metrics.spurious_rto_undone, 0);
        let rtos = &tx.metrics.rto_at_timeout;
        assert!(rtos.len() >= 3, "rtos: {rtos:?}");
        for pair in rtos.windows(2) {
            assert!(pair[1] >= pair[0] * 1.9, "backoff not doubling: {rtos:?}");
        }
        let rx = w.eng.agent_mut::<Receiver>(w.rx).unwrap();
        assert_eq!(rx.next_expected(), SeqNo(50), "flow still completes");
    }

    #[test]
    fn frto_spurious_undo_resets_the_backoff_ladder() {
        use crate::recovery::Recovery;
        let mut w = flap_world(18, Recovery::Frto);
        w.eng.run_until_idle();
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        assert!(tx.metrics.spurious_rto_undone >= 1);
        // The advancing ACKs that resolved the (spurious) episodes reset
        // the ladder: the flow must end with no half-climbed backoff.
        assert_eq!(tx.backoff().consecutive_timeouts(), 0);
        let rx = w.eng.agent_mut::<Receiver>(w.rx).unwrap();
        assert_eq!(rx.next_expected(), SeqNo(600));
    }

    #[test]
    fn redundant_rto_rides_a_successor_through_timeout_recovery() {
        use crate::recovery::Recovery;
        let run = |recovery| {
            let mut w = world(
                4,
                SenderConfig {
                    max_segments: Some(400),
                    recovery,
                    ..Default::default()
                },
                ReceiverConfig::default(),
                0.0,
                0.0,
            );
            w.eng.impose(
                w.down,
                SimTime::from_millis(280),
                SimTime::from_millis(1_200),
                Impairment::outage(1.0),
            );
            w.eng.run_until_idle();
            let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
            let timeouts = tx.metrics.timeout_count();
            let retx = tx.metrics.retransmissions;
            let rx = w.eng.agent_mut::<Receiver>(w.rx).unwrap();
            assert_eq!(rx.next_expected(), SeqNo(400), "flow completes");
            (timeouts, retx)
        };
        let (timeouts, retx) = run(Recovery::RedundantRto);
        let (_, retx_none) = run(Recovery::None);
        assert!(timeouts >= 1);
        // The paired successor is a real extra transmission.
        assert!(
            retx > retx_none,
            "successor retransmissions must show up in the ledger ({retx} vs {retx_none})"
        );
    }

    #[test]
    fn ack_robust_withholds_backoff_only_under_the_storm_signature() {
        use crate::recovery::Recovery;
        // Two delay-spike episodes: the first seeds the burst-delay
        // signature in the inter-arrival history, the second's timeout
        // withholds its backoff.
        let mut w = flap_world(19, Recovery::AckRobust);
        w.eng.run_until_idle();
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        assert!(
            tx.metrics.backoff_skipped >= 1,
            "storm signature must withhold at least one backoff (timeouts: {})",
            tx.metrics.timeout_count()
        );
        assert!(tx.metrics.backoff_skipped as usize <= tx.metrics.timeout_count());
        let rx = w.eng.agent_mut::<Receiver>(w.rx).unwrap();
        assert_eq!(rx.next_expected(), SeqNo(600));

        // A genuine whole-window loss shows a steady (not bursty) ACK
        // clock: nothing may be withheld, the ladder doubles as ever.
        let mut w = world(
            5,
            SenderConfig {
                max_segments: Some(50),
                recovery: Recovery::AckRobust,
                ..Default::default()
            },
            ReceiverConfig::default(),
            0.0,
            0.0,
        );
        w.eng.impose(
            w.down,
            SimTime::from_millis(260),
            SimTime::from_millis(4_000),
            Impairment::outage(1.0),
        );
        w.eng.run_until_idle();
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        assert_eq!(tx.metrics.backoff_skipped, 0);
        let rtos = &tx.metrics.rto_at_timeout;
        for pair in rtos.windows(2) {
            assert!(pair[1] >= pair[0] * 1.9, "backoff not doubling: {rtos:?}");
        }
    }

    #[test]
    fn karn_rule_no_sample_from_the_ambiguous_retransmit() {
        use crate::recovery::Recovery;
        // A single segment whose ACKs keep dying: every ACK the sender
        // finally gets acknowledges a retransmitted segment, so Karn's
        // rule forbids every RTT sample — with or without F-RTO armed.
        for recovery in [Recovery::None, Recovery::Frto] {
            let mut w = world(
                21,
                SenderConfig {
                    max_segments: Some(1),
                    recovery,
                    ..Default::default()
                },
                ReceiverConfig::default(),
                0.0,
                0.0,
            );
            w.eng.impose(
                w.up,
                SimTime::from_millis(20),
                SimTime::from_millis(1_500),
                Impairment::outage(1.0),
            );
            w.eng.run_until_idle();
            let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
            assert!(tx.metrics.timeout_count() >= 1, "{recovery:?}");
            assert_eq!(
                tx.rtt().samples(),
                0,
                "{recovery:?}: ambiguous retransmit must not be RTT-sampled"
            );
            let rx = w.eng.agent_mut::<Receiver>(w.rx).unwrap();
            assert_eq!(rx.next_expected(), SeqNo(1));
        }
    }

    #[test]
    fn default_recovery_is_none_and_composes_with_the_cc_zoo() {
        use crate::recovery::Recovery;
        assert_eq!(SenderConfig::default().recovery, Recovery::None);
        // Every (recovery × cc) pair must complete a lossy flow.
        for recovery in Recovery::ALL {
            for algorithm in Algorithm::zoo() {
                let mut w = world(
                    23,
                    SenderConfig {
                        max_segments: Some(120),
                        recovery,
                        algorithm,
                        ..Default::default()
                    },
                    ReceiverConfig::default(),
                    0.01,
                    0.01,
                );
                w.eng.run_until(SimTime::from_secs(120));
                let rx = w.eng.agent_mut::<Receiver>(w.rx).unwrap();
                assert_eq!(
                    rx.next_expected(),
                    SeqNo(120),
                    "{recovery:?} × {algorithm:?} must complete"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut w = world(
                seed,
                SenderConfig {
                    max_segments: Some(500),
                    ..Default::default()
                },
                ReceiverConfig::default(),
                0.01,
                0.005,
            );
            w.eng.run_until_idle();
            let rows: Vec<_> = w.eng.arena().iter().collect();
            let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
            (tx.metrics.segments_sent, tx.metrics.timeouts.clone(), rows)
        };
        assert_eq!(run(42), run(42));
    }

    /// A 600-segment NewReno flow, every segment ACKed; returns
    /// `(delivered, timeouts, fast retransmits)`.
    fn run_newreno(seed: u64, multi_loss: bool) -> (u64, usize, usize) {
        let mut w = world(
            seed,
            SenderConfig {
                max_segments: Some(600),
                newreno: true,
                ..Default::default()
            },
            ReceiverConfig {
                b: 1,
                adaptive: false,
            },
            0.0,
            0.0,
        );
        if multi_loss {
            // A short surgical outage: several segments of one window die
            // -> partial-ACK territory.
            w.eng.impose(
                w.down,
                SimTime::from_millis(400),
                SimTime::from_millis(406),
                Impairment::outage(1.0),
            );
        }
        w.eng.run_until_idle();
        let tx = w.eng.agent_mut::<RenoSender>(w.tx).unwrap();
        let (timeouts, fast) = (tx.metrics.timeouts.len(), tx.metrics.fast_retransmits.len());
        let rx = w.eng.agent_mut::<Receiver>(w.rx).unwrap();
        (rx.next_expected().as_u64(), timeouts, fast)
    }

    #[test]
    fn newreno_completes_cleanly_without_loss() {
        assert_eq!(run_newreno(1, false), (600, 0, 0));
    }

    #[test]
    fn newreno_repairs_multi_loss_window() {
        let (delivered, _timeouts, fast) = run_newreno(2, true);
        assert_eq!(delivered, 600, "all segments eventually delivered");
        assert!(fast >= 1, "expected a fast-retransmit recovery");
    }

    #[test]
    fn veno_beats_reno_under_pure_random_loss() {
        use crate::connection::{run_connection, ConnectionConfig, PathSpec};

        // Pure random loss, no queueing congestion: Veno's sweet spot.
        let path = PathSpec {
            down_loss: LossModel::Bernoulli(0.005),
            ..Default::default()
        };
        let throughput = |algorithm, seed| {
            let cfg = ConnectionConfig {
                sender: SenderConfig {
                    algorithm,
                    stop_after: Some(SimDuration::from_secs(40)),
                    ..Default::default()
                },
                deadline: SimTime::from_secs(50),
                ..Default::default()
            };
            let out = run_connection(seed, &path, None, &cfg);
            hsm_trace::summary::analyze_flow(&out.trace, &Default::default())
                .summary
                .throughput_sps
        };
        let sum = |algorithm| {
            (60..63)
                .map(|seed| throughput(algorithm, seed))
                .sum::<f64>()
        };
        let (veno, reno) = (sum(Algorithm::Veno), sum(Algorithm::Reno));
        assert!(
            veno > reno * 1.05,
            "Veno {veno} should clearly beat Reno {reno} under random loss"
        );
    }
}
