//! Loss-recovery countermeasures (paper §V).
//!
//! The paper's §V diagnoses *why* TCP collapses at high speed — spurious
//! RTOs from delayed (not lost) ACK bursts, and long timeout sequences
//! inflating the recovery-phase loss term `q` — and sketches remedies it
//! never implements. [`Recovery`] is the closed set of those remedies; the
//! sender ([`crate::reno::RenoSender`]) matches on it at every timeout:
//!
//! * [`Recovery::RedundantRto`] — on a timeout, retransmit the oldest
//!   unacknowledged segment *plus its successor*. Two segments give the
//!   receiver two chances to generate an advancing ACK, amortizing ACK
//!   loss across the pair (the §V-B redundancy idea applied to the
//!   recovery phase itself).
//! * [`Recovery::Frto`] — the RFC 5682 F-RTO state machine: after the
//!   first RTO retransmission, probe with up to two *new* segments;
//!   if the following ACK also advances, the original window must be
//!   arriving — the timeout was spurious, so the congestion window is
//!   restored instead of slow-starting. A duplicate ACK during the probe
//!   (or a second RTO — the "retransmission is lost too" path) declares
//!   the loss genuine and resumes conventional go-back-N.
//! * [`Recovery::AckRobust`] — an ACK-loss-robust RTO: when the recent
//!   ACK inter-arrival history shows a burst-delay signature (one
//!   outsized silence that ended in an ACK arrival, amid an otherwise
//!   steady ACK clock) the first timeout of a ladder does *not* double the
//!   backoff — the sender demands a second, corroborating silent RTO
//!   before backing off.
//!
//! [`Recovery::None`] is plain RFC 6298 recovery, the paper's measured
//! baseline. The two stateful remedies keep their state machines here as
//! crate-private types the sender owns.

use hsm_simnet::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The §V loss-recovery countermeasure a sender runs: a closed label the
/// sender matches on, threaded through `SenderConfig`, `ScenarioConfig`,
/// `DatasetConfig` and campaign specs like the congestion-control
/// `Algorithm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Recovery {
    /// Plain RFC 6298 recovery — the paper's measured baseline.
    #[default]
    None,
    /// Redundant retransmit-on-RTO: resend the oldest unacked segment and
    /// its successor, amortizing ACK loss over the pair.
    RedundantRto,
    /// RFC 5682 F-RTO spurious-timeout detection with cwnd undo.
    Frto,
    /// ACK-loss-robust RTO: require a corroborating silent RTO before
    /// backing off when recent ACK inter-arrivals look like burst delay.
    AckRobust,
}

impl Recovery {
    /// Every strategy, in canonical (study/report) order.
    pub const ALL: [Recovery; 4] = [
        Recovery::None,
        Recovery::RedundantRto,
        Recovery::Frto,
        Recovery::AckRobust,
    ];

    /// Stable display / report label (also the serde external tag).
    pub fn label(self) -> &'static str {
        match self {
            Recovery::None => "None",
            Recovery::RedundantRto => "RedundantRto",
            Recovery::Frto => "Frto",
            Recovery::AckRobust => "AckRobust",
        }
    }
}

impl fmt::Display for Recovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How the sender should treat an arriving ACK while F-RTO may be
/// probing ([`Frto::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AckDisposition {
    /// Process conventionally (the only answer of an idle machine).
    Conventional,
    /// RFC 5682 step 2b: the first ACK after the RTO retransmission
    /// advances without covering the recovery point — transmit up to two
    /// previously-unsent segments and defer the recovery decision.
    SendNewData,
    /// RFC 5682 step 3b: the probe round also advanced — the timeout was
    /// spurious. Restore the snapshot and skip go-back-N.
    SpuriousUndo,
    /// RFC 5682 step 3a: a duplicate ACK during the probe — the loss is
    /// genuine; resume conventional go-back-N from the cumulative point.
    GenuineLoss,
}

/// F-RTO probe progress (RFC 5682 §2.2, basic algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrtoState {
    /// No probe pending.
    Idle,
    /// Step 1 done: the RTO retransmission is out, waiting for the first
    /// ACK. `point` is the recovery point (`high_water` at the timeout).
    RetransmitSent {
        /// Recovery point: all data below it was outstanding at the RTO.
        point: u64,
    },
    /// Step 2b done: new-data probes are out, the next ACK decides.
    ProbeSent,
}

/// The RFC 5682 F-RTO state machine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frto {
    state: FrtoState,
}

impl Frto {
    /// An idle state machine.
    pub(crate) const IDLE: Frto = Frto {
        state: FrtoState::Idle,
    };

    /// An RTO fired: whether F-RTO arms its probe. `first` is true on the
    /// first rung of a backoff ladder; `una`/`high_water` delimit the
    /// outstanding window.
    pub(crate) fn arm(&mut self, first: bool, una: u64, high_water: u64) -> bool {
        // F-RTO only engages on the first rung of a ladder, and only when
        // data beyond the retransmitted segment is outstanding (otherwise
        // the first ACK could never disambiguate). A repeat RTO while a
        // probe is pending is the RFC's "the retransmission is lost too"
        // case: genuine loss, fall back to conventional recovery.
        let armed = first && high_water > una + 1;
        self.state = if armed {
            FrtoState::RetransmitSent { point: high_water }
        } else {
            FrtoState::Idle
        };
        armed
    }

    /// Classifies an arriving ACK (`advancing` = cumulatively new); an
    /// idle machine answers [`AckDisposition::Conventional`].
    pub(crate) fn classify(&mut self, cum: u64, advancing: bool) -> AckDisposition {
        match self.state {
            FrtoState::Idle => AckDisposition::Conventional,
            FrtoState::RetransmitSent { point } => {
                if !advancing {
                    // RFC 5682 step 2a: a duplicate ACK first — revert to
                    // conventional recovery without declaring anything.
                    self.state = FrtoState::Idle;
                    AckDisposition::Conventional
                } else if cum >= point {
                    // The first ACK covers the whole recovery point; the
                    // basic algorithm cannot separate spurious from a
                    // lucky retransmission — stay conventional (there is
                    // nothing left to go-back-N over anyway).
                    self.state = FrtoState::Idle;
                    AckDisposition::Conventional
                } else {
                    self.state = FrtoState::ProbeSent;
                    AckDisposition::SendNewData
                }
            }
            FrtoState::ProbeSent => {
                self.state = FrtoState::Idle;
                if advancing {
                    AckDisposition::SpuriousUndo
                } else {
                    AckDisposition::GenuineLoss
                }
            }
        }
    }
}

/// How much larger than the typical inter-arrival an ACK gap must be to
/// count as a delay spike rather than ordinary ACK-clock jitter.
const BURST_GAP_RATIO: f64 = 6.0;

/// Absolute floor for a delay spike, seconds — RTT-round ACK clumping
/// produces gaps far below this; real burst delays approach the RTO.
const MIN_SPIKE_S: f64 = 0.2;

/// How long a witnessed delay spike keeps vouching for "this channel
/// delays ACK bursts", seconds.
const SPIKE_MEMORY_S: f64 = 10.0;

/// The ACK-loss-robust RTO state.
///
/// The burst-delay signature: an outsized silence in the ACK stream that
/// *ended in an arrival* is direct evidence the channel delays ACK bursts
/// rather than losing them (paper Fig. 5 — a genuine loss ends in a
/// retransmission, not a late ACK). While such a spike is fresh, the
/// first RTO of a ladder re-arms at the same value instead of doubling,
/// demanding one corroborating silent RTO before the exponential ladder
/// starts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AckRobust {
    /// Arrival time of the most recent ACK.
    last_ack: Option<SimTime>,
    /// EMA of the ACK inter-arrival gap, seconds (the "ACK clock").
    typical_gap: f64,
    /// When an outsized silence last ended in an ACK arrival.
    last_spike: Option<SimTime>,
    /// A backoff was already withheld with no ACK since: the next silent
    /// RTO is the corroboration and must back off normally. (The backoff
    /// counter itself cannot serve as this latch — a withheld backoff
    /// leaves it at zero.)
    withheld: bool,
}

impl AckRobust {
    /// An empty arrival history.
    pub(crate) const NEW: AckRobust = AckRobust {
        last_ack: None,
        typical_gap: 0.0,
        last_spike: None,
        withheld: false,
    };

    /// Observes every ACK arrival (duplicate or advancing), mining the
    /// stream for the burst-delay signature.
    pub(crate) fn observe_ack(&mut self, now: SimTime) {
        if let Some(prev) = self.last_ack {
            let gap = now.saturating_since(prev).as_secs_f64();
            if self.typical_gap > 0.0
                && gap >= MIN_SPIKE_S
                && gap > self.typical_gap * BURST_GAP_RATIO
            {
                self.last_spike = Some(now);
            }
            self.typical_gap = if self.typical_gap == 0.0 {
                gap
            } else {
                self.typical_gap * 0.875 + gap * 0.125
            };
        }
        self.last_ack = Some(now);
        self.withheld = false;
    }

    /// An RTO fired at `now` (`first`: on a ladder's first rung): whether
    /// it withholds its backoff.
    pub(crate) fn skip_backoff(&mut self, now: SimTime, first: bool) -> bool {
        // Only the first rung may withhold backoff, only while a witnessed
        // delay spike is fresh, and only once per silence: a second RTO
        // with still no ACKs is the corroborating silence — back off then.
        let spike_fresh = self
            .last_spike
            .is_some_and(|at| now.saturating_since(at).as_secs_f64() <= SPIKE_MEMORY_S);
        let skip = first && !self.withheld && spike_fresh;
        if skip {
            self.withheld = true;
        }
        skip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_simnet::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn serde_uses_external_tags_and_none_is_default() {
        assert_eq!(Recovery::default(), Recovery::None);
        for (r, json) in [
            (Recovery::None, "\"None\""),
            (Recovery::RedundantRto, "\"RedundantRto\""),
            (Recovery::Frto, "\"Frto\""),
            (Recovery::AckRobust, "\"AckRobust\""),
        ] {
            assert_eq!(serde_json::to_string(&r).unwrap(), json);
            let back: Recovery = serde_json::from_str(json).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn labels_match_the_zoo() {
        let labels: Vec<&str> = Recovery::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels, ["None", "RedundantRto", "Frto", "AckRobust"]);
        for r in Recovery::ALL {
            assert_eq!(format!("{r}"), r.label());
        }
    }

    #[test]
    fn frto_spurious_path_follows_rfc_5682() {
        let mut f = Frto::IDLE;
        // Step 1: first RTO of a ladder with outstanding data arms.
        assert!(f.arm(true, 10, 30));
        // Step 2b: first ACK advances below the recovery point.
        assert_eq!(f.classify(12, true), AckDisposition::SendNewData);
        // Step 3b: the probe round advances too — spurious.
        assert_eq!(f.classify(20, true), AckDisposition::SpuriousUndo);
        // Machine is idle again.
        assert_eq!(f.classify(25, true), AckDisposition::Conventional);
    }

    #[test]
    fn frto_genuine_paths_follow_rfc_5682() {
        // 3a: duplicate ACK during the probe round → genuine.
        let mut f = Frto::IDLE;
        assert!(f.arm(true, 10, 30));
        assert_eq!(f.classify(12, true), AckDisposition::SendNewData);
        assert_eq!(f.classify(12, false), AckDisposition::GenuineLoss);

        // 2a: duplicate ACK before any advance → plain conventional.
        let mut f = Frto::IDLE;
        assert!(f.arm(true, 10, 30));
        assert_eq!(f.classify(10, false), AckDisposition::Conventional);
        assert_eq!(f.classify(12, true), AckDisposition::Conventional);

        // First ACK covers the recovery point → cannot disambiguate.
        let mut f = Frto::IDLE;
        assert!(f.arm(true, 10, 30));
        assert_eq!(f.classify(30, true), AckDisposition::Conventional);
    }

    #[test]
    fn frto_repeat_rto_is_the_retransmission_lost_path() {
        let mut f = Frto::IDLE;
        assert!(f.arm(true, 10, 30));
        // The retransmission is lost too: a second (backed-off) RTO fires
        // before any ACK. F-RTO must disengage entirely.
        assert!(!f.arm(false, 10, 30));
        assert_eq!(f.classify(12, true), AckDisposition::Conventional);
    }

    #[test]
    fn frto_does_not_arm_without_outstanding_successors() {
        let mut f = Frto::IDLE;
        assert!(!f.arm(true, 10, 11));
        assert_eq!(f.classify(11, true), AckDisposition::Conventional);
    }

    #[test]
    fn ack_robust_skips_backoff_only_on_burst_delay_signature() {
        // Steady ACK clock, then an RTO: uniform silence — genuine.
        let mut a = AckRobust::NEW;
        for i in 0..6 {
            a.observe_ack(t(100 + 20 * i));
        }
        assert!(!a.skip_backoff(t(1_000), true));

        // Steady clock with one outsized gap (the delayed burst arriving
        // late): skip the first backoff, demand corroboration.
        let mut a = AckRobust::NEW;
        for ms in [100, 120, 140, 160, 600, 620] {
            a.observe_ack(t(ms));
        }
        assert!(a.skip_backoff(t(1_200), true));
        // The corroborating (second) silent RTO must back off normally —
        // even though the withheld backoff left the ladder counter (and
        // hence `first`) unchanged.
        assert!(!a.skip_backoff(t(2_400), true));
        // An ACK arrival re-arms the single-skip budget.
        a.observe_ack(t(3_000));
        assert!(a.skip_backoff(t(4_000), true));
    }

    #[test]
    fn ack_robust_spikes_expire_and_the_first_gap_never_counts() {
        // The very first gap calibrates the ACK clock; it cannot witness
        // a spike on its own.
        let mut a = AckRobust::NEW;
        a.observe_ack(t(0));
        a.observe_ack(t(500));
        assert!(!a.skip_backoff(t(1_000), true));

        // A witnessed spike vouches now but has expired 10 s later.
        let mut a = AckRobust::NEW;
        for ms in [0, 20, 40, 60, 80, 500] {
            a.observe_ack(t(ms));
        }
        let mut late = a;
        assert!(a.skip_backoff(t(700), true));
        assert!(
            !late.skip_backoff(t(12_000), true),
            "spike memory must expire"
        );
    }
}
