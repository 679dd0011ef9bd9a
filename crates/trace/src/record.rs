//! Flow traces.
//!
//! A [`FlowTrace`] is the dual-endpoint view of one TCP flow — what you
//! would get by running wireshark on both the phone and the server, as the
//! paper's testers did: for every transmitted packet, when it was sent and
//! when (or whether) it arrived.

use hsm_simnet::time::{SimDuration, SimTime};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, PoisonError};

/// One packet transmission, as seen from both endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PacketRecord {
    /// Engine-global packet id.
    pub id: u64,
    /// Data sequence number, or cumulative-ACK value for ACKs (MSS units).
    pub seq: u64,
    /// True for ACKs (travelling receiver → sender).
    pub is_ack: bool,
    /// True for data retransmissions.
    pub retransmit: bool,
    /// Number of data segments this ACK acknowledges (`b`); 0 for data.
    pub acked_count: u32,
    /// Wire size in bytes.
    pub size_bytes: u32,
    /// When the packet entered the network.
    pub sent_at: SimTime,
    /// When it arrived — `None` means it was lost. (Fig. 1 plots lost
    /// packets at −1 for exactly this reason.)
    pub arrived_at: Option<SimTime>,
}

impl PacketRecord {
    /// True if the packet was lost in transit.
    pub fn lost(&self) -> bool {
        self.arrived_at.is_none()
    }

    /// One-way latency, if the packet arrived.
    pub fn latency(&self) -> Option<SimDuration> {
        self.arrived_at.map(|a| a.saturating_since(self.sent_at))
    }
}

/// A flow's provider or scenario label: a `&'static str`, so it is `Copy`
/// and a summary holding two of them is plain data — cloning one (a
/// memory-cache hit does) is a copy, and dropping one touches nothing.
///
/// A label from a literal (`Provider::name`, `Motion::label`) is free:
/// `From<&'static str>` wraps the pointer. A label made from any other
/// string — one read from outside (a decoded disk entry, a deserialized
/// shard report) or built at run time — goes through [`Label::intern`],
/// one process-wide set that leaks each *distinct* string once, so
/// interning a string already in it allocates nothing. The set refuses a
/// new string once it holds [`Label::MAX_INTERNED`], so a forged cache
/// tier cannot grow it without bound. The paper's Table I needs five:
/// three carriers, two scenarios.
///
/// The bound counts interned strings only, and a literal label is never
/// interned: once outside input has filled the set, a report naming even
/// a literal such as `"China Mobile"` fails to parse, unless the set met
/// that string before it filled.
///
/// Equality, order, hashing, `Debug`, `Display` and serde are `str`'s: two
/// labels compare by content, never by pointer, so a literal and an
/// interned copy of one string are the same label.
#[derive(Clone, Copy)]
pub struct Label(&'static str);

impl Label {
    /// The most distinct strings [`Label::intern`] lets the process leak.
    pub const MAX_INTERNED: usize = 1_024;

    /// The one interned copy of `s`, leaked the first time the process
    /// meets it, or `None` if `s` is new and the set already holds
    /// [`Label::MAX_INTERNED`] strings.
    pub fn intern(s: &str) -> Option<Label> {
        static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        // The one update is an insert of a string already leaked, so a
        // panic elsewhere while the lock was held left the set valid.
        let mut set = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&seen) = set.get(s) {
            return Some(Label(seen));
        }
        if set.len() >= Label::MAX_INTERNED {
            return None;
        }
        let leaked: &'static str = Box::leak(Box::from(s));
        set.insert(leaked);
        Some(Label(leaked))
    }
}

impl From<&'static str> for Label {
    fn from(s: &'static str) -> Label {
        Label(s)
    }
}

impl std::ops::Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        self.0 == other.0
    }
}

impl Eq for Label {}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Label) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Label) -> std::cmp::Ordering {
        self.0.cmp(other.0)
    }
}

impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.0, f)
    }
}

impl Serialize for Label {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for Label {
    fn from_value(v: &Value) -> Result<Label, DeError> {
        match v {
            Value::Str(s) => Label::intern(s).ok_or_else(|| {
                DeError::custom(format!(
                    "label {s:?} is new and the process already holds {} labels",
                    Label::MAX_INTERNED
                ))
            }),
            other => Err(DeError::expected("string", other)),
        }
    }
}

/// Static facts about a flow that a pure packet capture cannot know; the
/// TCP layer fills these in when producing the trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FlowMeta {
    /// Human label of the ISP profile ("China Mobile", …).
    pub provider: Label,
    /// Scenario label ("high-speed", "stationary", …).
    pub scenario: Label,
    /// Receiver-advertised window limitation, segments (`W_m`).
    pub w_m: u32,
    /// Delayed-ACK factor (`b`): data segments acknowledged per ACK.
    pub b: u32,
}

impl Default for FlowMeta {
    fn default() -> Self {
        FlowMeta {
            provider: "unknown".into(),
            scenario: "unknown".into(),
            w_m: 64,
            b: 1,
        }
    }
}

/// The full two-endpoint trace of one TCP flow.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FlowTrace {
    /// Flow id within the dataset.
    pub flow: u32,
    /// Flow facts from the TCP layer.
    pub meta: FlowMeta,
    /// All packet transmissions in send order.
    pub records: Vec<PacketRecord>,
}

impl FlowTrace {
    /// Creates an empty trace for a flow.
    pub fn new(flow: u32, meta: FlowMeta) -> FlowTrace {
        FlowTrace {
            flow,
            meta,
            records: Vec::new(),
        }
    }

    /// Iterator over data records, in send order.
    pub fn data(&self) -> impl Iterator<Item = &PacketRecord> {
        self.records.iter().filter(|r| !r.is_ack)
    }

    /// Iterator over ACK records, in send order.
    pub fn acks(&self) -> impl Iterator<Item = &PacketRecord> {
        self.records.iter().filter(|r| r.is_ack)
    }

    /// First send time, if the trace is non-empty.
    pub fn start(&self) -> Option<SimTime> {
        self.records.iter().map(|r| r.sent_at).min()
    }

    /// Last event time (send or arrival), if non-empty.
    pub fn end(&self) -> Option<SimTime> {
        self.records
            .iter()
            .map(|r| r.arrived_at.unwrap_or(r.sent_at))
            .max()
    }

    /// Flow duration from first send to last event.
    pub fn duration(&self) -> SimDuration {
        match (self.start(), self.end()) {
            (Some(s), Some(e)) => e.saturating_since(s),
            _ => SimDuration::ZERO,
        }
    }

    /// Sorts records by send time (stable); capture emits them in order,
    /// but synthetic traces built by tests may not.
    pub fn sort_by_send_time(&mut self) {
        self.records.sort_by_key(|r| (r.sent_at, r.id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, is_ack: bool, sent_ms: u64, arrived_ms: Option<u64>) -> PacketRecord {
        PacketRecord {
            id: seq * 2 + u64::from(is_ack),
            seq,
            is_ack,
            retransmit: false,
            acked_count: u32::from(is_ack),
            size_bytes: if is_ack { 40 } else { 1500 },
            sent_at: SimTime::from_millis(sent_ms),
            arrived_at: arrived_ms.map(SimTime::from_millis),
        }
    }

    #[test]
    fn lost_and_latency() {
        let ok = rec(1, false, 10, Some(40));
        assert!(!ok.lost());
        assert_eq!(ok.latency(), Some(SimDuration::from_millis(30)));
        let dead = rec(2, false, 10, None);
        assert!(dead.lost());
        assert_eq!(dead.latency(), None);
    }

    #[test]
    fn trace_partitions_and_bounds() {
        let mut t = FlowTrace::new(0, FlowMeta::default());
        t.records.push(rec(0, false, 0, Some(30)));
        t.records.push(rec(1, true, 35, Some(65)));
        t.records.push(rec(1, false, 70, None));
        assert_eq!(t.data().count(), 2);
        assert_eq!(t.acks().count(), 1);
        assert_eq!(t.start(), Some(SimTime::ZERO));
        assert_eq!(t.end(), Some(SimTime::from_millis(70)));
        assert_eq!(t.duration(), SimDuration::from_millis(70));
    }

    #[test]
    fn empty_trace_duration_zero() {
        let t = FlowTrace::new(0, FlowMeta::default());
        assert_eq!(t.duration(), SimDuration::ZERO);
        assert_eq!(t.start(), None);
    }

    #[test]
    fn sort_by_send_time_orders() {
        let mut t = FlowTrace::new(0, FlowMeta::default());
        t.records.push(rec(5, false, 50, None));
        t.records.push(rec(1, false, 10, Some(40)));
        t.sort_by_send_time();
        assert_eq!(t.records[0].seq, 1);
    }

    fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn static_and_interned_labels_are_their_strings() {
        let literal = Label::from("China Mobile");
        let interned = Label::intern(&String::from("China Mobile")).unwrap();
        assert!(!std::ptr::eq(&*literal, &*interned));
        assert_eq!(literal, interned);
        assert_eq!(hash_of(&literal), hash_of(&interned));
        assert_eq!(hash_of(&literal), hash_of("China Mobile"));
        assert_ne!(literal, Label::from("China Unicom"));
        let mut labels = [
            Label::from("stationary"),
            Label::intern("China Unicom").unwrap(),
            Label::from("China Mobile"),
            Label::intern(&String::from("high-speed")).unwrap(),
            Label::intern("China Mobile").unwrap(),
        ];
        labels.sort();
        let texts = labels.map(|label| label.to_string());
        let mut strings = texts.clone();
        strings.sort();
        assert_eq!(texts, strings);
        assert_eq!(texts[..2], ["China Mobile"; 2]);
    }

    #[test]
    fn interning_a_string_twice_returns_one_copy() {
        let first = Label::intern(&format!("p{}", 17)).unwrap();
        let again = Label::intern("p17").unwrap();
        let owned = Label::intern(&String::from("p17")).unwrap();
        assert!(std::ptr::eq(&*first, &*again));
        assert!(std::ptr::eq(&*first, &*owned));
    }

    /// The strings were printed by the same statements when the labels
    /// were `Arc<str>`s.
    #[test]
    fn a_label_formats_and_serializes_as_its_string() {
        let meta = FlowMeta {
            provider: "tab\there \"q\" é".into(),
            scenario: Label::intern("s").unwrap(),
            w_m: 1,
            b: 2,
        };
        assert_eq!(
            format!("{meta:?}"),
            r#"FlowMeta { provider: "tab\there \"q\" é", scenario: "s", w_m: 1, b: 2 }"#
        );
        assert_eq!(
            format!(
                "{:>14}|{:<4}|{:.3}",
                meta.scenario, meta.scenario, meta.provider
            ),
            "             s|s   |tab"
        );
        let json = serde_json::to_string(&meta).unwrap();
        assert_eq!(
            json,
            r#"{"provider":"tab\there \"q\" é","scenario":"s","w_m":1,"b":2}"#
        );
        let provider = serde_json::to_string(&meta.provider).unwrap();
        assert_eq!(
            serde_json::from_str::<Label>(&provider).unwrap(),
            meta.provider
        );
    }
}
