//! Labels read from outside cannot grow the process-wide label set
//! without bound. A disk entry is CRC-checked, not trusted: a forged tier
//! whose every entry carries a new label would leak one string per entry
//! for the life of the process. Once the set holds `Label::MAX_INTERNED`
//! labels, an entry with a new label decodes as corrupt (and its flow is
//! re-simulated), and a report naming a new label fails to parse — even
//! a literal one such as "China Mobile", which the set never met.
//!
//! One test, because the set is process-global: nothing else in this
//! process interns a label, so the set starts empty.

use hsm::runtime::{CacheConfig, CacheKey, FlowCache};
use hsm::trace::record::Label;
use hsm::trace::summary::FlowSummary;

/// A summary whose two labels are the same new string, leaked here
/// without going through the set.
fn forged(i: usize) -> FlowSummary {
    let label = Label::from(&*Box::leak(format!("forged-{i}").into_boxed_str()));
    FlowSummary {
        flow: 0,
        provider: label,
        scenario: label,
        rtt_s: 0.065,
        p_d: 0.0075,
        data_sent: 1000,
        p_a: 0.006,
        p_a_burst: 0.05,
        acks_per_round: 12.0,
        q_hat: 0.27,
        timeouts: 4,
        spurious_timeouts: 2,
        timeout_sequences: 3,
        mean_recovery_s: 5.0,
        t_rto_s: 0.8,
        loss_indications: 5,
        fast_retransmissions: 2,
        w_m: 48,
        b: 2,
        throughput_sps: 321.5,
        goodput_sps: 300.25,
        duration_s: 120.0,
    }
}

/// Reads every key through a fresh disk-only cache over `dir`: how many
/// decoded, and the cache with its counters.
fn read_all(dir: &std::path::Path, entries: usize) -> (usize, FlowCache) {
    let cache = FlowCache::new(CacheConfig {
        memory_entries: 0,
        disk_dir: Some(dir.to_path_buf()),
    });
    let hits = (0..entries)
        .filter(|&i| cache.lookup(CacheKey(i as u64)).is_some())
        .count();
    (hits, cache)
}

#[test]
fn a_forged_tier_cannot_grow_the_label_set_past_its_bound() {
    let dir = std::env::temp_dir().join(format!("hsm_label_bound_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let excess = 64;
    let entries = Label::MAX_INTERNED + excess;
    let writer = FlowCache::new(CacheConfig {
        memory_entries: 0,
        disk_dir: Some(dir.clone()),
    });
    for i in 0..entries {
        writer
            .insert(CacheKey(i as u64), &forged(i))
            .expect("entry publishes");
    }

    // Each entry brings one new label: the first MAX_INTERNED fill the
    // set, and every one after is refused and counted corrupt.
    let (hits, cache) = read_all(&dir, entries);
    assert_eq!(hits, Label::MAX_INTERNED);
    let stats = cache.stats();
    assert_eq!(stats.disk_hits, Label::MAX_INTERNED as u64);
    assert_eq!(stats.corrupt_entries, excess as u64);
    assert_eq!(stats.misses, excess as u64);

    // The set stopped growing: a second pass decodes the same entries,
    // whose labels it holds, and refuses the same excess.
    let (again, cache) = read_all(&dir, entries);
    assert_eq!(again, Label::MAX_INTERNED);
    assert_eq!(cache.stats().corrupt_entries, excess as u64);

    // A report is read through the same bound: a label already held
    // parses, a new one does not.
    let held: Label = serde_json::from_str("\"forged-0\"").expect("a held label parses");
    assert_eq!(&*held, "forged-0");
    let refused = serde_json::from_str::<Label>(&format!("\"forged-{entries}\""));
    assert!(refused.is_err(), "a new label parsed past the bound");

    // The bound counts interned strings, and a literal label is never
    // interned: once the set is full, a report naming a literal the set
    // has not met is refused too. `repro run --shards 1` therefore merges
    // the report it holds instead of reading its own file back.
    let literal = serde_json::from_str::<Label>("\"China Mobile\"");
    assert!(
        literal.is_err(),
        "a literal label outside the set parsed past the bound"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
