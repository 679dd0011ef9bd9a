//! Cross-layer tests of the campaign engine through the `hsm` facade:
//! bit-identical results for any worker count and cache state, memoized
//! warm reruns, disk-tier integrity checking, and builder validation
//! surfacing through the unified [`hsm::Error`].

use hsm::prelude::*;
use hsm::simnet::time::SimDuration;

/// A small but non-trivial campaign: both motions, two providers, a few
/// seeds — 6 flows of 10 s each.
fn campaign_configs() -> Vec<ScenarioConfig> {
    let mut configs = Vec::new();
    for (provider, motion) in [
        (Provider::ChinaMobile, Motion::HighSpeed),
        (Provider::ChinaUnicom, Motion::HighSpeed),
        (Provider::ChinaMobile, Motion::Stationary),
    ] {
        for seed in [11u64, 12] {
            configs.push(ScenarioConfig {
                provider,
                motion,
                seed,
                duration: SimDuration::from_secs(10),
                ..Default::default()
            });
        }
    }
    configs
}

/// Serializes the deterministic result stream for byte comparison.
fn summary_bytes(output: &CampaignOutput) -> Vec<String> {
    output
        .summaries()
        .map(|s| serde_json::to_string(s).expect("summary serializes"))
        .collect()
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hsm_campaign_{tag}_{}", std::process::id()))
}

#[test]
fn results_are_bit_identical_across_workers_and_cache_states() -> Result<(), hsm::Error> {
    let configs = campaign_configs();
    let cache = FlowCache::new(CacheConfig::memory_only());

    let mut streams = Vec::new();
    for workers in [1usize, 2, 8] {
        let campaign = Campaign::builder()
            .configs(configs.clone())
            .workers(workers)
            .build()?;
        // First pass at this worker count may be cold or warm depending on
        // the shared cache's state — the stream must not care.
        streams.push(summary_bytes(&campaign.run_with_cache(&cache)?));
        // And a fully cold run against a private cache.
        streams.push(summary_bytes(&campaign.run()?));
    }
    let reference = &streams[0];
    assert_eq!(reference.len(), configs.len());
    for stream in &streams[1..] {
        assert_eq!(stream, reference, "summary stream must be bit-identical");
    }
    Ok(())
}

#[test]
fn queue_swap_keeps_per_flow_event_streams_identical_across_workers() -> Result<(), hsm::Error> {
    // Regression guard for the slab-indexed event queue: it must break
    // same-instant ties by insertion sequence exactly like the old
    // (heap + hash-map) queue did, no matter how flows are sharded over
    // workers. If tie-breaking ever drifted, the per-flow simulator event
    // counts — not just the summaries — would diverge between a serial
    // and a parallel campaign.
    let configs = campaign_configs();
    let run = |workers: usize| -> Result<(Vec<u64>, Vec<String>), hsm::Error> {
        let campaign = Campaign::builder()
            .configs(configs.clone())
            .workers(workers)
            .build()?;
        let output = campaign.run()?;
        let events: Vec<u64> = output.runs.iter().map(|r| r.events).collect();
        Ok((events, summary_bytes(&output)))
    };
    let (events_1, summaries_1) = run(1)?;
    let (events_8, summaries_8) = run(8)?;
    assert_eq!(
        events_1, events_8,
        "per-flow event counts diverged across worker counts"
    );
    assert_eq!(
        summaries_1, summaries_8,
        "serialized summaries diverged across worker counts"
    );
    assert!(
        events_1.iter().all(|&e| e > 0),
        "every flow must process events"
    );
    Ok(())
}

#[test]
fn warm_rerun_is_served_entirely_from_the_cache() -> Result<(), hsm::Error> {
    let campaign = Campaign::builder()
        .configs(campaign_configs())
        .workers(2)
        .build()?;
    let cache = FlowCache::new(CacheConfig::memory_only());

    let cold = campaign.run_with_cache(&cache)?;
    assert_eq!(cold.report.cache_hits, 0);
    assert_eq!(cold.report.cache_misses, cold.report.flows);
    assert!(cold.report.events_processed > 0);

    let warm = campaign.run_with_cache(&cache)?;
    assert_eq!(
        warm.report.cache_hits, warm.report.flows,
        "zero re-simulations"
    );
    assert_eq!(warm.report.cache_misses, 0);
    assert_eq!(warm.report.events_processed, 0);
    assert_eq!(summary_bytes(&cold), summary_bytes(&warm));
    Ok(())
}

/// A cold 2-worker campaign over a fresh disk-only tier.
struct ColdDiskTier {
    campaign: Campaign,
    disk: CacheConfig,
    cold: CampaignOutput,
    /// The published entry files, in name order.
    entries: Vec<std::path::PathBuf>,
}

impl ColdDiskTier {
    fn populate(tag: &str) -> Result<ColdDiskTier, hsm::Error> {
        let dir = unique_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::builder()
            .configs(campaign_configs())
            .workers(2)
            .build()?;
        let disk = CacheConfig {
            memory_entries: 0,
            disk_dir: Some(dir.clone()),
        };
        let cold = campaign.run_with_cache(&FlowCache::new(disk.clone()))?;
        let mut entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("disk tier exists")
            .map(|e| e.expect("dir entry").path())
            .collect();
        entries.sort();
        assert_eq!(entries.len(), cold.report.flows);
        Ok(ColdDiskTier {
            campaign,
            disk,
            cold,
            entries,
        })
    }

    /// A fresh process (fresh memory tier, same disk tier) must reject
    /// the two damaged entries, re-simulate exactly those flows, and
    /// still produce identical bytes.
    fn assert_two_entries_resimulated(self) -> Result<(), hsm::Error> {
        let rerun = self
            .campaign
            .run_with_cache(&FlowCache::new(self.disk.clone()))?;
        assert_eq!(rerun.report.corrupt_entries, 2);
        assert_eq!(rerun.report.cache_hits, rerun.report.flows - 2);
        assert_eq!(rerun.report.cache_misses, 2);
        assert_eq!(summary_bytes(&self.cold), summary_bytes(&rerun));
        let _ = std::fs::remove_dir_all(self.disk.disk_dir.expect("disk tier"));
        Ok(())
    }
}

#[test]
fn corrupt_disk_entries_are_detected_and_resimulated() -> Result<(), hsm::Error> {
    let tier = ColdDiskTier::populate("corrupt")?;
    let entries = &tier.entries;

    // Corrupt two entries two different ways: a single flipped bit in the
    // middle of one (only the CRC can expose it) and a truncation of
    // another (the length prefix exposes it).
    let mut flipped = std::fs::read(&entries[0]).expect("entry readable");
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&entries[0], flipped).expect("entry writable");
    let truncated = std::fs::read(&entries[1]).expect("entry readable");
    std::fs::write(&entries[1], &truncated[..truncated.len() - 7]).expect("entry writable");

    tier.assert_two_entries_resimulated()
}

/// What replaced "old tiers keep hitting": a tier holding anything written
/// before the `/2` engine version is not read as current. Neither a
/// pre-binary JSON document nor a well-formed binary entry stamped
/// `hsm-runtime/1` may hit.
#[test]
fn entries_from_older_engine_versions_miss_and_are_resimulated() -> Result<(), hsm::Error> {
    use hsm::runtime::codec::{crc32, decode_entry};

    let tier = ColdDiskTier::populate("old_versions")?;
    let entries = &tier.entries;

    let current = std::fs::read(&entries[0]).expect("entry readable");
    let (key, summary) = decode_entry(&current).expect("cold entry decodes");
    let json = format!(
        "{{\"key\":{key},\"engine_version\":\"hsm-runtime/1\",\"payload_hash\":0,\"summary\":{}}}",
        serde_json::to_string(&summary).expect("summary serializes")
    );
    std::fs::write(&entries[0], json).expect("entry writable");

    // Restamp a valid entry as `/1` and recompute its CRC (over everything
    // between the 9-byte header and the 4-byte trailer), so the version
    // check is the only one that can reject it.
    let mut old = std::fs::read(&entries[1]).expect("entry readable");
    let crc_at = old.len() - 4;
    assert_eq!(crc32(&old[9..crc_at]).to_le_bytes(), old[crc_at..]);
    let version = hsm::runtime::ENGINE_VERSION.as_bytes();
    let at = old
        .windows(version.len())
        .position(|w| w == version)
        .expect("engine version is stored verbatim");
    old[at..at + version.len()].copy_from_slice(b"hsm-runtime/1");
    let crc = crc32(&old[9..crc_at]);
    old[crc_at..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&entries[1], old).expect("entry writable");

    tier.assert_two_entries_resimulated()
}

#[test]
fn builder_failures_surface_through_the_unified_error() {
    let zero_window = ScenarioConfig {
        w_m: 0,
        ..Default::default()
    };
    let err: hsm::Error = zero_window
        .validate()
        .expect_err("w_m = 0 must be rejected")
        .into();
    assert!(matches!(
        err,
        hsm::Error::Scenario(ScenarioError::ZeroWindow)
    ));

    let bad = ScenarioConfig {
        b: 0,
        ..Default::default()
    };
    let campaign = Campaign::builder()
        .config(ScenarioConfig::default())
        .config(bad)
        .build();
    let err: hsm::Error = campaign
        .expect_err("invalid member must be rejected")
        .into();
    match err {
        hsm::Error::Engine(EngineError::InvalidConfig { index, source }) => {
            assert_eq!(index, 1);
            assert_eq!(source, ScenarioError::ZeroDelayedAck);
        }
        other => panic!("unexpected error: {other}"),
    }

    let err: hsm::Error = Campaign::builder()
        .config(ScenarioConfig::default())
        .workers(0)
        .build()
        .expect_err("zero workers must be rejected")
        .into();
    assert!(matches!(err, hsm::Error::Engine(EngineError::ZeroWorkers)));
}
