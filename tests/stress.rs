//! Stress-shape determinism: the campaign engine must produce a
//! byte-identical summary stream for every worker count × cache state
//! combination, on the many-short-flows load where scheduling, sharded
//! cache and slot collection — not per-flow simulation — dominate.
//!
//! The flow count here is smoke-sized (CI runs this on every push); the
//! full 2,040-flow load is `benchmark/`'s `stress-warm-mem` /
//! `stress-warm-disk` workloads.

use hsm::prelude::*;
use hsm::scenario::dataset::{plan_dataset, DatasetConfig};
use hsm::simnet::time::SimDuration;

/// The Stress dataset shape (2 s flows, every provider × campaign mix)
/// scaled down to ~25 flows so the suite stays fast.
fn stress_configs() -> Vec<ScenarioConfig> {
    let cfg = DatasetConfig {
        scale: 0.1,
        flow_duration: SimDuration::from_secs(2),
        ..Default::default()
    };
    let plan: Vec<ScenarioConfig> = plan_dataset(&cfg).into_iter().map(|(_, c)| c).collect();
    assert!(plan.len() >= 12, "plan too small: {}", plan.len());
    plan
}

fn summary_bytes(output: &CampaignOutput) -> Vec<String> {
    output
        .summaries()
        .map(|s| serde_json::to_string(s).expect("summary serializes"))
        .collect()
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hsm_stress_{tag}_{}", std::process::id()))
}

#[test]
fn stress_streams_identical_across_workers_and_cache_states() -> Result<(), hsm::Error> {
    let configs = stress_configs();
    let disk_dir = unique_dir("matrix");
    let _ = std::fs::remove_dir_all(&disk_dir);

    let campaign_for = |workers: usize| -> Result<Campaign, hsm::Error> {
        Ok(Campaign::builder()
            .configs(configs.clone())
            .workers(workers)
            .build()?)
    };

    // Reference stream: cold, single worker.
    let reference = summary_bytes(&campaign_for(1)?.run()?);
    assert_eq!(reference.len(), configs.len());

    for workers in [1usize, 2, 8] {
        let campaign = campaign_for(workers)?;

        // Cold: private, empty memory cache.
        let cold = campaign.run()?;
        assert_eq!(cold.report.cache_hits, 0, "workers {workers}: cold run");
        assert_eq!(summary_bytes(&cold), reference, "cold × {workers} workers");

        // Warm memory: second pass against one shared in-memory cache.
        let mem = FlowCache::new(CacheConfig::memory_only());
        campaign.run_with_cache(&mem)?;
        let warm_mem = campaign.run_with_cache(&mem)?;
        assert_eq!(
            warm_mem.report.cache_hits,
            configs.len(),
            "workers {workers}: warm-memory run must not re-simulate"
        );
        assert_eq!(
            summary_bytes(&warm_mem),
            reference,
            "warm-memory × {workers} workers"
        );

        // Warm disk: fresh memory tier, shared persistent disk tier. The
        // first worker count populates it; later ones are served from it.
        let disk = FlowCache::new(CacheConfig {
            memory_entries: 0,
            disk_dir: Some(disk_dir.clone()),
        });
        let from_disk = campaign.run_with_cache(&disk)?;
        assert_eq!(
            summary_bytes(&from_disk),
            reference,
            "warm-disk × {workers} workers"
        );
        if workers > 1 {
            assert_eq!(
                from_disk.report.cache_hits,
                configs.len(),
                "workers {workers}: disk tier populated by the first pass"
            );
            assert!(from_disk.report.disk_hits > 0);
        }
    }

    // Bit-flip one persisted entry: the integrity hash must reject it, the
    // flow must be re-simulated (never served corrupt), and the campaign
    // must surface exactly that one rejection in its telemetry.
    let victim = hsm::runtime::cache::CacheKey::of(&configs[2]);
    assert!(
        hsm::runtime::cache::chaos_corrupt_disk_entry(&disk_dir, victim)
            .expect("corruption helper reaches the disk tier"),
        "victim entry must exist on disk before corruption"
    );
    let poisoned = FlowCache::new(CacheConfig {
        memory_entries: 0,
        disk_dir: Some(disk_dir.clone()),
    });
    let after_corruption = campaign_for(2)?.run_with_cache(&poisoned)?;
    assert_eq!(
        after_corruption.report.corrupt_entries, 1,
        "exactly the flipped entry is rejected"
    );
    assert_eq!(
        summary_bytes(&after_corruption),
        reference,
        "corrupted entry re-simulated, stream still byte-identical"
    );

    let _ = std::fs::remove_dir_all(&disk_dir);
    Ok(())
}

#[test]
fn stress_worker_telemetry_accounts_for_every_flow() -> Result<(), hsm::Error> {
    let configs = stress_configs();
    let n = configs.len();
    let campaign = Campaign::builder().configs(configs).workers(4).build()?;
    let out = campaign.run()?;
    assert_eq!(out.report.flows, n);
    assert_eq!(out.report.workers, 4);
    assert_eq!(out.report.worker_flows.len(), 4);
    assert_eq!(out.report.worker_flows.iter().sum::<usize>(), n);
    assert!(out.report.worker_utilization() > 0.0);
    // Slot collection must preserve campaign order: flow ids in the runs
    // match the plan order exactly.
    for (run, config) in out.runs.iter().zip(campaign.configs()) {
        assert_eq!(&run.config, config);
    }
    Ok(())
}
