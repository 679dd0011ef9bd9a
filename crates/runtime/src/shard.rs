//! Multi-process sharded campaign execution with a bit-identical merge.
//!
//! An expanded [`CampaignSpec`](hsm_scenario::spec::CampaignSpec) is a
//! flat, deterministic list of [`ScenarioConfig`]s. This module
//! partitions that list across `N` shards — shard `k` owns the
//! round-robin slice of indices `{k, k + N, k + 2N, ...}` — so each
//! shard can run in its own OS process against a shared disk cache
//! ([`crate::cache`] publishes entries atomically exactly for this).
//!
//! Every shard writes one [`ShardReport`]: the deterministic summary
//! stream of its slice plus its own (non-deterministic, telemetry-only)
//! [`CampaignReport`]. [`merge_shards`] validates that the reports form
//! a complete, mutually consistent partition and interleaves the slices
//! back into campaign order, producing a [`CampaignResult`] whose
//! serde-JSON encoding is **bit-identical** for any shard count —
//! `--shards 4` and `--shards 1` must produce the same bytes, which the
//! CI smoke pins with `cmp`.
//!
//! Telemetry (wall-clock, worker histograms) is deliberately *excluded*
//! from [`CampaignResult`]: it differs run-to-run by construction, so it
//! stays in the per-shard reports where it is still inspectable.

use crate::cache::{publish_atomic, FlowCache, ENGINE_VERSION};
use crate::engine::{Campaign, CampaignReport};
use crate::error::EngineError;
use hsm_scenario::runner::ScenarioConfig;
use hsm_trace::summary::FlowSummary;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The result of executing one shard of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Name of the spec the campaign was expanded from.
    pub spec_name: String,
    /// Digest of the full expansion
    /// ([`hsm_scenario::spec::expansion_digest`]); merging rejects
    /// reports whose digests disagree.
    pub spec_digest: u64,
    /// Engine version that executed the shard.
    pub engine_version: String,
    /// This shard's index, `0 <= shard < shards`.
    pub shard: usize,
    /// Total shard count of the partition.
    pub shards: usize,
    /// Flows in the *full* campaign (all shards together).
    pub flows_total: usize,
    /// Deterministic summary stream of this shard's slice, in slice
    /// order (campaign indices `shard`, `shard + shards`, ...).
    pub summaries: Vec<FlowSummary>,
    /// Telemetry of this shard's run (wall-clock, cache and worker
    /// counters) — non-deterministic, never merged into the aggregate.
    pub report: CampaignReport,
}

/// The deterministic merged artifact of a sharded campaign.
///
/// Contains only fields that are a pure function of the spec: its
/// serde-JSON bytes are identical for any shard count, worker count and
/// cache state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignResult {
    /// Name of the spec the campaign was expanded from.
    pub spec_name: String,
    /// Digest of the full expansion.
    pub spec_digest: u64,
    /// Engine version that executed the campaign.
    pub engine_version: String,
    /// Flows in the campaign.
    pub flows: usize,
    /// The full summary stream, in campaign (index) order.
    pub summaries: Vec<FlowSummary>,
}

/// Campaign indices owned by shard `shard` of `shards`: the round-robin
/// slice `{shard, shard + shards, ...}` below `total`. Defined for
/// `shard < shards` only, which both callers check first.
fn shard_indices(total: usize, shard: usize, shards: usize) -> impl Iterator<Item = usize> {
    (shard..total).step_by(shards)
}

/// Number of flows shard `shard` of `shards` owns out of `total`: the
/// length of [`shard_indices`], under the same precondition.
fn shard_len(total: usize, shard: usize, shards: usize) -> usize {
    total / shards + usize::from(shard < total % shards)
}

/// The canonical file name of a shard report: `shard-K-of-N.json`.
pub fn shard_file_name(shard: usize, shards: usize) -> String {
    format!("shard-{shard}-of-{shards}.json")
}

fn merge_err(detail: impl Into<String>) -> EngineError {
    EngineError::ShardMerge {
        detail: detail.into(),
    }
}

/// Executes shard `shard` of `shards` over the expanded campaign
/// `configs`, sharing `cache` with any concurrently running shards.
///
/// The slice is the round-robin one, `{shard, shard + shards, ...}`; an
/// empty slice (more shards than flows) is valid and produces an empty
/// summary stream.
///
/// # Errors
///
/// Returns [`EngineError::ShardMerge`] for an invalid partition
/// (`shards == 0` or `shard >= shards`), and propagates engine failures
/// from the underlying campaign run.
pub fn run_shard(
    spec_name: &str,
    spec_digest: u64,
    configs: &[ScenarioConfig],
    shard: usize,
    shards: usize,
    workers: Option<usize>,
    cache: &FlowCache,
) -> Result<ShardReport, EngineError> {
    if shards == 0 {
        return Err(merge_err("shard count must be >= 1"));
    }
    if shard >= shards {
        return Err(merge_err(format!(
            "shard index {shard} out of range for {shards} shards"
        )));
    }
    let slice: Vec<ScenarioConfig> = shard_indices(configs.len(), shard, shards)
        .map(|i| configs[i].clone())
        .collect();
    let mut builder = Campaign::builder().configs(slice);
    if let Some(workers) = workers {
        builder = builder.workers(workers);
    }
    let output = builder.build()?.run_with_cache(cache)?;
    Ok(ShardReport {
        spec_name: spec_name.to_owned(),
        spec_digest,
        engine_version: ENGINE_VERSION.to_owned(),
        shard,
        shards,
        flows_total: configs.len(),
        summaries: output.runs.iter().map(|r| r.summary.clone()).collect(),
        report: output.report,
    })
}

/// Folds a complete set of shard reports back into campaign order.
///
/// Validates that the reports form one consistent partition — same spec
/// name/digest/engine version/total, every shard `0..N` present exactly
/// once, every slice the exact round-robin length — then interleaves:
/// merged flow `i` is entry `i / N` of shard `i % N`.
///
/// # Errors
///
/// Returns [`EngineError::ShardMerge`] naming the first inconsistency.
pub fn merge_shards(reports: &[ShardReport]) -> Result<CampaignResult, EngineError> {
    let first = reports
        .first()
        .ok_or_else(|| merge_err("no shard reports to merge"))?;
    let shards = first.shards;
    if shards == 0 {
        return Err(merge_err("shard reports declare a shard count of 0"));
    }
    if reports.len() != shards {
        return Err(merge_err(format!(
            "expected {shards} shard reports, got {}",
            reports.len()
        )));
    }
    let mut by_shard: Vec<Option<&ShardReport>> = vec![None; shards];
    for r in reports {
        if r.shards != shards {
            return Err(merge_err(format!(
                "shard {} declares {} shards, expected {shards}",
                r.shard, r.shards
            )));
        }
        if r.spec_name != first.spec_name {
            return Err(merge_err(format!(
                "shard {} is from spec `{}`, expected `{}`",
                r.shard, r.spec_name, first.spec_name
            )));
        }
        if r.spec_digest != first.spec_digest {
            return Err(merge_err(format!(
                "shard {} has spec digest {:016x}, expected {:016x}",
                r.shard, r.spec_digest, first.spec_digest
            )));
        }
        if r.engine_version != first.engine_version {
            return Err(merge_err(format!(
                "shard {} ran engine `{}`, expected `{}`",
                r.shard, r.engine_version, first.engine_version
            )));
        }
        if r.flows_total != first.flows_total {
            return Err(merge_err(format!(
                "shard {} declares {} total flows, expected {}",
                r.shard, r.flows_total, first.flows_total
            )));
        }
        if r.shard >= shards {
            return Err(merge_err(format!(
                "shard index {} out of range for {shards} shards",
                r.shard
            )));
        }
        if by_shard[r.shard].replace(r).is_some() {
            return Err(merge_err(format!("shard {} appears twice", r.shard)));
        }
    }
    let total = first.flows_total;
    for (k, slot) in by_shard.iter().enumerate() {
        let r = slot.ok_or_else(|| merge_err(format!("shard {k} of {shards} is missing")))?;
        let expected = shard_len(total, k, shards);
        if r.summaries.len() != expected {
            return Err(merge_err(format!(
                "shard {k} carries {} summaries, expected {expected}",
                r.summaries.len()
            )));
        }
    }
    let mut summaries = Vec::with_capacity(total);
    for i in 0..total {
        let r = by_shard[i % shards].expect("all shards verified present");
        summaries.push(r.summaries[i / shards].clone());
    }
    Ok(CampaignResult {
        spec_name: first.spec_name.clone(),
        spec_digest: first.spec_digest,
        engine_version: first.engine_version.clone(),
        flows: total,
        summaries,
    })
}

/// Writes `report` to `dir` under its canonical [`shard_file_name`],
/// atomically (temp file + rename, the same protocol as the disk cache),
/// and returns the published path.
///
/// # Errors
///
/// Returns [`EngineError::ShardMerge`] when encoding or I/O fails.
pub fn write_shard_report(dir: &Path, report: &ShardReport) -> Result<PathBuf, EngineError> {
    std::fs::create_dir_all(dir).map_err(|e| {
        merge_err(format!(
            "cannot create shard directory {}: {e}",
            dir.display()
        ))
    })?;
    let text = serde_json::to_string(report)
        .map_err(|e| merge_err(format!("cannot encode shard report: {e}")))?;
    let path = dir.join(shard_file_name(report.shard, report.shards));
    publish_atomic(dir, &path, text.as_bytes())
        .map_err(|e| merge_err(format!("cannot publish shard report: {e}")))?;
    Ok(path)
}

/// Reads one shard report back from `path`.
///
/// # Errors
///
/// Returns [`EngineError::ShardMerge`] when the file cannot be read or
/// parsed.
pub fn read_shard_report(path: &Path) -> Result<ShardReport, EngineError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| merge_err(format!("cannot read shard report {}: {e}", path.display())))?;
    serde_json::from_str(&text)
        .map_err(|e| merge_err(format!("cannot parse shard report {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use hsm_scenario::runner::Motion;
    use hsm_simnet::time::SimDuration;

    fn configs(n: u32) -> Vec<ScenarioConfig> {
        (0..n)
            .map(|i| ScenarioConfig {
                motion: Motion::Stationary,
                seed: u64::from(i) + 1,
                duration: SimDuration::from_secs(2),
                flow: i,
                ..Default::default()
            })
            .collect()
    }

    fn run_partition(cfgs: &[ScenarioConfig], shards: usize) -> CampaignResult {
        let cache = FlowCache::new(CacheConfig::memory_only());
        let reports: Vec<ShardReport> = (0..shards)
            .map(|k| run_shard("t", 0xfeed, cfgs, k, shards, Some(2), &cache).unwrap())
            .collect();
        merge_shards(&reports).unwrap()
    }

    #[test]
    fn round_robin_partition_covers_every_index_once() {
        for (total, shards) in [(0usize, 3usize), (1, 4), (7, 3), (8, 4), (9, 2)] {
            let mut seen = vec![0u32; total];
            let mut len_sum = 0;
            for k in 0..shards {
                let idx: Vec<usize> = shard_indices(total, k, shards).collect();
                assert_eq!(idx.len(), shard_len(total, k, shards), "{total}/{shards}");
                len_sum += idx.len();
                for i in idx {
                    seen[i] += 1;
                }
            }
            assert_eq!(len_sum, total);
            assert!(seen.iter().all(|&c| c == 1), "{total}/{shards}: {seen:?}");
        }
    }

    /// The acceptance-criteria core: merged results must be bit-identical
    /// (exact serde-JSON bytes) for any shard count.
    #[test]
    fn merged_result_is_bit_identical_for_any_number_of_shards() {
        let cfgs = configs(7);
        let reference = serde_json::to_string(&run_partition(&cfgs, 1)).unwrap();
        for shards in [2usize, 3, 4] {
            let merged = serde_json::to_string(&run_partition(&cfgs, shards)).unwrap();
            assert_eq!(merged, reference, "{shards}-shard merge diverged");
        }
    }

    #[test]
    fn more_shards_than_flows_still_merges() {
        let cfgs = configs(2);
        let merged = run_partition(&cfgs, 4);
        assert_eq!(merged.flows, 2);
        assert_eq!(merged.summaries.len(), 2);
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&run_partition(&cfgs, 1)).unwrap()
        );
    }

    #[test]
    fn run_shard_rejects_bad_partitions() {
        let cache = FlowCache::new(CacheConfig::memory_only());
        let cfgs = configs(2);
        for (shard, shards) in [(0usize, 0usize), (2, 2), (5, 3)] {
            let err = run_shard("t", 0, &cfgs, shard, shards, None, &cache).unwrap_err();
            assert!(matches!(err, EngineError::ShardMerge { .. }), "{err}");
        }
    }

    #[test]
    fn merge_rejects_incomplete_or_inconsistent_partitions() {
        let cfgs = configs(4);
        let cache = FlowCache::new(CacheConfig::memory_only());
        let r0 = run_shard("t", 7, &cfgs, 0, 2, Some(1), &cache).unwrap();
        let r1 = run_shard("t", 7, &cfgs, 1, 2, Some(1), &cache).unwrap();

        let detail = |reports: &[ShardReport]| match merge_shards(reports).unwrap_err() {
            EngineError::ShardMerge { detail } => detail,
            other => panic!("expected ShardMerge, got {other:?}"),
        };

        assert!(detail(&[]).contains("no shard reports"));
        assert!(detail(std::slice::from_ref(&r0)).contains("expected 2 shard reports"));
        assert!(detail(&[r0.clone(), r0.clone()]).contains("appears twice"));

        let mut wrong_digest = r1.clone();
        wrong_digest.spec_digest = 8;
        assert!(detail(&[r0.clone(), wrong_digest]).contains("spec digest"));

        let mut wrong_name = r1.clone();
        wrong_name.spec_name = "other".into();
        assert!(detail(&[r0.clone(), wrong_name]).contains("spec `other`"));

        let mut wrong_engine = r1.clone();
        wrong_engine.engine_version = "hsm-runtime/0".into();
        assert!(detail(&[r0.clone(), wrong_engine]).contains("engine"));

        let mut short_slice = r1.clone();
        short_slice.summaries.pop();
        assert!(detail(&[r0.clone(), short_slice]).contains("expected 2"));

        assert!(merge_shards(&[r0, r1]).is_ok());
    }

    #[test]
    fn shard_reports_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("hsm_shard_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfgs = configs(3);
        let cache = FlowCache::new(CacheConfig::memory_only());
        let report = run_shard("disk", 42, &cfgs, 1, 2, Some(1), &cache).unwrap();
        let path = write_shard_report(&dir, &report).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_string_lossy(),
            "shard-1-of-2.json"
        );
        let back = read_shard_report(&path).unwrap();
        assert_eq!(back, report);
        assert!(matches!(
            read_shard_report(&dir.join("shard-9-of-9.json")).unwrap_err(),
            EngineError::ShardMerge { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
