//! The four workloads: their inputs, their set-up, one timed repetition,
//! and the output checks every pass goes through.
//!
//! Load shape: closed loop, one process, one campaign worker. The
//! program under test receives only the generated `ScenarioConfig`s.

use crate::host;
use hsm_runtime::cache::fnv1a;
use hsm_runtime::codec::encode_entry;
use hsm_runtime::{CacheConfig, CacheKey, Campaign, CampaignOutput, CampaignReport, FlowCache};
use hsm_scenario::dataset::{plan_dataset, DatasetConfig};
use hsm_scenario::runner::ScenarioConfig;
use hsm_scenario::spec::CampaignSpec;
use hsm_simnet::time::SimDuration;
use hsm_trace::summary::FlowSummary;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Seed used when `--seed` is not given (the Table I dataset's own).
pub const DEFAULT_SEED: u64 = 20150131;

/// Input of `zoo-grid-cold`; `{seed}` is replaced before parsing.
const ZOO_GRID_TOML: &str = include_str!("../zoo-grid.toml");

/// Every end-to-end number is measured at one campaign worker: on a
/// shared two-core box a second worker doubles run-to-run spread.
pub const WORKERS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Cold,
    ZooGridCold,
    StressWarmMem,
    StressWarmDisk,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table1Cold,
        Workload::ZooGridCold,
        Workload::StressWarmMem,
        Workload::StressWarmDisk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Cold => "table1-cold",
            Workload::ZooGridCold => "zoo-grid-cold",
            Workload::StressWarmMem => "stress-warm-mem",
            Workload::StressWarmDisk => "stress-warm-disk",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cold workloads simulate every flow in every pass; warm ones replay
    /// a populated cache.
    pub fn is_cold(self) -> bool {
        matches!(self, Workload::Table1Cold | Workload::ZooGridCold)
    }

    /// Campaign passes in one timed repetition.
    pub fn passes_per_rep(self) -> usize {
        match self {
            Workload::Table1Cold | Workload::ZooGridCold => 1,
            Workload::StressWarmMem => 1000,
            Workload::StressWarmDisk => 200,
        }
    }

    /// Generates the workload's inputs from `seed`.
    pub fn configs(self, seed: u64) -> Result<Vec<ScenarioConfig>, String> {
        match self {
            Workload::Table1Cold => Ok(plan(&DatasetConfig {
                seed,
                ..Default::default()
            })),
            Workload::ZooGridCold => {
                let spec =
                    CampaignSpec::from_toml(&ZOO_GRID_TOML.replace("{seed}", &seed.to_string()))
                        .map_err(|e| e.to_string())?;
                let configs = spec.expand().map_err(|e| e.to_string())?;
                // A spec-driven campaign digests its expansion to label
                // its reports; the workload's set-up pays for that too.
                black_box(spec.digest().map_err(|e| e.to_string())?);
                Ok(configs)
            }
            Workload::StressWarmMem | Workload::StressWarmDisk => Ok(plan(&DatasetConfig {
                seed,
                scale: 8.0,
                flow_duration: SimDuration::from_secs(2),
                ..Default::default()
            })),
        }
    }
}

fn plan(cfg: &DatasetConfig) -> Vec<ScenarioConfig> {
    plan_dataset(cfg).into_iter().map(|(_, c)| c).collect()
}

/// Tally of the output checks: flows attempted, flows failed, and what
/// went wrong. A failed check makes the run exit non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, flows: u64, what: String) {
        self.failed += flows.max(1);
        self.errors.push(what);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Failed flows, never more than were attempted.
    pub fn failed(&self) -> u64 {
        self.failed.min(self.attempted.max(1))
    }
}

/// The first pass's outputs, which every later pass must repeat exactly.
#[derive(Debug)]
pub struct Reference {
    keys: Vec<u64>,
    entries: Vec<Vec<u8>>,
    pub summaries: Vec<FlowSummary>,
    /// Simulator events the pass processed.
    pub events: u64,
    /// FNV-1a-64 over the `codec::encode_entry` bytes of every summary,
    /// in campaign order.
    pub sim_digest: u64,
}

impl Reference {
    pub fn of(configs: &[ScenarioConfig], out: &CampaignOutput) -> Reference {
        let keys: Vec<u64> = configs.iter().map(|c| CacheKey::of(c).0).collect();
        let summaries: Vec<FlowSummary> = out.summaries().cloned().collect();
        let entries: Vec<Vec<u8>> = keys
            .iter()
            .zip(&summaries)
            .map(|(&k, s)| encode_entry(k, s))
            .collect();
        let sim_digest = fnv1a(&entries.concat());
        Reference {
            keys,
            entries,
            summaries,
            events: out.report.events_processed,
            sim_digest,
        }
    }

    /// Flows of `summaries` whose encoded summary differs from the
    /// reference's (a missing flow counts as differing).
    pub fn mismatches<'a>(&self, summaries: impl Iterator<Item = &'a FlowSummary>) -> u64 {
        let got: Vec<Vec<u8>> = self
            .keys
            .iter()
            .zip(summaries)
            .map(|(&k, s)| encode_entry(k, s))
            .collect();
        let differing = self
            .entries
            .iter()
            .zip(&got)
            .filter(|(a, b)| a != b)
            .count();
        (differing + self.entries.len() - got.len()) as u64
    }
}

/// A scratch directory under the benchmark's output directory, removed
/// when dropped — also when a check fails.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(out_dir: &Path, label: &str) -> Result<WorkDir, String> {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let path = out_dir.join(format!(
            "{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A workload after set-up, ready for timed repetitions.
#[derive(Debug)]
pub struct Ready {
    pub workload: Workload,
    pub configs: Vec<ScenarioConfig>,
    pub campaign: Campaign,
    pub reference: Reference,
    /// `stress-warm-mem`: the populated memory-only cache.
    pub cache: Option<FlowCache>,
    /// `stress-warm-disk`: the directory of the populated disk tier.
    pub disk: Option<WorkDir>,
}

/// Opens a cache with a cold memory tier: over the disk tier in `disk`
/// (stale-temp sweep included), or memory-only.
pub fn open_cache(disk: Option<&WorkDir>) -> FlowCache {
    FlowCache::new(match disk {
        Some(dir) => CacheConfig::with_disk(dir.path()),
        None => CacheConfig::memory_only(),
    })
}

pub fn build_campaign(configs: &[ScenarioConfig], workers: usize) -> Result<Campaign, String> {
    Campaign::builder()
        .configs(configs.iter().cloned())
        .workers(workers)
        .build()
        .map_err(|e| e.to_string())
}

/// Sets a workload up: generates its inputs, builds the campaign, creates
/// the cache directory, and runs the warm-up (cold) or populate (warm)
/// pass, whose outputs become the reference.
pub fn set_up(workload: Workload, seed: u64, out_dir: &Path) -> Result<Ready, String> {
    let configs = workload.configs(seed)?;
    let campaign = build_campaign(&configs, WORKERS)?;
    // See `Ready::timed_pass`.
    host::wait_single_threaded();
    let disk = match workload {
        Workload::StressWarmDisk => Some(WorkDir::create(out_dir, "cache")?),
        _ => None,
    };
    let cache = open_cache(disk.as_ref());
    let out = campaign.run_with_cache(&cache).map_err(|e| e.to_string())?;
    if out.report.cache_hits != 0 {
        return Err(format!(
            "set-up pass of {} saw {} cache hits; its inputs repeat a flow",
            workload.name(),
            out.report.cache_hits
        ));
    }
    Ok(Ready {
        workload,
        reference: Reference::of(&configs, &out),
        configs,
        campaign,
        cache: (workload == Workload::StressWarmMem).then_some(cache),
        disk,
    })
}

impl Ready {
    pub fn flows(&self) -> u64 {
        self.configs.len() as u64
    }

    /// One campaign pass the way the workload defines it: a fresh
    /// campaign and memory-only cache (cold), a replay of the warm cache
    /// (`stress-warm-mem`), or a freshly opened disk tier under a cold
    /// memory tier (`stress-warm-disk`).
    pub fn pass(&self) -> Result<CampaignOutput, String> {
        match (&self.cache, &self.disk) {
            (Some(cache), _) => self.campaign.run_with_cache(cache),
            (None, Some(dir)) => self.campaign.run_with_cache(&open_cache(Some(dir))),
            (None, None) => {
                build_campaign(&self.configs, WORKERS)?.run_with_cache(&open_cache(None))
            }
        }
        .map_err(|e| e.to_string())
    }

    /// Whether a pass's counters are what the workload must produce: no
    /// hit on a cold pass; on a warm one every flow a hit (a disk hit on
    /// the disk tier), nothing simulated, nothing corrupt.
    pub fn counters_ok(&self, r: &CampaignReport) -> bool {
        let n = self.configs.len();
        match self.workload {
            Workload::Table1Cold | Workload::ZooGridCold => {
                r.cache_hits == 0 && r.events_processed == self.reference.events
            }
            Workload::StressWarmMem => {
                r.cache_hits == n && r.events_processed == 0 && r.disk_hits == 0
            }
            Workload::StressWarmDisk => {
                r.cache_hits == n
                    && r.events_processed == 0
                    && r.disk_hits == n as u64
                    && r.corrupt_entries == 0
            }
        }
    }

    /// Checks one pass's output against the reference, tallying into
    /// `checks`.
    pub fn check(&self, out: &CampaignOutput, what: &str, checks: &mut Checks) {
        let differing = self.reference.mismatches(out.summaries());
        if differing != 0 {
            checks.fail(
                differing,
                format!("{what}: {differing} flow summaries differ from the reference digest"),
            );
        }
        if !self.counters_ok(&out.report) {
            let r = &out.report;
            checks.fail(
                self.flows(),
                format!(
                    "{what}: unexpected counters: cache_hits={} disk_hits={} corrupt_entries={} events_processed={} (flows={}, reference events={})",
                    r.cache_hits, r.disk_hits, r.corrupt_entries, r.events_processed, r.flows, self.reference.events
                ),
            );
        }
    }

    /// Runs one campaign pass and returns its host seconds, which cover
    /// the pass and dropping its output — a caller replaying a campaign
    /// pays for both — but not `inspect`, which sees the output between
    /// the two.
    ///
    /// The pass starts once the previous pass's worker threads are gone.
    /// `Campaign` runs its workers in a `std::thread::scope`, which returns
    /// when their closures have finished, not when the threads have
    /// exited. Without the wait, peak RSS of one binary on one seed read
    /// 22 to 31 MiB from run to run; with it, or with a single malloc
    /// arena, it does not — a worker spawned while the last one is still
    /// exiting evidently gets an arena of its own.
    pub fn timed_pass(&self, inspect: impl FnOnce(&CampaignOutput)) -> Result<f64, String> {
        host::wait_single_threaded();
        let t0 = Instant::now();
        let out = self.pass()?;
        let ran = t0.elapsed();
        inspect(&out);
        let t1 = Instant::now();
        drop(out);
        Ok((ran + t1.elapsed()).as_secs_f64())
    }

    /// Runs one timed repetition and returns its host seconds per pass:
    /// the time of its passes over their number, which is what a caller
    /// replaying a campaign sees. (The time of a single warm pass has two
    /// modes, 1.1 and 1.9 ms on `stress-warm-mem`, and so no steady
    /// median.) Counters are checked on every pass, summaries on the last
    /// one, which `inspect_last` also gets to see.
    pub fn rep(
        &self,
        checks: &mut Checks,
        inspect_last: impl FnOnce(&CampaignOutput),
    ) -> Result<f64, String> {
        let passes = self.workload.passes_per_rep();
        let mut total_s = 0.0;
        let mut bad_counters = 0u64;
        for _ in 1..passes {
            total_s += self.timed_pass(|out| {
                bad_counters += u64::from(!self.counters_ok(&out.report));
            })?;
        }
        total_s += self.timed_pass(|out| {
            self.check(out, "timed repetition", checks);
            inspect_last(out);
        })?;
        checks.attempted += self.flows() * passes as u64;
        if bad_counters != 0 {
            checks.fail(
                self.flows() * bad_counters,
                format!("{bad_counters} passes of a repetition had unexpected counters"),
            );
        }
        Ok(total_s / passes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tiny flows of the stress inputs, cold.
    fn tiny(seed: u64) -> (Vec<ScenarioConfig>, CampaignOutput) {
        let mut configs = Workload::StressWarmMem.configs(seed).expect("inputs");
        configs.truncate(3);
        let out = build_campaign(&configs, WORKERS)
            .expect("valid")
            .run_with_cache(&FlowCache::new(CacheConfig::memory_only()))
            .expect("runs");
        (configs, out)
    }

    #[test]
    fn sim_digest_repeats_over_identical_runs_and_moves_with_the_seed() {
        let (configs, a) = tiny(5);
        let (_, b) = tiny(5);
        let (ra, rb) = (Reference::of(&configs, &a), Reference::of(&configs, &b));
        assert_eq!(ra.sim_digest, rb.sim_digest);
        assert_eq!((ra.events, ra.mismatches(b.summaries())), (rb.events, 0));
        let (other_configs, c) = tiny(6);
        assert_ne!(ra.sim_digest, Reference::of(&other_configs, &c).sim_digest);
    }

    #[test]
    fn mismatches_counts_differing_and_missing_flows() {
        let (configs, out) = tiny(5);
        let reference = Reference::of(&configs, &out);
        let mut summaries: Vec<FlowSummary> = out.summaries().cloned().collect();
        summaries[1].timeouts += 1;
        assert_eq!(reference.mismatches(summaries.iter()), 1);
        assert_eq!(reference.mismatches(summaries[..1].iter()), 2);
    }

    #[test]
    fn inputs_follow_the_seed_and_have_the_documented_sizes() {
        for (w, flows) in [
            (Workload::Table1Cold, 255),
            (Workload::ZooGridCold, 240),
            (Workload::StressWarmMem, 2040),
            (Workload::StressWarmDisk, 2040),
        ] {
            let a = w.configs(11).expect("inputs");
            assert_eq!(a.len(), flows, "{}", w.name());
            assert_eq!(a, w.configs(11).expect("inputs"));
            assert_ne!(a, w.configs(12).expect("inputs"));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn work_dirs_are_removed_on_drop() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
        let path = {
            let dir = WorkDir::create(&base, "cache").expect("created");
            std::fs::write(dir.path().join("entry"), b"x").expect("written");
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&base);
    }
}
