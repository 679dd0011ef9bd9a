//! The sharded, memoizing campaign engine.
//!
//! A [`Campaign`] is an ordered set of [`ScenarioConfig`]s. A pass whose
//! every flow the cache's memory tier holds is served on the calling
//! thread, in one sweep under one lock of each shard; any other pass runs
//! on the crate's one self-scheduling worker pool (`parallel::run_pool`,
//! whose worker 0 is the calling thread). There each worker first executes
//! a small round-robin *reserved prefix* of the indices it alone owns — so
//! a replay from the disk tier, whose hits are cheaper than a thread
//! spawn, still spreads over every worker instead of reading
//! `worker_flows = [n, 0, 0, ...]` — then pulls remaining indices from a
//! shared atomic counter (idle workers automatically take over the
//! expensive, uneven simulated remainder).
//!
//! Workers stream each flow through `runner::run` under `Keep::Summary`:
//! the measurement pipeline takes the flow's packets from the engine's
//! arena as they land, whose rows are then reused, no `FlowTrace` is ever
//! built, and only the compact [`FlowSummary`] survives — so campaigns of
//! tens of thousands of flows run in near-constant memory. That is the
//! only flow body: every campaign, [`run_dataset`]'s included, is lookup
//! → analyse → insert (`repro table1 --full`, 255 flows × 120 s, peaks at
//! ≈ 10.4 MiB in ≈ 1.3 s; retaining the 255 traces takes ≈ 620 MiB). A
//! caller that wants a flow's packet records re-simulates that one flow
//! with `hsm_scenario::runner::run` under `Keep::Trace`.
//!
//! Each worker owns a [`Scratch`] (the simulation engine, its packet arena
//! and the analysis fold's columns) reused across every flow it handles,
//! and writes each flow's [`FlowRun`] straight into a result vector of its
//! own, ascending by flow index because its claims are: one worker's
//! vector is the pool's output as it stands, several are merged by index.
//! Nothing is shared per flow but the claim counter — no channel, no clock
//! read — and no flow is hashed per run: [`CampaignBuilder::build`] keys
//! every config once, beside its validation.
//!
//! A warm flow is not work. In a pass the memory tier holds whole, a hit
//! costs one probe of a shard the sweep already holds and one 160-byte
//! summary clone straight into its run, in a vector reserved at the first
//! hit — a plain copy, for its labels are `&'static str`s
//! (`hsm_trace::record::Label`) and no reference count moves. A served
//! [`FlowRun`] is four aligned cache lines with no drop glue, so the
//! output drops as one free, never a walk over its runs. No lock is
//! taken per flow and no pool starts: no `Scratch`, no claim counter, no
//! unwind frame. At the sweep's first miss it stops and counts nothing,
//! and the pool runs every index exactly as it would without the sweep:
//! each worker's memory probe serves that pass's hits, and a config that
//! repeats within one pass from its first occurrence. A disk hit runs on
//! the pool and adds a file read with no allocation; a one-worker pool
//! spawns no thread. Completed flows are memoized in a sharded
//! [`FlowCache`]; the output is in index order, so the summary stream is
//! **bit-identical** for any worker count and any cache state (cold, warm
//! memory, warm disk, partly warm). Wall-clock and utilization telemetry
//! lives only in the [`CampaignReport`], never in the result stream.

use crate::cache::{CacheConfig, CacheKey, FlowCache, ENGINE_VERSION};
use crate::error::EngineError;
use crate::parallel::{run_pool, Slot};
use hsm_scenario::dataset::{plan_dataset, plan_stationary_baseline, DatasetConfig, DatasetFlow};
use hsm_scenario::runner::{run, Keep, ScenarioConfig, Scratch};
use hsm_simnet::chaos::StormPlan;
use hsm_simnet::event::QueueStats;
use hsm_trace::summary::FlowSummary;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::time::Instant;

/// One executed (or cache-served) flow of a campaign.
///
/// Plain data aligned to a cache line: its `outcome` is statically `None`,
/// so a run has no drop glue, and a pass's output vector holds each run in
/// exactly four 64-byte lines.
#[derive(Debug, Clone)]
#[repr(align(64))]
pub struct FlowRun {
    /// The configuration that produced it.
    pub config: ScenarioConfig,
    /// The model-ready summary (identical whether simulated or cached).
    pub summary: FlowSummary,
    /// True when the flow was served from the cache without simulating.
    pub cache_hit: bool,
    /// Wall-clock seconds spent simulating (0 for cache hits).
    pub sim_wall_s: f64,
    /// Simulator events processed (0 for cache hits).
    pub events: u64,
    /// Event-queue telemetry of the simulation (zeroed for cache hits —
    /// a served flow schedules nothing).
    pub queue: QueueStats,
    /// Index of the worker that handled the flow.
    pub worker: usize,
    /// Statically `None` (`Infallible` has no value), so it takes no
    /// space and drops nothing: campaigns retain no trace. The field
    /// outlives its use only because the benchmark's traced flow
    /// (`benchmark/src/layers.rs::traced_flow`) builds a `FlowRun` literal
    /// naming it; both go with ROADMAP item 6(a), once that flow runs the
    /// campaign body.
    pub outcome: Option<Infallible>,
}

// The layout `FlowRun`'s doc promises: an owning field (a `Box`, a
// `String`) would make dropping a pass's output walk every run again.
const _: () = assert!(!std::mem::needs_drop::<FlowRun>());
const _: () = assert!(std::mem::size_of::<FlowRun>() == 256);
const _: () = assert!(std::mem::align_of::<FlowRun>() == 64);

/// Structured per-campaign telemetry — what `benchmark/` and the shard
/// reports read.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Engine version that executed the campaign.
    pub engine_version: String,
    /// Flows in the campaign.
    pub flows: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Flows served from the cache (memory or disk tier).
    pub cache_hits: usize,
    /// Flows that had to be simulated.
    pub cache_misses: usize,
    /// Cache hits served by the disk tier specifically.
    pub disk_hits: u64,
    /// Disk entries rejected by the integrity check (then re-simulated).
    pub corrupt_entries: u64,
    /// Total simulator events processed across all simulated flows.
    pub events_processed: u64,
    /// End-to-end campaign wall-clock, seconds.
    pub wall_clock_s: f64,
    /// Summed per-flow simulation wall-clock, seconds.
    pub sim_wall_s: f64,
    /// Flows handled per worker; it sums to `flows`. A pass served wholly
    /// by the memory sweep starts no pool: its hits count on worker 0, the
    /// calling thread, so it reads `[flows, 0, ...]`.
    pub worker_flows: Vec<usize>,
    /// Seconds each worker spent in its claim loop, first claim to last
    /// (it never waits inside it); in a pass served wholly by the memory
    /// sweep, worker 0's is the sweep's. Read once per worker, not summed per flow: what is missing from the
    /// wall-clock is the time before a worker's first claim (worker 0, the
    /// calling thread, starts at once; a spawned worker after its spawn)
    /// and the idle tail after its last flow.
    pub worker_busy_s: Vec<f64>,
    /// Event-queue telemetry aggregated over all simulated flows.
    ///
    /// Not serialized: the campaign report's JSON shape (and the
    /// byte-identity guarantees of chaos reports and shard merges built
    /// on it) predates this field; `benchmark/` surfaces the aggregate
    /// as its `simnet.event.*` metrics instead.
    #[serde(skip)]
    pub queue: QueueStats,
}

/// Equality covers the serialized report shape only — `queue` is local
/// telemetry (`#[serde(skip)]`), so a deserialized report must still
/// compare equal to the in-memory one that produced it.
impl PartialEq for CampaignReport {
    fn eq(&self, other: &Self) -> bool {
        self.engine_version == other.engine_version
            && self.flows == other.flows
            && self.workers == other.workers
            && self.cache_hits == other.cache_hits
            && self.cache_misses == other.cache_misses
            && self.disk_hits == other.disk_hits
            && self.corrupt_entries == other.corrupt_entries
            && self.events_processed == other.events_processed
            && self.wall_clock_s == other.wall_clock_s
            && self.sim_wall_s == other.sim_wall_s
            && self.worker_flows == other.worker_flows
            && self.worker_busy_s == other.worker_busy_s
    }
}

impl CampaignReport {
    /// Mean fraction of the campaign wall-clock each worker spent in its
    /// claim loop (1.0 = every worker started with the campaign and ended
    /// with it; the shortfall is the spawn of workers `1..W` — worker 0
    /// is the calling thread and spawns nothing — skew between workers,
    /// and the merge and report after the pool drains).
    pub fn worker_utilization(&self) -> f64 {
        if self.wall_clock_s <= 0.0 || self.worker_busy_s.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.worker_busy_s.iter().sum();
        busy / (self.wall_clock_s * self.worker_busy_s.len() as f64)
    }
}

/// Everything a campaign run produces.
#[derive(Debug, Clone)]
pub struct CampaignOutput {
    /// Per-flow results, in campaign (index) order.
    pub runs: Vec<FlowRun>,
    /// Aggregate telemetry.
    pub report: CampaignReport,
}

impl CampaignOutput {
    /// The deterministic summary stream, in campaign order.
    pub fn summaries(&self) -> impl Iterator<Item = &FlowSummary> {
        self.runs.iter().map(|r| &r.summary)
    }
}

/// Deterministic fault plan injected beneath the worker pool — the
/// campaign-level half of the `hsm-chaos` harness.
///
/// Only compiled under `cfg(test)` or the `chaos` feature; production
/// builds without the feature carry none of these hooks. Every fault is
/// keyed on the flow *index*, so a plan is exactly reproducible for any
/// worker count. A plan acts only on flows that reach the pool: a pass the
/// memory sweep serves whole claims no flow, so no fault fires in it.
#[cfg(any(test, feature = "chaos"))]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosInjection {
    /// The worker that claims this flow index panics before executing it
    /// (worker death mid-campaign). The campaign must surface
    /// [`EngineError::WorkerLost`] instead of hanging or propagating the
    /// panic.
    pub kill_worker_at: Option<usize>,
    /// Flow indices that report a simulated engine failure
    /// ([`EngineError::FlowFailed`]). With several indices racing on
    /// different workers, the campaign must deterministically report the
    /// lowest one.
    pub fail_flows: Vec<usize>,
    /// Poisons the worker's scratch before every flow, proving that
    /// scratch reuse cannot leak state between flows.
    pub poison_scratch: bool,
}

#[cfg(any(test, feature = "chaos"))]
impl ChaosInjection {
    /// Applies the pre-flow faults for flow `i` on the claiming worker.
    fn before_flow(&self, i: usize, scratch: &mut Scratch) {
        if self.poison_scratch {
            scratch.poison();
        }
        if self.kill_worker_at == Some(i) {
            panic!("chaos: worker killed at flow {i}");
        }
    }

    /// True when flow `i` is scheduled to fail with a simulated engine
    /// error.
    fn fails(&self, i: usize) -> bool {
        self.fail_flows.contains(&i)
    }
}

/// Validated step-by-step construction of a [`Campaign`].
#[derive(Debug, Clone, Default)]
pub struct CampaignBuilder {
    configs: Vec<ScenarioConfig>,
    workers: Option<usize>,
    cache: Option<CacheConfig>,
    #[cfg(any(test, feature = "chaos"))]
    chaos: ChaosInjection,
}

impl CampaignBuilder {
    /// Appends one scenario.
    pub fn config(mut self, config: ScenarioConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Appends any number of scenarios.
    pub fn configs(mut self, configs: impl IntoIterator<Item = ScenarioConfig>) -> Self {
        self.configs.extend(configs);
        self
    }

    /// Sets the worker count (defaults to the machine's parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the cache configuration (defaults to
    /// [`CacheConfig::memory_only`]).
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Installs a deterministic fault plan beneath the worker pool (see
    /// [`ChaosInjection`]). Test/`chaos`-feature builds only.
    #[cfg(any(test, feature = "chaos"))]
    pub fn chaos(mut self, injection: ChaosInjection) -> Self {
        self.chaos = injection;
        self
    }

    /// Validates every configuration and the worker count, and keys every
    /// configuration once: the configs never change after `build`, so no
    /// run hashes them again.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] for the first scenario that
    /// fails validation, or [`EngineError::ZeroWorkers`] for an explicit
    /// worker count of 0.
    pub fn build(self) -> Result<Campaign, EngineError> {
        if self.workers == Some(0) {
            return Err(EngineError::ZeroWorkers);
        }
        let mut keys = Vec::with_capacity(self.configs.len());
        for (index, config) in self.configs.iter().enumerate() {
            config
                .validate()
                .map_err(|source| EngineError::InvalidConfig { index, source })?;
            keys.push(CacheKey::of(config));
        }
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|w| w.get())
                .unwrap_or(4)
        });
        Ok(Campaign {
            configs: self.configs,
            keys,
            workers,
            cache: self.cache.unwrap_or_else(CacheConfig::memory_only),
            #[cfg(any(test, feature = "chaos"))]
            chaos: self.chaos,
        })
    }
}

/// A validated, executable set of scenarios.
#[derive(Debug, Clone)]
pub struct Campaign {
    configs: Vec<ScenarioConfig>,
    /// `CacheKey::of(&configs[i])`, computed once by `build`.
    keys: Vec<CacheKey>,
    workers: usize,
    cache: CacheConfig,
    #[cfg(any(test, feature = "chaos"))]
    chaos: ChaosInjection,
}

impl Campaign {
    /// Starts a builder.
    pub fn builder() -> CampaignBuilder {
        CampaignBuilder::default()
    }

    /// The scenarios, in campaign order.
    pub fn configs(&self) -> &[ScenarioConfig] {
        &self.configs
    }

    /// The worker count the campaign will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs the campaign against a fresh cache built from the campaign's
    /// own [`CacheConfig`] (a disk tier still makes reruns warm).
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] from workers or the cache's disk tier.
    pub fn run(&self) -> Result<CampaignOutput, EngineError> {
        self.run_with_cache(&FlowCache::new(self.cache.clone()))
    }

    /// Runs the campaign against a caller-owned cache, so repeated runs
    /// (or several campaigns sharing flows) stay warm in memory.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] from workers or the cache's disk tier.
    pub fn run_with_cache(&self, cache: &FlowCache) -> Result<CampaignOutput, EngineError> {
        let started = Instant::now();
        let stats_before = cache.stats();
        let n = self.configs.len();

        // A pass the memory tier holds whole is served in one locked sweep
        // on the calling thread and starts no pool. Any miss and the sweep
        // counts nothing: the pool runs every flow, and `execute_one`'s own
        // probe serves the hits, exactly as without the sweep. The run
        // vector is reserved at the first hit, so a cold pass allocates
        // nothing for it.
        let sweep_started = Instant::now();
        let mut swept: Vec<FlowRun> = Vec::new();
        let all_resident = cache.sweep_memory(&self.keys, |i, summary| {
            if i == 0 {
                swept.reserve_exact(n);
            }
            swept.push(served(&self.configs[i], summary.clone(), 0));
        });
        let (runs, worker_flows, worker_busy_s) = if all_resident {
            // Hits are worker 0's: the sweep ran on the calling thread.
            let width = self.workers.clamp(1, n.max(1));
            let mut worker_flows = vec![0; width];
            let mut worker_busy_s = vec![0.0; width];
            worker_flows[0] = n;
            worker_busy_s[0] = sweep_started.elapsed().as_secs_f64();
            (swept, worker_flows, worker_busy_s)
        } else {
            drop(swept);
            let job = |scratch: &mut Scratch, worker, i, slot: Slot<'_, FlowRun>| {
                #[cfg(any(test, feature = "chaos"))]
                self.chaos.before_flow(i, scratch);
                self.execute_one(i, worker, cache, scratch, slot)
            };
            let pooled = run_pool(n, self.workers, Scratch::new, job)?;
            (pooled.results, pooled.worker_jobs, pooled.worker_busy_s)
        };

        let stats_after = cache.stats();
        let mut report = CampaignReport {
            engine_version: ENGINE_VERSION.to_owned(),
            flows: runs.len(),
            workers: worker_flows.len(),
            cache_hits: 0,
            cache_misses: 0,
            disk_hits: stats_after.disk_hits - stats_before.disk_hits,
            corrupt_entries: stats_after.corrupt_entries - stats_before.corrupt_entries,
            events_processed: 0,
            queue: QueueStats::default(),
            wall_clock_s: 0.0,
            sim_wall_s: 0.0,
            worker_flows,
            worker_busy_s,
        };
        if all_resident {
            // Every run is a hit: no events, queue or simulation time.
            report.cache_hits = n;
        } else {
            for run in &runs {
                report.cache_hits += usize::from(run.cache_hit);
                report.events_processed += run.events;
                report.queue.merge(&run.queue);
                report.sim_wall_s += run.sim_wall_s;
            }
        }
        report.cache_misses = runs.len() - report.cache_hits;
        report.wall_clock_s = started.elapsed().as_secs_f64();
        Ok(CampaignOutput { runs, report })
    }

    /// Executes (or serves from cache) flow `i` through the worker's
    /// reusable scratch, and writes its run into `slot`.
    fn execute_one(
        &self,
        i: usize,
        worker: usize,
        cache: &FlowCache,
        scratch: &mut Scratch,
        slot: Slot<'_, FlowRun>,
    ) -> Result<(), EngineError> {
        let config = &self.configs[i];
        #[cfg(any(test, feature = "chaos"))]
        if self.chaos.fails(i) {
            // A simulated mid-flow engine failure, shaped exactly like a
            // real bookkeeping-corruption abort.
            return Err(EngineError::FlowFailed {
                index: i,
                source: hsm_scenario::runner::ScenarioError::Engine(
                    hsm_simnet::error::SimError::QueueInconsistent {
                        at: hsm_simnet::time::SimTime::ZERO,
                    },
                ),
            });
        }
        let key = self.keys[i];
        // `cache.lookup`, its two tiers taken apart: a memory hit's clone
        // then goes straight into the run, not through the `Option` both
        // tiers would return into (one 160-byte copy a flow fewer).
        if let Some(summary) = cache.memory_hit(key) {
            slot.fill(served(config, summary, worker));
            return Ok(());
        }
        if let Some(summary) = cache.promote_from_disk(key) {
            slot.fill(served(config, summary, worker));
            return Ok(());
        }
        let t0 = Instant::now();
        // The flow is analysed where the engine recorded it and no trace
        // is built — this is what bounds campaign memory.
        let out = run(scratch, config, &StormPlan::default(), Keep::Summary)
            .map_err(|source| EngineError::FlowFailed { index: i, source })?;
        let sim_wall_s = t0.elapsed().as_secs_f64();
        let summary = out.analysis.summary;
        cache.insert(key, &summary)?;
        slot.fill(FlowRun {
            config: config.clone(),
            summary,
            cache_hit: false,
            sim_wall_s,
            events: out.events_processed,
            queue: out.queue,
            worker,
            outcome: None,
        });
        Ok(())
    }
}

/// The run of a flow served from the cache.
#[inline]
fn served(config: &ScenarioConfig, summary: FlowSummary, worker: usize) -> FlowRun {
    FlowRun {
        config: config.clone(),
        summary,
        cache_hit: true,
        sim_wall_s: 0.0,
        events: 0,
        queue: QueueStats::default(),
        worker,
        outcome: None,
    }
}

/// Runs a tagged plan as one ordinary campaign and re-attaches each tag to
/// the engine's index-ordered output: flow `i` of the result is plan entry
/// `i` whatever the worker count.
fn run_plan(
    plan: Vec<(usize, ScenarioConfig)>,
) -> Result<(Vec<DatasetFlow>, CampaignReport), EngineError> {
    let (campaigns, configs): (Vec<usize>, Vec<ScenarioConfig>) = plan.into_iter().unzip();
    let output = Campaign::builder().configs(configs).build()?.run()?;
    let flows = campaigns
        .into_iter()
        .zip(output.runs)
        .map(|(campaign, run)| DatasetFlow {
            campaign,
            summary: run.summary,
        })
        .collect();
    Ok((flows, output.report))
}

/// Generates the Table-I dataset through the engine: the summaries of
/// [`plan_dataset`]'s flows, each tagged with its campaign.
///
/// # Errors
///
/// Propagates [`EngineError`] from the engine.
pub fn run_dataset(cfg: &DatasetConfig) -> Result<(Vec<DatasetFlow>, CampaignReport), EngineError> {
    run_plan(plan_dataset(cfg))
}

/// Generates the stationary baseline through the engine (campaign tag
/// `usize::MAX`: these flows belong to no Table-I row).
///
/// # Errors
///
/// Propagates [`EngineError`] from the engine.
pub fn run_stationary_baseline(
    cfg: &DatasetConfig,
    n: u32,
) -> Result<(Vec<DatasetFlow>, CampaignReport), EngineError> {
    let untagged = plan_stationary_baseline(cfg, n).into_iter();
    run_plan(untagged.map(|config| (usize::MAX, config)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::RESERVED_ROUNDS;
    use hsm_scenario::runner::{Motion, ScenarioError};
    use hsm_simnet::time::SimDuration;

    fn short(seed: u64) -> ScenarioConfig {
        ScenarioConfig::builder()
            .motion(Motion::Stationary)
            .seed(seed)
            .duration(SimDuration::from_secs(5))
            .flow(seed as u32)
            .build()
            .expect("valid")
    }

    #[test]
    fn builder_rejects_bad_campaigns() {
        let err = Campaign::builder()
            .config(ScenarioConfig {
                w_m: 0,
                ..Default::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::InvalidConfig {
                index: 0,
                source: ScenarioError::ZeroWindow
            }
        );
        assert_eq!(
            Campaign::builder().workers(0).build().unwrap_err(),
            EngineError::ZeroWorkers
        );
    }

    /// Worker death mid-campaign: the pool must degrade to a structured
    /// `WorkerLost` (never a hang, never a propagated panic), and a clean
    /// rerun of the same campaign shape must produce the full stream.
    #[test]
    fn worker_death_mid_campaign_is_detected_as_worker_lost() {
        let configs: Vec<ScenarioConfig> = (0..6).map(short).collect();
        let dying = Campaign::builder()
            .configs(configs.clone())
            .workers(2)
            .chaos(ChaosInjection {
                kill_worker_at: Some(5),
                ..Default::default()
            })
            .build()
            .unwrap();
        assert_eq!(dying.run().unwrap_err(), EngineError::WorkerLost);

        let clean = Campaign::builder()
            .configs(configs)
            .workers(2)
            .build()
            .unwrap();
        let out = clean.run().expect("no fault plan, no loss");
        assert_eq!(out.runs.len(), 6);
    }

    /// The whole pool dying at its first flow: nobody is left to notice,
    /// so the gap itself must read as `WorkerLost`; the same configs then
    /// run clean.
    #[test]
    fn a_lone_worker_dying_at_flow_zero_is_worker_lost() {
        let lone = |chaos| {
            Campaign::builder()
                .configs((0..3).map(short))
                .workers(1)
                .chaos(chaos)
                .build()
                .unwrap()
                .run()
        };
        let dying = lone(ChaosInjection {
            kill_worker_at: Some(0),
            ..Default::default()
        });
        assert_eq!(dying.unwrap_err(), EngineError::WorkerLost);
        let clean = lone(ChaosInjection::default()).expect("no fault plan, no loss");
        let flows: Vec<u32> = clean.runs.iter().map(|r| r.config.flow).collect();
        assert_eq!(flows, [0, 1, 2], "the full stream, in order");
    }

    /// One worker, so the order is fixed: flow 2 fails, and flow 5 —
    /// above the fail floor — is skipped, never claimed, so its kill
    /// never fires and the recorded failure is what surfaces.
    #[test]
    fn flows_above_the_fail_floor_are_never_executed() {
        let campaign = Campaign::builder()
            .configs((0..8).map(short))
            .workers(1)
            .chaos(ChaosInjection {
                fail_flows: vec![2],
                kill_worker_at: Some(5),
                ..Default::default()
            })
            .build()
            .unwrap();
        match campaign.run().unwrap_err() {
            EngineError::FlowFailed { index, .. } => assert_eq!(index, 2),
            other => panic!("expected FlowFailed at flow 2, got {other:?}"),
        }
    }

    /// Two flows failing concurrently on different workers: the reported
    /// failure must be the lowest index on every interleaving.
    #[test]
    fn concurrent_flow_failures_report_the_lowest_index() {
        let campaign = Campaign::builder()
            .configs((0..8).map(short))
            .workers(2)
            .chaos(ChaosInjection {
                fail_flows: vec![2, 5],
                ..Default::default()
            })
            .build()
            .unwrap();
        for round in 0..20 {
            match campaign.run().unwrap_err() {
                EngineError::FlowFailed { index, .. } => {
                    assert_eq!(index, 2, "round {round}: lowest index must win");
                }
                other => panic!("round {round}: expected FlowFailed, got {other:?}"),
            }
        }
    }

    /// Scratch poisoning between reuses must be invisible: the per-flow
    /// reset has to clear every piece of poisoned state.
    #[test]
    fn poisoned_scratch_streams_are_bit_identical() {
        let configs: Vec<ScenarioConfig> = (0..3).map(short).collect();
        let reference = Campaign::builder()
            .configs(configs.clone())
            .workers(1)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let poisoned = Campaign::builder()
            .configs(configs)
            .workers(1)
            .chaos(ChaosInjection {
                poison_scratch: true,
                ..Default::default()
            })
            .build()
            .unwrap()
            .run()
            .unwrap();
        for (a, b) in reference.summaries().zip(poisoned.summaries()) {
            assert_eq!(a, b, "poisoned-scratch flow diverged");
        }
    }

    #[test]
    fn campaign_runs_and_memoizes() {
        let campaign = Campaign::builder()
            .configs([short(1), short(2)])
            .workers(2)
            .build()
            .unwrap();
        let cache = FlowCache::new(CacheConfig::memory_only());
        let cold = campaign.run_with_cache(&cache).unwrap();
        assert_eq!(cold.report.cache_hits, 0);
        assert_eq!(cold.report.cache_misses, 2);
        assert!(cold.report.events_processed > 0);
        assert_eq!(cold.runs.len(), 2);

        let warm = campaign.run_with_cache(&cache).unwrap();
        assert_eq!(warm.report.cache_hits, 2, "warm rerun must not re-simulate");
        assert_eq!(warm.report.cache_misses, 0);
        assert_eq!(warm.report.events_processed, 0);
        for (a, b) in cold.summaries().zip(warm.summaries()) {
            assert_eq!(a, b);
        }
    }

    /// A summary's bytes: equal bytes are equal bits, NaNs included.
    fn bytes(out: &CampaignOutput) -> Vec<Vec<u8>> {
        out.summaries()
            .map(|s| crate::codec::encode_entry(0, s))
            .collect()
    }

    fn unique_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hsm_engine_{tag}_{}", std::process::id()))
    }

    /// Disk hits still run on the pool, and each is cheaper than a thread
    /// spawn. Before the reserved prefix, the first worker up drained all
    /// 2k+ flows of a warm campaign and `worker_flows` read `[n, 0, 0, 0]`
    /// — the skew this test pins the fix for, on a replay served from
    /// disk alone.
    #[test]
    fn disk_warm_replay_distributes_flows_across_all_workers() {
        let configs: Vec<ScenarioConfig> = (0..32).map(short).collect();
        let dir = unique_dir("disk_spread");
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = |workers| {
            Campaign::builder()
                .configs(configs.clone())
                .workers(workers)
                .build()
                .unwrap()
        };
        let cold = campaign(4)
            .run_with_cache(&FlowCache::new(CacheConfig::with_disk(&dir)))
            .unwrap();
        for workers in [2usize, 4] {
            let disk_only = FlowCache::new(CacheConfig {
                memory_entries: 0,
                disk_dir: Some(dir.clone()),
            });
            let warm = campaign(workers).run_with_cache(&disk_only).unwrap();
            assert_eq!(warm.report.disk_hits, 32, "replay must come from disk");
            assert_eq!(warm.report.worker_flows.len(), workers);
            for (w, &f) in warm.report.worker_flows.iter().enumerate() {
                assert!(
                    f >= RESERVED_ROUNDS,
                    "worker {w} handled {f} disk hits ({workers} workers): {:?}",
                    warm.report.worker_flows
                );
            }
            assert_eq!(
                bytes(&warm),
                bytes(&cold),
                "warm stream must stay bit-identical"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Memory hits never reach the pool: the calling thread serves them
    /// all in its sweep, so they are worker 0's at every worker count.
    #[test]
    fn memory_warm_replay_is_served_on_worker_zero() {
        let configs: Vec<ScenarioConfig> = (0..32).map(short).collect();
        let cache = FlowCache::new(CacheConfig::memory_only());
        let cold = Campaign::builder()
            .configs(configs.clone())
            .workers(4)
            .build()
            .unwrap()
            .run_with_cache(&cache)
            .unwrap();
        for workers in [1usize, 2, 4] {
            let warm = Campaign::builder()
                .configs(configs.clone())
                .workers(workers)
                .build()
                .unwrap()
                .run_with_cache(&cache)
                .unwrap();
            assert_eq!(warm.report.cache_hits, 32, "replay must stay warm");
            let mut expected = vec![0; workers];
            expected[0] = 32;
            assert_eq!(warm.report.worker_flows, expected, "{workers} workers");
            assert_eq!(warm.report.workers, workers);
            assert!(warm.runs.iter().all(|run| run.worker == 0));
            assert_eq!(
                bytes(&warm),
                bytes(&cold),
                "warm stream must stay bit-identical"
            );
        }
    }

    /// A partly warm pass: the sweep serves nothing and the pool runs every
    /// flow, its own probe serving the warmed ones, into the cold stream
    /// at any worker count, counted as without the sweep.
    #[test]
    fn a_partly_warm_pass_runs_every_flow_on_the_pool() {
        const FLOWS: usize = 24;
        let configs: Vec<ScenarioConfig> = (0..FLOWS as u64).map(short).collect();
        let cold = Campaign::builder()
            .configs(configs.clone())
            .workers(1)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let warmed = |i: usize| i.is_multiple_of(3);
        for workers in [1usize, 2, 4] {
            let cache = FlowCache::new(CacheConfig::memory_only());
            Campaign::builder()
                .configs(
                    (0..FLOWS)
                        .filter(|&i| warmed(i))
                        .map(|i| configs[i].clone()),
                )
                .build()
                .unwrap()
                .run_with_cache(&cache)
                .unwrap();
            let campaign = Campaign::builder()
                .configs(configs.clone())
                .workers(workers)
                .build()
                .unwrap();
            let before = cache.stats();
            let out = campaign.run_with_cache(&cache).unwrap();
            let after = cache.stats();
            assert_eq!(after.memory_hits - before.memory_hits, FLOWS as u64 / 3);
            assert_eq!(after.misses - before.misses, FLOWS as u64 * 2 / 3);
            assert_eq!(bytes(&out), bytes(&cold), "{workers} workers");
            for (i, run) in out.runs.iter().enumerate() {
                assert_eq!(run.cache_hit, warmed(i), "flow {i}, {workers} workers");
                assert_eq!(
                    run.config,
                    campaign.configs()[i],
                    "flow {i}, {workers} workers"
                );
            }
            let r = &out.report;
            assert_eq!(r.cache_hits, FLOWS / 3);
            assert_eq!(r.worker_flows.len(), workers);
            assert_eq!(r.worker_flows.iter().sum::<usize>(), FLOWS);
            assert!(
                r.worker_flows.iter().all(|&f| f > 0),
                "{:?}",
                r.worker_flows
            );
        }
    }

    /// The sweep runs before the pool, so it cannot serve a config that
    /// repeats within a cold pass; the pool's own probe does, from the
    /// run of its first occurrence.
    #[test]
    fn a_repeated_config_is_served_from_its_first_occurrence() {
        let out = Campaign::builder()
            .configs([short(1), short(2), short(1)])
            .workers(1)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let hits: Vec<bool> = out.runs.iter().map(|run| run.cache_hit).collect();
        assert_eq!(hits, [false, false, true]);
        assert_eq!(out.report.cache_hits, 1);
        assert_eq!(out.runs[2].summary, out.runs[0].summary);
        assert_eq!(out.report.worker_flows, [3]);
    }

    /// Flow `i` of a dataset is plan entry `i`: its campaign tag, and the
    /// summary bytes a lone analysis of that entry yields on a fresh
    /// scratch — all of them simulated, none retained as a trace.
    #[test]
    fn dataset_flows_are_the_plan_entries_in_order() {
        let cfg = DatasetConfig {
            scale: 0.02,
            flow_duration: SimDuration::from_secs(5),
            ..Default::default()
        };
        let plan = plan_dataset(&cfg);
        let (flows, report) = run_dataset(&cfg).unwrap();
        assert_eq!(flows.len(), plan.len());
        assert_eq!(report.cache_misses, plan.len());
        let calm = StormPlan::default();
        for (flow, (campaign, config)) in flows.iter().zip(&plan) {
            assert_eq!(flow.campaign, *campaign);
            let alone = run(&mut Scratch::new(), config, &calm, Keep::Summary).unwrap();
            assert_eq!(
                crate::codec::encode_entry(0, &flow.summary),
                crate::codec::encode_entry(0, &alone.analysis.summary),
                "flow {}",
                config.flow
            );
        }
    }

    #[test]
    fn report_telemetry_is_consistent() {
        let campaign = Campaign::builder()
            .configs((0..4).map(short))
            .workers(2)
            .build()
            .unwrap();
        let out = campaign.run().unwrap();
        let r = &out.report;
        assert_eq!(r.flows, 4);
        assert_eq!(r.workers, 2);
        assert_eq!(r.worker_flows.iter().sum::<usize>(), 4);
        assert!(r.wall_clock_s > 0.0);
        assert!(r.worker_utilization() > 0.0 && r.worker_utilization() <= 1.0 + 1e-9);
        assert!(r.events_processed > 0);
        let json = serde_json::to_string(r).expect("report serializes");
        let back: CampaignReport = serde_json::from_str(&json).expect("report round-trips");
        assert_eq!(&back, r);
    }
}
