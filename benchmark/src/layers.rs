//! The traced run: the per-layer ledger.
//!
//! Layers are measured from outside. The traced driver re-composes what
//! `Campaign` does for one flow (`execute_one` → `try_run_scenario_with`)
//! from the same public calls, with a span around each; a layer is named
//! after its crate. Untraced reference repetitions run first, so the cost
//! of tracing itself is reported (`bench.trace_overhead_share`).

use crate::host;
use crate::kernels;
use crate::report::Metric;
use crate::span::{self, LayerTotal, Span, Tracer};
use crate::stats::{median, tail_percentile};
use crate::workload::{build_campaign, open_cache, set_up, Checks, Ready, Reference, Workload};
use hsm_runtime::{CacheConfig, CacheKey, CacheStats, FlowCache, FlowRun};
use hsm_scenario::runner::{ScenarioConfig, ScenarioOutcome};
use hsm_simnet::event::QueueStats;
use hsm_tcp::connection::{try_run_connection_with, ConnectionOutcome, ConnectionScratch};
use hsm_trace::analysis::timeout::TimeoutConfig;
use hsm_trace::summary::{analyze_flow, FlowSummary};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Untraced reference repetitions a traced run makes at least.
const MIN_REFERENCE_REPS: usize = 2;

/// Runs at `workers = nproc` behind `runtime.engine.speedup_nproc`.
const NPROC_RUNS: usize = 3;

/// Campaign passes the traced driver makes.
fn traced_passes(workload: Workload) -> usize {
    match workload {
        Workload::Table1Cold | Workload::ZooGridCold => 1,
        Workload::StressWarmMem => 5,
        Workload::StressWarmDisk => 3,
    }
}

/// Exact counts gathered at the layer boundaries of the traced passes.
#[derive(Debug, Default)]
struct Tally {
    events: u64,
    queue: QueueStats,
    segments_sent: u64,
    retransmissions: u64,
    timeouts: u64,
    spurious_timeouts: u64,
    /// Segments delivered in order (the receiver's `next_expected`).
    segments_delivered: u64,
    records: u64,
    cache: CacheStats,
}

impl Tally {
    fn flow(&mut self, outcome: &ConnectionOutcome, summary: &FlowSummary) {
        self.events += outcome.events_processed;
        self.queue.merge(&outcome.queue);
        self.segments_sent += outcome.sender.segments_sent;
        self.retransmissions += outcome.sender.retransmissions;
        self.timeouts += outcome.sender.timeouts.len() as u64;
        self.spurious_timeouts += u64::from(summary.spurious_timeouts);
        self.segments_delivered += outcome.receiver.next_expected;
        self.records += outcome.trace.records.len() as u64;
    }

    fn cache(&mut self, before: CacheStats, after: CacheStats) {
        self.cache.memory_hits += after.memory_hits - before.memory_hits;
        self.cache.disk_hits += after.disk_hits - before.disk_hits;
        self.cache.misses += after.misses - before.misses;
        self.cache.corrupt_entries += after.corrupt_entries - before.corrupt_entries;
        self.cache.evictions += after.evictions - before.evictions;
    }
}

/// What `Campaign::execute_one` returns for a flow, built the way it
/// builds it; dropping the raw outcome is part of the job.
fn assemble(
    config: &ScenarioConfig,
    summary: FlowSummary,
    simulated: Option<ScenarioOutcome>,
) -> FlowSummary {
    let run = FlowRun {
        config: config.clone(),
        summary,
        cache_hit: simulated.is_none(),
        sim_wall_s: 0.0,
        events: simulated.as_ref().map_or(0, |o| o.outcome.events_processed),
        queue: simulated
            .as_ref()
            .map_or_else(QueueStats::default, |o| o.outcome.queue),
        worker: 0,
        outcome: None,
    };
    drop(simulated);
    black_box(run).summary
}

/// One flow through the pipeline, a span around every layer call.
fn traced_flow(
    t: &mut Tracer,
    flow: u32,
    config: &ScenarioConfig,
    cache: &FlowCache,
    scratch: &mut ConnectionScratch,
    tally: &mut Tally,
) -> Result<FlowSummary, String> {
    let flow = Some(flow);
    t.span("flow", flow, |t| {
        let key = t.span("runtime.cache.key", flow, |_| CacheKey::of(config));
        if let Some(summary) = t.span("runtime.cache.lookup", flow, |_| cache.lookup(key)) {
            return Ok(t.span("runtime.engine.assemble", flow, |_| {
                assemble(config, summary, None)
            }));
        }
        let (path, mobility, conn) = t
            .span("scenario.plan", flow, |_| {
                config
                    .validate()
                    .map(|()| (config.path(), config.mobility(), config.connection()))
            })
            .map_err(|e| e.to_string())?;
        let outcome = t
            .span("tcp.connection", flow, |_| {
                try_run_connection_with(scratch, config.seed, &path, mobility.as_ref(), &conn)
            })
            .map_err(|e| e.to_string())?;
        let analysis = t.span("trace.analyze", flow, |_| {
            analyze_flow(&outcome.trace, &TimeoutConfig::default())
        });
        tally.flow(&outcome, &analysis.summary);
        t.span("runtime.cache.insert", flow, |_| {
            cache.insert(key, &analysis.summary)
        })
        .map_err(|e| e.to_string())?;
        Ok(t.span("runtime.engine.assemble", flow, move |_| {
            let summary = analysis.summary.clone();
            let outcome = ScenarioOutcome {
                config: config.clone(),
                outcome,
                analysis,
            };
            drop((path, mobility, conn));
            assemble(config, summary, Some(outcome))
        }))
    })
}

/// One campaign pass through the traced driver; returns its host seconds.
fn traced_pass(
    t: &mut Tracer,
    ready: &Ready,
    scratch: &mut ConnectionScratch,
    tally: &mut Tally,
    checks: &mut Checks,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let summaries = t.span("pass", None, |t| {
        // The same cache a pass of the workload uses: the warm one, a
        // freshly opened disk tier, or a fresh memory-only cache.
        let opened;
        let cache = match &ready.cache {
            Some(cache) => cache,
            None => {
                opened = t.span("runtime.cache.open", None, |_| {
                    open_cache(ready.disk.as_ref())
                });
                &opened
            }
        };
        let before = cache.stats();
        let summaries = ready
            .configs
            .iter()
            .enumerate()
            .map(|(i, c)| traced_flow(t, i as u32, c, cache, scratch, tally))
            .collect::<Result<Vec<_>, _>>();
        tally.cache(before, cache.stats());
        summaries
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    checks.attempted += ready.flows();
    let differing = ready.reference.mismatches(summaries.iter());
    if differing != 0 {
        checks.fail(
            differing,
            format!("traced pass: {differing} flow summaries differ from the Campaign path's"),
        );
    }
    Ok(wall_s)
}

/// Writes the spans to `trace-<workload>.json`.
fn write_trace(path: &Path, workload: Workload, seed: u64, spans: &[Span]) -> Result<(), String> {
    let mut text = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"spans\":[",
        workload.name()
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let flow = s.flow.map_or("null".to_owned(), |f| f.to_string());
        let _ = write!(
            text,
            "{}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"flow\":{flow}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    text.push_str("\n]}\n");
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The untraced reference: repetitions of the workload exactly as the
/// end-to-end run times them.
#[derive(Debug, Default)]
struct ReferenceReps {
    /// Host seconds per pass of every repetition.
    pass_s: Vec<f64>,
    /// Per-flow simulation time of every simulated flow, milliseconds.
    flow_ms: Vec<f64>,
    /// `(wall − Σ per-flow simulation time) ÷ wall` of the last pass.
    overhead_share: f64,
    /// Worker utilization of the last pass.
    worker_utilization: f64,
}

fn reference_reps(
    ready: &Ready,
    budget: Duration,
    checks: &mut Checks,
) -> Result<ReferenceReps, String> {
    let mut reps = ReferenceReps::default();
    let mut done = 0;
    let started = Instant::now();
    while done < MIN_REFERENCE_REPS || started.elapsed() < budget {
        let pass_s = ready.rep(checks, |out| {
            let simulated = out.runs.iter().filter(|r| !r.cache_hit);
            reps.flow_ms.extend(simulated.map(|r| r.sim_wall_s * 1e3));
            let report = &out.report;
            reps.overhead_share =
                ratio(report.wall_clock_s - report.sim_wall_s, report.wall_clock_s);
            reps.worker_utilization = report.worker_utilization();
        })?;
        reps.pass_s.push(pass_s);
        done += 1;
    }
    Ok(reps)
}

/// `runtime.engine.speedup_nproc`: best one-worker pass over the best of
/// [`NPROC_RUNS`] passes at `workers = nproc`. An observation, never a
/// gate: on a shared box the second core is not the benchmark's own.
fn speedup_nproc(
    ready: &Ready,
    best_one_worker_s: f64,
    checks: &mut Checks,
) -> Result<f64, String> {
    let cores = host::cores();
    if cores < 2 {
        return Ok(1.0);
    }
    let campaign = build_campaign(&ready.configs, cores)?;
    let mut best = f64::INFINITY;
    for _ in 0..NPROC_RUNS {
        let t0 = Instant::now();
        let out = campaign
            .run_with_cache(&FlowCache::new(CacheConfig::memory_only()))
            .map_err(|e| e.to_string())?;
        best = best.min(t0.elapsed().as_secs_f64());
        checks.attempted += ready.flows();
        ready.check(&out, "workers = nproc pass", checks);
    }
    Ok(best_one_worker_s / best)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the traced run measured; [`Ledger::metrics`] turns it into
/// the per-layer metrics. A measurement that does not apply to the
/// workload stays at its default, and its metrics read 0.
#[derive(Debug, Default)]
struct Ledger {
    flows: usize,
    /// Campaign passes the traced driver made; counts and busy times are
    /// reported per pass.
    passes: usize,
    totals: BTreeMap<&'static str, LayerTotal>,
    /// Largest share of any one flow span spent outside every layer call.
    flow_self_share_max: f64,
    tally: Tally,
    untraced: ReferenceReps,
    traced_pass_s: Vec<f64>,
    bare_ns: f64,
    queue_ns: f64,
    link_ns: f64,
    loss_ns: f64,
    plan_ns: f64,
    spec_us: f64,
    memory: kernels::MemoryTier,
    codec: kernels::Codec,
    disk: kernels::DiskTier,
    eval: kernels::Eval,
    merge_us: f64,
    speedup_nproc: f64,
}

impl Ledger {
    fn metrics(&self) -> Vec<Metric> {
        let layer = |name: &str| self.totals.get(name).copied().unwrap_or_default();
        let pass_ns = layer("pass").total_ns as f64;
        let share =
            |names: &[&str]| ratio(names.iter().map(|n| layer(n).self_ns as f64).sum(), pass_ns);
        let per_pass = |count: u64| ratio(count as f64, self.passes as f64);
        let (tally, queue) = (&self.tally, &self.tally.queue);
        let conn_ns = layer("tcp.connection").total_ns as f64;
        let conn_ns_per_event = ratio(conn_ns, tally.events as f64);
        let analyze_ns = layer("trace.analyze").total_ns as f64;
        let queue_ops = (queue.schedules + queue.cancels + tally.events) as f64;
        let untraced_pass_s = median(&self.untraced.pass_s);
        let (tail_pct, tail_ms) =
            tail_percentile(&self.untraced.flow_ms).map_or((0.0, 0.0), |(p, v)| (f64::from(p), v));
        let (memory, codec, disk, eval) = (&self.memory, &self.codec, &self.disk, &self.eval);
        let m = Metric::single;
        vec![
            m(
                "tcp.connection.busy_s",
                "s",
                per_pass(layer("tcp.connection").total_ns) / 1e9,
            ),
            m("tcp.connection.ns_per_event", "ns", conn_ns_per_event),
            m("tcp.connection.share", "share", share(&["tcp.connection"])),
            // What the TCP agents and the capture add over the bare
            // engine, as a share of the connection's cost per event.
            m(
                "tcp.agents.est_share",
                "share",
                if self.bare_ns > 0.0 {
                    1.0 - ratio(self.bare_ns, conn_ns_per_event)
                } else {
                    0.0
                },
            ),
            m("tcp.segments_sent", "count", per_pass(tally.segments_sent)),
            m(
                "tcp.retransmissions",
                "count",
                per_pass(tally.retransmissions),
            ),
            m("tcp.timeouts", "count", per_pass(tally.timeouts)),
            m(
                "tcp.spurious_timeouts",
                "count",
                per_pass(tally.spurious_timeouts),
            ),
            m(
                "tcp.useful_ratio",
                "share",
                ratio(tally.segments_delivered as f64, tally.segments_sent as f64),
            ),
            m("simnet.events", "count", per_pass(tally.events)),
            m("simnet.event.schedules", "count", per_pass(queue.schedules)),
            m("simnet.event.cancels", "count", per_pass(queue.cancels)),
            m("simnet.event.cancel_ratio", "share", queue.cancel_ratio()),
            m("simnet.event.mean_depth", "count", queue.mean_depth()),
            m("simnet.event.max_depth", "count", queue.max_depth as f64),
            m("simnet.event.kernel_ns_per_op", "ns", self.queue_ns),
            // An upper bound: every queue operation of the traced pass at
            // the kernel's cost, over the connection's busy time.
            m(
                "simnet.event.est_share",
                "share",
                ratio(queue_ops * self.queue_ns, conn_ns),
            ),
            m("simnet.engine.bare_ns_per_event", "ns", self.bare_ns),
            m("simnet.link.kernel_ns_per_packet", "ns", self.link_ns),
            m("simnet.loss.kernel_ns_per_draw", "ns", self.loss_ns),
            m("trace.records", "count", per_pass(tally.records)),
            m(
                "trace.analyze.busy_s",
                "s",
                per_pass(layer("trace.analyze").total_ns) / 1e9,
            ),
            m(
                "trace.analyze.ns_per_record",
                "ns",
                ratio(analyze_ns, tally.records as f64),
            ),
            m("trace.analyze.share", "share", share(&["trace.analyze"])),
            m("core.eval.busy_s", "s", eval.busy_s),
            m(
                "core.eval.ns_per_flow",
                "ns",
                ratio(eval.busy_s * 1e9, self.flows as f64),
            ),
            m(
                "core.eval.flows_in_domain",
                "count",
                eval.flows_in_domain as f64,
            ),
            m("core.eval.mean_d_enhanced", "ratio", eval.mean_d_enhanced),
            m("core.eval.mean_d_padhye", "ratio", eval.mean_d_padhye),
            m("core.eval.p50_d_enhanced", "ratio", eval.p50_d_enhanced),
            m("core.eval.p50_d_padhye", "ratio", eval.p50_d_padhye),
            m("scenario.plan.ns_per_flow", "ns", self.plan_ns),
            m("scenario.plan.share", "share", share(&["scenario.plan"])),
            m("scenario.spec.parse_expand_digest_us", "us", self.spec_us),
            m("runtime.cache.key_ns", "ns", memory.key_ns),
            m("runtime.cache.lookup_mem_ns", "ns", memory.lookup_ns),
            m("runtime.cache.insert_mem_ns", "ns", memory.insert_ns),
            m("runtime.cache.hits", "count", per_pass(tally.cache.hits())),
            m(
                "runtime.cache.misses",
                "count",
                per_pass(tally.cache.misses),
            ),
            m(
                "runtime.cache.evictions",
                "count",
                per_pass(tally.cache.evictions),
            ),
            m(
                "runtime.cache.disk_hits",
                "count",
                per_pass(tally.cache.disk_hits),
            ),
            m(
                "runtime.cache.corrupt",
                "count",
                per_pass(tally.cache.corrupt_entries),
            ),
            m("runtime.cache.lookup_disk_us", "us", disk.lookup_us),
            m("runtime.cache.insert_disk_us", "us", disk.insert_us),
            m("runtime.cache.fs_read_us", "us", disk.fs_read_us),
            m(
                "runtime.cache.share",
                "share",
                share(&[
                    "runtime.cache.key",
                    "runtime.cache.lookup",
                    "runtime.cache.insert",
                    "runtime.cache.open",
                ]),
            ),
            m("runtime.codec.encode_ns", "ns", codec.encode_ns),
            m("runtime.codec.decode_ns", "ns", codec.decode_ns),
            m("runtime.codec.entry_bytes", "B", codec.entry_bytes),
            m(
                "runtime.engine.share",
                "share",
                share(&["runtime.engine.assemble"]),
            ),
            m(
                "runtime.engine.overhead_share",
                "share",
                self.untraced.overhead_share,
            ),
            m(
                "runtime.engine.worker_utilization",
                "share",
                self.untraced.worker_utilization,
            ),
            m(
                "runtime.engine.flow_ms_p50",
                "ms",
                median(&self.untraced.flow_ms),
            ),
            m("runtime.engine.flow_ms_tail", "ms", tail_ms),
            m("runtime.engine.flow_ms_tail_pct", "%", tail_pct),
            m(
                "runtime.engine.flow_samples",
                "count",
                self.untraced.flow_ms.len() as f64,
            ),
            m("runtime.engine.speedup_nproc", "ratio", self.speedup_nproc),
            m("runtime.shard.merge_us", "us", self.merge_us),
            m("bench.host_cores", "count", host::cores() as f64),
            m(
                "bench.flow_self_share",
                "share",
                ratio(layer("flow").self_ns as f64, layer("flow").total_ns as f64),
            ),
            m(
                "bench.flow_self_share_max",
                "share",
                self.flow_self_share_max,
            ),
            m(
                "bench.trace_overhead_share",
                "share",
                ratio(
                    median(&self.traced_pass_s) - untraced_pass_s,
                    untraced_pass_s,
                ),
            ),
        ]
    }
}

/// Runs the untraced reference, the traced passes and the kernels of one
/// workload; returns the reference (for the exact-repeat checks) and
/// every per-layer metric.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    out_dir: &Path,
    checks: &mut Checks,
) -> Result<(Reference, Vec<Metric>), String> {
    let ready = set_up(workload, seed, out_dir)?;
    checks.attempted += ready.flows();
    let mut ledger = Ledger {
        flows: ready.configs.len(),
        passes: traced_passes(workload),
        untraced: reference_reps(&ready, Duration::from_secs(seconds) / 2, checks)?,
        ..Default::default()
    };

    let mut tracer = Tracer::new();
    let mut scratch = ConnectionScratch::new();
    for _ in 0..ledger.passes {
        let pass_s = traced_pass(&mut tracer, &ready, &mut scratch, &mut ledger.tally, checks)?;
        ledger.traced_pass_s.push(pass_s);
    }
    let spans = tracer.spans();
    let trace_path = out_dir.join(format!("trace-{}.json", workload.name()));
    write_trace(&trace_path, workload, seed, spans)?;
    println!("{} spans written to {}", spans.len(), trace_path.display());
    ledger.totals = span::totals(spans);
    ledger.flow_self_share_max = spans
        .iter()
        .zip(span::self_times(spans))
        .filter(|(s, _)| s.name == "flow")
        .map(|(s, own)| ratio(own as f64, s.duration_ns() as f64))
        .fold(0.0, f64::max);

    // Kernels, each on the workloads whose timed part runs its layer.
    let summaries = &ready.reference.summaries;
    let queue = &ledger.tally.queue;
    if workload.is_cold() {
        ledger.bare_ns = kernels::bare_engine_ns_per_event()?;
        ledger.queue_ns =
            kernels::event_queue_ns_per_op(queue.mean_depth(), queue.cancel_ratio(), seed);
        ledger.link_ns = kernels::link_ns_per_packet();
        ledger.loss_ns = kernels::loss_ns_per_draw(seed);
    }
    if workload == Workload::ZooGridCold {
        ledger.spec_us = kernels::spec_parse_expand_digest_us(seed)?;
    }
    if workload == Workload::Table1Cold {
        let best_s = ledger
            .untraced
            .pass_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        ledger.speedup_nproc = speedup_nproc(&ready, best_s, checks)?;
    }
    if let Some(cache) = &ready.cache {
        ledger.merge_us = kernels::shard_merge_us(&ready.configs, summaries, cache)?;
    }
    if ready.disk.is_some() {
        ledger.disk = kernels::disk_tier(&ready.configs, summaries, out_dir)?;
    }
    ledger.plan_ns = kernels::plan_ns_per_flow(&ready.configs)?;
    ledger.memory = kernels::memory_tier(&ready.configs, summaries)?;
    ledger.codec = kernels::codec(summaries)?;
    ledger.eval = kernels::eval(summaries);

    let metrics = ledger.metrics();
    Ok((ready.reference, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::{declared, names_and_units};

    #[test]
    fn emitted_metrics_are_the_declared_per_layer_ones() {
        assert_eq!(
            names_and_units(&Ledger::default().metrics()),
            declared("per_layer")
        );
    }

    /// A ledger that measured nothing still reports every metric, as a
    /// finite number.
    #[test]
    fn empty_ledger_reports_every_metric_as_zero() {
        let metrics = Ledger::default().metrics();
        assert!(metrics.len() > 50);
        for m in &metrics {
            if m.name != "bench.host_cores" {
                assert_eq!(m.summary.median, 0.0, "{}", m.name);
            }
        }
    }
}
