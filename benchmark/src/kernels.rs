//! Kernel rows of the per-layer ledger: one layer's public API replayed
//! in isolation, outside any campaign. They are *estimates* — a kernel
//! runs with warm caches and no neighbouring work — and bound what the
//! layer can cost inside a flow; the spans say what it does cost.

use crate::stats::median;
use crate::workload::{WorkDir, Workload};
use hsm_core::estimate::EstimateConfig;
use hsm_core::eval::evaluate_dataset;
use hsm_runtime::codec::{decode_entry, encode_entry};
use hsm_runtime::{merge_shards, run_shard, CacheConfig, CacheKey, FlowCache};
use hsm_scenario::runner::ScenarioConfig;
use hsm_scenario::spec::expansion_digest;
use hsm_simnet::agent::{Agent, AgentId};
use hsm_simnet::engine::{Ctx, Engine};
use hsm_simnet::event::{Event, EventKind, EventQueue};
use hsm_simnet::link::{Link, LinkId, LinkSpec, QueuedPacket};
use hsm_simnet::loss::{GilbertElliott, LossModel};
use hsm_simnet::packet::{FlowId, Packet, PacketId, SeqNo};
use hsm_simnet::rng::SimRng;
use hsm_simnet::time::SimTime;
use hsm_trace::summary::FlowSummary;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Times a kernel is repeated; its figure is the median.
const REPEATS: usize = 3;

/// Median host seconds of [`REPEATS`] runs of `f`.
fn timed(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        f()?;
        samples.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&samples))
}

/// Forwards every packet it receives onto `out` until its budget of
/// forwards is spent, then absorbs the rest.
struct Bouncer {
    out: LinkId,
    forwards_left: u64,
}

impl Agent for Bouncer {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if self.forwards_left > 0 {
            self.forwards_left -= 1;
            ctx.send(self.out, packet);
        }
    }
}

/// `simnet.engine.bare_ns_per_event`: the real `Engine` and two loss-free
/// `Link`s carrying a 32-packet window back and forth between two
/// [`Bouncer`]s — the engine's cost per event with agents that do no
/// work, the floor under a TCP flow's cost per event.
pub fn bare_engine_ns_per_event() -> Result<f64, String> {
    const WINDOW: u64 = 32;
    const FORWARDS: u64 = 250_000;
    // Every send costs two events, the end of its transmission and its
    // delivery; both agents spend their whole budget.
    const EVENTS: u64 = 2 * (WINDOW + 2 * FORWARDS);
    let secs = timed(|| {
        let mut eng = Engine::new(1);
        let placeholder = LinkId::from_raw(u32::MAX);
        let bouncer = || {
            Box::new(Bouncer {
                out: placeholder,
                forwards_left: FORWARDS,
            })
        };
        let a = eng.add_agent(bouncer());
        let b = eng.add_agent(bouncer());
        let a_to_b = eng.add_link(LinkSpec::new(b, "a-to-b"));
        let b_to_a = eng.add_link(LinkSpec::new(a, "b-to-a"));
        eng.agent_mut::<Bouncer>(a).expect("bouncer a").out = a_to_b;
        eng.agent_mut::<Bouncer>(b).expect("bouncer b").out = b_to_a;
        for seq in 0..WINDOW {
            eng.inject(a_to_b, Packet::data(FlowId(0), SeqNo(seq), false));
        }
        eng.try_run_until_idle().map_err(|e| e.to_string())?;
        let drops: u64 = [a_to_b, b_to_a]
            .iter()
            .map(|&l| eng.link(l).overflow_drops + eng.link(l).channel_drops)
            .sum();
        if drops != 0 || eng.events_processed() != EVENTS {
            return Err(format!(
                "bare-engine kernel: {drops} drops, {} events (expected 0 and {EVENTS})",
                eng.events_processed()
            ));
        }
        Ok(())
    })?;
    Ok(secs * 1e9 / EVENTS as f64)
}

/// `simnet.event.kernel_ns_per_op`: schedule/cancel/pop on the public
/// `EventQueue`, held at the workload's measured mean depth with its
/// measured share of cancelled schedules. A cancelled schedule re-arms a
/// far timer (the RTO pattern: cancel the pending one, schedule its
/// replacement); any other schedules a near event and pops the earliest.
pub fn event_queue_ns_per_op(mean_depth: f64, cancel_ratio: f64, seed: u64) -> f64 {
    const STEPS: usize = 1_000_000;
    let depth = (mean_depth.round() as usize).max(1);
    let mut rng = SimRng::seed_from_u64(seed);
    // Decisions and delays are drawn before the clock starts.
    let steps: Vec<(bool, u64)> = (0..STEPS)
        .map(|_| (rng.chance(cancel_ratio), rng.range_u64(100, 50_000)))
        .collect();
    let event = |at_us: u64| Event {
        at: SimTime::from_micros(at_us),
        dst: AgentId::from_raw(0),
        kind: EventKind::Timer { tag: 0 },
    };
    const RTO_US: u64 = 500_000;
    let secs = timed(|| {
        let mut queue = EventQueue::new();
        for (_, delay) in steps.iter().take(depth) {
            queue.schedule(event(*delay));
        }
        let mut now_us = 0u64;
        let mut timer = queue.schedule(event(RTO_US));
        for &(rearm, delay) in &steps {
            if rearm {
                queue.cancel(timer);
                timer = queue.schedule(event(now_us + RTO_US));
            } else {
                queue.schedule(event(now_us + delay));
                if let Some((id, fired)) = queue.pop() {
                    now_us = fired.at.as_micros();
                    if id == timer {
                        timer = queue.schedule(event(now_us + RTO_US));
                    }
                }
            }
        }
        black_box(queue.len());
        Ok(())
    })
    .expect("the queue kernel cannot fail");
    // Every step is two queue operations.
    secs * 1e9 / (2 * STEPS) as f64
}

/// `simnet.link.kernel_ns_per_packet`: `Link::offer` +
/// `Link::try_complete_tx` per packet, on a link holding a short backlog.
pub fn link_ns_per_packet() -> f64 {
    const PACKETS: u64 = 4_000_000;
    const BACKLOG: u64 = 8;
    let packet = |i: u64| QueuedPacket {
        id: PacketId(i),
        size_bytes: Packet::DATA_BYTES,
    };
    let secs = timed(|| {
        let mut link = Link::from_spec(LinkSpec::new(AgentId::from_raw(0), "kernel"));
        for i in 0..BACKLOG {
            link.offer(packet(i));
        }
        for i in BACKLOG..PACKETS {
            black_box(link.offer(black_box(packet(i))));
            black_box(link.try_complete_tx());
        }
        if link.overflow_drops != 0 {
            return Err(format!(
                "link kernel dropped {} packets",
                link.overflow_drops
            ));
        }
        Ok(())
    })
    .expect("the link kernel drops nothing");
    secs * 1e9 / PACKETS as f64
}

/// `simnet.loss.kernel_ns_per_draw`: `GilbertElliott::is_lost` per packet.
pub fn loss_ns_per_draw(seed: u64) -> f64 {
    const DRAWS: u64 = 4_000_000;
    let secs = timed(|| {
        let mut model = GilbertElliott::new(0.001, 0.3, 0.01, 0.2);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut lost = 0u64;
        for _ in 0..DRAWS {
            lost += u64::from(model.is_lost(SimTime::ZERO, &mut rng));
        }
        black_box(lost);
        Ok(())
    })
    .expect("the loss kernel cannot fail");
    secs * 1e9 / DRAWS as f64
}

/// `scenario.plan.ns_per_flow`: what turning one `ScenarioConfig` into a
/// runnable connection costs — `validate`, `path`, `mobility`,
/// `connection`.
pub fn plan_ns_per_flow(configs: &[ScenarioConfig]) -> Result<f64, String> {
    let rounds = (20_000 / configs.len()).max(1);
    let secs = timed(|| {
        for _ in 0..rounds {
            for c in configs {
                c.validate().map_err(|e| e.to_string())?;
                black_box((c.path(), c.mobility(), c.connection()));
            }
        }
        Ok(())
    })?;
    Ok(secs * 1e9 / (rounds * configs.len()) as f64)
}

/// `scenario.spec.parse_expand_digest_us`: the spec path of
/// `zoo-grid-cold`'s set-up (`from_toml`, `expand`, `digest`), timed on
/// its own.
pub fn spec_parse_expand_digest_us(seed: u64) -> Result<f64, String> {
    let secs = timed(|| {
        black_box(Workload::ZooGridCold.configs(black_box(seed))?);
        Ok(())
    })?;
    Ok(secs * 1e6)
}

/// Memory-tier cost per flow, nanoseconds.
#[derive(Debug, Default)]
pub struct MemoryTier {
    pub key_ns: f64,
    pub lookup_ns: f64,
    pub insert_ns: f64,
}

/// `runtime.cache.{key,lookup_mem,insert_mem}_ns`: `CacheKey::of`, and
/// `FlowCache::{insert,lookup}` on a memory-only cache.
pub fn memory_tier(
    configs: &[ScenarioConfig],
    summaries: &[FlowSummary],
) -> Result<MemoryTier, String> {
    let n = configs.len();
    let rounds = (200_000 / n).max(1);
    let per_flow = |secs: f64, rounds: usize| secs * 1e9 / (rounds * n) as f64;
    let key_s = timed(|| {
        for _ in 0..rounds {
            for c in configs {
                black_box(CacheKey::of(black_box(c)));
            }
        }
        Ok(())
    })?;
    let keys: Vec<CacheKey> = configs.iter().map(CacheKey::of).collect();
    let mut cache = FlowCache::new(CacheConfig::memory_only());
    let insert_s = timed(|| {
        cache = FlowCache::new(CacheConfig::memory_only());
        for (&k, s) in keys.iter().zip(summaries) {
            cache.insert(k, s).map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    let lookup_s = timed(|| {
        for _ in 0..rounds {
            for &k in &keys {
                if black_box(cache.lookup(k)).is_none() {
                    return Err("memory-tier kernel missed an inserted key".to_owned());
                }
            }
        }
        Ok(())
    })?;
    Ok(MemoryTier {
        key_ns: per_flow(key_s, rounds),
        lookup_ns: per_flow(lookup_s, rounds),
        insert_ns: per_flow(insert_s, 1),
    })
}

/// Codec cost per entry.
#[derive(Debug, Default)]
pub struct Codec {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub entry_bytes: f64,
}

/// `runtime.codec.{encode_ns,decode_ns,entry_bytes}`: `encode_entry` and
/// `decode_entry` over the workload's summaries.
pub fn codec(summaries: &[FlowSummary]) -> Result<Codec, String> {
    let n = summaries.len();
    let rounds = (100_000 / n).max(1);
    let encode_s = timed(|| {
        for _ in 0..rounds {
            for (i, s) in summaries.iter().enumerate() {
                black_box(encode_entry(i as u64, black_box(s)));
            }
        }
        Ok(())
    })?;
    let entries: Vec<Vec<u8>> = summaries
        .iter()
        .enumerate()
        .map(|(i, s)| encode_entry(i as u64, s))
        .collect();
    let decode_s = timed(|| {
        for _ in 0..rounds {
            for e in &entries {
                if black_box(decode_entry(black_box(e))).is_none() {
                    return Err("codec kernel could not decode its own entry".to_owned());
                }
            }
        }
        Ok(())
    })?;
    let per_entry = (rounds * n) as f64;
    Ok(Codec {
        encode_ns: encode_s * 1e9 / per_entry,
        decode_ns: decode_s * 1e9 / per_entry,
        entry_bytes: entries.iter().map(Vec::len).sum::<usize>() as f64 / n as f64,
    })
}

/// Disk-tier cost per flow, microseconds.
#[derive(Debug, Default)]
pub struct DiskTier {
    pub insert_us: f64,
    pub lookup_us: f64,
    pub fs_read_us: f64,
}

/// `runtime.cache.{insert_disk,lookup_disk,fs_read}_us`: publishing every
/// entry into an empty directory under `out_dir`, looking every one up
/// through a cold memory tier, and plain `std::fs::read` of the same
/// files — the last splits the filesystem's share from the codec's.
pub fn disk_tier(
    configs: &[ScenarioConfig],
    summaries: &[FlowSummary],
    out_dir: &Path,
) -> Result<DiskTier, String> {
    let keys: Vec<CacheKey> = configs.iter().map(CacheKey::of).collect();
    let per_flow_us = |secs: f64| secs * 1e6 / keys.len() as f64;
    // Each repeat publishes into a directory of its own: renaming onto an
    // existing entry is a different, costlier filesystem operation than
    // the first publish a populate pass pays.
    let mut dirs = Vec::new();
    for _ in 0..REPEATS {
        dirs.push(WorkDir::create(out_dir, "kernel")?);
    }
    let mut fresh = dirs.iter();
    let insert_s = timed(|| {
        // A disabled memory tier keeps the figure to the publish.
        let cache = FlowCache::new(CacheConfig {
            memory_entries: 0,
            ..CacheConfig::with_disk(fresh.next().expect("one directory per repeat").path())
        });
        for (&k, s) in keys.iter().zip(summaries) {
            cache.insert(k, s).map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    let dir = dirs[0].path();
    let lookup_s = timed(|| {
        let cache = FlowCache::new(CacheConfig::with_disk(dir));
        for &k in &keys {
            if black_box(cache.lookup(k)).is_none() {
                return Err("disk-tier kernel missed a published key".to_owned());
            }
        }
        Ok(())
    })?;
    let files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    if files.len() != keys.len() {
        return Err(format!(
            "disk-tier kernel: {} files for {} keys",
            files.len(),
            keys.len()
        ));
    }
    let read_s = timed(|| {
        for f in &files {
            black_box(std::fs::read(f).map_err(|e| e.to_string())?);
        }
        Ok(())
    })?;
    Ok(DiskTier {
        insert_us: per_flow_us(insert_s),
        lookup_us: per_flow_us(lookup_s),
        fs_read_us: per_flow_us(read_s),
    })
}

/// Model evaluation over the workload's summaries.
#[derive(Debug, Default)]
pub struct Eval {
    pub busy_s: f64,
    pub flows_in_domain: usize,
    pub mean_d_enhanced: f64,
    pub mean_d_padhye: f64,
    pub p50_d_enhanced: f64,
    pub p50_d_padhye: f64,
}

/// `core.eval.*`: `evaluate_dataset` with the default `EstimateConfig`.
pub fn eval(summaries: &[FlowSummary]) -> Eval {
    let cfg = EstimateConfig::default();
    let busy_s = timed(|| {
        black_box(evaluate_dataset(black_box(summaries), &cfg));
        Ok(())
    })
    .expect("evaluation cannot fail");
    let (evals, report) = evaluate_dataset(summaries, &cfg);
    let p50 = |d: fn(&hsm_core::eval::FlowEval) -> f64| {
        median(
            &evals
                .iter()
                .map(d)
                .filter(|d| d.is_finite())
                .collect::<Vec<_>>(),
        )
    };
    Eval {
        busy_s,
        flows_in_domain: evals.len(),
        mean_d_enhanced: report.mean_d_enhanced,
        mean_d_padhye: report.mean_d_padhye,
        p50_d_enhanced: p50(|e| e.d_enhanced),
        p50_d_padhye: p50(|e| e.d_padhye),
    }
}

/// `runtime.shard.merge_us`: two `run_shard` halves replayed from the
/// warm `cache`, then `merge_shards`; the merged stream must be the
/// reference one.
pub fn shard_merge_us(
    configs: &[ScenarioConfig],
    reference: &[FlowSummary],
    cache: &FlowCache,
) -> Result<f64, String> {
    let digest = expansion_digest(configs);
    let halves = (0..2)
        .map(|k| {
            run_shard("bench", digest, configs, k, 2, Some(1), cache).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let merged = merge_shards(&halves).map_err(|e| e.to_string())?;
    if merged.summaries != reference {
        return Err("merged shards differ from the reference summaries".to_owned());
    }
    let secs = timed(|| {
        black_box(merge_shards(black_box(&halves)).map_err(|e| e.to_string())?);
        Ok(())
    })?;
    Ok(secs * 1e6)
}
