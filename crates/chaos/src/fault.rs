//! Fault-injection drills: each one injects a specific fault beneath the
//! runtime and verifies the stack *handles* it as specified — detects it,
//! contains it, or proves immune to it. A drill that passes silently on a
//! broken stack would be worthless, so every drill is paired (here or in
//! the crate's integration tests) with a negative twin proving the
//! detection machinery actually fires.

use crate::oracle::compare_summaries;
use crate::report::DrillResult;
use hsm_runtime::cache::{chaos_corrupt_disk_entry, chaos_forge_disk_entry, CacheKey};
use hsm_runtime::{CacheConfig, Campaign, ChaosInjection, EngineError, FlowCache};
use hsm_scenario::prelude::*;
use hsm_scenario::runner;
use hsm_simnet::agent::{Agent, NullAgent};
use hsm_simnet::chaos::{StormEpisode, StormInjector, StormKind, StormPlan};
use hsm_simnet::engine::{Ctx, Engine};
use hsm_simnet::link::{LinkId, LinkSpec};
use hsm_simnet::packet::{FlowId, Packet, SeqNo};
use hsm_simnet::time::{SimDuration, SimTime};
use hsm_tcp::connection::{
    try_analyze_connection_with, ConnectionConfig, ConnectionScratch, LossSpec, PathSpec,
};
use hsm_tcp::receiver::{Receiver, ReceiverConfig};
use hsm_tcp::recovery::Recovery;
use hsm_tcp::reno::{RenoSender, SenderConfig};
use hsm_trace::analysis::timeout::TimeoutConfig;
use std::path::Path;

fn result(name: &str, outcome: Result<String, String>) -> DrillResult {
    match outcome {
        Ok(detail) => DrillResult {
            name: name.to_owned(),
            passed: true,
            detail,
        },
        Err(detail) => DrillResult {
            name: name.to_owned(),
            passed: false,
            detail,
        },
    }
}

/// Small, fast campaign: 6 stationary flows, 2 s each.
fn drill_configs() -> Vec<ScenarioConfig> {
    (0..6u64)
        .map(|i| {
            ScenarioConfig::builder()
                .motion(Motion::Stationary)
                .duration(SimDuration::from_secs(2))
                .seed(100 + i)
                .flow(i as u32)
                .build()
                .expect("drill config is valid")
        })
        .collect()
}

/// Runs every drill; `dir` hosts the disk-cache scratch space.
pub fn run_drills(dir: &Path) -> Vec<DrillResult> {
    vec![
        result("worker-death", drill_worker_death()),
        result("cache-corruption", drill_cache_corruption(dir)),
        result("cache-forgery", drill_cache_forgery(dir)),
        result("link-storm", drill_link_storm()),
        result("ack-burst-loss", drill_ack_burst_loss()),
        result("ack-delay-frto-undo", drill_ack_delay_frto_undo()),
        result("scratch-poison", drill_scratch_poison()),
        result("spec-roundtrip", drill_spec_roundtrip()),
    ]
}

/// A worker dying mid-campaign must surface as [`EngineError::WorkerLost`]
/// — never a hang, never a partial result — and a clean rerun of the same
/// campaign must recover completely.
fn drill_worker_death() -> Result<String, String> {
    let configs = drill_configs();
    let killed = Campaign::builder()
        .configs(configs.clone())
        .workers(2)
        .chaos(ChaosInjection {
            kill_worker_at: Some(3),
            ..Default::default()
        })
        .build()
        .map_err(|e| format!("build failed: {e}"))?;
    match killed.run() {
        Err(EngineError::WorkerLost) => {}
        Err(e) => return Err(format!("expected WorkerLost, got: {e}")),
        Ok(_) => return Err("worker death went completely undetected".to_owned()),
    }
    let clean = Campaign::builder()
        .configs(configs)
        .workers(2)
        .build()
        .map_err(|e| format!("build failed: {e}"))?;
    let out = clean
        .run()
        .map_err(|e| format!("clean rerun failed: {e}"))?;
    if out.runs.len() != 6 {
        return Err(format!(
            "clean rerun produced {} of 6 flows",
            out.runs.len()
        ));
    }
    Ok("WorkerLost surfaced; clean rerun recovered all 6 flows".to_owned())
}

/// A bit-flipped disk-cache entry must be detected by the integrity check,
/// counted in `corrupt_entries`, and transparently re-simulated — the warm
/// run's output stays bit-identical to the cold run's.
fn drill_cache_corruption(dir: &Path) -> Result<String, String> {
    let dir = dir.join("corruption");
    let configs = drill_configs();
    let campaign = Campaign::builder()
        .configs(configs.clone())
        .workers(2)
        .build()
        .map_err(|e| format!("build failed: {e}"))?;
    let disk_only = || {
        FlowCache::new(CacheConfig {
            memory_entries: 0,
            disk_dir: Some(dir.clone()),
        })
    };
    let cold = campaign
        .run_with_cache(&disk_only())
        .map_err(|e| format!("cold run failed: {e}"))?;
    let flipped = chaos_corrupt_disk_entry(&dir, CacheKey::of(&configs[2]))
        .map_err(|e| format!("corruption helper failed: {e}"))?;
    if !flipped {
        return Err("no disk entry found to corrupt".to_owned());
    }
    let warm = campaign
        .run_with_cache(&disk_only())
        .map_err(|e| format!("warm run failed: {e}"))?;
    if warm.report.corrupt_entries != 1 {
        return Err(format!(
            "expected exactly 1 corrupt entry detected, got {}",
            warm.report.corrupt_entries
        ));
    }
    for (c, w) in cold.summaries().zip(warm.summaries()) {
        if let Some(diff) = compare_summaries(c, w) {
            return Err(format!("corrupted entry leaked into results: {diff}"));
        }
    }
    Ok("bit-flip detected, counted and re-simulated; streams bit-identical".to_owned())
}

/// A *forged* disk entry — internally self-consistent (key, version and
/// payload hash all match), carrying another flow's summary — evades the
/// integrity hash by construction. The differential oracle is the layer
/// that catches it: the served summary no longer matches a fresh
/// simulation.
fn drill_cache_forgery(dir: &Path) -> Result<String, String> {
    let dir = dir.join("forgery");
    let configs = drill_configs();
    let victim = &configs[0];
    let donor = &configs[1];
    let calm = StormPlan::default();
    let donor_summary = runner::run(&mut Scratch::new(), donor, &calm, Keep::Summary)
        .map_err(|e| format!("donor run failed: {e}"))?
        .analysis
        .summary;
    chaos_forge_disk_entry(&dir, CacheKey::of(victim), &donor_summary)
        .map_err(|e| format!("forgery helper failed: {e}"))?;
    let cache = FlowCache::new(CacheConfig {
        memory_entries: 0,
        disk_dir: Some(dir),
    });
    let Some(served) = cache.lookup(CacheKey::of(victim)) else {
        return Err("forged entry unexpectedly rejected by the integrity check".to_owned());
    };
    if cache.stats().corrupt_entries != 0 {
        return Err(
            "integrity check flagged the forgery — it should be invisible to it".to_owned(),
        );
    }
    let fresh = runner::run(&mut Scratch::new(), victim, &calm, Keep::Summary)
        .map_err(|e| format!("victim run failed: {e}"))?
        .analysis
        .summary;
    match compare_summaries(&fresh, &served) {
        Some(_) => Ok(
            "forgery passed the integrity hash but the differential oracle flagged it".to_owned(),
        ),
        None => Err("differential oracle failed to flag a forged cache entry".to_owned()),
    }
}

/// Fixed-rate sender used by the storm drill.
#[derive(Debug)]
struct Pinger {
    out: LinkId,
    sent: u64,
    budget: u64,
}

impl Agent for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule_in(SimDuration::from_micros(1), 0);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        if self.sent >= self.budget {
            return;
        }
        ctx.send(self.out, Packet::data(FlowId(1), SeqNo(self.sent), false));
        self.sent += 1;
        ctx.schedule_in(SimDuration::from_millis(1), 0);
    }
}

/// A seeded storm of link flaps and burst-loss windows must damage
/// traffic, replay identically, and leave the packet-conservation ledger
/// balanced. The ledger is re-checked here by hand (at quiescence,
/// `offered = delivered + drops`) because the engine's own assert is
/// compiled out of release builds.
fn drill_link_storm() -> Result<String, String> {
    let run = |seed: u64| {
        let mut eng = Engine::new(seed);
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let wire = eng.add_link(
            LinkSpec::new(sink, "storm-wire")
                .bandwidth_bps(100_000_000)
                .prop_delay(SimDuration::from_millis(5)),
        );
        eng.add_agent(Box::new(Pinger {
            out: wire,
            sent: 0,
            budget: 2000,
        }));
        let plan = StormPlan::from_seed(seed, SimDuration::from_secs(2));
        eng.add_agent(Box::new(StormInjector::new(wire, plan)));
        eng.run_until(SimTime::ZERO + SimDuration::from_secs(4));
        let link = eng.link(wire);
        (
            link.offered,
            link.delivered,
            link.overflow_drops,
            link.channel_drops,
            link.queue_len(),
            link.deliver_pending,
        )
    };
    let a = run(23);
    let b = run(23);
    if a != b {
        return Err(format!("storm replay diverged: {a:?} vs {b:?}"));
    }
    let (offered, delivered, overflow, channel, queued, pending) = a;
    if queued != 0 || pending != 0 {
        return Err(format!(
            "link not quiescent after the run: {queued} queued, {pending} pending"
        ));
    }
    if offered != delivered + overflow + channel {
        return Err(format!(
            "conservation ledger broken: offered {offered} != \
             delivered {delivered} + overflow {overflow} + channel {channel}"
        ));
    }
    if channel == 0 {
        return Err("storm injected no loss — burst windows never bit".to_owned());
    }
    Ok(format!(
        "storm dropped {channel} packets; ledger balanced ({offered} offered) and replay identical"
    ))
}

/// ACK-burst-loss episodes (periodic outage windows on the uplink, the
/// ACK direction) must raise the measured ACK loss relative to a clean
/// uplink and replay deterministically.
fn drill_ack_burst_loss() -> Result<String, String> {
    let connection = ConnectionConfig {
        sender: SenderConfig {
            stop_after: Some(SimDuration::from_secs(8)),
            ..Default::default()
        },
        deadline: SimTime::ZERO + SimDuration::from_secs(20),
        ..Default::default()
    };
    let mut scratch = ConnectionScratch::new();
    let mut run = |up_loss: LossSpec| {
        let path = PathSpec {
            up_loss,
            ..Default::default()
        };
        let out = try_analyze_connection_with(
            &mut scratch,
            5,
            &path,
            None,
            &connection,
            &TimeoutConfig::default(),
            Keep::Summary,
        )
        .map_err(|e| format!("connection run failed: {e}"))?;
        Ok::<_, String>(out.analysis.summary)
    };
    let episodes = LossSpec::PeriodicOutage {
        period_s: 1.0,
        outage_s: 0.25,
        offset_s: 0.3,
        loss: 0.95,
    };
    let stormy = run(episodes)?;
    let again = run(episodes)?;
    if let Some(diff) = compare_summaries(&stormy, &again) {
        return Err(format!("ACK-burst run not deterministic: {diff}"));
    }
    let clean = run(LossSpec::Lossless)?;
    if stormy.p_a <= clean.p_a {
        return Err(format!(
            "ACK-burst episodes did not raise ACK loss: stormy {} vs clean {}",
            stormy.p_a, clean.p_a
        ));
    }
    Ok(format!(
        "ACK loss rose from {:.4} to {:.4} under burst episodes, deterministically",
        clean.p_a, stormy.p_a
    ))
}

/// A *delayed-but-not-lost* ACK-burst storm: uplink `Flap` episodes hold
/// every ACK back long enough to expire the retransmission timer, then
/// deliver them all. Plain RFC 6298 collapses its window on each
/// (spurious) timeout; the F-RTO sender must recognize the delay from
/// the post-timeout ACK pattern — the undo counter fires — and deliver
/// strictly more data than the no-recovery sender over the same horizon
/// and seed. The comparison itself must replay identically.
fn drill_ack_delay_frto_undo() -> Result<String, String> {
    let run = |recovery: Recovery| {
        let mut eng = Engine::new(31);
        let tx = eng.add_agent(Box::new(RenoSender::new(
            FlowId(0),
            LinkId::from_raw(0),
            SenderConfig {
                stop_after: Some(SimDuration::from_secs(8)),
                recovery,
                ..Default::default()
            },
        )));
        let rx = eng.add_agent(Box::new(Receiver::new(
            FlowId(0),
            LinkId::from_raw(0),
            ReceiverConfig::default(),
        )));
        let down = eng.add_link(
            LinkSpec::new(rx, "downlink")
                .bandwidth_bps(50_000_000)
                .prop_delay(SimDuration::from_millis(25)),
        );
        let up = eng.add_link(
            LinkSpec::new(tx, "uplink")
                .bandwidth_bps(50_000_000)
                .prop_delay(SimDuration::from_millis(25)),
        );
        eng.agent_mut::<RenoSender>(tx).expect("sender").data_link = down;
        eng.agent_mut::<Receiver>(rx).expect("receiver").uplink = up;
        // Four ACK-holding episodes: every ACK is delayed ~800 ms (far
        // past the RTO) but none is dropped.
        let plan = StormPlan {
            episodes: [400u64, 2_500, 4_500, 6_400]
                .iter()
                .map(|&at| StormEpisode {
                    at: SimTime::from_millis(at),
                    duration: SimDuration::from_millis(800),
                    kind: StormKind::Flap(SimDuration::from_millis(800)),
                })
                .collect(),
        };
        eng.add_agent(Box::new(StormInjector::new(up, plan)));
        eng.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        let delivered = eng
            .agent_mut::<Receiver>(rx)
            .expect("receiver")
            .metrics
            .next_expected;
        let sender = eng.agent_mut::<RenoSender>(tx).expect("sender");
        (
            delivered,
            sender.metrics.spurious_rto_undone,
            sender.metrics.timeouts.len() as u64,
        )
    };
    let (frto_delivered, undone, timeouts) = run(Recovery::Frto);
    let replay = run(Recovery::Frto);
    if replay != (frto_delivered, undone, timeouts) {
        return Err(format!(
            "F-RTO run not deterministic: {replay:?} vs ({frto_delivered}, {undone}, {timeouts})"
        ));
    }
    let (none_delivered, none_undone, none_timeouts) = run(Recovery::None);
    if timeouts == 0 || none_timeouts == 0 {
        return Err("storm raised no timeouts — episodes never bit".to_owned());
    }
    if none_undone != 0 {
        return Err(format!(
            "no-recovery sender claims {none_undone} undos without an undo mechanism"
        ));
    }
    if undone == 0 {
        return Err(format!(
            "F-RTO never fired its undo across {timeouts} delay-storm timeouts"
        ));
    }
    if frto_delivered <= none_delivered {
        return Err(format!(
            "F-RTO must out-deliver plain recovery under a pure delay storm: \
             {frto_delivered} vs {none_delivered} segments"
        ));
    }
    Ok(format!(
        "F-RTO undid {undone} of {timeouts} spurious timeouts and delivered \
         {frto_delivered} segments vs {none_delivered} without recovery, deterministically"
    ))
}

/// A deliberately poisoned scratch handed back to the runner must produce
/// results bit-identical to a fresh run — on the *hard* case, a mobile
/// flow with handoffs.
fn drill_scratch_poison() -> Result<String, String> {
    let config = ScenarioConfig::builder()
        .motion(Motion::HighSpeed)
        .duration(SimDuration::from_secs(5))
        .seed(77)
        .build()
        .expect("valid");
    let calm = StormPlan::default();
    let fresh = runner::run(&mut Scratch::new(), &config, &calm, Keep::Trace)
        .map_err(|e| format!("fresh run failed: {e}"))?;
    let mut scratch = Scratch::new();
    for round in 0..2 {
        scratch.poison();
        let reused = runner::run(&mut scratch, &config, &calm, Keep::Trace)
            .map_err(|e| format!("poisoned run failed: {e}"))?;
        if let Some(diff) = compare_summaries(fresh.summary(), reused.summary()) {
            return Err(format!("round {round}: poisoned scratch diverged: {diff}"));
        }
        if reused.trace != fresh.trace {
            return Err(format!("round {round}: traces diverged"));
        }
    }
    Ok("two poisoned reuses both bit-identical to the fresh run".to_owned())
}

/// Declarative campaign specs must survive a TOML round trip exactly,
/// expand deterministically, and reject corrupted spec text with an
/// error *naming the offending key* — checked over a sweep of fuzzed
/// specs so the guarantee is not an artifact of one hand-written file.
fn drill_spec_roundtrip() -> Result<String, String> {
    const CASES: u64 = 24;
    let mut expanded = 0usize;
    for case in 0..CASES {
        let spec = crate::fuzz::spec_for_case(4242, case);
        let text = spec.to_toml();
        let back = CampaignSpec::from_toml(&text)
            .map_err(|e| format!("case {case}: serialized spec failed to parse back: {e}"))?;
        if back != spec {
            return Err(format!("case {case}: TOML round trip changed the spec"));
        }
        let a = spec
            .expand()
            .map_err(|e| format!("case {case}: expand failed: {e}"))?;
        let b = back
            .expand()
            .map_err(|e| format!("case {case}: re-expand failed: {e}"))?;
        if a != b || expansion_digest(&a) != expansion_digest(&b) {
            return Err(format!("case {case}: expansion not deterministic"));
        }
        expanded += a.len();
        // A corrupted spec (unknown key injected into the last table)
        // must be rejected with an error that names the bad key.
        let broken = format!("{text}\nbogus_knob = 1\n");
        match CampaignSpec::from_toml(&broken) {
            Err(e) if e.key.contains("bogus_knob") => {}
            Err(e) => {
                return Err(format!(
                    "case {case}: rejection does not name the bad key: {e}"
                ))
            }
            Ok(_) => return Err(format!("case {case}: unknown key silently accepted")),
        }
    }
    Ok(format!(
        "{CASES} fuzzed specs round-tripped exactly and expanded deterministically \
         ({expanded} configs); corrupted spec text rejected naming the bad key"
    ))
}
