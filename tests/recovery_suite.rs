//! Loss-recovery zoo: golden fixtures and per-(recovery × cc)
//! determinism across worker counts and cache tiers.
//!
//! The `recovery = None` goldens reuse the cc-zoo's exact pre-recovery
//! pinned throughputs: an explicit `Recovery::None` sender must be
//! byte-identical to a sender that predates the strategy layer. The
//! per-variant storm goldens pin each countermeasure's dynamics under a
//! delayed-but-not-lost ACK flap storm (`StormPlan::periodic_flaps`, the
//! storm the accuracy ledger's §V table runs). To regenerate after an
//! intentional behavior change, print the values with `{:.17e}`.
// The goldens deliberately carry 18 significant digits so a 1e-12
// relative drift is detectable; the extra digits are the point.
#![allow(clippy::excessive_precision)]

use hsm::scenario::runner::{self, Keep, Motion, ScenarioConfig, Scratch};
use hsm::simnet::chaos::StormPlan;
use hsm::simnet::time::{SimDuration, SimTime};
use hsm::tcp::cc::Algorithm;
use hsm::tcp::connection::{run_connection, ConnectionConfig, LossSpec, PathSpec};
use hsm::tcp::recovery::Recovery;
use hsm::tcp::reno::SenderConfig;
use hsm_runtime::cache::{CacheConfig, FlowCache};
use hsm_runtime::engine::Campaign;
use hsm_trace::summary::analyze_flow;

/// Runs one flow on the cc-zoo's pure-random-loss path with an explicit
/// recovery strategy and returns its measured throughput (segments/s).
fn random_loss_throughput(
    algorithm: Algorithm,
    newreno: bool,
    recovery: Recovery,
    seed: u64,
) -> f64 {
    let cfg = ConnectionConfig {
        sender: SenderConfig {
            algorithm,
            newreno,
            recovery,
            stop_after: Some(SimDuration::from_secs(40)),
            ..Default::default()
        },
        deadline: SimTime::from_secs(50),
        ..Default::default()
    };
    let path = PathSpec {
        down_loss: LossSpec::Bernoulli(0.005),
        ..Default::default()
    };
    let out = run_connection(seed, &path, None, &cfg);
    analyze_flow(&out.trace, &Default::default())
        .summary
        .throughput_sps
}

/// An explicit `Recovery::None` must reproduce the cc-zoo's pre-recovery
/// goldens bit for bit — the strategy layer's default path adds nothing
/// to the sender's event stream.
#[test]
fn explicit_none_matches_the_pre_recovery_goldens() {
    for (name, algo, newreno, expected) in [
        ("Reno", Algorithm::Reno, false, 218.601808929968911),
        ("NewReno", Algorithm::Reno, true, 212.262688002175338),
        ("Veno", Algorithm::veno(), false, 353.050732580270051),
        ("Cubic", Algorithm::cubic(), false, 336.001411205927070),
        ("Bbr", Algorithm::Bbr, false, 695.082723749670322),
        (
            "Compound",
            Algorithm::compound(),
            false,
            223.388330698634434,
        ),
    ] {
        let tp = random_loss_throughput(algo, newreno, Recovery::None, 60);
        let rel = ((tp - expected) / expected).abs();
        assert!(
            rel < 1e-12,
            "{name}+None drifted from the pre-recovery golden: measured {tp:.17e}, \
             expected {expected:.17e} (relative error {rel:.3e})"
        );
    }
}

fn storm_config(recovery: Recovery) -> ScenarioConfig {
    ScenarioConfig::builder()
        .motion(Motion::Stationary)
        .seed(77)
        .duration(SimDuration::from_secs(12))
        .recovery(recovery)
        .build()
        .expect("valid storm config")
}

/// Each countermeasure must actually change the sender's dynamics under
/// the flap storm — and in its own characteristic way.
#[test]
fn every_countermeasure_leaves_its_signature_under_the_storm() {
    let plan = StormPlan::periodic_flaps(SimDuration::from_secs(12));
    let run = |recovery| {
        runner::run(
            &mut Scratch::new(),
            &storm_config(recovery),
            &plan,
            Keep::Summary,
        )
        .expect("storm scenario runs")
    };

    let none = run(Recovery::None);
    assert!(
        !none.sender.timeouts.is_empty(),
        "the storm never drove the baseline into a timeout"
    );
    assert_eq!(none.sender.spurious_rto_undone, 0);
    assert_eq!(none.sender.frto_probes, 0);
    assert_eq!(none.sender.backoff_skipped, 0);

    let redundant = run(Recovery::RedundantRto);
    assert!(
        redundant.sender.retransmissions > none.sender.retransmissions,
        "redundant retransmit-on-RTO sent no extra retransmissions"
    );

    let frto = run(Recovery::Frto);
    assert!(
        frto.sender.frto_probes > 0,
        "F-RTO never probed under a pure delay storm"
    );
    assert!(
        frto.sender.spurious_rto_undone > 0,
        "F-RTO never undid a spurious timeout"
    );
    assert!(
        frto.summary().throughput_sps > none.summary().throughput_sps,
        "undoing spurious timeouts must out-deliver plain recovery: {} vs {}",
        frto.summary().throughput_sps,
        none.summary().throughput_sps
    );

    let ack_robust = run(Recovery::AckRobust);
    assert!(
        ack_robust.sender.backoff_skipped > 0,
        "the ACK-loss-robust strategy never withheld a backoff"
    );
}

fn suite_configs() -> Vec<ScenarioConfig> {
    let mut configs = Vec::new();
    let mut flow = 0u32;
    for cc in Algorithm::zoo() {
        for recovery in Recovery::ALL {
            for seed in 0..2u64 {
                configs.push(
                    ScenarioConfig::builder()
                        .motion(Motion::Stationary)
                        .seed(1_700 + seed)
                        .duration(SimDuration::from_secs(4))
                        .flow(flow)
                        .cc(cc)
                        .recovery(recovery)
                        .build()
                        .expect("valid suite config"),
                );
                flow += 1;
            }
        }
    }
    configs
}

fn summarize(campaign: &Campaign, cache: &FlowCache) -> (Vec<String>, usize) {
    let out = campaign.run_with_cache(cache).expect("campaign runs");
    let summaries = out
        .summaries()
        .map(|s| serde_json::to_string(s).expect("summary serializes"))
        .collect();
    (summaries, out.report.cache_hits)
}

/// One campaign spanning the full (cc × recovery) grid must produce a
/// bit-identical summary stream for any worker count and any cache tier:
/// serial cold is the reference; 2- and 8-worker cold runs and 2- and
/// 8-worker warm-disk replays must match it byte for byte.
#[test]
fn the_recovery_grid_is_deterministic_across_workers_and_cache_tiers() {
    let disk_dir = std::env::temp_dir().join(format!("hsm_recovery_suite_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_dir);
    let configs = suite_configs();
    let n = configs.len();
    assert_eq!(n, Algorithm::zoo().len() * Recovery::ALL.len() * 2);
    let build = |workers: usize| {
        Campaign::builder()
            .configs(configs.clone())
            .workers(workers)
            .build()
            .expect("campaign builds")
    };

    // Serial cold run, populating the disk tier.
    let disk_cache = FlowCache::new(CacheConfig::with_disk(&disk_dir));
    let (reference, hits) = summarize(&build(1), &disk_cache);
    assert_eq!(hits, 0, "reference run must be cold");
    assert_eq!(reference.len(), n);

    for workers in [2usize, 8] {
        // Cold: fresh memory-only cache, nothing to hit.
        let (cold, hits) = summarize(&build(workers), &FlowCache::new(CacheConfig::memory_only()));
        assert_eq!(hits, 0, "w{workers}: cold run hit a cache");
        assert_eq!(cold, reference, "grid diverged cold at {workers} workers");

        // Warm-disk: a fresh process-like cache over the same disk tier
        // must serve every flow without simulating.
        let warm_cache = FlowCache::new(CacheConfig::with_disk(&disk_dir));
        let (warm, hits) = summarize(&build(workers), &warm_cache);
        assert_eq!(hits, n, "w{workers}: warm-disk replay re-simulated");
        assert_eq!(
            warm, reference,
            "grid diverged warm-disk at {workers} workers"
        );
    }
    let _ = std::fs::remove_dir_all(&disk_dir);
}

/// The `recovery` axis must reach the sender *through the campaign
/// engine*, not only through the direct runner: on the same seed, cached
/// slices of different variants must stay distinct.
#[test]
fn recovery_variants_stay_distinct_through_the_campaign_cache() {
    let cache = FlowCache::new(CacheConfig::memory_only());
    let run = |recovery| {
        let configs = vec![ScenarioConfig::builder()
            .motion(Motion::Stationary)
            .seed(2_400)
            .duration(SimDuration::from_secs(5))
            .recovery(recovery)
            .build()
            .expect("valid config")];
        let campaign = Campaign::builder()
            .configs(configs)
            .build()
            .expect("campaign builds");
        campaign
            .run_with_cache(&cache)
            .expect("campaign runs")
            .report
            .cache_hits
    };
    // Same seed, same path — only the recovery field differs. A hit on
    // any later run would mean the cache key ignored the axis and served
    // one variant from another's entry; a hit on the replay proves the
    // keys are stable, not merely distinct.
    for recovery in Recovery::ALL {
        assert_eq!(
            run(recovery),
            0,
            "{} hit another variant's entry",
            recovery.label()
        );
    }
    assert_eq!(run(Recovery::Frto), 1, "identical rerun missed the cache");
}
