//! Congestion-control zoo: golden throughput fixtures and per-CC
//! determinism across worker counts and cache tiers.
//!
//! The golden fixtures pin each controller's measured throughput on the
//! Veno test's pure-random-loss path to 1e-12 relative. The Reno-family
//! values predate the zoo; all of them have held across every rework of
//! how a controller is dispatched (an enum, then a trait object per
//! controller, now one window machine with a law per controller). To
//! regenerate after an intentional behavior change, print the values
//! with `{:.17e}` from `random_loss_throughput` and paste them here.
// The goldens deliberately carry 18 significant digits so a 1e-12
// relative drift is detectable; the extra digits are the point.
#![allow(clippy::excessive_precision)]

use hsm::scenario::runner::{Motion, ScenarioConfig};
use hsm::simnet::loss::LossModel;
use hsm::simnet::time::{SimDuration, SimTime};
use hsm::tcp::cc::Algorithm;
use hsm::tcp::connection::{run_connection, ConnectionConfig, PathSpec};
use hsm::tcp::reno::SenderConfig;
use hsm_runtime::cache::{CacheConfig, FlowCache};
use hsm_runtime::engine::Campaign;
use hsm_trace::summary::analyze_flow;

/// Runs one flow on the Veno test's pure-random-loss path and returns its
/// measured throughput (segments/s).
fn random_loss_throughput(algorithm: Algorithm, newreno: bool, seed: u64) -> f64 {
    let cfg = ConnectionConfig {
        sender: SenderConfig {
            algorithm,
            newreno,
            stop_after: Some(SimDuration::from_secs(40)),
            ..Default::default()
        },
        deadline: SimTime::from_secs(50),
        ..Default::default()
    };
    let path = PathSpec {
        down_loss: LossModel::Bernoulli(0.005),
        ..Default::default()
    };
    let out = run_connection(seed, &path, None, &cfg);
    analyze_flow(&out.trace, &Default::default())
        .summary
        .throughput_sps
}

/// Golden throughputs at seed 60: the Reno family pins byte-identity
/// through the trait refactor, the new zoo members pin their own
/// dynamics. BBR's model-driven window ignores most random loss (highest
/// throughput); Veno's random-loss discrimination beats Reno's blind
/// halving; CUBIC sits between; Compound's delay window adds a little
/// over Reno on this uncongested path.
#[test]
fn golden_throughput_fixtures_on_the_random_loss_path() {
    for (name, algo, newreno, expected) in [
        ("Reno", Algorithm::Reno, false, 218.601808929968911),
        ("NewReno", Algorithm::Reno, true, 212.262688002175338),
        ("Veno", Algorithm::Veno, false, 353.050732580270051),
        ("Cubic", Algorithm::Cubic, false, 336.001411205927070),
        ("Bbr", Algorithm::Bbr, false, 695.082723749670322),
        ("Compound", Algorithm::Compound, false, 223.388330698634434),
    ] {
        let tp = random_loss_throughput(algo, newreno, 60);
        let rel = ((tp - expected) / expected).abs();
        assert!(
            rel < 1e-12,
            "{name} drifted from its golden fixture: measured {tp:.17e}, \
             expected {expected:.17e} (relative error {rel:.3e})"
        );
    }
}

fn zoo_configs(cc: Algorithm) -> Vec<ScenarioConfig> {
    (0..6u32)
        .map(|i| ScenarioConfig {
            motion: Motion::Stationary,
            seed: 900 + u64::from(i),
            duration: SimDuration::from_secs(5),
            flow: i,
            cc,
            ..Default::default()
        })
        .collect()
}

fn summarize(campaign: &Campaign, cache: &FlowCache) -> (Vec<String>, usize) {
    let out = campaign.run_with_cache(cache).expect("campaign runs");
    let summaries = out
        .summaries()
        .map(|s| serde_json::to_string(s).expect("summary serializes"))
        .collect();
    (summaries, out.report.cache_hits)
}

/// Every zoo member must produce a bit-identical summary stream for any
/// worker count and any cache tier: serial cold is the reference; 2- and
/// 8-worker cold runs and 2- and 8-worker warm-disk replays must match
/// it byte for byte (summaries compared on their serialized JSON, so
/// even a sign-of-zero difference would fail).
#[test]
fn every_controller_is_deterministic_across_workers_and_cache_tiers() {
    let disk_root = std::env::temp_dir().join(format!("hsm_cc_zoo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_root);
    for cc in Algorithm::zoo() {
        let configs = zoo_configs(cc);
        let n = configs.len();
        let disk_dir = disk_root.join(cc.label());
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
        assert_eq!(hits, 0, "{}: reference run must be cold", cc.label());
        assert_eq!(reference.len(), n);

        for workers in [2usize, 8] {
            // Cold: fresh memory-only cache, nothing to hit.
            let (cold, hits) =
                summarize(&build(workers), &FlowCache::new(CacheConfig::memory_only()));
            assert_eq!(hits, 0, "{} w{workers}: cold run hit a cache", cc.label());
            assert_eq!(
                cold,
                reference,
                "{} diverged cold at {workers} workers",
                cc.label()
            );

            // Warm-disk: a fresh process-like cache over the same disk
            // tier must serve every flow without simulating.
            let warm_cache = FlowCache::new(CacheConfig::with_disk(&disk_dir));
            let (warm, hits) = summarize(&build(workers), &warm_cache);
            assert_eq!(
                hits,
                n,
                "{} w{workers}: warm-disk replay re-simulated",
                cc.label()
            );
            assert_eq!(
                warm,
                reference,
                "{} diverged warm-disk at {workers} workers",
                cc.label()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&disk_root);
}

/// The cc choice must actually reach the sender through the full
/// scenario stack: different controllers on the same seed must not all
/// collapse to Reno's stream.
#[test]
fn zoo_members_differ_end_to_end() {
    let reference = zoo_configs(Algorithm::Reno);
    let reno = hsm::scenario::runner::run_scenario(&reference[0])
        .summary()
        .throughput_sps;
    let mut distinct = 0;
    for cc in [Algorithm::Cubic, Algorithm::Bbr, Algorithm::Compound] {
        let tp = hsm::scenario::runner::run_scenario(&zoo_configs(cc)[0])
            .summary()
            .throughput_sps;
        if (tp - reno).abs() > 1e-9 {
            distinct += 1;
        }
    }
    assert!(
        distinct > 0,
        "no zoo member's end-to-end stream differs from Reno's"
    );
}
