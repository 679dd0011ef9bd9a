//! Reproducibility: identical seeds reproduce identical traces bit for
//! bit, across the whole stack, including parallel dataset generation;
//! trace serialization round-trips.

use hsm::runtime::{run_dataset, Campaign};
use hsm::scenario::prelude::*;
use hsm::simnet::time::SimDuration;
use hsm::trace::prelude::*;

fn one_flow(seed: u64) -> FlowTrace {
    run_scenario(&ScenarioConfig {
        seed,
        duration: SimDuration::from_secs(25),
        ..Default::default()
    })
    .trace
    .expect("run_scenario keeps the trace")
}

#[test]
fn same_seed_same_trace() {
    let a = one_flow(123);
    let b = one_flow(123);
    assert_eq!(a, b, "identical seeds must reproduce identical traces");
    assert!(!a.records.is_empty());
}

#[test]
fn different_seeds_differ() {
    let a = one_flow(123);
    let b = one_flow(124);
    assert_ne!(a, b);
}

#[test]
fn dataset_generation_is_deterministic_despite_parallelism() {
    let cfg = DatasetConfig {
        scale: 0.02,
        flow_duration: SimDuration::from_secs(10),
        ..Default::default()
    };
    let (a, _) = run_dataset(&cfg).expect("dataset runs");
    let (b, _) = run_dataset(&cfg).expect("dataset runs");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.campaign, y.campaign);
        assert_eq!(x.summary, y.summary);
    }
}

#[test]
fn flow_summaries_bit_identical_across_worker_counts() {
    // The determinism contract of the campaign engine: the
    // worker count is a throughput knob, never a results knob. Fixed seed
    // + fixed config must produce bit-identical `FlowSummary` values for
    // 1, 2 and 8 workers — verified both structurally (PartialEq) and on
    // the serialized bytes, so even a sign-of-zero or NaN-payload
    // difference would fail.
    let cfg = DatasetConfig {
        scale: 0.02,
        flow_duration: SimDuration::from_secs(10),
        ..Default::default()
    };
    let summarize = |workers: usize| -> Vec<String> {
        Campaign::builder()
            .configs(plan_dataset(&cfg).into_iter().map(|(_, c)| c))
            .workers(workers)
            .build()
            .expect("valid campaign")
            .run()
            .expect("campaign runs")
            .summaries()
            .map(|s| serde_json::to_string(s).expect("summary serializes"))
            .collect()
    };
    let one = summarize(1);
    let two = summarize(2);
    let eight = summarize(8);
    assert!(!one.is_empty());
    assert_eq!(one, two, "2 workers diverged from serial");
    assert_eq!(one, eight, "8 workers diverged from serial");
}

#[test]
fn trace_json_round_trip_preserves_analysis() {
    let trace = one_flow(55);
    let json = trace.to_json().expect("serialize");
    let back = FlowTrace::from_json(&json).expect("deserialize");
    assert_eq!(trace, back);
    let a1 = analyze_flow(&trace, &TimeoutConfig::default());
    let a2 = analyze_flow(&back, &TimeoutConfig::default());
    assert_eq!(a1.summary, a2.summary);
}

#[test]
fn analysis_is_a_pure_function_of_the_trace() {
    let trace = one_flow(77);
    let a1 = analyze_flow(&trace, &TimeoutConfig::default());
    let a2 = analyze_flow(&trace, &TimeoutConfig::default());
    assert_eq!(a1.summary, a2.summary);
    assert_eq!(a1.timeouts, a2.timeouts);
}
