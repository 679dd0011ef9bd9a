//! End-to-end pipeline: scenario → simulation → capture → analysis →
//! parameter estimation → model evaluation, across both motions.

use hsm::model::prelude::*;
use hsm::scenario::prelude::*;
use hsm::simnet::time::SimDuration;

fn run(motion: Motion, seed: u64) -> ScenarioOutcome {
    run_scenario(&ScenarioConfig {
        provider: Provider::ChinaMobile,
        motion,
        seed,
        duration: SimDuration::from_secs(40),
        ..Default::default()
    })
}

#[test]
fn pipeline_produces_consistent_quantities() {
    let out = run(Motion::HighSpeed, 11);
    let s = out.summary();

    // Trace-level consistency.
    assert!(s.data_sent > 0);
    assert!(s.throughput_sps > 0.0);
    assert!(s.goodput_sps <= s.throughput_sps + 1e-9);
    assert!(s.p_d >= 0.0 && s.p_d < 0.2);
    assert!(s.rtt_s > 0.03 && s.rtt_s < 0.3, "rtt {}", s.rtt_s);
    assert!(s.spurious_timeouts <= s.timeouts);
    assert!(s.timeout_sequences <= s.timeouts);

    // Parameter estimation stays in the model domain.
    let params = estimate_params(s, &EstimateConfig::default());
    params
        .validate()
        .expect("estimated parameters must validate");

    // Both models evaluate to finite positive throughputs.
    let enhanced = enhanced_throughput(&params).unwrap();
    let padhye = padhye_full(&params).unwrap();
    assert!(enhanced.is_finite() && enhanced > 0.0);
    assert!(padhye.is_finite() && padhye > 0.0);
    // The enhanced model adds impairments Padhye ignores, so it never
    // predicts more.
    assert!(
        enhanced <= padhye * 1.01,
        "enhanced {enhanced} vs padhye {padhye}"
    );
}

#[test]
fn high_speed_is_strictly_harsher_than_stationary() {
    let hs = run(Motion::HighSpeed, 21);
    let st = run(Motion::Stationary, 21);
    let (h, s) = (hs.summary(), st.summary());
    assert!(
        h.throughput_sps < s.throughput_sps,
        "hs {} st {}",
        h.throughput_sps,
        s.throughput_sps
    );
    assert!(h.timeouts >= s.timeouts);
    assert!(h.p_a >= s.p_a);
    assert!(hs.outcome.channel.is_some());
    assert!(st.outcome.channel.is_none());
}

#[test]
fn internal_ground_truth_matches_trace_inference() {
    let out = run(Motion::HighSpeed, 31);
    let truth = out.outcome.sender.timeouts.len() as i64;
    let inferred = i64::from(out.summary().timeouts);
    // The silence-threshold heuristic may miss or add a couple of events,
    // but must track the ground truth closely.
    assert!(
        (truth - inferred).abs() <= (truth / 3).max(3),
        "ground truth {truth} vs inferred {inferred}"
    );
    // Spurious timeouts imply duplicate payloads at the receiver.
    if out.summary().spurious_timeouts > 0 {
        assert!(out.outcome.receiver.duplicate_payloads > 0);
    }
}

#[test]
fn every_provider_runs_the_full_pipeline() {
    for (i, provider) in Provider::ALL.iter().enumerate() {
        let out = run_scenario(&ScenarioConfig {
            provider: *provider,
            seed: 40 + i as u64,
            duration: SimDuration::from_secs(20),
            ..Default::default()
        });
        assert_eq!(&*out.summary().provider, provider.name());
        assert!(
            out.summary().throughput_sps > 0.0,
            "{provider:?} produced no throughput"
        );
    }
}
