//! Integration tests for the extension features: Veno, adaptive delayed
//! ACKs, spurious-RTO undo and shared-radio MPTCP.

use hsm::scenario::prelude::*;
use hsm::simnet::time::SimDuration;
use hsm::tcp::prelude::*;
use hsm::trace::prelude::*;

fn hsr_scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        duration: SimDuration::from_secs(40),
        ..Default::default()
    }
}

fn run_with(
    sc: &ScenarioConfig,
    mutate: impl FnOnce(&mut ConnectionConfig),
) -> (ConnectionOutcome, FlowSummary) {
    let mut conn = sc.connection();
    mutate(&mut conn);
    let out = run_connection(sc.seed, &sc.path(), sc.mobility().as_ref(), &conn);
    let summary = analyze_flow(&out.trace, &TimeoutConfig::default()).summary;
    (out, summary)
}

#[test]
fn veno_runs_the_full_hsr_pipeline() {
    let sc = hsr_scenario(91);
    let (_, reno) = run_with(&sc, |_| {});
    let (_, veno) = run_with(&sc, |c| c.sender.algorithm = Algorithm::Veno);
    assert!(veno.throughput_sps > 0.0);
    // Same channel, same seed: both complete; Veno should be in the same
    // ballpark or better (its cuts are never deeper than Reno's).
    assert!(
        veno.throughput_sps > reno.throughput_sps * 0.5,
        "veno {} vs reno {}",
        veno.throughput_sps,
        reno.throughput_sps
    );
}

#[test]
fn adaptive_delack_stays_safe_on_the_train() {
    // The conservative default (b_max = 2) must stay competitive with the
    // fixed b = 2 receiver on the same ride.
    let sc = hsr_scenario(92);
    let (_, fixed) = run_with(&sc, |_| {});
    let (_, adaptive) = run_with(&sc, |c| c.receiver.adaptive = true);
    assert!(adaptive.throughput_sps > 0.0);
    assert!(
        adaptive.throughput_sps > fixed.throughput_sps * 0.6,
        "adaptive {} vs fixed {}",
        adaptive.throughput_sps,
        fixed.throughput_sps
    );
}

#[test]
fn spurious_rto_undo_is_a_net_positive_under_ack_outages() {
    // A channel whose only impairment is periodic pure-ACK blackouts —
    // every timeout is spurious and data keeps flowing, so the Eifel
    // timing heuristic can catch them.
    let path = PathSpec {
        up_loss: LossModel::PeriodicOutage {
            period: SimDuration::from_secs_f64(6.0),
            outage: SimDuration::from_secs_f64(0.8),
            offset: SimDuration::from_secs_f64(3.0),
            loss: 1.0,
        },
        jitter_sd: SimDuration::ZERO,
        ..Default::default()
    };
    let mut with = 0.0;
    let mut without = 0.0;
    let mut total_undone = 0;
    let mut frto_undone = 0;
    for seed in 0..3 {
        let cfg = ConnectionConfig {
            sender: SenderConfig {
                stop_after: Some(SimDuration::from_secs(40)),
                ..Default::default()
            },
            deadline: hsm::simnet::time::SimTime::from_secs(60),
            ..Default::default()
        };
        let base = run_connection(930 + seed, &path, None, &cfg);
        let mut undo_cfg = cfg.clone();
        undo_cfg.sender.spurious_rto_undo = true;
        let undo = run_connection(930 + seed, &path, None, &undo_cfg);
        with += analyze_flow(&undo.trace, &TimeoutConfig::default())
            .summary
            .throughput_sps;
        without += analyze_flow(&base.trace, &TimeoutConfig::default())
            .summary
            .throughput_sps;
        total_undone += undo.sender.spurious_rto_undone;
        // The fence around the flag: `Recovery::Frto` is not a second way
        // of doing this. The first ACK after a blackout covers the whole
        // recovery point, and RFC 5682's basic algorithm cannot classify
        // a timeout from that ACK alone — it falls back to conventional
        // recovery. ACK-burst *loss* is the flag's regime.
        let mut frto_cfg = cfg.clone();
        frto_cfg.sender.recovery = Recovery::Frto;
        frto_undone += run_connection(930 + seed, &path, None, &frto_cfg)
            .sender
            .spurious_rto_undone;
    }
    assert!(
        total_undone > 0,
        "periodic ACK blackouts must trigger undos"
    );
    assert_eq!(
        frto_undone, 0,
        "F-RTO cannot decide when the first ACK covers the recovery point"
    );
    assert!(
        with > without * 0.95,
        "undo should not cost throughput: {with} vs {without}"
    );
}

#[test]
fn shared_radio_mptcp_fills_dead_time_without_doubling_capacity() {
    // On the bandwidth-limited Telecom channel, a single flow idles during
    // timeout ladders; a second flow on the SAME radio fills those gaps —
    // but the aggregate stays within the pipe.
    let mut single_sum = 0.0;
    let mut shared_sum = 0.0;
    for seed in 0..3 {
        let sc = ScenarioConfig {
            provider: Provider::ChinaTelecom,
            seed: 940 + seed,
            duration: SimDuration::from_secs(40),
            ..Default::default()
        };
        single_sum += run_scenario(&sc).summary().throughput_sps;
        let shared = run_mptcp_shared_radio(
            sc.seed,
            &sc.path(),
            sc.mobility().as_ref(),
            &sc.connection(),
        );
        shared_sum += shared.aggregate_throughput_sps();
    }
    assert!(
        shared_sum > single_sum,
        "shared-radio MPTCP must recover dead time: {shared_sum} vs {single_sum}"
    );
}
