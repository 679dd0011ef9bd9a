//! Integration tests for the extension features: Veno, adaptive delayed
//! ACKs, spurious-RTO undo, shared-radio MPTCP, trace persistence,
//! timeline analysis and global model fitting.

use hsm::model::prelude::*;
use hsm::runtime::run_dataset;
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
    let (_, veno) = run_with(&sc, |c| c.sender.algorithm = Algorithm::veno());
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
    let (_, adaptive) = run_with(&sc, |c| {
        c.receiver.adaptive = Some(AdaptiveDelAck::default())
    });
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
        up_loss: LossSpec::PeriodicOutage {
            period_s: 6.0,
            outage_s: 0.8,
            offset_s: 3.0,
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

#[test]
fn dataset_persistence_round_trips_through_disk() {
    let cfg = DatasetConfig {
        scale: 0.02,
        flow_duration: SimDuration::from_secs(10),
        ..Default::default()
    };
    // A dataset is its summaries; the traces to persist come from running
    // its plan one flow at a time.
    let traces: Vec<FlowTrace> = plan_dataset(&cfg)
        .iter()
        .map(|(_, config)| {
            run_scenario(config)
                .trace
                .expect("run_scenario keeps the trace")
        })
        .collect();
    let path = std::env::temp_dir().join("hsm_ext_roundtrip.jsonl");
    save_traces(&path, &traces).expect("save");
    let reloaded = load_traces(&path).expect("load");
    assert_eq!(reloaded.len(), traces.len());
    for (orig, back) in traces.iter().zip(&reloaded) {
        assert_eq!(orig, back);
        // Reloaded traces analyze identically.
        let a = analyze_flow(orig, &TimeoutConfig::default()).summary;
        let b = analyze_flow(back, &TimeoutConfig::default()).summary;
        assert_eq!(a, b);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn timeline_dead_time_tracks_timeouts() {
    let out = run_scenario(&hsr_scenario(95));
    let trace = out.trace.as_ref().expect("run_scenario keeps the trace");
    let dead = stall_time_fraction(trace, SimDuration::from_secs(1));
    let stalls = detect_stalls(trace, SimDuration::from_secs(1));
    if out.summary().timeout_sequences > 0 {
        assert!(
            !stalls.is_empty(),
            "timeout sequences must appear as stalls"
        );
        assert!(dead > 0.0);
    }
    // The timeline's total deliveries match the throughput analysis.
    let bins = throughput_timeline(trace, SimDuration::from_secs(5));
    let timeline_total: u64 = bins.iter().map(|b| b.delivered).sum();
    let direct = throughput(trace);
    assert_eq!(timeline_total, direct.segments_delivered);
}

#[test]
fn global_fit_runs_on_simulated_data() {
    let cfg = DatasetConfig {
        scale: 0.03,
        flow_duration: SimDuration::from_secs(40),
        ..Default::default()
    };
    let (flows, _) = run_dataset(&cfg).expect("dataset runs");
    let summaries: Vec<FlowSummary> = flows.into_iter().map(|f| f.summary).collect();
    let fit = fit_global(&summaries, &FitConfig::default()).expect("fit succeeds");
    assert!(fit.flows >= 4);
    assert!((0.05..=0.6).contains(&fit.q));
    assert!(fit.mean_d.is_finite());
    // The fitted global q must score no worse than an arbitrary extreme.
    let (d_extreme, _) = fit_score(&summaries, 0.9, 1.0).unwrap_or((f64::INFINITY, 0));
    assert!(fit.mean_d <= d_extreme + 1e-9);
}
