//! `analyze_flow` reads a trace once; the stand-alone analyses each read it
//! for themselves. On simulated flows — short stress flows of every
//! provider and campaign mix, and longer ones across motion, controller
//! and recovery strategy — the one sweep must return exactly what the
//! stand-alone functions compose to, and the trace it reads must already
//! be in the order a sort would give it. And a flow analysed straight from
//! the engine's packet arena must get exactly the analysis — and, when it
//! keeps one, exactly the trace — the trace-returning connection run gets.

use hsm::runtime::codec::encode_entry;
use hsm::scenario::prelude::*;
use hsm::scenario::runner::run;
use hsm::simnet::chaos::StormPlan;
use hsm::simnet::time::SimDuration;
use hsm::tcp::cc::Algorithm;
use hsm::tcp::connection::try_run_connection_with;
use hsm::tcp::metrics::SenderMetrics;
use hsm::tcp::recovery::Recovery;
use hsm::trace::analysis::rounds::ack_burst_stats_excluding;
use hsm::trace::prelude::*;
use std::collections::HashSet;

/// 64 of the 2,040 two-second Stress flows, evenly spread over the plan.
fn stress_configs() -> Vec<ScenarioConfig> {
    let plan = plan_dataset(&DatasetConfig {
        scale: 8.0,
        flow_duration: SimDuration::from_secs(2),
        ..Default::default()
    });
    let stride = plan.len() / 64;
    let picked = plan.into_iter().step_by(stride).take(64);
    picked.map(|(_, config)| config).collect()
}

/// Longer flows the stress plan has none of: stationary beside
/// high-speed, every provider, non-Reno controllers, recovery strategies.
fn builder_configs() -> Vec<ScenarioConfig> {
    let secs = SimDuration::from_secs;
    let b = ScenarioConfig::builder;
    [
        b().motion(Motion::Stationary).duration(secs(30)).seed(3),
        b().motion(Motion::Stationary)
            .provider(Provider::ChinaTelecom)
            .cc(Algorithm::Bbr)
            .duration(secs(20))
            .seed(4),
        b().motion(Motion::HighSpeed).duration(secs(60)).seed(5),
        b().motion(Motion::HighSpeed)
            .provider(Provider::ChinaUnicom)
            .cc(Algorithm::Cubic)
            .duration(secs(40))
            .seed(6),
        b().motion(Motion::HighSpeed)
            .provider(Provider::ChinaTelecom)
            .recovery(Recovery::Frto)
            .duration(secs(40))
            .seed(7),
        b().motion(Motion::HighSpeed)
            .cc(Algorithm::Compound)
            .recovery(Recovery::AckRobust)
            .duration(secs(30))
            .seed(8),
        b().motion(Motion::HighSpeed)
            .recovery(Recovery::RedundantRto)
            .b(1)
            .duration(secs(30))
            .seed(9),
        b().motion(Motion::HighSpeed)
            .cc(Algorithm::Veno)
            .w_m(16)
            .duration(secs(30))
            .seed(10),
    ]
    .into_iter()
    .map(|builder| builder.build().expect("valid config"))
    .collect()
}

/// The loss indications that were not timeouts, as a set difference.
fn fast_retransmissions(trace: &FlowTrace, timeouts: &TimeoutAnalysis) -> u32 {
    let events = timeouts.sequences.iter().flat_map(|s| &s.events);
    let in_timeout: HashSet<usize> = events.map(|e| e.retx_idx).collect();
    let data = trace.records.iter().enumerate().filter(|(_, r)| !r.is_ack);
    data.filter(|(i, r)| r.retransmit && !in_timeout.contains(i))
        .count() as u32
}

#[test]
fn one_sweep_equals_the_stand_alone_analyses_on_simulated_flows() {
    let mut scratch = Scratch::new();
    let (mut timeouts_seen, mut quiet_flows) = (0, 0);
    for config in stress_configs().into_iter().chain(builder_configs()) {
        let out = run(&mut scratch, &config, &StormPlan::default(), Keep::Trace);
        let out = out.expect("flow runs");
        let (trace, analysis) = (out.trace.as_ref().expect("kept"), &out.analysis);
        let what = format!("{config:?}");

        let mut sorted = trace.clone();
        sorted.sort_by_send_time();
        assert_eq!(*trace, sorted, "capture left records unsorted: {what}");

        let cfg = TimeoutConfig::default();
        let losses = loss_rates(trace);
        let timeouts = analyze_timeouts(trace, &cfg);
        let rtt = estimate_rtt(trace).unwrap_or(SimDuration::from_millis(60));
        let gap = SimDuration::from_secs_f64(rtt.as_secs_f64() * 0.5);
        let phases = timeouts.sequences.iter();
        let windows: Vec<_> = phases.map(|s| (s.ca_end, s.recovery_end)).collect();
        let ack_bursts = ack_burst_stats_excluding(trace, gap, &windows);
        let tp = throughput(trace);
        let fast_rtx = fast_retransmissions(trace, &timeouts);

        assert_eq!(analysis.losses, losses, "{what}");
        assert_eq!(analysis.timeouts, timeouts, "{what}");
        assert_eq!(analysis.ack_bursts, ack_bursts, "{what}");
        assert_eq!(analysis.throughput, tp, "{what}");
        let expected = FlowSummary {
            flow: trace.flow,
            provider: trace.meta.provider,
            scenario: trace.meta.scenario,
            rtt_s: rtt.as_secs_f64(),
            p_d: losses.data_loss_rate(),
            data_sent: losses.data_sent,
            p_a: losses.ack_loss_rate(),
            p_a_burst: ack_bursts.burst_loss_rate(),
            acks_per_round: ack_bursts.mean_acks_per_round,
            q_hat: timeouts.q_hat(),
            timeouts: timeouts.total_timeouts(),
            spurious_timeouts: timeouts.spurious_timeouts(),
            timeout_sequences: timeouts.sequences.len() as u32,
            mean_recovery_s: timeouts.mean_recovery().map_or(0.0, |d| d.as_secs_f64()),
            t_rto_s: timeouts.median_first_rto().map_or(0.0, |d| d.as_secs_f64()),
            loss_indications: timeouts.sequences.len() as u32 + fast_rtx,
            fast_retransmissions: fast_rtx,
            w_m: trace.meta.w_m,
            b: trace.meta.b,
            throughput_sps: tp.segments_per_sec(),
            goodput_sps: tp.goodput_segments_per_sec(),
            duration_s: tp.duration_s,
        };
        assert_eq!(analysis.summary, expected, "{what}");

        timeouts_seen += expected.timeouts;
        quiet_flows += u32::from(expected.timeouts == 0);
    }
    // Both kinds of flow went through: with recovery windows and without.
    assert!(
        timeouts_seen > 50,
        "only {timeouts_seen} timeouts in 72 flows"
    );
    assert!(quiet_flows > 0, "no flow without a timeout");
}

#[test]
fn arena_fed_analysis_equals_the_trace_returning_run_on_any_scratch() {
    let calm = StormPlan::default();
    let (mut traced, mut reused) = (Scratch::new(), Scratch::new());
    for config in stress_configs().into_iter().chain(builder_configs()) {
        // The reference is the connection run that returns the trace
        // itself; its analysis reads that stored trace.
        let (path, mobility) = (config.path(), config.mobility());
        let want = try_run_connection_with(
            &mut traced,
            config.seed,
            &path,
            mobility.as_ref(),
            &config.connection(),
        )
        .expect("flow runs");
        let from_trace = analyze_flow(&want.trace, &TimeoutConfig::default());
        for keep in [Keep::Summary, Keep::Trace] {
            let mut poisoned = Scratch::new();
            poisoned.poison();
            let scratches = [
                ("fresh", &mut Scratch::new()),
                ("reused", &mut reused),
                ("poisoned", &mut poisoned),
            ];
            for (state, scratch) in scratches {
                let what = format!("{state} scratch, {keep:?}, {config:?}");
                let got = run(scratch, &config, &calm, keep).expect("flow runs");
                let (a, b) = (&got.analysis, &from_trace);
                assert_eq!(
                    encode_entry(0, &a.summary),
                    encode_entry(0, &b.summary),
                    "{what}"
                );
                assert_eq!(a.losses, b.losses, "{what}");
                assert_eq!(a.timeouts, b.timeouts, "{what}");
                assert_eq!(a.ack_bursts, b.ack_bursts, "{what}");
                assert_eq!(a.throughput, b.throughput, "{what}");
                assert_eq!(got.events_processed, want.events_processed, "{what}");
                assert_eq!(got.queue, want.queue, "{what}");
                if keep == Keep::Trace {
                    assert_eq!(got.sender, want.sender, "{what}");
                } else {
                    // No window log without a trace; every other sender
                    // metric is the trace-returning run's.
                    assert!(got.sender.cwnd_log.is_empty(), "{what}");
                    let unlogged = SenderMetrics {
                        cwnd_log: Vec::new(),
                        ..want.sender.clone()
                    };
                    assert_eq!(got.sender, unlogged, "{what}");
                }
                let expected = (keep == Keep::Trace).then_some(&want.trace);
                assert_eq!(got.trace.as_ref(), expected, "{what}");
            }
        }
    }
}
