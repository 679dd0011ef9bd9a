//! The spurious-timeout chain, end to end: ACK burst loss → timeout with
//! no data loss → duplicate payload at the receiver → classified spurious
//! by the trace analyzer.

use hsm::simnet::prelude::*;
use hsm::tcp::prelude::*;
use hsm::trace::capture::trace_from_arena;
use hsm::trace::prelude::*;

/// Builds a lossless flow whose uplink suffers one scripted blackout.
fn run_with_uplink_blackout(window_ms: (u64, u64)) -> (FlowTrace, SenderMetrics, ReceiverMetrics) {
    let mut eng = Engine::new(17);
    let placeholder = LinkId::from_raw(u32::MAX);
    let scfg = SenderConfig {
        max_segments: Some(1_500),
        ..Default::default()
    };
    let tx = eng.add_agent(Box::new(RenoSender::new(FlowId(0), placeholder, scfg)));
    let rx = eng.add_agent(Box::new(Receiver::new(
        FlowId(0),
        placeholder,
        ReceiverConfig::default(),
    )));
    let down = eng.add_link(
        LinkSpec::new(rx, "downlink")
            .bandwidth_bps(40_000_000)
            .prop_delay(SimDuration::from_millis(27)),
    );
    let up = eng.add_link(
        LinkSpec::new(tx, "uplink")
            .bandwidth_bps(15_000_000)
            .prop_delay(SimDuration::from_millis(27)),
    );
    eng.agent_mut::<RenoSender>(tx).unwrap().data_link = down;
    eng.agent_mut::<Receiver>(rx).unwrap().uplink = up;
    eng.impose(
        up,
        SimTime::from_millis(window_ms.0),
        SimTime::from_millis(window_ms.1),
        Impairment::outage(1.0),
    );
    eng.run_until(SimTime::from_secs(120));
    let trace = trace_from_arena(eng.arena(), 0, FlowMeta::default());
    let sender = eng.agent_mut::<RenoSender>(tx).unwrap().metrics.clone();
    let receiver = eng.agent_mut::<Receiver>(rx).unwrap().metrics;
    (trace, sender, receiver)
}

#[test]
fn ack_blackout_produces_classified_spurious_timeouts() {
    let (trace, sender, receiver) = run_with_uplink_blackout((800, 2_200));

    // Ground truth: the sender timed out, the receiver saw duplicates.
    assert!(!sender.timeouts.is_empty(), "sender must time out");
    assert!(
        receiver.duplicate_payloads > 0,
        "receiver must see duplicate payloads"
    );

    // No data was lost (only ACKs died).
    let data_lost = trace.data().filter(|r| r.lost()).count();
    assert_eq!(data_lost, 0, "the blackout hits only the uplink");

    // The trace analyzer reaches the same verdict.
    let analysis = analyze_timeouts(&trace, &TimeoutConfig::default());
    assert!(analysis.total_timeouts() > 0);
    assert_eq!(
        analysis.spurious_timeouts(),
        analysis.total_timeouts(),
        "with zero data loss every timeout is spurious"
    );

    // The ACK-round analysis sees the burst loss.
    let rtt = estimate_rtt(&trace).expect("both directions present");
    let bursts = ack_burst_stats(&trace, SimDuration::from_secs_f64(rtt.as_secs_f64() / 2.0));
    assert!(
        bursts.burst_lost_rounds > 0,
        "burst-lost rounds must be observed"
    );
}

#[test]
fn flow_finishes_after_the_blackout() {
    let (trace, _, receiver) = run_with_uplink_blackout((800, 1_400));
    assert_eq!(
        receiver.next_expected, 1_500,
        "all segments eventually delivered"
    );
    // Duplicate transmissions exist in the trace (spurious retransmissions).
    assert!(trace.data().any(|r| r.retransmit));
}

#[test]
fn spurious_classification_agrees_with_receiver_duplicates() {
    let (trace, _, receiver) = run_with_uplink_blackout((800, 2_200));
    let analysis = analyze_timeouts(&trace, &TimeoutConfig::default());
    // Every spurious timeout produced at least one duplicate payload;
    // go-back-N can add more duplicates, so the receiver count dominates.
    assert!(
        receiver.duplicate_payloads >= u64::from(analysis.spurious_timeouts()),
        "receiver {} vs analyzer {}",
        receiver.duplicate_payloads,
        analysis.spurious_timeouts()
    );
}
