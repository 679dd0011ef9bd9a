//! Fig. 11 — a single surviving ACK prevents the spurious timeout, thanks
//! to TCP's cumulative acknowledgments.

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_simnet::prelude::*;
use hsm_tcp::prelude::*;
use hsm_trace::export::Table;

struct ScriptedRun {
    timeouts: usize,
    duplicate_payloads: u64,
    delivered: u64,
}

/// Runs a lossless flow with a scripted uplink outage of probability `p`
/// over a round's worth of ACKs.
fn run_case(up_loss_during_window: f64) -> ScriptedRun {
    let mut eng = Engine::new(9);
    let placeholder = LinkId::from_raw(u32::MAX);
    let scfg = SenderConfig {
        w_m: 16,
        max_segments: Some(2_000),
        ..Default::default()
    };
    let rcfg = ReceiverConfig {
        b: 1,
        adaptive: false,
    };
    let tx = eng.add_agent(Box::new(RenoSender::new(FlowId(0), placeholder, scfg)));
    let rx = eng.add_agent(Box::new(Receiver::new(FlowId(0), placeholder, rcfg)));
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
    eng.agent_mut::<RenoSender>(tx).expect("sender").data_link = down;
    eng.agent_mut::<Receiver>(rx).expect("receiver").uplink = up;
    eng.impose(
        up,
        SimTime::from_millis(1_000),
        SimTime::from_millis(2_500),
        Impairment::outage(up_loss_during_window),
    );
    eng.run_until(SimTime::from_secs(60));
    let timeouts = eng
        .agent_mut::<RenoSender>(tx)
        .expect("sender")
        .metrics
        .timeouts
        .len();
    let rx_agent = eng.agent_mut::<Receiver>(rx).expect("receiver");
    ScriptedRun {
        timeouts,
        duplicate_payloads: rx_agent.metrics.duplicate_payloads,
        delivered: rx_agent.next_expected().as_u64(),
    }
}

/// Regenerates the Fig. 11 contrast: a total ACK blackout vs one where a
/// few ACKs slip through (cumulative ACKs then cover all the lost ones).
pub fn run(_ctx: &Ctx) -> ExperimentResult {
    let blackout = run_case(1.0);
    // 70% ACK loss over the same window: with ~16 ACKs per round the odds
    // that *every* ACK of a round dies are small — some ACK survives and
    // its cumulative coverage prevents the timeout.
    let leaky = run_case(0.70);

    let mut t = Table::new(
        "Fig. 11 — one surviving ACK prevents the spurious timeout",
        &[
            "uplink loss in window",
            "timeouts",
            "duplicate_payloads",
            "delivered",
        ],
    );
    t.push_row(vec![
        "100% (burst loss)".into(),
        blackout.timeouts.to_string(),
        blackout.duplicate_payloads.to_string(),
        blackout.delivered.to_string(),
    ]);
    t.push_row(vec![
        "70% (some ACKs survive)".into(),
        leaky.timeouts.to_string(),
        leaky.duplicate_payloads.to_string(),
        leaky.delivered.to_string(),
    ]);

    ExperimentResult::new("fig11", "Cumulative ACKs make single ACKs precious (Fig. 11)")
        .with_table(t)
        .note("paper: \"as long as one ACK in a round successfully arrives, the timeout event will not be triggered\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn surviving_acks_prevent_timeouts() {
        let r = run(&Ctx::new(Scale::Smoke));
        let rows = &r.tables[0].rows;
        let blackout_timeouts: u32 = rows[0][1].parse().unwrap();
        let leaky_timeouts: u32 = rows[1][1].parse().unwrap();
        assert!(blackout_timeouts >= 1, "total blackout must time out");
        assert!(
            leaky_timeouts < blackout_timeouts,
            "surviving ACKs must reduce timeouts ({leaky_timeouts} vs {blackout_timeouts})"
        );
    }
}
