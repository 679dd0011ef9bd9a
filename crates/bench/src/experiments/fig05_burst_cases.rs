//! Fig. 5 — scripted micro-scenarios showing how ACK loss triggers
//! timeouts: (a) every ACK of a round is lost → spurious retransmission;
//! (b) with a one-packet window, the loss of that round's single ACK is
//! already a burst loss → timeout.
//!
//! Both cases run with **zero data loss**; any retransmission observed is
//! spurious by construction, witnessed by the receiver's duplicate-payload
//! counter.

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_simnet::prelude::*;
use hsm_tcp::prelude::*;
use hsm_trace::export::Table;

/// Outcome of one scripted case.
struct ScriptedRun {
    timeouts: usize,
    duplicate_payloads: u64,
    data_lost: bool,
    delivered: u64,
}

/// Runs a lossless flow whose *uplink* suffers one scripted total outage.
fn run_case(w_m: u32, outage_ms: (u64, u64), segments: u64) -> ScriptedRun {
    let mut eng = Engine::new(5);
    let placeholder = LinkId::from_raw(u32::MAX);
    let scfg = SenderConfig {
        w_m,
        max_segments: Some(segments),
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
        SimTime::from_millis(outage_ms.0),
        SimTime::from_millis(outage_ms.1),
        Impairment::outage(1.0),
    );
    eng.run_until(SimTime::from_secs(60));
    let timeouts = eng
        .agent_mut::<RenoSender>(tx)
        .expect("sender")
        .metrics
        .timeouts
        .len();
    let rx_agent = eng.agent_mut::<Receiver>(rx).expect("receiver");
    let duplicate_payloads = rx_agent.metrics.duplicate_payloads;
    let delivered = rx_agent.next_expected().as_u64();
    // A data row with no arrival: dropped, or still on its way at the end.
    let data_lost = eng
        .arena()
        .iter()
        .any(|(p, arrived)| p.kind.is_data() && arrived.is_none());
    ScriptedRun {
        timeouts,
        duplicate_payloads,
        data_lost,
        delivered,
    }
}

/// Regenerates both Fig. 5 cases.
pub fn run(_ctx: &Ctx) -> ExperimentResult {
    // Case (a): a window-wide uplink blackout kills every ACK of several
    // rounds — the sender must time out spuriously.
    let a = run_case(16, (1_000, 2_500), 2_000);
    // Case (b): window of 1 — each round has exactly one ACK, so a brief
    // blackout over one ACK is already an "ACK burst loss".
    let b = run_case(1, (1_000, 1_060), 200);

    let mut t = Table::new(
        "Fig. 5 — ACK burst loss triggers timeouts without any data loss",
        &[
            "case",
            "data_lost",
            "timeouts",
            "duplicate_payloads",
            "delivered",
        ],
    );
    for (name, c) in [
        ("(a) all ACKs of a round lost", &a),
        ("(b) single-ACK round lost", &b),
    ] {
        t.push_row(vec![
            name.to_owned(),
            c.data_lost.to_string(),
            c.timeouts.to_string(),
            c.duplicate_payloads.to_string(),
            c.delivered.to_string(),
        ]);
    }

    ExperimentResult::new("fig5", "ACK-burst-loss timeout cases (Fig. 5)")
        .with_table(t)
        .note("both cases lose zero data packets; every retransmission the receiver sees is a duplicate payload — the operational definition of a spurious timeout")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn both_cases_show_spurious_timeouts() {
        let r = run(&Ctx::new(Scale::Smoke));
        let rows = &r.tables[0].rows;
        for row in rows {
            assert_eq!(row[1], "false", "no data loss allowed: {row:?}");
            assert!(
                row[2].parse::<u32>().unwrap() >= 1,
                "case must time out: {row:?}"
            );
            assert!(
                row[3].parse::<u32>().unwrap() >= 1,
                "receiver must see duplicates: {row:?}"
            );
        }
        // Flows still complete.
        assert_eq!(rows[0][4], "2000");
        assert_eq!(rows[1][4], "200");
    }
}
