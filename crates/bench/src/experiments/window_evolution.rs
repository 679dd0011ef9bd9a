//! Figs. 7–9 — congestion-window evolution:
//!
//! * Fig. 7: a CA phase ended by data loss vs one cut short by ACK burst
//!   loss,
//! * Fig. 8: the cycle structure — CA sequences separated by timeout
//!   sequences,
//! * Fig. 9: evolution under a binding `W_m` limitation.

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_scenario::runner::{run_scenario, Motion, ScenarioConfig};
use hsm_tcp::cwnd::Phase;
use hsm_tcp::metrics::CwndSample;
use hsm_trace::export::{fnum, Table};

fn phase_name(p: Phase) -> &'static str {
    match p {
        Phase::SlowStart => "slow-start",
        Phase::CongestionAvoidance => "congestion-avoidance",
        Phase::FastRecovery => "fast-recovery",
    }
}

fn window_table(title: &str, log: &[CwndSample], max_rows: usize) -> Table {
    let mut t = Table::new(title, &["t_s", "cwnd", "window", "phase"]);
    let step = (log.len() / max_rows.max(1)).max(1);
    for s in log.iter().step_by(step) {
        t.push_row(vec![
            fnum(s.at.as_secs_f64()),
            fnum(s.cwnd),
            s.window.to_string(),
            phase_name(s.phase).to_owned(),
        ]);
    }
    t
}

/// Fig. 7 — window evolution across CA phases (the sawtooth, including
/// phases cut short by ACK burst loss).
pub fn run_fig7(ctx: &Ctx) -> ExperimentResult {
    let out = run_scenario(&ScenarioConfig {
        seed: 2201,
        duration: ctx.scale.flow_duration(),
        ..Default::default()
    });
    let log = &out.sender.cwnd_log;
    let spurious = out
        .analysis
        .timeouts
        .sequences
        .iter()
        .filter(|s| s.started_spurious())
        .count();
    ExperimentResult::new("fig7", "Window evolution in CA phases (Fig. 7)")
        .with_table(window_table("Fig. 7 — cwnd over time", log, 60))
        .note(format!(
            "{} timeout sequences; {} of them started by ACK burst loss (spurious) — the Fig. 7(b) case",
            out.analysis.timeouts.sequences.len(),
            spurious
        ))
}

/// Fig. 8 — the cycle structure: CA sequences separated by timeout
/// sequences.
pub fn run_fig8(ctx: &Ctx) -> ExperimentResult {
    let out = run_scenario(&ScenarioConfig {
        seed: 2202,
        duration: ctx.scale.flow_duration(),
        ..Default::default()
    });
    let mut cycles = Table::new(
        "Fig. 8 — cycles: timeout sequences delimiting CA sequences",
        &[
            "sequence#",
            "ca_end_s",
            "recovery_end_s",
            "timeouts",
            "spurious_start",
        ],
    );
    for (i, s) in out.analysis.timeouts.sequences.iter().enumerate() {
        cycles.push_row(vec![
            (i + 1).to_string(),
            fnum(s.ca_end.as_secs_f64()),
            fnum(s.recovery_end.as_secs_f64()),
            s.timeouts().to_string(),
            s.started_spurious().to_string(),
        ]);
    }
    ExperimentResult::new("fig8", "CA/timeout cycle structure (Fig. 8)")
        .with_table(window_table("cwnd over time", &out.sender.cwnd_log, 60))
        .with_table(cycles)
        .note("the model's Eq. (8) averages throughput over exactly these cycles")
}

/// Fig. 9 — window evolution under a binding advertised-window limit.
pub fn run_fig9(ctx: &Ctx) -> ExperimentResult {
    let out = run_scenario(&ScenarioConfig {
        seed: 2203,
        w_m: 8,
        motion: Motion::Stationary,
        duration: ctx.scale.flow_duration(),
        ..Default::default()
    });
    let log = &out.sender.cwnd_log;
    let capped = log.iter().filter(|s| s.window == 8).count();
    ExperimentResult::new("fig9", "Window evolution under W_m limitation (Fig. 9)")
        .with_table(window_table("Fig. 9 — cwnd with W_m = 8", log, 60))
        .note(format!(
            "{} of {} samples sit at the W_m cap — the Section IV-D regime",
            capped,
            log.len()
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn fig7_has_a_sawtooth() {
        let r = run_fig7(&Ctx::new(Scale::Smoke));
        let t = &r.tables[0];
        assert!(t.rows.len() > 10);
        // The window must both grow and shrink over the flow.
        let windows: Vec<f64> = t.rows.iter().map(|row| row[1].parse().unwrap()).collect();
        let grew = windows.windows(2).any(|w| w[1] > w[0]);
        let shrank = windows.windows(2).any(|w| w[1] < w[0]);
        assert!(grew && shrank, "no sawtooth: {windows:?}");
    }

    #[test]
    fn fig9_respects_the_cap() {
        let r = run_fig9(&Ctx::new(Scale::Smoke));
        let t = &r.tables[0];
        for row in &t.rows {
            let window: u64 = row[2].parse().unwrap();
            assert!(window <= 8, "window above W_m: {row:?}");
        }
        // The cap actually binds for a stationary low-W_m flow.
        assert!(t.rows.iter().any(|row| row[2] == "8"));
    }

    #[test]
    fn fig8_reports_cycles() {
        let r = run_fig8(&Ctx::new(Scale::Smoke));
        assert_eq!(r.tables.len(), 2);
    }
}
