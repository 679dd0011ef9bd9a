//! §V-B — reliable (redundant) retransmission: model `q`-sweep plus the
//! backup-path simulation.

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_core::params::ModelParams;
use hsm_core::sensitivity::{redundant_retransmit_benefit, sweep_q};
use hsm_runtime::parallel::par_map;
use hsm_scenario::runner::ScenarioConfig;
use hsm_tcp::connection::{run_connection, PathSpec};
use hsm_tcp::mptcp::run_with_backup_path;
use hsm_trace::export::{fnum, fpct, Table};

/// Regenerates the §V-B analysis.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    // Model: throughput as a function of the recovery loss rate q.
    let base = ModelParams::high_speed_example();
    let qs: Vec<f64> = (0..9).map(|i| i as f64 * 0.1).collect();
    let mut sweep_t = Table::new("§V-B model sweep — throughput vs q", &["q", "TP (seg/s)"]);
    for p in sweep_q(&base, &qs) {
        sweep_t.push_row(vec![fnum(p.x), fnum(p.throughput_sps)]);
    }

    // Model: the redundant-retransmission benefit at several backup
    // qualities.
    let mut benefit_t = Table::new(
        "§V-B model — redundant retransmission benefit (q = 0.27 primary)",
        &[
            "q_backup",
            "effective q",
            "TP single",
            "TP redundant",
            "gain",
        ],
    );
    for q2 in [0.0, 0.27, 0.5] {
        let b = redundant_retransmit_benefit(&base, q2).expect("valid params");
        benefit_t.push_row(vec![
            fnum(q2),
            fnum(b.q_effective),
            fnum(b.single_path_sps),
            fnum(b.redundant_sps),
            fpct(b.gain()),
        ]);
    }

    // Simulation: MPTCP backup mode — timeout retransmissions duplicated
    // over a clean second path.
    let reps = ctx.scale.repetitions();
    let duration = ctx.scale.flow_duration();
    let results = par_map(reps, |rep| {
        let sc = ScenarioConfig {
            seed: 5_000 + rep,
            duration,
            ..Default::default()
        };
        let conn = sc.connection();
        let mob = sc.mobility();
        let plain = run_connection(sc.seed, &sc.path(), mob.as_ref(), &conn);
        let with_backup = run_with_backup_path(
            sc.seed,
            &sc.path(),
            &PathSpec::default(),
            mob.as_ref(),
            &conn,
        );
        let pa = hsm_trace::summary::analyze_flow(&plain.trace, &Default::default());
        let ba = hsm_trace::summary::analyze_flow(&with_backup.trace, &Default::default());
        (
            pa.summary.q_hat,
            ba.summary.q_hat,
            pa.summary.mean_recovery_s,
            ba.summary.mean_recovery_s,
        )
    });
    let plain_q: f64 = results.iter().map(|r| r.0).sum();
    let backup_q: f64 = results.iter().map(|r| r.1).sum();
    let plain_rec: f64 = results.iter().map(|r| r.2).sum();
    let backup_rec: f64 = results.iter().map(|r| r.3).sum();
    let n = reps as f64;
    let mut sim_t = Table::new(
        "§V-B simulation — backup-path redundant retransmission",
        &["variant", "mean q̂", "mean recovery (s)"],
    );
    sim_t.push_row(vec![
        "single path".into(),
        fnum(plain_q / n),
        fnum(plain_rec / n),
    ]);
    sim_t.push_row(vec![
        "with backup path".into(),
        fnum(backup_q / n),
        fnum(backup_rec / n),
    ]);

    ExperimentResult::new("vb_qsweep", "Reliable retransmission / MPTCP backup mode (§V-B)")
        .with_table(sweep_t)
        .with_table(benefit_t)
        .with_table(sim_t)
        .note("model: redundancy turns q into q·q_backup; simulation: duplicated timeout retransmissions shorten recovery phases")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn model_throughput_decreases_with_q() {
        let r = run(&Ctx::new(Scale::Smoke));
        let tps: Vec<f64> = r.tables[0]
            .rows
            .iter()
            .map(|row| row[1].parse().unwrap())
            .collect();
        assert!(tps.windows(2).all(|w| w[1] <= w[0]), "{tps:?}");
    }

    #[test]
    fn backup_path_reduces_recovery_cost() {
        let r = run(&Ctx::new(Scale::Smoke));
        let sim = &r.tables[2];
        let plain_rec: f64 = sim.rows[0][2].parse().unwrap();
        let backup_rec: f64 = sim.rows[1][2].parse().unwrap();
        // The backup path should not make recovery longer (allow ties at
        // smoke scale where few timeouts occur).
        assert!(
            backup_rec <= plain_rec * 1.2,
            "plain {plain_rec} backup {backup_rec}"
        );
    }
}
