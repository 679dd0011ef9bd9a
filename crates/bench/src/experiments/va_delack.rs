//! §V-A — the delayed-ACK double edge: fewer ACKs per round raise the
//! ACK-burst probability `P_a` and with it spurious timeouts. Model sweep
//! plus a simulation cross-check.

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_core::params::ModelParams;
use hsm_core::sensitivity::delayed_ack_analysis;
use hsm_runtime::parallel::par_map;
use hsm_scenario::runner::{run_scenario, ScenarioConfig};
use hsm_trace::export::{fnum, fpct, Table};

/// Regenerates the §V-A analysis.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    // Model side: sweep b at a fixed working window under heavy per-ACK
    // loss (the high-speed regime where the effect matters).
    let base = ModelParams::high_speed_example();
    let points = delayed_ack_analysis(&base, 16.0, 0.10, &[1.0, 2.0, 4.0, 8.0]);
    let mut model_t = Table::new(
        "§V-A model sweep — delayed-ACK factor b at window 16, per-ACK loss 10%",
        &["b", "ACKs/round", "P_a", "TP (seg/s)"],
    );
    for p in &points {
        model_t.push_row(vec![
            fnum(p.b),
            fnum(p.acks_per_round),
            fnum(p.p_a_burst),
            fnum(p.throughput_sps),
        ]);
    }

    // Simulation side: the same flow with b = 1 vs b = 4.
    let reps = ctx.scale.repetitions();
    let duration = ctx.scale.flow_duration();
    let mut sim_t = Table::new(
        "§V-A simulation cross-check — spurious timeouts per b",
        &[
            "b",
            "mean TP (seg/s)",
            "mean timeouts",
            "mean spurious fraction",
        ],
    );
    for b in [1u32, 2, 4] {
        let results = par_map(reps, |rep| {
            let out = run_scenario(&ScenarioConfig {
                seed: 4_000 + rep,
                b,
                duration,
                ..Default::default()
            });
            (
                out.summary().throughput_sps,
                f64::from(out.summary().timeouts),
                out.summary().spurious_fraction(),
            )
        });
        let tp: f64 = results.iter().map(|r| r.0).sum();
        let to: f64 = results.iter().map(|r| r.1).sum();
        let sf: f64 = results.iter().map(|r| r.2).sum();
        let n = reps as f64;
        sim_t.push_row(vec![
            b.to_string(),
            fnum(tp / n),
            fnum(to / n),
            fpct(sf / n),
        ]);
    }

    ExperimentResult::new("va_delack", "Delayed ACKs in high-speed mobility (§V-A)")
        .with_table(model_t)
        .with_table(sim_t)
        .note("model: P_a = p_a^(w/b) grows with b; beyond mild b the spurious-timeout cost outweighs the ACK savings")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn model_pa_grows_with_b() {
        let r = run(&Ctx::new(Scale::Smoke));
        let pa: Vec<f64> = r.tables[0]
            .rows
            .iter()
            .map(|row| row[2].parse().unwrap())
            .collect();
        assert!(pa.windows(2).all(|w| w[1] >= w[0]), "{pa:?}");
        // The model's throughput at b=8 must fall below b=1.
        let tp: Vec<f64> = r.tables[0]
            .rows
            .iter()
            .map(|row| row[3].parse().unwrap())
            .collect();
        assert!(tp[3] < tp[0], "{tp:?}");
    }
}
