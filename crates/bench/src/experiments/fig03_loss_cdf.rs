//! Fig. 3 — CDFs of the two loss rates: retransmission loss inside
//! timeout recovery phases vs lifetime data loss.

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_trace::export::{fnum, Table};
use hsm_trace::stats::Cdf;

/// Regenerates Fig. 3 from the high-speed dataset.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let flows = ctx.high_speed();
    let in_recovery = flows.iter().filter(|f| f.summary.timeout_sequences > 0);
    let cdf_rec = Cdf::from_samples(in_recovery.map(|f| f.summary.q_hat));
    let cdf_life = Cdf::from_samples(flows.iter().map(|f| f.summary.p_d));

    let mut t = Table::new(
        "Fig. 3 — CDF of loss rates (per flow)",
        &["loss_rate", "P(recovery<=x)", "P(lifetime<=x)"],
    );
    for i in 0..=40 {
        let x = i as f64 * 0.02; // 0 .. 0.8
        t.push_row(vec![fnum(x), fnum(cdf_rec.at(x)), fnum(cdf_life.at(x))]);
    }

    ExperimentResult::new(
        "fig3",
        "CDF of recovery-phase vs lifetime loss rates (Fig. 3)",
    )
    .with_table(t)
    .note("shape target: the two distributions are separated by more than an order of magnitude")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn recovery_losses_dwarf_lifetime_losses() {
        let ctx = Ctx::new(Scale::Smoke);
        let r = run(&ctx);
        let flows = ctx.high_speed();
        let mean_rec: f64 = {
            let v: Vec<f64> = flows
                .iter()
                .filter(|f| f.summary.timeout_sequences > 0)
                .map(|f| f.summary.q_hat)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let mean_life: f64 = flows.iter().map(|f| f.summary.p_d).sum::<f64>() / flows.len() as f64;
        assert!(
            mean_rec > 5.0 * mean_life,
            "recovery {mean_rec} vs lifetime {mean_life}"
        );
        assert_eq!(r.tables[0].rows.len(), 41);
    }
}
