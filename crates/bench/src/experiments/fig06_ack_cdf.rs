//! Fig. 6 — CDF of per-flow ACK loss rates: high-speed vs stationary.

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_trace::export::{fnum, Table};
use hsm_trace::stats::Cdf;

/// Regenerates Fig. 6 from the two datasets.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let cdf_hs = Cdf::from_samples(ctx.high_speed().iter().map(|f| f.summary.p_a));
    let cdf_st = Cdf::from_samples(ctx.stationary().iter().map(|f| f.summary.p_a));

    let mut t = Table::new(
        "Fig. 6 — CDF of ACK loss rate",
        &["ack_loss_rate", "P(high-speed<=x)", "P(stationary<=x)"],
    );
    for i in 0..=40 {
        let x = i as f64 * 0.001; // 0 .. 4%
        t.push_row(vec![fnum(x), fnum(cdf_hs.at(x)), fnum(cdf_st.at(x))]);
    }
    ExperimentResult::new("fig6", "CDF of ACK loss rates (Fig. 6)")
        .with_table(t)
        .note("shape target: roughly an order of magnitude between the scenarios")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn high_speed_ack_loss_dominates() {
        let ctx = Ctx::new(Scale::Smoke);
        let _ = run(&ctx);
        let mean = |flows: &[hsm_scenario::dataset::DatasetFlow]| {
            flows.iter().map(|f| f.summary.p_a).sum::<f64>() / flows.len() as f64
        };
        let hs = mean(ctx.high_speed());
        let st = mean(ctx.stationary());
        assert!(hs > 3.0 * st, "high-speed {hs} vs stationary {st}");
    }
}
