//! Fig. 10 — model accuracy: the enhanced model vs the Padhye baseline,
//! one point per flow. Mean and median `D`, per provider and per
//! estimator choice, are the accuracy ledger's (`repro accuracy`).

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_core::estimate::EstimateConfig;
use hsm_core::eval::evaluate_dataset;
use hsm_trace::export::{fnum, Table};
use hsm_trace::summary::FlowSummary;

/// Regenerates Fig. 10's scatter with the paper's parameterization.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let summaries: Vec<FlowSummary> = ctx.high_speed().iter().map(|f| f.summary.clone()).collect();
    let (evals, _) = evaluate_dataset(&summaries, &EstimateConfig::default());

    let mut per_flow = Table::new(
        "Per-flow deviations (one point per flow, as in Fig. 10)",
        &[
            "flow",
            "provider",
            "measured_sps",
            "enhanced_sps",
            "padhye_sps",
            "D_enhanced",
            "D_padhye",
        ],
    );
    for e in &evals {
        per_flow.push_row(vec![
            e.flow.to_string(),
            e.provider.to_string(),
            fnum(e.measured_sps),
            fnum(e.enhanced_sps),
            fnum(e.padhye_sps),
            fnum(e.d_enhanced),
            fnum(e.d_padhye),
        ]);
    }

    ExperimentResult::new("fig10", "Model accuracy: enhanced vs Padhye (Fig. 10)")
        .with_table(per_flow)
        .note("shape target: enhanced < Padhye, Padhye overestimating; `repro accuracy` compares D with the paper")
}
