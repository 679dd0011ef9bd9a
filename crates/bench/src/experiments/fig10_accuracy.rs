//! Fig. 10 — model accuracy: the enhanced model vs the Padhye baseline,
//! per provider and aggregate, plus an estimator-choice ablation.

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_core::estimate::{EstimateConfig, PdSource, QSource};
use hsm_core::eval::{evaluate_dataset, FlowEval};
use hsm_trace::export::{fnum, fpct, Table};
use hsm_trace::summary::FlowSummary;

fn provider_means(evals: &[FlowEval]) -> Table {
    let mut t = Table::new(
        "Fig. 10 — mean deviation D per provider",
        &["Provider", "flows", "D(enhanced)", "D(Padhye)"],
    );
    let providers: Vec<String> = {
        let mut ps: Vec<String> = evals.iter().map(|e| e.provider.clone()).collect();
        ps.sort();
        ps.dedup();
        ps
    };
    for p in providers {
        let of_p: Vec<&FlowEval> = evals.iter().filter(|e| e.provider == p).collect();
        let n = of_p.len() as f64;
        let de = of_p.iter().map(|e| e.d_enhanced).sum::<f64>() / n;
        let dp = of_p.iter().map(|e| e.d_padhye).sum::<f64>() / n;
        t.push_row(vec![p, of_p.len().to_string(), fpct(de), fpct(dp)]);
    }
    t
}

/// Regenerates Fig. 10 with the paper's parameterization, and an ablation
/// over estimator choices (`p_d` and `q` sources).
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let summaries: Vec<FlowSummary> = ctx.high_speed().iter().map(|f| f.summary.clone()).collect();
    let (evals, report) = evaluate_dataset(&summaries, &EstimateConfig::default());

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
            e.provider.clone(),
            fnum(e.measured_sps),
            fnum(e.enhanced_sps),
            fnum(e.padhye_sps),
            fnum(e.d_enhanced),
            fnum(e.d_padhye),
        ]);
    }

    let mut ablation = Table::new(
        "Ablation — estimator choices",
        &[
            "p_d source",
            "q source",
            "D(enhanced)",
            "D(Padhye)",
            "improvement (pp)",
        ],
    );
    for (pd_name, pd) in [
        ("lifetime", PdSource::Lifetime),
        ("loss-events", PdSource::LossEvents),
        ("loss-indications", PdSource::LossIndications),
    ] {
        for (q_name, q) in [
            ("measured", QSource::MeasuredOrDefault),
            ("recommended-default", QSource::RecommendedDefault),
            ("sequence-length", QSource::SequenceLength),
            ("recovery-duration", QSource::RecoveryDuration),
        ] {
            let cfg = EstimateConfig {
                pd_source: pd,
                q_source: q,
                ..Default::default()
            };
            let (_, r) = evaluate_dataset(&summaries, &cfg);
            ablation.push_row(vec![
                pd_name.to_owned(),
                q_name.to_owned(),
                fpct(r.mean_d_enhanced),
                fpct(r.mean_d_padhye),
                fnum(r.improvement_pp()),
            ]);
        }
    }

    ExperimentResult::new("fig10", "Model accuracy: enhanced vs Padhye (Fig. 10)")
        .with_table(provider_means(&evals))
        .with_table(ablation)
        .with_table(per_flow)
        .note(format!(
            "aggregate: D(enhanced) = {} vs D(Padhye) = {} over {} flows (paper: 5.66% vs 21.96%)",
            fpct(report.mean_d_enhanced),
            fpct(report.mean_d_padhye),
            report.flows
        ))
        .note(format!(
            "improvement: {:.1} pp (paper: 16.3 pp); shape target: enhanced < Padhye, Padhye overestimating",
            report.improvement_pp()
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn produces_all_tables() {
        let r = run(&Ctx::new(Scale::Smoke));
        assert_eq!(r.tables.len(), 3);
        assert_eq!(r.tables[1].rows.len(), 12, "3 pd sources x 4 q sources");
        assert!(!r.tables[2].is_empty());
    }
}
