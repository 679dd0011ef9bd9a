//! Model-vs-measurement integration: on a small synthetic dataset, both
//! models produce sane predictions and the enhanced model's extra
//! penalties point the right way.

use hsm::model::prelude::*;
use hsm::scenario::prelude::*;
use hsm::simnet::time::SimDuration;

fn small_dataset() -> Vec<hsm::trace::summary::FlowSummary> {
    let cfg = DatasetConfig {
        scale: 0.03,
        flow_duration: SimDuration::from_secs(60),
        ..Default::default()
    };
    let (flows, _) = hsm::runtime::run_dataset(&cfg).expect("dataset runs");
    flows.into_iter().map(|f| f.summary).collect()
}

#[test]
fn both_models_evaluate_on_every_flow() {
    let summaries = small_dataset();
    assert!(summaries.len() >= 4);
    let (evals, report) = evaluate_dataset(&summaries, &EstimateConfig::default());
    assert_eq!(evals.len(), summaries.len());
    assert!(report.flows >= 4);
    for e in &evals {
        assert!(e.enhanced_sps.is_finite() && e.enhanced_sps > 0.0, "{e:?}");
        assert!(e.padhye_sps.is_finite() && e.padhye_sps > 0.0, "{e:?}");
        // Enhanced never predicts above Padhye: it only adds impairments.
        assert!(e.enhanced_sps <= e.padhye_sps * 1.01, "{e:?}");
        // Predictions land within an order of magnitude of measurements.
        assert!(
            e.enhanced_sps > e.measured_sps * 0.1 && e.enhanced_sps < e.measured_sps * 10.0,
            "{e:?}"
        );
    }
}

#[test]
fn estimator_ablation_is_well_behaved() {
    use hsm::model::estimate::{PdSource, QSource};
    let summaries = small_dataset();
    for pd in [
        PdSource::Lifetime,
        PdSource::LossEvents,
        PdSource::LossIndications,
    ] {
        for q in [
            QSource::MeasuredOrDefault,
            QSource::RecommendedDefault,
            QSource::SequenceLength,
            QSource::RecoveryDuration,
        ] {
            let cfg = EstimateConfig {
                pd_source: pd,
                q_source: q,
            };
            let (evals, report) = evaluate_dataset(&summaries, &cfg);
            assert!(!evals.is_empty());
            assert!(report.mean_d_enhanced.is_finite());
            assert!(report.mean_d_padhye.is_finite());
            for e in &evals {
                e.params
                    .validate()
                    .expect("every estimator yields valid params");
            }
        }
    }
}

#[test]
fn deviation_metric_matches_paper_definition() {
    // Eq. 22 on a hand-made example.
    assert!((deviation(120.0, 100.0) - 0.2).abs() < 1e-12);
    assert!((deviation(80.0, 100.0) - 0.2).abs() < 1e-12);
}

#[test]
fn padhye_overestimates_on_the_harshest_flows() {
    // For the flows with the most timeout dead-time, Padhye (which never
    // prices recovery phases) must sit above the enhanced prediction by a
    // clear margin.
    let summaries = small_dataset();
    let (evals, _) = evaluate_dataset(&summaries, &EstimateConfig::default());
    let harsh: Vec<_> = evals
        .iter()
        .filter(|e| {
            summaries
                .iter()
                .find(|s| s.flow == e.flow)
                .is_some_and(|s| s.mean_recovery_s > 1.0 && s.timeout_sequences >= 2)
        })
        .collect();
    for e in harsh {
        assert!(
            e.padhye_sps > e.enhanced_sps,
            "flow {}: padhye {} vs enhanced {}",
            e.flow,
            e.padhye_sps,
            e.enhanced_sps
        );
    }
}
