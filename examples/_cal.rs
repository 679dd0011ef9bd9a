fn main() -> Result<(), hsm::Error> {
    use hsm_core::prelude::*;
    use hsm_runtime::engine::run_dataset;
    use hsm_scenario::prelude::*;
    use hsm_simnet::time::SimDuration;
    let cfg = DatasetConfig {
        scale: 0.3,
        flow_duration: SimDuration::from_secs(120),
        ..Default::default()
    };
    let (flows, report) = run_dataset(&cfg)?;
    println!(
        "campaign: {} flows, {} workers, {:.0} events/s",
        report.flows,
        report.workers,
        report.events_per_sec()
    );
    let hs = aggregate(&flows);
    for row in calibration_report(&hs, None) {
        println!(
            "{:45} paper={:<10.5} ours={:<10.5} ratio={:.2}",
            row.metric,
            row.paper,
            row.measured,
            row.ratio()
        );
    }
    let summaries: Vec<_> = flows.iter().map(|f| f.summary.clone()).collect();
    let (evals, r) = evaluate_dataset(&summaries, &EstimateConfig::default());
    println!(
        "ALL: D_enh={:.3} D_pad={:.3} imp={:+.1}pp",
        r.mean_d_enhanced,
        r.mean_d_padhye,
        r.improvement_pp()
    );
    for prov in ["China Mobile", "China Unicom", "China Telecom"] {
        let of: Vec<_> = evals.iter().filter(|e| e.provider == prov).collect();
        let n = of.len() as f64;
        let de: f64 = of.iter().map(|e| e.d_enhanced).sum::<f64>() / n;
        let dp: f64 = of.iter().map(|e| e.d_padhye).sum::<f64>() / n;
        let er: f64 = of
            .iter()
            .map(|e| e.enhanced_sps / e.measured_sps)
            .sum::<f64>()
            / n;
        let pr: f64 = of
            .iter()
            .map(|e| e.padhye_sps / e.measured_sps)
            .sum::<f64>()
            / n;
        println!(
            "{:14} n={:3} D_enh={:.3} D_pad={:.3} enh/meas={:.2} pad/meas={:.2}",
            prov,
            of.len(),
            de,
            dp,
            er,
            pr
        );
    }
    Ok(())
}
