//! Table I — the dataset.

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_scenario::dataset::{table1_total_flows, TABLE1};
use hsm_trace::export::{fnum, Table};

/// Regenerates Table I: the campaign structure verbatim plus the number of
/// flows actually simulated at the current scale.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let mut spec = Table::new(
        "Table I — dataset (paper structure)",
        &["Date", "Trips", "Phone", "Provider", "Flows", "Trace (GB)"],
    );
    for c in TABLE1 {
        spec.push_row(vec![
            c.date.to_owned(),
            c.trips.to_string(),
            c.phone.to_owned(),
            c.provider.name().to_owned(),
            c.flows.to_string(),
            fnum(c.trace_gb),
        ]);
    }

    let flows = ctx.high_speed();
    let mut generated = Table::new(
        "Synthetic dataset generated at this scale",
        &["Campaign", "Provider", "Flows simulated", "Mean TP (seg/s)"],
    );
    for (idx, c) in TABLE1.iter().enumerate() {
        let in_campaign: Vec<_> = flows.iter().filter(|f| f.campaign == idx).collect();
        let mean_tp = if in_campaign.is_empty() {
            0.0
        } else {
            in_campaign
                .iter()
                .map(|f| f.summary.throughput_sps)
                .sum::<f64>()
                / in_campaign.len() as f64
        };
        generated.push_row(vec![
            idx.to_string(),
            c.provider.name().to_owned(),
            in_campaign.len().to_string(),
            fnum(mean_tp),
        ]);
    }

    ExperimentResult::new("table1", "Dataset (Table I)")
        .with_table(spec)
        .with_table(generated)
        .note(format!(
            "paper: {} flows / 40.47 GB captured; simulated here: {} flows",
            table1_total_flows(),
            flows.len()
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn regenerates_table1() {
        let ctx = Ctx::new(Scale::Smoke);
        let r = run(&ctx);
        assert_eq!(r.tables.len(), 2);
        assert_eq!(r.tables[0].rows.len(), 4);
        assert!(r.to_text().contains("China Telecom"));
    }
}
