//! Extension experiments — the paper's future-work directions, evaluated:
//!
//! * `ext_cc` — congestion-control ablation: Reno vs NewReno vs Veno on
//!   the calibrated HSR channels (Veno is the paper's cited
//!   wireless-loss-aware variant);
//! * `ext_delack` — fixed delayed-ACK windows vs the TCP-DCA-style
//!   adaptive policy (§V-A explicitly defers this evaluation);
//! * `ext_undo` — Eifel-style spurious-RTO detection and undo;
//! * `ext_mptcp` — shared-radio vs disjoint-carrier duplex MPTCP,
//!   separating the *capacity* gain from the *dead-time-filling* gain.

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_runtime::parallel::par_map;
use hsm_scenario::provider::Provider;
use hsm_scenario::runner::{run_scenario, ScenarioConfig};
use hsm_tcp::cc::Algorithm;
use hsm_tcp::connection::run_connection;
use hsm_tcp::mptcp::{run_mptcp_duplex, run_mptcp_shared_radio};
use hsm_trace::analysis::timeout::TimeoutConfig;
use hsm_trace::export::{fnum, fpct, Table};
use hsm_trace::summary::analyze_flow;

fn base_scenario(
    duration: hsm_simnet::time::SimDuration,
    provider: Provider,
    seed: u64,
) -> ScenarioConfig {
    ScenarioConfig {
        provider,
        seed,
        duration,
        ..Default::default()
    }
}

/// `ext_cc`: Reno vs NewReno vs Veno on the high-speed channel.
pub fn run_cc(ctx: &Ctx) -> ExperimentResult {
    let reps = ctx.scale.repetitions();
    let duration = ctx.scale.flow_duration();
    let mut t = Table::new(
        "Congestion-control ablation on the 300 km/h channel",
        &["Provider", "algorithm", "mean TP (seg/s)", "mean timeouts"],
    );
    for provider in Provider::ALL {
        for (name, algo, newreno) in [
            ("Reno", Algorithm::Reno, false),
            ("NewReno", Algorithm::Reno, true),
            ("Veno", Algorithm::Veno, false),
        ] {
            let results = par_map(reps, |rep| {
                let sc = base_scenario(duration, provider, 7_000 + rep);
                let mut conn = sc.connection();
                conn.sender.algorithm = algo;
                conn.sender.newreno = newreno;
                let out = run_connection(sc.seed, &sc.path(), sc.mobility().as_ref(), &conn);
                let s = analyze_flow(&out.trace, &TimeoutConfig::default()).summary;
                (s.throughput_sps, f64::from(s.timeouts))
            });
            let tp: f64 = results.iter().map(|r| r.0).sum();
            let to: f64 = results.iter().map(|r| r.1).sum();
            let n = reps as f64;
            t.push_row(vec![
                provider.name().to_owned(),
                name.to_owned(),
                fnum(tp / n),
                fnum(to / n),
            ]);
        }
    }
    ExperimentResult::new("ext_cc", "Congestion-control ablation (extension)")
        .with_table(t)
        .note("Veno's gentler random-loss reaction helps between outages, but none of the variants addresses spurious timeouts or lossy recoveries — the paper's actual bottlenecks")
}

/// `ext_delack`: fixed `b` vs the TCP-DCA-style adaptive delayed window.
pub fn run_delack(ctx: &Ctx) -> ExperimentResult {
    let reps = ctx.scale.repetitions();
    let duration = ctx.scale.flow_duration();
    let mut t = Table::new(
        "Delayed-ACK policies on the 300 km/h channel (China Mobile)",
        &[
            "policy",
            "mean TP (seg/s)",
            "mean timeouts",
            "mean spurious fraction",
        ],
    );
    let policies = [
        ("fixed b=1", 1, false),
        ("fixed b=2", 2, false),
        ("fixed b=4", 4, false),
        ("adaptive (TCP-DCA style)", 1, true),
    ];
    for (name, b, adaptive) in policies {
        let results = par_map(reps, |rep| {
            let sc = base_scenario(duration, Provider::ChinaMobile, 7_500 + rep);
            let mut conn = sc.connection();
            conn.receiver.b = b;
            conn.receiver.adaptive = adaptive;
            let out = run_connection(sc.seed, &sc.path(), sc.mobility().as_ref(), &conn);
            let s = analyze_flow(&out.trace, &TimeoutConfig::default()).summary;
            (
                s.throughput_sps,
                f64::from(s.timeouts),
                s.spurious_fraction(),
            )
        });
        let tp: f64 = results.iter().map(|r| r.0).sum();
        let to: f64 = results.iter().map(|r| r.1).sum();
        let sf: f64 = results.iter().map(|r| r.2).sum();
        let n = reps as f64;
        t.push_row(vec![
            name.to_owned(),
            fnum(tp / n),
            fnum(to / n),
            fpct(sf / n),
        ]);
    }
    ExperimentResult::new("ext_delack", "Adaptive delayed ACKs (§V-A future work)")
        .with_table(t)
        .note("the adaptive policy rides at b_min right after disturbances (keeping ACKs plentiful when they are precious) and only grows the window in calm stretches")
}

/// `ext_undo`: Eifel-style spurious-RTO undo on/off.
pub fn run_undo(ctx: &Ctx) -> ExperimentResult {
    let reps = ctx.scale.repetitions();
    let duration = ctx.scale.flow_duration();
    let mut t = Table::new(
        "Spurious-RTO undo on the 300 km/h channel",
        &["Provider", "undo", "mean TP (seg/s)", "mean undone/flow"],
    );
    for provider in Provider::ALL {
        for undo in [false, true] {
            let results = par_map(reps, |rep| {
                let sc = base_scenario(duration, provider, 8_000 + rep);
                let mut conn = sc.connection();
                conn.sender.spurious_rto_undo = undo;
                let out = run_connection(sc.seed, &sc.path(), sc.mobility().as_ref(), &conn);
                let s = analyze_flow(&out.trace, &TimeoutConfig::default()).summary;
                (s.throughput_sps, out.sender.spurious_rto_undone as f64)
            });
            let tp: f64 = results.iter().map(|r| r.0).sum();
            let undone: f64 = results.iter().map(|r| r.1).sum();
            let n = reps as f64;
            t.push_row(vec![
                provider.name().to_owned(),
                undo.to_string(),
                fnum(tp / n),
                fnum(undone / n),
            ]);
        }
    }
    ExperimentResult::new("ext_undo", "Eifel-style spurious-RTO undo (extension)")
        .with_table(t)
        .note("timing-based detection only catches spurious timeouts whose original ACKs resume immediately; a timestamp option would catch the rest")
}

/// `ext_mptcp`: shared-radio vs disjoint-carrier duplex, against single
/// TCP.
pub fn run_mptcp_variants(ctx: &Ctx) -> ExperimentResult {
    let reps = ctx.scale.repetitions();
    let duration = ctx.scale.flow_duration();
    let mut t = Table::new(
        "MPTCP wiring ablation (mean seg/s over rides)",
        &[
            "Provider",
            "single TCP",
            "shared radio duplex",
            "disjoint carriers duplex",
        ],
    );
    for provider in Provider::ALL {
        let results = par_map(reps, |rep| {
            let sc = base_scenario(duration, provider, 8_500 + rep);
            let single = run_scenario(&sc).summary().throughput_sps;
            let path = sc.path();
            let conn = sc.connection();
            let shared =
                run_mptcp_shared_radio(sc.seed ^ 0x1111, &path, sc.mobility().as_ref(), &conn)
                    .aggregate_throughput_sps();
            let disjoint = run_mptcp_duplex(
                sc.seed ^ 0x2222,
                [&path, &path],
                sc.mobility().as_ref(),
                &conn,
            )
            .aggregate_throughput_sps();
            (single, shared, disjoint)
        });
        let single: f64 = results.iter().map(|r| r.0).sum();
        let shared: f64 = results.iter().map(|r| r.1).sum();
        let disjoint: f64 = results.iter().map(|r| r.2).sum();
        let n = reps as f64;
        t.push_row(vec![
            provider.name().to_owned(),
            fnum(single / n),
            fnum(shared / n),
            fnum(disjoint / n),
        ]);
    }
    ExperimentResult::new("ext_mptcp", "MPTCP wiring ablation (extension)")
        .with_table(t)
        .note("shared-radio gains come purely from filling a single flow's timeout dead-time (one pipe); disjoint carriers additionally double the raw capacity — bracketing the paper's single-handset measurements")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn cc_ablation_produces_rows_for_all_variants() {
        let r = run_cc(&Ctx::new(Scale::Smoke));
        assert_eq!(r.tables[0].rows.len(), 9);
    }

    #[test]
    fn delack_ablation_produces_all_policies() {
        let r = run_delack(&Ctx::new(Scale::Smoke));
        assert_eq!(r.tables[0].rows.len(), 4);
    }

    #[test]
    fn undo_ablation_produces_paired_rows() {
        // Smoke scale is two short rides per cell — far too noisy for
        // performance claims (those live in tests/extensions.rs under a
        // controlled ACK-outage channel). Check the structure only.
        let r = run_undo(&Ctx::new(Scale::Smoke));
        let rows = &r.tables[0].rows;
        assert_eq!(rows.len(), 6);
        for pair in rows.chunks(2) {
            assert_eq!(pair[0][1], "false");
            assert_eq!(pair[1][1], "true");
            assert!(pair[0][2].parse::<f64>().unwrap() > 0.0);
            assert!(pair[1][2].parse::<f64>().unwrap() > 0.0);
        }
    }

    #[test]
    fn mptcp_variants_ordering() {
        let r = run_mptcp_variants(&Ctx::new(Scale::Smoke));
        let rows = &r.tables[0].rows;
        assert_eq!(rows.len(), 3);
        for row in rows {
            let single: f64 = row[1].parse().unwrap();
            let disjoint: f64 = row[3].parse().unwrap();
            assert!(
                disjoint > single,
                "disjoint duplex must beat single TCP: {row:?}"
            );
        }
    }
}
