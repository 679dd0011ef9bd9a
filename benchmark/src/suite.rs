//! Whole-benchmark modes: every workload in both modes (`--all`), and
//! that twice with the two sets compared (`--selfcheck`).

use crate::report::{Contract, RunResult};
use crate::workload::Workload;
use crate::{result_path, Args};
use std::process::Command;

/// Runs every workload, untraced then traced, each in a child process of
/// its own — one at a time, so `peak_rss_mb` is the workload's alone and
/// no run competes with another — and returns the results in that order.
pub fn run_all(args: &Args, seconds: u64) -> Result<Vec<RunResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut set = Vec::new();
    for workload in Workload::ALL {
        for traced in [false, true] {
            println!();
            let status = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out_dir)
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            // A run that failed a check still leaves its result; one that
            // could not finish leaves none.
            let path = result_path(&args.out_dir, workload, traced);
            let text = std::fs::read_to_string(&path).map_err(|e| {
                format!(
                    "{} (trace {}) left no result ({status}): {e}",
                    workload.name(),
                    u8::from(traced)
                )
            })?;
            set.push(serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    print_ledger(&set);
    Ok(set)
}

pub fn all_correct(set: &[RunResult]) -> bool {
    set.iter().all(|r| r.correct)
}

/// Every metric of every workload, side by side: one row per metric, one
/// column per workload.
fn print_ledger(set: &[RunResult]) {
    for traced in [false, true] {
        let runs: Vec<&RunResult> = set.iter().filter(|r| r.traced == traced).collect();
        let Some(first) = runs.first() else { continue };
        println!(
            "\n== {} metrics (seed {}) ==",
            if traced { "per-layer" } else { "end-to-end" },
            first.seed
        );
        print!("{:<40}", "metric");
        for r in &runs {
            print!(" {:>17}", r.workload);
        }
        println!("  unit");
        for m in &first.metrics {
            print!("{:<40}", m.name);
            for r in &runs {
                print!(
                    " {:>17.6}",
                    r.metric(&m.name).map_or(f64::NAN, |m| m.summary.median)
                );
            }
            println!("  {}", m.unit);
        }
        if !traced {
            print!("{:<40}", "failed_share");
            for r in &runs {
                print!(" {:>17.6}", r.failed as f64 / r.attempted as f64);
            }
            println!("  share");
        }
    }
    for r in set.iter().filter(|r| !r.correct) {
        for e in &r.errors {
            println!(
                "CHECK FAILED in {} (trace {}): {e}",
                r.workload,
                u8::from(r.traced)
            );
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`; negative when `b`
/// is better.
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

/// Disagreements between two sets of runs of the same build: every
/// end-to-end metric of `b` must be within its own bound of `a`'s, and
/// the failure counts and the exact-repeat checks must be identical.
pub fn compare(contract: &Contract, a: &[RunResult], b: &[RunResult]) -> Vec<String> {
    let mut out = Vec::new();
    for (ra, rb) in a.iter().zip(b) {
        let at = format!("{} (trace {})", ra.workload, u8::from(ra.traced));
        for (what, xa, xb) in [
            ("failed", ra.failed, rb.failed),
            ("sim_digest", ra.sim_digest, rb.sim_digest),
            ("events", ra.events, rb.events),
        ] {
            if xa != xb {
                out.push(format!("{at}: {what} differs: {xa} vs {xb}"));
            }
        }
        if ra.traced {
            // Simulated accuracy repeats exactly.
            let d = |r: &RunResult| {
                r.metric("core.eval.p50_d_enhanced")
                    .map(|m| m.summary.median)
            };
            if d(ra) != d(rb) {
                out.push(format!(
                    "{at}: core.eval.p50_d_enhanced differs: {:?} vs {:?}",
                    d(ra),
                    d(rb)
                ));
            }
            continue;
        }
        for decl in &contract.end_to_end {
            let (Some(ma), Some(mb)) = (ra.metric(&decl.name), rb.metric(&decl.name)) else {
                out.push(format!("{at}: {} is missing", decl.name));
                continue;
            };
            let bound = decl.bound;
            let worse = worsening(&decl.better, ma.summary.median, mb.summary.median);
            println!(
                "{at:<28} {:<14} A {:>16.6}  B {:>16.6}  worse by {:>+7.2} %  (bound {:.0} %)",
                decl.name,
                ma.summary.median,
                mb.summary.median,
                worse * 100.0,
                bound * 100.0
            );
            if worse > bound {
                out.push(format!(
                    "{at}: {} of set B is {:.1} % worse than set A's (bound {:.0} %)",
                    decl.name,
                    worse * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    out
}

/// Runs the whole benchmark twice on this build and compares the sets.
pub fn selfcheck(args: &Args, seconds: u64, contract: &Contract) -> Result<bool, String> {
    println!("== selfcheck: set A ==");
    let a = run_all(args, seconds)?;
    println!("\n== selfcheck: set B ==");
    let b = run_all(args, seconds)?;
    println!("\n== selfcheck: set B against set A ==");
    let disagreements = compare(contract, &a, &b);
    for d in &disagreements {
        println!("SELFCHECK FAILED: {d}");
    }
    let ok = disagreements.is_empty() && all_correct(&a) && all_correct(&b);
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Metric, MetricDecl};

    fn run(flows_per_s: f64, setup_s: f64, sim_digest: u64) -> RunResult {
        RunResult {
            workload: "table1-cold".to_owned(),
            seed: 1,
            traced: false,
            correct: true,
            attempted: 10,
            failed: 0,
            sim_digest,
            events: 5,
            metrics: vec![
                Metric::single("flows_per_s", "1/s", flows_per_s),
                Metric::single("setup_s", "s", setup_s),
            ],
            errors: vec![],
        }
    }

    #[test]
    fn compare_flags_what_is_worse_beyond_its_bound_or_not_exact() {
        let decl = |name: &str, better: &str, bound| MetricDecl {
            name: name.to_owned(),
            better: better.to_owned(),
            bound,
        };
        let contract = Contract {
            run_seconds: 1,
            end_to_end: vec![
                decl("flows_per_s", "higher", 0.1),
                decl("setup_s", "lower", 0.25),
            ],
        };
        let a = [run(100.0, 1.0, 7)];
        // Worse within the bounds, and better by any margin, both pass.
        assert!(compare(&contract, &a, &[run(91.0, 1.2, 7)]).is_empty());
        assert!(compare(&contract, &a, &[run(300.0, 0.1, 7)]).is_empty());
        // Each rate past its bound, and the digest, are reported.
        let found = compare(&contract, &a, &[run(89.0, 1.3, 8)]);
        assert_eq!(found.len(), 3, "{found:?}");
        // A declared metric that a run does not report is a disagreement.
        let mut bare = run(100.0, 1.0, 7);
        bare.metrics.pop();
        assert_eq!(compare(&contract, &a, &[bare]).len(), 1);
    }
}
