//! `hsm-benchmark` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! hsm-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! hsm-benchmark --all        [--seed N] [--seconds S]    every workload, both modes
//! hsm-benchmark --selfcheck  [--seed N] [--seconds S]    --all twice, compared
//! ```
//!
//! See `README.md` for the workloads, the metrics and how they interact.

#![forbid(unsafe_code)]

mod e2e;
mod host;
mod kernels;
mod layers;
mod report;
mod span;
mod stats;
mod suite;
mod workload;

use report::{Contract, RunResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Checks, Workload, DEFAULT_SEED};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub mode: Mode,
    pub seed: u64,
    /// `--seconds`; `None` means the contract's `run_seconds`.
    pub seconds: Option<u64>,
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    One { workload: Workload, traced: bool },
    All,
    Selfcheck,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut traced = false;
    let mut suite = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => out_dir = PathBuf::from(value()?),
            "--all" => suite = Some(Mode::All),
            "--selfcheck" => suite = Some(Mode::Selfcheck),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let mode = match (suite, workload) {
        (Some(mode), None) => mode,
        (None, Some(workload)) => Mode::One { workload, traced },
        _ => return Err("give exactly one of --workload NAME, --all, --selfcheck".to_owned()),
    };
    Ok(Args {
        mode,
        seed,
        seconds,
        out_dir,
    })
}

/// Where a run's full result is kept.
pub fn result_path(out_dir: &Path, workload: Workload, traced: bool) -> PathBuf {
    out_dir.join(format!(
        "result-{}-trace{}.json",
        workload.name(),
        u8::from(traced)
    ))
}

/// Runs one workload once and prints its report; the last line of
/// standard output is the result the driver reads.
fn run_one(
    workload: Workload,
    traced: bool,
    args: &Args,
    seconds: u64,
    process_start: Instant,
) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let path = result_path(&args.out_dir, workload, traced);
    // A stale result must not pass for this run's.
    let _ = std::fs::remove_file(&path);
    println!(
        "hsm-benchmark  workload={}  trace={}  seed={}  seconds={seconds}  workers={}",
        workload.name(),
        u8::from(traced),
        args.seed,
        workload::WORKERS
    );
    println!(
        "bench.host_cores={}  rustc=\"{}\"  disk_tier_fs={}  malloc_trim/mmap_threshold={}",
        host::cores(),
        host::RUSTC,
        host::fs_type(&args.out_dir),
        host::malloc_thresholds()
    );

    let mut checks = Checks::default();
    let (reference, mut metrics) = if traced {
        layers::run(workload, args.seed, seconds, &args.out_dir, &mut checks)?
    } else {
        let (ready, metrics) = e2e::run(
            workload,
            args.seed,
            seconds,
            &args.out_dir,
            process_start,
            &mut checks,
        )?;
        (ready.reference, metrics)
    };
    for m in &mut metrics {
        if !m.summary.median.is_finite() {
            checks.fail(0, format!("metric {} is not a finite number", m.name));
            m.summary.median = 0.0;
        }
    }
    let result = RunResult {
        workload: workload.name().to_owned(),
        seed: args.seed,
        traced,
        correct: checks.correct(),
        attempted: checks.attempted.max(1),
        failed: checks.failed(),
        sim_digest: reference.sim_digest,
        events: reference.events,
        metrics,
        errors: checks.errors,
    };
    if !traced {
        println!(
            "model_dev_enhanced_p50 = {:.6} (unvalidated; the paper reports 0.0566 against real traces)",
            kernels::eval(&reference.summaries).p50_d_enhanced
        );
    }
    result.print_table();
    std::fs::write(&path, result.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{}", result.result_line());
    Ok(result.correct)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        let contract = Contract::load()?;
        let seconds = args.seconds.unwrap_or(contract.run_seconds);
        match args.mode {
            Mode::One { workload, traced } => {
                run_one(workload, traced, &args, seconds, process_start)
            }
            Mode::All => suite::run_all(&args, seconds).map(|set| suite::all_correct(&set)),
            Mode::Selfcheck => suite::selfcheck(&args, seconds, &contract),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hsm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload zoo-grid-cold --seed 9 --seconds 4 --trace 1").expect("valid");
        assert_eq!(
            a.mode,
            Mode::One {
                workload: Workload::ZooGridCold,
                traced: true
            }
        );
        assert_eq!((a.seed, a.seconds), (9, Some(4)));
        let a = args("--all").expect("valid");
        assert_eq!((a.mode, a.seed, a.seconds), (Mode::All, DEFAULT_SEED, None));
        for bad in [
            "",
            "--workload nope",
            "--workload table1-cold --all",
            "--trace 2 --all",
            "--seed",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "`{bad}` must be rejected");
        }
    }
}
