//! `repro` — regenerate the paper's tables and figures, and drive
//! declarative campaigns.
//!
//! ```text
//! repro                             # list experiments
//! repro all                         # run everything (standard scale)
//! repro fig10 fig12                 # run a subset
//! repro all --full                  # full 255-flow scale (minutes)
//! repro fig3 --csv out/             # export each table as CSV too
//! repro run --spec FILE --shards 4  # sharded declarative campaign
//! repro accuracy --full             # the accuracy ledger, ACCURACY.json
//! repro chaos [--spec FILE]         # fault-injection harness
//! ```
//!
//! `ACCURACY.json` is the one science artifact: every `D`, every paper
//! number beside ours and the §V countermeasures under a delay-flap storm.
//!
//! Every subcommand shares one parsed-options type (`hsm_bench::cli`);
//! `--spec FILE` loads a declarative `CampaignSpec` where it makes sense:
//! `run` executes it (optionally across OS processes), `chaos` round-trip
//! checks it before the harness runs. Performance is measured by
//! `benchmark/`, not here.

use hsm_bench::cli::{self, Opts};
use hsm_bench::{Ctx, EXPERIMENTS};
use hsm_runtime::cache::{CacheConfig, FlowCache};
use hsm_runtime::shard::{
    merge_shards, read_shard_report, run_shard, shard_file_name, write_shard_report, ShardReport,
};
use hsm_scenario::spec::{expansion_digest, load_spec, CampaignSpec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Loads a spec and verifies it is self-consistent: the TOML writer
/// round-trips it exactly and two expansions agree. Returns the spec and
/// its expansion digest.
fn check_spec(path: &Path) -> Result<(CampaignSpec, u64), String> {
    let spec = load_spec(path).map_err(|e| e.to_string())?;
    let text = spec.to_toml();
    let back = CampaignSpec::from_toml(&text)
        .map_err(|e| format!("spec `{}` does not re-parse: {e}", spec.name))?;
    if back != spec {
        return Err(format!(
            "spec `{}` drifts through a TOML round-trip",
            spec.name
        ));
    }
    let a = spec.expand().map_err(|e| e.to_string())?;
    let b = back.expand().map_err(|e| e.to_string())?;
    if a != b {
        return Err(format!(
            "spec `{}` expands non-deterministically",
            spec.name
        ));
    }
    Ok((spec, expansion_digest(&a)))
}

/// `repro run --spec FILE [--shards N | --shard K/N]`: execute a
/// declarative campaign, optionally partitioned across OS processes, and
/// fold the shard reports into one deterministic `merged.json`.
fn run_cmd(args: Vec<String>) -> ExitCode {
    let opts = match cli::parse(
        "run",
        args,
        &[
            "--spec",
            "--shards",
            "--shard",
            "--workers",
            "--out",
            "--cache-dir",
        ],
    ) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    match run_campaign(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(format!("run: {e}")),
    }
}

fn run_campaign(opts: &Opts) -> Result<(), String> {
    let Some(spec_path) = &opts.spec else {
        return Err("--spec FILE is required (see examples/specs/)".into());
    };
    let spec = load_spec(spec_path).map_err(|e| e.to_string())?;
    let configs = spec.expand().map_err(|e| e.to_string())?;
    let digest = expansion_digest(&configs);
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("campaign-{}", spec.name)));
    let cache_dir = opts.cache_dir.clone().unwrap_or_else(|| out.join("cache"));

    // Slice mode: this process is one shard of an N-way partition —
    // either a child spawned below or a slice launched on a remote host.
    if let Some((k, n)) = opts.shard {
        let cache = FlowCache::new(CacheConfig::with_disk(&cache_dir));
        let report = run_shard(&spec.name, digest, &configs, k, n, opts.workers, &cache)
            .map_err(|e| e.to_string())?;
        let path = write_shard_report(&out, &report).map_err(|e| e.to_string())?;
        println!(
            "run: shard {k}/{n} of `{}` -> {} flows, wrote {}",
            spec.name,
            report.summaries.len(),
            path.display()
        );
        return Ok(());
    }

    let shards = opts.shards.unwrap_or(1);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    if shards == 1 {
        // Single-process run through the exact same shard/merge path the
        // multi-process mode uses, so merged.json is trivially comparable.
        let cache = FlowCache::new(CacheConfig::with_disk(&cache_dir));
        let report = run_shard(&spec.name, digest, &configs, 0, 1, opts.workers, &cache)
            .map_err(|e| e.to_string())?;
        write_shard_report(&out, &report).map_err(|e| e.to_string())?;
    } else {
        spawn_shards(spec_path, shards, opts, &out, &cache_dir)?;
    }

    let reports: Vec<ShardReport> = (0..shards)
        .map(|k| read_shard_report(&out.join(shard_file_name(k, shards))))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let merged = merge_shards(&reports).map_err(|e| e.to_string())?;
    let json = serde_json::to_string(&merged).map_err(|e| e.to_string())?;
    let merged_path = out.join("merged.json");
    std::fs::write(&merged_path, &json)
        .map_err(|e| format!("cannot write {}: {e}", merged_path.display()))?;
    println!(
        "run: `{}` -> {} flows across {shards} shard(s), digest {digest:016x}",
        spec.name, merged.flows
    );
    println!("wrote {}", merged_path.display());
    Ok(())
}

/// Spawns one OS process per shard (`repro run --spec F --shard K/N`),
/// all sharing `cache_dir`, and waits for every one to succeed.
fn spawn_shards(
    spec_path: &Path,
    shards: usize,
    opts: &Opts,
    out: &Path,
    cache_dir: &Path,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate repro binary: {e}"))?;
    let mut children = Vec::new();
    for k in 0..shards {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("run")
            .arg("--spec")
            .arg(spec_path)
            .arg("--shard")
            .arg(format!("{k}/{shards}"))
            .arg("--out")
            .arg(out)
            .arg("--cache-dir")
            .arg(cache_dir);
        if let Some(w) = opts.workers {
            cmd.arg("--workers").arg(w.to_string());
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn shard {k}/{shards}: {e}"))?;
        children.push((k, child));
    }
    let mut failed = Vec::new();
    for (k, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("shard {k}/{shards} exited with {status}")),
            Err(e) => failed.push(format!("shard {k}/{shards} could not be awaited: {e}")),
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

/// `repro chaos [--seed N] [--cases M] [--workers W] [--spec FILE]`: the
/// fault-injection and differential-testing harness. Writes the full
/// `ChaosReport` as `CHAOS_report.json`; on any oracle violation or
/// failed drill also writes `chaos-failure.json` (violations with their
/// shrunk minimal configs — the artifact CI uploads) and exits non-zero.
/// With `--spec`, the spec is round-trip checked first.
fn chaos_cmd(args: Vec<String>) -> ExitCode {
    let parsed = match cli::parse("chaos", args, &["--seed", "--cases", "--workers", "--spec"]) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    if let Some(spec) = &parsed.spec {
        match check_spec(spec) {
            Ok((spec, digest)) => println!(
                "chaos: spec `{}` round-trips ({} scenario grids, digest {digest:016x})",
                spec.name,
                spec.scenarios.len()
            ),
            Err(e) => return fail(format!("chaos: spec check failed: {e}")),
        }
    }
    let mut opts = hsm_chaos::ChaosOptions::default();
    if let Some(seed) = parsed.seed {
        opts.seed = seed;
    }
    if let Some(cases) = parsed.cases {
        opts.cases = cases;
    }
    if let Some(workers) = parsed.workers {
        opts.workers = workers;
    }

    // The worker-death drill kills workers with deliberate panics; keep
    // those out of stderr while letting genuine panics through.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("chaos:"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("chaos:"))
            })
            .unwrap_or(false);
        if !injected {
            prev(info);
        }
    }));

    let report = hsm_chaos::run_chaos(&opts);

    let json = match serde_json::to_string(&report) {
        Ok(j) => j,
        Err(e) => return fail(format!("failed to serialize chaos report: {e}")),
    };
    if let Err(e) = std::fs::write("CHAOS_report.json", &json) {
        return fail(format!("failed to write CHAOS_report.json: {e}"));
    }
    println!(
        "chaos: seed {} cases {} workers {} -> {} violations, {}/{} drills passed, \
         region {} flows (mean D enhanced {:.4} vs padhye {:.4}), {:.1}s",
        report.seed,
        report.cases,
        report.workers,
        report.violations.len(),
        report.drills.iter().filter(|d| d.passed).count(),
        report.drills.len(),
        report.aggregate.region_flows,
        report.aggregate.mean_d_enhanced,
        report.aggregate.mean_d_padhye,
        report.wall_s,
    );
    if report.ok() {
        println!("chaos: all oracles held");
        ExitCode::SUCCESS
    } else {
        for v in &report.violations {
            eprintln!(
                "violation [case {} | {}]: {}\n  reproduce: seed {} case {}\n  shrunk: {:?}",
                v.case, v.check, v.detail, report.seed, v.case, v.shrunk
            );
        }
        for d in report.drills.iter().filter(|d| !d.passed) {
            eprintln!("drill failed [{}]: {}", d.name, d.detail);
        }
        if !report.aggregate.skipped && !report.aggregate.within_envelope {
            eprintln!(
                "aggregate oracle failed: mean D enhanced {:.4} (envelope {:.4}) vs padhye {:.4}",
                report.aggregate.mean_d_enhanced,
                report.aggregate.envelope,
                report.aggregate.mean_d_padhye
            );
        }
        if let Err(e) = std::fs::write("chaos-failure.json", &json) {
            eprintln!("failed to write chaos-failure.json: {e}");
        }
        ExitCode::FAILURE
    }
}

/// `repro accuracy [--smoke | --full] [--workers W]`: the accuracy
/// ledger. Writes `ACCURACY.json` and prints its tables as markdown on
/// stdout — the block EXPERIMENTS.md quotes, so status goes to stderr.
/// Fails when the §V storm study comes back incomplete.
fn accuracy_cmd(args: Vec<String>) -> ExitCode {
    let opts = match cli::parse("accuracy", args, &["--smoke", "--full", "--workers"]) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let ledger = match hsm_bench::accuracy::run_accuracy(opts.scale, opts.workers) {
        Ok(l) => l,
        Err(e) => return fail(format!("accuracy failed: {e}")),
    };
    let json = match serde_json::to_string(&ledger) {
        Ok(j) => j,
        Err(e) => return fail(format!("failed to serialize the accuracy ledger: {e}")),
    };
    if let Err(e) = std::fs::write("ACCURACY.json", &json) {
        return fail(format!("failed to write ACCURACY.json: {e}"));
    }
    print!("{}", ledger.to_markdown());
    eprintln!("wrote ACCURACY.json");
    ExitCode::SUCCESS
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}

fn usage() {
    println!("usage: repro [all | <id>...] [--smoke | --full] [--csv DIR]");
    println!("       repro run --spec FILE [--shards N | --shard K/N] [--workers W]");
    println!("                 [--out DIR] [--cache-dir DIR]");
    println!("       repro chaos [--seed N] [--cases M] [--workers W] [--spec FILE]");
    println!("       repro accuracy [--smoke | --full] [--workers W]\n");
    println!("experiments:");
    for e in EXPERIMENTS {
        println!("  {:10} {}", e.id, e.about);
    }
    println!("\n`repro run` executes a declarative campaign spec: `--shards N`");
    println!("spawns N OS processes sharing one disk cache, `--shard K/N`");
    println!("runs a single slice (e.g. on a remote host), and the merged");
    println!("merged.json is bit-identical for every shard count.");
    println!("`repro chaos` runs the seeded fault-injection harness and");
    println!("writes CHAOS_report.json (plus chaos-failure.json and a");
    println!("non-zero exit on any oracle violation).");
    println!("`repro accuracy` evaluates both models on every provider x");
    println!("congestion control x recovery slice, pairs every paper number");
    println!("with ours, measures and models the loss-recovery zoo under a");
    println!("delayed-ACK chaos storm, writes ACCURACY.json and prints the");
    println!("tables.");
}

/// The default (experiment-runner) command: `repro [<id>...] [flags]`.
fn experiments_cmd(args: Vec<String>) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    let opts = match cli::parse("repro", args, &["--smoke", "--full", "--csv", "ID"]) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    if opts.ids.is_empty() {
        usage();
        return ExitCode::SUCCESS;
    }

    let run_all = opts.ids.iter().any(|i| i == "all");
    let selected: Vec<_> = if run_all {
        EXPERIMENTS.iter().collect()
    } else {
        let mut sel = Vec::new();
        for id in &opts.ids {
            match hsm_bench::find(id) {
                Some(e) => sel.push(e),
                None => return fail(format!("unknown experiment `{id}` (try --help)")),
            }
        }
        sel
    };

    let ctx = Ctx::new(opts.scale);
    for e in selected {
        let result = (e.run)(&ctx);
        println!("{}", result.to_text());
        if let Some(dir) = &opts.csv {
            if let Err(err) = result.save_csv(dir) {
                return fail(format!("failed to write CSVs for {}: {err}", result.id));
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = |a: &[String]| a[1..].to_vec();
    match args.first().map(String::as_str) {
        Some("run") => run_cmd(rest(&args)),
        Some("chaos") => chaos_cmd(rest(&args)),
        Some("accuracy") => accuracy_cmd(rest(&args)),
        _ => experiments_cmd(args),
    }
}
