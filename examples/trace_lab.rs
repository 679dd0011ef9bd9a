//! Trace laboratory: expand a committed campaign spec into a small
//! synthetic dataset, persist it to disk, reload it, and run the offline
//! analyses — the paper authors' workflow with their pcap archive.
//!
//! ```text
//! cargo run --release --example trace_lab
//! ```

use hsm::model::prelude::*;
use hsm::prelude::{load_spec, Keep, Scratch};
use hsm::scenario::runner::run;
use hsm::simnet::chaos::StormPlan;
use hsm::simnet::time::SimDuration;
use hsm::trace::prelude::*;
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Load the declarative spec (a 3 %-scale Table I dataset of 45 s
    //    flows), expand it, and simulate each flow on one reused scratch,
    //    keeping its trace (a campaign keeps only summaries).
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs/trace_lab.toml");
    let spec = load_spec(&spec_path).map_err(hsm::Error::from)?;
    let configs = spec.expand().map_err(hsm::Error::from)?;
    println!(
        "generating dataset ({} planned flows from spec `{}`)...",
        configs.len(),
        spec.name
    );
    let mut scratch = Scratch::new();
    let mut traces: Vec<FlowTrace> = Vec::with_capacity(configs.len());
    for config in &configs {
        let out = run(&mut scratch, config, &StormPlan::default(), Keep::Trace)
            .map_err(hsm::Error::from)?;
        traces.extend(out.trace);
    }

    // 2. Persist to JSON-lines and reload — the archive round trip.
    let path = std::env::temp_dir().join("hsm_trace_lab.jsonl");
    save_traces(&path, &traces)?;
    let size_mb = std::fs::metadata(&path)?.len() as f64 / 1e6;
    let reloaded = load_traces(&path)?;
    println!(
        "archived {} traces ({size_mb:.1} MB) to {} and reloaded them\n",
        reloaded.len(),
        path.display()
    );

    // 3. Offline analysis of the reloaded archive.
    println!("flow  provider        TP(seg/s)  stalls>1s  dead-time  q̂      spurious");
    let mut summaries = Vec::new();
    for trace in &reloaded {
        let a = analyze_flow(trace, &TimeoutConfig::default());
        let stalls = detect_stalls(trace, SimDuration::from_secs(1));
        let dead = stall_time_fraction(trace, SimDuration::from_secs(1));
        println!(
            "{:4}  {:14}  {:8.1}  {:9}  {:8.1}%  {:5.2}  {:7.1}%",
            a.summary.flow,
            a.summary.provider,
            a.summary.throughput_sps,
            stalls.len(),
            dead * 100.0,
            a.summary.q_hat,
            a.summary.spurious_fraction() * 100.0,
        );
        summaries.push(a.summary);
    }

    // 4. Auto-calibrate a global q against the archive (the paper's
    //    "0.25–0.4 recommended" band, made procedural).
    if let Some(fit) = fit_global(&summaries, &FitConfig::default()) {
        println!(
            "\nglobal fit over {} flows: q = {:.3} (P_a scale {:.1}) with mean D = {:.1}%",
            fit.flows,
            fit.q,
            fit.p_a_scale,
            fit.mean_d * 100.0
        );
        println!("paper's recommended band for q: 0.25 – 0.40");
    }

    // 5. Windowed throughput of the roughest flow.
    if let Some(worst) = reloaded.iter().min_by(|a, b| {
        let ta = analyze_flow(a, &TimeoutConfig::default())
            .summary
            .throughput_sps;
        let tb = analyze_flow(b, &TimeoutConfig::default())
            .summary
            .throughput_sps;
        ta.partial_cmp(&tb).expect("finite")
    }) {
        println!(
            "\nper-5s throughput of the roughest flow (#{}):",
            worst.flow
        );
        for bin in throughput_timeline(worst, SimDuration::from_secs(5)) {
            let bar_len = (bin.throughput_sps() / 20.0) as usize;
            println!(
                "  {:5.0}s  {:7.1} seg/s  {}",
                bin.from.as_secs_f64(),
                bin.throughput_sps(),
                "#".repeat(bar_len.min(60))
            );
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
}
