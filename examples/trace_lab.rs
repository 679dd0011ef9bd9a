//! Trace laboratory: expand a committed campaign spec into a small
//! synthetic dataset, persist it to disk, reload it, and run the offline
//! analyses — the paper authors' workflow with their pcap archive.
//!
//! ```text
//! cargo run --release --example trace_lab
//! ```

use hsm::prelude::{load_spec, Keep, Scratch};
use hsm::scenario::runner::run;
use hsm::simnet::chaos::StormPlan;
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
    println!("flow  provider        TP(seg/s)  q̂      spurious");
    for trace in &reloaded {
        let a = analyze_flow(trace, &TimeoutConfig::default());
        println!(
            "{:4}  {:14}  {:8.1}  {:5.2}  {:7.1}%",
            a.summary.flow,
            a.summary.provider,
            a.summary.throughput_sps,
            a.summary.q_hat,
            a.summary.spurious_fraction() * 100.0,
        );
    }

    let _ = std::fs::remove_file(&path);
    Ok(())
}
