//! A summary run holds no per-packet copy of its capture: the flow is
//! analysed where the engine recorded it. Measured from outside the
//! allocator, as the process's resident high-water mark — a run that
//! returns the trace must push the mark up by the size of that trace, on
//! top of everything the summary run of the same flow ever held.
//!
//! One test, so nothing else runs in this process while it measures.

#![cfg(target_os = "linux")]

use hsm::scenario::prelude::*;
use hsm::scenario::runner::run;
use hsm::simnet::chaos::StormPlan;
use hsm::simnet::time::SimDuration;
use hsm::trace::record::PacketRecord;

/// The process's peak resident set (`VmHWM`), bytes.
fn high_water_mark() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmHWM:"));
    let kib = line.and_then(|l| l.split_whitespace().nth(1));
    kib.and_then(|k| k.parse::<usize>().ok()).expect("VmHWM") * 1024
}

#[test]
fn summary_run_never_holds_the_trace_copy() {
    let config = ScenarioConfig::builder()
        .motion(Motion::HighSpeed)
        .duration(SimDuration::from_secs(120))
        .seed(1)
        .build()
        .expect("valid config");
    let (mut scratch, calm) = (Scratch::new(), StormPlan::default());

    let summary_run = run(&mut scratch, &config, &calm, Keep::Summary).expect("flow runs");
    assert!(summary_run.trace.is_none());
    let summary = summary_run.analysis.summary;
    let after_summary = high_water_mark();

    let traced = run(&mut scratch, &config, &calm, Keep::Trace).expect("flow runs");
    let after_trace = high_water_mark();

    assert_eq!(traced.analysis.summary, summary);
    let records = traced.trace.expect("kept").records.len();
    assert!(records > 20_000, "only {records} records: nothing to weigh");
    // Half the copy: the allocator may hand the trace the pages the
    // analysis columns have just given back.
    let copy = records * std::mem::size_of::<PacketRecord>();
    let raised = after_trace - after_summary;
    assert!(
        raised >= copy / 2,
        "folding a {copy}-byte trace raised the high-water mark by only {raised} bytes \
         ({after_summary} -> {after_trace}): the summary run held a copy of its own",
    );
}
