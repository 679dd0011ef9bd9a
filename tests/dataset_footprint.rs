//! A dataset is its summaries: `run_dataset` retains no trace, so what a
//! dataset of many flows leaves resident is what its workers' scratches
//! held — a few flows' worth — not a copy of every flow's capture.
//! Measured from outside the allocator, as the process's resident
//! high-water mark, against the mark one lone flow leaves.
//!
//! One test, so nothing else runs in this process while it measures.

#![cfg(target_os = "linux")]

use hsm::runtime::run_dataset;
use hsm::scenario::prelude::*;
use hsm::scenario::runner::run;
use hsm::simnet::chaos::StormPlan;
use hsm::simnet::time::SimDuration;

/// The process's peak resident set (`VmHWM`), bytes.
fn high_water_mark() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmHWM:"));
    let kib = line.and_then(|l| l.split_whitespace().nth(1));
    kib.and_then(|k| k.parse::<usize>().ok()).expect("VmHWM") * 1024
}

#[test]
fn a_dataset_leaves_no_more_resident_than_its_workers_flows() {
    let workers = std::thread::available_parallelism().map_or(4, |w| w.get());
    // Flows in proportion to the pool, so retained traces would outweigh
    // the workers' scratches on any host: ≈ 15 flows a worker.
    let cfg = DatasetConfig {
        scale: (15 * workers) as f64 / f64::from(table1_total_flows()),
        flow_duration: SimDuration::from_secs(120),
        ..Default::default()
    };
    let plan = plan_dataset(&cfg);

    // One flow of the dataset alone, the way a campaign worker runs it.
    let (_, first) = &plan[0];
    run(
        &mut Scratch::new(),
        first,
        &StormPlan::default(),
        Keep::Summary,
    )
    .expect("flow runs");
    let one_flow = high_water_mark();

    let (flows, report) = run_dataset(&cfg).expect("dataset runs");
    let after_dataset = high_water_mark();
    assert_eq!(flows.len(), plan.len());
    assert!(flows.len() >= 10 * report.workers, "{} flows", flows.len());

    // Each worker holds one flow at a time, the lone flow's pages may
    // still be the process's, and its mark already includes the process
    // itself; doubled, because flows of one plan differ in size. Fifteen
    // retained traces a worker weigh well over twice that.
    let bound = 2 * (report.workers + 1) * one_flow;
    assert!(
        after_dataset <= bound,
        "{} flows on {} workers left {after_dataset} bytes resident, one flow alone {one_flow}: \
         more than {bound}, so something is kept per flow beyond its summary",
        flows.len(),
        report.workers,
    );
}
