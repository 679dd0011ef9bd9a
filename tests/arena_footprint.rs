//! A summary run's packets cost the analysis columns, nothing more: their
//! 32-byte arena rows are drained into the analysis as the packets land
//! and their chunks reused, so the rows held at once are those in flight.
//! Measured from outside the allocator, as the rise of the process's
//! resident high-water mark over one 120-s high-speed flow: the rise per
//! packet stays below what the rows alone would cost if the flow kept
//! them all.
//!
//! One test, so nothing else runs in this process while it measures.

#![cfg(target_os = "linux")]

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

/// Resident bytes a summary run may add per packet: the analysis fold's
/// columns alone measure 18–21 (25–28 when each latency and ACK send time
/// took 8 bytes and each ACK's loss flag one more; every 32-byte row kept
/// to the end of the run, on top of those, measured 47–55; 48-byte rows
/// 65–69).
const BYTES_PER_PACKET: usize = 24;

#[test]
fn a_summary_run_holds_its_packets_in_32_byte_rows() {
    let config = ScenarioConfig::builder()
        .motion(Motion::HighSpeed)
        .duration(SimDuration::from_secs(120))
        .seed(1)
        .build()
        .expect("valid config");
    let (mut scratch, calm) = (Scratch::new(), StormPlan::default());

    let before = high_water_mark();
    let summary_run = run(&mut scratch, &config, &calm, Keep::Summary).expect("flow runs");
    let raised = high_water_mark() - before;

    // The packet count, from a second run of the same flow (taken after
    // the reading, so its trace weighs nothing above).
    let traced = run(&mut scratch, &config, &calm, Keep::Trace).expect("flow runs");
    assert_eq!(traced.analysis.summary, summary_run.analysis.summary);
    let packets = traced.trace.expect("kept").records.len();
    assert!(packets > 20_000, "only {packets} packets: nothing to weigh");
    assert!(
        raised <= packets * BYTES_PER_PACKET,
        "a {packets}-packet summary run raised the high-water mark by {raised} bytes \
         ({} a packet, over the {BYTES_PER_PACKET} allowed)",
        raised / packets,
    );
}
