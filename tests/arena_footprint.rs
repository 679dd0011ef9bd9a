//! A summary run's packets cost the analysis columns, nothing more: their
//! 32-byte arena rows are drained into the analysis as the packets land
//! and their chunks reused, so the rows held at once are those in flight.
//! Measured at the allocator, as the rise of the live heap's high-water
//! mark over one 120-s high-speed flow: the rise per packet stays below
//! what the rows alone would cost if the flow kept them all.
//!
//! Live bytes, not the process's resident high-water mark (`VmHWM`): that
//! also counts every page a freed buffer ever touched and the allocator
//! kept (a vector's old buffer after it doubled), so it read the same flow
//! at 24.1 B a packet one run and under 24 the next.
//!
//! One test, so nothing else allocates in this process while it measures.

use hsm::scenario::prelude::*;
use hsm::scenario::runner::run;
use hsm::simnet::chaos::StormPlan;
use hsm::simnet::time::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, keeping the bytes live and their high water.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // The new block first, the old one freed after: a realloc that
        // copies holds both for a moment, and the high water sees it.
        grow(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        shrink(match moved.is_null() {
            true => new_size,
            false => layout.size(),
        });
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes a summary run may add per packet: the analysis fold's
/// columns alone measure 12.6 (552,216 B over 43,711 packets, the same in
/// the dev and release profiles); keeping every 32-byte row to the end of
/// the run measures 43.
const BYTES_PER_PACKET: usize = 16;

#[test]
fn a_summary_run_holds_its_packets_in_32_byte_rows() {
    let config = ScenarioConfig {
        motion: Motion::HighSpeed,
        duration: SimDuration::from_secs(120),
        seed: 1,
        ..Default::default()
    };
    let (mut scratch, calm) = (Scratch::new(), StormPlan::default());

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let summary_run = run(&mut scratch, &config, &calm, Keep::Summary).expect("flow runs");
    let raised = PEAK.load(Ordering::Relaxed) - before;

    // The packet count, from a second run of the same flow (taken after
    // the reading, so its trace weighs nothing above).
    let traced = run(&mut scratch, &config, &calm, Keep::Trace).expect("flow runs");
    assert_eq!(traced.analysis.summary, summary_run.analysis.summary);
    let packets = traced.trace.expect("kept").records.len();
    assert!(packets > 20_000, "only {packets} packets: nothing to weigh");
    assert!(
        raised <= packets * BYTES_PER_PACKET,
        "a {packets}-packet summary run raised the live heap's high water by {raised} bytes \
         ({} a packet, over the {BYTES_PER_PACKET} allowed)",
        raised / packets,
    );
}
