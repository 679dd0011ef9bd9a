//! A warm flow allocates nothing: a memory-cache hit clones a summary whose
//! labels are shared (`Arc<str>`), and the worker moves it into a vector
//! sized once per pass. Counted at the allocator, over a whole
//! `run_with_cache`, so a `String` label or a per-flow box cannot come
//! back unnoticed (two `String`s per hit was two calls to `malloc` per
//! flow).
//!
//! One test, so nothing else allocates in this process while it counts.

use hsm::runtime::{CacheConfig, Campaign, FlowCache};
use hsm::scenario::prelude::*;
use hsm::simnet::time::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every request for memory.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_warm_replay_allocates_per_pass_not_per_flow() {
    const FLOWS: usize = 256;
    let config = |flow: u32| {
        ScenarioConfig::builder()
            .motion(Motion::Stationary)
            .seed(u64::from(flow) + 1)
            .flow(flow)
            .duration(SimDuration::from_secs(2))
            .build()
            .expect("valid config")
    };
    let campaign = Campaign::builder()
        .configs((0..FLOWS as u32).map(config))
        .workers(1)
        .build()
        .expect("valid campaign");
    let cache = FlowCache::new(CacheConfig::memory_only());
    let cold = campaign.run_with_cache(&cache).expect("cold pass");
    assert_eq!(cold.report.cache_misses, FLOWS);

    // A hit writes nothing into the cache, so the first warm replay costs
    // what every later one does: no structure grows on the way to steady.
    let counted_replay = || {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let warm = campaign.run_with_cache(&cache).expect("warm replay");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(warm.report.cache_hits, FLOWS, "every flow a memory hit");
        allocations
    };
    let first = counted_replay();
    let second = counted_replay();

    assert!(
        first <= second,
        "the first warm replay allocated {first} times, the next {second}: a hit grows something",
    );
    assert!(
        second < FLOWS / 4,
        "{second} allocations replaying {FLOWS} warm flows: something allocates per flow",
    );
}
