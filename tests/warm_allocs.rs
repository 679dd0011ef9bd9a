//! A warm flow allocates nothing. A memory-cache hit copies a summary
//! whose labels are `&'static str`s (`hsm_trace::record::Label`) into a
//! vector reserved once, at the pass's first hit. A disk hit opens a path
//! built on the stack, reads into a stack buffer and decodes labels the
//! process has interned already. Counted at the allocator, over a whole
//! `run_with_cache`, so a `String` label, a per-flow path or box cannot
//! come back unnoticed (two `String`s per hit was two calls to `malloc`
//! per flow; a `PathBuf` and two `Arc<str>`s per disk hit were three).
//!
//! The count is exact, one pin per tier. A pass the memory tier holds
//! whole is served by the calling thread's sweep and starts no pool: 4
//! allocations per 256-flow pass (the runs, the two per-worker report
//! vectors, the version string); it made 7 when each hit ran as a pool
//! job. Disk hits still run on the pool, whose worker 0 is the calling
//! thread, so a one-worker pass spawns no thread: 7 allocations, where
//! spawning and joining a worker thread made it 13. A sweep that misses
//! on the first flow allocates nothing, so a disk or cold pass pays
//! exactly what the pool did before the sweep.
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
    const PER_MEMORY_REPLAY: usize = 4;
    const PER_DISK_REPLAY: usize = 7;
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
    let counted_replay = |cache: &FlowCache| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let warm = campaign.run_with_cache(cache).expect("warm replay");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(warm.report.cache_hits, FLOWS, "every flow a hit");
        (allocations, warm.report.disk_hits)
    };
    let (first, _) = counted_replay(&cache);
    let (second, _) = counted_replay(&cache);

    assert!(
        first <= second,
        "the first warm replay allocated {first} times, the next {second}: a hit grows something",
    );
    assert_eq!(
        second, PER_MEMORY_REPLAY,
        "allocations replaying {FLOWS} warm flows: a new one per pass, or per flow",
    );

    // The disk tier: a pass publishes every flow, then a cache with no
    // memory tier (nothing to promote into) serves each replay from the
    // files. The first replay interns the two labels it decodes; after
    // that a disk hit allocates nothing, so the pass costs the pool's own
    // per-pass allocations and no more.
    let dir = std::env::temp_dir().join(format!("hsm_warm_allocs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let published = campaign
        .run_with_cache(&FlowCache::new(CacheConfig::with_disk(&dir)))
        .expect("publishing pass");
    assert_eq!(published.report.cache_misses, FLOWS);
    let disk = FlowCache::new(CacheConfig {
        memory_entries: 0,
        disk_dir: Some(dir.clone()),
    });
    let _ = counted_replay(&disk);
    let (disk_replay, disk_hits) = counted_replay(&disk);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(disk_hits, FLOWS as u64, "every flow a disk hit");
    assert_eq!(
        disk_replay, PER_DISK_REPLAY,
        "allocations replaying {FLOWS} flows from disk: a path, a label or a buffer per flow",
    );
}
