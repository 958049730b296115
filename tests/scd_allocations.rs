//! Allocation guards for the warm SCD probe loop.
//!
//! A counting global allocator wraps [`System`]. The sweep test warms
//! one shared estimate cache with the 30 SCD cells of the paper flow
//! (PYNQ-Z1, 10/15/20 FPS, seed 1), then runs the same cells again:
//! every lookup of that second pass is a cache hit, so whatever it
//! allocates is the search loop's own overhead. The bound keeps the
//! probe loop and revisit replays allocation-free: what is left is
//! per-search set-up (the plan and its probe memo), the first restart
//! out of a point to each depth, one copy of each point the search
//! stands on, and candidate collection.

use codesign_bench::experiments::ScdSweep;
use codesign_hls::cache::EstimateCache;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the allocations (including reallocations) of the thread that
/// runs the test; other threads of the harness are not counted.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread itself tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_scd_sweep_allocates_at_most_0_55_per_lookup() {
    let cache = Arc::new(EstimateCache::new());
    let sweep = ScdSweep::paper(1, &cache).expect("paper flow cells");
    let cold = sweep.run();
    assert_eq!(cold.len(), 30, "the paper flow has 30 SCD cells");
    let before = cache.stats();
    // The paper flow's split at one worker, as before the probe memo.
    assert_eq!((before.hits, before.misses), (18_703, 1_092));

    let start = allocations();
    let warm = sweep.run();
    let allocated = allocations() - start;

    let after = cache.stats();
    let lookups = after.total() - before.total();
    assert_eq!(warm, cold, "the warm pass found different candidates");
    assert_eq!(
        after.misses, before.misses,
        "the warm pass missed the cache"
    );
    assert!(lookups > 10_000, "only {lookups} lookups");
    let per_lookup = allocated as f64 / lookups as f64;
    // CI copies this line into its step summary.
    println!("warm-sweep allocations per lookup: {per_lookup:.2} ({allocated} over {lookups})");
    assert!(
        per_lookup <= 0.55,
        "{allocated} allocations over {lookups} warm lookups: {per_lookup:.2} per lookup"
    );
}
