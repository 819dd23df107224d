//! The benchmark binary's counting allocator.
//!
//! Counts what the timed operations ask of the heap: number of
//! allocations (a `realloc` counts as one, the convention `harness
//! bench` uses, so the numbers line up with `BENCH_sim.json`), and the
//! live and peak-live byte totals behind `peak_heap_mb`. The counters
//! are process-wide; on the single-threaded workloads they repeat
//! exactly for a given seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub struct Counting;

// Statistics only: no other data is published through these, so
// `Relaxed` is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// What the benchmark's own harness holds (calibration table, span
/// buffer): live before any workload input exists, and not the
/// workload's to answer for.
static HARNESS: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every operation is delegated unchanged to the system
// allocator, with the caller's own layout and pointer; the additions
// are relaxed counter updates that touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this `layout` (the caller's contract).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live block of `System`'s
        // and `new_size` is the caller's (nonzero, no overflow — the
        // caller's contract).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations since process start.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Start a peak-heap observation window: the peak is reset to what is
/// live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Declare everything live now to be the harness's own.
pub fn mark_harness() {
    HARNESS.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_peak`], net of the
/// harness's own.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
        .saturating_sub(HARNESS.load(Ordering::Relaxed))
}
