//! Counting global allocator: allocations, bytes and peak live heap.
//!
//! The benchmark is single-threaded, but `GlobalAlloc` must be `Sync`, so
//! the counters are atomics; `Relaxed` is enough because they publish no
//! other data — they are statistics read by the same thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
/// While set, nothing is counted: the benchmark's own calibration kernel
/// allocates, and frees all of it before counting resumes.
static PAUSED: AtomicBool = AtomicBool::new(false);

/// The process-wide allocator: `System` plus four counters.
pub struct Counting;

fn on_alloc(size: usize) {
    if PAUSED.load(Relaxed) {
        return;
    }
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn on_free(size: usize) {
    if !PAUSED.load(Relaxed) {
        LIVE.fetch_sub(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never influence the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Allocations (including reallocations) so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Reads the cumulative counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restarts peak tracking from the current live heap (call at rep start)
/// and returns that baseline, so a rep reports only the heap it added.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Peak live heap in bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Stops or resumes counting. Whatever is allocated while paused must be
/// freed before resuming, or the live heap reads too low afterwards.
pub fn pause(paused: bool) {
    PAUSED.store(paused, Relaxed);
}
