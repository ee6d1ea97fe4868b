//! A counting global allocator: exact allocation counts and peak heap
//! growth inside an armed window.
//!
//! Counting is off unless a window is armed, so untraced runs pay one
//! relaxed load per allocation. The benchmark is single-threaded while a
//! window is armed, so relaxed ordering is enough: the counters publish
//! no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// Forwards to the system allocator, counting while armed.
pub struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: i64) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counting
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size() as i64);
        }
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size() as i64);
        }
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            grow(new_size as i64 - layout.size() as i64);
        }
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees; both are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What one armed window counted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Highest net heap growth over the window, in bytes.
    pub peak_bytes: u64,
}

/// Runs `f` with counting armed and returns its result and the counts.
/// Blocks freed inside the window but allocated before it lower the net
/// growth, so the peak is measured from the window's start.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Window) {
    ALLOCS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let out = f();
    ARMED.store(false, Relaxed);
    let window = Window {
        allocs: ALLOCS.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
    };
    (out, window)
}
