//! The benchmark's counting allocator: calls, live bytes, peak bytes.
//!
//! Always installed, so both sides of any comparison pay the same cost.
//! The counters are statistics that publish no other data, hence
//! `Relaxed`; with two sweep threads the peak is a racy high-water mark
//! (an interleaving can miss a few bytes), which is why `sweep_grid`
//! carries the widest `peak_heap_bytes` bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `System` plus three relaxed counters.
pub struct Counting;

fn grew(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is forwarded as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is forwarded as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with this layout, i.e.
        // from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's, forwarded as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew((new_size - layout.size()) as u64);
            } else {
                LIVE.fetch_sub((layout.size() - new_size) as u64, Relaxed);
            }
        }
        p
    }
}

/// Allocation calls (alloc + alloc_zeroed + realloc) since process start.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Restarts the high-water mark from the current live heap and returns
/// that baseline, so a caller can report the growth of one repetition
/// without the inputs and samples the benchmark itself keeps alive.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// High-water live heap since the last [`reset_peak`], bytes.
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}
