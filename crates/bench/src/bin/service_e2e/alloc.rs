//! A counting [`GlobalAlloc`] around the system allocator: live bytes,
//! peak live bytes and the number of allocation calls, read by the
//! harness around the timed window. Same idea as
//! `crates/net/tests/alloc_regression.rs`, plus byte accounting.
//!
//! The benchmark is single-threaded, so the counters are plain relaxed
//! atomics: they publish no other data.

// The workspace denies `unsafe_code`; a `GlobalAlloc` impl is the one
// place that genuinely needs it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The counting allocator; installed as the global allocator in
/// `main.rs`.
pub struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by as u64, Relaxed) + by as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub((layout.size() - new_size) as u64, Relaxed);
            }
        }
        new
    }
}

/// Bytes currently allocated.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Allocation calls (`alloc` + `realloc`) so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Forgets the peak: it restarts from the current live size.
pub fn reset_peak() {
    PEAK.store(live(), Relaxed);
}

/// Highest live size since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}
