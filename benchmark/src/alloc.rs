//! A counting global allocator: live heap bytes and allocation calls.
//!
//! Always on — two relaxed adds per call — so both sides of any
//! comparison pay it. Live bytes are exact and repeatable where RSS is
//! neither, which is what lets `state_mb` carry a tight bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

/// The system allocator with counters in front.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counters are
// plain atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the counters.
#[derive(Clone, Copy)]
pub struct Reading {
    calls: u64,
    allocated: u64,
    freed: u64,
}

/// Reads the counters now.
pub fn read() -> Reading {
    Reading {
        calls: CALLS.load(Ordering::Relaxed),
        allocated: ALLOCATED.load(Ordering::Relaxed),
        freed: FREED.load(Ordering::Relaxed),
    }
}

impl Reading {
    /// Allocation calls made since `earlier`.
    pub fn calls_since(&self, earlier: &Reading) -> u64 {
        self.calls - earlier.calls
    }

    /// Bytes requested since `earlier` (whether or not freed again).
    pub fn bytes_since(&self, earlier: &Reading) -> u64 {
        self.allocated - earlier.allocated
    }

    /// Growth of the live heap since `earlier`, bytes (negative if it shrank).
    pub fn live_since(&self, earlier: &Reading) -> i64 {
        let live = |r: &Reading| r.allocated as i64 - r.freed as i64;
        live(self) - live(earlier)
    }
}
