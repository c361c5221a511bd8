//! The counting allocator the budget tests share.
//!
//! A budget test installs it as its process's global allocator,
//!
//! ```ignore
//! mod common;
//!
//! #[global_allocator]
//! static GLOBAL: common::CountingAllocator = common::CountingAllocator;
//! ```
//!
//! and measures with [`counted`]. The counters are process-wide, so each budget
//! test is a file of its own holding one test: a second test running beside it
//! would be counted too, and earlier measurements would warm state that later
//! ones then do not pay for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with relaxed call and byte counters in front of it. The
/// counters publish no other data, so `Relaxed` is enough.
pub struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Count one request of `bytes` new bytes from the system.
fn count(bytes: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments unchanged,
// so `System`'s guarantees are this allocator's; the counters touch no allocator
// state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // One call; only growth is new memory asked of the system.
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr`/`layout` describe a live `System` block; the caller upholds
        // `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What `run` returns, with the allocator calls and bytes it made (those of any
/// thread running meanwhile included).
pub fn counted<T>(run: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    let value = run();
    (
        value,
        ALLOC_CALLS.load(Ordering::Relaxed) - calls,
        ALLOC_BYTES.load(Ordering::Relaxed) - bytes,
    )
}
