//! Budget guard for configuring one build.
//!
//! The IR build configures every point of its sweep, so `configure` runs once per
//! configuration on every build, warm or cold. A configured build borrows its
//! project: its compile commands share one argument list per distinct set of
//! target and source extra flags, and the list borrows every argument the project
//! holds. The planner classifies each list once (`CompileFlags`). This test keeps
//! it so: allocator calls and bytes of one GROMACS `GMX_SIMD` configuration,
//! its flags included, stay under a budget.
//!
//! The file holds a single test on purpose: the counting allocator is process-wide,
//! and a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xaas_apps::gromacs;
use xaas_buildsys::{configure, OptionAssignment};

/// The system allocator with relaxed call and byte counters in front of it. The
/// counters publish no other data, so `Relaxed` is enough.
struct CountingAllocator;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments unchanged,
// so `System`'s guarantees are this allocator's; the counters touch no allocator
// state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Only growth is new memory asked of the system.
        ALLOC_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block; the caller upholds
        // `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocator calls of one configuration and its flags. With every command owning a
/// copy of each argument and its flags parsed per command, 292 (165 in `configure`
/// alone). With the commands sharing one borrowed argument list, classified once,
/// and the configure line written into one buffer, 58 in release and debug runs,
/// plus 5 %.
const ALLOC_BUDGET_CALLS: u64 = 61;
/// Bytes of one configuration and its flags: 13,007 with per-command copies (7,409
/// in `configure` alone); with one shared list, 4,110 in release and debug runs,
/// plus 9.5 %.
const ALLOC_BUDGET_BYTES: u64 = 4_500;

#[test]
fn a_gromacs_simd_configuration_stays_inside_the_allocation_budget() {
    let project = gromacs::project();
    let assignment = OptionAssignment::new().with("GMX_SIMD", "AVX_512");
    let configured = || {
        let build = configure(&project, &assignment, "/xaas/build", None)
            .expect("the GROMACS configuration is valid");
        let commands = &build.compile_db.commands;
        // GROMACS adds no per-target or per-file flag: one list, classified once.
        let list = &commands[0].arguments;
        assert!(commands.iter().all(|c| Arc::ptr_eq(&c.arguments, list)));
        let flags = commands[0].flags();
        (build.translation_units(), flags.definitions.len())
    };
    let expected = configured();

    let (calls_before, bytes_before) = (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    let measured = configured();
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls_before;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before;
    assert_eq!(measured, expected);
    println!(
        "one GROMACS GMX_SIMD configuration and its flags: {calls} allocator calls, {bytes} bytes"
    );
    assert!(
        calls <= ALLOC_BUDGET_CALLS,
        "one GROMACS configuration made {calls} allocator calls (budget \
         {ALLOC_BUDGET_CALLS}): configure copies arguments per command again"
    );
    assert!(
        bytes <= ALLOC_BUDGET_BYTES,
        "one GROMACS configuration allocated {bytes} bytes (budget {ALLOC_BUDGET_BYTES})"
    );
}
