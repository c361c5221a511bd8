//! Budget guard for the IR build driver.
//!
//! A warm IR build hits the cache for every `ir-lower` node, so what is left is the
//! driver's own bookkeeping around the nodes that must run: stage-A planning (one
//! preprocess node per distinct text), the stage-4 dedup identities of Figure 7, and
//! the Link that assembles the image and prints the configuration manifests. That
//! bookkeeping allocates once per *scheduled node*, not once per translation-unit
//! occurrence, and this test keeps it so: allocator calls and bytes of one warm
//! build stay under a budget.
//!
//! The file holds a single test on purpose: the counting allocator is process-wide,
//! and a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xaas::prelude::*;
use xaas_apps::gromacs;

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

/// Allocator calls of one warm build. With strings copied per translation-unit
/// occurrence in planning and stage 4, and the manifests printed through a `Value`
/// tree, it made 6,926; then 3,927, 3,737, and 3,593–3,605 with blobs adopting
/// their buffers and archives and JSON written at final size (3,467 later). With
/// each configuration borrowing its sources and option values from the project,
/// 3,141–3,155 over eight release and debug runs. With the Link keeping each
/// unit's bitcode undecoded, the annotation written without a `Value` tree and
/// each compile command borrowing its directory and target name, 2,312–2,323
/// over eleven release and debug runs. With each configuration's commands sharing
/// one argument list that stage 1 classifies once, and the planned preprocess and
/// `ir-lower` records borrowing its flags, 1,391–1,397 over eight release and
/// debug runs, plus 4.6 %.
const ALLOC_BUDGET_CALLS: u64 = 1_462;
/// Bytes requested by one warm build: 542,041, then 426,213 and 408,841; with
/// blobs adopting their buffers and archives and JSON written at final size,
/// 338,531–346,736 over five runs (which thread first grows its JSON buffer
/// varies). With each configuration borrowing its sources and option values from
/// the project, 294,072–300,500 over eight release and debug runs. With the Link
/// decoding no unit and the annotation written typed, 228,507–234,935 over
/// eleven release and debug runs. With one argument list per configuration,
/// classified once, 169,485–175,913 over eight release and debug runs, plus 9.8 %.
const ALLOC_BUDGET_BYTES: u64 = 193_200;

#[test]
fn a_warm_gromacs_simd_sweep_build_stays_inside_the_allocation_budget() {
    let project = gromacs::project();
    let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"]).with_values(
        "GMX_SIMD",
        &["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"],
    );
    let orch = Orchestrator::builder().workers(1).build();
    let build = || {
        IrBuildRequest::new(&project, &config)
            .submit(&orch)
            .expect("the GROMACS IR container builds")
    };
    let cold = build();
    assert!(cold.trace.summary().executed > 0);

    let (calls_before, bytes_before) = (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    let warm = build();
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls_before;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before;
    assert_eq!(warm.trace.summary().executed, 0, "every ir-lower node hits");
    assert_eq!(warm.image.layers, cold.image.layers);
    println!("warm GROMACS SIMD sweep build: {calls} allocator calls, {bytes} bytes");
    assert!(
        calls <= ALLOC_BUDGET_CALLS,
        "a warm GROMACS SIMD sweep build made {calls} allocator calls \
         (budget {ALLOC_BUDGET_CALLS}): the build driver allocates per unit occurrence again"
    );
    assert!(
        bytes <= ALLOC_BUDGET_BYTES,
        "a warm GROMACS SIMD sweep build allocated {bytes} bytes (budget {ALLOC_BUDGET_BYTES})"
    );
}
