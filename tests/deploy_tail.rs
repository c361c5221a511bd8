//! Budget guard for the warm deployment tail.
//!
//! A warm IR deployment hits the cache for every keyed node, so what is left is the
//! unkeyed tail: Link assembles the image and Commit publishes it. That tail is
//! incremental — inherited layers are shared handles that were sealed once, Link
//! ships artifact blobs without decoding them — and this test keeps it so between
//! benchmark runs: bytes allocated per request stay under a budget, and a commit
//! hashes exactly the one new layer, the config and the manifest.
//!
//! The file holds a single test on purpose: the counting allocator is process-wide,
//! and a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xaas::prelude::*;
use xaas_apps::gromacs;
use xaas_hpcsim::{SimdLevel, SystemModel};

/// The system allocator with a relaxed byte counter in front of it. The counter
/// publishes no other data, so `Relaxed` is enough.
struct CountingAllocator;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments unchanged,
// so `System`'s guarantees are this allocator's; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Only growth is new memory asked of the system.
        ALLOC_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr`/`layout` describe a live `System` block; the caller upholds
        // `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const REQUESTS: u64 = 16;
/// Before the tail was incremental this deployment allocated 493 KB (and hashed 7
/// blobs) per request; with it, 104 KB.
const ALLOC_BUDGET_BYTES: u64 = 200 * 1024;
/// What one single-system deployment may hash: its new layer, config and manifest.
const DIGESTS_PER_DEPLOYMENT: u64 = 3;

#[test]
fn warm_gromacs_deployments_stay_inside_the_allocation_and_hash_budget() {
    let project = gromacs::project();
    let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"]).with_values(
        "GMX_SIMD",
        &["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"],
    );
    // The IR container comes from somewhere else (CI), as in production: the
    // deploying orchestrator has never seen its layers.
    let build = IrBuildRequest::new(&project, &config)
        .submit(&Orchestrator::new())
        .expect("the GROMACS IR container builds");
    let orch = Orchestrator::builder().workers(1).build();
    let system = SystemModel::ault23();
    let deploy = || {
        IrDeployRequest::new(&build, &project, &system)
            .select("GMX_SIMD", "AVX_512")
            .simd(SimdLevel::Avx512)
            .submit(&orch)
            .expect("the deployment succeeds")
    };
    let cold = deploy();
    assert!(cold.actions.executed > 0);

    let digests_before = orch.store().stats().digests_computed;
    let bytes_before = ALLOC_BYTES.load(Ordering::Relaxed);
    for request in 0..REQUESTS {
        let hashed_before = orch.store().stats().digests_computed;
        let warm = deploy();
        assert_eq!(warm.actions.executed, 0, "request {request} is warm");
        assert_eq!(
            orch.store().stats().digests_computed - hashed_before,
            DIGESTS_PER_DEPLOYMENT,
            "request {request}: a warm deployment hashes its one new layer, the config \
             and the manifest — never an inherited layer"
        );
    }
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before;
    assert_eq!(
        orch.store().stats().digests_computed - digests_before,
        DIGESTS_PER_DEPLOYMENT * REQUESTS
    );
    let per_request = bytes / REQUESTS;
    assert!(
        per_request <= ALLOC_BUDGET_BYTES,
        "a warm GROMACS deployment allocated {per_request} bytes per request \
         (budget {ALLOC_BUDGET_BYTES}): the deployment tail is copying or re-serialising again"
    );
    println!("warm GROMACS deployment: {per_request} bytes allocated per request");
}
