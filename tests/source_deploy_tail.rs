//! Budget guard for the warm source deployment.
//!
//! A warm llama.cpp source deployment on Ault23 hits the cache for every
//! `sd-compile` node and for its Link, whose output is the build layer's archive,
//! keyed on the objects' content digests. The Link's `run` — the one place that
//! reads the compiled objects back as `MachineModule`s to validate them — ran when
//! that archive was first built, so a warm deployment reads no object back: it
//! decodes no machine module and no layer entry, and its commit adopts the cached
//! archive, which its tag's memo then serves without writing or hashing the
//! config and manifest. This test keeps it so: the Link is a hit, the deployed
//! layer is never decoded, no blob is hashed, and bytes allocated per request
//! stay under a budget.
//!
//! The file holds a single test on purpose: the counting allocator is process-wide,
//! and a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xaas::engine::ActionKind;
use xaas::prelude::*;
use xaas::source_container::architecture_of;
use xaas_apps::llamacpp;
use xaas_hpcsim::SystemModel;

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
/// With the five objects read through a `Value` tree this deployment allocated
/// 233 KB per request (232,985 B); read straight into typed values, 141 KB
/// (140,878 B); later 112 KB (111,937 B). With blobs adopting their buffers, the
/// archive and JSON written at final size and normal paths kept as given, 90 KB
/// (90,126 B). With the Link a cache hit, so no object is read back, and its
/// archive adopted undecoded, 67 KB (66,483–66,611 B over six runs). With the
/// configured build borrowing its sources and option values and the preprocess
/// nodes the project's headers, 58 KB (59,428–59,904 B over eight release and debug runs).
/// With the compile commands sharing one borrowed argument list whose flags the
/// plan classifies once, and the preprocess nodes borrowing them, 46 KB
/// (47,118–47,594 B over eight release and debug runs). With the tag's memo
/// serving the re-commit, so no config or manifest is written, 41 KB
/// (41,582–41,866 B over five release and debug runs), plus 12.5 %.
const ALLOC_BUDGET_BYTES: u64 = 46 * 1024;

#[test]
fn warm_llamacpp_source_deployments_stay_inside_the_allocation_budget() {
    let project = llamacpp::project();
    let system = SystemModel::ault23();
    let orch = Orchestrator::builder().workers(1).build();
    let image = build_source_container(
        &project,
        architecture_of(&system),
        orch.store(),
        "llama.cpp:src",
    );
    let deploy = || {
        SourceDeployRequest::new(&project, &image, &system)
            .submit(&orch)
            .expect("the source deployment succeeds")
    };
    let cold = deploy();
    assert!(cold.trace.summary().executed > 0);
    // The first warm deployment re-commits the image the cold one tagged, which
    // is what makes the tag keep its memo.
    deploy();

    let digests_before = orch.store().stats().digests_computed;
    let bytes_before = ALLOC_BYTES.load(Ordering::Relaxed);
    for request in 0..REQUESTS {
        let warm = deploy();
        assert_eq!(
            warm.trace.summary().executed,
            0,
            "request {request} is warm"
        );
        let link = warm
            .trace
            .records
            .iter()
            .find(|r| r.kind == ActionKind::Link);
        assert!(
            link.is_some_and(|link| link.cached),
            "request {request}: the keyed Link is a hit, so no object is read back"
        );
        let deployed = warm.image.layers.last().expect("a deployed layer");
        assert!(
            !deployed.is_decoded(),
            "request {request}: a warm deployment decodes no layer entry"
        );
    }
    let per_request = (ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before) / REQUESTS;
    assert_eq!(
        orch.store().stats().digests_computed,
        digests_before,
        "a warm source deployment hashes no config, manifest or layer"
    );
    assert!(
        per_request <= ALLOC_BUDGET_BYTES,
        "a warm llama.cpp source deployment allocated {per_request} bytes per request \
         (budget {ALLOC_BUDGET_BYTES}): the deployment tail is reading or copying again"
    );
    println!("warm llama.cpp source deployment: {per_request} bytes allocated per request");
}
