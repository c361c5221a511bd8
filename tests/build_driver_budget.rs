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

use xaas::prelude::*;
use xaas_apps::gromacs;

mod common;

#[global_allocator]
static GLOBAL: common::CountingAllocator = common::CountingAllocator;

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

    let (warm, calls, bytes) = common::counted(build);
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
