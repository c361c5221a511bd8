//! Budget guard for the warm deployment tail.
//!
//! A warm IR deployment hits the cache for every keyed node, its Link among them:
//! the Link's output is the deployed layer's archive, keyed on its artifacts'
//! content digests. What is left is the commit, which adopts that archive under
//! the digest the cache holds for it — decoding none of it — beside inherited
//! layers that are shared handles sealed once. Once the image's tag has been
//! re-committed, the store compares a commit with what the tag names and writes
//! and hashes nothing. This test keeps it so between benchmark runs: bytes
//! allocated per request stay under a budget, the Link is a hit, the deployed
//! layer is never decoded, and a commit hashes no blob.
//!
//! The file holds a single test on purpose: the counting allocator is process-wide,
//! and a second test running beside it would be counted too.

use xaas::engine::ActionKind;
use xaas::prelude::*;
use xaas_apps::gromacs;
use xaas_hpcsim::{SimdLevel, SystemModel};

mod common;

#[global_allocator]
static GLOBAL: common::CountingAllocator = common::CountingAllocator;

const REQUESTS: u64 = 16;
/// Before the tail was incremental this deployment allocated 493 KB (and hashed 7
/// blobs) per request; with it, 102 KB; with commit's config and manifest written
/// straight to JSON text instead of through a `Value` tree, 87 KB (86,808 B); with
/// the executor running the graph's own nodes, one cell each, 84 KB (83,579 B);
/// later 77 KB (77,415 B). With blobs adopting their buffers, the archive and JSON
/// written at final size and normal paths kept as given, 49 KB (48,983–49,495 B
/// over five runs: which thread first grows its JSON buffer varies). With the Link
/// a cache hit whose archive the commit adopts undecoded, and the config and
/// manifest written from borrowed views, 34 KB (33,766 B over five runs). With the
/// preprocess nodes including from the project's own headers instead of a copy
/// made per plan, 32 KB (32,377–33,187 B over eight release and debug runs).
/// With a re-commit compared against its tag's memo instead of rewritten, 26 KB
/// (26,251–26,677 B over five release and debug runs), plus 11.3 %.
const ALLOC_BUDGET_BYTES: u64 = 29 * 1024;
/// What one warm single-system deployment may hash: nothing. Its new layer comes
/// out of the cache with the digest the cache holds for it, and the commit
/// is a re-commit of the image its tag names, which the store's memo serves.
const DIGESTS_PER_DEPLOYMENT: u64 = 0;

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
    assert!(cold.trace.summary().executed > 0);
    // The first warm deployment re-commits the image the cold one tagged, which
    // is what makes the tag keep its memo.
    deploy();

    let digests_before = orch.store().stats().digests_computed;
    let ((), _, bytes) = common::counted(|| {
        for request in 0..REQUESTS {
            let hashed_before = orch.store().stats().digests_computed;
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
                "request {request}: the keyed Link is a hit"
            );
            let deployed = warm.image.layers.last().expect("a deployed layer");
            assert!(
                !deployed.is_decoded(),
                "request {request}: a warm deployment decodes no layer entry"
            );
            assert_eq!(
                orch.store().stats().digests_computed - hashed_before,
                DIGESTS_PER_DEPLOYMENT,
                "request {request}: a warm deployment hashes no config, manifest or layer"
            );
        }
    });
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
