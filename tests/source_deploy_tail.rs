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

use xaas::engine::ActionKind;
use xaas::prelude::*;
use xaas::source_container::architecture_of;
use xaas_apps::llamacpp;
use xaas_hpcsim::SystemModel;

mod common;

#[global_allocator]
static GLOBAL: common::CountingAllocator = common::CountingAllocator;

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
    let ((), _, bytes) = common::counted(|| {
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
    });
    let per_request = bytes / REQUESTS;
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
