//! A key covers what its output records: the order of the `-D` definitions.
//!
//! An IR unit's metadata records the unit's definitions in the order they were
//! given, and the bitcode encodes that order, so two builds whose definitions
//! differ only in order produce different units. The `ir-lower` key must tell
//! them apart; a key that sorted the definitions let a build over a shared cache
//! get the unit another build had put there first, and its image was then
//! neither build's cold image. Each test here builds over a cache that holds
//! another order and compares the result with the same build on a fresh
//! orchestrator.

use proptest::prelude::*;
use xaas::prelude::*;
use xaas::source_container::architecture_of;
use xaas_apps::lulesh;
use xaas_buildsys::ProjectSpec;
use xaas_container::Digest;
use xaas_hpcsim::SystemModel;

/// LULESH with `definitions` appended to its global flags. LULESH's sources
/// observe none of them, so they leave every preprocessed text unchanged.
fn lulesh_with(definitions: &[&str]) -> ProjectSpec {
    let mut project = lulesh::project();
    project
        .global_flags
        .extend(definitions.iter().map(|d| d.to_string()));
    project
}

fn orchestrator() -> Orchestrator {
    Orchestrator::builder().workers(1).build()
}

/// The manifest digest of `project`'s IR container, swept over `WITH_OPENMP`
/// and built on `orch`.
fn ir_image(orch: &Orchestrator, project: &ProjectSpec) -> Digest {
    let config = IrPipelineConfig::sweep_options(project, &["WITH_OPENMP"]);
    let build = IrBuildRequest::new(project, &config)
        .submit(orch)
        .expect("the LULESH IR container builds");
    orch.store().resolve(&build.reference).unwrap()
}

/// The manifest digest of `project`'s source deployment on Ault23, built and
/// deployed on `orch`.
fn source_image(orch: &Orchestrator, project: &ProjectSpec) -> Digest {
    let system = SystemModel::ault23();
    let reference = format!("{}:src", project.name);
    let image = build_source_container(project, architecture_of(&system), orch.store(), &reference);
    let deployment = SourceDeployRequest::new(project, &image, &system)
        .submit(orch)
        .expect("the LULESH source deployment succeeds");
    orch.store().resolve(&deployment.reference).unwrap()
}

/// The repro: `-DXAAS_A=1 -DXAAS_B=2`, then the two swapped, over one cache.
/// With the definitions keyed sorted, every `ir-lower` of the second build hit
/// the first build's units.
#[test]
fn an_ir_build_over_a_cache_holding_the_swapped_definitions_equals_its_cold_build() {
    let given = lulesh_with(&["-DXAAS_A=1", "-DXAAS_B=2"]);
    let swapped = lulesh_with(&["-DXAAS_B=2", "-DXAAS_A=1"]);
    let shared = orchestrator();
    let first = ir_image(&shared, &given);
    let second = ir_image(&shared, &swapped);
    assert_eq!(second, ir_image(&orchestrator(), &swapped));
    assert_ne!(
        first, second,
        "the units record the order of the definitions"
    );
    // Control: a build whose definitions differ in more than order.
    let other = lulesh_with(&["-DXAAS_A=1", "-DXAAS_C=2"]);
    assert_eq!(ir_image(&shared, &other), ir_image(&orchestrator(), &other));
}

/// The source route's twin: a machine module records no definitions, so its
/// image never depended on the order, and a shared cache serves it as cold.
#[test]
fn a_source_deployment_over_a_cache_holding_the_swapped_definitions_equals_its_cold_one() {
    let given = lulesh_with(&["-DXAAS_A=1", "-DXAAS_B=2"]);
    let swapped = lulesh_with(&["-DXAAS_B=2", "-DXAAS_A=1"]);
    let shared = orchestrator();
    let first = source_image(&shared, &given);
    let second = source_image(&shared, &swapped);
    assert_eq!(second, source_image(&orchestrator(), &swapped));
    assert_eq!(first, second);
}

/// Definitions a case draws from: names LULESH does not observe, one of them
/// given twice with two values.
const DEFINITIONS: [&str; 4] = ["-DXAAS_A=1", "-DXAAS_B=2", "-DXAAS_A=3", "-DXAAS_C"];

/// `count` definitions drawn from [`DEFINITIONS`] by `picks`, repeats allowed.
fn drawn(mut picks: u64, count: usize) -> Vec<&'static str> {
    (0..count)
        .map(|_| {
            let pick = DEFINITIONS[(picks % 4) as usize];
            picks /= 4;
            pick
        })
        .collect()
}

/// `list` in the order of a permutation drawn by `seed` (a Fisher–Yates shuffle).
fn permuted<'a>(list: &[&'a str], mut seed: u64) -> Vec<&'a str> {
    let mut list = list.to_vec();
    for i in (1..list.len()).rev() {
        list.swap(i, (seed % (i as u64 + 1)) as usize);
        seed /= i as u64 + 1;
    }
    list
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every build over a cache that holds another permutation of its
    /// definition list is its cold build.
    #[test]
    fn a_build_over_a_cache_holding_a_permutation_equals_its_cold_build(
        picks in any::<u64>(),
        count in 2usize..5,
        first_seed in any::<u64>(),
        second_seed in any::<u64>(),
    ) {
        let list = drawn(picks, count);
        let first = lulesh_with(&permuted(&list, first_seed));
        let second = lulesh_with(&permuted(&list, second_seed));
        let shared = orchestrator();
        let first_image = ir_image(&shared, &first);
        prop_assert_eq!(ir_image(&shared, &second), ir_image(&orchestrator(), &second));
        prop_assert_eq!(ir_image(&shared, &first), first_image);
    }
}
