//! Integration: IR containers — pipeline, deployment, hypotheses, and image structure
//! — all through the `Orchestrator` session API.

use xaas::prelude::*;
use xaas_apps::{gromacs, lulesh};
use xaas_buildsys::OptionAssignment;
use xaas_hpcsim::{ExecutionEngine, SimdLevel, SystemModel};

/// Build one IR container with a two-dimensional sweep and deploy it to every x86 system
/// plus the ARM system at their best vectorization level.
#[test]
fn one_ir_container_deploys_to_every_system() {
    let project = gromacs::project();
    let store = ImageStore::new();
    let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD", "GMX_GPU"])
        .with_values(
            "GMX_SIMD",
            &["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"],
        )
        .with_values("GMX_GPU", &["OFF", "CUDA"]);
    let orch = Orchestrator::uncached(&store);
    let build = IrBuildRequest::new(&project, &pipeline)
        .reference("spcl/mini-gromacs:ir")
        .submit(&orch)
        .unwrap();
    assert!(hypothesis1(&build.stats).holds);

    for system in SystemModel::all_evaluation_systems() {
        let simd = system.cpu.best_simd();
        let gpu = if system.has_gpu_backend(xaas_hpcsim::GpuBackend::Cuda) {
            "CUDA"
        } else {
            "OFF"
        };
        // Pick a swept SIMD value supported by this system (the IR itself is shared).
        let simd_value = if system.cpu.supports(SimdLevel::Avx512) {
            "AVX_512"
        } else if system.cpu.supports(SimdLevel::Avx2_256) {
            "AVX2_256"
        } else {
            "ARM_NEON_ASIMD"
        };
        let selection = OptionAssignment::new()
            .with("GMX_SIMD", simd_value)
            .with("GMX_GPU", gpu);
        let deployment = IrDeployRequest::new(&build, &project, &system)
            .selection(selection)
            .simd(simd)
            .submit(&orch)
            .unwrap_or_else(|e| panic!("{}: {e}", system.name));
        assert!(
            deployment.lowered().unwrap().stats.lowered_units > 0,
            "{}",
            system.name
        );
        assert!(store.load(&deployment.reference).is_ok());
        let engine = ExecutionEngine::new(&system);
        let report = engine
            .execute(&gromacs::workload_test_a(200), &deployment.build_profile)
            .unwrap();
        assert!(report.compute_seconds > 0.0);
    }
}

/// The IR container is strictly smaller than the union of per-configuration containers
/// would be: layer content scales with unique IR files, not with ΣTᵢ.
#[test]
fn ir_dedup_reduces_stored_bitcode_volume() {
    let project = gromacs::project();
    let store = ImageStore::new();
    let full_sweep = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"]).with_values(
        "GMX_SIMD",
        &["SSE4.1", "AVX2_128", "AVX_256", "AVX2_256", "AVX_512"],
    );
    let orch = Orchestrator::uncached(&store);
    let deduplicated = IrBuildRequest::new(&project, &full_sweep)
        .reference("dedup:ir")
        .submit(&orch)
        .unwrap();

    let mut no_sharing = full_sweep.clone();
    no_sharing.stages.vectorization_delay = false;
    no_sharing.stages.openmp_detection = false;
    let unshared = IrBuildRequest::new(&project, &no_sharing)
        .reference("unshared:ir")
        .submit(&orch)
        .unwrap();

    assert!(deduplicated.stats.ir_files_built() < unshared.stats.ir_files_built());
    assert!(deduplicated.image.size_bytes() < unshared.image.size_bytes());
    // Both still describe the same set of configurations.
    assert_eq!(deduplicated.manifests.len(), unshared.manifests.len());
}

/// Every manifest of an IR container references only artifacts that exist, and every IR
/// unit is referenced by at least one configuration (no dead blobs).
#[test]
fn manifests_and_units_are_mutually_consistent() {
    let project = gromacs::project();
    let store = ImageStore::new();
    let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_GPU", "GMX_FFT_LIBRARY"]);
    let build = IrBuildRequest::new(&project, &pipeline)
        .reference("consistency:ir")
        .submit(&Orchestrator::uncached(&store))
        .unwrap();

    let mut referenced = std::collections::BTreeSet::new();
    for manifest in &build.manifests {
        for unit in &manifest.units {
            if let Some(id) = unit.artifact.strip_prefix("ir:") {
                assert!(build.units.contains_key(id), "{} missing", id);
                referenced.insert(id.to_string());
            } else {
                assert!(unit.artifact.starts_with("src:"));
            }
        }
    }
    for id in build.units.keys() {
        assert!(referenced.contains(id), "unit {id} is never referenced");
    }
}

/// The LULESH example of Section 4.3: 2 specialization points → 4 configurations, and the
/// pipeline reduces 20 translation units to fewer IR files, with OpenMP detection
/// accounting for part of the reduction.
#[test]
fn lulesh_section_4_3_walkthrough() {
    let project = lulesh::project();
    let store = ImageStore::new();
    let pipeline = IrPipelineConfig::sweep_options(&project, &["WITH_MPI", "WITH_OPENMP"]);
    let orch = Orchestrator::uncached(&store);
    let build = IrBuildRequest::new(&project, &pipeline)
        .reference("lulesh:ir")
        .submit(&orch)
        .unwrap();
    assert_eq!(build.stats.configurations, 4);
    assert_eq!(build.stats.total_translation_units, 20);
    assert!(build.stats.unique_after_preprocessing < build.stats.unique_after_generation);
    assert!(build.stats.unique_after_openmp < build.stats.unique_after_preprocessing);
    assert_eq!(build.stats.ir_files_built(), 8);

    // Deploy the MPI+OpenMP configuration and check the comm path selected USE_MPI.
    let selection = OptionAssignment::new()
        .with("WITH_MPI", "ON")
        .with("WITH_OPENMP", "ON");
    let deployment = IrDeployRequest::new(&build, &project, &SystemModel::ault01_04())
        .selection(selection)
        .simd(SimdLevel::Avx512)
        .submit(&orch)
        .unwrap();
    let lowered = deployment.lowered().unwrap();
    assert!(lowered.machine_modules.contains_key("src/lulesh_comm.ck"));
    assert_eq!(lowered.stats.lowered_units, 5);
}
