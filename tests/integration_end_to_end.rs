//! End-to-end: the full XaaS story on one system — discovery, both container types,
//! deployment, execution model, and the performance claims of the evaluation section.

use xaas::prelude::*;
use xaas_apps::gromacs;
use xaas_buildsys::OptionAssignment;
use xaas_hpcsim::{BuildProfile, ExecutionEngine, LibraryQuality, SimdLevel, SystemModel};

/// Source container and IR container of the same application, deployed on the same
/// system, deliver equivalent performance — and both clearly beat the portable container.
#[test]
fn source_and_ir_deployments_agree_and_beat_portable_containers() {
    let project = gromacs::project();
    let store = ImageStore::new();
    let system = SystemModel::ault01_04();
    let workload = gromacs::workload_test_b(200);
    let engine = ExecutionEngine::new(&system);

    let orch = Orchestrator::uncached(&store);
    // Source-container path.
    let source_image = build_source_container(&project, Architecture::Amd64, &store, "e2e:src");
    let source_deployment = SourceDeployRequest::new(&project, &source_image, &system)
        .prefer("GMX_FFT_LIBRARY", "mkl")
        .submit(&orch)
        .unwrap();
    let source_time = engine
        .execute(&workload, &source_deployment.build_profile)
        .unwrap()
        .compute_seconds;

    // IR-container path, deployed at the same SIMD level with the same FFT choice.
    let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD", "GMX_FFT_LIBRARY"])
        .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"])
        .with_values("GMX_FFT_LIBRARY", &["fftw3", "mkl"]);
    let ir_build = IrBuildRequest::new(&project, &pipeline)
        .reference("e2e:ir")
        .submit(&orch)
        .unwrap();
    let ir_deployment = IrDeployRequest::new(&ir_build, &project, &system)
        .select("GMX_SIMD", "AVX_512")
        .select("GMX_FFT_LIBRARY", "mkl")
        .simd(SimdLevel::Avx512)
        .submit(&orch)
        .unwrap();
    let ir_time = engine
        .execute(&workload, &ir_deployment.build_profile)
        .unwrap()
        .compute_seconds;

    // Portable, performance-oblivious container (lowest common denominator).
    let portable = BuildProfile::new("portable", SimdLevel::Sse41, 36)
        .with_libraries(LibraryQuality::Generic, LibraryQuality::Generic)
        .with_container_overhead(1.01);
    let portable_time = engine
        .execute(&workload, &portable)
        .unwrap()
        .compute_seconds;

    let agreement = (source_time / ir_time - 1.0).abs();
    assert!(agreement < 0.05, "source {source_time} vs IR {ir_time}");
    assert!(
        portable_time / ir_time > 1.4,
        "specialization should win by >1.4x: {portable_time} vs {ir_time}"
    );
}

/// The combinatorial-explosion argument: a registry of specialized binary images needs
/// one image per configuration, while XaaS stores one source image and one IR image and
/// still serves every configuration.
#[test]
fn registry_stores_one_xaas_image_instead_of_one_per_configuration() {
    let project = gromacs::project();
    let store = ImageStore::new();
    let registry = Registry::new();

    // XaaS: one source container + one IR container.
    build_source_container(&project, Architecture::Amd64, &store, "spcl/gmx:src");
    registry.push(&store, "spcl/gmx:src").unwrap();
    let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD", "GMX_GPU"])
        .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"])
        .with_values("GMX_GPU", &["OFF", "CUDA"]);
    let ir_build = IrBuildRequest::new(&project, &pipeline)
        .reference("spcl/gmx:ir")
        .submit(&Orchestrator::uncached(&store))
        .unwrap();
    registry.push(&store, "spcl/gmx:ir").unwrap();
    assert_eq!(registry.tags_of("spcl/gmx").len(), 2);

    // The IR container alone serves all four configurations on the target system.
    let system = SystemModel::ault23();
    for (simd, gpu) in [
        ("SSE4.1", "OFF"),
        ("SSE4.1", "CUDA"),
        ("AVX_512", "OFF"),
        ("AVX_512", "CUDA"),
    ] {
        let selection = OptionAssignment::new()
            .with("GMX_SIMD", simd)
            .with("GMX_GPU", gpu);
        let level = SimdLevel::parse(simd).unwrap();
        let deployment = IrDeployRequest::new(&ir_build, &project, &system)
            .selection(selection)
            .simd(level)
            .submit(&Orchestrator::uncached(&store))
            .unwrap();
        assert!(store.load(&deployment.reference).is_ok());
    }
    // Four deployed images now exist locally, but the registry still holds only two.
    assert_eq!(registry.tags_of("spcl/gmx").len(), 2);
    assert!(store.references().len() >= 6);
}

/// The fleet specializer: concurrent specialization of duplicate-heavy request sets
/// never double-builds a `BuildKey` (every cache miss is a distinct key) and is
/// deterministic across runs — same requests, same outcomes, same cache totals.
#[test]
fn fleet_specializer_never_double_builds_and_is_deterministic() {
    let project = gromacs::project();
    let avx512 = OptionAssignment::new().with("GMX_SIMD", "AVX_512");
    let sse41 = OptionAssignment::new().with("GMX_SIMD", "SSE4.1");

    let run = || {
        let cache = ActionCache::new(ImageStore::new());
        let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"])
            .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"]);
        let build = IrBuildRequest::new(&project, &pipeline)
            .reference("fleet:e2e")
            .submit(&Orchestrator::with_cache(&cache))
            .unwrap();
        cache.reset_stats();
        let entries_before_fleet = cache.stats().entries;
        // 9 targets, heavy on duplicates: 3 distinct jobs, 2 of which share every
        // lowering key (same ISA on different systems).
        let mut targets = Vec::new();
        for _ in 0..3 {
            targets.push(FleetTarget::new(
                SystemModel::ault23(),
                avx512.clone(),
                SimdLevel::Avx512,
            ));
            targets.push(FleetTarget::new(
                SystemModel::ault01_04(),
                avx512.clone(),
                SimdLevel::Avx512,
            ));
            targets.push(FleetTarget::new(
                SystemModel::ault01_04(),
                sse41.clone(),
                SimdLevel::Sse41,
            ));
        }
        let report = FleetRequest::new(&build, &project).targets(targets).submit(
            &Orchestrator::builder()
                .action_cache(cache.clone())
                .workers(4)
                .build(),
        );
        assert!(report.all_succeeded());
        let new_entries = cache.stats().entries - entries_before_fleet;
        (report, cache.stats(), new_entries)
    };

    let (report_a, stats_a, new_entries_a) = run();
    let (report_b, stats_b, _) = run();

    // Duplicate requests collapse into 3 jobs.
    assert_eq!(report_a.jobs_executed, 3);
    assert_eq!(report_a.jobs_deduplicated, 6);
    // No BuildKey is ever built twice: every executed action created a distinct cache
    // entry (single-flight), even with 4 workers racing on the shared ISA.
    assert_eq!(
        stats_a.misses, new_entries_a as u64,
        "misses must equal distinct keys built: {stats_a:?}"
    );
    // The two AVX-512 systems share every lowering key, so the fleet executes exactly
    // one ISA's worth of actions per distinct ISA — not one per job.
    let actions_per_job = report_a.outcomes[0]
        .deployment
        .as_ref()
        .unwrap()
        .actions
        .total() as u64;
    assert_eq!(stats_a.misses, 2 * actions_per_job);

    // Deterministic across runs: same references in the same order, same cache totals
    // (the coalesced counter is scheduling-dependent and deliberately excluded).
    let references = |report: &FleetReport| -> Vec<String> {
        report
            .outcomes
            .iter()
            .map(|o| o.deployment.as_ref().unwrap().reference.clone())
            .collect()
    };
    assert_eq!(references(&report_a), references(&report_b));
    assert_eq!(stats_a.hits, stats_b.hits);
    assert_eq!(stats_a.misses, stats_b.misses);
    assert_eq!(stats_a.entries, stats_b.entries);
}

/// The deployment-time image is OCI-shaped: committed manifests resolve, layers are
/// content-addressed, and annotations carry the specialization metadata.
#[test]
fn deployed_images_are_oci_consistent() {
    let project = gromacs::project();
    let store = ImageStore::new();
    let system = SystemModel::ault23();
    let image = build_source_container(&project, Architecture::Amd64, &store, "oci:src");
    let deployment = SourceDeployRequest::new(&project, &image, &system)
        .submit(&Orchestrator::uncached(&store))
        .unwrap();

    let digest = store.resolve(&deployment.reference).unwrap();
    let manifest = store.manifest(&digest).unwrap();
    assert_eq!(manifest.layers.len(), deployment.image.layer_count());
    for layer in &manifest.layers {
        assert!(store.has_blob(&layer.digest));
    }
    let config = store.config(&manifest.config.digest).unwrap();
    assert_eq!(config.rootfs_diff_ids.len(), manifest.layers.len());
    assert_eq!(
        manifest
            .annotations
            .get(annotation_keys::TARGET_SYSTEM)
            .map(String::as_str),
        Some("Ault23")
    );
    assert!(manifest
        .annotations
        .contains_key(annotation_keys::SELECTED_CONFIGURATION));
}
