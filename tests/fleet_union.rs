//! Union fleet graphs: one `ActionGraph` per fleet wave.
//!
//! These tests pin the acceptance criteria of the union-graph fleet wave:
//! byte-identity with sequential per-job submissions (images, per-job traces,
//! dedup counts, cache hit/miss deltas — property-tested over random fleets),
//! exactly one engine submission per wave with cross-job shared `BuildKey`s
//! executed once, per-job failure isolation with the failing action named, and
//! the per-job partition of the merged wave trace.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xaas::engine::ActionKind;
use xaas::prelude::*;
use xaas_buildsys::{
    BuildOption, OptionAssignment, OptionCategory, OptionEffects, ProjectSpec, SourceSpec,
    TargetKind, TargetSpec,
};
use xaas_container::{ActionCache, ImageStore};
use xaas_hpcsim::{SimdLevel, SystemModel};

/// The four paper systems, used as the random-fleet universe.
fn systems() -> [SystemModel; 4] {
    [
        SystemModel::ault23(),
        SystemModel::ault25(),
        SystemModel::ault01_04(),
        SystemModel::clariden(),
    ]
}

/// A fleet session over `cache`.
fn session(cache: &ActionCache, workers: usize) -> Orchestrator {
    Orchestrator::builder()
        .action_cache(cache.clone())
        .workers(workers)
        .build()
}

/// The reference the union wave is compared against: one single-target
/// [`FleetRequest`] per distinct target, submitted in job order, folded into
/// one report shaped like the wave's (duplicates share their job's outcome,
/// counters and traces accumulate across the submissions).
fn submit_per_job(
    build: &IrContainerBuild,
    project: &ProjectSpec,
    orch: &Orchestrator,
    targets: &[FleetTarget],
) -> FleetReport {
    let mut sequential = FleetReport {
        outcomes: Vec::new(),
        jobs_executed: 0,
        jobs_deduplicated: 0,
        workers: orch.workers(),
        cache: Default::default(),
        submissions: 0,
        trace: Default::default(),
    };
    let mut outcome_by_job_key: BTreeMap<String, FleetOutcome> = BTreeMap::new();
    for target in targets {
        let job_key = target.job_key();
        if let Some(outcome) = outcome_by_job_key.get(&job_key) {
            sequential.jobs_deduplicated += 1;
            sequential.outcomes.push(FleetOutcome {
                deduplicated: true,
                ..outcome.clone()
            });
            continue;
        }
        let mut report = FleetRequest::new(build, project)
            .target(target.clone())
            .submit(orch);
        let outcome = report.outcomes.remove(0);
        outcome_by_job_key.insert(job_key, outcome.clone());
        sequential.outcomes.push(outcome);
        sequential.jobs_executed += 1;
        sequential.submissions += report.submissions;
        sequential.cache.hits += report.cache.hits;
        sequential.cache.misses += report.cache.misses;
        sequential.cache.entries = report.cache.entries;
        sequential.trace.merge(report.trace);
    }
    sequential
}

/// Submit the same targets as one union wave and as per-job submissions, each
/// over its own fresh cache (sharing the IR build's store so images land in one
/// place), and return the two reports.
fn run_both(
    build: &IrContainerBuild,
    project: &ProjectSpec,
    store: &ImageStore,
    targets: &[FleetTarget],
    workers: usize,
) -> (FleetReport, FleetReport) {
    let union = FleetRequest::new(build, project)
        .targets(targets.iter().cloned())
        .submit(&session(&ActionCache::new(store.clone()), workers));
    let sequential = submit_per_job(
        build,
        project,
        &session(&ActionCache::new(store.clone()), workers),
        targets,
    );
    (union, sequential)
}

/// Assert the two reports are observably identical up to scheduling: same
/// per-target images, per-job traces, dedup counts, and cache hit/miss deltas.
fn assert_strategy_equivalence(union: &FleetReport, sequential: &FleetReport) {
    assert_eq!(union.jobs_executed, sequential.jobs_executed);
    assert_eq!(union.jobs_deduplicated, sequential.jobs_deduplicated);
    // One engine submission per wave vs one per distinct job.
    assert_eq!(union.submissions, 1);
    assert_eq!(sequential.submissions, sequential.jobs_executed);
    // Identical cache deltas: the union's cache-probe aliases replay exactly the
    // hits the sequential per-job submissions observe.
    assert_eq!(union.cache.hits, sequential.cache.hits);
    assert_eq!(union.cache.misses, sequential.cache.misses);
    assert_eq!(union.cache.entries, sequential.cache.entries);
    // The union wave never runs more actions than the sequential submissions,
    // and one wave imposes fewer serial stages than per-job scheduling barriers
    // (the merged sequential trace sums the per-job depths).
    assert!(union.trace.len() <= sequential.trace.len());
    if union.jobs_executed > 1 {
        assert!(union.trace.stage_depth < sequential.trace.stage_depth);
    }
    assert_eq!(union.outcomes.len(), sequential.outcomes.len());
    for (u, s) in union.outcomes.iter().zip(&sequential.outcomes) {
        assert_eq!(u.system, s.system);
        assert_eq!(u.deduplicated, s.deduplicated);
        let u = u.deployment.as_ref().expect("union target succeeded");
        let s = s.deployment.as_ref().expect("sequential target succeeded");
        // Byte-identical images and artifacts per target.
        assert_eq!(u.reference, s.reference);
        assert_eq!(u.image.layers, s.image.layers);
        let (u_lowered, s_lowered) = (u.lowered().unwrap(), s.lowered().unwrap());
        assert_eq!(u_lowered.machine_modules, s_lowered.machine_modules);
        assert_eq!(u_lowered.stats, s_lowered.stats);
        // Per-job traces are equal traces: same records (identities and cached
        // flags), same stage depth, same policy.
        assert_eq!(u.trace, s.trace);
        assert_eq!(u.actions, s.actions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random fleets over the GROMACS SIMD sweep, the union-graph wave and
    /// sequential per-job submissions produce byte-identical images per target,
    /// identical dedup counts, and identical cache hit/miss deltas.
    #[test]
    fn union_and_sequential_strategies_match_on_random_gromacs_fleets(
        picks in proptest::collection::vec(0usize..4, 1..7),
        workers in 1usize..5,
    ) {
        let project = xaas_apps::gromacs::project();
        let store = ImageStore::new();
        let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"]).with_values(
            "GMX_SIMD",
            &["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"],
        );
        let build = IrBuildRequest::new(&project, &pipeline)
            .reference("union:gmx")
            .submit(&Orchestrator::uncached(&store))
            .unwrap();
        let universe = systems();
        let targets: Vec<FleetTarget> = picks
            .iter()
            .map(|&index| {
                let system = universe[index].clone();
                let simd = system.cpu.best_simd();
                FleetTarget::new(
                    system,
                    OptionAssignment::new().with("GMX_SIMD", simd.gmx_name()),
                    simd,
                )
            })
            .collect();
        let (union, sequential) = run_both(&build, &project, &store, &targets, workers);
        prop_assert!(union.all_succeeded());
        assert_strategy_equivalence(&union, &sequential);
    }

    /// The same equivalence over random fleets of the LULESH MPI × OpenMP sweep,
    /// whose deployments mix machine-lower and sd-compile actions (MPI files ship
    /// as source), exercising the derived-key sd-compile path across jobs.
    #[test]
    fn union_and_sequential_strategies_match_on_random_lulesh_fleets(
        picks in proptest::collection::vec(0usize..4, 1..6),
        flags in proptest::collection::vec(any::<bool>(), 12),
        workers in 1usize..5,
    ) {
        let project = xaas_apps::lulesh::project();
        let store = ImageStore::new();
        let pipeline =
            IrPipelineConfig::sweep_options(&project, &["WITH_MPI", "WITH_OPENMP"]);
        let build = IrBuildRequest::new(&project, &pipeline)
            .reference("union:lulesh")
            .submit(&Orchestrator::uncached(&store))
            .unwrap();
        let universe = systems();
        let flag = |on: bool| if on { "ON" } else { "OFF" };
        let targets: Vec<FleetTarget> = picks
            .iter()
            .enumerate()
            .map(|(slot, &index)| {
                let system = universe[index].clone();
                FleetTarget::best_for(
                    system,
                    OptionAssignment::new()
                        .with("WITH_MPI", flag(flags[2 * slot]))
                        .with("WITH_OPENMP", flag(flags[2 * slot + 1])),
                )
            })
            .collect();
        let (union, sequential) = run_both(&build, &project, &store, &targets, workers);
        prop_assert!(union.all_succeeded());
        assert_strategy_equivalence(&union, &sequential);
    }
}

/// Cross-job shared `BuildKey`s execute once per wave: two systems with the same
/// ISA contribute one compute node per lowered unit, the second job's nodes are
/// cache-probe aliases (hits), and the whole wave is one engine submission.
#[test]
fn shared_keys_execute_once_per_wave_in_one_submission() {
    let project = xaas_apps::gromacs::project();
    let cache = ActionCache::new(ImageStore::new());
    let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"])
        .with_values("GMX_SIMD", &["AVX_512"]);
    let build = IrBuildRequest::new(&project, &pipeline)
        .reference("union:shared")
        .submit(&Orchestrator::with_cache(&cache))
        .unwrap();
    cache.reset_stats();
    let selection = OptionAssignment::new().with("GMX_SIMD", "AVX_512");
    let report = FleetRequest::new(&build, &project)
        .target(FleetTarget::new(
            SystemModel::ault23(),
            selection.clone(),
            SimdLevel::Avx512,
        ))
        .target(FleetTarget::new(
            SystemModel::ault01_04(),
            selection,
            SimdLevel::Avx512,
        ))
        .submit(&session(&cache, 4));
    assert!(report.all_succeeded());
    assert_eq!(report.submissions, 1, "one engine submission per wave");
    assert_eq!(report.jobs_executed, 2);
    let first = report.outcomes[0].deployment.as_ref().unwrap();
    let second = report.outcomes[1].deployment.as_ref().unwrap();
    // Same ISA: every keyed action of the second job is served by the first
    // job's compute node — executed once, observed as hits.
    assert_eq!(report.cache.misses, first.actions.total() as u64);
    assert_eq!(second.actions.executed, 0);
    assert_eq!(second.actions.cached, first.actions.total());
    assert_eq!(report.cache.hits, second.actions.cached as u64);
}

/// A one-source project with a syntactically broken MPI-tagged source: the IR
/// build succeeds (system-dependent files ship as source), and any deployment
/// selecting `WITH_MPI=ON` fails its `sd-compile` at specialization time.
fn poisoned_mpi_project() -> ProjectSpec {
    let mpi_on = OptionEffects {
        definitions: vec!["-DWITH_MPI".into()],
        enables_tags: vec!["mpi".into()],
        ..Default::default()
    };
    let sources = vec![
        SourceSpec::new(
            "src/ok.ck",
            "kernel void zero(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = 0.0; } }",
        ),
        SourceSpec::new("src/mpi_bad.ck", "kernel void broken(float* x { this is not ck }")
            .with_tag("mpi"),
    ];
    let paths = vec!["src/ok.ck".into(), "src/mpi_bad.ck".into()];
    ProjectSpec {
        name: "poisoned".into(),
        version: "1.0".into(),
        build_script: "project(poisoned)\n".into(),
        options: vec![BuildOption::boolean(
            "WITH_MPI",
            "MPI halo exchange",
            OptionCategory::Parallelism,
            false,
            mpi_on,
        )],
        sources,
        headers: BTreeMap::new(),
        targets: vec![TargetSpec::new("poisoned", TargetKind::Executable, paths)],
        custom_targets: Vec::new(),
        global_flags: vec!["-O2".into()],
        mpi_abi: Some("mpich".into()),
    }
}

/// Failure isolation inside one union wave: a job whose `sd-compile` fails (a
/// poisoned compile) fails alone, with the failing action named in its
/// `FleetError`; every other job's deployment is delivered with a complete
/// per-job trace (no unrelated node was skipped).
#[test]
fn poisoned_compile_fails_only_its_job_and_names_the_action() {
    let project = poisoned_mpi_project();
    let cache = ActionCache::new(ImageStore::new());
    let pipeline = IrPipelineConfig::sweep_options(&project, &["WITH_MPI"]);
    let build = IrBuildRequest::new(&project, &pipeline)
        .reference("union:poisoned")
        .submit(&Orchestrator::with_cache(&cache))
        .unwrap();
    let report = FleetRequest::new(&build, &project)
        .target(FleetTarget::best_for(
            SystemModel::ault23(),
            OptionAssignment::new().with("WITH_MPI", "OFF"),
        ))
        .target(FleetTarget::best_for(
            SystemModel::ault23(),
            OptionAssignment::new().with("WITH_MPI", "ON"),
        ))
        .target(FleetTarget::best_for(
            SystemModel::ault25(),
            OptionAssignment::new().with("WITH_MPI", "OFF"),
        ))
        .submit(&session(&cache, 4));
    assert_eq!(report.submissions, 1);
    assert!(!report.all_succeeded());

    // The poisoned job names its failing sd-compile action.
    let error = report.outcomes[1].deployment.as_ref().unwrap_err();
    assert_eq!(error.system, "Ault23");
    assert_eq!(error.action.as_deref(), Some("src/mpi_bad.ck"));
    assert!(error.message.contains("src/mpi_bad.ck"), "{error}");
    assert!(error.to_string().contains("action `src/mpi_bad.ck`"));

    // Every other job delivered, with a complete trace (preprocessing through
    // commit — nothing unrelated was skipped by the failing job).
    for index in [0usize, 2] {
        let deployment = report.outcomes[index]
            .deployment
            .as_ref()
            .unwrap_or_else(|e| panic!("job {index} must survive the wave: {e}"));
        let kinds = deployment.trace.by_kind();
        assert!(kinds[&ActionKind::MachineLower] > 0);
        assert_eq!(kinds[&ActionKind::Link], 1);
        assert_eq!(kinds[&ActionKind::Commit], 1);
        assert!(cache.store().load(&deployment.reference).is_ok());
    }

    // The job submitted on its own attributes the same engine failure
    // identically: the error shape does not depend on the wave around it.
    let alone = FleetRequest::new(&build, &project)
        .target(FleetTarget::best_for(
            SystemModel::ault23(),
            OptionAssignment::new().with("WITH_MPI", "ON"),
        ))
        .submit(&session(&cache, 4));
    let error = alone.outcomes[0].deployment.as_ref().unwrap_err();
    assert_eq!(error.action.as_deref(), Some("src/mpi_bad.ck"));
    assert!(error.message.contains("src/mpi_bad.ck"), "{error}");
}

/// Plan-time failures — a manifest referencing a source the project does not
/// provide (the deploy-side unknown-source shape) and an unsupported SIMD level —
/// also stay per-job: they claim no graph nodes and every other job delivers.
#[test]
fn plan_time_failures_are_isolated_and_carry_no_action() {
    let project = xaas_apps::gromacs::project();
    let cache = ActionCache::new(ImageStore::new());
    let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"])
        .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"]);
    let mut build = IrBuildRequest::new(&project, &pipeline)
        .reference("union:plan-failures")
        .submit(&Orchestrator::with_cache(&cache))
        .unwrap();
    // Doctor one configuration's manifest to reference a source that does not
    // exist: only jobs selecting that configuration fail.
    let doctored = build
        .manifests
        .iter()
        .position(|m| m.label.contains("SSE4.1"))
        .expect("SSE4.1 manifest");
    build.manifests[doctored].units[0].artifact = "src:ghost.ck".into();

    let report = FleetRequest::new(&build, &project)
        .target(FleetTarget::new(
            SystemModel::ault01_04(),
            OptionAssignment::new().with("GMX_SIMD", "SSE4.1"),
            SimdLevel::Sse41,
        ))
        .target(FleetTarget::new(
            SystemModel::ault25(), // EPYC 7742: no AVX-512 — an UnsupportedSimd plan failure
            OptionAssignment::new().with("GMX_SIMD", "AVX_512"),
            SimdLevel::Avx512,
        ))
        .target(FleetTarget::new(
            SystemModel::ault23(),
            OptionAssignment::new().with("GMX_SIMD", "AVX_512"),
            SimdLevel::Avx512,
        ))
        .submit(&session(&cache, 3));
    assert!(!report.all_succeeded());
    let ghost = report.outcomes[0].deployment.as_ref().unwrap_err();
    assert!(ghost.message.contains("ghost.ck"), "{ghost}");
    assert_eq!(ghost.action, None, "plan-time failures name no action");
    let simd = report.outcomes[1].deployment.as_ref().unwrap_err();
    assert!(simd.message.contains("not supported"), "{simd}");
    // The healthy job delivered despite two failing jobs in the same wave.
    let healthy = report.outcomes[2].deployment.as_ref().unwrap();
    assert!(healthy.lowered().unwrap().stats.lowered_units > 0);
    assert_eq!(report.submissions, 1);

    // A wave whose every job fails at plan time grafts no node and never
    // reaches the engine.
    let unplanned = FleetRequest::new(&build, &project)
        .target(FleetTarget::new(
            SystemModel::ault25(),
            OptionAssignment::new().with("GMX_SIMD", "AVX_512"),
            SimdLevel::Avx512,
        ))
        .submit(&session(&cache, 3));
    assert!(!unplanned.all_succeeded());
    assert_eq!(unplanned.jobs_executed, 1);
    assert_eq!(
        unplanned.submissions, 0,
        "plan-time failures never reach the engine"
    );
}

/// The per-job traces partition the merged wave trace: per-kind counts sum to
/// the union trace, and every record carries its job tag.
#[test]
fn wave_trace_partitions_per_job() {
    let project = xaas_apps::gromacs::project();
    let store = ImageStore::new();
    let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD", "GMX_MPI"])
        .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"]);
    let build = IrBuildRequest::new(&project, &pipeline)
        .reference("union:partition")
        .submit(&Orchestrator::uncached(&store))
        .unwrap();
    let targets = [
        FleetTarget::new(
            SystemModel::ault23(),
            OptionAssignment::new()
                .with("GMX_SIMD", "AVX_512")
                .with("GMX_MPI", "ON"),
            SimdLevel::Avx512,
        ),
        FleetTarget::new(
            SystemModel::ault01_04(),
            OptionAssignment::new()
                .with("GMX_SIMD", "SSE4.1")
                .with("GMX_MPI", "ON"),
            SimdLevel::Sse41,
        ),
    ];
    let report = FleetRequest::new(&build, &project)
        .targets(targets)
        .submit(&Orchestrator::with_cache(&ActionCache::new(store.clone())));
    assert!(report.all_succeeded());

    let mut summed: BTreeMap<ActionKind, usize> = BTreeMap::new();
    for deployment in report.deployments() {
        for (kind, count) in deployment.trace.by_kind() {
            *summed.entry(kind).or_insert(0) += count;
        }
    }
    assert_eq!(summed, report.trace.by_kind());
    assert_eq!(
        report.trace.len(),
        report.deployments().map(|d| d.trace.len()).sum::<usize>()
    );
    assert!(report.trace.records.iter().all(|r| r.job.is_some()));
}
