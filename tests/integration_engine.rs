//! Integration tests of the staged action-graph engine behind the orchestrator:
//! every pipeline request executes through one shared executor, parallel and serial
//! schedules produce byte-identical artifacts, and cache backends and scheduling
//! policies only change *when* work runs — never what it produces.

use std::sync::Arc;
use xaas::engine::ActionKind;
use xaas::prelude::*;
use xaas_apps::{gromacs, lulesh};
use xaas_buildsys::OptionAssignment;
use xaas_container::{ActionCache, ImageStore};
use xaas_hpcsim::{SimdLevel, SystemModel};

fn gromacs_sweep(project: &xaas_buildsys::ProjectSpec) -> IrPipelineConfig {
    IrPipelineConfig::sweep_options(project, &["GMX_SIMD", "GMX_GPU"])
        .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"])
        .with_values("GMX_GPU", &["OFF", "CUDA"])
}

/// A multi-configuration IR build with ≥ 2 workers is byte-identical to the
/// single-threaded run — same image, same store digest, same trace — while the DAG
/// needs far fewer serial wall-clock stages than the seed path's one-action-at-a-time
/// schedule.
#[test]
fn parallel_ir_build_is_byte_identical_to_serial_with_fewer_serial_stages() {
    let project = gromacs::project();
    let pipeline = gromacs_sweep(&project);
    let reference = "engine:parallel-vs-serial";

    let serial_store = ImageStore::new();
    let serial_orch = Orchestrator::builder()
        .uncached(serial_store.clone())
        .workers(1)
        .build();
    let serial = IrBuildRequest::new(&project, &pipeline)
        .reference(reference)
        .submit(&serial_orch)
        .unwrap();

    let parallel_store = ImageStore::new();
    let parallel_orch = Orchestrator::builder()
        .uncached(parallel_store.clone())
        .workers(4)
        .build();
    let parallel = IrBuildRequest::new(&project, &pipeline)
        .reference(reference)
        .submit(&parallel_orch)
        .unwrap();

    // Byte identity: layers, units, stats, and the committed manifest digest.
    assert_eq!(parallel.image.layers, serial.image.layers);
    assert_eq!(parallel.units, serial.units);
    assert_eq!(parallel.stats, serial.stats);
    assert_eq!(
        serial_store.resolve(reference).unwrap(),
        parallel_store.resolve(reference).unwrap()
    );
    // The traces are equal record for record (node order is scheduling-independent).
    assert_eq!(parallel.trace, serial.trace);
    assert_eq!(parallel.trace.action_set(), serial.trace.action_set());
    // The engine's DAG runs 22 actions — by kind, in pipeline order: 10
    // preprocess (one per preprocessed text of the 38 TUs of the 4
    // configurations: SIMD and GPU definitions change none of them; each also
    // decides whether `-fopenmp` matters), 10 ir-lower (the distinct IR files),
    // link, commit — in 4 waves: preprocess → ir-lower → link → commit.
    let by_kind: Vec<usize> = serial.trace.by_kind().into_values().collect();
    assert_eq!(by_kind, [10, 10, 1, 1]);
    assert_eq!(serial.trace.len(), 22);
    assert_eq!(parallel.trace.stage_depth, 4);
    // An uncached engine executes every keyed node: the 10 ir-lower.
    let keyed = ActionSummary {
        executed: 10,
        cached: 0,
    };
    assert_eq!(parallel.actions, keyed);
    assert_eq!(parallel.stats.configurations, 4);
}

/// `NoCache` and a warm `ActionCache` produce identical images: the cache may only
/// save work, never change outputs.
#[test]
fn nocache_and_warm_action_cache_builds_are_identical() {
    let project = lulesh::project();
    let pipeline = IrPipelineConfig::sweep_options(&project, &["WITH_MPI", "WITH_OPENMP"]);
    let reference = "engine:nocache-vs-warm";

    let uncached_store = ImageStore::new();
    let uncached = IrBuildRequest::new(&project, &pipeline)
        .reference(reference)
        .submit(&Orchestrator::uncached(&uncached_store))
        .unwrap();

    let cached_store = ImageStore::new();
    let cache = ActionCache::new(cached_store.clone());
    let session = Orchestrator::with_cache(&cache);
    let cold = IrBuildRequest::new(&project, &pipeline)
        .reference(reference)
        .submit(&session)
        .unwrap();
    let warm = IrBuildRequest::new(&project, &pipeline)
        .reference(reference)
        .submit(&session)
        .unwrap();

    assert_eq!(warm.actions.executed, 0, "warm build compiles nothing");
    assert_eq!(warm.actions.cached, cold.actions.total());
    assert_eq!(uncached.actions.cached, 0, "NoCache never hits");
    assert_eq!(uncached.actions.executed, cold.actions.total());
    for other in [&cold, &warm] {
        assert_eq!(other.image.layers, uncached.image.layers);
        assert_eq!(other.units, uncached.units);
        assert_eq!(other.stats, uncached.stats);
    }
    assert_eq!(
        uncached_store.resolve(reference).unwrap(),
        cached_store.resolve(reference).unwrap()
    );
    // Identical action sets; only the `cached` flags differ between cold and warm.
    assert_eq!(cold.trace.action_set(), warm.trace.action_set());
    assert_eq!(uncached.trace.action_set(), cold.trace.action_set());
    assert_ne!(cold.trace, warm.trace);
}

/// Every pipeline request — IR build, IR deploy, source deploy — leaves a trace with
/// the pipeline's stages, ending in link + commit, and the deployment traces are
/// identical across worker counts.
#[test]
fn all_pipelines_execute_through_the_engine_with_staged_traces() {
    let project = gromacs::project();
    let store = ImageStore::new();
    let orch = Orchestrator::uncached(&store);
    let pipeline = gromacs_sweep(&project);
    let build = IrBuildRequest::new(&project, &pipeline)
        .reference("engine:stages")
        .submit(&orch)
        .unwrap();
    let kinds = build.trace.by_kind();
    for kind in [
        ActionKind::Preprocess,
        ActionKind::IrLower,
        ActionKind::Link,
        ActionKind::Commit,
    ] {
        assert!(kinds.contains_key(&kind), "build trace misses {kind}");
    }
    assert!(!kinds.contains_key(&ActionKind::OpenMpDetect));
    assert_eq!(kinds[&ActionKind::Link], 1);
    assert_eq!(kinds[&ActionKind::Commit], 1);
    assert_eq!(build.trace.policy, "fifo");

    let system = SystemModel::ault23();
    let selection = OptionAssignment::new()
        .with("GMX_SIMD", "AVX_512")
        .with("GMX_GPU", "OFF");
    let serial_orch = Orchestrator::builder()
        .uncached(ImageStore::new())
        .workers(1)
        .build();
    let deploy_serial = IrDeployRequest::new(&build, &project, &system)
        .selection(selection.clone())
        .simd(SimdLevel::Avx512)
        .submit(&serial_orch)
        .unwrap();
    let parallel_orch = Orchestrator::builder()
        .uncached(ImageStore::new())
        .workers(4)
        .build();
    let deploy_parallel = IrDeployRequest::new(&build, &project, &system)
        .selection(selection)
        .simd(SimdLevel::Avx512)
        .submit(&parallel_orch)
        .unwrap();
    assert_eq!(deploy_parallel.trace, deploy_serial.trace);
    assert_eq!(deploy_parallel.image.layers, deploy_serial.image.layers);
    assert!(deploy_parallel.trace.by_kind()[&ActionKind::MachineLower] > 0);

    let source_image = build_source_container(&project, Architecture::Amd64, &store, "engine:src");
    let source_orch = Orchestrator::builder()
        .uncached(ImageStore::new())
        .workers(3)
        .build();
    let source_deploy = SourceDeployRequest::new(&project, &source_image, &system)
        .submit(&source_orch)
        .unwrap();
    let source_kinds = source_deploy.trace.by_kind();
    assert!(source_kinds[&ActionKind::Preprocess] > 0);
    assert!(source_kinds[&ActionKind::SdCompile] > 0);
    assert_eq!(source_kinds[&ActionKind::Commit], 1);
}

/// The fleet request submits every job to the shared engine: systems sharing an
/// ISA share every machine-lower action through the one cache, and the per-job traces
/// carry the engine's stages.
#[test]
fn fleet_jobs_flow_through_the_shared_engine() {
    let project = gromacs::project();
    let cache = ActionCache::new(ImageStore::new());
    let session = Orchestrator::builder()
        .action_cache(cache)
        .workers(4)
        .build();
    let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"])
        .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"]);
    let build = IrBuildRequest::new(&project, &pipeline)
        .reference("engine:fleet")
        .submit(&session)
        .unwrap();
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
        .submit(&session);
    assert!(report.all_succeeded());
    let deployments: Vec<_> = report.deployments().collect();
    assert_eq!(deployments.len(), 2);
    // Same ISA ⇒ identical lower/compile action identities (link/commit identities
    // differ: they carry the system-specific image reference), second job all-cached.
    let keyed = |deployment: &IrDeployment| -> std::collections::BTreeSet<String> {
        deployment
            .trace
            .records
            .iter()
            .filter(|r| r.key_digest.is_some())
            .map(|r| r.identity())
            .collect()
    };
    assert_eq!(keyed(deployments[0]), keyed(deployments[1]));
    assert_eq!(deployments[1].actions.executed, 0);
    assert_eq!(
        deployments[1].actions.cached,
        deployments[0].actions.total()
    );
    for deployment in deployments {
        assert_eq!(deployment.trace.by_kind()[&ActionKind::Commit], 1);
    }
    // The report's merged trace covers both jobs.
    assert_eq!(
        report.trace.len(),
        report.deployments().map(|d| d.trace.len()).sum::<usize>()
    );
}

/// The engine is usable directly for ad-hoc staged work, sharing the cache with the
/// pipelines (a sanity check that the public graph API composes).
#[test]
fn ad_hoc_graphs_share_the_pipeline_cache() {
    let store = ImageStore::new();
    let cache = ActionCache::new(store.clone());
    let engine = Engine::new(Arc::new(cache.clone())).with_workers(2);
    let mut graph: ActionGraph<'_, std::convert::Infallible> = ActionGraph::new();
    let key = xaas_container::BuildKey::new("tu-adhoc", "xir.ir", "opts", TOOLCHAIN_ID);
    let first = graph.add_cached(ActionKind::IrLower, "adhoc", key.clone(), &[], |_| {
        Ok(b"artifact".to_vec())
    });
    let run = engine.run(graph).expect("a well-formed graph");
    assert_eq!(run.output(first), Some(&b"artifact"[..]));
    // The artifact is now visible to any pipeline sharing the cache.
    assert!(cache.contains(&key));
    assert_eq!(cache.peek(&key).unwrap(), b"artifact");
}

/// Scheduling policies decide the dispatch order of ready actions (observable
/// through `schedule_seq`) but never change artifacts: a tenant-tagged
/// `WeightedFair` deployment commits the byte-identical image a `Fifo`
/// deployment commits.
#[test]
fn scheduling_policies_reorder_dispatch_without_changing_artifacts() {
    let project = gromacs::project();
    // Sweep MPI too: the MPI halo file ships as source, so the deployment graph has
    // a mixed machine-lower/sd-compile frontier for the policies to reorder.
    let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD", "GMX_MPI"])
        .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"]);
    let build = IrBuildRequest::new(&project, &pipeline)
        .submit(&Orchestrator::new())
        .unwrap();
    let system = SystemModel::ault23();

    let deploy = |orch: &Orchestrator| {
        IrDeployRequest::new(&build, &project, &system)
            .select("GMX_SIMD", "AVX_512")
            .select("GMX_MPI", "ON")
            .simd(SimdLevel::Avx512)
            .submit(orch)
            .unwrap()
    };
    let fifo_store = ImageStore::new();
    let fifo = deploy(
        &Orchestrator::builder()
            .uncached(fifo_store.clone())
            .workers(4)
            .build(),
    );
    let fair_store = ImageStore::new();
    let fair = deploy(
        &Orchestrator::builder()
            .uncached(fair_store.clone())
            .workers(4)
            .policy(WeightedFair::new())
            .build()
            .for_tenant("alice"),
    );

    assert!(
        fair.lowered().unwrap().stats.compiled_source_units > 0,
        "sd-compiles present"
    );
    assert_eq!(fifo.trace.policy, "fifo");
    assert_eq!(fair.trace.policy, "weighted-fair");
    assert_eq!(fair.trace.tenant.as_deref(), Some("alice"));
    // The two policies dispatch the same nodes, in whatever order each chose...
    let dispatched = |deployment: &IrDeployment| {
        let mut order = deployment.trace.execution_order();
        order.sort();
        order
    };
    assert_eq!(dispatched(&fifo), dispatched(&fair));
    // ...with identical records, artifacts, and committed digests.
    assert_eq!(fifo.trace.records, fair.trace.records);
    assert_eq!(fifo.image.layers, fair.image.layers);
    assert_eq!(
        fifo_store.resolve(&fifo.reference).unwrap(),
        fair_store.resolve(&fair.reference).unwrap()
    );
}
