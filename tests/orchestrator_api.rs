//! Error plumbing through the orchestrator session API: malformed projects and
//! failing compiles routed through `NoCache` must surface as *typed* errors —
//! never a panic, never a deadlock. Every scenario
//! runs under a timeout guard so a regression hangs the watchdog, not CI.

use std::collections::BTreeMap;
use std::time::Duration;
use xaas::prelude::*;
use xaas_buildsys::{ProjectSpec, SourceSpec, TargetKind, TargetSpec};
use xaas_container::ImageStore;
use xaas_hpcsim::SystemModel;

/// Watchdog: run `f` on a worker thread and fail loudly if it neither returns nor
/// errors within `secs` (a deadlocked executor would otherwise hang the suite).
fn with_timeout<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("request must complete (no deadlock) within the timeout")
}

/// A one-source project; `sources` and `target_files` are decoupled so tests can
/// make the target reference a file the project does not provide.
fn tiny_project(source: &str, target_files: Vec<String>) -> ProjectSpec {
    ProjectSpec {
        name: "tiny".into(),
        version: "1.0".into(),
        build_script: "project(tiny)\n".into(),
        options: Vec::new(),
        sources: vec![SourceSpec::new("src/main.ck", source)],
        headers: BTreeMap::new(),
        targets: vec![TargetSpec::new(
            "tiny",
            TargetKind::Executable,
            target_files,
        )],
        custom_targets: Vec::new(),
        global_flags: vec!["-O2".into()],
        mpi_abi: None,
    }
}

const VALID_SOURCE: &str =
    "kernel void zero(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = 0.0; } }";

#[test]
fn malformed_target_source_is_a_typed_unknown_source_error() {
    let project = tiny_project(
        VALID_SOURCE,
        vec!["src/main.ck".into(), "src/typo.ck".into()],
    );
    let config = IrPipelineConfig::sweep_options(&project, &[]);
    let error = with_timeout(30, move || {
        IrBuildRequest::new(&project, &config).submit(&Orchestrator::new())
    })
    .unwrap_err();
    match &error {
        PipelineError::UnknownSource { file } => assert_eq!(file, "src/typo.ck"),
        other => panic!("expected UnknownSource, got {other}"),
    }
    assert!(error.to_string().contains("src/typo.ck"));
}

#[test]
fn malformed_target_source_fails_source_deployment_the_same_way() {
    let project = tiny_project(VALID_SOURCE, vec!["src/ghost.ck".into()]);
    let error = with_timeout(30, move || {
        let store = ImageStore::new();
        let image = build_source_container(&project, Architecture::Amd64, &store, "tiny:src");
        SourceDeployRequest::new(&project, &image, &SystemModel::ault23())
            .submit(&Orchestrator::uncached(&store))
    })
    .unwrap_err();
    match &error {
        PipelineError::UnknownSource { file } => assert_eq!(file, "src/ghost.ck"),
        other => panic!("expected UnknownSource, got {other}"),
    }
}

/// A compile failure inside a keyed action routed through the `NoCache` backend
/// (every lookup is a miss that computes) must come back as the driver's typed
/// `Compile` error — not the executor's "skipped without a preceding failure"
/// panic, and not a hang.
#[test]
fn failing_compile_on_a_nocache_miss_returns_the_typed_compile_error() {
    let project = tiny_project(
        "kernel void broken(float* x { this is not ck }",
        vec!["src/main.ck".into()],
    );
    let config = IrPipelineConfig::sweep_options(&project, &[]);
    let store = ImageStore::new();
    let error = with_timeout(30, move || {
        IrBuildRequest::new(&project, &config).submit(&Orchestrator::uncached(&store))
    })
    .unwrap_err();
    assert!(
        matches!(error, PipelineError::Compile { ref file, .. } if file == "src/main.ck"),
        "expected a typed Compile error for src/main.ck, got {error}"
    );
}

/// A unit that fails to preprocess fails the build with the typed `Compile` error
/// naming it, also under `-fopenmp`: the one preprocess node decides the OpenMP
/// verdict too, so nothing is planned after it in stage A.
#[test]
fn failing_preprocess_under_openmp_is_the_typed_compile_error() {
    let mut project = tiny_project("#include \"missing.h\"\n", vec!["src/main.ck".into()]);
    project.global_flags.push("-fopenmp".into());
    let config = IrPipelineConfig::sweep_options(&project, &[]);
    let error = with_timeout(30, move || {
        let orch = Orchestrator::new();
        let planned = IrBuildRequest::new(&project, &config).analyze(&orch);
        assert_eq!(planned.map(|r| r.nodes), Ok(1), "one preprocess node");
        IrBuildRequest::new(&project, &config).submit(&orch)
    })
    .unwrap_err();
    assert!(
        matches!(error, PipelineError::Compile { ref file, .. } if file == "src/main.ck"),
        "expected a typed Compile error for src/main.ck, got {error}"
    );
}

/// The well-formed control case: the tiny project builds and deploys cleanly
/// through the same session, proving the failures above are the error paths and
/// not artifacts of the fixture.
#[test]
fn tiny_project_builds_and_deploys_through_one_session() {
    let project = tiny_project(VALID_SOURCE, vec!["src/main.ck".into()]);
    let config = IrPipelineConfig::sweep_options(&project, &[]);
    let (build, deployment) = with_timeout(60, move || {
        let orch = Orchestrator::new();
        let build = IrBuildRequest::new(&project, &config)
            .submit(&orch)
            .unwrap();
        let deployment = IrDeployRequest::new(&build, &project, &SystemModel::ault23())
            .submit(&orch)
            .unwrap();
        (build, deployment)
    });
    assert_eq!(build.stats.configurations, 1);
    assert_eq!(build.units.len(), 1);
    assert!(deployment.lowered().unwrap().stats.lowered_units > 0);
    assert!(!deployment.trace.is_empty());
}
