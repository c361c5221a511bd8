//! Pre-submission static analyzer integration: graphs that pass analysis
//! execute without structural runtime faults; each injectable defect
//! class is flagged with its specific diagnostic code; and a deny-level
//! verdict rejects the submission *before any node executes* — no partial
//! side effects, pinned by an action-side counter and the cache counters.
//! (Dangling-dependency injection is impossible through the public
//! [`ActionGraph`] API — `add` panics on forward edges — so `XA-STR-001` is
//! pinned by the in-crate unit tests instead.)

use proptest::prelude::*;
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use xaas::prelude::*;
use xaas::service::{AdmissionError, OrchestratorService, ServiceError, ServiceRequest};
use xaas_apps::lulesh;
use xaas_container::{ActionCache, BuildKey, ImageStore};

fn key(tag: &str) -> BuildKey {
    BuildKey::new(tag, "x86_64", "O2", "clang-17")
}

fn engine() -> Engine {
    Engine::cached(&ActionCache::new(ImageStore::new())).with_workers(2)
}

/// Four keyed `Commit` nodes with no dependencies (`XA-STR-005`, deny), each of
/// which would bump `ran` and insert a cache entry if it ever executed.
fn denied_graph(ran: &Arc<AtomicUsize>) -> ActionGraph<'static, Infallible> {
    let mut graph = ActionGraph::new();
    for i in 0..4 {
        let ran = Arc::clone(ran);
        graph.add_cached(
            ActionKind::Commit,
            format!("commit{i}"),
            key(&format!("side-effect-{i}")),
            &[],
            move |_| {
                ran.fetch_add(1, Ordering::SeqCst);
                Ok(vec![i])
            },
        );
    }
    graph
}

/// The non-`Commit` kinds, for cycling labels over generated nodes.
const WORK_KINDS: [ActionKind; 6] = [
    ActionKind::Preprocess,
    ActionKind::OpenMpDetect,
    ActionKind::IrLower,
    ActionKind::MachineLower,
    ActionKind::SdCompile,
    ActionKind::Link,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random DAG that passes analysis executes to completion
    /// with every node producing an output — no structural runtime faults.
    #[test]
    fn strict_clean_graphs_execute_without_structural_faults(
        n in 1usize..14,
        seed in any::<u64>(),
    ) {
        let engine = engine();
        let mut graph: ActionGraph<'static, Infallible> = ActionGraph::new();
        let mut rng = seed | 1;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 33
        };
        for id in 0..n {
            // Every node depends on a random subset of its predecessors —
            // backward edges only, so the graph is structurally valid by
            // construction and preflight must admit it.
            let mut deps: Vec<ActionId> = (0..id).filter(|_| next() % 3 == 0).collect();
            deps.dedup();
            let kind = WORK_KINDS[id % WORK_KINDS.len()];
            graph.add(kind, format!("n{id}"), &deps, move |_| Ok(vec![id as u8]));
        }
        let report = engine.analyze(&graph);
        prop_assert!(!report.is_rejected(), "clean-by-construction graph denied: {report}");
        let run = engine.submit_graph(graph).expect("preflight admits it").wait();
        prop_assert!(run.succeeded());
        let (outputs, _) = run.into_outputs().expect("no faults");
        prop_assert_eq!(outputs.len(), n);
    }
}

#[test]
fn cross_job_edge_is_flagged_but_admitted_under_strict() {
    let engine = engine();
    let mut graph: ActionGraph<'static, Infallible> = ActionGraph::new();
    graph.set_job(Some(0));
    let a = graph.add(ActionKind::IrLower, "job0", &[], |_| Ok(vec![0]));
    graph.set_job(Some(1));
    graph.add(ActionKind::Link, "job1", &[a], |_| Ok(vec![1]));
    let report = engine.analyze(&graph);
    assert!(report.has_code(DiagnosticCode::CrossJobEdge));
    assert!(
        !report.is_rejected(),
        "warnings must not reject a submission"
    );
    assert!(engine.submit_graph(graph).is_ok());
}

#[test]
fn unordered_duplicate_key_is_flagged_with_che_001_once() {
    let engine = engine();
    let mut graph: ActionGraph<'static, Infallible> = ActionGraph::new();
    graph.add_cached(ActionKind::SdCompile, "first", key("dup"), &[], |_| {
        Ok(vec![0])
    });
    graph.add_cached(ActionKind::SdCompile, "second", key("dup"), &[], |_| {
        Ok(vec![0])
    });
    let report = engine.analyze(&graph);
    assert_eq!(
        report
            .with_code(DiagnosticCode::UnorderedDuplicateKey)
            .count(),
        1
    );
    assert!(!report.is_rejected());
}

#[test]
fn ordered_duplicate_key_is_clean() {
    let engine = engine();
    let mut graph: ActionGraph<'static, Infallible> = ActionGraph::new();
    let first = graph.add_cached(ActionKind::SdCompile, "first", key("dup"), &[], |_| {
        Ok(vec![0])
    });
    graph.add_cached(ActionKind::SdCompile, "alias", key("dup"), &[first], |_| {
        Ok(vec![0])
    });
    let report = engine.analyze(&graph);
    assert!(!report.has_code(DiagnosticCode::UnorderedDuplicateKey));
}

#[test]
fn commit_without_dependencies_is_denied_with_str_005() {
    let engine = engine();
    let mut graph: ActionGraph<'static, Infallible> = ActionGraph::new();
    graph.add(ActionKind::Commit, "empty commit", &[], |_| Ok(vec![]));
    let report = engine.submit_graph(graph).expect_err("nothing to commit");
    assert!(report.has_code(DiagnosticCode::CommitNoDeps));
}

#[test]
fn derived_key_without_dependencies_is_denied_with_str_006() {
    let engine = engine();
    let mut graph: ActionGraph<'static, Infallible> = ActionGraph::new();
    graph.add_cached_derived(
        ActionKind::SdCompile,
        "keyless",
        |_| key("derived"),
        &[],
        |_| Ok(vec![0]),
    );
    let report = engine
        .submit_graph(graph)
        .expect_err("no inputs to derive from");
    assert!(report.has_code(DiagnosticCode::DerivedKeyNoDeps));
}

/// The deny-before-execution pin: a rejected submission runs *zero* actions —
/// the side-effect counter stays at zero and the shared cache observes no
/// lookups, no entries, and no flights.
#[test]
fn denied_graphs_execute_nothing_and_touch_no_state() {
    let cache = ActionCache::new(ImageStore::new());
    let engine = Engine::cached(&cache).with_workers(2);
    let ran = Arc::new(AtomicUsize::new(0));
    let before = engine.cache_stats();
    let report = engine
        .submit_graph(denied_graph(&ran))
        .expect_err("commits of nothing are denied");
    assert_eq!(report.with_code(DiagnosticCode::CommitNoDeps).count(), 4);
    assert!(report.is_rejected());
    assert_eq!(ran.load(Ordering::SeqCst), 0, "no action may have run");
    let after = engine.cache_stats();
    assert_eq!(
        (after.hits, after.misses, after.entries),
        (before.hits, before.misses, before.entries)
    );
    assert_eq!(engine.queue_stats().queued_actions, 0);
}

/// A request whose `execute` does what every driver does first — preflight its
/// graph on the session's engine and return the report as its error.
struct DeniedRequest(Arc<AtomicUsize>);

impl ServiceRequest for DeniedRequest {
    type Output = ();
    type Error = Box<AnalysisReport>;

    fn execute(self, orch: &Orchestrator) -> Result<(), Self::Error> {
        orch.engine().preflight(&denied_graph(&self.0))
    }

    fn analysis_rejection(error: Self::Error) -> Result<Box<AnalysisReport>, Self::Error> {
        Ok(error)
    }
}

/// Through the service, a deny-level verdict surfaces as a typed *admission*
/// refusal — [`AdmissionError::Invalid`] carrying the full report — because
/// the request was refused before any of its actions ran. The three driver
/// error types map their `Analysis` variant onto that path.
#[test]
fn service_surfaces_analysis_rejection_as_admission_invalid() {
    let service = OrchestratorService::builder().workers(2).build();
    let session = service.session("tenant-a");
    let ran = Arc::new(AtomicUsize::new(0));
    let error = session
        .submit(DeniedRequest(Arc::clone(&ran)))
        .expect_err("the graph commits images assembled from nothing");
    let report = match error {
        ServiceError::Admission(AdmissionError::Invalid(report)) => report,
        other => panic!("expected AdmissionError::Invalid, got {other:?}"),
    };
    assert!(report.has_code(DiagnosticCode::CommitNoDeps));
    assert!(report.is_rejected());
    assert_eq!(report.tenant.as_deref(), Some("tenant-a"));
    assert_eq!(ran.load(Ordering::SeqCst), 0);

    assert_eq!(
        IrBuildRequest::analysis_rejection(IrPipelineError::Analysis(report.clone())).ok(),
        Some(report.clone())
    );
    assert_eq!(
        IrDeployRequest::analysis_rejection(DeployError::Analysis(report.clone())).ok(),
        Some(report.clone())
    );
    assert_eq!(
        SourceDeployRequest::analysis_rejection(SourceContainerError::Analysis(report.clone()))
            .ok(),
        Some(report)
    );
}

/// The request-level lint plans the graph and reports on it without
/// submitting anything.
#[test]
fn request_analyze_reports_policy_defects_without_executing() {
    let orch = Orchestrator::builder().workers(2).build();
    let project = lulesh::project();
    let config = IrPipelineConfig::sweep_options(&project, &["WITH_MPI", "WITH_OPENMP"]);
    let before = orch.cache_stats();
    let report = IrBuildRequest::new(&project, &config)
        .analyze(&orch)
        .expect("planning succeeds; the verdict is the report");
    assert!(!report.is_rejected(), "{report}");
    assert_eq!(report.policy, "fifo");
    assert!(report.nodes > 0, "the stage-A graph was actually planned");
    let after = orch.cache_stats();
    assert_eq!(after.misses, before.misses, "analyze must not execute");
}
