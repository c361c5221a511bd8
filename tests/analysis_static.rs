//! Graph construction defects and the plan-only report, end to end: a graph
//! built without a defect reports none and executes without structural runtime
//! faults; a graph that recorded a [`GraphError`] is refused by `Engine::run`,
//! `Engine::submit_graph` and a service session *before any node executes* —
//! no partial side effects, pinned by an action-side counter, the cache
//! counters and the queue; and a request's `analyze` plans without executing.

use proptest::prelude::*;
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use xaas::prelude::*;
use xaas::service::{OrchestratorService, ServiceError, ServiceRequest};
use xaas_apps::lulesh;
use xaas_container::{ActionCache, BuildKey, ImageStore};

fn key(tag: &str) -> BuildKey {
    BuildKey::new(tag, "x86_64", "O2", "clang-17")
}

fn engine() -> Engine {
    Engine::cached(&ActionCache::new(ImageStore::new())).with_workers(2)
}

/// The three construction defects, each declared by node 1 of [`denied_graph`].
const DEFECTS: [GraphError; 3] = [
    GraphError::CommitWithoutDeps { node: 1 },
    GraphError::DerivedKeyWithoutDeps { node: 1 },
    GraphError::ForwardEdge { node: 1, dep: 3 },
];

/// Four keyed nodes, each of which would bump `ran` and insert a cache entry if
/// it ever executed; node 1 declares `defect`.
fn denied_graph(ran: &Arc<AtomicUsize>, defect: GraphError) -> ActionGraph<'static, Infallible> {
    let mut graph = ActionGraph::new();
    for i in 0..4u8 {
        let ran = Arc::clone(ran);
        let run = move |_: &ActionInputs| {
            ran.fetch_add(1, Ordering::SeqCst);
            Ok(vec![i])
        };
        let (label, key) = (format!("node{i}"), key(&format!("side-effect-{i}")));
        match (i, defect) {
            (1, GraphError::CommitWithoutDeps { .. }) => {
                graph.add_cached(ActionKind::Commit, label, key, &[], run)
            }
            (1, GraphError::DerivedKeyWithoutDeps { .. }) => {
                graph.add_cached_derived(ActionKind::SdCompile, label, |_| key, &[], run)
            }
            (1, GraphError::ForwardEdge { dep, .. }) => {
                graph.add_cached(ActionKind::Link, label, key, &[0, dep], run)
            }
            _ => graph.add_cached(ActionKind::Preprocess, label, key, &[], run),
        };
    }
    graph
}

/// The non-`Commit` kinds, for cycling labels over generated nodes.
const WORK_KINDS: [ActionKind; 5] = [
    ActionKind::Preprocess,
    ActionKind::IrLower,
    ActionKind::MachineLower,
    ActionKind::SdCompile,
    ActionKind::Link,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random DAG built without a defect executes to completion
    /// with every node producing an output — no structural runtime faults.
    #[test]
    fn defect_free_graphs_execute_without_structural_faults(
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
            // backward edges only, so the graph records no defect and the
            // engine must run it.
            let mut deps: Vec<ActionId> = (0..id).filter(|_| next() % 3 == 0).collect();
            deps.dedup();
            let kind = WORK_KINDS[id % WORK_KINDS.len()];
            graph.add(kind, format!("n{id}"), &deps, move |_| Ok(vec![id as u8]));
        }
        prop_assert_eq!(graph.error(), None);
        let report = engine.analyze(&graph);
        prop_assert!(!report.is_rejected(), "clean-by-construction graph denied: {report}");
        let run = engine.submit_graph(graph).expect("no construction defect").wait();
        prop_assert!(run.succeeded());
        let (outputs, _) = run.into_outputs().expect("no faults");
        prop_assert_eq!(outputs.len(), n);
    }
}

/// The refuse-before-execution pin, for each defect and both entrances: the
/// engine returns the recorded [`GraphError`] and runs *zero* actions — the
/// side-effect counter stays at zero, the shared cache observes no lookups and
/// no entries, and nothing is queued.
#[test]
fn denied_graphs_execute_nothing_and_touch_no_state() {
    let cache = ActionCache::new(ImageStore::new());
    let engine = Engine::cached(&cache).with_workers(2);
    let ran = Arc::new(AtomicUsize::new(0));
    let before = engine.cache_stats();
    for defect in DEFECTS {
        let graph = denied_graph(&ran, defect);
        assert_eq!(graph.error(), Some(defect));
        assert_eq!(engine.run(graph).err(), Some(defect));
        let graph = denied_graph(&ran, defect);
        assert_eq!(engine.submit_graph(graph).err(), Some(defect));
    }
    assert_eq!(ran.load(Ordering::SeqCst), 0, "no action may have run");
    let after = engine.cache_stats();
    assert_eq!(
        (after.hits, after.misses, after.entries),
        (before.hits, before.misses, before.entries)
    );
    assert_eq!(engine.queue_stats().queued_actions, 0);
}

/// A request whose `execute` does what every driver does: run its graph on the
/// session's engine.
struct DeniedRequest(Arc<AtomicUsize>);

impl ServiceRequest for DeniedRequest {
    type Output = ();
    type Error = GraphError;

    fn execute(self, orch: &Orchestrator) -> Result<(), Self::Error> {
        orch.engine()
            .run(denied_graph(&self.0, DEFECTS[0]))
            .map(drop)
    }
}

/// Through the service, a refused graph is the request's own typed error: the
/// request was admitted, none of its actions ran, and no refusal is counted.
#[test]
fn service_surfaces_a_refused_graph_as_the_request_error() {
    let service = OrchestratorService::builder().workers(2).build();
    let session = service.session("tenant-a");
    let ran = Arc::new(AtomicUsize::new(0));
    let error = session
        .submit(DeniedRequest(Arc::clone(&ran)))
        .expect_err("the graph commits an image assembled from nothing");
    assert_eq!(error, ServiceError::Request(DEFECTS[0]));
    assert_eq!(ran.load(Ordering::SeqCst), 0);
    let stats = service.stats();
    let refusals = stats.backpressured + stats.rejected + stats.refused_draining;
    assert_eq!((stats.admitted, refusals), (1, 0));
}

/// The request-level lint plans the graph under a valid policy and reports on
/// it without submitting anything (an invalid policy is refused instead; see
/// `orchestrator_api.rs`).
#[test]
fn request_analyze_reports_on_the_planned_graph_without_executing() {
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
