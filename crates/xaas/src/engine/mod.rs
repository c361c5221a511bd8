//! The staged action-graph engine: one executor for every XaaS pipeline.
//!
//! The paper's source and IR containers are two points on one pipeline —
//! preprocess → (OpenMP-aware dedup) → lower-to-IR → specialize → link — and this
//! module makes that pipeline an explicit, cache-aware artifact instead of three
//! near-duplicate monolithic functions. The pieces:
//!
//! * [`graph`] — [`ActionGraph`]: a DAG of [`ActionKind`]-tagged nodes with explicit
//!   dependency edges, built stage by stage by the pipeline drivers;
//! * [`executor`] — a worker pool that runs the ready frontier across threads,
//!   routes keyed nodes through a [`CacheBackend`]
//!   (an [`ActionCache`] or the always-compute
//!   [`NoCache`]), and isolates failures to the failed
//!   node's transitive dependents;
//! * [`policy`] — pluggable [`SchedulingPolicy`]s deciding dispatch order:
//!   [`Fifo`] (default, one shared lane) or [`WeightedFair`] (one lane per
//!   tenant, weighted fair queuing across them);
//! * [`trace`] — [`ActionTrace`]: a deterministic, node-ordered record of what ran
//!   and what the cache absorbed, from which the historical [`ActionSummary`]
//!   counters are derived;
//! * [`analysis`] — [`GraphAnalyzer`]: the pre-submission static verifier that
//!   lints a graph against the active policy and rejects structurally broken
//!   submissions before any worker executes a node;
//! * [`plan`] — the graph idioms the drivers share: deduplicated preprocess
//!   actions, the one definition of an `sd-compile` node, and the link → commit
//!   tail.
//!
//! The drivers behind [`ir_container`](crate::ir_container),
//! [`deploy`](crate::deploy), [`source_container`](crate::source_container), and
//! the fleet wave of [`orchestrator`](crate::orchestrator) all construct graphs
//! and submit them to one shared [`Engine`] — owned, in the public API, by an
//! [`Orchestrator`](crate::orchestrator::Orchestrator). Every deployment, IR or
//! source, is one plan → graft → finish subgraph and one submission; intra-build
//! parallelism (compiling the translation units of a configuration sweep
//! concurrently) falls out of the executor rather than being special-cased per
//! pipeline.
//!
//! ```
//! use xaas::engine::{ActionGraph, ActionKind, Engine};
//! use xaas_container::{ImageStore, NoCache};
//! use std::sync::Arc;
//!
//! let engine = Engine::new(Arc::new(NoCache::new(ImageStore::new())));
//! let mut graph: ActionGraph<'_, std::convert::Infallible> = ActionGraph::new();
//! let hello = graph.add(ActionKind::Preprocess, "hello", &[], |_| Ok(b"hi".to_vec()));
//! let shout = graph.add(ActionKind::Link, "shout", &[hello], |inputs| {
//!     Ok(inputs.dep(0).to_ascii_uppercase())
//! });
//! let run = engine.run(graph);
//! assert_eq!(run.output(shout), Some(&b"HI"[..]));
//! ```

#![deny(clippy::unwrap_used, clippy::dbg_macro)]
pub mod analysis;
pub mod executor;
pub mod graph;
pub mod plan;
pub mod policy;
pub mod trace;

pub use analysis::{AnalysisReport, Diagnostic, DiagnosticCode, GraphAnalyzer, Severity};
pub use executor::{
    ActionOutputs, GraphFault, GraphHandle, GraphRun, GraphRunError, GraphStatus, JobFailure,
    NodeInfo, NodeOutcome, QueueStats,
};
pub use graph::{ActionGraph, ActionId, ActionInputs};
pub use plan::{add_commit_action, KeyedActionPlanner, LinkSlot, PreprocessPlanner};
pub use policy::{Fifo, PolicyError, SchedulingPolicy, WeightedFair};
pub use trace::{ActionKind, ActionRecord, ActionSummary, ActionTrace};

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use xaas_container::{ActionCache, CacheBackend, CacheStats, ImageStore, NoCache};

/// The shared execution engine: a persistent worker pool, a cache backend, and a
/// [`SchedulingPolicy`].
///
/// Cloning is cheap and clones **share the worker pool** (plus the backend,
/// policy, and dispatch counter) — that is how one engine serves many sessions:
/// the [`OrchestratorService`](crate::service::OrchestratorService) hands every
/// session a tenant-tagged clone, and all their submissions interleave through
/// the pool's single multi-graph ready queue. Configure (workers / policy /
/// tenant) *before* submitting work: the builder methods that change execution
/// semantics start a fresh pool, so clones made earlier keep the old one.
///
/// The pool is spawned lazily on first submission and torn down when the last
/// clone drops (after waiting for in-flight submissions to retire).
#[derive(Clone)]
pub struct Engine {
    cache: Arc<dyn CacheBackend>,
    workers: usize,
    policy: Arc<dyn SchedulingPolicy>,
    /// Dispatch counter shared across runs (and clones), so `schedule_seq` values in
    /// merged traces preserve the global execution order.
    seq: Arc<AtomicU64>,
    /// The tenant tag stamped on this clone's submissions (scheduling identity
    /// under fair queuing, attribution in traces). Per-clone: tenant clones of one
    /// engine still share the pool.
    tenant: Option<String>,
    core: Arc<executor::ExecutorCore>,
    /// The service's queued-action bound, if one applies (the analyzer's
    /// `XA-SVC-001` check). Purely advisory — enforcement stays in admission.
    queue_bound: Option<usize>,
}

impl Engine {
    /// An engine over `cache` with a worker count derived from the host parallelism
    /// (clamped to `[2, 8]` — actions are small compile steps) and the default
    /// [`Fifo`] policy.
    pub fn new(cache: Arc<dyn CacheBackend>) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        Self {
            cache,
            workers,
            policy: Arc::new(Fifo),
            seq: Arc::new(AtomicU64::new(0)),
            tenant: None,
            core: Arc::new(executor::ExecutorCore::new()),
            queue_bound: None,
        }
    }

    /// An engine that memoizes every keyed action in `cache`.
    pub fn cached(cache: &ActionCache) -> Self {
        Self::new(Arc::new(cache.clone()))
    }

    /// An engine that never caches: every action executes, artifacts and images land
    /// in `store`. This is the explicit replacement for handing the pipelines a
    /// private empty [`ActionCache`].
    pub fn uncached(store: &ImageStore) -> Self {
        Self::new(Arc::new(NoCache::new(store.clone())))
    }

    /// Override the worker count (at least 1). One worker executes submissions with
    /// no concurrency — the reference schedule the property tests compare parallel
    /// runs against. (Even then, execution order is dependency-driven, not node
    /// order; outputs and traces are assembled in node order regardless of
    /// schedule.) Starts a fresh pool: configure before submitting work.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self.core = Arc::new(executor::ExecutorCore::new());
        self
    }

    /// Replace the scheduling policy (the dispatch order of the ready queue). The
    /// policy changes *when* actions run, never what they produce. Note the raw
    /// engine clamps a zero tenant weight to one rather than starve the lane;
    /// submit through an
    /// [`Orchestrator`](crate::orchestrator::Orchestrator) to have invalid policies
    /// rejected as typed errors instead.
    pub fn with_policy(self, policy: impl SchedulingPolicy + 'static) -> Self {
        self.with_policy_arc(Arc::new(policy))
    }

    /// [`with_policy`](Self::with_policy) for an already-shared policy. Starts a
    /// fresh pool: configure before submitting work.
    pub fn with_policy_arc(mut self, policy: Arc<dyn SchedulingPolicy>) -> Self {
        self.policy = policy;
        self.core = Arc::new(executor::ExecutorCore::new());
        self
    }

    /// Tag this engine clone's submissions with a tenant: the scheduling identity
    /// fair-queuing policies lane by, and the `tenant` attribution recorded in
    /// [`ActionRecord`]s and [`ActionTrace`]s. The clone **shares** the pool, the
    /// cache, and the queue with its siblings — tenancy is submission metadata,
    /// not isolation. This is how the
    /// [`OrchestratorService`](crate::service::OrchestratorService) multiplexes
    /// sessions onto one engine.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// The tenant tag of this engine clone, if any.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Tell the analyzer about a service-level queued-action bound so reports
    /// include the `XA-SVC-001` queue-saturation check. Advisory only — the
    /// service still enforces the bound at admission. Does not restart the pool.
    pub fn with_queue_bound(mut self, bound: Option<usize>) -> Self {
        self.queue_bound = bound;
        self
    }

    /// Run the static analyzer over `graph` against this engine's policy,
    /// tenant tag, and queue bound. Read-only: nothing is scheduled. This is
    /// also how warnings on graphs [`preflight`](Self::preflight) admits are
    /// read.
    pub fn analyze<E>(&self, graph: &ActionGraph<'_, E>) -> AnalysisReport {
        GraphAnalyzer::new(self.policy.as_ref())
            .tenant(self.tenant.as_deref())
            .queue_bound(self.queue_bound)
            .analyze(graph)
    }

    /// The analyzer's verdict on `graph`: `Ok` to proceed, `Err(report)` when
    /// the report carries deny-level findings. The pipeline drivers call this
    /// before every `engine.run`.
    pub fn preflight<E>(&self, graph: &ActionGraph<'_, E>) -> Result<(), Box<AnalysisReport>> {
        let report = self.analyze(graph);
        if report.is_rejected() {
            return Err(Box::new(report));
        }
        Ok(())
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The scheduling policy runs execute under.
    pub fn policy(&self) -> &dyn SchedulingPolicy {
        self.policy.as_ref()
    }

    /// The cache backend every keyed action routes through.
    pub fn cache(&self) -> &dyn CacheBackend {
        self.cache.as_ref()
    }

    /// The backend's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.backend_stats()
    }

    /// The content-addressed store behind the cache (images are committed here).
    pub fn store(&self) -> &ImageStore {
        self.cache.store()
    }

    /// Execute `graph` to completion: enqueue its ready frontier on the shared
    /// pool under the engine's scheduling policy, route keyed nodes through the
    /// cache, record a deterministic [`ActionTrace`], isolate failures to their
    /// transitive dependents, and block until every node has retired.
    ///
    /// This is the blocking convenience over [`submit_graph`](Self::submit_graph):
    /// the same queue, the same workers, the same interleaving with concurrent
    /// submissions — only the caller waits in place instead of holding a
    /// [`GraphHandle`].
    pub fn run<'env, E: Send + 'static>(&self, graph: ActionGraph<'env, E>) -> GraphRun<E> {
        self.core.run_blocking(
            &self.cache,
            &self.policy,
            &self.seq,
            self.workers,
            graph,
            self.tenant.clone(),
        )
    }

    /// Submit `graph` without blocking and get a [`GraphHandle`] back. The
    /// graph's actions join the pool's shared ready queue, interleaving with
    /// every other live submission at action granularity; the handle polls,
    /// waits, cancels, or registers a completion callback. The graph must own
    /// its environment (`'static`) because execution outlives this call — for
    /// borrowed environments use the blocking [`run`](Self::run).
    ///
    /// The submission is [`preflight`](Self::preflight)ed first: a graph with
    /// deny-level findings is rejected with its [`AnalysisReport`] before any
    /// node is enqueued — no worker executes, no cache entry is touched, no
    /// queue slot is taken.
    pub fn submit_graph<E: Send + 'static>(
        &self,
        graph: ActionGraph<'static, E>,
    ) -> Result<GraphHandle<E>, Box<AnalysisReport>> {
        self.preflight(&graph)?;
        Ok(self.core.submit_graph(
            &self.cache,
            &self.policy,
            &self.seq,
            self.workers,
            graph,
            self.tenant.clone(),
        ))
    }

    /// A snapshot of the shared ready queue: how many actions are queued, how
    /// many submissions still have queued work, and how many submissions are
    /// live (admitted but not yet complete). Admission control samples this to
    /// decide when to push back.
    pub fn queue_stats(&self) -> QueueStats {
        self.core.queue_stats()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers)
            .field("policy", &self.policy.name())
            .field("cache", &self.cache.backend_stats())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use xaas_container::BuildKey;

    fn key(name: &str) -> BuildKey {
        BuildKey::new(name, "xir.ir", "opts", "toolchain-test")
    }

    #[test]
    fn diamond_graph_delivers_dependency_outputs_in_order() {
        let engine = Engine::uncached(&ImageStore::new()).with_workers(4);
        let mut graph: ActionGraph<'_, std::convert::Infallible> = ActionGraph::new();
        let left = graph.add(ActionKind::Preprocess, "left", &[], |_| Ok(b"L".to_vec()));
        let right = graph.add(ActionKind::Preprocess, "right", &[], |_| Ok(b"R".to_vec()));
        let join = graph.add(ActionKind::Link, "join", &[left, right], |inputs| {
            let mut combined = inputs.dep(0).to_vec();
            combined.extend_from_slice(inputs.dep(1));
            Ok(combined)
        });
        let commit = graph.add(ActionKind::Commit, "commit", &[join], |inputs| {
            assert_eq!(inputs.len(), 1);
            Ok(inputs.dep(0).to_vec())
        });
        let run = engine.run(graph);
        assert!(run.succeeded());
        assert_eq!(run.output(commit), Some(&b"LR"[..]));
        // Trace is in node order with the declared kinds, regardless of scheduling.
        let kinds: Vec<ActionKind> = run.trace.records.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ActionKind::Preprocess,
                ActionKind::Preprocess,
                ActionKind::Link,
                ActionKind::Commit
            ]
        );
        assert_eq!(run.trace.stage_depth, 3);
    }

    #[test]
    fn failures_skip_dependents_but_not_independent_work() {
        let engine = Engine::uncached(&ImageStore::new()).with_workers(2);
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        let bad = graph.add(ActionKind::Preprocess, "bad", &[], |_| {
            Err("boom".to_string())
        });
        let downstream = graph.add(ActionKind::Link, "downstream", &[bad], |_| Ok(vec![]));
        let independent = graph.add(ActionKind::Preprocess, "independent", &[], |_| {
            Ok(b"fine".to_vec())
        });
        let run = engine.run(graph);
        assert!(!run.succeeded());
        assert!(matches!(&run.outcomes[bad], NodeOutcome::Failed(e) if e == "boom"));
        assert!(matches!(
            run.outcomes[downstream],
            NodeOutcome::Skipped { root } if root == bad
        ));
        assert_eq!(run.output(independent), Some(&b"fine"[..]));
        // into_outputs surfaces the typed error of the failing node.
        assert_eq!(
            run.into_outputs().unwrap_err(),
            GraphRunError::Action("boom".to_string())
        );
    }

    #[test]
    fn panicking_actions_propagate_to_the_caller_instead_of_hanging() {
        let engine = Engine::uncached(&ImageStore::new()).with_workers(3);
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        graph.add(ActionKind::Preprocess, "fine", &[], |_| Ok(vec![1]));
        let boom = graph.add(ActionKind::Preprocess, "boom", &[], |_| {
            panic!("kaboom in action")
        });
        graph.add(ActionKind::Link, "downstream", &[boom], |_| Ok(vec![]));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(graph)))
            .expect_err("the action panic must re-raise on the caller thread");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("kaboom in action")
        );

        // Keyed actions behave the same: the panic crosses the cache backend.
        let mut keyed: ActionGraph<'_, String> = ActionGraph::new();
        keyed.add_cached(ActionKind::IrLower, "boom", key("p"), &[], |_| {
            panic!("keyed kaboom")
        });
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(keyed)))
            .expect_err("keyed action panic must re-raise");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("keyed kaboom")
        );
    }

    #[test]
    fn keyed_actions_route_through_the_cache_backend_trait() {
        let store = ImageStore::new();
        let cache = ActionCache::new(store.clone());
        let engine = Engine::cached(&cache).with_workers(3);
        let calls = AtomicUsize::new(0);

        fn build<'env>(
            label: &str,
            calls: &'env AtomicUsize,
        ) -> ActionGraph<'env, std::convert::Infallible> {
            let mut graph = ActionGraph::new();
            for unit in ["a", "b", "c"] {
                graph.add_cached(
                    ActionKind::IrLower,
                    format!("{label}:{unit}"),
                    key(unit),
                    &[],
                    move |_| {
                        calls.fetch_add(1, Ordering::SeqCst);
                        Ok(format!("ir:{unit}").into_bytes())
                    },
                );
            }
            graph
        }
        let cold = engine.run(build("cold", &calls));
        assert!(cold.succeeded());
        assert_eq!(
            cold.trace.summary(),
            ActionSummary {
                executed: 3,
                cached: 0
            }
        );
        let warm = engine.run(build("warm", &calls));
        assert_eq!(
            warm.trace.summary(),
            ActionSummary {
                executed: 0,
                cached: 3
            }
        );
        assert_eq!(calls.load(Ordering::SeqCst), 3, "warm run computes nothing");
        assert_eq!(warm.output(0), cold.output(0));
        // Identity sets agree even though the cached flags differ.
        assert_ne!(cold.trace.records[0].label, warm.trace.records[0].label);
        assert_eq!(
            cold.trace.records[0].key_digest,
            warm.trace.records[0].key_digest
        );
    }

    #[test]
    fn parallel_and_serial_runs_produce_identical_outputs_and_traces() {
        fn build_graph(counter: &AtomicUsize) -> ActionGraph<'_, std::convert::Infallible> {
            let mut graph = ActionGraph::new();
            let mut lowers = Vec::new();
            for unit in 0..24 {
                let id = graph.add(
                    ActionKind::IrLower,
                    format!("unit{unit:02}"),
                    &[],
                    move |_| Ok(vec![unit as u8; 4]),
                );
                lowers.push(id);
            }
            graph.add(ActionKind::Link, "link", &lowers, move |inputs| {
                counter.fetch_add(1, Ordering::SeqCst);
                Ok(inputs.iter().flat_map(|b| b.to_vec()).collect())
            });
            graph
        }
        let counter = AtomicUsize::new(0);
        let serial = Engine::uncached(&ImageStore::new())
            .with_workers(1)
            .run(build_graph(&counter));
        let parallel = Engine::uncached(&ImageStore::new())
            .with_workers(8)
            .run(build_graph(&counter));
        assert_eq!(counter.load(Ordering::SeqCst), 2);
        assert_eq!(serial.trace, parallel.trace);
        assert_eq!(serial.output(24), parallel.output(24));
        assert_eq!(serial.trace.stage_depth, 2);
        assert_eq!(serial.trace.len(), 25);
    }

    /// A gate an action can block on until the test releases it, `'static` so
    /// gated graphs can be `submit_graph`ed.
    fn gate() -> (
        std::sync::mpsc::Sender<()>,
        std::sync::Arc<std::sync::Mutex<std::sync::mpsc::Receiver<()>>>,
    ) {
        let (tx, rx) = std::sync::mpsc::channel();
        (tx, std::sync::Arc::new(std::sync::Mutex::new(rx)))
    }

    #[test]
    fn submit_graph_handle_polls_waits_and_fires_completion_callback() {
        let engine = Engine::uncached(&ImageStore::new()).with_workers(2);
        let (release, blocked) = gate();
        let mut graph: ActionGraph<'static, std::convert::Infallible> = ActionGraph::new();
        let held = graph.add(ActionKind::Preprocess, "held", &[], move |_| {
            blocked.lock().unwrap().recv().ok();
            Ok(vec![1])
        });
        graph.add(ActionKind::Link, "tail", &[held], |inputs| {
            Ok(inputs.iter().next().expect("held output").to_vec())
        });
        let handle = engine.submit_graph(graph).expect("analysis-clean graph");
        let status = handle.poll();
        assert_eq!(status.total, 2);
        assert!(!status.done);
        assert!(!status.cancelled);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        handle.on_complete(move || {
            done_tx.send(()).ok();
        });
        release.send(()).unwrap();
        done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("completion callback fires once the last node retires");
        let run = handle.wait();
        assert!(run.succeeded());
        assert_eq!(run.output(1), Some(&[1][..]));
        assert_eq!(run.trace.len(), 2);

        // A handle to an already-finished submission reports done and invokes
        // new callbacks immediately on the caller.
        let mut done_graph: ActionGraph<'static, std::convert::Infallible> = ActionGraph::new();
        done_graph.add(ActionKind::Preprocess, "p", &[], |_| Ok(vec![2]));
        let handle = engine
            .submit_graph(done_graph)
            .expect("analysis-clean graph");
        while !handle.is_done() {
            std::thread::yield_now();
        }
        let fired = std::sync::Arc::new(AtomicUsize::new(0));
        let seen = fired.clone();
        handle.on_complete(move || {
            seen.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert!(handle.poll().done);
    }

    #[test]
    fn cancelled_submissions_retire_undispatched_nodes_as_cancelled() {
        // One worker: the gated node of the first submission occupies it, so the
        // second submission is still entirely queued when it is cancelled.
        let engine = Engine::uncached(&ImageStore::new()).with_workers(1);
        let (release, blocked) = gate();
        let mut first: ActionGraph<'static, std::convert::Infallible> = ActionGraph::new();
        first.add(ActionKind::Preprocess, "held", &[], move |_| {
            blocked.lock().unwrap().recv().ok();
            Ok(vec![1])
        });
        let first_handle = engine.submit_graph(first).expect("analysis-clean graph");

        let mut second: ActionGraph<'static, std::convert::Infallible> = ActionGraph::new();
        let a = second.add(ActionKind::Preprocess, "a", &[], |_| Ok(vec![2]));
        second.add(ActionKind::Link, "b", &[a], |_| Ok(vec![3]));
        let second_handle = engine.submit_graph(second).expect("analysis-clean graph");
        second_handle.cancel();
        release.send(()).unwrap();

        let first_run = first_handle.wait();
        assert!(first_run.succeeded(), "cancellation is per-submission");
        let second_run = second_handle.wait();
        assert!(!second_run.succeeded());
        assert!(second_run
            .outcomes
            .iter()
            .all(|outcome| matches!(outcome, NodeOutcome::Cancelled)));
        // Cancelled nodes never executed, so the trace records nothing.
        assert_eq!(second_run.trace.len(), 0);
        let failure = second_run.job_failure(usize::MAX);
        assert!(failure.is_none(), "cancellation is not a job failure");
    }

    #[test]
    fn concurrent_submissions_interleave_on_the_shared_queue() {
        // One worker, FIFO: the gated node of submission 1 occupies the worker
        // while its sibling and all of submission 2 queue behind it — so when
        // the gate opens, the queue holds waiting actions from two submissions
        // and the dispatched records observe ready_submissions > 1.
        let engine = Engine::uncached(&ImageStore::new()).with_workers(1);
        let (release, blocked) = gate();
        let mut first: ActionGraph<'static, std::convert::Infallible> = ActionGraph::new();
        first.add(ActionKind::Preprocess, "held", &[], move |_| {
            blocked.lock().unwrap().recv().ok();
            Ok(vec![1])
        });
        first.add(ActionKind::Preprocess, "sibling", &[], |_| Ok(vec![2]));
        let first_handle = engine.submit_graph(first).expect("analysis-clean graph");

        let mut second: ActionGraph<'static, std::convert::Infallible> = ActionGraph::new();
        second.add(ActionKind::Preprocess, "other", &[], |_| Ok(vec![3]));
        let second_handle = engine.submit_graph(second).expect("analysis-clean graph");
        // Both submissions now have queued work; release the worker.
        while engine.queue_stats().waiting_submissions < 2 {
            std::thread::yield_now();
        }
        release.send(()).unwrap();

        let first_run = first_handle.wait();
        let second_run = second_handle.wait();
        assert!(first_run.succeeded() && second_run.succeeded());
        let depth = first_run
            .trace
            .max_ready_submissions()
            .max(second_run.trace.max_ready_submissions());
        assert!(
            depth > 1,
            "actions from distinct submissions share the ready queue (depth {depth})"
        );
    }

    #[test]
    fn weighted_fair_gives_heavy_tenants_proportionally_earlier_dispatch() {
        // One worker and a gate: both tenants' submissions queue fully before
        // the first dispatch, then weighted fair queuing drains the heavy lane
        // four times as often as the light one — so the heavy submission's last
        // action is dispatched strictly before the light one's.
        let base = Engine::uncached(&ImageStore::new())
            .with_workers(1)
            .with_policy(
                WeightedFair::new()
                    .with_weight("heavy", 4)
                    .with_weight("light", 1),
            );
        let (release, blocked) = gate();
        let mut gate_graph: ActionGraph<'static, std::convert::Infallible> = ActionGraph::new();
        gate_graph.add(ActionKind::Preprocess, "gate", &[], move |_| {
            blocked.lock().unwrap().recv().ok();
            Ok(vec![0])
        });
        let gate_handle = base.submit_graph(gate_graph).expect("analysis-clean graph");

        let tenant_graph = |name: &'static str| {
            let mut graph: ActionGraph<'static, std::convert::Infallible> = ActionGraph::new();
            for unit in 0..4 {
                graph.add(
                    ActionKind::Preprocess,
                    format!("{name}{unit}"),
                    &[],
                    move |_| Ok(vec![unit as u8]),
                );
            }
            graph
        };
        let heavy = base.clone().with_tenant("heavy");
        let light = base.clone().with_tenant("light");
        let heavy_handle = heavy
            .submit_graph(tenant_graph("h"))
            .expect("analysis-clean");
        let light_handle = light
            .submit_graph(tenant_graph("l"))
            .expect("analysis-clean");
        while base.queue_stats().waiting_submissions < 2 {
            std::thread::yield_now();
        }
        release.send(()).unwrap();

        let heavy_run = heavy_handle.wait();
        let light_run = light_handle.wait();
        gate_handle.wait();
        assert!(heavy_run.succeeded() && light_run.succeeded());
        assert_eq!(heavy_run.trace.tenant.as_deref(), Some("heavy"));
        assert_eq!(light_run.trace.tenant.as_deref(), Some("light"));
        let last_seq = |run: &GraphRun<std::convert::Infallible>| {
            run.trace
                .records
                .iter()
                .map(|r| r.schedule_seq)
                .max()
                .unwrap()
        };
        assert!(
            last_seq(&heavy_run) < last_seq(&light_run),
            "weight 4 lane drains before weight 1 lane (heavy {} vs light {})",
            last_seq(&heavy_run),
            last_seq(&light_run)
        );
        // Queue-wait accounting is attributed per tenant.
        let waits = heavy_run.trace.queue_wait_micros_by_tenant();
        assert!(waits.contains_key("heavy"));
    }

    #[test]
    fn blocking_run_is_tenant_tagged_like_submissions() {
        let engine = Engine::uncached(&ImageStore::new())
            .with_workers(2)
            .with_tenant("acme");
        let mut graph: ActionGraph<'_, std::convert::Infallible> = ActionGraph::new();
        graph.add(ActionKind::Preprocess, "p", &[], |_| Ok(vec![1]));
        let run = engine.run(graph);
        assert!(run.succeeded());
        assert_eq!(run.trace.tenant.as_deref(), Some("acme"));
        assert_eq!(run.trace.records[0].tenant.as_deref(), Some("acme"));
    }
}
