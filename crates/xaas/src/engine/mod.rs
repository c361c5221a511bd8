//! The staged action-graph engine: one executor for every XaaS pipeline.
//!
//! The paper's source and IR containers are two points on one pipeline —
//! preprocess → (OpenMP-aware dedup) → lower-to-IR → specialize → link — and this
//! module makes that pipeline an explicit, cache-aware artifact instead of three
//! near-duplicate monolithic functions. The pieces:
//!
//! * [`graph`] — [`ActionGraph`]: a DAG of [`ActionKind`]-tagged nodes with explicit
//!   dependency edges, built stage by stage by the pipeline drivers; a node that
//!   breaks the construction contract is recorded as a [`GraphError`] at `add`,
//!   and the engine refuses that graph before enqueuing anything;
//! * [`executor`] — a worker pool that runs the ready frontier across threads,
//!   routes keyed nodes through the engine's [`ActionCache`] (memoizing, or the
//!   always-compute [bypass](ActionCache::bypass) of an uncached engine), and
//!   isolates failures to the failed node's transitive dependents;
//! * [`policy`] — the [`SchedulingPolicy`] deciding dispatch order: [`Fifo`]
//!   (default, one shared lane) or [`WeightedFair`] (one lane per tenant, fair
//!   queuing across them, every tenant at the same weight);
//! * [`trace`] — [`ActionTrace`]: a deterministic, node-ordered record of what ran
//!   and what the cache absorbed, from which the historical [`ActionSummary`]
//!   counters are derived;
//! * [`analysis`] — [`AnalysisReport`]: the plan-only report on a graph, its
//!   size and recorded construction defect, read on request
//!   ([`Engine::analyze`]) rather than on every submission;
//! * [`plan`] — the graph idioms the drivers share: deduplicated preprocess
//!   records, the keyed compile and lower records, and a deployment's commit
//!   record.
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
//! use xaas_container::ImageStore;
//!
//! let engine = Engine::uncached(&ImageStore::new());
//! let mut graph: ActionGraph<'_, std::convert::Infallible> = ActionGraph::new();
//! let hello = graph.add(ActionKind::Preprocess, "hello", &[], |_| Ok(b"hi".to_vec()));
//! let shout = graph.add(ActionKind::Link, "shout", &[hello], |inputs| {
//!     Ok(inputs.dep(0).to_ascii_uppercase())
//! });
//! let run = engine.run(graph)?;
//! assert_eq!(run.output(shout), Some(&b"HI"[..]));
//! # Ok::<(), xaas::engine::GraphError>(())
//! ```

#![deny(clippy::unwrap_used, clippy::dbg_macro)]
pub mod analysis;
pub mod executor;
pub mod graph;
pub mod plan;
pub mod policy;
pub mod trace;

pub use analysis::AnalysisReport;
pub use executor::{
    ActionOutputs, GraphHandle, GraphRun, JobFailure, NodeInfo, NodeOutcome, QueueStats,
};
pub use graph::{Action, ActionGraph, ActionId, ActionInputs, GraphError};
pub(crate) use plan::{KeyedActionPlanner, PreprocessPlanner};
pub use policy::{Fifo, SchedulingPolicy, WeightedFair};
pub use trace::{ActionKind, ActionRecord, ActionSummary, ActionTrace};

use std::sync::Arc;
use xaas_container::{ActionCache, CacheStats, ImageStore};

/// The shared execution engine: a persistent worker pool, an [`ActionCache`],
/// and a [`SchedulingPolicy`].
///
/// Cloning is cheap and clones **share the worker pool** (plus the cache,
/// policy, and dispatch counter) — that is how one engine serves many sessions:
/// the [`OrchestratorService`](crate::service::OrchestratorService) hands every
/// session a tenant-tagged clone, and all their submissions interleave through
/// the pool's single multi-graph ready queue. Configure (workers / tenant)
/// *before* submitting work: [`with_workers`](Self::with_workers) starts a
/// fresh core (pool, queue and dispatch counter), so clones made earlier keep
/// the old one.
///
/// The pool is spawned lazily on first submission and torn down when the last
/// clone drops, after the dropping thread has run in-flight submissions to
/// completion beside it.
///
/// A thread waiting in [`run`](Self::run) or [`GraphHandle::wait`] is one more
/// executor: it runs ready nodes of any submission, in policy order, until its
/// own completes. So at most the workers plus the waiting threads run at once,
/// and a node closure may run on any waiting thread: never hold a lock across
/// `run` or `wait` that a node closure may take.
#[derive(Clone)]
pub struct Engine {
    /// The pool, with the cache, policy and worker count it was built with.
    core: Arc<executor::ExecutorCore>,
    /// The tenant tag stamped on this clone's submissions (scheduling identity
    /// under fair queuing, attribution in traces). Per-clone: tenant clones of one
    /// engine still share the pool.
    tenant: Option<String>,
}

impl Engine {
    /// An engine that routes every keyed action through `cache` (sharing its
    /// state), with a worker count derived from the host parallelism (clamped to
    /// `[2, 8]` — actions are small compile steps) and the default [`Fifo`]
    /// policy.
    pub fn cached(cache: &ActionCache) -> Self {
        Self::configured(cache.clone(), SchedulingPolicy::Fifo, None)
    }

    /// An engine over `cache` under `policy`, with `workers` workers (at least
    /// 1; by default the host parallelism clamped to `[2, 8]`).
    pub(crate) fn configured(
        cache: ActionCache,
        policy: SchedulingPolicy,
        workers: Option<usize>,
    ) -> Self {
        let workers = workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 8)
        });
        Self {
            core: Arc::new(executor::ExecutorCore::new(cache, policy, workers.max(1))),
            tenant: None,
        }
    }

    /// An engine that never caches: it runs on an [`ActionCache::bypass`] over
    /// `store`, so every action executes and artifacts and images land in
    /// `store`.
    pub fn uncached(store: &ImageStore) -> Self {
        Self::cached(&ActionCache::bypass(store.clone()))
    }

    /// Override the worker count (at least 1). One worker and one waiting caller
    /// give the smallest schedule — the reference the property tests compare
    /// parallel runs against. (Execution order is dependency-driven, not node
    /// order; outputs and traces are assembled in node order regardless of
    /// schedule.) Starts a fresh pool: configure before submitting work.
    pub fn with_workers(mut self, workers: usize) -> Self {
        let (cache, policy) = (self.core.cache().clone(), self.core.policy());
        self.core = Self::configured(cache, policy, Some(workers)).core;
        self
    }

    /// Tag this engine clone's submissions with a tenant: the scheduling identity
    /// fair-queuing policies lane by, and the `tenant` attribution recorded in
    /// [`ActionRecord`]s and [`ActionTrace`]s. The clone **shares** the pool, the
    /// cache, and the queue with its siblings — tenancy is submission metadata,
    /// not isolation. This is how the
    /// [`OrchestratorService`](crate::service::OrchestratorService) multiplexes
    /// sessions onto one engine.
    pub(crate) fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// The tenant tag of this engine clone, if any.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Report on `graph` under this engine's policy and tenant tag: its size
    /// and its recorded construction defect. Read-only: nothing is scheduled,
    /// and no submission runs it.
    pub fn analyze<E>(&self, graph: &ActionGraph<'_, E>) -> AnalysisReport {
        AnalysisReport {
            policy: self.core.policy().name().to_string(),
            tenant: self.tenant.clone(),
            nodes: graph.len(),
            error: graph.error(),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// The scheduling policy runs execute under.
    pub fn policy(&self) -> SchedulingPolicy {
        self.core.policy()
    }

    /// The cache every keyed action routes through.
    pub fn cache(&self) -> &ActionCache {
        self.core.cache()
    }

    /// The cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.core.cache().stats()
    }

    /// The content-addressed store behind the cache (images are committed here).
    pub fn store(&self) -> &ImageStore {
        self.core.cache().store()
    }

    /// Execute `graph` to completion: enqueue its ready frontier on the shared
    /// pool under the engine's scheduling policy, route keyed nodes through the
    /// cache, record a deterministic [`ActionTrace`], isolate failures to their
    /// transitive dependents, and block until every node has retired.
    ///
    /// Every request runs through here. It shares the queue, the workers and the
    /// interleaving with concurrent submissions, and the caller waits in place,
    /// so the graph may borrow the caller's frame.
    ///
    /// The waiting thread runs ready nodes of any submission, in policy order,
    /// until this graph completes, so a run needs no free worker. It may return
    /// up to one node late, and a node closure of another submission may run on
    /// it: never hold a lock across `run` that a node closure may take.
    ///
    /// A graph that recorded a construction defect ([`ActionGraph::error`]) is
    /// refused with that [`GraphError`] before any node is enqueued.
    pub fn run<'env, E: Send + 'static>(
        &self,
        graph: ActionGraph<'env, E>,
    ) -> Result<GraphRun<E>, GraphError> {
        if let Some(error) = graph.error() {
            return Err(error);
        }
        Ok(self.core.run_blocking(graph, self.tenant.clone()))
    }

    /// Submit `graph` without blocking and get a [`GraphHandle`] back to
    /// [`wait`](GraphHandle::wait) on. The graph's actions join the pool's
    /// shared ready queue, interleaving with every other live submission at
    /// action granularity. The graph must own its environment (`'static`)
    /// because execution outlives this call — for borrowed environments use the
    /// blocking [`run`](Self::run).
    ///
    /// A graph that recorded a construction defect is refused with its
    /// [`GraphError`], as by [`run`](Self::run): no worker executes, no cache
    /// entry is touched, no queue slot is taken.
    pub fn submit_graph<E: Send + 'static>(
        &self,
        graph: ActionGraph<'static, E>,
    ) -> Result<GraphHandle<E>, GraphError> {
        if let Some(error) = graph.error() {
            return Err(error);
        }
        Ok(self.core.submit_graph(graph, self.tenant.clone()))
    }

    /// A snapshot of the shared ready queue: how many actions are queued, how
    /// many submissions still have queued work, and how many submissions are
    /// live (admitted but not yet complete).
    pub fn queue_stats(&self) -> QueueStats {
        self.core.queue_stats()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.core.workers)
            .field("policy", &self.core.policy().name())
            .field("cache", &self.core.cache().stats())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use xaas_container::{BuildKey, Derivation};

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
        let run = engine.run(graph).unwrap();
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
        let run = engine.run(graph).unwrap();
        assert!(!run.succeeded());
        assert!(matches!(&run.outcomes[bad], NodeOutcome::Failed(e) if e == "boom"));
        assert!(matches!(
            run.outcomes[downstream],
            NodeOutcome::Skipped { root } if root == bad
        ));
        assert_eq!(run.output(independent), Some(&b"fine"[..]));
        // into_outputs surfaces the typed error of the failing node.
        assert_eq!(run.into_outputs().unwrap_err(), "boom");
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

        // Keyed actions behave the same: the panic crosses the cache.
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
        let cold = engine.run(build("cold", &calls)).unwrap();
        assert!(cold.succeeded());
        assert_eq!(
            cold.trace.summary(),
            ActionSummary {
                executed: 3,
                cached: 0
            }
        );
        let warm = engine.run(build("warm", &calls)).unwrap();
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

    /// A record that counts its runs on `runs`, unkeyed.
    struct Counted<'a>(&'a AtomicUsize);

    impl Action for Counted<'_> {
        const KIND: ActionKind = ActionKind::Preprocess;
        const KEYED: bool = false;
        type Error = String;

        fn derive(&self, _: Option<&ActionInputs>, record: Derivation) -> Derivation {
            let Self(_) = self;
            record
        }

        fn run(self, _: &ActionInputs) -> Result<Vec<u8>, String> {
            Ok(vec![self.0.fetch_add(1, Ordering::SeqCst) as u8])
        }
    }

    /// An unkeyed record runs in every submission, as a closure does: the cache
    /// neither serves nor counts it, and its trace record carries no key.
    #[test]
    fn an_unkeyed_record_runs_every_time_and_leaves_the_cache_alone() {
        let cache = ActionCache::new(ImageStore::new());
        let engine = Engine::cached(&cache).with_workers(2);
        let mut keyed: ActionGraph<'_, String> = ActionGraph::new();
        keyed.add_cached(ActionKind::IrLower, "keyed", key("k"), &[], |_| Ok(vec![9]));
        assert!(engine.run(keyed).unwrap().succeeded());
        let counts = |stats: CacheStats| (stats.entries, stats.hits, stats.misses);
        let before = counts(cache.stats());
        assert_eq!(before, (1, 0, 1));

        let runs = AtomicUsize::new(0);
        for round in 0..2u8 {
            let mut graph: ActionGraph<'_, String> = ActionGraph::new();
            let node = graph.add_action("counted", Counted(&runs), &[]);
            let run = engine.run(graph).unwrap();
            assert_eq!(run.output(node), Some(&[round][..]));
            let record = &run.trace.records[node];
            assert_eq!((record.key_digest.as_deref(), record.cached), (None, false));
        }
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        assert_eq!(counts(cache.stats()), before);
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
            .run(build_graph(&counter))
            .unwrap();
        let parallel = Engine::uncached(&ImageStore::new())
            .with_workers(8)
            .run(build_graph(&counter))
            .unwrap();
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
        let first_handle = engine.submit_graph(first).unwrap();

        let mut second: ActionGraph<'static, std::convert::Infallible> = ActionGraph::new();
        second.add(ActionKind::Preprocess, "other", &[], |_| Ok(vec![3]));
        let second_handle = engine.submit_graph(second).unwrap();
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
    fn blocking_run_is_tenant_tagged_like_submissions() {
        let engine = Engine::uncached(&ImageStore::new())
            .with_workers(2)
            .with_tenant("acme");
        let mut graph: ActionGraph<'_, std::convert::Infallible> = ActionGraph::new();
        graph.add(ActionKind::Preprocess, "p", &[], |_| Ok(vec![1]));
        let run = engine.run(graph).unwrap();
        assert!(run.succeeded());
        assert_eq!(run.trace.tenant.as_deref(), Some("acme"));
        assert_eq!(run.trace.records[0].tenant.as_deref(), Some("acme"));
    }

    /// Counts its own drop: a closure that owns one has run or been dropped.
    struct Dropped<'a>(&'a AtomicUsize);

    impl Drop for Dropped<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A node closure that owns a [`Dropped`] guard on `drops` and runs `body`.
    fn guarded<'a>(
        drops: &'a AtomicUsize,
        body: impl FnOnce() -> Result<Vec<u8>, String> + Send + 'a,
    ) -> impl FnOnce(&ActionInputs) -> Result<Vec<u8>, String> + Send + 'a {
        let guard = Dropped(drops);
        move |_| {
            let _guard = guard;
            body()
        }
    }

    /// A record that owns a [`Dropped`] guard, keyed by `unit`.
    struct GuardedRecord<'a> {
        unit: &'static str,
        _guard: Dropped<'a>,
    }

    impl Action for GuardedRecord<'_> {
        const KIND: ActionKind = ActionKind::IrLower;
        type Error = String;

        fn derive(&self, _: Option<&ActionInputs>, record: Derivation) -> Derivation {
            let Self {
                unit,
                // Instrumentation: it counts drops and changes no output.
                _guard: _,
            } = self;
            record.str(unit)
        }

        fn run(self, _: &ActionInputs) -> Result<Vec<u8>, String> {
            Ok(self.unit.as_bytes().to_vec())
        }
    }

    /// The contract the lifetime erasure of `Engine::run` rests on: when control
    /// returns to the caller, every node's closure or record has run or been
    /// dropped — whether the node failed, was skipped behind a failure, panicked,
    /// or was served from the cache without running.
    #[test]
    fn every_closure_has_run_or_been_dropped_when_control_returns() {
        let engine = Engine::uncached(&ImageStore::new()).with_workers(2);

        // A failed root and the chain of dependents it skips.
        let drops = AtomicUsize::new(0);
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        let mut last = graph.add(
            ActionKind::Preprocess,
            "root",
            &[],
            guarded(&drops, || Err("root failed".to_string())),
        );
        for link in 0..3 {
            let run = guarded(&drops, || Ok(vec![]));
            last = graph.add(ActionKind::Link, format!("link{link}"), &[last], run);
        }
        let run = engine.run(graph).unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 4);
        assert!(matches!(
            run.outcomes[last],
            NodeOutcome::Skipped { root: 0 }
        ));

        // A panicking action, its dependent and an independent node.
        let drops = AtomicUsize::new(0);
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        let boom = graph.add(
            ActionKind::Preprocess,
            "boom",
            &[],
            guarded(&drops, || panic!("kaboom")),
        );
        graph.add(
            ActionKind::Link,
            "after",
            &[boom],
            guarded(&drops, || Ok(vec![])),
        );
        graph.add(
            ActionKind::Preprocess,
            "fine",
            &[],
            guarded(&drops, || Ok(vec![])),
        );
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(graph)));
        assert!(
            panicked.is_err(),
            "the action panic re-raises on the caller"
        );
        assert_eq!(drops.load(Ordering::SeqCst), 3);

        // A warm rerun: every keyed node is a cache hit, so no closure runs.
        let cache = ActionCache::new(ImageStore::new());
        let cached = Engine::cached(&cache).with_workers(2);
        let uncounted = AtomicUsize::new(0);
        let key_of_d = GuardedRecord {
            unit: "d",
            _guard: Dropped(&uncounted),
        }
        .identity();
        for _ in 0..2 {
            let drops = AtomicUsize::new(0);
            let mut graph: ActionGraph<'_, String> = ActionGraph::new();
            for unit in ["a", "b", "c"] {
                let run = guarded(&drops, || Ok(vec![1]));
                graph.add_cached(ActionKind::IrLower, unit, key(unit), &[], run);
            }
            // A record and its cache-probe alias, which never runs.
            let record = |unit| GuardedRecord {
                unit,
                _guard: Dropped(&drops),
            };
            let primary = graph.add_action("d", record("d"), &[]);
            let identity = key_of_d.clone();
            graph.add_alias("d alias", record("d"), identity, &[], primary);
            assert!(cached.run(graph).unwrap().succeeded());
            assert_eq!(drops.load(Ordering::SeqCst), 5);
        }
    }
}
