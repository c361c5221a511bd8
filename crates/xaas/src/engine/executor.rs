//! The executor: a persistent worker pool draining one shared, multi-graph ready
//! queue, routing keyed nodes through the engine's action cache.
//!
//! Every submission joins one shared ready queue, and the pool interleaves
//! actions from every live submission at action granularity — the shape a
//! multi-tenant orchestrator service needs. [`Engine::run`](super::Engine::run)
//! submits and waits in place, so single-caller pipelines share the same queue
//! (and the same cache single-flight) as concurrent sessions;
//! [`Engine::submit_graph`](super::Engine::submit_graph) takes an owned graph and
//! returns a [`GraphHandle`] to [`wait`](GraphHandle::wait) on later. A submission
//! always runs to completion.
//!
//! The executors are the pool's workers, every thread waiting on a submission,
//! and the thread dropping the engine's last clone, and all of them run one
//! loop, `CoreShared::run_until`: pop nodes of any submission in policy order
//! and run them until a predicate holds (shutdown, the submission completed, no
//! submission live), parking on the pool's `idle`/`wakeup` pair only when
//! nothing is ready. So a blocking run needs no free worker, and at most the
//! workers plus the waiting threads run at once. A waiter returns at most one
//! node late: it may be mid-way through another submission's node when its own
//! completes.
//!
//! Workers **never block on another action's outcome**. A keyed node routes
//! through the cache's nonblocking flight protocol
//! ([`CacheBackend::try_begin`]): a hit finishes immediately, an owner computes,
//! and a node that finds its key `InFlight` *parks as a continuation* on the
//! flight — its work is put back and the worker pops the next ready action.
//! Retiring the flight (complete, fail, or poison) re-enqueues every parked
//! waiter through the normal ready queue: a completed flight finishes them as
//! coalesced hits, a failed one lets them retry (and one becomes the next owner).
//!
//! Scheduling goes through one ready queue of FIFO lanes: finished nodes push
//! their newly-ready dependents, and free workers pop the next node the engine's
//! [`SchedulingPolicy`] selects — readiness order through one shared lane under
//! [`Fifo`](super::policy::Fifo), one lane per tenant dispatched by lowest
//! virtual time under [`WeightedFair`](super::policy::WeightedFair). A lane lives
//! exactly as long as its tenant has a live submission. A failed
//! node does **not** cancel its run — independent subgraphs keep executing and
//! only the failed node's transitive dependents are skipped, which is what lets
//! the fleet specializer isolate one system's failure from the rest of the fleet.
//!
//! Results are assembled in node order, so everything observable from a run —
//! outputs, trace records, error attribution — is deterministic regardless of how
//! the workers interleaved submissions. The *schedule itself* is additionally
//! observable (and policy-dependent) through each record's `schedule_seq`,
//! `queue_wait_micros`, and `ready_submissions` diagnostics, which are
//! deliberately excluded from trace equality.
//!
//! A submission holds one cell per node: the node's static part (its
//! [`NodeInfo`], dependencies and dependents), its count of dependencies still
//! to retire, and one lock over everything that changes while it runs — its
//! one-shot work, outcome, trace record, the flight outcome a waker stashed for
//! it, and its wait and park clocks. Lock order is ready queue → node, never the
//! reverse, and no node lock is held across a cache call or while a node's
//! closure or record runs.

#![deny(clippy::unwrap_used, clippy::dbg_macro)]
use super::graph::{ActionGraph, ActionId, ActionInputs, ActionNode, ErasedError, Work};
use super::policy::SchedulingPolicy;
use super::trace::{ActionKind, ActionRecord, ActionTrace};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::time::Instant;
use xaas_container::{
    ActionCache, Blob, BuildKey, CacheBackend, CacheTier, FlightError, FlightId, FlightOutcome,
    FlightWaker, TryBegin,
};

/// The terminal state of one node after a run.
#[derive(Debug)]
pub enum NodeOutcome<E> {
    /// The node completed (executed or cache-served) with this output blob. The
    /// handle shares its allocation with the cache/store and every dependent node.
    Output(Blob),
    /// The node's closure or record returned this error.
    Failed(E),
    /// The node was skipped because `root` (a transitive dependency) failed.
    Skipped {
        /// The failed ancestor that poisoned this node.
        root: ActionId,
    },
}

impl<E> NodeOutcome<E> {
    /// The output bytes, if the node completed.
    pub fn output(&self) -> Option<&[u8]> {
        match self {
            NodeOutcome::Output(bytes) => Some(bytes),
            _ => None,
        }
    }

    /// Whether the node completed successfully.
    pub fn is_ok(&self) -> bool {
        matches!(self, NodeOutcome::Output(_))
    }
}

/// The per-node output blobs of a completed run, in node order. Each entry is a
/// cheaply-clonable handle; taking one out of the run never copies the payload.
pub type ActionOutputs = Vec<Blob>;

/// Static description of one node of a completed run: its stage, human-readable
/// label, and the job tag it was grafted under (see
/// [`ActionGraph::set_job`]). Available for *every* node — including failed and
/// skipped ones, which leave no [`ActionRecord`] behind — so callers can attribute
/// failures to the subgraph that planned them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// The pipeline stage of the node.
    pub kind: ActionKind,
    /// Human-readable identity (usually the file or unit the action worked on).
    pub label: String,
    /// The job tag in effect when the node was added, if any.
    pub job: Option<usize>,
}

/// The failure poisoning one job of a run: the root failing node (which may belong
/// to *another* job when a shared artifact's compute node failed), its static
/// description, and the typed error it returned.
#[derive(Debug)]
pub struct JobFailure<'run, E> {
    /// The failed node every affected node of the job transitively depends on.
    pub node: ActionId,
    /// Static description of the failing node (kind, label, owning job).
    pub info: &'run NodeInfo,
    /// The typed error the failing node returned.
    pub error: &'run E,
}

/// The result of running one [`ActionGraph`] through the engine.
#[derive(Debug)]
pub struct GraphRun<E> {
    /// Per-node outcomes, indexed by [`ActionId`].
    pub outcomes: Vec<NodeOutcome<E>>,
    /// Deterministic trace of the completed actions (node order).
    pub trace: ActionTrace,
    /// Static per-node info (kind, label, job tag), indexed by [`ActionId`].
    infos: Vec<NodeInfo>,
}

impl<E> GraphRun<E> {
    /// Whether every node completed.
    pub fn succeeded(&self) -> bool {
        self.outcomes.iter().all(NodeOutcome::is_ok)
    }

    /// The failure poisoning `job`'s subgraph, if any: scans the job's nodes in
    /// node order and resolves the first non-completed one to its root failing
    /// node. The root may belong to a different job when the jobs share a keyed
    /// artifact whose computation failed.
    pub fn job_failure(&self, job: usize) -> Option<JobFailure<'_, E>> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(id, _)| self.infos[*id].job == Some(job))
            .find_map(|(id, outcome)| {
                let root = match outcome {
                    NodeOutcome::Output(_) => return None,
                    NodeOutcome::Failed(_) => id,
                    NodeOutcome::Skipped { root } => *root,
                };
                match &self.outcomes[root] {
                    NodeOutcome::Failed(error) => Some(JobFailure {
                        node: root,
                        info: &self.infos[root],
                        error,
                    }),
                    _ => None,
                }
            })
    }

    /// The output of one node, if it completed.
    pub fn output(&self, id: ActionId) -> Option<&[u8]> {
        self.outcomes.get(id).and_then(NodeOutcome::output)
    }

    /// The output handle of one node, if it completed.
    pub(crate) fn blob(&self, id: ActionId) -> Option<&Blob> {
        match self.outcomes.get(id) {
            Some(NodeOutcome::Output(blob)) => Some(blob),
            _ => None,
        }
    }

    /// All outputs in node order, or the error of the first (lowest node id)
    /// failed node.
    ///
    /// The first node that did not complete is always a failed one: dependencies
    /// precede dependents in node order, so a skipped node's root failure comes
    /// first, and a run with a panicking node re-raises the panic instead of
    /// being handed back.
    pub fn into_outputs(self) -> Result<(ActionOutputs, ActionTrace), E> {
        let mut outputs = Vec::with_capacity(self.outcomes.len());
        for outcome in self.outcomes {
            match outcome {
                NodeOutcome::Output(bytes) => outputs.push(bytes),
                NodeOutcome::Failed(error) => return Err(error),
                // Its lower-id root was returned above.
                NodeOutcome::Skipped { .. } => {}
            }
        }
        Ok((outputs, self.trace))
    }
}

/// Pretend a graph's nodes borrow nothing.
///
/// # Safety
/// The caller must guarantee every node's boxed work — an `add` closure or an
/// [`Action`](super::graph::Action) record — is **run or dropped before `'env`
/// ends**. The blocking-run path upholds this by (a) running nodes until the
/// submission completes before returning — and on unwind waiting for it, via
/// [`WaitOnDrop`] — and (b) a submission completing only once every node has
/// retired, each having run or dropped its work first (see [`CoreShared::step`]).
#[allow(unsafe_code)]
unsafe fn assume_static(nodes: Vec<ActionNode<'_>>) -> Vec<ActionNode<'static>> {
    // SAFETY: `ActionNode<'a>` and `ActionNode<'static>` are the same type up to
    // the trait-object lifetime bound of the boxed work; the caller upholds the
    // outlives contract.
    std::mem::transmute(nodes)
}

/// One node of a submission: the static part fixed at submission, the count of
/// dependencies still to retire, and one lock over everything that changes.
struct Node {
    info: NodeInfo,
    deps: Vec<ActionId>,
    dependents: Vec<ActionId>,
    /// Whether the work reads its dependencies' digests.
    reads_dep_digests: bool,
    /// Whether a dependent reads this node's digest, so the node keeps the one
    /// the cache holds for its output.
    keeps_digest: bool,
    /// Dependencies not yet retired; the node is queued when this reaches zero.
    pending: AtomicUsize,
    state: Mutex<NodeState>,
}

/// What changes while a node runs. Its lock is never held across a cache call,
/// while its work runs or drops, or while the ready lock is taken.
#[derive(Default)]
struct NodeState {
    /// Taken at every dispatch; a node parking on a flight puts it back for the
    /// re-dispatch its waker queues.
    work: Option<Box<dyn Work>>,
    /// The cache key, taken at every dispatch: fixed when the node was added, or
    /// derived from the dependency outputs at the first dispatch and put back
    /// when the node parks.
    key: Option<BuildKey>,
    /// `None` until the node retires.
    outcome: Option<NodeOutcome<ErasedError>>,
    /// The SHA-256 the cache holds for the output, kept (before the node
    /// retires) only when a dependent reads it: boxed, so the other nodes pay
    /// one word for it.
    digest: Option<Box<[u8; 32]>>,
    record: Option<ActionRecord>,
    /// The flight outcome a waker stashed for the node's re-dispatch.
    wake: Option<FlightOutcome>,
    /// Queue-wait micros of earlier dispatches (a parked node re-enters the
    /// queue; its final record reports the cumulative wait).
    accrued_wait: u64,
    /// Micros spent parked as a single-flight waiter, and how many times.
    parked_micros: u64,
    parks: u64,
}

/// One submitted graph: a [`Node`] cell per node plus the run-wide state. Shared
/// between the executors (via queue entries) and the submitter's
/// [`GraphHandle`] / blocking waiter.
struct Submission {
    /// Engine-global submission id (queue-depth accounting).
    id: u64,
    /// The submitter's tenant tag: trace attribution, and under fair queuing the
    /// lane this submission dispatches through.
    tenant: Option<String>,
    policy: SchedulingPolicy,
    stage_depth: usize,
    nodes: Vec<Node>,
    remaining: AtomicUsize,
    /// The first caught action panic; re-raised on the waiting thread, so a
    /// panicking action behaves like it would on a serial executor instead of
    /// killing a pool worker.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set (`Release`) by the executor that retires the last node, after every
    /// node's outcome is stored; a waiter that loads it (`Acquire`) true sees
    /// them all.
    done: AtomicBool,
}

impl Submission {
    /// Lay out one cell per node, wiring each dependency to its dependents.
    fn new(
        id: u64,
        tenant: Option<String>,
        policy: SchedulingPolicy,
        stage_depth: usize,
        nodes: Vec<ActionNode<'static>>,
    ) -> Self {
        let mut dependents: Vec<Vec<ActionId>> = vec![Vec::new(); nodes.len()];
        let mut keeps_digest = vec![false; nodes.len()];
        for (node_id, node) in nodes.iter().enumerate() {
            for &dep in &node.deps {
                dependents[dep].push(node_id);
                keeps_digest[dep] |= node.work.reads().1;
            }
        }
        let nodes: Vec<Node> = nodes
            .into_iter()
            .zip(dependents)
            .zip(keeps_digest)
            .map(|((node, dependents), keeps_digest)| Node {
                pending: AtomicUsize::new(node.deps.len()),
                info: node.info,
                deps: node.deps,
                dependents,
                reads_dep_digests: node.work.reads().1,
                keeps_digest,
                state: Mutex::new(NodeState {
                    work: Some(node.work),
                    key: node.key,
                    ..NodeState::default()
                }),
            })
            .collect();
        Self {
            id,
            tenant,
            policy,
            stage_depth,
            remaining: AtomicUsize::new(nodes.len()),
            panic_payload: Mutex::new(None),
            done: AtomicBool::new(nodes.is_empty()),
            nodes,
        }
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Run `f`, recording a panic as the submission's payload (the first one
    /// wins) instead of unwinding the worker; `None` when it panicked.
    fn catch<T>(&self, f: impl FnOnce() -> T) -> Option<T> {
        match std::panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(value) => Some(value),
            Err(payload) => {
                self.panic_payload.lock().get_or_insert(payload);
                None
            }
        }
    }

    /// The outputs of `node`'s dependencies — with the digests they kept, when
    /// `node` reads them — or the skip the first failed or skipped one passes on
    /// to it.
    fn inputs(&self, node: ActionId) -> Result<ActionInputs, NodeOutcome<ErasedError>> {
        let Node {
            deps,
            reads_dep_digests,
            ..
        } = &self.nodes[node];
        let mut inputs = Vec::with_capacity(deps.len());
        let mut digests = Vec::with_capacity(if *reads_dep_digests { deps.len() } else { 0 });
        for &dep in deps {
            let state = self.nodes[dep].state.lock();
            match &state.outcome {
                Some(NodeOutcome::Output(blob)) => inputs.push(blob.clone()),
                Some(NodeOutcome::Failed(_)) => return Err(NodeOutcome::Skipped { root: dep }),
                Some(NodeOutcome::Skipped { root }) => {
                    return Err(NodeOutcome::Skipped { root: *root })
                }
                None => unreachable!("node scheduled before dependency finished"),
            }
            if *reads_dep_digests {
                digests.push(state.digest.as_deref().copied());
            }
        }
        Ok(ActionInputs::digested(inputs, digests))
    }
}

/// Waits for a submission to complete when dropped: the unwind-safety net that
/// keeps the blocking-run lifetime erasure sound (borrowed work can never
/// outlive the frame that submitted it). On an unwind
/// [`run_until`](CoreShared::run_until) only sleeps: running nodes then could
/// panic again and abort.
struct WaitOnDrop<'a>(&'a Arc<CoreShared>, &'a Submission);

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        self.0.run_until(|| self.1.is_done());
    }
}

/// One ready-queue entry: a node of a specific submission, and when it entered
/// the queue (micros since the core's epoch).
struct Queued {
    sub: Arc<Submission>,
    node: ActionId,
    enqueued_at: u64,
}

/// One FIFO slice of the ready queue. Under [`Fifo`](super::policy::Fifo) there
/// is a single anonymous lane; under fair queuing each tenant with a live
/// submission has one, and the scheduler dispatches from the lane with the
/// lowest virtual time.
struct Lane {
    queue: VecDeque<Queued>,
    /// Fair-queuing virtual time: advanced by one per dispatched action.
    vtime: u64,
    /// Submissions dispatching through this lane that have not completed yet;
    /// the lane is dropped when the last one does.
    live: usize,
}

/// The shared multi-graph ready queue: tenant lanes, the fair-queuing clock, and
/// cross-submission depth accounting. Plain state — it reads no wall clock and
/// knows nothing of the worker pool, so lane order is testable single-threaded.
struct Ready {
    /// Lanes by tenant; unless `fair`, only the anonymous `None` lane.
    lanes: BTreeMap<Option<String>, Lane>,
    /// Whether submissions lane by tenant (fair queuing) or share one.
    fair: bool,
    /// Virtual time of the most recent dispatch; newly active lanes start here so
    /// an idle tenant cannot bank scheduling credit.
    virtual_now: u64,
    /// Entries waiting, across all lanes.
    queued_actions: usize,
    /// Waiting entries per submission id — `len()` is the multi-graph queue depth
    /// recorded in [`ActionRecord::ready_submissions`].
    waiting: BTreeMap<u64, usize>,
    /// Continuations currently parked on a cache flight (*not* in
    /// `queued_actions` while parked).
    parked_waiters: usize,
    /// Cumulative parks since the core started.
    parks: u64,
    /// Cumulative wakes since the core started.
    wakeups: u64,
    /// The next dispatch's `schedule_seq`: taken under the ready lock, so the
    /// order of `schedule_seq` values is the policy's pop order.
    seq: u64,
}

impl Ready {
    fn new(policy: SchedulingPolicy) -> Self {
        Self {
            lanes: BTreeMap::new(),
            fair: policy == SchedulingPolicy::WeightedFair,
            virtual_now: 0,
            queued_actions: 0,
            waiting: BTreeMap::new(),
            parked_waiters: 0,
            parks: 0,
            wakeups: 0,
            seq: 0,
        }
    }

    fn lane_key<'a>(&self, tenant: &'a Option<String>) -> &'a Option<String> {
        if self.fair {
            tenant
        } else {
            &None
        }
    }

    /// Count a new live submission of `tenant` against its lane, opening the lane
    /// at the current virtual time when the tenant had none.
    fn open(&mut self, tenant: &Option<String>) {
        let key = self.lane_key(tenant);
        if let Some(lane) = self.lanes.get_mut(key) {
            lane.live += 1;
            return;
        }
        let lane = Lane {
            queue: VecDeque::new(),
            vtime: self.virtual_now,
            live: 1,
        };
        self.lanes.insert(key.clone(), lane);
    }

    /// A submission of `tenant` completed; its lane retires with the last one, so
    /// dispatch scans only tenants that have work in the system.
    fn close(&mut self, tenant: &Option<String>) {
        let key = self.lane_key(tenant);
        let lane = self
            .lanes
            .get_mut(key)
            .expect("a live submission holds its lane open");
        lane.live -= 1;
        if lane.live == 0 {
            debug_assert!(lane.queue.is_empty(), "completed submissions queue nothing");
            self.lanes.remove(key);
        }
    }

    /// Enqueue a node that just became ready (or was woken from a flight).
    fn push(&mut self, item: Queued) {
        self.queued_actions += 1;
        *self.waiting.entry(item.sub.id).or_insert(0) += 1;
        let virtual_now = self.virtual_now;
        let key = self.lane_key(&item.sub.tenant);
        let lane = self
            .lanes
            .get_mut(key)
            .expect("a live submission holds its lane open");
        if lane.queue.is_empty() {
            // An idle tenant re-enters at the current virtual time instead of
            // replaying the credit it banked while absent.
            lane.vtime = lane.vtime.max(virtual_now);
        }
        lane.queue.push_back(item);
    }

    /// Take the next node in policy order: the head of the non-empty lane with
    /// the lowest virtual time (ties go to the lowest tenant name, the untenanted
    /// lane first), charging that lane's clock. Returns the node and the number
    /// of distinct submissions with waiting actions at that moment, its own
    /// included.
    fn pop(&mut self) -> Option<(Queued, u64)> {
        let lane = self
            .lanes
            .values_mut()
            .filter(|lane| !lane.queue.is_empty())
            .min_by_key(|lane| lane.vtime)?;
        let item = lane.queue.pop_front().expect("lane is non-empty");
        lane.vtime += 1;
        self.virtual_now = lane.vtime;
        let ready_submissions = self.waiting.len() as u64;
        self.queued_actions -= 1;
        match self.waiting.get_mut(&item.sub.id) {
            Some(count) if *count > 1 => *count -= 1,
            _ => {
                self.waiting.remove(&item.sub.id);
            }
        }
        Some((item, ready_submissions))
    }
}

/// A dispatched node plus its scheduling diagnostics.
struct Dispatch {
    item: Queued,
    wait_micros: u64,
    seq: u64,
    /// Distinct submissions with waiting actions at dispatch time (incl. this one).
    ready_submissions: u64,
}

/// Point-in-time occupancy of the engine's shared ready queue (see
/// [`Engine::queue_stats`](super::Engine::queue_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Actions waiting in the ready queue (flight waiters leave the queue while
    /// parked).
    pub queued_actions: usize,
    /// Distinct submissions with at least one waiting action.
    pub waiting_submissions: usize,
    /// Submissions accepted but not yet completed (waiting or executing).
    pub live_submissions: usize,
    /// Continuations currently parked on another action's cache flight.
    pub parked_waiters: usize,
    /// Cumulative parks since the engine core started.
    pub parks: u64,
    /// Cumulative wakes since the engine core started.
    pub wakeups: u64,
}

/// Everything the executors share: the cache, the policy, and the ready queue.
struct CoreShared {
    cache: ActionCache,
    policy: SchedulingPolicy,
    /// Clock origin for `enqueued_at` / queue-wait accounting.
    epoch: Instant,
    submission_ids: AtomicU64,
    ready: Mutex<Ready>,
    /// Idle workers and waiters park here instead of spinning; a finishing node
    /// wakes them.
    idle: StdMutex<()>,
    wakeup: Condvar,
    shutdown: AtomicBool,
    live_submissions: AtomicUsize,
}

impl CoreShared {
    fn now_micros(&self) -> u64 {
        (self.epoch.elapsed().as_micros() as u64).max(1)
    }

    fn notify_workers(&self, all: bool) {
        let _guard = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        if all {
            self.wakeup.notify_all();
        } else {
            self.wakeup.notify_one();
        }
    }

    /// Register and seed a submission. The lane is opened and the whole initial
    /// frontier seeded under one ready-lock acquisition, so no worker can observe
    /// (and dispatch from) a half-seeded frontier — this is what keeps
    /// single-worker dispatch order deterministic for the policy tests.
    fn submit(
        self: &Arc<Self>,
        nodes: Vec<ActionNode<'static>>,
        stage_depth: usize,
        tenant: Option<String>,
    ) -> Arc<Submission> {
        let sub = Arc::new(Submission::new(
            self.submission_ids.fetch_add(1, Ordering::Relaxed),
            tenant,
            self.policy,
            stage_depth,
            nodes,
        ));
        if sub.nodes.is_empty() {
            return sub;
        }
        self.live_submissions.fetch_add(1, Ordering::AcqRel);
        {
            let mut ready = self.ready.lock();
            ready.open(&sub.tenant);
            let enqueued_at = self.now_micros();
            for (node, cell) in sub.nodes.iter().enumerate() {
                if cell.pending.load(Ordering::Relaxed) == 0 {
                    ready.push(Queued {
                        sub: sub.clone(),
                        node,
                        enqueued_at,
                    });
                }
            }
        }
        self.notify_workers(true);
        sub
    }

    /// Pop the next runnable node in policy order and stamp its dispatch
    /// diagnostics (queue wait, the core's sequence number) while the ready
    /// lock is held, so `schedule_seq` order equals pop order.
    fn pop_task(&self) -> Option<Dispatch> {
        let mut ready = self.ready.lock();
        let (item, ready_submissions) = ready.pop()?;
        let seq = ready.seq;
        ready.seq += 1;
        Some(Dispatch {
            wait_micros: self.now_micros().saturating_sub(item.enqueued_at),
            seq,
            ready_submissions,
            item,
        })
    }

    fn has_ready_work(&self) -> bool {
        self.ready.lock().queued_actions > 0
    }

    /// Retire one node: store its outcome and record, enqueue newly-ready
    /// dependents, and — when it was the submission's last node — complete the
    /// submission.
    fn finish(
        &self,
        sub: &Arc<Submission>,
        node: ActionId,
        outcome: NodeOutcome<ErasedError>,
        record: Option<ActionRecord>,
    ) {
        let cell = &sub.nodes[node];
        {
            let mut state = cell.state.lock();
            state.outcome = Some(outcome);
            state.record = record;
        }
        let mut made_ready = 0usize;
        {
            let mut ready = self.ready.lock();
            let enqueued_at = self.now_micros();
            for &dependent in &cell.dependents {
                if sub.nodes[dependent].pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    ready.push(Queued {
                        sub: sub.clone(),
                        node: dependent,
                        enqueued_at,
                    });
                    made_ready += 1;
                }
            }
        }
        // The last node readies nothing; `complete` wakes every executor.
        if sub.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.complete(sub);
        } else if made_ready > 0 {
            // Notify under the idle lock: a parking executor re-checks the queue
            // after acquiring it, so the notification can never land in the window
            // between a failed pop and the wait.
            self.notify_workers(made_ready > 1);
        }
    }

    /// Complete a submission: release its lane, then signal its waiter. Every
    /// node has retired, so all of its work has already run or been dropped — the
    /// step that lets blocking runs borrow caller state soundly.
    fn complete(&self, sub: &Arc<Submission>) {
        self.ready.lock().close(&sub.tenant);
        sub.done.store(true, Ordering::Release);
        self.live_submissions.fetch_sub(1, Ordering::AcqRel);
        // Wake the pool and its waiters (and a core waiting to shut down in Drop).
        self.notify_workers(true);
    }

    /// Park `node` as a continuation on `flight`: restore its one-shot work and
    /// its key for the wake-side retry and register a waker that re-enqueues the
    /// node when the flight retires, so the worker moves on to the next ready
    /// action immediately.
    fn park_on_flight(
        self: &Arc<Self>,
        sub: &Arc<Submission>,
        node: ActionId,
        work: Box<dyn Work>,
        key: BuildKey,
        flight: FlightId,
        wait_micros: u64,
    ) {
        {
            // Restore the work and key *before* the waker can fire: a woken
            // re-dispatch takes them back out.
            let mut state = sub.nodes[node].state.lock();
            state.work = Some(work);
            state.key = Some(key);
            state.accrued_wait += wait_micros;
            state.parks += 1;
        }
        let parked_at = self.now_micros();
        {
            // Count the park before registering the waker, so a waker firing
            // instantly on another thread can never underflow the counters.
            let mut ready = self.ready.lock();
            ready.parks += 1;
            ready.parked_waiters += 1;
        }
        let waker: FlightWaker = {
            let shared = self.clone();
            let sub = sub.clone();
            Box::new(move |outcome| shared.wake_parked(&sub, node, parked_at, outcome))
        };
        if let Some(outcome) = self.cache.park(&flight, waker) {
            // The flight retired between try_begin and park (the waker was
            // dropped unregistered): wake ourselves through the same path.
            self.wake_parked(sub, node, parked_at, outcome);
        }
    }

    /// Flight-waker body: account the parked time, store the outcome for the
    /// node's re-dispatch, and re-enqueue the node. Runs on whichever thread
    /// retires the flight — a pool worker or an external flight owner.
    fn wake_parked(
        &self,
        sub: &Arc<Submission>,
        node: ActionId,
        parked_at: u64,
        outcome: FlightOutcome,
    ) {
        let now = self.now_micros();
        {
            let mut state = sub.nodes[node].state.lock();
            state.parked_micros += now.saturating_sub(parked_at);
            state.wake = Some(outcome);
        }
        {
            let mut ready = self.ready.lock();
            ready.wakeups += 1;
            ready.parked_waiters -= 1;
            ready.push(Queued {
                sub: sub.clone(),
                node,
                enqueued_at: now,
            });
        }
        self.notify_workers(false);
    }

    fn execute(self: &Arc<Self>, dispatch: Dispatch) {
        let (sub, node) = (&dispatch.item.sub, dispatch.item.node);
        if let Some((outcome, record)) = self.step(sub, node, &dispatch) {
            self.finish(sub, node, outcome, record);
        }
    }

    /// Run one dispatched node to its outcome and trace record, or to `None`
    /// when it parked on a flight. The node's work is taken on every dispatch,
    /// and by the time this returns it has run, been dropped, or been put back
    /// for the parked node's re-dispatch: a node retires only after its work is
    /// gone.
    fn step(
        self: &Arc<Self>,
        sub: &Arc<Submission>,
        node: ActionId,
        dispatch: &Dispatch,
    ) -> Option<(NodeOutcome<ErasedError>, Option<ActionRecord>)> {
        let cell = &sub.nodes[node];
        let (wake, work, key) = {
            let mut state = cell.state.lock();
            (state.wake.take(), state.work.take(), state.key.take())
        };
        let work = work.expect("a queued node holds its work");
        let started = Instant::now();
        // Keep the digest the cache holds for the output when a dependent reads
        // it; it is stored before the node retires, so every dependent sees it.
        let keep = |hash: Option<[u8; 32]>| {
            if let Some(hash) = hash.filter(|_| cell.keeps_digest) {
                cell.state.lock().digest = Some(Box::new(hash));
            }
        };
        // A served node's `(cached, hit_tier, coalesced)`.
        let (key_digest, outcome, served) = match wake {
            // A parked node re-dispatched after its flight retired: a completed
            // flight short-circuits to a coalesced hit, served from the retired
            // flight — the blob is resident in memory by the time the waker
            // fires. A failed or poisoned one falls through and retries the keyed
            // path (possibly becoming the next owner), so an upstream failure
            // never strands a waiter.
            Some(FlightOutcome::Completed(blob, hash)) => {
                keep(Some(hash));
                let key_digest = key.map(|key| key.digest().hex().to_string());
                let served = (true, Some(CacheTier::Memory), true);
                (key_digest, NodeOutcome::Output(blob), Some(served))
            }
            _ => {
                // A poisoned dependency skips this node.
                let inputs = match sub.inputs(node) {
                    Ok(inputs) => inputs,
                    Err(outcome) => return Some((outcome, None)),
                };
                // A key not fixed when the node was added is derived from the
                // dependency outputs now that they exist (`None` when unkeyed).
                // A panicking derivation behaves like a panicking action (payload
                // recorded, dependents poisoned).
                let key = match key {
                    Some(key) => Some(key),
                    None => match sub.catch(|| work.key(&inputs)) {
                        Some(key) => key,
                        None => return Some((NodeOutcome::Skipped { root: node }, None)),
                    },
                };
                let key_digest = key.as_ref().map(|key| key.digest().hex().to_string());
                let (outcome, served) = match key {
                    Some(key) => match self.cache.try_begin(&key) {
                        // The cache's Blob handle becomes the outcome: a hit
                        // shares the store's allocation with every consumer. The
                        // hit names the tier that served it, so a stack's
                        // disk promotions show up in the trace.
                        TryBegin::Hit(blob, tier, hash) => {
                            keep(Some(hash));
                            (NodeOutcome::Output(blob), Some((true, Some(tier), false)))
                        }
                        TryBegin::Owner(ticket) => match sub.catch(|| work.run(&inputs)) {
                            Some(Ok(bytes)) => {
                                let (blob, hash) = self.cache.complete_hashed(ticket, bytes);
                                keep(hash);
                                (NodeOutcome::Output(blob), Some((false, None, false)))
                            }
                            Some(Err(error)) => {
                                self.cache.fail(ticket, FlightError::Failed);
                                (NodeOutcome::Failed(error), None)
                            }
                            // Panicked: the payload is recorded, re-raised at wait.
                            // Failing the ticket (it would poison on drop anyway)
                            // wakes parked waiters deliberately; the node poisons
                            // its own dependents.
                            None => {
                                self.cache.fail(ticket, FlightError::Poisoned);
                                (NodeOutcome::Skipped { root: node }, None)
                            }
                        },
                        TryBegin::InFlight(flight) => {
                            // Another owner is computing this key: park as a
                            // continuation and hand the worker back to the queue.
                            self.park_on_flight(sub, node, work, key, flight, dispatch.wait_micros);
                            return None;
                        }
                    },
                    None => match sub.catch(|| work.run(&inputs)) {
                        Some(Ok(bytes)) => (
                            NodeOutcome::Output(Blob::new(bytes)),
                            Some((false, None, false)),
                        ),
                        Some(Err(error)) => (NodeOutcome::Failed(error), None),
                        None => (NodeOutcome::Skipped { root: node }, None),
                    },
                };
                (key_digest, outcome, served)
            }
        };
        let record = served.map(|(cached, hit_tier, coalesced)| {
            let state = cell.state.lock();
            ActionRecord {
                kind: cell.info.kind,
                label: cell.info.label.clone(),
                key_digest,
                cached,
                hit_tier,
                coalesced,
                queue_wait_micros: dispatch.wait_micros + state.accrued_wait,
                exec_micros: if coalesced {
                    0
                } else {
                    started.elapsed().as_micros() as u64
                },
                schedule_seq: dispatch.seq,
                job: cell.info.job,
                tenant: sub.tenant.clone(),
                ready_submissions: dispatch.ready_submissions,
                parked_micros: state.parked_micros,
                parks: state.parks,
            }
        });
        Some((outcome, record))
    }

    /// Run ready nodes of any submission, in policy order, on this thread until
    /// `done()` holds, parking on `wakeup` while nothing is ready. Every
    /// executor is this loop: a pool worker runs until shutdown, a thread waiting
    /// on a submission until it completes (at most one node late, when it was
    /// mid-way through another submission's node), and a dropping core until no
    /// submission is live. A thread that is unwinding only sleeps: a node it ran
    /// could panic again and abort.
    fn run_until(self: &Arc<Self>, done: impl Fn() -> bool) {
        let unwinding = std::thread::panicking();
        while !done() {
            if !unwinding {
                if let Some(dispatch) = self.pop_task() {
                    self.execute(dispatch);
                    continue;
                }
            }
            // Re-checking under the idle lock pairs with `submit`, `finish`,
            // `complete` and `wake_parked` notifying under it, so a wakeup cannot
            // land between the check and the wait; the timeout is only a backstop.
            let guard = self.idle.lock().unwrap_or_else(|e| e.into_inner());
            if !done() && (unwinding || !self.has_ready_work()) {
                let _ = self
                    .wakeup
                    .wait_timeout(guard, std::time::Duration::from_millis(10));
            }
        }
    }
}

/// The engine's persistent execution core: the state its executors share and
/// a worker pool spawned on first submission. Owned (behind `Arc`) by the
/// [`Engine`](super::Engine) and its clones; dropping the last owner runs
/// in-flight submissions to completion on the dropping thread (beside the
/// pool), then shuts the pool down and joins it.
pub(crate) struct ExecutorCore {
    shared: Arc<CoreShared>,
    pub(crate) workers: usize,
    threads: OnceLock<Vec<std::thread::JoinHandle<()>>>,
}

impl ExecutorCore {
    pub(crate) fn new(cache: ActionCache, policy: SchedulingPolicy, workers: usize) -> Self {
        let shared = Arc::new(CoreShared {
            cache,
            policy,
            epoch: Instant::now(),
            submission_ids: AtomicU64::new(0),
            ready: Mutex::new(Ready::new(policy)),
            idle: StdMutex::new(()),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            live_submissions: AtomicUsize::new(0),
        });
        Self {
            shared,
            workers,
            threads: OnceLock::new(),
        }
    }

    pub(crate) fn cache(&self) -> &ActionCache {
        &self.shared.cache
    }

    pub(crate) fn policy(&self) -> SchedulingPolicy {
        self.shared.policy
    }

    /// The shared state, spawning the worker pool on first use (so merely
    /// constructing an `Engine` costs no threads).
    fn shared(&self) -> &Arc<CoreShared> {
        self.threads.get_or_init(|| {
            (0..self.workers.max(1))
                .map(|index| {
                    let shared = self.shared.clone();
                    std::thread::Builder::new()
                        .name(format!("xaas-engine-{index}"))
                        .spawn(move || shared.run_until(|| shared.shutdown.load(Ordering::Acquire)))
                        .expect("spawn engine worker")
                })
                .collect()
        });
        &self.shared
    }

    pub(crate) fn queue_stats(&self) -> QueueStats {
        let ready = self.shared.ready.lock();
        QueueStats {
            queued_actions: ready.queued_actions,
            waiting_submissions: ready.waiting.len(),
            live_submissions: self.shared.live_submissions.load(Ordering::Acquire),
            parked_waiters: ready.parked_waiters,
            parks: ready.parks,
            wakeups: ready.wakeups,
        }
    }

    /// Nonblocking submission of an owned (`'static`) graph.
    pub(crate) fn submit_graph<E: Send + 'static>(
        &self,
        graph: ActionGraph<'static, E>,
        tenant: Option<String>,
    ) -> GraphHandle<E> {
        let stage_depth = graph.depth();
        let shared = self.shared();
        GraphHandle {
            sub: shared.submit(graph.nodes, stage_depth, tenant),
            shared: shared.clone(),
            _error: PhantomData,
        }
    }

    /// Blocking execution of a graph whose work may borrow the caller's frame.
    pub(crate) fn run_blocking<E: Send + 'static>(
        &self,
        graph: ActionGraph<'_, E>,
        tenant: Option<String>,
    ) -> GraphRun<E> {
        let stage_depth = graph.depth();
        // SAFETY: this frame runs nodes until the submission completes before
        // returning (`run_until`, backstopped by `WaitOnDrop` on unwind), and a
        // submission completes only once every node has retired, each having run
        // or dropped its work first — so no borrowed closure or boxed record
        // outlives `'env`.
        #[allow(unsafe_code)]
        let nodes = unsafe { assume_static(graph.nodes) };
        let shared = self.shared();
        let sub = shared.submit(nodes, stage_depth, tenant);
        let _wait_guard = WaitOnDrop(shared, &sub);
        shared.run_until(|| sub.is_done());
        take_run::<E>(&sub)
    }
}

impl Drop for ExecutorCore {
    fn drop(&mut self) {
        let Some(threads) = self.threads.take() else {
            return;
        };
        let shared = &self.shared;
        // Detached submissions (GraphHandles) are accepted work: run them to
        // completion here, beside the pool, then stop the pool.
        shared.run_until(|| shared.live_submissions.load(Ordering::Acquire) == 0);
        shared.shutdown.store(true, Ordering::Release);
        shared.notify_workers(true);
        for handle in threads {
            let _ = handle.join();
        }
    }
}

/// Assemble the typed [`GraphRun`] of a completed submission, re-raising the
/// first action panic on the calling thread.
fn take_run<E: Send + 'static>(sub: &Submission) -> GraphRun<E> {
    debug_assert!(sub.is_done());
    if let Some(payload) = sub.panic_payload.lock().take() {
        // Re-raise the first action panic on the waiting thread, as a serial
        // executor would have.
        std::panic::resume_unwind(payload);
    }
    let mut outcomes = Vec::with_capacity(sub.nodes.len());
    let mut records = Vec::with_capacity(sub.nodes.len());
    let mut infos = Vec::with_capacity(sub.nodes.len());
    for node in &sub.nodes {
        let mut state = node.state.lock();
        outcomes.push(match state.outcome.take().expect("every node retired") {
            NodeOutcome::Output(bytes) => NodeOutcome::Output(bytes),
            NodeOutcome::Failed(error) => NodeOutcome::Failed(
                *error
                    .downcast::<E>()
                    .expect("submission error type matches the graph's"),
            ),
            NodeOutcome::Skipped { root } => NodeOutcome::Skipped { root },
        });
        records.extend(state.record.take());
        infos.push(node.info.clone());
    }
    let trace = ActionTrace {
        records,
        stage_depth: sub.stage_depth,
        policy: sub.policy.name().to_string(),
        tenant: sub.tenant.clone(),
    };
    GraphRun {
        outcomes,
        trace,
        infos,
    }
}

/// A handle to a submitted graph, to [`wait`](Self::wait) on for its typed
/// [`GraphRun`].
///
/// Dropping the handle does not stop the submission: accepted work runs to
/// completion, and the engine waits for it on shutdown.
pub struct GraphHandle<E> {
    sub: Arc<Submission>,
    shared: Arc<CoreShared>,
    _error: PhantomData<fn() -> E>,
}

impl<E: Send + 'static> GraphHandle<E> {
    /// Block until the submission completes and assemble its typed [`GraphRun`].
    /// Re-raises the first action panic on this thread, like the blocking
    /// [`Engine::run`](super::Engine::run) does.
    ///
    /// The waiting thread runs ready nodes of any submission, in policy order,
    /// until this one completes, and may return up to one node late. A node
    /// closure may therefore run here: never hold a lock across `wait` that a
    /// node closure may take.
    pub fn wait(self) -> GraphRun<E> {
        self.shared.run_until(|| self.sub.is_done());
        take_run::<E>(&self.sub)
    }
}

impl<E> std::fmt::Debug for GraphHandle<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphHandle")
            .field("submission", &self.sub.id)
            .field("tenant", &self.sub.tenant)
            .field("total", &self.sub.nodes.len())
            .field("remaining", &self.sub.remaining.load(Ordering::Relaxed))
            .field("done", &self.sub.is_done())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Fifo, WeightedFair};
    use xaas_container::ImageStore;

    /// A submission of `nodes` dependency-less no-op nodes, to drive [`Ready`]
    /// directly: no pool, no clock.
    fn submission(id: u64, tenant: Option<&str>, nodes: usize) -> Arc<Submission> {
        let mut graph: ActionGraph<'static, ()> = ActionGraph::new();
        for node in 0..nodes {
            graph.add(ActionKind::Preprocess, format!("n{node}"), &[], |_| {
                Ok(Vec::new())
            });
        }
        let tenant = tenant.map(str::to_string);
        Arc::new(Submission::new(id, tenant, Fifo.into(), 1, graph.nodes))
    }

    /// Open `sub`'s lane and queue all of its nodes, as `CoreShared::submit` does.
    fn admit(ready: &mut Ready, sub: &Arc<Submission>) {
        ready.open(&sub.tenant);
        push_all(ready, sub);
    }

    fn push_all(ready: &mut Ready, sub: &Arc<Submission>) {
        for node in 0..sub.nodes.len() {
            ready.push(Queued {
                sub: sub.clone(),
                node,
                enqueued_at: 0,
            });
        }
    }

    /// Pop `count` entries as `tenant/node` (`-` for the untenanted lane).
    fn pops(ready: &mut Ready, count: usize) -> Vec<String> {
        (0..count)
            .map(|_| {
                let (item, _) = ready.pop().expect("an entry is queued");
                format!(
                    "{}/{}",
                    item.sub.tenant.as_deref().unwrap_or("-"),
                    item.node
                )
            })
            .collect()
    }

    fn share(order: &[String], tenant: &str) -> usize {
        order.iter().filter(|id| id.starts_with(tenant)).count()
    }

    impl ExecutorCore {
        fn lane_count(&self) -> usize {
            self.shared.ready.lock().lanes.len()
        }
    }

    #[test]
    fn fifo_shares_one_lane_in_push_order_whatever_the_tenant() {
        let mut ready = Ready::new(Fifo.into());
        let first = submission(0, Some("zed"), 3);
        let second = submission(1, Some("abe"), 2);
        admit(&mut ready, &first);
        admit(&mut ready, &second);
        assert_eq!(ready.lanes.len(), 1);
        assert_eq!(
            pops(&mut ready, 5),
            ["zed/0", "zed/1", "zed/2", "abe/0", "abe/1"]
        );
        assert!(ready.pop().is_none());
    }

    #[test]
    fn lowest_virtual_time_lane_wins_and_ties_go_to_the_lowest_tenant_name() {
        let mut ready = Ready::new(WeightedFair.into());
        // Opened in the order b, a, untenanted: ties are broken by name, not age.
        for (id, tenant) in [Some("b"), Some("a"), None].into_iter().enumerate() {
            admit(&mut ready, &submission(id as u64, tenant, 2));
        }
        assert_eq!(
            pops(&mut ready, 6),
            ["-/0", "a/0", "b/0", "-/1", "a/1", "b/1"]
        );
        // A lane behind on virtual time goes first regardless of its name.
        let late = submission(3, Some("z"), 1);
        let early = submission(4, Some("a"), 1);
        admit(&mut ready, &late);
        push_all(&mut ready, &early);
        ready.lanes.get_mut(&late.tenant).unwrap().vtime = 0;
        assert_eq!(pops(&mut ready, 2), ["z/0", "a/0"]);
    }

    #[test]
    fn an_idle_lane_reenters_at_virtual_now_and_cannot_replay_banked_credit() {
        let mut ready = Ready::new(WeightedFair.into());
        let idle = submission(0, Some("idle"), 10);
        let busy = submission(1, Some("busy"), 110);
        // `idle` holds a lane (a live submission, say parked on a flight) but
        // queues nothing while `busy` dispatches a hundred actions.
        ready.open(&idle.tenant);
        admit(&mut ready, &busy);
        assert_eq!(share(&pops(&mut ready, 100), "busy"), 100);
        push_all(&mut ready, &idle);
        // Banked credit would hand `idle` the next ten pops; it gets every other.
        let order = pops(&mut ready, 10);
        assert_eq!((share(&order, "idle"), share(&order, "busy")), (5, 5));
    }

    #[test]
    fn a_retired_tenant_reenters_mid_run_at_virtual_now() {
        let mut ready = Ready::new(WeightedFair.into());
        let busy = submission(0, Some("busy"), 55);
        let first = submission(1, Some("guest"), 1);
        admit(&mut ready, &busy);
        admit(&mut ready, &first);
        assert_eq!(pops(&mut ready, 2), ["busy/0", "guest/0"]);
        ready.close(&first.tenant);
        assert_eq!(
            ready.lanes.len(),
            1,
            "the guest lane retired with its submission"
        );
        assert_eq!(share(&pops(&mut ready, 50), "busy"), 50);
        // The returning tenant gets a fresh lane at the current virtual time: an
        // even share from here on, not fifty dispatches of back pay.
        let second = submission(2, Some("guest"), 4);
        admit(&mut ready, &second);
        let order = pops(&mut ready, 8);
        assert_eq!((share(&order, "guest"), share(&order, "busy")), (4, 4));
        ready.close(&second.tenant);
        ready.close(&busy.tenant);
        assert!(ready.lanes.is_empty());
    }

    #[test]
    fn depth_accounting_returns_to_zero_after_interleaved_push_and_pop() {
        let mut ready = Ready::new(WeightedFair.into());
        let subs = [
            submission(0, Some("a"), 3),
            submission(1, Some("b"), 2),
            submission(2, Some("a"), 1),
        ];
        admit(&mut ready, &subs[0]);
        admit(&mut ready, &subs[1]);
        assert_eq!((ready.queued_actions, ready.waiting.len()), (5, 2));
        let (_, depth) = ready.pop().unwrap();
        assert_eq!(depth, 2, "both submissions had waiting actions");
        admit(&mut ready, &subs[2]);
        assert_eq!((ready.queued_actions, ready.waiting.len()), (5, 3));
        assert_eq!(
            ready.lanes.len(),
            2,
            "two submissions share tenant a's lane"
        );
        let mut depths = Vec::new();
        while let Some((_, depth)) = ready.pop() {
            depths.push(depth);
        }
        assert_eq!(depths.len(), 5);
        assert_eq!(depths.last(), Some(&1));
        assert_eq!((ready.queued_actions, ready.waiting.len()), (0, 0));
        for sub in &subs {
            ready.close(&sub.tenant);
        }
        assert!(ready.lanes.is_empty());
    }

    #[test]
    fn a_thousand_one_shot_tenants_leave_no_lanes_behind() {
        let cache = ActionCache::bypass(ImageStore::new());
        let engine = Engine::configured(cache, WeightedFair.into(), Some(2));
        let handles: Vec<_> = (0..1_000u32)
            .map(|tenant| {
                let mut graph: ActionGraph<'static, std::convert::Infallible> = ActionGraph::new();
                let head = graph.add(ActionKind::Preprocess, "head", &[], move |_| {
                    Ok(tenant.to_le_bytes().to_vec())
                });
                graph.add(ActionKind::Link, "tail", &[head], |inputs| {
                    Ok(inputs.dep(0).to_vec())
                });
                engine
                    .clone()
                    .with_tenant(format!("tenant-{tenant}"))
                    .submit_graph(graph)
                    .expect("analysis-clean graph")
            })
            .collect();
        for (tenant, handle) in handles.into_iter().enumerate() {
            let run = handle.wait();
            assert_eq!(run.output(1), Some(&(tenant as u32).to_le_bytes()[..]));
        }
        assert_eq!(engine.core.lane_count(), 0, "every tenant's lane retired");
        assert_eq!(engine.queue_stats().queued_actions, 0);
    }

    fn run_with_outcomes(outcomes: Vec<NodeOutcome<String>>) -> GraphRun<String> {
        let infos = outcomes
            .iter()
            .enumerate()
            .map(|(id, _)| NodeInfo {
                kind: ActionKind::Preprocess,
                label: format!("node{id}"),
                job: None,
            })
            .collect();
        GraphRun {
            outcomes,
            trace: ActionTrace::default(),
            infos,
        }
    }

    #[test]
    fn action_errors_pass_through_into_outputs_and_job_failure() {
        let mut run = run_with_outcomes(vec![
            NodeOutcome::Output(Blob::from(vec![1u8])),
            NodeOutcome::Failed("first".to_string()),
            NodeOutcome::Skipped { root: 1 },
            NodeOutcome::Failed("second".to_string()),
        ]);
        run.infos[2].job = Some(0);
        run.infos[3].job = Some(1);
        let failure = run.job_failure(0).unwrap();
        assert_eq!((failure.node, failure.error.as_str()), (1, "first"));
        assert_eq!(run.job_failure(1).unwrap().error, "second");
        assert!(run.job_failure(2).is_none());
        assert_eq!(run.into_outputs().unwrap_err(), "first");
    }
}
