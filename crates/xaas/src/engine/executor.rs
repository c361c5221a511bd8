//! The executor: a persistent worker pool draining one shared, multi-graph ready
//! queue, routing keyed nodes through the engine's cache backend.
//!
//! Submissions are *nonblocking*: [`Engine::submit_graph`](super::Engine::submit_graph)
//! enqueues a graph and returns a [`GraphHandle`] (poll / wait / cancel / completion
//! callback) immediately, and the pool interleaves actions from every in-flight
//! submission at action granularity — the shape a multi-tenant orchestrator
//! service needs. The blocking [`Engine::run`](super::Engine::run) is a thin
//! wrapper that submits and waits, so single-caller pipelines share the same queue
//! (and the same cache single-flight) as concurrent sessions.
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

#![deny(clippy::unwrap_used, clippy::dbg_macro)]
use super::graph::{ActionGraph, ActionId, ActionInputs, KeySpec};
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
    Blob, BuildKey, CacheBackend, CacheTier, FlightError, FlightId, FlightOutcome, FlightWaker,
    TryBegin,
};

/// The terminal state of one node after a run.
#[derive(Debug)]
pub enum NodeOutcome<E> {
    /// The node completed (executed or cache-served) with this output blob. The
    /// handle shares its allocation with the cache/store and every dependent node.
    Output(Blob),
    /// The node's closure returned this error.
    Failed(E),
    /// The node was skipped because `root` (a transitive dependency) failed.
    Skipped {
        /// The failed ancestor that poisoned this node.
        root: ActionId,
    },
    /// The submission was cancelled (via [`GraphHandle::cancel`]) before the node
    /// could run.
    Cancelled,
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
/// description, and the typed error when the root carried one.
#[derive(Debug)]
pub struct JobFailure<'run, E> {
    /// The failed node every affected node of the job transitively depends on.
    pub node: ActionId,
    /// Static description of the failing node (kind, label, owning job).
    pub info: &'run NodeInfo,
    /// The typed error the failing node returned. `None` only when the node was
    /// itself skipped without a recorded failure (a cache-backend contract
    /// violation, surfaced as [`GraphRunError::ContractViolation`] by
    /// [`GraphRun::into_outputs`]) or when the submission was cancelled.
    pub error: Option<&'run E>,
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

    /// Static description of one node (available even for failed/skipped nodes).
    pub fn node_info(&self, id: ActionId) -> &NodeInfo {
        &self.infos[id]
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
                    NodeOutcome::Cancelled => id,
                };
                Some(JobFailure {
                    node: root,
                    info: &self.infos[root],
                    error: match &self.outcomes[root] {
                        NodeOutcome::Failed(error) => Some(error),
                        _ => None,
                    },
                })
            })
    }

    /// The output of one node, if it completed.
    pub fn output(&self, id: ActionId) -> Option<&[u8]> {
        self.outcomes.get(id).and_then(NodeOutcome::output)
    }

    /// All outputs in node order, or the first (lowest node id) error as a typed
    /// [`GraphRunError`]: the failing node's own error
    /// ([`GraphRunError::Action`]), a cache-backend contract violation
    /// ([`GraphRunError::ContractViolation`]), or a cancelled submission
    /// ([`GraphRunError::Cancelled`]). The non-action cases were historically
    /// `panic!` escape hatches; they now surface through the orchestrator's
    /// driver errors instead of tearing the caller down.
    pub fn into_outputs(self) -> Result<(ActionOutputs, ActionTrace), GraphRunError<E>> {
        let mut outputs = Vec::with_capacity(self.outcomes.len());
        for (id, outcome) in self.outcomes.into_iter().enumerate() {
            match outcome {
                NodeOutcome::Output(bytes) => outputs.push(bytes),
                NodeOutcome::Failed(error) => return Err(GraphRunError::Action(error)),
                NodeOutcome::Skipped { root } => {
                    // Dependencies precede dependents in node order, so a skip's root
                    // failure is normally returned above. Reaching this arm means a
                    // cache backend failed a keyed action without invoking its compute
                    // closure, breaking the CacheBackend contract.
                    return Err(GraphRunError::ContractViolation { node: root });
                }
                NodeOutcome::Cancelled => {
                    return Err(GraphRunError::Cancelled { node: id });
                }
            }
        }
        Ok((outputs, self.trace))
    }
}

/// Why [`GraphRun::into_outputs`] could not produce the run's outputs.
///
/// `Action` carries the driver's own typed error; the other two variants are
/// *engine-level faults* that carry no driver error — a cache backend breaking
/// its contract, or a submission cancelled via
/// [`GraphHandle::cancel`]. Use [`into_action`](Self::into_action) to split the
/// two classes; [`GraphFault`] is the fault-only shape the orchestrator's driver
/// errors embed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphRunError<E> {
    /// The first failing node's own typed error.
    Action(E),
    /// A node retired as skipped with no preceding failure: the cache backend
    /// failed a keyed action without invoking its compute closure, breaking the
    /// [`CacheBackend`] contract.
    ContractViolation {
        /// The node the backend skipped.
        node: ActionId,
    },
    /// The submission was cancelled before this node completed; a cancelled run
    /// has no typed error — inspect [`GraphRun::outcomes`] for partial results.
    Cancelled {
        /// The first cancelled node.
        node: ActionId,
    },
}

/// An engine-level run fault with the action-error case ruled out — the shape
/// driver error enums embed (their own error fills the `Action` role).
pub type GraphFault = GraphRunError<std::convert::Infallible>;

impl<E> GraphRunError<E> {
    /// Split into the action's own error or the engine-level [`GraphFault`].
    pub fn into_action(self) -> Result<E, GraphFault> {
        match self {
            GraphRunError::Action(error) => Ok(error),
            GraphRunError::ContractViolation { node } => {
                Err(GraphRunError::ContractViolation { node })
            }
            GraphRunError::Cancelled { node } => Err(GraphRunError::Cancelled { node }),
        }
    }
}

impl<E: std::fmt::Display> std::fmt::Display for GraphRunError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphRunError::Action(error) => error.fmt(f),
            GraphRunError::ContractViolation { node } => write!(
                f,
                "action {node} was skipped without a preceding failure: \
                 the cache backend failed without running the action"
            ),
            GraphRunError::Cancelled { node } => write!(
                f,
                "action {node} was cancelled before completion; \
                 inspect GraphRun::outcomes for partial results"
            ),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for GraphRunError<E> {}

/// A driver error, type-erased so submissions of every error type can share one
/// worker pool; downcast back to `E` when the run is assembled.
type ErasedError = Box<dyn Any + Send>;

type ErasedRunFn<'env> =
    Box<dyn FnOnce(&ActionInputs) -> Result<Vec<u8>, ErasedError> + Send + 'env>;
type ErasedKeyFn<'env> = Box<dyn FnOnce(&ActionInputs) -> BuildKey + Send + 'env>;

enum ErasedKeySpec<'env> {
    None,
    Static(BuildKey),
    Derived(ErasedKeyFn<'env>),
}

/// A node's one-shot work: the run closure plus its cache-key specification
/// (static, derived from inputs, or none). Taken exactly once at dispatch.
struct ErasedWork<'env> {
    run: ErasedRunFn<'env>,
    key: ErasedKeySpec<'env>,
}

/// One node of a submission with its driver error type (and, for blocking runs,
/// its borrow lifetime) erased.
struct ErasedNode<'env> {
    kind: ActionKind,
    label: String,
    job: Option<usize>,
    deps: Vec<ActionId>,
    work: ErasedWork<'env>,
}

/// Erase a typed graph's error type, keeping the borrow lifetime.
fn erase_nodes<'env, E: Send + 'static>(graph: ActionGraph<'env, E>) -> Vec<ErasedNode<'env>> {
    graph
        .nodes
        .into_iter()
        .map(|node| {
            let run = node.run;
            ErasedNode {
                kind: node.kind,
                label: node.label,
                job: node.job,
                deps: node.deps,
                work: ErasedWork {
                    run: Box::new(move |inputs| {
                        run(inputs).map_err(|error| Box::new(error) as ErasedError)
                    }),
                    key: match node.key {
                        KeySpec::None => ErasedKeySpec::None,
                        KeySpec::Static(key) => ErasedKeySpec::Static(key),
                        KeySpec::Derived(key_of) => ErasedKeySpec::Derived(key_of),
                    },
                },
            }
        })
        .collect()
}

/// Pretend a set of erased nodes borrows nothing.
///
/// # Safety
/// The caller must guarantee every contained closure is **executed or dropped
/// before `'env` ends**. The blocking-run path upholds this by (a) waiting for the
/// submission to complete before returning — including on unwind, via
/// [`WaitOnDrop`] — and (b) the completing worker draining every un-executed
/// closure ([`Submission`] leftover tasks) *before* signalling completion.
unsafe fn assume_static(nodes: Vec<ErasedNode<'_>>) -> Vec<ErasedNode<'static>> {
    // SAFETY: `ErasedNode<'a>` and `ErasedNode<'static>` are the same type up to
    // the trait-object lifetime bound; the caller upholds the outlives contract.
    unsafe { std::mem::transmute(nodes) }
}

enum Slot {
    Pending,
    Output(Blob),
    Failed(ErasedError),
    Skipped { root: ActionId },
    Cancelled,
}

struct NodeMeta {
    kind: ActionKind,
    label: String,
    job: Option<usize>,
    deps: Vec<ActionId>,
}

/// Per-node park/wake state: the pending flight outcome a waker stored for the
/// node's re-dispatch, plus the diagnostics clocks behind
/// [`ActionRecord::parked_micros`] / [`ActionRecord::parks`].
#[derive(Default)]
struct ParkState {
    /// Outcome stored by a flight waker, consumed by the node's next dispatch.
    wake: Mutex<Option<FlightOutcome>>,
    /// Queue-wait micros accrued by this node's earlier dispatches (a parked node
    /// re-enters the queue; its final record reports the cumulative wait).
    accrued_wait: AtomicU64,
    /// Total micros spent parked as a single-flight waiter.
    parked_micros: AtomicU64,
    /// Times this node parked.
    parks: AtomicU64,
}

/// One submitted graph: erased nodes plus all per-run execution state. Shared
/// between the worker pool (via queue entries) and the submitter's
/// [`GraphHandle`] / blocking waiter.
struct Submission {
    /// Engine-global submission id (queue-depth accounting).
    id: u64,
    /// The submitter's tenant tag: trace attribution, and under fair queuing the
    /// lane this submission dispatches through.
    tenant: Option<String>,
    policy_name: String,
    stage_depth: usize,
    metas: Vec<NodeMeta>,
    tasks: Vec<Mutex<Option<ErasedWork<'static>>>>,
    slots: Vec<Mutex<Slot>>,
    records: Vec<Mutex<Option<ActionRecord>>>,
    park_state: Vec<ParkState>,
    dependents: Vec<Vec<ActionId>>,
    pending: Vec<AtomicUsize>,
    /// Micros-since-core-epoch each node entered the ready queue (0 = not yet).
    enqueued_at: Vec<AtomicU64>,
    remaining: AtomicUsize,
    cancelled: AtomicBool,
    /// The first caught action panic; re-raised on the waiting thread, so a
    /// panicking action behaves like it would on a serial executor instead of
    /// killing a pool worker.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    done: AtomicBool,
    done_lock: StdMutex<bool>,
    done_cv: Condvar,
    /// Completion callback, invoked once by the worker that retires the last node.
    callback: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl Submission {
    /// Lay out the per-run state of `nodes`: dependents, pending-dependency
    /// counts, and one task/slot/record/park cell per node.
    fn new(
        id: u64,
        tenant: Option<String>,
        policy_name: String,
        stage_depth: usize,
        nodes: Vec<ErasedNode<'static>>,
    ) -> Self {
        let node_count = nodes.len();
        let mut metas = Vec::with_capacity(node_count);
        let mut tasks = Vec::with_capacity(node_count);
        let mut dependents: Vec<Vec<ActionId>> = vec![Vec::new(); node_count];
        let mut pending = Vec::with_capacity(node_count);
        for (node_id, node) in nodes.into_iter().enumerate() {
            for &dep in &node.deps {
                dependents[dep].push(node_id);
            }
            pending.push(AtomicUsize::new(node.deps.len()));
            metas.push(NodeMeta {
                kind: node.kind,
                label: node.label,
                job: node.job,
                deps: node.deps,
            });
            tasks.push(Mutex::new(Some(node.work)));
        }
        Self {
            id,
            tenant,
            policy_name,
            stage_depth,
            metas,
            tasks,
            slots: (0..node_count).map(|_| Mutex::new(Slot::Pending)).collect(),
            records: (0..node_count).map(|_| Mutex::new(None)).collect(),
            park_state: (0..node_count).map(|_| ParkState::default()).collect(),
            dependents,
            pending,
            enqueued_at: (0..node_count).map(|_| AtomicU64::new(0)).collect(),
            remaining: AtomicUsize::new(node_count),
            cancelled: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            done: AtomicBool::new(node_count == 0),
            done_lock: StdMutex::new(node_count == 0),
            done_cv: Condvar::new(),
            callback: Mutex::new(None),
        }
    }

    fn wait_done(&self) {
        let mut done = self.done_lock.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Waits for a submission to complete when dropped: the unwind-safety net that
/// keeps the blocking-run lifetime erasure sound (borrowed closures can never
/// outlive the frame that submitted them).
struct WaitOnDrop<'a>(&'a Submission);

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        self.0.wait_done();
    }
}

/// One ready-queue entry: a node of a specific submission.
struct Queued {
    sub: Arc<Submission>,
    node: ActionId,
}

/// One FIFO slice of the ready queue. Under a non-fair policy there is a single
/// anonymous lane; under weighted fair queuing each tenant with a live
/// submission has one, and the scheduler dispatches from the lane with the
/// lowest virtual time.
struct Lane {
    queue: VecDeque<Queued>,
    /// Weighted-fair virtual time: advanced by `stride` per dispatched action.
    vtime: u64,
    /// `VTIME_SCALE / weight`: heavier-weighted tenants accumulate virtual time
    /// slower and are dispatched from more often.
    stride: u64,
    /// Submissions dispatching through this lane that have not completed yet;
    /// the lane is dropped when the last one does.
    live: usize,
}

/// Virtual-time scale factor (integer fair-queuing arithmetic).
const VTIME_SCALE: u64 = 1_024;

/// The shared multi-graph ready queue: tenant lanes, the fair-queuing clock, and
/// cross-submission depth accounting. Plain state — it reads no wall clock and
/// knows nothing of the worker pool, so lane order is testable single-threaded.
struct Ready {
    /// Lanes by tenant; unless `fair`, only the anonymous `None` lane.
    lanes: BTreeMap<Option<String>, Lane>,
    /// Whether submissions lane by tenant (weighted fair queuing) or share one.
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
}

impl Ready {
    fn new(fair: bool) -> Self {
        Self {
            lanes: BTreeMap::new(),
            fair,
            virtual_now: 0,
            queued_actions: 0,
            waiting: BTreeMap::new(),
            parked_waiters: 0,
            parks: 0,
            wakeups: 0,
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
    fn open(&mut self, tenant: &Option<String>, policy: &dyn SchedulingPolicy) {
        let key = self.lane_key(tenant);
        if let Some(lane) = self.lanes.get_mut(key) {
            lane.live += 1;
            return;
        }
        let lane = Lane {
            queue: VecDeque::new(),
            vtime: self.virtual_now,
            // A zero weight would starve the lane forever (validate() rejects
            // it), a zero stride everyone else: the executor clamps both.
            stride: (VTIME_SCALE / policy.tenant_weight(key.as_deref()).max(1)).max(1),
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
        lane.vtime = lane.vtime.saturating_add(lane.stride);
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
/// [`Engine::queue_stats`](super::Engine::queue_stats)). The service layer's
/// admission control uses `queued_actions` as its saturation signal.
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

/// Everything the worker pool shares: the cache, the policy, and the ready queue.
struct CoreShared {
    cache: Arc<dyn CacheBackend>,
    policy: Arc<dyn SchedulingPolicy>,
    /// Clock origin for `enqueued_at` / queue-wait accounting.
    epoch: Instant,
    /// Engine-global dispatch counter; assigned under the ready lock so the
    /// relative order of `schedule_seq` values equals the policy's pop order.
    seq: Arc<AtomicU64>,
    submission_ids: AtomicU64,
    ready: Mutex<Ready>,
    /// Idle workers park here instead of spinning; a finishing node wakes them.
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
        nodes: Vec<ErasedNode<'static>>,
        stage_depth: usize,
        tenant: Option<String>,
    ) -> Arc<Submission> {
        let sub = Arc::new(Submission::new(
            self.submission_ids.fetch_add(1, Ordering::Relaxed),
            tenant,
            self.policy.name().to_string(),
            stage_depth,
            nodes,
        ));
        if sub.metas.is_empty() {
            return sub;
        }
        self.live_submissions.fetch_add(1, Ordering::AcqRel);
        {
            let mut ready = self.ready.lock();
            ready.open(&sub.tenant, self.policy.as_ref());
            let now = self.now_micros();
            for (node, pending) in sub.pending.iter().enumerate() {
                if pending.load(Ordering::Relaxed) == 0 {
                    sub.enqueued_at[node].store(now, Ordering::Relaxed);
                    ready.push(Queued {
                        sub: sub.clone(),
                        node,
                    });
                }
            }
        }
        self.notify_workers(true);
        sub
    }

    /// Pop the next runnable node in policy order and stamp its dispatch
    /// diagnostics (queue wait, engine-global sequence number) while the ready
    /// lock is held, so `schedule_seq` order equals pop order.
    fn pop_task(&self) -> Option<Dispatch> {
        let mut ready = self.ready.lock();
        let (item, ready_submissions) = ready.pop()?;
        let enqueued = item.sub.enqueued_at[item.node].load(Ordering::Relaxed);
        Some(Dispatch {
            wait_micros: self.now_micros().saturating_sub(enqueued),
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ready_submissions,
            item,
        })
    }

    fn has_ready_work(&self) -> bool {
        self.ready.lock().queued_actions > 0
    }

    /// Retire one node: store its slot/record, enqueue newly-ready dependents,
    /// and — when it was the submission's last node — complete the submission.
    fn finish(
        &self,
        sub: &Arc<Submission>,
        node: ActionId,
        slot: Slot,
        record: Option<ActionRecord>,
    ) {
        *sub.slots[node].lock() = slot;
        if let Some(record) = record {
            *sub.records[node].lock() = Some(record);
        }
        let mut made_ready = 0usize;
        {
            let mut ready = self.ready.lock();
            let now = self.now_micros();
            for &dependent in &sub.dependents[node] {
                if sub.pending[dependent].fetch_sub(1, Ordering::AcqRel) == 1 {
                    sub.enqueued_at[dependent].store(now, Ordering::Relaxed);
                    ready.push(Queued {
                        sub: sub.clone(),
                        node: dependent,
                    });
                    made_ready += 1;
                }
            }
        }
        let last = sub.remaining.fetch_sub(1, Ordering::AcqRel) == 1;
        if last {
            self.complete(sub);
        }
        if last || made_ready > 0 {
            // Notify under the idle lock: a parking worker re-checks the queue
            // after acquiring it, so the notification can never land in the window
            // between a failed pop and the wait.
            self.notify_workers(last || made_ready > 1);
        }
    }

    /// Complete a submission: drain leftover (skipped/cancelled) closures — the
    /// step that lets blocking runs borrow caller state soundly — release its
    /// lane, then signal waiters and run the completion callback.
    fn complete(&self, sub: &Arc<Submission>) {
        for task in &sub.tasks {
            drop(task.lock().take());
        }
        self.ready.lock().close(&sub.tenant);
        let callback = {
            let mut callback = sub.callback.lock();
            sub.done.store(true, Ordering::Release);
            callback.take()
        };
        {
            let mut done = sub.done_lock.lock().unwrap_or_else(|e| e.into_inner());
            *done = true;
        }
        sub.done_cv.notify_all();
        self.live_submissions.fetch_sub(1, Ordering::AcqRel);
        // Wake the pool (and a core waiting to shut down in Drop).
        self.notify_workers(true);
        if let Some(callback) = callback {
            callback();
        }
    }

    /// Run one node's closure, converting a panic into a recorded payload (first
    /// panic wins). Returns `None` when the closure panicked.
    fn run_task(
        &self,
        sub: &Submission,
        task: ErasedRunFn<'static>,
        inputs: &ActionInputs,
    ) -> Option<Result<Vec<u8>, ErasedError>> {
        match std::panic::catch_unwind(AssertUnwindSafe(|| task(inputs))) {
            Ok(result) => Some(result),
            Err(payload) => {
                let mut slot = sub.panic_payload.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
                None
            }
        }
    }

    /// Park `node` as a continuation on `flight`: restore its one-shot work for
    /// the wake-side retry and register a waker that re-enqueues the node when
    /// the flight retires, so the worker moves on to the next ready action
    /// immediately.
    fn park_on_flight(
        self: &Arc<Self>,
        sub: &Arc<Submission>,
        node: ActionId,
        task: ErasedRunFn<'static>,
        key: BuildKey,
        flight: FlightId,
        wait_micros: u64,
    ) {
        let state = &sub.park_state[node];
        // Restore the work (key resolved to its static form) *before* the waker
        // can fire: a woken re-dispatch takes it back out.
        *sub.tasks[node].lock() = Some(ErasedWork {
            run: task,
            key: ErasedKeySpec::Static(key),
        });
        state.accrued_wait.fetch_add(wait_micros, Ordering::Relaxed);
        state.parks.fetch_add(1, Ordering::Relaxed);
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
        let state = &sub.park_state[node];
        let now = self.now_micros();
        state
            .parked_micros
            .fetch_add(now.saturating_sub(parked_at), Ordering::Relaxed);
        *state.wake.lock() = Some(outcome);
        {
            let mut ready = self.ready.lock();
            ready.wakeups += 1;
            ready.parked_waiters -= 1;
            sub.enqueued_at[node].store(now, Ordering::Relaxed);
            ready.push(Queued {
                sub: sub.clone(),
                node,
            });
        }
        self.notify_workers(false);
    }

    fn execute(self: &Arc<Self>, dispatch: Dispatch) {
        let Dispatch {
            item: Queued { sub, node },
            wait_micros,
            seq,
            ready_submissions,
        } = dispatch;
        if sub.cancelled.load(Ordering::Relaxed) {
            self.finish(&sub, node, Slot::Cancelled, None);
            return;
        }
        // A parked node re-dispatched after its flight retired: a completed
        // flight short-circuits to a coalesced hit; a failed or poisoned one
        // falls through and retries the keyed path (possibly becoming the next
        // owner), so an upstream failure never strands a waiter.
        if let Some(FlightOutcome::Completed(blob)) = sub.park_state[node].wake.lock().take() {
            let key_digest = sub.tasks[node]
                .lock()
                .take()
                .and_then(|work| match work.key {
                    ErasedKeySpec::Static(key) => Some(key.digest().hex().to_string()),
                    _ => None,
                });
            let meta = &sub.metas[node];
            let state = &sub.park_state[node];
            let record = ActionRecord {
                kind: meta.kind,
                label: meta.label.clone(),
                key_digest,
                cached: true,
                // A coalesced waiter is served from the retired flight — the
                // blob is resident in memory by the time the waker fires.
                hit_tier: Some(CacheTier::Memory),
                coalesced: true,
                queue_wait_micros: wait_micros + state.accrued_wait.load(Ordering::Relaxed),
                exec_micros: 0,
                schedule_seq: seq,
                job: meta.job,
                tenant: sub.tenant.clone(),
                ready_submissions,
                parked_micros: state.parked_micros.load(Ordering::Relaxed),
                parks: state.parks.load(Ordering::Relaxed),
            };
            self.finish(&sub, node, Slot::Output(blob), Some(record));
            return;
        }
        let meta = &sub.metas[node];
        // Gather dependency outputs; a poisoned dependency skips this node.
        let mut inputs = Vec::with_capacity(meta.deps.len());
        let mut poisoned: Option<Slot> = None;
        for &dep in &meta.deps {
            match &*sub.slots[dep].lock() {
                Slot::Output(bytes) => inputs.push(bytes.clone()),
                Slot::Failed(_) => {
                    poisoned = Some(Slot::Skipped { root: dep });
                    break;
                }
                Slot::Skipped { root } => {
                    poisoned = Some(Slot::Skipped { root: *root });
                    break;
                }
                Slot::Cancelled => {
                    poisoned = Some(Slot::Cancelled);
                    break;
                }
                Slot::Pending => unreachable!("node scheduled before dependency finished"),
            }
        }
        if let Some(slot) = poisoned {
            self.finish(&sub, node, slot, None);
            return;
        }

        let ErasedWork { run: task, key } = sub.tasks[node]
            .lock()
            .take()
            .expect("every node executes exactly once");
        let inputs = ActionInputs::new(inputs);
        let started = Instant::now();

        // Resolve the cache key: static keys pass through; derived keys are
        // computed from the dependency outputs now that they exist. A panicking
        // key derivation behaves like a panicking action (payload recorded,
        // dependents poisoned).
        let key = match key {
            ErasedKeySpec::None => None,
            ErasedKeySpec::Static(key) => Some(key),
            ErasedKeySpec::Derived(key_of) => {
                match std::panic::catch_unwind(AssertUnwindSafe(|| key_of(&inputs))) {
                    Ok(key) => Some(key),
                    Err(payload) => {
                        let mut slot = sub.panic_payload.lock();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        drop(slot);
                        self.finish(&sub, node, Slot::Skipped { root: node }, None);
                        return;
                    }
                }
            }
        };

        let key_digest = key.as_ref().map(|k| k.digest().hex().to_string());
        let (slot, completed): (Slot, Option<(bool, Option<CacheTier>)>) = match key {
            Some(build_key) => {
                match self.cache.try_begin(&build_key) {
                    // The backend's Blob handle goes straight into the slot: a hit
                    // shares the store's allocation with every consumer. The hit
                    // names the tier that served it, so a stack's disk/remote
                    // promotions show up in the trace.
                    TryBegin::Hit(blob, tier) => (Slot::Output(blob), Some((true, Some(tier)))),
                    TryBegin::Owner(ticket) => match self.run_task(&sub, task, &inputs) {
                        Some(Ok(bytes)) => (
                            Slot::Output(self.cache.complete(ticket, bytes)),
                            Some((false, None)),
                        ),
                        Some(Err(error)) => {
                            self.cache.fail(ticket, FlightError::Failed);
                            (Slot::Failed(error), None)
                        }
                        // Panicked: the payload is recorded, re-raised at wait. Failing
                        // the ticket (it would poison on drop anyway) wakes parked
                        // waiters deliberately; the node poisons its own dependents.
                        None => {
                            self.cache.fail(ticket, FlightError::Poisoned);
                            (Slot::Skipped { root: node }, None)
                        }
                    },
                    TryBegin::InFlight(flight) => {
                        // Another owner is computing this key: park as a continuation
                        // and hand the worker straight back to the queue.
                        self.park_on_flight(&sub, node, task, build_key, flight, wait_micros);
                        return;
                    }
                }
            }
            None => match self.run_task(&sub, task, &inputs) {
                Some(Ok(bytes)) => (Slot::Output(Blob::new(bytes)), Some((false, None))),
                Some(Err(error)) => (Slot::Failed(error), None),
                None => (Slot::Skipped { root: node }, None),
            },
        };
        let state = &sub.park_state[node];
        let record = completed.map(|(cached, hit_tier)| ActionRecord {
            kind: meta.kind,
            label: meta.label.clone(),
            key_digest,
            cached,
            hit_tier,
            coalesced: false,
            queue_wait_micros: wait_micros + state.accrued_wait.load(Ordering::Relaxed),
            exec_micros: started.elapsed().as_micros() as u64,
            schedule_seq: seq,
            job: meta.job,
            tenant: sub.tenant.clone(),
            ready_submissions,
            parked_micros: state.parked_micros.load(Ordering::Relaxed),
            parks: state.parks.load(Ordering::Relaxed),
        });
        self.finish(&sub, node, slot, record);
    }
}

fn worker_loop(shared: Arc<CoreShared>) {
    loop {
        match shared.pop_task() {
            Some(dispatch) => shared.execute(dispatch),
            None => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                // Nothing runnable right now: other workers hold the frontier.
                // Park until new work is admitted. Re-checking readiness under the
                // idle lock pairs with finish()/submit() notifying under it, so
                // wakeups are not lost; the timeout is only a backstop.
                let guard = shared.idle.lock().unwrap_or_else(|e| e.into_inner());
                if !shared.shutdown.load(Ordering::Acquire) && !shared.has_ready_work() {
                    let _ = shared
                        .wakeup
                        .wait_timeout(guard, std::time::Duration::from_millis(10));
                }
            }
        }
    }
}

/// The engine's persistent execution core: a lazily spawned worker pool plus the
/// shared ready queue. Owned (behind `Arc`) by the [`Engine`](super::Engine) and
/// its clones; dropping the last owner waits for in-flight submissions to retire,
/// then shuts the pool down and joins it.
pub(crate) struct ExecutorCore {
    shared: OnceLock<Arc<CoreShared>>,
    threads: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ExecutorCore {
    pub(crate) fn new() -> Self {
        Self {
            shared: OnceLock::new(),
            threads: StdMutex::new(Vec::new()),
        }
    }

    /// The shared state, spawning the worker pool on first use (so merely
    /// constructing an `Engine` costs no threads).
    fn shared_or_init(
        &self,
        cache: &Arc<dyn CacheBackend>,
        policy: &Arc<dyn SchedulingPolicy>,
        seq: &Arc<AtomicU64>,
        workers: usize,
    ) -> &Arc<CoreShared> {
        self.shared.get_or_init(|| {
            let shared = Arc::new(CoreShared {
                cache: cache.clone(),
                policy: policy.clone(),
                epoch: Instant::now(),
                seq: seq.clone(),
                submission_ids: AtomicU64::new(0),
                ready: Mutex::new(Ready::new(policy.fair_queuing())),
                idle: StdMutex::new(()),
                wakeup: Condvar::new(),
                shutdown: AtomicBool::new(false),
                live_submissions: AtomicUsize::new(0),
            });
            let mut threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
            for index in 0..workers.max(1) {
                let shared = shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("xaas-engine-{index}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn engine worker");
                threads.push(handle);
            }
            shared
        })
    }

    pub(crate) fn queue_stats(&self) -> QueueStats {
        match self.shared.get() {
            Some(shared) => {
                let ready = shared.ready.lock();
                QueueStats {
                    queued_actions: ready.queued_actions,
                    waiting_submissions: ready.waiting.len(),
                    live_submissions: shared.live_submissions.load(Ordering::Acquire),
                    parked_waiters: ready.parked_waiters,
                    parks: ready.parks,
                    wakeups: ready.wakeups,
                }
            }
            None => QueueStats::default(),
        }
    }

    /// Nonblocking submission of an owned (`'static`) graph.
    pub(crate) fn submit_graph<E: Send + 'static>(
        &self,
        cache: &Arc<dyn CacheBackend>,
        policy: &Arc<dyn SchedulingPolicy>,
        seq: &Arc<AtomicU64>,
        workers: usize,
        graph: ActionGraph<'static, E>,
        tenant: Option<String>,
    ) -> GraphHandle<E> {
        let shared = self.shared_or_init(cache, policy, seq, workers).clone();
        let stage_depth = graph.depth();
        let nodes = erase_nodes(graph);
        // No `assume_static` needed: the graph really is 'static.
        let nodes: Vec<ErasedNode<'static>> = nodes;
        let sub = shared.submit(nodes, stage_depth, tenant);
        GraphHandle {
            sub,
            _error: PhantomData,
        }
    }

    /// Blocking execution of a graph whose closures may borrow the caller's frame.
    pub(crate) fn run_blocking<'env, E: Send + 'static>(
        &self,
        cache: &Arc<dyn CacheBackend>,
        policy: &Arc<dyn SchedulingPolicy>,
        seq: &Arc<AtomicU64>,
        workers: usize,
        graph: ActionGraph<'env, E>,
        tenant: Option<String>,
    ) -> GraphRun<E> {
        let shared = self.shared_or_init(cache, policy, seq, workers).clone();
        let stage_depth = graph.depth();
        let nodes = erase_nodes(graph);
        // SAFETY: this frame waits for the submission to complete before
        // returning (`wait_done`, backstopped by `WaitOnDrop` on unwind), and
        // `complete()` drops every un-executed closure before signalling done —
        // so no borrowed closure outlives `'env`.
        let nodes = unsafe { assume_static(nodes) };
        let sub = shared.submit(nodes, stage_depth, tenant);
        let _wait_guard = WaitOnDrop(&sub);
        sub.wait_done();
        take_run::<E>(&sub)
    }
}

impl Drop for ExecutorCore {
    fn drop(&mut self) {
        let Some(shared) = self.shared.get() else {
            return;
        };
        // Detached submissions (GraphHandles) finish on their own; wait for them
        // so no accepted work is abandoned, then stop the pool.
        {
            let mut guard = shared.idle.lock().unwrap_or_else(|e| e.into_inner());
            while shared.live_submissions.load(Ordering::Acquire) != 0 {
                let (next, _) = shared
                    .wakeup
                    .wait_timeout(guard, std::time::Duration::from_millis(10))
                    .unwrap_or_else(|e| e.into_inner());
                guard = next;
            }
        }
        shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = shared.idle.lock().unwrap_or_else(|e| e.into_inner());
            shared.wakeup.notify_all();
        }
        let threads = std::mem::take(&mut *self.threads.lock().unwrap_or_else(|e| e.into_inner()));
        let current = std::thread::current().id();
        for handle in threads {
            // A completion callback can drop the last Engine clone *on* a pool
            // thread; that thread detaches instead of joining itself.
            if handle.thread().id() == current {
                continue;
            }
            let _ = handle.join();
        }
    }
}

/// Assemble the typed [`GraphRun`] of a completed submission, re-raising the
/// first action panic on the calling thread.
fn take_run<E: Send + 'static>(sub: &Submission) -> GraphRun<E> {
    debug_assert!(sub.done.load(Ordering::Acquire));
    if let Some(payload) = sub.panic_payload.lock().take() {
        // Re-raise the first action panic on the waiting thread, as a serial
        // executor would have.
        std::panic::resume_unwind(payload);
    }
    let outcomes = sub
        .slots
        .iter()
        .map(
            |slot| match std::mem::replace(&mut *slot.lock(), Slot::Pending) {
                Slot::Output(bytes) => NodeOutcome::Output(bytes),
                Slot::Failed(error) => NodeOutcome::Failed(
                    *error
                        .downcast::<E>()
                        .expect("submission error type matches the graph's"),
                ),
                Slot::Skipped { root } => NodeOutcome::Skipped { root },
                Slot::Cancelled => NodeOutcome::Cancelled,
                Slot::Pending => unreachable!("executor drained every node"),
            },
        )
        .collect();
    let trace = ActionTrace {
        records: sub
            .records
            .iter()
            .filter_map(|record| record.lock().take())
            .collect(),
        stage_depth: sub.stage_depth,
        policy: sub.policy_name.clone(),
        tenant: sub.tenant.clone(),
    };
    let infos = sub
        .metas
        .iter()
        .map(|meta| NodeInfo {
            kind: meta.kind,
            label: meta.label.clone(),
            job: meta.job,
        })
        .collect();
    GraphRun {
        outcomes,
        trace,
        infos,
    }
}

/// Live progress of one submission (see [`GraphHandle::poll`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStatus {
    /// Total nodes in the submitted graph.
    pub total: usize,
    /// Nodes retired so far (completed, failed, skipped, or cancelled).
    pub finished: usize,
    /// Whether every node has retired.
    pub done: bool,
    /// Whether the submission was cancelled.
    pub cancelled: bool,
}

/// A nonblocking handle to a submitted graph: poll progress, register a
/// completion callback, cancel, or wait for the typed [`GraphRun`].
///
/// Dropping the handle does **not** cancel the submission — accepted work runs to
/// completion (the engine waits for it on shutdown); call
/// [`cancel`](Self::cancel) for early termination.
pub struct GraphHandle<E> {
    sub: Arc<Submission>,
    _error: PhantomData<fn() -> E>,
}

impl<E: Send + 'static> GraphHandle<E> {
    /// Current progress, without blocking.
    pub fn poll(&self) -> GraphStatus {
        let total = sub_total(&self.sub);
        let remaining = self.sub.remaining.load(Ordering::Acquire);
        GraphStatus {
            total,
            finished: total - remaining.min(total),
            done: self.sub.done.load(Ordering::Acquire),
            cancelled: self.sub.cancelled.load(Ordering::Relaxed),
        }
    }

    /// Whether every node has retired (the run can be [`wait`](Self::wait)ed
    /// without blocking).
    pub fn is_done(&self) -> bool {
        self.sub.done.load(Ordering::Acquire)
    }

    /// Request cancellation: nodes not yet dispatched retire as
    /// [`NodeOutcome::Cancelled`] instead of running. Actions already executing
    /// finish normally (actions are small compile steps; there is no preemption).
    pub fn cancel(&self) {
        self.sub.cancelled.store(true, Ordering::Relaxed);
    }

    /// Register a completion callback, invoked exactly once by the worker that
    /// retires the submission's last node — or immediately, on the calling
    /// thread, when the submission already completed. The callback is a
    /// *notification* (wake a scheduler, send on a channel); fetch results with
    /// [`wait`](Self::wait).
    pub fn on_complete(&self, callback: impl FnOnce() + Send + 'static) {
        {
            let mut slot = self.sub.callback.lock();
            if !self.sub.done.load(Ordering::Acquire) {
                *slot = Some(Box::new(callback));
                return;
            }
        }
        callback();
    }

    /// Block until the submission completes and assemble its typed [`GraphRun`].
    /// Re-raises the first action panic on this thread, like the blocking
    /// [`Engine::run`](super::Engine::run) does.
    pub fn wait(self) -> GraphRun<E> {
        self.sub.wait_done();
        take_run::<E>(&self.sub)
    }
}

impl<E> std::fmt::Debug for GraphHandle<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphHandle")
            .field("submission", &self.sub.id)
            .field("tenant", &self.sub.tenant)
            .field("total", &sub_total(&self.sub))
            .field("remaining", &self.sub.remaining.load(Ordering::Relaxed))
            .field("done", &self.sub.done.load(Ordering::Relaxed))
            .finish()
    }
}

fn sub_total(sub: &Submission) -> usize {
    sub.metas.len()
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
        let nodes = (0..nodes)
            .map(|node| ErasedNode {
                kind: ActionKind::Preprocess,
                label: format!("n{node}"),
                job: None,
                deps: Vec::new(),
                work: ErasedWork {
                    run: Box::new(|_| Ok(Vec::new())),
                    key: ErasedKeySpec::None,
                },
            })
            .collect();
        let tenant = tenant.map(str::to_string);
        Arc::new(Submission::new(id, tenant, String::new(), 1, nodes))
    }

    /// Open `sub`'s lane and queue all of its nodes, as `CoreShared::submit` does.
    fn admit(ready: &mut Ready, policy: &dyn SchedulingPolicy, sub: &Arc<Submission>) {
        ready.open(&sub.tenant, policy);
        push_all(ready, sub);
    }

    fn push_all(ready: &mut Ready, sub: &Arc<Submission>) {
        for node in 0..sub.metas.len() {
            ready.push(Queued {
                sub: sub.clone(),
                node,
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
            self.shared
                .get()
                .map_or(0, |shared| shared.ready.lock().lanes.len())
        }
    }

    #[test]
    fn fifo_shares_one_lane_in_push_order_whatever_the_tenant() {
        let mut ready = Ready::new(Fifo.fair_queuing());
        let first = submission(0, Some("zed"), 3);
        let second = submission(1, Some("abe"), 2);
        admit(&mut ready, &Fifo, &first);
        admit(&mut ready, &Fifo, &second);
        assert_eq!(ready.lanes.len(), 1);
        assert_eq!(
            pops(&mut ready, 5),
            ["zed/0", "zed/1", "zed/2", "abe/0", "abe/1"]
        );
        assert!(ready.pop().is_none());
    }

    #[test]
    fn lowest_virtual_time_lane_wins_and_ties_go_to_the_lowest_tenant_name() {
        let policy = WeightedFair::new();
        let mut ready = Ready::new(policy.fair_queuing());
        // Opened in the order b, a, untenanted: ties are broken by name, not age.
        for (id, tenant) in [Some("b"), Some("a"), None].into_iter().enumerate() {
            admit(&mut ready, &policy, &submission(id as u64, tenant, 2));
        }
        assert_eq!(
            pops(&mut ready, 6),
            ["-/0", "a/0", "b/0", "-/1", "a/1", "b/1"]
        );
        // A lane behind on virtual time goes first regardless of its name.
        let late = submission(3, Some("z"), 1);
        let early = submission(4, Some("a"), 1);
        admit(&mut ready, &policy, &late);
        push_all(&mut ready, &early);
        ready.lanes.get_mut(&late.tenant).unwrap().vtime = 0;
        assert_eq!(pops(&mut ready, 2), ["z/0", "a/0"]);
    }

    #[test]
    fn weights_three_to_one_give_a_three_to_one_pop_share() {
        let policy = WeightedFair::new().with_weight("gold", 3);
        let mut ready = Ready::new(policy.fair_queuing());
        admit(&mut ready, &policy, &submission(0, Some("gold"), 400));
        admit(&mut ready, &policy, &submission(1, Some("std"), 400));
        let order = pops(&mut ready, 400);
        assert_eq!((share(&order, "gold"), share(&order, "std")), (300, 100));
        // Within each lane the order stayed FIFO.
        let gold = order.iter().filter(|id| id.starts_with("gold"));
        assert!(gold.enumerate().all(|(n, id)| *id == format!("gold/{n}")));
    }

    #[test]
    fn an_idle_lane_reenters_at_virtual_now_and_cannot_replay_banked_credit() {
        let policy = WeightedFair::new();
        let mut ready = Ready::new(policy.fair_queuing());
        let idle = submission(0, Some("idle"), 10);
        let busy = submission(1, Some("busy"), 110);
        // `idle` holds a lane (a live submission, say parked on a flight) but
        // queues nothing while `busy` dispatches a hundred actions.
        ready.open(&idle.tenant, &policy);
        admit(&mut ready, &policy, &busy);
        assert_eq!(share(&pops(&mut ready, 100), "busy"), 100);
        push_all(&mut ready, &idle);
        // Banked credit would hand `idle` the next ten pops; it gets every other.
        let order = pops(&mut ready, 10);
        assert_eq!((share(&order, "idle"), share(&order, "busy")), (5, 5));
    }

    #[test]
    fn a_retired_tenant_reenters_mid_run_at_virtual_now() {
        let policy = WeightedFair::new();
        let mut ready = Ready::new(policy.fair_queuing());
        let busy = submission(0, Some("busy"), 55);
        let first = submission(1, Some("guest"), 1);
        admit(&mut ready, &policy, &busy);
        admit(&mut ready, &policy, &first);
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
        admit(&mut ready, &policy, &second);
        let order = pops(&mut ready, 8);
        assert_eq!((share(&order, "guest"), share(&order, "busy")), (4, 4));
        ready.close(&second.tenant);
        ready.close(&busy.tenant);
        assert!(ready.lanes.is_empty());
    }

    #[test]
    fn depth_accounting_returns_to_zero_after_interleaved_push_and_pop() {
        let policy = WeightedFair::new();
        let mut ready = Ready::new(policy.fair_queuing());
        let subs = [
            submission(0, Some("a"), 3),
            submission(1, Some("b"), 2),
            submission(2, Some("a"), 1),
        ];
        admit(&mut ready, &policy, &subs[0]);
        admit(&mut ready, &policy, &subs[1]);
        assert_eq!((ready.queued_actions, ready.waiting.len()), (5, 2));
        let (_, depth) = ready.pop().unwrap();
        assert_eq!(depth, 2, "both submissions had waiting actions");
        admit(&mut ready, &policy, &subs[2]);
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
        let engine = Engine::uncached(&ImageStore::new())
            .with_workers(2)
            .with_policy(WeightedFair::new());
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
    fn skipped_without_failure_is_a_typed_contract_violation_not_a_panic() {
        // A cache backend that fails a keyed action without running its compute
        // closure leaves a skip whose root never failed. Historically this path
        // was a panic!; it must now surface as a typed GraphRunError.
        let run = run_with_outcomes(vec![
            NodeOutcome::Output(Blob::from(vec![1u8])),
            NodeOutcome::Skipped { root: 0 },
        ]);
        let error = run.into_outputs().unwrap_err();
        assert_eq!(error, GraphRunError::ContractViolation { node: 0 });
        assert!(
            error.to_string().contains("cache backend failed"),
            "display names the broken contract: {error}"
        );
    }

    #[test]
    fn cancelled_nodes_surface_as_typed_cancellation_not_a_panic() {
        let run = run_with_outcomes(vec![
            NodeOutcome::Output(Blob::from(vec![1u8])),
            NodeOutcome::Cancelled,
        ]);
        let error = run.into_outputs().unwrap_err();
        assert_eq!(error, GraphRunError::Cancelled { node: 1 });
        assert!(error.to_string().contains("cancelled before completion"));
    }

    #[test]
    fn action_errors_pass_through_and_split_from_engine_faults() {
        let run = run_with_outcomes(vec![NodeOutcome::Failed("boom".to_string())]);
        let error = run.into_outputs().unwrap_err();
        assert_eq!(error.into_action(), Ok("boom".to_string()));

        let fault: GraphFault = GraphRunError::<String>::Cancelled { node: 3 }
            .into_action()
            .unwrap_err();
        assert_eq!(fault, GraphRunError::Cancelled { node: 3 });
    }
}
