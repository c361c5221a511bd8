//! The multi-tenant service layer: one engine, many sessions.
//!
//! An [`Orchestrator`] is a single caller's view of the execution stack. The
//! paper's XaaS vision, though, is a *service*: many users submitting source/IR
//! container builds and fleet deployments against shared infrastructure. This
//! module is that front door. An [`OrchestratorService`] owns one orchestrator
//! (engine + cache + store + policy) and hands out [`Session`]s — one per
//! tenant — that multiplex typed requests onto the shared engine:
//!
//! ```text
//!   Session("alice") ─┐  admit   ┌────────────┐  queue  ┌─────────────┐
//!   Session("bob")   ─┼─────────►│ admission  ├────────►│ shared pool │──► trace
//!   Session("carol") ─┘  (or     │ control    │ (fair   │ (interleaved│
//!                        typed   └────────────┘  lanes) │  actions)   │
//!                        error)                         └─────────────┘
//! ```
//!
//! Every request a session submits is tagged with the session's tenant: the
//! engine's fair-queuing policies lane by it (see
//! [`WeightedFair`](crate::engine::WeightedFair)), and the run's
//! [`ActionTrace`](crate::engine::ActionTrace) records it. Actions from
//! concurrent sessions interleave on the shared worker pool at action
//! granularity, while the action cache keeps results byte-identical to
//! sequential execution — cross-session submissions of the same
//! [`BuildKey`](xaas_container::BuildKey) are single-flight.
//!
//! Admission control bounds the damage any tenant (or everyone at once) can do:
//!
//! * a tenant over its own in-flight allowance gets
//!   [`AdmissionError::Backpressure`] — *your* lane is full, retry later;
//! * a saturated service (global in-flight limit, or the engine's ready queue
//!   past its depth bound) gets [`AdmissionError::Rejected`];
//! * a draining service gets [`AdmissionError::Draining`].
//!
//! All three are typed errors returned *before* any action runs — never a
//! panic, never an unbounded queue. [`Session::submit_wait`] turns backpressure
//! into blocking for callers that prefer waiting to retry loops, and
//! [`OrchestratorService::drain`] / [`drain_wait`](OrchestratorService::drain_wait)
//! give the service a graceful shutdown: stop admitting, let in-flight requests
//! finish.

#![deny(clippy::unwrap_used, clippy::dbg_macro)]
use crate::engine::QueueStats;
use crate::orchestrator::{
    FleetReport, FleetRequest, IrBuildRequest, IrDeployRequest, Orchestrator, SourceDeployRequest,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use xaas_container::{CacheStats, ImageStore};

/// Bounds enforced by [`OrchestratorService`] admission control.
///
/// The defaults (8 in-flight requests per tenant, 64 globally, 4096 queued
/// actions) are sized for the simulated pipelines in this repository; a real
/// deployment would derive them from worker count and memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceLimits {
    /// In-flight requests allowed per tenant before [`AdmissionError::Backpressure`].
    pub max_in_flight_per_tenant: usize,
    /// In-flight requests allowed service-wide before [`AdmissionError::Rejected`].
    pub max_in_flight_global: usize,
    /// Engine ready-queue depth ([`QueueStats::queued_actions`]) beyond which new
    /// requests are [`AdmissionError::Rejected`] even under the in-flight limits.
    pub max_queued_actions: usize,
}

impl Default for ServiceLimits {
    fn default() -> Self {
        Self {
            max_in_flight_per_tenant: 8,
            max_in_flight_global: 64,
            max_queued_actions: 4096,
        }
    }
}

impl ServiceLimits {
    /// Override the per-tenant in-flight bound (clamped to at least 1).
    pub fn per_tenant(mut self, limit: usize) -> Self {
        self.max_in_flight_per_tenant = limit.max(1);
        self
    }

    /// Override the global in-flight bound (clamped to at least 1).
    pub fn global(mut self, limit: usize) -> Self {
        self.max_in_flight_global = limit.max(1);
        self
    }

    /// Override the ready-queue saturation bound (clamped to at least 1).
    pub fn queued_actions(mut self, limit: usize) -> Self {
        self.max_queued_actions = limit.max(1);
        self
    }
}

/// Why admission control refused a request. Returned before any action runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The submitting tenant is at its own in-flight allowance. The rest of the
    /// service may be idle — retry after one of this tenant's requests
    /// completes (or use [`Session::submit_wait`]).
    Backpressure {
        /// The tenant that hit its allowance.
        tenant: String,
        /// The tenant's in-flight requests at refusal time.
        in_flight: usize,
        /// The per-tenant limit ([`ServiceLimits::max_in_flight_per_tenant`]).
        limit: usize,
    },
    /// The service as a whole is saturated: the global in-flight limit is
    /// reached, or the engine's shared ready queue is past its depth bound.
    Rejected {
        /// In-flight requests service-wide at refusal time.
        in_flight: usize,
        /// Ready-queue depth at refusal time.
        queued_actions: usize,
        /// The limit that was hit (global in-flight or queued-action bound).
        limit: usize,
    },
    /// The service is draining: no new requests are admitted, in-flight
    /// requests are finishing.
    Draining,
    /// The engine's pre-submission static analyzer rejected the request's
    /// action graph with deny-level diagnostics before any of its actions ran
    /// (see [`GraphAnalyzer`](crate::engine::GraphAnalyzer)). The report lists
    /// every finding; resubmitting the same graph under the same policy will
    /// fail the same way.
    Invalid(Box<crate::engine::AnalysisReport>),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Backpressure {
                tenant,
                in_flight,
                limit,
            } => write!(
                f,
                "tenant `{tenant}` is at its in-flight allowance ({in_flight}/{limit}); retry later"
            ),
            AdmissionError::Rejected {
                in_flight,
                queued_actions,
                limit,
            } => write!(
                f,
                "service saturated ({in_flight} requests in flight, {queued_actions} actions queued, limit {limit})"
            ),
            AdmissionError::Draining => f.write_str("service is draining; no new requests admitted"),
            AdmissionError::Invalid(report) => {
                write!(f, "request graph rejected by pre-submission analysis: {report}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A request refused by admission control or failed by the pipeline it ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError<E> {
    /// Admission control refused the request before any action ran.
    Admission(AdmissionError),
    /// The request was admitted and its pipeline returned a typed error.
    Request(E),
}

impl<E> ServiceError<E> {
    /// The admission error, if that is what this is.
    pub fn admission(&self) -> Option<&AdmissionError> {
        match self {
            ServiceError::Admission(error) => Some(error),
            ServiceError::Request(_) => None,
        }
    }

    /// Whether this is per-tenant backpressure (worth retrying later).
    pub fn is_backpressure(&self) -> bool {
        matches!(
            self,
            ServiceError::Admission(AdmissionError::Backpressure { .. })
        )
    }
}

impl<E: fmt::Display> fmt::Display for ServiceError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Admission(error) => write!(f, "admission refused: {error}"),
            ServiceError::Request(error) => error.fmt(f),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for ServiceError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Admission(error) => Some(error),
            ServiceError::Request(error) => Some(error),
        }
    }
}

/// A typed request the service can admit and execute on a tenant's behalf.
///
/// Implemented for the orchestrator request types ([`IrBuildRequest`],
/// [`IrDeployRequest`], [`SourceDeployRequest`], [`FleetRequest`]), so one
/// [`Session::submit`] serves every pipeline.
pub trait ServiceRequest {
    /// What the pipeline produces.
    type Output;
    /// The pipeline's typed error ([`std::convert::Infallible`] for fleet
    /// requests, whose reports carry per-outcome errors instead).
    type Error;

    /// Execute on the session's tenant-tagged orchestrator. Called only after
    /// admission succeeded.
    fn execute(self, orch: &Orchestrator) -> Result<Self::Output, Self::Error>;

    /// If `error` is the engine's pre-submission analyzer rejecting the
    /// request's graph, extract the report so the service surfaces it as
    /// [`AdmissionError::Invalid`] — the refusal happened before any of the
    /// request's actions ran, exactly like the other admission errors.
    /// Default: not an analysis rejection.
    fn analysis_rejection(
        error: Self::Error,
    ) -> Result<Box<crate::engine::AnalysisReport>, Self::Error> {
        Err(error)
    }
}

impl ServiceRequest for IrBuildRequest<'_> {
    type Output = crate::ir_container::IrContainerBuild;
    type Error = crate::ir_container::IrPipelineError;

    fn execute(self, orch: &Orchestrator) -> Result<Self::Output, Self::Error> {
        self.submit(orch)
    }

    fn analysis_rejection(
        error: Self::Error,
    ) -> Result<Box<crate::engine::AnalysisReport>, Self::Error> {
        match error {
            crate::ir_container::IrPipelineError::Analysis(report) => Ok(report),
            other => Err(other),
        }
    }
}

impl ServiceRequest for IrDeployRequest<'_> {
    type Output = crate::deploy::IrDeployment;
    type Error = crate::deploy::DeployError;

    fn execute(self, orch: &Orchestrator) -> Result<Self::Output, Self::Error> {
        self.submit(orch)
    }

    fn analysis_rejection(
        error: Self::Error,
    ) -> Result<Box<crate::engine::AnalysisReport>, Self::Error> {
        match error {
            crate::deploy::DeployError::Analysis(report) => Ok(report),
            other => Err(other),
        }
    }
}

impl ServiceRequest for SourceDeployRequest<'_> {
    type Output = crate::source_container::SourceDeployment;
    type Error = crate::source_container::SourceContainerError;

    fn execute(self, orch: &Orchestrator) -> Result<Self::Output, Self::Error> {
        self.submit(orch)
    }

    fn analysis_rejection(
        error: Self::Error,
    ) -> Result<Box<crate::engine::AnalysisReport>, Self::Error> {
        match error {
            crate::source_container::SourceContainerError::Analysis(report) => Ok(report),
            other => Err(other),
        }
    }
}

impl ServiceRequest for FleetRequest<'_> {
    type Output = FleetReport;
    type Error = std::convert::Infallible;

    fn execute(self, orch: &Orchestrator) -> Result<Self::Output, Self::Error> {
        Ok(self.submit(orch))
    }
}

/// Admission counters, guarded by one mutex so refusal decisions are atomic.
#[derive(Default)]
struct AdmitState {
    in_flight_global: usize,
    in_flight_by_tenant: BTreeMap<String, usize>,
    draining: bool,
}

/// Monotonic outcome counters (outside the lock; totals, never read-modify-write).
#[derive(Default)]
struct AdmitCounters {
    admitted: AtomicU64,
    backpressured: AtomicU64,
    rejected: AtomicU64,
    refused_draining: AtomicU64,
}

struct ServiceInner {
    orch: Orchestrator,
    limits: ServiceLimits,
    state: Mutex<AdmitState>,
    changed: Condvar,
    counters: AdmitCounters,
}

impl ServiceInner {
    fn lock_state(&self) -> MutexGuard<'_, AdmitState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One admission decision under the lock. `Err` mutates nothing, the refusal
    /// counters included: a waiting [`admit`](Self::admit) re-runs this on every
    /// wake, so a refusal is booked only where it is returned to a caller.
    fn try_admit_locked(&self, state: &mut AdmitState, tenant: &str) -> Result<(), AdmissionError> {
        if state.draining {
            return Err(AdmissionError::Draining);
        }
        let queued_actions = self.orch.engine().queue_stats().queued_actions;
        if state.in_flight_global >= self.limits.max_in_flight_global {
            return Err(AdmissionError::Rejected {
                in_flight: state.in_flight_global,
                queued_actions,
                limit: self.limits.max_in_flight_global,
            });
        }
        if queued_actions >= self.limits.max_queued_actions {
            return Err(AdmissionError::Rejected {
                in_flight: state.in_flight_global,
                queued_actions,
                limit: self.limits.max_queued_actions,
            });
        }
        let tenant_in_flight = state.in_flight_by_tenant.get(tenant).copied().unwrap_or(0);
        if tenant_in_flight >= self.limits.max_in_flight_per_tenant {
            return Err(AdmissionError::Backpressure {
                tenant: tenant.to_string(),
                in_flight: tenant_in_flight,
                limit: self.limits.max_in_flight_per_tenant,
            });
        }
        state.in_flight_global += 1;
        *state
            .in_flight_by_tenant
            .entry(tenant.to_string())
            .or_insert(0) += 1;
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Admit `tenant` or return the typed refusal. With `wait`, block through
    /// `Backpressure` and `Rejected` until a slot frees instead of returning
    /// them; `Draining` always fails fast.
    fn admit<'a>(&'a self, tenant: &'a str, wait: bool) -> Result<AdmitPermit<'a>, AdmissionError> {
        let mut state = self.lock_state();
        loop {
            match self.try_admit_locked(&mut state, tenant) {
                Ok(()) => {
                    return Ok(AdmitPermit {
                        inner: self,
                        tenant,
                    })
                }
                Err(refusal) if wait && refusal != AdmissionError::Draining => {
                    state = self.changed.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                Err(refusal) => {
                    let counter = match refusal {
                        AdmissionError::Backpressure { .. } => &self.counters.backpressured,
                        AdmissionError::Rejected { .. } => &self.counters.rejected,
                        _ => &self.counters.refused_draining,
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    return Err(refusal);
                }
            }
        }
    }

    fn release(&self, tenant: &str) {
        let mut state = self.lock_state();
        state.in_flight_global = state.in_flight_global.saturating_sub(1);
        if let Some(count) = state.in_flight_by_tenant.get_mut(tenant) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                state.in_flight_by_tenant.remove(tenant);
            }
        }
        drop(state);
        self.changed.notify_all();
    }
}

/// RAII admission slot: holds one in-flight count for `tenant`, released on drop
/// (so a panicking pipeline still frees its slot).
struct AdmitPermit<'a> {
    inner: &'a ServiceInner,
    tenant: &'a str,
}

impl fmt::Debug for AdmitPermit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmitPermit")
            .field("tenant", &self.tenant)
            .finish()
    }
}

impl Drop for AdmitPermit<'_> {
    fn drop(&mut self) {
        self.inner.release(self.tenant);
    }
}

/// Point-in-time service counters (see [`OrchestratorService::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted since the service was created.
    pub admitted: u64,
    /// Requests refused with [`AdmissionError::Backpressure`].
    pub backpressured: u64,
    /// Requests refused with [`AdmissionError::Rejected`].
    pub rejected: u64,
    /// Requests refused with [`AdmissionError::Draining`].
    pub refused_draining: u64,
    /// Requests in flight right now, service-wide.
    pub in_flight: usize,
    /// Requests in flight right now, per tenant (empty entries omitted).
    pub in_flight_by_tenant: BTreeMap<String, usize>,
    /// Whether the service is draining.
    pub draining: bool,
    /// The engine's shared ready-queue occupancy.
    pub queue: QueueStats,
}

/// A multi-tenant orchestrator service: one shared [`Orchestrator`] (engine,
/// cache, store, policy), many [`Session`]s, admission control in front.
///
/// Cloning is cheap and shares the whole service (the admission state included).
///
/// ```
/// use xaas::engine::WeightedFair;
/// use xaas::orchestrator::{IrBuildRequest, Orchestrator};
/// use xaas::service::{OrchestratorService, ServiceLimits};
///
/// let service = OrchestratorService::builder()
///     .policy(WeightedFair::new().with_weight("alice", 3))
///     .limits(ServiceLimits::default().per_tenant(2))
///     .build();
/// let alice = service.session("alice");
/// let project = xaas_apps::lulesh::project();
/// let config = xaas::ir_container::IrPipelineConfig::sweep_options(
///     &project,
///     &["WITH_MPI", "WITH_OPENMP"],
/// );
/// let build = alice.submit(IrBuildRequest::new(&project, &config)).unwrap();
/// assert_eq!(build.trace.tenant.as_deref(), Some("alice"));
/// ```
#[derive(Clone)]
pub struct OrchestratorService {
    inner: Arc<ServiceInner>,
}

impl OrchestratorService {
    /// A service over `orch` with [`ServiceLimits::default`].
    pub fn new(orch: Orchestrator) -> Self {
        Self::with_limits(orch, ServiceLimits::default())
    }

    /// A service over `orch` with explicit limits. The engine's pre-submission
    /// analyzer is told the queued-action bound, so graphs that alone would
    /// overflow it are flagged ([`DiagnosticCode::QueueOverflow`](crate::engine::DiagnosticCode))
    /// at analysis time instead of only tripping admission at run time.
    pub fn with_limits(orch: Orchestrator, limits: ServiceLimits) -> Self {
        let orch = orch.with_queue_bound(Some(limits.max_queued_actions));
        Self {
            inner: Arc::new(ServiceInner {
                orch,
                limits,
                state: Mutex::new(AdmitState::default()),
                changed: Condvar::new(),
                counters: AdmitCounters::default(),
            }),
        }
    }

    /// A builder over [`OrchestratorBuilder`](crate::orchestrator::OrchestratorBuilder)
    /// plus [`ServiceLimits`].
    pub fn builder() -> OrchestratorServiceBuilder {
        OrchestratorServiceBuilder::default()
    }

    /// Open a session for `tenant`. Sessions are cheap, cloneable, and `Send` —
    /// open one per concurrent caller. Every request the session submits runs
    /// tenant-tagged on the shared engine.
    pub fn session(&self, tenant: impl Into<String>) -> Session {
        let tenant = tenant.into();
        let orch = self.inner.orch.for_tenant(&tenant);
        Session {
            inner: Arc::clone(&self.inner),
            orch,
            tenant,
        }
    }

    /// The shared orchestrator (untenanted view).
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.inner.orch
    }

    /// The content-addressed store behind the shared cache.
    pub fn store(&self) -> &ImageStore {
        self.inner.orch.store()
    }

    /// The shared cache backend's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.orch.cache_stats()
    }

    /// The admission limits in force.
    pub fn limits(&self) -> ServiceLimits {
        self.inner.limits
    }

    /// Current counters: admissions, refusals by kind, in-flight by tenant, and
    /// the engine queue snapshot.
    pub fn stats(&self) -> ServiceStats {
        let state = self.inner.lock_state();
        ServiceStats {
            admitted: self.inner.counters.admitted.load(Ordering::Relaxed),
            backpressured: self.inner.counters.backpressured.load(Ordering::Relaxed),
            rejected: self.inner.counters.rejected.load(Ordering::Relaxed),
            refused_draining: self.inner.counters.refused_draining.load(Ordering::Relaxed),
            in_flight: state.in_flight_global,
            in_flight_by_tenant: state.in_flight_by_tenant.clone(),
            draining: state.draining,
            queue: self.inner.orch.engine().queue_stats(),
        }
    }

    /// Stop admitting new requests. In-flight requests keep running; new
    /// submissions get [`AdmissionError::Draining`]. Idempotent.
    pub fn drain(&self) {
        let mut state = self.inner.lock_state();
        state.draining = true;
        drop(state);
        self.inner.changed.notify_all();
    }

    /// [`drain`](Self::drain), then block until every in-flight request has
    /// completed. After this returns the service is quiescent: nothing is in
    /// flight and nothing new can be admitted until [`resume`](Self::resume).
    pub fn drain_wait(&self) {
        self.drain();
        let mut state = self.inner.lock_state();
        while state.in_flight_global > 0 {
            state = self
                .inner
                .changed
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Re-open a drained service for new admissions.
    pub fn resume(&self) {
        let mut state = self.inner.lock_state();
        state.draining = false;
        drop(state);
        self.inner.changed.notify_all();
    }

    /// Whether the service is draining.
    pub fn is_draining(&self) -> bool {
        self.inner.lock_state().draining
    }
}

impl fmt::Debug for OrchestratorService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.inner.lock_state();
        f.debug_struct("OrchestratorService")
            .field("limits", &self.inner.limits)
            .field("in_flight", &state.in_flight_global)
            .field("tenants", &state.in_flight_by_tenant.len())
            .field("draining", &state.draining)
            .finish()
    }
}

/// Fluent construction of an [`OrchestratorService`]: the orchestrator knobs
/// (workers, cache, policy) plus [`ServiceLimits`].
#[derive(Debug, Default)]
pub struct OrchestratorServiceBuilder {
    orch: crate::orchestrator::OrchestratorBuilder,
    limits: ServiceLimits,
}

impl OrchestratorServiceBuilder {
    /// Fix the engine worker count (default: host parallelism clamped to `[2, 8]`).
    pub fn workers(mut self, workers: usize) -> Self {
        self.orch = self.orch.workers(workers);
        self
    }

    /// Route every keyed action through an existing shared
    /// [`ActionCache`](xaas_container::ActionCache).
    pub fn action_cache(mut self, cache: xaas_container::ActionCache) -> Self {
        self.orch = self.orch.action_cache(cache);
        self
    }

    /// Never cache: every action executes, artifacts and images land in `store`.
    pub fn uncached(mut self, store: ImageStore) -> Self {
        self.orch = self.orch.uncached(store);
        self
    }

    /// Route every keyed action through a persistent tiered cache; fallible
    /// exactly as
    /// [`OrchestratorBuilder::cache_tiers`](crate::orchestrator::OrchestratorBuilder::cache_tiers)
    /// is. The disk tier's byte budget is the config's own
    /// [`DiskTierConfig::capacity_bytes`](xaas_container::DiskTierConfig::capacity_bytes).
    pub fn cache_tiers(
        mut self,
        config: xaas_container::TierConfig,
    ) -> Result<Self, xaas_container::TierError> {
        self.orch = self.orch.cache_tiers(config)?;
        Ok(self)
    }

    /// Set the scheduling policy (e.g. [`WeightedFair`](crate::engine::WeightedFair)
    /// for tenant-fair lanes).
    pub fn policy(mut self, policy: impl crate::engine::SchedulingPolicy + 'static) -> Self {
        self.orch = self.orch.policy(policy);
        self
    }

    /// Set the admission limits (default: [`ServiceLimits::default`]).
    pub fn limits(mut self, limits: ServiceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Build the service.
    pub fn build(self) -> OrchestratorService {
        OrchestratorService::with_limits(self.orch.build(), self.limits)
    }
}

/// One tenant's handle onto the shared service.
///
/// A session is cheap to clone and `Send`: hand one to each concurrent caller
/// thread. Submissions block the calling thread until the request's actions
/// have drained through the shared pool (the *engine* is nonblocking across
/// submissions — actions from other sessions interleave with this one), so a
/// session held by N threads contributes up to N in-flight requests.
#[derive(Clone)]
pub struct Session {
    inner: Arc<ServiceInner>,
    orch: Orchestrator,
    tenant: String,
}

impl Session {
    /// The tenant this session submits as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The tenant-tagged orchestrator requests run on. Exposed for read access
    /// (store, cache stats, policy); submitting directly to it bypasses
    /// admission control.
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orch
    }

    /// The service this session belongs to.
    pub fn service(&self) -> OrchestratorService {
        OrchestratorService {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Admit and execute `request`, returning its output or a typed
    /// [`ServiceError`]: admission refusals ([`AdmissionError`]) before any
    /// action runs, pipeline errors after.
    pub fn submit<R: ServiceRequest>(
        &self,
        request: R,
    ) -> Result<R::Output, ServiceError<R::Error>> {
        self.run(request, false)
    }

    /// Like [`submit`](Self::submit), but blocks through backpressure and
    /// saturation until a slot frees instead of returning the refusal. Still
    /// fails fast with [`AdmissionError::Draining`] on a draining service.
    pub fn submit_wait<R: ServiceRequest>(
        &self,
        request: R,
    ) -> Result<R::Output, ServiceError<R::Error>> {
        self.run(request, true)
    }

    fn run<R: ServiceRequest>(
        &self,
        request: R,
        wait: bool,
    ) -> Result<R::Output, ServiceError<R::Error>> {
        let permit = self
            .inner
            .admit(&self.tenant, wait)
            .map_err(ServiceError::Admission)?;
        let result = request.execute(&self.orch);
        drop(permit);
        result.map_err(Self::classify::<R>)
    }

    /// Fold a pipeline error back into the service's error taxonomy: a
    /// pre-submission analysis rejection is an *admission* refusal
    /// ([`AdmissionError::Invalid`] — no action of the request ran), anything
    /// else a pipeline failure.
    fn classify<R: ServiceRequest>(error: R::Error) -> ServiceError<R::Error> {
        match R::analysis_rejection(error) {
            Ok(report) => ServiceError::Admission(AdmissionError::Invalid(report)),
            Err(error) => ServiceError::Request(error),
        }
    }

    /// Convenience for fleet requests, whose reports are always produced (per-
    /// outcome errors live on the report): unwraps the impossible request error.
    pub fn submit_fleet(&self, request: FleetRequest<'_>) -> Result<FleetReport, AdmissionError> {
        self.submit(request).map_err(|error| match error {
            ServiceError::Admission(admission) => admission,
            ServiceError::Request(impossible) => match impossible {},
        })
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("tenant", &self.tenant)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::ir_container::IrPipelineConfig;
    use std::sync::mpsc;
    use std::time::Duration;

    fn lulesh_sweep() -> (xaas_buildsys::ProjectSpec, IrPipelineConfig) {
        let project = xaas_apps::lulesh::project();
        let config = IrPipelineConfig::sweep_options(&project, &["WITH_MPI", "WITH_OPENMP"]);
        (project, config)
    }

    #[test]
    fn session_submissions_are_tenant_tagged_and_counted() {
        let (project, config) = lulesh_sweep();
        let service = OrchestratorService::builder().workers(2).build();
        let session = service.session("alice");
        let build = session
            .submit(IrBuildRequest::new(&project, &config).reference("svc:ir"))
            .unwrap();
        assert_eq!(build.trace.tenant.as_deref(), Some("alice"));
        for record in &build.trace.records {
            assert_eq!(record.tenant.as_deref(), Some("alice"));
        }
        let stats = service.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.in_flight, 0);
        assert!(stats.in_flight_by_tenant.is_empty());
    }

    #[test]
    fn per_tenant_backpressure_is_typed_and_global_saturation_rejects() {
        let service = OrchestratorService::builder()
            .workers(1)
            .limits(ServiceLimits::default().per_tenant(1).global(2))
            .build();
        // Occupy alice's only slot by hand.
        let permit = service.inner.admit("alice", false).unwrap();
        let error = service.inner.admit("alice", false).unwrap_err();
        assert_eq!(
            error,
            AdmissionError::Backpressure {
                tenant: "alice".into(),
                in_flight: 1,
                limit: 1,
            }
        );
        // A different tenant still gets in — backpressure is per-lane.
        let other = service.inner.admit("bob", false).unwrap();
        // Global limit (2) now reached: even a fresh tenant is rejected.
        let error = service.inner.admit("carol", false).unwrap_err();
        assert!(matches!(
            error,
            AdmissionError::Rejected {
                in_flight: 2,
                limit: 2,
                ..
            }
        ));
        drop(other);
        drop(permit);
        let stats = service.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.backpressured, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn drain_refuses_new_requests_and_drain_wait_quiesces() {
        let (project, config) = lulesh_sweep();
        let service = OrchestratorService::builder().workers(2).build();
        let session = service.session("alice");
        service.drain();
        let error = session
            .submit(IrBuildRequest::new(&project, &config))
            .unwrap_err();
        assert!(matches!(
            error,
            ServiceError::Admission(AdmissionError::Draining)
        ));
        assert_eq!(service.stats().refused_draining, 1);
        service.drain_wait();
        assert_eq!(service.stats().in_flight, 0);
        // Resume re-opens the front door.
        service.resume();
        session
            .submit(IrBuildRequest::new(&project, &config).reference("svc:after-drain"))
            .unwrap();
    }

    #[test]
    fn submit_wait_blocks_through_backpressure_until_a_slot_frees() {
        let (project, config) = lulesh_sweep();
        let service = OrchestratorService::builder()
            .workers(2)
            .limits(ServiceLimits::default().per_tenant(1))
            .build();
        let session = service.session("alice");
        let permit = service.inner.admit("alice", false).unwrap();
        let (tx, rx) = mpsc::channel();
        let waiting = {
            let session = session.clone();
            let (project, config) = (project.clone(), config.clone());
            std::thread::spawn(move || {
                let result = session
                    .submit_wait(IrBuildRequest::new(&project, &config).reference("svc:waited"));
                tx.send(()).ok();
                result
            })
        };
        // The waiter must be parked, not failed: nothing arrives while the
        // permit is held.
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        drop(permit);
        rx.recv_timeout(Duration::from_secs(30))
            .expect("waiter admitted after the slot freed");
        waiting.join().unwrap().unwrap();
    }

    /// A request that only occupies its admission slot.
    struct Noop;

    impl ServiceRequest for Noop {
        type Output = ();
        type Error = std::convert::Infallible;

        fn execute(self, _: &Orchestrator) -> Result<(), Self::Error> {
            Ok(())
        }
    }

    /// Every release wakes every waiter, and each wake re-decides admission: a
    /// refusal counts only when it is returned to a caller, never for a request
    /// that is then admitted.
    #[test]
    fn submit_wait_books_no_refusal_for_a_request_it_admits() {
        for waiters in [1u64, 3] {
            let service = OrchestratorService::builder()
                .workers(1)
                .limits(ServiceLimits::default().per_tenant(1))
                .build();
            let permit = service.inner.admit("alice", false).unwrap();
            let (started, all_started) = mpsc::channel();
            let (finished, any_finished) = mpsc::channel();
            let waiting: Vec<_> = (0..waiters)
                .map(|_| {
                    let session = service.session("alice");
                    let (started, finished) = (started.clone(), finished.clone());
                    std::thread::spawn(move || {
                        started.send(()).ok();
                        let result = session.submit_wait(Noop);
                        finished.send(()).ok();
                        result
                    })
                })
                .collect();
            for _ in 0..waiters {
                all_started.recv_timeout(Duration::from_secs(30)).unwrap();
            }
            // Parked behind the held permit, not refused: nobody finishes.
            assert!(any_finished
                .recv_timeout(Duration::from_millis(100))
                .is_err());
            drop(permit);
            for waiter in waiting {
                waiter.join().unwrap().unwrap();
            }
            let stats = service.stats();
            assert_eq!(
                (stats.backpressured, stats.rejected, stats.admitted),
                (0, 0, waiters + 1)
            );
        }
    }
}
