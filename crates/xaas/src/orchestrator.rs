//! One front door: the [`Orchestrator`] session API.
//!
//! The paper's premise is that *one* container representation serves many
//! deployment decisions made late; this module is the API shape of that premise.
//! Instead of entry points that each re-wire store + cache + engine by hand,
//! an `Orchestrator` **owns** the execution stack — the [`Engine`], its
//! [`CacheBackend`](xaas_container::CacheBackend), the backing [`ImageStore`], and a
//! [`SchedulingPolicy`] — and every pipeline is a typed request submitted to it:
//!
//! * [`IrBuildRequest`] — build a deduplicated IR container (Figure 7);
//! * [`IrDeployRequest`] — specialize an IR container for one system (Figure 8);
//! * [`SourceDeployRequest`] — specialize a source container (Figure 6);
//! * [`FleetRequest`] — specialize one IR container for a whole fleet of
//!   [`FleetTarget`]s through the shared cache.
//!
//! ```
//! use xaas::orchestrator::{IrBuildRequest, IrDeployRequest, Orchestrator};
//! use xaas_hpcsim::{SimdLevel, SystemModel};
//!
//! let project = xaas_apps::lulesh::project();
//! let config = xaas::ir_container::IrPipelineConfig::sweep_options(
//!     &project,
//!     &["WITH_MPI", "WITH_OPENMP"],
//! );
//! let orch = Orchestrator::new();
//! let build = IrBuildRequest::new(&project, &config)
//!     .reference("spcl/mini-lulesh:ir")
//!     .submit(&orch)
//!     .unwrap();
//! let deployment = IrDeployRequest::new(&build, &project, &SystemModel::ault23())
//!     .select("WITH_MPI", "ON")
//!     .select("WITH_OPENMP", "ON")
//!     .simd(SimdLevel::Avx512)
//!     .submit(&orch)
//!     .unwrap();
//! assert!(deployment.lowered().unwrap().stats.lowered_units > 0);
//! assert!(orch.store().load(&deployment.reference).is_ok());
//! ```
//!
//! Requests return typed results ([`IrContainerBuild`], [`IrDeployment`],
//! [`SourceDeployment`], [`FleetReport`]), each carrying the run's
//! [`ActionTrace`]. The orchestrator validates its
//! scheduling policy up front, so an invalid configuration (e.g. a zero
//! fair-queuing weight) surfaces as a typed error before any action runs — never
//! as a panic or a starved lane.

use crate::deploy::{finish_ir_deploy, graft_ir_deploy, plan_ir_deploy};
use crate::deploy::{DeployError, DeployPlan, IrDeployment};
use crate::engine::plan::SharedDeployArtifacts;
use crate::engine::{ActionGraph, ActionTrace, AnalysisReport, Engine, SchedulingPolicy};
use crate::ir_container::{IrContainerBuild, IrPipelineConfig, IrPipelineError};
use crate::source_container::{
    finish_source_deploy, graft_source_deploy, plan_source_deploy, SelectionPolicy,
    SourceContainerError, SourceDeployPlan, SourceDeployment,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use xaas_buildsys::{OptionAssignment, ProjectSpec};
use xaas_container::{ActionCache, CacheStats, Digest, Image, ImageStore, TierConfig, TierError};
use xaas_hpcsim::{SimdLevel, SystemModel};

/// The session object every pipeline goes through: one engine, one cache backend,
/// one store, one scheduling policy.
///
/// Construct the common shapes directly ([`Orchestrator::new`],
/// [`Orchestrator::uncached`], [`Orchestrator::with_cache`]) or configure all the
/// knobs through [`Orchestrator::builder`]. Cloning is cheap and shares the whole
/// stack (cache, store, policy, dispatch counter).
#[derive(Debug, Clone)]
pub struct Orchestrator {
    engine: Engine,
    /// The [`ActionCache`] the engine routes through, when it was built over
    /// one — kept typed so callers can reach per-tier stats and GC without
    /// downcasting the engine's backend.
    cache: Option<ActionCache>,
}

impl Orchestrator {
    /// A fully-configured builder (workers, cache choice, scheduling policy).
    pub fn builder() -> OrchestratorBuilder {
        OrchestratorBuilder::default()
    }

    /// The production default: a fresh content-addressed [`ImageStore`] fronted by
    /// an [`ActionCache`], default workers, [`Fifo`](crate::engine::Fifo) policy.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// An orchestrator that never caches: every action executes, artifacts and
    /// images land in `store`.
    pub fn uncached(store: &ImageStore) -> Self {
        Self::from_engine(Engine::uncached(store))
    }

    /// An orchestrator memoizing every keyed action in `cache` (shared with any
    /// other orchestrator or engine over the same cache).
    pub fn with_cache(cache: &ActionCache) -> Self {
        Self {
            engine: Engine::cached(cache),
            cache: Some(cache.clone()),
        }
    }

    /// Wrap an explicitly-configured [`Engine`] (worker count, cache backend,
    /// scheduling policy are taken as-is).
    pub fn from_engine(engine: Engine) -> Self {
        Self {
            engine,
            cache: None,
        }
    }

    /// Tell the analyzer about a service-level queued-action bound (the
    /// `XA-SVC-001` check); the service layer wires its
    /// [`ServiceLimits`](crate::service::ServiceLimits) through here.
    pub(crate) fn with_queue_bound(mut self, bound: Option<usize>) -> Self {
        self.engine = self.engine.with_queue_bound(bound);
        self
    }

    /// A tenant-tagged view of this orchestrator: the clone shares the whole
    /// stack (engine pool, cache, store, policy, dispatch counter), but every
    /// request it runs is submitted as `tenant` — laned by fair-queuing
    /// policies and recorded in traces. This is how the
    /// [`service layer`](crate::service) multiplexes sessions.
    pub fn for_tenant(&self, tenant: impl Into<String>) -> Orchestrator {
        Orchestrator {
            engine: self.engine.clone().with_tenant(tenant),
            cache: self.cache.clone(),
        }
    }

    /// The tenant requests are submitted as, if this is a
    /// [`for_tenant`](Self::for_tenant) view.
    pub fn tenant(&self) -> Option<&str> {
        self.engine.tenant()
    }

    /// The engine requests execute on.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The content-addressed store behind the cache (images are committed here).
    pub fn store(&self) -> &ImageStore {
        self.engine.store()
    }

    /// The cache backend's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// The cache stack this orchestrator was built over — exposes the disk
    /// tier's counters ([`ActionCache::disk_stats`], `None` without
    /// [`OrchestratorBuilder::cache_tiers`]) and store-level GC
    /// ([`ActionCache::collect_garbage`]). `None` when uncached or wrapped
    /// [`from_engine`](Self::from_engine).
    pub fn tiered_cache(&self) -> Option<&ActionCache> {
        self.cache.as_ref()
    }

    /// The scheduling policy requests run under.
    pub fn policy(&self) -> &dyn SchedulingPolicy {
        self.engine.policy()
    }

    /// The engine's worker count.
    pub fn workers(&self) -> usize {
        self.engine.workers()
    }

    /// Validate the scheduling policy; called by every request before running.
    fn checked_engine(&self) -> Result<&Engine, crate::engine::PolicyError> {
        self.engine.policy().validate()?;
        Ok(&self.engine)
    }
}

/// Cache configuration of an [`OrchestratorBuilder`]; unset means a fresh
/// [`ActionCache`] over a fresh store.
enum CacheChoice {
    /// Route keyed actions through this [`ActionCache`].
    Cached(ActionCache),
    /// Never cache; commit into this store.
    Uncached(ImageStore),
}

/// Fluent construction of an [`Orchestrator`]: worker count, cache choice, and
/// scheduling policy.
///
/// ```
/// use xaas::engine::WeightedFair;
/// use xaas::orchestrator::Orchestrator;
///
/// let orch = Orchestrator::builder()
///     .workers(4)
///     .policy(WeightedFair::new().with_weight("alice", 3))
///     .build();
/// assert_eq!(orch.workers(), 4);
/// assert_eq!(orch.policy().name(), "weighted-fair");
/// ```
#[derive(Default)]
pub struct OrchestratorBuilder {
    workers: Option<usize>,
    policy: Option<Arc<dyn SchedulingPolicy>>,
    cache: Option<CacheChoice>,
}

impl OrchestratorBuilder {
    /// Fix the engine worker count (default: host parallelism clamped to `[2, 8]`).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Route every keyed action through an existing shared [`ActionCache`].
    pub fn action_cache(mut self, cache: ActionCache) -> Self {
        self.cache = Some(CacheChoice::Cached(cache));
        self
    }

    /// Never cache: every action executes, artifacts and images land in `store`.
    pub fn uncached(mut self, store: ImageStore) -> Self {
        self.cache = Some(CacheChoice::Uncached(store));
        self
    }

    /// Route every keyed action through an [`ActionCache::with_tiers`] stack
    /// built over a fresh store from `config`: the memory index, an optional
    /// on-disk CAS tier that survives restarts (set [`TierConfig::disk_root`]),
    /// and any further [`TierConfig::tier`]. Tier construction is fallible — an
    /// unwritable disk root or a zero L1 capacity is rejected here, not
    /// deferred to [`build`](Self::build).
    pub fn cache_tiers(self, config: TierConfig) -> Result<Self, TierError> {
        Ok(self.action_cache(ActionCache::with_tiers(ImageStore::new(), config)?))
    }

    /// Set the scheduling policy (default: [`Fifo`](crate::engine::Fifo)). Invalid
    /// policies are accepted here and rejected with a typed error when a request is
    /// submitted.
    pub fn policy(mut self, policy: impl SchedulingPolicy + 'static) -> Self {
        self.policy = Some(Arc::new(policy));
        self
    }

    /// Build the orchestrator.
    pub fn build(self) -> Orchestrator {
        let fresh = || CacheChoice::Cached(ActionCache::new(ImageStore::new()));
        let (mut engine, cache) = match self.cache.unwrap_or_else(fresh) {
            CacheChoice::Cached(cache) => (Engine::cached(&cache), Some(cache)),
            CacheChoice::Uncached(store) => (Engine::uncached(&store), None),
        };
        if let Some(workers) = self.workers {
            engine = engine.with_workers(workers);
        }
        if let Some(policy) = self.policy {
            engine = engine.with_policy_arc(policy);
        }
        Orchestrator { engine, cache }
    }
}

impl fmt::Debug for OrchestratorBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrchestratorBuilder")
            .field("workers", &self.workers)
            .field(
                "policy",
                &self.policy.as_ref().map(|p| p.name().to_string()),
            )
            .finish()
    }
}

/// Typed request: build a deduplicated IR container (Figure 7).
///
/// Returns [`IrContainerBuild`] — image, dedup statistics, manifests, units, and
/// the [`ActionTrace`].
#[derive(Debug, Clone)]
pub struct IrBuildRequest<'a> {
    project: &'a ProjectSpec,
    config: &'a IrPipelineConfig,
    reference: String,
}

impl<'a> IrBuildRequest<'a> {
    /// A request for `project` under `config`, committed as
    /// `<project-name>:ir` unless [`reference`](Self::reference) overrides it.
    pub fn new(project: &'a ProjectSpec, config: &'a IrPipelineConfig) -> Self {
        Self {
            project,
            config,
            reference: format!("{}:ir", project.name),
        }
    }

    /// Commit the built image under `reference`.
    pub fn reference(mut self, reference: impl Into<String>) -> Self {
        self.reference = reference.into();
        self
    }

    /// Execute the build on the orchestrator's engine.
    pub fn submit(self, orch: &Orchestrator) -> Result<IrContainerBuild, IrPipelineError> {
        let engine = orch.checked_engine().map_err(IrPipelineError::Policy)?;
        crate::ir_container::run_ir_build(self.project, self.config, engine, &self.reference)
    }

    /// Lint the build's stage-A action graph (preprocess + OpenMP detection)
    /// under the orchestrator's scheduling policy without executing anything.
    ///
    /// Unlike [`submit`](Self::submit), this does **not** pre-reject an invalid
    /// policy: policy defects surface as diagnostics in the returned
    /// [`AnalysisReport`] instead. The build's
    /// stage-B graph is derived from stage-A outputs, so it cannot be linted
    /// ahead of time; it is still analyzed on submission.
    pub fn analyze(self, orch: &Orchestrator) -> Result<AnalysisReport, IrPipelineError> {
        crate::ir_container::analyze_ir_build(self.project, self.config, orch.engine())
    }
}

/// Typed request: deploy (specialize) an IR container onto one system (Figure 8).
///
/// Returns [`IrDeployment`] — the system-specialized image, machine modules,
/// vectorization report, and the [`ActionTrace`].
#[derive(Debug, Clone)]
pub struct IrDeployRequest<'a> {
    build: &'a IrContainerBuild,
    project: &'a ProjectSpec,
    system: &'a SystemModel,
    selection: OptionAssignment,
    simd: Option<SimdLevel>,
}

impl<'a> IrDeployRequest<'a> {
    /// A request to specialize `build` for `system`. With no further calls the
    /// default configuration is selected and the IR is lowered for the best SIMD
    /// level the system supports.
    pub fn new(
        build: &'a IrContainerBuild,
        project: &'a ProjectSpec,
        system: &'a SystemModel,
    ) -> Self {
        Self {
            build,
            project,
            system,
            selection: OptionAssignment::new(),
            simd: None,
        }
    }

    /// Select `option = value` in the deployed configuration (repeatable).
    pub fn select(mut self, option: impl Into<String>, value: impl Into<String>) -> Self {
        self.selection.set(option.into(), value.into());
        self
    }

    /// Replace the whole configuration selection.
    pub fn selection(mut self, selection: OptionAssignment) -> Self {
        self.selection = selection;
        self
    }

    /// Lower the IR for this SIMD level (default: the system's best level).
    pub fn simd(mut self, simd: SimdLevel) -> Self {
        self.simd = Some(simd);
        self
    }

    /// The plan phase: the default SIMD level is the system's best.
    fn plan(&self) -> Result<DeployPlan<'a>, DeployError> {
        let simd = self.simd.unwrap_or_else(|| self.system.cpu.best_simd());
        plan_ir_deploy(self.build, self.project, self.system, &self.selection, simd)
    }

    /// Execute the deployment on the orchestrator's engine in **one** graph
    /// submission: plan, graft the subgraph onto a private graph, run it, finish.
    pub fn submit(self, orch: &Orchestrator) -> Result<IrDeployment, DeployError> {
        let engine = orch.checked_engine().map_err(DeployError::Policy)?;
        let plan = self.plan()?;
        let mut graph = ActionGraph::new();
        let standalone = &mut SharedDeployArtifacts::default();
        graft_ir_deploy(&plan, &mut graph, engine.store(), standalone);
        engine.preflight(&graph)?;
        let (_, trace) = engine.run(graph).into_outputs()?;
        Ok(finish_ir_deploy(plan, trace))
    }

    /// Lint the exact action graph this deployment would submit — planned and
    /// grafted, not run. Policy defects surface as diagnostics in the returned
    /// [`AnalysisReport`] rather than as a pre-rejection, so the report covers
    /// them alongside the graph's own findings.
    pub fn analyze(self, orch: &Orchestrator) -> Result<AnalysisReport, DeployError> {
        let plan = self.plan()?;
        let mut graph = ActionGraph::new();
        let standalone = &mut SharedDeployArtifacts::default();
        graft_ir_deploy(&plan, &mut graph, orch.store(), standalone);
        Ok(orch.engine().analyze(&graph))
    }
}

/// Typed request: deploy (specialize) a source container onto one system
/// (Figure 6): discovery → intersection → selection → full on-target build.
///
/// Returns [`SourceDeployment`] with the [`ActionTrace`].
#[derive(Debug, Clone)]
pub struct SourceDeployRequest<'a> {
    project: &'a ProjectSpec,
    source_image: &'a Image,
    system: &'a SystemModel,
    preferences: OptionAssignment,
    selection_policy: SelectionPolicy,
}

impl<'a> SourceDeployRequest<'a> {
    /// A request to specialize `source_image` for `system` under the
    /// [`SelectionPolicy::BestAvailable`] policy and no user preferences.
    pub fn new(project: &'a ProjectSpec, source_image: &'a Image, system: &'a SystemModel) -> Self {
        Self {
            project,
            source_image,
            system,
            preferences: OptionAssignment::new(),
            selection_policy: SelectionPolicy::BestAvailable,
        }
    }

    /// Pin `option = value` regardless of what the policy would choose (repeatable).
    pub fn prefer(mut self, option: impl Into<String>, value: impl Into<String>) -> Self {
        self.preferences.set(option.into(), value.into());
        self
    }

    /// Replace the whole preference set.
    pub fn preferences(mut self, preferences: OptionAssignment) -> Self {
        self.preferences = preferences;
        self
    }

    /// How unpinned specialization points are chosen (default:
    /// [`SelectionPolicy::BestAvailable`]).
    pub fn selection_policy(mut self, policy: SelectionPolicy) -> Self {
        self.selection_policy = policy;
        self
    }

    fn plan(&self) -> Result<SourceDeployPlan<'a>, SourceContainerError> {
        plan_source_deploy(
            self.project,
            self.source_image,
            self.system,
            &self.preferences,
            self.selection_policy,
        )
    }

    /// Execute the deployment on the orchestrator's engine in **one** graph
    /// submission, like an IR deployment: plan, graft, run, finish.
    pub fn submit(self, orch: &Orchestrator) -> Result<SourceDeployment, SourceContainerError> {
        let engine = orch
            .checked_engine()
            .map_err(SourceContainerError::Policy)?;
        let plan = self.plan()?;
        let mut graph = ActionGraph::new();
        graft_source_deploy(&plan, &mut graph, engine.store());
        engine.preflight(&graph)?;
        let (_, trace) = engine.run(graph).into_outputs()?;
        Ok(finish_source_deploy(plan, trace))
    }

    /// Lint the exact action graph this deployment would submit, as
    /// [`IrDeployRequest::analyze`] does.
    pub fn analyze(self, orch: &Orchestrator) -> Result<AnalysisReport, SourceContainerError> {
        let plan = self.plan()?;
        let mut graph = ActionGraph::new();
        graft_source_deploy(&plan, &mut graph, orch.store());
        Ok(orch.engine().analyze(&graph))
    }
}

/// One fleet member: deploy the IR container's `selection` configuration onto
/// `system`, lowered for `simd`.
#[derive(Debug, Clone)]
pub struct FleetTarget {
    /// The target system.
    pub system: SystemModel,
    /// The configuration to select from the IR container.
    pub selection: OptionAssignment,
    /// The SIMD level to lower for.
    pub simd: SimdLevel,
}

impl FleetTarget {
    /// A target for an explicit SIMD level.
    pub fn new(system: SystemModel, selection: OptionAssignment, simd: SimdLevel) -> Self {
        Self {
            system,
            selection,
            simd,
        }
    }

    /// A target lowered for the best SIMD level the system supports.
    pub fn best_for(system: SystemModel, selection: OptionAssignment) -> Self {
        let simd = system.cpu.best_simd();
        Self::new(system, selection, simd)
    }

    /// The deduplication identity of the target: two targets with the same job key
    /// are served by a single deployment job. The key digests the *entire* system
    /// model (not just its name), so differently-configured systems that happen to
    /// share a name never alias.
    pub fn job_key(&self) -> String {
        let system = serde_json::to_vec(&self.system).expect("system models serialise");
        format!(
            "{}|{}|{}",
            Digest::of_bytes(&system),
            self.selection.label(),
            self.simd.gmx_name()
        )
    }
}

/// A failed fleet job (cloneable so deduplicated targets can share it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetError {
    /// The system the job targeted.
    pub system: String,
    /// Rendered deployment error.
    pub message: String,
    /// Label of the failing action, when the failure happened inside the engine
    /// (a union-graph wave attributes the poisoning node — possibly a shared
    /// artifact another job planned). `None` for plan-time failures (unknown
    /// configuration, unsupported SIMD, missing unit) and invalid policies.
    pub action: Option<String>,
}

impl FleetError {
    /// The job for `system` failed with `error` before any of its actions ran.
    fn before_run(system: &SystemModel, error: impl fmt::Display) -> Self {
        Self {
            system: system.name.clone(),
            message: error.to_string(),
            action: None,
        }
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "specializing for {}: {}", self.system, self.message)?;
        if let Some(action) = &self.action {
            write!(f, " (action `{action}`)")?;
        }
        Ok(())
    }
}

impl std::error::Error for FleetError {}

/// The per-target outcome of a fleet run, in request order.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// System name of the target.
    pub system: String,
    /// Configuration label of the target.
    pub label: String,
    /// Requested SIMD level.
    pub simd: SimdLevel,
    /// The deployment (shared with any deduplicated duplicates) or the error.
    pub deployment: Result<Arc<IrDeployment>, FleetError>,
    /// Whether this target was served by another target's job.
    pub deduplicated: bool,
}

/// The result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One outcome per target, in request order.
    pub outcomes: Vec<FleetOutcome>,
    /// Distinct jobs that ran.
    pub jobs_executed: usize,
    /// Targets answered by an identical in-flight job.
    pub jobs_deduplicated: usize,
    /// Engine worker threads the deployments' actions fanned out across.
    pub workers: usize,
    /// Action-cache counters for *this run only*, accumulated from the run's own
    /// [`ActionTrace`] records (never by before/after subtraction on the shared
    /// backend, so concurrent tenants' traffic is never attributed to this
    /// request); `entries` is the live backend entry count after the run.
    /// `misses` is the number of compile/lower actions the fleet actually
    /// executed; `evictions` is a backend-global quantity with no per-request
    /// meaning and stays zero — read
    /// [`Orchestrator::cache_stats`] for the backend view.
    pub cache: CacheStats,
    /// Engine submissions the wave needed: one, or zero when no job reached
    /// the engine (an invalid policy, or every job failing at plan time).
    pub submissions: usize,
    /// The wave's [`ActionTrace`]: the single union-graph trace (records carry
    /// their [`job`](crate::engine::ActionRecord::job) tag). Per-job traces
    /// live on each outcome's [`IrDeployment::trace`].
    pub trace: ActionTrace,
}

impl FleetReport {
    /// Whether every target produced a deployment.
    pub fn all_succeeded(&self) -> bool {
        self.outcomes.iter().all(|o| o.deployment.is_ok())
    }

    /// The successful deployments, in request order.
    pub fn deployments(&self) -> impl Iterator<Item = &IrDeployment> {
        self.outcomes
            .iter()
            .filter_map(|o| o.deployment.as_ref().ok().map(Arc::as_ref))
    }

    /// Compile/lower actions the fleet executed (cache misses).
    pub fn actions_executed(&self) -> u64 {
        self.cache.misses
    }
}

/// Typed request: specialize one IR container for a fleet of systems through the
/// orchestrator's shared cache.
///
/// Duplicate targets are deduplicated up front; every distinct job's deployment
/// subgraph is grafted into **one union graph per wave** (a single engine
/// submission, with cross-job shared [`BuildKey`](xaas_container::BuildKey)s
/// executed once), so systems sharing an ISA share every lowered artifact and
/// the executor interleaves actions across systems. A failed job fails only the
/// targets that map to it.
#[derive(Debug, Clone)]
pub struct FleetRequest<'a> {
    build: &'a IrContainerBuild,
    project: &'a ProjectSpec,
    targets: Vec<FleetTarget>,
}

impl<'a> FleetRequest<'a> {
    /// An empty fleet over `build`.
    pub fn new(build: &'a IrContainerBuild, project: &'a ProjectSpec) -> Self {
        Self {
            build,
            project,
            targets: Vec::new(),
        }
    }

    /// Add one target (repeatable).
    pub fn target(mut self, target: FleetTarget) -> Self {
        self.targets.push(target);
        self
    }

    /// Add many targets.
    pub fn targets(mut self, targets: impl IntoIterator<Item = FleetTarget>) -> Self {
        self.targets.extend(targets);
        self
    }

    /// Lint the union graph one wave of this fleet would submit — every
    /// deduplicated job grafted as a tagged subgraph sharing keyed artifacts —
    /// without executing anything. The first plan-time failure is returned as
    /// a [`FleetError`]; policy defects surface as diagnostics in the returned
    /// [`AnalysisReport`].
    pub fn analyze(self, orch: &Orchestrator) -> Result<AnalysisReport, FleetError> {
        let (jobs, _) = dedup_jobs(&self.targets);
        let plans = plan_jobs(self.build, self.project, &jobs);
        if let Some(error) = plans.iter().find_map(|plan| plan.as_ref().err()) {
            return Err(error.clone());
        }
        let (graph, _) = graft_jobs(&plans, orch.store());
        Ok(orch.engine().analyze(&graph))
    }

    /// Execute the fleet on the orchestrator's engine. Outcomes are returned in
    /// request order; per-job failures (including an invalid scheduling policy,
    /// which fails every job before any action runs) are reported per outcome, so
    /// the report itself is always produced.
    ///
    /// Every job's deployment subgraph is grafted into **one** union graph and
    /// the engine is submitted to exactly once per wave. Images, per-job traces,
    /// and cache deltas are byte-identical to submitting each job on its own in
    /// job order — the union graph only changes *when* actions run (interleaved
    /// across jobs) and how often the engine is entered.
    pub fn submit(self, orch: &Orchestrator) -> FleetReport {
        let (jobs, job_of_target) = dedup_jobs(&self.targets);
        let (results, trace, ran) = match orch.checked_engine() {
            Ok(engine) => run_union_wave(self.build, self.project, &jobs, engine),
            Err(policy_error) => (
                jobs.iter()
                    .map(|job| Err(FleetError::before_run(&job.system, &policy_error)))
                    .collect(),
                ActionTrace::default(),
                false,
            ),
        };

        let outcomes = self
            .targets
            .iter()
            .zip(&job_of_target)
            .map(|(target, &(job_index, deduplicated))| FleetOutcome {
                system: target.system.name.clone(),
                label: target.selection.label(),
                simd: target.simd,
                deployment: results[job_index].clone(),
                deduplicated,
            })
            .collect();
        // Per-request counters come from *this request's own trace records*, not
        // from before/after subtraction on the shared backend: under service
        // multiplexing concurrent tenants mutate the backend counters between
        // our two reads, and their hits/misses would be attributed to us.
        let cache = CacheStats {
            entries: orch.cache_stats().entries,
            ..trace.cache_delta()
        };
        FleetReport {
            outcomes,
            jobs_executed: jobs.len(),
            jobs_deduplicated: self.targets.len() - jobs.len(),
            workers: orch.workers(),
            cache,
            submissions: usize::from(ran),
            trace,
        }
    }
}

/// Deduplicate identical targets up front: one job per distinct
/// [`FleetTarget::job_key`], in request order, and per target its job's index and
/// whether an earlier target already claimed the job.
fn dedup_jobs(targets: &[FleetTarget]) -> (Vec<&FleetTarget>, Vec<(usize, bool)>) {
    let mut job_of_target: Vec<(usize, bool)> = Vec::with_capacity(targets.len());
    let mut job_index_by_key: BTreeMap<String, usize> = BTreeMap::new();
    let mut jobs: Vec<&FleetTarget> = Vec::new();
    for target in targets {
        let fresh = jobs.len();
        let index = *job_index_by_key.entry(target.job_key()).or_insert(fresh);
        if index == fresh {
            jobs.push(target);
        }
        job_of_target.push((index, index != fresh));
    }
    (jobs, job_of_target)
}

/// Plan phase of a wave: validate every job; plan-time failures claim no graph
/// nodes.
fn plan_jobs<'a>(
    build: &'a IrContainerBuild,
    project: &'a ProjectSpec,
    jobs: &[&'a FleetTarget],
) -> Vec<Result<DeployPlan<'a>, FleetError>> {
    jobs.iter()
        .map(|job| {
            plan_ir_deploy(build, project, &job.system, &job.selection, job.simd)
                .map_err(|error| FleetError::before_run(&job.system, error))
        })
        .collect()
}

/// Graft phase of a wave: one union graph, every planned job a tagged subgraph
/// sharing keyed artifacts through the wave index. Returns the graph and each
/// grafted job's own stage depth.
fn graft_jobs<'env>(
    plans: &'env [Result<DeployPlan<'env>, FleetError>],
    store: &'env ImageStore,
) -> (ActionGraph<'env, DeployError>, Vec<Option<usize>>) {
    let mut graph: ActionGraph<'_, DeployError> = ActionGraph::new();
    let mut shared = SharedDeployArtifacts::default();
    let mut stage_depths: Vec<Option<usize>> = Vec::with_capacity(plans.len());
    for (job_index, plan) in plans.iter().enumerate() {
        stage_depths.push(plan.as_ref().ok().map(|plan| {
            graph.set_job(Some(job_index));
            graft_ir_deploy(plan, &mut graph, store, &mut shared)
        }));
    }
    graph.set_job(None);
    (graph, stage_depths)
}

/// The union-graph wave: plan every job, graft all plans into one
/// [`ActionGraph`] (keyed nodes shared across jobs appear once), submit it to the
/// engine exactly once, then split the wave trace and outcomes back into per-job
/// deployments. Returns `(per-job results, wave trace, whether the engine ran)`.
#[allow(clippy::type_complexity)]
fn run_union_wave(
    build: &IrContainerBuild,
    project: &ProjectSpec,
    jobs: &[&FleetTarget],
    engine: &Engine,
) -> (
    Vec<Result<Arc<IrDeployment>, FleetError>>,
    ActionTrace,
    bool,
) {
    let plans = plan_jobs(build, project, jobs);
    let (graph, stage_depths) = graft_jobs(&plans, engine.store());

    // Preflight phase: a deny-level analysis verdict fails every planned job
    // before any node executes (plan-time failures already claimed theirs).
    if let Err(report) = engine.preflight(&graph) {
        drop(graph); // the grafted closures borrow the plans consumed below
        let rejection = DeployError::Analysis(report);
        let results = plans
            .into_iter()
            .map(|plan| Err(FleetError::before_run(plan?.system, &rejection)))
            .collect();
        return (results, ActionTrace::default(), false);
    }

    // Run phase: exactly one engine submission for the whole wave.
    let ran = !graph.is_empty();
    let run = engine.run(graph);
    let wave_trace = run.trace.clone();
    let mut splits = run.trace.split_by_job();

    // Finish phase: attribute failures per job, finish the survivors with their
    // slice of the wave trace.
    let results = plans
        .into_iter()
        .enumerate()
        .map(|(job_index, plan)| {
            let plan = plan?;
            if let Some(failure) = run.job_failure(job_index) {
                return Err(FleetError {
                    system: plan.system.name.clone(),
                    message: match failure.error {
                        Some(error) => error.to_string(),
                        None => format!("action `{}` did not complete", failure.info.label),
                    },
                    action: Some(failure.info.label.clone()),
                });
            }
            let mut job_trace = splits.remove(&job_index).unwrap_or_default();
            job_trace.policy = wave_trace.policy.clone();
            job_trace.stage_depth = stage_depths[job_index].unwrap_or_default();
            Ok(Arc::new(finish_ir_deploy(plan, job_trace)))
        })
        .collect();
    (results, wave_trace, ran)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ActionKind, PolicyError, WeightedFair};
    use xaas_apps::lulesh;

    fn lulesh_sweep() -> (ProjectSpec, IrPipelineConfig) {
        let project = lulesh::project();
        let config = IrPipelineConfig::sweep_options(&project, &["WITH_MPI", "WITH_OPENMP"]);
        (project, config)
    }

    #[test]
    fn default_orchestrator_caches_and_warm_resubmits_run_nothing() {
        let (project, config) = lulesh_sweep();
        let orch = Orchestrator::new();
        let cold = IrBuildRequest::new(&project, &config)
            .reference("orch:ir")
            .submit(&orch)
            .unwrap();
        assert_eq!(cold.actions.cached, 0);
        assert!(cold.actions.executed > 0);
        let warm = IrBuildRequest::new(&project, &config)
            .reference("orch:ir-warm")
            .submit(&orch)
            .unwrap();
        assert_eq!(warm.actions.executed, 0, "default session memoizes");
        assert_eq!(warm.image.layers, cold.image.layers);
        assert!(orch.cache_stats().hits > 0);
    }

    #[test]
    fn default_reference_derives_from_the_project_name() {
        let (project, config) = lulesh_sweep();
        let orch = Orchestrator::new();
        let build = IrBuildRequest::new(&project, &config)
            .submit(&orch)
            .unwrap();
        assert_eq!(build.reference, format!("{}:ir", project.name));
        assert!(orch.store().load(&build.reference).is_ok());
    }

    #[test]
    fn deploy_request_defaults_to_the_best_supported_simd_level() {
        let (project, config) = lulesh_sweep();
        let orch = Orchestrator::new();
        let build = IrBuildRequest::new(&project, &config)
            .submit(&orch)
            .unwrap();
        let system = SystemModel::ault23();
        let deployment = IrDeployRequest::new(&build, &project, &system)
            .select("WITH_MPI", "OFF")
            .select("WITH_OPENMP", "ON")
            .submit(&orch)
            .unwrap();
        assert_eq!(deployment.simd, system.cpu.best_simd());
        assert!(deployment.trace.by_kind()[&ActionKind::MachineLower] > 0);
    }

    #[test]
    fn zero_cap_policy_is_a_typed_error_on_every_request_type() {
        let (project, config) = lulesh_sweep();
        let valid = Orchestrator::new();
        let build = IrBuildRequest::new(&project, &config)
            .submit(&valid)
            .unwrap();

        let broken = Orchestrator::builder()
            .policy(WeightedFair::new().with_weight("t", 0))
            .build();
        let zero_weight = |error: &PolicyError| matches!(error, PolicyError::ZeroWeight { tenant } if tenant == "t");
        let build_error = IrBuildRequest::new(&project, &config)
            .submit(&broken)
            .unwrap_err();
        assert!(matches!(&build_error, IrPipelineError::Policy(e) if zero_weight(e)));

        let system = SystemModel::ault23();
        let deploy_error = IrDeployRequest::new(&build, &project, &system)
            .select("WITH_MPI", "OFF")
            .select("WITH_OPENMP", "OFF")
            .submit(&broken)
            .unwrap_err();
        assert!(matches!(&deploy_error, DeployError::Policy(e) if zero_weight(e)));

        let source_image = crate::source_container::build_source_container(
            &project,
            xaas_container::Architecture::Amd64,
            valid.store(),
            "orch:src",
        );
        let source_error = SourceDeployRequest::new(&project, &source_image, &system)
            .submit(&broken)
            .unwrap_err();
        assert!(matches!(&source_error, SourceContainerError::Policy(e) if zero_weight(e)));

        let report = FleetRequest::new(&build, &project)
            .target(FleetTarget::best_for(
                system.clone(),
                OptionAssignment::new()
                    .with("WITH_MPI", "OFF")
                    .with("WITH_OPENMP", "OFF"),
            ))
            .submit(&broken);
        assert!(!report.all_succeeded());
        let error = report.outcomes[0].deployment.as_ref().unwrap_err();
        assert!(error.message.contains("zero"), "{error}");
    }

    #[test]
    fn fleet_request_carries_a_merged_trace_in_job_order() {
        let (project, config) = lulesh_sweep();
        let orch = Orchestrator::builder().workers(2).build();
        let build = IrBuildRequest::new(&project, &config)
            .submit(&orch)
            .unwrap();
        let selection = OptionAssignment::new()
            .with("WITH_MPI", "ON")
            .with("WITH_OPENMP", "ON");
        let report = FleetRequest::new(&build, &project)
            .target(FleetTarget::best_for(
                SystemModel::ault23(),
                selection.clone(),
            ))
            .target(FleetTarget::best_for(SystemModel::ault23(), selection)) // duplicate
            .submit(&orch);
        assert!(report.all_succeeded());
        assert_eq!(report.jobs_executed, 1);
        assert_eq!(report.jobs_deduplicated, 1);
        let job_trace = &report.outcomes[0].deployment.as_ref().unwrap().trace;
        assert_eq!(report.trace.len(), job_trace.len());
        assert_eq!(report.trace.action_set(), job_trace.action_set());
    }

    /// The GROMACS IR container (SSE4.1 + AVX-512 sweep) the fleet tests deploy.
    fn gromacs_fleet_build(orch: &Orchestrator) -> (ProjectSpec, IrContainerBuild) {
        let project = xaas_apps::gromacs::project();
        let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"])
            .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"]);
        let build = IrBuildRequest::new(&project, &config)
            .reference("fleet:ir")
            .submit(orch)
            .unwrap();
        (project, build)
    }

    fn gmx_simd(simd: &str) -> OptionAssignment {
        OptionAssignment::new().with("GMX_SIMD", simd)
    }

    #[test]
    fn fleet_outcomes_keep_request_order_and_dedup_duplicates() {
        let orch = Orchestrator::builder().workers(3).build();
        let (project, build) = gromacs_fleet_build(&orch);
        let targets = vec![
            FleetTarget::new(
                SystemModel::ault23(),
                gmx_simd("AVX_512"),
                SimdLevel::Avx512,
            ),
            // Exact duplicate of the first target: must not become a second job.
            FleetTarget::new(
                SystemModel::ault23(),
                gmx_simd("AVX_512"),
                SimdLevel::Avx512,
            ),
            FleetTarget::new(
                SystemModel::ault01_04(),
                gmx_simd("SSE4.1"),
                SimdLevel::Sse41,
            ),
        ];
        let report = FleetRequest::new(&build, &project)
            .targets(targets)
            .submit(&orch);
        assert!(report.all_succeeded());
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.jobs_executed, 2);
        assert_eq!(report.jobs_deduplicated, 1);
        assert!(report.outcomes[1].deduplicated);
        assert!(!report.outcomes[0].deduplicated);
        // Deduplicated targets share the very same deployment.
        let first = report.outcomes[0].deployment.as_ref().unwrap();
        let second = report.outcomes[1].deployment.as_ref().unwrap();
        assert!(Arc::ptr_eq(first, second));
        assert_eq!(report.outcomes[0].system, "Ault23");
        assert_eq!(report.outcomes[2].system, "Ault01-04");
    }

    #[test]
    fn fleet_failures_are_isolated_per_job() {
        let orch = Orchestrator::new();
        let (project, build) = gromacs_fleet_build(&orch);
        let targets = vec![
            FleetTarget::new(
                SystemModel::ault23(),
                gmx_simd("AVX_512"),
                SimdLevel::Avx512,
            ),
            // Ault25 (EPYC 7742) has no AVX-512: this job must fail without
            // affecting the first one.
            FleetTarget::new(
                SystemModel::ault25(),
                gmx_simd("AVX_512"),
                SimdLevel::Avx512,
            ),
        ];
        let report = FleetRequest::new(&build, &project)
            .targets(targets)
            .submit(&orch);
        assert!(!report.all_succeeded());
        assert!(report.outcomes[0].deployment.is_ok());
        let error = report.outcomes[1].deployment.as_ref().unwrap_err();
        assert_eq!(error.system, "Ault25");
        assert!(error.message.contains("not supported"), "{error}");
        assert_eq!(report.deployments().count(), 1);
    }

    #[test]
    fn shared_isa_systems_share_every_lower_action() {
        let orch = Orchestrator::builder().workers(2).build();
        let (project, build) = gromacs_fleet_build(&orch);
        // Two different systems, same ISA: the second system's lowering is all hits.
        let targets = vec![
            FleetTarget::new(
                SystemModel::ault23(),
                gmx_simd("AVX_512"),
                SimdLevel::Avx512,
            ),
            FleetTarget::new(
                SystemModel::ault01_04(),
                gmx_simd("AVX_512"),
                SimdLevel::Avx512,
            ),
        ];
        let report = FleetRequest::new(&build, &project)
            .targets(targets)
            .submit(&orch);
        assert!(report.all_succeeded());
        let per_system: u64 = report.outcomes[0]
            .deployment
            .as_ref()
            .unwrap()
            .actions
            .total() as u64;
        assert_eq!(
            report.cache.misses, per_system,
            "every action of the second system is served from the cache"
        );
        assert_eq!(report.cache.hits, per_system);
    }
}
