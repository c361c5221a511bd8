//! One front door: the [`Orchestrator`] session API.
//!
//! The paper's premise is that *one* container representation serves many
//! deployment decisions made late; this module is the API shape of that premise.
//! Instead of entry points that each re-wire store + cache + engine by hand,
//! an `Orchestrator` **owns** the execution stack — the [`Engine`], its
//! [`ActionCache`], the backing [`ImageStore`], and a [`SchedulingPolicy`] — and
//! every pipeline is a typed request submitted to it:
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
//! [`ActionTrace`]. The scheduling policy is a plain [`SchedulingPolicy`]
//! value with no invalid setting, so no request checks it.

// A `FleetError` holds its job's `PipelineError` inline (136 bytes). It is built
// once per failed job, off the request's hot path, so it is not boxed.
#![allow(clippy::result_large_err)]

use crate::deploy::{
    finish_ir_deploy, graft_ir_deploy, plan_ir_deploy, DeployPlan, GraftedDeploy, IrDeployment,
};
use crate::engine::plan::SharedDeployArtifacts;
use crate::engine::{ActionGraph, ActionTrace, AnalysisReport, Engine, SchedulingPolicy};
use crate::error::PipelineError;
use crate::ir_container::{IrContainerBuild, IrPipelineConfig};
use crate::resolve::{resolve, Policy, Resolved};
use crate::source_container::{
    finish_source_deploy, graft_source_deploy, plan_source_deploy, SourceDeployPlan,
    SourceDeployment,
};
use std::fmt;
use std::sync::Arc;
use xaas_buildsys::{OptionAssignment, ProjectSpec};
use xaas_container::{ActionCache, CacheStats, Image, ImageStore, TierConfig, TierError};
use xaas_hpcsim::{SimdLevel, SystemModel};

/// The session object every pipeline goes through: one engine, one cache, one
/// store, one scheduling policy.
///
/// Construct the common shapes directly ([`Orchestrator::new`],
/// [`Orchestrator::uncached`], [`Orchestrator::with_cache`]) or configure all the
/// knobs through [`Orchestrator::builder`]. Cloning is cheap and shares the whole
/// stack (cache, store, policy, dispatch counter).
#[derive(Debug, Clone)]
pub struct Orchestrator {
    engine: Engine,
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

    /// An orchestrator that never caches: its engine runs on an
    /// [`ActionCache::bypass`] over `store`, so every action executes and
    /// artifacts and images land in `store`.
    pub fn uncached(store: &ImageStore) -> Self {
        Self {
            engine: Engine::uncached(store),
        }
    }

    /// An orchestrator memoizing every keyed action in `cache` (shared with any
    /// other orchestrator or engine over the same cache).
    pub fn with_cache(cache: &ActionCache) -> Self {
        Self {
            engine: Engine::cached(cache),
        }
    }

    /// A tenant-tagged view of this orchestrator: the clone shares the whole
    /// stack (engine pool, cache, store, policy, dispatch counter), but every
    /// request it runs is submitted as `tenant` — laned by fair-queuing
    /// policies and recorded in traces. This is how the
    /// [`service layer`](crate::service) multiplexes sessions.
    pub fn for_tenant(&self, tenant: impl Into<String>) -> Orchestrator {
        Orchestrator {
            engine: self.engine.clone().with_tenant(tenant),
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

    /// The cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// The cache stack this orchestrator was built over — exposes the disk
    /// tier's counters ([`ActionCache::disk_stats`], `None` without
    /// [`OrchestratorBuilder::cache_tiers`]) and store-level GC
    /// ([`ActionCache::collect_garbage`]). Always `Some`: an uncached
    /// orchestrator answers its [bypass](ActionCache::bypass) cache, which holds
    /// no entries.
    pub fn tiered_cache(&self) -> Option<&ActionCache> {
        Some(self.engine.cache())
    }

    /// The scheduling policy requests run under.
    pub fn policy(&self) -> SchedulingPolicy {
        self.engine.policy()
    }

    /// The engine's worker count.
    pub fn workers(&self) -> usize {
        self.engine.workers()
    }
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
///     .policy(WeightedFair::new())
///     .build();
/// assert_eq!(orch.workers(), 4);
/// assert_eq!(orch.policy().name(), "weighted-fair");
/// ```
#[derive(Default)]
pub struct OrchestratorBuilder {
    workers: Option<usize>,
    policy: SchedulingPolicy,
    /// Unset means a fresh [`ActionCache`] over a fresh store.
    cache: Option<ActionCache>,
}

impl OrchestratorBuilder {
    /// Fix the engine worker count (default: host parallelism clamped to `[2, 8]`).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Route every keyed action through an existing shared [`ActionCache`].
    pub fn action_cache(mut self, cache: ActionCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Never cache: route keyed actions through an [`ActionCache::bypass`] over
    /// `store`, so every action executes and artifacts and images land in `store`.
    pub fn uncached(self, store: ImageStore) -> Self {
        self.action_cache(ActionCache::bypass(store))
    }

    /// Route every keyed action through an [`ActionCache::with_tiers`] stack
    /// built over a fresh store from `config`: the memory index and an optional
    /// on-disk CAS tier that survives restarts (set [`TierConfig::disk_root`]).
    /// Tier construction is fallible — an
    /// unwritable disk root or a zero L1 capacity is rejected here, not
    /// deferred to [`build`](Self::build).
    pub fn cache_tiers(self, config: TierConfig) -> Result<Self, TierError> {
        Ok(self.action_cache(ActionCache::with_tiers(ImageStore::new(), config)?))
    }

    /// Set the scheduling policy (default: [`Fifo`](crate::engine::Fifo)).
    pub fn policy(mut self, policy: impl Into<SchedulingPolicy>) -> Self {
        self.policy = policy.into();
        self
    }

    /// Build the orchestrator.
    pub fn build(self) -> Orchestrator {
        let cache = self
            .cache
            .unwrap_or_else(|| ActionCache::new(ImageStore::new()));
        Orchestrator {
            engine: Engine::configured(cache, self.policy, self.workers),
        }
    }
}

impl fmt::Debug for OrchestratorBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrchestratorBuilder")
            .field("workers", &self.workers)
            .field("policy", &self.policy)
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
    pub fn submit(self, orch: &Orchestrator) -> Result<IrContainerBuild, PipelineError> {
        crate::ir_container::run_ir_build(self.project, self.config, orch.engine(), &self.reference)
    }

    /// Report on the build's stage-A action graph (preprocess, then OpenMP
    /// detection) under the orchestrator's scheduling policy without executing
    /// anything. The build's stage-B graph is derived from stage-A outputs, so
    /// it cannot be planned ahead of time.
    pub fn analyze(self, orch: &Orchestrator) -> Result<AnalysisReport, PipelineError> {
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
    /// project's default configuration is selected and the IR is lowered for the
    /// best SIMD level the system supports.
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

    /// Select `option = value` (repeatable; unselected options take the project's
    /// default, a value the option refuses is `UnsupportedPreference`).
    pub fn select(mut self, option: impl Into<String>, value: impl Into<String>) -> Self {
        self.selection.set(option.into(), value.into());
        self
    }

    /// Replace the whole configuration selection.
    pub fn selection(mut self, selection: OptionAssignment) -> Self {
        self.selection = selection;
        self
    }

    /// Pin the SIMD level the IR is lowered for, which the system must support
    /// (`UnsupportedSimd`); unpinned, it is the system's best. A configuration
    /// built for one level may be lowered for another.
    pub fn simd(mut self, simd: SimdLevel) -> Self {
        self.simd = Some(simd);
        self
    }

    /// The plan phase: resolve under the project defaults, then plan.
    fn plan(&self) -> Result<DeployPlan<'a>, PipelineError> {
        let resolved = resolve(
            self.project,
            self.system,
            &self.selection,
            self.simd,
            Policy::ProjectDefault,
        )?;
        plan_ir_deploy(self.build, self.project, self.system, &resolved)
    }

    /// Execute the deployment on the orchestrator's engine in **one** graph
    /// submission: plan, graft the subgraph onto a private graph, run it, finish.
    pub fn submit(self, orch: &Orchestrator) -> Result<IrDeployment, PipelineError> {
        let engine = orch.engine();
        let plan = self.plan()?;
        let mut graph = ActionGraph::new();
        let standalone = &mut SharedDeployArtifacts::default();
        let grafted = graft_ir_deploy(&plan, &mut graph, engine.store(), standalone);
        let (outputs, trace) = engine.run(graph)?.into_outputs()?;
        Ok(finish_ir_deploy(
            plan,
            &grafted,
            |node| &outputs[node],
            trace,
        ))
    }

    /// Report on the exact action graph this deployment would submit — planned
    /// and grafted, not run.
    pub fn analyze(self, orch: &Orchestrator) -> Result<AnalysisReport, PipelineError> {
        let engine = orch.engine();
        let plan = self.plan()?;
        let mut graph = ActionGraph::new();
        let standalone = &mut SharedDeployArtifacts::default();
        graft_ir_deploy(&plan, &mut graph, engine.store(), standalone);
        Ok(engine.analyze(&graph))
    }
}

/// Typed request: deploy (specialize) a source container onto one system
/// (Figure 6): discovery → intersection → selection → full on-target build.
///
/// An option no preference pins takes the best value the system offers; the
/// build targets the SIMD level the selection names (the system's best, with a
/// note, if it lacks that level) and commits as `{project}:{system}-{label}-{simd}`.
///
/// Returns [`SourceDeployment`] with the [`ActionTrace`].
#[derive(Debug, Clone)]
pub struct SourceDeployRequest<'a> {
    project: &'a ProjectSpec,
    source_image: &'a Image,
    system: &'a SystemModel,
    preferences: OptionAssignment,
}

impl<'a> SourceDeployRequest<'a> {
    /// A request to specialize `source_image` for `system` with no user
    /// preferences.
    pub fn new(project: &'a ProjectSpec, source_image: &'a Image, system: &'a SystemModel) -> Self {
        Self {
            project,
            source_image,
            system,
            preferences: OptionAssignment::new(),
        }
    }

    /// Pin `option = value` regardless of what the system offers (repeatable; a
    /// value the option refuses is `UnsupportedPreference`).
    pub fn prefer(mut self, option: impl Into<String>, value: impl Into<String>) -> Self {
        self.preferences.set(option.into(), value.into());
        self
    }

    fn plan(&self) -> Result<SourceDeployPlan<'a>, PipelineError> {
        plan_source_deploy(
            self.project,
            self.source_image,
            self.system,
            &self.preferences,
        )
    }

    /// Execute the deployment on the orchestrator's engine in **one** graph
    /// submission, like an IR deployment: plan, graft, run, finish.
    pub fn submit(self, orch: &Orchestrator) -> Result<SourceDeployment, PipelineError> {
        let engine = orch.engine();
        let plan = self.plan()?;
        let mut graph = ActionGraph::new();
        graft_source_deploy(&plan, &mut graph, engine.store());
        let (_, trace) = engine.run(graph)?.into_outputs()?;
        Ok(finish_source_deploy(plan, trace))
    }

    /// Report on the exact action graph this deployment would submit, as
    /// [`IrDeployRequest::analyze`] does.
    pub fn analyze(self, orch: &Orchestrator) -> Result<AnalysisReport, PipelineError> {
        let engine = orch.engine();
        let plan = self.plan()?;
        let mut graph = ActionGraph::new();
        graft_source_deploy(&plan, &mut graph, engine.store());
        Ok(engine.analyze(&graph))
    }
}

/// One fleet member: deploy the IR container's `selection` configuration onto
/// `system`, resolved as an [`IrDeployRequest`] is (`simd` is its pin).
#[derive(Debug, Clone)]
pub struct FleetTarget {
    /// The target system.
    pub system: SystemModel,
    /// The configuration to select from the IR container.
    pub selection: OptionAssignment,
    /// The SIMD level pinned for lowering; `None` lowers for the system's best.
    pub simd: Option<SimdLevel>,
}

impl FleetTarget {
    /// A target pinned to an explicit SIMD level.
    pub fn new(system: SystemModel, selection: OptionAssignment, simd: SimdLevel) -> Self {
        Self {
            system,
            selection,
            simd: Some(simd),
        }
    }

    /// A target lowered for the best SIMD level the system supports.
    pub fn best_for(system: SystemModel, selection: OptionAssignment) -> Self {
        Self {
            system,
            selection,
            simd: None,
        }
    }
}

/// A failed fleet job (cloneable so deduplicated targets can share it).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetError {
    /// The system the job targeted.
    pub system: String,
    /// Why the job failed.
    pub error: PipelineError,
    /// Label of the failing action, when the failure happened inside the engine
    /// (a union-graph wave attributes the poisoning node — possibly a shared
    /// artifact another job planned). `None` for plan-time failures (unknown
    /// configuration, unsupported SIMD, missing unit) and refused graphs.
    pub action: Option<String>,
}

impl FleetError {
    /// The job for `system` failed with `error` before any of its actions ran.
    fn before_run(system: &SystemModel, error: PipelineError) -> Self {
        Self {
            system: system.name.clone(),
            error,
            action: None,
        }
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "specializing for {}: {}", self.system, self.error)?;
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
    /// Configuration label of the target, as requested.
    pub label: String,
    /// The SIMD level the target was lowered for (`None` when its job failed).
    pub simd: Option<SimdLevel>,
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
    /// executed; `evictions` is a cache-global quantity with no per-request
    /// meaning and stays zero — read
    /// [`Orchestrator::cache_stats`] for the cache-wide view.
    pub cache: CacheStats,
    /// Engine submissions the wave needed: one, or zero when no job reached
    /// the engine (every job failing at plan time, or a refused graph).
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

    /// Report on the union graph one wave of this fleet would submit — every
    /// deduplicated job grafted as a tagged subgraph sharing keyed artifacts —
    /// without executing anything. The first plan-time failure is returned as
    /// a [`FleetError`].
    pub fn analyze(self, orch: &Orchestrator) -> Result<AnalysisReport, FleetError> {
        let (plans, _) = plan_jobs(self.build, self.project, &self.targets);
        if let Some(error) = plans.iter().find_map(|plan| plan.as_ref().err()) {
            return Err(error.clone());
        }
        let (graph, _) = graft_jobs(&plans, orch.store());
        Ok(orch.engine().analyze(&graph))
    }

    /// Execute the fleet on the orchestrator's engine. Outcomes are returned in
    /// request order; per-job failures are reported per outcome, so the report
    /// itself is always produced.
    ///
    /// Every job's deployment subgraph is grafted into **one** union graph and
    /// the engine is submitted to exactly once per wave. Images, per-job traces,
    /// and cache deltas are byte-identical to submitting each job on its own in
    /// job order — the union graph only changes *when* actions run (interleaved
    /// across jobs) and how often the engine is entered.
    pub fn submit(self, orch: &Orchestrator) -> FleetReport {
        let (plans, job_of_target) = plan_jobs(self.build, self.project, &self.targets);
        let jobs = plans.len();
        let (results, trace, ran) = run_union_wave(plans, orch.engine());

        let outcomes = self
            .targets
            .iter()
            .zip(&job_of_target)
            .map(|(target, &(job_index, deduplicated))| FleetOutcome {
                system: target.system.name.clone(),
                label: target.selection.label(),
                simd: results[job_index].as_ref().ok().map(|d| d.simd),
                deployment: results[job_index].clone(),
                deduplicated,
            })
            .collect();
        // Per-request counters come from *this request's own trace records*, not
        // from before/after subtraction on the shared cache: under service
        // multiplexing concurrent tenants mutate the cache counters between
        // our two reads, and their hits/misses would be attributed to us.
        let cache = CacheStats {
            entries: orch.cache_stats().entries,
            ..trace.cache_delta()
        };
        FleetReport {
            outcomes,
            jobs_executed: jobs,
            jobs_deduplicated: self.targets.len() - jobs,
            workers: orch.workers(),
            cache,
            submissions: usize::from(ran),
            trace,
        }
    }
}

/// Plan phase of a wave: resolve each target once, keep one job per distinct
/// system and resolution in request order, and plan it (failures claim no
/// graph nodes); per target, its job's index and whether it was deduplicated.
/// A system is compared by value, so differently-configured systems sharing a
/// name never share a job. A fleet resolves under the project's defaults,
/// which note nothing, so equal resolutions are an equal completed selection
/// and target, or an equal error.
#[allow(clippy::type_complexity)]
fn plan_jobs<'a>(
    build: &'a IrContainerBuild,
    project: &'a ProjectSpec,
    targets: &'a [FleetTarget],
) -> (Vec<Result<DeployPlan<'a>, FleetError>>, Vec<(usize, bool)>) {
    let mut job_of_target: Vec<(usize, bool)> = Vec::with_capacity(targets.len());
    let mut jobs: Vec<(&SystemModel, Result<Resolved, PipelineError>)> = Vec::new();
    let mut plans = Vec::new();
    for target in targets {
        let FleetTarget {
            system,
            selection,
            simd,
        } = target;
        let resolved = resolve(project, system, selection, *simd, Policy::ProjectDefault);
        let job = jobs
            .iter()
            .position(|job| job.1 == resolved && job.0 == system);
        if let Some(index) = job {
            job_of_target.push((index, true));
            continue;
        }
        let plan = resolved
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|r| plan_ir_deploy(build, project, system, r));
        plans.push(plan.map_err(|error| FleetError::before_run(system, error)));
        job_of_target.push((jobs.len(), false));
        jobs.push((system, resolved));
    }
    (plans, job_of_target)
}

/// Graft phase of a wave: one union graph, every planned job a tagged subgraph
/// sharing keyed artifacts through the wave index. Returns the graph and what
/// each planned job grafted (its own stage depth among it).
fn graft_jobs<'env>(
    plans: &'env [Result<DeployPlan<'env>, FleetError>],
    store: &'env ImageStore,
) -> (ActionGraph<'env, PipelineError>, Vec<Option<GraftedDeploy>>) {
    let mut graph: ActionGraph<'_, PipelineError> = ActionGraph::new();
    let mut shared = SharedDeployArtifacts::default();
    let mut grafted: Vec<Option<GraftedDeploy>> = Vec::with_capacity(plans.len());
    for (job_index, plan) in plans.iter().enumerate() {
        grafted.push(plan.as_ref().ok().map(|plan| {
            graph.set_job(Some(job_index));
            graft_ir_deploy(plan, &mut graph, store, &mut shared)
        }));
    }
    graph.set_job(None);
    (graph, grafted)
}

/// The union-graph wave: graft every job's plan into one
/// [`ActionGraph`] (keyed nodes shared across jobs appear once), submit it to the
/// engine exactly once, then split the wave trace and outcomes back into per-job
/// deployments. Returns `(per-job results, wave trace, whether the engine ran)`.
#[allow(clippy::type_complexity)]
fn run_union_wave(
    plans: Vec<Result<DeployPlan<'_>, FleetError>>,
    engine: &Engine,
) -> (
    Vec<Result<Arc<IrDeployment>, FleetError>>,
    ActionTrace,
    bool,
) {
    let (graph, grafted) = graft_jobs(&plans, engine.store());

    // Run phase: exactly one engine submission for the whole wave. A graph
    // the engine refuses fails every planned job before any node executes
    // (plan-time failures already claimed theirs).
    let ran = !graph.is_empty();
    let mut run = match engine.run(graph) {
        Ok(run) => run,
        Err(error) => {
            let results = plans
                .into_iter()
                .map(|plan| Err(FleetError::before_run(plan?.system, error.into())))
                .collect();
            return (results, ActionTrace::default(), false);
        }
    };
    // The run's trace is the wave's; each job's is split from it, once.
    let wave_trace = std::mem::take(&mut run.trace);
    let mut splits = wave_trace.split_by_job();

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
                    error: failure.error.clone(),
                    action: Some(failure.info.label.clone()),
                });
            }
            let grafted = grafted[job_index].as_ref().expect("a planned job grafted");
            // A split carries the wave's policy already.
            let mut job_trace = splits.remove(&job_index).unwrap_or_else(|| ActionTrace {
                policy: wave_trace.policy.clone(),
                ..ActionTrace::default()
            });
            job_trace.stage_depth = grafted.depth;
            let output = |node| run.blob(node).expect("a job that did not fail completed");
            Ok(Arc::new(finish_ir_deploy(plan, grafted, output, job_trace)))
        })
        .collect();
    (results, wave_trace, ran)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ActionKind;
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
        // The 8 ir-lower nodes are the keyed ones, one per key: a cold build hits nothing.
        assert_eq!(
            (cold.trace.summary().executed, cold.trace.summary().cached),
            (8, 0)
        );
        let warm = IrBuildRequest::new(&project, &config)
            .reference("orch:ir-warm")
            .submit(&orch)
            .unwrap();
        assert_eq!(warm.trace.summary().executed, 0, "default session memoizes");
        assert_eq!(warm.trace.summary().cached, cold.trace.summary().total());
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
        assert_eq!(deployment.simd, SimdLevel::Avx512, "Ault23's best level");
        assert!(deployment.trace.by_kind()[&ActionKind::MachineLower] > 0);
    }

    /// Build the LULESH `WITH_MPI` × `WITH_OPENMP` container and deploy it on
    /// Ault23 with `select` applied; returns the deployed assignment. The
    /// project defaults are `WITH_MPI=OFF`, `WITH_OPENMP=ON`.
    fn lulesh_deployed(
        select: impl FnOnce(IrDeployRequest<'_>) -> IrDeployRequest<'_>,
    ) -> Result<OptionAssignment, PipelineError> {
        let (project, config) = lulesh_sweep();
        let orch = Orchestrator::new();
        let build = IrBuildRequest::new(&project, &config)
            .submit(&orch)
            .unwrap();
        let system = SystemModel::ault23();
        let request = select(IrDeployRequest::new(&build, &project, &system));
        Ok(request.submit(&orch)?.assignment)
    }

    fn lulesh_assignment(mpi: &str, openmp: &str) -> OptionAssignment {
        OptionAssignment::new()
            .with("WITH_MPI", mpi)
            .with("WITH_OPENMP", openmp)
    }

    #[test]
    fn an_empty_selection_deploys_the_project_defaults() {
        let deployed = lulesh_deployed(|request| request);
        assert_eq!(deployed.unwrap(), lulesh_assignment("OFF", "ON"));
    }

    /// A swept option the selection leaves out takes the project's default, not
    /// the sweep's first value.
    #[test]
    fn a_partial_selection_takes_the_project_default_for_the_rest() {
        let deployed = lulesh_deployed(|request| request.select("WITH_OPENMP", "OFF"));
        assert_eq!(deployed.unwrap(), lulesh_assignment("OFF", "OFF"));
        // A value the option does not accept is refused before any manifest
        // is looked up, as a source deployment refuses it.
        let refused = lulesh_deployed(|request| request.select("WITH_OPENMP", "MAYBE"));
        assert_eq!(
            refused.unwrap_err(),
            PipelineError::UnsupportedPreference {
                option: "WITH_OPENMP".into(),
                value: "MAYBE".into(),
                reason: "value is not offered by the build system".into(),
            }
        );
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

    /// A target that spells out a project default is the same job as one that
    /// leaves it out: dedup keys on the completed selection, as planning does.
    #[test]
    fn fleet_dedup_keys_on_the_selection_completed_with_defaults() {
        let orch = Orchestrator::new();
        let (project, build) = gromacs_fleet_build(&orch);
        let spelled_out = gmx_simd("AVX_512").with("GMX_MPI", "OFF");
        let report = FleetRequest::new(&build, &project)
            .target(FleetTarget::new(
                SystemModel::ault23(),
                gmx_simd("AVX_512"),
                SimdLevel::Avx512,
            ))
            .target(FleetTarget::new(
                SystemModel::ault23(),
                spelled_out,
                SimdLevel::Avx512,
            ))
            .submit(&orch);
        assert!(report.all_succeeded());
        assert_eq!(report.jobs_executed, 1);
        assert_eq!(report.jobs_deduplicated, 1);
        assert!(report.outcomes[1].deduplicated);
    }

    /// Two systems that share a name and resolve alike but differ in one module
    /// version are two jobs: a system is compared by value, not by name.
    #[test]
    fn fleet_systems_sharing_a_name_differ_by_value() {
        let orch = Orchestrator::new();
        let (project, build) = gromacs_fleet_build(&orch);
        let system = SystemModel::ault23();
        let mut upgraded = system.clone();
        upgraded.modules[0].version.push_str(".1");
        assert_eq!(upgraded.name, system.name);
        let report = FleetRequest::new(&build, &project)
            .targets(
                [system, upgraded]
                    .map(|system| FleetTarget::new(system, gmx_simd("AVX_512"), SimdLevel::Avx512)),
            )
            .submit(&orch);
        assert!(report.all_succeeded());
        assert_eq!(report.jobs_executed, 2);
        assert_eq!(report.jobs_deduplicated, 0);
        assert!(!report.outcomes[1].deduplicated);
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
        assert!(
            matches!(&error.error, PipelineError::UnsupportedSimd { level: SimdLevel::Avx512, system } if system == "Ault25"),
            "{error:?}"
        );
        assert!(error.to_string().contains("not supported"), "{error}");
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
            .trace
            .summary()
            .total() as u64;
        // Each system's keyed Link misses on its own: the system name is in
        // the layer.
        assert_eq!(
            report.cache.misses,
            per_system + 2,
            "every action of the second system is served from the cache"
        );
        assert_eq!(report.cache.hits, per_system);
    }
}
