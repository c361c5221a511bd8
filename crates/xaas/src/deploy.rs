//! Deployment of IR containers (Section 4.3.1 and Figure 8).
//!
//! The user selects one configuration and the target ISA; XaaS then lowers the selected
//! subset of IR files (applying vectorisation now that the ISA is known), compiles the
//! system-dependent source files against the system's MPI, lets the build system finish
//! linking and installation, and commits a new, system-specialized image whose tag
//! encodes the specialization points.

use crate::engine::plan::{SdCompilePlanner, SharedDeployArtifacts};
use crate::engine::{add_commit_action, ActionGraph, ActionId, ActionKind, ActionTrace, LinkSlot};
use crate::ir_container::{
    paths as ir_paths, project_compiler, ActionSummary, ConfigurationManifest, IrContainerBuild,
    UnitAssignment, TOOLCHAIN_ID,
};
use crate::targets::{derive_build_profile, target_isa_for};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use xaas_buildsys::{OptionAssignment, ProjectSpec, SourceSpec};
use xaas_container::{
    annotation_keys, Blob, BuildKey, DeploymentFormat, Image, ImageStore, Layer, Platform,
};
use xaas_hpcsim::{BuildProfile, SimdLevel, SystemModel};
use xaas_xir::{
    lower_to_machine, CompileFlags, Compiler, MachineModule, TargetIsa, VectorizationReport,
};

/// Errors during IR-container deployment.
#[derive(Debug)]
#[allow(missing_docs)] // variant payload fields are documented by the Display impl
pub enum DeployError {
    /// No manifest matches the requested configuration.
    UnknownConfiguration(String),
    /// The requested SIMD level cannot execute on the target system.
    UnsupportedSimd { level: SimdLevel, system: String },
    /// A referenced IR unit is missing from the container.
    MissingUnit(String),
    /// A system-dependent source failed to compile at deployment.
    Compile {
        file: String,
        error: xaas_xir::CompileError,
    },
    /// A cached artifact failed to decode (action-cache corruption).
    Cache(String),
    /// The orchestrator's scheduling policy is invalid (e.g. a zero tenant weight).
    Policy(crate::engine::PolicyError),
    /// The pre-submission static analyzer rejected the deployment graph
    /// (deny-level diagnostics); nothing executed.
    Analysis(Box<crate::engine::AnalysisReport>),
    /// The executor broke its scheduling contract (a node skipped without a
    /// failure, or cancelled mid-run) — not a deployment error.
    Engine(crate::engine::GraphFault),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::UnknownConfiguration(label) => {
                write!(f, "no configuration matches `{label}`")
            }
            DeployError::UnsupportedSimd { level, system } => {
                write!(f, "SIMD level {level} is not supported on {system}")
            }
            DeployError::MissingUnit(id) => write!(f, "IR unit {id} missing from the container"),
            DeployError::Compile { file, error } => write!(f, "compiling {file}: {error}"),
            DeployError::Cache(detail) => write!(f, "action cache: {detail}"),
            DeployError::Policy(error) => write!(f, "{error}"),
            DeployError::Analysis(report) => write!(f, "graph rejected by analysis: {report}"),
            DeployError::Engine(fault) => write!(f, "executor fault: {fault}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<crate::engine::GraphRunError<DeployError>> for DeployError {
    fn from(value: crate::engine::GraphRunError<DeployError>) -> Self {
        match value.into_action() {
            Ok(error) => error,
            Err(fault) => DeployError::Engine(fault),
        }
    }
}

impl From<Box<crate::engine::AnalysisReport>> for DeployError {
    fn from(value: Box<crate::engine::AnalysisReport>) -> Self {
        DeployError::Analysis(value)
    }
}

/// Statistics of one deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeploymentStats {
    /// IR units lowered to machine code.
    pub lowered_units: usize,
    /// System-dependent sources compiled from scratch.
    pub compiled_source_units: usize,
    /// Loops vectorised at the selected width.
    pub vectorized_loops: usize,
    /// Loops left scalar (blocked or scalar target).
    pub scalar_loops: usize,
}

/// The result of deploying an IR container.
///
/// The deployment path ships artifact bytes and decodes none of them; the typed
/// views (machine modules, vectorisation report, statistics) are decoded on demand
/// by [`IrDeployment::lowered`].
#[derive(Debug, Clone)]
pub struct IrDeployment {
    /// The new system-specialized image.
    pub image: Image,
    /// Reference under which the deployed image was committed.
    pub reference: String,
    /// The configuration that was selected.
    pub assignment: OptionAssignment,
    /// The SIMD level the IR was lowered for.
    pub simd: SimdLevel,
    /// One record per deduplicated lower/compile task, in plan order.
    artifacts: Vec<DeployedArtifact>,
    /// Performance profile of the deployed build.
    pub build_profile: BuildProfile,
    /// Lower/compile actions executed vs served from the action cache. Reported outside
    /// [`DeploymentStats`] so warm and cold deployments stay otherwise identical.
    pub actions: ActionSummary,
    /// The full, deterministic action trace of the deployment.
    pub trace: ActionTrace,
}

/// What one lower/compile task contributed to a deployment: the serialised
/// [`MachineModule`] exactly as the keyed action (or the cache) produced it, shared
/// with the deployed layer's object files, and the manifest units it serves.
#[derive(Debug, Clone)]
struct DeployedArtifact {
    /// Every manifest unit served by the artifact (several units can share one).
    files: Vec<String>,
    /// Lowered from stored IR (`true`) or compiled from a system-dependent source.
    lowered: bool,
    /// `serde_json::to_vec(&MachineModule)`.
    bytes: Blob,
}

/// The typed views of an [`IrDeployment`], decoded by [`IrDeployment::lowered`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredDeployment {
    /// Lowered machine modules keyed by source file.
    pub machine_modules: BTreeMap<String, MachineModule>,
    /// Aggregated vectorisation report.
    pub vectorization: VectorizationReport,
    /// Deployment statistics.
    pub stats: DeploymentStats,
}

impl IrDeployment {
    /// Decode the deployed artifacts — once per task, however many units share it —
    /// into machine modules keyed by source file, the aggregated vectorisation report
    /// and the deployment statistics. Undecodable bytes (action-cache corruption) are
    /// a [`DeployError::Cache`] naming the file.
    pub fn lowered(&self) -> Result<LoweredDeployment, DeployError> {
        let mut machine_modules: BTreeMap<String, MachineModule> = BTreeMap::new();
        let mut vectorization = VectorizationReport::default();
        let mut stats = DeploymentStats::default();
        for artifact in &self.artifacts {
            let machine: MachineModule = serde_json::from_slice(&artifact.bytes).map_err(|e| {
                DeployError::Cache(format!("machine module for {}: {e}", artifact.files[0]))
            })?;
            for file in &artifact.files {
                vectorization
                    .loops
                    .extend(machine.vectorization.loops.iter().cloned());
                if artifact.lowered {
                    stats.lowered_units += 1;
                } else {
                    stats.compiled_source_units += 1;
                }
                machine_modules.insert(file.clone(), machine.clone());
            }
        }
        stats.vectorized_loops = vectorization.vectorized_count();
        stats.scalar_loops = vectorization.scalar_count();
        Ok(LoweredDeployment {
            machine_modules,
            vectorization,
            stats,
        })
    }
}

/// One planned deployment action: either lower a stored IR unit or compile a
/// system-dependent source. `files` lists every manifest unit served by the action
/// (several units can share one deduplicated artifact).
enum DeployTask<'plan> {
    Lower {
        id: &'plan str,
        files: Vec<&'plan str>,
    },
    Compile {
        source: &'plan SourceSpec,
        files: Vec<&'plan str>,
    },
}

/// What a deployment's Link action assembles for the driver.
struct Assembled {
    image: Image,
    artifacts: Vec<DeployedArtifact>,
}

/// The plan phase of one IR deployment: everything validated and owned, but no
/// graph built yet. Produced by [`plan_ir_deploy`], turned into graph nodes by
/// [`graft_ir_deploy`] (into a private graph for a standalone deployment, or into
/// the fleet's union graph), and consumed by [`finish_ir_deploy`] once the nodes
/// have run; the [`orchestrator`](crate::orchestrator) requests drive the phases.
pub(crate) struct DeployPlan<'a> {
    build: &'a IrContainerBuild,
    project: &'a ProjectSpec,
    pub(crate) system: &'a SystemModel,
    manifest: &'a ConfigurationManifest,
    pub(crate) simd: SimdLevel,
    target: TargetIsa,
    compiler: Compiler,
    sd_flags: CompileFlags,
    tasks: Vec<DeployTask<'a>>,
    reference: String,
    assembled: LinkSlot<Assembled>,
}

/// Validate one deployment and plan its deduplicated tasks (Figure 8's *select*
/// step): resolve the configuration manifest, check the SIMD level against the
/// system, split the manifest's units into one lower/compile task per distinct
/// artifact, and derive the system-dependent compile flags from the selected
/// configuration's [`compile_flags`](crate::ir_container::ConfigurationManifest::compile_flags)
/// (optimisation level, OpenMP, …) rather than a hardcoded flag set.
pub(crate) fn plan_ir_deploy<'a>(
    build: &'a IrContainerBuild,
    project: &'a ProjectSpec,
    system: &'a SystemModel,
    selection: &OptionAssignment,
    simd: SimdLevel,
) -> Result<DeployPlan<'a>, DeployError> {
    let manifest = build
        .manifest_for(selection)
        .ok_or_else(|| DeployError::UnknownConfiguration(selection.label()))?;
    if !system.cpu.supports(simd) {
        return Err(DeployError::UnsupportedSimd {
            level: simd,
            system: system.name.clone(),
        });
    }
    let target = target_isa_for(simd);

    // System-dependent sources are compiled with the selected configuration's flags
    // (not a hardcoded set): definitions plus the manifest's non-target compile flags.
    let mut sd_args = manifest.definitions.clone();
    sd_args.extend(manifest.compile_flags.iter().cloned());
    let sd_flags = CompileFlags::parse(sd_args);

    // One deduplicated task per distinct IR unit / source path.
    let mut tasks: Vec<DeployTask<'a>> = Vec::new();
    let mut task_by_artifact: BTreeMap<&str, usize> = BTreeMap::new();
    for UnitAssignment { file, artifact, .. } in &manifest.units {
        let task = if let Some(id) = artifact.strip_prefix("ir:") {
            if !build.units.contains_key(id) {
                return Err(DeployError::MissingUnit(id.to_string()));
            }
            DeployTask::Lower { id, files: vec![] }
        } else if let Some(path) = artifact.strip_prefix("src:") {
            let source = project
                .source(path)
                .ok_or_else(|| DeployError::MissingUnit(path.to_string()))?;
            DeployTask::Compile {
                source,
                files: vec![],
            }
        } else {
            continue;
        };
        let index = *task_by_artifact.entry(artifact).or_insert_with(|| {
            tasks.push(task);
            tasks.len() - 1
        });
        let (DeployTask::Lower { files, .. } | DeployTask::Compile { files, .. }) =
            &mut tasks[index];
        files.push(file);
    }

    let reference = format!(
        "{}:{}-{}-{}",
        project.name,
        system.name.to_ascii_lowercase(),
        crate::ir_container::sanitize(&manifest.label).to_ascii_lowercase(),
        simd.gmx_name().to_ascii_lowercase()
    );
    Ok(DeployPlan {
        build,
        project,
        system,
        manifest,
        simd,
        target,
        compiler: project_compiler(project),
        sd_flags,
        tasks,
        reference,
        assembled: LinkSlot::new(),
    })
}

/// Graft one planned deployment onto `graph` as a self-contained subgraph —
/// Figure 8 as a DAG, in **one** submission:
///
/// 1. **preprocess** (parallel): system-dependent sources, producing the content
///    digests their compile actions are keyed by;
/// 2. **machine-lower + sd-compile** (parallel, cache-routed): lowering a stored
///    IR unit is keyed on (unit content id, target ISA); compiling a
///    system-dependent source is the [`SdCompilePlanner`]'s node, whose key is
///    *derived* from its preprocess dependency's output at dispatch time
///    ([`ActionGraph::add_cached_derived`]);
/// 3. **link + commit**: assemble and commit the system-specialized image.
///
/// Keyed artifacts already in `shared` (the fleet's union-graph wave index; empty
/// for a standalone deployment) become cache-probe aliases instead of second
/// compute nodes: the shared `BuildKey` executes once per wave and fans out to
/// every consuming job's Link.
///
/// Returns the critical-path depth of the job's own nodes (cross-job alias edges
/// excluded) — exactly the `stage_depth` the job's standalone submission would
/// record, so union-graph per-job traces stay comparable.
pub(crate) fn graft_ir_deploy<'env>(
    plan: &'env DeployPlan<'env>,
    graph: &mut ActionGraph<'env, DeployError>,
    store: &'env ImageStore,
    shared: &mut SharedDeployArtifacts,
) -> usize {
    let lift = |file, error| DeployError::Compile { file, error };
    // Preprocess nodes first, in task order: all preprocess records precede the
    // artifact records.
    let mut sd_compile = SdCompilePlanner::new(&plan.compiler, &plan.target);
    let mut preprocess_actions: Vec<Option<ActionId>> = Vec::with_capacity(plan.tasks.len());
    for task in &plan.tasks {
        preprocess_actions.push(match task {
            DeployTask::Compile { source, .. } => {
                Some(sd_compile.preprocess_for(graph, source, &plan.sd_flags, lift))
            }
            DeployTask::Lower { .. } => None,
        });
    }

    let mut artifact_actions: Vec<ActionId> = Vec::with_capacity(plan.tasks.len());
    let mut artifact_depth = 0usize;
    for (task, preprocess_action) in plan.tasks.iter().zip(&preprocess_actions) {
        match task {
            DeployTask::Lower { id, .. } => {
                let unit = &plan.build.units[*id];
                // Code generation: vectorise and lower the stored IR for the selected
                // ISA. The unit id *is* the content digest of the IR, so (id, target)
                // fully determines the lowered artifact.
                let key = BuildKey::new(*id, &plan.target.name, "lower", TOOLCHAIN_ID);
                let identity = format!("lower|{}", key.digest().as_str());
                let action = match shared.get(&identity) {
                    Some(&primary) => graph.add_cached(
                        ActionKind::MachineLower,
                        unit.source_file.clone(),
                        key,
                        &[primary],
                        move |inputs| Ok(inputs.dep(0).to_vec()),
                    ),
                    None => {
                        let target = &plan.target;
                        let action =
                            graph.add_cached(
                                ActionKind::MachineLower,
                                unit.source_file.clone(),
                                key,
                                &[],
                                move |_| {
                                    let machine = lower_to_machine(&unit.module, target);
                                    Ok(serde_json::to_vec(&machine)
                                        .expect("machine module serialises"))
                                },
                            );
                        shared.insert(identity, action);
                        action
                    }
                };
                artifact_actions.push(action);
                artifact_depth = artifact_depth.max(1);
            }
            DeployTask::Compile { source, .. } => {
                artifact_actions.push(sd_compile.action_for(
                    graph,
                    shared,
                    preprocess_action.expect("compile tasks plan a preprocess action"),
                    source,
                    &plan.sd_flags,
                    lift,
                ));
                artifact_depth = artifact_depth.max(2);
            }
        }
    }

    let link_action = {
        let reference = plan.reference.as_str();
        graph.add(
            ActionKind::Link,
            format!("{reference} image"),
            &artifact_actions,
            move |inputs| {
                // The artifact actions emit exactly the serialised machine module, so
                // Link hands those bytes on — to the layer below and to the deployment
                // record — and decodes none of them (`IrDeployment::lowered` does).
                let artifacts: Vec<DeployedArtifact> = plan
                    .tasks
                    .iter()
                    .enumerate()
                    .map(|(index, task)| {
                        let (files, lowered) = match task {
                            DeployTask::Lower { files, .. } => (files, true),
                            DeployTask::Compile { files, .. } => (files, false),
                        };
                        DeployedArtifact {
                            files: files.iter().map(|file| file.to_string()).collect(),
                            lowered,
                            bytes: inputs.dep_blob(index).clone(),
                        }
                    })
                    .collect();

                // Linking and installation: assemble the deployed image from the IR
                // container image.
                let mut image = Image::derive_from(&plan.build.image, reference);
                image.platform =
                    Platform::linux(crate::source_container::architecture_of(plan.system));
                image.set_deployment_format(DeploymentFormat::Binary);
                image.annotate(
                    annotation_keys::SELECTED_CONFIGURATION,
                    plan.manifest.label.clone(),
                );
                image.annotate(annotation_keys::TARGET_SYSTEM, plan.system.name.clone());
                image.annotate("dev.xaas.simd", plan.simd.gmx_name());

                let mut lowered =
                    Layer::new(format!("RUN xaas lower --target {}", plan.target.name));
                for artifact in &artifacts {
                    for file in &artifact.files {
                        lowered.add_file(
                            format!("/xaas/obj/{}.o", file.replace('/', "_")),
                            artifact.bytes.clone(),
                        );
                    }
                }
                for target_spec in &plan.project.targets {
                    lowered.add_executable(
                        format!("/opt/app/bin/{}", target_spec.name),
                        format!(
                            "linked {} for {} ({})",
                            target_spec.name, plan.system.name, plan.target.name
                        )
                        .into_bytes(),
                    );
                }
                // Dependency layers are reassembled for the selected configuration only.
                for dependency in &plan.manifest.dependencies {
                    lowered.add_text(
                        format!("/opt/deps/{dependency}/.provenance"),
                        format!("dependency layer {dependency} for {}", plan.manifest.label),
                    );
                }
                image.push_layer(lowered);
                plan.assembled.put(Assembled { image, artifacts });
                Ok(Vec::new())
            },
        )
    };
    add_commit_action(
        graph,
        format!("{} commit", plan.reference),
        store,
        &plan.assembled,
        |assembled| &assembled.image,
        link_action,
    );

    artifact_depth + 2
}

/// The finish phase: consume the plan after its subgraph ran, returning the
/// [`IrDeployment`] carrying `trace` (the job's own trace — the full run for a
/// standalone submission, the job's split of the wave trace for a union-graph
/// fleet).
pub(crate) fn finish_ir_deploy(plan: DeployPlan<'_>, trace: ActionTrace) -> IrDeployment {
    let Assembled { image, artifacts } = plan.assembled.into_inner().expect("link action ran");

    let threads = plan.system.cpu.total_cores().min(36);
    let mut build_profile = derive_build_profile(
        format!("XaaS IR ({} {})", plan.system.name, plan.simd.gmx_name()),
        &plan.manifest.assignment,
        plan.system,
        threads,
    )
    .with_container_overhead(1.01);
    build_profile.simd = plan.simd;

    let actions = trace.summary();
    IrDeployment {
        image,
        reference: plan.reference,
        assignment: plan.manifest.assignment.clone(),
        simd: plan.simd,
        artifacts,
        build_profile,
        actions,
        trace,
    }
}

/// Convenience: list the IR blob paths of an IR container image (used by examples/tests
/// to show what a deployment would pull).
pub fn ir_blob_paths(image: &Image) -> Vec<String> {
    image
        .rootfs()
        .paths_under(ir_paths::IR_ROOT)
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir_container::IrPipelineConfig;
    use crate::orchestrator::{IrBuildRequest, IrDeployRequest, Orchestrator};
    use xaas_apps::gromacs;
    use xaas_container::ActionCache;
    use xaas_xir::{Interpreter, Value};

    /// Old free-function deployment shape, routed through the orchestrator (uncached).
    fn deploy(
        build: &IrContainerBuild,
        project: &ProjectSpec,
        system: &SystemModel,
        selection: &OptionAssignment,
        simd: SimdLevel,
        store: &ImageStore,
    ) -> Result<IrDeployment, DeployError> {
        IrDeployRequest::new(build, project, system)
            .selection(selection.clone())
            .simd(simd)
            .submit(&Orchestrator::uncached(store))
    }

    /// Old `_cached` deployment shape, routed through the orchestrator (shared cache).
    fn deploy_cached(
        build: &IrContainerBuild,
        project: &ProjectSpec,
        system: &SystemModel,
        selection: &OptionAssignment,
        simd: SimdLevel,
        cache: &ActionCache,
    ) -> Result<IrDeployment, DeployError> {
        IrDeployRequest::new(build, project, system)
            .selection(selection.clone())
            .simd(simd)
            .submit(&Orchestrator::with_cache(cache))
    }

    fn gromacs_ir_build(store: &ImageStore) -> (ProjectSpec, IrContainerBuild) {
        let project = gromacs::project();
        let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD", "GMX_GPU"])
            .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"])
            .with_values("GMX_GPU", &["OFF", "CUDA"]);
        let build = IrBuildRequest::new(&project, &config)
            .reference("spcl/mini-gromacs:ir")
            .submit(&Orchestrator::uncached(store))
            .unwrap();
        (project, build)
    }

    #[test]
    fn deployment_lowers_ir_for_the_selected_isa() {
        let store = ImageStore::new();
        let (project, build) = gromacs_ir_build(&store);
        let system = SystemModel::ault23();
        let selection = OptionAssignment::new()
            .with("GMX_SIMD", "AVX_512")
            .with("GMX_GPU", "CUDA");
        let deployment = deploy(
            &build,
            &project,
            &system,
            &selection,
            SimdLevel::Avx512,
            &store,
        )
        .unwrap();
        let lowered = deployment.lowered().unwrap();
        assert!(lowered.stats.lowered_units > 5);
        assert!(lowered.stats.vectorized_loops > 0);
        assert_eq!(deployment.simd, SimdLevel::Avx512);
        // Vectorised loops use the AVX-512 width.
        let widths: Vec<u32> = lowered
            .machine_modules
            .values()
            .flat_map(|m| m.functions.iter().flat_map(|f| f.loop_widths.clone()))
            .collect();
        assert!(widths.contains(&16));
        assert!(store.load(&deployment.reference).is_ok());
        assert_eq!(
            deployment.image.deployment_format(),
            DeploymentFormat::Binary
        );
        assert_eq!(
            deployment.build_profile.gpu_backend,
            Some(xaas_hpcsim::GpuBackend::Cuda)
        );
    }

    #[test]
    fn same_container_deploys_to_different_isas() {
        let store = ImageStore::new();
        let (project, build) = gromacs_ir_build(&store);
        let selection = OptionAssignment::new()
            .with("GMX_SIMD", "SSE4.1")
            .with("GMX_GPU", "OFF");
        let narrow = deploy(
            &build,
            &project,
            &SystemModel::ault01_04(),
            &selection,
            SimdLevel::Sse41,
            &store,
        )
        .unwrap();
        let wide = deploy(
            &build,
            &project,
            &SystemModel::ault01_04(),
            &selection,
            SimdLevel::Avx512,
            &store,
        )
        .unwrap();
        let width_of = |d: &IrDeployment| {
            d.lowered()
                .unwrap()
                .machine_modules
                .values()
                .flat_map(|m| m.functions.iter().flat_map(|f| f.loop_widths.clone()))
                .max()
                .unwrap_or(1)
        };
        assert_eq!(width_of(&narrow), 4);
        assert_eq!(width_of(&wide), 16);
        assert_ne!(
            narrow.reference, wide.reference,
            "image tags encode the specialization"
        );
    }

    #[test]
    fn warm_cache_deployment_is_identical_and_runs_no_actions() {
        let store = ImageStore::new();
        let (project, build) = gromacs_ir_build(&store);
        let cache = ActionCache::new(store.clone());
        let system = SystemModel::ault23();
        let selection = OptionAssignment::new()
            .with("GMX_SIMD", "AVX_512")
            .with("GMX_GPU", "OFF");
        let cold = deploy_cached(
            &build,
            &project,
            &system,
            &selection,
            SimdLevel::Avx512,
            &cache,
        )
        .unwrap();
        assert_eq!(cold.actions.cached, 0);
        assert!(cold.actions.executed > 0);
        let warm = deploy_cached(
            &build,
            &project,
            &system,
            &selection,
            SimdLevel::Avx512,
            &cache,
        )
        .unwrap();
        assert_eq!(warm.actions.executed, 0, "warm deployment runs no compiler");
        assert_eq!(warm.actions.cached, cold.actions.executed);
        let (warm_lowered, cold_lowered) = (warm.lowered().unwrap(), cold.lowered().unwrap());
        assert_eq!(warm_lowered.machine_modules, cold_lowered.machine_modules);
        assert_eq!(warm_lowered.stats, cold_lowered.stats);
        assert_eq!(warm_lowered, cold_lowered);
        assert_eq!(warm.image.layers, cold.image.layers);
    }

    /// Link ships artifact bytes without decoding them, so a corrupt cache entry no
    /// longer fails the deployment; the decode check lives in `lowered()`.
    #[test]
    fn a_poisoned_cache_entry_surfaces_in_lowered_not_in_the_deployment() {
        let store = ImageStore::new();
        let (project, build) = gromacs_ir_build(&store);
        let cache = ActionCache::new(store.clone());
        let selection = OptionAssignment::new()
            .with("GMX_SIMD", "AVX_512")
            .with("GMX_GPU", "OFF");
        let manifest = build.manifest_for(&selection).unwrap();
        let poisoned = manifest
            .units
            .iter()
            .find(|unit| unit.file == "src/mdrun/integrator.ck")
            .unwrap();
        let id = poisoned.artifact.strip_prefix("ir:").unwrap();
        let target = target_isa_for(SimdLevel::Avx512);
        cache.insert(
            &BuildKey::new(id, &target.name, "lower", TOOLCHAIN_ID),
            b"not json".to_vec(),
        );
        let deployment = deploy_cached(
            &build,
            &project,
            &SystemModel::ault23(),
            &selection,
            SimdLevel::Avx512,
            &cache,
        )
        .expect("the deploy path decodes no artifact");
        assert_eq!(
            deployment.actions.cached, 1,
            "the poisoned entry was served"
        );
        assert!(store.load(&deployment.reference).is_ok());
        match deployment.lowered() {
            Err(DeployError::Cache(detail)) => {
                assert!(detail.contains("src/mdrun/integrator.ck"), "{detail}")
            }
            other => panic!("expected DeployError::Cache, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_simd_level_is_rejected() {
        let store = ImageStore::new();
        let (project, build) = gromacs_ir_build(&store);
        let selection = OptionAssignment::new()
            .with("GMX_SIMD", "AVX_512")
            .with("GMX_GPU", "OFF");
        let error = deploy(
            &build,
            &project,
            &SystemModel::ault25(), // EPYC 7742: no AVX-512
            &selection,
            SimdLevel::Avx512,
            &store,
        )
        .unwrap_err();
        assert!(matches!(error, DeployError::UnsupportedSimd { .. }));
    }

    #[test]
    fn unknown_configuration_is_rejected() {
        let store = ImageStore::new();
        let (project, build) = gromacs_ir_build(&store);
        let selection = OptionAssignment::new().with("GMX_GPU", "HIP");
        let error = deploy(
            &build,
            &project,
            &SystemModel::ault23(),
            &selection,
            SimdLevel::Avx512,
            &store,
        )
        .unwrap_err();
        assert!(matches!(error, DeployError::UnknownConfiguration(_)));
    }

    #[test]
    fn deployed_kernels_compute_the_same_results_as_a_direct_build() {
        let store = ImageStore::new();
        let (project, build) = gromacs_ir_build(&store);
        let system = SystemModel::ault23();
        let selection = OptionAssignment::new()
            .with("GMX_SIMD", "AVX_512")
            .with("GMX_GPU", "OFF");
        let deployment = deploy(
            &build,
            &project,
            &system,
            &selection,
            SimdLevel::Avx512,
            &store,
        )
        .unwrap();
        let lowered = deployment.lowered().unwrap();
        let machine = lowered
            .machine_modules
            .get("src/mdrun/integrator.ck")
            .expect("integrator module present");
        let interp = Interpreter::for_machine(machine);
        let result = interp
            .run(
                "integrate",
                vec![
                    Value::FloatBuffer(vec![0.0; 16]),
                    Value::FloatBuffer(vec![1.0; 16]),
                    Value::FloatBuffer(vec![2.0; 16]),
                    Value::Float(0.5),
                    Value::Int(16),
                ],
            )
            .unwrap();
        let x = result.buffers["x"].as_float_buffer().unwrap();
        assert!(x.iter().all(|&v| (v - 1.0).abs() < 1e-9));
    }

    #[test]
    fn ir_blob_paths_lists_stored_bitcode() {
        let store = ImageStore::new();
        let (_project, build) = gromacs_ir_build(&store);
        let blobs = ir_blob_paths(&build.image);
        assert_eq!(blobs.len(), build.units.len());
        assert!(blobs.iter().all(|p| p.ends_with(".xbc")));
    }
}
