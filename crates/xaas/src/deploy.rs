//! Deployment of IR containers (Section 4.3.1 and Figure 8).
//!
//! The user selects one configuration and the target ISA; XaaS then lowers the selected
//! subset of IR files (applying vectorisation now that the ISA is known), compiles the
//! system-dependent source files against the system's MPI, lets the build system finish
//! linking and installation, and commits a new, system-specialized image whose tag
//! encodes the specialization points.

use crate::engine::plan::{DeployCommit, MachineLower, SdCompile, SharedDeployArtifacts};
use crate::engine::{
    Action, ActionGraph, ActionId, ActionInputs, ActionKind, ActionTrace, PreprocessPlanner,
};
use crate::error::PipelineError;
use crate::ir_container::{
    paths, sanitize, ConfigurationManifest, IrContainerBuild, UnitAssignment,
};
use crate::resolve::Resolved;
use crate::targets::{derive_build_profile, target_isa_for};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use xaas_buildsys::{OptionAssignment, ProjectSpec, SourceSpec, TargetSpec};
use xaas_container::{Blob, Derivation, Image, ImageError, ImageStore, Layer};
use xaas_hpcsim::{BuildProfile, SimdLevel, SystemModel};
use xaas_xir::{CompileFlags, MachineModule, TargetIsa, VectorizationReport};

/// Statistics of one deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// The full, deterministic action trace of the deployment. Its
    /// [`summary`](ActionTrace::summary) counts the lower/compile actions
    /// executed vs served from the action cache; [`DeploymentStats`] leaves
    /// them out, so warm and cold deployments' stats are identical.
    pub trace: ActionTrace,
}

/// What one lower/compile task contributed to a deployment: the serialised
/// [`MachineModule`] exactly as the keyed action (or the cache) produced it. The
/// manifest units it serves are read back by [`IrDeployment::lowered`].
#[derive(Debug, Clone)]
struct DeployedArtifact {
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
    /// and the deployment statistics. The units each task serves come from the
    /// configuration manifest the deployed image inherits from the IR container:
    /// an absent or mismatched manifest is a [`PipelineError::UnknownConfiguration`],
    /// one that does not decode a [`PipelineError::Store`] naming its path.
    /// Undecodable artifact bytes (action-cache corruption) are a
    /// [`PipelineError::Cache`] naming the file.
    pub fn lowered(&self) -> Result<LoweredDeployment, PipelineError> {
        // Read below the deployed layer on top, which stays undecoded.
        let label = self.assignment.label();
        let path = format!("{}/{}.json", paths::CONFIG_ROOT, sanitize(&label));
        let mut inherited = self.image.layers.iter().rev().skip(1);
        let Some(entry) = inherited.find_map(|layer| layer.get(&path)) else {
            return Err(PipelineError::UnknownConfiguration(label));
        };
        let manifest: ConfigurationManifest = serde_json::from_slice(&entry.content)
            .map_err(|e| PipelineError::Store(ImageError::Corrupt(format!("{path}: {e}"))))?;
        if manifest.assignment != self.assignment {
            return Err(PipelineError::UnknownConfiguration(label));
        }
        let mut machine_modules: BTreeMap<String, MachineModule> = BTreeMap::new();
        let mut vectorization = VectorizationReport::default();
        let mut stats = DeploymentStats::default();
        for ((_, files), artifact) in artifact_groups(&manifest).iter().zip(&self.artifacts) {
            let machine: MachineModule = serde_json::from_slice(&artifact.bytes).map_err(|e| {
                let file = files.first().copied().unwrap_or_default();
                PipelineError::Cache(format!("machine module for {file}: {e}"))
            })?;
            for file in files {
                vectorization
                    .loops
                    .extend(machine.vectorization.loops.iter().cloned());
                if artifact.lowered {
                    stats.lowered_units += 1;
                } else {
                    stats.compiled_source_units += 1;
                }
                machine_modules.insert(file.to_string(), machine.clone());
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

/// The manifest's units grouped by artifact, in the order of each artifact's
/// first unit: one group per deployment task, in task order. A unit whose
/// artifact is neither `ir:` nor `src:` is left out.
fn artifact_groups(manifest: &ConfigurationManifest) -> Vec<(&str, Vec<&str>)> {
    let mut groups: Vec<(&str, Vec<&str>)> = Vec::new();
    let mut by_artifact: BTreeMap<&str, usize> = BTreeMap::new();
    for UnitAssignment { file, artifact, .. } in &manifest.units {
        if !(artifact.starts_with("ir:") || artifact.starts_with("src:")) {
            continue;
        }
        let index = *by_artifact.entry(artifact).or_insert_with(|| {
            groups.push((artifact, Vec::new()));
            groups.len() - 1
        });
        groups[index].1.push(file);
    }
    groups
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

impl DeployTask<'_> {
    /// Every manifest unit the task's artifact serves.
    fn files(&self) -> &[&str] {
        match self {
            DeployTask::Lower { files, .. } | DeployTask::Compile { files, .. } => files,
        }
    }
}

/// The Link of an IR deployment: the deployed layer — an object file per
/// manifest unit, the linked executables and the dependency provenance — output
/// as its sealed archive. Its key reads each task's artifact by content digest,
/// not by key, so two artifact nodes with other keys and the same bytes link to
/// the same layer (an early cutoff), and a warm deployment's Link is a hit.
struct IrDeployLink<'a> {
    /// The deployment target's name: the layer's note and executables name it.
    target: &'a str,
    system: &'a str,
    /// The selected configuration's label, which the provenance files name.
    label: &'a str,
    dependencies: &'a [String],
    /// The project's targets, linked by name.
    targets: &'a [TargetSpec],
    /// One task per dependency, in order: its artifact is that dependency's output.
    tasks: &'a [DeployTask<'a>],
}

impl Action for IrDeployLink<'_> {
    const KIND: ActionKind = ActionKind::Link;
    const KEY_READS_DEPS: bool = true;
    const READS_DEP_DIGESTS: bool = true;
    type Error = PipelineError;

    fn derive(&self, deps: Option<&ActionInputs>, record: Derivation) -> Derivation {
        let Self {
            target,
            system,
            label,
            dependencies,
            targets,
            tasks,
        } = self;
        let record = record
            .str(target)
            .str(system)
            .str(label)
            .strs(dependencies.iter().map(String::as_str))
            .strs(targets.iter().map(|spec| spec.name.as_str()))
            .u64(tasks.len() as u64);
        tasks
            .iter()
            .enumerate()
            .fold(record, |record, (index, task)| {
                let record = record.strs(task.files().iter().copied());
                match deps {
                    Some(deps) => record.str(deps.dep_digest(index).as_str()),
                    None => record,
                }
            })
    }

    fn run(self, deps: &ActionInputs) -> Result<Vec<u8>, PipelineError> {
        // Linking and installation. The artifact actions emit exactly the
        // serialised machine module, so the object files are those bytes,
        // decoded by nobody (`IrDeployment::lowered` decodes them on request).
        let mut layer = Layer::new(format!("RUN xaas lower --target {}", self.target));
        for (index, task) in self.tasks.iter().enumerate() {
            for file in task.files() {
                let object = format!("/xaas/obj/{}.o", file.replace('/', "_"));
                layer.add_file(object, deps.dep_blob(index).clone());
            }
        }
        for TargetSpec { name, .. } in self.targets {
            layer.add_executable(
                format!("/opt/app/bin/{name}"),
                format!("linked {name} for {} ({})", self.system, self.target).into_bytes(),
            );
        }
        // Dependency layers are reassembled for the selected configuration only.
        for dependency in self.dependencies {
            layer.add_text(
                format!("/opt/deps/{dependency}/.provenance"),
                format!("dependency layer {dependency} for {}", self.label),
            );
        }
        Ok(layer.to_archive())
    }
}

/// The plan phase of one IR deployment: everything validated and owned, but no
/// graph built yet. Produced by [`plan_ir_deploy`], turned into graph nodes by
/// [`graft_ir_deploy`] (into a private graph for a standalone deployment, or into
/// the fleet's union graph), and consumed by [`finish_ir_deploy`] once the nodes
/// have run; the [`orchestrator`](crate::orchestrator) requests drive the phases.
/// The commit node leaves the committed image in `committed`.
pub(crate) struct DeployPlan<'a> {
    build: &'a IrContainerBuild,
    project: &'a ProjectSpec,
    pub(crate) system: &'a SystemModel,
    manifest: &'a ConfigurationManifest,
    pub(crate) simd: SimdLevel,
    target: TargetIsa,
    sd_flags: CompileFlags,
    tasks: Vec<DeployTask<'a>>,
    reference: String,
    committed: OnceLock<Image>,
}

/// The nodes [`graft_ir_deploy`] added that [`finish_ir_deploy`] reads.
pub(crate) struct GraftedDeploy {
    /// The critical-path depth of the job's own nodes.
    pub(crate) depth: usize,
    /// The artifact node of each task, in task order.
    artifacts: Vec<ActionId>,
}

/// Plan one resolved deployment (Figure 8's *select* step is `resolve`): find
/// the manifest whose assignment is `resolved.selection`, split its units into
/// one lower/compile task per distinct artifact for `resolved.target`, and take
/// the system-dependent compile flags from the configuration's
/// [`compile_flags`](crate::ir_container::ConfigurationManifest::compile_flags).
pub(crate) fn plan_ir_deploy<'a>(
    build: &'a IrContainerBuild,
    project: &'a ProjectSpec,
    system: &'a SystemModel,
    resolved: &Resolved,
) -> Result<DeployPlan<'a>, PipelineError> {
    let manifest = build
        .manifest_for(&resolved.selection)
        .ok_or_else(|| PipelineError::UnknownConfiguration(resolved.selection.label()))?;
    let target = target_isa_for(resolved.target);

    // System-dependent sources are compiled with the selected configuration's flags
    // (not a hardcoded set): definitions plus the manifest's non-target compile flags.
    let mut sd_args = manifest.definitions.clone();
    sd_args.extend(manifest.compile_flags.iter().cloned());
    let sd_flags = CompileFlags::parse(sd_args);

    // One deduplicated task per distinct IR unit / source path. A task is no
    // larger than its group, so the collect reuses the groups' allocation.
    let tasks = artifact_groups(manifest)
        .into_iter()
        .map(|(artifact, files)| {
            Ok(match artifact.strip_prefix("ir:") {
                Some(id) if !build.units.contains_key(id) => {
                    return Err(PipelineError::MissingUnit(id.to_string()))
                }
                Some(id) => DeployTask::Lower { id, files },
                None => {
                    let path = artifact.strip_prefix("src:").unwrap_or(artifact);
                    let source = project
                        .source(path)
                        .ok_or_else(|| PipelineError::MissingUnit(path.to_string()))?;
                    DeployTask::Compile { source, files }
                }
            })
        });
    let tasks = tasks.collect::<Result<Vec<DeployTask<'a>>, PipelineError>>()?;

    Ok(DeployPlan {
        build,
        project,
        system,
        manifest,
        simd: resolved.target,
        target,
        sd_flags,
        tasks,
        reference: resolved.reference(project, system),
        committed: OnceLock::new(),
    })
}

/// Graft one planned deployment onto `graph` as a self-contained subgraph —
/// Figure 8 as a DAG, in **one** submission:
///
/// 1. **preprocess** (parallel): system-dependent sources, producing the content
///    digests their compile actions are keyed by;
/// 2. **machine-lower + sd-compile** (parallel, cache-routed): each an
///    [`Action`] record. A [`MachineLower`] is keyed on
///    (unit content id, target ISA); an [`SdCompile`] reads its preprocess
///    dependency's output into its key, so that key is derived when the node is
///    dispatched;
/// 3. **link + commit**: an [`IrDeployLink`] record, keyed on its artifacts'
///    content digests, outputs the deployed layer's archive (a warm deployment's
///    Link is a hit), and the commit derives the system-specialized image from
///    the IR container's, adopts that archive as its last layer and commits it.
///
/// Records whose identity is already in `shared` (the fleet's union-graph wave
/// index; empty for a standalone deployment) become cache-probe aliases instead
/// of second compute nodes: the shared `BuildKey` executes once per wave and fans
/// out to every consuming job's Link.
///
/// The returned depth is the critical-path depth of the job's own nodes
/// (cross-job alias edges excluded) — exactly the `stage_depth` the job's
/// standalone submission would record, so union-graph per-job traces stay
/// comparable.
pub(crate) fn graft_ir_deploy<'env>(
    plan: &'env DeployPlan<'env>,
    graph: &mut ActionGraph<'env, PipelineError>,
    store: &'env ImageStore,
    shared: &mut SharedDeployArtifacts,
) -> GraftedDeploy {
    // Preprocess nodes first, in task order: all preprocess records precede the
    // artifact records.
    let (flags, target) = (&plan.sd_flags, &plan.target);
    let mut preprocess = PreprocessPlanner::new(&plan.project.headers);
    let mut preprocess_actions: Vec<Option<ActionId>> = Vec::with_capacity(plan.tasks.len());
    for task in &plan.tasks {
        preprocess_actions.push(match task {
            DeployTask::Compile { source, .. } => {
                let SourceSpec { path, content, .. } = source;
                Some(preprocess.action_for(graph, path, content, flags))
            }
            DeployTask::Lower { .. } => None,
        });
    }

    let mut artifact_actions: Vec<ActionId> = Vec::with_capacity(plan.tasks.len());
    let mut artifact_depth = 0usize;
    for (task, preprocess_action) in plan.tasks.iter().zip(&preprocess_actions) {
        match task {
            DeployTask::Lower { id, .. } => {
                // Code generation: vectorise and lower the stored IR for the selected
                // ISA. The unit id *is* the content digest of the IR, so (id, target)
                // fully determines the lowered artifact.
                let unit = &plan.build.units[*id];
                let record = MachineLower { unit, target };
                artifact_actions.push(shared.graft(graph, &unit.source_file, record, &[]));
                artifact_depth = artifact_depth.max(1);
            }
            DeployTask::Compile { source, .. } => {
                let preprocess = preprocess_action.expect("compile tasks plan a preprocess action");
                let record = SdCompile {
                    path: &source.path,
                    flags,
                    target,
                };
                artifact_actions.push(shared.graft(graph, &source.path, record, &[preprocess]));
                artifact_depth = artifact_depth.max(2);
            }
        }
    }

    let reference = plan.reference.as_str();
    let link = IrDeployLink {
        target: &plan.target.name,
        system: &plan.system.name,
        label: &plan.manifest.label,
        dependencies: &plan.manifest.dependencies,
        targets: &plan.project.targets,
        tasks: &plan.tasks,
    };
    let link = graph.add_action(format!("{reference} image"), link, &artifact_actions);
    let commit = DeployCommit {
        base: &plan.build.image,
        reference,
        system: plan.system,
        label: &plan.manifest.label,
        annotation: ("dev.xaas.simd", plan.simd.gmx_name()),
        store,
        committed: &plan.committed,
    };
    graph.add_action(format!("{reference} commit"), commit, &[link]);

    GraftedDeploy {
        depth: artifact_depth + 2,
        artifacts: artifact_actions,
    }
}

/// The finish phase: consume the plan after its subgraph ran, returning the
/// [`IrDeployment`] carrying `trace` (the job's own trace — the full run for a
/// standalone submission, the job's split of the wave trace for a union-graph
/// fleet). `output` hands back a node's output: each of `grafted`'s artifacts
/// completed.
pub(crate) fn finish_ir_deploy<'run>(
    plan: DeployPlan<'_>,
    grafted: &GraftedDeploy,
    output: impl Fn(ActionId) -> &'run Blob,
    trace: ActionTrace,
) -> IrDeployment {
    let image = plan.committed.into_inner().expect("the commit action ran");
    let artifacts = plan
        .tasks
        .iter()
        .zip(&grafted.artifacts)
        .map(|(task, &node)| DeployedArtifact {
            lowered: matches!(task, DeployTask::Lower { .. }),
            bytes: output(node).clone(),
        })
        .collect();

    let threads = plan.system.cpu.total_cores().min(36);
    let mut build_profile = derive_build_profile(
        format!("XaaS IR ({} {})", plan.system.name, plan.simd.gmx_name()),
        plan.project,
        &plan.manifest.assignment,
        plan.system,
        threads,
    )
    .with_container_overhead(1.01);
    build_profile.simd = plan.simd;

    IrDeployment {
        image,
        reference: plan.reference,
        assignment: plan.manifest.assignment.clone(),
        simd: plan.simd,
        artifacts,
        build_profile,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::graph::derive_key;
    use crate::ir_container::IrPipelineConfig;
    use crate::orchestrator::{IrBuildRequest, IrDeployRequest, Orchestrator};
    use xaas_apps::gromacs;
    use xaas_container::{ActionCache, BuildKey, DeploymentFormat};
    use xaas_xir::{Interpreter, Value};

    /// Old free-function deployment shape, routed through the orchestrator (uncached).
    fn deploy(
        build: &IrContainerBuild,
        project: &ProjectSpec,
        system: &SystemModel,
        selection: &OptionAssignment,
        simd: SimdLevel,
        store: &ImageStore,
    ) -> Result<IrDeployment, PipelineError> {
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
    ) -> Result<IrDeployment, PipelineError> {
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

    /// A custom target's product is a unit of exactly the configurations that
    /// trigger it: sweeping `GMX_FFT_LIBRARY` over `fftw3` and `fftpack` lists
    /// `generated/own_fft.ck`, as IR, only in the `fftpack` manifest, and
    /// deploying that configuration lowers it.
    #[test]
    fn a_triggered_custom_target_product_is_stored_as_ir_and_lowered() {
        const PRODUCT: &str = "generated/own_fft.ck";
        fn product_artifacts<'b>(build: &'b IrContainerBuild, fft: &str) -> Vec<&'b str> {
            let manifest = build
                .manifests
                .iter()
                .find(|manifest| manifest.assignment.get("GMX_FFT_LIBRARY") == Some(fft));
            let units = manifest.map_or(&[][..], |manifest| &manifest.units);
            let product = units.iter().filter(|unit| unit.file == PRODUCT);
            product.map(|unit| unit.artifact.as_str()).collect()
        }
        let store = ImageStore::new();
        let project = gromacs::project();
        let config = IrPipelineConfig::sweep_options(&project, &["GMX_FFT_LIBRARY"])
            .with_values("GMX_FFT_LIBRARY", &["fftw3", "fftpack"]);
        let build = IrBuildRequest::new(&project, &config)
            .reference("spcl/mini-gromacs:fft")
            .submit(&Orchestrator::uncached(&store))
            .unwrap();
        assert_eq!(build.manifests.len(), 2);
        assert_eq!(product_artifacts(&build, "fftw3"), Vec::<&str>::new());
        let fftpack = product_artifacts(&build, "fftpack");
        assert_eq!(fftpack.len(), 1, "{fftpack:?}");
        let id = fftpack[0].strip_prefix("ir:").expect("the product is IR");
        assert_eq!(build.units[id].source_file, PRODUCT);

        let selection = OptionAssignment::new().with("GMX_FFT_LIBRARY", "fftpack");
        let system = SystemModel::ault23();
        let deployment = deploy(
            &build,
            &project,
            &system,
            &selection,
            SimdLevel::Avx512,
            &store,
        )
        .unwrap();
        assert_eq!(
            deployment.assignment.get("GMX_FFT_LIBRARY"),
            Some("fftpack")
        );
        let lowered = deployment.lowered().unwrap();
        assert!(lowered.machine_modules[PRODUCT]
            .functions
            .iter()
            .any(|function| function.name == "fft_forward"));
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
        assert_eq!(cold.trace.summary().cached, 0);
        assert!(cold.trace.summary().executed > 0);
        let warm = deploy_cached(
            &build,
            &project,
            &system,
            &selection,
            SimdLevel::Avx512,
            &cache,
        )
        .unwrap();
        assert_eq!(
            warm.trace.summary().executed,
            0,
            "warm deployment runs no compiler"
        );
        assert_eq!(warm.trace.summary().cached, cold.trace.summary().executed);
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
        let selection = project.complete(
            &OptionAssignment::new()
                .with("GMX_SIMD", "AVX_512")
                .with("GMX_GPU", "OFF"),
        );
        let manifest = build.manifest_for(&selection).unwrap();
        let poisoned = manifest
            .units
            .iter()
            .find(|unit| unit.file == "src/mdrun/integrator.ck")
            .unwrap();
        let id = poisoned.artifact.strip_prefix("ir:").unwrap();
        let record = MachineLower {
            unit: &build.units[id],
            target: &target_isa_for(SimdLevel::Avx512),
        };
        cache.insert(&record.identity(), b"not json".to_vec());
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
            deployment.trace.summary().cached,
            1,
            "the poisoned entry was served"
        );
        assert!(store.load(&deployment.reference).is_ok());
        match deployment.lowered() {
            Err(PipelineError::Cache(detail)) => {
                assert!(detail.contains("src/mdrun/integrator.ck"), "{detail}")
            }
            other => panic!("expected PipelineError::Cache, got {other:?}"),
        }
    }

    /// The IR build's Link ships `ir-lower` outputs undecoded, so a damaged
    /// entry does not fail the build: its bytes are committed as the unit's
    /// bitcode, and the first `machine-lower` of the unit fails, naming its file,
    /// without caching an output.
    #[test]
    fn a_forged_ir_lower_entry_is_committed_undecoded_and_fails_its_machine_lower() {
        const FORGED: &str = "src/mdrun/integrator.ck";
        let project = gromacs::project();
        let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"])
            .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"]);
        let build = |cache: &ActionCache| {
            IrBuildRequest::new(&project, &config)
                .reference("spcl/mini-gromacs:forged")
                .submit(&Orchestrator::with_cache(cache))
        };
        // The unit's `ir-lower` key, from a clean build's trace.
        let clean = build(&ActionCache::new(ImageStore::new())).unwrap();
        let lower = clean.trace.records.iter();
        let lower = lower
            .filter(|record| record.kind == ActionKind::IrLower && record.label == FORGED)
            .collect::<Vec<_>>();
        assert_eq!(lower.len(), 1, "one ir-lower of {FORGED}");
        let hex = lower[0].key_digest.as_deref().unwrap();
        let key = BuildKey::parse(&format!("sha256:{hex}")).unwrap();

        let store = ImageStore::new();
        let cache = ActionCache::new(store.clone());
        let forged = b"XBC1 not an IR module".to_vec();
        cache.insert(&key, forged.clone());
        let build = build(&cache).expect("the Link decodes no unit");
        let unit = (build.units.values())
            .find(|unit| unit.source_file == FORGED)
            .unwrap();
        assert_eq!(unit.bitcode, forged);
        let root = build.image.rootfs();
        let shipped = root.get(&format!("/xaas/ir/{}.xbc", unit.id)).unwrap();
        assert_eq!(
            shipped.content, forged,
            "the IR layer ships the forged bytes"
        );

        let selection = project.complete(&OptionAssignment::new().with("GMX_SIMD", "AVX_512"));
        let deployed = deploy_cached(
            &build,
            &project,
            &SystemModel::ault23(),
            &selection,
            SimdLevel::Avx512,
            &cache,
        );
        match deployed {
            Err(PipelineError::Cache(detail)) => assert!(detail.contains(FORGED), "{detail}"),
            other => panic!("expected PipelineError::Cache, got {other:?}"),
        }
        let record = MachineLower {
            unit,
            target: &target_isa_for(SimdLevel::Avx512),
        };
        assert!(
            !cache.contains(&record.identity()),
            "no machine-lower output is cached for the forged unit"
        );
    }

    /// A named change to one field of [`LinkFields`].
    type Change = (&'static str, fn(&mut LinkFields));

    /// Everything an [`IrDeployLink`] keys, owned, so a test can change one field.
    #[derive(Clone)]
    struct LinkFields {
        target: String,
        system: String,
        label: String,
        dependencies: Vec<String>,
        targets: Vec<String>,
        /// Each task's files; task `i` lowers unit `u{i}`.
        files: Vec<Vec<&'static str>>,
        /// Each task's artifact bytes.
        outputs: Vec<&'static [u8]>,
    }

    impl LinkFields {
        fn base() -> Self {
            Self {
                target: "x86_64-avx_512".into(),
                system: "Ault23".into(),
                label: "GMX_GPU=OFF,GMX_SIMD=AVX_512".into(),
                dependencies: vec!["fftw".into(), "mpich".into()],
                targets: vec!["gmx".into(), "libgromacs".into()],
                files: vec![vec!["src/a.ck"], vec!["src/b.ck", "src/c.ck"]],
                outputs: vec![b"module a", b"module bc"],
            }
        }

        /// The record's key once its artifacts output `outputs`.
        fn key(&self) -> BuildKey {
            let units = ["u0", "u1", "u2"];
            let tasks: Vec<DeployTask<'_>> = self
                .files
                .iter()
                .zip(units)
                .map(|(files, id)| DeployTask::Lower {
                    id,
                    files: files.clone(),
                })
                .collect();
            let targets: Vec<TargetSpec> = self
                .targets
                .iter()
                .map(|name| TargetSpec::new(name, xaas_buildsys::TargetKind::Executable, vec![]))
                .collect();
            let record = IrDeployLink {
                target: &self.target,
                system: &self.system,
                label: &self.label,
                dependencies: &self.dependencies,
                targets: &targets,
                tasks: &tasks,
            };
            let outputs = self
                .outputs
                .iter()
                .map(|&bytes| Blob::from(bytes))
                .collect();
            derive_key(&record, Some(&ActionInputs::new(outputs)))
        }
    }

    /// Populated disk tiers outlive the binary: the Link key may not drift.
    #[test]
    fn ir_deploy_link_key_is_pinned() {
        assert_eq!(
            LinkFields::base().key().digest().as_str(),
            "sha256:b564d1a1a6ae39753e03cbb81c66af9765fe455ceaaba2fbac2b0fac4771ce0e"
        );
    }

    /// Everything the deployed layer is made of moves the Link key: the target
    /// (its note and executables), the system, the configuration label and its
    /// dependencies (the provenance files), a target name, a file name (an object
    /// path) and one artifact's bytes.
    #[test]
    fn ir_deploy_link_key_reads_every_input_of_the_layer() {
        let base = LinkFields::base();
        let changes: [Change; 8] = [
            ("target", |f| f.target = "x86_64-avx2_256".into()),
            ("system", |f| f.system = "Ault01-04".into()),
            ("label", |f| {
                f.label = "GMX_GPU=CUDA,GMX_SIMD=AVX_512".into()
            }),
            ("dependencies", |f| f.dependencies.push("cuda".into())),
            ("a target name", |f| f.targets[1] = "libmd".into()),
            ("a file name", |f| f.files[1][1] = "src/d.ck"),
            ("a file moved between tasks", |f| {
                let moved = f.files[1].remove(0);
                f.files[0].push(moved);
            }),
            ("one artifact's bytes", |f| f.outputs[1] = b"module bc'"),
        ];
        for (what, change) in changes {
            let mut changed = base.clone();
            change(&mut changed);
            assert_ne!(changed.key(), base.key(), "{what} moves the key");
        }
    }

    /// The early cutoff: a Link keys its artifacts by content digest, so two
    /// artifact nodes with other keys and the same bytes give one Link key, and
    /// the second Link is a hit through a cached engine.
    #[test]
    fn ir_deploy_link_keys_its_artifacts_by_content() {
        let fields = LinkFields::base();
        let cache = ActionCache::new(ImageStore::new());
        let engine = crate::engine::Engine::cached(&cache).with_workers(1);
        let targets = vec![TargetSpec::new(
            "gmx",
            xaas_buildsys::TargetKind::Executable,
            vec![],
        )];
        let tasks = [DeployTask::Lower {
            id: "u0",
            files: vec!["src/a.ck"],
        }];
        let mut links = Vec::new();
        for artifact_key in ["first artifact", "other artifact"] {
            let mut graph: ActionGraph<'_, PipelineError> = ActionGraph::new();
            let key = xaas_container::Derivation::new(artifact_key).finish();
            let artifact = graph.add_cached(ActionKind::MachineLower, "a", key, &[], |_| {
                Ok(b"the same module".to_vec())
            });
            let record = IrDeployLink {
                target: &fields.target,
                system: &fields.system,
                label: &fields.label,
                dependencies: &fields.dependencies,
                targets: &targets,
                tasks: &tasks,
            };
            let link = graph.add_action("link", record, &[artifact]);
            let run = engine.run(graph).unwrap();
            let record = run.trace.records[link].clone();
            // One object, one executable and two provenance files.
            let layer = Layer::from_archive(run.output(link).unwrap()).unwrap();
            assert_eq!(layer.len(), 4);
            links.push(record);
        }
        assert_ne!(links[0].key_digest, None);
        assert_eq!(links[0].key_digest, links[1].key_digest);
        assert_eq!((links[0].cached, links[1].cached), (false, true));
    }

    /// A cache entry under a Link key that is no layer archive fails the
    /// deployment with a typed cache error naming the image, and tags nothing.
    #[test]
    fn a_poisoned_link_entry_is_a_cache_error_and_commits_nothing() {
        let store = ImageStore::new();
        let (project, build) = gromacs_ir_build(&store);
        let system = SystemModel::ault23();
        let selection = OptionAssignment::new()
            .with("GMX_SIMD", "AVX_512")
            .with("GMX_GPU", "OFF");
        let deploy = |cache: &ActionCache| {
            deploy_cached(
                &build,
                &project,
                &system,
                &selection,
                SimdLevel::Avx512,
                cache,
            )
        };
        // Learn the Link's key from a deployment over another store.
        let cold = deploy(&ActionCache::new(ImageStore::new())).unwrap();
        let link = cold
            .trace
            .records
            .iter()
            .find(|r| r.kind == ActionKind::Link);
        let hex = link.unwrap().key_digest.as_deref().unwrap();
        let key = BuildKey::parse(&format!("sha256:{hex}")).unwrap();

        let poisoned = ImageStore::new();
        let cache = ActionCache::new(poisoned.clone());
        cache.insert(&key, b"not an archive".to_vec());
        match deploy(&cache) {
            Err(PipelineError::Cache(detail)) => {
                assert!(detail.contains(&cold.reference), "{detail}")
            }
            other => panic!("expected PipelineError::Cache, got {other:?}"),
        }
        assert!(poisoned.references().is_empty(), "nothing is tagged");
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
        assert!(matches!(error, PipelineError::UnsupportedSimd { .. }));
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
        assert!(matches!(error, PipelineError::UnknownConfiguration(_)));
    }

    /// The configuration manifest `lowered` reads is image content: one that does
    /// not decode is a corrupt store entry naming its path, and one decoding to
    /// another configuration leaves the deployment's configuration unknown.
    #[test]
    fn a_corrupt_configuration_manifest_is_a_store_error() {
        let store = ImageStore::new();
        let (project, build) = gromacs_ir_build(&store);
        let selection = OptionAssignment::new()
            .with("GMX_SIMD", "AVX_512")
            .with("GMX_GPU", "OFF");
        let deployment = deploy(
            &build,
            &project,
            &SystemModel::ault23(),
            &selection,
            SimdLevel::Avx512,
            &store,
        )
        .unwrap();
        let label = deployment.assignment.label();
        let path = format!("{}/{}.json", paths::CONFIG_ROOT, sanitize(&label));
        // A layer just below the deployed one shadows the IR container's manifest.
        let shadowed = |content: Vec<u8>| {
            let mut shadowed = deployment.clone();
            let mut layer = Layer::new("test");
            layer.add_file(path.clone(), content);
            let below_top = shadowed.image.layers.len() - 1;
            shadowed.image.layers.insert(below_top, layer);
            shadowed.lowered()
        };
        match shadowed(b"{\"assignment\":".to_vec()) {
            Err(PipelineError::Store(ImageError::Corrupt(what))) => {
                assert!(what.contains(&path), "{what}")
            }
            other => panic!("expected a corrupt manifest, got {other:?}"),
        }
        let other = project.complete(&selection.clone().with("GMX_SIMD", "SSE4.1"));
        let other = serde_json::to_vec(build.manifest_for(&other).unwrap()).unwrap();
        assert!(matches!(
            shadowed(other),
            Err(PipelineError::UnknownConfiguration(_))
        ));
        assert!(deployment.lowered().is_ok());
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
}
