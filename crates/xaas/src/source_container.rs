//! XaaS source containers (Section 4.1).
//!
//! A source container ships the application source tree, its build instructions, and the
//! toolchain, annotated with the application's specialization points. Deployment happens
//! on the target system: system discovery, feature intersection, specialization
//! selection, and a full build of the selected configuration, producing a *new*,
//! system-specific image (Figure 6).

use crate::engine::plan::{SdCompilePlanner, SharedDeployArtifacts};
use crate::engine::{add_commit_action, ActionGraph, ActionId, ActionKind, ActionTrace, LinkSlot};
use crate::ir_container::{project_compiler, ActionSummary};
use crate::targets::{derive_build_profile, target_isa_for};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use xaas_buildsys::{
    configure, ConfigureError, ConfiguredBuild, OptionAssignment, OptionCategory, ProjectSpec,
};
use xaas_container::{
    annotation_keys, Architecture, DeploymentFormat, Image, ImageStore, Layer, Platform,
};
use xaas_hpcsim::{discover, BuildProfile, ModuleKind, SimdLevel, SystemModel};
use xaas_specs::{from_project, intersect, CommonSpecialization, SpecCategory};
use xaas_xir::{CompileFlags, Compiler, MachineModule, TargetIsa};

/// Errors during source-container building or deployment.
#[derive(Debug)]
#[allow(missing_docs)] // variant payload fields are documented by the Display impl
pub enum SourceContainerError {
    /// The selected configuration could not be configured.
    Configure(ConfigureError),
    /// A translation unit failed to compile on the target.
    Compile {
        file: String,
        error: xaas_xir::CompileError,
    },
    /// The user preference conflicts with the system's capabilities.
    UnsupportedPreference {
        option: String,
        value: String,
        reason: String,
    },
    /// Container store failure.
    Store(xaas_container::ImageError),
    /// A target (or the generated compile database) references a source file the
    /// project does not provide — neither as a source spec nor as a custom-target
    /// product (a malformed project).
    UnknownSource { file: String },
    /// A cached artifact failed to decode (action-cache corruption).
    Cache(String),
    /// The orchestrator's scheduling policy is invalid (e.g. a zero tenant weight).
    Policy(crate::engine::PolicyError),
    /// The pre-submission static analyzer rejected the build graph (deny-level
    /// diagnostics); nothing executed.
    Analysis(Box<crate::engine::AnalysisReport>),
    /// The executor broke its scheduling contract (a node skipped without a
    /// failure, or cancelled mid-run) — not a pipeline error.
    Engine(crate::engine::GraphFault),
}

impl fmt::Display for SourceContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceContainerError::Configure(e) => write!(f, "configuration failed: {e}"),
            SourceContainerError::Compile { file, error } => write!(f, "compiling {file}: {error}"),
            SourceContainerError::UnsupportedPreference {
                option,
                value,
                reason,
            } => {
                write!(f, "preference {option}={value} is not deployable: {reason}")
            }
            SourceContainerError::Store(e) => write!(f, "image store: {e}"),
            SourceContainerError::UnknownSource { file } => {
                write!(
                    f,
                    "compile database references {file}, which is not an enabled source"
                )
            }
            SourceContainerError::Cache(detail) => write!(f, "action cache: {detail}"),
            SourceContainerError::Policy(error) => write!(f, "{error}"),
            SourceContainerError::Analysis(report) => {
                write!(f, "graph rejected by analysis: {report}")
            }
            SourceContainerError::Engine(fault) => write!(f, "executor fault: {fault}"),
        }
    }
}

impl std::error::Error for SourceContainerError {}

impl From<crate::engine::GraphRunError<SourceContainerError>> for SourceContainerError {
    fn from(value: crate::engine::GraphRunError<SourceContainerError>) -> Self {
        match value.into_action() {
            Ok(error) => error,
            Err(fault) => SourceContainerError::Engine(fault),
        }
    }
}

impl From<Box<crate::engine::AnalysisReport>> for SourceContainerError {
    fn from(value: Box<crate::engine::AnalysisReport>) -> Self {
        SourceContainerError::Analysis(value)
    }
}

impl From<ConfigureError> for SourceContainerError {
    fn from(value: ConfigureError) -> Self {
        SourceContainerError::Configure(value)
    }
}
impl From<xaas_container::ImageError> for SourceContainerError {
    fn from(value: xaas_container::ImageError) -> Self {
        SourceContainerError::Store(value)
    }
}

/// Paths used inside source containers.
pub mod paths {
    /// Root of the application source tree.
    pub const SOURCE_ROOT: &str = "/xaas/src";
    /// The build script.
    pub const BUILD_SCRIPT: &str = "/xaas/src/XMakeLists.txt";
    /// Directory with project headers.
    pub const INCLUDE_ROOT: &str = "/xaas/src/include";
    /// The toolchain compiler binary.
    pub const COMPILER: &str = "/usr/bin/xirc";
    /// Deployment build outputs.
    pub const BUILD_ROOT: &str = "/xaas/build";
    /// Installed binaries.
    pub const INSTALL_ROOT: &str = "/opt/app";
}

/// Build a source container image for `project` targeting `architecture` and commit it.
///
/// One image per toolchain and architecture is enough (Section 4.1): no build steps run
/// here, so there is no combinatorial explosion.
pub fn build_source_container(
    project: &ProjectSpec,
    architecture: Architecture,
    store: &ImageStore,
    reference: &str,
) -> Image {
    let mut image = Image::new(reference, Platform::linux(architecture));
    image.set_deployment_format(DeploymentFormat::Source);

    let mut toolchain = Layer::new("ADD xirc toolchain and MPICH-ABI headers");
    toolchain.add_executable(paths::COMPILER, b"xirc-driver".to_vec());
    toolchain.add_text("/opt/mpich/lib/libmpi.so", "mpich 4.2 (ABI: mpich)");
    toolchain.add_text(
        "/etc/xaas/toolchain.json",
        r#"{"compiler":"xirc","ir":"xir.v1"}"#,
    );
    image.push_layer(toolchain);

    let mut sources = Layer::new(format!("COPY {} source tree", project.name));
    sources.add_text(paths::BUILD_SCRIPT, project.build_script.clone());
    for (path, content) in project.source_tree() {
        sources.add_text(format!("{}/{}", paths::SOURCE_ROOT, path), content);
    }
    for (name, content) in &project.headers {
        sources.add_text(format!("{}/{}", paths::INCLUDE_ROOT, name), content.clone());
    }
    image.push_layer(sources);

    let spec_points = from_project(project);
    image.annotate(
        annotation_keys::SPECIALIZATION_POINTS,
        spec_points.to_json_string(),
    );
    image.annotate(annotation_keys::TITLE, project.name.clone());
    store.commit(&image);
    image
}

/// The result of deploying a source container to a system.
#[derive(Debug, Clone)]
pub struct SourceDeployment {
    /// The system-specialized image (a new image, distinct from the registry image).
    pub image: Image,
    /// The reference under which the deployed image was committed.
    pub reference: String,
    /// The specialization values that were selected.
    pub assignment: OptionAssignment,
    /// The intersection that constrained the selection.
    pub intersection: CommonSpecialization,
    /// Number of translation units compiled during deployment.
    pub compiled_units: usize,
    /// The performance profile of the deployed build (for the execution model).
    pub build_profile: BuildProfile,
    /// Human-readable notes (fallbacks, substitutions, base-image switches).
    pub notes: Vec<String>,
    /// Compile actions executed vs served from the action cache.
    pub actions: ActionSummary,
    /// The full, deterministic action trace of the deployment.
    pub trace: ActionTrace,
}

/// Selection policy used when the user does not pin a value for a specialization point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SelectionPolicy {
    /// Pick the best-performing available option (vendor libraries, newest SIMD, GPU on).
    #[default]
    BestAvailable,
    /// Pick the most conservative option (portable SIMD, no GPU) — used in tests and as a
    /// stand-in for the "performance-oblivious" choice.
    Conservative,
}

/// One `sd-compile` of a source deployment, by index into the plan's configured
/// build: its source, and every compile command sharing its
/// [`SdCompilePlanner::identity`] (two targets can compile the same file with the
/// same flags), which its object file serves.
struct SourceUnit {
    source: usize,
    flags: CompileFlags,
    commands: Vec<usize>,
}

/// The plan phase of one source deployment (Figure 6's discovery → intersection →
/// selection → configure): everything validated and owned, but no graph built yet.
/// [`plan_source_deploy`], [`graft_source_deploy`] and [`finish_source_deploy`] are
/// the three phases of an IR deployment ([`crate::deploy`]), driven by
/// [`SourceDeployRequest`](crate::orchestrator::SourceDeployRequest).
pub(crate) struct SourceDeployPlan<'a> {
    project: &'a ProjectSpec,
    source_image: &'a Image,
    system: &'a SystemModel,
    assignment: OptionAssignment,
    intersection: CommonSpecialization,
    build_profile: BuildProfile,
    notes: Vec<String>,
    target: TargetIsa,
    compiler: Compiler,
    build: ConfiguredBuild,
    units: Vec<SourceUnit>,
    reference: String,
    assembled: LinkSlot<Image>,
}

/// Select and configure one source deployment, serially (both are cheap and
/// inherently sequential), and plan one [`SourceUnit`] per distinct `sd-compile`
/// of the configured build.
pub(crate) fn plan_source_deploy<'a>(
    project: &'a ProjectSpec,
    source_image: &'a Image,
    system: &'a SystemModel,
    preferences: &OptionAssignment,
    policy: SelectionPolicy,
) -> Result<SourceDeployPlan<'a>, SourceContainerError> {
    if let Some(file) = crate::ir_container::unknown_target_source(project) {
        return Err(SourceContainerError::UnknownSource { file });
    }
    let mut notes = Vec::new();

    // 1. System discovery and feature intersection.
    let features = discover(system);
    let spec_points = from_project(project);
    let intersection = intersect(&spec_points, &features);

    // 2. Specialization selection: defaults → policy-driven choices → user preferences.
    let mut assignment = project.default_assignment();
    if policy == SelectionPolicy::BestAvailable {
        apply_best_available(project, system, &intersection, &mut assignment, &mut notes);
    }
    for (option, value) in preferences.iter() {
        if let Some(build_option) = project.option(option) {
            if !build_option.accepts(value) {
                return Err(SourceContainerError::UnsupportedPreference {
                    option: option.to_string(),
                    value: value.to_string(),
                    reason: "value is not offered by the build system".to_string(),
                });
            }
        }
        assignment.set(option, value);
    }

    // 3. Configure against the dependencies the system (plus the container layers) offers.
    let mut available: BTreeSet<String> = BTreeSet::new();
    available.extend([
        "mpich".to_string(),
        "fftw".to_string(),
        "openblas".to_string(),
        "opencl".to_string(),
    ]);
    for module in &system.modules {
        let name = module.name.to_ascii_lowercase();
        if name.contains("mkl") || name.contains("oneapi") {
            available.insert("mkl".into());
            available.insert("oneapi".into());
        }
        if name.contains("cuda") {
            available.insert("cuda".into());
        }
        if name.contains("rocm") {
            available.insert("rocm".into());
        }
        if module.kind == ModuleKind::Mpi {
            available.insert("mpich".into());
        }
    }
    let build = configure(project, &assignment, paths::BUILD_ROOT, Some(&available))?;

    // 4. The on-target build compiles every enabled translation unit for the
    //    selected SIMD level.
    let threads = system.cpu.total_cores().min(36);
    let mut build_profile = derive_build_profile(
        format!("XaaS Source ({})", system.name),
        &assignment,
        system,
        threads,
    )
    .with_container_overhead(1.01);
    if !system.cpu.supports(build_profile.simd) {
        notes.push(format!(
            "selected SIMD level {} unsupported on {}; falling back to the best supported level",
            build_profile.simd, system.name
        ));
        build_profile.simd = system.cpu.best_simd();
    }
    let target = target_isa_for(build_profile.simd);
    if let Some(base) = &system.recommended_base_image {
        notes.push(format!(
            "switching base image to operator-recommended {base}"
        ));
    }

    let mut units: Vec<SourceUnit> = Vec::new();
    let mut unit_by_identity: BTreeMap<String, usize> = BTreeMap::new();
    for (index, command) in build.compile_db.commands.iter().enumerate() {
        let source = build
            .enabled_sources
            .iter()
            .position(|s| s.path == command.file)
            .ok_or_else(|| SourceContainerError::UnknownSource {
                file: command.file.clone(),
            })?;
        let flags = command.flags();
        let identity = SdCompilePlanner::identity(&command.file, &flags, &target);
        let unit = *unit_by_identity.entry(identity).or_insert_with(|| {
            units.push(SourceUnit {
                source,
                flags,
                commands: Vec::new(),
            });
            units.len() - 1
        });
        units[unit].commands.push(index);
    }

    let reference = format!(
        "{}:{}-{}",
        project.name,
        system.name.to_ascii_lowercase(),
        assignment_tag(&assignment)
    );
    Ok(SourceDeployPlan {
        project,
        source_image,
        system,
        assignment,
        intersection,
        build_profile,
        notes,
        target,
        compiler: project_compiler(project),
        build,
        units,
        reference,
        assembled: LinkSlot::new(),
    })
}

/// Graft one planned source deployment onto `graph` as a self-contained subgraph
/// — the full on-target build of Figure 6 as a DAG, in **one** submission:
///
/// 1. **preprocess** (parallel): one deduplicated action per (file, definitions);
/// 2. **sd-compile** (parallel, cache-routed): the [`SdCompilePlanner`]'s node per
///    unit, so repeat deployments — including deployments of *other*
///    configurations whose flags do not change a unit — reuse the artifact;
/// 3. **link + commit**: assemble and commit the system-specialized image.
pub(crate) fn graft_source_deploy<'env>(
    plan: &'env SourceDeployPlan<'env>,
    graph: &mut ActionGraph<'env, SourceContainerError>,
    store: &'env ImageStore,
) {
    let lift = |file, error| SourceContainerError::Compile { file, error };
    let source_of = |unit: &SourceUnit| &plan.build.enabled_sources[unit.source];
    // Preprocess nodes first, in unit order: all preprocess records precede the
    // compile records.
    let mut sd_compile = SdCompilePlanner::new(&plan.compiler, &plan.target);
    let preprocess_actions: Vec<ActionId> = plan
        .units
        .iter()
        .map(|unit| sd_compile.preprocess_for(graph, source_of(unit), &unit.flags, lift))
        .collect();
    let standalone = &mut SharedDeployArtifacts::default();
    let compile_actions: Vec<ActionId> = plan
        .units
        .iter()
        .zip(&preprocess_actions)
        .map(|(unit, &preprocess)| {
            let source = source_of(unit);
            sd_compile.action_for(graph, standalone, preprocess, source, &unit.flags, lift)
        })
        .collect();

    let reference = plan.reference.as_str();
    let link_action = graph.add(
        ActionKind::Link,
        format!("{reference} image"),
        &compile_actions,
        move |inputs| {
            // The cached bytes *are* the canonical object serialisation; decode
            // only to validate them before shipping.
            for (index, unit) in plan.units.iter().enumerate() {
                serde_json::from_slice::<MachineModule>(inputs.dep(index)).map_err(|e| {
                    let file = &source_of(unit).path;
                    SourceContainerError::Cache(format!("machine module for {file}: {e}"))
                })?;
            }

            let (system, assignment) = (plan.system, &plan.assignment);
            let mut deployed = Image::derive_from(plan.source_image, reference);
            deployed.platform = Platform::linux(architecture_of(system));
            deployed.set_deployment_format(DeploymentFormat::Binary);
            deployed.annotate(annotation_keys::SELECTED_CONFIGURATION, assignment.label());
            deployed.annotate(annotation_keys::TARGET_SYSTEM, system.name.clone());
            let base_reference = system
                .recommended_base_image
                .as_ref()
                .unwrap_or(&plan.source_image.reference);
            deployed.annotate("dev.xaas.base-image", base_reference.clone());

            let mut build_layer = Layer::new(format!("RUN xmake build ({})", assignment.label()));
            for (index, unit) in plan.units.iter().enumerate() {
                for &command in &unit.commands {
                    // Configured under `paths::BUILD_ROOT`: `<root>/<target>/<file>.o`.
                    let object = &plan.build.compile_db.commands[command].output;
                    build_layer.add_file(object.clone(), inputs.dep_blob(index).clone());
                }
            }
            for target_spec in &plan.project.targets {
                build_layer.add_executable(
                    format!("{}/bin/{}", paths::INSTALL_ROOT, target_spec.name),
                    format!("linked for {} ({})", system.name, plan.target.name).into_bytes(),
                );
            }
            deployed.push_layer(build_layer);
            plan.assembled.put(deployed);
            Ok(Vec::new())
        },
    );
    add_commit_action(
        graph,
        format!("{reference} commit"),
        store,
        &plan.assembled,
        |image| image,
        link_action,
    );
}

/// The finish phase: consume the plan after its subgraph ran, returning the
/// [`SourceDeployment`] carrying the run's `trace`.
pub(crate) fn finish_source_deploy(
    plan: SourceDeployPlan<'_>,
    trace: ActionTrace,
) -> SourceDeployment {
    SourceDeployment {
        image: plan.assembled.into_inner().expect("link action ran"),
        reference: plan.reference,
        assignment: plan.assignment,
        intersection: plan.intersection,
        compiled_units: plan.build.compile_db.commands.len(),
        build_profile: plan.build_profile,
        notes: plan.notes,
        actions: trace.summary(),
        trace,
    }
}

/// Choose the best available value for each specialization point (the automatic part of
/// "the user selects the best fit from the available options").
fn apply_best_available(
    project: &ProjectSpec,
    system: &SystemModel,
    intersection: &CommonSpecialization,
    assignment: &mut OptionAssignment,
    notes: &mut Vec<String>,
) {
    for option in &project.options {
        match option.category {
            OptionCategory::GpuBackend => {
                let preferred =
                    xaas_apps::preferred_gpu_backend(system).map(|b| b.as_str().to_string());
                let choices = intersection.choices(SpecCategory::GpuBackend);
                let selected = preferred
                    .filter(|p| {
                        choices.iter().any(|c| c.eq_ignore_ascii_case(p)) && option.accepts(p)
                    })
                    .or_else(|| {
                        choices
                            .iter()
                            .find(|c| option.accepts(c))
                            .map(|c| c.to_string())
                    });
                match selected {
                    Some(value) => {
                        assignment.set(option.name.clone(), value);
                    }
                    None => {
                        assignment.set(option.name.clone(), option.default_value());
                        notes.push(format!(
                            "no usable GPU backend on {}; staying CPU-only",
                            system.name
                        ));
                    }
                }
            }
            OptionCategory::Vectorization => {
                let best = system.cpu.best_simd();
                if option.accepts(best.gmx_name()) {
                    assignment.set(option.name.clone(), best.gmx_name());
                } else if option.accepts("ON") && best != SimdLevel::None {
                    assignment.set(option.name.clone(), "ON");
                }
            }
            OptionCategory::Fft | OptionCategory::LinearAlgebra => {
                let vendor_available = system.has_vendor_blas()
                    || system
                        .modules
                        .iter()
                        .any(|m| m.name.to_ascii_lowercase().contains("mkl"));
                let pick = if vendor_available && option.accepts("mkl") {
                    Some("mkl")
                } else if option.accepts("fftw3") {
                    Some("fftw3")
                } else if option.accepts("openblas") {
                    Some("openblas")
                } else {
                    None
                };
                if let Some(value) = pick {
                    assignment.set(option.name.clone(), value);
                }
            }
            OptionCategory::Parallelism => {
                let is_real_mpi = option.name.to_ascii_uppercase().contains("MPI")
                    && !option.name.to_ascii_uppercase().contains("THREAD");
                if is_real_mpi {
                    let mpi_ok = system.module_of_kind(ModuleKind::Mpi).is_some()
                        && system.container_runtime.mpi_functional();
                    let value = if mpi_ok { "ON" } else { "OFF" };
                    if !mpi_ok {
                        notes.push(format!(
                            "MPI not functional under {} on {}; using thread-MPI",
                            system.container_runtime, system.name
                        ));
                    }
                    assignment.set(option.name.clone(), value);
                }
            }
            _ => {}
        }
    }
}

/// A short tag derived from an assignment, usable in image references.
fn assignment_tag(assignment: &OptionAssignment) -> String {
    let label = assignment.label().to_ascii_lowercase();
    let mut tag: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    tag.truncate(48);
    tag.trim_matches('-').to_string()
}

/// The container platform architecture of a system.
pub fn architecture_of(system: &SystemModel) -> Architecture {
    match system.cpu.family {
        xaas_hpcsim::IsaFamily::Aarch64 => Architecture::Arm64,
        _ => Architecture::Amd64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::{Orchestrator, SourceDeployRequest};
    use xaas_apps::gromacs;

    /// Old free-function shape, routed through the orchestrator (uncached).
    fn deploy_source(
        project: &ProjectSpec,
        source_image: &Image,
        system: &SystemModel,
        preferences: &OptionAssignment,
        policy: SelectionPolicy,
        store: &ImageStore,
    ) -> Result<SourceDeployment, SourceContainerError> {
        SourceDeployRequest::new(project, source_image, system)
            .preferences(preferences.clone())
            .selection_policy(policy)
            .submit(&Orchestrator::uncached(store))
    }

    fn setup() -> (ProjectSpec, ImageStore, Image) {
        let project = gromacs::project();
        let store = ImageStore::new();
        let image = build_source_container(
            &project,
            Architecture::Amd64,
            &store,
            "spcl/mini-gromacs:src-x86",
        );
        (project, store, image)
    }

    #[test]
    fn source_container_carries_sources_toolchain_and_annotations() {
        let (project, store, image) = setup();
        assert_eq!(image.deployment_format(), DeploymentFormat::Source);
        let root = image.rootfs();
        assert!(root.get(paths::COMPILER).is_some());
        assert!(root
            .read_text(paths::BUILD_SCRIPT)
            .unwrap()
            .contains("mini-gromacs"));
        assert!(root
            .get(&format!("{}/src/mdrun/nonbonded.ck", paths::SOURCE_ROOT))
            .is_some());
        let annotation = &image.annotations[annotation_keys::SPECIALIZATION_POINTS];
        assert!(annotation.contains("gpu_backends"));
        assert!(store.load("spcl/mini-gromacs:src-x86").is_ok());
        assert_eq!(project.source_count(), 13);
    }

    #[test]
    fn deployment_on_ault23_selects_cuda_avx512_and_mkl() {
        let (project, store, image) = setup();
        let system = SystemModel::ault23();
        let deployment = deploy_source(
            &project,
            &image,
            &system,
            &OptionAssignment::new(),
            SelectionPolicy::BestAvailable,
            &store,
        )
        .unwrap();
        assert_eq!(deployment.assignment.get("GMX_GPU"), Some("CUDA"));
        assert_eq!(deployment.assignment.get("GMX_SIMD"), Some("AVX_512"));
        assert_eq!(deployment.assignment.get("GMX_FFT_LIBRARY"), Some("mkl"));
        assert!(deployment.compiled_units > 8);
        assert!(deployment.build_profile.gpu_backend.is_some());
        // The deployed image is a new, system-specific image in the store.
        assert!(store.load(&deployment.reference).is_ok());
        assert_ne!(deployment.image.reference, image.reference);
        assert_eq!(
            deployment.image.annotations[annotation_keys::TARGET_SYSTEM],
            "Ault23"
        );
    }

    #[test]
    fn deployment_on_clariden_is_arm_with_neon() {
        let (project, store, image) = setup();
        let system = SystemModel::clariden();
        let deployment = deploy_source(
            &project,
            &image,
            &system,
            &OptionAssignment::new(),
            SelectionPolicy::BestAvailable,
            &store,
        )
        .unwrap();
        assert_eq!(
            deployment.assignment.get("GMX_SIMD"),
            Some("ARM_NEON_ASIMD")
        );
        assert_eq!(deployment.image.platform.architecture, Architecture::Arm64);
        assert_eq!(deployment.assignment.get("GMX_GPU"), Some("CUDA"));
    }

    #[test]
    fn aurora_switches_base_image_and_disables_real_mpi() {
        let (project, store, image) = setup();
        let system = SystemModel::aurora();
        let deployment = deploy_source(
            &project,
            &image,
            &system,
            &OptionAssignment::new(),
            SelectionPolicy::BestAvailable,
            &store,
        )
        .unwrap();
        assert!(
            deployment.notes.iter().any(|n| n.contains("oneapi")),
            "{:?}",
            deployment.notes
        );
        assert!(deployment.notes.iter().any(|n| n.contains("thread-MPI")));
        assert_eq!(deployment.assignment.get("GMX_MPI"), Some("OFF"));
        assert_eq!(deployment.assignment.get("GMX_GPU"), Some("SYCL"));
    }

    #[test]
    fn user_preferences_override_the_policy_but_are_validated() {
        let (project, store, image) = setup();
        let system = SystemModel::ault23();
        let preference = OptionAssignment::new().with("GMX_FFT_LIBRARY", "fftw3");
        let deployment = deploy_source(
            &project,
            &image,
            &system,
            &preference,
            SelectionPolicy::BestAvailable,
            &store,
        )
        .unwrap();
        assert_eq!(deployment.assignment.get("GMX_FFT_LIBRARY"), Some("fftw3"));

        let bad = OptionAssignment::new().with("GMX_SIMD", "AVX_9000");
        let error = deploy_source(
            &project,
            &image,
            &system,
            &bad,
            SelectionPolicy::BestAvailable,
            &store,
        )
        .unwrap_err();
        assert!(matches!(
            error,
            SourceContainerError::UnsupportedPreference { .. }
        ));
    }

    /// Link's validation decode: an undecodable `sd-compile` entry (action-cache
    /// corruption) fails the deployment naming the file, before anything is committed.
    #[test]
    fn a_poisoned_sd_compile_entry_is_a_cache_error_and_commits_nothing() {
        let (project, store, image) = setup();
        let system = SystemModel::ault23();
        let cache = xaas_container::ActionCache::new(store.clone());
        let preferences = OptionAssignment::new();
        let policy = SelectionPolicy::BestAvailable;
        let plan = plan_source_deploy(&project, &image, &system, &preferences, policy).unwrap();
        let unit = &plan.units[1];
        let source = &plan.build.enabled_sources[unit.source];
        let digest = plan
            .compiler
            .preprocess_only(&source.path, &source.content, &unit.flags)
            .unwrap()
            .content_digest();
        cache.insert(
            &SdCompilePlanner::key(&digest, &source.path, &unit.flags, &plan.target),
            b"not json".to_vec(),
        );

        let request = SourceDeployRequest::new(&project, &image, &system);
        match request.submit(&Orchestrator::with_cache(&cache)) {
            Err(SourceContainerError::Cache(detail)) => {
                assert!(detail.contains(&source.path), "{detail}")
            }
            other => panic!("expected SourceContainerError::Cache, got {other:?}"),
        }
        assert_eq!(store.references().len(), 1, "only the source image");
    }

    #[test]
    fn cpu_only_system_deploys_without_gpu() {
        let (project, store, image) = setup();
        let system = SystemModel::ault01_04();
        let deployment = deploy_source(
            &project,
            &image,
            &system,
            &OptionAssignment::new(),
            SelectionPolicy::BestAvailable,
            &store,
        )
        .unwrap();
        assert_eq!(deployment.assignment.get("GMX_GPU"), Some("OFF"));
        assert!(deployment.build_profile.gpu_backend.is_none());
        assert!(deployment.notes.iter().any(|n| n.contains("CPU-only")));
    }
}
