//! XaaS source containers (Section 4.1).
//!
//! A source container ships the application source tree, its build instructions, and the
//! toolchain, annotated with the application's specialization points. Deployment happens
//! on the target system: system discovery, feature intersection, specialization
//! selection, and a full build of the selected configuration, producing a *new*,
//! system-specific image (Figure 6).

use crate::engine::{
    add_commit_action, ActionGraph, ActionId, ActionKind, ActionTrace, Engine, KeyedActionPlanner,
    LinkSlot, PreprocessPlanner,
};
use crate::ir_container::{ActionSummary, TOOLCHAIN_ID};
use crate::targets::{derive_build_profile, target_isa_for};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use xaas_buildsys::{configure, ConfigureError, OptionAssignment, OptionCategory, ProjectSpec};
use xaas_container::{
    annotation_keys, Architecture, BuildKey, DeploymentFormat, Image, ImageStore, Layer, Platform,
};
use xaas_hpcsim::{discover, BuildProfile, ModuleKind, SimdLevel, SystemModel};
use xaas_specs::{from_project, intersect, CommonSpecialization, SpecCategory};
use xaas_xir::{CompileFlags, Compiler, MachineModule};

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
    /// The orchestrator's scheduling policy is invalid (e.g. a zero concurrency cap).
    Policy(crate::engine::PolicyError),
    /// The pre-submission static analyzer rejected the build graph (deny-level
    /// diagnostics under [`AnalysisMode::Strict`](crate::engine::AnalysisMode));
    /// nothing executed.
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

/// Deploy a source container by constructing staged action graphs and submitting them
/// to `engine` (Figure 6 as a DAG; the driver behind
/// [`SourceDeployRequest`](crate::orchestrator::SourceDeployRequest)).
///
/// Selection and configuration run serially in the driver (they are cheap and
/// inherently sequential); the full on-target build then executes as two graphs:
/// **preprocess** every enabled translation unit in parallel, then **sd-compile** each
/// deduplicated unit (cache keys derive from the preprocessed-content digest, the
/// IR-relevant flags, and the target ISA, so repeat deployments — including
/// deployments of *other* configurations whose flags do not change a unit — reuse the
/// compiled artifact), and finally **link + commit** the system-specialized image.
pub(crate) fn run_source_deploy(
    project: &ProjectSpec,
    source_image: &Image,
    system: &SystemModel,
    preferences: &OptionAssignment,
    policy: SelectionPolicy,
    engine: &Engine,
) -> Result<SourceDeployment, SourceContainerError> {
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

    // 4. Build on the target: compile every enabled translation unit for the selected
    //    SIMD level and assemble the deployed image.
    let threads = system.cpu.total_cores().min(36);
    let build_profile = derive_build_profile(
        format!("XaaS Source ({})", system.name),
        &assignment,
        system,
        threads,
    )
    .with_container_overhead(1.01);
    let simd = if system.cpu.supports(build_profile.simd) {
        build_profile.simd
    } else {
        notes.push(format!(
            "selected SIMD level {} unsupported on {}; falling back to the best supported level",
            build_profile.simd, system.name
        ));
        system.cpu.best_simd()
    };
    let target = target_isa_for(simd);

    let mut compiler = Compiler::new();
    for (name, content) in &project.headers {
        compiler.add_header(name.clone(), content.clone());
    }

    let base_reference = match &system.recommended_base_image {
        Some(base) => {
            notes.push(format!(
                "switching base image to operator-recommended {base}"
            ));
            base.clone()
        }
        None => source_image.reference.clone(),
    };
    let reference = format!(
        "{}:{}-{}",
        project.name,
        system.name.to_ascii_lowercase(),
        assignment_tag(&assignment)
    );

    // ---- Graph A: preprocess every enabled translation unit, in parallel ----
    // Preprocessing depends only on (file, definition set); deduplicate across the
    // compile commands (two targets can compile the same file with the same flags).
    struct CommandPlan<'plan> {
        target: &'plan str,
        file: &'plan str,
        content: &'plan str,
        flags: CompileFlags,
        preprocess_action: ActionId,
    }
    let mut plans: Vec<CommandPlan<'_>> = Vec::new();
    let mut stage_a: ActionGraph<'_, SourceContainerError> = ActionGraph::new();
    let mut preprocess = PreprocessPlanner::new();
    for command in &build.compile_db.commands {
        let source = build
            .enabled_sources
            .iter()
            .find(|s| s.path == command.file)
            .ok_or_else(|| SourceContainerError::UnknownSource {
                file: command.file.clone(),
            })?;
        let flags = CompileFlags::parse(command.arguments.iter().cloned());
        // The preprocess output is the *preprocessed-content* digest (the cache
        // contract): it folds in the headers the compiler resolves, so caches shared
        // across projects can never serve code built against different header
        // definitions.
        let preprocess_action = preprocess.action_for(
            &mut stage_a,
            &compiler,
            &command.file,
            &source.content,
            &flags,
            |file, error| SourceContainerError::Compile { file, error },
        );
        plans.push(CommandPlan {
            target: command.target.as_str(),
            file: command.file.as_str(),
            content: source.content.as_str(),
            flags,
            preprocess_action,
        });
    }
    engine.preflight(&stage_a)?;
    let run_a = engine.run(stage_a);
    let (outputs_a, mut trace) = run_a.into_outputs()?;

    // ---- Graph B: compile each deduplicated unit, then link + commit ----
    // Declared before the graph: its closures borrow these.
    let assembled: LinkSlot<Image> = LinkSlot::new();
    // Per-command position of its compile action among the planned ones (identical
    // BuildKeys share one action — the KeyedActionPlanner enforces the graph's
    // one-node-per-key contract).
    let mut command_positions: Vec<usize> = Vec::with_capacity(plans.len());
    // One representative source file per compile action (for decode error messages).
    let mut representative_files: Vec<&str> = Vec::new();
    let mut stage_b: ActionGraph<'_, SourceContainerError> = ActionGraph::new();
    let mut compile_plan = KeyedActionPlanner::new();
    for plan in &plans {
        let digest = String::from_utf8_lossy(&outputs_a[plan.preprocess_action]).into_owned();
        let key = BuildKey::new(
            digest,
            &target.name,
            format!("file={};{}", plan.file, plan.flags.ir_relevant_key()),
            TOOLCHAIN_ID,
        );
        let compiler = &compiler;
        let target = &target;
        let (file, content, flags) = (plan.file, plan.content, &plan.flags);
        let position = compile_plan.position_for(&mut stage_b, key, |graph, key| {
            graph.add_cached(
                ActionKind::SdCompile,
                file.to_string(),
                key,
                &[],
                move |_| {
                    let machine = compiler
                        .compile_to_machine(file, content, flags, target)
                        .map_err(|error| SourceContainerError::Compile {
                            file: file.to_string(),
                            error,
                        })?;
                    Ok(serde_json::to_vec(&machine).expect("machine module serialises"))
                },
            )
        });
        if position == representative_files.len() {
            representative_files.push(plan.file);
        }
        command_positions.push(position);
    }
    let compile_actions = compile_plan.into_actions();

    let link_action = {
        let assembled = &assembled;
        let plans = &plans;
        let command_positions = &command_positions;
        let representative_files = &representative_files;
        let reference = reference.as_str();
        let assignment = &assignment;
        let target = &target;
        stage_b.add(
            ActionKind::Link,
            format!("{reference} image"),
            &compile_actions,
            move |inputs| {
                // The cached bytes *are* the canonical object serialisation; decode
                // only to validate them before shipping.
                for (position, file) in representative_files.iter().enumerate() {
                    serde_json::from_slice::<MachineModule>(inputs.dep(position)).map_err(|e| {
                        SourceContainerError::Cache(format!("machine module for {file}: {e}"))
                    })?;
                }

                let mut deployed = Image::derive_from(source_image, reference);
                deployed.platform = Platform::linux(architecture_of(system));
                deployed.set_deployment_format(DeploymentFormat::Binary);
                deployed.annotate(annotation_keys::SELECTED_CONFIGURATION, assignment.label());
                deployed.annotate(annotation_keys::TARGET_SYSTEM, system.name.clone());
                deployed.annotate("dev.xaas.base-image", base_reference);

                let mut build_layer =
                    Layer::new(format!("RUN xmake build ({})", assignment.label()));
                for (plan, &position) in plans.iter().zip(command_positions) {
                    build_layer.add_file(
                        format!(
                            "{}/{}/{}.o",
                            paths::BUILD_ROOT,
                            plan.target,
                            plan.file.replace('/', "_")
                        ),
                        inputs.dep_blob(position).clone(),
                    );
                }
                for target_spec in &project.targets {
                    build_layer.add_executable(
                        format!("{}/bin/{}", paths::INSTALL_ROOT, target_spec.name),
                        format!("linked for {} ({})", system.name, target.name).into_bytes(),
                    );
                }
                deployed.push_layer(build_layer);
                assembled.put(deployed);
                Ok(Vec::new())
            },
        )
    };
    add_commit_action(
        &mut stage_b,
        format!("{reference} commit"),
        engine.store(),
        &assembled,
        |image| image,
        link_action,
    );

    engine.preflight(&stage_b)?;
    let run_b = engine.run(stage_b);
    let (_, trace_b) = run_b.into_outputs()?;
    trace.merge(trace_b);
    let deployed = assembled.into_inner().expect("link action ran");
    let compiled_units = plans.len();

    let mut final_profile = build_profile;
    final_profile.simd = simd;
    let actions = trace.summary();
    Ok(SourceDeployment {
        image: deployed,
        reference,
        assignment,
        intersection,
        compiled_units,
        build_profile: final_profile,
        notes,
        actions,
        trace,
    })
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
