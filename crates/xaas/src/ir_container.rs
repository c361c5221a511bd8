//! XaaS IR containers: the deduplicating build pipeline of Figure 7.
//!
//! The pipeline sweeps the requested specialization points, configures each combination
//! in a pinned (containerised) build directory, and then decides which translation units
//! genuinely differ between configurations:
//!
//! 1. **Generation** — exact compile-command identity (after normalising the build
//!    directory out of include paths);
//! 2. **Preprocessing** — hash of the preprocessed source: definitions that do not change
//!    the token stream do not create new units;
//! 3. **OpenMP detection** — units that differ only in `-fopenmp` collapse when the file
//!    contains no OpenMP constructs (AST check);
//! 4. **Vectorization delay** — ISA/tuning flags are dropped from the identity and applied
//!    only at deployment.
//!
//! MPI-dependent files are *system-dependent* (`S_D`, Definition 2) and are shipped as
//! source instead of IR. Everything else (`S_I`) is compiled once per unique identity and
//! stored as XIR bitcode in the image.

use crate::engine::{
    add_commit_action, ActionGraph, ActionId, ActionKind, ActionTrace, Engine, KeyedActionPlanner,
    LinkSlot, PreprocessPlanner,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use xaas_buildsys::{configure, ConfigureError, OptionAssignment, ProjectSpec};
use xaas_container::{
    annotation_keys, Architecture, Blob, BuildKey, DeploymentFormat, Image, Layer, Platform,
};
use xaas_specs::from_project;
use xaas_xir::{bitcode, CompileFlags, Compiler, IrModule};

pub use crate::engine::ActionSummary;

/// Toolchain identifier pinned into every [`BuildKey`] the pipeline derives. A toolchain
/// upgrade must change this constant so stale cache entries can never be served.
pub const TOOLCHAIN_ID: &str = "xirc-19/xir.v1";

/// The pseudo-target used in build keys while producing target-*independent* IR (the
/// concrete ISA name is used only for deployment-time lowering).
pub const IR_TARGET: &str = "xir.ir";

/// Which stages of the dedup pipeline are enabled (all on by default; the ablation
/// benchmarks switch individual stages off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStages {
    /// Normalise the build directory out of compile commands.
    pub normalize_build_dir: bool,
    /// Deduplicate on preprocessed content hashes.
    pub preprocessing: bool,
    /// Collapse `-fopenmp`-only differences for OpenMP-free files.
    pub openmp_detection: bool,
    /// Drop ISA/tuning flags from the identity (vectorization delay).
    pub vectorization_delay: bool,
}

impl Default for PipelineStages {
    fn default() -> Self {
        Self {
            normalize_build_dir: true,
            preprocessing: true,
            openmp_detection: true,
            vectorization_delay: true,
        }
    }
}

/// Configuration of an IR-container build.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IrPipelineConfig {
    /// The specialization points to sweep: option name → values to enumerate. Options not
    /// listed stay at their defaults.
    pub sweep: Vec<(String, Vec<String>)>,
    /// The pinned build directory mounted identically in every configuration container.
    pub build_dir: String,
    /// Stage switches.
    pub stages: PipelineStages,
    /// Apply aggressive scalar optimisation *before* storing IR (the harmful early
    /// optimisation the paper warns about; off by default, used by the ablation bench).
    pub optimize_early: bool,
}

impl IrPipelineConfig {
    /// Sweep the given options with all their values.
    pub fn sweep_options(project: &ProjectSpec, options: &[&str]) -> Self {
        let sweep = options
            .iter()
            .filter_map(|name| {
                project
                    .option(name)
                    .map(|o| (o.name.clone(), o.value_names()))
            })
            .collect();
        Self {
            sweep,
            build_dir: "/xaas/build".to_string(),
            stages: PipelineStages::default(),
            optimize_early: false,
        }
    }

    /// Restrict an option to a subset of values.
    pub fn with_values(mut self, option: &str, values: &[&str]) -> Self {
        for entry in &mut self.sweep {
            if entry.0 == option {
                entry.1 = values.iter().map(|v| v.to_string()).collect();
            }
        }
        self
    }
}

/// Counters describing the deduplication result (the Section 6.4 statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Number of build configurations generated.
    pub configurations: usize,
    /// Translation units summed over all configurations (ΣTᵢ of Hypothesis 1).
    pub total_translation_units: usize,
    /// Unique units after stage 1 (exact command identity).
    pub unique_after_generation: usize,
    /// Unique units after stage 2 (preprocessed-content identity).
    pub unique_after_preprocessing: usize,
    /// Unique units after stage 3 (OpenMP-irrelevance merging).
    pub unique_after_openmp: usize,
    /// Unique units after stage 4 (vectorization delay) — the IR files actually built (T′).
    pub unique_after_vectorization: usize,
    /// System-dependent translation units shipped as source (S_D occurrences).
    pub system_dependent_units: usize,
    /// Distinct system-dependent source files.
    pub system_dependent_files: usize,
    /// Distinct system-independent source files.
    pub system_independent_files: usize,
}

impl PipelineStats {
    /// The final number of IR files built.
    pub fn ir_files_built(&self) -> usize {
        self.unique_after_vectorization
    }

    /// Reduction relative to building every configuration separately, in percent.
    pub fn reduction_percent(&self) -> f64 {
        if self.total_translation_units == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.ir_files_built() as f64 / self.total_translation_units as f64)
    }

    /// Fraction of unit pairs whose flags were incompatible before normalisation — the
    /// paper reports 96% caused by build-directory include paths.
    pub fn generation_share(&self) -> f64 {
        if self.total_translation_units == 0 {
            return 0.0;
        }
        self.unique_after_generation as f64 / self.total_translation_units as f64
    }
}

/// The identity of one translation unit inside one configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitAssignment {
    /// Target the unit belongs to.
    pub target: String,
    /// Source file path.
    pub file: String,
    /// Either `ir:<content-id>` (system-independent) or `src:<path>` (system-dependent,
    /// compiled at deployment).
    pub artifact: String,
}

/// One build configuration's manifest stored inside the IR container.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigurationManifest {
    /// Stable label (sorted `option=value` list).
    pub label: String,
    /// The option assignment.
    pub assignment: OptionAssignment,
    /// The configure command that reproduces the configuration.
    pub configure_command: String,
    /// Global definitions of the configuration.
    pub definitions: Vec<String>,
    /// Dependencies (container layers) the configuration needs at deployment.
    pub dependencies: Vec<String>,
    /// Per-unit artifacts.
    pub units: Vec<UnitAssignment>,
    /// Non-target compile flags of the configuration (optimisation level, OpenMP, …)
    /// that deployment-time compiles of system-dependent sources must honor.
    pub compile_flags: Vec<String>,
    /// ISA/tuning flags that were delayed and must be applied at deployment.
    pub delayed_flags: Vec<String>,
}

/// A deduplicated IR unit stored in the container.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrUnit {
    /// Content identity (hex of the bitcode hash).
    pub id: String,
    /// Source file the unit was produced from.
    pub source_file: String,
    /// Whether `-fopenmp` was in effect when producing this unit.
    pub openmp: bool,
    /// The IR module.
    pub module: IrModule,
}

/// The result of building an IR container.
#[derive(Debug, Clone)]
pub struct IrContainerBuild {
    /// The committed image.
    pub image: Image,
    /// Reference the image was committed under.
    pub reference: String,
    /// Dedup statistics.
    pub stats: PipelineStats,
    /// Per-configuration manifests.
    pub manifests: Vec<ConfigurationManifest>,
    /// The deduplicated IR units keyed by content id.
    pub units: BTreeMap<String, IrUnit>,
    /// Compile actions executed vs served from the action cache during this build.
    pub actions: ActionSummary,
    /// The full, deterministic action trace of the build (preprocess through commit).
    pub trace: ActionTrace,
}

impl IrContainerBuild {
    /// Find a configuration manifest by assignment.
    pub fn manifest_for(&self, assignment: &OptionAssignment) -> Option<&ConfigurationManifest> {
        let label = assignment.label();
        self.manifests
            .iter()
            .find(|m| m.label == label)
            .or_else(|| {
                self.manifests.iter().find(|m| {
                    assignment
                        .iter()
                        .all(|(k, v)| m.assignment.get(k) == Some(v))
                })
            })
    }
}

/// Errors from the IR pipeline.
#[derive(Debug)]
#[allow(missing_docs)] // variant payload fields are documented by the Display impl
pub enum IrPipelineError {
    /// A configuration could not be generated.
    Configure(ConfigureError),
    /// Compilation of a representative unit failed.
    Compile {
        file: String,
        error: xaas_xir::CompileError,
    },
    /// The sweep referenced an unknown option.
    UnknownOption(String),
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

impl fmt::Display for IrPipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrPipelineError::Configure(e) => write!(f, "configure: {e}"),
            IrPipelineError::Compile { file, error } => write!(f, "compiling {file}: {error}"),
            IrPipelineError::UnknownOption(name) => {
                write!(f, "sweep references unknown option {name}")
            }
            IrPipelineError::UnknownSource { file } => {
                write!(
                    f,
                    "compile database references {file}, which is not an enabled source"
                )
            }
            IrPipelineError::Cache(detail) => write!(f, "action cache: {detail}"),
            IrPipelineError::Policy(error) => write!(f, "{error}"),
            IrPipelineError::Analysis(report) => write!(f, "graph rejected by analysis: {report}"),
            IrPipelineError::Engine(fault) => write!(f, "executor fault: {fault}"),
        }
    }
}

impl std::error::Error for IrPipelineError {}

impl From<ConfigureError> for IrPipelineError {
    fn from(value: ConfigureError) -> Self {
        IrPipelineError::Configure(value)
    }
}

impl From<crate::engine::GraphRunError<IrPipelineError>> for IrPipelineError {
    fn from(value: crate::engine::GraphRunError<IrPipelineError>) -> Self {
        match value.into_action() {
            Ok(error) => error,
            Err(fault) => IrPipelineError::Engine(fault),
        }
    }
}

impl From<Box<crate::engine::AnalysisReport>> for IrPipelineError {
    fn from(value: Box<crate::engine::AnalysisReport>) -> Self {
        IrPipelineError::Analysis(value)
    }
}

/// Paths used inside IR containers.
pub mod paths {
    /// Root of the IR blobs.
    pub const IR_ROOT: &str = "/xaas/ir";
    /// Root of the per-configuration manifests.
    pub const CONFIG_ROOT: &str = "/xaas/configs";
    /// Source tree (needed for system-dependent files and installation).
    pub const SOURCE_ROOT: &str = "/xaas/src";
    /// Pipeline statistics document.
    pub const STATS: &str = "/xaas/stats.json";
}

/// Enumerate the cartesian product of the sweep.
fn enumerate_assignments(
    project: &ProjectSpec,
    config: &IrPipelineConfig,
) -> Result<Vec<OptionAssignment>, IrPipelineError> {
    let mut assignments = vec![OptionAssignment::new()];
    for (name, values) in &config.sweep {
        if project.option(name).is_none() {
            return Err(IrPipelineError::UnknownOption(name.clone()));
        }
        let mut next = Vec::with_capacity(assignments.len() * values.len());
        for assignment in &assignments {
            for value in values {
                next.push(assignment.clone().with(name.clone(), value.clone()));
            }
        }
        assignments = next;
    }
    Ok(assignments)
}

/// One system-independent translation-unit occurrence discovered during configuration
/// (the driver's plan entry between the configure stage and the preprocess stage).
struct TuOccurrence {
    config_index: usize,
    target: String,
    file: String,
    /// Source text, shared per file across configurations (copied once per file).
    content: std::sync::Arc<str>,
    flags: CompileFlags,
    generation_key: String,
    /// Index of this unit's preprocess action in the stage-A graph.
    preprocess_action: ActionId,
    /// Index of this unit's OpenMP-detection action, when one was scheduled.
    openmp_action: Option<ActionId>,
}

/// Every source path the project can legitimately compile: declared sources plus
/// custom-target products. A target referencing anything else is malformed — the
/// drivers surface it as a typed `UnknownSource` error instead of silently skipping
/// the unit.
pub(crate) fn unknown_target_source(project: &ProjectSpec) -> Option<String> {
    let known: BTreeSet<&str> = project
        .sources
        .iter()
        .map(|s| s.path.as_str())
        .chain(project.custom_targets.iter().map(|c| c.generates.as_str()))
        .collect();
    project
        .targets
        .iter()
        .flat_map(|target| &target.sources)
        .find(|path| !known.contains(path.as_str()))
        .cloned()
}

/// One (target, source file, dedup key) triple per translation unit of a
/// configuration.
type UnitKeys = Vec<(String, String, String)>;

/// The serial stage-1 plan: the stage-A action graph (preprocess + OpenMP
/// detection, deduplicated across configurations) plus the bookkeeping the
/// later serial stages fold over. Building it runs no actions — this is the
/// graph [`analyze_ir_build`] lints without executing anything.
pub(crate) struct IrBuildStageA<'env> {
    pub(crate) graph: ActionGraph<'env, IrPipelineError>,
    stats: PipelineStats,
    manifests: Vec<ConfigurationManifest>,
    sd_files: BTreeSet<String>,
    si_files: BTreeSet<String>,
    unit_key_by_config: Vec<UnitKeys>,
    occurrences: Vec<TuOccurrence>,
}

/// The compiler every build and deployment action closes over: `project`'s headers
/// loaded.
pub(crate) fn project_compiler(project: &ProjectSpec) -> Compiler {
    let mut compiler = Compiler::new();
    for (name, content) in &project.headers {
        compiler.add_header(name.clone(), content.clone());
    }
    compiler
}

/// Stage 1 (driver, serial): configure every assignment, classify its units,
/// and plan the deduplicated stage-A graph. `compiler` must outlive the graph —
/// the planned preprocess/OpenMP actions borrow it.
pub(crate) fn plan_ir_build_stage_a<'env>(
    project: &ProjectSpec,
    config: &IrPipelineConfig,
    compiler: &'env Compiler,
) -> Result<IrBuildStageA<'env>, IrPipelineError> {
    if let Some(file) = unknown_target_source(project) {
        return Err(IrPipelineError::UnknownSource { file });
    }
    let assignments = enumerate_assignments(project, config)?;

    let mut stats = PipelineStats {
        configurations: assignments.len(),
        ..Default::default()
    };
    let mut manifests: Vec<ConfigurationManifest> = Vec::new();
    let mut sd_files: BTreeSet<String> = BTreeSet::new();
    let mut si_files: BTreeSet<String> = BTreeSet::new();
    let mut unit_key_by_config: Vec<UnitKeys> = Vec::new();
    let mut occurrences: Vec<TuOccurrence> = Vec::new();
    // Source text shared per file: every configuration re-lists the same content.
    let mut content_by_file: BTreeMap<String, std::sync::Arc<str>> = BTreeMap::new();

    let mut stage_a: ActionGraph<'env, IrPipelineError> = ActionGraph::new();
    // Preprocessing and OpenMP detection depend only on (file, definition set):
    // deduplicate the actions across configurations so the graph does each distinct
    // piece of work once.
    let mut preprocess = PreprocessPlanner::new();
    let mut openmp_actions: BTreeMap<(String, String), ActionId> = BTreeMap::new();
    for (config_index, assignment) in assignments.iter().enumerate() {
        let build = configure(project, assignment, &config.build_dir, None)?;
        let mut per_config_units: UnitKeys = Vec::new();
        for command in &build.compile_db.commands {
            stats.total_translation_units += 1;
            let source = build
                .enabled_sources
                .iter()
                .find(|s| s.path == command.file)
                .ok_or_else(|| IrPipelineError::UnknownSource {
                    file: command.file.clone(),
                })?;
            let is_system_dependent = source.required_tags.iter().any(|t| t == "mpi");
            if is_system_dependent {
                stats.system_dependent_units += 1;
                sd_files.insert(source.path.clone());
                per_config_units.push((
                    command.target.clone(),
                    command.file.clone(),
                    format!("src:{}", command.file),
                ));
                continue;
            }
            si_files.insert(source.path.clone());
            let content = content_by_file
                .entry(source.path.clone())
                .or_insert_with(|| std::sync::Arc::from(source.content.as_str()))
                .clone();

            let flags = command.flags();
            let generation_key = command.canonical_key(config.stages.normalize_build_dir);
            let dedup_key = PreprocessPlanner::identity(&command.file, &flags);

            let preprocess_action = preprocess.action_for(
                &mut stage_a,
                compiler,
                &command.file,
                &content,
                &flags,
                |file, error| IrPipelineError::Compile { file, error },
            );
            // OpenMP detection only matters for units carrying `-fopenmp`: units
            // without it can never have OpenMP in effect, whatever the AST says.
            let openmp_action = if config.stages.openmp_detection && flags.openmp {
                Some(match openmp_actions.get(&dedup_key) {
                    Some(&id) => id,
                    None => {
                        let file = command.file.clone();
                        let content = content.clone();
                        let flags = flags.clone();
                        let id = stage_a.add(
                            ActionKind::OpenMpDetect,
                            command.file.clone(),
                            &[],
                            move |_| {
                                // Analysis failures conservatively keep OpenMP in the
                                // identity (matching the historical behaviour).
                                let matters = compiler
                                    .openmp_report(&file, &content, &flags)
                                    .map(|r| r.uses_openmp())
                                    .unwrap_or(true);
                                Ok(vec![u8::from(matters)])
                            },
                        );
                        openmp_actions.insert(dedup_key, id);
                        id
                    }
                })
            } else {
                None
            };
            occurrences.push(TuOccurrence {
                config_index,
                target: command.target.clone(),
                file: command.file.clone(),
                content,
                flags,
                generation_key,
                preprocess_action,
                openmp_action,
            });
        }
        unit_key_by_config.push(per_config_units);
        let mut common_flags: Vec<String> = project.global_flags.clone();
        common_flags.extend(build.compile_flags.iter().cloned());
        let (delayed_flags, compile_flags): (Vec<String>, Vec<String>) =
            common_flags.into_iter().partition(|f| f.starts_with("-m"));
        manifests.push(ConfigurationManifest {
            label: build.assignment.label(),
            assignment: build.assignment.clone(),
            configure_command: build.configure_command.clone(),
            definitions: build.definitions.clone(),
            dependencies: build.dependencies.clone(),
            units: Vec::new(),
            compile_flags,
            delayed_flags,
        });
    }

    Ok(IrBuildStageA {
        graph: stage_a,
        stats,
        manifests,
        sd_files,
        si_files,
        unit_key_by_config,
        occurrences,
    })
}

/// Run the pre-submission static analyzer over the build's stage-A graph
/// (preprocess + OpenMP detection) without executing anything. The stage-B
/// graph (ir-lower/link/commit) is derived from stage-A *outputs*, so it
/// cannot be constructed statically; its shape is a planner-generated
/// fan-in the same passes vet on submission.
pub(crate) fn analyze_ir_build(
    project: &ProjectSpec,
    config: &IrPipelineConfig,
    engine: &Engine,
) -> Result<crate::engine::AnalysisReport, IrPipelineError> {
    let compiler = project_compiler(project);
    let planned = plan_ir_build_stage_a(project, config, &compiler)?;
    Ok(engine.analyze(&planned.graph))
}

/// Build an IR container by constructing staged action graphs and submitting them to
/// `engine` (the driver behind
/// [`IrBuildRequest`](crate::orchestrator::IrBuildRequest)).
///
/// The build runs as an explicit pipeline over the engine's worker pool:
///
/// 1. **configure** (driver, serial — cheap): enumerate the sweep, emit compile DBs,
///    split system-dependent from system-independent units;
/// 2. **preprocess + openmp-detect** (graph A, parallel): one deduplicated action per
///    distinct (file, definitions) pair;
/// 3. **ir-lower** (graph B, parallel, cache-routed): one action per deduplicated
///    translation unit, keyed by the preprocessed-content digest;
/// 4. **link + commit** (graph B tail): assemble the image layers from the lowered
///    units and commit it to the engine's store.
///
/// The resulting image is byte-identical for any worker count, scheduling policy,
/// and whether actions hit or miss the cache; only
/// [`IrContainerBuild::actions`]/[`IrContainerBuild::trace`] differ in their
/// `cached` flags.
pub(crate) fn run_ir_build(
    project: &ProjectSpec,
    config: &IrPipelineConfig,
    engine: &Engine,
    reference: &str,
) -> Result<IrContainerBuild, IrPipelineError> {
    let compiler = project_compiler(project);
    // ---- Stage 1 (driver, serial): configure and plan the stage-A graph ----
    let IrBuildStageA {
        graph: stage_a,
        mut stats,
        manifests,
        sd_files,
        si_files,
        mut unit_key_by_config,
        occurrences,
    } = plan_ir_build_stage_a(project, config, &compiler)?;

    // ---- Stage 2+3 (graph A): preprocess and OpenMP-detect, in parallel ----
    engine.preflight(&stage_a)?;
    let run_a = engine.run(stage_a);
    let (outputs_a, mut trace) = run_a.into_outputs()?;
    let digest_of =
        |id: ActionId| -> String { String::from_utf8_lossy(&outputs_a[id]).into_owned() };
    let matters_of = |id: ActionId| -> bool { outputs_a[id].first().copied().unwrap_or(1) != 0 };

    // ---- Stage 4 (driver, serial): derive the dedup identities of Figure 7 ----
    let mut generation_keys: BTreeSet<String> = BTreeSet::new();
    let mut preprocessing_keys: BTreeSet<String> = BTreeSet::new();
    let mut openmp_keys: BTreeSet<String> = BTreeSet::new();
    // Key → (file, source content, flags, preprocessed-content digest) of the
    // representative unit. The digest is what the action-cache key is derived from.
    let mut final_keys: BTreeMap<String, (String, std::sync::Arc<str>, CompileFlags, String)> =
        BTreeMap::new();
    for occurrence in &occurrences {
        let TuOccurrence {
            config_index,
            target,
            file,
            content,
            flags,
            generation_key,
            preprocess_action,
            openmp_action,
        } = occurrence;
        let digest = digest_of(*preprocess_action);
        let delayed = flags.delayed_target_flags.join(" ");
        generation_keys.insert(format!("{file}|{generation_key}"));

        // Stage 2: preprocessed-content identity.
        let preprocess_key = format!(
            "{file}|{digest}|omp={}|opt={}|isa={delayed}",
            flags.openmp,
            flags.opt_level().as_str(),
        );
        let stage2_key = if config.stages.preprocessing {
            preprocess_key.clone()
        } else {
            format!("{file}|{generation_key}")
        };
        preprocessing_keys.insert(stage2_key.clone());

        // Stage 3: OpenMP-irrelevance merging.
        let effective_openmp = flags.openmp && openmp_action.map(&matters_of).unwrap_or(true);
        let stage3_key = if config.stages.openmp_detection {
            format!(
                "{file}|{digest}|omp={effective_openmp}|opt={}|isa={delayed}",
                flags.opt_level().as_str(),
            )
        } else {
            stage2_key.clone()
        };
        openmp_keys.insert(stage3_key.clone());

        // Stage 4: vectorization delay — drop the ISA flags from the identity.
        let stage4_key = if config.stages.vectorization_delay {
            format!(
                "{file}|{digest}|omp={effective_openmp}|opt={}",
                flags.opt_level().as_str(),
            )
        } else {
            stage3_key.clone()
        };
        final_keys
            .entry(stage4_key.clone())
            .or_insert_with(|| (file.clone(), content.clone(), flags.clone(), digest));
        unit_key_by_config[*config_index].push((target.clone(), file.clone(), stage4_key));
    }

    stats.unique_after_generation = generation_keys.len();
    stats.unique_after_preprocessing = preprocessing_keys.len();
    stats.unique_after_openmp = openmp_keys.len();
    stats.unique_after_vectorization = final_keys.len();
    stats.system_dependent_files = sd_files.len();
    stats.system_independent_files = si_files.len();

    // ---- Stage 5 (graph B): ir-lower per deduplicated unit, then link + commit ----
    // Compile one representative per final key into IR, memoizing each action in the
    // content-addressed cache: the key is derived from the preprocessed-content digest
    // and the IR-relevant flags, so a warm cache skips the compile entirely while
    // producing bit-identical bitcode.
    // Declared before the graph: the graph's closures borrow these, so they must
    // outlive it (drop order is reverse declaration order).
    struct Assembled {
        image: Image,
        units: BTreeMap<String, IrUnit>,
        manifests: Vec<ConfigurationManifest>,
    }
    let assembled: LinkSlot<Assembled> = LinkSlot::new();
    // Position (within the planned lower actions) of the action producing each
    // ordered key's bitcode. Distinct stage-4 keys normally map to distinct
    // BuildKeys, but the graph contract is one node per key, so identical BuildKeys
    // share one action (the KeyedActionPlanner enforces this).
    let mut key_positions: Vec<usize> = Vec::with_capacity(final_keys.len());
    let ordered_keys: Vec<&String> = final_keys.keys().collect();
    let mut stage_b: ActionGraph<'_, IrPipelineError> = ActionGraph::new();
    let mut lower_plan = KeyedActionPlanner::new();
    for (file, content, flags, tu_digest) in final_keys.values() {
        // The IR is compiled without the delayed ISA flags; OpenMP stays as classified.
        let ir_flags = flags.without_delayed_target_flags();
        let build_key = BuildKey::new(
            tu_digest.clone(),
            IR_TARGET,
            format!(
                "file={file};{};early_opt={}",
                ir_flags.ir_relevant_key(),
                config.optimize_early
            ),
            TOOLCHAIN_ID,
        );
        let compiler = &compiler;
        let optimize_early = config.optimize_early;
        let position = lower_plan.position_for(&mut stage_b, build_key, |graph, key| {
            graph.add_cached(ActionKind::IrLower, file.clone(), key, &[], move |_| {
                let mut module =
                    compiler
                        .compile_to_ir(file, content, &ir_flags)
                        .map_err(|error| IrPipelineError::Compile {
                            file: file.clone(),
                            error,
                        })?;
                if optimize_early {
                    xaas_xir::passes::scalar_unroll(&mut module, 4);
                }
                Ok(bitcode::encode(&module))
            })
        });
        key_positions.push(position);
    }
    let lower_actions = lower_plan.into_actions();

    // Link: decode the lowered units, resolve manifests, and assemble the image. The
    // assembled pieces travel to the driver through the `assembled` slot (they are
    // typed, not bytes).
    let link_action = {
        let assembled = &assembled;
        let ordered_keys = &ordered_keys;
        let key_positions = &key_positions;
        let final_keys = &final_keys;
        let stats = &stats;
        stage_b.add(
            ActionKind::Link,
            format!("{reference} image"),
            &lower_actions,
            move |inputs| {
                let mut manifests = manifests;
                let mut units: BTreeMap<String, IrUnit> = BTreeMap::new();
                // id → the producing action's output: the lower actions emit exactly
                // `bitcode::encode(&module)`, so the IR layer below shares those blobs
                // instead of re-encoding (or copying) every deduplicated unit.
                let mut unit_bytes: BTreeMap<String, &Blob> = BTreeMap::new();
                let mut key_to_id: BTreeMap<String, String> = BTreeMap::new();
                for (index, key) in ordered_keys.iter().enumerate() {
                    let (file, ..) = &final_keys[*key];
                    let module = bitcode::decode(inputs.dep(key_positions[index]))
                        .map_err(|e| IrPipelineError::Cache(format!("bitcode for {file}: {e}")))?;
                    let id = bitcode::content_id(&module);
                    key_to_id.insert((*key).clone(), id.clone());
                    unit_bytes
                        .entry(id.clone())
                        .or_insert_with(|| inputs.dep_blob(key_positions[index]));
                    units.entry(id.clone()).or_insert(IrUnit {
                        id,
                        source_file: file.clone(),
                        openmp: module.metadata.openmp,
                        module,
                    });
                }

                // Fill manifests with artifact references.
                for (config_index, per_config_units) in unit_key_by_config.into_iter().enumerate() {
                    let manifest = &mut manifests[config_index];
                    for (target, file, key) in per_config_units {
                        let artifact = if let Some(id) = key_to_id.get(&key) {
                            format!("ir:{id}")
                        } else {
                            key // already `src:<path>` for system-dependent units
                        };
                        manifest.units.push(UnitAssignment {
                            target,
                            file,
                            artifact,
                        });
                    }
                }

                // Assemble the container image.
                let mut image = Image::new(reference, Platform::linux(Architecture::XirIr));
                image.set_deployment_format(DeploymentFormat::Ir);
                image.annotate(annotation_keys::IR_DIALECT, "xir.v1");
                image.annotate(annotation_keys::TITLE, project.name.clone());
                image.annotate(
                    annotation_keys::SPECIALIZATION_POINTS,
                    from_project(project).to_json_string(),
                );

                let mut toolchain = Layer::new("ADD xirc toolchain");
                toolchain.add_executable("/usr/bin/xirc", b"xirc-driver".to_vec());
                image.push_layer(toolchain);

                let mut sources =
                    Layer::new("COPY source tree (system-dependent files and installation)");
                sources.add_text(
                    format!("{}/XMakeLists.txt", paths::SOURCE_ROOT),
                    project.build_script.clone(),
                );
                for (path, content) in project.source_tree() {
                    sources.add_text(format!("{}/{}", paths::SOURCE_ROOT, path), content);
                }
                for (name, content) in &project.headers {
                    sources.add_text(
                        format!("{}/include/{}", paths::SOURCE_ROOT, name),
                        content.clone(),
                    );
                }
                image.push_layer(sources);

                let mut ir_layer = Layer::new(format!("ADD {} deduplicated IR files", units.len()));
                for (id, bytes) in &unit_bytes {
                    ir_layer.add_file(format!("{}/{}.xbc", paths::IR_ROOT, id), Blob::clone(bytes));
                }
                image.push_layer(ir_layer);

                let mut manifest_layer =
                    Layer::new(format!("ADD {} configuration manifests", manifests.len()));
                for manifest in &manifests {
                    manifest_layer.add_text(
                        format!("{}/{}.json", paths::CONFIG_ROOT, sanitize(&manifest.label)),
                        serde_json::to_string_pretty(manifest).expect("manifest serialises"),
                    );
                }
                manifest_layer.add_text(
                    paths::STATS,
                    serde_json::to_string_pretty(stats).expect("stats serialise"),
                );
                image.push_layer(manifest_layer);

                assembled.put(Assembled {
                    image,
                    units,
                    manifests,
                });
                Ok(Vec::new())
            },
        )
    };
    add_commit_action(
        &mut stage_b,
        format!("{reference} commit"),
        engine.store(),
        &assembled,
        |assembled| &assembled.image,
        link_action,
    );

    engine.preflight(&stage_b)?;
    let run_b = engine.run(stage_b);
    let (_, trace_b) = run_b.into_outputs()?;
    trace.merge(trace_b);
    let Assembled {
        image,
        units,
        manifests,
    } = assembled.into_inner().expect("link action ran");
    let actions = trace.summary();
    Ok(IrContainerBuild {
        image,
        reference: reference.to_string(),
        stats,
        manifests,
        units,
        actions,
        trace,
    })
}

/// Sanitise a configuration label for use as a file name.
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::{IrBuildRequest, Orchestrator};
    use xaas_apps::{gromacs, lulesh};
    use xaas_container::{ActionCache, ImageStore};

    /// Old free-function shape, routed through the orchestrator (uncached).
    fn build(
        project: &ProjectSpec,
        config: &IrPipelineConfig,
        store: &ImageStore,
        reference: &str,
    ) -> Result<IrContainerBuild, IrPipelineError> {
        IrBuildRequest::new(project, config)
            .reference(reference)
            .submit(&Orchestrator::uncached(store))
    }

    /// Old `_cached` shape, routed through the orchestrator (shared cache).
    fn build_cached(
        project: &ProjectSpec,
        config: &IrPipelineConfig,
        cache: &ActionCache,
        reference: &str,
    ) -> Result<IrContainerBuild, IrPipelineError> {
        IrBuildRequest::new(project, config)
            .reference(reference)
            .submit(&Orchestrator::with_cache(cache))
    }

    #[test]
    fn lulesh_pipeline_reproduces_the_20_to_14_reduction_structure() {
        // The paper: 4 configurations × 5 files = 20 TUs; preprocessing leaves 14 IR files
        // (MPI changes one file; OpenMP is attached everywhere but only matters for files
        // with OpenMP constructs). Our mini-LULESH has the same structure, except the MPI
        // file is classified as system-dependent and shipped as source.
        let project = lulesh::project();
        let store = ImageStore::new();
        let config = IrPipelineConfig::sweep_options(&project, &["WITH_MPI", "WITH_OPENMP"]);
        let build = build(&project, &config, &store, "spcl/mini-lulesh:ir").unwrap();
        let stats = build.stats;
        assert_eq!(stats.configurations, 4);
        assert_eq!(stats.total_translation_units, 20);
        assert!(stats.unique_after_generation > stats.unique_after_preprocessing);
        assert!(stats.unique_after_preprocessing >= stats.unique_after_openmp);
        // comm file: 2 variants (MPI on/off); eos/util: 1 each; lulesh/forces: 2 each
        // (OpenMP on/off) → 8 unique IR units.
        assert_eq!(stats.ir_files_built(), 8);
        assert!(stats.reduction_percent() > 50.0);
        assert_eq!(build.units.len(), 8);
        assert_eq!(build.manifests.len(), 4);
    }

    #[test]
    fn gromacs_simd_sweep_shares_most_ir_files() {
        let project = gromacs::project();
        let store = ImageStore::new();
        let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"]).with_values(
            "GMX_SIMD",
            &["SSE4.1", "AVX2_128", "AVX_256", "AVX2_256", "AVX_512"],
        );
        let build = build(&project, &config, &store, "spcl/mini-gromacs:ir-x86").unwrap();
        let stats = build.stats;
        assert_eq!(stats.configurations, 5);
        // Five configurations of the same CPU-only file set.
        assert_eq!(
            stats.total_translation_units,
            5 * (stats.system_independent_files + stats.system_dependent_files)
        );
        // Without the vectorisation stage every configuration would stay distinct; with it
        // the IR files collapse to one per source file.
        assert_eq!(stats.ir_files_built(), stats.system_independent_files);
        assert!(
            stats.reduction_percent() > 60.0,
            "{}",
            stats.reduction_percent()
        );
        // The image advertises itself as an IR deployment.
        assert_eq!(build.image.deployment_format(), DeploymentFormat::Ir);
        assert_eq!(build.image.platform.architecture, Architecture::XirIr);
    }

    #[test]
    fn vectorization_stage_ablation_stops_sharing() {
        let project = gromacs::project();
        let store = ImageStore::new();
        let mut config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"])
            .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"]);
        config.stages.vectorization_delay = false;
        let without = build(&project, &config, &store, "a:1").unwrap();
        config.stages.vectorization_delay = true;
        let with = build(&project, &config, &store, "a:2").unwrap();
        assert!(without.stats.ir_files_built() > with.stats.ir_files_built());
        // 95%+ of identical targets differ only in CPU tuning (the Section 6.4 finding).
        let share = with.stats.ir_files_built() as f64 / without.stats.ir_files_built() as f64;
        assert!(
            share <= 0.55,
            "vectorization delay should halve the unit count: {share}"
        );
    }

    #[test]
    fn openmp_detection_merges_flag_only_differences() {
        let project = lulesh::project();
        let store = ImageStore::new();
        let mut config = IrPipelineConfig::sweep_options(&project, &["WITH_OPENMP"]);
        config.stages.openmp_detection = false;
        let without = build(&project, &config, &store, "l:1").unwrap();
        config.stages.openmp_detection = true;
        let with = build(&project, &config, &store, "l:2").unwrap();
        assert!(with.stats.ir_files_built() < without.stats.ir_files_built());
        // eos, util and comm are OpenMP-free → they collapse across the two configurations.
        assert_eq!(
            without.stats.ir_files_built() - with.stats.ir_files_built(),
            3
        );
    }

    #[test]
    fn manifests_reference_existing_units_and_mark_mpi_as_source() {
        let project = gromacs::project();
        let store = ImageStore::new();
        let config = IrPipelineConfig::sweep_options(&project, &["GMX_MPI"]);
        let build = build(&project, &config, &store, "g:mpi").unwrap();
        let mpi_on = build
            .manifest_for(&OptionAssignment::new().with("GMX_MPI", "ON"))
            .expect("manifest for MPI=ON");
        let mpi_unit = mpi_on
            .units
            .iter()
            .find(|u| u.file.contains("mpi_halo"))
            .unwrap();
        assert!(
            mpi_unit.artifact.starts_with("src:"),
            "MPI file ships as source: {mpi_unit:?}"
        );
        for unit in &mpi_on.units {
            if let Some(id) = unit.artifact.strip_prefix("ir:") {
                assert!(
                    build.units.contains_key(id),
                    "artifact {id} missing from unit set"
                );
            }
        }
        assert!(build.stats.system_dependent_files >= 1);
        assert!(build.stats.system_independent_files > build.stats.system_dependent_files);
    }

    #[test]
    fn ir_image_contains_bitcode_sources_and_manifests() {
        let project = lulesh::project();
        let store = ImageStore::new();
        let config = IrPipelineConfig::sweep_options(&project, &["WITH_OPENMP"]);
        let build = build(&project, &config, &store, "spcl/lulesh:ir").unwrap();
        let root = build.image.rootfs();
        let ir_blobs: Vec<_> = root.paths_under(paths::IR_ROOT).collect();
        assert_eq!(ir_blobs.len(), build.units.len());
        assert!(root
            .get(&format!("{}/src/lulesh.ck", paths::SOURCE_ROOT))
            .is_some());
        assert!(root.get(paths::STATS).is_some());
        let manifest_files: Vec<_> = root.paths_under(paths::CONFIG_ROOT).collect();
        assert!(manifest_files.len() >= build.manifests.len());
        // Bitcode blobs decode back into modules.
        let first = ir_blobs.first().unwrap();
        let bytes = match root.get(first).unwrap() {
            xaas_container::LayerEntry::File { content, .. } => content.clone(),
            other => panic!("unexpected entry {other:?}"),
        };
        assert!(bitcode::decode(&bytes).is_ok());
    }

    #[test]
    fn warm_cache_build_runs_zero_compiles_and_is_byte_identical() {
        let project = lulesh::project();
        let store = ImageStore::new();
        let cache = ActionCache::new(store.clone());
        let config = IrPipelineConfig::sweep_options(&project, &["WITH_MPI", "WITH_OPENMP"]);
        let cold = build_cached(&project, &config, &cache, "warm:a").unwrap();
        assert_eq!(cold.actions.cached, 0);
        assert_eq!(cold.actions.executed, cold.units.len());
        let warm = build_cached(&project, &config, &cache, "warm:b").unwrap();
        assert_eq!(warm.actions.executed, 0, "warm build compiles nothing");
        assert_eq!(warm.actions.cached, cold.actions.executed);
        // Identical artifacts: same units, same stats, same layer bytes.
        assert_eq!(warm.units, cold.units);
        assert_eq!(warm.stats, cold.stats);
        assert_eq!(warm.image.layers, cold.image.layers);
        assert!(cache.stats().hit_rate() > 0.0);
    }

    #[test]
    fn unknown_sweep_option_is_rejected() {
        let project = lulesh::project();
        let store = ImageStore::new();
        let config = IrPipelineConfig {
            sweep: vec![("NOT_AN_OPTION".into(), vec!["ON".into()])],
            build_dir: "/xaas/build".into(),
            stages: PipelineStages::default(),
            optimize_early: false,
        };
        assert!(matches!(
            build(&project, &config, &store, "x:1"),
            Err(IrPipelineError::UnknownOption(_))
        ));
    }
}
