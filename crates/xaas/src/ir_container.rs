//! XaaS IR containers: the deduplicating build pipeline of Figure 7.
//!
//! The pipeline sweeps the requested specialization points, configures each combination
//! in a pinned (containerised) build directory, and then decides which translation units
//! genuinely differ between configurations:
//!
//! 1. **Generation** — exact compile-command identity (after normalising the build
//!    directory out of include paths);
//! 2. **Preprocessing** — hash of the preprocessed source: definitions that do not change
//!    the token stream do not create new units. Each distinct text is preprocessed
//!    once: a file is planned per set of definitions it can *observe*
//!    ([`xaas_xir::Observation`]), so a sweep value no file reads costs no extra work;
//! 3. **OpenMP detection** — units that differ only in `-fopenmp` collapse when the
//!    preprocessed text mentions no OpenMP: no `#pragma omp…` and no `omp_` identifier
//!    ([`xaas_xir::PreprocessedUnit::mentions_openmp`], computed by the preprocess node
//!    itself). The scan is conservative: the paper's AST pass counts only pragmas on
//!    loops and only calls, so a stray pragma or an `omp_` name that is no call keeps
//!    `-fopenmp` in the identity — that can split two units, never merge them;
//! 4. **Vectorization delay** — ISA/tuning flags are dropped from the identity and applied
//!    only at deployment.
//!
//! MPI-dependent files are *system-dependent* (`S_D`, Definition 2) and are shipped as
//! source instead of IR. Everything else (`S_I`) is compiled once per unique identity and
//! stored as XIR bitcode in the image.

pub use crate::engine::plan::IrUnit;
use crate::engine::plan::{mentions_openmp, preprocessed_digest, preprocessed_text, IrLower};
use crate::engine::{
    Action, ActionGraph, ActionId, ActionInputs, ActionKind, ActionTrace, Engine,
    KeyedActionPlanner, PreprocessPlanner,
};
use crate::error::PipelineError;
use crate::source_container::{paths::BUILD_ROOT, source_tree_layer};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use xaas_buildsys::{
    configure, CompileCommand, ConfiguredBuild, OptionAssignment, ProjectSpec, SourceSpec,
};
use xaas_container::{
    annotation_keys, Architecture, Blob, DeploymentFormat, Derivation, Image, ImageStore, Layer,
    Platform,
};
use xaas_specs::from_project;
use xaas_xir::{bitcode, CompileFlags, OptLevel};

pub use crate::engine::ActionSummary;

/// Toolchain identifier pinned into every key the pipeline derives. A toolchain
/// upgrade must change this constant so stale cache entries can never be served.
pub const TOOLCHAIN_ID: &str = "xirc-19/xir.v1";

/// Which of the dedup pipeline's optional stages are enabled (both on by default; the
/// ablation benchmarks switch them off). Build-directory normalisation (stage 1) and
/// preprocessed-content identity (stage 2) always run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStages {
    /// Collapse `-fopenmp`-only differences for OpenMP-free files.
    pub openmp_detection: bool,
    /// Drop ISA/tuning flags from the identity (vectorization delay).
    pub vectorization_delay: bool,
}

impl Default for PipelineStages {
    fn default() -> Self {
        Self {
            openmp_detection: true,
            vectorization_delay: true,
        }
    }
}

/// Configuration of an IR-container build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrPipelineConfig {
    /// The specialization points to sweep: option name → values to enumerate. Options not
    /// listed stay at their defaults.
    pub sweep: Vec<(String, Vec<String>)>,
    /// Stage switches.
    pub stages: PipelineStages,
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
            stages: PipelineStages::default(),
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
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
    /// The full, deterministic action trace of the build (preprocess through commit).
    /// Its [`summary`](ActionTrace::summary) counts the cache-routed actions (the
    /// `ir-lower` nodes) executed vs served from the action cache; stage B plans
    /// one node per key, so a cold build reports `cached == 0`.
    pub trace: ActionTrace,
}

impl IrContainerBuild {
    /// The configuration manifest whose assignment is exactly `assignment`.
    pub fn manifest_for(&self, assignment: &OptionAssignment) -> Option<&ConfigurationManifest> {
        self.manifests.iter().find(|m| m.assignment == *assignment)
    }
}

/// Paths used inside IR containers.
pub mod paths {
    /// Root of the IR blobs.
    pub(crate) const IR_ROOT: &str = "/xaas/ir";
    /// Root of the per-configuration manifests.
    pub(crate) const CONFIG_ROOT: &str = "/xaas/configs";
    /// Pipeline statistics document.
    pub(crate) const STATS: &str = "/xaas/stats.json";
}

/// Enumerate the cartesian product of the sweep.
fn enumerate_assignments(
    project: &ProjectSpec,
    config: &IrPipelineConfig,
) -> Result<Vec<OptionAssignment>, PipelineError> {
    let mut assignments = vec![OptionAssignment::new()];
    for (name, values) in &config.sweep {
        if project.option(name).is_none() {
            return Err(PipelineError::UnknownOption(name.clone()));
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

/// One distinct argument list of a configuration, classified once for every
/// compile command that shares it.
struct ArgumentList {
    /// The arguments, classified.
    flags: CompileFlags,
    /// `flags` without the delayed ISA/tuning flags: what an `ir-lower` compiles
    /// under (the delayed flags are applied at deployment).
    ir_flags: CompileFlags,
    /// Stage 1's identity of the list: [`CompileCommand::canonical_arguments`].
    generation: String,
}

impl ArgumentList {
    /// The list of `command`, classified.
    fn of(command: &CompileCommand) -> Self {
        let flags = command.flags();
        Self {
            ir_flags: flags.without_delayed_target_flags(),
            flags,
            generation: command.canonical_arguments(),
        }
    }
}

/// One system-independent translation-unit occurrence discovered during configuration
/// (the driver's plan entry between the configure stage and the preprocess stage).
struct TuOccurrence<'env> {
    /// The project's path of the source.
    file: &'env str,
    /// Index of its command's list in the plan's [`ArgumentList`]s.
    list: usize,
    /// Index of this unit's preprocess action in the stage-A graph.
    preprocess_action: ActionId,
}

/// The serial stage-1 plan: every configuration's manifest, the distinct argument
/// lists and the system-independent unit occurrences, which the stage-A graph
/// ([`plan_stage_a`]), stage 4 and the Link read. Planning it runs no actions.
struct IrBuildPlan<'env> {
    stats: PipelineStats,
    /// One per configuration. The system-independent units have no artifact yet.
    manifests: Vec<ConfigurationManifest>,
    /// Each distinct argument list of each configuration, classified once.
    lists: Vec<ArgumentList>,
    /// Each system-independent unit occurrence, in order: its source and the index
    /// of its command's argument list.
    sources: Vec<(&'env SourceSpec, usize)>,
}

/// Stage 1 (driver, serial): configure every assignment and classify its units,
/// once per argument list. `project` and `config` must outlive the plan — each
/// configured build borrows the project and the config's build directory.
fn plan_ir_build<'env>(
    project: &'env ProjectSpec,
    config: &'env IrPipelineConfig,
) -> Result<IrBuildPlan<'env>, PipelineError> {
    let assignments = enumerate_assignments(project, config)?;

    let mut stats = PipelineStats {
        configurations: assignments.len(),
        ..Default::default()
    };
    let mut manifests: Vec<ConfigurationManifest> = Vec::with_capacity(assignments.len());
    let mut sd_files: BTreeSet<&str> = BTreeSet::new();
    let mut si_files: BTreeSet<&str> = BTreeSet::new();
    let mut lists: Vec<ArgumentList> = Vec::new();
    let mut sources: Vec<(&'env SourceSpec, usize)> = Vec::new();
    for requested in &assignments {
        let ConfiguredBuild {
            assignment,
            configure_command,
            definitions,
            compile_flags,
            dependencies,
            compile_db,
            ..
        } = configure(project, requested, BUILD_ROOT, None)?;
        let first_list = lists.len();
        let list_of = compile_db.classify_lists(|command| lists.push(ArgumentList::of(command)));
        // The configuration's units: the system-dependent ones, then the
        // system-independent ones in occurrence order, whose artifacts the Link
        // fills in. Each takes its command's target.
        let mut units: Vec<UnitAssignment> = Vec::new();
        let mut system_independent: Vec<UnitAssignment> = Vec::new();
        for (command, list) in compile_db.commands.iter().zip(list_of) {
            stats.total_translation_units += 1;
            let path = &command.source.path;
            if command.source.is_system_dependent() {
                stats.system_dependent_units += 1;
                sd_files.insert(path);
                units.push(UnitAssignment {
                    artifact: format!("src:{path}"),
                    target: command.target.to_owned(),
                    file: path.clone(),
                });
                continue;
            }
            si_files.insert(path);

            sources.push((command.source, first_list + list));
            system_independent.push(UnitAssignment {
                target: command.target.to_owned(),
                file: path.clone(),
                artifact: String::new(),
            });
        }
        units.append(&mut system_independent);
        let common_flags = project.global_flags.iter().map(String::as_str);
        let (delayed_flags, compile_flags): (Vec<String>, Vec<String>) = (common_flags
            .chain(compile_flags))
        .map(str::to_owned)
        .partition(|f| f.starts_with("-m"));
        let owned = |strs: Vec<&str>| strs.into_iter().map(str::to_owned).collect();
        manifests.push(ConfigurationManifest {
            label: assignment.label(),
            assignment,
            configure_command,
            definitions: owned(definitions),
            dependencies: owned(dependencies),
            units,
            compile_flags,
            delayed_flags,
        });
    }
    stats.system_dependent_files = sd_files.len();
    stats.system_independent_files = si_files.len();

    Ok(IrBuildPlan {
        stats,
        manifests,
        lists,
        sources,
    })
}

/// The stage-A graph (one wave of preprocess nodes, each also deciding stage 3)
/// and the occurrences whose preprocess nodes it holds — the graph
/// [`analyze_ir_build`] reports on without executing anything.
struct IrBuildStageA<'env> {
    graph: ActionGraph<'env, PipelineError>,
    occurrences: Vec<TuOccurrence<'env>>,
}

/// Plan the deduplicated stage-A graph over a plan's unit occurrences, given as
/// its `lists` and `sources`. Its preprocess nodes borrow the sources, their
/// lists' flags and `headers`.
fn plan_stage_a<'env>(
    headers: &'env BTreeMap<String, String>,
    lists: &'env [ArgumentList],
    sources: &[(&'env SourceSpec, usize)],
) -> IrBuildStageA<'env> {
    let mut graph: ActionGraph<'env, PipelineError> = ActionGraph::new();
    // Preprocessing depends only on the file and the definitions it can observe:
    // the planner schedules each distinct pair once across configurations.
    let mut preprocess = PreprocessPlanner::new(headers);
    let occurrences = sources
        .iter()
        .map(|&(SourceSpec { path, content, .. }, list)| TuOccurrence {
            file: path,
            list,
            preprocess_action: preprocess.action_for(&mut graph, path, content, &lists[list].flags),
        })
        .collect();
    IrBuildStageA { graph, occurrences }
}

/// Stage 4's result: how many identities each stage of Figure 7 leaves, and the
/// final ones (the IR files built).
#[derive(Debug, PartialEq, Eq)]
struct Identities {
    unique_after_generation: usize,
    unique_after_preprocessing: usize,
    unique_after_openmp: usize,
    /// The first occurrence of each final identity, ordered as the identities'
    /// names sort ([`identity_name`]): the order of the `ir-lower` nodes.
    representatives: Vec<usize>,
    /// Each occurrence's final identity, as a position in `representatives`.
    final_of: Vec<usize>,
}

/// Stage 4 (driver, serial): derive the dedup identities of Figure 7 from the
/// occurrences, their argument `lists` and the stage-A `outputs`. Every stage
/// counts borrowed tuples; only the final identities are named, to order them.
fn derive_identities(
    occurrences: &[TuOccurrence],
    lists: &[ArgumentList],
    outputs: &[Blob],
    stages: PipelineStages,
) -> Identities {
    // (file, preprocessed digest, OpenMP in effect, opt level, delayed flags).
    type Identity<'a, Isa = &'a [String]> = (&'a str, &'a str, bool, OptLevel, Isa);
    let mut generation: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut preprocessing: BTreeSet<Identity<'_>> = BTreeSet::new();
    let mut openmp: BTreeSet<Identity<'_>> = BTreeSet::new();
    // Stage 4 drops the delayed flags (`None`) under vectorization delay.
    let mut finals: BTreeMap<Identity<'_, Option<&[String]>>, usize> = BTreeMap::new();
    let mut first_of: Vec<usize> = Vec::with_capacity(occurrences.len());
    for (index, occurrence) in occurrences.iter().enumerate() {
        let output = &outputs[occurrence.preprocess_action];
        let (file, digest) = (occurrence.file, preprocessed_digest(output));
        let ArgumentList {
            flags,
            generation: arguments,
            ..
        } = &lists[occurrence.list];
        let (opt, delayed) = (flags.opt_level(), flags.delayed_target_flags.as_slice());
        generation.insert((file, arguments));
        preprocessing.insert((file, digest, flags.openmp, opt, delayed));
        // Stage 3: `-fopenmp` stays only where the text can see it.
        let openmp_flag = flags.openmp && (!stages.openmp_detection || mentions_openmp(output));
        openmp.insert((file, digest, openmp_flag, opt, delayed));
        let isa = (!stages.vectorization_delay).then_some(delayed);
        first_of.push(
            *finals
                .entry((file, digest, openmp_flag, opt, isa))
                .or_insert(index),
        );
    }

    let mut named: Vec<(String, usize)> = finals
        .into_iter()
        .map(|((file, digest, openmp, opt, isa), first)| {
            (identity_name(file, digest, openmp, opt, isa), first)
        })
        .collect();
    named.sort_unstable();
    let mut position_of = vec![0; occurrences.len()];
    for (position, &(_, first)) in named.iter().enumerate() {
        position_of[first] = position;
    }
    Identities {
        unique_after_generation: generation.len(),
        unique_after_preprocessing: preprocessing.len(),
        unique_after_openmp: openmp.len(),
        representatives: named.into_iter().map(|(_, first)| first).collect(),
        final_of: first_of
            .into_iter()
            .map(|first| position_of[first])
            .collect(),
    }
}

/// The name of a final identity, `{file}|{digest}|omp={openmp}|opt={opt}`, with
/// `|isa={flags}` (space-separated) when the delayed flags are part of it. Only the
/// order of the names is used: it is the order the IR files are built and listed in.
fn identity_name(
    file: &str,
    digest: &str,
    openmp: bool,
    opt: OptLevel,
    isa: Option<&[String]>,
) -> String {
    let mut name = format!("{file}|{digest}|omp={openmp}|opt={}", opt.as_str());
    if let Some(isa) = isa {
        name.push_str("|isa=");
        name.push_str(&isa.join(" "));
    }
    name
}

/// Plan the build's stage-A graph (the preprocess wave) and report on it without
/// executing anything. The stage-B
/// graph (ir-lower/link/commit) is derived from stage-A *outputs*, so it
/// cannot be constructed statically.
pub(crate) fn analyze_ir_build(
    project: &ProjectSpec,
    config: &IrPipelineConfig,
    engine: &Engine,
) -> Result<crate::engine::AnalysisReport, PipelineError> {
    let plan = plan_ir_build(project, config)?;
    let stage_a = plan_stage_a(&project.headers, &plan.lists, &plan.sources);
    Ok(engine.analyze(&stage_a.graph))
}

/// Build an IR container by constructing staged action graphs and submitting them to
/// `engine` (the driver behind
/// [`IrBuildRequest`](crate::orchestrator::IrBuildRequest)).
///
/// The build runs as an explicit pipeline over the engine's worker pool:
///
/// 1. **configure** (driver, serial — cheap): enumerate the sweep, emit compile DBs,
///    classify each distinct argument list once, and split system-dependent from
///    system-independent units;
/// 2. **preprocess** (graph A, parallel, one wave): one preprocess action per
///    distinct (file, definitions the file can observe) pair — so one per text when
///    no other definition reaches the file. Each outputs its text, the text's
///    digest and the stage-3 OpenMP verdict, scanned from that text;
/// 3. **ir-lower** (graph B, parallel, cache-routed): one action per deduplicated
///    translation unit, keyed by the preprocessed-content digest, compiling the
///    text its preprocess node output;
/// 4. **link + commit** (graph B tail): the Link keeps each lowered unit's bitcode
///    as it came out of its `ir-lower` node, decoding none of it (a deployment
///    decodes a unit only when a `machine-lower` of it misses), fills in the
///    manifests' IR artifacts and assembles the image layers, sharing those
///    bytes; the commit publishes the image to the engine's store.
///
/// The resulting image is byte-identical for any worker count, scheduling policy,
/// and whether actions hit or miss the cache; only [`IrContainerBuild::trace`]
/// differs, in its `cached` flags.
pub(crate) fn run_ir_build(
    project: &ProjectSpec,
    config: &IrPipelineConfig,
    engine: &Engine,
    reference: &str,
) -> Result<IrContainerBuild, PipelineError> {
    // ---- Stage 1 (driver, serial): configure and plan the stage-A graph ----
    let IrBuildPlan {
        mut stats,
        manifests,
        lists,
        sources,
    } = plan_ir_build(project, config)?;
    let IrBuildStageA {
        graph: stage_a,
        occurrences,
    } = plan_stage_a(&project.headers, &lists, &sources);

    // ---- Stage 2+3 (graph A): preprocess, deciding OpenMP from the text ----
    let (outputs_a, mut trace) = engine.run(stage_a)?.into_outputs()?;

    // ---- Stage 4 (driver, serial): derive the dedup identities of Figure 7 ----
    let Identities {
        unique_after_generation,
        unique_after_preprocessing,
        unique_after_openmp,
        representatives,
        final_of,
    } = derive_identities(&occurrences, &lists, &outputs_a, config.stages);
    stats.unique_after_generation = unique_after_generation;
    stats.unique_after_preprocessing = unique_after_preprocessing;
    stats.unique_after_openmp = unique_after_openmp;
    stats.unique_after_vectorization = representatives.len();

    // ---- Stage 5 (graph B): ir-lower per deduplicated unit, then link + commit ----
    // Compile one representative per final identity into IR, memoizing each action in
    // the content-addressed cache: the key is derived from the preprocessed-content
    // digest and the IR-relevant flags, so a warm cache skips the compile entirely
    // while producing bit-identical bitcode.
    // Declared before the graph: the graph's records borrow these, so they must
    // outlive it (drop order is reverse declaration order).
    let built = OnceLock::new();
    // One per final identity. The graph's contract is one node per key, so final
    // identities with one BuildKey share a lower action's position.
    let mut lowered: Vec<Lowered> = Vec::with_capacity(representatives.len());
    let mut stage_b: ActionGraph<'_, PipelineError> = ActionGraph::new();
    let mut lower_plan = KeyedActionPlanner::default();
    for &first in &representatives {
        let TuOccurrence {
            file,
            list,
            preprocess_action,
        } = occurrences[first];
        let output = &outputs_a[preprocess_action];
        let ArgumentList {
            flags, ir_flags, ..
        } = &lists[list];
        let record = IrLower {
            preprocessed: preprocessed_digest(output),
            file,
            // The IR is compiled without the delayed ISA flags; OpenMP stays as
            // classified.
            flags: ir_flags,
            text: preprocessed_text(output),
        };
        lowered.push(Lowered {
            file,
            // What the compile writes into the module's `metadata.openmp`.
            openmp: flags.openmp,
            position: lower_plan.position_for(&mut stage_b, file, record),
        });
    }
    let lower_actions = lower_plan.into_actions();

    let link = IrBuildLink {
        project,
        reference,
        stats,
        manifests,
        lowered: &lowered,
        final_of: &final_of,
        built: &built,
    };
    let link = stage_b.add_action(format!("{reference} image"), link, &lower_actions);
    let commit = IrBuildCommit {
        store: engine.store(),
        built: &built,
    };
    stage_b.add_action(format!("{reference} commit"), commit, &[link]);

    let (_, trace_b) = engine.run(stage_b)?.into_outputs()?;
    trace.merge(trace_b);
    let mut build = built.into_inner().expect("the link action ran");
    build.trace = trace;
    Ok(build)
}

/// One final identity's lowered unit: its representative's file, whether its IR
/// was compiled with `-fopenmp`, and the position (among the planned lower
/// actions) of the one producing its bitcode, the Link's dependency.
struct Lowered<'a> {
    file: &'a str,
    openmp: bool,
    position: usize,
}

/// The IR build's Link: collects the lowered units' bitcode undecoded, fills in
/// the manifests' IR artifacts, assembles the image and leaves the build (all but
/// its trace) in `built`, typed, for the commit, which seals the image's layers in
/// place, and the driver. Unkeyed: what it reads is the whole sweep's plan.
struct IrBuildLink<'a> {
    project: &'a ProjectSpec,
    reference: &'a str,
    stats: PipelineStats,
    /// One per configuration, the system-independent units without an artifact.
    manifests: Vec<ConfigurationManifest>,
    /// Per final identity, its lowered unit.
    lowered: &'a [Lowered<'a>],
    /// The final identity of each system-independent unit occurrence.
    final_of: &'a [usize],
    built: &'a OnceLock<IrContainerBuild>,
}

impl Action for IrBuildLink<'_> {
    const KIND: ActionKind = ActionKind::Link;
    const KEYED: bool = false;
    type Error = PipelineError;

    fn derive(&self, _: Option<&ActionInputs>, record: Derivation) -> Derivation {
        let Self {
            project: _,
            reference: _,
            stats: _,
            manifests: _,
            lowered: _,
            final_of: _,
            built: _,
        } = self;
        record
    }

    fn run(self, inputs: &ActionInputs) -> Result<Vec<u8>, PipelineError> {
        let (project, mut manifests) = (self.project, self.manifests);
        // Each unit keeps the producing action's output as its bitcode, and the
        // IR layer below shares those blobs: nothing is decoded, re-encoded or
        // copied. A deployment decodes a unit only when it lowers it.
        let mut units: BTreeMap<String, IrUnit> = BTreeMap::new();
        // The content id of each final identity's unit.
        let mut ids: Vec<String> = Vec::with_capacity(self.lowered.len());
        for &Lowered {
            file,
            openmp,
            position,
        } in self.lowered
        {
            let id = bitcode::content_id_of(inputs.dep(position));
            units.entry(id.clone()).or_insert_with(|| {
                IrUnit::new(id.clone(), file, openmp, inputs.dep_blob(position).clone())
            });
            ids.push(id);
        }

        // Fill in the artifacts of the system-independent units: stage 1
        // listed them, in occurrence order, without one.
        let pending = manifests
            .iter_mut()
            .flat_map(|manifest| &mut manifest.units)
            .filter(|unit| unit.artifact.is_empty());
        for (unit, &identity) in pending.zip(self.final_of) {
            unit.artifact = format!("ir:{}", ids[identity]);
        }

        // Assemble the container image.
        let mut image = Image::new(self.reference, Platform::linux(Architecture::XirIr));
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

        image.push_layer(source_tree_layer(
            project,
            "COPY source tree (system-dependent files and installation)",
        ));

        let mut ir_layer = Layer::new(format!("ADD {} deduplicated IR files", units.len()));
        for (id, unit) in &units {
            ir_layer.add_file(
                format!("{}/{}.xbc", paths::IR_ROOT, id),
                unit.bitcode.clone(),
            );
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
            serde_json::to_string_pretty(&self.stats).expect("stats serialise"),
        );
        image.push_layer(manifest_layer);

        // One Link per build: the cell is empty.
        let _ = self.built.set(IrContainerBuild {
            image,
            reference: self.reference.to_string(),
            stats: self.stats,
            manifests,
            units,
            trace: ActionTrace::default(),
        });
        Ok(Vec::new())
    }
}

/// The IR build's commit: publishes the image its Link left in `built` to
/// `store`, outputting the committed manifest digest.
struct IrBuildCommit<'a> {
    store: &'a ImageStore,
    built: &'a OnceLock<IrContainerBuild>,
}

impl Action for IrBuildCommit<'_> {
    const KIND: ActionKind = ActionKind::Commit;
    const KEYED: bool = false;
    type Error = PipelineError;

    fn derive(&self, _: Option<&ActionInputs>, record: Derivation) -> Derivation {
        let Self { store: _, built: _ } = self;
        record
    }

    fn run(self, _: &ActionInputs) -> Result<Vec<u8>, PipelineError> {
        let image = &self.built.get().expect("the link action ran").image;
        Ok(self.store.commit(image).digest.as_str().as_bytes().to_vec())
    }
}

/// Sanitise a configuration label for use as a file name.
pub(crate) fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::orchestrator::{IrBuildRequest, Orchestrator};
    use std::borrow::Cow;
    use std::sync::Arc;
    use xaas_apps::{gromacs, lulesh};
    use xaas_container::{ActionCache, ImageStore};

    /// Old free-function shape, routed through the orchestrator (uncached).
    fn build(
        project: &ProjectSpec,
        config: &IrPipelineConfig,
        store: &ImageStore,
        reference: &str,
    ) -> Result<IrContainerBuild, PipelineError> {
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
    ) -> Result<IrContainerBuild, PipelineError> {
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
            .manifest_for(&project.complete(&OptionAssignment::new().with("GMX_MPI", "ON")))
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
            .get(&format!(
                "{}/src/lulesh.ck",
                crate::source_container::paths::SOURCE_ROOT
            ))
            .is_some());
        assert!(root.get(paths::STATS).is_some());
        let manifest_files: Vec<_> = root.paths_under(paths::CONFIG_ROOT).collect();
        assert!(manifest_files.len() >= build.manifests.len());
        // Bitcode blobs decode back into modules.
        let first = ir_blobs.first().unwrap();
        assert!(bitcode::decode(&root.get(first).unwrap().content).is_ok());
    }

    /// Stage A's budget on the 4-value GROMACS SIMD sweep: its 36 system-independent
    /// units preprocess to 9 texts (no file observes a `GMX_SIMD_*` definition), so
    /// the graph plans 9 preprocess nodes, and nothing else. Stage 1 classifies one
    /// argument list per configuration: GROMACS adds no per-target or per-file flags.
    #[test]
    fn stage_a_of_the_simd_sweep_plans_each_preprocessed_text_once() {
        let project = gromacs::project();
        let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"]).with_values(
            "GMX_SIMD",
            &["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"],
        );
        let plan = plan_ir_build(&project, &config).unwrap();
        assert_eq!(plan.lists.len(), 4);
        let stage_a = plan_stage_a(&project.headers, &plan.lists, &plan.sources);
        let preprocess: BTreeSet<ActionId> = stage_a
            .occurrences
            .iter()
            .map(|unit| unit.preprocess_action)
            .collect();
        assert_eq!(stage_a.occurrences.len(), 36);
        assert_eq!(preprocess.len(), 9);
        assert_eq!(stage_a.graph.len(), 9);
    }

    /// A project whose `tool` target and whose `src/a.ck` add extra flags, so
    /// every configuration has four argument lists: `app`'s `a.ck` adds
    /// `-DSRC_EXTRA`, `tool`'s commands add `-DTGT_EXTRA` and `tool`'s `a.ck`
    /// both. `a.ck` reads both definitions, `b.ck` reads `TGT_EXTRA` and `c.ck`
    /// neither; `SCALE`, the swept option, is read by `a.ck` and `b.ck`.
    fn extra_flags_project() -> ProjectSpec {
        use xaas_buildsys::{BuildOption, OptionCategory, OptionValue, TargetKind, TargetSpec};
        let kernel = |name: &str, reads: &[&str]| {
            let mut text = format!("kernel void {name}(float* x, int n) {{\n");
            for extra in reads {
                text.push_str(&format!("#ifdef {extra}\n    x[0] = {extra};\n#endif\n"));
            }
            text + "    for (int i = 0; i < n; i = i + 1) { x[i] = x[i] * SCALE; }\n}\n"
        };
        let scale = BuildOption::choice(
            "SCALE",
            "Kernel scale",
            OptionCategory::Other,
            vec![
                OptionValue::plain("one").with_definition("-DSCALE=1.0"),
                OptionValue::plain("two").with_definition("-DSCALE=2.0"),
            ],
            "one",
        );
        let files: Vec<String> = ["src/a.ck", "src/b.ck", "src/c.ck"]
            .map(String::from)
            .into();
        ProjectSpec {
            name: "extra-flags".into(),
            version: "1.0".into(),
            build_script: String::new(),
            options: vec![scale],
            sources: vec![
                SourceSpec::new("src/a.ck", kernel("a", &["SRC_EXTRA", "TGT_EXTRA"]))
                    .with_flag("-DSRC_EXTRA=3.0"),
                SourceSpec::new("src/b.ck", kernel("b", &["TGT_EXTRA"])),
                SourceSpec::new(
                    "src/c.ck",
                    "kernel void c(float* x, int n) {\n    \
                     for (int i = 0; i < n; i = i + 1) { x[i] = x[i] * 0.5; }\n}\n",
                ),
            ],
            headers: BTreeMap::new(),
            targets: vec![
                TargetSpec::new("app", TargetKind::Executable, files.clone()),
                TargetSpec::new("tool", TargetKind::Executable, files).with_flag("-DTGT_EXTRA=4.0"),
            ],
            custom_targets: vec![],
            global_flags: vec!["-O3".into()],
            mpi_abi: None,
        }
    }

    /// A configuration with several argument lists: each list is classified once,
    /// yet stage 1 counts what the per-command oracle
    /// ([`CompileCommand::canonical_key`]) counts, each occurrence's preprocess node
    /// outputs the text its own command preprocesses to (so units whose extra flags
    /// differ in a definition the file reads never share a node), and the manifests
    /// are the bytes the per-command planner wrote (pinned).
    #[test]
    fn extra_flags_split_argument_lists_and_match_the_per_command_oracle() {
        let project = extra_flags_project();
        let config = IrPipelineConfig::sweep_options(&project, &["SCALE"]);
        let mut commands: Vec<CompileCommand> = Vec::new();
        for assignment in enumerate_assignments(&project, &config).unwrap() {
            let configured = configure(&project, &assignment, BUILD_ROOT, None).unwrap();
            commands.extend(configured.compile_db.commands);
        }
        let keys: BTreeSet<String> = commands.iter().map(|c| c.canonical_key()).collect();
        assert_eq!(keys.len(), 12);

        let plan = plan_ir_build(&project, &config).unwrap();
        let stage_a = plan_stage_a(&project.headers, &plan.lists, &plan.sources);
        let store = ImageStore::new();
        let engine = Engine::uncached(&store);
        let (outputs, _) = engine.run(stage_a.graph).unwrap().into_outputs().unwrap();
        let occurrences = stage_a.occurrences;
        assert_eq!(occurrences.len(), commands.len());
        let mut node_of: BTreeMap<(&str, &str), ActionId> = BTreeMap::new();
        for (occurrence, command) in occurrences.iter().zip(&commands) {
            assert_eq!(occurrence.file, command.file());
            let SourceSpec { path, content, .. } = command.source;
            let expected =
                xaas_xir::preprocess_unit(path, content, &command.flags(), &project.headers)
                    .unwrap();
            let output = &outputs[occurrence.preprocess_action];
            assert_eq!(
                preprocessed_text(output),
                expected.text,
                "{}",
                command.target
            );
            if command.arguments.iter().any(|a| a.starts_with("-DSCALE=1")) {
                node_of.insert((path, command.target), occurrence.preprocess_action);
            }
        }
        // `tool` adds `-DTGT_EXTRA`: a split for the files that read it, a share
        // for `c.ck`, which reads no extra.
        let node = |file, target| node_of[&(file, target)];
        assert_ne!(node("src/a.ck", "app"), node("src/a.ck", "tool"));
        assert_ne!(node("src/b.ck", "app"), node("src/b.ck", "tool"));
        assert_eq!(node("src/c.ck", "app"), node("src/c.ck", "tool"));
        let nodes: BTreeSet<ActionId> = occurrences.iter().map(|o| o.preprocess_action).collect();
        assert_eq!(nodes.len(), 9);

        let built = build(&project, &config, &store, "extra:ir").unwrap();
        assert_eq!(built.stats.unique_after_generation, keys.len());
        assert_eq!(built.stats.unique_after_preprocessing, 9);
        let manifests: String = (built.manifests.iter())
            .map(|manifest| serde_json::to_string_pretty(manifest).unwrap())
            .collect();
        assert_eq!(
            xaas_container::Digest::of_str(&manifests).as_str(),
            "sha256:a9d8686b4c7cfbf7ba8123f8e777d9cddc6602c28c0d5ff6a9ea6ddf1bdf469a"
        );
        assert_eq!(plan.lists.len(), 2 * 4, "four lists per configuration");
    }

    #[test]
    fn warm_cache_build_runs_zero_compiles_and_is_byte_identical() {
        let project = lulesh::project();
        let store = ImageStore::new();
        let cache = ActionCache::new(store.clone());
        let config = IrPipelineConfig::sweep_options(&project, &["WITH_MPI", "WITH_OPENMP"]);
        let cold = build_cached(&project, &config, &cache, "warm:a").unwrap();
        // One execution per IR unit, and no memory hit: stage B plans one node per key.
        assert_eq!(
            (cold.trace.summary().executed, cold.trace.summary().cached),
            (8, 0)
        );
        let warm = build_cached(&project, &config, &cache, "warm:b").unwrap();
        assert_eq!(
            warm.trace.summary().executed,
            0,
            "warm build compiles nothing"
        );
        assert_eq!(warm.trace.summary().cached, cold.trace.summary().total());
        // Identical artifacts: same units, same stats, same layer bytes.
        assert_eq!(warm.units, cold.units);
        assert_eq!(warm.stats, cold.stats);
        assert_eq!(warm.image.layers, cold.image.layers);
        assert!(cache.stats().hit_rate() > 0.0);
    }

    /// Stage 4 as the driver derived it before identities were counted on borrowed
    /// tuples: four `String` keys per occurrence, the final ones ordered by their
    /// text. `derive_identities` must agree with it exactly.
    fn string_keyed_identities(
        occurrences: &[TuOccurrence],
        lists: &[ArgumentList],
        outputs: &[Blob],
        stages: PipelineStages,
    ) -> Identities {
        let mut generation_keys: BTreeSet<String> = BTreeSet::new();
        let mut preprocessing_keys: BTreeSet<String> = BTreeSet::new();
        let mut openmp_keys: BTreeSet<String> = BTreeSet::new();
        let mut final_keys: BTreeMap<String, usize> = BTreeMap::new();
        let mut key_of: Vec<String> = Vec::new();
        for (index, occurrence) in occurrences.iter().enumerate() {
            let TuOccurrence {
                file,
                list,
                preprocess_action,
            } = occurrence;
            let ArgumentList {
                flags, generation, ..
            } = &lists[*list];
            let output = &outputs[*preprocess_action];
            let digest = preprocessed_digest(output).to_string();
            let delayed = flags.delayed_target_flags.join(" ");
            generation_keys.insert(format!("{file}|{generation}"));
            let stage2_key = format!(
                "{file}|{digest}|omp={}|opt={}|isa={delayed}",
                flags.openmp,
                flags.opt_level().as_str(),
            );
            preprocessing_keys.insert(stage2_key.clone());
            let effective_openmp =
                flags.openmp && (!stages.openmp_detection || mentions_openmp(output));
            let stage3_key = if stages.openmp_detection {
                format!(
                    "{file}|{digest}|omp={effective_openmp}|opt={}|isa={delayed}",
                    flags.opt_level().as_str(),
                )
            } else {
                stage2_key
            };
            openmp_keys.insert(stage3_key.clone());
            let stage4_key = if stages.vectorization_delay {
                format!(
                    "{file}|{digest}|omp={effective_openmp}|opt={}",
                    flags.opt_level().as_str(),
                )
            } else {
                stage3_key
            };
            final_keys.entry(stage4_key.clone()).or_insert(index);
            key_of.push(stage4_key);
        }
        let position: BTreeMap<&String, usize> = final_keys
            .keys()
            .enumerate()
            .map(|(position, key)| (key, position))
            .collect();
        Identities {
            unique_after_generation: generation_keys.len(),
            unique_after_preprocessing: preprocessing_keys.len(),
            unique_after_openmp: openmp_keys.len(),
            representatives: final_keys.values().copied().collect(),
            final_of: key_of.iter().map(|key| position[key]).collect(),
        }
    }

    /// Every stage switch setting: the four `openmp_detection` ×
    /// `vectorization_delay` combinations.
    fn every_stage_setting() -> impl Iterator<Item = PipelineStages> {
        [(true, true), (true, false), (false, true), (false, false)]
            .into_iter()
            .map(|(openmp_detection, vectorization_delay)| PipelineStages {
                openmp_detection,
                vectorization_delay,
            })
    }

    /// The typed stage 4 against the string-keyed oracle on every sweep `reproduce`
    /// builds, under every stage setting: the same identities, and through them
    /// the same build — `PipelineStats`, the `ir-lower` labels in node order (one
    /// per final identity, labelled by its first occurrence's file) and the
    /// manifests' units, in order.
    #[test]
    fn typed_stage_4_matches_the_string_keyed_oracle_on_every_reproduce_sweep() {
        let gromacs = gromacs::project();
        let lulesh = lulesh::project();
        let simd = |values: &[&str]| {
            IrPipelineConfig::sweep_options(&gromacs, &["GMX_SIMD"]).with_values("GMX_SIMD", values)
        };
        let sweeps = [
            (
                &gromacs,
                simd(&["SSE4.1", "AVX2_128", "AVX_256", "AVX2_256", "AVX_512"]),
            ),
            (
                &gromacs,
                simd(&["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"]),
            ),
            (&gromacs, simd(&["SSE4.1", "AVX2_256", "AVX_512"])),
            (
                &gromacs,
                IrPipelineConfig::sweep_options(&gromacs, &["GMX_SIMD", "GMX_GPU"])
                    .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"])
                    .with_values("GMX_GPU", &["CUDA"]),
            ),
            (
                &gromacs,
                IrPipelineConfig::sweep_options(&gromacs, &["GMX_SIMD", "GMX_GPU"])
                    .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"])
                    .with_values("GMX_GPU", &["OFF", "CUDA"]),
            ),
            (
                &gromacs,
                IrPipelineConfig::sweep_options(&gromacs, &["GMX_OPENMP", "GMX_MPI"]),
            ),
            (
                &lulesh,
                IrPipelineConfig::sweep_options(&lulesh, &["WITH_MPI", "WITH_OPENMP"]),
            ),
        ];
        let store = ImageStore::new();
        let engine = Engine::uncached(&store);
        let mut compared = 0;
        for (project, sweep) in &sweeps {
            for stages in every_stage_setting() {
                let config = IrPipelineConfig {
                    stages,
                    ..sweep.clone()
                };
                let plan = plan_ir_build(project, &config).unwrap();
                let lists = &plan.lists;
                let stage_a = plan_stage_a(&project.headers, lists, &plan.sources);
                let occurrences = stage_a.occurrences;
                let (outputs, _) = engine.run(stage_a.graph).unwrap().into_outputs().unwrap();
                let oracle = string_keyed_identities(&occurrences, lists, &outputs, stages);
                assert_eq!(
                    derive_identities(&occurrences, lists, &outputs, stages),
                    oracle
                );

                let built = build(project, &config, &store, "oracle:ir").unwrap();
                let stats = built.stats;
                assert_eq!(
                    (
                        stats.unique_after_generation,
                        stats.unique_after_preprocessing,
                        stats.unique_after_openmp,
                        stats.unique_after_vectorization,
                    ),
                    (
                        oracle.unique_after_generation,
                        oracle.unique_after_preprocessing,
                        oracle.unique_after_openmp,
                        oracle.representatives.len(),
                    )
                );
                let labels: Vec<&str> = built
                    .trace
                    .records
                    .iter()
                    .filter(|record| record.kind == ActionKind::IrLower)
                    .map(|record| record.label.as_str())
                    .collect();
                let oracle_labels: Vec<&str> = oracle
                    .representatives
                    .iter()
                    .map(|&first| occurrences[first].file)
                    .collect();
                assert_eq!(labels, oracle_labels);
                // Each configuration lists its system-dependent units, then its
                // occurrences in order, each naming its final identity's unit.
                for manifest in &built.manifests {
                    let source = |unit: &UnitAssignment| unit.artifact.starts_with("src:");
                    let ir = manifest.units.iter().skip_while(|unit| source(unit));
                    assert!(ir.clone().all(|unit| unit.artifact.starts_with("ir:")));
                }
                let ir_units: Vec<&UnitAssignment> = built
                    .manifests
                    .iter()
                    .flat_map(|manifest| &manifest.units)
                    .filter(|unit| unit.artifact.starts_with("ir:"))
                    .collect();
                assert_eq!(ir_units.len(), occurrences.len());
                let mut artifact_of: BTreeMap<usize, &str> = BTreeMap::new();
                for ((unit, occurrence), &identity) in
                    ir_units.iter().zip(&occurrences).zip(&oracle.final_of)
                {
                    assert_eq!(unit.file, occurrence.file);
                    let artifact = *artifact_of.entry(identity).or_insert(&unit.artifact);
                    assert_eq!(unit.artifact, artifact);
                }
                compared += 1;
            }
        }
        assert_eq!(compared, sweeps.len() * 4);
    }

    /// A generated unit occurrence for the stage-4 property. Delayed flags never
    /// contain a space: that is the one input where the oracle's space-joined key
    /// and the typed tuple disagree (`-ma -mb` as one flag or two), and no
    /// configuration produces it.
    fn drawn_occurrence(
        rng: &mut proptest::TestRng,
        index: usize,
    ) -> (TuOccurrence<'static>, ArgumentList, Blob) {
        const FILES: &[&str] = &["src/a", "src/a.ck", "src/a.ck2", "src/b.ck"];
        const ARGS: &[&str] = &[
            "-DN=2",
            "-DN=3",
            "-DX",
            "-DGMX_SIMD=AVX_512",
            "-fopenmp",
            "-O2",
            "-O3",
            "-mavx2",
            "-msse4.1",
            "-march=native",
            "-mtune=generic",
            "-I/xaas/build/include",
        ];
        let mut pick = |n: usize| rng.usize_in(0, n);
        let file = FILES[pick(FILES.len())];
        let arguments: Arc<[Cow<str>]> = (0..pick(7))
            .map(|_| Cow::Borrowed(ARGS[pick(ARGS.len())]))
            .collect();
        let source = SourceSpec::new(file, "");
        let command = CompileCommand {
            directory: "/xaas/build",
            target: "app",
            source: &source,
            output: format!("{file}.o"),
            arguments,
        };
        let mut output = format!("sha256:{:064x}", pick(3)).into_bytes();
        output.push(pick(2) as u8);
        let occurrence = TuOccurrence {
            file,
            list: index,
            preprocess_action: index,
        };
        (occurrence, ArgumentList::of(&command), Blob::from(output))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Generated sweeps — repeated and reordered `-D`s, mixed `-fopenmp`,
        /// delayed `-m` flags, files that prefix one another, shared digests — give
        /// the typed stage 4 and the oracle the same identities under every stage
        /// setting.
        #[test]
        fn typed_stage_4_matches_the_string_keyed_oracle_on_generated_sweeps(
            seed in proptest::prelude::any::<u64>(),
            count in 1usize..40,
        ) {
            let mut rng = proptest::TestRng::from_name(&seed.to_string());
            let mut occurrences: Vec<TuOccurrence> = Vec::new();
            let (mut lists, mut outputs) = (Vec::new(), Vec::new());
            for index in 0..count {
                let (occurrence, list, output) = drawn_occurrence(&mut rng, index);
                occurrences.push(occurrence);
                lists.push(list);
                outputs.push(output);
            }
            for stages in every_stage_setting() {
                proptest::prop_assert_eq!(
                    derive_identities(&occurrences, &lists, &outputs, stages),
                    string_keyed_identities(&occurrences, &lists, &outputs, stages)
                );
            }
        }
    }

    #[test]
    fn unknown_sweep_option_is_rejected() {
        let project = lulesh::project();
        let store = ImageStore::new();
        let config = IrPipelineConfig {
            sweep: vec![("NOT_AN_OPTION".into(), vec!["ON".into()])],
            stages: PipelineStages::default(),
        };
        assert!(matches!(
            build(&project, &config, &store, "x:1"),
            Err(PipelineError::UnknownOption(_))
        ));
    }
}
