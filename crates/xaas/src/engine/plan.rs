//! Shared planning vocabulary for the pipeline drivers.
//!
//! The three drivers (IR build, IR deploy, source deploy) share three graph idioms,
//! every node an [`Action`] record: **deduplicated preprocess actions**
//! (preprocessing depends only on the file and the definitions it can observe, so
//! however many configurations or targets reference a unit, one unkeyed
//! `Preprocess` per distinct text suffices), the keyed steps — [`MachineLower`],
//! `IrLower` and `SdCompile`, the compile of a system-dependent source that an IR
//! deployment shares with a source deployment (Figures 6 and 8) — each `derive`
//! the step's [`BuildKey`] and each `run` its compute, and a deployment's
//! **link → commit tail**: a keyed Link whose output is the new layer's archive,
//! then one `DeployCommit` that adopts it into the derived image and publishes
//! it. So a change to what keys a step or to commit semantics lands in one place.

#![deny(clippy::unwrap_used, clippy::dbg_macro)]
use super::graph::{Action, ActionGraph, ActionId, ActionInputs};
use super::trace::ActionKind;
use crate::error::PipelineError;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use xaas_container::{
    annotation_keys, Blob, BuildKey, DeploymentFormat, Derivation, Image, ImageStore, Layer,
    Platform,
};
use xaas_hpcsim::SystemModel;
use xaas_xir::bitcode::BitcodeError;
use xaas_xir::preprocess::flag_definition;
use xaas_xir::{
    bitcode, compile_preprocessed, lower_to_machine, preprocess_unit, CompileError, CompileFlags,
    IrModule, MachineModule, Observation, TargetIsa,
};

/// A compile error in `file`.
fn compile_error(file: &str) -> impl FnOnce(CompileError) -> PipelineError + '_ {
    move |error| PipelineError::Compile {
        file: file.to_string(),
        error,
    }
}

/// A machine module's bytes: the output of every deployment artifact.
fn machine_bytes(machine: &MachineModule) -> Vec<u8> {
    serde_json::to_vec(machine).expect("machine module serialises")
}

/// Append the flags that reach the IR: the definitions in their given order (the
/// order the module's metadata records them in), OpenMP and the optimisation
/// level — never the delayed `-m…` flags, which only lowering reads.
fn with_ir_flags(record: Derivation, flags: &CompileFlags) -> Derivation {
    record
        .strs(flags.definitions.iter().map(String::as_str))
        .bool(flags.openmp)
        .str(flags.opt_level().as_str())
}

/// Append the whole target: its name, vector width and FMA.
fn with_target(record: Derivation, target: &TargetIsa) -> Derivation {
    record
        .str(&target.name)
        .u64(target.vector_width.into())
        .bool(target.fma)
}

/// A deduplicated IR unit an IR container stores: its bitcode, the very
/// `ir-lower` output the image's IR layer ships, and the module it encodes,
/// decoded the first time a [`MachineLower`] runs on it. A build holds one per
/// content id, so a unit that several targets lower is decoded once, and a warm
/// deployment, whose `machine-lower`s all hit, decodes none.
#[derive(Debug, Clone)]
pub struct IrUnit {
    /// Content identity (hex of the bitcode hash).
    pub id: String,
    /// Source file the unit was produced from.
    pub source_file: String,
    /// Whether `-fopenmp` was in effect when producing this unit.
    pub openmp: bool,
    /// The unit's bitcode.
    pub bitcode: Blob,
    /// `bitcode` decoded, once, on first use.
    module: OnceLock<Result<IrModule, BitcodeError>>,
}

impl IrUnit {
    /// A unit of `bitcode`, produced from `source_file`, not decoded yet.
    pub(crate) fn new(id: String, source_file: &str, openmp: bool, bitcode: Blob) -> Self {
        Self {
            id,
            source_file: source_file.to_string(),
            openmp,
            bitcode,
            module: OnceLock::new(),
        }
    }

    /// The IR module, decoded from [`bitcode`](IrUnit::bitcode) on the first
    /// call. Bytes that do not decode (a damaged `ir-lower` cache entry) are a
    /// [`PipelineError::Cache`] naming the unit's source file.
    pub fn module(&self) -> Result<&IrModule, PipelineError> {
        let decoded = self.module.get_or_init(|| bitcode::decode(&self.bitcode));
        decoded
            .as_ref()
            .map_err(|e| PipelineError::Cache(format!("bitcode for {}: {e}", self.source_file)))
    }
}

/// Units are equal when their bytes are: whether either was decoded yet does
/// not matter.
impl PartialEq for IrUnit {
    fn eq(&self, other: &Self) -> bool {
        let Self {
            id,
            source_file,
            openmp,
            bitcode,
            module: _,
        } = self;
        (id, source_file, openmp, bitcode)
            == (&other.id, &other.source_file, &other.openmp, &other.bitcode)
    }
}

/// A `machine-lower`: the stored IR unit `unit` lowered for `target`, output as
/// `serde_json::to_vec` of the [`MachineModule`].
pub struct MachineLower<'a> {
    /// The unit: its content id keys the node, and a miss lowers its module.
    pub unit: &'a IrUnit,
    /// The deployment target.
    pub target: &'a TargetIsa,
}

impl Action for MachineLower<'_> {
    const KIND: ActionKind = ActionKind::MachineLower;
    type Error = PipelineError;

    fn derive(&self, _: Option<&ActionInputs>, record: Derivation) -> Derivation {
        let Self { unit, target } = self;
        // The content id of the unit's bitcode covers the rest of it.
        with_target(record.str(&unit.id), target)
    }

    fn run(self, _: &ActionInputs) -> Result<Vec<u8>, PipelineError> {
        Ok(machine_bytes(&lower_to_machine(
            self.unit.module()?,
            self.target,
        )))
    }
}

/// An `ir-lower`: `file`'s preprocessed `text`, whose content digest is
/// `preprocessed`, compiled to bitcode under `flags`.
pub(crate) struct IrLower<'a> {
    pub(crate) preprocessed: &'a str,
    pub(crate) file: &'a str,
    pub(crate) flags: &'a CompileFlags,
    /// The text the file's preprocess node output ([`preprocessed_text`]).
    pub(crate) text: &'a str,
}

impl Action for IrLower<'_> {
    const KIND: ActionKind = ActionKind::IrLower;
    type Error = PipelineError;

    fn derive(&self, _: Option<&ActionInputs>, record: Derivation) -> Derivation {
        let Self {
            preprocessed,
            file,
            flags,
            // Covered by `preprocessed`, its digest.
            text: _,
        } = self;
        with_ir_flags(record.str(preprocessed).str(file), flags)
    }

    fn run(self, _: &ActionInputs) -> Result<Vec<u8>, PipelineError> {
        let module = compile_preprocessed(self.file, self.text, self.flags)
            .map_err(compile_error(self.file))?;
        Ok(bitcode::encode(&module))
    }
}

/// An `sd-compile`: the system-dependent source at `path` compiled under `flags`
/// for the deployment `target`, output as `serde_json::to_vec` of the
/// [`MachineModule`]. Its dependency 0 is the source's preprocess action: `run`
/// compiles the text that node output, and the key ends on the text's digest,
/// which covers the headers the text expanded, so no cache serves code built
/// against other headers. Its identity is the key without that digest.
pub(crate) struct SdCompile<'a> {
    pub(crate) path: &'a str,
    pub(crate) flags: &'a CompileFlags,
    pub(crate) target: &'a TargetIsa,
}

impl Action for SdCompile<'_> {
    const KIND: ActionKind = ActionKind::SdCompile;
    const KEY_READS_DEPS: bool = true;
    type Error = PipelineError;

    fn derive(&self, deps: Option<&ActionInputs>, record: Derivation) -> Derivation {
        let Self {
            path,
            flags,
            target,
        } = self;
        let record = with_target(with_ir_flags(record.str(path), flags), target);
        match deps {
            Some(deps) => record.str(preprocessed_digest(deps.dep(0))),
            None => record,
        }
    }

    fn run(self, deps: &ActionInputs) -> Result<Vec<u8>, PipelineError> {
        let text = preprocessed_text(deps.dep(0));
        let module =
            compile_preprocessed(self.path, text, self.flags).map_err(compile_error(self.path))?;
        Ok(machine_bytes(&lower_to_machine(&module, self.target)))
    }
}

/// A `preprocess`: `file`'s `content` preprocessed under `flags` with the project's
/// `headers`, output in the format [`PreprocessPlanner`] documents. Unkeyed: it runs
/// wherever planned.
struct Preprocess<'a> {
    file: &'a str,
    content: &'a str,
    flags: &'a CompileFlags,
    headers: &'a BTreeMap<String, String>,
}

impl Action for Preprocess<'_> {
    const KIND: ActionKind = ActionKind::Preprocess;
    const KEYED: bool = false;
    type Error = PipelineError;

    fn derive(&self, _: Option<&ActionInputs>, record: Derivation) -> Derivation {
        let Self {
            file: _,
            content: _,
            flags: _,
            headers: _,
        } = self;
        record
    }

    fn run(self, _: &ActionInputs) -> Result<Vec<u8>, PipelineError> {
        let unit = preprocess_unit(self.file, self.content, self.flags, self.headers)
            .map_err(compile_error(self.file))?;
        let (digest, verdict) = (unit.content_digest(), unit.mentions_openmp());
        // The output adopts the text's buffer.
        let mut output = unit.text.into_bytes();
        output.reserve_exact(1 + digest.len() + 1);
        output.push(b'\n');
        output.extend_from_slice(digest.as_bytes());
        output.push(u8::from(verdict));
        Ok(output)
    }
}

/// Schedules deduplicated preprocess actions on a graph.
///
/// Each distinct (file, sorted definitions the file can observe) pair gets one
/// [`ActionKind::Preprocess`] node. Its output is the preprocessed text — what the
/// file's compiles (`IrLower`, [`SdCompile`]) compile — then a newline, the text's
/// digest (the stage-2 identity of Figure 7, and the input every compile
/// `BuildKey` derives from) and one byte, the stage-3 verdict
/// ([`PreprocessedUnit::mentions_openmp`](xaas_xir::PreprocessedUnit::mentions_openmp)).
/// The text never ends in a newline and the digest holds none, so the digest is
/// what follows the last one. This module alone knows that format: its
/// `preprocessed_text`, `preprocessed_digest` and `mentions_openmp` read it. A
/// definition the file cannot observe ([`Observation`]) cannot change its text, so
/// configurations that differ only in such definitions share the node.
///
/// The observation is computed lazily, at most once per file: only when the file
/// comes back with a second definition set. A file planned under one set — every
/// file of a deployment — is never scanned.
///
/// Nodes are indexed by file, and a repeat is found by comparing borrowed
/// definitions in identity order. A node borrows its file, content, flags and the
/// project's headers, which outlive the graph, and its identity borrows the
/// flags' definitions: planning copies no string.
pub(crate) struct PreprocessPlanner<'env> {
    /// The project's headers (name → content), which every node includes from.
    headers: &'env BTreeMap<String, String>,
    files: BTreeMap<&'env str, FilePlans<'env>>,
    /// Scratch for the identity being looked up: positions in the flags' definitions,
    /// in identity order.
    order: Vec<usize>,
}

/// The preprocess nodes planned for one file.
#[derive(Default)]
struct FilePlans<'env> {
    /// What the file observes, once it is planned under a second definition set.
    observation: Option<Observation>,
    /// (sorted `-D` flags, node). Until the file is observed there is one, carrying
    /// all of its flags; then each carries only the flags the file observes.
    plans: Vec<(Vec<&'env str>, ActionId)>,
}

impl FilePlans<'_> {
    /// Fill `order` with the identity of `definitions`: the positions of the ones
    /// the file's observation keeps (all, before there is one), sorted by name. The
    /// sort is stable, so repeated flags for one name keep the order that decides
    /// which wins.
    fn identity(&self, definitions: &[String], order: &mut Vec<usize>) {
        fn name(flag: &str) -> Option<&str> {
            flag_definition(flag).map(|(name, _)| name)
        }
        order.clear();
        order.extend((0..definitions.len()).filter(|&i| {
            self.observation
                .as_ref()
                .is_none_or(|observation| observation.observes_flag(&definitions[i]))
        }));
        order.sort_by(|&a, &b| name(&definitions[a]).cmp(&name(&definitions[b])));
    }

    /// The node already planned under the identity `order` selects from `definitions`.
    fn find(&self, definitions: &[String], order: &[usize]) -> Option<ActionId> {
        self.plans.iter().find_map(|(planned, id)| {
            let same = planned.len() == order.len()
                && planned
                    .iter()
                    .zip(order)
                    .all(|(flag, &i)| *flag == definitions[i]);
            same.then_some(*id)
        })
    }
}

impl<'env> PreprocessPlanner<'env> {
    /// A planner whose nodes include from `headers`.
    pub(crate) fn new(headers: &'env BTreeMap<String, String>) -> Self {
        Self {
            headers,
            files: BTreeMap::new(),
            order: Vec::new(),
        }
    }

    /// The action preprocessing `file`'s `content` under `flags`, scheduling it on
    /// `graph` at first use. A preprocessor failure is a
    /// [`PipelineError::Compile`] naming `file`.
    pub(crate) fn action_for(
        &mut self,
        graph: &mut ActionGraph<'env, PipelineError>,
        file: &'env str,
        content: &'env str,
        flags: &'env CompileFlags,
    ) -> ActionId {
        let definitions = flags.definitions.as_slice();
        let order = &mut self.order;
        let plans = self.files.entry(file).or_default();
        plans.identity(definitions, order);
        if let Some(id) = plans.find(definitions, order) {
            return id;
        }
        if plans.observation.is_none() && !plans.plans.is_empty() {
            // A second definition set: observe the file, once, and narrow both
            // identities to what it observes.
            let observation = Observation::of(content, self.headers);
            for (planned, _) in &mut plans.plans {
                planned.retain(|flag| observation.observes_flag(flag));
            }
            order.retain(|&i| observation.observes_flag(&definitions[i]));
            plans.observation = Some(observation);
            if let Some(id) = plans.find(definitions, order) {
                return id;
            }
        }
        let identity = order.iter().map(|&i| definitions[i].as_str()).collect();
        let record = Preprocess {
            file,
            content,
            flags,
            headers: self.headers,
        };
        let id = graph.add_action(file, record, &[]);
        plans.plans.push((identity, id));
        id
    }
}

/// A preprocess node's `output` without its verdict byte, split at the last
/// newline into the text and the digest (an output with none is a digest alone).
fn text_and_digest(output: &[u8]) -> (&[u8], &[u8]) {
    let body = output.split_last().map_or(output, |(_, body)| body);
    match body.iter().rposition(|&byte| byte == b'\n') {
        Some(newline) => (&body[..newline], &body[newline + 1..]),
        None => (&[], body),
    }
}

/// The preprocessed text in a preprocess node's `output`.
pub(crate) fn preprocessed_text(output: &[u8]) -> &str {
    std::str::from_utf8(text_and_digest(output).0).unwrap_or_default()
}

/// The preprocessed-content digest in a preprocess node's `output`.
pub(crate) fn preprocessed_digest(output: &[u8]) -> &str {
    std::str::from_utf8(text_and_digest(output).1).unwrap_or_default()
}

/// Whether `-fopenmp` can change the code of the text a preprocess node's `output`
/// describes (true unless the node said no).
pub(crate) fn mentions_openmp(output: &[u8]) -> bool {
    output.last() != Some(&0)
}

/// The keyed artifact nodes grafted onto one graph, by record identity: the index
/// every job of a union-graph wave shares (empty for a standalone deployment). A
/// repeat identity grafts a cache-probe alias ([`ActionGraph::add_alias`]), so the
/// compute runs once per wave and each job's trace shows the hit a standalone
/// submission would have.
#[derive(Default)]
pub(crate) struct SharedDeployArtifacts(BTreeMap<BuildKey, ActionId>);

impl SharedDeployArtifacts {
    /// Graft `record` with `deps`: the first graft of its identity computes, and
    /// a later one is an alias of that first node.
    pub(crate) fn graft<'env, A: Action<Error = PipelineError> + 'env>(
        &mut self,
        graph: &mut ActionGraph<'env, PipelineError>,
        label: &str,
        record: A,
        deps: &[ActionId],
    ) -> ActionId {
        let identity = record.identity();
        if let Some(&primary) = self.0.get(&identity) {
            return graph.add_alias(label, record, identity, deps, primary);
        }
        let action = graph.add_identified(label, record, &identity, deps);
        self.0.insert(identity, action);
        action
    }
}

/// Schedules deduplicated [`Action`] records on a graph.
///
/// Nodes sharing a [`BuildKey`] coalesce on one cache flight, and the first to
/// run decides the bytes every one of them gets. Two `ir-lower` records with
/// one key need not produce the same bytes — each encodes its own unit's
/// definitions in the bitcode — so, to keep images byte-identical whatever the
/// schedule, drivers plan one representative action per distinct key and
/// remember, for every logical unit, the *position* of its key's action among
/// the scheduled ones (the index of its output in a downstream Link node's
/// inputs). The IR build plans its `ir-lower` records with this: their keys need
/// stage-A outputs before the graph exists.
#[derive(Default)]
pub(crate) struct KeyedActionPlanner {
    position_by_key: BTreeMap<BuildKey, usize>,
    actions: Vec<ActionId>,
}

impl KeyedActionPlanner {
    /// The position of the action of `record`'s key among the scheduled actions,
    /// adding `record` (with no dependencies) only the first time its key is seen.
    pub(crate) fn position_for<'env, E: Send + 'static, A: Action<Error = E> + 'env>(
        &mut self,
        graph: &mut ActionGraph<'env, E>,
        label: &str,
        record: A,
    ) -> usize {
        let key = record.identity();
        if let Some(&position) = self.position_by_key.get(&key) {
            return position;
        }
        let position = self.actions.len();
        self.actions
            .push(graph.add_identified(label, record, &key, &[]));
        self.position_by_key.insert(key, position);
        position
    }

    /// The scheduled action ids, in planning order (a Link node's dependency list).
    pub(crate) fn into_actions(self) -> Vec<ActionId> {
        self.actions
    }
}

/// A deployment's commit, the node after its Link record, whose output is the
/// deployed layer's archive. It adopts that archive under the digest the cache
/// holds for it (hashing, decoding and copying nothing), derives the deployed
/// image from `base` around it, commits that image to `store` as `reference`
/// and leaves it in `committed`, and outputs the committed manifest digest. An
/// output that is no layer archive (a damaged cache entry) is a
/// [`PipelineError::Cache`] naming `reference`, and nothing is committed.
pub(crate) struct DeployCommit<'a> {
    /// The IR or source container the deployment derives from.
    pub(crate) base: &'a Image,
    pub(crate) reference: &'a str,
    pub(crate) system: &'a SystemModel,
    /// The selected configuration.
    pub(crate) label: &'a str,
    /// The one annotation the routes differ in: the IR route's SIMD level, the
    /// source route's base image.
    pub(crate) annotation: (&'static str, &'a str),
    pub(crate) store: &'a ImageStore,
    pub(crate) committed: &'a OnceLock<Image>,
}

impl Action for DeployCommit<'_> {
    const KIND: ActionKind = ActionKind::Commit;
    const KEYED: bool = false;
    const READS_DEP_DIGESTS: bool = true;
    type Error = PipelineError;

    fn derive(&self, _: Option<&ActionInputs>, record: Derivation) -> Derivation {
        let Self {
            base: _,
            reference: _,
            system: _,
            label: _,
            annotation: _,
            store: _,
            committed: _,
        } = self;
        record
    }

    fn run(self, deps: &ActionInputs) -> Result<Vec<u8>, PipelineError> {
        let reference = self.reference;
        let layer = Layer::from_archive_blob(deps.dep_blob(0).clone(), deps.dep_digest(0))
            .map_err(|e| PipelineError::Cache(format!("deployed layer of {reference}: {e}")))?;
        let mut image = Image::derive_from(self.base, reference);
        image.platform = Platform::linux(crate::source_container::architecture_of(self.system));
        image.set_deployment_format(DeploymentFormat::Binary);
        image.annotate(annotation_keys::SELECTED_CONFIGURATION, self.label);
        image.annotate(annotation_keys::TARGET_SYSTEM, self.system.name.as_str());
        image.annotate(self.annotation.0, self.annotation.1);
        image.push_layer(layer);
        let descriptor = self.store.commit(&image);
        // One commit node per plan: the cell is empty.
        let _ = self.committed.set(image);
        Ok(descriptor.digest.as_str().as_bytes().to_vec())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::engine::graph::derive_key;
    use crate::engine::Engine;
    use xaas_container::Architecture;
    use xaas_xir::Compiler;

    #[test]
    fn preprocess_planner_deduplicates_by_file_and_definitions() {
        let headers = BTreeMap::new();
        let source =
            "kernel void f(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = N; } }";
        // Nodes borrow their flags, so every set outlives the graph.
        let sets: &[&[&str]] = &[
            &[],
            &["-DX=1"],
            &["-DN=2"],
            &["-DX=1", "-DN=2"],
            &["-DN(a)=a"],
            &["-DN=2", "-DN=3"],
            &["-DN=3", "-DN=2"],
        ];
        let parsed: Vec<CompileFlags> = (sets.iter())
            .map(|defs| CompileFlags::parse(std::iter::once(&"-O2").chain(*defs).copied()))
            .collect();
        let mut planner = PreprocessPlanner::new(&headers);
        let mut graph: ActionGraph<'_, PipelineError> = ActionGraph::new();
        let mut plan = |file: &'static str, defs: &[&str]| {
            let set = sets.iter().position(|set| *set == defs).unwrap();
            planner.action_for(&mut graph, file, source, &parsed[set])
        };
        let plain = plan("f.ck", &[]);
        assert_eq!(
            plain,
            plan("f.ck", &[]),
            "same (file, defs) shares one action"
        );
        // `X` is no token of the file (`x` is): it cannot change the text.
        assert_eq!(
            plain,
            plan("f.ck", &["-DX=1"]),
            "an unobserved definition shares"
        );
        let observed = plan("f.ck", &["-DN=2"]);
        assert_ne!(plain, observed, "an observed definition splits");
        assert_eq!(observed, plan("f.ck", &["-DX=1", "-DN=2"]));
        let named = plan("f.ck", &["-DN(a)=a"]);
        assert_ne!(plain, named, "a non-identifier name splits");
        assert_ne!(observed, named);
        // Which of two flags for one name wins depends on their order.
        let later = plan("f.ck", &["-DN=2", "-DN=3"]);
        assert_ne!(later, plan("f.ck", &["-DN=3", "-DN=2"]));
        // A file's first set is narrowed too once a second one arrives.
        let other = plan("g.ck", &["-DX=1"]);
        assert_ne!(plain, other, "files split the identity");
        assert_eq!(other, plan("g.ck", &[]));
        assert_eq!(graph.len(), 6);
    }

    /// A preprocess node's output reads back as its text, the text's digest and
    /// the stage-3 verdict, and the compiles that read it produce what compiling
    /// the source does.
    #[test]
    fn a_preprocess_output_reads_back_as_digest_and_verdict() {
        let mut compiler = Compiler::new();
        compiler.add_header("scale.h", "#define SCALE 2.0\n");
        let store = ImageStore::new();
        let engine = Engine::uncached(&store);
        let flags = flags(&["-O3", "-DN=4", "-fopenmp", "-mavx2"]);
        let mut planner = PreprocessPlanner::new(&compiler.headers);
        let mut graph: ActionGraph<'_, PipelineError> = ActionGraph::new();
        let target = TargetIsa::vector("x86_64-avx2", 8, true);
        let units = [
            (
                "omp.ck",
                "#include \"scale.h\"\nkernel void f(float* x) {\n  #pragma omp parallel for\n  \
                 for (int i = 0; i < N; i = i + 1) { x[i] = SCALE * x[i]; }\n}\n",
                true,
            ),
            ("plain.ck", "kernel void f(float* x) { x[0] = 1.0; }", false),
            (
                "empty.ck",
                "#if 0\nkernel void f(float* x) {}\n#endif\n",
                false,
            ),
        ];
        let ids =
            units.map(|(file, source, _)| planner.action_for(&mut graph, file, source, &flags));
        let (outputs, _) = engine.run(graph).unwrap().into_outputs().unwrap();
        for (id, (file, source, omp)) in ids.into_iter().zip(units) {
            let output = &outputs[id];
            let unit = compiler.preprocess_only(file, source, &flags).unwrap();
            assert_eq!(preprocessed_text(output), unit.text);
            assert_eq!(preprocessed_digest(output), unit.content_digest());
            assert_eq!(mentions_openmp(output), omp);

            let module = compiler.compile_to_ir(file, source, &flags).unwrap();
            let deps = ActionInputs::new(vec![output.clone()]);
            let ir_lower = IrLower {
                preprocessed: preprocessed_digest(output),
                file,
                flags: &flags,
                text: preprocessed_text(output),
            };
            assert_eq!(ir_lower.run(&deps).unwrap(), bitcode::encode(&module));
            let sd_compile = SdCompile {
                path: file,
                flags: &flags,
                target: &target,
            };
            let machine = lower_to_machine(&module, &target);
            assert_eq!(sd_compile.run(&deps).unwrap(), machine_bytes(&machine));
        }
    }

    fn flags(flags: &[&str]) -> CompileFlags {
        CompileFlags::parse(flags.iter().map(|flag| flag.to_string()))
    }

    /// The key of a `machine-lower` of the unit `id`: it reads only the id,
    /// not the bitcode.
    fn machine_lower_key(id: &str, target: &TargetIsa) -> BuildKey {
        let unit = IrUnit::new(id.to_string(), "m.ck", false, Blob::from(&b"XBC1"[..]));
        MachineLower {
            unit: &unit,
            target,
        }
        .identity()
    }

    fn ir_lower_key(preprocessed: &str, file: &str, flags: &CompileFlags) -> BuildKey {
        IrLower {
            preprocessed,
            file,
            flags,
            text: "",
        }
        .identity()
    }

    /// The identity of an `sd-compile`, planned before its preprocess ran.
    fn sd_compile_identity(
        path: &'static str,
        flags: &CompileFlags,
        target: &TargetIsa,
    ) -> BuildKey {
        let record = SdCompile {
            path,
            flags,
            target,
        };
        record.identity()
    }

    /// The key of an `sd-compile` whose preprocess dependency output `digest`.
    fn sd_compile_key(
        digest: &str,
        path: &'static str,
        flags: &CompileFlags,
        target: &TargetIsa,
    ) -> BuildKey {
        let record = SdCompile {
            path,
            flags,
            target,
        };
        let mut output = digest.as_bytes().to_vec();
        output.push(1);
        let deps = ActionInputs::new(vec![output.into()]);
        derive_key(&record, Some(&deps))
    }

    /// Populated disk tiers outlive the binary: no key may drift. Each pin is the
    /// digest of its kind's typed record.
    #[test]
    fn sd_compile_key_is_pinned() {
        let flags = flags(&["-O2", "-DUSE_MPI=1", "-DA", "-fopenmp"]);
        let target = crate::targets::target_isa_for(xaas_hpcsim::SimdLevel::Avx512);
        let digest = "sha256:0123456789abcdef";
        let key = sd_compile_key(digest, "src/comm/halo.ck", &flags, &target);
        assert_eq!(
            key.digest().as_str(),
            "sha256:cbb95f666509400d67a0d45f72117551fec7f288e5fe14f075fd76188720990e"
        );
    }

    #[test]
    fn machine_lower_key_is_pinned() {
        let target = crate::targets::target_isa_for(xaas_hpcsim::SimdLevel::Avx2_256);
        let key = machine_lower_key("0123456789abcdef", &target);
        assert_eq!(
            key.digest().as_str(),
            "sha256:531896b31a14d8259d0526eef708a27864cc5d2b99b0a74a206e5bbb45574dfd"
        );
    }

    #[test]
    fn ir_lower_key_is_pinned() {
        let flags = flags(&["-O3", "-DGMX_DOUBLE=OFF", "-fopenmp"]);
        let key = ir_lower_key("sha256:0123456789abcdef", "src/mdlib/force.ck", &flags);
        assert_eq!(
            key.digest().as_str(),
            "sha256:c77d1b24e5f0460071e9605ada49a45ba1ca94a51d2a908d36c69243d00cd0a8"
        );
    }

    /// A delayed `-m…` flag does not move an `ir-lower` key; a dropped definition
    /// does, and so does the order of the definitions, which the module's
    /// metadata records.
    #[test]
    fn ir_lower_key_ignores_target_flags_but_not_definition_order() {
        let key = |flags: &CompileFlags| ir_lower_key("sha256:0a", "f.ck", flags);
        let a = flags(&["-DA", "-DB", "-O3", "-mavx2"]);
        assert_eq!(key(&a), key(&flags(&["-DA", "-DB", "-O3", "-msse4.1"])));
        assert_ne!(key(&a), key(&flags(&["-DB", "-DA", "-O3", "-mavx2"])));
        assert_eq!(key(&a), key(&a.without_delayed_target_flags()));
        assert_ne!(key(&a), key(&flags(&["-DA", "-O3"])));
        assert_ne!(key(&a), key(&flags(&["-DA", "-DB", "-O2"])));
        assert_ne!(key(&a), key(&flags(&["-DA", "-DB", "-O3", "-fopenmp"])));
        assert_ne!(key(&a), ir_lower_key("sha256:0b", "f.ck", &a));
        assert_ne!(key(&a), ir_lower_key("sha256:0a", "g.ck", &a));
    }

    /// Two targets with one name but another vector width, or another FMA, lower
    /// and compile to other code, so they get other keys.
    #[test]
    fn deployment_keys_name_the_whole_target() {
        let flags = flags(&["-O2", "-DA"]);
        let base = TargetIsa::vector("x86_64-avx_256", 8, true);
        let wider = TargetIsa::vector("x86_64-avx_256", 16, true);
        let no_fma = TargetIsa::vector("x86_64-avx_256", 8, false);
        for other in [&wider, &no_fma] {
            assert_ne!(
                machine_lower_key("unit", &base),
                machine_lower_key("unit", other)
            );
            assert_ne!(
                sd_compile_key("sha256:0a", "a.ck", &flags, &base),
                sd_compile_key("sha256:0a", "a.ck", &flags, other)
            );
            assert_ne!(
                sd_compile_identity("a.ck", &flags, &base),
                sd_compile_identity("a.ck", &flags, other)
            );
        }
        // The alias identity is the key's record without its last field: no key.
        assert_ne!(
            sd_compile_identity("a.ck", &flags, &base),
            sd_compile_key("", "a.ck", &flags, &base)
        );
    }

    /// A deployment's commit adopts its Link's layer archive into the image it
    /// derives and publishes it; an output that is no archive commits nothing.
    #[test]
    fn commit_tail_publishes_the_linked_image() {
        let store = ImageStore::new();
        let engine = Engine::uncached(&store).with_workers(2);
        let base = Image::new("plan:base", Platform::linux(Architecture::XirIr));
        let system = SystemModel::ault23();
        let mut layer = Layer::new("RUN link");
        layer.add_text("/opt/app/bin/a", "linked");
        for (reference, archive) in [("plan:commit", layer.to_archive()), ("plan:bad", vec![7])] {
            let committed = OnceLock::new();
            let mut graph: ActionGraph<'_, PipelineError> = ActionGraph::new();
            let link = graph.add(ActionKind::Link, "image", &[], move |_| Ok(archive));
            let commit = DeployCommit {
                base: &base,
                reference,
                system: &system,
                label: "default",
                annotation: ("dev.xaas.simd", "AVX_512"),
                store: engine.store(),
                committed: &committed,
            };
            let commit = graph.add_action("commit", commit, &[link]);
            let run = engine.run(graph).unwrap();
            let Some(image) = committed.into_inner() else {
                assert!(matches!(run.into_outputs(), Err(PipelineError::Cache(_))));
                assert!(store.resolve(reference).is_err());
                continue;
            };
            let digest = String::from_utf8(run.output(commit).unwrap().to_vec()).unwrap();
            assert_eq!(store.resolve(reference).unwrap().as_str(), digest);
            assert_eq!(image.annotations["dev.xaas.simd"], "AVX_512");
            assert_eq!(image.layers.last().unwrap().sealed().1, layer.sealed().1);
        }
    }
}
