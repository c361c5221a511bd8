//! Shared planning vocabulary for the pipeline drivers.
//!
//! The three drivers (IR build, IR deploy, source deploy) share three graph idioms:
//! scheduling **deduplicated preprocess actions** (preprocessing depends only on the
//! file and the definitions it can observe, so however many configurations or
//! targets reference a unit, one action per distinct text suffices), the
//! **`sd-compile`** of a system-dependent source on the deployment target (an IR
//! deployment contains a source deployment, Figures 6 and 8: the
//! `SdCompilePlanner` owns the node's identity, cache key, compile closure and
//! cross-job alias for both), and the **link → commit tail** (a typed
//! assembled value crosses the graph boundary through a [`LinkSlot`], and a Commit
//! node publishes the image to the engine's store). This module hosts all three so a
//! change to what keys a deployment step (ROADMAP 1(a)/(b)) or to commit semantics lands
//! in one place.

#![deny(clippy::unwrap_used, clippy::dbg_macro)]
use super::graph::{ActionGraph, ActionId, ActionInputs};
use super::trace::ActionKind;
use crate::error::PipelineError;
use crate::ir_container::TOOLCHAIN_ID;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use xaas_buildsys::SourceSpec;
use xaas_container::{BuildKey, Image, ImageStore};
use xaas_xir::preprocess::flag_definition;
use xaas_xir::{CompileFlags, Compiler, Observation, TargetIsa};

/// Schedules deduplicated preprocess actions on a graph.
///
/// Each distinct (file, sorted definitions the file can observe) pair gets one
/// [`ActionKind::Preprocess`] node. Its output is the preprocessed-content digest (the
/// stage-2 identity of Figure 7, and the input every compile `BuildKey` derives from)
/// followed by one byte, the stage-3 verdict
/// ([`PreprocessedUnit::mentions_openmp`](xaas_xir::PreprocessedUnit::mentions_openmp)).
/// This module alone knows that format: its `preprocessed_digest` and
/// `mentions_openmp` read it. A definition the file cannot observe
/// ([`Observation`]) cannot change its text, so configurations that differ only in
/// such definitions share the node.
///
/// The observation is computed lazily, at most once per file: only when the file
/// comes back with a second definition set. A file planned under one set — every
/// file of a deployment — is never scanned.
#[derive(Default)]
pub struct PreprocessPlanner {
    /// (file, sorted `-D` flags) → node. A file's flags are all of them until it is
    /// observed, then only those it observes.
    actions: BTreeMap<(String, Vec<String>), ActionId>,
    /// The files planned under two or more definition sets, with what each observes.
    observed: BTreeMap<String, Observation>,
}

impl PreprocessPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The (file, sorted definitions) identity preprocessing dedups on, keeping only
    /// the definitions `observation` observes when there is one. The sort is by name
    /// and stable, so repeated flags for one name keep the order that decides which
    /// wins.
    fn identity(
        file: &str,
        flags: &CompileFlags,
        observation: Option<&Observation>,
    ) -> (String, Vec<String>) {
        let mut definitions = flags.definitions.clone();
        if let Some(observation) = observation {
            definitions.retain(|flag| observation.observes_flag(flag));
        }
        fn name(flag: &str) -> Option<&str> {
            flag_definition(flag).map(|(name, _)| name)
        }
        definitions.sort_by(|a, b| name(a).cmp(&name(b)));
        (file.to_string(), definitions)
    }

    /// The identity `identity`'s file is already planned under, while that is its
    /// only one: until a file is observed it has at most one, and every identity of
    /// a file is adjacent to the others.
    fn sole_plan(&self, identity: &(String, Vec<String>)) -> Option<(String, Vec<String>)> {
        let file = identity.0.as_str();
        if self.observed.contains_key(file) {
            return None;
        }
        let before = self.actions.range(..identity).next_back();
        let after = self.actions.range(identity..).next();
        before
            .into_iter()
            .chain(after)
            .map(|(planned, _)| planned)
            .find(|(planned, _)| planned == file)
            .cloned()
    }

    /// The action producing `file`'s preprocessed-content digest under `flags`,
    /// scheduling it on `graph` at first use. A preprocessor failure is a
    /// [`PipelineError::Compile`] naming `file`. The source `content` is copied only
    /// when a new action is actually scheduled, never for deduplicated repeats.
    pub fn action_for<'env>(
        &mut self,
        graph: &mut ActionGraph<'env, PipelineError>,
        compiler: &'env Compiler,
        file: &str,
        content: &str,
        flags: &CompileFlags,
    ) -> ActionId {
        let mut identity = Self::identity(file, flags, self.observed.get(file));
        if let Some(&id) = self.actions.get(&identity) {
            return id;
        }
        if let Some(mut planned) = self.sole_plan(&identity) {
            // A second definition set: observe the file, once, and narrow both
            // identities to what it observes.
            let observation = Observation::of(content, &compiler.headers);
            if let Some(id) = self.actions.remove(&planned) {
                planned.1.retain(|flag| observation.observes_flag(flag));
                self.actions.insert(planned, id);
            }
            identity.1.retain(|flag| observation.observes_flag(flag));
            self.observed.insert(file.to_string(), observation);
            if let Some(&id) = self.actions.get(&identity) {
                return id;
            }
        }
        let file = file.to_string();
        let content = content.to_string();
        let flags = flags.clone();
        let id = graph.add(ActionKind::Preprocess, file.clone(), &[], move |_| {
            let preprocessed =
                compiler
                    .preprocess_only(&file, &content, &flags)
                    .map_err(|error| PipelineError::Compile {
                        file: file.clone(),
                        error,
                    })?;
            let mut output = preprocessed.content_digest().into_bytes();
            output.push(u8::from(preprocessed.mentions_openmp()));
            Ok(output)
        });
        self.actions.insert(identity, id);
        id
    }
}

/// The preprocessed-content digest in a preprocess node's `output`.
pub(crate) fn preprocessed_digest(output: &[u8]) -> &str {
    let digest = output.split_last().map_or(output, |(_, digest)| digest);
    std::str::from_utf8(digest).unwrap_or_default()
}

/// Whether `-fopenmp` can change the code of the text a preprocess node's `output`
/// describes (true unless the node said no).
pub(crate) fn mentions_openmp(output: &[u8]) -> bool {
    output.last() != Some(&0)
}

/// The keyed artifact nodes already grafted onto one graph, by static identity: the
/// index every job of a union-graph wave shares (a standalone deployment starts from
/// an empty one). A job whose artifact identity is already present grafts a
/// *cache-probe alias* — a keyed node ordered after the identity's first node by a
/// dependency edge — instead of a second compute node: the expensive closure
/// exists once per wave, and the alias deterministically replays the cache hit a
/// standalone submission of the job would have observed, so per-job traces and
/// hit/miss deltas equal those of per-job submissions.
pub(crate) type SharedDeployArtifacts = BTreeMap<String, ActionId>;

/// The one definition of an `sd-compile`: compiling a system-dependent source from
/// scratch for the deployment `target`, keyed by what its preprocess action outputs.
pub(crate) struct SdCompilePlanner<'env> {
    compiler: &'env Compiler,
    target: &'env TargetIsa,
    preprocess: PreprocessPlanner,
}

impl<'env> SdCompilePlanner<'env> {
    pub(crate) fn new(compiler: &'env Compiler, target: &'env TargetIsa) -> Self {
        Self {
            compiler,
            target,
            preprocess: PreprocessPlanner::new(),
        }
    }

    /// What fixes the artifact before anything ran: the file, the flags that reach the
    /// IR (the key carries the sorted definitions) and the target. A deployment plans
    /// one node per identity; a wave aliases on it.
    pub(crate) fn identity(path: &str, flags: &CompileFlags, target: &TargetIsa) -> String {
        format!("sd|{path}|{}|{}", flags.ir_relevant_key(), target.name)
    }

    /// The cache key of the identity once `digest`, the *preprocessed* content digest
    /// its preprocess dependency outputs, is known. The digest covers the headers the
    /// compiler resolves (the cache contract), so caches shared across projects can
    /// never serve code built against different header definitions.
    pub(crate) fn key(
        digest: &str,
        path: &str,
        flags: &CompileFlags,
        target: &TargetIsa,
    ) -> BuildKey {
        BuildKey::new(
            digest,
            &target.name,
            format!("file={path};{}", flags.ir_relevant_key()),
            TOOLCHAIN_ID,
        )
    }

    /// The (deduplicated) preprocess action of `source` under `flags`. Drivers graft
    /// these first, so that all preprocess records precede the artifact records.
    pub(crate) fn preprocess_for(
        &mut self,
        graph: &mut ActionGraph<'env, PipelineError>,
        source: &SourceSpec,
        flags: &CompileFlags,
    ) -> ActionId {
        let SourceSpec { path, content, .. } = source;
        self.preprocess
            .action_for(graph, self.compiler, path, content, flags)
    }

    /// Graft the `sd-compile` of `source` under `flags`, keyed at dispatch time from
    /// the output of its `preprocess` action. The first graft of an identity computes
    /// (`serde_json::to_vec` of the [`MachineModule`](xaas_xir::MachineModule)) and is
    /// recorded in `shared`; a later one replays it as a cache-probe alias.
    pub(crate) fn action_for(
        &self,
        graph: &mut ActionGraph<'env, PipelineError>,
        shared: &mut SharedDeployArtifacts,
        preprocess: ActionId,
        source: &'env SourceSpec,
        flags: &'env CompileFlags,
    ) -> ActionId {
        let (compiler, target) = (self.compiler, self.target);
        let path = source.path.as_str();
        let key_of = move |inputs: &ActionInputs| {
            Self::key(preprocessed_digest(inputs.dep(0)), path, flags, target)
        };
        let identity = Self::identity(path, flags, target);
        if let Some(&primary) = shared.get(&identity) {
            return graph.add_cached_derived(
                ActionKind::SdCompile,
                path,
                key_of,
                &[preprocess, primary],
                |inputs| Ok(inputs.dep(1).to_vec()),
            );
        }
        let action = graph.add_cached_derived(
            ActionKind::SdCompile,
            path,
            key_of,
            &[preprocess],
            move |_| {
                let machine = compiler
                    .compile_to_machine(path, &source.content, flags, target)
                    .map_err(|error| PipelineError::Compile {
                        file: path.to_string(),
                        error,
                    })?;
                Ok(serde_json::to_vec(&machine).expect("machine module serialises"))
            },
        );
        shared.insert(identity, action);
        action
    }
}

/// Schedules deduplicated cache-keyed actions on a graph.
///
/// Nodes sharing a [`BuildKey`] coalesce on one cache flight, and the first to
/// run decides the bytes every one of them gets. Two `ir-lower` closures with
/// one key need not produce the same bytes — each encodes its own unit's
/// definitions in the bitcode — so, to keep images byte-identical whatever the
/// schedule, drivers plan one representative action per distinct key and
/// remember, for every logical unit, the *position* of its key's action among
/// the scheduled ones (the index of its output in a downstream Link node's
/// inputs). The IR build plans its `ir-lower` actions with this: their keys need
/// stage-A outputs before the graph exists.
#[derive(Default)]
pub struct KeyedActionPlanner {
    position_by_key: BTreeMap<String, usize>,
    actions: Vec<ActionId>,
}

impl KeyedActionPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The position of `key`'s action among the scheduled actions, calling
    /// `schedule` (which must `add_cached` one node for `key` on `graph`) only the
    /// first time the key is seen.
    pub fn position_for<'env, E>(
        &mut self,
        graph: &mut ActionGraph<'env, E>,
        key: xaas_container::BuildKey,
        schedule: impl FnOnce(&mut ActionGraph<'env, E>, xaas_container::BuildKey) -> ActionId,
    ) -> usize {
        let key_digest = key.digest().as_str().to_string();
        if let Some(&position) = self.position_by_key.get(&key_digest) {
            return position;
        }
        let position = self.actions.len();
        let id = schedule(graph, key);
        self.position_by_key.insert(key_digest, position);
        self.actions.push(id);
        position
    }

    /// The scheduled action ids, in planning order (a Link node's dependency list).
    pub fn into_actions(self) -> Vec<ActionId> {
        self.actions
    }
}

/// A typed slot a Link action uses to hand its assembled result to the driver.
///
/// Graph nodes exchange bytes; the assembled `Image` (plus whatever the driver needs
/// back — IR units, manifests, the deployed artifact blobs) crosses the graph boundary
/// through this slot instead of being serialised. The Commit action seals the image's
/// layers in place, so the image the driver takes out carries their archives and
/// digests, and whatever derives from it later inherits them.
pub struct LinkSlot<T> {
    inner: Mutex<Option<T>>,
}

impl<T> Default for LinkSlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LinkSlot<T> {
    /// An empty slot.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(None),
        }
    }

    /// Store the link action's assembled value.
    pub fn put(&self, value: T) {
        *self.inner.lock() = Some(value);
    }

    /// Read the assembled value in place (used by the Commit action).
    pub fn with<R>(&self, read: impl FnOnce(&T) -> R) -> Option<R> {
        self.inner.lock().as_ref().map(read)
    }

    /// Take the assembled value out (used by the driver after the run).
    pub fn into_inner(self) -> Option<T> {
        self.inner.into_inner()
    }
}

/// Append the standard commit tail: a [`ActionKind::Commit`] node depending on
/// `link` that commits the image the link action stored in `slot` (located via
/// `image_of`) to `store`, outputting the committed manifest digest.
pub fn add_commit_action<'env, T: Send, E: Send + 'static>(
    graph: &mut ActionGraph<'env, E>,
    label: String,
    store: &'env ImageStore,
    slot: &'env LinkSlot<T>,
    image_of: impl Fn(&T) -> &Image + Send + 'env,
    link: ActionId,
) -> ActionId {
    graph.add(ActionKind::Commit, label, &[link], move |_| {
        let digest = slot
            .with(|assembled| {
                let descriptor = store.commit(image_of(assembled));
                descriptor.digest.as_str().as_bytes().to_vec()
            })
            .expect("link action stored the assembled image");
        Ok(digest)
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use xaas_container::{Architecture, Platform};

    #[test]
    fn preprocess_planner_deduplicates_by_file_and_definitions() {
        let compiler = Compiler::new();
        let mut planner = PreprocessPlanner::new();
        let mut graph: ActionGraph<'_, PipelineError> = ActionGraph::new();
        let source =
            "kernel void f(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = N; } }";
        let flags = |defs: &[&str]| {
            CompileFlags::parse(
                std::iter::once("-O2")
                    .chain(defs.iter().copied())
                    .map(String::from),
            )
        };
        let mut plan = |file: &str, defs: &[&str]| {
            planner.action_for(&mut graph, &compiler, file, source, &flags(defs))
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

    /// A preprocess node's output reads back as its text's digest and stage-3 verdict.
    #[test]
    fn a_preprocess_output_reads_back_as_digest_and_verdict() {
        let compiler = Compiler::new();
        let store = ImageStore::new();
        let engine = Engine::uncached(&store);
        let mut planner = PreprocessPlanner::new();
        let mut graph: ActionGraph<'_, PipelineError> = ActionGraph::new();
        let flags = CompileFlags::default();
        let units = [
            (
                "omp.ck",
                "#pragma omp parallel for\nfor (int i = 0; i < n; i = i + 1) {}",
                true,
            ),
            ("plain.ck", "kernel void f(float* x) { x[0] = 1.0; }", false),
        ];
        let ids = units.map(|(file, source, _)| {
            planner.action_for(&mut graph, &compiler, file, source, &flags)
        });
        let (outputs, _) = engine.run(graph).unwrap().into_outputs().unwrap();
        for (id, (file, source, omp)) in ids.into_iter().zip(units) {
            let unit = compiler.preprocess_only(file, source, &flags).unwrap();
            assert_eq!(preprocessed_digest(&outputs[id]), unit.content_digest());
            assert_eq!(mentions_openmp(&outputs[id]), omp);
        }
    }

    /// Populated disk tiers outlive the binary: the `sd-compile` key must not drift.
    /// The hex is what the two pre-planner copies of the format produced.
    #[test]
    fn sd_compile_key_is_pinned() {
        let flags =
            CompileFlags::parse(["-O2", "-DUSE_MPI=1", "-DA", "-fopenmp"].map(str::to_string));
        let target = crate::targets::target_isa_for(xaas_hpcsim::SimdLevel::Avx512);
        let digest = "sha256:0123456789abcdef";
        let key = SdCompilePlanner::key(digest, "src/comm/halo.ck", &flags, &target);
        assert_eq!(
            key.canonical(),
            "tu=sha256:0123456789abcdef\nisa=x86_64-avx_512\n\
             opts=file=src/comm/halo.ck;defs=-DA,-DUSE_MPI=1;openmp=true;opt=O2\n\
             toolchain=xirc-19/xir.v1\n"
        );
        assert_eq!(
            key.digest().as_str(),
            "sha256:aa8e7673fda38421d262a4b64f9d1104280944180ffda8254ab5368e3550db24"
        );
    }

    #[test]
    fn commit_tail_publishes_the_linked_image() {
        let store = ImageStore::new();
        let engine = Engine::uncached(&store).with_workers(2);
        let slot: LinkSlot<Image> = LinkSlot::new();
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        let link = {
            let slot = &slot;
            graph.add(ActionKind::Link, "image", &[], move |_| {
                slot.put(Image::new(
                    "plan:commit",
                    Platform::linux(Architecture::Amd64),
                ));
                Ok(Vec::new())
            })
        };
        let commit = add_commit_action(
            &mut graph,
            "commit".to_string(),
            engine.store(),
            &slot,
            |image| image,
            link,
        );
        let run = engine.run(graph).unwrap();
        assert!(run.succeeded());
        let digest = String::from_utf8(run.output(commit).unwrap().to_vec()).unwrap();
        assert_eq!(store.resolve("plan:commit").unwrap().as_str(), digest);
        assert!(slot.into_inner().is_some());
    }
}
