//! Shared planning vocabulary for the pipeline drivers.
//!
//! The three drivers (IR build, IR deploy, source deploy) share two graph idioms:
//! scheduling **deduplicated preprocess actions** (preprocessing depends only on the
//! (file, definition set) pair, so however many configurations or targets reference a
//! unit, one action suffices) and the **link → commit tail** (a typed assembled value
//! crosses the graph boundary through a [`LinkSlot`], and a Commit node publishes the
//! image to the engine's store). This module hosts both so a change to commit
//! semantics — e.g. the ROADMAP's registry-streaming follow-on — lands in one place.

#![deny(clippy::unwrap_used, clippy::dbg_macro)]
use super::graph::{ActionGraph, ActionId};
use super::trace::ActionKind;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use xaas_container::{Image, ImageStore};
use xaas_xir::{CompileError, CompileFlags, Compiler};

/// Schedules deduplicated preprocess actions on a graph.
///
/// Each distinct (file, sorted definition set) pair gets one
/// [`ActionKind::Preprocess`] node whose output is the preprocessed-content digest
/// (the stage-2 identity of Figure 7, and the input every compile `BuildKey` derives
/// from).
#[derive(Default)]
pub struct PreprocessPlanner {
    actions: BTreeMap<(String, String), ActionId>,
}

impl PreprocessPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The (file, sorted definition set) identity preprocessing dedups on. AST-level
    /// analyses over the preprocessed source (OpenMP detection) share this identity,
    /// so drivers use it for their own per-unit dedup maps too.
    pub fn identity(file: &str, flags: &CompileFlags) -> (String, String) {
        let mut defs = flags.definitions.clone();
        defs.sort();
        (file.to_string(), defs.join(","))
    }

    /// The action producing `file`'s preprocessed-content digest under `flags`,
    /// scheduling it on `graph` at first use. `make_error` lifts a preprocessor
    /// failure into the driver's error type. The source `content` is copied only
    /// when a new action is actually scheduled, never for deduplicated repeats.
    pub fn action_for<'env, E: 'env>(
        &mut self,
        graph: &mut ActionGraph<'env, E>,
        compiler: &'env Compiler,
        file: &str,
        content: &str,
        flags: &CompileFlags,
        make_error: fn(String, CompileError) -> E,
    ) -> ActionId {
        let dedup_key = Self::identity(file, flags);
        if let Some(&id) = self.actions.get(&dedup_key) {
            return id;
        }
        let file = file.to_string();
        let content = content.to_string();
        let flags = flags.clone();
        let id = graph.add(ActionKind::Preprocess, file.clone(), &[], move |_| {
            let preprocessed = compiler
                .preprocess_only(&file, &content, &flags)
                .map_err(|error| make_error(file.clone(), error))?;
            Ok(preprocessed.content_digest().into_bytes())
        });
        self.actions.insert(dedup_key, id);
        id
    }
}

/// Schedules deduplicated cache-keyed actions on a graph.
///
/// The [`ActionGraph`] contract allows at most one node per
/// [`BuildKey`](xaas_container::BuildKey) per submission, so drivers plan one
/// representative action per distinct key and remember, for every logical unit,
/// the *position* of its key's action among the scheduled ones (the index of its
/// output in a downstream Link node's inputs). Both the IR-build (`ir-lower`) and
/// source-deploy (`sd-compile`) drivers plan with this.
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
pub fn add_commit_action<'env, T: Send, E>(
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
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        let source =
            "kernel void f(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = 0.0; } }";
        let plain = CompileFlags::parse(["-O2".to_string()]);
        let defined = CompileFlags::parse(["-O2".to_string(), "-DX=1".to_string()]);
        let err = |file: String, error: CompileError| format!("{file}: {error}");
        let a = planner.action_for(&mut graph, &compiler, "f.ck", source, &plain, err);
        let b = planner.action_for(&mut graph, &compiler, "f.ck", source, &plain, err);
        let c = planner.action_for(&mut graph, &compiler, "f.ck", source, &defined, err);
        let d = planner.action_for(&mut graph, &compiler, "g.ck", source, &plain, err);
        assert_eq!(a, b, "same (file, defs) shares one action");
        assert_ne!(a, c, "definitions split the identity");
        assert_ne!(a, d, "files split the identity");
        assert_eq!(graph.len(), 3);
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
        let run = engine.run(graph);
        assert!(run.succeeded());
        let digest = String::from_utf8(run.output(commit).unwrap().to_vec()).unwrap();
        assert_eq!(store.resolve("plan:commit").unwrap().as_str(), digest);
        assert!(slot.into_inner().is_some());
    }
}
