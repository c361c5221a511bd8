//! The action graph: an explicit, staged DAG of build/deploy actions.
//!
//! Drivers (the IR-container builder, both deployers, the fleet specializer) describe
//! one stage of their pipeline as a graph of [`ActionKind`]-tagged nodes with explicit
//! dependency edges, then submit it to the [`Engine`](crate::engine::Engine). Nodes
//! are added in topological order (an edge may only point at an already-added node),
//! which keeps cycle detection trivial. A node that breaks that contract — a forward
//! edge, or a commit or derived key with nothing to depend on — is recorded as a
//! [`GraphError`] when it is added; no `add*` call panics, and the offending edge is
//! never stored.

#![deny(clippy::unwrap_used, clippy::dbg_macro)]
use super::executor::NodeInfo;
use super::trace::ActionKind;
use serde::Serialize;
use std::any::Any;
use std::marker::PhantomData;
use xaas_container::{Blob, BuildKey};

/// Index of a node inside one [`ActionGraph`] (valid only for that graph).
pub type ActionId = usize;

/// The outputs of a node's dependencies, in the order the dependencies were declared.
#[derive(Debug, Clone, Default)]
pub struct ActionInputs {
    outputs: Vec<Blob>,
}

impl ActionInputs {
    pub(crate) fn new(outputs: Vec<Blob>) -> Self {
        Self { outputs }
    }

    /// The output bytes of the `index`-th declared dependency.
    pub fn dep(&self, index: usize) -> &[u8] {
        &self.outputs[index]
    }

    /// The `index`-th dependency output as a shared [`Blob`] handle — clone it to
    /// reuse the dependency's bytes (e.g. as a layer payload) without copying.
    pub(crate) fn dep_blob(&self, index: usize) -> &Blob {
        &self.outputs[index]
    }

    /// Number of dependency outputs available.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Whether the node declared no dependencies.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Iterate over all dependency outputs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.outputs.iter().map(|o| o.as_slice())
    }
}

/// A driver error with its type erased, so graphs of every error type share one
/// worker pool; the run downcasts it back to `E` when it is assembled.
pub(crate) type ErasedError = Box<dyn Any + Send>;

pub(crate) type ActionFn<'env> =
    Box<dyn FnOnce(&ActionInputs) -> Result<Vec<u8>, ErasedError> + Send + 'env>;

pub(crate) type KeyFn<'env> = Box<dyn FnOnce(&ActionInputs) -> BuildKey + Send + 'env>;

/// How a node's cache identity is determined.
pub(crate) enum KeySpec<'env> {
    /// The node never touches the cache.
    None,
    /// The key is known at graph-construction time.
    Static(BuildKey),
    /// The key is derived from the node's dependency outputs at dispatch time
    /// (e.g. an `sd-compile` keyed on the digest its preprocess dependency
    /// produced — the whole deploy pipeline fits in one submission this way).
    Derived(KeyFn<'env>),
}

/// The first construction defect an [`ActionGraph`] recorded. A graph that holds
/// one is refused by [`Engine::run`](crate::engine::Engine::run) and
/// [`Engine::submit_graph`](crate::engine::Engine::submit_graph) before any node
/// is enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum GraphError {
    /// `node` declared a dependency on itself or on a node not yet added; the
    /// edge was dropped.
    ForwardEdge {
        /// The node that declared the edge.
        node: ActionId,
        /// The dependency index it named.
        dep: ActionId,
    },
    /// A commit node with no dependencies: it would commit an image assembled
    /// from nothing.
    CommitWithoutDeps {
        /// The commit node.
        node: ActionId,
    },
    /// A derived-key node with no dependencies: its dispatch-time key would be
    /// a constant derived from no inputs.
    DerivedKeyWithoutDeps {
        /// The derived-key node.
        node: ActionId,
    },
}

impl GraphError {
    /// The node whose `add*` call recorded the defect.
    pub fn node(&self) -> ActionId {
        match *self {
            GraphError::ForwardEdge { node, .. }
            | GraphError::CommitWithoutDeps { node }
            | GraphError::DerivedKeyWithoutDeps { node } => node,
        }
    }
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::ForwardEdge { node, dep } => write!(
                f,
                "action {node} depends on node {dep}, which is not added before it"
            ),
            GraphError::CommitWithoutDeps { node } => write!(
                f,
                "commit action {node} has no dependencies: nothing to commit"
            ),
            GraphError::DerivedKeyWithoutDeps { node } => write!(
                f,
                "action {node} derives its BuildKey from its dependency outputs but \
                 declares no dependencies"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// One node as the executor runs it: its error type was erased when it was added.
pub(crate) struct ActionNode<'env> {
    pub(crate) info: NodeInfo,
    pub(crate) key: KeySpec<'env>,
    pub(crate) deps: Vec<ActionId>,
    pub(crate) run: ActionFn<'env>,
}

/// A DAG of actions to submit to the [`Engine`](crate::engine::Engine).
///
/// `'env` is the lifetime of the data the node closures borrow (project specs, the
/// compiler, manifest state). The executor runs the closures on its persistent
/// worker pool; [`Engine::run`](crate::engine::Engine::run) returns only once every
/// closure has run or been dropped, so borrowing driver locals is free, while
/// [`Engine::submit_graph`](crate::engine::Engine::submit_graph) needs `'static`.
/// `E` is the driver's typed error.
///
/// Duplicate [`BuildKey`]s are safe, including *unordered* duplicates: the
/// executor routes keyed nodes through the action cache's nonblocking flight
/// protocol, so one racing node becomes the flight owner and every other node
/// with the same key parks as a continuation and is woken with the owner's
/// bytes — no worker thread blocks and the compute runs once. The resulting
/// bytes are identical regardless of scheduling; only *which* racing record
/// carries `cached: false` is scheduling-dependent, so drivers that assert
/// exact trace equality across runs should still order duplicates with a
/// dependency edge — the fleet grafter uses exactly this shape (a cache-probe
/// "alias" that fans a shared artifact out into another job's subgraph as a
/// deterministic hit).
pub struct ActionGraph<'env, E> {
    pub(crate) nodes: Vec<ActionNode<'env>>,
    /// Job tag applied to subsequently added nodes (see [`ActionGraph::set_job`]).
    current_job: Option<usize>,
    /// The first construction defect (see [`ActionGraph::error`]).
    error: Option<GraphError>,
    _error: PhantomData<fn() -> E>,
}

impl<'env, E> Default for ActionGraph<'env, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'env, E> ActionGraph<'env, E> {
    /// An empty graph.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            current_job: None,
            error: None,
            _error: PhantomData,
        }
    }

    /// Tag every subsequently added node with `job` (or clear the tag with `None`).
    ///
    /// Job tags let one graph carry several logical subgraphs — the fleet request
    /// grafts every deployment job into one union graph per wave — and flow into
    /// [`ActionRecord::job`](crate::engine::ActionRecord::job) and the per-node
    /// [`NodeInfo`] of the run, so failures and trace
    /// records attribute back to the job that planned them.
    pub fn set_job(&mut self, job: Option<usize>) {
        self.current_job = job;
    }

    /// The first construction defect an `add*` call recorded, if any. Every
    /// stored edge points backwards whether or not one was recorded.
    pub fn error(&self) -> Option<GraphError> {
        self.error
    }

    /// Number of nodes in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The critical-path depth: the minimal number of serial waves an executor with
    /// unbounded workers needs. A serial executor needs [`len`](Self::len) steps.
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            depth[id] = 1 + node.deps.iter().map(|&d| depth[d]).max().unwrap_or(0);
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// Adding nodes: a node's error is boxed as `dyn Any`, hence the bound on `E`.
impl<'env, E: Send + 'static> ActionGraph<'env, E> {
    /// Add an uncached action: it always executes, and its record carries no key.
    ///
    /// Graphs are built in topological order: a dependency on a node not yet
    /// added is dropped and recorded as [`GraphError::ForwardEdge`], and a
    /// [`Commit`](ActionKind::Commit) with no dependencies as
    /// [`GraphError::CommitWithoutDeps`] (see [`error`](Self::error)).
    pub fn add(
        &mut self,
        kind: ActionKind,
        label: impl Into<String>,
        deps: &[ActionId],
        run: impl FnOnce(&ActionInputs) -> Result<Vec<u8>, E> + Send + 'env,
    ) -> ActionId {
        self.push(kind, label.into(), KeySpec::None, deps, run)
    }

    /// Add a cache-routed action: the executor consults the engine's action cache
    /// for `key` and only runs the closure on a miss. Defects are recorded as in
    /// [`add`](Self::add).
    pub fn add_cached(
        &mut self,
        kind: ActionKind,
        label: impl Into<String>,
        key: BuildKey,
        deps: &[ActionId],
        run: impl FnOnce(&ActionInputs) -> Result<Vec<u8>, E> + Send + 'env,
    ) -> ActionId {
        self.push(kind, label.into(), KeySpec::Static(key), deps, run)
    }

    /// Add a cache-routed action whose [`BuildKey`] is *derived from its dependency
    /// outputs* when the node is dispatched, instead of being known up front.
    ///
    /// This is what lets a whole deployment pipeline run as one submission: an
    /// `sd-compile` is keyed on the preprocessed-content digest its preprocess
    /// dependency produces, so the key cannot exist at graph-construction time.
    /// `key_of` must be deterministic in the dependency outputs — it becomes part
    /// of the action's cache identity and recorded `key_digest`. A derived key
    /// with no dependencies to derive from is recorded as
    /// [`GraphError::DerivedKeyWithoutDeps`]; other defects as in
    /// [`add`](Self::add).
    pub fn add_cached_derived(
        &mut self,
        kind: ActionKind,
        label: impl Into<String>,
        key_of: impl FnOnce(&ActionInputs) -> BuildKey + Send + 'env,
        deps: &[ActionId],
        run: impl FnOnce(&ActionInputs) -> Result<Vec<u8>, E> + Send + 'env,
    ) -> ActionId {
        self.push(
            kind,
            label.into(),
            KeySpec::Derived(Box::new(key_of)),
            deps,
            run,
        )
    }

    /// Record `run` with its error type erased (boxed once, here), and its
    /// defects as [`add`](Self::add) documents.
    fn push(
        &mut self,
        kind: ActionKind,
        label: String,
        key: KeySpec<'env>,
        deps: &[ActionId],
        run: impl FnOnce(&ActionInputs) -> Result<Vec<u8>, E> + Send + 'env,
    ) -> ActionId {
        let id = self.nodes.len();
        let mut defect = if deps.is_empty() && kind == ActionKind::Commit {
            Some(GraphError::CommitWithoutDeps { node: id })
        } else if deps.is_empty() && matches!(key, KeySpec::Derived(_)) {
            Some(GraphError::DerivedKeyWithoutDeps { node: id })
        } else {
            None
        };
        let mut kept = Vec::with_capacity(deps.len());
        for &dep in deps {
            if dep < id {
                kept.push(dep);
            } else {
                defect = defect.or(Some(GraphError::ForwardEdge { node: id, dep }));
            }
        }
        self.error = self.error.or(defect);
        self.nodes.push(ActionNode {
            info: NodeInfo {
                kind,
                label,
                job: self.current_job,
            },
            key,
            deps: kept,
            run: Box::new(move |inputs| {
                run(inputs).map_err(|error| Box::new(error) as ErasedError)
            }),
        });
        id
    }
}

impl<E> std::fmt::Debug for ActionGraph<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActionGraph")
            .field("nodes", &self.nodes.len())
            .field("depth", &self.depth())
            .field("error", &self.error)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn depth_follows_the_longest_dependency_chain() {
        let mut graph: ActionGraph<'_, ()> = ActionGraph::new();
        let a = graph.add(ActionKind::Preprocess, "a", &[], |_| Ok(vec![]));
        let b = graph.add(ActionKind::Preprocess, "b", &[], |_| Ok(vec![]));
        let c = graph.add(ActionKind::Link, "c", &[a, b], |_| Ok(vec![]));
        let _d = graph.add(ActionKind::Commit, "d", &[c], |_| Ok(vec![]));
        assert_eq!(graph.len(), 4);
        assert_eq!(graph.depth(), 3, "a/b parallel, then c, then d");
        assert_eq!(ActionGraph::<()>::new().depth(), 0);
    }

    /// Adds defect `which` to `graph`: a `usize::MAX` edge (beside a valid one),
    /// a self edge, a commit with no dependencies, a derived key with none.
    fn add_defect(graph: &mut ActionGraph<'static, ()>, which: usize) -> ActionId {
        let key = || BuildKey::new("k", "xir.ir", "opts", "toolchain-test");
        let run = |_: &ActionInputs| Ok(vec![]);
        match which {
            0 => graph.add(ActionKind::Link, "far", &[0, usize::MAX], run),
            1 => graph.add(ActionKind::Link, "self", &[graph.len()], run),
            2 => graph.add_cached(ActionKind::Commit, "commit", key(), &[], run),
            _ => {
                graph.add_cached_derived(ActionKind::SdCompile, "derived", move |_| key(), &[], run)
            }
        }
    }

    /// Every defect is recorded, never panicked on: the offending edge is
    /// dropped, `len`/`depth` stay total, and `error` keeps the *first* defect.
    #[test]
    fn construction_defects_are_recorded_without_panicking() {
        let seeded = || {
            let mut graph: ActionGraph<'static, ()> = ActionGraph::new();
            graph.add(ActionKind::Preprocess, "pre", &[], |_| Ok(vec![]));
            assert_eq!(graph.error(), None);
            graph
        };
        // Each defect alone: recorded against the node that declared it.
        let expected = [
            (
                GraphError::ForwardEdge {
                    node: 1,
                    dep: usize::MAX,
                },
                2,
            ),
            (GraphError::ForwardEdge { node: 1, dep: 1 }, 1),
            (GraphError::CommitWithoutDeps { node: 1 }, 1),
            (GraphError::DerivedKeyWithoutDeps { node: 1 }, 1),
        ];
        for (which, (error, depth)) in expected.into_iter().enumerate() {
            let mut graph = seeded();
            assert_eq!(add_defect(&mut graph, which), 1);
            assert_eq!(graph.error(), Some(error));
            assert_eq!(error.node(), 1);
            assert_eq!((graph.len(), graph.depth()), (2, depth));
        }

        // All of them in one graph: the first is the one kept, and every stored
        // edge points backwards (`far` keeps its edge to node 0).
        let mut graph = seeded();
        for which in 0..expected.len() {
            add_defect(&mut graph, which);
        }
        assert_eq!(graph.error(), Some(expected[0].0));
        assert_eq!((graph.len(), graph.depth()), (5, 2));
        assert_eq!(graph.nodes[1].deps, vec![0]);
        for (id, node) in graph.nodes.iter().enumerate() {
            assert!(node.deps.iter().all(|&dep| dep < id));
        }
    }
}
