//! The action graph: an explicit, staged DAG of build/deploy actions.
//!
//! Drivers (the IR-container builder, both deployers, the fleet specializer) describe
//! one stage of their pipeline as a graph of [`ActionKind`]-tagged nodes with explicit
//! dependency edges, then submit it to the [`Engine`](crate::engine::Engine). Nodes
//! are added in topological order (an edge may only point at an already-added node),
//! which keeps cycle detection trivial. A node that breaks that contract — a forward
//! edge, or a commit or a record whose key reads a dependency with nothing to depend
//! on — is recorded as a [`GraphError`] when it is added; no `add*` call panics, and
//! the offending edge is never stored. Every driver node is an [`Action`] record.

#![deny(clippy::unwrap_used, clippy::dbg_macro)]
use super::executor::NodeInfo;
use super::trace::ActionKind;
use crate::ir_container::TOOLCHAIN_ID;
use serde::Serialize;
use std::any::Any;
use std::marker::PhantomData;
use xaas_container::{Blob, BuildKey, Derivation, Digest};

/// Index of a node inside one [`ActionGraph`] (valid only for that graph).
pub type ActionId = usize;

/// The outputs of a node's dependencies, in the order the dependencies were declared.
#[derive(Debug, Clone, Default)]
pub struct ActionInputs {
    outputs: Vec<Blob>,
    /// For a node that reads its dependencies' digests, the SHA-256 the action
    /// cache holds for each output, where one does; empty for any other node.
    digests: Vec<Option<[u8; 32]>>,
}

impl ActionInputs {
    #[cfg(test)]
    pub(crate) fn new(outputs: Vec<Blob>) -> Self {
        Self {
            outputs,
            digests: Vec::new(),
        }
    }

    /// Inputs whose outputs come with the hashes a cache holds for them.
    pub(crate) fn digested(outputs: Vec<Blob>, digests: Vec<Option<[u8; 32]>>) -> Self {
        Self { outputs, digests }
    }

    /// The output bytes of the `index`-th declared dependency.
    pub fn dep(&self, index: usize) -> &[u8] {
        &self.outputs[index]
    }

    /// The content digest of the `index`-th dependency's output. For a record
    /// that reads digests ([`Action::READS_DEP_DIGESTS`]) it is the one the
    /// action cache indexed the output under, on a hit or a completion, so
    /// reading it hashes nothing; an output no cache digested (an unkeyed
    /// node's, or any under an uncached engine) is hashed here.
    pub fn dep_digest(&self, index: usize) -> Digest {
        match self.digests.get(index).copied().flatten() {
            Some(hash) => Digest::from_sha256(hash),
            None => Digest::of_bytes(&self.outputs[index]),
        }
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

/// A pipeline step as a record: one typed value that is both what the step's
/// [`BuildKey`] names and everything its compute reads (the records of the
/// pipeline are in [`plan`](super::plan) and beside the drivers that add them).
///
/// [`run`](Self::run) is a method on the record, so it captures nothing, and it
/// takes the record by value, so owned fields move into the output: every
/// field it reads is keyed by [`derive`](Self::derive) or bound there as
/// `field: _` beside the keyed field that covers it. `derive` opens with an
/// exhaustive `let Self { .. } = self;`, so a field left out does not compile.
/// An unkeyed record ([`KEYED`](Self::KEYED) `false`) binds every field as
/// `field: _`, so keying it later is an edit to one `derive`:
///
/// ```compile_fail,E0027
/// use xaas::engine::{Action, ActionInputs, ActionKind};
/// use xaas_container::Derivation;
///
/// struct Shout<'a> {
///     digest: &'a str,
///     text: &'a str,
/// }
///
/// impl Action for Shout<'_> {
///     const KIND: ActionKind = ActionKind::MachineLower;
///     type Error = std::convert::Infallible;
///
///     fn derive(&self, _: Option<&ActionInputs>, record: Derivation) -> Derivation {
///         let Self { digest } = self; // `text: _` is missing
///         record.str(digest)
///     }
///
///     fn run(self, _: &ActionInputs) -> Result<Vec<u8>, Self::Error> {
///         Ok(self.text.to_ascii_uppercase().into_bytes())
///     }
/// }
/// ```
pub trait Action: Send + Sized {
    /// The pipeline stage of the record's nodes; the first field of its key.
    const KIND: ActionKind;

    /// Whether the action cache serves the record's nodes. An unkeyed record
    /// always runs, and its trace record carries no key, as a closure's does.
    const KEYED: bool = true;

    /// Whether the key reads dependency outputs. Such a record is keyed when its
    /// node is dispatched (any other when it is added), and adding it with no
    /// dependencies is [`GraphError::DerivedKeyWithoutDeps`].
    const KEY_READS_DEPS: bool = false;

    /// Whether the record reads its dependencies' content digests
    /// ([`ActionInputs::dep_digest`]): the executor then keeps the digest the
    /// action cache holds for each dependency's output and hands it over, so
    /// naming an output by its digest hashes nothing. A record that keys on its
    /// dependencies' digests (an early cutoff: dependencies with other keys but
    /// the same bytes give the same key) sets this and
    /// [`KEY_READS_DEPS`](Self::KEY_READS_DEPS).
    const READS_DEP_DIGESTS: bool = false;

    /// What [`run`](Self::run) fails with.
    type Error;

    /// Append the keyed fields to `record`, which names [`KIND`](Self::KIND) and
    /// the toolchain already. `deps` is `None` when the record is planned: what
    /// it derives then is its [`identity`](Self::identity).
    fn derive(&self, deps: Option<&ActionInputs>, record: Derivation) -> Derivation;

    /// Compute the node's output from its dependency outputs, on a cache miss
    /// (on every run, for an unkeyed record).
    fn run(self, deps: &ActionInputs) -> Result<Vec<u8>, Self::Error>;

    /// What planners deduplicate the record on: its key, unless the key reads
    /// dependency outputs.
    fn identity(&self) -> BuildKey {
        derive_key(self, None)
    }
}

/// The key `action` derives from `deps` (see [`Action::derive`]).
pub(crate) fn derive_key<A: Action>(action: &A, deps: Option<&ActionInputs>) -> BuildKey {
    let record = Derivation::new(A::KIND.as_str()).str(TOOLCHAIN_ID);
    action.derive(deps, record).finish()
}

/// A driver error with its type erased, so graphs of every error type share one
/// worker pool; the run downcasts it back to `E` when it is assembled.
pub(crate) type ErasedError = Box<dyn Any + Send>;

fn erase<E: Send + 'static>(error: E) -> ErasedError {
    Box::new(error)
}

/// A node's one-shot work, a closure or an [`Action`] record, with its error
/// type erased.
pub(crate) trait Work: Send {
    /// The key derived from the dependency outputs, for a node not keyed when it
    /// was added: `None` for a closure or an unkeyed record.
    fn key(&self, _: &ActionInputs) -> Option<BuildKey> {
        None
    }

    /// Whether the key reads dependency outputs, and the work their digests.
    fn reads(&self) -> (bool, bool) {
        (false, false)
    }

    fn run(self: Box<Self>, inputs: &ActionInputs) -> Result<Vec<u8>, ErasedError>;
}

impl<F: FnOnce(&ActionInputs) -> Result<Vec<u8>, ErasedError> + Send> Work for F {
    fn run(self: Box<Self>, inputs: &ActionInputs) -> Result<Vec<u8>, ErasedError> {
        self(inputs)
    }
}

/// An [`Action`] record, or an alias of a primary node (see
/// [`add_alias`](ActionGraph::add_alias)).
struct Record<A> {
    action: A,
    alias: bool,
}

impl<A: Action> Work for Record<A>
where
    A::Error: Send + 'static,
{
    fn key(&self, inputs: &ActionInputs) -> Option<BuildKey> {
        A::KEYED.then(|| derive_key(&self.action, Some(inputs)))
    }

    fn reads(&self) -> (bool, bool) {
        (A::KEYED && A::KEY_READS_DEPS, A::READS_DEP_DIGESTS)
    }

    fn run(self: Box<Self>, inputs: &ActionInputs) -> Result<Vec<u8>, ErasedError> {
        if self.alias {
            return Ok(inputs.iter().last().unwrap_or_default().to_vec());
        }
        self.action.run(inputs).map_err(erase)
    }
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
    /// A record whose key reads its dependencies
    /// ([`Action::KEY_READS_DEPS`]), added with none: its key would be a
    /// constant derived from no inputs.
    DerivedKeyWithoutDeps {
        /// The node of the record.
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
    /// The cache key fixed when the node was added; `None` for an unkeyed node and
    /// for a record whose key reads its dependencies.
    pub(crate) key: Option<BuildKey>,
    pub(crate) deps: Vec<ActionId>,
    pub(crate) work: Box<dyn Work + 'env>,
}

/// A DAG of actions to submit to the [`Engine`](crate::engine::Engine).
///
/// `'env` is the lifetime of the data the node closures and records borrow
/// (project specs and their headers, manifest state). The executor runs them on its
/// persistent worker pool; [`Engine::run`](crate::engine::Engine::run) returns
/// only once every node's closure or record has run or been dropped, so
/// borrowing driver locals is free, while
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
/// dependency edge, as the fleet's cache-probe aliases do.
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
    /// Add an uncached closure: it always executes, and its record carries no
    /// key. The form for tests and probes, since a closure's inputs are not
    /// named (a pipeline step is an [`add_action`](Self::add_action) record).
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
        let work = Box::new(move |inputs: &ActionInputs| run(inputs).map_err(erase));
        self.push(kind, label.into(), None, deps.to_vec(), work)
    }

    /// Add a closure the engine's action cache serves under the opaque `key`: the
    /// form for tests and probes, since nothing ties `key` to what the closure
    /// reads (a pipeline step is an [`add_action`](Self::add_action) record).
    pub fn add_cached(
        &mut self,
        kind: ActionKind,
        label: impl Into<String>,
        key: BuildKey,
        deps: &[ActionId],
        run: impl FnOnce(&ActionInputs) -> Result<Vec<u8>, E> + Send + 'env,
    ) -> ActionId {
        let work = Box::new(move |inputs: &ActionInputs| run(inputs).map_err(erase));
        self.push(kind, label.into(), Some(key), deps.to_vec(), work)
    }

    /// Add the [`Action`] `record`, which runs only on a miss of the key it
    /// derives (see [`Action::KEY_READS_DEPS`] for when), or on every run when
    /// it is unkeyed. Defects are recorded as in [`add`](Self::add).
    pub fn add_action<A: Action<Error = E> + 'env>(
        &mut self,
        label: impl Into<String>,
        record: A,
        deps: &[ActionId],
    ) -> ActionId {
        let key = (A::KEYED && !A::KEY_READS_DEPS).then(|| derive_key(&record, None));
        self.push_record(label.into(), record, key, deps.to_vec(), false)
    }

    /// [`add_action`](Self::add_action) for a planner that derived `record`'s
    /// [`identity`](Action::identity) already, so the record is not hashed twice.
    pub(crate) fn add_identified<A: Action<Error = E> + 'env>(
        &mut self,
        label: impl Into<String>,
        record: A,
        identity: &BuildKey,
        deps: &[ActionId],
    ) -> ActionId {
        let key = (A::KEYED && !A::KEY_READS_DEPS).then(|| identity.clone());
        self.push_record(label.into(), record, key, deps.to_vec(), false)
    }

    /// Add a cache-probe alias of `primary`, a node of a record with the same
    /// `identity`: `record`, with `primary` as its last dependency and served from
    /// it, so a deterministic hit (or the primary's bytes, under no cache).
    pub(crate) fn add_alias<A: Action<Error = E> + 'env>(
        &mut self,
        label: impl Into<String>,
        record: A,
        identity: BuildKey,
        deps: &[ActionId],
        primary: ActionId,
    ) -> ActionId {
        let key = (A::KEYED && !A::KEY_READS_DEPS).then_some(identity);
        let mut deps_then_primary = Vec::with_capacity(deps.len() + 1);
        deps_then_primary.extend_from_slice(deps);
        deps_then_primary.push(primary);
        self.push_record(label.into(), record, key, deps_then_primary, true)
    }

    fn push_record<A: Action<Error = E> + 'env>(
        &mut self,
        label: String,
        action: A,
        key: Option<BuildKey>,
        deps: Vec<ActionId>,
        alias: bool,
    ) -> ActionId {
        let work = Box::new(Record { action, alias });
        self.push(A::KIND, label, key, deps, work)
    }

    /// Record `work` and its defects as [`add`](Self::add) and
    /// [`add_action`](Self::add_action) document.
    fn push(
        &mut self,
        kind: ActionKind,
        label: String,
        key: Option<BuildKey>,
        mut deps: Vec<ActionId>,
        work: Box<dyn Work + 'env>,
    ) -> ActionId {
        let (key_reads_deps, _) = work.reads();
        let id = self.nodes.len();
        let mut defect = if deps.is_empty() && kind == ActionKind::Commit {
            Some(GraphError::CommitWithoutDeps { node: id })
        } else if deps.is_empty() && key_reads_deps {
            Some(GraphError::DerivedKeyWithoutDeps { node: id })
        } else {
            None
        };
        deps.retain(|&dep| {
            let backward = dep < id;
            if !backward {
                defect = defect.or(Some(GraphError::ForwardEdge { node: id, dep }));
            }
            backward
        });
        self.error = self.error.or(defect);
        self.nodes.push(ActionNode {
            info: NodeInfo {
                kind,
                label,
                job: self.current_job,
            },
            key,
            deps,
            work,
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

    /// A record keyed by the output of its dependency 0.
    struct KeyedByDep;

    impl Action for KeyedByDep {
        const KIND: ActionKind = ActionKind::SdCompile;
        const KEY_READS_DEPS: bool = true;
        type Error = ();

        fn derive(&self, deps: Option<&ActionInputs>, record: Derivation) -> Derivation {
            let Self = self;
            match deps {
                Some(deps) => record.str(&String::from_utf8_lossy(deps.dep(0))),
                None => record,
            }
        }

        fn run(self, _: &ActionInputs) -> Result<Vec<u8>, ()> {
            Ok(vec![])
        }
    }

    /// Adds defect `which` to `graph`: a `usize::MAX` edge (beside a valid one),
    /// a self edge, a commit with no dependencies, a record whose key reads a
    /// dependency with none.
    fn add_defect(graph: &mut ActionGraph<'static, ()>, which: usize) -> ActionId {
        let key = || BuildKey::new("k", "xir.ir", "opts", "toolchain-test");
        let run = |_: &ActionInputs| Ok(vec![]);
        match which {
            0 => graph.add(ActionKind::Link, "far", &[0, usize::MAX], run),
            1 => graph.add(ActionKind::Link, "self", &[graph.len()], run),
            2 => graph.add_cached(ActionKind::Commit, "commit", key(), &[], run),
            _ => graph.add_action("derived", KeyedByDep, &[]),
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

    /// A record whose key reads a dependency is keyed at dispatch, not when it is
    /// added; an alias keeps the record's deps and ends on its primary.
    #[test]
    fn a_record_is_keyed_when_added_unless_its_key_reads_a_dependency() {
        let mut graph: ActionGraph<'static, ()> = ActionGraph::new();
        let pre = graph.add(ActionKind::Preprocess, "pre", &[], |_| Ok(b"a".to_vec()));
        let primary = graph.add_action("primary", KeyedByDep, &[pre]);
        let alias = graph.add_alias("alias", KeyedByDep, KeyedByDep.identity(), &[pre], primary);
        assert_eq!(graph.error(), None);
        assert!(graph.nodes[primary].key.is_none());
        assert_eq!(graph.nodes[alias].deps, vec![pre, primary]);
        let inputs = ActionInputs::new(vec![Blob::new(b"a".to_vec())]);
        assert_eq!(
            graph.nodes[primary].work.key(&inputs),
            graph.nodes[alias].work.key(&inputs)
        );
        assert_ne!(
            graph.nodes[primary].work.key(&inputs),
            Some(KeyedByDep.identity())
        );
    }
}
