//! The plan-only report on an action graph.
//!
//! No submission runs it; read it through the request types' `analyze(&orch)`
//! or [`Engine::analyze`](super::Engine::analyze). The one fact it can find
//! wrong with a built graph is the construction defect
//! [`ActionGraph`](super::ActionGraph) recorded when the node was added, which
//! the engine refuses in O(1).
#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::dbg_macro)]

use super::graph::GraphError;
use serde::Serialize;
use std::fmt;

/// A graph's size and recorded construction defect, plus the policy and
/// tenant it was planned under.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct AnalysisReport {
    /// Name of the policy the graph was analyzed against.
    pub policy: String,
    /// The tenant tag the submission would carry, if any.
    pub tenant: Option<String>,
    /// Nodes in the analyzed graph.
    pub nodes: usize,
    /// The graph's recorded construction defect
    /// ([`ActionGraph::error`](super::ActionGraph::error)); the engine refuses
    /// a graph that holds one.
    pub error: Option<GraphError>,
}

impl AnalysisReport {
    /// Number of reasons the engine would refuse the graph: 1 with a recorded
    /// defect, else 0.
    pub fn denies(&self) -> usize {
        usize::from(self.error.is_some())
    }

    /// Whether the engine would refuse the graph.
    pub fn is_rejected(&self) -> bool {
        self.error.is_some()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} deny over {} nodes under `{}`",
            self.denies(),
            self.nodes,
            self.policy
        )?;
        match self.error {
            Some(error) => write!(f, "; {error}"),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ActionGraph, ActionKind, Engine};
    use super::*;
    use xaas_container::{BuildKey, ImageStore};

    fn report(graph: &ActionGraph<'_, String>) -> AnalysisReport {
        Engine::uncached(&ImageStore::new()).analyze(graph)
    }

    #[test]
    fn clean_pipeline_graph_produces_an_empty_report() {
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        let pre = graph.add(ActionKind::Preprocess, "pre", &[], |_| Ok(vec![1]));
        let key = BuildKey::new("l", "xir.ir", "opts", "toolchain-test");
        let lower = graph.add_cached(ActionKind::IrLower, "lower", key, &[pre], |_| Ok(vec![2]));
        let link = graph.add(ActionKind::Link, "link", &[lower], |_| Ok(vec![3]));
        graph.add(ActionKind::Commit, "commit", &[link], |_| Ok(vec![4]));
        let report = report(&graph);
        assert_eq!(report.error, None, "{report}");
        assert!(!report.is_rejected());
        assert_eq!(report.nodes, 4);
        assert_eq!(report.policy, "fifo");
    }

    #[test]
    fn the_recorded_defect_is_the_one_deny() {
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        let pre = graph.add(ActionKind::Preprocess, "pre", &[], |_| Ok(vec![1]));
        graph.add(ActionKind::Link, "forward", &[pre, 5], |_| Ok(vec![2]));
        graph.add(ActionKind::Commit, "empty", &[], |_| Ok(vec![3]));
        let report = report(&graph);
        assert!(report.is_rejected());
        assert_eq!(report.denies(), 1, "only the first defect is recorded");
        assert_eq!(
            report.error,
            Some(GraphError::ForwardEdge { node: 1, dep: 5 })
        );
    }

    #[test]
    fn report_display_summarizes_counts_and_lists_denies() {
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        graph.add(ActionKind::Commit, "commit", &[], |_| Ok(vec![1]));
        let rendered = report(&graph).to_string();
        let error = GraphError::CommitWithoutDeps { node: 0 };
        assert_eq!(
            rendered,
            format!("1 deny over 1 nodes under `fifo`; {error}")
        );
    }
}
