//! Pre-submission static analysis of action graphs and scheduling policies.
//!
//! The engine's first correctness tool that runs *before* execution rather than
//! asserting after it: a [`GraphAnalyzer`] walks one `(ActionGraph,
//! SchedulingPolicy, ServiceLimits)` triple at submission time and emits a typed
//! [`AnalysisReport`] of [`Diagnostic`]s, each tagged with a stable
//! [`DiagnosticCode`] and a [`Severity`]. Three pass families run:
//!
//! * **structural** — dangling or duplicate dependency indices, unreachable
//!   outputs, cross-job dependency edges that break
//!   [`split_by_job`](crate::engine::ActionTrace::split_by_job) blast-radius
//!   attribution, commit fan-in shape, and derived-key nodes with no
//!   dependencies to derive from;
//! * **scheduling** — a submission that carries no tenant tag under a
//!   fair-queuing policy, and so shares the untenanted lane;
//! * **cache/flight** — unordered duplicate [`BuildKey`](xaas_container::BuildKey)s,
//!   whose `cached` trace flags are scheduling-dependent (the hazard
//!   [`ActionGraph`] documents: racing duplicates coalesce on one flight, but
//!   *which* record carries the miss depends on the schedule).
//!
//! Deny-level diagnostics reject the submission before any node executes:
//! [`Engine::submit_graph`](crate::engine::Engine::submit_graph) and the
//! orchestrator's pipeline drivers run the analyzer on every submission
//! ([`Engine::preflight`](crate::engine::Engine::preflight)), and the service
//! layer surfaces rejected graphs as
//! [`AdmissionError::Invalid`](crate::service::AdmissionError::Invalid) so they
//! never consume queue slots. Warnings and notes never reject; read them through
//! the request types' `analyze(&orch)`.
#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::dbg_macro)]

use super::graph::{ActionGraph, ActionId, KeySpec};
use super::policy::SchedulingPolicy;
use super::trace::ActionKind;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// How bad one [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Severity {
    /// The graph must not execute: submitting it would run into a structural
    /// contract violation. The submission is rejected before any node runs.
    Deny,
    /// The graph executes correctly but something about it is suspicious: a
    /// redundant edge, a scheduling-dependent trace.
    Warn,
    /// An observation worth surfacing (dead outputs, untagged submissions under
    /// fair queuing); never affects admission.
    Note,
}

impl Severity {
    /// Stable lowercase name (used in JSON reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable identity of one analyzer rule. The string form (`XA-<family>-<n>`)
/// is what JSON reports, CI gates, and the README table key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DiagnosticCode {
    /// `XA-STR-001` (deny): a dependency index points at this node or a
    /// not-yet-added one — the edge cannot resolve.
    DanglingDep,
    /// `XA-STR-002` (warn): the same dependency is declared more than once.
    DuplicateDep,
    /// `XA-STR-003` (note): in a graph that commits an image, a non-commit
    /// node's output feeds no other node — likely dead work.
    UnreachableOutput,
    /// `XA-STR-004` (warn): a dependency edge crosses two different job tags
    /// without the shared-[`BuildKey`](xaas_container::BuildKey) alias shape,
    /// so [`split_by_job`](crate::engine::ActionTrace::split_by_job)
    /// blast-radius attribution crosses jobs.
    CrossJobEdge,
    /// `XA-STR-005` (deny): a commit node has no dependencies — it would
    /// commit an image assembled from nothing.
    CommitNoDeps,
    /// `XA-STR-006` (deny): a derived-key node has no dependencies, so its
    /// dispatch-time key degenerates to a constant with no inputs — a
    /// cache-poisoning hazard.
    DerivedKeyNoDeps,
    /// `XA-SCH-005` (note): the submission carries no tenant tag under a
    /// fair-queuing policy, so it lands in the shared untenanted lane.
    UntaggedWfqSubmission,
    /// `XA-CHE-001` (warn): two or more nodes share a static
    /// [`BuildKey`](xaas_container::BuildKey) with no ordering path between
    /// them: the bytes are deterministic, but *which* record carries
    /// `cached: false` is scheduling-dependent. Order duplicates with an edge
    /// if exact per-record traces matter.
    UnorderedDuplicateKey,
    /// `XA-SVC-001` (warn): the graph alone is larger than the service's
    /// queued-action bound, so admitting it saturates the service for everyone.
    QueueOverflow,
}

impl DiagnosticCode {
    /// Every code the analyzer can emit, in report order.
    pub const ALL: [DiagnosticCode; 9] = [
        DiagnosticCode::DanglingDep,
        DiagnosticCode::DuplicateDep,
        DiagnosticCode::UnreachableOutput,
        DiagnosticCode::CrossJobEdge,
        DiagnosticCode::CommitNoDeps,
        DiagnosticCode::DerivedKeyNoDeps,
        DiagnosticCode::UntaggedWfqSubmission,
        DiagnosticCode::UnorderedDuplicateKey,
        DiagnosticCode::QueueOverflow,
    ];

    /// The stable `XA-<family>-<n>` string form.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagnosticCode::DanglingDep => "XA-STR-001",
            DiagnosticCode::DuplicateDep => "XA-STR-002",
            DiagnosticCode::UnreachableOutput => "XA-STR-003",
            DiagnosticCode::CrossJobEdge => "XA-STR-004",
            DiagnosticCode::CommitNoDeps => "XA-STR-005",
            DiagnosticCode::DerivedKeyNoDeps => "XA-STR-006",
            DiagnosticCode::UntaggedWfqSubmission => "XA-SCH-005",
            DiagnosticCode::UnorderedDuplicateKey => "XA-CHE-001",
            DiagnosticCode::QueueOverflow => "XA-SVC-001",
        }
    }

    /// The pass family the code belongs to.
    pub fn family(&self) -> &'static str {
        match self {
            DiagnosticCode::DanglingDep
            | DiagnosticCode::DuplicateDep
            | DiagnosticCode::UnreachableOutput
            | DiagnosticCode::CrossJobEdge
            | DiagnosticCode::CommitNoDeps
            | DiagnosticCode::DerivedKeyNoDeps => "structural",
            DiagnosticCode::UntaggedWfqSubmission => "scheduling",
            DiagnosticCode::UnorderedDuplicateKey => "cache",
            DiagnosticCode::QueueOverflow => "service",
        }
    }

    /// The fixed severity of this rule.
    pub fn severity(&self) -> Severity {
        match self {
            DiagnosticCode::DanglingDep
            | DiagnosticCode::CommitNoDeps
            | DiagnosticCode::DerivedKeyNoDeps => Severity::Deny,
            DiagnosticCode::DuplicateDep
            | DiagnosticCode::CrossJobEdge
            | DiagnosticCode::UnorderedDuplicateKey
            | DiagnosticCode::QueueOverflow => Severity::Warn,
            DiagnosticCode::UnreachableOutput | DiagnosticCode::UntaggedWfqSubmission => {
                Severity::Note
            }
        }
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding: a stable code, its severity, the node and job it
/// anchors to (when it anchors to one), and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: DiagnosticCode,
    /// The rule's severity.
    pub severity: Severity,
    /// The node the finding anchors to, if any.
    pub node: Option<ActionId>,
    /// The job tag of the anchoring node, if any.
    pub job: Option<usize>,
    /// What was found, with labels and numbers.
    pub message: String,
}

impl Diagnostic {
    fn new(
        code: DiagnosticCode,
        node: Option<ActionId>,
        job: Option<usize>,
        message: String,
    ) -> Self {
        Self {
            code,
            severity: code.severity(),
            node,
            job,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code.as_str(), self.severity)?;
        if let Some(node) = self.node {
            write!(f, " [node {node}")?;
            if let Some(job) = self.job {
                write!(f, ", job {job}")?;
            }
            write!(f, "]")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Everything one analysis pass found, plus the context it ran under.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct AnalysisReport {
    /// Name of the policy the graph was analyzed against.
    pub policy: String,
    /// The tenant tag the submission would carry, if any.
    pub tenant: Option<String>,
    /// Nodes in the analyzed graph.
    pub nodes: usize,
    /// The findings, in pass order (structural, scheduling, cache, service).
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Number of deny-level findings.
    pub fn denies(&self) -> usize {
        self.count(Severity::Deny)
    }

    /// Number of warn-level findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Number of note-level findings.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether the graph must not execute ([`Severity::Deny`] present).
    pub fn is_rejected(&self) -> bool {
        self.denies() > 0
    }

    /// Whether any finding carries `code`.
    pub fn has_code(&self, code: DiagnosticCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The findings carrying `code`.
    pub fn with_code(&self, code: DiagnosticCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} deny / {} warn / {} note over {} nodes under `{}`",
            self.denies(),
            self.warnings(),
            self.notes(),
            self.nodes,
            self.policy
        )?;
        for diagnostic in self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
        {
            write!(f, "; {diagnostic}")?;
        }
        Ok(())
    }
}

/// The static verification pass pipeline over one `(ActionGraph,
/// SchedulingPolicy, ServiceLimits)` triple.
///
/// Construction is cheap; [`analyze`](Self::analyze) is a single O(nodes +
/// edges) walk plus per-duplicate-key ancestry probes, so it is safe to run on
/// every submission (the engine does).
#[derive(Debug, Clone, Copy)]
pub struct GraphAnalyzer<'a> {
    policy: &'a dyn SchedulingPolicy,
    tenant: Option<&'a str>,
    queue_bound: Option<usize>,
}

impl<'a> GraphAnalyzer<'a> {
    /// An analyzer checking graphs against `policy`, with no tenant tag and no
    /// service queue bound.
    pub fn new(policy: &'a dyn SchedulingPolicy) -> Self {
        Self {
            policy,
            tenant: None,
            queue_bound: None,
        }
    }

    /// Analyze as if submitted by `tenant` (fair-queuing lane checks use it).
    pub fn tenant(mut self, tenant: Option<&'a str>) -> Self {
        self.tenant = tenant;
        self
    }

    /// Check the graph against the service's queued-action bound
    /// ([`ServiceLimits::max_queued_actions`](crate::service::ServiceLimits::max_queued_actions)).
    pub fn limits(self, limits: &crate::service::ServiceLimits) -> Self {
        self.queue_bound(Some(limits.max_queued_actions))
    }

    /// Check the graph against an explicit queued-action bound.
    pub fn queue_bound(mut self, bound: Option<usize>) -> Self {
        self.queue_bound = bound;
        self
    }

    /// Run every pass family over `graph` and collect the report.
    pub fn analyze<E>(&self, graph: &ActionGraph<'_, E>) -> AnalysisReport {
        let mut diagnostics = Vec::new();
        self.structural_pass(graph, &mut diagnostics);
        self.scheduling_pass(graph, &mut diagnostics);
        self.cache_pass(graph, &mut diagnostics);
        self.service_pass(graph, &mut diagnostics);
        AnalysisReport {
            policy: self.policy.name().to_string(),
            tenant: self.tenant.map(str::to_string),
            nodes: graph.nodes.len(),
            diagnostics,
        }
    }

    /// Dangling/duplicate dependency indices, cross-job edges, commit fan-in,
    /// derived keys without inputs, and unreachable outputs.
    fn structural_pass<E>(&self, graph: &ActionGraph<'_, E>, out: &mut Vec<Diagnostic>) {
        let nodes = &graph.nodes;
        let mut feeds_someone = vec![false; nodes.len()];
        let mut has_commit = false;
        for (id, node) in nodes.iter().enumerate() {
            let mut seen: Vec<ActionId> = Vec::with_capacity(node.deps.len());
            for &dep in &node.deps {
                if dep >= id {
                    out.push(Diagnostic::new(
                        DiagnosticCode::DanglingDep,
                        Some(id),
                        node.job,
                        format!(
                            "`{}` depends on node {dep}, which is not added before it \
                             (the edge cannot resolve)",
                            node.label
                        ),
                    ));
                    continue;
                }
                if seen.contains(&dep) {
                    out.push(Diagnostic::new(
                        DiagnosticCode::DuplicateDep,
                        Some(id),
                        node.job,
                        format!(
                            "`{}` declares node {dep} (`{}`) as a dependency more than once",
                            node.label, nodes[dep].label
                        ),
                    ));
                    continue;
                }
                seen.push(dep);
                feeds_someone[dep] = true;
                if let (Some(a), Some(b)) = (node.job, nodes[dep].job) {
                    if a != b && !same_static_key(node, &nodes[dep]) {
                        out.push(Diagnostic::new(
                            DiagnosticCode::CrossJobEdge,
                            Some(id),
                            node.job,
                            format!(
                                "`{}` (job {a}) depends on `{}` (job {b}) without sharing \
                                 its BuildKey: split_by_job blast-radius attribution \
                                 crosses jobs",
                                node.label, nodes[dep].label
                            ),
                        ));
                    }
                }
            }
            if node.kind == ActionKind::Commit {
                has_commit = true;
                if node.deps.is_empty() {
                    out.push(Diagnostic::new(
                        DiagnosticCode::CommitNoDeps,
                        Some(id),
                        node.job,
                        format!(
                            "commit node `{}` has no dependencies: it would commit an \
                             image assembled from nothing",
                            node.label
                        ),
                    ));
                }
            }
            if matches!(node.key, KeySpec::Derived(_)) && node.deps.is_empty() {
                out.push(Diagnostic::new(
                    DiagnosticCode::DerivedKeyNoDeps,
                    Some(id),
                    node.job,
                    format!(
                        "`{}` derives its BuildKey from its dependency outputs but \
                         declares no dependencies: the key degenerates to a constant",
                        node.label
                    ),
                ));
            }
        }
        // Dead outputs only make sense in a graph that actually commits an
        // image; ad-hoc stage graphs hand every output back to the driver.
        if has_commit {
            for (id, node) in nodes.iter().enumerate() {
                if node.kind != ActionKind::Commit && !feeds_someone[id] {
                    out.push(Diagnostic::new(
                        DiagnosticCode::UnreachableOutput,
                        Some(id),
                        node.job,
                        format!(
                            "`{}` feeds no other node in a committing graph: \
                             likely dead work",
                            node.label
                        ),
                    ));
                }
            }
        }
    }

    /// An untagged submission under a fair-queuing policy.
    fn scheduling_pass<E>(&self, graph: &ActionGraph<'_, E>, out: &mut Vec<Diagnostic>) {
        if graph.nodes.is_empty() {
            return;
        }
        if self.policy.fair_queuing() && self.tenant.is_none() {
            out.push(Diagnostic::new(
                DiagnosticCode::UntaggedWfqSubmission,
                None,
                None,
                "submission carries no tenant tag under a fair-queuing policy: it \
                 lands in the shared untenanted lane"
                    .to_string(),
            ));
        }
    }

    /// Unordered duplicate static `BuildKey`s: equal keys with no dependency
    /// path between them, whose `cached` trace flags are scheduling-dependent.
    fn cache_pass<E>(&self, graph: &ActionGraph<'_, E>, out: &mut Vec<Diagnostic>) {
        let nodes = &graph.nodes;
        let mut by_key: BTreeMap<String, Vec<ActionId>> = BTreeMap::new();
        for (id, node) in nodes.iter().enumerate() {
            if let KeySpec::Static(key) = &node.key {
                by_key
                    .entry(key.digest().as_str().to_string())
                    .or_default()
                    .push(id);
            }
        }
        for (digest, members) in by_key {
            if members.len() < 2 {
                continue;
            }
            // A totally ordered duplicate group (a chain, like the fleet
            // grafter's cache-probe aliases) replays deterministic hits; only
            // an unordered pair is scheduling-dependent. Members are in node
            // order, so consecutive ordering implies a chain.
            for pair in members.windows(2) {
                let (earlier, later) = (pair[0], pair[1]);
                if !is_ancestor(nodes, earlier, later) {
                    out.push(Diagnostic::new(
                        DiagnosticCode::UnorderedDuplicateKey,
                        Some(later),
                        nodes[later].job,
                        format!(
                            "`{}` and `{}` share BuildKey {} with no ordering edge: \
                             the bytes are deterministic but which record carries \
                             `cached: false` is scheduling-dependent ({} node(s) on \
                             the key)",
                            nodes[earlier].label,
                            nodes[later].label,
                            &digest[..digest.len().min(12)],
                            members.len()
                        ),
                    ));
                    break;
                }
            }
        }
    }

    /// The graph against the service's queued-action bound.
    fn service_pass<E>(&self, graph: &ActionGraph<'_, E>, out: &mut Vec<Diagnostic>) {
        if let Some(bound) = self.queue_bound {
            if graph.nodes.len() > bound {
                out.push(Diagnostic::new(
                    DiagnosticCode::QueueOverflow,
                    None,
                    None,
                    format!(
                        "the graph's {} node(s) exceed the service's queued-action \
                         bound of {bound} on their own: admitting it saturates the \
                         service for every tenant",
                        graph.nodes.len()
                    ),
                ));
            }
        }
    }
}

/// Whether both nodes carry the same static [`BuildKey`] — the fleet grafter's
/// cache-probe alias shape, where a cross-job edge is the *point* (the
/// dependent replays the dependency's artifact as a deterministic hit).
fn same_static_key<E>(
    a: &super::graph::ActionNode<'_, E>,
    b: &super::graph::ActionNode<'_, E>,
) -> bool {
    match (&a.key, &b.key) {
        (KeySpec::Static(ka), KeySpec::Static(kb)) => ka.digest() == kb.digest(),
        _ => false,
    }
}

/// Whether `ancestor` is reachable from `from` by walking dependency edges
/// (backwards indices only, so the walk terminates on any input).
fn is_ancestor<E>(
    nodes: &[super::graph::ActionNode<'_, E>],
    ancestor: ActionId,
    from: ActionId,
) -> bool {
    let mut visited = vec![false; nodes.len()];
    let mut stack = vec![from];
    while let Some(id) = stack.pop() {
        if id == ancestor {
            return true;
        }
        if id < ancestor || std::mem::replace(&mut visited[id], true) {
            // Dependency edges only point downwards: once below the candidate
            // ancestor, no path can climb back up.
            continue;
        }
        stack.extend(nodes[id].deps.iter().copied().filter(|&d| d < id));
    }
    false
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::super::graph::{ActionGraph, ActionNode, KeySpec};
    use super::*;
    use xaas_container::BuildKey;

    /// A policy with the one knob the analyzer consults.
    #[derive(Debug, Default)]
    struct TestPolicy {
        fair: bool,
    }

    impl TestPolicy {
        fn fair(mut self) -> Self {
            self.fair = true;
            self
        }
    }

    impl SchedulingPolicy for TestPolicy {
        fn name(&self) -> &str {
            "test-policy"
        }

        fn fair_queuing(&self) -> bool {
            self.fair
        }
    }

    fn key(name: &str) -> BuildKey {
        BuildKey::new(name, "xir.ir", "opts", "toolchain-test")
    }

    fn report(policy: &TestPolicy, graph: &ActionGraph<'_, String>) -> AnalysisReport {
        GraphAnalyzer::new(policy).analyze(graph)
    }

    fn codes(report: &AnalysisReport) -> Vec<DiagnosticCode> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn code_strings_are_unique_and_families_consistent() {
        let mut seen = Vec::new();
        for code in DiagnosticCode::ALL {
            assert!(!seen.contains(&code.as_str()), "duplicate {code}");
            seen.push(code.as_str());
            let family = match &code.as_str()[3..6] {
                "STR" => "structural",
                "SCH" => "scheduling",
                "CHE" => "cache",
                "SVC" => "service",
                other => panic!("unknown family tag {other}"),
            };
            assert_eq!(code.family(), family);
            assert_eq!(code.severity(), code.severity());
        }
    }

    /// The README's diagnostics table is the user-facing copy of
    /// [`DiagnosticCode::ALL`]: same codes, same order, same severities.
    #[test]
    fn readme_diagnostics_table_lists_exactly_the_codes_with_their_severities() {
        let readme = include_str!("../../../../README.md");
        let rows: Vec<(&str, &str)> = readme
            .lines()
            .filter_map(|line| line.strip_prefix("| `XA-"))
            .map(|row| {
                let mut cells = row.split('|').map(str::trim);
                let code = cells.next().unwrap().trim_end_matches('`');
                (code, cells.next().unwrap())
            })
            .collect();
        let expected: Vec<(&str, &str)> = DiagnosticCode::ALL
            .iter()
            .map(|code| (&code.as_str()["XA-".len()..], code.severity().as_str()))
            .collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn clean_pipeline_graph_produces_an_empty_report() {
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        let pre = graph.add(ActionKind::Preprocess, "pre", &[], |_| Ok(vec![1]));
        let lower = graph.add_cached(ActionKind::IrLower, "lower", key("l"), &[pre], |_| {
            Ok(vec![2])
        });
        let link = graph.add(ActionKind::Link, "link", &[lower], |_| Ok(vec![3]));
        graph.add(ActionKind::Commit, "commit", &[link], |_| Ok(vec![4]));
        let report = report(&TestPolicy::default(), &graph);
        assert!(report.diagnostics.is_empty(), "{report}");
        assert!(!report.is_rejected());
        assert_eq!(report.nodes, 4);
        assert_eq!(report.policy, "test-policy");
    }

    #[test]
    fn dangling_dep_is_a_deny_str_001() {
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        graph.add(ActionKind::Preprocess, "pre", &[], |_| Ok(vec![1]));
        // Only constructible in-crate: the public `add` asserts on forward
        // edges, so inject the defect at the node level.
        graph.nodes.push(ActionNode {
            kind: ActionKind::Link,
            label: "forward".to_string(),
            key: KeySpec::None,
            deps: vec![2],
            run: Box::new(|_| Ok(vec![2])),
            job: None,
        });
        let report = report(&TestPolicy::default(), &graph);
        assert!(report.is_rejected());
        let diagnostic = report
            .with_code(DiagnosticCode::DanglingDep)
            .next()
            .unwrap();
        assert_eq!(diagnostic.code.as_str(), "XA-STR-001");
        assert_eq!(diagnostic.severity, Severity::Deny);
        assert_eq!(diagnostic.node, Some(1));
    }

    #[test]
    fn duplicate_dep_is_a_warn_str_002() {
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        let pre = graph.add(ActionKind::Preprocess, "pre", &[], |_| Ok(vec![1]));
        graph.add(ActionKind::Link, "link", &[pre, pre], |_| Ok(vec![2]));
        let report = report(&TestPolicy::default(), &graph);
        assert!(!report.is_rejected());
        let diagnostic = report
            .with_code(DiagnosticCode::DuplicateDep)
            .next()
            .unwrap();
        assert_eq!(diagnostic.code.as_str(), "XA-STR-002");
        assert_eq!(diagnostic.severity, Severity::Warn);
        assert_eq!(diagnostic.node, Some(1));
    }

    #[test]
    fn unreachable_output_is_a_note_str_003_only_when_the_graph_commits() {
        let mut stage: ActionGraph<'_, String> = ActionGraph::new();
        stage.add(ActionKind::Preprocess, "a", &[], |_| Ok(vec![1]));
        stage.add(ActionKind::Preprocess, "b", &[], |_| Ok(vec![2]));
        // A stage graph hands every output back to the driver: no finding.
        assert!(report(&TestPolicy::default(), &stage)
            .diagnostics
            .is_empty());

        let mut committing: ActionGraph<'_, String> = ActionGraph::new();
        let used = committing.add(ActionKind::Preprocess, "used", &[], |_| Ok(vec![1]));
        committing.add(ActionKind::Preprocess, "orphan", &[], |_| Ok(vec![2]));
        committing.add(ActionKind::Commit, "commit", &[used], |_| Ok(vec![3]));
        let report = report(&TestPolicy::default(), &committing);
        assert_eq!(codes(&report), vec![DiagnosticCode::UnreachableOutput]);
        let diagnostic = &report.diagnostics[0];
        assert_eq!(diagnostic.code.as_str(), "XA-STR-003");
        assert_eq!(diagnostic.severity, Severity::Note);
        assert_eq!(diagnostic.node, Some(1));
        assert!(!report.is_rejected());
    }

    #[test]
    fn cross_job_edge_is_a_warn_str_004() {
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        graph.set_job(Some(0));
        let a = graph.add_cached(ActionKind::Preprocess, "a", key("a"), &[], |_| Ok(vec![1]));
        graph.set_job(Some(1));
        graph.add_cached(ActionKind::Link, "b", key("b"), &[a], |_| Ok(vec![2]));
        let report = report(&TestPolicy::default(), &graph);
        let diagnostic = report
            .with_code(DiagnosticCode::CrossJobEdge)
            .next()
            .unwrap();
        assert_eq!(diagnostic.code.as_str(), "XA-STR-004");
        assert_eq!(diagnostic.severity, Severity::Warn);
        assert_eq!(diagnostic.node, Some(1));
        assert_eq!(diagnostic.job, Some(1));
        assert!(!report.is_rejected());
    }

    #[test]
    fn fleet_alias_edges_sharing_a_key_are_not_cross_job_edges() {
        // The union-wave grafter's cache-probe alias: a later job's node
        // depends on an earlier job's primary with the *same* BuildKey. That
        // edge is the point of the pattern, not an attribution bug.
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        graph.set_job(Some(0));
        let primary = graph.add_cached(
            ActionKind::Preprocess,
            "primary",
            key("shared"),
            &[],
            |_| Ok(vec![1]),
        );
        graph.set_job(Some(1));
        graph.add_cached(
            ActionKind::Preprocess,
            "alias",
            key("shared"),
            &[primary],
            |_| Ok(vec![1]),
        );
        let report = report(&TestPolicy::default(), &graph);
        assert!(report.diagnostics.is_empty(), "{report}");
    }

    #[test]
    fn commit_with_no_deps_is_a_deny_str_005() {
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        graph.add(ActionKind::Commit, "commit", &[], |_| Ok(vec![1]));
        let report = report(&TestPolicy::default(), &graph);
        assert!(report.is_rejected());
        let diagnostic = report
            .with_code(DiagnosticCode::CommitNoDeps)
            .next()
            .unwrap();
        assert_eq!(diagnostic.code.as_str(), "XA-STR-005");
        assert_eq!(diagnostic.severity, Severity::Deny);
        assert_eq!(diagnostic.node, Some(0));
    }

    #[test]
    fn derived_key_with_no_deps_is_a_deny_str_006() {
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        graph.add_cached_derived(
            ActionKind::SdCompile,
            "derived",
            |_| key("constant"),
            &[],
            |_| Ok(vec![1]),
        );
        let report = report(&TestPolicy::default(), &graph);
        assert!(report.is_rejected());
        let diagnostic = report
            .with_code(DiagnosticCode::DerivedKeyNoDeps)
            .next()
            .unwrap();
        assert_eq!(diagnostic.code.as_str(), "XA-STR-006");
        assert_eq!(diagnostic.severity, Severity::Deny);
        assert_eq!(diagnostic.node, Some(0));
    }

    #[test]
    fn untagged_submission_under_fair_queuing_is_a_note_sch_005() {
        let fair = TestPolicy::default().fair();
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        graph.add(ActionKind::Preprocess, "pre", &[], |_| Ok(vec![1]));

        let tagged = GraphAnalyzer::new(&fair)
            .tenant(Some("acme"))
            .analyze(&graph);
        assert!(tagged.diagnostics.is_empty(), "{tagged}");

        let report = GraphAnalyzer::new(&fair).analyze(&graph);
        assert_eq!(codes(&report), vec![DiagnosticCode::UntaggedWfqSubmission]);
        assert_eq!(report.diagnostics[0].code.as_str(), "XA-SCH-005");
        assert_eq!(report.diagnostics[0].severity, Severity::Note);
        assert!(!report.is_rejected());
    }

    #[test]
    fn unordered_duplicate_keys_are_a_warn_che_001_once_per_key_group() {
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        for i in 0..3 {
            graph.add_cached(
                ActionKind::Preprocess,
                format!("dup-{i}"),
                key("same"),
                &[],
                |_| Ok(vec![1]),
            );
        }
        let report = report(&TestPolicy::default(), &graph);
        assert_eq!(codes(&report), vec![DiagnosticCode::UnorderedDuplicateKey]);
        let diagnostic = &report.diagnostics[0];
        assert_eq!(diagnostic.code.as_str(), "XA-CHE-001");
        assert_eq!(diagnostic.severity, Severity::Warn);
        assert!(!report.is_rejected());
    }

    #[test]
    fn duplicate_keys_ordered_by_an_edge_chain_are_fine() {
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        let first = graph.add_cached(ActionKind::Preprocess, "first", key("same"), &[], |_| {
            Ok(vec![1])
        });
        let replay = graph.add_cached(
            ActionKind::Preprocess,
            "replay",
            key("same"),
            &[first],
            |_| Ok(vec![1]),
        );
        // Transitive ordering through an intermediate node also counts.
        let bridge = graph.add(ActionKind::Link, "bridge", &[replay], |_| Ok(vec![2]));
        graph.add_cached(
            ActionKind::Preprocess,
            "replay-2",
            key("same"),
            &[bridge],
            |_| Ok(vec![1]),
        );
        let report = report(&TestPolicy::default(), &graph);
        assert!(
            !report.has_code(DiagnosticCode::UnorderedDuplicateKey),
            "{report}"
        );
    }

    #[test]
    fn graph_exceeding_the_queue_bound_is_a_warn_svc_001() {
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        for i in 0..3 {
            graph.add(ActionKind::Preprocess, format!("pre-{i}"), &[], |_| {
                Ok(vec![1])
            });
        }
        let policy = TestPolicy::default();
        let within = GraphAnalyzer::new(&policy)
            .queue_bound(Some(3))
            .analyze(&graph);
        assert!(within.diagnostics.is_empty(), "{within}");

        let report = GraphAnalyzer::new(&policy)
            .queue_bound(Some(2))
            .analyze(&graph);
        assert_eq!(codes(&report), vec![DiagnosticCode::QueueOverflow]);
        assert_eq!(report.diagnostics[0].code.as_str(), "XA-SVC-001");
        assert_eq!(report.diagnostics[0].severity, Severity::Warn);
        assert!(!report.is_rejected());
    }

    #[test]
    fn report_display_summarizes_counts_and_lists_denies() {
        let mut graph: ActionGraph<'_, String> = ActionGraph::new();
        graph.add(ActionKind::Commit, "commit", &[], |_| Ok(vec![1]));
        let report = report(&TestPolicy::default(), &graph);
        let rendered = report.to_string();
        assert!(rendered.contains("1 deny"), "{rendered}");
        assert!(rendered.contains("XA-STR-005"), "{rendered}");
        assert!(rendered.contains("test-policy"), "{rendered}");
    }
}
