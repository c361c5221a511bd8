//! Per-build action traces: what the engine ran, what the cache absorbed.
//!
//! Every node of an [`ActionGraph`](crate::engine::ActionGraph) that completes
//! successfully leaves one [`ActionRecord`] behind, assembled in node order so the
//! trace is deterministic regardless of how the executor's worker pool interleaved
//! the actions. Two builds of the same inputs therefore produce *equal* traces (up
//! to the `cached` flags, which depend on the cache's starting state) — the
//! property tests lean on this to prove that parallel and serial builds execute the
//! same action set.

#![deny(clippy::unwrap_used, clippy::dbg_macro)]
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use xaas_container::{CacheStats, CacheTier};

/// The pipeline stage an action belongs to. One variant per stage of the paper's
/// build/deploy pipeline (Figures 7–8), plus the image-assembly tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ActionKind {
    /// Run the preprocessor over one translation unit (stage 2 identity input).
    Preprocess,
    /// Retired: no graph carries this kind. Stage 3's OpenMP verdict is now part of
    /// a [`Preprocess`](ActionKind::Preprocess) node's output. The variant stays, with
    /// its name, only because the benchmark crate matches on every kind; it goes
    /// once that crate stops naming it.
    OpenMpDetect,
    /// Compile a deduplicated translation unit to target-independent IR (stage 4).
    IrLower,
    /// Lower a stored IR unit to machine code for a concrete ISA (deployment).
    MachineLower,
    /// Compile a system-dependent source from scratch at deployment.
    SdCompile,
    /// Assemble the output image's layers from the produced artifacts.
    Link,
    /// Commit the assembled image to the content-addressed store.
    Commit,
}

impl ActionKind {
    /// Every action kind, in pipeline order.
    pub const ALL: [ActionKind; 7] = [
        ActionKind::Preprocess,
        ActionKind::OpenMpDetect,
        ActionKind::IrLower,
        ActionKind::MachineLower,
        ActionKind::SdCompile,
        ActionKind::Link,
        ActionKind::Commit,
    ];

    /// Dense index of the kind inside [`ActionKind::ALL`], for per-kind tables.
    pub fn index(self) -> usize {
        match self {
            ActionKind::Preprocess => 0,
            ActionKind::OpenMpDetect => 1,
            ActionKind::IrLower => 2,
            ActionKind::MachineLower => 3,
            ActionKind::SdCompile => 4,
            ActionKind::Link => 5,
            ActionKind::Commit => 6,
        }
    }

    /// Stable lowercase name (used in action-set identities and JSON reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            ActionKind::Preprocess => "preprocess",
            ActionKind::OpenMpDetect => "openmp-detect",
            ActionKind::IrLower => "ir-lower",
            ActionKind::MachineLower => "machine-lower",
            ActionKind::SdCompile => "sd-compile",
            ActionKind::Link => "link",
            ActionKind::Commit => "commit",
        }
    }
}

impl std::fmt::Display for ActionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One successfully executed (or cache-served) action.
///
/// Equality deliberately ignores the timing/scheduling diagnostics
/// (`queue_wait_micros`, `exec_micros`, `schedule_seq`): two runs of the same build
/// produce *equal* traces even though their wall-clock behaviour differs, which is
/// what the schedule-independence property tests assert.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActionRecord {
    /// The pipeline stage.
    pub kind: ActionKind,
    /// Human-readable identity (usually the file or unit the action worked on).
    pub label: String,
    /// Hex digest of the [`BuildKey`](xaas_container::BuildKey) for cache-routed
    /// actions; `None` for actions that never touch the cache (preprocess, link, …).
    pub key_digest: Option<String>,
    /// Whether the action was served from the cache instead of executing.
    pub cached: bool,
    /// Which tier of the cache served the hit ([`CacheTier::Memory`] for plain
    /// in-memory hits; `Disk` when an
    /// [`ActionCache`](xaas_container::ActionCache) stack promoted the blob
    /// from its disk tier). `None` for executed or cache-exempt actions. Like the
    /// clocks, excluded from equality: *which* tier answers depends on the
    /// cache's starting state, not on what the build ran.
    #[serde(default)]
    pub hit_tier: Option<CacheTier>,
    /// Whether the hit was *coalesced*: the action parked as a continuation on
    /// another worker's in-flight computation of the same key and reused its
    /// result, rather than finding the value already resident. Scheduling
    /// diagnostic, excluded from equality.
    #[serde(default)]
    pub coalesced: bool,
    /// Microseconds the action spent in the ready queue (from becoming runnable —
    /// dependencies satisfied — to a worker dispatching it). Scheduling-policy
    /// effects (which tenant lane dispatches first) show up here.
    #[serde(default)]
    pub queue_wait_micros: u64,
    /// Microseconds the action spent executing (or being served from the cache).
    #[serde(default)]
    pub exec_micros: u64,
    /// Global dispatch index assigned when a worker popped the action from the
    /// engine's ready queue — the observable execution order the scheduling policy
    /// produced. Monotone across successive submissions to the same engine.
    #[serde(default)]
    pub schedule_seq: u64,
    /// The fleet job (subgraph tag) the action was grafted under, when the graph
    /// carried several logical subgraphs (see
    /// [`ActionGraph::set_job`](crate::engine::ActionGraph::set_job)); `None` for
    /// single-pipeline submissions. Attribution metadata — like the timing
    /// diagnostics, it is excluded from equality so a job's slice of a union-graph
    /// trace compares equal to the same job run standalone.
    #[serde(default)]
    pub job: Option<usize>,
    /// The tenant the submitting engine was tagged with (see
    /// [`Engine::with_tenant`](crate::engine::Engine::with_tenant)); `None` for
    /// untenanted submissions. Attribution metadata, excluded from equality so a
    /// tenant's build compares equal to the same build run untenanted.
    #[serde(default)]
    pub tenant: Option<String>,
    /// Number of distinct submissions with actions waiting in the engine's shared
    /// ready queue at the moment this action was dispatched (including this
    /// one). A value above 1 is the trace-level proof that the engine interleaved
    /// actions from concurrent submissions. Scheduling diagnostic, excluded from
    /// equality.
    #[serde(default)]
    pub ready_submissions: u64,
    /// Microseconds this action spent *parked* as a continuation on another
    /// worker's single-flight computation of the same key. A subset of
    /// `queue_wait_micros`'s story told separately:
    /// parked time is contention, plain queue wait is backlog. Scheduling
    /// diagnostic, excluded from equality like the other clocks.
    #[serde(default)]
    pub parked_micros: u64,
    /// How many times this action parked on a cache flight before completing. Scheduling diagnostic, excluded from equality.
    #[serde(default)]
    pub parks: u64,
}

impl PartialEq for ActionRecord {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.label == other.label
            && self.key_digest == other.key_digest
            && self.cached == other.cached
    }
}

impl Eq for ActionRecord {}

impl ActionRecord {
    /// The cache-independent identity of the action: `kind|label|key`. Two runs of
    /// the same build produce the same identity set whether or not the cache was
    /// warm — only the `cached` flags differ.
    pub fn identity(&self) -> String {
        format!(
            "{}|{}|{}",
            self.kind.as_str(),
            self.label,
            self.key_digest.as_deref().unwrap_or("-")
        )
    }
}

/// How many cache-routed actions ran versus how many were served from the cache.
/// Reported next to (never inside) the artifacts, so cached and uncached builds stay
/// byte-identical. An IR build counts its `ir-lower` nodes, one per key, so a cold
/// IR build reports `cached == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionSummary {
    /// Actions that actually executed (cache misses).
    pub executed: usize,
    /// Actions served from the cache (hits).
    pub cached: usize,
}

impl ActionSummary {
    /// Total actions routed through the cache.
    pub fn total(&self) -> usize {
        self.executed + self.cached
    }
}

/// The complete, deterministic record of one build's trip through the engine.
///
/// Equality ignores the `tenant` tag (like the per-record attribution metadata),
/// so a tenant session's trace compares equal to the same build run untenanted —
/// which is how the multi-tenant determinism tests phrase "the service changes
/// *who* ran it, never *what* ran".
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ActionTrace {
    /// One record per completed action, in graph-node order (scheduling-independent).
    pub records: Vec<ActionRecord>,
    /// The minimal number of serial stages the submitted graphs impose: the sum of
    /// the graphs' critical-path depths. A single-threaded executor runs
    /// `records.len()` serial steps; a parallel one needs only `stage_depth` waves.
    pub stage_depth: usize,
    /// Name of the [`SchedulingPolicy`](crate::engine::SchedulingPolicy) the engine
    /// scheduled the run under (`"fifo"`, `"weighted-fair"`, …).
    #[serde(default)]
    pub policy: String,
    /// The tenant the submitting engine was tagged with, if any (attribution
    /// metadata, excluded from equality).
    #[serde(default)]
    pub tenant: Option<String>,
}

impl PartialEq for ActionTrace {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
            && self.stage_depth == other.stage_depth
            && self.policy == other.policy
    }
}

impl ActionTrace {
    /// Number of recorded actions (what a fully serial pipeline executes one by one).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append another trace (a later staged submission of the same build).
    pub fn merge(&mut self, other: ActionTrace) {
        self.records.extend(other.records);
        self.stage_depth += other.stage_depth;
        if self.policy.is_empty() {
            self.policy = other.policy;
        }
        if self.tenant.is_none() {
            self.tenant = other.tenant;
        }
    }

    /// Executed-vs-cached counts over the *cache-routed* actions only, matching the
    /// pipeline's historical [`ActionSummary`] reporting.
    pub fn summary(&self) -> ActionSummary {
        let mut summary = ActionSummary::default();
        for record in self.records.iter().filter(|r| r.key_digest.is_some()) {
            if record.cached {
                summary.cached += 1;
            } else {
                summary.executed += 1;
            }
        }
        summary
    }

    /// The cache activity *this trace's actions* generated, independent of any
    /// other request sharing the cache: hits/misses/coalesced counts and
    /// per-tier hit attribution accumulated from the records' own flags, never
    /// by before/after subtraction on the shared backend's counters (which
    /// silently attributes concurrent tenants' traffic to this request).
    ///
    /// `entries` and `evictions` are backend-global quantities with no
    /// per-request meaning, so they are left at zero — callers that want them
    /// read the live backend stats separately.
    pub fn cache_delta(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for record in self.records.iter().filter(|r| r.key_digest.is_some()) {
            if record.cached {
                stats.hits += 1;
                if record.coalesced {
                    stats.coalesced += 1;
                }
                match record.hit_tier {
                    Some(CacheTier::Disk) => stats.disk_hits += 1,
                    Some(CacheTier::Memory) | None => {}
                }
            } else {
                stats.misses += 1;
            }
        }
        stats
    }

    /// The cache-independent action identities. Equal for warm and cold runs of the
    /// same build, and for serial and parallel runs — the property tests assert both.
    pub fn action_set(&self) -> BTreeSet<String> {
        self.records.iter().map(ActionRecord::identity).collect()
    }

    /// Actions per [`ActionKind`] (for stats/reporting).
    pub fn by_kind(&self) -> BTreeMap<ActionKind, usize> {
        let mut counts = BTreeMap::new();
        for record in &self.records {
            *counts.entry(record.kind).or_insert(0) += 1;
        }
        counts
    }

    /// Total ready-queue wait per tenant, in microseconds (untenanted records
    /// accumulate under `""`): the per-tenant view of scheduling fairness, where
    /// one tenant's lane waiting on another's becomes visible and assertable.
    pub fn queue_wait_micros_by_tenant(&self) -> BTreeMap<String, u64> {
        let mut waits = BTreeMap::new();
        for record in &self.records {
            *waits
                .entry(record.tenant.clone().unwrap_or_default())
                .or_insert(0) += record.queue_wait_micros;
        }
        waits
    }

    /// The largest multi-graph ready-queue depth any action of this trace
    /// observed at dispatch ([`ActionRecord::ready_submissions`]). A value above
    /// 1 proves actions from concurrent submissions interleaved through the
    /// engine's shared queue.
    pub fn max_ready_submissions(&self) -> u64 {
        self.records
            .iter()
            .map(|record| record.ready_submissions)
            .max()
            .unwrap_or(0)
    }

    /// Split a union-graph trace into one trace per job tag, preserving node
    /// order within each job. Records without a job tag are dropped (they belong
    /// to no subgraph). The splits carry the parent's `policy`; their
    /// `stage_depth` is left at zero because a subgraph's depth is not derivable
    /// from records alone — the fleet driver sets it from the grafted subgraph.
    ///
    /// Together the splits *partition* the tagged records: per-kind counts summed
    /// over all jobs equal the union trace's counts.
    pub fn split_by_job(&self) -> BTreeMap<usize, ActionTrace> {
        let mut splits: BTreeMap<usize, ActionTrace> = BTreeMap::new();
        for record in &self.records {
            let Some(job) = record.job else { continue };
            splits
                .entry(job)
                .or_insert_with(|| ActionTrace {
                    policy: self.policy.clone(),
                    ..ActionTrace::default()
                })
                .records
                .push(record.clone());
        }
        splits
    }

    /// Action identities in the order the scheduling policy dispatched them
    /// (ascending [`ActionRecord::schedule_seq`]). Unlike [`records`](Self::records)
    /// — which are always in node order — this order *does* depend on the policy:
    /// `Fifo` and `WeightedFair` runs of the same tenant-tagged submissions differ
    /// here while producing byte-identical artifacts.
    pub fn execution_order(&self) -> Vec<String> {
        let mut ordered: Vec<&ActionRecord> = self.records.iter().collect();
        ordered.sort_by_key(|r| r.schedule_seq);
        ordered.into_iter().map(ActionRecord::identity).collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn record(kind: ActionKind, label: &str, key: Option<&str>, cached: bool) -> ActionRecord {
        ActionRecord {
            kind,
            label: label.to_string(),
            key_digest: key.map(str::to_string),
            cached,
            hit_tier: cached.then_some(CacheTier::Memory),
            coalesced: false,
            queue_wait_micros: 0,
            exec_micros: 0,
            schedule_seq: 0,
            job: None,
            tenant: None,
            ready_submissions: 0,
            parked_micros: 0,
            parks: 0,
        }
    }

    #[test]
    fn split_by_job_partitions_tagged_records_and_keeps_policy() {
        let mut records = vec![
            record(ActionKind::Preprocess, "a.ck", None, false),
            record(ActionKind::IrLower, "a.ck", Some("ab12"), false),
            record(ActionKind::IrLower, "b.ck", Some("cd34"), true),
            record(ActionKind::Commit, "img", None, false),
        ];
        records[0].job = Some(0);
        records[1].job = Some(0);
        records[2].job = Some(1);
        records[3].job = Some(1);
        let trace = ActionTrace {
            records,
            stage_depth: 3,
            policy: "fifo".to_string(),
            tenant: None,
        };
        let splits = trace.split_by_job();
        assert_eq!(splits.len(), 2);
        assert_eq!(splits[&0].len(), 2);
        assert_eq!(splits[&1].len(), 2);
        assert_eq!(splits[&0].policy, "fifo");
        // The splits partition the union: per-kind counts sum to the union's.
        let mut summed = BTreeMap::new();
        for split in splits.values() {
            for (kind, count) in split.by_kind() {
                *summed.entry(kind).or_insert(0) += count;
            }
        }
        assert_eq!(summed, trace.by_kind());
        // Untagged records belong to no job and are dropped by the split.
        let untagged = ActionTrace {
            records: vec![record(ActionKind::Link, "img", None, false)],
            stage_depth: 1,
            policy: String::new(),
            tenant: None,
        };
        assert!(untagged.split_by_job().is_empty());
    }

    #[test]
    fn summary_counts_only_cache_routed_actions() {
        let trace = ActionTrace {
            records: vec![
                record(ActionKind::Preprocess, "a.ck", None, false),
                record(ActionKind::IrLower, "a.ck", Some("ab12"), false),
                record(ActionKind::IrLower, "b.ck", Some("cd34"), true),
                record(ActionKind::Commit, "img", None, false),
            ],
            stage_depth: 3,
            policy: String::new(),
            tenant: None,
        };
        assert_eq!(
            trace.summary(),
            ActionSummary {
                executed: 1,
                cached: 1
            }
        );
        assert_eq!(trace.summary().total(), 2);
        assert_eq!(trace.len(), 4);
    }

    #[test]
    fn cache_delta_counts_only_this_traces_records() {
        let mut records = vec![
            record(ActionKind::Preprocess, "a.ck", None, false),
            record(ActionKind::IrLower, "a.ck", Some("ab12"), false),
            record(ActionKind::IrLower, "b.ck", Some("cd34"), true),
            record(ActionKind::MachineLower, "b.ck", Some("ef56"), true),
            record(ActionKind::SdCompile, "c.ck", Some("0078"), true),
        ];
        records[3].hit_tier = Some(CacheTier::Disk);
        records[4].coalesced = true;
        let trace = ActionTrace {
            records,
            stage_depth: 3,
            policy: String::new(),
            tenant: None,
        };
        let delta = trace.cache_delta();
        assert_eq!(delta.hits, 3);
        assert_eq!(delta.misses, 1, "keyless actions are not cache misses");
        assert_eq!(delta.coalesced, 1);
        assert_eq!(delta.disk_hits, 1);
        assert_eq!(delta.memory_hits(), 2);
        // Backend-global quantities have no per-request meaning.
        assert_eq!(delta.entries, 0);
        assert_eq!(delta.evictions, 0);
    }

    #[test]
    fn action_set_is_cache_state_independent() {
        let cold = ActionTrace {
            records: vec![record(ActionKind::IrLower, "a.ck", Some("ab12"), false)],
            stage_depth: 1,
            policy: String::new(),
            tenant: None,
        };
        let warm = ActionTrace {
            records: vec![record(ActionKind::IrLower, "a.ck", Some("ab12"), true)],
            stage_depth: 1,
            policy: String::new(),
            tenant: None,
        };
        assert_ne!(cold, warm, "cached flags differ");
        assert_eq!(cold.action_set(), warm.action_set());
    }

    #[test]
    fn merge_accumulates_records_and_depth() {
        let mut trace = ActionTrace {
            records: vec![record(ActionKind::Preprocess, "a.ck", None, false)],
            stage_depth: 1,
            policy: String::new(),
            tenant: None,
        };
        trace.merge(ActionTrace {
            records: vec![record(ActionKind::Link, "img", None, false)],
            stage_depth: 2,
            policy: String::new(),
            tenant: None,
        });
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.stage_depth, 3);
        assert_eq!(trace.by_kind()[&ActionKind::Link], 1);
    }
}
