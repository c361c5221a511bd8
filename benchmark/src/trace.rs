//! What the benchmark sees of the layers from outside: sums over the
//! [`ActionTrace`]s requests return ([`LayerTotals`]), and — on a traced run —
//! spans around every layer call the client makes ([`Tracer`]). [`OpCtx`] is the
//! one place a request passes through on its way to the system and back.

use crate::fixtures::{Outcome, Via};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;
use xaas::engine::{ActionKind, ActionRecord, ActionTrace, AnalysisReport};
use xaas::prelude::{Orchestrator, ServiceRequest};
use xaas_container::CacheTier;

/// Sums over every trace a phase observed. Counts repeat exactly from run to
/// run on the single-client workloads; the microsecond sums are timings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Engine requests observed (one trace each; a fleet wave is one).
    pub requests: u64,
    /// Action records (graph nodes that completed).
    pub nodes: u64,
    /// `exec_micros` summed per [`ActionKind`], in [`ActionKind::ALL`] order.
    pub exec_us: [u64; 7],
    /// `queue_wait_micros` summed as recorded (waits of parallel-ready nodes overlap).
    pub queue_wait_us: u64,
    /// `parked_micros` summed.
    pub parked_us: u64,
    /// Continuation parks.
    pub parks: u64,
    /// Deepest cross-submission interleaving any record saw.
    pub max_ready_submissions: u64,
    /// Keyed nodes served from the cache.
    pub hits: u64,
    /// Keyed nodes that executed.
    pub recomputes: u64,
    /// Hits that parked on another request's flight.
    pub coalesced: u64,
    /// Hits the disk tier served.
    pub disk_hits: u64,
}

impl LayerTotals {
    /// Add one request's trace.
    pub fn observe(&mut self, trace: &ActionTrace) {
        self.requests += 1;
        self.nodes += trace.records.len() as u64;
        for record in &trace.records {
            self.exec_us[record.kind.index()] += record.exec_micros;
            self.queue_wait_us += record.queue_wait_micros;
            self.parked_us += record.parked_micros;
            self.parks += record.parks;
            self.max_ready_submissions = self.max_ready_submissions.max(record.ready_submissions);
            if record.key_digest.is_some() {
                if record.cached {
                    self.hits += 1;
                    self.coalesced += u64::from(record.coalesced);
                    self.disk_hits += u64::from(record.hit_tier == Some(CacheTier::Disk));
                } else {
                    self.recomputes += 1;
                }
            }
        }
    }

    /// Fold another client's totals into these.
    pub fn merge(&mut self, other: &LayerTotals) {
        self.requests += other.requests;
        self.nodes += other.nodes;
        for (mine, theirs) in self.exec_us.iter_mut().zip(other.exec_us) {
            *mine += theirs;
        }
        self.queue_wait_us += other.queue_wait_us;
        self.parked_us += other.parked_us;
        self.parks += other.parks;
        self.max_ready_submissions = self.max_ready_submissions.max(other.max_ready_submissions);
        self.hits += other.hits;
        self.recomputes += other.recomputes;
        self.coalesced += other.coalesced;
        self.disk_hits += other.disk_hits;
    }
}

/// For each record (in dispatch order), the part of its queue wait during which
/// no earlier-dispatched node of the same request was executing.
///
/// Records carry durations, not timestamps, so the timeline is rebuilt: a node
/// becomes ready at the start or when some node finishes, hence the time between
/// its becoming ready and its dispatch is filled by whole earlier `exec + gap`
/// slots, newest first; what those slots do not cover is this node's own gap —
/// the worker was idle, or busy with another request, while the node was ready.
/// Exact for one worker up to the microsecond truncation of the records
/// (`slack_us` per slot absorbs it); an estimate when workers overlap.
pub fn exclusive_queue_waits(records: &[&ActionRecord], slack_us: u64) -> Vec<u64> {
    let mut slots: Vec<u64> = Vec::with_capacity(records.len());
    let mut gaps = Vec::with_capacity(records.len());
    for record in records {
        let mut remaining = record.queue_wait_micros;
        for slot in slots.iter().rev() {
            if *slot > remaining + slack_us {
                break;
            }
            remaining = remaining.saturating_sub(*slot);
        }
        gaps.push(remaining);
        slots.push(record.exec_micros + remaining);
    }
    gaps
}

/// One interval of a traced run. `parent` and `request` tie the spans of one
/// request together; times are microseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the parent span, `None` for a request's root span.
    pub parent: Option<u32>,
    /// The request (per client) the span belongs to.
    pub request: u32,
    /// What the interval covers (`request`, `plan+lint`, `submit_wait`,
    /// `exec:<kind>`, `queue`, `park`, `golden-check`).
    pub name: &'static str,
    /// Start, µs since the epoch.
    pub start_us: u64,
    /// End, µs since the epoch.
    pub end_us: u64,
}

fn exec_span_name(kind: ActionKind) -> &'static str {
    match kind {
        ActionKind::Preprocess => "exec:preprocess",
        ActionKind::OpenMpDetect => "exec:openmp-detect",
        ActionKind::IrLower => "exec:ir-lower",
        ActionKind::MachineLower => "exec:machine-lower",
        ActionKind::SdCompile => "exec:sd-compile",
        ActionKind::Link => "exec:link",
        ActionKind::Commit => "exec:commit",
    }
}

/// The span recorder of one client thread. Spans stay in memory until the run
/// ends; the sums alongside them are what the attribution shares are made of.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    client: usize,
    spans: Vec<Span>,
    requests: u32,
    /// Index of the open request's root span.
    open: Option<u32>,
    /// Time inside `analyze()` calls, µs.
    pub plan_us: u64,
    /// Time inside submit calls, µs.
    pub submit_us: u64,
    /// Σ `exec_micros` of the traced requests, µs.
    pub exec_us: u64,
    /// Σ [`exclusive_queue_waits`] of the traced requests, µs.
    pub queue_exclusive_us: u64,
    /// Time from each request's start to its end, µs, summed.
    pub request_us: u64,
    /// Deny-level diagnostics `analyze()` reported.
    pub denies: u64,
}

impl Tracer {
    /// A tracer for client `client` whose clock starts at `epoch`.
    pub fn new(epoch: Instant, client: usize) -> Self {
        Self {
            epoch,
            client,
            spans: Vec::new(),
            requests: 0,
            open: None,
            plan_us: 0,
            submit_us: 0,
            exec_us: 0,
            queue_exclusive_us: 0,
            request_us: 0,
            denies: 0,
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn push(&mut self, parent: Option<u32>, name: &'static str, start_us: u64, end_us: u64) -> u32 {
        self.spans.push(Span {
            parent,
            request: self.requests,
            name,
            start_us,
            end_us,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open the root span of the next request.
    pub fn begin_request(&mut self) {
        let now = self.now_us();
        self.open = Some(self.push(None, "request", now, now));
    }

    /// Close the open request's root span.
    pub fn end_request(&mut self) {
        if let Some(root) = self.open.take() {
            let now = self.now_us();
            let span = &mut self.spans[root as usize];
            span.end_us = now;
            self.request_us += now - span.start_us;
            self.requests += 1;
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Child spans of one engine submission rebuilt from its records: per node a
    /// `queue` interval (its exclusive wait), a `park` interval when it parked, and
    /// an `exec:<kind>` interval, laid end to end in dispatch order from the
    /// submission's start — exact for one worker, a layout otherwise.
    fn nodes(&mut self, submit: u32, trace: &ActionTrace) {
        let mut ordered: Vec<&ActionRecord> = trace.records.iter().collect();
        ordered.sort_by_key(|record| record.schedule_seq);
        let gaps = exclusive_queue_waits(&ordered, 2);
        let mut cursor = self.spans[submit as usize].start_us;
        for (record, gap) in ordered.iter().zip(gaps) {
            if gap > 0 {
                self.push(Some(submit), "queue", cursor, cursor + gap);
                if record.parked_micros > 0 {
                    let parked = record.parked_micros.min(gap);
                    self.push(Some(submit), "park", cursor, cursor + parked);
                }
                cursor += gap;
            }
            self.push(
                Some(submit),
                exec_span_name(record.kind),
                cursor,
                cursor + record.exec_micros,
            );
            cursor += record.exec_micros;
            self.exec_us += record.exec_micros;
            self.queue_exclusive_us += gap;
        }
    }
}

/// Serialise the spans of all clients as one JSON document: a header and one
/// compact row per span (`[client, id, parent, request, name, start_us, end_us]`).
pub fn spans_to_json(workload: &str, seed: u64, workers: usize, tracers: &[Tracer]) -> String {
    let mut out = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"engine_workers\":{workers},\
         \"note\":\"request, plan+lint, submit_wait and golden-check are measured by the client; \
         exec/queue/park are rebuilt from the returned ActionRecords and laid out in dispatch order\",\
         \"columns\":[\"client\",\"id\",\"parent\",\"request\",\"name\",\"start_us\",\"end_us\"],\
         \"spans\":[\n"
    );
    let mut first = true;
    for tracer in tracers {
        for (id, span) in tracer.spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "[{},{id},{parent},{},\"{}\",{},{}]",
                tracer.client, span.request, span.name, span.start_us, span.end_us
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Cumulative counters and gauges read from one orchestrator's stack — the
/// engine queue, the cache backend, the disk tier, the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Continuation wake-ups (`QueueStats::wakeups`).
    pub wakeups: u64,
    /// L1 evictions.
    pub evictions: u64,
    /// Outputs promoted up the tier stack.
    pub promotions: u64,
    /// Disk-tier index entries dropped for a missing blob.
    pub stale_drops: u64,
    /// Misses answered by waiting on another process's lock.
    pub lock_waits: u64,
    /// SHA-256 passes the store made.
    pub digests_computed: u64,
    /// Store puts short-circuited by an existing digest.
    pub dedup_hits: u64,
    /// Gauge: blobs in the store.
    pub blob_count: u64,
    /// Gauge: bytes in the store.
    pub store_bytes: u64,
    /// Gauge: keys the disk tier indexes.
    pub journal_entries: u64,
    /// Gauge: blob bytes on disk.
    pub disk_bytes: u64,
}

impl StackStats {
    /// Read `orch`'s stack now.
    pub fn read(orch: &Orchestrator) -> Self {
        let cache = orch.cache_stats();
        let store = orch.store().stats();
        let disk = orch
            .tiered_cache()
            .and_then(|tiers| tiers.disk_stats())
            .unwrap_or_default();
        Self {
            wakeups: orch.engine().queue_stats().wakeups,
            evictions: cache.evictions,
            promotions: cache.promotions,
            stale_drops: disk.stale_drops,
            lock_waits: disk.lock_waits,
            digests_computed: store.digests_computed,
            dedup_hits: store.dedup_hits,
            blob_count: store.blob_count as u64,
            store_bytes: store.total_bytes,
            journal_entries: disk.entries as u64,
            disk_bytes: disk.bytes,
        }
    }

    /// Add `later - earlier` of one stack: counters accumulate, gauges take the
    /// later reading. `earlier` is the default for a stack created inside the phase.
    pub fn add_delta(&mut self, later: &StackStats, earlier: &StackStats) {
        self.wakeups += later.wakeups - earlier.wakeups;
        self.evictions += later.evictions - earlier.evictions;
        self.promotions += later.promotions - earlier.promotions;
        self.stale_drops += later.stale_drops - earlier.stale_drops;
        self.lock_waits += later.lock_waits - earlier.lock_waits;
        self.digests_computed += later.digests_computed - earlier.digests_computed;
        self.dedup_hits += later.dedup_hits - earlier.dedup_hits;
        self.blob_count = later.blob_count;
        self.store_bytes = later.store_bytes;
        self.journal_entries = later.journal_entries;
        self.disk_bytes = later.disk_bytes;
    }
}

/// What outputs are compared with.
pub enum Golden<'a> {
    /// Compare every digest with the reference filed under its key.
    Check(&'a BTreeMap<String, String>),
    /// The reference pass: file every digest under its key.
    Record(&'a mut BTreeMap<String, String>),
}

/// The context one operation runs in: where its traces are summed, where its
/// spans go (traced runs only), and the reference its outputs must equal.
pub struct OpCtx<'a> {
    /// Sums over the op's traces.
    pub totals: &'a mut LayerTotals,
    /// Counters of the orchestrators the op created and dropped.
    pub stacks: &'a mut StackStats,
    /// The span recorder, on a traced run.
    pub tracer: Option<&'a mut Tracer>,
    golden: Golden<'a>,
    /// Index of the last `submit_wait` span, for the node spans that follow it.
    last_submit: Option<u32>,
}

impl<'a> OpCtx<'a> {
    /// A context over the given sinks and reference.
    pub fn new(
        totals: &'a mut LayerTotals,
        stacks: &'a mut StackStats,
        tracer: Option<&'a mut Tracer>,
        golden: Golden<'a>,
    ) -> Self {
        Self {
            totals,
            stacks,
            tracer,
            golden,
            last_submit: None,
        }
    }

    /// Send `request` via `via` and wait. On a traced run, first time
    /// `lint(request.clone())` — the layer's own plan-and-lint entry point, which
    /// executes nothing — as the `plan+lint` span.
    pub fn send<R>(
        &mut self,
        via: Via<'_>,
        request: R,
        lint: impl FnOnce(R, &Orchestrator) -> Option<AnalysisReport>,
    ) -> Result<R::Output, String>
    where
        R: ServiceRequest + Clone,
        R::Error: Display,
    {
        let Some(tracer) = self.tracer.as_deref_mut() else {
            return via.send(request);
        };
        let start = tracer.now_us();
        let report = lint(request.clone(), via.orchestrator());
        let planned = tracer.now_us();
        if let Some(report) = report {
            tracer.push(tracer.open, "plan+lint", start, planned);
            tracer.plan_us += planned - start;
            tracer.denies += report.denies() as u64;
        }
        let start = tracer.now_us();
        let output = via.send(request);
        let end = tracer.now_us();
        self.last_submit = Some(tracer.push(tracer.open, "submit_wait", start, end));
        tracer.submit_us += end - start;
        output
    }

    /// Compare `digest` with the reference filed under `key` (or file it, on the
    /// reference pass).
    pub fn check_digest(&mut self, key: &str, digest: String) -> Result<(), String> {
        match &mut self.golden {
            Golden::Check(expected) => match expected.get(key) {
                Some(expected) if *expected == digest => Ok(()),
                Some(expected) => Err(format!(
                    "{key}: image {digest} differs from the reference {expected}"
                )),
                None => Err(format!("{key}: no reference digest")),
            },
            Golden::Record(reference) => match reference.insert(key.to_string(), digest.clone()) {
                Some(earlier) if earlier != digest => Err(format!(
                    "{key}: the reference pass produced both {earlier} and {digest}"
                )),
                _ => Ok(()),
            },
        }
    }

    /// Account for a finished request: sum its trace, rebuild its node spans, and
    /// check its digest under `key`.
    pub fn check(&mut self, key: &str, outcome: Result<Outcome, String>) -> Result<(), String> {
        let outcome = outcome?;
        self.totals.observe(&outcome.trace);
        let started = self.tracer.as_deref_mut().map(|tracer| {
            if let Some(submit) = self.last_submit.take() {
                tracer.nodes(submit, &outcome.trace);
            }
            tracer.now_us()
        });
        let verdict = self.check_digest(key, outcome.digest);
        if let (Some(tracer), Some(started)) = (self.tracer.as_deref_mut(), started) {
            let now = tracer.now_us();
            tracer.push(tracer.open, "golden-check", started, now);
        }
        verdict
    }

    /// Read the counters of an orchestrator the op created, before it is dropped.
    pub fn retire(&mut self, orch: &Orchestrator) {
        self.stacks
            .add_delta(&StackStats::read(orch), &StackStats::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, wait: u64, exec: u64) -> ActionRecord {
        ActionRecord {
            kind: ActionKind::Preprocess,
            label: format!("n{seq}"),
            key_digest: None,
            cached: false,
            hit_tier: None,
            coalesced: false,
            queue_wait_micros: wait,
            exec_micros: exec,
            schedule_seq: seq,
            job: None,
            tenant: None,
            ready_submissions: 1,
            parked_micros: 0,
            parks: 0,
        }
    }

    #[test]
    fn exclusive_wait_subtracts_the_execs_a_node_waited_behind() {
        // Three roots ready at t=0 on one worker (5 µs wake-up, 1 µs between
        // pops), then a join that becomes ready when the third finishes.
        let records = [
            record(0, 5, 30),
            record(1, 36, 30),
            record(2, 67, 30),
            record(3, 2, 10),
        ];
        let refs: Vec<&ActionRecord> = records.iter().collect();
        assert_eq!(exclusive_queue_waits(&refs, 0), vec![5, 1, 1, 2]);
    }

    #[test]
    fn truncated_clocks_are_absorbed_by_the_slack() {
        // The second root's recorded wait is 1 µs short of the first slot.
        let records = [record(0, 5, 30), record(1, 34, 30)];
        let refs: Vec<&ActionRecord> = records.iter().collect();
        assert_eq!(exclusive_queue_waits(&refs, 0), vec![5, 34]);
        assert_eq!(exclusive_queue_waits(&refs, 2), vec![5, 0]);
    }

    #[test]
    fn totals_count_hits_recomputes_and_tiers() {
        let mut hit = record(0, 0, 3);
        hit.key_digest = Some("k".into());
        hit.cached = true;
        hit.hit_tier = Some(CacheTier::Disk);
        let mut miss = record(1, 4, 7);
        miss.key_digest = Some("m".into());
        miss.kind = ActionKind::IrLower;
        let trace = ActionTrace {
            records: vec![hit, miss, record(2, 1, 1)],
            ..ActionTrace::default()
        };
        let mut totals = LayerTotals::default();
        totals.observe(&trace);
        assert_eq!((totals.requests, totals.nodes), (1, 3));
        assert_eq!(
            (totals.hits, totals.recomputes, totals.disk_hits),
            (1, 1, 1)
        );
        assert_eq!(totals.exec_us[ActionKind::IrLower.index()], 7);
        let mut doubled = totals.clone();
        doubled.merge(&totals);
        assert_eq!(doubled.nodes, 6);
        assert_eq!(doubled.queue_wait_us, 10);
    }

    #[test]
    fn spans_nest_under_their_request_and_serialise() {
        let mut tracer = Tracer::new(Instant::now(), 0);
        tracer.begin_request();
        let submit = tracer.push(tracer.open, "submit_wait", 10, 90);
        let trace = ActionTrace {
            records: vec![record(0, 5, 30), record(1, 36, 30)],
            ..ActionTrace::default()
        };
        tracer.nodes(submit, &trace);
        tracer.end_request();
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "request",
                "submit_wait",
                "queue",
                "exec:preprocess",
                "queue",
                "exec:preprocess"
            ]
        );
        assert!(tracer.spans()[2..].iter().all(|s| s.parent == Some(submit)));
        assert_eq!((tracer.exec_us, tracer.queue_exclusive_us), (60, 6));
        let json = spans_to_json("w", 13, 1, &[tracer]);
        assert!(serde_json::parse(&json).is_ok(), "{json}");
    }
}
