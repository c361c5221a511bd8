//! The measuring loop: identical blocks of a fixed number of operations, one
//! closed-loop client thread per caller, and the metrics computed from them.

use crate::platform::{
    fastest, filesystem_of, median, peak_rss_mb, percentile, process_cpu_ms, AllocSnapshot,
};
use crate::trace::{Golden, LayerTotals, OpCtx, StackStats, Tracer};
use crate::workloads::{out_dir, Prepared, Workload};
use std::sync::Barrier;
use std::time::Instant;
use xaas::engine::ActionKind;

/// Windows a phase's blocks are grouped into for reading CPU time.
const CPU_WINDOWS: usize = 15;

/// A run sets up at least 3 times and until a fifth of `--seconds` went into
/// setting up (at most 25 times), and reports the median: a set-up of a tenth of
/// a second can fall entirely inside one stolen-vCPU episode, so it takes many to
/// place the median.
const SETUPS: (usize, f64, usize) = (3, 0.2, 25);

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

pub(crate) fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one client thread saw.
struct ClientLog {
    /// `(start, end)` of each block, seconds since the phase's epoch.
    blocks: Vec<(f64, f64)>,
    /// Latency of every operation, ms, per block.
    latencies_ms: Vec<Vec<f64>>,
    /// Process CPU time at the end of each block, ms (client 0 only).
    cpu_marks_ms: Vec<f64>,
    failed: usize,
    first_error: Option<String>,
    totals: LayerTotals,
    stacks: StackStats,
    tracer: Option<Tracer>,
}

/// A number of blocks run back to back and everything measured around them.
pub struct Phase {
    /// Operations per block, all clients together.
    pub block_ops: usize,
    /// Wall time of each block, s (slowest client's end − first client's start).
    pub block_wall_s: Vec<f64>,
    /// Latency of every operation, ms: `[client][block][position in the block]`.
    pub latencies_ms: Vec<Vec<Vec<f64>>>,
    /// Request kind of every position of the block (see [`Prepared::kinds`]).
    pub kinds: Option<Vec<usize>>,
    /// Operations that failed.
    pub failed: usize,
    /// The first failure's message.
    pub first_error: Option<String>,
    /// Sums over the traces the operations returned.
    pub totals: LayerTotals,
    /// Counter deltas of every stack the phase ran on.
    pub stacks: StackStats,
    /// Requests the service admitted / refused during the phase.
    pub admitted: u64,
    /// See `admitted`.
    pub refused: u64,
    /// Process CPU time (utime + stime) at the phase's start and at the end of
    /// each block, ms.
    pub cpu_marks_ms: Vec<f64>,
    /// Allocation over the phase.
    pub alloc: AllocSnapshot,
    /// The clients' span recorders (traced phases).
    pub tracers: Vec<Tracer>,
}

impl Phase {
    /// Operations attempted.
    pub fn ops(&self) -> usize {
        self.block_ops * self.block_wall_s.len()
    }

    /// The undisturbed latencies of one block, ms, ascending.
    ///
    /// Interference on a shared box — stolen vCPUs, slow wake-ups — only ever adds
    /// time, so among replays of the same work the [`fastest`] are the ones the
    /// neighbours disturbed least. With one client, positions of one request kind
    /// are replays of one another wherever they occur in the phase, and each
    /// position takes the fastest replays of its kind. With several clients the
    /// cache state and the queue a request meets are part of what is measured, so
    /// the unit of replay is the whole block: see [`Phase::latency_ms`].
    fn undisturbed_ms(&self, kinds: &[usize]) -> Vec<f64> {
        let mut replays = vec![Vec::new(); kinds.iter().max().map_or(0, |k| k + 1)];
        for block in &self.latencies_ms[0] {
            for (latency, kind) in block.iter().zip(kinds) {
                replays[*kind].push(*latency);
            }
        }
        let undisturbed: Vec<f64> = replays
            .iter()
            .map(|replays| fastest(replays).unwrap_or(0.0))
            .collect();
        let mut block: Vec<f64> = kinds.iter().map(|kind| undisturbed[*kind]).collect();
        block.sort_by(f64::total_cmp);
        block
    }

    /// Each block's latencies, all clients together, ascending.
    fn block_latencies_ms(&self) -> Vec<Vec<f64>> {
        (0..self.block_wall_s.len())
            .map(|block| {
                let mut latencies: Vec<f64> = self
                    .latencies_ms
                    .iter()
                    .flat_map(|client| client[block].iter().copied())
                    .collect();
                latencies.sort_by(f64::total_cmp);
                latencies
            })
            .collect()
    }

    /// Closed-loop throughput of the undisturbed block: with one client, its
    /// operations over the sum of their undisturbed latencies; with several, the
    /// operations of a block over the fastest blocks' wall time.
    pub fn throughput_rps(&self) -> f64 {
        match &self.kinds {
            Some(kinds) => {
                let block = self.undisturbed_ms(kinds);
                block.len() as f64 / (block.iter().sum::<f64>() / 1e3)
            }
            None => self.block_ops as f64 / fastest(&self.block_wall_s).unwrap_or(f64::MAX),
        }
    }

    /// Nearest-rank `q` percentile of the undisturbed block's latencies, ms: with
    /// one client over the positions' undisturbed latencies; with several, the
    /// fastest of the blocks' own percentiles.
    pub fn latency_ms(&self, q: f64) -> f64 {
        match &self.kinds {
            Some(kinds) => percentile(&self.undisturbed_ms(kinds), q).unwrap_or(0.0),
            None => {
                let per_block: Vec<f64> = self
                    .block_latencies_ms()
                    .iter()
                    .filter_map(|block| percentile(block, q))
                    .collect();
                fastest(&per_block).unwrap_or(0.0)
            }
        }
    }

    /// Process CPU time per operation, ms: the least over [`CPU_WINDOWS`] runs of
    /// consecutive blocks. `/proc` counts CPU time in 10 ms ticks, so a window has
    /// to last about a second to be read to a percent; the least of them is the
    /// one in which the fewest cycles went to stolen-vCPU after-effects.
    pub fn cpu_ms_per_op(&self) -> f64 {
        let blocks = self.block_wall_s.len();
        let window = blocks.div_ceil(CPU_WINDOWS).max(1);
        (0..blocks)
            .step_by(window)
            .map(|first| {
                let last = (first + window).min(blocks);
                (self.cpu_marks_ms[last] - self.cpu_marks_ms[first])
                    / ((last - first) * self.block_ops) as f64
            })
            .fold(f64::MAX, f64::min)
    }

    fn all_latencies_ms(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .latencies_ms
            .iter()
            .flatten()
            .flatten()
            .copied()
            .collect();
        all.sort_by(f64::total_cmp);
        all
    }
}

fn client_loop(
    prepared: &Prepared,
    client: usize,
    blocks: usize,
    tracer: Option<Tracer>,
    epoch: Instant,
    barrier: &Barrier,
) -> ClientLog {
    let mut log = ClientLog {
        blocks: Vec::with_capacity(blocks),
        latencies_ms: Vec::with_capacity(blocks),
        cpu_marks_ms: Vec::with_capacity(blocks),
        failed: 0,
        first_error: None,
        totals: LayerTotals::default(),
        stacks: StackStats::default(),
        tracer,
    };
    for block in 0..blocks {
        let mut latencies = Vec::with_capacity(prepared.block_ops);
        barrier.wait();
        let start = epoch.elapsed().as_secs_f64();
        for index in 0..prepared.block_ops {
            if let Some(tracer) = &mut log.tracer {
                tracer.begin_request();
            }
            let began = Instant::now();
            let mut ctx = OpCtx::new(
                &mut log.totals,
                &mut log.stacks,
                log.tracer.as_mut(),
                Golden::Check(prepared.expected()),
            );
            let result = prepared.op(client, block, index, &mut ctx);
            latencies.push(began.elapsed().as_secs_f64() * 1e3);
            if let Some(tracer) = &mut log.tracer {
                tracer.end_request();
            }
            if let Err(error) = result {
                log.failed += 1;
                log.first_error.get_or_insert(error);
            }
        }
        log.blocks.push((start, epoch.elapsed().as_secs_f64()));
        log.latencies_ms.push(latencies);
        if client == 0 {
            log.cpu_marks_ms.push(process_cpu_ms().unwrap_or(0.0));
        }
    }
    log
}

/// Run `blocks` identical blocks on `prepared`, one thread per client, clients
/// starting each block together. No other thread runs: nothing samples, nothing
/// polls.
pub fn run_phase(prepared: &Prepared, blocks: usize, traced: bool) -> Phase {
    let clients = prepared.clients();
    let barrier = Barrier::new(clients);
    let service = prepared.service.as_ref();
    let stack_before = service.map(|s| StackStats::read(s.orchestrator()));
    let admission_before = service.map(|s| s.stats());
    let epoch = Instant::now();
    let cpu_before = process_cpu_ms().unwrap_or(0.0);
    let alloc_before = AllocSnapshot::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let tracer = traced.then(|| Tracer::new(epoch, client));
                let barrier = &barrier;
                scope.spawn(move || client_loop(prepared, client, blocks, tracer, epoch, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("a client thread panicked"))
            .collect()
    });
    let alloc = AllocSnapshot::now().since(&alloc_before);

    let mut phase = Phase {
        block_ops: prepared.block_ops * clients,
        block_wall_s: Vec::with_capacity(blocks),
        latencies_ms: Vec::with_capacity(clients),
        kinds: prepared.kinds(),
        failed: 0,
        first_error: None,
        totals: LayerTotals::default(),
        stacks: StackStats::default(),
        admitted: 0,
        refused: 0,
        cpu_marks_ms: vec![cpu_before],
        alloc,
        tracers: Vec::new(),
    };
    for block in 0..blocks {
        let start = logs
            .iter()
            .map(|l| l.blocks[block].0)
            .fold(f64::MAX, f64::min);
        let end = logs
            .iter()
            .map(|l| l.blocks[block].1)
            .fold(f64::MIN, f64::max);
        phase.block_wall_s.push(end - start);
    }
    for log in logs {
        phase.failed += log.failed;
        if phase.first_error.is_none() {
            phase.first_error = log.first_error;
        }
        phase.totals.merge(&log.totals);
        phase.stacks.add_delta(&log.stacks, &StackStats::default());
        phase.tracers.extend(log.tracer);
        phase.latencies_ms.push(log.latencies_ms);
        phase.cpu_marks_ms.extend(log.cpu_marks_ms);
    }
    if let (Some(service), Some(stack_before), Some(admission_before)) =
        (service, stack_before, admission_before)
    {
        phase
            .stacks
            .add_delta(&StackStats::read(service.orchestrator()), &stack_before);
        let after = service.stats();
        phase.admitted = after.admitted - admission_before.admitted;
        phase.refused = (after.backpressured + after.rejected + after.refused_draining)
            - (admission_before.backpressured
                + admission_before.rejected
                + admission_before.refused_draining);
    }
    phase
}

/// A workload set up and warmed up, and how long that took.
pub struct Ready {
    /// The stack under test, one untimed block already run on it.
    pub prepared: Prepared,
    /// Median set-up time, s: inputs, reference, stack, warm-up block.
    pub setup_s: f64,
    /// How many times the workload was set up.
    pub setups: usize,
    /// Operations that failed while warming up.
    pub warmup_failed: usize,
    /// The first warm-up failure's message.
    pub warmup_error: Option<String>,
}

/// Set `workload` up repeatedly — each time everything from generating the
/// inputs to the end of the warm-up block — at least `at_least` times and until
/// `budget_s` seconds went into it (at most `at_most` times), and keep the last.
pub fn set_up(
    workload: Workload,
    seed: u64,
    workers: usize,
    (at_least, budget_s, at_most): (usize, f64, usize),
) -> Result<Ready, String> {
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let started = Instant::now();
        let prepared = Prepared::new(workload, seed, workers)?;
        let warmup = run_phase(&prepared, workload.warmup_blocks(), false);
        times.push(started.elapsed().as_secs_f64());
        let enough = times.len() >= at_least && began.elapsed().as_secs_f64() >= budget_s;
        if enough || times.len() >= at_most {
            return Ok(Ready {
                prepared,
                setup_s: median(&times).unwrap_or(0.0),
                setups: times.len(),
                warmup_failed: warmup.failed,
                warmup_error: warmup.first_error,
            });
        }
    }
}

/// The record of what a run ran on, printed with every run.
pub fn env_record(prepared: &Prepared, blocks: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let disk_fs = prepared.disk_root.as_ref().map_or_else(
        || "none".to_string(),
        |root| {
            std::fs::read_to_string("/proc/mounts")
                .ok()
                .and_then(|mounts| filesystem_of(&mounts, root.path()))
                .unwrap_or_else(|| "unknown".to_string())
        },
    );
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{nproc},\"engine_workers\":{},\
         \"clients\":{},\"blocks\":{blocks},\"block_ops\":{},\"ops\":{},\
         \"disk_root_fs\":\"{disk_fs}\",\"l1_capacity\":{}}}",
        prepared.workload.name(),
        prepared.seed,
        prepared.workers,
        prepared.clients(),
        prepared.block_ops * prepared.clients(),
        prepared.block_ops * prepared.clients() * blocks,
        prepared
            .l1_capacity
            .map_or_else(|| "null".to_string(), |c| c.to_string()),
    )
}

/// What a run reports.
pub struct Report {
    /// Whether every output was correct: no operation failed.
    pub correct: bool,
    /// Operations of the timed phase.
    pub attempted: usize,
    /// Operations that failed (warm-up included).
    pub failed: usize,
    /// The first failure's message.
    pub first_error: Option<String>,
    /// The metrics of the JSON result line.
    pub metrics: Vec<Metric>,
    /// Further readings printed as text only.
    pub notes: Vec<Metric>,
    /// The run's environment record (JSON).
    pub env: String,
}

/// Engine workers: the machine's cores, capped at the two the reference box has.
fn engine_workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().min(2))
}

/// The untraced run: every end-to-end metric.
pub fn run_end_to_end(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let setups = (SETUPS.0, SETUPS.1 * seconds, SETUPS.2);
    end_to_end(workload, seed, seconds, setups)
}

/// [`run_end_to_end`] with an explicit set-up repetition rule (see [`set_up`]).
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    setups: (usize, f64, usize),
) -> Result<Report, String> {
    let blocks = workload.blocks(seconds);
    let ready = set_up(workload, seed, engine_workers(), setups)?;
    let phase = run_phase(&ready.prepared, blocks, false);
    let ops = phase.ops() as f64;
    let metrics = vec![
        metric("throughput_rps", phase.throughput_rps(), "1/s"),
        metric("latency_p50_ms", phase.latency_ms(0.50), "ms"),
        metric("cpu_ms_per_req", phase.cpu_ms_per_op(), "ms"),
        metric(
            "alloc_kb_per_req",
            phase.alloc.bytes as f64 / 1024.0 / ops,
            "KB",
        ),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
        metric("setup_s", ready.setup_s, "s"),
    ];
    let mut notes = client_metrics(&phase);
    notes.push(metric(
        "latency_samples_per_block",
        phase.block_ops as f64,
        "count",
    ));
    notes.push(metric("latency_samples", ops, "count"));
    notes.push(metric("setups", ready.setups as f64, "count"));
    notes.push(metric(
        "allocs_per_req",
        phase.alloc.calls as f64 / ops,
        "count",
    ));
    notes.extend(trace_metrics(&phase));
    let failed = phase.failed + ready.warmup_failed;
    Ok(Report {
        correct: failed == 0,
        attempted: phase.ops(),
        failed,
        first_error: ready.warmup_error.or(phase.first_error),
        metrics,
        notes,
        env: env_record(&ready.prepared, blocks),
    })
}

/// The client's own readings of a phase: the tail, and how much the blocks differ.
pub fn client_metrics(phase: &Phase) -> Vec<Metric> {
    let all_latencies_ms = &phase.all_latencies_ms();
    let fastest = phase.block_wall_s.iter().copied().fold(f64::MAX, f64::min);
    let slowest = phase.block_wall_s.iter().copied().fold(f64::MIN, f64::max);
    vec![
        metric("client.latency_p90_ms", phase.latency_ms(0.90), "ms"),
        metric(
            "client.latency_p99_ms",
            percentile(all_latencies_ms, 0.99).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "client.latency_max_ms",
            all_latencies_ms.last().copied().unwrap_or(0.0),
            "ms",
        ),
        metric("client.block_spread", slowest / fastest, "ratio"),
        metric(
            "client.raw_throughput_rps",
            phase.ops() as f64 / phase.block_wall_s.iter().sum::<f64>(),
            "1/s",
        ),
        metric(
            "client.raw_cpu_ms_per_req",
            (phase.cpu_marks_ms[phase.cpu_marks_ms.len() - 1] - phase.cpu_marks_ms[0])
                / phase.ops() as f64,
            "ms",
        ),
        metric(
            "client.raw_latency_p50_ms",
            percentile(all_latencies_ms, 0.50).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "client.raw_latency_p90_ms",
            percentile(all_latencies_ms, 0.90).unwrap_or(0.0),
            "ms",
        ),
    ]
}

/// The per-layer metrics that come from the traces and stats structs a phase's
/// operations returned.
pub fn trace_metrics(phase: &Phase) -> Vec<Metric> {
    let ops = phase.ops() as f64;
    let totals = &phase.totals;
    let requests = totals.requests.max(1) as f64;
    let keyed = (totals.hits + totals.recomputes).max(1) as f64;
    let mut metrics = vec![
        metric("service.admitted", phase.admitted as f64, "count"),
        metric("service.refused", phase.refused as f64, "count"),
        metric(
            "plan.nodes_per_req",
            totals.nodes as f64 / requests,
            "count",
        ),
        metric(
            "executor.queue_wait_us_per_req",
            totals.queue_wait_us as f64 / requests,
            "us",
        ),
        metric(
            "executor.parked_us_per_req",
            totals.parked_us as f64 / requests,
            "us",
        ),
        metric("executor.parks", totals.parks as f64, "count"),
        metric("executor.wakeups", phase.stacks.wakeups as f64, "count"),
        metric(
            "executor.max_ready_submissions",
            totals.max_ready_submissions as f64,
            "count",
        ),
    ];
    for kind in ActionKind::ALL {
        metrics.push(metric(
            format!("executor.exec_us_per_req.{}", kind.as_str()),
            totals.exec_us[kind.index()] as f64 / requests,
            "us",
        ));
    }
    metrics.extend([
        metric("cache.hit_ratio", totals.hits as f64 / keyed, "ratio"),
        metric(
            "cache.recompute_ratio",
            totals.recomputes as f64 / keyed,
            "ratio",
        ),
        metric("cache.evictions", phase.stacks.evictions as f64, "count"),
        metric("cache.coalesced", totals.coalesced as f64, "count"),
        metric(
            "tier.disk_hits_per_op",
            totals.disk_hits as f64 / ops,
            "count",
        ),
        metric(
            "tier.promotions_per_op",
            phase.stacks.promotions as f64 / ops,
            "count",
        ),
        metric(
            "tier.journal_entries",
            phase.stacks.journal_entries as f64,
            "count",
        ),
        metric(
            "tier.disk_kb",
            phase.stacks.disk_bytes as f64 / 1024.0,
            "KB",
        ),
        metric("tier.stale_drops", phase.stacks.stale_drops as f64, "count"),
        metric("tier.lock_waits", phase.stacks.lock_waits as f64, "count"),
        metric(
            "store.digests_computed_per_req",
            phase.stacks.digests_computed as f64 / requests,
            "count",
        ),
        metric(
            "store.dedup_hits_per_req",
            phase.stacks.dedup_hits as f64 / requests,
            "count",
        ),
        metric("store.blob_count", phase.stacks.blob_count as f64, "count"),
        metric(
            "store.total_mb",
            phase.stacks.store_bytes as f64 / (1024.0 * 1024.0),
            "MB",
        ),
    ]);
    metrics
}

/// The traced run: every per-layer metric. The workload runs twice at a fifth
/// of the operations — untraced, then traced with spans around every layer call
/// the client makes — and the layer probes run on its inputs. The single-client
/// workloads use one engine worker here, so that node spans do not overlap.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let blocks = workload.blocks(seconds / 5.0);
    let workers = if workload.clients() == 1 {
        1
    } else {
        engine_workers()
    };
    let ready = set_up(workload, seed, workers, (1, 0.0, 1))?;
    let untraced = run_phase(&ready.prepared, blocks, false);
    let traced = run_phase(&ready.prepared, blocks, true);

    let sum = |field: fn(&Tracer) -> u64| traced.tracers.iter().map(field).sum::<u64>() as f64;
    let submit_us = sum(|t| t.submit_us).max(1.0);
    let shares = [
        sum(|t| t.plan_us) / submit_us,
        sum(|t| t.exec_us) / submit_us,
        sum(|t| t.queue_exclusive_us) / submit_us,
    ];
    let spans: usize = traced.tracers.iter().map(|t| t.spans().len()).sum();

    let mut metrics = trace_metrics(&traced);
    metrics.extend(client_metrics(&traced));
    metrics.extend([
        metric("plan.share_of_latency", shares[0], "ratio"),
        metric("executor.exec_share_of_latency", shares[1], "ratio"),
        metric("executor.queue_share_of_latency", shares[2], "ratio"),
        metric(
            "client.unattributed_share",
            1.0 - shares.iter().sum::<f64>(),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            untraced.throughput_rps() / traced.throughput_rps(),
            "ratio",
        ),
        metric("trace.spans", spans as f64, "count"),
    ]);
    let lint_denies = sum(|t| t.denies);
    metrics.extend(crate::probes::layer_probes(&ready.prepared, lint_denies)?);

    let path = out_dir().join(format!("trace-{}.json", workload.name()));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| {
            std::fs::write(
                &path,
                crate::trace::spans_to_json(workload.name(), seed, workers, &traced.tracers),
            )
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let failed = untraced.failed + traced.failed + ready.warmup_failed;
    Ok(Report {
        correct: failed == 0,
        attempted: untraced.ops() + traced.ops(),
        failed,
        first_error: ready
            .warmup_error
            .or(untraced.first_error)
            .or(traced.first_error),
        metrics,
        notes: Vec::new(),
        env: env_record(&ready.prepared, blocks),
    })
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
