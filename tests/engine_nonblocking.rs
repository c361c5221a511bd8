//! Nonblocking executor-core integration: workers never block on another
//! action's outcome. A node that hits an in-flight key parks as a continuation
//! and releases its worker; flight completion, failure, and poison all wake the
//! parked waiter through the cache's flight protocol; and the continuation path
//! stays byte-identical — and trace-equal — to the serial baseline. Each
//! scenario holds flights *externally* via [`CacheBackend::try_begin`] so
//! parking is deterministic even on a one-worker engine. A thread waiting on a
//! submission is an executor too: a blocking run completes on its caller while
//! the only worker is held, a foreign node it runs keeps its panic, and the
//! thread dropping the last engine clone runs the detached work it waits for.
//! A record whose key reads a dependency output parks on the key it derived at
//! dispatch, and wakes and retries on it like any keyed node.

use proptest::prelude::*;
use std::convert::Infallible;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};
use xaas::engine::Action;
use xaas::prelude::*;
use xaas_container::{
    ActionCache, BuildKey, CacheBackend, Derivation, FlightError, FlightTicket, ImageStore,
    TryBegin,
};

fn key(tag: &str) -> BuildKey {
    BuildKey::new(tag, "x86_64", "O2", "clang-17")
}

/// Claim flight ownership of `key` directly on the cache, the way an
/// out-of-engine builder would, so an engine node for the same key must park.
fn hold_flight(cache: &ActionCache, key: &BuildKey) -> FlightTicket {
    match CacheBackend::try_begin(cache, key) {
        TryBegin::Owner(ticket) => ticket,
        other => panic!("expected to own the flight, got {other:?}"),
    }
}

/// Poll `done` until it holds, failing the test after `secs` — a parked waiter
/// that never wakes must fail the suite fast instead of hanging CI.
fn wait_until(secs: u64, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !done() {
        assert!(
            Instant::now() < deadline,
            "condition not reached within {secs}s"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Watchdog: run `f` on its own thread and fail if it has not returned within
/// `secs` — a run waiting for a worker that never frees must fail the suite
/// instead of hanging CI.
fn with_timeout<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("the run must complete within the timeout")
}

/// Park a one-worker engine's only worker inside a gated node, returning once
/// it is inside. Sending on (or dropping) the returned sender opens the gate.
fn hold_the_only_worker(engine: &Engine) -> (mpsc::Sender<()>, GraphHandle<Infallible>) {
    let (release, gate) = mpsc::channel::<()>();
    let (entered, inside) = mpsc::channel::<()>();
    let mut graph: ActionGraph<'static, Infallible> = ActionGraph::new();
    graph.add(ActionKind::Preprocess, "gate", &[], move |_| {
        entered.send(()).ok();
        gate.recv().ok();
        Ok(Vec::new())
    });
    let held = engine.submit_graph(graph).expect("a well-formed graph");
    inside
        .recv_timeout(Duration::from_secs(30))
        .expect("the worker enters the gate");
    (release, held)
}

/// A three-node chain; each node appends its letter to its dependency's bytes.
fn chain() -> ActionGraph<'static, Infallible> {
    let append = |letter: u8| {
        move |inputs: &ActionInputs| {
            let mut bytes: Vec<u8> = inputs.iter().flatten().copied().collect();
            bytes.push(letter);
            Ok(bytes)
        }
    };
    let mut graph: ActionGraph<'static, Infallible> = ActionGraph::new();
    let a = graph.add(ActionKind::Preprocess, "a", &[], append(b'a'));
    let b = graph.add(ActionKind::SdCompile, "b", &[a], append(b'b'));
    graph.add(ActionKind::Link, "c", &[b], append(b'c'));
    graph
}

/// A blocking run does not need the pool: with the only worker held in a gate,
/// `Engine::run` completes its whole chain on the calling thread.
#[test]
fn a_blocking_run_completes_on_its_caller_while_the_only_worker_is_held() {
    let engine = Engine::uncached(&ImageStore::new()).with_workers(1);
    let (release, held) = hold_the_only_worker(&engine);
    let outputs = with_timeout(30, {
        let engine = engine.clone();
        move || {
            let run = engine.run(chain()).expect("a well-formed graph");
            let (outputs, _) = run.into_outputs().expect("every node succeeds");
            outputs.iter().map(|blob| blob.to_vec()).collect::<Vec<_>>()
        }
    });
    assert_eq!(outputs, [&b"a"[..], b"ab", b"abc"]);
    // The gate is still closed: the held submission is the only one live.
    assert_eq!(engine.queue_stats().live_submissions, 1);
    release.send(()).unwrap();
    assert!(held.wait().succeeded());
}

/// A waiter runs ready nodes of any submission, and a foreign node's panic
/// stays with the foreign submission: under `Fifo` the caller pops the other
/// graph's panicking node first, its own run still succeeds, and the panic
/// re-raises only on the foreign handle's `wait`.
#[test]
fn a_foreign_panic_run_by_a_waiter_stays_with_its_own_submission() {
    let engine = Engine::uncached(&ImageStore::new()).with_workers(1);
    let (release, held) = hold_the_only_worker(&engine);
    let mut foreign: ActionGraph<'static, Infallible> = ActionGraph::new();
    foreign.add(ActionKind::Preprocess, "boom", &[], |_| {
        panic!("the foreign node panicked")
    });
    let foreign = engine.submit_graph(foreign).expect("a well-formed graph");

    let run = with_timeout(30, {
        let engine = engine.clone();
        move || engine.run(chain()).expect("a well-formed graph")
    });
    assert!(run.succeeded());
    assert_eq!(run.output(2), Some(&b"abc"[..]));
    // Ordinary records, dispatched after the gate (0) and the foreign node (1).
    let seqs: Vec<u64> = run.trace.records.iter().map(|r| r.schedule_seq).collect();
    assert_eq!(seqs, [2, 3, 4]);
    for record in &run.trace.records {
        assert!(!record.cached && !record.coalesced && record.parks == 0);
    }

    release.send(()).unwrap();
    assert!(held.wait().succeeded());
    let payload = std::panic::catch_unwind(AssertUnwindSafe(|| foreign.wait()))
        .expect_err("the foreign panic re-raises on its own waiter");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"the foreign node panicked")
    );
}

/// Dropping the last engine clone runs detached work instead of only waiting
/// for it: with the only worker held in a gate, a detached node still runs, on
/// the thread that drops the engine.
#[test]
fn dropping_the_last_engine_runs_detached_work_on_the_dropping_thread() {
    let engine = Engine::uncached(&ImageStore::new()).with_workers(1);
    let (release, held) = hold_the_only_worker(&engine);
    let (ran, signal) = mpsc::channel::<()>();
    let mut detached: ActionGraph<'static, Infallible> = ActionGraph::new();
    detached.add(ActionKind::Preprocess, "detached", &[], move |_| {
        ran.send(()).ok();
        Ok(Vec::new())
    });
    drop(engine.submit_graph(detached).expect("a well-formed graph"));
    let dropper = std::thread::spawn(move || drop(engine));
    let outcome = signal.recv_timeout(Duration::from_secs(10));
    release.send(()).unwrap();
    dropper.join().unwrap();
    outcome.expect("the dropping thread runs the detached node");
    assert!(held.wait().succeeded());
}

/// The tentpole pin: with ONE worker and an externally held flight, the engine
/// keeps executing other actions — the keyed node parks as a continuation
/// instead of occupying the worker — and the external `complete` wakes it with
/// the owner's bytes.
#[test]
fn one_worker_engine_keeps_executing_while_a_flight_is_held_externally() {
    let cache = ActionCache::new(ImageStore::new());
    let shared = key("held");
    let ticket = hold_flight(&cache, &shared);

    let engine = Engine::cached(&cache).with_workers(1);
    let mut graph: ActionGraph<'static, Infallible> = ActionGraph::new();
    let keyed = graph.add_cached(ActionKind::SdCompile, "parked", shared, &[], |_| {
        panic!("the external owner completes this flight; the engine must not compute it")
    });
    let freed = Arc::new(AtomicBool::new(false));
    let free = graph.add(ActionKind::Preprocess, "free", &[], {
        let freed = freed.clone();
        move |_| {
            freed.store(true, Ordering::SeqCst);
            Ok(b"free".to_vec())
        }
    });
    let handle = engine.submit_graph(graph).expect("a well-formed graph");

    // The unkeyed node runs while the keyed node is still parked: the single
    // worker was not blocked inside the cache waiting for the flight.
    wait_until(30, || freed.load(Ordering::SeqCst));
    wait_until(30, || engine.queue_stats().parked_waiters == 1);
    let mid = engine.queue_stats();
    assert_eq!(mid.parked_waiters, 1);
    assert!(mid.parks >= 1);
    assert_eq!(mid.queued_actions, 0, "a parked waiter leaves the queue");

    CacheBackend::complete(&cache, ticket, b"external bytes".to_vec());
    let run = handle.wait();
    assert!(run.succeeded());
    assert_eq!(run.output(keyed), Some(&b"external bytes"[..]));
    assert_eq!(run.output(free), Some(&b"free"[..]));

    let record = &run.trace.records[keyed];
    assert!(
        record.cached,
        "a flight resolved by its owner lands as a hit"
    );
    assert!(record.parks >= 1);
    assert!(record.parked_micros > 0);
    // The last node's worker counts the submission out just after waking us;
    // at quiescence every park was matched by exactly one wake.
    wait_until(30, || engine.queue_stats().live_submissions == 0);
    let after = engine.queue_stats();
    assert_eq!(after.parked_waiters, 0);
    assert_eq!(after.parks, 1);
    assert_eq!(after.parks, after.wakeups);
}

/// Eight unordered nodes with one key, counting each compute in `runs`.
fn duplicate_keys(runs: &Arc<AtomicUsize>) -> ActionGraph<'static, Infallible> {
    let mut graph: ActionGraph<'static, Infallible> = ActionGraph::new();
    let shared = key("dup");
    for i in 0..8 {
        let runs = runs.clone();
        graph.add_cached(
            ActionKind::IrLower,
            format!("dup-{i}"),
            shared.clone(),
            &[],
            move |_| {
                runs.fetch_add(1, Ordering::SeqCst);
                Ok(b"dup bytes".to_vec())
            },
        );
    }
    graph
}

/// Eight unordered nodes with one key on a one-worker engine: the first becomes
/// the flight owner, computes once, and every other node is served the same
/// bytes — no deadlock, no duplicate compute. The same holds with four callers
/// running the graph at once, each waiter executing beside the one worker.
#[test]
fn duplicate_unordered_keys_on_one_worker_compute_once_and_complete() {
    let cache = ActionCache::new(ImageStore::new());
    let engine = Engine::cached(&cache).with_workers(1);
    let runs = Arc::new(AtomicUsize::new(0));

    let run = engine
        .run(duplicate_keys(&runs))
        .expect("a well-formed graph");
    assert!(run.succeeded());
    for id in 0..8 {
        assert_eq!(run.output(id), Some(&b"dup bytes"[..]));
    }
    assert_eq!(
        runs.load(Ordering::SeqCst),
        1,
        "single flight computes once"
    );
    assert_eq!(cache.stats().misses, 1);
    let computed = run.trace.records.iter().filter(|r| !r.cached).count();
    assert_eq!(computed, 1, "exactly one record carries the miss");
    let serial = run.into_outputs().expect("every node succeeds").0;

    // Four callers, one worker, one cold key.
    let cache = ActionCache::new(ImageStore::new());
    let engine = Engine::cached(&cache).with_workers(1);
    let runs = Arc::new(AtomicUsize::new(0));
    let outputs = with_timeout(60, {
        let (engine, runs) = (engine.clone(), runs.clone());
        move || {
            let start = Arc::new(Barrier::new(4));
            let callers: Vec<_> = (0..4)
                .map(|_| {
                    let (engine, runs, start) = (engine.clone(), runs.clone(), start.clone());
                    std::thread::spawn(move || {
                        start.wait();
                        engine
                            .run(duplicate_keys(&runs))
                            .expect("a well-formed graph")
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|caller| caller.join().expect("the caller returns"))
                .map(|run| run.into_outputs().expect("every node succeeds").0)
                .collect::<Vec<_>>()
        }
    });
    for run in &outputs {
        assert_eq!(run, &serial);
    }
    assert_eq!(runs.load(Ordering::SeqCst), 1, "one compute across callers");
    assert_eq!(cache.stats().misses, 1);
    wait_until(30, || engine.queue_stats().live_submissions == 0);
    let quiet = engine.queue_stats();
    assert_eq!(quiet.parks, quiet.wakeups);
    assert_eq!(quiet.parked_waiters, 0);
    assert_eq!(quiet.live_submissions, 0);
}

/// A flight that fails wakes its parked waiter with a typed error; the waiter
/// retries `try_begin`, becomes the new owner, and computes its own closure.
#[test]
fn failed_flight_wakes_the_parked_waiter_which_retries_and_computes() {
    let cache = ActionCache::new(ImageStore::new());
    let shared = key("failing");
    let ticket = hold_flight(&cache, &shared);

    let engine = Engine::cached(&cache).with_workers(1);
    let mut graph: ActionGraph<'static, Infallible> = ActionGraph::new();
    let keyed = graph.add_cached(ActionKind::SdCompile, "retry", shared, &[], |_| {
        Ok(b"retried".to_vec())
    });
    let handle = engine.submit_graph(graph).expect("a well-formed graph");

    wait_until(30, || engine.queue_stats().parked_waiters == 1);
    CacheBackend::fail(&cache, ticket, FlightError::Failed);

    let run = handle.wait();
    assert!(run.succeeded());
    assert_eq!(run.output(keyed), Some(&b"retried"[..]));
    let record = &run.trace.records[keyed];
    assert!(
        !record.cached,
        "the woken waiter recomputed the action itself"
    );
    assert!(record.parks >= 1);
    assert_eq!(cache.stats().misses, 1);
}

/// A record keyed by the bytes its dependency 0 outputs.
struct KeyedByDep {
    /// Signalled on entering the compute, then waited on: holds the owner in
    /// flight.
    hold: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
    result: Result<&'static [u8], &'static str>,
}

impl Action for KeyedByDep {
    const KIND: ActionKind = ActionKind::SdCompile;
    const KEY_READS_DEPS: bool = true;
    type Error = String;

    fn derive(&self, deps: Option<&ActionInputs>, record: Derivation) -> Derivation {
        let Self {
            // Instrumentation: it only delays the compute.
            hold: _,
            // Unkeyed on purpose: the bytes tell which node computed.
            result: _,
        } = self;
        match deps {
            Some(deps) => record.str(&String::from_utf8_lossy(deps.dep(0))),
            None => record,
        }
    }

    fn run(self, _: &ActionInputs) -> Result<Vec<u8>, String> {
        if let Some((entered, release)) = &self.hold {
            entered.send(()).ok();
            release.recv().ok();
        }
        self.result.map(<[u8]>::to_vec).map_err(str::to_string)
    }
}

/// Submit two [`KeyedByDep`] nodes over one dependency, so one key, to a
/// one-worker `engine`: the worker owns the flight in node 1, held there until
/// the returned sender sends, and node 2, dispatched by a thread waiting on the
/// run, parks on it. Returns the sender and that thread.
fn parked_on_a_derived_key(
    engine: &Engine,
    owner: Result<&'static [u8], &'static str>,
) -> (mpsc::Sender<()>, std::thread::JoinHandle<GraphRun<String>>) {
    let (entered, inside) = mpsc::channel();
    let (release, gate) = mpsc::channel();
    let mut graph: ActionGraph<'static, String> = ActionGraph::new();
    let dep = graph.add(ActionKind::Preprocess, "dep", &[], |_| {
        Ok(b"shared input".to_vec())
    });
    let held = KeyedByDep {
        hold: Some((entered, gate)),
        result: owner,
    };
    graph.add_action("owner", held, &[dep]);
    let waiter = KeyedByDep {
        hold: None,
        result: Ok(b"waiter bytes"),
    };
    graph.add_action("waiter", waiter, &[dep]);
    let handle = engine.submit_graph(graph).expect("a well-formed graph");
    inside
        .recv_timeout(Duration::from_secs(30))
        .expect("the owner enters its compute");
    let waiter = std::thread::spawn(move || handle.wait());
    wait_until(30, || engine.queue_stats().parked_waiters == 1);
    (release, waiter)
}

/// A node whose key reads a dependency parks on the key it derived: it is
/// woken once, and served the owner's bytes under the owner's key.
#[test]
fn a_parked_node_whose_key_reads_a_dependency_is_served_under_the_owner_s_key() {
    let cache = ActionCache::new(ImageStore::new());
    let engine = Engine::cached(&cache).with_workers(1);
    let (release, waiter) = parked_on_a_derived_key(&engine, Ok(b"owner bytes"));
    release.send(()).expect("the owner waits on its gate");
    let run = waiter.join().expect("the waiter returns");
    assert!(run.succeeded());
    assert_eq!(run.output(2), Some(&b"owner bytes"[..]));

    let (owner, parked) = (&run.trace.records[1], &run.trace.records[2]);
    assert_eq!(owner.label, "owner");
    assert!(!owner.cached);
    let identity = KeyedByDep {
        hold: None,
        result: Ok(b""),
    }
    .identity();
    assert!(
        owner
            .key_digest
            .as_deref()
            .is_some_and(|key| key != identity.digest().hex()),
        "the key is derived from the dependency's output at dispatch"
    );
    assert_eq!(parked.key_digest, owner.key_digest);
    assert!(parked.cached && parked.coalesced);
    assert_eq!(parked.parks, 1);
    wait_until(30, || engine.queue_stats().live_submissions == 0);
    let quiet = engine.queue_stats();
    assert_eq!((quiet.parks, quiet.wakeups), (1, 1), "woken once");
}

/// When the owner of a derived key fails, the parked node wakes, retries on the
/// key, becomes the owner and computes its own bytes.
#[test]
fn a_parked_node_whose_key_reads_a_dependency_retries_when_the_owner_fails() {
    let cache = ActionCache::new(ImageStore::new());
    let engine = Engine::cached(&cache).with_workers(1);
    let (release, waiter) = parked_on_a_derived_key(&engine, Err("owner failed"));
    release.send(()).expect("the owner waits on its gate");
    let run = waiter.join().expect("the waiter returns");
    match &run.outcomes[1] {
        NodeOutcome::Failed(error) => assert_eq!(error, "owner failed"),
        other => panic!("the owner's error is its outcome, got {other:?}"),
    }
    assert_eq!(run.output(2), Some(&b"waiter bytes"[..]));
    let parked = run.trace.records.last().expect("the waiter has a record");
    assert_eq!(parked.label, "waiter");
    assert!(parked.key_digest.is_some());
    assert!(
        !parked.cached && !parked.coalesced,
        "the woken waiter became the owner and computed"
    );
    assert_eq!(parked.parks, 1);
}

/// Poisoned flights (owner dropped its ticket without redeeming it) wake — not
/// strand — parked engine waiters, and the blast radius of a failed retry stays
/// attributed to its own job via [`GraphRun::job_failure`].
#[test]
fn poisoned_flights_wake_parked_jobs_and_blast_radius_stays_per_job() {
    let cache = ActionCache::new(ImageStore::new());
    let key_a = key("poisoned-a");
    let key_b = key("poisoned-b");
    let ticket_a = hold_flight(&cache, &key_a);
    let ticket_b = hold_flight(&cache, &key_b);

    let engine = Engine::cached(&cache).with_workers(1);
    let mut graph: ActionGraph<'static, String> = ActionGraph::new();
    graph.set_job(Some(0));
    let rejected = graph.add_cached(ActionKind::SdCompile, "job0-keyed", key_a, &[], |_| {
        Err("job0 compute rejected".to_string())
    });
    let dependent = graph.add(ActionKind::Link, "job0-link", &[rejected], |_| Ok(vec![1]));
    graph.set_job(Some(1));
    let bystander = graph.add_cached(ActionKind::SdCompile, "job1-keyed", key_b, &[], |_| {
        Ok(b"job1 bytes".to_vec())
    });

    let handle = engine.submit_graph(graph).expect("a well-formed graph");
    wait_until(30, || engine.queue_stats().parked_waiters == 2);

    // Dropping the unredeemed tickets poisons both flights: each parked waiter
    // wakes with a typed error and retries as the new owner.
    drop(ticket_a);
    drop(ticket_b);
    let run = handle.wait();

    match &run.outcomes[rejected] {
        NodeOutcome::Failed(error) => assert_eq!(error, "job0 compute rejected"),
        other => panic!("job0's retry must surface its typed error, got {other:?}"),
    }
    assert!(
        matches!(run.outcomes[dependent], NodeOutcome::Skipped { root } if root == rejected),
        "job0's dependent is skipped with the failing root"
    );
    assert_eq!(run.output(bystander), Some(&b"job1 bytes"[..]));

    let failure = run.job_failure(0).expect("job 0 is poisoned by its retry");
    assert_eq!(failure.node, rejected);
    assert_eq!(failure.error, "job0 compute rejected");
    assert!(
        run.job_failure(1).is_none(),
        "job 1 recovered by computing its own closure after the poison wake"
    );
}

/// One node of a small random DAG: stage, payload, whether it is cache-keyed,
/// whether its closure fails, and raw dependency picks (each resolved modulo the
/// node's id, so edges only ever point backwards).
#[derive(Debug, Clone)]
struct NodeSpec {
    kind: usize,
    payload: u8,
    keyed: bool,
    fails: bool,
    deps: Vec<usize>,
}

/// Maximum node count the DAG proptest draws per case.
const MAX_NODES: usize = 10;

/// Jobs the DAG's nodes are tagged with, round robin by node id.
const JOBS: usize = 3;

/// Zip the independently drawn per-node vectors into the first `n` node specs.
/// A node fails on a `fail_draws` draw of 0 (one in four).
fn assemble_spec(
    n: usize,
    kinds: &[usize],
    payloads: &[u8],
    keyed: &[bool],
    fail_draws: &[u8],
    dep_picks: &[Vec<usize>],
) -> Vec<NodeSpec> {
    (0..n)
        .map(|i| NodeSpec {
            kind: kinds[i],
            payload: payloads[i],
            keyed: keyed[i],
            fails: fail_draws[i] == 0,
            deps: dep_picks[i].clone(),
        })
        .collect()
}

/// Build and run `spec` on a fresh cache with `workers` workers.
fn run_spec(spec: &[NodeSpec], workers: usize) -> GraphRun<String> {
    let cache = ActionCache::new(ImageStore::new());
    let engine = Engine::cached(&cache).with_workers(workers);
    let mut graph: ActionGraph<'_, String> = ActionGraph::new();
    for (i, node) in spec.iter().enumerate() {
        graph.set_job(Some(i % JOBS));
        let mut deps: Vec<ActionId> = node
            .deps
            .iter()
            .filter(|_| i > 0)
            .map(|pick| pick % i.max(1))
            .collect();
        deps.sort_unstable();
        deps.dedup();
        let (payload, fails) = (node.payload, node.fails);
        let run = move |inputs: &ActionInputs| {
            if fails {
                return Err(format!("n{i} failed"));
            }
            let mut bytes: Vec<u8> = inputs.iter().flatten().copied().collect();
            bytes.push(payload);
            bytes.push(i as u8);
            Ok(bytes)
        };
        let kind = match ActionKind::ALL[node.kind] {
            // A commit needs something to commit; the engine refuses one without.
            ActionKind::Commit if deps.is_empty() => ActionKind::Link,
            kind => kind,
        };
        if node.keyed {
            // Keys are unique per node, so hit/miss flags are deterministic and
            // full trace equality across worker counts is well-defined.
            let unique = key(&format!("prop-{i}-{payload}"));
            graph.add_cached(kind, format!("n{i}"), unique, &deps, run);
        } else {
            graph.add(kind, format!("n{i}"), &deps, run);
        }
    }
    engine.run(graph).expect("a well-formed graph")
}

/// Each node's output bytes, or its error (a skip names its root).
fn outcome_view(run: &GraphRun<String>) -> Vec<Result<Vec<u8>, String>> {
    run.outcomes
        .iter()
        .map(|outcome| match outcome {
            NodeOutcome::Output(blob) => Ok(blob.to_vec()),
            NodeOutcome::Failed(error) => Err(error.clone()),
            NodeOutcome::Skipped { root } => Err(format!("skipped behind n{root}")),
        })
        .collect()
}

/// The fact `into_outputs` and `job_failure` rest on: every node that did not
/// complete traces back to a lower-id failed node, so the first one in node
/// order is itself a failure.
fn assert_failures_resolve_to_failed_roots(run: GraphRun<String>) {
    for (id, outcome) in run.outcomes.iter().enumerate() {
        if let NodeOutcome::Skipped { root } = outcome {
            assert!(*root < id, "n{id}'s root n{root} precedes it");
            assert!(
                matches!(run.outcomes[*root], NodeOutcome::Failed(_)),
                "n{id}'s root n{root} failed"
            );
        }
    }
    for job in 0..JOBS {
        let incomplete = (0..run.outcomes.len())
            .filter(|id| id % JOBS == job)
            .any(|id| !run.outcomes[id].is_ok());
        assert_eq!(run.job_failure(job).is_some(), incomplete, "job {job}");
    }
    let first_failure = run.outcomes.iter().find_map(|outcome| match outcome {
        NodeOutcome::Failed(error) => Some(error.clone()),
        _ => None,
    });
    assert_eq!(run.into_outputs().err(), first_failure);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The continuation-parked executor yields byte-identical outputs, the same
    /// failures and an equal trace to the serial one-worker baseline on
    /// arbitrary small DAGs, and every failure resolves to a failed root.
    #[test]
    fn parked_continuation_path_matches_the_serial_baseline(
        n in 1usize..MAX_NODES,
        kinds in proptest::collection::vec(0usize..ActionKind::ALL.len(), MAX_NODES),
        payloads in proptest::collection::vec(any::<u8>(), MAX_NODES),
        keyed in proptest::collection::vec(any::<bool>(), MAX_NODES),
        fail_draws in proptest::collection::vec(0u8..4, MAX_NODES),
        dep_picks in proptest::collection::vec(
            proptest::collection::vec(0usize..64, 0..3),
            MAX_NODES,
        ),
    ) {
        let spec = assemble_spec(n, &kinds, &payloads, &keyed, &fail_draws, &dep_picks);
        let serial = run_spec(&spec, 1);
        let parallel = run_spec(&spec, 4);
        prop_assert_eq!(outcome_view(&serial), outcome_view(&parallel));
        prop_assert_eq!(&serial.trace, &parallel.trace);
        assert_failures_resolve_to_failed_roots(serial);
        assert_failures_resolve_to_failed_roots(parallel);
    }

    /// Two submissions racing the same keys through one engine stay
    /// single-flight: each key computes exactly once, every node observes the
    /// same bytes, and exactly one record per key carries the miss.
    #[test]
    fn racing_duplicate_key_submissions_stay_single_flight_and_byte_identical(
        n_keys in 1usize..4,
        dups in 2usize..5,
    ) {
        let cache = ActionCache::new(ImageStore::new());
        let engine = Engine::cached(&cache).with_workers(4);
        let computes: Vec<Arc<AtomicUsize>> =
            (0..n_keys).map(|_| Arc::new(AtomicUsize::new(0))).collect();

        let submit = |salt: &str| {
            let mut graph: ActionGraph<'static, Infallible> = ActionGraph::new();
            for (k, counter) in computes.iter().enumerate() {
                for d in 0..dups {
                    let runs = counter.clone();
                    graph.add_cached(
                        ActionKind::IrLower,
                        format!("{salt}-k{k}-d{d}"),
                        key(&format!("race-{k}")),
                        &[],
                        move |_| {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so waiters genuinely park.
                            std::thread::sleep(Duration::from_micros(200));
                            Ok(format!("race bytes {k}").into_bytes())
                        },
                    );
                }
            }
            engine
                .submit_graph(graph)
                .expect("a well-formed graph")
        };
        let first = submit("a");
        let second = submit("b");
        let runs = [first.wait(), second.wait()];

        for run in &runs {
            prop_assert!(run.succeeded());
            for k in 0..n_keys {
                for d in 0..dups {
                    let id = k * dups + d;
                    prop_assert_eq!(run.output(id), Some(format!("race bytes {k}").as_bytes()));
                }
            }
        }
        for (k, counter) in computes.iter().enumerate() {
            prop_assert_eq!(
                counter.load(Ordering::SeqCst), 1,
                "key {} must compute exactly once across both submissions", k
            );
        }
        let missed: usize = runs
            .iter()
            .flat_map(|run| run.trace.records.iter())
            .filter(|record| !record.cached)
            .count();
        prop_assert_eq!(missed, n_keys, "one miss record per key across both runs");
    }
}
