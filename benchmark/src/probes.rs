//! Layer probes: each times one layer's public calls on the workload's own
//! inputs, from outside. They run only on a traced run, after the measured
//! phases, so their cost never reaches an end-to-end metric.

use crate::harness::{metric, Metric};
use crate::platform::median;
use crate::workloads::{Prepared, ScratchDir};
use std::hint::black_box;
use std::time::Instant;
use xaas::engine::{ActionGraph, ActionId, ActionKind, Engine};
use xaas::prelude::*;
use xaas::targets::target_isa_for;
use xaas_container::{
    ActionCache, Blob, BuildKey, CacheBackend, Digest, DiskTier, DiskTierConfig, ImageStore,
    TryBegin,
};
use xaas_hpcsim::SimdLevel;
use xaas_xir::{CompileFlags, Compiler};

/// Median over `rounds` of the seconds one call of `body` takes.
fn median_seconds(rounds: usize, mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let started = Instant::now();
            body();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// `service`: what `Session::submit_wait` adds over submitting straight to the
/// session's orchestrator — admission and the permit — on a warm GROMACS deployment.
fn service_probe(prepared: &Prepared) -> Result<Metric, String> {
    let fx = prepared.fixtures();
    let service = OrchestratorService::builder()
        .workers(prepared.workers)
        .policy(WeightedFair::new())
        .build();
    let session = service.session("probe");
    let (mut through, mut direct) = (Vec::new(), Vec::new());
    for round in 0..220 {
        let started = Instant::now();
        session
            .submit_wait(fx.gromacs_deploy(0))
            .map_err(|e| e.to_string())?;
        let served = started.elapsed().as_secs_f64();
        let started = Instant::now();
        fx.gromacs_deploy(0)
            .submit(session.orchestrator())
            .map_err(|e| e.to_string())?;
        // The first rounds fill the cache.
        if round >= 20 {
            through.push(served);
            direct.push(started.elapsed().as_secs_f64());
        }
    }
    let overhead = median(&through).unwrap_or(0.0) - median(&direct).unwrap_or(0.0);
    Ok(metric("service.submit_overhead_us", overhead * 1e6, "us"))
}

/// `plan`: the drivers' plan-and-lint entry points, which build and analyze the
/// request's graph and execute nothing.
fn plan_probes(prepared: &Prepared) -> Vec<Metric> {
    let fx = prepared.fixtures();
    let orch = Orchestrator::builder().workers(prepared.workers).build();
    let deploy = median_seconds(200, || {
        black_box(fx.gromacs_deploy(0).analyze(&orch).ok());
    });
    let build = median_seconds(50, || {
        black_box(fx.ir_build(&fx.gromacs, "probe:ir").analyze(&orch).ok());
    });
    let fleet = median_seconds(50, || {
        black_box(fx.fleet(&fx.gromacs, &fx.gromacs_ir).analyze(&orch).ok());
    });
    vec![
        metric("plan.deploy_lint_us", deploy * 1e6, "us"),
        metric("plan.build_lint_us", build * 1e6, "us"),
        metric("plan.fleet_lint_us", fleet * 1e6, "us"),
    ]
}

/// 1 024 four-stage deploy pipelines (preprocess → ir-lower → keyed sd-compile →
/// link) sharing 64 keyed artifacts: the shape `submit_graph` preflights.
fn deploy_shaped_graph() -> ActionGraph<'static, std::convert::Infallible> {
    let mut graph = ActionGraph::new();
    let mut primaries: Vec<ActionId> = Vec::new();
    for job in 0..1024 {
        graph.set_job(Some(job));
        let pre = graph.add(ActionKind::Preprocess, format!("pre{job}"), &[], |_| {
            Ok(vec![0])
        });
        let lower = graph.add(ActionKind::IrLower, format!("lower{job}"), &[pre], |_| {
            Ok(vec![0])
        });
        let artifact = job % 64;
        let key = BuildKey::new(format!("probe-artifact-{artifact}"), "x86_64", "O2", "xirc");
        let deps = match primaries.get(artifact) {
            Some(&primary) => vec![lower, primary],
            None => vec![lower],
        };
        let compile = graph.add_cached(
            ActionKind::SdCompile,
            format!("compile{job}"),
            key,
            &deps,
            |_| Ok(vec![0]),
        );
        if primaries.len() == artifact {
            primaries.push(compile);
        }
        graph.add(ActionKind::Link, format!("link{job}"), &[compile], |_| {
            Ok(vec![0])
        });
    }
    graph.set_job(None);
    graph
}

/// `analysis`: the analyzer over a 4 096-node deploy-shaped graph.
fn analysis_probes(lint_denies: f64) -> Vec<Metric> {
    let engine = Engine::cached(&ActionCache::new(ImageStore::new()));
    let graph = deploy_shaped_graph();
    let report = engine.analyze(&graph);
    let pass = median_seconds(9, || {
        black_box(engine.analyze(&graph));
    });
    vec![
        metric(
            "analysis.ns_per_node",
            pass * 1e9 / graph.len() as f64,
            "ns",
        ),
        metric(
            "analysis.denies",
            lint_denies + report.denies() as f64,
            "count",
        ),
    ]
}

/// `executor`: submit and wait for a graph of independent no-op nodes.
fn executor_probe(workers: usize) -> Result<Metric, String> {
    const NODES: usize = 1024;
    let engine = Engine::uncached(&ImageStore::new()).with_workers(workers);
    let mut failed = false;
    let pass = median_seconds(9, || {
        let mut graph: ActionGraph<'static, std::convert::Infallible> = ActionGraph::new();
        for node in 0..NODES {
            graph.add(ActionKind::Preprocess, format!("n{node}"), &[], |_| {
                Ok(Vec::new())
            });
        }
        match engine.submit_graph(graph) {
            Ok(handle) => failed |= !handle.wait().succeeded(),
            Err(_) => failed = true,
        }
    });
    if failed {
        return Err("the executor probe's no-op graph did not run".to_string());
    }
    Ok(metric(
        "executor.dispatch_us_per_node",
        pass * 1e6 / NODES as f64,
        "us",
    ))
}

fn payload(n: usize, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    bytes[..8].copy_from_slice(&(n as u64).to_le_bytes());
    bytes
}

/// `cache`: the hit path and the miss → `complete` path of the memory tier.
fn cache_probes() -> Result<Vec<Metric>, String> {
    const HITS: usize = 50_000;
    const MISSES: usize = 2_000;
    let cache = ActionCache::new(ImageStore::new());
    let key = |n: usize| BuildKey::new(format!("probe-{n}"), "xir.ir", "O2", "xirc");
    let resident = key(usize::MAX);
    cache.insert(&resident, payload(0, 4096));
    let hit = median_seconds(5, || {
        for _ in 0..HITS {
            black_box(cache.try_begin(black_box(&resident)));
        }
    });
    let keys: Vec<BuildKey> = (0..MISSES).map(key).collect();
    let started = Instant::now();
    for (n, key) in keys.iter().enumerate() {
        match cache.try_begin(key) {
            TryBegin::Owner(ticket) => {
                black_box(cache.complete(ticket, payload(n, 4096)));
            }
            _ => return Err("a fresh key was not a miss".to_string()),
        }
    }
    let miss = started.elapsed().as_secs_f64();
    Ok(vec![
        metric("cache.hit_ns", hit * 1e9 / HITS as f64, "ns"),
        metric("cache.miss_complete_ns", miss * 1e9 / MISSES as f64, "ns"),
    ])
}

/// `tier`: opening the workload's populated disk root (journal replay), and
/// storing and loading blobs on a scratch root beside it. Zero on the workloads
/// that have no disk tier.
fn tier_probes(prepared: &Prepared) -> Result<Vec<Metric>, String> {
    const BLOBS: usize = 256;
    let (mut open, mut store, mut load) = (0.0, 0.0, 0.0);
    if let Some(root) = &prepared.disk_root {
        let mut failed = false;
        open = median_seconds(9, || {
            failed |= DiskTier::open(DiskTierConfig::new(root.path())).is_err();
        });
        if failed {
            return Err("the populated disk root did not open".to_string());
        }
        let scratch = ScratchDir::create("tier-probe")?;
        let tier =
            DiskTier::open(DiskTierConfig::new(scratch.path())).map_err(|e| e.to_string())?;
        let blobs: Vec<(Digest, Digest, Vec<u8>)> = (0..BLOBS)
            .map(|n| {
                let bytes = payload(n, 1024);
                (
                    Digest::of_str(&format!("tier-probe-{n}")),
                    Digest::of_bytes(&bytes),
                    bytes,
                )
            })
            .collect();
        let started = Instant::now();
        for (key, content, bytes) in &blobs {
            tier.store(key, content, bytes);
        }
        store = started.elapsed().as_secs_f64() / BLOBS as f64;
        let started = Instant::now();
        for (key, _, _) in &blobs {
            if black_box(tier.load(key)).is_none() {
                return Err("a stored blob did not load".to_string());
            }
        }
        load = started.elapsed().as_secs_f64() / BLOBS as f64;
    }
    Ok(vec![
        metric("tier.open_ms", open * 1e3, "ms"),
        metric("tier.store_us_per_blob", store * 1e6, "us"),
        metric("tier.load_us_per_blob", load * 1e6, "us"),
    ])
}

/// `digest`: SHA-256 over small and medium buffers.
fn digest_probes() -> Vec<Metric> {
    let rate = |len: usize, passes: usize| {
        let buffer = payload(len, len);
        let pass = median_seconds(5, || {
            for _ in 0..passes {
                black_box(Digest::of_bytes(black_box(&buffer)));
            }
        });
        (len * passes) as f64 / pass / 1e6
    };
    vec![
        metric("digest.mb_per_s_1k", rate(1024, 4096), "MB/s"),
        metric("digest.mb_per_s_64k", rate(64 * 1024, 64), "MB/s"),
    ]
}

/// `store`: a put of new content, and a put of content already held.
fn store_probes() -> Vec<Metric> {
    const PUTS: usize = 2_000;
    let store = ImageStore::new();
    let blobs: Vec<Blob> = (0..PUTS).map(|n| Blob::new(payload(n, 4096))).collect();
    let started = Instant::now();
    for blob in &blobs {
        black_box(store.put_blob(blob.clone()));
    }
    let new = started.elapsed().as_secs_f64() / PUTS as f64;
    let dup = median_seconds(5, || {
        for blob in &blobs {
            black_box(store.put_blob(blob.clone()));
        }
    }) / PUTS as f64;
    vec![
        metric("store.put_new_us_4k", new * 1e6, "us"),
        metric("store.put_dup_ns", dup * 1e9, "ns"),
    ]
}

/// `xir`: the compiler's three stages over the workload's GROMACS translation units.
fn xir_probes(prepared: &Prepared) -> Result<Vec<Metric>, String> {
    let project = &prepared.fixtures().gromacs.project;
    let mut compiler = Compiler::new();
    for (name, content) in &project.headers {
        compiler.add_header(name.clone(), content.clone());
    }
    let flags = CompileFlags::parse(project.global_flags.iter().cloned());
    let target = target_isa_for(SimdLevel::Avx512);
    let units = project.sources.len() as f64;
    let mut modules = Vec::with_capacity(project.sources.len());
    for source in &project.sources {
        modules.push(
            compiler
                .compile_to_ir(&source.path, &source.content, &flags)
                .map_err(|e| format!("{}: {e}", source.path))?,
        );
    }
    let preprocess = median_seconds(9, || {
        for source in &project.sources {
            black_box(
                compiler
                    .preprocess_only(&source.path, &source.content, &flags)
                    .ok(),
            );
        }
    });
    let compile = median_seconds(9, || {
        for source in &project.sources {
            black_box(
                compiler
                    .compile_to_ir(&source.path, &source.content, &flags)
                    .ok(),
            );
        }
    });
    let lower = median_seconds(9, || {
        for module in &modules {
            black_box(xaas_xir::target::lower_to_machine(module, &target));
        }
    });
    Ok(vec![
        metric("xir.preprocess_us_per_tu", preprocess * 1e6 / units, "us"),
        metric("xir.ir_lower_us_per_tu", compile * 1e6 / units, "us"),
        metric("xir.machine_lower_us_per_tu", lower * 1e6 / units, "us"),
    ])
}

/// Every layer probe, on `prepared`'s inputs. `lint_denies` is the number of
/// deny-level diagnostics the traced run's `analyze()` calls reported.
pub fn layer_probes(prepared: &Prepared, lint_denies: f64) -> Result<Vec<Metric>, String> {
    let mut metrics = vec![service_probe(prepared)?];
    metrics.extend(plan_probes(prepared));
    metrics.extend(analysis_probes(lint_denies));
    metrics.push(executor_probe(prepared.workers)?);
    metrics.extend(cache_probes()?);
    metrics.extend(tier_probes(prepared)?);
    metrics.extend(digest_probes());
    metrics.extend(store_probes());
    metrics.extend(xir_probes(prepared)?);
    Ok(metrics)
}
