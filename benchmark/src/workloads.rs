//! The four workloads: what each sets up, and what one operation of each does.

use crate::fixtures::{
    build_llama_source, build_outcome, deploy_outcome, fleet_outcome, llama_source_digest,
    reference_orchestrator, source_outcome, Fixtures, Request, Via, DEPLOYS,
};
use crate::trace::{Golden, LayerTotals, OpCtx, StackStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use xaas::engine::AnalysisReport;
use xaas::prelude::*;

/// A benchmark workload. The names are final: later issues refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The deployment hot path: every keyed node hits L1.
    WarmDeploy,
    /// CI-side container production: every keyed node misses.
    ColdBuild,
    /// Restart-to-warm over the on-disk tier.
    DiskRestart,
    /// Two tenants contending for one bounded-L1 service.
    MixedTenants,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WarmDeploy,
        Workload::ColdBuild,
        Workload::DiskRestart,
        Workload::MixedTenants,
    ];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::WarmDeploy => "warm_deploy",
            Workload::ColdBuild => "cold_build",
            Workload::DiskRestart => "disk_restart",
            Workload::MixedTenants => "mixed_tenants",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client threads: every workload is a closed loop of this many callers.
    pub fn clients(&self) -> usize {
        match self {
            Workload::MixedTenants => 2,
            _ => 1,
        }
    }

    /// Operations per block and client. A block is one repetition of the request
    /// pattern, so the blocks of a workload replay one another: 8 positions × 7
    /// deployments, four cold builds, one round of the 16 disk variants, one
    /// 20-request tenant mix. (Successive tenant mixes build the next three pool
    /// variants — which differ only in the digits of their salt — so it takes
    /// [`Workload::warmup_blocks`] of them to walk the pool once.)
    pub fn block_ops(&self) -> usize {
        match self {
            Workload::WarmDeploy => 56,
            Workload::ColdBuild => 4,
            Workload::DiskRestart => DISK_POOL,
            Workload::MixedTenants => 20,
        }
    }

    /// Operations per second of `--seconds`, all clients together, on the 2-core
    /// reference box: what turns `--seconds` into a number of blocks.
    fn ops_per_second(&self) -> f64 {
        match self {
            Workload::WarmDeploy => 650.0,
            Workload::ColdBuild => 50.0,
            Workload::DiskRestart => 50.0,
            Workload::MixedTenants => 600.0,
        }
    }

    /// Timed blocks of a run of `seconds`. The operation count is this constant
    /// times the block size, never a time box — counts, memory and allocation must
    /// not depend on how fast the machine happens to be.
    pub fn blocks(&self, seconds: f64) -> usize {
        let ops = self.ops_per_second() * seconds;
        ((ops / (self.block_ops() * self.clients()) as f64).round() as usize).max(1)
    }

    /// Untimed blocks before the timed ones: one, or as many as it takes
    /// `mixed_tenants` to walk its pool once.
    pub fn warmup_blocks(&self) -> usize {
        match self {
            Workload::MixedTenants => POOL_CYCLE,
            _ => 1,
        }
    }

    fn pool_size(&self) -> usize {
        match self {
            Workload::DiskRestart => DISK_POOL,
            Workload::MixedTenants => TENANT_POOL,
            _ => 0,
        }
    }
}

/// Salted GROMACS variants the disk root is populated with.
const DISK_POOL: usize = 16;
/// Salted GROMACS variants the two tenants build from.
const TENANT_POOL: usize = 24;
/// Tenant mixes (3 builds each) it takes to walk the pool once.
const POOL_CYCLE: usize = TENANT_POOL / 3;

/// The benchmark's output directory: `benchmark/out/` of the checkout it was
/// built in. Span files and the disk tier's root live here.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory that is removed when the guard drops — on panic too.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// A fresh, empty directory under [`out_dir`].
    pub fn create(tag: &str) -> Result<Self, String> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn lint_build(request: IrBuildRequest<'_>, orch: &Orchestrator) -> Option<AnalysisReport> {
    request.analyze(orch).ok()
}

fn lint_deploy(request: IrDeployRequest<'_>, orch: &Orchestrator) -> Option<AnalysisReport> {
    request.analyze(orch).ok()
}

fn lint_fleet(request: FleetRequest<'_>, orch: &Orchestrator) -> Option<AnalysisReport> {
    request.analyze(orch).ok()
}

/// Source deployments have no plan-only entry point.
fn no_lint(_: SourceDeployRequest<'_>, _: &Orchestrator) -> Option<AnalysisReport> {
    None
}

fn pool_reference(variant: usize) -> String {
    format!("bench/gromacs-v{variant}:ir")
}

/// Submit one service request and check its image.
pub fn run_request(
    fx: &Fixtures,
    request: Request,
    via: Via<'_>,
    ctx: &mut OpCtx<'_>,
) -> Result<(), String> {
    let orch = via.orchestrator();
    let outcome = match request {
        Request::GromacsDeploy(system) => ctx
            .send(via, fx.gromacs_deploy(system), lint_deploy)
            .and_then(|deployment| deploy_outcome(orch, deployment)),
        Request::LuleshDeploy { mpi, omp } => ctx
            .send(via, fx.lulesh_deploy(mpi, omp), lint_deploy)
            .and_then(|deployment| deploy_outcome(orch, deployment)),
        Request::Fleet => ctx
            .send(via, fx.fleet(&fx.gromacs, &fx.gromacs_ir), lint_fleet)
            .and_then(|report| fleet_outcome(orch, report)),
        Request::SourceDeploy => ctx
            .send(via, fx.source_deploy(&fx.llama_src), no_lint)
            .and_then(|deployment| source_outcome(orch, deployment)),
        Request::PoolBuild(variant) => ctx
            .send(
                via,
                fx.ir_build(&fx.pool[variant], &pool_reference(variant)),
                lint_build,
            )
            .and_then(|build| build_outcome(orch, &build)),
    };
    ctx.check(&request.key(), outcome)
}

/// One `cold_build` operation on `orch`: the GROMACS IR build, a fleet wave over
/// it, the LULESH IR build, and the llama.cpp source container built and deployed.
fn cold_requests(fx: &Fixtures, orch: &Orchestrator, ctx: &mut OpCtx<'_>) -> Result<(), String> {
    let via = Via::Direct(orch);
    let build = ctx.send(
        via,
        fx.ir_build(&fx.gromacs, "bench/gromacs:ir"),
        lint_build,
    )?;
    ctx.check("gromacs-build", build_outcome(orch, &build))?;
    let report = ctx.send(via, fx.fleet(&fx.gromacs, &build), lint_fleet)?;
    ctx.check("gromacs-fleet", fleet_outcome(orch, report))?;
    let build = ctx.send(via, fx.ir_build(&fx.lulesh, "bench/lulesh:ir"), lint_build)?;
    ctx.check("lulesh-build", build_outcome(orch, &build))?;
    let image = build_llama_source(&fx.llama, &fx.systems[0], orch);
    ctx.check_digest("llama-source", llama_source_digest(orch)?)?;
    let deployment = ctx.send(via, fx.source_deploy(&image), no_lint)?;
    ctx.check("llama-source-deploy", source_outcome(orch, deployment))
}

/// The IR build of pool variant `variant` and a fleet wave over it, on `orch`.
fn pool_requests(
    fx: &Fixtures,
    variant: usize,
    orch: &Orchestrator,
    ctx: &mut OpCtx<'_>,
) -> Result<(), String> {
    let via = Via::Direct(orch);
    let app = &fx.pool[variant];
    let build = ctx.send(via, fx.ir_build(app, &pool_reference(variant)), lint_build)?;
    ctx.check(
        &Request::PoolBuild(variant).key(),
        build_outcome(orch, &build),
    )?;
    let report = ctx.send(via, fx.fleet(app, &build), lint_fleet)?;
    ctx.check(
        &format!("pool-fleet/{variant}"),
        fleet_outcome(orch, report),
    )
}

/// A seeded permutation of `items` (Fisher–Yates).
fn shuffled<T: Copy>(items: &[T], rng: &mut StdRng) -> Vec<T> {
    let mut items = items.to_vec();
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.random::<u64>() % (i as u64 + 1)) as usize);
    }
    items
}

/// One block of `warm_deploy`: a llama.cpp source deployment every 8th request,
/// a fleet wave every other 4th, and the seven IR deployments in a seeded order
/// in between.
fn warm_stream(block_ops: usize, rng: &mut StdRng) -> Vec<Request> {
    let order = shuffled(&DEPLOYS, rng);
    let mut deploys = order.iter().cycle();
    (0..block_ops)
        .map(|i| match i % 8 {
            7 => Request::SourceDeploy,
            3 => Request::Fleet,
            _ => *deploys.next().expect("a cycle never ends"),
        })
        .collect()
}

/// `ops` requests of one `mixed_tenants` tenant: per 20 requests 12 warm
/// deployments, 3 fleet waves, 2 source deployments and 3 IR builds of pool
/// variants, in a seeded order. Both tenants walk the pool in the same seeded
/// order, so the same cold key is often in flight twice.
fn tenant_stream(ops: usize, pool_order: &[usize], rng: &mut StdRng) -> Vec<Request> {
    let deploy_order = shuffled(&DEPLOYS, rng);
    let mut deploys = deploy_order.iter().cycle();
    let mut builds = pool_order.iter().cycle();
    let mut stream = Vec::with_capacity(ops);
    for _ in 0..ops / 20 {
        let mut mix = Vec::with_capacity(20);
        mix.extend((0..12).map(|_| *deploys.next().expect("a cycle never ends")));
        mix.extend([Request::Fleet; 3]);
        mix.extend([Request::SourceDeploy; 2]);
        mix.extend((0..3).map(|_| Request::PoolBuild(*builds.next().expect("a cycle never ends"))));
        stream.extend(shuffled(&mix, rng));
    }
    stream
}

/// The request stream of each client, for the workloads that are streams of
/// service requests — one block on `warm_deploy`, one walk of the pool on
/// `mixed_tenants`; blocks take their requests from it cyclically. Empty for the
/// other workloads.
fn request_streams(workload: Workload, seed: u64) -> Vec<Vec<Request>> {
    let block_ops = workload.block_ops();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    match workload {
        Workload::WarmDeploy => vec![warm_stream(block_ops, &mut rng)],
        Workload::MixedTenants => {
            let pool: Vec<usize> = (0..TENANT_POOL).collect();
            let pool_order = shuffled(&pool, &mut rng);
            (0..workload.clients())
                .map(|_| tenant_stream(block_ops * POOL_CYCLE, &pool_order, &mut rng))
                .collect()
        }
        Workload::ColdBuild | Workload::DiskRestart => Vec::new(),
    }
}

/// A workload set up for one seed: inputs generated, reference computed, the
/// stack under test built. [`Prepared::op`] runs one operation on it.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The seed its inputs come from.
    pub seed: u64,
    /// Engine workers of every orchestrator the workload builds.
    pub workers: usize,
    /// Operations per block and client.
    pub block_ops: usize,
    /// Where the disk tier's root lives (`disk_restart`).
    pub disk_root: Option<ScratchDir>,
    /// The long-lived service (`warm_deploy`, `mixed_tenants`).
    pub service: Option<OrchestratorService>,
    /// L1 entry bound of the service's cache (`mixed_tenants`).
    pub l1_capacity: Option<usize>,
    fx: Fixtures,
    expected: BTreeMap<String, String>,
    sessions: Vec<Session>,
    /// The request stream of each client (service workloads).
    streams: Vec<Vec<Request>>,
}

/// The checked-in reference of seed 13, by workload name.
const GOLDEN_SEED: u64 = 13;
const GOLDEN_SEED13: &str = include_str!("../golden/seed13.json");

impl Prepared {
    /// Set `workload` up for `seed`: generate the inputs, compute the reference on
    /// a one-worker orchestrator with no cache, build the stack under test. The
    /// reference is always computed here — so set-up costs the same for every seed —
    /// and for seed 13 it must also equal the checked-in one.
    pub fn new(workload: Workload, seed: u64, workers: usize) -> Result<Self, String> {
        let fx = Fixtures::generate(seed, workload.pool_size());
        let streams = request_streams(workload, seed);

        let expected = reference(workload, &fx, &streams)?;
        if seed == GOLDEN_SEED {
            check_against_golden(workload, &expected)?;
        }

        let mut prepared = Self {
            workload,
            seed,
            workers,
            block_ops: workload.block_ops(),
            disk_root: None,
            service: None,
            l1_capacity: None,
            fx,
            expected,
            sessions: Vec::new(),
            streams,
        };
        match workload {
            Workload::WarmDeploy => {
                prepared.serve(OrchestratorService::builder(), &["ci"]);
            }
            Workload::MixedTenants => {
                let capacity = pool_keys(&prepared.fx)? / 2;
                let cache = ActionCache::with_capacity(ImageStore::new(), capacity)
                    .map_err(|e| e.to_string())?;
                prepared.l1_capacity = Some(capacity);
                prepared.serve(
                    OrchestratorService::builder().action_cache(cache),
                    &["tenant-a", "tenant-b"],
                );
            }
            Workload::ColdBuild => {}
            Workload::DiskRestart => prepared.populate_disk()?,
        }
        Ok(prepared)
    }

    fn serve(&mut self, builder: xaas::service::OrchestratorServiceBuilder, tenants: &[&str]) {
        let service = builder
            .workers(self.workers)
            .policy(WeightedFair::new())
            .build();
        self.sessions = tenants.iter().map(|t| service.session(*t)).collect();
        self.service = Some(service);
    }

    /// Fill a fresh disk root with every pool variant's build and fleet outputs,
    /// through one tiered orchestrator that is then dropped.
    fn populate_disk(&mut self) -> Result<(), String> {
        let root = ScratchDir::create("disk")?;
        let orch = self.disk_orchestrator(root.path())?;
        let (mut totals, mut stacks) = (LayerTotals::default(), StackStats::default());
        let mut ctx = OpCtx::new(
            &mut totals,
            &mut stacks,
            None,
            Golden::Check(&self.expected),
        );
        for variant in 0..self.fx.pool.len() {
            pool_requests(&self.fx, variant, &orch, &mut ctx)?;
        }
        self.disk_root = Some(root);
        Ok(())
    }

    fn disk_orchestrator(&self, root: &Path) -> Result<Orchestrator, String> {
        Ok(Orchestrator::builder()
            .workers(self.workers)
            .cache_tiers(xaas_container::TierConfig::new().disk_root(root))
            .map_err(|e| e.to_string())?
            .build())
    }

    /// Client threads of the workload.
    pub fn clients(&self) -> usize {
        self.workload.clients()
    }

    /// The generated inputs (the layer probes run on them).
    pub fn fixtures(&self) -> &Fixtures {
        &self.fx
    }

    /// The request kind of every position of the block, on the workloads where a
    /// request's cost does not depend on what other clients are doing — the
    /// single-client ones. Positions of one kind submit the same inputs to the same
    /// cache state, so their operations are replays of one another: a distinct
    /// [`Request`] on `warm_deploy`; a single kind on `cold_build` (every
    /// operation is the same) and on `disk_restart` (the 16 variants differ only
    /// in the digits of their salt). `None` on `mixed_tenants`: there the cache
    /// state and the queue a request meets are part of what is measured.
    pub fn kinds(&self) -> Option<Vec<usize>> {
        match self.workload {
            Workload::WarmDeploy => {
                let stream = &self.streams[0];
                let mut distinct = stream.clone();
                distinct.sort();
                distinct.dedup();
                Some(
                    stream
                        .iter()
                        .map(|request| {
                            distinct
                                .binary_search(request)
                                .expect("drawn from the stream")
                        })
                        .collect(),
                )
            }
            Workload::ColdBuild | Workload::DiskRestart => Some(vec![0; self.block_ops]),
            Workload::MixedTenants => None,
        }
    }

    /// The reference digests by request key.
    pub fn expected(&self) -> &BTreeMap<String, String> {
        &self.expected
    }

    /// Run operation `index` of a block as client `client`. An `Err` is a failed
    /// operation: a refusal, a typed error, an image that differs from the
    /// reference, or — on `disk_restart` — a recompute.
    pub fn op(
        &self,
        client: usize,
        block: usize,
        index: usize,
        ctx: &mut OpCtx<'_>,
    ) -> Result<(), String> {
        match self.workload {
            Workload::WarmDeploy | Workload::MixedTenants => run_request(
                &self.fx,
                self.streams[client][(block * self.block_ops + index) % self.streams[client].len()],
                Via::Service(&self.sessions[client]),
                ctx,
            ),
            Workload::ColdBuild => {
                let orch = Orchestrator::builder().workers(self.workers).build();
                let result = cold_requests(&self.fx, &orch, ctx);
                ctx.retire(&orch);
                result
            }
            Workload::DiskRestart => {
                let root = self.disk_root.as_ref().expect("set up by populate_disk");
                let orch = self.disk_orchestrator(root.path())?;
                let recomputes = ctx.totals.recomputes;
                let result = pool_requests(&self.fx, index % DISK_POOL, &orch, ctx);
                ctx.retire(&orch);
                result?;
                match ctx.totals.recomputes - recomputes {
                    0 => Ok(()),
                    n => Err(format!("{n} actions recomputed after a restart")),
                }
            }
        }
    }
}

/// Distinct keys the pool's IR builds put in a cache.
fn pool_keys(fx: &Fixtures) -> Result<usize, String> {
    let orch = Orchestrator::new();
    for (variant, app) in fx.pool.iter().enumerate() {
        fx.ir_build(app, &pool_reference(variant))
            .submit(&orch)
            .map_err(|e| e.to_string())?;
    }
    Ok(orch.cache_stats().entries)
}

/// The reference digests of everything `workload` produces for these inputs.
fn reference(
    workload: Workload,
    fx: &Fixtures,
    streams: &[Vec<Request>],
) -> Result<BTreeMap<String, String>, String> {
    let orch = reference_orchestrator();
    let mut reference = BTreeMap::new();
    let (mut totals, mut stacks) = (LayerTotals::default(), StackStats::default());
    let mut ctx = OpCtx::new(
        &mut totals,
        &mut stacks,
        None,
        Golden::Record(&mut reference),
    );
    match workload {
        Workload::WarmDeploy | Workload::MixedTenants => {
            let mut distinct: Vec<Request> = streams.iter().flatten().copied().collect();
            distinct.sort();
            distinct.dedup();
            for request in distinct {
                run_request(fx, request, Via::Direct(&orch), &mut ctx)?;
            }
        }
        Workload::ColdBuild => cold_requests(fx, &orch, &mut ctx)?,
        Workload::DiskRestart => {
            for variant in 0..fx.pool.len() {
                pool_requests(fx, variant, &orch, &mut ctx)?;
            }
        }
    }
    Ok(reference)
}

/// Seed 13's reference must equal the checked-in `golden/seed13.json`.
fn check_against_golden(
    workload: Workload,
    reference: &BTreeMap<String, String>,
) -> Result<(), String> {
    let golden: BTreeMap<String, BTreeMap<String, String>> =
        serde_json::from_str(GOLDEN_SEED13).map_err(|e| format!("golden/seed13.json: {e}"))?;
    let golden = golden
        .get(workload.name())
        .ok_or_else(|| format!("golden/seed13.json has no `{}`", workload.name()))?;
    if golden == reference {
        return Ok(());
    }
    let differing: Vec<&String> = reference
        .iter()
        .filter(|(key, digest)| golden.get(*key) != Some(digest))
        .map(|(key, _)| key)
        .collect();
    Err(format!(
        "seed 13 no longer produces the images of golden/seed13.json: {differing:?} differ"
    ))
}

/// The seed-13 reference of every workload, as `golden/seed13.json` holds it.
pub fn golden_document() -> Result<String, String> {
    let mut document = BTreeMap::new();
    for workload in Workload::ALL {
        let fx = Fixtures::generate(GOLDEN_SEED, workload.pool_size());
        let streams = request_streams(workload, GOLDEN_SEED);
        document.insert(workload.name(), reference(workload, &fx, &streams)?);
    }
    serde_json::to_string_pretty(&document).map_err(|e| e.to_string())
}
