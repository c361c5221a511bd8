//! Persistent tiered action cache, end to end: an orchestrator whose cache
//! stack persists through an on-disk CAS tier survives being killed and
//! recreated — the warm restart replays the same work byte-identically with zero compile/lower
//! actions re-executed, every keyed action read through the disk tier and
//! visible as such in the [`ActionTrace`]. A root damaged between the sessions
//! costs at most the damaged entries and heals itself. Store-level GC reclaims
//! orphans without invalidating live cache entries, and the service builder
//! takes the same tier configuration, disk byte budget included.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use xaas::prelude::*;
use xaas::service::OrchestratorService;
use xaas_buildsys::OptionAssignment;
use xaas_container::{CacheTier, DiskTierConfig, TierConfig};
use xaas_hpcsim::SystemModel;

/// A unique scratch directory under the OS temp dir (pid + counter keep
/// concurrent test processes and threads apart; no `tempfile` dependency).
/// Removed on drop.
struct ScratchRoot(PathBuf);

impl ScratchRoot {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        Self(
            std::env::temp_dir().join(format!("xaas-cache-tiers-{tag}-{}-{n}", std::process::id())),
        )
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn gromacs_sweep() -> (xaas_buildsys::ProjectSpec, IrPipelineConfig) {
    let project = xaas_apps::gromacs::project();
    let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"]).with_values(
        "GMX_SIMD",
        &["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"],
    );
    (project, config)
}

fn target_for(system: SystemModel) -> FleetTarget {
    let simd = system.cpu.best_simd();
    FleetTarget::new(
        system,
        OptionAssignment::new().with("GMX_SIMD", simd.gmx_name()),
        simd,
    )
}

/// One full orchestrator session over `config`: IR build + fleet wave. Returns
/// the per-target images, the fleet report, and the orchestrator (so callers
/// can read tier stats before killing it).
fn session(config: TierConfig, systems: &[SystemModel]) -> (Orchestrator, Vec<Image>, FleetReport) {
    let (project, pipeline) = gromacs_sweep();
    let orch = Orchestrator::builder()
        .workers(4)
        .cache_tiers(config)
        .expect("tier stack initializes")
        .build();
    let build = IrBuildRequest::new(&project, &pipeline)
        .reference("tiers:gromacs:ir")
        .submit(&orch)
        .expect("IR container builds");
    let report = FleetRequest::new(&build, &project)
        .targets(systems.iter().cloned().map(target_for))
        .submit(&orch);
    assert!(report.all_succeeded(), "fleet succeeds");
    let images = report.deployments().map(|d| d.image.clone()).collect();
    (orch, images, report)
}

#[test]
fn warm_restart_replays_the_fleet_from_the_disk_tier() {
    let root = ScratchRoot::new("warm-restart");
    let systems = [SystemModel::ault23(), SystemModel::clariden()];

    let (cold_orch, cold_images, _) = session(TierConfig::new().disk_root(root.path()), &systems);
    let cold_stats = cold_orch.cache_stats();
    assert!(cold_stats.misses > 0, "cold session computes actions");
    let disk = cold_orch
        .tiered_cache()
        .expect("tiered backend exposed")
        .disk_stats()
        .expect("disk tier configured");
    assert!(disk.entries > 0, "disk tier persisted the outputs");

    // Kill the orchestrator: the L1 and its store die; only the disk survives.
    drop(cold_orch);

    let (warm_orch, warm_images, warm_report) =
        session(TierConfig::new().disk_root(root.path()), &systems);
    let warm_stats = warm_orch.cache_stats();
    assert_eq!(cold_images, warm_images, "byte-identical after restart");
    assert_eq!(warm_stats.misses, 0, "zero compile actions re-executed");
    assert!(warm_stats.disk_hits > 0, "hits served by the disk tier");
    assert_eq!(
        warm_stats.promotions, warm_stats.disk_hits,
        "every disk hit promoted into memory exactly once"
    );
    // Per-tier attribution is visible in the trace, not just the counters.
    assert!(
        warm_report
            .trace
            .records
            .iter()
            .any(|r| r.hit_tier == Some(CacheTier::Disk)),
        "trace records carry the disk tier"
    );
    // And the per-request delta derived from that trace agrees.
    assert_eq!(warm_report.cache.misses, 0);
    assert!(warm_report.cache.disk_hits > 0);
}

/// Stage A is one wave of preprocess nodes, each deciding the OpenMP verdict from
/// its own text, so a build's only keyed nodes are its `ir-lower`s. A build over a
/// restarted root reads exactly those from disk and executes none; no trace carries
/// an `openmp-detect`; and both images equal an uncached build's.
#[test]
fn a_restarted_build_reads_exactly_its_ir_lower_records_from_disk() {
    let root = ScratchRoot::new("ir-lower");
    let (project, pipeline) = gromacs_sweep();
    let build = |orch: &Orchestrator| {
        IrBuildRequest::new(&project, &pipeline)
            .reference("tiers:ir-lower")
            .submit(orch)
            .expect("IR container builds")
    };
    let tiered = || {
        Orchestrator::builder()
            .workers(4)
            .cache_tiers(TierConfig::new().disk_root(root.path()))
            .expect("tier stack initializes")
            .build()
    };
    // (executed, memory hits, disk hits) over the build's keyed records.
    let keyed = |build: &IrContainerBuild| {
        let records = build.trace.records.iter();
        records
            .filter(|r| r.key_digest.is_some())
            .fold((0, 0, 0), |(executed, memory, disk), r| {
                assert_eq!(r.kind, ActionKind::IrLower, "{}", r.identity());
                match r.hit_tier {
                    _ if !r.cached => (executed + 1, memory, disk),
                    Some(CacheTier::Disk) => (executed, memory, disk + 1),
                    _ => (executed, memory + 1, disk),
                }
            })
    };
    let uncached = build(&Orchestrator::uncached(&xaas_container::ImageStore::new()));
    let cold = build(&tiered());
    // The sweep's 36 units lower to 9 IR files.
    let lowered = cold.trace.by_kind()[&ActionKind::IrLower];
    assert_eq!(lowered, 9);
    assert_eq!(keyed(&cold), (lowered, 0, 0));
    let warm = build(&tiered());
    assert_eq!(keyed(&warm), (0, 0, lowered));
    for other in [&uncached, &cold, &warm] {
        assert!(other
            .trace
            .records
            .iter()
            .all(|r| r.kind != ActionKind::OpenMpDetect));
        assert_eq!(other.image.layers, uncached.image.layers);
        assert_eq!(other.units, uncached.units);
    }
}

#[test]
fn store_gc_reclaims_orphans_but_keeps_the_warm_path_intact() {
    let root = ScratchRoot::new("gc");
    let systems = [SystemModel::ault23()];
    let (orch, images, _) = session(TierConfig::new().disk_root(root.path()), &systems);

    // Plant an unreachable blob in the store — an orphan only the sweep can
    // reclaim (no tag, no manifest, not an indexed cache output).
    let store = orch.store();
    let orphan = store.put_blob(b"orphaned intermediate".to_vec());
    assert!(store.has_blob(&orphan));

    let cache = orch.tiered_cache().expect("tiered backend");
    let report = cache.collect_garbage();
    assert!(report.blobs_removed > 0, "orphan blobs reclaimed");
    assert!(!store.has_blob(&orphan), "the planted orphan is gone");
    let disk = cache.disk_stats().expect("disk tier");
    assert!(disk.entries > 0, "disk tier untouched by store GC");

    // The live cache outputs were pinned: a warm rerun still serves every
    // keyed action from cache and reproduces the same images.
    let (project, pipeline) = gromacs_sweep();
    let build = IrBuildRequest::new(&project, &pipeline)
        .reference("tiers:gromacs:ir")
        .submit(&orch)
        .expect("IR container rebuilds");
    let rerun = FleetRequest::new(&build, &project)
        .targets(systems.iter().cloned().map(target_for))
        .submit(&orch);
    assert!(rerun.all_succeeded());
    assert_eq!(rerun.cache.misses, 0, "GC never invalidated a live entry");
    let rerun_images: Vec<Image> = rerun.deployments().map(|d| d.image.clone()).collect();
    assert_eq!(images, rerun_images, "byte-identical after the sweep");
}

#[test]
fn service_limits_cap_the_disk_tier_budget() {
    let root = ScratchRoot::new("svc-cap");
    // A tiny byte budget forces the disk tier to evict; the stack still works.
    let service = OrchestratorService::builder()
        .workers(2)
        .cache_tiers(TierConfig::new().disk(DiskTierConfig::new(root.path()).capacity_bytes(256)))
        .expect("tier stack initializes")
        .build();
    let (project, pipeline) = gromacs_sweep();
    let build = service
        .session("tenant")
        .submit(IrBuildRequest::new(&project, &pipeline).reference("cap:ir"))
        .expect("build succeeds under a capped disk tier");
    assert!(!build.image.layers.is_empty());
    let disk = service
        .orchestrator()
        .tiered_cache()
        .expect("tiered backend")
        .disk_stats()
        .expect("disk tier");
    assert!(
        disk.bytes <= 256 || disk.entries == 1,
        "budget respected up to the single-entry floor (bytes={}, entries={})",
        disk.bytes,
        disk.entries
    );
    assert!(disk.evictions > 0, "the tiny budget forced evictions");
}

/// One kind of damage a cache root can meet between two sessions.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// A crash mid-append (or a lost tail): `index.log` cut at a byte offset.
    CutJournal,
    /// A segment cut short inside one of its ranges.
    TruncateSegment,
    /// One byte of a segment range flipped.
    FlipRangeByte,
    /// A segment file removed behind the tier's back.
    DeleteSegment,
    /// A crashed owner's stale claim in `claims.log`, left on every key.
    StaleClaims,
}

/// Apply `fault` to the cache root, steering "which byte / which range" by
/// `pick`. Returns how many index entries it can cost: an upper bound on the
/// recomputes the next session may need.
fn inject(root: &std::path::Path, fault: Fault, pick: usize) -> u64 {
    use std::os::unix::fs::FileExt;
    let journal_path = root.join("index.log");
    let journal = std::fs::read_to_string(&journal_path).expect("journal exists");
    // Every `put` record's range: `(segment, offset, len)`.
    let ranges: Vec<(u32, u64, u64)> = journal
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            match fields[..] {
                ["put", _, _, len, segment, offset] => Some((
                    segment.parse().ok()?,
                    offset.parse().ok()?,
                    len.parse().ok()?,
                )),
                _ => None,
            }
        })
        .collect();
    let (segment, offset, len) = ranges[pick % ranges.len()];
    let path = root.join(format!("{segment}.seg"));
    let at = offset + (pick / ranges.len()) as u64 % len.max(1);
    // Records of the segment whose range `keep` leaves: those reaching past it.
    let cut_by = |keep: u64| {
        let reaching = |&&(s, o, l): &&(u32, u64, u64)| s == segment && o + l > keep;
        ranges.iter().filter(reaching).count() as u64
    };
    match fault {
        Fault::CutJournal => {
            let cut = pick % (journal.len() + 1);
            std::fs::write(&journal_path, &journal[..cut]).expect("journal rewritten");
            let whole_lines = journal[..cut].matches('\n').count() as u64;
            journal.lines().count() as u64 - whole_lines
        }
        Fault::TruncateSegment => {
            if let Ok(file) = std::fs::OpenOptions::new().write(true).open(&path) {
                file.set_len(at).expect("segment truncated");
            }
            cut_by(at)
        }
        Fault::FlipRangeByte => {
            if let Ok(file) = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
            {
                let mut byte = [0u8];
                if file.read_exact_at(&mut byte, at).is_ok() {
                    file.write_all_at(&[byte[0] ^ 0x40], at)
                        .expect("byte flipped");
                }
            }
            let holding = |&&(s, o, l): &&(u32, u64, u64)| s == segment && o <= at && at < o + l;
            ranges.iter().filter(holding).count() as u64
        }
        Fault::DeleteSegment => {
            let _ = std::fs::remove_file(&path);
            cut_by(0)
        }
        Fault::StaleClaims => {
            // Claimed at unix millisecond 0 by an owner that never released. (A
            // journal another fault already cut may end in a keyless fragment.)
            let claims: String = journal
                .lines()
                .filter_map(|line| line.split(' ').nth(1))
                .map(|key| format!("claim {key} 1 0\n"))
                .collect();
            let mut log = std::fs::OpenOptions::new();
            let log = log.append(true).create(true).open(root.join("claims.log"));
            std::io::Write::write_all(&mut log.expect("claims log opens"), claims.as_bytes())
                .expect("claims planted");
            0
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash-restart property: for any subset of the paper's fleet systems, a
    /// cold session followed by a kill + warm restart over the same disk root
    /// is byte-identical and recomputes nothing. When the root is then damaged
    /// (any set of [`Fault`]s), the next restart still does not panic and is
    /// byte-identical, recomputes at most what was damaged, and leaves a root
    /// the restart after it recomputes nothing from.
    #[test]
    fn crash_restart_is_byte_identical_with_zero_recomputes(
        mask in 1usize..16,
        faults in 0usize..32,
        pick in any::<usize>(),
    ) {
        let all = [
            SystemModel::ault23(),
            SystemModel::ault25(),
            SystemModel::ault01_04(),
            SystemModel::clariden(),
        ];
        let systems: Vec<SystemModel> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, s)| s.clone())
            .collect();
        let root = ScratchRoot::new("prop-restart");
        // A short claim timeout: a live claim left on a damaged key costs
        // milliseconds, not the 2 s default.
        let config = || {
            TierConfig::new()
                .disk(DiskTierConfig::new(root.path()).lock_timeout(Duration::from_millis(10)))
        };

        let (cold_orch, cold_images, _) = session(config(), &systems);
        prop_assert!(cold_orch.cache_stats().misses > 0);
        drop(cold_orch);

        let (warm_orch, warm_images, _) = session(config(), &systems);
        let warm = warm_orch.cache_stats();
        prop_assert_eq!(&cold_images, &warm_images);
        prop_assert_eq!(warm.misses, 0);
        prop_assert!(warm.disk_hits > 0);
        drop(warm_orch);

        let kinds = [
            Fault::CutJournal,
            Fault::TruncateSegment,
            Fault::FlipRangeByte,
            Fault::DeleteSegment,
            Fault::StaleClaims,
        ];
        let damaged: u64 = kinds
            .iter()
            .enumerate()
            .filter(|(bit, _)| faults & (1 << bit) != 0)
            .map(|(bit, &fault)| inject(root.path(), fault, pick.rotate_left(bit as u32 * 7)))
            .sum();
        let case = format!("mask={mask} faults={faults:#b} pick={pick} damaged={damaged}");

        let (hurt_orch, hurt_images, _) = session(config(), &systems);
        let hurt = hurt_orch.cache_stats();
        prop_assert_eq!(&cold_images, &hurt_images, "{}", case);
        prop_assert!(hurt.misses <= damaged, "{} recomputes; {case}", hurt.misses);
        drop(hurt_orch);

        let (healed_orch, healed_images, _) = session(config(), &systems);
        prop_assert_eq!(cold_images, healed_images, "{}", case);
        prop_assert_eq!(healed_orch.cache_stats().misses, 0, "the root healed itself; {}", case);
    }
}
