//! The experiment drivers, one per table/figure of the paper.

use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use xaas::prelude::*;
use xaas_apps::{gromacs, llamacpp, lulesh};
use xaas_buildsys::OptionAssignment;
use xaas_container::ImageStore;
use xaas_hpcsim::{
    discover, BandwidthModel, BuildProfile, ExecutionEngine, GpuBackend, LibraryQuality, MpiFlavor,
    SimdLevel, SystemModel, Workload,
};
use xaas_specs::{
    analyze, from_project, intersect, min_med_max, score, AnalysisConfig, MinMedMax, SimulatedLlm,
};

/// One bar of a timing figure.
#[derive(Debug, Clone, Serialize)]
pub struct TimingBar {
    /// Bar label (build variant).
    pub label: String,
    /// Compute time in seconds (I/O excluded, as in the paper's plots).
    pub compute_seconds: f64,
    /// I/O time in seconds (reported separately).
    pub io_seconds: f64,
    /// Whether the run used a GPU.
    pub used_gpu: bool,
}

/// A panel of a figure: one system (or device) with several bars.
#[derive(Debug, Clone, Serialize)]
pub struct FigurePanel {
    /// Panel title (system or device name plus workload).
    pub title: String,
    /// Bars in plot order.
    pub bars: Vec<TimingBar>,
}

/// Build an IR container through a fresh uncached orchestrator session over `store`
/// (the historical free-function shape of the experiments).
fn ir_build(
    project: &xaas_buildsys::ProjectSpec,
    config: &IrPipelineConfig,
    store: &ImageStore,
    reference: &str,
) -> Result<IrContainerBuild, IrPipelineError> {
    IrBuildRequest::new(project, config)
        .reference(reference)
        .submit(&Orchestrator::uncached(store))
}

/// Deploy an IR container through a fresh uncached orchestrator session over `store`.
fn ir_deploy(
    build: &IrContainerBuild,
    project: &xaas_buildsys::ProjectSpec,
    system: &SystemModel,
    selection: &OptionAssignment,
    simd: SimdLevel,
    store: &ImageStore,
) -> Result<IrDeployment, DeployError> {
    IrDeployRequest::new(build, project, system)
        .selection(selection.clone())
        .simd(simd)
        .submit(&Orchestrator::uncached(store))
}

fn run_bars(
    system: &SystemModel,
    workload: &Workload,
    profiles: &[BuildProfile],
) -> Vec<TimingBar> {
    let engine = ExecutionEngine::new(system);
    profiles
        .iter()
        .filter_map(|profile| {
            engine
                .execute(workload, profile)
                .ok()
                .map(|report| TimingBar {
                    label: profile.label.clone(),
                    compute_seconds: report.compute_seconds,
                    io_seconds: report.io_seconds,
                    used_gpu: report.used_gpu,
                })
        })
        .collect()
}

/// **Figure 2**: impact of vectorization on the MD workload, x86 (Xeon Gold 6130) and ARM
/// (GH200), 16 threads, 100 timesteps.
pub fn figure2() -> Vec<FigurePanel> {
    let workload = gromacs::figure2_workload();
    let mut panels = Vec::new();
    let x86 = SystemModel::ault23();
    let x86_levels = [
        SimdLevel::None,
        SimdLevel::Sse2,
        SimdLevel::Sse41,
        SimdLevel::Avx2_128,
        SimdLevel::Avx256,
        SimdLevel::Avx512,
    ];
    let profiles: Vec<BuildProfile> = x86_levels
        .iter()
        .map(|&level| BuildProfile::new(level.gmx_name(), level, 16))
        .collect();
    panels.push(FigurePanel {
        title: format!(
            "x86 Execution Time: {} (16 threads, 100 steps)",
            x86.cpu.name
        ),
        bars: run_bars(&x86, &workload, &profiles),
    });

    let arm = SystemModel::clariden();
    let arm_levels = [SimdLevel::None, SimdLevel::Sve, SimdLevel::NeonAsimd];
    let profiles: Vec<BuildProfile> = arm_levels
        .iter()
        .map(|&level| BuildProfile::new(level.gmx_name(), level, 16))
        .collect();
    panels.push(FigurePanel {
        title: format!(
            "ARM Execution Time: {} (16 threads, 100 steps)",
            arm.cpu.name
        ),
        bars: run_bars(&arm, &workload, &profiles),
    });
    panels
}

/// One row of Table 4.
#[derive(Debug, Clone, Serialize)]
pub struct Table4Row {
    /// Model name.
    pub model: String,
    /// Mean input tokens.
    pub tokens_in: f64,
    /// Mean output tokens.
    pub tokens_out: f64,
    /// Mean latency in seconds.
    pub time_seconds: f64,
    /// Mean cost in USD.
    pub cost_usd: f64,
    /// F1 min/median/max across runs.
    pub f1: MinMedMax,
    /// Precision min/median/max.
    pub precision: MinMedMax,
    /// Recall min/median/max.
    pub recall: MinMedMax,
}

/// **Table 4**: simulated-LLM discovery of the mini-GROMACS specialization points,
/// 10 runs per model, scored against the ground truth with normalisation.
pub fn table4(runs: u64) -> Vec<Table4Row> {
    let project = gromacs::project();
    let truth = from_project(&project);
    let config = AnalysisConfig {
        in_context_examples: true,
    };
    SimulatedLlm::catalog()
        .into_iter()
        .map(|model| {
            let mut f1 = Vec::new();
            let mut precision = Vec::new();
            let mut recall = Vec::new();
            let mut tokens_in = 0.0;
            let mut tokens_out = 0.0;
            let mut time = 0.0;
            let mut cost = 0.0;
            for run in 0..runs {
                let result = analyze(&model, &project.build_script, &truth, &config, run);
                let metrics = score(&result.document, &truth, true);
                f1.push(metrics.f1());
                precision.push(metrics.precision());
                recall.push(metrics.recall());
                tokens_in += result.tokens_in as f64;
                tokens_out += result.tokens_out as f64;
                time += result.latency_seconds;
                cost += result.cost_usd;
            }
            let n = runs.max(1) as f64;
            Table4Row {
                model: model.name.clone(),
                tokens_in: tokens_in / n,
                tokens_out: tokens_out / n,
                time_seconds: time / n,
                cost_usd: cost / n,
                f1: min_med_max(&f1),
                precision: min_med_max(&precision),
                recall: min_med_max(&recall),
            }
        })
        .collect()
}

/// One row of the Section 6.2 generalization experiment (llama.cpp, no in-context
/// examples): raw vs normalised F1.
#[derive(Debug, Clone, Serialize)]
pub struct GeneralizationRow {
    /// Model name.
    pub model: String,
    /// F1 without normalisation.
    pub f1_raw: MinMedMax,
    /// F1 with normalisation.
    pub f1_normalized: MinMedMax,
}

/// **Section 6.2, Generalization**: llama.cpp discovery without in-context examples.
pub fn table4_generalization(runs: u64) -> Vec<GeneralizationRow> {
    let project = llamacpp::project();
    let truth = from_project(&project);
    let config = AnalysisConfig {
        in_context_examples: false,
    };
    [
        "claude-3-7-sonnet-20250219",
        "gemini-flash-2-exp",
        "o3-mini-2025-01-31",
        "gpt-4o-2024-08-06",
    ]
    .iter()
    .filter_map(|name| SimulatedLlm::by_name(name))
    .map(|model| {
        let mut raw = Vec::new();
        let mut normalized = Vec::new();
        for run in 0..runs {
            let result = analyze(&model, &project.build_script, &truth, &config, run);
            raw.push(score(&result.document, &truth, false).f1());
            normalized.push(score(&result.document, &truth, true).f1());
        }
        GeneralizationRow {
            model: model.name.clone(),
            f1_raw: min_med_max(&raw),
            f1_normalized: min_med_max(&normalized),
        }
    })
    .collect()
}

/// **Figure 10**: GROMACS performance portability across Ault23, Aurora, and Clariden.
/// Test case A and B bars per build variant; the XaaS bar comes from an actual source-
/// container deployment.
pub fn figure10() -> Vec<FigurePanel> {
    let project = gromacs::project();
    let store = ImageStore::new();
    let mut panels = Vec::new();
    let cases: [(SystemModel, u32, u32); 3] = [
        (SystemModel::ault23(), 20_000, 1_000),
        (SystemModel::aurora(), 20_000, 1_000),
        (SystemModel::clariden(), 30_000, 3_000),
    ];
    for (system, steps_a, steps_b) in cases {
        let source_image = build_source_container(
            &project,
            xaas::source_container::architecture_of(&system),
            &store,
            &format!("spcl/mini-gromacs:src-{}", system.name.to_ascii_lowercase()),
        );
        let deployment = SourceDeployRequest::new(&project, &source_image, &system)
            .submit(&Orchestrator::uncached(&store))
            .expect("source deployment succeeds");
        let mut profiles =
            xaas_apps::make_executable(xaas_apps::gromacs_baselines(&system), &system);
        // Replace the static "XaaS Source" stand-in with the profile of the real deployment.
        if let Some(slot) = profiles.iter_mut().find(|p| p.label == "XaaS Source") {
            let mut deployed_profile = deployment.build_profile.clone();
            deployed_profile.label = "XaaS Source".into();
            *slot = deployed_profile;
        }
        for (case, steps) in [("A", steps_a), ("B", steps_b)] {
            let workload = if case == "A" {
                gromacs::workload_test_a(steps)
            } else {
                gromacs::workload_test_b(steps)
            };
            panels.push(FigurePanel {
                title: format!("{} (Test {case}, {steps} steps)", system.name),
                bars: run_bars(&system, &workload, &profiles),
            });
        }
    }
    panels
}

/// **Figure 11**: llama.cpp performance portability across the three systems.
pub fn figure11() -> Vec<FigurePanel> {
    let workload = llamacpp::benchmark_workload(512, 128);
    [
        SystemModel::ault23(),
        SystemModel::aurora(),
        SystemModel::clariden(),
    ]
    .into_iter()
    .map(|system| {
        let profiles = xaas_apps::make_executable(xaas_apps::llamacpp_baselines(&system), &system);
        FigurePanel {
            title: format!("{} — llama-bench pp512/tg128 (13B Q4)", system.name),
            bars: run_bars(&system, &workload, &profiles),
        }
    })
    .collect()
}

/// **Figure 12 (top)**: IR containers on CPU — the SSE4.1→AVX-512 sweep deployed from a
/// single IR container, compared against a portable and a specialized container.
///
/// Beside the panels it returns the action traces of two deployments of the same
/// project on the same system: the IR container lowered for AVX-512, and the source
/// container built from scratch. Their per-kind counts are Section 4.3.1's "much
/// faster than a complete compilation", stated as work instead of wall-clock.
pub fn figure12_cpu() -> (Vec<FigurePanel>, ActionTrace, ActionTrace) {
    let project = gromacs::project();
    let store = ImageStore::new();
    let system = SystemModel::ault01_04();
    let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"]).with_values(
        "GMX_SIMD",
        &["SSE4.1", "AVX2_128", "AVX_256", "AVX2_256", "AVX_512"],
    );
    let build = ir_build(&project, &pipeline, &store, "spcl/mini-gromacs:ir-x86")
        .expect("IR container builds");
    let levels = [
        SimdLevel::Sse41,
        SimdLevel::Avx2_128,
        SimdLevel::Avx256,
        SimdLevel::Avx2_256,
        SimdLevel::Avx512,
    ];
    let deployments: Vec<IrDeployment> = levels
        .iter()
        .map(|&level| {
            let selection = OptionAssignment::new().with("GMX_SIMD", level.gmx_name());
            ir_deploy(&build, &project, &system, &selection, level, &store)
                .expect("IR deployment succeeds")
        })
        .collect();
    let mut panels = Vec::new();
    for (case, threads, steps) in [("A", 1u32, 200u32), ("B", 36u32, 200u32)] {
        let workload = if case == "A" {
            gromacs::workload_test_a(steps)
        } else {
            gromacs::workload_test_b(steps)
        };
        let mut profiles: Vec<BuildProfile> = Vec::new();
        // Performance-oblivious portable container: lowest-common-denominator SIMD.
        profiles.push(
            BuildProfile::new("Portable Container", SimdLevel::Sse41, threads)
                .with_libraries(LibraryQuality::Generic, LibraryQuality::Generic)
                .with_container_overhead(1.01),
        );
        for deployment in &deployments {
            let mut profile = deployment.build_profile.clone();
            profile.label = format!("XaaS IR {}", deployment.simd.gmx_name());
            profile.threads = threads;
            profiles.push(profile);
        }
        // Hand-specialized container built directly for AVX-512.
        profiles.push(
            BuildProfile::new("Specialized Container", SimdLevel::Avx512, threads)
                .with_libraries(LibraryQuality::Vendor, LibraryQuality::Vendor)
                .with_container_overhead(1.01),
        );
        panels.push(FigurePanel {
            title: format!("CPU, Test {case}, {threads} core(s), {steps} steps (Ault01-04)"),
            bars: run_bars(&system, &workload, &profiles),
        });
    }
    let source_image = build_source_container(
        &project,
        xaas::source_container::architecture_of(&system),
        &store,
        "spcl/mini-gromacs:src-x86",
    );
    let from_source = SourceDeployRequest::new(&project, &source_image, &system)
        .submit(&Orchestrator::uncached(&store))
        .expect("source deployment succeeds");
    let from_ir = deployments.into_iter().last().expect("AVX-512 is deployed");
    (panels, from_ir.trace, from_source.trace)
}

/// **Figure 12 (bottom)**: IR containers with CUDA on V100 (Ault23) and A100 (Ault25):
/// Docker (specialized) vs XaaS IR deployment, tests A and B, I/O reported separately.
pub fn figure12_gpu() -> Vec<FigurePanel> {
    let project = gromacs::project();
    let store = ImageStore::new();
    let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD", "GMX_GPU"])
        .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"])
        .with_values("GMX_GPU", &["CUDA"]);
    let build = ir_build(&project, &pipeline, &store, "spcl/mini-gromacs:ir-cuda")
        .expect("IR container builds");
    let mut panels = Vec::new();
    for system in [SystemModel::ault23(), SystemModel::ault25()] {
        let simd = system.cpu.best_simd();
        let selection = OptionAssignment::new()
            .with("GMX_SIMD", simd.gmx_name())
            .with("GMX_GPU", "CUDA");
        // On Ault25 (EPYC without AVX-512) the IR container is deployed at AVX2_256,
        // which is not part of the sweep — fall back to the SSE4.1 configuration entry
        // and lower for the best ISA (the IR is shared anyway).
        let manifest_selection = if build.manifest_for(&selection).is_some() {
            selection
        } else {
            OptionAssignment::new()
                .with("GMX_SIMD", "SSE4.1")
                .with("GMX_GPU", "CUDA")
        };
        let deployment = ir_deploy(&build, &project, &system, &manifest_selection, simd, &store)
            .expect("GPU deployment succeeds");
        for (case, steps) in [("A", 20_000u32), ("B", 1_000u32)] {
            let workload = if case == "A" {
                gromacs::workload_test_a(steps)
            } else {
                gromacs::workload_test_b(steps)
            };
            let mut xaas_profile = deployment.build_profile.clone();
            xaas_profile.label = "XaaS IR".into();
            xaas_profile.threads = 16;
            // The Docker baseline is a hand-specialized CUDA container built with the same
            // FFT/BLAS stack as the IR deployment; only the build path differs.
            let docker = BuildProfile::new("Docker (specialized)", simd, 16)
                .with_gpu(GpuBackend::Cuda)
                .with_libraries(xaas_profile.blas, xaas_profile.fft)
                .with_container_overhead(1.01);
            panels.push(FigurePanel {
                title: format!("{} GPU, Test {case} ({steps} steps)", system.name),
                bars: run_bars(&system, &workload, &[docker, xaas_profile]),
            });
        }
    }
    panels
}

/// One row of the translation-unit reduction study (Section 6.4).
#[derive(Debug, Clone, Serialize)]
pub struct ReductionRow {
    /// Which sweep this row describes.
    pub sweep: String,
    /// Number of configurations.
    pub configurations: usize,
    /// Translation units across all configurations (ΣTᵢ).
    pub total_translation_units: usize,
    /// IR files actually built (T′).
    pub ir_files_built: usize,
    /// Reduction percentage.
    pub reduction_percent: f64,
    /// IR files that would be built with the vectorization-delay stage disabled.
    pub without_vectorization_delay: usize,
    /// IR files that would be built with the OpenMP-detection stage disabled.
    pub without_openmp_detection: usize,
}

/// **Section 6.4** — configurability and system dependency: the three GROMACS sweeps plus
/// the LULESH example, with per-stage ablations.
pub fn tu_reduction() -> Vec<ReductionRow> {
    let mut rows = Vec::new();
    let store = ImageStore::new();

    let mut run =
        |sweep_name: &str, project: &xaas_buildsys::ProjectSpec, config: IrPipelineConfig| {
            let full = ir_build(project, &config, &store, &format!("tu:{sweep_name}"))
                .expect("pipeline runs");
            let mut no_vec = config.clone();
            no_vec.stages.vectorization_delay = false;
            let without_vec = ir_build(project, &no_vec, &store, &format!("tu-novec:{sweep_name}"))
                .expect("pipeline runs");
            let mut no_omp = config.clone();
            no_omp.stages.openmp_detection = false;
            let without_omp = ir_build(project, &no_omp, &store, &format!("tu-noomp:{sweep_name}"))
                .expect("pipeline runs");
            rows.push(ReductionRow {
                sweep: sweep_name.to_string(),
                configurations: full.stats.configurations,
                total_translation_units: full.stats.total_translation_units,
                ir_files_built: full.stats.ir_files_built(),
                reduction_percent: full.stats.reduction_percent(),
                without_vectorization_delay: without_vec.stats.ir_files_built(),
                without_openmp_detection: without_omp.stats.ir_files_built(),
            });
        };

    let gromacs_project = gromacs::project();
    run(
        "GROMACS: 5 CPU ISAs",
        &gromacs_project,
        IrPipelineConfig::sweep_options(&gromacs_project, &["GMX_SIMD"]).with_values(
            "GMX_SIMD",
            &["SSE4.1", "AVX2_128", "AVX_256", "AVX2_256", "AVX_512"],
        ),
    );
    run(
        "GROMACS: CUDA x 2 vectorization",
        &gromacs_project,
        IrPipelineConfig::sweep_options(&gromacs_project, &["GMX_SIMD", "GMX_GPU"])
            .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"])
            .with_values("GMX_GPU", &["OFF", "CUDA"]),
    );
    run(
        "GROMACS: OpenMP x MPI",
        &gromacs_project,
        IrPipelineConfig::sweep_options(&gromacs_project, &["GMX_OPENMP", "GMX_MPI"]),
    );
    let lulesh_project = lulesh::project();
    run(
        "LULESH: MPI x OpenMP",
        &lulesh_project,
        IrPipelineConfig::sweep_options(&lulesh_project, &["WITH_MPI", "WITH_OPENMP"]),
    );
    rows
}

/// Per-system row of the fleet-specialization experiment.
#[derive(Debug, Clone, Serialize)]
pub struct FleetSystemRow {
    /// System name.
    pub system: String,
    /// SIMD level the system was specialized for.
    pub simd: String,
    /// Actions this system's *cold* deployment executed (empty per-deployment cache).
    pub cold_actions: usize,
    /// Actions this system's deployment executed inside the shared-cache fleet run.
    pub fleet_actions_executed: usize,
    /// Actions served from the shared cache for this system during the fleet run.
    pub fleet_actions_cached: usize,
}

/// The fleet-specialization experiment: one IR container served to the four paper
/// systems, comparing independent cold deployments against one concurrent
/// [`FleetRequest`] wave over a shared content-addressed action cache.
#[derive(Debug, Clone, Serialize)]
pub struct FleetExperiment {
    /// Per-system breakdown.
    pub systems: Vec<FleetSystemRow>,
    /// Total compile/lower actions across the four independent cold deployments.
    pub cold_actions: u64,
    /// Total actions the fleet run executed (shared-cache misses).
    pub fleet_actions: u64,
    /// Hit rate of the shared cache during the fleet run.
    pub fleet_hit_rate: f64,
    /// Actions executed when the same fleet is specialized again over the warm cache.
    pub warm_rerun_actions: u64,
    /// Hit rate of the warm rerun (1.0 when the cache fully absorbs the fleet).
    pub warm_rerun_hit_rate: f64,
    /// Distinct jobs the fleet ran (duplicate requests are deduplicated).
    pub jobs_executed: usize,
    /// Requests answered by a deduplicated job.
    pub jobs_deduplicated: usize,
    /// Bytes the content-addressed store deduplicated across all deployments.
    pub store_dedup_bytes: u64,
}

/// The fleet both system experiments specialize: the SIMD sweep of the GROMACS IR
/// container and the four paper systems, each at its best SIMD level.
fn gromacs_fleet(project: &xaas_buildsys::ProjectSpec) -> (IrPipelineConfig, Vec<FleetTarget>) {
    let pipeline = IrPipelineConfig::sweep_options(project, &["GMX_SIMD"]).with_values(
        "GMX_SIMD",
        &["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"],
    );
    let targets = [
        SystemModel::ault23(),
        SystemModel::ault25(),
        SystemModel::ault01_04(),
        SystemModel::clariden(),
    ]
    .into_iter()
    .map(|system| {
        let simd = system.cpu.best_simd();
        let selection = OptionAssignment::new().with("GMX_SIMD", simd.gmx_name());
        FleetTarget::new(system, selection, simd)
    })
    .collect();
    (pipeline, targets)
}

/// **Fleet specialization** (the production shape behind Figures 8 and 12): build the
/// GROMACS IR container once, then specialize it for Ault23, Ault25, Ault01-04, and
/// Clariden. Cold = four independent deployments, each with an empty action cache;
/// fleet = the concurrent work-queue specializer sharing one cache (systems with a
/// common ISA share every lowered artifact); warm rerun = the same fleet again, fully
/// served from the cache.
pub fn fleet_specialization() -> FleetExperiment {
    let project = gromacs::project();
    let store = ImageStore::new();
    let (pipeline, requests) = gromacs_fleet(&project);
    let build = ir_build(&project, &pipeline, &store, "spcl/mini-gromacs:ir-fleet")
        .expect("IR container builds");

    // Cold baseline: every system deploys with its own empty action cache.
    let cold: Vec<IrDeployment> = requests
        .iter()
        .map(|request| {
            ir_deploy(
                &build,
                &project,
                &request.system,
                &request.selection,
                request.simd,
                &store,
            )
            .expect("cold deployment succeeds")
        })
        .collect();
    let cold_actions: u64 = cold.iter().map(|d| d.actions.executed as u64).sum();

    // Fleet run: shared cache, deduplicated jobs, and a pinned worker count so
    // nothing the experiment reports depends on the host.
    let orch = Orchestrator::builder()
        .action_cache(ActionCache::new(store.clone()))
        .workers(4)
        .build();
    let fleet = || {
        FleetRequest::new(&build, &project)
            .targets(requests.iter().cloned())
            .submit(&orch)
    };
    let report = fleet();
    assert!(report.all_succeeded(), "fleet specialization succeeds");
    let fleet_stats = report.cache;

    // Warm rerun: the cache already holds every action of the fleet (report counters
    // are per-run deltas, so no stat reset is needed).
    let rerun = fleet();
    assert!(rerun.all_succeeded(), "warm rerun succeeds");
    let rerun_stats = rerun.cache;

    let systems = requests
        .iter()
        .zip(cold.iter())
        .zip(report.outcomes.iter())
        .map(|((request, cold_deployment), outcome)| {
            let fleet_actions = outcome
                .deployment
                .as_ref()
                .map(|d| d.actions)
                .unwrap_or_default();
            FleetSystemRow {
                system: request.system.name.clone(),
                simd: request.simd.gmx_name().to_string(),
                cold_actions: cold_deployment.actions.executed,
                fleet_actions_executed: fleet_actions.executed,
                fleet_actions_cached: fleet_actions.cached,
            }
        })
        .collect();

    FleetExperiment {
        systems,
        cold_actions,
        fleet_actions: fleet_stats.misses,
        fleet_hit_rate: fleet_stats.hit_rate(),
        warm_rerun_actions: rerun_stats.misses,
        warm_rerun_hit_rate: rerun_stats.hit_rate(),
        jobs_executed: report.jobs_executed,
        jobs_deduplicated: report.jobs_deduplicated,
        store_dedup_bytes: store.dedup_bytes(),
    }
}

/// A unique scratch path under the OS temp dir (no `tempfile` dependency: pid +
/// process-local counter keep concurrent invocations apart).
fn scratch_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xaas-bench-{tag}-{}-{n}", std::process::id()))
}

/// A scratch directory that is empty when the guard is created — whatever a killed
/// run with a recycled pid left at the path is removed — and gone when it drops,
/// panics included.
struct ScratchRoot(PathBuf);

impl ScratchRoot {
    fn at(path: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The warm-restart experiment: what the persistent disk tier buys across an
/// orchestrator's death and rebirth.
#[derive(Debug, Clone, Serialize)]
pub struct WarmRestartExperiment {
    /// Compile/lower actions the cold session executed (cache misses).
    pub cold_actions: u64,
    /// Compile/lower actions the warm session re-executed — the headline claim
    /// is that this is **zero**: every keyed action is served from disk.
    pub warm_recomputes: u64,
    /// Warm-session hits served by the disk tier (first touch of each key).
    pub warm_disk_hits: u64,
    /// Warm-session hits served from memory (keys already promoted from disk).
    pub warm_memory_hits: u64,
    /// Disk-tier share of all warm-session lookups.
    pub disk_hit_ratio: f64,
    /// Whether every per-target image matched the cold session's byte for byte.
    pub byte_identical: bool,
    /// Keys the disk tier held when the cold session exited.
    pub disk_entries: usize,
    /// Blob bytes the disk tier held when the cold session exited.
    pub disk_bytes: u64,
    /// Index entries the damage before the third session can cost: the record
    /// the journal cut tore, plus every record naming the truncated blob.
    pub damaged_entries: u64,
    /// Compile/lower actions the session over the damaged root re-executed.
    pub damaged_recomputes: u64,
    /// Whether the damaged session's images still matched the cold session's.
    pub damaged_byte_identical: bool,
}

impl WarmRestartExperiment {
    /// The experiment's claim: an intact root replays byte-identically with zero
    /// recomputes, and a damaged one byte-identically at the cost of no more
    /// than what was damaged — never a wrong artifact.
    pub fn holds(&self) -> bool {
        self.byte_identical
            && self.warm_recomputes == 0
            && self.damaged_byte_identical
            && self.damaged_recomputes <= self.damaged_entries
    }
}

/// **Warm restart** (the tiered-cache claim): specialize the GROMACS fleet on an
/// orchestrator whose action cache persists through an on-disk CAS tier, *kill*
/// the orchestrator (drop it — the in-memory L1 dies with it), recreate one over
/// the same cache root, and replay the identical IR build + fleet. The replay
/// must produce byte-identical images with zero compile/lower actions
/// re-executed, every keyed action read through the disk tier. A third session
/// then runs over the same root *damaged* — one blob truncated, the journal cut
/// mid-record — and must still be byte-identical, recomputing only what the
/// damage cost.
pub fn warm_restart() -> WarmRestartExperiment {
    let root = ScratchRoot::at(scratch_path("warm-restart"));
    warm_restart_over(&root.0)
}

/// [`warm_restart`] over `root`, which it expects empty and leaves populated.
fn warm_restart_over(root: &Path) -> WarmRestartExperiment {
    let project = gromacs::project();
    let (pipeline, targets) = gromacs_fleet(&project);

    // One full session: fresh orchestrator over the shared disk root, IR build,
    // fleet wave. Returns the per-target images and the session's orchestrator
    // so the caller can read tier stats before dropping it.
    let session = |label: &str| {
        let orch = Orchestrator::builder()
            .workers(4)
            .cache_tiers(xaas_container::TierConfig::new().disk_root(root))
            .expect("tier stack initializes")
            .build();
        let build = IrBuildRequest::new(&project, &pipeline)
            .reference("spcl/mini-gromacs:ir-restart")
            .submit(&orch)
            .expect("IR container builds");
        let report = FleetRequest::new(&build, &project)
            .targets(targets.iter().cloned())
            .submit(&orch);
        assert!(report.all_succeeded(), "{label} fleet succeeds");
        let images: Vec<_> = report.deployments().map(|d| d.image.clone()).collect();
        (orch, images)
    };

    let (cold_orch, cold_images) = session("cold");
    let cold_stats = cold_orch.cache_stats();
    let (disk_entries, disk_bytes) = cold_orch
        .tiered_cache()
        .and_then(|t| t.disk_stats())
        .map(|d| (d.entries, d.bytes))
        .unwrap_or_default();
    // Kill the orchestrator: the in-memory L1 and store die with it. Only the
    // disk tier under `root` survives.
    drop(cold_orch);

    let (warm_orch, warm_images) = session("warm");
    let warm_stats = warm_orch.cache_stats();
    let byte_identical = cold_images == warm_images;
    drop(warm_orch);

    // Damage the root the way a crash and a bad disk would: tear the journal's
    // last record, and cut the blob its first record names down to half.
    let journal_path = root.join("index.log");
    let journal = std::fs::read_to_string(&journal_path).expect("the journal is readable");
    std::fs::write(&journal_path, &journal[..journal.len() - 10]).expect("journal cut");
    fn content(record: &str) -> Option<&str> {
        record.split(' ').nth(2)
    }
    let victim = journal.lines().next().and_then(content);
    let blob = victim.expect("a put record").trim_start_matches("sha256:");
    let blob = root.join("blobs").join(blob);
    let bytes = std::fs::read(&blob).expect("the blob is readable");
    std::fs::write(&blob, &bytes[..bytes.len() / 2]).expect("blob truncated");
    let damaged_entries = 1 + journal.lines().filter(|r| content(r) == victim).count() as u64;

    let (damaged_orch, damaged_images) = session("damaged");
    let damaged_stats = damaged_orch.cache_stats();
    drop(damaged_orch);

    WarmRestartExperiment {
        cold_actions: cold_stats.misses,
        warm_recomputes: warm_stats.misses,
        warm_disk_hits: warm_stats.disk_hits,
        warm_memory_hits: warm_stats.memory_hits(),
        disk_hit_ratio: warm_stats.tier_hit_ratio(xaas_container::CacheTier::Disk),
        byte_identical,
        disk_entries,
        disk_bytes,
        damaged_entries,
        damaged_recomputes: damaged_stats.misses,
        damaged_byte_identical: cold_images == damaged_images,
    }
}

/// One row of the Section 6.5 network comparison.
#[derive(Debug, Clone, Serialize)]
pub struct NetworkRow {
    /// Configuration label.
    pub configuration: String,
    /// Peak intra-node bandwidth in GB/s.
    pub peak_bandwidth_gbs: f64,
    /// Bandwidth at 1 MiB messages.
    pub bandwidth_1mib_gbs: f64,
    /// Bandwidth at 1 GiB messages.
    pub bandwidth_1gib_gbs: f64,
}

/// **Section 6.5**: intra-node bandwidth of bare-metal Cray MPICH, containerized MPI via
/// the cxi libfabric replacement, and the LinkX provider, on a Clariden-like GH200 node.
pub fn network() -> Vec<NetworkRow> {
    let model = BandwidthModel::default();
    let configurations = [
        (
            "Bare-metal Cray-MPICH (shm)",
            MpiFlavor::CrayMpich,
            false,
            false,
        ),
        (
            "Container MPICH via cxi",
            MpiFlavor::ContainerMpich,
            true,
            false,
        ),
        (
            "Container OpenMPI via cxi",
            MpiFlavor::ContainerOpenMpi,
            true,
            false,
        ),
        (
            "Container MPICH via LinkX",
            MpiFlavor::ContainerMpich,
            true,
            true,
        ),
        (
            "Container OpenMPI via LinkX",
            MpiFlavor::ContainerOpenMpi,
            true,
            true,
        ),
    ];
    configurations
        .iter()
        .map(|(label, flavor, containerized, linkx)| NetworkRow {
            configuration: label.to_string(),
            peak_bandwidth_gbs: model.peak_bandwidth(*flavor, *containerized, *linkx),
            bandwidth_1mib_gbs: model.bandwidth_at(*flavor, *containerized, *linkx, 1 << 20),
            bandwidth_1gib_gbs: model.bandwidth_at(*flavor, *containerized, *linkx, 1 << 30),
        })
        .collect()
}

/// GPU compatibility matrix (Figure 9): which shipped device-code bundles run on which
/// devices, and how.
#[derive(Debug, Clone, Serialize)]
pub struct GpuCompatRow {
    /// Bundle description.
    pub bundle: String,
    /// Device name.
    pub device: String,
    /// Outcome (`native`, `jit-from-ptx`, `incompatible`).
    pub outcome: String,
}

/// **Figure 9 / Section 4.3**: CUDA compatibility of the XaaS device-code bundle.
pub fn gpu_compatibility() -> Vec<GpuCompatRow> {
    use xaas_hpcsim::{GpuCompatibility, GpuModel, Version};
    let devices = [
        GpuModel::nvidia_v100(),
        GpuModel::nvidia_a100(),
        GpuModel::nvidia_gh200(),
    ];
    let bundle = plan_bundle(
        RuntimeRequirement::AnyMinorVersion,
        &[GpuModel::nvidia_v100(), GpuModel::nvidia_a100()],
        Version::new(12, 8),
    );
    devices
        .iter()
        .map(|device| {
            let outcome = match bundle_compatibility(&bundle, device) {
                GpuCompatibility::Native => "native".to_string(),
                GpuCompatibility::JitFromPtx => "jit-from-ptx".to_string(),
                GpuCompatibility::Incompatible(reason) => format!("incompatible ({reason})"),
            };
            GpuCompatRow {
                bundle: format!(
                    "cubins sm_70+sm_80, PTX compute_80, CUDA {}",
                    bundle.runtime
                ),
                device: device.name.clone(),
                outcome,
            }
        })
        .collect()
}

/// **Figure 4(c)**: intersection of the mini-GROMACS specialization points with the
/// discovered features of every evaluation system.
pub fn intersection_summary() -> BTreeMap<String, Vec<String>> {
    let project = gromacs::project();
    let document = from_project(&project);
    let mut summary = BTreeMap::new();
    for system in SystemModel::all_evaluation_systems() {
        let features = discover(&system);
        let common = intersect(&document, &features);
        let mut lines = Vec::new();
        lines.push(format!(
            "GPU backends: {}",
            join(common.choices(xaas_specs::SpecCategory::GpuBackend))
        ));
        lines.push(format!(
            "Vectorization: {}",
            join(common.choices(xaas_specs::SpecCategory::Vectorization))
        ));
        lines.push(format!(
            "FFT: {}",
            join(common.choices(xaas_specs::SpecCategory::Fft))
        ));
        lines.push(format!(
            "Excluded: {}",
            common
                .excluded
                .iter()
                .map(|e| format!("{} ({})", e.name, e.reason))
                .collect::<Vec<_>>()
                .join("; ")
        ));
        summary.insert(system.name.clone(), lines);
    }
    summary
}

fn join(items: Vec<&str>) -> String {
    if items.is_empty() {
        "none".to_string()
    } else {
        items.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_shapes_hold() {
        let panels = figure2();
        assert_eq!(panels.len(), 2);
        let x86 = &panels[0].bars;
        assert!(
            x86[0].compute_seconds > 4.0 * x86[1].compute_seconds,
            "None >> SSE2"
        );
        assert!(
            x86.last().unwrap().compute_seconds < x86[1].compute_seconds,
            "AVX-512 fastest"
        );
        let arm = &panels[1].bars;
        assert!(arm[0].compute_seconds > 2.5 * arm[1].compute_seconds);
        assert!(
            arm[2].compute_seconds < arm[1].compute_seconds,
            "NEON beats SVE on Grace"
        );
    }

    #[test]
    fn table4_has_seven_models_with_sane_metrics() {
        let rows = table4(5);
        assert_eq!(rows.len(), 7);
        for row in &rows {
            assert!(row.f1.max <= 1.0 && row.f1.min >= 0.0);
            assert!(row.cost_usd > 0.0);
            assert!(row.tokens_in > 0.0);
        }
        let gemini = rows
            .iter()
            .find(|r| r.model.contains("gemini-flash-2"))
            .unwrap();
        let haiku = rows.iter().find(|r| r.model.contains("haiku")).unwrap();
        assert!(gemini.f1.median > haiku.f1.median);
    }

    #[test]
    fn generalization_normalization_helps() {
        let rows = table4_generalization(5);
        assert!(!rows.is_empty());
        for row in rows {
            assert!(row.f1_normalized.median >= row.f1_raw.median);
        }
    }

    #[test]
    fn figure11_xaas_matches_specialized_and_beats_naive() {
        let panels = figure11();
        assert_eq!(panels.len(), 3);
        for panel in panels {
            let get = |label: &str| {
                panel
                    .bars
                    .iter()
                    .find(|b| b.label == label)
                    .map(|b| b.compute_seconds)
                    .unwrap_or(f64::NAN)
            };
            let naive = get("Naive Build");
            let specialized = get("Specialized");
            let xaas = get("XaaS Source Container");
            assert!(naive > 1.5 * specialized, "{}", panel.title);
            assert!((xaas / specialized - 1.0).abs() < 0.05, "{}", panel.title);
        }
    }

    #[test]
    fn figure12_cpu_specialization_beats_portable_by_about_2x() {
        let (panels, from_ir, from_source) = figure12_cpu();
        assert_eq!(panels.len(), 2);
        for panel in &panels {
            let portable = panel.bars.first().unwrap();
            let best_ir = panel
                .bars
                .iter()
                .filter(|b| b.label.starts_with("XaaS IR"))
                .map(|b| b.compute_seconds)
                .fold(f64::INFINITY, f64::min);
            let ratio = portable.compute_seconds / best_ir;
            assert!(
                ratio > 1.4,
                "{}: IR specialization should win by >1.4x, got {ratio}",
                panel.title
            );
            // The specialized container and the best IR deployment are equivalent.
            let specialized = panel.bars.last().unwrap().compute_seconds;
            assert!((best_ir / specialized - 1.0).abs() < 0.1, "{}", panel.title);
        }
        // Section 4.3.1: deploying the IR container lowers every TU and compiles none
        // from source, where the source container compiles each one.
        let (ir, source) = (from_ir.by_kind(), from_source.by_kind());
        assert_eq!(
            (
                ir.get(&ActionKind::SdCompile),
                ir[&ActionKind::MachineLower],
                source[&ActionKind::SdCompile]
            ),
            (None, 9, 9)
        );
    }

    #[test]
    fn figure12_gpu_docker_and_xaas_ir_are_equivalent() {
        let panels = figure12_gpu();
        assert_eq!(panels.len(), 4);
        for panel in panels {
            let docker = panel.bars[0].compute_seconds;
            let xaas_time = panel.bars[1].compute_seconds;
            assert!((xaas_time / docker - 1.0).abs() < 0.05, "{}", panel.title);
            assert!(panel.bars.iter().all(|b| b.used_gpu), "{}", panel.title);
        }
    }

    #[test]
    fn tu_reduction_rows_reproduce_hypothesis_1() {
        let rows = tu_reduction();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(
                row.ir_files_built < row.total_translation_units,
                "{}",
                row.sweep
            );
            assert!(
                row.without_vectorization_delay >= row.ir_files_built,
                "{}",
                row.sweep
            );
            assert!(
                row.without_openmp_detection >= row.ir_files_built,
                "{}",
                row.sweep
            );
        }
        let isa_sweep = &rows[0];
        assert!(isa_sweep.reduction_percent > 60.0);
    }

    #[test]
    fn fleet_specialization_beats_cold_deployments() {
        let experiment = fleet_specialization();
        assert_eq!(experiment.systems.len(), 4);
        assert!(
            experiment.fleet_actions < experiment.cold_actions,
            "shared cache must perform strictly fewer actions: fleet {} vs cold {}",
            experiment.fleet_actions,
            experiment.cold_actions
        );
        assert!(experiment.fleet_hit_rate > 0.0 && experiment.fleet_hit_rate < 1.0);
        assert_eq!(
            experiment.warm_rerun_actions, 0,
            "warm fleet compiles nothing"
        );
        assert!((experiment.warm_rerun_hit_rate - 1.0).abs() < 1e-12);
        assert_eq!(experiment.jobs_executed, 4);
        assert_eq!(experiment.jobs_deduplicated, 0);
        // Ault23 and Ault01-04 share AVX-512: at least one of them is fully cached
        // except for its system-dependent sources.
        let avx512: Vec<_> = experiment
            .systems
            .iter()
            .filter(|row| row.simd == "AVX_512")
            .collect();
        assert_eq!(avx512.len(), 2);
        assert!(avx512.iter().any(|row| row.fleet_actions_cached > 0));
    }

    #[test]
    fn warm_restart_starts_cold_over_a_root_a_killed_run_left_behind() {
        // A run killed before its cleanup leaves a populated root at the path.
        let stale = ScratchRoot::at(scratch_path("killed-run"));
        assert!(warm_restart_over(&stale.0).holds());
        assert!(stale.0.join("index.log").exists());
        // The next run to draw the same path (a recycled pid) must not start warm.
        let root = ScratchRoot::at(stale.0.clone());
        let experiment = warm_restart_over(&root.0);
        assert_eq!(experiment.cold_actions, 36);
        assert!(experiment.holds(), "{experiment:?}");
        drop(root);
        assert!(!stale.0.exists(), "the guard removes the root on drop");
    }

    #[test]
    fn network_rows_match_section_6_5() {
        let rows = network();
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.configuration.contains(label))
                .unwrap()
        };
        assert!((get("Bare-metal").peak_bandwidth_gbs - 64.0).abs() < 1e-9);
        assert!((get("OpenMPI via cxi").peak_bandwidth_gbs - 23.5).abs() < 1e-9);
        assert!(get("OpenMPI via LinkX").peak_bandwidth_gbs > 64.0);
    }

    #[test]
    fn gpu_compat_and_intersection_summaries() {
        let compat = gpu_compatibility();
        assert_eq!(compat.len(), 3);
        assert!(compat.iter().any(|r| r.outcome == "jit-from-ptx"));
        let summary = intersection_summary();
        assert!(summary["Ault23"].iter().any(|l| l.contains("CUDA")));
        assert!(summary["Aurora"].iter().any(|l| l.contains("SYCL")));
    }
}
