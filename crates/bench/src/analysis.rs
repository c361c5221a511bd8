//! `reproduce analyze` — the pre-submission static analyzer run over the real
//! driver graphs (GROMACS and LULESH IR builds, IR deployments and a fleet wave,
//! llama.cpp and GROMACS source deployments), emitting every report as JSON.

use serde::Serialize;
use xaas::engine::AnalysisReport;
use xaas::prelude::*;
use xaas::source_container::architecture_of;
use xaas_apps::{gromacs, llamacpp, lulesh};
use xaas_buildsys::OptionAssignment;
use xaas_container::{ActionCache, ImageStore};
use xaas_hpcsim::{SimdLevel, SystemModel};

/// One linted driver graph: the target it came from and the full report.
#[derive(Debug, Clone, Serialize)]
pub struct LintedGraph {
    /// Which driver graph was linted (e.g. `gromacs ir-build stage-A`).
    pub target: String,
    /// Nodes in the analyzed graph.
    pub nodes: usize,
    /// Deny-level diagnostics (nonzero fails `reproduce analyze`).
    pub denies: usize,
    /// Warn-level diagnostics.
    pub warnings: usize,
    /// Note-level diagnostics.
    pub notes: usize,
    /// The full typed report.
    pub report: AnalysisReport,
}

/// The `reproduce analyze` section: every driver graph's lint verdict.
#[derive(Debug, Clone, Serialize)]
pub struct AnalyzeSection {
    /// Per-graph reports.
    pub graphs: Vec<LintedGraph>,
    /// Deny-level diagnostics across all graphs.
    pub total_denies: usize,
    /// Whether every driver graph is free of deny-level diagnostics.
    pub clean: bool,
}

fn lint(target: &str, report: AnalysisReport) -> LintedGraph {
    LintedGraph {
        target: target.to_string(),
        nodes: report.nodes,
        denies: report.denies(),
        warnings: report.warnings(),
        notes: report.notes(),
        report,
    }
}

/// Lint the driver graphs — GROMACS and LULESH IR-build stage-A, an IR deployment
/// per application, a two-system GROMACS fleet wave, and the llama.cpp/Ault23 and
/// GROMACS/Clariden source deployments. The builds themselves execute once
/// (deploy/fleet lints need a built IR container); every `analyze` call is
/// purely static.
pub fn analyze_driver_graphs() -> AnalyzeSection {
    let orch = Orchestrator::with_cache(&ActionCache::new(ImageStore::new()));

    let lulesh_project = lulesh::project();
    let lulesh_config =
        IrPipelineConfig::sweep_options(&lulesh_project, &["WITH_MPI", "WITH_OPENMP"]);
    let gromacs_project = gromacs::project();
    let gromacs_config = IrPipelineConfig::sweep_options(&gromacs_project, &["GMX_SIMD"])
        .with_values("GMX_SIMD", &["SSE4.1", "AVX2_256", "AVX_512"]);

    let mut graphs = Vec::new();
    graphs.push(lint(
        "lulesh ir-build stage-A",
        IrBuildRequest::new(&lulesh_project, &lulesh_config)
            .analyze(&orch)
            .expect("lulesh stage-A plans"),
    ));
    graphs.push(lint(
        "gromacs ir-build stage-A",
        IrBuildRequest::new(&gromacs_project, &gromacs_config)
            .analyze(&orch)
            .expect("gromacs stage-A plans"),
    ));

    let lulesh_build = IrBuildRequest::new(&lulesh_project, &lulesh_config)
        .reference("analyze:lulesh:ir")
        .submit(&orch)
        .expect("lulesh IR container builds");
    let gromacs_build = IrBuildRequest::new(&gromacs_project, &gromacs_config)
        .reference("analyze:gromacs:ir")
        .submit(&orch)
        .expect("gromacs IR container builds");

    graphs.push(lint(
        "lulesh ir-deploy (ault23)",
        IrDeployRequest::new(&lulesh_build, &lulesh_project, &SystemModel::ault23())
            .select("WITH_MPI", "ON")
            .select("WITH_OPENMP", "ON")
            .analyze(&orch)
            .expect("lulesh deploy plans"),
    ));
    graphs.push(lint(
        "gromacs ir-deploy (ault23, AVX-512)",
        IrDeployRequest::new(&gromacs_build, &gromacs_project, &SystemModel::ault23())
            .selection(OptionAssignment::new().with("GMX_SIMD", SimdLevel::Avx512.gmx_name()))
            .simd(SimdLevel::Avx512)
            .analyze(&orch)
            .expect("gromacs deploy plans"),
    ));
    graphs.push(lint(
        "gromacs fleet union wave (ault23 + ault25)",
        FleetRequest::new(&gromacs_build, &gromacs_project)
            .target(FleetTarget::new(
                SystemModel::ault23(),
                OptionAssignment::new().with("GMX_SIMD", SimdLevel::Avx512.gmx_name()),
                SimdLevel::Avx512,
            ))
            .target(FleetTarget::new(
                SystemModel::ault25(),
                OptionAssignment::new().with("GMX_SIMD", SimdLevel::Avx2_256.gmx_name()),
                SimdLevel::Avx2_256,
            ))
            .analyze(&orch)
            .expect("fleet wave plans"),
    ));

    for (target, project, system) in [
        (
            "llamacpp source-deploy (ault23)",
            llamacpp::project(),
            SystemModel::ault23(),
        ),
        (
            "gromacs source-deploy (clariden)",
            gromacs_project.clone(),
            SystemModel::clariden(),
        ),
    ] {
        let image =
            build_source_container(&project, architecture_of(&system), orch.store(), target);
        graphs.push(lint(
            target,
            SourceDeployRequest::new(&project, &image, &system)
                .analyze(&orch)
                .expect("source deploy plans"),
        ));
    }

    let total_denies = graphs.iter().map(|g| g.denies).sum();
    AnalyzeSection {
        graphs,
        total_denies,
        clean: total_denies == 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_driver_graphs_are_deny_free() {
        let section = analyze_driver_graphs();
        assert!(
            section.clean,
            "driver graphs must stay deny-free: {:?}",
            section
                .graphs
                .iter()
                .filter(|g| g.denies > 0)
                .map(|g| &g.target)
                .collect::<Vec<_>>()
        );
        assert!(section.graphs.iter().all(|g| g.nodes > 0));
    }
}
