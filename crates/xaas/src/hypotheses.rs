//! Validation of the paper's two hypotheses (Section 4.2).
//!
//! * **Hypothesis 1**: across N configurations the number of *distinct* IR files T′ is
//!   smaller than the sum of per-configuration translation units ΣTᵢ.
//! * **Hypothesis 2**: applications decompose into system-independent (S_I) and
//!   system-dependent (S_D) source files with |S_I| ≫ |S_D| — otherwise building the IR
//!   pipeline would not be worth it and source containers are the better fallback.

use crate::ir_container::PipelineStats;
use xaas_buildsys::ProjectSpec;

/// Result of checking Hypothesis 1 on a pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hypothesis1Report {
    /// ΣTᵢ: translation units summed over all configurations.
    pub total_translation_units: usize,
    /// T′: distinct IR files actually built.
    pub distinct_ir_files: usize,
    /// Reduction in percent.
    pub reduction_percent: f64,
    /// Whether the hypothesis holds (T′ < ΣTᵢ).
    pub holds: bool,
}

/// Check Hypothesis 1 against pipeline statistics.
pub fn hypothesis1(stats: &PipelineStats) -> Hypothesis1Report {
    let total = stats.total_translation_units;
    let distinct = stats.ir_files_built() + stats.system_dependent_files;
    Hypothesis1Report {
        total_translation_units: total,
        distinct_ir_files: stats.ir_files_built(),
        reduction_percent: stats.reduction_percent(),
        holds: stats.configurations > 1 && distinct < total,
    }
}

/// Result of checking Hypothesis 2 on a project.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hypothesis2Report {
    /// Number of system-independent source files (compilable to shared IR).
    pub system_independent: usize,
    /// Number of system-dependent source files (built only with MPI).
    pub system_dependent: usize,
    /// |S_I| / (|S_I| + |S_D|).
    pub independent_fraction: f64,
    /// Whether the hypothesis holds (at least 2/3 of the files are system-independent).
    pub holds: bool,
}

/// Classify a project's sources into S_I and S_D and check Hypothesis 2.
///
/// A source is system-dependent as the IR build classifies it
/// ([`SourceSpec::is_system_dependent`](xaas_buildsys::SourceSpec::is_system_dependent)).
pub fn hypothesis2(project: &ProjectSpec) -> Hypothesis2Report {
    let mut system_dependent = 0usize;
    let mut system_independent = 0usize;
    for source in &project.sources {
        if source.is_system_dependent() {
            system_dependent += 1;
        } else {
            system_independent += 1;
        }
    }
    let total = (system_dependent + system_independent).max(1);
    let independent_fraction = system_independent as f64 / total as f64;
    Hypothesis2Report {
        system_independent,
        system_dependent,
        independent_fraction,
        holds: independent_fraction >= 2.0 / 3.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir_container::IrPipelineConfig;
    use crate::orchestrator::{IrBuildRequest, Orchestrator};
    use xaas_apps::{gromacs, llamacpp, lulesh};
    use xaas_container::ImageStore;

    #[test]
    fn hypothesis1_holds_for_the_lulesh_sweep() {
        let project = lulesh::project();
        let store = ImageStore::new();
        let config = IrPipelineConfig::sweep_options(&project, &["WITH_MPI", "WITH_OPENMP"]);
        let build = IrBuildRequest::new(&project, &config)
            .reference("l:ir")
            .submit(&Orchestrator::uncached(&store))
            .unwrap();
        let report = hypothesis1(&build.stats);
        assert!(report.holds);
        assert!(report.reduction_percent > 30.0);
        assert!(report.distinct_ir_files < report.total_translation_units);
    }

    #[test]
    fn hypothesis1_does_not_claim_reduction_for_a_single_configuration() {
        let project = lulesh::project();
        let store = ImageStore::new();
        let mut config = IrPipelineConfig::sweep_options(&project, &[]);
        config.sweep.clear();
        let build = IrBuildRequest::new(&project, &config)
            .reference("l:single")
            .submit(&Orchestrator::uncached(&store))
            .unwrap();
        let report = hypothesis1(&build.stats);
        assert!(
            !report.holds,
            "a single configuration offers nothing to share"
        );
    }

    #[test]
    fn hypothesis2_holds_for_all_three_applications() {
        for (name, project) in [
            ("gromacs", gromacs::project()),
            ("lulesh", lulesh::project()),
            ("llamacpp", llamacpp::project()),
        ] {
            let report = hypothesis2(&project);
            assert!(report.holds, "{name}: {report:?}");
            assert!(
                report.system_independent > report.system_dependent,
                "{name}"
            );
        }
    }

    #[test]
    fn hypothesis2_fails_for_an_mpi_dominated_project() {
        let mut project = lulesh::project();
        for source in &mut project.sources {
            source.required_tags.push("mpi".into());
        }
        let report = hypothesis2(&project);
        assert!(!report.holds);
        assert_eq!(report.system_independent, 0);
    }
}
