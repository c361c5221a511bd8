//! The specialisation resolver: the one place a deployment's configuration and
//! SIMD target are decided, for source deployments, IR deployments and fleet
//! targets alike (the *select* step of Figures 6 and 8).

use crate::error::PipelineError;
use crate::ir_container::sanitize;
use crate::targets::derive_build_profile;
use xaas_buildsys::{OptionAssignment, OptionCategory, ProjectSpec};
use xaas_hpcsim::{discover, ModuleKind, SimdLevel, SoftwareModule, SystemModel};
use xaas_specs::{from_project, intersect, SpecCategory};

/// What a deployment is.
#[derive(Debug)]
pub(crate) struct Resolved {
    /// Every project option's value, plus any preference naming no option.
    pub(crate) selection: OptionAssignment,
    /// The SIMD level the deployment lowers or compiles for.
    pub(crate) target: SimdLevel,
    /// Choices the system forced (fallbacks, substitutions), in decision order.
    pub(crate) notes: Vec<String>,
}

/// How [`resolve`] fills the options the preferences leave open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Policy {
    /// The project's default; the system is not consulted (IR deploy, fleet).
    ProjectDefault,
    /// The best value the system offers (source deploy).
    BestAvailable,
}

/// Resolve one deployment of `project` on `system`: the project's defaults
/// ([`ProjectSpec::complete`]), under `policy`, under `preferences`, each of
/// which must be a value its option accepts (`UnsupportedPreference`). The
/// target is the pinned `simd`, which the system must support
/// (`UnsupportedSimd`); else, under [`Policy::BestAvailable`], the level the
/// selection names as [`derive_build_profile`] reads it, or the system's best
/// with a note when the system lacks that level; else the system's best.
pub(crate) fn resolve(
    project: &ProjectSpec,
    system: &SystemModel,
    preferences: &OptionAssignment,
    simd: Option<SimdLevel>,
    policy: Policy,
) -> Result<Resolved, PipelineError> {
    for (option, value) in preferences.iter() {
        if project.option(option).is_some_and(|o| !o.accepts(value)) {
            return Err(PipelineError::UnsupportedPreference {
                option: option.to_string(),
                value: value.to_string(),
                reason: "value is not offered by the build system".to_string(),
            });
        }
    }
    let mut notes = Vec::new();
    let selection = match policy {
        Policy::ProjectDefault => project.complete(preferences),
        Policy::BestAvailable => {
            let mut chosen = best_available(project, system, &mut notes);
            for (option, value) in preferences.iter() {
                chosen.set(option, value);
            }
            project.complete(&chosen)
        }
    };
    let target = match simd {
        Some(level) if system.cpu.supports(level) => level,
        Some(level) => {
            let system = system.name.clone();
            return Err(PipelineError::UnsupportedSimd { level, system });
        }
        None if policy == Policy::BestAvailable => {
            let named = derive_build_profile("", &selection, system, 1).simd;
            if system.cpu.supports(named) {
                named
            } else {
                notes.push(format!(
                    "selected SIMD level {named} unsupported on {}; falling back to the best supported level",
                    system.name
                ));
                system.cpu.best_simd()
            }
        }
        None => system.cpu.best_simd(),
    };
    Ok(Resolved {
        selection,
        target,
        notes,
    })
}

impl Resolved {
    /// The reference the deployment commits under,
    /// `{project}:{system}-{label}-{target}`. The label spells out every option,
    /// so two configurations get two references unless their values differ
    /// only in punctuation (which `sanitize` maps to `_`).
    pub(crate) fn reference(&self, project: &ProjectSpec, system: &SystemModel) -> String {
        let mut label = sanitize(&self.selection.label());
        label.make_ascii_lowercase();
        let system = system.name.to_ascii_lowercase();
        let target = self.target.gmx_name().to_ascii_lowercase();
        format!("{}:{system}-{label}-{target}", project.name)
    }
}

/// Discovery, intersection with the project's specialisation points, and the
/// best available value for each option with a rule; an option with no rule or
/// no usable value is left out, and so keeps its default.
fn best_available(
    project: &ProjectSpec,
    system: &SystemModel,
    notes: &mut Vec<String>,
) -> OptionAssignment {
    let intersection = intersect(&from_project(project), &discover(system));
    let mut assignment = OptionAssignment::new();
    for option in &project.options {
        let name = option.name.clone();
        match option.category {
            OptionCategory::GpuBackend => {
                let choices = intersection.choices(SpecCategory::GpuBackend);
                let offered = |value: &&str| {
                    choices.iter().any(|c| c.eq_ignore_ascii_case(value)) && option.accepts(value)
                };
                let preferred = xaas_apps::preferred_gpu_backend(system).map(|b| b.as_str());
                let fallback = || choices.iter().copied().find(|c| option.accepts(c));
                match preferred.filter(offered).or_else(fallback) {
                    Some(value) => {
                        assignment.set(name, value);
                    }
                    None => notes.push(format!(
                        "no usable GPU backend on {}; staying CPU-only",
                        system.name
                    )),
                }
            }
            OptionCategory::Vectorization => {
                let best = system.cpu.best_simd();
                if option.accepts(best.gmx_name()) {
                    assignment.set(name, best.gmx_name());
                } else if option.accepts("ON") && best != SimdLevel::None {
                    assignment.set(name, "ON");
                }
            }
            OptionCategory::Fft | OptionCategory::LinearAlgebra => {
                let mkl = |m: &SoftwareModule| m.name.to_ascii_lowercase().contains("mkl");
                let vendor = system.has_vendor_blas() || system.modules.iter().any(mkl);
                let picks = [("mkl", vendor), ("fftw3", true), ("openblas", true)];
                let pick = picks
                    .into_iter()
                    .find(|&(value, usable)| usable && option.accepts(value));
                if let Some((value, _)) = pick {
                    assignment.set(name, value);
                }
            }
            OptionCategory::Parallelism => {
                let upper = name.to_ascii_uppercase();
                if upper.contains("MPI") && !upper.contains("THREAD") {
                    let value = if system.module_of_kind(ModuleKind::Mpi).is_none() {
                        notes.push(format!(
                            "no MPI module on {}; using thread-MPI",
                            system.name
                        ));
                        "OFF"
                    } else if !system.container_runtime.mpi_functional() {
                        notes.push(format!(
                            "MPI not functional under {} on {}; using thread-MPI",
                            system.container_runtime, system.name
                        ));
                        "OFF"
                    } else {
                        "ON"
                    };
                    assignment.set(name, value);
                }
            }
            _ => {}
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use xaas_apps::{gromacs, llamacpp, lulesh};

    fn systems() -> [SystemModel; 5] {
        [
            SystemModel::ault23(),
            SystemModel::ault25(),
            SystemModel::ault01_04(),
            SystemModel::aurora(),
            SystemModel::clariden(),
        ]
    }

    /// For every app on every paper system, resolving the best available
    /// configuration and then resolving again with every option and the target
    /// pinned to that answer returns the same answer under either policy: a
    /// fully pinned resolution ignores the policy.
    #[test]
    fn a_pinned_resolution_is_a_fixed_point_under_either_policy() {
        for project in [gromacs::project(), lulesh::project(), llamacpp::project()] {
            for system in systems() {
                let best = resolve(
                    &project,
                    &system,
                    &OptionAssignment::new(),
                    None,
                    Policy::BestAvailable,
                )
                .unwrap();
                for policy in [Policy::ProjectDefault, Policy::BestAvailable] {
                    let pinned = resolve(
                        &project,
                        &system,
                        &best.selection,
                        Some(best.target),
                        policy,
                    )
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", project.name, system.name));
                    assert_eq!(
                        (&pinned.selection, pinned.target),
                        (&best.selection, best.target),
                        "{} on {} under {policy:?}",
                        project.name,
                        system.name
                    );
                }
            }
        }
    }

    /// The source and IR deployments of GROMACS on Ault01-04 that Figure 12
    /// (top) compares (the IR container lowered for AVX-512) agree on
    /// `GMX_SIMD`; every other option where they differ is the IR container
    /// falling back to the project default.
    #[test]
    fn the_cpu_figure_pair_agrees_on_simd_and_names_every_default_fallback() {
        let project = gromacs::project();
        let system = SystemModel::ault01_04();
        let source = resolve(
            &project,
            &system,
            &OptionAssignment::new(),
            None,
            Policy::BestAvailable,
        )
        .unwrap();
        let ir = resolve(
            &project,
            &system,
            &OptionAssignment::new().with("GMX_SIMD", "AVX_512"),
            Some(SimdLevel::Avx512),
            Policy::ProjectDefault,
        )
        .unwrap();
        assert_eq!(source.selection.get("GMX_SIMD"), Some("AVX_512"));
        assert_eq!(ir.selection.get("GMX_SIMD"), Some("AVX_512"));
        assert_eq!(
            (source.target, ir.target),
            (SimdLevel::Avx512, SimdLevel::Avx512)
        );

        let defaults = project.complete(&OptionAssignment::new());
        let differing: Vec<&str> = ir
            .selection
            .iter()
            .filter(|&(option, value)| source.selection.get(option) != Some(value))
            .map(|(option, value)| {
                assert_eq!(defaults.get(option), Some(value), "{option} is no default");
                option
            })
            .collect();
        assert_eq!(differing, ["GMX_BLAS_LIBRARY", "GMX_FFT_LIBRARY"]);
    }

    /// Under the best-available policy an unsupported named level falls back
    /// to the system's best with a note; the project default ignores the name.
    #[test]
    fn an_unsupported_named_level_falls_back_to_the_system_best() {
        let project = gromacs::project();
        let system = SystemModel::ault25();
        let avx512 = OptionAssignment::new().with("GMX_SIMD", "AVX_512");
        let best = resolve(&project, &system, &avx512, None, Policy::BestAvailable).unwrap();
        assert_eq!(best.target, system.cpu.best_simd());
        assert!(
            best.notes
                .iter()
                .any(|n| n.contains("falling back to the best supported level")),
            "{:?}",
            best.notes
        );
        let default = resolve(&project, &system, &avx512, None, Policy::ProjectDefault).unwrap();
        assert_eq!(default.target, system.cpu.best_simd());
        assert!(default.notes.is_empty());
    }
}
