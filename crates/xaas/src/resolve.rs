//! The specialisation resolver: the one place a deployment's configuration and
//! SIMD target are decided, for source deployments, IR deployments and fleet
//! targets alike (the *select* step of Figures 6 and 8).

use crate::error::PipelineError;
use crate::ir_container::sanitize;
use crate::targets::named_simd;
use xaas_buildsys::{BuildOption, OptionAssignment, OptionCategory, OptionKind, ProjectSpec};
use xaas_hpcsim::{discover, IsaFamily, SimdLevel, SystemFeatures, SystemModel};
use xaas_specs::{from_project, intersect, CommonSpecialization, Exclusion, SpecEntry};

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
/// selection names ([`named_simd`]), or the system's best with a note when the
/// system lacks that level; else the system's best.
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
            let mut chosen = best_available(project, &discover(system), &mut notes);
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
        None if policy == Policy::BestAvailable => match named_simd(&selection, system) {
            Some(named) if system.cpu.supports(named) => named,
            Some(named) => {
                notes.push(format!(
                    "selected SIMD level {named} unsupported on {}; falling back to the best supported level",
                    system.name
                ));
                system.cpu.best_simd()
            }
            None => system.cpu.best_simd(),
        },
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

/// Preference lists, best first, spelled as a selection writes the value.
const GPU_BACKENDS: [&str; 5] = ["CUDA", "HIP", "SYCL", "OpenCL", "Vulkan"];
const LIBRARIES: [&str; 4] = ["mkl", "fftw3", "openblas", "fftpack"];

/// The select step: the intersection of the project's specialisation points
/// with the system's `features` (Figure 4c) decides each option of a category
/// it restricts. A bool is ON if its entry is kept and OFF otherwise; a choice
/// takes the first value of its category's preference list that it accepts and
/// the intersection keeps, or else its default (SIMD levels are preferred best
/// first). An option left OFF or at its default notes the exclusion of the
/// value it passed over: an excluded MPI falls back to thread-MPI where the
/// project has it, and is noted OFF otherwise.
fn best_available(
    project: &ProjectSpec,
    features: &SystemFeatures,
    notes: &mut Vec<String>,
) -> OptionAssignment {
    let document = from_project(project);
    let intersection = intersect(&document, features);
    let simd = IsaFamily::parse(&features.architecture).map_or(&[][..], SimdLevel::levels_for);
    // A project with an option whose flag names threads (GROMACS's
    // `GMX_THREAD_MPI`) falls back to it; `intersect` tells them apart so too.
    let thread_mpi = project
        .options
        .iter()
        .any(|o| o.flag.to_ascii_lowercase().contains("thread"));
    let mut assignment = OptionAssignment::new();
    for option in &project.options {
        let chosen = match (&option.kind, option.category) {
            (_, OptionCategory::Network | OptionCategory::Other)
            | (OptionKind::Choice { .. }, OptionCategory::Parallelism) => continue,
            (OptionKind::Bool { .. }, _) => choose(["ON"], option, &intersection),
            (_, OptionCategory::GpuBackend) => choose(GPU_BACKENDS, option, &intersection),
            (_, OptionCategory::Vectorization) => choose(
                simd.iter().rev().map(SimdLevel::gmx_name),
                option,
                &intersection,
            ),
            (_, OptionCategory::Fft | OptionCategory::LinearAlgebra) => {
                choose(LIBRARIES, option, &intersection)
            }
        };
        let value = chosen.unwrap_or_else(|passed_over| {
            let value = match &option.kind {
                OptionKind::Bool { .. } => "OFF",
                OptionKind::Choice { default, .. } => default,
            };
            let excluded = passed_over
                .and_then(|v| entry(&document.entries, option, v))
                .and_then(|e| {
                    let same = |x: &&Exclusion| x.category == e.category && x.name == e.name;
                    intersection.excluded.iter().find(same)
                });
            if let Some(Exclusion { reason, .. }) = excluded {
                notes.push(match option.category {
                    OptionCategory::GpuBackend => format!("{reason}; staying CPU-only"),
                    OptionCategory::Parallelism if thread_mpi => {
                        format!("{reason}; using thread-MPI")
                    }
                    _ => format!("{reason}; {}={value}", option.name),
                });
            }
            value
        });
        assignment.set(option.name.as_str(), value);
    }
    assignment
}

/// The first of `preferred` that `option` accepts and `intersection` keeps, or
/// else the first it accepts (the value passed over), if any.
fn choose<'v>(
    preferred: impl IntoIterator<Item = &'v str>,
    option: &BuildOption,
    intersection: &CommonSpecialization,
) -> Result<&'v str, Option<&'v str>> {
    let mut accepted = preferred
        .into_iter()
        .filter(|v| option.accepts(v))
        .peekable();
    let first = accepted.peek().copied();
    accepted
        .find(|v| entry(&intersection.common.entries, option, v).is_some())
        .ok_or(first)
}

/// The entry of `entries` that sets `option` to `value`: its build flag is
/// `-D{option}={value}`, the value in any case.
fn entry<'e>(entries: &'e [SpecEntry], option: &BuildOption, value: &str) -> Option<&'e SpecEntry> {
    entries.iter().find(|e| {
        e.build_flag
            .as_deref()
            .and_then(|flag| flag.strip_prefix(option.flag.as_str()))
            .is_some_and(|v| v.eq_ignore_ascii_case(value))
    })
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

    fn projects() -> [ProjectSpec; 3] {
        [gromacs::project(), lulesh::project(), llamacpp::project()]
    }

    fn best(project: &ProjectSpec, system: &SystemModel) -> Resolved {
        resolve(
            project,
            system,
            &OptionAssignment::new(),
            None,
            Policy::BestAvailable,
        )
        .unwrap()
    }

    /// The selection reads the intersection and nothing else: for every app on
    /// every paper system, each option of a category the intersection restricts
    /// takes a value the intersection keeps (a bool is ON exactly when its entry
    /// is kept), or else the default of an option none of whose entries is kept.
    #[test]
    fn every_selected_value_is_offered_by_the_intersection() {
        for project in projects() {
            let document = from_project(&project);
            for system in systems() {
                let intersection = intersect(&document, &discover(&system));
                let kept = |option: &BuildOption, value: &str| {
                    entry(&intersection.common.entries, option, value).is_some()
                };
                let resolved = best(&project, &system);
                for option in &project.options {
                    if matches!(
                        option.category,
                        OptionCategory::Network | OptionCategory::Other
                    ) {
                        continue;
                    }
                    let value = resolved.selection.get(&option.name).unwrap();
                    let at = format!("{}={value} on {}", option.name, system.name);
                    match &option.kind {
                        OptionKind::Bool { .. } => {
                            assert_eq!(value == "ON", kept(option, "ON"), "{at}")
                        }
                        OptionKind::Choice { values, default } => {
                            let none_kept = !values.iter().any(|v| kept(option, &v.name));
                            assert!(
                                kept(option, value) || (none_kept && value == default),
                                "{at}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// llama.cpp's AVX-512 intrinsics are selected only where the CPU has
    /// `avx512f`: the intersection excludes them on Ault25 (zen2) and Clariden
    /// (Grace), and the note says so.
    #[test]
    fn llamacpp_leaves_avx512_off_where_the_cpu_lacks_avx512f() {
        let project = llamacpp::project();
        for (system, cpu) in [
            (SystemModel::ault25(), "zen2"),
            (SystemModel::clariden(), "neoverse_v2"),
        ] {
            let resolved = best(&project, &system);
            assert_eq!(resolved.selection.get("GGML_AVX512"), Some("OFF"));
            assert_eq!(resolved.target, system.cpu.best_simd());
            assert_eq!(
                resolved.notes,
                [format!("CPU {cpu} lacks avx512f; GGML_AVX512=OFF")]
            );
        }
    }

    /// The benchmarked llama.cpp source deployment on Ault23: its label is
    /// written into the image, so this pin holds the image digests.
    #[test]
    fn llamacpp_on_ault23_selects_the_pinned_label() {
        let resolved = best(&llamacpp::project(), &SystemModel::ault23());
        assert_eq!(
            resolved.selection.label(),
            "GGML_AVX512=ON,GGML_BLAS_VENDOR=mkl,GGML_GPU_BACKEND=CUDA,GGML_NATIVE=ON,\
             GGML_OPENMP=ON,GGML_QUANT_DEFAULT=Q4_K"
        );
        assert_eq!(resolved.target, SimdLevel::Avx512);
        assert!(resolved.notes.is_empty(), "{:?}", resolved.notes);
    }

    /// The features document (Figure 4b) is enough to select: the document
    /// read back from its JSON selects and notes what discovery's does.
    #[test]
    fn the_features_document_read_back_selects_the_same() {
        for project in projects() {
            for system in systems() {
                let features = discover(&system);
                let read = SystemFeatures::from_json(&features.to_json()).unwrap();
                let (mut notes, mut read_notes) = (Vec::new(), Vec::new());
                assert_eq!(
                    best_available(&project, &read, &mut read_notes),
                    best_available(&project, &features, &mut notes),
                    "{} on {}",
                    project.name,
                    system.name
                );
                assert_eq!(read_notes, notes);
            }
        }
    }

    /// For every app on every paper system, resolving the best available
    /// configuration and then resolving again with every option and the target
    /// pinned to that answer returns the same answer under either policy: a
    /// fully pinned resolution ignores the policy.
    #[test]
    fn a_pinned_resolution_is_a_fixed_point_under_either_policy() {
        for project in projects() {
            for system in systems() {
                let best = best(&project, &system);
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

    /// A project whose selection names no SIMD level (LULESH has no
    /// vectorisation option) targets the system's best level, with no note.
    #[test]
    fn a_selection_naming_no_level_targets_the_system_best() {
        let project = lulesh::project();
        for system in systems() {
            let resolved = best(&project, &system);
            assert_eq!(named_simd(&resolved.selection, &system), None);
            assert_eq!(resolved.target, system.cpu.best_simd(), "{}", system.name);
            assert!(
                !resolved.notes.iter().any(|n| n.contains("unsupported")),
                "{}: {:?}",
                system.name,
                resolved.notes
            );
        }
        let ault23 = best(&project, &SystemModel::ault23());
        assert_eq!(ault23.target, SimdLevel::Avx512);
    }

    /// An excluded MPI falls back to thread-MPI only in a project that has it.
    #[test]
    fn the_mpi_note_names_thread_mpi_only_where_the_project_has_it() {
        let system = SystemModel::ault01_04();
        let lulesh = best(&lulesh::project(), &system);
        assert_eq!(lulesh.notes, ["no MPI module on Ault01-04; WITH_MPI=OFF"]);
        let gromacs = best(&gromacs::project(), &system);
        assert!(
            gromacs
                .notes
                .iter()
                .any(|n| n == "no MPI module on Ault01-04; using thread-MPI"),
            "{:?}",
            gromacs.notes
        );
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
