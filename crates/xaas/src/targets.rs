//! Mapping between the paper-facing vocabulary (GROMACS-style SIMD levels, option
//! assignments) and the substrates' types (XIR targets, performance build profiles).

use xaas_buildsys::{OptionAssignment, OptionCategory, OptionKind, ProjectSpec};
use xaas_hpcsim::{BuildProfile, GpuBackend, LibraryQuality, SimdLevel, SystemModel};
use xaas_xir::TargetIsa;

/// Translate a SIMD level into the XIR code-generation target used at deployment.
pub fn target_isa_for(level: SimdLevel) -> TargetIsa {
    let fma = matches!(
        level,
        SimdLevel::Avx2_128
            | SimdLevel::Avx2_256
            | SimdLevel::Avx512
            | SimdLevel::NeonAsimd
            | SimdLevel::Sve
    );
    match level {
        SimdLevel::None => TargetIsa::scalar("generic"),
        other => TargetIsa::vector(
            format!(
                "{}-{}",
                other.family().as_str(),
                other.gmx_name().to_ascii_lowercase()
            ),
            other.width_sp(),
            fma,
        ),
    }
}

/// Interpret an option assignment of `project` as a performance build profile on a
/// given system: SIMD level, GPU backend, library qualities, OpenMP. Each value is
/// read by its option's declared [`OptionCategory`]; an entry that names no option
/// of the project contributes nothing. An assignment that names no SIMD level
/// builds for SSE2.
pub(crate) fn derive_build_profile(
    label: impl Into<String>,
    project: &ProjectSpec,
    assignment: &OptionAssignment,
    system: &SystemModel,
    threads: u32,
) -> BuildProfile {
    let read = read_by_category(project, assignment, system);
    let mut profile = BuildProfile::new(label, read.simd.unwrap_or(SimdLevel::Sse2), threads)
        .with_libraries(read.blas, read.fft);
    if let Some(backend) = read.gpu {
        profile = profile.with_gpu(backend);
    }
    profile
}

/// The SIMD level `assignment` names on `system`, as [`derive_build_profile`]
/// reads it, or `None` when no option names one.
pub(crate) fn named_simd(
    project: &ProjectSpec,
    assignment: &OptionAssignment,
    system: &SystemModel,
) -> Option<SimdLevel> {
    read_by_category(project, assignment, system).simd
}

/// What [`derive_build_profile`] reads from an assignment.
struct Reading {
    simd: Option<SimdLevel>,
    gpu: Option<GpuBackend>,
    fft: LibraryQuality,
    blas: LibraryQuality,
}

/// Read each assigned value by its option's category. A `Vectorization` choice
/// names its level (`AUTO` is the system's best); a `Vectorization` bool that is
/// ON names the level its name's last `_` segment parses as (`GGML_AVX512`), which
/// wins, or else the system's best unless a level is already named (`GGML_NATIVE`).
fn read_by_category(
    project: &ProjectSpec,
    assignment: &OptionAssignment,
    system: &SystemModel,
) -> Reading {
    let mut read = Reading {
        simd: None,
        gpu: None,
        fft: LibraryQuality::Generic,
        blas: LibraryQuality::Generic,
    };
    for (name, value) in assignment.iter() {
        let Some(option) = project.option(name) else {
            continue;
        };
        match (option.category, &option.kind) {
            (OptionCategory::Vectorization, OptionKind::Choice { .. }) => {
                read.simd = if value.eq_ignore_ascii_case("AUTO") {
                    Some(system.cpu.best_simd())
                } else {
                    SimdLevel::parse(value).or(read.simd)
                };
            }
            (OptionCategory::Vectorization, OptionKind::Bool { .. })
                if value.eq_ignore_ascii_case("ON") =>
            {
                let named = name.rsplit('_').next().and_then(SimdLevel::parse);
                read.simd = named.or(read.simd).or_else(|| Some(system.cpu.best_simd()));
            }
            (OptionCategory::GpuBackend, _) => read.gpu = GpuBackend::parse(value).or(read.gpu),
            (OptionCategory::Fft, _) => read.fft = library_quality_of(value),
            (OptionCategory::LinearAlgebra, _) => read.blas = library_quality_of(value),
            _ => {}
        }
    }
    read
}

/// Classify a library option value into a quality tier.
pub(crate) fn library_quality_of(value: &str) -> LibraryQuality {
    let lower = value.to_ascii_lowercase();
    if lower.contains("mkl")
        || lower.contains("cufft")
        || lower.contains("onemath")
        || lower.contains("rocfft")
    {
        LibraryQuality::Vendor
    } else if lower.contains("fftw") || lower.contains("openblas") || lower.contains("blis") {
        LibraryQuality::Generic
    } else {
        LibraryQuality::Reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xaas_apps::{gromacs, llamacpp, lulesh};
    use xaas_buildsys::{BuildOption, OptionEffects, OptionValue};

    #[test]
    fn simd_levels_map_to_targets_with_expected_widths() {
        assert_eq!(target_isa_for(SimdLevel::None).vector_width, 1);
        assert_eq!(target_isa_for(SimdLevel::Sse41).vector_width, 4);
        assert_eq!(target_isa_for(SimdLevel::Avx512).vector_width, 16);
        assert!(target_isa_for(SimdLevel::Avx512).fma);
        assert!(!target_isa_for(SimdLevel::Sse2).fma);
        assert!(target_isa_for(SimdLevel::NeonAsimd)
            .name
            .contains("aarch64"));
    }

    #[test]
    fn assignment_derives_gpu_simd_and_libraries() {
        let system = SystemModel::ault23();
        let assignment = OptionAssignment::new()
            .with("GMX_GPU", "CUDA")
            .with("GMX_SIMD", "AVX_512")
            .with("GMX_FFT_LIBRARY", "mkl")
            .with("GMX_BLAS_LIBRARY", "openblas");
        let profile = derive_build_profile("test", &gromacs::project(), &assignment, &system, 16);
        assert_eq!(profile.gpu_backend, Some(GpuBackend::Cuda));
        assert_eq!(profile.simd, SimdLevel::Avx512);
        assert_eq!(profile.fft, LibraryQuality::Vendor);
        assert_eq!(profile.blas, LibraryQuality::Generic);
        assert_eq!(profile.threads, 16);
    }

    #[test]
    fn auto_simd_resolves_to_the_system_best_level() {
        let project = gromacs::project();
        let assignment = OptionAssignment::new().with("GMX_SIMD", "AUTO");
        let on = |system: &SystemModel| derive_build_profile("x", &project, &assignment, system, 8);
        let on_ault = on(&SystemModel::ault23());
        assert_eq!(on_ault.simd, SimdLevel::Avx512);
        let on_clariden = on(&SystemModel::clariden());
        assert_eq!(on_clariden.simd, SimdLevel::NeonAsimd);
    }

    #[test]
    fn llamacpp_style_options_are_understood() {
        let system = SystemModel::clariden();
        let assignment = OptionAssignment::new()
            .with("GGML_GPU_BACKEND", "CUDA")
            .with("GGML_NATIVE", "ON")
            .with("GGML_BLAS_VENDOR", "MKL");
        let profile = derive_build_profile("llama", &llamacpp::project(), &assignment, &system, 72);
        assert_eq!(profile.gpu_backend, Some(GpuBackend::Cuda));
        assert_eq!(profile.simd, SimdLevel::NeonAsimd);
        assert_eq!(profile.blas, LibraryQuality::Vendor);
    }

    /// An option is read by its declared category, whatever its name says: an
    /// `Fft` option named like a GPU backend, a `GpuBackend` option named like
    /// nothing, a `LinearAlgebra` option named like a SIMD switch, and an `Other`
    /// bool named like `NATIVE`. An entry that names no option reads as nothing.
    #[test]
    fn options_are_read_by_category_not_by_name() {
        let choice = |name: &str, category, values: &[&str]| {
            let values = values.iter().map(|v| OptionValue::plain(*v)).collect();
            BuildOption::choice(name, "", category, values, "OFF")
        };
        let project = ProjectSpec {
            options: vec![
                choice("X_GPU_FFT", OptionCategory::Fft, &["OFF", "fftpack"]),
                choice("X_ACCEL", OptionCategory::GpuBackend, &["OFF", "HIP"]),
                choice(
                    "X_SIMD_BLAS",
                    OptionCategory::LinearAlgebra,
                    &["OFF", "mkl"],
                ),
                choice("X_ISA", OptionCategory::Vectorization, &["OFF", "AVX2_256"]),
                BuildOption::boolean(
                    "X_NATIVE",
                    "",
                    OptionCategory::Other,
                    false,
                    OptionEffects::default(),
                ),
            ],
            ..lulesh::project()
        };
        let assignment = OptionAssignment::new()
            .with("X_GPU_FFT", "fftpack")
            .with("X_ACCEL", "HIP")
            .with("X_SIMD_BLAS", "mkl")
            .with("X_ISA", "AVX2_256")
            .with("X_NATIVE", "ON")
            .with("Y_GPU", "CUDA");
        let system = SystemModel::ault23();
        let profile = derive_build_profile("x", &project, &assignment, &system, 1);
        assert_eq!(profile.fft, LibraryQuality::Reference);
        assert_eq!(profile.gpu_backend, Some(GpuBackend::Hip));
        assert_eq!(profile.blas, LibraryQuality::Vendor);
        assert_eq!(profile.simd, SimdLevel::Avx2_256);

        let unnamed = OptionAssignment::new()
            .with("X_NATIVE", "ON")
            .with("Y_SIMD", "AVX_512");
        assert_eq!(named_simd(&project, &unnamed, &system), None);
    }

    /// The name-substring reading the category reading replaced, kept as its
    /// oracle: `(simd, gpu, fft, blas)`.
    fn read_by_name(
        assignment: &OptionAssignment,
        system: &SystemModel,
    ) -> (
        Option<SimdLevel>,
        Option<GpuBackend>,
        LibraryQuality,
        LibraryQuality,
    ) {
        let mut simd: Option<SimdLevel> = None;
        let mut gpu: Option<GpuBackend> = None;
        let mut fft = LibraryQuality::Generic;
        let mut blas = LibraryQuality::Generic;
        for (name, value) in assignment.iter() {
            let name = name.to_ascii_uppercase();
            if name.contains("SIMD") || name.contains("VECTOR") {
                if value.eq_ignore_ascii_case("AUTO") {
                    simd = Some(system.cpu.best_simd());
                } else if let Some(level) = SimdLevel::parse(value) {
                    simd = Some(level);
                }
            } else if name.contains("GPU") || name.contains("BACKEND") {
                gpu = GpuBackend::parse(value).or(gpu);
            } else if name.contains("FFT") {
                fft = library_quality_of(value);
            } else if name.contains("BLAS") || name.contains("LINEAR") {
                blas = library_quality_of(value);
            } else if name.contains("NATIVE") && value.eq_ignore_ascii_case("ON") {
                simd = simd.or(Some(system.cpu.best_simd()));
            } else if name.contains("AVX512") && value.eq_ignore_ascii_case("ON") {
                simd = Some(SimdLevel::Avx512);
            }
        }
        (simd, gpu, fft, blas)
    }

    /// Every assignment of every option's values: the configuration space, which
    /// holds every completed selection a deployment reads.
    fn every_assignment(project: &ProjectSpec) -> Vec<OptionAssignment> {
        let mut assignments = vec![OptionAssignment::new()];
        for option in &project.options {
            assignments = assignments
                .iter()
                .flat_map(|assignment| {
                    let with = |value| assignment.clone().with(option.name.clone(), value);
                    option.value_names().into_iter().map(with)
                })
                .collect();
        }
        assignments
    }

    /// On the three applications' declared options, reading by category is
    /// reading by name: for every completed selection, on every paper system,
    /// the same level, backend and library qualities.
    #[test]
    fn the_category_reading_matches_the_name_reading_on_every_app() {
        let systems = [
            SystemModel::ault23(),
            SystemModel::ault25(),
            SystemModel::ault01_04(),
            SystemModel::clariden(),
            SystemModel::aurora(),
        ];
        let mut compared = 0;
        for project in [gromacs::project(), llamacpp::project(), lulesh::project()] {
            for assignment in every_assignment(&project) {
                for system in &systems {
                    let read = read_by_category(&project, &assignment, system);
                    assert_eq!(
                        (read.simd, read.gpu, read.fft, read.blas),
                        read_by_name(&assignment, system),
                        "{} on {}",
                        assignment.label(),
                        system.name
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 1000, "{compared}");
    }

    #[test]
    fn library_quality_classification() {
        assert_eq!(library_quality_of("mkl"), LibraryQuality::Vendor);
        assert_eq!(library_quality_of("fftw3"), LibraryQuality::Generic);
        assert_eq!(library_quality_of("fftpack"), LibraryQuality::Reference);
        assert_eq!(library_quality_of("internal"), LibraryQuality::Reference);
    }
}
