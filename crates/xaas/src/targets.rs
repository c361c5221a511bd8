//! Mapping between the paper-facing vocabulary (GROMACS-style SIMD levels, option
//! assignments) and the substrates' types (XIR targets, performance build profiles).

use xaas_buildsys::OptionAssignment;
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

/// Interpret an option assignment (of any of the synthetic applications) as a performance
/// build profile on a given system: SIMD level, GPU backend, library qualities, OpenMP.
pub(crate) fn derive_build_profile(
    label: impl Into<String>,
    assignment: &OptionAssignment,
    system: &SystemModel,
    threads: u32,
) -> BuildProfile {
    let mut simd: Option<SimdLevel> = None;
    let mut gpu: Option<GpuBackend> = None;
    let mut fft = LibraryQuality::Generic;
    let mut blas = LibraryQuality::Generic;

    for (name, value) in assignment.iter() {
        let upper_name = name.to_ascii_uppercase();
        if upper_name.contains("SIMD") || upper_name.contains("VECTOR") {
            if value.eq_ignore_ascii_case("AUTO") {
                simd = Some(system.cpu.best_simd());
            } else if let Some(level) = SimdLevel::parse(value) {
                simd = Some(level);
            }
        } else if upper_name.contains("GPU") || upper_name.contains("BACKEND") {
            gpu = GpuBackend::parse(value).or(gpu);
        } else if upper_name.contains("FFT") {
            fft = library_quality_of(value);
        } else if upper_name.contains("BLAS") || upper_name.contains("LINEAR") {
            blas = library_quality_of(value);
        } else if upper_name.contains("NATIVE") && value.eq_ignore_ascii_case("ON") {
            simd = simd.or(Some(system.cpu.best_simd()));
        } else if upper_name.contains("AVX512") && value.eq_ignore_ascii_case("ON") {
            simd = Some(SimdLevel::Avx512);
        }
    }

    let mut profile = BuildProfile::new(label, simd.unwrap_or(SimdLevel::Sse2), threads)
        .with_libraries(blas, fft);
    if let Some(backend) = gpu {
        profile = profile.with_gpu(backend);
    }
    profile
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
        let profile = derive_build_profile("test", &assignment, &system, 16);
        assert_eq!(profile.gpu_backend, Some(GpuBackend::Cuda));
        assert_eq!(profile.simd, SimdLevel::Avx512);
        assert_eq!(profile.fft, LibraryQuality::Vendor);
        assert_eq!(profile.blas, LibraryQuality::Generic);
        assert_eq!(profile.threads, 16);
    }

    #[test]
    fn auto_simd_resolves_to_the_system_best_level() {
        let assignment = OptionAssignment::new().with("GMX_SIMD", "AUTO");
        let on_ault = derive_build_profile("x", &assignment, &SystemModel::ault23(), 8);
        assert_eq!(on_ault.simd, SimdLevel::Avx512);
        let on_clariden = derive_build_profile("x", &assignment, &SystemModel::clariden(), 8);
        assert_eq!(on_clariden.simd, SimdLevel::NeonAsimd);
    }

    #[test]
    fn llamacpp_style_options_are_understood() {
        let system = SystemModel::clariden();
        let assignment = OptionAssignment::new()
            .with("GGML_GPU_BACKEND", "CUDA")
            .with("GGML_NATIVE", "ON")
            .with("GGML_BLAS_VENDOR", "MKL");
        let profile = derive_build_profile("llama", &assignment, &system, 72);
        assert_eq!(profile.gpu_backend, Some(GpuBackend::Cuda));
        assert_eq!(profile.simd, SimdLevel::NeonAsimd);
        assert_eq!(profile.blas, LibraryQuality::Vendor);
    }

    #[test]
    fn library_quality_classification() {
        assert_eq!(library_quality_of("mkl"), LibraryQuality::Vendor);
        assert_eq!(library_quality_of("fftw3"), LibraryQuality::Generic);
        assert_eq!(library_quality_of("fftpack"), LibraryQuality::Reference);
        assert_eq!(library_quality_of("internal"), LibraryQuality::Reference);
    }
}
