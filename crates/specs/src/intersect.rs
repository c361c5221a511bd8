//! Feature intersection: match an application's specialization points against the
//! discovered system features (Figure 4c), producing the common set the user selects
//! from plus the list of options excluded with reasons.

use crate::model::{SpecCategory, SpecializationDocument};
use xaas_hpcsim::discovery::SystemFeatures;

/// An excluded specialization point and why it is unavailable on the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exclusion {
    /// Category of the excluded entry.
    pub category: SpecCategory,
    /// Name of the excluded entry.
    pub name: String,
    /// Reason it was excluded.
    pub reason: String,
}

/// The result of intersecting application specialization points with system features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonSpecialization {
    /// The application.
    pub application: String,
    /// The system.
    pub system: String,
    /// Specialization points supported on this system.
    pub common: SpecializationDocument,
    /// Points the system cannot satisfy.
    pub excluded: Vec<Exclusion>,
}

impl CommonSpecialization {
    /// Names of supported entries for one category (what the user chooses among).
    pub fn choices(&self, category: SpecCategory) -> Vec<&str> {
        self.common
            .entries_of(category)
            .iter()
            .map(|e| e.name.as_str())
            .collect()
    }
}

/// SIMD level name → CPU feature flags that must be present.
fn simd_required_flags(level: &str) -> Vec<&'static str> {
    let upper = level.to_ascii_uppercase().replace('-', "_");
    match upper.as_str() {
        "SSE2" => vec!["sse2"],
        "SSE4.1" | "SSE4_1" => vec!["sse4_1"],
        "AVX_128_FMA" | "AVX2_128" => vec!["avx2", "fma"],
        "AVX_256" => vec!["avx"],
        "AVX2_256" => vec!["avx2"],
        "AVX_512" | "AVX512" => vec!["avx512f"],
        "ARM_NEON_ASIMD" | "NEON_ASIMD" | "NEON" => vec!["asimd"],
        "ARM_SVE" | "SVE" => vec!["sve"],
        "NONE" => vec![],
        _ => vec!["__unknown__"],
    }
}

/// Intersect application specialization points with system features.
pub fn intersect(
    document: &SpecializationDocument,
    system: &SystemFeatures,
) -> CommonSpecialization {
    let mut common = SpecializationDocument::new(document.application.clone());
    common.gpu_build = document.gpu_build;
    common.gpu_build_flag = document.gpu_build_flag.clone();
    common.build_system = document.build_system.clone();
    let mut excluded = Vec::new();

    for entry in &document.entries {
        let keep = match entry.category {
            SpecCategory::GpuBackend => {
                if system.has_gpu_backend(&entry.name) {
                    Ok(())
                } else {
                    Err(format!(
                        "system {} exposes no {} runtime",
                        system.system, entry.name
                    ))
                }
            }
            SpecCategory::Vectorization => {
                let required = simd_required_flags(&entry.name);
                if required.iter().all(|flag| system.has_vector_flag(flag)) {
                    Ok(())
                } else {
                    Err(format!(
                        "CPU {} lacks {}",
                        system.microarchitecture,
                        required.join("+")
                    ))
                }
            }
            SpecCategory::Parallelism => {
                let lower = entry.name.to_ascii_lowercase();
                if lower.contains("mpi") && !lower.contains("thread") {
                    if system.mpi.is_empty() {
                        Err("no MPI implementation available".to_string())
                    } else {
                        Ok(())
                    }
                } else {
                    Ok(()) // OpenMP / threads / thread-MPI are always available.
                }
            }
            SpecCategory::LinearAlgebra => {
                let available = system
                    .linear_algebra
                    .iter()
                    .any(|lib| lib_matches(lib, &entry.name));
                if available || builtin(&entry.name) {
                    Ok(())
                } else {
                    Err(format!("no {} module on {}", entry.name, system.system))
                }
            }
            SpecCategory::Fft => {
                let available = system.fft.iter().any(|lib| lib_matches(lib, &entry.name));
                if available || builtin(&entry.name) {
                    Ok(())
                } else {
                    Err(format!(
                        "no {} installation on {}",
                        entry.name, system.system
                    ))
                }
            }
            SpecCategory::Architecture => {
                if entry.name.eq_ignore_ascii_case(&system.architecture) {
                    Ok(())
                } else {
                    Err(format!("system architecture is {}", system.architecture))
                }
            }
            // Compilers, build-system facts, optimisation flags, internal builds and other
            // libraries do not restrict deployment in the model.
            _ => Ok(()),
        };
        match keep {
            Ok(()) => {
                common.push(entry.clone());
            }
            Err(reason) => excluded.push(Exclusion {
                category: entry.category,
                name: entry.name.clone(),
                reason,
            }),
        }
    }

    CommonSpecialization {
        application: document.application.clone(),
        system: system.system.clone(),
        common,
        excluded,
    }
}

/// Whether a module/library name satisfies a requested library name.
fn lib_matches(available: &str, requested: &str) -> bool {
    let a = available.to_ascii_lowercase();
    let r = requested.to_ascii_lowercase();
    a.contains(&r)
        || r.contains(&a)
        || (r == "mkl" && a.contains("oneapi"))
        || (r.starts_with("fftw") && a.starts_with("fftw"))
}

/// Built-in fallbacks are always available (e.g. fftpack, internal BLAS).
fn builtin(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("fftpack") || lower.contains("built") || lower.contains("internal")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SpecEntry;
    use xaas_hpcsim::discovery::discover;
    use xaas_hpcsim::system::SystemModel;

    fn gromacs_like() -> SpecializationDocument {
        let mut doc = SpecializationDocument::new("mini-gromacs");
        doc.gpu_build = true;
        doc.gpu_build_flag = Some("-DGMX_GPU".into());
        for backend in ["CUDA", "SYCL", "HIP", "OpenCL"] {
            doc.push(
                SpecEntry::new(SpecCategory::GpuBackend, backend)
                    .with_flag(format!("-DGMX_GPU={backend}")),
            );
        }
        for simd in ["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"] {
            doc.push(
                SpecEntry::new(SpecCategory::Vectorization, simd)
                    .with_flag(format!("-DGMX_SIMD={simd}")),
            );
        }
        for fft in ["fftw3", "mkl", "cuFFT", "fftpack"] {
            doc.push(SpecEntry::new(SpecCategory::Fft, fft));
        }
        doc.push(SpecEntry::new(SpecCategory::LinearAlgebra, "mkl"));
        doc.push(SpecEntry::new(SpecCategory::LinearAlgebra, "openblas"));
        doc.push(SpecEntry::new(SpecCategory::Parallelism, "MPI"));
        doc.push(SpecEntry::new(SpecCategory::Parallelism, "OpenMP"));
        doc
    }

    #[test]
    fn ault23_intersection_keeps_cuda_drops_hip_like_figure_4() {
        let doc = gromacs_like();
        let features = discover(&SystemModel::ault23());
        let result = intersect(&doc, &features);
        let backends = result.choices(SpecCategory::GpuBackend);
        assert!(backends.contains(&"CUDA"));
        assert!(backends.contains(&"OpenCL"));
        assert!(!backends.contains(&"HIP"));
        assert!(result.excluded.iter().any(|e| e.name == "HIP"));
        // All x86 SIMD levels supported, ARM excluded.
        let simd = result.choices(SpecCategory::Vectorization);
        assert!(simd.contains(&"AVX_512"));
        assert!(!simd.contains(&"ARM_NEON_ASIMD"));
        // MKL present, cuFFT implied by CUDA.
        assert!(result.choices(SpecCategory::Fft).contains(&"cuFFT"));
        assert!(result.choices(SpecCategory::LinearAlgebra).contains(&"mkl"));
    }

    #[test]
    fn ault25_drops_avx512_and_mkl() {
        let doc = gromacs_like();
        let features = discover(&SystemModel::ault25());
        let result = intersect(&doc, &features);
        assert!(!result
            .choices(SpecCategory::Vectorization)
            .contains(&"AVX_512"));
        assert!(result
            .choices(SpecCategory::Vectorization)
            .contains(&"AVX2_256"));
        assert!(!result.choices(SpecCategory::LinearAlgebra).contains(&"mkl"));
        assert!(result
            .choices(SpecCategory::LinearAlgebra)
            .contains(&"openblas"));
    }

    #[test]
    fn clariden_is_arm_with_cuda() {
        let doc = gromacs_like();
        let features = discover(&SystemModel::clariden());
        let result = intersect(&doc, &features);
        let simd = result.choices(SpecCategory::Vectorization);
        assert_eq!(simd, vec!["ARM_NEON_ASIMD"]);
        assert!(result.choices(SpecCategory::GpuBackend).contains(&"CUDA"));
    }

    #[test]
    fn aurora_keeps_sycl_but_not_cuda() {
        let doc = gromacs_like();
        let features = discover(&SystemModel::aurora());
        let result = intersect(&doc, &features);
        let backends = result.choices(SpecCategory::GpuBackend);
        assert!(backends.contains(&"SYCL"));
        assert!(!backends.contains(&"CUDA"));
        let excluded_cuda = result.excluded.iter().find(|e| e.name == "CUDA").unwrap();
        assert!(excluded_cuda.reason.contains("no CUDA runtime"));
    }

    #[test]
    fn builtin_fallbacks_survive_everywhere() {
        let doc = gromacs_like();
        for system in SystemModel::all_evaluation_systems() {
            let result = intersect(&doc, &discover(&system));
            assert!(
                result.choices(SpecCategory::Fft).contains(&"fftpack"),
                "fftpack must be available on {}",
                system.name
            );
            assert!(result
                .choices(SpecCategory::Parallelism)
                .contains(&"OpenMP"));
        }
    }

    #[test]
    fn cpu_only_system_excludes_all_gpu_backends() {
        let doc = gromacs_like();
        let result = intersect(&doc, &discover(&SystemModel::ault01_04()));
        assert!(result.choices(SpecCategory::GpuBackend).is_empty());
        assert_eq!(
            result
                .excluded
                .iter()
                .filter(|e| e.category == SpecCategory::GpuBackend)
                .count(),
            4
        );
    }
}
