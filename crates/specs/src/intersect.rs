//! Feature intersection: match an application's specialization points against the
//! discovered system features (Figure 4c), producing the common set the user selects
//! from plus the list of options excluded with reasons.

use crate::model::{SpecCategory, SpecializationDocument};
use xaas_hpcsim::discovery::SystemFeatures;
use xaas_hpcsim::SimdLevel;

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
        let reason = match entry.category {
            SpecCategory::GpuBackend => (!system.has_gpu_backend(&entry.name))
                .then(|| format!("system {} exposes no {} runtime", system.system, entry.name)),
            SpecCategory::Vectorization => {
                // A name that is no SIMD level (llama.cpp's `NATIVE`) restricts nothing.
                let required =
                    SimdLevel::parse(&entry.name).map_or(&[][..], |l| l.required_flags());
                let cpu = &system.microarchitecture;
                let lacks = !required.iter().all(|flag| system.has_vector_flag(flag));
                lacks.then(|| format!("CPU {cpu} lacks {}", required.join("+")))
            }
            SpecCategory::Parallelism => {
                // OpenMP, threads and thread-MPI are built in. `GMX_MPI` and
                // `GMX_THREAD_MPI` are both named `MPI`, so the flag tells them apart.
                let text = entry.build_flag.as_deref().unwrap_or(&entry.name);
                let text = text.to_ascii_lowercase();
                if !text.contains("mpi") || text.contains("thread") {
                    None
                } else if system.mpi.is_empty() {
                    Some(format!("no MPI module on {}", system.system))
                } else if !system.container_runtime.mpi_functional() {
                    let (runtime, name) = (system.container_runtime, &system.system);
                    Some(format!("MPI not functional under {runtime} on {name}"))
                } else {
                    None
                }
            }
            SpecCategory::LinearAlgebra | SpecCategory::Fft => {
                let (libraries, what) = match entry.category {
                    SpecCategory::Fft => (&system.fft, "installation"),
                    _ => (&system.linear_algebra, "module"),
                };
                let available = libraries.iter().any(|l| lib_matches(l, &entry.name));
                (!available && !builtin(&entry.name))
                    .then(|| format!("no {} {what} on {}", entry.name, system.system))
            }
            SpecCategory::Architecture => (!entry.name.eq_ignore_ascii_case(&system.architecture))
                .then(|| format!("system architecture is {}", system.architecture)),
            // Compilers, build-system facts, optimisation flags, internal builds and other
            // libraries do not restrict deployment in the model.
            _ => None,
        };
        let listed = |e: &Exclusion| e.category == entry.category && e.name == entry.name;
        match reason {
            None => {
                common.push(entry.clone());
            }
            // An excluded point is listed once per category and name.
            Some(_) if excluded.iter().any(listed) => {}
            Some(reason) => excluded.push(Exclusion {
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
        // Both MPI options are named `MPI`, as `from_project` names them.
        for option in ["GMX_MPI", "GMX_THREAD_MPI"] {
            doc.push(
                SpecEntry::new(SpecCategory::Parallelism, "MPI")
                    .with_flag(format!("-D{option}=ON")),
            );
        }
        doc.push(SpecEntry::new(SpecCategory::Parallelism, "OpenMP"));
        doc
    }

    /// The exclusion of the entry with `flag`, if it is excluded.
    fn excluded_reason<'a>(
        result: &'a CommonSpecialization,
        doc: &SpecializationDocument,
        flag: &str,
    ) -> Option<&'a str> {
        let entry = doc
            .entries
            .iter()
            .find(|e| e.build_flag.as_deref() == Some(flag))?;
        result
            .excluded
            .iter()
            .find(|e| e.category == entry.category && e.name == entry.name)
            .map(|e| e.reason.as_str())
    }

    #[test]
    fn ault23_keeps_mkl_for_fft_because_the_mkl_module_provides_it() {
        let result = intersect(&gromacs_like(), &discover(&SystemModel::ault23()));
        assert!(result.choices(SpecCategory::Fft).contains(&"mkl"));
        assert!(
            result.excluded.iter().all(|e| e.name != "mkl"),
            "{:?}",
            result.excluded
        );
    }

    #[test]
    fn ault01_04_keeps_thread_mpi_and_names_the_missing_module() {
        let doc = gromacs_like();
        let result = intersect(&doc, &discover(&SystemModel::ault01_04()));
        assert!(result
            .common
            .entries
            .iter()
            .any(|e| e.build_flag.as_deref() == Some("-DGMX_THREAD_MPI=ON")));
        assert_eq!(
            excluded_reason(&result, &doc, "-DGMX_MPI=ON"),
            Some("no MPI module on Ault01-04")
        );
    }

    #[test]
    fn aurora_excludes_real_mpi_because_apptainer_runs_no_mpi() {
        let doc = gromacs_like();
        let result = intersect(&doc, &discover(&SystemModel::aurora()));
        assert_eq!(
            excluded_reason(&result, &doc, "-DGMX_MPI=ON"),
            Some("MPI not functional under Apptainer on Aurora")
        );
        let kept: Vec<_> = result
            .common
            .entries
            .iter()
            .filter_map(|e| e.build_flag.as_deref())
            .collect();
        assert!(kept.contains(&"-DGMX_THREAD_MPI=ON"), "{kept:?}");
        assert!(!kept.contains(&"-DGMX_MPI=ON"), "{kept:?}");
    }

    #[test]
    fn a_vectorization_entry_naming_no_simd_level_restricts_nothing() {
        let mut doc = SpecializationDocument::new("mini-llamacpp");
        doc.push(
            SpecEntry::new(SpecCategory::Vectorization, "NATIVE").with_flag("-DGGML_NATIVE=ON"),
        );
        doc.push(
            SpecEntry::new(SpecCategory::Vectorization, "AVX512").with_flag("-DGGML_AVX512=ON"),
        );
        for system in SystemModel::all_evaluation_systems() {
            let result = intersect(&doc, &discover(&system));
            let simd = result.choices(SpecCategory::Vectorization);
            assert!(simd.contains(&"NATIVE"), "{}: {simd:?}", system.name);
            assert_eq!(
                simd.contains(&"AVX512"),
                system.cpu.supports(SimdLevel::Avx512),
                "{}",
                system.name
            );
        }
    }

    /// Each excluded point is listed once per category and name: the two MPI
    /// entries and the FFT and BLAS `mkl` entries never read as duplicates.
    #[test]
    fn each_excluded_point_is_listed_once_per_category_and_name() {
        let mut doc = gromacs_like();
        // A second entry of one category and name, as a heuristic extraction can produce.
        doc.push(SpecEntry::new(SpecCategory::GpuBackend, "HIP").with_flag("-DGMX_GPU_HIP=ON"));
        for system in SystemModel::all_evaluation_systems() {
            let result = intersect(&doc, &discover(&system));
            let mut seen = std::collections::BTreeSet::new();
            for e in &result.excluded {
                assert!(
                    seen.insert((e.category, e.name.as_str())),
                    "{}: {e:?} twice",
                    system.name
                );
            }
        }
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
