//! The HPC application catalogue of Table 1: the specialization points of nine
//! representative applications and benchmarks.
//!
//! This is reference data (not derived from the synthetic projects): the `reproduce
//! table1` harness prints it, and tests use it to check that the synthetic applications
//! in `xaas-apps` cover the same categories as their real counterparts.

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Scientific domain.
    pub domain: &'static str,
    /// Application name.
    pub name: &'static str,
    /// Architecture-specific specialization mechanism.
    pub architecture_specialization: &'static str,
    /// GPU acceleration backends.
    pub gpu_acceleration: &'static [&'static str],
    /// Parallelism models.
    pub parallelism: &'static [&'static str],
    /// Vectorization approach.
    pub vectorization: &'static str,
    /// Performance libraries used.
    pub performance_libraries: &'static [&'static str],
}

/// The nine applications of Table 1.
pub fn table1() -> Vec<CatalogEntry> {
    vec![
        CatalogEntry {
            domain: "Molecular Dynamics",
            name: "GROMACS",
            architecture_specialization: "Architecture-specific FFT",
            gpu_acceleration: &["OpenCL", "CUDA", "SYCL", "HIP"],
            parallelism: &["OpenMP", "MPI"],
            vectorization: "Automatic, many ISAs",
            performance_libraries: &["BLAS/LAPACK", "FFT (many)"],
        },
        CatalogEntry {
            domain: "Hydrodynamics",
            name: "LULESH",
            architecture_specialization: "-",
            gpu_acceleration: &[],
            parallelism: &["OpenMP", "MPI"],
            vectorization: "-",
            performance_libraries: &[],
        },
        CatalogEntry {
            domain: "Electronic Structure",
            name: "Quantum Espresso",
            architecture_specialization: "Compiler adaptations",
            gpu_acceleration: &["CUDA", "OpenACC"],
            parallelism: &["OpenMP", "MPI"],
            vectorization: "-",
            performance_libraries: &["BLAS/LAPACK", "ELPA", "ScaLAPACK", "FFT (many)"],
        },
        CatalogEntry {
            domain: "Lattice QCD",
            name: "MILC",
            architecture_specialization: "Compiler adaptations",
            gpu_acceleration: &["CUDA", "HIP", "SYCL"],
            parallelism: &["OpenMP", "MPI"],
            vectorization: "Compiler flags, many ISAs (Intel, AMD, PowerPC)",
            performance_libraries: &["LAPACK", "PRIMME", "FFTW", "QUDA"],
        },
        CatalogEntry {
            domain: "Lattice QCD",
            name: "OpenQCD",
            architecture_specialization: "Optimized for x86 CPUs",
            gpu_acceleration: &[],
            parallelism: &["OpenMP", "MPI"],
            vectorization: "Assembly (SSE, AVX, FMA3)",
            performance_libraries: &[],
        },
        CatalogEntry {
            domain: "Particle-in-Cell",
            name: "VPIC / VPIC 2.0",
            architecture_specialization: "Kokkos portability",
            gpu_acceleration: &["CUDA"],
            parallelism: &["OpenMP", "MPI"],
            vectorization: "OpenMP and V4 library (many ISAs)",
            performance_libraries: &[],
        },
        CatalogEntry {
            domain: "Cloud Physics",
            name: "CloudSC",
            architecture_specialization: "System-specific toolchains",
            gpu_acceleration: &["CUDA", "SYCL", "HIP", "OpenACC"],
            parallelism: &["OpenMP", "MPI"],
            vectorization: "-",
            performance_libraries: &["Atlas"],
        },
        CatalogEntry {
            domain: "Weather & Climate",
            name: "ICON",
            architecture_specialization: "System-specific toolchains",
            gpu_acceleration: &["CUDA", "HIP", "OpenACC"],
            parallelism: &["OpenMP", "MPI"],
            vectorization: "System-specific compiler flags",
            performance_libraries: &["BLAS/LAPACK"],
        },
        CatalogEntry {
            domain: "LLM Inference",
            name: "llama.cpp",
            architecture_specialization: "Optimization flags",
            gpu_acceleration: &[
                "CUDA", "HIP", "SYCL", "Vulkan", "Metal", "OpenCL", "CANN", "MUSA",
            ],
            parallelism: &["OpenMP", "pthreads"],
            vectorization: "Intrinsics (AVX, AVX2, AVX512, AMX, NEON, ...)",
            performance_libraries: &["OpenBLAS", "MKL", "BLIS"],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_nine_applications() {
        let entries = table1();
        assert_eq!(entries.len(), 9);
        let names: Vec<_> = entries.iter().map(|e| e.name).collect();
        assert!(names.contains(&"GROMACS"));
        assert!(names.contains(&"LULESH"));
        assert!(names.contains(&"llama.cpp"));
    }

    #[test]
    fn gromacs_supports_four_gpu_backends_and_llamacpp_eight() {
        let entries = table1();
        let gromacs = entries.iter().find(|e| e.name == "GROMACS").unwrap();
        assert_eq!(gromacs.gpu_acceleration.len(), 4);
        let llama = entries.iter().find(|e| e.name == "llama.cpp").unwrap();
        assert_eq!(llama.gpu_acceleration.len(), 8);
    }

    #[test]
    fn lulesh_has_no_gpu_and_no_libraries() {
        let entries = table1();
        let lulesh = entries.iter().find(|e| e.name == "LULESH").unwrap();
        assert!(lulesh.gpu_acceleration.is_empty());
        assert!(lulesh.performance_libraries.is_empty());
        assert_eq!(lulesh.parallelism, &["OpenMP", "MPI"]);
    }

    #[test]
    fn every_entry_names_a_domain_and_parallelism_model() {
        for entry in table1() {
            assert!(!entry.domain.is_empty());
            assert!(!entry.parallelism.is_empty());
        }
    }
}
