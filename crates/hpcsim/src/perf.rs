//! Analytic performance model for executing workloads under a given build configuration
//! on a given system.
//!
//! The paper's figures report wall-clock times on four physical systems we cannot access,
//! so this module substitutes a calibrated analytic model: kernel time is derived from a
//! machine-independent *scalar reference time* scaled by (a) the CPU's scalar throughput,
//! (b) a SIMD speedup derived from the build's vectorization level via a specialised-
//! kernel-path bonus plus an Amdahl term, (c) thread scaling, (d) a library-quality
//! factor for BLAS/FFT-backed kernels, or — when the build enables a GPU backend the
//! system supports — a GPU throughput factor discounted by backend efficiency (SYCL on
//! CUDA hardware pays the 11–20% penalty reported in Section 6.3.1). The calibration
//! targets the *relative* behaviour of Figures 2, 10, 11 and 12: who wins, by what
//! factor, and where the crossovers fall.

use crate::cpu::{IsaFamily, SimdLevel};
use crate::gpu::{GpuBackend, GpuVendor};
use crate::system::SystemModel;
use std::fmt;

/// Classes of computational kernels found in the paper's applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Short-range non-bonded interactions (GROMACS): highly vectorisable, GPU-offloadable.
    MdNonbonded,
    /// Particle-mesh Ewald / FFT part of MD: library-sensitive, GPU-offloadable.
    MdPme,
    /// Bonded interactions and integration: moderately vectorisable, stays on the CPU.
    MdBonded,
    /// Dense linear algebra (BLAS-backed).
    LinearAlgebra,
    /// FFT transforms (FFTW/MKL/cuFFT-backed).
    FftTransform,
    /// Quantised matrix multiplication in LLM inference (llama.cpp style).
    LlmMatmul,
    /// Attention / softmax / element-wise parts of LLM inference.
    LlmAttention,
    /// Explicit hydrodynamics stencil (LULESH style).
    StencilHydro,
    /// Host-side FFT/BLAS work that stays on the CPU even in GPU builds (grid setup,
    /// constraint solving): this is where library choice shows up in GPU runs.
    HostFftSetup,
    /// Generic serial code (setup, I/O preparation, neighbour lists).
    SerialSetup,
}

/// Performance-relevant properties of a kernel class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Fraction of the kernel's work that the vectoriser can cover.
    pub vector_fraction: f64,
    /// Speedup of the specialised SIMD kernel path over the reference C path on x86
    /// (captures algorithmic specialisation beyond pure lane-width effects).
    pub simd_path_bonus_x86: f64,
    /// Same for ARM kernels.
    pub simd_path_bonus_arm: f64,
    /// Whether the kernel can be offloaded to a GPU when a backend is enabled.
    pub gpu_offloadable: bool,
    /// Speedup of the kernel on a V100-class GPU relative to one scalar reference core.
    pub gpu_speedup: f64,
    /// Whether the kernel's performance depends on the BLAS/FFT library choice.
    pub library_sensitive: bool,
    /// Whether the kernel parallelises across threads.
    pub parallelizable: bool,
}

impl KernelClass {
    /// The calibrated profile for this class.
    pub fn profile(&self) -> KernelProfile {
        match self {
            KernelClass::MdNonbonded => KernelProfile {
                vector_fraction: 0.85,
                simd_path_bonus_x86: 2.0,
                simd_path_bonus_arm: 1.5,
                gpu_offloadable: true,
                gpu_speedup: 900.0,
                library_sensitive: false,
                parallelizable: true,
            },
            KernelClass::MdPme => KernelProfile {
                vector_fraction: 0.70,
                simd_path_bonus_x86: 1.4,
                simd_path_bonus_arm: 1.2,
                gpu_offloadable: true,
                gpu_speedup: 600.0,
                library_sensitive: true,
                parallelizable: true,
            },
            KernelClass::MdBonded => KernelProfile {
                vector_fraction: 0.55,
                simd_path_bonus_x86: 1.3,
                simd_path_bonus_arm: 1.2,
                gpu_offloadable: true,
                gpu_speedup: 300.0,
                library_sensitive: false,
                parallelizable: true,
            },
            KernelClass::LinearAlgebra => KernelProfile {
                vector_fraction: 0.90,
                simd_path_bonus_x86: 1.2,
                simd_path_bonus_arm: 1.1,
                gpu_offloadable: true,
                gpu_speedup: 500.0,
                library_sensitive: true,
                parallelizable: true,
            },
            KernelClass::FftTransform => KernelProfile {
                vector_fraction: 0.80,
                simd_path_bonus_x86: 1.3,
                simd_path_bonus_arm: 1.2,
                gpu_offloadable: true,
                gpu_speedup: 500.0,
                library_sensitive: true,
                parallelizable: true,
            },
            KernelClass::LlmMatmul => KernelProfile {
                vector_fraction: 0.92,
                simd_path_bonus_x86: 2.2,
                simd_path_bonus_arm: 2.0,
                gpu_offloadable: true,
                gpu_speedup: 1200.0,
                library_sensitive: true,
                parallelizable: true,
            },
            KernelClass::LlmAttention => KernelProfile {
                vector_fraction: 0.75,
                simd_path_bonus_x86: 1.5,
                simd_path_bonus_arm: 1.4,
                gpu_offloadable: true,
                gpu_speedup: 800.0,
                library_sensitive: false,
                parallelizable: true,
            },
            KernelClass::StencilHydro => KernelProfile {
                vector_fraction: 0.65,
                simd_path_bonus_x86: 1.3,
                simd_path_bonus_arm: 1.2,
                gpu_offloadable: false,
                gpu_speedup: 1.0,
                library_sensitive: false,
                parallelizable: true,
            },
            KernelClass::HostFftSetup => KernelProfile {
                vector_fraction: 0.80,
                simd_path_bonus_x86: 1.3,
                simd_path_bonus_arm: 1.2,
                gpu_offloadable: false,
                gpu_speedup: 1.0,
                library_sensitive: true,
                parallelizable: true,
            },
            KernelClass::SerialSetup => KernelProfile {
                vector_fraction: 0.05,
                simd_path_bonus_x86: 1.0,
                simd_path_bonus_arm: 1.0,
                gpu_offloadable: false,
                gpu_speedup: 1.0,
                library_sensitive: false,
                parallelizable: false,
            },
        }
    }
}

/// Quality tier of a numerical library implementation selected at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibraryQuality {
    /// Vendor-tuned library (MKL, cuFFT, rocBLAS): the fastest option.
    Vendor,
    /// Well-optimised open implementation (OpenBLAS, FFTW with tuning).
    Generic,
    /// Built-in reference fallback (fftpack, hand-written loops).
    Reference,
}

impl LibraryQuality {
    /// Throughput factor relative to the vendor library.
    pub fn factor(&self) -> f64 {
        match self {
            LibraryQuality::Vendor => 1.0,
            LibraryQuality::Generic => 0.72,
            LibraryQuality::Reference => 0.38,
        }
    }
}

/// Compiler optimisation level of the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// No optimisation.
    O0,
    /// Moderate optimisation.
    O2,
    /// Aggressive optimisation (the default for specialized builds).
    O3,
}

impl OptLevel {
    /// Scalar throughput factor relative to -O3.
    pub fn factor(&self) -> f64 {
        match self {
            OptLevel::O0 => 0.16,
            OptLevel::O2 => 0.88,
            OptLevel::O3 => 1.0,
        }
    }
}

/// How a binary was produced, as far as performance is concerned.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildProfile {
    /// Human-readable label (shown in figures: "Naive Build", "XaaS Source", …).
    pub label: String,
    /// SIMD level the code was compiled for.
    pub simd: SimdLevel,
    /// GPU backend compiled in, if any.
    pub gpu_backend: Option<GpuBackend>,
    /// Threads used at run time.
    pub threads: u32,
    /// BLAS/LAPACK implementation quality.
    pub blas: LibraryQuality,
    /// FFT implementation quality.
    pub fft: LibraryQuality,
    /// Optimisation level.
    pub opt: OptLevel,
    /// Container runtime overhead factor (1.0 = bare metal; containers ≈ 1.0–1.02).
    pub container_overhead: f64,
}

impl BuildProfile {
    /// A convenience constructor with sensible defaults (O3, vendor libraries, bare metal).
    pub fn new(label: impl Into<String>, simd: SimdLevel, threads: u32) -> Self {
        Self {
            label: label.into(),
            simd,
            gpu_backend: None,
            threads,
            blas: LibraryQuality::Vendor,
            fft: LibraryQuality::Vendor,
            opt: OptLevel::O3,
            container_overhead: 1.0,
        }
    }

    /// Enable a GPU backend.
    pub fn with_gpu(mut self, backend: GpuBackend) -> Self {
        self.gpu_backend = Some(backend);
        self
    }

    /// Set library qualities.
    pub fn with_libraries(mut self, blas: LibraryQuality, fft: LibraryQuality) -> Self {
        self.blas = blas;
        self.fft = fft;
        self
    }

    /// Set the optimisation level.
    pub fn with_opt(mut self, opt: OptLevel) -> Self {
        self.opt = opt;
        self
    }

    /// Mark the build as running inside a container with the given overhead factor.
    pub fn with_container_overhead(mut self, overhead: f64) -> Self {
        self.container_overhead = overhead;
        self
    }
}

/// One kernel's share of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelWork {
    /// Name shown in reports.
    pub name: String,
    /// Kernel class.
    pub class: KernelClass,
    /// Time in seconds this kernel takes on one reference core, scalar code, -O3.
    pub scalar_reference_seconds: f64,
}

/// A workload: a named set of kernels plus an I/O component.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name (e.g. "GROMACS UEABS Test A, 200 steps").
    pub name: String,
    /// Kernels executed.
    pub kernels: Vec<KernelWork>,
    /// I/O time in seconds (reported separately; the paper excludes it from most plots).
    pub io_seconds: f64,
}

impl Workload {
    /// Total scalar reference time of the compute part.
    pub fn scalar_reference_total(&self) -> f64 {
        self.kernels
            .iter()
            .map(|k| k.scalar_reference_seconds)
            .sum()
    }
}

/// Per-kernel timing in an execution report.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTiming {
    /// Kernel name.
    pub name: String,
    /// Seconds spent.
    pub seconds: f64,
    /// Whether the kernel ran on the GPU.
    pub on_gpu: bool,
}

/// Result of executing a workload under the model.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// The build profile label.
    pub build: String,
    /// The system name.
    pub system: String,
    /// The workload name.
    pub workload: String,
    /// Per-kernel timings.
    pub kernels: Vec<KernelTiming>,
    /// Compute seconds (sum of kernel timings).
    pub compute_seconds: f64,
    /// I/O seconds.
    pub io_seconds: f64,
    /// Whether any kernel used the GPU.
    pub used_gpu: bool,
    /// Notes about fallbacks (unsupported backend, unsupported SIMD, …).
    pub notes: Vec<String>,
}

/// Errors the execution model can produce.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant payload fields are documented by the Display impl
pub enum ExecutionError {
    /// The binary uses SIMD instructions the host CPU cannot execute — the portability
    /// failure that motivates deployment-time specialization.
    IllegalInstruction { required: SimdLevel, system: String },
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::IllegalInstruction { required, system } => {
                write!(f, "illegal instruction: binary requires {required} but {system} does not support it")
            }
        }
    }
}

impl std::error::Error for ExecutionError {}

/// Efficiency of running a backend on a given GPU vendor's hardware.
pub(crate) fn backend_efficiency(backend: GpuBackend, vendor: GpuVendor) -> f64 {
    match (backend, vendor) {
        (GpuBackend::Cuda, GpuVendor::Nvidia) => 1.0,
        (GpuBackend::Sycl, GpuVendor::Nvidia) => 0.85, // SYCL+CUDA plugin, Sec. 6.3.1: 11–20% slower.
        (GpuBackend::OpenCl, GpuVendor::Nvidia) => 0.80,
        (GpuBackend::Hip, GpuVendor::Amd) => 1.0,
        (GpuBackend::Sycl, GpuVendor::Amd) => 0.85,
        (GpuBackend::OpenCl, GpuVendor::Amd) => 0.82,
        (GpuBackend::Sycl, GpuVendor::Intel) => 1.0,
        (GpuBackend::OpenCl, GpuVendor::Intel) => 0.88,
        (GpuBackend::OpenAcc, _) => 0.80,
        _ => 0.0, // Backend cannot drive this hardware at all.
    }
}

/// The execution engine: evaluates the analytic model for a system.
#[derive(Debug, Clone)]
pub struct ExecutionEngine<'a> {
    system: &'a SystemModel,
}

impl<'a> ExecutionEngine<'a> {
    /// Create an engine for a system.
    pub fn new(system: &'a SystemModel) -> Self {
        Self { system }
    }

    /// The SIMD speedup of a kernel class at a given level on this system's CPU family.
    pub(crate) fn simd_speedup(&self, class: KernelClass, level: SimdLevel) -> f64 {
        let profile = class.profile();
        if level == SimdLevel::None {
            return 1.0;
        }
        let path_bonus = match self.system.cpu.family {
            IsaFamily::Aarch64 => profile.simd_path_bonus_arm,
            _ => profile.simd_path_bonus_x86,
        };
        let f = profile.vector_fraction;
        let lane_speedup = level.effective_speedup();
        path_bonus * (1.0 / ((1.0 - f) + f / lane_speedup))
    }

    /// Execute a workload under a build profile.
    pub fn execute(
        &self,
        workload: &Workload,
        build: &BuildProfile,
    ) -> Result<ExecutionReport, ExecutionError> {
        // Portability check: the binary's SIMD level must be executable on this CPU.
        if !self.system.cpu.supports(build.simd) {
            return Err(ExecutionError::IllegalInstruction {
                required: build.simd,
                system: self.system.name.clone(),
            });
        }

        let mut notes = Vec::new();
        let gpu = self.system.primary_gpu();
        let gpu_usable = match (build.gpu_backend, gpu) {
            (Some(backend), Some(device)) => {
                if device.supports_backend(backend) {
                    true
                } else {
                    notes.push(format!(
                        "GPU backend {backend} not supported by {}; falling back to CPU",
                        device.name
                    ));
                    false
                }
            }
            (Some(backend), None) => {
                notes.push(format!(
                    "GPU backend {backend} enabled but the system has no GPU"
                ));
                false
            }
            (None, Some(_)) => {
                notes
                    .push("system has a GPU but the build does not enable any backend".to_string());
                false
            }
            (None, None) => false,
        };

        let cpu = &self.system.cpu;
        let mut kernels = Vec::with_capacity(workload.kernels.len());
        let mut used_gpu = false;
        for work in &workload.kernels {
            let profile = work.class.profile();
            let (seconds, on_gpu) = if gpu_usable && profile.gpu_offloadable {
                let device = gpu.expect("gpu_usable implies a device");
                let backend = build.gpu_backend.expect("gpu_usable implies a backend");
                let efficiency = backend_efficiency(backend, device.vendor);
                let speed = profile.gpu_speedup * device.relative_throughput * efficiency.max(1e-6);
                (work.scalar_reference_seconds / speed, true)
            } else {
                let simd_factor = self.simd_speedup(work.class, build.simd);
                let thread_factor = if profile.parallelizable {
                    cpu.thread_scaling(build.threads)
                } else {
                    1.0
                };
                let library_factor = if profile.library_sensitive {
                    match work.class {
                        KernelClass::FftTransform
                        | KernelClass::MdPme
                        | KernelClass::HostFftSetup => build.fft.factor(),
                        _ => build.blas.factor(),
                    }
                } else {
                    1.0
                };
                let speed = cpu.scalar_throughput
                    * simd_factor
                    * thread_factor
                    * library_factor
                    * build.opt.factor();
                (work.scalar_reference_seconds / speed, false)
            };
            used_gpu |= on_gpu;
            kernels.push(KernelTiming {
                name: work.name.clone(),
                seconds: seconds * build.container_overhead,
                on_gpu,
            });
        }

        let compute_seconds: f64 = kernels.iter().map(|k| k.seconds).sum();
        Ok(ExecutionReport {
            build: build.label.clone(),
            system: self.system.name.clone(),
            workload: workload.name.clone(),
            kernels,
            compute_seconds,
            io_seconds: workload.io_seconds,
            used_gpu,
            notes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemModel;

    fn md_workload() -> Workload {
        Workload {
            name: "md-test".into(),
            kernels: vec![
                KernelWork {
                    name: "nonbonded".into(),
                    class: KernelClass::MdNonbonded,
                    scalar_reference_seconds: 2300.0,
                },
                KernelWork {
                    name: "pme".into(),
                    class: KernelClass::MdPme,
                    scalar_reference_seconds: 420.0,
                },
                KernelWork {
                    name: "bonded".into(),
                    class: KernelClass::MdBonded,
                    scalar_reference_seconds: 130.0,
                },
            ],
            io_seconds: 2.0,
        }
    }

    #[test]
    fn vectorization_speedups_follow_figure_2_ordering() {
        let system = SystemModel::ault23();
        let engine = ExecutionEngine::new(&system);
        let workload = md_workload();
        let mut times = Vec::new();
        for simd in [
            SimdLevel::None,
            SimdLevel::Sse2,
            SimdLevel::Sse41,
            SimdLevel::Avx2_128,
            SimdLevel::Avx256,
            SimdLevel::Avx512,
        ] {
            let build = BuildProfile::new(simd.gmx_name(), simd, 16);
            let report = engine.execute(&workload, &build).unwrap();
            times.push((simd, report.compute_seconds));
        }
        // None is dramatically slower; each step up is at least as fast (within 2%).
        let none = times[0].1;
        let sse2 = times[1].1;
        assert!(
            none / sse2 > 4.0,
            "None -> SSE2 should be >4x: {none} vs {sse2}"
        );
        for window in times[1..].windows(2) {
            assert!(
                window[1].1 <= window[0].1 * 1.02,
                "{:?} should not be slower than {:?}",
                window[1],
                window[0]
            );
        }
        let avx512 = times.last().unwrap().1;
        let ratio = sse2 / avx512;
        assert!(
            ratio > 1.3 && ratio < 2.2,
            "SSE2 -> AVX-512 gain ~1.6x, got {ratio}"
        );
    }

    #[test]
    fn arm_speedups_follow_figure_2_right_panel() {
        let system = SystemModel::clariden();
        let engine = ExecutionEngine::new(&system);
        let workload = md_workload();
        let none = engine
            .execute(&workload, &BuildProfile::new("None", SimdLevel::None, 16))
            .unwrap()
            .compute_seconds;
        let sve = engine
            .execute(&workload, &BuildProfile::new("SVE", SimdLevel::Sve, 16))
            .unwrap()
            .compute_seconds;
        let neon = engine
            .execute(
                &workload,
                &BuildProfile::new("NEON", SimdLevel::NeonAsimd, 16),
            )
            .unwrap()
            .compute_seconds;
        assert!(
            none / sve > 2.5 && none / sve < 4.5,
            "None/SVE ≈ 3.4x, got {}",
            none / sve
        );
        assert!(neon < sve, "NEON_ASIMD slightly faster than SVE on Grace");
    }

    #[test]
    fn avx512_binary_fails_on_epyc_7742() {
        let system = SystemModel::ault25();
        let engine = ExecutionEngine::new(&system);
        let build = BuildProfile::new("AVX_512", SimdLevel::Avx512, 16);
        let err = engine.execute(&md_workload(), &build).unwrap_err();
        assert!(matches!(err, ExecutionError::IllegalInstruction { .. }));
    }

    #[test]
    fn gpu_offload_beats_cpu_and_sycl_pays_a_penalty_on_nvidia() {
        let system = SystemModel::ault23();
        let engine = ExecutionEngine::new(&system);
        let workload = md_workload();
        let cpu_only = engine
            .execute(&workload, &BuildProfile::new("cpu", SimdLevel::Avx512, 16))
            .unwrap();
        let cuda = engine
            .execute(
                &workload,
                &BuildProfile::new("cuda", SimdLevel::Avx512, 16).with_gpu(GpuBackend::Cuda),
            )
            .unwrap();
        let sycl = engine
            .execute(
                &workload,
                &BuildProfile::new("sycl", SimdLevel::Avx512, 16).with_gpu(GpuBackend::Sycl),
            )
            .unwrap();
        assert!(cuda.used_gpu && sycl.used_gpu && !cpu_only.used_gpu);
        assert!(cuda.compute_seconds < cpu_only.compute_seconds / 3.0);
        let penalty = sycl.compute_seconds / cuda.compute_seconds;
        assert!(
            penalty > 1.05 && penalty < 1.35,
            "SYCL on CUDA hardware 11-20% slower, got {penalty}"
        );
    }

    #[test]
    fn cuda_build_falls_back_to_cpu_on_aurora() {
        let system = SystemModel::aurora();
        let engine = ExecutionEngine::new(&system);
        let build = BuildProfile::new("cuda", SimdLevel::Avx512, 52).with_gpu(GpuBackend::Cuda);
        let report = engine.execute(&md_workload(), &build).unwrap();
        assert!(!report.used_gpu);
        assert!(report.notes.iter().any(|n| n.contains("not supported")));
    }

    #[test]
    fn library_quality_affects_only_library_sensitive_kernels() {
        let system = SystemModel::ault01_04();
        let engine = ExecutionEngine::new(&system);
        let workload = md_workload();
        let vendor = engine
            .execute(&workload, &BuildProfile::new("mkl", SimdLevel::Avx512, 36))
            .unwrap();
        let generic = engine
            .execute(
                &workload,
                &BuildProfile::new("openblas", SimdLevel::Avx512, 36)
                    .with_libraries(LibraryQuality::Generic, LibraryQuality::Generic),
            )
            .unwrap();
        assert!(generic.compute_seconds > vendor.compute_seconds);
        // Non-library kernels are identical.
        let v_nb = vendor
            .kernels
            .iter()
            .find(|k| k.name == "nonbonded")
            .unwrap()
            .seconds;
        let g_nb = generic
            .kernels
            .iter()
            .find(|k| k.name == "nonbonded")
            .unwrap()
            .seconds;
        assert!((v_nb - g_nb).abs() < 1e-9);
    }

    #[test]
    fn opt_level_and_container_overhead_scale_cpu_time() {
        let system = SystemModel::ault23();
        let engine = ExecutionEngine::new(&system);
        let workload = md_workload();
        let o3 = engine
            .execute(&workload, &BuildProfile::new("o3", SimdLevel::Sse2, 16))
            .unwrap();
        let o0 = engine
            .execute(
                &workload,
                &BuildProfile::new("o0", SimdLevel::Sse2, 16).with_opt(OptLevel::O0),
            )
            .unwrap();
        assert!(o0.compute_seconds > 4.0 * o3.compute_seconds);
        let contained = engine
            .execute(
                &workload,
                &BuildProfile::new("contained", SimdLevel::Sse2, 16).with_container_overhead(1.02),
            )
            .unwrap();
        let ratio = contained.compute_seconds / o3.compute_seconds;
        assert!((ratio - 1.02).abs() < 1e-6);
    }

    #[test]
    fn thread_count_reduces_time_until_saturation() {
        let system = SystemModel::ault23();
        let engine = ExecutionEngine::new(&system);
        let workload = md_workload();
        let t1 = engine
            .execute(&workload, &BuildProfile::new("t1", SimdLevel::Avx512, 1))
            .unwrap()
            .compute_seconds;
        let t16 = engine
            .execute(&workload, &BuildProfile::new("t16", SimdLevel::Avx512, 16))
            .unwrap()
            .compute_seconds;
        let t64 = engine
            .execute(&workload, &BuildProfile::new("t64", SimdLevel::Avx512, 64))
            .unwrap()
            .compute_seconds;
        assert!(t16 < t1 / 8.0);
        assert!(t64 <= t16);
    }

    #[test]
    fn report_totals_and_io_accounting() {
        let system = SystemModel::ault23();
        let engine = ExecutionEngine::new(&system);
        let report = engine
            .execute(
                &md_workload(),
                &BuildProfile::new("x", SimdLevel::Avx512, 16),
            )
            .unwrap();
        let kernel_sum: f64 = report.kernels.iter().map(|k| k.seconds).sum();
        assert!((report.compute_seconds - kernel_sum).abs() < 1e-9);
        assert!((report.io_seconds - 2.0).abs() < 1e-9);
    }
}
