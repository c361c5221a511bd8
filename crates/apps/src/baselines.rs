//! Baseline build profiles for the portability experiments (Figures 10 and 11).
//!
//! Each figure compares the XaaS source-container deployment against the builds a user
//! could otherwise obtain: a naive build following the documentation's default command, a
//! native build tuned by hand, Spack installations (default and explicitly optimised),
//! hand-written specialized containers, and system-provided modules. The profiles encode
//! the paper's observations about each baseline (naive builds miss the GPU, default Spack
//! picks OpenBLAS, Aurora needs a documentation-only compile definition, …).

use xaas_hpcsim::{
    BuildProfile, GpuBackend, GpuVendor, LibraryQuality, OptLevel, SimdLevel, SystemModel,
};

/// The GPU backend a specialized build would pick on this system, if any.
pub fn preferred_gpu_backend(system: &SystemModel) -> Option<GpuBackend> {
    let gpu = system.primary_gpu()?;
    Some(match gpu.vendor {
        GpuVendor::Nvidia => GpuBackend::Cuda,
        GpuVendor::Amd => GpuBackend::Hip,
        GpuVendor::Intel => GpuBackend::Sycl,
    })
}

/// The library quality available from the system's module environment.
fn module_library_quality(system: &SystemModel) -> LibraryQuality {
    if system.has_vendor_blas() {
        LibraryQuality::Vendor
    } else {
        LibraryQuality::Generic
    }
}

/// Threads used by the single-node GROMACS runs (the paper pins 16 OpenMP threads on the
/// Ault systems and uses larger counts on Aurora/Clariden).
fn gromacs_threads(system: &SystemModel) -> u32 {
    system.cpu.total_cores().min(36)
}

/// GROMACS baselines for Figure 10 on one system, in plot order.
pub fn gromacs_baselines(system: &SystemModel) -> Vec<BuildProfile> {
    let native_simd = system.cpu.best_simd();
    let threads = gromacs_threads(system);
    let gpu = preferred_gpu_backend(system);
    let module_quality = module_library_quality(system);
    let mut baselines = Vec::new();

    // Naive build: the documentation's default CMake command. GPU acceleration is not
    // enabled even when CUDA modules are loaded; MKL is still picked up from modules.
    baselines.push(
        BuildProfile::new("Naive Build", SimdLevel::Sse41, threads)
            .with_libraries(module_quality, module_quality)
            .with_opt(OptLevel::O2),
    );

    // Native build: tuned by hand on the node, GPU enabled, native SIMD.
    let mut native = BuildProfile::new("Native Build", native_simd, threads)
        .with_libraries(module_quality, module_quality);
    if let Some(backend) = gpu {
        native = native.with_gpu(backend);
    }
    baselines.push(native);

    // Spack default: GPU + MPI variants, but the solver picks OpenBLAS/FFTW, hurting the
    // CPU part of the application.
    let mut spack = BuildProfile::new("Spack", native_simd, threads)
        .with_libraries(LibraryQuality::Generic, LibraryQuality::Generic);
    if let Some(backend) = gpu {
        spack = spack.with_gpu(backend);
    }
    baselines.push(spack);

    // Spack with explicit MKL selection: close to the XaaS source container.
    let mut spack_opt = BuildProfile::new("Spack Optimized", native_simd, threads)
        .with_libraries(module_quality, module_quality);
    if let Some(backend) = gpu {
        spack_opt = spack_opt.with_gpu(backend);
    }
    baselines.push(spack_opt);

    // XaaS source container: specialization points selected from the intersection,
    // running inside the container runtime (negligible overhead).
    let mut xaas = BuildProfile::new("XaaS Source", native_simd, threads)
        .with_libraries(module_quality, module_quality)
        .with_container_overhead(1.01);
    if let Some(backend) = gpu {
        xaas = xaas.with_gpu(backend);
    }
    baselines.push(xaas);

    if system.name == "Aurora" {
        // The default source container misses the Intel-Max-only compile definition that
        // only appears in the documentation, so it runs CPU-only (Section 6.3.1).
        baselines.push(
            BuildProfile::new("XaaS Source (no fix)", native_simd, threads)
                .with_libraries(module_quality, module_quality)
                .with_container_overhead(1.01),
        );
        // Hand-written specialized container and the system module, both GPU-capable.
        baselines.push(
            BuildProfile::new("Specialized Container", native_simd, threads)
                .with_libraries(module_quality, module_quality)
                .with_gpu(GpuBackend::Sycl)
                .with_container_overhead(1.01),
        );
        baselines.push(
            BuildProfile::new("Module", native_simd, threads)
                .with_libraries(module_quality, module_quality)
                .with_gpu(GpuBackend::Sycl),
        );
    }
    baselines
}

/// The portable SYCL container of Section 6.3.1 ("Portable Container"): GPU-capable on
/// NVIDIA hardware only through the CUDA plugin, 11–20% slower, one GPU architecture at a
/// time.
#[cfg(test)]
pub(crate) fn gromacs_portable_sycl_container(system: &SystemModel) -> BuildProfile {
    BuildProfile::new(
        "Portable SYCL Container",
        system.cpu.best_simd(),
        gromacs_threads(system),
    )
    .with_libraries(LibraryQuality::Vendor, LibraryQuality::Vendor)
    .with_gpu(GpuBackend::Sycl)
    .with_container_overhead(1.01)
}

/// llama.cpp baselines for Figure 11 on one system, in plot order.
pub fn llamacpp_baselines(system: &SystemModel) -> Vec<BuildProfile> {
    let threads = system.cpu.total_cores();
    let gpu = preferred_gpu_backend(system);
    let mut baselines = Vec::new();

    // Naive default build: portable CPU kernels, no GPU backend, no BLAS.
    baselines.push(
        BuildProfile::new("Naive Build", SimdLevel::Sse41, threads)
            .with_libraries(LibraryQuality::Generic, LibraryQuality::Generic)
            .with_opt(OptLevel::O2),
    );

    // Specialized bare-metal build.
    let mut specialized = BuildProfile::new("Specialized", system.cpu.best_simd(), threads)
        .with_libraries(LibraryQuality::Vendor, LibraryQuality::Vendor);
    if let Some(backend) = gpu {
        specialized = specialized.with_gpu(backend);
    }
    baselines.push(specialized.clone());

    // Specialized container (not built on Aurora in the paper).
    if system.name != "Aurora" {
        let mut container = specialized.clone();
        container.label = "Specialized Container".into();
        container.container_overhead = 1.01;
        baselines.push(container);
    }

    // XaaS source container.
    let mut xaas = specialized;
    xaas.label = "XaaS Source Container".into();
    xaas.container_overhead = 1.01;
    baselines.push(xaas);

    baselines
}

/// Naive ARM builds fall back to NEON rather than SSE; correct the naive profile's SIMD
/// level for the system's ISA family so the binary can actually execute.
pub(crate) fn portable_fallback_simd(system: &SystemModel) -> SimdLevel {
    match system.cpu.family {
        xaas_hpcsim::IsaFamily::Aarch64 => SimdLevel::NeonAsimd,
        _ => SimdLevel::Sse41,
    }
}

/// Adjust baseline profiles so their SIMD level is executable on the target system (the
/// portable-binary levels differ between x86 and ARM).
pub fn make_executable(mut profiles: Vec<BuildProfile>, system: &SystemModel) -> Vec<BuildProfile> {
    for profile in &mut profiles {
        if !system.cpu.supports(profile.simd) {
            profile.simd = portable_fallback_simd(system);
        }
    }
    profiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gromacs;
    use crate::llamacpp;
    use xaas_hpcsim::ExecutionEngine;

    #[test]
    fn preferred_backends_per_system() {
        assert_eq!(
            preferred_gpu_backend(&SystemModel::ault23()),
            Some(GpuBackend::Cuda)
        );
        assert_eq!(
            preferred_gpu_backend(&SystemModel::aurora()),
            Some(GpuBackend::Sycl)
        );
        assert_eq!(preferred_gpu_backend(&SystemModel::ault01_04()), None);
    }

    #[test]
    fn figure_10_ordering_naive_worst_xaas_best_on_ault23() {
        let system = SystemModel::ault23();
        let engine = ExecutionEngine::new(&system);
        let workload = gromacs::workload_test_a(1000);
        let profiles = make_executable(gromacs_baselines(&system), &system);
        let mut times = std::collections::BTreeMap::new();
        for profile in &profiles {
            let report = engine.execute(&workload, profile).unwrap();
            times.insert(profile.label.clone(), report.compute_seconds);
        }
        assert!(
            times["Naive Build"] > 2.0 * times["XaaS Source"],
            "naive misses the GPU"
        );
        assert!(
            times["Spack"] > times["Spack Optimized"],
            "default Spack picks OpenBLAS"
        );
        let ratio = times["XaaS Source"] / times["Native Build"];
        assert!(
            ratio < 1.05,
            "XaaS source matches the native build: {ratio}"
        );
    }

    #[test]
    fn aurora_unfixed_source_container_is_cpu_only() {
        let system = SystemModel::aurora();
        let engine = ExecutionEngine::new(&system);
        let workload = gromacs::workload_test_b(1000);
        let profiles = make_executable(gromacs_baselines(&system), &system);
        let unfixed = profiles
            .iter()
            .find(|p| p.label == "XaaS Source (no fix)")
            .unwrap();
        let fixed = profiles.iter().find(|p| p.label == "XaaS Source").unwrap();
        let unfixed_report = engine.execute(&workload, unfixed).unwrap();
        let fixed_report = engine.execute(&workload, fixed).unwrap();
        assert!(!unfixed_report.used_gpu);
        assert!(fixed_report.used_gpu);
        assert!(unfixed_report.compute_seconds > fixed_report.compute_seconds);
    }

    #[test]
    fn figure_11_naive_is_far_slower_than_gpu_builds_everywhere() {
        for system in [
            SystemModel::ault23(),
            SystemModel::aurora(),
            SystemModel::clariden(),
        ] {
            let engine = ExecutionEngine::new(&system);
            let workload = llamacpp::benchmark_workload(512, 128);
            let profiles = make_executable(llamacpp_baselines(&system), &system);
            let naive = engine
                .execute(
                    &workload,
                    profiles.iter().find(|p| p.label == "Naive Build").unwrap(),
                )
                .unwrap();
            let xaas = engine
                .execute(
                    &workload,
                    profiles
                        .iter()
                        .find(|p| p.label == "XaaS Source Container")
                        .unwrap(),
                )
                .unwrap();
            assert!(!naive.used_gpu);
            assert!(xaas.used_gpu);
            let ratio = naive.compute_seconds / xaas.compute_seconds;
            assert!(ratio > 1.5, "{}: naive/xaas ratio {ratio}", system.name);
        }
    }

    #[test]
    fn portable_sycl_container_pays_the_cuda_plugin_penalty() {
        let system = SystemModel::ault23();
        let engine = ExecutionEngine::new(&system);
        let workload = gromacs::workload_test_a(1000);
        let portable = engine
            .execute(&workload, &gromacs_portable_sycl_container(&system))
            .unwrap();
        let xaas = engine
            .execute(
                &workload,
                make_executable(gromacs_baselines(&system), &system)
                    .iter()
                    .find(|p| p.label == "XaaS Source")
                    .unwrap(),
            )
            .unwrap();
        let penalty = portable.compute_seconds / xaas.compute_seconds;
        assert!(
            penalty > 1.08 && penalty < 1.35,
            "SYCL portable container 11-20% slower: {penalty}"
        );
    }

    #[test]
    fn make_executable_fixes_sse_profiles_on_arm() {
        let system = SystemModel::clariden();
        let profiles = make_executable(llamacpp_baselines(&system), &system);
        for profile in &profiles {
            assert!(
                system.cpu.supports(profile.simd),
                "{} not executable",
                profile.label
            );
        }
    }
}
