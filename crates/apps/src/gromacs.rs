//! mini-GROMACS: the molecular-dynamics case study.
//!
//! The synthetic project mirrors the specialization structure of GROMACS 2025 (Table 1):
//! mutually exclusive GPU backends, many SIMD levels, MPI / thread-MPI / OpenMP, and a
//! selectable FFT/BLAS stack with a built-in fallback generated by a custom target. The
//! CK sources are small but real — the kernels run under the XIR interpreter — and the
//! workloads carry scalar-reference timings calibrated against the paper's measurements
//! (Figures 2, 10, 12).

use std::collections::BTreeMap;
use xaas_buildsys::{
    BuildOption, CustomTarget, OptionCategory, OptionEffects, OptionValue, ProjectSpec, SourceSpec,
    TargetKind, TargetSpec,
};
use xaas_hpcsim::{KernelClass, KernelWork, Workload};

/// The GROMACS-like build script parsed by specialization discovery.
pub const BUILD_SCRIPT: &str = r#"
# mini-GROMACS build configuration
project(mini-gromacs)
# Parallelism: real MPI or the internal thread-MPI implementation.
option(GMX_MPI "Build with real MPI support" OFF)
option(GMX_THREAD_MPI "Build with internal thread-MPI" ON)
option(GMX_OPENMP "Enable OpenMP multithreading" ON)
# GPU acceleration: mutually exclusive backends selected at configure time.
gmx_option_multichoice(GMX_GPU "GPU acceleration backend" OFF OFF CUDA SYCL HIP OpenCL)
# SIMD kernels; AUTO picks the best level for the build machine.
gmx_option_multichoice(GMX_SIMD "SIMD kernel level" AUTO None SSE2 SSE4.1 AVX2_128 AVX_256 AVX2_256 AVX_512 ARM_NEON_ASIMD ARM_SVE)
gmx_option_multichoice(GMX_FFT_LIBRARY "FFT library" fftw3 fftw3 mkl fftpack)
gmx_option_multichoice(GMX_GPU_FFT_LIBRARY "GPU FFT library" cuFFT cuFFT vkFFT oneMath)
gmx_option_multichoice(GMX_BLAS_LIBRARY "Linear algebra" internal internal openblas mkl)
set(GMX_FFT_LIBRARY_DEFAULT fftw3)
find_package(FFTW3 3.3)
find_package(MKL)
find_package(OpenMP)
internal_build(fftpack -DGMX_BUILD_OWN_FFTW)
"#;

fn md_source(name: &str, body: &str) -> String {
    format!("// mini-gromacs {name}\n{body}")
}

/// Build the mini-GROMACS project specification.
pub fn project() -> ProjectSpec {
    let mpi_on = OptionEffects {
        definitions: vec!["-DGMX_MPI".into()],
        enables_tags: vec!["mpi".into()],
        dependencies: vec!["mpich".into()],
        ..Default::default()
    };
    let thread_mpi_on = OptionEffects {
        definitions: vec!["-DGMX_THREAD_MPI".into()],
        enables_tags: vec!["thread_mpi".into()],
        ..Default::default()
    };
    let openmp_on = OptionEffects {
        definitions: vec!["-DGMX_OPENMP".into()],
        compile_flags: vec!["-fopenmp".into()],
        ..Default::default()
    };

    let gpu = BuildOption::choice(
        "GMX_GPU",
        "GPU acceleration backend",
        OptionCategory::GpuBackend,
        vec![
            OptionValue::plain("OFF"),
            OptionValue::plain("CUDA")
                .with_definition("-DGMX_GPU_CUDA")
                .with_dependency("cuda")
                .with_tag("gpu_cuda")
                .with_link_library("cufft"),
            OptionValue::plain("SYCL")
                .with_definition("-DGMX_GPU_SYCL")
                .with_dependency("oneapi")
                .with_tag("gpu_sycl")
                .with_link_library("onemath"),
            OptionValue::plain("HIP")
                .with_definition("-DGMX_GPU_HIP")
                .with_dependency("rocm")
                .with_tag("gpu_hip")
                .with_link_library("rocfft"),
            OptionValue::plain("OpenCL")
                .with_definition("-DGMX_GPU_OPENCL")
                .with_dependency("opencl")
                .with_tag("gpu_opencl"),
        ],
        "OFF",
    );

    let simd_values = [
        ("None", "-mno-vectorize"),
        ("SSE2", "-msse2"),
        ("SSE4.1", "-msse4.1"),
        ("AVX2_128", "-mavx2 -mprefer-vector-width=128"),
        ("AVX_256", "-mavx"),
        ("AVX2_256", "-mavx2"),
        ("AVX_512", "-mavx512f"),
        ("ARM_NEON_ASIMD", "-march=armv8-a+simd"),
        ("ARM_SVE", "-march=armv8-a+sve"),
    ];
    let simd = BuildOption::choice(
        "GMX_SIMD",
        "SIMD kernel level",
        OptionCategory::Vectorization,
        simd_values
            .iter()
            .map(|(name, flag)| {
                let mut value = OptionValue::plain(*name)
                    .with_definition(format!("-DGMX_SIMD_{}", name.replace('.', "_")));
                for part in flag.split_whitespace() {
                    value = value.with_flag(part);
                }
                value
            })
            .collect(),
        "SSE4.1",
    );

    let fft = BuildOption::choice(
        "GMX_FFT_LIBRARY",
        "FFT library",
        OptionCategory::Fft,
        vec![
            OptionValue::plain("fftw3")
                .with_definition("-DGMX_FFT_FFTW3")
                .with_dependency("fftw"),
            OptionValue::plain("mkl")
                .with_definition("-DGMX_FFT_MKL")
                .with_dependency("mkl"),
            OptionValue::plain("fftpack")
                .with_definition("-DGMX_FFT_FFTPACK")
                .with_tag("own_fft"),
        ],
        "fftw3",
    );

    let blas = BuildOption::choice(
        "GMX_BLAS_LIBRARY",
        "Linear algebra library",
        OptionCategory::LinearAlgebra,
        vec![
            OptionValue::plain("internal").with_definition("-DGMX_BLAS_INTERNAL"),
            OptionValue::plain("openblas")
                .with_definition("-DGMX_BLAS_OPENBLAS")
                .with_dependency("openblas"),
            OptionValue::plain("mkl")
                .with_definition("-DGMX_BLAS_MKL")
                .with_dependency("mkl"),
        ],
        "internal",
    );

    let headers: BTreeMap<String, String> = [
        (
            "md_types.h".to_string(),
            "#define GMX_REAL_EPS 0.000001\n".to_string(),
        ),
        (
            "simd_math.h".to_string(),
            "float rsq(float dx, float dy, float dz) { return dx * dx + dy * dy + dz * dz; }\n"
                .to_string(),
        ),
    ]
    .into_iter()
    .collect();

    let sources = vec![
        SourceSpec::new(
            "src/mdrun/nonbonded.ck",
            md_source(
                "short-range non-bonded kernel",
                r#"
#include "md_types.h"
#include "simd_math.h"
kernel void nonbonded_forces(float* fx, float* x, float* q, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i = i + 1) {
        fx[i] = fx[i] + q[i] * x[i] * GMX_REAL_EPS;
    }
}
"#,
            ),
        ),
        SourceSpec::new(
            "src/mdrun/pme_spread.ck",
            md_source(
                "PME charge spreading",
                r#"
kernel void pme_spread(float* grid, float* q, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i = i + 1) {
        grid[i] = grid[i] + q[i];
    }
}
"#,
            ),
        ),
        SourceSpec::new(
            "src/mdrun/pme_solve.ck",
            md_source(
                "PME reciprocal-space solve (FFT-library specific path)",
                r#"
#ifdef GMX_FFT_MKL
kernel void pme_solve(float* grid, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i = i + 1) { grid[i] = grid[i] * 0.5; }
}
#endif
#ifdef GMX_FFT_FFTW3
kernel void pme_solve(float* grid, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i = i + 1) { grid[i] = grid[i] * 0.5; }
}
#endif
#ifdef GMX_FFT_FFTPACK
kernel void pme_solve(float* grid, int n) {
    for (int i = 0; i < n; i = i + 1) { grid[i] = grid[i] * 0.5; }
}
#endif
"#,
            ),
        ),
        SourceSpec::new(
            "src/mdrun/bonded.ck",
            md_source(
                "bonded interactions",
                r#"
kernel void bonded_forces(float* f, float* x, int n) {
    #pragma omp parallel for
    for (int i = 1; i < n; i = i + 1) {
        f[i] = f[i] + (x[i] - x[i - 1]) * 0.1;
    }
}
"#,
            ),
        ),
        SourceSpec::new(
            "src/mdrun/integrator.ck",
            md_source(
                "leap-frog integrator",
                r#"
kernel void integrate(float* x, float* v, float* f, float dt, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i = i + 1) {
        v[i] = v[i] + f[i] * dt;
        x[i] = x[i] + v[i] * dt;
    }
}
"#,
            ),
        ),
        SourceSpec::new(
            "src/mdrun/neighborlist.ck",
            md_source(
                "neighbour-list construction (serial, not vectorisable)",
                r#"
int build_pairs(float* x, int* pairs, int n, float cutoff) {
    int count = 0;
    int i = 0;
    while (i < n) {
        if (x[i] < cutoff) {
            pairs[count] = i;
            count = count + 1;
        }
        i = i + 1;
    }
    return count;
}
"#,
            ),
        ),
        SourceSpec::new(
            "src/io/trajectory.ck",
            md_source(
                "trajectory output (no OpenMP, no SIMD benefit)",
                r#"
kernel void write_frame(float* out, float* x, int n) {
    for (int i = 0; i < n; i = i + 1) { out[i] = x[i]; }
}
"#,
            ),
        ),
        SourceSpec::new(
            "src/utils/reduction.ck",
            md_source(
                "energy reduction",
                r#"
float total_energy(float* e, int n) {
    float acc = 0.0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + e[i]; }
    return acc;
}
"#,
            ),
        ),
        SourceSpec::new(
            "src/gpu/cuda_nonbonded.ck",
            md_source(
                "CUDA non-bonded offload host glue",
                r#"
kernel void gpu_launch_nonbonded(float* fx, float* x, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i = i + 1) { fx[i] = fx[i] + x[i]; }
}
"#,
            ),
        )
        .with_tag("gpu_cuda"),
        SourceSpec::new(
            "src/gpu/sycl_nonbonded.ck",
            md_source(
                "SYCL non-bonded offload host glue",
                r#"
kernel void gpu_launch_nonbonded(float* fx, float* x, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i = i + 1) { fx[i] = fx[i] + x[i]; }
}
"#,
            ),
        )
        .with_tag("gpu_sycl"),
        SourceSpec::new(
            "src/gpu/hip_nonbonded.ck",
            md_source(
                "HIP non-bonded offload host glue",
                r#"
kernel void gpu_launch_nonbonded(float* fx, float* x, int n) {
    for (int i = 0; i < n; i = i + 1) { fx[i] = fx[i] + x[i]; }
}
"#,
            ),
        )
        .with_tag("gpu_hip"),
        SourceSpec::new(
            "src/parallel/mpi_halo.ck",
            md_source(
                "MPI halo exchange (system-dependent: MPI ABI)",
                r#"
kernel void halo_exchange(float* sendbuf, float* recvbuf, int n) {
    for (int i = 0; i < n; i = i + 1) { recvbuf[i] = sendbuf[i]; }
}
"#,
            ),
        )
        .with_tag("mpi"),
        SourceSpec::new(
            "src/parallel/thread_mpi.ck",
            md_source(
                "thread-MPI shim",
                r#"
kernel void tmpi_barrier(int* state, int ranks) {
    for (int i = 0; i < ranks; i = i + 1) { state[i] = 1; }
}
"#,
            ),
        )
        .with_tag("thread_mpi"),
    ];

    let all_paths: Vec<String> = sources.iter().map(|s| s.path.clone()).collect();
    let mut lib_sources: Vec<String> = all_paths
        .iter()
        .filter(|p| !p.starts_with("src/io"))
        .cloned()
        .collect();
    lib_sources.push("generated/own_fft.ck".to_string());

    ProjectSpec {
        name: "mini-gromacs".into(),
        version: "2025.0".into(),
        build_script: BUILD_SCRIPT.into(),
        options: vec![
            BuildOption::boolean(
                "GMX_MPI",
                "Build with real MPI",
                OptionCategory::Parallelism,
                false,
                mpi_on,
            ),
            BuildOption::boolean(
                "GMX_THREAD_MPI",
                "Internal thread-MPI",
                OptionCategory::Parallelism,
                true,
                thread_mpi_on,
            ),
            BuildOption::boolean(
                "GMX_OPENMP",
                "OpenMP threading",
                OptionCategory::Parallelism,
                true,
                openmp_on,
            ),
            gpu,
            simd,
            fft,
            blas,
        ],
        sources,
        headers,
        targets: vec![
            TargetSpec::new("libgromacs", TargetKind::Library, lib_sources),
            TargetSpec::new(
                "gmx",
                TargetKind::Executable,
                vec!["src/io/trajectory.ck".into()],
            )
            .linking("libgromacs"),
        ],
        custom_targets: vec![CustomTarget {
            name: "build_own_fftw".into(),
            product: SourceSpec::new(
                "generated/own_fft.ck",
                md_source(
                    "built-in FFT fallback",
                    r#"
kernel void fft_forward(float* re, float* im, int n) {
    for (int i = 0; i < n; i = i + 1) {
        re[i] = re[i] * 0.7 - im[i] * 0.3;
        im[i] = im[i] * 0.7 + re[i] * 0.3;
    }
}
"#,
                ),
            )
            .with_tag("own_fft"),
        }],
        global_flags: vec!["-O3".into()],
        mpi_abi: Some("mpich".into()),
    }
}

/// UEABS-like test case A (GluCl-style, ~150k atoms): per-step scalar reference seconds.
const TEST_A_SCALAR_PER_STEP: f64 = 0.97;
/// UEABS-like test case B (lignocellulose-style, ~3M atoms): per-step scalar reference seconds.
const TEST_B_SCALAR_PER_STEP: f64 = 20.8;

fn md_workload(name: &str, scalar_per_step: f64, steps: u32, io_seconds: f64) -> Workload {
    let total = scalar_per_step * f64::from(steps);
    Workload {
        name: name.to_string(),
        kernels: vec![
            KernelWork {
                name: "nonbonded".into(),
                class: KernelClass::MdNonbonded,
                scalar_reference_seconds: total * 0.84,
            },
            KernelWork {
                name: "pme".into(),
                class: KernelClass::MdPme,
                scalar_reference_seconds: total * 0.08,
            },
            KernelWork {
                name: "bonded".into(),
                class: KernelClass::MdBonded,
                scalar_reference_seconds: total * 0.04,
            },
            KernelWork {
                name: "pme_host_grid".into(),
                class: KernelClass::HostFftSetup,
                scalar_reference_seconds: total * 0.04,
            },
        ],
        io_seconds,
    }
}

/// UEABS test case A with the given number of MD steps.
pub fn workload_test_a(steps: u32) -> Workload {
    md_workload(
        &format!("GROMACS UEABS Test A ({steps} steps)"),
        TEST_A_SCALAR_PER_STEP,
        steps,
        1.5,
    )
}

/// UEABS test case B with the given number of MD steps.
pub fn workload_test_b(steps: u32) -> Workload {
    md_workload(
        &format!("GROMACS UEABS Test B ({steps} steps)"),
        TEST_B_SCALAR_PER_STEP,
        steps,
        4.0,
    )
}

/// The Figure 2 workload: 100 timesteps of the large test case, 16 threads.
pub fn figure2_workload() -> Workload {
    md_workload(
        "GROMACS vectorization study (100 steps)",
        TEST_B_SCALAR_PER_STEP,
        100,
        0.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xaas_buildsys::{all_combinations, configure, OptionAssignment};
    use xaas_xir::{CompileFlags, Compiler, Value};

    #[test]
    fn project_has_the_table_1_specialization_categories() {
        let project = project();
        let categories: Vec<OptionCategory> = project.options.iter().map(|o| o.category).collect();
        assert!(categories.contains(&OptionCategory::GpuBackend));
        assert!(categories.contains(&OptionCategory::Vectorization));
        assert!(categories.contains(&OptionCategory::Parallelism));
        assert!(categories.contains(&OptionCategory::Fft));
        assert!(categories.contains(&OptionCategory::LinearAlgebra));
        // Four GPU backends plus OFF, nine SIMD levels.
        assert_eq!(project.option("GMX_GPU").unwrap().value_names().len(), 5);
        assert_eq!(project.option("GMX_SIMD").unwrap().value_names().len(), 9);
    }

    #[test]
    fn default_configuration_builds_cpu_only() {
        let project = project();
        let build = configure(&project, &OptionAssignment::new(), "/build/default", None).unwrap();
        assert!(build
            .enabled_sources
            .iter()
            .all(|s| !s.path.starts_with("src/gpu/")));
        assert!(build
            .enabled_sources
            .iter()
            .any(|s| s.path == "src/parallel/thread_mpi.ck"));
        assert!(!build
            .enabled_sources
            .iter()
            .any(|s| s.path == "src/parallel/mpi_halo.ck"));
        assert!(build.compile_flags.contains(&"-fopenmp"));
    }

    #[test]
    fn cuda_configuration_enables_gpu_glue_and_cufft() {
        let project = project();
        let assignment = OptionAssignment::new().with("GMX_GPU", "CUDA");
        let build = configure(&project, &assignment, "/build/cuda", None).unwrap();
        assert!(build
            .enabled_sources
            .iter()
            .any(|s| s.path == "src/gpu/cuda_nonbonded.ck"));
        assert!(!build
            .enabled_sources
            .iter()
            .any(|s| s.path == "src/gpu/sycl_nonbonded.ck"));
        assert!(build.dependencies.contains(&"cuda"));
        assert!(build.link_libraries.contains(&"cufft"));
    }

    #[test]
    fn every_enabled_source_compiles_to_ir() {
        let project = project();
        let assignment = OptionAssignment::new()
            .with("GMX_GPU", "CUDA")
            .with("GMX_MPI", "ON");
        let build = configure(&project, &assignment, "/build/full", None).unwrap();
        let mut compiler = Compiler::new();
        for (name, content) in &project.headers {
            compiler.add_header(name.clone(), content.clone());
        }
        for command in &build.compile_db.commands {
            let flags = CompileFlags::parse(command.arguments.iter().cloned());
            let module = compiler
                .compile_to_ir(command.file(), &command.source.content, &flags)
                .unwrap_or_else(|e| panic!("{} failed: {e}", command.file()));
            assert!(!module.functions.is_empty());
        }
    }

    #[test]
    fn nonbonded_kernel_executes_correctly() {
        let project = project();
        let source = project.source("src/mdrun/integrator.ck").unwrap();
        let compiler = Compiler::new();
        let module = compiler
            .compile_to_ir(
                "integrator.ck",
                &source.content,
                &CompileFlags::parse(["-O3".to_string()]),
            )
            .unwrap();
        let interp = xaas_xir::Interpreter::new(&module);
        let result = interp
            .run(
                "integrate",
                vec![
                    Value::FloatBuffer(vec![0.0; 4]),
                    Value::FloatBuffer(vec![1.0; 4]),
                    Value::FloatBuffer(vec![2.0; 4]),
                    Value::Float(0.5),
                    Value::Int(4),
                ],
            )
            .unwrap();
        let x = result.buffers["x"].as_float_buffer().unwrap();
        // v = 1 + 2*0.5 = 2, x = 0 + 2*0.5 = 1.
        assert!(x.iter().all(|&v| (v - 1.0).abs() < 1e-9));
    }

    #[test]
    fn simd_sweep_produces_one_configuration_per_level() {
        let project = project();
        let simd = project.option("GMX_SIMD").unwrap();
        let combos = all_combinations(&[simd]);
        assert_eq!(combos.len(), 9);
    }

    #[test]
    fn workloads_scale_with_steps_and_case() {
        let a_200 = workload_test_a(200);
        let a_400 = workload_test_a(400);
        assert!(
            (a_400.scalar_reference_total() / a_200.scalar_reference_total() - 2.0).abs() < 1e-9
        );
        let b = workload_test_b(200);
        assert!(b.scalar_reference_total() > 10.0 * a_200.scalar_reference_total());
        assert_eq!(figure2_workload().io_seconds, 0.0);
    }

    #[test]
    fn build_script_parses_and_mentions_all_options() {
        let script = xaas_buildsys::parse_script(BUILD_SCRIPT).unwrap();
        assert_eq!(script.project_name(), Some("mini-gromacs"));
        assert!(script.options().len() >= 7);
    }
}
