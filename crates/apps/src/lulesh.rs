//! mini-LULESH: the hydrodynamics proxy application.
//!
//! LULESH is the paper's running example for configuration explosion (Section 4.3): two
//! specialization points — MPI and OpenMP — yield four build configurations, and with
//! five source files per build the naive sweep compiles 20 translation units that the
//! pipeline reduces to 14. The synthetic project reproduces exactly that structure.

use std::collections::BTreeMap;
use xaas_buildsys::{
    BuildOption, OptionCategory, OptionEffects, ProjectSpec, SourceSpec, TargetKind, TargetSpec,
};
use xaas_hpcsim::{KernelClass, KernelWork, Workload};

/// Build script of the mini-LULESH project.
pub const BUILD_SCRIPT: &str = r#"
# mini-LULESH build configuration
project(mini-lulesh)
option(WITH_MPI "Enable MPI domain decomposition" OFF)
option(WITH_OPENMP "Enable OpenMP threading" ON)
"#;

/// Build the mini-LULESH project specification (five source files, MPI × OpenMP).
pub fn project() -> ProjectSpec {
    let mpi_on = OptionEffects {
        definitions: vec!["-DUSE_MPI=1".into()],
        enables_tags: vec!["mpi".into()],
        dependencies: vec!["mpich".into()],
        ..Default::default()
    };
    let openmp_on = OptionEffects {
        definitions: vec!["-DUSE_OPENMP".into()],
        compile_flags: vec!["-fopenmp".into()],
        ..Default::default()
    };

    let sources = vec![
        SourceSpec::new(
            "src/lulesh.ck",
            r#"
// main time-stepping driver
kernel void lagrange_leapfrog(float* e, float* p, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i = i + 1) {
        e[i] = e[i] + p[i] * 0.5;
    }
}
"#,
        ),
        SourceSpec::new(
            "src/lulesh_forces.ck",
            r#"
// hourglass force / stress integration
kernel void calc_forces(float* f, float* x, int n) {
    #pragma omp parallel for
    for (int i = 1; i < n; i = i + 1) {
        f[i] = (x[i] - x[i - 1]) * 0.25;
    }
}
"#,
        ),
        SourceSpec::new(
            "src/lulesh_eos.ck",
            r#"
// equation of state evaluation — pure numerical code, no OpenMP constructs
kernel void eval_eos(float* p, float* e, float* v, int n) {
    for (int i = 0; i < n; i = i + 1) {
        p[i] = e[i] * v[i] * 0.6666;
    }
}
"#,
        ),
        SourceSpec::new(
            "src/lulesh_util.ck",
            r#"
// reductions and diagnostics — no OpenMP constructs
float total_energy(float* e, int n) {
    float acc = 0.0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + e[i]; }
    return acc;
}
"#,
        ),
        SourceSpec::new(
            "src/lulesh_comm.ck",
            r#"
// domain-boundary exchange: MPI path vs single-domain copy
#ifdef USE_MPI
kernel void comm_sbn(float* send, float* recv, int n) {
    for (int i = 0; i < n; i = i + 1) { recv[i] = send[i]; }
}
#endif
#if !defined(USE_MPI)
kernel void comm_sbn(float* send, float* recv, int n) {
    for (int i = 0; i < n; i = i + 1) { recv[i] = send[i] * 1.0; }
}
#endif
"#,
        ),
    ];
    let paths: Vec<String> = sources.iter().map(|s| s.path.clone()).collect();

    ProjectSpec {
        name: "mini-lulesh".into(),
        version: "2.0".into(),
        build_script: BUILD_SCRIPT.into(),
        options: vec![
            BuildOption::boolean(
                "WITH_MPI",
                "MPI domain decomposition",
                OptionCategory::Parallelism,
                false,
                mpi_on,
            ),
            BuildOption::boolean(
                "WITH_OPENMP",
                "OpenMP threading",
                OptionCategory::Parallelism,
                true,
                openmp_on,
            ),
        ],
        sources,
        headers: BTreeMap::new(),
        targets: vec![TargetSpec::new("lulesh2.0", TargetKind::Executable, paths)],
        custom_targets: vec![],
        global_flags: vec!["-O3".into()],
        mpi_abi: Some("mpich".into()),
    }
}

/// A LULESH workload: `size^3` elements for `iterations` time steps.
pub fn workload(size: u32, iterations: u32) -> Workload {
    let elements = f64::from(size).powi(3);
    let scalar_per_iteration = elements * 2.4e-6;
    let total = scalar_per_iteration * f64::from(iterations);
    Workload {
        name: format!("LULESH -s {size} -i {iterations}"),
        kernels: vec![
            KernelWork {
                name: "stress_and_hourglass".into(),
                class: KernelClass::StencilHydro,
                scalar_reference_seconds: total * 0.7,
            },
            KernelWork {
                name: "eos".into(),
                class: KernelClass::StencilHydro,
                scalar_reference_seconds: total * 0.25,
            },
            KernelWork {
                name: "reductions".into(),
                class: KernelClass::SerialSetup,
                scalar_reference_seconds: total * 0.05,
            },
        ],
        io_seconds: 0.2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xaas_buildsys::{all_combinations, configure};
    use xaas_xir::{CompileFlags, Compiler};

    #[test]
    fn two_options_give_four_configurations_of_five_files() {
        let project = project();
        assert_eq!(project.source_count(), 5);
        let options: Vec<&BuildOption> = project.options.iter().collect();
        let combos = all_combinations(&options);
        assert_eq!(combos.len(), 4);
        // Every configuration compiles all five files (MPI only switches code paths
        // inside lulesh_comm.ck, it does not add or remove files).
        for assignment in combos {
            let build = configure(&project, &assignment, "/build/x", None).unwrap();
            assert_eq!(build.translation_units(), 5, "{}", assignment.label());
        }
    }

    #[test]
    fn mpi_definition_changes_only_the_comm_file() {
        let project = project();
        let compiler = Compiler::new();
        let comm = project.source("src/lulesh_comm.ck").unwrap();
        let eos = project.source("src/lulesh_eos.ck").unwrap();
        let plain_flags = CompileFlags::parse(["-O3".to_string()]);
        let mpi_flags = CompileFlags::parse(["-O3".to_string(), "-DUSE_MPI=1".to_string()]);
        let comm_plain = compiler
            .preprocess_only("comm.ck", &comm.content, &plain_flags)
            .unwrap();
        let comm_mpi = compiler
            .preprocess_only("comm.ck", &comm.content, &mpi_flags)
            .unwrap();
        assert_ne!(comm_plain.content_hash(), comm_mpi.content_hash());
        let eos_plain = compiler
            .preprocess_only("eos.ck", &eos.content, &plain_flags)
            .unwrap();
        let eos_mpi = compiler
            .preprocess_only("eos.ck", &eos.content, &mpi_flags)
            .unwrap();
        assert_eq!(eos_plain.content_hash(), eos_mpi.content_hash());
    }

    #[test]
    fn openmp_flag_is_irrelevant_for_eos_and_util() {
        let project = project();
        let compiler = Compiler::new();
        for path in ["src/lulesh_eos.ck", "src/lulesh_util.ck"] {
            let source = project.source(path).unwrap();
            let unit = compiler
                .preprocess_only(path, &source.content, &CompileFlags::default())
                .unwrap();
            assert!(!unit.mentions_openmp(), "{path} should not use OpenMP");
        }
        for path in ["src/lulesh.ck", "src/lulesh_forces.ck"] {
            let source = project.source(path).unwrap();
            let unit = compiler
                .preprocess_only(path, &source.content, &CompileFlags::default())
                .unwrap();
            assert!(unit.mentions_openmp(), "{path} should use OpenMP");
        }
    }

    #[test]
    fn workload_scales_with_problem_size() {
        let small = workload(30, 100);
        let large = workload(60, 100);
        assert!(large.scalar_reference_total() > 7.0 * small.scalar_reference_total());
        assert_eq!(small.kernels.len(), 3);
    }

    #[test]
    fn build_script_parses() {
        let script = xaas_buildsys::parse_script(BUILD_SCRIPT).unwrap();
        assert_eq!(script.project_name(), Some("mini-lulesh"));
        assert_eq!(script.options().len(), 2);
    }
}
