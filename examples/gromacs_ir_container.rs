//! IR containers end to end: sweep the mini-GROMACS vectorization levels, build one
//! deduplicated IR container, and deploy it to several CPU targets — then show that the
//! deployed kernels produce identical numerical results at every vector width.
//!
//! ```sh
//! cargo run --example gromacs_ir_container
//! ```

use xaas::prelude::*;
use xaas_apps::gromacs;
use xaas_buildsys::OptionAssignment;
use xaas_hpcsim::{ExecutionEngine, SimdLevel, SystemModel};
use xaas_xir::{Interpreter, Value};

fn main() {
    let project = gromacs::project();
    let store = ImageStore::new();

    // Build the IR container once, sweeping five x86 vectorization levels (plus CUDA).
    let pipeline = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD", "GMX_GPU"])
        .with_values(
            "GMX_SIMD",
            &["SSE4.1", "AVX2_128", "AVX_256", "AVX2_256", "AVX_512"],
        )
        .with_values("GMX_GPU", &["OFF", "CUDA"]);
    let orch = Orchestrator::uncached(&store);
    let build = IrBuildRequest::new(&project, &pipeline)
        .reference("spcl/mini-gromacs:ir-x86")
        .submit(&orch)
        .expect("IR container builds");

    let stats = build.stats;
    println!("IR container: {}", build.reference);
    println!(
        "  configurations: {}   translation units: {}   IR files built: {}   reduction: {:.1}%",
        stats.configurations,
        stats.total_translation_units,
        stats.ir_files_built(),
        stats.reduction_percent()
    );
    println!(
        "  system-independent files: {}   system-dependent files: {}",
        stats.system_independent_files, stats.system_dependent_files
    );
    let h1 = hypothesis1(&stats);
    let h2 = hypothesis2(&project);
    println!(
        "  Hypothesis 1 holds: {}   Hypothesis 2 holds: {} (S_I fraction {:.2})",
        h1.holds, h2.holds, h2.independent_fraction
    );

    // Deploy the same container at three vectorization levels and compare.
    let system = SystemModel::ault01_04();
    let engine = ExecutionEngine::new(&system);
    let workload = gromacs::workload_test_b(200);
    println!(
        "\ndeployments on {} (test B, 200 steps, 36 threads):",
        system.name
    );
    let mut reference_output: Option<Vec<f64>> = None;
    for level in [SimdLevel::Sse41, SimdLevel::Avx2_256, SimdLevel::Avx512] {
        let selection = OptionAssignment::new()
            .with("GMX_SIMD", level.gmx_name())
            .with("GMX_GPU", "OFF");
        let deployment = IrDeployRequest::new(&build, &project, &system)
            .selection(selection)
            .simd(level)
            .submit(&orch)
            .expect("deployment succeeds");
        let report = engine
            .execute(&workload, &deployment.build_profile)
            .unwrap();
        let lowered = deployment.lowered().expect("deployed artifacts decode");
        println!(
            "  {:<10} lowered {:>2} IR units, {:>2} loops vectorised, modelled time {:>7.2} s, image {}",
            level.gmx_name(),
            lowered.stats.lowered_units,
            lowered.stats.vectorized_loops,
            report.compute_seconds,
            deployment.reference
        );

        // Correctness: the integrator kernel computes identical results at every width.
        let machine = &lowered.machine_modules["src/mdrun/integrator.ck"];
        let interp = Interpreter::for_machine(machine);
        let result = interp
            .run(
                "integrate",
                vec![
                    Value::FloatBuffer(vec![0.0; 64]),
                    Value::FloatBuffer((0..64).map(|i| i as f64 * 0.01).collect()),
                    Value::FloatBuffer(vec![1.5; 64]),
                    Value::Float(0.002),
                    Value::Int(64),
                ],
            )
            .unwrap();
        let x = result.buffers["x"].as_float_buffer().unwrap().to_vec();
        match &reference_output {
            None => reference_output = Some(x),
            Some(reference) => assert_eq!(reference, &x, "vector width must not change results"),
        }
    }
    println!("\nall deployments produced bit-identical integrator results");
}
