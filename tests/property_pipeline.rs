//! Property-based tests over the core invariants of the substrates and the pipeline.

use proptest::prelude::*;
use xaas::prelude::*;
use xaas_buildsys::OptionAssignment;
use xaas_container::digest::{sha256, Digest};
use xaas_container::{Blob, Layer, RootFs};
use xaas_hpcsim::{
    BuildProfile, ExecutionEngine, KernelClass, KernelWork, SimdLevel, SystemModel, Workload,
};
use xaas_specs::{normalize_name, score, SpecCategory, SpecEntry, SpecializationDocument};
use xaas_xir::{CompileFlags, Compiler, Interpreter, TargetIsa, Value};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SHA-256 content addressing: equal content ⇔ equal digest; prefix changes digest.
    #[test]
    fn digest_is_deterministic_and_sensitive(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(sha256(&data), sha256(&data));
        prop_assert_eq!(Digest::of_bytes(&data), Digest::of_bytes(&data));
        let mut extended = data.clone();
        extended.push(0xAB);
        prop_assert_ne!(Digest::of_bytes(&data), Digest::of_bytes(&extended));
    }

    /// Layer archives round-trip for arbitrary file sets, and diff IDs are order-independent.
    #[test]
    fn layer_roundtrip_and_order_independence(
        files in proptest::collection::btree_map("[a-z]{1,8}(/[a-z]{1,8}){0,2}", "[ -~]{0,64}", 1..12)
    ) {
        let mut forward = Layer::new("forward");
        for (path, content) in &files {
            forward.add_text(format!("/{path}"), content.clone());
        }
        let mut reverse = Layer::new("forward");
        for (path, content) in files.iter().rev() {
            reverse.add_text(format!("/{path}"), content.clone());
        }
        prop_assert_eq!(Layer::from_archive(&forward.to_archive()).unwrap(), forward.clone());
        prop_assert_eq!(forward.diff_id(), reverse.diff_id());
        let root = RootFs::flatten([&forward]);
        prop_assert!(root.len() <= files.len());
    }

    /// The sealed archive is a memo, never a second source of truth: after any sequence
    /// of mutations, clones, seals and diff-ID reads, `sealed()` equals the archive and
    /// digest recomputed from scratch, on every layer alive, and mutating a clone never
    /// changes the layer it was cloned from.
    #[test]
    fn layer_seal_never_goes_stale(ops in proptest::collection::vec(any::<u32>(), 1..48)) {
        let from_scratch = |layer: &Layer| {
            let archive = layer.to_archive();
            let digest = Digest::of_bytes(&archive);
            (archive, digest)
        };
        // Every layer alive, with the from-scratch archive it must keep until *it* is
        // the one mutated.
        let mut layers = vec![Layer::new("prop")];
        let mut expected = vec![from_scratch(&layers[0])];
        for op in ops {
            let index = (op >> 8) as usize % layers.len();
            let path = format!("/dir{}/f{}", (op >> 16) % 3, (op >> 20) % 4);
            let content = vec![(op >> 24) as u8; (op >> 12) as usize % 40];
            let layer = &mut layers[index];
            match op % 9 {
                0 => {
                    layer.add_file(path, content);
                }
                1 => {
                    layer.add_executable(path, Blob::new(content));
                }
                2 => {
                    layer.add_text(path, format!("text {op}"));
                }
                3 => {
                    layer.add_directory(path);
                }
                4 => {
                    layer.add_symlink(path, "/target");
                }
                5 => {
                    layer.add_whiteout(path);
                }
                6 => {
                    let clone = layer.clone();
                    prop_assert_eq!(clone.is_sealed(), layer.is_sealed());
                    layers.push(clone);
                    expected.push(expected[index].clone());
                }
                7 => {
                    layer.sealed();
                }
                _ => {
                    layer.diff_id();
                }
            }
            if op % 9 < 6 {
                prop_assert!(!layers[index].is_sealed(), "a mutation drops the memo");
                expected[index] = from_scratch(&layers[index]);
            }
            for (layer, (archive, digest)) in layers.iter().zip(&expected) {
                let was_sealed = layer.is_sealed();
                prop_assert_eq!(&layer.to_archive(), archive);
                prop_assert_eq!(layer.is_sealed(), was_sealed, "to_archive never seals");
                if was_sealed || op.is_multiple_of(2) {
                    let (sealed_archive, sealed_digest) = layer.sealed();
                    prop_assert_eq!(sealed_archive, archive);
                    prop_assert_eq!(sealed_digest, digest);
                }
            }
        }
    }

    /// Layer archives are outside input (a registry, a disk): whatever bytes of a valid
    /// archive are damaged, `from_archive` answers with a layer or a typed error, never a
    /// panic, and a layer it does return re-serialises consistently.
    #[test]
    fn from_archive_never_panics_on_a_mutated_archive(
        files in proptest::collection::btree_map("[a-z]{1,6}(/[a-z]{1,6}){0,1}", "[ -~]{0,24}", 1..6),
        damage in proptest::collection::vec(any::<u32>(), 1..6),
        truncate in any::<u16>(),
    ) {
        let mut layer = Layer::new("fuzz");
        for (path, content) in &files {
            layer.add_text(format!("/{path}"), content.clone());
        }
        layer.add_symlink("/link", "/target").add_whiteout("/gone");
        let mut archive = layer.to_archive();
        for hit in damage {
            let at = (hit >> 8) as usize % archive.len();
            if hit.is_multiple_of(4) {
                archive[at] = (hit >> 2) as u8;
            } else {
                // Saturate a whole field's width: a length of 2^64 - 1 is the value that
                // overflows `position + length`.
                let end = (at + 8).min(archive.len());
                archive[at..end].fill(0xff);
            }
        }
        if truncate.is_multiple_of(3) {
            archive.truncate(truncate as usize % (archive.len() + 1));
        }
        if let Ok(parsed) = Layer::from_archive(&archive) {
            prop_assert!(!parsed.is_sealed());
            let digest = Digest::of_bytes(&archive);
            let adopted = Layer::from_archive_blob(Blob::new(archive.clone()), digest.clone()).unwrap();
            prop_assert_eq!(&adopted, &parsed);
            let reserialised = parsed.to_archive();
            // The memo is seeded exactly when the bytes are what the layer serialises to.
            prop_assert_eq!(adopted.is_sealed(), reserialised == archive);
            prop_assert_eq!(adopted.sealed().0, &reserialised);
            prop_assert_eq!(adopted.sealed().1, &Digest::of_bytes(&reserialised));
        }
    }

    /// The interpreter computes identical results regardless of the vector width chosen at
    /// lowering time (the correctness half of "delay vectorization until deployment").
    #[test]
    fn vector_width_never_changes_results(
        values in proptest::collection::vec(-1000.0f64..1000.0, 1..40),
        scale in -8.0f64..8.0,
        width in prop_oneof![Just(1u32), Just(2), Just(4), Just(8), Just(16)],
    ) {
        let source = r#"
kernel void saxpy(float* y, float* x, float a, int n) {
    for (int i = 0; i < n; i = i + 1) { y[i] = y[i] + a * x[i]; }
}
float sum(float* x, int n) {
    float acc = 0.0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + x[i]; }
    return acc;
}
"#;
        let compiler = Compiler::new();
        let flags = CompileFlags::parse(["-O3".to_string()]);
        let module = compiler.compile_to_ir("prop.ck", source, &flags).unwrap();
        let scalar = xaas_xir::lower_to_machine(&module, &TargetIsa::scalar("none"));
        let vector = xaas_xir::lower_to_machine(&module, &TargetIsa::vector("t", width, true));
        let n = values.len() as i64;
        let run = |machine: &xaas_xir::MachineModule| {
            let interp = Interpreter::for_machine(machine);
            interp.run(
                "saxpy",
                vec![
                    Value::FloatBuffer(vec![1.0; values.len()]),
                    Value::FloatBuffer(values.clone()),
                    Value::Float(scale),
                    Value::Int(n),
                ],
            ).unwrap()
        };
        prop_assert_eq!(run(&scalar).buffers, run(&vector).buffers);
    }

    /// The execution model is monotone in the obvious knobs: more threads never slows a
    /// parallel workload down, and a wider SIMD level never slows it down either.
    #[test]
    fn execution_model_is_monotone(
        threads_a in 1u32..64, threads_b in 1u32..64,
        seconds in 10.0f64..10_000.0,
    ) {
        let system = SystemModel::ault23();
        let engine = ExecutionEngine::new(&system);
        let workload = Workload {
            name: "prop".into(),
            kernels: vec![KernelWork {
                name: "k".into(),
                class: KernelClass::MdNonbonded,
                scalar_reference_seconds: seconds,
            }],
            io_seconds: 0.0,
        };
        let (low, high) = if threads_a <= threads_b { (threads_a, threads_b) } else { (threads_b, threads_a) };
        let time_low = engine.execute(&workload, &BuildProfile::new("l", SimdLevel::Avx2_256, low)).unwrap().compute_seconds;
        let time_high = engine.execute(&workload, &BuildProfile::new("h", SimdLevel::Avx2_256, high)).unwrap().compute_seconds;
        prop_assert!(time_high <= time_low * 1.0001);
        let sse = engine.execute(&workload, &BuildProfile::new("s", SimdLevel::Sse2, low)).unwrap().compute_seconds;
        let avx = engine.execute(&workload, &BuildProfile::new("a", SimdLevel::Avx512, low)).unwrap().compute_seconds;
        prop_assert!(avx <= sse * 1.0001);
    }

    /// Scoring invariants: F1 is within [0,1], perfect predictions score 1, and
    /// normalisation never lowers the score.
    #[test]
    fn scoring_is_bounded_and_normalisation_monotone(
        names in proptest::collection::btree_set("[A-Za-z][A-Za-z0-9_.-]{0,12}", 1..20),
        drift in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let mut truth = SpecializationDocument::new("prop");
        for name in &names {
            truth.push(SpecEntry::new(SpecCategory::GpuBackend, name.clone()));
        }
        let mut predicted = SpecializationDocument::new("prop");
        for (index, name) in names.iter().enumerate() {
            let drifted = if drift[index % drift.len()] { name.replace('_', "-").to_ascii_lowercase() } else { name.clone() };
            predicted.push(SpecEntry::new(SpecCategory::GpuBackend, drifted));
        }
        let strict = score(&predicted, &truth, false);
        let relaxed = score(&predicted, &truth, true);
        prop_assert!(strict.f1() >= 0.0 && strict.f1() <= 1.0);
        prop_assert!(relaxed.f1() + 1e-12 >= strict.f1());
        let perfect = score(&truth, &truth, false);
        prop_assert!((perfect.f1() - 1.0).abs() < 1e-12);
        for name in &names {
            prop_assert_eq!(normalize_name(name), normalize_name(&name.replace('_', "-")));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pipeline invariant: for any subset of swept GROMACS options, the number of IR files
    /// built never exceeds the total translation units, stage counts are monotonically
    /// non-increasing, and every manifest references only existing artifacts.
    #[test]
    fn pipeline_invariants_hold_for_random_sweeps(
        sweep_simd in proptest::sample::subsequence(vec!["SSE4.1", "AVX_256", "AVX_512"], 1..=3),
        sweep_gpu in proptest::sample::subsequence(vec!["OFF", "CUDA", "SYCL"], 1..=3),
    ) {
        let project = xaas_apps::gromacs::project();
        let store = ImageStore::new();
        let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD", "GMX_GPU"])
            .with_values("GMX_SIMD", &sweep_simd)
            .with_values("GMX_GPU", &sweep_gpu);
        let build = IrBuildRequest::new(&project, &config)
            .reference("prop:ir")
            .submit(&Orchestrator::uncached(&store))
            .unwrap();
        let stats = build.stats;
        prop_assert_eq!(stats.configurations, sweep_simd.len() * sweep_gpu.len());
        prop_assert!(stats.ir_files_built() + stats.system_dependent_units <= stats.total_translation_units);
        prop_assert!(stats.unique_after_preprocessing <= stats.unique_after_generation);
        prop_assert!(stats.unique_after_openmp <= stats.unique_after_preprocessing);
        prop_assert!(stats.unique_after_vectorization <= stats.unique_after_openmp);
        for manifest in &build.manifests {
            for unit in &manifest.units {
                if let Some(id) = unit.artifact.strip_prefix("ir:") {
                    prop_assert!(build.units.contains_key(id));
                }
            }
        }
    }

    /// Engine-schedule independence: for arbitrary option sweeps and worker counts,
    /// the parallel engine build is byte-identical to the single-threaded run — same
    /// committed image digest, same `ActionTrace` (records *and* action set), same
    /// units and stats. Parallelism may only change wall-clock, never outputs.
    #[test]
    fn parallel_engine_builds_match_single_threaded_runs(
        sweep_simd in proptest::sample::subsequence(vec!["SSE4.1", "AVX_256", "AVX_512"], 1..=3),
        sweep_gpu in proptest::sample::subsequence(vec!["OFF", "CUDA"], 1..=2),
        workers in 2usize..6,
    ) {
        let project = xaas_apps::gromacs::project();
        let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD", "GMX_GPU"])
            .with_values("GMX_SIMD", &sweep_simd)
            .with_values("GMX_GPU", &sweep_gpu);
        let reference = "prop:engine";
        let serial_store = ImageStore::new();
        let serial_orch = Orchestrator::builder()
            .uncached(serial_store.clone())
            .workers(1)
            .build();
        let serial = IrBuildRequest::new(&project, &config)
            .reference(reference)
            .submit(&serial_orch)
            .unwrap();
        let parallel_store = ImageStore::new();
        let parallel_orch = Orchestrator::builder()
            .uncached(parallel_store.clone())
            .workers(workers)
            .build();
        let parallel = IrBuildRequest::new(&project, &config)
            .reference(reference)
            .submit(&parallel_orch)
            .unwrap();
        prop_assert_eq!(
            serial_store.resolve(reference).unwrap(),
            parallel_store.resolve(reference).unwrap()
        );
        prop_assert_eq!(&parallel.image.layers, &serial.image.layers);
        prop_assert_eq!(&parallel.units, &serial.units);
        prop_assert_eq!(&parallel.stats, &serial.stats);
        prop_assert_eq!(&parallel.trace, &serial.trace);
        prop_assert_eq!(parallel.trace.action_set(), serial.trace.action_set());
        prop_assert!(parallel.trace.stage_depth < serial.trace.len());
    }

    /// Cache-backend independence: a `NoCache` build and a warm `ActionCache` build
    /// of the same sweep produce identical images (and identical action sets — only
    /// the cached flags differ).
    #[test]
    fn nocache_and_warm_cache_builds_produce_identical_images(
        sweep_simd in proptest::sample::subsequence(vec!["SSE4.1", "AVX2_128", "AVX_512"], 1..=3),
    ) {
        let project = xaas_apps::gromacs::project();
        let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"])
            .with_values("GMX_SIMD", &sweep_simd);
        let reference = "prop:backends";
        let uncached_store = ImageStore::new();
        let uncached = IrBuildRequest::new(&project, &config)
            .reference(reference)
            .submit(&Orchestrator::uncached(&uncached_store))
            .unwrap();
        let cached_store = ImageStore::new();
        let cache = ActionCache::new(cached_store.clone());
        let session = Orchestrator::with_cache(&cache);
        let cold = IrBuildRequest::new(&project, &config)
            .reference(reference)
            .submit(&session)
            .unwrap();
        let warm = IrBuildRequest::new(&project, &config)
            .reference(reference)
            .submit(&session)
            .unwrap();
        prop_assert_eq!(warm.actions.executed, 0);
        prop_assert_eq!(warm.actions.cached, cold.actions.executed);
        prop_assert_eq!(uncached.actions.cached, 0);
        prop_assert_eq!(&cold.image.layers, &uncached.image.layers);
        prop_assert_eq!(&warm.image.layers, &uncached.image.layers);
        prop_assert_eq!(
            uncached_store.resolve(reference).unwrap(),
            cached_store.resolve(reference).unwrap()
        );
        prop_assert_eq!(warm.trace.action_set(), cold.trace.action_set());
        prop_assert_eq!(uncached.trace.action_set(), cold.trace.action_set());
    }

    /// Scheduling-policy soundness (the orchestrator acceptance property): for
    /// arbitrary SIMD sweeps, worker counts and tenant weights, two tenants
    /// deploying the GROMACS MPI sweep concurrently through one `WeightedFair`
    /// orchestrator each leave a valid `ActionTrace` — the records of the `Fifo`
    /// run, dispatched in whatever order the lanes interleaved — while the final
    /// images stay byte-identical.
    #[test]
    fn fair_queuing_may_reorder_dispatch_but_images_stay_byte_identical(
        sweep_simd in proptest::sample::subsequence(vec!["SSE4.1", "AVX_256", "AVX_512"], 1..=3),
        workers in 1usize..6,
        weight in 1u64..4,
    ) {
        let project = xaas_apps::gromacs::project();
        // Sweep MPI too: the MPI halo file ships as source, giving the deployment
        // graph a mixed machine-lower/sd-compile frontier.
        let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD", "GMX_MPI"])
            .with_values("GMX_SIMD", &sweep_simd);
        let build = IrBuildRequest::new(&project, &config)
            .reference("prop:policy")
            .submit(&Orchestrator::new())
            .unwrap();
        let system = SystemModel::ault23();
        let selection = OptionAssignment::new()
            .with("GMX_SIMD", *sweep_simd.last().unwrap())
            .with("GMX_MPI", "ON");
        let deploy = |orch: &Orchestrator| {
            IrDeployRequest::new(&build, &project, &system)
                .selection(selection.clone())
                .simd(SimdLevel::parse(sweep_simd.last().unwrap()).unwrap())
                .submit(orch)
                .unwrap()
        };
        let fifo_store = ImageStore::new();
        let fifo = deploy(
            &Orchestrator::builder()
                .uncached(fifo_store.clone())
                .workers(workers)
                .build(),
        );
        let fair_store = ImageStore::new();
        let shared = Orchestrator::builder()
            .uncached(fair_store.clone())
            .workers(workers)
            .policy(WeightedFair::new().with_weight("alice", weight))
            .build();
        let (alice, bob) = std::thread::scope(|scope| {
            let alice = scope.spawn(|| deploy(&shared.for_tenant("alice")));
            let bob = deploy(&shared.for_tenant("bob"));
            (alice.join().unwrap(), bob)
        });
        let mut fifo_order = fifo.trace.execution_order();
        fifo_order.sort();
        for (tenant, fair) in [("alice", &alice), ("bob", &bob)] {
            prop_assert!(
                fair.lowered().unwrap().stats.compiled_source_units > 0,
                "sd-compiles present"
            );
            // Valid trace: same records (node order, identities) under both policies.
            prop_assert_eq!(&fair.trace.records, &fifo.trace.records);
            prop_assert_eq!(fair.trace.action_set(), fifo.trace.action_set());
            prop_assert_eq!(&fair.trace.policy, "weighted-fair");
            prop_assert_eq!(fair.trace.tenant.as_deref(), Some(tenant));
            // The dispatch order may differ, the dispatched set may not...
            let mut fair_order = fair.trace.execution_order();
            fair_order.sort();
            prop_assert_eq!(&fair_order, &fifo_order);
            // ...and the committed images are byte-identical.
            prop_assert_eq!(&fair.image.layers, &fifo.image.layers);
            prop_assert_eq!(
                fifo_store.resolve(&fifo.reference).unwrap(),
                fair_store.resolve(&fair.reference).unwrap()
            );
        }
    }

    /// Action-cache soundness: for arbitrary option sweeps, a warm-cache
    /// `IrDeployRequest` produces byte-identical artifacts and identical
    /// `DeploymentStats` to a cold build — the cache may only save work, never
    /// change outputs.
    #[test]
    fn warm_cache_deployments_are_byte_identical_to_cold(
        sweep_simd in proptest::sample::subsequence(vec!["SSE4.1", "AVX_256", "AVX_512"], 1..=3),
        sweep_fft in proptest::sample::subsequence(vec!["fftw3", "mkl"], 1..=2),
    ) {
        let project = xaas_apps::gromacs::project();
        let store = ImageStore::new();
        let cache = ActionCache::new(store.clone());
        let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD", "GMX_FFT_LIBRARY"])
            .with_values("GMX_SIMD", &sweep_simd)
            .with_values("GMX_FFT_LIBRARY", &sweep_fft);
        let session = Orchestrator::with_cache(&cache);
        let build = IrBuildRequest::new(&project, &config)
            .reference("prop:warm")
            .submit(&session)
            .unwrap();
        let system = SystemModel::ault23();
        for simd_name in &sweep_simd {
            let simd = SimdLevel::parse(simd_name).unwrap();
            let selection = OptionAssignment::new()
                .with("GMX_SIMD", *simd_name)
                .with("GMX_FFT_LIBRARY", sweep_fft[0]);
            // Cold: a fresh, uncached session. Warm: the shared cache, primed by a
            // first deployment of the same configuration.
            let cold = IrDeployRequest::new(&build, &project, &system)
                .selection(selection.clone())
                .simd(simd)
                .submit(&Orchestrator::uncached(&store))
                .unwrap();
            let primed = IrDeployRequest::new(&build, &project, &system)
                .selection(selection.clone())
                .simd(simd)
                .submit(&session)
                .unwrap();
            let warm = IrDeployRequest::new(&build, &project, &system)
                .selection(selection.clone())
                .simd(simd)
                .submit(&session)
                .unwrap();
            prop_assert_eq!(warm.actions.executed, 0, "warm deployment must not compile");
            prop_assert_eq!(warm.actions.cached, primed.actions.total());
            let (warm_lowered, cold_lowered) = (warm.lowered().unwrap(), cold.lowered().unwrap());
            prop_assert_eq!(&warm_lowered.stats, &cold_lowered.stats);
            prop_assert_eq!(&warm_lowered.machine_modules, &cold_lowered.machine_modules);
            prop_assert_eq!(&warm.image.layers, &cold.image.layers);
            prop_assert_eq!(&warm.reference, &cold.reference);
            prop_assert_eq!(&warm_lowered.vectorization, &cold_lowered.vectorization);
        }
    }

    /// A source deployment is one graph, whatever runs it: for llama.cpp and GROMACS
    /// on a drawn evaluation system, worker count and policy, the uncached, the
    /// cold-cache and the warm-cache deployment commit the manifest of the serial
    /// FIFO reference and leave its trace modulo the `cached` flags — and the graph
    /// `analyze` lints is the graph `submit` ran.
    #[test]
    fn source_deployments_are_one_graph_for_any_schedule_and_cache_state(
        app in 0usize..2,
        system in 0usize..5,
        workers in 0u32..3,
        fair in any::<bool>(),
    ) {
        let project = [xaas_apps::llamacpp::project, xaas_apps::gromacs::project][app]();
        let system = SystemModel::all_evaluation_systems().swap_remove(system);
        let architecture = xaas::source_container::architecture_of(&system);
        let drawn = |builder: OrchestratorBuilder| {
            let builder = builder.workers(1 << workers);
            match fair {
                true => builder
                    .policy(WeightedFair::new())
                    .build()
                    .for_tenant("tenant"),
                false => builder.build(),
            }
        };
        let deploy = |orch: &Orchestrator| {
            let image = build_source_container(&project, architecture, orch.store(), "prop:src");
            let request = SourceDeployRequest::new(&project, &image, &system);
            let linted = request.clone().analyze(orch).unwrap();
            let deployment = request.submit(orch).unwrap();
            assert_eq!(linted.nodes, deployment.trace.len());
            assert_eq!(linted.denies(), 0);
            let manifest = orch.store().resolve(&deployment.reference).unwrap();
            (deployment, manifest)
        };
        let identities = |deployment: &SourceDeployment| -> Vec<String> {
            deployment.trace.records.iter().map(ActionRecord::identity).collect()
        };

        let serial = Orchestrator::builder().uncached(ImageStore::new()).workers(1).build();
        let (reference, reference_manifest) = deploy(&serial);
        let uncached = deploy(&drawn(Orchestrator::builder().uncached(ImageStore::new())));
        let cached = drawn(Orchestrator::builder());
        let (cold, warm) = (deploy(&cached), deploy(&cached));
        for (deployment, manifest) in [&uncached, &cold, &warm] {
            prop_assert_eq!(manifest, &reference_manifest);
            prop_assert_eq!(identities(deployment), identities(&reference));
            prop_assert_eq!(deployment.trace.stage_depth, reference.trace.stage_depth);
        }
        prop_assert_eq!(&cold.0.trace.records, &reference.trace.records);
        prop_assert_eq!(cold.0.actions.cached, 0);
        prop_assert_eq!(warm.0.actions.executed, 0);
        prop_assert_eq!(warm.0.actions.cached, cold.0.actions.executed);
    }

    /// A failing translation unit fails the one graph the way it failed the two:
    /// the error is the first failing file's *in node order* — every preprocess
    /// node precedes every `sd-compile`, so a later file's unresolved include wins
    /// over an earlier file's syntax error — nothing is committed, and the engine
    /// is left serving (no worker hangs on the skipped tail).
    #[test]
    fn a_failing_translation_unit_fails_the_source_deployment_without_committing(
        workers in 0u32..3,
        fair in any::<bool>(),
    ) {
        let project = xaas_apps::llamacpp::project();
        let system = SystemModel::ault23();
        let builder = Orchestrator::builder().workers(1 << workers);
        let orch = match fair {
            true => builder
                .policy(WeightedFair::new())
                .build()
                .for_tenant("tenant"),
            false => builder.build(),
        };
        let image = build_source_container(&project, Architecture::Amd64, orch.store(), "prop:src");

        let mut broken = project.clone();
        for source in &mut broken.sources {
            match source.path.as_str() {
                "src/ggml_matmul.ck" => source.content = "kernel void broken( {".into(),
                "src/ggml_quantize.ck" => source.content.insert_str(0, "#include \"missing.h\"\n"),
                _ => {}
            }
        }
        let error = SourceDeployRequest::new(&broken, &image, &system)
            .submit(&orch)
            .unwrap_err();
        match error {
            SourceContainerError::Compile { file, error } => {
                prop_assert_eq!(file, "src/ggml_quantize.ck");
                prop_assert!(matches!(error, xaas_xir::CompileError::Preprocess(_)));
            }
            other => panic!("expected SourceContainerError::Compile, got {other:?}"),
        }

        prop_assert_eq!(orch.store().references().len(), 1, "only the source image");

        // The same orchestrator still deploys the intact project.
        let intact = SourceDeployRequest::new(&project, &image, &system).submit(&orch);
        prop_assert!(orch.store().resolve(&intact.unwrap().reference).is_ok());
    }
}
