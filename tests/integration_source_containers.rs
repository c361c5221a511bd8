//! Integration: source containers across registries and systems, deployed through the
//! `Orchestrator` session API.

use xaas::prelude::*;
use xaas_apps::{gromacs, llamacpp};
use xaas_hpcsim::{ExecutionEngine, SystemModel};

/// The full paper workflow of Figure 6: build once, publish, pull on the system, deploy.
#[test]
fn publish_pull_and_deploy_on_every_evaluation_system() {
    let project = gromacs::project();
    let build_machine = ImageStore::new();
    let registry = Registry::new();
    build_source_container(
        &project,
        Architecture::Amd64,
        &build_machine,
        "spcl/mini-gromacs:src",
    );
    registry
        .push(&build_machine, "spcl/mini-gromacs:src")
        .unwrap();

    for system in SystemModel::all_evaluation_systems() {
        let system_store = ImageStore::new();
        let published = registry.store().resolve("spcl/mini-gromacs:src").unwrap();
        let (pulled, _) = registry
            .pull(&system_store, "spcl/mini-gromacs:src")
            .unwrap();
        assert_eq!(pulled.deployment_format(), DeploymentFormat::Source);
        let deployment = SourceDeployRequest::new(&project, &pulled, &system)
            .submit(&Orchestrator::uncached(&system_store))
            .unwrap();
        // The deployed image exists on the system store and is tagged per system.
        assert!(system_store.load(&deployment.reference).is_ok());
        assert!(deployment
            .reference
            .contains(&system.name.to_ascii_lowercase()));
        // The registry image is untouched: deployment produces a *new* image.
        assert_eq!(
            registry.store().resolve("spcl/mini-gromacs:src").unwrap(),
            published
        );
        // Performance: the deployment never loses to the naive build.
        let engine = ExecutionEngine::new(&system);
        let workload = gromacs::workload_test_a(500);
        let deployed_time = engine
            .execute(&workload, &deployment.build_profile)
            .unwrap()
            .compute_seconds;
        let naive = xaas_apps::make_executable(xaas_apps::gromacs_baselines(&system), &system)
            .into_iter()
            .find(|p| p.label == "Naive Build")
            .unwrap();
        let naive_time = engine.execute(&workload, &naive).unwrap().compute_seconds;
        assert!(
            deployed_time <= naive_time * 1.02,
            "{}: {deployed_time} vs naive {naive_time}",
            system.name
        );
    }
}

/// GPU selection follows the system: CUDA on NVIDIA nodes, SYCL on Aurora, none on
/// CPU-only partitions — and the resulting profile matches what the model executes.
#[test]
fn gpu_backend_selection_is_system_specific() {
    let project = gromacs::project();
    let store = ImageStore::new();
    let image = build_source_container(&project, Architecture::Amd64, &store, "g:src");
    let expectations = [
        ("Ault23", Some("CUDA")),
        ("Ault25", Some("CUDA")),
        ("Ault01-04", None),
        ("Clariden", Some("CUDA")),
        ("Aurora", Some("SYCL")),
    ];
    for (name, expected_backend) in expectations {
        let system = SystemModel::all_evaluation_systems()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap();
        let deployment = SourceDeployRequest::new(&project, &image, &system)
            .submit(&Orchestrator::uncached(&store))
            .unwrap();
        match expected_backend {
            Some(backend) => assert_eq!(
                deployment.assignment.get("GMX_GPU"),
                Some(backend),
                "{name}"
            ),
            None => assert_eq!(deployment.assignment.get("GMX_GPU"), Some("OFF"), "{name}"),
        }
    }
}

/// llama.cpp-style applications deploy through the same machinery.
#[test]
fn llamacpp_source_deployment_enables_gpu_on_all_three_systems() {
    let project = llamacpp::project();
    let store = ImageStore::new();
    for system in [
        SystemModel::ault23(),
        SystemModel::aurora(),
        SystemModel::clariden(),
    ] {
        let image = build_source_container(
            &project,
            xaas::source_container::architecture_of(&system),
            &store,
            &format!("l:src-{}", system.name),
        );
        let deployment = SourceDeployRequest::new(&project, &image, &system)
            .submit(&Orchestrator::uncached(&store))
            .unwrap();
        assert!(
            deployment.build_profile.gpu_backend.is_some(),
            "{}",
            system.name
        );
        let engine = ExecutionEngine::new(&system);
        let report = engine
            .execute(
                &llamacpp::benchmark_workload(512, 128),
                &deployment.build_profile,
            )
            .unwrap();
        assert!(report.used_gpu, "{}", system.name);
    }
}

/// A source deployment is one graph and one submission, with the record layout the
/// two-submission driver left: every preprocess record, then every `sd-compile`,
/// then link and commit. llama.cpp on Ault23 has 9 compile commands but 5 distinct
/// `sd-compile` identities (two targets share four files); GROMACS has 11 and 11.
#[test]
fn a_source_deployment_is_one_graph_with_pinned_node_counts() {
    let system = SystemModel::ault23();
    for (project, commands, units) in [(llamacpp::project(), 9, 5), (gromacs::project(), 11, 11)] {
        let store = ImageStore::new();
        let orch = Orchestrator::uncached(&store);
        let image = build_source_container(&project, Architecture::Amd64, &store, "pin:src");
        let request = SourceDeployRequest::new(&project, &image, &system);
        let linted = request.clone().analyze(&orch).unwrap();
        let deployment = request.submit(&orch).unwrap();

        assert_eq!(deployment.compiled_units, commands);
        let kinds: Vec<ActionKind> = deployment.trace.records.iter().map(|r| r.kind).collect();
        let mut expected = vec![ActionKind::Preprocess; units];
        expected.extend(vec![ActionKind::SdCompile; units]);
        expected.extend([ActionKind::Link, ActionKind::Commit]);
        assert_eq!(kinds, expected, "{}", project.name);
        assert_eq!(deployment.trace.stage_depth, 4);
        assert_eq!(linted.nodes, deployment.trace.len());
        assert_eq!(linted.denies(), 0);
    }
}
