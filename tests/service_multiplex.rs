//! Multi-tenant service integration: concurrent [`Session`]s through one
//! [`OrchestratorService`] stay deterministic — byte-identical images vs
//! sequential execution, single-flight cache semantics across sessions — while
//! admission control returns typed errors and cross-session actions interleave
//! on the shared ready queue. Every scenario runs under a watchdog so a
//! deadlocked multiplexer fails the suite fast instead of hanging CI.

use proptest::prelude::*;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use xaas::engine::ActionGraph;
use xaas::prelude::*;
use xaas::service::{AdmissionError, OrchestratorService, ServiceError, ServiceLimits};
use xaas_buildsys::OptionAssignment;
use xaas_container::{ActionCache, ImageStore};
use xaas_hpcsim::SystemModel;

/// Watchdog: run `f` on a worker thread and fail loudly if it neither returns
/// nor errors within `secs` (a deadlocked multiplexer would otherwise hang the
/// suite).
fn with_timeout<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("service request must complete (no deadlock) within the timeout")
}

fn lulesh_sweep() -> (xaas_buildsys::ProjectSpec, IrPipelineConfig) {
    let project = xaas_apps::lulesh::project();
    let config = IrPipelineConfig::sweep_options(&project, &["WITH_MPI", "WITH_OPENMP"]);
    (project, config)
}

/// Occupy the service's worker pool with a gated no-op submission, so admitted
/// requests queue behind it deterministically. Returns the release sender and
/// the handle to drain afterwards.
fn occupy_engine(
    service: &OrchestratorService,
) -> (mpsc::Sender<()>, GraphHandle<std::convert::Infallible>) {
    let (release, gate) = mpsc::channel::<()>();
    let gate = Arc::new(Mutex::new(gate));
    let mut graph: ActionGraph<'static, std::convert::Infallible> = ActionGraph::new();
    graph.add(ActionKind::Preprocess, "gate", &[], move |_| {
        gate.lock().unwrap().recv().ok();
        Ok(vec![0])
    });
    let handle = service
        .orchestrator()
        .engine()
        .submit_graph(graph)
        .expect("analysis-clean graph");
    (release, handle)
}

#[test]
fn concurrent_sessions_with_overlapping_keys_are_single_flight_and_byte_identical() {
    with_timeout(60, || {
        let (project, config) = lulesh_sweep();

        // Sequential baseline: one session builds once.
        let baseline_service = OrchestratorService::builder().workers(2).build();
        let baseline = baseline_service
            .session("solo")
            .submit(IrBuildRequest::new(&project, &config).reference("base:ir"))
            .unwrap();
        let baseline_misses = baseline_service.cache_stats().misses;

        // Four tenants race the same BuildKeys through one shared service.
        let service = OrchestratorService::builder().workers(4).build();
        let tenants = ["alice", "bob", "carol", "dave"];
        let builds: Vec<IrContainerBuild> = std::thread::scope(|scope| {
            let handles: Vec<_> = tenants
                .iter()
                .map(|tenant| {
                    let session = service.session(*tenant);
                    let (project, config) = (&project, &config);
                    scope.spawn(move || {
                        session
                            .submit(
                                IrBuildRequest::new(project, config)
                                    .reference(format!("{tenant}:ir")),
                            )
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (tenant, build) in tenants.iter().zip(&builds) {
            assert_eq!(
                build.image.layers, baseline.image.layers,
                "tenant {tenant} built a different image than the sequential baseline"
            );
            assert_eq!(build.units, baseline.units);
            assert_eq!(build.trace.tenant.as_deref(), Some(*tenant));
        }
        // Single-flight across sessions: every overlapping key computed exactly
        // once service-wide, no matter how the four submissions interleaved.
        assert_eq!(
            service.cache_stats().misses,
            baseline_misses,
            "overlapping keys must compute once across sessions"
        );
        let stats = service.stats();
        assert_eq!(stats.admitted, tenants.len() as u64);
        assert_eq!(stats.in_flight, 0);
    });
}

#[test]
fn admission_control_returns_typed_backpressure_and_rejection() {
    with_timeout(60, || {
        let (project, config) = lulesh_sweep();
        let service = OrchestratorService::builder()
            .workers(1)
            .limits(ServiceLimits::default().per_tenant(1).global(2))
            .build();
        let (release, gate_handle) = occupy_engine(&service);

        let alice = service.session("alice");
        let bob = service.session("bob");
        std::thread::scope(|scope| {
            // Alice's first request is admitted, then parks behind the gate.
            let alice_first = {
                let session = alice.clone();
                let (project, config) = (project.clone(), config.clone());
                scope.spawn(move || {
                    session.submit(IrBuildRequest::new(&project, &config).reference("alice:ir"))
                })
            };
            while service.stats().in_flight < 1 {
                std::thread::yield_now();
            }

            // Her second is refused with per-tenant backpressure...
            let error = alice
                .submit(IrBuildRequest::new(&project, &config).reference("alice:again"))
                .unwrap_err();
            match error {
                ServiceError::Admission(AdmissionError::Backpressure {
                    ref tenant,
                    in_flight,
                    limit,
                }) => {
                    assert_eq!(tenant, "alice");
                    assert_eq!((in_flight, limit), (1, 1));
                }
                other => panic!("expected Backpressure, got {other}"),
            }
            assert!(error.is_backpressure());

            // ...while bob still gets in (fair: the refusal was alice's lane).
            let bob_first = {
                let session = bob.clone();
                let (project, config) = (project.clone(), config.clone());
                scope.spawn(move || {
                    session.submit(IrBuildRequest::new(&project, &config).reference("bob:ir"))
                })
            };
            while service.stats().in_flight < 2 {
                std::thread::yield_now();
            }

            // Global limit reached: even a fresh tenant is rejected outright.
            let error = service
                .session("carol")
                .submit(IrBuildRequest::new(&project, &config).reference("carol:ir"))
                .unwrap_err();
            assert!(
                matches!(
                    error,
                    ServiceError::Admission(AdmissionError::Rejected {
                        in_flight: 2,
                        limit: 2,
                        ..
                    })
                ),
                "expected global Rejected, got {error}"
            );

            release.send(()).unwrap();
            alice_first.join().unwrap().unwrap();
            bob_first.join().unwrap().unwrap();
        });
        gate_handle.wait();

        let stats = service.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.backpressured, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.in_flight, 0);
    });
}

#[test]
fn cross_session_actions_share_the_ready_queue_at_depth_above_one() {
    with_timeout(60, || {
        // One worker: with the gate holding it, both sessions' whole graphs
        // queue together, so dispatched records observe ready_submissions > 1.
        let service = OrchestratorService::builder().workers(1).build();
        let (release, gate_handle) = occupy_engine(&service);

        let (lulesh, lulesh_config) = lulesh_sweep();
        let gromacs = xaas_apps::gromacs::project();
        let gromacs_config = IrPipelineConfig::sweep_options(&gromacs, &["GMX_SIMD"])
            .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"]);

        let (lulesh_build, gromacs_build) = std::thread::scope(|scope| {
            let first = {
                let session = service.session("lulesh-team");
                let (project, config) = (&lulesh, &lulesh_config);
                scope.spawn(move || {
                    session
                        .submit(IrBuildRequest::new(project, config).reference("mx:lulesh"))
                        .unwrap()
                })
            };
            let second = {
                let session = service.session("gromacs-team");
                let (project, config) = (&gromacs, &gromacs_config);
                scope.spawn(move || {
                    session
                        .submit(IrBuildRequest::new(project, config).reference("mx:gromacs"))
                        .unwrap()
                })
            };
            // Both submissions must have queued work before the gate opens.
            while service
                .orchestrator()
                .engine()
                .queue_stats()
                .waiting_submissions
                < 2
            {
                std::thread::yield_now();
            }
            release.send(()).unwrap();
            (first.join().unwrap(), second.join().unwrap())
        });
        gate_handle.wait();

        let depth = lulesh_build
            .trace
            .max_ready_submissions()
            .max(gromacs_build.trace.max_ready_submissions());
        assert!(
            depth > 1,
            "multi-graph queue depth must exceed 1 when two sessions queue together (got {depth})"
        );
        assert_eq!(lulesh_build.trace.tenant.as_deref(), Some("lulesh-team"));
        assert_eq!(gromacs_build.trace.tenant.as_deref(), Some("gromacs-team"));
    });
}

#[test]
fn drain_refuses_new_work_then_resume_reopens() {
    with_timeout(60, || {
        let (project, config) = lulesh_sweep();
        let service = OrchestratorService::builder().workers(2).build();
        let session = service.session("tenant");
        let build = session
            .submit(IrBuildRequest::new(&project, &config).reference("drain:before"))
            .unwrap();

        service.drain();
        let error = session
            .submit(IrBuildRequest::new(&project, &config).reference("drain:refused"))
            .unwrap_err();
        assert!(matches!(
            error,
            ServiceError::Admission(AdmissionError::Draining)
        ));
        // A fleet wave is refused the same typed way, never a panic.
        let wave = FleetRequest::new(&build, &project).target(FleetTarget::best_for(
            SystemModel::ault23(),
            OptionAssignment::new()
                .with("WITH_MPI", "OFF")
                .with("WITH_OPENMP", "OFF"),
        ));
        assert!(matches!(
            session.submit_fleet(wave),
            Err(AdmissionError::Draining)
        ));
        service.drain_wait();
        assert_eq!(service.stats().in_flight, 0);
        assert!(service.is_draining());

        service.resume();
        session
            .submit(IrBuildRequest::new(&project, &config).reference("drain:after"))
            .unwrap();
        assert_eq!(service.stats().refused_draining, 2);
    });
}

#[test]
fn fleet_specializer_waves_run_as_service_sessions() {
    with_timeout(60, || {
        let cache = ActionCache::new(ImageStore::new());
        let gromacs = xaas_apps::gromacs::project();
        let config = IrPipelineConfig::sweep_options(&gromacs, &["GMX_SIMD"])
            .with_values("GMX_SIMD", &["SSE4.1", "AVX_512"]);
        let build = IrBuildRequest::new(&gromacs, &config)
            .reference("svc-fleet:ir")
            .submit(&Orchestrator::with_cache(&cache))
            .unwrap();

        let service = OrchestratorService::builder()
            .action_cache(cache)
            .workers(2)
            .build();
        let session = service.session("fleet");
        let targets = vec![
            FleetTarget::best_for(
                SystemModel::ault23(),
                OptionAssignment::new().with("GMX_SIMD", "AVX_512"),
            ),
            FleetTarget::best_for(
                SystemModel::ault25(),
                OptionAssignment::new().with("GMX_SIMD", "SSE4.1"),
            ),
        ];
        let report = session
            .submit_fleet(FleetRequest::new(&build, &gromacs).targets(targets))
            .unwrap();
        assert!(report.all_succeeded());
        // The wave ran as the service's "fleet" tenant: admitted through the
        // session, tenant-tagged in the wave trace.
        assert_eq!(report.trace.tenant.as_deref(), Some("fleet"));
        let stats = service.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(session.tenant(), "fleet");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N sessions submitting overlapping `BuildKey`s (same sweep, tenant-varied
    /// deploy selections) through one service produce byte-identical images to
    /// the same requests executed sequentially on a single session — scheduling
    /// and tenancy never leak into artifacts.
    #[test]
    fn concurrent_session_builds_and_deploys_match_sequential_bytes(
        tenants in 2usize..=4,
        mpi_on in any::<bool>(),
        omp_flags in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let (project, config) = lulesh_sweep();
        let mpi = if mpi_on { "ON" } else { "OFF" };
        let selection_for = |index: usize| {
            OptionAssignment::new()
                .with("WITH_MPI", mpi)
                .with("WITH_OPENMP", if omp_flags[index % omp_flags.len()] { "ON" } else { "OFF" })
        };
        let system = SystemModel::ault23();

        // Sequential: one session performs every tenant's requests in order.
        let sequential = OrchestratorService::builder().workers(2).build();
        let solo = sequential.session("solo");
        let seq_build = solo
            .submit(IrBuildRequest::new(&project, &config).reference("prop:ir"))
            .unwrap();
        let seq_deploys: Vec<IrDeployment> = (0..tenants)
            .map(|index| {
                solo.submit(
                    IrDeployRequest::new(&seq_build, &project, &system)
                        .selection(selection_for(index)),
                )
                .unwrap()
            })
            .collect();

        // Concurrent: one session per tenant, all racing the shared service.
        let service = OrchestratorService::builder().workers(4).build();
        let results: Vec<(IrContainerBuild, IrDeployment)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..tenants)
                .map(|index| {
                    let session = service.session(format!("tenant{index}"));
                    let (project, config) = (&project, &config);
                    let system = &system;
                    let selection = selection_for(index);
                    scope.spawn(move || {
                        let build = session
                            .submit(
                                IrBuildRequest::new(project, config)
                                    .reference(format!("prop:ir{index}")),
                            )
                            .unwrap();
                        let deploy = session
                            .submit(
                                IrDeployRequest::new(&build, project, system)
                                    .selection(selection),
                            )
                            .unwrap();
                        (build, deploy)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (index, (build, deploy)) in results.iter().enumerate() {
            prop_assert_eq!(
                &build.image.layers, &seq_build.image.layers,
                "tenant {} build diverged from sequential", index
            );
            prop_assert_eq!(
                &deploy.image.layers, &seq_deploys[index].image.layers,
                "tenant {} deployment diverged from sequential", index
            );
        }
        // Overlapping keys computed once service-wide (single-flight holds
        // across sessions): the concurrent service never computes more than the
        // sequential one did for the same request set.
        prop_assert!(service.cache_stats().misses <= sequential.cache_stats().misses);
    }
}

/// Per-request cache deltas are scoped to the request. Two sessions interleave
/// fleets with *disjoint* keyed actions (different ISAs) through one shared
/// service; each [`FleetReport`]'s cache counters must equal both the counts
/// derived from its own trace and the counts the same request produces when it
/// runs alone. The historical implementation subtracted before/after snapshots
/// of the *shared* backend's counters, silently attributing the other tenant's
/// hits and misses to this request whenever the two overlapped in time.
#[test]
fn per_request_cache_deltas_are_scoped_under_two_session_interleaving() {
    with_timeout(120, || {
        let project = xaas_apps::gromacs::project();
        let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"]).with_values(
            "GMX_SIMD",
            &["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"],
        );
        let target_for = |system: SystemModel| {
            let simd = system.cpu.best_simd();
            FleetTarget::new(
                system,
                OptionAssignment::new().with("GMX_SIMD", simd.gmx_name()),
                simd,
            )
        };
        // Disjoint keyed work: an x86 system for tenant A, an ARM system for
        // tenant B — no machine-lower or sd-compile key is shared, so each
        // request's standalone counts are its exact expectation regardless of
        // how the two interleave.
        let system_a = SystemModel::ault23;
        let system_b = SystemModel::clariden;

        // Standalone expectations: each fleet alone on an identically warmed
        // (IR build only) service.
        let standalone = |system: fn() -> SystemModel| {
            let service = OrchestratorService::builder().workers(4).build();
            let build = service
                .session("warmup")
                .submit(IrBuildRequest::new(&project, &config).reference("scoped:ir"))
                .unwrap();
            service
                .session("solo")
                .submit_fleet(FleetRequest::new(&build, &project).target(target_for(system())))
                .unwrap()
                .cache
        };
        let expect_a = standalone(system_a);
        let expect_b = standalone(system_b);
        assert!(expect_a.misses > 0 && expect_b.misses > 0);

        // Several rounds of a fresh shared service with both fleets racing:
        // under the old shared-backend subtraction any temporal overlap leaks
        // the other tenant's counters into this report.
        for round in 0..4 {
            let service = OrchestratorService::builder().workers(4).build();
            let build = service
                .session("warmup")
                .submit(IrBuildRequest::new(&project, &config).reference("scoped:ir"))
                .unwrap();
            let barrier = std::sync::Barrier::new(2);
            let (report_a, report_b) = std::thread::scope(|scope| {
                let run = |tenant: &'static str, system: fn() -> SystemModel| {
                    let session = service.session(tenant);
                    let (build, project, barrier) = (&build, &project, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        session
                            .submit_fleet(
                                FleetRequest::new(build, project).target(target_for(system())),
                            )
                            .unwrap()
                    })
                };
                let a = run("tenant-a", system_a);
                let b = run("tenant-b", system_b);
                (a.join().unwrap(), b.join().unwrap())
            });

            for (tenant, report, expect) in [("a", &report_a, expect_a), ("b", &report_b, expect_b)]
            {
                // Internal consistency: the delta is derived from this
                // request's own trace records, nothing else.
                let summary = report.trace.summary();
                assert_eq!(
                    report.cache.hits, summary.cached as u64,
                    "round {round} tenant {tenant}: hits beyond own trace"
                );
                assert_eq!(
                    report.cache.misses, summary.executed as u64,
                    "round {round} tenant {tenant}: misses beyond own trace"
                );
                // Cross-run determinism: interleaving with the other tenant
                // never changes this request's own counts.
                assert_eq!(
                    (report.cache.hits, report.cache.misses),
                    (expect.hits, expect.misses),
                    "round {round} tenant {tenant}: concurrent counts diverge from standalone"
                );
            }
        }
    });
}
