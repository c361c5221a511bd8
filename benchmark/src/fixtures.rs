//! The inputs every workload is made of, generated from the seed: salted
//! projects, the IR and source containers deployments specialize, the typed
//! requests built over them, and the reference digests outputs are checked
//! against. The program under test only ever sees what this module generates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Display;
use xaas::engine::ActionTrace;
use xaas::prelude::*;
use xaas_apps::{gromacs, llamacpp, lulesh};
use xaas_buildsys::{OptionAssignment, ProjectSpec};
use xaas_hpcsim::{SimdLevel, SystemModel};

/// The `GMX_SIMD` values every GROMACS IR container sweeps: one per ISA family
/// the four fleet systems need.
const GMX_SIMD_SWEEP: [&str; 4] = ["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"];

/// A project and the configuration sweep its IR container is built under.
#[derive(Debug, Clone)]
pub struct App {
    /// The (salted) project.
    pub project: ProjectSpec,
    /// The sweep of its IR build.
    pub config: IrPipelineConfig,
}

/// A copy of `project` whose every source carries one extra function named
/// after `salt`: same shape and size, different content, so every derived
/// `BuildKey` and artifact digest differs from any other salt's.
pub fn salted(project: &ProjectSpec, salt: u32) -> ProjectSpec {
    let mut project = project.clone();
    for source in &mut project.sources {
        source.content.push_str(&format!(
            "\nint xaas_bench_salt_{salt}(int x){{return x+{salt};}}\n"
        ));
    }
    project
}

fn gromacs_app(salt: u32) -> App {
    let project = salted(&gromacs::project(), salt);
    let config = IrPipelineConfig::sweep_options(&project, &["GMX_SIMD"])
        .with_values("GMX_SIMD", &GMX_SIMD_SWEEP);
    App { project, config }
}

/// The four systems of the fleet: ault23, ault25, ault01-04, Clariden.
fn fleet_systems() -> [SystemModel; 4] {
    [
        SystemModel::ault23(),
        SystemModel::ault25(),
        SystemModel::ault01_04(),
        SystemModel::clariden(),
    ]
}

/// One request of the service workloads. Every variant is fully described by
/// the fixtures, so a request stream is a `Vec<Request>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Request {
    /// Deploy the GROMACS IR container on system `0..3` (ault23/AVX_512,
    /// ault25/AVX2_256, ault01-04/best).
    GromacsDeploy(usize),
    /// Deploy the LULESH IR container on ault23 with this MPI × OpenMP selection.
    LuleshDeploy {
        /// `WITH_MPI`
        mpi: bool,
        /// `WITH_OPENMP`
        omp: bool,
    },
    /// One four-target fleet wave over the GROMACS IR container.
    Fleet,
    /// Deploy the llama.cpp source container on ault23.
    SourceDeploy,
    /// Build the IR container of pool variant `n`.
    PoolBuild(usize),
}

/// The seven single-system IR deployments `warm_deploy` rotates through.
pub const DEPLOYS: [Request; 7] = [
    Request::GromacsDeploy(0),
    Request::GromacsDeploy(1),
    Request::GromacsDeploy(2),
    Request::LuleshDeploy {
        mpi: false,
        omp: false,
    },
    Request::LuleshDeploy {
        mpi: false,
        omp: true,
    },
    Request::LuleshDeploy {
        mpi: true,
        omp: false,
    },
    Request::LuleshDeploy {
        mpi: true,
        omp: true,
    },
];

impl Request {
    /// The name the request's reference digest is filed under.
    pub fn key(&self) -> String {
        let on = |flag: &bool| if *flag { "ON" } else { "OFF" };
        match self {
            Request::GromacsDeploy(system) => format!("gromacs-deploy/{system}"),
            Request::LuleshDeploy { mpi, omp } => {
                format!("lulesh-deploy/mpi={},omp={}", on(mpi), on(omp))
            }
            Request::Fleet => "gromacs-fleet".to_string(),
            Request::SourceDeploy => "llama-source-deploy".to_string(),
            Request::PoolBuild(variant) => format!("pool-build/{variant}"),
        }
    }
}

/// Where a request goes: through a tenant's [`Session`] (admission control in
/// front) or straight to an [`Orchestrator`].
#[derive(Clone, Copy)]
pub enum Via<'a> {
    /// `Session::submit_wait`
    Service(&'a Session),
    /// `request.submit(&orch)`
    Direct(&'a Orchestrator),
}

impl<'a> Via<'a> {
    /// The orchestrator the request ends up on.
    pub fn orchestrator(&self) -> &'a Orchestrator {
        match self {
            Via::Service(session) => session.orchestrator(),
            Via::Direct(orch) => orch,
        }
    }

    /// Submit and wait; refusals and pipeline errors come back as text.
    pub fn send<R: ServiceRequest>(&self, request: R) -> Result<R::Output, String>
    where
        R::Error: Display,
    {
        match self {
            Via::Service(session) => session.submit_wait(request).map_err(|e| e.to_string()),
            Via::Direct(orch) => request.execute(orch).map_err(|e| e.to_string()),
        }
    }
}

/// What a completed request is judged by: the digest of the image it produced
/// and the engine's account of how.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Manifest digest of the committed image (fleet: the targets' digests joined).
    pub digest: String,
    /// The request's action trace.
    pub trace: ActionTrace,
}

fn manifest_digest(orch: &Orchestrator, reference: &str) -> Result<String, String> {
    orch.store()
        .resolve(reference)
        .map(|digest| digest.as_str().to_string())
        .map_err(|e| e.to_string())
}

/// Outcome of an IR build.
pub fn build_outcome(orch: &Orchestrator, build: &IrContainerBuild) -> Result<Outcome, String> {
    Ok(Outcome {
        digest: manifest_digest(orch, &build.reference)?,
        trace: build.trace.clone(),
    })
}

/// Outcome of an IR deployment.
pub fn deploy_outcome(orch: &Orchestrator, deployment: IrDeployment) -> Result<Outcome, String> {
    Ok(Outcome {
        digest: manifest_digest(orch, &deployment.reference)?,
        trace: deployment.trace,
    })
}

/// Outcome of a source deployment.
pub fn source_outcome(
    orch: &Orchestrator,
    deployment: SourceDeployment,
) -> Result<Outcome, String> {
    Ok(Outcome {
        digest: manifest_digest(orch, &deployment.reference)?,
        trace: deployment.trace,
    })
}

/// Outcome of a fleet wave; any failed target fails the wave.
pub fn fleet_outcome(orch: &Orchestrator, report: FleetReport) -> Result<Outcome, String> {
    let mut digests = Vec::with_capacity(report.outcomes.len());
    for outcome in &report.outcomes {
        let deployment = outcome.deployment.as_ref().map_err(|e| e.to_string())?;
        digests.push(manifest_digest(orch, &deployment.reference)?);
    }
    Ok(Outcome {
        digest: digests.join("+"),
        trace: report.trace,
    })
}

/// Everything a workload's requests borrow from.
#[derive(Debug)]
pub struct Fixtures {
    /// The fleet's systems; deploy requests borrow them from here.
    pub systems: [SystemModel; 4],
    /// Salted GROMACS and its IR container.
    pub gromacs: App,
    /// The GROMACS IR container deployments and fleets specialize.
    pub gromacs_ir: IrContainerBuild,
    /// Salted LULESH and its IR container.
    pub lulesh: App,
    /// The LULESH IR container.
    pub lulesh_ir: IrContainerBuild,
    /// Salted llama.cpp.
    pub llama: ProjectSpec,
    /// The llama.cpp source container.
    pub llama_src: Image,
    /// Further salted GROMACS variants (`disk_restart`, `mixed_tenants`).
    pub pool: Vec<App>,
}

const LLAMA_SRC_REFERENCE: &str = "bench/llama:src";

impl Fixtures {
    /// Generate the fixtures of `seed` with `pool_size` extra GROMACS variants.
    /// Salts are six digits wide whatever the seed, so input sizes — and with
    /// them allocation counts — do not depend on it.
    pub fn generate(seed: u64, pool_size: usize) -> Self {
        let first_salt = 100_000 + StdRng::seed_from_u64(seed).random::<u32>() % 800_000;
        let gromacs = gromacs_app(first_salt);
        let lulesh_project = salted(&lulesh::project(), first_salt);
        let lulesh = App {
            config: IrPipelineConfig::sweep_options(&lulesh_project, &["WITH_MPI", "WITH_OPENMP"]),
            project: lulesh_project,
        };
        let llama = salted(&llamacpp::project(), first_salt);
        let pool = (1..=pool_size as u32)
            .map(|n| gromacs_app(first_salt + n))
            .collect();

        let systems = fleet_systems();
        let scratch = Orchestrator::new();
        let gromacs_ir = IrBuildRequest::new(&gromacs.project, &gromacs.config)
            .submit(&scratch)
            .expect("the GROMACS input IR container builds");
        let lulesh_ir = IrBuildRequest::new(&lulesh.project, &lulesh.config)
            .submit(&scratch)
            .expect("the LULESH input IR container builds");
        let llama_src = build_llama_source(&llama, &systems[0], &scratch);
        Self {
            systems,
            gromacs,
            gromacs_ir,
            lulesh,
            lulesh_ir,
            llama,
            llama_src,
            pool,
        }
    }

    /// The GROMACS deployment on system `0..3`.
    pub fn gromacs_deploy(&self, system: usize) -> IrDeployRequest<'_> {
        let model = &self.systems[system];
        let simd = match system {
            0 => SimdLevel::Avx512,
            1 => SimdLevel::Avx2_256,
            _ => model.cpu.best_simd(),
        };
        IrDeployRequest::new(&self.gromacs_ir, &self.gromacs.project, model)
            .select("GMX_SIMD", simd.gmx_name())
            .simd(simd)
    }

    /// The LULESH deployment on ault23 for one MPI × OpenMP selection.
    pub fn lulesh_deploy(&self, mpi: bool, omp: bool) -> IrDeployRequest<'_> {
        let on = |flag| if flag { "ON" } else { "OFF" };
        IrDeployRequest::new(&self.lulesh_ir, &self.lulesh.project, &self.systems[0])
            .select("WITH_MPI", on(mpi))
            .select("WITH_OPENMP", on(omp))
    }

    /// The four-target fleet wave over `build` of `app`, each system lowered for
    /// its best SIMD level.
    pub fn fleet<'a>(&self, app: &'a App, build: &'a IrContainerBuild) -> FleetRequest<'a> {
        let targets = self.systems.iter().map(|system| {
            let simd = system.cpu.best_simd();
            FleetTarget::new(
                system.clone(),
                OptionAssignment::new().with("GMX_SIMD", simd.gmx_name()),
                simd,
            )
        });
        FleetRequest::new(build, &app.project).targets(targets)
    }

    /// The llama.cpp source deployment of `image` on ault23.
    pub fn source_deploy<'a>(&'a self, image: &'a Image) -> SourceDeployRequest<'a> {
        SourceDeployRequest::new(&self.llama, image, &self.systems[0])
    }

    /// The IR build of `app`, committed under a reference of its own.
    pub fn ir_build<'a>(&self, app: &'a App, reference: &str) -> IrBuildRequest<'a> {
        IrBuildRequest::new(&app.project, &app.config).reference(reference)
    }
}

/// The orchestrator references come from: one worker, no cache.
pub fn reference_orchestrator() -> Orchestrator {
    Orchestrator::builder()
        .uncached(ImageStore::new())
        .workers(1)
        .build()
}

/// Build the llama.cpp source container for `system` into `orch`'s store.
pub fn build_llama_source(llama: &ProjectSpec, system: &SystemModel, orch: &Orchestrator) -> Image {
    build_source_container(
        llama,
        xaas::source_container::architecture_of(system),
        orch.store(),
        LLAMA_SRC_REFERENCE,
    )
}

/// Manifest digest of the llama.cpp source container in `orch`'s store.
pub fn llama_source_digest(orch: &Orchestrator) -> Result<String, String> {
    manifest_digest(orch, LLAMA_SRC_REFERENCE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salting_changes_every_source_and_keeps_sizes_seed_independent() {
        let base = gromacs::project();
        let (a, b) = (salted(&base, 123_456), salted(&base, 654_321));
        for ((plain, left), right) in base.sources.iter().zip(&a.sources).zip(&b.sources) {
            assert_ne!(plain.content, left.content);
            assert_ne!(left.content, right.content);
            assert_eq!(left.content.len(), right.content.len());
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_different_ones() {
        let (a, b, c) = (
            Fixtures::generate(13, 2),
            Fixtures::generate(13, 2),
            Fixtures::generate(14, 2),
        );
        assert_eq!(a.gromacs.project, b.gromacs.project);
        assert_eq!(a.gromacs_ir.image, b.gromacs_ir.image);
        assert_ne!(a.gromacs.project, c.gromacs.project);
        assert_ne!(a.pool[0].project, a.pool[1].project);
    }
}
