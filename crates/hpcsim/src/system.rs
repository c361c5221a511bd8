//! Whole-system models: the three evaluation systems of Section 6.1 (CSCS Ault nodes,
//! Alps Clariden, ALCF Aurora), their module environments, container runtimes, and
//! operator-recommended base images.

use crate::cpu::CpuModel;
use crate::gpu::{GpuBackend, GpuModel, Version};
use crate::network::Provider;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Container runtime deployed on a system: the workspace's one model of a runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContainerRuntimeFlavor {
    /// Docker (local development machines).
    Docker,
    /// Sarus (CSCS Ault).
    Sarus,
    /// Podman (Alps Clariden).
    Podman,
    /// Apptainer (Aurora).
    Apptainer,
}

impl ContainerRuntimeFlavor {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ContainerRuntimeFlavor::Docker => "Docker",
            ContainerRuntimeFlavor::Sarus => "Sarus",
            ContainerRuntimeFlavor::Podman => "Podman",
            ContainerRuntimeFlavor::Apptainer => "Apptainer",
        }
    }

    /// Whether containerized MPI works on this runtime as deployed in the paper
    /// (Apptainer on Aurora did not function with MPI, Section 6.5).
    pub fn mpi_functional(&self) -> bool {
        !matches!(self, ContainerRuntimeFlavor::Apptainer)
    }
}

impl fmt::Display for ContainerRuntimeFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Kind of a software module provided by the system's module environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ModuleKind {
    /// A compiler toolchain (GCC, oneAPI, Cray CE).
    Compiler,
    /// An MPI implementation.
    Mpi,
    /// A BLAS/LAPACK implementation.
    Blas,
    /// An FFT library.
    Fft,
    /// A GPU runtime (CUDA, ROCm, Level Zero).
    GpuRuntime,
    /// Anything else (Python, cmake, …).
    Other,
}

/// One module available through `module load`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SoftwareModule {
    /// Module name, e.g. `intel-oneapi-mkl`.
    pub name: String,
    /// Version string.
    pub version: String,
    /// Kind.
    pub kind: ModuleKind,
    /// ABI family where relevant (MPI modules: `mpich` / `openmpi`).
    pub abi: Option<String>,
}

impl SoftwareModule {
    /// Convenience constructor.
    pub fn new(name: &str, version: &str, kind: ModuleKind) -> Self {
        Self {
            name: name.into(),
            version: version.into(),
            kind,
            abi: None,
        }
    }

    /// Attach an ABI family.
    pub(crate) fn with_abi(mut self, abi: &str) -> Self {
        self.abi = Some(abi.into());
        self
    }
}

/// A complete system model.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SystemModel {
    /// System name as used in the paper (Ault23, Ault25, Clariden, Aurora, …).
    pub name: String,
    /// Host CPU.
    pub cpu: CpuModel,
    /// GPUs per node (empty for CPU-only partitions).
    pub gpus: Vec<GpuModel>,
    /// GPU runtime version installed on the host (CUDA / ROCm / Level Zero).
    pub gpu_runtime_version: Option<Version>,
    /// High-speed network provider.
    pub network_provider: Provider,
    /// Container runtime available to users.
    pub container_runtime: ContainerRuntimeFlavor,
    /// Whether container images can be built on the system itself (Clariden can, the
    /// others require an external build machine — Section 6.1).
    pub supports_container_build: bool,
    /// Modules available in the environment.
    pub modules: Vec<SoftwareModule>,
    /// Operator-recommended base image for specialized builds (e.g. oneAPI on Aurora).
    pub recommended_base_image: Option<String>,
}

impl SystemModel {
    /// Whether the system has at least one GPU supporting `backend`.
    pub fn has_gpu_backend(&self, backend: GpuBackend) -> bool {
        self.gpus.iter().any(|g| g.supports_backend(backend))
    }

    /// The primary GPU, if any.
    pub fn primary_gpu(&self) -> Option<&GpuModel> {
        self.gpus.first()
    }

    /// Whether a vendor BLAS (MKL) is present in the module environment.
    pub fn has_vendor_blas(&self) -> bool {
        self.modules
            .iter()
            .any(|m| m.kind == ModuleKind::Blas && m.name.to_ascii_lowercase().contains("mkl"))
    }

    /// Ault23: Intel Xeon Gold 6130 + NVIDIA V100, Sarus (Section 6.1).
    pub fn ault23() -> Self {
        Self {
            name: "Ault23".into(),
            cpu: CpuModel::intel_xeon_gold_6130(),
            gpus: vec![GpuModel::nvidia_v100()],
            gpu_runtime_version: Some(Version::new(12, 1)),
            network_provider: Provider::Verbs,
            container_runtime: ContainerRuntimeFlavor::Sarus,
            supports_container_build: false,
            modules: vec![
                SoftwareModule::new("gcc", "11.4", ModuleKind::Compiler),
                SoftwareModule::new("cuda", "12.1", ModuleKind::GpuRuntime),
                SoftwareModule::new("intel-oneapi-mkl", "2024.0", ModuleKind::Blas),
                SoftwareModule::new("openmpi", "4.1.6", ModuleKind::Mpi).with_abi("openmpi"),
                SoftwareModule::new("fftw", "3.3.10", ModuleKind::Fft),
            ],
            recommended_base_image: None,
        }
    }

    /// Ault25: AMD EPYC 7742 + NVIDIA A100, Sarus.
    pub fn ault25() -> Self {
        Self {
            name: "Ault25".into(),
            cpu: CpuModel::amd_epyc_7742(),
            gpus: vec![GpuModel::nvidia_a100()],
            gpu_runtime_version: Some(Version::new(12, 1)),
            network_provider: Provider::Verbs,
            container_runtime: ContainerRuntimeFlavor::Sarus,
            supports_container_build: false,
            modules: vec![
                SoftwareModule::new("gcc", "11.4", ModuleKind::Compiler),
                SoftwareModule::new("cuda", "12.1", ModuleKind::GpuRuntime),
                SoftwareModule::new("openblas", "0.3.26", ModuleKind::Blas),
                SoftwareModule::new("openmpi", "4.1.6", ModuleKind::Mpi).with_abi("openmpi"),
                SoftwareModule::new("fftw", "3.3.10", ModuleKind::Fft),
            ],
            recommended_base_image: None,
        }
    }

    /// Ault01-04: CPU-only Intel Xeon Gold 6154 nodes used for the IR container CPU sweep.
    pub fn ault01_04() -> Self {
        Self {
            name: "Ault01-04".into(),
            cpu: CpuModel::intel_xeon_gold_6154(),
            gpus: Vec::new(),
            gpu_runtime_version: None,
            network_provider: Provider::Verbs,
            container_runtime: ContainerRuntimeFlavor::Sarus,
            supports_container_build: false,
            modules: vec![
                SoftwareModule::new("gcc", "11.4", ModuleKind::Compiler),
                SoftwareModule::new("intel-oneapi-mkl", "2024.0", ModuleKind::Blas),
                SoftwareModule::new("fftw", "3.3.10", ModuleKind::Fft),
            ],
            recommended_base_image: None,
        }
    }

    /// Alps Clariden: GH200 superchip, Slingshot (cxi), Podman; builds on compute nodes.
    pub fn clariden() -> Self {
        Self {
            name: "Clariden".into(),
            cpu: CpuModel::nvidia_grace(),
            gpus: vec![GpuModel::nvidia_gh200()],
            gpu_runtime_version: Some(Version::new(12, 8)),
            network_provider: Provider::Cxi,
            container_runtime: ContainerRuntimeFlavor::Podman,
            supports_container_build: true,
            modules: vec![
                SoftwareModule::new("gcc", "12.3", ModuleKind::Compiler),
                SoftwareModule::new("cuda", "12.8", ModuleKind::GpuRuntime),
                SoftwareModule::new("cray-mpich", "8.1.29", ModuleKind::Mpi).with_abi("mpich"),
                SoftwareModule::new("openblas", "0.3.26", ModuleKind::Blas),
                SoftwareModule::new("fftw", "3.3.10", ModuleKind::Fft),
            ],
            recommended_base_image: None,
        }
    }

    /// ALCF Aurora: Intel Xeon CPU Max + Intel Data Center GPU Max, Apptainer; oneAPI
    /// image recommended by operators.
    pub fn aurora() -> Self {
        Self {
            name: "Aurora".into(),
            cpu: CpuModel::intel_xeon_max(),
            gpus: vec![GpuModel::intel_max_1550()],
            gpu_runtime_version: Some(Version::new(1, 3)),
            network_provider: Provider::Cxi,
            container_runtime: ContainerRuntimeFlavor::Apptainer,
            supports_container_build: false,
            modules: vec![
                SoftwareModule::new("oneapi", "2025.0", ModuleKind::Compiler),
                SoftwareModule::new("intel-oneapi-mkl", "2025.0", ModuleKind::Blas),
                SoftwareModule::new("level-zero", "1.3", ModuleKind::GpuRuntime),
                SoftwareModule::new("mpich", "4.2", ModuleKind::Mpi).with_abi("mpich"),
            ],
            recommended_base_image: Some("intel/oneapi-hpckit:2025.0".into()),
        }
    }

    /// A local x86 development machine with Docker (used to build images for systems
    /// that cannot build containers themselves).
    pub fn local_dev_machine() -> Self {
        Self {
            name: "LocalDev".into(),
            cpu: CpuModel::intel_xeon_gold_6130(),
            gpus: Vec::new(),
            gpu_runtime_version: None,
            network_provider: Provider::Tcp,
            container_runtime: ContainerRuntimeFlavor::Docker,
            supports_container_build: true,
            modules: vec![SoftwareModule::new("gcc", "11.4", ModuleKind::Compiler)],
            recommended_base_image: None,
        }
    }

    /// All evaluation systems of the paper.
    pub fn all_evaluation_systems() -> Vec<SystemModel> {
        vec![
            Self::ault23(),
            Self::ault25(),
            Self::ault01_04(),
            Self::clariden(),
            Self::aurora(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::SimdLevel;

    #[test]
    fn evaluation_systems_match_section_6_1() {
        let systems = SystemModel::all_evaluation_systems();
        assert_eq!(systems.len(), 5);
        let ault23 = SystemModel::ault23();
        assert_eq!(ault23.cpu.name, "Intel Xeon Gold 6130");
        assert_eq!(ault23.primary_gpu().unwrap().name, "NVIDIA V100");
        assert_eq!(ault23.container_runtime, ContainerRuntimeFlavor::Sarus);

        let clariden = SystemModel::clariden();
        assert!(clariden.supports_container_build);
        assert_eq!(clariden.network_provider, Provider::Cxi);
        assert_eq!(clariden.container_runtime, ContainerRuntimeFlavor::Podman);

        let aurora = SystemModel::aurora();
        assert_eq!(aurora.container_runtime, ContainerRuntimeFlavor::Apptainer);
        assert!(aurora
            .recommended_base_image
            .as_deref()
            .unwrap()
            .contains("oneapi"));
        assert!(!aurora.container_runtime.mpi_functional());

        // Docker runs containerized MPI; only Apptainer on Aurora did not (Section 6.5).
        assert!(ContainerRuntimeFlavor::Docker.mpi_functional());
        assert_eq!(
            SystemModel::local_dev_machine().container_runtime,
            ContainerRuntimeFlavor::Docker
        );
    }

    #[test]
    fn gpu_backend_availability_per_system() {
        assert!(SystemModel::ault23().has_gpu_backend(GpuBackend::Cuda));
        assert!(!SystemModel::ault23().has_gpu_backend(GpuBackend::Hip));
        assert!(SystemModel::aurora().has_gpu_backend(GpuBackend::Sycl));
        assert!(!SystemModel::aurora().has_gpu_backend(GpuBackend::Cuda));
        assert!(!SystemModel::ault01_04().has_gpu_backend(GpuBackend::Cuda));
    }

    #[test]
    fn module_lookup() {
        let ault23 = SystemModel::ault23();
        assert!(ault23.has_vendor_blas());
        assert!(!SystemModel::ault25().has_vendor_blas());
        let mpi = ault23
            .modules
            .iter()
            .find(|m| m.kind == ModuleKind::Mpi)
            .unwrap();
        assert_eq!(mpi.abi.as_deref(), Some("openmpi"));
        let compilers = ault23
            .modules
            .iter()
            .filter(|m| m.kind == ModuleKind::Compiler);
        assert_eq!(compilers.count(), 1);
    }

    #[test]
    fn cpu_capabilities_per_system() {
        assert!(SystemModel::ault23().cpu.supports(SimdLevel::Avx512));
        assert!(!SystemModel::ault25().cpu.supports(SimdLevel::Avx512));
        assert!(SystemModel::clariden().cpu.supports(SimdLevel::NeonAsimd));
    }

    #[test]
    fn only_clariden_and_dev_build_containers_locally() {
        assert!(SystemModel::clariden().supports_container_build);
        assert!(SystemModel::local_dev_machine().supports_container_build);
        assert!(!SystemModel::ault23().supports_container_build);
        assert!(!SystemModel::aurora().supports_container_build);
    }

    /// A system's JSON is written only, as the input a fleet job's key digests:
    /// the same system writes the same text, and distinct systems distinct text.
    #[test]
    fn systems_serialize_to_json() {
        let json = |system: &SystemModel| serde_json::to_string(system).unwrap();
        let clariden = json(&SystemModel::clariden());
        assert_eq!(clariden, json(&SystemModel::clariden()));
        assert!(clariden.contains(r#""name":"Clariden""#), "{clariden}");
        assert_ne!(clariden, json(&SystemModel::ault23()));
    }
}
