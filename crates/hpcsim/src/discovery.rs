//! System discovery: produce the "System Features" document of Figure 4(b) from a
//! [`SystemModel`], including the paper's augmentation rules ("when a ROCm or CUDA
//! installation is discovered, we assume the availability of rocFFT and cuFFT").

use crate::gpu::GpuBackend;
use crate::system::{ContainerRuntimeFlavor, ModuleKind, SystemModel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// GPU backend availability as discovered on the system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscoveredGpuBackend {
    /// Runtime version (e.g. CUDA 12.1).
    pub version: String,
    /// Library paths that evidence the installation.
    pub libraries: Vec<String>,
    /// Vendor libraries assumed present because the runtime is present (cuFFT, rocFFT, oneMKL).
    pub implied_libraries: Vec<String>,
}

/// The system feature document (Figure 4b) that the intersection step consumes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemFeatures {
    /// System name.
    pub system: String,
    /// CPU architecture (`x86_64`, `aarch64`).
    pub architecture: String,
    /// archspec-like microarchitecture label.
    pub microarchitecture: String,
    /// Vectorization feature flags (e.g. `avx512f`, `sve`).
    pub vectorization: Vec<String>,
    /// Number of physical cores.
    pub cores: u32,
    /// Discovered GPU backends.
    pub gpu_backends: BTreeMap<String, DiscoveredGpuBackend>,
    /// MPI implementations available (name → ABI family).
    pub mpi: BTreeMap<String, String>,
    /// Linear algebra libraries available from modules.
    pub linear_algebra: Vec<String>,
    /// FFT libraries available from modules (including implied vendor FFTs).
    pub fft: Vec<String>,
    /// Compilers available.
    pub compilers: Vec<String>,
    /// Network provider name.
    pub network_provider: String,
    /// Container runtime (written as its name, e.g. `"Sarus"`).
    pub container_runtime: ContainerRuntimeFlavor,
}

impl SystemFeatures {
    /// Whether a GPU backend was discovered (case-insensitive).
    pub fn has_gpu_backend(&self, backend: &str) -> bool {
        self.gpu_backends
            .keys()
            .any(|k| k.eq_ignore_ascii_case(backend))
    }

    /// Whether the CPU exposes a vectorization flag.
    pub fn has_vector_flag(&self, flag: &str) -> bool {
        self.vectorization
            .iter()
            .any(|f| f.eq_ignore_ascii_case(flag))
    }

    /// Serialise the document as pretty JSON (the artifact the deployment step stores).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("system features serialise")
    }

    /// Parse a JSON document.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// Run system discovery against a system model.
///
/// This is the step the paper requires to "be conducted on a compute node, and in an
/// environment with all standard modules loaded"; the model makes it deterministic.
pub fn discover(system: &SystemModel) -> SystemFeatures {
    let mut features = SystemFeatures {
        system: system.name.clone(),
        architecture: system.cpu.family.as_str().to_string(),
        microarchitecture: system.cpu.microarchitecture.clone(),
        vectorization: system.cpu.feature_flags.clone(),
        cores: system.cpu.total_cores(),
        gpu_backends: BTreeMap::new(),
        mpi: BTreeMap::new(),
        linear_algebra: Vec::new(),
        fft: Vec::new(),
        compilers: Vec::new(),
        network_provider: system.network_provider.as_str().to_string(),
        container_runtime: system.container_runtime,
    };

    for gpu in &system.gpus {
        for backend in &gpu.supported_backends {
            let (version, libraries, implied) = match backend {
                GpuBackend::Cuda => (
                    system
                        .gpu_runtime_version
                        .map(|v| v.to_string())
                        .unwrap_or_default(),
                    vec![
                        "/lib/libcuda.so.1".to_string(),
                        "/usr/local/cuda/lib64/libcudart.so".to_string(),
                    ],
                    // Augmentation rule: CUDA implies cuFFT and cuBLAS.
                    vec!["cuFFT".to_string(), "cuBLAS".to_string()],
                ),
                GpuBackend::Hip => (
                    system
                        .gpu_runtime_version
                        .map(|v| v.to_string())
                        .unwrap_or_default(),
                    vec!["/opt/rocm/lib/libamdhip64.so".to_string()],
                    vec!["rocFFT".to_string(), "rocBLAS".to_string()],
                ),
                GpuBackend::Sycl => (
                    system
                        .gpu_runtime_version
                        .map(|v| v.to_string())
                        .unwrap_or_default(),
                    vec!["/usr/lib/libze_loader.so".to_string()],
                    vec!["oneMKL".to_string()],
                ),
                GpuBackend::OpenCl => (
                    "3.0".to_string(),
                    vec!["/usr/lib/libOpenCL.so".to_string()],
                    vec![],
                ),
                GpuBackend::OpenAcc => ("".to_string(), vec![], vec![]),
            };
            features
                .gpu_backends
                .entry(backend.as_str().to_string())
                .or_insert(DiscoveredGpuBackend {
                    version,
                    libraries,
                    implied_libraries: implied,
                });
        }
    }

    for module in &system.modules {
        match module.kind {
            ModuleKind::Mpi => {
                features.mpi.insert(
                    module.name.clone(),
                    module.abi.clone().unwrap_or_else(|| "unknown".into()),
                );
            }
            ModuleKind::Blas => features.linear_algebra.push(module.name.clone()),
            ModuleKind::Fft => features.fft.push(module.name.clone()),
            ModuleKind::Compiler => features
                .compilers
                .push(format!("{} {}", module.name, module.version)),
            _ => {}
        }
    }
    // Vendor FFTs implied by GPU runtimes also count as available FFT implementations.
    let implied: Vec<String> = features
        .gpu_backends
        .values()
        .flat_map(|b| b.implied_libraries.iter().cloned())
        .filter(|l| l.to_ascii_lowercase().contains("fft"))
        .collect();
    features.fft.extend(implied);
    features.fft.sort();
    features.fft.dedup();
    features.linear_algebra.sort();
    features.linear_algebra.dedup();
    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemModel;

    #[test]
    fn ault23_discovery_finds_cuda_and_mkl() {
        let features = discover(&SystemModel::ault23());
        assert_eq!(features.architecture, "x86_64");
        assert!(features.has_gpu_backend("CUDA"));
        assert!(features.has_vector_flag("avx512f"));
        assert!(features.linear_algebra.iter().any(|l| l.contains("mkl")));
        // CUDA implies cuFFT availability even though no cuFFT module exists.
        assert!(features.fft.iter().any(|f| f == "cuFFT"));
        assert_eq!(features.container_runtime, ContainerRuntimeFlavor::Sarus);
    }

    #[test]
    fn aurora_discovery_has_sycl_but_not_cuda() {
        let features = discover(&SystemModel::aurora());
        assert!(features.has_gpu_backend("SYCL"));
        assert!(!features.has_gpu_backend("CUDA"));
        assert!(features.has_vector_flag("amx"));
        assert_eq!(features.mpi.get("mpich").map(String::as_str), Some("mpich"));
    }

    #[test]
    fn cpu_only_system_reports_no_gpu_backends() {
        let features = discover(&SystemModel::ault01_04());
        assert!(features.gpu_backends.is_empty());
        assert!(features.cores >= 36);
    }

    #[test]
    fn clariden_is_arm_with_cxi() {
        let features = discover(&SystemModel::clariden());
        assert_eq!(features.architecture, "aarch64");
        assert!(features.has_vector_flag("sve"));
        assert_eq!(features.network_provider, "cxi");
        assert_eq!(
            features.mpi.get("cray-mpich").map(String::as_str),
            Some("mpich")
        );
    }

    #[test]
    fn features_json_roundtrip() {
        let features = discover(&SystemModel::ault23());
        let json = features.to_json();
        assert!(json.contains("\"CUDA\""));
        // The runtime is an enum, written as its bare name: the document's text is unchanged.
        assert!(json.contains("\"container_runtime\": \"Sarus\""));
        let back = SystemFeatures::from_json(&json).unwrap();
        assert_eq!(back, features);

        // The document is outside input: an unknown runtime is an error, not a panic.
        let unknown = json.replace("\"Sarus\"", "\"Singularity\"");
        let err = SystemFeatures::from_json(&unknown).unwrap_err();
        assert!(err.to_string().contains("Singularity"), "{err}");
    }
}
