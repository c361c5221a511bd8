//! GPU models: vendors, programming backends, compute capabilities, and the CUDA
//! compatibility rules of Figure 9 (driver vs runtime vs PTX vs cubin).

use std::fmt;

/// GPU programming backends an application may support (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GpuBackend {
    /// NVIDIA CUDA.
    Cuda,
    /// AMD HIP / ROCm.
    Hip,
    /// Khronos SYCL (Intel oneAPI DPC++, AdaptiveCpp).
    Sycl,
    /// OpenCL.
    OpenCl,
    /// OpenACC directives.
    OpenAcc,
}

impl GpuBackend {
    /// Canonical name as used in build flags (e.g. `-DGMX_GPU=CUDA`).
    pub fn as_str(&self) -> &'static str {
        match self {
            GpuBackend::Cuda => "CUDA",
            GpuBackend::Hip => "HIP",
            GpuBackend::Sycl => "SYCL",
            GpuBackend::OpenCl => "OpenCL",
            GpuBackend::OpenAcc => "OpenACC",
        }
    }

    /// Parse from a build-flag value (case-insensitive).
    pub fn parse(text: &str) -> Option<Self> {
        match text.trim().to_ascii_uppercase().as_str() {
            "CUDA" => Some(GpuBackend::Cuda),
            "HIP" | "ROCM" => Some(GpuBackend::Hip),
            "SYCL" | "ONEAPI" | "DPCPP" => Some(GpuBackend::Sycl),
            "OPENCL" => Some(GpuBackend::OpenCl),
            "OPENACC" => Some(GpuBackend::OpenAcc),
            _ => None,
        }
    }
}

impl fmt::Display for GpuBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// GPU hardware vendor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuVendor {
    /// NVIDIA.
    Nvidia,
    /// AMD.
    Amd,
    /// Intel.
    Intel,
}

/// A semantic version with major/minor parts (CUDA runtime, driver, ROCm, Level Zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Version {
    /// Major component.
    pub major: u32,
    /// Minor component.
    pub minor: u32,
}

impl Version {
    /// Construct a version.
    pub const fn new(major: u32, minor: u32) -> Self {
        Self { major, minor }
    }

    /// Parse `major.minor` (extra components ignored).
    pub fn parse(text: &str) -> Option<Self> {
        let mut parts = text.trim().split('.');
        let major = parts.next()?.parse().ok()?;
        let minor = parts.next().unwrap_or("0").parse().ok()?;
        Some(Self { major, minor })
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.major, self.minor)
    }
}

/// Compute capability of an NVIDIA device (or the analogous generation id for others).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComputeCapability {
    /// Major generation (7 = Volta, 8 = Ampere, 9 = Hopper, …).
    pub major: u32,
    /// Minor revision.
    pub minor: u32,
}

impl ComputeCapability {
    /// Construct a compute capability.
    pub const fn new(major: u32, minor: u32) -> Self {
        Self { major, minor }
    }

    /// `sm_XY` string used by device-code generation.
    pub(crate) fn sm_name(&self) -> String {
        format!("sm_{}{}", self.major, self.minor)
    }

    /// `compute_XY` string used for PTX (virtual architecture).
    pub(crate) fn virtual_name(&self) -> String {
        format!("compute_{}{}", self.major, self.minor)
    }
}

impl fmt::Display for ComputeCapability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.major, self.minor)
    }
}

/// A GPU device model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuModel {
    /// Marketing name.
    pub name: String,
    /// Vendor.
    pub vendor: GpuVendor,
    /// Compute capability (NVIDIA) or generation analogue.
    pub compute_capability: ComputeCapability,
    /// Device memory in GiB.
    pub memory_gib: u32,
    /// Peak single-precision throughput relative to a V100 (1.0 = V100).
    pub relative_throughput: f64,
    /// Backends the device's driver stack supports natively.
    pub supported_backends: Vec<GpuBackend>,
    /// Installed driver version on the host (the left half of Figure 9).
    pub driver_version: Version,
    /// Maximum CUDA/Level-Zero/ROCm runtime version the driver supports.
    pub max_runtime_version: Version,
}

impl GpuModel {
    /// NVIDIA V100 (Ault23).
    pub fn nvidia_v100() -> Self {
        Self {
            name: "NVIDIA V100".into(),
            vendor: GpuVendor::Nvidia,
            compute_capability: ComputeCapability::new(7, 0),
            memory_gib: 16,
            relative_throughput: 1.0,
            supported_backends: vec![GpuBackend::Cuda, GpuBackend::OpenCl, GpuBackend::Sycl],
            driver_version: Version::new(550, 54),
            max_runtime_version: Version::new(12, 4),
        }
    }

    /// NVIDIA A100 (Ault25).
    pub fn nvidia_a100() -> Self {
        Self {
            name: "NVIDIA A100".into(),
            vendor: GpuVendor::Nvidia,
            compute_capability: ComputeCapability::new(8, 0),
            memory_gib: 40,
            relative_throughput: 1.9,
            supported_backends: vec![GpuBackend::Cuda, GpuBackend::OpenCl, GpuBackend::Sycl],
            driver_version: Version::new(550, 54),
            max_runtime_version: Version::new(12, 4),
        }
    }

    /// NVIDIA H100 (GH200 device side, Clariden).
    pub fn nvidia_gh200() -> Self {
        Self {
            name: "NVIDIA GH200 (H100)".into(),
            vendor: GpuVendor::Nvidia,
            compute_capability: ComputeCapability::new(9, 0),
            memory_gib: 96,
            relative_throughput: 3.4,
            supported_backends: vec![GpuBackend::Cuda, GpuBackend::OpenCl, GpuBackend::Sycl],
            driver_version: Version::new(555, 42),
            max_runtime_version: Version::new(12, 8),
        }
    }

    /// Intel Data Center GPU Max 1550 (Aurora).
    pub(crate) fn intel_max_1550() -> Self {
        Self {
            name: "Intel Data Center GPU Max 1550".into(),
            vendor: GpuVendor::Intel,
            compute_capability: ComputeCapability::new(12, 60),
            memory_gib: 128,
            relative_throughput: 1.6,
            supported_backends: vec![GpuBackend::Sycl, GpuBackend::OpenCl, GpuBackend::OpenAcc],
            driver_version: Version::new(1, 3),
            max_runtime_version: Version::new(1, 3),
        }
    }

    /// Whether this device can run code using `backend`.
    pub(crate) fn supports_backend(&self, backend: GpuBackend) -> bool {
        self.supported_backends.contains(&backend)
    }
}

/// How device code is shipped inside a container image (Figure 9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceCode {
    /// A compiled binary (`cubin`/`hsaco`) for one exact compute capability.
    Cubin(ComputeCapability),
    /// Portable virtual ISA (PTX/SPIR-V) for a minimum compute capability, JIT-compiled
    /// by the driver on newer devices.
    Ptx(ComputeCapability),
}

/// Outcome of checking whether shipped device code can execute on a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuCompatibility {
    /// Runs natively (exact cubin match).
    Native,
    /// Runs after driver JIT compilation of PTX (startup cost, full performance after).
    JitFromPtx,
    /// Cannot run: reason recorded.
    Incompatible(String),
}

impl GpuCompatibility {
    /// True when the code can execute at all.
    pub fn runs(&self) -> bool {
        !matches!(self, GpuCompatibility::Incompatible(_))
    }
}

/// Check the CUDA-style compatibility rules of Figure 9.
///
/// * The container runtime version must not exceed what the host driver supports
///   (minor-version compatibility within a major release is granted).
/// * A `cubin` only runs on a device with the same compute-capability major and a
///   minor that is ≥ the compiled one.
/// * PTX runs on any device with compute capability ≥ the PTX target via JIT.
pub fn check_gpu_compatibility(
    device: &GpuModel,
    container_runtime: Version,
    code: &DeviceCode,
) -> GpuCompatibility {
    // Driver vs runtime. CUDA minor version compatibility: any 12.x runtime
    // works on a 12.y driver, so only the major version constrains admission.
    let max = device.max_runtime_version;
    if container_runtime.major > max.major {
        return GpuCompatibility::Incompatible(format!(
            "container runtime {container_runtime} needs a newer driver (max supported major {})",
            max.major
        ));
    }
    let dev_cc = device.compute_capability;
    match code {
        DeviceCode::Cubin(cc) => {
            if cc.major == dev_cc.major && dev_cc.minor >= cc.minor {
                GpuCompatibility::Native
            } else {
                GpuCompatibility::Incompatible(format!(
                    "cubin for {} cannot run on device {}",
                    cc.sm_name(),
                    dev_cc.sm_name()
                ))
            }
        }
        DeviceCode::Ptx(cc) => {
            if dev_cc >= *cc {
                GpuCompatibility::JitFromPtx
            } else {
                GpuCompatibility::Incompatible(format!(
                    "PTX targets {} which is newer than device {}",
                    cc.virtual_name(),
                    dev_cc.sm_name()
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parse_and_display() {
        assert_eq!(GpuBackend::parse("CUDA"), Some(GpuBackend::Cuda));
        assert_eq!(GpuBackend::parse("hip"), Some(GpuBackend::Hip));
        assert_eq!(GpuBackend::parse("oneapi"), Some(GpuBackend::Sycl));
        assert_eq!(GpuBackend::parse("metal"), None);
        assert_eq!(GpuBackend::Cuda.as_str(), "CUDA");
    }

    #[test]
    fn version_parse_and_order() {
        assert_eq!(Version::parse("12.1"), Some(Version::new(12, 1)));
        assert_eq!(Version::parse("12"), Some(Version::new(12, 0)));
        assert_eq!(Version::parse("12.1.105"), Some(Version::new(12, 1)));
        assert!(Version::new(12, 8) > Version::new(12, 1));
        assert!(Version::new(11, 8) < Version::new(12, 0));
    }

    #[test]
    fn compute_capability_names() {
        let cc = ComputeCapability::new(9, 0);
        assert_eq!(cc.sm_name(), "sm_90");
        assert_eq!(cc.virtual_name(), "compute_90");
    }

    #[test]
    fn exact_cubin_runs_natively() {
        let v100 = GpuModel::nvidia_v100();
        let compat = check_gpu_compatibility(
            &v100,
            Version::new(12, 1),
            &DeviceCode::Cubin(ComputeCapability::new(7, 0)),
        );
        assert_eq!(compat, GpuCompatibility::Native);
    }

    #[test]
    fn cubin_for_newer_major_does_not_run_on_older_device() {
        let v100 = GpuModel::nvidia_v100();
        let compat = check_gpu_compatibility(
            &v100,
            Version::new(12, 1),
            &DeviceCode::Cubin(ComputeCapability::new(8, 0)),
        );
        assert!(!compat.runs());
    }

    #[test]
    fn cubin_does_not_carry_forward_across_majors_but_ptx_does() {
        let h100 = GpuModel::nvidia_gh200();
        // Ampere cubin cannot run on Hopper…
        let cubin = check_gpu_compatibility(
            &h100,
            Version::new(12, 1),
            &DeviceCode::Cubin(ComputeCapability::new(8, 0)),
        );
        assert!(!cubin.runs());
        // …but Ampere PTX can, via JIT (the portability mechanism of Section 2.2).
        let ptx = check_gpu_compatibility(
            &h100,
            Version::new(12, 1),
            &DeviceCode::Ptx(ComputeCapability::new(8, 0)),
        );
        assert_eq!(ptx, GpuCompatibility::JitFromPtx);
    }

    #[test]
    fn newer_runtime_major_than_driver_is_rejected() {
        let v100 = GpuModel::nvidia_v100(); // driver supports up to 12.4
        let compat = check_gpu_compatibility(
            &v100,
            Version::new(13, 0),
            &DeviceCode::Ptx(ComputeCapability::new(7, 0)),
        );
        assert!(!compat.runs());
    }

    #[test]
    fn minor_version_compatibility_within_major() {
        // CUDA 12.8 container on a 12.4-capable driver: allowed (minor version compat).
        let v100 = GpuModel::nvidia_v100();
        let compat = check_gpu_compatibility(
            &v100,
            Version::new(12, 8),
            &DeviceCode::Ptx(ComputeCapability::new(7, 0)),
        );
        assert!(compat.runs());
    }

    #[test]
    fn ptx_for_newer_capability_than_device_fails() {
        let v100 = GpuModel::nvidia_v100();
        let compat = check_gpu_compatibility(
            &v100,
            Version::new(12, 1),
            &DeviceCode::Ptx(ComputeCapability::new(9, 0)),
        );
        assert!(!compat.runs());
    }

    #[test]
    fn device_catalogue_backends() {
        assert!(GpuModel::nvidia_a100().supports_backend(GpuBackend::Cuda));
        assert!(!GpuModel::intel_max_1550().supports_backend(GpuBackend::Cuda));
        assert!(GpuModel::intel_max_1550().supports_backend(GpuBackend::Sycl));
    }
}
