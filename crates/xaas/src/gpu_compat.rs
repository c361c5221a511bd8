//! GPU compatibility planning (Figure 9 / Section 4.3, "GPU Compatibility").
//!
//! When an IR container embeds device code, XaaS must decide which CUDA runtime to use
//! and which device representations to ship: binaries (`cubin`) for every architecture
//! known at container-build time plus PTX for the newest compute capability, so newer
//! devices can still JIT-compile the kernels.

use xaas_hpcsim::{
    check_gpu_compatibility, ComputeCapability, DeviceCode, GpuCompatibility, GpuModel, Version,
};

/// How the application constrains the CUDA runtime version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeRequirement {
    /// No conditional use of runtime-version macros detected: any minor version works.
    AnyMinorVersion,
    /// The source conditionally depends on APIs introduced in this runtime version
    /// (detected through `CUDART_VERSION`-style compile-time checks).
    AtLeast(Version),
}

/// The device-code bundle XaaS ships inside an IR container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceCodeBundle {
    /// CUDA runtime version the container is built against.
    pub runtime: Version,
    /// Binary device code for every architecture known at build time.
    pub cubins: Vec<ComputeCapability>,
    /// PTX emitted for the newest compute capability, to cover future devices via JIT.
    pub ptx: ComputeCapability,
}

impl DeviceCodeBundle {
    /// Device representations in checking order (exact binary first, then PTX).
    pub(crate) fn representations(&self) -> Vec<DeviceCode> {
        let mut reps: Vec<DeviceCode> = self
            .cubins
            .iter()
            .map(|cc| DeviceCode::Cubin(*cc))
            .collect();
        reps.push(DeviceCode::Ptx(self.ptx));
        reps
    }
}

/// Plan a device-code bundle: pick the runtime (newest allowed by the requirement and the
/// oldest driver among the target systems' devices) and the architectures to embed.
pub fn plan_bundle(
    requirement: RuntimeRequirement,
    known_devices: &[GpuModel],
    newest_runtime: Version,
) -> DeviceCodeBundle {
    // Pessimistic rule from the paper: if the application conditionally depends on newer
    // runtime APIs we must use the newest runtime; otherwise prefer the oldest runtime
    // supported by every known driver to maximise backward compatibility.
    let oldest_supported = known_devices
        .iter()
        .map(|d| d.max_runtime_version)
        .min()
        .unwrap_or(newest_runtime);
    let runtime = match requirement {
        RuntimeRequirement::AnyMinorVersion => oldest_supported.min(newest_runtime),
        RuntimeRequirement::AtLeast(v) => {
            if v > oldest_supported {
                newest_runtime
            } else {
                oldest_supported.min(newest_runtime)
            }
        }
    };
    let mut cubins: Vec<ComputeCapability> =
        known_devices.iter().map(|d| d.compute_capability).collect();
    cubins.sort();
    cubins.dedup();
    let ptx = cubins
        .last()
        .copied()
        .unwrap_or(ComputeCapability::new(7, 0));
    DeviceCodeBundle {
        runtime,
        cubins,
        ptx,
    }
}

/// Check how a bundle runs on a device: native cubin preferred, PTX JIT as fallback.
pub fn bundle_compatibility(bundle: &DeviceCodeBundle, device: &GpuModel) -> GpuCompatibility {
    let mut best: Option<GpuCompatibility> = None;
    for representation in bundle.representations() {
        match check_gpu_compatibility(device, bundle.runtime, &representation) {
            GpuCompatibility::Native => return GpuCompatibility::Native,
            GpuCompatibility::JitFromPtx => best = Some(GpuCompatibility::JitFromPtx),
            GpuCompatibility::Incompatible(reason) => {
                if best.is_none() {
                    best = Some(GpuCompatibility::Incompatible(reason));
                }
            }
        }
    }
    best.unwrap_or(GpuCompatibility::Incompatible(
        "no device code shipped".into(),
    ))
}

/// Scan source text for compile-time checks on the CUDA runtime version (the pessimistic
/// detection described in Section 4.3).
#[cfg(test)]
pub(crate) fn detect_runtime_requirement(sources: &[&str]) -> RuntimeRequirement {
    for source in sources {
        for line in source.lines() {
            let trimmed = line.trim();
            if trimmed.contains("CUDART_VERSION") || trimmed.contains("CUDA_VERSION") {
                // Conservative: any conditional use forces the newest runtime.
                return RuntimeRequirement::AtLeast(Version::new(12, 8));
            }
        }
    }
    RuntimeRequirement::AnyMinorVersion
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices() -> Vec<GpuModel> {
        vec![GpuModel::nvidia_v100(), GpuModel::nvidia_a100()]
    }

    #[test]
    fn bundle_includes_cubins_for_known_devices_and_ptx_for_newest() {
        let bundle = plan_bundle(
            RuntimeRequirement::AnyMinorVersion,
            &devices(),
            Version::new(12, 8),
        );
        assert_eq!(
            bundle.cubins,
            vec![ComputeCapability::new(7, 0), ComputeCapability::new(8, 0)]
        );
        assert_eq!(bundle.ptx, ComputeCapability::new(8, 0));
        // Oldest driver supports 12.4, so that is the chosen runtime.
        assert_eq!(bundle.runtime, Version::new(12, 4));
    }

    #[test]
    fn runtime_requirement_forces_newest_runtime() {
        let bundle = plan_bundle(
            RuntimeRequirement::AtLeast(Version::new(12, 6)),
            &devices(),
            Version::new(12, 8),
        );
        assert_eq!(bundle.runtime, Version::new(12, 8));
    }

    #[test]
    fn known_devices_run_natively_newer_devices_jit_from_ptx() {
        let bundle = plan_bundle(
            RuntimeRequirement::AnyMinorVersion,
            &devices(),
            Version::new(12, 8),
        );
        assert_eq!(
            bundle_compatibility(&bundle, &GpuModel::nvidia_v100()),
            GpuCompatibility::Native
        );
        assert_eq!(
            bundle_compatibility(&bundle, &GpuModel::nvidia_a100()),
            GpuCompatibility::Native
        );
        // Hopper (GH200) has no cubin in the bundle but can JIT the sm_80 PTX.
        assert_eq!(
            bundle_compatibility(&bundle, &GpuModel::nvidia_gh200()),
            GpuCompatibility::JitFromPtx
        );
    }

    #[test]
    fn incompatible_when_no_representation_runs() {
        // Bundle built only for Hopper cannot run on Volta.
        let bundle = plan_bundle(
            RuntimeRequirement::AnyMinorVersion,
            &[GpuModel::nvidia_gh200()],
            Version::new(12, 8),
        );
        assert!(matches!(
            bundle_compatibility(&bundle, &GpuModel::nvidia_v100()),
            GpuCompatibility::Incompatible(_)
        ));
    }

    #[test]
    fn runtime_requirement_detection_is_pessimistic() {
        let plain = ["kernel void f(float* x) { x[0] = 1.0; }"];
        assert_eq!(
            detect_runtime_requirement(&plain),
            RuntimeRequirement::AnyMinorVersion
        );
        let conditional =
            ["#if CUDART_VERSION >= 12060\nkernel void g(float* x) { x[0] = 2.0; }\n#endif"];
        assert!(matches!(
            detect_runtime_requirement(&conditional),
            RuntimeRequirement::AtLeast(_)
        ));
    }
}
