//! # xaas-hpcsim
//!
//! Simulated HPC hardware and systems for the XaaS Containers reproduction.
//!
//! The paper evaluates on CSCS Ault nodes, the Alps Clariden Cray system, and ALCF
//! Aurora. This crate provides deterministic models of those systems — CPUs with SIMD
//! capability sets, GPUs with compute capabilities and backend support, the libfabric
//! provider capability matrix (Table 3), module environments, container runtimes — plus
//! two things the experiments need:
//!
//! * [`discovery::discover`] produces the system-feature JSON consumed by the feature
//!   intersection step (Figure 4b), and
//! * [`perf::ExecutionEngine`] is the calibrated analytic performance model that stands
//!   in for wall-clock measurements on the real machines (Figures 2, 10, 11, 12 and the
//!   Section 6.5 bandwidth comparison).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cpu;
pub mod discovery;
pub mod gpu;
pub mod network;
pub(crate) mod perf;
pub mod system;

/// Commonly used types re-exported together.
pub mod prelude {
    pub use crate::cpu::{CpuModel, IsaFamily, SimdLevel};
    pub use crate::discovery::{discover, DiscoveredGpuBackend, SystemFeatures};
    pub use crate::gpu::{
        check_gpu_compatibility, ComputeCapability, DeviceCode, GpuBackend, GpuCompatibility,
        GpuModel, GpuVendor, Version,
    };
    pub use crate::network::{
        capability_matrix, BandwidthModel, Feature, MpiFlavor, Provider, Support,
    };
    pub use crate::perf::{
        BuildProfile, ExecutionEngine, ExecutionError, ExecutionReport, KernelClass, KernelProfile,
        KernelTiming, KernelWork, LibraryQuality, OptLevel, Workload,
    };
    pub use crate::system::{ContainerRuntimeFlavor, ModuleKind, SoftwareModule, SystemModel};
}

pub use prelude::*;
