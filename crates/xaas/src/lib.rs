//! # xaas
//!
//! The core of the XaaS Containers reproduction: performance-portable **source
//! containers** and **IR containers** that delay performance-critical build decisions
//! (vectorization ISA, GPU backend, MPI flavour, BLAS/FFT choice) until the target system
//! is known at deployment time.
//!
//! The crate composes the substrates:
//!
//! * [`orchestrator`] — **the front door**: an [`Orchestrator`] session owning the
//!   engine, cache, store, and scheduling policy, with typed request builders
//!   ([`IrBuildRequest`], [`IrDeployRequest`], [`SourceDeployRequest`],
//!   [`FleetRequest`]) for every pipeline;
//! * [`service`] — the multi-tenant front door: an [`OrchestratorService`]
//!   multiplexing per-tenant [`Session`]s onto one shared engine, with weighted
//!   fair scheduling across tenants and typed admission control
//!   (backpressure/reject/drain) in front;
//! * [`source_container`] — build a source+toolchain image once per architecture, then
//!   specialise it on the target system (discovery → intersection → selection → build),
//!   Figure 6;
//! * [`ir_container`] — the deduplicating pipeline of Figure 7: sweep specialization
//!   points, hash preprocessed translation units, detect OpenMP relevance, delay
//!   vectorization flags, and ship one shared set of XIR bitcode files plus per-
//!   configuration manifests;
//! * [`deploy`] — deployment of IR containers (Figure 8): lower the selected subset for
//!   the chosen ISA, compile system-dependent sources, link, install, and commit the
//!   system-specialized image;
//! * [`engine`] — the staged action-graph engine all of the above execute through: an
//!   explicit DAG of preprocess/openmp-detect/ir-lower/machine-lower/sd-compile/link/
//!   commit actions, a policy-scheduled worker-pool executor, transparent action-cache
//!   routing, and a
//!   deterministic per-build [`ActionTrace`];
//! * [`gpu_compat`] — CUDA driver/runtime/PTX/cubin compatibility planning (Figure 9);
//! * [`hypotheses`] — validation of Hypotheses 1 and 2 (Section 4.2);
//! * [`portability`] — the Table 2 taxonomy;
//! * [`targets`] — mapping from paper vocabulary (SIMD levels, option assignments) to
//!   compiler targets and performance profiles.
//!
//! ```
//! use xaas::prelude::*;
//! use xaas_apps::lulesh;
//!
//! let project = lulesh::project();
//! let pipeline = IrPipelineConfig::sweep_options(&project, &["WITH_MPI", "WITH_OPENMP"]);
//! let orch = Orchestrator::new();
//! let build = IrBuildRequest::new(&project, &pipeline)
//!     .reference("spcl/mini-lulesh:ir")
//!     .submit(&orch)
//!     .unwrap();
//! assert!(build.stats.ir_files_built() < build.stats.total_translation_units);
//! ```

#![warn(missing_docs)]

pub mod deploy;
pub mod engine;
pub mod gpu_compat;
pub mod hypotheses;
pub mod ir_container;
pub mod orchestrator;
pub mod portability;
pub mod service;
pub mod source_container;
pub mod targets;

/// Commonly used types re-exported together.
///
/// Since the orchestrator redesign this exports the session API — [`Orchestrator`],
/// its builder, and the typed request types — plus result/error types and the
/// engine vocabulary.
pub mod prelude {
    pub use crate::deploy::{DeployError, DeploymentStats, IrDeployment, LoweredDeployment};
    pub use crate::engine::{
        ActionGraph, ActionId, ActionInputs, ActionKind, ActionRecord, ActionTrace, AnalysisReport,
        Diagnostic, DiagnosticCode, Engine, Fifo, GraphAnalyzer, GraphFault, GraphHandle, GraphRun,
        GraphRunError, GraphStatus, NodeOutcome, PolicyError, QueueStats, SchedulingPolicy,
        Severity, WeightedFair,
    };
    pub use crate::gpu_compat::{
        bundle_compatibility, detect_runtime_requirement, plan_bundle, DeviceCodeBundle,
        RuntimeRequirement,
    };
    pub use crate::hypotheses::{hypothesis1, hypothesis2, Hypothesis1Report, Hypothesis2Report};
    pub use crate::ir_container::{
        ActionSummary, ConfigurationManifest, IrContainerBuild, IrPipelineConfig, IrPipelineError,
        IrUnit, PipelineStages, PipelineStats, UnitAssignment, IR_TARGET, TOOLCHAIN_ID,
    };
    pub use crate::orchestrator::{
        FleetError, FleetOutcome, FleetReport, FleetRequest, FleetTarget, IrBuildRequest,
        IrDeployRequest, Orchestrator, OrchestratorBuilder, SourceDeployRequest,
    };
    pub use crate::portability::{table2, PortabilityEntry, PortabilityLevel};
    pub use crate::service::{
        AdmissionError, OrchestratorService, ServiceError, ServiceLimits, ServiceRequest,
        ServiceStats, Session,
    };
    pub use crate::source_container::{
        build_source_container, SelectionPolicy, SourceContainerError, SourceDeployment,
    };
    pub use crate::targets::{derive_build_profile, library_quality_of, target_isa_for};
    pub use xaas_container::prelude::*;
}

pub use prelude::*;
