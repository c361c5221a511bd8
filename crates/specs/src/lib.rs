//! # xaas-specs
//!
//! Specialization-point discovery for the XaaS Containers reproduction (Sections 3.2 and
//! 6.2 of the paper).
//!
//! * [`model`] — the specialization-point document (Figure 4a / Appendix B schema);
//! * [`from_project`] / [`from_script`] — rule-based extraction from project definitions
//!   (ground truth) and from build-script text;
//! * [`analyze`](fn@analyze) — simulated LLM discovery with per-model error/latency/cost profiles,
//!   reproducing Table 4 and the llama.cpp generalization experiment deterministically;
//! * [`metrics`] — precision/recall/F1 scoring with the normalisation ablation;
//! * [`intersect`](mod@intersect) — intersection of application specialization points with discovered
//!   system features (Figure 4c);
//! * [`catalog`] — the Table 1 application catalogue.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub(crate) mod extract;
pub mod intersect;
pub(crate) mod llm;
pub mod metrics;
pub mod model;

/// Commonly used types re-exported together.
pub mod prelude {
    pub use crate::catalog::{table1, CatalogEntry};
    pub use crate::extract::{from_project, from_script};
    pub use crate::intersect::{intersect, CommonSpecialization, Exclusion};
    pub use crate::llm::{analyze, AnalysisConfig, ErrorProfile, LlmRunResult, SimulatedLlm};
    pub use crate::metrics::{min_med_max, normalize_name, score, Metrics, MinMedMax};
    pub use crate::model::{SpecCategory, SpecEntry, SpecializationDocument};
}

pub use prelude::*;
