//! # xaas-apps
//!
//! Synthetic HPC applications for the XaaS Containers reproduction.
//!
//! The paper evaluates on GROMACS 2025 and llama.cpp, and uses LULESH as the running
//! example for configuration explosion. Those codebases cannot be vendored here, so each
//! has a synthetic analogue written in the CK kernel language with the *same
//! specialization structure* (Table 1): the same categories of build options, the same
//! conditional source layout (GPU backends, MPI, FFT fallback), and workloads whose
//! scalar-reference timings are calibrated against the paper's measurements.
//!
//! * [`gromacs`] — mini-GROMACS (molecular dynamics).
//! * [`lulesh`] — mini-LULESH (hydrodynamics, the 2×2-configuration example).
//! * [`llamacpp`] — mini-llama.cpp (LLM inference).
//! * [`baselines`] — the build profiles the figures compare against (naive, native,
//!   Spack, specialized containers, modules, XaaS source).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod gromacs;
pub mod llamacpp;
pub mod lulesh;

pub use baselines::{
    gromacs_baselines, llamacpp_baselines, make_executable, preferred_gpu_backend,
};
