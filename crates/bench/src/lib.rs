//! # xaas-bench
//!
//! Experiment drivers that regenerate every table and figure of the paper's evaluation
//! (Section 6). Each public function returns the data series of one table/figure; the
//! `reproduce` binary prints them, and the Criterion benches measure the underlying
//! computations. See "Reproducing the paper's evaluation" in the repository's
//! `README.md` for the paper-vs-measured comparison.

pub mod analysis;
pub mod experiments;
pub mod render;

pub use analysis::*;
pub use experiments::*;
