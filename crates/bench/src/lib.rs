//! # xaas-bench
//!
//! Experiment drivers that regenerate every table and figure of the paper's evaluation
//! (Section 6). Each driver returns the data series of one table/figure; [`main`] (the
//! `reproduce` binary) prints them, and `tests/reproduce_golden.rs` pins the stdout of
//! `reproduce all` to `golden/reproduce_all.txt` byte for byte — nothing here reads a
//! clock (timing lives in the repository's `benchmark/` crate). See "Reproducing the
//! paper's evaluation" in the repository's `README.md` for the paper-vs-measured
//! comparison.

#![forbid(unsafe_code)]

mod analysis;
mod experiments;
mod render;
mod reproduce;

pub use reproduce::main;
