//! The repo benchmark: four closed-loop workloads over the XaaS container
//! stack, six end-to-end metrics, per-layer probes and a traced run. See
//! `README.md` beside this crate and `BENCHMARK.json` at the repository root.
//!
//! Everything here drives the system through its public API only.

pub mod aa;
pub mod fixtures;
pub mod harness;
pub mod platform;
pub mod probes;
pub mod trace;
pub mod workloads;

/// Every allocation of the process is counted, so `alloc_kb_per_req` needs no
/// sampling and no side thread.
#[global_allocator]
static ALLOCATOR: platform::CountingAllocator = platform::CountingAllocator;
