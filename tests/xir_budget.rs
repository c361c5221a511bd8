//! Budget guard for the compiler's two stages over GROMACS.
//!
//! An IR container is compiled once and lowered on every target (paper §4.3), so
//! the compiler's allocations are the CI side's and every deployment's bill. Here
//! every GROMACS translation unit, preprocessed under the project's global flags,
//! is compiled with `compile_preprocessed`, and each module is lowered with
//! `lower_to_machine` for the four fleet SIMD targets. The test holds the
//! allocator calls and bytes per unit (compile) and per unit and target (lower)
//! under a budget.
//!
//! The file holds a single test on purpose: the counting allocator is process-wide,
//! and a second test running beside it would be counted too.

use xaas::prelude::*;
use xaas_apps::gromacs;
use xaas_hpcsim::SimdLevel;
use xaas_xir::{compile_preprocessed, lower_to_machine, preprocess_unit, CompileFlags};

mod common;

#[global_allocator]
static GLOBAL: common::CountingAllocator = common::CountingAllocator;

/// Allocator calls of `compile_preprocessed` per GROMACS unit. With every register
/// a heap `String` — each name copied per occurrence, DCE's use set a tree of
/// names, a dead name renumbered away op by op — 88 when first measured, and 81.8 with this
/// test just before registers became numbers; 52.5 with numbered registers, of
/// which 35.3 were the front end's (a `String` per identifier token, the token
/// vector's growth, a doubling `Vec` per block). With the front end borrowing its
/// text — tokens pulled from a cursor, names sliced, each block's statements moved
/// off one scratch stack at their exact length — 31.7 in release and debug, plus 5 %.
const COMPILE_CALLS_PER_UNIT: f64 = 33.3;
/// Bytes of `compile_preprocessed` per GROMACS unit: 7,486 with string registers,
/// 6,403 with numbered ones, 3,255 with the borrowing front end, plus 10 %.
const COMPILE_BYTES_PER_UNIT: f64 = 3_581.0;
/// Allocator calls of `lower_to_machine` per GROMACS unit and target. With the
/// module cloned, every body and parameter list cloned again and every name
/// copied, 80 at PR 60, and 76.9 with this test just before registers became
/// numbers. Cloning each function once and sharing its name table, 12.1 in release
/// and debug, plus 5 %.
const LOWER_CALLS_PER_UNIT: f64 = 12.7;
/// Bytes of `lower_to_machine` per GROMACS unit and target: 3,443 with string
/// registers, 1,001 with numbered ones, plus 10 %.
const LOWER_BYTES_PER_UNIT: f64 = 1_101.0;

#[test]
fn compiling_and_lowering_gromacs_stays_inside_the_allocation_budget() {
    let project = gromacs::project();
    let flags = CompileFlags::parse(project.global_flags.iter().map(String::as_str));
    let units: Vec<(&str, String)> = project
        .sources
        .iter()
        .map(|source| {
            let unit = preprocess_unit(&source.path, &source.content, &flags, &project.headers)
                .expect("every GROMACS unit preprocesses");
            (source.path.as_str(), unit.text)
        })
        .collect();
    let count = units.len() as f64;
    let targets = [
        SimdLevel::Sse41,
        SimdLevel::Avx2_256,
        SimdLevel::Avx512,
        SimdLevel::NeonAsimd,
    ]
    .map(target_isa_for);

    let mut modules = Vec::with_capacity(units.len());
    let ((), calls, bytes) = common::counted(|| {
        for (path, text) in &units {
            modules.push(compile_preprocessed(path, text, &flags).expect("GROMACS compiles"));
        }
    });
    let (compile_calls, compile_bytes) = (calls as f64 / count, bytes as f64 / count);
    let ((), calls, bytes) = common::counted(|| {
        for module in &modules {
            for target in &targets {
                drop(lower_to_machine(module, target));
            }
        }
    });
    let lowerings = count * targets.len() as f64;
    let (lower_calls, lower_bytes) = (calls as f64 / lowerings, bytes as f64 / lowerings);
    println!(
        "GROMACS, {count} units: compile_preprocessed {compile_calls:.1} allocator calls and \
         {compile_bytes:.0} bytes per unit; lower_to_machine {lower_calls:.1} calls and \
         {lower_bytes:.0} bytes per unit and target"
    );
    assert!(
        compile_calls <= COMPILE_CALLS_PER_UNIT,
        "compile_preprocessed made {compile_calls:.1} allocator calls per unit \
         (budget {COMPILE_CALLS_PER_UNIT}): registers or tokens are copied as names again"
    );
    assert!(
        compile_bytes <= COMPILE_BYTES_PER_UNIT,
        "compile_preprocessed allocated {compile_bytes:.0} bytes per unit \
         (budget {COMPILE_BYTES_PER_UNIT})"
    );
    assert!(
        lower_calls <= LOWER_CALLS_PER_UNIT,
        "lower_to_machine made {lower_calls:.1} allocator calls per unit and target \
         (budget {LOWER_CALLS_PER_UNIT}): lowering clones the module or its names again"
    );
    assert!(
        lower_bytes <= LOWER_BYTES_PER_UNIT,
        "lower_to_machine allocated {lower_bytes:.0} bytes per unit and target \
         (budget {LOWER_BYTES_PER_UNIT})"
    );
}
