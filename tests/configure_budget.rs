//! Budget guard for configuring one build.
//!
//! The IR build configures every point of its sweep, so `configure` runs once per
//! configuration on every build, warm or cold. A configured build borrows its
//! project: its compile commands share one argument list per distinct set of
//! target and source extra flags, and the list borrows every argument the project
//! holds. The planner classifies each list once (`CompileFlags`). This test keeps
//! it so: allocator calls and bytes of one GROMACS `GMX_SIMD` configuration,
//! its flags included, stay under a budget.
//!
//! The file holds a single test on purpose: the counting allocator is process-wide,
//! and a second test running beside it would be counted too.

use std::sync::Arc;
use xaas_apps::gromacs;
use xaas_buildsys::{configure, OptionAssignment};

mod common;

#[global_allocator]
static GLOBAL: common::CountingAllocator = common::CountingAllocator;

/// Allocator calls of one configuration and its flags. With every command owning a
/// copy of each argument and its flags parsed per command, 292 (165 in `configure`
/// alone). With the commands sharing one borrowed argument list, classified once,
/// and the configure line written into one buffer, 58 in release and debug runs,
/// plus 5 %.
const ALLOC_BUDGET_CALLS: u64 = 61;
/// Bytes of one configuration and its flags: 13,007 with per-command copies (7,409
/// in `configure` alone); with one shared list, 4,110 in release and debug runs,
/// plus 9.5 %.
const ALLOC_BUDGET_BYTES: u64 = 4_500;

#[test]
fn a_gromacs_simd_configuration_stays_inside_the_allocation_budget() {
    let project = gromacs::project();
    let assignment = OptionAssignment::new().with("GMX_SIMD", "AVX_512");
    let configured = || {
        let build = configure(&project, &assignment, "/xaas/build", None)
            .expect("the GROMACS configuration is valid");
        let commands = &build.compile_db.commands;
        // GROMACS adds no per-target or per-file flag: one list, classified once.
        let list = &commands[0].arguments;
        assert!(commands.iter().all(|c| Arc::ptr_eq(&c.arguments, list)));
        let flags = commands[0].flags();
        (build.translation_units(), flags.definitions.len())
    };
    let expected = configured();

    let (measured, calls, bytes) = common::counted(configured);
    assert_eq!(measured, expected);
    println!(
        "one GROMACS GMX_SIMD configuration and its flags: {calls} allocator calls, {bytes} bytes"
    );
    assert!(
        calls <= ALLOC_BUDGET_CALLS,
        "one GROMACS configuration made {calls} allocator calls (budget \
         {ALLOC_BUDGET_CALLS}): configure copies arguments per command again"
    );
    assert!(
        bytes <= ALLOC_BUDGET_BYTES,
        "one GROMACS configuration allocated {bytes} bytes (budget {ALLOC_BUDGET_BYTES})"
    );
}
