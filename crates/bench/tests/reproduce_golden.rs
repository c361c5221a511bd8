//! The paper's evaluation as a pinned artefact: `reproduce all` must print
//! `crates/bench/golden/reproduce_all.txt` byte for byte, in debug and in release.
//! The run also covers the binary's own gates — it exits 1 when the warm restart
//! does not hold or a driver graph carries a deny-level diagnostic. After an intended
//! change, regenerate the golden with the command the failure message prints.

use std::process::Command;

const GOLDEN: &str = include_str!("../golden/reproduce_all.txt");

/// Where line `index` of `text` falls: the last `== … ==` heading at or above it,
/// and — for the sections that print JSON with their banner on stderr (`fleet`,
/// `restart`, `analyze`, in that order) — which JSON block since that heading.
fn section_of(text: &str, index: usize) -> String {
    let mut heading = "the top of the output";
    let mut json_blocks = 0;
    for line in text.split('\n').take(index + 1) {
        if line.starts_with("== ") {
            (heading, json_blocks) = (line, 0);
        } else if line == "{" {
            json_blocks += 1;
        }
    }
    match json_blocks {
        0 => format!("under `{heading}`"),
        n => format!("in JSON block {n} (of fleet, restart, analyze) after `{heading}`"),
    }
}

#[test]
fn reproduce_all_prints_the_golden_byte_for_byte() {
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("all")
        .output()
        .expect("the reproduce binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{}:\n{stderr}", output.status);
    let actual = String::from_utf8(output.stdout).expect("reproduce prints UTF-8");
    if actual == GOLDEN {
        return;
    }
    // `split`, not `lines`: a missing final newline is a difference too.
    let shared = GOLDEN.split('\n').zip(actual.split('\n'));
    let line = shared
        .clone()
        .position(|(golden, actual)| golden != actual)
        .unwrap_or_else(|| shared.count());
    let show = |text: &str| match text.split('\n').nth(line) {
        Some(line) => format!("{line:?}"),
        None => "<end of output>".to_string(),
    };
    panic!(
        "`reproduce all` differs from crates/bench/golden/reproduce_all.txt at line {}, {}:\n  \
         golden: {}\n  actual: {}\nif the change is intended, regenerate the golden:\n  \
         cargo run --release --bin reproduce all > crates/bench/golden/reproduce_all.txt",
        line + 1,
        section_of(GOLDEN, line),
        show(GOLDEN),
        show(&actual),
    );
}
