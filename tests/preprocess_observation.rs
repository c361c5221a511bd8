//! Soundness of the IR build's preprocess dedup: a unit preprocesses the same under
//! a definition set as under the part of it the unit observes — same text, same
//! digest, same error — so stage A may plan one preprocess node per observed set.

use proptest::TestRng;
use std::collections::BTreeMap;
use xaas_xir::preprocess::{preprocess, PreprocessError};
use xaas_xir::{Definitions, Observation};

/// Identifiers the generated lines use. `GHOST` is defined but never written.
const NAMES: [&str; 6] = ["A", "B", "N", "ZERO", "HDR", "x"];

/// `-D` flags a case draws from: unobserved names, `0` values, repeated names,
/// and names that are no identifier (`1X`, `X(a)`, `A B`, the empty name).
const FLAGS: [&str; 18] = [
    "-DA",
    "-DA=0",
    "-DB=2",
    "-DN=N + 1",
    "-DN=4",
    "-DZERO=0",
    "-DHDR=1",
    "-Dx=y",
    "-DGHOST=7",
    "-DGMX_SIMD_AVX_512",
    "-D1X",
    "-DX(a)=a",
    "-DA B=1",
    "-D",
    "-O2",
    "-DZERO",
    "-DZERO=0",
    "-DHDR=1",
];

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.usize_in(0, items.len())]
}

/// A conditional's opening line over `name`, or over a non-identifier operand.
fn condition(rng: &mut TestRng, name: &str) -> String {
    match rng.usize_in(0, 10) {
        0 => format!("#ifdef {name}"),
        1 => format!("#ifdef {name} // note"),
        2 => format!("#ifndef {name}"),
        3 => format!("#if {name}"),
        4 => format!("#if !{name}"),
        5 => format!("#if defined({name}) && !defined(B)"),
        6 => format!("#if {name} || defined A"),
        _ => pick(
            rng,
            &[
                "#if 1X",
                "#ifdef X(a)",
                "#if A B",
                "#ifdef",
                "#if 1",
                "#if 0",
            ],
        )
        .to_string(),
    }
}

/// Append a generated block: text lines, in-file `#define`/`#undef`s, includes
/// (resolvable, missing, or the self-including `cyc.h`), nested conditionals,
/// and now and then a line that is an error wherever it is active.
fn block(rng: &mut TestRng, depth: usize, out: &mut String) {
    for _ in 0..rng.usize_in(0, 5) {
        let name = pick(rng, &NAMES);
        match rng.usize_in(0, 12) {
            0..=3 => out.push_str(&format!("int v_{name} = {name} + x;\n")),
            4 => out.push_str(&format!("#define {name} 3\n")),
            5 => out.push_str(&format!("#define {name}\n")),
            6 => out.push_str(&format!("#undef {name}\n")),
            7 => {
                let header = pick(
                    rng,
                    &[
                        "\"h1.h\"",
                        "<h2.h>",
                        "\"h2.h\"",
                        "\"cyc.h\"",
                        "\"missing.h\"",
                    ],
                );
                out.push_str(&format!("#include {header}\n"));
            }
            8 => {
                let odd = pick(
                    rng,
                    &["#pragma omp parallel for", "#bogus", "#endif", "#else"],
                );
                out.push_str(odd);
                out.push('\n');
            }
            _ if depth < 3 => {
                out.push_str(&condition(rng, name));
                out.push('\n');
                block(rng, depth + 1, out);
                if rng.usize_in(0, 2) == 0 {
                    out.push_str(&format!("#elif {}\n", pick(rng, &NAMES)));
                    block(rng, depth + 1, out);
                }
                if rng.usize_in(0, 2) == 0 {
                    out.push_str("#else\n");
                    block(rng, depth + 1, out);
                }
                out.push_str("#endif\n");
            }
            _ => out.push_str("kernel void f(float* x, int n) { x[0] = A; }\n"),
        }
    }
}

fn generated(rng: &mut TestRng) -> String {
    let mut text = String::new();
    block(rng, 0, &mut text);
    text
}

/// What the generated cases exercised, so the property cannot pass vacuously.
#[derive(Debug, Default)]
struct Coverage {
    narrowed: usize,
    ok: usize,
    errors: usize,
    depth_cap: usize,
    missing_include: usize,
    zero_if: usize,
    in_file_define: usize,
    non_identifier: usize,
    header_only: usize,
}

#[test]
fn preprocessing_under_the_observed_definitions_is_preprocessing_under_all() {
    let mut rng = TestRng::from_name("preprocess_observation");
    let mut coverage = Coverage::default();
    for case in 0..512 {
        let source = generated(&mut rng);
        let mut headers = BTreeMap::new();
        // `h1.h` is drawn like the unit (it may include itself or `cyc.h`);
        // `h2.h` reads a name only a header observes; `cyc.h` hits the depth cap.
        headers.insert("h1.h".to_string(), generated(&mut rng));
        headers.insert(
            "h2.h".to_string(),
            "#if HDR\nint from_header = HDR;\n#endif\n".to_string(),
        );
        headers.insert("cyc.h".to_string(), "#include \"cyc.h\"\n".to_string());
        let flags: Vec<&str> = (0..rng.usize_in(0, 6))
            .map(|_| FLAGS[rng.usize_in(0, FLAGS.len())])
            .collect();

        let definitions = Definitions::from_flags(flags.iter().copied());
        let observation = Observation::of(&source, &headers);
        let restricted = observation.restrict(&definitions);
        // The planner narrows flags, not sets: both narrowings agree.
        let kept = flags
            .iter()
            .copied()
            .filter(|f| observation.observes_flag(f));
        assert_eq!(Definitions::from_flags(kept), restricted, "case {case}");

        let full = preprocess("u.ck", &source, &definitions, &headers);
        let narrow = preprocess("u.ck", &source, &restricted, &headers);
        assert_eq!(
            full, narrow,
            "case {case}: {flags:?} vs {restricted:?} over\n{source}"
        );
        match (&full, &narrow) {
            (Ok(full), Ok(narrow)) => {
                assert_eq!(full.content_digest(), narrow.content_digest());
                coverage.ok += 1;
            }
            (Err(error), _) => {
                coverage.errors += 1;
                match error {
                    PreprocessError::BadDirective { directive, .. }
                        if directive.contains("too deep") =>
                    {
                        coverage.depth_cap += 1
                    }
                    PreprocessError::MissingInclude { .. } => coverage.missing_include += 1,
                    _ => {}
                }
            }
            _ => unreachable!("equal results"),
        }
        coverage.narrowed += usize::from(restricted.len() < definitions.len());
        coverage.zero_if += usize::from(
            restricted.value("ZERO") == Some("0")
                && ["#if ZERO", "#if !ZERO", "#elif ZERO"]
                    .iter()
                    .any(|line| source.contains(line)),
        );
        coverage.in_file_define += usize::from(NAMES.iter().any(|name| {
            definitions.is_defined(name)
                && (source.contains(&format!("#define {name}"))
                    || source.contains(&format!("#undef {name}")))
        }));
        coverage.non_identifier += usize::from(
            ["1X", "X(a)", "A B", ""]
                .iter()
                .any(|name| restricted.is_defined(name)),
        );
        coverage.header_only +=
            usize::from(restricted.is_defined("HDR") && !source.contains("HDR") && full.is_ok());
    }
    println!("{coverage:?}");
    for (what, count) in [
        ("narrowed", coverage.narrowed),
        ("ok", coverage.ok),
        ("errors", coverage.errors),
        ("depth_cap", coverage.depth_cap),
        ("missing_include", coverage.missing_include),
        ("zero_if", coverage.zero_if),
        ("in_file_define", coverage.in_file_define),
        ("non_identifier", coverage.non_identifier),
        ("header_only", coverage.header_only),
    ] {
        assert!(
            count >= 5,
            "{what}: only {count} of 512 cases ({coverage:?})"
        );
    }
}
