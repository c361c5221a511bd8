//! Stage 3's OpenMP verdict is a scan of the preprocessed text
//! (`PreprocessedUnit::mentions_openmp`), tested against the AST pass it replaced
//! (`openmp::analyze`): on generated CK units the scan says yes whenever the AST
//! pass does, and on every text the three applications preprocess to, under every
//! configuration of their options, the two agree.

use proptest::TestRng;
use std::collections::{BTreeMap, BTreeSet};
use xaas_buildsys::options::all_combinations;
use xaas_buildsys::{configure, OptionAssignment, ProjectSpec};
use xaas_xir::preprocess::preprocess;
use xaas_xir::{openmp, parse::parse, Compiler, Definitions, PreprocessedUnit};

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.usize_in(0, items.len())]
}

/// `omp` in a drawn case: lower, upper or mixed.
fn omp(rng: &mut TestRng) -> &'static str {
    pick(rng, &["omp", "omp", "OMP", "Omp", "oMp", "omP"])
}

/// A pragma line: OpenMP in any case (`ompx` is what the AST pass counts as well,
/// since it only checks the prefix), or another pragma.
fn pragma(rng: &mut TestRng) -> String {
    match rng.usize_in(0, 6) {
        0 => format!("#pragma {} parallel for", omp(rng)),
        1 => format!("#pragma {} simd", omp(rng)),
        2 => format!("  #  pragma   {} critical", omp(rng)),
        3 => format!("#pragma {}x private", omp(rng)),
        4 => "#pragma unroll 4".to_string(),
        _ => "#pragma ivdep".to_string(),
    }
}

/// A statement inside a function body. Pragmas land on loops, before other
/// statements and at the end of a block; `omp_` names appear as calls, as
/// variables, and as a function the unit defines itself.
fn statement(rng: &mut TestRng, depth: usize, out: &mut String) {
    match rng.usize_in(0, 11) {
        0..=2 if depth < 2 => {
            for _ in 0..rng.usize_in(0, 3) {
                out.push_str(&pragma(rng));
                out.push('\n');
            }
            out.push_str("for (int i = 0; i < n; i = i + 1) {\n");
            for _ in 0..rng.usize_in(0, 3) {
                statement(rng, depth + 1, out);
            }
            out.push_str("}\n");
        }
        3 => {
            out.push_str(&pragma(rng));
            out.push('\n');
            out.push_str("x[0] = 1.0;\n");
        }
        4 => out.push_str(pick(
            rng,
            &[
                "int t = omp_get_max_threads();\n",
                "omp_set_num_threads(4);\n",
                "x[0] = omp_get_wtime();\n",
            ],
        )),
        5 => out.push_str(pick(
            rng,
            &[
                "int omp_count = 3;\n",
                "x[0] = x[1] * 2.0;\n",
                "helper(x);\n",
            ],
        )),
        6 => out.push_str(pick(rng, &["omp_helper(x);\n", "x[0] = my_omp_count;\n"])),
        7 => {
            out.push_str(pick(
                rng,
                &["#if 0\n", "#ifdef USE_OMP\n", "#ifndef USE_OMP\n"],
            ));
            out.push_str(&format!("#pragma {} parallel for\n", omp(rng)));
            out.push_str("for (int j = 0; j < n; j = j + 1) { x[j] = omp_get_thread_num(); }\n");
            out.push_str("#endif\n");
        }
        8 => out.push_str("// #pragma omp parallel for and omp_get_num_threads()\n"),
        9 if depth < 2 => {
            out.push_str("if (n > 2) {\n");
            statement(rng, depth + 1, out);
            out.push_str("}\n");
        }
        _ => out.push_str("x[1] = 0.0;\n"),
    }
}

fn generated(rng: &mut TestRng) -> String {
    let mut text = String::new();
    if rng.usize_in(0, 4) == 0 {
        text.push_str("void omp_helper(float* x) { x[0] = 2.0; }\n");
    }
    for function in 0..rng.usize_in(1, 3) {
        if rng.usize_in(0, 4) == 0 {
            text.push_str(&pragma(rng));
            text.push('\n');
        }
        text.push_str(&format!("kernel void f{function}(float* x, int n) {{\n"));
        for _ in 0..rng.usize_in(0, 5) {
            statement(rng, 0, &mut text);
        }
        if rng.usize_in(0, 4) == 0 {
            text.push_str(&pragma(rng));
            text.push('\n');
        }
        text.push_str("}\n");
    }
    text
}

/// The AST pass over a preprocessed text, or `None` when the text does not parse.
fn ast_verdict(unit: &PreprocessedUnit) -> Option<bool> {
    let parsed = parse(&unit.file, &unit.text).ok()?;
    Some(openmp::analyze(&parsed).uses_openmp())
}

#[test]
fn the_scan_says_yes_whenever_the_ast_pass_does() {
    let mut rng = TestRng::from_name("openmp_scan");
    let headers = BTreeMap::new();
    // (AST yes, AST no and scan yes, both no): the conservative gap and both
    // agreements must all be exercised.
    let mut seen = [0usize; 3];
    for case in 0..512 {
        let source = generated(&mut rng);
        let definitions = if rng.usize_in(0, 2) == 0 {
            Definitions::from_flags(["-DUSE_OMP"])
        } else {
            Definitions::new()
        };
        let unit = preprocess("u.ck", &source, &definitions, &headers).expect("preprocesses");
        let ast = ast_verdict(&unit).unwrap_or_else(|| panic!("case {case} parses:\n{source}"));
        let scan = unit.mentions_openmp();
        assert!(
            scan || !ast,
            "case {case}: the AST pass finds OpenMP, the scan does not:\n{}",
            unit.text
        );
        seen[match (ast, scan) {
            (true, _) => 0,
            (false, true) => 1,
            (false, false) => 2,
        }] += 1;
    }
    println!("(ast, scan-only, neither) = {seen:?}");
    assert!(seen.iter().all(|&count| count >= 32), "{seen:?}");
}

/// The GROMACS sweeps `reproduce` builds IR containers over, as (option, values)
/// lists: the Sweep table's SIMD rows and the fleet's folded into one, the CUDA and
/// OpenMP × MPI rows, and every GPU backend besides.
const GROMACS_SWEEPS: [&[(&str, &[&str])]; 4] = [
    &[(
        "GMX_SIMD",
        &[
            "SSE4.1",
            "AVX2_128",
            "AVX_256",
            "AVX2_256",
            "AVX_512",
            "ARM_NEON_ASIMD",
        ],
    )],
    &[
        ("GMX_SIMD", &["SSE4.1", "AVX_512"]),
        ("GMX_GPU", &["OFF", "CUDA"]),
    ],
    &[("GMX_OPENMP", &["ON", "OFF"]), ("GMX_MPI", &["ON", "OFF"])],
    &[("GMX_GPU", &["OFF", "CUDA", "HIP", "SYCL", "OpenCL"])],
];

/// Every assignment of a sweep: the product of its options' values.
fn assignments(sweep: &[(&str, &[&str])]) -> Vec<OptionAssignment> {
    sweep
        .iter()
        .fold(vec![OptionAssignment::new()], |done, (option, values)| {
            let product = done.iter().flat_map(|assignment| {
                values
                    .iter()
                    .map(|value| assignment.clone().with(*option, *value))
            });
            product.collect()
        })
}

/// Every distinct (file, text) `project` preprocesses to under `assignments`.
fn preprocessed_texts(
    project: &ProjectSpec,
    assignments: Vec<OptionAssignment>,
) -> Vec<PreprocessedUnit> {
    let mut compiler = Compiler::new();
    for (name, content) in &project.headers {
        compiler.add_header(name.clone(), content.clone());
    }
    let mut seen = BTreeSet::new();
    let mut units = Vec::new();
    for assignment in assignments {
        let build = configure(project, &assignment, "/xaas/build", None).expect("configures");
        for command in &build.compile_db.commands {
            let source = build
                .enabled_sources
                .iter()
                .find(|source| source.path == command.file)
                .expect("an enabled source");
            let unit = compiler
                .preprocess_only(&command.file, &source.content, &command.flags())
                .expect("every configured unit preprocesses");
            if seen.insert((command.file.clone(), unit.content_hash())) {
                units.push(unit);
            }
        }
    }
    units
}

/// The GROMACS and LULESH sweeps of `reproduce`, and every configuration of
/// llama.cpp (which `reproduce` deploys from source on several systems).
#[test]
fn the_scan_and_the_ast_pass_agree_on_every_application_text() {
    let gromacs = xaas_apps::gromacs::project();
    let lulesh = xaas_apps::lulesh::project();
    let llamacpp = xaas_apps::llamacpp::project();
    let every = |project: &ProjectSpec| {
        let options: Vec<_> = project.options.iter().collect();
        all_combinations(&options)
    };
    let gromacs_assignments = GROMACS_SWEEPS.iter().copied().flat_map(assignments);
    for (project, assignments) in [
        (&gromacs, gromacs_assignments.collect()),
        (&lulesh, every(&lulesh)),
        (&llamacpp, every(&llamacpp)),
    ] {
        let units = preprocessed_texts(project, assignments);
        let mut verdicts = [0usize; 2];
        for unit in &units {
            let ast = ast_verdict(unit).expect("an application text parses");
            assert_eq!(unit.mentions_openmp(), ast, "{}:\n{}", unit.file, unit.text);
            verdicts[usize::from(ast)] += 1;
        }
        println!("{}: {} texts, {verdicts:?}", project.name, units.len());
        assert!(verdicts.iter().all(|&count| count > 0), "{}", project.name);
    }
}
