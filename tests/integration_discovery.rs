//! Integration: specialization discovery → intersection → deployment selection.

use xaas_apps::{gromacs, llamacpp, lulesh};
use xaas_buildsys::parse_script;
use xaas_hpcsim::{discover, SystemModel};
use xaas_specs::{
    analyze, from_project, from_script, intersect, score, AnalysisConfig, SimulatedLlm,
    SpecCategory, SpecEntry, SpecializationDocument,
};

/// The rule-based extractor recovers most of the ground truth from the build-script text
/// of all three applications.
#[test]
fn rule_based_extraction_is_accurate_on_all_applications() {
    for (name, project) in [
        ("gromacs", gromacs::project()),
        ("lulesh", lulesh::project()),
        ("llamacpp", llamacpp::project()),
    ] {
        let truth = from_project(&project);
        let script = parse_script(&project.build_script).unwrap_or_else(|e| panic!("{name}: {e}"));
        let extracted = from_script(&project.name, &script);
        let metrics = score(&extracted, &truth, true);
        assert!(
            metrics.recall() > 0.6,
            "{name}: recall {}",
            metrics.recall()
        );
        assert!(
            metrics.precision() > 0.6,
            "{name}: precision {}",
            metrics.precision()
        );
    }
}

/// Table 4 end to end: the simulated LLM panel is deterministic, orders models the way
/// the paper reports, and its best models beat the worst by a wide margin.
#[test]
fn llm_panel_reproduces_table_4_ordering() {
    let project = gromacs::project();
    let truth = from_project(&project);
    let config = AnalysisConfig::default();
    let median_f1 = |name: &str| {
        let model = SimulatedLlm::by_name(name).unwrap();
        let mut scores: Vec<f64> = (0..10)
            .map(|run| {
                let result = analyze(&model, &project.build_script, &truth, &config, run);
                score(&result.document, &truth, true).f1()
            })
            .collect();
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        scores[scores.len() / 2]
    };
    let gemini2 = median_f1("gemini-flash-2-exp");
    let gemini15 = median_f1("gemini-flash-1.5-exp");
    let sonnet37 = median_f1("claude-3-7-sonnet-20250219");
    let sonnet35 = median_f1("claude-3-5-sonnet-20241022");
    let haiku = median_f1("claude-3-5-haiku-20241022");
    let o3 = median_f1("o3-mini-2025-01-31");

    assert!(gemini2 > 0.9);
    assert!(gemini15 > 0.85);
    assert!(sonnet37 > 0.8);
    assert!(o3 > 0.8);
    assert!(
        sonnet35 < 0.8 && haiku < 0.8,
        "the 3.5-generation Claude models miss many options"
    );
    assert!(
        gemini2 >= sonnet35,
        "gemini flash 2 outperforms claude 3.5 sonnet"
    );
}

/// The discovery-to-selection chain: LLM output, even with its errors, intersected with
/// system features still contains the options the deployment ends up selecting.
#[test]
fn llm_discovery_feeds_the_intersection_step() {
    let project = gromacs::project();
    let truth = from_project(&project);
    let model = SimulatedLlm::by_name("gemini-flash-2-exp").unwrap();
    let result = analyze(
        &model,
        &project.build_script,
        &truth,
        &AnalysisConfig::default(),
        0,
    );

    let features = discover(&SystemModel::ault23());
    let common = intersect(&result.document, &features);
    // CUDA and AVX-512 must survive the intersection on Ault23 for deployment to pick them.
    assert!(common
        .choices(SpecCategory::GpuBackend)
        .iter()
        .any(|c| c.eq_ignore_ascii_case("cuda")));
    assert!(common
        .choices(SpecCategory::Vectorization)
        .iter()
        .any(|c| c.to_ascii_uppercase().contains("AVX")));
    // Unsupported backends are excluded with a reason.
    assert!(common.excluded.iter().all(|e| !e.reason.is_empty()));
}

/// Discovery documents round-trip through the Appendix-B JSON schema shape.
#[test]
fn specialization_documents_serialise_in_schema_shape() {
    for project in [gromacs::project(), llamacpp::project()] {
        let doc = from_project(&project);
        let json = doc.to_schema_json();
        for key in [
            "gpu_build",
            "gpu_backends",
            "parallel_programming_libraries",
            "linear_algebra_libraries",
            "FFT_libraries",
            "simd_vectorization",
            "build_system",
        ] {
            assert!(
                json.get(key).is_some(),
                "{}: missing key {key}",
                project.name
            );
        }
    }
}

/// The pretty text the `Value` tree prints: the oracle of
/// `SpecializationDocument::to_json_string`, which writes without the tree.
fn tree_text(doc: &SpecializationDocument) -> String {
    let mut out = String::new();
    serde_json::write_pretty(&doc.to_schema_json(), 0, &mut out);
    out
}

/// Every application's specialisation-points annotation (what both container
/// kinds carry) is the tree printer's text, byte for byte.
#[test]
fn the_typed_annotation_is_the_tree_text_for_every_application() {
    for project in [gromacs::project(), lulesh::project(), llamacpp::project()] {
        let doc = from_project(&project);
        assert!(!doc.is_empty(), "{}", project.name);
        assert_eq!(doc.to_json_string(), tree_text(&doc), "{}", project.name);
    }
}

/// A drawn string: plain names, names that repeat across draws, and names that
/// need JSON escapes (quotes, backslashes, control characters) or are not ASCII.
fn drawn_name(rng: &mut proptest::TestRng) -> String {
    const NAMES: &[&str] = &[
        "CUDA",
        "cuda",
        "AVX_512",
        "",
        "a\"b",
        "back\\slash",
        "tab\there",
        "line\nbreak",
        "\u{1}ctl",
        "ünï",
        "日本",
        "{[,:]}",
    ];
    NAMES[rng.usize_in(0, NAMES.len())].to_string()
}

fn drawn_flag(rng: &mut proptest::TestRng) -> Option<String> {
    (rng.usize_in(0, 2) == 1).then(|| format!("-D{}", drawn_name(rng)))
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    /// Generated documents — repeated names within a category (the last one
    /// wins in a map, every one stays in a list), absent and present flags and
    /// versions, names that need escapes — write the tree printer's text.
    #[test]
    fn the_typed_annotation_is_the_tree_text_for_generated_documents(
        seed in proptest::prelude::any::<u64>(),
        count in 0usize..24,
    ) {
        let mut rng = proptest::TestRng::from_name(&seed.to_string());
        let mut doc = SpecializationDocument::new(drawn_name(&mut rng));
        doc.gpu_build = rng.usize_in(0, 2) == 1;
        doc.gpu_build_flag = drawn_flag(&mut rng);
        doc.build_system = drawn_name(&mut rng);
        doc.build_system_min_version = drawn_flag(&mut rng);
        let categories = SpecCategory::all();
        for _ in 0..count {
            let category = categories[rng.usize_in(0, categories.len())];
            doc.push(SpecEntry {
                build_flag: drawn_flag(&mut rng),
                default: rng.usize_in(0, 2) == 1,
                minimum_version: drawn_flag(&mut rng),
                ..SpecEntry::new(category, drawn_name(&mut rng))
            });
        }
        proptest::prop_assert_eq!(doc.to_json_string(), tree_text(&doc));
    }
}
