//! The direct JSON paths against the `Value` tree.
//!
//! `serde_json::to_string` / `to_vec` write typed values straight to text
//! (`Serialize::write_json`), and `from_str` / `from_slice` read them straight
//! from text (`Deserialize::read_json`); `serde_json::to_value` and
//! `serde_json::parse` + `from_value` go through the tree. Digests are taken
//! over the direct writer's bytes, so the writers must agree byte for byte; a
//! typed read must give the value the tree gives, and fail exactly when it
//! fails. This file holds them to that over the workspace's real documents, over
//! mutations of them and over generated edge cases, and keeps the per-`char`
//! escaper the tree printer used before as the reference for the byte-run one.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Debug;
use std::sync::LazyLock;
use xaas::prelude::*;
use xaas::source_container::architecture_of;
use xaas_apps::{gromacs, llamacpp, lulesh};
use xaas_hpcsim::{discover, IsaFamily, SimdLevel, SystemFeatures, SystemModel};
use xaas_xir::{bitcode, lower_to_machine, IrModule, MachineModule};

/// The tree printer's string escaper before the byte-run one, unchanged: the
/// reference `push_escaped` is checked against.
fn write_escaped(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

fn reference_escaped(s: &str) -> String {
    let mut out = String::new();
    write_escaped(s, &mut out).unwrap();
    out
}

/// The direct writer's text, asserted equal to the tree's; the pretty text is
/// asserted equal to the tree's too.
fn direct_text<T: Serialize + ?Sized>(value: &T) -> String {
    let direct = serde_json::to_string(value).unwrap();
    let tree = serde_json::to_value(value);
    assert_eq!(
        direct,
        tree.to_string(),
        "direct writer and tree printer disagree"
    );
    assert_eq!(
        serde_json::to_string_pretty(value).unwrap(),
        tree_pretty(&tree),
        "re-indented text and pretty tree printer disagree"
    );
    direct
}

/// `write_pretty` over a tree: the text `to_string_pretty` must reproduce.
fn tree_pretty(tree: &Value) -> String {
    let mut out = String::new();
    serde_json::write_pretty(tree, 0, &mut out);
    out
}

/// When `bytes` are JSON, its tree pretty-prints alike both ways.
fn pretty_alike(bytes: &[u8]) {
    if let Ok(Ok(tree)) = std::str::from_utf8(bytes).map(serde_json::parse) {
        assert_eq!(
            serde_json::to_string_pretty(&tree).unwrap(),
            tree_pretty(&tree)
        );
    }
}

/// Byte identity, then `from_slice(&to_vec(&x)?)? == x`, read both ways.
fn assert_round_trip<T: Serialize + Deserialize + PartialEq + Debug>(value: &T) {
    let bytes = serde_json::to_vec(value).unwrap();
    assert_eq!(bytes, direct_text(value).into_bytes());
    assert_eq!(read_both_ways::<T>(&bytes).as_ref(), Some(value));
}

/// `bytes` read as a `T` by the typed reader and through the tree, asserted to
/// agree: the same value, or both an error — the same error when the text is
/// not JSON. The value, if any.
fn read_both_ways<T: Deserialize + PartialEq + Debug>(bytes: &[u8]) -> Option<T> {
    let typed = serde_json::from_slice::<T>(bytes);
    match std::str::from_utf8(bytes).map(serde_json::parse) {
        Err(_) => assert!(typed.is_err(), "invalid UTF-8 read as a value"),
        Ok(Err(syntax)) => assert_eq!(typed.as_ref().err(), Some(&syntax)),
        Ok(Ok(tree)) => {
            let from_tree = serde_json::from_value::<T>(&tree);
            assert_eq!(
                typed.as_ref().ok(),
                from_tree.as_ref().ok(),
                "typed read {typed:?}, tree read {from_tree:?}"
            );
        }
    }
    typed.ok()
}

fn all_simd_levels() -> Vec<SimdLevel> {
    let mut levels: Vec<SimdLevel> = [IsaFamily::X86_64, IsaFamily::Aarch64]
        .iter()
        .flat_map(|family| SimdLevel::levels_for(*family).iter().copied())
        .collect();
    levels.sort();
    levels.dedup();
    levels
}

#[test]
fn real_documents_are_byte_identical_and_round_trip() {
    let orch = Orchestrator::new();
    let gromacs_project = gromacs::project();
    let gromacs_config = IrPipelineConfig::sweep_options(&gromacs_project, &["GMX_SIMD"])
        .with_values(
            "GMX_SIMD",
            &["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"],
        );
    let gromacs_build = IrBuildRequest::new(&gromacs_project, &gromacs_config)
        .submit(&orch)
        .expect("the GROMACS IR container builds");
    let lulesh_project = lulesh::project();
    let lulesh_config = IrPipelineConfig::sweep_options(&lulesh_project, &["WITH_OPENMP"]);
    let lulesh_build = IrBuildRequest::new(&lulesh_project, &lulesh_config)
        .submit(&orch)
        .expect("the LULESH IR container builds");
    IrDeployRequest::new(&gromacs_build, &gromacs_project, &SystemModel::ault23())
        .select("GMX_SIMD", "AVX_512")
        .simd(SimdLevel::Avx512)
        .submit(&orch)
        .expect("the GROMACS deployment succeeds");
    IrDeployRequest::new(&lulesh_build, &lulesh_project, &SystemModel::clariden())
        .select("WITH_OPENMP", "ON")
        .submit(&orch)
        .expect("the LULESH deployment succeeds");
    for project in [gromacs::project(), llamacpp::project()] {
        let system = SystemModel::ault23();
        let reference = format!("{}:src", project.name);
        let image =
            build_source_container(&project, architecture_of(&system), orch.store(), &reference);
        SourceDeployRequest::new(&project, &image, &system)
            .submit(&orch)
            .expect("the source deployment succeeds");
    }

    // IR modules and their machine modules for every SIMD target.
    let modules: Vec<&IrModule> = gromacs_build
        .units
        .values()
        .chain(lulesh_build.units.values())
        .map(|unit| unit.module().expect("built units decode"))
        .collect();
    assert!(modules.len() > 9, "both applications contribute IR units");
    let levels = all_simd_levels();
    assert_eq!(levels.len(), 9);
    for module in &modules {
        assert_round_trip(*module);
        for level in &levels {
            assert_round_trip(&lower_to_machine(module, &target_isa_for(*level)));
        }
    }
    // A unit's id is the content identity of the bytes that encode it, so the
    // IR-build Link can take it from the bitcode it holds without decoding, and
    // those bytes are its module's encoding.
    for (id, unit) in gromacs_build.units.iter().chain(&lulesh_build.units) {
        let bytes = bitcode::encode(unit.module().unwrap());
        assert_eq!(unit.bitcode, bytes);
        let decoded = bitcode::decode(&bytes).unwrap();
        assert_eq!(
            bitcode::content_id_of(&bytes),
            bitcode::content_id(&decoded)
        );
        assert_eq!(&bitcode::content_id_of(&bytes), id);
    }

    // Every committed image's manifest, config and descriptor — the IR builds,
    // the source containers and the deployments of every application — read back
    // from the store: the stored bytes, which commit writes from borrowed views
    // of the image, are the derived writer's bytes for the typed values.
    let store = orch.store();
    let references = store.references();
    assert_eq!(references.len(), 8, "{references:?}");
    for (reference, _) in &references {
        let digest = store.resolve(reference).unwrap();
        let manifest = store.manifest(&digest).unwrap();
        assert_eq!(
            &store.blob(&digest).unwrap()[..],
            &serde_json::to_vec(&manifest).unwrap()[..]
        );
        let config = store.config(&manifest.config.digest).unwrap();
        assert_eq!(
            &store.blob(&manifest.config.digest).unwrap()[..],
            &serde_json::to_vec(&config).unwrap()[..]
        );
        assert_round_trip(&manifest);
        assert_round_trip(&config);
        let size = store.blob(&digest).unwrap().len() as u64;
        assert_round_trip(&Descriptor::new(MediaType::ImageManifest, digest, size));
    }

    for manifest in gromacs_build
        .manifests
        .iter()
        .chain(&lulesh_build.manifests)
    {
        assert_round_trip(manifest);
    }
    let features = discover(&SystemModel::clariden());
    assert!(!features.gpu_backends.is_empty());
    assert_eq!(
        read_both_ways::<SystemFeatures>(features.to_json().as_bytes()),
        Some(features)
    );
}

// ---------------------------------------------------------------------------
// Mutated real documents
// ---------------------------------------------------------------------------

/// Reads bytes as one type both ways ([`read_both_ways`]), and pretty-prints them
/// both ways when they are JSON ([`pretty_alike`]).
type Check = fn(&[u8]);

fn check<T: Deserialize + PartialEq + Debug>(bytes: &[u8]) {
    read_both_ways::<T>(bytes);
    pretty_alike(bytes);
}

/// One real document of each kind the pipeline reads back, each with the check
/// that reads it as its own type.
static DOCUMENTS: LazyLock<Vec<(String, Check)>> = LazyLock::new(|| {
    let orch = Orchestrator::new();
    let project = lulesh::project();
    let config = IrPipelineConfig::sweep_options(&project, &["WITH_OPENMP"]);
    let build = IrBuildRequest::new(&project, &config)
        .submit(&orch)
        .expect("the LULESH IR container builds");
    let module = build.units.values().next().unwrap().module().unwrap();
    let machine = lower_to_machine(module, &target_isa_for(SimdLevel::Avx512));
    let store = orch.store();
    let manifest = store
        .manifest(&store.resolve(&build.reference).unwrap())
        .unwrap();
    vec![
        (
            serde_json::to_string(module).unwrap(),
            check::<IrModule> as Check,
        ),
        (
            serde_json::to_string(&machine).unwrap(),
            check::<MachineModule>,
        ),
        (serde_json::to_string(&manifest).unwrap(), check::<Manifest>),
        (
            discover(&SystemModel::clariden()).to_json(),
            check::<SystemFeatures>,
        ),
    ]
});

/// The byte spans of the object keys in `text`: every `"…"` followed by `:`.
fn key_spans(text: &[u8]) -> Vec<(usize, usize)> {
    (1..text.len().saturating_sub(1))
        .filter(|&end| text[end] == b'"' && text[end + 1] == b':')
        .filter_map(|end| {
            let start = text[..end].iter().rposition(|&b| b == b'"')?;
            Some((start + 1, end))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_documents_read_alike_both_ways(
        cut in any::<u64>(),
        bit in any::<u64>(),
        from in any::<u64>(),
        to in any::<u64>(),
    ) {
        for (text, check) in DOCUMENTS.iter() {
            let bytes = text.as_bytes();
            let len = bytes.len() as u64;
            check(&bytes[..(cut % (len + 1)) as usize]);
            let mut flipped = bytes.to_vec();
            let bit = bit % (len * 8);
            flipped[(bit / 8) as usize] ^= 1 << (bit % 8);
            check(&flipped);
            // One key renamed to another key of the document (often a repeat
            // within its object), and one renamed to a key no type has.
            let spans = key_spans(bytes);
            let (start, end) = spans[(from % spans.len() as u64) as usize];
            let (other_start, other_end) = spans[(to % spans.len() as u64) as usize];
            check(&[&bytes[..start], &bytes[other_start..other_end], &bytes[end..]].concat());
            check(&[&bytes[..end], b"_".as_slice(), &bytes[end..]].concat());
        }
    }
}

/// Arrays of arrays, read by the derive's newtype path: one level per `Vec`.
#[derive(Debug, PartialEq, Deserialize)]
struct Nest(Vec<Nest>);

#[test]
fn typed_reads_and_skipped_fields_are_capped_at_128_levels() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let recursion_error = |result: Result<_, serde_json::Error>| {
        let err = result.map(|_: ()| ()).unwrap_err().to_string();
        assert!(err.contains("recursion limit exceeded"), "{err}");
    };
    assert!(read_both_ways::<Nest>(nested(128).as_bytes()).is_some());
    for too_deep in [nested(129), "[".repeat(100_000)] {
        recursion_error(serde_json::from_str::<Nest>(&too_deep).map(drop));
        assert_eq!(read_both_ways::<Nest>(too_deep.as_bytes()), None);
    }
    // In a field no struct has: the object is one level, so 127 more fit.
    let with_unknown = |value: &str| format!(r#"{{"c":7,"u":2.0,"extra":{value}}}"#);
    assert!(read_both_ways::<Skips>(with_unknown(&nested(127)).as_bytes()).is_some());
    for too_deep in [nested(128), "[".repeat(100_000)] {
        let text = with_unknown(&too_deep);
        recursion_error(serde_json::from_str::<Skips>(&text).map(drop));
        assert_eq!(read_both_ways::<Skips>(text.as_bytes()), None);
    }
}

#[test]
fn a_repeated_key_is_rejected_on_both_paths() {
    for text in [
        r#"{"c":7,"c":8,"u":2.0}"#,
        r#"{"c":7,"u":2.0,"a":1,"a":null}"#,
        r#"{"c":7,"u":2.0,"x":1,"x":1}"#,
        r#"{"c":7,"u":2.0,"x":{"k":1,"k":1}}"#,
    ] {
        let err = serde_json::from_str::<Skips>(text).unwrap_err();
        assert!(err.to_string().contains("duplicate key"), "{text}: {err}");
        assert!(serde_json::parse(text).is_err(), "{text}");
        assert_eq!(read_both_ways::<Skips>(text.as_bytes()), None);
    }
    assert_eq!(
        read_both_ways::<BTreeMap<String, u8>>(br#"{"a":1,"a":1}"#),
        None
    );
    // Two spellings of one integer key are one key twice.
    let tree = serde_json::parse(r#"{"1":1,"01":2}"#).unwrap();
    assert!(serde_json::from_value::<BTreeMap<u8, u8>>(&tree).is_err());
    assert_eq!(
        read_both_ways::<BTreeMap<u8, u8>>(br#"{"1":1,"01":2}"#),
        None
    );
    assert_eq!(
        read_both_ways::<Shape>(br#"{"Newtype":"a","Newtype":"b"}"#),
        None
    );
}

#[test]
fn surrogate_pairs_decode_to_one_char_and_escapes_take_four_hex_digits() {
    for (text, expected) in [
        (r#""\ud83d\ude00""#, "😀"),
        (r#""\uD83D\uDE00!""#, "😀!"),
        (r#""\ud83d""#, "\u{fffd}"),
        (r#""\ude00""#, "\u{fffd}"),
        (r#""\ud83dA""#, "\u{fffd}A"),
        (r#""\ud83d\u0041""#, "\u{fffd}A"),
        (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
        (r#""\u00e9\u2028""#, "é\u{2028}"),
    ] {
        let read = read_both_ways::<String>(text.as_bytes());
        assert_eq!(read.as_deref(), Some(expected), "{text}");
    }
    for text in [
        r#""\u+041""#,
        r#""\u-041""#,
        r#""\u 041""#,
        r#""\u00G1""#,
        r#""\u04""#,
        r#""\ud83d\u+e00""#,
    ] {
        assert!(serde_json::from_str::<String>(text).is_err(), "{text}");
        assert_eq!(read_both_ways::<String>(text.as_bytes()), None);
    }
    // A system feature document — LLM-written text in the paper — reads through
    // the same lexer.
    let features = discover(&SystemModel::ault23());
    let named = |name: &str| {
        let text = features.to_json();
        let named = text.replacen(&format!("\"{}\"", features.system), name, 1);
        assert_ne!(named, text);
        SystemFeatures::from_json(&named)
    };
    assert_eq!(named(r#""Ault\ud83d\ude00""#).unwrap().system, "Ault😀");
    assert!(named(r#""Ault\u+041""#).is_err());
}

// ---------------------------------------------------------------------------
// Generated edge cases
// ---------------------------------------------------------------------------

/// One character of every escape class, control bytes, the bytes either side
/// of them, and one- to four-byte UTF-8.
const PALETTE: &[char] = &[
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1b}',
    '\u{1f}',
    ' ',
    '/',
    'a',
    'Z',
    '\u{7f}',
    '\u{80}',
    'é',
    '\u{2028}',
    '✓',
    '\u{fffd}',
    '😀',
    '\u{10ffff}',
];

fn palette_string(picks: &[u64]) -> String {
    picks
        .iter()
        .map(|pick| PALETTE[(*pick % PALETTE.len() as u64) as usize])
        .collect()
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Skips {
    #[serde(default, skip_serializing_if = "Option::is_none")]
    a: Option<u8>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    b: Vec<i64>,
    c: u32,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    d: Option<bool>,
    u: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct AllSkippable {
    #[serde(default, skip_serializing_if = "Option::is_none")]
    x: Option<u8>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    y: Option<u8>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u8, Option<String>);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(String),
    Tuple(i8, Option<u64>, Vec<bool>),
    Struct {
        zeta: u8,
        // Struct variants print every field: `to_value` ignores the predicate.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        beta: Option<String>,
    },
    EmptyStruct {},
}

/// A map key whose text collides: `Value::Object` keeps the last entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Parity(u8);

impl Serialize for Parity {
    fn to_value(&self) -> Value {
        let parity = if self.0.is_multiple_of(2) {
            "even"
        } else {
            "odd"
        };
        Value::String(parity.to_string())
    }
}

fn shape(pick: u64, text: String) -> Shape {
    match pick % 5 {
        0 => Shape::Unit,
        1 => Shape::Newtype(text),
        2 => Shape::Tuple(
            pick as i8,
            pick.is_multiple_of(3).then_some(pick),
            vec![pick.is_multiple_of(2)],
        ),
        3 => Shape::Struct {
            zeta: pick as u8,
            beta: pick.is_multiple_of(3).then_some(text),
        },
        _ => Shape::EmptyStruct {},
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_escape_like_the_per_char_reference(
        picks in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let text = palette_string(&picks);
        let direct = direct_text(&text);
        prop_assert_eq!(&direct, &reference_escaped(&text));
        prop_assert_eq!(&direct_text(text.as_str()), &direct);
        prop_assert_eq!(serde_json::from_str::<String>(&direct).unwrap(), text.clone());
        for c in text.chars() {
            prop_assert_eq!(direct_text(&c), reference_escaped(&c.to_string()));
        }
        // As object keys, through the tree printer and `write_pretty` too.
        let map: BTreeMap<String, String> = [(text.clone(), text.clone())].into();
        let expected = format!("{{{}:{}}}", reference_escaped(&text), reference_escaped(&text));
        prop_assert_eq!(direct_text(&map), expected);
        let pretty = serde_json::to_string_pretty(&map).unwrap();
        let back: BTreeMap<String, String> = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(back, map);
    }

    #[test]
    fn integers_print_in_std_decimal(signed in any::<i64>(), unsigned in any::<u64>(), shift in 0u32..64) {
        for v in [signed, signed >> shift, (signed >> shift).wrapping_neg()] {
            prop_assert_eq!(direct_text(&v), v.to_string());
        }
        for v in [unsigned, unsigned >> shift] {
            prop_assert_eq!(direct_text(&v), v.to_string());
        }
    }

    #[test]
    fn floats_print_like_the_tree(bits in any::<u64>(), small in -1e6f64..1e6) {
        for v in [f64::from_bits(bits), small, small.trunc(), small * 1e12, small * 1e-12] {
            direct_text(&v);
            direct_text(&(v as f32));
        }
    }

    #[test]
    fn integer_keyed_and_hashed_maps_print_like_the_tree(
        keys in proptest::collection::vec(any::<i64>(), 0..12),
        small in proptest::collection::vec(0u16..40, 0..12),
        picks in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        let signed: BTreeMap<i64, u8> = keys.iter().map(|k| (*k % 200, 1)).collect();
        direct_text(&signed);
        let unsigned: BTreeMap<u16, Vec<u16>> = small.iter().map(|k| (*k, vec![*k])).collect();
        direct_text(&unsigned);
        let hashed: HashMap<u16, bool> = small.iter().map(|k| (*k, k.is_multiple_of(2))).collect();
        direct_text(&hashed);
        let hashed_text: HashMap<String, i64> = keys
            .iter()
            .map(|k| (palette_string(&[*k as u64, picks.len() as u64]), *k))
            .collect();
        direct_text(&hashed_text);
        let colliding: BTreeMap<Parity, u16> =
            small.iter().map(|k| (Parity(*k as u8), *k)).collect();
        direct_text(&colliding);
        let bools: BTreeMap<bool, String> =
            [(true, palette_string(&picks)), (false, String::new())].into();
        direct_text(&bools);
    }

    #[test]
    fn derived_shapes_print_like_the_tree_and_round_trip(
        pick in any::<u64>(),
        picks in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let text = palette_string(&picks);
        let flag = |bit: u64| pick & (1 << bit) != 0;
        assert_round_trip(&Skips {
            a: flag(0).then_some(pick as u8),
            b: if flag(2) { vec![pick as i64, i64::MIN] } else { Vec::new() },
            c: pick as u32,
            d: flag(3).then_some(flag(4)),
            u: (pick % 1000) as f64 / 8.0,
        });
        assert_round_trip(&AllSkippable {
            x: flag(5).then_some(1),
            y: flag(6).then_some(2),
        });
        assert_round_trip(&Newtype(text.clone()));
        assert_round_trip(&Pair(pick as u8, flag(7).then(|| text.clone())));
        assert_round_trip(&Unit);
        let shapes: Vec<Shape> = picks.iter().map(|p| shape(*p, text.clone())).collect();
        assert_round_trip(&shapes);
        assert_round_trip(&shape(pick, text));
    }
}

/// Text the re-indenter must copy as it is: every character it treats as
/// structure outside a string, escapes, and the escaped quote before a bracket.
const STRUCTURAL: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\\"", "\"]", " ", "\n", "a", "é",
];

/// Up to three pieces of [`STRUCTURAL`] drawn from `picks`.
fn drawn_text(picks: &mut impl Iterator<Item = u64>) -> String {
    let len = picks.next().unwrap_or(0) % 4;
    (0..len)
        .map(|_| STRUCTURAL[(picks.next().unwrap_or(0) % STRUCTURAL.len() as u64) as usize])
        .collect()
}

/// A JSON tree drawn from `picks`: nested arrays and objects (empty ones too), and
/// strings and keys built from [`STRUCTURAL`].
fn drawn_tree(picks: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
    let pick = picks.next().unwrap_or(0);
    let children = if depth == 0 { 0 } else { (pick >> 3) % 4 };
    match pick % 6 {
        0 => Value::Null,
        1 => Value::Bool(pick & 8 != 0),
        2 => serde_json::to_value(&(pick as i64 >> 40)),
        3 => Value::String(drawn_text(picks)),
        4 => Value::Array(
            (0..children)
                .map(|_| drawn_tree(picks, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..children)
                .map(|_| (drawn_text(picks), drawn_tree(picks, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn drawn_trees_pretty_print_like_the_tree(
        picks in proptest::collection::vec(any::<u64>(), 0..96),
    ) {
        direct_text(&drawn_tree(&mut picks.into_iter(), 4));
    }
}

#[test]
fn empty_and_nested_empty_containers_pretty_print_like_the_tree() {
    let empty_array = Value::Array(Vec::new());
    let empty_object = Value::Object(serde_json::Map::new());
    let structural = Value::String("{[,:\"\\]}".to_string());
    let object = |entries: Vec<(&str, Value)>| {
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let nested = object(vec![
        ("", empty_object.clone()),
        (
            "a",
            Value::Array(vec![empty_array.clone(), empty_object.clone()]),
        ),
        (
            "b",
            Value::Array(vec![Value::Array(vec![empty_array.clone()])]),
        ),
        ("{[,:\"\\]}", structural.clone()),
        (
            "c",
            object(vec![
                ("d", empty_object.clone()),
                ("e", empty_array.clone()),
            ]),
        ),
    ]);
    for value in [empty_array, empty_object, structural, nested.clone()] {
        direct_text(&value);
    }
    assert_eq!(
        serde_json::to_string_pretty(&nested).unwrap(),
        "{\n  \"\": {},\n  \"a\": [\n    [],\n    {}\n  ],\n  \"b\": [\n    [\n      []\n    ]\n  ],\n  \"c\": {\n    \"d\": {},\n    \"e\": []\n  },\n  \"{[,:\\\"\\\\]}\": \"{[,:\\\"\\\\]}\"\n}"
    );
    let unit: Vec<Vec<BTreeMap<String, u8>>> = vec![Vec::new(), vec![BTreeMap::new()]];
    direct_text(&unit);
}

#[test]
fn every_shape_has_its_pinned_text() {
    let pinned = [
        (Shape::Unit, r#""Unit""#),
        (Shape::Newtype("n".into()), r#"{"Newtype":"n"}"#),
        (
            Shape::Tuple(-1, None, vec![true]),
            r#"{"Tuple":[-1,null,[true]]}"#,
        ),
        (
            Shape::Struct {
                zeta: 1,
                beta: None,
            },
            r#"{"Struct":{"beta":null,"zeta":1}}"#,
        ),
        (Shape::EmptyStruct {}, r#"{"EmptyStruct":{}}"#),
    ];
    for (shape, text) in pinned {
        assert_eq!(direct_text(&shape), text);
    }
    let skips = Skips {
        a: None,
        b: Vec::new(),
        c: 7,
        d: None,
        u: 2.0,
    };
    assert_eq!(direct_text(&skips), r#"{"c":7,"u":2.0}"#);
    assert_eq!(direct_text(&AllSkippable { x: None, y: None }), "{}");
    assert_eq!(
        direct_text(&AllSkippable {
            x: None,
            y: Some(2)
        }),
        r#"{"y":2}"#
    );
    assert_eq!(direct_text(&Unit), "null");
    assert_eq!(direct_text(&Pair(3, None)), "[3,null]");
    // Integer keys sort as text, and the last of colliding keys wins.
    let ints: BTreeMap<i32, u8> = [(2, 0), (10, 1), (-1, 2)].into();
    assert_eq!(direct_text(&ints), r#"{"-1":2,"10":1,"2":0}"#);
    let colliding: BTreeMap<Parity, u8> = [(Parity(0), 0), (Parity(1), 1), (Parity(2), 2)].into();
    assert_eq!(direct_text(&colliding), r#"{"even":2,"odd":1}"#);
}

#[test]
fn numbers_at_the_edges_print_like_the_tree() {
    assert_eq!(direct_text(&u64::MAX), "18446744073709551615");
    assert_eq!(direct_text(&i64::MIN), "-9223372036854775808");
    assert_eq!(direct_text(&i64::MAX), "9223372036854775807");
    assert_eq!(direct_text(&0u8), "0");
    assert_eq!(
        direct_text(&(i8::MIN, i16::MIN, i32::MIN, isize::MIN)),
        direct_text(&(
            i64::from(i8::MIN),
            i64::from(i16::MIN),
            i64::from(i32::MIN),
            isize::MIN as i64
        ))
    );
    assert_eq!(direct_text(&usize::MAX), direct_text(&(usize::MAX as u64)));
    let pinned = [
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (1.0, "1.0"),
        (0.1, "0.1"),
        (-2.5, "-2.5"),
        (999_999_999_999_999.0, "999999999999999.0"),
        (1e15, "1000000000000000"),
        (1e16, "10000000000000000"),
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
        (f64::NEG_INFINITY, "null"),
    ];
    for (value, text) in pinned {
        assert_eq!(direct_text(&value), text, "{value:?}");
    }
    for value in [
        1e300,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
    ] {
        direct_text(&value);
    }
}

#[test]
fn nesting_is_capped_at_128_levels() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let ok: Value = serde_json::from_str(&nested(128)).expect("128 levels parse");
    assert_eq!(direct_text(&ok), nested(128));
    let objects = format!("{}1{}", r#"{"k":"#.repeat(128), "}".repeat(128));
    assert!(serde_json::from_str::<Value>(&objects).is_ok());
    for too_deep in [
        nested(129),
        format!("{}1{}", r#"{"k":"#.repeat(129), "}".repeat(129)),
    ] {
        let err = serde_json::from_str::<Value>(&too_deep).unwrap_err();
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
    }
    // Unbalanced input deep enough to overflow a recursive parser's stack.
    let err = serde_json::from_str::<Value>(&"[".repeat(100_000)).unwrap_err();
    assert!(
        err.to_string().contains("recursion limit exceeded"),
        "{err}"
    );
}
