//! The specialization-point document: the JSON interchange format of Figure 4(a) and
//! Appendix B.
//!
//! Internally the document is a flat list of [`SpecEntry`] facts (category + name +
//! build flag + metadata), which makes precision/recall scoring straightforward; the
//! Appendix-B-shaped JSON rendering groups entries by category.

use serde::Serialize;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Categories of specialization points (the top-level keys of the Appendix B schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpecCategory {
    /// GPU build switch / GPU backends.
    GpuBackend,
    /// Parallel programming libraries (MPI, OpenMP, thread-MPI, pthreads).
    Parallelism,
    /// SIMD vectorization levels.
    Vectorization,
    /// Linear algebra libraries.
    LinearAlgebra,
    /// FFT libraries.
    Fft,
    /// Other external libraries.
    OtherLibrary,
    /// Supported compilers.
    Compiler,
    /// Supported architectures.
    Architecture,
    /// Optimisation-related build flags.
    Optimization,
    /// Build system type/version.
    BuildSystem,
    /// Libraries the project can build internally.
    InternalBuild,
}

impl SpecCategory {
    /// The JSON key used in the Appendix B schema.
    pub(crate) fn json_key(&self) -> &'static str {
        match self {
            SpecCategory::GpuBackend => "gpu_backends",
            SpecCategory::Parallelism => "parallel_programming_libraries",
            SpecCategory::Vectorization => "simd_vectorization",
            SpecCategory::LinearAlgebra => "linear_algebra_libraries",
            SpecCategory::Fft => "FFT_libraries",
            SpecCategory::OtherLibrary => "other_external_libraries",
            SpecCategory::Compiler => "compilers",
            SpecCategory::Architecture => "architectures",
            SpecCategory::Optimization => "optimization_build_flags",
            SpecCategory::BuildSystem => "build_system",
            SpecCategory::InternalBuild => "internal_build",
        }
    }

    /// All categories.
    pub fn all() -> &'static [SpecCategory] {
        &[
            SpecCategory::GpuBackend,
            SpecCategory::Parallelism,
            SpecCategory::Vectorization,
            SpecCategory::LinearAlgebra,
            SpecCategory::Fft,
            SpecCategory::OtherLibrary,
            SpecCategory::Compiler,
            SpecCategory::Architecture,
            SpecCategory::Optimization,
            SpecCategory::BuildSystem,
            SpecCategory::InternalBuild,
        ]
    }
}

impl fmt::Display for SpecCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.json_key())
    }
}

/// One specialization-point fact.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpecEntry {
    /// Category.
    pub category: SpecCategory,
    /// Name of the option value / backend / library (e.g. `CUDA`, `AVX_512`, `mkl`).
    pub name: String,
    /// The build flag enabling it (e.g. `-DGMX_GPU=CUDA`), if any.
    pub build_flag: Option<String>,
    /// Whether this is the default choice.
    pub default: bool,
    /// Minimum version, if the build system states one.
    pub minimum_version: Option<String>,
}

impl SpecEntry {
    /// Create an entry.
    pub fn new(category: SpecCategory, name: impl Into<String>) -> Self {
        Self {
            category,
            name: name.into(),
            build_flag: None,
            default: false,
            minimum_version: None,
        }
    }

    /// Builder: set the build flag.
    pub fn with_flag(mut self, flag: impl Into<String>) -> Self {
        self.build_flag = Some(flag.into());
        self
    }
}

/// A specialization-point document: the output of discovery for one application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecializationDocument {
    /// The application the document describes.
    pub application: String,
    /// Whether the build system supports GPU builds at all.
    pub gpu_build: bool,
    /// The flag controlling the GPU build switch.
    pub gpu_build_flag: Option<String>,
    /// The build system type (`cmake`, `make`, `undetermined`).
    pub build_system: String,
    /// Minimum build-system version, if stated.
    pub build_system_min_version: Option<String>,
    /// The individual specialization facts.
    pub entries: Vec<SpecEntry>,
}

impl SpecializationDocument {
    /// Create an empty document for an application.
    pub fn new(application: impl Into<String>) -> Self {
        Self {
            application: application.into(),
            build_system: "cmake".into(),
            ..Default::default()
        }
    }

    /// Add an entry.
    pub fn push(&mut self, entry: SpecEntry) -> &mut Self {
        self.entries.push(entry);
        self
    }

    /// All entries of a category.
    pub(crate) fn entries_of(&self, category: SpecCategory) -> Vec<&SpecEntry> {
        self.entries
            .iter()
            .filter(|e| e.category == category)
            .collect()
    }

    /// Find an entry by category and (case-insensitive) name.
    pub fn find(&self, category: SpecCategory, name: &str) -> Option<&SpecEntry> {
        self.entries
            .iter()
            .find(|e| e.category == category && e.name.eq_ignore_ascii_case(name))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render the Appendix-B-shaped JSON document.
    pub fn to_schema_json(&self) -> Value {
        let mut root = serde_json::Map::new();
        root.insert(
            "gpu_build".into(),
            json!({ "value": self.gpu_build, "build_flag": self.gpu_build_flag }),
        );
        root.insert(
            "build_system".into(),
            json!({ "type": self.build_system, "minimum_version": self.build_system_min_version }),
        );
        for category in SpecCategory::all() {
            if *category == SpecCategory::BuildSystem {
                // The build system is rendered as the top-level `build_system` object above.
                continue;
            }
            let entries = self.entries_of(*category);
            match category {
                SpecCategory::Architecture | SpecCategory::Optimization => {
                    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
                    root.insert(category.json_key().into(), json!(names));
                }
                _ => {
                    let mut map = BTreeMap::new();
                    for entry in entries {
                        map.insert(
                            entry.name.clone(),
                            json!({
                                "used_as_default": entry.default,
                                "build_flag": entry.build_flag,
                                "minimum_version": entry.minimum_version,
                            }),
                        );
                    }
                    root.insert(category.json_key().into(), json!(map));
                }
            }
        }
        Value::Object(root)
    }

    /// Pretty-printed schema JSON: the text `serde_json::to_string_pretty` prints
    /// from [`to_schema_json`](Self::to_schema_json)'s tree, written from the
    /// document itself without building the tree.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(&SchemaJson(self)).expect("document serialises")
    }
}

/// A `,` before every element but the first.
fn comma(index: usize, out: &mut String) {
    if index > 0 {
        out.push(',');
    }
}

/// The Appendix-B document of a borrowed [`SpecializationDocument`], written
/// straight to compact text in the tree's key order: every object's keys sorted
/// byte-wise, and the last of two entries with one name in a category winning,
/// as the tree's maps keep them.
struct SchemaJson<'a>(&'a SpecializationDocument);

impl SchemaJson<'_> {
    /// The top-level members in key order: the `gpu_build` and `build_system`
    /// objects (`None`), and one per category but the build system.
    fn members() -> [(&'static str, Option<SpecCategory>); 12] {
        let mut members = [("gpu_build", None); 12];
        members[1] = ("build_system", None);
        let categories = (SpecCategory::all().iter()).filter(|c| **c != SpecCategory::BuildSystem);
        for (member, category) in members[2..].iter_mut().zip(categories) {
            *member = (category.json_key(), Some(*category));
        }
        members.sort_unstable_by_key(|&(key, _)| key);
        members
    }
}

impl Serialize for SchemaJson<'_> {
    fn to_value(&self) -> Value {
        self.0.to_schema_json()
    }

    fn write_json(&self, out: &mut String) {
        let doc = self.0;
        // The entries by category, then name, each repeated name's last entry
        // alone: a category's map is one run of them.
        let mut named: Vec<(usize, &SpecEntry)> = doc.entries.iter().enumerate().collect();
        named.sort_unstable_by(|(i, a), (j, b)| {
            (a.category, &a.name, j).cmp(&(b.category, &b.name, i))
        });
        named.dedup_by(|(_, repeat), (_, kept)| {
            (repeat.category, &repeat.name) == (kept.category, &kept.name)
        });
        out.push('{');
        for (index, (key, category)) in Self::members().into_iter().enumerate() {
            comma(index, out);
            key.write_json(out);
            out.push(':');
            match category {
                None if key == "gpu_build" => {
                    out.push_str("{\"build_flag\":");
                    doc.gpu_build_flag.write_json(out);
                    out.push_str(",\"value\":");
                    doc.gpu_build.write_json(out);
                    out.push('}');
                }
                None => {
                    out.push_str("{\"minimum_version\":");
                    doc.build_system_min_version.write_json(out);
                    out.push_str(",\"type\":");
                    doc.build_system.write_json(out);
                    out.push('}');
                }
                Some(category @ (SpecCategory::Architecture | SpecCategory::Optimization)) => {
                    out.push('[');
                    let names = doc.entries.iter().filter(|e| e.category == category);
                    for (index, entry) in names.enumerate() {
                        comma(index, out);
                        entry.name.write_json(out);
                    }
                    out.push(']');
                }
                Some(category) => {
                    let start = named.partition_point(|(_, e)| e.category < category);
                    let end = named.partition_point(|(_, e)| e.category <= category);
                    out.push('{');
                    for (index, (_, entry)) in named[start..end].iter().enumerate() {
                        comma(index, out);
                        entry.name.write_json(out);
                        out.push_str(":{\"build_flag\":");
                        entry.build_flag.write_json(out);
                        out.push_str(",\"minimum_version\":");
                        entry.minimum_version.write_json(out);
                        out.push_str(",\"used_as_default\":");
                        entry.default.write_json(out);
                        out.push('}');
                    }
                    out.push('}');
                }
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SpecializationDocument {
        let mut doc = SpecializationDocument::new("mini-gromacs");
        doc.gpu_build = true;
        doc.gpu_build_flag = Some("-DGMX_GPU".into());
        doc.push(SpecEntry {
            minimum_version: Some("12.1".into()),
            ..SpecEntry::new(SpecCategory::GpuBackend, "CUDA").with_flag("-DGMX_GPU=CUDA")
        });
        doc.push(SpecEntry::new(SpecCategory::GpuBackend, "SYCL").with_flag("-DGMX_GPU=SYCL"));
        doc.push(
            SpecEntry::new(SpecCategory::Vectorization, "AVX_512").with_flag("-DGMX_SIMD=AVX_512"),
        );
        doc.push(
            SpecEntry::new(SpecCategory::Vectorization, "SSE4.1").with_flag("-DGMX_SIMD=SSE4.1"),
        );
        doc.push(SpecEntry {
            default: true,
            ..SpecEntry::new(SpecCategory::Fft, "fftw3").with_flag("-DGMX_FFT_LIBRARY=fftw3")
        });
        doc.push(SpecEntry::new(SpecCategory::LinearAlgebra, "mkl").with_flag("-DGMX_BLAS=mkl"));
        doc.push(SpecEntry::new(SpecCategory::Parallelism, "MPI").with_flag("-DGMX_MPI=ON"));
        doc.push(SpecEntry::new(SpecCategory::Architecture, "x86_64"));
        doc
    }

    #[test]
    fn entries_by_category_and_lookup() {
        let doc = sample();
        assert_eq!(doc.entries_of(SpecCategory::GpuBackend).len(), 2);
        assert_eq!(doc.entries_of(SpecCategory::Vectorization).len(), 2);
        assert!(doc.find(SpecCategory::GpuBackend, "cuda").is_some());
        assert!(doc.find(SpecCategory::GpuBackend, "HIP").is_none());
        assert_eq!(doc.len(), 8);
        assert!(!doc.is_empty());
    }

    #[test]
    fn schema_json_has_appendix_b_keys() {
        let doc = sample();
        let json = doc.to_schema_json();
        assert_eq!(json["gpu_build"]["value"], json!(true));
        assert!(json["gpu_backends"].get("CUDA").is_some());
        assert_eq!(
            json["gpu_backends"]["CUDA"]["minimum_version"],
            json!("12.1")
        );
        assert_eq!(
            json["FFT_libraries"]["fftw3"]["used_as_default"],
            json!(true)
        );
        assert!(json["simd_vectorization"].get("AVX_512").is_some());
        assert_eq!(json["architectures"], json!(["x86_64"]));
        assert_eq!(json["build_system"]["type"], json!("cmake"));
        // Categories with no entries still appear (schema requires all keys).
        assert!(json.get("internal_build").is_some());
    }

    /// The document crosses the image boundary as its specialisation-points
    /// annotation: the written text reads back as the schema tree.
    #[test]
    fn document_serde_roundtrip() {
        let doc = sample();
        let back: Value = serde_json::from_str(&doc.to_json_string()).unwrap();
        assert_eq!(back, doc.to_schema_json());
    }

    #[test]
    fn json_string_is_pretty_printed() {
        let text = sample().to_json_string();
        assert!(text.contains('\n'));
        assert!(text.contains("\"gpu_backends\""));
    }
}
