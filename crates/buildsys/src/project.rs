//! Project descriptions: sources, targets, dependencies, and custom targets.
//!
//! A [`ProjectSpec`] is the substrate's analogue of a CMake project checkout: the CK
//! source tree, headers, the build options it exposes, and the executable/library targets
//! assembled from those sources. Conditional sources carry *tags* that option values
//! enable (the "code modules that can be excluded during configuration" of Section 4.3).

use crate::options::{BuildOption, OptionAssignment};
use std::collections::BTreeMap;

/// A source file in the project tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSpec {
    /// Repository-relative path (e.g. `src/nonbonded.ck`).
    pub path: String,
    /// File content (CK source).
    pub content: String,
    /// Tags that must be enabled for this file to be built; empty = always built.
    pub required_tags: Vec<String>,
    /// Extra per-file compile flags (e.g. a file-specific `-DGMX_DOUBLE`).
    pub extra_flags: Vec<String>,
}

impl SourceSpec {
    /// An unconditional source file.
    pub fn new(path: impl Into<String>, content: impl Into<String>) -> Self {
        Self {
            path: path.into(),
            content: content.into(),
            required_tags: Vec::new(),
            extra_flags: Vec::new(),
        }
    }

    /// Require a tag (source is built only when an enabled option provides it).
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.required_tags.push(tag.into());
        self
    }

    /// Add a per-file flag.
    pub fn with_flag(mut self, flag: impl Into<String>) -> Self {
        self.extra_flags.push(flag.into());
        self
    }

    /// Whether the source is system-dependent (S_D of Hypothesis 2): it is built
    /// only with MPI, whose runtime has no stable ABI, so it ships as source and
    /// compiles on the target.
    pub fn is_system_dependent(&self) -> bool {
        self.required_tags.iter().any(|tag| tag == "mpi")
    }
}

/// Kind of build target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// An executable.
    Executable,
    /// A (static) library.
    Library,
}

/// A build target: a named collection of sources plus link dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSpec {
    /// Target name (e.g. `gmx`, `libgromacs`).
    pub name: String,
    /// Kind.
    pub kind: TargetKind,
    /// Paths of sources belonging to this target (conditional sources are filtered at
    /// configure time).
    pub sources: Vec<String>,
    /// Names of project targets this target links against.
    pub link_targets: Vec<String>,
    /// Per-target extra compile flags.
    pub extra_flags: Vec<String>,
}

impl TargetSpec {
    /// Create a target.
    pub fn new(name: impl Into<String>, kind: TargetKind, sources: Vec<String>) -> Self {
        Self {
            name: name.into(),
            kind,
            sources,
            link_targets: Vec::new(),
            extra_flags: Vec::new(),
        }
    }

    /// Builder: link against another target.
    pub fn linking(mut self, target: impl Into<String>) -> Self {
        self.link_targets.push(target.into());
        self
    }

    /// Builder: add a per-target flag.
    pub fn with_flag(mut self, flag: impl Into<String>) -> Self {
        self.extra_flags.push(flag.into());
        self
    }
}

/// A custom target that generates a source file at build time (Section 5.1: "How to
/// handle custom targets?" — e.g. GROMACS building its own FFT implementation when none
/// is selected). The pipeline executes these before analysing build configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomTarget {
    /// Name of the custom target.
    pub name: String,
    /// The file it generates. Its `required_tags` trigger the generation (empty =
    /// always runs), so configure enables a product by the same rule as a source.
    pub product: SourceSpec,
}

/// A complete project description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectSpec {
    /// Project name (e.g. `mini-gromacs`).
    pub name: String,
    /// Version string.
    pub version: String,
    /// The build script text (mini-CMake format) — what specialization discovery parses.
    pub build_script: String,
    /// Build options (specialization points).
    pub options: Vec<BuildOption>,
    /// Source files.
    pub sources: Vec<SourceSpec>,
    /// Header files available to `#include` (name → content).
    pub headers: BTreeMap<String, String>,
    /// Build targets.
    pub targets: Vec<TargetSpec>,
    /// Custom source-generating targets.
    pub custom_targets: Vec<CustomTarget>,
    /// Global compile flags applied to every target regardless of options (e.g. `-O3`).
    pub global_flags: Vec<String>,
    /// Whether the project's MPI code is compiled against the MPICH ABI (Section 4.3,
    /// "Compilation": MPI-dependent files are system-dependent).
    pub mpi_abi: Option<String>,
}

impl ProjectSpec {
    /// Look up an option by name.
    pub fn option(&self, name: &str) -> Option<&BuildOption> {
        self.options.iter().find(|o| o.name == name)
    }

    /// Look up a source by path: a declared one or a custom target's product.
    pub fn source(&self, path: &str) -> Option<&SourceSpec> {
        let products = self.custom_targets.iter().map(|c| &c.product);
        self.sources.iter().chain(products).find(|s| s.path == path)
    }

    /// Look up a target by name.
    pub fn target(&self, name: &str) -> Option<&TargetSpec> {
        self.targets.iter().find(|t| t.name == name)
    }

    /// `assignment` with every option it leaves out at its default value (the
    /// default assignment is `complete(&OptionAssignment::new())`).
    pub fn complete(&self, assignment: &OptionAssignment) -> OptionAssignment {
        let mut complete = assignment.clone();
        for option in &self.options {
            if assignment.get(&option.name).is_none() {
                complete.set(option.name.clone(), option.default_value());
            }
        }
        complete
    }

    /// Validate an assignment: unknown options or illegal values are reported.
    pub(crate) fn validate_assignment(&self, assignment: &OptionAssignment) -> Result<(), String> {
        for (name, value) in assignment.iter() {
            let Some(option) = self.option(name) else {
                return Err(format!("unknown option `{name}` for project {}", self.name));
            };
            if !option.accepts(value) {
                return Err(format!(
                    "option `{name}` does not accept `{value}` (choices: {})",
                    option.value_names().join(", ")
                ));
            }
        }
        Ok(())
    }

    /// Total number of source files (before configuration filtering).
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{OptionCategory, OptionEffects, OptionValue};

    fn tiny_project() -> ProjectSpec {
        let mpi_on = OptionEffects {
            definitions: vec!["-DUSE_MPI".into()],
            enables_tags: vec!["mpi".into()],
            dependencies: vec!["mpich".into()],
            ..Default::default()
        };
        ProjectSpec {
            name: "tiny".into(),
            version: "1.0".into(),
            build_script: "project(tiny)\noption(USE_MPI \"Enable MPI\" OFF)\n".into(),
            options: vec![
                BuildOption::boolean("USE_MPI", "Enable MPI", OptionCategory::Parallelism, false, mpi_on),
                BuildOption::choice(
                    "SIMD",
                    "Vectorization",
                    OptionCategory::Vectorization,
                    vec![OptionValue::plain("None"), OptionValue::plain("AVX_512").with_flag("-mavx512f")],
                    "None",
                ),
            ],
            sources: vec![
                SourceSpec::new("src/core.ck", "kernel void core(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = 1.0; } }"),
                SourceSpec::new("src/comm.ck", "kernel void halo(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = 0.0; } }")
                    .with_tag("mpi"),
            ],
            headers: BTreeMap::new(),
            targets: vec![TargetSpec::new(
                "tiny",
                TargetKind::Executable,
                vec!["src/core.ck".into(), "src/comm.ck".into()],
            )],
            custom_targets: vec![],
            global_flags: vec!["-O3".into()],
            mpi_abi: Some("mpich".into()),
        }
    }

    #[test]
    fn lookups_and_defaults() {
        let project = tiny_project();
        assert!(project.option("USE_MPI").is_some());
        assert!(project.option("MISSING").is_none());
        assert!(project.source("src/core.ck").is_some());
        assert!(project.target("tiny").is_some());
        let defaults = project.complete(&OptionAssignment::new());
        assert_eq!(defaults.get("USE_MPI"), Some("OFF"));
        assert_eq!(defaults.get("SIMD"), Some("None"));
        let avx = project.complete(&OptionAssignment::new().with("SIMD", "AVX_512"));
        assert_eq!(avx, defaults.clone().with("SIMD", "AVX_512"));
        assert_eq!(project.source_count(), 2);
    }

    #[test]
    fn assignment_validation() {
        let project = tiny_project();
        let good = OptionAssignment::new()
            .with("USE_MPI", "ON")
            .with("SIMD", "AVX_512");
        assert!(project.validate_assignment(&good).is_ok());
        let unknown = OptionAssignment::new().with("NOPE", "ON");
        assert!(project.validate_assignment(&unknown).is_err());
        let bad_value = OptionAssignment::new().with("SIMD", "AVX2_128");
        assert!(project.validate_assignment(&bad_value).is_err());
    }

    #[test]
    fn builders_and_product_lookup() {
        let mut project = tiny_project();
        project.custom_targets.push(CustomTarget {
            name: "gen".into(),
            product: SourceSpec::new("generated/g.ck", "int g;").with_tag("gen"),
        });
        assert_eq!(project.source("generated/g.ck").unwrap().content, "int g;");
        assert!(project.source("generated/other.ck").is_none());
        let spec = SourceSpec::new("a.ck", "x")
            .with_tag("gpu")
            .with_flag("-DF");
        assert_eq!(spec.required_tags, vec!["gpu"]);
        assert_eq!(spec.extra_flags, vec!["-DF"]);
        let target = TargetSpec::new("t", TargetKind::Library, vec![])
            .linking("core")
            .with_flag("-DLIB");
        assert_eq!(target.link_targets, vec!["core"]);
    }
}
