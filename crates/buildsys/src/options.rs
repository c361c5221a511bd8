//! Build options: the knobs a project's build system exposes.
//!
//! These are the *specialization points* of Section 2.1 in machine-readable form: boolean
//! switches (`GMX_MPI=ON`) and multi-choice selections (`GMX_SIMD=AVX_512`,
//! `GMX_GPU=CUDA`, `GMX_FFT_LIBRARY=mkl`). Every option value carries its effects on the
//! build: preprocessor definitions, extra compiler flags, dependency requirements, and
//! which conditional source files it enables.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The category a specialization point belongs to (mirrors the paper's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptionCategory {
    /// GPU acceleration backends.
    GpuBackend,
    /// Parallel programming model (MPI, OpenMP, thread-MPI, pthreads).
    Parallelism,
    /// CPU vectorization level.
    Vectorization,
    /// Linear algebra library choice (BLAS/LAPACK).
    LinearAlgebra,
    /// FFT library choice.
    Fft,
    /// Network / communication library.
    Network,
    /// Anything else (tuning flags, quantisation, …).
    Other,
}

impl fmt::Display for OptionCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OptionCategory::GpuBackend => "gpu_backend",
            OptionCategory::Parallelism => "parallelism",
            OptionCategory::Vectorization => "vectorization",
            OptionCategory::LinearAlgebra => "linear_algebra",
            OptionCategory::Fft => "fft",
            OptionCategory::Network => "network",
            OptionCategory::Other => "other",
        };
        f.write_str(s)
    }
}

/// Effects of selecting a particular option value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptionEffects {
    /// Preprocessor definitions added to every target (e.g. `-DGMX_GPU_CUDA`).
    pub definitions: Vec<String>,
    /// Extra compiler flags added globally (e.g. `-fopenmp`, `-mavx512f`).
    pub compile_flags: Vec<String>,
    /// Dependencies that must be present (e.g. `cuda`, `mkl`, `mpich`).
    pub dependencies: Vec<String>,
    /// Source-file tags enabled by this value (conditional sources carry matching tags).
    pub enables_tags: Vec<String>,
    /// Libraries linked into the final executables.
    pub link_libraries: Vec<String>,
}

/// One selectable value of an option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptionValue {
    /// Value name as written on the configure command line (e.g. `CUDA`, `AVX_512`, `ON`).
    pub name: String,
    /// Effects of choosing it.
    pub effects: OptionEffects,
}

impl OptionValue {
    /// A value with no effects.
    pub fn plain(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            effects: OptionEffects::default(),
        }
    }

    /// Builder: add a preprocessor definition.
    pub fn with_definition(mut self, definition: impl Into<String>) -> Self {
        self.effects.definitions.push(definition.into());
        self
    }

    /// Builder: add a compile flag.
    pub fn with_flag(mut self, flag: impl Into<String>) -> Self {
        self.effects.compile_flags.push(flag.into());
        self
    }

    /// Builder: add a dependency requirement.
    pub fn with_dependency(mut self, dep: impl Into<String>) -> Self {
        self.effects.dependencies.push(dep.into());
        self
    }

    /// Builder: enable a source tag.
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.effects.enables_tags.push(tag.into());
        self
    }

    /// Builder: link a library.
    pub fn with_link_library(mut self, lib: impl Into<String>) -> Self {
        self.effects.link_libraries.push(lib.into());
        self
    }
}

/// The kind of an option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptionKind {
    /// ON/OFF boolean.
    Bool {
        /// Default state.
        default: bool,
        /// Effects applied when ON.
        on_effects: OptionEffects,
    },
    /// One-of-many choice.
    Choice {
        /// Possible values.
        values: Vec<OptionValue>,
        /// Name of the default value.
        default: String,
    },
}

/// A build option (one specialization point).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildOption {
    /// Option name as used on the configure line (e.g. `GMX_GPU`).
    pub name: String,
    /// Human-readable description (from the build script).
    pub description: String,
    /// Category.
    pub category: OptionCategory,
    /// Kind and possible values.
    pub kind: OptionKind,
    /// The configure flag prefix (e.g. `-DGMX_GPU=`); used when generating build commands.
    pub flag: String,
}

impl BuildOption {
    /// A boolean option.
    pub fn boolean(
        name: impl Into<String>,
        description: impl Into<String>,
        category: OptionCategory,
        default: bool,
        on_effects: OptionEffects,
    ) -> Self {
        let name = name.into();
        let flag = format!("-D{name}=");
        Self {
            name,
            description: description.into(),
            category,
            kind: OptionKind::Bool {
                default,
                on_effects,
            },
            flag,
        }
    }

    /// A multi-choice option.
    pub fn choice(
        name: impl Into<String>,
        description: impl Into<String>,
        category: OptionCategory,
        values: Vec<OptionValue>,
        default: impl Into<String>,
    ) -> Self {
        let name = name.into();
        let flag = format!("-D{name}=");
        Self {
            name,
            description: description.into(),
            category,
            kind: OptionKind::Choice {
                values,
                default: default.into(),
            },
            flag,
        }
    }

    /// Possible value names for this option (ON/OFF for booleans).
    pub fn value_names(&self) -> Vec<String> {
        match &self.kind {
            OptionKind::Bool { .. } => vec!["ON".to_string(), "OFF".to_string()],
            OptionKind::Choice { values, .. } => values.iter().map(|v| v.name.clone()).collect(),
        }
    }

    /// The default value name.
    pub(crate) fn default_value(&self) -> String {
        match &self.kind {
            OptionKind::Bool { default, .. } => if *default { "ON" } else { "OFF" }.to_string(),
            OptionKind::Choice { default, .. } => default.clone(),
        }
    }

    /// Whether `value` is a legal setting for this option.
    pub fn accepts(&self, value: &str) -> bool {
        match &self.kind {
            OptionKind::Bool { .. } => ["ON", "OFF"].iter().any(|v| v.eq_ignore_ascii_case(value)),
            OptionKind::Choice { values, .. } => {
                values.iter().any(|v| v.name.eq_ignore_ascii_case(value))
            }
        }
    }

    /// The effects of setting this option to `value` (empty effects for OFF / unknown).
    pub(crate) fn effects_of(&self, value: &str) -> &OptionEffects {
        static NONE: OptionEffects = OptionEffects {
            definitions: Vec::new(),
            compile_flags: Vec::new(),
            dependencies: Vec::new(),
            enables_tags: Vec::new(),
            link_libraries: Vec::new(),
        };
        match &self.kind {
            OptionKind::Bool { on_effects, .. } if value.eq_ignore_ascii_case("ON") => on_effects,
            OptionKind::Bool { .. } => &NONE,
            OptionKind::Choice { values, .. } => values
                .iter()
                .find(|v| v.name.eq_ignore_ascii_case(value))
                .map_or(&NONE, |v| &v.effects),
        }
    }

    /// The configure-line form `-DNAME=VALUE`, as its two parts.
    pub(crate) fn configure_flag<'a>(&'a self, value: &'a str) -> [&'a str; 2] {
        [&self.flag, value]
    }
}

/// A concrete assignment of values to options: one build configuration's inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OptionAssignment {
    values: BTreeMap<String, String>,
}

impl OptionAssignment {
    /// Empty assignment (defaults will be used for unset options).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set an option.
    pub fn set(&mut self, option: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.values.insert(option.into(), value.into());
        self
    }

    /// Builder-style set.
    pub fn with(mut self, option: impl Into<String>, value: impl Into<String>) -> Self {
        self.set(option, value);
        self
    }

    /// Get the assigned value, if any.
    pub fn get(&self, option: &str) -> Option<&str> {
        self.values.get(option).map(String::as_str)
    }

    /// Iterate over assignments in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of explicitly assigned options.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no options were explicitly assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// A short, stable label usable in image tags: `GMX_GPU=CUDA,GMX_SIMD=AVX_512`.
    pub fn label(&self) -> String {
        if self.values.is_empty() {
            return "default".to_string();
        }
        let len = self.values.iter().map(|(k, v)| k.len() + v.len() + 2);
        let mut label = String::with_capacity(len.sum());
        for (k, v) in &self.values {
            if !label.is_empty() {
                label.push(',');
            }
            label.extend([k.as_str(), "=", v.as_str()]);
        }
        label
    }
}

/// Generate every combination of values for the given options (the combinatorial sweep
/// the IR pipeline performs before deduplication).
pub fn all_combinations(options: &[&BuildOption]) -> Vec<OptionAssignment> {
    let mut result = vec![OptionAssignment::new()];
    for option in options {
        let mut next = Vec::with_capacity(result.len() * option.value_names().len());
        for assignment in &result {
            for value in option.value_names() {
                next.push(assignment.clone().with(option.name.clone(), value));
            }
        }
        result = next;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu_option() -> BuildOption {
        BuildOption::choice(
            "GMX_GPU",
            "GPU backend",
            OptionCategory::GpuBackend,
            vec![
                OptionValue::plain("OFF"),
                OptionValue::plain("CUDA")
                    .with_definition("-DGMX_GPU_CUDA")
                    .with_dependency("cuda")
                    .with_tag("gpu_cuda")
                    .with_link_library("cufft"),
                OptionValue::plain("SYCL")
                    .with_definition("-DGMX_GPU_SYCL")
                    .with_dependency("oneapi"),
            ],
            "OFF",
        )
    }

    fn mpi_option() -> BuildOption {
        let on = OptionEffects {
            definitions: vec!["-DGMX_MPI".into()],
            dependencies: vec!["mpich".into()],
            enables_tags: vec!["mpi".into()],
            ..Default::default()
        };
        BuildOption::boolean(
            "GMX_MPI",
            "Enable MPI",
            OptionCategory::Parallelism,
            false,
            on,
        )
    }

    #[test]
    fn boolean_option_defaults_and_effects() {
        let opt = mpi_option();
        assert_eq!(opt.default_value(), "OFF");
        assert_eq!(opt.value_names(), vec!["ON", "OFF"]);
        assert!(opt.accepts("on"));
        assert!(opt.effects_of("OFF").definitions.is_empty());
        assert_eq!(opt.effects_of("ON").definitions, vec!["-DGMX_MPI"]);
        assert_eq!(opt.configure_flag("ON").concat(), "-DGMX_MPI=ON");
    }

    #[test]
    fn choice_option_effects_and_validation() {
        let opt = gpu_option();
        assert_eq!(opt.default_value(), "OFF");
        assert!(opt.accepts("CUDA"));
        assert!(!opt.accepts("METAL"));
        let cuda = opt.effects_of("CUDA");
        assert_eq!(cuda.dependencies, vec!["cuda"]);
        assert_eq!(cuda.link_libraries, vec!["cufft"]);
        assert!(opt.effects_of("HIP").definitions.is_empty());
    }

    #[test]
    fn assignment_label_is_sorted_and_stable() {
        let a = OptionAssignment::new()
            .with("GMX_SIMD", "AVX_512")
            .with("GMX_GPU", "CUDA");
        let b = OptionAssignment::new()
            .with("GMX_GPU", "CUDA")
            .with("GMX_SIMD", "AVX_512");
        assert_eq!(a.label(), b.label());
        assert_eq!(a.label(), "GMX_GPU=CUDA,GMX_SIMD=AVX_512");
        assert_eq!(OptionAssignment::new().label(), "default");
    }

    #[test]
    fn all_combinations_enumerates_cartesian_product() {
        let gpu = gpu_option();
        let mpi = mpi_option();
        let combos = all_combinations(&[&gpu, &mpi]);
        assert_eq!(combos.len(), 3 * 2);
        assert!(combos
            .iter()
            .any(|c| c.get("GMX_GPU") == Some("CUDA") && c.get("GMX_MPI") == Some("ON")));
        // LULESH example from the paper: two boolean options → four configurations.
        let omp = BuildOption::boolean(
            "WITH_OPENMP",
            "OpenMP",
            OptionCategory::Parallelism,
            true,
            OptionEffects::default(),
        );
        let mpi2 = mpi_option();
        assert_eq!(all_combinations(&[&omp, &mpi2]).len(), 4);
    }

    /// An assignment is the option part of a configuration manifest: it is written
    /// as one JSON object of option names to values and reads back equal.
    #[test]
    fn option_serde_roundtrip() {
        let assignment = OptionAssignment::new()
            .with("GPU", "CUDA")
            .with("MPI", "OFF");
        let json = serde_json::to_string(&assignment).unwrap();
        assert_eq!(json, r#"{"values":{"GPU":"CUDA","MPI":"OFF"}}"#);
        let back: OptionAssignment = serde_json::from_str(&json).unwrap();
        assert_eq!(back, assignment);
    }
}
