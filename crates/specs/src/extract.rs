//! Rule-based specialization extraction.
//!
//! Two extraction paths exist:
//!
//! * [`from_project`] reads the authoritative [`ProjectSpec`] options — this is the
//!   *ground truth* used to score LLM outputs (the paper's manually curated reference);
//! * [`from_script`] parses the build-script text with heuristics — the deterministic
//!   baseline a careful human (or a simple tool) could produce without an LLM.

use crate::model::{SpecCategory, SpecEntry, SpecializationDocument};
use xaas_buildsys::{
    BuildOption, BuildScript, OptionCategory, OptionKind, ProjectSpec, ScriptItem,
};

/// Map a build-option category to a spec category.
fn map_category(category: OptionCategory) -> SpecCategory {
    match category {
        OptionCategory::GpuBackend => SpecCategory::GpuBackend,
        OptionCategory::Parallelism => SpecCategory::Parallelism,
        OptionCategory::Vectorization => SpecCategory::Vectorization,
        OptionCategory::LinearAlgebra => SpecCategory::LinearAlgebra,
        OptionCategory::Fft => SpecCategory::Fft,
        OptionCategory::Network => SpecCategory::OtherLibrary,
        OptionCategory::Other => SpecCategory::Optimization,
    }
}

/// Guess the category of an option from its name (the heuristic used on raw scripts).
pub(crate) fn guess_category(name: &str) -> SpecCategory {
    let upper = name.to_ascii_uppercase();
    if upper.contains("SIMD") || upper.contains("VECTOR") || upper.contains("AVX") {
        SpecCategory::Vectorization
    } else if upper.contains("GPU")
        || upper.contains("CUDA")
        || upper.contains("HIP")
        || upper.contains("SYCL")
    {
        SpecCategory::GpuBackend
    } else if upper.contains("MPI")
        || upper.contains("OPENMP")
        || upper.contains("THREAD")
        || upper.contains("PTHREAD")
    {
        SpecCategory::Parallelism
    } else if upper.contains("FFT") {
        SpecCategory::Fft
    } else if upper.contains("BLAS")
        || upper.contains("LAPACK")
        || upper.contains("MKL")
        || upper.starts_with("BLA")
    {
        SpecCategory::LinearAlgebra
    } else if upper.contains("QUANT") || upper.contains("TUNE") || upper.contains("OPT") {
        SpecCategory::Optimization
    } else {
        SpecCategory::OtherLibrary
    }
}

/// Produce the ground-truth document from a project's option definitions.
pub fn from_project(project: &ProjectSpec) -> SpecializationDocument {
    let mut doc = SpecializationDocument::new(project.name.clone());
    doc.build_system = "cmake".into();
    for option in &project.options {
        append_option(&mut doc, option);
    }
    doc.gpu_build = doc
        .entries_of(SpecCategory::GpuBackend)
        .iter()
        .any(|e| !e.name.eq_ignore_ascii_case("OFF"));
    if doc.gpu_build {
        doc.gpu_build_flag = project
            .options
            .iter()
            .find(|o| o.category == OptionCategory::GpuBackend)
            .map(|o| format!("-D{}", o.name));
    }
    doc
}

fn append_option(doc: &mut SpecializationDocument, option: &BuildOption) {
    let category = map_category(option.category);
    match &option.kind {
        OptionKind::Bool { default, .. } => {
            let mut entry = SpecEntry::new(category, short_name(&option.name))
                .with_flag(format!("-D{}=ON", option.name));
            entry.default = *default;
            doc.push(entry);
        }
        OptionKind::Choice { values, default } => {
            for value in values {
                if value.name.eq_ignore_ascii_case("OFF") || value.name.eq_ignore_ascii_case("AUTO")
                {
                    continue;
                }
                let mut entry = SpecEntry::new(category, value.name.clone())
                    .with_flag(format!("-D{}={}", option.name, value.name));
                entry.default = value.name.eq_ignore_ascii_case(default);
                doc.push(entry);
            }
        }
    }
}

/// Derive a human-readable short name from an option name: `GMX_MPI` → `MPI`.
fn short_name(option_name: &str) -> String {
    option_name
        .rsplit('_')
        .next()
        .filter(|s| !s.is_empty())
        .unwrap_or(option_name)
        .to_string()
}

/// Extract specialization points from a parsed build script (heuristic path).
pub fn from_script(application: &str, script: &BuildScript) -> SpecializationDocument {
    let mut doc = SpecializationDocument::new(application);
    doc.build_system = "cmake".into();
    for item in &script.items {
        match item {
            ScriptItem::BoolOption { name, default, .. } => {
                let category = guess_category(name);
                let mut entry =
                    SpecEntry::new(category, short_name(name)).with_flag(format!("-D{name}=ON"));
                entry.default = *default;
                doc.push(entry);
            }
            ScriptItem::ChoiceOption {
                name,
                default,
                values,
                ..
            } => {
                let category = guess_category(name);
                for value in values {
                    if value.eq_ignore_ascii_case("OFF") || value.eq_ignore_ascii_case("AUTO") {
                        continue;
                    }
                    let mut entry = SpecEntry::new(category, value.clone())
                        .with_flag(format!("-D{name}={value}"));
                    entry.default = value.eq_ignore_ascii_case(default);
                    doc.push(entry);
                }
                if category == SpecCategory::GpuBackend {
                    doc.gpu_build = true;
                    doc.gpu_build_flag = Some(format!("-D{name}"));
                }
            }
            ScriptItem::FindPackage {
                name, min_version, ..
            } => {
                let category = guess_category(name);
                if matches!(
                    category,
                    SpecCategory::Fft | SpecCategory::LinearAlgebra | SpecCategory::OtherLibrary
                ) {
                    let mut entry = SpecEntry::new(category, name.clone());
                    entry.minimum_version = min_version.clone();
                    // Avoid duplicating entries already contributed by a multichoice option.
                    if doc.find(category, name).is_none() {
                        doc.push(entry);
                    }
                }
            }
            ScriptItem::InternalBuild { name, flag } => {
                doc.push(
                    SpecEntry::new(SpecCategory::InternalBuild, name.clone())
                        .with_flag(flag.clone()),
                );
            }
            _ => {}
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use xaas_buildsys::{parse_script, OptionValue};

    #[test]
    fn category_guessing() {
        assert_eq!(guess_category("GMX_SIMD"), SpecCategory::Vectorization);
        assert_eq!(guess_category("GMX_GPU"), SpecCategory::GpuBackend);
        assert_eq!(guess_category("USE_MPI"), SpecCategory::Parallelism);
        assert_eq!(guess_category("GMX_FFT_LIBRARY"), SpecCategory::Fft);
        assert_eq!(guess_category("BLA_VENDOR"), SpecCategory::LinearAlgebra);
        assert_eq!(
            guess_category("LLAMA_QUANT_BITS"),
            SpecCategory::Optimization
        );
        assert_eq!(guess_category("ATLAS"), SpecCategory::OtherLibrary);
    }

    #[test]
    fn from_project_reflects_options() {
        let project = ProjectSpec {
            name: "demo".into(),
            version: "1".into(),
            build_script: String::new(),
            options: vec![
                BuildOption::boolean(
                    "USE_MPI",
                    "MPI",
                    OptionCategory::Parallelism,
                    false,
                    Default::default(),
                ),
                BuildOption::choice(
                    "GMX_GPU",
                    "GPU",
                    OptionCategory::GpuBackend,
                    vec![
                        OptionValue::plain("OFF"),
                        OptionValue::plain("CUDA"),
                        OptionValue::plain("SYCL"),
                    ],
                    "OFF",
                ),
            ],
            sources: vec![],
            headers: Default::default(),
            targets: vec![],
            custom_targets: vec![],
            global_flags: vec![],
            mpi_abi: None,
        };
        let doc = from_project(&project);
        assert!(doc.gpu_build);
        assert_eq!(doc.entries_of(SpecCategory::GpuBackend).len(), 2);
        assert!(doc.find(SpecCategory::Parallelism, "MPI").is_some());
        assert_eq!(
            doc.find(SpecCategory::GpuBackend, "CUDA")
                .unwrap()
                .build_flag
                .as_deref(),
            Some("-DGMX_GPU=CUDA")
        );
    }

    #[test]
    fn from_script_extracts_options_and_packages() {
        let script = parse_script(
            r#"
project(demo)
option(USE_MPI "MPI" OFF)
option_multichoice(GMX_SIMD "SIMD" AUTO None SSE2 AVX_512)
option_multichoice(GMX_GPU "GPU" OFF CUDA SYCL)
find_package(FFTW3 3.3 REQUIRED)
internal_build(fftpack -DGMX_BUILD_OWN_FFTW)
"#,
        )
        .unwrap();
        let doc = from_script("demo", &script);
        assert!(doc.find(SpecCategory::Parallelism, "MPI").is_some());
        // AUTO is filtered out; None, SSE2 and AVX_512 remain.
        assert_eq!(doc.entries_of(SpecCategory::Vectorization).len(), 3);
        assert_eq!(doc.entries_of(SpecCategory::GpuBackend).len(), 2);
        assert!(doc.gpu_build);
        let fftw = doc.find(SpecCategory::Fft, "FFTW3").unwrap();
        assert_eq!(fftw.minimum_version.as_deref(), Some("3.3"));
        assert!(doc.find(SpecCategory::InternalBuild, "fftpack").is_some());
    }

    #[test]
    fn short_names_strip_prefixes() {
        assert_eq!(short_name("GMX_MPI"), "MPI");
        assert_eq!(short_name("USE_OPENMP"), "OPENMP");
        assert_eq!(short_name("MPI"), "MPI");
    }
}
