//! The configuration step: resolve option values into an actionable build plan.
//!
//! This models what `cmake -D…` does for the synthetic projects: decide which sources
//! are built, which definitions and flags every target receives, which dependencies must
//! be present, and emit the compile-command database the XaaS pipeline analyses.

use crate::compiledb::{CompileCommand, CompileDatabase};
use crate::options::{OptionAssignment, OptionEffects};
use crate::project::{ProjectSpec, SourceSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Errors from configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant payload fields are documented by the Display impl
pub enum ConfigureError {
    /// The assignment referenced unknown options or illegal values.
    InvalidAssignment(String),
    /// A required dependency is missing from the provided dependency set.
    MissingDependency { option: String, dependency: String },
}

impl fmt::Display for ConfigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigureError::InvalidAssignment(msg) => write!(f, "invalid configuration: {msg}"),
            ConfigureError::MissingDependency { option, dependency } => {
                write!(
                    f,
                    "option {option} requires dependency `{dependency}` which is not available"
                )
            }
        }
    }
}

impl std::error::Error for ConfigureError {}

/// A configured build: everything needed to compile, link, and install.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfiguredBuild {
    /// The project name.
    pub project: String,
    /// The option assignment (completed with defaults).
    pub assignment: OptionAssignment,
    /// Build directory used for this configuration.
    pub build_dir: String,
    /// The `cmake`-style configure command line that reproduces this configuration.
    pub configure_command: String,
    /// Sources that will be compiled (conditional files filtered by enabled tags).
    pub enabled_sources: Vec<SourceSpec>,
    /// Sources excluded by the configuration (with the tag that excluded them).
    pub excluded_sources: Vec<(String, String)>,
    /// Global preprocessor definitions.
    pub definitions: Vec<String>,
    /// Global compile flags (includes ISA flags chosen by vectorization options).
    pub compile_flags: Vec<String>,
    /// External dependencies required by the chosen options.
    pub dependencies: Vec<String>,
    /// Libraries linked into executables.
    pub link_libraries: Vec<String>,
    /// The compile-command database.
    pub compile_db: CompileDatabase,
}

impl ConfiguredBuild {
    /// Number of translation units this configuration compiles.
    pub fn translation_units(&self) -> usize {
        self.compile_db.translation_units()
    }
}

/// Configure a project: validate the assignment, apply option effects, expand custom
/// targets, and emit compile commands.
///
/// `available_dependencies` lists dependencies present in the build environment; pass
/// `None` to skip the check (the XaaS configuration sweep runs in a container that
/// provides all dependency layers, Section 4.3).
pub fn configure(
    project: &ProjectSpec,
    assignment: &OptionAssignment,
    build_dir: &str,
    available_dependencies: Option<&BTreeSet<String>>,
) -> Result<ConfiguredBuild, ConfigureError> {
    project
        .validate_assignment(assignment)
        .map_err(ConfigureError::InvalidAssignment)?;

    let complete = project.complete(assignment);

    // Accumulate effects of every selected option value.
    let mut effects = OptionEffects::default();
    for option in &project.options {
        let value = complete
            .get(&option.name)
            .expect("completed assignment covers all options");
        let value_effects = option.effects_of(value);
        if let Some(available) = available_dependencies {
            for dependency in &value_effects.dependencies {
                if !available.contains(dependency) {
                    return Err(ConfigureError::MissingDependency {
                        option: option.name.clone(),
                        dependency: dependency.clone(),
                    });
                }
            }
        }
        effects.definitions.extend(value_effects.definitions);
        effects.compile_flags.extend(value_effects.compile_flags);
        effects.dependencies.extend(value_effects.dependencies);
        effects.enables_tags.extend(value_effects.enables_tags);
        effects.link_libraries.extend(value_effects.link_libraries);
    }
    let enabled_tags: BTreeSet<String> = effects.enables_tags.iter().cloned().collect();

    // Custom targets generate sources before analysis (Section 5.1).
    let mut generated: Vec<SourceSpec> = Vec::new();
    for custom in &project.custom_targets {
        let triggered = custom.required_tags.is_empty()
            || custom
                .required_tags
                .iter()
                .all(|t| enabled_tags.contains(t));
        if triggered {
            generated.push(SourceSpec::new(
                custom.generates.clone(),
                custom.content.clone(),
            ));
        }
    }

    // Filter conditional sources.
    let mut enabled_sources = Vec::new();
    let mut excluded_sources = Vec::new();
    for source in project.sources.iter().chain(generated.iter()) {
        let missing_tag = source
            .required_tags
            .iter()
            .find(|tag| !enabled_tags.contains(*tag));
        match missing_tag {
            None => enabled_sources.push(source.clone()),
            Some(tag) => excluded_sources.push((source.path.clone(), tag.clone())),
        }
    }

    // Emit compile commands: global flags + option flags + per-target + per-file flags,
    // plus a build-directory include path (the flag the paper identifies as the main
    // source of spurious differences between configurations).
    let mut commands = Vec::new();
    for target in &project.targets {
        for source_path in &target.sources {
            let Some(source) = enabled_sources.iter().find(|s| &s.path == source_path) else {
                continue; // excluded by configuration
            };
            let mut arguments: Vec<String> = Vec::new();
            arguments.extend(project.global_flags.iter().cloned());
            arguments.push(format!("-I{build_dir}/include"));
            arguments.push("-Isrc/include".to_string());
            arguments.extend(effects.definitions.iter().cloned());
            arguments.extend(effects.compile_flags.iter().cloned());
            arguments.extend(target.extra_flags.iter().cloned());
            arguments.extend(source.extra_flags.iter().cloned());
            commands.push(CompileCommand {
                directory: build_dir.to_string(),
                target: target.name.clone(),
                file: source.path.clone(),
                output: format!(
                    "{build_dir}/{}/{}.o",
                    target.name,
                    source.path.replace('/', "_")
                ),
                arguments,
            });
        }
    }

    let configure_command = {
        let mut parts = vec![format!("xmake -S . -B {build_dir}")];
        for option in &project.options {
            let value = complete.get(&option.name).unwrap();
            parts.push(option.configure_flag(value));
        }
        parts.join(" ")
    };

    let mut dependencies = effects.dependencies;
    dependencies.sort();
    dependencies.dedup();
    let mut link_libraries = effects.link_libraries;
    link_libraries.sort();
    link_libraries.dedup();

    Ok(ConfiguredBuild {
        project: project.name.clone(),
        assignment: complete.clone(),
        build_dir: build_dir.to_string(),
        configure_command,
        enabled_sources,
        excluded_sources,
        definitions: effects.definitions,
        compile_flags: effects.compile_flags,
        dependencies,
        link_libraries,
        compile_db: CompileDatabase {
            configuration: complete.label(),
            commands,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{BuildOption, OptionCategory, OptionValue};
    use crate::project::{CustomTarget, TargetKind, TargetSpec};
    use std::collections::BTreeMap;

    fn project() -> ProjectSpec {
        let mpi_on = OptionEffects {
            definitions: vec!["-DUSE_MPI".into()],
            enables_tags: vec!["mpi".into()],
            dependencies: vec!["mpich".into()],
            ..Default::default()
        };
        let fft = BuildOption::choice(
            "FFT_LIBRARY",
            "FFT implementation",
            OptionCategory::Fft,
            vec![
                OptionValue::plain("fftw3")
                    .with_dependency("fftw")
                    .with_definition("-DHAVE_FFTW"),
                OptionValue::plain("mkl")
                    .with_dependency("mkl")
                    .with_definition("-DHAVE_MKL"),
                OptionValue::plain("builtin").with_tag("own_fft"),
            ],
            "fftw3",
        );
        ProjectSpec {
            name: "demo".into(),
            version: "1.0".into(),
            build_script: String::new(),
            options: vec![
                BuildOption::boolean("USE_MPI", "MPI", OptionCategory::Parallelism, false, mpi_on),
                BuildOption::choice(
                    "SIMD",
                    "Vectorization",
                    OptionCategory::Vectorization,
                    vec![
                        OptionValue::plain("None"),
                        OptionValue::plain("AVX_512").with_flag("-mavx512f"),
                    ],
                    "None",
                ),
                fft,
            ],
            sources: vec![
                SourceSpec::new("src/main.ck", "kernel void main_loop(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = 1.0; } }"),
                SourceSpec::new("src/mpi_comm.ck", "kernel void halo(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = 0.0; } }").with_tag("mpi"),
            ],
            headers: BTreeMap::new(),
            targets: vec![TargetSpec::new(
                "demo",
                TargetKind::Executable,
                vec!["src/main.ck".into(), "src/mpi_comm.ck".into(), "generated/own_fft.ck".into()],
            )],
            custom_targets: vec![CustomTarget {
                name: "build_own_fft".into(),
                generates: "generated/own_fft.ck".into(),
                content: "kernel void fft(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = x[i] * 0.5; } }".into(),
                required_tags: vec!["own_fft".into()],
            }],
            global_flags: vec!["-O3".into()],
            mpi_abi: Some("mpich".into()),
        }
    }

    #[test]
    fn default_configuration_excludes_conditional_sources() {
        let project = project();
        let build = configure(&project, &OptionAssignment::new(), "/build/default", None).unwrap();
        assert_eq!(build.translation_units(), 1);
        assert_eq!(build.excluded_sources.len(), 1);
        assert_eq!(build.excluded_sources[0].1, "mpi");
        assert!(build.configure_command.contains("-DUSE_MPI=OFF"));
        assert!(build.definitions.contains(&"-DHAVE_FFTW".to_string()));
    }

    #[test]
    fn enabling_mpi_adds_source_definition_and_dependency() {
        let project = project();
        let assignment = OptionAssignment::new().with("USE_MPI", "ON");
        let build = configure(&project, &assignment, "/build/mpi", None).unwrap();
        assert_eq!(build.translation_units(), 2);
        assert!(build.definitions.contains(&"-DUSE_MPI".to_string()));
        assert!(build.dependencies.contains(&"mpich".to_string()));
        let cmd = &build.compile_db.commands[0];
        assert!(cmd.arguments.contains(&"-DUSE_MPI".to_string()));
        assert!(cmd.arguments.contains(&"-I/build/mpi/include".to_string()));
    }

    #[test]
    fn vectorization_choice_adds_isa_flag_globally() {
        let project = project();
        let assignment = OptionAssignment::new().with("SIMD", "AVX_512");
        let build = configure(&project, &assignment, "/b", None).unwrap();
        for cmd in &build.compile_db.commands {
            assert!(cmd.arguments.contains(&"-mavx512f".to_string()));
        }
    }

    #[test]
    fn builtin_fft_triggers_custom_target_generation() {
        let project = project();
        let assignment = OptionAssignment::new().with("FFT_LIBRARY", "builtin");
        let build = configure(&project, &assignment, "/b", None).unwrap();
        assert!(build
            .enabled_sources
            .iter()
            .any(|s| s.path == "generated/own_fft.ck"));
        assert_eq!(build.translation_units(), 2);
        // With fftw3 selected the generated file does not exist and is skipped.
        let default = configure(&project, &OptionAssignment::new(), "/b", None).unwrap();
        assert!(!default
            .enabled_sources
            .iter()
            .any(|s| s.path == "generated/own_fft.ck"));
    }

    #[test]
    fn dependency_availability_is_checked_when_provided() {
        let project = project();
        let mut available: BTreeSet<String> = BTreeSet::new();
        available.insert("fftw".into());
        // Default config needs only fftw: fine.
        assert!(configure(&project, &OptionAssignment::new(), "/b", Some(&available)).is_ok());
        // MKL is not available.
        let assignment = OptionAssignment::new().with("FFT_LIBRARY", "mkl");
        let err = configure(&project, &assignment, "/b", Some(&available)).unwrap_err();
        assert!(matches!(err, ConfigureError::MissingDependency { .. }));
    }

    #[test]
    fn invalid_assignments_are_rejected() {
        let project = project();
        let bad = OptionAssignment::new().with("SIMD", "AVX9000");
        assert!(matches!(
            configure(&project, &bad, "/b", None),
            Err(ConfigureError::InvalidAssignment(_))
        ));
    }

    #[test]
    fn build_dir_appears_in_include_flags_making_configs_differ() {
        // This is the effect the XaaS pipeline neutralises by mounting the build
        // directory at the same path in every configuration container.
        let project = project();
        let a = configure(&project, &OptionAssignment::new(), "/build/cfg-a", None).unwrap();
        let b = configure(&project, &OptionAssignment::new(), "/build/cfg-b", None).unwrap();
        let (a, b) = (&a.compile_db.commands, &b.compile_db.commands);
        assert_eq!(a.len(), 1);
        assert_ne!(a, b);
        assert_eq!(a[0].canonical_key(), b[0].canonical_key());
    }
}
