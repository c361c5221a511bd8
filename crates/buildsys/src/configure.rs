//! The configuration step: resolve option values into an actionable build plan.
//!
//! This models what `cmake -D…` does for the synthetic projects: decide which sources
//! are built, which definitions and flags every target receives, which dependencies must
//! be present, and emit the compile-command database the XaaS pipeline analyses. A
//! configured build is a view of its project: it borrows the sources and the selected
//! option values' strings instead of copying them.

use crate::compiledb::{CompileCommand, CompileDatabase};
use crate::options::{OptionAssignment, OptionEffects};
use crate::project::{ProjectSpec, SourceSpec};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Errors from configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant payload fields are documented by the Display impl
pub enum ConfigureError {
    /// The assignment referenced unknown options or illegal values.
    InvalidAssignment(String),
    /// A required dependency is missing from the provided dependency set.
    MissingDependency { option: String, dependency: String },
    /// A target names a file that is neither a declared source nor a custom
    /// target's product.
    UnknownSource { target: String, file: String },
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
            ConfigureError::UnknownSource { target, file } => write!(
                f,
                "target {target} names {file}, which is neither a source nor a custom target's product"
            ),
        }
    }
}

impl std::error::Error for ConfigureError {}

/// A configured build: everything needed to compile, link, and install, borrowed
/// from the project `'p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfiguredBuild<'p> {
    /// The option assignment (completed with defaults).
    pub assignment: OptionAssignment,
    /// The `cmake`-style configure command line that reproduces this configuration.
    pub configure_command: String,
    /// Sources that will be compiled: the declared sources, then the custom targets'
    /// products, each only when every tag it requires is enabled.
    pub enabled_sources: Vec<&'p SourceSpec>,
    /// Global preprocessor definitions.
    pub definitions: Vec<&'p str>,
    /// Global compile flags (includes ISA flags chosen by vectorization options).
    pub compile_flags: Vec<&'p str>,
    /// External dependencies required by the chosen options, sorted and distinct.
    pub dependencies: Vec<&'p str>,
    /// Libraries linked into executables, sorted and distinct.
    pub link_libraries: Vec<&'p str>,
    /// The compile-command database.
    pub compile_db: CompileDatabase<'p>,
}

impl ConfiguredBuild<'_> {
    /// Number of translation units this configuration compiles.
    pub fn translation_units(&self) -> usize {
        self.compile_db.translation_units()
    }
}

/// One list of every selected value's effects, in option order.
fn gather<'p>(
    selected: &[&'p OptionEffects],
    list: impl Fn(&'p OptionEffects) -> &'p [String],
) -> Vec<&'p str> {
    let lists = selected.iter().map(|&effects| list(effects));
    lists.flatten().map(String::as_str).collect()
}

/// [`gather`], sorted and without repeats.
fn gather_distinct<'p>(
    selected: &[&'p OptionEffects],
    list: impl Fn(&'p OptionEffects) -> &'p [String],
) -> Vec<&'p str> {
    let mut gathered = gather(selected, list);
    gathered.sort_unstable();
    gathered.dedup();
    gathered
}

/// `{build_dir}/{target}/{path}.o`, with every `/` of `path` an `_`, built in one
/// allocation.
fn object_path(build_dir: &str, target: &str, path: &str) -> String {
    let mut output = String::with_capacity(build_dir.len() + target.len() + path.len() + 4);
    for part in [build_dir, "/", target, "/"] {
        output.push_str(part);
    }
    output.extend(path.chars().map(|c| if c == '/' { '_' } else { c }));
    output.push_str(".o");
    output
}

/// Configure a project: validate the assignment, apply option effects, expand custom
/// targets, and emit compile commands.
///
/// `available_dependencies` lists dependencies present in the build environment; pass
/// `None` to skip the check (the XaaS configuration sweep runs in a container that
/// provides all dependency layers, Section 4.3).
pub fn configure<'p>(
    project: &'p ProjectSpec,
    assignment: &OptionAssignment,
    build_dir: &'p str,
    available_dependencies: Option<&BTreeSet<String>>,
) -> Result<ConfiguredBuild<'p>, ConfigureError> {
    project
        .validate_assignment(assignment)
        .map_err(ConfigureError::InvalidAssignment)?;

    let complete = project.complete(assignment);

    // The effects of every selected option value.
    let mut selected: Vec<&'p OptionEffects> = Vec::with_capacity(project.options.len());
    for option in &project.options {
        let value = complete
            .get(&option.name)
            .expect("completed assignment covers all options");
        let effects = option.effects_of(value);
        if let Some(available) = available_dependencies {
            let missing = effects
                .dependencies
                .iter()
                .find(|d| !available.contains(*d));
            if let Some(dependency) = missing {
                return Err(ConfigureError::MissingDependency {
                    option: option.name.clone(),
                    dependency: dependency.clone(),
                });
            }
        }
        selected.push(effects);
    }
    let enabled_tags: BTreeSet<&str> = (selected.iter())
        .flat_map(|effects| &effects.enables_tags)
        .map(String::as_str)
        .collect();

    // Custom targets generate sources before analysis (Section 5.1): a product is
    // enabled by the same rule as a conditional source.
    let products = project.custom_targets.iter().map(|custom| &custom.product);
    let enabled_sources: Vec<&'p SourceSpec> = (project.sources.iter().chain(products))
        .filter(|source| {
            (source.required_tags.iter()).all(|tag| enabled_tags.contains(tag.as_str()))
        })
        .collect();
    let definitions = gather(&selected, |e| &e.definitions);
    let compile_flags = gather(&selected, |e| &e.compile_flags);

    // Emit compile commands: global flags + option flags + per-target + per-file flags,
    // plus a build-directory include path (the flag the paper identifies as the main
    // source of spurious differences between configurations). Commands differ only in
    // their target's and source's extra flags, so each distinct list is built once
    // and shared; all but the build-directory include path are borrowed.
    let common = project.global_flags.len() + 2 + definitions.len() + compile_flags.len();
    let borrowed = |flags: &'p [String]| flags.iter().map(|flag| Cow::Borrowed(flag.as_str()));
    let mut lists: Vec<Arc<[Cow<'p, str>]>> = Vec::new();
    let planned = project.targets.iter().map(|target| target.sources.len());
    let mut commands = Vec::with_capacity(planned.sum());
    for target in &project.targets {
        for path in &target.sources {
            let Some(&source) = enabled_sources.iter().find(|s| s.path == *path) else {
                if project.source(path).is_none() {
                    return Err(ConfigureError::UnknownSource {
                        target: target.name.clone(),
                        file: path.clone(),
                    });
                }
                continue; // excluded by configuration
            };
            let extras = || target.extra_flags.iter().chain(&source.extra_flags);
            let shared = lists.iter().find(|list| {
                let tail = list[common..].iter().map(|flag| flag.as_ref());
                tail.eq(extras().map(String::as_str))
            });
            let arguments = match shared {
                Some(list) => Arc::clone(list),
                None => {
                    let include = [
                        Cow::Owned(format!("-I{build_dir}/include")),
                        Cow::Borrowed("-Isrc/include"),
                    ];
                    let options = definitions.iter().chain(&compile_flags);
                    let list: Arc<[Cow<'p, str>]> = borrowed(&project.global_flags)
                        .chain(include)
                        .chain(options.map(|&flag| Cow::Borrowed(flag)))
                        .chain(borrowed(&target.extra_flags))
                        .chain(borrowed(&source.extra_flags))
                        .collect();
                    lists.push(Arc::clone(&list));
                    list
                }
            };
            commands.push(CompileCommand {
                directory: build_dir,
                target: &target.name,
                source,
                output: object_path(build_dir, &target.name, &source.path),
                arguments,
            });
        }
    }

    let mut configure_command = format!("xmake -S . -B {build_dir}");
    for option in &project.options {
        let value = complete.get(&option.name).unwrap();
        configure_command.push(' ');
        configure_command.extend(option.configure_flag(value));
    }

    Ok(ConfiguredBuild {
        compile_db: CompileDatabase {
            configuration: complete.label(),
            commands,
        },
        assignment: complete,
        configure_command,
        enabled_sources,
        definitions,
        compile_flags,
        dependencies: gather_distinct(&selected, |e| &e.dependencies),
        link_libraries: gather_distinct(&selected, |e| &e.link_libraries),
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
                product: SourceSpec::new(
                    "generated/own_fft.ck",
                    "kernel void fft(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = x[i] * 0.5; } }",
                )
                .with_tag("own_fft"),
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
        let enabled: Vec<&str> = build
            .enabled_sources
            .iter()
            .map(|s| s.path.as_str())
            .collect();
        assert_eq!(enabled, ["src/main.ck"]);
        assert!(build.configure_command.contains("-DUSE_MPI=OFF"));
        assert_eq!(build.definitions, ["-DHAVE_FFTW"]);
    }

    #[test]
    fn enabling_mpi_adds_source_definition_and_dependency() {
        let project = project();
        let assignment = OptionAssignment::new().with("USE_MPI", "ON");
        let build = configure(&project, &assignment, "/build/mpi", None).unwrap();
        assert_eq!(build.translation_units(), 2);
        assert!(build.definitions.contains(&"-DUSE_MPI"));
        assert_eq!(build.dependencies, ["fftw", "mpich"]);
        let cmd = &build.compile_db.commands[0];
        assert!(cmd.arguments.contains(&"-DUSE_MPI".into()));
        assert!(cmd.arguments.contains(&"-I/build/mpi/include".into()));
    }

    #[test]
    fn vectorization_choice_adds_isa_flag_globally() {
        let project = project();
        let assignment = OptionAssignment::new().with("SIMD", "AVX_512");
        let build = configure(&project, &assignment, "/b", None).unwrap();
        for cmd in &build.compile_db.commands {
            assert!(cmd.arguments.contains(&"-mavx512f".into()));
        }
    }

    #[test]
    fn commands_share_one_argument_list_per_distinct_extra_flags() {
        let mut project = project();
        project.targets.push(TargetSpec::new(
            "tool",
            TargetKind::Executable,
            vec!["src/main.ck".into()],
        ));
        let assignment = OptionAssignment::new().with("USE_MPI", "ON");
        let plain = configure(&project, &assignment, "/b", None).unwrap();
        let commands = &plain.compile_db.commands;
        assert_eq!(commands.len(), 3);
        let first = &commands[0].arguments;
        assert!(commands.iter().all(|c| Arc::ptr_eq(&c.arguments, first)));
        let mut files = Vec::new();
        let list_of = plain.compile_db.classify_lists(|c| files.push(c.file()));
        assert_eq!((files, list_of), (vec!["src/main.ck"], vec![0, 0, 0]));

        // A target's and a source's extra flags each start a list of their own.
        let mut extra = project.clone();
        extra.targets[1].extra_flags.push("-DTOOL".into());
        extra.sources[1].extra_flags.push("-DHALO".into());
        let build = configure(&extra, &assignment, "/b", None).unwrap();
        let commands = &build.compile_db.commands;
        let extras: Vec<Vec<&str>> = (commands.iter())
            .map(|c| {
                c.arguments[first.len()..]
                    .iter()
                    .map(|a| a.as_ref())
                    .collect()
            })
            .collect();
        assert_eq!(extras, [vec![], vec!["-DHALO"], vec!["-DTOOL"]]);
        assert!(commands
            .iter()
            .all(|c| c.arguments[..first.len()] == first[..]));
        for (i, a) in commands.iter().enumerate() {
            assert!(commands[i + 1..]
                .iter()
                .all(|b| !Arc::ptr_eq(&a.arguments, &b.arguments)));
        }
        let mut targets = Vec::new();
        let list_of = build.compile_db.classify_lists(|c| targets.push(c.target));
        assert_eq!(
            (targets, list_of),
            (vec!["demo", "demo", "tool"], vec![0, 1, 2])
        );
    }

    #[test]
    fn builtin_fft_triggers_custom_target_generation() {
        let project = project();
        let assignment = OptionAssignment::new().with("FFT_LIBRARY", "builtin");
        let build = configure(&project, &assignment, "/b", None).unwrap();
        let product = &project.custom_targets[0].product;
        assert!(build
            .enabled_sources
            .iter()
            .any(|&s| std::ptr::eq(s, product)));
        assert_eq!(build.compile_db.commands[1].file(), "generated/own_fft.ck");
        assert_eq!(build.translation_units(), 2);
        // With fftw3 selected the generated file does not exist and is skipped.
        let default = configure(&project, &OptionAssignment::new(), "/b", None).unwrap();
        assert!(!default
            .enabled_sources
            .iter()
            .any(|s| s.path == "generated/own_fft.ck"));
    }

    #[test]
    fn a_target_naming_an_unknown_file_is_refused() {
        let mut project = project();
        project.targets[0].sources.push("src/typo.ck".into());
        let error = configure(&project, &OptionAssignment::new(), "/b", None).unwrap_err();
        assert_eq!(
            error,
            ConfigureError::UnknownSource {
                target: "demo".into(),
                file: "src/typo.ck".into(),
            }
        );
        assert!(error.to_string().contains("src/typo.ck"), "{error}");
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
