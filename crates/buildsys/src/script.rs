//! The mini build-script format ("XMakeLists") and its parser.
//!
//! Specialization discovery (Section 3.2) operates on build-system *text*: CMake files
//! with `option()`, `gmx_option_multichoice()`, `find_package()` calls and comments. The
//! synthetic projects carry an equivalent script so the discovery crate has something
//! realistic to parse — including the noise (comments, unrelated commands, dependent
//! defaults) that makes extraction non-trivial.
//!
//! Supported commands:
//!
//! ```text
//! project(NAME)
//! option(NAME "description" ON|OFF)
//! option_multichoice(NAME "description" DEFAULT value1 value2 …)
//! set(NAME VALUE)
//! find_package(NAME [REQUIRED] [VERSION x.y])
//! internal_build(NAME -DFLAG)
//! # comments
//! ```

use std::fmt;

/// A declaration extracted from a build script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptItem {
    /// `project(NAME)`
    Project {
        /// Project name.
        name: String,
    },
    /// A boolean option.
    BoolOption {
        /// Option name.
        name: String,
        /// Description string.
        description: String,
        /// Default state.
        default: bool,
    },
    /// A multi-choice option.
    ChoiceOption {
        /// Option name.
        name: String,
        /// Description string.
        description: String,
        /// Default value.
        default: String,
        /// All selectable values.
        values: Vec<String>,
    },
    /// `set(NAME VALUE)` — cache variables, often encode dependent defaults.
    Set {
        /// Variable name.
        name: String,
        /// Value.
        value: String,
    },
    /// `find_package(NAME …)`
    FindPackage {
        /// Package name.
        name: String,
        /// Whether the package is required.
        required: bool,
        /// Minimum version if specified.
        min_version: Option<String>,
    },
    /// `internal_build(NAME -DFLAG)` — the project can build this dependency itself.
    InternalBuild {
        /// Library name.
        name: String,
        /// Flag enabling the internal build.
        flag: String,
    },
    /// A comment line (kept because the paper notes comments often reveal flags).
    Comment(String),
}

/// A parsed build script.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildScript {
    /// Items in file order.
    pub items: Vec<ScriptItem>,
}

impl BuildScript {
    /// The project name, if declared.
    pub fn project_name(&self) -> Option<&str> {
        self.items.iter().find_map(|i| match i {
            ScriptItem::Project { name } => Some(name.as_str()),
            _ => None,
        })
    }

    /// All option declarations (bool and choice).
    pub fn options(&self) -> Vec<&ScriptItem> {
        self.items
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    ScriptItem::BoolOption { .. } | ScriptItem::ChoiceOption { .. }
                )
            })
            .collect()
    }
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "build script error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ScriptError {}

/// Parse a build script.
pub fn parse_script(text: &str) -> Result<BuildScript, ScriptError> {
    let mut script = BuildScript::default();
    for (index, raw_line) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            script
                .items
                .push(ScriptItem::Comment(comment.trim().to_string()));
            continue;
        }
        let Some((command, args_text)) = line.split_once('(') else {
            return Err(ScriptError {
                line: line_no,
                message: format!("expected `command(...)`, got `{line}`"),
            });
        };
        let Some(args_text) = args_text.strip_suffix(')') else {
            return Err(ScriptError {
                line: line_no,
                message: "missing closing parenthesis".into(),
            });
        };
        let args = split_args(args_text);
        let command = command.trim().to_ascii_lowercase();
        let item = match command.as_str() {
            "project" => ScriptItem::Project {
                name: arg(&args, 0, line_no, "project name")?,
            },
            "option" => {
                let name = arg(&args, 0, line_no, "option name")?;
                let description = args.get(1).cloned().unwrap_or_default();
                let default = args
                    .get(2)
                    .map(|v| v.eq_ignore_ascii_case("ON"))
                    .unwrap_or(false);
                ScriptItem::BoolOption {
                    name,
                    description,
                    default,
                }
            }
            "option_multichoice" | "gmx_option_multichoice" | "qe_option_multichoice" => {
                let name = arg(&args, 0, line_no, "option name")?;
                let description = args.get(1).cloned().unwrap_or_default();
                let default = arg(&args, 2, line_no, "default value")?;
                let values: Vec<String> = args.iter().skip(3).cloned().collect();
                if values.is_empty() {
                    return Err(ScriptError {
                        line: line_no,
                        message: format!("multichoice option {name} lists no values"),
                    });
                }
                ScriptItem::ChoiceOption {
                    name,
                    description,
                    default,
                    values,
                }
            }
            "set" => ScriptItem::Set {
                name: arg(&args, 0, line_no, "variable name")?,
                value: args.get(1).cloned().unwrap_or_default(),
            },
            "find_package" => {
                let name = arg(&args, 0, line_no, "package name")?;
                let required = args.iter().any(|a| a.eq_ignore_ascii_case("REQUIRED"));
                let min_version = args
                    .iter()
                    .position(|a| a.eq_ignore_ascii_case("VERSION"))
                    .and_then(|i| args.get(i + 1))
                    .cloned()
                    .or_else(|| {
                        args.get(1)
                            .filter(|a| a.chars().next().is_some_and(|c| c.is_ascii_digit()))
                            .cloned()
                    });
                ScriptItem::FindPackage {
                    name,
                    required,
                    min_version,
                }
            }
            "internal_build" => ScriptItem::InternalBuild {
                name: arg(&args, 0, line_no, "library name")?,
                flag: args.get(1).cloned().unwrap_or_default(),
            },
            other => {
                return Err(ScriptError {
                    line: line_no,
                    message: format!("unknown command `{other}`"),
                })
            }
        };
        script.items.push(item);
    }
    Ok(script)
}

fn arg(args: &[String], index: usize, line: usize, what: &str) -> Result<String, ScriptError> {
    args.get(index).cloned().ok_or_else(|| ScriptError {
        line,
        message: format!("missing {what}"),
    })
}

/// Split an argument list on whitespace, honouring double quotes.
fn split_args(text: &str) -> Vec<String> {
    let mut args = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for c in text.chars() {
        match c {
            '"' => in_quotes = !in_quotes,
            c if c.is_whitespace() && !in_quotes => {
                if !current.is_empty() {
                    args.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if !current.is_empty() {
        args.push(current);
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRIPT: &str = r#"
# Build configuration for the demo project
project(demo)
option(USE_MPI "Enable MPI parallelism" OFF)
option(USE_OPENMP "Enable OpenMP threading" ON)
# The SIMD level controls vectorized kernels; see the install guide.
option_multichoice(SIMD "SIMD instruction set" AUTO None SSE2 SSE4.1 AVX2_256 AVX_512)
option_multichoice(FFT_LIBRARY "FFT implementation" fftw3 fftw3 mkl fftpack)
set(FFT_LIBRARY_DEFAULT fftw3)
find_package(FFTW3 3.3 REQUIRED)
find_package(MKL)
internal_build(fftpack -DBUILD_OWN_FFT)
"#;

    #[test]
    fn parses_all_item_kinds() {
        let script = parse_script(SCRIPT).unwrap();
        assert_eq!(script.project_name(), Some("demo"));
        assert_eq!(script.options().len(), 4);
        let packages = script.items.iter();
        let packages = packages.filter(|i| matches!(i, ScriptItem::FindPackage { .. }));
        assert_eq!(packages.count(), 2);
        assert!(script
            .items
            .iter()
            .any(|i| matches!(i, ScriptItem::InternalBuild { .. })));
        assert!(script
            .items
            .iter()
            .any(|i| matches!(i, ScriptItem::Comment(_))));
    }

    #[test]
    fn bool_option_defaults() {
        let script = parse_script(SCRIPT).unwrap();
        let omp = script.items.iter().find_map(|i| match i {
            ScriptItem::BoolOption { name, default, .. } if name == "USE_OPENMP" => Some(*default),
            _ => None,
        });
        assert_eq!(omp, Some(true));
    }

    #[test]
    fn multichoice_values_and_default() {
        let script = parse_script(SCRIPT).unwrap();
        let simd = script.items.iter().find_map(|i| match i {
            ScriptItem::ChoiceOption {
                name,
                default,
                values,
                ..
            } if name == "SIMD" => Some((default.clone(), values.clone())),
            _ => None,
        });
        let (default, values) = simd.unwrap();
        assert_eq!(default, "AUTO");
        assert_eq!(values.len(), 5);
        assert!(values.contains(&"AVX_512".to_string()));
    }

    #[test]
    fn find_package_versions_and_required() {
        let script = parse_script(SCRIPT).unwrap();
        let fftw = script.items.iter().find_map(|i| match i {
            ScriptItem::FindPackage {
                name,
                required,
                min_version,
            } if name == "FFTW3" => Some((*required, min_version.clone())),
            _ => None,
        });
        assert_eq!(fftw, Some((true, Some("3.3".to_string()))));
    }

    #[test]
    fn quoted_descriptions_keep_spaces() {
        let script = parse_script("option(X \"a long description here\" ON)").unwrap();
        let ScriptItem::BoolOption { description, .. } = &script.items[0] else {
            panic!()
        };
        assert_eq!(description, "a long description here");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_script("project(x)\nbogus_command(1)").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_script("option(").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse_script("option_multichoice(A \"d\" def)").unwrap_err();
        assert!(err.message.contains("no values"));
    }
}
