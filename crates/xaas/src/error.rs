//! The one error every pipeline request returns.
//!
//! An IR deployment contains a source deployment (Figures 6 and 8), and both fail
//! the same ways an IR build does: a configure step, a compile, a corrupt cache
//! entry or a refused graph. So
//! [`IrBuildRequest`](crate::orchestrator::IrBuildRequest),
//! [`IrDeployRequest`](crate::orchestrator::IrDeployRequest),
//! [`SourceDeployRequest`](crate::orchestrator::SourceDeployRequest) and every
//! [`FleetError`](crate::orchestrator::FleetError) carry one [`PipelineError`]:
//! the shared variants once, beside the few only one driver can meet.

use crate::engine::GraphError;
use std::fmt;
use xaas_buildsys::ConfigureError;
use xaas_container::ImageError;
use xaas_hpcsim::SimdLevel;
use xaas_xir::CompileError;

/// Why an IR build, an IR or source deployment, or a fleet job failed.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant payload fields are documented by the Display impl
pub enum PipelineError {
    /// A swept or selected configuration could not be configured.
    Configure(ConfigureError),
    /// A translation unit failed to preprocess or compile.
    Compile { file: String, error: CompileError },
    /// A target (or the generated compile database) references a source file the
    /// project does not provide — neither as a source spec nor as a custom-target
    /// product (a malformed project).
    UnknownSource { file: String },
    /// A cached artifact failed to decode (action-cache corruption).
    Cache(String),
    /// The pipeline built an action graph with a construction defect;
    /// nothing executed.
    Graph(GraphError),
    /// An IR build's sweep referenced an unknown option.
    UnknownOption(String),
    /// No manifest of the IR container matches the requested configuration.
    UnknownConfiguration(String),
    /// The requested SIMD level cannot execute on the target system.
    UnsupportedSimd { level: SimdLevel, system: String },
    /// A referenced IR unit is missing from the container.
    MissingUnit(String),
    /// A source deployment's preference conflicts with the build system.
    UnsupportedPreference {
        option: String,
        value: String,
        reason: String,
    },
    /// Container store failure.
    Store(ImageError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Configure(e) => write!(f, "configure: {e}"),
            PipelineError::Compile { file, error } => write!(f, "compiling {file}: {error}"),
            PipelineError::UnknownSource { file } => write!(
                f,
                "compile database references {file}, which is not an enabled source"
            ),
            PipelineError::Cache(detail) => write!(f, "action cache: {detail}"),
            PipelineError::Graph(error) => write!(f, "action graph refused: {error}"),
            PipelineError::UnknownOption(name) => {
                write!(f, "sweep references unknown option {name}")
            }
            PipelineError::UnknownConfiguration(label) => {
                write!(f, "no configuration matches `{label}`")
            }
            PipelineError::UnsupportedSimd { level, system } => {
                write!(f, "SIMD level {level} is not supported on {system}")
            }
            PipelineError::MissingUnit(id) => write!(f, "IR unit {id} missing from the container"),
            PipelineError::UnsupportedPreference {
                option,
                value,
                reason,
            } => write!(f, "preference {option}={value} is not deployable: {reason}"),
            PipelineError::Store(e) => write!(f, "image store: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<GraphError> for PipelineError {
    fn from(value: GraphError) -> Self {
        PipelineError::Graph(value)
    }
}

/// A target naming an unknown file is this crate's [`PipelineError::UnknownSource`];
/// every other configure error keeps its own type.
impl From<ConfigureError> for PipelineError {
    fn from(value: ConfigureError) -> Self {
        match value {
            ConfigureError::UnknownSource { file, .. } => PipelineError::UnknownSource { file },
            other => PipelineError::Configure(other),
        }
    }
}

impl From<ImageError> for PipelineError {
    fn from(value: ImageError) -> Self {
        PipelineError::Store(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xaas_xir::preprocess::PreprocessError;

    /// Every variant's full text, so a change to any message shows up here.
    #[test]
    fn every_variant_renders_its_full_text() {
        let table: Vec<(PipelineError, &str)> = vec![
            (
                ConfigureError::InvalidAssignment("GMX_GPU=HIP".into()).into(),
                "configure: invalid configuration: GMX_GPU=HIP",
            ),
            (
                PipelineError::Compile {
                    file: "src/a.ck".into(),
                    error: CompileError::Preprocess(PreprocessError::MissingInclude {
                        file: "missing.h".into(),
                        line: 1,
                    }),
                },
                "compiling src/a.ck: preprocess: line 1: cannot resolve #include \"missing.h\"",
            ),
            (
                PipelineError::UnknownSource {
                    file: "src/typo.ck".into(),
                },
                "compile database references src/typo.ck, which is not an enabled source",
            ),
            (
                PipelineError::Cache("bitcode for src/a.ck: eof".into()),
                "action cache: bitcode for src/a.ck: eof",
            ),
            (
                GraphError::CommitWithoutDeps { node: 3 }.into(),
                "action graph refused: commit action 3 has no dependencies: nothing to commit",
            ),
            (
                PipelineError::UnknownOption("NOT_AN_OPTION".into()),
                "sweep references unknown option NOT_AN_OPTION",
            ),
            (
                PipelineError::UnknownConfiguration("GMX_GPU=HIP".into()),
                "no configuration matches `GMX_GPU=HIP`",
            ),
            (
                PipelineError::UnsupportedSimd {
                    level: SimdLevel::Avx512,
                    system: "Ault25".into(),
                },
                "SIMD level AVX_512 is not supported on Ault25",
            ),
            (
                PipelineError::MissingUnit("ghost.ck".into()),
                "IR unit ghost.ck missing from the container",
            ),
            (
                PipelineError::UnsupportedPreference {
                    option: "GMX_SIMD".into(),
                    value: "AVX_9000".into(),
                    reason: "value is not offered by the build system".into(),
                },
                "preference GMX_SIMD=AVX_9000 is not deployable: \
                 value is not offered by the build system",
            ),
            (
                ImageError::UnknownReference("a:b".into()).into(),
                "image store: unknown image reference: a:b",
            ),
        ];
        assert_eq!(table.len(), 11, "one row per variant");
        for (error, text) in table {
            assert_eq!(error.to_string(), text, "{error:?}");
        }
    }
}
