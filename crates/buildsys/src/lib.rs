//! # xaas-buildsys
//!
//! The build-system substrate of the XaaS Containers reproduction: a model of what CMake
//! provides to the paper's pipeline.
//!
//! * [`options`] — build options (= specialization points) with values, effects, and
//!   combinatorial sweeps;
//! * [`project`] — project descriptions: CK sources (optionally conditional on option
//!   tags), headers, targets, custom source-generating targets;
//! * [`configure`](mod@configure) — the configuration step that resolves an option assignment into
//!   enabled sources, global definitions/flags, dependencies, and a compile-command
//!   database;
//! * [`CompileCommand`] / [`CompileDatabase`] — compile commands plus the canonical command identity the
//!   behavioural deduplication of Section 4.2 counts;
//! * [`script`] — the mini build-script format that specialization discovery parses.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod compiledb;
pub mod configure;
pub mod options;
pub mod project;
pub mod script;

/// Commonly used types re-exported together.
pub mod prelude {
    pub use crate::compiledb::{CompileCommand, CompileDatabase};
    pub use crate::configure::{configure, ConfigureError, ConfiguredBuild};
    pub use crate::options::{
        all_combinations, BuildOption, OptionAssignment, OptionCategory, OptionEffects, OptionKind,
        OptionValue,
    };
    pub use crate::project::{CustomTarget, ProjectSpec, SourceSpec, TargetKind, TargetSpec};
    pub use crate::script::{parse_script, BuildScript, ScriptError, ScriptItem};
}

pub use prelude::*;
