//! # xaas-xir
//!
//! The XIR compiler toolchain: the LLVM/Clang stand-in for the XaaS Containers
//! reproduction.
//!
//! The crate implements a complete, small compiler for the CK kernel language:
//!
//! * [`preprocess`] — `#define`/`#if`/`#include` handling with stable content hashing
//!   (the identity the IR-container pipeline deduplicates on);
//! * [`parse`]/[`ast`] — front-end;
//! * [`openmp`] — AST-level OpenMP construct detection, the reference pipeline stage 3
//!   of Figure 7 is tested against (the stage itself scans the preprocessed text:
//!   [`PreprocessedUnit::mentions_openmp`]);
//! * [`lower`]/[`ir`] — a typed, structured IR that can be serialised as [`bitcode`];
//! * [`passes`] — target-independent optimisation, including the deliberately harmful
//!   early scalar unrolling used to demonstrate why optimisation must be delayed;
//! * [`target`] — deployment-time vectorisation and lowering to a [`target::MachineModule`];
//! * [`interp`] — executable semantics for tests and examples.
//!
//! The [`Compiler`] driver ties the stages together the way `clang -c` would, and
//! [`CompileFlags::parse`] classifies command-line flags the way the XaaS pipeline needs:
//! definitions and OpenMP affect the IR, ISA flags are *delayed* until deployment.
//!
//! ```
//! use xaas_xir::{Compiler, CompileFlags};
//!
//! let compiler = Compiler::new();
//! let flags = CompileFlags::parse(["-O3", "-DSCALE=2.0", "-mavx512f"].iter().map(|s| s.to_string()));
//! assert_eq!(flags.delayed_target_flags, vec!["-mavx512f"]);
//! let module = compiler
//!     .compile_to_ir("scale.ck", "kernel void scale(float* x, int n) {\n  for (int i = 0; i < n; i = i + 1) { x[i] = SCALE * x[i]; }\n}", &flags)
//!     .unwrap();
//! assert_eq!(module.loop_count(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod bitcode;
pub mod interp;
pub mod ir;
pub mod lex;
pub mod lower;
pub mod memo;
pub mod openmp;
pub mod parse;
pub mod passes;
pub mod preprocess;
pub mod target;

use std::collections::BTreeMap;
use std::fmt;

pub use ast::TranslationUnit;
pub use interp::{Interpreter, RunResult, Value};
pub use ir::{IrFunction, IrModule, IrOp, ModuleMetadata, Operand};
pub use memo::DigestCell;
pub use openmp::OpenMpReport;
pub use passes::OptLevel;
pub use preprocess::{Definitions, Observation, PreprocessedUnit};
pub use target::{lower_to_machine, MachineModule, TargetIsa, VectorizationReport};

/// Classified compilation flags for one translation unit.
///
/// The classification is the heart of the pipeline's flag handling (Figure 7): content-
/// relevant flags (definitions, OpenMP, optimisation level) participate in IR identity,
/// while ISA/tuning flags are recorded but *delayed* until deployment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileFlags {
    /// `-D` definitions in their original textual form.
    pub definitions: Vec<String>,
    /// Whether `-fopenmp` was passed.
    pub openmp: bool,
    /// Optimisation level (defaults to O2 when unspecified).
    pub opt: Option<OptLevel>,
    /// Target/ISA flags (`-m…`, `-march=…`, `-mtune=…`) that are delayed to deployment.
    pub delayed_target_flags: Vec<String>,
    /// Include directories (`-I…`) — recorded for provenance.
    pub include_dirs: Vec<String>,
    /// Flags that fit none of the categories above.
    pub other: Vec<String>,
}

impl CompileFlags {
    /// Parse a flag list (order preserved within each category).
    pub fn parse(flags: impl IntoIterator<Item = String>) -> Self {
        let mut result = CompileFlags::default();
        for flag in flags {
            let flag = flag.trim().to_string();
            if flag.is_empty() {
                continue;
            }
            if flag.starts_with("-D") {
                result.definitions.push(flag);
            } else if flag == "-fopenmp" || flag == "-qopenmp" {
                result.openmp = true;
            } else if let Some(level) = flag.strip_prefix("-O").and_then(|_| OptLevel::parse(&flag))
            {
                result.opt = Some(level);
            } else if flag.starts_with("-m")
                || flag.starts_with("-march=")
                || flag.starts_with("-mtune=")
            {
                result.delayed_target_flags.push(flag);
            } else if flag.starts_with("-I") {
                result.include_dirs.push(flag);
            } else {
                result.other.push(flag);
            }
        }
        result
    }

    /// The flags that determine IR content (used as the identity key by the pipeline):
    /// definitions, OpenMP, and optimisation level — *not* the delayed target flags.
    pub fn ir_relevant_key(&self) -> String {
        let mut defs = self.definitions.clone();
        defs.sort();
        format!(
            "defs={};openmp={};opt={}",
            defs.join(","),
            self.openmp,
            self.opt.unwrap_or(OptLevel::O2).as_str()
        )
    }

    /// The effective optimisation level.
    pub fn opt_level(&self) -> OptLevel {
        self.opt.unwrap_or(OptLevel::O2)
    }

    /// A copy of the flags with the delayed ISA/tuning flags removed — the flag set a
    /// target-independent IR compile actually uses (the delayed flags are applied at
    /// deployment-time lowering instead).
    pub fn without_delayed_target_flags(&self) -> CompileFlags {
        let mut flags = self.clone();
        flags.delayed_target_flags.clear();
        flags
    }

    /// Definitions as a [`Definitions`] set.
    pub fn definition_set(&self) -> Definitions {
        Definitions::from_flags(self.definitions.iter().map(String::as_str))
    }
}

/// Errors from the compiler driver.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Preprocessing failed.
    Preprocess(preprocess::PreprocessError),
    /// Parsing failed.
    Parse(parse::ParseError),
    /// Lowering failed.
    Lower(lower::LowerError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Preprocess(e) => write!(f, "preprocess: {e}"),
            CompileError::Parse(e) => write!(f, "parse: {e}"),
            CompileError::Lower(e) => write!(f, "lower: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<preprocess::PreprocessError> for CompileError {
    fn from(value: preprocess::PreprocessError) -> Self {
        CompileError::Preprocess(value)
    }
}
impl From<parse::ParseError> for CompileError {
    fn from(value: parse::ParseError) -> Self {
        CompileError::Parse(value)
    }
}
impl From<lower::LowerError> for CompileError {
    fn from(value: lower::LowerError) -> Self {
        CompileError::Lower(value)
    }
}

/// The compiler driver (`xirc`): preprocess → parse → lower → optimise.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    /// Header files available to `#include` (name → content).
    pub headers: BTreeMap<String, String>,
}

impl Compiler {
    /// A compiler with no headers registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a header file.
    pub fn add_header(&mut self, name: impl Into<String>, content: impl Into<String>) -> &mut Self {
        self.headers.insert(name.into(), content.into());
        self
    }

    /// Run only the preprocessor (`xirc -E`).
    pub fn preprocess_only(
        &self,
        file: &str,
        source: &str,
        flags: &CompileFlags,
    ) -> Result<PreprocessedUnit, CompileError> {
        Ok(preprocess::preprocess(
            file,
            source,
            &flags.definition_set(),
            &self.headers,
        )?)
    }

    /// Full compilation to an (optimised, target-independent) IR module.
    pub fn compile_to_ir(
        &self,
        file: &str,
        source: &str,
        flags: &CompileFlags,
    ) -> Result<IrModule, CompileError> {
        let preprocessed = self.preprocess_only(file, source, flags)?;
        let unit = parse::parse(file, &preprocessed.text)?;
        let metadata = ModuleMetadata {
            definitions: flags.definitions.clone(),
            openmp: flags.openmp,
            opt_level: flags.opt_level().as_str().to_string(),
            delayed_flags: flags.delayed_target_flags.clone(),
        };
        let options = lower::LowerOptions {
            openmp: flags.openmp,
            metadata,
        };
        let mut module = lower::lower(&unit, &options)?;
        passes::optimize(&mut module, flags.opt_level());
        Ok(module)
    }

    /// Compile and immediately lower for a target (the "traditional build" path that XaaS
    /// source containers use at deployment, and that specialized containers use up front).
    pub fn compile_to_machine(
        &self,
        file: &str,
        source: &str,
        flags: &CompileFlags,
        target: &TargetIsa,
    ) -> Result<MachineModule, CompileError> {
        let module = self.compile_to_ir(file, source, flags)?;
        Ok(target::lower_to_machine(&module, target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCE: &str = r#"
#include "scale.h"
kernel void scale(float* x, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i = i + 1) { x[i] = FACTOR * x[i]; }
}
#ifdef WITH_EXTRA
kernel void extra(float* x) { x[0] = 1.0; }
#endif
"#;

    fn compiler() -> Compiler {
        let mut c = Compiler::new();
        c.add_header("scale.h", "#define FACTOR 2.0\n");
        c
    }

    #[test]
    fn flag_classification_delays_isa_flags() {
        let flags = CompileFlags::parse(
            [
                "-O3",
                "-DWITH_EXTRA",
                "-fopenmp",
                "-mavx512f",
                "-march=armv8-a+sve",
                "-I/usr/include",
                "-Wall",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert!(flags.openmp);
        assert_eq!(flags.opt, Some(OptLevel::O3));
        assert_eq!(flags.definitions, vec!["-DWITH_EXTRA"]);
        assert_eq!(
            flags.delayed_target_flags,
            vec!["-mavx512f", "-march=armv8-a+sve"]
        );
        assert_eq!(flags.include_dirs, vec!["-I/usr/include"]);
        assert_eq!(flags.other, vec!["-Wall"]);
    }

    #[test]
    fn ir_relevant_key_ignores_target_flags_and_flag_order() {
        let a = CompileFlags::parse(
            ["-DA", "-DB", "-O3", "-mavx2"]
                .iter()
                .map(|s| s.to_string()),
        );
        let b = CompileFlags::parse(
            ["-DB", "-DA", "-O3", "-msse4.1"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.ir_relevant_key(), b.ir_relevant_key());
        let c = CompileFlags::parse(["-DA", "-O3"].iter().map(|s| s.to_string()));
        assert_ne!(a.ir_relevant_key(), c.ir_relevant_key());
    }

    #[test]
    fn compile_to_ir_respects_definitions_and_headers() {
        let compiler = compiler();
        let plain = compiler
            .compile_to_ir(
                "scale.ck",
                SOURCE,
                &CompileFlags::parse(["-O2".to_string()]),
            )
            .unwrap();
        assert_eq!(plain.functions.len(), 1);
        let with_extra = compiler
            .compile_to_ir(
                "scale.ck",
                SOURCE,
                &CompileFlags::parse(["-O2".to_string(), "-DWITH_EXTRA".to_string()]),
            )
            .unwrap();
        assert_eq!(with_extra.functions.len(), 2);
        // The FACTOR macro from the header is substituted.
        assert!(plain.to_text().contains('2'));
    }

    #[test]
    fn openmp_report_via_driver() {
        let compiler = compiler();
        let unit = compiler
            .preprocess_only("scale.ck", SOURCE, &CompileFlags::default())
            .unwrap();
        assert!(unit.mentions_openmp());
        let no_omp_source =
            "kernel void f(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = 0.0; } }";
        let unit = compiler
            .preprocess_only("f.ck", no_omp_source, &CompileFlags::default())
            .unwrap();
        assert!(!unit.mentions_openmp());
    }

    #[test]
    fn compile_to_machine_applies_target_width() {
        let compiler = compiler();
        let flags = CompileFlags::parse(["-O3", "-fopenmp"].iter().map(|s| s.to_string()));
        let machine = compiler
            .compile_to_machine(
                "scale.ck",
                SOURCE,
                &flags,
                &TargetIsa::vector("avx2", 8, true),
            )
            .unwrap();
        assert_eq!(machine.function("scale").unwrap().loop_widths, vec![8]);
        assert_eq!(machine.vectorization.vectorized_count(), 1);
    }

    #[test]
    fn errors_propagate_with_context() {
        let compiler = Compiler::new();
        // Missing header.
        let err = compiler
            .compile_to_ir("scale.ck", SOURCE, &CompileFlags::default())
            .unwrap_err();
        assert!(matches!(err, CompileError::Preprocess(_)));
        // Syntax error.
        let err = compiler
            .compile_to_ir("bad.ck", "kernel void f( {", &CompileFlags::default())
            .unwrap_err();
        assert!(matches!(err, CompileError::Parse(_)));
        // Unsupported loop shape.
        let err = compiler
            .compile_to_ir(
                "bad.ck",
                "kernel void f(float* x, int n) { for (int i = 0; i < n; i = i * 2) { x[i] = 0.0; } }",
                &CompileFlags::default(),
            )
            .unwrap_err();
        assert!(matches!(err, CompileError::Lower(_)));
    }

    #[test]
    fn default_opt_level_is_o2() {
        let flags = CompileFlags::default();
        assert_eq!(flags.opt_level(), OptLevel::O2);
    }

    #[test]
    fn without_delayed_target_flags_keeps_ir_relevant_flags() {
        let flags = CompileFlags::parse(
            ["-O3", "-DA", "-fopenmp", "-mavx512f"]
                .iter()
                .map(|s| s.to_string()),
        );
        let stripped = flags.without_delayed_target_flags();
        assert!(stripped.delayed_target_flags.is_empty());
        assert_eq!(stripped.ir_relevant_key(), flags.ir_relevant_key());
        assert_eq!(stripped.definitions, flags.definitions);
        assert!(stripped.openmp);
    }
}
