//! Preprocessor for CK source files.
//!
//! The IR-container pipeline (Section 4.3) hashes *preprocessed* translation units to
//! decide whether two build configurations really produce different code: compile-time
//! definitions (`-DGMX_GPU=CUDA`, `-DHAVE_MKL`, …) select code paths through `#if
//! defined(...)` blocks, exactly as in the BLAS transpose example of Figure 3. This
//! module implements the subset of the C preprocessor the synthetic applications use:
//! object-like macros, conditional compilation, includes, and macro substitution — plus a
//! stable content hash of the result.
//!
//! Most definitions a configuration passes change nothing a given file can see. An
//! [`Observation`] names the identifiers a file (with the headers it can reach) can
//! observe, and preprocessing under a definition set gives the same result as under
//! the part of it the file observes — so a planner may preprocess each distinct text
//! once.
//!
//! Every scan here reads the text's bytes in place and splits identifiers by the
//! lexer's rule, through one splitter that substitution and [`Observation`] share.
//! Substitution appends straight into the output buffer and allocates only the names
//! it records in [`used_definitions`](PreprocessedUnit::used_definitions). Sources may
//! come from a pulled image, so this module neither indexes nor unwraps.
#![deny(clippy::indexing_slicing, clippy::unwrap_used)]

use crate::lex::{identifier_len, is_identifier_start};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A set of preprocessor definitions (name → optional value).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Definitions {
    defines: BTreeMap<String, String>,
}

impl Definitions {
    /// Empty definition set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a macro with a value.
    pub fn define(&mut self, name: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.defines.insert(name.into(), value.into());
        self
    }

    /// Remove a definition.
    pub fn undefine(&mut self, name: &str) -> &mut Self {
        self.defines.remove(name);
        self
    }

    /// Whether a macro is defined.
    pub fn is_defined(&self, name: &str) -> bool {
        self.defines.contains_key(name)
    }

    /// Value of a macro.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.defines.get(name).map(String::as_str)
    }

    /// Parse `-DNAME` / `-DNAME=VALUE` compiler flags into definitions (a later flag
    /// for a name wins).
    pub fn from_flags<'a>(flags: impl IntoIterator<Item = &'a str>) -> Self {
        let mut defs = Self::new();
        for (name, value) in flags.into_iter().filter_map(flag_definition) {
            defs.define(name, value);
        }
        defs
    }

    /// Iterate over `(name, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.defines.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        self.defines.len()
    }

    /// Whether there are no definitions.
    pub fn is_empty(&self) -> bool {
        self.defines.is_empty()
    }
}

/// The `(name, value)` a `-DNAME` / `-DNAME=VALUE` flag defines (value `1` when
/// absent), or `None` for a flag that defines nothing.
pub fn flag_definition(flag: &str) -> Option<(&str, &str)> {
    let rest = flag.strip_prefix("-D")?;
    Some(rest.split_once('=').unwrap_or((rest, "1")))
}

/// The identifiers a unit can observe: every identifier token of its text and of each
/// header reachable through its `#include` lines, whether or not an `#include` sits
/// in an active branch.
///
/// Every lookup [`preprocess`] makes — the `#ifdef` / `#ifndef` / `#undef` name, each
/// `#if` / `#elif` term, each substituted word — is by such a token or by a string
/// that is no identifier at all. So definitions the unit does not observe cannot
/// change its text, digest or error:
/// `preprocess(f, s, D, h) == preprocess(f, s, &Observation::of(s, h).restrict(D), h)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observation {
    /// The [`fnv1a`] hashes of the identifier tokens, sorted and deduplicated. A name
    /// that shares a hash with a token only counts as observed when it is not: that
    /// splits a node, and never merges two texts.
    identifiers: Vec<u64>,
}

impl Observation {
    /// Scan `source` and every header it can reach in `headers` (each once, so an
    /// include cycle ends).
    pub fn of(source: &str, headers: &BTreeMap<String, String>) -> Self {
        let mut identifiers = Vec::new();
        let mut reached: BTreeSet<&str> = BTreeSet::new();
        let mut pending = vec![source];
        while let Some(text) = pending.pop() {
            for line in text.lines() {
                if let Some(("include", rest)) = split_directive(line) {
                    if let Some((name, header)) = headers.get_key_value(include_name(rest)) {
                        if reached.insert(name) {
                            pending.push(header);
                        }
                    }
                }
                identifiers.extend(
                    tokens(line)
                        .filter(|&(identifier, _)| identifier)
                        .map(|(_, word)| fnv1a(word.as_bytes())),
                );
            }
        }
        identifiers.sort_unstable();
        identifiers.dedup();
        Self { identifiers }
    }

    /// Whether a definition named `name` can change what the unit preprocesses to: the
    /// unit has it as an identifier, or it is no identifier (no token spells it, but a
    /// directive's operand can).
    pub fn observes(&self, name: &str) -> bool {
        !is_identifier(name)
            || self
                .identifiers
                .binary_search(&fnv1a(name.as_bytes()))
                .is_ok()
    }

    /// Whether the `-D` flag `flag` defines a name the unit observes (a flag that
    /// defines nothing never matters).
    pub fn observes_flag(&self, flag: &str) -> bool {
        flag_definition(flag).is_some_and(|(name, _)| self.observes(name))
    }

    /// The part of `definitions` the unit observes.
    pub fn restrict(&self, definitions: &Definitions) -> Definitions {
        let mut restricted = definitions.clone();
        restricted.defines.retain(|name, _| self.observes(name));
        restricted
    }
}

/// Errors raised during preprocessing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant payload fields are documented by the Display impl
pub enum PreprocessError {
    /// An `#include` could not be resolved from the provided header map.
    MissingInclude { file: String, line: usize },
    /// `#endif` / `#else` without an opening `#if`.
    UnbalancedConditional { line: usize },
    /// An `#if` block was never closed.
    UnterminatedConditional,
    /// Unsupported or malformed directive.
    BadDirective { directive: String, line: usize },
}

impl fmt::Display for PreprocessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreprocessError::MissingInclude { file, line } => {
                write!(f, "line {line}: cannot resolve #include \"{file}\"")
            }
            PreprocessError::UnbalancedConditional { line } => {
                write!(f, "line {line}: #else/#endif without matching #if")
            }
            PreprocessError::UnterminatedConditional => write!(f, "unterminated #if block"),
            PreprocessError::BadDirective { directive, line } => {
                write!(f, "line {line}: unsupported directive `{directive}`")
            }
        }
    }
}

impl std::error::Error for PreprocessError {}

/// The result of preprocessing a file.
#[derive(Debug, Clone, PartialEq)]
pub struct PreprocessedUnit {
    /// Origin file name.
    pub file: String,
    /// Preprocessed source text (directives resolved, macros substituted).
    pub text: String,
    /// Macros that actually influenced the output (referenced in conditionals or substituted).
    pub used_definitions: Vec<String>,
    /// Headers that were included.
    pub included_headers: Vec<String>,
}

impl PreprocessedUnit {
    /// A stable 64-bit FNV-1a hash of the preprocessed text — the identity used by the
    /// IR pipeline's preprocessing-deduplication stage.
    pub fn content_hash(&self) -> u64 {
        fnv1a(self.text.as_bytes())
    }

    /// The content hash rendered as a stable hexadecimal digest, suitable as the
    /// `tu_digest` component of a build-cache key: derivable from the preprocessed text
    /// alone, without parsing, lowering, or compiling anything.
    pub fn content_digest(&self) -> String {
        format!("{:016x}", self.content_hash())
    }

    /// Whether `-fopenmp` can change the code of this text (pipeline stage 3): one
    /// pass over [`text`](Self::text), allocating nothing. True when a `#pragma`'s
    /// text starts with `omp` in any case (what [`crate::openmp::analyze`] counts once
    /// it lowercases a pragma), or when an identifier starts with `omp_`; identifiers
    /// split the way the lexer splits them, so `2omp_x` names `omp_x`.
    ///
    /// The scan is conservative. The AST pass counts only pragmas attached to loops
    /// and only calls, so a stray `omp` pragma, or an `omp_` name that is no call,
    /// keeps `-fopenmp` in a unit's identity: that can split two units, never merge
    /// them.
    pub fn mentions_openmp(&self) -> bool {
        let text = self.text.as_str();
        let bytes = text.as_bytes();
        let mut at = 0;
        while let Some(rest) = bytes.get(at..).filter(|rest| !rest.is_empty()) {
            let len = identifier_len(rest);
            if rest
                .get(..len)
                .is_some_and(|word| word.starts_with(b"omp_"))
            {
                return true;
            }
            // A byte after `#` is a `char` boundary: `#` is ASCII.
            if rest.first() == Some(&b'#') && text.get(at + 1..).is_some_and(is_omp_pragma) {
                return true;
            }
            at += len.max(1);
        }
        false
    }
}

/// Whether the text after a `#` is a pragma whose text starts with `omp`, in any case.
fn is_omp_pragma(directive: &str) -> bool {
    let Some(pragma) = directive.trim_start().strip_prefix("pragma") else {
        return false;
    };
    let word = pragma.trim_start().as_bytes();
    word.get(..3)
        .is_some_and(|omp| omp.eq_ignore_ascii_case(b"omp"))
}

/// FNV-1a hash (64-bit) over bytes.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Preprocess `source` with `definitions`, resolving `#include "name"` from `headers`.
pub fn preprocess(
    file: &str,
    source: &str,
    definitions: &Definitions,
    headers: &BTreeMap<String, String>,
) -> Result<PreprocessedUnit, PreprocessError> {
    preprocess_owned(file, source, definitions.clone(), headers)
}

/// [`preprocess`] with a definition set the caller hands over: in-file `#define`s and
/// `#undef`s edit it in place.
pub(crate) fn preprocess_owned(
    file: &str,
    source: &str,
    mut working: Definitions,
    headers: &BTreeMap<String, String>,
) -> Result<PreprocessedUnit, PreprocessError> {
    let mut output = String::with_capacity(source.len());
    let mut used = Vec::new();
    let mut included = Vec::new();
    process_text(
        source,
        &mut working,
        headers,
        &mut output,
        &mut used,
        &mut included,
        0,
    )?;
    used.sort();
    used.dedup();
    included.sort();
    included.dedup();
    // Canonicalise whitespace so cosmetic differences do not affect the hash: trailing
    // whitespace and blank lines go, and lines are joined by one `\n`.
    let mut text = String::with_capacity(output.len());
    for line in output.lines().map(str::trim_end).filter(|l| !l.is_empty()) {
        if !text.is_empty() {
            text.push('\n');
        }
        text.push_str(line);
    }
    Ok(PreprocessedUnit {
        file: file.to_string(),
        text,
        used_definitions: used,
        included_headers: included,
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum CondState {
    /// The current branch is emitting lines.
    Active,
    /// The current branch is suppressed but a later `#else` might activate.
    InactivePending,
    /// Some earlier branch already emitted; all remaining branches suppressed.
    InactiveDone,
}

#[allow(clippy::too_many_arguments)]
fn process_text(
    source: &str,
    definitions: &mut Definitions,
    headers: &BTreeMap<String, String>,
    output: &mut String,
    used: &mut Vec<String>,
    included: &mut Vec<String>,
    depth: usize,
) -> Result<(), PreprocessError> {
    if depth > 32 {
        return Err(PreprocessError::BadDirective {
            directive: "#include (nested too deep)".into(),
            line: 0,
        });
    }
    let mut stack: Vec<CondState> = Vec::new();
    // How many entries of `stack` are not `Active`: a line is emitted when none is.
    let mut inactive = 0usize;
    for (line_index, raw_line) in source.lines().enumerate() {
        let line_no = line_index + 1;
        let emitting = inactive == 0;
        if let Some((keyword, rest)) = split_directive(raw_line) {
            match keyword {
                "pragma" => {
                    if emitting {
                        output.push_str(raw_line);
                        output.push('\n');
                    }
                }
                "include" => {
                    if emitting {
                        let name = include_name(rest);
                        let Some(content) = headers.get(name) else {
                            return Err(PreprocessError::MissingInclude {
                                file: name.to_string(),
                                line: line_no,
                            });
                        };
                        included.push(name.to_string());
                        process_text(
                            content,
                            definitions,
                            headers,
                            output,
                            used,
                            included,
                            depth + 1,
                        )?;
                    }
                }
                "define" => {
                    // In-file object-like macros extend the working definition set (the
                    // external `-D` flags still dominate IR identity via `used_definitions`).
                    if emitting {
                        if let Some(name) = rest.split_whitespace().next() {
                            // `rest` is trimmed, so it starts with `name`.
                            let value = rest.strip_prefix(name).unwrap_or_default().trim();
                            let value = if value.is_empty() { "1" } else { value };
                            definitions.define(name, value);
                            used.push(name.to_string());
                        }
                    }
                }
                "undef" => {
                    if emitting {
                        let name = macro_name(rest);
                        definitions.undefine(name);
                        used.push(name.to_string());
                    }
                }
                "ifdef" | "ifndef" | "if" => {
                    let active = if keyword == "if" {
                        eval_condition(rest, definitions, used)
                    } else {
                        let name = macro_name(rest);
                        used.push(name.to_string());
                        definitions.is_defined(name) == (keyword == "ifdef")
                    };
                    inactive += usize::from(!active);
                    stack.push(if active {
                        CondState::Active
                    } else {
                        CondState::InactivePending
                    });
                }
                "elif" | "else" => {
                    let Some(top) = stack.last_mut() else {
                        return Err(PreprocessError::UnbalancedConditional { line: line_no });
                    };
                    let next = match *top {
                        CondState::Active | CondState::InactiveDone => CondState::InactiveDone,
                        CondState::InactivePending
                            if keyword == "else" || eval_condition(rest, definitions, used) =>
                        {
                            CondState::Active
                        }
                        CondState::InactivePending => CondState::InactivePending,
                    };
                    // Only an active branch stops, and only a pending one starts.
                    if *top == CondState::Active {
                        inactive += 1;
                    } else if next == CondState::Active {
                        inactive -= 1;
                    }
                    *top = next;
                }
                "endif" => {
                    let Some(top) = stack.pop() else {
                        return Err(PreprocessError::UnbalancedConditional { line: line_no });
                    };
                    inactive -= usize::from(top != CondState::Active);
                }
                other => {
                    return Err(PreprocessError::BadDirective {
                        directive: format!("#{other}"),
                        line: line_no,
                    })
                }
            }
            continue;
        }
        if emitting {
            substitute(raw_line, definitions, used, output);
            output.push('\n');
        }
    }
    if stack.is_empty() {
        Ok(())
    } else {
        Err(PreprocessError::UnterminatedConditional)
    }
}

/// A directive line's keyword and trimmed operand, or `None` for a text line. Every
/// `#pragma…` line is the keyword `pragma` (its text is emitted verbatim).
fn split_directive(raw_line: &str) -> Option<(&str, &str)> {
    let directive = raw_line.trim_start().strip_prefix('#')?.trim();
    if directive.starts_with("pragma") {
        return Some(("pragma", ""));
    }
    Some(match directive.split_once(char::is_whitespace) {
        Some((keyword, rest)) => (keyword, rest.trim()),
        None => (directive, ""),
    })
}

/// The header an `#include` operand names: `"name"` and `<name>` alike.
fn include_name(rest: &str) -> &str {
    rest.trim_matches(|c| c == '"' || c == '<' || c == '>')
}

/// The macro a `#define` / `#undef` / `#ifdef` / `#ifndef` operand names: its first
/// word, so trailing text (`#ifdef X // note`) is not part of the name.
fn macro_name(rest: &str) -> &str {
    rest.split_whitespace().next().unwrap_or("")
}

/// Whether `name` is a plain identifier — one token the scanner can produce.
fn is_identifier(name: &str) -> bool {
    let len = identifier_len(name.as_bytes());
    len > 0 && len == name.len()
}

/// The one identifier scanner: splits `text` into maximal identifier runs (`true`)
/// and the maximal runs of text between them (`false`). Substitution and
/// [`Observation`] both read a line through it.
fn tokens(text: &str) -> impl Iterator<Item = (bool, &str)> {
    let mut rest = text;
    std::iter::from_fn(move || {
        let bytes = rest.as_bytes();
        let identifier = is_identifier_start(*bytes.first()?);
        let len = if identifier {
            identifier_len(bytes)
        } else {
            bytes
                .iter()
                .position(|&byte| is_identifier_start(byte))
                .unwrap_or(bytes.len())
        };
        // A run ends before an ASCII byte or at the end: a `char` boundary.
        let (token, tail) = rest.split_at_checked(len).unwrap_or((rest, ""));
        rest = tail;
        Some((identifier, token))
    })
}

/// Evaluate `defined(X)`, `!defined(X)`, bare macro names, integer literals (nonzero is
/// true), and `&&`/`||` combinations.
fn eval_condition(expr: &str, definitions: &Definitions, used: &mut Vec<String>) -> bool {
    // Split on || first (lowest precedence), then &&.
    expr.split("||").any(|clause| {
        clause.split("&&").all(|term| {
            let term = term.trim();
            let (negated, term) = match term.strip_prefix('!') {
                Some(rest) => (true, rest.trim()),
                None => (false, term),
            };
            let name = term
                .strip_prefix("defined(")
                .and_then(|t| t.strip_suffix(')'))
                .or_else(|| term.strip_prefix("defined ").map(str::trim))
                .unwrap_or(term)
                .trim();
            if name.is_empty() {
                return !negated;
            }
            if !term.starts_with("defined") && name.bytes().all(|byte| byte.is_ascii_digit()) {
                // An integer literal names no macro: nothing is looked up or recorded.
                return negated != name.bytes().any(|byte| byte != b'0');
            }
            used.push(name.to_string());
            let mut value = definitions.is_defined(name);
            // A bare `#if MACRO` with value "0" is false.
            if !term.starts_with("defined") {
                value = value && definitions.value(name) != Some("0");
            }
            if negated {
                !value
            } else {
                value
            }
        })
    })
}

/// Append `line` to `output` with each object-like macro that appears as a whole
/// identifier replaced by its value, recording the names it replaced in `used`.
fn substitute(line: &str, definitions: &Definitions, used: &mut Vec<String>, output: &mut String) {
    if definitions.is_empty() {
        output.push_str(line);
        return;
    }
    for (identifier, token) in tokens(line) {
        match identifier.then(|| definitions.value(token)).flatten() {
            Some(value) => {
                used.push(token.to_string());
                output.push_str(value);
            }
            None => output.push_str(token),
        }
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing, clippy::unwrap_used)]
mod tests {
    use super::*;

    fn no_headers() -> BTreeMap<String, String> {
        BTreeMap::new()
    }

    /// Deeply nested `#if 1` / `#if 0` / `#else`: level `i` opens a sibling
    /// `#if {d_i}` (`s{i}`, else `t{i}`) and then nests `#if {c_i}` (`a{i}`,
    /// else after the deeper levels `b{i}`). A line is emitted exactly when
    /// every enclosing branch is live, down to 400 levels and back out.
    #[test]
    fn deep_mixed_nesting_emits_exactly_the_live_branches() {
        let depth = 400;
        let c = |i: usize| i != 250;
        let d = |i: usize| !i.is_multiple_of(3);
        let mut source = String::new();
        let (mut expected, mut closing) = (Vec::new(), Vec::new());
        for i in 0..depth {
            let live = (0..i).all(c);
            let (s, t) = (u8::from(d(i)), u8::from(c(i)));
            source.push_str(&format!("#if {s}\nint s{i};\n#else\nint t{i};\n#endif\n"));
            source.push_str(&format!("#if {t}\nint a{i};\n"));
            if live {
                expected.push(format!("int {}{i};", if d(i) { 's' } else { 't' }));
                if c(i) {
                    expected.push(format!("int a{i};"));
                } else {
                    closing.push(format!("int b{i};"));
                }
            }
        }
        for i in (0..depth).rev() {
            source.push_str(&format!("#else\nint b{i};\n#endif\n"));
        }
        source.push_str("int tail;\n");
        expected.extend(closing);
        expected.push("int tail;".to_string());
        let unit = preprocess("t.ck", &source, &Definitions::new(), &no_headers()).unwrap();
        assert_eq!(unit.text.lines().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn definitions_from_flags() {
        let defs = Definitions::from_flags(["-DHAVE_MKL", "-DGMX_SIMD=AVX_512", "-O3", "-fopenmp"]);
        assert!(defs.is_defined("HAVE_MKL"));
        assert_eq!(defs.value("GMX_SIMD"), Some("AVX_512"));
        assert!(!defs.is_defined("O3"));
        assert_eq!(defs.len(), 2);
    }

    #[test]
    fn ifdef_selects_branches_like_figure_3() {
        let source = r#"
#if defined(HAVE_MKL)
kernel void transpose(float* b, float* a, int r, int c) { mkl_domatcopy(a, b, r, c); }
#endif
#if !defined(HAVE_MKL) && !defined(HAVE_OPENBLAS)
kernel void transpose(float* b, float* a, int r, int c) {
    for (int i = 0; i < r; i = i + 1) { b[i] = a[i]; }
}
#endif
"#;
        let mut with_mkl = Definitions::new();
        with_mkl.define("HAVE_MKL", "1");
        let mkl = preprocess("t.ck", source, &with_mkl, &no_headers()).unwrap();
        assert!(mkl.text.contains("mkl_domatcopy"));
        assert!(!mkl.text.contains("for (int i"));

        let plain = preprocess("t.ck", source, &Definitions::new(), &no_headers()).unwrap();
        assert!(!plain.text.contains("mkl_domatcopy"));
        assert!(plain.text.contains("for (int i"));
        assert_ne!(mkl.content_hash(), plain.content_hash());
        assert!(mkl.used_definitions.contains(&"HAVE_MKL".to_string()));
    }

    #[test]
    fn irrelevant_definitions_do_not_change_the_hash() {
        let source = "kernel void f(float* x, int n) { x[0] = 1.0; }\n";
        let plain = preprocess("f.ck", source, &Definitions::new(), &no_headers()).unwrap();
        let mut noisy = Definitions::new();
        noisy.define("GMX_GPU_CUDA", "1");
        noisy.define("UNRELATED", "42");
        let with_defs = preprocess("f.ck", source, &noisy, &no_headers()).unwrap();
        assert_eq!(plain.content_hash(), with_defs.content_hash());
    }

    #[test]
    fn else_and_elif_branches() {
        let source = r#"
#ifdef USE_CUDA
int backend = 1;
#elif defined(USE_HIP)
int backend = 2;
#else
int backend = 0;
#endif
"#;
        let mut cuda = Definitions::new();
        cuda.define("USE_CUDA", "1");
        assert!(preprocess("b.ck", source, &cuda, &no_headers())
            .unwrap()
            .text
            .contains("backend = 1"));
        let mut hip = Definitions::new();
        hip.define("USE_HIP", "1");
        assert!(preprocess("b.ck", source, &hip, &no_headers())
            .unwrap()
            .text
            .contains("backend = 2"));
        let none = preprocess("b.ck", source, &Definitions::new(), &no_headers()).unwrap();
        assert!(none.text.contains("backend = 0"));
    }

    #[test]
    fn includes_are_resolved_and_recorded() {
        let mut headers = BTreeMap::new();
        headers.insert(
            "vec_ops.h".to_string(),
            "float dot(float* a, float* b, int n) { return 0.0; }\n".to_string(),
        );
        let source = "#include \"vec_ops.h\"\nkernel void f(float* a, float* b, int n) { a[0] = dot(a, b, n); }\n";
        let unit = preprocess("f.ck", source, &Definitions::new(), &headers).unwrap();
        assert!(unit.text.contains("float dot"));
        assert_eq!(unit.included_headers, vec!["vec_ops.h"]);
        let missing = preprocess(
            "f.ck",
            "#include \"absent.h\"\n",
            &Definitions::new(),
            &no_headers(),
        );
        assert!(matches!(
            missing,
            Err(PreprocessError::MissingInclude { .. })
        ));
    }

    #[test]
    fn macro_substitution_replaces_whole_identifiers_only() {
        let mut defs = Definitions::new();
        defs.define("N", "128");
        let unit = preprocess("m.ck", "int n = N; int nn = NN;", &defs, &no_headers()).unwrap();
        assert!(unit.text.contains("int n = 128;"));
        assert!(unit.text.contains("int nn = NN;"));
    }

    #[test]
    fn unbalanced_and_unterminated_conditionals_error() {
        assert!(matches!(
            preprocess("x.ck", "#endif\n", &Definitions::new(), &no_headers()),
            Err(PreprocessError::UnbalancedConditional { .. })
        ));
        assert!(matches!(
            preprocess(
                "x.ck",
                "#ifdef A\nint x;\n",
                &Definitions::new(),
                &no_headers()
            ),
            Err(PreprocessError::UnterminatedConditional)
        ));
    }

    #[test]
    fn whitespace_canonicalisation_stabilises_hash() {
        let a = preprocess(
            "a.ck",
            "int x;   \n\n\nint y;\n",
            &Definitions::new(),
            &no_headers(),
        )
        .unwrap();
        let b = preprocess("a.ck", "int x;\nint y;", &Definitions::new(), &no_headers()).unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn nested_conditionals() {
        let source = r#"
#ifdef GPU
#ifdef CUDA
int path = 11;
#else
int path = 12;
#endif
#else
int path = 0;
#endif
"#;
        let mut both = Definitions::new();
        both.define("GPU", "1");
        both.define("CUDA", "1");
        assert!(preprocess("n.ck", source, &both, &no_headers())
            .unwrap()
            .text
            .contains("path = 11"));
        let mut gpu_only = Definitions::new();
        gpu_only.define("GPU", "1");
        assert!(preprocess("n.ck", source, &gpu_only, &no_headers())
            .unwrap()
            .text
            .contains("path = 12"));
        assert!(
            preprocess("n.ck", source, &Definitions::new(), &no_headers())
                .unwrap()
                .text
                .contains("path = 0")
        );
    }

    #[test]
    fn conditional_names_stop_at_the_first_word() {
        let source = "#ifdef X // note\nint on;\n#else\nint off;\n#endif\n\
                      #ifndef Y /* absent */\nint y_absent;\n#endif\n\
                      #define Z 1\n#undef Z trailing\n#ifdef Z\nint z;\n#endif\n";
        let mut x = Definitions::new();
        x.define("X", "1");
        let unit = preprocess("n.ck", source, &x, &no_headers()).unwrap();
        assert_eq!(unit.text, "int on;\nint y_absent;");
        assert_eq!(unit.used_definitions, ["X", "Y", "Z"]);
    }

    #[test]
    fn an_integer_condition_is_a_literal() {
        let source = "#if 1\nint one;\n#endif\n#if 0\nint zero;\n#elif 1\nint elif_one;\n#endif\n\
                      #if 2 && !0\nint two;\n#endif\n#if !1 || 00\nint never;\n#endif\n";
        let mut defs = Definitions::new();
        defs.define("1", "0");
        let unit = preprocess("i.ck", source, &defs, &no_headers()).unwrap();
        assert_eq!(unit.text, "int one;\nint elif_one;\nint two;");
        assert!(
            unit.used_definitions.is_empty(),
            "{:?}",
            unit.used_definitions
        );
    }

    #[test]
    fn an_observation_covers_reachable_headers_once_and_keeps_non_identifiers() {
        let mut headers = BTreeMap::new();
        headers.insert(
            "a.h".to_string(),
            "#include <b.h>\nint A_ONLY;\n".to_string(),
        );
        headers.insert("b.h".to_string(), "#include \"a.h\"\nB_ONLY\n".to_string());
        headers.insert("unused.h".to_string(), "UNREACHED\n".to_string());
        // The include sits in an inactive branch: its header is observed all the same.
        let source = "#if 0\n#include \"a.h\"\n#endif\nint n = N1;\n";
        let observation = Observation::of(source, &headers);
        for name in ["A_ONLY", "B_ONLY", "N1", "n", "int", "a", "h", "include"] {
            assert!(observation.observes(name), "{name}");
        }
        for name in ["UNREACHED", "N", "N12", "A_ONL"] {
            assert!(!observation.observes(name), "{name}");
        }
        for name in ["", "1X", "X == 1", "X(a)", "é"] {
            assert!(observation.observes(name), "non-identifier {name:?}");
        }
        assert!(observation.observes_flag("-DN1=2"));
        assert!(!observation.observes_flag("-DGMX_SIMD_AVX_512"));
        assert!(!observation.observes_flag("-O2"), "defines nothing");
        let defs = Definitions::from_flags(["-DN1=2", "-DUNREACHED", "-D1X"]);
        let restricted = observation.restrict(&defs);
        assert_eq!(
            restricted.iter().collect::<Vec<_>>(),
            [("1X", "1"), ("N1", "2")]
        );
    }

    #[test]
    fn content_digest_is_hex_of_content_hash() {
        let unit = preprocess("d.ck", "int x;\n", &Definitions::new(), &no_headers()).unwrap();
        assert_eq!(
            unit.content_digest(),
            format!("{:016x}", unit.content_hash())
        );
        assert_eq!(unit.content_digest().len(), 16);
    }

    #[test]
    fn fnv_hash_is_stable_and_distinguishes_content() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"xaas"), fnv1a(b"xaas"));
    }
}
