//! OpenMP construct detection.
//!
//! Stage three of the IR-container pipeline (Figure 7): many build systems attach
//! `-fopenmp` globally to every target, so two configurations that differ *only* in the
//! OpenMP flag produce identical code for files that contain no OpenMP constructs. The
//! paper resolves this with a Clang AST pass; this module is the equivalent for CK — it
//! inspects the AST (not the raw text, so commented-out pragmas do not count) and reports
//! whether compiling with and without OpenMP can differ.
//!
//! The pipeline itself decides with a cheaper, conservative scan of the preprocessed
//! text, [`PreprocessedUnit::mentions_openmp`](crate::PreprocessedUnit::mentions_openmp),
//! which says yes whenever this pass does; this pass stays as its test oracle.

use crate::ast::{Stmt, TranslationUnit};
use serde::{Deserialize, Serialize};

/// Summary of OpenMP usage in a translation unit.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenMpReport {
    /// Number of `omp parallel` loop constructs.
    pub parallel_loops: usize,
    /// Number of `omp simd` hints.
    pub simd_loops: usize,
    /// Other `omp` pragmas (critical, atomic, …).
    pub other_constructs: usize,
    /// Calls into the OpenMP runtime API (`omp_get_num_threads`, …).
    pub runtime_calls: usize,
}

impl OpenMpReport {
    /// Whether the unit uses OpenMP at all — if not, the `-fopenmp` flag has no effect on
    /// the generated IR and can be dropped when comparing configurations.
    pub fn uses_openmp(&self) -> bool {
        self.parallel_loops > 0
            || self.simd_loops > 0
            || self.other_constructs > 0
            || self.runtime_calls > 0
    }
}

/// Analyse a translation unit for OpenMP constructs.
pub fn analyze(unit: &TranslationUnit) -> OpenMpReport {
    let mut report = OpenMpReport::default();
    for function in &unit.functions {
        analyze_block(&function.body, &mut report);
    }
    for call in unit.external_calls() {
        if call.starts_with("omp_") {
            report.runtime_calls += 1;
        }
    }
    report
}

fn analyze_block(stmts: &[Stmt], report: &mut OpenMpReport) {
    for stmt in stmts {
        match stmt {
            Stmt::For { pragmas, body, .. } => {
                for pragma in pragmas {
                    classify_pragma(pragma, report);
                }
                analyze_block(body, report);
            }
            Stmt::While { body, .. } => analyze_block(body, report),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                analyze_block(then_body, report);
                analyze_block(else_body, report);
            }
            _ => {}
        }
    }
}

fn classify_pragma(pragma: &str, report: &mut OpenMpReport) {
    let p = pragma.to_ascii_lowercase();
    if !p.starts_with("omp") {
        return;
    }
    if p.contains("parallel") {
        report.parallel_loops += 1;
    } else if p.contains("simd") {
        report.simd_loops += 1;
    } else {
        report.other_constructs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn detects_parallel_for() {
        let src = r#"
kernel void f(float* x, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i = i + 1) { x[i] = 0.0; }
}
"#;
        let unit = parse("f.ck", src).unwrap();
        let report = analyze(&unit);
        assert_eq!(report.parallel_loops, 1);
        assert!(report.uses_openmp());
    }

    #[test]
    fn detects_simd_and_runtime_calls() {
        let src = r#"
kernel void f(float* x, int n) {
    int threads = omp_get_max_threads();
    #pragma omp simd
    for (int i = 0; i < n; i = i + 1) { x[i] = x[i] * 2.0; }
}
"#;
        let unit = parse("f.ck", src).unwrap();
        let report = analyze(&unit);
        assert_eq!(report.simd_loops, 1);
        assert_eq!(report.runtime_calls, 1);
    }

    #[test]
    fn plain_numeric_code_is_openmp_free() {
        let src = r#"
kernel void f(float* x, int n) {
    for (int i = 0; i < n; i = i + 1) { x[i] = x[i] + 1.0; }
}
"#;
        let unit = parse("f.ck", src).unwrap();
        assert!(!analyze(&unit).uses_openmp());
    }

    #[test]
    fn non_omp_pragmas_are_ignored() {
        let src = r#"
kernel void f(float* x, int n) {
    #pragma unroll 4
    for (int i = 0; i < n; i = i + 1) { x[i] = 1.0; }
}
"#;
        let unit = parse("f.ck", src).unwrap();
        assert!(!analyze(&unit).uses_openmp());
    }

    #[test]
    fn nested_and_other_constructs_are_counted() {
        let src = r#"
kernel void f(float* x, int n, int m) {
    #pragma omp parallel for
    for (int i = 0; i < n; i = i + 1) {
        #pragma omp critical
        for (int j = 0; j < m; j = j + 1) { x[j] = x[j] + 1.0; }
    }
}
"#;
        let unit = parse("f.ck", src).unwrap();
        let report = analyze(&unit);
        assert_eq!(report.parallel_loops, 1);
        assert_eq!(report.other_constructs, 1);
    }
}
