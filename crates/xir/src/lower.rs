//! Lowering from the CK AST to XIR.
//!
//! The front-end decides here how pragmas are honoured: with `-fopenmp` enabled,
//! `#pragma omp parallel for` marks loops as thread-parallel; without it the pragma is
//! ignored (the code compiles either way, which is exactly why the XaaS OpenMP-detection
//! stage can drop the flag when a file contains no OpenMP constructs).

use crate::ast::{BinOp, Expr, Function, LValue, Stmt, TranslationUnit, Type};
use crate::ir::{Interner, IrFunction, IrModule, IrOp, ModuleMetadata, Operand};
use std::fmt;
use std::sync::Arc;

/// Options controlling AST → IR lowering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LowerOptions {
    /// Honour OpenMP pragmas (`-fopenmp`).
    pub openmp: bool,
    /// Metadata to attach to the module.
    pub metadata: ModuleMetadata,
}

/// Lowering errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant payload fields are documented by the Display impl
pub enum LowerError {
    /// A `for` loop had a step that is not `var = var + <const>`.
    UnsupportedLoopStep { function: String, variable: String },
    /// A `for` loop condition is not a `<` or `<=` comparison against the loop variable.
    UnsupportedLoopCondition { function: String, variable: String },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnsupportedLoopStep { function, variable } => {
                write!(
                    f,
                    "in {function}: loop over {variable} must step by a positive constant"
                )
            }
            LowerError::UnsupportedLoopCondition { function, variable } => {
                write!(
                    f,
                    "in {function}: loop over {variable} must use a `<` or `<=` bound"
                )
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Lower a translation unit to an IR module, its registers numbered canonically.
pub fn lower(unit: &TranslationUnit<'_>, options: &LowerOptions) -> Result<IrModule, LowerError> {
    let mut module = lower_unnumbered(unit, options)?;
    module.functions.iter_mut().for_each(IrFunction::renumber);
    Ok(module)
}

/// [`lower`], each function's registers numbered as the lowering first met them:
/// the parameters, then the rest. [`IrFunction::renumber`] numbers them
/// canonically, once the passes are done.
pub(crate) fn lower_unnumbered(
    unit: &TranslationUnit<'_>,
    options: &LowerOptions,
) -> Result<IrModule, LowerError> {
    let mut functions = Vec::with_capacity(unit.functions.len());
    for function in &unit.functions {
        functions.push(lower_function(function, options.openmp)?);
    }
    let mut metadata = options.metadata.clone();
    metadata.openmp = options.openmp;
    Ok(IrModule {
        name: unit.file.to_string(),
        source_file: unit.file.to_string(),
        functions,
        metadata,
    })
}

struct FnLowerer<'f> {
    /// The registers, numbered by name as they are first met.
    regs: Interner,
    temp_counter: usize,
    /// Where a temporary's name `t{n}` is formatted before it is numbered.
    temp_name: String,
    function_name: &'f str,
    openmp: bool,
}

impl FnLowerer<'_> {
    /// The next temporary `t{n}`. A variable of the same name is the same register.
    fn fresh(&mut self) -> u32 {
        use std::fmt::Write;
        self.temp_name.clear();
        let _ = write!(self.temp_name, "t{}", self.temp_counter);
        self.temp_counter += 1;
        self.regs.intern(&self.temp_name)
    }

    fn reg(&mut self, name: &str) -> u32 {
        self.regs.intern(name)
    }
}

fn lower_function(function: &Function<'_>, openmp: bool) -> Result<IrFunction, LowerError> {
    let mut lowerer = FnLowerer {
        regs: Interner::default(),
        temp_counter: 0,
        temp_name: String::new(),
        function_name: function.name,
        openmp,
    };
    for param in &function.params {
        lowerer.regs.param(param.name);
    }
    let body = lower_block(&function.body, &mut lowerer)?;
    Ok(IrFunction {
        name: function.name.to_string(),
        is_kernel: function.is_kernel,
        return_type: function.return_type,
        params: function.params.iter().map(|p| p.ty).collect(),
        body,
        registers: Arc::new(lowerer.regs.into_names()),
    })
}

fn lower_block(stmts: &[Stmt<'_>], lowerer: &mut FnLowerer) -> Result<Vec<IrOp>, LowerError> {
    let mut ops = Vec::new();
    for stmt in stmts {
        lower_stmt(stmt, lowerer, &mut ops)?;
    }
    Ok(ops)
}

/// The register holding `operand`: itself if it is one, else a fresh temporary
/// that `ops` moves the immediate into.
fn in_register(operand: Operand, lowerer: &mut FnLowerer, ops: &mut Vec<IrOp>) -> u32 {
    match operand {
        Operand::Reg(r) => r,
        imm => {
            let dest = lowerer.fresh();
            ops.push(IrOp::Move { dest, src: imm });
            dest
        }
    }
}

fn lower_stmt(
    stmt: &Stmt<'_>,
    lowerer: &mut FnLowerer,
    ops: &mut Vec<IrOp>,
) -> Result<(), LowerError> {
    match stmt {
        Stmt::Decl { name, init, ty } => {
            let value = match init {
                Some(expr) => lower_expr(expr, lowerer, ops),
                None => {
                    if matches!(ty, Type::Float) {
                        Operand::ImmFloat(0.0)
                    } else {
                        Operand::ImmInt(0)
                    }
                }
            };
            ops.push(IrOp::Move {
                dest: lowerer.reg(name),
                src: value,
            });
        }
        Stmt::Assign { target, value } => {
            let value_op = lower_expr(value, lowerer, ops);
            match target {
                LValue::Var(name) => ops.push(IrOp::Move {
                    dest: lowerer.reg(name),
                    src: value_op,
                }),
                LValue::Index { base, index } => {
                    let index_op = lower_expr(index, lowerer, ops);
                    ops.push(IrOp::Store {
                        base: lowerer.reg(base),
                        index: index_op,
                        value: value_op,
                    });
                }
            }
        }
        Stmt::For {
            var,
            init,
            cond,
            step,
            body,
            pragmas,
        } => {
            let start = lower_expr(init, lowerer, ops);
            let (end, inclusive) =
                extract_bound(cond, var).ok_or_else(|| LowerError::UnsupportedLoopCondition {
                    function: lowerer.function_name.to_string(),
                    variable: var.to_string(),
                })?;
            let end_op = {
                let bound = lower_expr(end, lowerer, ops);
                if inclusive {
                    // Convert `<=` into an exclusive bound by adding one.
                    let dest = lowerer.fresh();
                    ops.push(IrOp::Bin {
                        dest,
                        op: BinOp::Add,
                        lhs: bound,
                        rhs: Operand::ImmInt(1),
                    });
                    Operand::Reg(dest)
                } else {
                    bound
                }
            };
            let step_value =
                extract_step(step, var).ok_or_else(|| LowerError::UnsupportedLoopStep {
                    function: lowerer.function_name.to_string(),
                    variable: var.to_string(),
                })?;
            let parallel = lowerer.openmp
                && pragmas
                    .iter()
                    .any(|p| p.contains("omp") && p.contains("parallel"));
            let simd_hint = pragmas
                .iter()
                .any(|p| p.contains("omp") && p.contains("simd"));
            let var = lowerer.reg(var);
            let body_ops = lower_block(body, lowerer)?;
            ops.push(IrOp::Loop {
                var,
                start,
                end: end_op,
                step: step_value,
                parallel,
                simd_hint,
                vector_width: None,
                prevectorization_blocked: false,
                body: body_ops,
            });
        }
        Stmt::While { cond, body } => {
            let mut cond_ops = Vec::new();
            let cond_operand = lower_expr(cond, lowerer, &mut cond_ops);
            let cond = in_register(cond_operand, lowerer, &mut cond_ops);
            let body_ops = lower_block(body, lowerer)?;
            ops.push(IrOp::While {
                cond_ops,
                cond,
                body: body_ops,
            });
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let cond_operand = lower_expr(cond, lowerer, ops);
            let cond = in_register(cond_operand, lowerer, ops);
            let then_ops = lower_block(then_body, lowerer)?;
            let else_ops = lower_block(else_body, lowerer)?;
            ops.push(IrOp::If {
                cond,
                then_body: then_ops,
                else_body: else_ops,
            });
        }
        Stmt::Return(value) => {
            let operand = value.as_ref().map(|expr| lower_expr(expr, lowerer, ops));
            ops.push(IrOp::Return { value: operand });
        }
        Stmt::ExprStmt(expr) => {
            if let Expr::Call { callee, args } = expr {
                let arg_ops: Vec<Operand> =
                    args.iter().map(|a| lower_expr(a, lowerer, ops)).collect();
                ops.push(IrOp::Call {
                    dest: None,
                    callee: callee.to_string(),
                    args: arg_ops,
                });
            } else {
                let _ = lower_expr(expr, lowerer, ops);
            }
        }
    }
    Ok(())
}

fn lower_expr(expr: &Expr<'_>, lowerer: &mut FnLowerer, ops: &mut Vec<IrOp>) -> Operand {
    match expr {
        Expr::IntLit(v) => Operand::ImmInt(*v),
        Expr::FloatLit(v) => Operand::ImmFloat(*v),
        Expr::Var(name) => Operand::Reg(lowerer.reg(name)),
        Expr::Index { base, index } => {
            let index_op = lower_expr(index, lowerer, ops);
            let dest = lowerer.fresh();
            ops.push(IrOp::Load {
                dest,
                base: lowerer.reg(base),
                index: index_op,
            });
            Operand::Reg(dest)
        }
        Expr::Binary { op, lhs, rhs } => {
            let lhs_op = lower_expr(lhs, lowerer, ops);
            let rhs_op = lower_expr(rhs, lowerer, ops);
            let dest = lowerer.fresh();
            ops.push(IrOp::Bin {
                dest,
                op: *op,
                lhs: lhs_op,
                rhs: rhs_op,
            });
            Operand::Reg(dest)
        }
        Expr::Unary { not, operand } => {
            let inner = lower_expr(operand, lowerer, ops);
            let dest = lowerer.fresh();
            ops.push(IrOp::Un {
                dest,
                not: *not,
                operand: inner,
            });
            Operand::Reg(dest)
        }
        Expr::Call { callee, args } => {
            let arg_ops: Vec<Operand> = args.iter().map(|a| lower_expr(a, lowerer, ops)).collect();
            let dest = lowerer.fresh();
            ops.push(IrOp::Call {
                dest: Some(dest),
                callee: callee.to_string(),
                args: arg_ops,
            });
            Operand::Reg(dest)
        }
    }
}

/// Extract the loop bound from a condition of the form `var < bound` or `var <= bound`.
/// Returns the bound expression and whether the comparison was inclusive.
fn extract_bound<'e, 'a>(cond: &'e Expr<'a>, var: &str) -> Option<(&'e Expr<'a>, bool)> {
    if let Expr::Binary { op, lhs, rhs } = cond {
        if let Expr::Var(name) = lhs.as_ref() {
            if *name == var {
                return match op {
                    BinOp::Lt => Some((rhs, false)),
                    BinOp::Le => Some((rhs, true)),
                    _ => None,
                };
            }
        }
    }
    None
}

/// Extract the constant step from `var = var + <const>` (or `<const> + var`).
fn extract_step(step: &Expr<'_>, var: &str) -> Option<i64> {
    if let Expr::Binary {
        op: BinOp::Add,
        lhs,
        rhs,
    } = step
    {
        let step_value = match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Var(name), Expr::IntLit(v)) if *name == var => Some(*v),
            (Expr::IntLit(v), Expr::Var(name)) if *name == var => Some(*v),
            _ => None,
        }?;
        if step_value > 0 {
            return Some(step_value);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    const AXPY: &str = r#"
kernel void axpy(float* y, float* x, float a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i = i + 1) {
        y[i] = y[i] + a * x[i];
    }
}
"#;

    #[test]
    fn lowers_axpy_to_a_counted_loop() {
        let unit = parse("axpy.ck", AXPY).unwrap();
        let module = lower(
            &unit,
            &LowerOptions {
                openmp: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(module.loop_count(), 1);
        let f = module.function("axpy").unwrap();
        let IrOp::Loop {
            parallel,
            step,
            body,
            ..
        } = &f.body[0]
        else {
            panic!("expected loop")
        };
        assert!(*parallel);
        assert_eq!(*step, 1);
        assert!(body.iter().any(|op| matches!(op, IrOp::Store { .. })));
    }

    #[test]
    fn openmp_disabled_ignores_parallel_pragma() {
        let unit = parse("axpy.ck", AXPY).unwrap();
        let module = lower(
            &unit,
            &LowerOptions {
                openmp: false,
                ..Default::default()
            },
        )
        .unwrap();
        let f = module.function("axpy").unwrap();
        let IrOp::Loop { parallel, .. } = &f.body[0] else {
            panic!()
        };
        assert!(!parallel);
        assert!(!module.metadata.openmp);
    }

    #[test]
    fn inclusive_bound_becomes_exclusive_plus_one() {
        let src =
            "kernel void f(float* x, int n) { for (int i = 0; i <= n; i = i + 1) { x[i] = 0.0; } }";
        let unit = parse("f.ck", src).unwrap();
        let module = lower(&unit, &LowerOptions::default()).unwrap();
        let f = module.function("f").unwrap();
        // The bound add becomes an explicit Bin op preceding the loop.
        assert!(f
            .body
            .iter()
            .any(|op| matches!(op, IrOp::Bin { op: BinOp::Add, .. })));
    }

    #[test]
    fn non_canonical_loops_are_rejected() {
        let bad_step =
            "kernel void f(float* x, int n) { for (int i = 0; i < n; i = i * 2) { x[i] = 0.0; } }";
        let unit = parse("f.ck", bad_step).unwrap();
        assert!(matches!(
            lower(&unit, &LowerOptions::default()),
            Err(LowerError::UnsupportedLoopStep { .. })
        ));
        let bad_cond =
            "kernel void f(float* x, int n) { for (int i = 0; i > n; i = i + 1) { x[i] = 0.0; } }";
        let unit = parse("f.ck", bad_cond).unwrap();
        assert!(matches!(
            lower(&unit, &LowerOptions::default()),
            Err(LowerError::UnsupportedLoopCondition { .. })
        ));
    }

    #[test]
    fn while_if_return_and_calls_lower() {
        let src = r#"
float reduce(float* x, int n) {
    float acc = 0.0;
    int i = 0;
    while (i < n) {
        if (x[i] > 0.0) {
            acc = acc + x[i];
        } else {
            acc = acc - x[i];
        }
        i = i + 1;
    }
    log_value(acc);
    return acc;
}
"#;
        let unit = parse("r.ck", src).unwrap();
        let module = lower(&unit, &LowerOptions::default()).unwrap();
        let f = module.function("reduce").unwrap();
        assert!(f.body.iter().any(|op| matches!(op, IrOp::While { .. })));
        assert!(f
            .body
            .iter()
            .any(|op| matches!(op, IrOp::Call { dest: None, .. })));
        assert!(matches!(
            f.body.last(),
            Some(IrOp::Return { value: Some(_) })
        ));
        assert_eq!(f.callees(), vec!["log_value".to_string()]);
    }

    #[test]
    fn simd_pragma_sets_hint_without_openmp_flag() {
        let src = r#"
kernel void scale(float* x, float a, int n) {
    #pragma omp simd
    for (int i = 0; i < n; i = i + 1) { x[i] = a * x[i]; }
}
"#;
        let unit = parse("s.ck", src).unwrap();
        let module = lower(
            &unit,
            &LowerOptions {
                openmp: false,
                ..Default::default()
            },
        )
        .unwrap();
        let IrOp::Loop {
            simd_hint,
            parallel,
            ..
        } = &module.function("scale").unwrap().body[0]
        else {
            panic!()
        };
        assert!(*simd_hint);
        assert!(!parallel);
    }
}
