//! Target-independent optimisation passes over XIR.
//!
//! Three passes matter to the XaaS pipeline:
//!
//! * constant folding and dead-code elimination — safe to run at container-build time;
//! * `scalar_unroll` — a deliberately *early* scalar optimisation that destroys the
//!   structured loop form. The paper observes that running LLVM optimisations before the
//!   target is known prevents efficient re-vectorisation at deployment; this pass gives
//!   the reproduction a concrete mechanism for that effect (ablation benchmark
//!   `fig13_tu_reduction` / the `OptimizeEarly` pipeline).

use crate::ast::BinOp;
use crate::ir::{visit_loops_mut, IrFunction, IrModule, IrOp, Operand, RegSet};

/// Optimisation level for target-independent passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// No optimisation.
    O0,
    /// Constant folding + DCE.
    O2,
    /// O2 plus loop canonicalisation (still safe before the target is known).
    O3,
}

impl OptLevel {
    /// Printable form used in module metadata.
    pub fn as_str(&self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O2 => "O2",
            OptLevel::O3 => "O3",
        }
    }

    /// Parse `-O0`/`-O2`/`-O3` style flags.
    pub fn parse(text: &str) -> Option<Self> {
        match text.trim_start_matches('-').trim_start_matches('O') {
            "0" => Some(OptLevel::O0),
            "1" | "2" => Some(OptLevel::O2),
            "3" | "fast" => Some(OptLevel::O3),
            _ => None,
        }
    }
}

/// Statistics reported by the optimisation pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Number of binary operations folded to constants.
    pub constants_folded: usize,
    /// Number of dead operations removed.
    pub dead_ops_removed: usize,
    /// Number of loops scalar-unrolled (only by [`scalar_unroll`]).
    pub loops_unrolled: usize,
}

/// Run the target-independent optimisation pipeline in place, then number every
/// function's registers canonically ([`IrFunction::renumber`]).
pub(crate) fn optimize(module: &mut IrModule, level: OptLevel) -> PassStats {
    let mut stats = PassStats::default();
    for function in &mut module.functions {
        if level != OptLevel::O0 {
            stats.constants_folded += fold_constants(&mut function.body);
            stats.dead_ops_removed += eliminate_dead_code(function);
        }
        function.renumber();
    }
    module.metadata.opt_level = level.as_str().to_string();
    stats
}

/// Fold binary operations whose operands are immediates. Returns the fold count.
pub(crate) fn fold_constants(ops: &mut [IrOp]) -> usize {
    let mut folded = 0;
    for op in ops.iter_mut() {
        match op {
            IrOp::Bin {
                dest,
                op: bin_op,
                lhs,
                rhs,
            } => {
                if let Some(value) = eval_const(*bin_op, lhs, rhs) {
                    folded += 1;
                    *op = IrOp::Const { dest: *dest, value };
                }
            }
            IrOp::Loop { body, .. } => folded += fold_constants(body),
            IrOp::While { cond_ops, body, .. } => {
                folded += fold_constants(cond_ops);
                folded += fold_constants(body);
            }
            IrOp::If {
                then_body,
                else_body,
                ..
            } => {
                folded += fold_constants(then_body);
                folded += fold_constants(else_body);
            }
            _ => {}
        }
    }
    folded
}

fn eval_const(op: BinOp, lhs: &Operand, rhs: &Operand) -> Option<Operand> {
    let as_f = |o: &Operand| match o {
        Operand::ImmInt(v) => Some(*v as f64),
        Operand::ImmFloat(v) => Some(*v),
        Operand::Reg(_) => None,
    };
    let both_int = matches!((lhs, rhs), (Operand::ImmInt(_), Operand::ImmInt(_)));
    let (a, b) = (as_f(lhs)?, as_f(rhs)?);
    let result = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return None;
            }
            a / b
        }
        BinOp::Rem => {
            if b == 0.0 {
                return None;
            }
            a % b
        }
        BinOp::Eq => f64::from(a == b),
        BinOp::Ne => f64::from(a != b),
        BinOp::Lt => f64::from(a < b),
        BinOp::Le => f64::from(a <= b),
        BinOp::Gt => f64::from(a > b),
        BinOp::Ge => f64::from(a >= b),
        BinOp::And => f64::from(a != 0.0 && b != 0.0),
        BinOp::Or => f64::from(a != 0.0 || b != 0.0),
    };
    if both_int || op.is_comparison() {
        Some(Operand::ImmInt(result as i64))
    } else {
        Some(Operand::ImmFloat(result))
    }
}

/// Remove value-producing operations whose results are never used. Returns the
/// removal count. The names of registers no op names any more stay until the
/// function is renumbered.
pub(crate) fn eliminate_dead_code(function: &mut IrFunction) -> usize {
    // Mark every register read anywhere in the function (conservatively including regions).
    fn mark_uses(ops: &[IrOp], used: &mut RegSet) {
        for op in ops {
            op.uses().for_each(|r| used.insert(r));
            match op {
                IrOp::Loop { body, .. } => mark_uses(body, used),
                IrOp::While { cond_ops, body, .. } => {
                    mark_uses(cond_ops, used);
                    mark_uses(body, used);
                }
                IrOp::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    mark_uses(then_body, used);
                    mark_uses(else_body, used);
                }
                _ => {}
            }
        }
    }
    fn sweep(ops: &mut Vec<IrOp>, used: &RegSet) -> usize {
        let mut removed = 0;
        ops.retain(|op| {
            if op.has_side_effects() {
                return true;
            }
            match op.dest() {
                Some(dest) if !used.contains(dest) => {
                    removed += 1;
                    false
                }
                _ => true,
            }
        });
        for op in ops.iter_mut() {
            match op {
                IrOp::Loop { body, .. } => removed += sweep(body, used),
                IrOp::While { cond_ops, body, .. } => {
                    removed += sweep(cond_ops, used);
                    removed += sweep(body, used);
                }
                IrOp::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    removed += sweep(then_body, used);
                    removed += sweep(else_body, used);
                }
                _ => {}
            }
        }
        removed
    }
    let mut used = RegSet::new(function.registers.len());
    mark_uses(&function.body, &mut used);
    sweep(&mut function.body, &used)
}

/// Scalar-unroll innermost counted loops by `factor`.
///
/// This is the "premature optimisation" the paper warns about: the replicated body uses
/// shifted induction values, the structured trip pattern is gone, and the deployment-time
/// vectoriser can no longer widen the loop (we mark it `prevectorization_blocked`).
pub fn scalar_unroll(module: &mut IrModule, factor: u32) -> PassStats {
    let mut stats = PassStats::default();
    if factor <= 1 {
        return stats;
    }
    for function in &mut module.functions {
        visit_loops_mut(&mut function.body, &mut |op| {
            if let IrOp::Loop {
                body,
                step,
                prevectorization_blocked,
                ..
            } = op
            {
                let is_innermost = !body.iter().any(|o| matches!(o, IrOp::Loop { .. }));
                if !is_innermost || *prevectorization_blocked {
                    return;
                }
                let original = body.clone();
                for _ in 1..factor {
                    body.extend(original.iter().cloned());
                }
                *step *= i64::from(factor);
                *prevectorization_blocked = true;
                stats.loops_unrolled += 1;
            }
        });
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, LowerOptions};
    use crate::parse::parse;

    fn compile(src: &str) -> IrModule {
        let unit = parse("test.ck", src).unwrap();
        lower(&unit, &LowerOptions::default()).unwrap()
    }

    #[test]
    fn constant_folding_replaces_immediate_arithmetic() {
        let mut module = compile("kernel void f(float* x) { float a = 2.0 * 3.0; x[0] = a; }");
        let stats = optimize(&mut module, OptLevel::O2);
        assert!(stats.constants_folded >= 1);
        let text = module.to_text();
        assert!(text.contains("const 6.0"), "{text}");
    }

    #[test]
    fn integer_folding_keeps_integer_type() {
        let mut ops = vec![IrOp::Bin {
            dest: 0,
            op: BinOp::Add,
            lhs: Operand::ImmInt(2),
            rhs: Operand::ImmInt(3),
        }];
        assert_eq!(fold_constants(&mut ops), 1);
        assert_eq!(
            ops[0],
            IrOp::Const {
                dest: 0,
                value: Operand::ImmInt(5)
            }
        );
    }

    #[test]
    fn division_by_zero_is_not_folded() {
        let mut ops = vec![IrOp::Bin {
            dest: 0,
            op: BinOp::Div,
            lhs: Operand::ImmInt(2),
            rhs: Operand::ImmInt(0),
        }];
        assert_eq!(fold_constants(&mut ops), 0);
    }

    #[test]
    fn dead_code_elimination_removes_unused_values_only() {
        let mut module = compile(
            r#"
kernel void f(float* x, int n) {
    float unused = 4.0 * 2.0;
    for (int i = 0; i < n; i = i + 1) { x[i] = 1.0; }
}
"#,
        );
        let before = module.op_count();
        let stats = optimize(&mut module, OptLevel::O3);
        assert!(stats.dead_ops_removed >= 1);
        assert!(module.op_count() < before);
        // Loop and store survive.
        assert_eq!(module.loop_count(), 1);
    }

    #[test]
    fn o0_changes_nothing_but_records_level() {
        let mut module = compile("kernel void f(float* x) { float a = 1.0 + 1.0; x[0] = a; }");
        let before = module.clone();
        let stats = optimize(&mut module, OptLevel::O0);
        assert_eq!(stats, PassStats::default());
        assert_eq!(module.functions, before.functions);
        assert_eq!(module.metadata.opt_level, "O0");
    }

    #[test]
    fn scalar_unroll_blocks_later_vectorisation_and_grows_body() {
        let mut module = compile(
            "kernel void f(float* x, int n) { for (int i = 0; i < n; i = i + 1) { x[i] = 2.0; } }",
        );
        let before_ops = module.op_count();
        let stats = scalar_unroll(&mut module, 4);
        assert_eq!(stats.loops_unrolled, 1);
        assert!(module.op_count() > before_ops);
        let f = module.function("f").unwrap();
        let IrOp::Loop {
            step,
            prevectorization_blocked,
            ..
        } = &f.body[0]
        else {
            panic!()
        };
        assert_eq!(*step, 4);
        assert!(*prevectorization_blocked);
        // Unrolling twice does not re-unroll a blocked loop.
        let again = scalar_unroll(&mut module, 4);
        assert_eq!(again.loops_unrolled, 0);
    }

    #[test]
    fn opt_level_parse() {
        assert_eq!(OptLevel::parse("-O3"), Some(OptLevel::O3));
        assert_eq!(OptLevel::parse("O0"), Some(OptLevel::O0));
        assert_eq!(OptLevel::parse("-O2"), Some(OptLevel::O2));
        assert_eq!(OptLevel::parse("-Os"), None);
    }
}
