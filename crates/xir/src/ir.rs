//! The XIR intermediate representation.
//!
//! XIR is a typed, register-based IR with *structured* control flow (loops and
//! conditionals remain explicit regions rather than a basic-block CFG). Keeping loops
//! structured is what lets the deployment-time vectoriser re-plan lane widths for the
//! selected ISA — the property the paper relies on when it argues that vectorisation
//! must be delayed until the target is known (Section 4.3).

use crate::ast::{BinOp, Type};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An operand of an IR operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// A named virtual register or local variable.
    Reg(String),
    /// Integer immediate.
    ImmInt(i64),
    /// Floating-point immediate.
    ImmFloat(f64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(name) => write!(f, "%{name}"),
            Operand::ImmInt(v) => write!(f, "{v}"),
            Operand::ImmFloat(v) => write!(f, "{v:?}"),
        }
    }
}

/// One IR operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IrOp {
    /// `dest = imm`
    Const {
        /// Destination register.
        dest: String,
        /// Immediate value.
        value: Operand,
    },
    /// `dest = src`
    Move {
        /// Destination register.
        dest: String,
        /// Source operand.
        src: Operand,
    },
    /// `dest = lhs op rhs`
    Bin {
        /// Destination register.
        dest: String,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dest = -operand` or `dest = !operand`
    Un {
        /// Destination register.
        dest: String,
        /// Logical not (true) or arithmetic negation (false).
        not: bool,
        /// Operand.
        operand: Operand,
    },
    /// `dest = base[index]`
    Load {
        /// Destination register.
        dest: String,
        /// Buffer name.
        base: String,
        /// Index operand.
        index: Operand,
    },
    /// `base[index] = value`
    Store {
        /// Buffer name.
        base: String,
        /// Index operand.
        index: Operand,
        /// Value operand.
        value: Operand,
    },
    /// `dest = call callee(args…)`
    Call {
        /// Destination register (None for void calls).
        dest: Option<String>,
        /// Callee name.
        callee: String,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// A counted loop region: `for (var = start; var < end; var += step) body`.
    Loop {
        /// Loop induction variable (a register).
        var: String,
        /// Start operand.
        start: Operand,
        /// Exclusive end operand.
        end: Operand,
        /// Constant step (always positive).
        step: i64,
        /// Whether an `omp parallel for` pragma marks the loop as thread-parallel.
        parallel: bool,
        /// Whether an `omp simd` pragma hints vectorisation.
        simd_hint: bool,
        /// Vector width assigned by the vectoriser (None until lowering).
        vector_width: Option<u32>,
        /// Set when early scalar optimisation destroyed the structured form, capping later
        /// re-vectorisation (models the paper's "optimisations must be delayed" finding).
        prevectorization_blocked: bool,
        /// Body operations.
        body: Vec<IrOp>,
    },
    /// A generic while loop (not vectorisable).
    While {
        /// Operations recomputing the condition before each iteration.
        cond_ops: Vec<IrOp>,
        /// Register holding the condition result.
        cond: String,
        /// Body operations.
        body: Vec<IrOp>,
    },
    /// Conditional region.
    If {
        /// Register holding the condition.
        cond: String,
        /// Then branch.
        then_body: Vec<IrOp>,
        /// Else branch.
        else_body: Vec<IrOp>,
    },
    /// Return from the function.
    Return {
        /// Optional return value.
        value: Option<Operand>,
    },
}

impl IrOp {
    /// The destination register written by this op, if it is a simple value-producing op.
    pub(crate) fn dest(&self) -> Option<&str> {
        match self {
            IrOp::Const { dest, .. }
            | IrOp::Move { dest, .. }
            | IrOp::Bin { dest, .. }
            | IrOp::Un { dest, .. }
            | IrOp::Load { dest, .. } => Some(dest),
            IrOp::Call { dest, .. } => dest.as_deref(),
            _ => None,
        }
    }

    /// Whether this op has side effects beyond writing its destination register.
    pub(crate) fn has_side_effects(&self) -> bool {
        matches!(
            self,
            IrOp::Store { .. }
                | IrOp::Call { .. }
                | IrOp::Loop { .. }
                | IrOp::While { .. }
                | IrOp::If { .. }
                | IrOp::Return { .. }
        )
    }

    /// Registers read by this op (does not recurse into nested regions).
    pub fn uses(&self, out: &mut Vec<String>) {
        let mut push = |o: &Operand| {
            if let Operand::Reg(name) = o {
                out.push(name.clone());
            }
        };
        match self {
            IrOp::Const { value, .. } => push(value),
            IrOp::Move { src, .. } => push(src),
            IrOp::Bin { lhs, rhs, .. } => {
                push(lhs);
                push(rhs);
            }
            IrOp::Un { operand, .. } => push(operand),
            IrOp::Load { index, .. } => push(index),
            IrOp::Store { index, value, .. } => {
                push(index);
                push(value);
            }
            IrOp::Call { args, .. } => {
                for a in args {
                    push(a);
                }
            }
            IrOp::Loop { start, end, .. } => {
                push(start);
                push(end);
            }
            IrOp::While { cond, .. } => out.push(cond.clone()),
            IrOp::If { cond, .. } => out.push(cond.clone()),
            IrOp::Return { value: Some(v) } => push(v),
            IrOp::Return { value: None } => {}
        }
    }
}

/// A function in IR form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrFunction {
    /// Function name.
    pub name: String,
    /// Exported kernel entry point.
    pub is_kernel: bool,
    /// Return type.
    pub return_type: Type,
    /// Parameters (name, type).
    pub params: Vec<(String, Type)>,
    /// Body operations.
    pub body: Vec<IrOp>,
}

impl IrFunction {
    /// Count all operations, recursing into regions.
    #[cfg(test)]
    pub(crate) fn op_count(&self) -> usize {
        fn count(ops: &[IrOp]) -> usize {
            ops.iter()
                .map(|op| match op {
                    IrOp::Loop { body, .. } => 1 + count(body),
                    IrOp::While { cond_ops, body, .. } => 1 + count(cond_ops) + count(body),
                    IrOp::If {
                        then_body,
                        else_body,
                        ..
                    } => 1 + count(then_body) + count(else_body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }

    /// Collect all loops (depth-first) with a mutable visitor.
    pub(crate) fn visit_loops_mut(&mut self, visitor: &mut dyn FnMut(&mut IrOp)) {
        fn walk(ops: &mut [IrOp], visitor: &mut dyn FnMut(&mut IrOp)) {
            for op in ops {
                match op {
                    IrOp::Loop { .. } => {
                        visitor(op);
                        if let IrOp::Loop { body, .. } = op {
                            walk(body, visitor);
                        }
                    }
                    IrOp::While { cond_ops, body, .. } => {
                        walk(cond_ops, visitor);
                        walk(body, visitor);
                    }
                    IrOp::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(then_body, visitor);
                        walk(else_body, visitor);
                    }
                    _ => {}
                }
            }
        }
        walk(&mut self.body, visitor);
    }

    /// Collect immutable references to all loops (depth-first).
    pub fn loops(&self) -> Vec<&IrOp> {
        fn walk<'a>(ops: &'a [IrOp], out: &mut Vec<&'a IrOp>) {
            for op in ops {
                match op {
                    IrOp::Loop { body, .. } => {
                        out.push(op);
                        walk(body, out);
                    }
                    IrOp::While { cond_ops, body, .. } => {
                        walk(cond_ops, out);
                        walk(body, out);
                    }
                    IrOp::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(then_body, out);
                        walk(else_body, out);
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }

    /// Names of functions called by this function.
    #[cfg(test)]
    pub(crate) fn callees(&self) -> Vec<String> {
        fn walk(ops: &[IrOp], out: &mut Vec<String>) {
            for op in ops {
                match op {
                    IrOp::Call { callee, .. } => out.push(callee.clone()),
                    IrOp::Loop { body, .. } => walk(body, out),
                    IrOp::While { cond_ops, body, .. } => {
                        walk(cond_ops, out);
                        walk(body, out);
                    }
                    IrOp::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(then_body, out);
                        walk(else_body, out);
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out.sort();
        out.dedup();
        out
    }
}

/// Compilation metadata carried with an IR module (provenance for the XaaS pipeline).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModuleMetadata {
    /// Preprocessor definitions that were active.
    pub definitions: Vec<String>,
    /// Whether OpenMP lowering was enabled (`-fopenmp`).
    pub openmp: bool,
    /// Optimisation level recorded as a string (`O0`, `O2`, `O3`).
    pub opt_level: String,
    /// Target-specific flags that were *dropped* and delayed to deployment (e.g. `-mavx2`).
    pub delayed_flags: Vec<String>,
}

/// A compiled translation unit in IR form — the unit stored inside IR containers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrModule {
    /// Module name (usually the source path).
    pub name: String,
    /// Source file this module was produced from.
    pub source_file: String,
    /// Functions.
    pub functions: Vec<IrFunction>,
    /// Compilation metadata.
    pub metadata: ModuleMetadata,
}

impl IrModule {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&IrFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Total operation count across functions.
    #[cfg(test)]
    pub(crate) fn op_count(&self) -> usize {
        self.functions.iter().map(IrFunction::op_count).sum()
    }

    /// Number of loops across all functions.
    pub fn loop_count(&self) -> usize {
        self.functions.iter().map(|f| f.loops().len()).sum()
    }

    /// Render a readable textual form (useful in tests and debugging).
    #[cfg(test)]
    pub(crate) fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "; module {} (from {})\n",
            self.name, self.source_file
        ));
        for f in &self.functions {
            out.push_str(&format!(
                "define {} @{}({}) {{\n",
                f.return_type,
                f.name,
                f.params
                    .iter()
                    .map(|(n, t)| format!("{t} %{n}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            render_ops(&f.body, 1, &mut out);
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
fn render_ops(ops: &[IrOp], indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    for op in ops {
        match op {
            IrOp::Const { dest, value } => out.push_str(&format!("{pad}%{dest} = const {value}\n")),
            IrOp::Move { dest, src } => out.push_str(&format!("{pad}%{dest} = mov {src}\n")),
            IrOp::Bin { dest, op, lhs, rhs } => {
                out.push_str(&format!("{pad}%{dest} = {op:?} {lhs}, {rhs}\n"))
            }
            IrOp::Un { dest, not, operand } => out.push_str(&format!(
                "{pad}%{dest} = {} {operand}\n",
                if *not { "not" } else { "neg" }
            )),
            IrOp::Load { dest, base, index } => {
                out.push_str(&format!("{pad}%{dest} = load {base}[{index}]\n"))
            }
            IrOp::Store { base, index, value } => {
                out.push_str(&format!("{pad}store {base}[{index}] = {value}\n"))
            }
            IrOp::Call { dest, callee, args } => {
                let args = args
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                match dest {
                    Some(d) => out.push_str(&format!("{pad}%{d} = call @{callee}({args})\n")),
                    None => out.push_str(&format!("{pad}call @{callee}({args})\n")),
                }
            }
            IrOp::Loop {
                var,
                start,
                end,
                step,
                parallel,
                vector_width,
                body,
                ..
            } => {
                let mut attrs = Vec::new();
                if *parallel {
                    attrs.push("parallel".to_string());
                }
                if let Some(w) = vector_width {
                    attrs.push(format!("vector_width={w}"));
                }
                out.push_str(&format!(
                    "{pad}loop %{var} = {start} .. {end} step {step} {}{{\n",
                    if attrs.is_empty() {
                        String::new()
                    } else {
                        format!("[{}] ", attrs.join(", "))
                    }
                ));
                render_ops(body, indent + 1, out);
                out.push_str(&format!("{pad}}}\n"));
            }
            IrOp::While { cond, body, .. } => {
                out.push_str(&format!("{pad}while %{cond} {{\n"));
                render_ops(body, indent + 1, out);
                out.push_str(&format!("{pad}}}\n"));
            }
            IrOp::If {
                cond,
                then_body,
                else_body,
            } => {
                out.push_str(&format!("{pad}if %{cond} {{\n"));
                render_ops(then_body, indent + 1, out);
                if !else_body.is_empty() {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    render_ops(else_body, indent + 1, out);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            IrOp::Return { value } => match value {
                Some(v) => out.push_str(&format!("{pad}ret {v}\n")),
                None => out.push_str(&format!("{pad}ret void\n")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axpy_ir() -> IrModule {
        IrModule {
            name: "axpy".into(),
            source_file: "axpy.ck".into(),
            metadata: ModuleMetadata::default(),
            functions: vec![IrFunction {
                name: "axpy".into(),
                is_kernel: true,
                return_type: Type::Void,
                params: vec![
                    ("y".into(), Type::FloatPtr),
                    ("x".into(), Type::FloatPtr),
                    ("a".into(), Type::Float),
                    ("n".into(), Type::Int),
                ],
                body: vec![IrOp::Loop {
                    var: "i".into(),
                    start: Operand::ImmInt(0),
                    end: Operand::Reg("n".into()),
                    step: 1,
                    parallel: true,
                    simd_hint: false,
                    vector_width: None,
                    prevectorization_blocked: false,
                    body: vec![
                        IrOp::Load {
                            dest: "t0".into(),
                            base: "x".into(),
                            index: Operand::Reg("i".into()),
                        },
                        IrOp::Bin {
                            dest: "t1".into(),
                            op: BinOp::Mul,
                            lhs: Operand::Reg("a".into()),
                            rhs: Operand::Reg("t0".into()),
                        },
                        IrOp::Load {
                            dest: "t2".into(),
                            base: "y".into(),
                            index: Operand::Reg("i".into()),
                        },
                        IrOp::Bin {
                            dest: "t3".into(),
                            op: BinOp::Add,
                            lhs: Operand::Reg("t2".into()),
                            rhs: Operand::Reg("t1".into()),
                        },
                        IrOp::Store {
                            base: "y".into(),
                            index: Operand::Reg("i".into()),
                            value: Operand::Reg("t3".into()),
                        },
                    ],
                }],
            }],
        }
    }

    #[test]
    fn op_and_loop_counts() {
        let module = axpy_ir();
        assert_eq!(module.loop_count(), 1);
        assert_eq!(module.op_count(), 6);
        assert!(module.function("axpy").is_some());
    }

    #[test]
    fn op_dest_uses_and_side_effects() {
        let op = IrOp::Bin {
            dest: "t".into(),
            op: BinOp::Add,
            lhs: Operand::Reg("a".into()),
            rhs: Operand::ImmInt(1),
        };
        assert_eq!(op.dest(), Some("t"));
        let mut uses = Vec::new();
        op.uses(&mut uses);
        assert_eq!(uses, vec!["a"]);
        assert!(!op.has_side_effects());
        assert!(IrOp::Store {
            base: "y".into(),
            index: Operand::ImmInt(0),
            value: Operand::ImmInt(0)
        }
        .has_side_effects());
    }

    #[test]
    fn text_rendering_mentions_loops_and_stores() {
        let text = axpy_ir().to_text();
        assert!(text.contains("define void @axpy"));
        assert!(text.contains("loop %i"));
        assert!(text.contains("store y"));
        assert!(text.contains("[parallel]"));
    }

    #[test]
    fn serde_roundtrip_preserves_module() {
        let module = axpy_ir();
        let json = serde_json::to_string(&module).unwrap();
        let back: IrModule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, module);
    }

    #[test]
    fn callees_collects_nested_calls() {
        let mut module = axpy_ir();
        module.functions[0].body.push(IrOp::Call {
            dest: None,
            callee: "log_step".into(),
            args: vec![],
        });
        assert_eq!(module.functions[0].callees(), vec!["log_step".to_string()]);
    }
}
