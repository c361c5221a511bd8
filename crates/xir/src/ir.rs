//! The XIR intermediate representation.
//!
//! XIR is a typed, register-based IR with *structured* control flow (loops and
//! conditionals remain explicit regions rather than a basic-block CFG). Keeping loops
//! structured is what lets the deployment-time vectoriser re-plan lane widths for the
//! selected ISA — the property the paper relies on when it argues that vectorisation
//! must be delayed until the target is known (Section 4.3).
//!
//! A register is a number, as an LLVM value is: an index into its function's name
//! table ([`IrFunction::registers`]). The table holds the parameters first, then every
//! other register in the order the JSON encoding first writes it. The encoding spells
//! each register by its name, so a function numbers its registers as the one it was
//! encoded from did, and `decode(encode(m)) == m` holds field for field.

use crate::ast::{BinOp, Type};
use serde::{Deserialize, Error, Map, Reader, Serialize, Value};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

/// An operand of an IR operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A virtual register or local variable: an index into the function's
    /// [`registers`](IrFunction::registers).
    Reg(u32),
    /// Integer immediate.
    ImmInt(i64),
    /// Floating-point immediate.
    ImmFloat(f64),
}

impl Operand {
    /// The register this operand reads, if it is one.
    pub fn reg(&self) -> Option<u32> {
        match *self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }
}

/// One IR operation. Every register field is an index into the function's
/// [`registers`](IrFunction::registers).
#[derive(Debug, Clone, PartialEq)]
pub enum IrOp {
    /// `dest = imm`
    Const {
        /// Destination register.
        dest: u32,
        /// Immediate value.
        value: Operand,
    },
    /// `dest = src`
    Move {
        /// Destination register.
        dest: u32,
        /// Source operand.
        src: Operand,
    },
    /// `dest = lhs op rhs`
    Bin {
        /// Destination register.
        dest: u32,
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
        dest: u32,
        /// Logical not (true) or arithmetic negation (false).
        not: bool,
        /// Operand.
        operand: Operand,
    },
    /// `dest = base[index]`
    Load {
        /// Destination register.
        dest: u32,
        /// Buffer register.
        base: u32,
        /// Index operand.
        index: Operand,
    },
    /// `base[index] = value`
    Store {
        /// Buffer register.
        base: u32,
        /// Index operand.
        index: Operand,
        /// Value operand.
        value: Operand,
    },
    /// `dest = call callee(args…)`
    Call {
        /// Destination register (None for void calls).
        dest: Option<u32>,
        /// Callee name.
        callee: String,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// A counted loop region: `for (var = start; var < end; var += step) body`.
    Loop {
        /// Loop induction variable (a register).
        var: u32,
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
        cond: u32,
        /// Body operations.
        body: Vec<IrOp>,
    },
    /// Conditional region.
    If {
        /// Register holding the condition.
        cond: u32,
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
    pub(crate) fn dest(&self) -> Option<u32> {
        match *self {
            IrOp::Const { dest, .. }
            | IrOp::Move { dest, .. }
            | IrOp::Bin { dest, .. }
            | IrOp::Un { dest, .. }
            | IrOp::Load { dest, .. } => Some(dest),
            IrOp::Call { dest, .. } => dest,
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
    pub fn uses(&self) -> impl Iterator<Item = u32> + '_ {
        let (a, b, args, cond): (Option<&Operand>, Option<&Operand>, &[Operand], _) = match self {
            IrOp::Const { value: a, .. }
            | IrOp::Move { src: a, .. }
            | IrOp::Un { operand: a, .. }
            | IrOp::Load { index: a, .. } => (Some(a), None, &[], None),
            IrOp::Bin { lhs: a, rhs: b, .. }
            | IrOp::Store {
                index: a, value: b, ..
            }
            | IrOp::Loop {
                start: a, end: b, ..
            } => (Some(a), Some(b), &[], None),
            IrOp::Call { args, .. } => (None, None, args.as_slice(), None),
            IrOp::While { cond, .. } | IrOp::If { cond, .. } => (None, None, &[], Some(*cond)),
            IrOp::Return { value } => (value.as_ref(), None, &[], None),
        };
        a.into_iter()
            .chain(b)
            .chain(args)
            .filter_map(Operand::reg)
            .chain(cond)
    }

    /// The variant's name: the one key of the op's JSON object.
    fn tag(&self) -> &'static str {
        match self {
            IrOp::Const { .. } => "Const",
            IrOp::Move { .. } => "Move",
            IrOp::Bin { .. } => "Bin",
            IrOp::Un { .. } => "Un",
            IrOp::Load { .. } => "Load",
            IrOp::Store { .. } => "Store",
            IrOp::Call { .. } => "Call",
            IrOp::Loop { .. } => "Loop",
            IrOp::While { .. } => "While",
            IrOp::If { .. } => "If",
            IrOp::Return { .. } => "Return",
        }
    }

    /// Each field of the variant's JSON object with its key, sorted by key: the
    /// order the encoding writes them in.
    fn fields<'a>(&'a self, f: &mut impl FnMut(&'static str, Field<'a>)) {
        use Field::{Ops, Plain};
        let reg = |r: &u32| Field::Reg(Some(*r));
        let opd = |o: &'a Operand| Field::Operand(Some(o));
        match self {
            IrOp::Const { dest, value } => {
                f("dest", reg(dest));
                f("value", opd(value));
            }
            IrOp::Move { dest, src } => {
                f("dest", reg(dest));
                f("src", opd(src));
            }
            IrOp::Bin { dest, op, lhs, rhs } => {
                f("dest", reg(dest));
                f("lhs", opd(lhs));
                f("op", Plain(op));
                f("rhs", opd(rhs));
            }
            IrOp::Un { dest, not, operand } => {
                f("dest", reg(dest));
                f("not", Plain(not));
                f("operand", opd(operand));
            }
            IrOp::Load { dest, base, index } => {
                f("base", reg(base));
                f("dest", reg(dest));
                f("index", opd(index));
            }
            IrOp::Store { base, index, value } => {
                f("base", reg(base));
                f("index", opd(index));
                f("value", opd(value));
            }
            IrOp::Call { dest, callee, args } => {
                f("args", Field::Operands(args));
                f("callee", Plain(callee));
                f("dest", Field::Reg(*dest));
            }
            IrOp::Loop {
                var,
                start,
                end,
                step,
                parallel,
                simd_hint,
                vector_width,
                prevectorization_blocked,
                body,
            } => {
                f("body", Ops(body));
                f("end", opd(end));
                f("parallel", Plain(parallel));
                f("prevectorization_blocked", Plain(prevectorization_blocked));
                f("simd_hint", Plain(simd_hint));
                f("start", opd(start));
                f("step", Plain(step));
                f("var", reg(var));
                f("vector_width", Plain(vector_width));
            }
            IrOp::While {
                cond_ops,
                cond,
                body,
            } => {
                f("body", Ops(body));
                f("cond", reg(cond));
                f("cond_ops", Ops(cond_ops));
            }
            IrOp::If {
                cond,
                then_body,
                else_body,
            } => {
                f("cond", reg(cond));
                f("else_body", Ops(else_body));
                f("then_body", Ops(then_body));
            }
            IrOp::Return { value } => f("value", Field::Operand(value.as_ref())),
        }
    }

    /// Every register this op names, nested regions included, in no set order.
    fn regs_mut(&mut self, f: &mut impl FnMut(&mut u32)) {
        let operand = |o: &mut Operand, f: &mut dyn FnMut(&mut u32)| {
            if let Operand::Reg(r) = o {
                f(r)
            }
        };
        match self {
            IrOp::Const { dest, value: a }
            | IrOp::Move { dest, src: a }
            | IrOp::Un {
                dest, operand: a, ..
            } => {
                f(dest);
                operand(a, f);
            }
            IrOp::Bin { dest, lhs, rhs, .. } => {
                f(dest);
                operand(lhs, f);
                operand(rhs, f);
            }
            IrOp::Load { dest, base, index } => {
                f(dest);
                f(base);
                operand(index, f);
            }
            IrOp::Store { base, index, value } => {
                f(base);
                operand(index, f);
                operand(value, f);
            }
            IrOp::Call { dest, args, .. } => {
                dest.iter_mut().for_each(&mut *f);
                args.iter_mut().for_each(|a| operand(a, f));
            }
            IrOp::Loop {
                var,
                start,
                end,
                body,
                ..
            } => {
                f(var);
                operand(start, f);
                operand(end, f);
                body.iter_mut().for_each(|op| op.regs_mut(f));
            }
            IrOp::While {
                cond_ops,
                cond,
                body,
            } => {
                f(cond);
                cond_ops
                    .iter_mut()
                    .chain(body)
                    .for_each(|op| op.regs_mut(f));
            }
            IrOp::If {
                cond,
                then_body,
                else_body,
            } => {
                f(cond);
                then_body
                    .iter_mut()
                    .chain(else_body)
                    .for_each(|op| op.regs_mut(f));
            }
            IrOp::Return { value } => value.iter_mut().for_each(|v| operand(v, f)),
        }
    }
}

/// A function in IR form.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunction {
    /// Function name.
    pub name: String,
    /// Exported kernel entry point.
    pub is_kernel: bool,
    /// Return type.
    pub return_type: Type,
    /// Parameter types: parameter `i` is register `i`.
    pub params: Vec<Type>,
    /// Body operations.
    pub body: Vec<IrOp>,
    /// The name of each register: register `r` is `registers[r]`. Parameters come
    /// first, then every other register in the order the encoding first writes it.
    /// The machine functions lowered from this one share the table.
    pub registers: Arc<Registers>,
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

    /// Number the registers canonically: the parameters first, then every other
    /// register in the order the encoding first writes it. A name no op names any
    /// more (a pass removed its ops) is dropped.
    pub(crate) fn renumber(&mut self) {
        let table = number(&self.registers, 0..self.params.len() as u32, &mut self.body);
        match Arc::get_mut(&mut self.registers) {
            Some(registers) => *registers = table,
            None => self.registers = Arc::new(table),
        }
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

/// Visit every loop in `ops` (depth-first) with a mutable visitor.
pub(crate) fn visit_loops_mut(ops: &mut [IrOp], visitor: &mut dyn FnMut(&mut IrOp)) {
    for op in ops {
        match op {
            IrOp::Loop { .. } => {
                visitor(op);
                if let IrOp::Loop { body, .. } = op {
                    visit_loops_mut(body, visitor);
                }
            }
            IrOp::While { cond_ops, body, .. } => {
                visit_loops_mut(cond_ops, visitor);
                visit_loops_mut(body, visitor);
            }
            IrOp::If {
                then_body,
                else_body,
                ..
            } => {
                visit_loops_mut(then_body, visitor);
                visit_loops_mut(else_body, visitor);
            }
            _ => {}
        }
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
        let mut out = format!("; module {} (from {})\n", self.name, self.source_file);
        for f in &self.functions {
            let params: Vec<String> = f
                .params
                .iter()
                .zip(f.registers.iter())
                .map(|(t, n)| format!("{t} %{n}"))
                .collect();
            out += &format!(
                "define {} @{}({}) {{\n",
                f.return_type,
                f.name,
                params.join(", ")
            );
            render_ops(&f.body, &f.registers, 1, &mut out);
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
fn render_ops(ops: &[IrOp], names: &Registers, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let reg = |r: &u32| format!("%{}", &names[*r]);
    let opd = |o: &Operand| match *o {
        Operand::Reg(r) => reg(&r),
        Operand::ImmInt(v) => format!("{v}"),
        Operand::ImmFloat(v) => format!("{v:?}"),
    };
    for op in ops {
        let line = match op {
            IrOp::Const { dest, value } => format!("{} = const {}", reg(dest), opd(value)),
            IrOp::Move { dest, src } => format!("{} = mov {}", reg(dest), opd(src)),
            IrOp::Bin { dest, op, lhs, rhs } => {
                format!("{} = {op:?} {}, {}", reg(dest), opd(lhs), opd(rhs))
            }
            IrOp::Un { dest, not, operand } => format!(
                "{} = {} {}",
                reg(dest),
                if *not { "not" } else { "neg" },
                opd(operand)
            ),
            IrOp::Load { dest, base, index } => {
                format!("{} = load {}[{}]", reg(dest), reg(base), opd(index))
            }
            IrOp::Store { base, index, value } => {
                format!("store {}[{}] = {}", reg(base), opd(index), opd(value))
            }
            IrOp::Call { dest, callee, args } => {
                let args: Vec<String> = args.iter().map(opd).collect();
                match dest {
                    Some(d) => format!("{} = call @{callee}({})", reg(d), args.join(", ")),
                    None => format!("call @{callee}({})", args.join(", ")),
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
                let attrs = if attrs.is_empty() {
                    String::new()
                } else {
                    format!("[{}] ", attrs.join(", "))
                };
                out.push_str(&format!(
                    "{pad}loop {} = {} .. {} step {step} {attrs}{{\n",
                    reg(var),
                    opd(start),
                    opd(end)
                ));
                render_ops(body, names, indent + 1, out);
                "}".to_string()
            }
            IrOp::While { cond, body, .. } => {
                out.push_str(&format!("{pad}while {} {{\n", reg(cond)));
                render_ops(body, names, indent + 1, out);
                "}".to_string()
            }
            IrOp::If {
                cond,
                then_body,
                else_body,
            } => {
                out.push_str(&format!("{pad}if {} {{\n", reg(cond)));
                render_ops(then_body, names, indent + 1, out);
                if !else_body.is_empty() {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    render_ops(else_body, names, indent + 1, out);
                }
                "}".to_string()
            }
            IrOp::Return { value } => match value {
                Some(v) => format!("ret {}", opd(v)),
                None => "ret void".to_string(),
            },
        };
        out.push_str(&format!("{pad}{line}\n"));
    }
}

// ---------------------------------------------------------------------------
// Numbering: one register per distinct name, in a canonical order.
// ---------------------------------------------------------------------------

/// A function's register names, back to back in one buffer: register `r` is
/// `registers[r]`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Registers {
    text: String,
    /// Where each name ends in `text`.
    ends: Vec<u32>,
}

impl Registers {
    /// The number of registers.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no registers.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The names in register order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len() as u32).map(|r| &self[r])
    }

    /// Name one more register `name`, and return its number.
    fn push(&mut self, name: &str) -> u32 {
        self.text.push_str(name);
        self.ends.push(self.text.len() as u32);
        self.ends.len() as u32 - 1
    }
}

impl std::ops::Index<u32> for Registers {
    type Output = str;

    fn index(&self, r: u32) -> &str {
        let end = self.ends[r as usize] as usize;
        let start = match r {
            0 => 0,
            _ => self.ends[r as usize - 1] as usize,
        };
        &self.text[start..end]
    }
}

impl std::fmt::Debug for Registers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A set of a function's registers: one bit per register.
pub(crate) struct RegSet(Vec<u64>);

impl RegSet {
    /// The empty set over `count` registers.
    pub(crate) fn new(count: usize) -> Self {
        RegSet(vec![0; count.div_ceil(64)])
    }

    pub(crate) fn insert(&mut self, r: u32) {
        self.0[r as usize / 64] |= 1 << (r % 64);
    }

    pub(crate) fn contains(&self, r: u32) -> bool {
        self.0[r as usize / 64] & (1 << (r % 64)) != 0
    }

    /// The registers in both sets, in index order.
    pub(crate) fn intersection<'a>(&'a self, other: &'a RegSet) -> impl Iterator<Item = u32> + 'a {
        let words = self.0.iter().zip(&other.0).map(|(a, b)| a & b);
        words.enumerate().flat_map(|(w, mut bits)| {
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    w as u32 * 64 + bit
                })
            })
        })
    }
}

/// Provisional register numbers, handed out while a function is lowered or read:
/// one per distinct name, in the order the names are first seen.
pub(crate) struct Interner {
    names: Registers,
    /// The numbers of `names`, sorted by name.
    sorted: Vec<u32>,
}

impl Default for Interner {
    fn default() -> Self {
        // Sized for a kernel's registers: the tables rarely grow.
        Interner {
            names: Registers {
                text: String::with_capacity(64),
                ends: Vec::with_capacity(16),
            },
            sorted: Vec::with_capacity(16),
        }
    }
}

impl Interner {
    /// The register named `name`, numbered now if it is new.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        match self.find(name) {
            Ok(at) => self.sorted[at],
            Err(at) => {
                let r = self.names.push(name);
                self.sorted.insert(at, r);
                r
            }
        }
    }

    /// A new register for the next parameter, `name`: the name is this
    /// register's from now on, even when an earlier parameter had it too.
    pub(crate) fn param(&mut self, name: &str) -> u32 {
        let r = self.names.push(name);
        match self.find(name) {
            Ok(at) => self.sorted[at] = r,
            Err(at) => self.sorted.insert(at, r),
        }
        r
    }

    fn find(&self, name: &str) -> Result<usize, usize> {
        let names = &self.names;
        self.sorted.binary_search_by(|&r| names[r].cmp(name))
    }

    /// The names, numbered in the order they were first seen.
    pub(crate) fn into_names(self) -> Registers {
        self.names
    }
}

/// Renumber `body`, whose register `r` is named `names[r]`, so that parameter `i`
/// (register `params[i]`) is register `i` and every other register follows in the
/// order the encoding first writes it. Returns the new name table, which holds no
/// name `body` does not name besides the parameters'.
pub(crate) fn number(
    names: &Registers,
    params: impl Iterator<Item = u32> + Clone,
    body: &mut [IrOp],
) -> Registers {
    const UNSET: u32 = u32::MAX;
    let mut map = vec![UNSET; names.len()];
    let mut table = Registers {
        text: String::with_capacity(names.text.len()),
        ends: Vec::with_capacity(names.len()),
    };
    for p in params {
        map[p as usize] = table.push(&names[p]);
    }
    fn first_written(ops: &[IrOp], each: &mut impl FnMut(u32)) {
        for op in ops {
            op.fields(&mut |_, field| match field {
                Field::Reg(r) => r.into_iter().for_each(&mut *each),
                Field::Operand(o) => o.and_then(Operand::reg).into_iter().for_each(&mut *each),
                Field::Operands(args) => args.iter().filter_map(Operand::reg).for_each(&mut *each),
                Field::Ops(ops) => first_written(ops, each),
                Field::Plain(_) => {}
            });
        }
    }
    first_written(body, &mut |r| {
        if map[r as usize] == UNSET {
            map[r as usize] = table.push(&names[r]);
        }
    });
    for op in body.iter_mut() {
        op.regs_mut(&mut |r| *r = map[*r as usize]);
    }
    table
}

// ---------------------------------------------------------------------------
// The JSON codec. Every register is written by its name, field by field in the
// derive's key order: these bytes are the bitcode and the machine bytes that unit
// ids, keys and images are digests of.
// ---------------------------------------------------------------------------

/// One field of an op's JSON object, borrowed from the op.
#[derive(Clone, Copy)]
enum Field<'a> {
    /// A register, written as its name, or `null`.
    Reg(Option<u32>),
    /// An operand (`{"Reg":name}`, `{"ImmInt":v}` or `{"ImmFloat":v}`) or `null`.
    Operand(Option<&'a Operand>),
    /// An array of operands.
    Operands(&'a [Operand]),
    /// A region: an array of ops.
    Ops(&'a [IrOp]),
    /// A value that names no register.
    Plain(&'a dyn Serialize),
}

fn write_operand(operand: &Operand, names: &Registers, out: &mut String) {
    match *operand {
        Operand::Reg(r) => {
            out.push_str("{\"Reg\":");
            names[r].write_json(out);
        }
        Operand::ImmInt(v) => {
            out.push_str("{\"ImmInt\":");
            v.write_json(out);
        }
        Operand::ImmFloat(v) => {
            out.push_str("{\"ImmFloat\":");
            v.write_json(out);
        }
    }
    out.push('}');
}

fn write_field(field: Field<'_>, names: &Registers, out: &mut String) {
    match field {
        Field::Reg(Some(r)) => names[r].write_json(out),
        Field::Reg(None) | Field::Operand(None) => out.push_str("null"),
        Field::Operand(Some(o)) => write_operand(o, names, out),
        Field::Operands(args) => {
            out.push('[');
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_operand(arg, names, out);
            }
            out.push(']');
        }
        Field::Ops(ops) => write_ops(ops, names, out),
        Field::Plain(value) => value.write_json(out),
    }
}

/// Append `ops` as the JSON array the encoding holds, registers named from `names`.
pub(crate) fn write_ops(ops: &[IrOp], names: &Registers, out: &mut String) {
    out.push('[');
    for (i, op) in ops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"");
        out.push_str(op.tag());
        out.push_str("\":{");
        let mut first = true;
        op.fields(&mut |key, field| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            write_field(field, names, out);
        });
        out.push_str("}}");
    }
    out.push(']');
}

/// Append the parameter list `[[name,type],…]`: parameter `i` is named `names[i]`.
pub(crate) fn write_params(params: &[Type], names: &Registers, out: &mut String) {
    out.push('[');
    for (i, (ty, name)) in params.iter().zip(names.iter()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        (name, ty).write_json(out);
    }
    out.push(']');
}

/// A one-entry object `{tag: inner}`: an externally tagged variant.
fn tagged(tag: &str, inner: Value) -> Value {
    let mut object = Map::new();
    object.insert(tag.to_string(), inner);
    Value::Object(object)
}

fn operand_value(operand: &Operand, names: &Registers) -> Value {
    match *operand {
        Operand::Reg(r) => tagged("Reg", names[r].to_value()),
        Operand::ImmInt(v) => tagged("ImmInt", v.to_value()),
        Operand::ImmFloat(v) => tagged("ImmFloat", v.to_value()),
    }
}

fn field_value(field: Field<'_>, names: &Registers) -> Value {
    match field {
        Field::Reg(Some(r)) => names[r].to_value(),
        Field::Reg(None) | Field::Operand(None) => Value::Null,
        Field::Operand(Some(o)) => operand_value(o, names),
        Field::Operands(args) => {
            Value::Array(args.iter().map(|a| operand_value(a, names)).collect())
        }
        Field::Ops(ops) => ops_value(ops, names),
        Field::Plain(value) => value.to_value(),
    }
}

/// `ops` as the [`Value`] tree of their JSON array.
pub(crate) fn ops_value(ops: &[IrOp], names: &Registers) -> Value {
    let op_value = |op: &IrOp| {
        let mut object = Map::new();
        op.fields(&mut |key, field| {
            object.insert(key.to_string(), field_value(field, names));
        });
        tagged(op.tag(), Value::Object(object))
    };
    Value::Array(ops.iter().map(op_value).collect())
}

/// The parameter list as the [`Value`] tree [`write_params`] writes.
pub(crate) fn params_value(params: &[Type], names: &Registers) -> Value {
    let pairs = params.iter().zip(names.iter());
    let pairs = pairs.map(|(ty, name)| (name, ty).to_value());
    Value::Array(pairs.collect())
}

/// What a function's JSON is read from: text at a [`Reader`]'s cursor, or a parsed
/// [`Value`] tree ([`Tree`]). Both reads run the code below, so the typed read and
/// the tree read agree by construction.
pub(crate) trait Source: Sized {
    /// A value of a type with its own `Deserialize`.
    fn read<T: Deserialize>(&mut self) -> Result<T, Error>;
    /// A string.
    fn name(&mut self) -> Result<Cow<'_, str>, Error>;
    /// Whether the value is `null`, which is then consumed.
    fn null(&mut self) -> bool;
    /// Each element of an array.
    fn elements(&mut self, each: impl FnMut(&mut Self) -> Result<(), Error>) -> Result<(), Error>;
    /// Each entry of an object: `each` returns `false` for a key it has no slot
    /// for, whose value is then skipped.
    fn entries(
        &mut self,
        expected: &str,
        each: impl FnMut(&str, &mut Self) -> Result<bool, Error>,
    ) -> Result<(), Error>;
    /// The error for a key the object being read already had.
    fn duplicate(&self) -> Error;
}

impl Source for Reader<'_> {
    fn read<T: Deserialize>(&mut self) -> Result<T, Error> {
        T::read_json(self)
    }

    fn name(&mut self) -> Result<Cow<'_, str>, Error> {
        match self.peek() {
            Some(b'"') => self.string(),
            _ => self.mismatch("string"),
        }
    }

    fn null(&mut self) -> bool {
        self.eat("null")
    }

    fn elements(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let mut first = self.begin_array("array")?;
        while self.next_element(&mut first)? {
            each(self)?;
        }
        Ok(())
    }

    fn entries(
        &mut self,
        expected: &str,
        mut each: impl FnMut(&str, &mut Self) -> Result<bool, Error>,
    ) -> Result<(), Error> {
        let mut first = self.begin_object(expected)?;
        let mut seen = BTreeSet::new();
        while let Some(key) = self.next_key(&mut first)? {
            if !each(&key, self)? {
                self.skip_field(&mut seen, key)?;
            }
        }
        Ok(())
    }

    fn duplicate(&self) -> Error {
        self.duplicate_key()
    }
}

/// A parsed [`Value`] read as a [`Source`].
pub(crate) struct Tree<'v>(pub(crate) &'v Value);

impl Tree<'_> {
    fn mismatch(&self, expected: &str) -> Error {
        Error::custom(format!(
            "invalid type: expected {expected}, found {}",
            self.0.kind()
        ))
    }
}

impl Source for Tree<'_> {
    fn read<T: Deserialize>(&mut self) -> Result<T, Error> {
        T::from_value(self.0)
    }

    fn name(&mut self) -> Result<Cow<'_, str>, Error> {
        match self.0 {
            Value::String(s) => Ok(Cow::Borrowed(s)),
            _ => Err(self.mismatch("string")),
        }
    }

    fn null(&mut self) -> bool {
        matches!(self.0, Value::Null)
    }

    fn elements(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        match self.0 {
            Value::Array(items) => items.iter().try_for_each(|item| each(&mut Tree(item))),
            _ => Err(self.mismatch("array")),
        }
    }

    fn entries(
        &mut self,
        expected: &str,
        mut each: impl FnMut(&str, &mut Self) -> Result<bool, Error>,
    ) -> Result<(), Error> {
        match self.0 {
            Value::Object(entries) => entries
                .iter()
                .try_for_each(|(key, value)| each(key, &mut Tree(value)).map(drop)),
            _ => Err(self.mismatch(expected)),
        }
    }

    fn duplicate(&self) -> Error {
        Error::custom("duplicate key")
    }
}

/// Fill `slot` from the source, once: a second value for it is a duplicate key.
pub(crate) fn fill<S: Source, T>(
    slot: &mut Option<T>,
    s: &mut S,
    read: impl FnOnce(&mut S) -> Result<T, Error>,
) -> Result<bool, Error> {
    if slot.is_some() {
        return Err(s.duplicate());
    }
    *slot = Some(read(s)?);
    Ok(true)
}

/// A filled slot's value, or the error for the absent field `key`.
pub(crate) fn need<T>(slot: Option<T>, key: &str) -> Result<T, Error> {
    slot.ok_or_else(|| Error::custom(format!("missing field `{key}`")))
}

/// Read a register name and number it.
fn reg<S: Source>(s: &mut S, regs: &mut Interner) -> Result<u32, Error> {
    Ok(regs.intern(&s.name()?))
}

/// A one-key object `{tag: …}`, its value read by `inner(tag, …)`.
fn variant<S: Source, T>(
    s: &mut S,
    mut inner: impl FnMut(&str, &mut S) -> Result<T, Error>,
) -> Result<T, Error> {
    let mut value = None;
    s.entries("single-key variant object", |tag, s| {
        if value.is_some() {
            return Err(Error::custom(
                "expected single-key variant object, found more keys",
            ));
        }
        value = Some(inner(tag, s)?);
        Ok(true)
    })?;
    value.ok_or_else(|| Error::custom("expected single-key variant object, found an empty object"))
}

fn unknown_variant<T>(tag: &str, of: &str) -> Result<T, Error> {
    Err(Error::custom(format!("unknown variant `{tag}` for `{of}`")))
}

fn operand<S: Source>(s: &mut S, regs: &mut Interner) -> Result<Operand, Error> {
    variant(s, |tag, s| match tag {
        "Reg" => reg(s, regs).map(Operand::Reg),
        "ImmInt" => s.read().map(Operand::ImmInt),
        "ImmFloat" => s.read().map(Operand::ImmFloat),
        _ => unknown_variant(tag, "Operand"),
    })
}

/// One slot per key an op's object can have. A key of another variant is read
/// into its slot and dropped; a key no variant has is skipped.
#[derive(Default)]
struct Slots {
    dest: Option<Option<u32>>,
    value: Option<Option<Operand>>,
    src: Option<Operand>,
    lhs: Option<Operand>,
    rhs: Option<Operand>,
    operand: Option<Operand>,
    index: Option<Operand>,
    start: Option<Operand>,
    end: Option<Operand>,
    op: Option<BinOp>,
    not: Option<bool>,
    parallel: Option<bool>,
    simd_hint: Option<bool>,
    prevectorization_blocked: Option<bool>,
    base: Option<u32>,
    var: Option<u32>,
    cond: Option<u32>,
    callee: Option<String>,
    args: Option<Vec<Operand>>,
    step: Option<i64>,
    vector_width: Option<Option<u32>>,
    body: Option<Vec<IrOp>>,
    cond_ops: Option<Vec<IrOp>>,
    then_body: Option<Vec<IrOp>>,
    else_body: Option<Vec<IrOp>>,
}

impl Slots {
    fn fill<S: Source>(
        &mut self,
        key: &str,
        s: &mut S,
        regs: &mut Interner,
    ) -> Result<bool, Error> {
        let opt_reg = |s: &mut S, regs: &mut Interner| match s.null() {
            true => Ok(None),
            false => reg(s, regs).map(Some),
        };
        match key {
            "dest" => fill(&mut self.dest, s, |s| opt_reg(s, regs)),
            "value" => fill(&mut self.value, s, |s| match s.null() {
                true => Ok(None),
                false => operand(s, regs).map(Some),
            }),
            "src" => fill(&mut self.src, s, |s| operand(s, regs)),
            "lhs" => fill(&mut self.lhs, s, |s| operand(s, regs)),
            "rhs" => fill(&mut self.rhs, s, |s| operand(s, regs)),
            "operand" => fill(&mut self.operand, s, |s| operand(s, regs)),
            "index" => fill(&mut self.index, s, |s| operand(s, regs)),
            "start" => fill(&mut self.start, s, |s| operand(s, regs)),
            "end" => fill(&mut self.end, s, |s| operand(s, regs)),
            "op" => fill(&mut self.op, s, S::read),
            "not" => fill(&mut self.not, s, S::read),
            "parallel" => fill(&mut self.parallel, s, S::read),
            "simd_hint" => fill(&mut self.simd_hint, s, S::read),
            "prevectorization_blocked" => fill(&mut self.prevectorization_blocked, s, S::read),
            "base" => fill(&mut self.base, s, |s| reg(s, regs)),
            "var" => fill(&mut self.var, s, |s| reg(s, regs)),
            "cond" => fill(&mut self.cond, s, |s| reg(s, regs)),
            "callee" => fill(&mut self.callee, s, S::read),
            "args" => fill(&mut self.args, s, |s| {
                let mut args = Vec::new();
                s.elements(|s| {
                    args.push(operand(s, regs)?);
                    Ok(())
                })?;
                Ok(args)
            }),
            "step" => fill(&mut self.step, s, S::read),
            "vector_width" => fill(&mut self.vector_width, s, S::read),
            "body" => fill(&mut self.body, s, |s| read_ops(s, regs)),
            "cond_ops" => fill(&mut self.cond_ops, s, |s| read_ops(s, regs)),
            "then_body" => fill(&mut self.then_body, s, |s| read_ops(s, regs)),
            "else_body" => fill(&mut self.else_body, s, |s| read_ops(s, regs)),
            _ => Ok(false),
        }
    }

    /// The op of variant `tag` made of the slots: an absent optional field is
    /// `None`, any other absent field an error.
    fn into_op(self, tag: &str) -> Result<IrOp, Error> {
        let dest = |dest: Option<Option<u32>>| match need(dest, "dest")? {
            Some(r) => Ok(r),
            None => Err(Error::custom(
                "field `dest`: invalid type: expected string, found null",
            )),
        };
        let value = |value: Option<Option<Operand>>| match need(value, "value")? {
            Some(v) => Ok(v),
            None => Err(Error::custom(
                "field `value`: invalid type: expected object, found null",
            )),
        };
        Ok(match tag {
            "Const" => IrOp::Const {
                dest: dest(self.dest)?,
                value: value(self.value)?,
            },
            "Move" => IrOp::Move {
                dest: dest(self.dest)?,
                src: need(self.src, "src")?,
            },
            "Bin" => IrOp::Bin {
                dest: dest(self.dest)?,
                lhs: need(self.lhs, "lhs")?,
                op: need(self.op, "op")?,
                rhs: need(self.rhs, "rhs")?,
            },
            "Un" => IrOp::Un {
                dest: dest(self.dest)?,
                not: need(self.not, "not")?,
                operand: need(self.operand, "operand")?,
            },
            "Load" => IrOp::Load {
                base: need(self.base, "base")?,
                dest: dest(self.dest)?,
                index: need(self.index, "index")?,
            },
            "Store" => IrOp::Store {
                base: need(self.base, "base")?,
                index: need(self.index, "index")?,
                value: value(self.value)?,
            },
            "Call" => IrOp::Call {
                args: need(self.args, "args")?,
                callee: need(self.callee, "callee")?,
                dest: self.dest.flatten(),
            },
            "Loop" => IrOp::Loop {
                body: need(self.body, "body")?,
                end: need(self.end, "end")?,
                parallel: need(self.parallel, "parallel")?,
                prevectorization_blocked: need(
                    self.prevectorization_blocked,
                    "prevectorization_blocked",
                )?,
                simd_hint: need(self.simd_hint, "simd_hint")?,
                start: need(self.start, "start")?,
                step: need(self.step, "step")?,
                var: need(self.var, "var")?,
                vector_width: self.vector_width.flatten(),
            },
            "While" => IrOp::While {
                body: need(self.body, "body")?,
                cond: need(self.cond, "cond")?,
                cond_ops: need(self.cond_ops, "cond_ops")?,
            },
            "If" => IrOp::If {
                cond: need(self.cond, "cond")?,
                else_body: need(self.else_body, "else_body")?,
                then_body: need(self.then_body, "then_body")?,
            },
            "Return" => IrOp::Return {
                value: self.value.flatten(),
            },
            _ => return unknown_variant(tag, "IrOp"),
        })
    }
}

fn read_ops<S: Source>(s: &mut S, regs: &mut Interner) -> Result<Vec<IrOp>, Error> {
    let mut ops = Vec::new();
    s.elements(|s| {
        let op = variant(s, |tag, s| {
            let mut slots = Slots::default();
            s.entries("object for an `IrOp` variant", |key, s| {
                slots.fill(key, s, regs)
            })?;
            slots.into_op(tag)
        })?;
        ops.push(op);
        Ok(())
    })?;
    Ok(ops)
}

/// What an IR or machine function's object holds besides its scalar fields.
pub(crate) struct Code {
    pub(crate) params: Vec<Type>,
    pub(crate) body: Vec<IrOp>,
    pub(crate) registers: Arc<Registers>,
}

/// A function's code read from its JSON object, numbered canonically. Its keys
/// besides `body` and `params` go to `other`, which returns `false` for a key it has
/// no slot for.
pub(crate) fn read_code<S: Source>(
    s: &mut S,
    expected: &str,
    mut other: impl FnMut(&str, &mut S) -> Result<bool, Error>,
) -> Result<Code, Error> {
    let mut regs = Interner::default();
    let (mut body, mut params) = (None, None);
    s.entries(expected, |key, s| match key {
        "body" => fill(&mut body, s, |s| read_ops(s, &mut regs)),
        "params" => fill(&mut params, s, |s| {
            let (mut names, mut types) = (Vec::new(), Vec::new());
            s.elements(|s| {
                let mut len = 0;
                s.elements(|s| {
                    match len {
                        0 => names.push(reg(s, &mut regs)?),
                        1 => types.push(s.read()?),
                        _ => return Err(Error::custom("wrong tuple length for a parameter")),
                    }
                    len += 1;
                    Ok(())
                })?;
                match len {
                    2 => Ok(()),
                    _ => Err(Error::custom("wrong tuple length for a parameter")),
                }
            })?;
            Ok((names, types))
        }),
        _ => other(key, s),
    })?;
    let mut body = need(body, "body")?;
    let (params, types) = need(params, "params")?;
    let registers = number(&regs.into_names(), params.into_iter(), &mut body);
    Ok(Code {
        params: types,
        body,
        registers: Arc::new(registers),
    })
}

impl Serialize for IrFunction {
    fn to_value(&self) -> Value {
        let mut object = Map::new();
        let names = &self.registers;
        object.insert("body".to_string(), ops_value(&self.body, names));
        object.insert("is_kernel".to_string(), self.is_kernel.to_value());
        object.insert("name".to_string(), self.name.to_value());
        object.insert("params".to_string(), params_value(&self.params, names));
        object.insert("return_type".to_string(), self.return_type.to_value());
        Value::Object(object)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"body\":");
        write_ops(&self.body, &self.registers, out);
        out.push_str(",\"is_kernel\":");
        self.is_kernel.write_json(out);
        out.push_str(",\"name\":");
        self.name.write_json(out);
        out.push_str(",\"params\":");
        write_params(&self.params, &self.registers, out);
        out.push_str(",\"return_type\":");
        self.return_type.write_json(out);
        out.push('}');
    }
}

impl IrFunction {
    fn read<S: Source>(s: &mut S) -> Result<Self, Error> {
        let (mut is_kernel, mut name, mut return_type) = (None, None, None);
        let code = read_code(s, "object for `IrFunction`", |key, s| match key {
            "is_kernel" => fill(&mut is_kernel, s, S::read),
            "name" => fill(&mut name, s, S::read),
            "return_type" => fill(&mut return_type, s, S::read),
            _ => Ok(false),
        })?;
        Ok(IrFunction {
            name: need(name, "name")?,
            is_kernel: need(is_kernel, "is_kernel")?,
            return_type: need(return_type, "return_type")?,
            params: code.params,
            body: code.body,
            registers: code.registers,
        })
    }
}

impl Deserialize for IrFunction {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Self::read(&mut Tree(value))
    }

    fn read_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        Self::read(reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(names: &[&str]) -> Registers {
        let mut table = Registers::default();
        for name in names {
            table.push(name);
        }
        table
    }

    /// `axpy` with its registers numbered canonically: the parameters `y x a n`,
    /// then the body's registers in the order the encoding first writes them (a
    /// loop's body before its bounds and variable).
    fn axpy_ir() -> IrModule {
        let names = ["y", "x", "a", "n", "t0", "i", "t1", "t2", "t3"];
        let [y, x, a, n, t0, i, t1, t2, t3] = [0, 1, 2, 3, 4, 5, 6, 7, 8];
        IrModule {
            name: "axpy".into(),
            source_file: "axpy.ck".into(),
            metadata: ModuleMetadata::default(),
            functions: vec![IrFunction {
                name: "axpy".into(),
                is_kernel: true,
                return_type: Type::Void,
                params: vec![Type::FloatPtr, Type::FloatPtr, Type::Float, Type::Int],
                registers: Arc::new(table(&names)),
                body: vec![IrOp::Loop {
                    var: i,
                    start: Operand::ImmInt(0),
                    end: Operand::Reg(n),
                    step: 1,
                    parallel: true,
                    simd_hint: false,
                    vector_width: None,
                    prevectorization_blocked: false,
                    body: vec![
                        IrOp::Load {
                            dest: t0,
                            base: x,
                            index: Operand::Reg(i),
                        },
                        IrOp::Bin {
                            dest: t1,
                            op: BinOp::Mul,
                            lhs: Operand::Reg(a),
                            rhs: Operand::Reg(t0),
                        },
                        IrOp::Load {
                            dest: t2,
                            base: y,
                            index: Operand::Reg(i),
                        },
                        IrOp::Bin {
                            dest: t3,
                            op: BinOp::Add,
                            lhs: Operand::Reg(t2),
                            rhs: Operand::Reg(t1),
                        },
                        IrOp::Store {
                            base: y,
                            index: Operand::Reg(i),
                            value: Operand::Reg(t3),
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
            dest: 7,
            op: BinOp::Add,
            lhs: Operand::Reg(3),
            rhs: Operand::ImmInt(1),
        };
        assert_eq!(op.dest(), Some(7));
        assert_eq!(op.uses().collect::<Vec<_>>(), vec![3]);
        assert!(!op.has_side_effects());
        let store = IrOp::Store {
            base: 0,
            index: Operand::Reg(2),
            value: Operand::Reg(1),
        };
        assert!(store.has_side_effects());
        assert_eq!(store.uses().collect::<Vec<_>>(), vec![2, 1]);
        let call = IrOp::Call {
            dest: None,
            callee: "f".into(),
            args: vec![Operand::Reg(4), Operand::ImmFloat(1.0), Operand::Reg(5)],
        };
        assert_eq!(call.uses().collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn text_rendering_mentions_loops_and_stores() {
        let text = axpy_ir().to_text();
        assert!(text.contains("define void @axpy"));
        assert!(text.contains("loop %i"));
        assert!(text.contains("store %y"));
        assert!(text.contains("[parallel]"));
    }

    #[test]
    fn serde_roundtrip_preserves_module() {
        let module = axpy_ir();
        let json = serde_json::to_string(&module).unwrap();
        let back: IrModule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, module);
        let tree: IrModule = serde_json::from_value(&serde_json::to_value(&module)).unwrap();
        assert_eq!(tree, module);
        assert_eq!(serde_json::to_value(&module).to_string(), json);
    }

    #[test]
    fn registers_are_spelled_by_name_in_the_encoding() {
        let json = serde_json::to_string(&axpy_ir().functions[0]).unwrap();
        assert!(json.starts_with(
            "{\"body\":[{\"Loop\":{\"body\":[{\"Load\":{\"base\":\"x\",\"dest\":\"t0\",\
             \"index\":{\"Reg\":\"i\"}}},"
        ));
        assert!(json.ends_with(
            "\"params\":[[\"y\",\"FloatPtr\"],[\"x\",\"FloatPtr\"],[\"a\",\"Float\"],\
             [\"n\",\"Int\"]],\"return_type\":\"Void\"}"
        ));
    }

    #[test]
    fn numbering_is_canonical_whatever_order_names_were_seen_in() {
        let mut regs = Interner::default();
        assert_eq!(
            [regs.intern("b"), regs.intern("a"), regs.intern("b")],
            [0, 1, 0]
        );
        assert_eq!(regs.param("b"), 2, "a parameter is a register of its own");
        assert_eq!(regs.intern("b"), 2, "and its name is its own from then on");
        assert_eq!(regs.into_names(), table(&["b", "a", "b"]));
        // `axpy` numbered in lowering order, with a name no op reads left over:
        // the parameters, then `i`, then the temporaries as they were made.
        let canonical = axpy_ir().functions.remove(0);
        let order = [0, 1, 2, 3, 5, 4, 6, 7, 8];
        let mut names = table(&order.map(|c| &canonical.registers[c]));
        names.push("dead");
        let mut body = canonical.body.clone();
        for op in &mut body {
            op.regs_mut(&mut |r| *r = order.iter().position(|&c| c == *r).unwrap() as u32);
        }
        assert_ne!(body, canonical.body);
        assert_eq!(number(&names, 0..4, &mut body), *canonical.registers);
        assert_eq!(body, canonical.body);
    }

    #[test]
    fn register_sets_hold_numbers_past_one_word() {
        let (mut a, mut b) = (RegSet::new(130), RegSet::new(130));
        [0, 63, 64, 129].into_iter().for_each(|r| a.insert(r));
        [63, 64, 100, 129].into_iter().for_each(|r| b.insert(r));
        assert!(a.contains(129) && !a.contains(100));
        assert_eq!(a.intersection(&b).collect::<Vec<_>>(), vec![63, 64, 129]);
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

    #[test]
    fn ops_and_operands_are_small() {
        assert_eq!(std::mem::size_of::<Operand>(), 16);
        assert!(std::mem::size_of::<IrOp>() <= 80);
    }
}
