//! Target ISAs, the deployment-time vectoriser, and lowering of IR to a machine module.
//!
//! Lowering is the stage the XaaS IR container delays: the IR shipped in the container
//! is target-agnostic, and only at deployment — once the system's ISA is known — do we
//! pick the vector width, run the loop vectoriser, and freeze a [`MachineModule`]
//! (Section 4.3.1, "Code Generation").

use crate::ast::{BinOp, Type};
use crate::ir::{
    fill, need, ops_value, params_value, read_code, visit_loops_mut, write_ops, write_params,
    IrModule, IrOp, Operand, RegSet, Registers, Source, Tree,
};
use serde::{Deserialize, Error, Map, Reader, Serialize, Value};
use std::fmt;
use std::sync::Arc;

/// A code-generation target: named ISA plus its vector width in f64 lanes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TargetIsa {
    /// ISA name (e.g. `x86-64-avx512`, `aarch64-neon`, or a GROMACS-style SIMD level).
    pub name: String,
    /// Vector lanes available (1 = scalar only).
    pub vector_width: u32,
    /// Whether fused multiply-add is available (affects instruction counts, not results).
    pub fma: bool,
}

impl TargetIsa {
    /// A scalar-only target (used by the "None" vectorisation level).
    pub fn scalar(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            vector_width: 1,
            fma: false,
        }
    }

    /// Construct a vector target.
    pub fn vector(name: impl Into<String>, vector_width: u32, fma: bool) -> Self {
        Self {
            name: name.into(),
            vector_width: vector_width.max(1),
            fma,
        }
    }
}

impl fmt::Display for TargetIsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (width {})", self.name, self.vector_width)
    }
}

/// Why a loop could not be vectorised.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum VectorizationBlock {
    /// The loop body calls a function (no inlining in this substrate).
    ContainsCall(String),
    /// The loop contains nested control flow.
    ContainsControlFlow,
    /// A scalar loop-carried dependence that is not a recognised reduction.
    LoopCarriedDependence(String),
    /// The loop step is not 1.
    NonUnitStride,
    /// Early scalar optimisation destroyed the structured form (Section 4.3's observation
    /// that optimisation must be delayed until deployment).
    PrematureOptimization,
}

/// The outcome of vectorising one loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopVectorization {
    /// Function containing the loop.
    pub function: String,
    /// Induction variable name (identifies the loop for reporting).
    pub loop_var: String,
    /// Width achieved (1 = not vectorised).
    pub width: u32,
    /// Reason vectorisation was blocked, if it was.
    pub blocked: Option<VectorizationBlock>,
}

/// Report of a vectorisation run over a module.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VectorizationReport {
    /// Per-loop outcomes.
    pub loops: Vec<LoopVectorization>,
}

impl VectorizationReport {
    /// Number of loops vectorised at width > 1.
    pub fn vectorized_count(&self) -> usize {
        self.loops.iter().filter(|l| l.width > 1).count()
    }

    /// Number of loops left scalar.
    pub fn scalar_count(&self) -> usize {
        self.loops.iter().filter(|l| l.width <= 1).count()
    }
}

/// Vectorise all counted loops in the module for the target ISA (in place) and return a
/// report. Safe to run repeatedly; re-running with a different target re-plans widths.
pub fn vectorize(module: &mut IrModule, target: &TargetIsa) -> VectorizationReport {
    let mut report = VectorizationReport::default();
    for function in &mut module.functions {
        vectorize_body(
            &function.name,
            &function.registers,
            &mut function.body,
            target,
            &mut report,
        );
    }
    report
}

/// Vectorise the counted loops of one function's `body`, whose registers are named
/// by `names`, adding an entry per loop to `report`.
fn vectorize_body(
    function: &str,
    names: &Registers,
    body: &mut [IrOp],
    target: &TargetIsa,
    report: &mut VectorizationReport,
) {
    visit_loops_mut(body, &mut |op| {
        if let IrOp::Loop {
            var,
            step,
            body,
            vector_width,
            prevectorization_blocked,
            ..
        } = op
        {
            let decision = decide(*var, *step, body, *prevectorization_blocked, names, target);
            let (width, blocked) = match decision {
                Ok(width) => (width, None),
                Err(block) => (1, Some(block)),
            };
            *vector_width = Some(width);
            report.loops.push(LoopVectorization {
                function: function.to_string(),
                loop_var: names[*var].to_string(),
                width,
                blocked,
            });
        }
    });
}

/// Known pure math intrinsics that do not block vectorisation.
const VECTORIZABLE_INTRINSICS: &[&str] = &["sqrt", "fabs", "fmin", "fmax", "exp", "log", "floor"];

fn decide(
    var: u32,
    step: i64,
    body: &[IrOp],
    prevectorization_blocked: bool,
    names: &Registers,
    target: &TargetIsa,
) -> Result<u32, VectorizationBlock> {
    if prevectorization_blocked {
        // The best we can do after premature scalar optimisation is a narrow fallback:
        // the structured trip pattern is gone, so wide re-vectorisation is not possible.
        return if target.vector_width > 1 {
            Ok(2.min(target.vector_width))
        } else {
            Ok(1)
        };
    }
    if step != 1 {
        return Err(VectorizationBlock::NonUnitStride);
    }
    if target.vector_width <= 1 {
        return Ok(1);
    }
    // Inspect the body: reject calls (except intrinsics) and nested control flow.
    for op in body {
        match op {
            IrOp::Call { callee, .. } if !VECTORIZABLE_INTRINSICS.contains(&callee.as_str()) => {
                return Err(VectorizationBlock::ContainsCall(callee.clone()));
            }
            IrOp::Loop { .. } | IrOp::While { .. } | IrOp::If { .. } => {
                return Err(VectorizationBlock::ContainsControlFlow)
            }
            _ => {}
        }
    }
    // Loop-carried dependence analysis on scalars: a register that is *read before it is
    // written* within the body and is also written carries a value across iterations.
    // The recognised exception is a reduction `acc = acc <op> expr` (sum/product), which
    // vector hardware handles with lane-wise partial accumulators.
    let mut first_read = RegSet::new(names.len());
    let mut written = RegSet::new(names.len());
    for op in body {
        for used in op.uses() {
            if used != var && !written.contains(used) {
                first_read.insert(used);
            }
        }
        if let Some(dest) = op.dest() {
            written.insert(dest);
        }
    }
    // The report names the carried register whose name sorts first.
    let carried = first_read
        .intersection(&written)
        .filter(|&carried| !is_reduction_of(carried, body))
        .map(|carried| &names[carried])
        .min();
    match carried {
        Some(name) => Err(VectorizationBlock::LoopCarriedDependence(name.to_string())),
        None => Ok(target.vector_width),
    }
}

/// Whether every write to `variable` inside `body` is a reduction update of the form
/// `variable = variable <op> expr` (possibly through one intermediate temporary).
fn is_reduction_of(variable: u32, body: &[IrOp]) -> bool {
    // Map from temporary to the op producing it, for one-level lookups.
    let producer = |r: u32| body.iter().find(|op| op.dest() == Some(r));
    let reads_variable = |op: &IrOp| op.uses().any(|u| u == variable);
    for op in body {
        if op.dest() != Some(variable) {
            continue;
        }
        let ok = match op {
            IrOp::Bin {
                op: BinOp::Add | BinOp::Mul | BinOp::Sub,
                ..
            } => reads_variable(op),
            IrOp::Move {
                src: Operand::Reg(temp),
                ..
            } => match producer(*temp) {
                Some(
                    def @ IrOp::Bin {
                        op: BinOp::Add | BinOp::Mul | BinOp::Sub,
                        ..
                    },
                ) => reads_variable(def),
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return false;
        }
    }
    true
}

/// A machine function: the (possibly vectorised) body frozen for one target.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineFunction {
    /// Function name.
    pub name: String,
    /// Whether it is an exported kernel.
    pub is_kernel: bool,
    /// Instruction count estimate after lowering (vector ops count once per lane group).
    pub instruction_count: usize,
    /// Widths used by the function's loops.
    pub loop_widths: Vec<u32>,
    /// The lowered body (shared representation with the IR; the interpreter executes it).
    pub body: Vec<IrOp>,
    /// Parameter types, as in the IR function: parameter `i` is register `i`.
    pub params: Vec<Type>,
    /// The name of each register, shared with the IR function lowered.
    pub registers: Arc<Registers>,
}

impl Serialize for MachineFunction {
    fn to_value(&self) -> Value {
        let mut object = Map::new();
        let names = &self.registers;
        object.insert("body".to_string(), ops_value(&self.body, names));
        object.insert(
            "instruction_count".to_string(),
            self.instruction_count.to_value(),
        );
        object.insert("is_kernel".to_string(), self.is_kernel.to_value());
        object.insert("loop_widths".to_string(), self.loop_widths.to_value());
        object.insert("name".to_string(), self.name.to_value());
        object.insert("params".to_string(), params_value(&self.params, names));
        Value::Object(object)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"body\":");
        write_ops(&self.body, &self.registers, out);
        out.push_str(",\"instruction_count\":");
        self.instruction_count.write_json(out);
        out.push_str(",\"is_kernel\":");
        self.is_kernel.write_json(out);
        out.push_str(",\"loop_widths\":");
        self.loop_widths.write_json(out);
        out.push_str(",\"name\":");
        self.name.write_json(out);
        out.push_str(",\"params\":");
        write_params(&self.params, &self.registers, out);
        out.push('}');
    }
}

impl MachineFunction {
    fn read<S: Source>(s: &mut S) -> Result<Self, Error> {
        let (mut instruction_count, mut is_kernel, mut loop_widths, mut name) =
            (None, None, None, None);
        let code = read_code(s, "object for `MachineFunction`", |key, s| match key {
            "instruction_count" => fill(&mut instruction_count, s, S::read),
            "is_kernel" => fill(&mut is_kernel, s, S::read),
            "loop_widths" => fill(&mut loop_widths, s, S::read),
            "name" => fill(&mut name, s, S::read),
            _ => Ok(false),
        })?;
        Ok(MachineFunction {
            name: need(name, "name")?,
            is_kernel: need(is_kernel, "is_kernel")?,
            instruction_count: need(instruction_count, "instruction_count")?,
            loop_widths: need(loop_widths, "loop_widths")?,
            body: code.body,
            params: code.params,
            registers: code.registers,
        })
    }
}

impl Deserialize for MachineFunction {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Self::read(&mut Tree(value))
    }

    fn read_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        Self::read(reader)
    }
}

/// The product of lowering an IR module for a target — the artifact a deployed container
/// actually ships.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineModule {
    /// Module name.
    pub name: String,
    /// The target it was lowered for.
    pub target: TargetIsa,
    /// Machine functions.
    pub functions: Vec<MachineFunction>,
    /// The vectorisation report produced during lowering.
    pub vectorization: VectorizationReport,
}

impl MachineModule {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&MachineFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Total instruction count estimate.
    #[cfg(test)]
    pub(crate) fn instruction_count(&self) -> usize {
        self.functions.iter().map(|f| f.instruction_count).sum()
    }
}

/// Lower an IR module to a machine module for `target`: vectorise one copy of the
/// functions, then move their bodies into the machine functions, which share the IR
/// functions' register names.
pub fn lower_to_machine(module: &IrModule, target: &TargetIsa) -> MachineModule {
    let mut vectorization = VectorizationReport::default();
    let functions = module
        .functions
        .iter()
        .cloned()
        .map(|mut f| {
            let first_loop = vectorization.loops.len();
            vectorize_body(
                &f.name,
                &f.registers,
                &mut f.body,
                target,
                &mut vectorization,
            );
            MachineFunction {
                instruction_count: estimate_instructions(&f.body, target),
                loop_widths: vectorization.loops[first_loop..]
                    .iter()
                    .map(|l| l.width)
                    .collect(),
                name: f.name,
                is_kernel: f.is_kernel,
                body: f.body,
                params: f.params,
                registers: f.registers,
            }
        })
        .collect();
    MachineModule {
        name: module.name.clone(),
        target: target.clone(),
        functions,
        vectorization,
    }
}

/// Estimate the lowered instruction count: vectorised loop bodies issue one instruction
/// per `width` lanes, FMA fuses multiply-add pairs.
fn estimate_instructions(body: &[IrOp], target: &TargetIsa) -> usize {
    fn count(ops: &[IrOp], fma: bool) -> usize {
        let mut total = 0usize;
        let mut iter = ops.iter().peekable();
        while let Some(op) = iter.next() {
            match op {
                IrOp::Loop {
                    body, vector_width, ..
                } => {
                    let width = vector_width.unwrap_or(1).max(1);
                    total += 2; // loop control
                    total += count(body, fma).div_ceil(width as usize);
                }
                IrOp::While { cond_ops, body, .. } => {
                    total += 2 + count(cond_ops, fma) + count(body, fma);
                }
                IrOp::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    total += 1 + count(then_body, fma) + count(else_body, fma);
                }
                IrOp::Bin { op: BinOp::Mul, .. } if fma => {
                    // A multiply immediately followed by a dependent add fuses into one FMA.
                    if matches!(iter.peek(), Some(IrOp::Bin { op: BinOp::Add, .. })) {
                        iter.next();
                    }
                    total += 1;
                }
                _ => total += 1,
            }
        }
        total
    }
    count(body, target.fma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, LowerOptions};
    use crate::parse::parse;
    use crate::passes::scalar_unroll;

    fn axpy_module() -> IrModule {
        let src = r#"
kernel void axpy(float* y, float* x, float a, int n) {
    for (int i = 0; i < n; i = i + 1) {
        y[i] = y[i] + a * x[i];
    }
}
"#;
        let unit = parse("axpy.ck", src).unwrap();
        lower(&unit, &LowerOptions::default()).unwrap()
    }

    fn avx512() -> TargetIsa {
        TargetIsa::vector("x86-64-avx512", 16, true)
    }

    #[test]
    fn machine_module_digest_is_deterministic_and_target_sensitive() {
        // What a content digest hashes: the module's serialised bytes.
        let bytes = |machine: &MachineModule| serde_json::to_vec(machine).unwrap();
        let module = axpy_module();
        assert_eq!(
            crate::bitcode::content_id(&module),
            crate::bitcode::content_id(&axpy_module())
        );
        let wide = lower_to_machine(&module, &avx512());
        let narrow = lower_to_machine(&module, &TargetIsa::vector("sse2", 2, false));
        assert_eq!(bytes(&wide), bytes(&lower_to_machine(&module, &avx512())));
        assert_ne!(bytes(&wide), bytes(&narrow));
    }

    #[test]
    fn simple_loop_vectorises_to_target_width() {
        let mut module = axpy_module();
        let report = vectorize(&mut module, &avx512());
        assert_eq!(report.vectorized_count(), 1);
        assert_eq!(report.loops[0].width, 16);
        // Re-vectorising for a narrower target re-plans the width (delayed decision).
        let report_sse = vectorize(&mut module, &TargetIsa::vector("sse2", 2, false));
        assert_eq!(report_sse.loops[0].width, 2);
    }

    #[test]
    fn scalar_target_leaves_loops_scalar() {
        let mut module = axpy_module();
        let report = vectorize(&mut module, &TargetIsa::scalar("none"));
        assert_eq!(report.vectorized_count(), 0);
        assert_eq!(report.scalar_count(), 1);
    }

    #[test]
    fn calls_block_vectorisation_but_intrinsics_do_not() {
        let src = r#"
kernel void f(float* y, float* x, int n) {
    for (int i = 0; i < n; i = i + 1) { y[i] = sqrt(x[i]); }
    for (int i = 0; i < n; i = i + 1) { y[i] = custom_op(x[i]); }
}
"#;
        let unit = parse("f.ck", src).unwrap();
        let mut module = lower(&unit, &LowerOptions::default()).unwrap();
        let report = vectorize(&mut module, &avx512());
        assert_eq!(report.loops.len(), 2);
        assert_eq!(report.loops[0].width, 16);
        assert_eq!(report.loops[1].width, 1);
        assert!(matches!(
            report.loops[1].blocked,
            Some(VectorizationBlock::ContainsCall(_))
        ));
    }

    #[test]
    fn control_flow_in_body_blocks_vectorisation() {
        let src = r#"
kernel void f(float* y, float* x, int n) {
    for (int i = 0; i < n; i = i + 1) {
        if (x[i] > 0.0) { y[i] = x[i]; } else { y[i] = 0.0; }
    }
}
"#;
        let unit = parse("f.ck", src).unwrap();
        let mut module = lower(&unit, &LowerOptions::default()).unwrap();
        let report = vectorize(&mut module, &avx512());
        assert!(matches!(
            report.loops[0].blocked,
            Some(VectorizationBlock::ContainsControlFlow)
        ));
    }

    #[test]
    fn reductions_are_vectorisable_other_carried_dependences_are_not() {
        let reduction = r#"
float sum(float* x, int n) {
    float acc = 0.0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + x[i]; }
    return acc;
}
"#;
        let unit = parse("r.ck", reduction).unwrap();
        let mut module = lower(&unit, &LowerOptions::default()).unwrap();
        let report = vectorize(&mut module, &avx512());
        assert_eq!(
            report.loops[0].width, 16,
            "sum reduction vectorises: {:?}",
            report.loops[0]
        );

        let recurrence = r#"
float scan(float* x, int n) {
    float prev = 0.0;
    for (int i = 0; i < n; i = i + 1) { prev = x[i] - prev * 0.5; }
    return prev;
}
"#;
        let unit = parse("s.ck", recurrence).unwrap();
        let mut module = lower(&unit, &LowerOptions::default()).unwrap();
        let report = vectorize(&mut module, &avx512());
        assert!(matches!(
            report.loops[0].blocked,
            Some(VectorizationBlock::LoopCarriedDependence(_))
        ));
    }

    #[test]
    fn premature_scalar_optimisation_caps_revectorisation() {
        // The ablation the paper motivates: optimise early → poor re-vectorisation later.
        let mut early = axpy_module();
        scalar_unroll(&mut early, 4);
        let report_early = vectorize(&mut early, &avx512());
        assert!(
            report_early.loops[0].width <= 2,
            "blocked loops cap at width 2"
        );

        let mut delayed = axpy_module();
        let report_delayed = vectorize(&mut delayed, &avx512());
        assert_eq!(report_delayed.loops[0].width, 16);
    }

    #[test]
    fn lowering_produces_machine_module_with_instruction_estimates() {
        let module = axpy_module();
        let wide = lower_to_machine(&module, &avx512());
        let narrow = lower_to_machine(&module, &TargetIsa::vector("sse2", 2, false));
        let scalar = lower_to_machine(&module, &TargetIsa::scalar("none"));
        assert_eq!(wide.functions.len(), 1);
        assert_eq!(wide.function("axpy").unwrap().loop_widths, vec![16]);
        assert!(wide.instruction_count() < narrow.instruction_count());
        assert!(narrow.instruction_count() < scalar.instruction_count());
        assert_eq!(wide.target.name, "x86-64-avx512");
    }

    #[test]
    fn non_unit_stride_is_rejected() {
        let src =
            "kernel void f(float* x, int n) { for (int i = 0; i < n; i = i + 2) { x[i] = 0.0; } }";
        let unit = parse("f.ck", src).unwrap();
        let mut module = lower(&unit, &LowerOptions::default()).unwrap();
        let report = vectorize(&mut module, &avx512());
        assert!(matches!(
            report.loops[0].blocked,
            Some(VectorizationBlock::NonUnitStride)
        ));
    }
}
