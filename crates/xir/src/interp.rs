//! An interpreter for XIR / machine modules.
//!
//! The interpreter gives the substrate *executable semantics*: tests and examples run the
//! synthetic applications' kernels on real data and verify that deployment-time decisions
//! (vectorisation width, optimisation level) never change numerical results — only the
//! instruction counts and the modelled execution time change.

use crate::ast::{BinOp, Type};
use crate::ir::{IrModule, IrOp, Operand, Registers};
use crate::target::MachineModule;
use std::collections::BTreeMap;
use std::fmt;

/// A value passed to or returned from an interpreted kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer scalar.
    Int(i64),
    /// Floating-point scalar.
    Float(f64),
    /// Mutable float buffer (passed by reference, visible after the call).
    FloatBuffer(Vec<f64>),
    /// Mutable integer buffer.
    IntBuffer(Vec<i64>),
}

impl Value {
    /// Float buffer contents, if this is a float buffer.
    pub fn as_float_buffer(&self) -> Option<&[f64]> {
        match self {
            Value::FloatBuffer(buf) => Some(buf),
            _ => None,
        }
    }
}

/// Interpreter errors.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant payload fields are documented by the Display impl
pub enum InterpError {
    /// A referenced function does not exist in the module.
    UnknownFunction(String),
    /// Wrong number or type of arguments.
    ArgumentMismatch { function: String, detail: String },
    /// A register was read before being written.
    UndefinedRegister(String),
    /// A buffer access was out of bounds.
    OutOfBounds {
        buffer: String,
        index: i64,
        len: usize,
    },
    /// A call to a function that is neither defined nor a built-in intrinsic.
    UnknownCallee(String),
    /// Execution exceeded the step budget (runaway loop guard).
    StepBudgetExceeded,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            InterpError::ArgumentMismatch { function, detail } => {
                write!(f, "argument mismatch calling `{function}`: {detail}")
            }
            InterpError::UndefinedRegister(name) => {
                write!(f, "register `{name}` read before write")
            }
            InterpError::OutOfBounds { buffer, index, len } => {
                write!(
                    f,
                    "index {index} out of bounds for buffer `{buffer}` of length {len}"
                )
            }
            InterpError::UnknownCallee(name) => write!(f, "call to unknown function `{name}`"),
            InterpError::StepBudgetExceeded => write!(f, "execution exceeded the step budget"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Result of running a kernel: returned scalar (if any), final buffer arguments, and the
/// number of interpreted operations (a deterministic work measure).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Value returned by the function.
    pub return_value: Option<Value>,
    /// Buffer arguments after execution, in parameter order.
    pub buffers: BTreeMap<String, Value>,
    /// Operations executed.
    pub ops_executed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Scalar {
    Int(i64),
    Float(f64),
}

impl Scalar {
    fn as_f64(self) -> f64 {
        match self {
            Scalar::Int(v) => v as f64,
            Scalar::Float(v) => v,
        }
    }
    fn as_i64(self) -> i64 {
        match self {
            Scalar::Int(v) => v,
            Scalar::Float(v) => v as i64,
        }
    }
    fn truthy(self) -> bool {
        match self {
            Scalar::Int(v) => v != 0,
            Scalar::Float(v) => v != 0.0,
        }
    }
}

enum Slot {
    Scalar(Scalar),
    FloatBuf(Vec<f64>),
    IntBuf(Vec<i64>),
}

/// A call's registers: slot `r` holds register `r`, `None` until it is written.
struct Frame<'a> {
    slots: Vec<Option<Slot>>,
    names: &'a Registers,
}

impl<'a> Frame<'a> {
    fn new(view: &FunctionView<'a>) -> Self {
        let mut slots = Vec::with_capacity(view.names.len());
        slots.resize_with(view.names.len(), || None);
        Frame {
            slots,
            names: view.names,
        }
    }

    fn set(&mut self, r: u32, slot: Slot) {
        self.slots[r as usize] = Some(slot);
    }

    fn get(&self, r: u32) -> Option<&Slot> {
        self.slots[r as usize].as_ref()
    }

    fn name(&self, r: u32) -> String {
        self.names[r].to_string()
    }

    /// The scalar register `r` holds.
    fn scalar(&self, r: u32) -> Result<Scalar, InterpError> {
        match self.get(r) {
            Some(Slot::Scalar(s)) => Ok(*s),
            _ => Err(InterpError::UndefinedRegister(self.name(r))),
        }
    }
}

/// The interpreter. Construct it over an [`IrModule`] (or via [`Interpreter::for_machine`]
/// over a lowered [`MachineModule`]) and invoke kernels by name.
pub struct Interpreter<'a> {
    functions: BTreeMap<&'a str, FunctionView<'a>>,
    /// Maximum interpreted operations before aborting (guards against runaway loops).
    pub step_budget: u64,
}

struct FunctionView<'a> {
    /// Parameter types: parameter `i` is register `i`.
    params: &'a [Type],
    body: &'a [IrOp],
    names: &'a Registers,
}

impl<'a> Interpreter<'a> {
    /// Build an interpreter over an IR module.
    pub fn new(module: &'a IrModule) -> Self {
        let functions = module.functions.iter().map(|f| {
            let view = FunctionView {
                params: &f.params,
                body: &f.body,
                names: &f.registers,
            };
            (f.name.as_str(), view)
        });
        Self {
            functions: functions.collect(),
            step_budget: 200_000_000,
        }
    }

    /// Build an interpreter over a lowered machine module.
    pub fn for_machine(module: &'a MachineModule) -> Self {
        let functions = module.functions.iter().map(|f| {
            let view = FunctionView {
                params: &f.params,
                body: &f.body,
                names: &f.registers,
            };
            (f.name.as_str(), view)
        });
        Self {
            functions: functions.collect(),
            step_budget: 200_000_000,
        }
    }

    /// Execute `function` with `args` (must match the parameter list in count and kind).
    pub fn run(&self, function: &str, args: Vec<Value>) -> Result<RunResult, InterpError> {
        let view = self
            .functions
            .get(function)
            .ok_or_else(|| InterpError::UnknownFunction(function.to_string()))?;
        if view.params.len() != args.len() {
            return Err(InterpError::ArgumentMismatch {
                function: function.to_string(),
                detail: format!(
                    "expected {} arguments, got {}",
                    view.params.len(),
                    args.len()
                ),
            });
        }
        let mut frame = Frame::new(view);
        for ((r, ty), value) in (0..).zip(view.params).zip(args) {
            let slot = match (ty, value) {
                (Type::Int, Value::Int(v)) => Slot::Scalar(Scalar::Int(v)),
                (Type::Int, Value::Float(v)) => Slot::Scalar(Scalar::Int(v as i64)),
                (Type::Float, Value::Float(v)) => Slot::Scalar(Scalar::Float(v)),
                (Type::Float, Value::Int(v)) => Slot::Scalar(Scalar::Float(v as f64)),
                (Type::FloatPtr, Value::FloatBuffer(buf)) => Slot::FloatBuf(buf),
                (Type::IntPtr, Value::IntBuffer(buf)) => Slot::IntBuf(buf),
                (expected, got) => {
                    return Err(InterpError::ArgumentMismatch {
                        function: function.to_string(),
                        detail: format!(
                            "parameter `{}` expects {expected}, got {got:?}",
                            &frame.names[r]
                        ),
                    })
                }
            };
            frame.set(r, slot);
        }
        let mut ops_executed = 0u64;
        let flow = self.exec_block(view.body, &mut frame, &mut ops_executed)?;
        let return_value = match flow {
            Flow::Return(Some(scalar)) => Some(match scalar {
                Scalar::Int(v) => Value::Int(v),
                Scalar::Float(v) => Value::Float(v),
            }),
            _ => None,
        };
        let mut buffers = BTreeMap::new();
        for (slot, (ty, name)) in frame
            .slots
            .iter_mut()
            .zip(view.params.iter().zip(view.names.iter()))
        {
            if ty.is_pointer() {
                match slot.take() {
                    Some(Slot::FloatBuf(buf)) => {
                        buffers.insert(name.to_string(), Value::FloatBuffer(buf));
                    }
                    Some(Slot::IntBuf(buf)) => {
                        buffers.insert(name.to_string(), Value::IntBuffer(buf));
                    }
                    _ => {}
                }
            }
        }
        Ok(RunResult {
            return_value,
            buffers,
            ops_executed,
        })
    }

    fn exec_block(
        &self,
        ops: &[IrOp],
        frame: &mut Frame,
        counter: &mut u64,
    ) -> Result<Flow, InterpError> {
        for op in ops {
            *counter += 1;
            if *counter > self.step_budget {
                return Err(InterpError::StepBudgetExceeded);
            }
            match op {
                IrOp::Const { dest, value } | IrOp::Move { dest, src: value } => {
                    let v = self.operand(value, frame)?;
                    frame.set(*dest, Slot::Scalar(v));
                }
                IrOp::Bin { dest, op, lhs, rhs } => {
                    let a = self.operand(lhs, frame)?;
                    let b = self.operand(rhs, frame)?;
                    frame.set(*dest, Slot::Scalar(apply_bin(*op, a, b)));
                }
                IrOp::Un { dest, not, operand } => {
                    let v = self.operand(operand, frame)?;
                    let result = if *not {
                        Scalar::Int(i64::from(!v.truthy()))
                    } else {
                        match v {
                            Scalar::Int(i) => Scalar::Int(-i),
                            Scalar::Float(f) => Scalar::Float(-f),
                        }
                    };
                    frame.set(*dest, Slot::Scalar(result));
                }
                IrOp::Load { dest, base, index } => {
                    let idx = self.operand(index, frame)?.as_i64();
                    let out_of_bounds = |len| InterpError::OutOfBounds {
                        buffer: frame.name(*base),
                        index: idx,
                        len,
                    };
                    let value = match frame.get(*base) {
                        Some(Slot::FloatBuf(buf)) => Scalar::Float(
                            *buf.get(idx as usize)
                                .ok_or_else(|| out_of_bounds(buf.len()))?,
                        ),
                        Some(Slot::IntBuf(buf)) => Scalar::Int(
                            *buf.get(idx as usize)
                                .ok_or_else(|| out_of_bounds(buf.len()))?,
                        ),
                        _ => return Err(InterpError::UndefinedRegister(frame.name(*base))),
                    };
                    frame.set(*dest, Slot::Scalar(value));
                }
                IrOp::Store { base, index, value } => {
                    let idx = self.operand(index, frame)?.as_i64();
                    let v = self.operand(value, frame)?;
                    let name = &frame.names[*base];
                    let out_of_bounds = |len| InterpError::OutOfBounds {
                        buffer: name.to_string(),
                        index: idx,
                        len,
                    };
                    match frame.slots[*base as usize].as_mut() {
                        Some(Slot::FloatBuf(buf)) => {
                            let len = buf.len();
                            *buf.get_mut(idx as usize)
                                .ok_or_else(|| out_of_bounds(len))? = v.as_f64();
                        }
                        Some(Slot::IntBuf(buf)) => {
                            let len = buf.len();
                            *buf.get_mut(idx as usize)
                                .ok_or_else(|| out_of_bounds(len))? = v.as_i64();
                        }
                        _ => return Err(InterpError::UndefinedRegister(name.to_string())),
                    }
                }
                IrOp::Call { dest, callee, args } => {
                    let mut arg_values = Vec::with_capacity(args.len());
                    for a in args {
                        arg_values.push(self.operand(a, frame)?);
                    }
                    let result = self.call(callee, &arg_values, counter)?;
                    if let (Some(dest), Some(value)) = (dest, result) {
                        frame.set(*dest, Slot::Scalar(value));
                    }
                }
                IrOp::Loop {
                    var,
                    start,
                    end,
                    step,
                    body,
                    ..
                } => {
                    let start_value = self.operand(start, frame)?.as_i64();
                    let end_value = self.operand(end, frame)?.as_i64();
                    let mut i = start_value;
                    while i < end_value {
                        frame.set(*var, Slot::Scalar(Scalar::Int(i)));
                        match self.exec_block(body, frame, counter)? {
                            Flow::Return(v) => return Ok(Flow::Return(v)),
                            Flow::Continue => {}
                        }
                        i += *step;
                    }
                }
                IrOp::While {
                    cond_ops,
                    cond,
                    body,
                } => loop {
                    match self.exec_block(cond_ops, frame, counter)? {
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Continue => {}
                    }
                    if !frame.scalar(*cond)?.truthy() {
                        break;
                    }
                    match self.exec_block(body, frame, counter)? {
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Continue => {}
                    }
                },
                IrOp::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let branch = if frame.scalar(*cond)?.truthy() {
                        then_body
                    } else {
                        else_body
                    };
                    match self.exec_block(branch, frame, counter)? {
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Continue => {}
                    }
                }
                IrOp::Return { value } => {
                    let v = match value {
                        Some(operand) => Some(self.operand(operand, frame)?),
                        None => None,
                    };
                    return Ok(Flow::Return(v));
                }
            }
        }
        Ok(Flow::Continue)
    }

    fn operand(&self, operand: &Operand, frame: &Frame) -> Result<Scalar, InterpError> {
        match *operand {
            Operand::ImmInt(v) => Ok(Scalar::Int(v)),
            Operand::ImmFloat(v) => Ok(Scalar::Float(v)),
            Operand::Reg(r) => frame.scalar(r),
        }
    }

    /// Call a scalar function: a built-in math intrinsic or another scalar function in the
    /// module (only scalar parameters are supported for nested calls).
    fn call(
        &self,
        callee: &str,
        args: &[Scalar],
        counter: &mut u64,
    ) -> Result<Option<Scalar>, InterpError> {
        match (callee, args) {
            ("sqrt", [x]) => return Ok(Some(Scalar::Float(x.as_f64().sqrt()))),
            ("fabs", [x]) => return Ok(Some(Scalar::Float(x.as_f64().abs()))),
            ("exp", [x]) => return Ok(Some(Scalar::Float(x.as_f64().exp()))),
            ("log", [x]) => return Ok(Some(Scalar::Float(x.as_f64().max(f64::MIN_POSITIVE).ln()))),
            ("floor", [x]) => return Ok(Some(Scalar::Float(x.as_f64().floor()))),
            ("fmin", [a, b]) => return Ok(Some(Scalar::Float(a.as_f64().min(b.as_f64())))),
            ("fmax", [a, b]) => return Ok(Some(Scalar::Float(a.as_f64().max(b.as_f64())))),
            ("omp_get_max_threads", []) => return Ok(Some(Scalar::Int(1))),
            _ => {}
        }
        let Some(view) = self.functions.get(callee) else {
            return Err(InterpError::UnknownCallee(callee.to_string()));
        };
        if view.params.len() != args.len() || view.params.iter().any(|t| t.is_pointer()) {
            return Err(InterpError::ArgumentMismatch {
                function: callee.to_string(),
                detail: "nested calls support scalar parameters only".to_string(),
            });
        }
        let mut frame = Frame::new(view);
        for ((r, ty), value) in (0..).zip(view.params).zip(args) {
            let scalar = match ty {
                Type::Int => Scalar::Int(value.as_i64()),
                _ => Scalar::Float(value.as_f64()),
            };
            frame.set(r, Slot::Scalar(scalar));
        }
        match self.exec_block(view.body, &mut frame, counter)? {
            Flow::Return(v) => Ok(v),
            Flow::Continue => Ok(None),
        }
    }
}

enum Flow {
    Continue,
    Return(Option<Scalar>),
}

fn apply_bin(op: BinOp, a: Scalar, b: Scalar) -> Scalar {
    use Scalar::{Float, Int};
    let both_int = matches!((a, b), (Int(_), Int(_)));
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
            if both_int {
                let (x, y) = (a.as_i64(), b.as_i64());
                Int(match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            0
                        } else {
                            x / y
                        }
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            0
                        } else {
                            x % y
                        }
                    }
                    _ => unreachable!(),
                })
            } else {
                let (x, y) = (a.as_f64(), b.as_f64());
                Float(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Rem => x % y,
                    _ => unreachable!(),
                })
            }
        }
        BinOp::Eq => Int(i64::from(a.as_f64() == b.as_f64())),
        BinOp::Ne => Int(i64::from(a.as_f64() != b.as_f64())),
        BinOp::Lt => Int(i64::from(a.as_f64() < b.as_f64())),
        BinOp::Le => Int(i64::from(a.as_f64() <= b.as_f64())),
        BinOp::Gt => Int(i64::from(a.as_f64() > b.as_f64())),
        BinOp::Ge => Int(i64::from(a.as_f64() >= b.as_f64())),
        BinOp::And => Int(i64::from(a.truthy() && b.truthy())),
        BinOp::Or => Int(i64::from(a.truthy() || b.truthy())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, LowerOptions};
    use crate::parse::parse;
    use crate::target::{lower_to_machine, TargetIsa};

    fn compile(src: &str) -> IrModule {
        let unit = parse("test.ck", src).unwrap();
        lower(
            &unit,
            &LowerOptions {
                openmp: true,
                ..Default::default()
            },
        )
        .unwrap()
    }

    const AXPY: &str = r#"
kernel void axpy(float* y, float* x, float a, int n) {
    for (int i = 0; i < n; i = i + 1) {
        y[i] = y[i] + a * x[i];
    }
}
"#;

    #[test]
    fn axpy_computes_expected_values() {
        let module = compile(AXPY);
        let interp = Interpreter::new(&module);
        let y = vec![1.0; 8];
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let result = interp
            .run(
                "axpy",
                vec![
                    Value::FloatBuffer(y),
                    Value::FloatBuffer(x),
                    Value::Float(2.0),
                    Value::Int(8),
                ],
            )
            .unwrap();
        let y_out = result.buffers["y"].as_float_buffer().unwrap();
        let expected: Vec<f64> = (0..8).map(|i| 1.0 + 2.0 * i as f64).collect();
        assert_eq!(y_out, expected.as_slice());
        assert!(result.ops_executed > 8);
    }

    #[test]
    fn vectorised_machine_code_matches_scalar_results() {
        let module = compile(AXPY);
        let scalar = lower_to_machine(&module, &TargetIsa::scalar("none"));
        let wide = lower_to_machine(&module, &TargetIsa::vector("avx512", 16, true));
        let run = |machine| {
            let interp = Interpreter::for_machine(machine);
            interp
                .run(
                    "axpy",
                    vec![
                        Value::FloatBuffer(vec![0.5; 33]),
                        Value::FloatBuffer((0..33).map(|i| (i as f64) * 0.25).collect()),
                        Value::Float(3.0),
                        Value::Int(33),
                    ],
                )
                .unwrap()
        };
        let scalar_result = run(&scalar);
        let wide_result = run(&wide);
        assert_eq!(scalar_result.buffers, wide_result.buffers);
    }

    #[test]
    fn reduction_and_return_values() {
        let src = r#"
float sum(float* x, int n) {
    float acc = 0.0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + x[i]; }
    return acc;
}
"#;
        let module = compile(src);
        let interp = Interpreter::new(&module);
        let result = interp
            .run(
                "sum",
                vec![Value::FloatBuffer(vec![1.5; 10]), Value::Int(10)],
            )
            .unwrap();
        assert_eq!(result.return_value, Some(Value::Float(15.0)));
    }

    #[test]
    fn intrinsics_and_nested_calls() {
        let src = r#"
float relu(float v) {
    if (v > 0.0) { return v; }
    return 0.0;
}
kernel void apply(float* out, float* in, int n) {
    for (int i = 0; i < n; i = i + 1) {
        out[i] = relu(in[i]) + sqrt(fabs(in[i]));
    }
}
"#;
        let module = compile(src);
        let interp = Interpreter::new(&module);
        let result = interp
            .run(
                "apply",
                vec![
                    Value::FloatBuffer(vec![0.0; 4]),
                    Value::FloatBuffer(vec![-4.0, 0.0, 1.0, 9.0]),
                    Value::Int(4),
                ],
            )
            .unwrap();
        let out = result.buffers["out"].as_float_buffer().unwrap();
        assert_eq!(out, &[2.0, 0.0, 2.0, 12.0]);
    }

    #[test]
    fn while_and_if_control_flow() {
        let src = r#"
int count_above(float* x, int n, float limit) {
    int count = 0;
    int i = 0;
    while (i < n) {
        if (x[i] > limit) { count = count + 1; }
        i = i + 1;
    }
    return count;
}
"#;
        let module = compile(src);
        let interp = Interpreter::new(&module);
        let result = interp
            .run(
                "count_above",
                vec![
                    Value::FloatBuffer(vec![0.1, 5.0, 3.0, 0.2]),
                    Value::Int(4),
                    Value::Float(1.0),
                ],
            )
            .unwrap();
        assert_eq!(result.return_value, Some(Value::Int(2)));
    }

    #[test]
    fn out_of_bounds_and_bad_arguments_are_reported() {
        let module = compile(AXPY);
        let interp = Interpreter::new(&module);
        let err = interp
            .run(
                "axpy",
                vec![
                    Value::FloatBuffer(vec![0.0; 2]),
                    Value::FloatBuffer(vec![0.0; 2]),
                    Value::Float(1.0),
                    Value::Int(5),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, InterpError::OutOfBounds { .. }));

        let err = interp.run("axpy", vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, InterpError::ArgumentMismatch { .. }));
        let err = interp.run("missing", vec![]).unwrap_err();
        assert!(matches!(err, InterpError::UnknownFunction(_)));
    }

    #[test]
    fn unknown_callee_is_an_error() {
        let src = "kernel void f(float* x) { x[0] = mystery(1.0); }";
        let module = compile(src);
        let interp = Interpreter::new(&module);
        let err = interp
            .run("f", vec![Value::FloatBuffer(vec![0.0])])
            .unwrap_err();
        assert_eq!(err, InterpError::UnknownCallee("mystery".into()));
    }

    #[test]
    fn step_budget_stops_infinite_loops() {
        let src = r#"
kernel void spin(int n) {
    int i = 0;
    while (i < 1) { i = i * 1; }
}
"#;
        let module = compile(src);
        let mut interp = Interpreter::new(&module);
        interp.step_budget = 10_000;
        let err = interp.run("spin", vec![Value::Int(1)]).unwrap_err();
        assert_eq!(err, InterpError::StepBudgetExceeded);
    }
}
