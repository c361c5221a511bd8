//! Abstract syntax tree of the CK kernel language.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Scalar and pointer types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// `void` (function returns only).
    Void,
    /// 64-bit signed integer (`int`).
    Int,
    /// 64-bit float (`float` / `double` are both modelled as f64).
    Float,
    /// Pointer to int (`int*`).
    IntPtr,
    /// Pointer to float (`float*` / `double*`).
    FloatPtr,
}

impl Type {
    /// Whether the type is a pointer.
    pub(crate) fn is_pointer(&self) -> bool {
        matches!(self, Type::IntPtr | Type::FloatPtr)
    }

    /// The element type of a pointer.
    pub fn element(&self) -> Option<Type> {
        match self {
            Type::IntPtr => Some(Type::Int),
            Type::FloatPtr => Some(Type::Float),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Type::Void => "void",
            Type::Int => "int",
            Type::Float => "float",
            Type::IntPtr => "int*",
            Type::FloatPtr => "float*",
        };
        f.write_str(s)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Whether the operator yields a boolean (0/1) result.
    pub(crate) fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or
        )
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Variable reference.
    Var(String),
    /// Array index `base[index]`.
    Index {
        /// The pointer variable.
        base: String,
        /// The index expression.
        index: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary negation `-x` or logical not `!x`.
    Unary {
        /// True for logical not, false for arithmetic negation.
        not: bool,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Function call.
    Call {
        /// Callee name.
        callee: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Variables read by this expression.
    #[cfg(test)]
    pub(crate) fn referenced_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(name) => out.push(name.clone()),
            Expr::Index { base, index } => {
                out.push(base.clone());
                index.referenced_vars(out);
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.referenced_vars(out);
                rhs.referenced_vars(out);
            }
            Expr::Unary { operand, .. } => operand.referenced_vars(out),
            Expr::Call { args, .. } => {
                for a in args {
                    a.referenced_vars(out);
                }
            }
            _ => {}
        }
    }

    /// Functions called (transitively within this expression).
    pub(crate) fn called_functions(&self, out: &mut Vec<String>) {
        match self {
            Expr::Call { callee, args } => {
                out.push(callee.clone());
                for a in args {
                    a.called_functions(out);
                }
            }
            Expr::Index { index, .. } => index.called_functions(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.called_functions(out);
                rhs.called_functions(out);
            }
            Expr::Unary { operand, .. } => operand.called_functions(out),
            _ => {}
        }
    }
}

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Var(String),
    /// Array element.
    Index {
        /// The pointer variable.
        base: String,
        /// The index expression.
        index: Expr,
    },
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Variable declaration with optional initialiser.
    Decl {
        /// Declared type.
        ty: Type,
        /// Variable name.
        name: String,
        /// Initialiser.
        init: Option<Expr>,
    },
    /// Assignment.
    Assign {
        /// Target.
        target: LValue,
        /// Value.
        value: Expr,
    },
    /// `for (init; cond; step) body` — the canonical counted loop.
    For {
        /// Loop variable name (declared by the init clause).
        var: String,
        /// Initial value.
        init: Expr,
        /// Condition (must be a comparison involving the loop variable).
        cond: Expr,
        /// Step expression assigned back to the loop variable.
        step: Expr,
        /// Body.
        body: Vec<Stmt>,
        /// Pragmas attached to this loop (e.g. `omp parallel for`, `omp simd`).
        pragmas: Vec<String>,
    },
    /// `while (cond) body`.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `if (cond) then else`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch.
        else_body: Vec<Stmt>,
    },
    /// `return expr;`
    Return(Option<Expr>),
    /// Expression statement (usually a call).
    ExprStmt(Expr),
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Whether the function is a `kernel` (exported entry point).
    pub is_kernel: bool,
    /// Return type.
    pub return_type: Type,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body.
    pub body: Vec<Stmt>,
}

/// A translation unit: the functions defined in one preprocessed source file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    /// Source file name (for diagnostics and provenance).
    pub file: String,
    /// Functions in definition order.
    pub functions: Vec<Function>,
}

impl TranslationUnit {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Names of all kernel (exported) functions.
    #[cfg(test)]
    pub(crate) fn kernel_names(&self) -> Vec<&str> {
        self.functions
            .iter()
            .filter(|f| f.is_kernel)
            .map(|f| f.name.as_str())
            .collect()
    }

    /// All external functions called but not defined in this unit.
    pub(crate) fn external_calls(&self) -> Vec<String> {
        let defined: Vec<&str> = self.functions.iter().map(|f| f.name.as_str()).collect();
        let mut calls = Vec::new();
        for f in &self.functions {
            for stmt in &f.body {
                collect_calls_stmt(stmt, &mut calls);
            }
        }
        calls.retain(|c| !defined.contains(&c.as_str()));
        calls.sort();
        calls.dedup();
        calls
    }
}

fn collect_calls_stmt(stmt: &Stmt, out: &mut Vec<String>) {
    match stmt {
        Stmt::Decl { init: Some(e), .. } => e.called_functions(out),
        Stmt::Decl { .. } => {}
        Stmt::Assign { value, target } => {
            value.called_functions(out);
            if let LValue::Index { index, .. } = target {
                index.called_functions(out);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            init.called_functions(out);
            cond.called_functions(out);
            step.called_functions(out);
            for s in body {
                collect_calls_stmt(s, out);
            }
        }
        Stmt::While { cond, body } => {
            cond.called_functions(out);
            for s in body {
                collect_calls_stmt(s, out);
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            cond.called_functions(out);
            for s in then_body.iter().chain(else_body) {
                collect_calls_stmt(s, out);
            }
        }
        Stmt::Return(Some(e)) => e.called_functions(out),
        Stmt::Return(None) => {}
        Stmt::ExprStmt(e) => e.called_functions(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_unit() -> TranslationUnit {
        TranslationUnit {
            file: "axpy.ck".into(),
            functions: vec![Function {
                name: "axpy".into(),
                is_kernel: true,
                return_type: Type::Void,
                params: vec![
                    Param {
                        name: "y".into(),
                        ty: Type::FloatPtr,
                    },
                    Param {
                        name: "x".into(),
                        ty: Type::FloatPtr,
                    },
                    Param {
                        name: "a".into(),
                        ty: Type::Float,
                    },
                    Param {
                        name: "n".into(),
                        ty: Type::Int,
                    },
                ],
                body: vec![Stmt::For {
                    var: "i".into(),
                    init: Expr::IntLit(0),
                    cond: Expr::Binary {
                        op: BinOp::Lt,
                        lhs: Box::new(Expr::Var("i".into())),
                        rhs: Box::new(Expr::Var("n".into())),
                    },
                    step: Expr::Binary {
                        op: BinOp::Add,
                        lhs: Box::new(Expr::Var("i".into())),
                        rhs: Box::new(Expr::IntLit(1)),
                    },
                    body: vec![Stmt::Assign {
                        target: LValue::Index {
                            base: "y".into(),
                            index: Expr::Var("i".into()),
                        },
                        value: Expr::Binary {
                            op: BinOp::Add,
                            lhs: Box::new(Expr::Index {
                                base: "y".into(),
                                index: Box::new(Expr::Var("i".into())),
                            }),
                            rhs: Box::new(Expr::Binary {
                                op: BinOp::Mul,
                                lhs: Box::new(Expr::Var("a".into())),
                                rhs: Box::new(Expr::Call {
                                    callee: "fetch".into(),
                                    args: vec![Expr::Var("i".into())],
                                }),
                            }),
                        },
                    }],
                    pragmas: vec!["omp parallel for".into()],
                }],
            }],
        }
    }

    #[test]
    fn type_properties() {
        assert!(Type::FloatPtr.is_pointer());
        assert_eq!(Type::FloatPtr.element(), Some(Type::Float));
        assert_eq!(Type::Int.element(), None);
        assert_eq!(Type::IntPtr.to_string(), "int*");
    }

    #[test]
    fn kernel_names_and_lookup() {
        let unit = sample_unit();
        assert_eq!(unit.kernel_names(), vec!["axpy"]);
        assert!(unit.function("axpy").is_some());
        assert!(unit.function("missing").is_none());
    }

    #[test]
    fn external_calls_are_collected() {
        let unit = sample_unit();
        assert_eq!(unit.external_calls(), vec!["fetch".to_string()]);
    }

    #[test]
    fn referenced_vars_walks_expressions() {
        let expr = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Index {
                base: "x".into(),
                index: Box::new(Expr::Var("i".into())),
            }),
            rhs: Box::new(Expr::Var("a".into())),
        };
        let mut vars = Vec::new();
        expr.referenced_vars(&mut vars);
        assert_eq!(vars, vec!["x", "i", "a"]);
    }

    #[test]
    fn comparison_operators_are_flagged() {
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::And.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }
}
