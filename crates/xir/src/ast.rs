//! Abstract syntax tree of the CK kernel language.
//!
//! The tree borrows the preprocessed text it was parsed from: every name, callee and
//! pragma is a slice of it.

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
pub enum Expr<'a> {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Variable reference.
    Var(&'a str),
    /// Array index `base[index]`.
    Index {
        /// The pointer variable.
        base: &'a str,
        /// The index expression.
        index: Box<Expr<'a>>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr<'a>>,
        /// Right operand.
        rhs: Box<Expr<'a>>,
    },
    /// Unary negation `-x` or logical not `!x`.
    Unary {
        /// True for logical not, false for arithmetic negation.
        not: bool,
        /// Operand.
        operand: Box<Expr<'a>>,
    },
    /// Function call.
    Call {
        /// Callee name.
        callee: &'a str,
        /// Arguments.
        args: Vec<Expr<'a>>,
    },
}

impl<'a> Expr<'a> {
    /// Variables read by this expression.
    #[cfg(test)]
    pub(crate) fn referenced_vars(&self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Var(name) => out.push(name),
            Expr::Index { base, index } => {
                out.push(base);
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
    pub(crate) fn called_functions(&self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Call { callee, args } => {
                out.push(callee);
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
pub enum LValue<'a> {
    /// Scalar variable.
    Var(&'a str),
    /// Array element.
    Index {
        /// The pointer variable.
        base: &'a str,
        /// The index expression.
        index: Expr<'a>,
    },
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt<'a> {
    /// Variable declaration with optional initialiser.
    Decl {
        /// Declared type.
        ty: Type,
        /// Variable name.
        name: &'a str,
        /// Initialiser.
        init: Option<Expr<'a>>,
    },
    /// Assignment.
    Assign {
        /// Target.
        target: LValue<'a>,
        /// Value.
        value: Expr<'a>,
    },
    /// `for (init; cond; step) body` — the canonical counted loop.
    For {
        /// Loop variable name (declared by the init clause).
        var: &'a str,
        /// Initial value.
        init: Expr<'a>,
        /// Condition (must be a comparison involving the loop variable).
        cond: Expr<'a>,
        /// Step expression assigned back to the loop variable.
        step: Expr<'a>,
        /// Body.
        body: Vec<Stmt<'a>>,
        /// Pragmas attached to this loop (e.g. `omp parallel for`, `omp simd`).
        pragmas: Vec<&'a str>,
    },
    /// `while (cond) body`.
    While {
        /// Condition.
        cond: Expr<'a>,
        /// Body.
        body: Vec<Stmt<'a>>,
    },
    /// `if (cond) then else`.
    If {
        /// Condition.
        cond: Expr<'a>,
        /// Then branch.
        then_body: Vec<Stmt<'a>>,
        /// Else branch.
        else_body: Vec<Stmt<'a>>,
    },
    /// `return expr;`
    Return(Option<Expr<'a>>),
    /// Expression statement (usually a call).
    ExprStmt(Expr<'a>),
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param<'a> {
    /// Parameter name.
    pub name: &'a str,
    /// Parameter type.
    pub ty: Type,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function<'a> {
    /// Function name.
    pub name: &'a str,
    /// Whether the function is a `kernel` (exported entry point).
    pub is_kernel: bool,
    /// Return type.
    pub return_type: Type,
    /// Parameters.
    pub params: Vec<Param<'a>>,
    /// Body.
    pub body: Vec<Stmt<'a>>,
}

/// A translation unit: the functions defined in one preprocessed source file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit<'a> {
    /// Source file name (for diagnostics and provenance).
    pub file: &'a str,
    /// Functions in definition order.
    pub functions: Vec<Function<'a>>,
}

impl<'a> TranslationUnit<'a> {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function<'a>> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Names of all kernel (exported) functions.
    #[cfg(test)]
    pub(crate) fn kernel_names(&self) -> Vec<&str> {
        self.functions
            .iter()
            .filter(|f| f.is_kernel)
            .map(|f| f.name)
            .collect()
    }

    /// All external functions called but not defined in this unit.
    pub(crate) fn external_calls(&self) -> Vec<&'a str> {
        let defined: Vec<&str> = self.functions.iter().map(|f| f.name).collect();
        let mut calls = Vec::new();
        for f in &self.functions {
            for stmt in &f.body {
                collect_calls_stmt(stmt, &mut calls);
            }
        }
        calls.retain(|c| !defined.contains(c));
        calls.sort();
        calls.dedup();
        calls
    }
}

fn collect_calls_stmt<'a>(stmt: &Stmt<'a>, out: &mut Vec<&'a str>) {
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

    fn sample_unit() -> TranslationUnit<'static> {
        TranslationUnit {
            file: "axpy.ck",
            functions: vec![Function {
                name: "axpy",
                is_kernel: true,
                return_type: Type::Void,
                params: vec![
                    Param {
                        name: "y",
                        ty: Type::FloatPtr,
                    },
                    Param {
                        name: "x",
                        ty: Type::FloatPtr,
                    },
                    Param {
                        name: "a",
                        ty: Type::Float,
                    },
                    Param {
                        name: "n",
                        ty: Type::Int,
                    },
                ],
                body: vec![Stmt::For {
                    var: "i",
                    init: Expr::IntLit(0),
                    cond: Expr::Binary {
                        op: BinOp::Lt,
                        lhs: Box::new(Expr::Var("i")),
                        rhs: Box::new(Expr::Var("n")),
                    },
                    step: Expr::Binary {
                        op: BinOp::Add,
                        lhs: Box::new(Expr::Var("i")),
                        rhs: Box::new(Expr::IntLit(1)),
                    },
                    body: vec![Stmt::Assign {
                        target: LValue::Index {
                            base: "y",
                            index: Expr::Var("i"),
                        },
                        value: Expr::Binary {
                            op: BinOp::Add,
                            lhs: Box::new(Expr::Index {
                                base: "y",
                                index: Box::new(Expr::Var("i")),
                            }),
                            rhs: Box::new(Expr::Binary {
                                op: BinOp::Mul,
                                lhs: Box::new(Expr::Var("a")),
                                rhs: Box::new(Expr::Call {
                                    callee: "fetch",
                                    args: vec![Expr::Var("i")],
                                }),
                            }),
                        },
                    }],
                    pragmas: vec!["omp parallel for"],
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
        assert_eq!(unit.external_calls(), vec!["fetch"]);
    }

    #[test]
    fn referenced_vars_walks_expressions() {
        let expr = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Index {
                base: "x",
                index: Box::new(Expr::Var("i")),
            }),
            rhs: Box::new(Expr::Var("a")),
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
