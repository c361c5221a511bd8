//! Recursive-descent parser for the CK kernel language.

use crate::ast::{BinOp, Expr, Function, LValue, Param, Stmt, TranslationUnit, Type};
use crate::lex::{lex, Keyword, LexError, Punct, Token};
use std::{fmt, mem};

/// Parse errors.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant payload fields are documented by the Display impl
pub enum ParseError {
    /// Lexing failed.
    Lex(LexError),
    /// Unexpected token (with a description of what was expected).
    Unexpected {
        expected: String,
        found: String,
        position: usize,
    },
    /// Input ended unexpectedly.
    UnexpectedEof { expected: String },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                expected,
                found,
                position,
            } => {
                write!(
                    f,
                    "parse error at token {position}: expected {expected}, found {found}"
                )
            }
            ParseError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of input, expected {expected}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(value: LexError) -> Self {
        ParseError::Lex(value)
    }
}

/// Parse a preprocessed CK source file into a [`TranslationUnit`].
pub fn parse(file: &str, source: &str) -> Result<TranslationUnit, ParseError> {
    let tokens = lex(source)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut unit = TranslationUnit {
        file: file.to_string(),
        functions: Vec::new(),
    };
    while !parser.at_end() {
        // Pragmas before a function definition are ignored at this level (they attach to loops).
        while matches!(parser.peek(), Some(Token::Pragma(_))) {
            parser.advance();
        }
        if parser.at_end() {
            break;
        }
        unit.functions.push(parser.function()?);
    }
    Ok(unit)
}

/// Reads `tokens` front to back and never backs up, so a string token is moved out of
/// its slot into the AST rather than cloned.
struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.tokens.get(self.pos + offset)
    }

    /// Step past the current token. A consumer that keeps the token's string takes it
    /// out of the slot first (`mem::take`).
    fn advance(&mut self) {
        self.pos += 1;
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        match self.peek() {
            Some(t) => ParseError::Unexpected {
                expected: expected.to_string(),
                found: t.to_string(),
                position: self.pos,
            },
            None => ParseError::UnexpectedEof {
                expected: expected.to_string(),
            },
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Punct(found)) if *found == p => {
                self.advance();
                Ok(())
            }
            _ => Err(self.unexpected(&format!("{p:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.tokens.get_mut(self.pos) {
            Some(Token::Ident(name)) => {
                let name = mem::take(name);
                self.advance();
                Ok(name)
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let base = match self.peek() {
            Some(Token::Keyword(Keyword::Void)) => Type::Void,
            Some(Token::Keyword(Keyword::Int)) => Type::Int,
            Some(Token::Keyword(Keyword::Float)) | Some(Token::Keyword(Keyword::Double)) => {
                Type::Float
            }
            _ => return Err(self.unexpected("type")),
        };
        self.advance();
        if matches!(self.peek(), Some(Token::Punct(Punct::Star))) {
            self.advance();
            return match base {
                Type::Int => Ok(Type::IntPtr),
                Type::Float => Ok(Type::FloatPtr),
                _ => Err(self.unexpected("pointer to int or float")),
            };
        }
        Ok(base)
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        let is_kernel = if matches!(self.peek(), Some(Token::Keyword(Keyword::Kernel))) {
            self.advance();
            true
        } else {
            false
        };
        let return_type = self.parse_type()?;
        let name = self.expect_ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !matches!(self.peek(), Some(Token::Punct(Punct::RParen))) {
            loop {
                let ty = self.parse_type()?;
                let pname = self.expect_ident()?;
                params.push(Param { name: pname, ty });
                if matches!(self.peek(), Some(Token::Punct(Punct::Comma))) {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen)?;
        let body = self.block()?;
        Ok(Function {
            name,
            is_kernel,
            return_type,
            params,
            body,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        let mut pending_pragmas: Vec<String> = Vec::new();
        while !matches!(self.peek(), Some(Token::Punct(Punct::RBrace))) {
            if self.at_end() {
                return Err(ParseError::UnexpectedEof {
                    expected: "`}`".into(),
                });
            }
            if let Some(Token::Pragma(p)) = self.tokens.get_mut(self.pos) {
                pending_pragmas.push(mem::take(p));
                self.advance();
                continue;
            }
            let stmt = self.statement(mem::take(&mut pending_pragmas))?;
            stmts.push(stmt);
        }
        self.expect_punct(Punct::RBrace)?;
        Ok(stmts)
    }

    fn statement(&mut self, pragmas: Vec<String>) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Token::Keyword(Keyword::For)) => self.for_statement(pragmas),
            Some(Token::Keyword(Keyword::While)) => {
                self.advance();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body })
            }
            Some(Token::Keyword(Keyword::If)) => {
                self.advance();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                let then_body = self.block()?;
                let else_body = if matches!(self.peek(), Some(Token::Keyword(Keyword::Else))) {
                    self.advance();
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                })
            }
            Some(Token::Keyword(Keyword::Return)) => {
                self.advance();
                if matches!(self.peek(), Some(Token::Punct(Punct::Semi))) {
                    self.advance();
                    return Ok(Stmt::Return(None));
                }
                let value = self.expression()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Return(Some(value)))
            }
            Some(Token::Keyword(Keyword::Int))
            | Some(Token::Keyword(Keyword::Float))
            | Some(Token::Keyword(Keyword::Double)) => {
                let ty = self.parse_type()?;
                let name = self.expect_ident()?;
                let init = if matches!(self.peek(), Some(Token::Punct(Punct::Assign))) {
                    self.advance();
                    Some(self.expression()?)
                } else {
                    None
                };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Decl { ty, name, init })
            }
            Some(Token::Ident(_)) => {
                // Assignment (scalar or indexed) or expression statement (call).
                let is_assignment = match (self.peek_at(1), self.peek_at(2)) {
                    (Some(Token::Punct(Punct::Assign)), _) => true,
                    (Some(Token::Punct(Punct::LBracket)), _) => {
                        // Find the matching `]` and check the following token is `=`.
                        let mut depth = 0usize;
                        let mut idx = self.pos + 1;
                        let mut assign = false;
                        while let Some(tok) = self.tokens.get(idx) {
                            match tok {
                                Token::Punct(Punct::LBracket) => depth += 1,
                                Token::Punct(Punct::RBracket) => {
                                    depth -= 1;
                                    if depth == 0 {
                                        assign = matches!(
                                            self.tokens.get(idx + 1),
                                            Some(Token::Punct(Punct::Assign))
                                        );
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            idx += 1;
                        }
                        assign
                    }
                    _ => false,
                };
                if is_assignment {
                    let base = self.expect_ident()?;
                    let target = if matches!(self.peek(), Some(Token::Punct(Punct::LBracket))) {
                        self.advance();
                        let index = self.expression()?;
                        self.expect_punct(Punct::RBracket)?;
                        LValue::Index { base, index }
                    } else {
                        LValue::Var(base)
                    };
                    self.expect_punct(Punct::Assign)?;
                    let value = self.expression()?;
                    self.expect_punct(Punct::Semi)?;
                    Ok(Stmt::Assign { target, value })
                } else {
                    let expr = self.expression()?;
                    self.expect_punct(Punct::Semi)?;
                    Ok(Stmt::ExprStmt(expr))
                }
            }
            _ => Err(self.unexpected("statement")),
        }
    }

    fn for_statement(&mut self, pragmas: Vec<String>) -> Result<Stmt, ParseError> {
        self.advance(); // for
        self.expect_punct(Punct::LParen)?;
        // init: `int i = expr` or `i = expr`
        if matches!(self.peek(), Some(Token::Keyword(Keyword::Int))) {
            self.advance();
        }
        let var = self.expect_ident()?;
        self.expect_punct(Punct::Assign)?;
        let init = self.expression()?;
        self.expect_punct(Punct::Semi)?;
        let cond = self.expression()?;
        self.expect_punct(Punct::Semi)?;
        // step: `i = expr`
        let step_var = self.expect_ident()?;
        if step_var != var {
            return Err(ParseError::Unexpected {
                expected: format!("step assignment to loop variable `{var}`"),
                found: step_var,
                position: self.pos,
            });
        }
        self.expect_punct(Punct::Assign)?;
        let step = self.expression()?;
        self.expect_punct(Punct::RParen)?;
        let body = self.block()?;
        Ok(Stmt::For {
            var,
            init,
            cond,
            step,
            body,
            pragmas,
        })
    }

    // Expression parsing with precedence climbing.
    fn expression(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while matches!(self.peek(), Some(Token::Punct(Punct::OrOr))) {
            self.advance();
            let rhs = self.parse_and()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_comparison()?;
        while matches!(self.peek(), Some(Token::Punct(Punct::AndAnd))) {
            self.advance();
            let rhs = self.parse_comparison()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_additive()?;
        loop {
            let op = match self.peek() {
                Some(Token::Punct(Punct::Eq)) => BinOp::Eq,
                Some(Token::Punct(Punct::Ne)) => BinOp::Ne,
                Some(Token::Punct(Punct::Lt)) => BinOp::Lt,
                Some(Token::Punct(Punct::Le)) => BinOp::Le,
                Some(Token::Punct(Punct::Gt)) => BinOp::Gt,
                Some(Token::Punct(Punct::Ge)) => BinOp::Ge,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_additive()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Punct(Punct::Plus)) => BinOp::Add,
                Some(Token::Punct(Punct::Minus)) => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Punct(Punct::Star)) => BinOp::Mul,
                Some(Token::Punct(Punct::Slash)) => BinOp::Div,
                Some(Token::Punct(Punct::Percent)) => BinOp::Rem,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Punct(Punct::Minus)) => {
                self.advance();
                let operand = self.parse_unary()?;
                Ok(Expr::Unary {
                    not: false,
                    operand: Box::new(operand),
                })
            }
            Some(Token::Punct(Punct::Not)) => {
                self.advance();
                let operand = self.parse_unary()?;
                Ok(Expr::Unary {
                    not: true,
                    operand: Box::new(operand),
                })
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(&Token::IntLit(v)) => {
                self.advance();
                Ok(Expr::IntLit(v))
            }
            Some(&Token::FloatLit(v)) => {
                self.advance();
                Ok(Expr::FloatLit(v))
            }
            Some(Token::Punct(Punct::LParen)) => {
                self.advance();
                let inner = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(_)) => {
                let name = self.expect_ident()?;
                match self.peek() {
                    Some(Token::Punct(Punct::LParen)) => {
                        self.advance();
                        let mut args = Vec::new();
                        if !matches!(self.peek(), Some(Token::Punct(Punct::RParen))) {
                            loop {
                                args.push(self.expression()?);
                                if matches!(self.peek(), Some(Token::Punct(Punct::Comma))) {
                                    self.advance();
                                } else {
                                    break;
                                }
                            }
                        }
                        self.expect_punct(Punct::RParen)?;
                        Ok(Expr::Call { callee: name, args })
                    }
                    Some(Token::Punct(Punct::LBracket)) => {
                        self.advance();
                        let index = self.expression()?;
                        self.expect_punct(Punct::RBracket)?;
                        Ok(Expr::Index {
                            base: name,
                            index: Box::new(index),
                        })
                    }
                    _ => Ok(Expr::Var(name)),
                }
            }
            _ => Err(self.unexpected("expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr, Stmt};

    const AXPY: &str = r#"
kernel void axpy(float* y, float* x, float a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i = i + 1) {
        y[i] = y[i] + a * x[i];
    }
}
"#;

    #[test]
    fn parses_axpy_kernel() {
        let unit = parse("axpy.ck", AXPY).unwrap();
        assert_eq!(unit.functions.len(), 1);
        let f = &unit.functions[0];
        assert!(f.is_kernel);
        assert_eq!(f.params.len(), 4);
        match &f.body[0] {
            Stmt::For {
                var, pragmas, body, ..
            } => {
                assert_eq!(var, "i");
                assert_eq!(pragmas, &vec!["omp parallel for".to_string()]);
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected for loop, got {other:?}"),
        }
    }

    #[test]
    fn parses_multiple_functions_and_calls() {
        let src = r#"
float square(float v) { return v * v; }
kernel void apply(float* out, float* in, int n) {
    for (int i = 0; i < n; i = i + 1) {
        out[i] = square(in[i]);
    }
}
"#;
        let unit = parse("sq.ck", src).unwrap();
        assert_eq!(unit.functions.len(), 2);
        assert_eq!(unit.kernel_names(), vec!["apply"]);
        assert!(unit.external_calls().is_empty());
    }

    #[test]
    fn operator_precedence_is_respected() {
        let src = "kernel void f(float* o, float a, float b, float c) { o[0] = a + b * c; }";
        let unit = parse("p.ck", src).unwrap();
        let Stmt::Assign { value, .. } = &unit.functions[0].body[0] else {
            panic!()
        };
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = value
        else {
            panic!("expected add at top level: {value:?}")
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_if_else_while_and_return() {
        let src = r#"
int clampsum(int* v, int n, int limit) {
    int total = 0;
    int i = 0;
    while (i < n) {
        if (total + v[i] > limit) {
            total = limit;
        } else {
            total = total + v[i];
        }
        i = i + 1;
    }
    return total;
}
"#;
        let unit = parse("c.ck", src).unwrap();
        let f = &unit.functions[0];
        assert!(!f.is_kernel);
        assert!(matches!(f.body[2], Stmt::While { .. }));
        assert!(matches!(f.body.last(), Some(Stmt::Return(Some(_)))));
    }

    #[test]
    fn nested_index_assignment_detection() {
        let src = "kernel void t(float* b, float* a, int n) { b[n - 1] = a[n - 1]; }";
        let unit = parse("t.ck", src).unwrap();
        assert!(matches!(unit.functions[0].body[0], Stmt::Assign { .. }));
    }

    #[test]
    fn reports_errors_with_context() {
        let err = parse("bad.ck", "kernel void f( { }").unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }));
        let err = parse("bad.ck", "kernel void f()").unwrap_err();
        assert!(matches!(
            err,
            ParseError::UnexpectedEof { .. } | ParseError::Unexpected { .. }
        ));
    }

    #[test]
    fn for_loop_step_must_use_loop_variable() {
        let src = "kernel void f(int n) { for (int i = 0; i < n; j = j + 1) { } }";
        assert!(parse("f.ck", src).is_err());
    }

    #[test]
    fn unary_and_logical_operators() {
        let src = "kernel void f(float* o, float a, int flag) { if (!(flag == 0) && a > -1.0) { o[0] = -a; } }";
        let unit = parse("u.ck", src).unwrap();
        assert!(matches!(unit.functions[0].body[0], Stmt::If { .. }));
    }
}
