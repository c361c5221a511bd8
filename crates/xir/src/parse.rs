//! Recursive-descent parser for the CK kernel language.
//!
//! The parser pulls tokens from a [`Lexer`] one at a time and builds a tree that
//! borrows the text: no token vector, no copied name. It stops at the first error in
//! source order, so a lexer error behind a parse error is never reached.

use crate::ast::{BinOp, Expr, Function, LValue, Param, Stmt, TranslationUnit, Type};
use crate::lex::{Keyword, LexError, Lexer, Punct, Token};
use std::fmt;

/// The tallest tree [`parse`] builds. Every block, parenthesis, unary and binary
/// operator, call and index is one level, and a variable or literal none: a body
/// `{ o = (x + y); }` is three levels high. Lowering and dropping recurse down the
/// tree, and a thread's stack (2 MiB by default, which engine workers keep) does not
/// hold the recursion of any height a text can spell; a taller text is
/// [`ParseError::TooDeep`].
pub const MAX_HEIGHT: usize = 256;

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
    /// The text nests deeper than [`MAX_HEIGHT`] levels.
    TooDeep,
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
            ParseError::TooDeep => write!(f, "nesting deeper than {MAX_HEIGHT} levels"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(value: LexError) -> Self {
        ParseError::Lex(value)
    }
}

/// Parse a preprocessed CK source file into a [`TranslationUnit`] that borrows
/// `file` and `source`.
pub fn parse<'a>(file: &'a str, source: &'a str) -> Result<TranslationUnit<'a>, ParseError> {
    let mut parser = Parser::new(source);
    let mut functions = Vec::new();
    loop {
        // Pragmas before a function definition are ignored at this level (they attach to loops).
        while let Some(Token::Pragma(_)) = parser.peek() {
            parser.advance();
        }
        match parser.current {
            Ok(Some(_)) => functions.push(parser.function()?),
            Ok(None) => break,
            Err(error) => return Err(error.into()),
        }
    }
    Ok(TranslationUnit { file, functions })
}

/// The binary operator a token spells and its precedence, higher binding tighter.
fn binary_op(token: Token<'_>) -> Option<(BinOp, u8)> {
    let Token::Punct(punct) = token else {
        return None;
    };
    Some(match punct {
        Punct::OrOr => (BinOp::Or, 0),
        Punct::AndAnd => (BinOp::And, 1),
        Punct::Eq => (BinOp::Eq, 2),
        Punct::Ne => (BinOp::Ne, 2),
        Punct::Lt => (BinOp::Lt, 2),
        Punct::Le => (BinOp::Le, 2),
        Punct::Gt => (BinOp::Gt, 2),
        Punct::Ge => (BinOp::Ge, 2),
        Punct::Plus => (BinOp::Add, 3),
        Punct::Minus => (BinOp::Sub, 3),
        Punct::Star => (BinOp::Mul, 4),
        Punct::Slash => (BinOp::Div, 4),
        Punct::Percent => (BinOp::Rem, 4),
        _ => return None,
    })
}

/// Reads one token at a time and never backs up; it reads ahead on a copy of its
/// cursor.
struct Parser<'a> {
    /// The cursor, just past `current`.
    lexer: Lexer<'a>,
    /// The current token: `Ok(None)` at the end of the text, and the lexer's error
    /// where the text stops lexing.
    current: Result<Option<Token<'a>>, LexError>,
    /// The index of `current` among the text's tokens.
    pos: usize,
    /// The statements of the blocks being parsed, the innermost block's on top: a
    /// block moves its own out at its `}`, into a vector of their exact length.
    stmts: Vec<Stmt<'a>>,
    /// The levels (see [`MAX_HEIGHT`]) open around `current`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(source: &'a str) -> Self {
        let mut lexer = Lexer::new(source);
        let current = lexer.next().transpose();
        Parser {
            lexer,
            current,
            pos: 0,
            stmts: Vec::new(),
            depth: 0,
        }
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.current.as_ref().ok().copied().flatten()
    }

    /// Step past the current token.
    fn advance(&mut self) {
        self.current = self.lexer.next().transpose();
        self.pos += 1;
    }

    /// Open a level around what follows; [`leave`](Self::leave) closes it.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_HEIGHT {
            return Err(ParseError::TooDeep);
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        match &self.current {
            Ok(Some(t)) => ParseError::Unexpected {
                expected: expected.to_string(),
                found: t.to_string(),
                position: self.pos,
            },
            Ok(None) => ParseError::UnexpectedEof {
                expected: expected.to_string(),
            },
            Err(error) => ParseError::Lex(error.clone()),
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Punct(found)) if found == p => {
                self.advance();
                Ok(())
            }
            _ => Err(self.unexpected(&format!("{p:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek() {
            Some(Token::Ident(name)) => {
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

    fn function(&mut self) -> Result<Function<'a>, ParseError> {
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

    fn block(&mut self) -> Result<Vec<Stmt<'a>>, ParseError> {
        self.expect_punct(Punct::LBrace)?;
        self.enter()?;
        let base = self.stmts.len();
        loop {
            // Pragmas attach to the statement after them; a `for` keeps them.
            let mut pragmas = Vec::new();
            while let Some(Token::Pragma(pragma)) = self.peek() {
                pragmas.push(pragma);
                self.advance();
            }
            match self.peek() {
                Some(Token::Punct(Punct::RBrace)) => break,
                Some(_) => {
                    let stmt = self.statement(pragmas)?;
                    self.stmts.push(stmt);
                }
                None => return Err(self.unexpected("`}`")),
            }
        }
        self.advance();
        self.leave();
        Ok(self.stmts.drain(base..).collect())
    }

    /// Nested blocks recurse through this dispatch, so each kind of statement is
    /// parsed in its own frame: an unoptimised build would otherwise reserve every
    /// kind's temporaries at every level.
    fn statement(&mut self, pragmas: Vec<&'a str>) -> Result<Stmt<'a>, ParseError> {
        match self.peek() {
            Some(Token::Keyword(Keyword::For)) => self.for_statement(pragmas),
            Some(Token::Keyword(Keyword::While)) => self.while_statement(),
            Some(Token::Keyword(Keyword::If)) => self.if_statement(),
            _ => self.simple_statement(),
        }
    }

    fn while_statement(&mut self) -> Result<Stmt<'a>, ParseError> {
        self.advance(); // while
        self.expect_punct(Punct::LParen)?;
        let cond = self.expression()?;
        self.expect_punct(Punct::RParen)?;
        let body = self.block()?;
        Ok(Stmt::While { cond, body })
    }

    fn if_statement(&mut self) -> Result<Stmt<'a>, ParseError> {
        self.advance(); // if
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

    /// A statement without a block: a return, a declaration, an assignment or an
    /// expression statement.
    fn simple_statement(&mut self) -> Result<Stmt<'a>, ParseError> {
        match self.peek() {
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
            Some(Token::Ident(base)) if self.at_assignment() => {
                self.advance();
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
            }
            Some(Token::Ident(_)) => {
                // An expression statement (a call).
                let expr = self.expression()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::ExprStmt(expr))
            }
            _ => Err(self.unexpected("statement")),
        }
    }

    /// Whether the identifier at `current` starts an assignment, `name =` or
    /// `name[...] =`: read ahead on a copy of the cursor.
    fn at_assignment(&self) -> bool {
        let mut ahead = self.lexer;
        match ahead.next() {
            Some(Ok(Token::Punct(Punct::Assign))) => true,
            Some(Ok(Token::Punct(Punct::LBracket))) => {
                // Find the matching `]` and check the following token is `=`.
                let mut depth = 1usize;
                while let Some(Ok(token)) = ahead.next() {
                    match token {
                        Token::Punct(Punct::LBracket) => depth += 1,
                        Token::Punct(Punct::RBracket) => {
                            depth -= 1;
                            if depth == 0 {
                                return matches!(
                                    ahead.next(),
                                    Some(Ok(Token::Punct(Punct::Assign)))
                                );
                            }
                        }
                        _ => {}
                    }
                }
                false
            }
            _ => false,
        }
    }

    fn for_statement(&mut self, pragmas: Vec<&'a str>) -> Result<Stmt<'a>, ParseError> {
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
                found: step_var.to_string(),
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

    fn expression(&mut self) -> Result<Expr<'a>, ParseError> {
        Ok(self.binary(0)?.0)
    }

    // The expression parsers return each expression with its height.

    /// A left-associative chain of binary operators of at least `min_precedence`
    /// (precedence climbing).
    fn binary(&mut self, min_precedence: u8) -> Result<(Expr<'a>, usize), ParseError> {
        let (mut lhs, mut height) = self.unary()?;
        while let Some((op, precedence)) = self.peek().and_then(binary_op) {
            if precedence < min_precedence {
                break;
            }
            self.advance();
            self.enter()?;
            let (rhs, rhs_height) = self.binary(precedence + 1)?;
            self.leave();
            // Each operator puts the chain so far one level lower, which no level
            // open around it counts: the chain's own height is checked here.
            height = height.max(rhs_height) + 1;
            if self.depth + height > MAX_HEIGHT {
                return Err(ParseError::TooDeep);
            }
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok((lhs, height))
    }

    fn unary(&mut self) -> Result<(Expr<'a>, usize), ParseError> {
        let not = match self.peek() {
            Some(Token::Punct(Punct::Minus)) => false,
            Some(Token::Punct(Punct::Not)) => true,
            _ => return self.primary(),
        };
        self.advance();
        self.enter()?;
        let (operand, height) = self.unary()?;
        self.leave();
        let operand = Box::new(operand);
        Ok((Expr::Unary { not, operand }, height + 1))
    }

    fn primary(&mut self) -> Result<(Expr<'a>, usize), ParseError> {
        let name = match self.peek() {
            Some(Token::IntLit(v)) => {
                self.advance();
                return Ok((Expr::IntLit(v), 0));
            }
            Some(Token::FloatLit(v)) => {
                self.advance();
                return Ok((Expr::FloatLit(v), 0));
            }
            Some(Token::Punct(Punct::LParen)) => {
                self.advance();
                self.enter()?;
                let (inner, height) = self.binary(0)?;
                self.expect_punct(Punct::RParen)?;
                self.leave();
                return Ok((inner, height + 1));
            }
            Some(Token::Ident(name)) => name,
            _ => return Err(self.unexpected("expression")),
        };
        self.advance();
        self.named(name)
    }

    /// A variable, or the call or index that `name`, just read, starts. Parsed in
    /// its own frame for the same reason as [`statement`](Self::statement).
    fn named(&mut self, name: &'a str) -> Result<(Expr<'a>, usize), ParseError> {
        match self.peek() {
            Some(Token::Punct(Punct::LParen)) => {
                self.advance();
                self.enter()?;
                let mut args = Vec::new();
                let mut height = 0;
                if !matches!(self.peek(), Some(Token::Punct(Punct::RParen))) {
                    loop {
                        let (arg, arg_height) = self.binary(0)?;
                        args.push(arg);
                        height = height.max(arg_height);
                        if matches!(self.peek(), Some(Token::Punct(Punct::Comma))) {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                self.expect_punct(Punct::RParen)?;
                self.leave();
                Ok((Expr::Call { callee: name, args }, height + 1))
            }
            Some(Token::Punct(Punct::LBracket)) => {
                self.advance();
                self.enter()?;
                let (index, height) = self.binary(0)?;
                self.expect_punct(Punct::RBracket)?;
                self.leave();
                let index = Box::new(index);
                Ok((Expr::Index { base: name, index }, height + 1))
            }
            _ => Ok((Expr::Var(name), 0)),
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
                assert_eq!(*var, "i");
                assert_eq!(pragmas, &vec!["omp parallel for"]);
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
    fn the_first_error_in_source_order_wins() {
        // A parse error before a lexer error: the lexer never reaches the `@`.
        let err = parse("e.ck", "kernel void f( { } @").unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }), "{err:?}");
        // A lexer error before a parse error, and one behind a whole function.
        for text in ["kernel void f(@ {", "kernel void f() { }\n@"] {
            let err = parse("e.ck", text).unwrap_err();
            assert!(matches!(err, ParseError::Lex(_)), "{text:?}: {err:?}");
        }
    }

    /// A unit `height` levels high.
    type Unit = fn(height: usize) -> String;

    /// Units of each way of nesting: the body block is one level and the shape,
    /// repeated `height - 1` times, the rest.
    const SHAPES: [(&str, Unit); 4] = [
        ("parentheses", |height| {
            let (open, close) = ("(".repeat(height - 1), ")".repeat(height - 1));
            format!("kernel void f(float* o, float x) {{ o[0] = {open}x{close}; }}")
        }),
        ("unary operators", |height| {
            let minus = "-".repeat(height - 1);
            format!("kernel void f(float* o, float x) {{ o[0] = {minus}x; }}")
        }),
        ("a binary chain", |height| {
            let terms = "+x".repeat(height - 1);
            format!("kernel void f(float* o, float x) {{ o[0] = x{terms}; }}")
        }),
        ("blocks", |height| {
            let (open, close) = ("if (x) { ".repeat(height - 1), "} ".repeat(height - 1));
            format!("kernel void f(int x) {{ {open}{close}}}")
        }),
    ];

    #[test]
    fn a_2_mib_thread_compiles_the_tallest_unit_and_refuses_a_taller_one() {
        let flags = crate::CompileFlags::default();
        let compile = move || {
            for (shape, text) in SHAPES {
                let module = crate::compile_preprocessed("deep.ck", &text(MAX_HEIGHT), &flags);
                assert!(module.is_ok(), "{shape} at {MAX_HEIGHT}: {module:?}");
                // Without the cap, 10,000 levels of any shape overflowed this stack.
                for height in [MAX_HEIGHT + 1, 100_000] {
                    let text = text(height);
                    assert_eq!(parse("deep.ck", &text), Err(ParseError::TooDeep), "{shape}");
                    assert_eq!(
                        crate::compile_preprocessed("deep.ck", &text, &flags),
                        Err(crate::CompileError::Parse(ParseError::TooDeep)),
                        "{shape} at {height}"
                    );
                }
            }
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(compile)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn unary_and_logical_operators() {
        let src = "kernel void f(float* o, float a, int flag) { if (!(flag == 0) && a > -1.0) { o[0] = -a; } }";
        let unit = parse("u.ck", src).unwrap();
        assert!(matches!(unit.functions[0].body[0], Stmt::If { .. }));
    }
}
