//! Lexer for the CK kernel language.
//!
//! CK ("compute kernel") is the small C-like language the synthetic HPC applications are
//! written in. It supports exactly the constructs the XaaS pipeline needs to exercise:
//! functions over scalars and pointers, `for` loops, `if`/`else`, arithmetic, array
//! indexing, calls, and `#pragma omp` annotations.
//!
//! A [`Lexer`] is a `Copy` cursor over the source's bytes that yields one token at a
//! time; the parser pulls its tokens from one and reads ahead on a copy, so no token
//! vector is built. A token borrows its text: an identifier or a pragma is a slice of
//! the source, never a copy. [`lex`] collects a lexer's tokens, for tests and tools.
//! The identifier rule lives here once; the preprocessor splits lines with it too.
//! The source may come from a pulled image, so this module neither indexes nor
//! unwraps: a slice cut inside a `char` would panic.
#![deny(clippy::indexing_slicing, clippy::unwrap_used)]

use std::fmt;

/// A lexical token; an identifier or a pragma is a slice of the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'a> {
    /// Identifier (variable, function, type name).
    Ident(&'a str),
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    /// Keyword.
    Keyword(Keyword),
    /// Punctuation / operator.
    Punct(Punct),
    /// A `#pragma …` line: the text after `pragma`, trimmed.
    Pragma(&'a str),
}

/// Reserved keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    /// `kernel` — marks an exported function.
    Kernel,
    /// `void`
    Void,
    /// `int`
    Int,
    /// `float`
    Float,
    /// `double`
    Double,
    /// `for`
    For,
    /// `while`
    While,
    /// `if`
    If,
    /// `else`
    Else,
    /// `return`
    Return,
}

impl Keyword {
    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "kernel" => Keyword::Kernel,
            "void" => Keyword::Void,
            "int" => Keyword::Int,
            "float" => Keyword::Float,
            "double" => Keyword::Double,
            "for" => Keyword::For,
            "while" => Keyword::While,
            "if" => Keyword::If,
            "else" => Keyword::Else,
            "return" => Keyword::Return,
            _ => return None,
        })
    }
}

/// Punctuation and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Punct {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Assign,
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
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::IntLit(v) => write!(f, "{v}"),
            Token::FloatLit(v) => write!(f, "{v}"),
            Token::Keyword(k) => write!(f, "{k:?}"),
            Token::Punct(p) => write!(f, "{p:?}"),
            Token::Pragma(p) => write!(f, "#pragma {p}"),
        }
    }
}

/// Lexer errors with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Whether `byte` can start an identifier: an ASCII letter or `_`.
pub(crate) fn is_identifier_start(byte: u8) -> bool {
    byte.is_ascii_alphabetic() || byte == b'_'
}

/// Whether `byte` can continue an identifier: an ASCII letter, digit or `_`.
fn is_identifier_byte(byte: u8) -> bool {
    byte.is_ascii_alphanumeric() || byte == b'_'
}

/// The byte length of the identifier `bytes` starts with (0 when it starts with none).
/// The one identifier rule: the lexer and the preprocessor both split text with it.
pub(crate) fn identifier_len(bytes: &[u8]) -> usize {
    match bytes.first() {
        Some(&first) if is_identifier_start(first) => bytes
            .iter()
            .position(|&byte| !is_identifier_byte(byte))
            .unwrap_or(bytes.len()),
        _ => 0,
    }
}

/// The two-character operator a byte pair spells.
fn two_char_punct(first: u8, second: u8) -> Option<Punct> {
    Some(match (first, second) {
        (b'=', b'=') => Punct::Eq,
        (b'!', b'=') => Punct::Ne,
        (b'<', b'=') => Punct::Le,
        (b'>', b'=') => Punct::Ge,
        (b'&', b'&') => Punct::AndAnd,
        (b'|', b'|') => Punct::OrOr,
        _ => return None,
    })
}

/// The one-character operator or delimiter a byte spells.
fn one_char_punct(byte: u8) -> Option<Punct> {
    Some(match byte {
        b'(' => Punct::LParen,
        b')' => Punct::RParen,
        b'{' => Punct::LBrace,
        b'}' => Punct::RBrace,
        b'[' => Punct::LBracket,
        b']' => Punct::RBracket,
        b';' => Punct::Semi,
        b',' => Punct::Comma,
        b'+' => Punct::Plus,
        b'-' => Punct::Minus,
        b'*' => Punct::Star,
        b'/' => Punct::Slash,
        b'%' => Punct::Percent,
        b'=' => Punct::Assign,
        b'<' => Punct::Lt,
        b'>' => Punct::Gt,
        b'!' => Punct::Not,
        _ => return None,
    })
}

/// A cursor over CK source text (already preprocessed — no `#if`/`#define` directives
/// except `#pragma`, which is kept as a token) that yields one token at a time.
///
/// One pass over the source's bytes: a token's identifier or pragma is a slice of the
/// source, and a `char` is decoded only at a non-ASCII byte (Unicode whitespace is
/// skipped; any other non-ASCII character is an error). Every cut falls after an ASCII
/// byte or a whole `char`, so each slice lies on `char` boundaries. The cursor is
/// `Copy`, so reading ahead is scanning a copy. After an error it yields nothing more.
#[derive(Debug, Clone, Copy)]
pub struct Lexer<'a> {
    source: &'a str,
    /// Byte offset of the next unread byte.
    pos: usize,
    /// 1-based line of `pos`.
    line: usize,
}

impl<'a> Lexer<'a> {
    /// A cursor at the start of `source`.
    pub fn new(source: &'a str) -> Self {
        Lexer {
            source,
            pos: 0,
            line: 1,
        }
    }

    /// The next token, or `None` at the end of the source.
    fn next_token(&mut self) -> Result<Option<Token<'a>>, LexError> {
        let source = self.source;
        let bytes = source.as_bytes();
        let text = move |start: usize, end: usize| source.get(start..end).unwrap_or_default();
        let at = |i: usize| bytes.get(i).copied();
        while let Some(byte) = at(self.pos) {
            let start = self.pos;
            match byte {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'/' if at(start + 1) == Some(b'/') => {
                    self.pos = line_end(bytes, start);
                }
                b'/' if at(start + 1) == Some(b'*') => {
                    let mut i = start + 2;
                    while let Some(byte) = at(i) {
                        if byte == b'*' && at(i + 1) == Some(b'/') {
                            break;
                        }
                        if byte == b'\n' {
                            self.line += 1;
                        }
                        i += 1;
                    }
                    self.pos = (i + 2).min(bytes.len());
                }
                b'#' => {
                    // Only #pragma is allowed after preprocessing.
                    self.pos = line_end(bytes, start);
                    let directive = text(start, self.pos);
                    let trimmed = directive.trim_start_matches('#').trim();
                    return match trimmed.strip_prefix("pragma") {
                        Some(rest) => Ok(Some(Token::Pragma(rest.trim()))),
                        None => Err(LexError {
                            line: self.line,
                            message: format!(
                                "unexpected preprocessor directive after preprocessing: {directive}"
                            ),
                        }),
                    };
                }
                byte if is_identifier_start(byte) => {
                    self.pos += identifier_len(bytes.get(start..).unwrap_or_default());
                    let word = text(start, self.pos);
                    return Ok(Some(
                        Keyword::from_str(word).map_or(Token::Ident(word), Token::Keyword),
                    ));
                }
                byte if byte.is_ascii_digit() => return self.number().map(Some),
                byte if byte.is_ascii() && char::from(byte).is_whitespace() => self.pos += 1,
                byte if byte.is_ascii() => {
                    if let Some(punct) = at(start + 1).and_then(|next| two_char_punct(byte, next)) {
                        self.pos += 2;
                        return Ok(Some(Token::Punct(punct)));
                    }
                    let punct = one_char_punct(byte)
                        .ok_or_else(|| unexpected_character(self.line, char::from(byte)))?;
                    self.pos += 1;
                    return Ok(Some(Token::Punct(punct)));
                }
                _ => {
                    // A non-ASCII byte starts a multi-byte `char`: decode that one.
                    let c = text(start, bytes.len()).chars().next().unwrap_or_default();
                    if !c.is_whitespace() {
                        return Err(unexpected_character(self.line, c));
                    }
                    self.pos += c.len_utf8();
                }
            }
        }
        Ok(None)
    }

    /// The integer or float literal at `pos`, which is a digit.
    fn number(&mut self) -> Result<Token<'a>, LexError> {
        let bytes = self.source.as_bytes();
        let at = |i: usize| bytes.get(i).copied();
        let start = self.pos;
        let mut i = start;
        let mut is_float = false;
        while let Some(byte) = at(i) {
            let point_or_exponent = matches!(byte, b'.' | b'e' | b'E');
            let exponent_sign =
                matches!(byte, b'+' | b'-') && i > start && matches!(at(i - 1), Some(b'e' | b'E'));
            if !(byte.is_ascii_digit() || point_or_exponent || exponent_sign) {
                break;
            }
            is_float |= point_or_exponent;
            i += 1;
        }
        let number = self.source.get(start..i).unwrap_or_default();
        // Allow a trailing `f` suffix on float literals.
        if at(i) == Some(b'f') {
            is_float = true;
            i += 1;
        }
        self.pos = i;
        if is_float {
            number
                .parse::<f64>()
                .map(Token::FloatLit)
                .map_err(|_| LexError {
                    line: self.line,
                    message: format!("invalid float literal: {number}"),
                })
        } else {
            number
                .parse::<i64>()
                .map(Token::IntLit)
                .map_err(|_| LexError {
                    line: self.line,
                    message: format!("invalid integer literal: {number}"),
                })
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        let next = self.next_token().transpose();
        if let Some(Err(_)) = next {
            self.pos = self.source.len();
        }
        next
    }
}

/// Tokenise CK source text: every token of a [`Lexer`], or its error.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, LexError> {
    Lexer::new(source).collect()
}

/// The position of the first `\n` at or after `from`, or the end of `bytes`.
fn line_end(bytes: &[u8], from: usize) -> usize {
    bytes
        .get(from..)
        .and_then(|rest| rest.iter().position(|&byte| byte == b'\n'))
        .map_or(bytes.len(), |offset| from + offset)
}

fn unexpected_character(line: usize, c: char) -> LexError {
    LexError {
        line,
        message: format!("unexpected character `{c}`"),
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing, clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn lexes_a_simple_kernel() {
        let src = "kernel void axpy(float* y, float* x, float a, int n) { y[0] = a * x[0]; }";
        let tokens = lex(src).unwrap();
        assert_eq!(tokens[0], Token::Keyword(Keyword::Kernel));
        assert_eq!(tokens[1], Token::Keyword(Keyword::Void));
        assert_eq!(tokens[2], Token::Ident("axpy"));
        assert!(tokens.contains(&Token::Punct(Punct::Star)));
        assert!(tokens.contains(&Token::Punct(Punct::LBracket)));
    }

    #[test]
    fn lexes_numbers_and_floats() {
        let tokens = lex("42 3.5 1e-3 2.0f 7").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::IntLit(42),
                Token::FloatLit(3.5),
                Token::FloatLit(1e-3),
                Token::FloatLit(2.0),
                Token::IntLit(7),
            ]
        );
    }

    #[test]
    fn lexes_operators_including_two_char() {
        let tokens = lex("a <= b && c != d || !e").unwrap();
        assert!(tokens.contains(&Token::Punct(Punct::Le)));
        assert!(tokens.contains(&Token::Punct(Punct::AndAnd)));
        assert!(tokens.contains(&Token::Punct(Punct::Ne)));
        assert!(tokens.contains(&Token::Punct(Punct::OrOr)));
        assert!(tokens.contains(&Token::Punct(Punct::Not)));
    }

    #[test]
    fn skips_comments_and_counts_lines() {
        let src = "// comment line\nint a; /* block\ncomment */ int b;";
        let tokens = lex(src).unwrap();
        let idents: Vec<_> = tokens
            .iter()
            .filter_map(|t| match t {
                Token::Ident(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["a", "b"]);
    }

    #[test]
    fn keeps_pragmas_as_tokens() {
        let src = "#pragma omp parallel for\nfor (int i = 0; i < n; i = i + 1) {}";
        let tokens = lex(src).unwrap();
        assert_eq!(tokens[0], Token::Pragma("omp parallel for"));
    }

    #[test]
    fn rejects_unexpected_directives_and_characters() {
        assert!(lex("#define A 1\nint a;").is_err());
        assert!(lex("int a @ b;").is_err());
    }
}
