//! The byte scanners of the xir front end against the char scanners they replaced.
//!
//! `lex`, macro substitution and the preprocessor's identifier scan read their text
//! as bytes and slice it in place. The oracles below are the char-based versions they
//! replaced, kept here verbatim except for one fix: `#if 1` is a literal, not a macro
//! name, in both. On generated text full of the cases a byte scanner can get wrong —
//! non-ASCII letters and whitespace, CRLF, a `//` or an unterminated `/*` at the end,
//! half-formed numbers, digits glued to identifiers, pragma and stray directive lines —
//! both sides must give the same tokens or the same `LexError`, the same preprocessed
//! unit or the same error, and the same `Observation::observes` answers. The oracle
//! lexer keeps its owned tokens; the lexer's borrowed ones are compared with them
//! field by field. The parser pulls its tokens lazily, so a lexer error must still
//! fail the parse, however late in the text it comes.

use proptest::TestRng;
use std::collections::{BTreeMap, BTreeSet};
use xaas_xir::lex::{lex, Keyword, LexError, Punct, Token};
use xaas_xir::parse::{parse, ParseError};
use xaas_xir::preprocess::{preprocess, PreprocessError};
use xaas_xir::{Definitions, Observation, PreprocessedUnit};

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.usize_in(0, items.len())]
}

/// Pieces of a text line. Most lex; `é`, `@`, `1e+` and an overflowing integer are
/// errors wherever they reach the lexer.
const WORDS: [&str; 32] = [
    "A",
    "N",
    "x",
    "int",
    "kernel",
    "for",
    "omp_x",
    "2omp_x",
    "_t9",
    "Aé",
    "é",
    "1e-3",
    "2.0f",
    "1e+",
    "42",
    "3.5",
    "7e2",
    "99999999999999999999",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "(x)",
    "[0]",
    "{",
    "}",
    ";",
    "a=b",
    "!c",
    "@",
];

/// What stands between two pieces: ASCII and Unicode whitespace, or nothing.
const GAPS: [&str; 8] = [" ", " ", "  ", "\t", "\u{a0}", "\u{3000}", "", "\u{b}"];

/// Whole lines: pragmas, stray directives, comments.
const LINES: [&str; 12] = [
    "#pragma omp parallel for",
    "  #  pragma   unroll 4",
    "#pragma",
    "#define N 3",
    "#bogus",
    "#",
    "// a comment é",
    "x = 1; // trailing",
    "/* one */ y = 2;",
    "/* spans\u{3000}\nlines */ z = 3;",
    "w /* é */ = 4;",
    "q = a/b/c;",
];

fn text_line(rng: &mut TestRng, out: &mut String) {
    if rng.usize_in(0, 4) == 0 {
        out.push_str(pick(rng, &LINES));
        return;
    }
    for _ in 0..rng.usize_in(1, 7) {
        out.push_str(pick(rng, &WORDS));
        out.push_str(pick(rng, &GAPS));
    }
}

/// Lines ended by `\n` or CRLF, and now and then a `//` or an unterminated `/*`
/// as the very last bytes.
fn lexer_text(rng: &mut TestRng) -> String {
    let mut text = String::new();
    for _ in 0..rng.usize_in(1, 6) {
        text_line(rng, &mut text);
        text.push_str(pick(rng, &["\n", "\n", "\r\n"]));
    }
    text.push_str(pick(rng, &["", "", "//", "/*", "/* open\n", "x //", "*"]));
    text
}

/// A unit for the preprocessor: text lines beside conditionals (literal, named,
/// non-identifier), `#define`/`#undef`, includes and stray directives.
fn unit_text(rng: &mut TestRng, depth: usize, out: &mut String) {
    for _ in 0..rng.usize_in(0, 6) {
        match rng.usize_in(0, 10) {
            0..=4 => text_line(rng, out),
            5 => out.push_str(pick(
                rng,
                &[
                    "#define N 3",
                    "#define A",
                    "#define é 2",
                    "#undef x",
                    "#undef N",
                ],
            )),
            6 => out.push_str(pick(
                rng,
                &["#include \"h.h\"", "#include <h.h>", "#include \"no.h\""],
            )),
            7 => out.push_str(pick(
                rng,
                &["#pragma omp simd", "#bogus", "#endif", "#else"],
            )),
            _ if depth < 2 => {
                out.push_str(pick(
                    rng,
                    &[
                        "#if 1",
                        "#if 0",
                        "#if 2 && !0",
                        "#ifdef A",
                        "#ifndef N",
                        "#if N",
                        "#if defined(x) || é",
                        "#if 1X",
                        "#elif 1",
                    ],
                ));
                out.push_str(pick(rng, &["\n", "\r\n"]));
                unit_text(rng, depth + 1, out);
                if rng.usize_in(0, 3) == 0 {
                    out.push_str(pick(rng, &["#elif 1\n", "#elif A\n", "#else\n"]));
                    unit_text(rng, depth + 1, out);
                }
                out.push_str("#endif");
            }
            _ => out.push_str("kernel void f(float* x) { x[0] = N; }"),
        }
        out.push_str(pick(rng, &["\n", "\n", "\r\n"]));
    }
}

const FLAGS: [&str; 9] = [
    "-DA",
    "-DN=4",
    "-DN=N + 1",
    "-Dx=é",
    "-Domp_x=1",
    "-D1=0",
    "-Dé=1",
    "-DA B=1",
    "-O2",
];

/// What the two sides of a lex comparison covered, so the test cannot pass vacuously.
#[derive(Debug, Default)]
struct LexCoverage {
    ok: usize,
    unexpected_character: usize,
    non_ascii_character: usize,
    bad_number: usize,
    directive: usize,
    unicode_whitespace: usize,
}

#[test]
fn lexing_bytes_matches_lexing_chars() {
    let mut rng = TestRng::from_name("front_end_differential::lex");
    let mut coverage = LexCoverage::default();
    for case in 0..1024 {
        let text = lexer_text(&mut rng);
        let bytes = owned(lex(&text));
        assert_eq!(bytes, oracle::lex(&text), "case {case}: {text:?}");
        match &bytes {
            Ok(_) => {
                coverage.ok += 1;
                coverage.unicode_whitespace += usize::from(text.contains(['\u{a0}', '\u{3000}']));
            }
            Err(lexed) if lexed.message.starts_with("unexpected character") => {
                coverage.unexpected_character += 1;
                coverage.non_ascii_character += usize::from(!lexed.message.is_ascii());
            }
            Err(lexed) if lexed.message.starts_with("invalid") => coverage.bad_number += 1,
            Err(_) => coverage.directive += 1,
        }
    }
    println!("{coverage:?}");
    for (what, count) in [
        ("ok", coverage.ok),
        ("unexpected_character", coverage.unexpected_character),
        ("non_ascii_character", coverage.non_ascii_character),
        ("bad_number", coverage.bad_number),
        ("directive", coverage.directive),
        ("unicode_whitespace", coverage.unicode_whitespace),
    ] {
        assert!(count >= 10, "{what}: only {count} of 1024 ({coverage:?})");
    }
}

#[test]
fn lexing_edge_texts_matches_lexing_chars() {
    for text in [
        "",
        "//",
        "/*",
        "/*/",
        "/**/",
        "a/",
        "1e",
        "1e+",
        "1e-3",
        "2.0f",
        "2omp_x",
        "é",
        "a\u{a0}b",
        "x\u{3000}=\u{3000}1;",
        "a\r\nb",
        "#pragma omp\r\n",
        "#define X",
        "  #if 1",
        "1.2.3",
        "9223372036854775807",
        "9223372036854775808",
        "!==",
        "&|",
        "a // é",
        "/* \n é",
    ] {
        assert_eq!(owned(lex(text)), oracle::lex(text), "{text:?}");
    }
}

/// A whole definition: a lexer error behind it is met only after it has parsed.
const COMPLETE_FUNCTION: &str = "kernel void f(float* x) { x[0] = 1.0; }\n";

#[test]
fn whenever_lexing_fails_parsing_fails() {
    let mut rng = TestRng::from_name("front_end_differential::parse");
    let (mut lex_errors, mut behind_a_function) = (0, 0);
    for case in 0..1024 {
        let text = lexer_text(&mut rng);
        let Err(lexed) = lex(&text) else {
            continue;
        };
        lex_errors += 1;
        assert!(parse("t.ck", &text).is_err(), "case {case}: {text:?}");
        let text = format!("{COMPLETE_FUNCTION}{text}");
        match parse("t.ck", &text) {
            Ok(unit) => panic!("case {case}: {text:?} lexes as {lexed} but parses as {unit:?}"),
            Err(ParseError::Lex(parsed)) => {
                // The lexer stops at its first error, wherever the parser reaches it.
                assert_eq!(Some(parsed), lex(&text).err(), "case {case}: {text:?}");
                behind_a_function += 1;
            }
            Err(_) => {}
        }
    }
    println!("{lex_errors} texts fail to lex, {behind_a_function} behind a whole function");
    assert!(
        lex_errors >= 300,
        "only {lex_errors} of 1024 texts fail to lex"
    );
    assert!(
        behind_a_function >= 50,
        "only {behind_a_function} lexer errors are met behind a whole function"
    );
}

/// The lexer's borrowed tokens as the oracle's owned ones, field by field.
fn owned(lexed: Result<Vec<Token<'_>>, LexError>) -> Result<Vec<oracle::Token>, LexError> {
    lexed.map(|tokens| {
        tokens
            .into_iter()
            .map(|token| match token {
                Token::Ident(name) => oracle::Token::Ident(name.to_string()),
                Token::IntLit(value) => oracle::Token::IntLit(value),
                Token::FloatLit(value) => oracle::Token::FloatLit(value),
                Token::Keyword(keyword) => oracle::Token::Keyword(keyword),
                Token::Punct(punct) => oracle::Token::Punct(punct),
                Token::Pragma(pragma) => oracle::Token::Pragma(pragma.to_string()),
            })
            .collect()
    })
}

#[test]
fn preprocessing_bytes_matches_preprocessing_chars() {
    let mut rng = TestRng::from_name("front_end_differential::preprocess");
    let (mut ok, mut substituted, mut errors, mut literal_if) = (0, 0, 0, 0);
    for case in 0..512 {
        let mut source = String::new();
        unit_text(&mut rng, 0, &mut source);
        let mut header = String::new();
        unit_text(&mut rng, 1, &mut header);
        let headers = BTreeMap::from([("h.h".to_string(), header)]);
        let flags: Vec<&str> = (0..rng.usize_in(0, 4))
            .map(|_| FLAGS[rng.usize_in(0, FLAGS.len())])
            .collect();
        let definitions = Definitions::from_flags(flags.iter().copied());

        let bytes = preprocess("u.ck", &source, &definitions, &headers);
        let chars = oracle::preprocess("u.ck", &source, &definitions, &headers);
        assert_eq!(bytes, chars, "case {case}: {flags:?} over\n{source:?}");
        match &bytes {
            Ok(unit) => {
                ok += 1;
                substituted += usize::from(!unit.used_definitions.is_empty());
                literal_if += usize::from(
                    ["#if 1\n", "#if 1\r", "#elif 1", "#if 2"]
                        .iter()
                        .any(|line| source.contains(line)),
                );
            }
            Err(_) => errors += 1,
        }

        let observation = Observation::of(&source, &headers);
        let observed = oracle::observed_identifiers(&source, &headers);
        let mut names: BTreeSet<String> = observed.clone();
        names.extend(observed.iter().map(|name| format!("{name}_")));
        names.extend(
            observed
                .iter()
                .filter_map(|name| name.get(1..))
                .map(str::to_string),
        );
        names.extend(
            [
                "", "A", "N", "x", "omp_x", "é", "Aé", "1X", "A B", "_t9", "t9", "GHOST",
            ]
            .map(str::to_string),
        );
        for name in &names {
            assert_eq!(
                observation.observes(name),
                oracle::observes(&observed, name),
                "case {case}: {name:?} over\n{source:?}"
            );
        }
    }
    println!("ok {ok}, substituted {substituted}, errors {errors}, literal_if {literal_if}");
    for (what, count) in [
        ("ok", ok),
        ("substituted", substituted),
        ("errors", errors),
        ("literal_if", literal_if),
    ] {
        assert!(count >= 10, "{what}: only {count} of 512");
    }
}

/// The char-based scanners the byte scanners replaced.
mod oracle {
    use super::*;

    /// The token the char lexer produced: identifiers and pragmas are copied out.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Token {
        Ident(String),
        IntLit(i64),
        FloatLit(f64),
        Keyword(Keyword),
        Punct(Punct),
        Pragma(String),
    }

    fn keyword(word: &str) -> Option<Keyword> {
        Some(match word {
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

    pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
        let mut tokens = Vec::new();
        let mut line = 1usize;
        let bytes: Vec<char> = source.chars().collect();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i];
            match c {
                '\n' => {
                    line += 1;
                    i += 1;
                }
                c if c.is_whitespace() => {
                    i += 1;
                }
                '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                    while i < bytes.len() && bytes[i] != '\n' {
                        i += 1;
                    }
                }
                '/' if i + 1 < bytes.len() && bytes[i + 1] == '*' => {
                    i += 2;
                    while i + 1 < bytes.len() && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                        if bytes[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i = (i + 2).min(bytes.len());
                }
                '#' => {
                    let start = i;
                    while i < bytes.len() && bytes[i] != '\n' {
                        i += 1;
                    }
                    let directive: String = bytes[start..i].iter().collect();
                    let trimmed = directive.trim_start_matches('#').trim();
                    if let Some(rest) = trimmed.strip_prefix("pragma") {
                        tokens.push(Token::Pragma(rest.trim().to_string()));
                    } else {
                        return Err(LexError {
                            line,
                            message: format!(
                                "unexpected preprocessor directive after preprocessing: {directive}"
                            ),
                        });
                    }
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let start = i;
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                        i += 1;
                    }
                    let word: String = bytes[start..i].iter().collect();
                    match keyword(&word) {
                        Some(kw) => tokens.push(Token::Keyword(kw)),
                        None => tokens.push(Token::Ident(word)),
                    }
                }
                c if c.is_ascii_digit() => {
                    let start = i;
                    let mut is_float = false;
                    while i < bytes.len()
                        && (bytes[i].is_ascii_digit()
                            || bytes[i] == '.'
                            || bytes[i] == 'e'
                            || bytes[i] == 'E'
                            || ((bytes[i] == '+' || bytes[i] == '-')
                                && i > start
                                && (bytes[i - 1] == 'e' || bytes[i - 1] == 'E')))
                    {
                        if bytes[i] == '.' || bytes[i] == 'e' || bytes[i] == 'E' {
                            is_float = true;
                        }
                        i += 1;
                    }
                    let text: String = bytes[start..i].iter().collect();
                    if i < bytes.len() && bytes[i] == 'f' {
                        is_float = true;
                        i += 1;
                    }
                    if is_float {
                        let value = text.parse::<f64>().map_err(|_| LexError {
                            line,
                            message: format!("invalid float literal: {text}"),
                        })?;
                        tokens.push(Token::FloatLit(value));
                    } else {
                        let value = text.parse::<i64>().map_err(|_| LexError {
                            line,
                            message: format!("invalid integer literal: {text}"),
                        })?;
                        tokens.push(Token::IntLit(value));
                    }
                }
                _ => {
                    let two: String = bytes[i..(i + 2).min(bytes.len())].iter().collect();
                    let (punct, advance) = match two.as_str() {
                        "==" => (Punct::Eq, 2),
                        "!=" => (Punct::Ne, 2),
                        "<=" => (Punct::Le, 2),
                        ">=" => (Punct::Ge, 2),
                        "&&" => (Punct::AndAnd, 2),
                        "||" => (Punct::OrOr, 2),
                        _ => {
                            let single = match c {
                                '(' => Punct::LParen,
                                ')' => Punct::RParen,
                                '{' => Punct::LBrace,
                                '}' => Punct::RBrace,
                                '[' => Punct::LBracket,
                                ']' => Punct::RBracket,
                                ';' => Punct::Semi,
                                ',' => Punct::Comma,
                                '+' => Punct::Plus,
                                '-' => Punct::Minus,
                                '*' => Punct::Star,
                                '/' => Punct::Slash,
                                '%' => Punct::Percent,
                                '=' => Punct::Assign,
                                '<' => Punct::Lt,
                                '>' => Punct::Gt,
                                '!' => Punct::Not,
                                other => {
                                    return Err(LexError {
                                        line,
                                        message: format!("unexpected character `{other}`"),
                                    })
                                }
                            };
                            (single, 1)
                        }
                    };
                    tokens.push(Token::Punct(punct));
                    i += advance;
                }
            }
        }
        Ok(tokens)
    }

    fn is_identifier_start(c: char) -> bool {
        c.is_ascii_alphabetic() || c == '_'
    }

    fn is_identifier_char(c: char) -> bool {
        c.is_ascii_alphanumeric() || c == '_'
    }

    fn is_identifier(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(is_identifier_start) && chars.all(is_identifier_char)
    }

    /// The identifier scan: maximal identifier runs and the single characters between.
    fn tokens(chars: &[char]) -> impl Iterator<Item = (bool, &[char])> {
        let mut rest = chars;
        std::iter::from_fn(move || {
            let identifier = is_identifier_start(*rest.first()?);
            let len = if identifier {
                rest.iter()
                    .position(|&c| !is_identifier_char(c))
                    .unwrap_or(rest.len())
            } else {
                1
            };
            let (token, tail) = rest.split_at(len);
            rest = tail;
            Some((identifier, token))
        })
    }

    /// Every identifier token of `source` and of each header it can reach.
    pub fn observed_identifiers(
        source: &str,
        headers: &BTreeMap<String, String>,
    ) -> BTreeSet<String> {
        let mut identifiers = BTreeSet::new();
        let mut reached: BTreeSet<&str> = BTreeSet::new();
        let mut pending = vec![source];
        while let Some(text) = pending.pop() {
            for line in text.lines() {
                if let Some(("include", rest)) = split_directive(line) {
                    if let Some((name, header)) = headers.get_key_value(include_name(rest)) {
                        if reached.insert(name) {
                            pending.push(header);
                        }
                    }
                }
                let chars: Vec<char> = line.chars().collect();
                for (identifier, token) in tokens(&chars) {
                    if identifier {
                        identifiers.insert(token.iter().collect());
                    }
                }
            }
        }
        identifiers
    }

    pub fn observes(identifiers: &BTreeSet<String>, name: &str) -> bool {
        !is_identifier(name) || identifiers.contains(name)
    }

    pub fn preprocess(
        file: &str,
        source: &str,
        definitions: &Definitions,
        headers: &BTreeMap<String, String>,
    ) -> Result<PreprocessedUnit, PreprocessError> {
        let mut output = String::with_capacity(source.len());
        let mut used = Vec::new();
        let mut included = Vec::new();
        let mut working = definitions.clone();
        process_text(
            source,
            &mut working,
            headers,
            &mut output,
            &mut used,
            &mut included,
            0,
        )?;
        used.sort();
        used.dedup();
        included.sort();
        included.dedup();
        let canonical: String = output
            .lines()
            .map(str::trim_end)
            .filter(|l| !l.trim().is_empty())
            .collect::<Vec<_>>()
            .join("\n");
        Ok(PreprocessedUnit {
            file: file.to_string(),
            text: canonical,
            used_definitions: used,
            included_headers: included,
        })
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum CondState {
        Active,
        InactivePending,
        InactiveDone,
    }

    fn process_text(
        source: &str,
        definitions: &mut Definitions,
        headers: &BTreeMap<String, String>,
        output: &mut String,
        used: &mut Vec<String>,
        included: &mut Vec<String>,
        depth: usize,
    ) -> Result<(), PreprocessError> {
        if depth > 32 {
            return Err(PreprocessError::BadDirective {
                directive: "#include (nested too deep)".into(),
                line: 0,
            });
        }
        let mut stack: Vec<CondState> = Vec::new();
        for (line_index, raw_line) in source.lines().enumerate() {
            let line_no = line_index + 1;
            let emitting = stack.iter().all(|s| *s == CondState::Active);
            if let Some((keyword, rest)) = split_directive(raw_line) {
                match keyword {
                    "pragma" => {
                        if emitting {
                            output.push_str(raw_line);
                            output.push('\n');
                        }
                    }
                    "include" => {
                        if emitting {
                            let name = include_name(rest);
                            let Some(content) = headers.get(name) else {
                                return Err(PreprocessError::MissingInclude {
                                    file: name.to_string(),
                                    line: line_no,
                                });
                            };
                            included.push(name.to_string());
                            process_text(
                                content,
                                definitions,
                                headers,
                                output,
                                used,
                                included,
                                depth + 1,
                            )?;
                        }
                    }
                    "define" => {
                        if emitting {
                            if let Some(name) = rest.split_whitespace().next() {
                                let value = rest[name.len()..].trim();
                                let value = if value.is_empty() { "1" } else { value };
                                definitions.define(name, value);
                                used.push(name.to_string());
                            }
                        }
                    }
                    "undef" => {
                        if emitting {
                            let name = macro_name(rest);
                            definitions.undefine(name);
                            used.push(name.to_string());
                        }
                    }
                    "ifdef" => {
                        let name = macro_name(rest);
                        used.push(name.to_string());
                        stack.push(if definitions.is_defined(name) {
                            CondState::Active
                        } else {
                            CondState::InactivePending
                        });
                    }
                    "ifndef" => {
                        let name = macro_name(rest);
                        used.push(name.to_string());
                        stack.push(if definitions.is_defined(name) {
                            CondState::InactivePending
                        } else {
                            CondState::Active
                        });
                    }
                    "if" => {
                        let value = eval_condition(rest, definitions, used);
                        stack.push(if value {
                            CondState::Active
                        } else {
                            CondState::InactivePending
                        });
                    }
                    "elif" => {
                        let Some(top) = stack.last_mut() else {
                            return Err(PreprocessError::UnbalancedConditional { line: line_no });
                        };
                        *top = match *top {
                            CondState::Active => CondState::InactiveDone,
                            CondState::InactivePending => {
                                if eval_condition(rest, definitions, used) {
                                    CondState::Active
                                } else {
                                    CondState::InactivePending
                                }
                            }
                            CondState::InactiveDone => CondState::InactiveDone,
                        };
                    }
                    "else" => {
                        let Some(top) = stack.last_mut() else {
                            return Err(PreprocessError::UnbalancedConditional { line: line_no });
                        };
                        *top = match *top {
                            CondState::Active => CondState::InactiveDone,
                            CondState::InactivePending => CondState::Active,
                            CondState::InactiveDone => CondState::InactiveDone,
                        };
                    }
                    "endif" => {
                        if stack.pop().is_none() {
                            return Err(PreprocessError::UnbalancedConditional { line: line_no });
                        }
                    }
                    other => {
                        return Err(PreprocessError::BadDirective {
                            directive: format!("#{other}"),
                            line: line_no,
                        })
                    }
                }
                continue;
            }
            if emitting {
                output.push_str(&substitute(raw_line, definitions, used));
                output.push('\n');
            }
        }
        if stack.is_empty() {
            Ok(())
        } else {
            Err(PreprocessError::UnterminatedConditional)
        }
    }

    fn split_directive(raw_line: &str) -> Option<(&str, &str)> {
        let directive = raw_line.trim_start().strip_prefix('#')?.trim();
        if directive.starts_with("pragma") {
            return Some(("pragma", ""));
        }
        Some(match directive.split_once(char::is_whitespace) {
            Some((keyword, rest)) => (keyword, rest.trim()),
            None => (directive, ""),
        })
    }

    fn include_name(rest: &str) -> &str {
        rest.trim_matches(|c| c == '"' || c == '<' || c == '>')
    }

    fn macro_name(rest: &str) -> &str {
        rest.split_whitespace().next().unwrap_or("")
    }

    /// The seed's condition evaluator, with the one fix both sides share: an
    /// all-digit term is an integer literal (nonzero is true) and records nothing.
    fn eval_condition(expr: &str, definitions: &Definitions, used: &mut Vec<String>) -> bool {
        expr.split("||").any(|clause| {
            clause.split("&&").all(|term| {
                let term = term.trim();
                let (negated, term) = match term.strip_prefix('!') {
                    Some(rest) => (true, rest.trim()),
                    None => (false, term),
                };
                let name = term
                    .strip_prefix("defined(")
                    .and_then(|t| t.strip_suffix(')'))
                    .or_else(|| term.strip_prefix("defined ").map(str::trim))
                    .unwrap_or(term)
                    .trim();
                if name.is_empty() {
                    return !negated;
                }
                if !term.starts_with("defined") && name.chars().all(|c| c.is_ascii_digit()) {
                    return negated != name.chars().any(|c| c != '0');
                }
                used.push(name.to_string());
                let mut value = definitions.is_defined(name);
                if !term.starts_with("defined") {
                    value = value && definitions.value(name) != Some("0");
                }
                if negated {
                    !value
                } else {
                    value
                }
            })
        })
    }

    fn substitute(line: &str, definitions: &Definitions, used: &mut Vec<String>) -> String {
        if definitions.is_empty() {
            return line.to_string();
        }
        let mut result = String::with_capacity(line.len());
        let chars: Vec<char> = line.chars().collect();
        for (identifier, token) in tokens(&chars) {
            if !identifier {
                token.iter().for_each(|&c| result.push(c));
                continue;
            }
            let word: String = token.iter().collect();
            if let Some(value) = definitions.value(&word) {
                used.push(word);
                result.push_str(value);
            } else {
                result.push_str(&word);
            }
        }
        result
    }
}
