//! Tokeniser for the supported Verilog subset.

use genfv_ir::BitVecValue;
use std::error::Error;
use std::fmt;

/// A source position (1-based line and column), kept on every token for
/// error reporting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds of the Verilog subset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Tok {
    /// Identifier or keyword (keywords are classified by the parser).
    Ident(String),
    /// Number literal, possibly sized/based: `42`, `8'hFF`, `'0`.
    Number {
        /// Explicit size prefix (`8` in `8'hFF`) if present.
        size: Option<u32>,
        /// Base character: `b`, `h`, `d`, `o`, or `i` for plain integers,
        /// `f` for the fill literals `'0`/`'1`.
        base: char,
        /// Digit payload with underscores removed.
        digits: String,
    },
    /// Punctuation / operator token.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Number { digits, .. } => write!(f, "number `{digits}`"),
            Tok::Punct(p) => write!(f, "`{p}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Token {
    /// The token payload.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// Lexing failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Position of the offending character.
    pub pos: Pos,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl Error for LexError {}

/// Multi-character operators, longest first so maximal munch works.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "===", "!==", "<->", "|->", "|=>", "##", "++", "--", "&&", "||", "==", "!=",
    "<=", ">=", "<<", ">>", "+=", "-=", "**", "::", "(", ")", "[", "]", "{", "}", ";", ",", ":",
    "?", "@", "#", "=", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", ".", "$", "'",
];

/// Tokenises `src`.
///
/// # Errors
/// Returns [`LexError`] on unexpected characters or malformed literals,
/// including a size prefix outside `1..=`[`BitVecValue::MAX_WIDTH`].
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    let advance = |i: &mut usize, line: &mut u32, col: &mut u32, chars: &[char]| {
        if chars[*i] == '\n' {
            *line += 1;
            *col = 1;
        } else {
            *col += 1;
        }
        *i += 1;
    };

    while i < chars.len() {
        let c = chars[i];
        let pos = Pos { line, col };
        // Whitespace.
        if c.is_whitespace() {
            advance(&mut i, &mut line, &mut col, &chars);
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < chars.len() {
            if chars[i + 1] == '/' {
                while i < chars.len() && chars[i] != '\n' {
                    advance(&mut i, &mut line, &mut col, &chars);
                }
                continue;
            }
            if chars[i + 1] == '*' {
                advance(&mut i, &mut line, &mut col, &chars);
                advance(&mut i, &mut line, &mut col, &chars);
                loop {
                    if i + 1 >= chars.len() {
                        return Err(LexError {
                            pos,
                            message: "unterminated block comment".to_string(),
                        });
                    }
                    if chars[i] == '*' && chars[i + 1] == '/' {
                        advance(&mut i, &mut line, &mut col, &chars);
                        advance(&mut i, &mut line, &mut col, &chars);
                        break;
                    }
                    advance(&mut i, &mut line, &mut col, &chars);
                }
                continue;
            }
        }
        // Identifiers / keywords / system identifiers ($past etc.).
        if c.is_ascii_alphabetic() || c == '_' || c == '$' {
            let start = i;
            advance(&mut i, &mut line, &mut col, &chars);
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                advance(&mut i, &mut line, &mut col, &chars);
            }
            let text: String = chars[start..i].iter().collect();
            if text == "$" {
                return Err(LexError { pos, message: "stray `$`".to_string() });
            }
            out.push(Token { tok: Tok::Ident(text), pos });
            continue;
        }
        // Numbers, including based literals and fill literals '0 / '1.
        if c.is_ascii_digit() || c == '\'' {
            let mut size: Option<u32> = None;
            if c.is_ascii_digit() {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                    advance(&mut i, &mut line, &mut col, &chars);
                }
                let text: String = chars[start..i].iter().filter(|c| **c != '_').collect();
                if i < chars.len() && chars[i] == '\'' {
                    let width =
                        text.parse().ok().filter(|w| (1..=BitVecValue::MAX_WIDTH).contains(w));
                    size = Some(width.ok_or_else(|| LexError {
                        pos,
                        message: format!(
                            "bad size prefix `{text}` (sizes run from 1 to {})",
                            BitVecValue::MAX_WIDTH
                        ),
                    })?);
                } else {
                    out.push(Token {
                        tok: Tok::Number { size: None, base: 'i', digits: text },
                        pos,
                    });
                    continue;
                }
            }
            // At a tick.
            debug_assert_eq!(chars[i], '\'');
            advance(&mut i, &mut line, &mut col, &chars); // consume '
            if i >= chars.len() {
                return Err(LexError { pos, message: "dangling `'`".to_string() });
            }
            let base_char = chars[i].to_ascii_lowercase();
            if size.is_none() && (base_char == '0' || base_char == '1') {
                // Fill literal '0 / '1.
                advance(&mut i, &mut line, &mut col, &chars);
                out.push(Token {
                    tok: Tok::Number { size: None, base: 'f', digits: base_char.to_string() },
                    pos,
                });
                continue;
            }
            if !matches!(base_char, 'b' | 'h' | 'd' | 'o') {
                return Err(LexError {
                    pos,
                    message: format!("unsupported number base `{base_char}`"),
                });
            }
            advance(&mut i, &mut line, &mut col, &chars); // consume base
            let dstart = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                advance(&mut i, &mut line, &mut col, &chars);
            }
            let digits: String = chars[dstart..i].iter().filter(|c| **c != '_').collect();
            if digits.is_empty() {
                return Err(LexError { pos, message: "number has no digits".to_string() });
            }
            out.push(Token { tok: Tok::Number { size, base: base_char, digits }, pos });
            continue;
        }
        // Operators / punctuation by maximal munch.
        let mut matched = false;
        for p in PUNCTS {
            let plen = p.chars().count();
            if i + plen <= chars.len() && chars[i..i + plen].iter().collect::<String>() == **p {
                for _ in 0..plen {
                    advance(&mut i, &mut line, &mut col, &chars);
                }
                out.push(Token { tok: Tok::Punct(p), pos });
                matched = true;
                break;
            }
        }
        if !matched {
            return Err(LexError { pos, message: format!("unexpected character `{c}`") });
        }
    }
    out.push(Token { tok: Tok::Eof, pos: Pos { line, col } });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn idents_and_keywords() {
        let toks = kinds("module foo_bar endmodule");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("module".into()),
                Tok::Ident("foo_bar".into()),
                Tok::Ident("endmodule".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("42 8'hFF 32'b0 4'd12 '0 1'b1 1048576'd1"),
            vec![
                Tok::Number { size: None, base: 'i', digits: "42".into() },
                Tok::Number { size: Some(8), base: 'h', digits: "FF".into() },
                Tok::Number { size: Some(32), base: 'b', digits: "0".into() },
                Tok::Number { size: Some(4), base: 'd', digits: "12".into() },
                Tok::Number { size: None, base: 'f', digits: "0".into() },
                Tok::Number { size: Some(1), base: 'b', digits: "1".into() },
                Tok::Number { size: Some(BitVecValue::MAX_WIDTH), base: 'd', digits: "1".into() },
                Tok::Eof
            ]
        );
    }

    #[test]
    fn underscores_in_numbers() {
        assert_eq!(
            kinds("16'b1010_1010_0000_1111"),
            vec![
                Tok::Number { size: Some(16), base: 'b', digits: "1010101000001111".into() },
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators_maximal_munch() {
        assert_eq!(
            kinds("<= < == = ++ + |-> |=>"),
            vec![
                Tok::Punct("<="),
                Tok::Punct("<"),
                Tok::Punct("=="),
                Tok::Punct("="),
                Tok::Punct("++"),
                Tok::Punct("+"),
                Tok::Punct("|->"),
                Tok::Punct("|=>"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = kinds("a // line comment\nb /* block\ncomment */ c");
        assert_eq!(
            toks,
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Ident("c".into()), Tok::Eof]
        );
    }

    #[test]
    fn system_functions() {
        assert_eq!(
            kinds("$past(x)"),
            vec![
                Tok::Ident("$past".into()),
                Tok::Punct("("),
                Tok::Ident("x".into()),
                Tok::Punct(")"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn positions_tracked() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn errors() {
        assert!(lex("`bad").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("8'x0").is_err());
        assert!(lex("8'").is_err());
        // Sizes outside 1..=BitVecValue::MAX_WIDTH.
        assert!(lex("0'b1").is_err());
        assert!(lex("1048577'd1").is_err());
        assert!(lex("4294967295'h1").is_err());
    }
}
