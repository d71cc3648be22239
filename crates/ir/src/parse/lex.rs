//! Lexer for the C-like front-end: one pass over the source bytes into
//! tokens that borrow their text from the source.

use std::fmt;

use super::ParseError;

/// A token with its source position (for error messages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'s> {
    /// The token kind/payload.
    pub kind: Tok<'s>,
    /// 1-based line number.
    pub line: u32,
}

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'s> {
    /// An identifier or keyword.
    Ident(&'s str),
    /// An integer literal.
    Int(i64),
    /// A decimal literal (kept as text for exact binary conversion).
    Decimal(&'s str),
    /// Punctuation / operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "`{v}`"),
            Tok::Decimal(s) => write!(f, "`{s}`"),
            Tok::Punct(p) => write!(f, "`{p}`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

/// Tokenizes `src`. `//` and `/* */` comments and `#pragma` lines are
/// skipped. Fails on a character that starts no token and on an integer
/// literal above `i64::MAX`.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let bytes = src.as_bytes();
    let at = |i: usize| bytes.get(i).copied().unwrap_or(0);
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1u32;
    while let Some(&c) = bytes.get(i) {
        let start = i;
        i += 1;
        let kind = match c {
            b'\n' => {
                line += 1;
                continue;
            }
            // ASCII's `char::is_whitespace`, which unlike
            // `u8::is_ascii_whitespace` includes `\x0b`.
            b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c' => continue,
            // Comments and pragmas.
            b'#' => {
                i = line_end(bytes, i);
                continue;
            }
            b'/' if at(i) == b'/' => {
                i = line_end(bytes, i);
                continue;
            }
            b'/' if at(i) == b'*' => {
                i += 1;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    line += u32::from(bytes[i] == b'\n');
                    i += 1;
                }
                i += 2;
                continue;
            }
            // Numbers (integers and decimals).
            b'0'..=b'9' => {
                i = digits_end(bytes, i);
                if at(i) == b'.' {
                    i = digits_end(bytes, i + 1);
                    Tok::Decimal(&src[start..i])
                } else {
                    let text = &src[start..i];
                    Tok::Int(text.parse().map_err(|_| ParseError {
                        message: format!(
                            "integer literal `{text}` out of range (0..={})",
                            i64::MAX
                        ),
                        line,
                    })?)
                }
            }
            // Identifiers / keywords.
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while at(i).is_ascii_alphanumeric() || at(i) == b'_' {
                    i += 1;
                }
                Tok::Ident(&src[start..i])
            }
            _ => match punct(&bytes[start..]) {
                Some(p) => {
                    i = start + p.len();
                    Tok::Punct(p)
                }
                None => {
                    let ch = src[start..].chars().next().expect("a char starts here");
                    if c.is_ascii() || !ch.is_whitespace() {
                        return Err(ParseError {
                            message: format!("unexpected character `{ch}` on line {line}"),
                            line,
                        });
                    }
                    i = start + ch.len_utf8();
                    continue;
                }
            },
        };
        out.push(Token { kind, line });
    }
    out.push(Token {
        kind: Tok::Eof,
        line,
    });
    Ok(out)
}

/// The index of the next `\n` at or after `i`, or the end of input.
fn line_end(bytes: &[u8], i: usize) -> usize {
    bytes[i..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |n| i + n)
}

/// The index of the first non-digit at or after `i`.
fn digits_end(bytes: &[u8], i: usize) -> usize {
    bytes[i..]
        .iter()
        .position(|b| !b.is_ascii_digit())
        .map_or(bytes.len(), |n| i + n)
}

/// The operator that starts `rest`, longest match first.
fn punct(rest: &[u8]) -> Option<&'static str> {
    Some(match rest {
        [b'<', b'<', b'=', ..] => "<<=",
        [b'>', b'>', b'=', ..] => ">>=",
        [b'<', b'<', ..] => "<<",
        [b'>', b'>', ..] => ">>",
        [b'<', b'=', ..] => "<=",
        [b'>', b'=', ..] => ">=",
        [b'=', b'=', ..] => "==",
        [b'!', b'=', ..] => "!=",
        [b'&', b'&', ..] => "&&",
        [b'|', b'|', ..] => "||",
        [b'+', b'=', ..] => "+=",
        [b'-', b'=', ..] => "-=",
        [b'*', b'=', ..] => "*=",
        [b'+', b'+', ..] => "++",
        [b'-', b'-', ..] => "--",
        [b'<', ..] => "<",
        [b'>', ..] => ">",
        [b'=', ..] => "=",
        [b'!', ..] => "!",
        [b'&', ..] => "&",
        [b'+', ..] => "+",
        [b'-', ..] => "-",
        [b'*', ..] => "*",
        [b'/', ..] => "/",
        [b'(', ..] => "(",
        [b')', ..] => ")",
        [b'{', ..] => "{",
        [b'}', ..] => "}",
        [b'[', ..] => "[",
        [b']', ..] => "]",
        [b',', ..] => ",",
        [b';', ..] => ";",
        [b':', ..] => ":",
        [b'?', ..] => "?",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src)
            .expect("lexes")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("x += 3;"),
            vec![
                Tok::Ident("x"),
                Tok::Punct("+="),
                Tok::Int(3),
                Tok::Punct(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn decimals_kept_as_text() {
        assert_eq!(kinds("0.0625")[0], Tok::Decimal("0.0625"));
        assert_eq!(kinds("1.5")[0], Tok::Decimal("1.5"));
        assert_eq!(kinds("7")[0], Tok::Int(7));
    }

    #[test]
    fn comments_and_pragmas_skipped() {
        let toks = kinds("#pragma design top\n// line\nint /* mid */ x;");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("int"),
                Tok::Ident("x"),
                Tok::Punct(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn longest_match_operators() {
        assert_eq!(kinds(">>")[0], Tok::Punct(">>"));
        assert_eq!(kinds(">=")[0], Tok::Punct(">="));
        assert_eq!(kinds("> =").len(), 3); // '>' '=' eof
        assert_eq!(kinds("k++")[1], Tok::Punct("++"));
        assert_eq!(kinds("k -= 2")[1], Tok::Punct("-="));
    }

    #[test]
    fn line_numbers_tracked() {
        let toks = lex("a\nb\n  c").expect("lexes");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("a @ b").is_err());
    }

    #[test]
    fn whitespace_is_chars_whitespace() {
        assert_eq!(kinds("a\x0b\u{a0}b\u{2028}").len(), 3);
        assert!(lex("a \u{e9} b").is_err());
        assert_eq!(
            lex("a\n\u{4e2d}").expect_err("CJK is no token").message,
            "unexpected character `\u{4e2d}` on line 2"
        );
    }
}
