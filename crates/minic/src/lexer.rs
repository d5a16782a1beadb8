//! MiniC lexer.

/// A lexical token with its source line (for diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind/payload.
    pub kind: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    // Literals and identifiers.
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),

    // Keywords.
    KwInt,
    KwLong,
    KwFloat,
    KwDouble,
    KwVoid,
    KwIf,
    KwElse,
    KwWhile,
    KwFor,
    KwReturn,
    KwBreak,
    KwContinue,
    KwExtern,
    KwSizeof,

    // Punctuation / operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Assign,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    NotEq,
    AndAnd,
    OrOr,
    Shl,
    Shr,
    Question,
    Colon,

    /// End of input marker.
    Eof,
}

/// Lexer error with location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LexError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Tokenizes MiniC source.
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated strings/comments or stray bytes.
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! push {
        ($kind:expr) => {
            tokens.push(Token { kind: $kind, line })
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError {
                            line: start_line,
                            message: "unterminated block comment".into(),
                        });
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let start = i;
                let mut is_float = false;
                // Hex literal?
                if c == b'0' && matches!(bytes.get(i + 1), Some(b'x' | b'X')) {
                    i += 2;
                    while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                        i += 1;
                    }
                    let text = &source[start + 2..i];
                    let v = i64::from_str_radix(text, 16).map_err(|_| LexError {
                        line,
                        message: format!("invalid hex literal '{text}'"),
                    })?;
                    push!(Tok::Int(v));
                    continue;
                }
                while i < bytes.len() && (bytes[i].is_ascii_digit()) {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'.' {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && matches!(bytes[i], b'e' | b'E') {
                    is_float = true;
                    i += 1;
                    if i < bytes.len() && matches!(bytes[i], b'+' | b'-') {
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &source[start..i];
                if is_float {
                    let v: f64 = text.parse().map_err(|_| LexError {
                        line,
                        message: format!("invalid float literal '{text}'"),
                    })?;
                    push!(Tok::Float(v));
                } else {
                    let v: i64 = text.parse().map_err(|_| LexError {
                        line,
                        message: format!("invalid integer literal '{text}'"),
                    })?;
                    push!(Tok::Int(v));
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &source[start..i];
                let kind = match word {
                    "int" => Tok::KwInt,
                    "long" => Tok::KwLong,
                    "float" => Tok::KwFloat,
                    "double" => Tok::KwDouble,
                    "void" => Tok::KwVoid,
                    "if" => Tok::KwIf,
                    "else" => Tok::KwElse,
                    "while" => Tok::KwWhile,
                    "for" => Tok::KwFor,
                    "return" => Tok::KwReturn,
                    "break" => Tok::KwBreak,
                    "continue" => Tok::KwContinue,
                    "extern" => Tok::KwExtern,
                    "sizeof" => Tok::KwSizeof,
                    _ => Tok::Ident(word.to_string()),
                };
                push!(kind);
            }
            b'"' => {
                let start_line = line;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LexError {
                            line: start_line,
                            message: "unterminated string literal".into(),
                        });
                    }
                    match bytes[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' => {
                            let esc = bytes.get(i + 1).ok_or(LexError {
                                line,
                                message: "dangling escape".into(),
                            })?;
                            s.push(match esc {
                                b'n' => '\n',
                                b't' => '\t',
                                b'r' => '\r',
                                b'0' => '\0',
                                b'\\' => '\\',
                                b'"' => '"',
                                other => {
                                    return Err(LexError {
                                        line,
                                        message: format!("unknown escape '\\{}'", *other as char),
                                    })
                                }
                            });
                            i += 2;
                        }
                        b'\n' => {
                            return Err(LexError {
                                line: start_line,
                                message: "newline in string literal".into(),
                            })
                        }
                        other => {
                            s.push(other as char);
                            i += 1;
                        }
                    }
                }
                push!(Tok::Str(s));
            }
            b'\'' => {
                // Character literal -> integer constant.
                let ch = *bytes.get(i + 1).ok_or(LexError {
                    line,
                    message: "unterminated char literal".into(),
                })?;
                let (value, consumed) = if ch == b'\\' {
                    let esc = *bytes.get(i + 2).ok_or(LexError {
                        line,
                        message: "dangling escape".into(),
                    })?;
                    let v = match esc {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'0' => 0,
                        b'\\' => b'\\',
                        b'\'' => b'\'',
                        other => {
                            return Err(LexError {
                                line,
                                message: format!("unknown escape '\\{}'", other as char),
                            })
                        }
                    };
                    (v, 4)
                } else {
                    (ch, 3)
                };
                if bytes.get(i + consumed - 1) != Some(&b'\'') {
                    return Err(LexError {
                        line,
                        message: "unterminated char literal".into(),
                    });
                }
                i += consumed;
                push!(Tok::Int(i64::from(value)));
            }
            b'(' => {
                push!(Tok::LParen);
                i += 1;
            }
            b')' => {
                push!(Tok::RParen);
                i += 1;
            }
            b'{' => {
                push!(Tok::LBrace);
                i += 1;
            }
            b'}' => {
                push!(Tok::RBrace);
                i += 1;
            }
            b'[' => {
                push!(Tok::LBracket);
                i += 1;
            }
            b']' => {
                push!(Tok::RBracket);
                i += 1;
            }
            b';' => {
                push!(Tok::Semi);
                i += 1;
            }
            b',' => {
                push!(Tok::Comma);
                i += 1;
            }
            b'+' => {
                push!(Tok::Plus);
                i += 1;
            }
            b'-' => {
                push!(Tok::Minus);
                i += 1;
            }
            b'*' => {
                push!(Tok::Star);
                i += 1;
            }
            b'/' => {
                push!(Tok::Slash);
                i += 1;
            }
            b'%' => {
                push!(Tok::Percent);
                i += 1;
            }
            b'~' => {
                push!(Tok::Tilde);
                i += 1;
            }
            b'^' => {
                push!(Tok::Caret);
                i += 1;
            }
            b'?' => {
                push!(Tok::Question);
                i += 1;
            }
            b':' => {
                push!(Tok::Colon);
                i += 1;
            }
            b'&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    push!(Tok::AndAnd);
                    i += 2;
                } else {
                    push!(Tok::Amp);
                    i += 1;
                }
            }
            b'|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    push!(Tok::OrOr);
                    i += 2;
                } else {
                    push!(Tok::Pipe);
                    i += 1;
                }
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Tok::NotEq);
                    i += 2;
                } else {
                    push!(Tok::Bang);
                    i += 1;
                }
            }
            b'=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Tok::EqEq);
                    i += 2;
                } else {
                    push!(Tok::Assign);
                    i += 1;
                }
            }
            b'<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    push!(Tok::Le);
                    i += 2;
                }
                Some(&b'<') => {
                    push!(Tok::Shl);
                    i += 2;
                }
                _ => {
                    push!(Tok::Lt);
                    i += 1;
                }
            },
            b'>' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    push!(Tok::Ge);
                    i += 2;
                }
                Some(&b'>') => {
                    push!(Tok::Shr);
                    i += 2;
                }
                _ => {
                    push!(Tok::Gt);
                    i += 1;
                }
            },
            other => {
                return Err(LexError {
                    line,
                    message: format!("unexpected character '{}'", other as char),
                })
            }
        }
    }

    tokens.push(Token {
        kind: Tok::Eof,
        line,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("int x = 42;"),
            vec![
                Tok::KwInt,
                Tok::Ident("x".into()),
                Tok::Assign,
                Tok::Int(42),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn floats_and_scientific() {
        assert_eq!(kinds("1.5")[0], Tok::Float(1.5));
        assert_eq!(kinds("2e3")[0], Tok::Float(2000.0));
        assert_eq!(kinds("1.5e-2")[0], Tok::Float(0.015));
    }

    #[test]
    fn hex_literals() {
        assert_eq!(kinds("0xff")[0], Tok::Int(255));
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("// line\n1 /* block\nspanning */ 2"),
            vec![Tok::Int(1), Tok::Int(2), Tok::Eof]
        );
    }

    #[test]
    fn line_tracking() {
        let tokens = lex("1\n2\n3").unwrap();
        assert_eq!(tokens[0].line, 1);
        assert_eq!(tokens[1].line, 2);
        assert_eq!(tokens[2].line, 3);
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            kinds("<= >= == != && || << >>"),
            vec![
                Tok::Le,
                Tok::Ge,
                Tok::EqEq,
                Tok::NotEq,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Shl,
                Tok::Shr,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(kinds(r#""a\nb""#)[0], Tok::Str("a\nb".into()));
    }

    #[test]
    fn char_literals() {
        assert_eq!(kinds("'A'")[0], Tok::Int(65));
        assert_eq!(kinds(r"'\n'")[0], Tok::Int(10));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("/* abc").is_err());
    }
}
