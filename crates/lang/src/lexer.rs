//! The Flame lexer.

use crate::error::{LangError, Pos};

/// A lexical token kind.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (already unescaped).
    Str(String),
    /// Identifier.
    Ident(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// Keywords.
    Fn,
    /// `let`.
    Let,
    /// `if`.
    If,
    /// `else`.
    Else,
    /// `while`.
    While,
    /// `for`.
    For,
    /// `return`.
    Return,
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// `@jit` annotation marker.
    AtJit,
    /// Punctuation and operators.
    LParen,
    /// `)`.
    RParen,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `,`.
    Comma,
    /// `;`.
    Semi,
    /// `:`.
    Colon,
    /// `.`.
    Dot,
    /// `=`.
    Assign,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `%`.
    Percent,
    /// `==`.
    EqEq,
    /// `!=`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&&`.
    AndAnd,
    /// `||`.
    OrOr,
    /// `!`.
    Bang,
    /// End of input.
    Eof,
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Source position of the first character.
    pub pos: Pos,
}

struct Lexer<'a> {
    src: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.i).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, message: impl Into<String>) -> LangError {
        LangError::Lex {
            pos: self.pos(),
            message: message.into(),
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LangError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_number(&mut self) -> Result<TokenKind, LangError> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.i]).expect("digits are UTF-8");
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::Float)
                .map_err(|e| self.err(format!("bad float literal: {e}")))
        } else {
            text.parse::<i64>()
                .map(TokenKind::Int)
                .map_err(|e| self.err(format!("bad int literal: {e}")))
        }
    }

    fn lex_string(&mut self) -> Result<TokenKind, LangError> {
        self.bump(); // Opening quote.
        let mut out = Vec::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    // A quote or backslash is never inside a multi-byte
                    // character, so the bytes between are UTF-8 too.
                    let text = String::from_utf8(out).expect("source is UTF-8");
                    return Ok(TokenKind::Str(text));
                }
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'"') => out.push(b'"'),
                    other => {
                        return Err(self.err(format!(
                            "bad escape: \\{}",
                            other.map(|c| c as char).unwrap_or(' ')
                        )))
                    }
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn lex_ident(&mut self) -> TokenKind {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.i]).expect("ident is UTF-8");
        match text {
            "fn" => TokenKind::Fn,
            "let" => TokenKind::Let,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "while" => TokenKind::While,
            "for" => TokenKind::For,
            "return" => TokenKind::Return,
            "break" => TokenKind::Break,
            "continue" => TokenKind::Continue,
            "true" => TokenKind::Bool(true),
            "false" => TokenKind::Bool(false),
            "null" => TokenKind::Null,
            _ => TokenKind::Ident(text.to_string()),
        }
    }
}

/// Lexes Flame source into tokens (with a trailing [`TokenKind::Eof`]).
pub fn lex(source: &str) -> Result<Vec<Token>, LangError> {
    let mut lx = Lexer {
        src: source.as_bytes(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut tokens = Vec::new();
    loop {
        lx.skip_trivia()?;
        let pos = lx.pos();
        let Some(c) = lx.peek() else {
            tokens.push(Token {
                kind: TokenKind::Eof,
                pos,
            });
            return Ok(tokens);
        };
        let kind = match c {
            b'0'..=b'9' => lx.lex_number()?,
            b'"' => lx.lex_string()?,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => lx.lex_ident(),
            b'@' => {
                lx.bump();
                let ident = lx.lex_ident();
                match ident {
                    TokenKind::Ident(name) if name == "jit" => TokenKind::AtJit,
                    _ => return Err(lx.err("unknown annotation (only @jit is supported)")),
                }
            }
            b'(' => {
                lx.bump();
                TokenKind::LParen
            }
            b')' => {
                lx.bump();
                TokenKind::RParen
            }
            b'{' => {
                lx.bump();
                TokenKind::LBrace
            }
            b'}' => {
                lx.bump();
                TokenKind::RBrace
            }
            b'[' => {
                lx.bump();
                TokenKind::LBracket
            }
            b']' => {
                lx.bump();
                TokenKind::RBracket
            }
            b',' => {
                lx.bump();
                TokenKind::Comma
            }
            b';' => {
                lx.bump();
                TokenKind::Semi
            }
            b':' => {
                lx.bump();
                TokenKind::Colon
            }
            b'.' => {
                lx.bump();
                TokenKind::Dot
            }
            b'+' => {
                lx.bump();
                TokenKind::Plus
            }
            b'-' => {
                lx.bump();
                TokenKind::Minus
            }
            b'*' => {
                lx.bump();
                TokenKind::Star
            }
            b'/' => {
                lx.bump();
                TokenKind::Slash
            }
            b'%' => {
                lx.bump();
                TokenKind::Percent
            }
            b'=' => {
                lx.bump();
                if lx.peek() == Some(b'=') {
                    lx.bump();
                    TokenKind::EqEq
                } else {
                    TokenKind::Assign
                }
            }
            b'!' => {
                lx.bump();
                if lx.peek() == Some(b'=') {
                    lx.bump();
                    TokenKind::NotEq
                } else {
                    TokenKind::Bang
                }
            }
            b'<' => {
                lx.bump();
                if lx.peek() == Some(b'=') {
                    lx.bump();
                    TokenKind::Le
                } else {
                    TokenKind::Lt
                }
            }
            b'>' => {
                lx.bump();
                if lx.peek() == Some(b'=') {
                    lx.bump();
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            b'&' => {
                lx.bump();
                if lx.peek() == Some(b'&') {
                    lx.bump();
                    TokenKind::AndAnd
                } else {
                    return Err(lx.err("expected `&&`"));
                }
            }
            b'|' => {
                lx.bump();
                if lx.peek() == Some(b'|') {
                    lx.bump();
                    TokenKind::OrOr
                } else {
                    return Err(lx.err("expected `||`"));
                }
            }
            other => return Err(lx.err(format!("unexpected character `{}`", other as char))),
        };
        tokens.push(Token { kind, pos });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src)
            .expect("lexes")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_numbers_strings_idents() {
        use TokenKind::*;
        assert_eq!(
            kinds(r#"42 3.5 "hi\n" foo"#),
            vec![
                Int(42),
                Float(3.5),
                Str("hi\n".into()),
                Ident("foo".into()),
                Eof
            ]
        );
    }

    #[test]
    fn lexes_keywords_and_literals() {
        use TokenKind::*;
        assert_eq!(
            kinds("fn let if else while for return break continue true false null"),
            vec![
                Fn,
                Let,
                If,
                Else,
                While,
                For,
                Return,
                Break,
                Continue,
                Bool(true),
                Bool(false),
                Null,
                Eof
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("== != <= >= < > = + - * / % && || ! . , ; :"),
            vec![
                EqEq, NotEq, Le, Ge, Lt, Gt, Assign, Plus, Minus, Star, Slash, Percent, AndAnd,
                OrOr, Bang, Dot, Comma, Semi, Colon, Eof
            ]
        );
    }

    #[test]
    fn lexes_jit_annotation() {
        assert_eq!(kinds("@jit"), vec![TokenKind::AtJit, TokenKind::Eof]);
        assert!(lex("@foo").is_err());
    }

    #[test]
    fn skips_comments_both_styles() {
        assert_eq!(
            kinds("1 # hash comment\n// slash comment\n2"),
            vec![TokenKind::Int(1), TokenKind::Int(2), TokenKind::Eof]
        );
    }

    #[test]
    fn tracks_positions() {
        let toks = lex("a\n  b").expect("lexes");
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(matches!(lex("\"oops"), Err(LangError::Lex { .. })));
    }

    #[test]
    fn rejects_lone_ampersand() {
        assert!(lex("a & b").is_err());
    }

    #[test]
    fn float_requires_digit_after_dot() {
        use TokenKind::*;
        // `1.` followed by `foo` is Int, Dot, Ident (member access syntax).
        assert_eq!(kinds("1.foo"), vec![Int(1), Dot, Ident("foo".into()), Eof]);
    }
}
