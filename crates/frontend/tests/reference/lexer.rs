//! The MLC lexer.

use super::ferr;
use cmo_frontend::{FrontendError, Pos};

/// Kinds of MLC tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// An identifier or keyword (keywords are distinguished by the
    /// parser so identifiers like `intensity` lex cleanly).
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A punctuation or operator token, e.g. `"+"`, `"<="`, `"&&"`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token's kind and payload.
    pub kind: TokenKind,
    /// Position of the first character.
    pub pos: Pos,
}

/// Streaming lexer over MLC source text.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

const PUNCTS2: [&str; 9] = ["==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->"];
const PUNCTS1: [&str; 18] = [
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "(", ")", "{", "}", "[", "]",
];
const PUNCT_MISC: [&str; 4] = [";", ":", ",", "."];

impl<'a> Lexer<'a> {
    /// Creates a lexer over `source`.
    #[must_use]
    pub fn new(source: &'a str) -> Self {
        Lexer {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn here(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) -> Result<(), FrontendError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'*') => {
                    let start = self.here();
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.src.get(self.pos + 1)) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => return Err(ferr(start, "unterminated block comment")),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Produces the next token.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed literals, unterminated comments,
    /// or unknown characters.
    pub fn next_token(&mut self) -> Result<Token, FrontendError> {
        self.skip_trivia()?;
        let pos = self.here();
        let Some(b) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                pos,
            });
        };
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
                self.bump();
            }
            let text = std::str::from_utf8(&self.src[start..self.pos])
                .expect("identifier bytes are ASCII")
                .to_owned();
            return Ok(Token {
                kind: TokenKind::Ident(text),
                pos,
            });
        }
        if b.is_ascii_digit() {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
            let mut is_float = false;
            if self.peek() == Some(b'.')
                && matches!(self.src.get(self.pos + 1), Some(c) if c.is_ascii_digit())
            {
                is_float = true;
                self.bump();
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            }
            let text =
                std::str::from_utf8(&self.src[start..self.pos]).expect("number bytes are ASCII");
            return if is_float {
                text.parse::<f64>()
                    .map(|v| Token {
                        kind: TokenKind::Float(v),
                        pos,
                    })
                    .map_err(|_| ferr(pos, format!("bad float literal `{text}`")))
            } else {
                text.parse::<i64>()
                    .map(|v| Token {
                        kind: TokenKind::Int(v),
                        pos,
                    })
                    .map_err(|_| ferr(pos, format!("integer literal `{text}` out of range")))
            };
        }
        // Two-character operators first.
        if self.pos + 1 < self.src.len() {
            let two = &self.src[self.pos..self.pos + 2];
            for p in PUNCTS2 {
                if p.as_bytes() == two {
                    self.bump();
                    self.bump();
                    return Ok(Token {
                        kind: TokenKind::Punct(p),
                        pos,
                    });
                }
            }
        }
        let one = &self.src[self.pos..self.pos + 1];
        for p in PUNCTS1.iter().chain(PUNCT_MISC.iter()) {
            if p.as_bytes() == one {
                self.bump();
                return Ok(Token {
                    kind: TokenKind::Punct(p),
                    pos,
                });
            }
        }
        Err(ferr(pos, format!("unexpected character `{}`", b as char)))
    }

    /// Lexes the entire input.
    ///
    /// # Errors
    ///
    /// Propagates the first lexical error.
    pub fn tokenize(mut self) -> Result<Vec<Token>, FrontendError> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            let eof = t.kind == TokenKind::Eof;
            out.push(t);
            if eof {
                return Ok(out);
            }
        }
    }
}
