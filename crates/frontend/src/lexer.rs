//! The MLC lexer.
//!
//! One pass over the source bytes produces small `Copy` tokens that
//! carry a byte offset, the module's [`NameTable`] and its
//! [`LineTable`]. Lines and columns are derived from the line table
//! only when something asks for a [`Pos`]: a diagnostic, or a
//! function's line span.

use crate::names::{Kw, NameId, NameTable};
use crate::{FrontendError, Pos};

/// Punctuation and operator tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Punct {
    EqEq,
    Ne,
    Le,
    Ge,
    AndAnd,
    OrOr,
    Shl,
    Shr,
    Arrow,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Lt,
    Gt,
    Assign,
    Bang,
    Amp,
    Pipe,
    Caret,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Colon,
    Comma,
    Dot,
}

impl Punct {
    /// The token's spelling.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Punct::EqEq => "==",
            Punct::Ne => "!=",
            Punct::Le => "<=",
            Punct::Ge => ">=",
            Punct::AndAnd => "&&",
            Punct::OrOr => "||",
            Punct::Shl => "<<",
            Punct::Shr => ">>",
            Punct::Arrow => "->",
            Punct::Plus => "+",
            Punct::Minus => "-",
            Punct::Star => "*",
            Punct::Slash => "/",
            Punct::Percent => "%",
            Punct::Lt => "<",
            Punct::Gt => ">",
            Punct::Assign => "=",
            Punct::Bang => "!",
            Punct::Amp => "&",
            Punct::Pipe => "|",
            Punct::Caret => "^",
            Punct::LParen => "(",
            Punct::RParen => ")",
            Punct::LBrace => "{",
            Punct::RBrace => "}",
            Punct::LBracket => "[",
            Punct::RBracket => "]",
            Punct::Semi => ";",
            Punct::Colon => ":",
            Punct::Comma => ",",
            Punct::Dot => ".",
        }
    }
}

/// Kinds of MLC tokens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind {
    /// An identifier that is not a keyword (so `intensity` is one).
    Ident(NameId),
    /// A reserved word.
    Kw(Kw),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A punctuation or operator token.
    Punct(Punct),
    /// End of input.
    Eof,
}

/// A token with the byte offset of its first character.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// The token's kind and payload.
    pub kind: TokenKind,
    /// Byte offset into the source; [`LineTable::pos`] turns it into a
    /// line and column.
    pub offset: u32,
}

/// Where each line of a source text starts.
#[derive(Debug, Clone)]
pub struct LineTable {
    /// `starts[i]` is the byte offset of line `i + 1`: 0, then one past
    /// every `\n`.
    starts: Vec<u32>,
    /// Length of the text in bytes.
    len: u32,
}

impl LineTable {
    /// The 1-based line containing byte `offset`.
    #[must_use]
    pub fn line(&self, offset: u32) -> u32 {
        pos_in(&self.starts, offset).line
    }

    /// The 1-based line and byte column of byte `offset`.
    #[must_use]
    pub fn pos(&self, offset: u32) -> Pos {
        pos_in(&self.starts, offset)
    }

    /// Number of lines in the text, as `str::lines().count()` has it: a
    /// final line needs no terminator, and a terminator opens no line.
    #[must_use]
    pub fn line_count(&self) -> u32 {
        let last_start = self.starts[self.starts.len() - 1];
        self.starts.len() as u32 - 1 + u32::from(self.len > last_start)
    }
}

/// The position of byte `offset` given the line starts at or before it.
fn pos_in(starts: &[u32], offset: u32) -> Pos {
    let line = starts.partition_point(|&s| s <= offset);
    Pos {
        line: line as u32,
        col: offset - starts[line - 1] + 1,
    }
}

/// What lexing a module produces.
#[derive(Debug, Clone)]
pub struct Tokens<'s> {
    /// The tokens, ending in exactly one [`TokenKind::Eof`].
    pub tokens: Vec<Token>,
    /// The module's identifiers.
    pub names: NameTable<'s>,
    /// The module's line starts.
    pub lines: LineTable,
}

/// Lexer over MLC source text.
#[derive(Debug)]
pub struct Lexer<'s> {
    text: &'s str,
    pos: usize,
    names: NameTable<'s>,
    line_starts: Vec<u32>,
}

impl<'s> Lexer<'s> {
    /// Creates a lexer over `source`.
    #[must_use]
    pub fn new(source: &'s str) -> Self {
        Lexer {
            text: source,
            pos: 0,
            names: NameTable::new(),
            line_starts: vec![0],
        }
    }

    /// A diagnostic at byte `offset`. Every newline before the lexer's
    /// position has been recorded, which covers every offset it can
    /// report.
    fn error(&self, offset: usize, message: impl Into<String>) -> FrontendError {
        FrontendError::new(pos_in(&self.line_starts, offset as u32), message)
    }

    /// Skips whitespace and comments, recording line starts: newlines
    /// occur nowhere else.
    fn skip_trivia(&mut self) -> Result<(), FrontendError> {
        let src = self.text.as_bytes();
        let mut pos = self.pos;
        loop {
            match src.get(pos) {
                Some(b' ' | b'\t' | b'\r' | 0x0c) => pos += 1,
                Some(b'\n') => {
                    pos += 1;
                    self.line_starts.push(pos as u32);
                }
                Some(b'/') if src.get(pos + 1) == Some(&b'/') => {
                    pos += 2;
                    while src.get(pos).is_some_and(|&b| b != b'\n') {
                        pos += 1;
                    }
                }
                Some(b'/') if src.get(pos + 1) == Some(&b'*') => {
                    let start = pos;
                    pos += 2;
                    loop {
                        match src.get(pos) {
                            Some(b'*') if src.get(pos + 1) == Some(&b'/') => {
                                pos += 2;
                                break;
                            }
                            Some(b'\n') => {
                                pos += 1;
                                self.line_starts.push(pos as u32);
                            }
                            Some(_) => pos += 1,
                            None => return Err(self.error(start, "unterminated block comment")),
                        }
                    }
                }
                _ => break,
            }
        }
        self.pos = pos;
        Ok(())
    }

    fn number(&mut self) -> Result<TokenKind, FrontendError> {
        let src = self.text.as_bytes();
        let start = self.pos;
        let digits = |mut pos: usize| {
            while src.get(pos).is_some_and(u8::is_ascii_digit) {
                pos += 1;
            }
            pos
        };
        let mut pos = digits(start);
        let is_float =
            src.get(pos) == Some(&b'.') && src.get(pos + 1).is_some_and(u8::is_ascii_digit);
        if is_float {
            pos = digits(pos + 1);
        }
        self.pos = pos;
        let text = &self.text[start..pos];
        if is_float {
            return text
                .parse::<f64>()
                .map(TokenKind::Float)
                .map_err(|_| self.error(start, format!("bad float literal `{text}`")));
        }
        text.bytes()
            .try_fold(0i64, |v, d| {
                v.checked_mul(10)?.checked_add(i64::from(d - b'0'))
            })
            .map(TokenKind::Int)
            .ok_or_else(|| self.error(start, format!("integer literal `{text}` out of range")))
    }

    /// Produces the next token.
    fn next_token(&mut self) -> Result<Token, FrontendError> {
        self.skip_trivia()?;
        let src = self.text.as_bytes();
        let start = self.pos;
        let Some(&b) = src.get(start) else {
            return Ok(Token {
                kind: TokenKind::Eof,
                offset: start as u32,
            });
        };
        let second = src.get(start + 1).copied();
        // A two-character operator wins over its one-character prefix.
        let two = |want: u8, long: Punct, short: Punct| {
            if second == Some(want) {
                (long, 2)
            } else {
                (short, 1)
            }
        };
        let (punct, width) = match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut pos = start + 1;
                while src
                    .get(pos)
                    .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
                {
                    pos += 1;
                }
                self.pos = pos;
                let id = self.names.intern(&self.text[start..pos]);
                let kind = match NameTable::keyword(id) {
                    Some(kw) => TokenKind::Kw(kw),
                    None => TokenKind::Ident(id),
                };
                return Ok(Token {
                    kind,
                    offset: start as u32,
                });
            }
            b'0'..=b'9' => {
                return Ok(Token {
                    kind: self.number()?,
                    offset: start as u32,
                })
            }
            b'=' => two(b'=', Punct::EqEq, Punct::Assign),
            b'!' => two(b'=', Punct::Ne, Punct::Bang),
            b'<' if second == Some(b'<') => (Punct::Shl, 2),
            b'<' => two(b'=', Punct::Le, Punct::Lt),
            b'>' if second == Some(b'>') => (Punct::Shr, 2),
            b'>' => two(b'=', Punct::Ge, Punct::Gt),
            b'&' => two(b'&', Punct::AndAnd, Punct::Amp),
            b'|' => two(b'|', Punct::OrOr, Punct::Pipe),
            b'-' => two(b'>', Punct::Arrow, Punct::Minus),
            b'+' => (Punct::Plus, 1),
            b'*' => (Punct::Star, 1),
            b'/' => (Punct::Slash, 1),
            b'%' => (Punct::Percent, 1),
            b'^' => (Punct::Caret, 1),
            b'(' => (Punct::LParen, 1),
            b')' => (Punct::RParen, 1),
            b'{' => (Punct::LBrace, 1),
            b'}' => (Punct::RBrace, 1),
            b'[' => (Punct::LBracket, 1),
            b']' => (Punct::RBracket, 1),
            b';' => (Punct::Semi, 1),
            b':' => (Punct::Colon, 1),
            b',' => (Punct::Comma, 1),
            b'.' => (Punct::Dot, 1),
            _ => {
                // The lexer only ever stops on ASCII bytes, so `start`
                // is a character boundary.
                let c = self.text[start..].chars().next().expect("not at the end");
                return Err(self.error(start, format!("unexpected character `{c}`")));
            }
        };
        self.pos = start + width;
        Ok(Token {
            kind: TokenKind::Punct(punct),
            offset: start as u32,
        })
    }

    /// Lexes the entire input.
    ///
    /// # Errors
    ///
    /// Returns the first lexical error: a malformed literal, an
    /// unterminated comment, an unknown character, or a source text
    /// whose offsets do not fit 32 bits.
    pub fn tokenize(mut self) -> Result<Tokens<'s>, FrontendError> {
        if u32::try_from(self.text.len()).is_err() {
            return Err(FrontendError::new(
                Pos { line: 1, col: 1 },
                "source text is larger than 4 GiB",
            ));
        }
        // MLC averages a little over three bytes a token.
        let mut tokens = Vec::with_capacity(self.text.len() / 3 + 1);
        loop {
            let t = self.next_token()?;
            tokens.push(t);
            if t.kind == TokenKind::Eof {
                return Ok(Tokens {
                    tokens,
                    names: self.names,
                    lines: LineTable {
                        starts: self.line_starts,
                        len: self.text.len() as u32,
                    },
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .tokens
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn keywords_and_identifiers_are_told_apart() {
        let toks = Lexer::new("fn intensity input").tokenize().unwrap();
        assert_eq!(toks.tokens[0].kind, TokenKind::Kw(Kw::Fn));
        let TokenKind::Ident(id) = toks.tokens[1].kind else {
            panic!("expected an identifier");
        };
        assert_eq!(toks.names.text(id), "intensity");
        assert_eq!(toks.tokens[2].kind, TokenKind::Ident(NameId::INPUT));
        assert_eq!(toks.tokens[3].kind, TokenKind::Eof);
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("42 3.5 7.x"),
            vec![
                TokenKind::Int(42),
                TokenKind::Float(3.5),
                TokenKind::Int(7),
                TokenKind::Punct(Punct::Dot),
                kinds("x")[0],
                TokenKind::Eof
            ]
        );
        assert_eq!(kinds("9223372036854775807")[0], TokenKind::Int(i64::MAX));
    }

    #[test]
    fn two_char_operators_win() {
        use Punct::*;
        let puncts: Vec<_> = kinds("<= < == = != ! >= > && & || | << >> -> -")
            .into_iter()
            .filter_map(|k| match k {
                TokenKind::Punct(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(
            puncts,
            [
                Le, Lt, EqEq, Assign, Ne, Bang, Ge, Gt, AndAnd, Amp, OrOr, Pipe, Shl, Shr, Arrow,
                Minus
            ]
        );
    }

    #[test]
    fn every_punct_round_trips_through_its_spelling() {
        let all = "== != <= >= && || << >> -> + - * / % < > = ! & | ^ ( ) { } [ ] ; : , .";
        for (p, spelling) in all.split(' ').enumerate() {
            let TokenKind::Punct(got) = kinds(spelling)[0] else {
                panic!("`{spelling}` did not lex as punctuation");
            };
            assert_eq!(got as usize, p);
            assert_eq!(got.as_str(), spelling);
        }
        assert_eq!(all.split(' ').count(), Punct::Dot as usize + 1);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("1 // line\n/* block\n*/ 2 /**/ // at eof"),
            vec![TokenKind::Int(1), TokenKind::Int(2), TokenKind::Eof]
        );
    }

    #[test]
    fn positions_track_lines() {
        let toks = Lexer::new("a\n  b /* c\n\n */ d\r\n e").tokenize().unwrap();
        let at = |i: usize| toks.lines.pos(toks.tokens[i].offset);
        assert_eq!(at(0), Pos { line: 1, col: 1 });
        assert_eq!(at(1), Pos { line: 2, col: 3 });
        assert_eq!(at(2), Pos { line: 4, col: 5 });
        assert_eq!(at(3), Pos { line: 5, col: 2 });
        assert_eq!(at(4), Pos { line: 5, col: 3 });
    }

    #[test]
    fn line_count_is_what_str_lines_counts() {
        for src in [
            "",
            "a",
            "a\n",
            "a\nb",
            "\n",
            "\n\n",
            "a\r\n",
            "a\r\nb\r",
            "\r",
            "// c",
            "/* \n */\n",
        ] {
            let toks = Lexer::new(src).tokenize().unwrap();
            assert_eq!(
                toks.lines.line_count() as usize,
                src.lines().count(),
                "{src:?}"
            );
        }
    }

    #[test]
    fn unterminated_comment_errors_at_its_start() {
        let e = Lexer::new("x\n /* nope\n").tokenize().unwrap_err();
        assert_eq!(e.pos, Pos { line: 2, col: 2 });
        assert!(Lexer::new("/*/").tokenize().is_err());
    }

    #[test]
    fn unknown_character_errors() {
        let e = Lexer::new("@").tokenize().unwrap_err();
        assert!(e.message.contains("unexpected character"));
    }

    #[test]
    fn non_ascii_character_is_reported_whole() {
        let e = Lexer::new("fn é() {}").tokenize().unwrap_err();
        assert_eq!(e.message, "unexpected character `é`");
        assert_eq!(e.pos, Pos { line: 1, col: 4 });
        // Multi-byte text inside comments is skipped, and columns stay
        // byte columns.
        let e = Lexer::new("/* é */ // ü\n  ☃").tokenize().unwrap_err();
        assert_eq!(e.message, "unexpected character `☃`");
        assert_eq!(e.pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn huge_integer_errors() {
        let e = Lexer::new("99999999999999999999999")
            .tokenize()
            .unwrap_err();
        assert_eq!(
            e.message,
            "integer literal `99999999999999999999999` out of range"
        );
        assert!(Lexer::new("9223372036854775808").tokenize().is_err());
    }
}
