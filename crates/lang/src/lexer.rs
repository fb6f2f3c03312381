//! Hand-rolled byte-level lexer for the mini-C language.
//!
//! Tokens borrow from the source text: an identifier is a `&'src str`
//! slice of it, so a [`Token`] is `Copy` and lexing allocates nothing but
//! the message of an error. Every token of the language is ASCII, so the
//! lexer walks bytes; non-ASCII text can only sit in a comment, be Unicode
//! whitespace, or be an error. Columns still count chars, not bytes.

use crate::error::{Error, ErrorKind};
use std::fmt;

/// A half-open source region, tracked as 1-based line/column of its start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column, counted in chars.
    pub col: u32,
}

/// The lexical categories of the language. An identifier borrows its text
/// from the source the [`Lexer`] reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind<'src> {
    /// Identifier (variable, function, or label name).
    Ident(&'src str),
    /// Integer literal: its magnitude, a sign being a separate `-` token.
    /// It fits `i64`, except that `9223372036854775808`, the magnitude of
    /// `i64::MIN`, is accepted right after a `-`.
    Int(u64),
    /// Keywords.
    KwIf,
    /// `else`
    KwElse,
    /// `while`
    KwWhile,
    /// `do`
    KwDo,
    /// `switch`
    KwSwitch,
    /// `case`
    KwCase,
    /// `default`
    KwDefault,
    /// `goto`
    KwGoto,
    /// `break`
    KwBreak,
    /// `continue`
    KwContinue,
    /// `return`
    KwReturn,
    /// `read`
    KwRead,
    /// `write`
    KwWrite,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `=`
    Assign,
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
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `!`
    Bang,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// End of input.
    Eof,
}

/// The length of the run of bytes satisfying `keep` at the start of
/// `bytes`.
fn run_len(bytes: &[u8], keep: impl Fn(u8) -> bool) -> usize {
    bytes.iter().position(|&b| !keep(b)).unwrap_or(bytes.len())
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(n) => write!(f, "integer `{n}`"),
            TokenKind::KwIf => write!(f, "`if`"),
            TokenKind::KwElse => write!(f, "`else`"),
            TokenKind::KwWhile => write!(f, "`while`"),
            TokenKind::KwDo => write!(f, "`do`"),
            TokenKind::KwSwitch => write!(f, "`switch`"),
            TokenKind::KwCase => write!(f, "`case`"),
            TokenKind::KwDefault => write!(f, "`default`"),
            TokenKind::KwGoto => write!(f, "`goto`"),
            TokenKind::KwBreak => write!(f, "`break`"),
            TokenKind::KwContinue => write!(f, "`continue`"),
            TokenKind::KwReturn => write!(f, "`return`"),
            TokenKind::KwRead => write!(f, "`read`"),
            TokenKind::KwWrite => write!(f, "`write`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Assign => write!(f, "`=`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Percent => write!(f, "`%`"),
            TokenKind::EqEq => write!(f, "`==`"),
            TokenKind::NotEq => write!(f, "`!=`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Le => write!(f, "`<=`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Ge => write!(f, "`>=`"),
            TokenKind::Bang => write!(f, "`!`"),
            TokenKind::AndAnd => write!(f, "`&&`"),
            TokenKind::OrOr => write!(f, "`||`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token<'src> {
    /// The token category and payload.
    pub kind: TokenKind<'src>,
    /// Where the token starts.
    pub span: Span,
}

/// Streaming lexer over source text, yielding tokens that borrow from it.
///
/// Supports `// line` and `/* block */` comments; an unterminated block
/// comment runs to the end of the input.
///
/// # Examples
///
/// ```
/// use jumpslice_lang::{Lexer, TokenKind};
/// let tokens = Lexer::new("x = 1; // init").tokenize()?;
/// assert_eq!(tokens.len(), 5); // x, =, 1, ;, EOF
/// assert_eq!(tokens[0].kind, TokenKind::Ident("x"));
/// assert_eq!(tokens[1].kind, TokenKind::Assign);
/// # Ok::<(), jumpslice_lang::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct Lexer<'src> {
    src: &'src str,
    /// Byte offset of the next unread char.
    pos: usize,
    line: u32,
    col: u32,
    /// Whether the last token was `-`: only then may a literal be 2^63.
    after_minus: bool,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'src str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
            after_minus: false,
        }
    }

    /// Moves to byte offset `end` on the current line, counting the chars
    /// passed: a UTF-8 continuation byte starts none.
    fn advance_to(&mut self, end: usize) {
        let passed = &self.src.as_bytes()[self.pos..end];
        self.col += passed.iter().filter(|&&b| b & 0xC0 != 0x80).count() as u32;
        self.pos = end;
    }

    /// Moves to byte offset `end`, tracking every newline passed.
    fn advance_lines_to(&mut self, end: usize) {
        let passed = &self.src.as_bytes()[self.pos..end];
        if let Some(last) = passed.iter().rposition(|&b| b == b'\n') {
            self.line += passed.iter().filter(|&&b| b == b'\n').count() as u32;
            self.col = 1;
            self.pos += last + 1;
        }
        self.advance_to(end);
    }

    fn skip_trivia(&mut self) {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            // Most tokens follow no trivia, or one space.
            if b > b' ' && b != b'/' && b.is_ascii() {
                return;
            }
            match b {
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.col = 1;
                }
                b'/' => {
                    let end = match bytes.get(self.pos + 1) {
                        // Through the newline, or to the end of the input.
                        Some(b'/') => bytes[self.pos..]
                            .iter()
                            .position(|&b| b == b'\n')
                            .map_or(bytes.len(), |i| self.pos + i + 1),
                        // The closing `*/` may not share the opening `*`.
                        Some(b'*') => self.src[self.pos + 2..]
                            .find("*/")
                            .map_or(bytes.len(), |i| self.pos + 2 + i + 2),
                        _ => return,
                    };
                    self.advance_lines_to(end);
                }
                _ if b.is_ascii() => {
                    if !char::from(b).is_whitespace() {
                        return;
                    }
                    self.pos += 1;
                    self.col += 1;
                }
                _ => {
                    let c = self.src[self.pos..].chars().next().expect("in bounds");
                    if !c.is_whitespace() {
                        return;
                    }
                    self.pos += c.len_utf8();
                    self.col += 1;
                }
            }
        }
    }

    /// Produces the next token.
    ///
    /// # Errors
    ///
    /// Returns an error on characters outside the language or on integer
    /// literals that overflow `i64` (the one exception is documented on
    /// [`TokenKind::Int`]). The offending text is skipped, so lexing may
    /// resume after an error.
    pub fn next_token(&mut self) -> Result<Token<'src>, Error> {
        use TokenKind::*;
        self.skip_trivia();
        let span = Span {
            line: self.line,
            col: self.col,
        };
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let Some(&b) = bytes.get(start) else {
            return Ok(Token { kind: Eof, span });
        };
        let next = bytes.get(start + 1).copied();
        let either = |second: u8, two, one| {
            if next == Some(second) {
                (two, 2)
            } else {
                (one, 1)
            }
        };
        let (kind, len) = match b {
            b'(' => (LParen, 1),
            b')' => (RParen, 1),
            b'{' => (LBrace, 1),
            b'}' => (RBrace, 1),
            b';' => (Semi, 1),
            b':' => (Colon, 1),
            b',' => (Comma, 1),
            b'+' => (Plus, 1),
            b'-' => (Minus, 1),
            b'*' => (Star, 1),
            b'/' => (Slash, 1),
            b'%' => (Percent, 1),
            b'=' => either(b'=', EqEq, Assign),
            b'!' => either(b'=', NotEq, Bang),
            b'<' => either(b'=', Le, Lt),
            b'>' => either(b'=', Ge, Gt),
            b'&' if next == Some(b'&') => (AndAnd, 2),
            b'|' if next == Some(b'|') => (OrOr, 2),
            b'0'..=b'9' => {
                let len = run_len(&bytes[start..], |b| b.is_ascii_digit());
                let text = &self.src[start..start + len];
                let value = text.bytes().try_fold(0u64, |acc, d| {
                    acc.checked_mul(10)?.checked_add(u64::from(d - b'0'))
                });
                self.pos += len;
                self.col += len as u32;
                return match value {
                    Some(v) if v <= i64::MAX as u64 || (v == 1 << 63 && self.after_minus) => {
                        self.after_minus = false;
                        Ok(Token { kind: Int(v), span })
                    }
                    _ => Err(Error::new(
                        ErrorKind::IntOverflow(text.to_owned()),
                        span.line,
                        span.col,
                    )),
                };
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let len = run_len(&bytes[start..], |b| b.is_ascii_alphanumeric() || b == b'_');
                let kind = match &self.src[start..start + len] {
                    "if" => KwIf,
                    "else" => KwElse,
                    "while" => KwWhile,
                    "do" => KwDo,
                    "switch" => KwSwitch,
                    "case" => KwCase,
                    "default" => KwDefault,
                    "goto" => KwGoto,
                    "break" => KwBreak,
                    "continue" => KwContinue,
                    "return" => KwReturn,
                    "read" => KwRead,
                    "write" => KwWrite,
                    text => Ident(text),
                };
                (kind, len)
            }
            _ => {
                let c = self.src[start..].chars().next().expect("in bounds");
                self.advance_to(start + c.len_utf8());
                return Err(Error::new(
                    ErrorKind::UnexpectedChar(c),
                    span.line,
                    span.col,
                ));
            }
        };
        self.pos += len;
        self.col += len as u32;
        self.after_minus = matches!(kind, Minus);
        Ok(Token { kind, span })
    }

    /// Tokenizes the entire input (including the final [`TokenKind::Eof`]).
    ///
    /// # Errors
    ///
    /// Propagates the first lexical error.
    pub fn tokenize(mut self) -> Result<Vec<Token<'src>>, Error> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            out.push(t);
            if t.kind == TokenKind::Eof {
                return Ok(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn keywords_vs_identifiers() {
        let ks = kinds("if ifx goto L3 eof");
        assert_eq!(
            ks,
            vec![
                TokenKind::KwIf,
                TokenKind::Ident("ifx"),
                TokenKind::KwGoto,
                TokenKind::Ident("L3"),
                TokenKind::Ident("eof"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn two_char_operators() {
        let ks = kinds("== != <= >= && || < > = !");
        assert_eq!(
            ks,
            vec![
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Assign,
                TokenKind::Bang,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("x // all of this vanishes\n = /* and this */ 1 ;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("x"),
                TokenKind::Assign,
                TokenKind::Int(1),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn spans_track_lines() {
        let toks = Lexer::new("x\n  y").tokenize().unwrap();
        assert_eq!(toks[0].span, Span { line: 1, col: 1 });
        assert_eq!(toks[1].span, Span { line: 2, col: 3 });
    }

    fn spans(src: &str) -> Vec<(u32, u32)> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .iter()
            .map(|t| (t.span.line, t.span.col))
            .collect()
    }

    #[test]
    fn columns_count_chars_after_non_ascii_trivia() {
        // `é`, `ü` and `日本` are 2, 2 and 6 bytes but one column per char;
        // U+3000 and U+00A0 are Unicode whitespace.
        assert_eq!(
            spans("/* é */ x // ü\n\u{3000}y\u{a0}="),
            vec![(1, 9), (2, 2), (2, 4), (2, 5)]
        );
        // A block comment spanning lines leaves the column counted from
        // its last newline; a line comment at the end moves only the EOF.
        assert_eq!(spans("/* 日本\n ü */ x // ü"), vec![(2, 7), (2, 13)]);
        // An unterminated block comment swallows the rest of the input.
        assert_eq!(spans("x /* é\n y"), vec![(1, 1), (2, 3)]);
    }

    #[test]
    fn spans_hold_with_tabs_and_crlf() {
        // A tab and a carriage return are one column each; only `\n`
        // starts a line.
        assert_eq!(
            spans("x\t=\r\n\ty;\r\n"),
            vec![(1, 1), (1, 3), (2, 2), (2, 3), (3, 1)]
        );
        assert_eq!(spans("a\rb"), vec![(1, 1), (1, 3), (1, 4)]);
    }

    #[test]
    fn min_magnitude_lexes_only_after_minus() {
        let min = TokenKind::Int(1 << 63);
        assert_eq!(kinds("-9223372036854775808")[1], min);
        assert_eq!(kinds("x - /* c */ 9223372036854775808")[2], min);
        for src in [
            "9223372036854775808",
            "-9223372036854775809",
            "(-)9223372036854775808",
        ] {
            let err = Lexer::new(src).tokenize().unwrap_err();
            assert!(matches!(err.kind, ErrorKind::IntOverflow(_)), "{src}");
        }
        assert_eq!(
            kinds("9223372036854775807")[0],
            TokenKind::Int(i64::MAX as u64)
        );
    }

    #[test]
    fn lexing_resumes_after_an_error() {
        let mut lexer = Lexer::new("@é 99999999999999999999 x");
        assert_eq!(
            lexer.next_token().unwrap_err().kind,
            ErrorKind::UnexpectedChar('@')
        );
        assert_eq!(
            lexer.next_token().unwrap_err().kind,
            ErrorKind::UnexpectedChar('é')
        );
        let err = lexer.next_token().unwrap_err();
        assert_eq!((err.line, err.col), (1, 4));
        let x = lexer.next_token().unwrap();
        assert_eq!(
            (x.kind, x.span),
            (TokenKind::Ident("x"), Span { line: 1, col: 25 })
        );
    }

    #[test]
    fn int_overflow_is_reported() {
        let err = Lexer::new("99999999999999999999").tokenize().unwrap_err();
        assert!(matches!(err.kind, ErrorKind::IntOverflow(_)));
    }

    #[test]
    fn unexpected_char_is_reported() {
        let err = Lexer::new("x = @;").tokenize().unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnexpectedChar('@'));
        assert_eq!(err.col, 5);
    }

    #[test]
    fn lone_ampersand_rejected() {
        let err = Lexer::new("x & y").tokenize().unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnexpectedChar('&'));
    }

    #[test]
    fn slash_not_comment_is_division() {
        let ks = kinds("x / y");
        assert_eq!(ks[1], TokenKind::Slash);
    }
}
