//! Recursive-descent parser producing a validated [`Program`].
//!
//! The parser pulls tokens from the [`Lexer`] on demand and never clones
//! one: tokens are `Copy` and identifiers borrow the source, so a name is
//! copied once, when the interner first sees it.
//!
//! Nesting is bounded by [`MAX_NESTING`], so neither the parser nor any
//! later pass that recurses over a program's tree can be driven into a
//! stack overflow by its text.

use crate::ast::*;
use crate::error::{Error, ErrorKind};
use crate::lexer::{Lexer, Span, Token, TokenKind};
use crate::validate::validate;

/// The deepest nesting a program may have, on each of three measures:
/// the height of an expression tree (a literal or variable has height 1,
/// and a flat chain `a + b + c` is as tall as it has terms), the nesting
/// of parentheses, unary operators and call argument lists around any
/// point of an expression, and the nesting of blocks (the program body
/// is at depth 1, the body of a top-level loop at depth 2, empty blocks
/// included). Deeper text is a [`ErrorKind::TooDeep`] parse error.
/// Printing never nests a parsed program deeper, so printed programs
/// parse again.
///
/// Programs at the bound parse, analyze, slice and print on a 2 MiB
/// thread stack, unoptimized builds included, where the parser's
/// statement and parenthesis recursion is the deepest: about 2.6 KiB and
/// 4.2 KiB of stack per level there, so about 800 and 500 levels fit.
pub const MAX_NESTING: usize = 256;

/// Parses mini-C source text into a validated [`Program`].
///
/// # Errors
///
/// Returns the first lexical, syntactic, or semantic error (undefined or
/// duplicate labels, `break`/`continue` outside their contexts, duplicate
/// `case` values), in that order of precedence: a lexical error anywhere
/// in the text is reported before any syntax error. Nesting deeper than
/// [`MAX_NESTING`] is a syntax error.
///
/// # Examples
///
/// ```
/// use jumpslice_lang::parse;
/// let p = parse("read(x); if (x > 0) write(x);")?;
/// assert_eq!(p.len(), 3);
/// # Ok::<(), jumpslice_lang::Error>(())
/// ```
pub fn parse(src: &str) -> Result<Program, Error> {
    let mut p = Parser {
        lexer: Lexer::new(src),
        tok: Token {
            kind: TokenKind::Eof,
            span: Span { line: 1, col: 1 },
        },
        lex_error: None,
        stmt_depth: 1,
        open: 0,
        prog: Program::default(),
    };
    p.bump();
    let body = p.parse_body();
    match (body, p.lex_error.take()) {
        // An overflowing literal is the earliest lexical error: every
        // token before it lexed cleanly.
        (Err(e), _) if matches!(e.kind, ErrorKind::IntOverflow(_)) => Err(e),
        (_, Some(e)) => Err(e),
        (Err(e), None) => Err(p.first_lex_error().unwrap_or(e)),
        (Ok(body), None) => {
            p.prog.body = body;
            validate(&mut p.prog)?;
            Ok(p.prog)
        }
    }
}

struct Parser<'src> {
    lexer: Lexer<'src>,
    /// The current token; `lexer` stands just past it.
    tok: Token<'src>,
    /// The lexical error that ended the token stream, if any: the stream
    /// then reads as end of input, and [`parse`] reports this error.
    lex_error: Option<Error>,
    /// The nesting depth of the block being parsed: 1 for the program
    /// body, one more inside each compound statement.
    stmt_depth: usize,
    /// Parentheses, unary operators and call argument lists open around
    /// the expression being parsed.
    open: usize,
    prog: Program,
}

impl<'src> Parser<'src> {
    /// The next token from the lexer; after a lexical error, end of input.
    fn lex(&mut self) -> Token<'src> {
        if self.lex_error.is_none() {
            match self.lexer.next_token() {
                Ok(t) => return t,
                Err(e) => self.lex_error = Some(e),
            }
        }
        Token {
            kind: TokenKind::Eof,
            span: self.tok.span,
        }
    }

    /// Lexes the rest of the input after a syntax error: a lexical error
    /// anywhere takes precedence over it.
    fn first_lex_error(&mut self) -> Option<Error> {
        loop {
            match self.lexer.next_token() {
                Ok(t) if t.kind == TokenKind::Eof => return None,
                Ok(_) => {}
                Err(e) => return Some(e),
            }
        }
    }

    /// Whether the current token is of `kind`'s category (payloads are
    /// not compared).
    fn at(&self, kind: TokenKind<'_>) -> bool {
        std::mem::discriminant(&self.tok.kind) == std::mem::discriminant(&kind)
    }

    /// The kinds of the `N` tokens after the current one, lexed by a copy
    /// of the lexer; a lexical error reads as end of input.
    fn lookahead<const N: usize>(&self) -> [TokenKind<'src>; N] {
        let mut lexer = self.lexer.clone();
        std::array::from_fn(|_| lexer.next_token().map_or(TokenKind::Eof, |t| t.kind))
    }

    fn bump(&mut self) {
        self.tok = self.lex();
    }

    fn expect(&mut self, kind: TokenKind<'static>) -> Result<(), Error> {
        if self.at(kind) {
            self.bump();
            Ok(())
        } else {
            Err(self.err_expected(&format!("{kind}")))
        }
    }

    /// A [`ErrorKind::TooDeep`] error at the current token.
    fn err_too_deep(&self) -> Error {
        Error::new(ErrorKind::TooDeep, self.tok.span.line, self.tok.span.col)
    }

    /// The height of a node over children at most `height` tall.
    fn parent_height(&self, height: usize) -> Result<usize, Error> {
        if height < MAX_NESTING {
            Ok(height + 1)
        } else {
            Err(self.err_too_deep())
        }
    }

    /// Opens one level of parentheses, unary operator or call arguments.
    fn open(&mut self) -> Result<(), Error> {
        if self.open == MAX_NESTING {
            return Err(self.err_too_deep());
        }
        self.open += 1;
        Ok(())
    }

    fn err_expected(&self, expected: &str) -> Error {
        Error::new(
            ErrorKind::UnexpectedToken {
                expected: expected.to_owned(),
                found: self.tok.kind.to_string(),
            },
            self.tok.span.line,
            self.tok.span.col,
        )
    }

    /// The value of the current token, an integer literal of `magnitude`,
    /// negated when `neg`. Negated, the magnitude 2^63 is `i64::MIN`;
    /// anywhere else it overflows.
    fn int_literal(&self, magnitude: u64, neg: bool) -> Result<i64, Error> {
        match i64::try_from(magnitude) {
            Ok(v) if neg => Ok(-v),
            Ok(v) => Ok(v),
            Err(_) if neg && magnitude == 1 << 63 => Ok(i64::MIN),
            Err(_) => Err(Error::new(
                ErrorKind::IntOverflow(magnitude.to_string()),
                self.tok.span.line,
                self.tok.span.col,
            )),
        }
    }

    fn intern_name(&mut self, s: &str) -> Name {
        Name(self.prog.names.intern(s))
    }

    fn intern_label(&mut self, s: &str) -> Label {
        Label(self.prog.labels.intern(s))
    }

    fn alloc(&mut self, kind: StmtKind, labels: Vec<Label>, line: u32) -> StmtId {
        let id = StmtId(self.prog.stmts.len() as u32);
        self.prog.stmts.push(Stmt { kind, labels, line });
        id
    }

    /// Top-level statements up to the end of input.
    fn parse_body(&mut self) -> Result<Vec<StmtId>, Error> {
        let mut body = Vec::new();
        while !self.at(TokenKind::Eof) {
            body.push(self.parse_stmt()?);
        }
        Ok(body)
    }

    /// A brace-enclosed block or a single statement.
    fn parse_block_or_stmt(&mut self) -> Result<Vec<StmtId>, Error> {
        self.enter_block()?;
        let mut stmts = Vec::new();
        if self.at(TokenKind::LBrace) {
            self.bump();
            while !self.at(TokenKind::RBrace) {
                if self.at(TokenKind::Eof) {
                    return Err(self.err_expected("`}`"));
                }
                stmts.push(self.parse_stmt()?);
            }
            self.bump();
        } else {
            stmts.push(self.parse_stmt()?);
        }
        self.stmt_depth -= 1;
        Ok(stmts)
    }

    /// Enters a compound statement's block, one nesting level deeper.
    /// Every block counts, empty ones too, so inserting a statement into
    /// any block of a parsed program keeps it within [`MAX_NESTING`].
    fn enter_block(&mut self) -> Result<(), Error> {
        if self.stmt_depth == MAX_NESTING {
            return Err(self.err_too_deep());
        }
        self.stmt_depth += 1;
        Ok(())
    }

    /// A statement with its `IDENT ':'` label prefixes.
    ///
    /// Nested statements recurse through here, the compound statements'
    /// parsers and [`Parser::parse_block_or_stmt`] alone; simple
    /// statements are parsed off that path, so each nesting level costs
    /// only these small frames, unoptimized builds included.
    fn parse_stmt(&mut self) -> Result<StmtId, Error> {
        let mut labels = Vec::new();
        let (line, kind) = loop {
            let line = self.tok.span.line;
            let kind = match self.tok.kind {
                TokenKind::Ident(name) => {
                    self.bump();
                    if self.at(TokenKind::Colon) {
                        self.bump();
                        labels.push(self.intern_label(name));
                        continue;
                    }
                    self.parse_assign(name)
                }
                TokenKind::KwIf => self.parse_if(),
                TokenKind::KwWhile => self.parse_while(),
                TokenKind::KwDo => self.parse_do_while(),
                TokenKind::KwSwitch => self.parse_switch(),
                _ => self.parse_simple_stmt(),
            };
            break (line, kind?);
        };
        Ok(self.alloc(kind, labels, line))
    }

    /// `name = e;` after `name`.
    fn parse_assign(&mut self, name: &str) -> Result<StmtKind, Error> {
        self.expect(TokenKind::Assign)?;
        let rhs = self.parse_expr()?;
        self.expect(TokenKind::Semi)?;
        let lhs = self.intern_name(name);
        Ok(StmtKind::Assign { lhs, rhs })
    }

    /// `(e)`: a condition, a scrutinee or a written value.
    fn parse_paren_expr(&mut self) -> Result<Expr, Error> {
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(TokenKind::RParen)?;
        Ok(cond)
    }

    /// `if (c) …`, with or without `else`, or the fused `if (c) goto L;`.
    fn parse_if(&mut self) -> Result<StmtKind, Error> {
        self.bump();
        let cond = self.parse_paren_expr()?;
        // Fuse the exact unbraced `if (c) goto L;` pattern into a single
        // conditional-jump statement (paper, Figure 4).
        if self.at(TokenKind::KwGoto) {
            if let [TokenKind::Ident(l), TokenKind::Semi, after] = self.lookahead() {
                if after != TokenKind::KwElse {
                    self.bump();
                    self.bump();
                    self.bump();
                    let target = self.intern_label(l);
                    return Ok(StmtKind::CondGoto { cond, target });
                }
            }
        }
        let then_branch = self.parse_block_or_stmt()?;
        let else_branch = if self.at(TokenKind::KwElse) {
            self.bump();
            self.parse_block_or_stmt()?
        } else {
            Vec::new()
        };
        Ok(StmtKind::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn parse_while(&mut self) -> Result<StmtKind, Error> {
        self.bump();
        let cond = self.parse_paren_expr()?;
        let body = self.parse_block_or_stmt()?;
        Ok(StmtKind::While { cond, body })
    }

    fn parse_do_while(&mut self) -> Result<StmtKind, Error> {
        self.bump();
        let body = self.parse_block_or_stmt()?;
        self.expect(TokenKind::KwWhile)?;
        let cond = self.parse_paren_expr()?;
        self.expect(TokenKind::Semi)?;
        Ok(StmtKind::DoWhile { body, cond })
    }

    fn parse_switch(&mut self) -> Result<StmtKind, Error> {
        self.bump();
        let scrutinee = self.parse_paren_expr()?;
        self.expect(TokenKind::LBrace)?;
        self.enter_block()?;
        let arms = self.parse_switch_arms()?;
        self.stmt_depth -= 1;
        self.expect(TokenKind::RBrace)?;
        Ok(StmtKind::Switch { scrutinee, arms })
    }

    /// A statement that nests no other: not an assignment, not compound.
    fn parse_simple_stmt(&mut self) -> Result<StmtKind, Error> {
        match self.tok.kind {
            TokenKind::Semi => {
                self.bump();
                Ok(StmtKind::Skip)
            }
            TokenKind::KwRead => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let TokenKind::Ident(v) = self.tok.kind else {
                    return Err(self.err_expected("variable name"));
                };
                self.bump();
                let var = self.intern_name(v);
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Read { var })
            }
            TokenKind::KwWrite => {
                self.bump();
                let arg = self.parse_paren_expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Write { arg })
            }
            TokenKind::KwGoto => {
                self.bump();
                let TokenKind::Ident(l) = self.tok.kind else {
                    return Err(self.err_expected("label name"));
                };
                self.bump();
                let target = self.intern_label(l);
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Goto { target })
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Break)
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Continue)
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.at(TokenKind::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Return { value })
            }
            _ => Err(self.err_expected("a statement")),
        }
    }

    fn parse_switch_arms(&mut self) -> Result<Vec<SwitchArm>, Error> {
        let mut arms = Vec::new();
        while !self.at(TokenKind::RBrace) {
            if self.at(TokenKind::Eof) {
                return Err(self.err_expected("`}`"));
            }
            let mut guards = Vec::new();
            loop {
                match self.tok.kind {
                    TokenKind::KwCase => {
                        self.bump();
                        let neg = self.at(TokenKind::Minus);
                        if neg {
                            self.bump();
                        }
                        let TokenKind::Int(magnitude) = self.tok.kind else {
                            return Err(self.err_expected("case value"));
                        };
                        let v = self.int_literal(magnitude, neg)?;
                        self.bump();
                        self.expect(TokenKind::Colon)?;
                        guards.push(CaseGuard::Case(v));
                    }
                    TokenKind::KwDefault => {
                        self.bump();
                        self.expect(TokenKind::Colon)?;
                        guards.push(CaseGuard::Default);
                    }
                    _ => break,
                }
            }
            if guards.is_empty() {
                return Err(self.err_expected("`case` or `default`"));
            }
            let mut body = Vec::new();
            while !matches!(
                self.tok.kind,
                TokenKind::KwCase | TokenKind::KwDefault | TokenKind::RBrace | TokenKind::Eof
            ) {
                body.push(self.parse_stmt()?);
            }
            arms.push(SwitchArm { guards, body });
        }
        Ok(arms)
    }

    // ---- Expressions (precedence climbing) ----
    //
    // Each parser below returns its expression with the tree's height,
    // which never exceeds `MAX_NESTING`: a flat chain is built by a loop,
    // not by recursion, so only the height bounds what later passes
    // recurse over.

    fn parse_expr(&mut self) -> Result<Expr, Error> {
        Ok(self.parse_binary(1)?.0)
    }

    /// An expression whose binary operators all bind at least as tightly
    /// as `min_prec`. Each operator's right operand binds one level
    /// tighter, so operators of one level associate to the left.
    fn parse_binary(&mut self, min_prec: u8) -> Result<(Expr, usize), Error> {
        let (mut lhs, mut height) = self.parse_unary()?;
        while let Some(op) = binary_op(self.tok.kind) {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            height = self.parent_height(height)?;
            self.bump();
            let (rhs, rhs_height) = self.parse_binary(prec + 1)?;
            height = height.max(self.parent_height(rhs_height)?);
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    fn parse_unary(&mut self) -> Result<(Expr, usize), Error> {
        let op = match self.tok.kind {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Bang => UnOp::Not,
            _ => return self.parse_primary(),
        };
        self.open()?;
        self.bump();
        // `-9223372036854775808` is the literal `i64::MIN`, whose
        // magnitude has no `i64`; any other `-n` stays a negation.
        if op == UnOp::Neg && self.tok.kind == TokenKind::Int(1 << 63) {
            self.bump();
            self.open -= 1;
            return Ok((Expr::Num(i64::MIN), 1));
        }
        let (operand, height) = self.parse_unary()?;
        self.open -= 1;
        let height = self.parent_height(height)?;
        Ok((Expr::Unary(op, Box::new(operand)), height))
    }

    fn parse_primary(&mut self) -> Result<(Expr, usize), Error> {
        match self.tok.kind {
            TokenKind::Int(magnitude) => {
                let n = self.int_literal(magnitude, false)?;
                self.bump();
                Ok((Expr::Num(n), 1))
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.at(TokenKind::LParen) {
                    self.parse_call(name)
                } else {
                    let v = self.intern_name(name);
                    Ok((Expr::Var(v), 1))
                }
            }
            TokenKind::LParen => {
                self.open()?;
                self.bump();
                let e = self.parse_binary(1)?;
                self.expect(TokenKind::RParen)?;
                self.open -= 1;
                Ok(e)
            }
            _ => Err(self.err_expected("an expression")),
        }
    }

    /// `name(args)` from the `(`.
    fn parse_call(&mut self, name: &str) -> Result<(Expr, usize), Error> {
        self.open()?;
        self.bump();
        let mut args = Vec::new();
        let mut height = 0;
        if !self.at(TokenKind::RParen) {
            loop {
                let (arg, h) = self.parse_binary(1)?;
                args.push(arg);
                height = height.max(h);
                if self.at(TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        let height = self.parent_height(height)?;
        self.expect(TokenKind::RParen)?;
        self.open -= 1;
        let f = self.intern_name(name);
        Ok((Expr::Call(f, args), height))
    }
}

/// The binary operator a token spells, if any.
fn binary_op(kind: TokenKind<'_>) -> Option<BinOp> {
    Some(match kind {
        TokenKind::OrOr => BinOp::Or,
        TokenKind::AndAnd => BinOp::And,
        TokenKind::EqEq => BinOp::Eq,
        TokenKind::NotEq => BinOp::Ne,
        TokenKind::Lt => BinOp::Lt,
        TokenKind::Le => BinOp::Le,
        TokenKind::Gt => BinOp::Gt,
        TokenKind::Ge => BinOp::Ge,
        TokenKind::Plus => BinOp::Add,
        TokenKind::Minus => BinOp::Sub,
        TokenKind::Star => BinOp::Mul,
        TokenKind::Slash => BinOp::Div,
        TokenKind::Percent => BinOp::Mod,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_program() {
        let p = parse("x = 1; write(x);").unwrap();
        assert_eq!(p.len(), 2);
        assert!(matches!(p.stmt(p.body()[0]).kind, StmtKind::Assign { .. }));
    }

    #[test]
    fn precedence() {
        let p = parse("x = 1 + 2 * 3 == 7 && 1 < 2;").unwrap();
        let StmtKind::Assign { rhs, .. } = &p.stmt(p.body()[0]).kind else {
            panic!()
        };
        // (((1 + (2*3)) == 7) && (1 < 2))
        let Expr::Binary(BinOp::And, l, r) = rhs else {
            panic!("top is And: {rhs:?}")
        };
        assert!(matches!(**l, Expr::Binary(BinOp::Eq, ..)));
        assert!(matches!(**r, Expr::Binary(BinOp::Lt, ..)));
    }

    #[test]
    fn unary_chains() {
        let p = parse("x = !-y;").unwrap();
        let StmtKind::Assign { rhs, .. } = &p.stmt(p.body()[0]).kind else {
            panic!()
        };
        let Expr::Unary(UnOp::Not, inner) = rhs else {
            panic!()
        };
        assert!(matches!(**inner, Expr::Unary(UnOp::Neg, _)));
    }

    #[test]
    fn nesting_past_the_bound_is_a_positioned_error() {
        // `MAX_NESTING` terms parse; the operator adding one more is the
        // error, at column 4k + 3 for the k-th ` + 1`.
        let chain = |terms: usize| format!("x = y{};", " + 1".repeat(terms - 1));
        assert!(parse(&chain(MAX_NESTING)).is_ok());
        let e = parse(&chain(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(
            (e.kind, e.line, e.col),
            (ErrorKind::TooDeep, 1, 4 * MAX_NESTING as u32 + 3)
        );
        // Blocks count even when empty: the program body plus
        // `MAX_NESTING - 1` loop bodies fit, one more does not.
        let loops = |n: usize| format!("{}{}", "while (1) {".repeat(n), "}".repeat(n));
        assert!(parse(&loops(MAX_NESTING - 1)).is_ok());
        let e = parse(&loops(MAX_NESTING)).unwrap_err();
        assert_eq!(e.kind, ErrorKind::TooDeep);
        for deep in [
            "(".repeat(MAX_NESTING + 1),
            "-".repeat(MAX_NESTING + 1),
            "f(".repeat(MAX_NESTING + 1),
        ] {
            assert_eq!(
                parse(&format!("x = {deep}")).unwrap_err().kind,
                ErrorKind::TooDeep
            );
        }
    }

    #[test]
    fn cond_goto_fusion() {
        let p = parse("L: x = 0; if (x > 0) goto L;").unwrap();
        assert_eq!(p.len(), 2);
        assert!(matches!(
            p.stmt(p.body()[1]).kind,
            StmtKind::CondGoto { .. }
        ));
    }

    #[test]
    fn cond_goto_not_fused_with_else() {
        let p = parse("L: x = 0; if (x > 0) goto L; else x = 1;").unwrap();
        // if + goto + assigns: the else-form must stay a plain If.
        assert!(matches!(p.stmt(p.body()[1]).kind, StmtKind::If { .. }));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn braced_goto_not_fused() {
        let p = parse("L: x = 0; if (x > 0) { goto L; }").unwrap();
        assert!(matches!(p.stmt(p.body()[1]).kind, StmtKind::If { .. }));
    }

    #[test]
    fn labels_attach_to_statements() {
        let p = parse("L1: L2: x = 0; goto L1; goto L2;").unwrap();
        let s = p.body()[0];
        assert_eq!(p.stmt(s).labels.len(), 2);
        assert_eq!(p.label_target(p.label("L1").unwrap()), Some(s));
        assert_eq!(p.label_target(p.label("L2").unwrap()), Some(s));
    }

    #[test]
    fn switch_with_fallthrough_and_default() {
        let p = parse(
            "switch (c) {
               case 1: case 2: x = 1;
               case 3: x = 2; break;
               default: x = 3;
             }",
        )
        .unwrap();
        let StmtKind::Switch { arms, .. } = &p.stmt(p.body()[0]).kind else {
            panic!()
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].guards.len(), 2);
        assert_eq!(arms[1].body.len(), 2);
        assert_eq!(arms[2].guards, vec![CaseGuard::Default]);
    }

    #[test]
    fn negative_case_values() {
        let p = parse("switch (c) { case -5: x = 1; }").unwrap();
        let StmtKind::Switch { arms, .. } = &p.stmt(p.body()[0]).kind else {
            panic!()
        };
        assert_eq!(arms[0].guards, vec![CaseGuard::Case(-5)]);
    }

    #[test]
    fn do_while_parses() {
        let p = parse("do { x = x + 1; } while (x < 10);").unwrap();
        assert!(matches!(p.stmt(p.body()[0]).kind, StmtKind::DoWhile { .. }));
    }

    #[test]
    fn dangling_else_binds_tight() {
        let p = parse("if (a) if (b) x = 1; else x = 2;").unwrap();
        let StmtKind::If {
            then_branch,
            else_branch,
            ..
        } = &p.stmt(p.body()[0]).kind
        else {
            panic!()
        };
        assert!(else_branch.is_empty());
        let StmtKind::If { else_branch, .. } = &p.stmt(then_branch[0]).kind else {
            panic!()
        };
        assert_eq!(else_branch.len(), 1);
    }

    #[test]
    fn error_missing_semi() {
        let err = parse("x = 1").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::UnexpectedToken { .. }));
    }

    #[test]
    fn error_unclosed_block() {
        let err = parse("while (1) { x = 1;").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::UnexpectedToken { .. }));
    }

    #[test]
    fn error_undefined_label() {
        let err = parse("goto nowhere;").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn error_break_outside() {
        let err = parse("break;").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BreakOutsideLoop);
    }

    #[test]
    fn error_continue_in_switch_only() {
        let err = parse("switch (c) { case 1: continue; }").unwrap_err();
        assert_eq!(err.kind, ErrorKind::ContinueOutsideLoop);
    }

    #[test]
    fn continue_ok_in_loop_inside_switch() {
        let p = parse("while (1) { switch (c) { case 1: continue; } }");
        assert!(p.is_ok());
    }

    #[test]
    fn break_ok_in_switch() {
        assert!(parse("switch (c) { case 1: break; }").is_ok());
    }

    #[test]
    fn call_with_multiple_args() {
        let p = parse("x = g(a, b + 1, f());").unwrap();
        let StmtKind::Assign { rhs, .. } = &p.stmt(p.body()[0]).kind else {
            panic!()
        };
        let Expr::Call(_, args) = rhs else { panic!() };
        assert_eq!(args.len(), 3);
    }

    #[test]
    fn empty_program_is_ok() {
        let p = parse("").unwrap();
        assert!(p.is_empty());
    }

    /// Every lexical, syntactic and semantic error site with the line
    /// and column it reports; a lexical error anywhere wins over a
    /// syntax error before it.
    #[test]
    fn errors_keep_their_line_and_column() {
        let unexpected = |expected: &str, found: &str| ErrorKind::UnexpectedToken {
            expected: expected.into(),
            found: found.into(),
        };
        let overflow = |s: &str| ErrorKind::IntOverflow(s.into());
        let cases = [
            ("x = @;", ErrorKind::UnexpectedChar('@'), 1, 5),
            ("// é ü\n  y = é;", ErrorKind::UnexpectedChar('é'), 2, 7),
            (
                "/* ü\n ü */ x = 1 & 2;",
                ErrorKind::UnexpectedChar('&'),
                2,
                13,
            ),
            (
                "\tx\t= 99999999999999999999;",
                overflow("99999999999999999999"),
                1,
                6,
            ),
            (
                "x = 1;\r\ny = 9223372036854775808;",
                overflow("9223372036854775808"),
                2,
                5,
            ),
            ("x = |;", ErrorKind::UnexpectedChar('|'), 1, 5),
            ("x\u{3000}= 1; @", ErrorKind::UnexpectedChar('@'), 1, 8),
            (
                "/* 日本 */ x = 1;\u{a0}\u{2028} #",
                ErrorKind::UnexpectedChar('#'),
                1,
                19,
            ),
            ("x = 1", unexpected("`;`", "end of input"), 1, 6),
            (
                "while (1) { x = 1;",
                unexpected("`}`", "end of input"),
                1,
                19,
            ),
            ("read(1);", unexpected("variable name", "integer `1`"), 1, 6),
            ("goto 5;", unexpected("label name", "integer `5`"), 1, 6),
            (
                "switch (c) { x = 1; }",
                unexpected("`case` or `default`", "identifier `x`"),
                1,
                14,
            ),
            (
                "switch (c) { case x: }",
                unexpected("case value", "identifier `x`"),
                1,
                19,
            ),
            ("x = ;", unexpected("an expression", "`;`"), 1, 5),
            ("+ x;", unexpected("a statement", "`+`"), 1, 1),
            (
                "do x = 1; while x;",
                unexpected("`(`", "identifier `x`"),
                1,
                17,
            ),
            (
                "switch (c) { case 1: x = 1;",
                unexpected("`}`", "end of input"),
                1,
                28,
            ),
            ("x = f(a, );", unexpected("an expression", "`)`"), 1, 10),
            (
                "if (x) goto L; else",
                unexpected("a statement", "end of input"),
                1,
                20,
            ),
            ("x = ;\n é", ErrorKind::UnexpectedChar('é'), 2, 2),
            (
                "x = 1 -9223372036854775808;",
                overflow("9223372036854775808"),
                1,
                8,
            ),
            (
                "x = ; y = 9223372036854775808;",
                overflow("9223372036854775808"),
                1,
                11,
            ),
            (
                "L: x = 0; L: y = 0; goto L;",
                ErrorKind::DuplicateLabel("L".into()),
                1,
                0,
            ),
            (
                "x = 0;\ngoto M;",
                ErrorKind::UndefinedLabel("M".into()),
                2,
                0,
            ),
            ("\n\nbreak;", ErrorKind::BreakOutsideLoop, 3, 0),
            (
                "x = 1;\r\n\tcontinue;",
                ErrorKind::ContinueOutsideLoop,
                2,
                0,
            ),
            (
                "switch (c) { case 1: x = 0; case 1: y = 0; }",
                ErrorKind::DuplicateCase(1),
                1,
                0,
            ),
            (
                "switch (c) { default: x = 0; default: y = 0; }",
                ErrorKind::DuplicateDefault,
                1,
                0,
            ),
        ];
        for (src, kind, line, col) in cases {
            let err = parse(src).unwrap_err();
            assert_eq!((err.kind, err.line, err.col), (kind, line, col), "{src:?}");
        }
    }

    /// `i64::MIN` has no positive counterpart, so it prints as a negated
    /// literal whose magnitude overflows `i64`; the parser reads exactly
    /// that literal back, as an expression and as a case guard.
    #[test]
    fn min_literal_prints_and_reparses() {
        use crate::{print_program, ProgramBuilder};
        let mut b = ProgramBuilder::new();
        b.read("x");
        b.assign("z", Expr::num(i64::MIN));
        let x = b.var("x");
        b.assign("y", Expr::sub(x, Expr::num(i64::MIN)));
        b.assign("w", Expr::un(UnOp::Neg, Expr::num(i64::MIN)));
        let x = b.var("x");
        b.switch(x, |arms| {
            arms.case(i64::MIN, |b| {
                let y = b.var("y");
                b.write(y);
            });
            arms.case(i64::MAX, |b| {
                b.write(Expr::num(-5));
            });
        });
        let p = b.build().unwrap();
        let text = print_program(&p);
        assert!(text.contains("case -9223372036854775808:"), "{text}");
        let q = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(print_program(&q), text);
        assert_eq!(parse(&print_program(&q)).unwrap(), q);
        let rhs = |line: usize| match &q.stmt(q.at_line(line)).kind {
            StmtKind::Assign { rhs, .. } => rhs.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(rhs(2), Expr::Num(i64::MIN));
        assert!(matches!(rhs(3), Expr::Binary(BinOp::Sub, _, r) if *r == Expr::Num(i64::MIN)));
        assert!(matches!(rhs(4), Expr::Unary(UnOp::Neg, e) if *e == Expr::Num(i64::MIN)));
        let StmtKind::Switch { arms, .. } = &q.stmt(q.at_line(5)).kind else {
            panic!()
        };
        assert_eq!(arms[0].guards, vec![CaseGuard::Case(i64::MIN)]);
        assert_eq!(arms[1].guards, vec![CaseGuard::Case(i64::MAX)]);
        // Any other negative literal keeps its shape: a negation.
        let StmtKind::Write { arg } = &q.stmt(q.at_line(7)).kind else {
            panic!()
        };
        assert!(matches!(arg, Expr::Unary(UnOp::Neg, e) if **e == Expr::Num(5)));
    }

    #[test]
    fn skip_statement() {
        let p = parse("L: ; goto L;").unwrap();
        assert!(matches!(p.stmt(p.body()[0]).kind, StmtKind::Skip));
    }
}
