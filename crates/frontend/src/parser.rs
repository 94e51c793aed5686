//! Recursive-descent parser for MLC.

use crate::ast::*;
use crate::lexer::{Lexer, Punct, Token, TokenKind};
use crate::names::{Kw, NameId};
use crate::FrontendError;

/// Deepest nesting the parser accepts. Every construct the parser (and,
/// after it, lowering) handles by recursing counts one level while it
/// is open: a block, an `else if`, a parenthesis, a unary operator's
/// operand, a binary operator's right operand, call and conversion
/// arguments, an index. The bound keeps the recursion inside any
/// thread's stack whatever the source says.
const MAX_NESTING: u32 = 256;

type PResult<T> = Result<T, FrontendError>;

struct Parser<'s> {
    toks: Vec<Token>,
    /// Index of the current token; the final `Eof` is never passed.
    pos: usize,
    ast: Module<'s>,
    depth: u32,
    /// Members of the lists being parsed, innermost last; a finished
    /// list moves to its arena as one run.
    stmt_stack: Vec<Stmt>,
    expr_stack: Vec<Expr>,
    /// Arms `(condition, body, offset of the `if`)` of the `else if`
    /// chains being parsed, innermost chain last.
    arm_stack: Vec<(ExprId, Span, u32)>,
    /// The parameter list being parsed.
    param_buf: Vec<Param>,
    extern_param_buf: Vec<TypeName>,
}

impl Parser<'_> {
    fn peek(&self) -> Token {
        self.toks[self.pos]
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos];
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> u32 {
        self.peek().offset
    }

    fn error(&self, offset: u32, message: impl Into<String>) -> FrontendError {
        FrontendError::new(self.ast.pos(offset), message)
    }

    fn describe(&self, k: TokenKind) -> String {
        match k {
            TokenKind::Ident(id) => format!("`{}`", self.ast.name(id)),
            TokenKind::Kw(kw) => format!("`{}`", kw.as_str()),
            TokenKind::Int(v) => format!("`{v}`"),
            TokenKind::Float(v) => format!("`{v}`"),
            TokenKind::Punct(p) => format!("`{}`", p.as_str()),
            TokenKind::Eof => "end of input".to_owned(),
        }
    }

    fn at_punct(&self, p: Punct) -> bool {
        self.peek().kind == TokenKind::Punct(p)
    }

    fn at_kw(&self, kw: Kw) -> bool {
        self.peek().kind == TokenKind::Kw(kw)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        let at = self.at_punct(p);
        if at {
            self.bump();
        }
        at
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        let at = self.at_kw(kw);
        if at {
            self.bump();
        }
        at
    }

    fn expect_punct(&mut self, p: Punct) -> PResult<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(
                self.here(),
                format!(
                    "expected `{}`, found {}",
                    p.as_str(),
                    self.describe(self.peek().kind)
                ),
            ))
        }
    }

    fn expect_ident(&mut self) -> PResult<(NameId, u32)> {
        let t = self.bump();
        match t.kind {
            TokenKind::Ident(id) => Ok((id, t.offset)),
            k => Err(self.error(
                t.offset,
                format!("expected identifier, found {}", self.describe(k)),
            )),
        }
    }

    /// Runs `parse` one nesting level down; `offset` is the token that
    /// opens the level.
    fn nested<T>(
        &mut self,
        offset: u32,
        parse: impl FnOnce(&mut Self) -> PResult<T>,
    ) -> PResult<T> {
        if self.depth == MAX_NESTING {
            return Err(self.error(offset, format!("nesting deeper than {MAX_NESTING}")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn parse_type(&mut self) -> PResult<TypeName> {
        let offset = self.here();
        let base = if self.eat_kw(Kw::Int) {
            TypeName::Int
        } else if self.eat_kw(Kw::Float) {
            TypeName::Float
        } else {
            return Err(self.error(
                offset,
                format!("expected type, found {}", self.describe(self.peek().kind)),
            ));
        };
        if !self.eat_punct(Punct::LBracket) {
            return Ok(base);
        }
        let n_tok = self.bump();
        let n = match n_tok.kind {
            TokenKind::Int(n) if n > 0 && n <= i64::from(u32::MAX) => n as u32,
            _ => {
                return Err(self.error(
                    n_tok.offset,
                    "array length must be a positive integer literal",
                ))
            }
        };
        self.expect_punct(Punct::RBracket)?;
        Ok(if base == TypeName::Int {
            TypeName::IntArray(n)
        } else {
            TypeName::FloatArray(n)
        })
    }

    fn parse_scalar_type(&mut self) -> PResult<TypeName> {
        let offset = self.here();
        let ty = self.parse_type()?;
        if ty.is_array() {
            return Err(self.error(offset, "array type not allowed here"));
        }
        Ok(ty)
    }

    fn parse_module(&mut self) -> PResult<()> {
        while self.peek().kind != TokenKind::Eof {
            let item = self.parse_item()?;
            self.ast.items.push(item);
        }
        Ok(())
    }

    /// `"->" scalar`, if present.
    fn parse_return_type(&mut self) -> PResult<Option<TypeName>> {
        if self.eat_punct(Punct::Arrow) {
            Ok(Some(self.parse_scalar_type()?))
        } else {
            Ok(None)
        }
    }

    /// A comma-separated list of expressions up to (not including)
    /// `close`, as a run.
    fn parse_expr_list(&mut self, close: Punct) -> PResult<Span> {
        let mark = self.expr_stack.len();
        if !self.at_punct(close) {
            loop {
                let e = self.parse_expr()?;
                self.expr_stack.push(e);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        Ok(self.ast.push_exprs(self.expr_stack.drain(mark..)))
    }

    fn parse_item(&mut self) -> PResult<Item> {
        let offset = self.here();
        if self.eat_kw(Kw::Extern) {
            if self.eat_kw(Kw::Fn) {
                let (name, _) = self.expect_ident()?;
                self.expect_punct(Punct::LParen)?;
                if !self.at_punct(Punct::RParen) {
                    loop {
                        // Allow `name: type` or bare `type`.
                        if matches!(self.peek().kind, TokenKind::Ident(_))
                            && self.toks[self.pos + 1].kind == TokenKind::Punct(Punct::Colon)
                        {
                            self.pos += 2;
                        }
                        let ty = self.parse_scalar_type()?;
                        self.extern_param_buf.push(ty);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                }
                self.expect_punct(Punct::RParen)?;
                let ret = self.parse_return_type()?;
                self.expect_punct(Punct::Semi)?;
                return Ok(Item::ExternFn {
                    name,
                    params: self.ast.push_extern_params(self.extern_param_buf.drain(..)),
                    ret,
                    offset,
                });
            }
            if self.eat_kw(Kw::Global) {
                let (name, _) = self.expect_ident()?;
                self.expect_punct(Punct::Colon)?;
                let ty = self.parse_type()?;
                self.expect_punct(Punct::Semi)?;
                return Ok(Item::ExternGlobal { name, ty, offset });
            }
            return Err(self.error(offset, "expected `fn` or `global` after `extern`"));
        }
        let internal = self.eat_kw(Kw::Static);
        if self.eat_kw(Kw::Fn) {
            return self.parse_function(internal, offset);
        }
        if internal || self.at_kw(Kw::Global) {
            if !internal {
                self.bump(); // `global`
            }
            let (name, _) = self.expect_ident()?;
            self.expect_punct(Punct::Colon)?;
            let ty = self.parse_type()?;
            let mut scalar_init = None;
            let mut array_init = None;
            if self.eat_punct(Punct::Assign) {
                if self.eat_punct(Punct::LBracket) {
                    array_init = Some(self.parse_expr_list(Punct::RBracket)?);
                    self.expect_punct(Punct::RBracket)?;
                } else {
                    let e = self.parse_expr()?;
                    scalar_init = Some(self.ast.push_expr(e));
                }
            }
            self.expect_punct(Punct::Semi)?;
            return Ok(Item::Global {
                name,
                ty,
                internal,
                scalar_init,
                array_init,
                offset,
            });
        }
        Err(self.error(
            offset,
            format!(
                "expected `fn`, `global`, `static`, or `extern`, found {}",
                self.describe(self.peek().kind)
            ),
        ))
    }

    fn parse_function(&mut self, internal: bool, offset: u32) -> PResult<Item> {
        let (name, _) = self.expect_ident()?;
        self.expect_punct(Punct::LParen)?;
        if !self.at_punct(Punct::RParen) {
            loop {
                let (pname, poffset) = self.expect_ident()?;
                self.expect_punct(Punct::Colon)?;
                let ty = self.parse_scalar_type()?;
                self.param_buf.push(Param {
                    name: pname,
                    ty,
                    offset: poffset,
                });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen)?;
        let params = self.ast.push_params(self.param_buf.drain(..));
        let ret = self.parse_return_type()?;
        let body = self.parse_block()?;
        let end_line = self.ast.lines.line(self.toks[self.pos - 1].offset);
        Ok(Item::Function {
            name,
            params,
            ret,
            body,
            internal,
            offset,
            lines: end_line - self.ast.lines.line(offset) + 1,
        })
    }

    fn parse_block(&mut self) -> PResult<Span> {
        let open = self.here();
        self.expect_punct(Punct::LBrace)?;
        self.nested(open, |p| {
            let mark = p.stmt_stack.len();
            while !p.eat_punct(Punct::RBrace) {
                if p.peek().kind == TokenKind::Eof {
                    return Err(p.error(p.here(), "unterminated block"));
                }
                let s = p.parse_stmt()?;
                p.stmt_stack.push(s);
            }
            Ok(p.ast.push_stmts(p.stmt_stack.drain(mark..)))
        })
    }

    /// `name = expr` from the current identifier, without the `;`.
    fn parse_assign(&mut self) -> PResult<Stmt> {
        let (name, offset) = self.expect_ident()?;
        self.expect_punct(Punct::Assign)?;
        let value = self.parse_expr()?;
        let value = self.ast.push_expr(value);
        Ok(Stmt {
            kind: StmtKind::Assign { name, value },
            offset,
        })
    }

    fn parse_stmt(&mut self) -> PResult<Stmt> {
        let Token { kind, offset } = self.peek();
        let stmt = |kind| -> PResult<Stmt> { Ok(Stmt { kind, offset }) };
        match kind {
            TokenKind::Kw(Kw::Var) => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                self.expect_punct(Punct::Colon)?;
                let ty = self.parse_type()?;
                let init = if self.eat_punct(Punct::Assign) {
                    let e = self.parse_expr()?;
                    Some(self.ast.push_expr(e))
                } else {
                    None
                };
                self.expect_punct(Punct::Semi)?;
                stmt(StmtKind::Var { name, ty, init })
            }
            TokenKind::Kw(Kw::If) => {
                // An `else if` chain nests no deeper than its first
                // `if`, however long it is: its arms are collected by
                // this loop, so `depth` bounds recursion only, and then
                // folded from the tail into the nested `if`s the sugar
                // stands for — each later `if` the one statement of the
                // previous arm's else branch.
                let mark = self.arm_stack.len();
                let mut else_body = loop {
                    let offset = self.bump().offset;
                    let cond = self.parse_condition()?;
                    let then_body = self.parse_block()?;
                    self.arm_stack.push((cond, then_body, offset));
                    if !self.eat_kw(Kw::Else) {
                        break Span::default();
                    }
                    if !self.at_kw(Kw::If) {
                        break self.parse_block()?;
                    }
                };
                loop {
                    let (cond, then_body, offset) =
                        self.arm_stack.pop().expect("the chain has an arm");
                    let arm = Stmt {
                        kind: StmtKind::If {
                            cond,
                            then_body,
                            else_body,
                        },
                        offset,
                    };
                    if self.arm_stack.len() == mark {
                        break Ok(arm);
                    }
                    else_body = self.ast.push_stmts([arm]);
                }
            }
            TokenKind::Kw(Kw::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                stmt(StmtKind::Break)
            }
            TokenKind::Kw(Kw::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                stmt(StmtKind::Continue)
            }
            TokenKind::Kw(Kw::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                // The init slot: a `var` declaration or an assignment,
                // either one consuming its `;`.
                let init = if self.at_kw(Kw::Var) {
                    self.parse_stmt()?
                } else {
                    let s = self.parse_assign()?;
                    self.expect_punct(Punct::Semi)?;
                    s
                };
                let init = self.ast.push_stmt(init);
                let cond = self.parse_expr()?;
                let cond = self.ast.push_expr(cond);
                self.expect_punct(Punct::Semi)?;
                let step = self.parse_assign()?;
                let step = self.ast.push_stmt(step);
                self.expect_punct(Punct::RParen)?;
                let body = self.parse_block()?;
                stmt(StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            TokenKind::Kw(Kw::While) => {
                self.bump();
                let cond = self.parse_condition()?;
                let body = self.parse_block()?;
                stmt(StmtKind::While { cond, body })
            }
            TokenKind::Kw(Kw::Return) => {
                self.bump();
                let value = if self.at_punct(Punct::Semi) {
                    None
                } else {
                    let e = self.parse_expr()?;
                    Some(self.ast.push_expr(e))
                };
                self.expect_punct(Punct::Semi)?;
                stmt(StmtKind::Return(value))
            }
            TokenKind::Kw(Kw::Output) => {
                self.bump();
                let value = self.parse_condition()?;
                self.expect_punct(Punct::Semi)?;
                stmt(StmtKind::Output(value))
            }
            // Assignment or expression statement: one token of
            // lookahead tells them apart, except for `a[i]`.
            TokenKind::Ident(name) => match self.toks[self.pos + 1].kind {
                TokenKind::Punct(Punct::Assign) => {
                    let s = self.parse_assign()?;
                    self.expect_punct(Punct::Semi)?;
                    Ok(s)
                }
                TokenKind::Punct(Punct::LBracket) => {
                    // `a[i] = v;` or an expression starting `a[i]`:
                    // parse the index, then look.
                    let save = self.pos;
                    self.pos += 2;
                    let index = self.parse_expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    if self.eat_punct(Punct::Assign) {
                        let index = self.ast.push_expr(index);
                        let value = self.parse_expr()?;
                        let value = self.ast.push_expr(value);
                        self.expect_punct(Punct::Semi)?;
                        stmt(StmtKind::AssignElem { name, index, value })
                    } else {
                        self.pos = save;
                        self.parse_expr_stmt()
                    }
                }
                _ => self.parse_expr_stmt(),
            },
            _ => self.parse_expr_stmt(),
        }
    }

    fn parse_expr_stmt(&mut self) -> PResult<Stmt> {
        let offset = self.here();
        let e = self.parse_expr()?;
        let e = self.ast.push_expr(e);
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt {
            kind: StmtKind::Expr(e),
            offset,
        })
    }

    /// `"(" expr ")"` after `if`, `while` and `output`.
    fn parse_condition(&mut self) -> PResult<ExprId> {
        self.expect_punct(Punct::LParen)?;
        let e = self.parse_expr()?;
        self.expect_punct(Punct::RParen)?;
        Ok(self.ast.push_expr(e))
    }

    fn parse_expr(&mut self) -> PResult<Expr> {
        self.parse_bin(0)
    }

    fn parse_bin(&mut self, min_prec: u8) -> PResult<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let Some((op, prec)) = self.peek_bin_op() else {
                return Ok(lhs);
            };
            if prec < min_prec {
                return Ok(lhs);
            }
            let offset = self.bump().offset;
            let rhs = self.nested(offset, |p| p.parse_bin(prec + 1))?;
            let (l, r) = (self.ast.push_expr(lhs), self.ast.push_expr(rhs));
            lhs = Expr {
                kind: ExprKind::Bin(op, l, r),
                offset,
            };
        }
    }

    fn peek_bin_op(&self) -> Option<(BinExprOp, u8)> {
        let TokenKind::Punct(p) = self.peek().kind else {
            return None;
        };
        Some(match p {
            Punct::OrOr => (BinExprOp::Or, 1),
            Punct::AndAnd => (BinExprOp::And, 2),
            Punct::Pipe => (BinExprOp::BitOr, 3),
            Punct::Caret => (BinExprOp::BitXor, 4),
            Punct::Amp => (BinExprOp::BitAnd, 5),
            Punct::EqEq => (BinExprOp::Eq, 6),
            Punct::Ne => (BinExprOp::Ne, 6),
            Punct::Lt => (BinExprOp::Lt, 7),
            Punct::Le => (BinExprOp::Le, 7),
            Punct::Gt => (BinExprOp::Gt, 7),
            Punct::Ge => (BinExprOp::Ge, 7),
            Punct::Shl => (BinExprOp::Shl, 8),
            Punct::Shr => (BinExprOp::Shr, 8),
            Punct::Plus => (BinExprOp::Add, 9),
            Punct::Minus => (BinExprOp::Sub, 9),
            Punct::Star => (BinExprOp::Mul, 10),
            Punct::Slash => (BinExprOp::Div, 10),
            Punct::Percent => (BinExprOp::Rem, 10),
            _ => return None,
        })
    }

    fn parse_unary(&mut self) -> PResult<Expr> {
        let Token { kind, offset } = self.peek();
        let op = match kind {
            TokenKind::Punct(Punct::Minus) => UnExprOp::Neg,
            TokenKind::Punct(Punct::Bang) => UnExprOp::Not,
            _ => return self.parse_primary(),
        };
        self.bump();
        let operand = self.nested(offset, Self::parse_unary)?;
        Ok(Expr {
            kind: ExprKind::Un(op, self.ast.push_expr(operand)),
            offset,
        })
    }

    /// `expr ")"` one level down, after the `(` at the current token
    /// has been seen: a parenthesis or a conversion's argument.
    fn parse_parenthesized(&mut self) -> PResult<Expr> {
        let open = self.bump().offset;
        self.nested(open, |p| {
            let e = p.parse_expr()?;
            p.expect_punct(Punct::RParen)?;
            Ok(e)
        })
    }

    fn parse_primary(&mut self) -> PResult<Expr> {
        let Token { kind, offset } = self.peek();
        let expr = |kind| -> PResult<Expr> { Ok(Expr { kind, offset }) };
        match kind {
            TokenKind::Int(v) => {
                self.bump();
                expr(ExprKind::IntLit(v))
            }
            TokenKind::Float(v) => {
                self.bump();
                expr(ExprKind::FloatLit(v))
            }
            TokenKind::Punct(Punct::LParen) => self.parse_parenthesized(),
            TokenKind::Kw(kw) => {
                self.bump();
                if matches!(kw, Kw::Float | Kw::Int) && self.at_punct(Punct::LParen) {
                    let e = self.parse_parenthesized()?;
                    let e = self.ast.push_expr(e);
                    return expr(if kw == Kw::Float {
                        ExprKind::ToFloat(e)
                    } else {
                        ExprKind::ToInt(e)
                    });
                }
                Err(self.error(
                    offset,
                    format!("keyword `{}` cannot start an expression", kw.as_str()),
                ))
            }
            TokenKind::Ident(name) => {
                self.bump();
                let open = self.here();
                if self.eat_punct(Punct::LParen) {
                    if name == NameId::INPUT {
                        self.expect_punct(Punct::RParen)?;
                        return expr(ExprKind::Input);
                    }
                    let args = self.nested(open, |p| {
                        let args = p.parse_expr_list(Punct::RParen)?;
                        p.expect_punct(Punct::RParen)?;
                        Ok(args)
                    })?;
                    return expr(ExprKind::Call(name, args));
                }
                if self.eat_punct(Punct::LBracket) {
                    let index = self.nested(open, |p| {
                        let index = p.parse_expr()?;
                        p.expect_punct(Punct::RBracket)?;
                        Ok(index)
                    })?;
                    return expr(ExprKind::Index(name, self.ast.push_expr(index)));
                }
                expr(ExprKind::Name(name))
            }
            k => Err(self.error(
                offset,
                format!("expected expression, found {}", self.describe(k)),
            )),
        }
    }
}

/// Parses an MLC module.
///
/// # Errors
///
/// Returns the first lexical error, or else the first syntactic one
/// (which includes nesting deeper than 256 levels).
pub fn parse_module(source: &str) -> Result<Module<'_>, FrontendError> {
    let lexed = Lexer::new(source).tokenize()?;
    let mut p = Parser {
        ast: Module::new(lexed.names, lexed.lines, lexed.tokens.len()),
        toks: lexed.tokens,
        pos: 0,
        depth: 0,
        stmt_stack: Vec::new(),
        expr_stack: Vec::new(),
        arm_stack: Vec::new(),
        param_buf: Vec::new(),
        extern_param_buf: Vec::new(),
    };
    p.parse_module()?;
    Ok(p.ast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pos;

    /// The body of the module's first item, which must be a function.
    fn first_body<'m>(m: &'m Module<'_>) -> &'m [Stmt] {
        let Item::Function { body, .. } = m.items[0] else {
            panic!("expected a function");
        };
        m.stmt_run(body)
    }

    #[test]
    fn parses_function_with_control_flow() {
        let m = parse_module(
            r#"
            fn collatz(n: int) -> int {
                var steps: int = 0;
                while (n != 1) {
                    if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
                    steps = steps + 1;
                }
                return steps;
            }
            "#,
        )
        .unwrap();
        assert_eq!(m.items.len(), 1);
        let Item::Function {
            name,
            params,
            lines,
            ..
        } = m.items[0]
        else {
            panic!("expected function");
        };
        assert_eq!(m.name(name), "collatz");
        assert_eq!(m.name(m.param_run(params)[0].name), "n");
        assert_eq!(first_body(&m).len(), 3);
        assert_eq!(lines, 8);
    }

    #[test]
    fn precedence_binds_mul_over_add() {
        let m = parse_module("fn f() -> int { return 1 + 2 * 3; }").unwrap();
        let StmtKind::Return(Some(e)) = first_body(&m)[0].kind else {
            panic!()
        };
        let ExprKind::Bin(BinExprOp::Add, _, rhs) = m.expr(e).kind else {
            panic!("expected + at top, got {:?}", m.expr(e))
        };
        assert!(matches!(
            m.expr(rhs).kind,
            ExprKind::Bin(BinExprOp::Mul, _, _)
        ));
    }

    #[test]
    fn lists_are_contiguous_runs_in_source_order() {
        let m = parse_module(
            "fn f() -> int { g(1, h(2, 3), 4); if (1) { return 5; } return 6; }\n\
             static t: int[4] = [7, -8, 9];",
        )
        .unwrap();
        let body = first_body(&m);
        assert_eq!(body.len(), 3);
        let StmtKind::Expr(call) = body[0].kind else {
            panic!()
        };
        let ExprKind::Call(g, args) = m.expr(call).kind else {
            panic!()
        };
        assert_eq!(m.name(g), "g");
        let args = m.expr_run(args);
        assert_eq!(args.len(), 3);
        assert_eq!(args[0].kind, ExprKind::IntLit(1));
        assert!(matches!(args[1].kind, ExprKind::Call(_, inner) if inner.len() == 2));
        assert_eq!(args[2].kind, ExprKind::IntLit(4));
        let StmtKind::If {
            then_body,
            else_body,
            ..
        } = body[1].kind
        else {
            panic!()
        };
        assert_eq!(m.stmt_run(then_body).len(), 1);
        assert!(else_body.is_empty());
        let Item::Global {
            array_init: Some(init),
            ..
        } = m.items[1]
        else {
            panic!()
        };
        assert_eq!(m.expr_run(init).len(), 3);
    }

    #[test]
    fn parses_globals_and_externs() {
        let m = parse_module(
            r#"
            global hits: int = 0;
            static table: int[16] = [1, 2, 3];
            extern fn helper(x: int, float) -> int;
            extern global remote: float;
            "#,
        )
        .unwrap();
        assert_eq!(m.items.len(), 4);
        assert!(matches!(
            m.items[0],
            Item::Global {
                internal: false,
                ..
            }
        ));
        assert!(matches!(
            m.items[1],
            Item::Global {
                internal: true,
                ty: TypeName::IntArray(16),
                ..
            }
        ));
        let Item::ExternFn { params, .. } = m.items[2] else {
            panic!()
        };
        assert_eq!(m.extern_param_run(params), [TypeName::Int, TypeName::Float]);
        assert!(matches!(m.items[3], Item::ExternGlobal { .. }));
    }

    #[test]
    fn else_if_chains() {
        let m = parse_module(
            "fn f(x: int) -> int { if (x < 0) { return 0; } else if (x < 10) { return 1; } else { return 2; } }",
        )
        .unwrap();
        let StmtKind::If { else_body, .. } = first_body(&m)[0].kind else {
            panic!()
        };
        let else_body = m.stmt_run(else_body);
        assert_eq!(else_body.len(), 1);
        assert!(matches!(else_body[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn array_read_in_expression_position() {
        let m = parse_module("fn f() -> int { var a: int[4]; a[0] = 3; a[0]; return a[0] + 1; }")
            .unwrap();
        let body = first_body(&m);
        assert!(matches!(body[1].kind, StmtKind::AssignElem { .. }));
        // `a[0];` starts like an element assignment and is re-read as
        // an expression.
        let StmtKind::Expr(e) = body[2].kind else {
            panic!()
        };
        assert!(matches!(m.expr(e).kind, ExprKind::Index(..)));
    }

    #[test]
    fn missing_semicolon_is_reported_with_position() {
        let e = parse_module("fn f() { return }").unwrap_err();
        assert_eq!(e.message, "expected expression, found `}`");
        assert_eq!(e.pos, Pos { line: 1, col: 17 });
    }

    #[test]
    fn unterminated_block_is_reported() {
        let e = parse_module("fn f() { var x: int = 1;").unwrap_err();
        assert_eq!(e.message, "unterminated block");
    }

    #[test]
    fn keywords_are_not_identifiers_or_expressions() {
        let e = parse_module("fn while() {}").unwrap_err();
        assert_eq!(e.message, "expected identifier, found `while`");
        let e = parse_module("fn f() { return else; }").unwrap_err();
        assert_eq!(e.message, "keyword `else` cannot start an expression");
        let e = parse_module("fn f() { return int; }").unwrap_err();
        assert_eq!(e.message, "keyword `int` cannot start an expression");
        // `input` is only special when called.
        assert!(parse_module("fn f() -> int { var input: int = input(); return input; }").is_ok());
    }

    #[test]
    fn builtins_parse() {
        let m = parse_module(
            "fn f() -> int { var x: float = float(input()); output(int(x)); return int(x); }",
        );
        assert!(m.is_ok(), "{m:?}");
    }

    /// `open` repeated `depth` times around `1`, inside a function
    /// body (itself one level).
    fn nest(open: &str, close: &str, depth: usize) -> String {
        format!(
            "fn f() -> int {{ return {}1{}; }}",
            open.repeat(depth),
            close.repeat(depth)
        )
    }

    #[test]
    fn nesting_is_limited_to_256_levels() {
        for (open, close) in [("(", ")"), ("-", ""), ("!", ""), ("int(", ")"), ("f(", ")")] {
            assert!(parse_module(&nest(open, close, 255)).is_ok(), "{open}");
            let e = parse_module(&nest(open, close, 256)).unwrap_err();
            assert_eq!(e.message, "nesting deeper than 256", "{open}");
            // The function body is level 1; the 256th `open` would be
            // level 257.
            let col = "fn f() -> int { return ".len() + 255 * open.len() + open.len();
            assert_eq!(e.pos.line, 1);
            assert_eq!(e.pos.col as usize, col, "{open}");
        }
        let index = |depth: usize| {
            format!(
                "fn f() -> int {{ var a: int[2]; return {}0{}; }}",
                "a[".repeat(depth),
                "]".repeat(depth)
            )
        };
        assert!(parse_module(&index(255)).is_ok());
        assert_eq!(
            parse_module(&index(256)).unwrap_err().message,
            "nesting deeper than 256"
        );
    }

    #[test]
    fn blocks_count_as_nesting_and_else_if_chains_do_not() {
        let blocks = |depth: usize| {
            format!(
                "fn f() {{ {} {} }}",
                "while (1) {".repeat(depth),
                "}".repeat(depth)
            )
        };
        assert!(parse_module(&blocks(255)).is_ok());
        assert_eq!(
            parse_module(&blocks(256)).unwrap_err().message,
            "nesting deeper than 256"
        );
        // An `else if` chain is as deep as its first `if`, however
        // long; `if`s nested in blocks still count.
        let chain = format!(
            "fn f() {{ if (1) {{ }} {} else {{ }} }}",
            "else if (1) { }".repeat(5000)
        );
        assert!(parse_module(&chain).is_ok());
        let ifs = |depth: usize| {
            format!(
                "fn f() {{ {} {} }}",
                "if (1) {".repeat(depth),
                "}".repeat(depth)
            )
        };
        assert!(parse_module(&ifs(255)).is_ok());
        assert_eq!(
            parse_module(&ifs(256)).unwrap_err().message,
            "nesting deeper than 256"
        );
    }

    #[test]
    fn operator_chains_are_not_nesting() {
        let sum = format!("fn f() -> int {{ return 1{}; }}", " + 1".repeat(5000));
        assert!(parse_module(&sum).is_ok());
        // A ladder of ever-tighter operators nests once per rung.
        let ladder = "fn f() -> int { return 1 || 1 && 1 | 1 ^ 1 & 1 == 1 < 1 << 1 + 1 * 1; }";
        assert!(parse_module(ladder).is_ok());
    }
}
