//! Recursive-descent parser for MLC.

use super::ast::*;
use super::ferr;
use super::lexer::{Lexer, Token, TokenKind};
use cmo_frontend::{FrontendError, Pos};

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> Pos {
        self.peek().pos
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Punct(q) if *q == p)
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), FrontendError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(ferr(
                self.here(),
                format!("expected `{p}`, found {}", describe(&self.peek().kind)),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Pos), FrontendError> {
        let pos = self.here();
        match self.bump().kind {
            TokenKind::Ident(s) if !is_keyword(&s) => Ok((s, pos)),
            k => Err(ferr(
                pos,
                format!("expected identifier, found {}", describe(&k)),
            )),
        }
    }

    fn parse_type(&mut self) -> Result<TypeName, FrontendError> {
        let pos = self.here();
        let base = if self.eat_kw("int") {
            TypeName::Int
        } else if self.eat_kw("float") {
            TypeName::Float
        } else {
            return Err(ferr(
                pos,
                format!("expected type, found {}", describe(&self.peek().kind)),
            ));
        };
        if self.eat_punct("[") {
            let n_pos = self.here();
            let n = match self.bump().kind {
                TokenKind::Int(n) if n > 0 && n <= i64::from(u32::MAX) => n as u32,
                _ => {
                    return Err(ferr(
                        n_pos,
                        "array length must be a positive integer literal",
                    ))
                }
            };
            self.expect_punct("]")?;
            Ok(match base {
                TypeName::Int => TypeName::IntArray(n),
                TypeName::Float => TypeName::FloatArray(n),
                _ => unreachable!(),
            })
        } else {
            Ok(base)
        }
    }

    fn parse_scalar_type(&mut self) -> Result<TypeName, FrontendError> {
        let pos = self.here();
        let ty = self.parse_type()?;
        if ty.is_array() {
            return Err(ferr(pos, "array type not allowed here"));
        }
        Ok(ty)
    }

    fn parse_module(&mut self) -> Result<Module, FrontendError> {
        let mut items = Vec::new();
        while !matches!(self.peek().kind, TokenKind::Eof) {
            items.push(self.parse_item()?);
        }
        Ok(Module { items })
    }

    fn parse_item(&mut self) -> Result<Item, FrontendError> {
        let pos = self.here();
        if self.eat_kw("extern") {
            if self.eat_kw("fn") {
                let (name, _) = self.expect_ident()?;
                self.expect_punct("(")?;
                let mut params = Vec::new();
                if !self.at_punct(")") {
                    loop {
                        // Allow `name: type` or bare `type`.
                        let save = self.pos;
                        if let Ok((_, _)) = self.expect_ident() {
                            if !self.eat_punct(":") {
                                self.pos = save;
                            }
                        } else {
                            self.pos = save;
                        }
                        params.push(self.parse_scalar_type()?);
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                }
                self.expect_punct(")")?;
                let ret = if self.eat_punct("->") {
                    Some(self.parse_scalar_type()?)
                } else {
                    None
                };
                self.expect_punct(";")?;
                return Ok(Item::ExternFn {
                    name,
                    params,
                    ret,
                    pos,
                });
            }
            if self.eat_kw("global") {
                let (name, _) = self.expect_ident()?;
                self.expect_punct(":")?;
                let ty = self.parse_type()?;
                self.expect_punct(";")?;
                return Ok(Item::ExternGlobal { name, ty, pos });
            }
            return Err(ferr(pos, "expected `fn` or `global` after `extern`"));
        }
        let internal = self.eat_kw("static");
        if self.eat_kw("fn") {
            return self.parse_function(internal, pos);
        }
        if internal || self.at_kw("global") {
            if !internal {
                self.bump(); // `global`
            }
            let (name, _) = self.expect_ident()?;
            self.expect_punct(":")?;
            let ty = self.parse_type()?;
            let mut scalar_init = None;
            let mut array_init = None;
            if self.eat_punct("=") {
                if self.eat_punct("[") {
                    let mut elems = Vec::new();
                    if !self.at_punct("]") {
                        loop {
                            elems.push(self.parse_expr()?);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                    }
                    self.expect_punct("]")?;
                    array_init = Some(elems);
                } else {
                    scalar_init = Some(self.parse_expr()?);
                }
            }
            self.expect_punct(";")?;
            return Ok(Item::Global {
                name,
                ty,
                internal,
                scalar_init,
                array_init,
                pos,
            });
        }
        Err(ferr(
            pos,
            format!(
                "expected `fn`, `global`, `static`, or `extern`, found {}",
                describe(&self.peek().kind)
            ),
        ))
    }

    fn parse_function(&mut self, internal: bool, pos: Pos) -> Result<Item, FrontendError> {
        let (name, _) = self.expect_ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.at_punct(")") {
            loop {
                let (pname, ppos) = self.expect_ident()?;
                self.expect_punct(":")?;
                let ty = self.parse_scalar_type()?;
                params.push(Param {
                    name: pname,
                    ty,
                    pos: ppos,
                });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        let ret = if self.eat_punct("->") {
            Some(self.parse_scalar_type()?)
        } else {
            None
        };
        let body = self.parse_block()?;
        let end_line = self.toks[self.pos.saturating_sub(1)].pos.line;
        Ok(Item::Function {
            name,
            params,
            ret,
            body,
            internal,
            pos,
            lines: end_line.saturating_sub(pos.line) + 1,
        })
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>, FrontendError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if matches!(self.peek().kind, TokenKind::Eof) {
                return Err(ferr(self.here(), "unterminated block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    /// A `var` declaration or assignment, consuming the trailing `;`
    /// (the `init` slot of a `for` header).
    fn parse_simple_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let pos = self.here();
        if self.at_kw("var") {
            return self.parse_stmt();
        }
        let (name, _) = self.expect_ident()?;
        self.expect_punct("=")?;
        let value = self.parse_expr()?;
        self.expect_punct(";")?;
        Ok(Stmt {
            kind: StmtKind::Assign { name, value },
            pos,
        })
    }

    /// An assignment *without* a trailing `;` (the `step` slot of a
    /// `for` header).
    fn parse_step_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let pos = self.here();
        let (name, _) = self.expect_ident()?;
        self.expect_punct("=")?;
        let value = self.parse_expr()?;
        Ok(Stmt {
            kind: StmtKind::Assign { name, value },
            pos,
        })
    }

    fn parse_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let pos = self.here();
        if self.eat_kw("var") {
            let (name, _) = self.expect_ident()?;
            self.expect_punct(":")?;
            let ty = self.parse_type()?;
            let init = if self.eat_punct("=") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            self.expect_punct(";")?;
            return Ok(Stmt {
                kind: StmtKind::Var { name, ty, init },
                pos,
            });
        }
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            let then_body = self.parse_block()?;
            let else_body = if self.eat_kw("else") {
                if self.at_kw("if") {
                    // `else if` sugar.
                    vec![self.parse_stmt()?]
                } else {
                    self.parse_block()?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt {
                kind: StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                },
                pos,
            });
        }
        if self.eat_kw("break") {
            self.expect_punct(";")?;
            return Ok(Stmt {
                kind: StmtKind::Break,
                pos,
            });
        }
        if self.eat_kw("continue") {
            self.expect_punct(";")?;
            return Ok(Stmt {
                kind: StmtKind::Continue,
                pos,
            });
        }
        if self.eat_kw("for") {
            self.expect_punct("(")?;
            let init = Box::new(self.parse_simple_stmt()?);
            let cond = self.parse_expr()?;
            self.expect_punct(";")?;
            let step = Box::new(self.parse_step_stmt()?);
            self.expect_punct(")")?;
            let body = self.parse_block()?;
            return Ok(Stmt {
                kind: StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                },
                pos,
            });
        }
        if self.eat_kw("while") {
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            let body = self.parse_block()?;
            return Ok(Stmt {
                kind: StmtKind::While { cond, body },
                pos,
            });
        }
        if self.eat_kw("return") {
            let value = if self.at_punct(";") {
                None
            } else {
                Some(self.parse_expr()?)
            };
            self.expect_punct(";")?;
            return Ok(Stmt {
                kind: StmtKind::Return(value),
                pos,
            });
        }
        if self.at_kw("output") {
            self.bump();
            self.expect_punct("(")?;
            let value = self.parse_expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt {
                kind: StmtKind::Output(value),
                pos,
            });
        }
        // Assignment or expression statement: disambiguate by lookahead.
        if let TokenKind::Ident(name) = &self.peek().kind {
            if !is_keyword(name) {
                let name = name.clone();
                let next = self.toks.get(self.pos + 1).map(|t| &t.kind);
                if matches!(next, Some(TokenKind::Punct("="))) {
                    self.bump();
                    self.bump();
                    let value = self.parse_expr()?;
                    self.expect_punct(";")?;
                    return Ok(Stmt {
                        kind: StmtKind::Assign { name, value },
                        pos,
                    });
                }
                if matches!(next, Some(TokenKind::Punct("["))) {
                    // Could be `a[i] = v;` — parse index then check.
                    let save = self.pos;
                    self.bump();
                    self.bump();
                    let index = self.parse_expr()?;
                    self.expect_punct("]")?;
                    if self.eat_punct("=") {
                        let value = self.parse_expr()?;
                        self.expect_punct(";")?;
                        return Ok(Stmt {
                            kind: StmtKind::AssignElem { name, index, value },
                            pos,
                        });
                    }
                    self.pos = save;
                }
            }
        }
        let e = self.parse_expr()?;
        self.expect_punct(";")?;
        Ok(Stmt {
            kind: StmtKind::Expr(e),
            pos,
        })
    }

    fn parse_expr(&mut self) -> Result<Expr, FrontendError> {
        self.parse_bin(0)
    }

    fn parse_bin(&mut self, min_prec: u8) -> Result<Expr, FrontendError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let Some((op, prec)) = self.peek_bin_op() else {
                return Ok(lhs);
            };
            if prec < min_prec {
                return Ok(lhs);
            }
            let pos = self.here();
            self.bump();
            let rhs = self.parse_bin(prec + 1)?;
            lhs = Expr {
                kind: ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)),
                pos,
            };
        }
    }

    fn peek_bin_op(&self) -> Option<(BinExprOp, u8)> {
        let TokenKind::Punct(p) = &self.peek().kind else {
            return None;
        };
        Some(match *p {
            "||" => (BinExprOp::Or, 1),
            "&&" => (BinExprOp::And, 2),
            "|" => (BinExprOp::BitOr, 3),
            "^" => (BinExprOp::BitXor, 4),
            "&" => (BinExprOp::BitAnd, 5),
            "==" => (BinExprOp::Eq, 6),
            "!=" => (BinExprOp::Ne, 6),
            "<" => (BinExprOp::Lt, 7),
            "<=" => (BinExprOp::Le, 7),
            ">" => (BinExprOp::Gt, 7),
            ">=" => (BinExprOp::Ge, 7),
            "<<" => (BinExprOp::Shl, 8),
            ">>" => (BinExprOp::Shr, 8),
            "+" => (BinExprOp::Add, 9),
            "-" => (BinExprOp::Sub, 9),
            "*" => (BinExprOp::Mul, 10),
            "/" => (BinExprOp::Div, 10),
            "%" => (BinExprOp::Rem, 10),
            _ => return None,
        })
    }

    fn parse_unary(&mut self) -> Result<Expr, FrontendError> {
        let pos = self.here();
        if self.eat_punct("-") {
            let e = self.parse_unary()?;
            return Ok(Expr {
                kind: ExprKind::Un(UnExprOp::Neg, Box::new(e)),
                pos,
            });
        }
        if self.eat_punct("!") {
            let e = self.parse_unary()?;
            return Ok(Expr {
                kind: ExprKind::Un(UnExprOp::Not, Box::new(e)),
                pos,
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, FrontendError> {
        let pos = self.here();
        match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::IntLit(v),
                    pos,
                })
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::FloatLit(v),
                    pos,
                })
            }
            TokenKind::Punct("(") => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if name == "input" && self.at_punct("(") {
                    self.bump();
                    self.expect_punct(")")?;
                    return Ok(Expr {
                        kind: ExprKind::Input,
                        pos,
                    });
                }
                if (name == "float" || name == "int") && self.at_punct("(") {
                    self.bump();
                    let e = self.parse_expr()?;
                    self.expect_punct(")")?;
                    let kind = if name == "float" {
                        ExprKind::ToFloat(Box::new(e))
                    } else {
                        ExprKind::ToInt(Box::new(e))
                    };
                    return Ok(Expr { kind, pos });
                }
                if is_keyword(&name) {
                    return Err(ferr(
                        pos,
                        format!("keyword `{name}` cannot start an expression"),
                    ));
                }
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.at_punct(")") {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                    }
                    self.expect_punct(")")?;
                    return Ok(Expr {
                        kind: ExprKind::Call(name, args),
                        pos,
                    });
                }
                if self.eat_punct("[") {
                    let index = self.parse_expr()?;
                    self.expect_punct("]")?;
                    return Ok(Expr {
                        kind: ExprKind::Index(name, Box::new(index)),
                        pos,
                    });
                }
                Ok(Expr {
                    kind: ExprKind::Name(name),
                    pos,
                })
            }
            k => Err(ferr(
                pos,
                format!("expected expression, found {}", describe(&k)),
            )),
        }
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "fn" | "var"
            | "if"
            | "else"
            | "while"
            | "for"
            | "break"
            | "continue"
            | "return"
            | "global"
            | "static"
            | "extern"
            | "int"
            | "float"
            | "output"
    )
}

fn describe(k: &TokenKind) -> String {
    match k {
        TokenKind::Ident(s) => format!("`{s}`"),
        TokenKind::Int(v) => format!("`{v}`"),
        TokenKind::Float(v) => format!("`{v}`"),
        TokenKind::Punct(p) => format!("`{p}`"),
        TokenKind::Eof => "end of input".to_owned(),
    }
}

/// Parses an MLC module.
///
/// # Errors
///
/// Returns the first lexical or syntactic error.
pub fn parse_module(source: &str) -> Result<Module, FrontendError> {
    let toks = Lexer::new(source).tokenize()?;
    let mut p = Parser { toks, pos: 0 };
    p.parse_module()
}
