#![warn(missing_docs)]
//! The MLC frontend.
//!
//! The paper's infrastructure feeds every source language through
//! frontends that emit a common IL into object files (§3, Figure 2).
//! This crate is the reproduction's frontend: **MLC** ("Massachusetts
//! Language-lab C") is a small, C-like language with integers, floats,
//! fixed-size arrays, module-static linkage, and cross-module `extern`
//! declarations — enough surface to generate multi-module,
//! multi-million-IL-instruction applications whose optimization
//! behaviour mirrors the paper's C/C++/Fortran workloads.
//!
//! # Example
//!
//! ```
//! use cmo_frontend::compile_module;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let obj = compile_module(
//!     "demo",
//!     r#"
//!     global counter: int = 0;
//!
//!     fn main() -> int {
//!         var i: int = 0;
//!         while (i < 10) {
//!             counter = counter + i;
//!             i = i + 1;
//!         }
//!         return counter;
//!     }
//!     "#,
//! )?;
//! assert_eq!(obj.module_name, "demo");
//! # Ok(())
//! # }
//! ```
//!
//! # Language summary
//!
//! ```text
//! module item := "global" NAME ":" type ["=" init] ";"        (exported)
//!              | "static" NAME ":" type ["=" init] ";"        (internal)
//!              | ["static"] "fn" NAME "(" params ")" ["->" scalar] block
//!              | "extern" "fn" NAME "(" params ")" ["->" scalar] ";"
//!              | "extern" "global" NAME ":" type ";"
//! type        := "int" | "float" | "int" "[" N "]" | "float" "[" N "]"
//! stmt        := "var" NAME ":" type ["=" expr] ";"
//!              | NAME "=" expr ";" | NAME "[" expr "]" "=" expr ";"
//!              | "if" "(" expr ")" block ["else" block]
//!              | "while" "(" expr ")" block
//!              | "return" [expr] ";" | "output" "(" expr ")" ";"
//!              | expr ";"
//! ```
//!
//! `&&` and `||` evaluate both operands (no short circuit); `input()`
//! reads the next workload value; `float(e)`/`int(e)` convert.

mod ast;
mod lexer;
mod lower;
mod names;
mod parser;

pub use ast::{
    BinExprOp, Expr, ExprId, ExprKind, Item, Module as AstModule, Param, Span, Stmt, StmtId,
    StmtKind, TypeName, UnExprOp,
};
pub use lexer::{Lexer, LineTable, Punct, Token, TokenKind, Tokens};
pub use lower::lower_module;
pub use names::{Kw, NameId, NameTable};
pub use parser::parse_module;

use cmo_ir::IlObject;
use std::error::Error;
use std::fmt;

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A frontend diagnostic: lexical, syntactic, or semantic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendError {
    /// Where the problem was detected.
    pub pos: Pos,
    /// Human-readable description.
    pub message: String,
}

impl FrontendError {
    pub(crate) fn new(pos: Pos, message: impl Into<String>) -> Self {
        FrontendError {
            pos,
            message: message.into(),
        }
    }
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.pos, self.message)
    }
}

impl Error for FrontendError {}

/// Compiles one MLC source module to an IL object.
///
/// This is the frontend pipeline of Figure 2: lex, parse, check, and
/// dump IL into an object ready for the (IL) linker.
///
/// # Errors
///
/// Returns the first lexical error; if there is none, the first
/// syntactic one; if there is none, the first semantic one.
pub fn compile_module(name: &str, source: &str) -> Result<IlObject, FrontendError> {
    let module = parse_module(source)?;
    lower_module(name, &module)
}
