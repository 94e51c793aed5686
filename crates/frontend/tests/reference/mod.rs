//! The front end and IL linker of commit 7e6cc03, the last one before
//! the string-free rewrite, kept as the model the current ones are
//! compared against (`prop_frontend_reference.rs`).
//!
//! `lexer.rs`, `ast.rs`, `parser.rs` and `lower.rs` are that commit's
//! `crates/frontend/src` files with their unit tests dropped, `crate::`
//! paths redirected here, and `FrontendError::new` (private to the
//! crate) spelled [`ferr`]. `link.rs` is its `crates/ir/src/link.rs`;
//! see there for the one adaptation it needed.

#![allow(dead_code, clippy::all)]

pub mod ast;
pub mod lexer;
pub mod link;
pub mod lower;
pub mod parser;

use cmo_frontend::{FrontendError, Pos};
use cmo_ir::IlObject;

pub use link::ref_link_objects;

fn ferr(pos: Pos, message: impl Into<String>) -> FrontendError {
    FrontendError {
        pos,
        message: message.into(),
    }
}

/// `compile_module` as it was.
pub fn ref_compile_module(name: &str, source: &str) -> Result<IlObject, FrontendError> {
    let module = parser::parse_module(source)?;
    lower::lower_module(name, &module, source.lines().count() as u32)
}
