//! The per-module name table.
//!
//! The lexer interns every identifier's source slice here once; from
//! then on tokens, AST nodes and the lowering tables carry a [`NameId`]
//! and nothing compares, hashes, clones or allocates a string again.
//! Keywords are seeded first, so "is this identifier a keyword" is an
//! index comparison and the lexer hands the parser a [`Kw`] token.

use cmo_ir::{hash_name, NameIndex};

/// A name interned in one module's [`NameTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameId(u32);

impl NameId {
    /// The `input` builtin's name. It is an ordinary identifier (a
    /// variable may be called `input`); only `input(` is special.
    pub(crate) const INPUT: NameId = NameId(Kw::ALL.len() as u32);

    /// The index of this name in tables sized by [`NameTable::len`].
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// The reserved words of MLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Kw {
    Fn,
    Var,
    If,
    Else,
    While,
    For,
    Break,
    Continue,
    Return,
    Global,
    Static,
    Extern,
    Int,
    Float,
    Output,
}

impl Kw {
    /// Every keyword, in seeding (and discriminant) order.
    const ALL: [Kw; 15] = [
        Kw::Fn,
        Kw::Var,
        Kw::If,
        Kw::Else,
        Kw::While,
        Kw::For,
        Kw::Break,
        Kw::Continue,
        Kw::Return,
        Kw::Global,
        Kw::Static,
        Kw::Extern,
        Kw::Int,
        Kw::Float,
        Kw::Output,
    ];

    /// The keyword's spelling.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Kw::Fn => "fn",
            Kw::Var => "var",
            Kw::If => "if",
            Kw::Else => "else",
            Kw::While => "while",
            Kw::For => "for",
            Kw::Break => "break",
            Kw::Continue => "continue",
            Kw::Return => "return",
            Kw::Global => "global",
            Kw::Static => "static",
            Kw::Extern => "extern",
            Kw::Int => "int",
            Kw::Float => "float",
            Kw::Output => "output",
        }
    }
}

/// The identifiers of one module, each stored once as a slice of the
/// source text.
#[derive(Debug, Clone)]
pub struct NameTable<'s> {
    names: Vec<&'s str>,
    index: NameIndex,
}

impl<'s> NameTable<'s> {
    /// A table holding the keywords (ids `0..15`, in [`Kw`] order) and
    /// `input`.
    pub(crate) fn new() -> Self {
        let mut t = NameTable {
            names: Vec::with_capacity(256),
            index: NameIndex::new(),
        };
        for kw in Kw::ALL {
            let id = t.intern(kw.as_str());
            debug_assert_eq!(id.0, kw as u32);
        }
        let input = t.intern("input");
        debug_assert_eq!(input, NameId::INPUT);
        t
    }

    /// Interns `text`, returning its id.
    pub(crate) fn intern(&mut self, text: &'s str) -> NameId {
        let next = u32::try_from(self.names.len()).expect("a module has fewer than 2^32 names");
        let names = &self.names;
        let hash = hash_name(text.as_bytes());
        match self
            .index
            .get_or_insert(hash, next, |id| names[id as usize] == text)
        {
            Some(id) => NameId(id),
            None => {
                self.names.push(text);
                NameId(next)
            }
        }
    }

    /// The keyword `id` names, if it names one.
    pub(crate) fn keyword(id: NameId) -> Option<Kw> {
        Kw::ALL.get(id.index()).copied()
    }

    /// The text of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from another table.
    #[must_use]
    pub fn text(&self, id: NameId) -> &'s str {
        self.names[id.index()]
    }

    /// Number of names, keywords included: the size of a table indexed
    /// by [`NameId::index`].
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Never true: the keywords are always present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_seeded_in_discriminant_order() {
        let mut t = NameTable::new();
        for (i, kw) in Kw::ALL.into_iter().enumerate() {
            assert_eq!(kw as usize, i);
            let id = t.intern(kw.as_str());
            assert_eq!(NameTable::keyword(id), Some(kw));
            assert_eq!(t.text(id), kw.as_str());
        }
        assert_eq!(t.intern("input"), NameId::INPUT);
        assert_eq!(NameTable::keyword(NameId::INPUT), None);
        let x = t.intern("intensity");
        assert_eq!(NameTable::keyword(x), None);
        assert_eq!(t.intern("intensity"), x);
        assert_eq!(t.len(), 17);
    }
}
