//! Deterministic string interning.

use crate::ids::Sym;

/// Hashes a name with a multiply-rotate hash over 8-byte words.
///
/// Names are hashed once per identifier token and once per symbol
/// reference, so the hash is on the front end's and the IL linker's
/// hot path; like rustc's `FxHasher` it trades collision resistance
/// against crafted keys for speed. Nothing is ever iterated in hash
/// order, so the choice cannot show in any output.
#[must_use]
pub fn hash_name(name: &[u8]) -> u32 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = name.len() as u64;
    let mut words = name.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut w = [0u8; 8];
        w[..rest.len()].copy_from_slice(rest);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(K);
    }
    // The product's high half depends on every input bit.
    (h >> 32) as u32
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

const EMPTY: u32 = u32::MAX;

/// An open-addressing index from names to dense `u32` ids.
///
/// The index stores only `(hash, id)` pairs; the names live once, with
/// the caller, in whatever form suits it (owned in [`Interner`],
/// borrowed from the source text in the front end's name table). The
/// caller passes `holds`, which says whether an id's name equals the
/// one being looked up.
#[derive(Debug, Clone, Default)]
pub struct NameIndex {
    /// Power-of-two sized, at most half full; empty until first use.
    slots: Vec<Slot>,
    len: usize,
}

impl NameIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Walks the probe sequence of `hash`: the id of the name it
    /// belongs to, or else the index of the empty slot that name would
    /// take. The table must not be empty.
    fn probe(&self, hash: u32, holds: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s.id == EMPTY {
                return Err(i);
            }
            if s.hash == hash && holds(s.id) {
                return Ok(s.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id stored for the name hashing to `hash`, if any.
    #[must_use]
    pub fn get(&self, hash: u32, holds: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash, holds).ok()
    }

    /// The id stored for the name hashing to `hash`; if there is none,
    /// stores `new_id` for it and returns `None`.
    pub fn get_or_insert(
        &mut self,
        hash: u32,
        new_id: u32,
        holds: impl Fn(u32) -> bool,
    ) -> Option<u32> {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        match self.probe(hash, holds) {
            Ok(id) => Some(id),
            Err(free) => {
                self.slots[free] = Slot { hash, id: new_id };
                self.len += 1;
                None
            }
        }
    }

    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![Slot { hash: 0, id: EMPTY }; new_len]);
        for s in old {
            if s.id != EMPTY {
                let free = self
                    .probe(s.hash, |_| false)
                    .expect_err("no stored id holds a name being re-inserted");
                self.slots[free] = s;
            }
        }
    }
}

/// A string interner mapping names to stable [`Sym`] indices.
///
/// Symbols are numbered in first-intern order and the table is only
/// ever iterated by index, never by hash order, preserving the
/// determinism discipline of §6.2. Each name is stored once; the
/// lookup side is a [`NameIndex`] of `(hash, Sym)` pairs.
///
/// # Example
///
/// ```
/// use cmo_ir::Interner;
/// let mut i = Interner::new();
/// let a = i.intern("printf");
/// let b = i.intern("printf");
/// assert_eq!(a, b);
/// assert_eq!(i.resolve(a), "printf");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<Box<str>>,
    index: NameIndex,
}

impl Interner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its stable symbol.
    pub fn intern(&mut self, name: &str) -> Sym {
        let next = Sym::from_index(self.names.len());
        let names = &self.names;
        match self
            .index
            .get_or_insert(hash_name(name.as_bytes()), next.0, |id| {
                *names[id as usize] == *name
            }) {
            Some(id) => Sym(id),
            None => {
                self.names.push(name.into());
                next
            }
        }
    }

    /// Looks up a symbol without interning.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.index
            .get(hash_name(name.as_bytes()), |id| {
                *self.names[id as usize] == *name
            })
            .map(Sym)
    }

    /// Returns the string for `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced by this interner.
    #[must_use]
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of interned strings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(Sym, &str)` pairs in intern order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (Sym::from_index(i), &**s))
    }

    /// Modelled heap bytes, for memory accounting.
    ///
    /// This is a figure by formula, not a measurement: it charges what
    /// a symbol table holding a `String` per name plus a name-keyed
    /// map would occupy (each name twice at 24 bytes of header, 16
    /// bytes per map entry, 24 per slot of the name vector). The
    /// accounted optimizer peak (`peak_bytes`) is compared across
    /// commits, so the formula stays fixed while the representation
    /// behind it gets smaller.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let strings: usize = self.names.iter().map(|s| s.len() + 24).sum();
        strings * 2 + self.names.len() * 16 + self.names.capacity() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("y");
        assert_ne!(a, b);
        assert_eq!(i.intern("x"), a);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn symbols_number_in_first_seen_order() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a").index(), 0);
        assert_eq!(i.intern("b").index(), 1);
        assert_eq!(i.intern("a").index(), 0);
        let collected: Vec<_> = i.iter().map(|(_, s)| s.to_owned()).collect();
        assert_eq!(collected, ["a", "b"]);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.lookup("missing").is_none());
        let s = i.intern("present");
        assert_eq!(i.lookup("present"), Some(s));
    }

    #[test]
    fn index_survives_growth_and_colliding_hashes() {
        let mut i = Interner::new();
        let names: Vec<String> = (0..5000).map(|n| format!("name_{n}")).collect();
        for (n, name) in names.iter().enumerate() {
            assert_eq!(i.intern(name).index(), n);
        }
        for (n, name) in names.iter().enumerate() {
            assert_eq!(i.intern(name).index(), n);
            assert_eq!(i.lookup(name).map(Sym::index), Some(n));
        }
        // Two names under one hash stay distinct: equality decides.
        let mut idx = NameIndex::new();
        assert_eq!(idx.get_or_insert(7, 0, |_| false), None);
        assert_eq!(idx.get_or_insert(7, 1, |_| false), None);
        assert_eq!(idx.get(7, |id| id == 1), Some(1));
        assert_eq!(idx.get(7, |id| id == 0), Some(0));
    }

    #[test]
    fn heap_bytes_follows_the_formula() {
        let mut i = Interner::new();
        i.intern("ab");
        i.intern("cde");
        // Names (2 + 24) + (3 + 24) twice, two map entries, and the
        // name vector's first growth step of four slots.
        assert_eq!(i.heap_bytes(), 53 * 2 + 2 * 16 + 4 * 24);
    }
}
