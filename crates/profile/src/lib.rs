#![warn(missing_docs)]
//! The profile database for profile-based optimization (PBO).
//!
//! When the user compiles with instrumentation (`+I`), counting probes
//! are inserted into every intraprocedural branch and every call (§3).
//! Running the instrumented program generates — or adds to — a profile
//! database, which later compilations consult to drive block layout,
//! inlining heuristics, and selectivity.
//!
//! Profile data is keyed by *names and stable indices*, never by
//! addresses, so the database survives recompilation; §6.2's
//! stale-profile behaviour (benefits "diminish over time" as code
//! diverges) is modeled by shape fingerprints and a fuzzy
//! [`ProfileDb::lookup`] that reports freshness.
//!
//! # Example
//!
//! ```
//! use cmo_profile::{ProbeKey, ProbeKind, ProfileDb, RoutineShape};
//!
//! let mut db = ProfileDb::new();
//! let shape = RoutineShape { n_blocks: 2, n_sites: 1, fingerprint: 77 };
//! db.record(
//!     &[(ProbeKey::block("hot", 0), 1000), (ProbeKey::site("hot", 0), 900)],
//!     &[("hot".to_owned(), shape)],
//! );
//! assert_eq!(db.site_count("hot", 0), Some(900));
//! ```

use cmo_naim::{ContentHash, DecodeError, Decoder, Encoder};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// What a probe counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProbeKind {
    /// Executions of basic block `n` of the routine.
    Block(u32),
    /// Executions of call site `n` of the routine.
    Site(u32),
}

/// Identity of one counter: routine name plus what is counted.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProbeKey {
    /// The containing routine's name.
    pub routine: String,
    /// What is counted.
    pub kind: ProbeKind,
}

impl ProbeKey {
    /// A block-execution probe.
    #[must_use]
    pub fn block(routine: &str, block: u32) -> Self {
        ProbeKey {
            routine: routine.to_owned(),
            kind: ProbeKind::Block(block),
        }
    }

    /// A call-site probe.
    #[must_use]
    pub fn site(routine: &str, site: u32) -> Self {
        ProbeKey {
            routine: routine.to_owned(),
            kind: ProbeKind::Site(site),
        }
    }
}

impl fmt::Display for ProbeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ProbeKind::Block(b) => write!(f, "{}#bb{b}", self.routine),
            ProbeKind::Site(s) => write!(f, "{}#cs{s}", self.routine),
        }
    }
}

/// A structural fingerprint of a routine, recorded at instrumentation
/// time and compared at optimization time to detect stale profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutineShape {
    /// Number of basic blocks.
    pub n_blocks: u32,
    /// Number of call sites.
    pub n_sites: u32,
    /// Deterministic structure hash (e.g. FNV over per-block
    /// instruction counts and successor lists).
    pub fingerprint: u64,
}

/// How well stored profile data matches the current code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Freshness {
    /// Shape matches exactly: counts are trustworthy.
    Fresh,
    /// Counts exist but the routine changed since profiling; they are
    /// used with reduced confidence (§6.2).
    Stale,
    /// No data for this routine.
    Missing,
}

/// Per-routine profile counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoutineProfile {
    /// Block execution counts, indexed by block id at instrumentation
    /// time.
    pub blocks: Vec<u64>,
    /// Call-site execution counts, indexed by call-site id.
    pub sites: Vec<u64>,
    /// Shape at instrumentation time.
    pub shape: RoutineShape,
}

impl RoutineProfile {
    /// Entry count of the routine (executions of block 0).
    #[must_use]
    pub fn entry_count(&self) -> u64 {
        self.blocks.first().copied().unwrap_or(0)
    }

    /// Appends this routine's record: its name, its recorded shape and
    /// its full block/site count vectors.
    fn write_record(&self, name: &str, enc: &mut Encoder) {
        enc.write_str(name);
        enc.write_u32(self.shape.n_blocks);
        enc.write_u32(self.shape.n_sites);
        enc.write_u64(self.shape.fingerprint);
        enc.write_usize(self.blocks.len());
        for &c in &self.blocks {
            enc.write_u64(c);
        }
        enc.write_usize(self.sites.len());
        for &c in &self.sites {
            enc.write_u64(c);
        }
    }
}

/// A deterministic FNV-1a hash, used for shape fingerprints.
#[must_use]
pub fn fnv1a(bytes: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in bytes {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The profile database.
///
/// Keys are routine names (a [`BTreeMap`], so iteration order is
/// deterministic, per the §6.2 reproducibility discipline). Multiple
/// instrumented runs accumulate into the same database.
///
/// The map is shared copy-on-write: build options carry the database
/// by value and are cloned freely, so a clone is a reference count and
/// two handles on one map compare equal without walking it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileDb {
    routines: Arc<BTreeMap<String, RoutineProfile>>,
    runs: u32,
}

impl ProfileDb {
    /// An empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instrumented runs accumulated.
    #[must_use]
    pub fn runs(&self) -> u32 {
        self.runs
    }

    /// Returns `true` if no run has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routines.is_empty()
    }

    /// Records the counters of one instrumented run, adding to any
    /// existing data ("a profile database is generated, or added to, if
    /// data from an earlier run already exists", §3).
    ///
    /// `shapes` carries the instrumentation-time shape of each routine.
    pub fn record(&mut self, counts: &[(ProbeKey, u64)], shapes: &[(String, RoutineShape)]) {
        self.runs += 1;
        let routines = Arc::make_mut(&mut self.routines);
        for (name, shape) in shapes {
            let entry = routines.entry(name.clone()).or_default();
            if entry.shape != *shape {
                // The code changed since the last run: restart counts
                // for this routine at the new shape.
                *entry = RoutineProfile::default();
            }
            entry.shape = *shape;
            entry
                .blocks
                .resize(entry.blocks.len().max(shape.n_blocks as usize), 0);
            entry
                .sites
                .resize(entry.sites.len().max(shape.n_sites as usize), 0);
        }
        for (key, count) in counts {
            let entry = routines.entry(key.routine.clone()).or_default();
            match key.kind {
                ProbeKind::Block(b) => {
                    let i = b as usize;
                    if entry.blocks.len() <= i {
                        entry.blocks.resize(i + 1, 0);
                    }
                    entry.blocks[i] = entry.blocks[i].saturating_add(*count);
                }
                ProbeKind::Site(s) => {
                    let i = s as usize;
                    if entry.sites.len() <= i {
                        entry.sites.resize(i + 1, 0);
                    }
                    entry.sites[i] = entry.sites[i].saturating_add(*count);
                }
            }
        }
    }

    /// Looks up profile data for `routine` given its *current* shape,
    /// reporting freshness. Stale data (shape mismatch) is still
    /// returned — consumers decide how much to trust it — except that
    /// counts beyond the current shape are clipped.
    #[must_use]
    pub fn lookup(
        &self,
        routine: &str,
        current: RoutineShape,
    ) -> (Freshness, Option<&RoutineProfile>) {
        match self.routines.get(routine) {
            None => (Freshness::Missing, None),
            Some(p) if p.shape == current => (Freshness::Fresh, Some(p)),
            Some(p) => (Freshness::Stale, Some(p)),
        }
    }

    /// Raw profile entry for `routine`.
    #[must_use]
    pub fn routine(&self, routine: &str) -> Option<&RoutineProfile> {
        self.routines.get(routine)
    }

    /// Block-execution count.
    #[must_use]
    pub fn block_count(&self, routine: &str, block: u32) -> Option<u64> {
        self.routines
            .get(routine)
            .and_then(|p| p.blocks.get(block as usize).copied())
    }

    /// Call-site execution count.
    #[must_use]
    pub fn site_count(&self, routine: &str, site: u32) -> Option<u64> {
        self.routines
            .get(routine)
            .and_then(|p| p.sites.get(site as usize).copied())
    }

    /// Entry count (block 0 executions) of `routine`.
    #[must_use]
    pub fn entry_count(&self, routine: &str) -> u64 {
        self.routines
            .get(routine)
            .map(RoutineProfile::entry_count)
            .unwrap_or(0)
    }

    /// Every call site in the database with its count, ordered by
    /// descending count then by name/site for determinism. This is the
    /// ranking coarse-grained selectivity consumes (§5).
    #[must_use]
    pub fn ranked_sites(&self) -> Vec<(String, u32, u64)> {
        let mut v: Vec<(String, u32, u64)> = Vec::new();
        for (name, p) in self.routines.iter() {
            for (i, &c) in p.sites.iter().enumerate() {
                v.push((name.clone(), i as u32, c));
            }
        }
        v.sort_by(|a, b| {
            b.2.cmp(&a.2)
                .then_with(|| a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
        });
        v
    }

    /// Merges another database into this one (e.g. profiles gathered on
    /// several machines).
    pub fn merge(&mut self, other: &ProfileDb) {
        self.runs += other.runs;
        let routines = Arc::make_mut(&mut self.routines);
        for (name, p) in other.routines.iter() {
            let entry = routines.entry(name.clone()).or_default();
            if entry.blocks.is_empty() && entry.sites.is_empty() {
                *entry = p.clone();
                continue;
            }
            if entry.shape != p.shape {
                // Keep whichever side has more runs behind it — here,
                // prefer the incoming data (assumed newer).
                *entry = p.clone();
                continue;
            }
            for (a, b) in entry.blocks.iter_mut().zip(&p.blocks) {
                *a = a.saturating_add(*b);
            }
            for (a, b) in entry.sites.iter_mut().zip(&p.sites) {
                *a = a.saturating_add(*b);
            }
        }
    }

    /// Serializes the database.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(256);
        enc.write_u32(self.runs);
        self.write_routines(&mut enc);
        enc.into_bytes()
    }

    /// Appends the routine count, then every routine's record in name
    /// order.
    fn write_routines(&self, enc: &mut Encoder) {
        enc.write_usize(self.routines.len());
        for (name, p) in self.routines.iter() {
            p.write_record(name, enc);
        }
    }

    /// 128-bit content fingerprint of everything a build reads from the
    /// database: each routine's name, recorded shape and block/site
    /// counts, in name order.
    ///
    /// The run counter is deliberately excluded — no compiler stage
    /// reads it, so a retrain that reproduces identical counts must
    /// fingerprint identically. Any count or shape change moves it.
    #[must_use]
    pub fn fingerprint(&self) -> ContentHash {
        let mut enc = Encoder::with_capacity(64 + self.routines.len() * 48);
        self.write_routines(&mut enc);
        ContentHash::of(&enc.into_bytes())
    }

    /// Deserializes a database written by [`ProfileDb::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a decode error for corrupt input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let runs = dec.read_u32()?;
        let n = dec.read_usize()?;
        let mut routines = BTreeMap::new();
        for _ in 0..n {
            let name = dec.read_str()?.to_owned();
            let shape = RoutineShape {
                n_blocks: dec.read_u32()?,
                n_sites: dec.read_u32()?,
                fingerprint: dec.read_u64()?,
            };
            let nb = dec.read_usize()?;
            let mut blocks = Vec::with_capacity(nb.min(1 << 20));
            for _ in 0..nb {
                blocks.push(dec.read_u64()?);
            }
            let ns = dec.read_usize()?;
            let mut sites = Vec::with_capacity(ns.min(1 << 20));
            for _ in 0..ns {
                sites.push(dec.read_u64()?);
            }
            routines.insert(
                name,
                RoutineProfile {
                    blocks,
                    sites,
                    shape,
                },
            );
        }
        Ok(ProfileDb {
            routines: Arc::new(routines),
            runs,
        })
    }

    /// Iterates over `(routine name, profile)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RoutineProfile)> {
        self.routines.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(b: u32, s: u32) -> RoutineShape {
        RoutineShape {
            n_blocks: b,
            n_sites: s,
            fingerprint: fnv1a([u64::from(b), u64::from(s)]),
        }
    }

    fn one_run(db: &mut ProfileDb) {
        db.record(
            &[
                (ProbeKey::block("f", 0), 10),
                (ProbeKey::block("f", 1), 7),
                (ProbeKey::site("f", 0), 7),
                (ProbeKey::block("g", 0), 100),
            ],
            &[("f".to_owned(), shape(2, 1)), ("g".to_owned(), shape(1, 0))],
        );
    }

    #[test]
    fn counts_accumulate_across_runs() {
        let mut db = ProfileDb::new();
        one_run(&mut db);
        one_run(&mut db);
        assert_eq!(db.runs(), 2);
        assert_eq!(db.block_count("f", 0), Some(20));
        assert_eq!(db.site_count("f", 0), Some(14));
        assert_eq!(db.entry_count("g"), 200);
    }

    #[test]
    fn shape_change_resets_counts() {
        let mut db = ProfileDb::new();
        one_run(&mut db);
        // f changed shape: 3 blocks now.
        db.record(
            &[(ProbeKey::block("f", 0), 5)],
            &[("f".to_owned(), shape(3, 1))],
        );
        assert_eq!(db.block_count("f", 0), Some(5));
        let (fresh, _) = db.lookup("f", shape(3, 1));
        assert_eq!(fresh, Freshness::Fresh);
        let (stale, data) = db.lookup("f", shape(4, 1));
        assert_eq!(stale, Freshness::Stale);
        assert!(data.is_some());
        assert_eq!(db.lookup("nope", shape(1, 0)).0, Freshness::Missing);
    }

    #[test]
    fn ranked_sites_order_is_deterministic() {
        let mut db = ProfileDb::new();
        db.record(
            &[
                (ProbeKey::site("a", 0), 50),
                (ProbeKey::site("b", 0), 50),
                (ProbeKey::site("b", 1), 500),
            ],
            &[("a".to_owned(), shape(1, 1)), ("b".to_owned(), shape(1, 2))],
        );
        let ranked = db.ranked_sites();
        assert_eq!(ranked[0], ("b".to_owned(), 1, 500));
        // Ties break by name.
        assert_eq!(ranked[1].0, "a");
        assert_eq!(ranked[2].0, "b");
    }

    #[test]
    fn round_trips_through_bytes() {
        let mut db = ProfileDb::new();
        one_run(&mut db);
        let bytes = db.to_bytes();
        let back = ProfileDb::from_bytes(&bytes).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn corrupt_bytes_error() {
        let mut db = ProfileDb::new();
        one_run(&mut db);
        let mut bytes = db.to_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(ProfileDb::from_bytes(&bytes).is_err());
    }

    #[test]
    fn merge_adds_matching_shapes() {
        let mut a = ProfileDb::new();
        one_run(&mut a);
        let mut b = ProfileDb::new();
        one_run(&mut b);
        a.merge(&b);
        assert_eq!(a.block_count("f", 0), Some(20));
        assert_eq!(a.runs(), 2);
    }

    #[test]
    fn merge_prefers_incoming_on_shape_conflict() {
        let mut a = ProfileDb::new();
        one_run(&mut a);
        let mut b = ProfileDb::new();
        b.record(
            &[(ProbeKey::block("f", 0), 3)],
            &[("f".to_owned(), shape(5, 2))],
        );
        a.merge(&b);
        assert_eq!(a.block_count("f", 0), Some(3));
        assert_eq!(a.routine("f").unwrap().shape, shape(5, 2));
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a([1, 2, 3]), fnv1a([1, 2, 3]));
        assert_ne!(fnv1a([1, 2, 3]), fnv1a([1, 2, 4]));
        assert_ne!(fnv1a([]), fnv1a([0]));
    }

    #[test]
    fn probe_key_display() {
        assert_eq!(ProbeKey::block("f", 2).to_string(), "f#bb2");
        assert_eq!(ProbeKey::site("g", 0).to_string(), "g#cs0");
    }

    #[test]
    fn fingerprint_excludes_run_counter_and_follows_every_count() {
        let mut a = ProfileDb::new();
        one_run(&mut a);
        // The same counts over more runs: only `runs` differs.
        let mut b = a.clone();
        b.record(&[], &[]);
        assert_ne!(a.runs(), b.runs());
        assert_ne!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Any count moves it: one more block execution of g ...
        let mut c = a.clone();
        c.record(&[(ProbeKey::block("g", 0), 1)], &[]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // ... one more call through f's site ...
        let mut d = a.clone();
        d.record(&[(ProbeKey::site("f", 0), 1)], &[]);
        assert_ne!(a.fingerprint(), d.fingerprint());
        // ... and a routine instrumented but never run: all-zero counts
        // are data ("cold"), not absence.
        let mut e = a.clone();
        e.record(&[], &[("h".to_owned(), shape(1, 0))]);
        assert_eq!(e.block_count("h", 0), Some(0));
        assert_ne!(a.fingerprint(), e.fingerprint());
    }

    #[test]
    fn counts_all_zero_slice_differs_from_absent() {
        let mut zeroed = ProfileDb::new();
        // A routine instrumented but never executed: shape recorded,
        // every counter zero. That is information ("cold"), not absence.
        zeroed.record(&[], &[("f".to_owned(), shape(2, 1))]);
        assert_eq!(zeroed.block_count("f", 0), Some(0));
        assert_eq!(zeroed.lookup("f", shape(2, 1)).0, Freshness::Fresh);
        let absent = ProfileDb::new();
        assert_eq!(absent.lookup("f", shape(2, 1)).0, Freshness::Missing);
        assert_ne!(
            zeroed.fingerprint(),
            absent.fingerprint(),
            "all-zero counts must not collide with no data at all"
        );
    }

    #[test]
    fn shape_change_in_database_always_moves_the_fingerprint() {
        let mut a = ProfileDb::new();
        one_run(&mut a);
        let before = a.fingerprint();
        // Retrain against changed code: record() resets the counts at
        // the new shape, and the fingerprint must move even if the raw
        // count values happen to coincide.
        a.record(
            &[
                (ProbeKey::block("f", 0), 10),
                (ProbeKey::block("f", 1), 7),
                (ProbeKey::site("f", 0), 7),
            ],
            &[("f".to_owned(), shape(3, 1))],
        );
        assert_eq!(a.lookup("f", shape(2, 1)).0, Freshness::Stale);
        assert_ne!(a.fingerprint(), before);
        // Equal counts under shapes that differ only in their structure
        // hash.
        let trained = |structure: u64| {
            let mut db = ProfileDb::new();
            db.record(
                &[(ProbeKey::block("f", 0), 10)],
                &[(
                    "f".to_owned(),
                    RoutineShape {
                        fingerprint: structure,
                        ..shape(2, 1)
                    },
                )],
            );
            db
        };
        assert_ne!(trained(1).fingerprint(), trained(2).fingerprint());
    }
}
