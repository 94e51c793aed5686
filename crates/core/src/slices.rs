//! Per-module profile slices: project the profile database onto what
//! each module can observe, so retraining re-keys only the modules
//! whose observable counts actually moved.
//!
//! Before this module existed, every profile-sensitive cache entry was
//! keyed on the *whole* database's serialized contents (its epoch): one
//! `cmocc --run` retrain invalidated the entire warm tier. The GCC
//! LTO/WHOPR lineage solves this with partition-local profile
//! summaries; we do the same at module granularity (§6.2).
//!
//! A module's **scope** is the set of routine names whose profile data
//! can influence compilation work derived from that module: its own
//! defined routines plus, depending on
//! [`SliceGranularity`], the cross-module inline/clone candidates its
//! call sites couple with (mirroring the `may_couple` predicate the
//! cluster partitioner uses). The scope is computed from structure the
//! IL object already carries — routine names, IL sizes, and per-site
//! callee names — and cached next to the object as a
//! [`ModuleScope`] sidecar so warm builds can re-derive slices without
//! running the front end.
//!
//! The **slice fingerprint** is
//! [`ProfileDb::slice_fingerprint`] over the scope: a 128-bit content
//! hash of the database's projection onto those names. Composed with
//! the source fingerprint it keys the module tier; the vector of slice
//! fingerprints (plus a residual slice covering database routines no
//! module observes — they can still steer coarse selectivity) keys the
//! whole-build tier.
//!
//! Scope precision is a *hit-rate* lever, never a correctness one: IL
//! objects are profile-independent, and the build key covers the union
//! of every slice plus the residual, so an over- or under-coupled
//! scope can only cost recompilation, not wrong bytes.

use cmo_hlo::InlineOptions;
use cmo_ir::{CalleeRef, IlObject};
use cmo_llo::shape_of;
use cmo_naim::{ContentHash, DecodeError, Decoder, Encoder};
use cmo_profile::{write_slice_header, ProfileDb, RoutineProfile, RoutineShape};
use std::collections::HashMap;

/// How wide a module's profile-slice scope reaches
/// (`cmocc --profile-slice-granularity`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SliceGranularity {
    /// Defined routines plus direct inline/clone candidates only —
    /// tightest slices, may re-key a module whose cluster partner's
    /// counts moved only after the build-tier miss recompiles it.
    Module,
    /// Defined routines plus the transitive closure of coupled call
    /// edges (the cluster partitioner's `may_couple` predicate) — the
    /// default: slices align with the clusters HLO actually forms.
    #[default]
    Cluster,
    /// Every routine name in the program — one retrain re-keys
    /// everything, reproducing the pre-slice whole-profile behaviour.
    Whole,
}

impl SliceGranularity {
    /// The `--profile-slice-granularity` spelling of this variant.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SliceGranularity::Module => "module",
            SliceGranularity::Cluster => "cluster",
            SliceGranularity::Whole => "whole",
        }
    }

    /// Parses a `--profile-slice-granularity` value.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic listing the accepted spellings.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "module" => Ok(SliceGranularity::Module),
            "cluster" => Ok(SliceGranularity::Cluster),
            "whole" => Ok(SliceGranularity::Whole),
            other => Err(format!(
                "bad --profile-slice-granularity value: `{other}` (expected module, cluster, or whole)"
            )),
        }
    }
}

/// One routine's scope-relevant structure: enough to mirror the
/// cluster partitioner's coupling predicate and the §6.2 freshness
/// check without the body in hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeRoutine {
    /// The routine's name (object-file linkage name).
    pub name: String,
    /// IL size in instructions (the inline/clone size heuristics).
    pub il_size: u32,
    /// Current structural shape, compared against the database's
    /// recorded shape to detect stale slices.
    pub shape: RoutineShape,
    /// `(call-site id, callee name)` for every call whose callee is
    /// still a by-name reference (pre-link objects carry only those).
    pub callees: Vec<(u32, String)>,
}

/// The scope metadata of one module, derived from its IL object and
/// stored in the cache as a `scope:{fingerprint}` sidecar so warm
/// builds can plan slices before deciding what to recompile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleScope {
    /// The module's name.
    pub module: String,
    /// Scope-relevant structure per defined routine, in object order.
    pub routines: Vec<ScopeRoutine>,
}

impl ModuleScope {
    /// Derives the scope metadata from an IL object.
    #[must_use]
    pub fn of_object(obj: &IlObject) -> ModuleScope {
        let routines = obj
            .routines
            .iter()
            .map(|def| {
                let mut callees = Vec::new();
                for block in &def.body.blocks {
                    for instr in &block.instrs {
                        if let cmo_ir::Instr::Call {
                            callee: CalleeRef::Name(sym),
                            site,
                            ..
                        } = instr
                        {
                            callees.push((site.0, obj.strings.resolve(*sym).to_owned()));
                        }
                    }
                }
                ScopeRoutine {
                    name: obj.strings.resolve(def.name).to_owned(),
                    il_size: u32::try_from(def.body.instr_count()).unwrap_or(u32::MAX),
                    shape: shape_of(&def.body),
                    callees,
                }
            })
            .collect();
        ModuleScope {
            module: obj.module_name.clone(),
            routines,
        }
    }

    /// Serializes the scope for the cache sidecar.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.write_str(&self.module);
        enc.write_usize(self.routines.len());
        for r in &self.routines {
            enc.write_str(&r.name);
            enc.write_u32(r.il_size);
            enc.write_u32(r.shape.n_blocks);
            enc.write_u32(r.shape.n_sites);
            enc.write_u64(r.shape.fingerprint);
            enc.write_usize(r.callees.len());
            for (site, callee) in &r.callees {
                enc.write_u32(*site);
                enc.write_str(callee);
            }
        }
    }

    /// Rebuilds a scope written by [`ModuleScope::encode`].
    ///
    /// # Errors
    ///
    /// Returns a decode error for corrupt input.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let module = dec.read_str()?.to_owned();
        let n = dec.read_usize()?;
        let mut routines = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = dec.read_str()?.to_owned();
            let il_size = dec.read_u32()?;
            let shape = RoutineShape {
                n_blocks: dec.read_u32()?,
                n_sites: dec.read_u32()?,
                fingerprint: dec.read_u64()?,
            };
            let nc = dec.read_usize()?;
            let mut callees = Vec::with_capacity(nc.min(4096));
            for _ in 0..nc {
                let site = dec.read_u32()?;
                callees.push((site, dec.read_str()?.to_owned()));
            }
            routines.push(ScopeRoutine {
                name,
                il_size,
                shape,
                callees,
            });
        }
        Ok(ModuleScope { module, routines })
    }
}

/// One module's planned slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleSlice {
    /// The module's name (for trace events).
    pub module: String,
    /// Routine names in the slice's scope.
    pub routines: u64,
    /// Whether any in-scope routine's recorded shape no longer matches
    /// the current code — the §6.2 [`cmo_profile::Freshness::Stale`] signal. Stale
    /// slices still key deterministically (the source fingerprint
    /// covers the current code, the slice fingerprint the recorded
    /// data), but they are surfaced in the report and trace because
    /// their counts are used with reduced confidence.
    pub stale: bool,
    /// Hex slice fingerprint, composed into cache keys.
    pub fp: String,
}

/// The per-build slice plan: one slice per module plus the residual.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicePlan {
    /// One slice per module, in module order.
    pub slices: Vec<ModuleSlice>,
    /// Hex fingerprint of the database's projection onto routines *no*
    /// module observes. Such routines (from a profile trained on a
    /// different program version) still steer coarse selectivity's
    /// global site ranking, so the whole-build key must cover them.
    pub residual_fp: String,
}

/// Union-find over dense name ids, mirroring the cluster partitioner's
/// merge structure (without its size cap — a superset component can
/// only widen a scope, never corrupt it).
struct NameSets {
    parent: Vec<u32>,
}

impl NameSets {
    fn new(n: usize) -> Self {
        NameSets {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let up = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = up;
            x = up;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }
}

/// Every routine name a plan talks about, numbered densely in first-seen
/// order.
#[derive(Default)]
struct NameTable<'a> {
    ids: HashMap<&'a str, u32>,
    names: Vec<&'a str>,
}

impl<'a> NameTable<'a> {
    fn id(&mut self, name: &'a str) -> u32 {
        let next = self.names.len() as u32;
        *self.ids.entry(name).or_insert_with(|| {
            self.names.push(name);
            next
        })
    }
}

#[cfg(test)]
thread_local! {
    /// [`SlicePlan::compute`] calls on this thread.
    pub(crate) static PLANS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Loop iterations of [`SlicePlan::compute`] on this thread, for
    /// the complexity guard.
    static STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts `n` loop iterations (test builds only).
#[inline]
fn step(n: usize) {
    #[cfg(test)]
    STEPS.with(|s| s.set(s.get() + n as u64));
    #[cfg(not(test))]
    let _ = n;
}

impl SlicePlan {
    /// Plans the slices for one build: mirrors the cluster
    /// partitioner's `may_couple` predicate over by-name call edges,
    /// closes each module's scope accordingly, and fingerprints every
    /// scope's database projection.
    ///
    /// `scopes` must be in module order (parallel to the objects /
    /// fingerprints the caller keys with); the plan's slices come back
    /// in the same order. The selectivity `targets` refinement is
    /// deliberately ignored — it is itself profile-derived, and a
    /// superset coupling only widens scopes.
    ///
    /// Everything runs on dense name ids: names are interned and ranked
    /// (sorted) once, the database is joined against the ranking in
    /// one merge pass that also encodes each routine's slice record
    /// once, each coupling component's member list is built once (in
    /// rank order, so it is already sorted), and a module's slice is
    /// the slice header plus its members' records concatenated in rank
    /// order — byte for byte what [`ProfileDb::slice_bytes`] produces
    /// for the same name set, so the fingerprints are those of the
    /// name-keyed implementation this replaced.
    #[must_use]
    pub fn compute(
        scopes: &[ModuleScope],
        db: &ProfileDb,
        granularity: SliceGranularity,
        inline: &InlineOptions,
    ) -> SlicePlan {
        #[cfg(test)]
        PLANS.with(|p| p.set(p.get() + 1));

        // Ids for every name we may talk about; the first definition
        // of a name supplies its size.
        let mut table = NameTable::default();
        let mut defs: Vec<u32> = Vec::new();
        let mut callees: Vec<u32> = Vec::new();
        let mut defined_il: Vec<Option<u32>> = Vec::new();
        for scope in scopes {
            for r in &scope.routines {
                let id = table.id(&r.name);
                defs.push(id);
                if defined_il.len() <= id as usize {
                    defined_il.push(Some(r.il_size));
                }
                step(1);
            }
        }
        for scope in scopes {
            for r in &scope.routines {
                for (_, callee) in &r.callees {
                    callees.push(table.id(callee));
                    step(1);
                }
            }
        }
        let names = table.names;
        let n = names.len();
        defined_il.resize(n, None);

        // Rank: ids in name order — the order slice records appear in.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&id| names[id as usize]);
        let mut rank = vec![0u32; n];
        for (at, &id) in order.iter().enumerate() {
            rank[id as usize] = at as u32;
        }
        step(n);

        // Join the database (name order) against the ranking, encoding
        // each known routine's slice record once.
        let mut profile: Vec<Option<&RoutineProfile>> = vec![None; n];
        let mut record: Vec<std::ops::Range<usize>> = vec![0..0; n];
        let mut records = Encoder::with_capacity(64 * n);
        let mut db_ids: Vec<Option<u32>> = Vec::new();
        let mut ranked = order.iter().copied().peekable();
        for (name, p) in db.iter() {
            while ranked.next_if(|&id| names[id as usize] < name).is_some() {}
            let id = ranked.next_if(|&id| names[id as usize] == name);
            if let Some(id) = id {
                let start = records.len();
                p.write_slice_record(name, &mut records);
                record[id as usize] = start..records.len();
                profile[id as usize] = Some(p);
            }
            db_ids.push(id);
            step(1);
        }
        let records = records.into_bytes();

        // The cluster partitioner only considers cloning when profiles
        // are present, with `min_callee_il` raised to the hot-inline
        // bound; mirror that construction (slices exist only when a
        // profile is attached).
        let clone_min_count = cmo_hlo::CloneOptions::default().min_count;
        let may_couple = |caller: u32, site: u32, callee_il: u32| {
            let count = profile[caller as usize]
                .and_then(|p| p.sites.get(site as usize).copied())
                .unwrap_or(0);
            let inline_couples = callee_il <= inline.small_callee_il
                || (count >= inline.hot_site_min_count && callee_il <= inline.hot_callee_il);
            let clone_couples = count >= clone_min_count && callee_il > inline.hot_callee_il;
            inline_couples || clone_couples
        };
        // Calls `edge(caller, callee)` for every coupled call edge of
        // the routines `defs[at..]` covers, in scope order. An extern
        // with no body anywhere has nothing to inline and never couples.
        let coupled_edges = |scope: &ModuleScope,
                             def_at: usize,
                             callee_at: &mut usize,
                             edge: &mut dyn FnMut(u32, u32)| {
            for (r, &caller) in scope.routines.iter().zip(&defs[def_at..]) {
                for (site, _) in &r.callees {
                    let callee = callees[*callee_at];
                    *callee_at += 1;
                    if let Some(callee_il) = defined_il[callee as usize] {
                        if may_couple(caller, *site, callee_il) {
                            edge(caller, callee);
                        }
                    }
                    step(1);
                }
            }
        };

        // Coupled-name components, each member list in rank order
        // (Cluster only; Module keeps the direct edges, Whole ignores
        // the graph entirely).
        let mut sets = NameSets::new(n);
        let mut members: Vec<Vec<u32>> = Vec::new();
        if granularity == SliceGranularity::Cluster {
            let (mut def_at, mut callee_at) = (0, 0);
            for scope in scopes {
                coupled_edges(scope, def_at, &mut callee_at, &mut |a, b| sets.union(a, b));
                def_at += scope.routines.len();
            }
            members.resize(n, Vec::new());
            for &id in &order {
                members[sets.find(id) as usize].push(id);
                step(1);
            }
        }

        // One slice per module: its ids in rank order, then the header
        // and the present members' records. Modules whose scope closes
        // over the same components share one slice.
        let mut in_union = vec![false; n];
        let mut bytes: Vec<u8> = Vec::new();
        let mut fingerprint = |ids: &[u32]| -> String {
            let present = ids
                .iter()
                .filter(|&&id| profile[id as usize].is_some())
                .count();
            let mut header = Encoder::with_capacity(16);
            write_slice_header(&mut header, present);
            bytes.clear();
            bytes.extend_from_slice(&header.into_bytes());
            for &id in ids {
                in_union[id as usize] = true;
                bytes.extend_from_slice(&records[record[id as usize].clone()]);
            }
            step(ids.len());
            ContentHash::of(&bytes).to_hex()
        };
        let mut by_components: HashMap<Vec<u32>, (u64, String)> = HashMap::new();
        let mut whole: Option<String> = None;
        let mut slices = Vec::with_capacity(scopes.len());
        let (mut def_at, mut callee_at) = (0, 0);
        for scope in scopes {
            let own = &defs[def_at..def_at + scope.routines.len()];
            let (routines, fp) = match granularity {
                SliceGranularity::Whole => (
                    n as u64,
                    whole.get_or_insert_with(|| fingerprint(&order)).clone(),
                ),
                SliceGranularity::Module => {
                    let mut ids = own.to_vec();
                    coupled_edges(scope, def_at, &mut callee_at, &mut |_, callee| {
                        ids.push(callee);
                    });
                    ids.sort_unstable_by_key(|&id| rank[id as usize]);
                    ids.dedup();
                    (ids.len() as u64, fingerprint(&ids))
                }
                SliceGranularity::Cluster => {
                    let mut roots: Vec<u32> = own.iter().map(|&id| sets.find(id)).collect();
                    roots.sort_unstable();
                    roots.dedup();
                    by_components
                        .entry(roots)
                        .or_insert_with_key(|roots| match roots.as_slice() {
                            [root] => {
                                let ids = &members[*root as usize];
                                (ids.len() as u64, fingerprint(ids))
                            }
                            roots => {
                                let mut ids: Vec<u32> = roots
                                    .iter()
                                    .flat_map(|&root| members[root as usize].iter().copied())
                                    .collect();
                                ids.sort_unstable_by_key(|&id| rank[id as usize]);
                                (ids.len() as u64, fingerprint(&ids))
                            }
                        })
                        .clone()
                }
            };
            // A module's own routines are in its scope at every
            // granularity, so staleness is theirs alone to report.
            let stale = scope
                .routines
                .iter()
                .zip(own)
                .any(|(r, &id)| profile[id as usize].is_some_and(|p| p.shape != r.shape));
            step(own.len());
            slices.push(ModuleSlice {
                module: scope.module.clone(),
                routines,
                stale,
                fp,
            });
            def_at += scope.routines.len();
        }

        // The residual: database routines no slice observed, in name
        // order — foreign names, and known names outside every scope.
        let residual: Vec<(&str, &RoutineProfile)> = db
            .iter()
            .zip(&db_ids)
            .filter(|(_, id)| !id.is_some_and(|id| in_union[id as usize]))
            .map(|(entry, _)| entry)
            .collect();
        let mut enc = Encoder::with_capacity(64 + residual.len() * 48);
        write_slice_header(&mut enc, residual.len());
        for (name, p) in residual {
            p.write_slice_record(name, &mut enc);
        }
        step(db_ids.len());
        SlicePlan {
            slices,
            residual_fp: ContentHash::of(&enc.into_bytes()).to_hex(),
        }
    }

    /// The composed module-tier fingerprint: source fingerprint plus
    /// this module's slice fingerprint.
    #[must_use]
    pub fn composed_fp(&self, i: usize, source_fp: &str) -> String {
        format!("{source_fp}+p{}", self.slices[i].fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmo_profile::{Freshness, ProbeKey, ProfileDb};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Union-find over scope-name indices, mirroring the cluster
    /// partitioner's merge structure (without its size cap — a superset
    /// component can only widen a scope, never corrupt it).
    struct RefNameSets {
        parent: Vec<usize>,
    }

    impl RefNameSets {
        fn new(n: usize) -> Self {
            RefNameSets {
                parent: (0..n).collect(),
            }
        }

        fn find(&mut self, mut x: usize) -> usize {
            while self.parent[x] != x {
                self.parent[x] = self.parent[self.parent[x]];
                x = self.parent[x];
            }
            x
        }

        fn union(&mut self, a: usize, b: usize) {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra != rb {
                self.parent[ra.max(rb)] = ra.min(rb);
            }
        }
    }

    /// The name-keyed `SlicePlan::compute` this module shipped with before
    /// the dense-id rewrite, kept verbatim as the reference the rewrite
    /// must match field for field.
    fn ref_compute(
        scopes: &[ModuleScope],
        db: &ProfileDb,
        granularity: SliceGranularity,
        inline: &InlineOptions,
    ) -> SlicePlan {
        // Index every name we may talk about: defined routines first
        // (they carry sizes), then any callee names left over.
        let mut index: BTreeMap<&str, usize> = BTreeMap::new();
        let mut defined_il: BTreeMap<&str, u32> = BTreeMap::new();
        for scope in scopes {
            for r in &scope.routines {
                let next = index.len();
                index.entry(&r.name).or_insert(next);
                defined_il.entry(&r.name).or_insert(r.il_size);
            }
        }
        for scope in scopes {
            for r in &scope.routines {
                for (_, callee) in &r.callees {
                    let next = index.len();
                    index.entry(callee).or_insert(next);
                }
            }
        }
        // The cluster partitioner only considers cloning when profiles
        // are present, with `min_callee_il` raised to the hot-inline
        // bound; mirror that construction (slices exist only when a
        // profile is attached).
        let clone_min_count = cmo_hlo::CloneOptions::default().min_count;
        let may_couple = |caller: &str, site: u32, callee_il: u32| {
            let count = db.site_count(caller, site).unwrap_or(0);
            let inline_couples = callee_il <= inline.small_callee_il
                || (count >= inline.hot_site_min_count && callee_il <= inline.hot_callee_il);
            let clone_couples = count >= clone_min_count && callee_il > inline.hot_callee_il;
            inline_couples || clone_couples
        };
        // Coupled-name components (used by Cluster; Module keeps only
        // the direct edges; Whole ignores the graph entirely).
        let mut sets = RefNameSets::new(index.len());
        if granularity == SliceGranularity::Cluster {
            for scope in scopes {
                for r in &scope.routines {
                    for (site, callee) in &r.callees {
                        let Some(&callee_il) = defined_il.get(callee.as_str()) else {
                            continue; // extern with no body: nothing to inline
                        };
                        if may_couple(&r.name, *site, callee_il) {
                            sets.union(index[r.name.as_str()], index[callee.as_str()]);
                        }
                    }
                }
            }
        }
        let mut members: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
        if granularity == SliceGranularity::Cluster {
            for (&name, &i) in &index {
                members.entry(sets.find(i)).or_default().push(name);
            }
        }
        let all_names: BTreeSet<&str> = index.keys().copied().collect();

        let mut union: BTreeSet<&str> = BTreeSet::new();
        let mut slices = Vec::with_capacity(scopes.len());
        for scope in scopes {
            let mut names: BTreeSet<&str> = BTreeSet::new();
            match granularity {
                SliceGranularity::Whole => {
                    names.extend(all_names.iter().copied());
                }
                SliceGranularity::Module => {
                    for r in &scope.routines {
                        names.insert(&r.name);
                        for (site, callee) in &r.callees {
                            if let Some(&callee_il) = defined_il.get(callee.as_str()) {
                                if may_couple(&r.name, *site, callee_il) {
                                    names.insert(callee);
                                }
                            }
                        }
                    }
                }
                SliceGranularity::Cluster => {
                    for r in &scope.routines {
                        names.extend(&members[&sets.find(index[r.name.as_str()])]);
                    }
                }
            }
            let stale = scope.routines.iter().any(|r| {
                names.contains(r.name.as_str()) && db.lookup(&r.name, r.shape).0 == Freshness::Stale
            });
            union.extend(names.iter().copied());
            slices.push(ModuleSlice {
                module: scope.module.clone(),
                routines: names.len() as u64,
                stale,
                fp: db.slice_fingerprint(names).to_hex(),
            });
        }
        let residual: Vec<&str> = db
            .iter()
            .map(|(name, _)| name)
            .filter(|name| !union.contains(name))
            .collect();
        SlicePlan {
            slices,
            residual_fp: db.slice_fingerprint(residual).to_hex(),
        }
    }

    const GRANULARITIES: [SliceGranularity; 3] = [
        SliceGranularity::Module,
        SliceGranularity::Cluster,
        SliceGranularity::Whole,
    ];

    fn assert_matches_reference(scopes: &[ModuleScope], db: &ProfileDb, inline: &InlineOptions) {
        for granularity in GRANULARITIES {
            assert_eq!(
                SlicePlan::compute(scopes, db, granularity, inline),
                ref_compute(scopes, db, granularity, inline),
                "{granularity:?}"
            );
        }
    }

    #[test]
    fn dense_plan_equals_the_reference_on_mcad1() {
        let app = cmo_synth::generate(&cmo_synth::mcad_preset("mcad1", 0.125));
        let mut cc = crate::Compiler::new();
        cc.add_sources(&app.modules, 1).expect("compiles");
        let train = cc
            .build(&crate::BuildOptions::instrumented())
            .expect("train build");
        let mut db = train.run_for_profile(&app.train_input).expect("train run");
        let scopes: Vec<ModuleScope> = app
            .modules
            .iter()
            .map(|(module, source)| {
                ModuleScope::of_object(
                    &cmo_frontend::compile_module(module, source).expect("compiles"),
                )
            })
            .collect();
        let inline = InlineOptions::default();
        assert_matches_reference(&scopes, &db, &inline);
        let plan = SlicePlan::compute(&scopes, &db, SliceGranularity::Cluster, &inline);
        assert!(
            plan.slices.iter().any(|s| s.routines > 1),
            "mcad1 couples routines across modules"
        );
        // A retrain against changed code (one stale routine) and a
        // routine from another program version (residual).
        let stale = &scopes[0].routines[0];
        db.record(
            &[(ProbeKey::block(&stale.name, 0), 77)],
            &[(
                stale.name.clone(),
                RoutineShape {
                    n_blocks: stale.shape.n_blocks + 1,
                    ..stale.shape
                },
            )],
        );
        db.record(
            &[(ProbeKey::site("ghost", 0), 9_999)],
            &[("ghost".to_owned(), RoutineShape::default())],
        );
        assert_matches_reference(&scopes, &db, &inline);
        assert!(
            SlicePlan::compute(&scopes, &db, SliceGranularity::Cluster, &inline).slices[0].stale
        );
    }

    /// A generated routine: index into the name pool, IL size, whether
    /// the database saw the current shape, and `(site, callee)` edges.
    type GenRoutine = (usize, u32, bool, Vec<(u32, usize)>);

    /// Names `0..DEFINED` may be defined (by several modules at once);
    /// the rest of the pool are externs no module gives a body.
    const DEFINED: usize = 10;
    const POOL: usize = 13;

    fn pool_name(i: usize) -> String {
        if i < DEFINED {
            format!("r{i}")
        } else {
            format!("ext{i}")
        }
    }

    fn scopes_from(modules: &[Vec<GenRoutine>]) -> Vec<ModuleScope> {
        modules
            .iter()
            .enumerate()
            .map(|(m, routines)| ModuleScope {
                module: format!("m{m}"),
                routines: routines
                    .iter()
                    .map(|(name, il_size, _, callees)| ScopeRoutine {
                        name: pool_name(*name),
                        il_size: *il_size,
                        shape: RoutineShape {
                            n_blocks: 2,
                            n_sites: 3,
                            fingerprint: u64::from(*il_size),
                        },
                        callees: callees
                            .iter()
                            .map(|(site, callee)| (*site, pool_name(*callee)))
                            .collect(),
                    })
                    .collect(),
            })
            .collect()
    }

    proptest! {
        /// Generated scope sets: duplicate routine names across (and
        /// within) modules, externs without bodies, hot and cold sites
        /// on both sides of every coupling threshold, stale shapes,
        /// routines the database never saw, and foreign database
        /// routines no module mentions.
        #[test]
        fn dense_plan_equals_the_reference_on_generated_scopes(
            modules in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        0..DEFINED,
                        prop_oneof![Just(5u32), Just(30), Just(100), Just(400)],
                        any::<bool>(),
                        proptest::collection::vec((0u32..3, 0..POOL), 0..4),
                    ),
                    0..4,
                ),
                1..6,
            ),
            counts in proptest::collection::vec(
                (0..POOL + 2, 0u32..3, prop_oneof![Just(0u64), Just(3), Just(1_000), Just(100_000)]),
                0..12,
            ),
        ) {
            let scopes = scopes_from(&modules);
            let mut db = ProfileDb::new();
            for (routine, (_, _, fresh, _)) in scopes
                .iter()
                .flat_map(|s| &s.routines)
                .zip(modules.iter().flatten())
            {
                let shape = RoutineShape {
                    n_blocks: routine.shape.n_blocks + u32::from(!fresh),
                    ..routine.shape
                };
                db.record(&[], &[(routine.name.clone(), shape)]);
            }
            for (name, site, count) in counts {
                // Past the pool: routines of another program version.
                let name = if name < POOL { pool_name(name) } else { format!("ghost{name}") };
                db.record(&[(ProbeKey::site(&name, site), count)], &[]);
            }
            assert_matches_reference(&scopes, &db, &InlineOptions::default());
            assert_matches_reference(&scopes, &ProfileDb::new(), &InlineOptions::default());
        }
    }

    /// Steps `compute` takes over `copies` disjoint copies of one
    /// four-module program (so component sizes stay fixed while the
    /// module count grows).
    fn steps_for(copies: usize, granularity: SliceGranularity) -> u64 {
        let mut scopes = Vec::new();
        let mut db = ProfileDb::new();
        for c in 0..copies {
            for m in 0..4 {
                let routines = (0..6)
                    .map(|r| ScopeRoutine {
                        name: format!("c{c}m{m}r{r}"),
                        il_size: 10 + 40 * r,
                        shape: RoutineShape::default(),
                        callees: (0..3)
                            .map(|s| (s, format!("c{c}m{}r{}", (m + 1) % 4, (r + s) % 6)))
                            .collect(),
                    })
                    .collect::<Vec<_>>();
                for r in &routines {
                    db.record(
                        &[(ProbeKey::site(&r.name, 1), 5_000)],
                        &[(r.name.clone(), r.shape)],
                    );
                }
                scopes.push(ModuleScope {
                    module: format!("c{c}m{m}"),
                    routines,
                });
            }
        }
        let inline = InlineOptions::default();
        let before = STEPS.with(std::cell::Cell::get);
        let plan = SlicePlan::compute(&scopes, &db, granularity, &inline);
        assert_eq!(plan, ref_compute(&scopes, &db, granularity, &inline));
        STEPS.with(std::cell::Cell::get) - before
    }

    #[test]
    fn planning_steps_grow_linearly_with_modules() {
        for granularity in GRANULARITIES {
            let (small, large) = (steps_for(8, granularity), steps_for(32, granularity));
            assert!(
                large <= 5 * small,
                "{granularity:?}: {small} steps for 32 modules, {large} for 128"
            );
        }
    }

    fn scopes_for(sources: &[(&str, &str)]) -> Vec<ModuleScope> {
        sources
            .iter()
            .map(|(module, source)| {
                ModuleScope::of_object(
                    &cmo_frontend::compile_module(module, source).expect("compiles"),
                )
            })
            .collect()
    }

    fn three_modules() -> Vec<ModuleScope> {
        scopes_for(&[
            ("util", "fn inc(x: int) -> int { return x + 1; }"),
            (
                "app",
                r#"
                extern fn inc(x: int) -> int;
                fn main() -> int {
                    var i: int = 0;
                    while (i < 100) { i = inc(i); }
                    return i;
                }
                "#,
            ),
            (
                "leaf",
                r#"
                fn island(x: int) -> int {
                    var a: int = x; a = a + 1; a = a + 2; a = a + 3;
                    a = a + 4; a = a + 5; a = a + 6; a = a + 7;
                    a = a + 8; a = a + 9; a = a + 10; a = a + 11;
                    return a;
                }
                "#,
            ),
        ])
    }

    fn db_training(scopes: &[ModuleScope], extra_island: u64) -> ProfileDb {
        let mut db = ProfileDb::new();
        let shapes: Vec<(String, cmo_profile::RoutineShape)> = scopes
            .iter()
            .flat_map(|s| s.routines.iter().map(|r| (r.name.clone(), r.shape)))
            .collect();
        db.record(
            &[
                (ProbeKey::block("inc", 0), 100),
                (ProbeKey::site("main", 0), 100),
                (ProbeKey::block("island", 0), 7 + extra_island),
            ],
            &shapes,
        );
        db
    }

    #[test]
    fn scope_derivation_matches_between_object_and_sidecar_codec() {
        for scope in three_modules() {
            let mut enc = Encoder::new();
            scope.encode(&mut enc);
            let bytes = enc.into_bytes();
            let back = ModuleScope::decode(&mut Decoder::new(&bytes)).expect("decodes");
            assert_eq!(back, scope);
        }
    }

    #[test]
    fn cluster_scope_couples_hot_cross_module_edges() {
        let scopes = three_modules();
        let db = db_training(&scopes, 0);
        let plan = SlicePlan::compute(
            &scopes,
            &db,
            SliceGranularity::Cluster,
            &InlineOptions::default(),
        );
        // `inc` is tiny: app couples with util, so both observe inc's
        // counts; the island module observes only itself.
        assert!(plan.slices[1].routines >= 2, "app sees inc");
        assert_eq!(plan.slices[2].routines, 1, "island is alone");
        // Perturbing island's counts moves only island's slice.
        let db2 = db_training(&scopes, 1000);
        let plan2 = SlicePlan::compute(
            &scopes,
            &db2,
            SliceGranularity::Cluster,
            &InlineOptions::default(),
        );
        assert_eq!(plan.slices[0].fp, plan2.slices[0].fp);
        assert_eq!(plan.slices[1].fp, plan2.slices[1].fp);
        assert_ne!(plan.slices[2].fp, plan2.slices[2].fp);
        assert_eq!(plan.residual_fp, plan2.residual_fp);
    }

    #[test]
    fn whole_granularity_moves_every_slice_together() {
        let scopes = three_modules();
        let a = db_training(&scopes, 0);
        let b = db_training(&scopes, 1000);
        let pa = SlicePlan::compute(
            &scopes,
            &a,
            SliceGranularity::Whole,
            &InlineOptions::default(),
        );
        let pb = SlicePlan::compute(
            &scopes,
            &b,
            SliceGranularity::Whole,
            &InlineOptions::default(),
        );
        for (sa, sb) in pa.slices.iter().zip(&pb.slices) {
            assert_ne!(sa.fp, sb.fp, "whole granularity re-keys everything");
        }
    }

    #[test]
    fn residual_covers_database_routines_no_module_observes() {
        let scopes = three_modules();
        let mut db = db_training(&scopes, 0);
        let plan = SlicePlan::compute(
            &scopes,
            &db,
            SliceGranularity::Cluster,
            &InlineOptions::default(),
        );
        // A routine from another program version: observable only
        // through the global selectivity ranking, so it must land in
        // the residual.
        db.record(
            &[(ProbeKey::site("ghost", 0), 9_999)],
            &[(
                "ghost".to_owned(),
                cmo_profile::RoutineShape {
                    n_blocks: 1,
                    n_sites: 1,
                    fingerprint: 42,
                },
            )],
        );
        let plan2 = SlicePlan::compute(
            &scopes,
            &db,
            SliceGranularity::Cluster,
            &InlineOptions::default(),
        );
        for (a, b) in plan.slices.iter().zip(&plan2.slices) {
            assert_eq!(a.fp, b.fp, "no module slice observes ghost");
        }
        assert_ne!(plan.residual_fp, plan2.residual_fp);
    }

    #[test]
    fn stale_shape_marks_the_slice() {
        let scopes = three_modules();
        let mut db = ProfileDb::new();
        // Train island under a *different* shape than the current code.
        db.record(
            &[(ProbeKey::block("island", 0), 7)],
            &[(
                "island".to_owned(),
                cmo_profile::RoutineShape {
                    n_blocks: 99,
                    n_sites: 0,
                    fingerprint: 1,
                },
            )],
        );
        let plan = SlicePlan::compute(
            &scopes,
            &db,
            SliceGranularity::Cluster,
            &InlineOptions::default(),
        );
        assert!(plan.slices[2].stale, "shape mismatch ⇒ stale slice");
        assert!(!plan.slices[0].stale);
    }
}
