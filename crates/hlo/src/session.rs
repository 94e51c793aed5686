//! The HLO optimization session: program state behind the NAIM loader.

use cmo_ir::{
    LinkedUnit, ModuleId, Program, RoutineBody, RoutineId, RoutineSummary, SummaryTable, Transitory,
};
use cmo_naim::{
    Loader, LoaderStats, MemCharge, MemClass, MemorySnapshot, NaimConfig, NaimError, PoolId,
    PoolKind,
};
use cmo_profile::{ProfileDb, RoutineShape};
use cmo_telemetry::Telemetry;
use std::collections::BTreeMap;

/// What [`HloSession::into_parts`] yields: the program, every routine
/// body, every module symbol table, and the maintained per-routine
/// block counts.
pub type SessionParts = (
    Program,
    Vec<RoutineBody>,
    Vec<cmo_ir::ModuleSymbols>,
    Vec<Option<Vec<u64>>>,
);

/// Counters describing HLO activity for one compilation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HloStats {
    /// Inline operations performed.
    pub inlines: u64,
    /// Call sites considered by the inliner.
    pub sites_considered: u64,
    /// Loads of never-stored globals folded to constants.
    pub globals_folded: u64,
    /// Stores to never-read globals removed.
    pub dead_stores_removed: u64,
    /// Routines found unreachable after optimization.
    pub dead_routines: u64,
    /// Specialized clones created for constant arguments.
    pub clones: u64,
}

/// One optimization session over a linked program.
///
/// Owns the always-resident program symbol information and the NAIM
/// loader holding every transitory pool. All body access goes through
/// [`HloSession::body`] / [`HloSession::body_mut`] so the loader can
/// manage residency, and phases call [`HloSession::unload_all`] at
/// their boundaries ("clients simply request that all unneeded pools
/// are unloaded", §4.3). Beside the pools the session keeps one
/// resident [`RoutineSummary`] per routine — call sites and direct
/// global accesses — refreshed by whoever writes a body, so
/// whole-program analyses never load one. The session is `Send`, so
/// the driver may move it between pipeline threads.
#[derive(Debug)]
pub struct HloSession {
    /// The program symbol tables (global objects, always resident).
    pub program: Program,
    loader: Loader<Transitory>,
    routine_pool: Vec<PoolId>,
    symtab_pool: Vec<PoolId>,
    /// Resident per-routine summaries (global data): always equal to
    /// `RoutineSummary::of` of the routine's current body.
    summaries: SummaryTable,
    /// Bytes of `summaries` currently charged to `MemClass::Global`.
    summary_bytes: usize,
    /// Maintained block execution counts per routine (derived data;
    /// correlated from the profile db at session start and kept up to
    /// date by transformations).
    counts: Vec<Option<Vec<u64>>>,
    /// Maintained call-site counts per routine (derived data).
    site_counts: Vec<BTreeMap<u32, u64>>,
    pub(crate) stats: HloStats,
    telemetry: Telemetry,
    /// Loader activity absorbed from per-cluster loaders after the
    /// parallel inline/clone fan-out.
    folded_loader: LoaderStats,
    /// Peak memory absorbed from per-cluster loaders, folded as a
    /// concurrent peak on top of the at-split snapshot.
    folded_peak: MemorySnapshot,
    /// `body` / `body_mut` calls per routine, for the
    /// who-touches-a-body tests.
    #[cfg(test)]
    pub(crate) body_accesses: Vec<u32>,
}

/// Shape of a body as HLO sees it (for profile correlation).
fn shape_of(body: &RoutineBody) -> RoutineShape {
    RoutineShape {
        n_blocks: body.blocks.len() as u32,
        n_sites: body.next_site,
        fingerprint: body.fingerprint(),
    }
}

impl HloSession {
    /// Builds a session from a linked unit, moving every routine body
    /// and module symbol table into NAIM pools and correlating profile
    /// data with the current program structure (§3).
    ///
    /// # Errors
    ///
    /// Returns a NAIM error if the initial read-in exceeds the hard
    /// memory limit (the paper's failed non-selective compiles).
    pub fn new(
        unit: LinkedUnit,
        config: NaimConfig,
        db: Option<&ProfileDb>,
    ) -> Result<Self, NaimError> {
        HloSession::new_with_telemetry(unit, config, db, Telemetry::disabled())
    }

    /// Like [`HloSession::new`], but attaches a telemetry sink: the
    /// loader emits pool-state transition events into it, and HLO
    /// passes emit their decision events through
    /// [`HloSession::telemetry`].
    ///
    /// # Errors
    ///
    /// Returns a NAIM error if the initial read-in exceeds the hard
    /// memory limit.
    pub fn new_with_telemetry(
        unit: LinkedUnit,
        config: NaimConfig,
        db: Option<&ProfileDb>,
        telemetry: Telemetry,
    ) -> Result<Self, NaimError> {
        let LinkedUnit {
            program,
            bodies,
            symtabs,
        } = unit;
        let mut loader = Loader::new(config);
        loader.set_telemetry(telemetry.clone());
        loader.account(MemClass::Global, program.heap_bytes() as isize);

        let mut counts = Vec::with_capacity(bodies.len());
        let mut site_counts = Vec::with_capacity(bodies.len());
        let mut routine_pool = Vec::with_capacity(bodies.len());
        let mut summaries = SummaryTable::default();
        for (i, body) in bodies.iter().enumerate() {
            summaries.push(&RoutineSummary::of(body));
            let rid = RoutineId::from_index(i);
            let name = program.name(program.routine(rid).name);
            let (blocks, sites) = match db.and_then(|db| db.lookup(name, shape_of(body)).1) {
                None => (None, BTreeMap::new()),
                Some(p) => {
                    let mut blocks = p.blocks.clone();
                    blocks.resize(body.blocks.len(), 0);
                    let sites: BTreeMap<u32, u64> = p
                        .sites
                        .iter()
                        .enumerate()
                        .take(body.next_site as usize)
                        .map(|(s, &c)| (s as u32, c))
                        .collect();
                    (Some(blocks), sites)
                }
            };
            counts.push(blocks);
            site_counts.push(sites);
        }
        // Read-in: each module's pools are registered and immediately
        // marked unloadable, so the loader's thresholds govern peak
        // memory from the first module on (§5's read-in pass) instead
        // of everything sitting expanded at once.
        for body in bodies {
            let pool = loader.insert(Transitory::Routine(body), PoolKind::Ir);
            loader.unload(pool)?;
            routine_pool.push(pool);
        }
        let mut symtab_pool = Vec::with_capacity(symtabs.len());
        for st in symtabs {
            let pool = loader.insert(Transitory::SymTab(st), PoolKind::SymTab);
            loader.unload(pool)?;
            symtab_pool.push(pool);
        }
        // Derived-data accounting for the maintained counts.
        let derived: usize = counts
            .iter()
            .map(|c| c.as_ref().map_or(0, |v| v.len() * 8 + 24))
            .sum();
        loader.account(MemClass::Derived, derived as isize);
        summaries.shrink_to_fit();
        let summary_bytes = summaries.heap_bytes();
        loader.account(MemClass::Global, summary_bytes as isize);
        loader.enforce()?;
        Ok(HloSession {
            program,
            loader,
            #[cfg(test)]
            body_accesses: vec![0; routine_pool.len()],
            routine_pool,
            symtab_pool,
            summaries,
            summary_bytes,
            counts,
            site_counts,
            stats: HloStats::default(),
            telemetry,
            folded_loader: LoaderStats::default(),
            folded_peak: MemorySnapshot::default(),
        })
    }

    /// The telemetry sink shared with this session's loader. Disabled
    /// (a no-op handle) unless the session was built with
    /// [`HloSession::new_with_telemetry`].
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Number of routines in the program.
    #[must_use]
    pub fn n_routines(&self) -> usize {
        self.routine_pool.len()
    }

    /// Shared access to a routine body (loads it if necessary).
    ///
    /// # Errors
    ///
    /// Propagates loader failures.
    pub fn body(&mut self, rid: RoutineId) -> Result<&RoutineBody, NaimError> {
        #[cfg(test)]
        self.count_access(rid);
        let pool = self.routine_pool[rid.index()];
        Ok(self.loader.get(pool)?.routine())
    }

    /// Exclusive access to a routine body.
    ///
    /// # Errors
    ///
    /// Propagates loader failures.
    pub fn body_mut(&mut self, rid: RoutineId) -> Result<&mut RoutineBody, NaimError> {
        #[cfg(test)]
        self.count_access(rid);
        let pool = self.routine_pool[rid.index()];
        Ok(self.loader.get_mut(pool)?.routine_mut())
    }

    /// Shared access to a module symbol table.
    ///
    /// # Errors
    ///
    /// Propagates loader failures.
    pub fn symtab(&mut self, m: ModuleId) -> Result<&cmo_ir::ModuleSymbols, NaimError> {
        let pool = self.symtab_pool[m.index()];
        Ok(self.loader.get(pool)?.symtab())
    }

    /// Declares a routine body unneeded for now.
    ///
    /// # Errors
    ///
    /// Propagates loader failures (hard out-of-memory).
    pub fn unload(&mut self, rid: RoutineId) -> Result<(), NaimError> {
        self.loader.unload(self.routine_pool[rid.index()])
    }

    /// Declares everything unneeded (phase boundary).
    ///
    /// # Errors
    ///
    /// Propagates loader failures (hard out-of-memory).
    pub fn unload_all(&mut self) -> Result<(), NaimError> {
        self.loader.unload_all()
    }

    /// Current memory snapshot (the Figure 4/5 measurements). Peaks
    /// include any folded per-cluster loader peaks, so the figures see
    /// the true high-water mark of the partitioned pipeline.
    #[must_use]
    pub fn memory(&self) -> MemorySnapshot {
        let mut snap = self.loader.memory();
        for k in 0..snap.peak.len() {
            snap.peak[k] = snap.peak[k].max(self.folded_peak.peak[k]);
        }
        snap.peak_total = snap.peak_total.max(self.folded_peak.peak_total);
        snap
    }

    /// Loader activity counters, including activity absorbed from
    /// per-cluster loaders.
    #[must_use]
    pub fn loader_stats(&self) -> LoaderStats {
        let mut stats = self.loader.stats();
        stats.absorb(&self.folded_loader);
        stats
    }

    /// The NAIM configuration this session's loader runs under, for
    /// deriving per-cluster loaders with the same thresholds.
    #[must_use]
    pub fn loader_config(&self) -> NaimConfig {
        self.loader.config().clone()
    }

    /// Folds one finished cluster's loader activity into the session:
    /// counters are summed, and the cluster's peak is treated as
    /// concurrent with the `at_split` snapshot taken when the fan-out
    /// began.
    pub(crate) fn absorb_cluster_loader(
        &mut self,
        at_split: &MemorySnapshot,
        stats: &LoaderStats,
        peak: &MemorySnapshot,
    ) {
        self.folded_loader.absorb(stats);
        self.folded_peak.fold_concurrent_peak(at_split, peak);
    }

    /// HLO transformation counters.
    #[must_use]
    pub fn stats(&self) -> HloStats {
        self.stats
    }

    /// Records the number of routines found dead after optimization.
    pub fn record_dead_routines(&mut self, n: u64) {
        self.stats.dead_routines = n;
    }

    /// Charges an analysis result's bytes as derived data until the
    /// returned guard — kept inside the result — is dropped.
    pub(crate) fn charge_derived(&self, bytes: usize) -> MemCharge {
        self.loader.charge(MemClass::Derived, bytes)
    }

    /// The resident per-routine summaries.
    pub(crate) fn summaries(&self) -> &SummaryTable {
        &self.summaries
    }

    /// Records the summary of a body the caller has just written. Every
    /// writer of a routine body must call this with
    /// `RoutineSummary::of` of the body it holds.
    pub(crate) fn set_summary(&mut self, rid: RoutineId, summary: &RoutineSummary) {
        self.summaries.set(rid, summary);
    }

    /// Brings the `Global` charge for the summaries up to date after a
    /// batch of [`HloSession::set_summary`] / clone registrations.
    pub(crate) fn settle_summaries(&mut self) {
        self.summaries.shrink_to_fit();
        let now = self.summaries.heap_bytes();
        self.loader
            .account(MemClass::Global, now as isize - self.summary_bytes as isize);
        self.summary_bytes = now;
    }

    /// Maintained block counts for `rid`, if profile data existed.
    #[must_use]
    pub fn block_counts(&self, rid: RoutineId) -> Option<&[u64]> {
        self.counts[rid.index()].as_deref()
    }

    /// Maintained site count for a call site of `rid`.
    #[must_use]
    pub fn site_count(&self, rid: RoutineId, site: u32) -> u64 {
        self.site_counts[rid.index()]
            .get(&site)
            .copied()
            .unwrap_or(0)
    }

    pub(crate) fn site_counts_of(&self, rid: RoutineId) -> &BTreeMap<u32, u64> {
        &self.site_counts[rid.index()]
    }

    /// Replaces the maintained counts of `rid` wholesale (cluster
    /// merge: the per-cluster view hands back its transformed counts).
    pub(crate) fn set_counts(
        &mut self,
        rid: RoutineId,
        counts: Option<Vec<u64>>,
        site_counts: BTreeMap<u32, u64>,
    ) {
        let i = rid.index();
        self.counts[i] = counts;
        self.site_counts[i] = site_counts;
    }

    /// Registers a new routine created by optimization (cloning): adds
    /// its metadata to the program symbol table and its body to a new
    /// NAIM pool, with maintained counts and its summary (the caller
    /// settles the summary charge once per batch).
    ///
    /// # Errors
    ///
    /// Propagates loader failures.
    pub(crate) fn add_cloned_routine(
        &mut self,
        meta: cmo_ir::RoutineMeta,
        body: RoutineBody,
        counts: Option<Vec<u64>>,
        site_counts: BTreeMap<u32, u64>,
    ) -> Result<RoutineId, NaimError> {
        let rid = self.program.add_routine(meta);
        debug_assert_eq!(rid.index(), self.routine_pool.len());
        self.summaries.push(&RoutineSummary::of(&body));
        #[cfg(test)]
        self.body_accesses.push(0);
        let pool = self.loader.insert(Transitory::Routine(body), PoolKind::Ir);
        self.loader.unload(pool)?;
        self.routine_pool.push(pool);
        self.counts.push(counts);
        self.site_counts.push(site_counts);
        Ok(rid)
    }

    /// Consumes the session, returning the program and all (possibly
    /// transformed) routine bodies plus maintained block counts, ready
    /// for LLO and linking.
    ///
    /// # Errors
    ///
    /// Propagates loader failures while draining pools.
    pub fn into_parts(mut self) -> Result<SessionParts, NaimError> {
        let mut bodies = Vec::with_capacity(self.routine_pool.len());
        for &pool in &self.routine_pool {
            bodies.push(self.loader.take(pool)?.into_routine());
        }
        let mut symtabs = Vec::with_capacity(self.symtab_pool.len());
        for &pool in &self.symtab_pool {
            symtabs.push(self.loader.take(pool)?.into_symtab());
        }
        Ok((self.program, bodies, symtabs, self.counts))
    }

    #[cfg(test)]
    fn count_access(&mut self, rid: RoutineId) {
        self.body_accesses[rid.index()] += 1;
    }

    /// The summary-is-truth oracle: every resident summary equals a
    /// fresh scan of the routine's current body. Tests call it at each
    /// phase boundary.
    #[cfg(test)]
    pub(crate) fn assert_summaries_match_bodies(&mut self, phase: &str) {
        for i in 0..self.n_routines() {
            let rid = RoutineId::from_index(i);
            let pool = self.routine_pool[i];
            let fresh = RoutineSummary::of(self.loader.get(pool).unwrap().routine());
            self.loader.unload(pool).unwrap();
            assert_eq!(
                self.summaries.get(rid),
                fresh,
                "stale summary of {rid} after {phase}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_is_send() {
        // The parallel driver moves sessions (and their loaders, whose
        // accountant `MemCharge` guards share) across pipeline threads.
        fn assert_send<T: Send>() {}
        assert_send::<HloSession>();
    }
}
