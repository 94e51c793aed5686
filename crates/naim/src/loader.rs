//! The loader: state management for transitory object pools (§4.2–4.3).
//!
//! The loader mediates all access to transitory pools (routine IR and
//! module symbol tables). Clients simply request objects and request
//! that unneeded pools be unloaded; whether a pool is actually
//! compacted, offloaded, or kept expanded in the unload-pending cache is
//! decided internally from the memory thresholds
//! ([`IR_COMPACTION_THRESHOLD`] and the two after it) — the scheme is
//! transparent to clients, exactly as in §4.3.

use crate::accounting::{MemCharge, MemClass, MemoryAccountant, MemorySnapshot};
use crate::encode::{Decoder, Encoder};
use crate::error::{DecodeError, NaimError};
use crate::repository::{RepoHandle, Repository};
use cmo_telemetry::{Telemetry, TraceEvent};
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::sync::Arc;

/// An object that has both expanded and relocatable forms (§4.2.1).
///
/// `compact` must write a self-contained image from which `uncompact`
/// rebuilds an equivalent expanded object. Derived data (analysis
/// results) must *not* be encoded: it is recompute-only by the §4.1
/// discipline, and omitting it is where most of the compaction win
/// comes from.
pub trait Relocatable: Sized {
    /// Serializes this object into relocatable form, writing references
    /// as varint ids.
    fn compact(&self, enc: &mut Encoder);

    /// Rebuilds the expanded form from a relocatable image (eager
    /// swizzling).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the image is corrupt.
    fn uncompact(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Approximate heap bytes occupied by the expanded form, used for
    /// byte accounting.
    fn expanded_bytes(&self) -> usize;
}

/// Identifies a pool registered with a [`Loader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(u32);

impl PoolId {
    /// Raw index of this pool.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a pool contains, which determines the threshold that governs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PoolKind {
    /// Routine intermediate representation.
    Ir,
    /// A module symbol table.
    SymTab,
}

/// Residency state of a pool, as visible to diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolState {
    /// Expanded in memory and actively usable.
    Expanded,
    /// Expanded but unload-pending: sitting in the loader's cache of
    /// most-recently-used pools awaiting possible compaction.
    UnloadPending,
    /// Compacted to relocatable form, resident in memory.
    Compact,
    /// Offloaded to the disk repository.
    Offloaded,
    /// Moved out of the loader by [`Loader::take`]; the id is dead.
    Taken,
}

/// Progressive NAIM capability levels (the four configurations of
/// Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NaimLevel {
    /// Everything stays expanded (HP-UX 9.0 behaviour, 1.7 KB/line).
    Off,
    /// IR pools may be compacted (HP-UX 10.01 behaviour, 0.9 KB/line).
    CompactIr,
    /// Symbol-table pools may be compacted too.
    CompactAll,
    /// Compacted pools may additionally be offloaded to disk.
    Offload,
}

// The fractions of the memory budget at which each NAIM measure
// engages (§4.3: "a series of memory thresholds ... turn on more and
// more of the NAIM functionality").

/// Engage IR compaction above this fraction of the budget.
pub const IR_COMPACTION_THRESHOLD: f64 = 0.5;
/// Engage symbol-table compaction above this fraction of the budget.
pub const ST_COMPACTION_THRESHOLD: f64 = 0.7;
/// Engage offloading to the repository above this fraction of the
/// budget.
pub const OFFLOAD_THRESHOLD: f64 = 0.85;

/// Simulated cost (work units) per byte compacted or uncompacted.
pub const COMPACT_COST_PER_BYTE: u64 = 1;
/// Simulated cost (work units) per byte written to the repository.
pub const DISK_COST_PER_BYTE: u64 = 4;
/// Simulated cost (work units) per byte fetched back from the
/// repository. Cheaper than [`DISK_COST_PER_BYTE`] because the read
/// path is zero-copy: records are borrowed from the storage's view (or
/// read once into the repository's fetch arena) and swizzled in place,
/// never materializing an owned compact copy. The cost is charged
/// identically whether a real memory map backs the view, so reports do
/// not depend on the transport.
pub const FETCH_COST_PER_BYTE: u64 = 2;

/// Configuration for a [`Loader`].
#[derive(Debug, Clone, PartialEq)]
pub struct NaimConfig {
    /// Soft memory budget in bytes — the stand-in for the physical
    /// memory of the build machine. The thresholds are fractions of
    /// this.
    pub budget_bytes: usize,
    /// Hard heap limit (the paper's ~1 GB HP-UX virtual-heap cap). When
    /// accounted memory cannot be brought under this limit the compile
    /// fails with [`NaimError::OutOfMemory`]. `None` means unlimited.
    pub hard_limit_bytes: Option<usize>,
    /// Most aggressive measure the loader may take.
    pub max_level: NaimLevel,
}

impl NaimConfig {
    /// Full NAIM capability with the given budget.
    #[must_use]
    pub fn with_budget(budget_bytes: usize) -> Self {
        NaimConfig {
            budget_bytes,
            hard_limit_bytes: None,
            max_level: NaimLevel::Offload,
        }
    }

    /// NAIM disabled: everything stays expanded (Figure 5 "NAIM off").
    #[must_use]
    pub fn disabled() -> Self {
        NaimConfig {
            max_level: NaimLevel::Off,
            ..NaimConfig::with_budget(usize::MAX / 4)
        }
    }

    /// Caps the capability level, returning the modified config.
    #[must_use]
    pub fn max_level(mut self, level: NaimLevel) -> Self {
        self.max_level = level;
        self
    }

    /// Sets the hard heap limit, returning the modified config.
    #[must_use]
    pub fn hard_limit(mut self, bytes: usize) -> Self {
        self.hard_limit_bytes = Some(bytes);
        self
    }
}

impl Default for NaimConfig {
    fn default() -> Self {
        // 256 MiB default budget: a mid-1990s large build machine.
        NaimConfig::with_budget(256 << 20)
    }
}

/// Counters describing loader activity, used by the Figure 5 bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoaderStats {
    /// Pools ever registered.
    pub pools: u64,
    /// `get`/`get_mut` calls satisfied by an already-expanded pool.
    pub hits: u64,
    /// Unload-pending pools rescued from the cache without re-expansion.
    pub cache_rescues: u64,
    /// Expansions from relocatable form (uncompactions).
    pub uncompactions: u64,
    /// Compactions to relocatable form.
    pub compactions: u64,
    /// Pool images written to the repository.
    pub offload_writes: u64,
    /// Pool images read back from the repository.
    pub offload_reads: u64,
    /// Total bytes processed by compaction + uncompaction.
    pub bytes_swizzled: u64,
    /// Total bytes moved to or from the repository.
    pub bytes_offloaded: u64,
    /// Simulated compile-time cost of all NAIM activity, in work units.
    pub work_units: u64,
    /// The share of [`LoaderStats::work_units`] spent fetching records
    /// back from the repository — the quantity the zero-copy read path
    /// reduces, tracked separately so the perf harness can watch it.
    pub fetch_work_units: u64,
}

impl LoaderStats {
    /// Folds another loader's counters into this one, field by field.
    ///
    /// Partitioned HLO uses it to sum the private per-cluster loaders
    /// into the session loader's totals.
    pub fn absorb(&mut self, other: &LoaderStats) {
        self.pools += other.pools;
        self.hits += other.hits;
        self.cache_rescues += other.cache_rescues;
        self.uncompactions += other.uncompactions;
        self.compactions += other.compactions;
        self.offload_writes += other.offload_writes;
        self.offload_reads += other.offload_reads;
        self.bytes_swizzled += other.bytes_swizzled;
        self.bytes_offloaded += other.bytes_offloaded;
        self.work_units += other.work_units;
        self.fetch_work_units += other.fetch_work_units;
    }
}

#[derive(Debug)]
enum State<T> {
    Expanded(T),
    Compact(Vec<u8>),
    Offloaded(RepoHandle),
    Taken,
}

#[derive(Debug)]
struct Slot<T> {
    kind: PoolKind,
    state: State<T>,
    last_use: u64,
    unload_pending: bool,
    /// A `&mut T` was handed out since `expanded_size` was measured, so
    /// the next unload must re-measure the pool.
    dirty: bool,
    expanded_size: usize,
    compact_size: usize,
}

/// The residency queues: which pool each enforcement phase evicts
/// next, kept current by every state transition so no operation ever
/// scans or sorts the slot table.
///
/// * `pending[kind]` holds exactly the expanded, unload-pending slots
///   of that kind, keyed `(last_use, slot)`: its first element is the
///   LRU compaction victim and a slot's rank in it is its `lru_pos`.
/// * `compact` holds exactly the slots in compact form, keyed
///   `(Reverse(compact_size), slot)`: its first element is the largest
///   image (earliest slot on ties), the next offload victim.
#[derive(Debug, Default)]
struct Queues {
    pending: [BTreeSet<(u64, u32)>; 2],
    compact: BTreeSet<(Reverse<usize>, u32)>,
}

/// Manages the residency of transitory object pools.
///
/// See the [crate docs](crate) for a usage example. A `Loader` serves
/// one thread at a time: the HLO session owns one, and each callgraph
/// cluster of the parallel inline/clone fan-out gets a private one
/// (WHOPR's partition-local state), folded back into the session's
/// counters afterwards.
#[derive(Debug)]
pub struct Loader<T> {
    config: NaimConfig,
    /// Shared with every [`MemCharge`] taken from this loader.
    accountant: Arc<MemoryAccountant>,
    repo: Repository,
    slots: Vec<Slot<T>>,
    queues: Queues,
    clock: u64,
    stats: LoaderStats,
    telemetry: Telemetry,
    /// Bookkeeping steps performed (queue updates, rank walks, slots
    /// visited, pools re-measured), for the complexity tests.
    #[cfg(test)]
    steps: u64,
    /// Trace id of this loader's pool 0 (see [`Loader::with_ids`]).
    id_base: u32,
    /// Distance in trace-id space between consecutive pools.
    id_stride: u32,
}

/// Trace-event kind string for a pool kind.
fn kind_str(kind: PoolKind) -> &'static str {
    match kind {
        PoolKind::Ir => "ir",
        PoolKind::SymTab => "symtab",
    }
}

impl<T: Relocatable> Loader<T> {
    /// Creates a loader that offloads to [`Repository::in_memory`].
    #[must_use]
    pub fn new(config: NaimConfig) -> Self {
        Loader::with_repository(config, Repository::in_memory())
    }

    /// Creates an in-memory loader whose local pool `i` carries global
    /// id `id_base + i * id_stride` in telemetry.
    ///
    /// Partitioned HLO gives every callgraph cluster a private loader;
    /// the id scheme keeps the pool ids those loaders emit in trace
    /// events disjoint from the session loader's (and from each
    /// other's), so a merged trace never shows two distinct pools under
    /// one id.
    #[must_use]
    pub fn with_ids(config: NaimConfig, id_base: u32, id_stride: u32) -> Self {
        let mut loader = Loader::new(config);
        loader.id_base = id_base;
        loader.id_stride = id_stride.max(1);
        loader
    }

    /// Creates a loader that offloads to `repo`, whichever storage
    /// holds it.
    pub fn with_repository(config: NaimConfig, repo: Repository) -> Self {
        Loader {
            config,
            accountant: Arc::new(MemoryAccountant::new()),
            repo,
            slots: Vec::new(),
            queues: Queues::default(),
            clock: 0,
            stats: LoaderStats::default(),
            telemetry: Telemetry::disabled(),
            #[cfg(test)]
            steps: 0,
            id_base: 0,
            id_stride: 1,
        }
    }

    /// Trace (externally visible) pool id for slot `idx`.
    fn external_id(&self, idx: usize) -> u32 {
        self.id_base + idx as u32 * self.id_stride
    }

    /// Attaches a telemetry sink; pool-state transitions are emitted as
    /// [`TraceEvent::Pool`] events and NAIM traffic costs advance the
    /// sink's work-unit clock.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Counts `n` bookkeeping steps (test builds only).
    #[inline]
    fn step(&mut self, n: usize) {
        #[cfg(test)]
        {
            self.steps += n as u64;
        }
        #[cfg(not(test))]
        let _ = n;
    }

    /// Position of pending slot `idx` in the compaction LRU of its kind
    /// (0 = next victim): the number of pending pools of that kind used
    /// less recently. Only traces show it, so it is derived — a walk
    /// over the slot's predecessors in the pending queue — only when a
    /// sink is attached, and is 0 otherwise.
    fn lru_pos(&mut self, idx: usize) -> u32 {
        if !self.telemetry.is_enabled() {
            return 0;
        }
        let slot = &self.slots[idx];
        let key = (slot.last_use, idx as u32);
        let rank = self.queues.pending[slot.kind as usize].range(..key).count();
        self.step(rank);
        rank as u32
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &NaimConfig {
        &self.config
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> LoaderStats {
        self.stats
    }

    /// Memory accounting snapshot (transitory classes are maintained by
    /// the loader; global and derived classes may be recorded by the
    /// optimizer through [`Loader::account`]).
    #[must_use]
    pub fn memory(&self) -> MemorySnapshot {
        self.accountant.snapshot()
    }

    /// Records memory occupied by structures outside the loader's
    /// control (global or derived data), so thresholds consider the
    /// whole optimizer heap.
    pub fn account(&self, class: MemClass, delta: isize) {
        self.accountant.adjust(class, delta);
    }

    /// Like [`Loader::account`], but the bytes are released when the
    /// returned guard is dropped.
    #[must_use]
    pub fn charge(&self, class: MemClass, bytes: usize) -> MemCharge {
        MemCharge::new(Arc::clone(&self.accountant), class, bytes)
    }

    /// Number of pools currently in each state:
    /// `(expanded, pending, compact, offloaded)`. Pools moved out by
    /// [`Loader::take`] are in none of them.
    #[must_use]
    pub fn census(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for s in &self.slots {
            match (&s.state, s.unload_pending) {
                (State::Expanded(_), false) => c.0 += 1,
                (State::Expanded(_), true) => c.1 += 1,
                (State::Compact(_), _) => c.2 += 1,
                (State::Offloaded(_), _) => c.3 += 1,
                (State::Taken, _) => {}
            }
        }
        c
    }

    /// Registers a new pool in expanded form.
    pub fn insert(&mut self, value: T, kind: PoolKind) -> PoolId {
        let size = value.expanded_bytes();
        self.accountant.add(MemClass::TransitoryExpanded, size);
        let id = PoolId(u32::try_from(self.slots.len()).expect("pool count fits in u32"));
        self.clock += 1;
        self.slots.push(Slot {
            kind,
            state: State::Expanded(value),
            last_use: self.clock,
            unload_pending: false,
            dirty: false,
            expanded_size: size,
            compact_size: 0,
        });
        self.stats.pools += 1;
        id
    }

    /// Registers a pool already resident in the repository (e.g. stored
    /// by an earlier run and re-located through the persistent index).
    ///
    /// The pool starts in [`PoolState::Offloaded`] and occupies no
    /// accounted memory; the first [`Loader::get`] rehydrates it through
    /// the ordinary fetch + eager-swizzling path.
    pub fn insert_offloaded(&mut self, handle: RepoHandle, kind: PoolKind) -> PoolId {
        let id = PoolId(u32::try_from(self.slots.len()).expect("pool count fits in u32"));
        self.clock += 1;
        self.slots.push(Slot {
            kind,
            state: State::Offloaded(handle),
            last_use: self.clock,
            unload_pending: false,
            dirty: false,
            expanded_size: 0,
            compact_size: handle.len(),
        });
        self.stats.pools += 1;
        id
    }

    /// Shared access to the backing repository (e.g. to inspect stats or
    /// look up records by content hash).
    #[must_use]
    pub fn repository(&self) -> &Repository {
        &self.repo
    }

    /// Exclusive access to the backing repository (e.g. to store records
    /// directly or flush the persistent index).
    pub fn repository_mut(&mut self) -> &mut Repository {
        &mut self.repo
    }

    /// Current residency state of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this loader.
    #[must_use]
    pub fn state(&self, id: PoolId) -> PoolState {
        let slot = &self.slots[id.index()];
        match (&slot.state, slot.unload_pending) {
            (State::Expanded(_), false) => PoolState::Expanded,
            (State::Expanded(_), true) => PoolState::UnloadPending,
            (State::Compact(_), _) => PoolState::Compact,
            (State::Offloaded(_), _) => PoolState::Offloaded,
            (State::Taken, _) => PoolState::Taken,
        }
    }

    /// Kind of the pool `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this loader.
    #[must_use]
    pub fn kind(&self, id: PoolId) -> PoolKind {
        self.slots[id.index()].kind
    }

    fn expand(&mut self, id: PoolId) -> Result<(), NaimError> {
        let idx = id.index();
        let kind = kind_str(self.slots[idx].kind);
        let pool = self.external_id(idx);
        // Offloaded pools rehydrate in one pass: the record is borrowed
        // from the repository (zero-copy when the storage serves views,
        // the fetch arena otherwise) and eagerly swizzled straight to
        // expanded form, never materializing an owned compact copy in
        // between.
        if let State::Offloaded(handle) = self.slots[idx].state {
            let image = self.repo.fetch_ref(handle)?;
            let image_len = image.len();
            let mut dec = Decoder::new(image);
            let value = T::uncompact(&mut dec)?;
            let size = value.expanded_bytes();
            let fetch_cost = image_len as u64 * FETCH_COST_PER_BYTE;
            let swizzle_cost = image_len as u64 * COMPACT_COST_PER_BYTE;
            self.stats.offload_reads += 1;
            self.stats.bytes_offloaded += image_len as u64;
            self.stats.fetch_work_units += fetch_cost;
            self.stats.uncompactions += 1;
            self.stats.bytes_swizzled += image_len as u64;
            self.stats.work_units += fetch_cost + swizzle_cost;
            self.telemetry.work(fetch_cost);
            self.telemetry.emit(TraceEvent::Pool {
                action: "fetch",
                pool,
                kind,
                bytes: image_len as u64,
                lru_pos: 0,
            });
            self.telemetry.work(swizzle_cost);
            self.telemetry.emit(TraceEvent::Pool {
                action: "expand",
                pool,
                kind,
                bytes: image_len as u64,
                lru_pos: 0,
            });
            self.accountant.add(MemClass::TransitoryExpanded, size);
            let slot = &mut self.slots[idx];
            slot.expanded_size = size;
            slot.state = State::Expanded(value);
            return Ok(());
        }
        if let State::Compact(image) = &self.slots[idx].state {
            let mut dec = Decoder::new(image);
            let value = T::uncompact(&mut dec)?;
            let image_len = image.len();
            let size = value.expanded_bytes();
            let cost = image_len as u64 * COMPACT_COST_PER_BYTE;
            self.stats.uncompactions += 1;
            self.stats.bytes_swizzled += image_len as u64;
            self.stats.work_units += cost;
            self.accountant
                .remove(MemClass::TransitoryCompact, image_len);
            self.accountant.add(MemClass::TransitoryExpanded, size);
            self.queues
                .compact
                .remove(&(Reverse(image_len), idx as u32));
            self.step(1);
            let slot = &mut self.slots[idx];
            slot.expanded_size = size;
            slot.state = State::Expanded(value);
            self.telemetry.work(cost);
            self.telemetry.emit(TraceEvent::Pool {
                action: "expand",
                pool,
                kind,
                bytes: image_len as u64,
                lru_pos: 0,
            });
        }
        Ok(())
    }

    /// Returns a shared reference to the expanded pool, loading it from
    /// relocatable or offloaded form if necessary.
    ///
    /// # Errors
    ///
    /// Returns a decode or repository error if re-expansion fails.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this loader.
    pub fn get(&mut self, id: PoolId) -> Result<&T, NaimError> {
        self.touch(id)?;
        match &self.slots[id.index()].state {
            State::Expanded(v) => Ok(v),
            _ => unreachable!("touch left pool expanded"),
        }
    }

    /// Returns an exclusive reference to the expanded pool, loading it
    /// if necessary.
    ///
    /// # Errors
    ///
    /// Returns a decode or repository error if re-expansion fails.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this loader.
    pub fn get_mut(&mut self, id: PoolId) -> Result<&mut T, NaimError> {
        self.touch(id)?;
        let slot = &mut self.slots[id.index()];
        slot.dirty = true;
        match &mut slot.state {
            State::Expanded(v) => Ok(v),
            _ => unreachable!("touch left pool expanded"),
        }
    }

    /// Moves the pool's value out of the loader, loading it first if
    /// necessary — the same hit, rescue or expansion (counters, work
    /// units, trace events) a [`Loader::get`] would perform. The pool's
    /// bytes leave the accounting and `id` is dead afterwards.
    ///
    /// # Errors
    ///
    /// Returns a decode or repository error if re-expansion fails.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this loader or was already
    /// taken.
    pub fn take(&mut self, id: PoolId) -> Result<T, NaimError> {
        self.touch(id)?;
        let slot = &mut self.slots[id.index()];
        self.accountant
            .remove(MemClass::TransitoryExpanded, slot.expanded_size);
        match std::mem::replace(&mut slot.state, State::Taken) {
            State::Expanded(v) => Ok(v),
            _ => unreachable!("touch left pool expanded"),
        }
    }

    /// Ensures the pool is expanded and marks it recently used, without
    /// borrowing its contents.
    ///
    /// # Errors
    ///
    /// Returns a decode or repository error if re-expansion fails.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this loader or was moved out
    /// by [`Loader::take`].
    pub fn touch(&mut self, id: PoolId) -> Result<(), NaimError> {
        let idx = id.index();
        match &self.slots[idx].state {
            State::Expanded(_) => {
                self.stats.hits += 1;
                if self.slots[idx].unload_pending {
                    // The paper's cache win: only a state change, no work.
                    let lru_pos = self.lru_pos(idx);
                    let slot = &self.slots[idx];
                    self.queues.pending[slot.kind as usize].remove(&(slot.last_use, idx as u32));
                    self.step(1);
                    self.stats.cache_rescues += 1;
                    self.telemetry.emit(TraceEvent::Pool {
                        action: "rescue",
                        pool: self.external_id(idx),
                        kind: kind_str(self.slots[idx].kind),
                        bytes: self.slots[idx].expanded_size as u64,
                        lru_pos,
                    });
                }
            }
            State::Taken => panic!("pool {} was moved out by take", self.external_id(idx)),
            _ => self.expand(id)?,
        }
        self.clock += 1;
        let slot = &mut self.slots[idx];
        slot.last_use = self.clock;
        slot.unload_pending = false;
        Ok(())
    }

    /// Re-measures the expanded size of `id` after client mutation and
    /// fixes up the accounting.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this loader.
    pub fn reaccount(&mut self, id: PoolId) {
        let idx = id.index();
        if let State::Expanded(v) = &self.slots[idx].state {
            let new_size = v.expanded_bytes();
            let old_size = self.slots[idx].expanded_size;
            self.accountant.adjust(
                MemClass::TransitoryExpanded,
                new_size as isize - old_size as isize,
            );
            self.slots[idx].expanded_size = new_size;
            self.step(1);
        }
        self.slots[idx].dirty = false;
    }

    /// Declares that the client no longer needs `id` expanded. The pool
    /// enters the unload-pending cache; whether it is actually compacted
    /// or offloaded is decided by [`Loader::enforce`].
    ///
    /// # Errors
    ///
    /// Propagates enforcement failures (hard out-of-memory).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this loader.
    pub fn unload(&mut self, id: PoolId) -> Result<(), NaimError> {
        self.mark_unload(id);
        self.enforce()
    }

    /// Marks `id` unload-pending without enforcing the memory policy.
    fn mark_unload(&mut self, id: PoolId) {
        let idx = id.index();
        // Only a pool the client could have mutated can have changed
        // size; a pool that was merely read keeps its measurement.
        if self.slots[idx].dirty {
            self.reaccount(id);
        }
        let slot = &mut self.slots[idx];
        if matches!(slot.state, State::Expanded(_)) && !slot.unload_pending {
            slot.unload_pending = true;
            self.queues.pending[slot.kind as usize].insert((slot.last_use, idx as u32));
            self.step(1);
        }
    }

    /// Marks every expanded pool unload-pending and enforces the memory
    /// policy ("clients simply request that all unneeded pools are
    /// unloaded").
    ///
    /// # Errors
    ///
    /// Propagates enforcement failures (hard out-of-memory).
    pub fn unload_all(&mut self) -> Result<(), NaimError> {
        self.step(self.slots.len());
        for idx in 0..self.slots.len() {
            self.mark_unload(PoolId(idx as u32));
        }
        self.enforce()
    }

    /// Compacts pending slot `idx`, moving it from the pending queue to
    /// the compact queue.
    fn compact_slot(&mut self, idx: usize) {
        let lru_pos = self.lru_pos(idx);
        let pool = self.external_id(idx);
        let slot = &mut self.slots[idx];
        if let State::Expanded(v) = &slot.state {
            let mut enc = Encoder::with_capacity(slot.compact_size.max(64));
            v.compact(&mut enc);
            let image = enc.into_bytes();
            let cost = image.len() as u64 * COMPACT_COST_PER_BYTE;
            self.stats.compactions += 1;
            self.stats.bytes_swizzled += image.len() as u64;
            self.stats.work_units += cost;
            self.telemetry.work(cost);
            self.telemetry.emit(TraceEvent::Pool {
                action: "compact",
                pool,
                kind: kind_str(slot.kind),
                bytes: image.len() as u64,
                lru_pos,
            });
            self.accountant
                .remove(MemClass::TransitoryExpanded, slot.expanded_size);
            self.accountant
                .add(MemClass::TransitoryCompact, image.len());
            self.queues.pending[slot.kind as usize].remove(&(slot.last_use, idx as u32));
            self.queues
                .compact
                .insert((Reverse(image.len()), idx as u32));
            slot.compact_size = image.len();
            slot.unload_pending = false;
            slot.state = State::Compact(image);
            self.step(2);
        }
    }

    /// Offloads compact slot `idx` to the repository. A failed store
    /// leaves the slot compact, image intact, and still a candidate.
    fn offload_slot(&mut self, idx: usize) -> Result<(), NaimError> {
        let State::Compact(image) = &self.slots[idx].state else {
            return Ok(());
        };
        let handle = self.repo.store(image)?;
        let len = image.len();
        let cost = len as u64 * DISK_COST_PER_BYTE;
        self.stats.offload_writes += 1;
        self.stats.bytes_offloaded += len as u64;
        self.stats.work_units += cost;
        self.telemetry.work(cost);
        self.telemetry.emit(TraceEvent::Pool {
            action: "offload",
            pool: self.external_id(idx),
            kind: kind_str(self.slots[idx].kind),
            bytes: len as u64,
            lru_pos: 0,
        });
        self.accountant.remove(MemClass::TransitoryCompact, len);
        self.queues.compact.remove(&(Reverse(len), idx as u32));
        self.slots[idx].state = State::Offloaded(handle);
        self.step(1);
        Ok(())
    }

    /// Compacts unload-pending pools of `kind`, least recently used
    /// first, while the accounted heap exceeds `threshold`.
    fn compact_pending(&mut self, kind: PoolKind, threshold: usize) {
        while self.accountant.total() > threshold {
            let Some(&(_, idx)) = self.queues.pending[kind as usize].first() else {
                break;
            };
            self.compact_slot(idx as usize);
        }
    }

    /// Applies the thresholded memory policy: compaction and offloading
    /// engage only as the accounted heap crosses the configured
    /// fractions of the budget, so compilations that fit in memory pay
    /// nothing (§4.3).
    ///
    /// # Errors
    ///
    /// Returns [`NaimError::OutOfMemory`] if the heap cannot be brought
    /// under the hard limit.
    pub fn enforce(&mut self) -> Result<(), NaimError> {
        let budget = self.config.budget_bytes as f64;
        let t_ir = (budget * IR_COMPACTION_THRESHOLD) as usize;
        let t_st = (budget * ST_COMPACTION_THRESHOLD) as usize;
        let t_off = (budget * OFFLOAD_THRESHOLD) as usize;

        // Each phase compares the heap with its threshold before it
        // looks at a victim, and takes victims off the front of a queue
        // the state transitions keep ordered: a sweep costs O(log n) per
        // pool it evicts and O(1) when it evicts none.
        if self.config.max_level >= NaimLevel::CompactIr {
            self.compact_pending(PoolKind::Ir, t_ir);
        }
        if self.config.max_level >= NaimLevel::CompactAll {
            self.compact_pending(PoolKind::SymTab, t_st);
        }
        if self.config.max_level >= NaimLevel::Offload {
            // Offload the largest compacted images first: maximum
            // reclaimed memory per disk operation (ties to the earliest
            // slot).
            while self.accountant.total() > t_off {
                let Some(&(_, idx)) = self.queues.compact.first() else {
                    break;
                };
                self.offload_slot(idx as usize)?;
            }
        }
        // The sweep is over: whatever the fetch arena accumulated since
        // the last sweep is returned to the allocator so rehydration
        // scratch never outlives the eviction wave that used it. The
        // byte count is transport-independent, keeping traces identical
        // with mmap on and off at a given -j.
        let served = self.repo.recycle_arena();
        if served > 0 {
            self.telemetry.emit(TraceEvent::Arena {
                action: "recycle",
                bytes: served,
            });
        }
        if let Some(limit) = self.config.hard_limit_bytes {
            let total = self.accountant.total();
            if total > limit {
                return Err(NaimError::OutOfMemory {
                    wanted: total,
                    budget: limit,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test payload whose expanded form is deliberately fatter than
    /// its relocatable form (stand-in for derived-field dropping).
    #[derive(Clone, Debug, PartialEq)]
    struct Blob {
        payload: Vec<u64>,
    }

    impl Blob {
        fn of(n: u64, len: usize) -> Self {
            Blob {
                payload: (0..len as u64).map(|i| i.wrapping_mul(n)).collect(),
            }
        }
    }

    impl Relocatable for Blob {
        fn compact(&self, enc: &mut Encoder) {
            enc.write_usize(self.payload.len());
            for &v in &self.payload {
                enc.write_u64(v);
            }
        }
        fn uncompact(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
            let len = dec.read_usize()?;
            let mut payload = Vec::with_capacity(len);
            for _ in 0..len {
                payload.push(dec.read_u64()?);
            }
            Ok(Blob { payload })
        }
        fn expanded_bytes(&self) -> usize {
            std::mem::size_of::<Self>() + self.payload.capacity() * 8
        }
    }

    fn tiny_config() -> NaimConfig {
        NaimConfig::with_budget(4096)
    }

    #[test]
    fn round_trip_through_all_states() {
        let mut loader: Loader<Blob> = Loader::new(tiny_config());
        let mut ids = Vec::new();
        for i in 0..32 {
            ids.push(loader.insert(Blob::of(i, 100), PoolKind::Ir));
        }
        loader.unload_all().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(loader.get(id).unwrap(), &Blob::of(i as u64, 100));
        }
    }

    #[test]
    fn small_compiles_never_compact() {
        // Under the thresholds nothing happens: the paper's "little or
        // no overhead" property.
        let mut loader: Loader<Blob> = Loader::new(NaimConfig::with_budget(1 << 30));
        let ids: Vec<_> = (0..8)
            .map(|i| loader.insert(Blob::of(i, 50), PoolKind::Ir))
            .collect();
        loader.unload_all().unwrap();
        assert_eq!(loader.stats().compactions, 0);
        for id in ids {
            assert!(matches!(
                loader.state(id),
                PoolState::UnloadPending | PoolState::Expanded
            ));
        }
    }

    #[test]
    fn naim_off_never_compacts_even_over_budget() {
        let mut loader: Loader<Blob> = Loader::new(NaimConfig::disabled());
        for i in 0..64 {
            loader.insert(Blob::of(i, 200), PoolKind::Ir);
        }
        loader.unload_all().unwrap();
        assert_eq!(loader.stats().compactions, 0);
    }

    #[test]
    fn hard_limit_reports_out_of_memory() {
        let config = NaimConfig::disabled().hard_limit(1024);
        let mut loader: Loader<Blob> = Loader::new(config);
        loader.insert(Blob::of(1, 1000), PoolKind::Ir);
        assert!(matches!(
            loader.unload_all(),
            Err(NaimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn compaction_keeps_memory_under_threshold() {
        let mut loader: Loader<Blob> = Loader::new(tiny_config());
        for i in 0..64 {
            let id = loader.insert(Blob::of(i, 100), PoolKind::Ir);
            loader.unload(id).unwrap();
        }
        assert!(loader.stats().compactions > 0);
        // Compact form of 100 small u64s is far smaller than expanded.
        let snap = loader.memory();
        assert!(snap.class(MemClass::TransitoryCompact) < snap.peak_total);
    }

    #[test]
    fn offload_engages_above_offload_threshold() {
        let mut loader: Loader<Blob> = Loader::new(NaimConfig::with_budget(2048));
        let mut ids = Vec::new();
        for i in 0..64 {
            let id = loader.insert(Blob::of(i, 300), PoolKind::Ir);
            ids.push(id);
            loader.unload(id).unwrap();
        }
        assert!(loader.stats().offload_writes > 0);
        // And reading back still works.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(loader.get(id).unwrap(), &Blob::of(i as u64, 300));
            loader.unload(id).unwrap();
        }
        assert!(loader.stats().offload_reads > 0);
    }

    #[test]
    fn cache_rescue_is_free() {
        let mut loader: Loader<Blob> = Loader::new(NaimConfig::with_budget(1 << 30));
        let id = loader.insert(Blob::of(3, 10), PoolKind::Ir);
        loader.unload(id).unwrap();
        let before = loader.stats();
        loader.touch(id).unwrap();
        let after = loader.stats();
        assert_eq!(after.cache_rescues, before.cache_rescues + 1);
        assert_eq!(after.uncompactions, before.uncompactions);
    }

    #[test]
    fn symtab_pools_obey_their_own_threshold() {
        let config = NaimConfig {
            max_level: NaimLevel::CompactIr,
            ..NaimConfig::with_budget(2048)
        };
        let mut loader: Loader<Blob> = Loader::new(config);
        for i in 0..32 {
            let id = loader.insert(Blob::of(i, 200), PoolKind::SymTab);
            loader.unload(id).unwrap();
        }
        // Level CompactIr never touches symbol tables.
        assert_eq!(loader.stats().compactions, 0);
    }

    #[test]
    fn mutation_then_reload_sees_new_value() {
        let mut loader: Loader<Blob> = Loader::new(tiny_config());
        let id = loader.insert(Blob::of(1, 100), PoolKind::Ir);
        loader.get_mut(id).unwrap().payload.push(12345);
        loader.unload(id).unwrap();
        // Force it out by pressure.
        for i in 0..64 {
            let other = loader.insert(Blob::of(i, 100), PoolKind::Ir);
            loader.unload(other).unwrap();
        }
        let v = loader.get(id).unwrap();
        assert_eq!(*v.payload.last().unwrap(), 12345);
    }

    #[test]
    fn census_reflects_states() {
        let mut loader: Loader<Blob> = Loader::new(NaimConfig::with_budget(1 << 30));
        let a = loader.insert(Blob::of(1, 10), PoolKind::Ir);
        let _b = loader.insert(Blob::of(2, 10), PoolKind::Ir);
        loader.unload(a).unwrap();
        let (expanded, pending, compact, offloaded) = loader.census();
        assert_eq!((expanded, pending, compact, offloaded), (1, 1, 0, 0));
    }

    #[test]
    fn insert_offloaded_rehydrates_through_swizzling_path() {
        // Store a pool image directly, as a previous run's cache would,
        // then adopt it into a fresh loader and read it back.
        let mut repo = Repository::in_memory();
        let blob = Blob::of(9, 40);
        let mut enc = Encoder::new();
        blob.compact(&mut enc);
        let handle = repo.store(&enc.into_bytes()).unwrap();
        let mut loader: Loader<Blob> =
            Loader::with_repository(NaimConfig::with_budget(1 << 30), repo);
        let id = loader.insert_offloaded(handle, PoolKind::Ir);
        assert_eq!(loader.state(id), PoolState::Offloaded);
        assert_eq!(loader.get(id).unwrap(), &blob);
        assert_eq!(loader.state(id), PoolState::Expanded);
        let stats = loader.stats();
        assert_eq!(stats.offload_reads, 1);
        assert_eq!(stats.uncompactions, 1);
    }

    #[test]
    fn rescue_path_surfaces_typed_repository_error() {
        // A handle into an empty repository: the rescue path must
        // surface the repository's typed error, not panic or hand back
        // a garbage pool.
        let mut donor = Repository::in_memory();
        let mut enc = Encoder::new();
        Blob::of(1, 8).compact(&mut enc);
        let foreign = donor.store(&enc.into_bytes()).unwrap();
        let mut loader: Loader<Blob> = Loader::new(NaimConfig::with_budget(1 << 30));
        let id = loader.insert_offloaded(foreign, PoolKind::Ir);
        match loader.get(id) {
            Err(NaimError::UnknownPool { pool }) => assert_eq!(pool, foreign.id()),
            other => panic!("expected UnknownPool from the rescue path, got {other:?}"),
        }
    }

    #[test]
    fn take_costs_what_get_costs_and_moves_the_value_out() {
        // Idle, compacting and offloading budgets: the replaced `get`
        // is a hit, a rescue, an uncompaction or a fetch.
        for budget in [1 << 30, 4096, 64] {
            let build = || {
                let mut loader: Loader<Blob> = Loader::new(NaimConfig::with_budget(budget));
                let tel = Telemetry::enabled();
                loader.set_telemetry(tel.clone());
                let ids: Vec<_> = (0..16)
                    .map(|i| loader.insert(Blob::of(i, 100), PoolKind::Ir))
                    .collect();
                loader.unload_all().unwrap();
                (loader, tel, ids)
            };
            let (mut by_ref, ref_tel, ids) = build();
            let (mut by_val, val_tel, _) = build();
            for (i, &id) in ids.iter().enumerate() {
                let expected = by_ref.get(id).unwrap().clone();
                assert_eq!(by_val.take(id).unwrap(), expected);
                assert_eq!(expected, Blob::of(i as u64, 100));
                assert_eq!(by_val.state(id), PoolState::Taken);
            }
            assert_eq!(by_val.stats(), by_ref.stats());
            assert_eq!(val_tel.render_trace(), ref_tel.render_trace());
            assert_eq!(by_val.memory().class(MemClass::TransitoryExpanded), 0);
        }
    }

    /// Bookkeeping steps of one read-only `get` + `unload` pass over
    /// `n` pools that an earlier pass already inserted and unloaded.
    fn read_pass_steps(n: usize, budget: usize, traced: bool) -> u64 {
        let mut loader: Loader<Blob> = Loader::new(NaimConfig::with_budget(budget));
        if traced {
            loader.set_telemetry(Telemetry::enabled());
        }
        let ids: Vec<_> = (0..n)
            .map(|i| {
                let id = loader.insert(Blob::of(i as u64, 20), PoolKind::Ir);
                loader.unload(id).unwrap();
                id
            })
            .collect();
        let (steps, compactions) = (loader.steps, loader.stats().compactions);
        for &id in &ids {
            loader.get(id).unwrap();
            loader.unload(id).unwrap();
        }
        let engaged = loader.stats().compactions - compactions;
        assert!(
            engaged == 0 || engaged == n as u64,
            "budget {budget} neither idle nor compacting on every unload"
        );
        loader.steps - steps
    }

    #[test]
    fn bookkeeping_steps_grow_linearly_with_pools() {
        // An idle budget (thresholds never engage) and one that compacts
        // and offloads on every unload, untraced and traced.
        for budget in [1 << 30, 64] {
            for traced in [false, true] {
                let small = read_pass_steps(128, budget, traced);
                let large = read_pass_steps(512, budget, traced);
                assert!(small > 0);
                assert!(
                    large <= 5 * small,
                    "budget {budget}, traced {traced}: {small} steps for 128 pools, {large} for 512"
                );
            }
        }
    }

    #[test]
    fn charges_count_while_held_and_release_on_drop() {
        let loader: Loader<Blob> = Loader::new(tiny_config());
        loader.account(MemClass::Global, 100);
        let charge = loader.charge(MemClass::Derived, 300);
        assert_eq!(loader.memory().class(MemClass::Derived), 300);
        assert_eq!(loader.memory().total(), 400);
        drop(charge);
        let snap = loader.memory();
        assert_eq!(snap.class(MemClass::Derived), 0);
        assert_eq!(snap.total(), 100);
        assert_eq!(snap.peak_class(MemClass::Derived), 300);
        assert_eq!(snap.peak_total, 400, "the peak still covers the charge");
    }

    #[test]
    fn work_units_accumulate_with_activity() {
        let mut loader: Loader<Blob> = Loader::new(tiny_config());
        for i in 0..64 {
            let id = loader.insert(Blob::of(i, 100), PoolKind::Ir);
            loader.unload(id).unwrap();
        }
        assert!(loader.stats().work_units > 0);
    }
}
