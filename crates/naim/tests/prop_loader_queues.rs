//! Property test: the loader's incrementally maintained residency
//! queues pick exactly the victims, in exactly the order, that a scan
//! of every slot followed by a sort would pick.
//!
//! [`RefLoader`] below is the reference: it rebuilds the unload-pending
//! LRU and the offload candidate list from the whole slot table on
//! every access, re-measures every pool on every unload, and ranks a
//! pool by searching the rebuilt list. Random operation sequences run
//! against it and against the real [`Loader`] / [`ShardedLoader`], and
//! every observable must agree: pool states, [`LoaderStats`],
//! [`MemorySnapshot`] (so accounted peaks), and the drained trace
//! records (so every work-clock stamp, victim and `lru_pos`).

use cmo_naim::{
    DecodeError, Decoder, Encoder, Loader, LoaderStats, MemClass, MemoryAccountant, MemorySnapshot,
    NaimConfig, NaimLevel, PoolId, PoolKind, PoolState, Relocatable, RepoHandle, Repository,
    ShardedLoader,
};
use cmo_telemetry::{Telemetry, TraceEvent};
use proptest::prelude::*;

#[derive(Clone, Debug, PartialEq)]
struct Payload(Vec<i64>);

impl Relocatable for Payload {
    fn compact(&self, enc: &mut Encoder) {
        enc.write_usize(self.0.len());
        for &v in &self.0 {
            enc.write_i64(v);
        }
    }
    fn uncompact(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = dec.read_usize()?;
        let mut v = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            v.push(dec.read_i64()?);
        }
        Ok(Payload(v))
    }
    // By length, not capacity: the two sides must measure equal values
    // equally whatever their allocation history.
    fn expanded_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.0.len() * 8
    }
}

fn image_of(value: &Payload) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.compact(&mut enc);
    enc.into_bytes()
}

fn kind_str(kind: PoolKind) -> &'static str {
    match kind {
        PoolKind::Ir => "ir",
        PoolKind::SymTab => "symtab",
    }
}

// ---- the scan-and-sort reference ------------------------------------

enum RefState {
    Expanded(Payload),
    Compact(Vec<u8>),
    Offloaded(RepoHandle),
}

struct RefSlot {
    kind: PoolKind,
    state: RefState,
    last_use: u64,
    pending: bool,
    expanded_size: usize,
    compact_size: usize,
}

/// One shard of the reference: local slot `i` is global pool
/// `id_base + i * id_stride`.
struct RefShard {
    config: NaimConfig,
    tel: Telemetry,
    repo: Repository,
    slots: Vec<RefSlot>,
    clock: u64,
    stats: LoaderStats,
    id_base: u32,
    id_stride: u32,
    mmap_announced: bool,
}

impl RefShard {
    fn external_id(&self, idx: usize) -> u32 {
        self.id_base + idx as u32 * self.id_stride
    }

    fn pool_event(&self, action: &'static str, idx: usize, bytes: usize, lru_pos: u32) {
        self.tel.emit(TraceEvent::Pool {
            action,
            pool: self.external_id(idx),
            kind: kind_str(self.slots[idx].kind),
            bytes: bytes as u64,
            lru_pos,
        });
    }

    /// Unload-pending slots of `kind`, least recently used first.
    fn pending_lru(&self, kind: PoolKind) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.slots.len())
            .filter(|&i| {
                let s = &self.slots[i];
                s.kind == kind && s.pending && matches!(s.state, RefState::Expanded(_))
            })
            .collect();
        v.sort_by_key(|&i| self.slots[i].last_use);
        v
    }

    fn lru_rank(&self, idx: usize) -> u32 {
        self.pending_lru(self.slots[idx].kind)
            .iter()
            .position(|&i| i == idx)
            .unwrap_or(0) as u32
    }

    fn push(&mut self, kind: PoolKind, state: RefState, expanded_size: usize, compact_size: usize) {
        self.clock += 1;
        self.slots.push(RefSlot {
            kind,
            state,
            last_use: self.clock,
            pending: false,
            expanded_size,
            compact_size,
        });
        self.stats.pools += 1;
    }

    fn expand(&mut self, acct: &mut MemoryAccountant, idx: usize) {
        let (image_len, value) = match &self.slots[idx].state {
            RefState::Expanded(_) => return,
            RefState::Offloaded(handle) => {
                let zc_before = self.repo.stats().zero_copy_reads;
                let image = self.repo.fetch_ref(*handle).expect("fetch");
                let len = image.len();
                let value = Payload::uncompact(&mut Decoder::new(image)).expect("uncompact");
                if !self.mmap_announced && self.repo.stats().zero_copy_reads > zc_before {
                    self.mmap_announced = true;
                    self.tel.emit(TraceEvent::Mmap {
                        action: "zero-copy",
                        bytes: len as u64,
                    });
                }
                let fetch_cost = len as u64 * self.config.fetch_cost_per_byte;
                self.stats.offload_reads += 1;
                self.stats.bytes_offloaded += len as u64;
                self.stats.fetch_work_units += fetch_cost;
                self.stats.work_units += fetch_cost;
                self.tel.work(fetch_cost);
                self.pool_event("fetch", idx, len, 0);
                (len, value)
            }
            RefState::Compact(image) => {
                let value = Payload::uncompact(&mut Decoder::new(image)).expect("uncompact");
                acct.remove(MemClass::TransitoryCompact, image.len());
                (image.len(), value)
            }
        };
        let cost = image_len as u64 * self.config.compact_cost_per_byte;
        self.stats.uncompactions += 1;
        self.stats.bytes_swizzled += image_len as u64;
        self.stats.work_units += cost;
        self.tel.work(cost);
        self.pool_event("expand", idx, image_len, 0);
        let size = value.expanded_bytes();
        acct.add(MemClass::TransitoryExpanded, size);
        self.slots[idx].expanded_size = size;
        self.slots[idx].state = RefState::Expanded(value);
    }

    fn touch(&mut self, acct: &mut MemoryAccountant, idx: usize) -> &mut Payload {
        if matches!(self.slots[idx].state, RefState::Expanded(_)) {
            self.stats.hits += 1;
            if self.slots[idx].pending {
                let lru_pos = self.lru_rank(idx);
                self.stats.cache_rescues += 1;
                self.pool_event("rescue", idx, self.slots[idx].expanded_size, lru_pos);
            }
        } else {
            self.expand(acct, idx);
        }
        self.clock += 1;
        let slot = &mut self.slots[idx];
        slot.last_use = self.clock;
        slot.pending = false;
        match &mut slot.state {
            RefState::Expanded(v) => v,
            _ => unreachable!("touch left pool expanded"),
        }
    }

    /// Re-measures the pool whether or not it could have changed.
    fn mark_unload(&mut self, acct: &mut MemoryAccountant, idx: usize) {
        let slot = &mut self.slots[idx];
        if let RefState::Expanded(v) = &slot.state {
            let new_size = v.expanded_bytes();
            acct.adjust(
                MemClass::TransitoryExpanded,
                new_size as isize - slot.expanded_size as isize,
            );
            slot.expanded_size = new_size;
            slot.pending = true;
        }
    }

    fn mark_all_unload(&mut self, acct: &mut MemoryAccountant) {
        for idx in 0..self.slots.len() {
            self.mark_unload(acct, idx);
        }
    }

    fn compact_slot(&mut self, acct: &mut MemoryAccountant, idx: usize) {
        let lru_pos = self.lru_rank(idx);
        let RefState::Expanded(v) = &self.slots[idx].state else {
            return;
        };
        let image = image_of(v);
        let cost = image.len() as u64 * self.config.compact_cost_per_byte;
        self.stats.compactions += 1;
        self.stats.bytes_swizzled += image.len() as u64;
        self.stats.work_units += cost;
        self.tel.work(cost);
        self.pool_event("compact", idx, image.len(), lru_pos);
        acct.remove(MemClass::TransitoryExpanded, self.slots[idx].expanded_size);
        acct.add(MemClass::TransitoryCompact, image.len());
        let slot = &mut self.slots[idx];
        slot.compact_size = image.len();
        slot.pending = false;
        slot.state = RefState::Compact(image);
    }

    fn offload_slot(&mut self, acct: &mut MemoryAccountant, idx: usize) {
        let RefState::Compact(image) = &self.slots[idx].state else {
            return;
        };
        let len = image.len();
        let handle = self.repo.store(image).expect("store");
        let cost = len as u64 * self.config.disk_cost_per_byte;
        self.stats.offload_writes += 1;
        self.stats.bytes_offloaded += len as u64;
        self.stats.work_units += cost;
        self.tel.work(cost);
        self.pool_event("offload", idx, len, 0);
        acct.remove(MemClass::TransitoryCompact, len);
        self.slots[idx].state = RefState::Offloaded(handle);
    }

    /// Builds and sorts every victim list before looking at a
    /// threshold.
    fn enforce(&mut self, acct: &mut MemoryAccountant) {
        let budget = self.config.budget_bytes as f64;
        let t_ir = (budget * self.config.thresholds.ir_compaction) as usize;
        let t_st = (budget * self.config.thresholds.st_compaction) as usize;
        let t_off = (budget * self.config.thresholds.offload) as usize;
        if self.config.max_level >= NaimLevel::CompactIr {
            for idx in self.pending_lru(PoolKind::Ir) {
                if acct.total() <= t_ir {
                    break;
                }
                self.compact_slot(acct, idx);
            }
        }
        if self.config.max_level >= NaimLevel::CompactAll {
            for idx in self.pending_lru(PoolKind::SymTab) {
                if acct.total() <= t_st {
                    break;
                }
                self.compact_slot(acct, idx);
            }
        }
        if self.config.max_level >= NaimLevel::Offload {
            let mut candidates: Vec<usize> = (0..self.slots.len())
                .filter(|&i| matches!(self.slots[i].state, RefState::Compact(_)))
                .collect();
            candidates.sort_by_key(|&i| (std::cmp::Reverse(self.slots[i].compact_size), i));
            for idx in candidates {
                if acct.total() <= t_off {
                    break;
                }
                self.offload_slot(acct, idx);
            }
        }
        let served = self.repo.recycle_arena();
        if served > 0 {
            self.tel.emit(TraceEvent::Arena {
                action: "recycle",
                bytes: served,
            });
        }
    }
}

/// The reference loader: `n` shards over one accountant, pool `g` in
/// shard `g % n` at local slot `g / n`.
struct RefLoader {
    shards: Vec<RefShard>,
    acct: MemoryAccountant,
    n_pools: usize,
}

impl RefLoader {
    fn new(config: &NaimConfig, n_shards: usize, tel: &Telemetry) -> Self {
        let shards = (0..n_shards)
            .map(|s| RefShard {
                config: config.clone(),
                tel: tel.clone(),
                repo: Repository::in_memory(),
                slots: Vec::new(),
                clock: 0,
                stats: LoaderStats::default(),
                id_base: s as u32,
                id_stride: n_shards as u32,
                mmap_announced: false,
            })
            .collect();
        RefLoader {
            shards,
            acct: MemoryAccountant::new(),
            n_pools: 0,
        }
    }

    fn next_shard(&mut self) -> &mut RefShard {
        let n = self.shards.len();
        self.n_pools += 1;
        &mut self.shards[(self.n_pools - 1) % n]
    }

    fn insert(&mut self, value: Payload, kind: PoolKind) {
        let size = value.expanded_bytes();
        self.acct.add(MemClass::TransitoryExpanded, size);
        self.next_shard()
            .push(kind, RefState::Expanded(value), size, 0);
    }

    fn insert_offloaded(&mut self, value: &Payload, kind: PoolKind) {
        let shard = self.next_shard();
        let handle = shard.repo.store(&image_of(value)).expect("store");
        shard.push(kind, RefState::Offloaded(handle), 0, handle.len());
    }

    fn get_mut(&mut self, pool: usize) -> &mut Payload {
        let n = self.shards.len();
        self.shards[pool % n].touch(&mut self.acct, pool / n)
    }

    fn enforce(&mut self) {
        for shard in &mut self.shards {
            shard.enforce(&mut self.acct);
        }
    }

    fn unload(&mut self, pool: usize) {
        let n = self.shards.len();
        self.shards[pool % n].mark_unload(&mut self.acct, pool / n);
        self.enforce();
    }

    fn unload_all(&mut self) {
        for shard in &mut self.shards {
            shard.mark_all_unload(&mut self.acct);
        }
        self.enforce();
    }

    fn state(&self, pool: usize) -> PoolState {
        let n = self.shards.len();
        let slot = &self.shards[pool % n].slots[pool / n];
        match (&slot.state, slot.pending) {
            (RefState::Expanded(_), false) => PoolState::Expanded,
            (RefState::Expanded(_), true) => PoolState::UnloadPending,
            (RefState::Compact(_), _) => PoolState::Compact,
            (RefState::Offloaded(_), _) => PoolState::Offloaded,
        }
    }

    fn stats(&self) -> LoaderStats {
        let mut sum = LoaderStats::default();
        for shard in &self.shards {
            sum.absorb(&shard.stats);
        }
        sum
    }

    fn memory(&self) -> MemorySnapshot {
        self.acct.snapshot()
    }
}

// ---- the loaders under test -------------------------------------------

/// A plain [`Loader`] (the only one that can adopt repository records)
/// or the sharded facade.
enum Real {
    Plain(Box<Loader<Payload>>),
    Sharded(ShardedLoader<Payload>),
}

/// Runs `$body` on whichever loader `$real` holds, bound to `$l`.
macro_rules! on_loader {
    ($real:expr, $l:ident => $body:expr) => {
        match $real {
            Real::Plain($l) => $body,
            Real::Sharded($l) => $body,
        }
    };
}

impl Real {
    fn insert(&mut self, value: Payload, kind: PoolKind) -> PoolId {
        on_loader!(self, l => l.insert(value, kind))
    }

    fn get(&mut self, id: PoolId) -> &Payload {
        on_loader!(self, l => l.get(id)).expect("get")
    }

    fn get_mut(&mut self, id: PoolId) -> &mut Payload {
        on_loader!(self, l => l.get_mut(id)).expect("get_mut")
    }

    fn unload(&mut self, id: PoolId) {
        on_loader!(self, l => l.unload(id)).expect("unload");
    }

    fn unload_all(&mut self) {
        on_loader!(self, l => l.unload_all()).expect("unload_all");
    }

    fn enforce(&mut self) {
        on_loader!(self, l => l.enforce()).expect("enforce");
    }

    fn state(&mut self, id: PoolId) -> PoolState {
        on_loader!(self, l => l.state(id))
    }

    fn stats(&self) -> LoaderStats {
        on_loader!(self, l => l.stats())
    }

    fn memory(&self) -> MemorySnapshot {
        on_loader!(self, l => l.memory())
    }
}

// ---- the property -----------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<i64>, bool),
    /// Adopted from the repository on a plain loader; an ordinary
    /// insert on the sharded facade, which has no such entry point.
    InsertOffloaded(Vec<i64>, bool),
    Get(usize),
    GetMut(usize, i64),
    Unload(usize),
    UnloadAll,
    Enforce,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let data = || proptest::collection::vec(any::<i64>(), 0..48);
    // Reads and unloads are listed twice to outweigh the inserts.
    prop_oneof![
        (data(), any::<bool>()).prop_map(|(d, st)| Op::Insert(d, st)),
        (data(), any::<bool>()).prop_map(|(d, st)| Op::InsertOffloaded(d, st)),
        any::<usize>().prop_map(Op::Get),
        any::<usize>().prop_map(Op::Get),
        (any::<usize>(), any::<i64>()).prop_map(|(i, v)| Op::GetMut(i, v)),
        any::<usize>().prop_map(Op::Unload),
        any::<usize>().prop_map(Op::Unload),
        Just(Op::UnloadAll),
        Just(Op::Enforce),
    ]
}

/// From "never engages" through "some pools stay cached" to "every
/// unload compacts and offloads".
fn arb_budget() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize << 30), 512usize..8192, 0usize..64]
}

fn arb_level() -> impl Strategy<Value = NaimLevel> {
    prop_oneof![
        Just(NaimLevel::Off),
        Just(NaimLevel::CompactIr),
        Just(NaimLevel::CompactAll),
        Just(NaimLevel::Offload),
    ]
}

proptest! {
    // Sixty level x budget-class x shard-count combinations: enough
    // cases to visit each several times.
    #![proptest_config(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })]

    #[test]
    fn queues_match_scan_and_sort(
        ops in proptest::collection::vec(arb_op(), 1..120),
        budget in arb_budget(),
        level in arb_level(),
        // 0: a plain `Loader`; n > 0: a `ShardedLoader` of n shards.
        shards in 0usize..5,
    ) {
        let config = NaimConfig::with_budget(budget).max_level(level).shards(shards);
        let real_tel = Telemetry::enabled();
        let mut real = if shards == 0 {
            let mut l = Loader::new(config.clone());
            l.set_telemetry(real_tel.clone());
            Real::Plain(Box::new(l))
        } else {
            let mut l = ShardedLoader::new(config.clone());
            l.set_telemetry(real_tel.clone());
            Real::Sharded(l)
        };
        let ref_tel = Telemetry::enabled();
        let mut reference = RefLoader::new(&config, shards.max(1), &ref_tel);
        let mut ids: Vec<PoolId> = Vec::new();

        for op in ops {
            let pick = |i: usize| i % ids.len().max(1);
            let kind_of = |symtab| if symtab { PoolKind::SymTab } else { PoolKind::Ir };
            match op {
                Op::InsertOffloaded(data, symtab) if shards == 0 => {
                    let value = Payload(data);
                    let Real::Plain(l) = &mut real else { unreachable!() };
                    let handle = l.repository_mut().store(&image_of(&value)).expect("store");
                    ids.push(l.insert_offloaded(handle, kind_of(symtab)));
                    reference.insert_offloaded(&value, kind_of(symtab));
                }
                Op::Insert(data, symtab) | Op::InsertOffloaded(data, symtab) => {
                    ids.push(real.insert(Payload(data.clone()), kind_of(symtab)));
                    reference.insert(Payload(data), kind_of(symtab));
                }
                Op::Get(i) if !ids.is_empty() => {
                    let expected = reference.get_mut(pick(i)).clone();
                    prop_assert_eq!(real.get(ids[pick(i)]), &expected);
                }
                Op::GetMut(i, v) if !ids.is_empty() => {
                    real.get_mut(ids[pick(i)]).0.push(v);
                    reference.get_mut(pick(i)).0.push(v);
                }
                Op::Unload(i) if !ids.is_empty() => {
                    real.unload(ids[pick(i)]);
                    reference.unload(pick(i));
                }
                Op::UnloadAll => {
                    real.unload_all();
                    reference.unload_all();
                }
                Op::Enforce => {
                    real.enforce();
                    reference.enforce();
                }
                _ => {}
            }
            for (pool, &id) in ids.iter().enumerate() {
                prop_assert_eq!(real.state(id), reference.state(pool), "pool {}", pool);
            }
            prop_assert_eq!(real.stats(), reference.stats());
            prop_assert_eq!(real.memory(), reference.memory());
        }
        prop_assert_eq!(real_tel.drain_records(), ref_tel.drain_records());
    }
}
