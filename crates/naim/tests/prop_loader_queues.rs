//! Property test: the loader's incrementally maintained residency
//! queues pick exactly the victims, in exactly the order, that a scan
//! of every slot followed by a sort would pick.
//!
//! [`RefLoader`] below is the reference: it rebuilds the unload-pending
//! LRU and the offload candidate list from the whole slot table on
//! every access, re-measures every pool on every unload, and ranks a
//! pool by searching the rebuilt list. Random operation sequences run
//! against it and against the real [`Loader`], and every observable
//! must agree: pool states, [`LoaderStats`],
//! [`cmo_naim::MemorySnapshot`] (so accounted peaks), and the drained trace
//! records (so every work-clock stamp, victim and `lru_pos`).

use cmo_naim::{
    DecodeError, Decoder, Encoder, Loader, LoaderStats, MemClass, MemoryAccountant, NaimConfig,
    NaimLevel, PoolId, PoolKind, PoolState, Relocatable, RepoHandle, Repository,
    COMPACT_COST_PER_BYTE, DISK_COST_PER_BYTE, FETCH_COST_PER_BYTE, IR_COMPACTION_THRESHOLD,
    OFFLOAD_THRESHOLD, ST_COMPACTION_THRESHOLD,
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

/// The reference loader.
struct RefLoader {
    config: NaimConfig,
    tel: Telemetry,
    repo: Repository,
    acct: MemoryAccountant,
    slots: Vec<RefSlot>,
    clock: u64,
    stats: LoaderStats,
}

impl RefLoader {
    fn new(config: &NaimConfig, tel: &Telemetry) -> Self {
        RefLoader {
            config: config.clone(),
            tel: tel.clone(),
            repo: Repository::in_memory(),
            acct: MemoryAccountant::new(),
            slots: Vec::new(),
            clock: 0,
            stats: LoaderStats::default(),
        }
    }

    fn pool_event(&self, action: &'static str, idx: usize, bytes: usize, lru_pos: u32) {
        self.tel.emit(TraceEvent::Pool {
            action,
            pool: idx as u32,
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

    fn expand(&mut self, idx: usize) {
        let (image_len, value) = match &self.slots[idx].state {
            RefState::Expanded(_) => return,
            RefState::Offloaded(handle) => {
                let image = self.repo.fetch_ref(*handle).expect("fetch");
                let len = image.len();
                let value = Payload::uncompact(&mut Decoder::new(image)).expect("uncompact");
                let fetch_cost = len as u64 * FETCH_COST_PER_BYTE;
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
                self.acct.remove(MemClass::TransitoryCompact, image.len());
                (image.len(), value)
            }
        };
        let cost = image_len as u64 * COMPACT_COST_PER_BYTE;
        self.stats.uncompactions += 1;
        self.stats.bytes_swizzled += image_len as u64;
        self.stats.work_units += cost;
        self.tel.work(cost);
        self.pool_event("expand", idx, image_len, 0);
        let size = value.expanded_bytes();
        self.acct.add(MemClass::TransitoryExpanded, size);
        self.slots[idx].expanded_size = size;
        self.slots[idx].state = RefState::Expanded(value);
    }

    fn get_mut(&mut self, idx: usize) -> &mut Payload {
        if matches!(self.slots[idx].state, RefState::Expanded(_)) {
            self.stats.hits += 1;
            if self.slots[idx].pending {
                let lru_pos = self.lru_rank(idx);
                self.stats.cache_rescues += 1;
                self.pool_event("rescue", idx, self.slots[idx].expanded_size, lru_pos);
            }
        } else {
            self.expand(idx);
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
    fn mark_unload(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        if let RefState::Expanded(v) = &slot.state {
            let new_size = v.expanded_bytes();
            self.acct.adjust(
                MemClass::TransitoryExpanded,
                new_size as isize - slot.expanded_size as isize,
            );
            slot.expanded_size = new_size;
            slot.pending = true;
        }
    }

    fn compact_slot(&mut self, idx: usize) {
        let lru_pos = self.lru_rank(idx);
        let RefState::Expanded(v) = &self.slots[idx].state else {
            return;
        };
        let image = image_of(v);
        let cost = image.len() as u64 * COMPACT_COST_PER_BYTE;
        self.stats.compactions += 1;
        self.stats.bytes_swizzled += image.len() as u64;
        self.stats.work_units += cost;
        self.tel.work(cost);
        self.pool_event("compact", idx, image.len(), lru_pos);
        self.acct
            .remove(MemClass::TransitoryExpanded, self.slots[idx].expanded_size);
        self.acct.add(MemClass::TransitoryCompact, image.len());
        let slot = &mut self.slots[idx];
        slot.compact_size = image.len();
        slot.pending = false;
        slot.state = RefState::Compact(image);
    }

    fn offload_slot(&mut self, idx: usize) {
        let RefState::Compact(image) = &self.slots[idx].state else {
            return;
        };
        let len = image.len();
        let handle = self.repo.store(image).expect("store");
        let cost = len as u64 * DISK_COST_PER_BYTE;
        self.stats.offload_writes += 1;
        self.stats.bytes_offloaded += len as u64;
        self.stats.work_units += cost;
        self.tel.work(cost);
        self.pool_event("offload", idx, len, 0);
        self.acct.remove(MemClass::TransitoryCompact, len);
        self.slots[idx].state = RefState::Offloaded(handle);
    }

    /// Builds and sorts every victim list before looking at a
    /// threshold.
    fn enforce(&mut self) {
        let budget = self.config.budget_bytes as f64;
        let t_ir = (budget * IR_COMPACTION_THRESHOLD) as usize;
        let t_st = (budget * ST_COMPACTION_THRESHOLD) as usize;
        let t_off = (budget * OFFLOAD_THRESHOLD) as usize;
        if self.config.max_level >= NaimLevel::CompactIr {
            for idx in self.pending_lru(PoolKind::Ir) {
                if self.acct.total() <= t_ir {
                    break;
                }
                self.compact_slot(idx);
            }
        }
        if self.config.max_level >= NaimLevel::CompactAll {
            for idx in self.pending_lru(PoolKind::SymTab) {
                if self.acct.total() <= t_st {
                    break;
                }
                self.compact_slot(idx);
            }
        }
        if self.config.max_level >= NaimLevel::Offload {
            let mut candidates: Vec<usize> = (0..self.slots.len())
                .filter(|&i| matches!(self.slots[i].state, RefState::Compact(_)))
                .collect();
            candidates.sort_by_key(|&i| (std::cmp::Reverse(self.slots[i].compact_size), i));
            for idx in candidates {
                if self.acct.total() <= t_off {
                    break;
                }
                self.offload_slot(idx);
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

    fn insert(&mut self, value: Payload, kind: PoolKind) {
        let size = value.expanded_bytes();
        self.acct.add(MemClass::TransitoryExpanded, size);
        self.push(kind, RefState::Expanded(value), size, 0);
    }

    fn insert_offloaded(&mut self, value: &Payload, kind: PoolKind) {
        let handle = self.repo.store(&image_of(value)).expect("store");
        self.push(kind, RefState::Offloaded(handle), 0, handle.len());
    }

    fn unload(&mut self, idx: usize) {
        self.mark_unload(idx);
        self.enforce();
    }

    fn unload_all(&mut self) {
        for idx in 0..self.slots.len() {
            self.mark_unload(idx);
        }
        self.enforce();
    }

    fn state(&self, idx: usize) -> PoolState {
        let slot = &self.slots[idx];
        match (&slot.state, slot.pending) {
            (RefState::Expanded(_), false) => PoolState::Expanded,
            (RefState::Expanded(_), true) => PoolState::UnloadPending,
            (RefState::Compact(_), _) => PoolState::Compact,
            (RefState::Offloaded(_), _) => PoolState::Offloaded,
        }
    }
}

// ---- the property -----------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<i64>, bool),
    /// Adopted from the repository.
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
    // Twelve level x budget-class combinations: enough cases to visit
    // each many times.
    #![proptest_config(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })]

    #[test]
    fn queues_match_scan_and_sort(
        ops in proptest::collection::vec(arb_op(), 1..120),
        budget in arb_budget(),
        level in arb_level(),
    ) {
        let config = NaimConfig::with_budget(budget).max_level(level);
        let real_tel = Telemetry::enabled();
        let mut real: Loader<Payload> = Loader::new(config.clone());
        real.set_telemetry(real_tel.clone());
        let ref_tel = Telemetry::enabled();
        let mut reference = RefLoader::new(&config, &ref_tel);
        let mut ids: Vec<PoolId> = Vec::new();

        for op in ops {
            let pick = |i: usize| i % ids.len().max(1);
            let kind_of = |symtab| if symtab { PoolKind::SymTab } else { PoolKind::Ir };
            match op {
                Op::Insert(data, symtab) => {
                    ids.push(real.insert(Payload(data.clone()), kind_of(symtab)));
                    reference.insert(Payload(data), kind_of(symtab));
                }
                Op::InsertOffloaded(data, symtab) => {
                    let value = Payload(data);
                    let handle = real.repository_mut().store(&image_of(&value)).expect("store");
                    ids.push(real.insert_offloaded(handle, kind_of(symtab)));
                    reference.insert_offloaded(&value, kind_of(symtab));
                }
                Op::Get(i) if !ids.is_empty() => {
                    let expected = reference.get_mut(pick(i)).clone();
                    prop_assert_eq!(real.get(ids[pick(i)]).expect("get"), &expected);
                }
                Op::GetMut(i, v) if !ids.is_empty() => {
                    real.get_mut(ids[pick(i)]).expect("get_mut").0.push(v);
                    reference.get_mut(pick(i)).0.push(v);
                }
                Op::Unload(i) if !ids.is_empty() => {
                    real.unload(ids[pick(i)]).expect("unload");
                    reference.unload(pick(i));
                }
                Op::UnloadAll => {
                    real.unload_all().expect("unload_all");
                    reference.unload_all();
                }
                Op::Enforce => {
                    real.enforce().expect("enforce");
                    reference.enforce();
                }
                _ => {}
            }
            for (pool, &id) in ids.iter().enumerate() {
                prop_assert_eq!(real.state(id), reference.state(pool), "pool {}", pool);
            }
            prop_assert_eq!(real.stats(), reference.stats);
            prop_assert_eq!(real.memory(), reference.acct.snapshot());
        }
        prop_assert_eq!(real_tel.drain_records(), ref_tel.drain_records());
    }
}
