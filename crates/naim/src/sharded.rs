//! A sharded, thread-safe facade over the NAIM [`Loader`] (§8).
//!
//! The paper names parallelizing NAIM load/unload alongside
//! optimization as future work; this module is that step. Pools are
//! distributed round-robin over `NaimConfig::shards` independent
//! [`Loader`]s, each behind its own mutex, and every shard reports
//! into one program-wide [`SharedAccountant`] — so the expand/compact/
//! offload thresholds of §4.3 still see the *whole* optimizer heap,
//! not a per-shard slice.
//!
//! Two access styles coexist:
//!
//! * The `&mut self` API mirrors [`Loader`] method-for-method
//!   ([`ShardedLoader::get`], [`ShardedLoader::get_mut`],
//!   [`ShardedLoader::unload`], …) and returns plain references. With
//!   exclusive access the mutexes are bypassed via `Mutex::get_mut`,
//!   so single-threaded callers (the HLO session) pay nothing.
//! * The `&self` API ([`ShardedLoader::with`],
//!   [`ShardedLoader::with_mut`], [`ShardedLoader::touch_shared`],
//!   [`ShardedLoader::unload_shared`]) locks only the owning shard and
//!   may be called concurrently from the driver's worker pool;
//!   operations on different shards proceed in parallel.
//!
//! Pool ids are *global*: pool `g` lives in shard `g % n` at local
//! index `g / n`, and each shard stamps the global id into its
//! telemetry events, so traces read identically whatever the shard
//! count.

use crate::accounting::{MemCharge, MemClass, MemorySnapshot, SharedAccountant};
use crate::error::NaimError;
use crate::loader::{Loader, LoaderStats, NaimConfig, PoolId, PoolKind, PoolState, Relocatable};
use crate::repository::{MemBackend, RepoBackend, Repository};
use cmo_telemetry::Telemetry;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks a shard, recovering from poisoning: loader state is guarded
/// by per-method invariants, not by panic-freedom of other threads.
fn lock<T, B>(shard: &Mutex<Loader<T, B>>) -> MutexGuard<'_, Loader<T, B>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread-safe loader composed of per-shard [`Loader`]s with one
/// shared memory accountant.
///
/// Construct with [`ShardedLoader::new`]; the shard count comes from
/// [`NaimConfig::shards`].
#[derive(Debug)]
pub struct ShardedLoader<T, B = MemBackend> {
    shards: Vec<Mutex<Loader<T, B>>>,
    accountant: Arc<SharedAccountant>,
    config: NaimConfig,
    /// Total pools ever inserted; also the next global pool id.
    n_pools: u32,
}

impl<T: Relocatable> ShardedLoader<T, MemBackend> {
    /// Creates a sharded loader with in-memory repository backends
    /// (one per shard).
    #[must_use]
    pub fn new(config: NaimConfig) -> Self {
        let n = config.shards.max(1);
        let repos = (0..n).map(|_| Repository::in_memory()).collect();
        ShardedLoader::with_repositories(config, repos)
    }
}

impl<T: Relocatable, B: RepoBackend> ShardedLoader<T, B> {
    /// Creates a sharded loader over explicit repositories, one per
    /// shard.
    ///
    /// # Panics
    ///
    /// Panics if `repos` is empty or its length disagrees with
    /// `config.shards` (when `config.shards > 1`).
    pub fn with_repositories(config: NaimConfig, repos: Vec<Repository<B>>) -> Self {
        let n = config.shards.max(1);
        assert_eq!(
            repos.len(),
            n,
            "need exactly one repository per shard ({n})"
        );
        let accountant = Arc::new(SharedAccountant::new());
        let stride = u32::try_from(n).expect("shard count fits in u32");
        let shards = repos
            .into_iter()
            .enumerate()
            .map(|(s, repo)| {
                Mutex::new(Loader::shard(
                    config.clone(),
                    repo,
                    Arc::clone(&accountant),
                    s as u32,
                    stride,
                ))
            })
            .collect();
        ShardedLoader {
            shards,
            accountant,
            config,
            n_pools: 0,
        }
    }

    /// Attaches a telemetry sink shared by every shard.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for shard in &mut self.shards {
            shard
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .set_telemetry(telemetry.clone());
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &NaimConfig {
        &self.config
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard index owning global pool `id`.
    fn shard_of(&self, id: PoolId) -> usize {
        id.index() % self.shards.len()
    }

    /// Per-shard pool id for global pool `id`.
    fn local_of(&self, id: PoolId) -> PoolId {
        PoolId::from_raw((id.index() / self.shards.len()) as u32)
    }

    /// Exclusive (lock-free) access to the shard owning `id`.
    fn owner_mut(&mut self, id: PoolId) -> (&mut Loader<T, B>, PoolId) {
        let s = self.shard_of(id);
        let local = self.local_of(id);
        let loader = self.shards[s]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        (loader, local)
    }

    /// Registers a new pool, assigning it the next global id.
    /// Distribution over shards is round-robin in insertion order, so
    /// global ids are dense and shard placement is deterministic.
    pub fn insert(&mut self, value: T, kind: PoolKind) -> PoolId {
        let id = PoolId::from_raw(self.n_pools);
        self.n_pools += 1;
        let (loader, local) = self.owner_mut(id);
        let got = loader.insert(value, kind);
        debug_assert_eq!(got, local, "round-robin id mapping out of sync");
        id
    }

    /// Shared reference to the expanded pool, loading it if necessary.
    ///
    /// # Errors
    ///
    /// Returns a decode or repository error if re-expansion fails.
    pub fn get(&mut self, id: PoolId) -> Result<&T, NaimError> {
        let (loader, local) = self.owner_mut(id);
        loader.get(local)
    }

    /// Exclusive reference to the expanded pool, loading it if
    /// necessary.
    ///
    /// # Errors
    ///
    /// Returns a decode or repository error if re-expansion fails.
    pub fn get_mut(&mut self, id: PoolId) -> Result<&mut T, NaimError> {
        let (loader, local) = self.owner_mut(id);
        loader.get_mut(local)
    }

    /// Moves the pool's value out of the loader, loading it first if
    /// necessary (same counters, work units and trace events as the
    /// [`ShardedLoader::get`] it replaces); `id` is dead afterwards.
    ///
    /// # Errors
    ///
    /// Returns a decode or repository error if re-expansion fails.
    pub fn take(&mut self, id: PoolId) -> Result<T, NaimError> {
        let (loader, local) = self.owner_mut(id);
        loader.take(local)
    }

    /// Ensures the pool is expanded and marks it recently used.
    ///
    /// # Errors
    ///
    /// Returns a decode or repository error if re-expansion fails.
    pub fn touch(&mut self, id: PoolId) -> Result<(), NaimError> {
        let (loader, local) = self.owner_mut(id);
        loader.touch(local)
    }

    /// Current residency state of `id`.
    #[must_use]
    pub fn state(&mut self, id: PoolId) -> PoolState {
        let (loader, local) = self.owner_mut(id);
        loader.state(local)
    }

    /// Kind of the pool `id`.
    #[must_use]
    pub fn kind(&mut self, id: PoolId) -> PoolKind {
        let (loader, local) = self.owner_mut(id);
        loader.kind(local)
    }

    /// Declares that the client no longer needs `id` expanded, then
    /// enforces the program-wide memory policy.
    ///
    /// # Errors
    ///
    /// Propagates enforcement failures (hard out-of-memory).
    pub fn unload(&mut self, id: PoolId) -> Result<(), NaimError> {
        let (loader, local) = self.owner_mut(id);
        loader.mark_unload(local);
        self.enforce()
    }

    /// Marks every pool in every shard unload-pending and enforces.
    ///
    /// # Errors
    ///
    /// Propagates enforcement failures (hard out-of-memory).
    pub fn unload_all(&mut self) -> Result<(), NaimError> {
        for shard in &mut self.shards {
            shard
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .mark_all_unload();
        }
        self.enforce()
    }

    /// Runs the threshold sweep on every shard, then checks the
    /// program-wide hard limit once. Sweeping all shards before the
    /// check matters: one shard over the limit is not out of memory
    /// while another still holds reclaimable pending pools.
    ///
    /// # Errors
    ///
    /// Returns [`NaimError::OutOfMemory`] if the heap cannot be brought
    /// under the hard limit.
    pub fn enforce(&mut self) -> Result<(), NaimError> {
        for shard in &mut self.shards {
            shard
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .enforce_unlimited()?;
        }
        self.check_hard_limit()
    }

    /// Records memory occupied by structures outside the loader's
    /// control (global or derived data).
    pub fn account(&self, class: MemClass, delta: isize) {
        self.accountant.adjust(class, delta);
    }

    /// Like [`ShardedLoader::account`], but the bytes are released when
    /// the returned guard is dropped.
    #[must_use]
    pub fn charge(&self, class: MemClass, bytes: usize) -> MemCharge {
        MemCharge::new(Arc::clone(&self.accountant), class, bytes)
    }

    /// Program-wide memory accounting snapshot.
    #[must_use]
    pub fn memory(&self) -> MemorySnapshot {
        self.accountant.snapshot()
    }

    /// Activity counters summed over all shards.
    #[must_use]
    pub fn stats(&self) -> LoaderStats {
        let mut sum = LoaderStats::default();
        for shard in &self.shards {
            sum.absorb(&lock(shard).stats());
        }
        sum
    }

    /// Pool counts per state summed over all shards:
    /// `(expanded, pending, compact, offloaded)`.
    #[must_use]
    pub fn census(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for shard in &self.shards {
            let (e, p, k, o) = lock(shard).census();
            c.0 += e;
            c.1 += p;
            c.2 += k;
            c.3 += o;
        }
        c
    }

    /// Hard-limit check against the shared accountant; see
    /// [`ShardedLoader::enforce`].
    fn check_hard_limit(&self) -> Result<(), NaimError> {
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

    // ---- concurrent (&self) API ------------------------------------
    //
    // Each method locks exactly one shard at a time, in a single
    // acquire-release per call — no nested locks, hence no deadlock.

    /// Runs `f` over the expanded pool, loading it if necessary, while
    /// holding only the owning shard's lock.
    ///
    /// # Errors
    ///
    /// Returns a decode or repository error if re-expansion fails.
    pub fn with<R>(&self, id: PoolId, f: impl FnOnce(&T) -> R) -> Result<R, NaimError> {
        let mut loader = lock(&self.shards[self.shard_of(id)]);
        loader.get(self.local_of(id)).map(f)
    }

    /// Runs `f` over the expanded pool with exclusive access, holding
    /// only the owning shard's lock.
    ///
    /// # Errors
    ///
    /// Returns a decode or repository error if re-expansion fails.
    pub fn with_mut<R>(&self, id: PoolId, f: impl FnOnce(&mut T) -> R) -> Result<R, NaimError> {
        let mut loader = lock(&self.shards[self.shard_of(id)]);
        loader.get_mut(self.local_of(id)).map(f)
    }

    /// Thread-safe [`ShardedLoader::touch`].
    ///
    /// # Errors
    ///
    /// Returns a decode or repository error if re-expansion fails.
    pub fn touch_shared(&self, id: PoolId) -> Result<(), NaimError> {
        lock(&self.shards[self.shard_of(id)]).touch(self.local_of(id))
    }

    /// Thread-safe [`ShardedLoader::unload`]: marks the pool pending
    /// and sweeps its own shard; the full cross-shard sweep runs only
    /// if the hard limit is still exceeded afterwards.
    ///
    /// # Errors
    ///
    /// Propagates enforcement failures (hard out-of-memory).
    pub fn unload_shared(&self, id: PoolId) -> Result<(), NaimError> {
        {
            let mut loader = lock(&self.shards[self.shard_of(id)]);
            loader.mark_unload(self.local_of(id));
            loader.enforce_unlimited()?;
        }
        if self.check_hard_limit().is_err() {
            self.enforce_shared()?;
        }
        Ok(())
    }

    /// Thread-safe [`ShardedLoader::enforce`], locking shards one at a
    /// time.
    ///
    /// # Errors
    ///
    /// Returns [`NaimError::OutOfMemory`] if the heap cannot be brought
    /// under the hard limit.
    pub fn enforce_shared(&self) -> Result<(), NaimError> {
        for shard in &self.shards {
            lock(shard).enforce_unlimited()?;
        }
        self.check_hard_limit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{Decoder, Encoder};
    use crate::error::DecodeError;

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

    fn config(shards: usize) -> NaimConfig {
        NaimConfig::with_budget(4096).shards(shards)
    }

    #[test]
    fn facade_is_send_and_sync() {
        fn assert_send_sync<X: Send + Sync>() {}
        assert_send_sync::<ShardedLoader<Blob>>();
    }

    #[test]
    fn poisoned_shard_stays_usable() {
        let mut l: ShardedLoader<Blob> = ShardedLoader::new(config(2));
        let ids: Vec<_> = (0..8)
            .map(|i| l.insert(Blob::of(i, 50), PoolKind::Ir))
            .collect();
        let loader = Arc::new(l);
        // Panic while holding a shard's lock, poisoning its mutex.
        let poisoner = Arc::clone(&loader);
        let first = ids[0];
        let result = std::thread::spawn(move || {
            poisoner
                .with(first, |_| panic!("worker died mid-access"))
                .unwrap()
        })
        .join();
        assert!(result.is_err(), "the panic must reach the worker's join");
        // Every pool — including those on the poisoned shard — remains
        // readable, and the loader still accepts shared-access traffic.
        for (i, &id) in ids.iter().enumerate() {
            let blob = loader.with(id, Clone::clone).unwrap();
            assert_eq!(blob, Blob::of(i as u64, 50));
        }
        loader.unload_shared(first).unwrap();
        let blob = loader.with(first, Clone::clone).unwrap();
        assert_eq!(blob, Blob::of(0, 50));
    }

    #[test]
    fn round_trips_through_all_states_across_shards() {
        let mut loader: ShardedLoader<Blob> = ShardedLoader::new(config(4));
        assert_eq!(loader.n_shards(), 4);
        let ids: Vec<_> = (0..32)
            .map(|i| loader.insert(Blob::of(i, 100), PoolKind::Ir))
            .collect();
        // Dense global ids, round-robin over shards.
        assert_eq!(ids[5].index(), 5);
        loader.unload_all().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(loader.get(id).unwrap(), &Blob::of(i as u64, 100));
        }
        assert!(loader.stats().compactions > 0);
    }

    #[test]
    fn single_shard_matches_plain_loader_behaviour() {
        let mut sharded: ShardedLoader<Blob> = ShardedLoader::new(config(1));
        let mut plain: Loader<Blob> = Loader::new(config(1));
        let mut ids = Vec::new();
        for i in 0..64 {
            let a = sharded.insert(Blob::of(i, 100), PoolKind::Ir);
            let b = plain.insert(Blob::of(i, 100), PoolKind::Ir);
            assert_eq!(a.index(), b.index());
            sharded.unload(a).unwrap();
            plain.unload(b).unwrap();
        }
        assert_eq!(sharded.stats(), plain.stats());
        assert_eq!(sharded.census(), plain.census());
        assert_eq!(sharded.memory().peak_total, plain.memory().peak_total);
        for &id in &ids {
            assert_eq!(sharded.state(id), plain.state(id));
        }
        ids.clear();
    }

    #[test]
    fn budget_is_enforced_program_wide_not_per_shard() {
        // With a shared accountant, inserting everything into shard 0's
        // id space still counts against the global total seen by every
        // shard's thresholds.
        let mut loader: ShardedLoader<Blob> = ShardedLoader::new(config(4));
        for i in 0..64 {
            let id = loader.insert(Blob::of(i, 100), PoolKind::Ir);
            loader.unload(id).unwrap();
        }
        let snap = loader.memory();
        assert!(loader.stats().compactions > 0);
        assert!(snap.total() <= snap.peak_total);
    }

    #[test]
    fn hard_limit_consults_all_shards_before_failing() {
        // Lots of pending pools spread over shards; the hard limit is
        // generous enough for the *compacted* program but far below the
        // expanded total. A per-shard hard check would fail before
        // other shards got a chance to compact; the facade must
        // succeed.
        let cfg = NaimConfig::with_budget(2048).shards(4).hard_limit(64 << 10);
        let mut loader: ShardedLoader<Blob> = ShardedLoader::new(cfg);
        for i in 0..32 {
            let id = loader.insert(Blob::of(i, 100), PoolKind::Ir);
            loader.unload(id).unwrap();
        }
        // And a genuinely-too-small limit still fails.
        let cfg = NaimConfig::disabled().shards(2).hard_limit(512);
        let mut loader: ShardedLoader<Blob> = ShardedLoader::new(cfg);
        loader.insert(Blob::of(1, 1000), PoolKind::Ir);
        assert!(matches!(
            loader.unload_all(),
            Err(NaimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn concurrent_get_unload_touch_across_shards() {
        // The ISSUE's smoke test: hammer the &self API from several
        // threads and check nothing panics, deadlocks, or corrupts
        // pool contents or accounting.
        let cfg = NaimConfig::with_budget(8192).shards(4);
        let mut loader: ShardedLoader<Blob> = ShardedLoader::new(cfg);
        let ids: Vec<_> = (0..64)
            .map(|i| loader.insert(Blob::of(i, 50), PoolKind::Ir))
            .collect();
        loader.unload_all().unwrap();
        let loader = &loader;
        std::thread::scope(|s| {
            for t in 0..4usize {
                let ids = &ids;
                s.spawn(move || {
                    for round in 0..50 {
                        for (i, &id) in ids.iter().enumerate().skip(t % 4) {
                            match (i + round + t) % 3 {
                                0 => {
                                    let ok =
                                        loader.with(id, |b| *b == Blob::of(i as u64, 50)).unwrap();
                                    assert!(ok, "pool {i} corrupted");
                                }
                                1 => loader.touch_shared(id).unwrap(),
                                _ => loader.unload_shared(id).unwrap(),
                            }
                        }
                    }
                });
            }
        });
        // All pools still intact and accounted after the storm.
        let snap = loader.memory();
        assert!(snap.total() > 0);
        for (i, &id) in ids.iter().enumerate() {
            loader
                .with(id, |b| assert_eq!(b, &Blob::of(i as u64, 50)))
                .unwrap();
        }
    }

    #[test]
    fn with_mut_mutations_survive_eviction() {
        let mut loader: ShardedLoader<Blob> = ShardedLoader::new(config(2));
        let id = loader.insert(Blob::of(1, 100), PoolKind::Ir);
        loader.with_mut(id, |b| b.payload.push(777)).unwrap();
        loader.unload(id).unwrap();
        for i in 0..64 {
            let other = loader.insert(Blob::of(i, 100), PoolKind::Ir);
            loader.unload(other).unwrap();
        }
        loader
            .with(id, |b| assert_eq!(*b.payload.last().unwrap(), 777))
            .unwrap();
    }
}
