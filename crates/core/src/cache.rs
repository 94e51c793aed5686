//! Persistent incremental-compilation cache over the content-addressed
//! NAIM repository.
//!
//! The cache lives in a directory (`cmocc --cache-dir DIR`) holding two
//! files:
//!
//! * `repo.naim` — a versioned, checksummed [`Repository`] of
//!   relocatable pool images, each one tagged entry (a front-end IL
//!   object, a module's code slot, or a whole build: its linked machine
//!   image and compile report in one record);
//! * `manifest.tsv` — a text index mapping cache keys (module and
//!   build fingerprints, code-slot names) to the content hashes of
//!   their entries.
//!
//! Three tiers answer, cheapest reuse first. The **build tier** replays
//! a whole image and report when nothing changed. The **module tier**
//! spares the front end for every unchanged source. Between them the
//! **code tier** spares the low-level optimizer for every routine whose
//! post-HLO body did not change: one slot per (module, opt level,
//! instrumentation) — manifest line `code:{mode}:{module}` — holds the
//! `cmo_llo::memo` entries that module's live routines used in the
//! last build, keyed id-free so link order and routine numbering do not
//! matter. A build fetches each slot once (`BuildCache::get_code`),
//! workers look entries up in the copied-out bytes, and afterwards only
//! the slots whose key set changed are rewritten — replaced, never
//! merged (`BuildCache::put_code`); see ARCHITECTURE.md, "The code
//! tier".
//!
//! Records are read on the direct path: [`Repository::fetch_ref`] hands
//! back a CRC-verified borrowed slice (a memory-mapped view, or the
//! repository's scratch arena) and the entry is decoded straight from
//! it — no loader, no pool handle, no intermediate owned entry. A
//! module-tier hit is not decoded at all at probe time: it comes back
//! as a [`CachedObject`], the stored object file's verified bytes,
//! which the driver decodes only if the build tier misses and the link
//! needs the object. Any repository error on the way back — a short
//! read, a CRC mismatch, a stale index — degrades to a cache miss with
//! an `"invalidate"` trace event and a full recompilation of the
//! affected module; a corrupt cache can cost time, never correctness.
//! That holds for the one kind of damage only a decode can find
//! (CRC-valid bytes that are not an object), which
//! [`BuildCache::materialize`] reports late, after the probe counted a
//! hit: the counters are corrected to what an eager decode would have
//! reported. [`BuildCache::gc`] decodes every record it keeps, so a
//! collected cache holds no such record.
//!
//! # Determinism
//!
//! All cache probes and stores happen on the driver's main thread in
//! module input order, so traces and reports stay byte-identical at
//! every `-j` worker count — and so is the *storage operation stream*,
//! which is what makes the kill-point fault sweep deterministic. A warm
//! full-build hit replays the *cold* run's stored [`CompileReport`],
//! whose stored cache counters it presents in place of its own
//! ([`CompileReport::replayed`]), which is what makes `--report-json`
//! byte-identical between cold and warm builds.
//!
//! # Crash safety
//!
//! All I/O goes through the [`Storage`] trait (so tests can interpose
//! `FaultyStorage`), and [`BuildCache::persist`] commits a generation
//! — when this session changed one: a session that stored no record,
//! added or dropped no manifest line, repaired nothing on open and ran
//! no GC has nothing to make durable, and its persist writes nothing
//! (a no-change build leaves all three files byte-identical and issues
//! no fsync). The one exception is a cache on a two-tier storage stack:
//! the commit's barriers are the only points at which the remote tier
//! is written (and, on a fresh machine, at which what read-through
//! populated locally is fsynced), so such a session always commits.
//! The commit runs in a fixed order:
//!
//! 1. append the repository index segment, then **fsync** `repo.naim`;
//! 2. atomically replace `commit.journal` (write temp → fsync →
//!    rename) recording the synced repository length;
//! 3. atomically replace `manifest.tsv` the same way.
//!
//! On open, the journal rolls an over-long repository back to its last
//! committed length (a crash between steps 1 and 2), the record-chain
//! scan truncates any remaining torn tail, and an unreadable store is
//! recreated from scratch. Each repair emits a `recover` trace event
//! and at worst forces recompilation — never a panic, never stale
//! bytes: manifest entries pointing at rolled-back records simply miss.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

use cmo_ir::{IlObject, ObjectDecodeError};
use cmo_llo::memo::CodeKey;
use cmo_naim::{
    ContentHash, DecodeError, Decoder, DiskStorage, Encoder, NaimError, Repository, Storage,
};
use cmo_telemetry::{Telemetry, TraceEvent};
use cmo_vm::MachineImage;

use crate::driver::{BuildOptions, OptLevel};
use crate::report::CompileReport;

/// Cache format epoch. Bumped whenever fingerprint inputs, the entry
/// encoding, or the manifest layout change, so stale caches from
/// earlier compiler builds miss cleanly instead of decoding garbage.
/// (4: the report codec gained the `cache.gc` counters.)
/// (5: the report codec gained the `hlo.clusters` partition counters.)
/// (6: the report codec gained the `faults.remote` tier counters.)
/// (7: profile-slice keys — module entries compose per-module profile
/// slice fingerprints, the build tier keys on the slice vector plus a
/// residual slice, and scope sidecars joined the entry encoding.)
/// (8: the options signature lost the unread `NaimConfig::cache_pools`.)
/// (9: module entries key on the source alone, the build tier hashes
/// the profile through `ProfileDb::fingerprint`, scope sidecars and the
/// report's `cache.profile` counters are gone.)
/// (10: a build is one `build:` record, image then report, and the
/// report codec writes the JSON's fields in the JSON's order.)
/// (11: `ContentHash` reads eight bytes per step, so every key,
/// manifest hash and record address moved.)
pub const CACHE_FORMAT: u32 = 11;

/// First line of `manifest.tsv`.
const MANIFEST_SCHEMA: &str = "cmo.cache.v1";

/// First line of `commit.journal`.
const JOURNAL_SCHEMA: &str = "cmo.journal.v1";

/// Repository file name inside the cache directory.
const REPO_FILE: &str = "repo.naim";

/// Manifest file name inside the cache directory.
const MANIFEST_FILE: &str = "manifest.tsv";

/// Commit-journal file name inside the cache directory.
const JOURNAL_FILE: &str = "commit.journal";

/// Temp name the garbage collector builds a new repository generation
/// under before atomically renaming it onto [`REPO_FILE`]. An orphan
/// (a GC that died before its swap) is removed on the next open.
const GC_TEMP_FILE: &str = "repo.naim.gc";

/// Counters for cache activity during one build, surfaced in the
/// `cache` section of the unified report.
///
/// Only counters that are identical between a cold run and the warm
/// run that replays it *at the moment the report is stored* live here;
/// store events are visible in the trace instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Whether a cache directory was attached to this build at all.
    pub enabled: bool,
    /// Module-scope probes satisfied from the cache (front end skipped).
    pub module_hits: u64,
    /// Module-scope probes that missed and recompiled.
    pub module_misses: u64,
    /// Whole-build probes satisfied from the cache (image + report
    /// replayed, HLO/LLO/link skipped).
    pub build_hits: u64,
    /// Entries discarded because they could not be fetched back intact
    /// (truncation, CRC mismatch, dangling manifest line).
    pub invalidations: u64,
    /// Mark-and-sweep compactions run during this build
    /// (`--gc-threshold-bytes` auto-trigger or an explicit
    /// [`BuildCache::gc`]).
    pub gc_runs: u64,
    /// Bytes reclaimed across those compactions.
    pub gc_reclaimed_bytes: u64,
    /// Live records copied by the most recent compaction.
    pub gc_live_records: u64,
    /// Dangling manifest lines pruned across those compactions.
    pub gc_pruned_lines: u64,
}

/// Outcome of one [`BuildCache::gc`] compaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Bytes reclaimed by the generation swap (old size − new size).
    pub reclaimed_bytes: u64,
    /// Records copied into the new generation.
    pub live_records: u64,
    /// Dangling manifest lines pruned by the same atomic rewrite.
    pub pruned_lines: u64,
}

// Every record leads with a kind tag, so a manifest line pointing at
// the wrong kind of record is detected and invalidated rather than
// misinterpreted.
/// A front-end output: one module's IL object file bytes.
const TAG_OBJECT: u8 = 1;
// Tags 2 and 3 are retired: format-9 caches hold a build as two
// records, the image (`TAG_IMAGE`, `img:` lines) and the report
// (`TAG_REPORT`, `rpt:` lines). Tag 4 is retired too: format-8 caches
// hold profile-slice scope sidecars under it (`scope:` lines). No build
// reads any of them and `BuildCache::gc` prunes them as undecodable.
// Never reuse them.
/// One module's code-tier slot: the lowered routines its live routines
/// used in the last build under one mode, keyed id-free.
const TAG_CODE: u8 = 5;
/// A whole build: its linked machine image, then its compile report.
const TAG_BUILD: u8 = 6;

/// A module-tier cache hit that has not been decoded: the stored object
/// file's bytes, CRC-verified and copied out of the repository at probe
/// time, so the handle outlives the cache and costs a replay nothing
/// but the copy.
#[derive(Debug, Clone)]
pub struct CachedObject {
    /// Module-tier key the record was found under.
    key: String,
    hash: ContentHash,
    bytes: Arc<[u8]>,
}

#[cfg(test)]
thread_local! {
    /// [`CachedObject::decode`] calls on this thread.
    pub(crate) static DECODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
thread_local! {
    /// [`BuildCache::get_code`] calls on this thread.
    pub(crate) static CODE_FETCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// [`BuildCache::put_code`] calls on this thread.
    pub(crate) static CODE_STORES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl CachedObject {
    /// The module-tier key the record was found under.
    pub(crate) fn key(&self) -> &str {
        &self.key
    }

    /// Decodes the stored object.
    ///
    /// # Errors
    ///
    /// The bytes passed their CRC, so an error means the record was
    /// stored damaged (or forged); callers recompile the module.
    pub fn decode(&self) -> Result<IlObject, ObjectDecodeError> {
        #[cfg(test)]
        DECODES.with(|d| d.set(d.get() + 1));
        IlObject::from_bytes(&self.bytes)
    }
}

/// Bytes of one row of a code slot's table: a 128-bit key and the end
/// offset of its entry, both little-endian.
const CODE_ROW: usize = 20;

/// A code slot's table: `(key, end of its entry)`, ascending by key.
type CodeRows = Vec<(CodeKey, usize)>;

/// One module's code-tier slot as fetched: `(key, entry end)` rows
/// sorted by key, and the entries they delimit, back to back in the
/// same order. CRC-verified, validated and copied out of the repository
/// on the calling thread, so workers can search and decode from it
/// without touching the cache.
#[derive(Debug)]
pub(crate) struct CodeSlot {
    hash: ContentHash,
    rows: CodeRows,
    entries: Vec<u8>,
}

impl CodeSlot {
    /// Reads and checks a slot's payload: the table is whole rows,
    /// keys strictly ascend, entry ends never descend and the last one
    /// is the end of the entries. Both parts are bounds-checked slices
    /// of the record, so what is allocated is sized by bytes that are
    /// there, never by a stated length.
    fn decode(dec: &mut Decoder<'_>) -> Result<(CodeRows, Vec<u8>), DecodeError> {
        const BAD_TABLE: DecodeError = DecodeError::Corrupt {
            what: "code slot table does not describe its entries",
        };
        let table = dec.read_bytes()?;
        let entries = dec.read_bytes()?;
        if !dec.is_at_end() || table.len() % CODE_ROW != 0 {
            return Err(BAD_TABLE);
        }
        let mut rows = CodeRows::with_capacity(table.len() / CODE_ROW);
        for row in table.chunks_exact(CODE_ROW) {
            let (key, end) = row.split_at(16);
            let key = CodeKey(u128::from_le_bytes(key.try_into().expect("16-byte key")));
            let end = u32::from_le_bytes(end.try_into().expect("4-byte offset")) as usize;
            if rows.last().is_some_and(|&(k, e)| key <= k || end < e) {
                return Err(BAD_TABLE);
            }
            rows.push((key, end));
        }
        if rows.last().map_or(0, |&(_, end)| end) != entries.len() {
            return Err(BAD_TABLE);
        }
        Ok((rows, entries.to_vec()))
    }

    /// Whether the slot holds exactly `keys` (ascending, distinct).
    pub(crate) fn holds(&self, keys: impl Iterator<Item = CodeKey>) -> bool {
        self.rows.iter().map(|&(key, _)| key).eq(keys)
    }

    /// The encoded entry stored under `key`.
    pub(crate) fn find(&self, key: CodeKey) -> Option<&[u8]> {
        let at = self.rows.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        let start = at.checked_sub(1).map_or(0, |before| self.rows[before].1);
        Some(&self.entries[start..self.rows[at].1])
    }
}

/// Manifest line of the code slot of `module` under `mode`. The name is
/// escaped so that no module name can break the line-per-entry file.
fn code_line(mode: &str, module: &str) -> String {
    format!("code:{mode}:{}", module.escape_debug())
}

/// Outcome of a [`BuildCache::probe`]: the trace action (`"hit"`,
/// `"miss"` or `"invalidate"`), the payload bytes the event reports,
/// and on a hit the record's content hash beside the decoded value.
type Probe<T> = (&'static str, u64, Option<(ContentHash, T)>);

/// A persistent build cache rooted at a directory.
///
/// Opened by `cmocc --cache-dir` (or [`BuildCache::open`] directly),
/// consulted by [`crate::Compiler::add_inputs`] for per-module
/// front-end reuse and by [`crate::Compiler::build_cached`] for
/// whole-build replay, and flushed with [`BuildCache::persist`].
#[derive(Debug)]
pub struct BuildCache {
    storage: Arc<dyn Storage>,
    repo: Repository,
    manifest: BTreeMap<String, ContentHash>,
    stats: CacheStats,
    /// Crash-recovery repairs performed while opening (rollbacks,
    /// truncations, recreations). Non-zero means persistent state was
    /// repaired and the build will recompile what was lost.
    recovered: u64,
    /// Whether this session's generation differs from the committed
    /// one: a record stored, a manifest line added or dropped, a repair
    /// on open, or a GC. [`BuildCache::persist`] commits only then.
    dirty: bool,
    /// Length of `repo.naim` when this session opened it (zero for a
    /// repository this session created).
    opened_len: u64,
    /// Module-tier hits [`BuildCache::materialize`] decoded.
    objects_decoded: u64,
    /// Live routines the last build took from the code tier.
    routines_replayed: u64,
    /// Live routines the last build lowered.
    routines_lowered: u64,
}

impl BuildCache {
    /// Opens (or creates) the cache rooted at `dir`.
    ///
    /// A repository written by another format version, or one whose
    /// header fails validation, is discarded and recreated fresh — an
    /// incompatible cache is worth nothing, and silently decoding it
    /// would be worse. Only the second is a repair: another version is
    /// a cache that simply misses, as after a `CACHE_FORMAT` bump.
    ///
    /// # Errors
    ///
    /// Returns an error only for real I/O failures (unwritable
    /// directory, permission problems) — never for stale or corrupt
    /// cache *content*.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<BuildCache, NaimError> {
        BuildCache::open_on(Arc::new(DiskStorage::new(dir)?), &Telemetry::disabled())
    }

    /// Opens the cache over any [`Storage`] — the seam the fault-
    /// injection harnesses use to run real builds against in-memory or
    /// deliberately faulty stores.
    ///
    /// Recovery runs here: the commit journal rolls back a
    /// half-committed repository generation, the record-chain scan
    /// truncates a torn tail, and an unreadable repository is recreated
    /// fresh. Each repair emits a `recover` trace event and bumps
    /// [`BuildCache::recovered`]; a repository of another format
    /// version is recreated without either.
    ///
    /// # Errors
    ///
    /// Returns an error only for live I/O failures, never for corrupt
    /// content.
    pub fn open_on(storage: Arc<dyn Storage>, tel: &Telemetry) -> Result<BuildCache, NaimError> {
        let mut recovered = 0u64;
        let mut other_version = false;
        // A GC that died before its generation swap leaves the new
        // generation under the temp name; it was never committed, so
        // drop it. (`exists` is not admit-counted by the fault
        // injector, so the probe never shifts a kill-point schedule.)
        if storage.exists(GC_TEMP_FILE) {
            let _ = storage.remove(GC_TEMP_FILE);
        }
        // A crash after the repository fsync but before the journal
        // commit leaves repo.naim longer than the last committed
        // generation: roll the uncommitted suffix back. (The converse
        // — journal ahead of the repository — means the journal itself
        // is the stale file; it is simply ignored.)
        if let Some(committed) = read_journal(storage.as_ref()) {
            if storage.exists(REPO_FILE) {
                let size = storage.size(REPO_FILE)?;
                if size > committed {
                    storage.truncate(REPO_FILE, committed)?;
                    recovered += 1;
                    tel.emit(TraceEvent::Recover {
                        component: "repository",
                        action: "rollback",
                        bytes: size - committed,
                    });
                }
            }
        }
        let (repo, fresh) = if storage.exists(REPO_FILE) {
            match Repository::open(Arc::clone(&storage), REPO_FILE) {
                Ok(repo) => (repo, false),
                Err(NaimError::Repository(e)) => return Err(NaimError::Repository(e)),
                // Another compiler's format: nothing in it can hit, as
                // after a `CACHE_FORMAT` bump, and nothing was damaged.
                Err(NaimError::RepoVersion { .. }) => {
                    other_version = true;
                    (Repository::create(Arc::clone(&storage), REPO_FILE)?, true)
                }
                // Header or decode problems: the cache is shredded
                // beyond record recovery. Start over.
                Err(_) => {
                    let old = storage.size(REPO_FILE).unwrap_or(0);
                    recovered += 1;
                    tel.emit(TraceEvent::Recover {
                        component: "repository",
                        action: "recreate",
                        bytes: old,
                    });
                    (Repository::create(Arc::clone(&storage), REPO_FILE)?, true)
                }
            }
        } else {
            (Repository::create(Arc::clone(&storage), REPO_FILE)?, true)
        };
        if let Some(repair) = repo.recovery() {
            recovered += 1;
            tel.emit(TraceEvent::Recover {
                component: "repository",
                action: "truncate",
                bytes: repair.dropped_bytes,
            });
        }
        let manifest = if fresh {
            BTreeMap::new()
        } else {
            read_manifest(storage.as_ref())
        };
        let opened_len = if fresh { 0 } else { storage.size(REPO_FILE)? };
        Ok(BuildCache {
            storage,
            repo,
            manifest,
            stats: CacheStats {
                enabled: true,
                ..CacheStats::default()
            },
            recovered,
            // A repaired or replaced store commits, so the rebuilt index
            // (and, after a recreation, the emptied manifest) is written
            // back.
            dirty: recovered > 0 || other_version,
            opened_len,
            objects_decoded: 0,
            routines_replayed: 0,
            routines_lowered: 0,
        })
    }

    /// Crash-recovery repairs performed while opening. Non-zero means
    /// the previous process died mid-commit (or the store was damaged)
    /// and this build starts from the last committed generation.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Snapshot of the per-build cache counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Remote-tier traffic of the storage stack this cache sits on
    /// (all zeros when no remote tier is attached). Snapshotted into
    /// the report's `faults.remote` section at the same point as
    /// [`BuildCache::stats`], so cold and warm reports stay
    /// byte-identical.
    #[must_use]
    pub fn remote_stats(&self) -> cmo_naim::RemoteStats {
        self.storage.remote_stats().unwrap_or_default()
    }

    /// Number of records in the underlying repository (tests/bench).
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.repo.record_count()
    }

    /// Module-tier hits decoded into objects this session (bench): zero
    /// on a whole-build replay, one per clean module after an edit.
    #[must_use]
    pub fn objects_decoded(&self) -> u64 {
        self.objects_decoded
    }

    /// Bytes this session has appended to `repo.naim` so far (bench):
    /// zero after a no-change build.
    #[must_use]
    pub fn repo_bytes_appended(&self) -> u64 {
        self.storage
            .size(REPO_FILE)
            .map_or(0, |len| len.saturating_sub(self.opened_len))
    }

    /// Live routines whose code the last build through this cache
    /// decoded from the code tier instead of lowering (bench): all of
    /// them after an edit that changed no live routine, zero on a cold
    /// build or a whole-build replay.
    #[must_use]
    pub fn routines_replayed(&self) -> u64 {
        self.routines_replayed
    }

    /// Live routines the last build through this cache ran
    /// `lower_routine` on (bench): every one on a cold build, only the
    /// changed ones after an edit, zero on a whole-build replay.
    #[must_use]
    pub fn routines_lowered(&self) -> u64 {
        self.routines_lowered
    }

    /// Records how the last build's live routines were obtained.
    pub(crate) fn record_routines(&mut self, replayed: u64, lowered: u64) {
        self.routines_replayed = replayed;
        self.routines_lowered = lowered;
    }

    /// Probes the cache for a module's front-end output under its
    /// fingerprint. A hit hands back the stored bytes undecoded.
    ///
    /// Emits a module-scope `"hit"`, `"miss"`, or `"invalidate"` trace
    /// event; an invalidated entry also counts as a miss because the
    /// module will be recompiled.
    pub fn get_module(&mut self, module: &str, key: &str, tel: &Telemetry) -> Option<CachedObject> {
        let object = |dec: &mut Decoder<'_>| dec.read_bytes().map(Arc::<[u8]>::from);
        let (action, len, hit) = self.probe(&format!("mod:{key}"), TAG_OBJECT, object);
        let hit = hit.map(|(hash, bytes)| CachedObject {
            key: key.to_owned(),
            hash,
            bytes,
        });
        if hit.is_some() {
            self.stats.module_hits += 1;
        } else {
            self.stats.module_misses += 1;
        }
        emit(tel, action, "module", module, len);
        hit
    }

    /// Decodes a deferred module hit, now that the link needs it.
    ///
    /// `None` means the CRC-valid bytes are not an object: damage only
    /// a decode can find, reported like any damage found at probe time
    /// — the manifest line is dropped, the record evicted, an
    /// `"invalidate"` event emitted — and the hit the probe counted is
    /// re-counted as the miss it turned out to be. The caller
    /// recompiles the module from its source.
    pub fn materialize(
        &mut self,
        module: &str,
        hit: &CachedObject,
        tel: &Telemetry,
    ) -> Option<IlObject> {
        if let Ok(obj) = hit.decode() {
            self.objects_decoded += 1;
            return Some(obj);
        }
        // Once per record: a second link of the same driver finds the
        // line gone (or re-pointed at the recompiled object) and only
        // recompiles again.
        let line = format!("mod:{}", hit.key);
        if self.manifest.get(&line) == Some(&hit.hash) {
            self.drop_line(&line);
            self.repo.evict(hit.hash);
            // The hit may have been counted by an earlier session of
            // this cache directory, hence saturating.
            let stats = &mut self.stats;
            stats.module_hits = stats.module_hits.saturating_sub(1);
            stats.module_misses += 1;
            stats.invalidations += 1;
            emit(tel, "invalidate", "module", module, 0);
        }
        None
    }

    /// Stores a module's front-end output under its fingerprint.
    ///
    /// Storing never fails the build: an unwritable repository leaves
    /// the cache cold for the next run, nothing more.
    pub fn put_module(&mut self, module: &str, fp: &str, obj: &IlObject, tel: &Telemetry) {
        let bytes = obj.to_bytes();
        let stored = self.store(format!("mod:{fp}"), TAG_OBJECT, bytes.len() + 16, |enc| {
            enc.write_bytes(&bytes);
        });
        if let Some(bytes) = stored {
            emit(tel, "store", "module", module, bytes);
        }
    }

    /// Fetches the code slot of `module` under `mode` (opt level and
    /// instrumentation; see [`code_mode`]), emitting a code-scope
    /// `"hit"`, `"miss"` or `"invalidate"` event. A slot that cannot be
    /// fetched intact, is of another kind, or whose table does not
    /// describe its entries is dropped and counted as an invalidation:
    /// its routines are lowered afresh and the slot stored anew.
    pub(crate) fn get_code(
        &mut self,
        mode: &str,
        module: &str,
        tel: &Telemetry,
    ) -> Option<CodeSlot> {
        #[cfg(test)]
        CODE_FETCHES.with(|c| c.set(c.get() + 1));
        let (action, len, slot) = self.probe(&code_line(mode, module), TAG_CODE, CodeSlot::decode);
        emit(tel, action, "code", module, len);
        slot.map(|(hash, (rows, entries))| CodeSlot {
            hash,
            rows,
            entries,
        })
    }

    /// Reports an entry of `slot` that passed the slot's checks but
    /// would not decode against its routine's reference tables — damage
    /// only a worker's decode can find, so it is reported after the
    /// fact, like [`BuildCache::materialize`]'s: the line is dropped,
    /// the record evicted, an `"invalidate"` event emitted.
    pub(crate) fn invalidate_code(
        &mut self,
        mode: &str,
        module: &str,
        slot: &CodeSlot,
        tel: &Telemetry,
    ) {
        let line = code_line(mode, module);
        if self.manifest.get(&line) == Some(&slot.hash) {
            self.drop_line(&line);
            self.repo.evict(slot.hash);
            self.stats.invalidations += 1;
            emit(tel, "invalidate", "code", module, 0);
        }
    }

    /// Replaces the code slot of `module` under `mode` with exactly
    /// `entries` (sorted by key, keys distinct). The previous record
    /// becomes dead bytes for the next [`BuildCache::gc`].
    pub(crate) fn put_code(
        &mut self,
        mode: &str,
        module: &str,
        entries: &[(CodeKey, &[u8])],
        tel: &Telemetry,
    ) {
        #[cfg(test)]
        CODE_STORES.with(|c| c.set(c.get() + 1));
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let mut table = Vec::with_capacity(entries.len() * CODE_ROW);
        let mut body = Vec::with_capacity(entries.iter().map(|(_, e)| e.len()).sum());
        for (key, entry) in entries {
            body.extend_from_slice(entry);
            let Ok(end) = u32::try_from(body.len()) else {
                return; // a 4 GiB module: not worth a wider offset
            };
            table.extend_from_slice(&key.0.to_le_bytes());
            table.extend_from_slice(&end.to_le_bytes());
        }
        let hint = table.len() + body.len() + 32;
        let stored = self.store(code_line(mode, module), TAG_CODE, hint, |enc| {
            enc.write_bytes(&table);
            enc.write_bytes(&body);
        });
        if let Some(bytes) = stored {
            emit(tel, "store", "code", module, bytes);
        }
    }

    /// Probes the cache for a whole build: the linked image and the
    /// report of the build that stored it, one record.
    ///
    /// Emits a build-scope `"hit"`, `"miss"`, or `"invalidate"` trace
    /// event; a record that cannot be fetched intact or is of another
    /// kind is dropped and counted as an invalidation, and the build
    /// runs.
    pub fn get_build(
        &mut self,
        key: &str,
        tel: &Telemetry,
    ) -> Option<(MachineImage, CompileReport)> {
        let build =
            |dec: &mut Decoder<'_>| Ok((MachineImage::decode(dec)?, CompileReport::decode(dec)?));
        let (action, len, build) = self.probe(&format!("build:{key}"), TAG_BUILD, build);
        self.stats.build_hits += u64::from(build.is_some());
        emit(tel, action, "build", key, len);
        build.map(|(_, build)| build)
    }

    /// Stores a whole build's image and report under the build key.
    pub fn put_build(
        &mut self,
        key: &str,
        image: &MachineImage,
        report: &CompileReport,
        tel: &Telemetry,
    ) {
        // An encoded instruction averages under five bytes; the rest is
        // the routine table, the data section and the report.
        let hint = 6 * image.code.len() + 32 * image.routines.len() + 9 * image.globals.len();
        let stored = self.store(format!("build:{key}"), TAG_BUILD, hint + 4096, |enc| {
            image.encode(enc);
            report.encode(enc);
        });
        if let Some(bytes) = stored {
            emit(tel, "store", "build", key, bytes);
        }
    }

    /// Commits the current generation: flushes the repository index
    /// segment, fsyncs `repo.naim`, journals the committed length, then
    /// atomically replaces the manifest (write temp → fsync → rename).
    /// A process killed at any point leaves either the previous
    /// generation or this one — never a mix.
    ///
    /// A session that changed nothing has no generation to commit and
    /// touches no file: everything it read is the committed generation
    /// already, and any repair made on open was applied to the files
    /// then (and marked the session dirty). Over a remote tier the
    /// commit is also the publication step, so it always runs.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the cache directory is no
    /// longer writable.
    pub fn persist(&mut self) -> Result<(), NaimError> {
        if !self.dirty && self.storage.remote_stats().is_none() {
            return Ok(());
        }
        self.repo.flush_index()?;
        self.storage.sync(REPO_FILE)?;
        let committed = self.storage.size(REPO_FILE)?;
        write_atomic(
            self.storage.as_ref(),
            JOURNAL_FILE,
            format!("{JOURNAL_SCHEMA}\n{committed}\n").as_bytes(),
        )?;
        write_atomic(
            self.storage.as_ref(),
            MANIFEST_FILE,
            self.render_manifest().as_bytes(),
        )?;
        self.dirty = false;
        Ok(())
    }

    fn render_manifest(&self) -> String {
        let mut text = String::with_capacity(64 * (1 + self.manifest.len()));
        text.push_str(MANIFEST_SCHEMA);
        text.push('\n');
        for (key, hash) in &self.manifest {
            text.push_str(key);
            text.push('\t');
            text.push_str(&hash.to_hex());
            text.push('\n');
        }
        text
    }

    /// Bytes a [`BuildCache::gc`] compaction would reclaim right now:
    /// current `repo.naim` size minus the exact size of a generation
    /// holding only the records the manifest still references. Stale
    /// index segments (every committing [`BuildCache::persist`] appends
    /// one),
    /// evicted corrupt records, and rolled-back-then-re-stored copies
    /// all count as dead.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the repository size cannot
    /// be read.
    pub fn dead_bytes(&self) -> Result<u64, NaimError> {
        if !self.storage.exists(REPO_FILE) {
            return Ok(0);
        }
        let size = self.storage.size(REPO_FILE)?;
        let live: Vec<_> = self
            .manifest
            .values()
            .filter_map(|&hash| self.repo.lookup(hash))
            .collect();
        Ok(size.saturating_sub(self.repo.compacted_size(&live)))
    }

    /// Mark-and-sweep compaction: copies every record the manifest
    /// still references into a fresh repository generation, atomically
    /// swaps it in under the commit-journal protocol, and rewrites the
    /// manifest without its dead lines.
    ///
    /// **Mark.** Walk the in-memory manifest (sorted key order, so the
    /// storage-operation stream is deterministic); a hash that no
    /// longer resolves — rolled back, dropped by an earlier GC, or
    /// evicted as corrupt (eviction removes the hash from the lookup
    /// index, which is exactly what keeps this pass from resurrecting
    /// a corrupt record through the last-record-wins reopen index) —
    /// marks its lines dead.
    ///
    /// **Sweep.** Fetch each live record (CRC-verified), decode it with
    /// the decoder its kind tag names, and store it into a new
    /// generation built under a temp name; a record that fails either
    /// check on the way out is demoted to dead rather than aborting,
    /// so GC also heals latent corruption — including CRC-valid bytes
    /// no build has decoded yet. Content hashes are unchanged by the
    /// copy, so surviving manifest lines stay valid as-is.
    ///
    /// **Swap.** fsync the temp, raise the journal to cover both
    /// generations, rename the temp onto `repo.naim`, then commit the
    /// exact new length and the pruned manifest. A crash at any point
    /// reopens to either the old or the new generation, never a mix:
    /// before the rename the old file is untouched (the orphan temp is
    /// swept on open), after it the new file is never longer than the
    /// journaled bound so no rollback can bite it. The repository is
    /// then reopened so any memory-mapped view of the pre-swap file is
    /// dropped and remapped against the new generation.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the cache directory stops
    /// cooperating; the committed old generation is never damaged.
    pub fn gc(&mut self, tel: &Telemetry) -> Result<GcStats, NaimError> {
        let old_size = if self.storage.exists(REPO_FILE) {
            self.storage.size(REPO_FILE)?
        } else {
            0
        };
        // Mark.
        let mut alive: HashMap<ContentHash, bool> = HashMap::new();
        let mut order = Vec::new();
        for &hash in self.manifest.values() {
            if alive.contains_key(&hash) {
                continue;
            }
            match self.repo.lookup(hash) {
                Some(handle) => {
                    alive.insert(hash, true);
                    order.push((hash, handle));
                }
                None => {
                    alive.insert(hash, false);
                }
            }
        }
        // Sweep: build the new generation under the temp name.
        let mut new_repo = Repository::create(Arc::clone(&self.storage), GC_TEMP_FILE)?;
        let mut live_records = 0u64;
        for (hash, handle) in order {
            match self.repo.fetch_ref(handle) {
                Ok(bytes) if record_decodes(bytes) => {
                    new_repo.store(bytes)?;
                    live_records += 1;
                }
                // Live I/O failure: abort; the old generation and the
                // manifest are untouched, the orphan temp is swept on
                // the next open.
                Err(NaimError::Repository(e)) => return Err(NaimError::Repository(e)),
                // Content damage (CRC, truncation, undecodable bytes):
                // the record is dead after all; its lines get pruned
                // below.
                _ => {
                    alive.insert(hash, false);
                }
            }
        }
        new_repo.flush_index()?;
        drop(new_repo);
        // Swap.
        self.storage.sync(GC_TEMP_FILE)?;
        let new_size = self.storage.size(GC_TEMP_FILE)?;
        // Raise the journal to cover whichever generation a crash
        // leaves behind. The compacted generation is usually smaller,
        // but an old file that lost its index segment to a torn-tail
        // truncation can be *shorter* than its replacement — journaling
        // the max first means the rollback-on-open (which only fires on
        // a file longer than the journal) can never truncate into
        // either generation.
        write_atomic(
            self.storage.as_ref(),
            JOURNAL_FILE,
            format!("{JOURNAL_SCHEMA}\n{}\n", old_size.max(new_size)).as_bytes(),
        )?;
        self.storage.rename(GC_TEMP_FILE, REPO_FILE)?;
        write_atomic(
            self.storage.as_ref(),
            JOURNAL_FILE,
            format!("{JOURNAL_SCHEMA}\n{new_size}\n").as_bytes(),
        )?;
        // Prune dead manifest lines on the same commit.
        let dead_keys: Vec<String> = self
            .manifest
            .iter()
            .filter(|(_, hash)| !alive.get(hash).copied().unwrap_or(false))
            .map(|(key, _)| key.clone())
            .collect();
        for key in &dead_keys {
            self.manifest.remove(key);
        }
        write_atomic(
            self.storage.as_ref(),
            MANIFEST_FILE,
            self.render_manifest().as_bytes(),
        )?;
        // Reopen against the new generation: the old repository may
        // hold a memory-mapped view of the pre-swap file, which the
        // rename does not invalidate.
        self.repo = Repository::open(Arc::clone(&self.storage), REPO_FILE)?;
        self.dirty = true;
        let stats = GcStats {
            reclaimed_bytes: old_size.saturating_sub(new_size),
            live_records,
            pruned_lines: dead_keys.len() as u64,
        };
        self.stats.gc_runs += 1;
        self.stats.gc_reclaimed_bytes += stats.reclaimed_bytes;
        self.stats.gc_live_records = stats.live_records;
        self.stats.gc_pruned_lines += stats.pruned_lines;
        tel.emit(TraceEvent::CacheGc {
            reclaimed_bytes: stats.reclaimed_bytes,
            live_records: stats.live_records,
            pruned_lines: stats.pruned_lines,
        });
        Ok(stats)
    }

    /// Reads the record `key` names on the direct path: manifest line →
    /// content hash → CRC-verified borrowed bytes → `decode`, which sees
    /// the payload past its kind tag.
    ///
    /// A line whose record cannot be fetched intact, or is of another
    /// kind, or does not decode is dropped — the record evicted unless
    /// it is sound, just of another kind, whose size the event then
    /// reports — and counted as an invalidation.
    fn probe<T>(
        &mut self,
        key: &str,
        tag: u8,
        decode: impl FnOnce(&mut Decoder<'_>) -> Result<T, DecodeError>,
    ) -> Probe<T> {
        let Some(&hash) = self.manifest.get(key) else {
            return ("miss", 0, None);
        };
        let Some(handle) = self.repo.lookup(hash) else {
            self.drop_line(key);
            self.stats.invalidations += 1;
            return ("invalidate", 0, None);
        };
        let bytes = handle.len() as u64;
        // `Err(intact)`: whether the record is sound, just not this kind.
        let decoded = match self.repo.fetch_ref(handle) {
            Err(_) => Err(false),
            Ok(payload) => {
                let mut dec = Decoder::new(payload);
                match dec.read_u8() {
                    Ok(found) if found == tag => decode(&mut dec).map_err(|_| false),
                    Ok(TAG_OBJECT..=TAG_BUILD) => Err(true),
                    _ => Err(false),
                }
            }
        };
        let intact = match decoded {
            Ok(value) => return ("hit", bytes, Some((hash, value))),
            Err(intact) => intact,
        };
        self.drop_line(key);
        self.stats.invalidations += 1;
        if intact {
            return ("invalidate", bytes, None);
        }
        // Unindex the corrupt record too, or a re-store of the same
        // payload would dedup right back onto it.
        self.repo.evict(hash);
        ("invalidate", 0, None)
    }

    /// Drops a manifest line (the next commit rewrites the manifest
    /// without it).
    fn drop_line(&mut self, key: &str) {
        self.dirty |= self.manifest.remove(key).is_some();
    }

    /// Encodes an entry (`tag`, then whatever `encode` writes, into a
    /// buffer of `size_hint` bytes) and stores it under `key`,
    /// returning the payload size, or `None` when the repository
    /// refused the write.
    fn store(
        &mut self,
        key: String,
        tag: u8,
        size_hint: usize,
        encode: impl FnOnce(&mut Encoder),
    ) -> Option<u64> {
        let mut enc = Encoder::with_capacity(size_hint);
        enc.write_u8(tag);
        encode(&mut enc);
        let handle = self.repo.store(&enc.into_bytes()).ok()?;
        let hash = self.repo.hash_of(handle)?;
        self.manifest.insert(key, hash);
        self.dirty = true;
        Some(handle.len() as u64)
    }
}

/// Whether a record's payload decodes as the kind its tag names — the
/// check [`BuildCache::gc`] makes before it keeps a record.
fn record_decodes(payload: &[u8]) -> bool {
    let mut dec = Decoder::new(payload);
    match dec.read_u8() {
        Ok(TAG_OBJECT) => dec
            .read_bytes()
            .is_ok_and(|bytes| IlObject::from_bytes(bytes).is_ok()),
        Ok(TAG_CODE) => CodeSlot::decode(&mut dec).is_ok(),
        Ok(TAG_BUILD) => {
            MachineImage::decode(&mut dec).is_ok() && CompileReport::decode(&mut dec).is_ok()
        }
        _ => false,
    }
}

fn emit(tel: &Telemetry, action: &'static str, scope: &'static str, name: &str, bytes: u64) {
    tel.emit(TraceEvent::Cache {
        action,
        scope,
        name: name.to_owned(),
        bytes,
    });
}

/// Writes `name` via the temp → fsync → rename protocol, so the file
/// flips atomically from its previous content to `data` and the crash
/// model cannot leave a torn or unsynced-rename version behind.
fn write_atomic(storage: &dyn Storage, name: &str, data: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{name}.tmp");
    storage.write(&tmp, data)?;
    storage.sync(&tmp)?;
    storage.rename(&tmp, name)
}

/// Reads the commit journal: the repository length of the last fully
/// committed generation. `None` when the journal is missing or
/// unreadable — recovery then relies on the record-chain scan alone.
fn read_journal(storage: &dyn Storage) -> Option<u64> {
    let bytes = storage.read(JOURNAL_FILE).ok()?;
    let text = std::str::from_utf8(&bytes).ok()?;
    let mut lines = text.lines();
    if lines.next() != Some(JOURNAL_SCHEMA) {
        return None;
    }
    lines.next()?.trim().parse().ok()
}

fn read_manifest(storage: &dyn Storage) -> BTreeMap<String, ContentHash> {
    let mut manifest = BTreeMap::new();
    let Ok(bytes) = storage.read(MANIFEST_FILE) else {
        return manifest;
    };
    let Ok(text) = std::str::from_utf8(&bytes) else {
        return manifest;
    };
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_SCHEMA) {
        return manifest;
    }
    for line in lines {
        let Some((key, hex)) = line.split_once('\t') else {
            continue;
        };
        let Some(hash) = ContentHash::from_hex(hex) else {
            continue;
        };
        manifest.insert(key.to_owned(), hash);
    }
    manifest
}

/// Fingerprint of an MLC source module: covers the module name, the
/// exact source text, and the cache format epoch.
#[must_use]
pub fn module_fingerprint(module: &str, source: &str) -> String {
    let mut enc = Encoder::with_capacity(source.len() + 64);
    enc.write_u32(CACHE_FORMAT);
    enc.write_str("mlc-src");
    enc.write_str(module);
    enc.write_str(source);
    ContentHash::of(&enc.into_bytes()).to_hex()
}

/// Fingerprint of a pre-compiled IL object: covers its serialized
/// bytes, so any front-end change that alters the object re-keys it.
#[must_use]
pub fn object_fingerprint(module: &str, bytes: &[u8]) -> String {
    let mut enc = Encoder::with_capacity(bytes.len() + 64);
    enc.write_u32(CACHE_FORMAT);
    enc.write_str("il-obj");
    enc.write_str(module);
    enc.write_bytes(bytes);
    ContentHash::of(&enc.into_bytes()).to_hex()
}

/// The code tier's slot mode: one slot per module for each opt level
/// and instrumentation setting, so a `+I` training build and the
/// `+O4 +P` build it feeds keep separate slots and neither evicts the
/// other's entries.
#[must_use]
pub(crate) fn code_mode(options: &BuildOptions) -> String {
    let level = match options.level {
        OptLevel::O1 => 1,
        OptLevel::O2 => 2,
        OptLevel::O4 => 4,
    };
    format!("o{level}{}", if options.instrument { "i" } else { "" })
}

/// Digest of every build option that can change the produced image or
/// report.
///
/// `jobs` is deliberately *excluded*: the pipeline produces
/// byte-identical output at every worker count, so a cache populated
/// at `-j4` must hit at `-j1`. The profile database participates
/// through [`ProfileDb::fingerprint`](cmo_profile::ProfileDb::fingerprint)
/// — every count and shape, not the run counter no stage reads.
#[must_use]
pub fn options_signature(options: &BuildOptions) -> String {
    let mut enc = Encoder::with_capacity(256);
    enc.write_u32(CACHE_FORMAT);
    enc.write_str("opts");
    enc.write_u8(match options.level {
        OptLevel::O1 => 1,
        OptLevel::O2 => 2,
        OptLevel::O4 => 4,
    });
    enc.write_bool(options.pbo);
    enc.write_bool(options.instrument);
    match options.selectivity {
        Some(pct) => {
            enc.write_bool(true);
            enc.write_f64(pct);
        }
        None => enc.write_bool(false),
    }
    enc.write_bool(options.layered);
    let i = &options.inline;
    enc.write_u32(i.small_callee_il);
    enc.write_u64(i.hot_site_min_count);
    enc.write_u32(i.hot_callee_il);
    enc.write_f64(i.hot_site_dominance);
    enc.write_u32(i.caller_growth_cap);
    enc.write_u32(i.max_passes);
    match i.op_limit {
        Some(limit) => {
            enc.write_bool(true);
            enc.write_u64(limit);
        }
        None => enc.write_bool(false),
    }
    match &i.targets {
        Some(targets) => {
            enc.write_bool(true);
            enc.write_usize(targets.len());
            for id in targets {
                enc.write_u32(id.0);
            }
        }
        None => enc.write_bool(false),
    }
    let n = &options.naim;
    enc.write_usize(n.budget_bytes);
    match n.hard_limit_bytes {
        Some(limit) => {
            enc.write_bool(true);
            enc.write_usize(limit);
        }
        None => enc.write_bool(false),
    }
    enc.write_u8(n.max_level as u8);
    // The loader's fixed policy is keyed too: changing a constant must
    // move every key.
    enc.write_f64(cmo_naim::IR_COMPACTION_THRESHOLD);
    enc.write_f64(cmo_naim::ST_COMPACTION_THRESHOLD);
    enc.write_f64(cmo_naim::OFFLOAD_THRESHOLD);
    enc.write_u64(cmo_naim::COMPACT_COST_PER_BYTE);
    enc.write_u64(cmo_naim::DISK_COST_PER_BYTE);
    enc.write_u64(cmo_naim::FETCH_COST_PER_BYTE);
    match &options.profile {
        Some(db) => {
            enc.write_bool(true);
            enc.write_str(&db.fingerprint().to_hex());
        }
        None => enc.write_bool(false),
    }
    ContentHash::of(&enc.into_bytes()).to_hex()
}

/// Key for a whole build: the ordered module fingerprints plus the
/// options signature. Any dirty module, added module, removed module,
/// reordering, option change, or profile change produces a new key.
#[must_use]
pub fn build_key<S: AsRef<str>>(module_fps: &[S], options: &BuildOptions) -> String {
    let mut enc = Encoder::with_capacity(64 + module_fps.len() * 36);
    enc.write_u32(CACHE_FORMAT);
    enc.write_str("build");
    enc.write_usize(module_fps.len());
    for fp in module_fps {
        enc.write_str(fp.as_ref());
    }
    enc.write_str(&options_signature(options));
    ContentHash::of(&enc.into_bytes()).to_hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cmo-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_object() -> IlObject {
        cmo_frontend::compile_module("m", "fn main() -> int { return 7; }").expect("compiles")
    }

    #[test]
    fn module_round_trip_survives_reopen() {
        let dir = tmpdir("module-rt");
        let tel = Telemetry::disabled();
        let obj = small_object();
        let fp = module_fingerprint("m", "fn main() -> int { return 7; }");
        {
            let mut cache = BuildCache::open(&dir).expect("open");
            assert!(cache.get_module("m", &fp, &tel).is_none());
            cache.put_module("m", &fp, &obj, &tel);
            cache.persist().expect("persist");
        }
        let mut cache = BuildCache::open(&dir).expect("reopen");
        let back = cache.get_module("m", &fp, &tel).expect("warm hit");
        assert_eq!(back.decode().unwrap().to_bytes(), obj.to_bytes());
        assert_eq!(cache.stats().module_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_separate_source_name_and_options() {
        let a = module_fingerprint("m", "fn f() -> int { return 1; }");
        let b = module_fingerprint("m", "fn f() -> int { return 2; }");
        let c = module_fingerprint("n", "fn f() -> int { return 1; }");
        assert_ne!(a, b);
        assert_ne!(a, c);

        let o1 = BuildOptions::new(OptLevel::O4);
        let mut o2 = BuildOptions::new(OptLevel::O4);
        o2.inline.small_callee_il += 1;
        assert_ne!(options_signature(&o1), options_signature(&o2));
        // jobs must NOT participate: warm hits work across -j.
        let mut o3 = BuildOptions::new(OptLevel::O4);
        o3.jobs = 4;
        assert_eq!(options_signature(&o1), options_signature(&o3));
        // Neither must the GC policy: compaction changes where records
        // sit, never what a build produces.
        let o4 = BuildOptions::new(OptLevel::O4).with_gc_threshold_bytes(0);
        assert_eq!(options_signature(&o1), options_signature(&o4));
        // A profile enters through its counts and shapes, never its run
        // counter: a retrain that reproduces the counts keeps the key.
        let mut db = cmo_profile::ProfileDb::new();
        db.record(&[(cmo_profile::ProbeKey::block("f", 0), 1)], &[]);
        let mut rerun = db.clone();
        rerun.record(&[], &[]);
        let mut moved = db.clone();
        moved.record(&[(cmo_profile::ProbeKey::block("f", 0), 1)], &[]);
        let profiled = |db: &cmo_profile::ProfileDb| {
            options_signature(&BuildOptions::new(OptLevel::O4).with_profile_db(db.clone()))
        };
        assert_eq!(profiled(&db), profiled(&rerun));
        assert_ne!(profiled(&db), profiled(&moved));
    }

    #[test]
    fn corrupt_entry_invalidates_and_misses() {
        let dir = tmpdir("corrupt");
        let tel = Telemetry::disabled();
        let obj = small_object();
        let fp = module_fingerprint("m", "src");
        {
            let mut cache = BuildCache::open(&dir).expect("open");
            cache.put_module("m", &fp, &obj, &tel);
            cache.persist().expect("persist");
        }
        // Flip a byte in the stored payload (past the header region).
        let repo = dir.join("repo.naim");
        let mut bytes = std::fs::read(&repo).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&repo, &bytes).expect("write");

        let mut cache = BuildCache::open(&dir).expect("reopen");
        assert!(cache.get_module("m", &fp, &tel).is_none());
        let stats = cache.stats();
        assert_eq!(stats.invalidations + stats.module_misses, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatched_cache_is_recreated() {
        let dir = tmpdir("version");
        let tel = Telemetry::disabled();
        {
            let mut cache = BuildCache::open(&dir).expect("open");
            cache.put_module("m", "fp", &small_object(), &tel);
            cache.persist().expect("persist");
        }
        let repo = dir.join("repo.naim");
        let mut bytes = std::fs::read(&repo).expect("read");
        bytes[8] = 0xEE; // clobber the format version field
        std::fs::write(&repo, &bytes).expect("write");

        let mut cache = BuildCache::open(&dir).expect("recreate");
        assert_eq!(cache.record_count(), 0);
        assert_eq!(cache.recovered(), 0, "another version is no repair");
        assert!(cache.get_module("m", "fp", &tel).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_repository_suffix_rolls_back_on_open() {
        use cmo_naim::MemStorage;
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let tel = Telemetry::disabled();
        let obj = small_object();
        let fp = module_fingerprint("m", "src");
        {
            let mut cache = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
            cache.put_module("m", &fp, &obj, &tel);
            cache.persist().unwrap();
        }
        let committed = storage.size(REPO_FILE).unwrap();
        // A successor process appended a new generation but died before
        // committing it to the journal.
        storage.append(REPO_FILE, &[0xAB; 64]).unwrap();
        let traced = Telemetry::enabled();
        let mut cache = BuildCache::open_on(Arc::clone(&storage), &traced).unwrap();
        assert_eq!(cache.recovered(), 1);
        assert_eq!(
            storage.size(REPO_FILE).unwrap(),
            committed,
            "uncommitted suffix must be rolled back"
        );
        assert!(
            cache.get_module("m", &fp, &tel).is_some(),
            "committed generation must survive the rollback"
        );
        let trace = traced.render_trace();
        assert!(
            trace.contains(
                r#""event":"recover","component":"repository","action":"rollback","bytes":64"#
            ),
            "trace: {trace}"
        );
    }

    #[test]
    fn clean_open_reports_no_recovery() {
        use cmo_naim::MemStorage;
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let tel = Telemetry::disabled();
        {
            let mut cache = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
            cache.put_module("m", "fp", &small_object(), &tel);
            cache.persist().unwrap();
        }
        let cache = BuildCache::open_on(storage, &tel).unwrap();
        assert_eq!(cache.recovered(), 0);
    }

    #[test]
    fn identical_builds_share_one_record() {
        let dir = tmpdir("dedup");
        let tel = Telemetry::disabled();
        let obj = small_object();
        let mut cache = BuildCache::open(&dir).expect("open");
        cache.put_module("m", "fp1", &obj, &tel);
        cache.put_module("m", "fp2", &obj, &tel);
        assert_eq!(cache.record_count(), 1, "content-addressing dedups");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_reclaims_dead_bytes_and_preserves_warm_hits() {
        use cmo_naim::MemStorage;
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let tel = Telemetry::disabled();
        let obj = small_object();
        let fp = module_fingerprint("m", "src");
        let mut cache = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
        cache.put_module("m", &fp, &obj, &tel);
        // Every committing persist appends a fresh index segment;
        // sessions that each change a little are how a real cache
        // accretes dead weight. (Re-pointing a line is such a change;
        // a persist with nothing to commit appends nothing.)
        for _ in 0..30 {
            cache.put_module("m", &fp, &obj, &tel);
            cache.persist().unwrap();
        }
        let committed = storage.size(REPO_FILE).unwrap();
        cache.persist().unwrap();
        assert_eq!(
            storage.size(REPO_FILE).unwrap(),
            committed,
            "a clean persist must not append"
        );
        let size_before = storage.size(REPO_FILE).unwrap();
        let dead = cache.dead_bytes().unwrap();
        assert!(
            dead * 2 >= size_before,
            "setup failed to reach 50% dead bytes: {dead} of {size_before}"
        );

        let stats = cache.gc(&tel).unwrap();
        let size_after = storage.size(REPO_FILE).unwrap();
        assert_eq!(stats.reclaimed_bytes, size_before - size_after);
        assert_eq!(stats.live_records, 1);
        assert_eq!(stats.pruned_lines, 0);
        assert!(size_after < size_before);
        assert_eq!(
            cache.dead_bytes().unwrap(),
            0,
            "a freshly compacted generation has no dead bytes"
        );
        assert_eq!(cache.stats().gc_runs, 1);
        // The swapped-in generation serves the same bytes, both through
        // the rebuilt loader and through a cold reopen.
        let back = cache.get_module("m", &fp, &tel).expect("hit after gc");
        assert_eq!(back.decode().unwrap().to_bytes(), obj.to_bytes());
        let mut reopened = BuildCache::open_on(storage, &tel).unwrap();
        assert_eq!(reopened.recovered(), 0, "gc must commit cleanly");
        let back = reopened.get_module("m", &fp, &tel).expect("hit on reopen");
        assert_eq!(back.decode().unwrap().to_bytes(), obj.to_bytes());
    }

    #[test]
    fn gc_prunes_dangling_manifest_lines_and_traces_them() {
        use cmo_naim::MemStorage;
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let tel = Telemetry::disabled();
        let mut cache = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
        cache.put_module("m", "livefp", &small_object(), &tel);
        // A line whose record was rolled back by crash recovery: the
        // hash resolves to nothing.
        cache
            .manifest
            .insert("mod:deadfp".to_owned(), ContentHash([0xDEAD, 0xBEEF]));
        cache.persist().unwrap();
        assert!(String::from_utf8(storage.read(MANIFEST_FILE).unwrap())
            .unwrap()
            .contains("mod:deadfp"));

        let traced = Telemetry::enabled();
        let stats = cache.gc(&traced).unwrap();
        assert_eq!(stats.pruned_lines, 1);
        assert_eq!(stats.live_records, 1);
        let manifest = String::from_utf8(storage.read(MANIFEST_FILE).unwrap()).unwrap();
        assert!(
            !manifest.contains("mod:deadfp"),
            "dead line survived the rewrite: {manifest}"
        );
        assert!(manifest.contains("mod:livefp"));
        let trace = traced.render_trace();
        assert!(
            trace.contains(r#""event":"cache","action":"gc""#)
                && trace.contains("\"pruned_lines\":1"),
            "trace: {trace}"
        );
    }

    #[test]
    fn gc_does_not_resurrect_evicted_records() {
        use cmo_naim::MemStorage;
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let tel = Telemetry::disabled();
        let obj = small_object();
        let fp = module_fingerprint("m", "src");
        {
            let mut cache = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
            cache.put_module("m", &fp, &obj, &tel);
            cache.persist().unwrap();
        }
        // Corrupt the stored payload on disk.
        let mut bytes = storage.read(REPO_FILE).unwrap();
        bytes[12 + 25 + 3] ^= 0xFF;
        storage.write(REPO_FILE, &bytes).unwrap();

        let mut cache = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
        assert!(
            cache.get_module("m", &fp, &tel).is_none(),
            "must invalidate"
        );
        // The probe evicted the corrupt record; without the eviction
        // check, GC's copy pass (or the last-record-wins reopen index)
        // would carry it into the new generation.
        let stats = cache.gc(&tel).unwrap();
        assert_eq!(stats.live_records, 0);
        // The invalidating probe already dropped the manifest line in
        // memory, so GC has nothing left to prune — only to not copy.
        assert_eq!(stats.pruned_lines, 0);
        let reopened = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
        assert_eq!(
            reopened.record_count(),
            0,
            "evicted record resurrected by GC"
        );
    }

    #[test]
    fn gc_keeps_the_restored_copy_after_evict_and_restore() {
        use cmo_naim::MemStorage;
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let tel = Telemetry::disabled();
        let obj = small_object();
        let fp = module_fingerprint("m", "src");
        {
            let mut cache = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
            cache.put_module("m", &fp, &obj, &tel);
            cache.persist().unwrap();
        }
        let mut bytes = storage.read(REPO_FILE).unwrap();
        bytes[12 + 25 + 3] ^= 0xFF;
        storage.write(REPO_FILE, &bytes).unwrap();

        let mut cache = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
        assert!(cache.get_module("m", &fp, &tel).is_none());
        // Recompile path: the same payload is re-stored as a fresh
        // record (eviction keeps dedup from pointing at the corpse).
        cache.put_module("m", &fp, &obj, &tel);
        assert_eq!(cache.record_count(), 2, "corpse + fresh copy");
        cache.gc(&tel).unwrap();
        let mut reopened = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
        assert_eq!(reopened.record_count(), 1, "only the good copy survives");
        let back = reopened.get_module("m", &fp, &tel).expect("hit");
        assert_eq!(back.decode().unwrap().to_bytes(), obj.to_bytes());
    }

    /// GC verifies what it keeps: a CRC-valid record its kind's decoder
    /// rejects is dead, like a CRC failure — pruned with its line — so
    /// the next build recompiles that module instead of finding the
    /// damage only when an edit links it.
    #[test]
    fn gc_prunes_records_that_do_not_decode() {
        use cmo_naim::MemStorage;
        let sources: Vec<(String, String)> = [
            ("a", "fn fa(x: int) -> int { return x * 2; }"),
            ("b", "fn fb(x: int) -> int { return x + 2; }"),
            (
                "c",
                "extern fn fa(x: int) -> int;
                 extern fn fb(x: int) -> int;
                 fn main() -> int { return fa(3) + fb(4); }",
            ),
        ]
        .iter()
        .map(|&(m, s)| (m.to_owned(), s.to_owned()))
        .collect();
        let options = BuildOptions::new(OptLevel::O4);
        let tel = Telemetry::disabled();
        let cold = Arc::new(MemStorage::new());
        {
            let mut cache =
                BuildCache::open_on(Arc::clone(&cold) as Arc<dyn Storage>, &tel).unwrap();
            let mut cc = crate::Compiler::new();
            cc.add_sources_cached_with(&sources, &options, &mut cache)
                .unwrap();
            cc.build_cached(&options, &mut cache).unwrap();
            cache.persist().unwrap();
        }
        let gc_of = |storage: &Arc<MemStorage>, forge: bool| {
            let mut cache =
                BuildCache::open_on(Arc::clone(storage) as Arc<dyn Storage>, &tel).unwrap();
            if forge {
                let c_line = format!("mod:{}", module_fingerprint("c", &sources[2].1));
                let handle = cache.repo.store(&[TAG_OBJECT, 4, b'j', b'u', b'n', b'k']);
                let hash = cache.repo.hash_of(handle.unwrap()).unwrap();
                assert!(cache.manifest.insert(c_line, hash).is_some());
            }
            cache.gc(&tel).unwrap()
        };
        let clean = gc_of(&Arc::new(cold.snapshot()), false);
        let storage = Arc::new(cold.snapshot());
        let stats = gc_of(&storage, true);
        assert_eq!(stats.pruned_lines, 1, "the forged `mod:` line is pruned");
        assert_eq!(
            stats.live_records,
            clean.live_records - 1,
            "neither c's old object nor the forgery survives"
        );

        let traced = Telemetry::enabled();
        let mut cache = BuildCache::open_on(storage as Arc<dyn Storage>, &traced).unwrap();
        let mut cc = crate::Compiler::new();
        let traced_options = options.clone().with_telemetry(traced.clone());
        let hits = cc
            .add_sources_cached_with(&sources, &traced_options, &mut cache)
            .unwrap();
        assert_eq!(hits, 2, "only c recompiles");
        let trace = traced.render_trace();
        assert!(
            trace.contains(r#""action":"miss","scope":"module","name":"c""#),
            "{trace}"
        );
        let out = cc.build_cached(&options, &mut cache).unwrap();
        let uncached = {
            let mut cc = crate::Compiler::new();
            cc.add_sources(&sources, 1).unwrap();
            cc.build(&options).unwrap()
        };
        assert_eq!(out.image.to_bytes(), uncached.image.to_bytes());
    }

    /// The stored build: an intact record of a kind no module or code
    /// line may name.
    fn build_record(cache: &BuildCache) -> ContentHash {
        *cache
            .manifest
            .iter()
            .find(|(key, _)| key.starts_with("build:"))
            .expect("a stored build")
            .1
    }

    /// A format-8 cache holds a `scope:` line per module, pointing at a
    /// sidecar record under the retired tag 4. Nothing reads them; GC
    /// prunes them like any record that does not decode, and the next
    /// build replays as if they had never been there.
    #[test]
    fn gc_prunes_retired_scope_sidecars() {
        use cmo_naim::MemStorage;
        let source = "fn main() -> int { return 7; }";
        let sources = vec![("m".to_owned(), source.to_owned())];
        let db = {
            let mut cc = crate::Compiler::new();
            cc.add_sources(&sources, 1).unwrap();
            let train = cc.build(&BuildOptions::instrumented()).unwrap();
            train.run_for_profile(&[]).unwrap()
        };
        let options = BuildOptions::new(OptLevel::O4).with_profile_db(db);
        let tel = Telemetry::disabled();
        let storage = Arc::new(MemStorage::new());
        let open = |storage: &Arc<MemStorage>| {
            BuildCache::open_on(Arc::clone(storage) as Arc<dyn Storage>, &tel).unwrap()
        };
        let cold = {
            let mut cache = open(&storage);
            let mut cc = crate::Compiler::new();
            cc.add_sources_cached_with(&sources, &options, &mut cache)
                .unwrap();
            cc.build_cached(&options, &mut cache).unwrap()
        };
        // A cold `+P` build stores no record under the retired tag.
        let mut cache = open(&storage);
        let hashes: Vec<ContentHash> = cache.manifest.values().copied().collect();
        for hash in hashes {
            let handle = cache.repo.lookup(hash).expect("a live record");
            assert_ne!(cache.repo.fetch_ref(handle).unwrap()[0], 4);
        }
        drop(cache);
        let clean = open(&Arc::new(storage.snapshot())).gc(&tel).unwrap();

        // What a format-8 build left beside the object: tag 4, then
        // the module's name and routines.
        let mut cache = open(&storage);
        let mut enc = Encoder::new();
        enc.write_u8(4);
        enc.write_str("m");
        enc.write_usize(0);
        let handle = cache.repo.store(&enc.into_bytes()).unwrap();
        let hash = cache.repo.hash_of(handle).unwrap();
        let line = format!("scope:{}", module_fingerprint("m", source));
        cache.manifest.insert(line.clone(), hash);
        cache.dirty = true;
        cache.persist().unwrap();

        let stats = cache.gc(&tel).unwrap();
        assert_eq!(stats.pruned_lines, 1, "the `scope:` line is pruned");
        assert_eq!(
            stats.live_records, clean.live_records,
            "the sidecar is dead"
        );
        assert!(!cache.manifest.contains_key(&line));
        drop(cache);

        let mut cache = open(&storage);
        assert_eq!(cache.record_count() as u64, clean.live_records);
        let mut cc = crate::Compiler::new();
        let hits = cc
            .add_sources_cached_with(&sources, &options, &mut cache)
            .unwrap();
        assert_eq!(hits, 1);
        let warm = cc.build_cached(&options, &mut cache).unwrap();
        assert!(warm.report.replayed.is_some(), "the build replays");
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(warm.image.to_bytes(), cold.image.to_bytes());
    }

    /// A format-9 cache holds each build as two records: the image under
    /// the retired tag 2 (an `img:` line) and the report under the
    /// retired tag 3 (an `rpt:` line). Nothing reads them; GC prunes
    /// both, and the next build stores one `build:` record instead.
    #[test]
    fn gc_prunes_retired_build_halves() {
        use cmo_naim::MemStorage;
        let sources = vec![("m".to_owned(), "fn main() -> int { return 7; }".to_owned())];
        let options = BuildOptions::new(OptLevel::O4);
        let tel = Telemetry::disabled();
        let storage = Arc::new(MemStorage::new());
        let open = |storage: &Arc<MemStorage>| {
            BuildCache::open_on(Arc::clone(storage) as Arc<dyn Storage>, &tel).unwrap()
        };
        let lines = |cache: &BuildCache, prefix: &str| -> Vec<String> {
            let lines = cache.manifest.keys().filter(|key| key.starts_with(prefix));
            lines.cloned().collect()
        };
        let cold = {
            let mut cache = open(&storage);
            let mut cc = crate::Compiler::new();
            cc.add_sources_cached_with(&sources, &options, &mut cache)
                .unwrap();
            cc.build_cached(&options, &mut cache).unwrap()
        };
        // A cold build is one record, under the build tag.
        let mut cache = open(&storage);
        let build = lines(&cache, "build:");
        assert_eq!(build.len(), 1);
        let handle = cache.repo.lookup(build_record(&cache)).unwrap();
        assert_eq!(cache.repo.fetch_ref(handle).unwrap()[0], TAG_BUILD);
        assert!(lines(&cache, "img:").is_empty() && lines(&cache, "rpt:").is_empty());
        let clean = open(&Arc::new(storage.snapshot())).gc(&tel).unwrap();

        // What a format-9 build left in its place.
        let key = build[0].strip_prefix("build:").unwrap();
        cache.drop_line(&build[0]);
        cache.store(format!("img:{key}"), 2, 0, |enc| cold.image.encode(enc));
        cache.store(format!("rpt:{key}"), 3, 0, |enc| cold.report.encode(enc));
        cache.persist().unwrap();
        let stats = cache.gc(&tel).unwrap();
        assert_eq!(
            stats.pruned_lines, 2,
            "the `img:` and `rpt:` lines are pruned"
        );
        assert_eq!(
            stats.live_records,
            clean.live_records - 1,
            "neither half is live, and nothing names the build record"
        );
        assert!(lines(&cache, "img:").is_empty() && lines(&cache, "rpt:").is_empty());
        drop(cache);

        let traced = Telemetry::enabled();
        let mut cache = open(&storage);
        let mut cc = crate::Compiler::new();
        let options = options.with_telemetry(traced.clone());
        let hits = cc
            .add_sources_cached_with(&sources, &options, &mut cache)
            .unwrap();
        assert_eq!(hits, 1);
        let rebuilt = cc.build_cached(&options, &mut cache).unwrap();
        assert!(rebuilt.report.replayed.is_none());
        assert_eq!(rebuilt.image.to_bytes(), cold.image.to_bytes());
        let trace = traced.render_trace();
        let stores: Vec<&str> = trace
            .lines()
            .filter(|event| event.contains(r#""action":"store""#))
            .collect();
        assert_eq!(stores.len(), 1, "{trace}");
        assert!(stores[0].contains(r#""scope":"build""#), "{trace}");
        assert_eq!(lines(&cache, "build:"), build);
        assert_eq!(cache.record_count() as u64, clean.live_records);
    }

    /// How the stored build gets damaged.
    #[derive(Debug, Clone, Copy)]
    enum BuildDamage {
        /// A flipped payload byte on disk: CRC mismatch.
        Crc,
        /// The file cut short under a live index: short read.
        Truncation,
        /// The `build:` line re-pointed at an intact record of another
        /// kind (a module's object).
        WrongTag,
    }

    /// Whatever the damage, a stored build that cannot be read back
    /// costs one invalidation and a rebuild: the cold build's image at
    /// every `-j`, and a record stored afresh that the next session
    /// replays.
    #[test]
    fn damaged_build_records_cost_only_a_rebuild() {
        use cmo_naim::MemStorage;
        let sources: Vec<(String, String)> = [
            ("a", "fn fa(x: int) -> int { return x * 2; }"),
            ("b", "fn fb(x: int) -> int { return x + 2; }"),
            (
                "c",
                "extern fn fa(x: int) -> int;
                 extern fn fb(x: int) -> int;
                 fn main() -> int { return fa(3) + fb(4); }",
            ),
        ]
        .iter()
        .map(|&(m, s)| (m.to_owned(), s.to_owned()))
        .collect();
        let options = |jobs: usize, tel: &Telemetry| {
            BuildOptions::new(OptLevel::O4)
                .with_jobs(jobs)
                .with_telemetry(tel.clone())
        };
        let session = |storage: &Arc<MemStorage>,
                       jobs: usize,
                       tel: &Telemetry,
                       damage: &mut dyn FnMut(&mut BuildCache)| {
            let mut cache =
                BuildCache::open_on(Arc::clone(storage) as Arc<dyn Storage>, tel).unwrap();
            damage(&mut cache);
            let mut cc = crate::Compiler::new();
            cc.add_sources_cached_with(&sources, &options(jobs, tel), &mut cache)
                .unwrap();
            let out = cc.build_cached(&options(jobs, tel), &mut cache).unwrap();
            (out, cache.stats())
        };
        let cold_storage = Arc::new(MemStorage::new());
        let (cold, _) = session(&cold_storage, 1, &Telemetry::disabled(), &mut |_| {});
        let line_of = |cache: &BuildCache, prefix: &str| {
            let mut lines = cache.manifest.keys().filter(|key| key.starts_with(prefix));
            lines.next().expect("a line of that kind").clone()
        };
        for damage in [
            BuildDamage::Crc,
            BuildDamage::Truncation,
            BuildDamage::WrongTag,
        ] {
            for jobs in [1, 4] {
                let storage = Arc::new(cold_storage.snapshot());
                let tel = Telemetry::enabled();
                let mut apply = |cache: &mut BuildCache| {
                    let line = line_of(cache, "build:");
                    let handle = cache.repo.lookup(cache.manifest[&line]).unwrap();
                    let payload = cache.repo.fetch_ref(handle).map(<[u8]>::to_vec).unwrap();
                    let file = storage.read(REPO_FILE).unwrap();
                    let at = file
                        .windows(payload.len())
                        .position(|w| w == payload)
                        .expect("the build is in the repository");
                    match damage {
                        BuildDamage::Crc => {
                            let mut file = file.clone();
                            file[at + payload.len() / 2] ^= 0x40;
                            storage.write(REPO_FILE, &file).unwrap();
                        }
                        BuildDamage::Truncation => storage
                            .truncate(REPO_FILE, (at + payload.len() / 2) as u64)
                            .unwrap(),
                        BuildDamage::WrongTag => {
                            let object = cache.manifest[&line_of(cache, "mod:")];
                            cache.manifest.insert(line, object);
                        }
                    }
                };
                let (out, stats) = session(&storage, jobs, &tel, &mut apply);
                assert!(
                    out.report.replayed.is_none(),
                    "{damage:?} -j{jobs}: the build runs"
                );
                assert_eq!(
                    out.image.to_bytes(),
                    cold.image.to_bytes(),
                    "{damage:?} -j{jobs}: image differs from the cold build"
                );
                assert_eq!(
                    (stats.module_hits, stats.invalidations, stats.build_hits),
                    (3, 1, 0),
                    "{damage:?} -j{jobs}"
                );
                assert_eq!(out.report.cache, stats, "{damage:?}: stored report agrees");
                let trace = tel.render_trace();
                let invalidate = trace
                    .find(r#""action":"invalidate","scope":"build""#)
                    .unwrap_or_else(|| panic!("{damage:?}: no invalidate event: {trace}"));
                assert!(
                    trace[invalidate..].contains(r#""action":"store","scope":"build""#),
                    "{damage:?}: the build is stored afresh: {trace}"
                );
                // Healed: the next session replays the rebuilt record.
                let (warm, stats) = session(&storage, jobs, &Telemetry::disabled(), &mut |_| {});
                assert_eq!(warm.report.replayed, Some(out.report.cache), "{damage:?}");
                assert_eq!((stats.invalidations, stats.build_hits), (0, 1));
                assert_eq!(warm.image.to_bytes(), cold.image.to_bytes());
            }
        }
    }

    /// How the stored object of one module gets damaged.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        /// A flipped payload byte on disk: CRC mismatch.
        Crc,
        /// The file cut short under a live index: short read.
        Truncation,
        /// The manifest line re-pointed at an intact record of another
        /// kind (the stored build).
        WrongTag,
        /// The line re-pointed at CRC-valid bytes that are no object.
        Garbage,
    }

    /// Whatever the damage and whenever it is found — at the probe, or
    /// for [`Damage::Garbage`] only when the link decodes the pending
    /// hit — it costs a recompile of that module and nothing else: same
    /// image as an uncached build at every `-j`, the counters an eager
    /// decode at probe time would have reported, and a healed cache.
    #[test]
    fn damaged_module_records_cost_only_a_recompile() {
        use cmo_naim::MemStorage;
        let sources = |a_body: &str| -> Vec<(String, String)> {
            vec![
                (
                    "a".to_owned(),
                    format!("fn fa(x: int) -> int {{ return {a_body}; }}"),
                ),
                (
                    "b".to_owned(),
                    "fn fb(x: int) -> int { return x + 2; }".to_owned(),
                ),
                (
                    "c".to_owned(),
                    "extern fn fa(x: int) -> int;
                     extern fn fb(x: int) -> int;
                     fn main() -> int { return fa(3) + fb(4); }"
                        .to_owned(),
                ),
            ]
        };
        let db = {
            let mut cc = crate::Compiler::new();
            cc.add_sources(&sources("x * 2"), 1).unwrap();
            let train = cc.build(&BuildOptions::instrumented()).unwrap();
            train.run_for_profile(&[]).unwrap()
        };
        let options = |jobs: usize, tel: &Telemetry| {
            BuildOptions::new(OptLevel::O4)
                .with_profile_db(db.clone())
                .with_jobs(jobs)
                .with_telemetry(tel.clone())
        };
        let cold = Arc::new(MemStorage::new());
        {
            let tel = Telemetry::disabled();
            let mut cache =
                BuildCache::open_on(Arc::clone(&cold) as Arc<dyn Storage>, &tel).unwrap();
            let mut cc = crate::Compiler::new();
            cc.add_sources_cached_with(&sources("x * 2"), &options(1, &tel), &mut cache)
                .unwrap();
            cc.build_cached(&options(1, &tel), &mut cache).unwrap();
        }
        // The session under test edits `a` (so the build tier misses and
        // the link needs every object) and finds `c`'s record damaged.
        let edited = sources("x * 3");
        let uncached = {
            let mut cc = crate::Compiler::new();
            cc.add_sources(&edited, 1).unwrap();
            cc.build(&options(1, &Telemetry::disabled())).unwrap()
        };
        let c_bytes = cmo_frontend::compile_module("c", &edited[2].1)
            .unwrap()
            .to_bytes();
        let c_fp = module_fingerprint("c", &edited[2].1);
        for damage in [
            Damage::Crc,
            Damage::Truncation,
            Damage::WrongTag,
            Damage::Garbage,
        ] {
            for jobs in [1, 4] {
                let storage = Arc::new(cold.snapshot());
                let file = storage.read(REPO_FILE).unwrap();
                let c_at = file
                    .windows(c_bytes.len())
                    .position(|w| w == c_bytes)
                    .expect("c's object is in the repository");
                if let Damage::Crc = damage {
                    let mut file = file.clone();
                    file[c_at + 20] ^= 0x40;
                    storage.write(REPO_FILE, &file).unwrap();
                }
                let tel = Telemetry::enabled();
                let mut cache =
                    BuildCache::open_on(Arc::clone(&storage) as Arc<dyn Storage>, &tel).unwrap();
                let c_line = format!("mod:{c_fp}");
                assert!(cache.manifest.contains_key(&c_line), "c has a module line");
                match damage {
                    Damage::Crc => {}
                    Damage::Truncation => storage
                        .truncate(REPO_FILE, (c_at + c_bytes.len() / 2) as u64)
                        .unwrap(),
                    Damage::WrongTag => {
                        cache.manifest.insert(c_line, build_record(&cache));
                    }
                    Damage::Garbage => {
                        let handle = cache.repo.store(&[TAG_OBJECT, 4, b'j', b'u', b'n', b'k']);
                        let hash = cache.repo.hash_of(handle.unwrap()).unwrap();
                        cache.manifest.insert(c_line, hash);
                    }
                }
                let mut cc = crate::Compiler::new();
                let hits = cc
                    .add_sources_cached_with(&edited, &options(jobs, &tel), &mut cache)
                    .unwrap();
                let late = matches!(damage, Damage::Garbage);
                assert_eq!(
                    hits,
                    1 + usize::from(late),
                    "{damage:?}: hits at probe time"
                );
                let out = cc.build_cached(&options(jobs, &tel), &mut cache).unwrap();
                assert_eq!(
                    out.image.to_bytes(),
                    uncached.image.to_bytes(),
                    "{damage:?} -j{jobs}: image differs from an uncached build"
                );
                // What an eager decode at probe time reports: `a` edited
                // (miss), `b` intact (hit), `c` invalidated.
                // The truncation also cuts off the three code slots the
                // cold build stored after the objects.
                let cut_slots = if let Damage::Truncation = damage {
                    3
                } else {
                    0
                };
                let stats = cache.stats();
                assert_eq!(
                    (stats.module_hits, stats.module_misses, stats.invalidations),
                    (1, 2, 1 + cut_slots),
                    "{damage:?} -j{jobs}"
                );
                assert_eq!(out.report.cache, stats, "{damage:?}: stored report agrees");
                assert_eq!(cache.objects_decoded(), 1, "{damage:?}: only `b` decodes");
                let trace = tel.render_trace();
                let hit = trace.find(r#""action":"hit","scope":"module","name":"c""#);
                let invalidate = trace
                    .find(r#""action":"invalidate","scope":"module","name":"c""#)
                    .unwrap_or_else(|| panic!("{damage:?}: no invalidate event: {trace}"));
                match hit {
                    Some(hit) => assert!(late && hit < invalidate, "{damage:?}: {trace}"),
                    None => assert!(!late, "{damage:?}: a late invalidate follows a hit"),
                }
                assert!(
                    trace[invalidate..].contains(r#""action":"store","scope":"module","name":"c""#),
                    "{damage:?}: the recompiled module is stored afresh: {trace}"
                );
                // Healed: the next session hits everywhere and replays.
                drop(cache);
                let tel = Telemetry::disabled();
                let mut cache =
                    BuildCache::open_on(Arc::clone(&storage) as Arc<dyn Storage>, &tel).unwrap();
                let mut cc = crate::Compiler::new();
                let hits = cc
                    .add_sources_cached_with(&edited, &options(jobs, &tel), &mut cache)
                    .unwrap();
                assert_eq!(hits, 3, "{damage:?} -j{jobs}: healed cache hits everywhere");
                let warm = cc.build_cached(&options(jobs, &tel), &mut cache).unwrap();
                assert!(warm.report.replayed.is_some());
                assert_eq!(cache.stats().invalidations, 0);
            }
        }
    }

    /// How the code slot of one module gets damaged.
    #[derive(Debug, Clone, Copy)]
    enum CodeDamage {
        /// A flipped payload byte on disk: CRC mismatch.
        Crc,
        /// The file cut short under a live index: short read.
        Truncation,
        /// The line re-pointed at an intact record of another kind
        /// (the stored build).
        WrongTag,
        /// The line re-pointed at CRC-valid bytes that are no slot.
        Garbage,
        /// A table length far beyond the record.
        LengthBomb,
        /// A table row whose entry ends beyond the entries.
        OffsetBeyond,
        /// A sound slot whose entry, under the right key, names a
        /// callee ordinal the routine's body has no reference for.
        BadOrdinal,
    }

    /// Whatever the damage and whenever it is found — when the slot is
    /// fetched, or for [`CodeDamage::BadOrdinal`] only when a worker
    /// decodes the entry — it costs a re-lowering of that module's
    /// routines and nothing else: same image as an uncached build at
    /// every `-j`, one invalidation, and a healed slot.
    #[test]
    fn damaged_code_records_cost_only_a_relowering() {
        use cmo_llo::memo::{encode_entry, BodyRefs};
        use cmo_naim::MemStorage;
        let sources = |extra: &str| -> Vec<(String, String)> {
            vec![
                (
                    "a".to_owned(),
                    format!("fn fa(x: int) -> int {{ return x * 2; }}\n{extra}"),
                ),
                (
                    "b".to_owned(),
                    "fn fb(x: int) -> int { return x + 2; }".to_owned(),
                ),
                (
                    "c".to_owned(),
                    "extern fn fa(x: int) -> int;
                     extern fn fb(x: int) -> int;
                     fn main() -> int { return fa(input()) + fb(input()); }"
                        .to_owned(),
                ),
            ]
        };
        let db = {
            let mut cc = crate::Compiler::new();
            cc.add_sources(&sources(""), 1).unwrap();
            let train = cc.build(&BuildOptions::instrumented()).unwrap();
            train.run_for_profile(&[3, 4]).unwrap()
        };
        // Inlining off, so `main` keeps its two calls: relocation and
        // the ordinal check have something to do.
        let options = |jobs: usize, tel: &Telemetry| {
            let mut options = BuildOptions::new(OptLevel::O4)
                .with_profile_db(db.clone())
                .with_jobs(jobs)
                .with_telemetry(tel.clone());
            options.inline.small_callee_il = 0;
            options.inline.hot_callee_il = 0;
            options
        };
        let session = |storage: &Arc<MemStorage>,
                       modules: &[(String, String)],
                       jobs: usize,
                       tel: &Telemetry,
                       damage: &mut dyn FnMut(&mut BuildCache)| {
            let mut cache =
                BuildCache::open_on(Arc::clone(storage) as Arc<dyn Storage>, tel).unwrap();
            damage(&mut cache);
            let mut cc = crate::Compiler::new();
            cc.add_sources_cached_with(modules, &options(jobs, tel), &mut cache)
                .unwrap();
            let out = cc.build_cached(&options(jobs, tel), &mut cache).unwrap();
            (out, cache)
        };
        let cold = Arc::new(MemStorage::new());
        session(&cold, &sources(""), 1, &Telemetry::disabled(), &mut |_| {});
        // The session under test appends a dead routine to `a` — the
        // build tier misses, `main` in `c` is unchanged — and finds
        // `c`'s slot damaged.
        let edited = sources("fn extra(x: int) -> int { return x; }");
        let uncached = {
            let mut cc = crate::Compiler::new();
            cc.add_sources(&edited, 1).unwrap();
            cc.build(&options(1, &Telemetry::disabled())).unwrap()
        };
        let line = code_line("o4", "c");
        for damage in [
            CodeDamage::Crc,
            CodeDamage::Truncation,
            CodeDamage::WrongTag,
            CodeDamage::Garbage,
            CodeDamage::LengthBomb,
            CodeDamage::OffsetBeyond,
            CodeDamage::BadOrdinal,
        ] {
            for jobs in [1, 4] {
                let storage = Arc::new(cold.snapshot());
                let tel = Telemetry::enabled();
                let mut apply = |cache: &mut BuildCache| {
                    let hash = cache.manifest[&line];
                    let handle = cache.repo.lookup(hash).expect("c has a slot");
                    let payload = cache.repo.fetch_ref(handle).map(<[u8]>::to_vec).unwrap();
                    let file = storage.read(REPO_FILE).unwrap();
                    let at = file
                        .windows(payload.len())
                        .position(|w| w == payload)
                        .expect("the slot is in the repository");
                    let forge = |cache: &mut BuildCache, bytes: &[u8]| {
                        let handle = cache.repo.store(bytes).unwrap();
                        let hash = cache.repo.hash_of(handle).unwrap();
                        cache.manifest.insert(line.clone(), hash);
                    };
                    // The real slot: one row (`main`'s key), one entry.
                    let key = &payload[2..18];
                    assert_eq!((payload[0], payload[1]), (TAG_CODE, CODE_ROW as u8));
                    match damage {
                        CodeDamage::Crc => {
                            let mut file = file.clone();
                            file[at + payload.len() / 2] ^= 0x40;
                            storage.write(REPO_FILE, &file).unwrap();
                        }
                        CodeDamage::Truncation => storage
                            .truncate(REPO_FILE, (at + payload.len() / 2) as u64)
                            .unwrap(),
                        CodeDamage::WrongTag => {
                            cache.manifest.insert(line.clone(), build_record(cache));
                        }
                        CodeDamage::Garbage => forge(cache, &[TAG_CODE, 4, b'j', b'u', b'n', b'k']),
                        CodeDamage::LengthBomb => forge(
                            cache,
                            &[TAG_CODE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0],
                        ),
                        CodeDamage::OffsetBeyond => {
                            let mut enc = Encoder::new();
                            enc.write_u8(TAG_CODE);
                            enc.write_bytes(&[key, &u32::MAX.to_le_bytes()[..]].concat());
                            enc.write_bytes(&[1, 2, 3]);
                            forge(cache, &enc.into_bytes());
                        }
                        CodeDamage::BadOrdinal => {
                            // A routine that calls the ninth of nine
                            // callees, stored as `main`'s lowering.
                            let refs = BodyRefs {
                                callees: (0..9).map(cmo_ir::RoutineId).collect(),
                                globals: Vec::new(),
                            };
                            let lowered = cmo_llo::LoweredRoutine {
                                name: String::new(),
                                code: vec![
                                    cmo_vm::MInstr::Call {
                                        routine: 8,
                                        args: cmo_vm::CallArgs::default(),
                                        dst: None,
                                    },
                                    cmo_vm::MInstr::Ret { value: None },
                                ],
                                frame_slots: 0,
                                probes: Vec::new(),
                                shape: cmo_profile::RoutineShape {
                                    n_blocks: 1,
                                    n_sites: 1,
                                    fingerprint: 0,
                                },
                                llo_work_bytes: 0,
                                il_after_opt: 1,
                            };
                            let entry =
                                encode_entry(&lowered, &refs, &cmo_llo::GlobalLayout::default())
                                    .unwrap();
                            let mut enc = Encoder::new();
                            enc.write_u8(TAG_CODE);
                            enc.write_bytes(
                                &[key, &(entry.len() as u32).to_le_bytes()[..]].concat(),
                            );
                            enc.write_bytes(&entry);
                            forge(cache, &enc.into_bytes());
                        }
                    }
                };
                let (out, cache) = session(&storage, &edited, jobs, &tel, &mut apply);
                assert_eq!(
                    out.image.to_bytes(),
                    uncached.image.to_bytes(),
                    "{damage:?} -j{jobs}: image differs from an uncached build"
                );
                let stats = cache.stats();
                assert_eq!(stats.invalidations, 1, "{damage:?} -j{jobs}");
                assert_eq!(out.report.cache, stats, "{damage:?}: stored report agrees");
                assert_eq!(
                    (cache.routines_lowered(), cache.routines_replayed()),
                    (1, 2),
                    "{damage:?} -j{jobs}: only `main` is lowered"
                );
                let trace = tel.render_trace();
                let hit = trace.find(r#""action":"hit","scope":"code","name":"c""#);
                let invalidate = trace
                    .find(r#""action":"invalidate","scope":"code","name":"c""#)
                    .unwrap_or_else(|| panic!("{damage:?}: no invalidate event: {trace}"));
                let late = matches!(damage, CodeDamage::BadOrdinal);
                match hit {
                    Some(hit) => assert!(late && hit < invalidate, "{damage:?}: {trace}"),
                    None => assert!(!late, "{damage:?}: a late invalidate follows a hit"),
                }
                assert!(
                    trace[invalidate..].contains(r#""action":"store","scope":"code","name":"c""#),
                    "{damage:?}: the slot is stored afresh: {trace}"
                );
                assert_eq!(
                    trace.matches(r#""action":"store","scope":"code""#).count(),
                    1,
                    "{damage:?}: no other slot is rewritten: {trace}"
                );
                // Healed: another edit replays all three routines.
                drop(cache);
                let again = sources("fn extra(x: int) -> int { return x + 1; }");
                let tel = Telemetry::disabled();
                let (_, cache) = session(&storage, &again, jobs, &tel, &mut |_| {});
                assert_eq!(cache.stats().invalidations, 0, "{damage:?} -j{jobs}");
                assert_eq!(
                    (cache.routines_lowered(), cache.routines_replayed()),
                    (0, 3),
                    "{damage:?} -j{jobs}: healed slot"
                );
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// GC never drops a record the manifest still points at: after
        /// a compaction over arbitrary payloads, evictions, and stale
        /// index segments, every key whose hash resolved before the
        /// sweep still resolves to byte-identical content — and the
        /// repository never grows.
        #[test]
        fn gc_never_drops_a_live_record(
            payloads in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
                1..10,
            ),
            evict_mask in proptest::prelude::any::<u32>(),
            extra_flushes in 1usize..4,
        ) {
            use cmo_naim::MemStorage;
            let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
            let tel = Telemetry::disabled();
            let mut cache = BuildCache::open_on(Arc::clone(&storage), &tel).unwrap();
            // Records straight into the repository: GC keeps only what
            // decodes, and a one-row code slot holds any entry bytes.
            let payloads: Vec<Vec<u8>> = payloads
                .iter()
                .map(|entry| {
                    let mut table = 1u128.to_le_bytes().to_vec();
                    table.extend_from_slice(&(entry.len() as u32).to_le_bytes());
                    let mut enc = Encoder::new();
                    enc.write_u8(TAG_CODE);
                    enc.write_bytes(&table);
                    enc.write_bytes(entry);
                    enc.into_bytes()
                })
                .collect();
            for (i, payload) in payloads.iter().enumerate() {
                let handle = cache.repo.store(payload).unwrap();
                let hash = cache.repo.hash_of(handle).unwrap();
                cache.manifest.insert(format!("mod:{i}"), hash);
            }
            for (i, payload) in payloads.iter().enumerate() {
                if evict_mask & (1 << (i % 32)) != 0 {
                    cache.repo.evict(ContentHash::of(payload));
                }
            }
            for _ in 0..extra_flushes {
                // The raw stores above bypassed the dirty tracking.
                cache.dirty = true;
                cache.persist().unwrap();
            }
            // Expectations, computed exactly as the mark phase sees them.
            let pre: Vec<(String, Option<Vec<u8>>)> = cache
                .manifest
                .iter()
                .map(|(key, &hash)| {
                    let body = cache
                        .repo
                        .lookup(hash)
                        .map(|_| payloads.iter().find(|p| ContentHash::of(p) == hash).unwrap().clone());
                    (key.clone(), body)
                })
                .collect();
            let size_before = storage.size(REPO_FILE).unwrap();

            cache.gc(&tel).unwrap();

            let size_after = storage.size(REPO_FILE).unwrap();
            prop_assert!(size_after <= size_before);
            prop_assert_eq!(cache.dead_bytes().unwrap(), 0);
            for (key, body) in pre {
                match body {
                    Some(expected) => {
                        let &hash = cache.manifest.get(&key).expect("live key pruned");
                        let handle = cache
                            .repo
                            .lookup(hash)
                            .expect("live record dropped");
                        let back = cache.repo.fetch_ref(handle).map(<[u8]>::to_vec).unwrap();
                        prop_assert_eq!(&back, &expected);
                    }
                    None => prop_assert!(
                        !cache.manifest.contains_key(&key),
                        "dead key survived: {}", key
                    ),
                }
            }
        }
    }
}
