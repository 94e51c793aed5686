//! The disk repository for relocatable pool images (§4.2), grown into a
//! persistent content-addressed store.
//!
//! The paper's repository is a per-run scratch file: the loader unloads
//! relocatable pool images into it and keeps only a small handle. Because
//! the relocatable form maps directly to the loaded form (a deliberate
//! difference from the Convex Application Compiler, §7), reading a pool
//! back requires no rebuild — just a read plus one uncompaction pass.
//!
//! That same property makes the repository a natural cross-run cache, so
//! the on-disk format is versioned and checksummed:
//!
//! ```text
//! file   := header record* [index footer]
//! header := magic "CMONAIM\0" (8 bytes) | version (u32 LE)
//! record := kind (u8) | hash_lo (u64 LE) | hash_hi (u64 LE)
//!           | len (u32 LE) | crc (u32 LE) | payload (len bytes)
//! footer := index_offset (u64 LE) | cookie "NAIM" (u32 LE)
//! ```
//!
//! Records are content-addressed: `store` hashes the payload and returns
//! the existing record when an identical image is already present
//! (dedup). Handles are indices into an in-memory record index rather
//! than raw byte offsets; [`Repository::open`] rebuilds the
//! index from the trailing index segment (fast path) or by scanning the
//! record chain (recovery path), so a store written by one process can
//! be fetched by the next.

use std::collections::HashMap;
use std::sync::Arc;

use crate::encode::{Decoder, Encoder};
use crate::error::NaimError;
use crate::mixer::Mixer;
use crate::mmap::MapView;
use crate::storage::{MemStorage, Storage};

/// Magic bytes opening every repository file.
pub const REPO_MAGIC: [u8; 8] = *b"CMONAIM\0";

/// Current on-disk format version. Bump when the record framing, the
/// index-segment encoding or [`ContentHash`] (which every record header
/// carries) changes incompatibly.
pub const REPO_VERSION: u32 = 3;

/// Cookie closing the 12-byte footer that points at the index segment.
const FOOTER_COOKIE: u32 = u32::from_le_bytes(*b"NAIM");

const HEADER_LEN: u64 = 12;
const RECORD_HEADER_LEN: u64 = 25;
const FOOTER_LEN: u64 = 12;

/// Record kind tag for a pool image payload.
const KIND_POOL: u8 = 1;
/// Record kind tag for an index segment.
const KIND_INDEX: u8 = 2;

/// 128-bit content hash of a stored payload, used for dedup on store
/// and for cross-run addressing: the repository's record headers, the
/// build cache's manifest and `cmocached`'s blob names all carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentHash(pub [u64; 2]);

impl ContentHash {
    /// Hashes a payload: [`Mixer`] over its little-endian 8-byte words,
    /// the tail word zero-padded, then the byte length, so payloads
    /// that differ only in trailing zeros stay distinct. `[0]` holds
    /// the digest's low half.
    #[must_use]
    pub fn of(data: &[u8]) -> Self {
        let mut m = Mixer::new();
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            m.word(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            m.word(u64::from_le_bytes(last));
        }
        m.word(data.len() as u64);
        let digest = m.finish();
        ContentHash([digest as u64, (digest >> 64) as u64])
    }

    /// Renders the hash as 32 lowercase hex digits.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }

    /// Parses the 32-hex-digit form produced by [`ContentHash::to_hex`].
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        let lo = u64::from_str_radix(&s[..16], 16).ok()?;
        let hi = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(ContentHash([lo, hi]))
    }
}

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) over `data`.
///
/// Slice-by-8: eight table lookups fold eight input bytes per step,
/// breaking the byte-at-a-time loop's one-lookup-per-byte dependency
/// chain. Same polynomial, same values as the bytewise definition.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = crc32_tables();
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC
/// state after byte `i` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Handle to a pool image stored in the repository.
///
/// The handle names a slot in the repository's in-memory record index,
/// not a raw byte offset; offsets stay private to the store so the index
/// segment can relocate records on future format revisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RepoHandle {
    id: u32,
    len: u32,
}

impl RepoHandle {
    /// The record id within the repository index.
    #[must_use]
    pub fn id(self) -> u32 {
        self.id
    }

    /// Length in bytes of the stored image.
    #[must_use]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Returns `true` if the stored image is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Statistics on repository traffic, used by the Figure 5 experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepoStats {
    /// Number of pool images written.
    pub writes: u64,
    /// Number of pool images read back.
    pub reads: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Stores satisfied by an existing identical record (no write).
    pub dedup_hits: u64,
    /// Reads served as borrowed slices straight from a storage view
    /// (no payload copy). Transport-dependent — mmap availability and
    /// platform change it — so it never flows into compile reports,
    /// which must stay byte-identical with mmap on and off.
    pub zero_copy_reads: u64,
}

/// What [`Repository::open`] had to repair: trailing bytes that
/// did not form a complete, well-framed record (a torn append or
/// unknown-kind garbage) were truncated away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepoRecovery {
    /// Bytes dropped from the tail of the file.
    pub dropped_bytes: u64,
    /// Length of the valid prefix the repository was truncated to.
    pub valid_len: u64,
}

#[derive(Debug, Clone, Copy)]
struct RecordMeta {
    /// Byte offset of the payload (past the 25-byte record header).
    payload_offset: u64,
    len: u32,
    crc: u32,
    hash: ContentHash,
}

/// An append-only, content-addressed store of relocatable pool images,
/// kept in one file of a [`Storage`].
///
/// Within a run it backs NAIM offloading; on persistent storage the
/// format survives the process, and [`Repository::open`] rehydrates the
/// record index so a later compilation can fetch pools stored by an
/// earlier one (incremental recompilation).
#[derive(Debug)]
pub struct Repository {
    storage: Arc<dyn Storage>,
    name: String,
    /// Cached view of a prefix of the file, when the storage serves
    /// views. Appends leave it valid for its covered range (the store
    /// is append-only); it is dropped on truncate and re-requested when
    /// a read falls past its end.
    view: Option<MapView>,
    records: Vec<RecordMeta>,
    by_hash: HashMap<ContentHash, u32>,
    stats: RepoStats,
    recovery: Option<RepoRecovery>,
    /// Fetch arena: when the storage serves no view,
    /// [`Repository::fetch_ref`] reads the record here. Released by
    /// [`Repository::recycle_arena`].
    scratch: Vec<u8>,
    /// Bytes served by `fetch_ref` since the last recycle, counted the
    /// same on the view and the arena path (mode-independent).
    arena_served: u64,
}

impl Repository {
    /// Creates a repository in a fresh [`MemStorage`], in process
    /// memory.
    #[must_use]
    pub fn in_memory() -> Self {
        Repository::create(Arc::new(MemStorage::new()), "repo.naim")
            .expect("in-memory storage is infallible")
    }

    /// Creates a fresh repository as file `name` of `storage`: replaces
    /// whatever the file held with the versioned header.
    ///
    /// # Errors
    ///
    /// Returns any storage I/O failure.
    pub fn create(storage: Arc<dyn Storage>, name: impl Into<String>) -> Result<Self, NaimError> {
        let repo = Repository::bind(storage, name.into());
        let mut header = [0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(&REPO_MAGIC);
        header[8..].copy_from_slice(&REPO_VERSION.to_le_bytes());
        repo.storage.write(&repo.name, &header)?;
        Ok(repo)
    }

    /// Opens file `name` of `storage`: validates the header, then
    /// rebuilds the record index from the trailing index segment or by
    /// scanning.
    ///
    /// # Errors
    ///
    /// Returns [`NaimError::RepoHeader`] / [`NaimError::RepoVersion`] on
    /// a malformed or incompatible header, and any I/O failure.
    pub fn open(storage: Arc<dyn Storage>, name: impl Into<String>) -> Result<Self, NaimError> {
        let mut repo = Repository::bind(storage, name.into());
        let size = repo.size()?;
        if size < HEADER_LEN {
            return Err(NaimError::RepoHeader {
                what: "file shorter than the 12-byte header",
            });
        }
        let header = repo.read_at(0, HEADER_LEN as usize)?;
        if header[..8] != REPO_MAGIC {
            return Err(NaimError::RepoHeader {
                what: "bad magic (not a CMONAIM repository)",
            });
        }
        let found = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if found != REPO_VERSION {
            return Err(NaimError::RepoVersion {
                found,
                expected: REPO_VERSION,
            });
        }
        if !repo.load_index_from_footer(size)? {
            let valid_end = repo.scan_records(size)?;
            if valid_end < size {
                // A torn append (or unknown-kind garbage) left trailing
                // bytes that are not a well-framed record: drop them so
                // the next append starts on a clean record boundary.
                repo.truncate(valid_end)?;
                repo.recovery = Some(RepoRecovery {
                    dropped_bytes: size - valid_end,
                    valid_len: valid_end,
                });
            }
        }
        for (id, rec) in repo.records.iter().enumerate() {
            // Last record wins: duplicate hashes only arise when an
            // earlier record was evicted as corrupt and its payload
            // re-stored, and then the newest copy is the good one.
            repo.by_hash.insert(rec.hash, id as u32);
        }
        Ok(repo)
    }

    /// An empty index over file `name` of `storage`.
    fn bind(storage: Arc<dyn Storage>, name: String) -> Self {
        Repository {
            storage,
            name,
            view: None,
            records: Vec::new(),
            by_hash: HashMap::new(),
            stats: RepoStats::default(),
            recovery: None,
            scratch: Vec::new(),
            arena_served: 0,
        }
    }

    /// Current file length; a file that does not exist reads as empty.
    fn size(&self) -> std::io::Result<u64> {
        if !self.storage.exists(&self.name) {
            return Ok(0);
        }
        self.storage.size(&self.name)
    }

    fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        self.storage.read_at(&self.name, offset, len)
    }

    fn append(&self, data: &[u8]) -> std::io::Result<u64> {
        self.storage.append(&self.name, data)
    }

    /// Truncates the file to `len` bytes. The cached view may cover
    /// pages past the new end, and faulting them in after the truncate
    /// would be undefined, so it is dropped.
    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.view = None;
        self.storage.truncate(&self.name, len)
    }

    /// The repair performed while opening, if the record chain had a
    /// torn or garbage tail. `None` after a clean open.
    #[must_use]
    pub fn recovery(&self) -> Option<RepoRecovery> {
        self.recovery
    }

    /// Fast path: an intact index segment addressed by the file footer.
    /// Returns `Ok(false)` (caller falls back to a scan) on any
    /// inconsistency, reserving hard errors for I/O failures.
    fn load_index_from_footer(&mut self, size: u64) -> Result<bool, NaimError> {
        if size < HEADER_LEN + RECORD_HEADER_LEN + FOOTER_LEN {
            return Ok(false);
        }
        let footer = self.read_at(size - FOOTER_LEN, FOOTER_LEN as usize)?;
        let cookie = u32::from_le_bytes([footer[8], footer[9], footer[10], footer[11]]);
        if cookie != FOOTER_COOKIE {
            return Ok(false);
        }
        let index_offset = u64::from_le_bytes(footer[..8].try_into().unwrap());
        if index_offset < HEADER_LEN || index_offset + RECORD_HEADER_LEN + FOOTER_LEN > size {
            return Ok(false);
        }
        let head = self.read_at(index_offset, RECORD_HEADER_LEN as usize)?;
        let (kind, _hash, len, crc) = parse_record_header(&head);
        if kind != KIND_INDEX {
            return Ok(false);
        }
        // The index must be the final record, flush against the footer.
        if index_offset + RECORD_HEADER_LEN + u64::from(len) + FOOTER_LEN != size {
            return Ok(false);
        }
        let payload = self.read_at(index_offset + RECORD_HEADER_LEN, len as usize)?;
        if crc32(&payload) != crc {
            return Ok(false);
        }
        let Some(records) = decode_index(&payload) else {
            return Ok(false);
        };
        // Every indexed record must lie inside the file.
        for rec in &records {
            if rec.payload_offset + u64::from(rec.len) > size {
                return Ok(false);
            }
        }
        self.records = records;
        Ok(true)
    }

    /// Recovery path: walk the record chain from the header, returning
    /// the end of the longest valid prefix. A torn final record
    /// (crashed append), a partial record header, or an unknown record
    /// kind ends the walk; everything before it remains fetchable and
    /// the caller truncates the rest away.
    fn scan_records(&mut self, size: u64) -> Result<u64, NaimError> {
        self.records.clear();
        let mut pos = HEADER_LEN;
        while pos + RECORD_HEADER_LEN <= size {
            let head = self.read_at(pos, RECORD_HEADER_LEN as usize)?;
            let (kind, hash, len, crc) = parse_record_header(&head);
            if kind != KIND_POOL && kind != KIND_INDEX {
                break; // garbage tail: not a record we ever wrote
            }
            let payload_offset = pos + RECORD_HEADER_LEN;
            if payload_offset + u64::from(len) > size {
                break; // torn tail from an interrupted append
            }
            if kind == KIND_POOL {
                self.records.push(RecordMeta {
                    payload_offset,
                    len,
                    crc,
                    hash,
                });
            }
            pos = payload_offset + u64::from(len);
            // A footer may trail an index segment; skip it when present.
            if kind == KIND_INDEX && pos + FOOTER_LEN <= size {
                let maybe = self.read_at(pos, FOOTER_LEN as usize)?;
                let cookie = u32::from_le_bytes([maybe[8], maybe[9], maybe[10], maybe[11]]);
                if cookie == FOOTER_COOKIE {
                    pos += FOOTER_LEN;
                }
            }
        }
        Ok(pos)
    }

    /// Stores a pool image, returning its handle.
    ///
    /// Storing bytes whose content hash matches an existing record
    /// returns the existing handle without writing (dedup).
    ///
    /// # Errors
    ///
    /// Returns [`NaimError::OutOfMemory`]-free validation errors for
    /// over-long images (checked *before* any byte reaches the storage)
    /// and any storage I/O failure.
    pub fn store(&mut self, image: &[u8]) -> Result<RepoHandle, NaimError> {
        // Validate the 4 GiB record limit before appending so a rejected
        // store never leaks file space.
        let len = u32::try_from(image.len()).map_err(|_| {
            NaimError::Repository(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "pool image over 4 GiB",
            ))
        })?;
        let hash = ContentHash::of(image);
        if let Some(&id) = self.by_hash.get(&hash) {
            self.stats.dedup_hits += 1;
            return Ok(RepoHandle {
                id,
                len: self.records[id as usize].len,
            });
        }
        let crc = crc32(image);
        let mut buf = Vec::with_capacity(RECORD_HEADER_LEN as usize + image.len());
        write_record_header(&mut buf, KIND_POOL, hash, len, crc);
        buf.extend_from_slice(image);
        let record_offset = self.append(&buf)?;
        let id = self.records.len() as u32;
        self.records.push(RecordMeta {
            payload_offset: record_offset + RECORD_HEADER_LEN,
            len,
            crc,
            hash,
        });
        self.by_hash.insert(hash, id);
        self.stats.writes += 1;
        self.stats.bytes_written += u64::from(len);
        Ok(RepoHandle { id, len })
    }

    /// Fetches a pool image previously stored (possibly by an earlier
    /// process) as a borrowed slice, verifying its CRC. When the storage
    /// serves views (a memory-mapped [`crate::DiskStorage`] file) the
    /// bytes come straight from the mapping with no copy; otherwise the
    /// record alone is read into the repository's fetch arena. Either
    /// way the slice is only valid until the next `&mut self` call.
    ///
    /// # Errors
    ///
    /// Returns [`NaimError::UnknownPool`] for an out-of-range record id,
    /// [`NaimError::RepoTruncated`] when the file ends before the
    /// record's declared payload, [`NaimError::RepoChecksum`] on CRC
    /// mismatch, and any storage I/O failure.
    pub fn fetch_ref(&mut self, handle: RepoHandle) -> Result<&[u8], NaimError> {
        let Some(meta) = self.records.get(handle.id as usize).copied() else {
            return Err(NaimError::UnknownPool { pool: handle.id });
        };
        let (start, len) = (meta.payload_offset, u64::from(meta.len));
        let size = self.size()?;
        if start + len > size {
            return Err(NaimError::RepoTruncated {
                record: handle.id,
                wanted: len,
                got: size.saturating_sub(start),
                backend: self.storage.tier_label(),
            });
        }
        let range = start as usize..(start + len) as usize;
        if self.view.as_ref().is_none_or(|v| v.len() < range.end) {
            // Stale or missing: re-request a view of the grown file.
            self.view = self.storage.map(&self.name)?;
        }
        let view = self.view.as_deref().and_then(|v| v.get(range.clone()));
        let zero_copy = view.is_some();
        let data = match view {
            Some(data) => data,
            None => {
                self.scratch = self.storage.read_at(&self.name, start, range.len())?;
                &self.scratch
            }
        };
        let computed = crc32(data);
        if computed != meta.crc {
            return Err(NaimError::RepoChecksum {
                record: handle.id,
                stored: meta.crc,
                computed,
                backend: self.storage.tier_label(),
            });
        }
        self.stats.reads += 1;
        self.stats.bytes_read += len;
        self.stats.zero_copy_reads += u64::from(zero_copy);
        self.arena_served += len;
        Ok(data)
    }

    /// Bytes served through [`Repository::fetch_ref`] since the arena
    /// was last recycled. Counted identically on the view and the arena
    /// path, so the number is transport-independent.
    #[must_use]
    pub fn arena_served(&self) -> u64 {
        self.arena_served
    }

    /// Recycles the fetch arena: releases its memory and returns (and resets) the served-byte counter. The
    /// loader calls this at the end of each enforcement sweep so the
    /// arena never outlives the eviction wave that filled it.
    pub fn recycle_arena(&mut self) -> u64 {
        self.scratch = Vec::new();
        std::mem::take(&mut self.arena_served)
    }

    /// Looks up a stored record by content hash, the cross-run address
    /// used by the incremental-build cache manifest.
    #[must_use]
    pub fn lookup(&self, hash: ContentHash) -> Option<RepoHandle> {
        self.by_hash.get(&hash).map(|&id| RepoHandle {
            id,
            len: self.records[id as usize].len,
        })
    }

    /// Content hash of a stored record.
    #[must_use]
    pub fn hash_of(&self, handle: RepoHandle) -> Option<ContentHash> {
        self.records.get(handle.id as usize).map(|r| r.hash)
    }

    /// Drops a record from the content-hash index so a future store of
    /// the same payload appends a fresh record instead of dedup-hitting
    /// the existing — presumably corrupt — one. The record's bytes stay
    /// in the file as dead weight and existing handles keep resolving;
    /// only [`Repository::lookup`] and dedup forget it. Returns whether
    /// the hash was indexed.
    pub fn evict(&mut self, hash: ContentHash) -> bool {
        self.by_hash.remove(&hash).is_some()
    }

    /// Number of pool records in the index.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Exact byte size a freshly-compacted generation holding only the
    /// records behind `live` would occupy: header, one record per
    /// distinct content hash (in first-seen order, matching store-time
    /// dedup), a single index segment, and the footer. The build
    /// cache's garbage collector subtracts this from the current file
    /// size to compute dead bytes, so the number must account for the
    /// varint index encoding rather than approximate it.
    ///
    /// Handles whose id is out of range are skipped; callers resolve
    /// handles from a manifest that may reference dropped records.
    #[must_use]
    pub fn compacted_size(&self, live: &[RepoHandle]) -> u64 {
        let mut metas: Vec<RecordMeta> = Vec::with_capacity(live.len());
        let mut seen: HashMap<ContentHash, ()> = HashMap::with_capacity(live.len());
        let mut offset = HEADER_LEN;
        for handle in live {
            let Some(meta) = self.records.get(handle.id as usize) else {
                continue;
            };
            if seen.insert(meta.hash, ()).is_some() {
                continue;
            }
            metas.push(RecordMeta {
                payload_offset: offset + RECORD_HEADER_LEN,
                len: meta.len,
                crc: meta.crc,
                hash: meta.hash,
            });
            offset += RECORD_HEADER_LEN + u64::from(meta.len);
        }
        let index = encode_index(&metas);
        offset + RECORD_HEADER_LEN + index.len() as u64 + FOOTER_LEN
    }

    /// Appends an index segment plus footer so the next
    /// [`Repository::open`] can rebuild the record index without
    /// scanning. Safe to call repeatedly; the footer at end-of-file
    /// always wins.
    ///
    /// # Errors
    ///
    /// Returns any storage I/O failure.
    pub fn flush_index(&mut self) -> Result<(), NaimError> {
        let payload = encode_index(&self.records);
        let len = u32::try_from(payload.len()).map_err(|_| {
            NaimError::Repository(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "index segment over 4 GiB",
            ))
        })?;
        let hash = ContentHash::of(&payload);
        let crc = crc32(&payload);
        let mut buf =
            Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len() + FOOTER_LEN as usize);
        write_record_header(&mut buf, KIND_INDEX, hash, len, crc);
        buf.extend_from_slice(&payload);
        let index_offset = self.append(&buf)?;
        let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
        footer.extend_from_slice(&index_offset.to_le_bytes());
        footer.extend_from_slice(&FOOTER_COOKIE.to_le_bytes());
        self.append(&footer)?;
        Ok(())
    }

    /// Traffic statistics since creation.
    #[must_use]
    pub fn stats(&self) -> RepoStats {
        self.stats
    }
}

fn write_record_header(buf: &mut Vec<u8>, kind: u8, hash: ContentHash, len: u32, crc: u32) {
    buf.push(kind);
    buf.extend_from_slice(&hash.0[0].to_le_bytes());
    buf.extend_from_slice(&hash.0[1].to_le_bytes());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&crc.to_le_bytes());
}

fn parse_record_header(head: &[u8]) -> (u8, ContentHash, u32, u32) {
    let kind = head[0];
    let lo = u64::from_le_bytes(head[1..9].try_into().unwrap());
    let hi = u64::from_le_bytes(head[9..17].try_into().unwrap());
    let len = u32::from_le_bytes(head[17..21].try_into().unwrap());
    let crc = u32::from_le_bytes(head[21..25].try_into().unwrap());
    (kind, ContentHash([lo, hi]), len, crc)
}

fn encode_index(records: &[RecordMeta]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.write_usize(records.len());
    for rec in records {
        enc.write_u64(rec.payload_offset);
        enc.write_u64(u64::from(rec.len));
        enc.write_u64(u64::from(rec.crc));
        enc.write_u64(rec.hash.0[0]);
        enc.write_u64(rec.hash.0[1]);
    }
    enc.into_bytes()
}

fn decode_index(payload: &[u8]) -> Option<Vec<RecordMeta>> {
    let mut dec = Decoder::new(payload);
    let count = dec.read_usize().ok()?;
    let mut records = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let payload_offset = dec.read_u64().ok()?;
        let len = u32::try_from(dec.read_u64().ok()?).ok()?;
        let crc = u32::try_from(dec.read_u64().ok()?).ok()?;
        let lo = dec.read_u64().ok()?;
        let hi = dec.read_u64().ok()?;
        records.push(RecordMeta {
            payload_offset,
            len,
            crc,
            hash: ContentHash([lo, hi]),
        });
    }
    if !dec.is_at_end() {
        return None;
    }
    Some(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskStorage, FaultyStorage};
    use std::path::Path;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cmo-naim-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The file at `path` of the [`DiskStorage`] rooted at its
    /// directory, as the build cache binds its repository.
    fn on_disk(path: &Path) -> (Arc<dyn Storage>, &str) {
        let storage = DiskStorage::new(path.parent().unwrap()).unwrap();
        (
            Arc::new(storage),
            path.file_name().unwrap().to_str().unwrap(),
        )
    }

    fn create(path: impl AsRef<Path>) -> Result<Repository, NaimError> {
        let (storage, name) = on_disk(path.as_ref());
        Repository::create(storage, name)
    }

    fn open(path: impl AsRef<Path>) -> Result<Repository, NaimError> {
        let (storage, name) = on_disk(path.as_ref());
        Repository::open(storage, name)
    }

    /// The bytewise definition slice-by-8 must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest::proptest! {
        /// Every length 0–4096 at every start alignment 0–7 (the
        /// 8-byte chunking must not depend on where the slice sits).
        #[test]
        fn crc32_agrees_with_the_bytewise_loop(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4104),
            start in 0usize..8,
        ) {
            let data = &data[start.min(data.len())..];
            proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    #[test]
    fn in_memory_round_trips() {
        let mut repo = Repository::in_memory();
        let h1 = repo.store(b"alpha").unwrap();
        let h2 = repo.store(b"beta").unwrap();
        assert_eq!(repo.fetch_ref(h1).unwrap(), b"alpha");
        assert_eq!(repo.fetch_ref(h2).unwrap(), b"beta");
        let s = repo.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes_written, 9);
    }

    #[test]
    fn fetch_ref_reads_in_memory_records_into_the_arena() {
        // `MemStorage` serves no views, so an in-memory fetch reads just
        // the record into the arena.
        let mut repo = Repository::in_memory();
        let h = repo.store(b"arena payload").unwrap();
        assert_eq!(repo.fetch_ref(h).unwrap(), b"arena payload");
        let s = repo.stats();
        assert_eq!((s.reads, s.zero_copy_reads), (1, 0));
        assert_eq!(s.bytes_read, 13);
        assert!(repo.view.is_none());
        assert_eq!(repo.scratch, b"arena payload");
        assert_eq!(repo.arena_served(), 13);
        assert_eq!(repo.recycle_arena(), 13);
        assert_eq!(repo.arena_served(), 0);
        assert_eq!(repo.scratch.capacity(), 0);
    }

    #[test]
    fn fetch_ref_falls_back_to_scratch_without_views() {
        let dir = temp_dir("fetchref-fallback");
        // A storage that declines to map (the fault injector with no
        // fault scheduled, as a non-unix build or `CMO_NO_MMAP=1` would)
        // serves no views, so this exercises the pread-into-arena path;
        // the bytes and stats must match anyway.
        let storage: Arc<dyn Storage> = Arc::new(FaultyStorage::new(Arc::new(
            DiskStorage::new(&dir).unwrap(),
        )));
        let mut repo = Repository::create(storage, "repo.bin").unwrap();
        let h = repo.store(&[42u8; 500]).unwrap();
        assert_eq!(repo.fetch_ref(h).unwrap(), &[42u8; 500][..]);
        assert_eq!(repo.fetch_ref(h).unwrap(), &[42u8; 500][..]);
        let s = repo.stats();
        assert_eq!((s.reads, s.zero_copy_reads), (2, 0));
        assert_eq!(repo.arena_served(), 1000);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repository_owns_one_file_of_its_storage() {
        let dir = temp_dir("one-file");
        let storage: Arc<dyn Storage> = Arc::new(DiskStorage::new(&dir).unwrap());
        storage.write("neighbour", b"untouched").unwrap();
        storage
            .write("repo.naim", b"stale bytes from an older run")
            .unwrap();
        // Create replaces what the file held with the bare header.
        let mut repo = Repository::create(Arc::clone(&storage), "repo.naim").unwrap();
        assert_eq!(storage.read("repo.naim").unwrap(), repo_header());
        let h = repo.store(b"abcdef").unwrap();
        let end = HEADER_LEN + RECORD_HEADER_LEN + 6;
        assert_eq!(repo.size().unwrap(), end);
        assert_eq!(std::fs::metadata(dir.join("repo.naim")).unwrap().len(), end);
        assert_eq!(repo.fetch_ref(h).unwrap(), b"abcdef");
        // Truncation cuts the record the index still names.
        repo.truncate(end - 3).unwrap();
        assert!(matches!(
            repo.fetch_ref(h),
            Err(NaimError::RepoTruncated {
                wanted: 6,
                got: 3,
                ..
            })
        ));
        assert_eq!(storage.read("neighbour").unwrap(), b"untouched");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn repo_header() -> Vec<u8> {
        [&REPO_MAGIC[..], &REPO_VERSION.to_le_bytes()].concat()
    }

    #[cfg(unix)]
    #[test]
    fn views_cover_appended_records_after_a_refresh_and_drop_on_truncate() {
        let dir = temp_dir("views");
        let storage: Arc<dyn Storage> = Arc::new(DiskStorage::new(&dir).unwrap());
        let mut repo = Repository::create(storage, "repo.naim").unwrap();
        let a = repo.store(b"first record").unwrap();
        assert_eq!(repo.fetch_ref(a).unwrap(), b"first record");
        let mapped = repo.size().unwrap() as usize;
        assert_eq!(repo.view.as_ref().map(|v| v.len()), Some(mapped));
        // An appended record lies past the view until a fetch of it
        // refreshes the view over the grown file.
        let b = repo.store(b"second record").unwrap();
        assert_eq!(repo.view.as_ref().map(|v| v.len()), Some(mapped));
        assert_eq!(repo.fetch_ref(b).unwrap(), b"second record");
        let grown = repo.size().unwrap() as usize;
        assert_eq!(repo.view.as_ref().map(|v| v.len()), Some(grown));
        assert_eq!(repo.fetch_ref(a).unwrap(), b"first record");
        assert_eq!(repo.stats().zero_copy_reads, 3);
        // A truncate drops the view; the next fetch maps what is left.
        repo.truncate(mapped as u64).unwrap();
        assert!(repo.view.is_none());
        assert_eq!(repo.fetch_ref(a).unwrap(), b"first record");
        assert_eq!(repo.view.as_ref().map(|v| v.len()), Some(mapped));
        assert!(matches!(
            repo.fetch_ref(b),
            Err(NaimError::RepoTruncated { .. })
        ));
        assert_eq!(repo.stats().zero_copy_reads, 4);
        assert_eq!(repo.scratch.capacity(), 0, "no read went through the arena");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fetch_ref_detects_corruption_like_fetch() {
        let dir = temp_dir("fetchref-crc");
        let path = dir.join("repo.bin");
        let mut repo = create(&path).unwrap();
        let h = repo.store(b"payload under test").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = repo.fetch_ref(h).unwrap_err();
        assert!(matches!(err, NaimError::RepoChecksum { record, .. } if record == h.id()));
        // Failed fetches count nothing, same as the owned path.
        assert_eq!(repo.stats().reads, 0);
        assert_eq!(repo.arena_served(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn identical_images_dedup_to_one_record() {
        let mut repo = Repository::in_memory();
        let h1 = repo.store(b"same bytes").unwrap();
        let h2 = repo.store(b"same bytes").unwrap();
        assert_eq!(h1, h2);
        assert_eq!(repo.record_count(), 1);
        assert_eq!(repo.stats().writes, 1);
        assert_eq!(repo.stats().dedup_hits, 1);
        assert_eq!(repo.fetch_ref(h2).unwrap(), b"same bytes");
    }

    #[test]
    fn compacted_size_matches_a_real_fresh_generation() {
        let dir = temp_dir("compacted-size");
        let mut repo = create(dir.join("old.bin")).unwrap();
        let a = repo.store(b"alpha payload").unwrap();
        let b = repo.store(&[0xAB; 300]).unwrap();
        let c = repo.store(&[]).unwrap();
        // Stale index segments are the dead weight GC reclaims.
        repo.flush_index().unwrap();
        repo.flush_index().unwrap();
        repo.flush_index().unwrap();
        // Live set: duplicates and out-of-range ids must not count.
        let bogus = RepoHandle { id: 999, len: 1 };
        let live = [a, c, a, bogus];
        let predicted = repo.compacted_size(&live);

        // Build the generation compacted_size claims to predict.
        let mut fresh = create(dir.join("new.bin")).unwrap();
        for h in [a, c, a] {
            let bytes = repo.fetch_ref(h).unwrap();
            fresh.store(bytes).unwrap();
        }
        fresh.flush_index().unwrap();
        drop(fresh);
        let actual = std::fs::metadata(dir.join("new.bin")).unwrap().len();
        assert_eq!(predicted, actual);
        // Dropping `b` and the stale segments must actually shrink.
        let _ = b;
        let old = std::fs::metadata(dir.join("old.bin")).unwrap().len();
        assert!(predicted < old, "no dead bytes: {predicted} vs {old}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backend_round_trips() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("repo.bin");
        let mut repo = create(&path).unwrap();
        let h = repo.store(&[7u8; 1000]).unwrap();
        assert_eq!(repo.fetch_ref(h).unwrap(), vec![7u8; 1000]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_fetch_is_unknown_pool() {
        let mut repo = Repository::in_memory();
        let real = repo.store(b"x").unwrap();
        let mut other = Repository::in_memory();
        for _ in 0..5 {
            other.store(b"filler").unwrap();
        }
        drop(other);
        let bogus = RepoHandle {
            id: real.id() + 100,
            len: 4,
        };
        assert!(matches!(
            repo.fetch_ref(bogus),
            Err(NaimError::UnknownPool { pool }) if pool == real.id() + 100
        ));
    }

    #[test]
    fn empty_image_is_fine() {
        let mut repo = Repository::in_memory();
        let h = repo.store(&[]).unwrap();
        assert!(h.is_empty());
        assert_eq!(repo.fetch_ref(h).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn store_then_fetch_across_restart_via_index() {
        let dir = temp_dir("restart-index");
        let path = dir.join("repo.bin");
        let (ha, hb, hash_a) = {
            let mut repo = create(&path).unwrap();
            let ha = repo.store(b"first pool image").unwrap();
            let hb = repo.store(b"second pool image").unwrap();
            let hash_a = repo.hash_of(ha).unwrap();
            repo.flush_index().unwrap();
            (ha, hb, hash_a)
        }; // drop closes the file: simulated process exit
        let mut reopened = open(&path).unwrap();
        assert_eq!(reopened.record_count(), 2);
        assert_eq!(reopened.fetch_ref(ha).unwrap(), b"first pool image");
        assert_eq!(reopened.fetch_ref(hb).unwrap(), b"second pool image");
        assert_eq!(reopened.lookup(hash_a), Some(ha));
        // Dedup keeps working across the restart.
        let again = reopened.store(b"first pool image").unwrap();
        assert_eq!(again, ha);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_then_fetch_across_restart_via_scan() {
        let dir = temp_dir("restart-scan");
        let path = dir.join("repo.bin");
        // No flush_index: simulates a run that died before writing the
        // index segment. open() must fall back to scanning.
        let h = create(&path).unwrap().store(b"unindexed pool").unwrap();
        let mut reopened = open(&path).unwrap();
        assert_eq!(reopened.record_count(), 1);
        assert_eq!(reopened.fetch_ref(h).unwrap(), b"unindexed pool");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported_on_open() {
        let dir = temp_dir("torn-tail");
        let path = dir.join("repo.bin");
        let (ha, torn_len) = {
            let mut repo = create(&path).unwrap();
            let ha = repo.store(b"intact record").unwrap();
            repo.store(b"this record will be torn mid-payload").unwrap();
            (ha, 10)
        };
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - torn_len]).unwrap();
        let mut repo = open(&path).unwrap();
        // The intact record survives; the torn one is gone.
        assert_eq!(repo.record_count(), 1);
        assert_eq!(repo.fetch_ref(ha).unwrap(), b"intact record");
        let rec = repo.recovery().expect("open repaired a torn tail");
        assert_eq!(
            rec.dropped_bytes,
            RECORD_HEADER_LEN + 36 - torn_len as u64,
            "dropped the torn record's surviving prefix"
        );
        // The file itself was truncated to the valid prefix, so a new
        // append lands on a record boundary and a re-open is clean.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), rec.valid_len);
        let hb = repo.store(b"appended after recovery").unwrap();
        drop(repo);
        let mut reopened = open(&path).unwrap();
        assert!(reopened.recovery().is_none());
        assert_eq!(reopened.fetch_ref(hb).unwrap(), b"appended after recovery");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evicted_record_restores_fresh_and_wins_reopen() {
        let dir = temp_dir("evict");
        let path = dir.join("repo.bin");
        let (h1, h2) = {
            let mut repo = create(&path).unwrap();
            let h1 = repo.store(b"poisoned payload").unwrap();
            let hash = repo.hash_of(h1).unwrap();
            // Simulate a corrupt record: evict it so the identical
            // payload re-stores as a fresh record instead of deduping.
            assert!(repo.evict(hash));
            assert!(!repo.evict(hash), "second evict finds nothing");
            assert!(repo.lookup(hash).is_none());
            let h2 = repo.store(b"poisoned payload").unwrap();
            assert_ne!(h1.id, h2.id, "re-store must append, not dedup");
            assert_eq!(repo.lookup(hash).unwrap().id, h2.id);
            repo.flush_index().unwrap();
            (h1, h2)
        };
        // On reopen the later (good) record owns the hash, not the
        // evicted one — even though both are still in the file.
        let mut reopened = open(&path).unwrap();
        assert_eq!(reopened.record_count(), 2);
        let hash = reopened.hash_of(h1).unwrap();
        assert_eq!(reopened.lookup(hash).unwrap().id, h2.id);
        assert_eq!(reopened.fetch_ref(h2).unwrap(), b"poisoned payload");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_tail_is_truncated_not_fatal() {
        let dir = temp_dir("garbage-tail");
        let path = dir.join("repo.bin");
        let h = {
            let mut repo = create(&path).unwrap();
            repo.store(b"good bytes").unwrap()
        };
        // Append bytes that are long enough to parse as a record header
        // but carry a kind tag we never wrote.
        let mut garbage = vec![0xEEu8; RECORD_HEADER_LEN as usize + 7];
        garbage[0] = 99;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        std::io::Write::write_all(&mut file, &garbage).unwrap();
        drop(file);
        let mut repo = open(&path).unwrap();
        assert_eq!(repo.record_count(), 1);
        assert_eq!(repo.fetch_ref(h).unwrap(), b"good bytes");
        let rec = repo.recovery().unwrap();
        assert_eq!(rec.dropped_bytes, garbage.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_read_reports_typed_truncation_with_record_id() {
        let dir = temp_dir("shortread");
        let path = dir.join("repo.bin");
        let h = {
            let mut repo = create(&path).unwrap();
            repo.store(b"soon to be truncated").unwrap()
        };
        // Chop the payload tail off.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let mut repo = open(&path).unwrap();
        // The scan drops the torn record, so re-derive a handle as a
        // stale manifest would: the record id from the previous run.
        assert_eq!(repo.record_count(), 0);
        let err = repo.fetch_ref(h).unwrap_err();
        assert!(matches!(err, NaimError::UnknownPool { pool: 0 }));
        // Now truncate mid-payload on a live repository (index still in
        // memory) to exercise the RepoTruncated path itself.
        let mut live = create(&path).unwrap();
        let h2 = live.store(b"soon to be truncated").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let err = live.fetch_ref(h2).unwrap_err();
        let msg = format!("{err}");
        match err {
            NaimError::RepoTruncated {
                record,
                wanted,
                got,
                backend,
            } => {
                assert_eq!(record, h2.id());
                assert_eq!(wanted, 20);
                assert_eq!(got, 15);
                // Satellite: diagnostics name the tier that failed.
                assert_eq!(backend, "local");
                assert!(msg.contains("local backend"), "{msg}");
                // Satellite: the message names the pool image record.
                assert!(msg.contains(&format!("record {record}")), "{msg}");
            }
            other => panic!("expected RepoTruncated, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_mismatch_is_detected() {
        let dir = temp_dir("crc");
        let path = dir.join("repo.bin");
        let mut repo = create(&path).unwrap();
        let h = repo.store(b"payload under test").unwrap();
        // Flip one payload byte on disk behind the repository's back.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = repo.fetch_ref(h).unwrap_err();
        assert!(matches!(err, NaimError::RepoChecksum { record, .. } if record == h.id()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_header_mismatch_is_rejected() {
        let dir = temp_dir("version");
        let path = dir.join("repo.bin");
        {
            let mut repo = create(&path).unwrap();
            repo.store(b"data").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 0xEE; // stamp a bogus format version
        std::fs::write(&path, &bytes).unwrap();
        match open(&path).unwrap_err() {
            NaimError::RepoVersion { found, expected } => {
                assert_eq!(found, 0xEE);
                assert_eq!(expected, REPO_VERSION);
            }
            other => panic!("expected RepoVersion, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = temp_dir("magic");
        let path = dir.join("repo.bin");
        std::fs::write(&path, b"definitely not a repository file").unwrap();
        assert!(matches!(
            open(&path).unwrap_err(),
            NaimError::RepoHeader { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn content_hash_hex_round_trips() {
        let h = ContentHash::of(b"some bytes");
        assert_eq!(ContentHash::from_hex(&h.to_hex()), Some(h));
        assert_eq!(ContentHash::from_hex("short"), None);
        assert_ne!(ContentHash::of(b"a"), ContentHash::of(b"b"));
        // Length folding distinguishes zero-prefix payloads.
        assert_ne!(ContentHash::of(&[0u8; 4]), ContentHash::of(&[0u8; 5]));
    }

    /// Record headers, manifests and blob names persist this hash: a
    /// change to it must fail here, and bump `REPO_VERSION` and the
    /// build cache's format, before it strands every stored record.
    #[test]
    fn content_hash_known_answers() {
        let long: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let cases: [(&[u8], &str); 7] = [
            (b"", "d92fc99cb191949f3c6c3d317f879589"),
            (b"a", "8cb54d146cc6bc74d0a3f7c31f6e5391"),
            (b"abcdefgh", "8f912bdb7278251fc6b256758fca006b"),
            (b"abcdefghi", "374af14a5626d87614252280425ee97f"),
            (
                b"The quick brown fox jumps over the lazy dog",
                "b037cd7fde6d5ad2f5f6446b46d15d0d",
            ),
            (&[0; 8], "a45e35a7bf3d18829dcc22cd87c0cb79"),
            (&long, "89f1bbd977998832ae9a146a10c1afd6"),
        ];
        for (data, hex) in cases {
            assert_eq!(ContentHash::of(data).to_hex(), hex, "{} bytes", data.len());
        }
    }

    #[test]
    fn content_hash_separates_bit_flips_and_zero_runs() {
        let base: Vec<u8> = (0..67u8).map(|i| i.wrapping_mul(37)).collect();
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(ContentHash::of(&base)));
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    seen.insert(ContentHash::of(&flipped)),
                    "bit {bit} of byte {byte}"
                );
            }
        }
        // Zero-padding the tail word must not merge runs of zeros that
        // differ only in length, nor a run with a trailing-zero payload.
        for len in 0..64 {
            assert!(seen.insert(ContentHash::of(&vec![0; len])), "{len} zeros");
        }
        assert_ne!(ContentHash::of(b"\x01"), ContentHash::of(b"\x01\x00"));
    }
}
