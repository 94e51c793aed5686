//! Storage abstraction under the repository and the build cache, plus a
//! deterministic fault injector.
//!
//! §6.3 of the paper argues CMO is only deployable because failures are
//! isolated automatically. This module supplies the substrate for that
//! claim's storage half: every byte the persistent layers touch flows
//! through the [`Storage`] trait, so tests can interpose
//! [`FaultyStorage`] — a schedule-driven wrapper that injects torn
//! writes, ENOSPC, dropped fsyncs, bit flips, and whole-process crashes
//! at an exact I/O operation index — and verify that recovery produces
//! byte-identical builds.
//!
//! The crash model is "kill -9 with prefix survival": operations before
//! the kill point take effect, the killed write may leave a torn
//! half-prefix, and at the crash every file reverts to its last *synced*
//! length (data that was never [`Storage::sync`]ed does not survive).
//! Renames are modeled as atomic but carry only the source's durable
//! state, so a rename of an unsynced temp file loses the file — exactly
//! the classic zero-length-after-rename failure the commit protocol in
//! `cmo::BuildCache` must defend against.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::mmap::MapView;
use crate::remote::RemoteStats;

/// A small named-file store: the I/O boundary for all persistent state.
///
/// Methods take `&self` so one storage handle can be shared between the
/// repository and the manifest/journal writers; implementations
/// provide their own interior mutability. Names are flat (no directory
/// components) — the store is a single cache directory.
pub trait Storage: fmt::Debug + Send + Sync {
    /// Reads the entire file `name`.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure, including a missing file.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Replaces the contents of `name` with `data`, creating it if
    /// missing. Not atomic — callers wanting atomicity write a temp
    /// name, [`Storage::sync`] it, then [`Storage::rename`].
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure.
    fn write(&self, name: &str, data: &[u8]) -> io::Result<()>;

    /// Appends `data` to `name` (creating it if missing), returning the
    /// offset the data starts at.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure.
    fn append(&self, name: &str, data: &[u8]) -> io::Result<u64>;

    /// Reads `len` bytes of `name` starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure, including short reads.
    fn read_at(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>>;

    /// Current size of `name` in bytes.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure, including a missing file.
    fn size(&self, name: &str) -> io::Result<u64>;

    /// Truncates `name` to `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure.
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;

    /// Makes the current contents of `name` durable (fsync).
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure.
    fn sync(&self, name: &str) -> io::Result<()>;

    /// Atomically renames `from` to `to`, replacing `to` if it exists.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;

    /// Whether `name` currently exists.
    fn exists(&self, name: &str) -> bool;

    /// Removes `name`.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure, including a missing file.
    fn remove(&self, name: &str) -> io::Result<()>;

    /// Returns a read-only [`MapView`] of `name`'s entire current
    /// contents, or `Ok(None)` when this storage does not serve views.
    ///
    /// The default declines: callers then fall back to [`Storage::read_at`].
    /// Only [`DiskStorage`] maps. In-memory storage declines because a
    /// view of it would be a copy of the whole file, and wrappers that
    /// meter or perturb the operation stream (the fault injector in
    /// particular) keep their op-indexed schedules unchanged by simply
    /// not overriding this.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure, including a missing file.
    fn map(&self, _name: &str) -> io::Result<Option<MapView>> {
        Ok(None)
    }

    /// Stable label naming this backend's tier in diagnostics:
    /// `"local"` (the default), `"remote"`, or `"tiered"`. Wrappers
    /// forward to their inner storage so error context names the tier
    /// the bytes actually came from.
    fn tier_label(&self) -> &'static str {
        "local"
    }

    /// Remote-tier traffic statistics, when a remote tier is attached
    /// somewhere in this storage stack. The default reports none.
    fn remote_stats(&self) -> Option<RemoteStats> {
        None
    }
}

/// Real-filesystem storage rooted at a directory.
#[derive(Debug)]
pub struct DiskStorage {
    root: PathBuf,
}

impl DiskStorage {
    /// Opens (creating if needed) the directory `root`. Memory-mapped
    /// views are served where the platform supports them, unless
    /// `CMO_NO_MMAP=1` is set (see [`Storage::map`]).
    ///
    /// # Errors
    ///
    /// Returns any failure creating the directory.
    pub fn new<P: AsRef<Path>>(root: P) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(DiskStorage { root })
    }

    /// The directory this storage lives in.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Storage for DiskStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn write(&self, name: &str, data: &[u8]) -> io::Result<()> {
        std::fs::write(self.path(name), data)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<u64> {
        let mut file = File::options()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        let offset = file.seek(SeekFrom::End(0))?;
        file.write_all(data)?;
        Ok(offset)
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut file = File::open(self.path(name))?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        Ok(std::fs::metadata(self.path(name))?.len())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let file = File::options().write(true).open(self.path(name))?;
        file.set_len(len)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        File::open(self.path(name))?.sync_all()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.path(from), self.path(to))
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        std::fs::remove_file(self.path(name))
    }

    fn map(&self, name: &str) -> io::Result<Option<MapView>> {
        // `CMO_NO_MMAP=1` forces the decline-to-map arm that non-unix
        // builds always take, so CI on unix exercises that path too
        // (every read then copies through the arena; reports and
        // traces are byte-identical either way, which the mmap-on/off
        // byte-identity test checks).
        if std::env::var_os("CMO_NO_MMAP").is_some_and(|v| v == "1") {
            return Ok(None);
        }
        #[cfg(unix)]
        {
            let file = File::open(self.path(name))?;
            // A refused mapping (exotic filesystem, resource limits) is
            // not an error — the caller just reads the slow way.
            Ok(MapView::map_file(&file).ok())
        }
        #[cfg(not(unix))]
        {
            Ok(None)
        }
    }
}

/// Recovers a possibly-poisoned mutex guard: a panic while holding the
/// lock must not cascade into every later storage operation.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic in-memory storage for tests and fault harnesses.
#[derive(Debug, Default)]
pub struct MemStorage {
    files: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemStorage {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Deep-copies the store, so one post-crash state can be recovered
    /// independently at several job counts.
    #[must_use]
    pub fn snapshot(&self) -> MemStorage {
        MemStorage {
            files: Mutex::new(lock(&self.files).clone()),
        }
    }

    fn missing(name: &str) -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}"))
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        lock(&self.files)
            .get(name)
            .cloned()
            .ok_or_else(|| Self::missing(name))
    }

    fn write(&self, name: &str, data: &[u8]) -> io::Result<()> {
        lock(&self.files).insert(name.to_owned(), data.to_vec());
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<u64> {
        let mut files = lock(&self.files);
        // Appending to an existing file (the repository's every store)
        // must not allocate a key.
        let file = match files.get_mut(name) {
            Some(file) => file,
            None => files.entry(name.to_owned()).or_default(),
        };
        let offset = file.len() as u64;
        file.extend_from_slice(data);
        Ok(offset)
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let files = lock(&self.files);
        let file = files.get(name).ok_or_else(|| Self::missing(name))?;
        let start = offset as usize;
        match start.checked_add(len).filter(|&e| e <= file.len()) {
            Some(end) => Ok(file[start..end].to_vec()),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of file",
            )),
        }
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        lock(&self.files)
            .get(name)
            .map(|f| f.len() as u64)
            .ok_or_else(|| Self::missing(name))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut files = lock(&self.files);
        let file = files.get_mut(name).ok_or_else(|| Self::missing(name))?;
        file.truncate(len as usize);
        Ok(())
    }

    fn sync(&self, _name: &str) -> io::Result<()> {
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut files = lock(&self.files);
        let data = files.remove(from).ok_or_else(|| Self::missing(from))?;
        files.insert(to.to_owned(), data);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        lock(&self.files).contains_key(name)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        lock(&self.files)
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Self::missing(name))
    }
}

/// A single injectable fault, applied to the operation it is scheduled
/// on. A fault scheduled on an operation kind it cannot affect (for
/// example [`Fault::BitFlip`] on a write) is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A write/append fails with "no space left on device" before any
    /// byte lands.
    Enospc,
    /// A write/append persists only the first half of its bytes, then
    /// fails.
    TornWrite,
    /// A read returns its bytes with one deterministically-chosen bit
    /// flipped.
    BitFlip,
    /// A sync reports success without making anything durable, so a
    /// later crash loses data the caller believed committed.
    DropSync,
}

/// The durable length of a file under the crash model: `None` means the
/// file does not durably exist (it was created but never synced).
type Durable = Option<u64>;

/// Mutable schedule + runtime state of a [`FaultyStorage`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Operations performed so far (every trait call except `exists`).
    ops: u64,
    /// Crash the process model at this operation index.
    kill_at: Option<u64>,
    /// Set once the kill point fires; all later operations fail.
    crashed: bool,
    /// Faults keyed by the operation index they fire on.
    faults: BTreeMap<u64, Fault>,
    /// Last synced length per file (crash-surviving state).
    durable: BTreeMap<String, Durable>,
}

/// What [`FaultyStorage::admit`] decides for one operation.
enum Admit {
    Proceed,
    Kill,
    Fault(Fault),
}

/// Storage wrapper that injects faults from a deterministic schedule.
///
/// Wraps any inner [`Storage`]; the schedule is fixed up front
/// (builder methods or [`FaultyStorage::with_seeded_faults`]), so a run
/// over the same inner state replays identically.
#[derive(Debug)]
pub struct FaultyStorage {
    inner: Arc<dyn Storage>,
    plan: Mutex<FaultPlan>,
}

impl FaultyStorage {
    /// Wraps `inner` with an empty fault schedule.
    #[must_use]
    pub fn new(inner: Arc<dyn Storage>) -> Self {
        FaultyStorage {
            inner,
            plan: Mutex::new(FaultPlan::default()),
        }
    }

    /// Schedules a crash at operation index `op` (0-based).
    #[must_use]
    pub fn kill_at(self, op: u64) -> Self {
        lock(&self.plan).kill_at = Some(op);
        self
    }

    /// Schedules `fault` to fire on operation index `op`.
    #[must_use]
    pub fn with_fault(self, op: u64, fault: Fault) -> Self {
        lock(&self.plan).faults.insert(op, fault);
        self
    }

    /// Wraps `inner` with `count` faults spread pseudo-randomly (seeded,
    /// deterministic) over operation indices `0..max_op`.
    #[must_use]
    pub fn with_seeded_faults(inner: Arc<dyn Storage>, seed: u64, max_op: u64, count: u32) -> Self {
        let this = FaultyStorage::new(inner);
        {
            let mut plan = lock(&this.plan);
            let mut state = seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                | 1;
            for _ in 0..count {
                let op = xorshift(&mut state) % max_op.max(1);
                let fault = match xorshift(&mut state) % 4 {
                    0 => Fault::Enospc,
                    1 => Fault::TornWrite,
                    2 => Fault::BitFlip,
                    _ => Fault::DropSync,
                };
                plan.faults.insert(op, fault);
            }
        }
        this
    }

    /// Total operations admitted so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        lock(&self.plan).ops
    }

    /// Whether the kill point has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        lock(&self.plan).crashed
    }

    /// Counts the operation, records the file's durable baseline on
    /// first mutation, and decides the operation's fate.
    fn admit(&self, mutated: Option<&str>) -> io::Result<(u64, Admit)> {
        let mut plan = lock(&self.plan);
        if plan.crashed {
            return Err(io::Error::other("storage crashed (kill point passed)"));
        }
        if let Some(name) = mutated {
            if !plan.durable.contains_key(name) {
                // A file that predates the fault injector counts as
                // durable at its current length.
                let baseline = if self.inner.exists(name) {
                    Some(self.inner.size(name)?)
                } else {
                    None
                };
                plan.durable.insert(name.to_owned(), baseline);
            }
        }
        let op = plan.ops;
        plan.ops += 1;
        if plan.kill_at == Some(op) {
            return Ok((op, Admit::Kill));
        }
        match plan.faults.get(&op) {
            Some(&fault) => Ok((op, Admit::Fault(fault))),
            None => Ok((op, Admit::Proceed)),
        }
    }

    /// Fires the crash: reverts every touched file to its durable state
    /// and fails all subsequent operations.
    fn crash(&self) -> io::Error {
        let mut plan = lock(&self.plan);
        plan.crashed = true;
        for (name, durable) in &plan.durable {
            match *durable {
                Some(len) => {
                    if self.inner.exists(name)
                        && self.inner.size(name).map(|s| s > len).unwrap_or(false)
                    {
                        let _ = self.inner.truncate(name, len);
                    }
                }
                None => {
                    if self.inner.exists(name) {
                        let _ = self.inner.remove(name);
                    }
                }
            }
        }
        io::Error::other("storage crashed (injected kill point)")
    }

    fn flip_bit(data: &mut [u8], op: u64) {
        if data.is_empty() {
            return;
        }
        let bit = (op as usize).wrapping_mul(0x9e37_79b9) % (data.len() * 8);
        data[bit / 8] ^= 1 << (bit % 8);
    }

    fn enospc() -> io::Error {
        io::Error::other("no space left on device (injected)")
    }

    fn torn() -> io::Error {
        io::Error::new(io::ErrorKind::WriteZero, "torn write (injected)")
    }
}

pub(crate) fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

impl Storage for FaultyStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let (op, admit) = self.admit(None)?;
        match admit {
            Admit::Kill => Err(self.crash()),
            Admit::Fault(Fault::BitFlip) => {
                let mut data = self.inner.read(name)?;
                Self::flip_bit(&mut data, op);
                Ok(data)
            }
            _ => self.inner.read(name),
        }
    }

    fn write(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let (_, admit) = self.admit(Some(name))?;
        match admit {
            Admit::Kill => {
                let _ = self.inner.write(name, &data[..data.len() / 2]);
                Err(self.crash())
            }
            Admit::Fault(Fault::Enospc) => Err(Self::enospc()),
            Admit::Fault(Fault::TornWrite) => {
                self.inner.write(name, &data[..data.len() / 2])?;
                Err(Self::torn())
            }
            _ => self.inner.write(name, data),
        }
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<u64> {
        let (_, admit) = self.admit(Some(name))?;
        match admit {
            Admit::Kill => {
                let _ = self.inner.append(name, &data[..data.len() / 2]);
                Err(self.crash())
            }
            Admit::Fault(Fault::Enospc) => Err(Self::enospc()),
            Admit::Fault(Fault::TornWrite) => {
                self.inner.append(name, &data[..data.len() / 2])?;
                Err(Self::torn())
            }
            _ => self.inner.append(name, data),
        }
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let (op, admit) = self.admit(None)?;
        match admit {
            Admit::Kill => Err(self.crash()),
            Admit::Fault(Fault::BitFlip) => {
                let mut data = self.inner.read_at(name, offset, len)?;
                Self::flip_bit(&mut data, op);
                Ok(data)
            }
            _ => self.inner.read_at(name, offset, len),
        }
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        let (_, admit) = self.admit(None)?;
        match admit {
            Admit::Kill => Err(self.crash()),
            _ => self.inner.size(name),
        }
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let (_, admit) = self.admit(Some(name))?;
        match admit {
            Admit::Kill => Err(self.crash()),
            _ => self.inner.truncate(name, len),
        }
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let (_, admit) = self.admit(Some(name))?;
        match admit {
            Admit::Kill => Err(self.crash()),
            // The dropped sync *reports* success; durable state is not
            // advanced, so a later crash loses the data anyway.
            Admit::Fault(Fault::DropSync) => Ok(()),
            _ => {
                self.inner.sync(name)?;
                let durable = Some(self.inner.size(name)?);
                lock(&self.plan).durable.insert(name.to_owned(), durable);
                Ok(())
            }
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let (_, admit) = self.admit(Some(from))?;
        {
            // Baseline the destination too: a crash may need to restore
            // its pre-rename durable length.
            let mut plan = lock(&self.plan);
            if !plan.durable.contains_key(to) {
                let baseline = if self.inner.exists(to) {
                    Some(self.inner.size(to)?)
                } else {
                    None
                };
                plan.durable.insert(to.to_owned(), baseline);
            }
        }
        match admit {
            Admit::Kill => Err(self.crash()),
            _ => {
                self.inner.rename(from, to)?;
                // The rename is atomic, but the new name only durably
                // holds what the old name had synced.
                let mut plan = lock(&self.plan);
                let carried = plan.durable.remove(from).flatten();
                plan.durable.insert(from.to_owned(), None);
                plan.durable.insert(to.to_owned(), carried);
                Ok(())
            }
        }
    }

    fn exists(&self, name: &str) -> bool {
        if lock(&self.plan).crashed {
            return false;
        }
        self.inner.exists(name)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let (_, admit) = self.admit(Some(name))?;
        match admit {
            Admit::Kill => Err(self.crash()),
            _ => {
                self.inner.remove(name)?;
                lock(&self.plan).durable.insert(name.to_owned(), None);
                Ok(())
            }
        }
    }

    // Pass-throughs (uncounted, like `exists`): diagnostics must not
    // shift the op-indexed fault schedule.
    fn tier_label(&self) -> &'static str {
        self.inner.tier_label()
    }

    fn remote_stats(&self) -> Option<RemoteStats> {
        self.inner.remote_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_round_trips_and_snapshots() {
        let mem = MemStorage::new();
        mem.write("a", b"hello").unwrap();
        assert_eq!(mem.append("a", b" world").unwrap(), 5);
        assert_eq!(mem.read("a").unwrap(), b"hello world");
        assert_eq!(mem.read_at("a", 6, 5).unwrap(), b"world");
        assert_eq!(mem.size("a").unwrap(), 11);
        let snap = mem.snapshot();
        mem.truncate("a", 5).unwrap();
        assert_eq!(mem.read("a").unwrap(), b"hello");
        assert_eq!(snap.read("a").unwrap(), b"hello world");
        mem.rename("a", "b").unwrap();
        assert!(!mem.exists("a"));
        assert!(mem.exists("b"));
        mem.remove("b").unwrap();
        assert!(matches!(
            mem.read("b").unwrap_err().kind(),
            io::ErrorKind::NotFound
        ));
    }

    #[test]
    fn disk_storage_round_trips() {
        let dir = std::env::temp_dir().join(format!("cmo-naim-storage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = DiskStorage::new(&dir).unwrap();
        disk.write("f", b"abc").unwrap();
        assert_eq!(disk.append("f", b"def").unwrap(), 3);
        assert_eq!(disk.read("f").unwrap(), b"abcdef");
        assert_eq!(disk.read_at("f", 2, 2).unwrap(), b"cd");
        assert_eq!(disk.size("f").unwrap(), 6);
        disk.truncate("f", 4).unwrap();
        disk.sync("f").unwrap();
        disk.rename("f", "g").unwrap();
        assert!(disk.exists("g") && !disk.exists("f"));
        assert_eq!(disk.read("g").unwrap(), b"abcd");
        disk.remove("g").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_keeps_half_and_errors() {
        let faulty =
            FaultyStorage::new(Arc::new(MemStorage::new())).with_fault(0, Fault::TornWrite);
        assert!(faulty.write("f", b"12345678").is_err());
        assert_eq!(faulty.read("f").unwrap(), b"1234");
        assert!(!faulty.crashed());
    }

    #[test]
    fn enospc_leaves_no_bytes() {
        let faulty = FaultyStorage::new(Arc::new(MemStorage::new())).with_fault(0, Fault::Enospc);
        assert!(faulty.append("f", b"xyz").is_err());
        assert!(!faulty.exists("f"));
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let mem = Arc::new(MemStorage::new());
        mem.write("f", b"\0\0\0\0").unwrap();
        let faulty = FaultyStorage::new(mem).with_fault(0, Fault::BitFlip);
        let flipped = faulty.read("f").unwrap();
        let ones: u32 = flipped.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "flipped bytes: {flipped:?}");
        // The next read (no scheduled fault) sees the true bytes.
        assert_eq!(faulty.read("f").unwrap(), b"\0\0\0\0");
    }

    #[test]
    fn crash_reverts_unsynced_data_and_fails_later_ops() {
        let mem = Arc::new(MemStorage::new());
        let faulty = FaultyStorage::new(Arc::clone(&mem) as Arc<dyn Storage>).kill_at(4);
        faulty.append("f", b"synced").unwrap(); // op 0
        faulty.sync("f").unwrap(); // op 1
        faulty.append("f", b"+lost").unwrap(); // op 2
        faulty.append("g", b"never synced").unwrap(); // op 3
        assert!(faulty.size("f").is_err()); // op 4: kill
        assert!(faulty.crashed());
        assert!(faulty.read("f").is_err(), "post-crash ops must fail");
        // The inner store is the disk after reboot: synced prefix only.
        assert_eq!(mem.read("f").unwrap(), b"synced");
        assert!(!mem.exists("g"));
    }

    #[test]
    fn dropped_sync_loses_data_at_crash() {
        let mem = Arc::new(MemStorage::new());
        let faulty = FaultyStorage::new(Arc::clone(&mem) as Arc<dyn Storage>)
            .with_fault(1, Fault::DropSync)
            .kill_at(2);
        faulty.append("f", b"data").unwrap(); // op 0
        faulty.sync("f").unwrap(); // op 1: dropped, reports Ok
        assert!(faulty.read("f").is_err()); // op 2: kill
        assert!(!mem.exists("f"), "dropped sync must not be durable");
    }

    #[test]
    fn rename_of_unsynced_file_is_lost_at_crash() {
        let mem = Arc::new(MemStorage::new());
        let faulty = FaultyStorage::new(Arc::clone(&mem) as Arc<dyn Storage>).kill_at(4);
        faulty.write("t.tmp", b"new").unwrap(); // op 0: never synced
        faulty.rename("t.tmp", "t").unwrap(); // op 1
        faulty.write("u.tmp", b"durable").unwrap(); // op 2
        faulty.sync("u.tmp").unwrap(); // op 3
        assert!(faulty.rename("u.tmp", "u").is_err()); // op 4: kill
        assert!(!mem.exists("t"), "unsynced rename survived the crash");
        // The killed rename never happened; the synced temp survives.
        assert_eq!(mem.read("u.tmp").unwrap(), b"durable");
    }

    #[test]
    fn synced_rename_survives_crash() {
        let mem = Arc::new(MemStorage::new());
        let faulty = FaultyStorage::new(Arc::clone(&mem) as Arc<dyn Storage>).kill_at(3);
        faulty.write("t.tmp", b"new").unwrap(); // op 0
        faulty.sync("t.tmp").unwrap(); // op 1
        faulty.rename("t.tmp", "t").unwrap(); // op 2
        assert!(faulty.read("t").is_err()); // op 3: kill
        assert_eq!(mem.read("t").unwrap(), b"new");
        assert!(!mem.exists("t.tmp"));
    }

    #[test]
    fn preexisting_files_are_durable_at_attach_time() {
        let mem = Arc::new(MemStorage::new());
        mem.write("old", b"ancient bytes").unwrap();
        let faulty = FaultyStorage::new(Arc::clone(&mem) as Arc<dyn Storage>).kill_at(1);
        faulty.append("old", b"+new").unwrap(); // op 0
        assert!(faulty.size("old").is_err()); // op 1: kill
        assert_eq!(mem.read("old").unwrap(), b"ancient bytes");
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let a = FaultyStorage::with_seeded_faults(Arc::new(MemStorage::new()), 42, 100, 8);
        let b = FaultyStorage::with_seeded_faults(Arc::new(MemStorage::new()), 42, 100, 8);
        assert_eq!(lock(&a.plan).faults, lock(&b.plan).faults);
        let c = FaultyStorage::with_seeded_faults(Arc::new(MemStorage::new()), 43, 100, 8);
        assert_ne!(lock(&a.plan).faults, lock(&c.plan).faults);
    }

    #[test]
    fn mem_storage_serves_no_views() {
        // Views are for mapped files; an in-memory file would have to be
        // copied whole on every request, so readers use `read_at`.
        let mem = MemStorage::new();
        mem.write("f", b"bytes").unwrap();
        assert!(mem.map("f").unwrap().is_none());
    }

    #[test]
    fn faulty_storage_never_serves_views() {
        // The fault injector's schedules are op-indexed; serving views
        // would let readers bypass metered `read_at` calls and shift
        // every later kill point. The default `map` declines, even over
        // a storage that maps.
        let dir = std::env::temp_dir().join(format!("cmo-naim-faulty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faulty = FaultyStorage::new(Arc::new(DiskStorage::new(&dir).unwrap()));
        faulty.write("f", b"bytes").unwrap();
        assert!(faulty.map("f").unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
