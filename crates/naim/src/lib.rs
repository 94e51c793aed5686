#![warn(missing_docs)]
//! Not-all-in-memory (NAIM) compilation model.
//!
//! This crate implements the memory-management substrate described in
//! section 4 of *Scalable Cross-Module Optimization* (Ayers, de Jong,
//! Peyton, Schooler; PLDI 1998). The optimizer's data structures fall into
//! three classes:
//!
//! * **Global** objects (program symbol table, call graph) are always
//!   memory resident; they are merely *accounted for* here.
//! * **Transitory** objects (module symbol tables, routine IR) exist in
//!   either *expanded* form (ordinary structs, efficient traversal) or
//!   *relocatable* form (a compact, address-independent byte encoding in
//!   which inter-object references are persistent identifiers: stable
//!   table indices written as varints).
//!   Relocatable pools may further be *offloaded* to a disk
//!   [`Repository`], freeing process memory entirely.
//! * **Derived** objects (data-flow facts, dominators, loop annotations)
//!   are recompute-only: they are never encoded and are dropped whenever
//!   their owning pool leaves expanded form.
//!
//! The [`Loader`] mediates every access to a transitory pool. It keeps an
//! LRU cache of expanded pools, converts pools to and from relocatable
//! form through the [`Relocatable`] compaction/uncompaction drivers
//! (*eager swizzling*: every id in a pool is resolved when the pool is
//! loaded), and engages progressively more aggressive behaviour as the
//! accounted heap crosses fixed fractions of the budget — exactly the
//! staged IR-compaction / symbol-table-compaction / disk-offloading
//! regime of the paper (Figure 5).
//!
//! # Example
//!
//! ```
//! use cmo_naim::{Loader, NaimConfig, Relocatable, Encoder, Decoder, DecodeError, PoolKind};
//!
//! #[derive(Clone, Debug, PartialEq)]
//! struct Notes(Vec<u64>);
//!
//! impl Relocatable for Notes {
//!     fn compact(&self, enc: &mut Encoder) {
//!         enc.write_u64(self.0.len() as u64);
//!         for &n in &self.0 { enc.write_u64(n); }
//!     }
//!     fn uncompact(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
//!         let len = dec.read_u64()? as usize;
//!         let mut v = Vec::with_capacity(len);
//!         for _ in 0..len { v.push(dec.read_u64()?); }
//!         Ok(Notes(v))
//!     }
//!     fn expanded_bytes(&self) -> usize {
//!         std::mem::size_of::<Self>() + self.0.capacity() * 8
//!     }
//! }
//!
//! # fn main() -> Result<(), cmo_naim::NaimError> {
//! let mut loader: Loader<Notes> = Loader::new(NaimConfig::with_budget(4096));
//! let id = loader.insert(Notes(vec![1, 2, 3]), PoolKind::Ir);
//! loader.unload(id);           // eligible for compaction / offload
//! let notes = loader.get(id)?; // transparently re-expanded on demand
//! assert_eq!(notes.0, vec![1, 2, 3]);
//! # Ok(())
//! # }
//! ```

mod accounting;
mod encode;
mod error;
mod loader;
mod mixer;
mod mmap;
mod remote;
mod repository;
mod storage;
mod tiered;

pub use accounting::{MemCharge, MemClass, MemoryAccountant, MemorySnapshot};
pub use encode::{Decoder, Encoder};
pub use error::{DecodeError, NaimError};
pub use loader::{
    Loader, LoaderStats, NaimConfig, NaimLevel, PoolId, PoolKind, PoolState, Relocatable,
    COMPACT_COST_PER_BYTE, DISK_COST_PER_BYTE, FETCH_COST_PER_BYTE, IR_COMPACTION_THRESHOLD,
    OFFLOAD_THRESHOLD, ST_COMPACTION_THRESHOLD,
};
pub use mixer::Mixer;
pub use mmap::MapView;
pub use remote::{
    read_frame_bytes, CacheService, FlakyTransport, Frame, FrameOp, LoopbackTransport, RemoteStats,
    RemoteStorage, RemoteTransport, RetryPolicy, ServiceStats, TcpTransport, WireFault,
};
pub use repository::{
    crc32, ContentHash, RepoHandle, RepoRecovery, RepoStats, Repository, REPO_MAGIC, REPO_VERSION,
};
pub use storage::{DiskStorage, Fault, FaultyStorage, MemStorage, Storage};
pub use tiered::TieredStorage;
