#![warn(missing_docs)]
//! Scalable cross-module optimization — the reproduction's public
//! facade.
//!
//! This crate is the "cc driver" of the framework described in *Scalable
//! Cross-Module Optimization* (Ayers, de Jong, Peyton, Schooler; PLDI
//! 1998): it wires the MLC frontend, IL linking, the NAIM-backed
//! high-level optimizer, the low-level optimizer, and the clustering
//! linker into the HP-UX-style option surface:
//!
//! | Option | Meaning |
//! |---|---|
//! | `+O1` | optimize only within basic blocks |
//! | `+O2` | full intraprocedural optimization (the baseline of Figure 1) |
//! | `+O2 +P` | PBO: profile-guided layout and clustering |
//! | `+O4` | CMO: cross-module interprocedural optimization |
//! | `+O4 +P` | CMO+PBO: hot-site inlining, selectivity |
//! | `+I` | instrument for profile collection |
//!
//! # Example
//!
//! ```
//! use cmo::{Compiler, BuildOptions, OptLevel};
//!
//! # fn main() -> Result<(), cmo::BuildError> {
//! let mut cc = Compiler::new();
//! cc.add_source("util", "fn inc(x: int) -> int { return x + 1; }")?;
//! cc.add_source(
//!     "app",
//!     r#"
//!     extern fn inc(x: int) -> int;
//!     fn main() -> int {
//!         var i: int = 0;
//!         while (i < 100) { i = inc(i); }
//!         return i;
//!     }
//!     "#,
//! )?;
//!
//! // Train: instrumented +O2 build, run, collect the profile.
//! let train = cc.build(&BuildOptions::instrumented())?;
//! let db = train.run_for_profile(&[])?;
//!
//! // Ship: +O4 +P.
//! let fast = cc.build(&BuildOptions::new(OptLevel::O4).with_profile_db(db))?;
//! let result = fast.run(&[])?;
//! assert_eq!(result.returned, 100);
//! # Ok(())
//! # }
//! ```

mod cache;
mod driver;
mod isolate;
mod parallel;
mod report;

pub use cache::{
    build_key, module_fingerprint, object_fingerprint, options_signature, BuildCache, CacheStats,
    CachedObject, GcStats, CACHE_FORMAT,
};
pub use driver::{
    BuildError, BuildOptions, BuildOutput, CompileStep, Compiler, ModuleInput, OptLevel,
};
pub use isolate::{isolate_faulty_op, isolate_inline_ops, InlineIsolation, IsolationReport};
pub use parallel::{default_jobs, run_jobs, try_run_jobs, JobError};
pub use report::{CompileReport, FaultStats};

// Re-export the pieces a downstream user composes with.
pub use cmo_frontend::compile_module;
pub use cmo_hlo::InlineOptions;
pub use cmo_ir::IlObject;
pub use cmo_naim::{
    CacheService, DiskStorage, Fault, FaultyStorage, FlakyTransport, LoopbackTransport, MemStorage,
    NaimConfig, NaimLevel, RemoteStats, RemoteStorage, RemoteTransport, RepoRecovery, RetryPolicy,
    Storage, TcpTransport, TieredStorage, WireFault,
};
pub use cmo_profile::ProfileDb;
pub use cmo_telemetry::{PhaseRecord, Telemetry, TraceEvent};
pub use cmo_vm::{ExecResult, RunConfig};
