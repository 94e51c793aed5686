#![warn(missing_docs)]
//! The abstract target machine.
//!
//! The paper measures run-time speedups on a 180 MHz HP PA-8000
//! workstation. This reproduction substitutes a deterministic abstract
//! machine with a cycle cost model chosen so the *mechanisms* behind
//! those speedups exist here too:
//!
//! * calls carry real overhead (frame setup plus per-argument cost), so
//!   inlining hot call sites pays off;
//! * taken branches cost more than fall-throughs, so profile-guided
//!   block layout pays off;
//! * instruction fetch goes through a simulated direct-mapped i-cache
//!   over the final linked image, so procedure clustering (the
//!   profile-guided linker layout of Pettis–Hansen) pays off;
//! * register pressure is real: spill slots cost loads and stores, so
//!   over-aggressive inlining can hurt, reproducing the tension behind
//!   the paper's inlining heuristics.
//!
//! Executing an instrumented image additionally collects probe counts,
//! which [`profile_from_run`] turns into a [`cmo_profile::ProfileDb`].

mod codec;
mod cost;
mod disasm;
mod exec;
mod image;
mod minstr;

/// The byte-stream types of [`encode_instr`] / [`decode_instr`] and the
/// image codec, re-exported so their callers need no second dependency.
pub use cmo_naim::{DecodeError, Decoder, Encoder};
pub use codec::{decode_instr, encode_instr, IMAGE_MAGIC};
pub use cost::{CostModel, ICacheConfig};
pub use disasm::{disassemble, disassemble_routine};
pub use exec::{run, ExecError, ExecResult, RunConfig};
pub use image::{profile_from_run, MRoutineInfo, MachineImage};
pub use minstr::{CallArgs, MInstr, Reg, MAX_CALL_ARGS, NUM_REGS};
