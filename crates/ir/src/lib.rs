#![warn(missing_docs)]
//! The common intermediate language (IL) of the CMO framework.
//!
//! The HP-UX compiler of *Scalable Cross-Module Optimization* (PLDI
//! 1998) pipelines every component — frontends, the high-level optimizer
//! (HLO), the code generator and low-level optimizer (LLO) — through one
//! intermediate language (§3, Figure 2). Frontends dump IL into object
//! files; in CMO mode the linker routes those IL objects back through
//! the optimizer. Because HLO works at the IL level it freely optimizes
//! mixed-language applications and "does not need to know the source
//! language of a module".
//!
//! This crate defines:
//!
//! * the IL itself: [`Instr`], [`Terminator`], [`RoutineBody`],
//!   organized per module ([`ModuleInfo`]) and per program ([`Program`]);
//! * the split between always-resident *global* metadata
//!   ([`RoutineMeta`], [`GlobalMeta`], the program symbol table) and
//!   *transitory* pool contents ([`RoutineBody`], [`ModuleSymbols`])
//!   that the NAIM loader can compact and offload (§4.1, Figure 3);
//! * IL object files ([`IlObject`]) with name-based external references,
//!   keeping all persistent information in ordinary objects for
//!   compatibility with `make`-style builds (§6.1);
//! * IL-level linking ([`link_objects`]): symbol resolution across
//!   modules, producing a [`Program`];
//! * a structural [`validate`](validate::validate_body) pass and a
//!   textual printer for diagnostics.
//!
//! # Example
//!
//! ```
//! use cmo_ir::{IlObjectBuilder, Signature, Ty, link_objects};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut obj = IlObjectBuilder::new("m0");
//! let mut f = obj.routine("main", Signature::new(vec![], Some(Ty::I64)));
//! let c = f.const_i64(42);
//! f.ret(Some(c));
//! f.finish();
//! let object = obj.finish();
//!
//! let linked = link_objects(vec![object])?;
//! assert_eq!(linked.program.routines().len(), 1);
//! # Ok(())
//! # }
//! ```

mod builder;
mod ids;
mod instr;
mod intern;
mod link;
mod module;
mod object;
mod print;
mod program;
mod relocs;
mod routine;
mod summary;
mod types;
pub mod validate;

pub use builder::{IlObjectBuilder, RoutineBuilder};
pub use ids::{Block, CallSiteId, GlobalId, Local, ModuleId, RoutineId, Sym, VReg};
pub use instr::{
    ArgSpan, BinOp, CallDst, CalleeRef, GlobalRef, Instr, MemBase, Terminator, UnOp, Uses,
    MAX_CALL_ARGS,
};
pub use intern::{hash_name, Interner, NameIndex};
pub use link::{link_objects, LinkError, LinkedUnit};
pub use module::{GlobalInit, GlobalVar, Linkage, ModuleInfo, ModuleSymbols};
pub use object::{IlObject, ObjectDecodeError, RoutineDef, IL_MAGIC};
pub use print::print_routine;
pub use program::{GlobalMeta, Program};
pub use relocs::Transitory;
pub use routine::{BlockData, LocalDecl, RoutineBody, RoutineMeta};
pub use summary::{RoutineSummary, SummaryTable};
pub use types::{Const, Signature, Ty, VarTy};
