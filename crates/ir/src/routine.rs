//! Routines: always-resident metadata and transitory bodies.
//!
//! Splitting each routine into a small, always-resident [`RoutineMeta`]
//! (part of the program symbol table) and a heavyweight [`RoutineBody`]
//! (a transitory pool the loader may compact or offload) is the
//! organization of Figure 3.

use crate::ids::{Block, CallSiteId, Local, ModuleId, Sym, VReg};
use crate::instr::{Instr, Terminator};
use crate::module::Linkage;
use crate::types::{Signature, VarTy};

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockData {
    /// Instructions in execution order.
    pub instrs: Vec<Instr>,
    /// The block terminator.
    pub term: Terminator,
}

impl BlockData {
    /// An empty block ending in `term`.
    #[must_use]
    pub fn new(term: Terminator) -> Self {
        BlockData {
            instrs: Vec::new(),
            term,
        }
    }
}

/// Declaration of a local variable slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalDecl {
    /// Variable type (scalar or array).
    pub ty: VarTy,
    /// `true` for the slots holding incoming parameters.
    pub is_param: bool,
}

/// Always-resident routine metadata: the program-symbol-table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutineMeta {
    /// Routine name (program interner).
    pub name: Sym,
    /// Defining module.
    pub module: ModuleId,
    /// Signature.
    pub sig: Signature,
    /// Export or module-internal.
    pub linkage: Linkage,
    /// Source lines this routine was compiled from; the unit of the
    /// paper's lines-of-code axes (Figures 4 and 6).
    pub source_lines: u32,
    /// Number of IL instructions at frontend time (size estimate used
    /// by inlining heuristics before the body is loaded).
    pub il_size: u32,
}

/// The transitory body of one routine.
///
/// Bodies live in NAIM pools: analysis results about a body (liveness,
/// dominators, loop info) are *derived* data kept in side structures
/// that are discarded when the body is unloaded, never encoded.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutineBody {
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<BlockData>,
    /// Local variable declarations; parameter slots come first.
    pub locals: Vec<LocalDecl>,
    /// Number of virtual registers in use.
    pub n_vregs: u32,
    /// Next unassigned call-site id.
    pub next_site: u32,
}

impl RoutineBody {
    /// An empty body with no blocks.
    #[must_use]
    pub fn new() -> Self {
        RoutineBody {
            blocks: Vec::new(),
            locals: Vec::new(),
            n_vregs: 0,
            next_site: 0,
        }
    }

    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        let r = VReg(self.n_vregs);
        self.n_vregs += 1;
        r
    }

    /// Allocates a fresh call-site id.
    pub fn new_site(&mut self) -> CallSiteId {
        let s = CallSiteId(self.next_site);
        self.next_site += 1;
        s
    }

    /// Allocates a fresh local slot.
    pub fn new_local(&mut self, ty: VarTy, is_param: bool) -> Local {
        let l = Local::from_index(self.locals.len());
        self.locals.push(LocalDecl { ty, is_param });
        l
    }

    /// The entry block.
    #[must_use]
    pub fn entry(&self) -> Block {
        Block(0)
    }

    /// Shared access to a block's data.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[must_use]
    pub fn block(&self, b: Block) -> &BlockData {
        &self.blocks[b.index()]
    }

    /// Iterates over `(Block, &BlockData)` in index order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (Block, &BlockData)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (Block::from_index(i), b))
    }

    /// Total instruction count (not counting terminators).
    #[must_use]
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Deterministic structural fingerprint over per-block instruction
    /// counts and successor lists (FNV-1a). Together with block and
    /// call-site counts this identifies a routine's shape for
    /// stale-profile detection (§6.2).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for block in &self.blocks {
            mix(block.instrs.len() as u64);
            for s in block.term.successors() {
                mix(0x8000_0000_0000_0000 | s.index() as u64);
            }
            mix(u64::MAX);
        }
        h
    }

    /// Approximate expanded heap bytes, mirroring what an
    /// address-pointer representation with annotation slots would
    /// occupy. Instruction payloads (`Call` argument vectors) are
    /// included.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>();
        bytes += self.blocks.capacity() * std::mem::size_of::<BlockData>();
        for b in &self.blocks {
            bytes += b.instrs.capacity() * std::mem::size_of::<Instr>();
            for i in &b.instrs {
                if let Instr::Call { args, .. } = i {
                    bytes += args.capacity() * std::mem::size_of::<VReg>();
                }
            }
        }
        bytes += self.locals.capacity() * std::mem::size_of::<LocalDecl>();
        bytes
    }
}

impl Default for RoutineBody {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::CalleeRef;
    use crate::types::Ty;
    use crate::RoutineId;

    fn body_with_call() -> RoutineBody {
        let mut b = RoutineBody::new();
        let r0 = b.new_vreg();
        let site = b.new_site();
        let mut blk = BlockData::new(Terminator::Return(Some(r0)));
        blk.instrs.push(Instr::Call {
            dst: Some(r0),
            callee: CalleeRef::Id(RoutineId(1)),
            args: vec![],
            site,
        });
        b.blocks.push(blk);
        b
    }

    #[test]
    fn vreg_and_site_allocation_is_sequential() {
        let mut b = RoutineBody::new();
        assert_eq!(b.new_vreg(), VReg(0));
        assert_eq!(b.new_vreg(), VReg(1));
        assert_eq!(b.new_site(), CallSiteId(0));
        assert_eq!(b.new_site(), CallSiteId(1));
        let l = b.new_local(VarTy::scalar(Ty::I64), true);
        assert_eq!(l.index(), 0);
        assert!(b.locals[0].is_param);
    }

    #[test]
    fn heap_bytes_grows_with_instructions() {
        let empty = RoutineBody::new().heap_bytes();
        let with_call = body_with_call().heap_bytes();
        assert!(with_call > empty);
    }
}
