//! Routines: always-resident metadata and transitory bodies.
//!
//! Splitting each routine into a small, always-resident [`RoutineMeta`]
//! (part of the program symbol table) and a heavyweight [`RoutineBody`]
//! (a transitory pool the loader may compact or offload) is the
//! organization of Figure 3.

use crate::ids::{Block, CallSiteId, Local, ModuleId, Sym, VReg};
use crate::instr::{ArgSpan, Instr, Terminator};
use crate::module::Linkage;
use crate::types::{Signature, VarTy};

/// A basic block: straight-line instructions plus one terminator.
///
/// Not comparable on its own: its calls' arguments live in the body's
/// pool, so compare bodies.
#[derive(Debug, Clone)]
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
///
/// Two bodies are equal when they have the same blocks, locals and
/// counters and each call passes the same argument registers: the
/// layout of the argument pool, and the entries in it that no call
/// names any more, do not count.
#[derive(Debug, Clone)]
pub struct RoutineBody {
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<BlockData>,
    /// The argument pool: each [`Instr::Call`]'s [`ArgSpan`] names a
    /// run of it. A call that is deleted leaves its run behind; the
    /// encoding writes only what live calls name.
    pub args: Vec<VReg>,
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
            args: Vec::new(),
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

    /// Appends a call's argument registers to the pool and returns the
    /// span that names them.
    ///
    /// # Panics
    ///
    /// Panics past 255 arguments (the backend takes
    /// [`MAX_CALL_ARGS`](crate::MAX_CALL_ARGS); validation rejects more)
    /// or once the pool holds `u32::MAX` entries.
    pub fn push_args(&mut self, args: impl IntoIterator<Item = VReg>) -> ArgSpan {
        let start = self.args.len();
        self.args.extend(args);
        let len = u8::try_from(self.args.len() - start).expect("at most 255 call arguments");
        ArgSpan::new(u32::try_from(start).expect("argument pool fits u32"), len)
    }

    /// The argument registers `span` names.
    ///
    /// # Panics
    ///
    /// Panics if `span` is not a span of this body's pool.
    #[must_use]
    pub fn call_args(&self, span: ArgSpan) -> &[VReg] {
        &self.args[span.range()]
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
    /// occupy: the body, its block, instruction, argument-pool and
    /// local vectors at their capacities.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>();
        bytes += self.blocks.capacity() * std::mem::size_of::<BlockData>();
        for b in &self.blocks {
            bytes += b.instrs.capacity() * std::mem::size_of::<Instr>();
        }
        bytes += self.args.capacity() * std::mem::size_of::<VReg>();
        bytes += self.locals.capacity() * std::mem::size_of::<LocalDecl>();
        bytes
    }
}

impl PartialEq for RoutineBody {
    fn eq(&self, other: &Self) -> bool {
        let same_instr = |a: &Instr, b: &Instr| match (a, b) {
            (
                Instr::Call {
                    dst,
                    callee,
                    args,
                    site,
                },
                Instr::Call {
                    dst: dst2,
                    callee: callee2,
                    args: args2,
                    site: site2,
                },
            ) => {
                (dst, callee, site) == (dst2, callee2, site2)
                    && self.call_args(*args) == other.call_args(*args2)
            }
            _ => a == b,
        };
        let same_block = |a: &BlockData, b: &BlockData| {
            a.term == b.term
                && a.instrs.len() == b.instrs.len()
                && a.instrs
                    .iter()
                    .zip(&b.instrs)
                    .all(|(x, y)| same_instr(x, y))
        };
        self.n_vregs == other.n_vregs
            && self.next_site == other.next_site
            && self.locals == other.locals
            && self.blocks.len() == other.blocks.len()
            && self
                .blocks
                .iter()
                .zip(&other.blocks)
                .all(|(a, b)| same_block(a, b))
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
        let args = b.push_args([r0]);
        blk.instrs.push(Instr::Call {
            dst: Some(r0).into(),
            callee: CalleeRef::Id(RoutineId(1)),
            args,
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
    fn equality_compares_call_arguments_not_pool_layout() {
        let a = body_with_call();
        // The same call, its argument behind a run a deleted call left.
        let mut b = body_with_call();
        b.args = vec![VReg(9), VReg(9), VReg(0)];
        let Instr::Call { args, .. } = &mut b.blocks[0].instrs[0] else {
            unreachable!()
        };
        *args = ArgSpan::new(2, 1);
        assert_eq!(a, b);
        // A different argument register is a different body.
        b.args[2] = VReg(1);
        assert_ne!(a, b);
        // So is one argument fewer.
        let mut c = body_with_call();
        let Instr::Call { args, .. } = &mut c.blocks[0].instrs[0] else {
            unreachable!()
        };
        *args = ArgSpan::new(0, 0);
        assert_ne!(a, c);
    }

    #[test]
    fn heap_bytes_grows_with_instructions() {
        let empty = RoutineBody::new().heap_bytes();
        let with_call = body_with_call().heap_bytes();
        assert!(with_call > empty);
    }
}
