//! IL instructions and block terminators.

use crate::ids::{Block, CallSiteId, GlobalId, Local, RoutineId, Sym, VReg};
use crate::types::Const;
use std::fmt;

/// Integer and float binary operators.
///
/// Comparison operators produce an `i64` 0/1. Float operators are the
/// `F`-prefixed variants; mixing is rejected by validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `lhs + rhs` (wrapping).
    Add,
    /// `lhs - rhs` (wrapping).
    Sub,
    /// `lhs * rhs` (wrapping).
    Mul,
    /// `lhs / rhs`; division by zero yields 0 (the abstract machine is
    /// total so optimizer correctness is testable on all inputs).
    Div,
    /// `lhs % rhs`; modulo by zero yields 0.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left by `rhs & 63`.
    Shl,
    /// Arithmetic shift right by `rhs & 63`.
    Shr,
    /// Integer equality (0/1).
    Eq,
    /// Integer inequality (0/1).
    Ne,
    /// Signed less-than (0/1).
    Lt,
    /// Signed less-or-equal (0/1).
    Le,
    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Float divide.
    FDiv,
    /// Float ordered less-than (0/1 integer result).
    FLt,
    /// Float ordered equality (0/1 integer result).
    FEq,
}

impl BinOp {
    /// Returns `true` for operators on float operands.
    #[must_use]
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FLt | BinOp::FEq
        )
    }

    /// Lowercase mnemonic used by the printer.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::FLt => "flt",
            BinOp::FEq => "feq",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation (wrapping).
    Neg,
    /// Logical not: 1 if the operand is 0, else 0.
    Not,
    /// Float negation.
    FNeg,
    /// Integer-to-float conversion.
    I2F,
    /// Float-to-integer truncation (saturating).
    F2I,
}

impl UnOp {
    /// Lowercase mnemonic used by the printer.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::FNeg => "fneg",
            UnOp::I2F => "i2f",
            UnOp::F2I => "f2i",
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A reference to a global variable.
///
/// Frontends emit [`GlobalRef::Name`]; IL linking resolves every
/// reference to [`GlobalRef::Id`] against the program symbol table. The
/// optimizer and code generator require resolved form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlobalRef {
    /// Unresolved: a name in the object file's own string table.
    Name(Sym),
    /// Resolved: an index into the program global-variable table.
    Id(GlobalId),
}

impl GlobalRef {
    /// The resolved id.
    ///
    /// # Panics
    ///
    /// Panics if the reference is still name-based; linking must run
    /// before optimization.
    #[must_use]
    pub fn id(self) -> GlobalId {
        match self {
            GlobalRef::Id(id) => id,
            GlobalRef::Name(sym) => panic!("unresolved global reference {sym}"),
        }
    }
}

/// A reference to a callee routine; same resolution story as
/// [`GlobalRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CalleeRef {
    /// Unresolved object-file name.
    Name(Sym),
    /// Resolved program routine.
    Id(RoutineId),
}

impl CalleeRef {
    /// The resolved id.
    ///
    /// # Panics
    ///
    /// Panics if the reference is still name-based.
    #[must_use]
    pub fn id(self) -> RoutineId {
        match self {
            CalleeRef::Id(id) => id,
            CalleeRef::Name(sym) => panic!("unresolved callee reference {sym}"),
        }
    }
}

/// Base address of an indexed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemBase {
    /// A local array variable.
    Local(Local),
    /// A global array variable.
    Global(GlobalRef),
}

/// The most arguments a call passes and the most parameters a routine
/// declares: the machine's argument registers (`cmo_vm::MAX_CALL_ARGS`
/// is this constant). The front end, [`validate`](crate::validate) and
/// the IL decoder all enforce it, so the backend never meets a wider
/// call.
pub const MAX_CALL_ARGS: usize = 8;

/// A call's arguments: `len` consecutive entries of its body's
/// argument pool ([`RoutineBody::args`](crate::RoutineBody::args)),
/// from `start`. Read them with
/// [`RoutineBody::call_args`](crate::RoutineBody::call_args); make one
/// with [`RoutineBody::push_args`](crate::RoutineBody::push_args).
///
/// Packed to five bytes so that a [`Instr::Call`] fits in 24.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(C, packed)]
pub struct ArgSpan {
    start: u32,
    len: u8,
}

impl ArgSpan {
    pub(crate) fn new(start: u32, len: u8) -> Self {
        ArgSpan { start, len }
    }

    /// Number of arguments.
    #[must_use]
    pub fn len(self) -> usize {
        usize::from(self.len)
    }

    /// Returns `true` for a call with no arguments.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The pool indices the span covers.
    #[must_use]
    pub fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + usize::from(self.len)
    }
}

/// Where a call's result goes: a register, or nowhere. Four bytes where
/// an `Option<VReg>` takes eight; "nowhere" is `u32::MAX`, the value
/// the IL encoding has always written for it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallDst(u32);

impl CallDst {
    /// A call whose result, if any, is discarded.
    pub const NONE: CallDst = CallDst(u32::MAX);

    /// The destination register, if there is one.
    #[must_use]
    pub fn get(self) -> Option<VReg> {
        (self != Self::NONE).then_some(VReg(self.0))
    }

    /// Returns `true` when the result goes to a register.
    #[must_use]
    pub fn is_some(self) -> bool {
        self != Self::NONE
    }

    /// The raw encoding: the register number, or `u32::MAX` for none.
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// Decodes [`CallDst::raw`].
    pub(crate) fn from_raw(raw: u32) -> Self {
        CallDst(raw)
    }
}

impl From<Option<VReg>> for CallDst {
    fn from(dst: Option<VReg>) -> Self {
        match dst {
            Some(d) => {
                assert_ne!(
                    d.0,
                    u32::MAX,
                    "vreg u32::MAX is the no-destination sentinel"
                );
                CallDst(d.0)
            }
            None => CallDst::NONE,
        }
    }
}

impl fmt::Debug for CallDst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.get(), f)
    }
}

/// A non-terminator IL instruction.
///
/// The IL is three-address code over routine-scoped virtual registers.
/// It is deliberately *not* SSA: the 1998 HLO predates SSA adoption, and
/// non-SSA TAC keeps compaction simple (no phi bookkeeping in the
/// relocatable form).
///
/// An instruction is plain data — `Copy`, at most 24 bytes, owning no
/// heap memory — so a block copies, moves and drops as one `memcpy`. A
/// call's argument list lives in its body's pool, and the instruction
/// holds an [`ArgSpan`] into it; comparing two instructions compares
/// spans, so compare bodies ([`RoutineBody`](crate::RoutineBody)'s
/// `==`), not instructions, to compare what calls pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// `dst = value`.
    Const {
        /// Destination register.
        dst: VReg,
        /// The constant.
        value: Const,
    },
    /// `dst = op(lhs, rhs)`.
    Bin {
        /// Destination register.
        dst: VReg,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: VReg,
    },
    /// `dst = op(src)`.
    Un {
        /// Destination register.
        dst: VReg,
        /// Operator.
        op: UnOp,
        /// Operand.
        src: VReg,
    },
    /// `dst = src` (register copy).
    Mov {
        /// Destination register.
        dst: VReg,
        /// Source register.
        src: VReg,
    },
    /// `dst = local`.
    LoadLocal {
        /// Destination register.
        dst: VReg,
        /// Source local slot.
        local: Local,
    },
    /// `local = src`.
    StoreLocal {
        /// Destination local slot.
        local: Local,
        /// Source register.
        src: VReg,
    },
    /// `dst = global`.
    LoadGlobal {
        /// Destination register.
        dst: VReg,
        /// Source global.
        global: GlobalRef,
    },
    /// `global = src`.
    StoreGlobal {
        /// Destination global.
        global: GlobalRef,
        /// Source register.
        src: VReg,
    },
    /// `dst = base[index]`; out-of-bounds indices wrap modulo the array
    /// length (total semantics, see [`BinOp::Div`]).
    LoadElem {
        /// Destination register.
        dst: VReg,
        /// Array base.
        base: MemBase,
        /// Element index register.
        index: VReg,
    },
    /// `base[index] = src`.
    StoreElem {
        /// Array base.
        base: MemBase,
        /// Element index register.
        index: VReg,
        /// Source register.
        src: VReg,
    },
    /// `dst = callee(args...)`.
    Call {
        /// Destination for the return value, if used.
        dst: CallDst,
        /// The callee.
        callee: CalleeRef,
        /// Argument registers, matching the callee signature: a span of
        /// the body's argument pool.
        args: ArgSpan,
        /// Stable call-site identity for profiles and inlining.
        site: CallSiteId,
    },
    /// `dst = next value from the workload input stream` (0 when
    /// exhausted). This is how train/reference data sets reach the
    /// program.
    Input {
        /// Destination register.
        dst: VReg,
    },
    /// Mixes `src` into the program output checksum; keeps computations
    /// observable so the optimizer cannot delete the whole workload.
    Output {
        /// Source register.
        src: VReg,
    },
}

const _: () = {
    const fn plain_data<T: Copy>() {}
    plain_data::<Instr>();
    assert!(std::mem::size_of::<Instr>() <= 24);
};

impl Instr {
    /// The register this instruction defines, if any.
    #[must_use]
    pub fn def(&self) -> Option<VReg> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::LoadLocal { dst, .. }
            | Instr::LoadGlobal { dst, .. }
            | Instr::LoadElem { dst, .. }
            | Instr::Input { dst } => Some(*dst),
            Instr::Call { dst, .. } => dst.get(),
            Instr::StoreLocal { .. }
            | Instr::StoreGlobal { .. }
            | Instr::StoreElem { .. }
            | Instr::Output { .. } => None,
        }
    }

    /// The registers this instruction reads, in operand order: up to
    /// two fixed operand slots, then a call's arguments from `pool`,
    /// the argument pool of the body holding the instruction.
    pub fn uses<'a>(&self, pool: &'a [VReg]) -> Uses<'a> {
        const NONE: VReg = VReg(0);
        let (fixed, n_fixed, args): ([VReg; 2], u8, &[VReg]) = match self {
            Instr::Const { .. }
            | Instr::Input { .. }
            | Instr::LoadLocal { .. }
            | Instr::LoadGlobal { .. } => ([NONE; 2], 0, &[]),
            Instr::Bin { lhs, rhs, .. } => ([*lhs, *rhs], 2, &[]),
            Instr::Un { src, .. }
            | Instr::Mov { src, .. }
            | Instr::StoreLocal { src, .. }
            | Instr::StoreGlobal { src, .. }
            | Instr::Output { src } => ([*src, NONE], 1, &[]),
            Instr::LoadElem { index, .. } => ([*index, NONE], 1, &[]),
            Instr::StoreElem { index, src, .. } => ([*index, *src], 2, &[]),
            Instr::Call { args, .. } => ([NONE; 2], 0, &pool[args.range()]),
        };
        Uses {
            fixed,
            next: 0,
            n_fixed,
            args: args.iter(),
        }
    }

    /// Returns `true` if deleting this instruction can change observable
    /// behaviour even when its result is unused.
    #[must_use]
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Instr::StoreLocal { .. }
                | Instr::StoreGlobal { .. }
                | Instr::StoreElem { .. }
                | Instr::Call { .. }
                | Instr::Input { .. }
                | Instr::Output { .. }
        )
    }
}

/// The iterator [`Instr::uses`] returns: a cursor over at most two fixed
/// operands, then a call's argument slice. Every LLO counting loop runs
/// it, and a generic adapter chain did not compile down to this.
#[derive(Debug, Clone)]
pub struct Uses<'a> {
    fixed: [VReg; 2],
    next: u8,
    n_fixed: u8,
    args: std::slice::Iter<'a, VReg>,
}

impl Iterator for Uses<'_> {
    type Item = VReg;

    #[inline]
    fn next(&mut self) -> Option<VReg> {
        if self.next < self.n_fixed {
            self.next += 1;
            return Some(self.fixed[usize::from(self.next - 1)]);
        }
        self.args.next().copied()
    }
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(Block),
    /// Two-way branch: to `then_bb` if `cond` is non-zero, else
    /// `else_bb`.
    Branch {
        /// Condition register (integer).
        cond: VReg,
        /// Non-zero target.
        then_bb: Block,
        /// Zero target.
        else_bb: Block,
    },
    /// Return from the routine.
    Return(Option<VReg>),
}

impl Terminator {
    /// Successor blocks, in branch order (at most two, by value).
    pub fn successors(&self) -> impl ExactSizeIterator<Item = Block> {
        const NONE: Block = Block(0);
        let (blocks, n) = match self {
            Terminator::Jump(b) => ([*b, NONE], 1),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => ([*then_bb, *else_bb], 2),
            Terminator::Return(_) => ([NONE; 2], 0),
        };
        blocks.into_iter().take(n)
    }

    /// The register the terminator reads, if any.
    #[must_use]
    pub fn use_reg(&self) -> Option<VReg> {
        match self {
            Terminator::Branch { cond, .. } => Some(*cond),
            Terminator::Return(r) => *r,
            Terminator::Jump(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defs_and_uses_are_consistent() {
        let i = Instr::Bin {
            dst: VReg(3),
            op: BinOp::Add,
            lhs: VReg(1),
            rhs: VReg(2),
        };
        assert_eq!(i.def(), Some(VReg(3)));
        assert_eq!(i.uses(&[]).collect::<Vec<_>>(), vec![VReg(1), VReg(2)]);
        assert!(!i.has_side_effects());
    }

    #[test]
    fn call_without_dst_has_no_def() {
        let pool = [VReg(4), VReg(5)];
        let i = Instr::Call {
            dst: CallDst::NONE,
            callee: CalleeRef::Id(RoutineId(0)),
            args: ArgSpan::new(1, 1),
            site: CallSiteId(0),
        };
        assert_eq!(i.def(), None);
        assert_eq!(i.uses(&pool).collect::<Vec<_>>(), vec![VReg(5)]);
        assert!(i.has_side_effects());
    }

    #[test]
    fn terminator_successors() {
        assert!(Terminator::Jump(Block(4)).successors().eq([Block(4)]));
        assert_eq!(Terminator::Return(None).successors().len(), 0);
        let b = Terminator::Branch {
            cond: VReg(0),
            then_bb: Block(1),
            else_bb: Block(2),
        };
        assert!(b.successors().eq([Block(1), Block(2)]));
        assert_eq!(b.use_reg(), Some(VReg(0)));
    }

    #[test]
    fn uses_lists_every_operand_in_order() {
        let (d, a, b) = (VReg(9), VReg(1), VReg(2));
        let g = GlobalRef::Id(GlobalId(0));
        // A pool with an entry before and after each span read.
        let pool: Vec<VReg> = (9..19).map(VReg).collect();
        let call = |n: u8| Instr::Call {
            dst: Some(d).into(),
            callee: CalleeRef::Id(RoutineId(0)),
            args: ArgSpan::new(1, n),
            site: CallSiteId(0),
        };
        let cases: [(Instr, &[VReg]); 15] = [
            (
                Instr::Const {
                    dst: d,
                    value: Const::I(1),
                },
                &[],
            ),
            (
                Instr::Bin {
                    dst: d,
                    op: BinOp::Sub,
                    lhs: a,
                    rhs: b,
                },
                &[a, b],
            ),
            (
                Instr::Un {
                    dst: d,
                    op: UnOp::Neg,
                    src: a,
                },
                &[a],
            ),
            (Instr::Mov { dst: d, src: a }, &[a]),
            (
                Instr::LoadLocal {
                    dst: d,
                    local: Local(0),
                },
                &[],
            ),
            (
                Instr::StoreLocal {
                    local: Local(0),
                    src: a,
                },
                &[a],
            ),
            (Instr::LoadGlobal { dst: d, global: g }, &[]),
            (Instr::StoreGlobal { global: g, src: a }, &[a]),
            (
                Instr::LoadElem {
                    dst: d,
                    base: MemBase::Global(g),
                    index: a,
                },
                &[a],
            ),
            (
                Instr::StoreElem {
                    base: MemBase::Local(Local(0)),
                    index: a,
                    src: b,
                },
                &[a, b],
            ),
            (call(0), &[]),
            (call(1), &[VReg(10)]),
            (
                call(MAX_CALL_ARGS as u8),
                &[10, 11, 12, 13, 14, 15, 16, 17].map(VReg),
            ),
            (Instr::Input { dst: d }, &[]),
            (Instr::Output { src: b }, &[b]),
        ];
        for (instr, want) in &cases {
            assert!(instr.uses(&pool).eq(want.iter().copied()), "{instr:?}");
            // Exhausted stays exhausted.
            let mut it = instr.uses(&pool);
            it.by_ref().for_each(drop);
            assert_eq!(it.next(), None, "{instr:?}");
        }
    }

    #[test]
    fn an_il_instruction_is_at_most_24_bytes() {
        assert!(std::mem::size_of::<Instr>() <= 24);
        assert_eq!(std::mem::size_of::<CallDst>(), 4);
        assert_eq!(std::mem::size_of::<ArgSpan>(), 5);
    }

    #[test]
    fn call_dst_is_an_option_in_four_bytes() {
        assert_eq!(CallDst::NONE.get(), None);
        assert_eq!(CallDst::from(Some(VReg(7))).get(), Some(VReg(7)));
        assert_eq!(CallDst::from(None), CallDst::NONE);
        assert_eq!(CallDst::NONE.raw(), u32::MAX);
        assert_eq!(CallDst::from_raw(3).get(), Some(VReg(3)));
        assert_eq!(format!("{:?}", CallDst::from_raw(2)), "Some(%2)");
    }

    #[test]
    fn op_classifications() {
        assert!(BinOp::FAdd.is_float());
        assert!(!BinOp::Add.is_float());
    }

    #[test]
    #[should_panic(expected = "unresolved")]
    fn unresolved_ref_panics_on_id() {
        let _ = GlobalRef::Name(Sym(0)).id();
    }
}
