//! Machine instructions.

use cmo_ir::{BinOp, UnOp};
use std::fmt;
use std::ops::Deref;

/// Number of physical registers per frame (the PA-8000 exposes 32
/// general registers; we reserve none, the code generator manages
/// argument and return conventions).
pub const NUM_REGS: usize = 32;

/// A physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(pub u8);

impl Reg {
    /// Index into the register file.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Most arguments one call passes: the backend marshals each through
/// one of its eight scratch registers, and [`CallArgs`] holds that
/// many inline.
pub const MAX_CALL_ARGS: usize = 8;

/// The argument registers of a call, held inline so an instruction is
/// plain data. Dereferences to the registers in argument order.
#[derive(Clone, Copy, Default)]
pub struct CallArgs {
    len: u8,
    regs: [Reg; MAX_CALL_ARGS],
}

impl CallArgs {
    /// Appends one argument register.
    ///
    /// # Panics
    ///
    /// Panics if the call already has [`MAX_CALL_ARGS`] arguments.
    pub fn push(&mut self, r: Reg) {
        assert!(
            usize::from(self.len) < MAX_CALL_ARGS,
            "call arity exceeds MAX_CALL_ARGS"
        );
        self.regs[usize::from(self.len)] = r;
        self.len += 1;
    }
}

impl Deref for CallArgs {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        &self.regs[..usize::from(self.len)]
    }
}

impl FromIterator<Reg> for CallArgs {
    /// # Panics
    ///
    /// Panics on more than [`MAX_CALL_ARGS`] registers.
    fn from_iter<I: IntoIterator<Item = Reg>>(regs: I) -> Self {
        let mut args = CallArgs::default();
        for r in regs {
            args.push(r);
        }
        args
    }
}

impl PartialEq for CallArgs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for CallArgs {}

impl fmt::Debug for CallArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One machine instruction: 16 bytes of plain data. Code addresses are
/// indices into the linked image's instruction vector; every
/// instruction occupies 4 "bytes" for i-cache purposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MInstr {
    /// `dst = value` (integer immediate).
    LdImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: i64,
    },
    /// `dst = value` (float immediate).
    LdImmF {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: f64,
    },
    /// `dst = op(lhs, rhs)`.
    Bin {
        /// Operator (shared with the IL).
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst = op(src)`.
    Un {
        /// Operator.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand.
        src: Reg,
    },
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = frame[slot]` (local scalar or spill slot).
    LdSlot {
        /// Destination register.
        dst: Reg,
        /// Frame slot.
        slot: u32,
    },
    /// `frame[slot] = src`.
    StSlot {
        /// Frame slot.
        slot: u32,
        /// Source register.
        src: Reg,
    },
    /// `dst = globals[addr]`.
    LdGlobal {
        /// Destination register.
        dst: Reg,
        /// Flat global-memory cell address.
        addr: u32,
    },
    /// `globals[addr] = src`.
    StGlobal {
        /// Flat global-memory cell address.
        addr: u32,
        /// Source register.
        src: Reg,
    },
    /// `dst = globals[base + (index mod len)]`.
    LdGlobalElem {
        /// Destination register.
        dst: Reg,
        /// Array base cell.
        base: u32,
        /// Array length in cells.
        len: u32,
        /// Index register.
        index: Reg,
    },
    /// `globals[base + (index mod len)] = src`.
    StGlobalElem {
        /// Array base cell.
        base: u32,
        /// Array length in cells.
        len: u32,
        /// Index register.
        index: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = frame[base_slot + (index mod len)]`.
    LdSlotElem {
        /// Destination register.
        dst: Reg,
        /// First frame slot of the array.
        base_slot: u32,
        /// Array length in slots.
        len: u32,
        /// Index register.
        index: Reg,
    },
    /// `frame[base_slot + (index mod len)] = src`.
    StSlotElem {
        /// First frame slot of the array.
        base_slot: u32,
        /// Array length in slots.
        len: u32,
        /// Index register.
        index: Reg,
        /// Source register.
        src: Reg,
    },
    /// Calls routine `routine` (an image routine index). Arguments are
    /// copied from the listed caller registers into callee registers
    /// `r0..rn`; on return, the callee's return value lands in `dst`.
    Call {
        /// Image routine index.
        routine: u32,
        /// Caller registers holding arguments.
        args: CallArgs,
        /// Caller register receiving the return value.
        dst: Option<Reg>,
    },
    /// Returns from the current routine.
    Ret {
        /// Register holding the return value, if any.
        value: Option<Reg>,
    },
    /// Unconditional jump to an absolute code address.
    Jmp {
        /// Target address.
        target: u32,
    },
    /// Branch to `target` if `cond` is non-zero; falls through
    /// otherwise.
    Br {
        /// Condition register.
        cond: Reg,
        /// Taken target address.
        target: u32,
    },
    /// Increments profile counter `id` (present only in instrumented
    /// images; models instrumentation overhead).
    Probe {
        /// Probe counter index.
        id: u32,
    },
    /// `dst = next workload input value` (0 when exhausted).
    Input {
        /// Destination register.
        dst: Reg,
    },
    /// Mixes `src` into the output checksum.
    Output {
        /// Source register.
        src: Reg,
    },
    /// Stops the machine (emitted after the top-level `main` frame).
    Halt,
}

impl MInstr {
    /// Returns `true` for control-transfer instructions (ends of basic
    /// blocks in machine code).
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            MInstr::Call { .. }
                | MInstr::Ret { .. }
                | MInstr::Jmp { .. }
                | MInstr::Br { .. }
                | MInstr::Halt
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_classification() {
        assert!(MInstr::Halt.is_control());
        assert!(MInstr::Jmp { target: 0 }.is_control());
        assert!(!MInstr::Mov {
            dst: Reg(0),
            src: Reg(1)
        }
        .is_control());
    }

    #[test]
    fn an_instruction_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<MInstr>(), 16);
        assert_eq!(std::mem::size_of::<CallArgs>(), 1 + MAX_CALL_ARGS);
    }

    #[test]
    fn call_args_hold_up_to_the_limit_and_compare_by_prefix() {
        let args: CallArgs = (0..8).map(Reg).collect();
        assert_eq!(&args[..], &(0..8).map(Reg).collect::<Vec<_>>()[..]);
        let mut two = CallArgs::default();
        two.push(Reg(3));
        two.push(Reg(4));
        assert_eq!(two, [Reg(3), Reg(4)].into_iter().collect());
        assert_ne!(two, CallArgs::default());
        assert_eq!(format!("{two:?}"), "[Reg(3), Reg(4)]");
    }

    #[test]
    #[should_panic(expected = "call arity exceeds MAX_CALL_ARGS")]
    fn a_ninth_argument_panics() {
        let _: CallArgs = (0..9).map(Reg).collect();
    }

    #[test]
    fn reg_display() {
        assert_eq!(Reg(7).to_string(), "r7");
        assert_eq!(Reg(7).index(), 7);
    }
}
