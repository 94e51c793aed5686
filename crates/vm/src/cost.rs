//! The cycle cost model.

use crate::minstr::MInstr;
use cmo_ir::BinOp;

/// Direct-mapped instruction-cache geometry.
///
/// The default models a PA-8000-class workstation i-cache scaled to
/// our ~100×-scaled programs: 16 Ki instructions (64 KiB at 4
/// bytes/instruction) in 8-instruction (32-byte) lines — large enough
/// that a well-clustered hot working set fits, small enough that
/// layout and code growth matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ICacheConfig {
    /// Total capacity in instructions.
    pub size_instrs: u32,
    /// Line size in instructions.
    pub line_instrs: u32,
    /// Extra cycles charged per miss.
    pub miss_penalty: u64,
}

impl Default for ICacheConfig {
    fn default() -> Self {
        ICacheConfig {
            size_instrs: 32_768,
            line_instrs: 8,
            miss_penalty: 20,
        }
    }
}

impl ICacheConfig {
    /// Number of cache lines.
    #[must_use]
    pub fn lines(&self) -> u32 {
        (self.size_instrs / self.line_instrs).max(1)
    }
}

/// Per-instruction cycle costs.
///
/// The constants are not calibrated to any real machine; what matters
/// for reproducing the paper's result *shapes* is the relative order:
/// call overhead ≫ simple ALU, memory ≳ ALU, taken branch > fall
/// through, i-cache miss ≫ everything per-instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Simple ALU operation (add, logical, compare, move, immediate).
    pub alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide / remainder.
    pub div: u64,
    /// Float add/sub/mul/compare.
    pub fp: u64,
    /// Float divide.
    pub fdiv: u64,
    /// Frame-slot access (hits the stack, near-register speed).
    pub slot: u64,
    /// Global memory access.
    pub global: u64,
    /// Indexed array element access.
    pub elem: u64,
    /// Fixed call overhead (frame setup, save/restore).
    pub call_overhead: u64,
    /// Additional cost per call argument.
    pub call_per_arg: u64,
    /// Return cost.
    pub ret: u64,
    /// Extra cycles for a taken branch or jump.
    pub branch_taken: u64,
    /// Profile probe cost (instrumented builds only).
    pub probe: u64,
    /// Input/output intrinsic cost.
    pub io: u64,
    /// Instruction-cache geometry.
    pub icache: ICacheConfig,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 1,
            mul: 3,
            div: 20,
            fp: 2,
            fdiv: 12,
            slot: 1,
            global: 2,
            elem: 3,
            call_overhead: 24,
            call_per_arg: 2,
            ret: 10,
            branch_taken: 3,
            probe: 2,
            io: 4,
            icache: ICacheConfig::default(),
        }
    }
}

impl CostModel {
    /// Base cycles for `instr`, excluding branch-taken and i-cache
    /// effects (charged by the executor).
    #[inline]
    #[must_use]
    pub fn instr_cost(&self, instr: &MInstr) -> u64 {
        match instr {
            MInstr::LdImm { .. } | MInstr::LdImmF { .. } | MInstr::Mov { .. } => self.alu,
            MInstr::Bin { op, .. } => match op {
                BinOp::Mul => self.mul,
                BinOp::Div | BinOp::Rem => self.div,
                BinOp::FDiv => self.fdiv,
                BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FLt | BinOp::FEq => self.fp,
                _ => self.alu,
            },
            MInstr::Un { .. } => self.alu,
            MInstr::LdSlot { .. } | MInstr::StSlot { .. } => self.slot,
            MInstr::LdGlobal { .. } | MInstr::StGlobal { .. } => self.global,
            MInstr::LdGlobalElem { .. }
            | MInstr::StGlobalElem { .. }
            | MInstr::LdSlotElem { .. }
            | MInstr::StSlotElem { .. } => self.elem,
            MInstr::Call { args, .. } => self.call_overhead + self.call_per_arg * args.len() as u64,
            MInstr::Ret { .. } => self.ret,
            MInstr::Jmp { .. } | MInstr::Br { .. } => self.alu,
            MInstr::Probe { .. } => self.probe,
            MInstr::Input { .. } | MInstr::Output { .. } => self.io,
            MInstr::Halt => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minstr::Reg;

    #[test]
    fn relative_order_holds() {
        let c = CostModel::default();
        let call = MInstr::Call {
            routine: 0,
            args: [Reg(0), Reg(1)].into_iter().collect(),
            dst: None,
        };
        let add = MInstr::Bin {
            op: BinOp::Add,
            dst: Reg(0),
            lhs: Reg(0),
            rhs: Reg(1),
        };
        let div = MInstr::Bin {
            op: BinOp::Div,
            dst: Reg(0),
            lhs: Reg(0),
            rhs: Reg(1),
        };
        // A call+return round trip dwarfs simple ALU work.
        assert!(c.instr_cost(&call) + c.ret > 10 * c.instr_cost(&add));
        assert!(c.instr_cost(&div) > c.instr_cost(&add));
        assert!(c.icache.miss_penalty > c.alu);
    }

    #[test]
    fn call_cost_scales_with_arity() {
        let c = CostModel::default();
        let mk = |n: usize| MInstr::Call {
            routine: 0,
            args: std::iter::repeat_n(Reg(0), n).collect(),
            dst: None,
        };
        assert_eq!(
            c.instr_cost(&mk(4)) - c.instr_cost(&mk(0)),
            4 * c.call_per_arg
        );
    }

    #[test]
    fn icache_line_count() {
        assert_eq!(ICacheConfig::default().lines(), 4096);
    }
}
