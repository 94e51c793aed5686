//! Relocatable (compacted) encodings for transitory objects (§4.2).
//!
//! The compacted form follows the paper's recipe:
//!
//! * objects are laid out in *stack form* — a block immediately followed
//!   by its instructions, each instruction followed by its operands — so
//!   ownership links cost no stored pointers;
//! * all integers are varints; inter-object references (symbols, global
//!   ids, routine ids) are persistent identifiers;
//! * derived fields are simply never written: the expanded form's
//!   analysis annotations are recomputed on demand after re-expansion.
//!
//! The same encoding doubles as the IL payload of object files, which is
//! why loading an offloaded pool needs no translation step (the
//! difference from the Convex Application Compiler called out in §7).

use crate::ids::{Block, CallSiteId, GlobalId, Local, RoutineId, Sym, VReg};
use crate::instr::{
    ArgSpan, BinOp, CallDst, CalleeRef, GlobalRef, Instr, MemBase, Terminator, UnOp, MAX_CALL_ARGS,
};
use crate::module::{GlobalInit, GlobalVar, Linkage, ModuleSymbols};
use crate::routine::{BlockData, LocalDecl, RoutineBody};
use crate::types::{Const, Signature, Ty, VarTy};
use cmo_naim::{DecodeError, Decoder, Encoder, Relocatable};

const CORRUPT: fn(&'static str) -> DecodeError = |what| DecodeError::Corrupt { what };

pub(crate) fn encode_ty(ty: Ty, enc: &mut Encoder) {
    enc.write_u8(match ty {
        Ty::I64 => 0,
        Ty::F64 => 1,
    });
}

pub(crate) fn decode_ty(dec: &mut Decoder<'_>) -> Result<Ty, DecodeError> {
    match dec.read_u8()? {
        0 => Ok(Ty::I64),
        1 => Ok(Ty::F64),
        tag => Err(DecodeError::BadTag {
            tag,
            offset: dec.position(),
        }),
    }
}

pub(crate) fn encode_var_ty(ty: VarTy, enc: &mut Encoder) {
    encode_ty(ty.scalar, enc);
    match ty.elems {
        None => enc.write_u64(0),
        Some(n) => enc.write_u64(u64::from(n) + 1),
    }
}

pub(crate) fn decode_var_ty(dec: &mut Decoder<'_>) -> Result<VarTy, DecodeError> {
    let scalar = decode_ty(dec)?;
    let n = dec.read_u64()?;
    Ok(VarTy {
        scalar,
        elems: if n == 0 {
            None
        } else {
            Some(u32::try_from(n - 1).map_err(|_| CORRUPT("array length out of range"))?)
        },
    })
}

pub(crate) fn encode_const(c: Const, enc: &mut Encoder) {
    match c {
        Const::I(v) => {
            enc.write_u8(0);
            enc.write_i64(v);
        }
        Const::F(v) => {
            enc.write_u8(1);
            enc.write_f64(v);
        }
    }
}

pub(crate) fn decode_const(dec: &mut Decoder<'_>) -> Result<Const, DecodeError> {
    match dec.read_u8()? {
        0 => Ok(Const::I(dec.read_i64()?)),
        1 => Ok(Const::F(dec.read_f64()?)),
        tag => Err(DecodeError::BadTag {
            tag,
            offset: dec.position(),
        }),
    }
}

pub(crate) fn encode_sig(sig: &Signature, enc: &mut Encoder) {
    enc.write_usize(sig.params.len());
    for &p in &sig.params {
        encode_ty(p, enc);
    }
    match sig.ret {
        None => enc.write_u8(2),
        Some(t) => encode_ty(t, enc),
    }
}

pub(crate) fn decode_sig(dec: &mut Decoder<'_>) -> Result<Signature, DecodeError> {
    let n = dec.read_usize()?;
    if n > MAX_CALL_ARGS {
        return Err(CORRUPT("routine arity above MAX_CALL_ARGS"));
    }
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(decode_ty(dec)?);
    }
    let ret = match dec.read_u8()? {
        0 => Some(Ty::I64),
        1 => Some(Ty::F64),
        2 => None,
        tag => {
            return Err(DecodeError::BadTag {
                tag,
                offset: dec.position(),
            })
        }
    };
    Ok(Signature { params, ret })
}

pub(crate) fn encode_linkage(l: Linkage, enc: &mut Encoder) {
    enc.write_u8(match l {
        Linkage::Export => 0,
        Linkage::Internal => 1,
    });
}

pub(crate) fn decode_linkage(dec: &mut Decoder<'_>) -> Result<Linkage, DecodeError> {
    match dec.read_u8()? {
        0 => Ok(Linkage::Export),
        1 => Ok(Linkage::Internal),
        tag => Err(DecodeError::BadTag {
            tag,
            offset: dec.position(),
        }),
    }
}

fn encode_global_ref(g: GlobalRef, enc: &mut Encoder) {
    match g {
        GlobalRef::Name(s) => {
            enc.write_u8(0);
            enc.write_u32(s.0);
        }
        GlobalRef::Id(id) => {
            enc.write_u8(1);
            enc.write_u32(id.0);
        }
    }
}

fn decode_global_ref(dec: &mut Decoder<'_>) -> Result<GlobalRef, DecodeError> {
    match dec.read_u8()? {
        0 => Ok(GlobalRef::Name(Sym(dec.read_u32()?))),
        1 => Ok(GlobalRef::Id(GlobalId(dec.read_u32()?))),
        tag => Err(DecodeError::BadTag {
            tag,
            offset: dec.position(),
        }),
    }
}

fn encode_callee_ref(c: CalleeRef, enc: &mut Encoder) {
    match c {
        CalleeRef::Name(s) => {
            enc.write_u8(0);
            enc.write_u32(s.0);
        }
        CalleeRef::Id(id) => {
            enc.write_u8(1);
            enc.write_u32(id.0);
        }
    }
}

fn decode_callee_ref(dec: &mut Decoder<'_>) -> Result<CalleeRef, DecodeError> {
    match dec.read_u8()? {
        0 => Ok(CalleeRef::Name(Sym(dec.read_u32()?))),
        1 => Ok(CalleeRef::Id(RoutineId(dec.read_u32()?))),
        tag => Err(DecodeError::BadTag {
            tag,
            offset: dec.position(),
        }),
    }
}

/// A body's register, local and block counts, read before its blocks,
/// and one past the largest register, local and block that its
/// operands have named since. Decoding keeps the maxima without a
/// branch per operand and checks them once, after the last block.
struct Bounds {
    vregs: u32,
    locals: usize,
    blocks: usize,
    vreg_end: u64,
    local_end: u64,
    block_end: u64,
}

impl Bounds {
    fn vreg(&mut self, dec: &mut Decoder<'_>) -> Result<VReg, DecodeError> {
        let r = dec.read_u32()?;
        self.vreg_end = self.vreg_end.max(u64::from(r) + 1);
        Ok(VReg(r))
    }

    fn local(&mut self, dec: &mut Decoder<'_>) -> Result<Local, DecodeError> {
        let l = dec.read_u32()?;
        self.local_end = self.local_end.max(u64::from(l) + 1);
        Ok(Local(l))
    }

    fn block(&mut self, dec: &mut Decoder<'_>) -> Result<Block, DecodeError> {
        let b = dec.read_u32()?;
        self.block_end = self.block_end.max(u64::from(b) + 1);
        Ok(Block(b))
    }

    fn check(&self) -> Result<(), DecodeError> {
        if self.vreg_end > u64::from(self.vregs) {
            Err(CORRUPT("register out of range"))
        } else if self.local_end > self.locals as u64 {
            Err(CORRUPT("local out of range"))
        } else if self.block_end > self.blocks as u64 {
            Err(CORRUPT("branch target out of range"))
        } else {
            Ok(())
        }
    }
}

fn encode_mem_base(b: MemBase, enc: &mut Encoder) {
    match b {
        MemBase::Local(l) => {
            enc.write_u8(0);
            enc.write_u32(l.0);
        }
        MemBase::Global(g) => {
            enc.write_u8(1);
            encode_global_ref(g, enc);
        }
    }
}

fn decode_mem_base(dec: &mut Decoder<'_>, bounds: &mut Bounds) -> Result<MemBase, DecodeError> {
    match dec.read_u8()? {
        0 => Ok(MemBase::Local(bounds.local(dec)?)),
        1 => Ok(MemBase::Global(decode_global_ref(dec)?)),
        tag => Err(DecodeError::BadTag {
            tag,
            offset: dec.position(),
        }),
    }
}

const T_CONST: u8 = 0;
const T_BIN: u8 = 1;
const T_UN: u8 = 2;
const T_MOV: u8 = 3;
const T_LOAD_LOCAL: u8 = 4;
const T_STORE_LOCAL: u8 = 5;
const T_LOAD_GLOBAL: u8 = 6;
const T_STORE_GLOBAL: u8 = 7;
const T_LOAD_ELEM: u8 = 8;
const T_STORE_ELEM: u8 = 9;
const T_CALL: u8 = 10;
const T_INPUT: u8 = 11;
const T_OUTPUT: u8 = 12;

const BIN_OPS: [BinOp; 20] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::FAdd,
    BinOp::FSub,
    BinOp::FMul,
    BinOp::FDiv,
    BinOp::FLt,
    BinOp::FEq,
];

const UN_OPS: [UnOp; 5] = [UnOp::Neg, UnOp::Not, UnOp::FNeg, UnOp::I2F, UnOp::F2I];

fn bin_op_code(op: BinOp) -> u8 {
    BIN_OPS
        .iter()
        .position(|&o| o == op)
        .expect("every BinOp is in BIN_OPS") as u8
}

fn un_op_code(op: UnOp) -> u8 {
    UN_OPS
        .iter()
        .position(|&o| o == op)
        .expect("every UnOp is in UN_OPS") as u8
}

fn encode_instr(i: &Instr, pool: &[VReg], enc: &mut Encoder) {
    match i {
        Instr::Const { dst, value } => {
            enc.write_u8(T_CONST);
            enc.write_u32(dst.0);
            encode_const(*value, enc);
        }
        Instr::Bin { dst, op, lhs, rhs } => {
            enc.write_u8(T_BIN);
            enc.write_u8(bin_op_code(*op));
            enc.write_u32(dst.0);
            enc.write_u32(lhs.0);
            enc.write_u32(rhs.0);
        }
        Instr::Un { dst, op, src } => {
            enc.write_u8(T_UN);
            enc.write_u8(un_op_code(*op));
            enc.write_u32(dst.0);
            enc.write_u32(src.0);
        }
        Instr::Mov { dst, src } => {
            enc.write_u8(T_MOV);
            enc.write_u32(dst.0);
            enc.write_u32(src.0);
        }
        Instr::LoadLocal { dst, local } => {
            enc.write_u8(T_LOAD_LOCAL);
            enc.write_u32(dst.0);
            enc.write_u32(local.0);
        }
        Instr::StoreLocal { local, src } => {
            enc.write_u8(T_STORE_LOCAL);
            enc.write_u32(local.0);
            enc.write_u32(src.0);
        }
        Instr::LoadGlobal { dst, global } => {
            enc.write_u8(T_LOAD_GLOBAL);
            enc.write_u32(dst.0);
            encode_global_ref(*global, enc);
        }
        Instr::StoreGlobal { global, src } => {
            enc.write_u8(T_STORE_GLOBAL);
            encode_global_ref(*global, enc);
            enc.write_u32(src.0);
        }
        Instr::LoadElem { dst, base, index } => {
            enc.write_u8(T_LOAD_ELEM);
            enc.write_u32(dst.0);
            encode_mem_base(*base, enc);
            enc.write_u32(index.0);
        }
        Instr::StoreElem { base, index, src } => {
            enc.write_u8(T_STORE_ELEM);
            encode_mem_base(*base, enc);
            enc.write_u32(index.0);
            enc.write_u32(src.0);
        }
        Instr::Call {
            dst,
            callee,
            args,
            site,
        } => {
            enc.write_u8(T_CALL);
            enc.write_u32(dst.raw());
            encode_callee_ref(*callee, enc);
            enc.write_usize(args.len());
            for a in &pool[args.range()] {
                enc.write_u32(a.0);
            }
            enc.write_u32(site.0);
        }
        Instr::Input { dst } => {
            enc.write_u8(T_INPUT);
            enc.write_u32(dst.0);
        }
        Instr::Output { src } => {
            enc.write_u8(T_OUTPUT);
            enc.write_u32(src.0);
        }
    }
}

/// Reads one instruction, appending a call's arguments to `pool`.
fn decode_instr(
    dec: &mut Decoder<'_>,
    bounds: &mut Bounds,
    pool: &mut Vec<VReg>,
) -> Result<Instr, DecodeError> {
    let tag = dec.read_u8()?;
    Ok(match tag {
        T_CONST => Instr::Const {
            dst: bounds.vreg(dec)?,
            value: decode_const(dec)?,
        },
        T_BIN => {
            let code = dec.read_u8()? as usize;
            let op = *BIN_OPS.get(code).ok_or(CORRUPT("bad binop code"))?;
            Instr::Bin {
                op,
                dst: bounds.vreg(dec)?,
                lhs: bounds.vreg(dec)?,
                rhs: bounds.vreg(dec)?,
            }
        }
        T_UN => {
            let code = dec.read_u8()? as usize;
            let op = *UN_OPS.get(code).ok_or(CORRUPT("bad unop code"))?;
            Instr::Un {
                op,
                dst: bounds.vreg(dec)?,
                src: bounds.vreg(dec)?,
            }
        }
        T_MOV => Instr::Mov {
            dst: bounds.vreg(dec)?,
            src: bounds.vreg(dec)?,
        },
        T_LOAD_LOCAL => Instr::LoadLocal {
            dst: bounds.vreg(dec)?,
            local: bounds.local(dec)?,
        },
        T_STORE_LOCAL => Instr::StoreLocal {
            local: bounds.local(dec)?,
            src: bounds.vreg(dec)?,
        },
        T_LOAD_GLOBAL => Instr::LoadGlobal {
            dst: bounds.vreg(dec)?,
            global: decode_global_ref(dec)?,
        },
        T_STORE_GLOBAL => Instr::StoreGlobal {
            global: decode_global_ref(dec)?,
            src: bounds.vreg(dec)?,
        },
        T_LOAD_ELEM => Instr::LoadElem {
            dst: bounds.vreg(dec)?,
            base: decode_mem_base(dec, bounds)?,
            index: bounds.vreg(dec)?,
        },
        T_STORE_ELEM => Instr::StoreElem {
            base: decode_mem_base(dec, bounds)?,
            index: bounds.vreg(dec)?,
            src: bounds.vreg(dec)?,
        },
        T_CALL => {
            let dst = CallDst::from_raw(dec.read_u32()?);
            if let Some(d) = dst.get() {
                bounds.vreg_end = bounds.vreg_end.max(u64::from(d.0) + 1);
            }
            let callee = decode_callee_ref(dec)?;
            let n = dec.read_usize()?;
            if n > MAX_CALL_ARGS {
                return Err(CORRUPT("call arity above MAX_CALL_ARGS"));
            }
            let start =
                u32::try_from(pool.len()).map_err(|_| CORRUPT("argument pool too large"))?;
            for _ in 0..n {
                pool.push(bounds.vreg(dec)?);
            }
            Instr::Call {
                dst,
                callee,
                args: ArgSpan::new(start, n as u8),
                site: CallSiteId(dec.read_u32()?),
            }
        }
        T_INPUT => Instr::Input {
            dst: bounds.vreg(dec)?,
        },
        T_OUTPUT => Instr::Output {
            src: bounds.vreg(dec)?,
        },
        tag => {
            return Err(DecodeError::BadTag {
                tag,
                offset: dec.position(),
            })
        }
    })
}

fn encode_term(t: &Terminator, enc: &mut Encoder) {
    match t {
        Terminator::Jump(b) => {
            enc.write_u8(0);
            enc.write_u32(b.0);
        }
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            enc.write_u8(1);
            enc.write_u32(cond.0);
            enc.write_u32(then_bb.0);
            enc.write_u32(else_bb.0);
        }
        Terminator::Return(None) => enc.write_u8(2),
        Terminator::Return(Some(r)) => {
            enc.write_u8(3);
            enc.write_u32(r.0);
        }
    }
}

fn decode_term(dec: &mut Decoder<'_>, bounds: &mut Bounds) -> Result<Terminator, DecodeError> {
    Ok(match dec.read_u8()? {
        0 => Terminator::Jump(bounds.block(dec)?),
        1 => Terminator::Branch {
            cond: bounds.vreg(dec)?,
            then_bb: bounds.block(dec)?,
            else_bb: bounds.block(dec)?,
        },
        2 => Terminator::Return(None),
        3 => Terminator::Return(Some(bounds.vreg(dec)?)),
        tag => {
            return Err(DecodeError::BadTag {
                tag,
                offset: dec.position(),
            })
        }
    })
}

/// Writes the relocatable image of a routine body.
pub(crate) fn encode_body(body: &RoutineBody, enc: &mut Encoder) {
    enc.write_u32(body.n_vregs);
    enc.write_u32(body.next_site);
    enc.write_usize(body.locals.len());
    for l in &body.locals {
        encode_var_ty(l.ty, enc);
        enc.write_bool(l.is_param);
    }
    enc.write_usize(body.blocks.len());
    for b in &body.blocks {
        enc.write_usize(b.instrs.len());
        for i in &b.instrs {
            encode_instr(i, &body.args, enc);
        }
        encode_term(&b.term, enc);
    }
}

/// A table's capacity for a stated count of items encoded in at least
/// `min_bytes` each: no more than the bytes left can hold, so a count
/// bomb allocates nothing the input does not pay for.
pub(crate) fn capacity(dec: &Decoder<'_>, count: usize, min_bytes: usize) -> usize {
    count.min(dec.remaining() / min_bytes)
}

/// Reads a routine body from its relocatable image. The argument pool
/// comes back holding exactly what the calls name, in instruction order.
pub(crate) fn decode_body(dec: &mut Decoder<'_>) -> Result<RoutineBody, DecodeError> {
    let n_vregs = dec.read_u32()?;
    let next_site = dec.read_u32()?;
    let n_locals = dec.read_usize()?;
    // A local is a type tag, an element count and a flag.
    let mut locals = Vec::with_capacity(capacity(dec, n_locals, 3));
    for _ in 0..n_locals {
        let ty = decode_var_ty(dec)?;
        let is_param = dec.read_bool()?;
        locals.push(LocalDecl { ty, is_param });
    }
    let n_blocks = dec.read_usize()?;
    if n_blocks == 0 {
        return Err(CORRUPT("routine body with no blocks"));
    }
    let mut bounds = Bounds {
        vregs: n_vregs,
        locals: locals.len(),
        blocks: n_blocks,
        vreg_end: 0,
        local_end: 0,
        block_end: 0,
    };
    // A block is an instruction count and a terminator.
    let mut blocks = Vec::with_capacity(capacity(dec, n_blocks, 2));
    let mut args = Vec::new();
    for _ in 0..n_blocks {
        let n_instrs = dec.read_usize()?;
        // The shortest instruction is a tag and one register.
        let mut instrs = Vec::with_capacity(capacity(dec, n_instrs, 2));
        for _ in 0..n_instrs {
            instrs.push(decode_instr(dec, &mut bounds, &mut args)?);
        }
        let term = decode_term(dec, &mut bounds)?;
        blocks.push(BlockData { instrs, term });
    }
    bounds.check()?;
    Ok(RoutineBody {
        blocks,
        args,
        locals,
        n_vregs,
        next_site,
    })
}

pub(crate) fn encode_symbols(st: &ModuleSymbols, enc: &mut Encoder) {
    enc.write_usize(st.globals.len());
    for g in &st.globals {
        enc.write_u32(g.name.0);
        encode_var_ty(g.ty, enc);
        encode_linkage(g.linkage, enc);
        match &g.init {
            GlobalInit::Zero => enc.write_u8(0),
            GlobalInit::Scalar(c) => {
                enc.write_u8(1);
                encode_const(*c, enc);
            }
            GlobalInit::IntArray(v) => {
                enc.write_u8(2);
                enc.write_usize(v.len());
                for &x in v {
                    enc.write_i64(x);
                }
            }
            GlobalInit::FloatArray(v) => {
                enc.write_u8(3);
                enc.write_usize(v.len());
                for &x in v {
                    enc.write_f64(x);
                }
            }
        }
    }
}

pub(crate) fn decode_symbols(dec: &mut Decoder<'_>) -> Result<ModuleSymbols, DecodeError> {
    let n = dec.read_usize()?;
    // A global is a name, a type, a linkage and an initializer tag.
    let mut globals = Vec::with_capacity(capacity(dec, n, 5));
    for _ in 0..n {
        let name = Sym(dec.read_u32()?);
        let ty = decode_var_ty(dec)?;
        let linkage = decode_linkage(dec)?;
        let init = match dec.read_u8()? {
            0 => GlobalInit::Zero,
            1 => GlobalInit::Scalar(decode_const(dec)?),
            2 => {
                let len = dec.read_usize()?;
                let mut v = Vec::with_capacity(capacity(dec, len, 1));
                for _ in 0..len {
                    v.push(dec.read_i64()?);
                }
                GlobalInit::IntArray(v)
            }
            3 => {
                let len = dec.read_usize()?;
                let mut v = Vec::with_capacity(capacity(dec, len, 8));
                for _ in 0..len {
                    v.push(dec.read_f64()?);
                }
                GlobalInit::FloatArray(v)
            }
            tag => {
                return Err(DecodeError::BadTag {
                    tag,
                    offset: dec.position(),
                })
            }
        };
        globals.push(GlobalVar {
            name,
            ty,
            linkage,
            init,
        });
    }
    Ok(ModuleSymbols { globals })
}

/// The transitory pool payload managed by the NAIM loader: either one
/// routine's IR or one module's symbol table (Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub enum Transitory {
    /// Routine IR.
    Routine(RoutineBody),
    /// Module symbol table.
    SymTab(ModuleSymbols),
}

impl Transitory {
    /// The routine body.
    ///
    /// # Panics
    ///
    /// Panics if this pool holds a symbol table.
    #[must_use]
    pub fn routine(&self) -> &RoutineBody {
        match self {
            Transitory::Routine(b) => b,
            Transitory::SymTab(_) => panic!("pool holds a symbol table, not routine IR"),
        }
    }

    /// The routine body, exclusively.
    ///
    /// # Panics
    ///
    /// Panics if this pool holds a symbol table.
    pub fn routine_mut(&mut self) -> &mut RoutineBody {
        match self {
            Transitory::Routine(b) => b,
            Transitory::SymTab(_) => panic!("pool holds a symbol table, not routine IR"),
        }
    }

    /// The symbol table.
    ///
    /// # Panics
    ///
    /// Panics if this pool holds routine IR.
    #[must_use]
    pub fn symtab(&self) -> &ModuleSymbols {
        match self {
            Transitory::SymTab(s) => s,
            Transitory::Routine(_) => panic!("pool holds routine IR, not a symbol table"),
        }
    }

    /// The routine body, by value.
    ///
    /// # Panics
    ///
    /// Panics if this pool holds a symbol table.
    #[must_use]
    pub fn into_routine(self) -> RoutineBody {
        match self {
            Transitory::Routine(b) => b,
            Transitory::SymTab(_) => panic!("pool holds a symbol table, not routine IR"),
        }
    }

    /// The symbol table, by value.
    ///
    /// # Panics
    ///
    /// Panics if this pool holds routine IR.
    #[must_use]
    pub fn into_symtab(self) -> ModuleSymbols {
        match self {
            Transitory::SymTab(s) => s,
            Transitory::Routine(_) => panic!("pool holds routine IR, not a symbol table"),
        }
    }
}

impl Relocatable for Transitory {
    fn compact(&self, enc: &mut Encoder) {
        match self {
            Transitory::Routine(b) => {
                enc.write_u8(0);
                encode_body(b, enc);
            }
            Transitory::SymTab(s) => {
                enc.write_u8(1);
                encode_symbols(s, enc);
            }
        }
    }

    fn uncompact(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.read_u8()? {
            0 => Ok(Transitory::Routine(decode_body(dec)?)),
            1 => Ok(Transitory::SymTab(decode_symbols(dec)?)),
            tag => Err(DecodeError::BadTag {
                tag,
                offset: dec.position(),
            }),
        }
    }

    fn expanded_bytes(&self) -> usize {
        match self {
            Transitory::Routine(b) => b.heap_bytes(),
            Transitory::SymTab(s) => s.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_body() -> RoutineBody {
        let mut b = RoutineBody::new();
        let p0 = b.new_local(VarTy::scalar(Ty::I64), true);
        let arr = b.new_local(VarTy::array(Ty::F64, 8), false);
        let r0 = b.new_vreg();
        let r1 = b.new_vreg();
        let r2 = b.new_vreg();
        let site = b.new_site();
        let mut b0 = BlockData::new(Terminator::Branch {
            cond: r1,
            then_bb: Block(1),
            else_bb: Block(2),
        });
        b0.instrs.push(Instr::LoadLocal { dst: r0, local: p0 });
        b0.instrs.push(Instr::Const {
            dst: r1,
            value: Const::I(-7),
        });
        b0.instrs.push(Instr::Bin {
            dst: r1,
            op: BinOp::Lt,
            lhs: r0,
            rhs: r1,
        });
        b.blocks.push(b0);
        let mut b1 = BlockData::new(Terminator::Jump(Block(2)));
        let args = b.push_args([r0, r1]);
        b1.instrs.push(Instr::Call {
            dst: Some(r2).into(),
            callee: CalleeRef::Name(Sym(4)),
            args,
            site,
        });
        b1.instrs.push(Instr::StoreElem {
            base: MemBase::Local(arr),
            index: r0,
            src: r2,
        });
        b.blocks.push(b1);
        let mut b2 = BlockData::new(Terminator::Return(Some(r0)));
        b2.instrs.push(Instr::Output { src: r0 });
        b.blocks.push(b2);
        b
    }

    #[test]
    fn body_round_trips() {
        let body = sample_body();
        let t = Transitory::Routine(body.clone());
        let mut enc = Encoder::new();
        t.compact(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = Transitory::uncompact(&mut dec).unwrap();
        assert!(dec.is_at_end());
        assert_eq!(back.routine(), &body);
    }

    #[test]
    fn compact_form_is_much_smaller_than_expanded() {
        let body = sample_body();
        let t = Transitory::Routine(body);
        let mut enc = Encoder::new();
        t.compact(&mut enc);
        // The paper reports roughly 2/3 savings from dropping derived
        // fields plus pointer elimination; require at least 2x here.
        assert!(t.expanded_bytes() > 2 * enc.len());
    }

    #[test]
    fn symtab_round_trips() {
        let st = ModuleSymbols {
            globals: vec![
                GlobalVar {
                    name: Sym(1),
                    ty: VarTy::scalar(Ty::I64),
                    linkage: Linkage::Export,
                    init: GlobalInit::Scalar(Const::I(99)),
                },
                GlobalVar {
                    name: Sym(2),
                    ty: VarTy::array(Ty::F64, 4),
                    linkage: Linkage::Internal,
                    init: GlobalInit::FloatArray(vec![1.0, -2.5]),
                },
                GlobalVar {
                    name: Sym(3),
                    ty: VarTy::array(Ty::I64, 16),
                    linkage: Linkage::Internal,
                    init: GlobalInit::IntArray(vec![3, 1, 4, 1, 5]),
                },
            ],
        };
        let t = Transitory::SymTab(st.clone());
        let mut enc = Encoder::new();
        t.compact(&mut enc);
        let bytes = enc.into_bytes();
        let back = Transitory::uncompact(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.symtab(), &st);
    }

    #[test]
    fn corrupt_image_is_rejected_not_panicking() {
        let body = sample_body();
        let t = Transitory::Routine(body);
        let mut enc = Encoder::new();
        t.compact(&mut enc);
        let mut bytes = enc.into_bytes();
        // Flip the payload tag to nonsense.
        bytes[0] = 0xEE;
        assert!(Transitory::uncompact(&mut Decoder::new(&bytes)).is_err());
    }
}
