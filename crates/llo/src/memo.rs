//! The relocatable code tier's pure half: an id-free key over
//! everything [`lower_routine`] reads, and a byte form of its result
//! that is patched to the current program's ids while it is decoded.
//!
//! LLO is *parametric in identity*: local optimization, layout and
//! register allocation only rewrite registers, blocks and locals, and
//! emission copies a callee's [`RoutineId`] and a global's flat address
//! and length into the output without ever branching on them. Two
//! bodies that are equal up to a consistent renaming of callees and
//! globals (of equal lengths) therefore lower to code that is equal up
//! to the same renaming. [`routine_key`] hashes a body with every callee
//! and global replaced by its *first-occurrence ordinal* and returns the
//! two ordinal → id tables; [`encode_entry`] stores a lowered routine
//! with the same ordinals in place of ids and addresses, and
//! [`decode_entry`] substitutes the current ones back. A routine's entry
//! so survives any change of link order, routine numbering or global
//! layout — which is what a one-module edit is to the other modules.
//!
//! Nothing here does I/O or knows where entries are kept; the driver
//! and its cache own that.
//!
//! [`lower_routine`]: crate::lower_routine

use crate::{GlobalLayout, LloOptions, LoweredRoutine, OptEffort};
use cmo_ir::{
    Const, GlobalId, GlobalRef, Instr, MemBase, Program, RoutineBody, RoutineId, Terminator, Ty,
};
use cmo_naim::Mixer;
use cmo_profile::{ProbeKind, RoutineShape};
use cmo_vm::{decode_instr, encode_instr, DecodeError, Decoder, Encoder, MInstr};

/// Revision of everything a stored entry depends on besides the key
/// stream's inputs: the stream layout itself, the entry encoding, and
/// what [`crate::lower_routine`] produces for a given input. Entries
/// outlive the compiler binary that wrote them, so a change to any of
/// those — or to the discriminant order of `BinOp`/`UnOp`, which the
/// stream uses — must bump this.
const LLO_REVISION: u64 = 1;

/// The id-free 128-bit key of one routine's lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CodeKey(pub u128);

/// The callees and globals a body references, in first-occurrence
/// order: ordinal → id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BodyRefs {
    /// Callee of ordinal `i`.
    pub callees: Vec<RoutineId>,
    /// Global of ordinal `i`.
    pub globals: Vec<GlobalId>,
}

/// Position of `x` in `table`, appending it when new; the flag says
/// which.
fn ordinal_of<T: Copy + PartialEq>(table: &mut Vec<T>, x: T) -> (u32, bool) {
    match table.iter().position(|&t| t == x) {
        Some(at) => (at as u32, false),
        None => {
            table.push(x);
            ((table.len() - 1) as u32, true)
        }
    }
}

/// Hashes everything [`crate::lower_routine`] would read from these
/// arguments — arity, every local declaration, register and site
/// counts, every instruction and terminator field, the block counts
/// (or their absence), effort and instrumentation — with each callee
/// and global replaced by its first-occurrence ordinal in the body,
/// plus the length of each referenced global. Returns the key and the
/// ordinal → id tables a stored entry is relocated through.
///
/// # Panics
///
/// Panics if the body contains unresolved references, as
/// [`crate::lower_routine`] does.
#[must_use]
pub fn routine_key(
    rid: RoutineId,
    body: &RoutineBody,
    program: &Program,
    globals: &GlobalLayout,
    options: &LloOptions,
) -> (CodeKey, BodyRefs) {
    let mut m = Mixer::new();
    let mut refs = BodyRefs::default();
    let global = |m: &mut Mixer, refs: &mut BodyRefs, g: GlobalRef| -> u32 {
        let g = g.id();
        let (ordinal, new) = ordinal_of(&mut refs.globals, g);
        if new {
            m.word(u64::from(globals.len(g)));
        }
        ordinal
    };

    m.word(LLO_REVISION);
    m.word(program.routine(rid).sig.arity() as u64);
    m.head(
        0,
        u8::from(options.effort.0 == OptEffort::O2) | u8::from(options.instrument) << 1,
        0,
    );
    m.pair(body.n_vregs, body.next_site);
    match &options.block_counts {
        None => m.word(0),
        Some(counts) => {
            m.word(1);
            m.word(counts.len() as u64);
            for &c in counts {
                m.word(c);
            }
        }
    }
    m.word(body.locals.len() as u64);
    for decl in &body.locals {
        let sub = u8::from(decl.ty.scalar == Ty::F64) | u8::from(decl.is_param) << 1;
        match decl.ty.elems {
            None => m.head(0, sub, 0),
            Some(n) => m.head(1, sub, n),
        }
    }
    m.word(body.blocks.len() as u64);
    for block in &body.blocks {
        m.word(block.instrs.len() as u64);
        for instr in &block.instrs {
            match instr {
                Instr::Const { dst, value } => match *value {
                    Const::I(v) => {
                        m.head(1, 0, dst.0);
                        m.word(v as u64);
                    }
                    Const::F(v) => {
                        m.head(1, 1, dst.0);
                        m.word(v.to_bits());
                    }
                },
                Instr::Bin { dst, op, lhs, rhs } => {
                    m.head(2, *op as u8, dst.0);
                    m.pair(lhs.0, rhs.0);
                }
                Instr::Un { dst, op, src } => {
                    m.head(3, *op as u8, dst.0);
                    m.word(u64::from(src.0));
                }
                Instr::Mov { dst, src } => {
                    m.head(4, 0, dst.0);
                    m.word(u64::from(src.0));
                }
                Instr::LoadLocal { dst, local } => {
                    m.head(5, 0, dst.0);
                    m.word(u64::from(local.0));
                }
                Instr::StoreLocal { local, src } => {
                    m.head(6, 0, local.0);
                    m.word(u64::from(src.0));
                }
                Instr::LoadGlobal { dst, global: g } => {
                    m.head(7, 0, dst.0);
                    let g = global(&mut m, &mut refs, *g);
                    m.word(u64::from(g));
                }
                Instr::StoreGlobal { global: g, src } => {
                    m.head(8, 0, src.0);
                    let g = global(&mut m, &mut refs, *g);
                    m.word(u64::from(g));
                }
                Instr::LoadElem { dst, base, index } => match base {
                    MemBase::Local(l) => {
                        m.head(9, 0, dst.0);
                        m.pair(l.0, index.0);
                    }
                    MemBase::Global(g) => {
                        m.head(9, 1, dst.0);
                        let g = global(&mut m, &mut refs, *g);
                        m.pair(g, index.0);
                    }
                },
                Instr::StoreElem { base, index, src } => match base {
                    MemBase::Local(l) => {
                        m.head(10, 0, src.0);
                        m.pair(l.0, index.0);
                    }
                    MemBase::Global(g) => {
                        m.head(10, 1, src.0);
                        let g = global(&mut m, &mut refs, *g);
                        m.pair(g, index.0);
                    }
                },
                Instr::Call {
                    dst,
                    callee,
                    args,
                    site,
                } => {
                    match dst.get() {
                        None => m.head(11, 0, 0),
                        Some(d) => m.head(11, 1, d.0),
                    }
                    let (callee, _) = ordinal_of(&mut refs.callees, callee.id());
                    m.pair(callee, site.0);
                    m.word(args.len() as u64);
                    for two in body.call_args(*args).chunks(2) {
                        m.pair(two[0].0, two.get(1).map_or(0, |a| a.0));
                    }
                }
                Instr::Input { dst } => m.head(12, 0, dst.0),
                Instr::Output { src } => m.head(13, 0, src.0),
            }
        }
        match &block.term {
            Terminator::Jump(t) => m.head(14, 0, t.0),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                m.head(15, 0, cond.0);
                m.pair(then_bb.0, else_bb.0);
            }
            Terminator::Return(None) => m.head(16, 0, 0),
            Terminator::Return(Some(v)) => m.head(16, 1, v.0),
        }
    }
    (CodeKey(m.finish()), refs)
}

/// Rewrites the fields of `instr` that name a callee or a global — the
/// only ones a stored entry and a live lowering differ in — through the
/// two maps; `None` when a map has no answer.
fn relocate(
    instr: &mut MInstr,
    callee: impl Fn(u32) -> Option<u32>,
    global: impl Fn(u32) -> Option<u32>,
) -> Option<()> {
    match instr {
        MInstr::Call { routine, .. } => *routine = callee(*routine)?,
        MInstr::LdGlobal { addr, .. } | MInstr::StGlobal { addr, .. } => *addr = global(*addr)?,
        MInstr::LdGlobalElem { base, .. } | MInstr::StGlobalElem { base, .. } => {
            *base = global(*base)?;
        }
        _ => {}
    }
    Some(())
}

/// Encodes a freshly lowered routine with callee ids and global
/// addresses replaced by their ordinals in `refs` (the tables
/// [`routine_key`] returned for the body it was lowered from). The
/// name is not stored: it comes from the program at decode time.
///
/// Returns `None` — the routine is simply not memoized — when two
/// referenced globals share an address (a zero-length array, which
/// only a hand-made object file can declare), since the address then
/// no longer says which global an instruction meant.
#[must_use]
pub fn encode_entry(
    lowered: &LoweredRoutine,
    refs: &BodyRefs,
    globals: &GlobalLayout,
) -> Option<Vec<u8>> {
    let addrs: Vec<u32> = refs.globals.iter().map(|&g| globals.addr(g)).collect();
    if (1..addrs.len()).any(|i| addrs[..i].contains(&addrs[i])) {
        return None;
    }
    let global = |addr: u32| addrs.iter().position(|&a| a == addr).map(|at| at as u32);
    let callee = |id: u32| {
        refs.callees
            .iter()
            .position(|c| c.0 == id)
            .map(|at| at as u32)
    };

    let mut enc = Encoder::with_capacity(32 + lowered.code.len() * 4);
    enc.write_u32(lowered.frame_slots);
    enc.write_usize(lowered.llo_work_bytes);
    enc.write_u32(lowered.il_after_opt);
    enc.write_u32(lowered.shape.n_blocks);
    enc.write_u32(lowered.shape.n_sites);
    enc.write_u64(lowered.shape.fingerprint);
    enc.write_usize(lowered.probes.len());
    for probe in &lowered.probes {
        match *probe {
            ProbeKind::Block(n) => {
                enc.write_u8(0);
                enc.write_u32(n);
            }
            ProbeKind::Site(n) => {
                enc.write_u8(1);
                enc.write_u32(n);
            }
        }
    }
    enc.write_usize(lowered.code.len());
    for instr in &lowered.code {
        let mut instr = *instr;
        relocate(&mut instr, callee, global)?;
        encode_instr(&mut enc, &instr);
    }
    Some(enc.into_bytes())
}

/// Decodes an entry written by [`encode_entry`] for a body whose key
/// equals the current one, patching each ordinal to the current id or
/// address (`refs` and `globals` of the *current* program) in the same
/// pass that decodes the instruction.
///
/// # Errors
///
/// A [`DecodeError`] on truncation, unknown tags, trailing bytes, or an
/// ordinal beyond the body's reference tables; lengths read from the
/// entry never size an allocation beyond the entry's own size.
pub fn decode_entry(
    bytes: &[u8],
    name: &str,
    refs: &BodyRefs,
    globals: &GlobalLayout,
) -> Result<LoweredRoutine, DecodeError> {
    let callee = |ordinal: u32| refs.callees.get(ordinal as usize).map(|c| c.0);
    let global = |ordinal: u32| refs.globals.get(ordinal as usize).map(|&g| globals.addr(g));

    let mut dec = Decoder::new(bytes);
    let frame_slots = dec.read_u32()?;
    let llo_work_bytes = dec.read_usize()?;
    let il_after_opt = dec.read_u32()?;
    let shape = RoutineShape {
        n_blocks: dec.read_u32()?,
        n_sites: dec.read_u32()?,
        fingerprint: dec.read_u64()?,
    };
    // Every probe and instruction takes at least a byte, so the bytes
    // left bound what a stated count can honestly ask for.
    let n_probes = dec.read_usize()?;
    let mut probes = Vec::with_capacity(n_probes.min(dec.remaining()));
    for _ in 0..n_probes {
        let at = dec.position();
        probes.push(match dec.read_u8()? {
            0 => ProbeKind::Block(dec.read_u32()?),
            1 => ProbeKind::Site(dec.read_u32()?),
            tag => return Err(DecodeError::BadTag { tag, offset: at }),
        });
    }
    let n_code = dec.read_usize()?;
    let mut code = Vec::with_capacity(n_code.min(dec.remaining()));
    for _ in 0..n_code {
        let mut instr = decode_instr(&mut dec)?;
        relocate(&mut instr, callee, global).ok_or(DecodeError::Corrupt {
            what: "code entry ordinal beyond the body's references",
        })?;
        code.push(instr);
    }
    if !dec.is_at_end() {
        return Err(DecodeError::Corrupt {
            what: "trailing bytes after code entry",
        });
    }
    Ok(LoweredRoutine {
        name: name.to_owned(),
        code,
        frame_slots,
        probes,
        shape,
        llo_work_bytes,
        il_after_opt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OptEffortOpt;
    use cmo_frontend::compile_module;
    use cmo_ir::{
        link_objects, BinOp, Block, BlockData, CallDst, CallSiteId, CalleeRef, LinkedUnit, Local,
        LocalDecl, UnOp, VReg, VarTy,
    };

    /// Five routines (so callee ids can be told apart) and four globals:
    /// two scalars, two arrays of different lengths.
    fn host() -> LinkedUnit {
        let obj = compile_module(
            "m",
            r#"
            global g0: int = 3;
            global g1: int = 4;
            global a0: int[4] = [1, 2, 3, 4];
            global a1: int[6];
            fn f0(a: int, b: int) -> int { return a + b; }
            fn f1(a: int, b: int) -> int { return a - b; }
            fn f2(a: int, b: int) -> int { return a * b; }
            fn subject(a: int, b: int) -> int { return a; }
            fn main() -> int { return subject(1, 2); }
            "#,
        )
        .unwrap();
        link_objects(vec![obj]).unwrap()
    }

    const G0: GlobalRef = GlobalRef::Id(GlobalId(0));
    const G1: GlobalRef = GlobalRef::Id(GlobalId(1));
    const A0: GlobalRef = GlobalRef::Id(GlobalId(2));
    const A1: GlobalRef = GlobalRef::Id(GlobalId(3));
    const F0: CalleeRef = CalleeRef::Id(RoutineId(0));
    const F1: CalleeRef = CalleeRef::Id(RoutineId(1));

    /// A body with every instruction and terminator variant, every
    /// optional field both present and absent, two callees and three
    /// globals — referenced in an order in which no ordinal equals the
    /// global's address or the callee's id.
    fn subject_body() -> RoutineBody {
        let v = VReg;
        let mut pool = RoutineBody::new();
        let args = [[v(0), v(2)], [v(9), v(0)], [v(0), v(0)]].map(|a| pool.push_args(a));
        let block0 = BlockData {
            instrs: vec![
                Instr::Const {
                    dst: v(0),
                    value: Const::I(7),
                },
                Instr::Const {
                    dst: v(1),
                    value: Const::F(1.5),
                },
                Instr::Bin {
                    dst: v(2),
                    op: BinOp::Add,
                    lhs: v(0),
                    rhs: v(0),
                },
                Instr::Un {
                    dst: v(3),
                    op: UnOp::Neg,
                    src: v(2),
                },
                Instr::Mov {
                    dst: v(4),
                    src: v(3),
                },
                Instr::LoadLocal {
                    dst: v(5),
                    local: Local(0),
                },
                Instr::StoreLocal {
                    local: Local(2),
                    src: v(5),
                },
                Instr::LoadGlobal {
                    dst: v(6),
                    global: G1,
                },
                Instr::StoreGlobal {
                    global: G0,
                    src: v(6),
                },
                Instr::LoadElem {
                    dst: v(7),
                    base: MemBase::Local(Local(3)),
                    index: v(0),
                },
                Instr::LoadElem {
                    dst: v(8),
                    base: MemBase::Global(A1),
                    index: v(0),
                },
                Instr::StoreElem {
                    base: MemBase::Local(Local(3)),
                    index: v(0),
                    src: v(7),
                },
                Instr::StoreElem {
                    base: MemBase::Global(A1),
                    index: v(0),
                    src: v(8),
                },
                Instr::Call {
                    dst: Some(v(9)).into(),
                    callee: F1,
                    args: args[0],
                    site: CallSiteId(0),
                },
                Instr::Call {
                    dst: CallDst::NONE,
                    callee: F0,
                    args: args[1],
                    site: CallSiteId(1),
                },
                Instr::Call {
                    dst: Some(v(10)).into(),
                    callee: F1,
                    args: args[2],
                    site: CallSiteId(2),
                },
                Instr::Input { dst: v(11) },
                Instr::Output { src: v(11) },
            ],
            term: Terminator::Branch {
                cond: v(0),
                then_bb: Block(1),
                else_bb: Block(2),
            },
        };
        RoutineBody {
            blocks: vec![
                block0,
                BlockData::new(Terminator::Jump(Block(2))),
                BlockData {
                    instrs: vec![Instr::Mov {
                        dst: v(4),
                        src: v(0),
                    }],
                    term: Terminator::Return(Some(v(4))),
                },
                BlockData::new(Terminator::Return(None)),
            ],
            locals: vec![
                LocalDecl {
                    ty: VarTy::scalar(Ty::I64),
                    is_param: true,
                },
                LocalDecl {
                    ty: VarTy::scalar(Ty::I64),
                    is_param: true,
                },
                LocalDecl {
                    ty: VarTy::scalar(Ty::I64),
                    is_param: false,
                },
                LocalDecl {
                    ty: VarTy::array(Ty::I64, 4),
                    is_param: false,
                },
            ],
            args: pool.args,
            n_vregs: 12,
            next_site: 3,
        }
    }

    fn options() -> LloOptions {
        LloOptions {
            effort: OptEffortOpt(OptEffort::O2),
            instrument: false,
            block_counts: Some(vec![10, 4, 10, 0]),
        }
    }

    fn key_of(unit: &LinkedUnit, body: &RoutineBody, options: &LloOptions) -> CodeKey {
        let rid = unit.program.find_routine("subject").unwrap();
        let layout = GlobalLayout::new(&unit.program);
        routine_key(rid, body, &unit.program, &layout, options).0
    }

    /// One edit of one field of the `i`-th instruction of block 0.
    fn edit(body: &mut RoutineBody, i: usize, f: impl FnOnce(&mut Instr)) {
        f(&mut body.blocks[0].instrs[i]);
    }

    /// Every single input `lower_routine` reads, perturbed one at a
    /// time: the key must move every time, and no two perturbations may
    /// land on the same key.
    #[test]
    fn every_input_lowering_reads_moves_the_key() {
        type Mutation = (&'static str, Box<dyn Fn(&mut RoutineBody)>);
        macro_rules! field {
            ($what:literal, $i:literal, $variant:ident . $field:ident = $value:expr) => {
                (
                    $what,
                    Box::new(|b: &mut RoutineBody| {
                        edit(b, $i, |instr| match instr {
                            Instr::$variant { $field, .. } => *$field = $value,
                            other => panic!("instruction {} is {other:?}", $i),
                        })
                    }) as Box<dyn Fn(&mut RoutineBody)>,
                )
            };
        }
        macro_rules! call_args {
            ($what:literal, $i:literal, $args:expr) => {
                (
                    $what,
                    Box::new(|b: &mut RoutineBody| {
                        let span = b.push_args($args);
                        edit(b, $i, |instr| match instr {
                            Instr::Call { args, .. } => *args = span,
                            other => panic!("instruction {} is {other:?}", $i),
                        })
                    }) as Box<dyn Fn(&mut RoutineBody)>,
                )
            };
        }
        let body_mutations: Vec<Mutation> = vec![
            field!("const dst", 0, Const.dst = VReg(1)),
            field!("const int value", 0, Const.value = Const::I(8)),
            field!("const int to float", 0, Const.value = Const::F(7.0)),
            field!("const float value", 1, Const.value = Const::F(-1.5)),
            field!("const float sign of zero", 1, Const.value = Const::F(-0.0)),
            field!("bin dst", 2, Bin.dst = VReg(3)),
            field!("bin op", 2, Bin.op = BinOp::Sub),
            field!("bin lhs", 2, Bin.lhs = VReg(1)),
            field!("bin rhs", 2, Bin.rhs = VReg(1)),
            field!("un dst", 3, Un.dst = VReg(4)),
            field!("un op", 3, Un.op = UnOp::Not),
            field!("un src", 3, Un.src = VReg(0)),
            field!("mov dst", 4, Mov.dst = VReg(5)),
            field!("mov src", 4, Mov.src = VReg(0)),
            field!("load_local dst", 5, LoadLocal.dst = VReg(6)),
            field!("load_local local", 5, LoadLocal.local = Local(1)),
            field!("store_local local", 6, StoreLocal.local = Local(1)),
            field!("store_local src", 6, StoreLocal.src = VReg(0)),
            field!("load_global dst", 7, LoadGlobal.dst = VReg(7)),
            field!("load_global same as the store's", 7, LoadGlobal.global = G0),
            field!("store_global src", 8, StoreGlobal.src = VReg(0)),
            field!(
                "store_global same as the elements'",
                8,
                StoreGlobal.global = A1
            ),
            field!("load_elem dst", 9, LoadElem.dst = VReg(8)),
            field!(
                "load_elem local base",
                9,
                LoadElem.base = MemBase::Local(Local(2))
            ),
            field!(
                "load_elem local to global",
                9,
                LoadElem.base = MemBase::Global(A1)
            ),
            field!("load_elem index", 9, LoadElem.index = VReg(2)),
            field!(
                "load_elem global of another length",
                10,
                LoadElem.base = MemBase::Global(A0)
            ),
            field!(
                "store_elem local base",
                11,
                StoreElem.base = MemBase::Local(Local(2))
            ),
            field!("store_elem index", 11, StoreElem.index = VReg(2)),
            field!("store_elem src", 11, StoreElem.src = VReg(0)),
            field!(
                "store_elem another global",
                12,
                StoreElem.base = MemBase::Global(A0)
            ),
            field!("call dst", 13, Call.dst = Some(VReg(10)).into()),
            field!("call dst dropped", 13, Call.dst = CallDst::NONE),
            field!("call dst added", 14, Call.dst = Some(VReg(0)).into()),
            field!("call callee merged with the next", 13, Call.callee = F0),
            field!("call callee split from the first", 15, Call.callee = F0),
            call_args!("call args", 13, [VReg(2), VReg(0)]),
            call_args!("call one arg fewer", 13, [VReg(0)]),
            call_args!("call one arg more", 13, [VReg(0), VReg(2), VReg(0)]),
            field!("call site", 13, Call.site = CallSiteId(2)),
            field!("input dst", 16, Input.dst = VReg(0)),
            field!("output src", 17, Output.src = VReg(0)),
            (
                "branch cond",
                Box::new(|b| {
                    b.blocks[0].term = Terminator::Branch {
                        cond: VReg(1),
                        then_bb: Block(1),
                        else_bb: Block(2),
                    };
                }),
            ),
            (
                "branch then",
                Box::new(|b| {
                    b.blocks[0].term = Terminator::Branch {
                        cond: VReg(0),
                        then_bb: Block(3),
                        else_bb: Block(2),
                    };
                }),
            ),
            (
                "branch else",
                Box::new(|b| {
                    b.blocks[0].term = Terminator::Branch {
                        cond: VReg(0),
                        then_bb: Block(1),
                        else_bb: Block(3),
                    };
                }),
            ),
            (
                "branch to jump",
                Box::new(|b| b.blocks[0].term = Terminator::Jump(Block(1))),
            ),
            (
                "jump target",
                Box::new(|b| b.blocks[1].term = Terminator::Jump(Block(3))),
            ),
            (
                "return value",
                Box::new(|b| b.blocks[2].term = Terminator::Return(Some(VReg(0)))),
            ),
            (
                "return value dropped",
                Box::new(|b| b.blocks[2].term = Terminator::Return(None)),
            ),
            (
                "return value added",
                Box::new(|b| b.blocks[3].term = Terminator::Return(Some(VReg(0)))),
            ),
            (
                "instruction moved to the next block",
                Box::new(|b| {
                    let last = b.blocks[0].instrs.pop().unwrap();
                    b.blocks[1].instrs.insert(0, last);
                }),
            ),
            (
                "instruction deleted",
                Box::new(|b| {
                    b.blocks[2].instrs.clear();
                }),
            ),
            (
                "block appended",
                Box::new(|b| b.blocks.push(BlockData::new(Terminator::Return(None)))),
            ),
            (
                "local scalar type",
                Box::new(|b| b.locals[2].ty = VarTy::scalar(Ty::F64)),
            ),
            (
                "local array length",
                Box::new(|b| b.locals[3].ty = VarTy::array(Ty::I64, 5)),
            ),
            (
                "local array to scalar",
                Box::new(|b| b.locals[3].ty = VarTy::scalar(Ty::I64)),
            ),
            ("local is_param", Box::new(|b| b.locals[2].is_param = true)),
            (
                "local appended",
                Box::new(|b| {
                    b.locals.push(LocalDecl {
                        ty: VarTy::scalar(Ty::I64),
                        is_param: false,
                    });
                }),
            ),
            ("n_vregs", Box::new(|b| b.n_vregs += 1)),
            ("next_site", Box::new(|b| b.next_site += 1)),
        ];
        type OptionMutation = (&'static str, fn(&mut LloOptions));
        let option_mutations: [OptionMutation; 6] = [
            ("one block count", |o| {
                o.block_counts.as_mut().unwrap()[1] += 1
            }),
            ("one count fewer", |o| {
                o.block_counts.as_mut().unwrap().pop();
            }),
            ("empty counts", |o| o.block_counts = Some(Vec::new())),
            ("no counts", |o| o.block_counts = None),
            ("effort", |o| o.effort = OptEffortOpt(OptEffort::O1)),
            ("instrument", |o| o.instrument = true),
        ];

        let unit = host();
        let base = key_of(&unit, &subject_body(), &options());
        assert_eq!(
            base,
            key_of(&unit, &subject_body(), &options()),
            "the key is a function"
        );
        let mut seen = vec![("nothing", base)];
        let mut check = |what: &'static str, key: CodeKey| {
            if let Some((other, _)) = seen.iter().find(|(_, k)| *k == key) {
                panic!("perturbing {what} gives the key of perturbing {other}");
            }
            seen.push((what, key));
        };
        for (what, mutate) in &body_mutations {
            let mut body = subject_body();
            mutate(&mut body);
            check(what, key_of(&unit, &body, &options()));
        }
        for (what, mutate) in option_mutations {
            let mut options = options();
            mutate(&mut options);
            check(what, key_of(&unit, &subject_body(), &options));
        }
        // Empty counts are not absent counts.
        let none = LloOptions {
            block_counts: None,
            ..options()
        };
        let empty = LloOptions {
            block_counts: Some(Vec::new()),
            ..options()
        };
        assert_ne!(
            key_of(&unit, &subject_body(), &none),
            key_of(&unit, &subject_body(), &empty)
        );

        // Arity is the routine's, not the body's: the same body keyed
        // as a one-parameter routine.
        let other = link_objects(vec![compile_module(
            "m",
            r#"
            global g0: int = 3;
            global g1: int = 4;
            global a0: int[4] = [1, 2, 3, 4];
            global a1: int[6];
            fn f0(a: int, b: int) -> int { return a + b; }
            fn f1(a: int, b: int) -> int { return a - b; }
            fn f2(a: int, b: int) -> int { return a * b; }
            fn subject(a: int) -> int { return a; }
            fn main() -> int { return subject(1); }
            "#,
        )
        .unwrap()])
        .unwrap();
        check("arity", key_of(&other, &subject_body(), &options()));

        // A referenced global's length, everything else equal.
        let longer = link_objects(vec![compile_module(
            "m",
            r#"
            global g0: int = 3;
            global g1: int = 4;
            global a0: int[4] = [1, 2, 3, 4];
            global a1: int[7];
            fn f0(a: int, b: int) -> int { return a + b; }
            fn f1(a: int, b: int) -> int { return a - b; }
            fn f2(a: int, b: int) -> int { return a * b; }
            fn subject(a: int, b: int) -> int { return a; }
            fn main() -> int { return subject(1, 2); }
            "#,
        )
        .unwrap()])
        .unwrap();
        check(
            "a referenced global's length",
            key_of(&longer, &subject_body(), &options()),
        );
    }

    /// Renames every callee and global of `body` through the maps.
    fn renamed(
        body: &RoutineBody,
        callee: impl Fn(RoutineId) -> RoutineId,
        global: impl Fn(GlobalId) -> GlobalId,
    ) -> RoutineBody {
        let mut body = body.clone();
        let g = |r: &mut GlobalRef| *r = GlobalRef::Id(global(r.id()));
        for instr in body.blocks.iter_mut().flat_map(|b| &mut b.instrs) {
            match instr {
                Instr::Call { callee: c, .. } => *c = CalleeRef::Id(callee(c.id())),
                Instr::LoadGlobal { global, .. } | Instr::StoreGlobal { global, .. } => g(global),
                Instr::LoadElem {
                    base: MemBase::Global(global),
                    ..
                }
                | Instr::StoreElem {
                    base: MemBase::Global(global),
                    ..
                } => g(global),
                _ => {}
            }
        }
        body
    }

    /// The key reads the registers each call passes, never where they
    /// sit in the pool or what a deleted call left there.
    #[test]
    fn the_argument_pool_layout_does_not_move_the_key() {
        let unit = host();
        let body = subject_body();
        // Every call's arguments pushed again, behind a run of junk.
        let mut moved = body.clone();
        moved.args.insert(0, VReg(11));
        let mut spans = Vec::new();
        for instr in body.blocks.iter().flat_map(|b| &b.instrs) {
            if let Instr::Call { args, .. } = instr {
                spans.push(moved.push_args(body.call_args(*args).iter().copied()));
            }
        }
        let calls = moved.blocks.iter_mut().flat_map(|b| &mut b.instrs);
        for (instr, span) in calls.filter(|i| matches!(i, Instr::Call { .. })).zip(spans) {
            if let Instr::Call { args, .. } = instr {
                *args = span;
            }
        }
        assert_ne!(body.args, moved.args);
        assert_eq!(body, moved);
        let options = options();
        assert_eq!(
            key_of(&unit, &body, &options),
            key_of(&unit, &moved, &options)
        );
    }

    /// A consistent renaming of callees and (equal-length) globals
    /// leaves the key alone, and the entry stored for one body decodes,
    /// under the other's tables, to exactly the other's lowering.
    #[test]
    fn consistent_renaming_keeps_the_key_and_relocates_the_code() {
        let unit = host();
        let rid = unit.program.find_routine("subject").unwrap();
        let layout = GlobalLayout::new(&unit.program);
        let body = subject_body();
        // f0 <-> f2, f1 stays; the two scalars swap; arrays stay (they
        // differ in length, which the key covers).
        let swapped = renamed(
            &body,
            |r| RoutineId(2 - r.0),
            |g| if g.0 < 2 { GlobalId(1 - g.0) } else { g },
        );
        assert_ne!(body, swapped);
        for instrument in [false, true] {
            let options = LloOptions {
                instrument,
                ..options()
            };
            let (key, refs) = routine_key(rid, &body, &unit.program, &layout, &options);
            let (key2, refs2) = routine_key(rid, &swapped, &unit.program, &layout, &options);
            assert_eq!(key, key2, "+I {instrument}");
            assert_ne!(refs, refs2);

            let lowered = crate::lower_routine(rid, &body, &unit.program, &layout, &options);
            let entry = encode_entry(&lowered, &refs, &layout).expect("encodes");
            let back = decode_entry(&entry, "subject", &refs, &layout).expect("decodes");
            assert_eq!(back, lowered, "round trip under its own tables");
            let fresh = crate::lower_routine(rid, &swapped, &unit.program, &layout, &options);
            assert_ne!(fresh.code, lowered.code, "the renaming shows in the code");
            let relocated = decode_entry(&entry, "subject", &refs2, &layout).expect("decodes");
            assert_eq!(relocated, fresh, "+I {instrument}: relocated entry");
        }
        // An inconsistent renaming (two callees merged) is another body.
        let merged = renamed(&body, |_| RoutineId(0), |g| g);
        assert_ne!(
            key_of(&unit, &body, &options()),
            key_of(&unit, &merged, &options())
        );
    }

    /// Hostile entries are typed errors, whatever they claim.
    #[test]
    fn damaged_entries_are_decode_errors() {
        let unit = host();
        let rid = unit.program.find_routine("subject").unwrap();
        let layout = GlobalLayout::new(&unit.program);
        let body = subject_body();
        let (_, refs) = routine_key(rid, &body, &unit.program, &layout, &options());
        let lowered = crate::lower_routine(rid, &body, &unit.program, &layout, &options());
        let entry = encode_entry(&lowered, &refs, &layout).unwrap();
        assert!(decode_entry(&entry, "subject", &refs, &layout).is_ok());

        // Every truncation, and trailing bytes.
        for cut in 0..entry.len() {
            assert!(
                decode_entry(&entry[..cut], "subject", &refs, &layout).is_err(),
                "cut {cut}"
            );
        }
        let mut long = entry.clone();
        long.push(0);
        assert!(decode_entry(&long, "subject", &refs, &layout).is_err());

        // A well-formed entry against tables it has ordinals beyond.
        let fewer_callees = BodyRefs {
            callees: refs.callees[..1].to_vec(),
            globals: refs.globals.clone(),
        };
        let fewer_globals = BodyRefs {
            callees: refs.callees.clone(),
            globals: refs.globals[..1].to_vec(),
        };
        for short in [&fewer_callees, &fewer_globals, &BodyRefs::default()] {
            assert_eq!(
                decode_entry(&entry, "subject", short, &layout),
                Err(DecodeError::Corrupt {
                    what: "code entry ordinal beyond the body's references"
                })
            );
        }

        // Counts far beyond the entry: an error, not an allocation.
        let mut enc = Encoder::new();
        enc.write_u32(1);
        enc.write_usize(0);
        enc.write_u32(0);
        enc.write_u32(1);
        enc.write_u32(0);
        enc.write_u64(0);
        let header = enc.into_bytes();
        for counts in [&[u64::MAX][..], &[0, u64::MAX][..]] {
            let mut enc = Encoder::new();
            for &n in counts {
                enc.write_u64(n);
            }
            let bomb = [header.clone(), enc.into_bytes()].concat();
            assert!(decode_entry(&bomb, "subject", &refs, &layout).is_err());
        }
    }

    /// Two referenced globals at one address (a zero-length array from
    /// a hand-made object) cannot be told apart in the code: such a
    /// routine is not memoized.
    #[test]
    fn ambiguous_global_addresses_are_not_encoded() {
        let unit = host();
        let rid = unit.program.find_routine("subject").unwrap();
        let mut program = unit.program.clone();
        let empty = program.global(GlobalId(0)).clone();
        let g = program.add_global(cmo_ir::GlobalMeta {
            ty: VarTy::array(Ty::I64, 0),
            ..empty.clone()
        });
        let after = program.add_global(cmo_ir::GlobalMeta {
            ty: VarTy::scalar(Ty::I64),
            ..empty
        });
        let layout = GlobalLayout::new(&program);
        assert_eq!(layout.addr(g), layout.addr(after));
        let mut body = subject_body();
        body.blocks[0].instrs[7] = Instr::LoadGlobal {
            dst: VReg(6),
            global: GlobalRef::Id(after),
        };
        body.blocks[0].instrs[10] = Instr::LoadElem {
            dst: VReg(8),
            base: MemBase::Global(GlobalRef::Id(g)),
            index: VReg(0),
        };
        let (_, refs) = routine_key(rid, &body, &program, &layout, &options());
        let lowered = crate::lower_routine(rid, &body, &program, &layout, &options());
        assert_eq!(encode_entry(&lowered, &refs, &layout), None);
    }
}
