//! Machine-code emission.

use crate::regalloc::{Loc, MAX_ARGS, NUM_ALLOCATABLE};
use crate::scratch::{self, LloScratch};
use cmo_ir::{
    Block, GlobalId, Instr, MemBase, Program, RoutineBody, RoutineId, Terminator, UnOp, VReg,
};
use cmo_profile::{ProbeKind, RoutineShape};
use cmo_vm::{CallArgs, MInstr, Reg};

/// How hard LLO works, mirroring the HP-UX option levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptEffort {
    /// `+O1`: code generation and register allocation only.
    O1,
    /// `+O2` and above: full local optimization first.
    O2,
}

/// Options for lowering one routine.
#[derive(Debug, Clone, Default)]
pub struct LloOptions {
    /// Optimization effort.
    pub effort: OptEffortOpt,
    /// Insert profile probes (`+I`).
    pub instrument: bool,
    /// Execution count per block of this body, for layout (`+P`).
    /// Supplied by the driver from the profile database, or maintained
    /// by HLO through its transformations.
    pub block_counts: Option<Vec<u64>>,
}

/// Newtype default wrapper so `LloOptions::default()` is `O2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptEffortOpt(pub OptEffort);

impl Default for OptEffortOpt {
    fn default() -> Self {
        OptEffortOpt(OptEffort::O2)
    }
}

/// Flat addresses for global variables in machine memory.
#[derive(Debug, Clone, Default)]
pub struct GlobalLayout {
    addr: Vec<u32>,
    len: Vec<u32>,
    total: u32,
}

impl GlobalLayout {
    /// Lays out every global of `program` in id order.
    #[must_use]
    pub fn new(program: &Program) -> Self {
        let mut addr = Vec::with_capacity(program.globals().len());
        let mut len = Vec::with_capacity(program.globals().len());
        let mut next = 0u32;
        for g in program.globals() {
            addr.push(next);
            let slots = g.ty.slots();
            len.push(slots);
            next += slots;
        }
        GlobalLayout {
            addr,
            len,
            total: next,
        }
    }

    /// Flat cell address of `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn addr(&self, g: GlobalId) -> u32 {
        self.addr[g.index()]
    }

    /// Cell count of `g` (1 for scalars).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn len(&self, g: GlobalId) -> u32 {
        self.len[g.index()]
    }

    /// Returns `true` when the program has no globals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Total cells of global memory.
    #[must_use]
    pub fn total_cells(&self) -> u32 {
        self.total
    }
}

/// The output of lowering one routine: relocatable code (jump targets
/// are routine-relative; call operands are program [`RoutineId`]s) plus
/// metadata for the linker.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredRoutine {
    /// Routine name.
    pub name: String,
    /// Code with routine-relative branch targets.
    pub code: Vec<MInstr>,
    /// Frame slots (locals + arrays + spills).
    pub frame_slots: u32,
    /// Probe descriptors in emission order (empty unless instrumented).
    pub probes: Vec<ProbeKind>,
    /// Structural shape after optimization, for profile correlation.
    pub shape: RoutineShape,
    /// Peak LLO working memory for this routine: the liveness and
    /// interval tables' size by formula from its block and vreg counts,
    /// whatever the reused per-thread scratch actually holds.
    pub llo_work_bytes: usize,
    /// IL instructions after local optimization.
    pub il_after_opt: u32,
}

/// Computes the structural fingerprint used to detect stale profiles
/// (§6.2): block count, site count, and a hash over per-block
/// instruction counts and successor lists.
#[must_use]
pub fn shape_of(body: &RoutineBody) -> RoutineShape {
    RoutineShape {
        n_blocks: body.blocks.len() as u32,
        n_sites: body.next_site,
        fingerprint: body.fingerprint(),
    }
}

/// Reusable tables for [`lower_owned`].
#[derive(Default)]
pub(crate) struct LowerScratch {
    /// Block emission order.
    order: Vec<Block>,
    /// Frame slot of each local's base.
    local_base: Vec<u32>,
    /// Code offset of each block, indexed by block.
    block_offset: Vec<u32>,
    /// Fixups: (code index, target block) to patch to block offsets.
    fixups: Vec<(usize, Block)>,
}

struct Emitter<'a> {
    code: Vec<MInstr>,
    locs: &'a [Loc],
    local_base: &'a [u32],
    /// First frame slot of the spill area.
    spill_base: u32,
    fixups: &'a mut Vec<(usize, Block)>,
    scratch_next: u8,
}

impl Emitter<'_> {
    fn scratch(&mut self) -> Reg {
        let r = Reg(NUM_ALLOCATABLE + self.scratch_next);
        self.scratch_next = (self.scratch_next + 1) % MAX_ARGS as u8;
        r
    }

    /// Materializes vreg `v` into a register, loading from its spill
    /// slot if needed.
    fn read(&mut self, v: VReg) -> Reg {
        match self.locs[v.index()] {
            Loc::Reg(r) => r,
            Loc::Spill(s) => {
                let r = self.scratch();
                self.code.push(MInstr::LdSlot {
                    dst: r,
                    slot: self.spill_base + s,
                });
                r
            }
        }
    }

    /// Returns the register to compute vreg `v` into; call
    /// [`Emitter::finish_write`] afterwards to store spills.
    fn write_reg(&mut self, v: VReg) -> Reg {
        match self.locs[v.index()] {
            Loc::Reg(r) => r,
            Loc::Spill(_) => self.scratch(),
        }
    }

    /// Emits `make(r)`, which computes vreg `v` into register `r`, and
    /// stores `r` to `v`'s spill slot if it has one.
    fn def(&mut self, v: VReg, make: impl FnOnce(Reg) -> MInstr) {
        let r = self.write_reg(v);
        self.code.push(make(r));
        self.finish_write(v, r);
    }

    fn finish_write(&mut self, v: VReg, r: Reg) {
        if let Loc::Spill(s) = self.locs[v.index()] {
            self.code.push(MInstr::StSlot {
                slot: self.spill_base + s,
                src: r,
            });
        }
    }
}

/// [`lower_owned`] on a copy of `body`, for a caller that keeps it.
#[must_use]
pub fn lower_routine(
    rid: RoutineId,
    body: &RoutineBody,
    program: &Program,
    globals: &GlobalLayout,
    options: &LloOptions,
) -> LoweredRoutine {
    lower_owned(rid, body.clone(), program, globals, options.clone())
}

/// Lowers one routine to machine code, optimizing its body (and
/// maintaining its block counts) in place.
///
/// The body must be fully resolved (post IL-link). The returned code is
/// relocatable: `Jmp`/`Br` targets are relative to the routine start,
/// and `Call` operands are program routine ids the linker maps to
/// image indices.
///
/// # Panics
///
/// Panics if the routine takes, or a call passes, more than
/// [`MAX_ARGS`] arguments (the front end, `cmo_ir::validate` and the IL
/// decoder reject such bodies) or if the body contains unresolved
/// references.
#[must_use]
pub fn lower_owned(
    rid: RoutineId,
    mut body: RoutineBody,
    program: &Program,
    globals: &GlobalLayout,
    options: LloOptions,
) -> LoweredRoutine {
    scratch::with(|s| lower_with(s, rid, &mut body, program, globals, options))
}

fn lower_with(
    scratch: &mut LloScratch,
    rid: RoutineId,
    body: &mut RoutineBody,
    program: &Program,
    globals: &GlobalLayout,
    options: LloOptions,
) -> LoweredRoutine {
    let meta = program.routine(rid);
    let name = program.name(meta.name).to_owned();
    let LowerScratch {
        order,
        local_base,
        block_offset,
        fixups,
    } = &mut scratch.lower;

    // 1. Local optimization, in place. Block counts arrive in the
    //    pre-optimization (frontend/HLO) block-id domain and are
    //    maintained through every structural change. Instrumented
    //    builds skip IL optimization entirely so probes map 1:1 onto
    //    that stable domain — this is what keeps the profile database
    //    correlated across option levels (§3, §6.2).
    let mut counts = options.block_counts.map(|mut c| {
        c.resize(body.blocks.len(), 0);
        c
    });
    if options.effort.0 >= OptEffort::O2 && !options.instrument {
        scratch.opt.optimize(body, counts.as_mut());
    }
    let shape = shape_of(body);

    // 2. Layout.
    scratch.layout.order_into(body, counts.as_deref(), order);

    // 3. Register allocation.
    let (spill_slots, llo_work_bytes) = scratch.alloc.allocate(body, order);

    // 4. Frame layout: locals first (arrays get contiguous slots),
    //    spill area after.
    local_base.clear();
    let mut next_slot = 0u32;
    for decl in &body.locals {
        local_base.push(next_slot);
        next_slot += decl.ty.slots();
    }
    let spill_base = next_slot;
    let frame_slots = next_slot + spill_slots;

    fixups.clear();
    let mut e = Emitter {
        code: Vec::with_capacity(body.instr_count() * 2),
        locs: &scratch.alloc.locs,
        local_base,
        spill_base,
        fixups,
        scratch_next: 0,
    };
    let mut probes: Vec<ProbeKind> = Vec::new();

    // Prologue: copy incoming argument registers into parameter slots.
    let arity = meta.sig.arity();
    assert!(arity <= MAX_ARGS, "arity {arity} exceeds backend limit");
    for i in 0..arity {
        e.code.push(MInstr::StSlot {
            slot: e.local_base[i],
            src: Reg(i as u8),
        });
    }

    block_offset.clear();
    block_offset.resize(body.blocks.len(), 0);
    for (pos, &b) in order.iter().enumerate() {
        block_offset[b.index()] = e.code.len() as u32;
        if options.instrument {
            probes.push(ProbeKind::Block(b.index() as u32));
            e.code.push(MInstr::Probe {
                id: (probes.len() - 1) as u32,
            });
        }
        for instr in &body.blocks[b.index()].instrs {
            e.scratch_next = 0;
            emit_instr(
                &mut e,
                instr,
                &body.args,
                globals,
                options.instrument,
                &mut probes,
            );
        }
        e.scratch_next = 0;
        let next = order.get(pos + 1).copied();
        match &body.blocks[b.index()].term {
            Terminator::Jump(t) => {
                if next != Some(*t) {
                    e.fixups.push((e.code.len(), *t));
                    e.code.push(MInstr::Jmp { target: 0 });
                }
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = e.read(*cond);
                if next == Some(*else_bb) {
                    e.fixups.push((e.code.len(), *then_bb));
                    e.code.push(MInstr::Br { cond: c, target: 0 });
                } else if next == Some(*then_bb) {
                    let inv = e.scratch();
                    e.code.push(MInstr::Un {
                        op: UnOp::Not,
                        dst: inv,
                        src: c,
                    });
                    e.fixups.push((e.code.len(), *else_bb));
                    e.code.push(MInstr::Br {
                        cond: inv,
                        target: 0,
                    });
                } else {
                    e.fixups.push((e.code.len(), *then_bb));
                    e.code.push(MInstr::Br { cond: c, target: 0 });
                    e.fixups.push((e.code.len(), *else_bb));
                    e.code.push(MInstr::Jmp { target: 0 });
                }
            }
            Terminator::Return(v) => {
                let value = v.map(|r| e.read(r));
                e.code.push(MInstr::Ret { value });
            }
        }
    }

    // Patch branch targets.
    for &(idx, target) in e.fixups.iter() {
        let off = block_offset[target.index()];
        match &mut e.code[idx] {
            MInstr::Jmp { target } | MInstr::Br { target, .. } => *target = off,
            other => unreachable!("fixup on non-branch {other:?}"),
        }
    }

    LoweredRoutine {
        name,
        code: e.code,
        frame_slots,
        probes,
        shape,
        llo_work_bytes,
        il_after_opt: body.instr_count() as u32,
    }
}

fn emit_instr(
    e: &mut Emitter<'_>,
    instr: &Instr,
    pool: &[VReg],
    globals: &GlobalLayout,
    instrument: bool,
    probes: &mut Vec<ProbeKind>,
) {
    match *instr {
        Instr::Const { dst, value } => e.def(dst, |dst| match value {
            cmo_ir::Const::I(value) => MInstr::LdImm { dst, value },
            cmo_ir::Const::F(value) => MInstr::LdImmF { dst, value },
        }),
        Instr::Bin { dst, op, lhs, rhs } => {
            let (lhs, rhs) = (e.read(lhs), e.read(rhs));
            e.def(dst, |dst| MInstr::Bin { op, dst, lhs, rhs });
        }
        Instr::Un { dst, op, src } => {
            let src = e.read(src);
            e.def(dst, |dst| MInstr::Un { op, dst, src });
        }
        Instr::Mov { dst, src } => {
            let s = e.read(src);
            let r = e.write_reg(dst);
            if s != r {
                e.code.push(MInstr::Mov { dst: r, src: s });
            }
            e.finish_write(dst, r);
        }
        Instr::LoadLocal { dst, local } => {
            let slot = e.local_base[local.index()];
            e.def(dst, |dst| MInstr::LdSlot { dst, slot });
        }
        Instr::StoreLocal { local, src } => {
            let src = e.read(src);
            let slot = e.local_base[local.index()];
            e.code.push(MInstr::StSlot { slot, src });
        }
        Instr::LoadGlobal { dst, global } => {
            let addr = globals.addr(global.id());
            e.def(dst, |dst| MInstr::LdGlobal { dst, addr });
        }
        Instr::StoreGlobal { global, src } => {
            let src = e.read(src);
            let addr = globals.addr(global.id());
            e.code.push(MInstr::StGlobal { addr, src });
        }
        Instr::LoadElem { dst, base, index } => {
            let index = e.read(index);
            match base {
                MemBase::Local(l) => {
                    let (base_slot, len) = (e.local_base[l.index()], elem_len_local(e, l));
                    e.def(dst, |dst| MInstr::LdSlotElem {
                        dst,
                        base_slot,
                        len,
                        index,
                    });
                }
                MemBase::Global(g) => {
                    let (base, len) = (globals.addr(g.id()), globals.len(g.id()));
                    e.def(dst, |dst| MInstr::LdGlobalElem {
                        dst,
                        base,
                        len,
                        index,
                    });
                }
            }
        }
        Instr::StoreElem { base, index, src } => {
            let (index, src) = (e.read(index), e.read(src));
            e.code.push(match base {
                MemBase::Local(l) => MInstr::StSlotElem {
                    base_slot: e.local_base[l.index()],
                    len: elem_len_local(e, l),
                    index,
                    src,
                },
                MemBase::Global(g) => MInstr::StGlobalElem {
                    base: globals.addr(g.id()),
                    len: globals.len(g.id()),
                    index,
                    src,
                },
            });
        }
        Instr::Call {
            dst,
            callee,
            args,
            site,
        } => {
            if instrument {
                probes.push(ProbeKind::Site(site.0));
                e.code.push(MInstr::Probe {
                    id: (probes.len() - 1) as u32,
                });
            }
            let args: CallArgs = pool[args.range()].iter().map(|&a| e.read(a)).collect();
            let routine = callee.id().0;
            match dst.get() {
                Some(d) => e.def(d, |dst| MInstr::Call {
                    routine,
                    args,
                    dst: Some(dst),
                }),
                None => e.code.push(MInstr::Call {
                    routine,
                    args,
                    dst: None,
                }),
            }
        }
        Instr::Input { dst } => e.def(dst, |dst| MInstr::Input { dst }),
        Instr::Output { src } => {
            let src = e.read(src);
            e.code.push(MInstr::Output { src });
        }
    }
}

/// Array length of a local, recovered from the frame layout (the next
/// local's base minus this one's — or measured directly).
fn elem_len_local(e: &Emitter<'_>, l: cmo_ir::Local) -> u32 {
    let base = e.local_base[l.index()];
    let next = e
        .local_base
        .get(l.index() + 1)
        .copied()
        .unwrap_or(e.spill_base);
    next - base
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmo_frontend::compile_module;
    use cmo_ir::link_objects;
    use cmo_vm::{run, MRoutineInfo, MachineImage, RunConfig};

    /// Minimal single-module "linker" for unit tests: lowers every
    /// routine and concatenates in id order.
    fn build_image(src: &str, options: &LloOptions) -> MachineImage {
        let obj = compile_module("m", src).unwrap();
        let unit = link_objects(vec![obj]).unwrap();
        let globals = GlobalLayout::new(&unit.program);
        let mut image = MachineImage {
            globals: vec![0; globals.total_cells() as usize],
            ..MachineImage::default()
        };
        // Fill initial global memory.
        for (gid, meta) in unit.program.globals().iter().enumerate() {
            let init = &unit.symtabs[meta.module.index()].globals[meta.slot as usize].init;
            let base = globals.addr(cmo_ir::GlobalId::from_index(gid)) as usize;
            match init {
                cmo_ir::GlobalInit::Zero => {}
                cmo_ir::GlobalInit::Scalar(cmo_ir::Const::I(v)) => image.globals[base] = *v as u64,
                cmo_ir::GlobalInit::Scalar(cmo_ir::Const::F(v)) => {
                    image.globals[base] = v.to_bits()
                }
                cmo_ir::GlobalInit::IntArray(vs) => {
                    for (i, v) in vs.iter().enumerate() {
                        image.globals[base + i] = *v as u64;
                    }
                }
                cmo_ir::GlobalInit::FloatArray(vs) => {
                    for (i, v) in vs.iter().enumerate() {
                        image.globals[base + i] = v.to_bits();
                    }
                }
            }
        }
        for (i, body) in unit.bodies.iter().enumerate() {
            let rid = RoutineId::from_index(i);
            let lowered = lower_routine(rid, body, &unit.program, &globals, options);
            let base = image.code.len() as u32;
            let probe_base = image.probes.len() as u32;
            let code_len = lowered.code.len() as u32;
            for mut mi in lowered.code {
                match &mut mi {
                    MInstr::Jmp { target } | MInstr::Br { target, .. } => *target += base,
                    MInstr::Probe { id } => *id += probe_base,
                    _ => {}
                }
                image.code.push(mi);
            }
            for kind in lowered.probes {
                image.probes.push(match kind {
                    ProbeKind::Block(b) => cmo_profile::ProbeKey::block(&lowered.name, b),
                    ProbeKind::Site(s) => cmo_profile::ProbeKey::site(&lowered.name, s),
                });
            }
            image.shapes.push((lowered.name.clone(), lowered.shape));
            image.routines.push(MRoutineInfo {
                name: lowered.name,
                entry: base,
                frame_slots: lowered.frame_slots,
                code_len,
            });
        }
        image.entry_routine = unit.program.find_routine("main").unwrap().0;
        image
    }

    const FIB: &str = r#"
        fn fib(n: int) -> int {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        fn main() -> int {
            return fib(12);
        }
    "#;

    #[test]
    fn fib_computes_correctly() {
        let image = build_image(FIB, &LloOptions::default());
        let r = run(&image, &[], &RunConfig::default()).unwrap();
        assert_eq!(r.returned, 144);
        assert!(r.calls > 100);
    }

    #[test]
    fn o1_and_o2_agree_on_results() {
        let src = r#"
            global table: int[8] = [5, 3, 8, 1];
            fn main() -> int {
                var i: int = 0;
                var acc: int = 0;
                while (i < 16) {
                    acc = acc + table[i] * 2 + (3 * 4);
                    i = i + 1;
                }
                output(acc);
                return acc;
            }
        "#;
        let o1 = build_image(
            src,
            &LloOptions {
                effort: OptEffortOpt(OptEffort::O1),
                ..LloOptions::default()
            },
        );
        let o2 = build_image(src, &LloOptions::default());
        let cfg = RunConfig::default();
        let r1 = run(&o1, &[], &cfg).unwrap();
        let r2 = run(&o2, &[], &cfg).unwrap();
        assert_eq!(r1.returned, r2.returned);
        assert_eq!(r1.checksum, r2.checksum);
        assert!(
            r2.cycles < r1.cycles,
            "O2 should be faster: {} vs {}",
            r2.cycles,
            r1.cycles
        );
    }

    #[test]
    fn instrumented_image_counts_blocks_and_sites() {
        let image = build_image(
            FIB,
            &LloOptions {
                instrument: true,
                ..LloOptions::default()
            },
        );
        assert!(image.is_instrumented());
        let r = run(&image, &[], &RunConfig::default()).unwrap();
        let db = cmo_vm::profile_from_run(&image, &r.probe_counts);
        // Every fib entry corresponds to one executed call (main's
        // entry is not a call, and every call targets fib).
        assert_eq!(db.entry_count("fib"), r.calls);
        assert!(db.entry_count("main") == 1);
        // Instrumentation must not change results.
        let plain = build_image(FIB, &LloOptions::default());
        let rp = run(&plain, &[], &RunConfig::default()).unwrap();
        assert_eq!(rp.returned, r.returned);
        assert_eq!(rp.checksum, r.checksum);
        assert!(r.cycles > rp.cycles, "probes cost cycles");
    }

    #[test]
    fn layout_with_counts_reduces_taken_branches() {
        // A loop whose body branch is heavily biased to the `else`
        // side, which source order places badly.
        let src = r#"
            fn main() -> int {
                var i: int = 0;
                var acc: int = 0;
                while (i < 1000) {
                    if (i % 100 == 99) { acc = acc + 100; } else { acc = acc + 1; }
                    i = i + 1;
                }
                return acc;
            }
        "#;
        // First, instrument and run to get real block counts.
        let inst = build_image(
            src,
            &LloOptions {
                instrument: true,
                ..LloOptions::default()
            },
        );
        let r = run(&inst, &[], &RunConfig::default()).unwrap();
        let db = cmo_vm::profile_from_run(&inst, &r.probe_counts);
        let prof = db.routine("main").unwrap();
        // Now rebuild with counts-guided layout.
        let plain = build_image(src, &LloOptions::default());
        let guided = build_image(
            src,
            &LloOptions {
                block_counts: Some(prof.blocks.clone()),
                ..LloOptions::default()
            },
        );
        let cfg = RunConfig::default();
        let rp = run(&plain, &[], &cfg).unwrap();
        let rg = run(&guided, &[], &cfg).unwrap();
        assert_eq!(rp.returned, rg.returned);
        assert!(
            rg.branches_taken < rp.branches_taken,
            "guided {} vs plain {}",
            rg.branches_taken,
            rp.branches_taken
        );
        assert!(rg.cycles <= rp.cycles);
    }

    #[test]
    fn spilled_code_still_computes_correctly() {
        // Force register pressure well past NUM_ALLOCATABLE.
        let n = 40;
        let mut decls = String::new();
        let mut sum = String::from("0");
        for i in 0..n {
            decls.push_str(&format!("var x{i}: int = input();\n"));
            sum = format!("({sum} + x{i})");
        }
        let src = format!("fn main() -> int {{ {decls} var a: int = {sum}; return a + {sum}; }}");
        let image = build_image(&src, &LloOptions::default());
        let input: Vec<i64> = (1..=n as i64).collect();
        let r = run(&image, &input, &RunConfig::default()).unwrap();
        let expect: i64 = (1..=n as i64).sum::<i64>() * 2;
        assert_eq!(r.returned, expect);
    }

    #[test]
    fn shape_changes_when_structure_changes() {
        let a = build_image(FIB, &LloOptions::default());
        let b = build_image(
            "fn fib(n: int) -> int { return n; } fn main() -> int { return fib(12); }",
            &LloOptions::default(),
        );
        assert_ne!(a.shapes[0].1, b.shapes[0].1);
    }

    #[test]
    fn float_programs_compute() {
        let src = r#"
            fn main() -> int {
                var x: float = 1.5;
                var i: int = 0;
                while (i < 20) {
                    x = x * 1.1 + 0.25;
                    i = i + 1;
                }
                if (x > 10.0) { return 1; }
                return 0;
            }
        "#;
        let image = build_image(src, &LloOptions::default());
        let r = run(&image, &[], &RunConfig::default()).unwrap();
        assert_eq!(r.returned, 1);
    }
}
