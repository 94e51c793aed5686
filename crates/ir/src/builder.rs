//! Builders for IL objects and routine bodies.
//!
//! Frontends (and tests) construct IL through these builders, which
//! maintain the structural invariants the [`crate::validate`] pass
//! checks: every block has exactly one terminator, parameter locals
//! come first, and call-site ids are unique.

use crate::ids::{Block, Local, Sym, VReg};
use crate::instr::{BinOp, CalleeRef, GlobalRef, Instr, MemBase, Terminator, UnOp};
use crate::module::{GlobalInit, GlobalVar, Linkage};
use crate::object::{IlObject, RoutineDef};
use crate::routine::{BlockData, RoutineBody};
use crate::types::{Const, Signature, VarTy};

/// Builds an [`IlObject`] for one source module.
///
/// # Example
///
/// ```
/// use cmo_ir::{IlObjectBuilder, Signature, Ty, Linkage, GlobalInit, VarTy};
///
/// let mut b = IlObjectBuilder::new("counter");
/// b.global("hits", VarTy::scalar(Ty::I64), Linkage::Export, GlobalInit::Zero);
/// let mut f = b.routine("bump", Signature::new(vec![], None));
/// let v = f.load_global("hits");
/// let one = f.const_i64(1);
/// let sum = f.bin(cmo_ir::BinOp::Add, v, one);
/// f.store_global("hits", sum);
/// f.ret(None);
/// f.finish();
/// let obj = b.finish();
/// assert_eq!(obj.routines.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct IlObjectBuilder {
    obj: IlObject,
    /// The buffer a [`RoutineBuilder`] gathers its current block in,
    /// kept here between routines so it is allocated once per object.
    block_buf: Vec<Instr>,
}

impl IlObjectBuilder {
    /// Starts an object for the module `name`.
    #[must_use]
    pub fn new(name: &str) -> Self {
        IlObjectBuilder {
            obj: IlObject {
                module_name: name.to_owned(),
                language: "mlc",
                ..IlObject::default()
            },
            block_buf: Vec::new(),
        }
    }

    /// Sets the source language tag.
    pub fn language(&mut self, lang: &'static str) -> &mut Self {
        self.obj.language = lang;
        self
    }

    /// Sets the module's total source line count.
    pub fn source_lines(&mut self, lines: u32) -> &mut Self {
        self.obj.source_lines = lines;
        self
    }

    /// Interns `name` in the object's private string table.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.obj.strings.intern(name)
    }

    /// Defines a global variable.
    pub fn global(
        &mut self,
        name: &str,
        ty: VarTy,
        linkage: Linkage,
        init: GlobalInit,
    ) -> &mut Self {
        let name = self.intern(name);
        self.obj.symbols.globals.push(GlobalVar {
            name,
            ty,
            linkage,
            init,
        });
        self
    }

    /// Starts a routine definition. Parameter locals are pre-allocated
    /// from the signature; the entry block is current.
    pub fn routine(&mut self, name: &str, sig: Signature) -> RoutineBuilder<'_> {
        RoutineBuilder::new(self, name, sig, Linkage::Export)
    }

    /// Starts a module-internal routine definition.
    pub fn internal_routine(&mut self, name: &str, sig: Signature) -> RoutineBuilder<'_> {
        RoutineBuilder::new(self, name, sig, Linkage::Internal)
    }

    /// Finishes the object.
    ///
    /// If no explicit source-line count was set, estimates one from IL
    /// volume (roughly 3 IL instructions per source line, the ratio our
    /// MLC frontend produces).
    #[must_use]
    pub fn finish(mut self) -> IlObject {
        if self.obj.source_lines == 0 {
            let il: usize = self.obj.il_size();
            let decls = self.obj.symbols.globals.len();
            self.obj.source_lines = u32::try_from(il / 3 + decls + 2).unwrap_or(u32::MAX);
        }
        self.obj
    }
}

/// Builds one routine body inside an [`IlObjectBuilder`].
///
/// Instructions are appended to the *current block*; `jump`, `branch`,
/// and `ret` terminate it. Finish the routine with
/// [`RoutineBuilder::finish`].
#[derive(Debug)]
pub struct RoutineBuilder<'a> {
    owner: &'a mut IlObjectBuilder,
    name: String,
    sig: Signature,
    linkage: Linkage,
    source_lines: u32,
    body: RoutineBody,
    cur: Block,
    /// Instructions emitted into `cur` since it became current. A
    /// block is usually filled in one go, so it is gathered here and
    /// moved into the body in one exactly-sized piece, instead of
    /// growing (and re-copying) a vector per block.
    pending: Vec<Instr>,
    terminated: bool,
}

impl<'a> RoutineBuilder<'a> {
    fn new(owner: &'a mut IlObjectBuilder, name: &str, sig: Signature, linkage: Linkage) -> Self {
        let mut body = RoutineBody::new();
        for &p in &sig.params {
            body.new_local(VarTy::scalar(p), true);
        }
        body.blocks.push(BlockData::new(Terminator::Return(None)));
        let pending = std::mem::take(&mut owner.block_buf);
        RoutineBuilder {
            owner,
            name: name.to_owned(),
            sig,
            linkage,
            source_lines: 0,
            body,
            cur: Block(0),
            pending,
            terminated: false,
        }
    }

    /// Sets the routine's source line count.
    pub fn source_lines(&mut self, lines: u32) -> &mut Self {
        self.source_lines = lines;
        self
    }

    /// The local slot of parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for the signature.
    #[must_use]
    pub fn param(&self, i: usize) -> Local {
        assert!(i < self.sig.arity(), "parameter index {i} out of range");
        Local::from_index(i)
    }

    /// Declares a non-parameter local variable.
    pub fn local(&mut self, ty: VarTy) -> Local {
        self.body.new_local(ty, false)
    }

    /// Creates a new, empty basic block (does not switch to it).
    pub fn new_block(&mut self) -> Block {
        let b = Block::from_index(self.body.blocks.len());
        self.body
            .blocks
            .push(BlockData::new(Terminator::Return(None)));
        b
    }

    /// Makes `b` the current block for subsequent instructions.
    ///
    /// # Panics
    ///
    /// Panics if `b` does not exist.
    pub fn switch_to(&mut self, b: Block) {
        assert!(b.index() < self.body.blocks.len(), "no such block {b}");
        self.flush();
        self.cur = b;
        self.terminated = false;
    }

    /// Moves the pending instructions to the end of the current block.
    fn flush(&mut self) {
        let instrs = &mut self.body.blocks[self.cur.index()].instrs;
        instrs.reserve_exact(self.pending.len());
        instrs.append(&mut self.pending);
    }

    /// The current block.
    #[must_use]
    pub fn current(&self) -> Block {
        self.cur
    }

    /// Returns `true` if the current block already has its terminator.
    #[must_use]
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    fn push(&mut self, i: Instr) {
        assert!(
            !self.terminated,
            "emitting into terminated block {}; switch_to a new block first",
            self.cur
        );
        self.pending.push(i);
    }

    /// Emits `dst = value` and returns `dst`.
    pub fn const_val(&mut self, value: Const) -> VReg {
        let dst = self.body.new_vreg();
        self.push(Instr::Const { dst, value });
        dst
    }

    /// Emits an integer constant.
    pub fn const_i64(&mut self, v: i64) -> VReg {
        self.const_val(Const::I(v))
    }

    /// Emits a float constant.
    pub fn const_f64(&mut self, v: f64) -> VReg {
        self.const_val(Const::F(v))
    }

    /// Emits a binary operation.
    pub fn bin(&mut self, op: BinOp, lhs: VReg, rhs: VReg) -> VReg {
        let dst = self.body.new_vreg();
        self.push(Instr::Bin { dst, op, lhs, rhs });
        dst
    }

    /// Emits a unary operation.
    pub fn un(&mut self, op: UnOp, src: VReg) -> VReg {
        let dst = self.body.new_vreg();
        self.push(Instr::Un { dst, op, src });
        dst
    }

    /// Emits a register copy.
    pub fn mov(&mut self, src: VReg) -> VReg {
        let dst = self.body.new_vreg();
        self.push(Instr::Mov { dst, src });
        dst
    }

    /// Emits a load from a local scalar.
    pub fn load_local(&mut self, local: Local) -> VReg {
        let dst = self.body.new_vreg();
        self.push(Instr::LoadLocal { dst, local });
        dst
    }

    /// Emits a store to a local scalar.
    pub fn store_local(&mut self, local: Local, src: VReg) {
        self.push(Instr::StoreLocal { local, src });
    }

    /// Interns `name` in the owning object's string table.
    ///
    /// A frontend that keeps its own name-to-[`Sym`] memo calls this on
    /// a name's first use and the `*_sym` emitters from then on; the
    /// by-name emitters do exactly that on every use.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.owner.intern(name)
    }

    /// Emits a load from the named global.
    pub fn load_global(&mut self, name: &str) -> VReg {
        let sym = self.owner.intern(name);
        self.load_global_sym(sym)
    }

    /// Emits a load from the global named by `sym`.
    pub fn load_global_sym(&mut self, sym: Sym) -> VReg {
        let dst = self.body.new_vreg();
        self.push(Instr::LoadGlobal {
            dst,
            global: GlobalRef::Name(sym),
        });
        dst
    }

    /// Emits a store to the named global.
    pub fn store_global(&mut self, name: &str, src: VReg) {
        let sym = self.owner.intern(name);
        self.store_global_sym(sym, src);
    }

    /// Emits a store to the global named by `sym`.
    pub fn store_global_sym(&mut self, sym: Sym, src: VReg) {
        self.push(Instr::StoreGlobal {
            global: GlobalRef::Name(sym),
            src,
        });
    }

    /// Emits an indexed load from a local array.
    pub fn load_elem_local(&mut self, base: Local, index: VReg) -> VReg {
        let dst = self.body.new_vreg();
        self.push(Instr::LoadElem {
            dst,
            base: MemBase::Local(base),
            index,
        });
        dst
    }

    /// Emits an indexed store to a local array.
    pub fn store_elem_local(&mut self, base: Local, index: VReg, src: VReg) {
        self.push(Instr::StoreElem {
            base: MemBase::Local(base),
            index,
            src,
        });
    }

    /// Emits an indexed load from a named global array.
    pub fn load_elem_global(&mut self, name: &str, index: VReg) -> VReg {
        let sym = self.owner.intern(name);
        self.load_elem_global_sym(sym, index)
    }

    /// Emits an indexed load from the global array named by `sym`.
    pub fn load_elem_global_sym(&mut self, sym: Sym, index: VReg) -> VReg {
        let dst = self.body.new_vreg();
        self.push(Instr::LoadElem {
            dst,
            base: MemBase::Global(GlobalRef::Name(sym)),
            index,
        });
        dst
    }

    /// Emits an indexed store to a named global array.
    pub fn store_elem_global(&mut self, name: &str, index: VReg, src: VReg) {
        let sym = self.owner.intern(name);
        self.store_elem_global_sym(sym, index, src);
    }

    /// Emits an indexed store to the global array named by `sym`.
    pub fn store_elem_global_sym(&mut self, sym: Sym, index: VReg, src: VReg) {
        self.push(Instr::StoreElem {
            base: MemBase::Global(GlobalRef::Name(sym)),
            index,
            src,
        });
    }

    /// Emits a call whose result is used.
    pub fn call(&mut self, callee: &str, args: impl IntoIterator<Item = VReg>) -> VReg {
        let sym = self.owner.intern(callee);
        self.call_sym(sym, args)
    }

    /// Emits a call to the routine named by `sym` whose result is used.
    pub fn call_sym(&mut self, sym: Sym, args: impl IntoIterator<Item = VReg>) -> VReg {
        let dst = self.body.new_vreg();
        self.emit_call(Some(dst), sym, args);
        dst
    }

    /// Emits a call whose result (if any) is discarded.
    pub fn call_void(&mut self, callee: &str, args: impl IntoIterator<Item = VReg>) {
        let sym = self.owner.intern(callee);
        self.call_void_sym(sym, args);
    }

    /// Emits a call to the routine named by `sym`, discarding any result.
    pub fn call_void_sym(&mut self, sym: Sym, args: impl IntoIterator<Item = VReg>) {
        self.emit_call(None, sym, args);
    }

    fn emit_call(&mut self, dst: Option<VReg>, sym: Sym, args: impl IntoIterator<Item = VReg>) {
        let site = self.body.new_site();
        let args = self.body.push_args(args);
        self.push(Instr::Call {
            dst: dst.into(),
            callee: CalleeRef::Name(sym),
            args,
            site,
        });
    }

    /// Emits a workload-input read.
    pub fn input(&mut self) -> VReg {
        let dst = self.body.new_vreg();
        self.push(Instr::Input { dst });
        dst
    }

    /// Emits an output-checksum contribution.
    pub fn output(&mut self, src: VReg) {
        self.push(Instr::Output { src });
    }

    fn terminate(&mut self, t: Terminator) {
        assert!(!self.terminated, "block {} already terminated", self.cur);
        self.body.blocks[self.cur.index()].term = t;
        self.terminated = true;
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jump(&mut self, to: Block) {
        self.terminate(Terminator::Jump(to));
    }

    /// Terminates the current block with a conditional branch.
    pub fn branch(&mut self, cond: VReg, then_bb: Block, else_bb: Block) {
        self.terminate(Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<VReg>) {
        self.terminate(Terminator::Return(value));
    }

    /// Completes the routine and adds it to the owning object builder.
    pub fn finish(mut self) {
        self.flush();
        self.owner.block_buf = std::mem::take(&mut self.pending);
        let name = self.owner.intern(&self.name);
        let source_lines = if self.source_lines > 0 {
            self.source_lines
        } else {
            u32::try_from(self.body.instr_count() / 3 + 2).unwrap_or(u32::MAX)
        };
        self.owner.obj.routines.push(RoutineDef {
            name,
            sig: self.sig,
            linkage: self.linkage,
            source_lines,
            body: self.body,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Ty;

    #[test]
    fn builder_produces_structured_body() {
        let mut b = IlObjectBuilder::new("m");
        let mut f = b.routine("abs", Signature::new(vec![Ty::I64], Some(Ty::I64)));
        let p = f.param(0);
        let x = f.load_local(p);
        let zero = f.const_i64(0);
        let neg = f.bin(BinOp::Lt, x, zero);
        let then_b = f.new_block();
        let else_b = f.new_block();
        f.branch(neg, then_b, else_b);
        f.switch_to(then_b);
        let negated = f.un(UnOp::Neg, x);
        f.ret(Some(negated));
        f.switch_to(else_b);
        f.ret(Some(x));
        f.finish();
        let obj = b.finish();
        assert_eq!(obj.routines.len(), 1);
        let body = &obj.routines[0].body;
        assert_eq!(body.blocks.len(), 3);
        assert_eq!(body.n_vregs, 4);
        assert!(obj.source_lines > 0);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_panics() {
        let mut b = IlObjectBuilder::new("m");
        let mut f = b.routine("f", Signature::default());
        f.ret(None);
        f.ret(None);
    }

    #[test]
    #[should_panic(expected = "terminated block")]
    fn emit_after_terminator_panics() {
        let mut b = IlObjectBuilder::new("m");
        let mut f = b.routine("f", Signature::default());
        f.ret(None);
        let _ = f.const_i64(1);
    }

    #[test]
    fn call_sites_are_unique() {
        let mut b = IlObjectBuilder::new("m");
        let mut f = b.routine("f", Signature::default());
        f.call_void("g", vec![]);
        f.call_void("h", vec![]);
        f.ret(None);
        f.finish();
        let obj = b.finish();
        let sites: Vec<_> = obj.routines[0].body.blocks[0]
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Call { site, .. } => Some(*site),
                _ => None,
            })
            .collect();
        assert_eq!(sites.len(), 2);
        assert_ne!(sites[0], sites[1]);
    }
}
