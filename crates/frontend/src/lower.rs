//! Semantic checking and lowering of the MLC AST to IL.
//!
//! A single pass resolves names, checks types, and emits IL through the
//! [`cmo_ir`] builders. Cross-module references (declared with
//! `extern`) are emitted as name-based references and resolved later by
//! IL linking, matching the paper's object-file-centric flow (§6.1).
//!
//! Every table here is a `Vec` indexed by [`NameId`]; no name is
//! hashed or compared as text. The object's string table still sees
//! each name exactly when it always did — at the global's or routine's
//! definition, or at the first reference a body makes to it — so
//! symbols are numbered, and objects encoded, as before.

use crate::ast::*;
use crate::names::NameId;
use crate::FrontendError;
use cmo_ir::{
    BinOp, Block, GlobalInit, IlObject, IlObjectBuilder, Linkage, Local, RoutineBuilder, Signature,
    Sym, Ty, UnOp, VReg, VarTy, MAX_CALL_ARGS,
};

fn scalar_ty(t: TypeName) -> Ty {
    match t {
        TypeName::Int => Ty::I64,
        TypeName::Float => Ty::F64,
        TypeName::IntArray(_) | TypeName::FloatArray(_) => {
            unreachable!("the parser admits only scalar parameter and return types")
        }
    }
}

fn var_ty(t: TypeName) -> VarTy {
    match t {
        TypeName::Int => VarTy::scalar(Ty::I64),
        TypeName::Float => VarTy::scalar(Ty::F64),
        TypeName::IntArray(n) => VarTy::array(Ty::I64, n),
        TypeName::FloatArray(n) => VarTy::array(Ty::F64, n),
    }
}

/// A function's signature; the parameter types are
/// `Lowerer::sig_tys[first..first + arity]`.
#[derive(Clone, Copy)]
struct FnSig {
    first: u32,
    arity: u32,
    ret: Option<Ty>,
}

/// A checked call's argument registers, held in place: a call passes
/// at most [`MAX_CALL_ARGS`].
struct CallRegs {
    regs: [VReg; MAX_CALL_ARGS],
    len: usize,
}

impl IntoIterator for CallRegs {
    type Item = VReg;
    type IntoIter = std::iter::Take<std::array::IntoIter<VReg, MAX_CALL_ARGS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(self.len)
    }
}

/// A function-local variable, live while `epoch` is the current
/// function's.
#[derive(Clone, Copy)]
struct VarSlot {
    epoch: u32,
    local: Local,
    ty: VarTy,
}

/// Where a variable name resolves to.
#[derive(Clone, Copy)]
enum Place {
    Local(Local),
    Global(NameId),
}

/// Module-wide lowering state. The four name tables are indexed by
/// [`NameId::index`].
struct Lowerer<'m, 's> {
    ast: &'m Module<'s>,
    /// Module-visible globals (defined here or extern).
    globals: Vec<Option<VarTy>>,
    /// Module-visible functions (defined here or extern).
    functions: Vec<Option<FnSig>>,
    sig_tys: Vec<Ty>,
    /// Each name's symbol in the object's string table, from the first
    /// reference a body makes to it.
    syms: Vec<Option<Sym>>,
    /// The current function's parameters and variables. Starting a
    /// function bumps `epoch`, which empties the table.
    vars: Vec<VarSlot>,
    epoch: u32,
    /// Innermost-last stack of `(continue target, break target)`.
    loops: Vec<(Block, Block)>,
    /// Join blocks of the `else if` chains being lowered, innermost
    /// arm last.
    joins: Vec<Block>,
    /// Pending right operands of the operator chains being lowered.
    spine: Vec<(BinExprOp, ExprId, u32)>,
}

/// Lowers a parsed module to an IL object.
///
/// # Errors
///
/// Returns the first semantic error: duplicate or unknown names, type
/// mismatches, bad initializers, or misused arrays.
pub fn lower_module(name: &str, module: &Module<'_>) -> Result<IlObject, FrontendError> {
    let n_names = module.names.len();
    let mut cx = Lowerer {
        ast: module,
        globals: vec![None; n_names],
        functions: vec![None; n_names],
        sig_tys: Vec::new(),
        syms: vec![None; n_names],
        vars: vec![
            VarSlot {
                epoch: 0,
                local: Local(0),
                ty: VarTy::scalar(Ty::I64),
            };
            n_names
        ],
        epoch: 0,
        loops: Vec::new(),
        joins: Vec::new(),
        spine: Vec::new(),
    };

    // Collect module-level declarations first so definitions can call
    // forward and across modules.
    for item in &module.items {
        match *item {
            Item::Global {
                name, ty, offset, ..
            }
            | Item::ExternGlobal { name, ty, offset } => {
                if cx.globals[name.index()].replace(var_ty(ty)).is_some() {
                    return Err(
                        cx.error(offset, format!("duplicate global `{}`", module.name(name)))
                    );
                }
            }
            Item::Function {
                name,
                params,
                ret,
                offset,
                ..
            } => {
                let params = module.param_run(params).iter().map(|p| p.ty);
                cx.declare_function(name, params, ret, offset)?;
            }
            Item::ExternFn {
                name,
                params,
                ret,
                offset,
            } => {
                let params = module.extern_param_run(params).iter().copied();
                cx.declare_function(name, params, ret, offset)?;
            }
        }
    }

    let mut builder = IlObjectBuilder::new(name);
    builder.source_lines(module.lines.line_count());

    for item in &module.items {
        match *item {
            Item::Global {
                name,
                ty,
                internal,
                scalar_init,
                array_init,
                offset,
            } => {
                let vt = var_ty(ty);
                let init = cx.lower_init(vt, scalar_init, array_init, offset)?;
                let linkage = if internal {
                    Linkage::Internal
                } else {
                    Linkage::Export
                };
                builder.global(module.name(name), vt, linkage, init);
            }
            Item::Function {
                name,
                params,
                body,
                internal,
                lines,
                ..
            } => {
                let FnSig { first, arity, ret } =
                    cx.functions[name.index()].expect("declared by the first pass");
                let sig = Signature::new(
                    cx.sig_tys[first as usize..(first + arity) as usize].to_vec(),
                    ret,
                );
                let mut f = if internal {
                    builder.internal_routine(module.name(name), sig)
                } else {
                    builder.routine(module.name(name), sig)
                };
                f.source_lines(lines);
                cx.epoch += 1;
                let mut fl = FnLowerer {
                    cx: &mut cx,
                    f,
                    ret,
                };
                for (i, p) in module.param_run(params).iter().enumerate() {
                    let local = fl.f.param(i);
                    if fl.declare_var(p.name, local, var_ty(p.ty)) {
                        return Err(fl.cx.error(
                            p.offset,
                            format!("duplicate parameter `{}`", module.name(p.name)),
                        ));
                    }
                }
                fl.lower_body(body)?;
                fl.f.finish();
            }
            Item::ExternFn { .. } | Item::ExternGlobal { .. } => {}
        }
    }
    Ok(builder.finish())
}

impl Lowerer<'_, '_> {
    fn error(&self, offset: u32, message: impl Into<String>) -> FrontendError {
        FrontendError::new(self.ast.pos(offset), message)
    }

    fn declare_function(
        &mut self,
        name: NameId,
        params: impl Iterator<Item = TypeName>,
        ret: Option<TypeName>,
        offset: u32,
    ) -> Result<(), FrontendError> {
        let first = self.sig_tys.len();
        self.sig_tys.extend(params.map(scalar_ty));
        let arity = self.sig_tys.len() - first;
        if arity > MAX_CALL_ARGS {
            return Err(self.error(
                offset,
                format!(
                    "`{}` declares {arity} parameters, at most {MAX_CALL_ARGS} are supported",
                    self.ast.name(name)
                ),
            ));
        }
        let sig = FnSig {
            first: first as u32,
            arity: arity as u32,
            ret: ret.map(scalar_ty),
        };
        if self.functions[name.index()].replace(sig).is_some() {
            return Err(self.error(
                offset,
                format!("duplicate function `{}`", self.ast.name(name)),
            ));
        }
        Ok(())
    }

    fn const_int(&self, e: &Expr) -> Option<i64> {
        match e.kind {
            ExprKind::IntLit(v) => Some(v),
            ExprKind::Un(UnExprOp::Neg, inner) => {
                self.const_int(self.ast.expr(inner)).map(i64::wrapping_neg)
            }
            _ => None,
        }
    }

    fn const_float(&self, e: &Expr) -> Option<f64> {
        match e.kind {
            ExprKind::FloatLit(v) => Some(v),
            ExprKind::IntLit(v) => Some(v as f64),
            ExprKind::Un(UnExprOp::Neg, inner) => {
                self.const_float(self.ast.expr(inner)).map(|v| -v)
            }
            _ => None,
        }
    }

    fn lower_init(
        &self,
        vt: VarTy,
        scalar: Option<ExprId>,
        array: Option<Span>,
        offset: u32,
    ) -> Result<GlobalInit, FrontendError> {
        match (vt.is_array(), scalar, array) {
            (_, None, None) => Ok(GlobalInit::Zero),
            (false, Some(e), None) => {
                let e = self.ast.expr(e);
                match vt.scalar {
                    Ty::I64 => self
                        .const_int(e)
                        .map(|v| GlobalInit::Scalar(cmo_ir::Const::I(v)))
                        .ok_or_else(|| {
                            self.error(e.offset, "global initializer must be an integer constant")
                        }),
                    Ty::F64 => self
                        .const_float(e)
                        .map(|v| GlobalInit::Scalar(cmo_ir::Const::F(v)))
                        .ok_or_else(|| {
                            self.error(e.offset, "global initializer must be a float constant")
                        }),
                }
            }
            (true, None, Some(elems)) => {
                let elems = self.ast.expr_run(elems);
                if elems.len() > vt.slots() as usize {
                    return Err(self.error(
                        offset,
                        format!(
                            "initializer has {} elements for an array of {}",
                            elems.len(),
                            vt.slots()
                        ),
                    ));
                }
                match vt.scalar {
                    Ty::I64 => {
                        let mut vals = Vec::with_capacity(elems.len());
                        for e in elems {
                            vals.push(self.const_int(e).ok_or_else(|| {
                                self.error(e.offset, "array initializer must be integer constants")
                            })?);
                        }
                        Ok(GlobalInit::IntArray(vals))
                    }
                    Ty::F64 => {
                        let mut vals = Vec::with_capacity(elems.len());
                        for e in elems {
                            vals.push(self.const_float(e).ok_or_else(|| {
                                self.error(e.offset, "array initializer must be float constants")
                            })?);
                        }
                        Ok(GlobalInit::FloatArray(vals))
                    }
                }
            }
            (false, None, Some(_)) => {
                Err(self.error(offset, "scalar global cannot take an array initializer"))
            }
            (true, Some(_), None) => {
                Err(self.error(offset, "array global needs a bracketed initializer"))
            }
            _ => unreachable!("parser produces at most one initializer"),
        }
    }
}

struct FnLowerer<'a, 'm, 's> {
    cx: &'a mut Lowerer<'m, 's>,
    f: RoutineBuilder<'a>,
    ret: Option<Ty>,
}

impl FnLowerer<'_, '_, '_> {
    fn name(&self, id: NameId) -> &str {
        self.cx.ast.name(id)
    }

    /// Declares a local; `true` if the function already has one by
    /// that name.
    fn declare_var(&mut self, name: NameId, local: Local, ty: VarTy) -> bool {
        let slot = &mut self.cx.vars[name.index()];
        let duplicate = slot.epoch == self.cx.epoch;
        *slot = VarSlot {
            epoch: self.cx.epoch,
            local,
            ty,
        };
        duplicate
    }

    /// Resolves a variable name: locals shadow globals.
    fn resolve(&self, name: NameId) -> Option<(Place, VarTy)> {
        let slot = self.cx.vars[name.index()];
        if slot.epoch == self.cx.epoch {
            return Some((Place::Local(slot.local), slot.ty));
        }
        self.cx.globals[name.index()].map(|ty| (Place::Global(name), ty))
    }

    fn unknown_variable(&self, name: NameId, offset: u32) -> FrontendError {
        self.cx
            .error(offset, format!("unknown variable `{}`", self.name(name)))
    }

    /// The object-file symbol of `name`, interning it if no body has
    /// referred to it yet.
    fn sym(&mut self, name: NameId) -> Sym {
        if let Some(sym) = self.cx.syms[name.index()] {
            return sym;
        }
        let sym = self.f.intern(self.cx.ast.name(name));
        self.cx.syms[name.index()] = Some(sym);
        sym
    }

    fn lower_body(&mut self, body: Span) -> Result<(), FrontendError> {
        self.lower_stmts(body)?;
        if !self.f.is_terminated() {
            // Fall off the end: return the type's zero (keeps the
            // machine total; MLC does not require explicit returns).
            match self.ret {
                None => self.f.ret(None),
                Some(Ty::I64) => {
                    let z = self.f.const_i64(0);
                    self.f.ret(Some(z));
                }
                Some(Ty::F64) => {
                    let z = self.f.const_f64(0.0);
                    self.f.ret(Some(z));
                }
            }
        }
        Ok(())
    }

    fn lower_stmts(&mut self, stmts: Span) -> Result<(), FrontendError> {
        let ast = self.cx.ast;
        for s in ast.stmt_run(stmts) {
            if self.f.is_terminated() {
                // Unreachable code after return: skip it (the paper's
                // optimizer would delete it anyway).
                break;
            }
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    /// Lowers a condition and branches on it.
    fn lower_branch(
        &mut self,
        cond: ExprId,
        then_bb: Block,
        else_bb: Block,
    ) -> Result<(), FrontendError> {
        let cond = self.cx.ast.expr(cond);
        let (cv, ct) = self.lower_expr(cond)?;
        self.expect_ty(Ty::I64, ct, cond.offset)?;
        self.f.branch(cv, then_bb, else_bb);
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), FrontendError> {
        let ast = self.cx.ast;
        match s.kind {
            StmtKind::Var { name, ty, init } => {
                let vt = var_ty(ty);
                let local = self.f.local(vt);
                if self.declare_var(name, local, vt) {
                    return Err(self.cx.error(
                        s.offset,
                        format!("duplicate variable `{}`", self.name(name)),
                    ));
                }
                if let Some(e) = init {
                    if vt.is_array() {
                        return Err(self
                            .cx
                            .error(s.offset, "array variables cannot take initializers"));
                    }
                    let e = ast.expr(e);
                    let (v, t) = self.lower_expr(e)?;
                    self.expect_ty(vt.scalar, t, e.offset)?;
                    self.f.store_local(local, v);
                }
                Ok(())
            }
            StmtKind::Assign { name, value } => {
                let value = ast.expr(value);
                let (v, t) = self.lower_expr(value)?;
                let (place, vt) = self
                    .resolve(name)
                    .ok_or_else(|| self.unknown_variable(name, s.offset))?;
                if vt.is_array() {
                    return Err(self.cx.error(
                        s.offset,
                        format!("cannot assign whole array `{}`", self.name(name)),
                    ));
                }
                self.expect_ty(vt.scalar, t, value.offset)?;
                match place {
                    Place::Local(local) => self.f.store_local(local, v),
                    Place::Global(name) => {
                        let sym = self.sym(name);
                        self.f.store_global_sym(sym, v);
                    }
                }
                Ok(())
            }
            StmtKind::AssignElem { name, index, value } => {
                let (index, value) = (ast.expr(index), ast.expr(value));
                let (iv, it) = self.lower_expr(index)?;
                self.expect_ty(Ty::I64, it, index.offset)?;
                let (vv, vt_val) = self.lower_expr(value)?;
                let (place, vt) = self
                    .resolve(name)
                    .ok_or_else(|| self.unknown_variable(name, s.offset))?;
                if !vt.is_array() {
                    return Err(self
                        .cx
                        .error(s.offset, format!("`{}` is not an array", self.name(name))));
                }
                self.expect_ty(vt.scalar, vt_val, value.offset)?;
                match place {
                    Place::Local(local) => self.f.store_elem_local(local, iv, vv),
                    Place::Global(name) => {
                        let sym = self.sym(name);
                        self.f.store_elem_global_sym(sym, iv, vv);
                    }
                }
                Ok(())
            }
            StmtKind::If {
                mut cond,
                mut then_body,
                mut else_body,
            } => {
                // An else branch that is a single `if` (the `else if`
                // sugar) continues this loop instead of recursing, so a
                // chain lowers in constant stack however long it is —
                // to the blocks the recursion would have made: each
                // arm's join is entered, innermost first, once the last
                // else branch is done.
                let mark = self.cx.joins.len();
                loop {
                    let then_b = self.f.new_block();
                    let else_b = self.f.new_block();
                    self.cx.joins.push(self.f.new_block());
                    self.lower_branch(cond, then_b, else_b)?;
                    self.f.switch_to(then_b);
                    self.lower_stmts(then_body)?;
                    if !self.f.is_terminated() {
                        self.f.jump(self.cx.joins[self.cx.joins.len() - 1]);
                    }
                    self.f.switch_to(else_b);
                    match ast.stmt_run(else_body) {
                        [Stmt {
                            kind:
                                StmtKind::If {
                                    cond: c,
                                    then_body: t,
                                    else_body: e,
                                },
                            ..
                        }] => (cond, then_body, else_body) = (*c, *t, *e),
                        _ => break,
                    }
                }
                self.lower_stmts(else_body)?;
                while self.cx.joins.len() > mark {
                    let join = self.cx.joins.pop().expect("an arm is open");
                    if !self.f.is_terminated() {
                        self.f.jump(join);
                    }
                    self.f.switch_to(join);
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let header = self.f.new_block();
                let body_b = self.f.new_block();
                let exit = self.f.new_block();
                self.f.jump(header);
                self.f.switch_to(header);
                self.lower_branch(cond, body_b, exit)?;
                self.f.switch_to(body_b);
                self.cx.loops.push((header, exit));
                self.lower_stmts(body)?;
                self.cx.loops.pop();
                if !self.f.is_terminated() {
                    self.f.jump(header);
                }
                self.f.switch_to(exit);
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.lower_stmt(ast.stmt(init))?;
                let header = self.f.new_block();
                let body_b = self.f.new_block();
                let step_b = self.f.new_block();
                let exit = self.f.new_block();
                self.f.jump(header);
                self.f.switch_to(header);
                self.lower_branch(cond, body_b, exit)?;
                self.f.switch_to(body_b);
                // `continue` re-enters at the step, not the header.
                self.cx.loops.push((step_b, exit));
                self.lower_stmts(body)?;
                self.cx.loops.pop();
                if !self.f.is_terminated() {
                    self.f.jump(step_b);
                }
                self.f.switch_to(step_b);
                self.lower_stmt(ast.stmt(step))?;
                self.f.jump(header);
                self.f.switch_to(exit);
                Ok(())
            }
            StmtKind::Break => match self.cx.loops.last() {
                Some(&(_, exit)) => {
                    self.f.jump(exit);
                    Ok(())
                }
                None => Err(self.cx.error(s.offset, "`break` outside of a loop")),
            },
            StmtKind::Continue => match self.cx.loops.last() {
                Some(&(next, _)) => {
                    self.f.jump(next);
                    Ok(())
                }
                None => Err(self.cx.error(s.offset, "`continue` outside of a loop")),
            },
            StmtKind::Return(value) => match (self.ret, value) {
                (None, None) => {
                    self.f.ret(None);
                    Ok(())
                }
                (Some(rt), Some(e)) => {
                    let e = ast.expr(e);
                    let (v, t) = self.lower_expr(e)?;
                    self.expect_ty(rt, t, e.offset)?;
                    self.f.ret(Some(v));
                    Ok(())
                }
                (None, Some(e)) => Err(self
                    .cx
                    .error(ast.expr(e).offset, "procedure cannot return a value")),
                (Some(_), None) => Err(self.cx.error(s.offset, "function must return a value")),
            },
            StmtKind::Output(e) => {
                // output() accepts both types; floats are emitted as
                // raw bits into the checksum.
                let (v, _) = self.lower_expr(ast.expr(e))?;
                self.f.output(v);
                Ok(())
            }
            StmtKind::Expr(e) => {
                let e = ast.expr(e);
                if let ExprKind::Call(name, args) = e.kind {
                    // Call for effect: discard any result.
                    let (arg_regs, _) = self.check_call(name, args, e.offset)?;
                    let sym = self.sym(name);
                    self.f.call_void_sym(sym, arg_regs);
                } else {
                    self.lower_expr(e)?;
                }
                Ok(())
            }
        }
    }

    fn expect_ty(&self, want: Ty, got: Ty, offset: u32) -> Result<(), FrontendError> {
        if want == got {
            Ok(())
        } else {
            Err(self.cx.error(
                offset,
                format!(
                    "type mismatch: expected {want}, found {got} (use int()/float() to convert)"
                ),
            ))
        }
    }

    fn check_call(
        &mut self,
        name: NameId,
        args: Span,
        offset: u32,
    ) -> Result<(CallRegs, Option<Ty>), FrontendError> {
        let sig = self.cx.functions[name.index()].ok_or_else(|| {
            self.cx
                .error(offset, format!("unknown function `{}`", self.name(name)))
        })?;
        if args.len() > MAX_CALL_ARGS {
            return Err(self.cx.error(
                offset,
                format!(
                    "call to `{}` passes {} arguments, at most {MAX_CALL_ARGS} are supported",
                    self.name(name),
                    args.len()
                ),
            ));
        }
        if sig.arity as usize != args.len() {
            return Err(self.cx.error(
                offset,
                format!(
                    "`{}` takes {} arguments, {} given",
                    self.name(name),
                    sig.arity,
                    args.len()
                ),
            ));
        }
        let ast = self.cx.ast;
        let mut regs = CallRegs {
            regs: [VReg(0); MAX_CALL_ARGS],
            len: args.len(),
        };
        for (i, a) in ast.expr_run(args).iter().enumerate() {
            let (v, t) = self.lower_expr(a)?;
            self.expect_ty(self.cx.sig_tys[sig.first as usize + i], t, a.offset)?;
            regs.regs[i] = v;
        }
        Ok((regs, sig.ret))
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<(VReg, Ty), FrontendError> {
        let ast = self.cx.ast;
        match e.kind {
            ExprKind::IntLit(v) => Ok((self.f.const_i64(v), Ty::I64)),
            ExprKind::FloatLit(v) => Ok((self.f.const_f64(v), Ty::F64)),
            ExprKind::Name(name) => {
                let (place, vt) = self
                    .resolve(name)
                    .ok_or_else(|| self.unknown_variable(name, e.offset))?;
                if vt.is_array() {
                    return Err(self.cx.error(
                        e.offset,
                        format!("array `{}` must be indexed", self.name(name)),
                    ));
                }
                let v = match place {
                    Place::Local(local) => self.f.load_local(local),
                    Place::Global(name) => {
                        let sym = self.sym(name);
                        self.f.load_global_sym(sym)
                    }
                };
                Ok((v, vt.scalar))
            }
            ExprKind::Index(name, index) => {
                let index = ast.expr(index);
                let (iv, it) = self.lower_expr(index)?;
                self.expect_ty(Ty::I64, it, index.offset)?;
                let (place, vt) = self
                    .resolve(name)
                    .ok_or_else(|| self.unknown_variable(name, e.offset))?;
                if !vt.is_array() {
                    return Err(self
                        .cx
                        .error(e.offset, format!("`{}` is not an array", self.name(name))));
                }
                let v = match place {
                    Place::Local(local) => self.f.load_elem_local(local, iv),
                    Place::Global(name) => {
                        let sym = self.sym(name);
                        self.f.load_elem_global_sym(sym, iv)
                    }
                };
                Ok((v, vt.scalar))
            }
            ExprKind::Un(op, inner) => {
                let (v, t) = self.lower_expr(ast.expr(inner))?;
                match (op, t) {
                    (UnExprOp::Neg, Ty::I64) => Ok((self.f.un(UnOp::Neg, v), Ty::I64)),
                    (UnExprOp::Neg, Ty::F64) => Ok((self.f.un(UnOp::FNeg, v), Ty::F64)),
                    (UnExprOp::Not, Ty::I64) => Ok((self.f.un(UnOp::Not, v), Ty::I64)),
                    (UnExprOp::Not, Ty::F64) => {
                        Err(self.cx.error(e.offset, "`!` requires an integer operand"))
                    }
                }
            }
            ExprKind::Bin(..) => self.lower_bin_chain(e),
            ExprKind::Call(name, args) => {
                let (regs, ret) = self.check_call(name, args, e.offset)?;
                let ret = ret.ok_or_else(|| {
                    self.cx
                        .error(e.offset, format!("`{}` returns no value", self.name(name)))
                })?;
                let sym = self.sym(name);
                Ok((self.f.call_sym(sym, regs), ret))
            }
            ExprKind::Input => Ok((self.f.input(), Ty::I64)),
            ExprKind::ToFloat(inner) => {
                let (v, t) = self.lower_expr(ast.expr(inner))?;
                match t {
                    Ty::I64 => Ok((self.f.un(UnOp::I2F, v), Ty::F64)),
                    Ty::F64 => Ok((v, Ty::F64)),
                }
            }
            ExprKind::ToInt(inner) => {
                let (v, t) = self.lower_expr(ast.expr(inner))?;
                match t {
                    Ty::F64 => Ok((self.f.un(UnOp::F2I, v), Ty::I64)),
                    Ty::I64 => Ok((v, Ty::I64)),
                }
            }
        }
    }

    /// Lowers a binary operation: left operand, right operand, then
    /// the operator. `a + b + c + ...` parses into a tree as deep on
    /// the left as the chain is long (the parser loops over it, so the
    /// nesting limit does not bound it); walking that spine with an
    /// explicit stack keeps lowering's recursion within the nesting
    /// limit too.
    fn lower_bin_chain(&mut self, e: &Expr) -> Result<(VReg, Ty), FrontendError> {
        let ast = self.cx.ast;
        let base = self.cx.spine.len();
        let mut leftmost = e;
        while let ExprKind::Bin(op, l, r) = leftmost.kind {
            self.cx.spine.push((op, r, leftmost.offset));
            leftmost = ast.expr(l);
        }
        let (mut lv, mut lt) = self.lower_expr(leftmost)?;
        while self.cx.spine.len() > base {
            let (op, r, offset) = self.cx.spine.pop().expect("longer than base");
            let (rv, rt) = self.lower_expr(ast.expr(r))?;
            (lv, lt) = self.emit_bin(op, (lv, lt), (rv, rt), offset)?;
        }
        Ok((lv, lt))
    }

    fn emit_bin(
        &mut self,
        op: BinExprOp,
        (lv, lt): (VReg, Ty),
        (rv, rt): (VReg, Ty),
        offset: u32,
    ) -> Result<(VReg, Ty), FrontendError> {
        if lt != rt {
            return Err(self.cx.error(
                offset,
                format!("operands have different types ({lt} vs {rt})"),
            ));
        }
        let int_only = |this: &mut Self, irop: BinOp| -> Result<(VReg, Ty), FrontendError> {
            if lt != Ty::I64 {
                return Err(this.cx.error(offset, "operator requires integer operands"));
            }
            Ok((this.f.bin(irop, lv, rv), Ty::I64))
        };
        match (op, lt) {
            (BinExprOp::Add, Ty::I64) => Ok((self.f.bin(BinOp::Add, lv, rv), Ty::I64)),
            (BinExprOp::Sub, Ty::I64) => Ok((self.f.bin(BinOp::Sub, lv, rv), Ty::I64)),
            (BinExprOp::Mul, Ty::I64) => Ok((self.f.bin(BinOp::Mul, lv, rv), Ty::I64)),
            (BinExprOp::Div, Ty::I64) => Ok((self.f.bin(BinOp::Div, lv, rv), Ty::I64)),
            (BinExprOp::Add, Ty::F64) => Ok((self.f.bin(BinOp::FAdd, lv, rv), Ty::F64)),
            (BinExprOp::Sub, Ty::F64) => Ok((self.f.bin(BinOp::FSub, lv, rv), Ty::F64)),
            (BinExprOp::Mul, Ty::F64) => Ok((self.f.bin(BinOp::FMul, lv, rv), Ty::F64)),
            (BinExprOp::Div, Ty::F64) => Ok((self.f.bin(BinOp::FDiv, lv, rv), Ty::F64)),
            (BinExprOp::Rem, _) => int_only(self, BinOp::Rem),
            (BinExprOp::BitAnd, _) => int_only(self, BinOp::And),
            (BinExprOp::BitOr, _) => int_only(self, BinOp::Or),
            (BinExprOp::BitXor, _) => int_only(self, BinOp::Xor),
            (BinExprOp::Shl, _) => int_only(self, BinOp::Shl),
            (BinExprOp::Shr, _) => int_only(self, BinOp::Shr),
            (BinExprOp::Eq, Ty::I64) => Ok((self.f.bin(BinOp::Eq, lv, rv), Ty::I64)),
            (BinExprOp::Ne, Ty::I64) => Ok((self.f.bin(BinOp::Ne, lv, rv), Ty::I64)),
            (BinExprOp::Lt, Ty::I64) => Ok((self.f.bin(BinOp::Lt, lv, rv), Ty::I64)),
            (BinExprOp::Le, Ty::I64) => Ok((self.f.bin(BinOp::Le, lv, rv), Ty::I64)),
            (BinExprOp::Gt, Ty::I64) => Ok((self.f.bin(BinOp::Lt, rv, lv), Ty::I64)),
            (BinExprOp::Ge, Ty::I64) => Ok((self.f.bin(BinOp::Le, rv, lv), Ty::I64)),
            (BinExprOp::Eq, Ty::F64) => Ok((self.f.bin(BinOp::FEq, lv, rv), Ty::I64)),
            (BinExprOp::Ne, Ty::F64) => {
                let eq = self.f.bin(BinOp::FEq, lv, rv);
                Ok((self.f.un(UnOp::Not, eq), Ty::I64))
            }
            (BinExprOp::Lt, Ty::F64) => Ok((self.f.bin(BinOp::FLt, lv, rv), Ty::I64)),
            (BinExprOp::Gt, Ty::F64) => Ok((self.f.bin(BinOp::FLt, rv, lv), Ty::I64)),
            (BinExprOp::Le, Ty::F64) => {
                let gt = self.f.bin(BinOp::FLt, rv, lv);
                Ok((self.f.un(UnOp::Not, gt), Ty::I64))
            }
            (BinExprOp::Ge, Ty::F64) => {
                let lt = self.f.bin(BinOp::FLt, lv, rv);
                Ok((self.f.un(UnOp::Not, lt), Ty::I64))
            }
            (BinExprOp::And | BinExprOp::Or, Ty::I64) => {
                let zero = self.f.const_i64(0);
                let ln = self.f.bin(BinOp::Ne, lv, zero);
                let rn = self.f.bin(BinOp::Ne, rv, zero);
                let irop = if op == BinExprOp::And {
                    BinOp::And
                } else {
                    BinOp::Or
                };
                Ok((self.f.bin(irop, ln, rn), Ty::I64))
            }
            (BinExprOp::And | BinExprOp::Or, Ty::F64) => Err(self
                .cx
                .error(offset, "logical operators require integer operands")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_module;

    fn compile(src: &str) -> Result<IlObject, FrontendError> {
        compile_module("test", src)
    }

    #[test]
    fn compiles_and_links_standalone_module() {
        let obj = compile(
            r#"
            global total: int = 0;
            static weights: int[8] = [1, 2, 4, 8];

            static fn weigh(i: int) -> int {
                return weights[i % 8];
            }

            fn main() -> int {
                var i: int = 0;
                while (i < 20) {
                    total = total + weigh(i);
                    i = i + 1;
                }
                output(total);
                return total;
            }
            "#,
        )
        .unwrap();
        assert_eq!(obj.routines.len(), 2);
        let unit = cmo_ir::link_objects(vec![obj]).unwrap();
        cmo_ir::validate::validate_unit(&unit.program, &unit.bodies).unwrap();
    }

    #[test]
    fn unknown_variable_is_reported() {
        let e = compile("fn f() -> int { return nope; }").unwrap_err();
        assert!(e.message.contains("unknown variable"));
    }

    #[test]
    fn unknown_function_is_reported() {
        let e = compile("fn f() { ghost(); }").unwrap_err();
        assert!(e.message.contains("unknown function"));
    }

    #[test]
    fn type_mismatch_is_reported() {
        let e = compile("fn f() -> int { return 1 + 2.5; }").unwrap_err();
        assert!(e.message.contains("different types"));
        let e2 = compile("fn f() -> float { return 1; }").unwrap_err();
        assert!(e2.message.contains("type mismatch"));
    }

    #[test]
    fn conversions_fix_mismatches() {
        assert!(compile("fn f() -> float { return float(1) + 2.5; }").is_ok());
        assert!(compile("fn f() -> int { return int(2.5) + 1; }").is_ok());
    }

    #[test]
    fn arity_checked_against_extern() {
        let e = compile("extern fn helper(x: int) -> int;\nfn f() -> int { return helper(1, 2); }")
            .unwrap_err();
        assert!(e.message.contains("takes 1 arguments"));
    }

    #[test]
    fn more_than_eight_parameters_or_arguments_are_diagnostics() {
        let params = |n: usize| {
            (0..n)
                .map(|i| format!("p{i}: int"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let args = |n: usize| vec!["1"; n].join(", ");
        assert!(compile(&format!("fn f({}) -> int {{ return p0; }}", params(8))).is_ok());
        for decl in ["fn", "extern fn"] {
            let body = if decl == "fn" { " { return p0; }" } else { ";" };
            let src = format!("\n{decl} wide({}) -> int{body}", params(9));
            let e = compile(&src).unwrap_err();
            assert_eq!(e.pos.line, 2, "{e}");
            assert!(
                e.message
                    .contains("`wide` declares 9 parameters, at most 8 are supported"),
                "{e}"
            );
        }
        let src = format!(
            "fn g(x: int) -> int {{ return x; }}\nfn f() -> int {{ return g({}); }}",
            args(9)
        );
        let e = compile(&src).unwrap_err();
        assert_eq!(e.pos.line, 2, "{e}");
        assert!(
            e.message
                .contains("call to `g` passes 9 arguments, at most 8 are supported"),
            "{e}"
        );
    }

    #[test]
    fn whole_array_assignment_rejected() {
        let e = compile("fn f() { var a: int[4]; a = 3; }").unwrap_err();
        assert!(e.message.contains("array"));
    }

    #[test]
    fn scalar_indexing_rejected() {
        let e = compile("fn f() -> int { var x: int; return x[0]; }").unwrap_err();
        assert!(e.message.contains("not an array"));
    }

    #[test]
    fn duplicate_definitions_rejected() {
        assert!(compile("global x: int;\nglobal x: int;").is_err());
        assert!(compile("fn f() {}\nfn f() {}").is_err());
        assert!(compile("fn f() { var a: int; var a: int; }").is_err());
    }

    #[test]
    fn missing_return_value_rejected() {
        let e = compile("fn f() -> int { return; }").unwrap_err();
        assert!(e.message.contains("must return a value"));
        let e2 = compile("fn f() { return 3; }").unwrap_err();
        assert!(e2.message.contains("cannot return"));
    }

    #[test]
    fn fall_off_end_returns_zero() {
        let obj = compile("fn f() -> int { var x: int = 3; }").unwrap();
        let unit = cmo_ir::link_objects(vec![obj]).unwrap();
        cmo_ir::validate::validate_unit(&unit.program, &unit.bodies).unwrap();
    }

    #[test]
    fn comparisons_lower_with_swaps() {
        // `>` and `>=` have no direct IR ops; ensure they compile and
        // validate for both int and float.
        let obj = compile(
            r#"
            fn f(a: int, b: float) -> int {
                var r: int = 0;
                if (a > 3) { r = r + 1; }
                if (a >= 3) { r = r + 1; }
                if (b > 1.0) { r = r + 1; }
                if (b >= 1.0) { r = r + 1; }
                if (b <= 1.0) { r = r + 1; }
                if (b != 1.0) { r = r + 1; }
                if (a != 0 && b == 0.0 || !(a == 2)) { r = r + 1; }
                return r;
            }
            "#,
        )
        .unwrap();
        let unit = cmo_ir::link_objects(vec![obj]).unwrap();
        cmo_ir::validate::validate_unit(&unit.program, &unit.bodies).unwrap();
    }

    #[test]
    fn unreachable_code_after_return_is_dropped() {
        let obj = compile("fn f() -> int { return 1; output(2); }").unwrap();
        assert_eq!(obj.routines[0].body.instr_count(), 1);
    }

    #[test]
    fn global_initializer_must_be_constant() {
        let e = compile("global x: int = input();").unwrap_err();
        assert!(e.message.contains("constant"));
    }
}
