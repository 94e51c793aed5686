//! Semantic checking and lowering of the MLC AST to IL.
//!
//! A single pass resolves names, checks types, and emits IL through the
//! [`cmo_ir`] builders. Cross-module references (declared with
//! `extern`) are emitted as name-based references and resolved later by
//! IL linking, matching the paper's object-file-centric flow (§6.1).

use super::ast::*;
use super::ferr;
use cmo_frontend::{FrontendError, Pos};
use cmo_ir::{
    BinOp, GlobalInit, IlObject, IlObjectBuilder, Linkage, Local, RoutineBuilder, Signature, Ty,
    UnOp, VReg, VarTy,
};
use std::collections::HashMap;

fn scalar_ty(t: TypeName, pos: Pos) -> Result<Ty, FrontendError> {
    match t {
        TypeName::Int => Ok(Ty::I64),
        TypeName::Float => Ok(Ty::F64),
        _ => Err(ferr(pos, "array type not allowed here")),
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

#[derive(Clone)]
struct FnSig {
    params: Vec<Ty>,
    ret: Option<Ty>,
}

#[derive(Default)]
struct ModuleEnv {
    /// Module-visible globals (defined here or extern): name → type.
    globals: HashMap<String, VarTy>,
    /// Module-visible functions (defined here or extern).
    functions: HashMap<String, FnSig>,
}

/// Lowers a parsed module to an IL object.
///
/// # Errors
///
/// Returns the first semantic error: duplicate or unknown names, type
/// mismatches, bad initializers, or misused arrays.
pub fn lower_module(
    name: &str,
    module: &Module,
    source_lines: u32,
) -> Result<IlObject, FrontendError> {
    let mut env = ModuleEnv::default();

    // Collect module-level declarations first so definitions can call
    // forward and across modules.
    for item in &module.items {
        match item {
            Item::Global { name, ty, pos, .. } | Item::ExternGlobal { name, ty, pos } => {
                if env.globals.insert(name.clone(), var_ty(*ty)).is_some() {
                    return Err(ferr(*pos, format!("duplicate global `{name}`")));
                }
            }
            Item::Function {
                name,
                params,
                ret,
                pos,
                ..
            } => {
                let sig = FnSig {
                    params: params
                        .iter()
                        .map(|p| scalar_ty(p.ty, p.pos))
                        .collect::<Result<_, _>>()?,
                    ret: ret.map(|r| scalar_ty(r, *pos)).transpose()?,
                };
                if env.functions.insert(name.clone(), sig).is_some() {
                    return Err(ferr(*pos, format!("duplicate function `{name}`")));
                }
            }
            Item::ExternFn {
                name,
                params,
                ret,
                pos,
            } => {
                let sig = FnSig {
                    params: params
                        .iter()
                        .map(|t| scalar_ty(*t, *pos))
                        .collect::<Result<_, _>>()?,
                    ret: ret.map(|r| scalar_ty(r, *pos)).transpose()?,
                };
                if env.functions.insert(name.clone(), sig).is_some() {
                    return Err(ferr(*pos, format!("duplicate function `{name}`")));
                }
            }
        }
    }

    let mut builder = IlObjectBuilder::new(name);
    builder.source_lines(source_lines);

    for item in &module.items {
        match item {
            Item::Global {
                name,
                ty,
                internal,
                scalar_init,
                array_init,
                pos,
            } => {
                let vt = var_ty(*ty);
                let init = lower_init(vt, scalar_init.as_ref(), array_init.as_deref(), *pos)?;
                let linkage = if *internal {
                    Linkage::Internal
                } else {
                    Linkage::Export
                };
                builder.global(name, vt, linkage, init);
            }
            Item::Function {
                name,
                params,
                ret,
                body,
                internal,
                pos,
                lines,
            } => {
                let sig = Signature::new(
                    params
                        .iter()
                        .map(|p| scalar_ty(p.ty, p.pos))
                        .collect::<Result<_, _>>()?,
                    ret.map(|r| scalar_ty(r, *pos)).transpose()?,
                );
                let mut f = if *internal {
                    builder.internal_routine(name, sig.clone())
                } else {
                    builder.routine(name, sig.clone())
                };
                f.source_lines(*lines);
                let mut fl = FnLowerer {
                    env: &env,
                    f,
                    vars: HashMap::new(),
                    ret: sig.ret,
                    loops: Vec::new(),
                };
                for (i, p) in params.iter().enumerate() {
                    let local = fl.f.param(i);
                    if fl
                        .vars
                        .insert(p.name.clone(), (local, var_ty(p.ty)))
                        .is_some()
                    {
                        return Err(ferr(p.pos, format!("duplicate parameter `{}`", p.name)));
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

fn const_int(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(*v),
        ExprKind::Un(UnExprOp::Neg, inner) => const_int(inner).map(i64::wrapping_neg),
        _ => None,
    }
}

fn const_float(e: &Expr) -> Option<f64> {
    match &e.kind {
        ExprKind::FloatLit(v) => Some(*v),
        ExprKind::IntLit(v) => Some(*v as f64),
        ExprKind::Un(UnExprOp::Neg, inner) => const_float(inner).map(|v| -v),
        _ => None,
    }
}

fn lower_init(
    vt: VarTy,
    scalar: Option<&Expr>,
    array: Option<&[Expr]>,
    pos: Pos,
) -> Result<GlobalInit, FrontendError> {
    match (vt.is_array(), scalar, array) {
        (_, None, None) => Ok(GlobalInit::Zero),
        (false, Some(e), None) => match vt.scalar {
            Ty::I64 => const_int(e)
                .map(|v| GlobalInit::Scalar(cmo_ir::Const::I(v)))
                .ok_or_else(|| ferr(e.pos, "global initializer must be an integer constant")),
            Ty::F64 => const_float(e)
                .map(|v| GlobalInit::Scalar(cmo_ir::Const::F(v)))
                .ok_or_else(|| ferr(e.pos, "global initializer must be a float constant")),
        },
        (true, None, Some(elems)) => {
            if elems.len() > vt.slots() as usize {
                return Err(ferr(
                    pos,
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
                        vals.push(const_int(e).ok_or_else(|| {
                            ferr(e.pos, "array initializer must be integer constants")
                        })?);
                    }
                    Ok(GlobalInit::IntArray(vals))
                }
                Ty::F64 => {
                    let mut vals = Vec::with_capacity(elems.len());
                    for e in elems {
                        vals.push(const_float(e).ok_or_else(|| {
                            ferr(e.pos, "array initializer must be float constants")
                        })?);
                    }
                    Ok(GlobalInit::FloatArray(vals))
                }
            }
        }
        (false, None, Some(_)) => Err(ferr(pos, "scalar global cannot take an array initializer")),
        (true, Some(_), None) => Err(ferr(pos, "array global needs a bracketed initializer")),
        _ => unreachable!("parser produces at most one initializer"),
    }
}

struct FnLowerer<'a, 'b> {
    env: &'a ModuleEnv,
    f: RoutineBuilder<'b>,
    vars: HashMap<String, (Local, VarTy)>,
    ret: Option<Ty>,
    /// Innermost-last stack of `(continue target, break target)`.
    loops: Vec<(cmo_ir::Block, cmo_ir::Block)>,
}

impl FnLowerer<'_, '_> {
    fn lower_body(&mut self, body: &[Stmt]) -> Result<(), FrontendError> {
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

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), FrontendError> {
        for s in stmts {
            if self.f.is_terminated() {
                // Unreachable code after return: skip it (the paper's
                // optimizer would delete it anyway).
                break;
            }
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), FrontendError> {
        match &s.kind {
            StmtKind::Var { name, ty, init } => {
                if self.vars.contains_key(name) {
                    return Err(ferr(s.pos, format!("duplicate variable `{name}`")));
                }
                let vt = var_ty(*ty);
                let local = self.f.local(vt);
                self.vars.insert(name.clone(), (local, vt));
                if let Some(e) = init {
                    if vt.is_array() {
                        return Err(ferr(s.pos, "array variables cannot take initializers"));
                    }
                    let (v, t) = self.lower_expr(e)?;
                    self.expect_ty(vt.scalar, t, e.pos)?;
                    self.f.store_local(local, v);
                }
                Ok(())
            }
            StmtKind::Assign { name, value } => {
                let (v, t) = self.lower_expr(value)?;
                if let Some(&(local, vt)) = self.vars.get(name) {
                    if vt.is_array() {
                        return Err(ferr(s.pos, format!("cannot assign whole array `{name}`")));
                    }
                    self.expect_ty(vt.scalar, t, value.pos)?;
                    self.f.store_local(local, v);
                    return Ok(());
                }
                if let Some(&vt) = self.env.globals.get(name) {
                    if vt.is_array() {
                        return Err(ferr(s.pos, format!("cannot assign whole array `{name}`")));
                    }
                    self.expect_ty(vt.scalar, t, value.pos)?;
                    self.f.store_global(name, v);
                    return Ok(());
                }
                Err(ferr(s.pos, format!("unknown variable `{name}`")))
            }
            StmtKind::AssignElem { name, index, value } => {
                let (iv, it) = self.lower_expr(index)?;
                self.expect_ty(Ty::I64, it, index.pos)?;
                let (vv, vt_val) = self.lower_expr(value)?;
                if let Some(&(local, vt)) = self.vars.get(name) {
                    if !vt.is_array() {
                        return Err(ferr(s.pos, format!("`{name}` is not an array")));
                    }
                    self.expect_ty(vt.scalar, vt_val, value.pos)?;
                    self.f.store_elem_local(local, iv, vv);
                    return Ok(());
                }
                if let Some(&vt) = self.env.globals.get(name) {
                    if !vt.is_array() {
                        return Err(ferr(s.pos, format!("`{name}` is not an array")));
                    }
                    self.expect_ty(vt.scalar, vt_val, value.pos)?;
                    self.f.store_elem_global(name, iv, vv);
                    return Ok(());
                }
                Err(ferr(s.pos, format!("unknown variable `{name}`")))
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let (cv, ct) = self.lower_expr(cond)?;
                self.expect_ty(Ty::I64, ct, cond.pos)?;
                let then_b = self.f.new_block();
                let else_b = self.f.new_block();
                let join = self.f.new_block();
                self.f.branch(cv, then_b, else_b);
                self.f.switch_to(then_b);
                self.lower_stmts(then_body)?;
                if !self.f.is_terminated() {
                    self.f.jump(join);
                }
                self.f.switch_to(else_b);
                self.lower_stmts(else_body)?;
                if !self.f.is_terminated() {
                    self.f.jump(join);
                }
                self.f.switch_to(join);
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let header = self.f.new_block();
                let body_b = self.f.new_block();
                let exit = self.f.new_block();
                self.f.jump(header);
                self.f.switch_to(header);
                let (cv, ct) = self.lower_expr(cond)?;
                self.expect_ty(Ty::I64, ct, cond.pos)?;
                self.f.branch(cv, body_b, exit);
                self.f.switch_to(body_b);
                self.loops.push((header, exit));
                self.lower_stmts(body)?;
                self.loops.pop();
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
                self.lower_stmt(init)?;
                let header = self.f.new_block();
                let body_b = self.f.new_block();
                let step_b = self.f.new_block();
                let exit = self.f.new_block();
                self.f.jump(header);
                self.f.switch_to(header);
                let (cv, ct) = self.lower_expr(cond)?;
                self.expect_ty(Ty::I64, ct, cond.pos)?;
                self.f.branch(cv, body_b, exit);
                self.f.switch_to(body_b);
                // `continue` re-enters at the step, not the header.
                self.loops.push((step_b, exit));
                self.lower_stmts(body)?;
                self.loops.pop();
                if !self.f.is_terminated() {
                    self.f.jump(step_b);
                }
                self.f.switch_to(step_b);
                self.lower_stmt(step)?;
                self.f.jump(header);
                self.f.switch_to(exit);
                Ok(())
            }
            StmtKind::Break => match self.loops.last() {
                Some(&(_, exit)) => {
                    self.f.jump(exit);
                    Ok(())
                }
                None => Err(ferr(s.pos, "`break` outside of a loop")),
            },
            StmtKind::Continue => match self.loops.last() {
                Some(&(next, _)) => {
                    self.f.jump(next);
                    Ok(())
                }
                None => Err(ferr(s.pos, "`continue` outside of a loop")),
            },
            StmtKind::Return(value) => match (self.ret, value) {
                (None, None) => {
                    self.f.ret(None);
                    Ok(())
                }
                (Some(rt), Some(e)) => {
                    let (v, t) = self.lower_expr(e)?;
                    self.expect_ty(rt, t, e.pos)?;
                    self.f.ret(Some(v));
                    Ok(())
                }
                (None, Some(e)) => Err(ferr(e.pos, "procedure cannot return a value")),
                (Some(_), None) => Err(ferr(s.pos, "function must return a value")),
            },
            StmtKind::Output(e) => {
                let (v, t) = self.lower_expr(e)?;
                // output() accepts both types; floats are emitted as
                // raw bits into the checksum.
                let _ = t;
                self.f.output(v);
                Ok(())
            }
            StmtKind::Expr(e) => {
                if let ExprKind::Call(name, args) = &e.kind {
                    // Call for effect: discard any result.
                    let (arg_regs, _) = self.check_call(name, args, e.pos)?;
                    self.f.call_void(name, arg_regs);
                    Ok(())
                } else {
                    let _ = self.lower_expr(e)?;
                    Ok(())
                }
            }
        }
    }

    fn expect_ty(&self, want: Ty, got: Ty, pos: Pos) -> Result<(), FrontendError> {
        if want == got {
            Ok(())
        } else {
            Err(ferr(
                pos,
                format!(
                    "type mismatch: expected {want}, found {got} (use int()/float() to convert)"
                ),
            ))
        }
    }

    fn check_call(
        &mut self,
        name: &str,
        args: &[Expr],
        pos: Pos,
    ) -> Result<(Vec<VReg>, Option<Ty>), FrontendError> {
        let sig = self
            .env
            .functions
            .get(name)
            .cloned()
            .ok_or_else(|| ferr(pos, format!("unknown function `{name}`")))?;
        if sig.params.len() != args.len() {
            return Err(ferr(
                pos,
                format!(
                    "`{name}` takes {} arguments, {} given",
                    sig.params.len(),
                    args.len()
                ),
            ));
        }
        let mut regs = Vec::with_capacity(args.len());
        for (a, &want) in args.iter().zip(&sig.params) {
            let (v, t) = self.lower_expr(a)?;
            self.expect_ty(want, t, a.pos)?;
            regs.push(v);
        }
        Ok((regs, sig.ret))
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<(VReg, Ty), FrontendError> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok((self.f.const_i64(*v), Ty::I64)),
            ExprKind::FloatLit(v) => Ok((self.f.const_f64(*v), Ty::F64)),
            ExprKind::Name(name) => {
                if let Some(&(local, vt)) = self.vars.get(name) {
                    if vt.is_array() {
                        return Err(ferr(e.pos, format!("array `{name}` must be indexed")));
                    }
                    return Ok((self.f.load_local(local), vt.scalar));
                }
                if let Some(&vt) = self.env.globals.get(name) {
                    if vt.is_array() {
                        return Err(ferr(e.pos, format!("array `{name}` must be indexed")));
                    }
                    return Ok((self.f.load_global(name), vt.scalar));
                }
                Err(ferr(e.pos, format!("unknown variable `{name}`")))
            }
            ExprKind::Index(name, index) => {
                let (iv, it) = self.lower_expr(index)?;
                self.expect_ty(Ty::I64, it, index.pos)?;
                if let Some(&(local, vt)) = self.vars.get(name) {
                    if !vt.is_array() {
                        return Err(ferr(e.pos, format!("`{name}` is not an array")));
                    }
                    return Ok((self.f.load_elem_local(local, iv), vt.scalar));
                }
                if let Some(&vt) = self.env.globals.get(name) {
                    if !vt.is_array() {
                        return Err(ferr(e.pos, format!("`{name}` is not an array")));
                    }
                    return Ok((self.f.load_elem_global(name, iv), vt.scalar));
                }
                Err(ferr(e.pos, format!("unknown variable `{name}`")))
            }
            ExprKind::Un(op, inner) => {
                let (v, t) = self.lower_expr(inner)?;
                match (op, t) {
                    (UnExprOp::Neg, Ty::I64) => Ok((self.f.un(UnOp::Neg, v), Ty::I64)),
                    (UnExprOp::Neg, Ty::F64) => Ok((self.f.un(UnOp::FNeg, v), Ty::F64)),
                    (UnExprOp::Not, Ty::I64) => Ok((self.f.un(UnOp::Not, v), Ty::I64)),
                    (UnExprOp::Not, Ty::F64) => Err(ferr(e.pos, "`!` requires an integer operand")),
                }
            }
            ExprKind::Bin(op, l, r) => self.lower_bin(*op, l, r, e.pos),
            ExprKind::Call(name, args) => {
                let (regs, ret) = self.check_call(name, args, e.pos)?;
                let ret = ret.ok_or_else(|| ferr(e.pos, format!("`{name}` returns no value")))?;
                Ok((self.f.call(name, regs), ret))
            }
            ExprKind::Input => Ok((self.f.input(), Ty::I64)),
            ExprKind::ToFloat(inner) => {
                let (v, t) = self.lower_expr(inner)?;
                match t {
                    Ty::I64 => Ok((self.f.un(UnOp::I2F, v), Ty::F64)),
                    Ty::F64 => Ok((v, Ty::F64)),
                }
            }
            ExprKind::ToInt(inner) => {
                let (v, t) = self.lower_expr(inner)?;
                match t {
                    Ty::F64 => Ok((self.f.un(UnOp::F2I, v), Ty::I64)),
                    Ty::I64 => Ok((v, Ty::I64)),
                }
            }
        }
    }

    fn lower_bin(
        &mut self,
        op: BinExprOp,
        l: &Expr,
        r: &Expr,
        pos: Pos,
    ) -> Result<(VReg, Ty), FrontendError> {
        let (lv, lt) = self.lower_expr(l)?;
        let (rv, rt) = self.lower_expr(r)?;
        if lt != rt {
            return Err(ferr(
                pos,
                format!("operands have different types ({lt} vs {rt})"),
            ));
        }
        let int_only = |this: &mut Self, irop: BinOp| -> Result<(VReg, Ty), FrontendError> {
            if lt != Ty::I64 {
                return Err(ferr(pos, "operator requires integer operands"));
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
            (BinExprOp::And | BinExprOp::Or, Ty::F64) => {
                Err(ferr(pos, "logical operators require integer operands"))
            }
        }
    }
}
