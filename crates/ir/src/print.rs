//! Textual IL printing for diagnostics.
//!
//! Good compiler diagnostics about what the optimizer is doing are
//! essential when deploying selectivity (§6.2); the printer renders any
//! routine body with resolved or unresolved references.

use crate::instr::{CalleeRef, GlobalRef, Instr, MemBase, Terminator};
use crate::program::Program;
use crate::routine::RoutineBody;
use std::fmt::Write as _;

fn fmt_global(g: GlobalRef, program: Option<&Program>) -> String {
    match (g, program) {
        (GlobalRef::Id(id), Some(p)) => format!("@{}", p.name(p.global(id).name)),
        (GlobalRef::Id(id), None) => format!("@{id}"),
        (GlobalRef::Name(s), _) => format!("@?{s}"),
    }
}

fn fmt_callee(c: CalleeRef, program: Option<&Program>) -> String {
    match (c, program) {
        (CalleeRef::Id(id), Some(p)) => p.name(p.routine(id).name).to_owned(),
        (CalleeRef::Id(id), None) => format!("{id}"),
        (CalleeRef::Name(s), _) => format!("?{s}"),
    }
}

fn fmt_base(b: MemBase, program: Option<&Program>) -> String {
    match b {
        MemBase::Local(l) => format!("{l}"),
        MemBase::Global(g) => fmt_global(g, program),
    }
}

/// Renders `body` as text. Pass the program for resolved symbol names;
/// without it, raw ids are printed.
#[must_use]
pub fn print_routine(name: &str, body: &RoutineBody, program: Option<&Program>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "routine {name} [{} blocks, {} vregs, {} locals]",
        body.blocks.len(),
        body.n_vregs,
        body.locals.len()
    );
    for (i, decl) in body.locals.iter().enumerate() {
        let _ = writeln!(
            out,
            "  local loc{i}: {}{}",
            decl.ty,
            if decl.is_param { " (param)" } else { "" }
        );
    }
    for (bid, block) in body.iter_blocks() {
        let _ = writeln!(out, "{bid}:");
        for instr in &block.instrs {
            let line = match instr {
                Instr::Const { dst, value } => format!("{dst} = const {value}"),
                Instr::Bin { dst, op, lhs, rhs } => format!("{dst} = {op} {lhs}, {rhs}"),
                Instr::Un { dst, op, src } => format!("{dst} = {op} {src}"),
                Instr::Mov { dst, src } => format!("{dst} = mov {src}"),
                Instr::LoadLocal { dst, local } => format!("{dst} = load {local}"),
                Instr::StoreLocal { local, src } => format!("store {local}, {src}"),
                Instr::LoadGlobal { dst, global } => {
                    format!("{dst} = load {}", fmt_global(*global, program))
                }
                Instr::StoreGlobal { global, src } => {
                    format!("store {}, {src}", fmt_global(*global, program))
                }
                Instr::LoadElem { dst, base, index } => {
                    format!("{dst} = load {}[{index}]", fmt_base(*base, program))
                }
                Instr::StoreElem { base, index, src } => {
                    format!("store {}[{index}], {src}", fmt_base(*base, program))
                }
                Instr::Call {
                    dst,
                    callee,
                    args,
                    site,
                } => {
                    let args = body
                        .call_args(*args)
                        .iter()
                        .map(|a| format!("{a}"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    match dst.get() {
                        Some(d) => {
                            format!(
                                "{d} = call {}({args}) !{site}",
                                fmt_callee(*callee, program)
                            )
                        }
                        None => format!("call {}({args}) !{site}", fmt_callee(*callee, program)),
                    }
                }
                Instr::Input { dst } => format!("{dst} = input"),
                Instr::Output { src } => format!("output {src}"),
            };
            let _ = writeln!(out, "    {line}");
        }
        let term = match &block.term {
            Terminator::Jump(b) => format!("jump {b}"),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => format!("branch {cond} ? {then_bb} : {else_bb}"),
            Terminator::Return(Some(r)) => format!("return {r}"),
            Terminator::Return(None) => "return".to_owned(),
        };
        let _ = writeln!(out, "    {term}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IlObjectBuilder;
    use crate::link::link_objects;
    use crate::types::{Signature, Ty};
    use crate::BinOp;

    #[test]
    fn printer_renders_resolved_names() {
        let mut b = IlObjectBuilder::new("m");
        let mut f = b.routine("twice", Signature::new(vec![Ty::I64], Some(Ty::I64)));
        let p = f.param(0);
        let x = f.load_local(p);
        let r = f.bin(BinOp::Add, x, x);
        let out = f.call("twice", vec![r]);
        f.ret(Some(out));
        f.finish();
        let unit = link_objects(vec![b.finish()]).unwrap();
        let text = print_routine("twice", &unit.bodies[0], Some(&unit.program));
        assert!(text.contains("%2 = call twice(%1) !cs0"));
        assert!(text.contains("%1 = add %0, %0"));
        assert!(text.contains("return %2"));
    }

    #[test]
    fn printer_handles_unresolved_refs() {
        let mut b = IlObjectBuilder::new("m");
        let mut f = b.routine("f", Signature::default());
        let v = f.load_global("gv");
        f.output(v);
        f.ret(None);
        f.finish();
        let obj = b.finish();
        let text = print_routine("f", &obj.routines[0].body, None);
        assert!(text.contains("@?sym"));
    }
}
