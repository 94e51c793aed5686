//! Structural validation of routine bodies.
//!
//! Every optimizer phase can be followed by validation in debug builds,
//! which is the first line of defense when isolating optimizer bugs
//! (§6.3): a transformation that breaks structure is caught at the
//! phase boundary instead of miscompiling silently.

use crate::ids::RoutineId;
use crate::instr::{CalleeRef, GlobalRef, Instr, MemBase, Terminator, MAX_CALL_ARGS};
use crate::program::Program;
use crate::routine::RoutineBody;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// A structural defect found by validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// The routine in which the defect was found (as passed to
    /// [`validate_body`]).
    pub routine: RoutineId,
    /// Description of the defect.
    pub what: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IR in {}: {}", self.routine, self.what)
    }
}

impl Error for ValidateError {}

fn err(routine: RoutineId, what: impl Into<String>) -> ValidateError {
    ValidateError {
        routine,
        what: what.into(),
    }
}

/// Validates one routine body against `program`.
///
/// Checks: block/register/local/global/callee indices are in range,
/// terminator targets exist, call arities match callee signatures and
/// neither a call nor the routine's own signature passes more than
/// [`MAX_CALL_ARGS`] arguments, call argument spans lie in the pool,
/// call sites are unique, scalar/array access shapes match, and the
/// entry block exists.
///
/// # Errors
///
/// Returns the first defect found.
pub fn validate_body(
    rid: RoutineId,
    body: &RoutineBody,
    program: &Program,
) -> Result<(), ValidateError> {
    if body.blocks.is_empty() {
        return Err(err(rid, "routine has no blocks"));
    }
    if let Some(meta) = program.routines().get(rid.index()) {
        let arity = meta.sig.arity();
        if arity > MAX_CALL_ARGS {
            return Err(err(
                rid,
                format!("routine takes {arity} parameters, at most {MAX_CALL_ARGS}"),
            ));
        }
    }
    let n_blocks = body.blocks.len();
    let n_vregs = body.n_vregs;
    let n_locals = body.locals.len();
    let mut seen_sites = HashSet::new();

    let check_vreg = |r: crate::VReg, what: &str| -> Result<(), ValidateError> {
        if r.0 >= n_vregs {
            Err(err(
                rid,
                format!("{what} register {r} out of range ({n_vregs} vregs)"),
            ))
        } else {
            Ok(())
        }
    };
    let check_local = |l: crate::Local, want_array: bool| -> Result<(), ValidateError> {
        let decl = body
            .locals
            .get(l.index())
            .ok_or_else(|| err(rid, format!("local {l} out of range ({n_locals} locals)")))?;
        if decl.ty.is_array() != want_array {
            return Err(err(rid, format!("local {l} accessed with wrong shape")));
        }
        Ok(())
    };
    let check_global = |g: GlobalRef, want_array: bool| -> Result<(), ValidateError> {
        match g {
            GlobalRef::Name(_) => Ok(()), // pre-link form: shapes checked at link
            GlobalRef::Id(id) => {
                if id.index() >= program.globals().len() {
                    return Err(err(rid, format!("global {id} out of range")));
                }
                if program.global(id).ty.is_array() != want_array {
                    return Err(err(rid, format!("global {id} accessed with wrong shape")));
                }
                Ok(())
            }
        }
    };

    for (bid, block) in body.iter_blocks() {
        for instr in &block.instrs {
            if let Instr::Call { args, .. } = instr {
                if args.len() > MAX_CALL_ARGS {
                    return Err(err(
                        rid,
                        format!("call passes {} args, at most {MAX_CALL_ARGS}", args.len()),
                    ));
                }
                if args.range().end > body.args.len() {
                    return Err(err(rid, format!("call arguments {args:?} beyond the pool")));
                }
            }
            if let Some(d) = instr.def() {
                check_vreg(d, "destination")?;
            }
            for u in instr.uses(&body.args) {
                check_vreg(u, "source")?;
            }
            match instr {
                Instr::LoadLocal { local, .. } | Instr::StoreLocal { local, .. } => {
                    check_local(*local, false)?;
                }
                Instr::LoadGlobal { global, .. } | Instr::StoreGlobal { global, .. } => {
                    check_global(*global, false)?;
                }
                Instr::LoadElem { base, .. } | Instr::StoreElem { base, .. } => match base {
                    MemBase::Local(l) => check_local(*l, true)?,
                    MemBase::Global(g) => check_global(*g, true)?,
                },
                Instr::Call {
                    callee,
                    args,
                    dst,
                    site,
                } => {
                    if !seen_sites.insert(*site) {
                        return Err(err(rid, format!("duplicate call site {site}")));
                    }
                    if site.0 >= body.next_site {
                        return Err(err(rid, format!("call site {site} beyond next_site")));
                    }
                    if let CalleeRef::Id(target) = callee {
                        if target.index() >= program.routines().len() {
                            return Err(err(rid, format!("callee {target} out of range")));
                        }
                        let sig = &program.routine(*target).sig;
                        if sig.arity() != args.len() {
                            return Err(err(
                                rid,
                                format!(
                                    "call to {target} passes {} args, expected {}",
                                    args.len(),
                                    sig.arity()
                                ),
                            ));
                        }
                        if dst.is_some() && sig.ret.is_none() {
                            return Err(err(rid, format!("call to {target} uses void result")));
                        }
                    }
                }
                _ => {}
            }
        }
        match &block.term {
            Terminator::Jump(t) => {
                if t.index() >= n_blocks {
                    return Err(err(rid, format!("jump target {t} out of range in {bid}")));
                }
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                check_vreg(*cond, "branch condition")?;
                for t in [then_bb, else_bb] {
                    if t.index() >= n_blocks {
                        return Err(err(rid, format!("branch target {t} out of range in {bid}")));
                    }
                }
            }
            Terminator::Return(Some(r)) => check_vreg(*r, "return value")?,
            Terminator::Return(None) => {}
        }
    }
    Ok(())
}

/// Validates every body in a linked unit.
///
/// # Errors
///
/// Returns the first defect found across all routines.
pub fn validate_unit(program: &Program, bodies: &[RoutineBody]) -> Result<(), ValidateError> {
    for (i, body) in bodies.iter().enumerate() {
        validate_body(RoutineId::from_index(i), body, program)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IlObjectBuilder;
    use crate::ids::{Block, VReg};
    use crate::link::link_objects;
    use crate::types::Signature;

    fn linked_simple() -> (Program, Vec<RoutineBody>) {
        let mut b = IlObjectBuilder::new("m");
        let mut f = b.routine("main", Signature::default());
        let c = f.const_i64(1);
        f.output(c);
        f.ret(None);
        f.finish();
        let unit = link_objects(vec![b.finish()]).unwrap();
        (unit.program, unit.bodies)
    }

    #[test]
    fn valid_body_passes() {
        let (program, bodies) = linked_simple();
        assert!(validate_unit(&program, &bodies).is_ok());
    }

    #[test]
    fn out_of_range_vreg_is_caught() {
        let (program, mut bodies) = linked_simple();
        bodies[0].blocks[0]
            .instrs
            .push(Instr::Output { src: VReg(99) });
        let e = validate_unit(&program, &bodies).unwrap_err();
        assert!(e.what.contains("out of range"));
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn bad_branch_target_is_caught() {
        let (program, mut bodies) = linked_simple();
        bodies[0].blocks[0].term = Terminator::Jump(Block(44));
        assert!(validate_unit(&program, &bodies).is_err());
    }

    #[test]
    fn empty_routine_is_caught() {
        let (program, mut bodies) = linked_simple();
        bodies[0].blocks.clear();
        assert!(validate_unit(&program, &bodies).is_err());
    }

    #[test]
    fn a_ninth_argument_or_parameter_is_caught() {
        let mut b = IlObjectBuilder::new("m");
        let wide = Signature::new(vec![crate::Ty::I64; MAX_CALL_ARGS + 1], None);
        let mut w = b.routine("wide", wide);
        w.ret(None);
        w.finish();
        let mut f = b.routine("main", Signature::default());
        let x = f.const_i64(1);
        f.call_void("wide", [x; MAX_CALL_ARGS + 1]);
        f.ret(None);
        f.finish();
        let unit = link_objects(vec![b.finish()]).unwrap();
        let (wide, main) = (RoutineId(0), RoutineId(1));
        let e = validate_body(wide, &unit.bodies[0], &unit.program).unwrap_err();
        assert!(e.what.contains("takes 9 parameters"), "{e}");
        let e = validate_body(main, &unit.bodies[1], &unit.program).unwrap_err();
        assert!(e.what.contains("passes 9 args"), "{e}");
    }

    #[test]
    fn a_call_span_beyond_the_pool_is_caught() {
        let mut b = IlObjectBuilder::new("m");
        let mut f = b.routine("main", Signature::default());
        f.call_void("main", []);
        f.ret(None);
        f.finish();
        let unit = link_objects(vec![b.finish()]).unwrap();
        let (program, mut bodies) = (unit.program, unit.bodies);
        let spare = bodies[0].push_args([VReg(0)]);
        if let Instr::Call { args, .. } = &mut bodies[0].blocks[0].instrs[0] {
            *args = spare;
        }
        bodies[0].args.clear();
        let e = validate_unit(&program, &bodies).unwrap_err();
        assert!(e.what.contains("beyond the pool"), "{e}");
    }

    #[test]
    fn duplicate_call_sites_are_caught() {
        let mut b = IlObjectBuilder::new("m");
        let mut f = b.routine("main", Signature::default());
        f.call_void("main", vec![]);
        f.call_void("main", vec![]);
        f.ret(None);
        f.finish();
        let unit = link_objects(vec![b.finish()]).unwrap();
        let (program, mut bodies) = (unit.program, unit.bodies);
        // Forge a duplicate site id.
        let cloned_site = match &bodies[0].blocks[0].instrs[0] {
            Instr::Call { site, .. } => *site,
            _ => unreachable!(),
        };
        if let Instr::Call { site, .. } = &mut bodies[0].blocks[0].instrs[1] {
            *site = cloned_site;
        }
        let e = validate_unit(&program, &bodies).unwrap_err();
        assert!(e.what.contains("duplicate call site"));
    }
}
