//! Interprocedural analysis and whole-program global-variable
//! optimization.
//!
//! "Information about global or module private variable usage can only
//! be determined if all routines that can access a variable are
//! examined, not just the performance-critical ones" (§5). Every
//! routine is examined once, at read-in, into a resident summary;
//! [`GlobalFacts`] are the union of those summaries, even under
//! selectivity, and only the subsequent transformations are limited to
//! selected routines.
//!
//! These whole-program facts are also what stands in for code the
//! cluster-partitioned inliner cannot see: a cross-cluster callee is
//! never an inline or clone candidate (see [`crate::cluster`]), so its
//! effect on the caller's cluster is summarized entirely by the facts
//! folded here before the partition is taken.

use crate::session::HloSession;
use cmo_ir::{Const, GlobalId, Instr, MemBase, RoutineId, RoutineSummary};
use cmo_naim::{MemCharge, NaimError};

/// Whole-program read/write facts about global variables.
#[derive(Debug, Default)]
pub struct GlobalFacts {
    /// `read[g]`: some routine loads `g`.
    pub read: Vec<bool>,
    /// `written[g]`: some routine stores `g`.
    pub written: Vec<bool>,
    /// The facts' bytes in the session's derived-data accounting, for
    /// as long as the facts live.
    _charge: Option<MemCharge>,
}

impl GlobalFacts {
    /// Unions the read and write sets of every routine's resident
    /// summary: which globals are read and written anywhere in the
    /// program. No body is loaded.
    ///
    /// # Errors
    ///
    /// Never fails — the summaries are resident. The `Result` is what
    /// callers written against the body-scanning signature expect.
    pub fn build(session: &mut HloSession) -> Result<Self, NaimError> {
        let n_globals = session.program.globals().len();
        let mut facts = GlobalFacts {
            read: vec![false; n_globals],
            written: vec![false; n_globals],
            _charge: Some(session.charge_derived(n_globals * 2)),
        };
        let summaries = session.summaries();
        for rid in (0..session.n_routines()).map(RoutineId::from_index) {
            for g in summaries.reads(rid) {
                facts.read[g.index()] = true;
            }
            for g in summaries.writes(rid) {
                facts.written[g.index()] = true;
            }
            // One work unit per routine examined: the deterministic
            // stand-in for analysis time on the telemetry clock.
            session.telemetry().work(1);
        }
        Ok(facts)
    }
}

/// Interprocedural constant propagation of globals plus dead-store
/// elimination:
///
/// * a scalar global never written anywhere keeps its initial value
///   forever, so every load of it folds to that constant;
/// * a global never read anywhere is dead, so every store to it is
///   removed (the stored value's computation becomes dead code that
///   LLO's DCE cleans up).
///
/// Only the routines in `targets` are transformed (fine-grained
/// selectivity); the facts themselves came from all routines.
///
/// # Errors
///
/// Propagates loader failures.
pub fn fold_globals(
    session: &mut HloSession,
    facts: &GlobalFacts,
    targets: &[RoutineId],
) -> Result<(), NaimError> {
    // Initial values of fold-eligible scalar globals.
    let n_globals = session.program.globals().len();
    let mut init_const: Vec<Option<Const>> = vec![None; n_globals];
    #[allow(clippy::needless_range_loop)]
    for g in 0..n_globals {
        let meta = session.program.global(GlobalId::from_index(g));
        if facts.written[g] || meta.ty.is_array() {
            continue;
        }
        let (module, slot, scalar) = (meta.module, meta.slot as usize, meta.ty.scalar);
        let init = session.symtab(module)?.globals[slot].init.clone();
        init_const[g] = Some(match init {
            cmo_ir::GlobalInit::Zero => match scalar {
                cmo_ir::Ty::I64 => Const::I(0),
                cmo_ir::Ty::F64 => Const::F(0.0),
            },
            cmo_ir::GlobalInit::Scalar(c) => c,
            // Array initializers cannot appear on scalars.
            _ => continue,
        });
    }

    let mut folded = 0u64;
    let mut removed = 0u64;
    for &rid in targets {
        session.telemetry().work(1);
        // Only a routine that loads a foldable global or stores a
        // never-read one has anything to rewrite; the rest stay
        // unloaded.
        let summaries = session.summaries();
        if !summaries
            .reads(rid)
            .any(|g| init_const[g.index()].is_some())
            && summaries.writes(rid).all(|g| facts.read[g.index()])
        {
            continue;
        }
        let body = session.body_mut(rid)?;
        for block in &mut body.blocks {
            for instr in &mut block.instrs {
                if let Instr::LoadGlobal { dst, global } = instr {
                    if let Some(c) = init_const[global.id().index()] {
                        *instr = Instr::Const {
                            dst: *dst,
                            value: c,
                        };
                        folded += 1;
                    }
                }
            }
            let before = block.instrs.len();
            block.instrs.retain(|i| match i {
                Instr::StoreGlobal { global, .. }
                | Instr::StoreElem {
                    base: MemBase::Global(global),
                    ..
                } => facts.read[global.id().index()],
                _ => true,
            });
            removed += (before - block.instrs.len()) as u64;
        }
        let summary = RoutineSummary::of(body);
        session.set_summary(rid, &summary);
        session.unload(rid)?;
    }
    session.stats.globals_folded += folded;
    session.stats.dead_stores_removed += removed;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmo_frontend::compile_module;
    use cmo_ir::link_objects;
    use cmo_naim::NaimConfig;

    fn session(srcs: &[(&str, &str)]) -> HloSession {
        let objs = srcs
            .iter()
            .map(|(name, src)| compile_module(name, src).unwrap())
            .collect();
        let unit = link_objects(objs).unwrap();
        HloSession::new(unit, NaimConfig::default(), None).unwrap()
    }

    const GLOBALS_SRC: &str = r#"
        global ro_config: int = 7;
        global write_only_log: int = 0;
        global counter: int = 0;

        fn main() -> int {
            write_only_log = input();
            counter = counter + ro_config;
            return counter;
        }
    "#;

    #[test]
    fn facts_distinguish_read_write() {
        let mut s = session(&[("m", GLOBALS_SRC)]);
        let facts = GlobalFacts::build(&mut s).unwrap();
        let find = |name: &str| {
            s.program
                .globals()
                .iter()
                .position(|g| s.program.name(g.name) == name)
                .unwrap()
        };
        let ro = find("ro_config");
        let wo = find("write_only_log");
        let rw = find("counter");
        assert!(facts.read[ro] && !facts.written[ro]);
        assert!(!facts.read[wo] && facts.written[wo]);
        assert!(facts.read[rw] && facts.written[rw]);
    }

    #[test]
    fn never_written_global_folds_and_dead_store_goes() {
        let mut s = session(&[("m", GLOBALS_SRC)]);
        let facts = GlobalFacts::build(&mut s).unwrap();
        let main = s.program.find_routine("main").unwrap();
        fold_globals(&mut s, &facts, &[main]).unwrap();
        assert_eq!(s.stats().globals_folded, 1);
        assert_eq!(s.stats().dead_stores_removed, 1);
        let body = s.body(main).unwrap();
        // ro_config load folded to const 7; write_only_log store gone.
        let has_const7 = body.blocks.iter().flat_map(|b| &b.instrs).any(|i| {
            matches!(
                i,
                Instr::Const {
                    value: Const::I(7),
                    ..
                }
            )
        });
        assert!(has_const7);
        let stores: usize = body
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::StoreGlobal { .. }))
            .count();
        assert_eq!(stores, 1, "only the counter store remains");
    }

    #[test]
    fn selective_targets_leave_others_untouched() {
        let mut s = session(&[(
            "m",
            r#"
            global ro: int = 3;
            fn hot() -> int { return ro; }
            fn cold() -> int { return ro; }
            fn main() -> int { return hot() + cold(); }
            "#,
        )]);
        let facts = GlobalFacts::build(&mut s).unwrap();
        let hot = s.program.find_routine("hot").unwrap();
        let cold = s.program.find_routine("cold").unwrap();
        fold_globals(&mut s, &facts, &[hot]).unwrap();
        let hot_has_load = s
            .body(hot)
            .unwrap()
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, Instr::LoadGlobal { .. }));
        let cold_has_load = s
            .body(cold)
            .unwrap()
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, Instr::LoadGlobal { .. }));
        assert!(!hot_has_load, "hot was folded");
        assert!(cold_has_load, "cold was not selected");
    }
}
