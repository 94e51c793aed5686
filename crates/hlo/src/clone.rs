//! Routine cloning (§3 lists it among HLO's transformations).
//!
//! When a hot call site passes constant arguments but the callee is too
//! big to inline, HLO clones the callee, substitutes the constants into
//! the clone's body, and retargets the site. The clone is
//! module-internal; downstream local optimization specializes it (mode
//! switches fold, dead arms disappear) exactly as it would an inlined
//! copy — without duplicating the callee into the caller's body. Sites
//! passing the *same* constants share one clone.

use crate::cluster::run_in_order;
use crate::session::HloSession;
use cmo_ir::{Const, Instr, RoutineBody, RoutineId};
use cmo_naim::NaimError;
use std::collections::BTreeSet;

/// Cloning heuristics.
#[derive(Debug, Clone)]
pub struct CloneOptions {
    /// Minimum site count to consider cloning.
    pub min_count: u64,
    /// Only clone callees *bigger* than this (smaller ones should have
    /// been inlined instead).
    pub min_callee_il: u32,
    /// Upper bound on clones created (code-growth guard).
    pub max_clones: u32,
    /// Fine-grained selectivity: only these callers' sites clone.
    pub targets: Option<BTreeSet<RoutineId>>,
}

impl Default for CloneOptions {
    fn default() -> Self {
        CloneOptions {
            min_count: 128,
            min_callee_il: 120,
            max_clones: 32,
            targets: None,
        }
    }
}

/// Outcome of a cloning pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CloneStats {
    /// Clones created.
    pub clones: u64,
    /// Call sites retargeted to a clone (≥ clones when shared).
    pub retargeted: u64,
}

/// Constant arguments at a call site: `None` entries are unknown.
pub(crate) type ConstSig = Vec<Option<Const>>;

pub(crate) fn const_sig_key(sig: &ConstSig) -> String {
    sig.iter()
        .map(|c| match c {
            None => "_".to_owned(),
            Some(Const::I(v)) => format!("i{v}"),
            Some(Const::F(v)) => format!("f{:x}", v.to_bits()),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Finds the constant-argument signature of `site` in `caller`,
/// using the same last-definition-before-the-call scan as the inliner.
pub(crate) fn site_const_args(caller: &RoutineBody, site: u32) -> Option<ConstSig> {
    for block in &caller.blocks {
        for (ii, instr) in block.instrs.iter().enumerate() {
            if let Instr::Call { site: s, args, .. } = instr {
                if s.0 == site {
                    let mut sig: ConstSig = vec![None; args.len()];
                    for (k, &arg) in caller.call_args(*args).iter().enumerate() {
                        for prev in block.instrs[..ii].iter().rev() {
                            if prev.def() == Some(arg) {
                                if let Instr::Const { value, .. } = prev {
                                    sig[k] = Some(*value);
                                }
                                break;
                            }
                        }
                    }
                    return Some(sig);
                }
            }
        }
    }
    None
}

/// Builds the specialized body: every load of a constant parameter
/// becomes that constant (parameters the callee reassigns are left
/// alone).
pub(crate) fn specialize(callee: &RoutineBody, sig: &ConstSig) -> RoutineBody {
    let mut sig = sig.clone();
    for block in &callee.blocks {
        for instr in &block.instrs {
            if let Instr::StoreLocal { local, .. } = instr {
                if let Some(slot) = sig.get_mut(local.index()) {
                    *slot = None;
                }
            }
        }
    }
    let mut body = callee.clone();
    for block in &mut body.blocks {
        for instr in &mut block.instrs {
            if let Instr::LoadLocal { dst, local } = instr {
                if let Some(Some(value)) = sig.get(local.index()) {
                    *instr = Instr::Const {
                        dst: *dst,
                        value: *value,
                    };
                }
            }
        }
    }
    body
}

/// Runs the cloning pass. Requires profile data to find hot sites; on
/// unprofiled sessions it does nothing (the paper only applies
/// aggressive specialization where profiles justify the growth).
///
/// Like [`crate::inline_pass`], this runs the clusters of
/// [`crate::cluster`] one after another on this thread.
///
/// # Errors
///
/// Propagates loader failures.
pub fn clone_pass(
    session: &mut HloSession,
    options: &CloneOptions,
) -> Result<CloneStats, NaimError> {
    Ok(run_in_order(session, None, Some(options))?.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmo_frontend::compile_module;
    use cmo_ir::{link_objects, validate::validate_unit};
    use cmo_naim::NaimConfig;
    use cmo_profile::{ProbeKey, ProfileDb, RoutineShape};

    /// A big callee with a mode parameter, called hot with mode=0.
    fn fixture() -> (HloSession, RoutineId) {
        let big_arm: String = (0..40)
            .map(|i| format!("acc = acc + (acc / (mode + {})) % 97;", i + 2))
            .collect::<Vec<_>>()
            .join("\n");
        let lib = format!(
            r#"
            fn work(x: int, mode: int) -> int {{
                var acc: int = x;
                if (mode == 0) {{ acc = acc + 1; }}
                else {{ {big_arm} }}
                return acc;
            }}
            "#
        );
        let app = r#"
            extern fn work(x: int, mode: int) -> int;
            fn main() -> int {
                var i: int = 0;
                var acc: int = 0;
                while (i < 100) { acc = acc + work(i, 0); i = i + 1; }
                return acc;
            }
        "#;
        let unit = link_objects(vec![
            compile_module("app", app).unwrap(),
            compile_module("lib", &lib).unwrap(),
        ])
        .unwrap();

        // Fabricate a fresh profile matching the current shapes.
        let mut db = ProfileDb::new();
        let shapes: Vec<(String, RoutineShape)> = unit
            .bodies
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let name = unit
                    .program
                    .name(unit.program.routine(RoutineId::from_index(i)).name)
                    .to_owned();
                (
                    name,
                    RoutineShape {
                        n_blocks: b.blocks.len() as u32,
                        n_sites: b.next_site,
                        fingerprint: b.fingerprint(),
                    },
                )
            })
            .collect();
        db.record(
            &[
                (ProbeKey::block("main", 0), 1),
                (ProbeKey::site("main", 0), 1000),
                (ProbeKey::block("work", 0), 1000),
            ],
            &shapes,
        );
        let session = HloSession::new(unit, NaimConfig::default(), Some(&db)).unwrap();
        let main = session.program.find_routine("main").unwrap();
        (session, main)
    }

    #[test]
    fn hot_constant_site_gets_a_specialized_clone() {
        let (mut s, main) = fixture();
        let before_routines = s.program.routines().len();
        let stats = clone_pass(&mut s, &CloneOptions::default()).unwrap();
        assert_eq!(stats.clones, 1);
        assert_eq!(stats.retargeted, 1);
        assert_eq!(s.program.routines().len(), before_routines + 1);

        // The retargeted call in main points at the clone.
        let clone_id = RoutineId::from_index(before_routines);
        let body = s.body(main).unwrap().clone();
        let mut call_targets = Vec::new();
        for block in &body.blocks {
            for instr in &block.instrs {
                if let Instr::Call { callee, .. } = instr {
                    call_targets.push(callee.id());
                }
            }
        }
        assert_eq!(call_targets, vec![clone_id]);
        assert!(s
            .program
            .name(s.program.routine(clone_id).name)
            .contains("$clone"));

        // The clone body validates and has the mode loads folded.
        let clone_body = s.body(clone_id).unwrap().clone();
        let mut bodies = Vec::new();
        for i in 0..s.program.routines().len() {
            bodies.push(s.body(RoutineId::from_index(i)).unwrap().clone());
        }
        validate_unit(&s.program, &bodies).unwrap();
        let loads_mode = clone_body
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::LoadLocal { local, .. } if local.index() == 1))
            .count();
        assert_eq!(loads_mode, 0, "mode parameter fully substituted");
    }

    #[test]
    fn equal_signatures_share_one_clone() {
        let (mut s, _) = fixture();
        // First pass creates the clone, a second pass finds nothing new
        // (the site now targets the clone, and the clone's own sites
        // carry no constants).
        let first = clone_pass(&mut s, &CloneOptions::default()).unwrap();
        let second = clone_pass(&mut s, &CloneOptions::default()).unwrap();
        assert_eq!(first.clones, 1);
        assert_eq!(second.clones, 0);
    }

    #[test]
    fn cold_or_nonconstant_sites_do_not_clone() {
        let (mut s, _) = fixture();
        let opts = CloneOptions {
            min_count: 1_000_000, // nothing is that hot
            ..CloneOptions::default()
        };
        let stats = clone_pass(&mut s, &opts).unwrap();
        assert_eq!(stats.clones, 0);
    }
}
