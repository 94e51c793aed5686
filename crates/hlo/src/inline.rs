//! Profile-guided cross-module inlining.
//!
//! "Though our framework supports interprocedural optimization, we
//! have found that its main benefit is in enabling profile-based
//! cross-module inlining" (§7). The inliner:
//!
//! * inlines calls irrespective of module boundaries (resolved IL has
//!   no module barriers left);
//! * with PBO, aggressively inlines *hot* call sites — sites with high
//!   profile counts — while letting only tiny callees in everywhere
//!   else;
//! * maintains block and call-site counts through the transformation
//!   (scaled by site frequency over callee entry frequency), so
//!   downstream layout and later inlining rounds keep working from
//!   correlated data;
//! * schedules its work sorted by (callee module, caller module) "so
//!   that cross-module inlines from the same pair of modules are
//!   processed one after another", exploiting the NAIM loader's cache
//!   (§4.3);
//! * honours an *operation limit* for automatic bug isolation (§6.3):
//!   every inline has a sequence number, and the limit cuts the pass
//!   off exactly there.

use crate::cluster::run_in_order;
use crate::session::HloSession;
use cmo_ir::{Block, CallSiteId, Instr, Local, RoutineBody, RoutineId, Terminator, VReg};
use cmo_naim::NaimError;
use std::collections::BTreeSet;

/// Inliner heuristics and limits.
#[derive(Debug, Clone)]
pub struct InlineOptions {
    /// Callees at most this many IL instructions inline at every call
    /// site (the classic "tiny callee" rule).
    pub small_callee_il: u32,
    /// A site with at least this profile count is *hot*.
    pub hot_site_min_count: u64,
    /// Hot sites inline callees up to this many IL instructions.
    pub hot_callee_il: u32,
    /// A hot site must additionally account for at least this fraction
    /// of the callee's total entries. This is the duplication guard
    /// from the authors' aggressive-inlining heuristics \[1\]: a utility
    /// routine hot from *many* places stays shared (procedure
    /// clustering handles it), while a dominant caller absorbs its
    /// callee.
    pub hot_site_dominance: f64,
    /// A caller is not grown beyond this many IL instructions.
    pub caller_growth_cap: u32,
    /// Maximum inlining rounds (each round rebuilds the call graph and
    /// can expose new opportunities).
    pub max_passes: u32,
    /// Operation limit for bug isolation (§6.3): stop after this many
    /// inline operations, counted across passes and numbered cluster by
    /// cluster (see [`crate::cluster::run_clusters`]), at any `-j`.
    pub op_limit: Option<u64>,
    /// Fine-grained selectivity: only these callers are transformed.
    /// `None` means every routine (the expensive non-PBO CMO mode of
    /// §5).
    pub targets: Option<BTreeSet<RoutineId>>,
}

impl Default for InlineOptions {
    fn default() -> Self {
        InlineOptions {
            small_callee_il: 12,
            hot_site_min_count: 64,
            hot_callee_il: 120,
            hot_site_dominance: 0.15,
            caller_growth_cap: 600,
            max_passes: 3,
            op_limit: None,
            targets: None,
        }
    }
}

/// Outcome of an inline pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InlineStats {
    /// Inline operations performed.
    pub inlines: u64,
    /// Candidate sites examined.
    pub considered: u64,
    /// Candidates rejected by the caller-growth cap.
    pub capped: u64,
    /// `true` if the operation limit stopped the pass.
    pub hit_op_limit: bool,
}

/// Result of splicing one callee into one caller.
pub(crate) struct SpliceInfo {
    /// Caller block that received the original call's continuation.
    pub(crate) cont_block: Block,
    /// Block that held the call (kept its original id).
    pub(crate) call_block: Block,
    /// First caller block id of the copied callee body.
    pub(crate) callee_base: u32,
    /// Number of callee blocks copied.
    pub(crate) callee_blocks: u32,
    /// Map from callee site id to the fresh caller site id.
    pub(crate) site_map: Vec<(CallSiteId, CallSiteId)>,
}

/// Splices `callee` into `caller` at call site `site`. Returns `None`
/// if the site is not found (already transformed).
pub(crate) fn splice_call(
    caller: &mut RoutineBody,
    site: CallSiteId,
    callee: &RoutineBody,
) -> Option<SpliceInfo> {
    // Locate the call.
    let mut found = None;
    'outer: for (bi, block) in caller.blocks.iter().enumerate() {
        for (ii, instr) in block.instrs.iter().enumerate() {
            if let Instr::Call { site: s, .. } = instr {
                if *s == site {
                    found = Some((bi, ii));
                    break 'outer;
                }
            }
        }
    }
    let (bi, ii) = found?;
    let (dst, args) = match caller.blocks[bi].instrs[ii] {
        Instr::Call { dst, args, .. } => (dst.get(), args),
        _ => unreachable!("found index points at the call"),
    };

    // Interprocedural constant propagation at the seam: if an argument
    // register's last definition before the call is a constant, and
    // the callee never reassigns the corresponding parameter, every
    // load of that parameter in the copied body becomes that constant.
    // This is what lets the local optimizer later specialize the
    // inlined code (fold mode switches, delete cold arms) — "inlines
    // calls irrespective of module boundaries" only pays off because
    // of this downstream effect (§7).
    let mut const_args = [None; cmo_ir::MAX_CALL_ARGS];
    let const_args = &mut const_args[..args.len()];
    for (k, &arg) in caller.call_args(args).iter().enumerate() {
        for instr in caller.blocks[bi].instrs[..ii].iter().rev() {
            if instr.def() == Some(arg) {
                if let Instr::Const { value, .. } = instr {
                    const_args[k] = Some(*value);
                }
                break;
            }
        }
    }
    // A parameter the callee stores to is not substitutable.
    for cb in &callee.blocks {
        for instr in &cb.instrs {
            if let Instr::StoreLocal { local, .. } = instr {
                if let Some(slot) = const_args.get_mut(local.index()) {
                    *slot = None;
                }
            }
        }
    }

    let vreg_offset = caller.n_vregs;
    caller.n_vregs += callee.n_vregs;
    let local_offset = caller.locals.len() as u32;
    for decl in &callee.locals {
        caller.locals.push(cmo_ir::LocalDecl {
            ty: decl.ty,
            is_param: false,
        });
    }
    let cont_idx = caller.blocks.len() as u32;
    let callee_base = cont_idx + 1;

    // Split the call block.
    let tail = caller.blocks[bi].instrs.split_off(ii + 1);
    caller.blocks[bi].instrs.pop(); // the call itself
    let cont_term = std::mem::replace(
        &mut caller.blocks[bi].term,
        Terminator::Jump(Block(callee_base)),
    );
    // Pass arguments into the callee's parameter locals. The call's
    // run of the argument pool is left behind.
    for k in 0..args.len() {
        let src = caller.call_args(args)[k];
        caller.blocks[bi].instrs.push(Instr::StoreLocal {
            local: Local(local_offset + k as u32),
            src,
        });
    }
    // Continuation block.
    caller.blocks.push(cmo_ir::BlockData {
        instrs: tail,
        term: cont_term,
    });

    // Copy and remap the callee body.
    let rv = |v: VReg| VReg(v.0 + vreg_offset);
    let rl = |l: Local| Local(l.0 + local_offset);
    let rb = |b: Block| Block(b.0 + callee_base);
    let mut site_map = Vec::new();
    for cb in &callee.blocks {
        let mut instrs = Vec::with_capacity(cb.instrs.len());
        for instr in &cb.instrs {
            if let Instr::LoadLocal { dst, local } = instr {
                if let Some(Some(value)) = const_args.get(local.index()) {
                    instrs.push(Instr::Const {
                        dst: rv(*dst),
                        value: *value,
                    });
                    continue;
                }
            }
            let mut ni = *instr;
            match &mut ni {
                Instr::Const { dst, .. } | Instr::Input { dst } => *dst = rv(*dst),
                Instr::Bin { dst, lhs, rhs, .. } => {
                    *dst = rv(*dst);
                    *lhs = rv(*lhs);
                    *rhs = rv(*rhs);
                }
                Instr::Un { dst, src, .. } | Instr::Mov { dst, src } => {
                    *dst = rv(*dst);
                    *src = rv(*src);
                }
                Instr::LoadLocal { dst, local } => {
                    *dst = rv(*dst);
                    *local = rl(*local);
                }
                Instr::StoreLocal { local, src } => {
                    *local = rl(*local);
                    *src = rv(*src);
                }
                Instr::LoadGlobal { dst, .. } => *dst = rv(*dst),
                Instr::StoreGlobal { src, .. } => *src = rv(*src),
                Instr::LoadElem { dst, base, index } => {
                    *dst = rv(*dst);
                    *index = rv(*index);
                    if let cmo_ir::MemBase::Local(l) = base {
                        *l = rl(*l);
                    }
                }
                Instr::StoreElem { base, index, src } => {
                    *index = rv(*index);
                    *src = rv(*src);
                    if let cmo_ir::MemBase::Local(l) = base {
                        *l = rl(*l);
                    }
                }
                Instr::Call {
                    dst, args, site: s, ..
                } => {
                    *dst = dst.get().map(rv).into();
                    *args = caller.push_args(callee.call_args(*args).iter().map(|&a| rv(a)));
                    let fresh = caller.new_site();
                    site_map.push((*s, fresh));
                    *s = fresh;
                }
                Instr::Output { src } => *src = rv(*src),
            }
            instrs.push(ni);
        }
        let term = match &cb.term {
            Terminator::Jump(b) => Terminator::Jump(rb(*b)),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => Terminator::Branch {
                cond: rv(*cond),
                then_bb: rb(*then_bb),
                else_bb: rb(*else_bb),
            },
            Terminator::Return(v) => {
                if let (Some(d), Some(v)) = (dst, v) {
                    instrs.push(Instr::Mov {
                        dst: d,
                        src: rv(*v),
                    });
                }
                Terminator::Jump(Block(cont_idx))
            }
        };
        caller.blocks.push(cmo_ir::BlockData { instrs, term });
    }

    Some(SpliceInfo {
        cont_block: Block(cont_idx),
        call_block: Block(bi as u32),
        callee_base,
        callee_blocks: callee.blocks.len() as u32,
        site_map,
    })
}

/// Runs the inlining phase over the session: plans the cluster
/// partition, runs the clusters one after another on this thread, and
/// merges the outcomes — the driver's `inline` stage, which fans the
/// same clusters out over its workers, with one worker (see
/// [`crate::cluster`]).
///
/// # Errors
///
/// Propagates loader failures (including hard out-of-memory when
/// unselective inlining blows the heap, reproducing §5's failed pure
/// CMO compiles).
pub fn inline_pass(
    session: &mut HloSession,
    options: &InlineOptions,
) -> Result<InlineStats, NaimError> {
    Ok(run_in_order(session, Some(options), None)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmo_frontend::compile_module;
    use cmo_ir::{link_objects, validate::validate_body};
    use cmo_naim::NaimConfig;
    use cmo_profile::{ProbeKey, ProfileDb, RoutineShape};

    fn session(srcs: &[(&str, &str)], db: Option<&ProfileDb>) -> HloSession {
        let objs = srcs
            .iter()
            .map(|(name, src)| compile_module(name, src).unwrap())
            .collect();
        let unit = link_objects(objs).unwrap();
        HloSession::new(unit, NaimConfig::default(), db).unwrap()
    }

    const CROSS: &[(&str, &str)] = &[
        (
            "a",
            "extern fn addone(x: int) -> int;\nfn main() -> int { return addone(41); }",
        ),
        ("b", "fn addone(x: int) -> int { return x + 1; }"),
    ];

    #[test]
    fn small_callee_inlines_across_modules() {
        let mut s = session(CROSS, None);
        let stats = inline_pass(&mut s, &InlineOptions::default()).unwrap();
        assert_eq!(stats.inlines, 1);
        let main = s.program.find_routine("main").unwrap();
        let body = s.body(main).unwrap().clone();
        // No calls remain in main.
        let calls = body
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Call { .. }))
            .count();
        assert_eq!(calls, 0);
        validate_body(main, &body, &s.program).unwrap();
    }

    #[test]
    fn big_cold_callee_does_not_inline_without_profile() {
        // A callee bigger than small_callee_il with no profile data.
        let big_body: String = (0..30)
            .map(|i| format!("acc = acc + {i} * x;"))
            .collect::<Vec<_>>()
            .join("\n");
        let callee =
            format!("fn work(x: int) -> int {{ var acc: int = 0; {big_body} return acc; }}");
        let mut s = session(
            &[
                (
                    "a",
                    "extern fn work(x: int) -> int;\nfn main() -> int { return work(3); }",
                ),
                ("b", &callee),
            ],
            None,
        );
        let stats = inline_pass(&mut s, &InlineOptions::default()).unwrap();
        assert_eq!(stats.inlines, 0);
    }

    #[test]
    fn hot_site_inlines_large_callee_with_profile() {
        let big_body: String = (0..30)
            .map(|i| format!("acc = acc + {i} * x;"))
            .collect::<Vec<_>>()
            .join("\n");
        let callee =
            format!("fn work(x: int) -> int {{ var acc: int = 0; {big_body} return acc; }}");
        let srcs: Vec<(&str, &str)> = vec![
            (
                "a",
                "extern fn work(x: int) -> int;\nfn main() -> int { return work(3); }",
            ),
            ("b", &callee),
        ];
        // Profile: main's single site is hot. Shapes must match the
        // current code, so build the session once to fetch shapes.
        let mut probe_db = ProfileDb::new();
        {
            let mut s = session(&srcs, None);
            let main = s.program.find_routine("main").unwrap();
            let work = s.program.find_routine("work").unwrap();
            let main_body = s.body(main).unwrap();
            let main_shape = RoutineShape {
                n_blocks: main_body.blocks.len() as u32,
                n_sites: main_body.next_site,
                fingerprint: main_body.fingerprint(),
            };
            let work_body = s.body(work).unwrap();
            let work_shape = RoutineShape {
                n_blocks: work_body.blocks.len() as u32,
                n_sites: work_body.next_site,
                fingerprint: work_body.fingerprint(),
            };
            probe_db.record(
                &[
                    (ProbeKey::block("main", 0), 500),
                    (ProbeKey::site("main", 0), 500),
                    (ProbeKey::block("work", 0), 500),
                ],
                &[
                    ("main".to_owned(), main_shape),
                    ("work".to_owned(), work_shape),
                ],
            );
        }
        let mut s = session(&srcs, Some(&probe_db));
        let opts = InlineOptions {
            hot_callee_il: 300,
            ..InlineOptions::default()
        };
        let stats = inline_pass(&mut s, &opts).unwrap();
        assert_eq!(stats.inlines, 1, "hot site should inline");
        let main = s.program.find_routine("main").unwrap();
        let body = s.body(main).unwrap().clone();
        validate_body(main, &body, &s.program).unwrap();
        // Maintained counts extend over the new blocks.
        let counts = s.block_counts(main).unwrap();
        assert_eq!(counts.len(), body.blocks.len());
        assert!(counts.iter().skip(1).any(|&c| c > 0), "inlined blocks hot");
    }

    #[test]
    fn op_limit_cuts_off_exactly() {
        let srcs = &[(
            "m",
            r#"
            static fn one() -> int { return 1; }
            fn main() -> int { return one() + one() + one(); }
            "#,
        )];
        let mut s = session(srcs, None);
        let stats = inline_pass(
            &mut s,
            &InlineOptions {
                op_limit: Some(2),
                ..InlineOptions::default()
            },
        )
        .unwrap();
        assert_eq!(stats.inlines, 2);
        assert!(stats.hit_op_limit);
        let main = s.program.find_routine("main").unwrap();
        let calls = s
            .body(main)
            .unwrap()
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Call { .. }))
            .count();
        assert_eq!(calls, 1, "exactly one call left");
    }

    #[test]
    fn selectivity_targets_limit_callers() {
        let srcs = &[(
            "m",
            r#"
            static fn one() -> int { return 1; }
            fn cold() -> int { return one(); }
            fn main() -> int { return one(); }
            "#,
        )];
        let mut s = session(srcs, None);
        let main = s.program.find_routine("main").unwrap();
        let cold = s.program.find_routine("cold").unwrap();
        let stats = inline_pass(
            &mut s,
            &InlineOptions {
                targets: Some([main].into_iter().collect()),
                ..InlineOptions::default()
            },
        )
        .unwrap();
        assert_eq!(stats.inlines, 1);
        let cold_calls = s
            .body(cold)
            .unwrap()
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Call { .. }))
            .count();
        assert_eq!(cold_calls, 1, "cold caller untouched");
    }

    #[test]
    fn growth_cap_prevents_explosion() {
        // Mutually recursive pair would grow unboundedly without caps.
        let srcs = &[(
            "m",
            r#"
            fn ping(n: int) -> int { if (n < 1) { return 0; } return pong(n - 1); }
            fn pong(n: int) -> int { if (n < 1) { return 1; } return ping(n - 1); }
            fn main() -> int { return ping(10); }
            "#,
        )];
        let mut s = session(srcs, None);
        let opts = InlineOptions {
            small_callee_il: 100,
            caller_growth_cap: 120,
            max_passes: 10,
            ..InlineOptions::default()
        };
        let stats = inline_pass(&mut s, &opts).unwrap();
        assert!(stats.inlines > 0);
        assert!(stats.capped > 0, "cap must engage");
        for name in ["main", "ping", "pong"] {
            let rid = s.program.find_routine(name).unwrap();
            let body = s.body(rid).unwrap().clone();
            validate_body(rid, &body, &s.program).unwrap();
            assert!(body.instr_count() < 400);
        }
    }

    #[test]
    fn transitive_inlining_across_passes() {
        let srcs = &[(
            "m",
            r#"
            static fn inner() -> int { return 5; }
            static fn middle() -> int { return inner() + 1; }
            fn main() -> int { return middle(); }
            "#,
        )];
        let mut s = session(srcs, None);
        let stats = inline_pass(&mut s, &InlineOptions::default()).unwrap();
        assert!(stats.inlines >= 2);
        let main = s.program.find_routine("main").unwrap();
        let calls = s
            .body(main)
            .unwrap()
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Call { .. }))
            .count();
        assert_eq!(calls, 0, "both levels inlined into main");
    }
}
