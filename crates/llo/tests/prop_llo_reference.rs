//! The allocation-free LLO passes against the implementations they
//! replaced (`reference/mod.rs`): every pass, the layout, the register
//! allocation and the emitted routine must be identical, on generated
//! bodies aimed at the corners the dense tables have to get right and
//! on every routine of an MCAD program after HLO.
//!
//! Cases run one after another on one thread, so the per-thread
//! scratch is reused across routines of very different sizes — stale
//! facts from an earlier routine or block would show up here.
//!
//! Deliberate mutations of the production code this file catches:
//! a copy fact used without checking its source's version; the epoch
//! not bumped per block; `active` expired back to front; propagation
//! counting an instruction's reads for DCE before its fold, or a
//! terminator's before the branch fold; the fused use/def walk placing
//! a terminator's read one position early; an interval expired when it
//! ends where the next one starts. Of `optimize`'s incremental fixed
//! point: a read left counted when a later round's merge normalizes a
//! branch, when unreachable blocks go, when re-propagation rewrites a
//! source through a copy, or (the planted bodies alone) when it folds a
//! merged branch; a block left unpropagated after a merge; the
//! confirming round skipped although a branch has equal targets (the
//! planted bodies alone) or an edge would thread.
//! Not caught,
//! because it is unobservable: the copy-chain hop cap off by one —
//! sources are resolved before a copy is recorded, so the only chains
//! longer than one hop are the self-loops `mov x, x` leaves, and those
//! end at `x` whatever the cap.

mod reference;

use cmo_frontend::compile_module;
use cmo_hlo::{fold_globals, inline_pass, GlobalFacts, HloSession, InlineOptions};
use cmo_ir::{
    link_objects, BinOp, Block, BlockData, CallSiteId, CalleeRef, Const, GlobalId, GlobalRef,
    Instr, LinkedUnit, Local, MemBase, Program, RoutineBody, RoutineId, Terminator, Ty, UnOp, VReg,
    VarTy,
};
use cmo_llo::layout::order_blocks;
use cmo_llo::regalloc::allocate;
use cmo_llo::{lower_routine, opt, GlobalLayout, LloOptions, OptEffort, OptEffortOpt};
use cmo_naim::NaimConfig;
use proptest::prelude::*;
use reference::{
    ref_allocate, ref_const_and_copy_prop, ref_dead_code_elim, ref_lower_routine, ref_merge_blocks,
    ref_optimize, ref_optimize_with_counts, ref_order_blocks, ref_remove_unreachable,
};

/// A two-global, two-routine program; generated bodies stand in for
/// `callee` (two scalar parameters).
fn host_program() -> LinkedUnit {
    let obj = compile_module(
        "m",
        r#"
        global g: int = 3;
        global arr: int[4] = [1, 2, 3, 4];
        fn callee(a: int, b: int) -> int { g = a; return arr[b] + g; }
        fn main() -> int { return callee(1, 2); }
        "#,
    )
    .unwrap();
    link_objects(vec![obj]).unwrap()
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Local 0 and 1 are the scalar parameters, 2..=4 scalars, 5 an array.
const N_SCALAR_LOCALS: usize = 5;
const ARRAY_LOCAL: Local = Local(5);

/// One random instruction; a call's arguments go to `body`'s pool.
fn gen_instr(rng: &mut Rng, n_vregs: usize, pool: usize, body: &mut RoutineBody) -> Instr {
    // A small pool makes redefinitions, copies of copies and stale
    // sources frequent; the occasional wide pick keeps many vregs live.
    let v = |rng: &mut Rng| {
        let span = if rng.chance(85) { pool } else { n_vregs };
        VReg(rng.below(span.min(n_vregs)) as u32)
    };
    let scalar = |rng: &mut Rng| Local(rng.below(N_SCALAR_LOCALS) as u32);
    match rng.below(20) {
        0 | 1 => Instr::Const {
            dst: v(rng),
            value: Const::I(rng.below(5) as i64 - 1),
        },
        2 => Instr::Const {
            dst: v(rng),
            value: Const::F([0.5, 2.0, -3.0][rng.below(3)]),
        },
        3..=5 => Instr::Mov {
            dst: v(rng),
            src: v(rng),
        },
        6 => {
            let x = v(rng);
            Instr::Mov { dst: x, src: x }
        }
        7 | 8 => Instr::Bin {
            dst: v(rng),
            op: [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Lt,
                BinOp::Eq,
                BinOp::Shl,
                BinOp::FAdd,
                BinOp::FMul,
                BinOp::FLt,
            ][rng.below(10)],
            lhs: v(rng),
            rhs: v(rng),
        },
        9 => Instr::Un {
            dst: v(rng),
            op: [UnOp::Neg, UnOp::Not, UnOp::FNeg, UnOp::I2F, UnOp::F2I][rng.below(5)],
            src: v(rng),
        },
        10 | 11 => Instr::StoreLocal {
            local: scalar(rng),
            src: v(rng),
        },
        12 | 13 => Instr::LoadLocal {
            dst: v(rng),
            local: scalar(rng),
        },
        14 => Instr::Input { dst: v(rng) },
        15 => Instr::Output { src: v(rng) },
        16 => {
            if rng.chance(50) {
                Instr::LoadGlobal {
                    dst: v(rng),
                    global: GlobalRef::Id(GlobalId(0)),
                }
            } else {
                Instr::StoreGlobal {
                    global: GlobalRef::Id(GlobalId(0)),
                    src: v(rng),
                }
            }
        }
        17 => {
            let base = if rng.chance(50) {
                MemBase::Local(ARRAY_LOCAL)
            } else {
                MemBase::Global(GlobalRef::Id(GlobalId(1)))
            };
            Instr::LoadElem {
                dst: v(rng),
                base,
                index: v(rng),
            }
        }
        18 => Instr::StoreElem {
            base: MemBase::Local(ARRAY_LOCAL),
            index: v(rng),
            src: v(rng),
        },
        _ => Instr::Call {
            dst: rng.chance(70).then(|| v(rng)).into(),
            callee: CalleeRef::Id(RoutineId(rng.below(2) as u32)),
            args: body.push_args((0..rng.below(4)).map(|_| v(rng)).collect::<Vec<_>>()),
            site: CallSiteId(rng.below(4) as u32),
        },
    }
}

/// A random body: any block may jump anywhere (so loops, unreachable
/// blocks and empty jump-only chains all occur), and a few shapes the
/// random walk rarely produces are planted outright.
fn gen_body(seed: u64) -> RoutineBody {
    let mut rng = Rng(seed | 1);
    let mut body = RoutineBody::new();
    for i in 0..N_SCALAR_LOCALS {
        body.new_local(VarTy::scalar(Ty::I64), i < 2);
    }
    body.new_local(VarTy::array(Ty::I64, 4), false);
    body.next_site = 4;
    let n_vregs = if rng.chance(25) {
        40 + rng.below(60)
    } else {
        3 + rng.below(20)
    };
    body.n_vregs = n_vregs as u32;
    let pool = 2 + rng.below(6);
    let n_blocks = 1 + rng.below(12);
    for _ in 0..n_blocks {
        let target = |rng: &mut Rng| Block(rng.below(n_blocks) as u32);
        let term = match rng.below(10) {
            0..=3 => Terminator::Jump(target(&mut rng)),
            4..=7 => Terminator::Branch {
                cond: VReg(rng.below(pool.min(n_vregs)) as u32),
                then_bb: target(&mut rng),
                else_bb: target(&mut rng),
            },
            8 => Terminator::Return(Some(VReg(rng.below(n_vregs) as u32))),
            _ => Terminator::Return(None),
        };
        let mut block = BlockData::new(term);
        let len = match rng.below(10) {
            0 | 1 => 0,
            9 => 70 + rng.below(30),
            _ => rng.below(16),
        };
        for _ in 0..len {
            let instr = gen_instr(&mut rng, n_vregs, pool, &mut body);
            block.instrs.push(instr);
        }
        body.blocks.push(block);
    }
    let planted = rng.below(body.blocks.len());
    let block = &mut body.blocks[planted];
    match rng.below(5) {
        // A copy chain well past the 64-hop cap, hanging off a
        // self-move.
        0 => {
            let root = VReg(0);
            block.instrs.push(Instr::Input { dst: root });
            block.instrs.push(Instr::Mov {
                dst: root,
                src: root,
            });
            for i in 0..n_vregs.min(80) {
                block.instrs.push(Instr::Mov {
                    dst: VReg(((i + 1) % n_vregs) as u32),
                    src: VReg((i % n_vregs) as u32),
                });
            }
        }
        // A copy whose source is redefined before the copy is read.
        1 if n_vregs >= 3 => {
            block.instrs.extend([
                Instr::Input { dst: VReg(0) },
                Instr::Mov {
                    dst: VReg(1),
                    src: VReg(0),
                },
                Instr::StoreLocal {
                    local: Local(2),
                    src: VReg(0),
                },
                Instr::Input { dst: VReg(0) },
                Instr::Output { src: VReg(1) },
                Instr::LoadLocal {
                    dst: VReg(2),
                    local: Local(2),
                },
                Instr::Output { src: VReg(2) },
            ]);
        }
        // A branch on a constant.
        2 => {
            block.instrs.push(Instr::Const {
                dst: VReg(0),
                value: Const::I(rng.below(2) as i64),
            });
            block.term = Terminator::Branch {
                cond: VReg(0),
                then_bb: Block(rng.below(n_blocks) as u32),
                else_bb: Block(rng.below(n_blocks) as u32),
            };
        }
        // More simultaneously live values than allocatable registers.
        3 => {
            let entry = &mut body.blocks[0];
            let inputs: Vec<Instr> = (0..n_vregs)
                .map(|i| Instr::Input {
                    dst: VReg(i as u32),
                })
                .collect();
            entry.instrs.splice(0..0, inputs);
            let last = body.blocks.last_mut().unwrap();
            for i in 0..n_vregs {
                last.instrs.push(Instr::Output {
                    src: VReg(i as u32),
                });
            }
        }
        _ => {}
    }
    body
}

/// Deterministic stand-in block counts: varied, with ties and zeros.
fn fake_counts(body: &RoutineBody, salt: u64) -> Vec<u64> {
    let mut rng = Rng(salt | 1);
    (0..body.blocks.len())
        .map(|_| [0, 1, 1, 7, 100, 100, 5000][rng.below(7)])
        .collect()
}

/// Every comparison the issue lists, for one body standing in for
/// routine `rid` of `program`.
fn check_body(body: &RoutineBody, rid: RoutineId, program: &Program, globals: &GlobalLayout) {
    // Each pass on its own, chained so later passes see realistic
    // input, with the count vector following the blocks.
    let mut new = body.clone();
    let mut old = body.clone();
    let mut new_counts = fake_counts(body, 11);
    let mut old_counts = new_counts.clone();
    for round in 0..3 {
        assert_eq!(
            opt::merge_blocks(&mut new),
            ref_merge_blocks(&mut old),
            "merge stats"
        );
        assert_eq!(new, old, "merge_blocks, round {round}");
        assert_eq!(
            opt::const_and_copy_prop(&mut new),
            ref_const_and_copy_prop(&mut old),
            "prop stats"
        );
        assert_eq!(new, old, "const_and_copy_prop, round {round}");
        assert_eq!(
            opt::dead_code_elim(&mut new),
            ref_dead_code_elim(&mut old),
            "dce stats"
        );
        assert_eq!(new, old, "dead_code_elim, round {round}");
        assert_eq!(
            opt::remove_unreachable(&mut new, Some(&mut new_counts)),
            ref_remove_unreachable(&mut old, Some(&mut old_counts)),
            "unreachable stats"
        );
        assert_eq!(new, old, "remove_unreachable, round {round}");
        assert_eq!(new_counts, old_counts, "maintained counts, round {round}");
    }

    // The whole pipeline, with and without counts.
    let mut new = body.clone();
    let mut old = body.clone();
    assert_eq!(opt::optimize(&mut new), ref_optimize(&mut old));
    assert_eq!(new, old, "optimize");
    let mut new = body.clone();
    let mut old = body.clone();
    let mut new_counts = fake_counts(body, 12);
    let mut old_counts = new_counts.clone();
    assert_eq!(
        opt::optimize_with_counts(&mut new, Some(&mut new_counts)),
        ref_optimize_with_counts(&mut old, Some(&mut old_counts))
    );
    assert_eq!(new, old, "optimize_with_counts");
    assert_eq!(new_counts, old_counts, "maintained counts");

    // Layout and allocation, on the raw and on the optimized body.
    for b in [body, &new] {
        let counts = fake_counts(b, 13);
        for counts in [None, Some(counts.as_slice())] {
            let order = order_blocks(b, counts);
            assert_eq!(order, ref_order_blocks(b, counts), "order_blocks");
            let (a, r) = (allocate(b, &order), ref_allocate(b, &order));
            assert_eq!(a.locs, r.locs, "locs");
            assert_eq!(a.spill_slots, r.spill_slots, "spill_slots");
            assert_eq!(a.work_bytes, r.work_bytes, "work_bytes");
        }
    }

    // The lowered routine, over effort × instrument × counts.
    for effort in [OptEffort::O1, OptEffort::O2] {
        for instrument in [false, true] {
            for block_counts in [None, Some(fake_counts(body, 14))] {
                let options = LloOptions {
                    effort: OptEffortOpt(effort),
                    instrument,
                    block_counts,
                };
                let a = lower_routine(rid, body, program, globals, &options);
                let r = ref_lower_routine(rid, body, program, globals, &options);
                assert_eq!(a.name, r.name);
                assert_eq!(a.code, r.code, "code ({options:?})");
                assert_eq!(a.frame_slots, r.frame_slots, "frame_slots");
                assert_eq!(a.probes, r.probes, "probes");
                assert_eq!(a.shape, r.shape, "shape");
                assert_eq!(a.il_after_opt, r.il_after_opt, "il_after_opt");
                assert_eq!(a.llo_work_bytes, r.llo_work_bytes, "llo_work_bytes");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 768, ..ProptestConfig::default() })]

    #[test]
    fn generated_bodies_match_the_reference(seed in any::<u64>()) {
        let unit = host_program();
        let globals = GlobalLayout::new(&unit.program);
        let rid = unit.program.find_routine("callee").unwrap();
        check_body(&gen_body(seed), rid, &unit.program, &globals);
    }
}

/// A body with `gen_body`'s locals and the given blocks, each an
/// instruction list and a terminator, over vregs `0..n_vregs`.
fn planted(n_vregs: u32, blocks: Vec<(Vec<Instr>, Terminator)>) -> RoutineBody {
    let mut body = RoutineBody::new();
    for i in 0..N_SCALAR_LOCALS {
        body.new_local(VarTy::scalar(Ty::I64), i < 2);
    }
    body.new_local(VarTy::array(Ty::I64, 4), false);
    body.n_vregs = n_vregs;
    for (instrs, term) in blocks {
        let mut block = BlockData::new(term);
        block.instrs = instrs;
        body.blocks.push(block);
    }
    body
}

/// `k = const 2; t = add k, k; output t`: one fold, then `k` is dead.
fn folding(k: VReg, t: VReg) -> [Instr; 3] {
    [
        Instr::Const {
            dst: k,
            value: Const::I(2),
        },
        Instr::Bin {
            dst: t,
            op: BinOp::Add,
            lhs: k,
            rhs: k,
        },
        Instr::Output { src: t },
    ]
}

/// Control-flow shapes where a round of `optimize` that changed no
/// control flow still leaves work for the next `merge_blocks`, so the
/// next round must run, and one where a later round's merge exposes a
/// fold to re-propagation.
#[test]
fn rounds_that_leave_work_for_merge_blocks_match_the_reference() {
    let unit = host_program();
    let globals = GlobalLayout::new(&unit.program);
    let rid = unit.program.find_routine("callee").unwrap();
    let (i, d, k, t) = (VReg(0), VReg(1), VReg(2), VReg(3));
    let branch = |then_bb, else_bb| Terminator::Branch {
        cond: i,
        then_bb: Block(then_bb),
        else_bb: Block(else_bb),
    };
    let input = Instr::Input { dst: i };
    let bodies = [
        // The sweep empties block 1 (`d` is dead), which then threads.
        planted(
            2,
            vec![
                (vec![input], branch(1, 3)),
                (
                    vec![Instr::Const {
                        dst: d,
                        value: Const::I(5),
                    }],
                    Terminator::Jump(Block(2)),
                ),
                (vec![], Terminator::Return(Some(i))),
                (vec![Instr::Output { src: i }], branch(1, 2)),
            ],
        ),
        // Threading through the empty entry turns `br i, 0, 1` into
        // `br i, 1, 1`, which only the next round's merge normalizes.
        planted(
            4,
            vec![
                (vec![], Terminator::Jump(Block(1))),
                ([vec![input], folding(k, t).to_vec()].concat(), branch(0, 1)),
            ],
        ),
        // A cycle of empty blocks: threading stops inside it, at a
        // block the next round threads again.
        planted(
            4,
            vec![
                ([vec![input], folding(k, t).to_vec()].concat(), branch(1, 2)),
                (vec![], Terminator::Jump(Block(2))),
                (vec![], Terminator::Jump(Block(1))),
            ],
        ),
        // Block 1 merges into block 0 only in the second round, once the
        // first has folded block 0's branch and removed block 2; the
        // merged branch on `d` then folds, and `d` dies.
        planted(
            4,
            vec![
                (
                    vec![
                        Instr::Const {
                            dst: k,
                            value: Const::I(1),
                        },
                        Instr::Const {
                            dst: d,
                            value: Const::I(0),
                        },
                    ],
                    Terminator::Branch {
                        cond: k,
                        then_bb: Block(1),
                        else_bb: Block(2),
                    },
                ),
                (
                    vec![],
                    Terminator::Branch {
                        cond: d,
                        then_bb: Block(3),
                        else_bb: Block(4),
                    },
                ),
                (vec![input], Terminator::Jump(Block(1))),
                (vec![], Terminator::Return(None)),
                (vec![input], Terminator::Return(Some(i))),
            ],
        ),
    ];
    for body in &bodies {
        let mut optimized = body.clone();
        let stats = opt::optimize(&mut optimized);
        assert!(stats.folded + stats.dead > 0 && stats.branches + stats.unreachable > 0);
        check_body(body, rid, &unit.program, &globals);
    }
}

#[test]
fn mcad_routines_after_hlo_match_the_reference() {
    check_mcad_after_hlo(0.125);
}

/// The same at full scale, which alone has the largest routines (over a
/// hundred blocks, nearly 500 vregs). Run it in release:
/// `cargo test --release -p cmo-llo --test prop_llo_reference -- --ignored`.
#[test]
#[ignore = "full-scale mcad1; run in release with --ignored"]
fn mcad_routines_after_hlo_match_the_reference_at_full_scale() {
    let (blocks, vregs) = check_mcad_after_hlo(1.0);
    // Eighth scale tops out at 34 blocks and 280 vregs.
    assert!(
        blocks > 100 && vregs > 400,
        "largest: {blocks} blocks, {vregs} vregs"
    );
}

/// Every routine of `mcad1` at `scale`, after global folding and
/// inlining, through `check_body`; returns the most blocks and the
/// most vregs any routine had.
fn check_mcad_after_hlo(scale: f64) -> (usize, u32) {
    let app = cmo_synth::generate(&cmo_synth::mcad_preset("mcad1", scale));
    let objects = app
        .modules
        .iter()
        .map(|(name, src)| compile_module(name, src).unwrap())
        .collect();
    let unit = link_objects(objects).unwrap();
    let mut session = HloSession::new(unit, NaimConfig::default(), None).unwrap();
    let all: Vec<RoutineId> = (0..session.n_routines())
        .map(RoutineId::from_index)
        .collect();
    let facts = GlobalFacts::build(&mut session).unwrap();
    fold_globals(&mut session, &facts, &all).unwrap();
    session.unload_all().unwrap();
    // As the driver does without a profile: medium callees inline
    // everywhere, so LLO sees bodies grown by inlining.
    let inline = InlineOptions::default();
    let inline = InlineOptions {
        small_callee_il: inline.small_callee_il.max(80),
        ..inline
    };
    let stats = inline_pass(&mut session, &inline).unwrap();
    assert!(stats.inlines > 0, "HLO changed the bodies");
    session.unload_all().unwrap();
    let (program, bodies, _, _) = session.into_parts().unwrap();
    let globals = GlobalLayout::new(&program);
    assert!(bodies.len() > 50);
    for (i, body) in bodies.iter().enumerate() {
        check_body(body, RoutineId::from_index(i), &program, &globals);
    }
    let blocks = bodies.iter().map(|b| b.blocks.len()).max().unwrap();
    (blocks, bodies.iter().map(|b| b.n_vregs).max().unwrap())
}
