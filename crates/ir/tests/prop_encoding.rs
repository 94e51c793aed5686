//! Property tests: the relocatable encoding (§4.2) is a faithful
//! bijection on arbitrary well-formed IR, and corrupt images never
//! panic.

use cmo_ir::{
    ArgSpan, BinOp, Block, BlockData, CallSiteId, Const, GlobalId, GlobalInit, GlobalRef,
    GlobalVar, IlObject, Instr, Linkage, Local, MemBase, ModuleSymbols, RoutineBody, RoutineId,
    Sym, Terminator, Transitory, Ty, UnOp, VReg, VarTy,
};
use cmo_naim::{Decoder, Encoder, Relocatable};
use proptest::prelude::*;

fn arb_const() -> impl Strategy<Value = Const> {
    prop_oneof![
        any::<i64>().prop_map(Const::I),
        any::<f64>().prop_map(Const::F),
    ]
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Rem),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::FAdd),
        Just(BinOp::FSub),
        Just(BinOp::FMul),
        Just(BinOp::FDiv),
        Just(BinOp::FLt),
        Just(BinOp::FEq),
    ]
}

fn arb_unop() -> impl Strategy<Value = UnOp> {
    prop_oneof![
        Just(UnOp::Neg),
        Just(UnOp::Not),
        Just(UnOp::FNeg),
        Just(UnOp::I2F),
        Just(UnOp::F2I),
    ]
}

fn arb_global_ref() -> impl Strategy<Value = GlobalRef> {
    prop_oneof![
        (0u32..1000).prop_map(|i| GlobalRef::Name(Sym(i))),
        (0u32..1000).prop_map(|i| GlobalRef::Id(GlobalId(i))),
    ]
}

fn arb_mem_base() -> impl Strategy<Value = MemBase> {
    prop_oneof![
        (0u32..64).prop_map(|i| MemBase::Local(Local(i))),
        arb_global_ref().prop_map(MemBase::Global),
    ]
}

fn vreg() -> impl Strategy<Value = VReg> {
    (0u32..256).prop_map(VReg)
}

/// An instruction, and a call's arguments for [`arb_body`] to pool.
fn arb_instr() -> impl Strategy<Value = (Instr, Vec<VReg>)> {
    let plain = prop_oneof![
        (vreg(), arb_const()).prop_map(|(dst, value)| Instr::Const { dst, value }),
        (vreg(), arb_binop(), vreg(), vreg()).prop_map(|(dst, op, lhs, rhs)| Instr::Bin {
            dst,
            op,
            lhs,
            rhs
        }),
        (vreg(), arb_unop(), vreg()).prop_map(|(dst, op, src)| Instr::Un { dst, op, src }),
        (vreg(), vreg()).prop_map(|(dst, src)| Instr::Mov { dst, src }),
        (vreg(), 0u32..64).prop_map(|(dst, l)| Instr::LoadLocal {
            dst,
            local: Local(l)
        }),
        (0u32..64, vreg()).prop_map(|(l, src)| Instr::StoreLocal {
            local: Local(l),
            src
        }),
        (vreg(), arb_global_ref()).prop_map(|(dst, global)| Instr::LoadGlobal { dst, global }),
        (arb_global_ref(), vreg()).prop_map(|(global, src)| Instr::StoreGlobal { global, src }),
        (vreg(), arb_mem_base(), vreg()).prop_map(|(dst, base, index)| Instr::LoadElem {
            dst,
            base,
            index
        }),
        (arb_mem_base(), vreg(), vreg()).prop_map(|(base, index, src)| Instr::StoreElem {
            base,
            index,
            src
        }),
        vreg().prop_map(|dst| Instr::Input { dst }),
        vreg().prop_map(|src| Instr::Output { src }),
    ];
    let call = (
        proptest::option::of(vreg()),
        0u32..500,
        proptest::collection::vec(vreg(), 0..=cmo_ir::MAX_CALL_ARGS),
        0u32..64,
    )
        .prop_map(|(dst, callee, args, site)| {
            let call = Instr::Call {
                dst: dst.into(),
                callee: cmo_ir::CalleeRef::Id(RoutineId(callee)),
                args: ArgSpan::default(),
                site: CallSiteId(site),
            };
            (call, args)
        });
    // One call in thirteen, as when calls were one arm of thirteen.
    (0u32..13, plain, call).prop_map(
        |(pick, plain, call)| {
            if pick == 0 {
                call
            } else {
                (plain, Vec::new())
            }
        },
    )
}

fn arb_term(n_blocks: u32) -> impl Strategy<Value = Terminator> {
    prop_oneof![
        (0..n_blocks).prop_map(|b| Terminator::Jump(Block(b))),
        (vreg(), 0..n_blocks, 0..n_blocks).prop_map(|(cond, t, e)| Terminator::Branch {
            cond,
            then_bb: Block(t),
            else_bb: Block(e),
        }),
        proptest::option::of(vreg()).prop_map(Terminator::Return),
    ]
}

prop_compose! {
    fn arb_body()(n_blocks in 1u32..8)(
        blocks in proptest::collection::vec(
            (proptest::collection::vec(arb_instr(), 0..12), arb_term(n_blocks)),
            n_blocks as usize..=n_blocks as usize,
        ),
        locals in proptest::collection::vec(
            prop_oneof![
                Just(VarTy::scalar(Ty::I64)),
                Just(VarTy::scalar(Ty::F64)),
                (1u32..32).prop_map(|n| VarTy::array(Ty::I64, n)),
                (1u32..32).prop_map(|n| VarTy::array(Ty::F64, n)),
            ],
            0..8,
        ),
        // Pool entries no call names, as a deleted call leaves them.
        junk in proptest::collection::vec(vreg(), 0..4),
    ) -> RoutineBody {
        let mut body = RoutineBody::new();
        for ty in locals {
            body.new_local(ty, false);
        }
        // Instructions name locals below 64, and the decoder rejects a
        // local the body does not declare.
        while body.locals.len() < 64 {
            body.new_local(VarTy::scalar(Ty::I64), false);
        }
        for (instrs, term) in blocks {
            let mut block = BlockData::new(term);
            for (mut instr, regs) in instrs {
                if let Instr::Call { args, .. } = &mut instr {
                    body.args.extend(&junk);
                    *args = body.push_args(regs);
                }
                block.instrs.push(instr);
            }
            body.blocks.push(block);
        }
        body.n_vregs = 256;
        body.next_site = 64;
        body
    }
}

fn arb_symtab() -> impl Strategy<Value = ModuleSymbols> {
    proptest::collection::vec(
        (
            0u32..1000,
            prop_oneof![
                Just(GlobalInit::Zero),
                arb_const().prop_map(GlobalInit::Scalar),
                proptest::collection::vec(any::<i64>(), 0..20).prop_map(GlobalInit::IntArray),
                proptest::collection::vec(any::<f64>(), 0..20).prop_map(GlobalInit::FloatArray),
            ],
            any::<bool>(),
        ),
        0..10,
    )
    .prop_map(|entries| ModuleSymbols {
        globals: entries
            .into_iter()
            .map(|(name, init, exported)| {
                let ty = match &init {
                    GlobalInit::IntArray(v) => VarTy::array(Ty::I64, v.len().max(1) as u32),
                    GlobalInit::FloatArray(v) => VarTy::array(Ty::F64, v.len().max(1) as u32),
                    GlobalInit::Scalar(Const::F(_)) => VarTy::scalar(Ty::F64),
                    _ => VarTy::scalar(Ty::I64),
                };
                GlobalVar {
                    name: Sym(name),
                    ty,
                    linkage: if exported {
                        Linkage::Export
                    } else {
                        Linkage::Internal
                    },
                    init,
                }
            })
            .collect(),
    })
}

/// Only the in-memory form moved when call arguments went to a pool:
/// every module object of full-scale `mcad1` decodes and encodes back
/// to its own bytes, and so does each routine body as a NAIM pool.
#[test]
fn every_full_scale_mcad1_object_re_encodes_byte_for_byte() {
    let app = cmo_synth::generate(&cmo_synth::mcad_preset("mcad1", 1.0));
    let mut calls = 0;
    for (name, src) in &app.modules {
        let bytes = cmo_frontend::compile_module(name, src).unwrap().to_bytes();
        let object = IlObject::from_bytes(&bytes).unwrap();
        assert_eq!(object.to_bytes(), bytes, "{name}");
        for r in object.routines {
            calls += r.body.args.len();
            let pool = Transitory::Routine(r.body);
            let mut enc = Encoder::new();
            pool.compact(&mut enc);
            let compact = enc.into_bytes();
            let back = Transitory::uncompact(&mut Decoder::new(&compact)).unwrap();
            assert_eq!(back, pool, "{name}");
            let mut again = Encoder::new();
            back.compact(&mut again);
            assert_eq!(again.into_bytes(), compact, "{name}");
        }
    }
    assert!(calls > 1000, "{calls} call arguments");
}

fn bits_eq(a: &Transitory, b: &Transitory) -> bool {
    // Float payloads must survive bit-exactly (NaN included), which
    // `PartialEq` on f64 does not capture; compare via re-encoding.
    let mut ea = Encoder::new();
    let mut eb = Encoder::new();
    a.compact(&mut ea);
    b.compact(&mut eb);
    ea.into_bytes() == eb.into_bytes()
}

proptest! {
    #[test]
    fn routine_bodies_round_trip(body in arb_body()) {
        let t = Transitory::Routine(body);
        let mut enc = Encoder::new();
        t.compact(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = Transitory::uncompact(&mut dec).expect("decode");
        prop_assert!(dec.is_at_end(), "trailing bytes after decode");
        prop_assert!(bits_eq(&t, &back));
        // The pool comes back holding exactly what the calls pass.
        let live: usize = t.routine().blocks.iter().flat_map(|b| &b.instrs).map(|i| match i {
            Instr::Call { args, .. } => args.len(),
            _ => 0,
        }).sum();
        prop_assert_eq!(back.routine().args.len(), live);
    }

    #[test]
    fn symbol_tables_round_trip(st in arb_symtab()) {
        let t = Transitory::SymTab(st);
        let mut enc = Encoder::new();
        t.compact(&mut enc);
        let bytes = enc.into_bytes();
        let back = Transitory::uncompact(&mut Decoder::new(&bytes)).expect("decode");
        prop_assert!(bits_eq(&t, &back));
    }

    #[test]
    fn truncated_images_error_instead_of_panicking(
        body in arb_body(),
        cut in 0usize..200,
    ) {
        let t = Transitory::Routine(body);
        let mut enc = Encoder::new();
        t.compact(&mut enc);
        let mut bytes = enc.into_bytes();
        if cut < bytes.len() {
            bytes.truncate(cut);
            // Must return Err or Ok (if the prefix happens to decode),
            // never panic.
            let _ = Transitory::uncompact(&mut Decoder::new(&bytes));
        }
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Transitory::uncompact(&mut Decoder::new(&bytes));
    }

    #[test]
    fn expanded_form_never_beats_compact_form(body in arb_body()) {
        // The §4.2.2 claim: compaction shrinks. Guarantee at least
        // no-growth for arbitrary IR (typical IR shrinks 2-4x).
        let t = Transitory::Routine(body);
        let mut enc = Encoder::new();
        t.compact(&mut enc);
        prop_assert!(enc.len() <= t.expanded_bytes().max(64));
    }
}
