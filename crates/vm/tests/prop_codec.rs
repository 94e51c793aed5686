//! The instruction codec round-trips every one of its 21 variants,
//! calls of every arity from 0 to `MAX_CALL_ARGS`, and float
//! immediates bit for bit (NaN payloads included).

use cmo_ir::{BinOp, UnOp};
use cmo_vm::{
    decode_instr, encode_instr, Decoder, Encoder, MInstr, MachineImage, Reg, MAX_CALL_ARGS,
    NUM_REGS,
};
use proptest::prelude::*;

const BIN_OPS: [BinOp; 20] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::FAdd,
    BinOp::FSub,
    BinOp::FMul,
    BinOp::FDiv,
    BinOp::FLt,
    BinOp::FEq,
];
const UN_OPS: [UnOp; 5] = [UnOp::Neg, UnOp::Not, UnOp::FNeg, UnOp::I2F, UnOp::F2I];
const VARIANTS: u8 = 21;

/// The instruction of variant `tag` (the encoding's tag byte), its
/// fields drawn from `w` (two raw words) and `r` (registers); a call
/// passes `r[..n_args]`.
fn instr_of(tag: u8, w: [u64; 2], r: [Reg; MAX_CALL_ARGS], n_args: usize) -> MInstr {
    let (x, y) = (w[0] as u32, (w[0] >> 32) as u32);
    let z = w[1] as u32;
    match tag {
        0 => MInstr::LdImm {
            dst: r[0],
            value: w[1] as i64,
        },
        1 => MInstr::LdImmF {
            dst: r[0],
            value: f64::from_bits(w[1]),
        },
        2 => MInstr::Bin {
            op: BIN_OPS[w[0] as usize % BIN_OPS.len()],
            dst: r[0],
            lhs: r[1],
            rhs: r[2],
        },
        3 => MInstr::Un {
            op: UN_OPS[w[0] as usize % UN_OPS.len()],
            dst: r[0],
            src: r[1],
        },
        4 => MInstr::Mov {
            dst: r[0],
            src: r[1],
        },
        5 => MInstr::LdSlot { dst: r[0], slot: x },
        6 => MInstr::StSlot { slot: x, src: r[0] },
        7 => MInstr::LdGlobal { dst: r[0], addr: x },
        8 => MInstr::StGlobal { addr: x, src: r[0] },
        9 => MInstr::LdGlobalElem {
            dst: r[0],
            base: x,
            len: y,
            index: r[1],
        },
        10 => MInstr::StGlobalElem {
            base: x,
            len: y,
            index: r[0],
            src: r[1],
        },
        11 => MInstr::LdSlotElem {
            dst: r[0],
            base_slot: x,
            len: y,
            index: r[1],
        },
        12 => MInstr::StSlotElem {
            base_slot: x,
            len: y,
            index: r[0],
            src: r[1],
        },
        13 => MInstr::Call {
            routine: z,
            args: r[..n_args].iter().copied().collect(),
            dst: (w[0] & 1 == 1).then_some(r[7]),
        },
        14 => MInstr::Ret {
            value: (w[0] & 1 == 1).then_some(r[0]),
        },
        15 => MInstr::Jmp { target: x },
        16 => MInstr::Br {
            cond: r[0],
            target: x,
        },
        17 => MInstr::Probe { id: x },
        18 => MInstr::Input { dst: r[0] },
        19 => MInstr::Output { src: r[0] },
        20 => MInstr::Halt,
        _ => unreachable!("{VARIANTS} variants"),
    }
}

/// Encodes `code`, checks that decoding gives back the same bytes and
/// (floats compared by bit pattern) the same instructions, one at a
/// time and as an image.
fn round_trip(code: &[MInstr]) {
    let mut enc = Encoder::new();
    for instr in code {
        encode_instr(&mut enc, instr);
    }
    let bytes = enc.into_bytes();
    let mut dec = Decoder::new(&bytes);
    let mut back = Vec::new();
    while !dec.is_at_end() {
        back.push(decode_instr(&mut dec).expect("decodes"));
    }
    let mut again = Encoder::new();
    for instr in &back {
        encode_instr(&mut again, instr);
    }
    assert_eq!(again.into_bytes(), bytes);
    assert_eq!(back.len(), code.len());
    for (got, want) in back.iter().zip(code) {
        match (got, want) {
            (MInstr::LdImmF { dst: a, value: x }, MInstr::LdImmF { dst: b, value: y }) => {
                assert_eq!((a, x.to_bits()), (b, y.to_bits()));
            }
            _ => assert_eq!(got, want),
        }
    }
    let image = MachineImage {
        code: code.to_vec(),
        ..MachineImage::default()
    };
    let image_bytes = image.to_bytes();
    let decoded = MachineImage::from_bytes(&image_bytes).expect("image decodes");
    assert_eq!(decoded.to_bytes(), image_bytes);
}

#[test]
fn every_variant_and_every_arity_round_trips() {
    let regs: [Reg; MAX_CALL_ARGS] = std::array::from_fn(|i| Reg(31 - i as u8));
    let mut code = Vec::new();
    for tag in 0..VARIANTS {
        for w in [[0, 0], [u64::MAX, u64::MAX], [0x1234_5678_9abc_def1, 1]] {
            code.push(instr_of(tag, w, regs, MAX_CALL_ARGS));
        }
    }
    for n in 0..=MAX_CALL_ARGS {
        code.push(instr_of(13, [1, 7], regs, n));
        code.push(instr_of(13, [0, 7], regs, n));
    }
    round_trip(&code);
    let arities: Vec<usize> = code
        .iter()
        .filter_map(|i| match i {
            MInstr::Call { args, .. } => Some(args.len()),
            _ => None,
        })
        .collect();
    assert!((0..=MAX_CALL_ARGS).all(|n| arities.contains(&n)));
}

fn arb_instr() -> impl Strategy<Value = MInstr> {
    (
        0u8..VARIANTS,
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(0u8..NUM_REGS as u8, MAX_CALL_ARGS),
        0usize..=MAX_CALL_ARGS,
    )
        .prop_map(|(tag, w0, w1, regs, n_args)| {
            let regs: [Reg; MAX_CALL_ARGS] = std::array::from_fn(|i| Reg(regs[i]));
            instr_of(tag, [w0, w1], regs, n_args)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn random_code_round_trips(code in proptest::collection::vec(arb_instr(), 1..64)) {
        round_trip(&code);
    }
}
