//! Deterministic binary codec for linked machine images.
//!
//! The incremental-build cache stores whole [`MachineImage`]s in the
//! persistent NAIM repository, so images need a relocatable byte form
//! with the same guarantees as pool images: address-independent, varint
//! packed, and bit-exact on round trip (floats travel as raw bit
//! patterns). The encoding reuses the `cmo-naim` [`Encoder`]/[`Decoder`]
//! primitives rather than inventing another format.

use cmo_ir::{BinOp, UnOp};
use cmo_naim::{DecodeError, Decoder, Encoder};
use cmo_profile::{ProbeKey, ProbeKind, RoutineShape};

use crate::image::{MRoutineInfo, MachineImage};
use crate::minstr::{CallArgs, MInstr, Reg, MAX_CALL_ARGS};

/// Magic prefix of a standalone encoded machine image.
pub const IMAGE_MAGIC: [u8; 8] = *b"CMOIMG01";

/// Decode table for binary operators; the encoded form is the index.
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

/// Decode table for unary operators; the encoded form is the index.
const UN_OPS: [UnOp; 5] = [UnOp::Neg, UnOp::Not, UnOp::FNeg, UnOp::I2F, UnOp::F2I];

/// The encoded form of a binary operator: its index in [`BIN_OPS`].
fn bin_code(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
        BinOp::Eq => 10,
        BinOp::Ne => 11,
        BinOp::Lt => 12,
        BinOp::Le => 13,
        BinOp::FAdd => 14,
        BinOp::FSub => 15,
        BinOp::FMul => 16,
        BinOp::FDiv => 17,
        BinOp::FLt => 18,
        BinOp::FEq => 19,
    }
}

/// The encoded form of a unary operator: its index in [`UN_OPS`].
fn un_code(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
        UnOp::FNeg => 2,
        UnOp::I2F => 3,
        UnOp::F2I => 4,
    }
}

fn op_decode<T: Copy>(table: &[T], code: u8, at: usize) -> Result<T, DecodeError> {
    table
        .get(code as usize)
        .copied()
        .ok_or(DecodeError::BadTag {
            tag: code,
            offset: at,
        })
}

#[inline]
fn write_reg(enc: &mut Encoder, r: Reg) {
    enc.write_u8(r.0);
}

#[inline]
fn read_reg(dec: &mut Decoder<'_>) -> Result<Reg, DecodeError> {
    Ok(Reg(dec.read_u8()?))
}

fn write_opt_reg(enc: &mut Encoder, r: Option<Reg>) {
    match r {
        Some(r) => {
            enc.write_bool(true);
            write_reg(enc, r);
        }
        None => enc.write_bool(false),
    }
}

fn read_opt_reg(dec: &mut Decoder<'_>) -> Result<Option<Reg>, DecodeError> {
    Ok(if dec.read_bool()? {
        Some(read_reg(dec)?)
    } else {
        None
    })
}

/// Appends one instruction's relocatable encoding to `enc` — the
/// per-instruction half of [`MachineImage::encode`], shared with the
/// LLO code tier so lowered routines and linked images agree on one
/// instruction format.
pub fn encode_instr(enc: &mut Encoder, instr: &MInstr) {
    match instr {
        MInstr::LdImm { dst, value } => {
            enc.write_u8(0);
            write_reg(enc, *dst);
            enc.write_i64(*value);
        }
        MInstr::LdImmF { dst, value } => {
            enc.write_u8(1);
            write_reg(enc, *dst);
            enc.write_f64(*value);
        }
        MInstr::Bin { op, dst, lhs, rhs } => {
            enc.write_u8(2);
            enc.write_u8(bin_code(*op));
            write_reg(enc, *dst);
            write_reg(enc, *lhs);
            write_reg(enc, *rhs);
        }
        MInstr::Un { op, dst, src } => {
            enc.write_u8(3);
            enc.write_u8(un_code(*op));
            write_reg(enc, *dst);
            write_reg(enc, *src);
        }
        MInstr::Mov { dst, src } => {
            enc.write_u8(4);
            write_reg(enc, *dst);
            write_reg(enc, *src);
        }
        MInstr::LdSlot { dst, slot } => {
            enc.write_u8(5);
            write_reg(enc, *dst);
            enc.write_u32(*slot);
        }
        MInstr::StSlot { slot, src } => {
            enc.write_u8(6);
            enc.write_u32(*slot);
            write_reg(enc, *src);
        }
        MInstr::LdGlobal { dst, addr } => {
            enc.write_u8(7);
            write_reg(enc, *dst);
            enc.write_u32(*addr);
        }
        MInstr::StGlobal { addr, src } => {
            enc.write_u8(8);
            enc.write_u32(*addr);
            write_reg(enc, *src);
        }
        MInstr::LdGlobalElem {
            dst,
            base,
            len,
            index,
        } => {
            enc.write_u8(9);
            write_reg(enc, *dst);
            enc.write_u32(*base);
            enc.write_u32(*len);
            write_reg(enc, *index);
        }
        MInstr::StGlobalElem {
            base,
            len,
            index,
            src,
        } => {
            enc.write_u8(10);
            enc.write_u32(*base);
            enc.write_u32(*len);
            write_reg(enc, *index);
            write_reg(enc, *src);
        }
        MInstr::LdSlotElem {
            dst,
            base_slot,
            len,
            index,
        } => {
            enc.write_u8(11);
            write_reg(enc, *dst);
            enc.write_u32(*base_slot);
            enc.write_u32(*len);
            write_reg(enc, *index);
        }
        MInstr::StSlotElem {
            base_slot,
            len,
            index,
            src,
        } => {
            enc.write_u8(12);
            enc.write_u32(*base_slot);
            enc.write_u32(*len);
            write_reg(enc, *index);
            write_reg(enc, *src);
        }
        MInstr::Call { routine, args, dst } => {
            enc.write_u8(13);
            enc.write_u32(*routine);
            enc.write_usize(args.len());
            for &a in args.iter() {
                write_reg(enc, a);
            }
            write_opt_reg(enc, *dst);
        }
        MInstr::Ret { value } => {
            enc.write_u8(14);
            write_opt_reg(enc, *value);
        }
        MInstr::Jmp { target } => {
            enc.write_u8(15);
            enc.write_u32(*target);
        }
        MInstr::Br { cond, target } => {
            enc.write_u8(16);
            write_reg(enc, *cond);
            enc.write_u32(*target);
        }
        MInstr::Probe { id } => {
            enc.write_u8(17);
            enc.write_u32(*id);
        }
        MInstr::Input { dst } => {
            enc.write_u8(18);
            write_reg(enc, *dst);
        }
        MInstr::Output { src } => {
            enc.write_u8(19);
            write_reg(enc, *src);
        }
        MInstr::Halt => enc.write_u8(20),
    }
}

/// Decodes one instruction written by [`encode_instr`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, an unknown tag, or a call
/// with more than [`MAX_CALL_ARGS`] arguments.
pub fn decode_instr(dec: &mut Decoder<'_>) -> Result<MInstr, DecodeError> {
    let at = dec.position();
    let tag = dec.read_u8()?;
    Ok(match tag {
        0 => MInstr::LdImm {
            dst: read_reg(dec)?,
            value: dec.read_i64()?,
        },
        1 => MInstr::LdImmF {
            dst: read_reg(dec)?,
            value: dec.read_f64()?,
        },
        2 => {
            let op_at = dec.position();
            let op = op_decode(&BIN_OPS, dec.read_u8()?, op_at)?;
            MInstr::Bin {
                op,
                dst: read_reg(dec)?,
                lhs: read_reg(dec)?,
                rhs: read_reg(dec)?,
            }
        }
        3 => {
            let op_at = dec.position();
            let op = op_decode(&UN_OPS, dec.read_u8()?, op_at)?;
            MInstr::Un {
                op,
                dst: read_reg(dec)?,
                src: read_reg(dec)?,
            }
        }
        4 => MInstr::Mov {
            dst: read_reg(dec)?,
            src: read_reg(dec)?,
        },
        5 => MInstr::LdSlot {
            dst: read_reg(dec)?,
            slot: dec.read_u32()?,
        },
        6 => MInstr::StSlot {
            slot: dec.read_u32()?,
            src: read_reg(dec)?,
        },
        7 => MInstr::LdGlobal {
            dst: read_reg(dec)?,
            addr: dec.read_u32()?,
        },
        8 => MInstr::StGlobal {
            addr: dec.read_u32()?,
            src: read_reg(dec)?,
        },
        9 => MInstr::LdGlobalElem {
            dst: read_reg(dec)?,
            base: dec.read_u32()?,
            len: dec.read_u32()?,
            index: read_reg(dec)?,
        },
        10 => MInstr::StGlobalElem {
            base: dec.read_u32()?,
            len: dec.read_u32()?,
            index: read_reg(dec)?,
            src: read_reg(dec)?,
        },
        11 => MInstr::LdSlotElem {
            dst: read_reg(dec)?,
            base_slot: dec.read_u32()?,
            len: dec.read_u32()?,
            index: read_reg(dec)?,
        },
        12 => MInstr::StSlotElem {
            base_slot: dec.read_u32()?,
            len: dec.read_u32()?,
            index: read_reg(dec)?,
            src: read_reg(dec)?,
        },
        13 => {
            let routine = dec.read_u32()?;
            let n = dec.read_usize()?;
            if n > MAX_CALL_ARGS {
                return Err(DecodeError::Corrupt {
                    what: "call arity above MAX_CALL_ARGS",
                });
            }
            let mut args = CallArgs::default();
            for _ in 0..n {
                args.push(read_reg(dec)?);
            }
            MInstr::Call {
                routine,
                args,
                dst: read_opt_reg(dec)?,
            }
        }
        14 => MInstr::Ret {
            value: read_opt_reg(dec)?,
        },
        15 => MInstr::Jmp {
            target: dec.read_u32()?,
        },
        16 => MInstr::Br {
            cond: read_reg(dec)?,
            target: dec.read_u32()?,
        },
        17 => MInstr::Probe {
            id: dec.read_u32()?,
        },
        18 => MInstr::Input {
            dst: read_reg(dec)?,
        },
        19 => MInstr::Output {
            src: read_reg(dec)?,
        },
        20 => MInstr::Halt,
        tag => return Err(DecodeError::BadTag { tag, offset: at }),
    })
}

impl MachineImage {
    /// Appends the image's relocatable encoding to `enc`.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.write_usize(self.code.len());
        for instr in &self.code {
            encode_instr(enc, instr);
        }
        enc.write_usize(self.routines.len());
        for r in &self.routines {
            enc.write_str(&r.name);
            enc.write_u32(r.entry);
            enc.write_u32(r.frame_slots);
            enc.write_u32(r.code_len);
        }
        enc.write_usize(self.globals.len());
        for &g in &self.globals {
            enc.write_u64(g);
        }
        enc.write_usize(self.probes.len());
        for p in &self.probes {
            enc.write_str(&p.routine);
            match p.kind {
                ProbeKind::Block(n) => {
                    enc.write_u8(0);
                    enc.write_u32(n);
                }
                ProbeKind::Site(n) => {
                    enc.write_u8(1);
                    enc.write_u32(n);
                }
            }
        }
        enc.write_usize(self.shapes.len());
        for (name, shape) in &self.shapes {
            enc.write_str(name);
            enc.write_u32(shape.n_blocks);
            enc.write_u32(shape.n_sites);
            enc.write_u64(shape.fingerprint);
        }
        enc.write_u32(self.entry_routine);
    }

    /// Decodes an image previously written by [`MachineImage::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation, unknown tags, or
    /// malformed fields; no stated count sizes an allocation beyond the
    /// bytes that are left.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        // Every element of every table takes at least a byte, so the
        // bytes left bound what a stated count can honestly ask for.
        let n_code = dec.read_usize()?;
        let mut code = Vec::with_capacity(n_code.min(dec.remaining()));
        for _ in 0..n_code {
            code.push(decode_instr(dec)?);
        }
        let n_routines = dec.read_usize()?;
        let mut routines = Vec::with_capacity(n_routines.min(dec.remaining()));
        for _ in 0..n_routines {
            routines.push(MRoutineInfo {
                name: dec.read_str()?.to_owned(),
                entry: dec.read_u32()?,
                frame_slots: dec.read_u32()?,
                code_len: dec.read_u32()?,
            });
        }
        let n_globals = dec.read_usize()?;
        let mut globals = Vec::with_capacity(n_globals.min(dec.remaining()));
        for _ in 0..n_globals {
            globals.push(dec.read_u64()?);
        }
        let n_probes = dec.read_usize()?;
        let mut probes = Vec::with_capacity(n_probes.min(dec.remaining()));
        for _ in 0..n_probes {
            let routine = dec.read_str()?.to_owned();
            let at = dec.position();
            let kind = match dec.read_u8()? {
                0 => ProbeKind::Block(dec.read_u32()?),
                1 => ProbeKind::Site(dec.read_u32()?),
                tag => return Err(DecodeError::BadTag { tag, offset: at }),
            };
            probes.push(ProbeKey { routine, kind });
        }
        let n_shapes = dec.read_usize()?;
        let mut shapes = Vec::with_capacity(n_shapes.min(dec.remaining()));
        for _ in 0..n_shapes {
            let name = dec.read_str()?.to_owned();
            let shape = RoutineShape {
                n_blocks: dec.read_u32()?,
                n_sites: dec.read_u32()?,
                fingerprint: dec.read_u64()?,
            };
            shapes.push((name, shape));
        }
        let entry_routine = dec.read_u32()?;
        Ok(MachineImage {
            code,
            routines,
            globals,
            probes,
            shapes,
            entry_routine,
        })
    }

    /// Serializes the image as a standalone byte string with the
    /// [`IMAGE_MAGIC`] prefix.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(self.code.len() * 4 + 64);
        for &b in &IMAGE_MAGIC {
            enc.write_u8(b);
        }
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Parses a byte string produced by [`MachineImage::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on a missing magic prefix, truncation,
    /// or trailing garbage.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() < IMAGE_MAGIC.len() || bytes[..IMAGE_MAGIC.len()] != IMAGE_MAGIC {
            return Err(DecodeError::Corrupt {
                what: "missing machine-image magic",
            });
        }
        let mut dec = Decoder::new(&bytes[IMAGE_MAGIC.len()..]);
        let image = MachineImage::decode(&mut dec)?;
        if !dec.is_at_end() {
            return Err(DecodeError::Corrupt {
                what: "trailing bytes after machine image",
            });
        }
        Ok(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exhaustive_image() -> MachineImage {
        let code = vec![
            MInstr::LdImm {
                dst: Reg(0),
                value: -42,
            },
            MInstr::LdImmF {
                dst: Reg(1),
                value: -1.5,
            },
            MInstr::Bin {
                op: BinOp::FMul,
                dst: Reg(2),
                lhs: Reg(0),
                rhs: Reg(1),
            },
            MInstr::Un {
                op: UnOp::F2I,
                dst: Reg(3),
                src: Reg(2),
            },
            MInstr::Mov {
                dst: Reg(4),
                src: Reg(3),
            },
            MInstr::LdSlot {
                dst: Reg(5),
                slot: 9,
            },
            MInstr::StSlot {
                slot: 9,
                src: Reg(5),
            },
            MInstr::LdGlobal {
                dst: Reg(6),
                addr: 100,
            },
            MInstr::StGlobal {
                addr: 100,
                src: Reg(6),
            },
            MInstr::LdGlobalElem {
                dst: Reg(7),
                base: 4,
                len: 16,
                index: Reg(0),
            },
            MInstr::StGlobalElem {
                base: 4,
                len: 16,
                index: Reg(0),
                src: Reg(7),
            },
            MInstr::LdSlotElem {
                dst: Reg(8),
                base_slot: 2,
                len: 8,
                index: Reg(1),
            },
            MInstr::StSlotElem {
                base_slot: 2,
                len: 8,
                index: Reg(1),
                src: Reg(8),
            },
            MInstr::Call {
                routine: 1,
                args: [Reg(0), Reg(1)].into_iter().collect(),
                dst: Some(Reg(9)),
            },
            MInstr::Call {
                routine: 0,
                args: CallArgs::default(),
                dst: None,
            },
            MInstr::Ret {
                value: Some(Reg(9)),
            },
            MInstr::Ret { value: None },
            MInstr::Jmp { target: 3 },
            MInstr::Br {
                cond: Reg(9),
                target: 0,
            },
            MInstr::Probe { id: 2 },
            MInstr::Input { dst: Reg(10) },
            MInstr::Output { src: Reg(10) },
            MInstr::Halt,
        ];
        MachineImage {
            code,
            routines: vec![
                MRoutineInfo {
                    name: "main".into(),
                    entry: 0,
                    frame_slots: 12,
                    code_len: 20,
                },
                MRoutineInfo {
                    name: "helper\"q\"".into(),
                    entry: 20,
                    frame_slots: 3,
                    code_len: 3,
                },
            ],
            globals: vec![0, u64::MAX, 7],
            probes: vec![ProbeKey::block("main", 0), ProbeKey::site("main", 1)],
            shapes: vec![(
                "main".into(),
                RoutineShape {
                    n_blocks: 4,
                    n_sites: 2,
                    fingerprint: 0xdead_beef,
                },
            )],
            entry_routine: 0,
        }
    }

    #[test]
    fn image_round_trips_every_instruction() {
        let image = exhaustive_image();
        let bytes = image.to_bytes();
        let back = MachineImage::from_bytes(&bytes).unwrap();
        assert_eq!(back.code, image.code);
        assert_eq!(back.routines, image.routines);
        assert_eq!(back.globals, image.globals);
        assert_eq!(back.probes, image.probes);
        assert_eq!(back.shapes, image.shapes);
        assert_eq!(back.entry_routine, image.entry_routine);
    }

    #[test]
    fn encoding_is_deterministic() {
        let image = exhaustive_image();
        assert_eq!(image.to_bytes(), image.to_bytes());
    }

    #[test]
    fn float_immediates_survive_bit_exact() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE] {
            let image = MachineImage {
                code: vec![MInstr::LdImmF {
                    dst: Reg(0),
                    value: v,
                }],
                ..MachineImage::default()
            };
            let back = MachineImage::from_bytes(&image.to_bytes()).unwrap();
            match back.code[0] {
                MInstr::LdImmF { value, .. } => assert_eq!(value.to_bits(), v.to_bits()),
                ref other => panic!("unexpected instr {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_bytes_are_rejected() {
        let image = exhaustive_image();
        let mut bytes = image.to_bytes();
        assert!(MachineImage::from_bytes(&bytes[..10]).is_err());
        assert!(MachineImage::from_bytes(b"not an image").is_err());
        bytes[8] = 0xff; // mangle the code-count varint chain
        assert!(MachineImage::from_bytes(&bytes).is_err());
    }
}
