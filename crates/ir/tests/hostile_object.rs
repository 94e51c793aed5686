//! Hostile bytes for the IL decoders — `IlObject::from_bytes`, behind
//! every `.cmo` input and module-tier cache hit, and
//! `Transitory::uncompact`, behind every NAIM re-expansion: a real
//! object cut short or with a byte flipped decodes to `Ok` or to a
//! typed error — never a panic or a hang — and no stated count or
//! length makes either allocate more than a small multiple of the bytes
//! it was given.
//!
//! Deliberate mutations of `crates/ir/src/relocs.rs` and `object.rs`
//! this file catches: the arity check dropped from `decode_instr` (a
//! nine-argument call decodes, to reach the backend's assertion later)
//! → `a_ninth_argument_or_parameter_is_a_typed_error`; any table's
//! capacity — routines, globals, locals, blocks, instructions, array
//! initializers — taken from its stated count instead of the bytes left
//! → `count_and_length_bombs_allocate_a_bounded_amount`; any operand
//! bound dropped from `decode_body` (no blocks, register, local, branch
//! target, call destination) → `operands_outside_the_body_are_typed_errors`.
//! And of `link.rs`, caught by the flips that link: a symbol looked up
//! without its range check (an index panic), the call-site order check
//! or the local shape check dropped (a linked program `validate_unit`
//! rejects).

use cmo_ir::validate::validate_unit;
use cmo_ir::{link_objects, IlObject, ObjectDecodeError, Transitory, IL_MAGIC, MAX_CALL_ARGS};
use cmo_naim::{DecodeError, Decoder, Encoder, Relocatable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn charge(bytes: usize) {
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes as u64));
}

/// The system allocator, counting per thread the bytes each allocation
/// and reallocation asks for, so tests running side by side do not see
/// each other's.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f()` and the bytes it asked the allocator for.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// The largest module object of eighth-scale `mcad1` — globals with
/// array initializers, calls, branches and a string table — and the
/// program's other objects, decoded.
fn real_object() -> (Vec<u8>, Vec<IlObject>) {
    let app = cmo_synth::generate(&cmo_synth::mcad_preset("mcad1", 0.125));
    let mut objects: Vec<Vec<u8>> = app
        .modules
        .iter()
        .map(|(name, src)| cmo_frontend::compile_module(name, src).unwrap().to_bytes())
        .collect();
    let largest = (0..objects.len())
        .max_by_key(|&i| objects[i].len())
        .unwrap();
    let bytes = objects.swap_remove(largest);
    let object = IlObject::from_bytes(&bytes).unwrap();
    assert!(!object.symbols.globals.is_empty() && object.routines.len() > 1);
    let others = objects.iter().map(|b| IlObject::from_bytes(b).unwrap());
    (bytes, others.collect())
}

/// `IL_MAGIC`, then whatever `body` writes.
fn forged(body: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut enc = Encoder::new();
    for &b in IL_MAGIC {
        enc.write_u8(b);
    }
    body(&mut enc);
    enc.into_bytes()
}

/// An object header: names, line count, a string table of one name
/// (`Sym(0)`) and no globals; the routine count and routines are the
/// caller's.
fn header(enc: &mut Encoder) {
    enc.write_str("m");
    enc.write_str("mlc");
    enc.write_u32(1);
    enc.write_usize(1); // strings
    enc.write_str("f");
    enc.write_usize(0); // globals
}

/// A body header with no locals and `n_blocks` blocks to follow.
fn body_header(enc: &mut Encoder, n_blocks: usize) {
    enc.write_u32(16); // vregs
    enc.write_u32(1); // next site
    enc.write_usize(0); // locals
    enc.write_usize(n_blocks);
}

/// A payload of `Transitory::compact`'s form.
fn payload(tag: u8, body: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.write_u8(tag);
    body(&mut enc);
    enc.into_bytes()
}

fn uncompact(bytes: &[u8]) -> Result<Transitory, DecodeError> {
    Transitory::uncompact(&mut Decoder::new(bytes))
}

#[test]
fn truncated_and_flipped_objects_decode_or_fail_typed() {
    let (bytes, others) = real_object();
    let (whole, _) = counted(|| IlObject::from_bytes(&bytes));
    let whole = whole.unwrap();
    assert_eq!(whole.to_bytes(), bytes);
    let link = |object: IlObject| link_objects([vec![object], others.clone()].concat());
    assert!(link(whole).is_ok());

    // Every strict prefix is an error: the last routine's body runs to
    // the last byte, so a prefix runs out of it.
    let step = (bytes.len() / 1500).max(1);
    let cuts = (0..64).chain((64..bytes.len()).step_by(step));
    for cut in cuts.filter(|&c| c < bytes.len()) {
        let (object, requested) = counted(|| IlObject::from_bytes(&bytes[..cut]));
        assert!(object.is_err(), "a {cut}-byte prefix decoded");
        assert!(
            requested <= 64 * cut as u64 + 4096,
            "{requested} bytes for a {cut}-byte prefix"
        );
    }

    // Sampled single-byte flips past the magic: a typed error or an
    // object, never a panic; and an object that links with the rest of
    // the program is a valid one.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let (mut ok, mut failed, mut linked) = (0, 0, 0);
    for _ in 0..3000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let at = IL_MAGIC.len() + (x as usize >> 8) % (bytes.len() - IL_MAGIC.len());
        let mut damaged = bytes.clone();
        damaged[at] ^= match x & 3 {
            0 => 0x01,
            1 => 0x80,
            2 => 0xff,
            _ => (x >> 56) as u8 | 1,
        };
        let (object, requested) = counted(|| IlObject::from_bytes(&damaged));
        assert!(requested <= 64 * bytes.len() as u64 + 4096);
        match object {
            Ok(object) => {
                ok += 1;
                if let Ok(unit) = link(object) {
                    linked += 1;
                    if let Err(e) = validate_unit(&unit.program, &unit.bodies) {
                        panic!("flipping byte {at} linked an invalid program: {e}");
                    }
                }
            }
            Err(ObjectDecodeError::Decode(_)) => failed += 1,
            Err(e) => panic!("a flip past the magic gave {e}"),
        }
    }
    assert!(
        linked > 0 && ok > linked && failed > 0,
        "{ok} decoded, {linked} linked, {failed} failed"
    );
}

#[test]
fn operands_outside_the_body_are_typed_errors() {
    // One block of `instrs`' instructions, ending in `term`'s
    // terminator, in a body of 16 vregs and no locals.
    let body = |n_blocks: usize, instrs: &[&dyn Fn(&mut Encoder)], term: &dyn Fn(&mut Encoder)| {
        uncompact(&payload(0, |enc| {
            body_header(enc, n_blocks);
            for _ in 0..n_blocks.min(1) {
                enc.write_usize(instrs.len());
                for instr in instrs {
                    instr(enc);
                }
                term(enc);
            }
        }))
    };
    let output = |r: u32| {
        move |enc: &mut Encoder| {
            enc.write_u8(12); // output
            enc.write_u32(r);
        }
    };
    let ret = |enc: &mut Encoder| enc.write_u8(2);
    let jump = |b: u32| {
        move |enc: &mut Encoder| {
            enc.write_u8(0);
            enc.write_u32(b);
        }
    };
    let corrupt = |what| Err(DecodeError::Corrupt { what });

    assert!(body(1, &[&output(15)], &jump(0)).is_ok());
    assert_eq!(body(0, &[], &ret), corrupt("routine body with no blocks"));
    assert_eq!(
        body(1, &[&output(16)], &ret),
        corrupt("register out of range")
    );
    let branch_on = |cond: u32| {
        move |enc: &mut Encoder| {
            enc.write_u8(1);
            enc.write_u32(cond);
            enc.write_u32(0);
            enc.write_u32(0);
        }
    };
    assert_eq!(
        body(1, &[], &branch_on(99)),
        corrupt("register out of range")
    );
    let load_local = |enc: &mut Encoder| {
        enc.write_u8(4); // load local
        enc.write_u32(0);
        enc.write_u32(0);
    };
    assert_eq!(body(1, &[&load_local], &ret), corrupt("local out of range"));
    let call_into = |dst: u32| {
        move |enc: &mut Encoder| {
            enc.write_u8(10); // call
            enc.write_u32(dst);
            enc.write_u8(1); // resolved callee
            enc.write_u32(0);
            enc.write_usize(0);
            enc.write_u32(0); // site
        }
    };
    assert!(
        body(1, &[&call_into(u32::MAX)], &ret).is_ok(),
        "no destination"
    );
    assert_eq!(
        body(1, &[&call_into(16)], &ret),
        corrupt("register out of range")
    );
    assert_eq!(
        body(1, &[], &jump(1)),
        corrupt("branch target out of range")
    );
}

#[test]
fn a_ninth_argument_or_parameter_is_a_typed_error() {
    // One block holding one call of `arity` arguments, then a return.
    let call = |arity: usize| {
        payload(0, |enc| {
            body_header(enc, 1);
            enc.write_usize(1);
            enc.write_u8(10); // call
            enc.write_u32(u32::MAX); // no destination
            enc.write_u8(1); // resolved callee
            enc.write_u32(0);
            enc.write_usize(arity);
            for r in 0..arity.min(2 * MAX_CALL_ARGS) {
                enc.write_u32(r as u32);
            }
            enc.write_u32(0); // site
            enc.write_u8(2); // return
        })
    };
    let body = uncompact(&call(MAX_CALL_ARGS)).unwrap().into_routine();
    assert_eq!(body.args.len(), MAX_CALL_ARGS);
    let arity_error = DecodeError::Corrupt {
        what: "call arity above MAX_CALL_ARGS",
    };
    assert_eq!(
        uncompact(&call(MAX_CALL_ARGS + 1)).unwrap_err(),
        arity_error
    );
    assert_eq!(uncompact(&call(usize::MAX >> 1)).unwrap_err(), arity_error);

    // A routine declaring `arity` parameters, in an object.
    let routine = |arity: usize| {
        forged(|enc| {
            header(enc);
            enc.write_usize(1);
            enc.write_u32(0); // name
            enc.write_usize(arity);
            for _ in 0..arity {
                enc.write_u8(0); // i64
            }
            enc.write_u8(2); // no return value
            enc.write_u8(0); // exported
            enc.write_u32(1); // lines
            body_header(enc, 1);
            enc.write_usize(0);
            enc.write_u8(2);
        })
    };
    let object = IlObject::from_bytes(&routine(MAX_CALL_ARGS)).unwrap();
    assert_eq!(object.routines[0].sig.arity(), MAX_CALL_ARGS);
    assert!(matches!(
        IlObject::from_bytes(&routine(MAX_CALL_ARGS + 1)),
        Err(ObjectDecodeError::Decode(DecodeError::Corrupt {
            what: "routine arity above MAX_CALL_ARGS"
        }))
    ));
}

#[test]
fn count_and_length_bombs_allocate_a_bounded_amount() {
    const HUGE: usize = 1 << 40;
    let objects = [
        // A string table of a trillion strings, then one.
        forged(|enc| {
            enc.write_str("m");
            enc.write_str("mlc");
            enc.write_u32(1);
            enc.write_usize(HUGE);
            enc.write_str("x");
        }),
        // A module name a terabyte long.
        forged(|enc| {
            enc.write_usize(HUGE);
            enc.write_bytes(b"m");
        }),
        // Counts of globals and of routines.
        forged(|enc| {
            enc.write_str("m");
            enc.write_str("mlc");
            enc.write_u32(1);
            enc.write_usize(0);
            enc.write_usize(HUGE);
        }),
        forged(|enc| {
            header(enc);
            enc.write_usize(HUGE);
            enc.write_u32(0);
        }),
    ];
    let payloads = [
        // Integer and float initializers of a trillion elements.
        payload(1, |enc| {
            enc.write_usize(1);
            enc.write_u32(0);
            enc.write_u8(0); // i64[4]
            enc.write_u64(5);
            enc.write_u8(0);
            enc.write_u8(2);
            enc.write_usize(HUGE);
            enc.write_i64(1);
        }),
        payload(1, |enc| {
            enc.write_usize(1);
            enc.write_u32(0);
            enc.write_u8(1); // f64[4]
            enc.write_u64(5);
            enc.write_u8(0);
            enc.write_u8(3);
            enc.write_usize(HUGE);
            enc.write_f64(1.0);
        }),
        // Counts of locals, blocks, and instructions.
        payload(0, |enc| {
            enc.write_u32(1);
            enc.write_u32(0);
            enc.write_usize(HUGE);
        }),
        payload(0, |enc| body_header(enc, HUGE)),
        payload(0, |enc| {
            body_header(enc, 1);
            enc.write_usize(HUGE);
            enc.write_u8(11); // input
        }),
    ];
    let objects = objects
        .iter()
        .map(|b| (b, counted(|| IlObject::from_bytes(b).is_ok())));
    let payloads = payloads
        .iter()
        .map(|b| (b, counted(|| uncompact(b).is_ok())));
    for (i, (bomb, (decoded, requested))) in objects.chain(payloads).enumerate() {
        assert!(!decoded, "bomb {i} decoded");
        assert!(
            requested <= 64 * bomb.len() as u64 + 256,
            "bomb {i}: {requested} bytes for {} input bytes",
            bomb.len()
        );
    }
}
