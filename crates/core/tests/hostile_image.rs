//! Hostile bytes for `MachineImage::from_bytes`, the decoder behind
//! every whole-build replay: a real image cut short or with a byte
//! flipped decodes to `Ok` or to a typed `DecodeError` — never a panic
//! or a hang — and no stated count or length makes it allocate more
//! than a small multiple of the bytes it was given.
//!
//! Deliberate mutations of `crates/vm/src/codec.rs` this file catches:
//! the arity check dropped from `decode_instr` (the ninth argument
//! overflows `CallArgs`) → `a_ninth_call_argument_is_a_typed_error`;
//! a table's capacity taken from its stated count instead of the bytes
//! left → `count_and_length_bombs_allocate_a_bounded_amount`.

use cmo::{BuildOptions, Compiler, OptLevel};
use cmo_vm::{DecodeError, Encoder, MachineImage, IMAGE_MAGIC, MAX_CALL_ARGS};
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

/// The result of `MachineImage::from_bytes(bytes)` and the bytes that
/// decoding asked the allocator for.
fn decode_counted(bytes: &[u8]) -> (Result<MachineImage, DecodeError>, u64) {
    let before = REQUESTED.with(Cell::get);
    let image = MachineImage::from_bytes(bytes);
    (image, REQUESTED.with(Cell::get) - before)
}

/// An instrumented `+O4` build of eighth-scale `mcad1`: calls, branches,
/// probes, shapes and a data section, all non-empty.
fn real_image() -> Vec<u8> {
    let app = cmo_synth::generate(&cmo_synth::mcad_preset("mcad1", 0.125));
    let mut compiler = Compiler::new();
    compiler.add_sources(&app.modules, 1).unwrap();
    let options = BuildOptions {
        instrument: true,
        ..BuildOptions::new(OptLevel::O4)
    };
    let image = compiler.build(&options).unwrap().image;
    assert!(!image.probes.is_empty() && !image.shapes.is_empty() && !image.globals.is_empty());
    image.to_bytes()
}

/// `IMAGE_MAGIC`, then whatever `body` writes.
fn forged(body: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut enc = Encoder::new();
    for b in IMAGE_MAGIC {
        enc.write_u8(b);
    }
    body(&mut enc);
    enc.into_bytes()
}

#[test]
fn truncated_and_flipped_images_decode_or_fail_typed() {
    let bytes = real_image();
    let (whole, _) = decode_counted(&bytes);
    assert_eq!(whole.unwrap().to_bytes(), bytes);

    // Every strict prefix is an error: decoding the whole image
    // consumes exactly its bytes, so a prefix runs out of them.
    let step = (bytes.len() / 1500).max(1);
    let cuts = (0..64).chain((64..bytes.len()).step_by(step));
    for cut in cuts.filter(|&c| c < bytes.len()) {
        let (image, requested) = decode_counted(&bytes[..cut]);
        assert!(image.is_err(), "a {cut}-byte prefix decoded");
        assert!(
            requested <= 64 * cut as u64 + 4096,
            "{requested} bytes for a {cut}-byte prefix"
        );
    }

    // Sampled single-byte flips: a typed error or an image, never a
    // panic. (A flip can leave a non-minimal varint behind, so an
    // image that decodes need not encode back to the damaged bytes.)
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let (mut ok, mut failed) = (0, 0);
    for _ in 0..3000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let at = IMAGE_MAGIC.len() + (x as usize >> 8) % (bytes.len() - IMAGE_MAGIC.len());
        let mut damaged = bytes.clone();
        damaged[at] ^= match x & 3 {
            0 => 0x01,
            1 => 0x80,
            2 => 0xff,
            _ => (x >> 56) as u8 | 1,
        };
        let (image, requested) = decode_counted(&damaged);
        assert!(requested <= 64 * bytes.len() as u64 + 4096);
        match image {
            Ok(_) => ok += 1,
            Err(_) => failed += 1,
        }
    }
    // Most flips land in a field whose every value is valid (a
    // register, an address, a count), but not all.
    assert!(ok > 0 && failed > 0, "{ok} decoded, {failed} failed");
}

#[test]
fn a_ninth_call_argument_is_a_typed_error() {
    let call = |arity: usize| {
        forged(|enc| {
            enc.write_usize(1); // one instruction
            enc.write_u8(13); // call
            enc.write_u32(0);
            enc.write_usize(arity);
            for r in 0..arity.min(2 * MAX_CALL_ARGS) {
                enc.write_u8(r as u8);
            }
            enc.write_bool(false);
            for _ in 0..4 {
                enc.write_usize(0); // routines, globals, probes, shapes
            }
            enc.write_u32(0); // entry routine
        })
    };
    let image = MachineImage::from_bytes(&call(MAX_CALL_ARGS)).unwrap();
    assert!(matches!(&image.code[..], [cmo_vm::MInstr::Call { args, .. }] if args.len() == 8));
    assert_eq!(
        MachineImage::from_bytes(&call(MAX_CALL_ARGS + 1)).unwrap_err(),
        DecodeError::Corrupt {
            what: "call arity above MAX_CALL_ARGS"
        }
    );
    assert!(MachineImage::from_bytes(&call(usize::MAX >> 1)).is_err());
}

#[test]
fn count_and_length_bombs_allocate_a_bounded_amount() {
    const HUGE: usize = 1 << 40;
    let bombs = [
        // An instruction count with one instruction behind it.
        forged(|enc| {
            enc.write_usize(HUGE);
            enc.write_u8(20);
        }),
        // A routine whose name is a terabyte long.
        forged(|enc| {
            enc.write_usize(0);
            enc.write_usize(1);
            enc.write_usize(HUGE);
            enc.write_bytes(b"main");
        }),
        // Counts of routines, globals, probes and shapes.
        forged(|enc| {
            enc.write_usize(0);
            enc.write_usize(HUGE);
        }),
        forged(|enc| {
            enc.write_usize(0);
            enc.write_usize(0);
            enc.write_usize(HUGE);
        }),
        forged(|enc| {
            for _ in 0..3 {
                enc.write_usize(0);
            }
            enc.write_usize(HUGE);
            enc.write_str("main");
            enc.write_u8(0);
        }),
        forged(|enc| {
            for _ in 0..4 {
                enc.write_usize(0);
            }
            enc.write_usize(HUGE);
        }),
    ];
    for (i, bomb) in bombs.iter().enumerate() {
        let (image, requested) = decode_counted(bomb);
        assert!(image.is_err(), "bomb {i} decoded");
        assert!(
            requested <= 64 * bomb.len() as u64 + 256,
            "bomb {i}: {requested} bytes for {} input bytes",
            bomb.len()
        );
    }
}
