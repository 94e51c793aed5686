//! Allocation guard: the front end allocates per arena, not per token
//! or node, and the IL linker moves bodies instead of copying them.
//!
//! The only test in this file, so nothing else allocates while it
//! counts.

use cmo_frontend::{compile_module, Lexer};
use cmo_ir::link_objects;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_REQUESTED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation
/// and the bytes each asks for.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES_REQUESTED.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES_REQUESTED.fetch_add(new_size as u64, Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations and bytes requested while `work` runs.
fn counted<T>(work: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCATIONS.load(Relaxed), BYTES_REQUESTED.load(Relaxed));
    let out = work();
    (
        out,
        ALLOCATIONS.load(Relaxed) - a0,
        BYTES_REQUESTED.load(Relaxed) - b0,
    )
}

#[test]
fn front_end_and_link_allocate_per_arena_not_per_node() {
    let app = cmo_synth::generate(&cmo_synth::mcad_preset("mcad1", 0.125));
    let source_bytes: usize = app.modules.iter().map(|(_, s)| s.len()).sum();
    let tokens: usize = app
        .modules
        .iter()
        .map(|(_, s)| Lexer::new(s).tokenize().expect("lexes").tokens.len())
        .sum();

    let (objects, allocations, bytes) = counted(|| {
        app.modules
            .iter()
            .map(|(name, source)| compile_module(name, source).expect("compiles"))
            .collect::<Vec<_>>()
    });
    // At the parent commit: 1.49 allocations per token, 73 bytes per
    // source byte. What is left is the IL being built — a vector per
    // block and per call, the routine and symbol tables — and one
    // vector per front-end arena.
    let per_token = allocations as f64 / tokens as f64;
    let per_byte = bytes as f64 / source_bytes as f64;
    assert!(
        per_token <= 0.4,
        "{allocations} allocations for {tokens} tokens ({per_token:.3} per token)"
    );
    assert!(
        per_byte <= 32.0,
        "{bytes} bytes requested for {source_bytes} source bytes ({per_byte:.1} per byte)"
    );

    // The objects straight from the front end, as `cmocc` links them.
    // At the parent commit the body copy alone allocated once per
    // block and once per call.
    let routines: usize = objects.iter().map(|o| o.routines.len()).sum();
    let (unit, allocations, _) = counted(|| link_objects(objects).expect("links"));
    assert_eq!(unit.bodies.len(), routines);
    assert!(
        (allocations as f64) < 6.0 * routines as f64,
        "{allocations} allocations to link {routines} routines"
    );
}
