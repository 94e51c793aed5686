//! The code tier's relocation claim on a real program: an entry encoded
//! from one link of `mcad1` decodes, under another link's routine ids
//! and global addresses, to exactly what `lower_routine` produces there.
//!
//! Each case links the same modules twice — in generation order, and
//! shuffled behind an extra module whose global shifts every address —
//! runs the same HLO over both, and pairs routines by name. Where the
//! id-free keys agree (HLO can inline differently under another order,
//! so not everywhere), the first link's entry must relocate to the
//! second link's fresh lowering byte for byte, under `+P`-style block
//! counts and under `+I`.
//!
//! Deliberate mutations of `memo.rs` this file catches (as do the unit
//! tests beside the code, on one hand-made body): a global's address
//! stored instead of its ordinal; a call's routine or an element
//! access's base left unpatched on decode.

use cmo_frontend::compile_module;
use cmo_hlo::{fold_globals, inline_pass, GlobalFacts, HloSession, InlineOptions};
use cmo_ir::{link_objects, Program, RoutineBody, RoutineId};
use cmo_llo::memo::{decode_entry, encode_entry, routine_key};
use cmo_llo::{lower_routine, GlobalLayout, LloOptions, OptEffort, OptEffortOpt};
use cmo_naim::NaimConfig;
use proptest::prelude::*;
use std::collections::HashMap;

/// Links `modules` in the given order and runs the driver's
/// profile-free HLO (global folding, then inlining of medium callees
/// everywhere) over the program.
fn after_hlo(modules: &[(String, String)]) -> (Program, Vec<RoutineBody>) {
    let objects = modules
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
    let inline = InlineOptions::default();
    let inline = InlineOptions {
        small_callee_il: inline.small_callee_il.max(80),
        ..inline
    };
    assert!(inline_pass(&mut session, &inline).unwrap().inlines > 0);
    session.unload_all().unwrap();
    let (program, bodies, _, _) = session.into_parts().unwrap();
    (program, bodies)
}

/// Deterministic stand-in for maintained block counts: a function of
/// the routine's name and the block, so both links see the same.
fn counts_for(name: &str, body: &RoutineBody) -> Vec<u64> {
    let seed = name
        .bytes()
        .fold(17u64, |h, b| h.wrapping_mul(31) ^ u64::from(b));
    (0..body.blocks.len() as u64)
        .map(|b| (seed ^ b.wrapping_mul(0x9E37_79B9)) % 97)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn entries_relocate_across_link_orders(seed in any::<u64>()) {
        let app = cmo_synth::generate(&cmo_synth::mcad_preset("mcad1", 0.125));
        let (prog_a, bodies_a) = after_hlo(&app.modules);

        // Fisher–Yates with a xorshift stream from the case's seed.
        let mut shuffled = app.modules.clone();
        let mut x = seed | 1;
        for i in (1..shuffled.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            shuffled.swap(i, (x % (i as u64 + 1)) as usize);
        }
        shuffled.insert(
            0,
            ("pad".to_owned(), "global pad_table: int[7];\nglobal pad_cell: int = 1;\n".to_owned()),
        );
        let (prog_b, bodies_b) = after_hlo(&shuffled);
        let (layout_a, layout_b) = (GlobalLayout::new(&prog_a), GlobalLayout::new(&prog_b));

        let by_name: HashMap<&str, RoutineId> = (0..bodies_b.len())
            .map(RoutineId::from_index)
            .map(|r| (prog_b.name(prog_b.routine(r).name), r))
            .collect();
        let (mut paired, mut relocated, mut moved) = (0, 0, 0);
        for (i, body_a) in bodies_a.iter().enumerate() {
            let rid_a = RoutineId::from_index(i);
            let name = prog_a.name(prog_a.routine(rid_a).name);
            let Some(&rid_b) = by_name.get(name) else { continue };
            let body_b = &bodies_b[rid_b.index()];
            paired += 1;
            for (instrument, counted) in [(false, true), (false, false), (true, false)] {
                let options = |body: &RoutineBody| LloOptions {
                    effort: OptEffortOpt(OptEffort::O2),
                    instrument,
                    block_counts: counted.then(|| counts_for(name, body)),
                };
                let (opts_a, opts_b) = (options(body_a), options(body_b));
                let (key_a, refs_a) = routine_key(rid_a, body_a, &prog_a, &layout_a, &opts_a);
                let (key_b, refs_b) = routine_key(rid_b, body_b, &prog_b, &layout_b, &opts_b);
                if key_a != key_b {
                    continue;
                }
                let lowered_a = lower_routine(rid_a, body_a, &prog_a, &layout_a, &opts_a);
                let entry = encode_entry(&lowered_a, &refs_a, &layout_a).expect("encodes");
                let back = decode_entry(&entry, name, &refs_b, &layout_b).expect("decodes");
                let fresh = lower_routine(rid_b, body_b, &prog_b, &layout_b, &opts_b);
                prop_assert_eq!(&back, &fresh, "{} +I {} counts {}", name, instrument, counted);
                relocated += 1;
                moved += usize::from(lowered_a.code != fresh.code);
            }
        }
        prop_assert!(paired > 50, "{paired} routines paired by name");
        prop_assert!(
            relocated * 10 >= paired * 3 * 8,
            "only {relocated} of {} lowerings kept their key across the shuffle",
            paired * 3
        );
        prop_assert!(moved > 0, "the shuffle moved no id or address: nothing was relocated");
    }
}

/// FNV-1a over `CODE_KEY_GOLDEN`'s input, kept here so that neither a
/// change of the repository's hash nor of the key's own mixer can move
/// the golden by accident.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The hash of every routine's code key of eighth-scale `mcad1` after
/// the profile-free HLO of [`after_hlo`] — bodies with inlined calls —
/// at `+O1`, `+O2`, `+O2` with block counts and `+O2 +I`, in routine
/// order. Recorded with the compiler of commit 8010b20, before IL
/// instructions moved their call arguments into a per-body pool: a
/// change that moves this moves every code-tier key, and must bump
/// `LLO_REVISION` and re-record it.
const CODE_KEY_GOLDEN: u64 = 0x1eff_1a01_2310_080c;

#[test]
fn code_keys_of_eighth_scale_mcad1_match_the_golden() {
    let app = cmo_synth::generate(&cmo_synth::mcad_preset("mcad1", 0.125));
    let (program, bodies) = after_hlo(&app.modules);
    let layout = GlobalLayout::new(&program);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (i, body) in bodies.iter().enumerate() {
        let rid = RoutineId::from_index(i);
        let name = program.name(program.routine(rid).name);
        for (effort, instrument, counted) in [
            (OptEffort::O1, false, false),
            (OptEffort::O2, false, false),
            (OptEffort::O2, false, true),
            (OptEffort::O2, true, false),
        ] {
            let options = LloOptions {
                effort: OptEffortOpt(effort),
                instrument,
                block_counts: counted.then(|| counts_for(name, body)),
            };
            let (key, _) = routine_key(rid, body, &program, &layout, &options);
            hash = fnv1a(hash, &key.0.to_le_bytes());
        }
    }
    assert!(bodies.len() > 100, "{} routines", bodies.len());
    assert_eq!(hash, CODE_KEY_GOLDEN, "{hash:#018x}");
}

/// The hash of every `LoweredRoutine` (code, frame slots, probes,
/// shape, `il_after_opt`, `llo_work_bytes`) of eighth-scale `mcad1`
/// after the HLO of [`after_hlo`], at the four option sets of
/// [`CODE_KEY_GOLDEN`], in routine order. Recorded with the compiler of
/// commit 6bf31c8. The code tier replays stored lowerings under an
/// unchanged key, so a change that moves this must also bump
/// `LLO_REVISION` in `memo.rs` and re-record both goldens.
const LOWERED_GOLDEN: u64 = 0x63c2_b34c_6322_2014;

#[test]
fn lowered_routines_of_eighth_scale_mcad1_match_the_golden() {
    let app = cmo_synth::generate(&cmo_synth::mcad_preset("mcad1", 0.125));
    let (program, bodies) = after_hlo(&app.modules);
    let layout = GlobalLayout::new(&program);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (i, body) in bodies.iter().enumerate() {
        let rid = RoutineId::from_index(i);
        let name = program.name(program.routine(rid).name);
        for (effort, instrument, counted) in [
            (OptEffort::O1, false, false),
            (OptEffort::O2, false, false),
            (OptEffort::O2, false, true),
            (OptEffort::O2, true, false),
        ] {
            let options = LloOptions {
                effort: OptEffortOpt(effort),
                instrument,
                block_counts: counted.then(|| counts_for(name, body)),
            };
            let lowered = lower_routine(rid, body, &program, &layout, &options);
            let fields = format!(
                "{:?}|{}|{:?}|{:?}|{}|{}",
                lowered.code,
                lowered.frame_slots,
                lowered.probes,
                lowered.shape,
                lowered.il_after_opt,
                lowered.llo_work_bytes
            );
            hash = fnv1a(hash, fields.as_bytes());
        }
    }
    assert!(bodies.len() > 100, "{} routines", bodies.len());
    assert_eq!(
        hash, LOWERED_GOLDEN,
        "{hash:#018x}: the lowered code moved; a deliberate change bumps LLO_REVISION in memo.rs"
    );
}
