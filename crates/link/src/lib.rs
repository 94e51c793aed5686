#![warn(missing_docs)]
//! The linker's back half: assembling lowered routines into an
//! executable image.
//!
//! The paper's linker participates in optimization twice: it routes IL
//! objects through HLO/LLO (handled by [`cmo_ir::link_objects`] plus
//! the driver), and it "uses profile data to cluster frequently-used
//! routines together in the final program image" (§2, citing
//! Pettis–Hansen \[13\] and Speer et al. \[15\]). This crate implements
//! that second half:
//!
//! * [`cluster_routines`]: profile-guided procedure ordering by greedy
//!   chain merging over the weighted call-arc graph, hot chains first —
//!   hot code packs densely in the simulated i-cache;
//! * [`assemble`]: concatenation in cluster order, relocation of
//!   branch targets and probe ids, dead-routine stubbing, and initial
//!   global memory from the module symbol tables.

use cmo_ir::{GlobalId, GlobalInit, ModuleSymbols, Program, RoutineId};
use cmo_llo::{GlobalLayout, LoweredRoutine};
use cmo_profile::{ProbeKey, ProbeKind};
use cmo_telemetry::Telemetry;
use cmo_vm::{MInstr, MRoutineInfo, MachineImage};

/// A weighted caller→callee arc used for clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallArc {
    /// The calling routine.
    pub caller: RoutineId,
    /// The called routine.
    pub callee: RoutineId,
    /// Combined profile weight of all sites on this arc.
    pub weight: u64,
}

/// Linker options.
#[derive(Debug, Clone, Default)]
pub struct LinkOptions {
    /// Profile arcs for procedure clustering; `None` keeps routine-id
    /// order (the non-PBO layout).
    pub arcs: Option<Vec<CallArc>>,
    /// Routines proven unreachable by HLO: their code is replaced by a
    /// one-instruction stub, saving image space (dead routine
    /// elimination's link-time half).
    pub dead: Vec<RoutineId>,
    /// Telemetry sink: [`assemble`] charges one work unit per machine
    /// instruction placed, so the final-link phase has a deterministic
    /// span on the work clock. Disabled (no-op) by default.
    pub telemetry: Telemetry,
}

/// Computes a routine emission order by greedy chain merging
/// (Pettis–Hansen "closest is best" procedure ordering): repeatedly
/// merge the two chains joined by the heaviest remaining arc, then lay
/// out chains by descending total weight, cold routines last.
#[must_use]
pub fn cluster_routines(n_routines: usize, arcs: &[CallArc]) -> Vec<RoutineId> {
    // chain_of[r] = chain index; chains merge by concatenation.
    let mut chain_of: Vec<usize> = (0..n_routines).collect();
    let mut chains: Vec<Vec<RoutineId>> = (0..n_routines)
        .map(|i| vec![RoutineId::from_index(i)])
        .collect();
    // Deterministic arc order: weight desc, then ids.
    let mut sorted: Vec<&CallArc> = arcs.iter().filter(|a| a.caller != a.callee).collect();
    sorted.sort_by(|a, b| {
        b.weight
            .cmp(&a.weight)
            .then(a.caller.cmp(&b.caller))
            .then(a.callee.cmp(&b.callee))
    });
    for arc in sorted {
        if arc.weight == 0 {
            break;
        }
        let (ca, cb) = (chain_of[arc.caller.index()], chain_of[arc.callee.index()]);
        if ca == cb {
            continue;
        }
        let moved = std::mem::take(&mut chains[cb]);
        for r in &moved {
            chain_of[r.index()] = ca;
        }
        chains[ca].extend(moved);
    }
    // Chain weight: total arc weight touching any member.
    let mut weight = vec![0u64; chains.len()];
    for arc in arcs {
        weight[chain_of[arc.caller.index()]] += arc.weight;
        weight[chain_of[arc.callee.index()]] += arc.weight;
    }
    let mut chain_ids: Vec<usize> = (0..chains.len())
        .filter(|&c| !chains[c].is_empty())
        .collect();
    chain_ids.sort_by(|&a, &b| weight[b].cmp(&weight[a]).then(a.cmp(&b)));
    let mut order = Vec::with_capacity(n_routines);
    for c in chain_ids {
        order.extend(chains[c].iter().copied());
    }
    order
}

/// Builds the initial global memory image from module symbol tables.
///
/// # Panics
///
/// Panics if the layout does not match the program (construction bug).
#[must_use]
pub fn initial_globals(
    program: &Program,
    symtabs: &[ModuleSymbols],
    layout: &GlobalLayout,
) -> Vec<u64> {
    let mut mem = vec![0u64; layout.total_cells() as usize];
    for (g, meta) in program.globals().iter().enumerate() {
        let base = layout.addr(GlobalId::from_index(g)) as usize;
        let var = &symtabs[meta.module.index()].globals[meta.slot as usize];
        match &var.init {
            GlobalInit::Zero => {}
            GlobalInit::Scalar(cmo_ir::Const::I(v)) => mem[base] = *v as u64,
            GlobalInit::Scalar(cmo_ir::Const::F(v)) => mem[base] = v.to_bits(),
            GlobalInit::IntArray(vs) => {
                for (i, v) in vs.iter().enumerate() {
                    mem[base + i] = *v as u64;
                }
            }
            GlobalInit::FloatArray(vs) => {
                for (i, v) in vs.iter().enumerate() {
                    mem[base + i] = v.to_bits();
                }
            }
        }
    }
    mem
}

/// Assembles lowered routines (indexed by [`RoutineId`]) into an
/// executable image, moving each one's code and name into place.
///
/// # Panics
///
/// Panics if `lowered` does not cover every program routine or the
/// program has no `main`.
#[must_use]
pub fn assemble(
    program: &Program,
    mut lowered: Vec<LoweredRoutine>,
    symtabs: &[ModuleSymbols],
    layout: &GlobalLayout,
    options: &LinkOptions,
) -> MachineImage {
    assert_eq!(
        lowered.len(),
        program.routines().len(),
        "every routine must be lowered"
    );
    let n = lowered.len();
    let mut dead = vec![false; n];
    for r in &options.dead {
        dead[r.index()] = true;
    }
    let order = match &options.arcs {
        Some(arcs) => cluster_routines(n, arcs),
        None => (0..n).map(RoutineId::from_index).collect(),
    };

    let total = lowered
        .iter()
        .zip(&dead)
        .map(|(lr, &dead)| if dead { 1 } else { lr.code.len() })
        .sum();
    let mut image = MachineImage {
        code: Vec::with_capacity(total),
        globals: initial_globals(program, symtabs, layout),
        ..MachineImage::default()
    };
    let mut placed = vec![(0u32, 0u32); n];
    for &rid in &order {
        let lr = &mut lowered[rid.index()];
        let base = image.code.len();
        if dead[rid.index()] {
            image.code.push(MInstr::Ret { value: None });
        } else {
            let probe_base = image.probes.len() as u32;
            image.code.append(&mut lr.code);
            for mi in &mut image.code[base..] {
                match mi {
                    MInstr::Jmp { target } | MInstr::Br { target, .. } => *target += base as u32,
                    MInstr::Probe { id } => *id += probe_base,
                    _ => {}
                }
            }
            for kind in &lr.probes {
                image.probes.push(match kind {
                    ProbeKind::Block(b) => ProbeKey::block(&lr.name, *b),
                    ProbeKind::Site(s) => ProbeKey::site(&lr.name, *s),
                });
            }
            image.shapes.push((lr.name.clone(), lr.shape));
        }
        let len = (image.code.len() - base) as u32;
        options.telemetry.work(u64::from(len));
        placed[rid.index()] = (base as u32, len);
    }
    image.routines = lowered
        .into_iter()
        .zip(placed)
        .map(|(lr, (entry, code_len))| MRoutineInfo {
            name: lr.name,
            entry,
            frame_slots: lr.frame_slots,
            code_len,
        })
        .collect();
    image.entry_routine = program.main_routine().expect("program must define main").0;
    image
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmo_frontend::compile_module;
    use cmo_ir::link_objects;
    use cmo_llo::{lower_routine, LloOptions};
    use cmo_vm::{run, RunConfig};

    fn build(srcs: &[(&str, &str)], options: &LinkOptions, llo: &LloOptions) -> MachineImage {
        let objs = srcs
            .iter()
            .map(|(n, s)| compile_module(n, s).unwrap())
            .collect();
        let unit = link_objects(objs).unwrap();
        let layout = GlobalLayout::new(&unit.program);
        let lowered: Vec<LoweredRoutine> = unit
            .bodies
            .iter()
            .enumerate()
            .map(|(i, b)| lower_routine(RoutineId::from_index(i), b, &unit.program, &layout, llo))
            .collect();
        assemble(&unit.program, lowered, &unit.symtabs, &layout, options)
    }

    const TWO_MODULES: &[(&str, &str)] = &[
        (
            "a",
            r#"
            extern fn mix(x: int) -> int;
            global seed: int = 3;
            fn main() -> int {
                var i: int = 0;
                var acc: int = seed;
                while (i < 50) { acc = mix(acc); i = i + 1; }
                output(acc);
                return acc;
            }
            "#,
        ),
        (
            "b",
            "fn mix(x: int) -> int { return (x * 1103515245 + 12345) % 65536; }",
        ),
    ];

    #[test]
    fn assembled_image_runs() {
        let image = build(TWO_MODULES, &LinkOptions::default(), &LloOptions::default());
        let r = run(&image, &[], &RunConfig::default()).unwrap();
        assert_eq!(r.calls, 50);
        assert!(image.code_size() > 10);
    }

    #[test]
    fn clustering_preserves_semantics() {
        let plain = build(TWO_MODULES, &LinkOptions::default(), &LloOptions::default());
        let main = RoutineId::from_index(0);
        let arcs = vec![CallArc {
            caller: main,
            callee: RoutineId::from_index(1),
            weight: 50,
        }];
        let clustered = build(
            TWO_MODULES,
            &LinkOptions {
                arcs: Some(arcs),
                ..LinkOptions::default()
            },
            &LloOptions::default(),
        );
        let cfg = RunConfig::default();
        let rp = run(&plain, &[], &cfg).unwrap();
        let rc = run(&clustered, &[], &cfg).unwrap();
        assert_eq!(rp.checksum, rc.checksum);
        assert_eq!(rp.returned, rc.returned);
    }

    #[test]
    fn cluster_order_puts_hot_pair_adjacent() {
        // 4 routines; arc 2->3 heavy, 0->1 light.
        let arcs = vec![
            CallArc {
                caller: RoutineId(0),
                callee: RoutineId(1),
                weight: 5,
            },
            CallArc {
                caller: RoutineId(2),
                callee: RoutineId(3),
                weight: 500,
            },
        ];
        let order = cluster_routines(4, &arcs);
        let pos = |r: u32| order.iter().position(|&x| x == RoutineId(r)).unwrap();
        assert_eq!(pos(3), pos(2) + 1, "hot pair contiguous");
        assert!(pos(2) < pos(0), "hot chain first");
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn cluster_handles_zero_and_self_arcs() {
        let arcs = vec![
            CallArc {
                caller: RoutineId(0),
                callee: RoutineId(0),
                weight: 100,
            },
            CallArc {
                caller: RoutineId(1),
                callee: RoutineId(2),
                weight: 0,
            },
        ];
        let order = cluster_routines(3, &arcs);
        assert_eq!(order.len(), 3);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, vec![RoutineId(0), RoutineId(1), RoutineId(2)]);
    }

    #[test]
    fn dead_routines_become_stubs() {
        let srcs = &[(
            "m",
            r#"
            fn unused_helper(x: int) -> int {
                var acc: int = 0;
                var i: int = 0;
                while (i < x) { acc = acc + i; i = i + 1; }
                return acc;
            }
            fn main() -> int { return 7; }
            "#,
        )];
        let full = build(srcs, &LinkOptions::default(), &LloOptions::default());
        let objs = srcs
            .iter()
            .map(|(n, s)| compile_module(n, s).unwrap())
            .collect();
        let unit = link_objects(objs).unwrap();
        let helper = unit.program.find_routine("unused_helper").unwrap();
        let stubbed = build(
            srcs,
            &LinkOptions {
                dead: vec![helper],
                ..LinkOptions::default()
            },
            &LloOptions::default(),
        );
        assert!(stubbed.code_size() < full.code_size());
        let r = run(&stubbed, &[], &RunConfig::default()).unwrap();
        assert_eq!(r.returned, 7);
    }

    #[test]
    fn initial_memory_reflects_initializers() {
        let srcs = &[(
            "m",
            r#"
            global a: int = 11;
            global arr: int[4] = [1, 2, 3];
            global f: float = 2.5;
            fn main() -> int { return a + arr[2]; }
            "#,
        )];
        let image = build(srcs, &LinkOptions::default(), &LloOptions::default());
        assert_eq!(image.globals[0], 11);
        assert_eq!(image.globals[1..5], [1, 2, 3, 0]);
        assert_eq!(f64::from_bits(image.globals[5]), 2.5);
        let r = run(&image, &[], &RunConfig::default()).unwrap();
        assert_eq!(r.returned, 14);
    }
}
