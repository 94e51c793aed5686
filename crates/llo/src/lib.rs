#![warn(missing_docs)]
//! The low-level optimizer (LLO) and code generator.
//!
//! In the paper's pipeline (§3, Figure 2) LLO is the "sophisticated and
//! mature intraprocedural optimizer, handling all optimizations that
//! require detailed knowledge of the machine architecture, such as
//! register allocation and scheduling". This reproduction's LLO
//! performs, per routine:
//!
//! 1. local optimization on the IL ([`opt`]): per-block constant
//!    folding and propagation (including through local scalars), copy
//!    propagation, global dead-code elimination, redundant-branch
//!    elimination, and unreachable-block removal;
//! 2. basic-block layout ([`layout`]): profile-guided chain formation
//!    placing hot successors on the fall-through path (+P), or source
//!    order without profile data;
//! 3. liveness analysis and linear-scan register allocation
//!    ([`regalloc`]) with spill code — register pressure is real, so
//!    over-aggressive inlining costs spills, reproducing the tension
//!    the paper's inlining heuristics manage;
//! 4. machine-code emission ([`lower_owned`]) with optional profile
//!    probes (`+I`), producing relocatable per-routine code the linker
//!    concatenates.
//!
//! None of these steps inspects *which* routine a call targets or
//! *which* global an access names, so a lowering can be memoized under
//! an id-free key and relocated on reuse: [`memo`] is that key and the
//! relocatable byte form (the incremental cache's code tier).
//!
//! LLO working memory genuinely grows super-linearly with routine size
//! (liveness is O(blocks × vregs)); [`LoweredRoutine::llo_work_bytes`]
//! reports that footprint by formula, reproducing the LLO curve
//! discussed under Figure 4. The tables themselves are per-thread
//! scratch reused from routine to routine (see ARCHITECTURE.md, "LLO
//! per-routine pipeline"), so lowering allocates only its outputs.

pub mod layout;
mod lower;
pub mod memo;
pub mod opt;
pub mod regalloc;
mod scratch;

pub use lower::{
    lower_owned, lower_routine, shape_of, GlobalLayout, LloOptions, LoweredRoutine, OptEffort,
    OptEffortOpt,
};

#[cfg(test)]
mod tests {
    use crate::lower::{lower_routine, GlobalLayout, LloOptions};
    use cmo_frontend::compile_module;
    use cmo_ir::link_objects;

    #[test]
    fn end_to_end_lowering_smoke() {
        let obj = compile_module(
            "m",
            r#"
            global acc: int = 0;
            fn main() -> int {
                var i: int = 0;
                while (i < 5) { acc = acc + i; i = i + 1; }
                return acc;
            }
            "#,
        )
        .unwrap();
        let unit = link_objects(vec![obj]).unwrap();
        let layout = GlobalLayout::new(&unit.program);
        let main = unit.program.find_routine("main").unwrap();
        let lowered = lower_routine(
            main,
            &unit.bodies[main.index()],
            &unit.program,
            &layout,
            &LloOptions::default(),
        );
        assert!(!lowered.code.is_empty());
        assert!(lowered.frame_slots >= 1);
        assert_eq!(lowered.name, "main");
    }
}
