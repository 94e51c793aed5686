//! Liveness analysis and linear-scan register allocation.
//!
//! Virtual registers are routine-scoped and non-SSA; liveness is a
//! classical backward bit-vector problem. Its working set is
//! O(blocks × vregs) — the reason "LLO's memory requirements increase
//! quadratically as the sizes of the routines it processes are
//! increased" (Figure 4 caption) — and [`AllocResult::work_bytes`]
//! reports it so the memory experiments can plot LLO alongside HLO.

use crate::scratch::{self, step};
use cmo_ir::{Block, RoutineBody};
use cmo_vm::Reg;

/// Number of registers available to the allocator; the rest of the
/// file ([`NUM_SCRATCH`] of them) are reserved as spill scratch.
pub const NUM_ALLOCATABLE: u8 = 24;
/// Scratch registers reserved for spill reloads and call marshalling.
pub const NUM_SCRATCH: u8 = 8;
/// Maximum call arity the backend supports (one scratch register per
/// potentially-spilled argument): the machine's own limit.
pub const MAX_ARGS: usize = cmo_vm::MAX_CALL_ARGS;
const _: () = assert!(MAX_ARGS == NUM_SCRATCH as usize);

/// Where a virtual register lives at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// A physical register.
    Reg(Reg),
    /// A frame slot (relative index among spill slots; the emitter
    /// offsets it past the locals area).
    Spill(u32),
}

/// The allocation for one routine.
#[derive(Debug, Clone)]
pub struct AllocResult {
    /// Location of each virtual register (indexed by vreg).
    pub locs: Vec<Loc>,
    /// Number of spill slots used.
    pub spill_slots: u32,
    /// Allocator working memory in bytes (liveness bit vectors plus
    /// interval tables), by formula from the block and vreg counts.
    pub work_bytes: usize,
}

/// Reusable tables for [`AllocScratch::allocate`].
#[derive(Default)]
pub(crate) struct AllocScratch {
    /// Four `n_blocks × words_per_row` bit planes over the columns,
    /// back to back: use, def, live-in, live-out.
    bits: Vec<u64>,
    block_start: Vec<usize>,
    block_end: Vec<usize>,
    start: Vec<usize>,
    end: Vec<usize>,
    /// Per vreg: `1 +` the block that last defined it (0: none), and its
    /// column, `NO_COL` unless some block reads it before writing it.
    defined_in: Vec<u32>,
    col: Vec<u32>,
    /// The vreg of each column, and `(block, column)` per such read.
    exposed: Vec<u32>,
    exposed_uses: Vec<(u32, u32)>,
    /// Counting-sort buckets, and the intervals' vregs by (start, vreg)
    /// and by (end, vreg).
    bucket: Vec<u32>,
    by_start: Vec<u32>,
    by_end: Vec<u32>,
    free: Vec<u8>,
    /// Location of each virtual register after the last `allocate`.
    pub(crate) locs: Vec<Loc>,
}

const NO_COL: u32 = u32::MAX;

fn set_bit(row: &mut [u64], col: usize) {
    row[col / 64] |= 1 << (col % 64);
}

/// Calls `f(col)` for every set bit of `row`, ascending.
fn for_each_bit(row: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in row.iter().enumerate() {
        step(1);
        let mut rest = word;
        while rest != 0 {
            step(1);
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Orders the vregs that have an interval (`start[v] != UNSET`) by
/// `(start, vreg)` into `by_start` and by `(end, vreg)` into `by_end`:
/// a counting sort over the `n_pos` positions for each key, the two
/// sharing their passes over the vregs.
fn sort_intervals(
    start: &[usize],
    end: &[usize],
    n_pos: usize,
    bucket: &mut Vec<u32>,
    by_start: &mut Vec<u32>,
    by_end: &mut Vec<u32>,
) {
    bucket.clear();
    bucket.resize(2 * (n_pos + 1), 0);
    let (at_start, at_end) = bucket.split_at_mut(n_pos + 1);
    let mut n = 0;
    for (&s, &e) in start.iter().zip(end) {
        step(1);
        if s != UNSET {
            at_start[s + 1] += 1;
            at_end[e + 1] += 1;
            n += 1;
        }
    }
    for p in 1..=n_pos {
        at_start[p] += at_start[p - 1];
        at_end[p] += at_end[p - 1];
    }
    by_start.clear();
    by_start.resize(n, 0);
    by_end.clear();
    by_end.resize(n, 0);
    for (v, (&s, &e)) in start.iter().zip(end).enumerate() {
        if s != UNSET {
            by_start[at_start[s] as usize] = v as u32;
            at_start[s] += 1;
            by_end[at_end[e] as usize] = v as u32;
            at_end[e] += 1;
        }
    }
}

const UNSET: usize = usize::MAX;

impl AllocScratch {
    /// Liveness + linear scan for `body` linearized in `order` (every
    /// block once); leaves the locations in `self.locs` and returns
    /// `(spill_slots, work_bytes)`.
    pub(crate) fn allocate(&mut self, body: &RoutineBody, order: &[Block]) -> (u32, usize) {
        let n_blocks = body.blocks.len();
        let n_vregs = body.n_vregs as usize;

        // Linear positions in emission order: each block occupies
        // [start, start + len + 1] (terminator gets its own position).
        let (block_start, block_end) = (&mut self.block_start, &mut self.block_end);
        block_start.clear();
        block_start.resize(n_blocks, 0);
        block_end.clear();
        block_end.resize(n_blocks, 0);
        let mut pos = 0usize;
        for &b in order {
            block_start[b.index()] = pos;
            pos += body.blocks[b.index()].instrs.len() + 1;
            block_end[b.index()] = pos - 1;
        }

        // Intervals: [first, last] position at which each vreg is
        // mentioned (the use/def walk) or live (block edges, after it).
        let (start, end) = (&mut self.start, &mut self.end);
        start.clear();
        start.resize(n_vregs, UNSET);
        end.clear();
        end.resize(n_vregs, 0);
        let mut touch = |v: usize, p: usize| {
            start[v] = start[v].min(p);
            end[v] = end[v].max(p);
        };

        // Only a vreg some block reads before writing it can be live
        // into a block (every live-in set grows from those reads), so
        // liveness needs a column for those alone: usually none.
        let (defined_in, col) = (&mut self.defined_in, &mut self.col);
        defined_in.clear();
        defined_in.resize(n_vregs, 0);
        col.clear();
        col.resize(n_vregs, NO_COL);
        let (exposed, exposed_uses) = (&mut self.exposed, &mut self.exposed_uses);
        exposed.clear();
        exposed_uses.clear();
        let mut read = |b: usize, u: usize, defined_in: &[u32]| {
            if defined_in[u] != b as u32 + 1 {
                if col[u] == NO_COL {
                    col[u] = exposed.len() as u32;
                    exposed.push(u as u32);
                }
                exposed_uses.push((b as u32, col[u]));
            }
        };
        for (b, block) in body.blocks.iter().enumerate() {
            let mut p = block_start[b];
            for instr in &block.instrs {
                step(1);
                for u in instr.uses(&body.args) {
                    touch(u.index(), p);
                    read(b, u.index(), defined_in);
                }
                if let Some(d) = instr.def() {
                    touch(d.index(), p);
                    defined_in[d.index()] = b as u32 + 1;
                }
                p += 1;
            }
            if let Some(u) = block.term.use_reg() {
                touch(u.index(), p);
                read(b, u.index(), defined_in);
            }
        }

        if !exposed.is_empty() {
            // use[b] = read before written in b; def[b] = written in b;
            // both over the columns.
            let words = exposed.len().div_ceil(64);
            let plane = n_blocks * words;
            self.bits.clear();
            self.bits.resize(4 * plane, 0);
            let (use_m, rest) = self.bits.split_at_mut(plane);
            let (def_m, rest) = rest.split_at_mut(plane);
            let (live_in, live_out) = rest.split_at_mut(plane);
            let row = |b: usize| b * words..(b + 1) * words;
            for &(b, c) in exposed_uses.iter() {
                set_bit(&mut use_m[row(b as usize)], c as usize);
            }
            for (b, block) in body.blocks.iter().enumerate() {
                for instr in &block.instrs {
                    step(1);
                    let c = instr.def().map(|d| col[d.index()]);
                    if let Some(c) = c.filter(|&c| c != NO_COL) {
                        set_bit(&mut def_m[row(b)], c as usize);
                    }
                }
            }

            // Backward iterative live-in/live-out.
            let mut changed = true;
            while changed {
                changed = false;
                for b in (0..n_blocks).rev() {
                    for succ in body.blocks[b].term.successors() {
                        for (out, &inn) in
                            live_out[row(b)].iter_mut().zip(&live_in[row(succ.index())])
                        {
                            changed |= inn & !*out != 0;
                            *out |= inn;
                        }
                    }
                    // in[b] = use[b] ∪ (out[b] − def[b])
                    for w in row(b) {
                        let add = use_m[w] | (live_out[w] & !def_m[w]);
                        changed |= add & !live_in[w] != 0;
                        live_in[w] |= add;
                    }
                }
            }

            for b in 0..n_blocks {
                for_each_bit(&live_in[row(b)], |c| {
                    touch(exposed[c] as usize, block_start[b])
                });
                for_each_bit(&live_out[row(b)], |c| {
                    touch(exposed[c] as usize, block_end[b])
                });
            }
        }

        // Linear scan (Poletto–Sarkar), visiting intervals in (start,
        // vreg) order and expiring them in (end, vreg) order.
        let (bucket, by_start, by_end) = (&mut self.bucket, &mut self.by_start, &mut self.by_end);
        sort_intervals(start, end, pos, bucket, by_start, by_end);
        let locs = &mut self.locs;
        locs.clear();
        locs.resize(n_vregs, Loc::Reg(Reg(0)));
        let free = &mut self.free;
        free.clear();
        free.extend((0..NUM_ALLOCATABLE).rev());
        // The interval holding each register; exactly the active ones
        // whenever `free` is empty.
        let mut owner = [0u32; NUM_ALLOCATABLE as usize];
        let mut expired = 0;
        let mut next_spill = 0u32;
        for &v in by_start.iter() {
            step(1);
            let v = v as usize;
            // Every interval that ended before this one starts has been
            // visited; those still in a register give it back.
            while let Some(&a) = by_end.get(expired) {
                if end[a as usize] >= start[v] {
                    break;
                }
                expired += 1;
                if let Loc::Reg(r) = locs[a as usize] {
                    free.push(r.0);
                }
            }
            if let Some(r) = free.pop() {
                locs[v] = Loc::Reg(Reg(r));
                owner[r as usize] = v as u32;
            } else {
                // Spill whichever of (current, furthest active) ends last.
                let (r, &last) = (owner.iter().enumerate())
                    .max_by_key(|&(_, &a)| (end[a as usize], a))
                    .expect("registers to allocate");
                let last = last as usize;
                if end[last] > end[v] {
                    locs[v] = locs[last];
                    owner[r] = v as u32;
                    locs[last] = Loc::Spill(next_spill);
                } else {
                    locs[v] = Loc::Spill(next_spill);
                }
                next_spill += 1;
            }
        }

        // The modelled footprint of a from-scratch run (four liveness
        // planes over every vreg plus the interval and block-position
        // tables), not what this reused scratch happens to hold.
        let plane = n_blocks * n_vregs.div_ceil(64);
        let work_bytes = 4 * plane * std::mem::size_of::<u64>()
            + n_vregs * 2 * std::mem::size_of::<usize>()
            + n_blocks * 2 * std::mem::size_of::<usize>();
        (next_spill, work_bytes)
    }
}

/// Runs liveness + linear scan for `body`, linearized in `order`
/// (pass the layout order so live ranges match emission order).
#[must_use]
pub fn allocate(body: &RoutineBody, order: &[Block]) -> AllocResult {
    scratch::with(|s| {
        let (spill_slots, work_bytes) = s.alloc.allocate(body, order);
        AllocResult {
            locs: s.alloc.locs.clone(),
            spill_slots,
            work_bytes,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::order_blocks;
    use cmo_frontend::compile_module;
    use cmo_ir::link_objects;

    fn body_of(src: &str) -> RoutineBody {
        let obj = compile_module("m", src).unwrap();
        let unit = link_objects(vec![obj]).unwrap();
        let main = unit.program.find_routine("main").unwrap();
        unit.bodies[main.index()].clone()
    }

    #[test]
    fn small_routine_needs_no_spills() {
        let body = body_of("fn main() -> int { var a: int = 1; return a + 2; }");
        let alloc = allocate(&body, &order_blocks(&body, None));
        assert_eq!(alloc.spill_slots, 0);
    }

    #[test]
    fn distinct_live_values_get_distinct_registers() {
        // A long chain of sums keeps many values live at once... but
        // frontend lowering consumes temps eagerly; build a case where
        // all operands stay live to the end.
        let n = 10;
        let mut expr = String::from("x0");
        let mut decls = String::new();
        for i in 0..n {
            decls.push_str(&format!("var x{i}: int = input();\n"));
            if i > 0 {
                expr = format!("({expr} + x{i})");
            }
        }
        let src = format!("fn main() -> int {{ {decls} return {expr}; }}");
        let body = body_of(&src);
        let alloc = allocate(&body, &order_blocks(&body, None));
        // Registers used at overlapping positions must differ.
        let mut seen = std::collections::HashSet::new();
        for (v, loc) in alloc.locs.iter().enumerate() {
            if let Loc::Reg(r) = loc {
                assert!(r.0 < NUM_ALLOCATABLE, "vreg {v} got scratch register");
                seen.insert(r.0);
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn pressure_forces_spills() {
        // More simultaneously-live values than allocatable registers.
        let n = NUM_ALLOCATABLE as usize + 8;
        let mut decls = String::new();
        let mut sum = String::from("0");
        for i in 0..n {
            decls.push_str(&format!("var x{i}: int = input();\n"));
            sum = format!("({sum} + x{i} * x{i})");
        }
        // Keeping xi live: reuse them all again after the first sum.
        let src = format!("fn main() -> int {{ {decls} var a: int = {sum}; return a + {sum}; }}");
        let body = body_of(&src);
        let alloc = allocate(&body, &order_blocks(&body, None));
        // The frontend lowers through locals (slots), so pressure here
        // comes from expression temps; at minimum the allocator must
        // never hand out scratch registers and must stay consistent.
        for loc in &alloc.locs {
            if let Loc::Reg(r) = loc {
                assert!(r.0 < NUM_ALLOCATABLE);
            }
        }
        assert!(alloc.work_bytes > 0);
    }

    #[test]
    fn loop_carried_values_span_the_loop() {
        let body = body_of(
            "fn main() -> int { var s: int = 0; var i: int = 0; while (i < 10) { s = s + i; i = i + 1; } return s; }",
        );
        let alloc = allocate(&body, &order_blocks(&body, None));
        assert_eq!(alloc.locs.len(), body.n_vregs as usize);
    }

    #[test]
    fn work_bytes_grow_superlinearly() {
        let small = body_of("fn main() -> int { return 1; }");
        let mut big_src = String::from("fn main() -> int { var s: int = 0;\n");
        for i in 0..200 {
            big_src.push_str(&format!("if (s < {i}) {{ s = s + {i}; }}\n"));
        }
        big_src.push_str("return s; }");
        let big = body_of(&big_src);
        let a_small = allocate(&small, &order_blocks(&small, None));
        let a_big = allocate(&big, &order_blocks(&big, None));
        let size_ratio = big.instr_count() as f64 / small.instr_count().max(1) as f64;
        let mem_ratio = a_big.work_bytes as f64 / a_small.work_bytes.max(1) as f64;
        assert!(
            mem_ratio > size_ratio,
            "liveness memory should grow faster than code size ({mem_ratio:.1} vs {size_ratio:.1})"
        );
    }

    /// Interval-derivation steps of `allocate` on `n_blocks` blocks in
    /// a chain, each reading and writing 16 vregs of its own, with one
    /// value live through all of them.
    fn interval_steps(n_blocks: usize) -> u64 {
        use cmo_ir::{BlockData, Instr, Terminator};
        let mut body = RoutineBody::new();
        let through = body.new_vreg();
        for b in 0..n_blocks {
            let term = if b + 1 < n_blocks {
                Terminator::Jump(Block::from_index(b + 1))
            } else {
                Terminator::Return(Some(through))
            };
            let mut block = BlockData::new(term);
            if b == 0 {
                block.instrs.push(Instr::Input { dst: through });
            }
            for _ in 0..16 {
                let v = body.new_vreg();
                block.instrs.push(Instr::Input { dst: v });
                block.instrs.push(Instr::Output { src: v });
            }
            body.blocks.push(block);
        }
        let order = order_blocks(&body, None);
        // The backward fixed point and the scan count nothing: the
        // steps are the interval derivation's alone (one per
        // instruction in the use/def walk, plus the live-set bits).
        let before = crate::scratch::STEPS.get();
        let alloc = allocate(&body, &order);
        assert_eq!(alloc.spill_slots, 0);
        crate::scratch::STEPS.get() - before
    }

    #[test]
    fn interval_derivation_does_not_test_every_vreg_in_every_block() {
        // 4x the blocks and 4x the vregs. Testing each vreg's bit in
        // each block made this ~14x; what is left of blocks x vregs
        // is one step per 64-vreg word.
        let (small, large) = (interval_steps(4), interval_steps(16));
        assert!(
            large <= 5 * small,
            "{small} steps for 4 blocks, {large} for 16"
        );
    }

    #[test]
    fn liveness_costs_nothing_for_block_local_registers() {
        use cmo_ir::{BlockData, Instr, Terminator};
        // A chain of `n_blocks` blocks, each writing then reading 16
        // vregs of its own: no vreg is live into any block.
        let steps = |n_blocks: usize| {
            let mut body = RoutineBody::new();
            for b in 0..n_blocks {
                let term = if b + 1 < n_blocks {
                    Terminator::Jump(Block::from_index(b + 1))
                } else {
                    Terminator::Return(None)
                };
                let mut block = BlockData::new(term);
                for _ in 0..16 {
                    let v = body.new_vreg();
                    block.instrs.push(Instr::Input { dst: v });
                    block.instrs.push(Instr::Output { src: v });
                }
                body.blocks.push(block);
            }
            let order = order_blocks(&body, None);
            let before = crate::scratch::STEPS.get();
            let alloc = allocate(&body, &order);
            assert_eq!(alloc.spill_slots, 0);
            crate::scratch::STEPS.get() - before
        };
        // 32 instructions and 16 intervals per block. Liveness over
        // every vreg walked blocks x vregs / 64 plane words twice: at
        // 256 blocks, four more steps per instruction.
        for n_blocks in [16, 256] {
            let instrs = 32 * n_blocks as u64;
            let s = steps(n_blocks);
            assert!(s <= 3 * instrs, "{s} steps for {instrs} instructions");
        }
    }
}
