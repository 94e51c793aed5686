//! The LLO passes exactly as they stood before the allocation-free
//! rewrite (`HashMap` facts with `retain` invalidation, per-round
//! `Vec`s, per-routine bit matrices with a per-vreg bit-test loop, a
//! hashed block-offset table), kept as the reference model
//! `prop_llo_reference.rs` checks the production passes against.
//! Only the names changed (`ref_*`) and `Instr::uses` became an
//! iterator; nothing here is meant to be fast.
#![allow(clippy::all, clippy::pedantic, missing_docs, dead_code)]

use cmo_ir::{
    BinOp, Block, BlockData, Const, Instr, Local, MemBase, Program, RoutineBody, RoutineId,
    Terminator, UnOp, VReg,
};
use cmo_llo::opt::OptStats;
use cmo_llo::regalloc::{AllocResult, Loc, MAX_ARGS, NUM_ALLOCATABLE};
use cmo_llo::{shape_of, GlobalLayout, LloOptions, LoweredRoutine, OptEffort};
use cmo_profile::ProbeKind;
use cmo_vm::{CallArgs, MInstr, Reg};
use std::collections::HashMap;

// ---- opt.rs ----

fn fold_bin(op: BinOp, a: Const, b: Const) -> Option<Const> {
    use Const::{F, I};
    Some(match (op, a, b) {
        (BinOp::Add, I(x), I(y)) => I(x.wrapping_add(y)),
        (BinOp::Sub, I(x), I(y)) => I(x.wrapping_sub(y)),
        (BinOp::Mul, I(x), I(y)) => I(x.wrapping_mul(y)),
        (BinOp::Div, I(x), I(y)) => I(if y == 0 { 0 } else { x.wrapping_div(y) }),
        (BinOp::Rem, I(x), I(y)) => I(if y == 0 { 0 } else { x.wrapping_rem(y) }),
        (BinOp::And, I(x), I(y)) => I(x & y),
        (BinOp::Or, I(x), I(y)) => I(x | y),
        (BinOp::Xor, I(x), I(y)) => I(x ^ y),
        (BinOp::Shl, I(x), I(y)) => I(x.wrapping_shl(y as u32 & 63)),
        (BinOp::Shr, I(x), I(y)) => I(x.wrapping_shr(y as u32 & 63)),
        (BinOp::Eq, I(x), I(y)) => I(i64::from(x == y)),
        (BinOp::Ne, I(x), I(y)) => I(i64::from(x != y)),
        (BinOp::Lt, I(x), I(y)) => I(i64::from(x < y)),
        (BinOp::Le, I(x), I(y)) => I(i64::from(x <= y)),
        (BinOp::FAdd, F(x), F(y)) => F(x + y),
        (BinOp::FSub, F(x), F(y)) => F(x - y),
        (BinOp::FMul, F(x), F(y)) => F(x * y),
        (BinOp::FDiv, F(x), F(y)) => F(x / y),
        (BinOp::FLt, F(x), F(y)) => I(i64::from(x < y)),
        (BinOp::FEq, F(x), F(y)) => I(i64::from(x == y)),
        _ => return None,
    })
}

fn fold_un(op: UnOp, v: Const) -> Option<Const> {
    use Const::{F, I};
    Some(match (op, v) {
        (UnOp::Neg, I(x)) => I(x.wrapping_neg()),
        (UnOp::Not, I(x)) => I(i64::from(x == 0)),
        (UnOp::FNeg, F(x)) => F(-x),
        (UnOp::I2F, I(x)) => F(x as f64),
        (UnOp::F2I, F(x)) => I(x as i64),
        _ => return None,
    })
}

/// Per-block constant and copy propagation.
///
/// Returns the number of folds and propagated copies. Virtual-register
/// and local-scalar values are tracked within each block; both maps are
/// conservatively cleared at block entry (vregs may be live across
/// blocks after inlining, but then they are not redefined here, so
/// per-block tracking of *definitions seen in this block* is sound).
/// Local scalars also forward the last stored vreg (`store l, v; ... ;
/// x = load l` becomes `x = mov v`), which is what makes inlined
/// argument traffic disappear after block merging.
pub fn ref_const_and_copy_prop(body: &mut RoutineBody) -> OptStats {
    let mut stats = OptStats::default();
    for block in &mut body.blocks {
        // Known constant value of a vreg / local, within this block.
        let mut vconst: HashMap<VReg, Const> = HashMap::new();
        let mut lconst: HashMap<Local, Const> = HashMap::new();
        // Last vreg stored to a local, within this block.
        let mut lcopy: HashMap<Local, VReg> = HashMap::new();
        // Copy chains: vreg -> earlier equivalent vreg.
        let mut copy_of: HashMap<VReg, VReg> = HashMap::new();

        let resolve = |copy_of: &HashMap<VReg, VReg>, mut r: VReg| -> VReg {
            let mut hops = 0;
            while let Some(&s) = copy_of.get(&r) {
                r = s;
                hops += 1;
                if hops > 64 {
                    break;
                }
            }
            r
        };

        for instr in &mut block.instrs {
            // Rewrite sources through copy chains first.
            match instr {
                Instr::Bin { lhs, rhs, .. } => {
                    *lhs = resolve(&copy_of, *lhs);
                    *rhs = resolve(&copy_of, *rhs);
                }
                Instr::Un { src, .. }
                | Instr::Mov { src, .. }
                | Instr::StoreLocal { src, .. }
                | Instr::StoreGlobal { src, .. }
                | Instr::Output { src } => *src = resolve(&copy_of, *src),
                Instr::LoadElem { index, .. } => *index = resolve(&copy_of, *index),
                Instr::StoreElem { index, src, .. } => {
                    *index = resolve(&copy_of, *index);
                    *src = resolve(&copy_of, *src);
                }
                Instr::Call { args, .. } => {
                    for a in body.args[args.range()].iter_mut() {
                        *a = resolve(&copy_of, *a);
                    }
                }
                _ => {}
            }

            // A new definition invalidates stale facts about dst.
            if let Some(d) = instr.def() {
                vconst.remove(&d);
                copy_of.remove(&d);
                // Anything copying from d is now stale.
                copy_of.retain(|_, v| *v != d);
                lcopy.retain(|_, v| *v != d);
            }

            // Learn facts / fold.
            match instr {
                Instr::Const { dst, value } => {
                    vconst.insert(*dst, *value);
                }
                Instr::Mov { dst, src } => {
                    if let Some(&c) = vconst.get(src) {
                        vconst.insert(*dst, c);
                        *instr = Instr::Const {
                            dst: *dst,
                            value: c,
                        };
                        stats.folded += 1;
                    } else {
                        copy_of.insert(*dst, *src);
                    }
                }
                Instr::Bin { dst, op, lhs, rhs } => {
                    if let (Some(&a), Some(&b)) = (vconst.get(lhs), vconst.get(rhs)) {
                        if let Some(c) = fold_bin(*op, a, b) {
                            vconst.insert(*dst, c);
                            *instr = Instr::Const {
                                dst: *dst,
                                value: c,
                            };
                            stats.folded += 1;
                        }
                    }
                }
                Instr::Un { dst, op, src } => {
                    if let Some(&v) = vconst.get(src) {
                        if let Some(c) = fold_un(*op, v) {
                            vconst.insert(*dst, c);
                            *instr = Instr::Const {
                                dst: *dst,
                                value: c,
                            };
                            stats.folded += 1;
                        }
                    }
                }
                Instr::StoreLocal { local, src } => {
                    match vconst.get(src) {
                        Some(&c) => {
                            lconst.insert(*local, c);
                            lcopy.remove(local);
                        }
                        None => {
                            lconst.remove(local);
                            lcopy.insert(*local, *src);
                        }
                    };
                }
                Instr::LoadLocal { dst, local } => {
                    if let Some(&c) = lconst.get(local) {
                        vconst.insert(*dst, c);
                        *instr = Instr::Const {
                            dst: *dst,
                            value: c,
                        };
                        stats.folded += 1;
                    } else if let Some(&v) = lcopy.get(local) {
                        let dst = *dst;
                        *instr = Instr::Mov { dst, src: v };
                        copy_of.insert(dst, v);
                    }
                }
                _ => {}
            }
        }

        // Fold constant branch conditions.
        if let Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } = block.term
        {
            let cond = resolve(&copy_of, cond);
            if let Some(&c) = vconst.get(&cond) {
                block.term = Terminator::Jump(if c.is_zero() { else_bb } else { then_bb });
                stats.branches += 1;
            }
        }
    }
    stats
}

/// Straightens control flow: threads jumps through empty blocks,
/// normalizes branches with equal targets into jumps, and merges a
/// block into its unique `Jump` predecessor. Merging is what exposes
/// inlined callee entries to the per-block propagator — the pre-call
/// block ends in a jump to the single-predecessor callee entry, and
/// after merging, constant arguments flow into the callee body.
pub fn ref_merge_blocks(body: &mut RoutineBody) -> OptStats {
    let mut stats = OptStats::default();
    let n = body.blocks.len();

    // Branch with both edges equal -> jump.
    for block in &mut body.blocks {
        if let Terminator::Branch {
            then_bb, else_bb, ..
        } = block.term
        {
            if then_bb == else_bb {
                block.term = Terminator::Jump(then_bb);
                stats.branches += 1;
            }
        }
    }

    // Jump threading: resolve chains of empty jump-only blocks.
    let thread = |mut b: Block, body: &RoutineBody| -> Block {
        let mut hops = 0;
        loop {
            let target = &body.blocks[b.index()];
            match target.term {
                Terminator::Jump(next) if target.instrs.is_empty() && next != b && hops < n => {
                    b = next;
                    hops += 1;
                }
                _ => return b,
            }
        }
    };
    for i in 0..n {
        let term = body.blocks[i].term.clone();
        body.blocks[i].term = match term {
            Terminator::Jump(t) => Terminator::Jump(thread(t, body)),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => Terminator::Branch {
                cond,
                then_bb: thread(then_bb, body),
                else_bb: thread(else_bb, body),
            },
            r @ Terminator::Return(_) => r,
        };
    }

    // Merge single-predecessor jump targets into their predecessor.
    let mut pred_count = vec![0usize; n];
    for block in &body.blocks {
        for s in block.term.successors() {
            pred_count[s.index()] += 1;
        }
    }
    for a in 0..n {
        while let Terminator::Jump(b) = body.blocks[a].term {
            if b.index() == a || b.index() == 0 || pred_count[b.index()] != 1 {
                break;
            }
            let merged = std::mem::take(&mut body.blocks[b.index()].instrs);
            let term =
                std::mem::replace(&mut body.blocks[b.index()].term, Terminator::Return(None));
            // Leave b as an unreachable husk; remove_unreachable
            // renumbers later.
            pred_count[b.index()] = 0;
            body.blocks[a].instrs.extend(merged);
            body.blocks[a].term = term;
            stats.unreachable += 1;
        }
    }
    stats
}

/// Removes instructions whose results are never used anywhere in the
/// routine and which have no side effects, plus stores to scalar
/// locals that are never loaded (after inlining and propagation,
/// parameter-passing slots die this way). Iterates to a fixed point.
pub fn ref_dead_code_elim(body: &mut RoutineBody) -> OptStats {
    let mut stats = OptStats::default();
    loop {
        let mut used = vec![false; body.n_vregs as usize];
        let mut mark = |r: VReg| {
            if let Some(slot) = used.get_mut(r.index()) {
                *slot = true;
            }
        };
        // Scalar locals that are ever loaded; array locals are kept
        // conservatively (any element access pins the whole array).
        let mut local_read = vec![false; body.locals.len()];
        for (i, decl) in body.locals.iter().enumerate() {
            if decl.ty.is_array() {
                local_read[i] = true;
            }
        }
        for block in &body.blocks {
            for instr in &block.instrs {
                for u in instr.uses(&body.args) {
                    mark(u);
                }
                if let Instr::LoadLocal { local, .. } = instr {
                    local_read[local.index()] = true;
                }
            }
            if let Some(u) = block.term.use_reg() {
                mark(u);
            }
        }
        let mut removed = 0;
        for block in &mut body.blocks {
            block.instrs.retain(|i| {
                let dead = match i {
                    Instr::StoreLocal { local, .. } => !local_read[local.index()],
                    _ => {
                        !i.has_side_effects()
                            && i.def()
                                .is_some_and(|d| !used.get(d.index()).copied().unwrap_or(true))
                    }
                };
                if dead {
                    removed += 1;
                }
                !dead
            });
        }
        stats.dead += removed;
        if removed == 0 {
            return stats;
        }
    }
}

/// Removes blocks unreachable from the entry, remapping block ids and
/// (when supplied) the maintained block-count vector — profile counts
/// live in the pre-optimization block-id domain and must follow the
/// blocks through every structural transformation (§3: "the compiler
/// correlates profile information from the database with current
/// program structures").
pub fn ref_remove_unreachable(body: &mut RoutineBody, counts: Option<&mut Vec<u64>>) -> OptStats {
    let mut stats = OptStats::default();
    let n = body.blocks.len();
    let mut reachable = vec![false; n];
    let mut work = vec![Block(0)];
    while let Some(b) = work.pop() {
        if reachable[b.index()] {
            continue;
        }
        reachable[b.index()] = true;
        for s in body.blocks[b.index()].term.successors() {
            if !reachable[s.index()] {
                work.push(s);
            }
        }
    }
    if reachable.iter().all(|&r| r) {
        return stats;
    }
    let mut remap = vec![Block(u32::MAX); n];
    let mut new_blocks: Vec<BlockData> = Vec::new();
    for (i, keep) in reachable.iter().enumerate() {
        if *keep {
            remap[i] = Block::from_index(new_blocks.len());
            new_blocks.push(body.blocks[i].clone());
        } else {
            stats.unreachable += 1;
        }
    }
    if let Some(counts) = counts {
        counts.resize(n, 0);
        let mut new_counts = vec![0u64; new_blocks.len()];
        for (i, keep) in reachable.iter().enumerate() {
            if *keep {
                new_counts[remap[i].index()] = counts[i];
            }
        }
        *counts = new_counts;
    }
    for block in &mut new_blocks {
        block.term = match block.term.clone() {
            Terminator::Jump(b) => Terminator::Jump(remap[b.index()]),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => Terminator::Branch {
                cond,
                then_bb: remap[then_bb.index()],
                else_bb: remap[else_bb.index()],
            },
            r @ Terminator::Return(_) => r,
        };
    }
    body.blocks = new_blocks;
    stats
}

/// The full local optimization pipeline, iterated until quiescent.
pub fn ref_optimize(body: &mut RoutineBody) -> OptStats {
    ref_optimize_with_counts(body, None)
}

/// [`optimize`], additionally maintaining a block-count vector through
/// every structural change so profile-guided layout downstream sees
/// correlated data.
pub fn ref_optimize_with_counts(
    body: &mut RoutineBody,
    mut counts: Option<&mut Vec<u64>>,
) -> OptStats {
    let mut total = OptStats::default();
    for _ in 0..12 {
        let m = ref_merge_blocks(body);
        let a = ref_const_and_copy_prop(body);
        let b = ref_dead_code_elim(body);
        let c = ref_remove_unreachable(body, counts.as_deref_mut());
        total.folded += a.folded;
        total.branches += a.branches + m.branches;
        total.dead += b.dead;
        total.unreachable += c.unreachable + m.unreachable;
        if m.unreachable + m.branches + a.folded + a.branches + b.dead + c.unreachable == 0 {
            break;
        }
    }
    total
}

// ---- layout.rs ----

/// Computes a block ordering. `counts[b]` is the execution count of
/// block `b` (from the profile database, or maintained by HLO through
/// its transformations); `None` keeps source order.
///
/// The algorithm is greedy chain formation: starting from the entry,
/// repeatedly extend the current chain with the hottest unplaced
/// successor; when the chain dies, restart from the hottest unplaced
/// block. Ties break toward lower block ids, keeping layout
/// deterministic (§6.2).
#[must_use]
pub fn ref_order_blocks(body: &RoutineBody, counts: Option<&[u64]>) -> Vec<Block> {
    let n = body.blocks.len();
    let Some(counts) = counts else {
        return (0..n).map(Block::from_index).collect();
    };
    let count = |b: Block| counts.get(b.index()).copied().unwrap_or(0);
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut cur = Some(Block(0));
    loop {
        match cur {
            Some(b) if !placed[b.index()] => {
                placed[b.index()] = true;
                order.push(b);
                cur = body.blocks[b.index()]
                    .term
                    .successors()
                    .into_iter()
                    .filter(|s| !placed[s.index()])
                    .max_by(|a, b| count(*a).cmp(&count(*b)).then(b.cmp(a)));
            }
            _ => {
                // Start a new chain at the hottest unplaced block.
                cur = (0..n)
                    .map(Block::from_index)
                    .filter(|b| !placed[b.index()])
                    .max_by(|a, b| count(*a).cmp(&count(*b)).then(b.cmp(a)));
                if cur.is_none() {
                    return order;
                }
            }
        }
    }
}

// ---- regalloc.rs ----

struct BitMatrix {
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    fn new(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        BitMatrix {
            words_per_row,
            bits: vec![0; rows * words_per_row],
        }
    }

    fn set(&mut self, row: usize, col: usize) {
        self.bits[row * self.words_per_row + col / 64] |= 1 << (col % 64);
    }

    fn get(&self, row: usize, col: usize) -> bool {
        self.bits[row * self.words_per_row + col / 64] & (1 << (col % 64)) != 0
    }

    fn union_row_from(&mut self, row: usize, other: &BitMatrix, other_row: usize) -> bool {
        let mut changed = false;
        for w in 0..self.words_per_row {
            let add = other.bits[other_row * other.words_per_row + w];
            let cell = &mut self.bits[row * self.words_per_row + w];
            let new = *cell | add;
            changed |= new != *cell;
            *cell = new;
        }
        changed
    }

    fn bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// Runs liveness + linear scan for `body`, linearized in `order`
/// (pass the layout order so live ranges match emission order).
#[must_use]
pub fn ref_allocate(body: &RoutineBody, order: &[Block]) -> AllocResult {
    let n_blocks = body.blocks.len();
    let n_vregs = body.n_vregs as usize;

    // use[b] = read before written in b; def[b] = written in b.
    let mut use_m = BitMatrix::new(n_blocks, n_vregs);
    let mut def_m = BitMatrix::new(n_blocks, n_vregs);
    let mut uses_buf = Vec::new();
    for (b, block) in body.blocks.iter().enumerate() {
        for instr in &block.instrs {
            uses_buf.clear();
            uses_buf.extend(instr.uses(&body.args));
            for &u in &uses_buf {
                if !def_m.get(b, u.index()) {
                    use_m.set(b, u.index());
                }
            }
            if let Some(d) = instr.def() {
                def_m.set(b, d.index());
            }
        }
        if let Some(u) = block.term.use_reg() {
            if !def_m.get(b, u.index()) {
                use_m.set(b, u.index());
            }
        }
    }

    // Backward iterative live-in/live-out.
    let mut live_in = BitMatrix::new(n_blocks, n_vregs);
    let mut live_out = BitMatrix::new(n_blocks, n_vregs);
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n_blocks).rev() {
            for succ in body.blocks[b].term.successors() {
                changed |= live_out.union_row_from(b, &live_in, succ.index());
            }
            // in[b] = use[b] ∪ (out[b] − def[b])
            changed |= live_in.union_row_from(b, &use_m, b);
            changed |= {
                let mut c = false;
                for w in 0..live_in.words_per_row {
                    let add = live_out.bits[b * live_out.words_per_row + w]
                        & !def_m.bits[b * def_m.words_per_row + w];
                    let cell = &mut live_in.bits[b * live_in.words_per_row + w];
                    let new = *cell | add;
                    c |= new != *cell;
                    *cell = new;
                }
                c
            };
        }
    }

    // Linear positions in emission order: each block occupies
    // [start, start + len + 1] (terminator gets its own position).
    let mut block_start = vec![0usize; n_blocks];
    let mut block_end = vec![0usize; n_blocks];
    let mut pos = 0usize;
    for &b in order {
        block_start[b.index()] = pos;
        pos += body.blocks[b.index()].instrs.len() + 1;
        block_end[b.index()] = pos - 1;
    }

    // Intervals.
    const UNSET: usize = usize::MAX;
    let mut start = vec![UNSET; n_vregs];
    let mut end = vec![0usize; n_vregs];
    let touch = |v: usize, p: usize, start: &mut Vec<usize>, end: &mut Vec<usize>| {
        if start[v] == UNSET || p < start[v] {
            start[v] = p;
        }
        if p > end[v] {
            end[v] = p;
        }
    };
    for &b in order {
        let bi = b.index();
        for v in 0..n_vregs {
            if live_in.get(bi, v) {
                touch(v, block_start[bi], &mut start, &mut end);
            }
            if live_out.get(bi, v) {
                touch(v, block_end[bi], &mut start, &mut end);
            }
        }
        let mut p = block_start[bi];
        for instr in &body.blocks[bi].instrs {
            uses_buf.clear();
            uses_buf.extend(instr.uses(&body.args));
            for &u in &uses_buf {
                touch(u.index(), p, &mut start, &mut end);
            }
            if let Some(d) = instr.def() {
                touch(d.index(), p, &mut start, &mut end);
            }
            p += 1;
        }
        if let Some(u) = body.blocks[bi].term.use_reg() {
            touch(u.index(), p, &mut start, &mut end);
        }
    }

    // Linear scan (Poletto–Sarkar).
    let mut intervals: Vec<usize> = (0..n_vregs).filter(|&v| start[v] != UNSET).collect();
    intervals.sort_by_key(|&v| (start[v], v));
    let mut locs = vec![Loc::Reg(Reg(0)); n_vregs];
    let mut active: Vec<usize> = Vec::new(); // vregs, sorted by end
    let mut free: Vec<u8> = (0..NUM_ALLOCATABLE).rev().collect();
    let mut next_spill = 0u32;
    for &v in &intervals {
        // Expire.
        let mut i = 0;
        while i < active.len() {
            let a = active[i];
            if end[a] < start[v] {
                if let Loc::Reg(r) = locs[a] {
                    free.push(r.0);
                }
                active.remove(i);
            } else {
                i += 1;
            }
        }
        if let Some(r) = free.pop() {
            locs[v] = Loc::Reg(Reg(r));
            let at = active
                .binary_search_by(|&a| end[a].cmp(&end[v]).then(a.cmp(&v)))
                .unwrap_or_else(|e| e);
            active.insert(at, v);
        } else {
            // Spill whichever of (current, furthest active) ends last.
            let last = *active.last().expect("active nonempty when no free regs");
            if end[last] > end[v] {
                locs[v] = locs[last];
                locs[last] = Loc::Spill(next_spill);
                next_spill += 1;
                active.pop();
                let at = active
                    .binary_search_by(|&a| end[a].cmp(&end[v]).then(a.cmp(&v)))
                    .unwrap_or_else(|e| e);
                active.insert(at, v);
            } else {
                locs[v] = Loc::Spill(next_spill);
                next_spill += 1;
            }
        }
    }

    let work_bytes = use_m.bytes()
        + def_m.bytes()
        + live_in.bytes()
        + live_out.bytes()
        + n_vregs * 2 * std::mem::size_of::<usize>()
        + n_blocks * 2 * std::mem::size_of::<usize>();

    AllocResult {
        locs,
        spill_slots: next_spill,
        work_bytes,
    }
}

// ---- lower.rs ----

struct Emitter<'a> {
    code: Vec<MInstr>,
    locs: &'a [Loc],
    /// Frame slot of each local's base.
    local_base: Vec<u32>,
    /// First frame slot of the spill area.
    spill_base: u32,
    /// Fixups: (code index, target block) to patch to block offsets.
    fixups: Vec<(usize, Block)>,
    scratch_next: u8,
}

impl Emitter<'_> {
    fn scratch(&mut self) -> Reg {
        let r = Reg(NUM_ALLOCATABLE + self.scratch_next);
        self.scratch_next = (self.scratch_next + 1) % MAX_ARGS as u8;
        r
    }

    /// Materializes vreg `v` into a register, loading from its spill
    /// slot if needed.
    fn read(&mut self, v: VReg) -> Reg {
        match self.locs[v.index()] {
            Loc::Reg(r) => r,
            Loc::Spill(s) => {
                let r = self.scratch();
                self.code.push(MInstr::LdSlot {
                    dst: r,
                    slot: self.spill_base + s,
                });
                r
            }
        }
    }

    /// Returns the register to compute vreg `v` into; call
    /// [`Emitter::finish_write`] afterwards to store spills.
    fn write_reg(&mut self, v: VReg) -> Reg {
        match self.locs[v.index()] {
            Loc::Reg(r) => r,
            Loc::Spill(_) => self.scratch(),
        }
    }

    fn finish_write(&mut self, v: VReg, r: Reg) {
        if let Loc::Spill(s) = self.locs[v.index()] {
            self.code.push(MInstr::StSlot {
                slot: self.spill_base + s,
                src: r,
            });
        }
    }
}

/// Lowers one routine to machine code.
///
/// The body must be fully resolved (post IL-link). The returned code is
/// relocatable: `Jmp`/`Br` targets are relative to the routine start,
/// and `Call` operands are program routine ids the linker maps to
/// image indices.
///
/// # Panics
///
/// Panics if a call passes more than [`MAX_ARGS`] arguments (the MLC
/// frontend enforces this bound) or if the body contains unresolved
/// references.
#[must_use]
pub fn ref_lower_routine(
    rid: RoutineId,
    body: &RoutineBody,
    program: &Program,
    globals: &GlobalLayout,
    options: &LloOptions,
) -> LoweredRoutine {
    let meta = program.routine(rid);
    let name = program.name(meta.name).to_owned();

    // 1. Local optimization on a working copy. Block counts arrive in
    //    the pre-optimization (frontend/HLO) block-id domain and are
    //    maintained through every structural change. Instrumented
    //    builds skip IL optimization entirely so probes map 1:1 onto
    //    that stable domain — this is what keeps the profile database
    //    correlated across option levels (§3, §6.2).
    let mut body = body.clone();
    let mut counts = options.block_counts.as_deref().map(|c| {
        let mut v = c.to_vec();
        v.resize(body.blocks.len(), 0);
        v
    });
    if options.effort.0 >= OptEffort::O2 && !options.instrument {
        ref_optimize_with_counts(&mut body, counts.as_mut());
    }
    let shape = shape_of(&body);

    // 2. Layout.
    let order = ref_order_blocks(&body, counts.as_deref());

    // 3. Register allocation.
    let alloc = ref_allocate(&body, &order);

    // 4. Frame layout: locals first (arrays get contiguous slots),
    //    spill area after.
    let mut local_base = Vec::with_capacity(body.locals.len());
    let mut next_slot = 0u32;
    for decl in &body.locals {
        local_base.push(next_slot);
        next_slot += decl.ty.slots();
    }
    let spill_base = next_slot;
    let frame_slots = next_slot + alloc.spill_slots;

    let mut e = Emitter {
        code: Vec::with_capacity(body.instr_count() * 2),
        locs: &alloc.locs,
        local_base,
        spill_base,
        fixups: Vec::new(),
        scratch_next: 0,
    };
    let mut probes: Vec<ProbeKind> = Vec::new();

    // Prologue: copy incoming argument registers into parameter slots.
    let arity = meta.sig.arity();
    assert!(arity <= MAX_ARGS, "arity {arity} exceeds backend limit");
    for i in 0..arity {
        e.code.push(MInstr::StSlot {
            slot: e.local_base[i],
            src: Reg(i as u8),
        });
    }

    let mut block_offset: HashMap<Block, u32> = HashMap::new();
    for (pos, &b) in order.iter().enumerate() {
        block_offset.insert(b, e.code.len() as u32);
        if options.instrument {
            probes.push(ProbeKind::Block(b.index() as u32));
            e.code.push(MInstr::Probe {
                id: (probes.len() - 1) as u32,
            });
        }
        for instr in &body.blocks[b.index()].instrs {
            e.scratch_next = 0;
            emit_instr(
                &mut e,
                instr,
                &body.args,
                globals,
                options.instrument,
                &mut probes,
            );
        }
        e.scratch_next = 0;
        let next = order.get(pos + 1).copied();
        match &body.blocks[b.index()].term {
            Terminator::Jump(t) => {
                if next != Some(*t) {
                    e.fixups.push((e.code.len(), *t));
                    e.code.push(MInstr::Jmp { target: 0 });
                }
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = e.read(*cond);
                if next == Some(*else_bb) {
                    e.fixups.push((e.code.len(), *then_bb));
                    e.code.push(MInstr::Br { cond: c, target: 0 });
                } else if next == Some(*then_bb) {
                    let inv = e.scratch();
                    e.code.push(MInstr::Un {
                        op: UnOp::Not,
                        dst: inv,
                        src: c,
                    });
                    e.fixups.push((e.code.len(), *else_bb));
                    e.code.push(MInstr::Br {
                        cond: inv,
                        target: 0,
                    });
                } else {
                    e.fixups.push((e.code.len(), *then_bb));
                    e.code.push(MInstr::Br { cond: c, target: 0 });
                    e.fixups.push((e.code.len(), *else_bb));
                    e.code.push(MInstr::Jmp { target: 0 });
                }
            }
            Terminator::Return(v) => {
                let value = v.map(|r| e.read(r));
                e.code.push(MInstr::Ret { value });
            }
        }
    }

    // Patch branch targets.
    for (idx, target) in e.fixups.clone() {
        let off = block_offset[&target];
        match &mut e.code[idx] {
            MInstr::Jmp { target } | MInstr::Br { target, .. } => *target = off,
            other => unreachable!("fixup on non-branch {other:?}"),
        }
    }

    LoweredRoutine {
        name,
        code: e.code,
        frame_slots,
        probes,
        shape,
        llo_work_bytes: alloc.work_bytes,
        il_after_opt: body.instr_count() as u32,
    }
}

fn emit_instr(
    e: &mut Emitter<'_>,
    instr: &Instr,
    pool: &[VReg],
    globals: &GlobalLayout,
    instrument: bool,
    probes: &mut Vec<ProbeKind>,
) {
    match instr {
        Instr::Const { dst, value } => {
            let r = e.write_reg(*dst);
            match value {
                cmo_ir::Const::I(v) => e.code.push(MInstr::LdImm { dst: r, value: *v }),
                cmo_ir::Const::F(v) => e.code.push(MInstr::LdImmF { dst: r, value: *v }),
            }
            e.finish_write(*dst, r);
        }
        Instr::Bin { dst, op, lhs, rhs } => {
            let a = e.read(*lhs);
            let b = e.read(*rhs);
            let r = e.write_reg(*dst);
            e.code.push(MInstr::Bin {
                op: *op,
                dst: r,
                lhs: a,
                rhs: b,
            });
            e.finish_write(*dst, r);
        }
        Instr::Un { dst, op, src } => {
            let s = e.read(*src);
            let r = e.write_reg(*dst);
            e.code.push(MInstr::Un {
                op: *op,
                dst: r,
                src: s,
            });
            e.finish_write(*dst, r);
        }
        Instr::Mov { dst, src } => {
            let s = e.read(*src);
            let r = e.write_reg(*dst);
            if s != r {
                e.code.push(MInstr::Mov { dst: r, src: s });
            }
            e.finish_write(*dst, r);
        }
        Instr::LoadLocal { dst, local } => {
            let slot = e.local_base[local.index()];
            let r = e.write_reg(*dst);
            e.code.push(MInstr::LdSlot { dst: r, slot });
            e.finish_write(*dst, r);
        }
        Instr::StoreLocal { local, src } => {
            let s = e.read(*src);
            let slot = e.local_base[local.index()];
            e.code.push(MInstr::StSlot { slot, src: s });
        }
        Instr::LoadGlobal { dst, global } => {
            let g = global.id();
            let r = e.write_reg(*dst);
            e.code.push(MInstr::LdGlobal {
                dst: r,
                addr: globals.addr(g),
            });
            e.finish_write(*dst, r);
        }
        Instr::StoreGlobal { global, src } => {
            let s = e.read(*src);
            e.code.push(MInstr::StGlobal {
                addr: globals.addr(global.id()),
                src: s,
            });
        }
        Instr::LoadElem { dst, base, index } => {
            let i = e.read(*index);
            let r = e.write_reg(*dst);
            match base {
                MemBase::Local(l) => e.code.push(MInstr::LdSlotElem {
                    dst: r,
                    base_slot: e.local_base[l.index()],
                    len: elem_len_local(e, *l),
                    index: i,
                }),
                MemBase::Global(g) => {
                    let g = g.id();
                    e.code.push(MInstr::LdGlobalElem {
                        dst: r,
                        base: globals.addr(g),
                        len: globals.len(g),
                        index: i,
                    });
                }
            }
            e.finish_write(*dst, r);
        }
        Instr::StoreElem { base, index, src } => {
            let i = e.read(*index);
            let s = e.read(*src);
            match base {
                MemBase::Local(l) => e.code.push(MInstr::StSlotElem {
                    base_slot: e.local_base[l.index()],
                    len: elem_len_local(e, *l),
                    index: i,
                    src: s,
                }),
                MemBase::Global(g) => {
                    let g = g.id();
                    e.code.push(MInstr::StGlobalElem {
                        base: globals.addr(g),
                        len: globals.len(g),
                        index: i,
                        src: s,
                    });
                }
            }
        }
        Instr::Call {
            dst,
            callee,
            args,
            site,
        } => {
            assert!(args.len() <= MAX_ARGS, "call arity exceeds backend limit");
            if instrument {
                probes.push(ProbeKind::Site(site.0));
                e.code.push(MInstr::Probe {
                    id: (probes.len() - 1) as u32,
                });
            }
            let arg_regs: CallArgs = pool[args.range()].iter().map(|a| e.read(*a)).collect();
            let dst = &dst.get();
            let r = dst.map(|d| e.write_reg(d));
            e.code.push(MInstr::Call {
                routine: callee.id().0,
                args: arg_regs,
                dst: r,
            });
            if let (Some(d), Some(r)) = (dst, r) {
                e.finish_write(*d, r);
            }
        }
        Instr::Input { dst } => {
            let r = e.write_reg(*dst);
            e.code.push(MInstr::Input { dst: r });
            e.finish_write(*dst, r);
        }
        Instr::Output { src } => {
            let s = e.read(*src);
            e.code.push(MInstr::Output { src: s });
        }
    }
}

/// Array length of a local, recovered from the frame layout (the next
/// local's base minus this one's — or measured directly).
fn elem_len_local(e: &Emitter<'_>, l: cmo_ir::Local) -> u32 {
    let base = e.local_base[l.index()];
    let next = e
        .local_base
        .get(l.index() + 1)
        .copied()
        .unwrap_or(e.spill_base);
    next - base
}
