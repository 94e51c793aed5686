//! Local (intraprocedural) IL optimizations.
//!
//! These are the +O2-level optimizations every routine gets regardless
//! of CMO: per-block constant folding/propagation (through virtual
//! registers and local scalars — MLC has no pointers, so locals cannot
//! alias), copy propagation, dead-code elimination, redundant-branch
//! elimination, and unreachable-block removal. They also run *after*
//! inlining, which is where the paper's CMO wins materialize: inlined
//! constants feed folding, and inlined branches become redundant.
//!
//! Every pass keeps its working tables in an `OptScratch` that the
//! calling thread reuses from routine to routine: facts are dense
//! vectors indexed by vreg / local, so a routine costs no hashing and
//! no per-block or per-instruction allocation.

use crate::scratch::{self, step};
use cmo_ir::{BinOp, Block, Const, Instr, Local, RoutineBody, Terminator, UnOp, VReg};

/// Statistics from one optimization run, for diagnostics and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions replaced by constants.
    pub folded: usize,
    /// Dead instructions removed.
    pub dead: usize,
    /// Conditional branches turned unconditional.
    pub branches: usize,
    /// Unreachable blocks removed.
    pub unreachable: usize,
}

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

/// "`dst` currently equals `src`", as learned from a `mov` or a
/// forwarded store. The fact is present while its `epoch` is the
/// current block's and `src` still has the version it had when the
/// fact was recorded.
#[derive(Clone, Copy)]
struct CopyFact {
    epoch: u64,
    src: VReg,
    src_version: u32,
}

const NO_COPY: CopyFact = CopyFact {
    epoch: 0,
    src: VReg(0),
    src_version: 0,
};

/// What the propagator knows about one vreg (or one scalar local; a
/// local has no `version`) inside the current block.
#[derive(Clone, Copy)]
struct Facts {
    /// Epoch at which `konst` was recorded; 0 = never / removed.
    konst_epoch: u64,
    konst: Const,
    copy: CopyFact,
    /// Bumped at every definition of this vreg: invalidates, in O(1),
    /// every copy fact that names it as source.
    version: u32,
}

const NO_FACTS: Facts = Facts {
    konst_epoch: 0,
    konst: Const::I(0),
    copy: NO_COPY,
    version: 0,
};

/// Chains longer than this are followed no further.
const MAX_COPY_HOPS: u32 = 64;

/// Reads of each vreg and loads of each local, which the dead-code
/// sweep deletes by; `exposed` once one may have reached zero since.
#[derive(Default)]
struct Reads {
    vreg: Vec<u32>,
    local: Vec<u32>,
    exposed: bool,
}

impl Reads {
    /// Zeroes the counts. Array locals start with a load nothing takes
    /// back: any element access pins the whole array.
    fn reset(&mut self, body: &RoutineBody) {
        self.vreg.clear();
        self.vreg.resize(body.n_vregs as usize, 0);
        self.local.clear();
        self.local
            .extend(body.locals.iter().map(|d| u32::from(d.ty.is_array())));
        self.exposed = true;
    }

    fn count(&mut self, instr: &Instr, pool: &[VReg]) {
        for u in instr.uses(pool) {
            self.vreg[u.index()] += 1;
        }
        if let Instr::LoadLocal { local, .. } = instr {
            self.local[local.index()] += 1;
        }
    }

    fn drop_vreg(&mut self, r: VReg) {
        let c = &mut self.vreg[r.index()];
        *c -= 1;
        self.exposed |= *c == 0;
    }

    /// Takes back what [`Reads::count`] added for `instr`.
    fn drop(&mut self, instr: &Instr, pool: &[VReg]) {
        for u in instr.uses(pool) {
            self.drop_vreg(u);
        }
        if let Instr::LoadLocal { local, .. } = instr {
            let c = &mut self.local[local.index()];
            *c -= 1;
            self.exposed |= *c == 0;
        }
    }
}

/// Reusable tables for the passes below.
#[derive(Default)]
pub(crate) struct OptScratch {
    /// Current block's epoch. Bumping it empties every fact table at
    /// once; it never wraps (u64, one bump per block).
    epoch: u64,
    vregs: Vec<Facts>,
    locals: Vec<Facts>,
    /// Counted by a full propagation, then kept exact by every pass.
    reads: Reads,
    /// Blocks `merge_blocks` appended another block to.
    grown: Vec<bool>,
    /// `merge_blocks` / `remove_unreachable`.
    pred_count: Vec<u32>,
    reachable: Vec<bool>,
    work: Vec<Block>,
    remap: Vec<Block>,
}

impl OptScratch {
    fn vconst(&self, r: VReg) -> Option<Const> {
        let f = &self.vregs[r.index()];
        (f.konst_epoch == self.epoch).then_some(f.konst)
    }

    fn set_vconst(&mut self, r: VReg, c: Const) {
        let f = &mut self.vregs[r.index()];
        f.konst_epoch = self.epoch;
        f.konst = c;
    }

    fn lconst(&self, l: Local) -> Option<Const> {
        let f = &self.locals[l.index()];
        (f.konst_epoch == self.epoch).then_some(f.konst)
    }

    /// The source of `fact` if the fact is still present.
    fn copy_source(&self, fact: CopyFact) -> Option<VReg> {
        (fact.epoch == self.epoch && self.vregs[fact.src.index()].version == fact.src_version)
            .then_some(fact.src)
    }

    fn copy_fact(&self, src: VReg) -> CopyFact {
        CopyFact {
            epoch: self.epoch,
            src,
            src_version: self.vregs[src.index()].version,
        }
    }

    /// Follows `r` through the copy chain to its earliest equivalent.
    fn resolve(&self, mut r: VReg) -> VReg {
        let mut hops = 0;
        while let Some(s) = self.copy_source(self.vregs[r.index()].copy) {
            step(1);
            r = s;
            hops += 1;
            if hops > MAX_COPY_HOPS {
                break;
            }
        }
        r
    }

    /// Rewrites source `r` through its copy chain; unless the counts
    /// are being taken `fresh`, moves the read along with it.
    fn rewrite(&mut self, r: &mut VReg, fresh: bool) {
        let s = self.resolve(*r);
        if !fresh && s != *r {
            self.reads.vreg[s.index()] += 1;
            self.reads.drop_vreg(*r);
        }
        *r = s;
    }

    /// Propagates every block, counting reads afresh for `sweep_dead`
    /// (`fresh`), or only the blocks `merge_blocks` grew, adjusting the
    /// counts for each read it moves or drops: propagating any other
    /// block again would change nothing (ARCHITECTURE.md).
    fn propagate(&mut self, body: &mut RoutineBody, fresh: bool) -> OptStats {
        let mut stats = OptStats::default();
        if self.vregs.len() < body.n_vregs as usize {
            self.vregs.resize(body.n_vregs as usize, NO_FACTS);
        }
        if self.locals.len() < body.locals.len() {
            self.locals.resize(body.locals.len(), NO_FACTS);
        }
        if fresh {
            self.reads.reset(body);
        }
        let RoutineBody { blocks, args, .. } = body;
        for (b, block) in blocks.iter_mut().enumerate() {
            if !fresh && !self.grown[b] {
                continue;
            }
            // Facts are per block: a new epoch forgets them all.
            self.epoch += 1;
            for instr in &mut block.instrs {
                step(1);
                // Rewrite sources through copy chains first.
                match instr {
                    Instr::Bin { lhs, rhs, .. } => {
                        self.rewrite(lhs, fresh);
                        self.rewrite(rhs, fresh);
                    }
                    Instr::Un { src, .. }
                    | Instr::Mov { src, .. }
                    | Instr::StoreLocal { src, .. }
                    | Instr::StoreGlobal { src, .. }
                    | Instr::Output { src } => self.rewrite(src, fresh),
                    Instr::LoadElem { index, .. } => self.rewrite(index, fresh),
                    Instr::StoreElem { index, src, .. } => {
                        self.rewrite(index, fresh);
                        self.rewrite(src, fresh);
                    }
                    Instr::Call { args: span, .. } => {
                        for a in &mut args[span.range()] {
                            self.rewrite(a, fresh);
                        }
                    }
                    _ => {}
                }

                // A new definition invalidates stale facts about dst,
                // and (by the version bump) every copy *from* dst.
                if let Some(d) = instr.def() {
                    let f = &mut self.vregs[d.index()];
                    f.konst_epoch = 0;
                    f.copy.epoch = 0;
                    f.version = f.version.wrapping_add(1);
                }

                // Learn facts / fold.
                let folded = match *instr {
                    Instr::Const { dst, value } => {
                        self.set_vconst(dst, value);
                        None
                    }
                    Instr::Mov { dst, src } => {
                        let c = self.vconst(src);
                        if c.is_none() {
                            self.vregs[dst.index()].copy = self.copy_fact(src);
                        }
                        c.map(|c| (dst, c))
                    }
                    Instr::Bin { dst, op, lhs, rhs } => self
                        .vconst(lhs)
                        .zip(self.vconst(rhs))
                        .and_then(|(a, b)| fold_bin(op, a, b))
                        .map(|c| (dst, c)),
                    Instr::Un { dst, op, src } => self
                        .vconst(src)
                        .and_then(|v| fold_un(op, v))
                        .map(|c| (dst, c)),
                    Instr::StoreLocal { local, src } => {
                        // The local now holds a constant or a copy of
                        // `src`, never both.
                        self.locals[local.index()] = match self.vconst(src) {
                            Some(c) => Facts {
                                konst_epoch: self.epoch,
                                konst: c,
                                ..NO_FACTS
                            },
                            None => Facts {
                                copy: self.copy_fact(src),
                                ..NO_FACTS
                            },
                        };
                        None
                    }
                    Instr::LoadLocal { dst, local } => {
                        let c = self.lconst(local);
                        if c.is_none() {
                            if let Some(v) = self.copy_source(self.locals[local.index()].copy) {
                                if !fresh {
                                    self.reads.drop(instr, args);
                                    self.reads.vreg[v.index()] += 1;
                                }
                                *instr = Instr::Mov { dst, src: v };
                                self.vregs[dst.index()].copy = self.copy_fact(v);
                            }
                        }
                        c.map(|c| (dst, c))
                    }
                    _ => None,
                };
                if let Some((dst, value)) = folded {
                    if !fresh {
                        self.reads.drop(instr, args);
                    }
                    self.set_vconst(dst, value);
                    *instr = Instr::Const { dst, value };
                    stats.folded += 1;
                }
                if fresh {
                    self.reads.count(instr, args);
                }
            }

            // Fold constant branch conditions.
            if let Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } = block.term
            {
                if let Some(c) = self.vconst(self.resolve(cond)) {
                    block.term = Terminator::Jump(if c.is_zero() { else_bb } else { then_bb });
                    stats.branches += 1;
                    if !fresh {
                        self.reads.drop_vreg(cond);
                    }
                }
            }
            if let (true, Some(u)) = (fresh, block.term.use_reg()) {
                self.reads.vreg[u.index()] += 1;
            }
        }
        stats
    }

    /// `exact`: the read counts are exact on entry and stay so.
    fn merge_blocks(&mut self, body: &mut RoutineBody, exact: bool) -> OptStats {
        let mut stats = OptStats::default();
        let n = body.blocks.len();

        // Branch with both edges equal -> jump.
        for block in &mut body.blocks {
            step(1);
            if let Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } = block.term
            {
                if then_bb == else_bb {
                    block.term = Terminator::Jump(then_bb);
                    stats.branches += 1;
                    if exact {
                        self.reads.drop_vreg(cond);
                    }
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
            step(1);
            let threaded = match body.blocks[i].term {
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
                Terminator::Return(_) => continue,
            };
            body.blocks[i].term = threaded;
        }

        // Merge single-predecessor jump targets into their predecessor.
        let pred_count = &mut self.pred_count;
        pred_count.clear();
        pred_count.resize(n, 0);
        for block in &body.blocks {
            step(1);
            for s in block.term.successors() {
                pred_count[s.index()] += 1;
            }
        }
        self.grown.clear();
        self.grown.resize(n, false);
        for a in 0..n {
            step(1);
            while let Terminator::Jump(b) = body.blocks[a].term {
                if b.index() == a || b.index() == 0 || pred_count[b.index()] != 1 {
                    break;
                }
                let mut merged = std::mem::take(&mut body.blocks[b.index()].instrs);
                let term =
                    std::mem::replace(&mut body.blocks[b.index()].term, Terminator::Return(None));
                // Leave b as an unreachable husk; remove_unreachable
                // renumbers later.
                pred_count[b.index()] = 0;
                body.blocks[a].instrs.append(&mut merged);
                body.blocks[a].term = term;
                self.grown[a] = true;
                stats.unreachable += 1;
            }
        }
        stats
    }

    /// Whether `merge_blocks` would leave `body` as it is: no branch with
    /// equal targets, and no edge into an empty block that jumps on.
    fn merge_is_noop(body: &RoutineBody) -> bool {
        let threads = |t: Block| {
            let target = &body.blocks[t.index()];
            matches!(target.term, Terminator::Jump(next) if next != t && target.instrs.is_empty())
        };
        body.blocks.iter().all(|block| {
            step(1);
            match block.term {
                Terminator::Jump(t) => !threads(t),
                Terminator::Branch {
                    then_bb, else_bb, ..
                } => then_bb != else_bb && !threads(then_bb) && !threads(else_bb),
                Terminator::Return(_) => true,
            }
        })
    }

    pub(crate) fn dead_code_elim(&mut self, body: &mut RoutineBody) -> OptStats {
        self.reads.reset(body);
        for block in &body.blocks {
            for instr in &block.instrs {
                step(1);
                self.reads.count(instr, &body.args);
            }
            if let Some(u) = block.term.use_reg() {
                self.reads.vreg[u.index()] += 1;
            }
        }
        self.sweep_dead(body)
    }

    /// DCE over read counts already taken; removals keep them exact.
    fn sweep_dead(&mut self, body: &mut RoutineBody) -> OptStats {
        let reads = &mut self.reads;
        let mut stats = OptStats::default();
        let RoutineBody { blocks, args, .. } = body;
        // `exposed` is set again when a removal takes the last read of
        // a vreg or local: its definitions, possibly earlier in the
        // sweep, are dead now, so sweep again.
        while std::mem::take(&mut reads.exposed) {
            for block in blocks.iter_mut() {
                block.instrs.retain(|i| {
                    step(1);
                    let dead = match i {
                        Instr::StoreLocal { local, .. } => reads.local[local.index()] == 0,
                        _ => {
                            !i.has_side_effects()
                                && i.def().is_some_and(|d| reads.vreg[d.index()] == 0)
                        }
                    };
                    if dead {
                        stats.dead += 1;
                        reads.drop(i, args);
                    }
                    !dead
                });
            }
        }
        stats
    }

    /// `exact`: the read counts are exact on entry and stay so.
    fn remove_unreachable(
        &mut self,
        body: &mut RoutineBody,
        counts: Option<&mut Vec<u64>>,
        exact: bool,
    ) -> OptStats {
        let mut stats = OptStats::default();
        let n = body.blocks.len();
        let reachable = &mut self.reachable;
        reachable.clear();
        reachable.resize(n, false);
        let work = &mut self.work;
        work.clear();
        work.push(Block(0));
        let mut n_reachable = 0;
        while let Some(b) = work.pop() {
            step(1);
            if reachable[b.index()] {
                continue;
            }
            reachable[b.index()] = true;
            n_reachable += 1;
            for s in body.blocks[b.index()].term.successors() {
                if !reachable[s.index()] {
                    work.push(s);
                }
            }
        }
        if n_reachable == n {
            return stats;
        }
        stats.unreachable = n - n_reachable;

        // Survivors move down in place, keeping their relative order.
        let remap = &mut self.remap;
        remap.clear();
        let mut next = 0;
        remap.extend(reachable.iter().map(|&keep| {
            let new = if keep { next } else { u32::MAX };
            next += u32::from(keep);
            Block(new)
        }));
        let (reads, args) = (&mut self.reads, &body.args);
        let mut old = 0;
        body.blocks.retain(|block| {
            old += 1;
            let keep = reachable[old - 1];
            if exact && !keep {
                for instr in &block.instrs {
                    step(1);
                    reads.drop(instr, args);
                }
                if let Some(u) = block.term.use_reg() {
                    reads.drop_vreg(u);
                }
            }
            keep
        });
        if let Some(counts) = counts {
            counts.resize(n, 0);
            let mut old = 0;
            counts.retain(|_| {
                old += 1;
                reachable[old - 1]
            });
        }
        for block in &mut body.blocks {
            step(1);
            match &mut block.term {
                Terminator::Jump(b) => *b = remap[b.index()],
                Terminator::Branch {
                    then_bb, else_bb, ..
                } => {
                    *then_bb = remap[then_bb.index()];
                    *else_bb = remap[else_bb.index()];
                }
                Terminator::Return(_) => {}
            }
        }
        stats
    }

    /// Rounds of merge, propagation, sweep and unreachable removal until
    /// one changes nothing, or would: a round that changed no control
    /// flow and left nothing for `merge_blocks` is not confirmed by
    /// another (ARCHITECTURE.md, "The incremental fixed point").
    pub(crate) fn optimize(
        &mut self,
        body: &mut RoutineBody,
        mut counts: Option<&mut Vec<u64>>,
    ) -> OptStats {
        let mut total = OptStats::default();
        for round in 0..12 {
            let m = self.merge_blocks(body, round > 0);
            let a = self.propagate(body, round == 0);
            let b = self.sweep_dead(body);
            let c = self.remove_unreachable(body, counts.as_deref_mut(), true);
            total.folded += a.folded;
            total.branches += a.branches + m.branches;
            total.dead += b.dead;
            total.unreachable += c.unreachable + m.unreachable;
            let reshaped = m.unreachable + m.branches + a.branches + c.unreachable != 0;
            if !reshaped && (a.folded + b.dead == 0 || Self::merge_is_noop(body)) {
                break;
            }
        }
        total
    }
}

/// Per-block constant and copy propagation.
///
/// Returns the number of folds and of branches folded. Virtual-register
/// and local-scalar values are tracked within each block; all facts are
/// conservatively forgotten at block entry (vregs may be live across
/// blocks after inlining, but then they are not redefined here, so
/// per-block tracking of *definitions seen in this block* is sound).
/// Local scalars also forward the last stored vreg (`store l, v; ... ;
/// x = load l` becomes `x = mov v`), which is what makes inlined
/// argument traffic disappear after block merging.
///
/// Vreg and local ids must be in range for `body` (as
/// `cmo_ir::validate` checks); the same holds for every pass here.
pub fn const_and_copy_prop(body: &mut RoutineBody) -> OptStats {
    scratch::with(|s| s.opt.propagate(body, true))
}

/// Straightens control flow: threads jumps through empty blocks,
/// normalizes branches with equal targets into jumps, and merges a
/// block into its unique `Jump` predecessor. Merging is what exposes
/// inlined callee entries to the per-block propagator — the pre-call
/// block ends in a jump to the single-predecessor callee entry, and
/// after merging, constant arguments flow into the callee body.
pub fn merge_blocks(body: &mut RoutineBody) -> OptStats {
    scratch::with(|s| s.opt.merge_blocks(body, false))
}

/// Removes instructions whose results are never used anywhere in the
/// routine and which have no side effects, plus stores to scalar
/// locals that are never loaded (after inlining and propagation,
/// parameter-passing slots die this way). Iterates to a fixed point.
pub fn dead_code_elim(body: &mut RoutineBody) -> OptStats {
    scratch::with(|s| s.opt.dead_code_elim(body))
}

/// Removes blocks unreachable from the entry, remapping block ids and
/// (when supplied) the maintained block-count vector — profile counts
/// live in the pre-optimization block-id domain and must follow the
/// blocks through every structural transformation (§3: "the compiler
/// correlates profile information from the database with current
/// program structures").
pub fn remove_unreachable(body: &mut RoutineBody, counts: Option<&mut Vec<u64>>) -> OptStats {
    scratch::with(|s| s.opt.remove_unreachable(body, counts, false))
}

/// The full local optimization pipeline, iterated until quiescent.
pub fn optimize(body: &mut RoutineBody) -> OptStats {
    optimize_with_counts(body, None)
}

/// [`optimize`], additionally maintaining a block-count vector through
/// every structural change so profile-guided layout downstream sees
/// correlated data.
pub fn optimize_with_counts(body: &mut RoutineBody, counts: Option<&mut Vec<u64>>) -> OptStats {
    scratch::with(|s| s.opt.optimize(body, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmo_frontend::compile_module;
    use cmo_ir::{link_objects, BlockData};

    fn body_of(src: &str) -> RoutineBody {
        let obj = compile_module("m", src).unwrap();
        let unit = link_objects(vec![obj]).unwrap();
        let main = unit.program.find_routine("main").unwrap();
        unit.bodies[main.index()].clone()
    }

    #[test]
    fn constants_fold_through_locals() {
        let mut body =
            body_of("fn main() -> int { var x: int = 6; var y: int = 7; return x * y; }");
        let before = body.instr_count();
        optimize(&mut body);
        // Final shape: stores remain (locals could be observed by a
        // debugger; DCE of dead stores is not done), but the multiply
        // folds to a constant.
        let has_mul = body
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, Instr::Bin { op: BinOp::Mul, .. }));
        assert!(!has_mul);
        assert!(body.instr_count() <= before);
        let has_42 = body.blocks.iter().flat_map(|b| &b.instrs).any(|i| {
            matches!(
                i,
                Instr::Const {
                    value: Const::I(42),
                    ..
                }
            )
        });
        assert!(has_42);
    }

    #[test]
    fn constant_branch_becomes_jump_and_prunes_blocks() {
        let mut body =
            body_of("fn main() -> int { if (1 < 2) { return 10; } else { return 20; } }");
        let blocks_before = body.blocks.len();
        let stats = optimize(&mut body);
        assert!(stats.branches >= 1);
        assert!(body.blocks.len() < blocks_before);
        assert!(body
            .blocks
            .iter()
            .all(|b| !matches!(b.term, Terminator::Branch { .. })));
    }

    #[test]
    fn dead_code_is_removed() {
        let mut body = body_of("fn main() -> int { var x: int = 3 + 4; return 1; }");
        let stats = optimize(&mut body);
        assert!(stats.dead > 0);
    }

    #[test]
    fn side_effects_are_preserved() {
        let src = r#"
            extern fn effect() -> int;
            fn main() -> int { effect(); input(); return 2; }
        "#;
        let obj = compile_module("m", src).unwrap();
        let helper = compile_module("h", "fn effect() -> int { output(9); return 0; }").unwrap();
        let unit = link_objects(vec![obj, helper]).unwrap();
        let main = unit.program.find_routine("main").unwrap();
        let mut body = unit.bodies[main.index()].clone();
        optimize(&mut body);
        let kinds: Vec<bool> = body
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .map(Instr::has_side_effects)
            .collect();
        assert_eq!(kinds.iter().filter(|&&k| k).count(), 2, "call + input stay");
    }

    #[test]
    fn loops_survive_optimization() {
        let mut body = body_of(
            "fn main() -> int { var i: int = 0; var s: int = 0; while (i < input()) { s = s + i; i = i + 1; } return s; }",
        );
        optimize(&mut body);
        // The loop's backedge must still exist.
        let has_branch = body
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::Branch { .. }));
        assert!(has_branch);
    }

    #[test]
    fn copy_chains_collapse() {
        let mut body = RoutineBody::new();
        let a = body.new_vreg();
        let b = body.new_vreg();
        let c = body.new_vreg();
        let mut blk = BlockData::new(Terminator::Return(Some(c)));
        blk.instrs.push(Instr::Const {
            dst: a,
            value: Const::I(5),
        });
        blk.instrs.push(Instr::Mov { dst: b, src: a });
        blk.instrs.push(Instr::Mov { dst: c, src: b });
        body.blocks.push(blk);
        optimize(&mut body);
        // All three become constants; DCE keeps only c's def (used by
        // the return).
        assert!(body.blocks[0]
            .instrs
            .iter()
            .all(|i| matches!(i, Instr::Const { .. })));
        assert_eq!(body.blocks[0].instrs.len(), 1);
    }
}

#[cfg(test)]
mod count_tests {
    use super::*;
    use cmo_frontend::compile_module;
    use cmo_ir::link_objects;

    fn body_of(src: &str) -> RoutineBody {
        let obj = compile_module("m", src).unwrap();
        let unit = link_objects(vec![obj]).unwrap();
        let main = unit.program.find_routine("main").unwrap();
        unit.bodies[main.index()].clone()
    }

    #[test]
    fn counts_follow_blocks_through_unreachable_removal() {
        // A constant branch leaves one arm unreachable; the surviving
        // blocks must keep their counts under the renumbering.
        let mut body = body_of(
            r#"
            fn main() -> int {
                var acc: int = 0;
                if (1 == 2) { acc = 111; } else { acc = 222; }
                var i: int = 0;
                while (i < 3) { acc = acc + i; i = i + 1; }
                return acc;
            }
            "#,
        );
        // Tag each original block with a distinguishable count.
        let mut counts: Vec<u64> = (0..body.blocks.len() as u64).map(|i| 1000 + i).collect();
        let n_before = body.blocks.len();
        optimize_with_counts(&mut body, Some(&mut counts));
        assert!(body.blocks.len() < n_before, "something was removed/merged");
        assert_eq!(
            counts.len(),
            body.blocks.len(),
            "counts vector tracks the block vector"
        );
        // The entry keeps its original tag.
        assert_eq!(counts[0], 1000);
        // Every surviving count is one of the original tags (no
        // invented values).
        for &c in &counts {
            assert!(
                (1000..1000 + n_before as u64).contains(&c),
                "bogus count {c}"
            );
        }
    }

    #[test]
    fn merging_preserves_loop_structure_counts() {
        let mut body =
            body_of("fn main() -> int { var i: int = 0; while (i < 9) { i = i + 1; } return i; }");
        let mut counts: Vec<u64> = vec![1, 10, 9, 1, 1, 1][..body.blocks.len().min(6)].to_vec();
        counts.resize(body.blocks.len(), 1);
        optimize_with_counts(&mut body, Some(&mut counts));
        assert_eq!(counts.len(), body.blocks.len());
        // The loop survives: some block still has the hot count.
        assert!(counts.contains(&10) || counts.contains(&9));
    }

    #[test]
    fn optimize_without_counts_is_equivalent_code() {
        let make = || {
            body_of("fn main() -> int { var a: int = 2 * 3; if (a == 6) { return a; } return 0; }")
        };
        let mut with = make();
        let mut counts = vec![1; with.blocks.len()];
        optimize_with_counts(&mut with, Some(&mut counts));
        let mut without = make();
        optimize(&mut without);
        assert_eq!(with, without, "count maintenance must not affect code");
    }
}

#[cfg(test)]
mod complexity_tests {
    use super::*;
    use crate::scratch::STEPS;
    use cmo_ir::BlockData;

    /// Steps `const_and_copy_prop` takes over one block of `n`
    /// instructions, alternating `d = mov root` / `t = add d, root`
    /// with fresh `d` and `t`: every `mov` leaves a copy fact that
    /// stays live to the end of the block, and every instruction is a
    /// definition that has to invalidate what it makes stale.
    fn prop_steps(n: usize) -> u64 {
        let mut body = RoutineBody::new();
        let root = body.new_vreg();
        let mut block = BlockData::new(Terminator::Return(Some(root)));
        block.instrs.push(Instr::Input { dst: root });
        for _ in 0..n / 2 {
            let d = body.new_vreg();
            block.instrs.push(Instr::Mov { dst: d, src: root });
            let t = body.new_vreg();
            block.instrs.push(Instr::Bin {
                dst: t,
                op: BinOp::Add,
                lhs: d,
                rhs: root,
            });
        }
        body.blocks.push(block);
        let before = STEPS.get();
        const_and_copy_prop(&mut body);
        let steps = STEPS.get() - before;
        let lhs: Vec<VReg> = (body.blocks[0].instrs.iter())
            .filter_map(|i| match *i {
                Instr::Bin { lhs, .. } => Some(lhs),
                _ => None,
            })
            .collect();
        assert_eq!(lhs, vec![root; n / 2], "every add's lhs was a live copy");
        steps
    }

    #[test]
    fn propagation_is_linear_in_block_length() {
        let (small, large) = (prop_steps(512), prop_steps(2048));
        // Scanning the live facts at each definition made this ~16x.
        assert!(
            large <= 5 * small,
            "{small} steps for 512 instructions, {large} for 2048"
        );
    }

    #[test]
    fn a_quiescent_round_walks_the_body_twice() {
        // One block of `n` instructions nothing can fold, forward or
        // delete: `t = add x, y` on inputs, each `t` output.
        let n = 600;
        let mut body = RoutineBody::new();
        let mut block = BlockData::new(Terminator::Return(None));
        for _ in 0..n / 4 {
            let (x, y, t) = (body.new_vreg(), body.new_vreg(), body.new_vreg());
            block.instrs.extend([
                Instr::Input { dst: x },
                Instr::Input { dst: y },
                Instr::Bin {
                    dst: t,
                    op: BinOp::Add,
                    lhs: x,
                    rhs: y,
                },
                Instr::Output { src: t },
            ]);
        }
        body.blocks.push(block);
        let before = STEPS.get();
        assert_eq!(optimize(&mut body), OptStats::default(), "quiescent");
        let steps = STEPS.get() - before;
        assert_eq!(body.instr_count(), n);
        // Propagation walks it once and the DCE sweep once; a DCE
        // that counted reads for itself would make this 3n.
        assert!(
            2 * steps <= 5 * n as u64,
            "{steps} steps for {n} instructions"
        );
    }

    /// `n / 4` groups of `k = const 3; t = add k, k; output t;
    /// u = input` appended to `block`: each `add` folds, and each `k`
    /// is then dead.
    fn push_folding(body: &mut RoutineBody, block: &mut BlockData, n: usize) {
        for _ in 0..n / 4 {
            let (k, t, u) = (body.new_vreg(), body.new_vreg(), body.new_vreg());
            block.instrs.extend([
                Instr::Const {
                    dst: k,
                    value: Const::I(3),
                },
                Instr::Bin {
                    dst: t,
                    op: BinOp::Add,
                    lhs: k,
                    rhs: k,
                },
                Instr::Output { src: t },
                Instr::Input { dst: u },
            ]);
        }
    }

    #[test]
    fn a_round_that_only_folded_is_not_confirmed() {
        let n = 800;
        let mut body = RoutineBody::new();
        let mut block = BlockData::new(Terminator::Return(None));
        push_folding(&mut body, &mut block, n);
        body.blocks.push(block);
        let before = STEPS.get();
        let stats = optimize(&mut body);
        let steps = STEPS.get() - before;
        assert_eq!((stats.folded, stats.dead), (n / 4, n / 4));
        // One propagation walk and one sweep. The round changed no
        // control flow, so a second one would change nothing: running
        // it anyway walks the surviving 3n/4 twice more (3.5n).
        assert!(
            4 * steps <= 9 * n as u64,
            "{steps} steps for {n} instructions"
        );
    }

    #[test]
    fn a_second_round_re_propagates_only_merged_blocks() {
        // 0: c = const 1; br c, 1, 2      (folds to `jmp 1`)
        // 1: x = input; output x; jmp 3   (merges into 0 in round two)
        // 2: y = input; jmp 3             (unreachable after the fold)
        // 3: i = input; br i, 4, 5        (merges into 0 in round two)
        // 4, 5: n/2 folding instructions each; jmp 6
        // 6: return
        let n = 800;
        let mut body = RoutineBody::new();
        let (c, x, y, i) = (
            body.new_vreg(),
            body.new_vreg(),
            body.new_vreg(),
            body.new_vreg(),
        );
        let mut b0 = BlockData::new(Terminator::Branch {
            cond: c,
            then_bb: Block(1),
            else_bb: Block(2),
        });
        b0.instrs.push(Instr::Const {
            dst: c,
            value: Const::I(1),
        });
        let mut b1 = BlockData::new(Terminator::Jump(Block(3)));
        b1.instrs
            .extend([Instr::Input { dst: x }, Instr::Output { src: x }]);
        let mut b2 = BlockData::new(Terminator::Jump(Block(3)));
        b2.instrs.push(Instr::Input { dst: y });
        let mut b3 = BlockData::new(Terminator::Branch {
            cond: i,
            then_bb: Block(4),
            else_bb: Block(5),
        });
        b3.instrs.push(Instr::Input { dst: i });
        let mut b4 = BlockData::new(Terminator::Jump(Block(6)));
        push_folding(&mut body, &mut b4, n / 2);
        let mut b5 = BlockData::new(Terminator::Jump(Block(6)));
        push_folding(&mut body, &mut b5, n / 2);
        let b6 = BlockData::new(Terminator::Return(None));
        body.blocks.extend([b0, b1, b2, b3, b4, b5, b6]);
        let before = STEPS.get();
        let stats = optimize(&mut body);
        let steps = STEPS.get() - before;
        assert_eq!(stats.branches, 1);
        // Block 2, then 1 and 3 once merged and once as removed husks.
        assert_eq!(stats.unreachable, 5);
        assert_eq!(body.blocks.len(), 4);
        // Round one walks the body to propagate and to sweep; round two
        // re-propagates block 0 (four instructions) and sweeps nothing,
        // since no count reached zero; round three merges nothing and
        // stops. Walking every block again costs 2n per round.
        assert!(
            4 * steps <= 9 * n as u64,
            "{steps} steps for {n} instructions"
        );
    }
}
