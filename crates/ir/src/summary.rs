//! Per-routine summaries: what whole-program analysis needs from a
//! body, small enough to stay resident.
//!
//! "Routines are scanned once for call and global-access facts and
//! then left unloaded" (§5, fine-grained selectivity). A
//! [`RoutineSummary`] is that scan's result — the routine's call
//! sites and the globals it touches directly — taken by the one
//! function [`RoutineSummary::of`] from a body that is already
//! expanded in hand. Whoever writes a body refreshes its summary; the
//! call graph, the global read/write facts and every other
//! whole-program question are then answered from a [`SummaryTable`]
//! without loading a body.

use crate::ids::{CallSiteId, GlobalId, RoutineId};
use crate::instr::{GlobalRef, Instr, MemBase};
use crate::routine::RoutineBody;

/// The whole-program-visible facts of one routine body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoutineSummary {
    /// Every call site with its callee, sorted by site id.
    pub calls: Vec<(CallSiteId, RoutineId)>,
    /// Globals the body loads directly (scalar or element), ascending.
    pub reads: Vec<GlobalId>,
    /// Globals the body stores directly (scalar or element), ascending.
    pub writes: Vec<GlobalId>,
}

impl RoutineSummary {
    /// Scans a resolved body once.
    ///
    /// # Panics
    ///
    /// Panics if the body still holds name-based references; linking
    /// must run first.
    #[must_use]
    pub fn of(body: &RoutineBody) -> Self {
        let global_base = |base: &MemBase| match base {
            MemBase::Global(GlobalRef::Id(g)) => Some(*g),
            _ => None,
        };
        let mut s = RoutineSummary::default();
        for block in &body.blocks {
            for instr in &block.instrs {
                match instr {
                    Instr::Call { callee, site, .. } => s.calls.push((*site, callee.id())),
                    Instr::LoadGlobal { global, .. } => s.reads.push(global.id()),
                    Instr::StoreGlobal { global, .. } => s.writes.push(global.id()),
                    Instr::LoadElem { base, .. } => s.reads.extend(global_base(base)),
                    Instr::StoreElem { base, .. } => s.writes.extend(global_base(base)),
                    _ => {}
                }
            }
        }
        s.calls.sort_by_key(|&(site, _)| site);
        for set in [&mut s.reads, &mut s.writes] {
            set.sort_unstable();
            set.dedup();
        }
        s
    }
}

/// The summaries of every routine of a program, back to back in one
/// array: a record is `[calls, reads, writes]` lengths, then the
/// `(site, callee)` pairs, then the two global sets.
#[derive(Debug, Clone, Default)]
pub struct SummaryTable {
    words: Vec<u32>,
    /// Start of each routine's record in `words`.
    at: Vec<u32>,
}

const HEADER: usize = 3;

impl SummaryTable {
    /// Appends the summary of the next routine id.
    pub fn push(&mut self, summary: &RoutineSummary) {
        self.at.push(0);
        self.append_record(self.at.len() - 1, summary);
    }

    /// Replaces the summary of `r`: in place when the new record is no
    /// longer than the old one, else appended (the old record is left
    /// behind as dead words — only a transformation that grows a body
    /// does that, once per routine it changes).
    pub fn set(&mut self, r: RoutineId, summary: &RoutineSummary) {
        let (call_words, reads, writes) = self.record(r);
        let old = call_words.len() + reads.len() + writes.len();
        let new = 2 * summary.calls.len() + summary.reads.len() + summary.writes.len();
        if new <= old {
            let start = self.at[r.index()] as usize;
            for (slot, w) in self.words[start..].iter_mut().zip(record_words(summary)) {
                *slot = w;
            }
        } else {
            self.append_record(r.index(), summary);
        }
    }

    fn append_record(&mut self, slot: usize, summary: &RoutineSummary) {
        self.at[slot] = u32::try_from(self.words.len()).expect("summary table fits in u32");
        self.words.extend(record_words(summary));
    }

    fn record(&self, r: RoutineId) -> (&[u32], &[u32], &[u32]) {
        let start = self.at[r.index()] as usize;
        let header = &self.words[start..start + HEADER];
        let (n_calls, n_reads, n_writes) =
            (header[0] as usize, header[1] as usize, header[2] as usize);
        let rest = &self.words[start + HEADER..];
        let (calls, rest) = rest.split_at(2 * n_calls);
        let (reads, rest) = rest.split_at(n_reads);
        (calls, reads, &rest[..n_writes])
    }

    /// The call sites of `r` with their callees, in site order.
    pub fn calls(
        &self,
        r: RoutineId,
    ) -> impl ExactSizeIterator<Item = (CallSiteId, RoutineId)> + '_ {
        self.record(r)
            .0
            .chunks_exact(2)
            .map(|p| (CallSiteId(p[0]), RoutineId(p[1])))
    }

    /// The globals `r` loads directly, ascending.
    pub fn reads(&self, r: RoutineId) -> impl ExactSizeIterator<Item = GlobalId> + '_ {
        self.record(r).1.iter().map(|&g| GlobalId(g))
    }

    /// The globals `r` stores directly, ascending.
    pub fn writes(&self, r: RoutineId) -> impl ExactSizeIterator<Item = GlobalId> + '_ {
        self.record(r).2.iter().map(|&g| GlobalId(g))
    }

    /// The summary of `r` as an owned value.
    #[must_use]
    pub fn get(&self, r: RoutineId) -> RoutineSummary {
        RoutineSummary {
            calls: self.calls(r).collect(),
            reads: self.reads(r).collect(),
            writes: self.writes(r).collect(),
        }
    }

    /// Drops spare capacity (after a batch of [`SummaryTable::push`] /
    /// [`SummaryTable::set`]), so [`SummaryTable::heap_bytes`] is what
    /// the records need.
    pub fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
        self.at.shrink_to_fit();
    }

    /// Heap bytes held (always-resident global data).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        (self.words.capacity() + self.at.capacity()) * std::mem::size_of::<u32>()
    }
}

fn record_words(s: &RoutineSummary) -> impl Iterator<Item = u32> + '_ {
    let header = [s.calls.len(), s.reads.len(), s.writes.len()]
        .map(|n| u32::try_from(n).expect("summary length fits in u32"));
    header
        .into_iter()
        .chain(
            s.calls
                .iter()
                .flat_map(|&(site, callee)| [site.0, callee.0]),
        )
        .chain(s.reads.iter().map(|g| g.0))
        .chain(s.writes.iter().map(|g| g.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VReg;
    use crate::instr::{ArgSpan, CallDst, CalleeRef, Terminator};
    use crate::routine::BlockData;

    fn body(instrs: Vec<Instr>) -> RoutineBody {
        let mut b = RoutineBody::new();
        let mut blk = BlockData::new(Terminator::Return(None));
        blk.instrs = instrs;
        b.blocks.push(blk);
        b
    }

    fn call(site: u32, callee: u32) -> Instr {
        Instr::Call {
            dst: CallDst::NONE,
            callee: CalleeRef::Id(RoutineId(callee)),
            args: ArgSpan::default(),
            site: CallSiteId(site),
        }
    }

    fn g(id: u32) -> GlobalRef {
        GlobalRef::Id(GlobalId(id))
    }

    #[test]
    fn scan_sorts_calls_and_dedups_globals() {
        let s = RoutineSummary::of(&body(vec![
            call(2, 7),
            Instr::LoadGlobal {
                dst: VReg(0),
                global: g(5),
            },
            call(0, 9),
            Instr::StoreElem {
                base: MemBase::Global(g(3)),
                index: VReg(0),
                src: VReg(0),
            },
            Instr::LoadElem {
                dst: VReg(1),
                base: MemBase::Global(g(5)),
                index: VReg(0),
            },
            Instr::LoadElem {
                dst: VReg(1),
                base: MemBase::Local(crate::ids::Local(0)),
                index: VReg(0),
            },
            Instr::StoreGlobal {
                global: g(1),
                src: VReg(0),
            },
        ]));
        assert_eq!(
            s.calls,
            vec![(CallSiteId(0), RoutineId(9)), (CallSiteId(2), RoutineId(7))]
        );
        assert_eq!(s.reads, vec![GlobalId(5)]);
        assert_eq!(s.writes, vec![GlobalId(1), GlobalId(3)]);
    }

    #[test]
    fn table_round_trips_and_replaces() {
        let a = RoutineSummary::of(&body(vec![call(0, 1), call(1, 2)]));
        let b = RoutineSummary::default();
        let mut t = SummaryTable::default();
        t.push(&a);
        t.push(&b);
        assert_eq!(t.get(RoutineId(0)), a);
        assert_eq!(t.get(RoutineId(1)), b);

        // Shrinking rewrites in place; the neighbour is untouched.
        let smaller = RoutineSummary::of(&body(vec![call(1, 2)]));
        let words = t.words.len();
        t.set(RoutineId(0), &smaller);
        assert_eq!(t.words.len(), words);
        assert_eq!(t.get(RoutineId(0)), smaller);
        assert_eq!(t.get(RoutineId(1)), b);

        // Growing appends a fresh record — also when the new one would
        // fit in twice the old (the neighbour's words are not spare).
        let three = RoutineSummary::of(&body(vec![call(0, 1), call(1, 2), call(2, 3)]));
        t.set(RoutineId(0), &a);
        t.set(RoutineId(0), &three);
        assert_eq!(t.get(RoutineId(0)), three);
        assert_eq!(t.get(RoutineId(1)), b);
        t.set(RoutineId(0), &smaller);
        t.set(RoutineId(1), &a);
        assert!(t.words.len() > words);
        assert_eq!(t.get(RoutineId(1)), a);
        assert_eq!(t.get(RoutineId(0)), smaller);
        assert_eq!(t.calls(RoutineId(1)).len(), 2);
    }
}
