//! Profile-guided basic-block layout.
//!
//! With PBO the compiler "optimizes the layout of basic blocks" (§2):
//! hot successors are placed on the fall-through path so the machine
//! pays fewer taken-branch penalties and packs hot code densely for the
//! i-cache. Without profile data, source order is kept.

use crate::scratch;
use cmo_ir::{Block, RoutineBody};

/// Reusable table for [`LayoutScratch::order_into`].
#[derive(Default)]
pub(crate) struct LayoutScratch {
    placed: Vec<bool>,
}

impl LayoutScratch {
    /// [`order_blocks`], writing the ordering into `order`.
    pub(crate) fn order_into(
        &mut self,
        body: &RoutineBody,
        counts: Option<&[u64]>,
        order: &mut Vec<Block>,
    ) {
        let n = body.blocks.len();
        order.clear();
        let Some(counts) = counts else {
            order.extend((0..n).map(Block::from_index));
            return;
        };
        let count = |b: Block| counts.get(b.index()).copied().unwrap_or(0);
        let placed = &mut self.placed;
        placed.clear();
        placed.resize(n, false);
        let mut cur = Some(Block(0));
        loop {
            match cur {
                Some(b) if !placed[b.index()] => {
                    placed[b.index()] = true;
                    order.push(b);
                    cur = body.blocks[b.index()]
                        .term
                        .successors()
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
                        return;
                    }
                }
            }
        }
    }
}

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
pub fn order_blocks(body: &RoutineBody, counts: Option<&[u64]>) -> Vec<Block> {
    let mut order = Vec::with_capacity(body.blocks.len());
    scratch::with(|s| s.layout.order_into(body, counts, &mut order));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmo_ir::{BlockData, Terminator};

    /// entry -> branch(b1 cold, b2 hot); b1 -> b3; b2 -> b3; b3 ret
    fn diamond() -> RoutineBody {
        let mut body = RoutineBody::new();
        let c = body.new_vreg();
        body.blocks.push(BlockData::new(Terminator::Branch {
            cond: c,
            then_bb: Block(1),
            else_bb: Block(2),
        }));
        body.blocks.push(BlockData::new(Terminator::Jump(Block(3))));
        body.blocks.push(BlockData::new(Terminator::Jump(Block(3))));
        body.blocks.push(BlockData::new(Terminator::Return(None)));
        body
    }

    #[test]
    fn no_profile_keeps_source_order() {
        let body = diamond();
        let order = order_blocks(&body, None);
        assert_eq!(order, vec![Block(0), Block(1), Block(2), Block(3)]);
    }

    #[test]
    fn hot_path_is_contiguous() {
        let body = diamond();
        // Block 2 is hot.
        let order = order_blocks(&body, Some(&[100, 1, 99, 100]));
        assert_eq!(order[0], Block(0));
        assert_eq!(order[1], Block(2), "hot successor follows entry");
        // All blocks placed exactly once.
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, vec![Block(0), Block(1), Block(2), Block(3)]);
    }

    #[test]
    fn unreached_blocks_still_get_placed() {
        let mut body = diamond();
        // Add an orphan block (e.g. kept alive by conservative opt).
        body.blocks.push(BlockData::new(Terminator::Return(None)));
        let order = order_blocks(&body, Some(&[10, 1, 9, 10, 0]));
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn entry_is_always_first() {
        let body = diamond();
        let order = order_blocks(&body, Some(&[0, 1000, 1000, 1000]));
        assert_eq!(order[0], Block(0));
    }
}
