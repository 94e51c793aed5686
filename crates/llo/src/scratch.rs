//! Per-thread reusable working memory for the per-routine pipeline.
//!
//! Routines are small (about a dozen blocks) and there are thousands
//! of them, so LLO's cost is per-routine overhead. Every table a pass
//! needs lives here, grows to the largest routine the thread has seen
//! and is reset — not reallocated — per routine. One scratch per
//! thread means each `run_jobs` worker gets its own without any
//! plumbing through the public entry points.

use crate::layout::LayoutScratch;
use crate::lower::LowerScratch;
use crate::opt::OptScratch;
use crate::regalloc::AllocScratch;
use std::cell::RefCell;

#[derive(Default)]
pub(crate) struct LloScratch {
    pub(crate) opt: OptScratch,
    pub(crate) layout: LayoutScratch,
    pub(crate) alloc: AllocScratch,
    pub(crate) lower: LowerScratch,
}

thread_local! {
    static SCRATCH: RefCell<LloScratch> = RefCell::default();
}

/// Runs `f` with this thread's scratch. Public entry points call this
/// once and pass the scratch down; nothing below them calls back into
/// a public entry point, so the borrow is never re-entered.
pub(crate) fn with<R>(f: impl FnOnce(&mut LloScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
thread_local! {
    /// Loop iterations counted by [`step`] on this thread, for the
    /// complexity guards.
    pub(crate) static STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts `n` loop iterations (test builds only).
#[inline]
pub(crate) fn step(n: usize) {
    #[cfg(test)]
    STEPS.with(|s| s.set(s.get() + n as u64));
    #[cfg(not(test))]
    let _ = n;
}
