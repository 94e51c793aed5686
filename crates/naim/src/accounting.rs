//! Byte accounting for optimizer data structures.
//!
//! The paper's memory results (Figures 4 and 5, and the 1.7 KB/line →
//! 0.9 KB/line history of §8) are measurements of optimizer heap
//! occupancy. This reproduction measures the same quantity explicitly:
//! every global, transitory, and derived structure reports its size to a
//! [`MemoryAccountant`], which tracks current and peak occupancy per
//! class. This is deterministic and portable, unlike process RSS.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The three storage classes of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemClass {
    /// Always-resident program-wide structures (program symbol table,
    /// call graph).
    Global,
    /// Module symbol tables and routine IR in expanded form.
    TransitoryExpanded,
    /// Relocatable (compacted) images resident in memory.
    TransitoryCompact,
    /// Recomputable analysis results (data flow, dominators, loops).
    Derived,
}

impl MemClass {
    /// All classes in display order.
    pub const ALL: [MemClass; 4] = [
        MemClass::Global,
        MemClass::TransitoryExpanded,
        MemClass::TransitoryCompact,
        MemClass::Derived,
    ];

    fn slot(self) -> usize {
        match self {
            MemClass::Global => 0,
            MemClass::TransitoryExpanded => 1,
            MemClass::TransitoryCompact => 2,
            MemClass::Derived => 3,
        }
    }
}

impl fmt::Display for MemClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemClass::Global => "global",
            MemClass::TransitoryExpanded => "transitory/expanded",
            MemClass::TransitoryCompact => "transitory/compact",
            MemClass::Derived => "derived",
        };
        f.write_str(s)
    }
}

/// A point-in-time view of accounted memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemorySnapshot {
    /// Current bytes per class, indexed by [`MemClass::ALL`] order.
    pub current: [usize; 4],
    /// Peak bytes per class since construction or the last reset.
    pub peak: [usize; 4],
    /// Peak total across all classes (the paper's "memory usage" axis).
    pub peak_total: usize,
}

impl MemorySnapshot {
    /// Current total across all classes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.current.iter().sum()
    }

    /// Current bytes in `class`.
    #[must_use]
    pub fn class(&self, class: MemClass) -> usize {
        self.current[class.slot()]
    }

    /// Peak bytes in `class`.
    #[must_use]
    pub fn peak_class(&self, class: MemClass) -> usize {
        self.peak[class.slot()]
    }

    /// Raises this snapshot's peaks to cover a private accountant that
    /// ran *concurrently* with it.
    ///
    /// Partitioned HLO gives every callgraph cluster a private loader
    /// with its own accountant starting from zero. The merged peak the
    /// report should show is "what the session held when the clusters
    /// were split off, plus the worst any one cluster reached on top of
    /// that" — so per class the fold takes
    /// `max(self.peak, at_split.current + cluster.peak)`, and likewise
    /// for the all-class total. Both inputs are deterministic (the
    /// split snapshot is taken once, before any cluster runs), so the
    /// folded peaks are identical at every `-j` level.
    pub fn fold_concurrent_peak(&mut self, at_split: &MemorySnapshot, cluster: &MemorySnapshot) {
        for s in 0..4 {
            self.peak[s] = self.peak[s].max(at_split.current[s] + cluster.peak[s]);
        }
        self.peak_total = self.peak_total.max(at_split.total() + cluster.peak_total);
    }
}

impl fmt::Display for MemorySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "total={}B (peak {}B):", self.total(), self.peak_total)?;
        for class in MemClass::ALL {
            write!(f, " {}={}B", class, self.class(class))?;
        }
        Ok(())
    }
}

/// Tracks current and peak accounted bytes per storage class.
///
/// Every [`crate::Loader`] holds one behind an `Arc`, and so does every
/// [`MemCharge`] taken from it: a charge releases its bytes when it is
/// dropped, possibly on another thread (the HLO session that owns the
/// loader is `Send`), so the counters are atomics behind a `&self`
/// API. They use relaxed ordering — accounting is a monotone max/sum
/// structure with no cross-counter invariant that ordering could
/// protect.
///
/// # Example
///
/// ```
/// use cmo_naim::{MemoryAccountant, MemClass};
/// let acct = MemoryAccountant::new();
/// acct.add(MemClass::Global, 100);
/// acct.add(MemClass::Derived, 50);
/// acct.remove(MemClass::Derived, 50);
/// let snap = acct.snapshot();
/// assert_eq!(snap.total(), 100);
/// assert_eq!(snap.peak_total, 150);
/// ```
#[derive(Debug, Default)]
pub struct MemoryAccountant {
    current: [AtomicUsize; 4],
    peak: [AtomicUsize; 4],
    peak_total: AtomicUsize,
}

impl MemoryAccountant {
    /// Creates an accountant with all counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` newly occupied in `class`.
    pub fn add(&self, class: MemClass, bytes: usize) {
        let s = class.slot();
        let now = self.current[s].fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak[s].fetch_max(now, Ordering::Relaxed);
        self.peak_total.fetch_max(self.total(), Ordering::Relaxed);
    }

    /// Records `bytes` released from `class`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more bytes are removed than are
    /// currently accounted, which indicates an accounting bug. Release
    /// builds saturate at zero.
    pub fn remove(&self, class: MemClass, bytes: usize) {
        let s = class.slot();
        let before = self.current[s]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(bytes))
            })
            .unwrap_or_else(|cur| cur);
        debug_assert!(
            before >= bytes,
            "accounting underflow in {class}: removing {bytes} from {before}"
        );
    }

    /// Adjusts `class` by a signed delta.
    ///
    /// Negative deltas are routed through the subtraction path with a
    /// checked sign conversion (`usize::try_from` fails exactly when
    /// `delta < 0`), so no negative value is ever reinterpreted as a
    /// huge unsigned size.
    pub fn adjust(&self, class: MemClass, delta: isize) {
        match usize::try_from(delta) {
            Ok(bytes) => self.add(class, bytes),
            Err(_) => self.remove(class, delta.unsigned_abs()),
        }
    }

    /// Current total bytes across all classes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.current.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Current bytes in `class`.
    #[must_use]
    pub fn class(&self, class: MemClass) -> usize {
        self.current[class.slot()].load(Ordering::Relaxed)
    }

    /// Returns a copy of the current snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MemorySnapshot {
        let mut snap = MemorySnapshot::default();
        for s in 0..4 {
            snap.current[s] = self.current[s].load(Ordering::Relaxed);
            snap.peak[s] = self.peak[s].load(Ordering::Relaxed);
        }
        snap.peak_total = self.peak_total.load(Ordering::Relaxed);
        snap
    }
}

/// Bytes charged to a [`MemoryAccountant`] for exactly as long as the
/// structure that owns this guard lives. Derived data is "always
/// recomputable, never persisted" (§4.1): an analysis result holds one
/// of these, so its bytes leave the accounting when it is dropped and
/// the reported peak is a peak of live data.
#[derive(Debug)]
pub struct MemCharge {
    accountant: Arc<MemoryAccountant>,
    class: MemClass,
    bytes: usize,
}

impl MemCharge {
    pub(crate) fn new(accountant: Arc<MemoryAccountant>, class: MemClass, bytes: usize) -> Self {
        accountant.add(class, bytes);
        MemCharge {
            accountant,
            class,
            bytes,
        }
    }
}

impl Drop for MemCharge {
    fn drop(&mut self) {
        self.accountant.remove(self.class, self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_track_high_water_mark() {
        let a = MemoryAccountant::new();
        a.add(MemClass::TransitoryExpanded, 1000);
        a.remove(MemClass::TransitoryExpanded, 600);
        a.add(MemClass::TransitoryCompact, 100);
        let s = a.snapshot();
        assert_eq!(s.class(MemClass::TransitoryExpanded), 400);
        assert_eq!(s.peak_class(MemClass::TransitoryExpanded), 1000);
        assert_eq!(s.peak_total, 1000);
        assert_eq!(s.total(), 500);
    }

    #[test]
    fn adjust_handles_both_signs() {
        let a = MemoryAccountant::new();
        a.adjust(MemClass::Derived, 128);
        a.adjust(MemClass::Derived, -28);
        assert_eq!(a.class(MemClass::Derived), 100);
    }

    #[test]
    fn adjust_never_reinterprets_a_negative_delta_as_unsigned() {
        // Regression: a negative delta cast with `as usize` would wrap
        // to an enormous addition and poison every threshold decision.
        let a = MemoryAccountant::new();
        a.add(MemClass::TransitoryExpanded, 1_000);
        a.adjust(MemClass::TransitoryExpanded, -400);
        assert_eq!(a.class(MemClass::TransitoryExpanded), 600);
        // Draining the rest must land exactly at zero; with the wrap
        // bug the counter (and the peak) would instead jump by ~2^63.
        a.adjust(MemClass::TransitoryExpanded, -600);
        assert_eq!(a.class(MemClass::TransitoryExpanded), 0);
        assert_eq!(a.snapshot().peak_total, 1_000);
    }

    #[test]
    fn accountant_is_race_free_across_threads() {
        let a = MemoryAccountant::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        a.add(MemClass::TransitoryExpanded, 8);
                        a.remove(MemClass::TransitoryExpanded, 8);
                    }
                });
            }
        });
        assert_eq!(a.class(MemClass::TransitoryExpanded), 0);
        assert!(a.snapshot().peak_total >= 8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "accounting underflow")]
    fn over_removal_is_caught_in_debug_builds() {
        let a = MemoryAccountant::new();
        a.add(MemClass::Derived, 8);
        a.remove(MemClass::Derived, 9);
    }

    #[test]
    fn display_is_nonempty() {
        let a = MemoryAccountant::new();
        assert!(!format!("{}", a.snapshot()).is_empty());
        assert!(!format!("{}", MemClass::Global).is_empty());
    }
}
