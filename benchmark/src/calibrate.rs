//! A fixed reference computation, timed immediately before and after
//! every timed operation. On a shared machine the processor's speed
//! shifts by a third within seconds (README.md has the probe), which
//! moves every wall time with it; `build_rel` divides each operation's
//! wall time by the reference's at the same moment, so that it repeats
//! within a few percent where raw seconds repeat within twenty.
//!
//! The reference uses the standard library only, never the code under
//! test, and does what a compiler does: ordered-map inserts, small
//! vector growth, clones, sorts and string formatting.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Runs the reference computation once and returns its wall time in
/// seconds (about 5 ms on the reference box).
#[must_use]
pub fn reference_seconds() -> f64 {
    let start = Instant::now();
    let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut x = 88_172_645_463_325_252u64;
    for i in 0..40_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x % 8192).or_default().push(i);
    }
    let mut total = 0u64;
    for (key, values) in &map {
        let mut sorted = values.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        total += key + u64::from(sorted[0]);
    }
    let keys: String = map.keys().map(u64::to_string).collect::<Vec<_>>().join(",");
    black_box((total, keys));
    start.elapsed().as_secs_f64()
}
