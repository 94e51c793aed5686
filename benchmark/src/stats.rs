//! Sample statistics: the median every timing is reported as, and the
//! tail-percentile rule from the choosing-metrics guide.

/// Median of `samples` (mean of the two middle values for an even
/// count). Returns 0 for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(percentile, value)`: p83 at n=60, p96 at n=300. `None`
/// with ten samples or fewer, where no percentile qualifies.
#[must_use]
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len();
    if n <= 10 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let percentile = ((n - 10) * 100 / n) as u32;
    Some((percentile, v[n - 11]))
}
