//! The tail-percentile rule: the highest percentile that still has at
//! least ten samples beyond it.

use cmo_benchmark::stats::{median, tail_percentile};

fn ramp(n: usize) -> Vec<f64> {
    // Descending, so the rule has to sort.
    (0..n).rev().map(|i| i as f64).collect()
}

#[test]
fn sixty_samples_report_p83() {
    let (percentile, value) = tail_percentile(&ramp(60)).unwrap();
    assert_eq!(percentile, 83);
    assert_eq!(value, 49.0, "ten samples (50..=59) lie beyond it");
}

#[test]
fn three_hundred_samples_report_p96() {
    let (percentile, value) = tail_percentile(&ramp(300)).unwrap();
    assert_eq!(percentile, 96);
    assert_eq!(value, 289.0);
}

#[test]
fn ten_samples_or_fewer_have_no_tail() {
    assert_eq!(tail_percentile(&ramp(10)), None);
    assert_eq!(tail_percentile(&[]), None);
    assert_eq!(tail_percentile(&ramp(11)), Some((9, 0.0)));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}
