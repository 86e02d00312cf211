//! Order statistics the harness reports: medians over repetitions and
//! nearest-rank percentiles over per-call samples.

/// Samples that must lie strictly beyond a percentile's rank for the
/// percentile to be reported as resolved (choosing-metrics §1).
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median, extremes and count of one metric over the repetitions of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Summarises one metric's per-repetition values.
pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
    }
}

/// Zero-based nearest-rank index of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond percentile `p`'s rank among `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// Whether percentile `p` of `n` samples has at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it.
pub fn is_resolved(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "slice is sorted");
    sorted[rank(sorted.len(), p)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn summary_keeps_extremes_and_count() {
        let s = summarize(&[5.0, 1.0, 9.0, 4.0, 6.0]);
        assert_eq!(
            s,
            Summary {
                median: 5.0,
                min: 1.0,
                max: 9.0,
                n: 5
            }
        );
    }

    #[test]
    fn nearest_rank_selects_hand_checked_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        // Five samples: p50 is the third, p99 the last.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 50.0), 30);
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 99.0), 50);
        assert_eq!(percentile(&[42], 99.0), 42);
    }

    #[test]
    fn p99_needs_a_thousand_samples_to_have_ten_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(is_resolved(1000, 99.0));
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert!(!is_resolved(999, 99.0));
        // The median resolves from 20 samples: rank 10, ten beyond.
        assert!(is_resolved(20, 50.0));
        assert!(!is_resolved(19, 50.0));
        assert_eq!(samples_beyond(0, 99.0), 0);
    }
}
