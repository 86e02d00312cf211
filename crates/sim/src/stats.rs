//! Small statistics helpers used by the benchmark harness.

use crate::time::Nanos;

/// Arithmetic mean of a slice of durations (zero for empty input).
pub fn mean(xs: &[Nanos]) -> Nanos {
    if xs.is_empty() {
        return Nanos::ZERO;
    }
    let total: u128 = xs.iter().map(|n| n.as_nanos() as u128).sum();
    Nanos::from_nanos((total / xs.len() as u128) as u64)
}

/// Geometric mean of a slice of durations (zero for empty input or any
/// zero element), as used for Fig. 6(e)/7(e)'s cross-benchmark summary.
pub fn geomean(xs: &[Nanos]) -> Nanos {
    if xs.is_empty() || xs.iter().any(|n| n.as_nanos() == 0) {
        return Nanos::ZERO;
    }
    let log_sum: f64 = xs.iter().map(|n| (n.as_nanos() as f64).ln()).sum();
    Nanos::from_nanos((log_sum / xs.len() as f64).exp().round() as u64)
}

/// Geometric mean of dimensionless ratios (zero elements are skipped).
pub fn geomean_f64(xs: &[f64]) -> f64 {
    let positive: Vec<f64> = xs.iter().copied().filter(|x| *x > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = positive.iter().map(|x| x.ln()).sum();
    (log_sum / positive.len() as f64).exp()
}

/// The `p`-th percentile (0–100) using linear interpolation between the
/// two nearest ranks on a sorted copy (the numpy/R-7 definition).
///
/// Nearest-rank makes p99 collapse to the maximum whenever `n < 100`,
/// which skews small-sample tails like chaos_sweep's 40 invocations;
/// interpolating fixes that.
///
/// # Interpolation contract
///
/// The sample is treated as the R-7 quantile grid: sorted value `i`
/// sits at percentile `100·i/(n−1)`, so `percentile(xs, 0)` is the
/// minimum, `percentile(xs, 100)` the maximum, and any `p` between two
/// grid points interpolates linearly in *value* space (rounded to the
/// nearest nanosecond). Edge cases this implies:
///
/// - **Empty input** → [`Nanos::ZERO`] (no panic).
/// - **Single sample** → that sample for every `p`; the grid degenerates
///   to one point, so there is nothing to interpolate toward.
/// - **Duplicate-heavy input** → duplicates occupy adjacent ranks, so
///   any `p` whose bracketing ranks hold equal values returns that value
///   exactly — interpolation between equal endpoints is the identity,
///   never a value outside the sample.
/// - **Out-of-range `p`** → clamped to `[0, 100]`.
pub fn percentile(xs: &[Nanos], p: f64) -> Nanos {
    if xs.is_empty() {
        return Nanos::ZERO;
    }
    let mut sorted: Vec<Nanos> = xs.to_vec();
    sorted.sort_unstable();
    let p = p.clamp(0.0, 100.0);
    let rank = (p / 100.0) * (sorted.len() as f64 - 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = rank - lo as f64;
    let a = sorted[lo].as_nanos() as f64;
    let b = sorted[hi].as_nanos() as f64;
    Nanos::from_nanos((a + (b - a) * frac).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[ms(1), ms(2), ms(3)]), ms(2));
        assert_eq!(mean(&[]), Nanos::ZERO);
    }

    #[test]
    fn geomean_of_values() {
        // geomean(1, 100) = 10.
        let g = geomean(&[ms(1), ms(100)]);
        let err = (g.as_millis_f64() - 10.0).abs();
        assert!(err < 0.001, "geomean {g}");
        assert_eq!(geomean(&[]), Nanos::ZERO);
        assert_eq!(geomean(&[Nanos::ZERO, ms(5)]), Nanos::ZERO);
    }

    #[test]
    fn geomean_f64_skips_nonpositive() {
        let g = geomean_f64(&[1.0, 100.0, 0.0]);
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean_f64(&[]), 0.0);
    }

    #[test]
    fn percentile_exact_ranks() {
        let xs = [ms(10), ms(20), ms(30), ms(40), ms(50)];
        assert_eq!(percentile(&xs, 0.0), ms(10));
        assert_eq!(percentile(&xs, 50.0), ms(30));
        assert_eq!(percentile(&xs, 100.0), ms(50));
        assert_eq!(percentile(&[], 50.0), Nanos::ZERO);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [ms(10), ms(20), ms(30), ms(40), ms(50)];
        // rank = 0.75 * 4 = 3 exactly for p75 on n=5; use p60: rank 2.4.
        assert_eq!(percentile(&xs, 60.0), ms(34));
        assert_eq!(percentile(&xs, 25.0), ms(20)); // rank 1.0
        assert_eq!(percentile(&xs, 10.0), ms(14)); // rank 0.4
                                                   // p99 on a small sample no longer collapses to the max.
        let two = [ms(0), ms(100)];
        assert_eq!(percentile(&two, 99.0), ms(99));
    }

    #[test]
    fn percentile_single_sample_is_constant_in_p() {
        let one = [ms(37)];
        for p in [0.0, 1.0, 50.0, 99.0, 100.0, -5.0, 250.0] {
            assert_eq!(percentile(&one, p), ms(37), "p={p}");
        }
    }

    #[test]
    fn percentile_duplicate_heavy_input_returns_the_mode_exactly() {
        // 1 low outlier, 8 copies of the mode, 1 high outlier: every p
        // bracketed by two copies of the mode returns the mode with no
        // interpolation drift.
        let mut xs = vec![ms(1)];
        xs.extend(std::iter::repeat_n(ms(20), 8));
        xs.push(ms(400));
        for p in [20.0, 25.0, 50.0, 75.0, 88.0] {
            assert_eq!(percentile(&xs, p), ms(20), "p={p}");
        }
        // All-equal input: constant for every p, including the extremes.
        let flat = [ms(7); 6];
        for p in [0.0, 33.3, 99.9, 100.0] {
            assert_eq!(percentile(&flat, p), ms(7), "p={p}");
        }
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let xs = [ms(10), ms(20), ms(30)];
        assert_eq!(percentile(&xs, -10.0), ms(10));
        assert_eq!(percentile(&xs, 1000.0), ms(30));
    }
}
