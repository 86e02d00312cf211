//! Small statistics helpers used by the benchmark harness.

use crate::time::Nanos;

/// Geometric mean of a slice of durations (zero for empty input or any
/// zero element), as used for Fig. 6(e)/7(e)'s cross-benchmark summary.
pub fn geomean(xs: &[Nanos]) -> Nanos {
    if xs.is_empty() || xs.iter().any(|n| n.as_nanos() == 0) {
        return Nanos::ZERO;
    }
    let log_sum: f64 = xs.iter().map(|n| (n.as_nanos() as f64).ln()).sum();
    Nanos::from_nanos((log_sum / xs.len() as f64).exp().round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
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
}
