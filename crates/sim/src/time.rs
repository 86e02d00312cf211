//! Nanosecond-precision virtual time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or instant in virtual nanoseconds.
///
/// `Nanos` is used both as a point on the virtual timeline (an instant on a
/// [`crate::Clock`]) and as a span between two such points. All arithmetic
/// saturates rather than panicking: the simulation prefers a pinned value at
/// `u64::MAX` over aborting a long experiment on an overflow that can only
/// be produced by absurd cost configurations.
///
/// # Examples
///
/// ```
/// use fireworks_sim::Nanos;
///
/// let boot = Nanos::from_millis(125);
/// let runtime = Nanos::from_millis(950);
/// assert_eq!((boot + runtime).as_millis_f64(), 1075.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable duration.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(n: u64) -> Self {
        Nanos(n)
    }

    /// Creates a duration from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us.saturating_mul(1_000))
    }

    /// Creates a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms.saturating_mul(1_000_000))
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s.saturating_mul(1_000_000_000))
    }

    /// Creates a duration from fractional milliseconds.
    ///
    /// Negative or non-finite inputs clamp to zero.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        if !ms.is_finite() || ms <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((ms * 1_000_000.0).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in milliseconds, rounded down.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Duration in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating addition.
    #[inline]
    pub const fn saturating_add(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub const fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a count, saturating.
    #[inline]
    pub const fn saturating_mul(self, count: u64) -> Nanos {
        Nanos(self.0.saturating_mul(count))
    }

    /// Scales the duration by a floating-point factor, rounding to the
    /// nearest nanosecond. Negative or non-finite factors clamp to zero.
    #[inline]
    pub fn scale(self, factor: f64) -> Nanos {
        if !factor.is_finite() || factor <= 0.0 {
            return Nanos::ZERO;
        }
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            Nanos::MAX
        } else {
            Nanos(scaled.round() as u64)
        }
    }

    /// Returns the ratio `self / other` as `f64`, or `f64::INFINITY` when
    /// `other` is zero and `self` is not.
    #[inline]
    pub fn ratio(self, other: Nanos) -> f64 {
        if other.0 == 0 {
            if self.0 == 0 {
                return 0.0;
            }
            return f64::INFINITY;
        }
        self.0 as f64 / other.0 as f64
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        self.saturating_mul(rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs.max(1))
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |acc, n| acc + n)
    }
}

impl fmt::Display for Nanos {
    /// Formats with a unit chosen by magnitude: `ns`, `µs`, `ms`, or `s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n < 1_000 {
            write!(f, "{n}ns")
        } else if n < 1_000_000 {
            write!(f, "{:.2}µs", n as f64 / 1_000.0)
        } else if n < 1_000_000_000 {
            write!(f, "{:.2}ms", n as f64 / 1_000_000.0)
        } else {
            write!(f, "{:.3}s", n as f64 / 1_000_000_000.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1_000));
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1_000));
    }

    #[test]
    fn from_millis_f64_rounds() {
        assert_eq!(Nanos::from_millis_f64(1.5), Nanos::from_micros(1_500));
        assert_eq!(Nanos::from_millis_f64(-3.0), Nanos::ZERO);
        assert_eq!(Nanos::from_millis_f64(f64::NAN), Nanos::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Nanos::MAX + Nanos::from_secs(1), Nanos::MAX);
        assert_eq!(Nanos::ZERO - Nanos::from_secs(1), Nanos::ZERO);
        assert_eq!(Nanos::MAX * 2, Nanos::MAX);
    }

    #[test]
    fn scale_clamps_bad_factors() {
        let d = Nanos::from_millis(10);
        assert_eq!(d.scale(0.5), Nanos::from_millis(5));
        assert_eq!(d.scale(-1.0), Nanos::ZERO);
        assert_eq!(d.scale(f64::INFINITY), Nanos::ZERO);
        assert_eq!(Nanos::MAX.scale(2.0), Nanos::MAX);
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(Nanos::from_secs(2).ratio(Nanos::from_secs(1)), 2.0);
        assert_eq!(Nanos::ZERO.ratio(Nanos::ZERO), 0.0);
        assert!(Nanos::from_secs(1).ratio(Nanos::ZERO).is_infinite());
    }

    #[test]
    fn division_by_zero_is_pinned() {
        assert_eq!(Nanos::from_secs(1) / 0, Nanos::from_secs(1));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(Nanos::from_nanos(12).to_string(), "12ns");
        assert_eq!(Nanos::from_micros(12).to_string(), "12.00µs");
        assert_eq!(Nanos::from_millis(12).to_string(), "12.00ms");
        assert_eq!(Nanos::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_of_iterator() {
        let total: Nanos = (1..=4).map(Nanos::from_millis).sum();
        assert_eq!(total, Nanos::from_millis(10));
    }
}
