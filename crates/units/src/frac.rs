//! A checked fraction in `[0, 1]` for yields, utilizations and shares.

use core::fmt;

/// A dimensionless fraction guaranteed to lie in `[0.0, 1.0]`.
///
/// Used for fab yield (the paper fixes it at 0.875), GPU usage rates
/// (RQ8's low/medium/high usage), packaging-to-manufacturing ratios and
/// composition shares. Constructing an out-of-range or non-finite value is
/// an error, which catches percentage-vs-fraction bugs (e.g. passing `40.0`
/// where `0.40` was meant).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Fraction(f64);

impl Fraction {
    /// Zero.
    pub const ZERO: Fraction = Fraction(0.0);
    /// One half.
    pub const HALF: Fraction = Fraction(0.5);

    /// Creates a fraction, returning `None` when `v` is outside `[0, 1]`
    /// or not finite.
    #[inline]
    pub fn new(v: f64) -> Option<Fraction> {
        if v.is_finite() && (0.0..=1.0).contains(&v) {
            Some(Fraction(v))
        } else {
            None
        }
    }

    /// Creates a fraction, panicking on invalid input. Intended for
    /// compile-time-known constants.
    ///
    /// # Panics
    /// If `v` is outside `[0, 1]` or not finite.
    #[inline]
    pub fn new_unchecked(v: f64) -> Fraction {
        // lint: allow(panic-in-library) -- documented panicking constructor for compile-time-known constants; the fallible form is `Fraction::new`
        Self::new(v).unwrap_or_else(|| panic!("fraction out of range: {v}"))
    }

    /// Clamps an arbitrary finite value into `[0, 1]`; NaN becomes 0.
    /// Negative zero is normalized to positive zero so downstream
    /// formatting never prints `-0.0`.
    #[inline]
    pub fn saturating(v: f64) -> Fraction {
        if v.is_nan() {
            Fraction(0.0)
        } else {
            // `x + 0.0` maps -0.0 to +0.0 and leaves every other value.
            Fraction(v.clamp(0.0, 1.0) + 0.0)
        }
    }

    /// The raw value in `[0, 1]`.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// As a percentage in `[0, 100]`.
    #[inline]
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.percent())
    }
}

impl core::ops::Mul<f64> for Fraction {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl core::ops::Mul<Fraction> for f64 {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Fraction) -> f64 {
        self * rhs.0
    }
}

impl core::ops::Mul<Fraction> for Fraction {
    type Output = Fraction;
    #[inline]
    fn mul(self, rhs: Fraction) -> Fraction {
        Fraction(self.0 * rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_range() {
        assert!(Fraction::new(0.0).is_some());
        assert!(Fraction::new(1.0).is_some());
        assert!(Fraction::new(0.875).is_some());
        assert!(Fraction::new(-0.01).is_none());
        assert!(Fraction::new(1.01).is_none());
        assert!(Fraction::new(f64::NAN).is_none());
        assert!(Fraction::new(f64::INFINITY).is_none());
    }

    #[test]
    fn percent_roundtrip() {
        let f = Fraction::new(0.42).unwrap();
        assert!((f.percent() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(Fraction::saturating(2.0).value(), 1.0);
        assert_eq!(Fraction::saturating(-1.0).value(), 0.0);
        assert_eq!(Fraction::saturating(f64::NAN).value(), 0.0);
    }

    #[test]
    fn complement_and_product() {
        let y = Fraction::new_unchecked(0.875);
        let half_of = y * Fraction::HALF;
        assert!((half_of.value() - 0.4375).abs() < 1e-12);
        assert_eq!(y * 8.0, 7.0);
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn unchecked_panics() {
        let _ = Fraction::new_unchecked(1.5);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Fraction::new_unchecked(0.405)), "40.5%");
    }
}
