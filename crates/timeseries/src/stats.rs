//! Summary statistics for carbon-intensity analyses.
//!
//! Everything Fig. 6 needs: quantiles with linear interpolation (the common
//! "type 7" estimator), five-number box-plot summaries, and the coefficient
//! of variation (CoV, std/mean in %) that the paper uses to quantify
//! temporal variability.

/// Arithmetic mean. Returns NaN for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by n). Returns NaN for empty input.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    variance_about(xs, mean(xs))
}

/// Population variance of non-empty `xs` about their mean `m`.
fn variance_about(xs: &[f64], m: f64) -> f64 {
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Coefficient of variation in percent: `100 * std / mean`.
///
/// This is the paper's Fig. 6(b) metric ("the standard deviation as a
/// percentage of the average carbon intensity"). Returns NaN when the mean
/// is zero or input is empty.
pub fn cov_percent(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 || m.is_nan() {
        return f64::NAN;
    }
    100.0 * std_dev(xs) / m
}

/// [`cov_percent`] of `xs` given their mean `m`: one pass over `xs`
/// where [`cov_percent`] takes three (its mean, the variance's mean and
/// the variance). Bit for bit `cov_percent(xs)` when `m` is
/// [`mean`]`(xs)`.
pub fn cov_percent_about(xs: &[f64], m: f64) -> f64 {
    if m == 0.0 || m.is_nan() {
        return f64::NAN;
    }
    100.0 * variance_about(xs, m).sqrt() / m
}

/// Quantile `q` in [0, 1] with linear interpolation between order
/// statistics (R type 7 / NumPy default). Returns NaN for empty input.
///
/// Selects the one or two order statistics the quantile needs instead of
/// sorting: O(n) rather than O(n log n), with the same result as
/// [`quantile_sorted`] on a sorted copy. The selection runs over `u64`
/// keys that order as `f64::total_cmp` does, so no comparison needs a
/// `partial_cmp`. (The two can differ only in the sign of a zero, when
/// `-0.0` and `0.0` both occur.)
///
/// # Panics
/// If `q` is outside `[0, 1]` or NaN, or if `xs` holds a NaN and more
/// than one element.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if xs.is_empty() {
        return f64::NAN;
    }
    if xs.len() > 1 && xs.iter().fold(false, |nan, x| nan | x.is_nan()) {
        // lint: allow(panic-in-library) -- deliberate panic-on-NaN contract: samples are finite by construction, and the total order the selection runs on would silently place a stray NaN instead of flagging the upstream bug
        panic!("NaN in quantile input");
    }
    let (lo, hi, frac) = type7_rank(xs.len(), q);
    let mut keys: Vec<u64> = xs.iter().map(|&x| total_order_key(x)).collect();
    let (_, &mut lo_key, above) = keys.select_nth_unstable(lo);
    if lo == hi {
        return from_total_order_key(lo_key);
    }
    // Everything above position `lo` is ≥ its key, so the next order
    // statistic is the least of those.
    let hi_key = above.iter().copied().min().unwrap_or(lo_key);
    interpolate(
        from_total_order_key(lo_key),
        from_total_order_key(hi_key),
        frac,
    )
}

/// `x`'s bits mapped so that unsigned order is `f64::total_cmp`'s: a
/// negative's bits inverted, a positive's sign bit set.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The `f64` whose [`total_order_key`] is `key`.
fn from_total_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Quantile on already-sorted data (ascending). See [`quantile`].
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if sorted.is_empty() {
        return f64::NAN;
    }
    let (lo, hi, frac) = type7_rank(sorted.len(), q);
    if lo == hi {
        sorted[lo]
    } else {
        interpolate(sorted[lo], sorted[hi], frac)
    }
}

/// The type-7 position of quantile `q` among `n ≥ 1` order statistics:
/// the 0-based ranks either side of it (equal when it falls on one) and
/// the weight of the upper one.
fn type7_rank(n: usize, q: f64) -> (usize, usize, f64) {
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, pos - lo as f64)
}

/// Linear interpolation `frac` of the way from `lo` to `hi`.
fn interpolate(lo: f64, hi: f64, frac: f64) -> f64 {
    lo * (1.0 - frac) + hi * frac
}

/// Median (the 0.5 quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The five-number summary plus whiskers used to draw Fig. 6(a)'s box plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotStats {
    /// Minimum observation.
    pub min: f64,
    /// Lower whisker: smallest observation ≥ Q1 − 1.5·IQR.
    pub whisker_lo: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker: largest observation ≤ Q3 + 1.5·IQR.
    pub whisker_hi: f64,
    /// Maximum observation.
    pub max: f64,
    /// Arithmetic mean (shown as a marker in many box plots).
    pub mean: f64,
}

impl BoxplotStats {
    /// Computes the summary. Returns `None` for empty input.
    pub fn compute(xs: &[f64]) -> Option<BoxplotStats> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        // lint: allow(panic-in-library) -- same deliberate panic-on-NaN contract as quantile(): a NaN sample is an upstream bug, not data to summarize
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in boxplot input"));
        let q1 = quantile_sorted(&sorted, 0.25);
        let med = quantile_sorted(&sorted, 0.5);
        let q3 = quantile_sorted(&sorted, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        // Innermost data within the fences; clamped to the box edges so a
        // gap in the data cannot produce a whisker inside the box (the
        // same degenerate-whisker rule plotting libraries apply).
        let whisker_lo = sorted
            .iter()
            .copied()
            .find(|x| *x >= lo_fence)
            .unwrap_or(sorted[0])
            .min(q1);
        let whisker_hi = sorted
            .iter()
            .rev()
            .copied()
            .find(|x| *x <= hi_fence)
            // lint: allow(panic-in-library) -- the empty-input case returned None at the top of compute(), so `sorted` has a last element
            .unwrap_or(*sorted.last().expect("non-empty"))
            .max(q3);
        Some(BoxplotStats {
            min: sorted[0],
            whisker_lo,
            q1,
            median: med,
            q3,
            whisker_hi,
            // lint: allow(panic-in-library) -- same non-empty guarantee as the whisker computation above
            max: *sorted.last().expect("non-empty"),
            mean: mean(xs),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
    }

    #[test]
    fn empty_input_is_nan() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[]).is_nan());
        assert!(cov_percent(&[]).is_nan());
        assert!(quantile(&[], 0.5).is_nan());
        assert!(BoxplotStats::compute(&[]).is_none());
    }

    #[test]
    fn cov_is_scale_invariant() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| x * 7.5).collect();
        assert!((cov_percent(&xs) - cov_percent(&ys)).abs() < 1e-9);
    }

    #[test]
    fn cov_known_value() {
        // std of [1..4] = sqrt(1.25), mean 2.5 -> CoV = 44.72%
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((cov_percent(&xs) - 44.721).abs() < 0.01);
    }

    #[test]
    fn cov_percent_about_the_mean_is_cov_percent() {
        let xs: Vec<f64> = (0..1_000)
            .map(|i| (f64::from(i) * 0.37).sin() + 2.0)
            .collect();
        for xs in [&xs[..], &[0.1, 0.2, 0.7], &[5.0]] {
            assert_eq!(
                cov_percent_about(xs, mean(xs)).to_bits(),
                cov_percent(xs).to_bits()
            );
        }
        assert!(cov_percent_about(&[1.0, -1.0], 0.0).is_nan());
        assert!(cov_percent_about(&[], f64::NAN).is_nan());
    }

    #[test]
    fn total_order_keys_sort_as_total_cmp_and_round_trip() {
        let mut xs = vec![
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.0,
            -f64::MIN_POSITIVE,
            -1e-310,
            -0.0,
            0.0,
            1e-310,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for x in &xs {
            assert_eq!(
                from_total_order_key(total_order_key(*x)).to_bits(),
                x.to_bits()
            );
        }
        let mut by_key = xs.clone();
        by_key.sort_by_key(|x| total_order_key(*x));
        xs.sort_by(f64::total_cmp);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_key), bits(&xs));
    }

    #[test]
    fn quantile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.75) - 3.25).abs() < 1e-12);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[42.0], 0.0), 42.0);
        assert_eq!(quantile(&[42.0], 0.5), 42.0);
        assert_eq!(quantile(&[42.0], 1.0), 42.0);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(median(&xs), 5.0);
    }

    #[test]
    fn quantile_interpolates_with_the_type7_expression() {
        // Two samples put q = 0.3 at 30% of the way from 0.1 to 0.3. The
        // other common form, `lo + (hi - lo) * frac`, gives 0.16 here.
        let expected: f64 = 0.1 * (1.0 - 0.3) + 0.3 * 0.3;
        assert_eq!(expected, 0.15999999999999998);
        assert_eq!(quantile(&[0.3, 0.1], 0.3).to_bits(), expected.to_bits());
        assert_eq!(
            quantile_sorted(&[0.1, 0.3], 0.3).to_bits(),
            expected.to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "NaN in quantile input")]
    fn quantile_rejects_nan_away_from_the_selected_ranks() {
        let mut xs: Vec<f64> = (0..101).map(f64::from).collect();
        xs[3] = f64::NAN;
        let _ = quantile(&xs, 0.5);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn quantile_rejects_out_of_range() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn boxplot_summary() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let b = BoxplotStats::compute(&xs).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 100.0);
        assert_eq!(b.median, 50.5);
        assert!((b.q1 - 25.75).abs() < 1e-9);
        assert!((b.q3 - 75.25).abs() < 1e-9);
        assert!((b.mean - 50.5).abs() < 1e-9);
        // Uniform data has no outliers: whiskers touch min/max.
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 100.0);
    }

    #[test]
    fn boxplot_with_outlier() {
        let mut xs: Vec<f64> = (1..=99).map(|i| i as f64).collect();
        xs.push(10_000.0);
        let b = BoxplotStats::compute(&xs).unwrap();
        assert_eq!(b.max, 10_000.0);
        // The outlier is beyond the upper fence; whisker stays at 99.
        assert_eq!(b.whisker_hi, 99.0);
        assert!(b.q3 > b.q1);
    }
}
