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
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Sample variance (divides by n-1). Returns NaN for input shorter than 2.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
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

/// Quantile `q` in [0, 1] with linear interpolation between order
/// statistics (R type 7 / NumPy default). Returns NaN for empty input.
///
/// Selects the one or two order statistics the quantile needs instead of
/// sorting: O(n) rather than O(n log n), with the same result as
/// [`quantile_sorted`] on a sorted copy. (The two can differ only in the
/// sign of a zero, when `-0.0` and `0.0` both occur.)
///
/// # Panics
/// If `q` is outside `[0, 1]` or NaN, or if `xs` holds a NaN and more
/// than one element.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if xs.is_empty() {
        return f64::NAN;
    }
    let (lo, hi, frac) = type7_rank(xs.len(), q);
    let mut work: Vec<f64> = xs.to_vec();
    // lint: allow(panic-in-library) -- deliberate panic-on-NaN contract: samples are finite by construction, and a total_cmp order would silently place a stray NaN instead of flagging the upstream bug. Selection compares every element, so any NaN reaches this
    let by_value = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in quantile input");
    let (_, lo_value, above) = work.select_nth_unstable_by(lo, by_value);
    if lo == hi {
        return *lo_value;
    }
    // Everything above position `lo` is ≥ its value, so the next order
    // statistic is the least of those.
    let (_, hi_value, _) = above.select_nth_unstable_by(0, by_value);
    interpolate(*lo_value, *hi_value, frac)
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

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// A fixed-width histogram over `[lo, hi)` with `bins` buckets.
/// Out-of-range values are clamped into the edge buckets.
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    assert!(bins > 0, "bins must be positive");
    assert!(hi > lo, "hi must exceed lo");
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for x in xs {
        let idx = (((x - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        counts[idx] += 1;
    }
    counts
}

/// Pearson correlation coefficient of two equal-length slices.
/// Returns NaN for degenerate inputs (length < 2 or zero variance).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "inputs must have equal length");
    if xs.len() < 2 {
        return f64::NAN;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    sxy / (sxx * syy).sqrt()
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
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
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
        assert!(b.iqr() > 0.0);
    }

    #[test]
    fn histogram_counts() {
        let xs = [0.1, 0.2, 0.5, 0.9, 1.5, -3.0];
        let h = histogram(&xs, 0.0, 1.0, 2);
        // Bin 0 = [0, 0.5): {0.1, 0.2, -3.0 clamped}; bin 1 = [0.5, 1.0):
        // {0.5, 0.9, 1.5 clamped}.
        assert_eq!(h, vec![3, 3]);
        assert_eq!(h.iter().sum::<usize>(), xs.len());
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate() {
        assert!(pearson(&[1.0], &[2.0]).is_nan());
        assert!(pearson(&[1.0, 1.0], &[2.0, 3.0]).is_nan());
    }
}
