//! Indexed sliding-window queries over hourly series.
//!
//! Carbon-aware shifting asks two questions thousands of times per sweep:
//! *"what is the average intensity over `[t, t+w)`?"* and *"which start
//! hour within my slack minimizes that average?"*. Answering them by
//! rescanning the raw 8760-hour series costs `O(w)` per window and
//! `O(slack × w)` per argmin; a [`WindowIndex`] answers the first in
//! `O(1)` from prefix sums and the second in `O(slack)` (one prefix
//! lookup per candidate start).
//!
//! ## Semantics
//!
//! - Windows may **wrap** past the end of the year: a window starting at
//!   hour 8758 with width 4 covers hours 8758, 8759, 0, 1. Clamped
//!   (non-wrapping) variants are provided for callers that must stay
//!   inside the year, e.g. [`WindowIndex::argmin_window_clamped`].
//! - Argmin ties break toward the **lowest start hour** (for the wrapped
//!   scan: the earliest candidate in scan order), so every query is
//!   deterministic on all-equal plateaus.
//! - Window sums are computed as prefix-sum differences. For series whose
//!   values are dyadic rationals of bounded magnitude (every trace built
//!   from integers or multiples of 2⁻ᵏ) this is *bit-exact* against a
//!   naive left-to-right scan; for arbitrary floats it agrees to within
//!   normal f64 rounding (≲1e-12 relative). The naive reference
//!   implementations live in [`naive`] and anchor the property tests.

use crate::series::HourlySeries;

/// Naive `O(w)` / `O(slack × w)` reference implementations.
///
/// These define the ground-truth semantics the index must reproduce; the
/// property tests in `tests/prop_window.rs` and the `bench_window_index`
/// benchmark both compare against them.
pub mod naive {
    /// Mean of the wrapped window `[start, start+w)` by direct summation.
    ///
    /// # Panics
    /// If `values` is empty, `w` is zero, `w > values.len()` or
    /// `start >= values.len()`.
    pub fn window_mean(values: &[f64], start: u32, w: u32) -> f64 {
        let n = values.len() as u32;
        assert!(
            n > 0 && w >= 1 && w <= n && start < n,
            "window out of range"
        );
        let mut acc = 0.0;
        for k in 0..w {
            acc += values[((start + k) % n) as usize];
        }
        acc / f64::from(w)
    }

    /// The shift `d ∈ [0, slack]` minimizing the wrapped window mean at
    /// `start + d`, by direct summation. Ties break toward the smallest
    /// shift.
    pub fn greenest_shift(values: &[f64], start: u32, slack: u32, w: u32) -> u32 {
        let n = values.len() as u32;
        let mut best_shift = 0;
        let mut best = window_mean(values, start % n, w);
        for d in 1..=slack {
            let m = window_mean(values, (start + d) % n, w);
            if m < best {
                best = m;
                best_shift = d;
            }
        }
        best_shift
    }
}

/// Prefix-sum index over one hourly series: `O(1)` window sums/means and
/// `O(slack)` greenest-start scans, with or without year-end wrap-around.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowIndex {
    /// `prefix[i]` = sum of the first `i` values; `prefix.len() == n + 1`.
    prefix: Vec<f64>,
}

impl WindowIndex {
    /// Builds the index over raw values in `O(n)`.
    ///
    /// # Panics
    /// If `values` is empty.
    pub fn new(values: &[f64]) -> WindowIndex {
        assert!(!values.is_empty(), "cannot index an empty series");
        let mut prefix = Vec::with_capacity(values.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for v in values {
            acc += v;
            prefix.push(acc);
        }
        WindowIndex { prefix }
    }

    /// Builds the index over a series' values.
    pub fn of_series(series: &HourlySeries) -> WindowIndex {
        WindowIndex::new(series.values())
    }

    /// Number of indexed hours.
    pub fn len(&self) -> usize {
        self.prefix.len() - 1
    }

    /// Always false: construction rejects empty input.
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn n(&self) -> u32 {
        (self.prefix.len() - 1) as u32
    }

    /// Sum over the non-wrapping range `[a, b)`; `O(1)`.
    #[inline]
    fn range_sum(&self, a: u32, b: u32) -> f64 {
        self.prefix[b as usize] - self.prefix[a as usize]
    }

    /// Sum over the wrapped window `[start, start+w)`; `O(1)`.
    ///
    /// # Panics
    /// If `w` is zero, `w > len` or `start >= len`.
    #[inline]
    pub fn window_sum(&self, start: u32, w: u32) -> f64 {
        let n = self.n();
        assert!(w >= 1 && w <= n, "window width must be in 1..=len");
        assert!(start < n, "start out of range");
        if start + w <= n {
            self.range_sum(start, start + w)
        } else {
            self.range_sum(start, n) + self.range_sum(0, start + w - n)
        }
    }

    /// Mean over the wrapped window `[start, start+w)`; `O(1)`.
    #[inline]
    pub fn window_mean(&self, start: u32, w: u32) -> f64 {
        self.window_sum(start, w) / f64::from(w)
    }

    /// The shift `d ∈ [0, slack]` whose wrapped window `[start+d,
    /// start+d+w)` has the lowest mean; `O(slack)` with one `O(1)` sum per
    /// candidate. `start` may exceed the series length (it is reduced
    /// modulo the year, matching simulation clocks that run past hour
    /// 8759). Ties break toward the smallest shift — i.e. the lowest
    /// start hour — so plateaus resolve deterministically.
    pub fn greenest_shift(&self, start: u32, slack: u32, w: u32) -> u32 {
        let n = self.n();
        let mut best_shift = 0;
        let mut best = self.window_sum(start % n, w);
        for d in 1..=slack {
            let s = self.window_sum((start + d) % n, w);
            if s < best {
                best = s;
                best_shift = d;
            }
        }
        best_shift
    }

    /// The start in `[start, min(start+horizon, len−w)]` whose
    /// **non-wrapping** window has the lowest mean — the clamped query
    /// behind `IntensityTrace::greenest_window`. Ties break toward the
    /// lowest start. Returns `start` when no window fits.
    ///
    /// # Panics
    /// If `w` is zero or `start >= len`.
    pub fn argmin_window_clamped(&self, start: u32, horizon: u32, w: u32) -> u32 {
        let n = self.n();
        assert!(w >= 1, "window must span at least one hour");
        assert!(start < n, "start out of range");
        let last_start = (start.saturating_add(horizon)).min(n.saturating_sub(w));
        let mut best_start = start;
        let mut best = f64::INFINITY;
        for s in start..=last_start {
            if s + w > n {
                break;
            }
            let sum = self.range_sum(s, s + w);
            if sum < best {
                best = sum;
                best_start = s;
            }
        }
        best_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i % 24) as f64).collect()
    }

    #[test]
    fn window_mean_matches_naive_on_integers() {
        let vs = ramp(8760);
        let idx = WindowIndex::new(&vs);
        for (start, w) in [(0, 1), (10, 24), (8755, 12), (8759, 1), (100, 8760)] {
            assert_eq!(
                idx.window_mean(start, w),
                naive::window_mean(&vs, start, w),
                "start {start} w {w}"
            );
        }
    }

    #[test]
    fn wrapped_window_crosses_year_end() {
        let vs = ramp(48);
        let idx = WindowIndex::new(&vs);
        // Start 46, width 4: values 22, 23, 0, 1 -> mean 11.5.
        assert_eq!(idx.window_mean(46, 4), 11.5);
    }

    #[test]
    fn greenest_shift_matches_naive() {
        let vs = ramp(8760);
        let idx = WindowIndex::new(&vs);
        for (start, slack, w) in [(12, 24, 3), (8750, 40, 6), (0, 0, 5), (23, 168, 24)] {
            assert_eq!(
                idx.greenest_shift(start, slack, w),
                naive::greenest_shift(&vs, start, slack, w),
                "start {start} slack {slack} w {w}"
            );
        }
    }

    #[test]
    fn greenest_shift_tie_breaks_lowest_start() {
        let vs = vec![5.0; 240];
        let idx = WindowIndex::new(&vs);
        assert_eq!(idx.greenest_shift(7, 100, 12), 0);
        assert_eq!(naive::greenest_shift(&vs, 7, 100, 12), 0);
    }

    #[test]
    fn greenest_shift_accepts_past_year_starts() {
        let vs = ramp(48);
        let idx = WindowIndex::new(&vs);
        // Start 50 ≡ hour 2 of the wrapped year.
        assert_eq!(idx.greenest_shift(50, 10, 2), idx.greenest_shift(2, 10, 2));
    }

    #[test]
    fn clamped_argmin_stays_inside_the_year() {
        let vs = ramp(8760);
        let idx = WindowIndex::new(&vs);
        let best = idx.argmin_window_clamped(8756, 100, 4);
        assert!(best + 4 <= 8760);
        // Night hours (index % 24 == 0) minimize the ramp.
        assert_eq!(idx.argmin_window_clamped(12, 24, 3) % 24, 0);
    }

    #[test]
    #[should_panic(expected = "start out of range")]
    fn window_sum_rejects_bad_start() {
        let _ = WindowIndex::new(&[1.0, 2.0]).window_sum(2, 1);
    }

    #[test]
    #[should_panic(expected = "window width must be in 1..=len")]
    fn window_sum_rejects_oversized_window() {
        let _ = WindowIndex::new(&[1.0, 2.0]).window_sum(0, 3);
    }

    #[test]
    #[should_panic(expected = "cannot index an empty series")]
    fn rejects_empty_input() {
        let _ = WindowIndex::new(&[]);
    }

    #[test]
    fn of_series_matches_new() {
        let s = HourlySeries::from_fn(2021, |st| f64::from(st.hour()));
        assert_eq!(WindowIndex::of_series(&s), WindowIndex::new(s.values()));
        assert_eq!(WindowIndex::of_series(&s).len(), 8760);
        assert!(!WindowIndex::of_series(&s).is_empty());
    }
}
