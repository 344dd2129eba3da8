//! Property tests for the sliding-window index: every indexed answer must
//! agree with the naive `O(n)` scan — bit-exactly on dyadic-valued series
//! (the determinism contract DESIGN.md §7 states), within f64 rounding on
//! arbitrary floats — including wrap-around at the last hour of the year
//! and lowest-start tie-breaking on all-equal plateaus.

use hpcarbon_timeseries::window::{naive, WindowIndex};
use proptest::prelude::*;

/// Series of dyadic rationals (multiples of 1/8 in `[0, 512)`): prefix
/// sums over ≤ 8784 such values are exact in f64, so indexed and naive
/// answers must match bit for bit.
fn dyadic_series() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u32..4096u32, 24..600)
        .prop_map(|xs| xs.into_iter().map(|x| f64::from(x) * 0.125).collect())
}

proptest! {
    #[test]
    fn indexed_window_mean_is_exact_on_dyadic_series(
        vs in dyadic_series(),
        start_frac in 0.0..1.0f64,
        w_frac in 0.0..1.0f64,
    ) {
        let n = vs.len() as u32;
        let start = ((f64::from(n) * start_frac) as u32).min(n - 1);
        let w = (((f64::from(n) * w_frac) as u32) + 1).min(n);
        let idx = WindowIndex::new(&vs);
        prop_assert_eq!(idx.window_mean(start, w), naive::window_mean(&vs, start, w));
        let mut direct = 0.0;
        for k in 0..w {
            direct += vs[((start + k) % n) as usize];
        }
        prop_assert_eq!(idx.window_sum(start, w), direct);
    }

    #[test]
    fn indexed_greenest_shift_is_exact_on_dyadic_series(
        vs in dyadic_series(),
        start_frac in 0.0..1.0f64,
        slack in 0u32..200u32,
        w in 1u32..24u32,
    ) {
        let n = vs.len() as u32;
        let start = ((f64::from(n) * start_frac) as u32).min(n - 1);
        let w = w.min(n);
        let idx = WindowIndex::new(&vs);
        prop_assert_eq!(
            idx.greenest_shift(start, slack, w),
            naive::greenest_shift(&vs, start, slack, w)
        );
    }

    #[test]
    fn plateau_ties_resolve_to_the_lowest_start(
        level in 0u32..1000u32,
        n in 24usize..400usize,
        slack in 0u32..300u32,
        w in 1u32..24u32,
    ) {
        // All-equal series: every window has the same mean, so the argmin
        // must be the scan origin (shift 0) everywhere.
        let vs = vec![f64::from(level) * 0.25; n];
        let idx = WindowIndex::new(&vs);
        let w = w.min(n as u32);
        prop_assert_eq!(idx.greenest_shift(3 % n as u32, slack, w), 0);
        prop_assert_eq!(naive::greenest_shift(&vs, 3 % n as u32, slack, w), 0);
    }

    #[test]
    fn wraparound_at_the_last_hour_matches_naive(
        vs in dyadic_series(),
        w in 2u32..48u32,
    ) {
        // Windows anchored at the final index always wrap (w ≥ 2).
        let n = vs.len() as u32;
        let w = w.min(n);
        let last = n - 1;
        let idx = WindowIndex::new(&vs);
        prop_assert_eq!(idx.window_mean(last, w), naive::window_mean(&vs, last, w));
        prop_assert_eq!(
            idx.greenest_shift(last, 30, w),
            naive::greenest_shift(&vs, last, 30, w)
        );
    }

    #[test]
    fn arbitrary_floats_agree_within_rounding(
        vs in proptest::collection::vec(0.0..850.0f64, 24..600),
        start_frac in 0.0..1.0f64,
        w in 1u32..48u32,
    ) {
        let n = vs.len() as u32;
        let start = ((f64::from(n) * start_frac) as u32).min(n - 1);
        let w = w.min(n);
        let idx = WindowIndex::new(&vs);
        let a = idx.window_mean(start, w);
        let b = naive::window_mean(&vs, start, w);
        prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{} vs {}", a, b);
    }

    #[test]
    fn clamped_argmin_never_leaves_the_year(
        vs in dyadic_series(),
        start_frac in 0.0..1.0f64,
        horizon in 0u32..500u32,
        w in 1u32..48u32,
    ) {
        let n = vs.len() as u32;
        let start = ((f64::from(n) * start_frac) as u32).min(n - 1);
        let w = w.min(n);
        let idx = WindowIndex::new(&vs);
        let best = idx.argmin_window_clamped(start, horizon, w);
        prop_assert!(best >= start || best == start);
        if best + w <= n {
            // A fitting answer must be at least as green as starting now,
            // whenever "now" itself fits.
            if start + w <= n {
                prop_assert!(
                    idx.window_mean(best, w) <= idx.window_mean(start, w)
                );
            }
        }
    }
}
