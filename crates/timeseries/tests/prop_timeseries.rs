//! Property tests for datetime arithmetic and statistics.

use hpcarbon_timeseries::datetime::*;
use hpcarbon_timeseries::stats::*;
use proptest::prelude::*;

proptest! {
    #[test]
    fn days_since_epoch_roundtrips(days in -1_000_000i64..1_000_000i64) {
        let d = CivilDate::from_days_since_epoch(days);
        prop_assert_eq!(d.days_since_epoch(), days);
    }

    #[test]
    fn plus_days_is_additive(days in -100_000i64..100_000i64, a in -500i64..500i64, b in -500i64..500i64) {
        let d = CivilDate::from_days_since_epoch(days);
        prop_assert_eq!(d.plus_days(a).plus_days(b), d.plus_days(a + b));
    }

    #[test]
    fn hours_since_epoch_roundtrips(hours in -10_000_000i64..10_000_000i64) {
        let s = HourStamp::from_hours_since_epoch(hours);
        prop_assert_eq!(s.hours_since_epoch(), hours);
        prop_assert!(s.hour() < 24);
    }

    #[test]
    fn day_of_year_in_range(days in -100_000i64..100_000i64) {
        let d = CivilDate::from_days_since_epoch(days);
        let doy = d.day_of_year();
        prop_assert!(doy >= 1);
        prop_assert!(doy <= days_in_year(d.year()));
    }

    #[test]
    fn weekday_cycles_every_seven_days(days in -100_000i64..100_000i64) {
        let d = CivilDate::from_days_since_epoch(days);
        prop_assert_eq!(d.weekday(), d.plus_days(7).weekday());
        prop_assert_ne!(d.weekday(), d.plus_days(1).weekday());
    }

    #[test]
    fn zone_roundtrip_identity(hours in -1_000_000i64..1_000_000i64, off in -12i8..=14i8) {
        let tz = TimeZone::fixed(off, "TST");
        let s = HourStamp::from_hours_since_epoch(hours);
        prop_assert_eq!(tz.to_utc(tz.from_utc(s)), s);
    }

    #[test]
    fn quantile_is_monotone(mut xs in proptest::collection::vec(-1e6..1e6f64, 1..200), q1 in 0.0..=1.0f64, q2 in 0.0..=1.0f64) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile_sorted(&xs, lo) <= quantile_sorted(&xs, hi) + 1e-9);
    }

    #[test]
    fn quantile_within_range(xs in proptest::collection::vec(-1e6..1e6f64, 1..200), q in 0.0..=1.0f64) {
        let v = quantile(&xs, q);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn mean_shift_invariance(xs in proptest::collection::vec(-1e3..1e3f64, 2..100), shift in -1e3..1e3f64) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((mean(&shifted) - mean(&xs) - shift).abs() < 1e-6);
        // Variance is shift-invariant.
        prop_assert!((variance(&shifted) - variance(&xs)).abs() < 1e-6);
    }

    #[test]
    fn boxplot_ordering_invariants(xs in proptest::collection::vec(-1e6..1e6f64, 1..300)) {
        let b = BoxplotStats::compute(&xs).unwrap();
        prop_assert!(b.min <= b.whisker_lo + 1e-9);
        prop_assert!(b.whisker_lo <= b.q1 + 1e-9);
        prop_assert!(b.q1 <= b.median + 1e-9);
        prop_assert!(b.median <= b.q3 + 1e-9);
        prop_assert!(b.q3 <= b.whisker_hi + 1e-9);
        prop_assert!(b.whisker_hi <= b.max + 1e-9);
        prop_assert!(b.mean >= b.min - 1e-9 && b.mean <= b.max + 1e-9);
    }

    #[test]
    fn selected_quantiles_equal_sorted_ones_bit_for_bit(
        spread in proptest::collection::vec(0.0..1e4f64, 2..400),
        ties in proptest::collection::vec((0u32..16).prop_map(f64::from), 2..60),
        year_long in proptest::collection::vec(0.0..900.0f64, 8760..8785),
        q in 0.0..=1.0f64,
    ) {
        // Non-negative finite samples of both parities, with and without
        // repeated values, up to a year of hours.
        for xs in [&spread[..], &spread[1..], &ties[..], &ties[1..], &year_long[..], &year_long[1..]] {
            let boxplot = BoxplotStats::compute(xs).unwrap();
            prop_assert_eq!(median(xs).to_bits(), boxplot.median.to_bits());
            let mut sorted = xs.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert_eq!(quantile(xs, q).to_bits(), quantile_sorted(&sorted, q).to_bits());
        }
    }

    #[test]
    fn histogram_conserves_count(xs in proptest::collection::vec(-10.0..10.0f64, 0..200)) {
        let h = histogram(&xs, -5.0, 5.0, 7);
        prop_assert_eq!(h.iter().sum::<usize>(), xs.len());
    }

    #[test]
    fn pearson_bounded(
        xs in proptest::collection::vec(-1e3..1e3f64, 3..50),
        ys in proptest::collection::vec(-1e3..1e3f64, 3..50),
    ) {
        let n = xs.len().min(ys.len());
        let r = pearson(&xs[..n], &ys[..n]);
        if !r.is_nan() {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }
}
