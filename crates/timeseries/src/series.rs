//! Hourly time series over a civil year.
//!
//! The unit of analysis in the paper's operational sections is "hourly data
//! (year 2021)" — a vector of 8760 values indexed by hour-of-year. This
//! module provides that container with the handful of relational operations
//! the analyses need: elementwise maps and zips, hour-of-day slicing in any
//! time zone, rolling means and resampling.

use crate::datetime::{hours_in_year, CivilDate, HourStamp, TimeZone};

/// One value per hour of a civil year.
#[derive(Debug, Clone, PartialEq)]
pub struct HourlySeries {
    year: i32,
    values: Vec<f64>,
}

impl HourlySeries {
    /// Creates a series for `year` from exactly `hours_in_year(year)` values.
    ///
    /// # Panics
    /// If the length does not match the year.
    pub fn new(year: i32, values: Vec<f64>) -> HourlySeries {
        assert_eq!(
            values.len(),
            hours_in_year(year) as usize,
            "series length must match hours in year {year}"
        );
        HourlySeries { year, values }
    }

    /// A series holding the same value at every hour.
    pub fn constant(year: i32, value: f64) -> HourlySeries {
        HourlySeries {
            year,
            values: vec![value; hours_in_year(year) as usize],
        }
    }

    /// Builds a series by evaluating `f` at every hour stamp of the year.
    pub fn from_fn(year: i32, mut f: impl FnMut(HourStamp) -> f64) -> HourlySeries {
        let n = hours_in_year(year);
        let values = (0..n)
            .map(|i| f(HourStamp::from_hour_of_year(year, i)))
            .collect();
        HourlySeries { year, values }
    }

    /// Builds a series by walking the year's UTC hours in order as local
    /// days of zone `tz`: `per_day` runs once per local civil date, then
    /// `per_hour` runs for each of that date's hours in the year with its
    /// value and the local hour (0..=23).
    ///
    /// Equivalent to [`HourlySeries::from_fn`] with every hour converted
    /// through `tz.from_utc`, but the offset is applied once and each
    /// date's derived inputs are computed once. The dates are *local*:
    /// under PST (UTC−8) the first 8 UTC hours of a year fall on the
    /// previous year's December 31, and under JST (UTC+9) the last 9 fall
    /// on the next year's January 1, so both partial days at the ends of
    /// the year reach `per_day` too.
    pub fn from_local_days<D>(
        year: i32,
        tz: TimeZone,
        mut per_day: impl FnMut(CivilDate) -> D,
        mut per_hour: impl FnMut(&D, u8) -> f64,
    ) -> HourlySeries {
        let n = hours_in_year(year) as usize;
        let mut values = Vec::with_capacity(n);
        let first = tz.from_utc(HourStamp::from_hour_of_year(year, 0));
        let (mut date, mut hour) = (first.date(), first.hour());
        while values.len() < n {
            let day = per_day(date);
            let hours = usize::from(24 - hour).min(n - values.len());
            values.extend((hour..24).take(hours).map(|h| per_hour(&day, h)));
            date = date.plus_days(1);
            hour = 0;
        }
        HourlySeries { year, values }
    }

    /// The civil year this series covers.
    pub fn year(&self) -> i32 {
        self.year
    }

    /// Number of hourly samples (8760 or 8784).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty (cannot happen for a valid year; kept for API hygiene).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw values slice.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at hour-of-year `index`.
    pub fn at(&self, index: u32) -> f64 {
        self.values[index as usize]
    }

    /// Value at a UTC hour stamp.
    ///
    /// # Panics
    /// If the stamp is outside this series' year.
    pub fn at_stamp(&self, stamp: HourStamp) -> f64 {
        assert_eq!(
            stamp.date().year(),
            self.year,
            "stamp {stamp} outside series year {}",
            self.year
        );
        self.at(stamp.hour_of_year())
    }

    /// Iterates `(stamp, value)` pairs in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = (HourStamp, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, v)| (HourStamp::from_hour_of_year(self.year, i as u32), *v))
    }

    /// Elementwise transformation.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> HourlySeries {
        HourlySeries {
            year: self.year,
            values: self.values.iter().map(|v| f(*v)).collect(),
        }
    }

    /// Elementwise combination of two series over the same year.
    ///
    /// # Panics
    /// If the years differ.
    pub fn zip_with(&self, other: &HourlySeries, f: impl Fn(f64, f64) -> f64) -> HourlySeries {
        assert_eq!(
            self.year, other.year,
            "cannot zip series of different years"
        );
        HourlySeries {
            year: self.year,
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(a, b)| f(*a, *b))
                .collect(),
        }
    }

    /// Sum over all hours.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean over all hours.
    pub fn mean(&self) -> f64 {
        self.total() / self.values.len() as f64
    }

    /// Minimum value.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum value.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// All values observed at local wall-clock hour `local_hour` when this
    /// (UTC-indexed) series is viewed from time zone `tz`.
    ///
    /// This is the primitive behind Fig. 7: "compare their carbon
    /// intensities during the same hour of the day … convert them to JST".
    /// Hours that fall outside the series' year after conversion are
    /// dropped (a zone shift moves up to `|offset|` hours across the year
    /// boundary).
    pub fn values_at_local_hour(&self, tz: TimeZone, local_hour: u8) -> Vec<(CivilDate, f64)> {
        assert!(local_hour < 24, "hour must be 0..=23");
        self.iter()
            .filter_map(|(utc_stamp, v)| {
                let local = tz.from_utc(utc_stamp);
                (local.hour() == local_hour).then(|| (local.date(), v))
            })
            .collect()
    }

    /// Means grouped by local hour-of-day (24 buckets) in zone `tz`.
    pub fn hourly_profile(&self, tz: TimeZone) -> [f64; 24] {
        let mut sums = [0.0f64; 24];
        let mut counts = [0usize; 24];
        for (utc_stamp, v) in self.iter() {
            let h = tz.from_utc(utc_stamp).hour() as usize;
            sums[h] += v;
            counts[h] += 1;
        }
        let mut out = [0.0f64; 24];
        for h in 0..24 {
            out[h] = if counts[h] > 0 {
                sums[h] / counts[h] as f64
            } else {
                f64::NAN
            };
        }
        out
    }

    /// Daily means: one value per civil day of the year.
    pub fn daily_means(&self) -> Vec<f64> {
        self.values
            .chunks_exact(24)
            .map(|day| day.iter().sum::<f64>() / 24.0)
            .collect()
    }

    /// Centered-window rolling mean with window `w` (clamped at the edges).
    ///
    /// # Panics
    /// If `w` is zero.
    pub fn rolling_mean(&self, w: usize) -> HourlySeries {
        assert!(w > 0, "window must be positive");
        let half = w / 2;
        let n = self.values.len();
        let mut out = Vec::with_capacity(n);
        // Prefix sums for O(n) rolling windows over 8760 points.
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for v in &self.values {
            acc += v;
            prefix.push(acc);
        }
        for i in 0..n {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            out.push((prefix[hi] - prefix[lo]) / (hi - lo) as f64);
        }
        HourlySeries {
            year: self.year,
            values: out,
        }
    }

    /// Scales every value by `k`.
    pub fn scale(&self, k: f64) -> HourlySeries {
        self.map(|v| v * k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_properties() {
        let s = HourlySeries::constant(2021, 5.0);
        assert_eq!(s.len(), 8760);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.total(), 5.0 * 8760.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn leap_year_length() {
        let s = HourlySeries::constant(2020, 1.0);
        assert_eq!(s.len(), 8784);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn rejects_wrong_length() {
        let _ = HourlySeries::new(2021, vec![0.0; 100]);
    }

    #[test]
    fn from_fn_indexing() {
        let s = HourlySeries::from_fn(2021, |st| st.hour_of_year() as f64);
        assert_eq!(s.at(0), 0.0);
        assert_eq!(s.at(8759), 8759.0);
        let stamp = HourStamp::from_hour_of_year(2021, 1234);
        assert_eq!(s.at_stamp(stamp), 1234.0);
    }

    #[test]
    fn from_local_days_visits_each_local_date_once_in_order() {
        let ymd = |y, m, d| CivilDate::new(y, m, d).unwrap();
        let (west, east) = (TimeZone::fixed(-12, "W12"), TimeZone::fixed(14, "E14"));
        for (year, tz, first, last) in [
            (2021, TimeZone::PST, ymd(2020, 12, 31), ymd(2021, 12, 31)),
            (2021, TimeZone::JST, ymd(2021, 1, 1), ymd(2022, 1, 1)),
            (2020, TimeZone::UTC, ymd(2020, 1, 1), ymd(2020, 12, 31)),
            (2020, west, ymd(2019, 12, 31), ymd(2020, 12, 31)),
            (2021, east, ymd(2021, 1, 1), ymd(2022, 1, 1)),
        ] {
            let mut dates = Vec::new();
            let mut hours = Vec::new();
            let s = HourlySeries::from_local_days(
                year,
                tz,
                |date| {
                    dates.push(date);
                    date
                },
                |date, hour| {
                    hours.push((*date, hour));
                    f64::from(hour)
                },
            );
            let n = hours_in_year(year) as usize;
            assert_eq!((s.len(), hours.len()), (n, n), "{tz}");
            assert_eq!((dates[0], dates[dates.len() - 1]), (first, last), "{tz}");
            assert!(
                dates.windows(2).all(|w| w[1] == w[0].plus_days(1)),
                "{tz}: per_day dates are not consecutive"
            );
            // Every hour lands on the local date and hour the per-hour
            // conversion gives it.
            for (i, &(date, hour)) in hours.iter().enumerate() {
                let local = tz.from_utc(HourStamp::from_hour_of_year(year, i as u32));
                assert_eq!((date, hour), (local.date(), local.hour()), "{tz} hour {i}");
                assert_eq!(s.at(i as u32), f64::from(hour));
            }
            // One run of hours per per_day date: full days inside, two
            // partial days at the ends when the zone is offset.
            let mut runs: Vec<(CivilDate, usize)> = Vec::new();
            for &(date, _) in &hours {
                match runs.last_mut() {
                    Some((d, count)) if *d == date => *count += 1,
                    _ => runs.push((date, 1)),
                }
            }
            assert_eq!(runs.iter().map(|r| r.0).collect::<Vec<_>>(), dates, "{tz}");
            assert_eq!(runs.iter().map(|r| r.1).sum::<usize>(), n, "{tz}");
            assert!(runs[1..runs.len() - 1].iter().all(|r| r.1 == 24), "{tz}");
        }
    }

    #[test]
    fn map_and_zip() {
        let a = HourlySeries::constant(2021, 2.0);
        let b = HourlySeries::from_fn(2021, |st| st.hour() as f64);
        let sum = a.zip_with(&b, |x, y| x + y);
        assert_eq!(sum.at(0), 2.0); // hour 0
        assert_eq!(sum.at(13), 15.0); // hour 13
        let doubled = a.map(|x| x * 3.0);
        assert_eq!(doubled.at(100), 6.0);
    }

    #[test]
    fn hourly_profile_utc_identity() {
        // A series equal to its own UTC hour has profile [0,1,...,23].
        let s = HourlySeries::from_fn(2021, |st| st.hour() as f64);
        let prof = s.hourly_profile(TimeZone::UTC);
        for (h, v) in prof.iter().enumerate() {
            assert!((v - h as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn hourly_profile_shifts_with_zone() {
        // Same series viewed from JST: local hour h corresponds to UTC
        // hour (h - 9) mod 24.
        let s = HourlySeries::from_fn(2021, |st| st.hour() as f64);
        let prof = s.hourly_profile(TimeZone::JST);
        for (h, v) in prof.iter().enumerate() {
            let expected = ((h as i32 - 9).rem_euclid(24)) as f64;
            assert!(
                (v - expected).abs() < 1e-9,
                "hour {h}: got {v}, expected {expected}"
            );
        }
    }

    #[test]
    fn values_at_local_hour_counts() {
        let s = HourlySeries::constant(2021, 1.0);
        // In UTC every hour-of-day appears exactly 365 times.
        assert_eq!(s.values_at_local_hour(TimeZone::UTC, 0).len(), 365);
        assert_eq!(s.values_at_local_hour(TimeZone::UTC, 23).len(), 365);
        // Viewed from JST (+9): every local hour still appears 365 times
        // (the series simply shifts; edge hours fall into adjacent years).
        let total: usize = (0..24)
            .map(|h| s.values_at_local_hour(TimeZone::JST, h).len())
            .sum();
        assert_eq!(total, 8760);
    }

    #[test]
    fn daily_means_shape() {
        let s = HourlySeries::from_fn(2021, |st| st.date().day_of_year() as f64);
        let days = s.daily_means();
        assert_eq!(days.len(), 365);
        assert!((days[0] - 1.0).abs() < 1e-12);
        assert!((days[364] - 365.0).abs() < 1e-12);
    }

    #[test]
    fn rolling_mean_smooths() {
        let s = HourlySeries::from_fn(
            2021,
            |st| if st.hour_of_year() % 2 == 0 { 0.0 } else { 2.0 },
        );
        let sm = s.rolling_mean(25);
        // Interior points should be close to the global mean of 1.0.
        assert!((sm.at(5000) - 1.0).abs() < 0.05);
        // Mean is preserved approximately.
        assert!((sm.mean() - s.mean()).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "different years")]
    fn zip_rejects_year_mismatch() {
        let a = HourlySeries::constant(2021, 1.0);
        let b = HourlySeries::constant(2020, 1.0);
        let _ = a.zip_with(&b, |x, _| x);
    }

    #[test]
    fn scale_scales() {
        let s = HourlySeries::constant(2021, 3.0).scale(2.0);
        assert_eq!(s.mean(), 6.0);
    }
}
