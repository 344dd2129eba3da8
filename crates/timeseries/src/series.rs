//! Hourly time series over a civil year.
//!
//! The unit of analysis in the paper's operational sections is "hourly data
//! (year 2021)" — a vector of 8760 values indexed by hour-of-year. This
//! module provides that container with the few operations the analyses
//! need: construction hour by hour or local day by local day, lookup by
//! hour, totals and means.

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

    /// Iterates `(stamp, value)` pairs in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = (HourStamp, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, v)| (HourStamp::from_hour_of_year(self.year, i as u32), *v))
    }

    /// Sum over all hours.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean over all hours.
    pub fn mean(&self) -> f64 {
        self.total() / self.values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_properties() {
        let s = HourlySeries::new(2021, vec![5.0; 8760]);
        assert_eq!(s.len(), 8760);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.total(), 5.0 * 8760.0);
    }

    #[test]
    fn leap_year_length() {
        let s = HourlySeries::from_fn(2020, |_| 1.0);
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
        assert_eq!(s.at(1234), 1234.0);
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
}
