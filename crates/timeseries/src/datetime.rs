//! Gregorian civil dates, hour timestamps and fixed-offset time zones.
//!
//! Implements the standard days-from-civil algorithm (Howard Hinnant's
//! `chrono`-compatible formulation) for date arithmetic, plus the small set
//! of operations the carbon analyses need: day-of-year, weekday, hour-of-year
//! indexing into 8760-slot traces, and fixed-offset zone conversion.
//!
//! **Scope note:** zones are *fixed offsets* (no DST tables). The paper's
//! cross-region comparison converts GMT/PST/CST to JST; we document the same
//! simplification — standard offsets year-round — which shifts DST-affected
//! regions by one hour for part of the year without changing any of the
//! paper's qualitative conclusions (Fig. 7's hour-level winner counts are
//! driven by 8–12 h diurnal structure, not 1 h shifts).

use core::fmt;

/// Errors constructing civil dates/times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DateError {
    /// Month outside 1..=12.
    BadMonth,
    /// Day outside the valid range for the month.
    BadDay,
    /// Hour outside 0..=23.
    BadHour,
}

impl fmt::Display for DateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DateError::BadMonth => write!(f, "month must be in 1..=12"),
            DateError::BadDay => write!(f, "day out of range for month"),
            DateError::BadHour => write!(f, "hour must be in 0..=23"),
        }
    }
}

impl std::error::Error for DateError {}

/// True when `year` is a Gregorian leap year.
pub const fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in the given month of the given year.
pub const fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Number of days in a year (365 or 366).
pub const fn days_in_year(year: i32) -> u32 {
    if is_leap_year(year) {
        366
    } else {
        365
    }
}

/// Number of hours in a year (8760 or 8784).
pub const fn hours_in_year(year: i32) -> u32 {
    days_in_year(year) * 24
}

/// Day of week, ISO numbering semantics but as an enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Weekday {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl Weekday {
    /// True for Saturday/Sunday. Grid demand is measurably lower on
    /// weekends, which the grid simulator models.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }

    /// From days since 1970-01-01 (a Thursday).
    fn from_days_since_epoch(days: i64) -> Weekday {
        // 1970-01-01 = Thursday = index 3 with Monday = 0.
        let idx = (days + 3).rem_euclid(7);
        match idx {
            0 => Weekday::Monday,
            1 => Weekday::Tuesday,
            2 => Weekday::Wednesday,
            3 => Weekday::Thursday,
            4 => Weekday::Friday,
            5 => Weekday::Saturday,
            _ => Weekday::Sunday,
        }
    }
}

/// A Gregorian calendar date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CivilDate {
    year: i32,
    month: u8,
    day: u8,
}

impl CivilDate {
    /// Creates a date, validating month and day.
    pub fn new(year: i32, month: u8, day: u8) -> Result<CivilDate, DateError> {
        if !(1..=12).contains(&month) {
            return Err(DateError::BadMonth);
        }
        if day == 0 || day > days_in_month(year, month) {
            return Err(DateError::BadDay);
        }
        Ok(CivilDate { year, month, day })
    }

    /// Year component.
    pub fn year(self) -> i32 {
        self.year
    }

    /// Days since 1970-01-01 (may be negative). Hinnant's days_from_civil.
    pub fn days_since_epoch(self) -> i64 {
        let y = i64::from(self.year) - i64::from(self.month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = i64::from(self.month);
        let d = i64::from(self.day);
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146097 + doe - 719468
    }

    /// Inverse of [`CivilDate::days_since_epoch`] (civil_from_days).
    pub fn from_days_since_epoch(days: i64) -> CivilDate {
        let z = days + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
        CivilDate {
            year: (y + i64::from(m <= 2)) as i32,
            month: m as u8,
            day: d as u8,
        }
    }

    /// 1-based ordinal day within the year (1 = Jan 1).
    pub fn day_of_year(self) -> u32 {
        let jan1 = CivilDate {
            year: self.year,
            month: 1,
            day: 1,
        };
        (self.days_since_epoch() - jan1.days_since_epoch() + 1) as u32
    }

    /// The date `n` days later (or earlier for negative `n`).
    pub fn plus_days(self, n: i64) -> CivilDate {
        CivilDate::from_days_since_epoch(self.days_since_epoch() + n)
    }

    /// Day of week.
    pub fn weekday(self) -> Weekday {
        Weekday::from_days_since_epoch(self.days_since_epoch())
    }
}

impl fmt::Display for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// An hour-resolution timestamp in UTC: a civil date plus an hour 0..=23.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HourStamp {
    date: CivilDate,
    hour: u8,
}

impl HourStamp {
    /// Creates a timestamp, validating the hour.
    pub fn new(date: CivilDate, hour: u8) -> Result<HourStamp, DateError> {
        if hour > 23 {
            return Err(DateError::BadHour);
        }
        Ok(HourStamp { date, hour })
    }

    /// The civil date.
    pub fn date(self) -> CivilDate {
        self.date
    }

    /// The hour of day (0..=23).
    pub fn hour(self) -> u8 {
        self.hour
    }

    /// Hours since 1970-01-01T00:00 UTC.
    pub fn hours_since_epoch(self) -> i64 {
        self.date.days_since_epoch() * 24 + i64::from(self.hour)
    }

    /// Inverse of [`HourStamp::hours_since_epoch`].
    pub fn from_hours_since_epoch(hours: i64) -> HourStamp {
        let days = hours.div_euclid(24);
        let hour = hours.rem_euclid(24) as u8;
        HourStamp {
            date: CivilDate::from_days_since_epoch(days),
            hour,
        }
    }

    /// 0-based index of this hour within its own year (0..8760/8784).
    pub fn hour_of_year(self) -> u32 {
        (self.date.day_of_year() - 1) * 24 + u32::from(self.hour)
    }

    /// Builds the stamp for hour-of-year `index` within `year`.
    ///
    /// # Panics
    /// If `index >= hours_in_year(year)`.
    pub fn from_hour_of_year(year: i32, index: u32) -> HourStamp {
        assert!(
            index < hours_in_year(year),
            "hour index {index} out of range for year {year}"
        );
        let jan1 = CivilDate {
            year,
            month: 1,
            day: 1,
        };
        HourStamp {
            date: jan1.plus_days(i64::from(index / 24)),
            hour: (index % 24) as u8,
        }
    }

    /// The timestamp `n` hours later (or earlier for negative `n`).
    pub fn plus_hours(self, n: i64) -> HourStamp {
        HourStamp::from_hours_since_epoch(self.hours_since_epoch() + n)
    }
}

impl fmt::Display for HourStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}T{:02}:00", self.date, self.hour)
    }
}

/// A fixed-offset time zone.
///
/// The paper's operators span GMT (ESO), PST (CISO), CST (ERCOT/MISO),
/// EST (PJM) and JST (Kansai/Tokyo); Fig. 7 aligns all regions on JST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeZone {
    offset_hours: i8,
    name: &'static str,
}

impl TimeZone {
    /// Coordinated Universal Time.
    pub const UTC: TimeZone = TimeZone {
        offset_hours: 0,
        name: "UTC",
    };
    /// Greenwich Mean Time (UK standard time).
    pub const GMT: TimeZone = TimeZone {
        offset_hours: 0,
        name: "GMT",
    };
    /// Japan Standard Time (UTC+9), the reference frame of Fig. 7.
    pub const JST: TimeZone = TimeZone {
        offset_hours: 9,
        name: "JST",
    };
    /// US Pacific Standard Time (UTC-8) — CISO.
    pub const PST: TimeZone = TimeZone {
        offset_hours: -8,
        name: "PST",
    };
    /// US Central Standard Time (UTC-6) — ERCOT, MISO.
    pub const CST: TimeZone = TimeZone {
        offset_hours: -6,
        name: "CST",
    };
    /// US Eastern Standard Time (UTC-5) — PJM.
    pub const EST: TimeZone = TimeZone {
        offset_hours: -5,
        name: "EST",
    };

    /// Creates a custom fixed offset.
    ///
    /// # Panics
    /// If `offset_hours` is outside `-12..=14`.
    pub const fn fixed(offset_hours: i8, name: &'static str) -> TimeZone {
        assert!(offset_hours >= -12 && offset_hours <= 14);
        TimeZone { offset_hours, name }
    }

    /// The UTC offset in hours.
    pub const fn offset_hours(self) -> i8 {
        self.offset_hours
    }

    /// Converts a UTC timestamp into this zone's local wall-clock stamp.
    pub fn from_utc(self, utc: HourStamp) -> HourStamp {
        utc.plus_hours(i64::from(self.offset_hours))
    }

    /// Converts a local wall-clock stamp in this zone to UTC.
    pub fn to_utc(self, local: HourStamp) -> HourStamp {
        local.plus_hours(-i64::from(self.offset_hours))
    }
}

impl fmt::Display for TimeZone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset_hours == 0 {
            write!(f, "{} (UTC+0)", self.name)
        } else {
            write!(f, "{} (UTC{:+})", self.name, self.offset_hours)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2020));
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(2021));
        assert!(is_leap_year(2024));
    }

    #[test]
    fn year_lengths() {
        assert_eq!(days_in_year(2021), 365);
        assert_eq!(hours_in_year(2021), 8760);
        assert_eq!(days_in_year(2020), 366);
        assert_eq!(hours_in_year(2020), 8784);
    }

    #[test]
    fn month_lengths() {
        assert_eq!(days_in_month(2021, 2), 28);
        assert_eq!(days_in_month(2020, 2), 29);
        assert_eq!(days_in_month(2021, 4), 30);
        assert_eq!(days_in_month(2021, 12), 31);
    }

    #[test]
    fn date_validation() {
        assert!(CivilDate::new(2021, 2, 29).is_err());
        assert!(CivilDate::new(2020, 2, 29).is_ok());
        assert!(CivilDate::new(2021, 13, 1).is_err());
        assert!(CivilDate::new(2021, 0, 1).is_err());
        assert!(CivilDate::new(2021, 6, 0).is_err());
        assert!(CivilDate::new(2021, 6, 31).is_err());
    }

    #[test]
    fn epoch_roundtrip_across_years() {
        // Every day of 2020-2022 round-trips through days_since_epoch.
        let mut d = CivilDate::new(2020, 1, 1).unwrap();
        for _ in 0..(366 + 365 + 365) {
            let days = d.days_since_epoch();
            assert_eq!(CivilDate::from_days_since_epoch(days), d);
            d = d.plus_days(1);
        }
        assert_eq!(d, CivilDate::new(2023, 1, 1).unwrap());
    }

    #[test]
    fn known_epoch_values() {
        assert_eq!(CivilDate::new(1970, 1, 1).unwrap().days_since_epoch(), 0);
        assert_eq!(CivilDate::new(1970, 1, 2).unwrap().days_since_epoch(), 1);
        assert_eq!(CivilDate::new(1969, 12, 31).unwrap().days_since_epoch(), -1);
        // 2021-01-01 is 18628 days after the epoch.
        assert_eq!(
            CivilDate::new(2021, 1, 1).unwrap().days_since_epoch(),
            18628
        );
    }

    #[test]
    fn weekdays() {
        // Known anchors: 1970-01-01 Thursday, 2021-01-01 Friday,
        // 2021-12-25 Saturday.
        assert_eq!(
            CivilDate::new(1970, 1, 1).unwrap().weekday(),
            Weekday::Thursday
        );
        assert_eq!(
            CivilDate::new(2021, 1, 1).unwrap().weekday(),
            Weekday::Friday
        );
        assert_eq!(
            CivilDate::new(2021, 12, 25).unwrap().weekday(),
            Weekday::Saturday
        );
        assert!(CivilDate::new(2021, 12, 25).unwrap().weekday().is_weekend());
        assert!(!CivilDate::new(2021, 12, 27).unwrap().weekday().is_weekend());
    }

    #[test]
    fn day_of_year_values() {
        assert_eq!(CivilDate::new(2021, 1, 1).unwrap().day_of_year(), 1);
        assert_eq!(CivilDate::new(2021, 12, 31).unwrap().day_of_year(), 365);
        assert_eq!(CivilDate::new(2020, 12, 31).unwrap().day_of_year(), 366);
        assert_eq!(CivilDate::new(2021, 3, 1).unwrap().day_of_year(), 60);
        assert_eq!(CivilDate::new(2020, 3, 1).unwrap().day_of_year(), 61);
    }

    #[test]
    fn hour_of_year_indexing() {
        let jan1 = CivilDate::new(2021, 1, 1).unwrap();
        let h0 = HourStamp::new(jan1, 0).unwrap();
        assert_eq!(h0.hour_of_year(), 0);
        let dec31 = CivilDate::new(2021, 12, 31).unwrap();
        let last = HourStamp::new(dec31, 23).unwrap();
        assert_eq!(last.hour_of_year(), 8759);
        // Round trip for a sample of indices.
        for idx in [0u32, 1, 23, 24, 4000, 8759] {
            let s = HourStamp::from_hour_of_year(2021, idx);
            assert_eq!(s.hour_of_year(), idx);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hour_of_year_bounds() {
        let _ = HourStamp::from_hour_of_year(2021, 8760);
    }

    #[test]
    fn hour_arithmetic_crosses_midnight_and_year() {
        let d = CivilDate::new(2021, 12, 31).unwrap();
        let h = HourStamp::new(d, 23).unwrap();
        let next = h.plus_hours(1);
        assert_eq!(next.date(), CivilDate::new(2022, 1, 1).unwrap());
        assert_eq!(next.hour(), 0);
        let prev = h.plus_hours(-24);
        assert_eq!(prev.date(), CivilDate::new(2021, 12, 30).unwrap());
        assert_eq!(prev.hour(), 23);
    }

    #[test]
    fn timezone_conversions() {
        // Midnight UTC on Jan 1 is 09:00 JST the same day.
        let utc0 = HourStamp::new(CivilDate::new(2021, 1, 1).unwrap(), 0).unwrap();
        let jst = TimeZone::JST.from_utc(utc0);
        assert_eq!(jst.hour(), 9);
        assert_eq!(jst.date(), CivilDate::new(2021, 1, 1).unwrap());

        // Midnight UTC is 16:00 PST the *previous* day.
        let pst = TimeZone::PST.from_utc(utc0);
        assert_eq!(pst.hour(), 16);
        assert_eq!(pst.date(), CivilDate::new(2020, 12, 31).unwrap());

        // Round trip through any zone is the identity.
        for tz in [
            TimeZone::UTC,
            TimeZone::JST,
            TimeZone::PST,
            TimeZone::CST,
            TimeZone::EST,
            TimeZone::GMT,
        ] {
            assert_eq!(tz.to_utc(tz.from_utc(utc0)), utc0);
        }
    }

    #[test]
    fn display_formats() {
        let d = CivilDate::new(2021, 3, 7).unwrap();
        assert_eq!(format!("{d}"), "2021-03-07");
        let h = HourStamp::new(d, 5).unwrap();
        assert_eq!(format!("{h}"), "2021-03-07T05:00");
        assert_eq!(format!("{}", TimeZone::JST), "JST (UTC+9)");
        assert_eq!(format!("{}", TimeZone::UTC), "UTC (UTC+0)");
    }
}
