//! # hpcarbon-timeseries
//!
//! Civil datetime arithmetic and hourly time-series statistics, implemented
//! from scratch (the offline dependency set excludes `chrono`; the
//! reproduction bands also flagged the "dataframe ecosystem" as the awkward
//! part of a Rust port — this crate is the replacement).
//!
//! Four building blocks:
//!
//! - [`datetime`]: Gregorian civil dates, hour-resolution timestamps and
//!   fixed-offset time zones. The paper's Fig. 7 compares regions "during
//!   the same hour of the day … converted to JST (UTC+9)", which requires
//!   exactly this machinery.
//! - [`series`]: [`series::HourlySeries`] — one value per hour of a civil
//!   year (8760 points for 2021), the shape of every grid-intensity trace,
//!   and its local-day walker
//!   [`from_local_days`](series::HourlySeries::from_local_days), which the
//!   grid's dispatch simulator builds its years on.
//! - [`stats`]: summary statistics used by the paper's analyses: quantiles,
//!   five-number (box-plot) summaries for Fig. 6(a), coefficient of
//!   variation for Fig. 6(b), and group-by-hour aggregation for Fig. 7.
//! - [`window`]: [`window::WindowIndex`] — prefix-sum indexing of
//!   sliding-window averages and argmins, the `O(1)`/`O(slack)`
//!   primitive behind carbon-aware temporal shifting.
//!
//! # Example
//!
//! ```
//! use hpcarbon_timeseries::datetime::{CivilDate, TimeZone};
//! use hpcarbon_timeseries::series::HourlySeries;
//!
//! // 2021 is not a leap year: 8760 hourly slots.
//! let series = HourlySeries::new(2021, vec![100.0; 8760]);
//! assert_eq!(series.len(), 8760);
//!
//! // Timezone conversion: midnight UTC is 09:00 JST the same day.
//! let jst = TimeZone::JST;
//! assert_eq!(jst.offset_hours(), 9);
//! assert_eq!(CivilDate::new(2021, 1, 1).unwrap().day_of_year(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datetime;
pub mod series;
pub mod stats;
pub mod window;
