//! Seasonal PUE modeling.
//!
//! The paper fixes PUE to a constant but flags it: "the PUE metric, while
//! challenging to estimate with seasonal variation, can be approximated
//! well with IT and cooling energy monitors". Cooling load tracks outdoor
//! temperature, so facility PUE peaks in summer and bottoms out in winter
//! (free cooling). This module provides that first-order model and an
//! hourly-priced accounting variant that uses it.

use hpcarbon_core::operational::Pue;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_timeseries::datetime::{days_in_year, HourStamp};
use hpcarbon_units::{CarbonMass, Energy, TimeSpan};

/// A PUE that varies sinusoidally over the year around its mean, peaking
/// in mid-summer (chiller load) and bottoming in mid-winter (free
/// cooling).
#[derive(Debug, Clone, Copy)]
pub struct SeasonalPue {
    mean: f64,
    amplitude: f64,
}

impl SeasonalPue {
    /// Creates the model. `mean - amplitude` must still be a valid PUE
    /// (≥ 1.0).
    ///
    /// # Panics
    /// If the winter minimum would drop below 1.0 or amplitude is
    /// negative.
    pub fn new(mean: f64, amplitude: f64) -> SeasonalPue {
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        assert!(
            mean - amplitude >= 1.0,
            "winter PUE would fall below 1.0 (mean {mean}, amp {amplitude})"
        );
        SeasonalPue { mean, amplitude }
    }

    /// A typical efficient facility: 1.2 mean, ±0.1 seasonal swing.
    pub fn typical() -> SeasonalPue {
        SeasonalPue::new(1.2, 0.1)
    }

    /// The annual mean.
    pub fn mean(&self) -> Pue {
        Pue::new(self.mean)
    }

    /// PUE on a given day of the year (1-based) in a year of `days`.
    pub fn at_day(&self, day_of_year: u32, days: u32) -> Pue {
        let phase = std::f64::consts::TAU * (f64::from(day_of_year) - 200.0) / f64::from(days);
        Pue::new(self.mean + self.amplitude * phase.cos())
    }

    /// PUE at an hour stamp.
    pub fn at(&self, stamp: HourStamp) -> Pue {
        let year = stamp.date().year();
        self.at_day(stamp.date().day_of_year(), days_in_year(year))
    }
}

/// Accounts a run's carbon against an hourly intensity trace *and* an
/// hourly (seasonal) PUE — the fully time-resolved Eq. 6.
///
/// The run starts at hour-of-year `start_hour`, taken modulo the trace
/// length, and wraps from the trace's last hour to its first. Each hour
/// is charged `rate × dt × PUE × intensity`, where `dt` is 1 for every
/// hour but a fractional last one.
///
/// PUE only changes once a day, so it is evaluated once per day of the
/// trace's year and the hourly loop is plain arithmetic. Hour-of-year
/// `i` lies on day `i / 24 + 1`, the day [`SeasonalPue::at`] reads off
/// the hour's civil date, and the hours are summed in order, so the
/// result is bit-identical to pricing each hour through
/// [`SeasonalPue::at`].
///
/// # Panics
/// - If `duration` is zero, negative or NaN: there is no run to account.
/// - If `duration` is infinite: the hourly walk would never end.
pub fn account_with_seasonal_pue(
    trace: &IntensityTrace,
    pue: &SeasonalPue,
    start_hour: u32,
    it_energy: Energy,
    duration: TimeSpan,
) -> CarbonMass {
    let hours = duration.as_hours();
    assert!(
        hours > 0.0 && hours.is_finite(),
        "duration must be finite and positive, got {hours} h"
    );
    let rate_kwh_per_h = it_energy.as_kwh() / hours;
    let values = trace.series().values();
    let days = days_in_year(trace.series().year());
    let day_pue: Vec<f64> = (1..=days).map(|d| pue.at_day(d, days).value()).collect();
    let mut idx = start_hour as usize % values.len();
    let mut grams = 0.0;
    let mut charge = |dt: f64| {
        grams += rate_kwh_per_h * dt * day_pue[idx / 24] * values[idx];
        idx += 1;
        if idx == values.len() {
            idx = 0;
        }
    };
    // Hours start at offsets 0, 1, 2, … from the run start, so each one
    // lasts exactly 1 h except a fractional last hour of `hours - whole`.
    let whole = hours.floor();
    for _ in 0..whole as u64 {
        charge(1.0);
    }
    if hours > whole {
        charge(hours - whole);
    }
    CarbonMass::from_g(grams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcarbon_grid::regions::OperatorId;
    use hpcarbon_timeseries::datetime::hours_in_year;
    use hpcarbon_timeseries::series::HourlySeries;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The per-hour loop [`account_with_seasonal_pue`] replaced: a civil
    /// date, a day-of-year and a cosine for every hour. Kept as the
    /// reference its results must equal bit for bit.
    fn account_per_hour(
        trace: &IntensityTrace,
        pue: &SeasonalPue,
        start_hour: u32,
        it_energy: Energy,
        duration: TimeSpan,
    ) -> CarbonMass {
        assert!(duration.as_hours() > 0.0, "duration must be positive");
        let rate_kwh_per_h = it_energy.as_kwh() / duration.as_hours();
        let len = trace.series().len() as u32;
        let year = trace.series().year();
        let hours = duration.as_hours();
        let mut grams = 0.0;
        let mut t = 0.0;
        while t < hours {
            let dt = (t.floor() + 1.0).min(hours) - t;
            let idx = (start_hour + t.floor() as u32) % len;
            let stamp = HourStamp::from_hour_of_year(year, idx);
            let pue_now = pue.at(stamp).value();
            grams += rate_kwh_per_h * dt * pue_now * trace.at_index(idx).as_g_per_kwh();
            t += dt;
        }
        CarbonMass::from_g(grams)
    }

    /// A trace of `year` whose hours all differ, so reading a wrong hour
    /// changes the sum.
    fn varied_trace(year: i32, seed: u64) -> IntensityTrace {
        let mut rng = TestRng::from_seed(seed);
        let values = (0..hours_in_year(year))
            .map(|_| 20.0 + 800.0 * rng.unit_f64())
            .collect();
        IntensityTrace::new(OperatorId::Eso, HourlySeries::new(year, values))
    }

    proptest! {
        #[test]
        fn per_day_pricing_is_bit_identical_to_the_per_hour_loop(
            year in prop_oneof![Just(2021), Just(2020)],
            seed in 0u64..u64::MAX,
            start_hour in 0u32..3 * 8784,
            hours in prop_oneof![
                0.01..1.0f64,
                1.0..100.0f64,
                (1u32..72).prop_map(f64::from),
                Just(8760.0),
                8761.0..30_000.0f64,
            ],
            amplitude in prop_oneof![Just(0.0), 0.001..0.3f64],
            mean_above_floor in 0.0..0.5f64,
            kwh in 0.001..1e6f64,
        ) {
            let trace = varied_trace(year, seed);
            let pue = SeasonalPue::new(1.0 + amplitude + mean_above_floor, amplitude);
            let (energy, duration) = (Energy::from_kwh(kwh), TimeSpan::from_hours(hours));
            let fast = account_with_seasonal_pue(&trace, &pue, start_hour, energy, duration);
            let reference = account_per_hour(&trace, &pue, start_hour, energy, duration);
            prop_assert_eq!(fast.as_g().to_bits(), reference.as_g().to_bits());
        }
    }

    #[test]
    fn start_hours_near_u32_max_wrap_on_the_trace() {
        // u32::MAX = 490_293 × 8760 + 615, so a 2 h run reads hours 615
        // and 616 — not hour 0, where `u32::MAX + 1` would wrap to.
        let trace = varied_trace(2021, 7);
        let p = SeasonalPue::typical();
        let two_hours = |start| {
            account_with_seasonal_pue(
                &trace,
                &p,
                start,
                Energy::from_kwh(2.0),
                TimeSpan::from_hours(2.0),
            )
        };
        assert_eq!(
            two_hours(u32::MAX).as_g().to_bits(),
            two_hours(615).as_g().to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_an_infinite_duration() {
        let trace = IntensityTrace::new(OperatorId::Eso, HourlySeries::constant(2021, 250.0));
        let _ = account_with_seasonal_pue(
            &trace,
            &SeasonalPue::typical(),
            0,
            Energy::from_kwh(1.0),
            TimeSpan::from_hours(f64::INFINITY),
        );
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_a_zero_duration() {
        let trace = IntensityTrace::new(OperatorId::Eso, HourlySeries::constant(2021, 250.0));
        let _ = account_with_seasonal_pue(
            &trace,
            &SeasonalPue::typical(),
            0,
            Energy::from_kwh(1.0),
            TimeSpan::from_hours(0.0),
        );
    }

    #[test]
    fn summer_exceeds_winter() {
        let p = SeasonalPue::typical();
        let summer = p.at_day(200, 365).value();
        let winter = p.at_day(17, 365).value();
        assert!(summer > 1.28 && summer <= 1.3001, "{summer}");
        assert!((1.0999..1.12).contains(&winter), "{winter}");
        assert!((p.mean().value() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn annual_average_is_the_mean() {
        let p = SeasonalPue::new(1.25, 0.08);
        let avg: f64 = (1..=365).map(|d| p.at_day(d, 365).value()).sum::<f64>() / 365.0;
        assert!((avg - 1.25).abs() < 1e-3, "{avg}");
    }

    #[test]
    #[should_panic(expected = "below 1.0")]
    fn rejects_sub_unity_winter() {
        let _ = SeasonalPue::new(1.05, 0.2);
    }

    #[test]
    fn zero_amplitude_matches_constant_pue() {
        let trace = IntensityTrace::new(OperatorId::Eso, HourlySeries::constant(2021, 250.0));
        let p = SeasonalPue::new(1.2, 0.0);
        let c = account_with_seasonal_pue(
            &trace,
            &p,
            1000,
            Energy::from_kwh(10.0),
            TimeSpan::from_hours(5.0),
        );
        // 10 kWh x 1.2 x 250 g = 3000 g.
        assert!((c.as_g() - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn summer_runs_cost_more_than_winter_runs() {
        let trace = IntensityTrace::new(OperatorId::Eso, HourlySeries::constant(2021, 300.0));
        let p = SeasonalPue::typical();
        let winter = account_with_seasonal_pue(
            &trace,
            &p,
            24 * 16, // mid-January
            Energy::from_kwh(100.0),
            TimeSpan::from_hours(48.0),
        );
        let summer = account_with_seasonal_pue(
            &trace,
            &p,
            24 * 199, // mid-July
            Energy::from_kwh(100.0),
            TimeSpan::from_hours(48.0),
        );
        assert!(
            summer.as_g() > winter.as_g() * 1.1,
            "summer {} vs winter {}",
            summer,
            winter
        );
    }

    #[test]
    fn fractional_duration_accounting() {
        let trace = IntensityTrace::new(OperatorId::Eso, HourlySeries::constant(2021, 100.0));
        let p = SeasonalPue::new(1.0, 0.0);
        let c = account_with_seasonal_pue(
            &trace,
            &p,
            0,
            Energy::from_kwh(3.0),
            TimeSpan::from_hours(1.5),
        );
        assert!((c.as_g() - 300.0).abs() < 1e-9);
    }
}
