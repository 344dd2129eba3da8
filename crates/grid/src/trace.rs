//! A year of hourly carbon intensity bound to an operator.

use crate::regions::OperatorId;
use hpcarbon_timeseries::series::HourlySeries;
use hpcarbon_timeseries::stats::{cov_percent, BoxplotStats};
use hpcarbon_timeseries::window::WindowIndex;
use hpcarbon_units::CarbonIntensity;

/// An hourly carbon-intensity trace for one region-year. Values are stored
/// in gCO₂/kWh and indexed by UTC hour-of-year.
///
/// Every trace carries a [`WindowIndex`] built at construction, so window
/// averages and greenest-start queries — the primitives of carbon-aware
/// shifting — are `O(1)`/`O(slack)` instead of rescans of the raw series.
#[derive(Debug, Clone)]
pub struct IntensityTrace {
    operator: OperatorId,
    series: HourlySeries,
    index: WindowIndex,
}

impl IntensityTrace {
    /// Binds a series (gCO₂/kWh) to an operator and indexes it.
    pub fn new(operator: OperatorId, series: HourlySeries) -> IntensityTrace {
        let index = WindowIndex::of_series(&series);
        IntensityTrace {
            operator,
            series,
            index,
        }
    }

    /// The operator this trace belongs to.
    pub fn operator(&self) -> OperatorId {
        self.operator
    }

    /// The underlying hourly series (gCO₂/kWh).
    pub fn series(&self) -> &HourlySeries {
        &self.series
    }

    /// Intensity at a UTC hour-of-year index.
    pub fn at_index(&self, index: u32) -> CarbonIntensity {
        CarbonIntensity::from_g_per_kwh(self.series.at(index))
    }

    /// Annual mean intensity.
    pub fn mean(&self) -> CarbonIntensity {
        CarbonIntensity::from_g_per_kwh(self.series.mean())
    }

    /// Fig. 6(a)'s box-plot summary of the annual distribution.
    pub fn boxplot(&self) -> BoxplotStats {
        // lint: allow(panic-in-library) -- IntensityTrace construction rejects empty series, so compute always has samples
        BoxplotStats::compute(self.series.values()).expect("trace is non-empty")
    }

    /// Fig. 6(b)'s coefficient of variation (%).
    pub fn cov_percent(&self) -> f64 {
        cov_percent(self.series.values())
    }

    /// The prefix-sum window index over this trace.
    pub fn window_index(&self) -> &WindowIndex {
        &self.index
    }

    /// Mean intensity over the wrapped window `[start, start+w)` hours of
    /// the year; `O(1)` from the index.
    pub fn mean_over(&self, start: u32, w: u32) -> CarbonIntensity {
        CarbonIntensity::from_g_per_kwh(self.index.window_mean(start, w))
    }

    /// The shift `d ∈ [0, slack]` minimizing the mean intensity of the
    /// wrapped `w`-hour window starting `d` hours after `start` — the
    /// indexed primitive behind the temporal-shift policies. `start` may
    /// run past the year (it wraps); ties break toward the smallest
    /// shift, i.e. the lowest start hour.
    pub fn greenest_shift(&self, start: u32, slack: u32, w: u32) -> u32 {
        self.index.greenest_shift(start, slack, w)
    }

    /// The `n` consecutive-hour window starting within the next `horizon`
    /// hours (from `start`) with the lowest mean intensity, never wrapping
    /// past year end. Returns the starting hour-of-year index; ties break
    /// toward the lowest start. This is the primitive a
    /// carbon-intensity-aware scheduler uses to defer jobs.
    pub fn greenest_window(&self, start: u32, horizon: u32, n: u32) -> u32 {
        self.index.argmin_window_clamped(start, horizon, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_trace() -> IntensityTrace {
        // Intensity equal to hour-of-day: low at night, high in the evening.
        let series = HourlySeries::from_fn(2021, |st| f64::from(st.hour()) * 10.0 + 100.0);
        IntensityTrace::new(OperatorId::Eso, series)
    }

    #[test]
    fn accessors() {
        let t = ramp_trace();
        assert_eq!(t.operator(), OperatorId::Eso);
        assert_eq!(t.at_index(0).as_g_per_kwh(), 100.0);
        assert_eq!(t.at_index(7).as_g_per_kwh(), 170.0);
    }

    #[test]
    fn boxplot_and_cov() {
        let t = ramp_trace();
        let b = t.boxplot();
        assert_eq!(b.min, 100.0);
        assert_eq!(b.max, 330.0);
        assert!((b.median - 215.0).abs() < 1e-9);
        assert!(t.cov_percent() > 0.0);
        assert!((t.mean().as_g_per_kwh() - 215.0).abs() < 1e-9);
    }

    #[test]
    fn greenest_window_finds_the_night() {
        let t = ramp_trace();
        // Starting at hour 12 (noon of Jan 1), looking 24h ahead for a 3h
        // window: the best start is midnight (hour 24 of the year).
        let best = t.greenest_window(12, 24, 3);
        assert_eq!(best, 24);
        // With zero horizon, the window must start immediately.
        assert_eq!(t.greenest_window(12, 0, 3), 12);
    }

    #[test]
    fn greenest_window_clamps_at_year_end() {
        let t = ramp_trace();
        let best = t.greenest_window(8756, 100, 4);
        assert!(best + 4 <= 8760);
    }

    #[test]
    #[should_panic(expected = "start out of range")]
    fn greenest_window_rejects_bad_start() {
        let _ = ramp_trace().greenest_window(9000, 10, 2);
    }

    #[test]
    fn indexed_queries_match_direct_scans() {
        let t = ramp_trace();
        // mean_over wraps: window [8758, 8762) covers hours 22, 23, 0, 1.
        let wrapped = t.mean_over(8758, 4).as_g_per_kwh();
        assert!((wrapped - (320.0 + 330.0 + 100.0 + 110.0) / 4.0).abs() < 1e-9);
        // greenest_shift from noon of day 1 with a day of slack lands on
        // the next midnight (shift 12).
        assert_eq!(t.greenest_shift(12, 24, 3), 12);
        // Zero slack pins the window at the start hour.
        assert_eq!(t.greenest_shift(12, 0, 3), 0);
        // Starts past the year wrap instead of panicking.
        assert_eq!(t.greenest_shift(8760 + 12, 24, 3), 12);
    }
}
