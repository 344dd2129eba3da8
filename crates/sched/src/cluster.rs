//! A GPU partition in one grid region.

use crate::job::Job;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_units::{CarbonMass, Energy, Power, TimeSpan};
use std::sync::Arc;

/// The cluster `job` actually runs on when `preferred` is requested:
/// `preferred` if it fits, else the first cluster that does, else
/// `preferred` again (callers guard the no-fit case up front).
///
/// This is THE placement-fallback rule. The simulator's arrival event,
/// the shifting policies and the savings baseline all call it, so the
/// deferral trace, the counterfactual and the actual run can never
/// drift onto different clusters when the rule changes.
pub fn fitting_cluster(preferred: usize, job: &Job, clusters: &[Cluster]) -> usize {
    if clusters[preferred].capacity_gpus >= job.gpus {
        preferred
    } else {
        clusters
            .iter()
            .position(|c| c.capacity_gpus >= job.gpus)
            .unwrap_or(preferred)
    }
}

/// The trace slot hour `t` falls in, wrapping at year end: exactly
/// `(t.floor() as u64 % u64::from(len)) as u32`.
///
/// This is THE slot rule: carbon accounting, the window lookups and
/// every placement scan index a trace through it. A float-to-integer
/// `as` cast truncates, sends negatives and NaN to 0 and saturates, so
/// `t as u64` already equals `t.floor() as u64` for every `f64`, and
/// only an hour past the year pays for the division.
#[inline]
pub(crate) fn slot(t: f64, len: u32) -> u32 {
    let hour = t as u64;
    let len = u64::from(len);
    if hour < len {
        hour as u32
    } else {
        (hour % len) as u32
    }
}

/// Window width, in whole trace hours, of a `duration_hours` run: at
/// least one hour and at most the whole trace of `len` hours.
#[inline]
pub(crate) fn window_width(duration_hours: f64, len: u32) -> u32 {
    (duration_hours.ceil().max(1.0) as u32).min(len)
}

/// A homogeneous GPU partition whose electricity comes from one regional
/// grid (its [`IntensityTrace`]).
///
/// The trace is held behind an [`Arc`] so that cloning a cluster — or a
/// whole cluster topology, as the shift-savings baseline does — shares
/// the indexed year trace instead of copying its megabyte of prefix
/// sums. Streaming sweeps clone thousands of topologies per second off
/// one precomputed trace set, so this sharing is load-bearing.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Site name.
    pub name: String,
    /// The regional hourly intensity trace (shared, immutable). This is
    /// what jobs *pay*: carbon accounting always integrates this series.
    pub trace: Arc<IntensityTrace>,
    /// The planning trace policies argmin over, when scheduling under a
    /// forecast instead of perfect knowledge. `None` (the default) plans
    /// on [`Cluster::trace`] itself — the oracle.
    pub forecast: Option<Arc<IntensityTrace>>,
    /// Total schedulable GPUs.
    pub capacity_gpus: u32,
    /// Facility PUE.
    pub pue: f64,
}

impl Cluster {
    /// Creates a cluster with the default facility PUE (1.2). Accepts an
    /// owned [`IntensityTrace`] or an `Arc` to one already shared.
    pub fn new(
        name: impl Into<String>,
        trace: impl Into<Arc<IntensityTrace>>,
        capacity_gpus: u32,
    ) -> Cluster {
        assert!(capacity_gpus > 0, "cluster needs capacity");
        Cluster {
            name: name.into(),
            trace: trace.into(),
            forecast: None,
            capacity_gpus,
            pue: 1.2,
        }
    }

    /// Attaches a planning forecast. Policies will argmin over it while
    /// carbon is still realized against the actual trace.
    ///
    /// # Panics
    /// If the forecast covers a different number of hours than the
    /// actual trace (they must index the same year).
    pub fn with_forecast(mut self, forecast: impl Into<Arc<IntensityTrace>>) -> Cluster {
        let forecast = forecast.into();
        assert_eq!(
            forecast.series().len(),
            self.trace.series().len(),
            "forecast must cover the same year as the actual trace"
        );
        self.forecast = Some(forecast);
        self
    }

    /// The trace scheduling decisions are made against: the forecast when
    /// one is attached, else the actual trace.
    pub fn planning_trace(&self) -> &IntensityTrace {
        self.forecast.as_deref().unwrap_or(&self.trace)
    }

    /// Operational carbon of drawing `power` (IT) from this cluster for
    /// `[start, start+duration]` hours since the trace's year start —
    /// the hourly-priced Eq. 6.
    ///
    /// # Panics
    /// If `start_hours` is negative or NaN, or `duration` is not
    /// positive.
    pub fn carbon_for(&self, start_hours: f64, duration: TimeSpan, power: Power) -> CarbonMass {
        assert!(start_hours >= 0.0, "start must be non-negative");
        assert!(duration.as_hours() > 0.0, "duration must be positive");
        let facility_kw = power.as_kw() * self.pue;
        let values = self.trace.series().values();
        let len = values.len() as u32;
        let mut grams = 0.0;
        let mut t = start_hours;
        let end = start_hours + duration.as_hours();
        while t < end {
            let hour_end = (t.floor() + 1.0).min(end);
            let dt = hour_end - t;
            grams += facility_kw * dt * values[slot(t, len) as usize];
            t = hour_end;
        }
        CarbonMass::from_g(grams)
    }

    /// Facility energy of drawing `power` (IT) for `duration`.
    pub fn energy_for(&self, duration: TimeSpan, power: Power) -> Energy {
        (power * duration) * self.pue
    }

    /// Average *planning* intensity over a window (what policies decide
    /// on): one `O(1)` lookup in the planning trace's window index,
    /// wrapping past year end. Durations beyond one trace year are
    /// approximated by the full-year mean — the clamp ignores the extra
    /// weight a partial second cycle would put on its hours, which only
    /// matters for runtimes far outside the workload model (log-normal,
    /// median 3 h).
    pub fn mean_intensity_over(&self, start_hours: f64, duration_hours: f64) -> f64 {
        let index = self.planning_trace().window_index();
        let len = index.len() as u32;
        index.window_mean(slot(start_hours, len), window_width(duration_hours, len))
    }

    /// The indexed greenest shift for a `duration_hours` run on this
    /// cluster: the deferral `d ∈ [0, slack_hours]` minimizing the mean
    /// *planning* intensity of the (wrapped) run window, plus that mean.
    /// `O(slack)` via the planning trace's window index; ties break
    /// toward the smallest shift.
    pub fn greenest_shift_for(
        &self,
        start_hours: f64,
        duration_hours: f64,
        slack_hours: u32,
    ) -> (u32, f64) {
        let planning = self.planning_trace();
        let len = planning.series().len() as u32;
        let w = window_width(duration_hours, len);
        let start = slot(start_hours, len);
        let shift = planning.greenest_shift(start, slack_hours, w);
        let mean = planning
            .window_index()
            .window_mean((start + shift) % len, w);
        (shift, mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcarbon_grid::regions::OperatorId;
    use hpcarbon_timeseries::series::HourlySeries;
    use proptest::prelude::*;

    fn step_trace() -> IntensityTrace {
        // 100 g/kWh during hours 0-11, 300 during 12-23 of every day.
        IntensityTrace::new(
            OperatorId::Eso,
            HourlySeries::from_fn(2021, |st| if st.hour() < 12 { 100.0 } else { 300.0 }),
        )
    }

    #[test]
    fn carbon_integrates_hour_by_hour() {
        let c = Cluster {
            pue: 1.0,
            ..Cluster::new("t", step_trace(), 8)
        };
        // 1 kW for 2 h starting at hour 11: one hour at 100, one at 300.
        let m = c.carbon_for(11.0, TimeSpan::from_hours(2.0), Power::from_w(1000.0));
        assert!((m.as_g() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_window() {
        let c = Cluster {
            pue: 1.0,
            ..Cluster::new("t", step_trace(), 8)
        };
        // 1 kW from 11.5 to 12.5: 0.5 h at 100 + 0.5 h at 300 = 200 g.
        let m = c.carbon_for(11.5, TimeSpan::from_hours(1.0), Power::from_w(1000.0));
        assert!((m.as_g() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn pue_scales_carbon_and_energy() {
        let base = Cluster {
            pue: 1.0,
            ..Cluster::new("t", step_trace(), 8)
        };
        let lossy = Cluster {
            pue: 1.5,
            ..Cluster::new("t", step_trace(), 8)
        };
        let d = TimeSpan::from_hours(3.0);
        let p = Power::from_w(2000.0);
        assert!(
            (lossy.carbon_for(0.0, d, p).as_g() / base.carbon_for(0.0, d, p).as_g() - 1.5).abs()
                < 1e-9
        );
        assert!((lossy.energy_for(d, p).as_kwh() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn mean_intensity_window() {
        let c = Cluster::new("t", step_trace(), 8);
        assert!((c.mean_intensity_over(0.0, 12.0) - 100.0).abs() < 1e-9);
        assert!((c.mean_intensity_over(6.0, 12.0) - 200.0).abs() < 1e-9);
        // The mean wraps at year end: hours 8759 (dirty) and 0 (clean).
        assert!((c.mean_intensity_over(8759.0, 2.0) - 200.0).abs() < 1e-9);
        // Durations beyond the trace clamp to one full year.
        assert!((c.mean_intensity_over(0.0, 20_000.0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn greenest_shift_finds_the_clean_block() {
        let c = Cluster::new("t", step_trace(), 8);
        // A 4-hour run arriving at hour 18 (dirty): best shift is 6 hours
        // to midnight, mean 100.
        let (shift, mean) = c.greenest_shift_for(18.0, 4.0, 24);
        assert_eq!(shift, 6);
        assert!((mean - 100.0).abs() < 1e-9);
        // No slack: pinned to now.
        assert_eq!(c.greenest_shift_for(18.0, 4.0, 0).0, 0);
    }

    #[test]
    fn wraps_across_year_end() {
        let c = Cluster {
            pue: 1.0,
            ..Cluster::new("t", step_trace(), 8)
        };
        // Starting at the last hour of the year and running 2 h wraps to
        // hour 0 (intensity 300 then 100).
        let m = c.carbon_for(8759.0, TimeSpan::from_hours(2.0), Power::from_w(1000.0));
        assert!((m.as_g() - 400.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cluster needs capacity")]
    fn rejects_zero_capacity() {
        let _ = Cluster::new("t", step_trace(), 0);
    }

    #[test]
    fn forecast_drives_planning_but_not_carbon() {
        // The forecast inverts the diurnal pattern: it predicts clean
        // afternoons where the actual grid is dirty.
        let inverted = IntensityTrace::new(
            OperatorId::Eso,
            HourlySeries::from_fn(2021, |st| if st.hour() < 12 { 300.0 } else { 100.0 }),
        );
        let c = Cluster::new("t", step_trace(), 8).with_forecast(inverted);
        // Planning follows the (wrong) forecast into the afternoon.
        let (shift, mean) = c.greenest_shift_for(10.0, 4.0, 12);
        assert_eq!(shift, 2);
        assert!((mean - 100.0).abs() < 1e-9);
        assert!((c.mean_intensity_over(12.0, 4.0) - 100.0).abs() < 1e-9);
        // Carbon still integrates the actual trace (hour 12 is 300 g/kWh).
        let m = Cluster { pue: 1.0, ..c }.carbon_for(
            12.0,
            TimeSpan::from_hours(1.0),
            Power::from_w(1000.0),
        );
        assert!((m.as_g() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn no_forecast_plans_on_the_actual() {
        let c = Cluster::new("t", step_trace(), 8);
        assert_eq!(
            c.planning_trace().series().values(),
            c.trace.series().values()
        );
    }

    fn any_hour() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0..=u64::MAX).prop_map(f64::from_bits),
            -2.0..20_000.0f64,
            (1u32..20_000).prop_map(|k| f64::from_bits(f64::from(k).to_bits() - 1)),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(-0.0),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn slot_is_the_floored_modulo(t in any_hour(), which in 0usize..5) {
            let len = [1, 24, 8760, 8784, u32::MAX][which];
            prop_assert_eq!(slot(t, len), (t.floor() as u64 % u64::from(len)) as u32);
        }
    }

    #[test]
    #[should_panic(expected = "forecast must cover the same year")]
    fn rejects_mismatched_forecast() {
        let leap = IntensityTrace::new(OperatorId::Eso, HourlySeries::new(2020, vec![100.0; 8784]));
        let _ = Cluster::new("t", step_trace(), 8).with_forecast(leap);
    }
}
