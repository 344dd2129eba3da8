//! Cross-region analyses — the machinery behind Figs. 6 and 7.

use crate::regions::OperatorId;
use crate::trace::IntensityTrace;
use hpcarbon_timeseries::datetime::TimeZone;
use hpcarbon_timeseries::stats::BoxplotStats;

/// Why a cross-region analysis cannot run on the given trace set.
///
/// Batched sweeps feed arbitrary region combinations through these
/// analyses; a bad combination must surface as an `Err` item, not a panic
/// that aborts the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisError {
    /// Fewer than two traces were supplied.
    NotEnoughRegions(usize),
    /// The traces cover different years.
    YearMismatch,
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::NotEnoughRegions(n) => {
                write!(f, "need at least two regions to compare, got {n}")
            }
            AnalysisError::YearMismatch => write!(f, "all traces must cover the same year"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Fig. 6 row: one region's annual summary.
#[derive(Debug, Clone)]
pub struct RegionSummary {
    /// The operator.
    pub operator: OperatorId,
    /// Annual distribution summary (Fig. 6a's box).
    pub boxplot: BoxplotStats,
    /// Coefficient of variation in % (Fig. 6b's bar).
    pub cov_percent: f64,
}

/// Computes the Fig. 6 summary for a set of traces.
pub fn regional_summary(traces: &[IntensityTrace]) -> Vec<RegionSummary> {
    traces
        .iter()
        .map(|t| RegionSummary {
            operator: t.operator(),
            boxplot: t.boxplot(),
            cov_percent: t.cov_percent(),
        })
        .collect()
}

/// The operator with the lowest annual median intensity.
pub fn lowest_median_region(summaries: &[RegionSummary]) -> OperatorId {
    summaries
        .iter()
        // Medians come out of `BoxplotStats::compute`, which rejects
        // non-finite samples, so `total_cmp` orders them identically to
        // the old `partial_cmp(..).expect(..)` without the panic arm.
        .min_by(|a, b| a.boxplot.median.total_cmp(&b.boxplot.median))
        // lint: allow(panic-in-library) -- callers pass the fixed compared-region set (asserted ≥ 2 at trace load); an empty slice is a caller bug worth a loud stop
        .expect("non-empty summary list")
        .operator
}

/// Fig. 7's result: for each hour of the day in a reference time zone, how
/// many days of the year each region had the lowest intensity among the
/// compared regions.
#[derive(Debug, Clone)]
pub struct WinnerCounts {
    /// Region order matching the count rows.
    pub operators: Vec<OperatorId>,
    /// `counts[r][h]` = days on which region `r` was lowest during local
    /// hour `h` of the reference zone.
    pub counts: Vec<[u32; 24]>,
    /// Reference time zone (the paper uses JST).
    pub tz: TimeZone,
}

impl WinnerCounts {
    /// Days counted per hour (sum over regions) — 365 for a full non-leap
    /// year with no ties, which the tie-breaking rule guarantees.
    pub fn days_per_hour(&self, hour: usize) -> u32 {
        self.counts.iter().map(|c| c[hour]).sum()
    }

    /// The region winning the most days at `hour`.
    pub fn plurality_winner(&self, hour: usize) -> OperatorId {
        let idx = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c[hour])
            // lint: allow(panic-in-library) -- WinnerCounts is only constructed by winner_counts(), which requires ≥ 2 traces, so `counts` is never empty
            .expect("non-empty")
            .0;
        self.operators[idx]
    }

    /// Total days won by `op` across all hours.
    pub fn total_wins(&self, op: OperatorId) -> u32 {
        let idx = self
            .operators
            .iter()
            .position(|o| *o == op)
            // lint: allow(panic-in-library) -- asking for a region that was not part of the comparison is a caller bug; silently returning 0 would fabricate a result
            .expect("operator present");
        self.counts[idx].iter().sum()
    }
}

/// Computes Fig. 7: aligns all traces on the reference zone's wall clock
/// ("we account for the difference between time zones … and convert them
/// to JST") and counts, per local hour, the days each region was lowest.
///
/// Ties (exactly equal intensities) go to the earlier trace in the input
/// order, making counts deterministic and hour-sums exact.
///
/// # Panics
/// If fewer than two traces are supplied or the traces cover different
/// years. [`try_winner_counts`] is the non-panicking variant.
pub fn winner_counts(traces: &[IntensityTrace], tz: TimeZone) -> WinnerCounts {
    match try_winner_counts(traces, tz) {
        Ok(w) => w,
        // lint: allow(panic-in-library) -- documented "# Panics" convenience wrapper; try_winner_counts is the typed-error form
        Err(e) => panic!("{e}"),
    }
}

/// [`winner_counts`] as a pure scenario function: bad inputs come back as
/// an [`AnalysisError`] instead of a panic.
///
/// # Errors
/// If fewer than two traces are supplied or the traces cover different
/// years.
pub fn try_winner_counts(
    traces: &[IntensityTrace],
    tz: TimeZone,
) -> Result<WinnerCounts, AnalysisError> {
    if traces.len() < 2 {
        return Err(AnalysisError::NotEnoughRegions(traces.len()));
    }
    let year = traces[0].series().year();
    if !traces.iter().all(|t| t.series().year() == year) {
        return Err(AnalysisError::YearMismatch);
    }
    let hours = traces[0].series().len();
    let mut counts = vec![[0u32; 24]; traces.len()];
    for idx in 0..hours {
        let local_hour = ((idx as i64 + i64::from(tz.offset_hours())).rem_euclid(24)) as usize;
        let mut best = 0usize;
        let mut best_v = traces[0].series().values()[idx];
        for (r, t) in traces.iter().enumerate().skip(1) {
            let v = t.series().values()[idx];
            if v < best_v {
                best_v = v;
                best = r;
            }
        }
        counts[best][local_hour] += 1;
    }
    Ok(WinnerCounts {
        operators: traces.iter().map(|t| t.operator()).collect(),
        counts,
        tz,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcarbon_timeseries::series::HourlySeries;

    fn trace_of(
        op: OperatorId,
        f: impl FnMut(hpcarbon_timeseries::datetime::HourStamp) -> f64,
    ) -> IntensityTrace {
        IntensityTrace::new(op, HourlySeries::from_fn(2021, f))
    }

    #[test]
    fn winner_counts_sum_to_days() {
        let a = trace_of(
            OperatorId::Eso,
            |st| if st.hour() < 12 { 50.0 } else { 300.0 },
        );
        let b = trace_of(
            OperatorId::Ciso,
            |st| if st.hour() < 12 { 200.0 } else { 100.0 },
        );
        let w = winner_counts(&[a, b], TimeZone::UTC);
        for h in 0..24 {
            assert_eq!(w.days_per_hour(h), 365, "hour {h}");
        }
    }

    #[test]
    fn winner_is_the_lower_trace() {
        let a = trace_of(
            OperatorId::Eso,
            |st| if st.hour() < 12 { 50.0 } else { 300.0 },
        );
        let b = trace_of(
            OperatorId::Ciso,
            |st| if st.hour() < 12 { 200.0 } else { 100.0 },
        );
        let w = winner_counts(&[a, b], TimeZone::UTC);
        for h in 0..12 {
            assert_eq!(w.plurality_winner(h), OperatorId::Eso, "hour {h}");
        }
        for h in 12..24 {
            assert_eq!(w.plurality_winner(h), OperatorId::Ciso, "hour {h}");
        }
        assert_eq!(w.total_wins(OperatorId::Eso), 12 * 365);
    }

    #[test]
    fn jst_shift_moves_the_window() {
        // ESO is cheapest during UTC hours 0-11; in JST that window is
        // hours 9-20.
        let a = trace_of(
            OperatorId::Eso,
            |st| if st.hour() < 12 { 50.0 } else { 300.0 },
        );
        let b = trace_of(OperatorId::Ciso, |_| 150.0);
        let w = winner_counts(&[a, b], TimeZone::JST);
        assert_eq!(w.plurality_winner(9), OperatorId::Eso);
        assert_eq!(w.plurality_winner(20), OperatorId::Eso);
        assert_eq!(w.plurality_winner(0), OperatorId::Ciso);
        assert_eq!(w.plurality_winner(23), OperatorId::Ciso);
    }

    #[test]
    fn ties_are_deterministic() {
        let a = trace_of(OperatorId::Eso, |_| 100.0);
        let b = trace_of(OperatorId::Ciso, |_| 100.0);
        let w = winner_counts(&[a, b], TimeZone::UTC);
        // All ties go to the first trace.
        assert_eq!(w.total_wins(OperatorId::Eso), 8760);
        assert_eq!(w.total_wins(OperatorId::Ciso), 0);
    }

    #[test]
    #[should_panic(expected = "at least two regions")]
    fn requires_two_traces() {
        let a = trace_of(OperatorId::Eso, |_| 100.0);
        let _ = winner_counts(&[a], TimeZone::UTC);
    }

    #[test]
    fn try_variant_fails_soft() {
        let a = trace_of(OperatorId::Eso, |_| 100.0);
        assert_eq!(
            try_winner_counts(std::slice::from_ref(&a), TimeZone::UTC).unwrap_err(),
            AnalysisError::NotEnoughRegions(1)
        );
        let b = IntensityTrace::new(OperatorId::Ciso, HourlySeries::from_fn(2022, |_| 90.0));
        assert_eq!(
            try_winner_counts(&[a.clone(), b], TimeZone::UTC).unwrap_err(),
            AnalysisError::YearMismatch
        );
        let c = trace_of(OperatorId::Ciso, |_| 90.0);
        assert!(try_winner_counts(&[a, c], TimeZone::UTC).is_ok());
    }

    #[test]
    fn regional_summary_and_lowest_median() {
        let a = trace_of(OperatorId::Eso, |_| 100.0);
        let b = trace_of(OperatorId::Tokyo, |_| 500.0);
        let s = regional_summary(&[a, b]);
        assert_eq!(s.len(), 2);
        assert_eq!(lowest_median_region(&s), OperatorId::Eso);
        assert_eq!(s[1].boxplot.median, 500.0);
        // Constant trace has zero CoV.
        assert!(s[0].cov_percent.abs() < 1e-9);
    }
}

/// Per-season summary of a trace — Fig. 7's caption notes that "season
/// variations also naturally exist"; this quantifies them.
#[derive(Debug, Clone)]
pub struct SeasonalSummary {
    /// Season.
    pub season: hpcarbon_timeseries::datetime::Season,
    /// Intensity distribution within the season.
    pub boxplot: BoxplotStats,
}

/// Splits a trace by meteorological season (local dates in the operator's
/// zone) and summarizes each.
pub fn seasonal_summary(trace: &IntensityTrace) -> Vec<SeasonalSummary> {
    use hpcarbon_timeseries::datetime::Season;
    let tz = trace.operator().info().tz;
    let mut buckets: [Vec<f64>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for (stamp, v) in trace.series().iter() {
        let season = tz.from_utc(stamp).date().season();
        // Season::ALL lists the seasons in declaration order.
        buckets[season as usize].push(v);
    }
    Season::ALL
        .iter()
        .zip(buckets)
        .map(|(season, values)| SeasonalSummary {
            season: *season,
            // lint: allow(panic-in-library) -- a year-long hourly trace puts ≥ 2000 samples in every season bucket, so compute never sees an empty slice
            boxplot: BoxplotStats::compute(&values).expect("every season has hours"),
        })
        .collect()
}

#[cfg(test)]
mod seasonal_tests {
    use super::*;
    use crate::sim::simulate_year;
    use hpcarbon_timeseries::datetime::Season;

    #[test]
    fn four_seasons_cover_the_year() {
        let t = simulate_year(OperatorId::Eso, 2021, 5);
        let s = seasonal_summary(&t);
        assert_eq!(s.len(), 4);
        let seasons: Vec<Season> = s.iter().map(|x| x.season).collect();
        assert_eq!(seasons, Season::ALL.to_vec());
        for x in &s {
            assert!(x.boxplot.median > 0.0);
        }
    }

    #[test]
    fn eso_winters_are_dirtier_despite_winter_wind() {
        // GB reality (and the model): the winter demand peak outweighs the
        // winter wind boost, so winter medians sit above summer medians.
        let t = simulate_year(OperatorId::Eso, 2021, 5);
        let s = seasonal_summary(&t);
        let median = |season: Season| {
            s.iter()
                .find(|x| x.season == season)
                .expect("present")
                .boxplot
                .median
        };
        assert!(
            median(Season::Winter) > median(Season::Summer),
            "winter {} vs summer {}",
            median(Season::Winter),
            median(Season::Summer)
        );
    }

    #[test]
    fn ciso_is_seasonally_flat_by_comparison() {
        // CAISO's summer AC demand offsets its stronger summer solar: the
        // seasonal medians stay within a narrow band.
        let t = simulate_year(OperatorId::Ciso, 2021, 5);
        let s = seasonal_summary(&t);
        let meds: Vec<f64> = s.iter().map(|x| x.boxplot.median).collect();
        let max = meds.iter().copied().fold(f64::MIN, f64::max);
        let min = meds.iter().copied().fold(f64::MAX, f64::min);
        assert!(max / min < 1.15, "{meds:?}");
    }

    #[test]
    fn seasonal_spread_is_material_for_wind_heavy_grids() {
        let t = simulate_year(OperatorId::Eso, 2021, 5);
        let s = seasonal_summary(&t);
        let meds: Vec<f64> = s.iter().map(|x| x.boxplot.median).collect();
        let max = meds.iter().copied().fold(f64::MIN, f64::max);
        let min = meds.iter().copied().fold(f64::MAX, f64::min);
        assert!(max / min > 1.08, "{meds:?}");
    }
}
