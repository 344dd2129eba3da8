//! # hpcarbon-grid
//!
//! Regional grid carbon-intensity simulation and analysis — the substrate
//! behind the paper's §4 ("Geographical Carbon Intensity").
//!
//! The paper consumes hourly 2021 carbon-intensity traces for seven power
//! system operators (its Table 3), sourced from Electricity Maps and the UK
//! ESO Carbon Intensity API. Those datasets are proprietary/remote, so this
//! crate synthesizes traces from a *physically structured* grid model
//! instead (see DESIGN.md §1 for why the substitution preserves the paper's
//! analyses):
//!
//! - a demand model with diurnal, seasonal, weekday and stochastic
//!   components ([`sim`]);
//! - a per-region generation stack — must-run nuclear/hydro, stochastic
//!   wind (Ornstein–Uhlenbeck capacity factor), astronomical solar with
//!   cloud noise, and a dispatchable merit order (gas/coal/imports) whose
//!   ordering differs by region ([`regions`]);
//! - per-fuel life-cycle emission factors ([`fuel`]);
//! - hourly intensity = emissions-weighted generation mix.
//!
//! Each region's parameters are calibrated so the synthetic year
//! reproduces the paper's Fig. 6 statistics (ESO lowest median < 200
//! gCO₂/kWh, Tokyo ≈ 3× ESO, ESO/CISO highest CoV, Japan lowest CoV) and
//! Fig. 7's diurnal structure (ESO winning the JST 8–20 window, CISO most
//! other hours).
//!
//! On top of the simulator sit:
//!
//! - [`trace::IntensityTrace`]: a year of hourly intensities bound to an
//!   operator, with box-plot/CoV statistics and an always-on
//!   [`hpcarbon_timeseries::window::WindowIndex`] for `O(1)` window
//!   averages and indexed greenest-start queries;
//! - [`synth`]: deterministic *synthetic* region-years (harmonics +
//!   fuel-mix-weighted OU noise) that need no calibrated merit order, so
//!   sweeps are not limited to the calibrated trace set;
//! - [`analysis`]: the Fig. 6/Fig. 7 analyses (per-region summaries,
//!   winner-per-JST-hour counts);
//! - [`tracefile`]: strict ElectricityMaps/EIA-style CSV ingestion of
//!   *measured* region-years into the same [`trace::IntensityTrace`];
//! - [`forecast`]: planning traces (persistence, day-ahead harmonic,
//!   seeded noisy oracle) for uncertainty-aware shifting; the
//!   carbon-aware scheduler plans on them through `Cluster::with_forecast`.
//!
//! # Example
//!
//! ```
//! use hpcarbon_grid::{regions::OperatorId, sim::simulate_year};
//!
//! let trace = simulate_year(OperatorId::Eso, 2021, 42);
//! let stats = trace.boxplot();
//! assert!(stats.median < 250.0); // GB is the low-carbon region
//! assert_eq!(trace.series().len(), 8760);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod forecast;
pub mod fuel;
pub mod regions;
pub mod sim;
pub mod synth;
pub mod trace;
pub mod tracefile;

pub use forecast::ForecastProvider;
pub use regions::OperatorId;
pub use sim::{simulate_all_regions, simulate_year};
pub use synth::{synthesize_year, SyntheticSpec};
pub use trace::IntensityTrace;
pub use tracefile::{load_trace_file, parse_trace_csv, write_trace_csv, GapPolicy, ParsedTrace};

use hpcarbon_units::CarbonIntensity;

/// The three constant intensity levels of the paper's Fig. 8 columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntensityLevel {
    /// "high intensity with an average of 400 gCO2/kWh".
    High,
    /// "medium intensity with an average of 200 gCO2/kWh".
    Medium,
    /// "low intensity with an average of 20 gCO2/kWh which is the carbon
    /// intensity of hydropower".
    Low,
}

impl IntensityLevel {
    /// All levels in the paper's column order.
    pub const ALL: [IntensityLevel; 3] = [
        IntensityLevel::High,
        IntensityLevel::Medium,
        IntensityLevel::Low,
    ];

    /// The constant intensity value.
    pub fn intensity(self) -> CarbonIntensity {
        match self {
            IntensityLevel::High => CarbonIntensity::from_g_per_kwh(400.0),
            IntensityLevel::Medium => CarbonIntensity::from_g_per_kwh(200.0),
            IntensityLevel::Low => CarbonIntensity::from_g_per_kwh(20.0),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            IntensityLevel::High => "High Carbon Intensity",
            IntensityLevel::Medium => "Medium Carbon Intensity",
            IntensityLevel::Low => "Low Carbon Intensity",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_levels_match_paper() {
        assert_eq!(IntensityLevel::High.intensity().as_g_per_kwh(), 400.0);
        assert_eq!(IntensityLevel::Medium.intensity().as_g_per_kwh(), 200.0);
        assert_eq!(IntensityLevel::Low.intensity().as_g_per_kwh(), 20.0);
        assert_eq!(IntensityLevel::ALL.len(), 3);
    }
}
