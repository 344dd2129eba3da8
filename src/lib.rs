//! # sustainable-hpc
//!
//! A full Rust implementation of the carbon-footprint estimation framework
//! from **"Toward Sustainable HPC: Carbon Footprint Estimation and
//! Environmental Implications of HPC Systems"** (Li et al., SC 2023),
//! including every substrate the paper's analyses depend on.
//!
//! The workspace is organized as focused crates, re-exported here:
//!
//! - [`units`] — dimension-checked quantities (gCO₂, kWh, gCO₂/kWh, …)
//! - [`sim`] — seeded distributions, OU processes, discrete events,
//!   parallel map
//! - [`timeseries`] — civil datetime + hourly-series statistics
//! - [`core`] — the paper's Eqs. 1–6: embodied and operational carbon
//!   models, the Table 1 part catalog, the Table 2 system inventories
//! - [`grid`] — the seven-region grid simulator behind Figs. 6–7
//! - [`power`] — the device power model and seasonal-PUE accounting
//! - [`workloads`] — the Table 4 benchmark models and Table 5 node
//!   generations (roofline + allreduce performance, node power)
//! - [`upgrade`] — the RQ7/RQ8 upgrade decision framework (Figs. 8–9)
//! - [`sched`] — carbon-intensity-aware job scheduling (the scheduler
//!   the paper's §4 implication calls for, built)
//! - [`report`] — regeneration of every paper table and figure
//! - [`api`] — the **single front door**: a versioned
//!   `EstimateRequest → FootprintReport` API with pluggable providers
//!   (`hpcarbon estimate`)
//! - [`sweep`] — declarative scenario grids and a deterministic streaming
//!   sweep engine (bounded memory, pluggable row sinks, `--shard i/N`
//!   partitioning), batch-shaped consumer of the API (`hpcarbon sweep`)
//! - [`server`] — a std-only threaded HTTP server over the API with a
//!   canonical-request cache, plus the matching load generator
//!   (`hpcarbon serve` / `hpcarbon loadgen`)
//!
//! Architecture, calibration methodology (§1) and the process-node
//! interpolation scheme (§5) are documented in `DESIGN.md` at the
//! repository root, next to this crate's `Cargo.toml`.
//!
//! ## Quickstart
//!
//! The front door: build a request, build an estimator, read the report.
//!
//! ```
//! use sustainable_hpc::prelude::*;
//!
//! let est = Estimator::builder().build();
//! let req = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
//! let report = est.estimate(&req).unwrap();
//! assert!(report.embodied.total_t > 1000.0);       // Eqs. 2-5
//! assert!(report.operational.sched_kg > 0.0);      // Eq. 6 over a grid year
//! assert_eq!(report.upgrade.verdict.label(), "upgrade");
//!
//! // Every data axis is a trait you can swap (see DESIGN.md §8):
//! let flat = Estimator::builder().intensity(FlatIntensity::new(100.0)).build();
//! assert_eq!(flat.estimate(&req).unwrap().grid.median_g_per_kwh, 100.0);
//! ```
//!
//! The layers underneath remain directly addressable:
//!
//! ```
//! use sustainable_hpc::prelude::*;
//!
//! // Embodied carbon of one A100 (Eq. 2-5).
//! let a100 = PartId::GpuA100Pcie40.spec();
//! let embodied = a100.embodied().total();
//!
//! // Operational carbon of a 100 kWh training run in a simulated Great
//! // Britain grid hour (Eq. 6).
//! let trace = simulate_year(OperatorId::Eso, 2021, 42);
//! let intensity = trace.at_index(0);
//! let operational = operational_carbon(Energy::from_kwh(100.0), Pue::DEFAULT, intensity);
//!
//! // Eq. 1.
//! let total = total_carbon(embodied, operational);
//! assert!(total > embodied);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hpcarbon_api as api;
pub use hpcarbon_catalog as catalog;
pub use hpcarbon_core as core;
pub use hpcarbon_grid as grid;
pub use hpcarbon_power as power;
pub use hpcarbon_report as report;
pub use hpcarbon_sched as sched;
pub use hpcarbon_server as server;
pub use hpcarbon_sim as sim;
pub use hpcarbon_sweep as sweep;
pub use hpcarbon_timeseries as timeseries;
pub use hpcarbon_units as units;
pub use hpcarbon_upgrade as upgrade;
pub use hpcarbon_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use hpcarbon_api::{
        ApiError, EmbodiedSource, EstimateRequest, Estimator, EstimatorBuilder, FlatIntensity,
        FootprintReport, IntensityProvider, PueSpec, StorageVariant, SystemId, UpgradePath,
    };
    pub use hpcarbon_catalog::{Catalog, CatalogSource};
    pub use hpcarbon_core::db::{PartId, PartSpec};
    pub use hpcarbon_core::embodied::{ComponentClass, EmbodiedBreakdown};
    pub use hpcarbon_core::lifecycle::total_carbon;
    pub use hpcarbon_core::operational::{operational_carbon, Pue};
    pub use hpcarbon_core::systems::HpcSystem;
    pub use hpcarbon_grid::{
        simulate_all_regions, simulate_year, synthesize_year, IntensityTrace, OperatorId,
    };
    pub use hpcarbon_sched::{
        shift_savings, summarize_shift_savings, Cluster, Job, JobTraceGenerator, Policy, Simulation,
    };
    pub use hpcarbon_server::{
        EstimateService, LoadGenConfig, LoadSummary, Server, ServerConfig, ShutdownHandle,
    };
    pub use hpcarbon_sweep::{
        CollectSink, CsvSink, JsonSink, RowSink, ScenarioGrid, Sweep, SweepConfig, SweepReport,
        TraceSource,
    };
    pub use hpcarbon_units::*;
    pub use hpcarbon_upgrade::{Recommendation, UpgradeAdvisor, UpgradeScenario};
    pub use hpcarbon_workloads::{benchmarks::Suite, nodes::NodeGen, GpuModel};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let f = HpcSystem::frontier();
        assert!(f.embodied_total().as_t() > 1000.0);
        let t = simulate_year(OperatorId::Eso, 2021, 1);
        assert_eq!(t.series().len(), 8760);
    }
}
