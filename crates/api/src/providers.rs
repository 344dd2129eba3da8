//! Pluggable data sources behind the estimator.
//!
//! The data axes a [`crate::FootprintReport`] depends on are traits with
//! a default implementation wrapping the in-repo models. The estimator's
//! builder swaps the intensity and embodied providers, so a deployment
//! can bring its own grid and inventory data without forking the
//! pipeline; job traces always come from the default, and the PUE model
//! is always the request's own:
//!
//! - [`IntensityProvider`] — where region-year carbon-intensity traces
//!   come from ([`DispatchIntensity`] wraps the calibrated dispatch
//!   simulator and the synthetic harmonic generator; [`FlatIntensity`]
//!   is the constant-intensity stub behind `hpcarbon advisor`);
//! - [`EmbodiedSource`] — where system inventories come from
//!   ([`CatalogEmbodied`] wraps the Table 1/2 part catalog);
//! - [`JobSource`] — where scheduling job traces come from
//!   ([`GeneratedJobs`] wraps the seeded workload generator).
//!
//! Contract for all providers: implementations must be **pure functions
//! of their arguments** (no ambient randomness, clocks, or mutable
//! state), because batch determinism — byte-identical output for any
//! thread count — is promised over them.
//!
//! Traces and job lists are returned behind [`Arc`]s: they are the
//! heavyweight inputs (an indexed year trace is ~140 KB: 8,760 hourly
//! values plus 8,761 prefix sums, all `f64`), and batch consumers — the
//! streaming sweep engine above all — evaluate many requests against the
//! *same* region-year, so the provider contract is "hand out a shared
//! immutable value", never "copy".

use crate::types::{SystemId, TraceSource};
use hpcarbon_core::systems::HpcSystem;
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::sim::simulate_year;
use hpcarbon_grid::synth::synthesize_year;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_sched::{Job, JobTraceGenerator};
use hpcarbon_timeseries::series::HourlySeries;
use std::sync::Arc;

/// Supplies the hourly carbon-intensity trace of one region-year.
pub trait IntensityProvider: Send + Sync {
    /// Returns the trace for `region` in `year`. `seed` is the trace
    /// substream seed derived from the request (same request → same
    /// seed), and `source` is the request's trace-source dimension —
    /// providers that model a single source may ignore it.
    fn year_trace(
        &self,
        region: OperatorId,
        source: TraceSource,
        year: i32,
        seed: u64,
    ) -> Arc<IntensityTrace>;
}

/// Supplies the job trace a request's scheduling run consumes.
pub trait JobSource: Send + Sync {
    /// Returns `count` jobs for the `jobs` substream seed derived from
    /// the request (same request → same seed).
    fn job_trace(&self, count: usize, seed: u64) -> Arc<Vec<Job>>;
}

/// Default job source: the seeded workload generator at its
/// production-like default rates.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneratedJobs;

impl JobSource for GeneratedJobs {
    fn job_trace(&self, count: usize, seed: u64) -> Arc<Vec<Job>> {
        Arc::new(JobTraceGenerator::default_rates().generate(count, seed))
    }
}

/// Supplies system inventories for embodied-carbon accounting.
pub trait EmbodiedSource: Send + Sync {
    /// Builds the as-built inventory of `system`.
    fn build_system(&self, system: SystemId) -> HpcSystem;

    /// Resolves the spec of a single part, used by what-if transforms
    /// that introduce parts absent from the base inventory (e.g. the
    /// all-flash swap's replacement SSD). Defaults to the built-in
    /// Table 1 catalog; a plain-text catalog source returns its own
    /// entity so swaps stay internally consistent with its numbers.
    fn part_spec(&self, part: hpcarbon_core::db::PartId) -> hpcarbon_core::db::PartSpec {
        part.spec()
    }
}

/// Delegation through [`Arc`], so one embodied source (e.g. a loaded
/// catalog) can back an estimator, a sweep, and server shards
/// simultaneously.
impl<T: EmbodiedSource + ?Sized> EmbodiedSource for Arc<T> {
    fn build_system(&self, system: SystemId) -> HpcSystem {
        (**self).build_system(system)
    }

    fn part_spec(&self, part: hpcarbon_core::db::PartId) -> hpcarbon_core::db::PartSpec {
        (**self).part_spec(part)
    }
}

/// Default intensity provider: the paper's calibrated dispatch simulator
/// for [`TraceSource::Paper`], the synthetic harmonic generator for
/// [`TraceSource::Synthetic`]. [`TraceSource::File`] traces are resolved
/// by the estimator from its registered trace files *before* any
/// provider is consulted, so this provider never sees them.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchIntensity;

impl IntensityProvider for DispatchIntensity {
    fn year_trace(
        &self,
        region: OperatorId,
        source: TraceSource,
        year: i32,
        seed: u64,
    ) -> Arc<IntensityTrace> {
        Arc::new(match source {
            TraceSource::Paper => simulate_year(region, year, seed),
            TraceSource::Synthetic => synthesize_year(region, year, seed),
            // lint: allow(panic-in-library) -- file traces are resolved
            // from the estimator's registry before providers run; hitting
            // this arm means an estimator-side interception bug, not a
            // user input error, so surfacing it loudly beats fabricating
            // a generated trace for a request that asked for measured data.
            TraceSource::File => unreachable!(
                "TraceSource::File must be resolved from the estimator's trace-file registry"
            ),
        })
    }
}

/// A constant-intensity stub: every hour of the year carries the same
/// gCO₂/kWh. Useful for what-ifs pinned to a single grid number (the
/// `hpcarbon advisor --intensity` path) and as the simplest example of a
/// custom provider.
#[derive(Debug, Clone, Copy)]
pub struct FlatIntensity {
    g_per_kwh: f64,
}

impl FlatIntensity {
    /// A provider pinning every hour to `g_per_kwh`.
    pub fn new(g_per_kwh: f64) -> FlatIntensity {
        FlatIntensity { g_per_kwh }
    }
}

impl IntensityProvider for FlatIntensity {
    fn year_trace(
        &self,
        region: OperatorId,
        _source: TraceSource,
        year: i32,
        _seed: u64,
    ) -> Arc<IntensityTrace> {
        Arc::new(IntensityTrace::new(
            region,
            HourlySeries::from_fn(year, |_| self.g_per_kwh),
        ))
    }
}

/// Default embodied source: the Table 1 part catalog composed into the
/// Table 2 system inventories.
#[derive(Debug, Clone, Copy, Default)]
pub struct CatalogEmbodied;

impl EmbodiedSource for CatalogEmbodied {
    fn build_system(&self, system: SystemId) -> HpcSystem {
        system.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_provider_matches_the_raw_generators() {
        let a = DispatchIntensity.year_trace(OperatorId::Eso, TraceSource::Paper, 2021, 42);
        let b = simulate_year(OperatorId::Eso, 2021, 42);
        assert_eq!(a.series().values(), b.series().values());
        let a = DispatchIntensity.year_trace(OperatorId::Eso, TraceSource::Synthetic, 2021, 42);
        let b = synthesize_year(OperatorId::Eso, 2021, 42);
        assert_eq!(a.series().values(), b.series().values());
    }

    #[test]
    fn flat_provider_is_flat() {
        let t = FlatIntensity::new(200.0).year_trace(OperatorId::Ciso, TraceSource::Paper, 2021, 7);
        assert_eq!(t.boxplot().median, 200.0);
        assert_eq!(t.cov_percent(), 0.0);
        assert_eq!(t.series().len(), 8760);
    }
}
