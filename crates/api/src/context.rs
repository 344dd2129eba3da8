//! Inputs shared across one batch of evaluations.
//!
//! Evaluating one request re-derives heavyweight inputs that are pure
//! functions of a *few* request fields: the region-year intensity trace
//! (a dispatch simulation plus a `WindowIndex` build), its distribution
//! stats, the as-built system inventory, and the generated job trace.
//! A batch or a sweep evaluates many requests drawn from a handful of
//! distinct key tuples, so almost every derivation is a repeat.
//! [`crate::Estimator::context_for`] derives each distinct key's inputs
//! once, and the [`EstimateContext`] it returns evaluates requests
//! against them. A trace it does not hold comes from the estimator's
//! trace store ([`crate::store`]), and any other input from the
//! providers.
//!
//! The same holds one layer further in. A scheduling run (layer 3) and
//! a seasonal-PUE year (layer 4) read only a few request fields too, so
//! the context also holds one *cell* per distinct run key and per
//! distinct seasonal key among its requests. Cells are created empty
//! when the context is built and filled by the first evaluation that
//! reaches their layer; every later request with that key copies the
//! cell's numbers instead of re-running the layer.
//!
//! A context lives for one batch. What lives across requests are the
//! estimator's three bounded stores ([`crate::store`]): region-year
//! traces, and run and seasonal entries that hold what a run or seasonal
//! cell holds, under the same keys. A single evaluation, the server's
//! miss path, reads them through an empty context, so each of layers 2–4
//! takes its value from the context, else its store, else computes it. A
//! trace-store hit gives layer 2 its stats, and the trace is rebuilt
//! from the entry only when layer 3 or 4 must run. The stores hold at
//! most 32 traces (~2.2 MiB) and 256 runs and 256 seasonal years
//! (~0.1 MiB together). Their fills nest run → trace and never the
//! reverse, so concurrent misses cannot deadlock. A context holds a cell
//! for every key of its requests, so a batch never reaches a store, and
//! building a context never touches one.
//!
//! ## Byte-safety
//!
//! A context hit must be indistinguishable from a provider call. It is:
//! a context borrows the estimator that built it and evaluates through
//! it, every value it holds came from that estimator's own providers
//! called with the arguments an evaluation would pass (providers are
//! pure by contract — see [`crate::providers`]), and the stats are pure
//! functions of the trace. A cell holds the numbers its layer computed
//! from those inputs, by the expressions an evaluation without the cell
//! runs, and its key holds every value those expressions read (compared
//! by bits, never by `f64 ==`). Two requests that share a key therefore
//! compute the same numbers, so copying them is exact. A context can
//! never change reported bytes, only the time it takes to produce them;
//! `crates/api` unit tests assert report equality with and without one,
//! over one variant per key field.
//!
//! ## Memory
//!
//! A context holds `O(distinct keys)` data, not `O(requests)`: traces
//! and job lists are stored behind [`Arc`]s and shared into every
//! evaluation (clusters hold `Arc<IntensityTrace>`, simulations borrow
//! the job slice), and a cell is a few numbers. A million-scenario sweep
//! over two regions, two trace sources and a few seeds holds a handful
//! of traces total; the 504-row paper grid holds 21 run cells and 14
//! seasonal cells per seed.

use crate::error::ApiError;
use crate::estimator::Estimator;
use crate::report::{FootprintReport, OperationalSection, ShiftSection};
use crate::request::EstimateRequest;
use crate::types::{ForecastModel, SystemId, TraceSource};
use hpcarbon_core::systems::HpcSystem;
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_sched::Job;
use hpcarbon_sim::rng::SimRng;
use hpcarbon_timeseries::stats;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Identifies one region-year trace: `(region, source, year, seed)`,
/// where `seed` is the request's `trace` substream seed.
pub type TraceKey = (OperatorId, TraceSource, i32, u64);

/// Identifies one generated job trace: `(count, seed)`, where `seed` is
/// the request's `jobs` substream seed.
pub type JobKey = (usize, u64);

/// Distribution stats of one trace, precomputed so the per-request path
/// skips the median selection over 8760 hourly values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Fig. 6(a) boxplot median (gCO₂/kWh).
    pub median_g_per_kwh: f64,
    /// Fig. 6(b) coefficient of variation (%).
    pub cov_pct: f64,
}

impl TraceStats {
    /// Computes the stats of `trace` — the values the estimator reports
    /// on a context miss — in one pass over the values plus a selection.
    ///
    /// - The mean is the trace index's full-year sum over the hours, the
    ///   same left-to-right sum `stats::mean` makes, so the coefficient
    ///   of variation equals [`IntensityTrace::cov_percent`] bit for bit.
    /// - The median is selected, not sorted for. It equals the boxplot
    ///   median bit for bit because intensities are finite and at least
    ///   zero; only a zero median could differ, in its sign, on a trace
    ///   that holds both `-0` and `0`.
    pub fn of(trace: &IntensityTrace) -> TraceStats {
        let values = trace.series().values();
        let hours = values.len() as u32;
        let mean = trace.window_index().window_sum(0, hours) / f64::from(hours);
        TraceStats {
            median_g_per_kwh: stats::median(values),
            cov_pct: stats::cov_percent_about(values, mean),
        }
    }
}

/// The seed substream keys one request's evaluation draws on. Pure in
/// the request seed (substream forking never consumes state), so the
/// same request always maps to the same keys — the property that makes
/// precomputation transparent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestKeys {
    /// The primary region-year trace key.
    pub trace: TraceKey,
    /// The partner region's trace key, when the request engages one.
    pub partner_trace: Option<TraceKey>,
    /// The job-trace key.
    pub jobs: JobKey,
    /// The system inventory key.
    pub system: SystemId,
}

impl RequestKeys {
    /// Derives the keys `req`'s evaluation will look up.
    ///
    /// This is the one place the partner rule lives. A multi-region
    /// policy engages a partner site unless `req.partner` turns it off,
    /// and `req.partner` can force one onto any policy. The partner is
    /// the greenest complement region: GB, or CA when the request
    /// already is GB, under the request's own source, year and trace
    /// seed.
    pub fn of(req: &EstimateRequest) -> RequestKeys {
        let rng = SimRng::seed_from(req.seed);
        let trace_seed = rng.substream("trace").seed();
        let jobs_seed = rng.substream("jobs").seed();
        let partner = if req.region == OperatorId::Eso {
            OperatorId::Ciso
        } else {
            OperatorId::Eso
        };
        let partner_trace = req
            .partner
            .unwrap_or_else(|| req.policy.is_multi_region())
            .then_some((partner, req.source, req.year, trace_seed));
        RequestKeys {
            trace: (req.region, req.source, req.year, trace_seed),
            partner_trace,
            jobs: (req.jobs, jobs_seed),
            system: req.system,
        }
    }
}

/// Identifies one scheduling run (layer 3) by exactly what the run
/// reads. System, storage, upgrade, usage and PUE amplitude are absent:
/// the run's clusters take only a region, its trace, the GPU count and
/// the mean PUE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RunKey {
    /// The primary region-year trace.
    pub(crate) trace: TraceKey,
    /// The partner region-year trace, when the run has a partner site.
    pub(crate) partner_trace: Option<TraceKey>,
    /// The job trace.
    pub(crate) jobs: JobKey,
    /// GPUs in each cluster.
    pub(crate) cluster_gpus: u32,
    /// `to_bits` of the request's mean PUE, each cluster's `pue`.
    pub(crate) pue_mean: u64,
    /// The policy's variant and the bits of its parameter.
    pub(crate) policy: (u8, u64),
    /// The forecast model and the request's `forecast` substream seed.
    pub(crate) forecast: Option<(ForecastModel, u64)>,
}

/// Identifies one seasonal-PUE year (layer 4): the node's annual carbon
/// under a seasonal model reads only the trace, the model and the
/// node's annual IT energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SeasonalKey {
    /// The primary region-year trace.
    pub(crate) trace: TraceKey,
    /// `to_bits` of the request's seasonal mean and amplitude.
    pub(crate) pue: (u64, u64),
    /// `to_bits` of the node's annual IT energy in kWh.
    pub(crate) it_energy: u64,
}

/// What one scheduling run reports: its operational and shift sections,
/// or the error the run failed with.
pub(crate) type RunOutcome = Result<(OperationalSection, ShiftSection), ApiError>;

/// Inputs derived once for a batch of requests, bound to the
/// [`Estimator`] that derived them.
///
/// Only [`Estimator::context_for`] builds one, and
/// [`EstimateContext::estimate`] evaluates through that same estimator,
/// so a context never serves values from another estimator's providers.
/// Its inputs are immutable and each of its cells is written at most
/// once, behind a [`OnceLock`]: share one across any number of worker
/// threads. Rows that reach an empty cell together wait for one fill.
pub struct EstimateContext<'e> {
    pub(crate) estimator: &'e Estimator,
    pub(crate) traces: BTreeMap<TraceKey, (Arc<IntensityTrace>, TraceStats)>,
    pub(crate) systems: BTreeMap<SystemId, HpcSystem>,
    pub(crate) jobs: BTreeMap<JobKey, Arc<Vec<Job>>>,
    pub(crate) runs: BTreeMap<RunKey, OnceLock<RunOutcome>>,
    pub(crate) seasonal: BTreeMap<SeasonalKey, OnceLock<f64>>,
}

impl<'e> EstimateContext<'e> {
    /// A context holding nothing: traces, scheduling runs and
    /// seasonal-PUE years come from `estimator`'s stores or are computed,
    /// and every other input comes from its providers.
    pub(crate) fn new(estimator: &'e Estimator) -> EstimateContext<'e> {
        EstimateContext {
            estimator,
            traces: BTreeMap::new(),
            systems: BTreeMap::new(),
            jobs: BTreeMap::new(),
            runs: BTreeMap::new(),
            seasonal: BTreeMap::new(),
        }
    }

    /// Validates and evaluates one request against the held inputs and
    /// cells. Keys the context does not hold go to the estimator's stores
    /// and providers, so the report equals [`Estimator::estimate`]'s,
    /// byte for byte.
    ///
    /// # Errors
    /// The [`ApiError`]s of [`Estimator::estimate`].
    pub fn estimate(&self, req: &EstimateRequest) -> Result<FootprintReport, ApiError> {
        self.estimator.evaluate(&req.validate()?, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::{FlatIntensity, IntensityProvider};
    use hpcarbon_sched::Policy;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn req(seed: u64) -> EstimateRequest {
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.seed = seed;
        r.jobs = 10;
        r
    }

    fn spatio(seed: u64) -> EstimateRequest {
        let mut r = req(seed);
        r.policy = Policy::SpatioTemporal { slack_hours: 24 };
        r
    }

    /// A flat 250 g/kWh provider that counts the traces it hands out.
    struct CountingFlat(Arc<AtomicUsize>);

    impl IntensityProvider for CountingFlat {
        fn year_trace(
            &self,
            region: OperatorId,
            source: TraceSource,
            year: i32,
            seed: u64,
        ) -> Arc<IntensityTrace> {
            self.0.fetch_add(1, Ordering::Relaxed);
            FlatIntensity::new(250.0).year_trace(region, source, year, seed)
        }
    }

    fn counting_estimator() -> (Estimator, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let est = Estimator::builder()
            .intensity(CountingFlat(Arc::clone(&calls)))
            .threads(2)
            .build();
        (est, calls)
    }

    #[test]
    fn keys_are_pure_in_the_request() {
        assert_eq!(RequestKeys::of(&req(7)), RequestKeys::of(&req(7)));
        assert_ne!(
            RequestKeys::of(&req(7)).trace,
            RequestKeys::of(&req(8)).trace
        );
    }

    #[test]
    fn partner_key_tracks_policy_and_override() {
        let fifo = req(1);
        assert_eq!(RequestKeys::of(&fifo).partner_trace, None);
        let multi = spatio(1);
        let k = RequestKeys::of(&multi).partner_trace.unwrap();
        assert_eq!(k.0, OperatorId::Ciso);
        assert_eq!(k.3, RequestKeys::of(&multi).trace.3);
        // Any region other than GB pairs with GB.
        let mut miso = multi.clone();
        miso.region = OperatorId::Miso;
        let k = RequestKeys::of(&miso).partner_trace.unwrap();
        assert_eq!(k, (OperatorId::Eso, miso.source, miso.year, k.3));
        let mut forced = req(1);
        forced.partner = Some(true);
        assert!(RequestKeys::of(&forced).partner_trace.is_some());
        let mut off = multi.clone();
        off.partner = Some(false);
        assert_eq!(RequestKeys::of(&off).partner_trace, None);
    }

    #[test]
    fn trace_stats_median_is_the_boxplot_median() {
        for year in [2021, 2024] {
            let trace = hpcarbon_grid::synth::synthesize_year(OperatorId::Ciso, year, 11);
            assert_eq!(
                TraceStats::of(&trace).median_g_per_kwh.to_bits(),
                trace.boxplot().median.to_bits()
            );
        }
    }

    #[test]
    fn trace_stats_are_the_reference_stats_bit_for_bit() {
        let bits = |s: TraceStats| (s.median_g_per_kwh.to_bits(), s.cov_pct.to_bits());
        // The sorted boxplot median and the three-pass CoV.
        let reference = |t: &IntensityTrace| {
            (
                t.boxplot().median.to_bits(),
                stats::cov_percent(t.series().values()).to_bits(),
            )
        };
        for op in OperatorId::ALL {
            for year in [2020, 2021] {
                let trace = hpcarbon_grid::sim::simulate_year(op, year, 5);
                assert_eq!(
                    bits(TraceStats::of(&trace)),
                    reference(&trace),
                    "{op:?} {year}"
                );
            }
        }
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/traces/sample.csv"
        );
        let csv = std::fs::read_to_string(path).expect("the sample trace fixture");
        let sample = hpcarbon_grid::tracefile::parse_trace_csv(
            "sample.csv",
            &csv,
            hpcarbon_grid::tracefile::GapPolicy::Reject,
        )
        .expect("the sample trace parses")
        .trace;
        assert_eq!(bits(TraceStats::of(&sample)), reference(&sample));
    }

    #[test]
    fn context_for_calls_the_provider_once_per_distinct_key() {
        let (est, calls) = counting_estimator();
        let mut file = req(11);
        file.source = TraceSource::File;
        // Distinct non-file keys: GB under seed 7 (asked twice), GB
        // under seed 9 and its CA partner. The file key never reaches
        // the provider.
        let reqs = [req(7), req(7), spatio(9), file];
        let ctx = est.context_for(&reqs);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        let reports: Vec<_> = reqs.iter().map(|r| ctx.estimate(r)).collect();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            3,
            "a context hit called the provider"
        );
        for (r, rep) in reqs.iter().zip(&reports) {
            assert_eq!(*rep, est.estimate(r));
        }
        // The estimator's own provider answered: a flat 250 g/kWh grid.
        for rep in &reports[..3] {
            assert_eq!(rep.as_ref().unwrap().grid.median_g_per_kwh, 250.0);
        }
    }

    #[test]
    fn empty_context_misses_everything() {
        // `estimate` and `estimate_valid`, the server's miss path,
        // evaluate against an empty context: a key's first two requests
        // both ask the provider for its traces, because the trace store
        // admits a key only on its second miss.
        let (est, calls) = counting_estimator();
        for (r, traces) in [(req(7), 1), (req(7), 1), (spatio(9), 2)] {
            let before = calls.load(Ordering::Relaxed);
            est.estimate(&r).unwrap();
            assert_eq!(calls.load(Ordering::Relaxed) - before, traces);
        }
    }

    #[test]
    fn concurrent_misses_on_one_key_fill_the_store_once() {
        // After one miss on a key, eight threads estimating it at once
        // make exactly one more provider call: the one that fills the
        // store's cell for the key. The others wait for it and hit.
        let (est, calls) = counting_estimator();
        est.estimate(&req(7)).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let barrier = std::sync::Barrier::new(8);
        let reports: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        est.estimate(&req(7))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        let stats = est.store_stats().traces;
        assert_eq!((stats.builds, stats.hits, stats.entries), (2, 7, 1));
        for rep in &reports {
            assert_eq!(*rep, est.estimate(&req(7)));
        }
    }

    /// A request whose layers all reach their stores: a region-year run
    /// under a seasonal PUE.
    fn seasonal(seed: u64) -> EstimateRequest {
        let mut r = req(seed);
        r.pue = crate::types::PueSpec::Seasonal {
            mean: 1.2,
            amplitude: 0.1,
        };
        r
    }

    #[test]
    fn a_third_miss_calls_no_provider_and_is_answered_from_the_run_store() {
        // A spatio-temporal body: its run reads a partner trace too. The
        // first miss builds both traces, the run and the seasonal year
        // unkept; the second fills all four entries; the third takes each
        // layer from its store, so no provider runs and the partner trace
        // is never even looked up.
        let (est, calls) = counting_estimator();
        let mut r = seasonal(9);
        r.policy = Policy::SpatioTemporal { slack_hours: 24 };
        let first = est.estimate(&r).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(est.estimate(&r).unwrap(), first);
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        let before = est.store_stats();
        assert_eq!(est.estimate(&r).unwrap(), first);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            4,
            "a third miss built a trace"
        );
        let after = est.store_stats();
        let delta = |f: fn(&crate::store::StoreStats) -> crate::store::StoreCounters| {
            let (a, b) = (f(&after), f(&before));
            (a.hits - b.hits, a.builds - b.builds, a.entries)
        };
        assert_eq!(delta(|s| s.runs), (1, 0, 1), "the run came from the store");
        assert_eq!(delta(|s| s.seasonal), (1, 0, 1));
        assert_eq!(delta(|s| s.traces), (1, 0, 2), "only the primary's stats");
        // A fresh estimator, whose stores are empty, agrees.
        assert_eq!(counting_estimator().0.estimate(&r).unwrap(), first);
    }

    #[test]
    fn concurrent_misses_on_one_run_key_fill_its_cell_once() {
        // Eight bodies that differ only in fields the run does not read
        // share one run key and one region-year. After one miss, the eight
        // estimated at once run the scheduler exactly once more: the fill
        // of the run store's cell. The others wait for it and hit.
        let mut reqs = Vec::new();
        for system in [SystemId::Frontier, SystemId::Lumi] {
            for usage in [0.25, 0.5] {
                for mut r in [req(7), seasonal(7)] {
                    r.system = system;
                    r.usage = hpcarbon_units::Fraction::new(usage).unwrap();
                    reqs.push(r);
                }
            }
        }
        let (est, calls) = counting_estimator();
        est.estimate(&reqs[0]).unwrap();
        let barrier = std::sync::Barrier::new(reqs.len());
        let reports: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = reqs
                .iter()
                .map(|r| {
                    let (est, barrier) = (&est, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        est.estimate(r)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let runs = est.store_stats().runs;
        assert_eq!((runs.builds, runs.hits, runs.entries), (2, 7, 1));
        assert_eq!(calls.load(Ordering::Relaxed), 2, "one trace fill");
        let fresh = counting_estimator().0;
        for (r, rep) in reqs.iter().zip(&reports) {
            assert_eq!(*rep, fresh.estimate(r), "{r:?}");
        }
    }

    #[test]
    fn file_keys_are_never_sent_to_the_provider() {
        // DispatchIntensity panics on File keys by contract; the build
        // must filter them rather than forward them.
        let mut file_req = req(7);
        file_req.source = TraceSource::File;
        let est = Estimator::builder().threads(1).build();
        let ctx = est.context_for([&file_req, &req(9)]);
        assert_eq!(ctx.traces.len(), 1);
        assert!(!ctx.traces.contains_key(&RequestKeys::of(&file_req).trace));
    }
}
