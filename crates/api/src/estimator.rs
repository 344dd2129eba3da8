//! The estimator: one validated request in, one footprint report out.
//!
//! [`Estimator::estimate`] runs the paper's full pipeline (Eqs. 1–6)
//! against the configured providers:
//!
//! 1. embodied composition, with the storage what-if applied;
//! 2. the regional grid year from the [`IntensityProvider`];
//! 3. a scheduling run on a cluster powered by that grid (multi-region
//!    policies get a partner site), plus shift savings against the
//!    run-at-arrival baseline;
//! 4. PUE-adjusted annual accounting of one reference node;
//! 5. the upgrade question at the region's median intensity.
//!
//! ## Determinism
//!
//! Estimation is a **pure function of the request and the providers**.
//! All randomness forks off the request's seed through fixed substream
//! labels (`trace`, `jobs`) — never thread-local or shared state — and
//! [`Estimator::estimate_batch`] fans requests over
//! [`hpcarbon_sim::par::par_map_workers`], which returns results in input
//! order. Batch output (and its JSON emission) is therefore
//! **byte-identical for every thread count**; `tests/api_roundtrip.rs`
//! and the CI smoke job diff 1-thread against 4-thread runs.
//!
//! ## What outlives a request
//!
//! Each estimator owns a bounded [`crate::store`] of region-year traces.
//! A single evaluation ([`Estimator::estimate`],
//! [`Estimator::estimate_valid`]) takes a trace from it before asking
//! the intensity provider, so a server that answers many misses against
//! a few region-years builds each one about twice, not once per miss.
//! An entry is exactly what the pure provider returned, so the store
//! changes latency, never bytes.

use crate::context::{
    EstimateContext, RequestKeys, RunKey, RunOutcome, SeasonalKey, TraceKey, TraceStats,
};
use crate::error::ApiError;
use crate::providers::{
    CatalogEmbodied, DispatchIntensity, EmbodiedSource, GeneratedJobs, IntensityProvider,
    JobSource, PueProvider, RequestPue,
};
use crate::report::{FootprintReport, OperationalSection, ShiftSection, Verdict};
use crate::request::{EstimateRequest, ValidRequest};
use crate::store::{TraceStore, TraceStoreStats};
use crate::types::{ForecastModel, PueSpec, StorageVariant, TraceSource};
use hpcarbon_core::db::PartId;
use hpcarbon_core::operational::Pue;
use hpcarbon_core::systems::HpcSystem;
use hpcarbon_core::whatif::swap_storage_tier;
use hpcarbon_grid::forecast::{
    day_ahead_harmonic_forecast, noisy_oracle_forecast, persistence_forecast,
};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_power::pue_model::{account_with_seasonal_pue, SeasonalPue};
use hpcarbon_sched::{shift_savings, summarize_shift_savings, Cluster, Policy, Simulation};
use hpcarbon_sim::par::{par_map_workers, worker_count};
use hpcarbon_sim::rng::SimRng;
use hpcarbon_units::{CarbonIntensity, Energy, TimeSpan};
use hpcarbon_upgrade::savings::UpgradeScenario;
use hpcarbon_upgrade::{Recommendation, UpgradeAdvisor};
use hpcarbon_workloads::power::node_active_power;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The span layer 4 accounts one reference node over.
const YEAR: TimeSpan = TimeSpan::from_years(1.0);

/// Assembles an [`Estimator`] from providers; every axis defaults to the
/// in-repo models.
pub struct EstimatorBuilder {
    intensity: Box<dyn IntensityProvider>,
    embodied: Box<dyn EmbodiedSource>,
    threads: Option<usize>,
    trace_files: BTreeMap<OperatorId, Arc<IntensityTrace>>,
}

impl EstimatorBuilder {
    /// Swaps the intensity provider.
    pub fn intensity(mut self, p: impl IntensityProvider + 'static) -> EstimatorBuilder {
        self.intensity = Box::new(p);
        self
    }

    /// Swaps the embodied-inventory source.
    pub fn embodied(mut self, p: impl EmbodiedSource + 'static) -> EstimatorBuilder {
        self.embodied = Box::new(p);
        self
    }

    /// Forces the worker count of batches and of context builds (1 =
    /// serial reference run); the default uses the available
    /// parallelism.
    pub fn threads(mut self, n: usize) -> EstimatorBuilder {
        self.threads = Some(n.max(1));
        self
    }

    /// Registers a measured trace (typically loaded with
    /// [`hpcarbon_grid::load_trace_file`]) as the region's
    /// [`TraceSource::File`] trace. Requests asking for `"trace": "file"`
    /// in this region resolve to it — bypassing the intensity provider —
    /// and requests for regions without a registered file fail with a
    /// typed error. Registering a region twice replaces the earlier
    /// trace.
    pub fn trace_file(
        mut self,
        region: OperatorId,
        trace: impl Into<Arc<IntensityTrace>>,
    ) -> EstimatorBuilder {
        self.trace_files.insert(region, trace.into());
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Estimator {
        Estimator {
            intensity: self.intensity,
            embodied: self.embodied,
            threads: self.threads,
            trace_files: self.trace_files,
            store: TraceStore::default(),
        }
    }
}

/// The single front door to the estimation stack.
///
/// ```
/// use hpcarbon_api::{Estimator, EstimateRequest, SystemId};
/// use hpcarbon_grid::regions::OperatorId;
///
/// let est = Estimator::builder().build();
/// let req = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
/// let report = est.estimate(&req).unwrap();
/// assert!(report.embodied.total_t > 1000.0);
/// assert!(report.operational.sched_kg > 0.0);
/// ```
pub struct Estimator {
    intensity: Box<dyn IntensityProvider>,
    embodied: Box<dyn EmbodiedSource>,
    threads: Option<usize>,
    trace_files: BTreeMap<OperatorId, Arc<IntensityTrace>>,
    store: TraceStore,
}

impl Estimator {
    /// Starts a builder with the default providers ([`DispatchIntensity`],
    /// [`CatalogEmbodied`]). PUE and job traces always come from
    /// [`RequestPue`] and [`GeneratedJobs`].
    pub fn builder() -> EstimatorBuilder {
        EstimatorBuilder {
            intensity: Box::new(DispatchIntensity),
            embodied: Box::new(CatalogEmbodied),
            threads: None,
            trace_files: BTreeMap::new(),
        }
    }

    /// Derives the inputs behind `reqs` once per distinct key, from
    /// **this estimator's own providers**, and returns the context that
    /// evaluates requests through this estimator against them — the
    /// property that makes a context transparent. Pass every request the
    /// context will see; any other request still evaluates, through the
    /// providers.
    ///
    /// Distinct traces, one dispatch simulation each, build in parallel
    /// over the configured thread count. File-sourced keys are skipped:
    /// the registered trace files already hold them. So are requests
    /// that fail [`EstimateRequest::validate`]: they never reach
    /// evaluation, and generating an oversized job trace could exhaust
    /// memory. The estimator's trace store is neither read nor filled.
    ///
    /// The context also gets one empty cell per distinct scheduling run
    /// (layer 3) and per distinct seasonal-PUE year (layer 4) among the
    /// requests. The first evaluation that reaches a cell's layer fills
    /// it, so only the runs some row reaches are computed, each once.
    pub fn context_for(
        &self,
        reqs: impl IntoIterator<Item = impl Borrow<EstimateRequest>>,
    ) -> EstimateContext<'_> {
        let mut ctx = EstimateContext::new(self);
        let mut trace_keys = BTreeSet::new();
        for req in reqs {
            let r = req.borrow();
            if r.validate().is_err() {
                continue;
            }
            let k = RequestKeys::of(r);
            let traces = std::iter::once(k.trace).chain(k.partner_trace);
            trace_keys.extend(traces.filter(|key| key.1 != TraceSource::File));
            ctx.jobs
                .entry(k.jobs)
                .or_insert_with(|| GeneratedJobs.job_trace(k.jobs.0, k.jobs.1));
            ctx.systems
                .entry(k.system)
                .or_insert_with(|| self.embodied.build_system(k.system));
            let (run, seasonal) = cell_keys(r, &k, RequestPue.resolve(r.pue));
            ctx.runs.entry(run).or_default();
            if let Some(seasonal) = seasonal {
                ctx.seasonal.entry(seasonal).or_default();
            }
        }
        let trace_keys: Vec<TraceKey> = trace_keys.into_iter().collect();
        let workers = self
            .threads
            .unwrap_or_else(|| worker_count(trace_keys.len()));
        let built = par_map_workers(&trace_keys, workers, |_, &(region, source, year, seed)| {
            let trace = self.intensity.year_trace(region, source, year, seed);
            let stats = TraceStats::of(&trace);
            (trace, stats)
        });
        ctx.traces = trace_keys.into_iter().zip(built).collect();
        ctx
    }

    /// Validates and evaluates one request.
    ///
    /// # Errors
    /// [`ApiError`] when the request is invalid or the combination is
    /// infeasible (storage what-if without a source tier, oversized
    /// shifting slack, …). Errors are values — batch callers record the
    /// error row and keep going.
    pub fn estimate(&self, req: &EstimateRequest) -> Result<FootprintReport, ApiError> {
        let valid = req.validate()?;
        self.estimate_valid(&valid)
    }

    /// Evaluates an already-validated request, skipping re-validation —
    /// the entry point for callers that need the [`ValidRequest`] anyway
    /// (the serving layer derives its cache key from it). Same pipeline,
    /// same bytes as [`Estimator::estimate`]. Both evaluate against an
    /// empty context: traces come from the estimator's trace store or
    /// its intensity provider, every other input from the providers, and
    /// with no cells every layer runs. Only the store keeps anything for
    /// the next request.
    ///
    /// # Errors
    /// [`ApiError`] when the (valid) combination is infeasible at
    /// evaluation time — storage what-if without a source tier,
    /// oversized shifting slack, a provider returning an unphysical PUE.
    pub fn estimate_valid(&self, valid: &ValidRequest) -> Result<FootprintReport, ApiError> {
        self.evaluate(valid, &EstimateContext::new(self))
    }

    /// Evaluates a batch in parallel, one result per request, **in
    /// request order**. Infeasible requests become error entries; the
    /// batch always completes. Output is byte-identical for every
    /// configured thread count.
    ///
    /// Each call first derives the batch's shared inputs (traces,
    /// inventories, job traces, and the cells of its distinct scheduling
    /// runs and seasonal-PUE years) into one [`EstimateContext`] — a pure
    /// cache, so batch bytes are unchanged by it.
    pub fn estimate_batch(
        &self,
        reqs: &[EstimateRequest],
    ) -> Vec<Result<FootprintReport, ApiError>> {
        let ctx = self.context_for(reqs);
        let workers = self.threads.unwrap_or_else(|| worker_count(reqs.len()));
        par_map_workers(reqs, workers, |_, req| ctx.estimate(req))
    }

    /// What the trace store has done so far: hits, provider builds and
    /// the entries it holds now (the server's `trace_store_*` metrics).
    pub fn trace_store_stats(&self) -> TraceStoreStats {
        self.store.stats()
    }

    /// The trace for `key`, with its stats when a context or the store
    /// kept them. File-sourced keys resolve from the registered trace
    /// files (never a provider); everything else is a context hit, a
    /// trace-store hit, or the intensity provider.
    ///
    /// # Errors
    /// [`ApiError::InvalidRequest`] when a file-sourced key has no
    /// registered trace for its region, or the registered trace covers a
    /// different year than the request asks for.
    fn trace_for(
        &self,
        ctx: &EstimateContext<'_>,
        key: &TraceKey,
    ) -> Result<(Arc<IntensityTrace>, Option<TraceStats>), ApiError> {
        if key.1 == TraceSource::File {
            let trace = self
                .trace_files
                .get(&key.0)
                .ok_or(ApiError::InvalidRequest {
                    field: "trace",
                    reason: "no trace file registered for this region",
                })?;
            if trace.series().year() != key.2 {
                return Err(ApiError::InvalidRequest {
                    field: "year",
                    reason: "does not match the registered trace file's year",
                });
            }
            return Ok((Arc::clone(trace), None));
        }
        if let Some((trace, stats)) = ctx.traces.get(key) {
            return Ok((Arc::clone(trace), Some(*stats)));
        }
        Ok(self.store.trace(*key, || {
            self.intensity.year_trace(key.0, key.1, key.2, key.3)
        }))
    }

    /// The five-layer pipeline. Mirrors the historical
    /// `sweep::run_scenario` computation exactly — the sweep now delegates
    /// here, and its CSV/JSON output is a frozen contract. Every `ctx`
    /// lookup falls back to the trace store or the provider, each
    /// holding or computing the identical value, and a layer without a
    /// cell in `ctx` runs; so neither changes bytes, only latency. `ctx`
    /// is always one this estimator built.
    pub(crate) fn evaluate(
        &self,
        v: &ValidRequest,
        ctx: &EstimateContext<'_>,
    ) -> Result<FootprintReport, ApiError> {
        let r = v.request();
        let pue = RequestPue.resolve(r.pue);
        // The resolved model passes the same gate as a request's.
        pue.validate()?;
        let keys = RequestKeys::of(r);
        let (run_key, seasonal_key) = cell_keys(r, &keys, pue);

        // Layer 1: embodied composition, with the storage what-if applied.
        let built_system;
        let base: &HpcSystem = match ctx.systems.get(&r.system) {
            Some(s) => s,
            None => {
                built_system = self.embodied.build_system(r.system);
                &built_system
            }
        };
        let (embodied_t, storage_delta_pct) = match r.storage {
            StorageVariant::Baseline => (base.embodied_total().as_t(), None),
            StorageVariant::AllFlash => {
                let ssd = self.embodied.part_spec(PartId::Ssd3_2tb);
                let w = swap_storage_tier(base, PartId::Hdd16tb, ssd)?;
                let delta = w.relative_change() * 100.0;
                (w.system.embodied_total().as_t(), Some(delta))
            }
        };

        // Layer 2: the regional grid year, from this request's own stream.
        let (trace, stats) = self.trace_for(ctx, &keys.trace)?;
        let stats = stats.unwrap_or_else(|| TraceStats::of(&trace));
        let median = CarbonIntensity::from_g_per_kwh(stats.median_g_per_kwh);

        // Layer 3: the scheduling run, once per run key the context holds.
        let run = || self.schedule(ctx, r, &keys, pue, &trace);
        let (operational, shift) = match ctx.runs.get(&run_key) {
            Some(cell) => cell.get_or_init(run).clone(),
            None => run(),
        }?;

        // Layer 4: PUE-adjusted annual accounting of one reference node,
        // the seasonal year once per seasonal key the context holds.
        let it_energy = node_it_energy(r);
        let node_annual_kg = match pue {
            PueSpec::Constant(v) => (median * Pue::new(v).apply(it_energy)).as_kg(),
            PueSpec::Seasonal { mean, amplitude } => {
                // validate() above guarantees SeasonalPue's invariants.
                let account = || {
                    let seasonal = SeasonalPue::new(mean, amplitude);
                    account_with_seasonal_pue(&trace, &seasonal, 0, it_energy, YEAR).as_kg()
                };
                match seasonal_key.and_then(|k| ctx.seasonal.get(&k)) {
                    Some(cell) => *cell.get_or_init(account),
                    None => account(),
                }
            }
        };

        // Layer 5: the upgrade question at the region's median intensity.
        let upgrade = UpgradeScenario {
            old: r.upgrade.from,
            new: r.upgrade.to,
            suite: r.upgrade.suite,
            usage: r.usage,
            pue: Pue::new(pue.mean_value()),
        };
        let verdict = match UpgradeAdvisor::with_five_year_horizon().recommend(&upgrade, median) {
            Recommendation::Upgrade { .. } => Verdict::Upgrade,
            Recommendation::ExtendLifetime { .. } => Verdict::Extend,
            Recommendation::KeepHardware => Verdict::Keep,
        };

        Ok(FootprintReport {
            schema_version: crate::request::SCHEMA_VERSION,
            request: r.clone(),
            embodied: crate::report::EmbodiedSection {
                total_t: embodied_t,
                storage_delta_pct,
            },
            grid: crate::report::GridSection {
                median_g_per_kwh: stats.median_g_per_kwh,
                cov_pct: stats.cov_pct,
            },
            operational,
            shift,
            upgrade: crate::report::UpgradeSection {
                node_annual_kg,
                break_even_y: upgrade.break_even(median).map(|t| t.as_years()),
                asymptotic_pct: upgrade.asymptotic_savings_percent(),
                verdict,
            },
        })
    }

    /// Layer 3: the scheduling run on a cluster powered by `trace`, and
    /// its carbon savings against the run-at-arrival baseline. It reads
    /// exactly the fields of `r`'s [`RunKey`].
    fn schedule(
        &self,
        ctx: &EstimateContext<'_>,
        r: &EstimateRequest,
        keys: &RequestKeys,
        pue: PueSpec,
        trace: &Arc<IntensityTrace>,
    ) -> RunOutcome {
        let mut cluster = Cluster::new(r.region.info().short, trace.clone(), r.cluster_gpus);
        cluster.pue = pue.mean_value();
        let mut clusters = vec![cluster];
        // By default multi-region policies get a partner site (otherwise
        // the spatial axis would silently degenerate to the temporal one
        // in these single-region requests) and single-region policies
        // don't; `request.partner` forces it either way so a policy
        // comparison can hold the topology fixed. `RequestKeys::of` holds
        // both rules and picks the partner region; its cluster is built
        // from the same provider, seed stream and PUE — so the estimate
        // stays a pure function of the request and the providers.
        if let Some(pk) = keys.partner_trace {
            let (partner_trace, _) = self.trace_for(ctx, &pk)?;
            let mut partner = Cluster::new(pk.0.info().short, partner_trace, r.cluster_gpus);
            partner.pue = pue.mean_value();
            clusters.push(partner);
        }
        let jobs = match ctx.jobs.get(&keys.jobs) {
            Some(jobs) => Arc::clone(jobs),
            None => GeneratedJobs.job_trace(keys.jobs.0, keys.jobs.1),
        };
        // The oracle run: policies plan on the actual trace — perfect
        // future knowledge, the numbers the paper reports.
        let oracle_sim = Simulation::multi_region(clusters.clone(), r.policy, &jobs).try_run()?;
        let oracle_savings = summarize_shift_savings(&shift_savings(&oracle_sim, &jobs, &clusters));
        // Under a forecast, decisions re-run against the planning trace
        // while carbon stays realized against the actual trace, and the
        // oracle numbers ride along for the realized-vs-oracle columns.
        // Each cluster forecasts its own grid off the request's
        // `forecast` substream, forked per cluster position so the
        // partner's noise is independent of the primary's.
        let (sim, savings, oracle) = match r.forecast {
            None => (oracle_sim, oracle_savings, None),
            Some(model) => {
                let base = forecast_stream(r);
                let planned: Vec<Cluster> = clusters
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let f = forecast_trace(model, &c.trace, base.fork(i as u64).seed());
                        c.clone().with_forecast(f)
                    })
                    .collect();
                let sim = Simulation::multi_region(planned.clone(), r.policy, &jobs).try_run()?;
                let savings = summarize_shift_savings(&shift_savings(&sim, &jobs, &planned));
                (sim, savings, Some(oracle_savings))
            }
        };
        Ok((
            OperationalSection {
                sched_kg: sim.total_carbon.as_kg(),
                sched_kwh: sim.total_energy.as_kwh(),
                mean_wait_h: sim.mean_wait_hours,
                max_wait_h: sim.max_wait_hours,
            },
            ShiftSection {
                saved_kg: savings.saved_kg,
                saved_pct: savings.saved_pct,
                oracle_saved_kg: oracle.as_ref().map(|o| o.saved_kg),
                oracle_saved_pct: oracle.as_ref().map(|o| o.saved_pct),
            },
        ))
    }
}

/// The cell keys of `r`'s scheduling run and, under a seasonal model,
/// its seasonal-PUE year, for the keys `keys` and the resolved PUE
/// `pue`. This is the one place the keys are written:
/// [`Estimator::context_for`] creates cells under them and
/// [`Estimator::evaluate`] looks them up, so each key holds exactly what
/// its layer reads. Constant PUE is a single multiply and gets no cell.
fn cell_keys(
    r: &EstimateRequest,
    keys: &RequestKeys,
    pue: PueSpec,
) -> (RunKey, Option<SeasonalKey>) {
    let policy = match r.policy {
        Policy::Fifo => (0, 0),
        Policy::ThresholdDefer {
            threshold_g_per_kwh,
        } => (1, threshold_g_per_kwh.to_bits()),
        Policy::GreenestWindow { horizon_hours } => (2, u64::from(horizon_hours)),
        Policy::LowestIntensityRegion => (3, 0),
        Policy::RegionAndTime { horizon_hours } => (4, u64::from(horizon_hours)),
        Policy::TemporalShift { slack_hours } => (5, u64::from(slack_hours)),
        Policy::SpatioTemporal { slack_hours } => (6, u64::from(slack_hours)),
    };
    let run = RunKey {
        trace: keys.trace,
        partner_trace: keys.partner_trace,
        jobs: keys.jobs,
        cluster_gpus: r.cluster_gpus,
        pue_mean: pue.mean_value().to_bits(),
        policy,
        forecast: r.forecast.map(|m| (m, forecast_stream(r).seed())),
    };
    let seasonal = match pue {
        PueSpec::Constant(_) => None,
        PueSpec::Seasonal { mean, amplitude } => Some(SeasonalKey {
            trace: keys.trace,
            pue: (mean.to_bits(), amplitude.to_bits()),
            it_energy: node_it_energy(r).as_kwh().to_bits(),
        }),
    };
    (run, seasonal)
}

/// The request's `forecast` substream, which each cluster's forecast
/// noise forks from.
fn forecast_stream(r: &EstimateRequest) -> SimRng {
    SimRng::seed_from(r.seed).substream("forecast")
}

/// The reference node's annual IT energy, which layer 4 prices.
fn node_it_energy(r: &EstimateRequest) -> Energy {
    node_active_power(r.upgrade.from, r.upgrade.suite) * r.usage.value() * YEAR
}

/// Builds the planning trace for one cluster's actual grid under
/// `model`. The oracle shares the actual trace's `Arc`, so its planned
/// run is bit-for-bit the perfect-knowledge run.
fn forecast_trace(
    model: ForecastModel,
    actual: &Arc<IntensityTrace>,
    seed: u64,
) -> Arc<IntensityTrace> {
    match model {
        ForecastModel::Oracle => Arc::clone(actual),
        ForecastModel::Persistence => Arc::new(persistence_forecast(actual)),
        ForecastModel::DayAhead => Arc::new(day_ahead_harmonic_forecast(actual)),
        ForecastModel::Noisy { error_pct } => {
            Arc::new(noisy_oracle_forecast(actual, error_pct, seed))
        }
    }
}

impl Default for Estimator {
    fn default() -> Estimator {
        Estimator::builder().build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::FlatIntensity;
    use crate::store;
    use crate::types::{SystemId, UpgradePath};
    use hpcarbon_grid::regions::OperatorId;
    use hpcarbon_sched::Policy;
    use hpcarbon_workloads::benchmarks::Suite;
    use hpcarbon_workloads::nodes::NodeGen;

    fn req() -> EstimateRequest {
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.jobs = 40;
        r
    }

    #[test]
    fn baseline_estimate_is_physical() {
        let rep = Estimator::default().estimate(&req()).unwrap();
        assert!(rep.embodied.total_t > 1000.0);
        assert!(rep.embodied.storage_delta_pct.is_none());
        assert!(rep.grid.median_g_per_kwh > 0.0);
        assert!(rep.operational.sched_kg > 0.0);
        assert!(rep.upgrade.node_annual_kg > 0.0);
        assert_eq!(rep.upgrade.verdict, Verdict::Upgrade);
    }

    #[test]
    fn estimate_is_deterministic() {
        let est = Estimator::default();
        let a = est.estimate(&req()).unwrap();
        let b = est.estimate(&req()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let reqs: Vec<EstimateRequest> = [2021u64, 7, 13]
            .into_iter()
            .map(|seed| {
                let mut r = req();
                r.seed = seed;
                r
            })
            .collect();
        let serial = Estimator::builder()
            .threads(1)
            .build()
            .estimate_batch(&reqs);
        let parallel = Estimator::builder()
            .threads(8)
            .build()
            .estimate_batch(&reqs);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn infeasible_requests_fail_soft_in_batches() {
        let mut bad = req();
        bad.system = SystemId::Perlmutter;
        bad.storage = crate::types::StorageVariant::AllFlash;
        let out = Estimator::default().estimate_batch(&[req(), bad]);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(ApiError::WhatIf(_))));
    }

    #[test]
    fn oversized_slack_is_a_sched_error() {
        let mut r = req();
        r.policy = Policy::TemporalShift { slack_hours: 9000 };
        assert!(matches!(
            Estimator::default().estimate(&r).unwrap_err(),
            ApiError::Sched(hpcarbon_sched::SimError::ShiftSlackExceedsTrace { .. })
        ));
    }

    #[test]
    fn custom_intensity_provider_plugs_in() {
        let mut r = req();
        r.upgrade = UpgradePath {
            from: NodeGen::V100Node,
            to: NodeGen::A100Node,
            suite: Suite::Nlp,
        };
        let flat = Estimator::builder()
            .intensity(FlatIntensity::new(250.0))
            .build()
            .estimate(&r)
            .unwrap();
        assert_eq!(flat.grid.median_g_per_kwh, 250.0);
        assert_eq!(flat.grid.cov_pct, 0.0);
        // Synthetic vs paper makes no difference to a flat provider.
        r.source = TraceSource::Synthetic;
        let flat2 = Estimator::builder()
            .intensity(FlatIntensity::new(250.0))
            .build()
            .estimate(&r)
            .unwrap();
        assert_eq!(flat.operational.sched_kg, flat2.operational.sched_kg);
    }

    #[test]
    fn partner_override_fixes_the_topology() {
        let est = Estimator::default();
        // Forcing the partner onto a single-region policy changes the
        // cluster set (jobs spread over two sites), so the default and
        // forced runs must differ…
        let default_fifo = est.estimate(&req()).unwrap();
        let mut forced = req();
        forced.partner = Some(true);
        let forced_fifo = est.estimate(&forced).unwrap();
        assert_ne!(
            default_fifo.operational.sched_kg,
            forced_fifo.operational.sched_kg
        );
        // …while Some(false) on a single-region policy computes exactly
        // the default numbers (only the echoed request differs).
        let mut off = req();
        off.partner = Some(false);
        let off_fifo = est.estimate(&off).unwrap();
        assert_eq!(off_fifo.operational, default_fifo.operational);
        assert_eq!(off_fifo.shift, default_fifo.shift);
        assert_eq!(off_fifo.upgrade, default_fifo.upgrade);
        // A multi-region policy with the partner forced off still runs
        // (the spatial axis degenerates to a single site).
        let mut lone = req();
        lone.policy = Policy::SpatioTemporal { slack_hours: 24 };
        lone.partner = Some(false);
        assert!(est.estimate(&lone).is_ok());
    }

    #[test]
    fn context_never_changes_reported_bytes() {
        let est = Estimator::builder().threads(1).build();
        let mut reqs: Vec<EstimateRequest> = Vec::new();
        for seed in [2021u64, 7] {
            for policy in [Policy::Fifo, Policy::SpatioTemporal { slack_hours: 24 }] {
                let mut r = req();
                r.seed = seed;
                r.policy = policy;
                reqs.push(r);
            }
        }
        let without: Vec<_> = reqs.iter().map(|r| est.estimate(r)).collect();
        let ctx = est.context_for(&reqs);
        assert_eq!(ctx.traces.len(), 4); // 2 seeds × {Eso, Ciso partner}
        let with_ctx: Vec<_> = reqs.iter().map(|r| ctx.estimate(r)).collect();
        assert_eq!(with_ctx, without);
        // A context holding one request's keys answers the others
        // through the providers, with the same bytes.
        let partial = est.context_for([&reqs[0]]);
        let mixed: Vec<_> = reqs.iter().map(|r| partial.estimate(r)).collect();
        assert_eq!(mixed, without);

        // The cells: each variant differs from a seasonal base in one
        // field. Through one context, in either order, every report
        // equals the empty-context report: a key that dropped the field
        // would hand the second request of a pair the first one's
        // numbers.
        let variants = cell_key_variants();
        let reqs: Vec<&EstimateRequest> = variants.iter().map(|(_, r)| r).collect();
        let without: Vec<_> = reqs.iter().map(|r| est.estimate(r).unwrap()).collect();
        // The pairs are sharp: a run-key variant's run numbers are its
        // own, and a seasonal-key variant moves only the seasonal year.
        let runs: Vec<_> = without.iter().map(|r| (&r.operational, &r.shift)).collect();
        let node_kg = |i: usize| without[i].upgrade.node_annual_kg;
        for (i, (layer, r)) in variants.iter().enumerate() {
            let sharing = runs.iter().filter(|&&run| run == runs[i]).count();
            match layer {
                Some(3) => assert_eq!(sharing, 1, "{r:?} does not move its run"),
                Some(4) => assert!(runs[i] == runs[0] && node_kg(i) != node_kg(0), "{r:?}"),
                _ => assert_eq!(runs[i], runs[0], "{r:?} moves the run"),
            }
        }
        let forward = est.context_for(reqs.iter().copied());
        for (r, rep) in reqs.iter().zip(&without) {
            assert_eq!(forward.estimate(r).as_ref(), Ok(rep), "{r:?}");
        }
        let backward = est.context_for(reqs.iter().copied());
        for (r, rep) in reqs.iter().zip(&without).rev() {
            assert_eq!(backward.estimate(r).as_ref(), Ok(rep), "{r:?}");
        }
        // Twelve runs: the base and its eleven run-key variants. Seven
        // seasonal years: the base's, shared by every variant that keeps
        // its trace, PUE model and node, and six of their own.
        assert_eq!((forward.runs.len(), forward.seasonal.len()), (12, 7));
    }

    /// A seasonal base request and one variant per field a cell key
    /// holds (or is derived from), each paired with the layer whose
    /// numbers the field moves: 3 for a run key, 4 for a seasonal key,
    /// `None` for a field the layers do not read.
    fn cell_key_variants() -> Vec<(Option<u8>, EstimateRequest)> {
        let mut base = req();
        base.pue = PueSpec::Seasonal {
            mean: 1.2,
            amplitude: 0.1,
        };
        base.policy = Policy::ThresholdDefer {
            threshold_g_per_kwh: 150.0,
        };
        let vary = |layer: Option<u8>, f: &dyn Fn(&mut EstimateRequest)| {
            let mut r = base.clone();
            f(&mut r);
            (layer, r)
        };
        vec![
            (None, base.clone()),
            vary(Some(3), &|r| r.cluster_gpus = 8),
            vary(Some(3), &|r| {
                r.policy = Policy::ThresholdDefer {
                    threshold_g_per_kwh: 155.0,
                }
            }),
            vary(Some(3), &|r| {
                r.policy = Policy::GreenestWindow { horizon_hours: 24 }
            }),
            vary(Some(3), &|r| {
                r.policy = Policy::GreenestWindow { horizon_hours: 12 }
            }),
            vary(Some(3), &|r| {
                r.pue = PueSpec::Seasonal {
                    mean: 1.3,
                    amplitude: 0.1,
                }
            }),
            vary(None, &|r| r.pue = PueSpec::Constant(1.2)),
            vary(Some(4), &|r| {
                r.pue = PueSpec::Seasonal {
                    mean: 1.2,
                    amplitude: 0.15,
                }
            }),
            vary(Some(4), &|r| {
                r.usage = hpcarbon_units::Fraction::new(0.25).unwrap()
            }),
            vary(Some(4), &|r| r.upgrade.from = NodeGen::P100Node),
            vary(None, &|r| r.upgrade.suite = Suite::Vision),
            vary(Some(3), &|r| r.jobs = 41),
            vary(Some(3), &|r| r.partner = Some(true)),
            vary(Some(3), &|r| r.source = TraceSource::Synthetic),
            vary(Some(3), &|r| r.forecast = Some(ForecastModel::Persistence)),
            vary(Some(3), &|r| {
                r.forecast = Some(ForecastModel::Noisy { error_pct: 20 })
            }),
            vary(Some(3), &|r| {
                r.forecast = Some(ForecastModel::Noisy { error_pct: 20 });
                r.seed = 7;
            }),
        ]
    }

    /// The paper grid's shape at 8 jobs: Table 2's systems × storage ×
    /// the seven regions × {constant, seasonal} PUE × three policies ×
    /// two upgrade paths, 504 requests.
    fn paper_shaped_batch() -> Vec<EstimateRequest> {
        let mut reqs = Vec::new();
        for system in SystemId::ALL {
            for storage in crate::types::StorageVariant::ALL {
                for region in OperatorId::ALL {
                    for pue in [
                        PueSpec::Constant(1.2),
                        PueSpec::Seasonal {
                            mean: 1.2,
                            amplitude: 0.1,
                        },
                    ] {
                        for policy in [
                            Policy::Fifo,
                            Policy::GreenestWindow { horizon_hours: 24 },
                            Policy::ThresholdDefer {
                                threshold_g_per_kwh: 150.0,
                            },
                        ] {
                            for (from, suite) in [
                                (NodeGen::P100Node, Suite::Nlp),
                                (NodeGen::V100Node, Suite::Vision),
                            ] {
                                let mut r = EstimateRequest::paper_baseline(system, region);
                                r.storage = storage;
                                r.pue = pue;
                                r.policy = policy;
                                r.upgrade.from = from;
                                r.upgrade.suite = suite;
                                r.jobs = 8;
                                reqs.push(r);
                            }
                        }
                    }
                }
            }
        }
        reqs
    }

    fn filled<K, V>(cells: &BTreeMap<K, std::sync::OnceLock<V>>) -> usize {
        cells.values().filter(|c| c.get().is_some()).count()
    }

    #[test]
    fn a_paper_batch_runs_each_distinct_schedule_and_seasonal_year_once() {
        let reqs = paper_shaped_batch();
        assert_eq!(reqs.len(), 504);
        let est = Estimator::builder().threads(1).build();
        let ctx = est.context_for(&reqs);
        // 7 regions × 3 policies; 7 regions × 2 node energies.
        assert_eq!((ctx.runs.len(), ctx.seasonal.len()), (21, 14));
        assert_eq!((filled(&ctx.runs), filled(&ctx.seasonal)), (0, 0));
        for r in &reqs {
            assert_eq!(ctx.estimate(r), est.estimate(r), "{r:?}");
        }
        assert_eq!((filled(&ctx.runs), filled(&ctx.seasonal)), (21, 14));
    }

    #[test]
    fn concurrent_rows_on_one_run_key_share_one_fill() {
        // Eight rows that differ only in fields the run does not read
        // reach their one empty run cell at once.
        let mut reqs = Vec::new();
        for system in [SystemId::Frontier, SystemId::Lumi] {
            for from in [NodeGen::P100Node, NodeGen::V100Node] {
                for pue in [
                    PueSpec::Constant(1.2),
                    PueSpec::Seasonal {
                        mean: 1.2,
                        amplitude: 0.1,
                    },
                ] {
                    let mut r = req();
                    r.system = system;
                    r.upgrade.from = from;
                    r.pue = pue;
                    r.policy = Policy::GreenestWindow { horizon_hours: 24 };
                    reqs.push(r);
                }
            }
        }
        let est = Estimator::builder().threads(1).build();
        let ctx = est.context_for(&reqs);
        assert_eq!(ctx.runs.len(), 1);
        let barrier = std::sync::Barrier::new(reqs.len());
        let reports: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = reqs
                .iter()
                .map(|r| {
                    let (ctx, barrier) = (&ctx, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        ctx.estimate(r)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(filled(&ctx.runs), 1);
        for (r, rep) in reqs.iter().zip(&reports) {
            assert_eq!(*rep, est.estimate(r));
            assert_eq!(
                rep.as_ref().unwrap().operational,
                reports[0].as_ref().unwrap().operational
            );
        }
    }

    #[test]
    fn a_warm_store_never_changes_reported_bytes() {
        // Every region under both generated sources and three seeds, plus
        // a spatio-temporal request whose partner trace also goes through
        // the store: the third estimate of a request is a store hit, and
        // it must equal a fresh estimator's report.
        let est = Estimator::builder().threads(1).build();
        let mut reqs = Vec::new();
        for region in OperatorId::ALL {
            for source in [TraceSource::Paper, TraceSource::Synthetic] {
                for seed in [2021u64, 7, 1 << 40] {
                    let mut r = req();
                    r.region = region;
                    r.source = source;
                    r.seed = seed;
                    r.jobs = 8;
                    reqs.push(r);
                }
            }
        }
        let mut spatio = req();
        spatio.policy = Policy::SpatioTemporal { slack_hours: 24 };
        spatio.seed = 99;
        reqs.push(spatio);
        for r in &reqs {
            let fresh = Estimator::default().estimate(r);
            let hits = est.trace_store_stats().hits;
            for _ in 0..3 {
                assert_eq!(est.estimate(r), fresh, "{r:?}");
            }
            let traces = 1 + u64::from(RequestKeys::of(r).partner_trace.is_some());
            assert_eq!(est.trace_store_stats().hits - hits, traces, "{r:?}");
        }
        assert_eq!(est.trace_store_stats().entries, store::CAPACITY);
    }

    #[test]
    fn batches_leave_the_store_alone_and_skip_oversized_job_traces() {
        let est = Estimator::builder().threads(1).build();
        let mut huge = req();
        huge.jobs = 1_000_000_000_000;
        let out = est.estimate_batch(&[req(), req(), huge.clone()]);
        assert!(out[0].is_ok() && out[1].is_ok());
        assert!(matches!(
            out[2],
            Err(ApiError::InvalidRequest { field: "jobs", .. })
        ));
        assert_eq!(est.trace_store_stats(), TraceStoreStats::default());
        // A request that fails validation leaves no trace in a context.
        let ctx = est.context_for([&huge]);
        assert!(ctx.traces.is_empty() && ctx.jobs.is_empty() && ctx.systems.is_empty());
        assert!(ctx.runs.is_empty() && ctx.seasonal.is_empty());
    }

    #[test]
    fn oracle_forecast_realizes_the_oracle_numbers() {
        // The acceptance property of the whole forecast layer: perfect
        // knowledge through the forecast plumbing must reproduce the
        // forecast-free run exactly, with the oracle columns echoing the
        // realized ones.
        let est = Estimator::default();
        let mut shifted = req();
        shifted.policy = Policy::TemporalShift { slack_hours: 24 };
        let plain = est.estimate(&shifted).unwrap();
        assert_eq!(plain.shift.oracle_saved_kg, None);
        assert_eq!(plain.shift.oracle_saved_pct, None);
        let mut oracle = shifted.clone();
        oracle.forecast = Some(ForecastModel::Oracle);
        let rep = est.estimate(&oracle).unwrap();
        assert_eq!(rep.operational, plain.operational);
        assert_eq!(rep.shift.saved_kg, plain.shift.saved_kg);
        assert_eq!(rep.shift.saved_pct, plain.shift.saved_pct);
        assert_eq!(rep.shift.oracle_saved_kg, Some(plain.shift.saved_kg));
        assert_eq!(rep.shift.oracle_saved_pct, Some(plain.shift.saved_pct));
    }

    #[test]
    fn imperfect_forecasts_realize_at_most_the_oracle() {
        let est = Estimator::default();
        let mut r = req();
        r.policy = Policy::TemporalShift { slack_hours: 24 };
        for model in [
            ForecastModel::Persistence,
            ForecastModel::DayAhead,
            ForecastModel::Noisy { error_pct: 50 },
        ] {
            r.forecast = Some(model);
            let rep = est.estimate(&r).unwrap();
            let oracle = rep.shift.oracle_saved_kg.unwrap();
            // Planning on an imperfect forecast cannot beat perfect
            // knowledge (up to the greedy argmin's queueing tolerance).
            let slack = 0.01 * oracle.abs() + 1e-6;
            assert!(
                rep.shift.saved_kg <= oracle + slack,
                "{model:?}: realized {} > oracle {oracle}",
                rep.shift.saved_kg
            );
        }
    }

    #[test]
    fn forecast_estimates_are_deterministic() {
        let est = Estimator::default();
        let mut r = req();
        r.policy = Policy::TemporalShift { slack_hours: 24 };
        r.forecast = Some(ForecastModel::Noisy { error_pct: 20 });
        let a = est.estimate(&r).unwrap();
        let b = est.estimate(&r).unwrap();
        assert_eq!(a, b);
        // A different request seed moves the noise stream.
        let mut reseeded = r.clone();
        reseeded.seed = 7;
        let c = est.estimate(&reseeded).unwrap();
        assert_ne!(a.shift.saved_kg, c.shift.saved_kg);
    }

    #[test]
    fn file_source_resolves_from_registered_traces() {
        let measured = hpcarbon_grid::synth::synthesize_year(OperatorId::Eso, 2021, 5);
        let expected_median = measured.boxplot().median;
        let est = Estimator::builder()
            .trace_file(OperatorId::Eso, measured)
            .build();
        let mut r = req();
        r.source = TraceSource::File;
        let rep = est.estimate(&r).unwrap();
        assert_eq!(rep.grid.median_g_per_kwh, expected_median);
        // A region without a registered file is a typed request error.
        let mut miss = r.clone();
        miss.region = OperatorId::Ciso;
        assert!(matches!(
            est.estimate(&miss).unwrap_err(),
            ApiError::InvalidRequest { field: "trace", .. }
        ));
        // A year the registered trace does not cover is rejected, not
        // silently served from the wrong year.
        let mut wrong_year = r.clone();
        wrong_year.year = 2022;
        assert!(matches!(
            est.estimate(&wrong_year).unwrap_err(),
            ApiError::InvalidRequest { field: "year", .. }
        ));
        // File requests never consult the provider (DispatchIntensity
        // would panic), including in batches, whose context skips them.
        let out = est.estimate_batch(&[r.clone(), miss]);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
    }
}
