//! Shared immutable evaluation context for batch estimation.
//!
//! Evaluating one request re-derives heavyweight inputs that are pure
//! functions of a *few* request fields: the region-year intensity trace
//! (a dispatch simulation plus a `WindowIndex` build), its distribution
//! stats, the as-built system inventory, and the generated job trace.
//! A scenario sweep evaluates thousands-to-millions of requests drawn
//! from a handful of distinct key tuples, so almost every derivation is
//! a repeat. [`EstimateContext`] hoists them: built once per batch from
//! the key sets the requests actually use, then consulted by
//! [`crate::Estimator`] with a provider fallback for any key it does
//! not hold.
//!
//! ## Byte-safety
//!
//! Context hits must be indistinguishable from provider calls. That
//! holds because every cached value is produced by calling the *same*
//! provider with the *same* arguments the estimator would have used
//! (providers are pure by contract — see [`crate::providers`]), and the
//! derived stats are pure functions of the trace. A context can
//! therefore never change reported bytes, only the time it takes to
//! produce them; `crates/api` unit tests assert report equality with
//! and without a context.
//!
//! ## Memory
//!
//! The context holds `O(distinct keys)` data, not `O(requests)`:
//! traces and job lists are stored behind [`Arc`]s and shared into
//! every evaluation (clusters hold `Arc<IntensityTrace>`, simulations
//! borrow the job slice). A million-scenario sweep over two regions,
//! two trace sources and a few seeds holds a handful of traces total.

use crate::providers::{EmbodiedSource, IntensityProvider, JobSource};
use crate::request::EstimateRequest;
use crate::types::{SystemId, TraceSource};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_sched::Job;
use hpcarbon_sim::par::{par_map_workers, worker_count};
use hpcarbon_sim::rng::SimRng;
use hpcarbon_timeseries::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
    /// Computes the stats of `trace` — the exact expressions the
    /// estimator evaluates on a context miss. The median is selected, not
    /// sorted for. It equals the boxplot median bit for bit because
    /// intensities are finite and at least zero; only a zero median could
    /// differ, in its sign, on a trace that holds both `-0` and `0`.
    pub fn of(trace: &IntensityTrace) -> TraceStats {
        TraceStats {
            median_g_per_kwh: stats::median(trace.series().values()),
            cov_pct: trace.cov_percent(),
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
    pub fn of(req: &EstimateRequest) -> RequestKeys {
        let rng = SimRng::seed_from(req.seed);
        let trace_seed = rng.substream("trace").seed();
        let jobs_seed = rng.substream("jobs").seed();
        let partner_trace = req
            .partner
            .unwrap_or_else(|| req.policy.is_multi_region())
            .then(|| (partner_region(req.region), req.source, req.year, trace_seed));
        RequestKeys {
            trace: (req.region, req.source, req.year, trace_seed),
            partner_trace,
            jobs: (req.jobs, jobs_seed),
            system: req.system,
        }
    }
}

/// The partner site a multi-region evaluation pairs with `region`: the
/// greenest complement region (GB, or CA when the request already is
/// GB). Must stay in lockstep with `Estimator::evaluate`.
pub fn partner_region(region: OperatorId) -> OperatorId {
    if region == OperatorId::Eso {
        OperatorId::Ciso
    } else {
        OperatorId::Eso
    }
}

/// Precomputed immutable inputs shared across one batch of evaluations.
///
/// Build one with [`crate::Estimator::context_for`] (which uses the
/// estimator's own providers) and attach it via
/// [`crate::EstimatorBuilder::context`]; or let
/// [`crate::Estimator::estimate_batch`] build one automatically.
#[derive(Debug, Default)]
pub struct EstimateContext {
    traces: BTreeMap<TraceKey, Arc<IntensityTrace>>,
    stats: BTreeMap<TraceKey, TraceStats>,
    systems: BTreeMap<SystemId, hpcarbon_core::systems::HpcSystem>,
    jobs: BTreeMap<JobKey, Arc<Vec<Job>>>,
}

impl EstimateContext {
    /// An empty context: every lookup misses to the provider. Useful as
    /// a neutral default in plumbing that always carries a context.
    pub fn empty() -> EstimateContext {
        EstimateContext::default()
    }

    /// Builds a context covering every key in `reqs`, deriving values
    /// from the given providers. Distinct trace keys are simulated in
    /// parallel over `threads` workers (they dominate build time: one
    /// dispatch simulation plus a `WindowIndex` each); pass 1 for a
    /// serial reference build — the result is identical either way.
    pub fn build(
        reqs: &[EstimateRequest],
        intensity: &dyn IntensityProvider,
        embodied: &dyn EmbodiedSource,
        jobs: &dyn JobSource,
        threads: Option<usize>,
    ) -> EstimateContext {
        let mut trace_keys = BTreeSet::new();
        let mut job_keys = BTreeSet::new();
        let mut system_keys = BTreeSet::new();
        for req in reqs {
            let k = RequestKeys::of(req);
            trace_keys.insert(k.trace);
            if let Some(p) = k.partner_trace {
                trace_keys.insert(p);
            }
            job_keys.insert(k.jobs);
            system_keys.insert(k.system);
        }
        Self::build_from_keys(
            trace_keys,
            job_keys,
            system_keys,
            intensity,
            embodied,
            jobs,
            threads,
        )
    }

    /// Builds a context directly from key sets, without materializing
    /// the requests that will use it. This is the O(distinct keys) path
    /// for callers like the sweep engine whose grids are combinatorial:
    /// the key sets fall out of the dimension lists, so a
    /// million-scenario sweep never allocates a million requests just
    /// to discover a handful of keys. Semantics are identical to
    /// [`EstimateContext::build`] on any request set deriving exactly
    /// these keys.
    #[allow(clippy::too_many_arguments)]
    pub fn build_from_keys(
        trace_keys: BTreeSet<TraceKey>,
        job_keys: BTreeSet<JobKey>,
        system_keys: BTreeSet<SystemId>,
        intensity: &dyn IntensityProvider,
        embodied: &dyn EmbodiedSource,
        jobs: &dyn JobSource,
        threads: Option<usize>,
    ) -> EstimateContext {
        // File-sourced keys never consult a provider: the estimator
        // resolves them from its registered trace files (which are
        // already parsed and indexed — there is nothing to precompute),
        // so they are simply absent from the context and miss through.
        let keys: Vec<TraceKey> = trace_keys
            .into_iter()
            .filter(|&(_, source, _, _)| source != TraceSource::File)
            .collect();
        let workers = threads
            .map(|n| n.max(1))
            .unwrap_or_else(|| worker_count(keys.len()));
        let built = par_map_workers(&keys, workers, |_, &(region, source, year, seed)| {
            let trace = intensity.year_trace(region, source, year, seed);
            let stats = TraceStats::of(&trace);
            (trace, stats)
        });
        let mut traces = BTreeMap::new();
        let mut stats = BTreeMap::new();
        for (key, (trace, stat)) in keys.into_iter().zip(built) {
            traces.insert(key, trace);
            stats.insert(key, stat);
        }
        EstimateContext {
            traces,
            stats,
            systems: system_keys
                .into_iter()
                .map(|id| (id, embodied.build_system(id)))
                .collect(),
            jobs: job_keys
                .into_iter()
                .map(|(n, seed)| ((n, seed), jobs.job_trace(n, seed)))
                .collect(),
        }
    }

    /// The trace for `key`, if precomputed.
    pub fn trace(&self, key: &TraceKey) -> Option<Arc<IntensityTrace>> {
        self.traces.get(key).cloned()
    }

    /// The stats of `key`'s trace, if precomputed.
    pub fn trace_stats(&self, key: &TraceKey) -> Option<TraceStats> {
        self.stats.get(key).copied()
    }

    /// The as-built inventory of `system`, if precomputed.
    pub fn system(&self, system: SystemId) -> Option<&hpcarbon_core::systems::HpcSystem> {
        self.systems.get(&system)
    }

    /// The job trace for `key`, if precomputed.
    pub fn job_trace(&self, key: &JobKey) -> Option<Arc<Vec<Job>>> {
        self.jobs.get(key).cloned()
    }

    /// Number of distinct traces held.
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// Number of distinct job traces held.
    pub fn job_trace_count(&self) -> usize {
        self.jobs.len()
    }

    /// Number of distinct system inventories held.
    pub fn system_count(&self) -> usize {
        self.systems.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::{CatalogEmbodied, DispatchIntensity, GeneratedJobs};
    use hpcarbon_sched::Policy;

    fn req(seed: u64) -> EstimateRequest {
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.seed = seed;
        r.jobs = 10;
        r
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
        let mut multi = req(1);
        multi.policy = Policy::SpatioTemporal { slack_hours: 24 };
        let k = RequestKeys::of(&multi).partner_trace.unwrap();
        assert_eq!(k.0, OperatorId::Ciso);
        assert_eq!(k.3, RequestKeys::of(&multi).trace.3);
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
    fn build_deduplicates_keys() {
        // Same seed twice, one distinct: 2 trace keys, 2 job keys, 1 system.
        let reqs = [req(7), req(7), req(9)];
        let ctx = EstimateContext::build(
            &reqs,
            &DispatchIntensity,
            &CatalogEmbodied,
            &GeneratedJobs,
            Some(1),
        );
        assert_eq!(ctx.trace_count(), 2);
        assert_eq!(ctx.job_trace_count(), 2);
        assert_eq!(ctx.system_count(), 1);
        let key = RequestKeys::of(&reqs[0]);
        let trace = ctx.trace(&key.trace).unwrap();
        assert_eq!(ctx.trace_stats(&key.trace).unwrap(), TraceStats::of(&trace));
        assert_eq!(ctx.job_trace(&key.jobs).unwrap().len(), 10);
        assert!(ctx.system(SystemId::Frontier).is_some());
        assert!(ctx.system(SystemId::Lumi).is_none());
    }

    #[test]
    fn parallel_build_matches_serial() {
        let reqs = [req(1), req(2), req(3), req(4)];
        let serial = EstimateContext::build(
            &reqs,
            &DispatchIntensity,
            &CatalogEmbodied,
            &GeneratedJobs,
            Some(1),
        );
        let parallel = EstimateContext::build(
            &reqs,
            &DispatchIntensity,
            &CatalogEmbodied,
            &GeneratedJobs,
            Some(4),
        );
        for (key, t) in &serial.traces {
            let p = parallel.trace(key).unwrap();
            assert_eq!(t.series().values(), p.series().values());
            assert_eq!(serial.trace_stats(key), parallel.trace_stats(key));
        }
        assert_eq!(serial.jobs.len(), parallel.jobs.len());
    }

    #[test]
    fn file_keys_are_never_sent_to_the_provider() {
        // DispatchIntensity panics on File keys by contract; the build
        // must filter them rather than forward them.
        let mut file_req = req(7);
        file_req.source = TraceSource::File;
        let ctx = EstimateContext::build(
            &[file_req.clone(), req(9)],
            &DispatchIntensity,
            &CatalogEmbodied,
            &GeneratedJobs,
            Some(1),
        );
        assert_eq!(ctx.trace_count(), 1);
        assert!(ctx.trace(&RequestKeys::of(&file_req).trace).is_none());
    }

    #[test]
    fn empty_context_misses_everything() {
        let ctx = EstimateContext::empty();
        assert!(ctx.trace(&RequestKeys::of(&req(1)).trace).is_none());
        assert!(ctx.system(SystemId::Frontier).is_none());
    }
}
