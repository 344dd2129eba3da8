//! One request's evaluation, replayed as calls into each layer crate's
//! public functions in `Estimator::evaluate`'s order, each in its own
//! span. The replay checks its result against `Estimator::estimate`, so
//! this copy of the pipeline cannot drift unnoticed.

use crate::trace::Tracer;
use hpcarbon_api::{
    ApiError, CatalogEmbodied, EmbodiedSection, EmbodiedSource, EstimateRequest, FootprintReport,
    GeneratedJobs, GridSection, JobKey, JobSource, OperationalSection, PueSpec, RequestKeys,
    ShiftSection, StorageVariant, SystemId, TraceKey, TraceSource, TraceStats, UpgradeSection,
    Verdict, SCHEMA_VERSION,
};
use hpcarbon_core::db::PartId;
use hpcarbon_core::operational::Pue;
use hpcarbon_core::systems::HpcSystem;
use hpcarbon_core::whatif::swap_storage_tier;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_grid::{simulate_year, synthesize_year};
use hpcarbon_power::pue_model::account_with_seasonal_pue;
use hpcarbon_power::SeasonalPue;
use hpcarbon_sched::{shift_savings, summarize_shift_savings, Cluster, Job, Simulation};
use hpcarbon_units::{CarbonIntensity, TimeSpan};
use hpcarbon_upgrade::{Recommendation, UpgradeAdvisor, UpgradeScenario};
use hpcarbon_workloads::power::node_active_power;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What the evaluations of a pass did, counted where the work happens.
#[derive(Default)]
pub struct Counts {
    /// Region-year traces the evaluations needed.
    pub trace_lookups: u64,
    /// Distinct trace keys among those lookups.
    pub trace_keys: BTreeSet<TraceKey>,
    /// `simulate_year`/`synthesize_year` calls made.
    pub year_builds: u64,
    /// Evaluations that reached PUE accounting, and those on seasonal PUE.
    pub accounted: u64,
    pub seasonal: u64,
}

/// Inputs shared by many rows, built once up front as the sweep does.
pub struct Prebuilt {
    traces: BTreeMap<TraceKey, Arc<IntensityTrace>>,
    stats: BTreeMap<TraceKey, TraceStats>,
    jobs: BTreeMap<JobKey, Arc<Vec<Job>>>,
    systems: BTreeMap<SystemId, HpcSystem>,
}

impl Prebuilt {
    /// Builds every distinct trace, its stats, job trace and system the
    /// requests will look up.
    pub fn build(t: &mut Tracer, reqs: &[EstimateRequest], counts: &mut Counts) -> Prebuilt {
        let (mut traces, mut stats, mut jobs, mut systems) = (
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
        );
        for r in reqs {
            let keys = RequestKeys::of(r);
            for key in std::iter::once(keys.trace).chain(keys.partner_trace) {
                if let Entry::Vacant(slot) = traces.entry(key) {
                    slot.insert(build_trace(t, key, counts));
                }
            }
            if let Entry::Vacant(slot) = stats.entry(keys.trace) {
                let trace = &traces[&keys.trace];
                slot.insert(t.span("timeseries.trace_stats", |_| TraceStats::of(trace)));
            }
            if let Entry::Vacant(slot) = jobs.entry(keys.jobs) {
                let (count, seed) = keys.jobs;
                slot.insert(t.span("sched.job_trace", |_| GeneratedJobs.job_trace(count, seed)));
            }
            systems
                .entry(r.system)
                .or_insert_with(|| CatalogEmbodied.build_system(r.system));
        }
        Prebuilt {
            traces,
            stats,
            jobs,
            systems,
        }
    }
}

fn build_trace(t: &mut Tracer, key: TraceKey, counts: &mut Counts) -> Arc<IntensityTrace> {
    counts.year_builds += 1;
    let (region, source, year, seed) = key;
    t.span("grid.year_trace", |_| {
        Arc::new(match source {
            TraceSource::Synthetic => synthesize_year(region, year, seed),
            _ => simulate_year(region, year, seed),
        })
    })
}

fn trace_for(
    t: &mut Tracer,
    key: TraceKey,
    pre: Option<&Prebuilt>,
    counts: &mut Counts,
) -> Arc<IntensityTrace> {
    counts.trace_lookups += 1;
    counts.trace_keys.insert(key);
    match pre {
        Some(p) => Arc::clone(&p.traces[&key]),
        None => build_trace(t, key, counts),
    }
}

/// Evaluates `r` through the layers; `pre` supplies shared inputs the
/// way a sweep row sees them, `None` computes them as a server miss does.
pub fn evaluate(
    t: &mut Tracer,
    r: &EstimateRequest,
    pre: Option<&Prebuilt>,
    counts: &mut Counts,
) -> Result<FootprintReport, ApiError> {
    if r.forecast.is_some() || r.source == TraceSource::File {
        return Err(ApiError::InvalidRequest {
            field: "trace",
            reason: "forecasts and trace files are outside the benchmark's workloads",
        });
    }
    let pue = r.pue;
    pue.validate()?;
    let keys = RequestKeys::of(r);

    // Layer 1: embodied composition with the storage what-if.
    let (embodied_t, storage_delta_pct) = t.span("core.build_system", |_| {
        let built;
        let base = match pre {
            Some(p) => &p.systems[&r.system],
            None => {
                built = CatalogEmbodied.build_system(r.system);
                &built
            }
        };
        match r.storage {
            StorageVariant::Baseline => Ok((base.embodied_total().as_t(), None)),
            StorageVariant::AllFlash => {
                let ssd = CatalogEmbodied.part_spec(PartId::Ssd3_2tb);
                let w = swap_storage_tier(base, PartId::Hdd16tb, ssd)?;
                Ok::<_, ApiError>((
                    w.system.embodied_total().as_t(),
                    Some(w.relative_change() * 100.0),
                ))
            }
        }
    })?;

    // Layer 2: the region-year trace and its distribution stats.
    let trace = trace_for(t, keys.trace, pre, counts);
    let stats = match pre {
        Some(p) => p.stats[&keys.trace],
        None => t.span("timeseries.trace_stats", |_| TraceStats::of(&trace)),
    };
    let median = CarbonIntensity::from_g_per_kwh(stats.median_g_per_kwh);

    // Layer 3: the scheduling run and its shift savings.
    let mut cluster = Cluster::new(r.region.info().short, Arc::clone(&trace), r.cluster_gpus);
    cluster.pue = pue.mean_value();
    let mut clusters = vec![cluster];
    if let Some(pk) = keys.partner_trace {
        let partner_trace = trace_for(t, pk, pre, counts);
        let mut partner = Cluster::new(pk.0.info().short, partner_trace, r.cluster_gpus);
        partner.pue = pue.mean_value();
        clusters.push(partner);
    }
    let jobs = match pre {
        Some(p) => Arc::clone(&p.jobs[&keys.jobs]),
        None => t.span("sched.job_trace", |_| {
            GeneratedJobs.job_trace(keys.jobs.0, keys.jobs.1)
        }),
    };
    let sim = t.span("sched.run", |_| {
        Simulation::multi_region(clusters.clone(), r.policy, &jobs).try_run()
    })?;
    let savings = t.span("sched.shift_savings", |_| {
        summarize_shift_savings(&shift_savings(&sim, &jobs, &clusters))
    });

    // Layer 4: PUE-adjusted annual accounting of one reference node.
    counts.accounted += 1;
    let year = TimeSpan::from_years(1.0);
    let it_energy = node_active_power(r.upgrade.from, r.upgrade.suite) * r.usage.value() * year;
    let node_annual_kg = match pue {
        PueSpec::Constant(v) => (median * Pue::new(v).apply(it_energy)).as_kg(),
        PueSpec::Seasonal { mean, amplitude } => {
            counts.seasonal += 1;
            t.span("power.seasonal_pue", |_| {
                let seasonal = SeasonalPue::new(mean, amplitude);
                account_with_seasonal_pue(&trace, &seasonal, 0, it_energy, year).as_kg()
            })
        }
    };

    // Layer 5: the upgrade question at the median intensity.
    let upgrade = UpgradeScenario {
        old: r.upgrade.from,
        new: r.upgrade.to,
        suite: r.upgrade.suite,
        usage: r.usage,
        pue: Pue::new(pue.mean_value()),
    };
    let (verdict, break_even_y, asymptotic_pct) = t.span("upgrade.recommend", |_| {
        let verdict = match UpgradeAdvisor::with_five_year_horizon().recommend(&upgrade, median) {
            Recommendation::Upgrade { .. } => Verdict::Upgrade,
            Recommendation::ExtendLifetime { .. } => Verdict::Extend,
            Recommendation::KeepHardware => Verdict::Keep,
        };
        let break_even_y = upgrade.break_even(median).map(|t| t.as_years());
        (verdict, break_even_y, upgrade.asymptotic_savings_percent())
    });

    Ok(FootprintReport {
        schema_version: SCHEMA_VERSION,
        request: r.clone(),
        embodied: EmbodiedSection {
            total_t: embodied_t,
            storage_delta_pct,
        },
        grid: GridSection {
            median_g_per_kwh: stats.median_g_per_kwh,
            cov_pct: stats.cov_pct,
        },
        operational: OperationalSection {
            sched_kg: sim.total_carbon.as_kg(),
            sched_kwh: sim.total_energy.as_kwh(),
            mean_wait_h: sim.mean_wait_hours,
            max_wait_h: sim.max_wait_hours,
        },
        shift: ShiftSection {
            saved_kg: savings.saved_kg,
            saved_pct: savings.saved_pct,
            oracle_saved_kg: None,
            oracle_saved_pct: None,
        },
        upgrade: UpgradeSection {
            node_annual_kg,
            break_even_y,
            asymptotic_pct,
            verdict,
        },
    })
}
