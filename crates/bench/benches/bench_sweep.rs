//! Benches for the streaming scenario-sweep engine: rows evaluated
//! through a per-run [`EstimateContext`] vs. the cold per-scenario path,
//! one worker vs. the available parallelism over the same grid (both go
//! through `par_map_workers` a block of rows at a time), plus expansion
//! and emission costs.
//!
//! The contract gated in CI (`ci/bench_gate.sh`): a scenario evaluated
//! through a pre-built context must beat the uncontexted `run_scenario`
//! path by ≥ `MIN_SWEEP_SPEEDUP` (2×, fixed in the script), because the
//! context derives trace simulation, job-trace generation, and catalog
//! assembly once per run instead of once per row, and holds each
//! distinct scheduling run and seasonal-PUE year in a cell that the
//! first row to reach it fills. `scenario_contexted` is the steady-state
//! sweep row, whose run cell is held. `scenario_contexted_seasonal` is
//! the same row under seasonal PUE, the paper grid's other PUE model: it
//! shares the row's run and its seasonal year is held too.
//! `scenario_contexted_cold_run` is that seasonal row at a mean PUE no
//! earlier iteration used, whose run and year neither the context nor
//! the estimator's stores hold, so it pays for both on every iteration.
//! It must cost ≥ `MIN_RUN_SPEEDUP` (4×, fixed in the script)
//! `scenario_contexted_seasonal`. On a multi-core host
//! `streaming/parallel` additionally beats `streaming/serial_1_thread`
//! roughly by the core count; on a single core the two collapse to the
//! same time, never worse.
//!
//! Two more ratios are gated. `sched/greenest_window_place_120_reference`
//! must cost ≥ 1.4× `sched/greenest_window_place_120`: the same 120
//! `GreenestWindow { 24 }` placements, with each candidate's trace slot
//! taken by a `floor` and a 64-bit modulo and through the slot rule.
//! `json/metric_std` must cost ≥ 4× `json/metric_fixed4`: the same sweep
//! metric values formatted by std's `{:.4}` and by the exact integer
//! writer the sinks use.

use criterion::{criterion_group, criterion_main, Criterion};
use hpcarbon_api::json::write_metric;
use hpcarbon_api::{EstimateContext, Estimator, RequestKeys};
use hpcarbon_grid::{simulate_year, OperatorId};
use hpcarbon_sched::policy::greenest_start_reference;
use hpcarbon_sched::{Cluster, JobTraceGenerator, Policy};
use hpcarbon_sweep::{
    run_scenario, CsvSink, JsonSink, PueSpec, Scenario, ScenarioGrid, Sweep, SweepConfig, SweepRow,
};
use std::fmt::Write as _;
use std::hint::black_box;

/// A mid-size grid: large enough to amortize thread startup, small enough
/// for bench iteration (3 x 1 x 7 x 1 x 2 x 1 = 42 scenarios).
fn bench_grid() -> ScenarioGrid {
    let g = ScenarioGrid::paper_default();
    let (pue, policies, upgrade) = (g.pues[0], [g.policies[0], g.policies[1]], g.upgrades[0]);
    g.storage([hpcarbon_sweep::StorageVariant::Baseline])
        .pues([pue])
        .policies(policies)
        .upgrades([upgrade])
}

fn grid_expansion(c: &mut Criterion) {
    let grid = ScenarioGrid::paper_default();
    c.bench_function("sweep/grid_expansion_504", |b| {
        b.iter(|| black_box(grid.scenarios()))
    });
}

fn context(c: &mut Criterion) {
    let grid = bench_grid();
    let cfg = SweepConfig::fast();
    let mut g = c.benchmark_group("sweep/context");
    g.sample_size(10);
    let sc = grid.scenario_at(0);
    let seasonal = Scenario {
        pue: PueSpec::Seasonal {
            mean: 1.2,
            amplitude: 0.1,
        },
        ..sc
    };
    // One-time cost of deriving every shared input (intensity traces,
    // job traces, catalogs, empty run and seasonal cells) that the grid's
    // rows and the seasonal row touch, as `Sweep::run` does.
    let est = Estimator::builder().threads(1).build();
    let build = || -> EstimateContext<'_> {
        est.context_for(
            (0..grid.len())
                .map(|id| grid.scenario_at(id).to_request(&cfg))
                .chain([seasonal.to_request(&cfg)]),
        )
    };
    g.bench_function("build", |b| b.iter(|| black_box(build())));
    // Per-row cost with vs. without the context — the ≥2x speedup the
    // bench gate enforces. The first contexted iteration fills the row's
    // run cell; every later one copies it, as a sweep's later rows do.
    let ctx = build();
    g.bench_function("scenario_uncontexted", |b| {
        b.iter(|| black_box(run_scenario(&sc, &cfg).unwrap()))
    });
    g.bench_function("scenario_contexted", |b| {
        b.iter(|| black_box(ctx.estimate(&sc.to_request(&cfg)).unwrap()))
    });
    // The same row under the paper grid's seasonal PUE, which prices the
    // node's year hour by hour (`account_with_seasonal_pue`). Its run is
    // the row's (a run reads the mean PUE, 1.2 for both) and the context
    // holds its seasonal year.
    g.bench_function("scenario_contexted_seasonal", |b| {
        b.iter(|| black_box(ctx.estimate(&seasonal.to_request(&cfg)).unwrap()))
    });
    // The seasonal row at a mean PUE no earlier iteration used, the next
    // float above the last from 1.25: the context holds its traces, job
    // trace and system but neither its run key nor its seasonal key. A
    // key the context lacks goes to the estimator's stores, which keep
    // it from its second sight on, so a repeated mean would be answered
    // from them; a new one each time schedules and prices its year on
    // every iteration, the cost of a row whose cells no earlier row
    // filled — the ≥4x the bench gate enforces.
    let mut mean = 1.25_f64;
    g.bench_function("scenario_contexted_cold_run", |b| {
        b.iter(|| {
            mean = f64::from_bits(mean.to_bits() + 1);
            let cold = Scenario {
                pue: PueSpec::Seasonal {
                    mean,
                    amplitude: 0.1,
                },
                ..sc
            };
            black_box(ctx.estimate(&cold.to_request(&cfg)).unwrap())
        })
    });
    g.finish();
}

fn streaming(c: &mut Criterion) {
    let grid = bench_grid();
    let cfg = SweepConfig::fast();
    let mut g = c.benchmark_group("sweep/streaming");
    g.sample_size(10);
    g.bench_function("serial_1_thread", |b| {
        b.iter(|| {
            black_box(
                Sweep::over(&grid)
                    .config(cfg)
                    .threads(1)
                    .run()
                    .expect("sinkless sweep cannot fail"),
            )
        })
    });
    g.bench_function("parallel", |b| {
        b.iter(|| {
            black_box(
                Sweep::over(&grid)
                    .config(cfg)
                    .run()
                    .expect("sinkless sweep cannot fail"),
            )
        })
    });
    g.finish();
}

/// The bench grid's evaluated rows.
fn bench_rows() -> Vec<SweepRow> {
    let mut collect = hpcarbon_sweep::CollectSink::new();
    Sweep::over(&bench_grid())
        .config(SweepConfig::fast())
        .sink(&mut collect)
        .run()
        .unwrap();
    collect.rows().to_vec()
}

fn emission(c: &mut Criterion) {
    // Emitter cost alone: stream pre-computed rows through each sink.
    let rows = bench_rows();
    let emit = |mut sink: Box<dyn hpcarbon_sweep::RowSink>| {
        sink.begin().unwrap();
        for row in &rows {
            sink.row(row).unwrap();
        }
        sink.finish().unwrap();
    };
    c.bench_function("sweep/to_csv", |b| {
        b.iter(|| emit(Box::new(CsvSink::new(black_box(Vec::new())))))
    });
    c.bench_function("sweep/to_json", |b| {
        b.iter(|| emit(Box::new(JsonSink::new(black_box(Vec::new())))))
    });
}

fn metric_writer(c: &mut Criterion) {
    // One fixed set of sweep metric values: every defined metric of the
    // bench grid's successful rows, each written into a reused buffer.
    let values: Vec<f64> = bench_rows()
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .flat_map(|o| {
            [
                Some(o.embodied_t),
                o.storage_delta_pct,
                Some(o.median_g_per_kwh),
                Some(o.cov_percent),
                Some(o.sched_carbon_kg),
                Some(o.sched_energy_kwh),
                Some(o.mean_wait_hours),
                Some(o.max_wait_hours),
                Some(o.shift_saved_kg),
                Some(o.shift_saved_pct),
                Some(o.node_annual_kg),
                o.break_even_years,
                Some(o.asymptotic_savings_pct),
            ]
        })
        .flatten()
        .collect();
    let mut out = String::new();
    c.bench_function("json/metric_fixed4", |b| {
        b.iter(|| {
            out.clear();
            for &v in &values {
                write_metric(&mut out, Some(black_box(v)));
            }
            black_box(out.len())
        })
    });
    c.bench_function("json/metric_std", |b| {
        b.iter(|| {
            out.clear();
            for &v in &values {
                let _ = write!(out, "{:.4}", black_box(v));
            }
            black_box(out.len())
        })
    });
}

fn placement(c: &mut Criterion) {
    // The paper workload's ESO scenario: its 120-job trace and its 2021
    // grid year on one 96-GPU cluster, placed job by job at arrival.
    let grid = ScenarioGrid::paper_default();
    let cfg = SweepConfig::paper_default();
    let sc = (0..grid.len())
        .map(|id| grid.scenario_at(id))
        .find(|s| s.region == OperatorId::Eso)
        .expect("the paper grid has an ESO row");
    let keys = RequestKeys::of(&sc.to_request(&cfg));
    let (count, jobs_seed) = keys.jobs;
    let (region, _, year, trace_seed) = keys.trace;
    let jobs = JobTraceGenerator::default_rates().generate(count, jobs_seed);
    let cluster = Cluster::new(
        "eso",
        simulate_year(region, year, trace_seed),
        cfg.cluster_gpus,
    );
    let clusters = [cluster];
    let policy = Policy::GreenestWindow { horizon_hours: 24 };
    c.bench_function("sched/greenest_window_place_120", |b| {
        b.iter(|| {
            for job in &jobs {
                black_box(policy.place(black_box(job), job.arrival_hours, 0, &clusters));
            }
        })
    });
    c.bench_function("sched/greenest_window_place_120_reference", |b| {
        b.iter(|| {
            for job in &jobs {
                black_box(greenest_start_reference(
                    &clusters[0],
                    black_box(job),
                    job.arrival_hours,
                    24,
                ));
            }
        })
    });
}

criterion_group!(
    benches,
    grid_expansion,
    context,
    streaming,
    emission,
    metric_writer,
    placement
);
criterion_main!(benches);
