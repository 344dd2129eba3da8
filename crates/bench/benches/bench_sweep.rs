//! Benches for the streaming scenario-sweep engine: rows evaluated
//! through a per-run [`EstimateContext`] vs. the cold per-scenario path,
//! serial vs. parallel streaming of the same grid, plus expansion and
//! emission costs.
//!
//! The contract gated in CI (`ci/bench_gate.sh`): a scenario evaluated
//! through a pre-built context must beat the uncontexted `run_scenario`
//! path by ≥ `BENCH_GATE_MIN_SWEEP_SPEEDUP` (default 2×), because the
//! context derives trace simulation, job-trace generation, and catalog
//! assembly once per run instead of once per row.
//! `scenario_contexted_seasonal` is the same row under seasonal PUE, the
//! paper grid's other PUE model, whose hourly accounting the
//! constant-PUE rows never reach. On a multi-core host
//! `streaming/parallel` additionally beats `streaming/serial_1_thread`
//! roughly by the core count; on a single core the two collapse to the
//! same time, never worse.

use criterion::{criterion_group, criterion_main, Criterion};
use hpcarbon_api::{EstimateContext, Estimator, RequestKeys};
use hpcarbon_sweep::{
    run_scenario, CsvSink, JsonSink, PueSpec, Scenario, ScenarioGrid, Sweep, SweepConfig,
};
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
    // One-time cost of deriving every shared input (intensity traces,
    // job traces, catalogs) the grid's rows touch, as `Sweep::run` does.
    let est = Estimator::builder().threads(1).build();
    let build = || -> EstimateContext<'_> {
        est.context_for(
            (0..grid.len()).map(|id| RequestKeys::of(&grid.scenario_at(id).to_request(&cfg))),
        )
    };
    g.bench_function("build", |b| b.iter(|| black_box(build())));
    // Per-row cost with vs. without the context — the ≥2x speedup the
    // bench gate enforces.
    let ctx = build();
    let sc = grid.scenario_at(0);
    g.bench_function("scenario_uncontexted", |b| {
        b.iter(|| black_box(run_scenario(&sc, &cfg).unwrap()))
    });
    g.bench_function("scenario_contexted", |b| {
        b.iter(|| black_box(ctx.estimate(&sc.to_request(&cfg)).unwrap()))
    });
    // The same row under the paper grid's seasonal PUE, which prices the
    // node's year hour by hour (`account_with_seasonal_pue`). The
    // context holds the same trace: PUE is not part of any key.
    let seasonal = Scenario {
        pue: PueSpec::Seasonal {
            mean: 1.2,
            amplitude: 0.1,
        },
        ..sc
    };
    g.bench_function("scenario_contexted_seasonal", |b| {
        b.iter(|| black_box(ctx.estimate(&seasonal.to_request(&cfg)).unwrap()))
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

fn emission(c: &mut Criterion) {
    // Emitter cost alone: stream pre-computed rows through each sink.
    let grid = bench_grid();
    let mut collect = hpcarbon_sweep::CollectSink::new();
    Sweep::over(&grid)
        .config(SweepConfig::fast())
        .sink(&mut collect)
        .run()
        .unwrap();
    let rows = collect.rows().to_vec();
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

criterion_group!(benches, grid_expansion, context, streaming, emission);
criterion_main!(benches);
