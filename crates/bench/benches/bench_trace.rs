//! Benches for the trace layer: the strict CSV parser over a full
//! 8760-hour year, the day-ahead harmonic forecast built and scored
//! against its actual trace, and the dispatch simulator's grid year next
//! to its per-hour reference.
//!
//! `ci/bench_gate.sh` tracks every median against the committed
//! baseline — parsing a year of real data sits on the CLI's hot path
//! (`hpcarbon trace …`, `--trace-file` sweeps), the forecast build runs
//! once per cluster per scenario under `--forecast`, and a grid year is
//! built for every region-year a request or sweep has not seen. Its gate
//! 1d also requires `grid/simulate_year` to beat
//! `grid/simulate_year_per_hour` by a same-run ratio.

use criterion::{criterion_group, criterion_main, Criterion};
use hpcarbon_grid::forecast::day_ahead_harmonic_forecast;
use hpcarbon_grid::sim::{simulate_year, simulate_year_per_hour};
use hpcarbon_grid::synth::synthesize_year;
use hpcarbon_grid::tracefile::{parse_trace_csv, write_trace_csv, GapPolicy};
use hpcarbon_grid::OperatorId;
use std::hint::black_box;

fn trace(c: &mut Criterion) {
    let year = synthesize_year(OperatorId::Eso, 2021, 7);
    let csv = write_trace_csv(&year);
    let mut g = c.benchmark_group("trace");
    g.bench_function("parse_8760", |b| {
        b.iter(|| {
            let parsed = parse_trace_csv("bench.csv", black_box(&csv), GapPolicy::Reject)
                .expect("canonical emission parses");
            black_box(parsed.trace.at_index(4000).as_g_per_kwh())
        })
    });
    g.finish();
}

fn forecast(c: &mut Criterion) {
    let actual = synthesize_year(OperatorId::Eso, 2021, 7);
    let mut g = c.benchmark_group("forecast");
    g.bench_function("day_ahead_eval", |b| {
        b.iter(|| {
            let planned = day_ahead_harmonic_forecast(black_box(&actual));
            // Score the forecast: mean absolute error over the year.
            let mut err = 0.0;
            for h in 0..8760u32 {
                err +=
                    (planned.at_index(h).as_g_per_kwh() - actual.at_index(h).as_g_per_kwh()).abs();
            }
            black_box(err / 8760.0)
        })
    });
    g.finish();
}

/// One ESO 2021 year per iteration (seed 7), beside the per-hour
/// reference it is checked against bit for bit.
fn grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("grid");
    g.bench_function("simulate_year", |b| {
        b.iter(|| black_box(simulate_year(black_box(OperatorId::Eso), 2021, 7)))
    });
    g.bench_function("simulate_year_per_hour", |b| {
        b.iter(|| black_box(simulate_year_per_hour(black_box(OperatorId::Eso), 2021, 7)))
    });
    g.finish();
}

criterion_group!(benches, trace, forecast, grid);
criterion_main!(benches);
