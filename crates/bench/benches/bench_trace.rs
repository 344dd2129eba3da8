//! Benches for the trace layer: the strict CSV parser over a full
//! 8760-hour year, the day-ahead harmonic forecast built and scored
//! against its actual trace, the dispatch simulator's grid year next to
//! its per-hour and per-day references, and a year's worth of
//! standard-normal draws filled a block at a time next to the per-draw
//! sampler.
//!
//! `ci/bench_gate.sh` tracks every median against the committed
//! baseline — parsing a year of real data sits on the CLI's hot path
//! (`hpcarbon trace …`, `--trace-file` sweeps), the forecast build runs
//! once per cluster per scenario under `--forecast`, and a grid year is
//! built for every region-year a request or sweep has not seen. Its gate
//! 1d also requires `grid/simulate_year` to beat
//! `grid/simulate_year_per_hour` by a same-run ratio, gate 1j
//! `sim/fill_standard_normal_8760` to beat `sim/standard_normal_8760`,
//! and gate 1k `grid/block_year` to beat `grid/per_day_year`.
//! Each gated pair is measured with its samples interleaved
//! (`bench_pair`), so load on a shared host reaches both sides alike.

use criterion::{criterion_group, criterion_main, Criterion};
use hpcarbon_grid::forecast::day_ahead_harmonic_forecast;
use hpcarbon_grid::sim::{simulate_year, simulate_year_per_day, simulate_year_per_hour};
use hpcarbon_grid::synth::synthesize_year;
use hpcarbon_grid::tracefile::{parse_trace_csv, write_trace_csv, GapPolicy};
use hpcarbon_grid::OperatorId;
use hpcarbon_sim::dist::{fill_standard_normal, standard_normal};
use hpcarbon_sim::rng::SimRng;
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
/// reference it is checked against bit for bit, and again beside the
/// per-day walk: 64-hour blocks, lane-wise dispatch and the region-year's
/// memoized clear-sky table (held after the first two iterations) against
/// one hour at a time with the clear-sky term computed in every daylight
/// hour.
fn grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("grid");
    g.bench_pair(
        "simulate_year",
        |b| b.iter(|| black_box(simulate_year(black_box(OperatorId::Eso), 2021, 7))),
        "simulate_year_per_hour",
        |b| b.iter(|| black_box(simulate_year_per_hour(black_box(OperatorId::Eso), 2021, 7))),
    );
    g.bench_pair(
        "block_year",
        |b| b.iter(|| black_box(simulate_year(black_box(OperatorId::Eso), 2021, 7))),
        "per_day_year",
        |b| b.iter(|| black_box(simulate_year_per_day(black_box(OperatorId::Eso), 2021, 7))),
    );
    g.finish();
}

/// 8,760 standard-normal draws per iteration, one OU process's year,
/// from a fresh seed-7 stream: filled a block at a time, beside the
/// per-draw sampler whose bits the fill reproduces.
fn sim(c: &mut Criterion) {
    let mut out = vec![0.0f64; 8760];
    let mut reference = vec![0.0f64; 8760];
    let mut g = c.benchmark_group("sim");
    g.bench_pair(
        "fill_standard_normal_8760",
        |b| {
            b.iter(|| {
                let mut rng = SimRng::seed_from(black_box(7));
                fill_standard_normal(&mut rng, &mut out);
                black_box(out[8759])
            })
        },
        "standard_normal_8760",
        |b| {
            b.iter(|| {
                let mut rng = SimRng::seed_from(black_box(7));
                for x in reference.iter_mut() {
                    *x = standard_normal(&mut rng);
                }
                black_box(reference[8759])
            })
        },
    );
    g.finish();
}

criterion_group!(benches, trace, forecast, grid, sim);
criterion_main!(benches);
