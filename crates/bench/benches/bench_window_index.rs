//! Benches for the sliding-window index: the indexed argmin-window query
//! against the naive rescan it replaces, on a full 8760-hour region-year.
//!
//! The contract (enforced by `ci/bench_gate.sh`): `argmin_indexed` beats
//! `argmin_naive` by ≥10× — the naive scan touches `slack × w` values
//! per query where the index touches `slack` prefix differences, so the
//! ratio approaches `w` (24 here). The two are timed as one interleaved
//! pair, so a burst of host load reaches both medians alike.

use criterion::{criterion_group, criterion_main, Criterion};
use hpcarbon_grid::{simulate_year, OperatorId};
use hpcarbon_timeseries::window::{naive, WindowIndex};
use std::hint::black_box;

/// A week of slack for a day-long window: the canonical shifting query.
const SLACK: u32 = 168;
const W: u32 = 24;
/// Query start hours spread over the year (same set for every variant).
const STARTS: [u32; 10] = [0, 877, 1754, 2631, 3508, 4385, 5262, 6139, 7016, 8759];

fn year_values() -> Vec<f64> {
    simulate_year(OperatorId::Eso, 2021, 7)
        .series()
        .values()
        .to_vec()
}

fn argmin(c: &mut Criterion) {
    let values = year_values();
    let idx = WindowIndex::new(&values);
    let mut g = c.benchmark_group("window_index");
    g.bench_pair(
        "argmin_naive",
        |b| {
            b.iter(|| {
                let mut acc = 0u32;
                for start in STARTS {
                    acc = acc.wrapping_add(naive::greenest_shift(&values, start, SLACK, W));
                }
                black_box(acc)
            })
        },
        "argmin_indexed",
        |b| {
            b.iter(|| {
                let mut acc = 0u32;
                for start in STARTS {
                    acc = acc.wrapping_add(idx.greenest_shift(start, SLACK, W));
                }
                black_box(acc)
            })
        },
    );
    g.finish();
}

fn window_mean(c: &mut Criterion) {
    let values = year_values();
    let idx = WindowIndex::new(&values);
    let mut g = c.benchmark_group("window_index");
    g.bench_function("mean_naive", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for start in STARTS {
                acc += naive::window_mean(&values, start, SLACK);
            }
            black_box(acc)
        })
    });
    g.bench_function("mean_indexed", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for start in STARTS {
                acc += idx.window_mean(start, SLACK);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn build(c: &mut Criterion) {
    let values = year_values();
    let mut g = c.benchmark_group("window_index");
    g.bench_function("build_prefix_8760", |b| {
        b.iter(|| black_box(WindowIndex::new(&values)))
    });
    g.finish();
}

criterion_group!(benches, argmin, window_mean, build);
criterion_main!(benches);
