//! The sweep executor: evaluate a grid a block of rows at a time over
//! worker threads and feed the rows to pluggable sinks in grid order.
//!
//! ## Architecture
//!
//! [`Sweep`] is the entry point — a builder over a [`ScenarioGrid`]:
//!
//! ```
//! use hpcarbon_sweep::{CsvSink, ScenarioGrid, Sweep, SweepConfig};
//!
//! let grid = ScenarioGrid::quick();
//! let mut csv = CsvSink::new(Vec::new());
//! let report = Sweep::over(&grid)
//!     .config(SweepConfig::fast())
//!     .threads(2)
//!     .sink(&mut csv)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.len(), grid.len());
//! assert_eq!(report.errors, 0);
//! ```
//!
//! `run` builds one estimator and, from the requests of the shard's own
//! rows, one [`hpcarbon_api::EstimateContext`]: each trace, catalog and
//! job list the rows touch is derived once, the distinct traces in
//! parallel over the run's workers, before any row starts. The context
//! also holds one empty cell per distinct scheduling run and seasonal-PUE
//! year among those rows; the first row to reach one fills it and every
//! later row copies it, so the paper grid's 420 feasible rows make 21
//! scheduling runs, not 420. Then it evaluates the shard's id range one
//! block of `64 × workers` ids at a time:
//!
//! - [`par_map_workers`] spreads the block's ids over the workers, each
//!   id decoded with [`ScenarioGrid::scenario_at`] (no grid
//!   materialization) and evaluated, and returns the rows in id order;
//! - the caller hands those rows to the sinks and the summary before the
//!   next block starts, so at most one block of rows is held at a time
//!   and sweep memory is independent of grid size.
//!
//! Determinism: rows are pure functions of their scenario (randomness
//! forks from the seed dimension, never thread state) and sinks see
//! them in grid order, so emitted bytes are **identical for every
//! thread count and shard split** — the property CI `cmp`s.

use crate::grid::ScenarioGrid;
use crate::scenario::ScenarioOutcome;
use crate::shard::ShardSpec;
use crate::sink::{RowSink, SinkDigest};
use crate::summary::SummaryAccumulator;
use crate::table::{summary_markdown, MetricSummary, SweepRow};
use hpcarbon_api::providers::EmbodiedSource;
use hpcarbon_api::{Estimator, EstimatorBuilder, ForecastModel};
use hpcarbon_sim::par::{par_map_workers, worker_count};
use std::fmt;
use std::io;
use std::ops::Range;
use std::sync::Arc;

/// Rows per worker in one block. A block of `BLOCK_ROWS_PER_WORKER ×
/// workers` rows bounds what a run holds, and grows with the worker
/// count so that each block's thread start-up stays a small share of
/// its rows' work.
const BLOCK_ROWS_PER_WORKER: usize = 64;

/// Per-scenario workload knobs shared by every grid point.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Simulated grid year.
    pub year: i32,
    /// Jobs in each scenario's scheduling trace.
    pub jobs_per_scenario: usize,
    /// GPUs in each scenario's cluster.
    pub cluster_gpus: u32,
    /// Forecast model driving shifting decisions. `None` plans on the
    /// actual trace (perfect knowledge), the historical behaviour — and
    /// keeps every emitted byte identical to pre-forecast sweeps.
    pub forecast: Option<ForecastModel>,
}

impl SweepConfig {
    /// The default workload: a 2021 grid year, 120-job traces, 96 GPUs.
    pub fn paper_default() -> SweepConfig {
        SweepConfig {
            year: 2021,
            jobs_per_scenario: 120,
            cluster_gpus: 96,
            forecast: None,
        }
    }

    /// A reduced workload for tests and demos (40-job traces).
    pub fn fast() -> SweepConfig {
        SweepConfig {
            year: 2021,
            jobs_per_scenario: 40,
            cluster_gpus: 96,
            forecast: None,
        }
    }
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig::paper_default()
    }
}

/// Why a sweep run failed. Infeasible scenarios are **not** errors —
/// they become error rows and the sweep completes; this type covers
/// failures of the run itself.
#[derive(Debug)]
pub enum SweepError {
    /// A sink failed; the sweep was aborted mid-stream and the sink
    /// outputs are incomplete.
    Sink(io::Error),
    /// The shard specification does not describe a partition slice.
    Shard {
        /// Offending zero-based index.
        index: usize,
        /// Declared shard count.
        count: usize,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Sink(e) => write!(f, "sweep sink failed: {e}"),
            SweepError::Shard { index, count } => {
                write!(
                    f,
                    "invalid shard {index}/{count}: index must be < count ≥ 1"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Sink(e) => Some(e),
            SweepError::Shard { .. } => None,
        }
    }
}

/// What a completed sweep run produced: stream statistics, the online
/// summary, the top-k ranking, and the digests of every byte-emitting
/// sink (attachment order) — everything the CLI prints and shard
/// manifests record, with no row table behind it.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Total rows of the full grid (all shards).
    pub grid_len: usize,
    /// The id range this run evaluated (the full grid when unsharded).
    pub rows: Range<usize>,
    /// Rows that evaluated successfully.
    pub ok: usize,
    /// Rows that failed soft (infeasible scenarios).
    pub errors: usize,
    /// Min/mean/max of the headline metrics over this run's ok rows.
    pub summary: Vec<MetricSummary>,
    /// The lowest-carbon rows of this run, ascending, at most `top`.
    pub top: Vec<SweepRow>,
    /// Digests of the attached byte-emitting sinks, attachment order.
    pub digests: Vec<SinkDigest>,
}

impl SweepReport {
    /// Rows evaluated by this run.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the run evaluated no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The summary as an aligned Markdown table (terminal-friendly).
    pub fn summary_table(&self) -> String {
        summary_markdown(&self.summary)
    }
}

/// A configured sweep run: `Sweep::over(&grid)` + chained knobs, then
/// [`Sweep::run`]. See the [module docs](self) for the execution model.
pub struct Sweep<'a> {
    grid: &'a ScenarioGrid,
    config: SweepConfig,
    threads: Option<usize>,
    shard: Option<(usize, usize)>,
    top: usize,
    sinks: Vec<&'a mut dyn RowSink>,
    /// Providers and trace files; [`Sweep::run`] adds the worker count.
    estimator: EstimatorBuilder,
}

impl<'a> Sweep<'a> {
    /// Starts a sweep over `grid` with the paper-default workload, the
    /// available parallelism, no shard, and a top-5 ranking.
    pub fn over(grid: &'a ScenarioGrid) -> Sweep<'a> {
        Sweep {
            grid,
            config: SweepConfig::paper_default(),
            threads: None,
            shard: None,
            top: 5,
            sinks: Vec::new(),
            estimator: Estimator::builder(),
        }
    }

    /// Sets the per-scenario workload knobs.
    pub fn config(mut self, config: SweepConfig) -> Sweep<'a> {
        self.config = config;
        self
    }

    /// Forces the worker count (default: the available parallelism).
    /// The rows and their bytes are the same for every count.
    pub fn threads(mut self, threads: usize) -> Sweep<'a> {
        self.threads = Some(threads.max(1));
        self
    }

    /// Restricts the run to shard `index` of a `count`-way partition
    /// (see [`ShardSpec::range`]). Validated at [`Sweep::run`].
    pub fn shard(mut self, index: usize, count: usize) -> Sweep<'a> {
        self.shard = Some((index, count));
        self
    }

    /// Sets how many lowest-carbon rows the report retains (default 5).
    pub fn top(mut self, k: usize) -> Sweep<'a> {
        self.top = k;
        self
    }

    /// Attaches a sink; rows stream to every attached sink in grid
    /// order. May be called repeatedly (e.g. CSV + JSON in one pass).
    pub fn sink(mut self, sink: &'a mut dyn RowSink) -> Sweep<'a> {
        self.sinks.push(sink);
        self
    }

    /// Resolves the grid's `system` dimension (and the all-flash
    /// what-if's replacement part) against an explicit embodied source
    /// — the `hpcarbon sweep --catalog DIR` path. Defaults to the
    /// built-in Table 1/2 tables.
    pub fn embodied(mut self, source: Arc<dyn EmbodiedSource>) -> Sweep<'a> {
        self.estimator = self.estimator.embodied(source);
        self
    }

    /// Registers an ingested trace file as `region`'s
    /// [`hpcarbon_api::TraceSource::File`] trace — the
    /// `hpcarbon sweep --trace-file` path. Repeatable, one file per
    /// region; `file` rows for regions without a registration fail soft
    /// with the API's "no trace file registered" error.
    pub fn trace_file(
        mut self,
        region: hpcarbon_grid::regions::OperatorId,
        trace: Arc<hpcarbon_grid::trace::IntensityTrace>,
    ) -> Sweep<'a> {
        self.estimator = self.estimator.trace_file(region, trace);
        self
    }

    /// Evaluates the configured slice of the grid, streaming every row
    /// through the attached sinks in grid order.
    ///
    /// # Errors
    /// [`SweepError::Shard`] for a malformed shard spec;
    /// [`SweepError::Sink`] when a sink fails (the stream aborts and
    /// that sink's output is incomplete).
    ///
    /// # Panics
    /// When a row's evaluation panics (a provider or embodied source that
    /// panics, say) or a sink panics, the run stops every worker and
    /// panics on the caller once they have exited. The sinks are left
    /// unfinished, their output incomplete. The `hpcarbon sweep` CLI then
    /// exits 101 with partial files and no shard manifest, so a `--shard`
    /// run of that shard starts over instead of resuming.
    pub fn run(mut self) -> Result<SweepReport, SweepError> {
        let shard = match self.shard {
            Some((index, count)) => {
                if count == 0 || index >= count {
                    return Err(SweepError::Shard { index, count });
                }
                Some(ShardSpec { index, count })
            }
            None => None,
        };
        let grid_len = self.grid.len();
        let range = shard.map_or(0..grid_len, |s| s.range(grid_len));
        let workers = self
            .threads
            .unwrap_or_else(|| worker_count(range.len()))
            .clamp(1, range.len().max(1));
        let (grid, config) = (self.grid, self.config);
        let estimator = std::mem::replace(&mut self.estimator, Estimator::builder())
            .threads(workers)
            .build();
        let ctx = estimator.context_for(
            range
                .clone()
                .map(|id| grid.scenario_at(id).to_request(&config)),
        );
        let row_at = |id: usize| {
            let scenario = grid.scenario_at(id);
            let outcome = ctx.estimate(&scenario.to_request(&config));
            SweepRow {
                scenario,
                outcome: outcome.map(ScenarioOutcome::from),
            }
        };
        let mut acc = SummaryAccumulator::new(self.top);

        for sink in self.sinks.iter_mut() {
            sink.begin().map_err(SweepError::Sink)?;
        }
        let block = BLOCK_ROWS_PER_WORKER * workers;
        for start in range.clone().step_by(block) {
            let ids: Vec<usize> = (start..range.end.min(start + block)).collect();
            for row in par_map_workers(&ids, workers, |_, &id| row_at(id)) {
                deliver(&mut self.sinks, &mut acc, &row).map_err(SweepError::Sink)?;
            }
        }
        for sink in self.sinks.iter_mut() {
            sink.finish().map_err(SweepError::Sink)?;
        }
        Ok(SweepReport {
            grid_len,
            rows: range,
            ok: acc.ok_count(),
            errors: acc.error_count(),
            summary: acc.summary(),
            top: acc.top(),
            digests: self.sinks.iter().filter_map(|s| s.digest()).collect(),
        })
    }
}

/// Forwards one in-order row to every sink, then the accumulator.
fn deliver(
    sinks: &mut [&mut dyn RowSink],
    acc: &mut SummaryAccumulator,
    row: &SweepRow,
) -> io::Result<()> {
    for sink in sinks.iter_mut() {
        sink.row(row)?;
    }
    acc.row(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_scenario;
    use crate::sink::{CollectSink, CsvSink, JsonSink};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn run_bytes(threads: usize, shard: Option<(usize, usize)>) -> (Vec<u8>, Vec<u8>, SweepReport) {
        let grid = ScenarioGrid::quick();
        let mut csv = CsvSink::new(Vec::new());
        let mut json = JsonSink::new(Vec::new());
        let mut sweep = Sweep::over(&grid)
            .config(SweepConfig::fast())
            .threads(threads)
            .sink(&mut csv)
            .sink(&mut json);
        if let Some((i, n)) = shard {
            sweep = sweep.shard(i, n);
        }
        let report = sweep.run().unwrap();
        (csv.into_inner(), json.into_inner(), report)
    }

    #[test]
    fn streaming_is_byte_identical_to_serial() {
        let (csv1, json1, r1) = run_bytes(1, None);
        for threads in [2, 3, 8] {
            let (csv, json, r) = run_bytes(threads, None);
            assert_eq!(csv, csv1, "threads={threads}");
            assert_eq!(json, json1, "threads={threads}");
            assert_eq!(r.ok, r1.ok);
            assert_eq!(r.digests, r1.digests);
        }
    }

    #[test]
    fn report_carries_summary_top_and_digests() {
        let (csv, _, report) = run_bytes(4, None);
        assert_eq!(report.grid_len, 16);
        assert_eq!(report.rows, 0..16);
        assert_eq!(report.ok + report.errors, report.len());
        assert!(report.summary.iter().any(|m| m.metric == "sched_kg"));
        assert_eq!(report.top.len(), 5);
        for w in report.top.windows(2) {
            let a = w[0].outcome.as_ref().unwrap().sched_carbon_kg;
            let b = w[1].outcome.as_ref().unwrap().sched_carbon_kg;
            assert!(a <= b);
        }
        assert_eq!(report.digests.len(), 2);
        assert_eq!(report.digests[0].bytes, csv.len() as u64);
        assert!(report.summary_table().contains("sched_kg"));
    }

    #[test]
    fn sharded_fragments_reassemble_the_unsharded_documents() {
        let (full_csv, full_json, full) = run_bytes(2, None);
        let grid = ScenarioGrid::quick();
        let mut csv = crate::sink::csv_header().into_bytes();
        let mut json = b"[\n".to_vec();
        let (mut ok, mut errors) = (0, 0);
        let count = 3;
        for index in 0..count {
            let mut csv_frag = CsvSink::fragment(Vec::new());
            let range = ShardSpec { index, count }.range(grid.len());
            let mut json_frag = JsonSink::fragment(Vec::new(), range.start > 0);
            let report = Sweep::over(&grid)
                .config(SweepConfig::fast())
                .threads(2)
                .shard(index, count)
                .sink(&mut csv_frag)
                .sink(&mut json_frag)
                .run()
                .unwrap();
            assert_eq!(report.rows, range);
            ok += report.ok;
            errors += report.errors;
            csv.extend_from_slice(&csv_frag.into_inner());
            json.extend_from_slice(&json_frag.into_inner());
        }
        json.extend_from_slice(b"\n]\n");
        assert_eq!(csv, full_csv);
        assert_eq!(json, full_json);
        assert_eq!(ok, full.ok);
        assert_eq!(errors, full.errors);
    }

    #[test]
    fn invalid_shard_specs_are_rejected() {
        let grid = ScenarioGrid::quick();
        for (i, n) in [(2, 2), (5, 3), (0, 0)] {
            match Sweep::over(&grid).shard(i, n).run() {
                Err(SweepError::Shard { index, count }) => {
                    assert_eq!((index, count), (i, n));
                }
                other => panic!("expected shard error, got {:?}", other.map(|r| r.rows)),
            }
        }
    }

    #[test]
    fn empty_grid_streams_zero_rows() {
        let grid = ScenarioGrid::new();
        let mut csv = CsvSink::new(Vec::new());
        let report = Sweep::over(&grid)
            .config(SweepConfig::fast())
            .sink(&mut csv)
            .run()
            .unwrap();
        assert!(report.is_empty());
        assert_eq!(report.grid_len, 0);
        assert!(report.summary.is_empty() && report.top.is_empty());
        assert_eq!(csv.into_inner(), crate::sink::csv_header().into_bytes());
    }

    #[test]
    fn sink_failure_aborts_the_stream_without_hanging() {
        struct FailAfter(usize);
        impl RowSink for FailAfter {
            fn row(&mut self, _: &SweepRow) -> io::Result<()> {
                if self.0 == 0 {
                    return Err(io::Error::other("sink quota exhausted"));
                }
                self.0 -= 1;
                Ok(())
            }
        }
        let grid = ScenarioGrid::quick();
        let mut sink = FailAfter(3);
        let err = Sweep::over(&grid)
            .config(SweepConfig::fast())
            .threads(4)
            .sink(&mut sink)
            .run()
            .unwrap_err();
        match err {
            SweepError::Sink(e) => assert!(e.to_string().contains("quota")),
            other => panic!("expected sink error, got {other}"),
        }
    }

    /// The built-in embodied source, counting `part_spec` calls: every
    /// all-flash row makes exactly one, as its evaluation starts.
    struct CountingSource(AtomicUsize);

    impl EmbodiedSource for CountingSource {
        fn build_system(&self, system: crate::SystemId) -> hpcarbon_core::systems::HpcSystem {
            system.build()
        }
        fn part_spec(&self, part: hpcarbon_core::db::PartId) -> hpcarbon_core::db::PartSpec {
            self.0.fetch_add(1, Ordering::Relaxed);
            part.spec()
        }
    }

    /// Records how many rows evaluation ever ran ahead of this sink,
    /// and fails at row `fail_at` when one is given.
    struct LeadSink {
        started: Arc<CountingSource>,
        received: usize,
        max_lead: usize,
        fail_at: Option<usize>,
    }

    impl RowSink for LeadSink {
        fn row(&mut self, _: &SweepRow) -> io::Result<()> {
            if self.fail_at == Some(self.received) {
                return Err(io::Error::other("injected sink fault"));
            }
            let started = self.started.0.load(Ordering::Relaxed);
            self.max_lead = self.max_lead.max(started - self.received);
            self.received += 1;
            Ok(())
        }
    }

    #[test]
    fn evaluation_runs_at_most_one_block_ahead_of_the_sinks() {
        let grid = ScenarioGrid::paper_default().storage([crate::StorageVariant::AllFlash]);
        let sweep = |workers: usize, fail_at: Option<usize>| {
            let started = Arc::new(CountingSource(AtomicUsize::new(0)));
            let mut sink = LeadSink {
                started: Arc::clone(&started),
                received: 0,
                max_lead: 0,
                fail_at,
            };
            let result = Sweep::over(&grid)
                .config(SweepConfig::fast())
                .threads(workers)
                .embodied(started)
                .sink(&mut sink)
                .run();
            (result.map(|r| r.len()), sink)
        };
        for workers in [2, 3] {
            let block = BLOCK_ROWS_PER_WORKER * workers;
            assert!(grid.len() > block, "the grid must span more than one block");

            let (rows, sink) = sweep(workers, None);
            assert_eq!(rows.unwrap(), grid.len());
            assert_eq!(sink.received, grid.len());
            assert!(
                sink.max_lead <= block,
                "workers={workers}: evaluation ran {} rows ahead of a {block}-row block",
                sink.max_lead
            );

            let (rows, sink) = sweep(workers, Some(10));
            assert!(matches!(rows, Err(SweepError::Sink(_))));
            let evaluated = sink.started.0.load(Ordering::Relaxed);
            assert!(
                evaluated <= block,
                "workers={workers}: {evaluated} rows evaluated after the sink failed at row 10"
            );
        }
    }

    /// Runs `sweep` on a thread of its own and waits at most a minute
    /// for it to panic: a sweep with a panicking row or sink must abort,
    /// and a hang fails this test instead of blocking the suite.
    fn panics_within_a_minute(sweep: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(sweep));
            let _ = tx.send(outcome.is_err());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(panicked) => assert!(panicked, "the sweep returned instead of panicking"),
            Err(_) => panic!("the sweep was still running after 60 s"),
        }
    }

    #[test]
    fn a_panicking_row_aborts_the_sweep_instead_of_hanging() {
        // The first all-flash row (id 84) asks the embodied source for
        // the replacement SSD, and the source panics on that first call
        // only. The other worker stops after the row it is running.
        struct PanicsOnce(AtomicBool);
        impl EmbodiedSource for PanicsOnce {
            fn build_system(&self, system: crate::SystemId) -> hpcarbon_core::systems::HpcSystem {
                system.build()
            }
            fn part_spec(&self, part: hpcarbon_core::db::PartId) -> hpcarbon_core::db::PartSpec {
                assert!(
                    self.0.swap(true, Ordering::Relaxed),
                    "injected part_spec fault"
                );
                part.spec()
            }
        }
        panics_within_a_minute(|| {
            let grid = ScenarioGrid::paper_default().storage(crate::StorageVariant::ALL);
            let mut csv = CsvSink::new(Vec::new());
            let _ = Sweep::over(&grid)
                .config(SweepConfig::fast())
                .threads(2)
                .embodied(Arc::new(PanicsOnce(AtomicBool::new(false))))
                .sink(&mut csv)
                .run();
        });
    }

    #[test]
    fn a_panicking_sink_aborts_the_sweep_instead_of_hanging() {
        struct PanicsAfter(usize);
        impl RowSink for PanicsAfter {
            fn row(&mut self, _: &SweepRow) -> io::Result<()> {
                assert!(self.0 > 0, "injected sink fault");
                self.0 -= 1;
                Ok(())
            }
        }
        panics_within_a_minute(|| {
            let grid = ScenarioGrid::paper_default();
            let mut sink = PanicsAfter(3);
            let _ = Sweep::over(&grid)
                .config(SweepConfig::fast())
                .threads(2)
                .sink(&mut sink)
                .run();
        });
    }

    #[test]
    fn forecast_sweeps_are_deterministic_and_fill_the_oracle_columns() {
        let grid = ScenarioGrid::shifting();
        let mut cfg = SweepConfig::fast();
        cfg.forecast = Some(ForecastModel::Noisy { error_pct: 20 });
        let run = |threads| {
            let mut csv = CsvSink::new(Vec::new()).forecast_columns();
            let mut collect = CollectSink::new();
            Sweep::over(&grid)
                .config(cfg)
                .threads(threads)
                .sink(&mut csv)
                .sink(&mut collect)
                .run()
                .unwrap();
            (csv.into_inner(), collect)
        };
        let (csv1, rows) = run(1);
        let (csv4, _) = run(4);
        // Noisy forecasts fork from the scenario seed, never thread
        // state: emitted bytes are thread-count independent.
        assert_eq!(csv1, csv4);
        let mut engaged = 0;
        for r in rows.rows() {
            let o = r.outcome.as_ref().unwrap();
            let (kg, oracle_kg) = (o.shift_saved_kg, o.oracle_saved_kg.unwrap());
            assert!(o.oracle_saved_pct.is_some());
            // An imperfect planner never beats perfect knowledge
            // (within float formatting noise).
            assert!(kg <= oracle_kg + 1e-9, "{kg} > {oracle_kg}");
            if kg < oracle_kg {
                engaged += 1;
            }
        }
        assert!(engaged > 0, "the noisy forecast never cost anything");
    }

    #[test]
    fn contexted_run_matches_run_scenario_exactly() {
        // Rows evaluated through the run's context equal the uncontexted
        // reference path, infeasible rows included.
        let grid = ScenarioGrid::shifting();
        let cfg = SweepConfig::fast();
        let mut collect = CollectSink::new();
        Sweep::over(&grid)
            .config(cfg)
            .threads(2)
            .sink(&mut collect)
            .run()
            .unwrap();
        assert_eq!(collect.rows().len(), grid.len());
        for row in collect.rows() {
            let sc = row.scenario;
            match (&row.outcome, run_scenario(&sc, &cfg)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.sched_carbon_kg, b.sched_carbon_kg, "id {}", sc.id);
                    assert_eq!(a.median_g_per_kwh, b.median_g_per_kwh);
                    assert_eq!(a.shift_saved_kg, b.shift_saved_kg);
                    assert_eq!(a.break_even_years, b.break_even_years);
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("divergent feasibility: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn registered_trace_files_back_the_file_source_dimension() {
        use hpcarbon_grid::regions::OperatorId;
        let grid = ScenarioGrid::quick().sources([crate::TraceSource::File]);
        let trace = Arc::new(hpcarbon_grid::synth::synthesize_year(
            OperatorId::Eso,
            2021,
            99,
        ));
        let mut collect = CollectSink::new();
        Sweep::over(&grid)
            .config(SweepConfig::fast())
            .threads(2)
            .trace_file(OperatorId::Eso, Arc::clone(&trace))
            .sink(&mut collect)
            .run()
            .unwrap();
        for r in collect.rows() {
            match r.scenario.region {
                // Registered region: rows evaluate against the file.
                OperatorId::Eso => {
                    let o = r.outcome.as_ref().unwrap();
                    assert_eq!(o.median_g_per_kwh, trace.boxplot().median);
                }
                // Unregistered region: soft error rows, batch completes.
                _ => {
                    let e = r.outcome.as_ref().unwrap_err().to_string();
                    assert!(e.contains("no trace file registered"), "{e}");
                }
            }
        }
    }

    #[test]
    fn infeasible_scenarios_do_not_abort_the_batch() {
        // Perlmutter has no HDD tier: its all-flash rows must fail soft.
        let grid = ScenarioGrid::quick().storage(crate::StorageVariant::ALL);
        let report = Sweep::over(&grid)
            .config(SweepConfig::fast())
            .run()
            .unwrap();
        assert_eq!(report.len(), grid.len());
        assert!(report.errors > 0);
        assert!(report.ok > 0);
        assert_eq!(report.ok + report.errors, report.len());
    }
}
