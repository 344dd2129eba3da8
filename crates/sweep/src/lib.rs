//! # hpcarbon-sweep
//!
//! Declarative scenario grids and a deterministic **streaming** sweep
//! engine over the whole carbon-modeling stack.
//!
//! The paper's headline results (Figs. 5–8) are each *one point* in a much
//! larger design space: system composition × grid region × PUE model ×
//! scheduling policy × upgrade path × seed. This crate makes the whole
//! space addressable — up to millions of scenarios — in bounded memory:
//!
//! - [`ScenarioGrid`] declares the sweep as a cartesian product of
//!   dimension value lists; [`ScenarioGrid::scenario_at`] decodes any grid
//!   position without expanding the product ([`grid`]);
//! - [`run_scenario`] evaluates one grid point end to end as a *pure
//!   function* that fails soft with a [`ScenarioError`] ([`scenario`]),
//!   delegating to [`hpcarbon_api::Estimator`];
//! - [`Sweep`] is the executor: it derives the shared inputs its rows
//!   need (intensity traces, catalogs, job traces) once per run through
//!   [`hpcarbon_api::Estimator::context_for`], whose cells also hold each
//!   distinct scheduling run and seasonal-PUE year once the first row
//!   has computed it; it evaluates the rows a block of `64 × workers`
//!   at a time through [`hpcarbon_sim::par::par_map_workers`] and
//!   forwards each block **in grid order** to pluggable [`RowSink`]s, so
//!   memory stays at O(threads), independent of grid size, and a row or
//!   sink that panics aborts the run with that panic ([`exec`], [`sink`]);
//! - [`CsvSink`] / [`JsonSink`] stream the frozen CSV/JSON documents,
//!   [`SummaryAccumulator`] folds summary statistics and a top-k ranking
//!   online ([`summary`]), and the returned [`SweepReport`] carries the
//!   counts, summaries and output digests;
//! - `--shard i/N` partitions a grid across machines: [`ShardSpec`]
//!   slices it deterministically, [`ShardManifest`] records each slice's
//!   provenance and digests, and the merge helpers reassemble the
//!   canonical single-machine documents ([`shard`]).
//!
//! ## Determinism
//!
//! Every scenario derives its randomness from its **own** parameters
//! (seed dimension + fixed substream labels via
//! [`hpcarbon_sim::rng::SimRng::substream`]), never from thread-local or
//! shared state, and the executor forwards rows in grid order. Sweeping the
//! same grid therefore produces **byte-identical CSV/JSON output for any
//! worker count and any shard split** — `--threads 1`, `--threads N`, and
//! sharded-then-merged runs all `cmp` equal in CI. The contract is
//! specified in `DESIGN.md` §11.
//!
//! ## Example
//!
//! ```
//! use hpcarbon_sweep::{CsvSink, ScenarioGrid, Sweep, SweepConfig};
//!
//! let grid = ScenarioGrid::quick(); // a small 16-point demo grid
//! let mut csv = CsvSink::new(Vec::new());
//! let report = Sweep::over(&grid)
//!     .config(SweepConfig::fast())
//!     .sink(&mut csv)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.len(), grid.len());
//! assert_eq!(report.errors, 0);
//! let bytes = csv.into_inner();
//! assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), grid.len() + 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod grid;
pub mod scenario;
pub mod shard;
pub mod sink;
pub mod summary;
pub mod table;

pub use exec::{Sweep, SweepConfig, SweepError, SweepReport};
pub use grid::ScenarioGrid;
pub use hpcarbon_sim::rng::fnv1a64;
pub use scenario::{
    run_scenario, PueSpec, Scenario, ScenarioError, ScenarioOutcome, StorageVariant, SystemId,
    TraceSource, UpgradePath,
};
pub use shard::{
    grid_fingerprint, merge_sweep_outputs, validate_partition, OutputDigest, ShardManifest,
    ShardSpec, CSV_FILE, JSON_FILE, MANIFEST_FILE,
};
pub use sink::{CollectSink, CsvSink, JsonSink, RowSink, SinkDigest};
pub use summary::SummaryAccumulator;
pub use table::{MetricSummary, SweepRow};
