//! # hpcarbon-api
//!
//! The **single front door** to the carbon-estimation stack: a versioned
//! `EstimateRequest → FootprintReport` API with pluggable providers.
//!
//! Every consumer — the `hpcarbon` CLI, the sweep engine, examples, and
//! anything serving estimates at scale — goes through the same three
//! steps:
//!
//! 1. build an [`EstimateRequest`] (in code, or from JSON with the strict
//!    schema-versioned decoder);
//! 2. assemble an [`Estimator`] with [`Estimator::builder`], swapping in
//!    custom [`IntensityProvider`] / [`EmbodiedSource`] implementations
//!    where the defaults don't fit;
//! 3. call [`Estimator::estimate`] (or [`Estimator::estimate_batch`] for
//!    parallel fan-out) and read the [`FootprintReport`].
//!
//! ```
//! use hpcarbon_api::{EstimateRequest, Estimator, FlatIntensity, SystemId};
//! use hpcarbon_grid::regions::OperatorId;
//!
//! // The default estimator answers with the paper's models…
//! let est = Estimator::builder().build();
//! let req = EstimateRequest::paper_baseline(SystemId::Lumi, OperatorId::Eso);
//! let report = est.estimate(&req).unwrap();
//! assert!(report.embodied.total_t > 0.0);
//!
//! // …and any axis can be swapped: here, a flat 100 gCO₂/kWh grid.
//! let flat = Estimator::builder().intensity(FlatIntensity::new(100.0)).build();
//! assert_eq!(flat.estimate(&req).unwrap().grid.median_g_per_kwh, 100.0);
//! ```
//!
//! ## Versioning
//!
//! Requests and reports carry a `schema_version` ([`SCHEMA_VERSION`]).
//! The decoder gates on it **before** anything else, and rejects unknown
//! fields at every nesting level — so adding fields in a future version
//! can never be silently misread by an old build. The schema is specified
//! in `DESIGN.md` §8.
//!
//! ## Determinism
//!
//! Estimation is a pure function of the request and the providers; batch
//! evaluation returns results in request order. Emitted batch JSON is
//! **byte-identical for every thread count** — the contract CI enforces
//! by diffing 1-thread against 4-thread runs.
//!
//! ## Serving and caching
//!
//! Two properties make this API safe to put behind a caching server
//! (`hpcarbon-server`):
//!
//! - provider traits are `Send + Sync`, so one [`Estimator`] can be
//!   shared by a pool of worker threads;
//! - estimation is a pure function of the request and the providers, so
//!   one request document always renders, through [`batch_to_json`], to
//!   the same bytes, and a cache keyed on the document's exact bytes can
//!   never change a response. The determinism-under-caching contract is
//!   specified in `DESIGN.md` §9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod error;
pub mod estimator;
pub mod json;
pub mod parse;
pub mod providers;
pub mod report;
pub mod request;
pub mod store;
pub mod types;

pub use context::{EstimateContext, JobKey, RequestKeys, TraceKey, TraceStats};
pub use error::{ApiError, ParseError};
pub use estimator::{Estimator, EstimatorBuilder};
pub use providers::{
    CatalogEmbodied, DispatchIntensity, EmbodiedSource, FlatIntensity, GeneratedJobs,
    IntensityProvider, JobSource,
};
pub use report::{
    batch_from_json, batch_to_json, EmbodiedSection, FootprintReport, GridSection,
    OperationalSection, ShiftSection, UpgradeSection, Verdict,
};
pub use request::{EstimateRequest, ValidRequest, MAX_JOBS, POLICY_VALUES, SCHEMA_VERSION};
pub use store::{StoreCounters, StoreStats};
pub use types::{ForecastModel, PueSpec, StorageVariant, SystemId, TraceSource, UpgradePath};
