//! # hpcarbon-server
//!
//! An always-on front end for the estimation API: a hand-rolled,
//! **std-only** HTTP/1.1 server (`hpcarbon serve`) and the matching load
//! generator (`hpcarbon loadgen`). No async runtime, no HTTP crate — on
//! Linux a readiness-based epoll event loop (raw syscalls declared by
//! hand, same idiom as the `signal(2)` shim): one acceptor feeds N
//! event-loop shards, each owning a connection [`slab::Slab`], driving
//! the incremental [`http::RequestParser`] off non-blocking reads. Cache
//! hits are answered directly on the event loop with zero body copies
//! (`Arc`'d rendered responses); only uncached estimation is handed to
//! the retained worker pool, which signals completion back through an
//! `eventfd`. Elsewhere, a blocking thread-per-connection fallback with
//! identical observable behavior.
//!
//! ## Routes
//!
//! - `POST /v1/estimate` — a schema-versioned [`hpcarbon_api::EstimateRequest`]
//!   (one object or an array) in, a batch report array out. Responses are
//!   **byte-identical** to `hpcarbon estimate` for the same document.
//! - `GET /healthz` — liveness (`ok\n`).
//! - `GET /metrics` — request counts, latency histogram, cache hits in a
//!   plain-text format (glossary in the README).
//!
//! ## The response cache
//!
//! In front of the estimator sits one bounded LRU cache
//! ([`hpcarbon_sim::lru::Lru`]) that maps a request body's exact bytes
//! to its rendered all-`Ok` answer. Estimation is a pure function of the
//! request and the providers, so one body always renders to one answer
//! and a cache hit returns the exact bytes the uncached path would have
//! computed. Repeated scenario queries skip parsing and simulation
//! entirely; determinism is never traded away. The contract is specified
//! in `DESIGN.md` §9.
//!
//! ## Graceful shutdown
//!
//! `SIGTERM`/`SIGINT` (or a programmatic [`ShutdownHandle`]) stop the
//! accept loop; queued connections drain, in-flight requests complete and
//! their responses are written, then workers join and [`Server::run`]
//! returns a [`ServeSummary`] — the CI smoke job asserts exactly this
//! sequence.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(target_os = "linux")]
pub mod conn;
#[cfg(target_os = "linux")]
pub mod event_loop;
pub mod http;
pub mod loadgen;
pub mod metrics;
#[cfg(target_os = "linux")]
pub mod poll;
pub mod server;
pub mod service;
pub mod signal;
pub mod slab;

pub use http::{HttpError, HttpRequest, HttpResponse};
pub use loadgen::{wait_healthz, LoadGenConfig, LoadSummary};
pub use metrics::Metrics;
pub use server::{ServeSummary, Server, ServerConfig, ShutdownHandle};
pub use service::EstimateService;
