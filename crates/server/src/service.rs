//! Route dispatch and the cached estimation path.
//!
//! [`EstimateService`] is the pure core of the server: HTTP request in,
//! HTTP response out, no sockets anywhere — which is what the worker
//! pool, the round-trip tests, and the `serve` benchmarks all call.
//!
//! ## Determinism under caching
//!
//! `POST /v1/estimate` answers must be **byte-identical** to
//! `hpcarbon estimate` for the same document, cached or not. The chain
//! that guarantees it:
//!
//! 1. each batch row validates to a [`ValidRequest`] whose
//!    [`canonical_json`](ValidRequest::canonical_json) is injective over
//!    request semantics;
//! 2. the cache maps canonical bytes → the computed [`FootprintReport`]
//!    **struct** (not rendered text), so assembly goes through the same
//!    [`batch_to_json`] emitter whether rows were computed or recalled;
//! 3. estimation is a pure function of the request and the (fixed,
//!    default) providers.
//!
//! Only `Ok` reports are cached; error rows are cheap to recompute and
//! keeping them out makes cache poisoning by malformed traffic
//! impossible. The mixed case — a batch where some rows hit and some
//! miss — therefore composes row by row without special cases.
//!
//! A row that misses the cache still skips most of its work when an
//! earlier miss shared its region-year, scheduling run or seasonal-PUE
//! year: the estimator's stores keep the recently repeated ones (their
//! counters are the `trace_store_*`, `run_store_*` and
//! `seasonal_store_*` metrics).
//!
//! ## Panics
//!
//! [`EstimateService::handle`] catches a panic under any route and
//! answers `500` with an `internal` error payload, so a panicking
//! provider costs one response, never a worker thread.

use crate::cache::ShardedLru;
use crate::http::{HttpError, HttpRequest, HttpResponse};
use crate::metrics::Metrics;
use hpcarbon_api::request::ValidRequest;
use hpcarbon_api::{batch_to_json, ApiError, EstimateRequest, Estimator, FootprintReport};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Default request-body limit (1 MiB — thousands of batch rows).
pub const DEFAULT_MAX_BODY_BYTES: usize = 1 << 20;

/// A fully rendered, cache-hot response: the exact bytes of an all-`Ok`
/// 200 estimate answer, shared (`Arc`) with every connection writing it,
/// plus the row count for metric accounting.
///
/// This is the event loop's zero-copy fast path: a repeated request body
/// is answered on the loop thread by queueing the shared bytes — no
/// parse, no estimation, no body copy. Keyed on the **raw** body, it only
/// ever hits for byte-identical requests, whose responses are identical
/// by the determinism contract (same bytes → same parse → same canonical
/// rows → same rendered answer), so it can never change served bytes.
#[derive(Debug, Clone)]
pub struct HotResponse {
    /// Rendered JSON response body.
    pub body: Arc<Vec<u8>>,
    /// Batch rows inside; a hot hit counts each as a cache hit so the
    /// row-level invariants (`cache_hits + cache_misses == rows seen`)
    /// survive the short-circuit.
    pub rows: u64,
}

/// The server's request handler: routes, the estimator, and the
/// canonical-request cache.
pub struct EstimateService {
    estimator: Estimator,
    cache: ShardedLru<Arc<FootprintReport>>,
    /// Raw body → rendered all-`Ok` response (see [`HotResponse`]).
    hot: ShardedLru<HotResponse>,
    metrics: Metrics,
    max_body_bytes: usize,
}

impl EstimateService {
    /// A service over `estimator` with a canonical-request cache of
    /// `cache_capacity` entries (0 disables caching) and the default body
    /// limit.
    pub fn new(estimator: Estimator, cache_capacity: usize) -> EstimateService {
        EstimateService {
            estimator,
            cache: ShardedLru::new(cache_capacity),
            hot: ShardedLru::new(cache_capacity),
            metrics: Metrics::new(),
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
        }
    }

    /// Overrides the request-body limit, bytes.
    pub fn with_max_body_bytes(mut self, bytes: usize) -> EstimateService {
        self.max_body_bytes = bytes.max(1);
        self
    }

    /// The request-body limit the HTTP reader enforces.
    pub fn max_body_bytes(&self) -> usize {
        self.max_body_bytes
    }

    /// The serving counters (shared with `/metrics`).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The event loop's fast path: answers a `POST /v1/estimate` body
    /// straight from the hot-response cache, doing **all** the metric
    /// accounting the slow path would ([`handle`](Self::handle) must NOT
    /// also run for this request). Returns `None` on a miss — the caller
    /// hands the request to the worker pool, whose
    /// [`handle`](Self::handle) call populates the cache.
    pub fn try_hot(&self, body: &[u8]) -> Option<HotResponse> {
        let src = std::str::from_utf8(body).ok()?;
        let started = Instant::now();
        let hit = self.hot.get(src)?;
        let m = &self.metrics;
        m.http_requests.fetch_add(1, Ordering::Relaxed);
        m.estimate_calls.fetch_add(1, Ordering::Relaxed);
        m.reports_ok.fetch_add(hit.rows, Ordering::Relaxed);
        m.cache_hits.fetch_add(hit.rows, Ordering::Relaxed);
        m.hot_responses.fetch_add(1, Ordering::Relaxed);
        m.count_response(200);
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        m.observe_latency_us(us);
        Some(hit)
    }

    /// Handles one parsed request. Total: every outcome is a response,
    /// a panic under the route included. It becomes a `500` with an
    /// `internal` error payload, counted in `worker_panics_total`, and
    /// the calling thread keeps serving.
    pub fn handle(&self, req: &HttpRequest) -> HttpResponse {
        self.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
        // Unwind safety: a route shares only atomics, the estimator's
        // stores, whose locks never run a build, and the two
        // caches, which are written after the estimate a panic would
        // come from. A panic leaves nothing shared half-done.
        let resp = panic::catch_unwind(AssertUnwindSafe(|| self.route(req))).unwrap_or_else(|_| {
            self.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            error_payload(500, "internal", "the request handler panicked")
        });
        self.metrics.count_response(resp.status);
        resp
    }

    fn route(&self, req: &HttpRequest) -> HttpResponse {
        match (req.method.as_str(), req.target.as_str()) {
            ("GET", "/healthz") => HttpResponse::ok("text/plain; charset=utf-8", "ok\n"),
            ("GET", "/metrics") => HttpResponse::ok(
                "text/plain; charset=utf-8",
                self.metrics
                    .render(self.cache.len(), self.estimator.store_stats()),
            ),
            ("POST", "/v1/estimate") => self.estimate(&req.body),
            ("GET", "/v1/estimate") | ("POST", "/healthz") | ("POST", "/metrics") => {
                error_payload(405, "http", "method not allowed for this route")
            }
            _ => error_payload(404, "http", "no such route"),
        }
    }

    /// The response for a request that never parsed ([`HttpError`] from
    /// the reader). `None` means the connection died without a decodable
    /// request — nothing useful can be written back.
    pub fn handle_protocol_error(&self, err: &HttpError) -> Option<HttpResponse> {
        let mut resp = match err {
            HttpError::Malformed(msg) => error_payload(400, "http", msg),
            HttpError::BodyTooLarge { .. } => error_payload(413, "http", &err.to_string()),
            HttpError::HeadersTooLarge => error_payload(431, "http", &err.to_string()),
            HttpError::Closed | HttpError::Idle | HttpError::Io(_) => return None,
        };
        // The stream position is unreliable after a protocol error (an
        // unread body may follow); close rather than misparse.
        resp.close = true;
        self.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.count_response(resp.status);
        Some(resp)
    }

    fn estimate(&self, body: &[u8]) -> HttpResponse {
        self.metrics.estimate_calls.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let src = match std::str::from_utf8(body) {
            Ok(s) => s,
            Err(_) => return error_payload(400, "http", "request body is not UTF-8"),
        };
        // Document-level failures (syntax, schema gate, unknown fields)
        // are a typed 400; row-level failures below stay 200 with error
        // rows, exactly like the CLI's batch semantics.
        let requests = match EstimateRequest::batch_from_json(src) {
            Ok(r) => r,
            Err(e) => return error_payload(400, e.kind(), &e.to_string()),
        };
        let results: Vec<Result<Arc<FootprintReport>, ApiError>> = requests
            .iter()
            .map(|r| self.estimate_one_cached(r))
            .collect();
        for r in &results {
            let c = match r {
                Ok(_) => &self.metrics.reports_ok,
                Err(_) => &self.metrics.report_errors,
            };
            c.fetch_add(1, Ordering::Relaxed);
        }
        let json = batch_to_json(&results);
        if results.iter().all(|r| r.is_ok()) {
            // Memoize the whole rendered answer for the event loop's
            // zero-copy path. Only all-Ok batches: error rows are cheap
            // to recompute and keeping them out makes cache poisoning by
            // malformed traffic impossible (same rule as the row cache).
            self.hot.insert(
                src.to_string(),
                HotResponse {
                    body: Arc::new(json.clone().into_bytes()),
                    rows: results.len() as u64,
                },
            );
        }
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.observe_latency_us(us);
        HttpResponse::json(200, json)
    }

    /// One batch row through the cache: canonical key, recall or compute.
    /// Reports stay behind `Arc` end to end — a hit is a refcount bump,
    /// never a deep copy — and the request is validated exactly once
    /// (the same `ValidRequest` yields the key and feeds the estimator).
    fn estimate_one_cached(&self, req: &EstimateRequest) -> Result<Arc<FootprintReport>, ApiError> {
        let valid: ValidRequest = req.validate()?;
        let key = valid.canonical_json();
        if let Some(hit) = self.cache.get(&key) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        let report = Arc::new(self.estimator.estimate_valid(&valid)?);
        self.cache.insert(key, Arc::clone(&report));
        Ok(report)
    }
}

impl Default for EstimateService {
    /// The production default: the paper's estimator, a 1024-entry cache.
    fn default() -> EstimateService {
        EstimateService::new(Estimator::builder().build(), 1024)
    }
}

/// The typed JSON error payload: `{"error": {"kind": ..., "message":
/// ...}}`, the wire form of [`ApiError::kind`] plus its `Display`.
fn error_payload(status: u16, kind: &str, message: &str) -> HttpResponse {
    HttpResponse::json(
        status,
        format!(
            "{{\"error\": {{\"kind\": {}, \"message\": {}}}}}\n",
            hpcarbon_api::json::esc(kind),
            hpcarbon_api::json::esc(message),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcarbon_api::{SystemId, TraceSource};
    use hpcarbon_grid::regions::OperatorId;

    fn post(body: &str) -> HttpRequest {
        HttpRequest {
            method: "POST".into(),
            target: "/v1/estimate".into(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn get(target: &str) -> HttpRequest {
        HttpRequest {
            method: "GET".into(),
            target: target.into(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    fn request_json() -> String {
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.jobs = 30;
        r.to_json()
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let svc = EstimateService::default();
        let ok = svc.handle(&get("/healthz"));
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body, b"ok\n");
        assert_eq!(svc.handle(&get("/nope")).status, 404);
        assert_eq!(svc.handle(&get("/v1/estimate")).status, 405);
        // The /metrics request itself is counted before rendering, so the
        // healthz + 404 + 405 probes plus this one make four.
        let m = svc.handle(&get("/metrics"));
        assert_eq!(m.status, 200);
        assert!(String::from_utf8(m.body)
            .unwrap()
            .contains("http_requests_total 4\n"));
    }

    #[test]
    fn cached_and_uncached_responses_are_byte_identical() {
        let svc = EstimateService::default();
        let body = request_json();
        let first = svc.handle(&post(&body));
        assert_eq!(first.status, 200);
        assert_eq!(svc.metrics().cache_misses.load(Ordering::Relaxed), 1);
        let second = svc.handle(&post(&body));
        assert_eq!(svc.metrics().cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(first.body, second.body, "cache must not change bytes");
        // And both equal the CLI path: a direct estimate_batch emission.
        let reqs = EstimateRequest::batch_from_json(&body).unwrap();
        let direct = batch_to_json(
            &Estimator::builder()
                .threads(1)
                .build()
                .estimate_batch(&reqs),
        );
        assert_eq!(first.body, direct.as_bytes());
    }

    #[test]
    fn cache_distinguishes_every_request_field() {
        let svc = EstimateService::default();
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.jobs = 30;
        let a = svc.handle(&post(&r.to_json()));
        r.source = TraceSource::Synthetic;
        let b = svc.handle(&post(&r.to_json()));
        assert_ne!(a.body, b.body);
        assert_eq!(svc.metrics().cache_misses.load(Ordering::Relaxed), 2);
        assert_eq!(svc.cache.len(), 2);
    }

    #[test]
    fn bad_json_is_a_typed_400_payload() {
        let svc = EstimateService::default();
        let resp = svc.handle(&post("{not json"));
        assert_eq!(resp.status, 400);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"kind\": \"parse\""), "{text}");
        assert!(text.contains("invalid JSON"), "{text}");
        // Schema-gate failures carry their own kind.
        let resp = svc.handle(&post(
            r#"{"schema_version": 9, "system": "frontier", "region": "eso"}"#,
        ));
        assert_eq!(resp.status, 400);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"kind\": \"schema\""), "{text}");
    }

    #[test]
    fn row_level_failures_stay_batch_rows_and_are_not_cached() {
        let svc = EstimateService::default();
        // Row 2 is infeasible (all-flash Perlmutter); the batch is still
        // a 200 with an aligned error row — CLI semantics.
        let body = format!(
            r#"[{}, {{"schema_version": 1, "system": "perlmutter", "region": "eso", "storage": "all-flash", "jobs": 30}}]"#,
            request_json()
        );
        let resp = svc.handle(&post(&body));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"error\": \"storage what-if"), "{text}");
        assert_eq!(svc.metrics().report_errors.load(Ordering::Relaxed), 1);
        assert_eq!(svc.metrics().reports_ok.load(Ordering::Relaxed), 1);
        // Only the feasible row was cached.
        assert_eq!(svc.cache.len(), 1);
    }

    #[test]
    fn hot_responses_short_circuit_with_full_accounting() {
        let svc = EstimateService::default();
        let body = request_json();
        assert!(svc.try_hot(body.as_bytes()).is_none(), "cold cache");
        assert!(svc.try_hot(&[0xff, 0xfe]).is_none(), "non-UTF-8 body");
        let first = svc.handle(&post(&body));
        assert_eq!(svc.hot.len(), 1);
        let hot = svc.try_hot(body.as_bytes()).expect("now hot");
        assert_eq!(*hot.body, first.body, "hot bytes identical");
        assert_eq!(hot.rows, 1);
        // The short-circuit does every metric bump the slow path would,
        // so hot and slow hits are indistinguishable in /metrics except
        // for hot_responses_total itself.
        let m = svc.metrics();
        assert_eq!(m.http_requests.load(Ordering::Relaxed), 2);
        assert_eq!(m.estimate_calls.load(Ordering::Relaxed), 2);
        assert_eq!(m.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(m.cache_misses.load(Ordering::Relaxed), 1);
        assert_eq!(m.reports_ok.load(Ordering::Relaxed), 2);
        assert_eq!(m.hot_responses.load(Ordering::Relaxed), 1);
        assert_eq!(m.responses_2xx.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn error_responses_are_never_hot_cached() {
        let svc = EstimateService::default();
        // Document-level 400: nothing cached.
        svc.handle(&post("{not json"));
        assert_eq!(svc.hot.len(), 0);
        // A batch with an error row stays uncached too (error rows are
        // kept out of both caches).
        let body = format!(
            r#"[{}, {{"schema_version": 1, "system": "perlmutter", "region": "eso", "storage": "all-flash", "jobs": 30}}]"#,
            request_json()
        );
        assert_eq!(svc.handle(&post(&body)).status, 200);
        assert_eq!(svc.hot.len(), 0);
        assert!(svc.try_hot(body.as_bytes()).is_none());
    }

    #[test]
    fn a_panic_under_a_route_is_a_counted_500() {
        struct Panics;
        impl hpcarbon_api::IntensityProvider for Panics {
            fn year_trace(
                &self,
                _: OperatorId,
                _: TraceSource,
                _: i32,
                _: u64,
            ) -> Arc<hpcarbon_grid::trace::IntensityTrace> {
                panic!("injected provider failure")
            }
        }
        let svc = EstimateService::new(Estimator::builder().intensity(Panics).build(), 16);
        let resp = svc.handle(&post(&request_json()));
        assert_eq!(resp.status, 500);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"kind\": \"internal\""), "{text}");
        assert_eq!(svc.metrics().worker_panics.load(Ordering::Relaxed), 1);
        assert_eq!(svc.metrics().responses_5xx.load(Ordering::Relaxed), 1);
        assert_eq!((svc.cache.len(), svc.hot.len()), (0, 0));
        // The service keeps answering.
        assert_eq!(svc.handle(&get("/healthz")).status, 200);
        let metrics = String::from_utf8(svc.handle(&get("/metrics")).body).unwrap();
        assert!(metrics.contains("worker_panics_total 1\n"), "{metrics}");
    }

    #[test]
    fn uncached_misses_on_one_region_year_reach_the_trace_store() {
        // Capacity 0: every call misses both caches and evaluates. Each
        // store builds the body's grid year, scheduling run and
        // seasonal-PUE year twice (first sight, fill), then answers them,
        // with the same bytes.
        let svc = EstimateService::new(Estimator::builder().build(), 0);
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.jobs = 30;
        r.pue = hpcarbon_api::PueSpec::Seasonal {
            mean: 1.2,
            amplitude: 0.1,
        };
        let body = r.to_json();
        let answers: Vec<Vec<u8>> = (0..3).map(|_| svc.handle(&post(&body)).body).collect();
        assert!(answers.iter().all(|a| *a == answers[0]));
        let metrics = String::from_utf8(svc.handle(&get("/metrics")).body).unwrap();
        for line in [
            "cache_misses_total 3\n",
            "trace_store_hits_total 1\n",
            "trace_store_builds_total 2\n",
            "trace_store_entries 1\n",
            "run_store_hits_total 1\n",
            "run_store_builds_total 2\n",
            "run_store_entries 1\n",
            "seasonal_store_hits_total 1\n",
            "seasonal_store_builds_total 2\n",
            "seasonal_store_entries 1\n",
        ] {
            assert!(metrics.contains(line), "missing {line:?} in {metrics}");
        }
    }

    #[test]
    fn protocol_errors_map_to_their_status_codes() {
        let svc = EstimateService::default();
        let r413 = svc
            .handle_protocol_error(&HttpError::BodyTooLarge { limit: 10 })
            .unwrap();
        assert_eq!(r413.status, 413);
        assert!(r413.close);
        let r400 = svc
            .handle_protocol_error(&HttpError::Malformed("x".into()))
            .unwrap();
        assert_eq!(r400.status, 400);
        let r431 = svc
            .handle_protocol_error(&HttpError::HeadersTooLarge)
            .unwrap();
        assert_eq!(r431.status, 431);
        assert!(svc.handle_protocol_error(&HttpError::Closed).is_none());
        assert!(svc.handle_protocol_error(&HttpError::Idle).is_none());
        assert!(svc
            .handle_protocol_error(&HttpError::Io("reset".into()))
            .is_none());
    }
}
