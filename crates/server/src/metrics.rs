//! Lock-free serving counters and the `/metrics` plain-text rendering.
//!
//! Everything is an [`AtomicU64`] bumped with relaxed ordering — the
//! counters are statistics, not synchronization, and the render is a
//! point-in-time snapshot (counters are read independently, so a snapshot
//! taken mid-request may be off by one between related counters; each
//! counter is individually monotonic).
//!
//! The exposition format is one `name value` pair per line plus a
//! fixed-bucket latency histogram in the Prometheus text idiom
//! (`*_bucket{le="…"}` lines are cumulative). The field glossary lives in
//! the README's "Serve & load-test" section; field names are a wire
//! contract (CI greps them).

use hpcarbon_api::{StoreCounters, StoreStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Upper bounds (µs) of the estimate-latency histogram buckets; a final
/// `+Inf` bucket catches the rest.
pub const LATENCY_BUCKETS_US: [u64; 6] = [100, 500, 1_000, 5_000, 20_000, 100_000];

/// Per-shard event-loop statistics, rendered as labeled `/metrics` lines
/// (`shard_open_connections{shard="0"} …`). Only the event-loop server
/// initializes these; the blocking fallback renders none.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Connections currently open on this shard (gauge).
    pub open_connections: AtomicU64,
    /// Readiness events this shard's `epoll_wait` has delivered.
    pub readiness_events: AtomicU64,
    /// `eventfd` doorbell wakeups (new connections handed over by the
    /// acceptor plus finished estimations returned by workers).
    pub wakeups: AtomicU64,
}

/// All serving counters. One instance per server, shared by the workers.
#[derive(Debug, Default)]
pub struct Metrics {
    /// HTTP requests parsed off the wire (any route, any outcome).
    pub http_requests: AtomicU64,
    /// Responses with a 2xx status.
    pub responses_2xx: AtomicU64,
    /// Responses with a 4xx status.
    pub responses_4xx: AtomicU64,
    /// Responses with a 5xx status.
    pub responses_5xx: AtomicU64,
    /// `POST /v1/estimate` calls (a batch of any size counts once).
    pub estimate_calls: AtomicU64,
    /// Individual requests answered inside estimate batches.
    pub reports_ok: AtomicU64,
    /// Individual error rows inside estimate batches.
    pub report_errors: AtomicU64,
    /// Batch rows answered from the response cache, on the event loop
    /// or in a worker.
    pub cache_hits: AtomicU64,
    /// Validated batch rows that ran the estimator.
    pub cache_misses: AtomicU64,
    /// Whole responses served from the response cache on the event loop
    /// itself (zero body copies). Each also counts its rows into
    /// `cache_hits`, so row-level invariants hold.
    pub hot_responses: AtomicU64,
    /// Connections dropped by peer reset/disconnect mid-request or
    /// mid-response (never counts clean keep-alive closes).
    pub conn_resets: AtomicU64,
    /// Requests whose handler panicked; each was answered with a 500
    /// and its worker kept serving.
    pub worker_panics: AtomicU64,
    /// Per-shard event-loop stats; set once at event-loop boot.
    shards: OnceLock<Vec<ShardStats>>,
    /// Estimate-call latency histogram (cumulative buckets, µs).
    latency_buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    /// Sum of estimate-call latencies, µs.
    latency_sum_us: AtomicU64,
    /// Number of estimate calls observed in the histogram.
    latency_count: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Bumps the status-class counter for one response.
    pub fn count_response(&self, status: u16) {
        let c = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Installs the per-shard stat blocks (idempotent; the first caller
    /// wins, which is fine because exactly one event loop boots per
    /// server).
    pub fn init_shards(&self, n: usize) {
        let _ = self
            .shards
            .set((0..n).map(|_| ShardStats::default()).collect());
    }

    /// Shard `i`'s stat block. Panics if the event loop never called
    /// [`init_shards`](Self::init_shards) — a programming error, not a
    /// runtime condition.
    pub fn shard(&self, i: usize) -> &ShardStats {
        // lint: allow(panic-in-library) -- documented panic on a wiring bug (event loop must call init_shards first); there is no sane fallback stat block
        &self.shards.get().expect("init_shards not called")[i]
    }

    /// Records one estimate call's wall-clock latency.
    pub fn observe_latency_us(&self, us: u64) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&le| us <= le)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.latency_buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the `/metrics` document. `cache_entries` is sampled from
    /// the cache at render time (it is a gauge, not a counter), and
    /// `stores` from the estimator's stores.
    pub fn render(&self, cache_entries: usize, stores: StoreStats) -> String {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::with_capacity(1024);
        out.push_str("# hpcarbon-server metrics; counters are cumulative since boot.\n");
        out.push_str("# Field glossary: README \"Serve & load-test\".\n");
        for (name, value) in [
            ("http_requests_total", g(&self.http_requests)),
            ("responses_2xx_total", g(&self.responses_2xx)),
            ("responses_4xx_total", g(&self.responses_4xx)),
            ("responses_5xx_total", g(&self.responses_5xx)),
            ("estimate_calls_total", g(&self.estimate_calls)),
            ("reports_ok_total", g(&self.reports_ok)),
            ("report_errors_total", g(&self.report_errors)),
            ("cache_hits_total", g(&self.cache_hits)),
            ("cache_misses_total", g(&self.cache_misses)),
            ("cache_entries", cache_entries as u64),
            ("hot_responses_total", g(&self.hot_responses)),
            ("conn_resets_total", g(&self.conn_resets)),
            ("worker_panics_total", g(&self.worker_panics)),
        ] {
            out.push_str(&format!("{name} {value}\n"));
        }
        for (store, counters) in [
            ("trace", stores.traces),
            ("run", stores.runs),
            ("seasonal", stores.seasonal),
        ] {
            store_lines(&mut out, store, counters);
        }
        if let Some(shards) = self.shards.get() {
            for (i, s) in shards.iter().enumerate() {
                out.push_str(&format!(
                    "shard_open_connections{{shard=\"{i}\"}} {}\n",
                    s.open_connections.load(Ordering::Relaxed)
                ));
                out.push_str(&format!(
                    "shard_readiness_events_total{{shard=\"{i}\"}} {}\n",
                    s.readiness_events.load(Ordering::Relaxed)
                ));
                out.push_str(&format!(
                    "shard_wakeups_total{{shard=\"{i}\"}} {}\n",
                    s.wakeups.load(Ordering::Relaxed)
                ));
            }
        }
        // Cumulative histogram: each bucket counts everything at or below
        // its bound, Prometheus-style.
        let mut cumulative = 0;
        for (i, &le) in LATENCY_BUCKETS_US.iter().enumerate() {
            cumulative += self.latency_buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "estimate_latency_us_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.latency_buckets[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed);
        out.push_str(&format!(
            "estimate_latency_us_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!(
            "estimate_latency_us_sum {}\n",
            g(&self.latency_sum_us)
        ));
        out.push_str(&format!(
            "estimate_latency_us_count {}\n",
            g(&self.latency_count)
        ));
        out
    }
}

/// One estimator store's lines: `{store}_store_hits_total`,
/// `{store}_store_builds_total` and the `{store}_store_entries` gauge.
fn store_lines(out: &mut String, store: &str, c: StoreCounters) {
    out.push_str(&format!("{store}_store_hits_total {}\n", c.hits));
    out.push_str(&format!("{store}_store_builds_total {}\n", c.builds));
    out.push_str(&format!("{store}_store_entries {}\n", c.entries));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_classes_route_to_their_counters() {
        let m = Metrics::new();
        for s in [200, 200, 404, 413, 500] {
            m.count_response(s);
        }
        assert_eq!(m.responses_2xx.load(Ordering::Relaxed), 2);
        assert_eq!(m.responses_4xx.load(Ordering::Relaxed), 2);
        assert_eq!(m.responses_5xx.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_the_render() {
        let m = Metrics::new();
        m.observe_latency_us(50); // le=100
        m.observe_latency_us(800); // le=1000
        m.observe_latency_us(999_999); // +Inf
        let text = m.render(0, StoreStats::default());
        assert!(text.contains("estimate_latency_us_bucket{le=\"100\"} 1\n"));
        assert!(text.contains("estimate_latency_us_bucket{le=\"1000\"} 2\n"));
        assert!(text.contains("estimate_latency_us_bucket{le=\"100000\"} 2\n"));
        assert!(text.contains("estimate_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("estimate_latency_us_sum 1000849\n"));
        assert!(text.contains("estimate_latency_us_count 3\n"));
    }

    #[test]
    fn render_names_are_the_wire_contract() {
        // CI greps these names; a rename is a contract break.
        let counters = |hits, builds, entries| StoreCounters {
            hits,
            builds,
            entries,
        };
        let stores = StoreStats {
            traces: counters(5, 3, 2),
            runs: counters(11, 13, 17),
            seasonal: counters(19, 23, 29),
        };
        let text = Metrics::new().render(7, stores);
        for name in [
            "http_requests_total 0",
            "responses_2xx_total 0",
            "estimate_calls_total 0",
            "cache_hits_total 0",
            "cache_misses_total 0",
            "cache_entries 7",
            "hot_responses_total 0",
            "conn_resets_total 0",
            "worker_panics_total 0",
            "trace_store_hits_total 5",
            "trace_store_builds_total 3",
            "trace_store_entries 2",
            "run_store_hits_total 11",
            "run_store_builds_total 13",
            "run_store_entries 17",
            "seasonal_store_hits_total 19",
            "seasonal_store_builds_total 23",
            "seasonal_store_entries 29",
        ] {
            assert!(text.contains(name), "missing {name:?} in:\n{text}");
        }
    }

    #[test]
    fn shard_stats_render_labeled_lines() {
        let m = Metrics::new();
        assert!(
            !m.render(0, StoreStats::default()).contains("shard_"),
            "no shard lines yet"
        );
        m.init_shards(2);
        m.shard(0).open_connections.store(3, Ordering::Relaxed);
        m.shard(1).open_connections.store(4, Ordering::Relaxed);
        m.shard(1).readiness_events.fetch_add(9, Ordering::Relaxed);
        m.shard(0).wakeups.fetch_add(2, Ordering::Relaxed);
        let text = m.render(0, StoreStats::default());
        for line in [
            "shard_open_connections{shard=\"0\"} 3",
            "shard_open_connections{shard=\"1\"} 4",
            "shard_readiness_events_total{shard=\"1\"} 9",
            "shard_wakeups_total{shard=\"0\"} 2",
            "shard_wakeups_total{shard=\"1\"} 0",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        // Re-initialization is a no-op (first caller wins).
        m.init_shards(5);
        let again = m.render(0, StoreStats::default());
        assert!(again.contains("shard_open_connections{shard=\"1\"} 4"));
        assert!(!again.contains("shard=\"2\""));
    }
}
