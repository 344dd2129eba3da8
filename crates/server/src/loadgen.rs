//! The std-`TcpStream` load generator behind `hpcarbon loadgen`.
//!
//! Fires a fixed list of request bodies at a running server from a pool
//! of concurrent client threads (one persistent keep-alive connection
//! each; requests are claimed from a shared atomic cursor, so the total
//! count is exact regardless of per-thread pacing) and reports
//! throughput and latency percentiles. It doubles as CI's smoke client:
//! [`wait_healthz`] polls readiness after boot, the first response body
//! can be captured for a golden diff, and any non-2xx or transport error
//! is counted and turned into a nonzero exit by the CLI.
//!
//! The workload itself comes from the caller — typically
//! `ScenarioGrid::sample_requests` under a fixed seed, which makes a load
//! run reproducible request-for-request.

use crate::http::HttpError;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One load run's shape.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Request bodies; request `i` of a run sends
    /// `bodies[i % bodies.len()]`, so runs are reproducible and a
    /// single-document workload needs exactly one entry, however large
    /// `requests` is.
    pub bodies: Vec<String>,
    /// Total requests to fire (cycling over `bodies`).
    pub requests: usize,
    /// Extra connect attempts (with exponential backoff) before a
    /// request is written off as a connect error. During a 10k-connection
    /// ramp the kernel can transiently refuse connects faster than the
    /// acceptor drains the backlog; a couple of retries absorbs that
    /// without hiding a server that is actually down.
    pub connect_retries: u32,
}

/// What a load run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSummary {
    /// Requests fired.
    pub requests: usize,
    /// 2xx responses.
    pub ok: usize,
    /// Non-2xx responses.
    pub non_2xx: usize,
    /// Requests never fired because the connect (after retries) was
    /// refused or timed out — typically a server that is down or a
    /// ramp-up the backlog could not absorb. Reported separately from
    /// `io_errors` so a refused ramp-up cannot hide as a silent zero.
    pub connect_errors: usize,
    /// Transport failures on an established connection (write/read).
    pub io_errors: usize,
    /// Wall-clock of the whole run, seconds.
    pub elapsed_s: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median request latency, µs.
    pub p50_us: u64,
    /// 90th-percentile latency, µs.
    pub p90_us: u64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Slowest request, µs.
    pub max_us: u64,
}

impl LoadSummary {
    /// True when every request got a 2xx over a healthy transport.
    pub fn all_ok(&self) -> bool {
        self.non_2xx == 0 && self.connect_errors == 0 && self.io_errors == 0
    }

    /// The summary as a single JSON object (the CI artifact format).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"requests\": {},\n  \"ok\": {},\n  \"non_2xx\": {},\n  \
             \"connect_errors\": {},\n  \"io_errors\": {},\n  \
             \"elapsed_s\": {:.3},\n  \"throughput_rps\": {:.1},\n  \
             \"latency_us\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}\n}}\n",
            self.requests,
            self.ok,
            self.non_2xx,
            self.connect_errors,
            self.io_errors,
            self.elapsed_s,
            self.throughput_rps,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.max_us,
        )
    }

    /// A human-readable one-screen rendering for the terminal.
    pub fn render(&self) -> String {
        format!(
            "loadgen: {} requests, {} ok, {} non-2xx, {} connect errors, {} i/o errors\n\
             elapsed  : {:.3} s\n\
             rate     : {:.1} req/s\n\
             latency  : p50 {} us | p90 {} us | p99 {} us | max {} us\n",
            self.requests,
            self.ok,
            self.non_2xx,
            self.connect_errors,
            self.io_errors,
            self.elapsed_s,
            self.throughput_rps,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.max_us,
        )
    }
}

/// Polls `GET /healthz` until the server answers 200 or the timeout
/// expires. Returns `true` on readiness.
pub fn wait_healthz(addr: &str, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if probe_healthz(addr) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn probe_healthz(addr: &str) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    if stream
        .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .is_err()
    {
        return false;
    }
    matches!(read_response(&mut BufReader::new(stream)), Ok((200, _)))
}

/// Reads one HTTP response (status + `Content-Length` body) off a
/// buffered stream. Shared by the load workers, the health probe, and
/// the server's own shutdown tests.
pub(crate) fn read_response(r: &mut impl BufRead) -> Result<(u16, Vec<u8>), HttpError> {
    let mut line = String::new();
    if r.read_line(&mut line)
        .map_err(|e| HttpError::Io(e.to_string()))?
        == 0
    {
        return Err(HttpError::Closed);
    }
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line {line:?}")))?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if r.read_line(&mut header)
            .map_err(|e| HttpError::Io(e.to_string()))?
            == 0
        {
            return Err(HttpError::Io("connection closed in headers".into()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad content-length".into()))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)
        .map_err(|e| HttpError::Io(e.to_string()))?;
    Ok((status, body))
}

struct WorkerOutcome {
    latencies_us: Vec<u64>,
    ok: usize,
    non_2xx: usize,
    connect_errors: usize,
    io_errors: usize,
}

/// Client threads carry a tiny stack (a `BufReader`, a head string, a
/// latency vec — all heap); the default 2 MiB would put a 10k-connection
/// soak at 20 GiB of reservation for no reason.
const WORKER_STACK: usize = 128 * 1024;

/// Runs the load. Returns the summary plus the body of request index 0
/// (the golden-diff probe CI `cmp`s against the committed report).
///
/// # Errors
/// Only configuration errors fail the call (no bodies, zero
/// concurrency); per-request transport failures are *counted*, never
/// thrown, so a flaky run still yields a full summary.
pub fn run(cfg: &LoadGenConfig) -> std::io::Result<(LoadSummary, Option<Vec<u8>>)> {
    if cfg.bodies.is_empty() || cfg.requests == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "loadgen needs at least one request body and a positive request count",
        ));
    }
    let concurrency = cfg.concurrency.clamp(1, cfg.requests);
    let cursor = AtomicUsize::new(0);
    let first_body: Mutex<Option<Vec<u8>>> = Mutex::new(None);
    let started = Instant::now();

    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| {
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK)
                    .spawn_scoped(scope, || load_worker(cfg, &cursor, &first_body))
                    // lint: allow(panic-in-library) -- thread spawn fails only on OS resource exhaustion; the load run is worthless at reduced concurrency, so stop loudly
                    .expect("spawn load worker")
            })
            .collect();
        handles
            .into_iter()
            // lint: allow(panic-in-library) -- re-raising a worker panic on the harness thread is the point: a partial summary would silently undercount
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });

    let elapsed = started.elapsed().as_secs_f64();
    let mut latencies: Vec<u64> = Vec::with_capacity(cfg.requests);
    let (mut ok, mut non_2xx, mut connect_errors, mut io_errors) = (0, 0, 0, 0);
    for o in outcomes {
        latencies.extend(o.latencies_us);
        ok += o.ok;
        non_2xx += o.non_2xx;
        connect_errors += o.connect_errors;
        io_errors += o.io_errors;
    }
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() - 1) as f64 * p / 100.0).round() as usize;
        latencies[idx]
    };
    let completed = ok + non_2xx;
    let summary = LoadSummary {
        requests: cfg.requests,
        ok,
        non_2xx,
        connect_errors,
        io_errors,
        elapsed_s: elapsed,
        throughput_rps: if elapsed > 0.0 {
            completed as f64 / elapsed
        } else {
            0.0
        },
        p50_us: pct(50.0),
        p90_us: pct(90.0),
        p99_us: pct(99.0),
        max_us: latencies.last().copied().unwrap_or(0),
    };
    // A panicking worker has already been re-raised by join() above, so
    // recovering the value from a poisoned lock here is unreachable
    // belt-and-braces, not data-loss masking.
    let first = first_body
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    Ok((summary, first))
}

/// Connects to the target, retrying with exponential backoff up to
/// `cfg.connect_retries` extra attempts. `None` means every attempt
/// failed and the caller should count a connect error.
fn connect_with_retries(cfg: &LoadGenConfig) -> Option<BufReader<TcpStream>> {
    for attempt in 0..=cfg.connect_retries {
        match TcpStream::connect(&cfg.addr) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
                return Some(BufReader::new(s));
            }
            Err(_) if attempt < cfg.connect_retries => {
                // 5ms, 10ms, 20ms, … capped at 160ms per wait.
                std::thread::sleep(Duration::from_millis(5u64 << attempt.min(5)));
            }
            Err(_) => {}
        }
    }
    None
}

fn load_worker(
    cfg: &LoadGenConfig,
    cursor: &AtomicUsize,
    first_body: &Mutex<Option<Vec<u8>>>,
) -> WorkerOutcome {
    let mut out = WorkerOutcome {
        latencies_us: Vec::new(),
        ok: 0,
        non_2xx: 0,
        connect_errors: 0,
        io_errors: 0,
    };
    let mut conn: Option<BufReader<TcpStream>> = None;
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= cfg.requests {
            return out;
        }
        // (Re)connect lazily; one failed request costs one reconnect,
        // not the rest of the worker's share.
        if conn.is_none() {
            match connect_with_retries(cfg) {
                Some(c) => conn = Some(c),
                None => {
                    out.connect_errors += 1;
                    continue;
                }
            }
        }
        // lint: allow(panic-in-library) -- `conn` was set to Some by the reconnect block directly above; every `continue` path re-enters that block first
        let reader = conn.as_mut().expect("connection just established");
        let body = cfg.bodies[i % cfg.bodies.len()].as_bytes();
        let head = format!(
            "POST /v1/estimate HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let fired = Instant::now();
        let wrote = {
            let stream = reader.get_mut();
            stream
                .write_all(head.as_bytes())
                .and_then(|()| stream.write_all(body))
        };
        if wrote.is_err() {
            out.io_errors += 1;
            conn = None;
            continue;
        }
        match read_response(reader) {
            Ok((status, resp_body)) => {
                let us = u64::try_from(fired.elapsed().as_micros()).unwrap_or(u64::MAX);
                out.latencies_us.push(us);
                if (200..300).contains(&status) {
                    out.ok += 1;
                } else {
                    out.non_2xx += 1;
                }
                if i == 0 {
                    // Writing a complete body over Option is atomic from
                    // readers' view; poison recovery cannot expose a
                    // half-written value.
                    *first_body.lock().unwrap_or_else(PoisonError::into_inner) = Some(resp_body);
                }
            }
            Err(_) => {
                out.io_errors += 1;
                conn = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use hpcarbon_api::{EstimateRequest, SystemId};
    use hpcarbon_grid::regions::OperatorId;

    fn body() -> String {
        let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
        r.jobs = 20;
        r.to_json()
    }

    #[test]
    fn loadgen_roundtrips_against_a_live_server() {
        let server = Server::bind_with(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                cache_capacity: 64,
                max_body_bytes: 1 << 20,
                ..ServerConfig::default()
            },
            hpcarbon_api::Estimator::builder().build(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().unwrap());

        assert!(wait_healthz(&addr, Duration::from_secs(10)));
        let (summary, first) = run(&LoadGenConfig {
            addr: addr.clone(),
            concurrency: 4,
            bodies: vec![body()],
            requests: 12,
            connect_retries: 2,
        })
        .unwrap();
        assert_eq!(summary.requests, 12);
        assert_eq!(summary.ok, 12, "{summary:?}");
        assert!(summary.all_ok());
        assert!(summary.p99_us >= summary.p50_us);
        assert!(summary.max_us >= summary.p99_us);
        assert!(summary.throughput_rps > 0.0);
        // The captured first body is a real report array.
        let first = String::from_utf8(first.unwrap()).unwrap();
        assert!(first.starts_with("[\n"), "{first}");
        assert!(first.contains("\"embodied\""));
        // Identical bodies mean the cache served 11 of 12 rows.
        let json = summary.to_json();
        assert!(json.contains("\"requests\": 12"), "{json}");
        assert!(json.contains("\"connect_errors\": 0"), "{json}");
        assert!(json.contains("\"p99\""), "{json}");

        handle.shutdown();
        let s = join.join().unwrap();
        assert_eq!(s.estimate_calls, 12);
        // Concurrent first arrivals may each miss before the first insert
        // lands, but every row resolves through the cache path and the
        // steady state hits: misses are bounded by the concurrency.
        assert_eq!(s.cache_hits + s.cache_misses, 12);
        assert!((1..=4).contains(&s.cache_misses), "{s:?}");
        assert!(s.cache_hits >= 8, "{s:?}");
    }

    #[test]
    fn empty_workload_is_a_config_error_and_health_probe_times_out() {
        let err = run(&LoadGenConfig {
            addr: "127.0.0.1:1".into(),
            concurrency: 2,
            bodies: Vec::new(),
            requests: 4,
            connect_retries: 0,
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // Nothing listens on port 1; the probe must give up, not hang.
        assert!(!wait_healthz("127.0.0.1:1", Duration::from_millis(200)));
    }

    #[test]
    fn refused_connects_surface_as_connect_errors_not_silent_zeros() {
        // Nothing listens on port 1: every request's connect is refused.
        let (summary, first) = run(&LoadGenConfig {
            addr: "127.0.0.1:1".into(),
            concurrency: 2,
            bodies: vec![body()],
            requests: 6,
            connect_retries: 0,
        })
        .unwrap();
        assert_eq!(summary.connect_errors, 6, "{summary:?}");
        assert_eq!(summary.ok, 0);
        assert_eq!(summary.io_errors, 0, "refused connect is not an i/o error");
        assert!(!summary.all_ok(), "a refused ramp-up must fail the run");
        assert!(first.is_none(), "no golden body without a connection");
        let json = summary.to_json();
        assert!(json.contains("\"connect_errors\": 6"), "{json}");
        assert!(summary.render().contains("6 connect errors"));
    }
}
