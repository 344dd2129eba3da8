//! Hostile-peer robustness battery for the epoll event loop.
//!
//! The scenarios the readiness rewrite must survive that a blocking
//! server never sees: a slow-loris peer dripping one byte per write, and
//! a client that vanishes while its request is still estimating. In both
//! cases the contract is the same — the bad connection is torn down
//! (counted in `conn_resets_total`), its slab slot is reclaimed (the
//! `shard_open_connections` gauges drop back to the scrape's own
//! connection), and *other* connections on the same shard keep being
//! served throughout. Every check reads `/metrics`, as an operator does.
//! Linux-only: the blocking fallback has neither shards nor the reset
//! counter.
#![cfg(target_os = "linux")]

use hpcarbon_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn start(
    config: ServerConfig,
) -> (
    String,
    hpcarbon_server::ShutdownHandle,
    std::thread::JoinHandle<hpcarbon_server::ServeSummary>,
) {
    let estimator = hpcarbon_api::Estimator::builder().build();
    let server = Server::bind_with("127.0.0.1:0", config, estimator).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

/// The `/metrics` document, fetched on a fresh connection.
fn scrape(addr: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

/// The sum of every sample of metric `name`, labeled samples included.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|line| line.split([' ', '{']).next() == Some(name))
        .filter_map(|line| line.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// `conn_resets_total`, and the connections open besides the scrape's
/// own (which is registered while `/metrics` renders).
fn resets_and_open(addr: &str) -> (u64, u64) {
    let text = scrape(addr);
    let open = metric(&text, "shard_open_connections")
        .checked_sub(1)
        .expect("the scrape's own connection is counted");
    (metric(&text, "conn_resets_total"), open)
}

/// One healthz round trip on a fresh connection; panics on any failure.
fn healthz_ok(addr: &str) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
}

/// Spins until `cond` holds or the timeout expires.
fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn slow_loris_is_dropped_without_stalling_shard_peers() {
    // One shard, so the loris and the healthy client share an event loop;
    // a short deadline keeps the test fast.
    let (addr, handle, join) = start(ServerConfig {
        shards: 1,
        workers: 1,
        cache_capacity: 0,
        max_body_bytes: 1 << 20,
        read_deadline: Duration::from_millis(300),
    });

    // The loris: one byte per write, far slower than the deadline allows.
    let mut loris = TcpStream::connect(&addr).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let request = b"GET /healthz HTTP/1.1\r\n\r\n";
    let started = Instant::now();
    let mut dropped = false;
    for byte in request {
        if loris.write_all(std::slice::from_ref(byte)).is_err() {
            dropped = true;
            break;
        }
        // While the loris drips, the shard keeps serving everyone else.
        healthz_ok(&addr);
        std::thread::sleep(Duration::from_millis(60));
    }
    if !dropped {
        // The writes may all have landed in socket buffers; the drop is
        // then observed as EOF (or a reset) on the read side.
        let mut buf = [0u8; 64];
        dropped = matches!(loris.read(&mut buf), Ok(0) | Err(_));
    }
    assert!(dropped, "the slow-loris connection was never dropped");
    assert!(
        started.elapsed() >= Duration::from_millis(250),
        "dropped before the deadline could have expired"
    );

    // The drop was counted, the slot reclaimed, and the shard is healthy.
    assert!(
        wait_until(Duration::from_secs(5), || resets_and_open(&addr).0 >= 1),
        "the reset was never counted"
    );
    healthz_ok(&addr);
    assert!(
        wait_until(Duration::from_secs(5), || resets_and_open(&addr).1 == 0),
        "the loris slot was not reclaimed"
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn stalled_pipelined_tail_does_not_outlive_the_deadline() {
    // A complete uncached estimate plus one stray byte of a pipelined
    // next request, then silence. The stray byte's read deadline must
    // survive the worker dispatch: if dispatching clears it, the
    // connection sits mid-request with no deadline after the completion
    // returns — unexpirable by any sweep, holding its slot forever and
    // wedging graceful drain.
    let (addr, handle, join) = start(ServerConfig {
        shards: 1,
        workers: 1,
        cache_capacity: 0, // force the estimate through the workers
        max_body_bytes: 1 << 20,
        read_deadline: Duration::from_millis(400),
    });

    let req = hpcarbon_api::EstimateRequest::paper_baseline(
        hpcarbon_api::SystemId::Frontier,
        hpcarbon_grid::regions::OperatorId::Eso,
    );
    let body = req.to_json();
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        format!(
            "POST /v1/estimate HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}G",
            body.len(),
            body
        )
        .as_bytes(),
    )
    .unwrap();

    // The completed request is answered; then the *server* must close
    // the connection once the stalled tail hits the deadline (a read
    // timeout here means the slot was held forever — the bug).
    let mut out = Vec::new();
    s.read_to_end(&mut out)
        .expect("server never dropped the stalled mid-request connection");
    let text = String::from_utf8_lossy(&out);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");

    assert!(
        wait_until(Duration::from_secs(5), || {
            let (resets, open) = resets_and_open(&addr);
            resets >= 1 && open == 0
        }),
        "stalled tail was not counted as a reset / slot not reclaimed: (resets, open) = {:?}",
        resets_and_open(&addr),
    );
    healthz_ok(&addr);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn half_closed_client_still_receives_its_response() {
    // A client may legally shutdown(SHUT_WR) after its request and keep
    // reading. The resulting EPOLLRDHUP lands while the estimate is at
    // the workers; teardown must be deferred until the response flushes
    // instead of resetting the connection unanswered.
    let (addr, handle, join) = start(ServerConfig {
        shards: 1,
        workers: 1,
        cache_capacity: 0, // force the estimate through the workers
        max_body_bytes: 1 << 20,
        read_deadline: Duration::from_secs(10),
    });

    // Enough simulated jobs that the half-close is observed mid-estimate.
    let mut req = hpcarbon_api::EstimateRequest::paper_baseline(
        hpcarbon_api::SystemId::Frontier,
        hpcarbon_grid::regions::OperatorId::Eso,
    );
    req.jobs = 200;
    let body = req.to_json();

    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(
        format!(
            "POST /v1/estimate HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .as_bytes(),
    )
    .unwrap();
    s.shutdown(Shutdown::Write).unwrap();

    let mut out = Vec::new();
    s.read_to_end(&mut out).unwrap();
    let text = String::from_utf8_lossy(&out);
    assert!(
        text.starts_with("HTTP/1.1 200 OK\r\n"),
        "half-closed client was torn down unanswered: {text:?}"
    );
    assert!(
        text.contains("\r\n\r\n["),
        "response body missing after half-close: {text:?}"
    );

    assert!(
        wait_until(Duration::from_secs(5), || resets_and_open(&addr).1 == 0),
        "half-closed slot was not reclaimed"
    );
    healthz_ok(&addr);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn client_disconnect_mid_estimate_reclaims_the_slot() {
    let (addr, handle, join) = start(ServerConfig {
        shards: 1,
        workers: 1,
        cache_capacity: 0, // force every estimate through the workers
        max_body_bytes: 1 << 20,
        read_deadline: Duration::from_secs(10),
    });

    // A real, uncached estimate: enough simulated jobs that the client's
    // disconnect is observed while the request is still at the workers.
    let mut req = hpcarbon_api::EstimateRequest::paper_baseline(
        hpcarbon_api::SystemId::Frontier,
        hpcarbon_grid::regions::OperatorId::Eso,
    );
    req.jobs = 200;
    let body = req.to_json();

    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(
        format!(
            "POST /v1/estimate HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .as_bytes(),
    )
    .unwrap();
    // Vanish without reading a byte of the response.
    drop(s);

    // No panic, the reset is counted, the slot is reclaimed — and the
    // orphaned completion is discarded instead of answering anyone else.
    assert!(
        wait_until(Duration::from_secs(10), || {
            let (resets, open) = resets_and_open(&addr);
            resets >= 1 && open == 0
        }),
        "disconnect mid-estimate was not cleaned up: (resets, open) = {:?}",
        resets_and_open(&addr),
    );
    healthz_ok(&addr);

    handle.shutdown();
    let summary = join.join().unwrap();
    // The estimate itself still ran to completion at the worker.
    assert!(summary.estimate_calls <= 1, "{summary:?}");
}

/// Where [`Faulty`]'s MISO builds meet: each waits until `width` of
/// them are being built at once, or 10 s pass, which it records.
struct Gate {
    width: usize,
    arrived: std::sync::Mutex<usize>,
    all_here: std::sync::Condvar,
    timed_out: std::sync::atomic::AtomicBool,
}

/// A flat 250 g/kWh provider with two injected behaviours: Kansai
/// (`kn`) traces panic, and MISO traces wait at the [`Gate`]. All else
/// is the plain flat provider.
struct Faulty(std::sync::Arc<Gate>);

impl hpcarbon_api::IntensityProvider for Faulty {
    fn year_trace(
        &self,
        region: hpcarbon_grid::regions::OperatorId,
        source: hpcarbon_api::TraceSource,
        year: i32,
        seed: u64,
    ) -> std::sync::Arc<hpcarbon_grid::trace::IntensityTrace> {
        use hpcarbon_grid::regions::OperatorId;
        match region {
            OperatorId::Kansai => panic!("injected provider failure"),
            OperatorId::Miso => {
                let gate = &self.0;
                let mut arrived = gate.arrived.lock().unwrap();
                *arrived += 1;
                gate.all_here.notify_all();
                let (arrived, wait) = gate
                    .all_here
                    .wait_timeout_while(arrived, Duration::from_secs(10), |n| *n < gate.width)
                    .unwrap();
                drop(arrived);
                if wait.timed_out() {
                    gate.timed_out.store(true, Ordering::Relaxed);
                }
            }
            _ => {}
        }
        hpcarbon_api::FlatIntensity::new(250.0).year_trace(region, source, year, seed)
    }
}

/// POSTs `body` on a fresh connection; returns the status and body.
fn post(addr: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s.write_all(
        format!(
            "POST /v1/estimate HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw)
        .expect("the server answered before the read timeout");
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    (status, body.to_string())
}

#[test]
fn a_panicking_provider_costs_a_500_not_a_worker() {
    const WORKERS: usize = 2;
    let gate = std::sync::Arc::new(Gate {
        width: WORKERS,
        arrived: std::sync::Mutex::new(0),
        all_here: std::sync::Condvar::new(),
        timed_out: std::sync::atomic::AtomicBool::new(false),
    });
    let estimator = hpcarbon_api::Estimator::builder()
        .intensity(Faulty(std::sync::Arc::clone(&gate)))
        .build();
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerConfig {
            shards: 1,
            workers: WORKERS,
            cache_capacity: 0, // every estimate reaches a worker
            max_body_bytes: 1 << 20,
            read_deadline: Duration::from_secs(10),
        },
        estimator,
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    let body = |region: &str, seed: u64| {
        format!(
            r#"{{"schema_version": 1, "system": "frontier", "region": "{region}", "jobs": 8, "seed": {seed}}}"#
        )
    };

    // One more panic than there are workers: were a panic to end its
    // worker, the last request would find no worker left to answer it.
    for seed in 0..=WORKERS as u64 {
        let (status, text) = post(&addr, &body("kn", seed));
        assert_eq!(status, 500, "{text}");
        assert!(text.contains("\"kind\": \"internal\""), "{text}");
    }
    let text = scrape(&addr);
    assert_eq!(metric(&text, "worker_panics_total"), WORKERS as u64 + 1);
    assert_eq!(metric(&text, "responses_5xx_total"), WORKERS as u64 + 1);

    // The full pool is still there: WORKERS healthy requests are built at
    // the same time, each waiting in the provider until all have arrived.
    let answers: Vec<(u16, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS as u64)
            .map(|seed| {
                let (addr, body) = (&addr, body("miso", seed));
                s.spawn(move || post(addr, &body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (status, text) in &answers {
        assert_eq!(*status, 200, "{text}");
    }
    assert!(
        !gate.timed_out.load(Ordering::Relaxed),
        "fewer than {WORKERS} workers built traces at once"
    );

    // Healthy keys still reach the trace store: the third estimate of a
    // key is a store hit.
    for _ in 0..3 {
        assert_eq!(post(&addr, &body("ciso", 7)).0, 200);
    }
    let metrics = scrape(&addr);
    for line in [
        "worker_panics_total 3\n",
        "trace_store_hits_total 1\n",
        "trace_store_entries 1\n",
    ] {
        assert!(metrics.contains(line), "missing {line:?} in {metrics}");
    }

    // Shutdown (what SIGTERM requests) still drains and joins every
    // worker.
    handle.shutdown();
    let summary = join.join().unwrap();
    let panicked = WORKERS as u64 + 1;
    assert_eq!(summary.estimate_calls, panicked + WORKERS as u64 + 3);
}
