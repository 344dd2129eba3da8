//! Benches for the serving layer: the cached vs uncached estimate path
//! through [`EstimateService::handle`], plus the pure cache and HTTP
//! parsing costs.
//!
//! `serve/estimate_cached_hit` and `serve/estimate_uncached` measure the
//! same handler on the same request shape — the differences are the
//! cache capacity (primed 64-entry cache vs capacity 0) and the seed,
//! which the uncached arm draws fresh each iteration so that every call
//! also builds its grid year. Their ratio is the cache-hit speedup, a
//! **machine-independent contract** the bench gate holds at ≥ 5x
//! (`ci/bench_gate.sh`, `MIN_CACHE_SPEEDUP`); in practice a hit skips a
//! multi-millisecond simulation for microseconds of parse + lookup +
//! emission, so the observed ratio is orders of magnitude above the
//! gate.
//!
//! `serve/estimate_miss_repeat_key` repeats one body at capacity 0: each
//! call misses the row cache, evaluates, takes its grid year's stats
//! from the estimator's trace store and its scheduling run from the run
//! store, so no layer runs. Its ratio to `serve/estimate_uncached` is
//! the store speedup, held at ≥ 10x (`MIN_STORE_SPEEDUP`).
//!
//! `serve/estimate_miss_repeat_run` and `serve/estimate_miss_new_run`
//! are the same pair at `serve-grid`'s request shape (120 jobs,
//! threshold-defer at 150 g/kWh, a seasonal PUE of 1.2 ± 0.1), both at
//! capacity 0. The first repeats one body, so its trace, run and
//! seasonal year all come from the stores; the second moves the
//! threshold to a value no earlier call used, so every call rebuilds
//! the stored trace and runs the scheduler. Their ratio is the run-store
//! speedup, held at `MIN_RUN_STORE_SPEEDUP`.

use criterion::{criterion_group, criterion_main, Criterion};
use hpcarbon_api::{EstimateRequest, Estimator, PueSpec, SystemId};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_sched::Policy;
use hpcarbon_server::http::{read_request, RequestParser};
use hpcarbon_server::{EstimateService, HttpRequest, Server, ServerConfig, ShardedLru};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// The benchmark workload: the paper-baseline Frontier/GB request at the
/// sweep's fast job count (the smoke fixtures' shape).
fn request() -> EstimateRequest {
    let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
    r.jobs = 40;
    r
}

fn request_body() -> String {
    request().to_json()
}

/// A `serve-grid` request: 120 jobs deferred below 150 g/kWh, priced
/// under a seasonal PUE.
fn grid_request(threshold_g_per_kwh: f64) -> EstimateRequest {
    let mut r = request();
    r.jobs = 120;
    r.policy = Policy::ThresholdDefer {
        threshold_g_per_kwh,
    };
    r.pue = PueSpec::Seasonal {
        mean: 1.2,
        amplitude: 0.1,
    };
    r
}

fn post(body: &str) -> HttpRequest {
    HttpRequest {
        method: "POST".into(),
        target: "/v1/estimate".into(),
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    }
}

fn estimate_paths(c: &mut Criterion) {
    let body = request_body();
    let req = post(&body);

    // Capacity 0 disables the cache: every call runs the estimator, and
    // a seed no call used before makes it build its grid year too.
    let uncached = EstimateService::new(Estimator::builder().build(), 0);
    let mut fresh = request();
    fresh.seed = 1 << 40;
    c.bench_function("serve/estimate_uncached", |b| {
        b.iter(|| {
            fresh.seed += 1;
            black_box(uncached.handle(&post(&fresh.to_json())))
        })
    });

    // One body at capacity 0: every call misses the row cache and takes
    // its grid year and run from the stores (a first sight and a fill
    // prime them).
    let repeat = EstimateService::new(Estimator::builder().build(), 0);
    let primed = repeat.handle(&req);
    assert_eq!(repeat.handle(&req).body, primed.body);
    c.bench_function("serve/estimate_miss_repeat_key", |b| {
        b.iter(|| black_box(repeat.handle(&req)))
    });

    // The same at `serve-grid`'s shape: every layer from a store.
    let grid = EstimateService::new(Estimator::builder().build(), 0);
    let grid_req = post(&grid_request(150.0).to_json());
    let primed = grid.handle(&grid_req);
    assert_eq!(grid.handle(&grid_req).body, primed.body);
    c.bench_function("serve/estimate_miss_repeat_run", |b| {
        b.iter(|| black_box(grid.handle(&grid_req)))
    });

    // Its region-year and seasonal year stored, but each call's threshold
    // the next float above the last, so the run is new every time.
    let mut threshold = 150.0_f64;
    c.bench_function("serve/estimate_miss_new_run", |b| {
        b.iter(|| {
            threshold = f64::from_bits(threshold.to_bits() + 1);
            black_box(grid.handle(&post(&grid_request(threshold).to_json())))
        })
    });

    // Primed cache: every call is parse + canonical key + hit + emit.
    let cached = EstimateService::new(Estimator::builder().build(), 64);
    let primed = cached.handle(&req);
    assert_eq!(primed.status, 200);
    c.bench_function("serve/estimate_cached_hit", |b| {
        b.iter(|| black_box(cached.handle(&req)))
    });
}

fn cache_ops(c: &mut Criterion) {
    // The raw shard cost at serving shape: ~canonical-key-sized string
    // keys, Arc'd values, a mixed get/insert pattern.
    let cache: ShardedLru<u64> = ShardedLru::new(1024);
    let keys: Vec<String> = (0..256)
        .map(|i| format!("{}-{i}", request_body()))
        .collect();
    for (i, k) in keys.iter().enumerate() {
        cache.insert(k.clone(), i as u64);
    }
    let mut i = 0;
    c.bench_function("serve/cache_get_hit", |b| {
        b.iter(|| {
            i = (i + 1) % keys.len();
            black_box(cache.get(&keys[i]))
        })
    });
}

fn http_parse(c: &mut Criterion) {
    let body = request_body();
    let wire = format!(
        "POST /v1/estimate HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    c.bench_function("serve/http_parse_request", |b| {
        b.iter(|| {
            let mut cursor = std::io::Cursor::new(wire.as_bytes());
            black_box(read_request(&mut cursor, 1 << 20).unwrap())
        })
    });

    // The event loop's path: the same wire bytes arriving as the 16 KiB
    // read chunks the kernel hands a readiness loop, fed incrementally.
    c.bench_function("serve/http_parse_incremental", |b| {
        b.iter(|| {
            let mut parser = RequestParser::new(1 << 20);
            let mut out = None;
            for chunk in wire.as_bytes().chunks(1024) {
                parser.feed(chunk);
                if let Ok(Some(req)) = parser.poll() {
                    out = Some(req);
                }
            }
            black_box(out.unwrap())
        })
    });
}

/// The on-loop fast path: a hot rendered-response lookup — exactly what a
/// shard pays per cache-hit request before copying the Arc'd bytes out.
fn hot_response(c: &mut Criterion) {
    let body = request_body();
    let service = EstimateService::new(Estimator::builder().build(), 64);
    let primed = service.handle(&post(&body));
    assert_eq!(primed.status, 200);
    assert!(
        service.try_hot(body.as_bytes()).is_some(),
        "the handled request must prime the hot rendered-response cache"
    );
    c.bench_function("serve/hot_response_hit", |b| {
        b.iter(|| black_box(service.try_hot(body.as_bytes()).unwrap()))
    });
}

/// Reads one HTTP/1.1 response off a keep-alive connection; returns the
/// body length as a liveness token for `black_box`.
fn read_keep_alive_response(r: &mut BufReader<TcpStream>) -> usize {
    let mut status = String::new();
    r.read_line(&mut status).unwrap();
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let mut len = 0usize;
    loop {
        let mut header = String::new();
        r.read_line(&mut header).unwrap();
        if header == "\r\n" {
            break;
        }
        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            len = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).unwrap();
    len
}

/// Full socket roundtrip through the epoll event loop on a keep-alive
/// connection with a primed cache: write + readiness wakeup + incremental
/// parse + hot-response hit + flush + read. This is the serve-path p50 a
/// loadgen client observes once the cache is warm.
fn event_loop_roundtrip(c: &mut Criterion) {
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerConfig {
            shards: 1,
            workers: 1,
            cache_capacity: 64,
            ..ServerConfig::default()
        },
        Estimator::builder().build(),
    )
    .expect("bind an ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().unwrap());

    let body = request_body();
    let wire = format!(
        "POST /v1/estimate HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Prime: the first roundtrip computes and caches; iterations then
    // measure the steady-state hot path.
    stream.write_all(wire.as_bytes()).unwrap();
    read_keep_alive_response(&mut reader);

    c.bench_function("serve/event_loop_roundtrip", |b| {
        b.iter(|| {
            stream.write_all(wire.as_bytes()).unwrap();
            black_box(read_keep_alive_response(&mut reader))
        })
    });

    drop(stream);
    drop(reader);
    handle.shutdown();
    join.join().unwrap();
}

criterion_group!(
    benches,
    estimate_paths,
    cache_ops,
    http_parse,
    hot_response,
    event_loop_roundtrip
);
criterion_main!(benches);
