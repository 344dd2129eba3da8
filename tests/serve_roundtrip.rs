//! End-to-end serving contract over a real socket.
//!
//! The load-bearing assertion: `POST /v1/estimate` answers — concurrent,
//! cached, pipelined, any mix — are **byte-identical** to the serial
//! `Estimator` path and to the committed golden report. Plus the HTTP
//! edge cases a hand-rolled server must get right: pipelined requests,
//! oversized bodies (413), malformed JSON (400 with a typed `ApiError`
//! payload), and graceful shutdown with queued work.

use std::io::{Read, Write};
use std::net::TcpStream;
use sustainable_hpc::api::{batch_to_json, EstimateRequest, Estimator};
use sustainable_hpc::server::{Server, ServerConfig};

const FIXTURE: &str = "tests/fixtures/estimate_request.json";
const GOLDEN: &str = "tests/fixtures/expected_report.json";

fn start_server(
    workers: usize,
    cache: usize,
) -> (
    String,
    sustainable_hpc::server::ShutdownHandle,
    std::thread::JoinHandle<sustainable_hpc::server::ServeSummary>,
) {
    start_sharded(1, workers, cache)
}

fn start_sharded(
    shards: usize,
    workers: usize,
    cache: usize,
) -> (
    String,
    sustainable_hpc::server::ShutdownHandle,
    std::thread::JoinHandle<sustainable_hpc::server::ServeSummary>,
) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            shards,
            workers,
            cache_capacity: cache,
            max_body_bytes: 64 * 1024,
            ..ServerConfig::default()
        },
    )
    .expect("bind an ephemeral port");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

fn post_estimate(addr: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(
        format!(
            "POST /v1/estimate HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
            body.len(),
            body
        )
        .as_bytes(),
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    parse_response(&raw)
}

fn parse_response(raw: &str) -> (u16, String) {
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn eight_concurrent_clients_get_the_serial_bytes() {
    let batch = std::fs::read_to_string(FIXTURE).unwrap();
    let (addr, handle, join) = start_server(4, 256);

    // The reference: the exact bytes the CLI's serial path emits for the
    // same document (also the committed golden fixture).
    let requests = EstimateRequest::batch_from_json(&batch).unwrap();
    let serial = batch_to_json(
        &Estimator::builder()
            .threads(1)
            .build()
            .estimate_batch(&requests),
    );
    assert_eq!(
        serial,
        std::fs::read_to_string(GOLDEN).unwrap(),
        "the committed golden report drifted from the estimator"
    );

    // Eight clients fire the same batch concurrently: every response must
    // carry those bytes, whether computed or recalled from cache.
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                let batch = batch.clone();
                scope.spawn(move || post_estimate(&addr, &batch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (status, body) = h.join().unwrap();
                assert_eq!(status, 200);
                body
            })
            .collect()
    });
    for body in &bodies {
        assert_eq!(body, &serial, "a concurrent response diverged");
    }

    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.estimate_calls, 8);
    // 8 batches x 3 rows: every row went through the cache path, and the
    // steady state hit (first arrivals may race to compute).
    assert_eq!(summary.cache_hits + summary.cache_misses, 24);
    assert!(summary.cache_hits >= 12, "{summary:?}");
}

#[test]
fn four_shards_serve_the_same_bytes_as_one() {
    // Determinism-under-async: the shard count is a topology knob, never
    // a semantic one. The same batch through a 4-shard loop must produce
    // the golden bytes, hot-cached or computed.
    let batch = std::fs::read_to_string(FIXTURE).unwrap();
    let golden = std::fs::read_to_string(GOLDEN).unwrap();
    let (addr, handle, join) = start_sharded(4, 2, 256);

    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let addr = addr.clone();
                let batch = batch.clone();
                scope.spawn(move || post_estimate(&addr, &batch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (status, body) = h.join().unwrap();
                assert_eq!(status, 200);
                body
            })
            .collect()
    });
    for body in &bodies {
        assert_eq!(body, &golden, "a sharded response diverged");
    }

    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.estimate_calls, 6);
    assert_eq!(summary.cache_hits + summary.cache_misses, 18);
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (addr, handle, join) = start_server(2, 64);
    let one = r#"{"schema_version": 1, "system": "frontier", "region": "eso", "jobs": 20}"#;

    let mut s = TcpStream::connect(&addr).unwrap();
    // Two estimates and a metrics probe written back-to-back before
    // reading a single byte — the pipelining contract.
    let mut wire = String::new();
    for _ in 0..2 {
        wire.push_str(&format!(
            "POST /v1/estimate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            one.len(),
            one
        ));
    }
    wire.push_str("GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
    s.write_all(wire.as_bytes()).unwrap();

    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let statuses: Vec<&str> = raw.matches("HTTP/1.1 200 OK").collect();
    assert_eq!(statuses.len(), 3, "three pipelined responses:\n{raw}");
    // The two estimate responses are byte-identical (second came from
    // cache) and the trailing metrics document saw both.
    let first_report = raw.find("[\n").unwrap();
    let second_report = raw[first_report + 1..].find("[\n").unwrap();
    assert!(second_report > 0);
    assert!(raw.contains("estimate_calls_total 2"), "{raw}");
    assert!(raw.contains("cache_hits_total 1"), "{raw}");
    assert!(raw.contains("cache_misses_total 1"), "{raw}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn oversized_body_is_a_413_with_a_typed_payload() {
    let (addr, handle, join) = start_server(1, 0);
    let mut s = TcpStream::connect(&addr).unwrap();
    // Declared length over the 64 KiB limit; the server must answer 413
    // without waiting for (or reading) the body.
    s.write_all(b"POST /v1/estimate HTTP/1.1\r\ncontent-length: 10000000\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (status, body) = parse_response(&raw);
    assert_eq!(status, 413, "{raw}");
    assert!(body.contains("\"kind\": \"http\""), "{body}");
    assert!(body.contains("exceeds the 65536-byte limit"), "{body}");
    assert!(raw.contains("connection: close"), "{raw}");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn bad_json_is_a_400_with_the_apierror_kind() {
    let (addr, handle, join) = start_server(1, 0);
    // Syntactically broken JSON → kind "parse".
    let (status, body) = post_estimate(&addr, "{broken");
    assert_eq!(status, 400);
    assert!(body.contains("\"error\""), "{body}");
    assert!(body.contains("\"kind\": \"parse\""), "{body}");
    assert!(body.contains("invalid JSON"), "{body}");
    // Well-formed JSON that fails the schema gate → kind "schema".
    let (status, body) = post_estimate(
        &addr,
        r#"{"schema_version": 99, "system": "frontier", "region": "eso"}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("\"kind\": \"schema\""), "{body}");
    // Unknown fields are rejected, kind "parse", naming the field.
    let (status, body) = post_estimate(
        &addr,
        r#"{"schema_version": 1, "system": "frontier", "region": "eso", "colour": 3}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("unknown field \\\"colour\\\""), "{body}");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn an_oversized_jobs_row_is_an_error_row_and_the_server_lives() {
    // A job count past MAX_JOBS must fail validation as a row error. The
    // job trace it asks for (56 bytes a job) would otherwise abort the
    // whole server on allocation, which no panic handler can catch.
    let (addr, handle, join) = start_server(1, 64);
    let (status, body) = post_estimate(
        &addr,
        r#"{"schema_version": 1, "system": "frontier", "region": "eso", "jobs": 1000000000000}"#,
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"error\""), "{body}");
    assert!(body.contains("must be at most 100000"), "{body}");
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert_eq!(parse_response(&raw), (200, "ok\n".to_string()));
    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.http_requests, 2);
}

#[test]
fn healthz_answers_and_shutdown_reports_the_traffic() {
    let (addr, handle, join) = start_server(2, 64);
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (status, body) = parse_response(&raw);
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.http_requests, 1);
    assert_eq!(summary.estimate_calls, 0);
}
