//! The listener, the serving cores, and graceful shutdown.
//!
//! ## Architecture
//!
//! On Linux, [`Server::run`] boots the readiness-based epoll core in
//! [`crate::event_loop`]: the calling thread becomes the acceptor,
//! feeding `--shards` event-loop threads (nonblocking reads, incremental
//! parsing, zero-copy hot-cache answers) backed by a retained pool of
//! estimation workers. Elsewhere, a blocking thread-per-connection
//! fallback with the same observable behavior: one accept loop pushing
//! connections onto an [`std::sync::mpsc`] channel drained by the worker
//! pool.
//!
//! ## Shutdown
//!
//! [`ShutdownHandle::shutdown`] (wired to SIGTERM/SIGINT by `hpcarbon
//! serve`) flips one flag. The accept loop notices within one poll tick
//! and stops accepting; already-accepted connections drain — in-flight
//! requests complete and their responses are written announcing
//! `Connection: close` (so even a never-idle client releases its slot),
//! idle keep-alive connections close at the next tick — then all threads
//! join and [`Server::run`] returns a [`ServeSummary`]. A clean
//! `SIGTERM → exit 0` is observable end to end, which is exactly what
//! CI's smoke job asserts.

use crate::service::EstimateService;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
use crate::http;
#[cfg(not(target_os = "linux"))]
use std::io::{BufReader, Write};
#[cfg(not(target_os = "linux"))]
use std::net::TcpStream;
#[cfg(not(target_os = "linux"))]
use std::sync::{mpsc, Mutex};

/// How often blocked loops re-check the shutdown flag.
#[cfg(not(target_os = "linux"))]
const POLL_TICK: Duration = Duration::from_millis(25);

/// Read timeout on idle keep-alive connections (also the worker's
/// shutdown-poll cadence while parked on a connection).
#[cfg(not(target_os = "linux"))]
const IDLE_READ_TIMEOUT: Duration = Duration::from_millis(150);

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Estimation worker threads.
    pub workers: usize,
    /// Event-loop shards (Linux epoll core only; the blocking fallback
    /// ignores this).
    pub shards: usize,
    /// Response-cache capacity: rendered answers held (0 disables).
    pub cache_capacity: usize,
    /// Request-body limit, bytes.
    pub max_body_bytes: usize,
    /// How long a peer may take to deliver a request once its first byte
    /// arrived (and how long a write may stall with the peer accepting
    /// nothing). Slow-loris protection; tests shrink it.
    pub read_deadline: Duration,
}

impl Default for ServerConfig {
    /// Workers default to the available parallelism (capped at 16 — the
    /// estimator is CPU-bound, so more threads than cores just thrash),
    /// shards to the parallelism capped at 4 (the event loop is I/O
    /// bound; a few shards saturate the NIC long before the CPUs), a
    /// 1024-entry cache, the 1 MiB body limit, and the 10 s deadline.
    fn default() -> ServerConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        ServerConfig {
            workers: cores.min(16),
            shards: cores.min(4),
            cache_capacity: 1024,
            max_body_bytes: crate::service::DEFAULT_MAX_BODY_BYTES,
            read_deadline: crate::http::REQUEST_READ_DEADLINE,
        }
    }
}

/// Requests a running [`Server`] to stop; cloneable across threads.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Initiates graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// What a server did over its lifetime, returned by [`Server::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// HTTP requests parsed.
    pub http_requests: u64,
    /// `POST /v1/estimate` calls.
    pub estimate_calls: u64,
    /// Batch rows answered from the cache.
    pub cache_hits: u64,
    /// Batch rows computed by the estimator.
    pub cache_misses: u64,
}

/// A bound, not-yet-running estimation server.
pub struct Server {
    listener: TcpListener,
    service: Arc<EstimateService>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:8080`, or port 0 for an ephemeral
    /// port) and prepares the service around `estimator`. Nothing is
    /// served until [`Server::run`]. The `hpcarbon serve --catalog DIR`
    /// path plugs a catalog-backed embodied source in here. The estimator
    /// must be a pure function of each request (the provider contract),
    /// or response caching would be unsound.
    pub fn bind_with(
        addr: &str,
        config: ServerConfig,
        estimator: hpcarbon_api::Estimator,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let service = EstimateService::new(estimator, config.cache_capacity)
            .with_max_body_bytes(config.max_body_bytes);
        Ok(Server {
            listener,
            service: Arc::new(service),
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this server from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// Serves until shutdown is requested, then drains and returns the
    /// lifetime summary. Blocks the calling thread.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        #[cfg(target_os = "linux")]
        crate::event_loop::run(
            self.listener,
            Arc::clone(&self.service),
            Arc::clone(&self.shutdown),
            crate::event_loop::LoopConfig {
                shards: self.config.shards.max(1),
                workers: self.config.workers.max(1),
                max_body: self.config.max_body_bytes,
                deadline: self.config.read_deadline,
            },
        )?;
        #[cfg(not(target_os = "linux"))]
        self.run_threaded()?;

        let m = self.service.metrics();
        let g = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        Ok(ServeSummary {
            http_requests: g(&m.http_requests),
            estimate_calls: g(&m.estimate_calls),
            cache_hits: g(&m.cache_hits),
            cache_misses: g(&m.cache_misses),
        })
    }

    /// The blocking fallback: accept loop + thread-per-connection worker
    /// pool. Observably equivalent to the event loop (same service, same
    /// drain semantics), minus per-shard metrics.
    #[cfg(not(target_os = "linux"))]
    fn run_threaded(&self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let handles: Vec<_> = (0..self.config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let service = Arc::clone(&self.service);
                let shutdown = Arc::clone(&self.shutdown);
                std::thread::spawn(move || worker_loop(&rx, &service, &shutdown))
            })
            .collect();

        while !self.shutdown.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // A send can only fail if every worker died; treat it
                    // as shutdown rather than panicking the acceptor.
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_TICK);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // Transient accept failures (EMFILE under load spikes)
                    // must not kill the server; back off and keep going.
                    eprintln!("accept error: {e}");
                    std::thread::sleep(POLL_TICK);
                }
            }
        }

        // Drain: no new connections; queued ones are still delivered to
        // workers (mpsc buffers survive the sender drop), in-flight
        // requests complete.
        drop(tx);
        for h in handles {
            let _ = h.join();
        }
        Ok(())
    }
}

#[cfg(not(target_os = "linux"))]
fn worker_loop(
    rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>,
    service: &Arc<EstimateService>,
    shutdown: &Arc<AtomicBool>,
) {
    loop {
        // Hold the lock only for the pop, never while serving.
        let next = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        match next {
            Ok(stream) => serve_connection(stream, service, shutdown),
            // Sender dropped and queue drained: shutdown complete.
            Err(_) => return,
        }
    }
}

/// Serves one connection to completion: a keep-alive loop over
/// (possibly pipelined) requests. On shutdown the current request still
/// completes — drain semantics — and the connection closes at the next
/// idle tick.
#[cfg(not(target_os = "linux"))]
fn serve_connection(stream: TcpStream, service: &EstimateService, shutdown: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(IDLE_READ_TIMEOUT)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    loop {
        match http::read_request_replying(&mut reader, service.max_body_bytes(), &mut writer) {
            Ok(req) => {
                let resp = service.handle(&req);
                // Drain means "finish the request in flight", not "keep
                // serving this connection": once shutdown is requested
                // the response itself announces the close, so even a
                // client streaming back-to-back requests (never idle)
                // cannot keep a worker alive past its current request.
                let keep = req.keep_alive && !resp.close && !shutdown.load(Ordering::Relaxed);
                if http::write_response(&mut writer, &resp, keep).is_err() || !keep {
                    return;
                }
            }
            Err(http::HttpError::Idle) => {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(err) => {
                if let Some(resp) = service.handle_protocol_error(&err) {
                    let _ = http::write_response(&mut writer, &resp, false);
                    let _ = writer.flush();
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn start(
        config: ServerConfig,
    ) -> (
        SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<ServeSummary>,
    ) {
        let estimator = hpcarbon_api::Estimator::builder().build();
        let server = Server::bind_with("127.0.0.1:0", config, estimator).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        (addr, handle, join)
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn healthz_roundtrips_over_a_real_socket() {
        let (addr, handle, join) = start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let resp = roundtrip(addr, "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.ends_with("ok\n"), "{resp}");
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!(summary.http_requests, 1);
    }

    #[test]
    fn shutdown_with_no_traffic_exits_promptly() {
        let (_addr, handle, join) = start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!(summary.http_requests, 0);
    }

    #[test]
    fn busy_keep_alive_connections_close_at_shutdown() {
        // A client hammering one keep-alive connection is never idle, so
        // the drain must happen on the response path: after shutdown the
        // in-flight request completes, the response announces the close,
        // and the worker lets go — the server cannot hang on a busy peer.
        let (addr, handle, join) = start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
            let mut served = 0u32;
            loop {
                if s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").is_err() {
                    return served;
                }
                match crate::loadgen::read_response(&mut reader) {
                    Ok((200, _)) => served += 1,
                    _ => return served,
                }
            }
        });
        std::thread::sleep(Duration::from_millis(100));
        handle.shutdown();
        let served = client.join().unwrap();
        assert!(served >= 1, "the connection served before shutdown");
        // The worker released the busy connection; a hang here is the bug.
        let summary = join.join().unwrap();
        assert!(summary.http_requests >= u64::from(served));
    }

    #[test]
    fn queued_connections_drain_after_shutdown() {
        // One worker; park a connection, queue a second, then shut down:
        // the queued request must still be answered (drain contract).
        let (addr, handle, join) = start(ServerConfig {
            workers: 1,
            cache_capacity: 0,
            ..ServerConfig::default()
        });
        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        // Give the worker time to claim the first connection.
        std::thread::sleep(Duration::from_millis(100));
        let mut second = TcpStream::connect(addr).unwrap();
        second
            .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        handle.shutdown();
        // The first (keep-alive) connection closes at its idle tick…
        drop(first);
        // …and the queued second connection is still served.
        let mut out = String::new();
        second.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        let summary = join.join().unwrap();
        assert_eq!(summary.http_requests, 2);
    }
}
