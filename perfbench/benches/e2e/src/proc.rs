//! Child processes of the benchmark: the `hpcarbon` runs it measures.
//!
//! Each measured child is reaped with `wait4`, so its CPU time comes
//! from the kernel's accounting of that one process. Its peak RSS is the
//! `VmHWM` of its own program instead: Linux folds the spawning
//! process's peak into the child's `ru_maxrss` at exec, which would make
//! that figure measure the benchmark as much as the program. A child
//! dropped before it is reaped is killed and reaped, so no early return
//! leaves a process behind.

use crate::client;
use crate::gen;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

/// The kernel's account of one exited child.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
    /// Peak resident set size of its program, MiB.
    pub max_rss_mb: f64,
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Exited normally with status 0.
    pub success: bool,
}

/// A process's peak resident set since it started its current program,
/// MiB (`VmHWM`); `None` once it has exited.
fn vm_hwm_mb(pid: i32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A running child that is killed and reaped if dropped unreaped.
pub struct Running {
    child: Child,
    started: Instant,
    reaped: bool,
}

impl Running {
    pub fn spawn(cmd: &mut Command) -> Result<Running, String> {
        let started = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
        Ok(Running {
            child,
            started,
            reaped: false,
        })
    }

    fn pid(&self) -> i32 {
        self.child.id() as i32
    }

    fn take_stdout(&mut self) -> Option<ChildStdout> {
        self.child.stdout.take()
    }

    /// Sends `SIGTERM`, then reaps.
    pub fn terminate(self) -> Result<Usage, String> {
        signal(self.pid(), SIGTERM);
        self.wait()
    }

    /// Waits for the child to exit and returns its usage, sampling its
    /// peak RSS every few milliseconds while it runs (the peak only ever
    /// grows, so the last sample misses at most its final moments).
    pub fn wait(mut self) -> Result<Usage, String> {
        self.reaped = true;
        let pid = self.pid();
        let done = AtomicBool::new(false);
        let (usage, peak) = thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut peak: f64 = 0.0;
                while !done.load(Ordering::Relaxed) {
                    peak = peak.max(vm_hwm_mb(pid).unwrap_or(0.0));
                    thread::sleep(Duration::from_millis(5));
                }
                peak
            });
            let usage = reap(pid);
            let wall_s = self.started.elapsed().as_secs_f64();
            done.store(true, Ordering::Relaxed);
            (usage.map(|u| Usage { wall_s, ..u }), sampler.join())
        });
        let usage = usage.map_err(|e| format!("wait4({pid}): {e}"))?;
        Ok(Usage {
            max_rss_mb: peak.map_err(|_| "the RSS sampler panicked")?,
            ..usage
        })
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if !self.reaped {
            signal(self.pid(), SIGKILL);
            let _ = reap(self.pid());
        }
    }
}

fn signal(pid: i32, sig: i32) {
    if pid > 0 {
        // SAFETY: kill(2) takes plain integers; `pid` is our own unreaped
        // child, so it cannot name a recycled process.
        unsafe {
            kill(pid, sig);
        }
    }
}

fn reap(pid: i32) -> io::Result<Usage> {
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        _rest: [0; 14],
    };
    loop {
        // SAFETY: both pointers are to live, writable locals of the
        // layouts wait4(2) writes on Linux x86-64 and aarch64.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Usage {
        cpu_s: seconds(&ru.utime) + seconds(&ru.stime),
        max_rss_mb: 0.0,
        wall_s: 0.0,
        success: exited_zero,
    })
}

/// Runs a command to completion and returns its usage.
pub fn run_measured(cmd: &mut Command) -> Result<Usage, String> {
    Running::spawn(cmd)?.wait()
}

/// `hpcarbon serve` on an ephemeral port, with the benchmark's fixed
/// shape: one readiness shard, two workers, a cache larger than any
/// round's distinct requests.
pub struct Server {
    proc: Option<Running>,
    drain: Option<JoinHandle<()>>,
    pub addr: String,
    /// Spawn to the first `/healthz` 200, seconds.
    pub setup_s: f64,
}

const BOOT_LIMIT: Duration = Duration::from_secs(30);

impl Server {
    pub fn start(bin: &Path) -> Result<Server, String> {
        let cache = gen::SERVER_CACHE.to_string();
        let workers = gen::CONNECTIONS.to_string();
        let t0 = Instant::now();
        let mut proc = Running::spawn(
            Command::new(bin)
                .args(["serve", "--addr", "127.0.0.1:0", "--shards", "1"])
                .args(["--workers", &workers, "--cache", &cache])
                .stdin(Stdio::null())
                .stdout(Stdio::piped()),
        )?;
        let stdout = proc.take_stdout().ok_or("server stdout was not piped")?;
        let (tx, rx) = mpsc::channel();
        // The bound address is the first stdout line. The reader then
        // keeps draining until EOF: the server println!s its shutdown
        // summary, which panics if the pipe is closed.
        let drain = thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or_default();
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.to_string());
                    }
                }
            }
        });
        let mut server = Server {
            proc: Some(proc),
            drain: Some(drain),
            addr: String::new(),
            setup_s: 0.0,
        };
        server.addr = rx
            .recv_timeout(BOOT_LIMIT)
            .map_err(|_| "the server never printed its bound address".to_string())?;
        loop {
            if matches!(client::get(&server.addr, "/healthz"), Ok(r) if r.status == 200) {
                break;
            }
            if t0.elapsed() > BOOT_LIMIT {
                return Err("the server never answered /healthz".into());
            }
            thread::sleep(Duration::from_micros(100));
        }
        server.setup_s = t0.elapsed().as_secs_f64();
        Ok(server)
    }

    /// SIGTERM, then the server's usage once it has drained and exited.
    pub fn stop(mut self) -> Result<Usage, String> {
        let proc = self.proc.take().ok_or("server already stopped")?;
        let usage = proc.terminate();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        let usage = usage?;
        if !usage.success {
            return Err("the server did not exit 0 after SIGTERM".into());
        }
        Ok(usage)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Kills and reaps the process, which closes the pipe the drain
        // thread reads, so the join below returns.
        drop(self.proc.take());
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// Host CPU accounting from the first line of `/proc/stat`: ticks the
/// hypervisor gave to other guests ("steal") and all ticks. Both read 0
/// where the file or the field is missing, which counts as no steal.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|t| t.parse().ok())
            .collect();
        CpuTicks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// The share of host CPU time stolen since `self` was read.
    pub fn steal_since(&self) -> f64 {
        let now = CpuTicks::now();
        let total = now.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        now.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}
