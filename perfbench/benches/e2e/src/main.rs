//! End-to-end benchmark runner for `hpcarbon`.
//!
//! ```text
//! perfbench-e2e --workload <sweep-paper|serve-grid|serve-novel|all>
//!                  --seed N --seconds S --trace 0|1
//! ```
//!
//! Normally started through `perfbench/run.sh` from the repository root,
//! which builds it. The runner builds the release `hpcarbon` binary from
//! the checkout and talks to it only through the CLI and HTTP, so changes
//! to the workspace's Rust APIs cannot move these numbers. Every output
//! byte is checked against a reference computed outside the timed phase.
//!
//! With `--trace 0` it prints every end-to-end metric with its unit and
//! sample count; with `--trace 1` it runs one untimed pass of the
//! workload and hands the same inputs and the server's `/metrics`
//! counters to the traced replay (`perfbench/benches/replay`), which
//! reports the per-layer metrics. The last stdout line is the JSON result
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0
//! only when every output was correct. `perfbench/README.md` defines the
//! workloads and metrics.

mod client;
mod gen;
mod proc;
mod refs;
mod stats;

use proc::{CpuTicks, Server, Usage};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["sweep-paper", "serve-grid", "serve-novel"];
/// Server boots timed for `setup_s` in every run, in groups of
/// `PROBE_GROUP`, on top of each serving round's own boot.
const SETUP_PROBES: usize = 15;
const PROBE_GROUP: usize = 5;
/// A program run counts toward the metrics only if the hypervisor stole
/// at most this share of the host's CPU time while it ran. On a shared
/// host, steal bursts cut wall-clock throughput in half for a minute at
/// a time, while CPU time per operation barely moves.
const MAX_STEAL: f64 = 0.05;
/// While too little load has counted, a workload keeps running up to
/// this many times `--seconds`.
const PATIENCE: f64 = 1.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?} or all"
        ));
    }
    let number = |name: &str| -> Result<u64, String> {
        value(name)?
            .parse()
            .map_err(|_| format!("{name} must be a non-negative integer"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let target = target_dir()?;
    cargo(&[
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--bin",
        "hpcarbon",
    ])?;
    let bin = target.join("release").join("hpcarbon");
    let replay = if args.trace {
        cargo(&[
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "perfbench/benches/replay/Cargo.toml",
        ])?;
        Some(target.join("release").join("perfbench-replay"))
    } else {
        None
    };
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w => vec![w],
    };
    let mut all_correct = true;
    for workload in workloads {
        let work = target.join("perfbench").join(workload);
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        let correct = match &replay {
            Some(replay) => traced(workload, &bin, replay, &work, args.seed)?,
            None => measured(workload, &bin, &work, args.seed, args.seconds)?,
        };
        all_correct &= correct;
    }
    Ok(all_correct)
}

/// The cargo target directory: `CARGO_TARGET_DIR` (made absolute), else
/// `target`.
fn target_dir() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    Ok(match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => cwd.join(dir),
        None => cwd.join("target"),
    })
}

fn cargo(args: &[&str]) -> Result<(), String> {
    let status = Command::new("cargo")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("`cargo {}` failed", args.join(" ")))
    }
}

/// A served body fails when the status is not 200 or any byte differs
/// from the reference document.
pub fn body_failed(status: u16, body: &[u8], reference: &[u8]) -> bool {
    status != 200 || body != reference
}

/// One reported value and the samples behind it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: String,
    /// Listed in `BENCHMARK.json` (and the JSON result line).
    contract: bool,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: String) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
        contract: true,
    }
}

fn extra(name: &str, value: f64, unit: &'static str, samples: String) -> Metric {
    Metric {
        contract: false,
        ..metric(name, value, unit, samples)
    }
}

/// Median and tail of a class of timings, in µs. Only the median is
/// gated: a p99 over a few thousand samples moves too much between runs
/// on a shared host to hold a bound.
fn latencies(prefix: &str, us: &[f64], what: &str, contract: bool) -> Vec<Metric> {
    let mut out = Vec::new();
    if let Some(p50) = stats::median(us) {
        let samples = format!("n={} {what}", us.len());
        out.push(Metric {
            contract,
            ..metric(&format!("{prefix}p50_us"), p50, "us", samples)
        });
    }
    if let Some((p, value)) = stats::tail(us) {
        let samples = format!("n={} {what}, p{p:.1}", us.len());
        out.push(extra(&format!("{prefix}p99_us"), value, "us", samples));
    }
    out
}

/// One measured program run: a sweep call or a server lifetime.
struct Batch {
    ops: usize,
    wall_s: f64,
    usage: Usage,
    /// Share of the host's CPU time stolen while it ran.
    steal: f64,
    /// Each operation's latency in µs, flagged when it was a first send.
    latencies: Vec<(bool, f64)>,
    /// Spawn to the first `/healthz` 200, for serving rounds.
    setup_s: Option<f64>,
}

/// Whether runs of the given `(wall seconds, steal share)` amount to a
/// finished workload: `seconds` of load that counts, or patience spent.
fn enough(runs: impl Iterator<Item = (f64, f64)>, seconds: f64) -> bool {
    let (mut counted, mut all) = (0.0, 0.0);
    for (wall, steal) in runs {
        all += wall;
        if steal <= MAX_STEAL {
            counted += wall;
        }
    }
    counted >= seconds || all >= PATIENCE * seconds
}

/// Boots `SETUP_PROBES` servers in groups, keeping the groups that ran
/// without steal; gives up on clean groups after twice as many boots.
fn setup_probes(bin: &Path) -> Result<Vec<f64>, String> {
    let (mut clean, mut all) = (Vec::new(), Vec::new());
    while clean.len() < SETUP_PROBES && all.len() < 2 * SETUP_PROBES {
        let ticks = CpuTicks::now();
        let mut group = Vec::new();
        for _ in 0..PROBE_GROUP {
            let server = Server::start(bin)?;
            group.push(server.setup_s);
            server.stop()?;
        }
        if ticks.steal_since() <= MAX_STEAL {
            clean.extend(&group);
        }
        all.extend(group);
    }
    Ok(if clean.is_empty() { all } else { clean })
}

fn measured(
    workload: &str,
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<bool, String> {
    let setup = setup_probes(bin)?;
    let ((batches, failed), ops) = match workload {
        "sweep-paper" => (sweep_paper(bin, work, seed, seconds)?, "rows"),
        "serve-grid" => (serve_grid(bin, work, seed, seconds)?, "requests"),
        _ => (serve_novel(bin, work, seed, seconds)?, "requests"),
    };
    let attempted: usize = batches.iter().map(|b| b.ops).sum();
    let mut metrics = batch_metrics(&batches, setup, workload)?;
    metrics.push(extra(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!("n={attempted} {ops}"),
    ));
    let counted = batches.iter().filter(|b| b.steal <= MAX_STEAL).count();
    println!(
        "{workload} (seed {seed}): {attempted} {ops}, {failed} failed; \
         {counted} of {} program runs had host steal <= {MAX_STEAL} and count",
        batches.len()
    );
    for m in &metrics {
        println!(
            "  {:<22} {:>14.4} {:<5} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if metrics.iter().any(|m| !m.value.is_finite()) {
        return Err("a metric is not a finite number".into());
    }
    let correct = failed == 0 && attempted > 0;
    let contract: Vec<String> = metrics
        .iter()
        .filter(|m| m.contract)
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        contract.join(", ")
    );
    Ok(correct)
}

/// The end-to-end metrics over the runs that count (all of them when
/// none does): throughput, CPU and memory as medians over program runs,
/// so one disturbed run cannot move them; latencies pooled.
fn batch_metrics(
    batches: &[Batch],
    mut setup: Vec<f64>,
    workload: &str,
) -> Result<Vec<Metric>, String> {
    let clean: Vec<&Batch> = batches.iter().filter(|b| b.steal <= MAX_STEAL).collect();
    let counted = if clean.is_empty() {
        batches.iter().collect()
    } else {
        clean
    };
    setup.extend(counted.iter().filter_map(|b| b.setup_s));
    let median_of = |f: &dyn Fn(&Batch) -> f64| -> Result<f64, String> {
        stats::median(&counted.iter().map(|b| f(b)).collect::<Vec<_>>()).ok_or("no runs".into())
    };
    let class = |keep: &dyn Fn(bool) -> bool| -> Vec<f64> {
        counted
            .iter()
            .flat_map(|b| &b.latencies)
            .filter(|(first, _)| keep(*first))
            .map(|(_, us)| *us)
            .collect()
    };
    let n: usize = counted.iter().map(|b| b.ops).sum();
    let runs = format!("median of {} runs", counted.len());
    let sweep = workload == "sweep-paper";
    let (ops, alias) = if sweep {
        ("rows", "rows_per_s")
    } else {
        ("requests", "throughput_rps")
    };
    let mut metrics = vec![
        metric(
            "setup_s",
            stats::median(&setup).ok_or("no set-up samples")?,
            "s",
            format!("n={} server boots", setup.len()),
        ),
        metric(
            "ops_per_s",
            median_of(&|b| b.ops as f64 / b.wall_s)?,
            "1/s",
            format!("{runs}, n={n} {ops} ({alias})"),
        ),
    ];
    let what = if sweep { "504-row sweeps" } else { "requests" };
    metrics.extend(latencies("latency_", &class(&|_| true), what, true));
    if !sweep {
        metrics.extend(latencies(
            "miss_latency_",
            &class(&|first| first),
            "first sends",
            false,
        ));
        metrics.extend(latencies(
            "hit_latency_",
            &class(&|first| !first),
            "repeats",
            false,
        ));
    }
    metrics.push(metric(
        "cpu_ms_per_op",
        median_of(&|b| b.usage.cpu_s * 1e3 / b.ops as f64)?,
        "ms",
        format!("{runs}, n={n} {ops}"),
    ));
    metrics.push(metric(
        "peak_rss_mb",
        median_of(&|b| b.usage.max_rss_mb)?,
        "MiB",
        format!("{runs}, each its process's peak"),
    ));
    Ok(metrics)
}

/// `sweep-paper`: repeated `hpcarbon sweep --threads 2` runs of the
/// 504-row `paper_default` study, cycling through four seeds; returns
/// the calls and the rows that failed their byte check.
fn sweep_paper(
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<Batch>, u64), String> {
    let seeds = gen::sweep_seeds(seed);
    let mut references = Vec::new();
    for &s in &seeds {
        references.push(refs::sweep_ref(bin, &work.join(format!("ref-{s}")), s)?);
    }
    let (mut batches, mut failed) = (Vec::<Batch>::new(), 0);
    while !enough(batches.iter().map(|b| (b.wall_s, b.steal)), seconds) {
        let k = batches.len() % seeds.len();
        let (batch, bad) = sweep_once(bin, work, seeds[k], &references[k])?;
        batches.push(batch);
        failed += bad;
    }
    Ok((batches, failed as u64))
}

/// One timed `hpcarbon sweep` of `seed`'s grid, and the rows whose CSV
/// or JSON bytes differ from the reference.
fn sweep_once(
    bin: &Path,
    work: &Path,
    seed: u64,
    reference: &(Vec<u8>, Vec<u8>),
) -> Result<(Batch, usize), String> {
    let dir = work.join(format!("run-{seed}"));
    let threads = gen::CONNECTIONS.to_string();
    let ticks = CpuTicks::now();
    let usage = proc::run_measured(
        Command::new(bin)
            .args([
                "sweep",
                "--threads",
                &threads,
                "--seed",
                &seed.to_string(),
                "--out",
            ])
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null()),
    )?;
    let steal = ticks.steal_since();
    let bad = match refs::read_sweep(&dir) {
        Ok(got) if usage.success => refs::sweep_row_mismatches(&got, reference, gen::SWEEP_ROWS),
        _ => gen::SWEEP_ROWS,
    };
    let batch = Batch {
        ops: gen::SWEEP_ROWS,
        wall_s: usage.wall_s,
        usage,
        steal,
        latencies: vec![(true, usage.wall_s * 1e6)],
        setup_s: None,
    };
    Ok((batch, bad))
}

/// One request and its answer, as the client saw it.
struct Exchange {
    /// Send index (`serve-grid`) or request index (`serve-novel`).
    id: usize,
    latency_us: f64,
    /// 0 on a transport error.
    status: u16,
    body: Vec<u8>,
}

/// One server lifetime: boot, closed-loop load, `/metrics`, SIGTERM.
struct Round {
    setup_s: f64,
    wall_s: f64,
    steal: f64,
    exchanges: Vec<Exchange>,
    metrics_text: String,
    usage: Usage,
}

impl Round {
    /// Checks every answer against its reference and keeps the timings;
    /// returns the batch and its failed requests.
    fn check<'r>(
        self,
        first: impl Fn(usize) -> bool,
        reference: impl Fn(usize) -> &'r [u8],
    ) -> (Batch, u64) {
        let failed = self
            .exchanges
            .iter()
            .filter(|ex| body_failed(ex.status, &ex.body, reference(ex.id)))
            .count();
        let batch = Batch {
            ops: self.exchanges.len(),
            wall_s: self.wall_s,
            usage: self.usage,
            steal: self.steal,
            latencies: self
                .exchanges
                .iter()
                .map(|ex| (first(ex.id), ex.latency_us))
                .collect(),
            setup_s: Some(self.setup_s),
        };
        (batch, failed as u64)
    }
}

/// Boots a server and drives one closed loop per entry of `conns`, each
/// on its own keep-alive connection, until every sequence has been sent;
/// `raw_of` renders request `id`.
fn serve_round<F>(bin: &Path, conns: Vec<Vec<usize>>, raw_of: &F) -> Result<Round, String>
where
    F: Fn(usize) -> Vec<u8> + Sync,
{
    let server = Server::start(bin)?;
    let mut clients = Vec::new();
    for _ in &conns {
        clients.push(client::Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))?);
    }
    let ticks = CpuTicks::now();
    let start = Instant::now();
    let per_conn: Result<Vec<Vec<Exchange>>, _> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(clients)
            .map(|(ids, conn)| {
                let addr = &server.addr;
                s.spawn(move || closed_loop(addr, conn, ids, raw_of))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let steal = ticks.steal_since();
    let exchanges: Vec<Exchange> = per_conn
        .map_err(|_| "a client thread panicked")?
        .into_iter()
        .flatten()
        .collect();
    // Scraped only once the timed phase is over.
    let metrics = client::get(&server.addr, "/metrics").map_err(|e| format!("/metrics: {e}"))?;
    let setup_s = server.setup_s;
    let usage = server.stop()?;
    Ok(Round {
        setup_s,
        wall_s,
        steal,
        exchanges,
        metrics_text: String::from_utf8_lossy(&metrics.body).into_owned(),
        usage,
    })
}

/// Sends each request only after the previous answer arrived. A
/// transport error is recorded as a failed exchange and the connection
/// is reopened.
fn closed_loop<F>(addr: &str, conn: client::Conn, ids: Vec<usize>, raw_of: &F) -> Vec<Exchange>
where
    F: Fn(usize) -> Vec<u8>,
{
    let mut conn = Some(conn);
    let mut out = Vec::with_capacity(ids.len());
    for id in ids {
        let raw = raw_of(id);
        let t0 = Instant::now();
        let answer = match conn.as_mut() {
            Some(c) => c.roundtrip(&raw),
            None => Err(std::io::ErrorKind::NotConnected.into()),
        };
        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
        match answer {
            Ok(r) => out.push(Exchange {
                id,
                latency_us,
                status: r.status,
                body: r.body,
            }),
            Err(_) => {
                out.push(Exchange {
                    id,
                    latency_us,
                    status: 0,
                    body: Vec::new(),
                });
                conn = client::Conn::connect(addr).ok();
            }
        }
    }
    out
}

/// The `serve-grid` plan with its references and rendered requests.
struct Grid {
    plan: gen::ServePlan,
    references: Vec<Vec<u8>>,
    raws: Vec<Vec<u8>>,
}

impl Grid {
    fn new(bin: &Path, work: &Path, seed: u64) -> Result<Grid, String> {
        let plan = gen::serve_grid(seed);
        let references = refs::estimate_refs(bin, work, &plan.bodies)?;
        let raws = plan
            .bodies
            .iter()
            .map(|b| client::post_estimate(b))
            .collect();
        Ok(Grid {
            plan,
            references,
            raws,
        })
    }

    /// One round of the whole plan against a fresh server.
    fn round(&self, bin: &Path) -> Result<Round, String> {
        let conns = (0..gen::CONNECTIONS)
            .map(|c| self.plan.conn_sends(c))
            .collect();
        serve_round(bin, conns, &|i: usize| {
            self.raws[self.plan.sends[i].body].clone()
        })
    }

    fn check(&self, round: Round) -> (Batch, u64) {
        let sends = &self.plan.sends;
        round.check(|i| sends[i].first, |i| &self.references[sends[i].body])
    }
}

/// `serve-grid`: rounds of the finite-grid request sequence, each against
/// a freshly booted server.
fn serve_grid(
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<Batch>, u64), String> {
    let grid = Grid::new(bin, work, seed)?;
    let (mut batches, mut failed) = (Vec::<Batch>::new(), 0);
    while !enough(batches.iter().map(|b| (b.wall_s, b.steal)), seconds) {
        let (batch, bad) = grid.check(grid.round(bin)?);
        batches.push(batch);
        failed += bad;
    }
    Ok((batches, failed))
}

/// `serve-novel` round `r`: connection `c` sends the request ids of the
/// round's range that are `c` modulo the connection count.
fn novel_round(bin: &Path, seed: u64, r: usize) -> Result<Round, String> {
    let ids = r * gen::NOVEL_ROUND..(r + 1) * gen::NOVEL_ROUND;
    let conns = (0..gen::CONNECTIONS)
        .map(|c| ids.clone().filter(|i| i % gen::CONNECTIONS == c).collect())
        .collect();
    serve_round(bin, conns, &|i: usize| {
        client::post_estimate(&gen::novel_body(seed, i as u64))
    })
}

/// References for the requests of the first `rounds` `serve-novel` rounds.
fn novel_refs(bin: &Path, work: &Path, seed: u64, rounds: usize) -> Result<Vec<Vec<u8>>, String> {
    let bodies: Vec<String> = (0..(rounds * gen::NOVEL_ROUND) as u64)
        .map(|i| gen::novel_body(seed, i))
        .collect();
    refs::estimate_refs(bin, work, &bodies)
}

/// `serve-novel`: rounds of requests under never-used seeds, each against
/// a freshly booted server; references run afterwards over every request
/// sent, since how many rounds fit depends on the host.
fn serve_novel(
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<Batch>, u64), String> {
    let mut rounds = Vec::<Round>::new();
    while !enough(rounds.iter().map(|r| (r.wall_s, r.steal)), seconds) {
        rounds.push(novel_round(bin, seed, rounds.len())?);
    }
    let references = novel_refs(bin, work, seed, rounds.len())?;
    let (mut batches, mut failed) = (Vec::new(), 0);
    for round in rounds {
        let (batch, bad) = round.check(|_| true, |i| &references[i]);
        batches.push(batch);
        failed += bad;
    }
    Ok((batches, failed))
}

/// `--trace 1`: one untimed pass of the workload (outputs still checked),
/// then the traced replay over the same inputs.
fn traced(
    workload: &str,
    bin: &Path,
    replay: &Path,
    work: &Path,
    seed: u64,
) -> Result<bool, String> {
    let threads = gen::CONNECTIONS.to_string();
    let mut args: Vec<String> = ["--workload", workload, "--threads", &threads]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend(["--cache".into(), gen::SERVER_CACHE.to_string()]);
    args.extend(["--out".into(), work.display().to_string()]);
    let (attempted, failed) = match workload {
        "sweep-paper" => {
            let seeds = gen::sweep_seeds(seed);
            let (mut wall, mut failed) = (0.0, 0);
            for &s in &seeds {
                let reference = refs::sweep_ref(bin, &work.join(format!("ref-{s}")), s)?;
                let (batch, bad) = sweep_once(bin, work, s, &reference)?;
                wall += batch.wall_s;
                failed += bad;
            }
            let list: Vec<String> = seeds.iter().map(u64::to_string).collect();
            args.extend(["--sweep-seeds".into(), list.join(",")]);
            args.extend(["--e2e-wall-s".into(), wall.to_string()]);
            ((seeds.len() * gen::SWEEP_ROWS) as u64, failed as u64)
        }
        "serve-grid" => {
            let grid = Grid::new(bin, work, seed)?;
            let round = grid.round(bin)?;
            let sends = &grid.plan.sends;
            let inputs: Vec<(bool, &str)> = sends
                .iter()
                .map(|s| (s.first, grid.plan.bodies[s.body].as_str()))
                .collect();
            write_inputs(work, &inputs, &round.metrics_text, &mut args)?;
            let (batch, failed) = grid.check(round);
            let hits: Vec<f64> = batch
                .latencies
                .iter()
                .filter(|l| !l.0)
                .map(|l| l.1)
                .collect();
            let hit_p50 = stats::median(&hits).ok_or("no repeats were sent")?;
            args.extend(["--hit-p50-us".into(), hit_p50.to_string()]);
            (batch.ops as u64, failed)
        }
        _ => {
            let round = novel_round(bin, seed, 0)?;
            let bodies: Vec<String> = (0..gen::NOVEL_ROUND as u64)
                .map(|i| gen::novel_body(seed, i))
                .collect();
            let inputs: Vec<(bool, &str)> = bodies.iter().map(|b| (true, b.as_str())).collect();
            write_inputs(work, &inputs, &round.metrics_text, &mut args)?;
            let references = novel_refs(bin, work, seed, 1)?;
            let (batch, failed) = round.check(|_| true, |i| &references[i]);
            (batch.ops as u64, failed)
        }
    };
    let out = Command::new(replay)
        .args(&args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run the replay: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let per_layer = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !out.status.success() || !per_layer.starts_with('{') {
        return Err(format!("the traced replay of {workload} failed"));
    }
    let correct = failed == 0 && attempted > 0;
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {per_layer}}}");
    Ok(correct)
}

/// Writes the replay's inputs — one `first<TAB>body` line per send, in
/// global send order — and the scraped `/metrics` text.
fn write_inputs(
    work: &Path,
    inputs: &[(bool, &str)],
    metrics_text: &str,
    args: &mut Vec<String>,
) -> Result<(), String> {
    let path = work.join("inputs.tsv");
    let text: String = inputs
        .iter()
        .map(|(first, body)| format!("{}\t{body}\n", u8::from(*first)))
        .collect();
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let metrics = work.join("metrics.txt");
    std::fs::write(&metrics, metrics_text)
        .map_err(|e| format!("cannot write {}: {e}", metrics.display()))?;
    args.extend([
        "--inputs".into(),
        path.display().to_string(),
        "--metrics".into(),
        metrics.display().to_string(),
    ]);
    Ok(())
}
