//! Traced per-layer replay of a perfbench workload.
//!
//! The end-to-end runner (`perfbench/benches/e2e`) runs one untimed
//! pass of a workload against the real program, then starts this binary
//! with the same generated inputs and the server's `/metrics` counters.
//! The replay re-runs those inputs in-process, one request or row at a
//! time, through each layer crate's public functions, with a span around
//! every call. It models the server's hot cache: a first send computes, a
//! repeat is an `EstimateService::try_hot` lookup.
//!
//! It fails (exit 1) unless every assembled report equals
//! `Estimator::estimate`'s, its hit and miss counts equal the server's,
//! and, for the sweep, its sink bytes equal the CLI's documents. It
//! prints the per-layer ledger, writes it and every span under `--out`,
//! and prints the per-layer metrics as its last stdout line (a JSON
//! object). `perfbench/README.md` says which end-to-end metric each one
//! should move.

mod layers;
mod trace;

use hpcarbon_api::{
    batch_to_json, ApiError, DispatchIntensity, EstimateRequest, Estimator, FootprintReport,
    IntensityProvider, TraceKey, TraceSource,
};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_server::http::RequestParser;
use hpcarbon_server::EstimateService;
use hpcarbon_sweep::{
    CsvSink, JsonSink, RowSink, ScenarioGrid, ScenarioOutcome, SweepConfig, SweepRow,
};
use layers::{evaluate, Counts, Prebuilt};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::Tracer;

/// Request-body limit of the replayed parser (the server's default).
const MAX_BODY: usize = 1 << 20;

struct Opts {
    workload: String,
    out: PathBuf,
    threads: usize,
    cache: usize,
    inputs: Option<PathBuf>,
    metrics: Option<PathBuf>,
    hit_p50_us: f64,
    sweep_seeds: Vec<u64>,
    e2e_wall_s: f64,
}

fn parse_opts() -> Result<Opts, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == name)?;
        argv.get(i + 1).cloned()
    };
    let num = |name: &str, default: f64| -> Result<f64, String> {
        get(name).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad {name}"))
        })
    };
    let sweep_seeds = match get("--sweep-seeds") {
        None => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("bad seed {s:?}")))
            .collect::<Result<_, _>>()?,
    };
    Ok(Opts {
        workload: get("--workload").ok_or("missing --workload")?,
        out: PathBuf::from(get("--out").ok_or("missing --out")?),
        threads: get("--threads")
            .and_then(|v| v.parse().ok())
            .ok_or("missing or bad --threads")?,
        cache: get("--cache")
            .and_then(|v| v.parse().ok())
            .ok_or("missing or bad --cache")?,
        inputs: get("--inputs").map(PathBuf::from),
        metrics: get("--metrics").map(PathBuf::from),
        hit_p50_us: num("--hit-p50-us", 0.0)?,
        sweep_seeds,
        e2e_wall_s: num("--e2e-wall-s", 0.0)?,
    })
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench-replay: {e}");
            std::process::exit(1);
        }
    }
}

/// The per-layer metrics: name, unit, value.
type Metrics = Vec<(&'static str, &'static str, f64)>;

fn run() -> Result<(), String> {
    let opts = parse_opts()?;
    let (metrics, spans) = match opts.workload.as_str() {
        "sweep-paper" => sweep(&opts)?,
        "serve-grid" | "serve-novel" => serve(&opts)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let by_name = trace::totals(&spans);
    let mut ledger = format!(
        "ledger {}: per call, from {} spans\n  {:<24} {:>8} {:>12} {:>12}\n",
        opts.workload,
        spans.len(),
        "span",
        "calls",
        "mean_us",
        "self_us"
    );
    for (name, t) in &by_name {
        ledger.push_str(&format!(
            "  {name:<24} {:>8} {:>12.3} {:>12.3}\n",
            t.calls,
            t.mean_us(),
            t.self_mean_us()
        ));
    }
    for (name, unit, value) in &metrics {
        ledger.push_str(&format!("  {name:<32} {value:>14.4} {unit}\n"));
    }
    print!("{ledger}");
    std::fs::write(opts.out.join("ledger.txt"), &ledger).map_err(|e| format!("ledger: {e}"))?;
    trace::write_spans(&opts.out.join("spans.tsv"), &spans).map_err(|e| format!("spans: {e}"))?;
    if metrics.iter().any(|(_, _, v)| !v.is_finite()) {
        return Err("a per-layer metric is not a finite number".into());
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}"))
        .collect();
    println!("{{{}}}", fields.join(", "));
    Ok(())
}

/// Per-call means of the spans of one pass.
struct Means(BTreeMap<&'static str, trace::Totals>);

impl Means {
    fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, trace::Totals::mean_us)
    }
    fn self_mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, trace::Totals::self_mean_us)
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order; layers a workload
/// does not exercise report 0.
fn assemble(m: &Means, counts: &Counts, extra: &BTreeMap<&'static str, f64>) -> Metrics {
    let x = |name: &str| extra.get(name).copied().unwrap_or(0.0);
    let lookups = counts.trace_lookups as f64;
    let distinct = counts.trace_keys.len() as f64;
    vec![
        ("server.http_parse_us", "us", m.mean("server.http_parse")),
        ("server.hot_lookup_us", "us", m.mean("server.hot_lookup")),
        ("server.socket_us", "us", x("server.socket_us")),
        ("server.hit_ratio", "ratio", x("server.hit_ratio")),
        (
            "server.worker_dispatches",
            "count",
            x("server.worker_dispatches"),
        ),
        ("server.conn_resets", "count", x("server.conn_resets")),
        ("api.parse_us", "us", m.mean("api.parse")),
        ("api.validate_us", "us", m.mean("api.validate")),
        ("api.estimate_us", "us", m.mean("api.estimate")),
        ("api.estimate_self_us", "us", m.self_mean("api.estimate")),
        ("api.emit_us", "us", m.mean("api.emit")),
        ("api.trace_lookups", "count", lookups),
        ("api.distinct_trace_keys", "count", distinct),
        (
            "api.trace_reuse_ratio",
            "ratio",
            if lookups > 0.0 {
                1.0 - distinct / lookups
            } else {
                0.0
            },
        ),
        ("core.build_system_us", "us", m.mean("core.build_system")),
        ("grid.year_trace_us", "us", m.mean("grid.year_trace")),
        ("grid.year_traces", "count", counts.year_builds as f64),
        (
            "timeseries.trace_stats_us",
            "us",
            m.mean("timeseries.trace_stats"),
        ),
        ("sched.job_trace_us", "us", m.mean("sched.job_trace")),
        ("sched.run_us", "us", m.mean("sched.run")),
        (
            "sched.shift_savings_us",
            "us",
            m.mean("sched.shift_savings"),
        ),
        ("power.seasonal_pue_us", "us", m.mean("power.seasonal_pue")),
        (
            "power.seasonal_share",
            "ratio",
            counts.seasonal as f64 / counts.accounted.max(1) as f64,
        ),
        ("upgrade.recommend_us", "us", m.mean("upgrade.recommend")),
        ("sweep.setup_us", "us", m.mean("sweep.setup")),
        ("sweep.row_us", "us", m.mean("sweep.row")),
        ("sweep.emit_us", "us", m.mean("sweep.emit")),
        ("sweep.error_rows", "count", x("sweep.error_rows")),
        (
            "sweep.parallel_efficiency",
            "ratio",
            x("sweep.parallel_efficiency"),
        ),
        (
            "bench.trace_overhead_pct",
            "%",
            x("bench.trace_overhead_pct"),
        ),
    ]
}

fn overhead_pct(on_s: f64, off_s: f64) -> f64 {
    100.0 * (on_s - off_s) / off_s
}

/// Checks each replayed result against `Estimator::estimate`, on
/// `threads` threads.
fn check_against_estimator(
    checks: &[(EstimateRequest, Result<FootprintReport, ApiError>)],
    threads: usize,
) -> Result<(), String> {
    let estimator = Estimator::builder().build();
    let threads = threads.max(1);
    let per_thread: Result<Vec<usize>, _> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let estimator = &estimator;
                s.spawn(move || {
                    checks
                        .iter()
                        .skip(w)
                        .step_by(threads)
                        .filter(|(req, replayed)| estimator.estimate(req) != *replayed)
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let bad: usize = per_thread
        .map_err(|_| "an estimator check thread panicked")?
        .iter()
        .sum();
    if bad == 0 {
        Ok(())
    } else {
        Err(format!(
            "{bad} replayed reports differ from Estimator::estimate"
        ))
    }
}

// ---- serving ----

/// The hot-cache fill's intensity provider: the default dispatch model,
/// memoized by key, so filling the cache does not simulate the
/// region-years the replay has already timed.
#[derive(Default)]
struct MemoIntensity(Mutex<BTreeMap<TraceKey, Arc<IntensityTrace>>>);

impl IntensityProvider for MemoIntensity {
    fn year_trace(
        &self,
        region: OperatorId,
        source: TraceSource,
        year: i32,
        seed: u64,
    ) -> Arc<IntensityTrace> {
        let mut memo = self.0.lock().expect("memo lock is never poisoned");
        let trace = memo
            .entry((region, source, year, seed))
            .or_insert_with(|| DispatchIntensity.year_trace(region, source, year, seed));
        Arc::clone(trace)
    }
}

/// The raw request the end-to-end client sends for `body`.
fn http_request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/estimate HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

struct ServePass {
    busy_s: f64,
    hits: u64,
    misses: u64,
    counts: Counts,
    spans: Vec<trace::Span>,
    checks: Vec<(EstimateRequest, Result<FootprintReport, ApiError>)>,
}

/// One pass over the sends, in order. `repeats[i]` says whether send
/// `i`'s body is sent again later, so its answer must be hot-cached.
fn serve_pass(
    opts: &Opts,
    inputs: &[(bool, String)],
    repeats: &[bool],
    on: bool,
) -> Result<ServePass, String> {
    let service = EstimateService::new(
        Estimator::builder()
            .intensity(MemoIntensity::default())
            .build(),
        opts.cache,
    );
    let mut t = Tracer::new(on);
    let mut pass = ServePass {
        busy_s: 0.0,
        hits: 0,
        misses: 0,
        counts: Counts::default(),
        spans: Vec::new(),
        checks: Vec::new(),
    };
    for (i, (_, body)) in inputs.iter().enumerate() {
        t.request(i as u64);
        let raw = http_request(body);
        let started = Instant::now();
        let http = t.span("server.http_parse", |_| {
            let mut parser = RequestParser::new(MAX_BODY);
            parser.feed(&raw);
            parser.poll()
        });
        let http = match http {
            Ok(Some(req)) => req,
            other => return Err(format!("send {i} did not parse: {other:?}")),
        };
        if t.span("server.hot_lookup", |_| service.try_hot(&http.body))
            .is_some()
        {
            pass.busy_s += started.elapsed().as_secs_f64();
            pass.hits += 1;
            continue;
        }
        pass.misses += 1;
        let reqs = t
            .span("api.parse", |_| EstimateRequest::batch_from_json(body))
            .map_err(|e| format!("send {i}: {e}"))?;
        let [req] = reqs.as_slice() else {
            return Err(format!("send {i} is not a single request"));
        };
        let valid = t
            .span("api.validate", |_| {
                req.validate().map(|v| (v.canonical_json(), v))
            })
            .map_err(|e| format!("send {i}: {e}"))?;
        let counts = &mut pass.counts;
        let report = t.span("api.estimate", |t| evaluate(t, &valid.1, None, counts));
        let emitted = t.span("api.emit", |_| batch_to_json(std::slice::from_ref(&report)));
        pass.busy_s += started.elapsed().as_secs_f64();
        if repeats[i] {
            // Untimed: the server's own path fills its hot cache, and its
            // answer must be the replay's bytes.
            if service.handle(&http).body != emitted.as_bytes() {
                return Err(format!(
                    "send {i}: the service's answer differs from the replay's"
                ));
            }
        }
        if on {
            pass.checks.push((req.clone(), report));
        }
    }
    pass.spans = t.spans;
    Ok(pass)
}

/// The value of counter `name` in a `/metrics` document.
fn counter(text: &str, name: &str) -> Result<u64, String> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .ok_or(format!("/metrics has no {name}"))
}

fn serve(opts: &Opts) -> Result<(Metrics, Vec<trace::Span>), String> {
    let path = opts.inputs.as_ref().ok_or("missing --inputs")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let inputs: Vec<(bool, String)> = text
        .lines()
        .map(|l| match l.split_once('\t') {
            Some(("1", body)) => Ok((true, body.to_string())),
            Some(("0", body)) => Ok((false, body.to_string())),
            _ => Err(format!("bad input line {l:?}")),
        })
        .collect::<Result<_, _>>()?;
    let mut left: HashMap<&str, usize> = HashMap::new();
    for (_, body) in &inputs {
        *left.entry(body.as_str()).or_default() += 1;
    }
    let repeats: Vec<bool> = inputs
        .iter()
        .map(|(_, body)| {
            let n = left.get_mut(body.as_str()).expect("every body was counted");
            *n -= 1;
            *n > 0
        })
        .collect();

    let off = serve_pass(opts, &inputs, &repeats, false)?;
    let on = serve_pass(opts, &inputs, &repeats, true)?;
    check_against_estimator(&on.checks, opts.threads)?;

    let metrics_path = opts.metrics.as_ref().ok_or("missing --metrics")?;
    let scraped = std::fs::read_to_string(metrics_path)
        .map_err(|e| format!("{}: {e}", metrics_path.display()))?;
    let (hits, misses) = (
        counter(&scraped, "cache_hits_total")?,
        counter(&scraped, "cache_misses_total")?,
    );
    if (on.hits, on.misses) != (hits, misses) {
        return Err(format!(
            "replay hits/misses {}/{} differ from the server's {hits}/{misses}",
            on.hits, on.misses
        ));
    }
    let sends = inputs.len() as f64;
    let generated_repeats = inputs.iter().filter(|(first, _)| !first).count() as f64;
    let hit_ratio = hits as f64 / (hits + misses) as f64;
    if hit_ratio != generated_repeats / sends {
        return Err(format!(
            "server hit ratio {hit_ratio} is not the generated repeat share"
        ));
    }
    let means = Means(trace::totals(&on.spans));
    let socket_us = if on.hits > 0 {
        opts.hit_p50_us - means.mean("server.http_parse") - means.mean("server.hot_lookup")
    } else {
        0.0
    };
    let extra = BTreeMap::from([
        ("server.socket_us", socket_us),
        ("server.hit_ratio", hit_ratio),
        (
            "server.worker_dispatches",
            counter(&scraped, "estimate_calls_total")?
                .saturating_sub(counter(&scraped, "hot_responses_total")?) as f64,
        ),
        (
            "server.conn_resets",
            counter(&scraped, "conn_resets_total")? as f64,
        ),
        (
            "bench.trace_overhead_pct",
            overhead_pct(on.busy_s, off.busy_s),
        ),
    ]);
    Ok((assemble(&means, &on.counts, &extra), on.spans))
}

// ---- sweep ----

struct SweepPass {
    busy_s: f64,
    counts: Counts,
    error_rows: u64,
    spans: Vec<trace::Span>,
    documents: Vec<(Vec<u8>, Vec<u8>)>,
    checks: Vec<(EstimateRequest, Result<FootprintReport, ApiError>)>,
}

/// One serial pass over every seed's `paper_default` rows: shared inputs
/// prebuilt, each row through the layers, then both sinks into memory.
fn sweep_pass(seeds: &[u64], on: bool) -> Result<SweepPass, String> {
    let mut t = Tracer::new(on);
    let mut pass = SweepPass {
        busy_s: 0.0,
        counts: Counts::default(),
        error_rows: 0,
        spans: Vec::new(),
        documents: Vec::new(),
        checks: Vec::new(),
    };
    let config = SweepConfig::paper_default();
    let mut request = 0;
    for &seed in seeds {
        let scenarios = ScenarioGrid::paper_default().seeds([seed]).scenarios();
        let reqs: Vec<EstimateRequest> = scenarios.iter().map(|s| s.to_request(&config)).collect();
        let started = Instant::now();
        t.request(request);
        request += 1;
        let counts = &mut pass.counts;
        let pre = t.span("sweep.setup", |t| Prebuilt::build(t, &reqs, counts));
        let (mut csv, mut json) = (CsvSink::new(Vec::new()), JsonSink::new(Vec::new()));
        csv.begin()
            .and_then(|()| json.begin())
            .map_err(|e| e.to_string())?;
        for (scenario, req) in scenarios.iter().zip(&reqs) {
            t.request(request);
            request += 1;
            let counts = &mut pass.counts;
            let report = t.span("sweep.row", |t| evaluate(t, req, Some(&pre), counts));
            pass.error_rows += u64::from(report.is_err());
            let row = SweepRow {
                scenario: *scenario,
                outcome: report.clone().map(ScenarioOutcome::from),
            };
            t.span("sweep.emit", |_| {
                csv.row(&row).and_then(|()| json.row(&row))
            })
            .map_err(|e| e.to_string())?;
            if on {
                pass.checks.push((req.clone(), report));
            }
        }
        csv.finish()
            .and_then(|()| json.finish())
            .map_err(|e| e.to_string())?;
        pass.busy_s += started.elapsed().as_secs_f64();
        pass.documents.push((csv.into_inner(), json.into_inner()));
    }
    pass.spans = t.spans;
    Ok(pass)
}

fn sweep(opts: &Opts) -> Result<(Metrics, Vec<trace::Span>), String> {
    if opts.sweep_seeds.is_empty() {
        return Err("missing --sweep-seeds".into());
    }
    let off = sweep_pass(&opts.sweep_seeds, false)?;
    let on = sweep_pass(&opts.sweep_seeds, true)?;
    for (seed, documents) in opts.sweep_seeds.iter().zip(&on.documents) {
        let dir = opts.out.join(format!("run-{seed}"));
        let read = |name: &str| {
            std::fs::read(dir.join(name)).map_err(|e| format!("{}/{name}: {e}", dir.display()))
        };
        if (read("sweep.csv")?, read("sweep.json")?) != *documents {
            return Err(format!(
                "replayed sweep documents differ from the CLI's for seed {seed}"
            ));
        }
    }
    check_against_estimator(&on.checks, opts.threads)?;
    let extra = BTreeMap::from([
        ("sweep.error_rows", on.error_rows as f64),
        (
            "sweep.parallel_efficiency",
            off.busy_s / (opts.threads as f64 * opts.e2e_wall_s),
        ),
        (
            "bench.trace_overhead_pct",
            overhead_pct(on.busy_s, off.busy_s),
        ),
    ]);
    let means = Means(trace::totals(&on.spans));
    Ok((assemble(&means, &on.counts, &extra), on.spans))
}
