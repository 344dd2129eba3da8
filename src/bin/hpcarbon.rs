//! `hpcarbon` — command-line front end to the sustainable-hpc framework.
//!
//! ```text
//! hpcarbon estimate --request FILE [--threads N] [--out FILE] [--catalog DIR]
//! hpcarbon serve    [--addr A] [--shards N] [--workers N] [--cache N] [--max-body BYTES]
//!                   [--catalog DIR]
//! hpcarbon loadgen  [--addr A] [--requests N] [--concurrency C] [--seed N]
//!                   [--grid quick|shifting|default] [--jobs N] [--request FILE]
//!                   [--wait S] [--connect-retries N] [--out FILE] [--save-response FILE]
//! hpcarbon figures  [--seed N] [--out DIR]      regenerate all paper artifacts
//! hpcarbon parts                                 embodied-carbon catalog review
//! hpcarbon systems                               Fig. 5 composition of Table 2 systems
//! hpcarbon regions  [--seed N]                   Fig. 6 regional intensity summary
//! hpcarbon advisor  --from <node> --to <node> [--suite S] [--intensity G | --region R] [--usage F]
//! hpcarbon schedule [--jobs N] [--seed N] [--slack H] [--synthetic] [--forecast M]
//! hpcarbon sweep    [--seed N] [--seeds N] [--jobs N] [--threads N] [--out DIR]
//!                   [--top K] [--quick | --shifting] [--shard i/N] [--catalog DIR]
//!                   [--trace-file FILE]... [--forecast M] [--gaps P]
//! hpcarbon sweep    --merge DIR... [--out DIR]
//! hpcarbon trace    validate|stats|import       real-trace CSV ingestion
//! hpcarbon catalog  validate|list|show|export   plain-text hardware catalogs
//! ```
//!
//! Argument parsing is hand-rolled (the offline dependency set has no CLI
//! crate); every subcommand prints plain text suitable for terminals and
//! pipelines, through one locked stdout handle. When the reader closes
//! the pipe early (`| head`, `| grep -q`), the command ends quietly with
//! exit 0; any other failure to write stdout is an error, exit 1. Estimation itself — `estimate`, `advisor`, `schedule`,
//! `sweep` — routes through the versioned front-door API
//! ([`sustainable_hpc::api`]): the CLI only translates flags and files
//! into [`EstimateRequest`]s and renders the returned
//! [`FootprintReport`]s.

use std::io::{self, Write};
use sustainable_hpc::api::{batch_to_json, parse as api_parse, FlatIntensity, TraceSource};
use sustainable_hpc::grid::analysis::regional_summary;
use sustainable_hpc::prelude::*;
use sustainable_hpc::sweep::{
    grid_fingerprint, merge_sweep_outputs, OutputDigest, ShardManifest, ShardSpec, CSV_FILE,
    JSON_FILE,
};
use sustainable_hpc::upgrade::savings::UsageLevel;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every subcommand writes its output through this one handle.
    let mut stdout = io::stdout().lock();
    let code = match run(&mut stdout, &args).and_then(|code| stdout.flush().map(|()| code)) {
        Ok(code) => code,
        // The reader stopped reading (`| head`, `| grep -q`) and has what
        // it asked for: end quietly, as a finished command would, so a
        // `pipefail` pipeline does not fail on it.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("hpcarbon: cannot write to standard output: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// Runs the subcommand `args` names, writing its output to `stdout`.
fn run(stdout: &mut impl Write, args: &[String]) -> io::Result<i32> {
    match args.first().map(String::as_str) {
        Some("estimate") => cmd_estimate(stdout, &args[1..]),
        Some("serve") => cmd_serve(stdout, &args[1..]),
        Some("loadgen") => cmd_loadgen(stdout, &args[1..]),
        Some("figures") => cmd_figures(stdout, &args[1..]),
        Some("parts") => cmd_parts(stdout),
        Some("systems") => cmd_systems(stdout),
        Some("regions") => cmd_regions(stdout, &args[1..]),
        Some("advisor") => cmd_advisor(stdout, &args[1..]),
        Some("schedule") => cmd_schedule(stdout, &args[1..]),
        Some("sweep") => cmd_sweep(stdout, &args[1..]),
        Some("trace") => cmd_trace(stdout, &args[1..]),
        Some("catalog") => cmd_catalog(stdout, &args[1..]),
        Some("--help") | Some("-h") | None => print_usage(stdout).map(|()| 0),
        Some(other) => {
            eprintln!("unknown subcommand: {other}\n");
            // Help for the error above, not the command's output: the
            // status stays 2 whether or not it can be written.
            let _ = print_usage(stdout);
            Ok(2)
        }
    }
}

fn print_usage(stdout: &mut impl Write) -> io::Result<()> {
    writeln!(
        stdout,
        "hpcarbon — carbon footprint estimation for HPC systems (SC'23 reproduction)\n\n\
         USAGE:\n  hpcarbon estimate --request FILE [--threads N] [--out FILE] [--catalog DIR]\n  \
         hpcarbon serve    [--addr A] [--shards N] [--workers N] [--cache N] [--max-body BYTES]\n                    \
         [--catalog DIR]\n  \
         hpcarbon loadgen  [--addr A] [--requests N] [--concurrency C] [--seed N]\n                    \
         [--grid quick|shifting|default] [--jobs N] [--request FILE]\n                    \
         [--wait S] [--connect-retries N] [--out FILE] [--save-response FILE]\n  \
         hpcarbon figures  [--seed N] [--out DIR]\n  hpcarbon parts\n  \
         hpcarbon systems\n  hpcarbon regions  [--seed N]\n  hpcarbon advisor  --from <p100|v100|a100> --to <p100|v100|a100>\n                    \
         [--suite nlp|vision|candle] [--intensity G | --region R] [--usage F]\n  \
         hpcarbon schedule [--jobs N] [--seed N] [--slack H] [--synthetic] [--forecast M]\n  \
         hpcarbon sweep    [--seed N] [--seeds N] [--jobs N] [--threads N] [--out DIR]\n                    \
         [--top K] [--quick | --shifting] [--shard i/N] [--catalog DIR]\n                    \
         [--trace-file FILE]... [--forecast M] [--gaps reject|interpolate|hold]\n  \
         hpcarbon sweep    --merge DIR... [--out DIR]\n  \
         hpcarbon trace    validate FILE [--gaps P]\n  \
         hpcarbon trace    stats    FILE [--gaps P]\n  \
         hpcarbon trace    import   FILE --out FILE [--gaps P]\n  \
         hpcarbon catalog  validate [--catalog DIR]\n  \
         hpcarbon catalog  list     [--catalog DIR]\n  \
         hpcarbon catalog  show ID  [--catalog DIR]\n  \
         hpcarbon catalog  export   [--out DIR]\n\n\
         serve puts the same front door behind a std-only epoll event\n\
         loop (--shards readiness loops, cache hits answered in place;\n\
         uncached estimation on --workers threads): POST /v1/estimate\n\
         takes the estimate subcommand's exact request documents and\n\
         answers with byte-identical reports; a sharded LRU cache keyed\n\
         on canonical request bytes skips simulation for repeated\n\
         queries without changing a byte. GET /healthz and GET /metrics\n\
         expose liveness and counters (incl. per-shard gauges); SIGTERM\n\
         drains in-flight requests and exits 0.\n\n\
         loadgen fires N concurrent requests (sampled from a scenario\n\
         grid under a fixed seed, or one --request file repeated) at a\n\
         running server and reports throughput and latency percentiles;\n\
         it exits nonzero on any non-2xx, refused connect, or transport\n\
         error, which makes it CI's smoke client.\n\n\
         estimate is the front door: it reads a schema-versioned JSON\n\
         EstimateRequest (one object or an array) from --request, evaluates\n\
         the batch in parallel, and emits one FootprintReport per request\n\
         (to stdout, or to --out). Output is byte-identical for every\n\
         --threads value; infeasible requests become {{\"error\": ...}} rows.\n\n\
         sweep streams the full scenario grid (system x storage x region x\n\
         trace source x PUE x policy x upgrade path; 504 scenarios by\n\
         default, 16 with --quick, 20 carbon-shifting scenarios with\n\
         --shifting; --seeds N multiplies any grid by N seeds) through the\n\
         same API in parallel and writes sweep.csv + sweep.json under --out\n\
         (default out/sweep) in bounded memory. Output is byte-identical\n\
         for every --threads value and every shard split: --shard i/N\n\
         evaluates the i-th of N deterministic grid slices as document\n\
         fragments plus a digest manifest (re-running a completed shard is\n\
         a verified no-op), and --merge DIR... validates a full partition\n\
         and reassembles the canonical single-machine documents.\n\n\
         schedule compares every policy (incl. the indexed temporal and\n\
         spatio-temporal shifting pair at --slack hours) via one API batch\n\
         on a fixed GB+CA topology (partner site forced for every row, so\n\
         rows differ only by policy) and reports per-policy carbon savings\n\
         vs the run-at-arrival baseline; --synthetic swaps in synthetic\n\
         region-years.\n\n\
         trace ingests real hourly carbon-intensity CSVs (ElectricityMaps/\n\
         EIA-style; format spec docs/TRACES.md): validate prints every\n\
         {{file}}:{{line}}: diagnostic at once, stats prints a deterministic\n\
         summary, import re-emits the canonical normalized form. sweep and\n\
         schedule accept --forecast oracle|persistence|day-ahead|noisy:<pct>\n\
         to plan shifting on a forecast instead of the actual trace (the\n\
         output then adds realized-vs-oracle savings columns), and sweep\n\
         accepts repeatable --trace-file FILE to evaluate the file source\n\
         dimension against ingested measured data (--gaps picks the gap\n\
         policy: reject, interpolate, or hold).\n\n\
         advisor answers the upgrade question through the API: --intensity\n\
         pins a flat grid (a FlatIntensity provider), --region evaluates\n\
         at a simulated region's median intensity instead.\n\n\
         catalog manages plain-text hardware catalogs (docs/CATALOG.md):\n\
         validate loads a directory strictly and prints every\n\
         line-numbered diagnostic; list and show browse the loaded\n\
         entities (show traces a system's bill of materials to its\n\
         entity files); export writes the built-in Table 1/2/3 data as\n\
         a canonical catalog tree whose reload is bit-identical to the\n\
         shipped tables. estimate, sweep, and serve accept --catalog DIR\n\
         to swap that catalog in as the embodied-carbon source."
    )
}

/// Reads `--flag value` from an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Reads every occurrence of a repeatable `--flag value`.
fn flags(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// Parses `--gaps reject|interpolate|hold` (default reject).
fn gaps_flag(args: &[String]) -> Result<sustainable_hpc::grid::tracefile::GapPolicy, i32> {
    use sustainable_hpc::grid::tracefile::GapPolicy;
    match flag(args, "--gaps") {
        None => Ok(GapPolicy::Reject),
        Some(s) => match GapPolicy::parse(&s) {
            Some(p) => Ok(p),
            None => {
                let valid = GapPolicy::VALUES.join(", ");
                eprintln!("unknown --gaps \"{s}\" (valid values: {valid})");
                Err(2)
            }
        },
    }
}

/// Parses `--forecast oracle|persistence|day-ahead|noisy:<pct>`;
/// `Ok(None)` when absent (plan on the actual trace, the historical
/// behaviour).
fn forecast_flag(args: &[String]) -> Result<Option<sustainable_hpc::api::ForecastModel>, i32> {
    match flag(args, "--forecast") {
        None => Ok(None),
        Some(s) => match api_parse::forecast_model("forecast", &s) {
            Ok(m) => Ok(Some(m)),
            Err(e) => {
                eprintln!("{e}");
                Err(2)
            }
        },
    }
}

/// Loads one trace file, printing every `{file}:{line}:` diagnostic and
/// the validate-style summary line on failure — the shared ingestion
/// path of `trace validate|stats|import` and `--trace-file`.
fn load_trace_cli(
    path: &str,
    gaps: sustainable_hpc::grid::tracefile::GapPolicy,
) -> Result<sustainable_hpc::grid::tracefile::ParsedTrace, i32> {
    match sustainable_hpc::grid::tracefile::load_trace_file(path, gaps) {
        Ok(p) => Ok(p),
        Err(errors) => {
            let n = errors.0.len();
            eprintln!("{errors}");
            eprintln!("{path}: {n} trace error(s)");
            Err(1)
        }
    }
}

/// Loads `--catalog DIR` as an embodied source; `Ok(None)` when the flag
/// is absent (the built-in tables apply). A failing load prints every
/// line-numbered diagnostic — the same strict validation as
/// `hpcarbon catalog validate`.
fn catalog_flag(args: &[String]) -> Result<Option<CatalogSource>, i32> {
    match flag(args, "--catalog") {
        None => Ok(None),
        Some(dir) => match CatalogSource::load(&dir) {
            Ok(source) => Ok(Some(source)),
            Err(errors) => {
                let n = errors.0.len();
                eprintln!("{errors}");
                eprintln!("{dir}: {n} catalog error(s)");
                Err(1)
            }
        },
    }
}

fn cmd_estimate(stdout: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let Some(path) = flag(args, "--request") else {
        eprintln!("estimate requires --request FILE (a JSON EstimateRequest or array of them)");
        return Ok(2);
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return Ok(1);
        }
    };
    let requests = match EstimateRequest::batch_from_json(&src) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: {e}");
            return Ok(2);
        }
    };
    let mut builder = Estimator::builder();
    match positive_flag(args, "--threads") {
        Ok(Some(n)) => builder = builder.threads(n),
        Ok(None) => {}
        Err(c) => return Ok(c),
    }
    match catalog_flag(args) {
        Ok(Some(source)) => builder = builder.embodied(source),
        Ok(None) => {}
        Err(c) => return Ok(c),
    }
    let results = builder.build().estimate_batch(&requests);
    let json = batch_to_json(&results);
    let errors = results.iter().filter(|r| r.is_err()).count();
    match flag(args, "--out") {
        Some(out) => {
            if let Some(parent) = std::path::Path::new(&out).parent() {
                if !parent.as_os_str().is_empty() {
                    if let Err(e) = std::fs::create_dir_all(parent) {
                        eprintln!("cannot create {}: {e}", parent.display());
                        return Ok(1);
                    }
                }
            }
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("cannot write {out}: {e}");
                return Ok(1);
            }
            eprintln!(
                "estimated {} request(s) ({} ok, {errors} infeasible); wrote {out}",
                results.len(),
                results.len() - errors,
            );
        }
        None => write!(stdout, "{json}")?,
    }
    Ok(0)
}

/// Parses `--flag value` as a `T` that `accept` admits; `Ok(None)` when
/// the flag is absent. Every numeric flag goes through here, so a value
/// that does not parse or is out of range prints `invalid {name}
/// "{raw}" (expected {expected})` and exits 2: falling back to the
/// default silently would, say, sweep seed 2021 when `--seed 2O21` was
/// asked for, or a `--threads 1` reference run at full width.
fn checked_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    expected: &str,
    accept: impl Fn(&T) -> bool,
) -> Result<Option<T>, i32> {
    let Some(raw) = flag(args, name) else {
        return Ok(None);
    };
    match raw.parse::<T>() {
        Ok(v) if accept(&v) => Ok(Some(v)),
        _ => {
            eprintln!("invalid {name} \"{raw}\" (expected {expected})");
            Err(2)
        }
    }
}

/// [`checked_flag`] for an unsigned integer of any width: every value
/// that parses is valid.
fn unsigned_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, i32> {
    checked_flag(args, name, "a non-negative integer", |_| true)
}

/// [`checked_flag`] for a positive integer.
fn positive_flag(args: &[String], name: &str) -> Result<Option<usize>, i32> {
    checked_flag(args, name, "a positive integer", |&n| n >= 1)
}

fn cmd_serve(stdout: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8080".into());
    let mut config = sustainable_hpc::server::ServerConfig::default();
    match positive_flag(args, "--shards") {
        Ok(Some(n)) => config.shards = n,
        Ok(None) => {}
        Err(c) => return Ok(c),
    }
    match positive_flag(args, "--workers") {
        Ok(Some(n)) => config.workers = n,
        Ok(None) => {}
        Err(c) => return Ok(c),
    }
    // 0 is meaningful here: it disables the cache.
    match unsigned_flag(args, "--cache") {
        Ok(Some(n)) => config.cache_capacity = n,
        Ok(None) => {}
        Err(c) => return Ok(c),
    }
    match positive_flag(args, "--max-body") {
        Ok(Some(n)) => config.max_body_bytes = n,
        Ok(None) => {}
        Err(c) => return Ok(c),
    }

    let estimator = match catalog_flag(args) {
        Ok(Some(source)) => Estimator::builder().embodied(source).build(),
        Ok(None) => Estimator::builder().build(),
        Err(c) => return Ok(c),
    };
    let server = match Server::bind_with(&addr, config.clone(), estimator) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return Ok(1);
        }
    };
    let bound = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot resolve the bound address: {e}");
            return Ok(1);
        }
    };

    // SIGTERM/SIGINT → the shutdown handle, polled by a watcher thread
    // (the handler itself only sets an atomic flag).
    sustainable_hpc::server::signal::install_handlers();
    let handle = server.shutdown_handle();
    let watcher = handle.clone();
    std::thread::spawn(move || loop {
        if sustainable_hpc::server::signal::termination_requested() {
            watcher.shutdown();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });

    writeln!(
        stdout,
        "hpcarbon-server listening on http://{bound} ({} shards, {} workers, cache {} entries, body limit {} bytes)",
        config.shards, config.workers, config.cache_capacity, config.max_body_bytes
    )?;
    writeln!(
        stdout,
        "routes: POST /v1/estimate | GET /healthz | GET /metrics — SIGTERM drains and exits 0"
    )?;
    match server.run() {
        Ok(s) => {
            writeln!(
                stdout,
                "graceful shutdown: drained; served {} http requests ({} estimate calls, {} cache hits / {} misses)",
                s.http_requests, s.estimate_calls, s.cache_hits, s.cache_misses
            )?;
            Ok(0)
        }
        Err(e) => {
            eprintln!("server failed: {e}");
            Ok(1)
        }
    }
}

fn cmd_loadgen(stdout: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8080".into());
    let requests = match positive_flag(args, "--requests") {
        Ok(n) => n.unwrap_or(64),
        Err(c) => return Ok(c),
    };
    let concurrency = match positive_flag(args, "--concurrency") {
        Ok(n) => n.unwrap_or(8),
        Err(c) => return Ok(c),
    };
    let wait_s = match positive_flag(args, "--wait") {
        Ok(n) => n.unwrap_or(10),
        Err(c) => return Ok(c),
    };
    // 0 is meaningful (fail fast on the first refused connect), so this
    // is not a positive_flag.
    let connect_retries: u32 = match unsigned_flag(args, "--connect-retries") {
        Ok(n) => n.unwrap_or(2),
        Err(c) => return Ok(c),
    };
    let seed: u64 = match unsigned_flag(args, "--seed") {
        Ok(s) => s.unwrap_or(2021),
        Err(c) => return Ok(c),
    };

    // The workload: one file repeated (a single entry, cycled by the
    // workers), or requests sampled from a grid under the fixed seed
    // (reproducible request-for-request).
    let bodies: Vec<String> = match flag(args, "--request") {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(src) => vec![src],
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return Ok(1);
            }
        },
        None => {
            let grid_name = flag(args, "--grid").unwrap_or_else(|| "quick".into());
            let grid = match grid_name.as_str() {
                "quick" => ScenarioGrid::quick(),
                "shifting" => ScenarioGrid::shifting(),
                "default" => ScenarioGrid::paper_default(),
                other => {
                    eprintln!(
                        "unknown --grid \"{other}\" (valid values: quick, shifting, default)"
                    );
                    return Ok(2);
                }
            };
            let mut cfg = SweepConfig::fast();
            match positive_flag(args, "--jobs") {
                Ok(Some(n)) => cfg.jobs_per_scenario = n,
                Ok(None) => {}
                Err(c) => return Ok(c),
            }
            grid.sample_requests(requests, &cfg, seed)
                .iter()
                .map(|r| r.to_json())
                .collect()
        }
    };

    if !sustainable_hpc::server::wait_healthz(&addr, std::time::Duration::from_secs(wait_s as u64))
    {
        eprintln!("server at {addr} did not answer /healthz within {wait_s}s");
        return Ok(1);
    }
    let (summary, first_body) = match sustainable_hpc::server::loadgen::run(&LoadGenConfig {
        addr: addr.clone(),
        concurrency,
        bodies,
        requests,
        connect_retries,
    }) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            return Ok(1);
        }
    };

    write!(stdout, "{}", summary.render())?;
    if let Some(path) = flag(args, "--save-response") {
        let Some(body) = first_body else {
            eprintln!("no response captured to save to {path}");
            return Ok(1);
        };
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("cannot write {path}: {e}");
            return Ok(1);
        }
        eprintln!("saved the first response body to {path}");
    }
    if let Some(path) = flag(args, "--out") {
        if let Some(parent) = std::path::Path::new(&path).parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("cannot create {}: {e}", parent.display());
                    return Ok(1);
                }
            }
        }
        if let Err(e) = std::fs::write(&path, summary.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return Ok(1);
        }
        eprintln!("wrote the latency summary to {path}");
    }
    if summary.all_ok() {
        Ok(0)
    } else {
        eprintln!(
            "loadgen observed failures: {} non-2xx, {} connect errors, {} i/o errors",
            summary.non_2xx, summary.connect_errors, summary.io_errors
        );
        Ok(1)
    }
}

fn cmd_figures(stdout: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let seed: u64 = match unsigned_flag(args, "--seed") {
        Ok(s) => s.unwrap_or(2021),
        Err(c) => return Ok(c),
    };
    let out = flag(args, "--out").unwrap_or_else(|| "out/paper".into());
    let dir = std::path::Path::new(&out);
    for a in sustainable_hpc::report::render_all(seed) {
        if let Err(e) = a.write_to(dir) {
            eprintln!("cannot write {}: {e}", dir.display());
            return Ok(1);
        }
        writeln!(stdout, "wrote {}/{}.{{txt,csv}}", dir.display(), a.id)?;
    }
    Ok(0)
}

fn cmd_parts(stdout: &mut impl Write) -> io::Result<i32> {
    writeln!(
        stdout,
        "{:<28} {:>9} {:>12} {:>13} {:>7}",
        "part", "kgCO2", "kg/TFLOPS", "kg/(GB/s)", "pack%"
    )?;
    for p in sustainable_hpc::core::db::all_parts() {
        let s = p.spec();
        let fmt_opt = |v: Option<f64>| {
            v.map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".to_string())
        };
        writeln!(
            stdout,
            "{:<28} {:>9.2} {:>12} {:>13} {:>6.1}%",
            s.part_name,
            s.embodied().total().as_kg(),
            fmt_opt(s.embodied_per_tflops()),
            fmt_opt(s.embodied_per_bandwidth()),
            s.embodied().packaging_share().percent(),
        )?;
    }
    Ok(0)
}

fn cmd_systems(stdout: &mut impl Write) -> io::Result<i32> {
    for sys in HpcSystem::table2() {
        writeln!(
            stdout,
            "{} ({}, {}) — total embodied {:.0} tCO2:",
            sys.name,
            sys.location,
            sys.year,
            sys.embodied_total().as_t()
        )?;
        for (class, share) in sys.composition_shares() {
            writeln!(stdout, "  {:<5} {:>5.1}%", class.label(), share.percent())?;
        }
        writeln!(
            stdout,
            "  memory+storage: {:.1}%\n",
            sys.memory_storage_share().percent()
        )?;
    }
    Ok(0)
}

fn cmd_regions(stdout: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let seed: u64 = match unsigned_flag(args, "--seed") {
        Ok(s) => s.unwrap_or(2021),
        Err(c) => return Ok(c),
    };
    let traces = simulate_all_regions(2021, seed);
    writeln!(
        stdout,
        "{:<6} {:>8} {:>8} {:>8} {:>7}",
        "region", "q1", "median", "q3", "CoV%"
    )?;
    for s in regional_summary(&traces) {
        writeln!(
            stdout,
            "{:<6} {:>8.1} {:>8.1} {:>8.1} {:>6.1}%",
            s.operator.info().short,
            s.boxplot.q1,
            s.boxplot.median,
            s.boxplot.q3,
            s.cov_percent
        )?;
    }
    Ok(0)
}

fn cmd_advisor(stdout: &mut impl Write, args: &[String]) -> io::Result<i32> {
    // The typed parsers are shared with the API's JSON request decoder:
    // a typo'd value gets an error naming the flag and listing the
    // accepted vocabulary instead of a silent fallback.
    let node = |name: &'static str| -> Result<Option<NodeGen>, i32> {
        match flag(args, name) {
            None => Ok(None),
            Some(v) => match api_parse::node_gen(name, &v) {
                Ok(n) => Ok(Some(n)),
                Err(e) => {
                    eprintln!("{e}");
                    Err(2)
                }
            },
        }
    };
    let (from, to) = match (node("--from"), node("--to")) {
        (Ok(Some(f)), Ok(Some(t))) => (f, t),
        (Err(c), _) | (_, Err(c)) => return Ok(c),
        _ => {
            eprintln!("advisor requires --from and --to (p100|v100|a100)");
            return Ok(2);
        }
    };
    let suite = match flag(args, "--suite") {
        None => Suite::Nlp,
        Some(v) => match api_parse::suite("--suite", &v) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return Ok(2);
            }
        },
    };
    let in_unit = |&u: &f64| Fraction::new(u).is_some();
    let usage = match checked_flag(args, "--usage", "a fraction in [0, 1]", in_unit) {
        Ok(u) => u
            .and_then(Fraction::new)
            .unwrap_or(UsageLevel::Medium.fraction()),
        Err(c) => return Ok(c),
    };
    let physical = |&g: &f64| g.is_finite() && g >= 0.0;
    let intensity = match checked_flag(args, "--intensity", "a finite number ≥ 0", physical) {
        Ok(g) => g.unwrap_or(200.0),
        Err(c) => return Ok(c),
    };

    // Build the request once; --region routes it at a simulated region's
    // grid, --intensity (the default, 200 g/kWh) pins a flat grid via a
    // swapped-in IntensityProvider.
    let mut req = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
    req.upgrade = UpgradePath { from, to, suite };
    req.usage = usage;
    req.jobs = 8; // the advisor reads the upgrade section, not the sched run
    let (estimator, grid_label) = match flag(args, "--region") {
        Some(r) => {
            let op = match api_parse::region("--region", &r) {
                Ok(op) => op,
                Err(e) => {
                    eprintln!("{e}");
                    return Ok(2);
                }
            };
            req.region = op;
            (
                Estimator::builder().build(),
                format!("{} median", op.info().short),
            )
        }
        None => (
            Estimator::builder()
                .intensity(FlatIntensity::new(intensity))
                .build(),
            format!("flat {intensity:.0} gCO2/kWh"),
        ),
    };
    let report = match estimator.estimate(&req) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("estimate failed: {e}");
            return Ok(1);
        }
    };

    // Catalog facts of the upgrade itself (grid-independent).
    let scenario = UpgradeScenario {
        usage,
        ..UpgradeScenario::paper_default(from, to, suite)
    };
    writeln!(
        stdout,
        "{} -> {} | {} | usage {} | grid {}",
        from.config().name,
        to.config().name,
        suite.label(),
        usage,
        grid_label
    )?;
    writeln!(stdout, "  speedup           : {:.2}x", scenario.speedup())?;
    writeln!(
        stdout,
        "  upgrade embodied  : {}",
        scenario.upgrade_embodied()
    )?;
    writeln!(
        stdout,
        "  annual energy     : {} -> {}",
        scenario.old_annual_energy(),
        scenario.new_annual_energy()
    )?;
    writeln!(
        stdout,
        "  median intensity  : {:.1} gCO2/kWh",
        report.grid.median_g_per_kwh
    )?;
    writeln!(
        stdout,
        "  node annual       : {:.1} kgCO2",
        report.upgrade.node_annual_kg
    )?;
    writeln!(
        stdout,
        "  asymptotic saving : {:.1}%",
        report.upgrade.asymptotic_pct
    )?;
    match report.upgrade.break_even_y {
        Some(y) => writeln!(stdout, "  break-even        : {y:.2} years")?,
        None => writeln!(
            stdout,
            "  break-even        : never (no energy saving at this grid)"
        )?,
    }
    writeln!(
        stdout,
        "  verdict           : {}",
        report.upgrade.verdict.label()
    )?;
    Ok(0)
}

fn cmd_sweep(stdout: &mut impl Write, args: &[String]) -> io::Result<i32> {
    if let Some(pos) = args.iter().position(|a| a == "--merge") {
        return cmd_sweep_merge(stdout, args, pos);
    }
    let mut grid = if args.iter().any(|a| a == "--quick") {
        ScenarioGrid::quick()
    } else if args.iter().any(|a| a == "--shifting") {
        ScenarioGrid::shifting()
    } else {
        ScenarioGrid::paper_default()
    };
    let seed = match unsigned_flag::<u64>(args, "--seed") {
        Ok(s) => s,
        Err(c) => return Ok(c),
    };
    let seeds = match unsigned_flag::<u64>(args, "--seeds") {
        Ok(n) => n,
        Err(c) => return Ok(c),
    };
    if let Some(n) = seeds {
        // N consecutive seeds starting at --seed (default 0): the knob
        // that scales any grid to 10^5+ rows for sharded runs.
        let base = seed.unwrap_or(0);
        let seeds: Option<Vec<u64>> = (0..n).map(|i| base.checked_add(i)).collect();
        let Some(seeds) = seeds else {
            eprintln!("invalid --seeds \"{n}\" (--seed {base} plus {n} seeds passes u64::MAX)");
            return Ok(2);
        };
        grid = grid.seeds(seeds);
    } else if let Some(s) = seed {
        grid = grid.seeds([s]);
    }
    let mut config = SweepConfig::paper_default();
    match positive_flag(args, "--jobs") {
        Ok(Some(n)) => config.jobs_per_scenario = n,
        Ok(None) => {}
        Err(c) => return Ok(c),
    }
    config.forecast = match forecast_flag(args) {
        Ok(f) => f,
        Err(c) => return Ok(c),
    };
    // Ingested trace files swap the grid onto the `file` source
    // dimension: each file backs its own zone's region; rows for
    // regions without a file fail soft as error rows.
    let gaps = match gaps_flag(args) {
        Ok(g) => g,
        Err(c) => return Ok(c),
    };
    let mut trace_files = Vec::new();
    for path in flags(args, "--trace-file") {
        match load_trace_cli(&path, gaps) {
            Ok(p) => trace_files.push((p.operator, std::sync::Arc::new(p.trace))),
            Err(c) => return Ok(c),
        }
    }
    if !trace_files.is_empty() {
        grid = grid.sources([TraceSource::File]);
    }
    let shard = match flag(args, "--shard") {
        Some(s) => match ShardSpec::parse(&s) {
            Ok(spec) => Some(spec),
            Err(e) => {
                eprintln!("invalid --shard: {e}");
                return Ok(2);
            }
        },
        None => None,
    };
    let threads = match positive_flag(args, "--threads") {
        Ok(t) => t,
        Err(c) => return Ok(c),
    };
    let top: usize = match unsigned_flag(args, "--top") {
        Ok(k) => k.unwrap_or(5),
        Err(c) => return Ok(c),
    };
    let out = flag(args, "--out").unwrap_or_else(|| "out/sweep".into());
    let dir = std::path::Path::new(&out);
    let catalog = match catalog_flag(args) {
        Ok(c) => c,
        Err(code) => return Ok(code),
    };

    let fingerprint = grid_fingerprint(&grid, &config);
    if let Some(spec) = shard {
        // Resume: a shard whose manifest matches this (grid, config)
        // and whose output files verify is already done.
        if let Ok(m) = ShardManifest::load_verified(dir) {
            if m.fingerprint == fingerprint && m.shard == spec {
                writeln!(
                    stdout,
                    "shard {spec} already complete in {} ({} rows, verified); nothing to do",
                    dir.display(),
                    m.rows.len()
                )?;
                return Ok(0);
            }
        }
    }

    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return Ok(1);
    }
    let (csv_file, json_file) = match (
        std::fs::File::create(dir.join(CSV_FILE)),
        std::fs::File::create(dir.join(JSON_FILE)),
    ) {
        (Ok(c), Ok(j)) => (std::io::BufWriter::new(c), std::io::BufWriter::new(j)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cannot write {}: {e}", dir.display());
            return Ok(1);
        }
    };
    // Shards emit document fragments that `--merge` concatenates; a
    // shard that continues earlier rows leads with the JSON separator.
    let mut csv = match shard {
        Some(_) => CsvSink::fragment(csv_file),
        None => CsvSink::new(csv_file),
    };
    let mut json = match shard {
        Some(spec) => JsonSink::fragment(json_file, spec.range(grid.len()).start > 0),
        None => JsonSink::new(json_file),
    };
    // A forecast run grows the realized-vs-oracle columns; without the
    // flag the documents keep the frozen 25-column contract.
    if config.forecast.is_some() {
        csv = csv.forecast_columns();
        json = json.forecast_columns();
    }

    let mut sweep = Sweep::over(&grid)
        .config(config)
        .top(top)
        .sink(&mut csv)
        .sink(&mut json);
    for (region, trace) in trace_files {
        sweep = sweep.trace_file(region, trace);
    }
    if let Some(source) = catalog {
        sweep = sweep.embodied(std::sync::Arc::new(source));
    }
    if let Some(t) = threads {
        sweep = sweep.threads(t);
    }
    if let Some(spec) = shard {
        sweep = sweep.shard(spec.index, spec.count);
    }
    let report = match sweep.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return Ok(1);
        }
    };

    if let Some(spec) = shard {
        writeln!(
            stdout,
            "shard {spec}: rows {}..{} of {}",
            report.rows.start, report.rows.end, report.grid_len
        )?;
    }
    writeln!(
        stdout,
        "swept {} scenarios ({} ok, {} infeasible)\n",
        report.len(),
        report.ok,
        report.errors
    )?;
    write!(stdout, "{}", report.summary_table())?;
    writeln!(stdout, "\nlowest scheduled carbon (top {top}):")?;
    for row in &report.top {
        let o = row.outcome.as_ref().expect("top rows are ok");
        let s = &row.scenario;
        writeln!(
            stdout,
            "  #{:<4} {:<10} {:<9} {:<4} pue {:<9} {:<28} {:>9.1} kgCO2",
            s.id,
            s.system.label(),
            s.storage.label(),
            s.region.info().short,
            s.pue.label(),
            s.policy.label(),
            o.sched_carbon_kg
        )?;
    }

    if let Some(spec) = shard {
        let manifest = ShardManifest {
            fingerprint,
            shard: spec,
            rows: report.rows.clone(),
            ok: report.ok,
            errors: report.errors,
            outputs: report
                .digests
                .iter()
                .zip([CSV_FILE, JSON_FILE])
                .map(|(d, name)| OutputDigest {
                    path: name.to_string(),
                    bytes: d.bytes,
                    fnv64: d.fnv64,
                })
                .collect(),
        };
        if let Err(e) = manifest.write(dir) {
            eprintln!("cannot write {}: {e}", dir.display());
            return Ok(1);
        }
        writeln!(
            stdout,
            "\nwrote {}/{{{CSV_FILE},{JSON_FILE},manifest.json}} (fragment)",
            dir.display()
        )?;
    } else {
        writeln!(stdout, "\nwrote {}/sweep.{{csv,json}}", dir.display())?;
    }
    Ok(0)
}

/// `hpcarbon sweep --merge DIR...`: validate a complete shard partition
/// and reassemble the canonical single-machine documents.
fn cmd_sweep_merge(stdout: &mut impl Write, args: &[String], pos: usize) -> io::Result<i32> {
    let dirs: Vec<std::path::PathBuf> = args[pos + 1..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .map(std::path::PathBuf::from)
        .collect();
    if dirs.is_empty() {
        eprintln!("--merge requires one directory per shard");
        return Ok(2);
    }
    let out = flag(args, "--out").unwrap_or_else(|| "out/sweep".into());
    let out_dir = std::path::Path::new(&out);
    match merge_sweep_outputs(&dirs, out_dir) {
        Ok((rows, digests)) => {
            writeln!(
                stdout,
                "merged {} shards ({rows} rows) -> {}/sweep.{{csv,json}}",
                dirs.len(),
                out_dir.display()
            )?;
            for d in &digests {
                writeln!(
                    stdout,
                    "  {:<10} {:>9} bytes  fnv64 {:#018x}",
                    d.path, d.bytes, d.fnv64
                )?;
            }
            Ok(0)
        }
        Err(e) => {
            eprintln!("merge failed: {e}");
            Ok(1)
        }
    }
}

/// `hpcarbon trace validate|stats|import` — ingest real hourly
/// carbon-intensity CSVs (format spec: docs/TRACES.md).
///
/// - `validate FILE` loads the file strictly and prints **every**
///   `{file}:{line}:` diagnostic at once (exit 1 on any error);
/// - `stats FILE` prints a deterministic summary of the normalized
///   trace, suitable for golden `cmp` in CI;
/// - `import FILE --out FILE` re-emits the canonical CSV form
///   (UTC stamps, gCO2/kWh, sorted hours) after validation.
fn cmd_trace(stdout: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let Some(sub) = args.first().map(String::as_str) else {
        eprintln!("trace requires a subcommand (valid values: validate, stats, import)");
        return Ok(2);
    };
    let rest = &args[1..];
    let Some(path) = rest.first().filter(|a| !a.starts_with("--")).cloned() else {
        eprintln!("trace {sub} requires a FILE argument");
        return Ok(2);
    };
    let gaps = match gaps_flag(rest) {
        Ok(g) => g,
        Err(c) => return Ok(c),
    };
    let parsed = match load_trace_cli(&path, gaps) {
        Ok(p) => p,
        Err(c) => return Ok(c),
    };
    let zone = sustainable_hpc::grid::tracefile::zone_label(parsed.operator);
    match sub {
        "validate" => {
            writeln!(
                stdout,
                "{path}: ok — zone {zone}, year {}, {} hours ({} filled)",
                parsed.year,
                parsed.trace.series().len(),
                parsed.filled_hours
            )?;
            Ok(0)
        }
        "stats" => {
            let b = parsed.trace.boxplot();
            writeln!(stdout, "zone       : {zone}")?;
            writeln!(stdout, "year       : {}", parsed.year)?;
            writeln!(stdout, "hours      : {}", parsed.trace.series().len())?;
            writeln!(stdout, "filled     : {}", parsed.filled_hours)?;
            writeln!(stdout, "min        : {:.4}", b.min)?;
            writeln!(stdout, "q1         : {:.4}", b.q1)?;
            writeln!(stdout, "median     : {:.4}", b.median)?;
            writeln!(stdout, "mean       : {:.4}", b.mean)?;
            writeln!(stdout, "q3         : {:.4}", b.q3)?;
            writeln!(stdout, "max        : {:.4}", b.max)?;
            writeln!(stdout, "cov %      : {:.4}", parsed.trace.cov_percent())?;
            Ok(0)
        }
        "import" => {
            let Some(out) = flag(rest, "--out") else {
                eprintln!("trace import requires --out FILE");
                return Ok(2);
            };
            let canonical = sustainable_hpc::grid::tracefile::write_trace_csv(&parsed.trace);
            if let Some(parent) = std::path::Path::new(&out).parent() {
                if !parent.as_os_str().is_empty() {
                    if let Err(e) = std::fs::create_dir_all(parent) {
                        eprintln!("cannot create {}: {e}", parent.display());
                        return Ok(1);
                    }
                }
            }
            if let Err(e) = std::fs::write(&out, &canonical) {
                eprintln!("cannot write {out}: {e}");
                return Ok(1);
            }
            writeln!(
                stdout,
                "wrote {out} — zone {zone}, year {}, {} hours (canonical form)",
                parsed.year,
                parsed.trace.series().len()
            )?;
            Ok(0)
        }
        other => {
            eprintln!("unknown trace subcommand: {other} (valid values: validate, stats, import)");
            Ok(2)
        }
    }
}

fn cmd_schedule(stdout: &mut impl Write, args: &[String]) -> io::Result<i32> {
    let jobs_n = match positive_flag(args, "--jobs") {
        Ok(n) => n.unwrap_or(300),
        Err(c) => return Ok(c),
    };
    let seed: u64 = match unsigned_flag(args, "--seed") {
        Ok(s) => s.unwrap_or(7),
        Err(c) => return Ok(c),
    };
    let slack: u32 = match unsigned_flag(args, "--slack") {
        Ok(h) => h.unwrap_or(24),
        Err(c) => return Ok(c),
    };
    let source = if args.iter().any(|a| a == "--synthetic") {
        TraceSource::Synthetic
    } else {
        TraceSource::Paper
    };
    let forecast = match forecast_flag(args) {
        Ok(f) => f,
        Err(c) => return Ok(c),
    };
    // One API batch: the same GB-anchored request under every policy,
    // with the CA partner site forced for ALL rows (`partner: true`) so
    // the table compares policies on one fixed topology rather than
    // confounding policy effects with cluster-capacity differences.
    let policies = [
        Policy::Fifo,
        Policy::ThresholdDefer {
            threshold_g_per_kwh: 150.0,
        },
        Policy::GreenestWindow { horizon_hours: 24 },
        Policy::LowestIntensityRegion,
        Policy::RegionAndTime { horizon_hours: 24 },
        Policy::TemporalShift { slack_hours: slack },
        Policy::SpatioTemporal { slack_hours: slack },
    ];
    let requests: Vec<EstimateRequest> = policies
        .iter()
        .map(|&policy| {
            let mut r = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
            r.policy = policy;
            r.partner = Some(true);
            r.source = source;
            r.forecast = forecast;
            r.seed = seed;
            r.jobs = jobs_n;
            r
        })
        .collect();
    let results = Estimator::builder().build().estimate_batch(&requests);
    let mut rows = Vec::new();
    for (policy, result) in policies.iter().zip(results) {
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: {e}", policy.label());
                return Ok(1);
            }
        };
        rows.push(sustainable_hpc::report::tables::ShiftingRow {
            policy: policy.label().to_string(),
            carbon_kg: report.operational.sched_kg,
            saved_kg: report.shift.saved_kg,
            saved_pct: report.shift.saved_pct,
            mean_wait_h: report.operational.mean_wait_h,
            max_wait_h: report.operational.max_wait_h,
            oracle_saved_kg: report.shift.oracle_saved_kg,
            oracle_saved_pct: report.shift.oracle_saved_pct,
        });
    }
    write!(
        stdout,
        "{}",
        sustainable_hpc::report::tables::shifting_comparison(&rows)
    )?;
    Ok(0)
}

/// `hpcarbon catalog validate|list|show|export` — manage plain-text
/// hardware catalogs (format spec: docs/CATALOG.md).
fn cmd_catalog(stdout: &mut impl Write, args: &[String]) -> io::Result<i32> {
    use sustainable_hpc::catalog::{export_builtin, node_slug, part_slug, region_slug};

    let Some(sub) = args.first().map(String::as_str) else {
        eprintln!("catalog requires a subcommand (valid values: validate, list, show, export)");
        return Ok(2);
    };
    let rest = &args[1..];

    // export writes the built-in tables; it does not read a catalog.
    if sub == "export" {
        let out = flag(rest, "--out").unwrap_or_else(|| "catalog".into());
        return match export_builtin(&out) {
            Ok(()) => {
                writeln!(
                    stdout,
                    "exported the built-in tables to {out}/ (13 parts, 5 process nodes, 3 systems, 7 regions)"
                )?;
                Ok(0)
            }
            Err(e) => {
                eprintln!("cannot write {out}: {e}");
                Ok(1)
            }
        };
    }

    let dir = flag(rest, "--catalog").unwrap_or_else(|| "catalog".into());
    let catalog = match Catalog::load(&dir) {
        Ok(c) => c,
        Err(errors) => {
            let n = errors.0.len();
            eprintln!("{errors}");
            eprintln!("{dir}: {n} catalog error(s)");
            return Ok(1);
        }
    };

    match sub {
        "validate" => {
            writeln!(
                stdout,
                "{dir}: OK ({} parts, {} process nodes, {} systems, {} regions)",
                catalog.parts().len(),
                catalog.nodes().len(),
                catalog.systems().len(),
                catalog.regions().len()
            )?;
            Ok(0)
        }
        "list" => {
            for p in catalog.parts() {
                writeln!(
                    stdout,
                    "part          {:<22} {}",
                    part_slug(p.spec.id),
                    p.source
                )?;
            }
            for n in catalog.nodes() {
                writeln!(
                    stdout,
                    "process-node  {:<22} {}",
                    node_slug(n.node),
                    n.source
                )?;
            }
            for s in catalog.systems() {
                writeln!(stdout, "system        {:<22} {}", s.id, s.source)?;
            }
            for r in catalog.regions() {
                writeln!(
                    stdout,
                    "region        {:<22} {}",
                    region_slug(r.id),
                    r.source
                )?;
            }
            Ok(0)
        }
        "show" => {
            let Some(id) = rest.first().filter(|a| !a.starts_with("--")) else {
                eprintln!("show requires an entity id (try `hpcarbon catalog list`)");
                return Ok(2);
            };
            if let Some(p) = catalog.parts().iter().find(|p| part_slug(p.spec.id) == *id) {
                let spec = &p.spec;
                writeln!(stdout, "part {id} ({})", p.source)?;
                writeln!(stdout, "  part-name : {}", spec.part_name)?;
                writeln!(stdout, "  component : {}", spec.component)?;
                writeln!(
                    stdout,
                    "  class     : {:<6} release {:04}-{:02}",
                    spec.class.label(),
                    spec.release.0,
                    spec.release.1
                )?;
                writeln!(
                    stdout,
                    "  embodied  : {:.2} kgCO2 (packaging {:.1}%)",
                    spec.embodied().total().as_kg(),
                    spec.embodied().packaging_share().percent()
                )?;
            } else if let Some(n) = catalog.nodes().iter().find(|n| node_slug(n.node) == *id) {
                writeln!(stdout, "process-node {id} ({})", n.source)?;
                writeln!(stdout, "  label : {}", n.label)?;
                writeln!(
                    stdout,
                    "  fab densities : fpa {} / gpa {} / mpa {} gCO2 per cm2",
                    n.densities.fpa.as_g_per_cm2(),
                    n.densities.gpa.as_g_per_cm2(),
                    n.densities.mpa.as_g_per_cm2()
                )?;
            } else if let Some(s) = catalog.systems().iter().find(|s| s.id == *id) {
                let sys = &s.system;
                writeln!(stdout, "system {id} ({})", s.source)?;
                writeln!(stdout, "  name     : {} — {}", sys.name, sys.location)?;
                writeln!(stdout, "  cores    : {}  deployed {}", sys.cores, sys.year)?;
                writeln!(
                    stdout,
                    "  bill of materials ({} link lines):",
                    s.links.len()
                )?;
                for link in &s.links {
                    let each = catalog
                        .part(link.part)
                        .expect("loaded catalogs resolve every link")
                        .embodied()
                        .total();
                    writeln!(
                        stdout,
                        "    {}:{:<3} {:<22} x {:>6} = {:>8.1} tCO2",
                        s.source,
                        link.line,
                        part_slug(link.part),
                        link.count,
                        each.as_t() * link.count as f64
                    )?;
                }
                writeln!(
                    stdout,
                    "  embodied total : {:.1} tCO2",
                    sys.embodied_total().as_t()
                )?;
            } else if let Some(r) = catalog.regions().iter().find(|r| region_slug(r.id) == *id) {
                writeln!(stdout, "region {id} ({})", r.source)?;
                writeln!(stdout, "  short   : {}", r.short)?;
                writeln!(stdout, "  name    : {}", r.name)?;
                writeln!(stdout, "  country : {} ({})", r.country, r.region)?;
            } else {
                eprintln!("{dir}: no entity with id \"{id}\" (try `hpcarbon catalog list`)");
                return Ok(1);
            }
            Ok(0)
        }
        other => {
            eprintln!(
                "unknown catalog subcommand \"{other}\" (valid values: validate, list, show, export)"
            );
            Ok(2)
        }
    }
}
