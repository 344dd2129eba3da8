//! `hpcarbon` — command-line front end to the sustainable-hpc framework.
//!
//! `hpcarbon --help` prints `USAGE`, whose synopsis is also the argument
//! grammar: each subcommand's arguments are checked against its usage
//! entry before it runs (see `Entry`). An undeclared flag, a flag
//! without its value, a repeated flag, two alternatives given together,
//! a stray argument or a missing required one is one stderr line and
//! exit 2, before anything is written.
//!
//! Argument parsing is hand-rolled (the offline dependency set has no CLI
//! crate); every subcommand prints plain text suitable for terminals and
//! pipelines, through one locked stdout handle. When the reader closes
//! the pipe early (`| head`, `| grep -q`), the command ends quietly with
//! exit 0; any other failure to write stdout is an error, exit 1.
//! Estimation itself — `estimate`, `advisor`, `schedule`, `sweep` —
//! routes through the versioned front-door API
//! ([`sustainable_hpc::api`]): the CLI only translates flags and files
//! into [`EstimateRequest`]s and renders the returned
//! [`FootprintReport`]s.

use std::fmt::Display;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use sustainable_hpc::api::{batch_to_json, parse as api_parse, FlatIntensity, TraceSource};
use sustainable_hpc::grid::analysis::regional_summary;
use sustainable_hpc::grid::tracefile::{GapPolicy, ParsedTrace};
use sustainable_hpc::prelude::*;
use sustainable_hpc::sweep::{
    grid_fingerprint, merge_sweep_outputs, OutputDigest, ShardManifest, ShardSpec, CSV_FILE,
    JSON_FILE,
};
use sustainable_hpc::upgrade::savings::UsageLevel;

/// The `--help` text. Its synopsis declares every subcommand's
/// arguments (see `Entry`), so what `--help` shows and what a command
/// accepts cannot drift apart.
const USAGE: &str = "\
hpcarbon — carbon footprint estimation for HPC systems (SC'23 reproduction)

USAGE:
  hpcarbon estimate --request FILE [--threads N] [--out FILE] [--catalog DIR]
  hpcarbon serve    [--addr A] [--shards N] [--workers N] [--cache N] [--max-body BYTES]
                    [--catalog DIR]
  hpcarbon loadgen  [--addr A] [--requests N] [--concurrency C] [--seed N]
                    [--grid quick|shifting|default] [--jobs N] [--request FILE]
                    [--wait S] [--connect-retries N] [--out FILE] [--save-response FILE]
  hpcarbon figures  [--seed N] [--out DIR]
  hpcarbon parts
  hpcarbon systems
  hpcarbon regions  [--seed N]
  hpcarbon advisor  --from <p100|v100|a100> --to <p100|v100|a100>
                    [--suite nlp|vision|candle] [--intensity G | --region R] [--usage F]
  hpcarbon schedule [--jobs N] [--seed N] [--slack H] [--synthetic] [--forecast M]
  hpcarbon sweep    [--seed N] [--seeds N] [--jobs N] [--threads N] [--out DIR]
                    [--top K] [--quick | --shifting] [--shard i/N] [--catalog DIR]
                    [--trace-file FILE]... [--forecast M] [--gaps reject|interpolate|hold]
  hpcarbon sweep    --merge DIR... [--out DIR]
  hpcarbon trace    validate FILE [--gaps P]
  hpcarbon trace    stats    FILE [--gaps P]
  hpcarbon trace    import   FILE --out FILE [--gaps P]
  hpcarbon catalog  validate [--catalog DIR]
  hpcarbon catalog  list     [--catalog DIR]
  hpcarbon catalog  show ID  [--catalog DIR]
  hpcarbon catalog  export   [--out DIR]

serve puts the same front door behind a std-only epoll event
loop (--shards readiness loops, cache hits answered in place;
uncached estimation on --workers threads): POST /v1/estimate
takes the estimate subcommand's exact request documents and
answers with byte-identical reports; a response cache keyed
on the request body skips parsing and simulation for repeated
queries without changing a byte. GET /healthz and GET /metrics
expose liveness and counters (incl. per-shard gauges); SIGTERM
drains in-flight requests and exits 0.

loadgen fires N concurrent requests (sampled from a scenario
grid under a fixed seed, or one --request file repeated) at a
running server and reports throughput and latency percentiles;
it exits nonzero on any non-2xx, refused connect, or transport
error, which makes it CI's smoke client.

estimate is the front door: it reads a schema-versioned JSON
EstimateRequest (one object or an array) from --request, evaluates
the batch in parallel, and emits one FootprintReport per request
(to stdout, or to --out). Output is byte-identical for every
--threads value; infeasible requests become {\"error\": ...} rows.

sweep streams the full scenario grid (system x storage x region x
trace source x PUE x policy x upgrade path; 504 scenarios by
default, 16 with --quick, 20 carbon-shifting scenarios with
--shifting; --seeds N multiplies any grid by N seeds) through the
same API in parallel and writes sweep.csv + sweep.json under --out
(default out/sweep) in bounded memory. Output is byte-identical
for every --threads value and every shard split: --shard i/N
evaluates the i-th of N deterministic grid slices as document
fragments plus a digest manifest (re-running a completed shard is
a verified no-op), and --merge DIR... validates a full partition
and reassembles the canonical single-machine documents.

schedule compares every policy (incl. the indexed temporal and
spatio-temporal shifting pair at --slack hours) via one API batch
on a fixed GB+CA topology (partner site forced for every row, so
rows differ only by policy) and reports per-policy carbon savings
vs the run-at-arrival baseline; --synthetic swaps in synthetic
region-years.

trace ingests real hourly carbon-intensity CSVs (ElectricityMaps/
EIA-style; format spec docs/TRACES.md): validate prints every
{file}:{line}: diagnostic at once, stats prints a deterministic
summary, import re-emits the canonical normalized form. sweep and
schedule accept --forecast oracle|persistence|day-ahead|noisy:<pct>
to plan shifting on a forecast instead of the actual trace (the
output then adds realized-vs-oracle savings columns), and sweep
accepts repeatable --trace-file FILE to evaluate the file source
dimension against ingested measured data (--gaps picks the gap
policy: reject, interpolate, or hold).

advisor answers the upgrade question through the API: --intensity
pins a flat grid (a FlatIntensity provider), --region evaluates
at a simulated region's median intensity instead.

catalog manages plain-text hardware catalogs (docs/CATALOG.md):
validate loads a directory strictly and prints every
line-numbered diagnostic; list and show browse the loaded
entities (show traces a system's bill of materials to its
entity files); export writes the built-in Table 1/2/3 data as
a canonical catalog tree whose reload is bit-identical to the
shipped tables. estimate, sweep, and serve accept --catalog DIR
to swap that catalog in as the embodied-carbon source.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every subcommand writes its output through this one handle.
    let mut stdout = io::stdout().lock();
    let code = match run(&mut stdout, &args).and_then(|()| Ok(stdout.flush()?)) {
        Ok(()) => 0,
        Err(Stop::Exit(code)) => code,
        // The reader stopped reading (`| head`, `| grep -q`) and has what
        // it asked for: end quietly, as a finished command would, so a
        // `pipefail` pipeline does not fail on it.
        Err(Stop::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(Stop::Stdout(e)) => {
            eprintln!("hpcarbon: cannot write to standard output: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// Why a subcommand ended other than by finishing.
enum Stop {
    /// End with this exit status; the reason, if any, is on stderr.
    Exit(i32),
    /// Writing standard output failed.
    Stdout(io::Error),
}

/// `?` on a stdout write. Errors of other I/O go through [`fail`].
impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Stop {
        Stop::Stdout(e)
    }
}

/// Prints `msg` as a stderr line and stops with exit status `code`.
fn fail(code: i32, msg: impl Display) -> Stop {
    eprintln!("{msg}");
    Stop::Exit(code)
}

/// Runs the subcommand `args` names, writing its output to `stdout`.
fn run(stdout: &mut impl Write, args: &[String]) -> Result<(), Stop> {
    let entries = entries();
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => return Ok(writeln!(stdout, "{USAGE}")?),
        Some(cmd) if !entries.iter().any(|e| e.key[0] == cmd) => {
            eprintln!("unknown subcommand: {cmd}\n");
            // Help for the error above, not the command's output: the
            // status stays 2 whether or not it can be written.
            let _ = writeln!(stdout, "{USAGE}");
            return Err(Stop::Exit(2));
        }
        Some(_) => {}
    }
    let Some(args) = Args::parse(&entries, args)? else {
        return Ok(writeln!(stdout, "{USAGE}")?);
    };
    match args.entry.key[..] {
        ["estimate"] => cmd_estimate(stdout, &args),
        ["serve"] => cmd_serve(stdout, &args),
        ["loadgen"] => cmd_loadgen(stdout, &args),
        ["figures"] => cmd_figures(stdout, &args),
        ["parts"] => cmd_parts(stdout),
        ["systems"] => cmd_systems(stdout),
        ["regions"] => cmd_regions(stdout, &args),
        ["advisor"] => cmd_advisor(stdout, &args),
        ["schedule"] => cmd_schedule(stdout, &args),
        ["sweep"] => cmd_sweep(stdout, &args),
        ["sweep", "--merge"] => cmd_sweep_merge(stdout, &args),
        ["trace", sub] => cmd_trace(stdout, sub, &args),
        ["catalog", sub] => cmd_catalog(stdout, sub, &args),
        ref key => unreachable!("nothing runs `hpcarbon {}`", key.join(" ")),
    }
}

/// One `hpcarbon …` line of the `USAGE` synopsis, with its continuation
/// lines: what that subcommand accepts.
///
/// - Its key is the command words (`sweep`, `trace stats`) plus a
///   switch outside brackets, which selects a mode (`sweep --merge`).
/// - A `--flag` followed by a placeholder (`N`, `<p100|v100|a100>`,
///   `quick|shifting|default`) takes one value; a flag closed by `]` or
///   followed by `|` is a switch. `[--flag V]...` may repeat. A value
///   flag outside every bracket is required (`--request FILE`).
/// - Flags in one `[a | b]` bracket are alternatives.
/// - A placeholder after no flag is a positional (`FILE`, `ID`); a list
///   (`DIR...`) takes any number of them. One outside brackets that is
///   not a list is required.
struct Entry {
    key: Vec<&'static str>,
    flags: Vec<Flag>,
    positionals: usize,
    /// The required positionals' placeholders, in order.
    required: Vec<&'static str>,
}

/// A flag that an [`Entry`] declares.
#[derive(Default)]
struct Flag {
    name: &'static str,
    takes_value: bool,
    repeats: bool,
    /// The `[…]` it is declared in, counted from 1 within its entry.
    bracket: Option<usize>,
}

/// Every entry of the `USAGE` synopsis.
fn entries() -> Vec<Entry> {
    let synopsis = USAGE.split("\n\n").nth(1).unwrap_or_default();
    synopsis
        .split("hpcarbon ")
        .skip(1)
        .map(Entry::parse)
        .collect()
}

impl Entry {
    fn parse(text: &'static str) -> Entry {
        let mut tokens = text.split_whitespace().peekable();
        let mut key = Vec::new();
        while let Some(word) = tokens.next_if(|t| t.bytes().all(|b| b.is_ascii_lowercase())) {
            key.push(word);
        }
        let (mut flags, mut positionals, mut required) = (Vec::<Flag>::new(), 0usize, Vec::new());
        let (mut brackets, mut bracket) = (0, None);
        // The flag whose value placeholder may come next.
        let mut last = None;
        for token in tokens {
            if token.starts_with('[') {
                brackets += 1;
                bracket = Some(brackets);
            }
            let (closes, list) = (token.contains(']'), token.ends_with("..."));
            let name = token.trim_matches(['[', ']', '.']);
            if name == "|" {
                last = None;
            } else if name.starts_with("--") {
                last = (!closes).then_some(flags.len());
                flags.push(Flag {
                    name,
                    bracket,
                    ..Flag::default()
                });
            } else if let Some(i) = last.take().filter(|_| closes || !list) {
                flags[i].takes_value = true;
                flags[i].repeats = list;
            } else {
                positionals = positionals.saturating_add(if list { usize::MAX } else { 1 });
                if !list && bracket.is_none() {
                    required.push(name);
                }
            }
            if closes {
                bracket = None;
            }
        }
        let modes = flags
            .iter()
            .filter(|f| f.bracket.is_none() && !f.takes_value);
        key.extend(modes.map(|f| f.name));
        Entry {
            key,
            flags,
            positionals,
            required,
        }
    }
}

/// The arguments of one invocation, checked against its usage entry.
struct Args<'a> {
    entry: &'a Entry,
    /// Each flag given, in order, with its value (`None` for a switch).
    given: Vec<(&'a Flag, Option<&'a str>)>,
    positionals: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Finds the entry that `args` invoke and checks the rest of `args`
    /// against it; `Ok(None)` when they ask for `--help`. Each failure is
    /// one stderr line and exit 2.
    fn parse(entries: &'a [Entry], args: &'a [String]) -> Result<Option<Args<'a>>, Stop> {
        let cmd = args[0].as_str();
        let invoked = |e: &&Entry| {
            e.key
                .iter()
                .enumerate()
                .all(|(i, w)| match w.starts_with('-') {
                    true => args.iter().any(|a| a == w),
                    false => args.get(i).is_some_and(|a| a == w),
                })
        };
        // A mode (`sweep --merge`) wins over its command's plain entry.
        let Some(entry) = entries.iter().filter(invoked).max_by_key(|e| e.key.len()) else {
            // Only a command with subcommands has no entry for its word.
            let family = entries.iter().filter(|e| e.key[0] == cmd);
            let subs: Vec<&str> = family.filter_map(|e| e.key.get(1).copied()).collect();
            let msg = match args.get(1).map(String::as_str) {
                Some("--help" | "-h") => return Ok(None),
                None => format!("{cmd} requires a subcommand"),
                Some(sub) if cmd == "trace" => format!("unknown trace subcommand: {sub}"),
                Some(sub) => format!("unknown {cmd} subcommand \"{sub}\""),
            };
            let valid = subs.join(", ");
            return Err(fail(2, format_args!("{msg} (valid values: {valid})")));
        };
        let invocation = entry.key.join(" ");
        let mut parsed = Args {
            entry,
            given: Vec::new(),
            positionals: Vec::new(),
        };
        // The arguments after the command words of its key.
        let words = entry.key.iter().take_while(|w| !w.starts_with('-'));
        let mut rest = args[words.count()..].iter();
        while let Some(arg) = rest.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            if !arg.starts_with("--") {
                if parsed.positionals.len() == entry.positionals {
                    let msg = format!("unexpected argument \"{arg}\" for `hpcarbon {invocation}`");
                    return Err(fail(2, msg));
                }
                parsed.positionals.push(arg);
                continue;
            }
            let Some(flag) = entry.flags.iter().find(|f| f.name == arg) else {
                let msg =
                    format!("unknown flag {arg} for `hpcarbon {invocation}` (see hpcarbon --help)");
                return Err(fail(2, msg));
            };
            for (other, _) in &parsed.given {
                if other.name == flag.name && !flag.repeats {
                    return Err(fail(2, format_args!("{arg} given more than once")));
                }
                if other.name != flag.name
                    && other.bracket.is_some()
                    && other.bracket == flag.bracket
                {
                    let msg = format!("{} and {arg} cannot be given together", other.name);
                    return Err(fail(2, msg));
                }
            }
            let value = match flag.takes_value {
                false => None,
                true => match rest.next() {
                    Some(v) if !v.starts_with("--") => Some(v.as_str()),
                    _ => return Err(fail(2, format_args!("{arg} requires a value"))),
                },
            };
            parsed.given.push((flag, value));
        }
        // A value flag outside brackets is required, then each required
        // positional.
        let given = |f: &Flag| parsed.given.iter().any(|(g, _)| g.name == f.name);
        let required = |f: &&Flag| f.bracket.is_none() && f.takes_value && !given(f);
        let missing = entry.flags.iter().find(required).map(|f| f.name);
        let missing = missing.or_else(|| entry.required.get(parsed.positionals.len()).copied());
        if let Some(what) = missing {
            let msg = format!("`hpcarbon {invocation}` requires {what} (see hpcarbon --help)");
            return Err(fail(2, msg));
        }
        Ok(Some(parsed))
    }

    /// The value of each occurrence of flag `name`, in order (`None` for
    /// a switch).
    fn occurrences(&self, name: &str) -> Vec<Option<&'a str>> {
        debug_assert!(
            self.entry.flags.iter().any(|f| f.name == name),
            "USAGE declares no {name} for `hpcarbon {}`",
            self.entry.key.join(" ")
        );
        self.given
            .iter()
            .filter(|(f, _)| f.name == name)
            .map(|&(_, v)| v)
            .collect()
    }

    fn switch(&self, name: &str) -> bool {
        !self.occurrences(name).is_empty()
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.occurrences(name).first().copied().flatten()
    }

    /// The value of a flag that the usage requires, which [`Args::parse`]
    /// has checked is given.
    fn required(&self, name: &str) -> &'a str {
        self.value(name)
            .expect("Args::parse rejects an invocation without a required flag")
    }

    /// Parses flag `name`'s value with `parse`, whose error names the
    /// flag and what it accepts; `Ok(None)` when the flag is absent. A
    /// bad value is exit 2, never a silent fallback to the default.
    fn parsed<T, E: Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&'a str) -> Result<T, E>,
    ) -> Result<Option<T>, Stop> {
        self.value(name)
            .map(parse)
            .transpose()
            .map_err(|e| fail(2, e))
    }

    /// Parses flag `name`'s value as a `T` that `accept` admits,
    /// printing `invalid {name} "{raw}" (expected {expected})` otherwise:
    /// falling back to the default silently would, say, sweep seed 2021
    /// when `--seed 2O21` was asked for, or a `--threads 1` reference run
    /// at full width.
    fn checked<T: FromStr>(
        &self,
        name: &str,
        expected: &str,
        accept: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, Stop> {
        self.parsed(name, |raw| match raw.parse() {
            Ok(v) if accept(&v) => Ok(v),
            _ => Err(format!("invalid {name} \"{raw}\" (expected {expected})")),
        })
    }

    /// [`Args::checked`] for an unsigned integer of any width: every
    /// value that parses is valid.
    fn unsigned<T: FromStr>(&self, name: &str) -> Result<Option<T>, Stop> {
        self.checked(name, "a non-negative integer", |_| true)
    }

    /// [`Args::checked`] for a positive integer.
    fn positive(&self, name: &str) -> Result<Option<usize>, Stop> {
        self.checked(name, "a positive integer", |&n| n >= 1)
    }

    /// `--gaps reject|interpolate|hold`, by default reject.
    fn gaps(&self) -> Result<GapPolicy, Stop> {
        let gaps = self.parsed("--gaps", |s| {
            let valid = GapPolicy::VALUES.join(", ");
            GapPolicy::parse(s)
                .ok_or_else(|| format!("unknown --gaps \"{s}\" (valid values: {valid})"))
        })?;
        Ok(gaps.unwrap_or(GapPolicy::Reject))
    }

    /// `--forecast oracle|persistence|day-ahead|noisy:<pct>`; `None`
    /// plans on the actual trace, the historical behaviour.
    fn forecast(&self) -> Result<Option<sustainable_hpc::api::ForecastModel>, Stop> {
        self.parsed("--forecast", |s| api_parse::forecast_model("forecast", s))
    }

    /// `--catalog DIR` as an embodied source; `None` when absent (the
    /// built-in tables apply). A failing load prints every line-numbered
    /// diagnostic, the same strict validation as `hpcarbon catalog
    /// validate`.
    fn catalog(&self) -> Result<Option<CatalogSource>, Stop> {
        let load =
            |dir| CatalogSource::load(dir).map_err(|e| load_failed(dir, "catalog", &e, e.0.len()));
        self.value("--catalog").map(load).transpose()
    }
}

/// Prints the diagnostics of a failed catalog or trace load and their
/// count, and stops with exit 1.
fn load_failed(path: &str, what: &str, errors: impl Display, n: usize) -> Stop {
    eprintln!("{errors}");
    fail(1, format_args!("{path}: {n} {what} error(s)"))
}

/// Loads one trace file: the shared ingestion path of `trace
/// validate|stats|import` and `--trace-file`.
fn load_trace(path: &str, gaps: GapPolicy) -> Result<ParsedTrace, Stop> {
    sustainable_hpc::grid::tracefile::load_trace_file(path, gaps)
        .map_err(|e| load_failed(path, "trace", &e, e.0.len()))
}

/// Writes `bytes` to the file `path`, creating its parent directory
/// (for a bare file name, the parent is `""`, which already exists).
fn write_file(path: &str, bytes: &str) -> Result<(), Stop> {
    if let Some(parent) = Path::new(path).parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| fail(1, format_args!("cannot create {}: {e}", parent.display())))?;
    }
    std::fs::write(path, bytes).map_err(|e| fail(1, format_args!("cannot write {path}: {e}")))
}

fn cmd_estimate(stdout: &mut impl Write, args: &Args) -> Result<(), Stop> {
    let path = args.required("--request");
    let src = std::fs::read_to_string(path)
        .map_err(|e| fail(1, format_args!("cannot read {path}: {e}")))?;
    let requests =
        EstimateRequest::batch_from_json(&src).map_err(|e| fail(2, format_args!("{path}: {e}")))?;
    let mut builder = Estimator::builder();
    if let Some(n) = args.positive("--threads")? {
        builder = builder.threads(n);
    }
    if let Some(source) = args.catalog()? {
        builder = builder.embodied(source);
    }
    let results = builder.build().estimate_batch(&requests);
    let json = batch_to_json(&results);
    let errors = results.iter().filter(|r| r.is_err()).count();
    match args.value("--out") {
        Some(out) => {
            write_file(out, &json)?;
            eprintln!(
                "estimated {} request(s) ({} ok, {errors} infeasible); wrote {out}",
                results.len(),
                results.len() - errors,
            );
        }
        None => write!(stdout, "{json}")?,
    }
    Ok(())
}

fn cmd_serve(stdout: &mut impl Write, args: &Args) -> Result<(), Stop> {
    let addr = args.value("--addr").unwrap_or("127.0.0.1:8080");
    let mut config = sustainable_hpc::server::ServerConfig::default();
    if let Some(n) = args.positive("--shards")? {
        config.shards = n;
    }
    if let Some(n) = args.positive("--workers")? {
        config.workers = n;
    }
    // 0 is meaningful here: it disables the cache.
    if let Some(n) = args.unsigned("--cache")? {
        config.cache_capacity = n;
    }
    if let Some(n) = args.positive("--max-body")? {
        config.max_body_bytes = n;
    }
    let mut estimator = Estimator::builder();
    if let Some(source) = args.catalog()? {
        estimator = estimator.embodied(source);
    }
    let server = Server::bind_with(addr, config.clone(), estimator.build())
        .map_err(|e| fail(1, format_args!("cannot bind {addr}: {e}")))?;
    let bound = server
        .local_addr()
        .map_err(|e| fail(1, format_args!("cannot resolve the bound address: {e}")))?;

    // SIGTERM/SIGINT → the shutdown handle, polled by a watcher thread
    // (the handler itself only sets an atomic flag).
    sustainable_hpc::server::signal::install_handlers();
    let watcher = server.shutdown_handle();
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
    let s = server
        .run()
        .map_err(|e| fail(1, format_args!("server failed: {e}")))?;
    writeln!(
        stdout,
        "graceful shutdown: drained; served {} http requests ({} estimate calls, {} cache hits / {} misses)",
        s.http_requests, s.estimate_calls, s.cache_hits, s.cache_misses
    )?;
    Ok(())
}

fn cmd_loadgen(stdout: &mut impl Write, args: &Args) -> Result<(), Stop> {
    let addr = args.value("--addr").unwrap_or("127.0.0.1:8080");
    let requests = args.positive("--requests")?.unwrap_or(64);
    let concurrency = args.positive("--concurrency")?.unwrap_or(8);
    let wait_s = args.positive("--wait")?.unwrap_or(10);
    // 0 is meaningful (fail fast on the first refused connect), so this
    // is not a positive integer.
    let connect_retries: u32 = args.unsigned("--connect-retries")?.unwrap_or(2);
    let seed: u64 = args.unsigned("--seed")?.unwrap_or(2021);

    // The workload: one file repeated (a single entry, cycled by the
    // workers), or requests sampled from a grid under the fixed seed
    // (reproducible request-for-request).
    let bodies: Vec<String> = match args.value("--request") {
        Some(path) => vec![std::fs::read_to_string(path)
            .map_err(|e| fail(1, format_args!("cannot read {path}: {e}")))?],
        None => {
            let grid = match args.value("--grid").unwrap_or("quick") {
                "quick" => ScenarioGrid::quick(),
                "shifting" => ScenarioGrid::shifting(),
                "default" => ScenarioGrid::paper_default(),
                other => {
                    let msg = format!(
                        "unknown --grid \"{other}\" (valid values: quick, shifting, default)"
                    );
                    return Err(fail(2, msg));
                }
            };
            let mut cfg = SweepConfig::fast();
            if let Some(n) = args.positive("--jobs")? {
                cfg.jobs_per_scenario = n;
            }
            grid.sample_requests(requests, &cfg, seed)
                .iter()
                .map(|r| r.to_json())
                .collect()
        }
    };

    let wait = std::time::Duration::from_secs(wait_s as u64);
    if !sustainable_hpc::server::wait_healthz(addr, wait) {
        let msg = format!("server at {addr} did not answer /healthz within {wait_s}s");
        return Err(fail(1, msg));
    }
    let (summary, first_body) = sustainable_hpc::server::loadgen::run(&LoadGenConfig {
        addr: addr.to_string(),
        concurrency,
        bodies,
        requests,
        connect_retries,
    })
    .map_err(|e| fail(1, format_args!("loadgen failed: {e}")))?;

    write!(stdout, "{}", summary.render())?;
    if let Some(path) = args.value("--save-response") {
        let body = first_body
            .ok_or_else(|| fail(1, format_args!("no response captured to save to {path}")))?;
        std::fs::write(path, body)
            .map_err(|e| fail(1, format_args!("cannot write {path}: {e}")))?;
        eprintln!("saved the first response body to {path}");
    }
    if let Some(path) = args.value("--out") {
        write_file(path, &summary.to_json())?;
        eprintln!("wrote the latency summary to {path}");
    }
    if summary.all_ok() {
        return Ok(());
    }
    let (non_2xx, connect, io) = (summary.non_2xx, summary.connect_errors, summary.io_errors);
    let msg = format!(
        "loadgen observed failures: {non_2xx} non-2xx, {connect} connect errors, {io} i/o errors"
    );
    Err(fail(1, msg))
}

fn cmd_figures(stdout: &mut impl Write, args: &Args) -> Result<(), Stop> {
    let seed: u64 = args.unsigned("--seed")?.unwrap_or(2021);
    let dir = Path::new(args.value("--out").unwrap_or("out/paper"));
    for a in sustainable_hpc::report::render_all(seed) {
        a.write_to(dir)
            .map_err(|e| fail(1, format_args!("cannot write {}: {e}", dir.display())))?;
        writeln!(stdout, "wrote {}/{}.{{txt,csv}}", dir.display(), a.id)?;
    }
    Ok(())
}

fn cmd_parts(stdout: &mut impl Write) -> Result<(), Stop> {
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
    Ok(())
}

fn cmd_systems(stdout: &mut impl Write) -> Result<(), Stop> {
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
    Ok(())
}

fn cmd_regions(stdout: &mut impl Write, args: &Args) -> Result<(), Stop> {
    let seed: u64 = args.unsigned("--seed")?.unwrap_or(2021);
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
    Ok(())
}

fn cmd_advisor(stdout: &mut impl Write, args: &Args) -> Result<(), Stop> {
    // The typed parsers are shared with the API's JSON request decoder:
    // a typo'd value gets an error naming the flag and listing the
    // accepted vocabulary instead of a silent fallback.
    let node_gen = |name| api_parse::node_gen(name, args.required(name)).map_err(|e| fail(2, e));
    let (from, to) = (node_gen("--from")?, node_gen("--to")?);
    let suite = args.parsed("--suite", |v| api_parse::suite("--suite", v))?;
    let suite = suite.unwrap_or(Suite::Nlp);
    let in_unit = |&u: &f64| Fraction::new(u).is_some();
    let usage = args
        .checked("--usage", "a fraction in [0, 1]", in_unit)?
        .and_then(Fraction::new)
        .unwrap_or(UsageLevel::Medium.fraction());
    let physical = |&g: &f64| g.is_finite() && g >= 0.0;
    let intensity = args.checked("--intensity", "a finite number ≥ 0", physical)?;
    let intensity = intensity.unwrap_or(200.0);
    let region = args.parsed("--region", |r| api_parse::region("--region", r))?;

    // Build the request once; --region routes it at a simulated region's
    // grid, --intensity (the default, 200 g/kWh) pins a flat grid via a
    // swapped-in IntensityProvider.
    let mut req = EstimateRequest::paper_baseline(SystemId::Frontier, OperatorId::Eso);
    req.upgrade = UpgradePath { from, to, suite };
    req.usage = usage;
    req.jobs = 8; // the advisor reads the upgrade section, not the sched run
    let (estimator, grid_label) = match region {
        Some(op) => {
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
    let report = estimator
        .estimate(&req)
        .map_err(|e| fail(1, format_args!("estimate failed: {e}")))?;

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
    Ok(())
}

fn cmd_sweep(stdout: &mut impl Write, args: &Args) -> Result<(), Stop> {
    let mut grid = if args.switch("--quick") {
        ScenarioGrid::quick()
    } else if args.switch("--shifting") {
        ScenarioGrid::shifting()
    } else {
        ScenarioGrid::paper_default()
    };
    let seed = args.unsigned::<u64>("--seed")?;
    if let Some(n) = args.positive("--seeds")? {
        // N consecutive seeds starting at --seed (default 0): the knob
        // that scales any grid to 10^5+ rows for sharded runs.
        let base = seed.unwrap_or(0);
        let seeds: Option<Vec<u64>> = (0..n as u64).map(|i| base.checked_add(i)).collect();
        let Some(seeds) = seeds else {
            let msg =
                format!("invalid --seeds \"{n}\" (--seed {base} plus {n} seeds passes u64::MAX)");
            return Err(fail(2, msg));
        };
        grid = grid.seeds(seeds);
    } else if let Some(s) = seed {
        grid = grid.seeds([s]);
    }
    let mut config = SweepConfig::paper_default();
    if let Some(n) = args.positive("--jobs")? {
        config.jobs_per_scenario = n;
    }
    config.forecast = args.forecast()?;
    // Ingested trace files swap the grid onto the `file` source
    // dimension: each file backs its own zone's region; rows for
    // regions without a file fail soft as error rows.
    let gaps = args.gaps()?;
    let mut trace_files = Vec::new();
    for path in args.occurrences("--trace-file").into_iter().flatten() {
        let parsed = load_trace(path, gaps)?;
        trace_files.push((parsed.operator, std::sync::Arc::new(parsed.trace)));
    }
    if !trace_files.is_empty() {
        grid = grid.sources([TraceSource::File]);
    }
    let shard = args.parsed("--shard", |s| {
        ShardSpec::parse(s).map_err(|e| format!("invalid --shard: {e}"))
    })?;
    let threads = args.positive("--threads")?;
    let top: usize = args.unsigned("--top")?.unwrap_or(5);
    let dir = Path::new(args.value("--out").unwrap_or("out/sweep"));
    let catalog = args.catalog()?;

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
                return Ok(());
            }
        }
    }

    let cannot_write = |e: io::Error| fail(1, format_args!("cannot write {}: {e}", dir.display()));
    std::fs::create_dir_all(dir)
        .map_err(|e| fail(1, format_args!("cannot create {}: {e}", dir.display())))?;
    let csv_file = std::fs::File::create(dir.join(CSV_FILE)).map_err(cannot_write)?;
    let json_file = std::fs::File::create(dir.join(JSON_FILE)).map_err(cannot_write)?;
    let (csv_file, json_file) = (io::BufWriter::new(csv_file), io::BufWriter::new(json_file));
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
    let report = sweep
        .run()
        .map_err(|e| fail(1, format_args!("sweep failed: {e}")))?;

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
        manifest.write(dir).map_err(cannot_write)?;
        writeln!(
            stdout,
            "\nwrote {}/{{{CSV_FILE},{JSON_FILE},manifest.json}} (fragment)",
            dir.display()
        )?;
    } else {
        writeln!(stdout, "\nwrote {}/sweep.{{csv,json}}", dir.display())?;
    }
    Ok(())
}

/// `hpcarbon sweep --merge DIR...`: validate a complete shard partition
/// and reassemble the canonical single-machine documents.
fn cmd_sweep_merge(stdout: &mut impl Write, args: &Args) -> Result<(), Stop> {
    let dirs: Vec<PathBuf> = args.positionals.iter().map(PathBuf::from).collect();
    if dirs.is_empty() {
        return Err(fail(2, "--merge requires one directory per shard"));
    }
    let out_dir = Path::new(args.value("--out").unwrap_or("out/sweep"));
    let (rows, digests) = merge_sweep_outputs(&dirs, out_dir)
        .map_err(|e| fail(1, format_args!("merge failed: {e}")))?;
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
    Ok(())
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
fn cmd_trace(stdout: &mut impl Write, sub: &str, args: &Args) -> Result<(), Stop> {
    let path = args.positionals[0];
    let parsed = load_trace(path, args.gaps()?)?;
    let zone = sustainable_hpc::grid::tracefile::zone_label(parsed.operator);
    match sub {
        "validate" => writeln!(
            stdout,
            "{path}: ok — zone {zone}, year {}, {} hours ({} filled)",
            parsed.year,
            parsed.trace.series().len(),
            parsed.filled_hours
        )?,
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
        }
        _ => {
            let out = args.required("--out");
            let canonical = sustainable_hpc::grid::tracefile::write_trace_csv(&parsed.trace);
            write_file(out, &canonical)?;
            writeln!(
                stdout,
                "wrote {out} — zone {zone}, year {}, {} hours (canonical form)",
                parsed.year,
                parsed.trace.series().len()
            )?;
        }
    }
    Ok(())
}

fn cmd_schedule(stdout: &mut impl Write, args: &Args) -> Result<(), Stop> {
    let jobs_n = args.positive("--jobs")?.unwrap_or(300);
    let seed: u64 = args.unsigned("--seed")?.unwrap_or(7);
    let slack: u32 = args.unsigned("--slack")?.unwrap_or(24);
    let source = if args.switch("--synthetic") {
        TraceSource::Synthetic
    } else {
        TraceSource::Paper
    };
    let forecast = args.forecast()?;
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
        let report = result.map_err(|e| fail(1, format_args!("{}: {e}", policy.label())))?;
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
    Ok(())
}

/// `hpcarbon catalog validate|list|show|export` — manage plain-text
/// hardware catalogs (format spec: docs/CATALOG.md).
fn cmd_catalog(stdout: &mut impl Write, sub: &str, args: &Args) -> Result<(), Stop> {
    use sustainable_hpc::catalog::{export_builtin, node_slug, part_slug, region_slug};

    // export writes the built-in tables; it does not read a catalog.
    if sub == "export" {
        let out = args.value("--out").unwrap_or("catalog");
        export_builtin(out).map_err(|e| fail(1, format_args!("cannot write {out}: {e}")))?;
        writeln!(
            stdout,
            "exported the built-in tables to {out}/ (13 parts, 5 process nodes, 3 systems, 7 regions)"
        )?;
        return Ok(());
    }

    let dir = args.value("--catalog").unwrap_or("catalog");
    let catalog = Catalog::load(dir).map_err(|e| load_failed(dir, "catalog", &e, e.0.len()))?;
    match sub {
        "validate" => writeln!(
            stdout,
            "{dir}: OK ({} parts, {} process nodes, {} systems, {} regions)",
            catalog.parts().len(),
            catalog.nodes().len(),
            catalog.systems().len(),
            catalog.regions().len()
        )?,
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
        }
        _ => {
            let id = args.positionals[0];
            if let Some(p) = catalog.parts().iter().find(|p| part_slug(p.spec.id) == id) {
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
            } else if let Some(n) = catalog.nodes().iter().find(|n| node_slug(n.node) == id) {
                writeln!(stdout, "process-node {id} ({})", n.source)?;
                writeln!(stdout, "  label : {}", n.label)?;
                writeln!(
                    stdout,
                    "  fab densities : fpa {} / gpa {} / mpa {} gCO2 per cm2",
                    n.densities.fpa.as_g_per_cm2(),
                    n.densities.gpa.as_g_per_cm2(),
                    n.densities.mpa.as_g_per_cm2()
                )?;
            } else if let Some(s) = catalog.systems().iter().find(|s| s.id == id) {
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
            } else if let Some(r) = catalog.regions().iter().find(|r| region_slug(r.id) == id) {
                writeln!(stdout, "region {id} ({})", r.source)?;
                writeln!(stdout, "  short   : {}", r.short)?;
                writeln!(stdout, "  name    : {}", r.name)?;
                writeln!(stdout, "  country : {} ({})", r.country, r.region)?;
            } else {
                let msg =
                    format!("{dir}: no entity with id \"{id}\" (try `hpcarbon catalog list`)");
                return Err(fail(1, msg));
            }
        }
    }
    Ok(())
}
