//! Pluggable row sinks: where streamed sweep rows go.
//!
//! The streaming executor ([`crate::Sweep`]) forwards every evaluated
//! [`SweepRow`] **in grid order** to the sinks attached to the run. A
//! sink sees three calls — [`RowSink::begin`] once, [`RowSink::row`]
//! per row, [`RowSink::finish`] once — and must never buffer rows:
//! bounded sweep memory at 10^6 scenarios depends on sinks being O(1)
//! in row count ([`CollectSink`] is the deliberate exception, for small
//! in-process analyses).
//!
//! ## The frozen byte contract
//!
//! [`CsvSink`] and [`JsonSink`] are THE sweep emitters, and golden
//! tests pin their output to the pre-streaming bytes for the default,
//! quick, and shifting grids. Anything here that changes a byte is a
//! breaking change to downstream diff-based CI.
//!
//! ## Full vs fragment mode
//!
//! Both emitters run in **full** mode (header / array brackets
//! included — the single-machine document) or **fragment** mode (rows
//! only — one shard's slice of the document). Fragments are designed so
//! the canonical document is the plain concatenation
//! `prologue ++ fragment_0 ++ … ++ fragment_{N-1} ++ epilogue`
//! (see [`crate::shard`]): CSV fragments omit the header; JSON
//! fragments omit the brackets and lead with the `,\n` separator when
//! the fragment continues a previous one.
//!
//! Every byte-emitting sink tracks an FNV-1a 64 [`SinkDigest`] of what
//! it wrote, which shard manifests embed and `--merge` re-validates.
//!
//! ## One buffer per sink
//!
//! Each emitter owns one `String` line buffer, cleared for every row.
//! The row is written into it cell by cell in column order and leaves in
//! one `write_all` (the JSON separator included). Text cells go through
//! the shared escapers, [`hpcarbon_report::emit::escape_into`] and
//! [`hpcarbon_api::json::esc_into`]; metrics go through
//! [`hpcarbon_api::json::write_metric`], the exact integer `{:.4}` writer
//! whose tests hold it to std's `format!`. Only the `pue` and `upgrade`
//! labels and an error row's message are formatted into strings of
//! their own.

use crate::scenario::{Scenario, ScenarioOutcome};
use crate::table::{SweepRow, COLUMNS, FORECAST_COLUMNS};
use hpcarbon_api::json::{esc_into, write_metric};
use hpcarbon_report::emit::escape_into;
use hpcarbon_sim::rng::{fnv1a64, fnv1a64_update};
use std::fmt::Write as _;
use std::io::{self, Write};

/// What a byte-emitting sink wrote: length and FNV-1a 64 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkDigest {
    /// Bytes written.
    pub bytes: u64,
    /// FNV-1a 64 of those bytes.
    pub fnv64: u64,
}

/// A destination for sweep rows, driven in grid order.
///
/// Contract (specified in DESIGN.md §11):
/// - `begin` is called exactly once, before any row;
/// - `row` is called once per evaluated scenario, in **strictly
///   ascending grid order** regardless of worker count or shard;
/// - `finish` is called exactly once after the last row (also when the
///   sweep had zero rows), and must flush;
/// - a sink must not retain rows (O(1) memory in row count) unless
///   collecting is its documented purpose;
/// - any error aborts the sweep — no further block of rows is evaluated
///   and the error surfaces from [`crate::Sweep::run`].
pub trait RowSink {
    /// Starts the stream (headers, array brackets, …).
    fn begin(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Consumes the next row in grid order.
    fn row(&mut self, row: &SweepRow) -> io::Result<()>;

    /// Ends the stream and flushes.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Length + digest of the bytes this sink wrote, when it writes
    /// bytes at all.
    fn digest(&self) -> Option<SinkDigest> {
        None
    }
}

/// A writer wrapper that byte-counts and FNV-digests everything written
/// through it.
#[derive(Debug)]
struct DigestWriter<W: Write> {
    inner: W,
    bytes: u64,
    fnv: u64,
}

impl<W: Write> DigestWriter<W> {
    fn new(inner: W) -> DigestWriter<W> {
        DigestWriter {
            inner,
            bytes: 0,
            fnv: fnv1a64(&[]),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)?;
        self.bytes += buf.len() as u64;
        self.fnv = fnv1a64_update(self.fnv, buf);
        Ok(())
    }

    fn digest(&self) -> SinkDigest {
        SinkDigest {
            bytes: self.bytes,
            fnv64: self.fnv,
        }
    }
}

/// The metric cells of a successful row, in column order (`embodied_t`
/// through `asymptotic_pct`); `None` is an undefined metric.
fn metrics(o: &ScenarioOutcome) -> [Option<f64>; 13] {
    [
        Some(o.embodied_t),
        o.storage_delta_pct,
        Some(o.median_g_per_kwh),
        Some(o.cov_percent),
        Some(o.sched_carbon_kg),
        Some(o.sched_energy_kwh),
        Some(o.mean_wait_hours),
        Some(o.max_wait_hours),
        Some(o.shift_saved_kg),
        Some(o.shift_saved_pct),
        Some(o.node_annual_kg),
        o.break_even_years,
        Some(o.asymptotic_savings_pct),
    ]
}

/// The forecast extension cells, in column order.
fn forecast_metrics(o: Option<&ScenarioOutcome>) -> [Option<f64>; 2] {
    [
        o.and_then(|o| o.oracle_saved_kg),
        o.and_then(|o| o.oracle_saved_pct),
    ]
}

/// The text dimensions of a row, columns `system` through `upgrade`.
/// `pue` and `upgrade` are the row's two formatted labels.
fn text_dimensions<'a>(s: &'a Scenario, pue: &'a str, upgrade: &'a str) -> [&'a str; 7] {
    [
        s.system.label(),
        s.storage.label(),
        s.region.info().short,
        s.source.label(),
        pue,
        s.policy.label(),
        upgrade,
    ]
}

/// The CSV header line (with trailing newline).
pub(crate) fn csv_header() -> String {
    csv_header_with(false)
}

/// The CSV header line, optionally extended with the forecast columns.
pub(crate) fn csv_header_with(forecast: bool) -> String {
    let mut line = COLUMNS.join(",");
    if forecast {
        line.push(',');
        line.push_str(&FORECAST_COLUMNS.join(","));
    }
    line.push('\n');
    line
}

/// Appends one row as an RFC-4180 CSV line (with trailing newline) to
/// `line`. Error rows carry the error message and empty metric cells.
/// `forecast` appends the extension columns (empty on error rows and
/// forecast-free outcomes, like the other optional metrics).
///
/// Text cells go through [`escape_into`]; numbers never hold `,`, `"`
/// or a newline, so they are written straight in.
fn write_csv_line(line: &mut String, r: &SweepRow, forecast: bool) {
    let s = &r.scenario;
    let (pue, upgrade) = (s.pue.label(), s.upgrade.label());
    // Writing into a `String` cannot fail.
    let _ = write!(line, "{}", s.id);
    for cell in text_dimensions(s, &pue, &upgrade) {
        line.push(',');
        escape_into(line, cell);
    }
    let _ = write!(line, ",{}", s.seed);
    match &r.outcome {
        Ok(o) => {
            line.push_str(",ok,");
            for v in metrics(o) {
                line.push(',');
                if v.is_some() {
                    write_metric(line, v);
                }
            }
            line.push(',');
            escape_into(line, o.verdict);
        }
        Err(e) => {
            line.push_str(",error,");
            escape_into(line, &e.to_string());
            // The metric cells and `verdict`, all empty.
            for _ in &COLUMNS[11..] {
                line.push(',');
            }
        }
    }
    if forecast {
        for v in forecast_metrics(r.outcome.as_ref().ok()) {
            line.push(',');
            if v.is_some() {
                write_metric(line, v);
            }
        }
    }
    line.push('\n');
}

/// Appends one row to `obj` as the two-space-indented JSON object
/// (`  {…}`, no separator or newline) of the sweep's array document: a
/// **uniform schema** where every row carries every CSV column. `id` and
/// `seed` are numbers; the other dimensions are strings; `error` and
/// `verdict` are strings or `null`; metrics are numbers or `null` (always
/// `null` on error rows, mirroring the CSV's empty cells).
fn write_json_object(obj: &mut String, r: &SweepRow, forecast: bool) {
    let key = |obj: &mut String, key: &str| {
        obj.push_str(", \"");
        obj.push_str(key);
        obj.push_str("\": ");
    };
    let s = &r.scenario;
    let (pue, upgrade) = (s.pue.label(), s.upgrade.label());
    // Writing into a `String` cannot fail.
    let _ = write!(obj, "  {{\"id\": {}", s.id);
    for (name, cell) in COLUMNS[1..8].iter().zip(text_dimensions(s, &pue, &upgrade)) {
        key(obj, name);
        esc_into(obj, cell);
    }
    let _ = write!(obj, ", \"seed\": {}", s.seed);
    let o = r.outcome.as_ref().ok();
    key(obj, "status");
    esc_into(obj, if o.is_some() { "ok" } else { "error" });
    key(obj, "error");
    match &r.outcome {
        Ok(_) => obj.push_str("null"),
        Err(e) => esc_into(obj, &e.to_string()),
    }
    let values = o.map_or([None; 13], metrics);
    for (name, v) in COLUMNS[11..24].iter().zip(values) {
        key(obj, name);
        write_metric(obj, v);
    }
    key(obj, "verdict");
    match o {
        Some(o) => esc_into(obj, o.verdict),
        None => obj.push_str("null"),
    }
    if forecast {
        for (name, v) in FORECAST_COLUMNS.iter().zip(forecast_metrics(o)) {
            key(obj, name);
            write_metric(obj, v);
        }
    }
    obj.push('}');
}

/// Streams rows as RFC-4180 CSV.
///
/// Full mode writes the header in `begin`; fragment mode writes rows
/// only (the merge step supplies the header once).
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    out: DigestWriter<W>,
    header: bool,
    forecast: bool,
    /// The row being written, reused from row to row.
    line: String,
}

impl<W: Write> CsvSink<W> {
    /// A full-document CSV sink (header + rows).
    pub fn new(w: W) -> CsvSink<W> {
        CsvSink {
            out: DigestWriter::new(w),
            header: true,
            forecast: false,
            line: String::new(),
        }
    }

    /// A fragment sink: rows only, no header.
    pub fn fragment(w: W) -> CsvSink<W> {
        CsvSink {
            out: DigestWriter::new(w),
            header: false,
            forecast: false,
            line: String::new(),
        }
    }

    /// Opts into the forecast extension columns (`oracle_saved_kg`,
    /// `oracle_saved_pct`), appended after `verdict`. Without this the
    /// emission is byte-identical to the frozen 25-column contract,
    /// whether or not the sweep ran under a forecast model.
    pub fn forecast_columns(mut self) -> CsvSink<W> {
        self.forecast = true;
        self
    }

    /// Consumes the sink, returning the inner writer.
    pub fn into_inner(self) -> W {
        self.out.inner
    }
}

impl<W: Write> RowSink for CsvSink<W> {
    fn begin(&mut self) -> io::Result<()> {
        if self.header {
            self.out
                .write_all(csv_header_with(self.forecast).as_bytes())?;
        }
        Ok(())
    }

    fn row(&mut self, row: &SweepRow) -> io::Result<()> {
        self.line.clear();
        write_csv_line(&mut self.line, row, self.forecast);
        self.out.write_all(self.line.as_bytes())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.inner.flush()
    }

    fn digest(&self) -> Option<SinkDigest> {
        Some(self.out.digest())
    }
}

/// Streams rows as the sweep's JSON array document.
///
/// Full mode brackets the array; fragment mode emits the row objects
/// (and their separating `,\n`) only, leading with a separator when the
/// fragment continues an earlier one — so concatenating `[\n`, the
/// fragments in shard order, and the closing `\n]\n` reproduces the
/// full document byte-for-byte.
#[derive(Debug)]
pub struct JsonSink<W: Write> {
    out: DigestWriter<W>,
    brackets: bool,
    /// Whether the next row needs a leading `,\n` separator.
    separate: bool,
    rows: u64,
    forecast: bool,
    /// The separator and row object being written, reused from row to
    /// row.
    line: String,
}

impl<W: Write> JsonSink<W> {
    /// A full-document JSON sink (`[` … `]`).
    pub fn new(w: W) -> JsonSink<W> {
        JsonSink {
            out: DigestWriter::new(w),
            brackets: true,
            separate: false,
            rows: 0,
            forecast: false,
            line: String::new(),
        }
    }

    /// A fragment sink: row objects only. `continues` declares that the
    /// fragment follows earlier rows (every shard but the first), so
    /// its first row leads with the `,\n` separator.
    pub fn fragment(w: W, continues: bool) -> JsonSink<W> {
        JsonSink {
            out: DigestWriter::new(w),
            brackets: false,
            separate: continues,
            rows: 0,
            forecast: false,
            line: String::new(),
        }
    }

    /// Opts into the forecast extension keys (`oracle_saved_kg`,
    /// `oracle_saved_pct`) on every row object. Without this the
    /// emission is byte-identical to the frozen schema.
    pub fn forecast_columns(mut self) -> JsonSink<W> {
        self.forecast = true;
        self
    }

    /// Consumes the sink, returning the inner writer.
    pub fn into_inner(self) -> W {
        self.out.inner
    }
}

impl<W: Write> RowSink for JsonSink<W> {
    fn begin(&mut self) -> io::Result<()> {
        if self.brackets {
            self.out.write_all(b"[\n")?;
        }
        Ok(())
    }

    fn row(&mut self, row: &SweepRow) -> io::Result<()> {
        self.line.clear();
        if self.separate {
            self.line.push_str(",\n");
        }
        self.separate = true;
        self.rows += 1;
        write_json_object(&mut self.line, row, self.forecast);
        self.out.write_all(self.line.as_bytes())
    }

    fn finish(&mut self) -> io::Result<()> {
        if self.brackets {
            if self.rows > 0 {
                self.out.write_all(b"\n]\n")?;
            } else {
                self.out.write_all(b"]\n")?;
            }
        }
        self.out.inner.flush()
    }

    fn digest(&self) -> Option<SinkDigest> {
        Some(self.out.digest())
    }
}

/// Collects rows into memory — O(rows), **not** for million-scenario
/// sweeps. Exists for small in-process analyses.
#[derive(Debug, Default)]
pub struct CollectSink {
    rows: Vec<SweepRow>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// The collected rows, grid order.
    pub fn rows(&self) -> &[SweepRow] {
        &self.rows
    }
}

impl RowSink for CollectSink {
    fn row(&mut self, row: &SweepRow) -> io::Result<()> {
        self.rows.push(row.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PueSpec, StorageVariant, SystemId, TraceSource, UpgradePath};
    use hpcarbon_grid::regions::OperatorId;
    use hpcarbon_sched::Policy;
    use hpcarbon_workloads::benchmarks::Suite;
    use hpcarbon_workloads::nodes::NodeGen;

    fn row(id: usize) -> SweepRow {
        let sc = Scenario {
            id,
            system: SystemId::Frontier,
            storage: StorageVariant::Baseline,
            region: OperatorId::Eso,
            source: TraceSource::Paper,
            pue: PueSpec::Constant(1.2),
            policy: Policy::Fifo,
            upgrade: UpgradePath {
                from: NodeGen::V100Node,
                to: NodeGen::A100Node,
                suite: Suite::Nlp,
            },
            seed: 2021,
        };
        SweepRow {
            scenario: sc,
            outcome: Err(crate::ScenarioError::InvalidPue(PueSpec::Constant(0.5))),
        }
    }

    fn drive(sink: &mut dyn RowSink, rows: &[SweepRow]) {
        sink.begin().unwrap();
        for r in rows {
            sink.row(r).unwrap();
        }
        sink.finish().unwrap();
    }

    #[test]
    fn digest_matches_bytes_written() {
        let mut buf = Vec::new();
        let mut sink = CsvSink::new(&mut buf);
        drive(&mut sink, &[row(0), row(1)]);
        let d = sink.digest().unwrap();
        assert_eq!(d.bytes, buf.len() as u64);
        assert_eq!(d.fnv64, fnv1a64(&buf));
    }

    #[test]
    fn csv_fragments_concatenate_to_the_full_document() {
        let rows = [row(0), row(1), row(2)];
        let mut full = Vec::new();
        drive(&mut CsvSink::new(&mut full), &rows);
        let mut merged = csv_header().into_bytes();
        for chunk in [&rows[..1], &rows[1..]] {
            let mut frag = Vec::new();
            drive(&mut CsvSink::fragment(&mut frag), chunk);
            merged.extend_from_slice(&frag);
        }
        assert_eq!(full, merged);
    }

    #[test]
    fn json_fragments_concatenate_to_the_full_document() {
        let rows = [row(0), row(1), row(2)];
        let mut full = Vec::new();
        drive(&mut JsonSink::new(&mut full), &rows);
        let mut merged = b"[\n".to_vec();
        for (i, chunk) in [&rows[..2], &rows[2..]].into_iter().enumerate() {
            let mut frag = Vec::new();
            drive(&mut JsonSink::fragment(&mut frag, i > 0), chunk);
            merged.extend_from_slice(&frag);
        }
        merged.extend_from_slice(b"\n]\n");
        assert_eq!(full, merged);
    }

    #[test]
    fn empty_json_document_is_the_bare_brackets() {
        let mut buf = Vec::new();
        drive(&mut JsonSink::new(&mut buf), &[]);
        assert_eq!(buf, b"[\n]\n");
    }

    fn ok_row(id: usize, oracle: Option<(f64, f64)>) -> SweepRow {
        let mut r = row(id);
        r.outcome = Ok(crate::scenario::ScenarioOutcome {
            embodied_t: 1234.5,
            storage_delta_pct: None,
            median_g_per_kwh: 200.0,
            cov_percent: 30.0,
            sched_carbon_kg: 50.0,
            sched_energy_kwh: 400.0,
            mean_wait_hours: 1.0,
            max_wait_hours: 4.0,
            shift_saved_kg: 2.5,
            shift_saved_pct: 5.0,
            oracle_saved_kg: oracle.map(|(kg, _)| kg),
            oracle_saved_pct: oracle.map(|(_, pct)| pct),
            node_annual_kg: 900.0,
            break_even_years: Some(3.0),
            asymptotic_savings_pct: 40.0,
            verdict: "upgrade",
        });
        r
    }

    #[test]
    fn forecast_columns_are_strictly_additive() {
        // Default sinks ignore the oracle fields entirely: a
        // forecast-run row emits the frozen bytes.
        let rows = [ok_row(0, Some((4.0, 8.0))), row(1)];
        let plain_rows = [ok_row(0, None), row(1)];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        drive(&mut CsvSink::new(&mut a), &rows);
        drive(&mut CsvSink::new(&mut b), &plain_rows);
        assert_eq!(a, b);
        assert!(!String::from_utf8(a).unwrap().contains("oracle"));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        drive(&mut JsonSink::new(&mut a), &rows);
        drive(&mut JsonSink::new(&mut b), &plain_rows);
        assert_eq!(a, b);

        // Opted-in sinks append the two columns after `verdict` — on
        // every row, empty/null when the value is undefined.
        let mut csv = Vec::new();
        drive(&mut CsvSink::new(&mut csv).forecast_columns(), &rows);
        let csv = String::from_utf8(csv).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].ends_with("verdict,oracle_saved_kg,oracle_saved_pct"));
        assert!(lines[1].ends_with("upgrade,4.0000,8.0000"));
        assert!(lines[2].ends_with(",,")); // error row: empty cells
        for line in &lines {
            assert_eq!(line.split(',').count(), COLUMNS.len() + 2, "{line}");
        }
        let mut json = Vec::new();
        drive(&mut JsonSink::new(&mut json).forecast_columns(), &rows);
        let json = String::from_utf8(json).unwrap();
        assert!(json.contains("\"oracle_saved_kg\": 4.0000, \"oracle_saved_pct\": 8.0000"));
        assert!(json.contains("\"oracle_saved_kg\": null, \"oracle_saved_pct\": null"));
    }

    #[test]
    fn collect_sink_keeps_grid_order() {
        let mut sink = CollectSink::new();
        drive(&mut sink, &[row(0), row(1)]);
        assert_eq!(sink.rows().len(), 2);
        assert_eq!(sink.rows()[1].scenario.id, 1);
    }
}
