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

use crate::scenario::Scenario;
use crate::table::{SweepRow, COLUMNS, FORECAST_COLUMNS};
use hpcarbon_sim::rng::{fnv1a64, fnv1a64_update};
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
/// - any error aborts the sweep — workers are torn down and the error
///   surfaces from [`crate::Sweep::run`].
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

/// Stable decimal formatting: enough digits to distinguish real metric
/// differences, no dependence on shortest-roundtrip printing.
fn num(v: f64) -> String {
    format!("{v:.4}")
}

fn opt(v: Option<f64>) -> String {
    v.map(num).unwrap_or_default()
}

/// JSON string escaping: the API's emitter, shared so the sweep's JSON
/// and `hpcarbon estimate` output can never desynchronize.
fn json_string(s: &str) -> String {
    hpcarbon_api::json::esc(s)
}

/// JSON number with the same fixed `{:.4}` formatting as the CSV;
/// `null` when undefined. Also the API's emitter.
fn json_num(v: Option<f64>) -> String {
    hpcarbon_api::json::fmt_metric(v)
}

/// The scenario dimensions of one row as display strings, CSV order.
fn dimension_cells(s: &Scenario) -> [String; 9] {
    [
        s.id.to_string(),
        s.system.label().to_string(),
        s.storage.label().to_string(),
        s.region.info().short.to_string(),
        s.source.label().to_string(),
        s.pue.label(),
        s.policy.label().to_string(),
        s.upgrade.label(),
        s.seed.to_string(),
    ]
}

/// RFC-4180 cell escaping (matches `hpcarbon_report::emit::Csv`).
fn csv_escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
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

/// One row as an RFC-4180 CSV line (with trailing newline). Error rows
/// carry the error message and empty metric cells. `forecast` appends
/// the extension columns (empty on error rows and forecast-free
/// outcomes, like the other optional metrics).
pub(crate) fn csv_line_with(r: &SweepRow, forecast: bool) -> String {
    let dims = dimension_cells(&r.scenario);
    let (status, error, metrics) = match &r.outcome {
        Ok(o) => (
            "ok".to_string(),
            String::new(),
            [
                num(o.embodied_t),
                opt(o.storage_delta_pct),
                num(o.median_g_per_kwh),
                num(o.cov_percent),
                num(o.sched_carbon_kg),
                num(o.sched_energy_kwh),
                num(o.mean_wait_hours),
                num(o.max_wait_hours),
                num(o.shift_saved_kg),
                num(o.shift_saved_pct),
                num(o.node_annual_kg),
                opt(o.break_even_years),
                num(o.asymptotic_savings_pct),
                o.verdict.to_string(),
            ],
        ),
        Err(e) => (
            "error".to_string(),
            e.to_string(),
            std::array::from_fn(|_| String::new()),
        ),
    };
    let extra = forecast.then(|| {
        let o = r.outcome.as_ref().ok();
        [
            opt(o.and_then(|o| o.oracle_saved_kg)),
            opt(o.and_then(|o| o.oracle_saved_pct)),
        ]
    });
    let cells: Vec<String> = dims
        .into_iter()
        .chain([status, error])
        .chain(metrics)
        .chain(extra.into_iter().flatten())
        .map(|c| csv_escape(&c))
        .collect();
    debug_assert_eq!(
        cells.len(),
        COLUMNS.len() + if forecast { FORECAST_COLUMNS.len() } else { 0 }
    );
    let mut line = cells.join(",");
    line.push('\n');
    line
}

/// One row as the two-space-indented JSON object (`  {…}`, no separator
/// or newline) of the sweep's array document: a **uniform schema**
/// where every row carries every CSV column. `id` and `seed` are
/// numbers; the other dimensions are strings; `error` and `verdict` are
/// strings or `null`; metrics are numbers or `null` (always `null` on
/// error rows, mirroring the CSV's empty cells).
pub(crate) fn json_object_with(r: &SweepRow, forecast: bool) -> String {
    let dims = dimension_cells(&r.scenario);
    let mut obj = String::from("  {");
    let push = |obj: &mut String, key: &str, value: String| {
        if !obj.ends_with('{') {
            obj.push_str(", ");
        }
        obj.push_str(&format!("\"{key}\": {value}"));
    };
    push(&mut obj, "id", r.scenario.id.to_string());
    for (key, cell) in COLUMNS[1..8].iter().zip(dims[1..8].iter()) {
        push(&mut obj, key, json_string(cell));
    }
    push(&mut obj, "seed", r.scenario.seed.to_string());
    let o = r.outcome.as_ref();
    push(
        &mut obj,
        "status",
        json_string(if o.is_ok() { "ok" } else { "error" }),
    );
    push(
        &mut obj,
        "error",
        match &r.outcome {
            Ok(_) => "null".to_string(),
            Err(e) => json_string(&e.to_string()),
        },
    );
    push(
        &mut obj,
        "embodied_t",
        json_num(o.ok().map(|o| o.embodied_t)),
    );
    push(
        &mut obj,
        "storage_delta_pct",
        json_num(o.ok().and_then(|o| o.storage_delta_pct)),
    );
    push(
        &mut obj,
        "median_g_per_kwh",
        json_num(o.ok().map(|o| o.median_g_per_kwh)),
    );
    push(&mut obj, "cov_pct", json_num(o.ok().map(|o| o.cov_percent)));
    push(
        &mut obj,
        "sched_kg",
        json_num(o.ok().map(|o| o.sched_carbon_kg)),
    );
    push(
        &mut obj,
        "sched_kwh",
        json_num(o.ok().map(|o| o.sched_energy_kwh)),
    );
    push(
        &mut obj,
        "mean_wait_h",
        json_num(o.ok().map(|o| o.mean_wait_hours)),
    );
    push(
        &mut obj,
        "max_wait_h",
        json_num(o.ok().map(|o| o.max_wait_hours)),
    );
    push(
        &mut obj,
        "saved_kg",
        json_num(o.ok().map(|o| o.shift_saved_kg)),
    );
    push(
        &mut obj,
        "saved_pct",
        json_num(o.ok().map(|o| o.shift_saved_pct)),
    );
    push(
        &mut obj,
        "node_annual_kg",
        json_num(o.ok().map(|o| o.node_annual_kg)),
    );
    push(
        &mut obj,
        "break_even_y",
        json_num(o.ok().and_then(|o| o.break_even_years)),
    );
    push(
        &mut obj,
        "asymptotic_pct",
        json_num(o.ok().map(|o| o.asymptotic_savings_pct)),
    );
    push(
        &mut obj,
        "verdict",
        match o.ok() {
            Some(o) => json_string(o.verdict),
            None => "null".to_string(),
        },
    );
    if forecast {
        push(
            &mut obj,
            "oracle_saved_kg",
            json_num(o.ok().and_then(|o| o.oracle_saved_kg)),
        );
        push(
            &mut obj,
            "oracle_saved_pct",
            json_num(o.ok().and_then(|o| o.oracle_saved_pct)),
        );
    }
    obj.push('}');
    obj
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
}

impl<W: Write> CsvSink<W> {
    /// A full-document CSV sink (header + rows).
    pub fn new(w: W) -> CsvSink<W> {
        CsvSink {
            out: DigestWriter::new(w),
            header: true,
            forecast: false,
        }
    }

    /// A fragment sink: rows only, no header.
    pub fn fragment(w: W) -> CsvSink<W> {
        CsvSink {
            out: DigestWriter::new(w),
            header: false,
            forecast: false,
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
        self.out
            .write_all(csv_line_with(row, self.forecast).as_bytes())
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
        if self.separate {
            self.out.write_all(b",\n")?;
        }
        self.separate = true;
        self.rows += 1;
        self.out
            .write_all(json_object_with(row, self.forecast).as_bytes())
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
