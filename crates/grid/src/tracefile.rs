//! Real-trace ingestion: a strict ElectricityMaps/EIA-style hourly CSV
//! parser producing the same [`IntensityTrace`] the simulator emits, so
//! `WindowIndex` and every shifting policy apply to measured data
//! unchanged.
//!
//! ## File format
//!
//! One UTF-8 CSV per region-year, header row required:
//!
//! ```text
//! timestamp,zone,intensity,unit
//! 2021-01-01T00:00Z,eso,213.4,gCO2/kWh
//! 2021-01-01T01:00Z,eso,0.2101,kgCO2/kWh
//! ```
//!
//! - `timestamp` — `YYYY-MM-DDThh:00` plus a **mandatory** UTC marker:
//!   `Z` or a whole-hour `+hh:mm`/`-hh:mm` offset (normalized to UTC on
//!   read). Naive local timestamps are rejected outright: a local fall-back
//!   DST hour is ambiguous, and silently guessing would corrupt the hourly
//!   index. Rows must be strictly ascending and cover the civil year
//!   end-to-end (8760 rows, 8784 in leap years).
//! - `zone` — the region's lowercase short code (`kn`, `tk`, `eso`,
//!   `ciso`, `pjm`, `miso`, `ercot`), uniform across the file.
//! - `intensity` — finite, non-negative.
//! - `unit` — `gCO2/kWh`, `kgCO2/MWh` (numerically identical), or
//!   `kgCO2/kWh` (×1000); normalized to gCO₂/kWh on read, per row.
//!
//! Interior gaps are handled by an explicit [`GapPolicy`]; missing leading
//! or trailing hours are always a coverage error.
//!
//! ## Diagnostics
//!
//! Validation reports **all** diagnostics at once in the catalog idiom:
//! `{file}:{line}: {message}`, sorted by line. The strings are a frozen
//! contract (CI fixtures grep them; see `docs/TRACES.md` for the full
//! list) and [`TraceFileError`] is registered in the hpclint display
//! registry.

use crate::regions::OperatorId;
use crate::trace::IntensityTrace;
use hpcarbon_timeseries::datetime::{hours_in_year, CivilDate, HourStamp};
use hpcarbon_timeseries::series::HourlySeries;

/// The required header row.
pub const TRACE_HEADER: &str = "timestamp,zone,intensity,unit";

/// Accepted `unit` spellings, in documentation order.
pub const UNIT_VALUES: [&str; 3] = ["gCO2/kWh", "kgCO2/MWh", "kgCO2/kWh"];

/// Accepted `zone` codes, in [`OperatorId::ALL`] order.
pub const ZONE_VALUES: [&str; 7] = ["kn", "tk", "eso", "ciso", "pjm", "miso", "ercot"];

/// What to do about interior gaps (missing hours between valid rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GapPolicy {
    /// Reject the file (the default: real datasets should be complete).
    #[default]
    Reject,
    /// Linearly interpolate between the neighboring present hours.
    Interpolate,
    /// Hold the last present value flat across the gap.
    Hold,
}

impl GapPolicy {
    /// Accepted `--gaps` spellings, in documentation order.
    pub const VALUES: [&'static str; 3] = ["reject", "interpolate", "hold"];

    /// Parses a policy label; `None` for unknown spellings.
    pub fn parse(s: &str) -> Option<GapPolicy> {
        match s {
            "reject" => Some(GapPolicy::Reject),
            "interpolate" => Some(GapPolicy::Interpolate),
            "hold" => Some(GapPolicy::Hold),
            _ => None,
        }
    }
}

/// One trace-file diagnostic, in the catalog error idiom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFileError {
    /// A diagnostic anchored to one line of the file.
    Line {
        /// The file path as given to the parser.
        file: String,
        /// 1-based line number.
        line: usize,
        /// The diagnostic message (see `docs/TRACES.md`).
        message: String,
    },
    /// A file-level diagnostic (no single line).
    File {
        /// The file path as given to the parser.
        file: String,
        /// The diagnostic message.
        message: String,
    },
}

impl TraceFileError {
    fn line(file: &str, line: usize, message: String) -> TraceFileError {
        TraceFileError::Line {
            file: file.to_string(),
            line,
            message,
        }
    }

    fn file(file: &str, message: String) -> TraceFileError {
        TraceFileError::File {
            file: file.to_string(),
            message,
        }
    }
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Line {
                file,
                line,
                message,
            } => {
                write!(f, "{file}:{line}: {message}")
            }
            TraceFileError::File { file, message } => write!(f, "{file}: {message}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

/// Every diagnostic of one failed parse, sorted by line (file-level
/// diagnostics last), newline-joined by `Display`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFileErrors(pub Vec<TraceFileError>);

impl std::fmt::Display for TraceFileErrors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for TraceFileErrors {}

/// A successfully ingested trace file.
#[derive(Debug, Clone)]
pub struct ParsedTrace {
    /// The operator the file's `zone` column names.
    pub operator: OperatorId,
    /// The civil year the file covers.
    pub year: i32,
    /// The normalized trace (gCO₂/kWh, UTC hour-of-year indexed).
    pub trace: IntensityTrace,
    /// Hours synthesized by the gap policy (0 under [`GapPolicy::Reject`]).
    pub filled_hours: u32,
}

/// Maps a lowercase zone code to its operator.
pub fn parse_zone(zone: &str) -> Option<OperatorId> {
    OperatorId::ALL
        .iter()
        .copied()
        .find(|op| zone_label(*op) == zone)
}

/// The lowercase zone code of an operator (`eso`, `ciso`, …).
pub fn zone_label(op: OperatorId) -> &'static str {
    match op {
        OperatorId::Kansai => "kn",
        OperatorId::Tokyo => "tk",
        OperatorId::Eso => "eso",
        OperatorId::Ciso => "ciso",
        OperatorId::Pjm => "pjm",
        OperatorId::Miso => "miso",
        OperatorId::Ercot => "ercot",
    }
}

fn unknown_value(field: &str, value: &str, expected: &[&str]) -> String {
    format!(
        "unknown {field} \"{value}\" (valid values: {})",
        expected.join(", ")
    )
}

/// A timestamp parsed down to UTC.
fn parse_stamp(raw: &str) -> Result<HourStamp, String> {
    let malformed = || {
        format!(
            "timestamp \"{raw}\" must be \"YYYY-MM-DDThh:00\" with a \"Z\" or \"+hh:mm\"/\"-hh:mm\" offset"
        )
    };
    let (date_part, time_part) = raw.split_once('T').ok_or_else(malformed)?;
    let mut date_fields = date_part.split('-');
    let year: i32 = date_fields
        .next()
        .filter(|s| s.len() == 4)
        .and_then(|s| s.parse().ok())
        .ok_or_else(malformed)?;
    let month: u8 = date_fields
        .next()
        .filter(|s| s.len() == 2)
        .and_then(|s| s.parse().ok())
        .ok_or_else(malformed)?;
    let day: u8 = date_fields
        .next()
        .filter(|s| s.len() == 2)
        .and_then(|s| s.parse().ok())
        .ok_or_else(malformed)?;
    if date_fields.next().is_some() {
        return Err(malformed());
    }
    let date = CivilDate::new(year, month, day).map_err(|_| malformed())?;

    // Split the wall-clock hh:mm from its offset suffix.
    let (clock, offset_hours) = if let Some(clock) = time_part.strip_suffix('Z') {
        (clock, 0i64)
    } else if let Some(pos) = time_part.rfind(['+', '-']) {
        let (clock, offset) = time_part.split_at(pos);
        (clock, parse_offset(offset)?)
    } else {
        return Err(format!(
            "timestamp \"{raw}\" has no UTC offset (local times are ambiguous across DST folds; use \"Z\" or an explicit \"+hh:mm\" offset)"
        ));
    };
    let (hh, mm) = clock.split_once(':').ok_or_else(malformed)?;
    if hh.len() != 2 || mm != "00" {
        return Err(malformed());
    }
    let hour: u8 = hh.parse().map_err(|_| malformed())?;
    let local = HourStamp::new(date, hour).map_err(|_| malformed())?;
    Ok(local.plus_hours(-offset_hours))
}

/// Parses a `+hh:mm`/`-hh:mm` offset into whole hours.
fn parse_offset(offset: &str) -> Result<i64, String> {
    let bad = || format!("offset \"{offset}\" must be a whole hour between -12:00 and +14:00");
    let (sign, rest) = match offset.split_at(1) {
        ("+", rest) => (1i64, rest),
        ("-", rest) => (-1i64, rest),
        _ => return Err(bad()),
    };
    let (hh, mm) = rest.split_once(':').ok_or_else(bad)?;
    if hh.len() != 2 || mm != "00" {
        return Err(bad());
    }
    let hours: i64 = hh.parse().map_err(|_| bad())?;
    let signed = sign * hours;
    if !(-12..=14).contains(&signed) {
        return Err(bad());
    }
    Ok(signed)
}

/// Parses trace CSV text, reporting every diagnostic at once.
///
/// `file` is the label used in error anchors; `src` the file contents.
pub fn parse_trace_csv(
    file: &str,
    src: &str,
    gaps: GapPolicy,
) -> Result<ParsedTrace, TraceFileErrors> {
    let mut errors: Vec<TraceFileError> = Vec::new();
    let mut lines = src.lines().enumerate();

    match lines.next() {
        None => {
            return Err(TraceFileErrors(vec![TraceFileError::file(
                file,
                "trace has no data rows".to_string(),
            )]));
        }
        Some((_, header)) if header != TRACE_HEADER => {
            errors.push(TraceFileError::line(
                file,
                1,
                format!("header must be \"{TRACE_HEADER}\" (got \"{header}\")"),
            ));
        }
        Some(_) => {}
    }

    // (hour stamp, value in gCO₂/kWh) for every fully valid row.
    let mut rows: Vec<(HourStamp, f64)> = Vec::new();
    let mut zone: Option<(OperatorId, String, usize)> = None; // op, code, line
    let mut year: Option<i32> = None;
    let mut prev: Option<HourStamp> = None;
    let mut seen: std::collections::BTreeMap<i64, usize> = std::collections::BTreeMap::new();

    for (idx, raw) in lines {
        let lineno = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = raw.split(',').collect();
        if fields.len() != 4 {
            errors.push(TraceFileError::line(
                file,
                lineno,
                format!("expected 4 comma-separated fields (got {})", fields.len()),
            ));
            continue;
        }

        let stamp = match parse_stamp(fields[0]) {
            Ok(s) => Some(s),
            Err(msg) => {
                errors.push(TraceFileError::line(file, lineno, msg));
                None
            }
        };

        let mut row_ok = stamp.is_some();

        match parse_zone(fields[1]) {
            Some(op) => match &zone {
                None => zone = Some((op, fields[1].to_string(), lineno)),
                Some((first, code, set_at)) if *first != op => {
                    errors.push(TraceFileError::line(
                        file,
                        lineno,
                        format!(
                            "zone \"{}\" does not match the file's zone \"{code}\" (first set at line {set_at})",
                            fields[1]
                        ),
                    ));
                    row_ok = false;
                }
                Some(_) => {}
            },
            None => {
                errors.push(TraceFileError::line(
                    file,
                    lineno,
                    unknown_value("zone", fields[1], &ZONE_VALUES),
                ));
                row_ok = false;
            }
        }

        let value: Option<f64> = match fields[2].parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => Some(v),
            _ => {
                errors.push(TraceFileError::line(
                    file,
                    lineno,
                    format!(
                        "field \"intensity\" must be a finite non-negative number (got \"{}\")",
                        fields[2]
                    ),
                ));
                None
            }
        };

        let scale: Option<f64> = match fields[3] {
            "gCO2/kWh" | "kgCO2/MWh" => Some(1.0),
            "kgCO2/kWh" => Some(1000.0),
            other => {
                errors.push(TraceFileError::line(
                    file,
                    lineno,
                    unknown_value("unit", other, &UNIT_VALUES),
                ));
                None
            }
        };

        let Some(stamp) = stamp else { continue };

        // Chronology checks run on any row with a valid timestamp, even if
        // other fields failed — ordering diagnostics stay precise.
        let key = stamp.hours_since_epoch();
        if let Some(first) = seen.get(&key) {
            errors.push(TraceFileError::line(
                file,
                lineno,
                format!("duplicate hour {stamp}Z (first given at line {first})"),
            ));
            continue;
        }
        if let Some(p) = prev {
            if stamp < p {
                errors.push(TraceFileError::line(
                    file,
                    lineno,
                    format!(
                        "timestamp {stamp}Z is out of order (expected a strictly later hour than {p}Z)"
                    ),
                ));
                continue;
            }
            let missing = stamp.hours_since_epoch() - p.hours_since_epoch() - 1;
            if missing > 0 && gaps == GapPolicy::Reject {
                errors.push(TraceFileError::line(
                    file,
                    lineno,
                    format!(
                        "gap of {missing} missing hour(s) before {stamp}Z (gap policy \"reject\")"
                    ),
                ));
            }
        }
        seen.insert(key, lineno);
        prev = Some(stamp);

        let y = *year.get_or_insert_with(|| stamp.date().year());
        if stamp.date().year() != y {
            errors.push(TraceFileError::line(
                file,
                lineno,
                format!("timestamp {stamp}Z is outside the trace year {y}"),
            ));
            continue;
        }

        if row_ok {
            if let (Some(v), Some(k)) = (value, scale) {
                rows.push((stamp, v * k));
            }
        }
    }

    if rows.is_empty() && errors.is_empty() {
        errors.push(TraceFileError::file(
            file,
            "trace has no data rows".to_string(),
        ));
    }

    // Coverage: the file must span its civil year end-to-end. Gap filling
    // never invents leading or trailing hours.
    if let (Some(year), Some((first, _)), Some((last, _))) = (year, rows.first(), rows.last()) {
        let n = hours_in_year(year);
        let start = HourStamp::from_hour_of_year(year, 0);
        let end = HourStamp::from_hour_of_year(year, n - 1);
        if *first != start {
            errors.push(TraceFileError::file(
                file,
                format!("trace must start at {start}Z (first row is {first}Z)"),
            ));
        }
        if *last != end {
            errors.push(TraceFileError::file(
                file,
                format!("trace must end at {end}Z (last row is {last}Z)"),
            ));
        }
    }

    if !errors.is_empty() {
        return Err(TraceFileErrors(errors));
    }

    // lint: allow(panic-in-library) -- rows is non-empty past the errors gate, so year and zone are set
    let year = year.expect("rows exist");
    // lint: allow(panic-in-library) -- every accepted row carried a valid zone
    let (operator, _, _) = zone.expect("rows exist");
    let n = hours_in_year(year) as usize;
    let mut values: Vec<Option<f64>> = vec![None; n];
    for (stamp, v) in &rows {
        values[stamp.hour_of_year() as usize] = Some(*v);
    }
    let filled_hours = values.iter().filter(|v| v.is_none()).count() as u32;
    let filled = fill_gaps(&values, gaps);
    let trace = IntensityTrace::new(operator, HourlySeries::new(year, filled));
    Ok(ParsedTrace {
        operator,
        year,
        trace,
        filled_hours,
    })
}

/// Resolves interior `None` runs per the gap policy. Coverage checks
/// guarantee the first and last slots are present.
fn fill_gaps(values: &[Option<f64>], gaps: GapPolicy) -> Vec<f64> {
    let mut out = Vec::with_capacity(values.len());
    let mut i = 0;
    while i < values.len() {
        match values[i] {
            Some(v) => {
                out.push(v);
                i += 1;
            }
            None => {
                let run_start = i;
                while values[i].is_none() {
                    i += 1;
                }
                let before = out[run_start - 1];
                // lint: allow(panic-in-library) -- the trailing slot is always present (coverage-checked), so the run has a right neighbor
                let after = values[i].expect("run ends at a present hour");
                let len = i - run_start;
                for k in 0..len {
                    let v = match gaps {
                        GapPolicy::Hold => before,
                        GapPolicy::Interpolate => {
                            let t = (k + 1) as f64 / (len + 1) as f64;
                            before + (after - before) * t
                        }
                        // Reject never reaches filling: gaps already errored.
                        GapPolicy::Reject => before,
                    };
                    out.push(v);
                }
            }
        }
    }
    out
}

/// Loads and parses a trace file from disk. I/O failures surface as a
/// single file-level diagnostic.
pub fn load_trace_file(path: &str, gaps: GapPolicy) -> Result<ParsedTrace, TraceFileErrors> {
    let src = std::fs::read_to_string(path).map_err(|e| {
        TraceFileErrors(vec![TraceFileError::file(
            path,
            format!("cannot read trace file ({e})"),
        )])
    })?;
    parse_trace_csv(path, &src, gaps)
}

/// Emits a trace in canonical form: UTC `Z` stamps, lowercase zone code,
/// shortest-round-trip floats, `gCO2/kWh` throughout. `parse_trace_csv`
/// over the output reproduces the trace exactly.
pub fn write_trace_csv(trace: &IntensityTrace) -> String {
    let zone = zone_label(trace.operator());
    let series = trace.series();
    let mut out = String::with_capacity(series.len() * 40);
    out.push_str(TRACE_HEADER);
    out.push('\n');
    for (stamp, v) in series.iter() {
        out.push_str(&format!("{stamp}Z,{zone},{v},gCO2/kWh\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anchor(err: &TraceFileErrors, line: usize) -> String {
        err.0
            .iter()
            .find_map(|e| match e {
                TraceFileError::Line {
                    line: l, message, ..
                } if *l == line => Some(message.clone()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no diagnostic at line {line}: {err}"))
    }

    fn tiny_year_csv() -> String {
        // A full 2021 file built programmatically: value = hour index.
        let mut s = String::from("timestamp,zone,intensity,unit\n");
        for i in 0..8760u32 {
            let stamp = HourStamp::from_hour_of_year(2021, i);
            s.push_str(&format!("{stamp}Z,eso,{}.5,gCO2/kWh\n", i % 97));
        }
        s
    }

    #[test]
    fn parses_a_complete_year() {
        let p = parse_trace_csv("t.csv", &tiny_year_csv(), GapPolicy::Reject).expect("parses");
        assert_eq!(p.operator, OperatorId::Eso);
        assert_eq!(p.year, 2021);
        assert_eq!(p.filled_hours, 0);
        assert_eq!(p.trace.series().len(), 8760);
        assert_eq!(p.trace.series().at(0), 0.5);
        assert_eq!(p.trace.series().at(98), 1.5);
    }

    #[test]
    fn normalizes_units_per_row() {
        let mut src = tiny_year_csv();
        src = src.replace(
            "2021-01-01T00:00Z,eso,0.5,gCO2/kWh",
            "2021-01-01T00:00Z,eso,0.5,kgCO2/kWh",
        );
        src = src.replace(
            "2021-01-01T01:00Z,eso,1.5,gCO2/kWh",
            "2021-01-01T01:00Z,eso,1.5,kgCO2/MWh",
        );
        let p = parse_trace_csv("t.csv", &src, GapPolicy::Reject).expect("parses");
        assert_eq!(p.trace.series().at(0), 500.0);
        assert_eq!(p.trace.series().at(1), 1.5);
    }

    #[test]
    fn normalizes_offsets_to_utc() {
        // The same year expressed in JST (+09:00) local stamps.
        let mut s = String::from("timestamp,zone,intensity,unit\n");
        for i in 0..8760u32 {
            let stamp = HourStamp::from_hour_of_year(2021, i).plus_hours(9);
            s.push_str(&format!("{stamp}+09:00,kn,{i}.0,gCO2/kWh\n"));
        }
        let p = parse_trace_csv("t.csv", &s, GapPolicy::Reject).expect("parses");
        assert_eq!(p.operator, OperatorId::Kansai);
        assert_eq!(p.trace.series().at(0), 0.0);
        assert_eq!(p.trace.series().at(8759), 8759.0);
    }

    #[test]
    fn handles_leap_years() {
        let mut s = String::from("timestamp,zone,intensity,unit\n");
        for i in 0..8784u32 {
            let stamp = HourStamp::from_hour_of_year(2020, i);
            s.push_str(&format!("{stamp}Z,pjm,1.0,gCO2/kWh\n"));
        }
        let p = parse_trace_csv("t.csv", &s, GapPolicy::Reject).expect("parses");
        assert_eq!(p.year, 2020);
        assert_eq!(p.trace.series().len(), 8784);
    }

    #[test]
    fn rejects_bad_header() {
        let src = "time,zone,value,unit\n2021-01-01T00:00Z,eso,1.0,gCO2/kWh\n";
        let err = parse_trace_csv("t.csv", src, GapPolicy::Reject).unwrap_err();
        assert!(anchor(&err, 1).starts_with("header must be \"timestamp,zone,intensity,unit\""));
    }

    #[test]
    fn rejects_naive_timestamps() {
        let mut src = tiny_year_csv();
        src = src.replace("2021-03-07T05:00Z,eso", "2021-03-07T05:00,eso");
        let err = parse_trace_csv("t.csv", &src, GapPolicy::Reject).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("has no UTC offset (local times are ambiguous across DST folds"),
            "{msg}"
        );
    }

    #[test]
    fn rejects_non_whole_hour_offsets() {
        let src = "timestamp,zone,intensity,unit\n2021-01-01T05:30Z,eso,1.0,gCO2/kWh\n";
        let err = parse_trace_csv("t.csv", src, GapPolicy::Reject).unwrap_err();
        let msg = err.to_string();
        // A :30 wall clock fails the stamp shape.
        assert!(msg.contains("must be \"YYYY-MM-DDThh:00\""), "{msg}");
        let src2 = "timestamp,zone,intensity,unit\n2021-01-01T05:00+05:30,eso,1.0,gCO2/kWh\n";
        let err2 = parse_trace_csv("t.csv", src2, GapPolicy::Reject).unwrap_err();
        assert!(
            err2.to_string()
                .contains("offset \"+05:30\" must be a whole hour between -12:00 and +14:00"),
            "{err2}"
        );
    }

    #[test]
    fn reports_all_diagnostics_at_once() {
        let mut src = tiny_year_csv();
        src = src.replace(
            "2021-02-01T00:00Z,eso,65.5,gCO2/kWh",
            "2021-02-01T00:00Z,eso,65.5,mgCO2/kWh",
        );
        src = src.replace(
            "2021-06-01T00:00Z,eso,35.5,gCO2/kWh",
            "2021-06-01T00:00Z,eso,-35.5,gCO2/kWh",
        );
        src = src.replace(
            "2021-09-01T00:00Z,eso,12.5,gCO2/kWh",
            "2021-09-01T00:00Z,ciso,12.5,gCO2/kWh",
        );
        let err = parse_trace_csv("t.csv", &src, GapPolicy::Reject).unwrap_err();
        assert_eq!(err.0.len(), 3, "{err}");
        assert!(err
            .to_string()
            .contains("unknown unit \"mgCO2/kWh\" (valid values: gCO2/kWh, kgCO2/MWh, kgCO2/kWh)"));
        assert!(err
            .to_string()
            .contains("field \"intensity\" must be a finite non-negative number (got \"-35.5\")"));
        assert!(err.to_string().contains(
            "zone \"ciso\" does not match the file's zone \"eso\" (first set at line 2)"
        ));
    }

    #[test]
    fn rejects_duplicates_and_disorder() {
        let src = "timestamp,zone,intensity,unit\n\
                   2021-01-01T00:00Z,eso,1.0,gCO2/kWh\n\
                   2021-01-01T01:00Z,eso,1.0,gCO2/kWh\n\
                   2021-01-01T01:00Z,eso,2.0,gCO2/kWh\n\
                   2021-01-01T03:00Z,eso,3.0,gCO2/kWh\n\
                   2021-01-01T02:00Z,eso,4.0,gCO2/kWh\n";
        let err = parse_trace_csv("t.csv", src, GapPolicy::Hold).unwrap_err();
        assert!(
            anchor(&err, 4).contains("duplicate hour 2021-01-01T01:00Z (first given at line 3)")
        );
        assert!(anchor(&err, 6).contains(
            "timestamp 2021-01-01T02:00Z is out of order (expected a strictly later hour than 2021-01-01T03:00Z)"
        ));
    }

    #[test]
    fn gap_policies() {
        let mut src = tiny_year_csv();
        // Remove two consecutive interior hours.
        src = src.replace("2021-05-01T03:00Z,eso,70.5,gCO2/kWh\n", "");
        src = src.replace("2021-05-01T04:00Z,eso,71.5,gCO2/kWh\n", "");
        let err = parse_trace_csv("t.csv", &src, GapPolicy::Reject).unwrap_err();
        assert!(
            err.to_string().contains(
                "gap of 2 missing hour(s) before 2021-05-01T05:00Z (gap policy \"reject\")"
            ),
            "{err}"
        );

        let hold = parse_trace_csv("t.csv", &src, GapPolicy::Hold).expect("hold fills");
        assert_eq!(hold.filled_hours, 2);
        let gap_start = (31 + 28 + 31 + 30) * 24 + 3; // 2021-05-01T03:00Z
        assert_eq!(hold.trace.series().at(gap_start), 69.5);
        assert_eq!(hold.trace.series().at(gap_start + 1), 69.5);

        let interp = parse_trace_csv("t.csv", &src, GapPolicy::Interpolate).expect("interpolates");
        assert_eq!(interp.filled_hours, 2);
        let before = 69.5;
        let after = 72.5;
        let a = interp.trace.series().at(gap_start);
        let b = interp.trace.series().at(gap_start + 1);
        assert!((a - (before + (after - before) / 3.0)).abs() < 1e-12);
        assert!((b - (before + 2.0 * (after - before) / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn coverage_is_checked_even_with_filling() {
        let mut src = tiny_year_csv();
        src = src.replace("2021-01-01T00:00Z,eso,0.5,gCO2/kWh\n", "");
        let err = parse_trace_csv("t.csv", &src, GapPolicy::Hold).unwrap_err();
        assert!(
            err.to_string()
                .contains("trace must start at 2021-01-01T00:00Z (first row is 2021-01-01T01:00Z)"),
            "{err}"
        );
        let mut src2 = tiny_year_csv();
        src2 = src2.replace("2021-12-31T23:00Z,eso,29.5,gCO2/kWh\n", "");
        let err2 = parse_trace_csv("t.csv", &src2, GapPolicy::Hold).unwrap_err();
        assert!(
            err2.to_string()
                .contains("trace must end at 2021-12-31T23:00Z (last row is 2021-12-31T22:00Z)"),
            "{err2}"
        );
    }

    #[test]
    fn rejects_empty_and_year_straddle() {
        let err = parse_trace_csv("t.csv", "", GapPolicy::Reject).unwrap_err();
        assert_eq!(err.to_string(), "t.csv: trace has no data rows");
        let err2 = parse_trace_csv(
            "t.csv",
            "timestamp,zone,intensity,unit\n",
            GapPolicy::Reject,
        )
        .unwrap_err();
        assert_eq!(err2.to_string(), "t.csv: trace has no data rows");

        let src = "timestamp,zone,intensity,unit\n\
                   2021-12-31T23:00Z,eso,1.0,gCO2/kWh\n\
                   2022-01-01T00:00Z,eso,1.0,gCO2/kWh\n";
        let err3 = parse_trace_csv("t.csv", src, GapPolicy::Reject).unwrap_err();
        assert!(
            err3.to_string()
                .contains("timestamp 2022-01-01T00:00Z is outside the trace year 2021"),
            "{err3}"
        );
    }

    #[test]
    fn field_count_diagnostic() {
        let src = "timestamp,zone,intensity,unit\n2021-01-01T00:00Z,eso,1.0\n";
        let err = parse_trace_csv("t.csv", src, GapPolicy::Reject).unwrap_err();
        assert!(anchor(&err, 2).contains("expected 4 comma-separated fields (got 3)"));
    }

    #[test]
    fn unknown_zone_diagnostic() {
        let src = "timestamp,zone,intensity,unit\n2021-01-01T00:00Z,mars,1.0,gCO2/kWh\n";
        let err = parse_trace_csv("t.csv", src, GapPolicy::Reject).unwrap_err();
        assert!(anchor(&err, 2)
            .contains("unknown zone \"mars\" (valid values: kn, tk, eso, ciso, pjm, miso, ercot)"));
    }

    #[test]
    fn emit_parse_round_trip() {
        let trace = crate::synth::synthesize_year(OperatorId::Ciso, 2021, 7);
        let csv = write_trace_csv(&trace);
        let p = parse_trace_csv("round.csv", &csv, GapPolicy::Reject).expect("round-trips");
        assert_eq!(p.operator, OperatorId::Ciso);
        assert_eq!(p.trace.series().values(), trace.series().values());
    }

    #[test]
    fn zone_labels_round_trip() {
        for op in OperatorId::ALL {
            assert_eq!(parse_zone(zone_label(op)), Some(op));
        }
        assert_eq!(parse_zone("ESO"), None);
    }
}
