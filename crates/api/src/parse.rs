//! Typed string → enum parsers shared by the CLI flags and the JSON
//! request decoder.
//!
//! Every parser takes the *caller's* field name (`--from` on the command
//! line, `upgrade.from` in a request document) so the
//! [`ParseError::UnknownValue`] it returns names the exact input the user
//! typed and lists the accepted vocabulary. Matching is ASCII
//! case-insensitive; emission (`*_name` functions) always uses the
//! canonical lowercase form.

use crate::error::ParseError;
use crate::types::{node_label, ForecastModel, StorageVariant, SystemId, TraceSource};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_workloads::benchmarks::Suite;
use hpcarbon_workloads::nodes::NodeGen;

/// Accepted `system` values.
pub const SYSTEM_VALUES: [&str; 3] = ["frontier", "lumi", "perlmutter"];
/// Accepted `storage` values.
pub const STORAGE_VALUES: [&str; 2] = ["baseline", "all-flash"];
/// Accepted `region` values (lowercase Table 3 short codes).
pub const REGION_VALUES: [&str; 7] = ["kn", "tk", "eso", "ciso", "pjm", "miso", "ercot"];
/// Accepted `trace` values.
pub const TRACE_VALUES: [&str; 3] = ["paper", "synthetic", "file"];
/// Accepted `forecast` values (`noisy:<pct>` takes a whole-percent error).
pub const FORECAST_VALUES: [&str; 4] = ["oracle", "persistence", "day-ahead", "noisy:<pct>"];
/// Accepted node-generation values.
pub const NODE_VALUES: [&str; 3] = ["p100", "v100", "a100"];
/// Accepted benchmark-suite values.
pub const SUITE_VALUES: [&str; 3] = ["nlp", "vision", "candle"];

fn unknown(field: &'static str, value: &str, expected: &'static [&'static str]) -> ParseError {
    ParseError::UnknownValue {
        field,
        value: value.to_string(),
        expected,
    }
}

/// Parses a Table 2 system name.
pub fn system(field: &'static str, s: &str) -> Result<SystemId, ParseError> {
    match s.to_ascii_lowercase().as_str() {
        "frontier" => Ok(SystemId::Frontier),
        "lumi" => Ok(SystemId::Lumi),
        "perlmutter" => Ok(SystemId::Perlmutter),
        _ => Err(unknown(field, s, &SYSTEM_VALUES)),
    }
}

/// Parses a storage-variant name.
pub fn storage(field: &'static str, s: &str) -> Result<StorageVariant, ParseError> {
    match s.to_ascii_lowercase().as_str() {
        "baseline" => Ok(StorageVariant::Baseline),
        "all-flash" => Ok(StorageVariant::AllFlash),
        _ => Err(unknown(field, s, &STORAGE_VALUES)),
    }
}

/// Parses a Table 3 region short code.
pub fn region(field: &'static str, s: &str) -> Result<OperatorId, ParseError> {
    match s.to_ascii_lowercase().as_str() {
        "kn" => Ok(OperatorId::Kansai),
        "tk" => Ok(OperatorId::Tokyo),
        "eso" => Ok(OperatorId::Eso),
        "ciso" => Ok(OperatorId::Ciso),
        "pjm" => Ok(OperatorId::Pjm),
        "miso" => Ok(OperatorId::Miso),
        "ercot" => Ok(OperatorId::Ercot),
        _ => Err(unknown(field, s, &REGION_VALUES)),
    }
}

/// The canonical lowercase JSON value of a region.
pub fn region_name(op: OperatorId) -> &'static str {
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

/// Parses a trace-source name.
pub fn trace_source(field: &'static str, s: &str) -> Result<TraceSource, ParseError> {
    match s.to_ascii_lowercase().as_str() {
        "paper" => Ok(TraceSource::Paper),
        "synthetic" => Ok(TraceSource::Synthetic),
        "file" => Ok(TraceSource::File),
        _ => Err(unknown(field, s, &TRACE_VALUES)),
    }
}

/// Parses a forecast-model name (`oracle`, `persistence`, `day-ahead`,
/// or `noisy:<pct>` with a whole-percent error, e.g. `noisy:15`).
pub fn forecast_model(field: &'static str, s: &str) -> Result<ForecastModel, ParseError> {
    let lower = s.to_ascii_lowercase();
    if let Some(pct) = lower.strip_prefix("noisy:") {
        return match pct.parse::<u32>() {
            Ok(error_pct) if pct.chars().all(|c| c.is_ascii_digit()) => {
                Ok(ForecastModel::Noisy { error_pct })
            }
            _ => Err(unknown(field, s, &FORECAST_VALUES)),
        };
    }
    match lower.as_str() {
        "oracle" => Ok(ForecastModel::Oracle),
        "persistence" => Ok(ForecastModel::Persistence),
        "day-ahead" => Ok(ForecastModel::DayAhead),
        _ => Err(unknown(field, s, &FORECAST_VALUES)),
    }
}

/// Parses a node-generation name (`p100`, `v100`, `a100`).
pub fn node_gen(field: &'static str, s: &str) -> Result<NodeGen, ParseError> {
    match s.to_ascii_lowercase().as_str() {
        "p100" => Ok(NodeGen::P100Node),
        "v100" => Ok(NodeGen::V100Node),
        "a100" => Ok(NodeGen::A100Node),
        _ => Err(unknown(field, s, &NODE_VALUES)),
    }
}

/// Parses a benchmark-suite name.
pub fn suite(field: &'static str, s: &str) -> Result<Suite, ParseError> {
    match s.to_ascii_lowercase().as_str() {
        "nlp" => Ok(Suite::Nlp),
        "vision" => Ok(Suite::Vision),
        "candle" => Ok(Suite::Candle),
        _ => Err(unknown(field, s, &SUITE_VALUES)),
    }
}

/// The canonical lowercase JSON value of a suite.
pub fn suite_name(s: Suite) -> &'static str {
    match s {
        Suite::Nlp => "nlp",
        Suite::Vision => "vision",
        Suite::Candle => "candle",
    }
}

/// The canonical lowercase JSON value of a node generation.
pub fn node_name(n: NodeGen) -> &'static str {
    node_label(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_vocabulary_round_trips() {
        for s in SYSTEM_VALUES {
            assert_eq!(system("system", s).unwrap().label(), s);
        }
        for s in STORAGE_VALUES {
            assert_eq!(storage("storage", s).unwrap().label(), s);
        }
        for s in REGION_VALUES {
            assert_eq!(region_name(region("region", s).unwrap()), s);
        }
        for s in TRACE_VALUES {
            assert_eq!(trace_source("trace", s).unwrap().label(), s);
        }
        for s in NODE_VALUES {
            assert_eq!(node_name(node_gen("node", s).unwrap()), s);
        }
        for s in SUITE_VALUES {
            assert_eq!(suite_name(suite("suite", s).unwrap()), s);
        }
        // The noisy entry in FORECAST_VALUES is a template, so the
        // forecast vocabulary round-trips through concrete labels.
        for s in ["oracle", "persistence", "day-ahead", "noisy:15"] {
            assert_eq!(forecast_model("forecast", s).unwrap().label(), s);
        }
    }

    #[test]
    fn forecast_parser_rejects_malformed_noisy() {
        assert!(forecast_model("forecast", "noisy:").is_err());
        assert!(forecast_model("forecast", "noisy:-5").is_err());
        assert!(forecast_model("forecast", "noisy:1.5").is_err());
        assert!(forecast_model("forecast", "fortune-teller").is_err());
        assert_eq!(
            forecast_model("--forecast", "noisy:abc").unwrap_err().to_string(),
            "unknown --forecast \"noisy:abc\" (valid values: oracle, persistence, day-ahead, noisy:<pct>)"
        );
    }

    #[test]
    fn matching_is_case_insensitive() {
        assert_eq!(system("system", "Frontier").unwrap(), SystemId::Frontier);
        assert_eq!(region("region", "ESO").unwrap(), OperatorId::Eso);
    }

    #[test]
    fn unknown_values_carry_the_field_name() {
        let e = node_gen("--from", "h100").unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown --from \"h100\" (valid values: p100, v100, a100)"
        );
    }
}
