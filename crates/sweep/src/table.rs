//! The result table's shape: per-scenario rows, the column order, and
//! summary statistics with their Markdown rendering.
//!
//! Emission lives in [`crate::sink`]: [`CsvSink`]/[`JsonSink`] are the
//! one byte contract, and [`crate::SummaryAccumulator`] folds the
//! summary and ranking as rows stream past.
//!
//! [`CsvSink`]: crate::sink::CsvSink
//! [`JsonSink`]: crate::sink::JsonSink

use crate::scenario::{Scenario, ScenarioError, ScenarioOutcome};
use hpcarbon_report::emit::MarkdownTable;

/// One evaluated grid point.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The scenario.
    pub scenario: Scenario,
    /// Its outcome, or why it was infeasible.
    pub outcome: Result<ScenarioOutcome, ScenarioError>,
}

/// Min/mean/max of one metric over the successful rows.
#[derive(Debug, Clone)]
pub struct MetricSummary {
    /// Metric name (matches the CSV column).
    pub metric: &'static str,
    /// Rows contributing (rows where the metric is defined).
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
}

/// CSV column order; the CSV and JSON emitters both follow it.
pub(crate) const COLUMNS: [&str; 25] = [
    "id",
    "system",
    "storage",
    "region",
    "trace",
    "pue",
    "policy",
    "upgrade",
    "seed",
    "status",
    "error",
    "embodied_t",
    "storage_delta_pct",
    "median_g_per_kwh",
    "cov_pct",
    "sched_kg",
    "sched_kwh",
    "mean_wait_h",
    "max_wait_h",
    "saved_kg",
    "saved_pct",
    "node_annual_kg",
    "break_even_y",
    "asymptotic_pct",
    "verdict",
];

/// The forecast-mode extension columns. Appended **after** `verdict`
/// only when a sink opts in ([`crate::CsvSink::forecast_columns`] /
/// [`crate::JsonSink::forecast_columns`]); the default emission stays
/// byte-identical to the frozen 25-column contract.
pub(crate) const FORECAST_COLUMNS: [&str; 2] = ["oracle_saved_kg", "oracle_saved_pct"];

/// Renders metric summaries as an aligned Markdown table.
pub(crate) fn summary_markdown(summaries: &[MetricSummary]) -> String {
    let num = |v: f64| format!("{v:.4}");
    let mut t = MarkdownTable::new(&["metric", "n", "min", "mean", "max"]);
    for s in summaries {
        t.row([
            s.metric.to_string(),
            s.count.to_string(),
            num(s.min),
            num(s.mean),
            num(s.max),
        ]);
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Sweep, SweepConfig, SweepReport};
    use crate::grid::ScenarioGrid;
    use crate::scenario::{StorageVariant, SystemId};
    use crate::sink::{CollectSink, CsvSink, JsonSink, RowSink};
    use crate::summary::SummaryAccumulator;

    /// A sweep's report, CSV and JSON documents, and rows.
    struct Run {
        report: SweepReport,
        csv: String,
        json: String,
        rows: Vec<SweepRow>,
    }

    /// Streams `grid` at two threads into every sink kind.
    fn sweep(grid: &ScenarioGrid) -> Run {
        let mut csv = CsvSink::new(Vec::new());
        let mut json = JsonSink::new(Vec::new());
        let mut collect = CollectSink::new();
        let report = Sweep::over(grid)
            .config(SweepConfig::fast())
            .threads(2)
            .sink(&mut csv)
            .sink(&mut json)
            .sink(&mut collect)
            .run()
            .unwrap();
        Run {
            report,
            csv: String::from_utf8(csv.into_inner()).unwrap(),
            json: String::from_utf8(json.into_inner()).unwrap(),
            rows: collect.rows().to_vec(),
        }
    }

    fn quick() -> Run {
        sweep(&ScenarioGrid::quick())
    }

    /// Folds `rows` into a top-5 accumulator, as the executor does.
    fn accumulate(rows: &[SweepRow]) -> SummaryAccumulator {
        let mut acc = SummaryAccumulator::new(5);
        for r in rows {
            acc.row(r).unwrap();
        }
        acc
    }

    fn error_row(id: usize) -> SweepRow {
        let mut sc = ScenarioGrid::quick().scenario_at(0);
        sc.id = id;
        SweepRow {
            scenario: sc,
            outcome: Err(crate::ScenarioError::InvalidPue(crate::PueSpec::Constant(
                0.5,
            ))),
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_scenario() {
        let r = quick();
        let lines: Vec<&str> = r.csv.lines().collect();
        assert_eq!(lines.len(), r.report.len() + 1);
        assert!(lines[0].starts_with("id,system,storage,region,trace,pue,policy"));
        // Every row has the full column count.
        for line in &lines {
            assert_eq!(line.split(',').count(), COLUMNS.len(), "{line}");
        }
    }

    #[test]
    fn json_is_structurally_sound() {
        let Run { report, json, .. } = quick();
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert_eq!(json.matches("\"status\": \"ok\"").count(), report.ok);
        // Balanced braces (no nesting in the emitted objects).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_schema_is_uniform_across_ok_and_error_rows() {
        // Run a grid that contains infeasible points so both row kinds
        // appear, then check every row carries every column key.
        let Run { report, json, .. } = sweep(&ScenarioGrid::quick().storage(StorageVariant::ALL));
        assert!(report.errors > 0 && report.ok > 0);
        let rows: Vec<&str> = json
            .lines()
            .filter(|l| l.trim_start().starts_with('{'))
            .collect();
        assert_eq!(rows.len(), report.len());
        for key in super::COLUMNS {
            for row in &rows {
                assert!(
                    row.contains(&format!("\"{key}\":")),
                    "{key} missing in {row}"
                );
            }
        }
        // seed is a number, error rows null their metrics.
        assert!(json.contains("\"seed\": 2021,"));
        assert!(json.contains("\"error\": \"storage what-if"));
        assert!(json.contains("\"sched_kg\": null"));
    }

    #[test]
    fn summary_covers_the_headline_metrics() {
        let report = quick().report;
        assert!(report.summary.iter().any(|m| m.metric == "sched_kg"));
        for m in &report.summary {
            assert!(m.min <= m.mean && m.mean <= m.max, "{}", m.metric);
            assert!(m.count > 0);
        }
        assert!(report.summary_table().contains("sched_kg"));
    }

    #[test]
    fn error_rows_anywhere_leave_summary_and_ranking_total() {
        // Error rows leading, interleaved, and trailing: the statistics
        // must come out as if only the ok rows existed.
        let base = quick().rows;
        let mut rows = vec![error_row(9000), error_row(9001)];
        for (i, r) in base.iter().enumerate() {
            rows.push(r.clone());
            if i % 3 == 0 {
                rows.push(error_row(9100 + i));
            }
        }
        rows.push(error_row(9999));
        let (salted, base) = (accumulate(&rows), accumulate(&base));
        assert_eq!(salted.ok_count(), base.ok_count());
        let a = salted.summary();
        let b = base.summary();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.metric, y.metric);
            assert_eq!(x.count, y.count);
            assert_eq!((x.min, x.mean, x.max), (y.min, y.mean, y.max));
        }
        let ids = |acc: &SummaryAccumulator| -> Vec<usize> {
            acc.top().iter().map(|r| r.scenario.id).collect()
        };
        assert_eq!(ids(&salted), ids(&base));
    }

    #[test]
    fn all_error_sweep_stays_total() {
        // Every row infeasible (Perlmutter has no HDD tier to swap):
        // counts add up, the summary is empty, rankings are empty, and
        // both emitters still produce complete documents.
        let grid = ScenarioGrid::quick()
            .systems([SystemId::Perlmutter])
            .storage([StorageVariant::AllFlash]);
        let Run {
            report, csv, json, ..
        } = sweep(&grid);
        let n = grid.len();
        assert!(n > 0);
        assert_eq!((report.len(), report.ok, report.errors), (n, 0, n));
        assert!(report.summary.is_empty());
        assert!(report.top.is_empty());
        assert_eq!(report.summary_table().lines().count(), 2); // header + rule
        assert_eq!(csv.lines().count(), n + 1);
        assert!(json.starts_with("[\n") && json.ends_with("\n]\n"));
        assert_eq!(json.matches("\"status\": \"error\"").count(), n);
    }

    #[test]
    fn greener_policies_rank_ahead_of_fifo() {
        // In the quick grid (GB + CA), greenest-window rows must beat the
        // FIFO rows from the same region/seed on scheduled carbon.
        let best = &quick().report.top[0];
        assert_ne!(best.scenario.policy, hpcarbon_sched::Policy::Fifo);
    }
}
