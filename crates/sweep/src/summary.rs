//! Online summary statistics over a streamed sweep.
//!
//! [`SummaryAccumulator`] is a [`RowSink`] that reduces the row stream
//! to the headline min/mean/max table and the top-k ranking **without
//! retaining rows**: per metric it keeps `(count, sum, min, max)`, and
//! for the ranking a k-bounded heap of row clones. Because the executor
//! delivers rows in grid order, the accumulator's left-to-right sum and
//! min/max folds run in grid order at every thread count — the resulting
//! floats are bit-identical across thread counts, not merely close.

use crate::scenario::ScenarioOutcome;
use crate::sink::RowSink;
use crate::table::{MetricSummary, SweepRow};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::io;

type MetricGetter = fn(&ScenarioOutcome) -> Option<f64>;

/// The headline metrics summarized for every sweep, in display order.
const METRICS: [(&str, MetricGetter); 7] = [
    ("embodied_t", |o| Some(o.embodied_t)),
    ("median_g_per_kwh", |o| Some(o.median_g_per_kwh)),
    ("sched_kg", |o| Some(o.sched_carbon_kg)),
    ("mean_wait_h", |o| Some(o.mean_wait_hours)),
    ("saved_kg", |o| Some(o.shift_saved_kg)),
    ("node_annual_kg", |o| Some(o.node_annual_kg)),
    ("break_even_y", |o| o.break_even_years),
];

/// Running `(count, sum, min, max)` of one metric.
#[derive(Debug, Clone, Copy)]
struct MetricAcc {
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
}

impl MetricAcc {
    fn new() -> MetricAcc {
        MetricAcc {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = f64::min(self.min, v);
        self.max = f64::max(self.max, v);
    }
}

/// Heap entry for the top-k ranking: ordered by scheduled carbon
/// (total order), ties by grid id — the max element is the *worst*
/// retained row, evicted first.
#[derive(Debug, Clone)]
struct TopEntry {
    carbon: f64,
    id: usize,
    row: SweepRow,
}

impl PartialEq for TopEntry {
    fn eq(&self, other: &TopEntry) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for TopEntry {}

impl PartialOrd for TopEntry {
    fn partial_cmp(&self, other: &TopEntry) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TopEntry {
    fn cmp(&self, other: &TopEntry) -> Ordering {
        self.carbon
            .total_cmp(&other.carbon)
            .then(self.id.cmp(&other.id))
    }
}

/// Streams rows into summary statistics and a bounded top-k ranking.
///
/// Memory is O(metrics + k): suitable for million-scenario sweeps where
/// collecting rows is not.
#[derive(Debug)]
pub struct SummaryAccumulator {
    rows: usize,
    ok: usize,
    metrics: [MetricAcc; METRICS.len()],
    k: usize,
    top: BinaryHeap<TopEntry>,
}

impl SummaryAccumulator {
    /// An accumulator retaining the `k` lowest-carbon rows.
    pub fn new(k: usize) -> SummaryAccumulator {
        SummaryAccumulator {
            rows: 0,
            ok: 0,
            metrics: [MetricAcc::new(); METRICS.len()],
            k,
            top: BinaryHeap::with_capacity(k.saturating_add(1)),
        }
    }

    /// Rows that evaluated successfully.
    pub fn ok_count(&self) -> usize {
        self.ok
    }

    /// Rows that failed soft.
    pub fn error_count(&self) -> usize {
        self.rows - self.ok
    }

    /// Min/mean/max summaries of the headline metrics over successful
    /// rows. Empty when no row succeeded.
    pub fn summary(&self) -> Vec<MetricSummary> {
        METRICS
            .iter()
            .zip(self.metrics.iter())
            .filter(|(_, acc)| acc.count > 0)
            .map(|(&(name, _), acc)| MetricSummary {
                metric: name,
                count: acc.count,
                min: acc.min,
                mean: acc.sum / acc.count as f64,
                max: acc.max,
            })
            .collect()
    }

    /// The retained lowest-carbon rows, ascending; ties break by grid
    /// order. At most `k` rows.
    pub fn top(&self) -> Vec<SweepRow> {
        let mut entries: Vec<&TopEntry> = self.top.iter().collect();
        entries.sort();
        entries.into_iter().map(|e| e.row.clone()).collect()
    }
}

impl RowSink for SummaryAccumulator {
    fn row(&mut self, row: &SweepRow) -> io::Result<()> {
        self.rows += 1;
        if let Ok(o) = &row.outcome {
            self.ok += 1;
            for ((_, get), acc) in METRICS.iter().zip(self.metrics.iter_mut()) {
                if let Some(v) = get(o) {
                    acc.push(v);
                }
            }
            if self.k > 0 {
                let entry = TopEntry {
                    carbon: o.sched_carbon_kg,
                    id: row.scenario.id,
                    row: row.clone(),
                };
                if self.top.len() < self.k {
                    self.top.push(entry);
                } else if let Some(worst) = self.top.peek() {
                    if entry.cmp(worst) == Ordering::Less {
                        self.top.pop();
                        self.top.push(entry);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PueSpec, Scenario, StorageVariant, SystemId, TraceSource, UpgradePath};
    use hpcarbon_grid::regions::OperatorId;
    use hpcarbon_sched::Policy;
    use hpcarbon_workloads::benchmarks::Suite;
    use hpcarbon_workloads::nodes::NodeGen;

    fn ok_row(id: usize, carbon: f64) -> SweepRow {
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
            outcome: Ok(ScenarioOutcome {
                embodied_t: 10.0 + id as f64,
                storage_delta_pct: None,
                median_g_per_kwh: 200.0,
                cov_percent: 30.0,
                sched_carbon_kg: carbon,
                sched_energy_kwh: 1.0,
                mean_wait_hours: 0.5,
                max_wait_hours: 2.0,
                shift_saved_kg: 1.0,
                shift_saved_pct: 2.0,
                oracle_saved_kg: None,
                oracle_saved_pct: None,
                node_annual_kg: 3.0,
                break_even_years: if id.is_multiple_of(2) {
                    Some(4.0)
                } else {
                    None
                },
                asymptotic_savings_pct: 5.0,
                verdict: "upgrade",
            }),
        }
    }

    fn err_row(id: usize) -> SweepRow {
        let mut r = ok_row(id, 0.0);
        r.outcome = Err(crate::ScenarioError::InvalidPue(PueSpec::Constant(0.5)));
        r
    }

    #[test]
    fn top_k_is_sorted_bounded_and_tie_broken_by_id() {
        let mut acc = SummaryAccumulator::new(3);
        for (id, c) in [(0, 5.0), (1, 2.0), (2, 5.0), (3, 9.0), (4, 1.0)] {
            acc.row(&ok_row(id, c)).unwrap();
        }
        let top: Vec<(usize, f64)> = acc
            .top()
            .iter()
            .map(|r| (r.scenario.id, r.outcome.as_ref().unwrap().sched_carbon_kg))
            .collect();
        assert_eq!(top, vec![(4, 1.0), (1, 2.0), (0, 5.0)]);
    }

    #[test]
    fn summary_counts_only_defined_metrics() {
        let mut acc = SummaryAccumulator::new(1);
        for id in 0..4 {
            acc.row(&ok_row(id, 1.0)).unwrap();
        }
        acc.row(&err_row(4)).unwrap();
        assert_eq!(acc.ok_count(), 4);
        assert_eq!(acc.error_count(), 1);
        let s = acc.summary();
        let embodied = s.iter().find(|m| m.metric == "embodied_t").unwrap();
        assert_eq!(embodied.count, 4);
        assert_eq!(embodied.min, 10.0);
        assert_eq!(embodied.max, 13.0);
        assert_eq!(embodied.mean, 11.5);
        // break_even_y defined on even ids only.
        let be = s.iter().find(|m| m.metric == "break_even_y").unwrap();
        assert_eq!(be.count, 2);
    }

    #[test]
    fn all_error_stream_yields_empty_summary_and_top() {
        let mut acc = SummaryAccumulator::new(5);
        for id in 0..3 {
            acc.row(&err_row(id)).unwrap();
        }
        assert!(acc.summary().is_empty());
        assert!(acc.top().is_empty());
        assert_eq!(acc.error_count(), 3);
    }
}
