//! Regeneration of the paper's Tables 1–6.

use crate::artifact::Artifact;
use crate::emit::{Csv, MarkdownTable};
use hpcarbon_core::db::TABLE1_PARTS;
use hpcarbon_core::systems::HpcSystem;
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_workloads::benchmarks::Suite;
use hpcarbon_workloads::nodes::NodeGen;
use hpcarbon_workloads::perf;

fn month_name(m: u8) -> &'static str {
    [
        "January",
        "February",
        "March",
        "April",
        "May",
        "June",
        "July",
        "August",
        "September",
        "October",
        "November",
        "December",
    ][(m as usize - 1).min(11)]
}

/// Table 1: modeled individual components.
pub fn table1() -> Artifact {
    let mut md = MarkdownTable::new(&["Type", "Component", "Part Name", "Release Date"]);
    let mut csv = Csv::new(&[
        "type",
        "component",
        "part_name",
        "release_year",
        "release_month",
    ]);
    for part in TABLE1_PARTS {
        let s = part.spec();
        md.row([
            s.class.label().to_string(),
            s.component.to_string(),
            s.part_name.to_string(),
            format!("{} {}", month_name(s.release.1), s.release.0),
        ]);
        csv.row([
            s.class.label().to_string(),
            s.component.to_string(),
            s.part_name.to_string(),
            s.release.0.to_string(),
            s.release.1.to_string(),
        ]);
    }
    Artifact::new(
        "table1",
        "Table 1: Modeled individual components",
        md.finish(),
        csv.finish(),
    )
}

/// Table 2: studied HPC systems.
pub fn table2() -> Artifact {
    let mut md = MarkdownTable::new(&["System", "Location", "CPU & GPU", "Cores", "Year"]);
    let mut csv = Csv::new(&["system", "location", "cpu", "gpu", "cores", "year"]);
    for sys in HpcSystem::table2() {
        let cpu = sys
            .inventory
            .iter()
            .find(|(p, _)| p.class == hpcarbon_core::embodied::ComponentClass::Cpu)
            .map(|(p, _)| p.component)
            .unwrap_or("-");
        let gpu = sys
            .inventory
            .iter()
            .find(|(p, _)| p.class == hpcarbon_core::embodied::ComponentClass::Gpu)
            .map(|(p, _)| p.component)
            .unwrap_or("-");
        md.row([
            sys.name.to_string(),
            sys.location.to_string(),
            format!("{cpu}, {gpu}"),
            format!("{}", sys.cores),
            format!("{}", sys.year),
        ]);
        csv.row([
            sys.name.to_string(),
            sys.location.to_string(),
            cpu.to_string(),
            gpu.to_string(),
            sys.cores.to_string(),
            sys.year.to_string(),
        ]);
    }
    Artifact::new(
        "table2",
        "Table 2: Studied HPC systems",
        md.finish(),
        csv.finish(),
    )
}

/// Table 3: independent system operators and regions.
pub fn table3() -> Artifact {
    let mut md = MarkdownTable::new(&["Operator", "Country of Operation", "Region of Operation"]);
    let mut csv = Csv::new(&["short", "name", "country", "region", "timezone"]);
    for op in OperatorId::ALL {
        let info = op.info();
        md.row([
            format!("{} ({})", info.name, info.short),
            info.country.to_string(),
            info.region.to_string(),
        ]);
        csv.row([
            info.short.to_string(),
            info.name.to_string(),
            info.country.to_string(),
            info.region.to_string(),
            format!("{}", info.tz),
        ]);
    }
    Artifact::new(
        "table3",
        "Table 3: Independent system operators and regions",
        md.finish(),
        csv.finish(),
    )
}

/// Table 4: benchmarks and their models.
pub fn table4() -> Artifact {
    let mut md = MarkdownTable::new(&["Benchmark", "Models"]);
    let mut csv = Csv::new(&["suite", "model", "params_m", "train_gflop_per_sample"]);
    for suite in Suite::ALL {
        let models: Vec<&str> = suite.benchmarks().iter().map(|b| b.name).collect();
        md.row([suite.label().to_string(), models.join(", ")]);
        for b in suite.benchmarks() {
            csv.row([
                suite.label().to_string(),
                b.name.to_string(),
                format!("{}", b.params_m),
                format!("{}", b.train_gflop_per_sample),
            ]);
        }
    }
    Artifact::new(
        "table4",
        "Table 4: Benchmarks performed and their respective models",
        md.finish(),
        csv.finish(),
    )
}

/// Table 5: node generations analyzed.
pub fn table5() -> Artifact {
    let mut md = MarkdownTable::new(&["Name", "GPU", "CPU"]);
    let mut csv = Csv::new(&["name", "gpu", "gpu_count", "cpu", "cpu_count"]);
    for node in NodeGen::ALL {
        let c = node.config();
        md.row([
            c.name.to_string(),
            format!("{} x {}", c.gpu_count, c.gpu.spec().name),
            format!("{} x {}", c.cpus.1, c.cpus.0.spec().part_name),
        ]);
        csv.row([
            c.name.to_string(),
            c.gpu.spec().name.to_string(),
            c.gpu_count.to_string(),
            c.cpus.0.spec().part_name.to_string(),
            c.cpus.1.to_string(),
        ]);
    }
    Artifact::new(
        "table5",
        "Table 5: Different generations of nodes analyzed",
        md.finish(),
        csv.finish(),
    )
}

/// Table 6: performance improvement from node upgrades.
pub fn table6() -> Artifact {
    let mut md = MarkdownTable::new(&[
        "Upgrade Option",
        "NLP Improv.",
        "Vision Improv.",
        "CANDLE Improv.",
        "Average Improv.",
    ]);
    let mut csv = Csv::new(&[
        "from",
        "to",
        "nlp_pct",
        "vision_pct",
        "candle_pct",
        "average_pct",
    ]);
    for row in perf::table6() {
        let from = row.from.config().name;
        let to = row.to.config().name;
        md.row([
            format!("{from} to {to}"),
            format!("{:.1}%", row.nlp),
            format!("{:.1}%", row.vision),
            format!("{:.1}%", row.candle),
            format!("{:.1}%", row.average()),
        ]);
        csv.row([
            from.to_string(),
            to.to_string(),
            format!("{:.2}", row.nlp),
            format!("{:.2}", row.vision),
            format!("{:.2}", row.candle),
            format!("{:.2}", row.average()),
        ]);
    }
    Artifact::new(
        "table6",
        "Table 6: Performance improvement from the node upgrade",
        md.finish(),
        csv.finish(),
    )
}

/// One row of the carbon-shifting comparison: a policy and its outcome
/// on the same job trace.
#[derive(Debug, Clone)]
pub struct ShiftingRow {
    /// Policy label.
    pub policy: String,
    /// Total operational carbon, kgCO₂.
    pub carbon_kg: f64,
    /// Carbon saved vs the run-at-arrival baseline, kgCO₂.
    pub saved_kg: f64,
    /// The same savings in percent of the baseline.
    pub saved_pct: f64,
    /// Mean queue wait, hours.
    pub mean_wait_h: f64,
    /// Max queue wait, hours.
    pub max_wait_h: f64,
    /// What perfect knowledge would have saved, kgCO₂ — `None` when
    /// the run planned on the actual trace (no forecast engaged).
    pub oracle_saved_kg: Option<f64>,
    /// Oracle savings in percent of the baseline.
    pub oracle_saved_pct: Option<f64>,
}

/// Renders the shifting comparison as an aligned Markdown table — the
/// terminal view of "what does each policy buy, and what does it cost in
/// queue time" used by `hpcarbon schedule` and the shifting example.
/// When any row carries oracle savings (a forecast run), two extra
/// columns show what perfect knowledge would have bought; forecast-free
/// tables keep the historical six-column layout.
pub fn shifting_comparison(rows: &[ShiftingRow]) -> String {
    let oracle = rows.iter().any(|r| r.oracle_saved_kg.is_some());
    let mut headers = vec![
        "policy",
        "kgCO2",
        "saved kg",
        "saved %",
        "mean wait h",
        "max wait h",
    ];
    if oracle {
        headers.extend(["oracle kg", "oracle %"]);
    }
    let mut md = MarkdownTable::new(&headers);
    let opt = |v: Option<f64>| v.map(|v| format!("{v:.1}")).unwrap_or_default();
    for r in rows {
        let mut cells = vec![
            r.policy.clone(),
            format!("{:.1}", r.carbon_kg),
            format!("{:.1}", r.saved_kg),
            format!("{:.1}", r.saved_pct),
            format!("{:.1}", r.mean_wait_h),
            format!("{:.1}", r.max_wait_h),
        ];
        if oracle {
            cells.push(opt(r.oracle_saved_kg));
            cells.push(opt(r.oracle_saved_pct));
        }
        md.row(cells);
    }
    md.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_nine_components() {
        let a = table1();
        assert_eq!(a.csv.lines().count(), 10); // header + 9
        assert!(a.text.contains("NVIDIA A100 PCIe 40GB"));
        assert!(a.text.contains("Seagate Exos X16 16TB"));
        assert!(a.text.contains("May 2020"));
    }

    #[test]
    fn table2_matches_paper_systems() {
        let a = table2();
        assert!(a.text.contains("Frontier"));
        assert!(a.text.contains("Kajaani, Finland"));
        assert!(a.text.contains("8730112"));
    }

    #[test]
    fn table3_lists_seven_operators() {
        let a = table3();
        assert_eq!(a.csv.lines().count(), 8);
        assert!(a.text.contains("Great Britain"));
        assert!(a.text.contains("ERCOT"));
    }

    #[test]
    fn table4_contains_all_models() {
        let a = table4();
        assert_eq!(a.csv.lines().count(), 16); // header + 15 models
        for name in ["BERT", "ViT", "Combo", "ShuffleNetV2"] {
            assert!(a.text.contains(name) || a.csv.contains(name), "{name}");
        }
    }

    #[test]
    fn table5_lists_three_nodes() {
        let a = table5();
        assert_eq!(a.csv.lines().count(), 4);
        assert!(a.text.contains("4 x NVIDIA Tesla P100 PCIe"));
        assert!(a.text.contains("4 x AMD EPYC 7542 CPU"));
    }

    #[test]
    fn table6_rows_near_paper_values() {
        let a = table6();
        assert_eq!(a.csv.lines().count(), 4);
        assert!(a.text.contains("P100 to V100"));
        assert!(a.text.contains("V100 to A100"));
        // Extract the NLP number of the first row from CSV.
        let row1: Vec<&str> = a.csv.lines().nth(1).unwrap().split(',').collect();
        let nlp: f64 = row1[2].parse().unwrap();
        assert!((nlp - 44.4).abs() < 4.0, "NLP improvement {nlp}");
    }

    #[test]
    fn month_names() {
        assert_eq!(month_name(1), "January");
        assert_eq!(month_name(11), "November");
    }

    fn fifo_row() -> ShiftingRow {
        ShiftingRow {
            policy: "FIFO (carbon-unaware)".into(),
            carbon_kg: 1200.0,
            saved_kg: 0.0,
            saved_pct: 0.0,
            mean_wait_h: 0.0,
            max_wait_h: 0.0,
            oracle_saved_kg: None,
            oracle_saved_pct: None,
        }
    }

    #[test]
    fn shifting_comparison_renders_every_row() {
        let rows = vec![
            fifo_row(),
            ShiftingRow {
                policy: "temporal shift".into(),
                carbon_kg: 800.0,
                saved_kg: 400.0,
                saved_pct: 33.3,
                mean_wait_h: 6.2,
                max_wait_h: 24.0,
                ..fifo_row()
            },
        ];
        let t = shifting_comparison(&rows);
        assert!(t.contains("temporal shift"));
        assert!(t.contains("400.0"));
        assert_eq!(t.lines().count(), 2 + rows.len()); // header + rule + rows
                                                       // Forecast-free tables keep the historical layout.
        assert!(!t.contains("oracle"));
    }

    #[test]
    fn shifting_comparison_grows_oracle_columns_under_a_forecast() {
        let realized = ShiftingRow {
            policy: "temporal shift".into(),
            carbon_kg: 820.0,
            saved_kg: 380.0,
            saved_pct: 31.6,
            mean_wait_h: 6.4,
            max_wait_h: 24.0,
            oracle_saved_kg: Some(400.0),
            oracle_saved_pct: Some(33.3),
        };
        let rows = vec![fifo_row(), realized];
        let t = shifting_comparison(&rows);
        assert!(t.contains("oracle kg") && t.contains("oracle %"));
        assert!(t.contains("400.0") && t.contains("380.0"));
        // Rows without oracle data render empty cells, not zeros.
        let fifo_line = t.lines().find(|l| l.contains("FIFO")).unwrap();
        assert!(!fifo_line.contains("400.0"));
    }
}
