//! Carbon-aware shifting: how much does *when and where* buy?
//!
//! ```text
//! cargo run --example carbon_shifting
//! ```
//!
//! The paper's §4 argues the biggest operational-carbon lever is moving
//! work into low-intensity hours and regions. This example quantifies it:
//! the same 400-job trace runs under the FIFO baseline and the indexed
//! shifting policies ([`Policy::TemporalShift`], [`Policy::SpatioTemporal`])
//! at several slack levels, on both the paper's simulated region-years and
//! the synthetic generator's, and reports per-policy savings against the
//! run-at-arrival baseline.

use sustainable_hpc::prelude::*;
use sustainable_hpc::report::tables::{shifting_comparison, ShiftingRow};

fn clusters(synthetic: bool, seed: u64) -> Vec<Cluster> {
    let trace = |op| {
        if synthetic {
            synthesize_year(op, 2021, seed)
        } else {
            simulate_year(op, 2021, seed)
        }
    };
    vec![
        Cluster::new("gb-site", trace(OperatorId::Eso), 96),
        Cluster::new("ca-site", trace(OperatorId::Ciso), 96),
    ]
}

fn main() {
    let jobs = JobTraceGenerator::default_rates().generate(400, 7);
    let policies = [
        Policy::Fifo,
        Policy::TemporalShift { slack_hours: 6 },
        Policy::TemporalShift { slack_hours: 24 },
        Policy::TemporalShift { slack_hours: 48 },
        Policy::SpatioTemporal { slack_hours: 24 },
    ];

    for (title, synthetic) in [
        ("paper trace set (dispatch simulation)", false),
        ("synthetic region-years (harmonic generator)", true),
    ] {
        let cs = clusters(synthetic, 7);
        println!("400 jobs over GB + CA — {title}\n");
        let mut rows = Vec::new();
        for policy in policies {
            let out = Simulation::multi_region(cs.clone(), policy, &jobs)
                .try_run()
                .expect("every job fits a site");
            let savings = summarize_shift_savings(&shift_savings(&out, &jobs, &cs));
            rows.push(ShiftingRow {
                policy: match policy.shift_slack_hours() {
                    Some(s) => format!("{} (slack {s} h)", policy.label()),
                    None => policy.label().to_string(),
                },
                carbon_kg: out.total_carbon.as_kg(),
                saved_kg: savings.saved_kg,
                saved_pct: savings.saved_pct,
                mean_wait_h: out.mean_wait_hours,
                max_wait_h: out.max_wait_hours,
                // Planned on the actual trace: no forecast, no oracle gap.
                oracle_saved_kg: None,
                oracle_saved_pct: None,
            });
        }
        println!("{}", shifting_comparison(&rows));
    }

    println!("More slack, more savings — at the price of queue wait; the");
    println!("spatio-temporal policy buys the same carbon for less waiting");
    println!("by also moving jobs across regions. Sweep the full grid with:");
    println!("  hpcarbon sweep --shifting");
}
