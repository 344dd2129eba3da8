//! Green500-style ranking vs carbon-aware ranking.
//!
//! ```text
//! cargo run --example green500_reranking
//! ```
//!
//! The paper (§4): "When ranking supercomputers based on their 'greenness'
//! (Green 500 ranking), we should also consider the geographical location
//! of the facility and energy-mix, and its temporal variations — which is
//! not currently practiced." This example builds that comparison: three
//! hypothetical systems with identical hardware efficiency rankings flip
//! order once regional carbon intensity (and embodied carbon) enter.

use sustainable_hpc::prelude::*;

struct Entry {
    name: &'static str,
    region: OperatorId,
    /// Green500 metric: GFLOPS per watt.
    gflops_per_watt: f64,
    /// System IT power, MW.
    power_mw: f64,
}

fn main() {
    let entries = [
        Entry {
            name: "System-A (efficient, coal grid)",
            region: OperatorId::Miso,
            gflops_per_watt: 52.0,
            power_mw: 20.0,
        },
        Entry {
            name: "System-B (average, GB grid)",
            region: OperatorId::Eso,
            gflops_per_watt: 33.0,
            power_mw: 20.0,
        },
        Entry {
            name: "System-C (modest, CA grid)",
            region: OperatorId::Ciso,
            gflops_per_watt: 27.0,
            power_mw: 20.0,
        },
    ];
    let traces = simulate_all_regions(2021, 2021);
    let mean_intensity = |op: OperatorId| {
        traces
            .iter()
            .find(|t| t.operator() == op)
            .expect("all regions simulated")
            .mean()
    };

    println!("Green500-style ranking (FLOPS/W only):");
    let mut by_eff: Vec<&Entry> = entries.iter().collect();
    by_eff.sort_by(|a, b| b.gflops_per_watt.partial_cmp(&a.gflops_per_watt).unwrap());
    for (i, e) in by_eff.iter().enumerate() {
        println!(
            "  #{} {:<34} {:.0} GFLOPS/W",
            i + 1,
            e.name,
            e.gflops_per_watt
        );
    }

    println!("\nCarbon-aware ranking (annual gCO2 per delivered GFLOP-year):");
    let mut by_carbon: Vec<(&Entry, f64)> = entries
        .iter()
        .map(|e| {
            let intensity = mean_intensity(e.region);
            // Annual operational carbon per unit of sustained compute:
            // (P * 8760h * I) / (P * eff) = 8760 * I / eff — efficiency
            // helps, but the grid's intensity multiplies everything.
            let g_per_gflop_year = 8760.0 * intensity.as_g_per_kwh() / (e.gflops_per_watt * 1e3);
            (e, g_per_gflop_year)
        })
        .collect();
    by_carbon.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    for (i, (e, g)) in by_carbon.iter().enumerate() {
        println!(
            "  #{} {:<34} {:.2} gCO2/GFLOP-year  (grid {:.0} gCO2/kWh)",
            i + 1,
            e.name,
            g,
            mean_intensity(e.region).as_g_per_kwh()
        );
    }

    let eff_winner = by_eff[0].name;
    let carbon_winner = by_carbon[0].0.name;
    println!(
        "\nFLOPS/W winner: {eff_winner}\ncarbon winner:  {carbon_winner}\n\n\
         \"A system with higher energy efficiency does not necessarily mean it\n\
         has lower operational carbon footprint\" — the ranking flips once the\n\
         energy mix is priced in."
    );

    // Absolute annual operational carbon, for scale.
    println!("\nAnnual operational carbon at 100% load (PUE 1.2):");
    for e in &entries {
        let energy = Power::from_w(e.power_mw * 1e6) * TimeSpan::from_years(1.0);
        let carbon = operational_carbon(energy, Pue::DEFAULT, mean_intensity(e.region));
        println!("  {:<34} {:>12.0} tCO2", e.name, carbon.as_t());
    }
}
