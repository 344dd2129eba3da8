//! Quickstart: the paper's Eq. 1 pipeline end to end for one GPU.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Computes the embodied carbon of an NVIDIA A100 (Eqs. 2–5), prices a
//! simulated fine-tuning run hour by hour against a Great Britain grid
//! trace (Eq. 6), shifts it into the greenest window, and reports the
//! life-cycle total.

use sustainable_hpc::prelude::*;

fn main() {
    // --- Embodied carbon (production stage) -------------------------------
    let a100 = PartId::GpuA100Pcie40.spec();
    let embodied = a100.embodied();
    println!("== Embodied carbon: {} ==", a100.part_name);
    println!("  manufacturing : {}", embodied.manufacturing);
    println!("  packaging     : {}", embodied.packaging);
    println!(
        "  total         : {}  ({} of it packaging)",
        embodied.total(),
        embodied.packaging_share()
    );
    println!(
        "  per FP64 TFLOPS: {:.2} kgCO2/TFLOPS",
        a100.embodied_per_tflops().expect("GPU has FP64 spec")
    );

    // --- Operational carbon (use stage) ------------------------------------
    // A BERT fine-tune: 20 epochs of 18 min at ~280 W facility-side IT
    // draw (0.084 kWh each), a constant draw over 6 whole hours.
    let trace = simulate_year(OperatorId::Eso, 2021, 42);
    println!("\n== Operational carbon: BERT fine-tune on one A100 ==");
    println!(
        "  grid: {} (annual mean {})",
        OperatorId::Eso.info().name,
        trace.mean()
    );
    let energy = Energy::from_kwh(0.084) * 20.0;
    let hours = 6;

    // The run starts at 18:00 on June 1 (a dirty evening hour). Each hour
    // is priced at that hour's intensity, which for a constant draw over
    // whole hours is the window's mean intensity.
    let start = 24 * 151 + 18;
    let actual = operational_carbon(energy, Pue::DEFAULT, trace.mean_over(start, hours));
    println!("  actual (hourly-priced, evening start): {actual}");

    // Shifting the same run to the greenest window of the next day helps:
    let best = trace.greenest_window(start, 24, hours);
    let shifted = operational_carbon(energy, Pue::DEFAULT, trace.mean_over(best, hours));
    println!(
        "  shifted {}h later into the greenest window: {} ({:+.1}%)",
        best - start,
        shifted,
        100.0 * (shifted.as_g() - actual.as_g()) / actual.as_g()
    );

    // --- Life-cycle total (Eq. 1) -------------------------------------------
    let total = total_carbon(embodied.total(), actual);
    println!("\n== Life-cycle position (Eq. 1) ==");
    println!(
        "  C_total = C_em + C_op = {} + {} = {}",
        embodied.total(),
        actual,
        total
    );
    println!(
        "  (one fine-tune adds {:.3}% on top of the embodied carbon)",
        100.0 * actual.as_g() / embodied.total().as_g()
    );
}
