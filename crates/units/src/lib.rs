//! # hpcarbon-units
//!
//! Dimension-checked physical quantities for HPC carbon accounting.
//!
//! Carbon accounting mixes many units that are dangerously easy to confuse:
//! grams vs. kilograms vs. tonnes of CO₂e, kWh vs. MWh vs. joules,
//! gCO₂/kWh carbon intensity, gCO₂/cm² fab-emission densities, gCO₂/GB
//! manufacturing densities, GB/s bandwidths and TFLOPS compute rates.
//! This crate wraps each dimension in a newtype over `f64` and only permits
//! physically meaningful arithmetic, so unit bugs become type errors.
//!
//! The canonical internal storage units are chosen to match the units used
//! by the SC'23 paper "Toward Sustainable HPC" (Li et al.):
//!
//! | Quantity          | Storage unit | Paper usage                      |
//! |-------------------|--------------|----------------------------------|
//! | [`CarbonMass`]    | gCO₂e        | embodied / operational carbon    |
//! | [`Energy`]        | kWh          | operational energy (Eq. 6)       |
//! | [`Power`]         | W            | device TDP, node draw            |
//! | [`CarbonIntensity`]| gCO₂/kWh    | regional grid intensity (Eq. 6)  |
//! | [`TimeSpan`]      | hours        | amortization horizons            |
//! | [`SiliconArea`]   | mm²          | die area (Eq. 3)                 |
//! | [`CarbonAreaDensity`]| gCO₂/cm² | FPA/GPA/MPA fab densities (Eq. 3)|
//! | [`DataCapacity`]  | GB           | DRAM/SSD/HDD capacity (Eq. 4)    |
//! | [`CarbonPerCapacity`]| gCO₂/GB  | EPC (Eq. 4)                      |
//! | [`Bandwidth`]     | GB/s         | Fig. 2 normalization             |
//! | [`ComputeRate`]   | GFLOPS       | Fig. 1 normalization             |
//!
//! # Example
//!
//! ```
//! use hpcarbon_units::*;
//!
//! // Eq. 6 of the paper: C_op = I_sys * E_op
//! let intensity = CarbonIntensity::from_g_per_kwh(200.0);
//! let energy = Energy::from_kwh(1_000.0);
//! let op_carbon: CarbonMass = intensity * energy;
//! assert_eq!(op_carbon.as_kg(), 200.0);
//!
//! // Power integrated over time is energy.
//! let node = Power::from_w(1_500.0);
//! let year = TimeSpan::from_years(1.0);
//! let annual: Energy = node * year;
//! assert!((annual.as_mwh() - 13.14).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frac;
#[macro_use]
mod macros;
mod quantities;

pub use frac::Fraction;
pub use quantities::*;

/// Hours in the accounting year used throughout the workspace.
///
/// The paper analyzes hourly traces for the year 2021 (a non-leap year),
/// i.e. 365 days × 24 h = 8760 hours.
pub const HOURS_PER_YEAR: f64 = 8760.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq6_operational_carbon() {
        // The README example of the paper's Eq. 6.
        let i = CarbonIntensity::from_g_per_kwh(450.0);
        let e = Energy::from_kwh(2.0);
        assert_eq!((i * e).as_g(), 900.0);
        // Commutative form.
        assert_eq!((e * i).as_g(), 900.0);
    }

    #[test]
    fn power_time_energy_roundtrip() {
        let p = Power::from_w(250.0);
        let t = TimeSpan::from_hours(4.0);
        let e = p * t;
        assert!((e.as_kwh() - 1.0).abs() < 1e-12);
        // Energy / time = power, energy / power = time.
        assert!(((e / t).as_w() - 250.0).abs() < 1e-9);
        assert!(((e / p).as_hours() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn carbon_mass_unit_conversions() {
        let m = CarbonMass::from_g(1_000_000.0);
        assert_eq!(m.as_kg(), 1000.0);
        assert_eq!(m.as_t(), 1.0);
        assert_eq!(CarbonMass::from_g(2500.0).as_kg(), 2.5);
    }

    #[test]
    fn energy_unit_conversions() {
        assert_eq!(Energy::from_kwh(1000.0).as_mwh(), 1.0);
        assert_eq!(Energy::from_wh(500.0).as_kwh(), 0.5);
        assert_eq!(Energy::from_kwh(0.5).as_wh(), 500.0);
    }

    #[test]
    fn area_density_times_area_is_mass() {
        // Eq. 3 shape: (FPA + GPA + MPA) * A_die / yield
        let density = CarbonAreaDensity::from_g_per_cm2(2000.0);
        let area = SiliconArea::from_mm2(826.0); // A100 die
        let mass = density * area;
        assert!((mass.as_kg() - 16.52).abs() < 1e-9);
    }

    #[test]
    fn capacity_density_times_capacity_is_mass() {
        // Eq. 4 shape: EPC * Capacity
        let epc = CarbonPerCapacity::from_g_per_gb(65.0);
        let cap = DataCapacity::from_gb(64.0);
        assert_eq!((epc * cap).as_kg(), 4.16);
    }

    #[test]
    fn per_performance_normalization() {
        // Fig. 1(b) shape: kgCO2 per TFLOPS.
        let m = CarbonMass::from_g(22_000.0);
        let perf = ComputeRate::from_tflops(9.7);
        let per_tf = m.as_kg() / perf.as_tflops();
        assert!((per_tf - 2.268).abs() < 1e-3);
    }

    #[test]
    fn timespan_conversions() {
        assert_eq!(TimeSpan::from_hours(48.0).as_days(), 2.0);
        assert_eq!(TimeSpan::from_years(1.0).as_hours(), HOURS_PER_YEAR);
        assert_eq!(TimeSpan::from_hours(2.0).as_seconds(), 7200.0);
        assert!((TimeSpan::from_hours(8760.0).as_years() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_sum() {
        let a = CarbonMass::from_g(1.0);
        let b = CarbonMass::from_g(2.0);
        assert!(a < b);
        let total: CarbonMass = [a, b, b].into_iter().sum();
        assert_eq!(total.as_g(), 5.0);
    }

    #[test]
    fn scalar_ops() {
        let e = Energy::from_kwh(10.0);
        assert_eq!((e * 2.0).as_kwh(), 20.0);
        assert_eq!((e / 4.0).as_kwh(), 2.5);
        assert_eq!(e / Energy::from_kwh(2.5), 4.0);
        let mut acc = Energy::ZERO;
        acc += e;
        acc -= Energy::from_kwh(3.0);
        assert_eq!(acc.as_kwh(), 7.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", CarbonMass::from_g(12_500.0)), "12.50 kgCO2");
        assert_eq!(format!("{}", Energy::from_kwh(3.25)), "3.25 kWh");
        assert_eq!(format!("{}", Power::from_w(250.0)), "250.0 W");
        assert_eq!(
            format!("{}", CarbonIntensity::from_g_per_kwh(199.5)),
            "199.5 gCO2/kWh"
        );
    }

    #[test]
    fn bandwidth_and_compute_rate() {
        let bw = Bandwidth::from_gbps(1600.0);
        assert_eq!(bw.as_gbps(), 1600.0);
        let cr = ComputeRate::from_gflops(9700.0);
        assert_eq!(cr.as_tflops(), 9.7);
        assert_eq!(ComputeRate::from_tflops(47.9).as_gflops(), 47900.0);
    }

    #[test]
    fn intensity_from_energy_and_mass() {
        // Reverse derivation: observed gCO2 over observed kWh.
        let m = CarbonMass::from_g(500.0);
        let e = Energy::from_kwh(2.0);
        let i = m / e;
        assert_eq!(i.as_g_per_kwh(), 250.0);
    }
}
