//! Operational carbon — Eq. 6 of the paper, plus PUE handling.
//!
//! `C_op = I_sys · E_op`, where `E_op` is "the product of the IC component
//! energy and the HPC system power-usage-effectiveness (PUE), which we set
//! to a constant across all systems we characterize".

use hpcarbon_units::{CarbonIntensity, CarbonMass, Energy};

/// Power-usage-effectiveness: facility energy divided by IT energy.
///
/// Always ≥ 1.0 (a PUE below one would mean the facility consumes less
/// than its IT load). The workspace default mirrors a modern, efficient
/// HPC facility.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Pue(f64);

impl Pue {
    /// The constant PUE used across all characterized systems (the paper
    /// fixes one constant; 1.2 is representative of recent HPC facilities).
    pub const DEFAULT: Pue = Pue(1.2);

    /// Creates a PUE value.
    ///
    /// # Panics
    /// If `value < 1.0` or not finite.
    pub fn new(value: f64) -> Pue {
        assert!(
            value.is_finite() && value >= 1.0,
            "PUE must be finite and >= 1.0, got {value}"
        );
        Pue(value)
    }

    /// The raw multiplier.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Facility-level energy for a given IT-equipment energy.
    pub fn apply(self, it_energy: Energy) -> Energy {
        it_energy * self.0
    }
}

impl Default for Pue {
    fn default() -> Self {
        Pue::DEFAULT
    }
}

/// Eq. 6: operational carbon from IT energy, PUE and grid intensity.
pub fn operational_carbon(it_energy: Energy, pue: Pue, intensity: CarbonIntensity) -> CarbonMass {
    intensity * pue.apply(it_energy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq6_with_pue() {
        // 100 kWh IT × PUE 1.2 × 200 g/kWh = 24 kg.
        let c = operational_carbon(
            Energy::from_kwh(100.0),
            Pue::new(1.2),
            CarbonIntensity::from_g_per_kwh(200.0),
        );
        assert!((c.as_kg() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn unity_pue_is_identity() {
        let e = Energy::from_kwh(50.0);
        assert_eq!(Pue::new(1.0).apply(e).as_kwh(), 50.0);
    }

    #[test]
    #[should_panic(expected = "PUE must be finite and >= 1.0")]
    fn pue_below_one_rejected() {
        let _ = Pue::new(0.9);
    }

    #[test]
    fn higher_intensity_higher_carbon() {
        let e = Energy::from_kwh(10.0);
        let lo = operational_carbon(e, Pue::DEFAULT, CarbonIntensity::from_g_per_kwh(20.0));
        let hi = operational_carbon(e, Pue::DEFAULT, CarbonIntensity::from_g_per_kwh(800.0));
        // Coal vs hydro: 40× difference ("renewable … emit more than 20×
        // less CO2 than … coal").
        assert!((hi / lo - 40.0).abs() < 1e-9);
    }
}
