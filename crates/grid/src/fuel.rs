//! Generation fuels and their life-cycle emission factors.
//!
//! Factors are the IPCC AR5 / UNECE life-cycle medians commonly used by
//! Electricity Maps and the ESO API. The paper's framing: "Sustainable
//! sources of energy such as wind or solar have a carbon intensity of less
//! than 50 gCO2/kWh while non-renewable sources like coal have a carbon
//! intensity of more than 800 gCO2/kWh."

use hpcarbon_units::CarbonIntensity;

/// Generation technologies modeled by the dispatch simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fuel {
    /// Hard coal steam plants.
    Coal,
    /// Combined/open-cycle gas turbines.
    Gas,
    /// Oil/diesel peakers.
    Oil,
    /// Nuclear fission.
    Nuclear,
    /// Hydroelectric (reservoir or run-of-river).
    Hydro,
    /// Onshore/offshore wind.
    Wind,
    /// Utility photovoltaics.
    Solar,
    /// Biomass steam plants.
    Biomass,
    /// Net imports over interconnectors; the factor depends on the
    /// neighbouring grid and is parameterized per region.
    Imports,
}

impl Fuel {
    /// Every fuel, in merit-order-agnostic listing order.
    pub const ALL: [Fuel; 9] = [
        Fuel::Coal,
        Fuel::Gas,
        Fuel::Oil,
        Fuel::Nuclear,
        Fuel::Hydro,
        Fuel::Wind,
        Fuel::Solar,
        Fuel::Biomass,
        Fuel::Imports,
    ];

    /// Life-cycle emission factor (gCO₂e/kWh). For [`Fuel::Imports`] this
    /// is a default; regions override it with their interconnect mix.
    pub fn emission_factor(self) -> CarbonIntensity {
        let g = match self {
            Fuel::Coal => 820.0,
            Fuel::Gas => 490.0,
            Fuel::Oil => 650.0,
            Fuel::Nuclear => 12.0,
            Fuel::Hydro => 24.0,
            Fuel::Wind => 11.0,
            Fuel::Solar => 41.0,
            Fuel::Biomass => 230.0,
            Fuel::Imports => 450.0,
        };
        CarbonIntensity::from_g_per_kwh(g)
    }

    /// True for fuels the paper calls "sustainable sources" (< 50 g/kWh).
    pub fn is_low_carbon(self) -> bool {
        self.emission_factor().as_g_per_kwh() < 50.0
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Fuel::Coal => "coal",
            Fuel::Gas => "gas",
            Fuel::Oil => "oil",
            Fuel::Nuclear => "nuclear",
            Fuel::Hydro => "hydro",
            Fuel::Wind => "wind",
            Fuel::Solar => "solar",
            Fuel::Biomass => "biomass",
            Fuel::Imports => "imports",
        }
    }
}

/// A generation snapshot: GW produced per fuel in one hour.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GenerationMix {
    gw: [f64; 9],
}

impl GenerationMix {
    /// Empty mix.
    pub fn new() -> GenerationMix {
        GenerationMix::default()
    }

    /// Adds `gw` of generation from `fuel`.
    pub fn add(&mut self, fuel: Fuel, gw: f64) {
        debug_assert!(gw >= 0.0, "generation cannot be negative");
        self.gw[Self::index(fuel)] += gw;
    }

    /// Generation from one fuel.
    pub fn get(&self, fuel: Fuel) -> f64 {
        self.gw[Self::index(fuel)]
    }

    /// Total generation.
    pub fn total(&self) -> f64 {
        self.gw.iter().sum()
    }

    /// Share of total generation from `fuel` (0 when nothing generates).
    pub fn share(&self, fuel: Fuel) -> f64 {
        let t = self.total();
        if t > 0.0 {
            self.get(fuel) / t
        } else {
            0.0
        }
    }

    /// Emissions-weighted average intensity of the mix, with a custom
    /// factor for imports.
    pub fn intensity(&self, import_factor: CarbonIntensity) -> CarbonIntensity {
        let total = self.total();
        if total <= 0.0 {
            return CarbonIntensity::from_g_per_kwh(0.0);
        }
        let mut grams = 0.0;
        for fuel in Fuel::ALL {
            let factor = if fuel == Fuel::Imports {
                import_factor
            } else {
                fuel.emission_factor()
            };
            grams += self.get(fuel) * factor.as_g_per_kwh();
        }
        CarbonIntensity::from_g_per_kwh(grams / total)
    }

    /// Scales every fuel's output by `k` (used for renewable curtailment).
    pub fn scaled(&self, k: f64) -> GenerationMix {
        let mut out = *self;
        for v in &mut out.gw {
            *v *= k;
        }
        out
    }

    /// A fuel's slot: [`Fuel::ALL`] lists the fuels in declaration order,
    /// so the discriminant is the position.
    fn index(fuel: Fuel) -> usize {
        fuel as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_intensity_claims_hold() {
        // Wind/solar < 50, coal > 800, and the "20× less" comparison.
        assert!(Fuel::Wind.emission_factor().as_g_per_kwh() < 50.0);
        assert!(Fuel::Solar.emission_factor().as_g_per_kwh() < 50.0);
        assert!(Fuel::Hydro.emission_factor().as_g_per_kwh() < 50.0);
        assert!(Fuel::Coal.emission_factor().as_g_per_kwh() > 800.0);
        let ratio = Fuel::Coal.emission_factor().as_g_per_kwh()
            / Fuel::Hydro.emission_factor().as_g_per_kwh();
        assert!(ratio > 20.0, "coal/hydro = {ratio}");
    }

    #[test]
    fn discriminants_index_all() {
        for (i, fuel) in Fuel::ALL.iter().enumerate() {
            assert_eq!(*fuel as usize, i);
        }
    }

    #[test]
    fn low_carbon_classification() {
        assert!(Fuel::Nuclear.is_low_carbon());
        assert!(Fuel::Wind.is_low_carbon());
        assert!(!Fuel::Gas.is_low_carbon());
        assert!(!Fuel::Biomass.is_low_carbon());
    }

    #[test]
    fn mix_accumulates_and_shares() {
        let mut m = GenerationMix::new();
        m.add(Fuel::Gas, 6.0);
        m.add(Fuel::Wind, 3.0);
        m.add(Fuel::Nuclear, 1.0);
        m.add(Fuel::Gas, 0.0);
        assert_eq!(m.total(), 10.0);
        assert_eq!(m.share(Fuel::Gas), 0.6);
        assert_eq!(m.share(Fuel::Coal), 0.0);
    }

    #[test]
    fn mix_intensity_weighted_average() {
        let mut m = GenerationMix::new();
        m.add(Fuel::Coal, 1.0);
        m.add(Fuel::Wind, 1.0);
        let i = m.intensity(Fuel::Imports.emission_factor());
        assert!((i.as_g_per_kwh() - (820.0 + 11.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn import_factor_override() {
        let mut m = GenerationMix::new();
        m.add(Fuel::Imports, 2.0);
        let clean = m.intensity(CarbonIntensity::from_g_per_kwh(50.0));
        assert!((clean.as_g_per_kwh() - 50.0).abs() < 1e-9);
        let dirty = m.intensity(CarbonIntensity::from_g_per_kwh(700.0));
        assert!((dirty.as_g_per_kwh() - 700.0).abs() < 1e-9);
    }

    #[test]
    fn empty_mix_intensity_is_zero() {
        let m = GenerationMix::new();
        assert_eq!(
            m.intensity(Fuel::Imports.emission_factor()).as_g_per_kwh(),
            0.0
        );
    }

    #[test]
    fn scaling() {
        let mut m = GenerationMix::new();
        m.add(Fuel::Solar, 4.0);
        let half = m.scaled(0.5);
        assert_eq!(half.get(Fuel::Solar), 2.0);
        assert_eq!(half.total(), 2.0);
    }
}
