//! Embodied carbon models — Eqs. 2–5 of the paper.
//!
//! The paper splits embodied carbon (Eq. 2) into *manufacturing* carbon
//! (wafer fabrication, chemicals/gases, raw materials — Eq. 3 for
//! processors, Eq. 4 for memory/storage) and *packaging* carbon (Eq. 5,
//! 150 gCO₂ per IC package, per SPIL industry reporting; storage devices
//! use a packaging-to-manufacturing ratio compiled from Seagate
//! sustainability data because IC counting "is non-trivial for storage
//! components").

use hpcarbon_units::{
    CarbonAreaDensity, CarbonMass, CarbonPerCapacity, DataCapacity, Fraction, SiliconArea,
};

/// Per-IC packaging overhead from industry reports (paper Eq. 5; SPIL CSR).
pub const PACKAGING_G_PER_IC: f64 = 150.0;

/// The five device classes the paper analyzes (Figs. 3 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentClass {
    /// Graphics / accelerator devices.
    Gpu,
    /// Central processors.
    Cpu,
    /// Main-memory modules.
    Dram,
    /// Solid-state drives.
    Ssd,
    /// Hard-disk drives.
    Hdd,
}

impl ComponentClass {
    /// The classes in the paper's presentation order.
    pub const ALL: [ComponentClass; 5] = [
        ComponentClass::Gpu,
        ComponentClass::Cpu,
        ComponentClass::Dram,
        ComponentClass::Ssd,
        ComponentClass::Hdd,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ComponentClass::Gpu => "GPU",
            ComponentClass::Cpu => "CPU",
            ComponentClass::Dram => "DRAM",
            ComponentClass::Ssd => "SSD",
            ComponentClass::Hdd => "HDD",
        }
    }

    /// True for the compute classes (CPU/GPU) as opposed to the
    /// memory/storage classes — the split RQ4 analyzes ("memory and
    /// storage have made up approximately 60% of the carbon in Frontier").
    pub fn is_compute(self) -> bool {
        matches!(self, ComponentClass::Gpu | ComponentClass::Cpu)
    }
}

impl core::fmt::Display for ComponentClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The paper's constant fab yield: "set to a constant value of 0.875,
/// consistent with ACT".
pub fn default_fab_yield() -> Fraction {
    Fraction::new_unchecked(0.875)
}

/// The three per-area fab emission terms of Eq. 3.
///
/// - `fpa`: fab carbon emission per unit area (location + lithography)
/// - `gpa`: emissions from chemicals and gases per unit area (lithography)
/// - `mpa`: emissions from raw materials per unit area (lithography)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabDensities {
    /// Fab energy-related carbon per cm².
    pub fpa: CarbonAreaDensity,
    /// Chemicals/gases carbon per cm².
    pub gpa: CarbonAreaDensity,
    /// Raw-materials carbon per cm².
    pub mpa: CarbonAreaDensity,
}

impl FabDensities {
    /// Sum of the three densities.
    pub fn total(&self) -> CarbonAreaDensity {
        self.fpa + self.gpa + self.mpa
    }
}

/// Eq. 3: `M_proc = (FPA + GPA + MPA) · A_die / Yield`.
pub fn processor_manufacturing(
    densities: FabDensities,
    die_area: SiliconArea,
    fab_yield: Fraction,
) -> CarbonMass {
    assert!(
        fab_yield.value() > 0.0,
        "fab yield must be positive (paper uses 0.875)"
    );
    (densities.total() * die_area) / fab_yield.value()
}

/// Eq. 4: `M_m/s = EPC · Capacity`.
pub fn memory_manufacturing(epc: CarbonPerCapacity, capacity: DataCapacity) -> CarbonMass {
    epc * capacity
}

/// Eq. 5: `Packaging = 150 gCO₂ · #ICs`.
pub fn packaging_from_ics(ic_count: u32) -> CarbonMass {
    CarbonMass::from_g(PACKAGING_G_PER_IC * f64::from(ic_count))
}

/// Ratio-based packaging used for storage devices: the paper compiles a
/// packaging-to-manufacturing ratio from vendor sustainability reports
/// because counting ICs on a drive is not meaningful.
pub fn packaging_from_ratio(manufacturing: CarbonMass, ratio: f64) -> CarbonMass {
    assert!(
        ratio.is_finite() && ratio >= 0.0,
        "packaging ratio must be finite and non-negative"
    );
    manufacturing * ratio
}

/// How a part's packaging carbon is modeled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PackagingSpec {
    /// Eq. 5: count of IC packages × 150 gCO₂ (processors, DRAM).
    IcCount(u32),
    /// Storage devices: packaging = ratio × manufacturing carbon.
    ManufacturingRatio(f64),
}

/// Eq. 2's two-way split of embodied carbon.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EmbodiedBreakdown {
    /// Wafer-fab / assembly / test emissions (Eq. 3 or Eq. 4).
    pub manufacturing: CarbonMass,
    /// Chip-packaging emissions (Eq. 5 or ratio form).
    pub packaging: CarbonMass,
}

impl EmbodiedBreakdown {
    /// Builds the breakdown from a manufacturing estimate and the part's
    /// packaging model.
    pub fn from_parts(manufacturing: CarbonMass, packaging: PackagingSpec) -> EmbodiedBreakdown {
        let packaging = match packaging {
            PackagingSpec::IcCount(n) => packaging_from_ics(n),
            PackagingSpec::ManufacturingRatio(r) => packaging_from_ratio(manufacturing, r),
        };
        EmbodiedBreakdown {
            manufacturing,
            packaging,
        }
    }

    /// Eq. 2: total embodied carbon.
    pub fn total(&self) -> CarbonMass {
        self.manufacturing + self.packaging
    }

    /// Fraction of embodied carbon attributable to packaging
    /// (Fig. 3's ring charts).
    pub fn packaging_share(&self) -> Fraction {
        Fraction::saturating(self.packaging / self.total())
    }

    /// Fraction of embodied carbon attributable to manufacturing.
    pub fn manufacturing_share(&self) -> Fraction {
        Fraction::saturating(self.manufacturing / self.total())
    }

    /// Sums breakdowns componentwise (e.g. across the parts of a node).
    pub fn sum<I: IntoIterator<Item = EmbodiedBreakdown>>(iter: I) -> EmbodiedBreakdown {
        iter.into_iter()
            .fold(EmbodiedBreakdown::default(), |acc, b| EmbodiedBreakdown {
                manufacturing: acc.manufacturing + b.manufacturing,
                packaging: acc.packaging + b.packaging,
            })
    }

    /// Scales the breakdown by a count of identical parts.
    pub fn scaled(&self, count: f64) -> EmbodiedBreakdown {
        EmbodiedBreakdown {
            manufacturing: self.manufacturing * count,
            packaging: self.packaging * count,
        }
    }
}

impl core::ops::Add for EmbodiedBreakdown {
    type Output = EmbodiedBreakdown;
    fn add(self, rhs: EmbodiedBreakdown) -> EmbodiedBreakdown {
        EmbodiedBreakdown {
            manufacturing: self.manufacturing + rhs.manufacturing,
            packaging: self.packaging + rhs.packaging,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcarbon_units::CarbonAreaDensity as Cad;

    fn densities(f: f64, g: f64, m: f64) -> FabDensities {
        FabDensities {
            fpa: Cad::from_g_per_cm2(f),
            gpa: Cad::from_g_per_cm2(g),
            mpa: Cad::from_g_per_cm2(m),
        }
    }

    #[test]
    fn eq3_matches_hand_computation() {
        // (1000 + 200 + 300) g/cm2 * 8 cm2 / 0.875 = 13_714.3 g
        let m = processor_manufacturing(
            densities(1000.0, 200.0, 300.0),
            SiliconArea::from_mm2(800.0),
            default_fab_yield(),
        );
        assert!((m.as_g() - 12_000.0 / 0.875).abs() < 1e-6);
    }

    #[test]
    fn eq3_lower_yield_means_more_carbon() {
        let d = densities(1000.0, 200.0, 300.0);
        let a = SiliconArea::from_mm2(500.0);
        let good = processor_manufacturing(d, a, Fraction::new_unchecked(0.95));
        let bad = processor_manufacturing(d, a, Fraction::new_unchecked(0.5));
        assert!(bad > good);
        assert!((bad.as_g() / good.as_g() - 0.95 / 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "yield must be positive")]
    fn eq3_rejects_zero_yield() {
        let _ = processor_manufacturing(
            densities(1.0, 1.0, 1.0),
            SiliconArea::from_mm2(100.0),
            Fraction::ZERO,
        );
    }

    #[test]
    fn eq4_matches_paper_dram_example() {
        // Paper: EPC(DRAM) = 65 gCO2/GB; 64 GB module -> 4.16 kg.
        let m = memory_manufacturing(
            CarbonPerCapacity::from_g_per_gb(65.0),
            DataCapacity::from_gb(64.0),
        );
        assert!((m.as_kg() - 4.16).abs() < 1e-9);
    }

    #[test]
    fn eq4_matches_paper_storage_examples() {
        // SSD: 6.21 g/GB * 3.2 TB = 19.872 kg; HDD: 1.33 g/GB * 16 TB = 21.28 kg.
        let ssd = memory_manufacturing(
            CarbonPerCapacity::from_g_per_gb(6.21),
            DataCapacity::from_tb(3.2),
        );
        assert!((ssd.as_kg() - 19.872).abs() < 1e-9);
        let hdd = memory_manufacturing(
            CarbonPerCapacity::from_g_per_gb(1.33),
            DataCapacity::from_tb(16.0),
        );
        assert!((hdd.as_kg() - 21.28).abs() < 1e-9);
    }

    #[test]
    fn eq5_per_ic() {
        assert_eq!(packaging_from_ics(0).as_g(), 0.0);
        assert_eq!(packaging_from_ics(1).as_g(), 150.0);
        assert_eq!(packaging_from_ics(20).as_kg(), 3.0);
    }

    #[test]
    fn ratio_packaging() {
        let mfg = CarbonMass::from_g(20_000.0);
        let p = packaging_from_ratio(mfg, 0.02);
        assert!((p.as_kg() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "packaging ratio")]
    fn ratio_rejects_negative() {
        let _ = packaging_from_ratio(CarbonMass::from_g(1000.0), -0.1);
    }

    #[test]
    fn breakdown_total_and_shares() {
        let b =
            EmbodiedBreakdown::from_parts(CarbonMass::from_g(4160.0), PackagingSpec::IcCount(20));
        assert!((b.total().as_kg() - 7.16).abs() < 1e-9);
        // DRAM calibration: packaging ~42% of embodied (Fig. 3).
        assert!((b.packaging_share().value() - 0.419).abs() < 0.01);
        assert!((b.manufacturing_share().value() + b.packaging_share().value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_sum_and_scale() {
        let a = EmbodiedBreakdown {
            manufacturing: CarbonMass::from_g(1000.0),
            packaging: CarbonMass::from_g(500.0),
        };
        let b = EmbodiedBreakdown {
            manufacturing: CarbonMass::from_g(2000.0),
            packaging: CarbonMass::from_g(250.0),
        };
        let s = EmbodiedBreakdown::sum([a, b]);
        assert_eq!(s.manufacturing.as_kg(), 3.0);
        assert_eq!(s.packaging.as_kg(), 0.75);
        let scaled = a.scaled(4.0);
        assert_eq!(scaled.total().as_kg(), 6.0);
        let added = a + b;
        assert_eq!(added.total().as_kg(), s.total().as_kg());
    }
}
