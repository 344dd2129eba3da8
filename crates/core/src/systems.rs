//! System inventories — the paper's Table 2 systems and Fig. 5 analysis.
//!
//! Component counts come from public system descriptions:
//!
//! - **Frontier** (OLCF): 9,408 nodes, each 1× EPYC 7763 ("Trento",
//!   modeled as 7763) + 4× MI250X + 512 GB DDR4; Orion file system with a
//!   ~695 PB HDD capacity tier and a ~75 PB NVMe performance tier.
//! - **LUMI** (CSC): LUMI-G 2,978 nodes (1× 7763 + 4× MI250X + 512 GB) and
//!   LUMI-C 1,536 nodes (2× 7763 + 256 GB); LUMI-P 80 PB HDD and LUMI-F
//!   ~7 PB flash.
//! - **Perlmutter** (NERSC): 1,536 GPU nodes (1× 7763 + 4× A100 + 256 GB)
//!   and 3,072 CPU nodes (2× 7763 + 512 GB); 35 PB all-flash Lustre
//!   (no HDD tier — the paper: "Perlmutter deploys an all-flash file
//!   system").
//!
//! The paper deliberately reports only *composition shares*, not absolute
//! magnitudes ("it is not our intent to showcase that one is better than
//! the other"); we follow suit in the regenerated Fig. 5 but expose the
//! absolute numbers for downstream modeling.

use crate::db::{PartId, PartSpec};
use crate::embodied::{ComponentClass, EmbodiedBreakdown};
use hpcarbon_units::{CarbonMass, Fraction};

/// A deployed HPC system: identity plus a bill of materials.
///
/// The inventory carries **resolved part specs**, not just ids: every
/// embodied number downstream (Fig. 5 compositions, the estimator's
/// layer 1, the what-if transforms) reads the spec stored in the
/// inventory. The built-in constructors store [`PartId::spec`] entries,
/// so nothing changes for them — but a system built from a plain-text
/// catalog carries the catalog's own numbers, which is what lets
/// `--catalog` actually drive estimates instead of merely relabeling
/// the hard-coded tables.
#[derive(Debug, Clone)]
pub struct HpcSystem {
    /// System name.
    pub name: &'static str,
    /// Facility location (Table 2's "Location" column).
    pub location: &'static str,
    /// Combined CPU+GPU core count (Table 2's "Cores" column).
    pub cores: u64,
    /// Deployment year (Table 2's "Year" column).
    pub year: u16,
    /// Bill of materials: resolved part spec and unit count.
    pub inventory: Vec<(PartSpec, u64)>,
}

/// Inventory-entry shorthand for the built-in constructors.
fn units(part: PartId, count: u64) -> (PartSpec, u64) {
    (part.spec(), count)
}

impl HpcSystem {
    /// The Frontier supercomputer (Oak Ridge, TN, US — TOP500 #1 in the
    /// paper's reference list, Nov 2022).
    pub fn frontier() -> HpcSystem {
        HpcSystem {
            name: "Frontier",
            location: "Oak Ridge, TN, United States",
            cores: 8_730_112,
            year: 2021,
            inventory: vec![
                units(PartId::CpuEpyc7763, 9_408),
                units(PartId::GpuMi250x, 9_408 * 4),
                // 512 GB/node as 8 × 64 GB DIMMs.
                units(PartId::Dram64gb, 9_408 * 8),
                // Orion: ~695 PB HDD capacity tier on 16 TB drives.
                units(PartId::Hdd16tb, 43_438),
                // Orion: ~75 PB NVMe performance tier on 3.2 TB drives.
                units(PartId::Ssd3_2tb, 23_438),
            ],
        }
    }

    /// The LUMI supercomputer (Kajaani, Finland — TOP500 #3).
    pub fn lumi() -> HpcSystem {
        HpcSystem {
            name: "LUMI",
            location: "Kajaani, Finland",
            cores: 2_220_288,
            year: 2022,
            inventory: vec![
                // LUMI-G: 2,978 nodes × (1 CPU + 4 MI250X + 8 DIMMs);
                // LUMI-C: 1,536 nodes × (2 CPUs + 4 DIMMs).
                units(PartId::CpuEpyc7763, 2_978 + 1_536 * 2),
                units(PartId::GpuMi250x, 2_978 * 4),
                units(PartId::Dram64gb, 2_978 * 8 + 1_536 * 4),
                // LUMI-P: 80 PB HDD.
                units(PartId::Hdd16tb, 5_000),
                // LUMI-F: ~7 PB flash.
                units(PartId::Ssd3_2tb, 2_188),
            ],
        }
    }

    /// The Perlmutter supercomputer (Berkeley, CA, US — TOP500 #8).
    pub fn perlmutter() -> HpcSystem {
        HpcSystem {
            name: "Perlmutter",
            location: "Berkeley, CA, United States",
            cores: 761_856,
            year: 2021,
            inventory: vec![
                // GPU partition: 1,536 nodes × (1 CPU + 4 A100 + 4 DIMMs);
                // CPU partition: 3,072 nodes × (2 CPUs + 8 DIMMs).
                units(PartId::CpuEpyc7763, 1_536 + 3_072 * 2),
                units(PartId::GpuA100Pcie40, 1_536 * 4),
                units(PartId::Dram64gb, 1_536 * 4 + 3_072 * 8),
                // 35 PB all-flash Lustre; no HDD tier.
                units(PartId::Ssd3_2tb, 10_938),
            ],
        }
    }

    /// The paper's three studied systems (Table 2 order).
    pub fn table2() -> Vec<HpcSystem> {
        vec![Self::frontier(), Self::lumi(), Self::perlmutter()]
    }

    /// Total embodied carbon of the full inventory.
    pub fn embodied_total(&self) -> CarbonMass {
        self.embodied_breakdown().total()
    }

    /// Manufacturing/packaging breakdown summed over the inventory.
    pub fn embodied_breakdown(&self) -> EmbodiedBreakdown {
        EmbodiedBreakdown::sum(
            self.inventory
                .iter()
                .map(|(spec, count)| spec.embodied().scaled(*count as f64)),
        )
    }

    /// Embodied carbon grouped by device class — the Fig. 5 ring chart.
    /// Classes missing from the inventory are reported with zero mass
    /// (e.g. Perlmutter's HDD slice).
    pub fn embodied_by_class(&self) -> Vec<(ComponentClass, CarbonMass)> {
        ComponentClass::ALL
            .iter()
            .map(|class| {
                let mass: CarbonMass = self
                    .inventory
                    .iter()
                    .filter(|(spec, _)| spec.class == *class)
                    .map(|(spec, count)| spec.embodied().total() * *count as f64)
                    .sum();
                (*class, mass)
            })
            .collect()
    }

    /// Per-class shares of the total embodied carbon (the Fig. 5 numbers).
    pub fn composition_shares(&self) -> Vec<(ComponentClass, Fraction)> {
        let total = self.embodied_total();
        self.embodied_by_class()
            .into_iter()
            .map(|(class, mass)| (class, Fraction::saturating(mass / total)))
            .collect()
    }

    /// Share of embodied carbon in memory + storage (DRAM+SSD+HDD) — the
    /// RQ4 headline ("approximately 60% of the carbon in Frontier and
    /// Perlmutter, and almost 50% in LUMI").
    pub fn memory_storage_share(&self) -> Fraction {
        let total = self.embodied_total();
        let ms: CarbonMass = self
            .embodied_by_class()
            .into_iter()
            .filter(|(class, _)| !class.is_compute())
            .map(|(_, mass)| mass)
            .sum();
        Fraction::saturating(ms / total)
    }

    /// Number of units of a given part in the inventory.
    pub fn count_of(&self, part: PartId) -> u64 {
        self.inventory
            .iter()
            .filter(|(spec, _)| spec.id == part)
            .map(|(_, c)| *c)
            .sum()
    }

    /// The inventory's resolved spec for `part`, if present.
    pub fn spec_of(&self, part: PartId) -> Option<&PartSpec> {
        self.inventory
            .iter()
            .find(|(spec, _)| spec.id == part)
            .map(|(spec, _)| spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(sys: &HpcSystem, class: ComponentClass) -> f64 {
        sys.composition_shares()
            .into_iter()
            .find(|(c, _)| *c == class)
            .expect("all classes present")
            .1
            .value()
    }

    #[test]
    fn shares_sum_to_one() {
        for sys in HpcSystem::table2() {
            let total: f64 = sys
                .composition_shares()
                .iter()
                .map(|(_, s)| s.value())
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "{}: {total}", sys.name);
        }
    }

    #[test]
    fn frontier_composition_shape() {
        // Fig. 5 Frontier: GPU-dominant (36%), HDD second (30%),
        // DRAM (17%), SSD (12%), CPU smallest (5%).
        let f = HpcSystem::frontier();
        let gpu = share(&f, ComponentClass::Gpu);
        let cpu = share(&f, ComponentClass::Cpu);
        let dram = share(&f, ComponentClass::Dram);
        let ssd = share(&f, ComponentClass::Ssd);
        let hdd = share(&f, ComponentClass::Hdd);
        assert!(gpu > hdd && hdd > dram && dram > ssd && ssd > cpu);
        // "the embodied carbon in GPUs is more than 7× that of the CPUs".
        assert!(gpu / cpu > 7.0, "gpu/cpu = {}", gpu / cpu);
        // Memory+storage ≈ 60% ("approximately 60%"): accept 50-65%.
        let ms = f.memory_storage_share().value();
        assert!((0.50..=0.65).contains(&ms), "mem+storage share {ms}");
    }

    #[test]
    fn lumi_composition_shape() {
        // Fig. 5 LUMI: GPU 42% > DRAM 25% > HDD 15% > CPU 12% > SSD 6%.
        let l = HpcSystem::lumi();
        let gpu = share(&l, ComponentClass::Gpu);
        let cpu = share(&l, ComponentClass::Cpu);
        let dram = share(&l, ComponentClass::Dram);
        let ssd = share(&l, ComponentClass::Ssd);
        let hdd = share(&l, ComponentClass::Hdd);
        assert!(gpu > dram && dram > hdd && hdd > cpu && cpu > ssd);
        // "almost 50%" memory+storage: accept 35-50%.
        let ms = l.memory_storage_share().value();
        assert!((0.35..=0.50).contains(&ms), "mem+storage share {ms}");
    }

    #[test]
    fn perlmutter_composition_shape() {
        // Fig. 5 Perlmutter: no HDD; DRAM ≈ SSD ≈ 30%; CPU/GPU balanced
        // ("a more balanced embodied carbon distribution between CPUs and
        // GPUs").
        let p = HpcSystem::perlmutter();
        let gpu = share(&p, ComponentClass::Gpu);
        let cpu = share(&p, ComponentClass::Cpu);
        let dram = share(&p, ComponentClass::Dram);
        let ssd = share(&p, ComponentClass::Ssd);
        let hdd = share(&p, ComponentClass::Hdd);
        assert_eq!(hdd, 0.0);
        assert!((dram - 0.30).abs() < 0.05, "dram {dram}");
        assert!((ssd - 0.30).abs() < 0.05, "ssd {ssd}");
        // CPU/GPU balance: ratio within [0.6, 1.0].
        let balance = cpu / gpu;
        assert!((0.6..=1.0).contains(&balance), "cpu/gpu balance {balance}");
        // Memory+storage ≈ 60%: accept 55-70%.
        let ms = p.memory_storage_share().value();
        assert!((0.55..=0.70).contains(&ms), "mem+storage share {ms}");
    }

    #[test]
    fn gpus_exceed_cpus_in_every_system() {
        // Fig. 5: "the GPUs have consistently higher embodied carbon
        // footprint than CPUs in all three supercomputers".
        for sys in HpcSystem::table2() {
            assert!(
                share(&sys, ComponentClass::Gpu) > share(&sys, ComponentClass::Cpu),
                "{}",
                sys.name
            );
        }
    }

    #[test]
    fn storage_capacities_match_public_specs() {
        use hpcarbon_units::DataCapacity;
        let f = HpcSystem::frontier();
        let hdd_pb =
            f.count_of(PartId::Hdd16tb) as f64 * PartId::Hdd16tb.spec().capacity.unwrap().as_pb();
        assert!((hdd_pb - 695.0).abs() < 1.0, "Frontier HDD {hdd_pb} PB");
        let ssd_pb =
            f.count_of(PartId::Ssd3_2tb) as f64 * PartId::Ssd3_2tb.spec().capacity.unwrap().as_pb();
        assert!((ssd_pb - 75.0).abs() < 0.5, "Frontier SSD {ssd_pb} PB");
        let p = HpcSystem::perlmutter();
        let pm_ssd =
            p.count_of(PartId::Ssd3_2tb) as f64 * PartId::Ssd3_2tb.spec().capacity.unwrap().as_pb();
        assert!((pm_ssd - 35.0).abs() < 0.5, "Perlmutter SSD {pm_ssd} PB");
        // Sanity on the unit helper itself.
        assert_eq!(DataCapacity::from_tb(1000.0).as_pb(), 1.0);
    }

    #[test]
    fn table2_metadata() {
        let t = HpcSystem::table2();
        assert_eq!(t[0].name, "Frontier");
        assert_eq!(t[0].cores, 8_730_112);
        assert_eq!(t[0].year, 2021);
        assert_eq!(t[1].name, "LUMI");
        assert_eq!(t[1].year, 2022);
        assert_eq!(t[2].name, "Perlmutter");
        assert!(t[2].location.contains("Berkeley"));
    }

    #[test]
    fn embodied_magnitudes_are_plausible() {
        // Absolute scale sanity: thousands of tonnes for leadership systems.
        let f = HpcSystem::frontier().embodied_total();
        assert!(f.as_t() > 2_000.0 && f.as_t() < 6_000.0, "{}", f.as_t());
        let l = HpcSystem::lumi().embodied_total();
        let p = HpcSystem::perlmutter().embodied_total();
        assert!(f > l && l > p);
    }
}
