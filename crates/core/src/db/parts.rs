//! The part catalog: Table 1 + Table 5 components with model inputs.

use crate::db::ProcessNode;
use crate::embodied::{
    default_fab_yield, memory_manufacturing, processor_manufacturing, ComponentClass,
    EmbodiedBreakdown, FabDensities, PackagingSpec,
};
use hpcarbon_units::{
    Bandwidth, CarbonMass, CarbonPerCapacity, ComputeRate, DataCapacity, Power, SiliconArea,
};

/// Component vendors appearing in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Vendor {
    Nvidia,
    Amd,
    Intel,
    SkHynix,
    Seagate,
}

/// The embodied-model inputs of a part: Eq. 3 inputs for processors,
/// Eq. 4 inputs for memory/storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EmbodiedInputs {
    /// A logic die (or chiplet complex) fabbed on `node` with total
    /// carbon-relevant area `die_area` (Eq. 3).
    Processor {
        /// Carbon-relevant die area.
        die_area: SiliconArea,
        /// Process node (identity/label; Table 1's "Process Node" column).
        node: ProcessNode,
        /// The FPA/GPA/MPA densities Eq. 3 actually runs with. For the
        /// built-in catalog these are [`ProcessNode::fab_densities`];
        /// a plain-text catalog resolves them from its own node entities,
        /// so editing a node file changes every part fabbed on it.
        densities: FabDensities,
    },
    /// A memory or storage device with vendor-reported emission-per-capacity
    /// (Eq. 4).
    MemoryStorage {
        /// Vendor EPC (gCO₂/GB).
        epc: CarbonPerCapacity,
    },
}

impl EmbodiedInputs {
    /// Eq. 3 inputs for a die fabbed on `node`, with the densities
    /// resolved from the built-in node table — the constructor every
    /// hard-coded Table 1 entry uses.
    ///
    /// ```
    /// use hpcarbon_core::db::{EmbodiedInputs, ProcessNode};
    /// use hpcarbon_units::SiliconArea;
    ///
    /// let inputs = EmbodiedInputs::on_node(SiliconArea::from_mm2(826.0), ProcessNode::N7);
    /// let EmbodiedInputs::Processor { densities, .. } = inputs else { unreachable!() };
    /// assert_eq!(densities, ProcessNode::N7.fab_densities());
    /// ```
    pub fn on_node(die_area: SiliconArea, node: ProcessNode) -> EmbodiedInputs {
        EmbodiedInputs::Processor {
            die_area,
            node,
            densities: node.fab_densities(),
        }
    }
}

/// A catalog entry: identity, embodied-model inputs and performance/power
/// datasheet figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartSpec {
    /// Catalog identifier.
    pub id: PartId,
    /// Device class (GPU/CPU/DRAM/SSD/HDD).
    pub class: ComponentClass,
    /// The "Component" column of the paper's Table 1 (short name).
    pub component: &'static str,
    /// The "Part Name" column of the paper's Table 1 (full SKU).
    pub part_name: &'static str,
    /// Vendor.
    pub vendor: Vendor,
    /// Release (year, month) per Table 1.
    pub release: (u16, u8),
    /// Embodied-model inputs.
    pub embodied_inputs: EmbodiedInputs,
    /// Packaging model (Eq. 5 IC count, or ratio for storage).
    pub packaging: PackagingSpec,
    /// Device capacity for memory/storage parts.
    pub capacity: Option<DataCapacity>,
    /// Theoretical peak FP64 rate (Fig. 1's normalization basis).
    pub fp64_peak: Option<ComputeRate>,
    /// Sustained bandwidth (Fig. 2's normalization basis): HBM bandwidth
    /// for GPUs, module bandwidth for DRAM, interface/sustained transfer
    /// rate for SSD/HDD.
    pub bandwidth: Option<Bandwidth>,
    /// Board/package power limit.
    pub tdp: Option<Power>,
    /// Idle power draw.
    pub idle_power: Option<Power>,
}

impl PartSpec {
    /// Eq. 3 / Eq. 4 manufacturing carbon for one unit.
    pub fn manufacturing(&self) -> CarbonMass {
        match self.embodied_inputs {
            EmbodiedInputs::Processor {
                die_area,
                node: _,
                densities,
            } => processor_manufacturing(densities, die_area, default_fab_yield()),
            EmbodiedInputs::MemoryStorage { epc } => {
                let cap = self
                    .capacity
                    // lint: allow(panic-in-library) -- table invariant, asserted by the db unit tests: every MemoryStorage part row sets `capacity`
                    .expect("memory/storage parts always declare capacity");
                memory_manufacturing(epc, cap)
            }
        }
    }

    /// Eq. 2 embodied breakdown (manufacturing + packaging) for one unit.
    pub fn embodied(&self) -> EmbodiedBreakdown {
        EmbodiedBreakdown::from_parts(self.manufacturing(), self.packaging)
    }

    /// Embodied carbon normalized to FP64 performance, in kgCO₂/TFLOPS
    /// (Fig. 1b). `None` for parts without a documented FP64 rate.
    pub fn embodied_per_tflops(&self) -> Option<f64> {
        let perf = self.fp64_peak?;
        Some(self.embodied().total().as_kg() / perf.as_tflops())
    }

    /// Embodied carbon normalized to bandwidth, in kgCO₂/(GB/s) (Fig. 2b).
    pub fn embodied_per_bandwidth(&self) -> Option<f64> {
        let bw = self.bandwidth?;
        Some(self.embodied().total().as_kg() / bw.as_gbps())
    }
}

/// Identifier for every part in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PartId {
    /// NVIDIA A100 PCIe 40 GB (Table 1).
    GpuA100Pcie40,
    /// AMD Instinct MI250X (Table 1; Frontier/LUMI GPU).
    GpuMi250x,
    /// NVIDIA V100 SXM2 32 GB (Table 1; Table 5 V100 node).
    GpuV100Sxm2_32,
    /// NVIDIA Tesla P100 PCIe 16 GB (Table 5 P100 node).
    GpuP100Pcie16,
    /// AMD EPYC 7763 (Table 1; Frontier/LUMI/Perlmutter CPU).
    CpuEpyc7763,
    /// AMD EPYC 7742 (Table 1).
    CpuEpyc7742,
    /// Intel Xeon Gold 6240R (Table 1; Table 5 V100 node).
    CpuXeonGold6240r,
    /// Intel Xeon E5-2680 v4 (Table 5 P100 node).
    CpuXeonE5_2680v4,
    /// AMD EPYC 7542 (Table 5 A100 node).
    CpuEpyc7542,
    /// SK Hynix 64 GB DDR4 RDIMM (Table 1).
    Dram64gb,
    /// 32 GB DDR4 RDIMM (Table 5 node memory).
    Dram32gb,
    /// Seagate Nytro 3530 3.2 TB SAS SSD (Table 1).
    Ssd3_2tb,
    /// Seagate Exos X16 16 TB HDD (Table 1).
    Hdd16tb,
}

impl PartId {
    /// Returns the full catalog entry for this part.
    ///
    /// Constant provenance (see module docs): die areas and datasheet
    /// figures are public; IC counts are calibrated so the class-average
    /// packaging shares land on the paper's Fig. 3 rings (GPU ≈ 15%,
    /// CPU ≈ 7%, DRAM ≈ 42%, SSD/HDD ≈ 2%).
    pub fn spec(self) -> PartSpec {
        match self {
            // --- GPUs ----------------------------------------------------
            // GA100: 826 mm² on TSMC N7. 9.7 FP64 TFLOPS, 1555 GB/s HBM2.
            // 21 IC packages ≈ GPU + 5 HBM stacks + board power/controller
            // ICs on the PCIe card.
            PartId::GpuA100Pcie40 => PartSpec {
                id: self,
                class: ComponentClass::Gpu,
                component: "NVIDIA A100",
                part_name: "NVIDIA A100 PCIe 40GB",
                vendor: Vendor::Nvidia,
                release: (2020, 5),
                embodied_inputs: EmbodiedInputs::on_node(
                    SiliconArea::from_mm2(826.0),
                    ProcessNode::N7,
                ),
                packaging: PackagingSpec::IcCount(21),
                capacity: Some(DataCapacity::from_gb(40.0)),
                fp64_peak: Some(ComputeRate::from_tflops(9.7)),
                bandwidth: Some(Bandwidth::from_gbps(1555.0)),
                tdp: Some(Power::from_w(250.0)),
                idle_power: Some(Power::from_w(55.0)),
            },
            // Two ~724 mm² GCDs on TSMC N6 (total 1448 mm²). 47.9 vector
            // FP64 TFLOPS ("almost 5× higher peak FP64 than A100" — paper),
            // 3277 GB/s HBM2e. 38 ICs ≈ 2 GCDs + 8 HBM stacks + OAM board
            // ICs.
            PartId::GpuMi250x => PartSpec {
                id: self,
                class: ComponentClass::Gpu,
                component: "AMD MI250X",
                part_name: "AMD INSTINCT MI250X",
                vendor: Vendor::Amd,
                release: (2021, 11),
                embodied_inputs: EmbodiedInputs::on_node(
                    SiliconArea::from_mm2(1448.0),
                    ProcessNode::N6,
                ),
                packaging: PackagingSpec::IcCount(38),
                capacity: Some(DataCapacity::from_gb(128.0)),
                fp64_peak: Some(ComputeRate::from_tflops(47.9)),
                bandwidth: Some(Bandwidth::from_gbps(3277.0)),
                tdp: Some(Power::from_w(560.0)),
                idle_power: Some(Power::from_w(90.0)),
            },
            // GV100: 815 mm² on TSMC 12FFN. 7.8 FP64 TFLOPS, 900 GB/s HBM2.
            PartId::GpuV100Sxm2_32 => PartSpec {
                id: self,
                class: ComponentClass::Gpu,
                component: "NVIDIA V100",
                part_name: "NVIDIA V100 SXM2 32GB",
                vendor: Vendor::Nvidia,
                release: (2018, 3),
                embodied_inputs: EmbodiedInputs::on_node(
                    SiliconArea::from_mm2(815.0),
                    ProcessNode::N12,
                ),
                packaging: PackagingSpec::IcCount(18),
                capacity: Some(DataCapacity::from_gb(32.0)),
                fp64_peak: Some(ComputeRate::from_tflops(7.8)),
                bandwidth: Some(Bandwidth::from_gbps(900.0)),
                tdp: Some(Power::from_w(300.0)),
                idle_power: Some(Power::from_w(40.0)),
            },
            // GP100: 610 mm² on TSMC 16FF. 4.7 FP64 TFLOPS, 732 GB/s HBM2.
            PartId::GpuP100Pcie16 => PartSpec {
                id: self,
                class: ComponentClass::Gpu,
                component: "NVIDIA P100",
                part_name: "NVIDIA Tesla P100 PCIe 16GB",
                vendor: Vendor::Nvidia,
                release: (2016, 6),
                embodied_inputs: EmbodiedInputs::on_node(
                    SiliconArea::from_mm2(610.0),
                    ProcessNode::N16,
                ),
                packaging: PackagingSpec::IcCount(14),
                capacity: Some(DataCapacity::from_gb(16.0)),
                fp64_peak: Some(ComputeRate::from_tflops(4.7)),
                bandwidth: Some(Bandwidth::from_gbps(732.0)),
                tdp: Some(Power::from_w(250.0)),
                idle_power: Some(Power::from_w(30.0)),
            },
            // --- CPUs ----------------------------------------------------
            // Milan: 8 N7 CCDs + N12 IOD. The carbon-relevant area below is
            // the yielded-equivalent compute silicon (chiplets yield far
            // better than monolithic dies of equal total area); calibrated
            // against Fig. 1's GPU-vs-CPU gap. FP64 peak: 64 c × 2.45 GHz ×
            // 16 DP FLOP/cycle ≈ 2.51 TFLOPS.
            PartId::CpuEpyc7763 => PartSpec {
                id: self,
                class: ComponentClass::Cpu,
                component: "AMD EPYC 7763",
                part_name: "AMD EPYC 7763 CPU",
                vendor: Vendor::Amd,
                release: (2021, 3),
                embodied_inputs: EmbodiedInputs::on_node(
                    SiliconArea::from_mm2(507.0),
                    ProcessNode::N7,
                ),
                packaging: PackagingSpec::IcCount(6),
                capacity: None,
                fp64_peak: Some(ComputeRate::from_tflops(2.51)),
                bandwidth: None,
                tdp: Some(Power::from_w(280.0)),
                idle_power: Some(Power::from_w(70.0)),
            },
            // Rome 64-core: 64 c × 2.25 GHz × 16 ≈ 2.30 TFLOPS.
            PartId::CpuEpyc7742 => PartSpec {
                id: self,
                class: ComponentClass::Cpu,
                component: "AMD EPYC 7742",
                part_name: "AMD EPYC 7742 CPU",
                vendor: Vendor::Amd,
                release: (2019, 8),
                embodied_inputs: EmbodiedInputs::on_node(
                    SiliconArea::from_mm2(490.0),
                    ProcessNode::N7,
                ),
                packaging: PackagingSpec::IcCount(6),
                capacity: None,
                fp64_peak: Some(ComputeRate::from_tflops(2.30)),
                bandwidth: None,
                tdp: Some(Power::from_w(225.0)),
                idle_power: Some(Power::from_w(60.0)),
            },
            // Cascade Lake 24-core XCC die (~754 mm² on Intel 14 nm).
            // FP64 peak: 24 c × 2.4 GHz × 32 (2×AVX-512 FMA) ≈ 1.84 TFLOPS.
            PartId::CpuXeonGold6240r => PartSpec {
                id: self,
                class: ComponentClass::Cpu,
                component: "Intel Xeon Gold 6240R",
                part_name: "Intel Xeon Gold 6240R CPU",
                vendor: Vendor::Intel,
                release: (2020, 2),
                embodied_inputs: EmbodiedInputs::on_node(
                    SiliconArea::from_mm2(754.0),
                    ProcessNode::N14,
                ),
                packaging: PackagingSpec::IcCount(5),
                capacity: None,
                fp64_peak: Some(ComputeRate::from_tflops(1.843)),
                bandwidth: None,
                tdp: Some(Power::from_w(165.0)),
                idle_power: Some(Power::from_w(45.0)),
            },
            // Broadwell-EP 14-core: 14 c × 2.4 GHz × 16 ≈ 0.54 TFLOPS.
            PartId::CpuXeonE5_2680v4 => PartSpec {
                id: self,
                class: ComponentClass::Cpu,
                component: "Intel Xeon E5-2680",
                part_name: "Intel Xeon E5-2680 v4 CPU",
                vendor: Vendor::Intel,
                release: (2016, 3),
                embodied_inputs: EmbodiedInputs::on_node(
                    SiliconArea::from_mm2(456.0),
                    ProcessNode::N14,
                ),
                packaging: PackagingSpec::IcCount(4),
                capacity: None,
                fp64_peak: Some(ComputeRate::from_tflops(0.538)),
                bandwidth: None,
                tdp: Some(Power::from_w(120.0)),
                idle_power: Some(Power::from_w(35.0)),
            },
            // Rome 32-core: 32 c × 2.9 GHz × 16 ≈ 1.49 TFLOPS.
            PartId::CpuEpyc7542 => PartSpec {
                id: self,
                class: ComponentClass::Cpu,
                component: "AMD EPYC 7542",
                part_name: "AMD EPYC 7542 CPU",
                vendor: Vendor::Amd,
                release: (2019, 8),
                embodied_inputs: EmbodiedInputs::on_node(
                    SiliconArea::from_mm2(420.0),
                    ProcessNode::N7,
                ),
                packaging: PackagingSpec::IcCount(5),
                capacity: None,
                fp64_peak: Some(ComputeRate::from_tflops(1.486)),
                bandwidth: None,
                tdp: Some(Power::from_w(225.0)),
                idle_power: Some(Power::from_w(55.0)),
            },
            // --- Memory --------------------------------------------------
            // Paper: EPC(DRAM) = 65 gCO₂/GB from SK Hynix sustainability
            // reporting. A 64 GB DDR4-3200 RDIMM carries ~20 IC packages
            // (18 DRAM chips + register/buffer) → packaging ≈ 42% of
            // embodied, matching Fig. 3's DRAM ring. 25.6 GB/s per module.
            PartId::Dram64gb => PartSpec {
                id: self,
                class: ComponentClass::Dram,
                component: "DRAM 64GB",
                part_name: "SK Hynix 64GB DDR4",
                vendor: Vendor::SkHynix,
                release: (2020, 10),
                embodied_inputs: EmbodiedInputs::MemoryStorage {
                    epc: CarbonPerCapacity::from_g_per_gb(65.0),
                },
                packaging: PackagingSpec::IcCount(20),
                capacity: Some(DataCapacity::from_gb(64.0)),
                fp64_peak: None,
                bandwidth: Some(Bandwidth::from_gbps(25.6)),
                tdp: Some(Power::from_w(5.0)),
                idle_power: Some(Power::from_w(2.0)),
            },
            PartId::Dram32gb => PartSpec {
                id: self,
                class: ComponentClass::Dram,
                component: "DRAM 32GB",
                part_name: "SK Hynix 32GB DDR4",
                vendor: Vendor::SkHynix,
                release: (2018, 6),
                embodied_inputs: EmbodiedInputs::MemoryStorage {
                    epc: CarbonPerCapacity::from_g_per_gb(65.0),
                },
                packaging: PackagingSpec::IcCount(10),
                capacity: Some(DataCapacity::from_gb(32.0)),
                fp64_peak: None,
                bandwidth: Some(Bandwidth::from_gbps(25.6)),
                tdp: Some(Power::from_w(3.0)),
                idle_power: Some(Power::from_w(1.5)),
            },
            // --- Storage -------------------------------------------------
            // Paper: EPC(SSD) = 6.21 gCO₂/GB; packaging via the
            // packaging-to-manufacturing ratio compiled from Seagate's
            // product sustainability pages (≈2% of embodied). Bandwidth is
            // single-port sustained SAS-12 transfer (~1.1 GB/s).
            PartId::Ssd3_2tb => PartSpec {
                id: self,
                class: ComponentClass::Ssd,
                component: "SSD 3.2TB",
                part_name: "Seagate Nytro 3530 3.2TB",
                vendor: Vendor::Seagate,
                release: (2018, 10),
                embodied_inputs: EmbodiedInputs::MemoryStorage {
                    epc: CarbonPerCapacity::from_g_per_gb(6.21),
                },
                packaging: PackagingSpec::ManufacturingRatio(0.0204),
                capacity: Some(DataCapacity::from_tb(3.2)),
                fp64_peak: None,
                bandwidth: Some(Bandwidth::from_gbps(1.1)),
                tdp: Some(Power::from_w(11.5)),
                idle_power: Some(Power::from_w(5.0)),
            },
            // Paper: EPC(HDD) = 1.33 gCO₂/GB; Exos X16 sustains 261 MB/s.
            PartId::Hdd16tb => PartSpec {
                id: self,
                class: ComponentClass::Hdd,
                component: "HDD 16TB",
                part_name: "Seagate Exos X16 16TB",
                vendor: Vendor::Seagate,
                release: (2019, 6),
                embodied_inputs: EmbodiedInputs::MemoryStorage {
                    epc: CarbonPerCapacity::from_g_per_gb(1.33),
                },
                packaging: PackagingSpec::ManufacturingRatio(0.0204),
                capacity: Some(DataCapacity::from_tb(16.0)),
                fp64_peak: None,
                bandwidth: Some(Bandwidth::from_mbps(261.0)),
                tdp: Some(Power::from_w(10.0)),
                idle_power: Some(Power::from_w(5.6)),
            },
        }
    }

    /// Short display label (the Table 1 "Component" column).
    pub fn label(self) -> &'static str {
        self.spec().component
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_embodied_in_expected_band() {
        let em = PartId::GpuA100Pcie40.spec().embodied();
        assert!((em.total().as_kg() - 22.0).abs() < 1.0, "{}", em.total());
        assert!((em.packaging_share().value() - 0.145).abs() < 0.02);
    }

    #[test]
    fn mi250x_is_heaviest_gpu_and_best_per_flop() {
        // Fig. 1: MI250X has the highest embodied carbon but the lowest
        // per-TFLOPS embodied carbon of all devices.
        let gpus = [
            PartId::GpuMi250x,
            PartId::GpuA100Pcie40,
            PartId::GpuV100Sxm2_32,
        ];
        let mi = PartId::GpuMi250x.spec();
        for g in gpus {
            let s = g.spec();
            assert!(mi.embodied().total() >= s.embodied().total());
            assert!(mi.embodied_per_tflops().unwrap() <= s.embodied_per_tflops().unwrap());
        }
        assert!(mi.embodied().total().as_kg() > 35.0 && mi.embodied().total().as_kg() < 45.0);
    }

    #[test]
    fn every_table1_gpu_exceeds_every_table1_cpu() {
        // Fig. 1(a): "each GPU device has higher embodied carbon than the
        // CPU devices by up to 3.4×".
        let gpus = [
            PartId::GpuMi250x,
            PartId::GpuA100Pcie40,
            PartId::GpuV100Sxm2_32,
        ];
        let cpus = [
            PartId::CpuEpyc7763,
            PartId::CpuEpyc7742,
            PartId::CpuXeonGold6240r,
        ];
        let min_gpu = gpus
            .iter()
            .map(|g| g.spec().embodied().total().as_kg())
            .fold(f64::INFINITY, f64::min);
        let max_cpu = cpus
            .iter()
            .map(|c| c.spec().embodied().total().as_kg())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(min_gpu > max_cpu, "min GPU {min_gpu} vs max CPU {max_cpu}");

        let max_gpu = gpus
            .iter()
            .map(|g| g.spec().embodied().total().as_kg())
            .fold(f64::NEG_INFINITY, f64::max);
        let min_cpu = cpus
            .iter()
            .map(|c| c.spec().embodied().total().as_kg())
            .fold(f64::INFINITY, f64::min);
        let ratio = max_gpu / min_cpu;
        assert!((ratio - 3.4).abs() < 0.25, "max/min ratio = {ratio}");
    }

    #[test]
    fn per_tflops_trend_reverses() {
        // Fig. 1(b): every CPU has higher embodied-per-TFLOPS than every GPU.
        let gpus = [
            PartId::GpuMi250x,
            PartId::GpuA100Pcie40,
            PartId::GpuV100Sxm2_32,
        ];
        let cpus = [
            PartId::CpuEpyc7763,
            PartId::CpuEpyc7742,
            PartId::CpuXeonGold6240r,
        ];
        let max_gpu = gpus
            .iter()
            .map(|g| g.spec().embodied_per_tflops().unwrap())
            .fold(f64::NEG_INFINITY, f64::max);
        let min_cpu = cpus
            .iter()
            .map(|c| c.spec().embodied_per_tflops().unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!(min_cpu > max_gpu, "CPU {min_cpu} must exceed GPU {max_gpu}");
    }

    #[test]
    fn mi250x_fp64_is_about_5x_a100() {
        let mi = PartId::GpuMi250x.spec().fp64_peak.unwrap().as_tflops();
        let a100 = PartId::GpuA100Pcie40.spec().fp64_peak.unwrap().as_tflops();
        assert!((mi / a100 - 4.94).abs() < 0.1);
    }

    #[test]
    fn memory_storage_embodied_in_5_to_25_kg_band() {
        // Fig. 2(a): "each DRAM/SSD/HDD device has an embodied carbon of
        // 5 to 25 kgCO2".
        for p in [PartId::Dram64gb, PartId::Ssd3_2tb, PartId::Hdd16tb] {
            let t = p.spec().embodied().total().as_kg();
            assert!((5.0..=25.0).contains(&t), "{p:?}: {t}");
        }
    }

    #[test]
    fn per_bandwidth_ordering_hdd_ssd_dram() {
        // Fig. 2(b): HDD >> SSD >> DRAM per unit bandwidth.
        let dram = PartId::Dram64gb.spec().embodied_per_bandwidth().unwrap();
        let ssd = PartId::Ssd3_2tb.spec().embodied_per_bandwidth().unwrap();
        let hdd = PartId::Hdd16tb.spec().embodied_per_bandwidth().unwrap();
        assert!(hdd > 4.0 * ssd, "hdd={hdd} ssd={ssd}");
        assert!(ssd > 10.0 * dram, "ssd={ssd} dram={dram}");
        assert!((hdd - 83.0).abs() < 5.0, "hdd={hdd}");
    }

    #[test]
    fn packaging_shares_match_fig3() {
        // Class-average packaging shares: GPU ≈15%, CPU ≈7%, DRAM ≈42%,
        // SSD ≈2%, HDD ≈2%.
        let avg_share = |parts: &[PartId]| {
            let mfg: f64 = parts
                .iter()
                .map(|p| p.spec().embodied().manufacturing.as_kg())
                .sum();
            let pack: f64 = parts
                .iter()
                .map(|p| p.spec().embodied().packaging.as_kg())
                .sum();
            pack / (mfg + pack)
        };
        let gpu = avg_share(&[
            PartId::GpuMi250x,
            PartId::GpuA100Pcie40,
            PartId::GpuV100Sxm2_32,
        ]);
        let cpu = avg_share(&[
            PartId::CpuEpyc7763,
            PartId::CpuEpyc7742,
            PartId::CpuXeonGold6240r,
        ]);
        let dram = avg_share(&[PartId::Dram64gb]);
        let ssd = avg_share(&[PartId::Ssd3_2tb]);
        let hdd = avg_share(&[PartId::Hdd16tb]);
        assert!((gpu - 0.15).abs() < 0.02, "gpu share {gpu}");
        assert!((cpu - 0.07).abs() < 0.01, "cpu share {cpu}");
        assert!((dram - 0.42).abs() < 0.02, "dram share {dram}");
        assert!((ssd - 0.02).abs() < 0.005, "ssd share {ssd}");
        assert!((hdd - 0.02).abs() < 0.005, "hdd share {hdd}");
    }

    #[test]
    fn release_dates_match_table1() {
        assert_eq!(PartId::GpuA100Pcie40.spec().release, (2020, 5));
        assert_eq!(PartId::GpuMi250x.spec().release, (2021, 11));
        assert_eq!(PartId::GpuV100Sxm2_32.spec().release, (2018, 3));
        assert_eq!(PartId::CpuEpyc7763.spec().release, (2021, 3));
        assert_eq!(PartId::CpuEpyc7742.spec().release, (2019, 8));
        assert_eq!(PartId::CpuXeonGold6240r.spec().release, (2020, 2));
        assert_eq!(PartId::Dram64gb.spec().release, (2020, 10));
        assert_eq!(PartId::Ssd3_2tb.spec().release, (2018, 10));
        assert_eq!(PartId::Hdd16tb.spec().release, (2019, 6));
    }

    #[test]
    fn upgrade_ladder_is_monotone() {
        // P100 -> V100 -> A100: newer GPUs have more embodied carbon
        // (larger, denser dies) and more FP64 throughput.
        let p = PartId::GpuP100Pcie16.spec();
        let v = PartId::GpuV100Sxm2_32.spec();
        let a = PartId::GpuA100Pcie40.spec();
        assert!(p.embodied().total() < v.embodied().total());
        assert!(v.embodied().total() < a.embodied().total());
        assert!(p.fp64_peak.unwrap() < v.fp64_peak.unwrap());
        assert!(v.fp64_peak.unwrap() < a.fp64_peak.unwrap());
    }

    #[test]
    fn specs_are_self_consistent() {
        for p in crate::db::all_parts() {
            let s = p.spec();
            assert_eq!(s.id, p);
            let em = s.embodied();
            assert!(em.total().as_g() > 0.0, "{p:?} must have positive embodied");
            assert!(em.manufacturing.as_g() > 0.0);
            assert!(em.packaging.as_g() > 0.0);
            if let Some(tdp) = s.tdp {
                let idle = s.idle_power.expect("parts with TDP declare idle power");
                assert!(idle < tdp, "{p:?}: idle must be below TDP");
            }
            match s.class {
                ComponentClass::Dram | ComponentClass::Ssd | ComponentClass::Hdd => {
                    assert!(s.capacity.is_some(), "{p:?} must declare capacity");
                    assert!(s.bandwidth.is_some(), "{p:?} must declare bandwidth");
                }
                ComponentClass::Gpu | ComponentClass::Cpu => {
                    assert!(s.fp64_peak.is_some(), "{p:?} must declare FP64 peak");
                }
            }
        }
    }
}
