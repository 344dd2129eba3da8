//! End-to-end assertions of the paper's headline findings, spanning every
//! crate. Each test names the Observation/Insight it reproduces.

use sustainable_hpc::grid::analysis::{lowest_median_region, regional_summary};
use sustainable_hpc::prelude::*;
use sustainable_hpc::workloads::perf;

const SEED: u64 = 2021;

/// Observation 1 (Fig. 1): GPUs embody more carbon than CPUs in absolute
/// terms; the ordering reverses per FP64 TFLOPS.
#[test]
fn observation1_gpu_cpu_reversal() {
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
    for g in gpus {
        for c in cpus {
            assert!(
                g.spec().embodied().total() > c.spec().embodied().total(),
                "{g:?} vs {c:?}"
            );
            assert!(
                g.spec().embodied_per_tflops().unwrap() < c.spec().embodied_per_tflops().unwrap(),
                "{g:?} vs {c:?} per TFLOPS"
            );
        }
    }
}

/// Observation 2 (Fig. 2): memory/storage devices embody carbon comparable
/// to compute devices.
#[test]
fn observation2_memory_storage_comparable_to_compute() {
    let mem_min = [PartId::Dram64gb, PartId::Ssd3_2tb, PartId::Hdd16tb]
        .iter()
        .map(|p| p.spec().embodied().total().as_kg())
        .fold(f64::INFINITY, f64::min);
    let cpu_max = [PartId::CpuEpyc7763, PartId::CpuXeonGold6240r]
        .iter()
        .map(|p| p.spec().embodied().total().as_kg())
        .fold(0.0f64, f64::max);
    // Same order of magnitude (within ~3x), and SSD/HDD actually exceed
    // the CPUs.
    assert!(mem_min * 3.0 > cpu_max);
    assert!(PartId::Ssd3_2tb.spec().embodied().total().as_kg() > cpu_max);
}

/// Observation 3 (Fig. 3): manufacturing dominates except DRAM, where
/// packaging is > 40%.
#[test]
fn observation3_dram_packaging_dominance() {
    for p in [
        PartId::GpuA100Pcie40,
        PartId::CpuEpyc7763,
        PartId::Ssd3_2tb,
        PartId::Hdd16tb,
    ] {
        assert!(
            p.spec().embodied().manufacturing_share().value() > 0.8,
            "{p:?}"
        );
    }
    let dram = PartId::Dram64gb.spec().embodied().packaging_share();
    assert!(dram.value() > 0.40, "DRAM packaging share {dram}");
}

/// Observation 4 (Fig. 4): carbon per unit of achieved performance
/// degrades as GPUs are added.
#[test]
fn observation4_perf_per_embodied_degrades() {
    let node = NodeGen::V100Node;
    let e1 = node.embodied_with_gpus(1).total().as_kg();
    for suite in Suite::ALL {
        let ratio = |n: u32| {
            perf::suite_scaling(suite, node, n) / (node.embodied_with_gpus(n).total().as_kg() / e1)
        };
        assert!(ratio(4) < ratio(2), "{suite:?}");
        assert!(ratio(2) <= 1.1, "{suite:?}");
    }
}

/// Observation 5 (Fig. 5): composition differs by system; DRAM contributes
/// significantly everywhere; Frontier's GPUs > 7x its CPUs.
#[test]
fn observation5_system_composition() {
    for sys in HpcSystem::table2() {
        let dram = sys
            .composition_shares()
            .into_iter()
            .find(|(c, _)| *c == ComponentClass::Dram)
            .unwrap()
            .1;
        assert!(dram.value() > 0.10, "{}: DRAM {dram}", sys.name);
    }
    let f = HpcSystem::frontier();
    let shares = f.composition_shares();
    let gpu = shares
        .iter()
        .find(|(c, _)| *c == ComponentClass::Gpu)
        .unwrap()
        .1;
    let cpu = shares
        .iter()
        .find(|(c, _)| *c == ComponentClass::Cpu)
        .unwrap()
        .1;
    assert!(gpu.value() / cpu.value() > 7.0);
}

/// Insight 6 (Fig. 6): ESO lowest median (< 200); Tokyo ≈ 3× ESO; the
/// greenest regions have the highest variance.
#[test]
fn insight6_regional_intensity_structure() {
    let traces = simulate_all_regions(2021, SEED);
    let summaries = regional_summary(&traces);
    assert_eq!(lowest_median_region(&summaries), OperatorId::Eso);
    let get = |op: OperatorId| summaries.iter().find(|s| s.operator == op).unwrap();
    assert!(get(OperatorId::Eso).boxplot.median < 200.0);
    let ratio = get(OperatorId::Tokyo).boxplot.median / get(OperatorId::Eso).boxplot.median;
    assert!((2.3..=3.8).contains(&ratio), "TK/ESO {ratio}");
    assert!(get(OperatorId::Eso).cov_percent > get(OperatorId::Tokyo).cov_percent);
    assert!(get(OperatorId::Ciso).cov_percent > get(OperatorId::Kansai).cov_percent);
}

/// Insight 7 (Fig. 7): exploiting hourly variation across regions is
/// possible — and a scheduler doing so cuts carbon.
#[test]
fn insight7_cross_region_scheduling_pays() {
    let gb = Cluster::new("gb", simulate_year(OperatorId::Eso, 2021, SEED), 64);
    let ca = Cluster::new("ca", simulate_year(OperatorId::Ciso, 2021, SEED), 64);
    let jobs = JobTraceGenerator::default_rates().generate(300, 5);
    let fifo = Simulation::multi_region(vec![gb.clone(), ca.clone()], Policy::Fifo, &jobs)
        .try_run()
        .expect("feasible");
    let aware = Simulation::multi_region(
        vec![gb, ca],
        Policy::RegionAndTime { horizon_hours: 24 },
        &jobs,
    )
    .try_run()
    .expect("feasible");
    assert!(
        aware.total_carbon.as_kg() < fifo.total_carbon.as_kg() * 0.9,
        "aware {} vs fifo {}",
        aware.total_carbon,
        fifo.total_carbon
    );
    // The trade-off the paper flags: deferral costs queue time.
    assert!(aware.mean_wait_hours > fifo.mean_wait_hours);
}

/// Insight 8 (Fig. 8): upgrades amortize fast on dirty grids, slowly on
/// green ones.
#[test]
fn insight8_amortization_depends_on_greenness() {
    let s = UpgradeScenario::paper_default(NodeGen::V100Node, NodeGen::A100Node, Suite::Nlp);
    let hi = s
        .break_even(CarbonIntensity::from_g_per_kwh(400.0))
        .unwrap();
    let lo = s.break_even(CarbonIntensity::from_g_per_kwh(20.0)).unwrap();
    assert!(hi.as_years() < 0.5);
    assert!(lo.as_years() > 5.0);
}

/// Insight 9 (Fig. 9): higher utilization favors quicker upgrades.
#[test]
fn insight9_usage_drives_the_decision() {
    use sustainable_hpc::upgrade::savings::UsageLevel;
    let i = CarbonIntensity::from_g_per_kwh(200.0);
    let mk = |u: UsageLevel| UpgradeScenario {
        usage: u.fraction(),
        ..UpgradeScenario::paper_default(NodeGen::V100Node, NodeGen::A100Node, Suite::Candle)
    };
    let hi = mk(UsageLevel::High).break_even(i).unwrap();
    let lo = mk(UsageLevel::Low).break_even(i).unwrap();
    assert!(hi < lo);
}

/// The advisor integrates both insights: same hardware, opposite verdicts
/// on opposite grids.
#[test]
fn advisor_flips_with_region() {
    let advisor = UpgradeAdvisor::with_five_year_horizon();
    let s = UpgradeScenario::paper_default(NodeGen::V100Node, NodeGen::A100Node, Suite::Nlp);
    let coal = advisor.recommend(&s, CarbonIntensity::from_g_per_kwh(500.0));
    let hydro = advisor.recommend(&s, CarbonIntensity::from_g_per_kwh(20.0));
    assert!(matches!(coal, Recommendation::Upgrade { .. }));
    assert!(matches!(hydro, Recommendation::ExtendLifetime { .. }));
}

/// Table 6's ladder: upgrades improve every suite; the biggest jump wins.
#[test]
fn table6_ladder() {
    let rows = perf::table6();
    for row in &rows {
        assert!(row.nlp > 0.0 && row.vision > 0.0 && row.candle > 0.0);
    }
    // P100 -> A100 (row 1) beats both single-generation hops on average.
    assert!(rows[1].average() > rows[0].average());
    assert!(rows[1].average() > rows[2].average());
}

/// Eq. 1 consistency across the whole stack: system total = embodied +
/// operational, and operational scales with intensity.
#[test]
fn eq1_composition_at_system_scale() {
    let sys = HpcSystem::perlmutter();
    let embodied = sys.embodied_total();
    let annual_energy = Energy::from_kwh(20_000_000.0); // ~2.3 MW average IT draw
    let traces = simulate_all_regions(2021, SEED);
    let ciso = traces
        .iter()
        .find(|t| t.operator() == OperatorId::Ciso)
        .unwrap();
    let op = operational_carbon(annual_energy, Pue::DEFAULT, ciso.mean());
    let total = total_carbon(embodied, op);
    assert!((total - embodied - op).as_g().abs() < 1e-6);
    // At CISO's intensity, a year of operation is the same order as the
    // build (the paper's "as energy gets greener, embodied dominates").
    let ratio = op / embodied;
    assert!((1.0..=20.0).contains(&ratio), "op/em ratio {ratio}");
}
