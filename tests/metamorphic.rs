//! Metamorphic properties from the paper's equations: relations between
//! two estimates that hold whatever the inputs, where no single output
//! value is known in advance.
//!
//! - Eq. 1's operational term is energy × intensity × PUE. On a flat
//!   grid, k× the intensity is k× the operational kg at the same energy
//!   (a); a constant PUE moved from p₁ to p₂ scales operational energy
//!   and kg by p₂/p₁ (b).
//! - Embodied carbon (Eqs. 2–6) is a property of the hardware alone:
//!   region, policy, trace source, forecast and seed cannot move it (c).
//! - The all-flash what-if swaps HDD capacity for SSD capacity, so its
//!   sign follows Fig. 2's per-GB ordering of the two parts (d).

use proptest::prelude::*;
use std::sync::OnceLock;
use sustainable_hpc::api::{
    CatalogEmbodied, EmbodiedSource, FlatIntensity, ForecastModel, PueSpec, StorageVariant,
    SystemId, TraceSource,
};
use sustainable_hpc::core::db::EmbodiedInputs;
use sustainable_hpc::prelude::*;

/// One estimator on the simulated grids for every case, so repeated
/// region-years come from its trace store instead of a fresh
/// simulation each.
fn estimator() -> &'static Estimator {
    static ESTIMATOR: OnceLock<Estimator> = OnceLock::new();
    ESTIMATOR.get_or_init(|| Estimator::builder().build())
}

fn any_system() -> impl Strategy<Value = SystemId> {
    (0..SystemId::ALL.len()).prop_map(|i| SystemId::ALL[i])
}

fn any_region() -> impl Strategy<Value = OperatorId> {
    (0..OperatorId::ALL.len()).prop_map(|i| OperatorId::ALL[i])
}

/// The policies that compare intensities only with each other, so a
/// uniform rescale of the grid or of the PUE leaves every placement as
/// it was. Threshold deferral compares the intensity with a fixed level
/// and is left out.
fn rescale_invariant_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fifo),
        Just(Policy::GreenestWindow { horizon_hours: 24 }),
        Just(Policy::RegionAndTime { horizon_hours: 24 }),
        Just(Policy::LowestIntensityRegion),
        (1u32..48).prop_map(|slack_hours| Policy::TemporalShift { slack_hours }),
        (1u32..48).prop_map(|slack_hours| Policy::SpatioTemporal { slack_hours }),
    ]
}

fn any_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        rescale_invariant_policy(),
        (50.0..400.0f64).prop_map(|threshold_g_per_kwh| Policy::ThresholdDefer {
            threshold_g_per_kwh
        }),
    ]
}

fn any_forecast() -> impl Strategy<Value = Option<ForecastModel>> {
    prop_oneof![
        Just(None),
        Just(Some(ForecastModel::Oracle)),
        Just(Some(ForecastModel::Persistence)),
        Just(Some(ForecastModel::DayAhead)),
        (1u32..50).prop_map(|error_pct| Some(ForecastModel::Noisy { error_pct })),
    ]
}

/// A small paper-baseline request: few jobs keep each case cheap, and
/// seeds from a small set let region-years repeat across cases.
fn request(system: SystemId, region: OperatorId, policy: Policy, seed: u64) -> EstimateRequest {
    let mut r = EstimateRequest::paper_baseline(system, region);
    r.policy = policy;
    r.seed = seed;
    r.jobs = 24;
    r
}

/// Whether `got` is `k × base` within 1e-12 relative.
fn scaled(got: f64, base: f64, k: f64) -> bool {
    let want = k * base;
    (got - want).abs() <= 1e-12 * want.abs()
}

/// The embodied section's bits: equal only if bit-for-bit equal.
fn embodied_bits(r: &FootprintReport) -> (u64, Option<u64>) {
    let e = &r.embodied;
    (e.total_t.to_bits(), e.storage_delta_pct.map(f64::to_bits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (a) k× a flat intensity is k× the operational kg, at bit-equal
    /// energy and embodied carbon.
    #[test]
    fn a_flat_grid_scales_operational_carbon_with_its_intensity(
        system in any_system(),
        region in any_region(),
        policy in rescale_invariant_policy(),
        seed in 0u64..3,
        pue in 1.0..2.0f64,
        g in 20.0..800.0f64,
        k in 0.1..10.0f64,
    ) {
        let mut req = request(system, region, policy, seed);
        req.pue = PueSpec::Constant(pue);
        let at = |g: f64| {
            let estimator = Estimator::builder().intensity(FlatIntensity::new(g)).build();
            estimator.estimate(&req).expect("a baseline request estimates")
        };
        let kg = k * g;
        let (a, b) = (at(g), at(kg));
        let k = kg / g;
        let (ao, bo) = (&a.operational, &b.operational);
        prop_assert!(scaled(bo.sched_kg, ao.sched_kg, k), "{req:?}: {ao:?} vs {bo:?}");
        let (an, bn) = (a.upgrade.node_annual_kg, b.upgrade.node_annual_kg);
        prop_assert!(scaled(bn, an, k), "{req:?}: node {an} vs {bn}");
        prop_assert_eq!(ao.sched_kwh.to_bits(), bo.sched_kwh.to_bits());
        prop_assert_eq!(embodied_bits(&a), embodied_bits(&b));
    }

    /// (b) A constant PUE moved from p₁ to p₂ scales operational energy
    /// and kg by p₂/p₁ on the simulated grids.
    #[test]
    fn a_constant_pue_scales_operational_energy_and_carbon(
        system in any_system(),
        region in any_region(),
        policy in rescale_invariant_policy(),
        seed in 0u64..3,
        p1 in 1.0..2.5f64,
        p2 in 1.0..2.5f64,
    ) {
        let mut r1 = request(system, region, policy, seed);
        r1.pue = PueSpec::Constant(p1);
        let mut r2 = r1.clone();
        r2.pue = PueSpec::Constant(p2);
        let a = estimator().estimate(&r1).expect("a baseline request estimates");
        let b = estimator().estimate(&r2).expect("a baseline request estimates");
        let k = p2 / p1;
        let (ao, bo) = (&a.operational, &b.operational);
        prop_assert!(scaled(bo.sched_kg, ao.sched_kg, k), "{r1:?} → {p2}: {ao:?} vs {bo:?}");
        prop_assert!(scaled(bo.sched_kwh, ao.sched_kwh, k), "{r1:?} → {p2}: {ao:?} vs {bo:?}");
        let (an, bn) = (a.upgrade.node_annual_kg, b.upgrade.node_annual_kg);
        prop_assert!(scaled(bn, an, k), "{r1:?} → {p2}: node {an} vs {bn}");
    }

    /// (c) Embodied carbon and the all-flash delta are bit-equal across
    /// region, policy, trace source, forecast and seed. Perlmutter has
    /// no HDD tier, so its all-flash what-if is an error on both sides.
    #[test]
    fn embodied_carbon_ignores_the_grid_and_the_schedule(
        system in any_system(),
        all_flash in 0u8..2,
        region in any_region(),
        policy in any_policy(),
        source in (0..TraceSource::ALL.len()).prop_map(|i| TraceSource::ALL[i]),
        forecast in any_forecast(),
        seed in 0u64..3,
    ) {
        let mut base = request(system, OperatorId::Eso, Policy::Fifo, 0);
        base.storage = StorageVariant::ALL[all_flash as usize];
        let mut moved = request(system, region, policy, seed);
        moved.storage = base.storage;
        moved.source = source;
        moved.forecast = forecast;
        match (estimator().estimate(&base), estimator().estimate(&moved)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(embodied_bits(&a), embodied_bits(&b)),
            (Err(_), Err(_)) => prop_assert!(
                system == SystemId::Perlmutter && base.storage == StorageVariant::AllFlash,
                "{moved:?} failed"
            ),
            (a, b) => prop_assert!(false, "{moved:?}: {:?} vs {:?}", a.err(), b.err()),
        }
    }
}

/// The built-in tables, with the SSD's embodied carbon per GB of
/// capacity (before packaging) set to a chosen value.
struct SsdAt(f64);

impl EmbodiedSource for SsdAt {
    fn build_system(&self, system: SystemId) -> HpcSystem {
        CatalogEmbodied.build_system(system)
    }

    fn part_spec(&self, part: PartId) -> PartSpec {
        let mut spec = CatalogEmbodied.part_spec(part);
        if part == PartId::Ssd3_2tb {
            let epc = CarbonPerCapacity::from_g_per_gb(self.0);
            spec.embodied_inputs = EmbodiedInputs::MemoryStorage { epc };
        }
        spec
    }
}

/// Embodied kg per GB of a storage part's capacity, packaging included.
fn kg_per_gb(spec: PartSpec) -> f64 {
    let capacity = spec.capacity.expect("storage parts have a capacity");
    spec.embodied().total().as_kg() / capacity.as_gb()
}

/// The all-flash delta of `system` under `embodied`.
fn all_flash_delta(system: SystemId, embodied: impl EmbodiedSource + 'static) -> f64 {
    let mut r = request(system, OperatorId::Eso, Policy::Fifo, 0);
    r.storage = StorageVariant::AllFlash;
    let estimator = Estimator::builder().embodied(embodied).build();
    let report = estimator.estimate(&r).expect("the system has an HDD tier");
    report
        .embodied
        .storage_delta_pct
        .expect("an all-flash delta")
}

/// (d) With the shipped parts (Fig. 2: SSD 0.00634, HDD 0.00136 kg per
/// GB), the all-flash delta takes the sign of SSD minus HDD kg per GB.
#[test]
fn the_all_flash_delta_follows_fig2_per_gb_ordering() {
    let ssd = kg_per_gb(PartId::Ssd3_2tb.spec());
    let hdd = kg_per_gb(PartId::Hdd16tb.spec());
    for system in [SystemId::Frontier, SystemId::Lumi] {
        let delta = all_flash_delta(system, CatalogEmbodied);
        let want = (ssd - hdd).signum();
        assert_eq!(
            delta.signum(),
            want,
            "{system:?}: SSD {ssd} HDD {hdd}: {delta}%"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (d) Whatever the SSD's carbon per GB, the all-flash delta takes
    /// the sign of SSD minus HDD kg per GB.
    #[test]
    fn the_all_flash_delta_takes_the_sign_of_ssd_minus_hdd(
        system in prop_oneof![Just(SystemId::Frontier), Just(SystemId::Lumi)],
        epc in 0.1..20.0f64,
    ) {
        let source = SsdAt(epc);
        let ssd = kg_per_gb(source.part_spec(PartId::Ssd3_2tb));
        let hdd = kg_per_gb(source.part_spec(PartId::Hdd16tb));
        // Within a hair of equal, rounding in the totals decides.
        prop_assume!((ssd / hdd - 1.0).abs() > 1e-6);
        let delta = all_flash_delta(system, source);
        let want = (ssd - hdd).signum();
        prop_assert!(delta.signum() == want, "SSD {ssd} HDD {hdd} kg per GB: {delta}%");
    }
}
