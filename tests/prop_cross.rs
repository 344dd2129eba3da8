//! Cross-crate property tests: invariants that must hold for *any*
//! parameters, not just the paper's.

use proptest::prelude::*;
use sustainable_hpc::core::operational::Pue;
use sustainable_hpc::prelude::*;
use sustainable_hpc::upgrade::savings::UpgradeScenario;
use sustainable_hpc::workloads::perf;

fn any_suite() -> impl Strategy<Value = Suite> {
    prop_oneof![Just(Suite::Nlp), Just(Suite::Vision), Just(Suite::Candle)]
}

fn any_upgrade() -> impl Strategy<Value = (NodeGen, NodeGen)> {
    prop_oneof![
        Just((NodeGen::P100Node, NodeGen::V100Node)),
        Just((NodeGen::P100Node, NodeGen::A100Node)),
        Just((NodeGen::V100Node, NodeGen::A100Node)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Savings are monotone in time for every scenario and intensity.
    #[test]
    fn savings_monotone_in_time(
        (old, new) in any_upgrade(),
        suite in any_suite(),
        usage in 0.05..0.95f64,
        intensity in 5.0..800.0f64,
        t1 in 0.1..10.0f64,
        dt in 0.1..10.0f64,
    ) {
        let s = UpgradeScenario {
            usage: Fraction::new_unchecked(usage),
            pue: Pue::DEFAULT,
            ..UpgradeScenario::paper_default(old, new, suite)
        };
        let i = CarbonIntensity::from_g_per_kwh(intensity);
        let a = s.savings_percent(TimeSpan::from_years(t1), i);
        let b = s.savings_percent(TimeSpan::from_years(t1 + dt), i);
        prop_assert!(b >= a - 1e-9, "savings decreased: {a} -> {b}");
    }

    /// Break-even time scales exactly inversely with intensity.
    #[test]
    fn break_even_inverse_in_intensity(
        (old, new) in any_upgrade(),
        suite in any_suite(),
        usage in 0.05..0.95f64,
        i1 in 10.0..400.0f64,
        k in 1.1..10.0f64,
    ) {
        let s = UpgradeScenario {
            usage: Fraction::new_unchecked(usage),
            pue: Pue::DEFAULT,
            ..UpgradeScenario::paper_default(old, new, suite)
        };
        let t1 = s.break_even(CarbonIntensity::from_g_per_kwh(i1));
        let t2 = s.break_even(CarbonIntensity::from_g_per_kwh(i1 * k));
        match (t1, t2) {
            (Some(t1), Some(t2)) => {
                prop_assert!((t1.as_hours() / t2.as_hours() - k).abs() < 1e-6);
            }
            _ => prop_assert!(false, "both intensities must pay off"),
        }
    }

    /// Node throughput increases with GPU count but never superlinearly.
    #[test]
    fn scaling_bounds(
        suite in any_suite(),
        node in prop_oneof![
            Just(NodeGen::P100Node),
            Just(NodeGen::V100Node),
            Just(NodeGen::A100Node)
        ],
        n in 2u32..=4,
    ) {
        for b in suite.benchmarks() {
            let t1 = perf::node_throughput(&b, node, 1);
            let tn = perf::node_throughput(&b, node, n);
            prop_assert!(tn > t1 * 0.5, "{}: pathological slowdown", b.name);
            prop_assert!(tn < t1 * f64::from(n) + 1e-9, "{}: superlinear", b.name);
        }
    }

    /// Operational carbon over any trace window is bounded by the trace
    /// extremes times the energy.
    #[test]
    fn trace_priced_carbon_bounded(
        seed in 0u64..50,
        start in 0u32..8760,
        hours in 1.0..200.0f64,
        watts in 100.0..100_000.0f64,
    ) {
        let trace = simulate_year(OperatorId::Ercot, 2021, seed % 5);
        let cluster = Cluster::new("x", trace.clone(), 8);
        let carbon = cluster.carbon_for(
            f64::from(start),
            TimeSpan::from_hours(hours),
            Power::from_w(watts),
        );
        let energy_kwh = watts / 1e3 * hours * cluster.pue;
        let stats = trace.boxplot();
        let (lo, hi) = (stats.min * energy_kwh, stats.max * energy_kwh);
        prop_assert!(carbon.as_g() >= lo - 1e-6);
        prop_assert!(carbon.as_g() <= hi + 1e-6);
    }

    /// System embodied totals scale linearly with inventory counts.
    #[test]
    fn inventory_linear(count in 1u64..10_000) {
        let unit = PartId::GpuMi250x.spec().embodied().total().as_g();
        let sys = HpcSystem {
            name: "synthetic",
            location: "nowhere",
            cores: 0,
            year: 2023,
            inventory: vec![(PartId::GpuMi250x.spec(), count)],
        };
        let total = sys.embodied_total().as_g();
        prop_assert!((total - unit * count as f64).abs() < total * 1e-12 + 1e-9);
    }

    /// Winner counts always partition the year, for any seed.
    #[test]
    fn winner_counts_partition(seed in 0u64..20) {
        use sustainable_hpc::grid::analysis::winner_counts;
        use sustainable_hpc::timeseries::datetime::TimeZone;
        let traces: Vec<IntensityTrace> = OperatorId::FIG7_REGIONS
            .iter()
            .map(|op| simulate_year(*op, 2021, seed))
            .collect();
        let w = winner_counts(&traces, TimeZone::JST);
        for h in 0..24 {
            prop_assert_eq!(w.days_per_hour(h), 365);
        }
    }
}
