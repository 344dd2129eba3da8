//! Property tests for the scheduler: conservation, bounds and determinism
//! under arbitrary workloads and policies, and placement equal bit for
//! bit to the per-candidate reference scan.

use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_sched::policy::{greenest_start_reference, Placement};
use hpcarbon_sched::{Cluster, Job, JobTraceGenerator, Policy, Simulation};
use hpcarbon_timeseries::datetime::hours_in_year;
use hpcarbon_timeseries::series::HourlySeries;
use hpcarbon_units::Power;
use proptest::prelude::*;

fn any_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fifo),
        (50.0..400.0f64).prop_map(|t| Policy::ThresholdDefer {
            threshold_g_per_kwh: t
        }),
        (1u32..48).prop_map(|h| Policy::GreenestWindow { horizon_hours: h }),
        Just(Policy::LowestIntensityRegion),
        (1u32..48).prop_map(|h| Policy::RegionAndTime { horizon_hours: h }),
    ]
}

fn test_clusters(seed: u64) -> Vec<Cluster> {
    vec![
        Cluster::new("a", diurnal_trace(seed), 64),
        Cluster::new("b", flat_trace(250.0), 64),
    ]
}

fn diurnal_trace(seed: u64) -> IntensityTrace {
    let phase = seed as f64;
    IntensityTrace::new(
        OperatorId::Eso,
        HourlySeries::from_fn(2021, move |st| {
            200.0 + 150.0 * (std::f64::consts::TAU * (f64::from(st.hour()) + phase) / 24.0).sin()
        }),
    )
}

fn flat_trace(level: f64) -> IntensityTrace {
    IntensityTrace::new(OperatorId::Ciso, HourlySeries::constant(2021, level))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every job completes exactly once, with non-negative wait, on a
    /// valid cluster, under any policy.
    #[test]
    fn completeness_and_sanity(policy in any_policy(), seed in 0u64..100, n in 10usize..120) {
        let jobs = JobTraceGenerator::default_rates().generate(n, seed);
        let out = Simulation::multi_region(test_clusters(seed), policy, &jobs).run();
        prop_assert_eq!(out.jobs.len(), n);
        for (job, o) in jobs.iter().zip(&out.jobs) {
            prop_assert_eq!(o.id, job.id);
            prop_assert!(o.wait_hours >= -1e-9);
            prop_assert!(o.cluster < 2);
            prop_assert!(o.start_hours + 1e-9 >= job.arrival_hours);
            prop_assert!(o.carbon.as_g() > 0.0);
        }
    }

    /// Facility energy is policy-invariant (same jobs, same power, same
    /// PUE) — only carbon varies with placement/timing.
    #[test]
    fn energy_conservation(p1 in any_policy(), p2 in any_policy(), seed in 0u64..50) {
        let jobs = JobTraceGenerator::default_rates().generate(60, seed);
        let a = Simulation::multi_region(test_clusters(seed), p1, &jobs).run();
        let b = Simulation::multi_region(test_clusters(seed), p2, &jobs).run();
        prop_assert!((a.total_energy.as_kwh() - b.total_energy.as_kwh()).abs() < 1e-6);
    }

    /// Carbon totals are bounded by the trace extremes times the energy.
    #[test]
    fn carbon_bounds(policy in any_policy(), seed in 0u64..50) {
        let jobs = JobTraceGenerator::default_rates().generate(60, seed);
        let out = Simulation::multi_region(test_clusters(seed), policy, &jobs).run();
        // Bounds from the union of both clusters' intensity ranges.
        let lo = 50.0f64.min(250.0);
        let hi = 350.0f64.max(250.0);
        let e = out.total_energy.as_kwh();
        prop_assert!(out.total_carbon.as_g() >= e * lo - 1e-6);
        prop_assert!(out.total_carbon.as_g() <= e * hi + 1e-6);
    }

    /// Determinism: identical inputs give identical outcomes.
    #[test]
    fn deterministic(policy in any_policy(), seed in 0u64..50) {
        let jobs = JobTraceGenerator::default_rates().generate(40, seed);
        let a = Simulation::multi_region(test_clusters(seed), policy, &jobs).run();
        let b = Simulation::multi_region(test_clusters(seed), policy, &jobs).run();
        prop_assert_eq!(a.total_carbon.as_g(), b.total_carbon.as_g());
        prop_assert_eq!(a.mean_wait_hours, b.mean_wait_hours);
    }

    /// The greenest-window policy never increases carbon on a cluster pair
    /// where one trace is flat (deferral can only help or match).
    #[test]
    fn greenest_window_never_hurts_on_flat_trace(seed in 0u64..30) {
        let flat = vec![Cluster::new("flat", flat_trace(300.0), 128)];
        let jobs = JobTraceGenerator::default_rates().generate(50, seed);
        let fifo = Simulation::multi_region(flat.clone(), Policy::Fifo, &jobs).run();
        let aware = Simulation::multi_region(
            flat,
            Policy::GreenestWindow { horizon_hours: 24 },
            &jobs,
        )
        .run();
        // Flat trace: deferral buys nothing but costs nothing in carbon.
        prop_assert!((aware.total_carbon.as_g() - fifo.total_carbon.as_g()).abs() < 1e-6);
    }

    /// Single explicit job: carbon equals the cluster accounting exactly,
    /// for any runtime/power.
    #[test]
    fn single_job_carbon_exact(
        runtime in 0.1..100.0f64,
        kw in 0.05..10.0f64,
        arrival in 0.0..5000.0f64,
    ) {
        let c = Cluster::new("x", diurnal_trace(3), 16);
        let jobs = vec![Job {
            id: 0,
            user: 0,
            arrival_hours: arrival,
            runtime_hours: runtime,
            gpus: 1,
            power_per_gpu: Power::from_kw(kw),
            max_defer_hours: 0.0,
        }];
        let out = Simulation::single_region(c.clone(), Policy::Fifo, &jobs).run();
        let expect = c.carbon_for(
            arrival,
            hpcarbon_units::TimeSpan::from_hours(runtime),
            Power::from_kw(kw),
        );
        prop_assert!((out.total_carbon.as_g() - expect.as_g()).abs() < 1e-6);
    }
}

/// A year held flat over blocks of `block` hours at one of `levels`
/// values, so many candidate windows tie exactly.
fn plateau_trace(year: i32, seed: u64, block: u32, levels: u64) -> IntensityTrace {
    let values = (0..hours_in_year(year))
        .map(|h| {
            let mut x = (u64::from(h / block) ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^= x >> 29;
            100.0 * (1 + x % levels) as f64
        })
        .collect();
    IntensityTrace::new(OperatorId::Eso, HourlySeries::new(year, values))
}

/// Arrival times that stress the slot rule: whole hours, one ulp below a
/// whole hour (`0.9999999999999999 + 1.0` rounds to `2.0`), fractional
/// hours, and hours past one trace year.
fn any_now() -> impl Strategy<Value = f64> {
    let below = |k: u32| f64::from_bits(f64::from(k).to_bits() - 1);
    prop_oneof![
        (0u32..20_000).prop_map(f64::from),
        (1u32..4).prop_map(below),
        (1u32..20_000).prop_map(below),
        0.0..20_000.0f64,
        0.0..3.0f64,
    ]
}

fn any_tolerance() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), (0u32..60).prop_map(f64::from), 0.0..60.0f64]
}

fn any_runtime() -> impl Strategy<Value = f64> {
    prop_oneof![(1u32..30).prop_map(f64::from), 0.05..30.0f64]
}

/// `Policy::RegionAndTime`'s placement built on the reference scan.
fn region_and_time_reference(
    job: &Job,
    now: f64,
    arrival_cluster: usize,
    clusters: &[Cluster],
    horizon: u32,
) -> Placement {
    let mut best = Placement {
        cluster: arrival_cluster,
        earliest_start_hours: now,
    };
    let mut best_mean = f64::INFINITY;
    for (i, c) in clusters.iter().enumerate() {
        if c.capacity_gpus < job.gpus {
            continue;
        }
        let start = greenest_start_reference(c, job, now, horizon);
        let mean = c.mean_intensity_over(start, job.runtime_hours);
        if mean < best_mean {
            best_mean = mean;
            best = Placement {
                cluster: i,
                earliest_start_hours: start,
            };
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `GreenestWindow` and `RegionAndTime` place every job exactly where
    /// the per-candidate reference scan does, ties and rounding included.
    #[test]
    fn placement_matches_the_reference_scan(
        (now, horizon, tolerance, runtime) in (any_now(), 0u32..=48, any_tolerance(), any_runtime()),
        (seed, block, levels, leap) in (0u64..1_000, 1u32..12, 1u64..4, 0u32..2),
        (gpus, arrival_cluster) in (1u32..6, 0usize..3),
    ) {
        let year = if leap == 1 { 2020 } else { 2021 };
        let clusters = vec![
            Cluster::new("a", plateau_trace(year, seed, block, levels), 4),
            Cluster::new("b", plateau_trace(year, seed + 1, block + 1, levels), 8),
            Cluster::new("c", plateau_trace(year, seed + 2, block, levels + 1), 8)
                .with_forecast(plateau_trace(year, seed + 3, block, levels)),
        ];
        let job = Job {
            id: 0,
            user: 0,
            arrival_hours: now,
            runtime_hours: runtime,
            gpus,
            power_per_gpu: Power::from_w(300.0),
            max_defer_hours: tolerance,
        };
        let c = &clusters[arrival_cluster];
        let greenest = Policy::GreenestWindow { horizon_hours: horizon }
            .place(&job, now, arrival_cluster, &clusters);
        let reference = greenest_start_reference(c, &job, now, horizon);
        prop_assert_eq!(greenest.cluster, arrival_cluster);
        prop_assert_eq!(greenest.earliest_start_hours.to_bits(), reference.to_bits());

        let joint = Policy::RegionAndTime { horizon_hours: horizon }
            .place(&job, now, arrival_cluster, &clusters);
        let reference = region_and_time_reference(&job, now, arrival_cluster, &clusters, horizon);
        prop_assert_eq!(joint.cluster, reference.cluster);
        prop_assert_eq!(
            joint.earliest_start_hours.to_bits(),
            reference.earliest_start_hours.to_bits()
        );
    }
}
