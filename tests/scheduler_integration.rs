//! The carbon-aware scheduler on realistic simulated grids: policy
//! comparisons and conservation checks.

use sustainable_hpc::prelude::*;

fn clusters(seed: u64, capacity: u32) -> Vec<Cluster> {
    vec![
        Cluster::new("gb", simulate_year(OperatorId::Eso, 2021, seed), capacity),
        Cluster::new("ca", simulate_year(OperatorId::Ciso, 2021, seed), capacity),
        Cluster::new("tx", simulate_year(OperatorId::Ercot, 2021, seed), capacity),
    ]
}

#[test]
fn policy_ladder_on_real_traces() {
    let jobs = JobTraceGenerator::default_rates().generate(400, 42);
    let run = |policy: Policy| {
        Simulation::multi_region(clusters(2021, 128), policy, &jobs)
            .try_run()
            .expect("feasible")
            .total_carbon
            .as_kg()
    };
    let fifo = run(Policy::Fifo);
    let threshold = run(Policy::ThresholdDefer {
        threshold_g_per_kwh: 180.0,
    });
    let window = run(Policy::GreenestWindow { horizon_hours: 24 });
    let region = run(Policy::LowestIntensityRegion);
    let both = run(Policy::RegionAndTime { horizon_hours: 24 });
    // Every aware policy beats FIFO; combining region + time beats each
    // alone (the paper: distributing over regions AND exploiting temporal
    // variation).
    assert!(threshold < fifo, "threshold {threshold} fifo {fifo}");
    assert!(window < fifo);
    assert!(region < fifo);
    assert!(both <= window + 1e-9);
    assert!(both <= region + 1e-9);
}

#[test]
fn energy_is_policy_invariant_carbon_is_not() {
    // Jobs consume the same energy under any policy (same runtimes and
    // power); only WHERE/WHEN they run changes carbon.
    let jobs = JobTraceGenerator::default_rates().generate(250, 9);
    let a = Simulation::multi_region(clusters(7, 128), Policy::Fifo, &jobs)
        .try_run()
        .expect("feasible");
    let b = Simulation::multi_region(
        clusters(7, 128),
        Policy::RegionAndTime { horizon_hours: 24 },
        &jobs,
    )
    .try_run()
    .expect("feasible");
    assert!((a.total_energy.as_kwh() - b.total_energy.as_kwh()).abs() < 1e-6);
    assert!(b.total_carbon < a.total_carbon);
}

#[test]
fn deferral_respects_job_tolerances() {
    let jobs = JobTraceGenerator::default_rates().generate(300, 13);
    let out = Simulation::multi_region(
        clusters(5, 512),
        Policy::GreenestWindow { horizon_hours: 48 },
        &jobs,
    )
    .try_run()
    .expect("feasible");
    // With abundant capacity, waits are pure policy deferral and must not
    // exceed each job's tolerance.
    for (job, outcome) in jobs.iter().zip(&out.jobs) {
        assert!(
            outcome.wait_hours <= job.max_defer_hours + 1e-6,
            "job {}: wait {} tolerance {}",
            job.id,
            outcome.wait_hours,
            job.max_defer_hours
        );
    }
}

#[test]
fn utilization_conservation() {
    // Total GPU-hours served equals the trace's demand regardless of
    // policy (no jobs lost or duplicated).
    let jobs = JobTraceGenerator::default_rates().generate(200, 21);
    for policy in [Policy::Fifo, Policy::GreenestWindow { horizon_hours: 12 }] {
        let out = Simulation::multi_region(clusters(1, 256), policy, &jobs)
            .try_run()
            .expect("feasible");
        assert_eq!(out.jobs.len(), jobs.len());
        // Energy check implies gpu-hour conservation (same per-GPU power).
        let expect_energy: f64 = jobs
            .iter()
            .map(|j| j.power().as_kw() * j.runtime_hours * 1.2)
            .sum();
        assert!(
            (out.total_energy.as_kwh() - expect_energy).abs() < 1e-6,
            "{policy:?}"
        );
    }
}
