//! The scheduling simulation: discrete events over clusters and a policy.

use crate::budget::CarbonBudgetLedger;
use crate::cluster::Cluster;
use crate::job::Job;
use crate::policy::Policy;
use hpcarbon_sim::des::EventQueue;
use hpcarbon_units::{CarbonMass, Energy, TimeSpan};
use std::cmp::Ordering;

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A job is submitted. [`Simulation::try_run`] takes arrivals from
    /// its sorted arrival list; they never enter the event queue.
    Arrive(usize),
    /// A deferred job becomes eligible to run on its placed cluster.
    Release(usize, usize),
    /// A running job completes on a cluster.
    Finish(usize, usize),
}

/// Why a configured simulation cannot run.
///
/// Sweep batches construct simulations from generated (cluster, trace,
/// job) combinations; an infeasible combination must come back as an
/// `Err` row rather than a panic that kills the whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A job demands more GPUs than any cluster offers.
    OversizedJob {
        /// Offending job id.
        job: usize,
        /// GPUs the job demands.
        gpus: u32,
    },
    /// A shifting policy's slack spans at least one full trace year, so a
    /// deferred release hour could land outside the trace (and the
    /// "greenest window within slack" question degenerates to scanning
    /// the whole year again).
    ShiftSlackExceedsTrace {
        /// The policy's slack, hours.
        slack_hours: u32,
        /// The shortest cluster trace, hours.
        trace_hours: u32,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OversizedJob { job, gpus } => write!(
                f,
                "job {job} needs {gpus} GPUs but no cluster is large enough"
            ),
            SimError::ShiftSlackExceedsTrace {
                slack_hours,
                trace_hours,
            } => write!(
                f,
                "shifting slack of {slack_hours} h meets or exceeds the {trace_hours} h trace horizon"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-job outcome.
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome {
    /// Job id.
    pub id: usize,
    /// Cluster the job ran on.
    pub cluster: usize,
    /// Queue wait (from arrival to start), hours. Includes policy
    /// deferral and capacity waiting.
    pub wait_hours: f64,
    /// Start time, hours since epoch.
    pub start_hours: f64,
    /// Operational carbon of the run.
    pub carbon: CarbonMass,
    /// Facility energy of the run.
    pub energy: Energy,
}

/// Aggregate outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Policy simulated.
    pub policy: Policy,
    /// Per-job outcomes, in job-id order.
    pub jobs: Vec<JobOutcome>,
    /// Sum of job carbon.
    pub total_carbon: CarbonMass,
    /// Sum of facility energy.
    pub total_energy: Energy,
    /// Mean queue wait, hours.
    pub mean_wait_hours: f64,
    /// Maximum queue wait, hours.
    pub max_wait_hours: f64,
    /// Per-user carbon ledger (filled when budgets are enabled).
    pub ledger: Option<CarbonBudgetLedger>,
}

impl SimOutcome {
    /// Mean carbon per job, grams.
    pub fn mean_carbon_g(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.total_carbon.as_g() / self.jobs.len() as f64
    }
}

/// How a region's capacity queue admits jobs when the head does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Strict FIFO: a blocked head blocks everything behind it. Trivially
    /// fair, wastes capacity.
    StrictFifo,
    /// First-fit: any queued job that fits may start (aggressive backfill;
    /// can starve wide jobs indefinitely).
    FirstFit,
    /// EASY backfill: the head gets a reservation at the earliest time
    /// enough GPUs free up; later jobs may jump ahead only if they finish
    /// before that reservation — bounded delay for wide jobs, high
    /// utilization.
    EasyBackfill,
}

struct RegionState {
    free_gpus: u32,
    /// Jobs eligible to run, waiting for capacity (job indices, in
    /// eligibility order; budget priority reorders at pop time).
    queue: Vec<usize>,
    /// Running jobs as (end_time_hours, gpus, job_index) — the EASY
    /// reservation calculation walks this sorted by end time.
    running: Vec<(f64, u32, usize)>,
}

/// A configured simulation.
pub struct Simulation<'a> {
    clusters: Vec<Cluster>,
    policy: Policy,
    jobs: &'a [Job],
    ledger: Option<CarbonBudgetLedger>,
    discipline: QueueDiscipline,
}

impl<'a> Simulation<'a> {
    /// Single-cluster setup.
    pub fn single_region(cluster: Cluster, policy: Policy, jobs: &'a [Job]) -> Simulation<'a> {
        Simulation {
            clusters: vec![cluster],
            policy,
            jobs,
            ledger: None,
            discipline: QueueDiscipline::FirstFit,
        }
    }

    /// Multi-cluster setup. Jobs arrive round-robin across clusters (the
    /// user's home site); multi-region policies may move them.
    pub fn multi_region(clusters: Vec<Cluster>, policy: Policy, jobs: &'a [Job]) -> Simulation<'a> {
        assert!(!clusters.is_empty(), "need at least one cluster");
        Simulation {
            clusters,
            policy,
            jobs,
            ledger: None,
            discipline: QueueDiscipline::FirstFit,
        }
    }

    /// Enables per-user carbon budgets: users with more remaining budget
    /// are popped from capacity queues first (the paper's queue-priority
    /// incentive).
    pub fn with_budgets(mut self, ledger: CarbonBudgetLedger) -> Simulation<'a> {
        self.ledger = Some(ledger);
        self
    }

    /// Selects the capacity-queue discipline (default: first-fit).
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Simulation<'a> {
        self.discipline = discipline;
        self
    }

    /// Runs the simulation to completion.
    ///
    /// # Panics
    /// On either error [`Simulation::try_run`] returns (a job larger
    /// than every cluster, or a shifting slack of a full trace year or
    /// more), and wherever `try_run` panics (a NaN or negative arrival, a
    /// runtime that is not positive).
    pub fn run(self) -> SimOutcome {
        match self.try_run() {
            Ok(out) => out,
            // lint: allow(panic-in-library) -- documented "# Panics" convenience wrapper; try_run is the typed-error form
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the simulation, reporting infeasible configurations as a
    /// [`SimError`] instead of panicking — the sweep-friendly entry point.
    ///
    /// Arrivals are merged into the event queue from a list of job
    /// indices sorted by arrival time, ties in job order. An arrival wins
    /// a time tie against a queued release or finish, so events run in
    /// the order they would if every arrival had been queued first.
    ///
    /// # Errors
    /// - [`SimError::OversizedJob`] when a job is larger than every
    ///   cluster;
    /// - [`SimError::ShiftSlackExceedsTrace`] when a shifting policy's
    ///   slack is at least as long as a cluster's trace.
    ///
    /// # Panics
    /// - If a job's `arrival_hours` is NaN (`"event time must not be
    ///   NaN"`) or negative (`"cannot schedule into the past"`). Arrivals
    ///   are checked in job order before either error above, so such a job
    ///   panics even when the run would also be infeasible.
    /// - If a job's `runtime_hours` is not positive, through
    ///   [`Cluster::carbon_for`] when the job starts.
    pub fn try_run(self) -> Result<SimOutcome, SimError> {
        let Simulation {
            clusters,
            policy,
            jobs,
            ledger,
            discipline,
        } = self;
        check_arrivals(jobs);
        check_feasible(&clusters, policy, jobs)?;
        let order = arrival_order(jobs);
        let mut run = Run::new(&clusters, policy, jobs, ledger, discipline);
        let mut next = 0;
        loop {
            let arrival = order.get(next).map(|&i| (jobs[i].arrival_hours, i));
            match (arrival, run.q.peek_time()) {
                (Some((t, i)), queued) if queued.is_none_or(|q| t <= q) => {
                    next += 1;
                    run.q.advance_to(t);
                    run.handle(t, Event::Arrive(i));
                }
                _ => match run.q.pop() {
                    Some((now, event)) => run.handle(now, event),
                    None => break,
                },
            }
        }
        Ok(run.into_outcome())
    }
}

/// Panics on the first NaN or negative arrival in job order, with the
/// messages [`EventQueue::schedule_at`] gives an event at time zero.
fn check_arrivals(jobs: &[Job]) {
    for job in jobs {
        let t = job.arrival_hours;
        assert!(!t.is_nan(), "event time must not be NaN");
        assert!(t >= 0.0, "cannot schedule into the past: {t} < 0");
    }
}

/// The capacity and slack guards of [`Simulation::try_run`].
fn check_feasible(clusters: &[Cluster], policy: Policy, jobs: &[Job]) -> Result<(), SimError> {
    // Capacity guard: a job larger than every cluster can never run.
    for job in jobs {
        if !clusters.iter().any(|c| c.capacity_gpus >= job.gpus) {
            return Err(SimError::OversizedJob {
                job: job.id,
                gpus: job.gpus,
            });
        }
    }

    // Slack guard: a shifting slack of a full trace year (or more)
    // would defer jobs past the hours the trace can price.
    if let Some(slack_hours) = policy.shift_slack_hours() {
        for c in clusters {
            let trace_hours = c.trace.series().len() as u32;
            if slack_hours >= trace_hours {
                return Err(SimError::ShiftSlackExceedsTrace {
                    slack_hours,
                    trace_hours,
                });
            }
        }
    }
    Ok(())
}

/// Job indices in arrival order, ties in job order. `sort_by` is stable,
/// and `partial_cmp` orders `-0.0` equal to `0.0`, as the event queue
/// does. Arrivals have passed [`check_arrivals`], so none is NaN.
fn arrival_order(jobs: &[Job]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .arrival_hours
            .partial_cmp(&jobs[b].arrival_hours)
            .unwrap_or(Ordering::Equal)
    });
    order
}

/// One run's mutable state: the queue of pending releases and finishes,
/// each cluster's capacity state, and the outcomes so far.
struct Run<'s> {
    clusters: &'s [Cluster],
    policy: Policy,
    jobs: &'s [Job],
    ledger: Option<CarbonBudgetLedger>,
    discipline: QueueDiscipline,
    q: EventQueue<Event>,
    regions: Vec<RegionState>,
    outcomes: Vec<Option<JobOutcome>>,
}

impl<'s> Run<'s> {
    fn new(
        clusters: &'s [Cluster],
        policy: Policy,
        jobs: &'s [Job],
        ledger: Option<CarbonBudgetLedger>,
        discipline: QueueDiscipline,
    ) -> Run<'s> {
        Run {
            clusters,
            policy,
            jobs,
            ledger,
            discipline,
            q: EventQueue::new(),
            regions: clusters
                .iter()
                .map(|c| RegionState {
                    free_gpus: c.capacity_gpus,
                    queue: Vec::new(),
                    running: Vec::new(),
                })
                .collect(),
            outcomes: vec![None; jobs.len()],
        }
    }

    /// Handles one event at time `now`.
    fn handle(&mut self, now: f64, event: Event) {
        let (jobs, clusters) = (self.jobs, self.clusters);
        match event {
            Event::Arrive(i) => {
                let arrival_cluster = jobs[i].user % clusters.len();
                let mut placement = self.policy.place(&jobs[i], now, arrival_cluster, clusters);
                // The shared fallback rule; the capacity guard ensures a
                // fit exists.
                placement.cluster =
                    crate::cluster::fitting_cluster(placement.cluster, &jobs[i], clusters);
                if placement.earliest_start_hours > now {
                    self.q.schedule_at(
                        placement.earliest_start_hours,
                        Event::Release(i, placement.cluster),
                    );
                } else {
                    self.regions[placement.cluster].queue.push(i);
                    self.try_start(placement.cluster, now);
                }
            }
            Event::Release(i, cluster) => {
                self.regions[cluster].queue.push(i);
                self.try_start(cluster, now);
            }
            Event::Finish(i, cluster) => {
                self.regions[cluster].free_gpus += jobs[i].gpus;
                self.regions[cluster].running.retain(|(_, _, j)| *j != i);
                if let (Some(ledger), Some(outcome)) =
                    (self.ledger.as_mut(), self.outcomes[i].as_ref())
                {
                    ledger.charge(jobs[i].user, outcome.carbon);
                }
                self.try_start(cluster, now);
            }
        }
    }

    /// Starts as many queued jobs as the discipline and capacity allow on
    /// `cluster`.
    fn try_start(&mut self, cluster: usize, now: f64) {
        let jobs = self.jobs;
        loop {
            let region = &mut self.regions[cluster];
            if region.queue.is_empty() {
                return;
            }
            // Budget priority reorders the whole queue before admission;
            // otherwise the queue stays in eligibility order.
            if let Some(ledger) = &self.ledger {
                region.queue.sort_by(|a, b| {
                    // Remaining fractions are finite by construction, so
                    // `total_cmp` orders them identically without the panic.
                    ledger
                        .remaining_fraction(jobs[*b].user)
                        .total_cmp(&ledger.remaining_fraction(jobs[*a].user))
                        .then(a.cmp(b))
                });
            }

            let head = region.queue[0];
            let pick = if jobs[head].gpus <= region.free_gpus {
                Some(0)
            } else {
                match self.discipline {
                    QueueDiscipline::StrictFifo => None,
                    QueueDiscipline::FirstFit => (1..region.queue.len())
                        .find(|qi| jobs[region.queue[*qi]].gpus <= region.free_gpus),
                    QueueDiscipline::EasyBackfill => {
                        let reservation = easy_reservation(region, &jobs[head], now);
                        (1..region.queue.len()).find(|qi| {
                            let j = &jobs[region.queue[*qi]];
                            j.gpus <= region.free_gpus
                                && now + j.runtime_hours <= reservation + 1e-9
                        })
                    }
                }
            };
            let Some(pick) = pick else { return };
            let job_idx = region.queue.remove(pick);
            let job = &jobs[job_idx];
            region.free_gpus -= job.gpus;
            region
                .running
                .push((now + job.runtime_hours, job.gpus, job_idx));
            let duration = TimeSpan::from_hours(job.runtime_hours);
            let carbon = self.clusters[cluster].carbon_for(now, duration, job.power());
            let energy = self.clusters[cluster].energy_for(duration, job.power());
            self.outcomes[job_idx] = Some(JobOutcome {
                id: job.id,
                cluster,
                wait_hours: now - job.arrival_hours,
                start_hours: now,
                carbon,
                energy,
            });
            self.q
                .schedule_at(now + job.runtime_hours, Event::Finish(job_idx, cluster));
        }
    }

    /// The aggregate outcome, once every event has been handled.
    fn into_outcome(self) -> SimOutcome {
        let jobs_out: Vec<JobOutcome> = self
            .outcomes
            .into_iter()
            // lint: allow(panic-in-library) -- the event loop only terminates once every queue is drained, and try_run has already rejected jobs no cluster can fit
            .map(|o| o.expect("every job eventually runs"))
            .collect();
        let total_carbon: CarbonMass = jobs_out.iter().map(|j| j.carbon).sum();
        let total_energy: Energy = jobs_out.iter().map(|j| j.energy).sum();
        let mean_wait =
            jobs_out.iter().map(|j| j.wait_hours).sum::<f64>() / jobs_out.len().max(1) as f64;
        let max_wait = jobs_out.iter().map(|j| j.wait_hours).fold(0.0f64, f64::max);
        SimOutcome {
            policy: self.policy,
            jobs: jobs_out,
            total_carbon,
            total_energy,
            mean_wait_hours: mean_wait,
            max_wait_hours: max_wait,
            ledger: self.ledger,
        }
    }
}

/// The EASY reservation: the earliest time enough GPUs free up for the
/// queue head, assuming running jobs finish on schedule.
fn easy_reservation(region: &RegionState, head: &Job, now: f64) -> f64 {
    let mut ends: Vec<(f64, u32)> = region
        .running
        .iter()
        .map(|(end, gpus, _)| (*end, *gpus))
        .collect();
    // End times are finite sums of finite starts and runtimes, so
    // `total_cmp` orders them identically without the panic arm.
    ends.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut free = region.free_gpus;
    for (end, gpus) in ends {
        free += gpus;
        if free >= head.gpus {
            return end.max(now);
        }
    }
    // Unreachable when the guard in run() holds (the head fits the
    // cluster), but stay safe.
    f64::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobTraceGenerator;
    use hpcarbon_grid::regions::OperatorId;
    use hpcarbon_grid::trace::IntensityTrace;
    use hpcarbon_timeseries::series::HourlySeries;
    use hpcarbon_units::Power;

    fn diurnal_cluster(capacity: u32) -> Cluster {
        let t = IntensityTrace::new(
            OperatorId::Eso,
            HourlySeries::from_fn(2021, |st| if st.hour() < 6 { 50.0 } else { 400.0 }),
        );
        Cluster::new("a", t, capacity)
    }

    fn jobs(n: usize, seed: u64) -> Vec<Job> {
        JobTraceGenerator::default_rates().generate(n, seed)
    }

    #[test]
    fn fifo_runs_everything_with_zero_policy_delay() {
        let js = jobs(100, 1);
        let out = Simulation::single_region(diurnal_cluster(512), Policy::Fifo, &js).run();
        assert_eq!(out.jobs.len(), 100);
        // Enormous capacity: every job starts on arrival.
        assert!(out.mean_wait_hours < 1e-9, "{}", out.mean_wait_hours);
        assert!(out.total_carbon.as_kg() > 0.0);
    }

    #[test]
    fn capacity_pressure_creates_waits() {
        let js = jobs(200, 2);
        let big = Simulation::single_region(diurnal_cluster(512), Policy::Fifo, &js).run();
        let small = Simulation::single_region(diurnal_cluster(8), Policy::Fifo, &js).run();
        assert!(small.mean_wait_hours > big.mean_wait_hours);
        // Same jobs, same region: energy identical regardless of capacity.
        assert!((small.total_energy.as_kwh() - big.total_energy.as_kwh()).abs() < 1e-6);
    }

    #[test]
    fn greenest_window_cuts_carbon_at_bounded_wait() {
        let js = jobs(300, 3);
        let fifo = Simulation::single_region(diurnal_cluster(512), Policy::Fifo, &js).run();
        let aware = Simulation::single_region(
            diurnal_cluster(512),
            Policy::GreenestWindow { horizon_hours: 24 },
            &js,
        )
        .run();
        assert!(
            aware.total_carbon.as_kg() < fifo.total_carbon.as_kg() * 0.8,
            "aware {} vs fifo {}",
            aware.total_carbon.as_kg(),
            fifo.total_carbon.as_kg()
        );
        // Waits stay within the deferral tolerances (+ small queueing).
        let max_tolerance = js.iter().map(|j| j.max_defer_hours).fold(0.0f64, f64::max);
        assert!(aware.max_wait_hours <= max_tolerance + 1.0);
    }

    #[test]
    fn threshold_defer_cuts_carbon() {
        let js = jobs(300, 4);
        let fifo = Simulation::single_region(diurnal_cluster(512), Policy::Fifo, &js).run();
        let aware = Simulation::single_region(
            diurnal_cluster(512),
            Policy::ThresholdDefer {
                threshold_g_per_kwh: 100.0,
            },
            &js,
        )
        .run();
        assert!(aware.total_carbon < fifo.total_carbon);
        assert!(aware.mean_wait_hours > fifo.mean_wait_hours);
    }

    #[test]
    fn cross_region_dispatch_prefers_clean_regions() {
        let dirty = Cluster::new(
            "dirty",
            IntensityTrace::new(OperatorId::Miso, HourlySeries::constant(2021, 500.0)),
            256,
        );
        let clean = Cluster::new(
            "clean",
            IntensityTrace::new(OperatorId::Eso, HourlySeries::constant(2021, 100.0)),
            256,
        );
        let js = jobs(200, 5);
        let single =
            Simulation::multi_region(vec![dirty.clone(), clean.clone()], Policy::Fifo, &js).run();
        let multi =
            Simulation::multi_region(vec![dirty, clean], Policy::LowestIntensityRegion, &js).run();
        assert!(multi.total_carbon.as_kg() < single.total_carbon.as_kg());
        // All jobs land on the clean cluster.
        assert!(multi.jobs.iter().all(|j| j.cluster == 1));
    }

    #[test]
    fn outcomes_are_deterministic() {
        let js = jobs(150, 6);
        let a = Simulation::single_region(
            diurnal_cluster(32),
            Policy::GreenestWindow { horizon_hours: 12 },
            &js,
        )
        .run();
        let b = Simulation::single_region(
            diurnal_cluster(32),
            Policy::GreenestWindow { horizon_hours: 12 },
            &js,
        )
        .run();
        assert_eq!(a.total_carbon.as_g(), b.total_carbon.as_g());
        assert_eq!(a.mean_wait_hours, b.mean_wait_hours);
    }

    #[test]
    fn job_carbon_matches_cluster_accounting() {
        let c = diurnal_cluster(8);
        let js = vec![Job {
            id: 0,
            user: 0,
            arrival_hours: 2.0,
            runtime_hours: 3.0,
            gpus: 2,
            power_per_gpu: Power::from_w(250.0),
            max_defer_hours: 0.0,
        }];
        let out = Simulation::single_region(c.clone(), Policy::Fifo, &js).run();
        let expected = c.carbon_for(2.0, TimeSpan::from_hours(3.0), Power::from_w(500.0));
        assert!((out.total_carbon.as_g() - expected.as_g()).abs() < 1e-9);
    }

    #[test]
    fn temporal_shift_cuts_carbon_via_release_events() {
        let js = jobs(300, 3);
        let fifo = Simulation::single_region(diurnal_cluster(512), Policy::Fifo, &js).run();
        let shifted = Simulation::single_region(
            diurnal_cluster(512),
            Policy::TemporalShift { slack_hours: 24 },
            &js,
        )
        .run();
        assert!(
            shifted.total_carbon.as_kg() < fifo.total_carbon.as_kg() * 0.8,
            "shifted {} vs fifo {}",
            shifted.total_carbon.as_kg(),
            fifo.total_carbon.as_kg()
        );
        // Deferral is bounded by the policy slack (+ capacity queueing,
        // which is zero at this capacity).
        assert!(shifted.max_wait_hours <= 24.0 + 1e-9);
    }

    #[test]
    fn spatio_temporal_beats_single_axis_policies() {
        let dirty_flat = Cluster::new(
            "flat",
            IntensityTrace::new(OperatorId::Miso, HourlySeries::constant(2021, 300.0)),
            512,
        );
        let js = jobs(200, 9);
        let run = |policy| {
            Simulation::multi_region(vec![dirty_flat.clone(), diurnal_cluster(512)], policy, &js)
                .run()
                .total_carbon
                .as_kg()
        };
        let joint = run(Policy::SpatioTemporal { slack_hours: 24 });
        let temporal_only = run(Policy::TemporalShift { slack_hours: 24 });
        let spatial_only = run(Policy::LowestIntensityRegion);
        assert!(joint <= temporal_only + 1e-9, "{joint} vs {temporal_only}");
        assert!(joint <= spatial_only + 1e-9, "{joint} vs {spatial_only}");
    }

    #[test]
    fn shifting_outcomes_are_deterministic() {
        let js = jobs(150, 8);
        let run = || {
            Simulation::single_region(
                diurnal_cluster(32),
                Policy::SpatioTemporal { slack_hours: 18 },
                &js,
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.total_carbon.as_g(), b.total_carbon.as_g());
        assert_eq!(a.mean_wait_hours, b.mean_wait_hours);
    }

    #[test]
    fn oversized_slack_fails_soft() {
        let js = jobs(10, 1);
        let err = Simulation::single_region(
            diurnal_cluster(512),
            Policy::TemporalShift { slack_hours: 8760 },
            &js,
        )
        .try_run()
        .unwrap_err();
        assert_eq!(
            err,
            SimError::ShiftSlackExceedsTrace {
                slack_hours: 8760,
                trace_hours: 8760
            }
        );
        assert!(err.to_string().contains("trace horizon"));
        // One hour less is fine.
        assert!(Simulation::single_region(
            diurnal_cluster(512),
            Policy::TemporalShift { slack_hours: 8759 },
            &js,
        )
        .try_run()
        .is_ok());
    }

    #[test]
    fn try_run_reports_oversized_jobs_softly() {
        let js = vec![Job {
            id: 7,
            user: 0,
            arrival_hours: 0.0,
            runtime_hours: 1.0,
            gpus: 64,
            power_per_gpu: Power::from_w(250.0),
            max_defer_hours: 0.0,
        }];
        let err = Simulation::single_region(diurnal_cluster(8), Policy::Fifo, &js)
            .try_run()
            .unwrap_err();
        assert_eq!(err, SimError::OversizedJob { job: 7, gpus: 64 });
    }

    #[test]
    #[should_panic(expected = "no cluster is large enough")]
    fn oversized_job_is_rejected_up_front() {
        let js = vec![Job {
            id: 0,
            user: 0,
            arrival_hours: 0.0,
            runtime_hours: 1.0,
            gpus: 64,
            power_per_gpu: Power::from_w(250.0),
            max_defer_hours: 0.0,
        }];
        let _ = Simulation::single_region(diurnal_cluster(8), Policy::Fifo, &js).run();
    }
}

#[cfg(test)]
mod cursor_tests {
    use super::*;
    use crate::job::JobTraceGenerator;
    use hpcarbon_grid::regions::OperatorId;
    use hpcarbon_grid::trace::IntensityTrace;
    use hpcarbon_sim::rng::SimRng;
    use hpcarbon_timeseries::series::HourlySeries;
    use hpcarbon_units::Power;

    /// The heap-only event loop: every arrival queued up front, then the
    /// queue drained. The reference the arrival cursor must reproduce.
    fn try_run_heap_only(sim: Simulation<'_>) -> Result<SimOutcome, SimError> {
        let Simulation {
            clusters,
            policy,
            jobs,
            ledger,
            discipline,
        } = sim;
        let mut run = Run::new(&clusters, policy, jobs, ledger, discipline);
        for (i, job) in jobs.iter().enumerate() {
            run.q.schedule_at(job.arrival_hours, Event::Arrive(i));
        }
        check_feasible(&clusters, policy, jobs)?;
        while let Some((now, event)) = run.q.pop() {
            run.handle(now, event);
        }
        Ok(run.into_outcome())
    }

    fn clusters(n: usize) -> Vec<Cluster> {
        // Integer plateaus, so placement ties are common.
        let diurnal = IntensityTrace::new(
            OperatorId::Eso,
            HourlySeries::from_fn(2021, |st| if st.hour() < 6 { 50.0 } else { 400.0 }),
        );
        let steps = IntensityTrace::new(
            OperatorId::Ciso,
            HourlySeries::from_fn(2021, |st| 100.0 + 100.0 * f64::from(st.hour() / 8)),
        );
        [Cluster::new("a", diurnal, 8), Cluster::new("b", steps, 12)]
            .into_iter()
            .take(n)
            .collect()
    }

    /// Job sets whose event order the cursor must not change: arrival
    /// order not job order, repeated arrival times, arrivals that tie
    /// releases and finishes, and a `-0.0` arrival.
    fn job_sets(seed: u64) -> Vec<Vec<Job>> {
        let base = JobTraceGenerator::default_rates().generate(40, seed);
        let mut shuffled = base.clone();
        let mut rng = SimRng::seed_from(seed).substream("shuffle");
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.index(i + 1));
        }
        let mut repeated = shuffled.clone();
        for pair in repeated.chunks_mut(2) {
            if let [a, b] = pair {
                b.arrival_hours = a.arrival_hours;
            }
        }
        let integer: Vec<Job> = shuffled
            .iter()
            .map(|j| Job {
                arrival_hours: j.arrival_hours.floor(),
                runtime_hours: j.runtime_hours.ceil(),
                max_defer_hours: j.max_defer_hours.floor(),
                ..j.clone()
            })
            .collect();
        let mut zeros = integer.clone();
        zeros[0].arrival_hours = -0.0;
        zeros[1].arrival_hours = 0.0;
        zeros[2].arrival_hours = -0.0;
        vec![base, shuffled, repeated, integer, zeros]
    }

    fn assert_same(a: &SimOutcome, b: &SimOutcome, what: &str) {
        assert_eq!(a.jobs.len(), b.jobs.len(), "{what}");
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.id, y.id, "{what}");
            assert_eq!(x.cluster, y.cluster, "{what}: job {}", x.id);
            assert_eq!(x.wait_hours.to_bits(), y.wait_hours.to_bits(), "{what}");
            assert_eq!(x.start_hours.to_bits(), y.start_hours.to_bits(), "{what}");
            assert_eq!(
                x.carbon.as_g().to_bits(),
                y.carbon.as_g().to_bits(),
                "{what}"
            );
            assert_eq!(
                x.energy.as_kwh().to_bits(),
                y.energy.as_kwh().to_bits(),
                "{what}"
            );
        }
        let bits = |o: &SimOutcome| {
            (
                o.total_carbon.as_g().to_bits(),
                o.total_energy.as_kwh().to_bits(),
                o.mean_wait_hours.to_bits(),
                o.max_wait_hours.to_bits(),
                o.ledger.as_ref().map(|l| l.total_spent().as_g().to_bits()),
            )
        };
        assert_eq!(bits(a), bits(b), "{what}: totals");
    }

    #[test]
    fn arrival_cursor_matches_the_heap_only_loop() {
        let policies = [
            Policy::Fifo,
            Policy::ThresholdDefer {
                threshold_g_per_kwh: 150.0,
            },
            Policy::GreenestWindow { horizon_hours: 24 },
            Policy::LowestIntensityRegion,
            Policy::RegionAndTime { horizon_hours: 24 },
            Policy::TemporalShift { slack_hours: 24 },
            Policy::SpatioTemporal { slack_hours: 24 },
        ];
        let disciplines = [
            QueueDiscipline::StrictFifo,
            QueueDiscipline::FirstFit,
            QueueDiscipline::EasyBackfill,
        ];
        let pool = clusters(2);
        for seed in [3, 11] {
            for (set, jobs) in job_sets(seed).iter().enumerate() {
                for n in [1, 2] {
                    for policy in policies {
                        for discipline in disciplines {
                            for budgets in [false, true] {
                                let sim = || {
                                    let sim =
                                        Simulation::multi_region(pool[..n].to_vec(), policy, jobs)
                                            .with_discipline(discipline);
                                    if budgets {
                                        sim.with_budgets(CarbonBudgetLedger::uniform(
                                            16,
                                            CarbonMass::from_kg(5.0),
                                        ))
                                    } else {
                                        sim
                                    }
                                };
                                let what = format!(
                                    "seed {seed} set {set} clusters {n} {policy:?} \
                                     {discipline:?} budgets {budgets}"
                                );
                                let cursor = sim().try_run().expect("feasible");
                                let heap = try_run_heap_only(sim()).expect("feasible");
                                assert_same(&cursor, &heap, &what);
                            }
                        }
                    }
                }
            }
        }
    }

    fn one_job(arrival_hours: f64, runtime_hours: f64, gpus: u32) -> Job {
        Job {
            id: 0,
            user: 0,
            arrival_hours,
            runtime_hours,
            gpus,
            power_per_gpu: Power::from_w(300.0),
            max_defer_hours: 0.0,
        }
    }

    #[test]
    #[should_panic(expected = "event time must not be NaN")]
    fn nan_arrival_panics() {
        let jobs = [one_job(1.0, 1.0, 1), one_job(f64::NAN, 1.0, 1)];
        let _ = Simulation::multi_region(clusters(1), Policy::Fifo, &jobs).try_run();
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past: -1 < 0")]
    fn negative_arrival_panics() {
        let jobs = [one_job(1.0, 1.0, 1), one_job(-1.0, 1.0, 1)];
        let _ = Simulation::multi_region(clusters(1), Policy::Fifo, &jobs).try_run();
    }

    #[test]
    #[should_panic(expected = "event time must not be NaN")]
    fn nan_arrival_panics_before_the_capacity_guard() {
        // The oversized job alone would be an `Err`; the NaN arrival is
        // checked first.
        let jobs = [one_job(0.0, 1.0, 64), one_job(f64::NAN, 1.0, 1)];
        let _ = Simulation::multi_region(clusters(1), Policy::Fifo, &jobs).try_run();
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_runtime_panics() {
        let jobs = [one_job(1.0, 0.0, 1)];
        let _ = Simulation::multi_region(clusters(1), Policy::Fifo, &jobs).try_run();
    }
}

#[cfg(test)]
mod discipline_tests {
    use super::*;
    use hpcarbon_grid::regions::OperatorId;
    use hpcarbon_grid::trace::IntensityTrace;
    use hpcarbon_timeseries::series::HourlySeries;
    use hpcarbon_units::Power;

    fn cluster(capacity: u32) -> Cluster {
        Cluster::new(
            "c",
            IntensityTrace::new(OperatorId::Eso, HourlySeries::constant(2021, 200.0)),
            capacity,
        )
    }

    /// A wide job arrives just after a stream of narrow jobs begins; more
    /// narrow jobs keep arriving forever after.
    fn starvation_trace() -> Vec<Job> {
        let mut jobs = Vec::new();
        // Two 4-GPU jobs occupy the whole 8-GPU cluster from t=0, renewed
        // in staggered fashion so 4 GPUs free up periodically.
        for k in 0..60 {
            jobs.push(Job {
                id: jobs.len(),
                user: 0,
                arrival_hours: k as f64 * 1.0,
                runtime_hours: 2.0,
                gpus: 4,
                power_per_gpu: Power::from_w(300.0),
                max_defer_hours: 0.0,
            });
        }
        // The wide job arrives at t=0.5 and needs the whole cluster.
        jobs.push(Job {
            id: jobs.len(),
            user: 1,
            arrival_hours: 0.5,
            runtime_hours: 4.0,
            gpus: 8,
            power_per_gpu: Power::from_w(300.0),
            max_defer_hours: 0.0,
        });
        jobs.sort_by(|a, b| a.arrival_hours.partial_cmp(&b.arrival_hours).unwrap());
        let mut jobs: Vec<Job> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, mut j)| {
                j.id = i;
                j
            })
            .collect();
        jobs.sort_by_key(|j| j.id);
        jobs
    }

    fn wide_job_wait(discipline: QueueDiscipline) -> f64 {
        let jobs = starvation_trace();
        let wide_id = jobs
            .iter()
            .find(|j| j.gpus == 8)
            .expect("wide job present")
            .id;
        let out = Simulation::single_region(cluster(8), Policy::Fifo, &jobs)
            .with_discipline(discipline)
            .run();
        out.jobs[wide_id].wait_hours
    }

    #[test]
    fn first_fit_starves_the_wide_job() {
        // Narrow jobs keep slipping in front: the wide job waits until the
        // narrow stream dries up.
        let ff = wide_job_wait(QueueDiscipline::FirstFit);
        let easy = wide_job_wait(QueueDiscipline::EasyBackfill);
        assert!(
            ff > easy + 4.0,
            "first-fit {ff} should starve vs EASY {easy}"
        );
    }

    #[test]
    fn strict_fifo_bounds_the_wide_job_too() {
        let fifo = wide_job_wait(QueueDiscipline::StrictFifo);
        let ff = wide_job_wait(QueueDiscipline::FirstFit);
        assert!(fifo < ff);
    }

    #[test]
    fn all_disciplines_complete_all_jobs_with_equal_energy() {
        let jobs = crate::job::JobTraceGenerator::default_rates().generate(120, 11);
        let mut energies = Vec::new();
        for d in [
            QueueDiscipline::StrictFifo,
            QueueDiscipline::FirstFit,
            QueueDiscipline::EasyBackfill,
        ] {
            let out = Simulation::single_region(cluster(16), Policy::Fifo, &jobs)
                .with_discipline(d)
                .run();
            assert_eq!(out.jobs.len(), jobs.len(), "{d:?}");
            energies.push(out.total_energy.as_kwh());
        }
        for w in energies.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-6);
        }
    }

    #[test]
    fn strict_fifo_preserves_start_order() {
        let jobs = crate::job::JobTraceGenerator::default_rates().generate(80, 13);
        let out = Simulation::single_region(cluster(12), Policy::Fifo, &jobs)
            .with_discipline(QueueDiscipline::StrictFifo)
            .run();
        // Under strict FIFO with a single region and no deferral, start
        // times are non-decreasing in arrival order.
        let mut last = 0.0;
        for o in &out.jobs {
            assert!(o.start_hours + 1e-9 >= last);
            last = o.start_hours;
        }
    }

    #[test]
    fn easy_utilization_beats_strict_fifo() {
        // EASY finishes the same workload sooner than strict FIFO on a
        // congested cluster (it fills holes the blocked head leaves).
        let jobs = crate::job::JobTraceGenerator::default_rates().generate(150, 17);
        let makespan = |d: QueueDiscipline| {
            let out = Simulation::single_region(cluster(12), Policy::Fifo, &jobs)
                .with_discipline(d)
                .run();
            out.jobs
                .iter()
                .zip(&jobs)
                .map(|(o, j)| o.start_hours + j.runtime_hours)
                .fold(0.0f64, f64::max)
        };
        let fifo = makespan(QueueDiscipline::StrictFifo);
        let easy = makespan(QueueDiscipline::EasyBackfill);
        assert!(easy <= fifo + 1e-9, "easy {easy} vs fifo {fifo}");
    }
}
