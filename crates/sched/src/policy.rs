//! Scheduling policies: the carbon-unaware baseline and the
//! carbon-intensity-aware strategies the paper's §4 implications describe.

use crate::cluster::{slot, Cluster};
use crate::job::Job;

/// A placement decision: which cluster to run on and the earliest start
/// the policy requests (the simulator may start later if GPUs are busy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Index into the simulation's cluster list.
    pub cluster: usize,
    /// Earliest start time requested, hours since epoch.
    pub earliest_start_hours: f64,
}

/// Scheduling policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Carbon-unaware baseline: run as soon as possible on the arrival
    /// cluster.
    Fifo,
    /// Temporal deferral: wait (within the job's tolerance) until the
    /// local intensity drops below `threshold_g_per_kwh`, else start at
    /// the tolerance limit.
    ThresholdDefer {
        /// Start when intensity is below this level.
        threshold_g_per_kwh: f64,
    },
    /// Temporal deferral: start at the greenest window of the next
    /// `horizon_hours` (bounded by the job's tolerance) — the paper's
    /// "exploit temporal variations" scheduler.
    GreenestWindow {
        /// Look-ahead horizon.
        horizon_hours: u32,
    },
    /// Cross-region dispatch: run immediately, but on the cluster whose
    /// mean intensity over the job's runtime is lowest — the paper's
    /// "distributing jobs across geographically distributed HPC centers".
    LowestIntensityRegion,
    /// Cross-region dispatch plus greenest-window deferral.
    RegionAndTime {
        /// Look-ahead horizon.
        horizon_hours: u32,
    },
    /// Indexed temporal shifting: defer to the greenest runtime-length
    /// window within the *policy's* slack, found by one `O(slack)` query
    /// against the trace's window index (the `O(slack × runtime)` scan of
    /// [`Policy::GreenestWindow`] collapsed to indexed lookups). The slack
    /// is an operator-level contract applied to every job; per-job
    /// deferral tolerance is not consulted. Ties break toward the
    /// earliest start hour.
    TemporalShift {
        /// Hours a job may be deferred past its arrival.
        slack_hours: u32,
    },
    /// Joint cluster + start-hour choice by indexed lookup: for every
    /// cluster that fits the job, find its greenest in-slack window, then
    /// run where the resulting window mean is lowest. Ties break toward
    /// the earlier start hour, then the lower cluster index.
    SpatioTemporal {
        /// Hours a job may be deferred past its arrival.
        slack_hours: u32,
    },
}

impl Policy {
    /// True when the policy may place jobs on non-arrival clusters.
    pub fn is_multi_region(self) -> bool {
        matches!(
            self,
            Policy::LowestIntensityRegion
                | Policy::RegionAndTime { .. }
                | Policy::SpatioTemporal { .. }
        )
    }

    /// The policy's shifting slack, when it is a shifting policy.
    pub fn shift_slack_hours(self) -> Option<u32> {
        match self {
            Policy::TemporalShift { slack_hours } | Policy::SpatioTemporal { slack_hours } => {
                Some(slack_hours)
            }
            _ => None,
        }
    }

    /// Display label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Fifo => "FIFO (carbon-unaware)",
            Policy::ThresholdDefer { .. } => "threshold deferral",
            Policy::GreenestWindow { .. } => "greenest-window deferral",
            Policy::LowestIntensityRegion => "lowest-intensity region",
            Policy::RegionAndTime { .. } => "region + time aware",
            Policy::TemporalShift { .. } => "temporal shift",
            Policy::SpatioTemporal { .. } => "spatio-temporal shift",
        }
    }

    /// Decides the placement of `job`, arriving now at `arrival_cluster`.
    pub fn place(
        self,
        job: &Job,
        now_hours: f64,
        arrival_cluster: usize,
        clusters: &[Cluster],
    ) -> Placement {
        match self {
            Policy::Fifo => Placement {
                cluster: arrival_cluster,
                earliest_start_hours: now_hours,
            },
            Policy::ThresholdDefer {
                threshold_g_per_kwh,
            } => {
                // Decide on the planning trace: a threshold crossing a
                // forecast predicts may not materialize in the actual.
                let values = clusters[arrival_cluster].planning_trace().series().values();
                let len = values.len() as u32;
                let limit = now_hours + job.max_defer_hours;
                let mut t = now_hours;
                // Scan forward hour by hour until the threshold is met or
                // tolerance runs out.
                while t < limit {
                    if values[slot(t, len) as usize] <= threshold_g_per_kwh {
                        break;
                    }
                    t = t.floor() + 1.0;
                }
                Placement {
                    cluster: arrival_cluster,
                    earliest_start_hours: t.min(limit),
                }
            }
            Policy::GreenestWindow { horizon_hours } => {
                let c = &clusters[arrival_cluster];
                let start = greenest_start(c, job, now_hours, horizon_hours);
                Placement {
                    cluster: arrival_cluster,
                    earliest_start_hours: start,
                }
            }
            Policy::LowestIntensityRegion => {
                let best = (0..clusters.len())
                    .filter(|i| clusters[*i].capacity_gpus >= job.gpus)
                    .min_by(|a, b| {
                        let ia = clusters[*a].mean_intensity_over(now_hours, job.runtime_hours);
                        let ib = clusters[*b].mean_intensity_over(now_hours, job.runtime_hours);
                        // Trace intensities are finite by construction, so
                        // `total_cmp` orders them identically without the
                        // panic arm.
                        ia.total_cmp(&ib)
                    })
                    .unwrap_or(arrival_cluster);
                Placement {
                    cluster: best,
                    earliest_start_hours: now_hours,
                }
            }
            Policy::RegionAndTime { horizon_hours } => {
                let mut best = Placement {
                    cluster: arrival_cluster,
                    earliest_start_hours: now_hours,
                };
                let mut best_mean = f64::INFINITY;
                for (i, c) in clusters.iter().enumerate() {
                    if c.capacity_gpus < job.gpus {
                        continue;
                    }
                    let start = greenest_start(c, job, now_hours, horizon_hours);
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
            Policy::TemporalShift { slack_hours } => {
                // Shift against the trace of the cluster the job will
                // actually run on, so the deferral is never optimized
                // against the wrong region's trace.
                let cluster = crate::cluster::fitting_cluster(arrival_cluster, job, clusters);
                let (shift, _) =
                    clusters[cluster].greenest_shift_for(now_hours, job.runtime_hours, slack_hours);
                Placement {
                    cluster,
                    earliest_start_hours: now_hours + f64::from(shift),
                }
            }
            Policy::SpatioTemporal { slack_hours } => {
                let mut best = Placement {
                    cluster: arrival_cluster,
                    earliest_start_hours: now_hours,
                };
                let mut best_key = (f64::INFINITY, u32::MAX);
                for (i, c) in clusters.iter().enumerate() {
                    if c.capacity_gpus < job.gpus {
                        continue;
                    }
                    let (shift, mean) =
                        c.greenest_shift_for(now_hours, job.runtime_hours, slack_hours);
                    // Strict lexicographic improvement keeps the earliest
                    // start on equal means and the lowest cluster index on
                    // full ties — fully deterministic placement.
                    if (mean, shift) < best_key {
                        best_key = (mean, shift);
                        best = Placement {
                            cluster: i,
                            earliest_start_hours: now_hours + f64::from(shift),
                        };
                    }
                }
                best
            }
        }
    }
}

/// The start within `[now, now + min(horizon, tolerance)]` minimizing the
/// job's mean intensity over its runtime on cluster `c`; ties keep the
/// earliest start.
///
/// Candidate `k` starts at `now + k` as an `f64` add and is priced at
/// that sum's slot, never at `floor(now) + k`: the add can round up
/// (`0.9999999999999999 + 1.0 == 2.0`), so the two slots can differ.
/// Candidates compare window means, not window sums, because two
/// different sums can divide to one mean and the tie-break would change.
fn greenest_start(c: &Cluster, job: &Job, now_hours: f64, horizon_hours: u32) -> f64 {
    let max_shift = f64::from(horizon_hours).min(job.max_defer_hours).max(0.0);
    let mut best = now_hours;
    let mut best_mean = c.mean_intensity_over(now_hours, job.runtime_hours);
    let mut shift = 1.0;
    while shift <= max_shift {
        let t = now_hours + shift;
        let mean = c.mean_intensity_over(t, job.runtime_hours);
        if mean < best_mean {
            best_mean = mean;
            best = t;
        }
        shift += 1.0;
    }
    best
}

/// [`Policy::GreenestWindow`]'s start with every candidate looked up the
/// long way: the window width recomputed and the trace indexed by the
/// floored modulo `(t.floor() as u64 % len) as u32`, one `floor` and one
/// 64-bit division per candidate, which the slot rule
/// ([`Cluster::mean_intensity_over`]) must equal. Kept as the oracle the
/// placement proptests compare against bit for bit, and as the bench
/// gate's baseline for the placement scan.
#[doc(hidden)]
pub fn greenest_start_reference(c: &Cluster, job: &Job, now_hours: f64, horizon_hours: u32) -> f64 {
    let mean_over = |start_hours: f64| {
        let planning = c.planning_trace();
        let len = planning.series().len() as u32;
        let w = (job.runtime_hours.ceil().max(1.0) as u32).min(len);
        let start = (start_hours.floor() as u64 % u64::from(len)) as u32;
        planning.window_index().window_mean(start, w)
    };
    let max_shift = f64::from(horizon_hours).min(job.max_defer_hours).max(0.0);
    let mut best = now_hours;
    let mut best_mean = mean_over(now_hours);
    let mut shift = 1.0;
    while shift <= max_shift {
        let t = now_hours + shift;
        let mean = mean_over(t);
        if mean < best_mean {
            best_mean = mean;
            best = t;
        }
        shift += 1.0;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcarbon_grid::regions::OperatorId;
    use hpcarbon_grid::trace::IntensityTrace;
    use hpcarbon_timeseries::series::HourlySeries;
    use hpcarbon_units::Power;

    fn job(defer: f64, runtime: f64) -> Job {
        Job {
            id: 0,
            user: 0,
            arrival_hours: 0.0,
            runtime_hours: runtime,
            gpus: 1,
            power_per_gpu: Power::from_w(300.0),
            max_defer_hours: defer,
        }
    }

    fn diurnal_cluster() -> Cluster {
        // Clean overnight (hours 0-5: 50), dirty otherwise (400).
        let t = IntensityTrace::new(
            OperatorId::Eso,
            HourlySeries::from_fn(2021, |st| if st.hour() < 6 { 50.0 } else { 400.0 }),
        );
        Cluster::new("a", t, 16)
    }

    fn flat_cluster(level: f64) -> Cluster {
        let t = IntensityTrace::new(OperatorId::Ciso, HourlySeries::new(2021, vec![level; 8760]));
        Cluster::new("b", t, 16)
    }

    #[test]
    fn fifo_runs_immediately() {
        let clusters = [diurnal_cluster()];
        let p = Policy::Fifo.place(&job(100.0, 2.0), 10.0, 0, &clusters);
        assert_eq!(p.cluster, 0);
        assert_eq!(p.earliest_start_hours, 10.0);
    }

    #[test]
    fn threshold_defers_to_clean_hours() {
        let clusters = [diurnal_cluster()];
        // Arriving at hour 10 (dirty): wait until midnight (hour 24).
        let p = Policy::ThresholdDefer {
            threshold_g_per_kwh: 100.0,
        }
        .place(&job(100.0, 2.0), 10.0, 0, &clusters);
        assert_eq!(p.earliest_start_hours, 24.0);
    }

    #[test]
    fn threshold_respects_tolerance() {
        let clusters = [diurnal_cluster()];
        // Only 3 hours of tolerance: must start by hour 13.
        let p = Policy::ThresholdDefer {
            threshold_g_per_kwh: 100.0,
        }
        .place(&job(3.0, 2.0), 10.0, 0, &clusters);
        assert_eq!(p.earliest_start_hours, 13.0);
    }

    #[test]
    fn greenest_window_finds_the_night() {
        let clusters = [diurnal_cluster()];
        let p =
            Policy::GreenestWindow { horizon_hours: 24 }.place(&job(48.0, 4.0), 8.0, 0, &clusters);
        // Best 4-hour window within 24 h of hour 8 starts at hour 24
        // (midnight, fully inside the clean block).
        assert_eq!(p.earliest_start_hours, 24.0);
    }

    #[test]
    fn greenest_window_with_no_tolerance_runs_now() {
        let clusters = [diurnal_cluster()];
        let p =
            Policy::GreenestWindow { horizon_hours: 24 }.place(&job(0.0, 4.0), 8.0, 0, &clusters);
        assert_eq!(p.earliest_start_hours, 8.0);
    }

    #[test]
    fn lowest_region_picks_cleaner_cluster() {
        let clusters = [flat_cluster(400.0), flat_cluster(100.0)];
        let p = Policy::LowestIntensityRegion.place(&job(0.0, 2.0), 5.0, 0, &clusters);
        assert_eq!(p.cluster, 1);
        assert_eq!(p.earliest_start_hours, 5.0);
    }

    #[test]
    fn lowest_region_respects_capacity() {
        let mut small = flat_cluster(50.0);
        small.capacity_gpus = 1;
        let clusters = [flat_cluster(400.0), small];
        let mut j = job(0.0, 2.0);
        j.gpus = 4; // cannot fit on the clean-but-tiny cluster
        let p = Policy::LowestIntensityRegion.place(&j, 0.0, 0, &clusters);
        assert_eq!(p.cluster, 0);
    }

    #[test]
    fn region_and_time_beats_either_alone() {
        // Cluster 0 is diurnal (clean nights); cluster 1 is flat 200.
        let clusters = [diurnal_cluster(), flat_cluster(200.0)];
        let j = job(48.0, 4.0);
        let p = Policy::RegionAndTime { horizon_hours: 24 }.place(&j, 8.0, 1, &clusters);
        // Best choice: defer to cluster 0's night (mean 50) rather than
        // run at 200 now.
        assert_eq!(p.cluster, 0);
        let mean = clusters[0].mean_intensity_over(p.earliest_start_hours, 4.0);
        assert!(mean < 100.0, "mean {mean}");
    }

    #[test]
    fn labels_exist() {
        for p in [
            Policy::Fifo,
            Policy::ThresholdDefer {
                threshold_g_per_kwh: 1.0,
            },
            Policy::GreenestWindow { horizon_hours: 1 },
            Policy::LowestIntensityRegion,
            Policy::RegionAndTime { horizon_hours: 1 },
            Policy::TemporalShift { slack_hours: 1 },
            Policy::SpatioTemporal { slack_hours: 1 },
        ] {
            assert!(!p.label().is_empty());
        }
        assert!(Policy::LowestIntensityRegion.is_multi_region());
        assert!(Policy::SpatioTemporal { slack_hours: 1 }.is_multi_region());
        assert!(!Policy::TemporalShift { slack_hours: 1 }.is_multi_region());
        assert!(!Policy::Fifo.is_multi_region());
        assert_eq!(
            Policy::TemporalShift { slack_hours: 9 }.shift_slack_hours(),
            Some(9)
        );
        assert_eq!(Policy::Fifo.shift_slack_hours(), None);
    }

    #[test]
    fn temporal_shift_defers_into_the_night() {
        let clusters = [diurnal_cluster()];
        // Arriving at hour 8 with 24 h of slack: a 4-hour run is greenest
        // starting at the next midnight (hour 24 -> shift 16).
        let p = Policy::TemporalShift { slack_hours: 24 }.place(
            &job(0.0, 4.0), // job tolerance is irrelevant to this policy
            8.0,
            0,
            &clusters,
        );
        assert_eq!(p.cluster, 0);
        assert_eq!(p.earliest_start_hours, 24.0);
    }

    #[test]
    fn temporal_shift_with_zero_slack_runs_now() {
        let clusters = [diurnal_cluster()];
        let p = Policy::TemporalShift { slack_hours: 0 }.place(&job(0.0, 4.0), 8.0, 0, &clusters);
        assert_eq!(p.earliest_start_hours, 8.0);
    }

    #[test]
    fn temporal_shift_ties_break_to_the_earliest_start() {
        let clusters = [flat_cluster(200.0)];
        let p = Policy::TemporalShift { slack_hours: 48 }.place(&job(0.0, 3.0), 5.0, 0, &clusters);
        // All windows are equal on a flat trace: run immediately.
        assert_eq!(p.earliest_start_hours, 5.0);
    }

    #[test]
    fn spatio_temporal_jointly_picks_region_and_hour() {
        // Cluster 0 is flat 200; cluster 1 is diurnal (clean nights at 50).
        let clusters = [flat_cluster(200.0), diurnal_cluster()];
        let p = Policy::SpatioTemporal { slack_hours: 24 }.place(&job(0.0, 4.0), 8.0, 0, &clusters);
        // Deferring to cluster 1's night (mean 50) beats running at 200.
        assert_eq!(p.cluster, 1);
        assert_eq!(p.earliest_start_hours, 24.0);
    }

    #[test]
    fn spatio_temporal_respects_capacity() {
        let mut tiny = diurnal_cluster();
        tiny.capacity_gpus = 1;
        let clusters = [flat_cluster(200.0), tiny];
        let mut j = job(0.0, 4.0);
        j.gpus = 4;
        let p = Policy::SpatioTemporal { slack_hours: 24 }.place(&j, 8.0, 1, &clusters);
        assert_eq!(p.cluster, 0);
    }

    #[test]
    fn spatio_temporal_ties_break_to_the_lowest_cluster() {
        let clusters = [flat_cluster(200.0), flat_cluster(200.0)];
        let p = Policy::SpatioTemporal { slack_hours: 12 }.place(&job(0.0, 2.0), 1.0, 1, &clusters);
        assert_eq!(p.cluster, 0);
        assert_eq!(p.earliest_start_hours, 1.0);
    }

    #[test]
    fn temporal_shift_falls_back_to_a_fitting_cluster() {
        // The arrival cluster is too small: the shift must be computed on
        // (and the placement point at) the cluster the job actually runs
        // on, not the arrival cluster's unrelated trace.
        let mut tiny = flat_cluster(100.0);
        tiny.capacity_gpus = 1;
        let clusters = [tiny, diurnal_cluster()];
        let mut j = job(0.0, 4.0);
        j.gpus = 4;
        let p = Policy::TemporalShift { slack_hours: 24 }.place(&j, 8.0, 0, &clusters);
        assert_eq!(p.cluster, 1);
        // Deferred to cluster 1's clean night, not run immediately on the
        // flat trace's "everything is equal" answer.
        assert_eq!(p.earliest_start_hours, 24.0);
    }

    #[test]
    fn temporal_shift_matches_naive_argmin() {
        // The indexed placement must agree with a direct scan of every
        // candidate start on a structured trace.
        let clusters = [diurnal_cluster()];
        let j = job(0.0, 5.0);
        for now in [0.0, 7.0, 13.0, 22.0] {
            let p = Policy::TemporalShift { slack_hours: 30 }.place(&j, now, 0, &clusters);
            let mut best_shift = 0u32;
            let mut best = f64::INFINITY;
            for d in 0..=30u32 {
                let m = clusters[0].mean_intensity_over(now + f64::from(d), 5.0);
                if m < best {
                    best = m;
                    best_shift = d;
                }
            }
            assert_eq!(
                p.earliest_start_hours,
                now + f64::from(best_shift),
                "now {now}"
            );
        }
    }
}
