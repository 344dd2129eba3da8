//! Jobs and workload-trace generation.

use hpcarbon_sim::dist::{Exponential, LogNormal, WeightedIndex};
use hpcarbon_sim::rng::SimRng;
use hpcarbon_units::Power;

/// One batch job: arrives, waits, runs exclusively on `gpus` GPUs for
/// `runtime_hours`, drawing `power_per_gpu` while running.
#[derive(Debug, Clone)]
pub struct Job {
    /// Dense job id (index into the trace).
    pub id: usize,
    /// Submitting user (index into the user pool).
    pub user: usize,
    /// Submission time, hours since the simulation epoch.
    pub arrival_hours: f64,
    /// Execution length, hours.
    pub runtime_hours: f64,
    /// GPUs held while running.
    pub gpus: u32,
    /// IT power drawn per held GPU while running (board + host share).
    pub power_per_gpu: Power,
    /// Hours of deferral the job tolerates (its slack before the user's
    /// deadline). Carbon-aware policies must respect it.
    pub max_defer_hours: f64,
}

impl Job {
    /// Total IT power while running.
    pub fn power(&self) -> Power {
        self.power_per_gpu * f64::from(self.gpus)
    }
}

/// Seeded generator of job traces with the canonical HPC shape:
/// Poisson arrivals, log-normal runtimes, skewed GPU-size mix.
#[derive(Debug, Clone)]
pub struct JobTraceGenerator {
    /// Mean arrivals per hour.
    pub arrival_rate_per_hour: f64,
    /// Median runtime, hours.
    pub median_runtime_hours: f64,
    /// Log-normal spread of runtimes.
    pub runtime_sigma: f64,
    /// GPU-count choices and weights.
    pub gpu_sizes: Vec<(u32, f64)>,
    /// Number of distinct users.
    pub users: usize,
    /// Per-GPU IT power while running.
    pub power_per_gpu: Power,
    /// Mean tolerated deferral, hours (exponentially distributed).
    pub mean_defer_tolerance_hours: f64,
}

impl JobTraceGenerator {
    /// A production-like default: ~2 jobs/hour, 3 h median runtime,
    /// mostly small jobs, 350 W per GPU (board + host share), up to a
    /// day of tolerated deferral on average.
    pub fn default_rates() -> JobTraceGenerator {
        JobTraceGenerator {
            arrival_rate_per_hour: 2.0,
            median_runtime_hours: 3.0,
            runtime_sigma: 1.0,
            gpu_sizes: vec![(1, 0.45), (2, 0.25), (4, 0.20), (8, 0.10)],
            users: 16,
            power_per_gpu: Power::from_w(350.0),
            mean_defer_tolerance_hours: 24.0,
        }
    }

    /// Generates `n` jobs deterministically from `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Job> {
        assert!(self.arrival_rate_per_hour > 0.0);
        let mut rng = SimRng::seed_from(seed).substream("jobs");
        // lint: allow(panic-in-library) -- rate positivity is asserted two lines up, so the constructor cannot fail
        let inter = Exponential::new(self.arrival_rate_per_hour).expect("positive rate");
        let runtime = LogNormal::from_median(self.median_runtime_hours, self.runtime_sigma)
            // lint: allow(panic-in-library) -- workload presets carry positive medians and sigmas; a bad hand-built preset should stop loudly at generation time
            .expect("valid");
        // lint: allow(panic-in-library) -- mean_defer_tolerance_hours is positive in every preset, so the rate 1/mean is positive and finite
        let defer = Exponential::new(1.0 / self.mean_defer_tolerance_hours).expect("positive");
        let weights: Vec<f64> = self.gpu_sizes.iter().map(|(_, w)| *w).collect();
        // lint: allow(panic-in-library) -- gpu_sizes presets always carry at least one positive weight, the only way WeightedIndex::new fails
        let size_dist = WeightedIndex::new(&weights).expect("valid weights");

        let mut t = 0.0;
        (0..n)
            .map(|id| {
                t += inter.sample(&mut rng);
                Job {
                    id,
                    user: rng.index(self.users),
                    arrival_hours: t,
                    // Cap runtimes at a week to keep the tail physical.
                    runtime_hours: runtime.sample(&mut rng).clamp(0.05, 168.0),
                    gpus: self.gpu_sizes[size_dist.sample(&mut rng)].0,
                    power_per_gpu: self.power_per_gpu,
                    max_defer_hours: defer.sample(&mut rng),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let g = JobTraceGenerator::default_rates();
        let a = g.generate(100, 5);
        let b = g.generate(100, 5);
        assert_eq!(a.len(), 100);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_hours, y.arrival_hours);
            assert_eq!(x.runtime_hours, y.runtime_hours);
            assert_eq!(x.gpus, y.gpus);
            assert_eq!(x.user, y.user);
        }
        let c = g.generate(100, 6);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.arrival_hours != y.arrival_hours));
    }

    #[test]
    fn arrivals_are_increasing_and_rate_plausible() {
        let g = JobTraceGenerator::default_rates();
        let jobs = g.generate(2000, 1);
        for w in jobs.windows(2) {
            assert!(w[1].arrival_hours > w[0].arrival_hours);
        }
        // ~2 jobs/hour -> 2000 jobs span ~1000 h.
        let span = jobs.last().unwrap().arrival_hours;
        assert!((800.0..1250.0).contains(&span), "span {span}");
    }

    #[test]
    fn runtimes_and_sizes_in_range() {
        let g = JobTraceGenerator::default_rates();
        let jobs = g.generate(2000, 2);
        let valid_sizes: Vec<u32> = g.gpu_sizes.iter().map(|(s, _)| *s).collect();
        for j in &jobs {
            assert!(j.runtime_hours >= 0.05 && j.runtime_hours <= 168.0);
            assert!(valid_sizes.contains(&j.gpus));
            assert!(j.user < g.users);
            assert!(j.max_defer_hours >= 0.0);
        }
        // Median runtime lands near the configured median.
        let mut rt: Vec<f64> = jobs.iter().map(|j| j.runtime_hours).collect();
        rt.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = rt[rt.len() / 2];
        assert!((median / 3.0 - 1.0).abs() < 0.2, "median {median}");
    }

    #[test]
    fn power_and_gpu_hours() {
        let j = Job {
            id: 0,
            user: 0,
            arrival_hours: 0.0,
            runtime_hours: 2.0,
            gpus: 4,
            power_per_gpu: Power::from_w(300.0),
            max_defer_hours: 0.0,
        };
        assert_eq!(j.power().as_kw(), 1.2);
    }
}
