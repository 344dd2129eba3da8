//! Stochastic processes for synthesizing physically plausible signals.
//!
//! The grid simulator needs *temporally correlated* noise: wind availability
//! does not jump independently hour to hour, it drifts. The standard model
//! is an Ornstein–Uhlenbeck (OU) mean-reverting process; an AR(1) process is
//! its exact discretization, which is what we implement.
//!
//! A process owns its random stream and nothing else draws from it, so it
//! takes its standard-normal draws a block at a time through
//! [`fill_standard_normal`], which gives the same values as drawing each
//! step's with [`crate::dist::standard_normal`]. Only the stream's position
//! after the last step differs: the last block's unused draws (at most
//! 63 of a block of 64) are discarded with the process.

use crate::dist::{fill_standard_normal, NORMAL_BLOCK};
use crate::rng::SimRng;

/// A mean-reverting Ornstein–Uhlenbeck process sampled on a fixed step.
///
/// `dX = theta * (mu - X) dt + sigma dW`, discretized exactly:
/// `X_{t+dt} = mu + (X_t - mu) e^{-theta dt} + sigma_eff * N(0,1)` with
/// `sigma_eff = sigma * sqrt((1 - e^{-2 theta dt}) / (2 theta))`.
///
/// The `N(0,1)` draws are the owned stream's sequential standard-normal
/// draws: [`OrnsteinUhlenbeck::reset_stationary`] takes the next one, and
/// each [`OrnsteinUhlenbeck::step`] the one after.
#[derive(Debug, Clone)]
pub struct OrnsteinUhlenbeck {
    mu: f64,
    decay: f64,     // e^{-theta dt}
    sigma_eff: f64, // stationary-consistent per-step std dev
    state: f64,
    rng: SimRng,
    /// Drawn but not yet used: `draws[next..]`.
    draws: [f64; NORMAL_BLOCK],
    next: usize,
}

impl OrnsteinUhlenbeck {
    /// Creates the process with mean `mu`, reversion rate `theta` (per unit
    /// time), volatility `sigma` and step `dt`, drawing its noise from
    /// `rng`. It starts at `mu`.
    ///
    /// # Panics
    /// If `theta <= 0`, `sigma < 0` or `dt <= 0`.
    pub fn new(mu: f64, theta: f64, sigma: f64, dt: f64, rng: SimRng) -> Self {
        assert!(theta > 0.0, "theta must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        assert!(dt > 0.0, "dt must be positive");
        let decay = (-theta * dt).exp();
        let sigma_eff = sigma * ((1.0 - decay * decay) / (2.0 * theta)).sqrt();
        OrnsteinUhlenbeck {
            mu,
            decay,
            sigma_eff,
            state: mu,
            rng,
            draws: [0.0; NORMAL_BLOCK],
            next: NORMAL_BLOCK,
        }
    }

    /// Starts the process from its stationary distribution
    /// `N(mu, sigma^2 / (2 theta))`, so traces have no warm-up transient.
    pub fn reset_stationary(&mut self) {
        // sigma_eff^2 = sigma^2 (1 - d^2) / (2 theta); stationary var is
        // sigma^2 / (2 theta) = sigma_eff^2 / (1 - d^2).
        let stationary_sd = self.sigma_eff / (1.0 - self.decay * self.decay).sqrt();
        self.state = self.mu + stationary_sd * self.standard_normal();
    }

    /// Advances one step and returns the new value.
    #[inline]
    pub fn step(&mut self) -> f64 {
        let z = self.standard_normal();
        self.state = self.mu + (self.state - self.mu) * self.decay + self.sigma_eff * z;
        self.state
    }

    /// The stream's next standard-normal draw, refilling the block when it
    /// runs out.
    #[inline]
    fn standard_normal(&mut self) -> f64 {
        if self.next == NORMAL_BLOCK {
            fill_standard_normal(&mut self.rng, &mut self.draws);
            self.next = 0;
        }
        let z = self.draws[self.next];
        self.next += 1;
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::standard_normal;

    #[test]
    fn steps_follow_the_recurrence_on_sequential_draws() {
        // A non-zero mean, so that `(x - mu) * decay` and `x * decay`
        // differ; 10,000 steps cross many block refills.
        for seed in [0, 22, u64::MAX] {
            let mut ou = OrnsteinUhlenbeck::new(0.3, 0.05, 0.4, 1.0, SimRng::seed_from(seed));
            ou.reset_stationary();
            let mut rng = SimRng::seed_from(seed);
            let stationary_sd = ou.sigma_eff / (1.0 - ou.decay * ou.decay).sqrt();
            let mut x = ou.mu + stationary_sd * standard_normal(&mut rng);
            assert_eq!(ou.state.to_bits(), x.to_bits(), "seed {seed}: reset");
            for k in 0..10_000 {
                x = ou.mu + (x - ou.mu) * ou.decay + ou.sigma_eff * standard_normal(&mut rng);
                assert_eq!(ou.step().to_bits(), x.to_bits(), "seed {seed}: step {k}");
            }
        }
    }

    #[test]
    fn ou_reverts_to_mean() {
        let mut ou = OrnsteinUhlenbeck {
            state: 100.0,
            ..OrnsteinUhlenbeck::new(10.0, 0.5, 0.0, 1.0, SimRng::seed_from(21))
        };
        let last = (0..50).fold(f64::NAN, |_, _| ou.step());
        assert!((last - 10.0).abs() < 1e-6);
    }

    #[test]
    fn ou_stationary_moments() {
        let theta = 0.2;
        let sigma = 1.5;
        let mut ou = OrnsteinUhlenbeck::new(0.0, theta, sigma, 1.0, SimRng::seed_from(22));
        ou.reset_stationary();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| ou.step()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let expect_var = sigma * sigma / (2.0 * theta);
        assert!(mean.abs() < 0.1, "mean={mean}");
        assert!(
            (var / expect_var - 1.0).abs() < 0.1,
            "var={var} vs {expect_var}"
        );
    }

    #[test]
    fn ou_autocorrelation_decays() {
        let mut ou = OrnsteinUhlenbeck::new(0.0, 0.3, 1.0, 1.0, SimRng::seed_from(23));
        ou.reset_stationary();
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| ou.step()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let lag1: f64 = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (n as f64 - 1.0)
            / var;
        let expect = (-0.3f64).exp();
        assert!((lag1 - expect).abs() < 0.02, "lag1={lag1} expect={expect}");
    }

    #[test]
    #[should_panic(expected = "theta must be positive")]
    fn ou_rejects_nonpositive_theta() {
        let _ = OrnsteinUhlenbeck::new(0.0, 0.0, 1.0, 1.0, SimRng::seed_from(0));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| -> Vec<f64> {
            let mut ou = OrnsteinUhlenbeck::new(5.0, 0.1, 2.0, 1.0, SimRng::seed_from(seed));
            ou.reset_stationary();
            (0..100).map(|_| ou.step()).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
