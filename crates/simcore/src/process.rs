//! Stochastic processes for synthesizing physically plausible signals.
//!
//! The grid simulator needs *temporally correlated* noise: wind availability
//! does not jump independently hour to hour, it drifts. The standard model
//! is an Ornstein–Uhlenbeck (OU) mean-reverting process; an AR(1) process is
//! its exact discretization, which is what we implement.

use crate::dist::standard_normal;
use crate::rng::SimRng;

/// A mean-reverting Ornstein–Uhlenbeck process sampled on a fixed step.
///
/// `dX = theta * (mu - X) dt + sigma dW`, discretized exactly:
/// `X_{t+dt} = mu + (X_t - mu) e^{-theta dt} + sigma_eff * N(0,1)` with
/// `sigma_eff = sigma * sqrt((1 - e^{-2 theta dt}) / (2 theta))`.
#[derive(Debug, Clone)]
pub struct OrnsteinUhlenbeck {
    mu: f64,
    decay: f64,     // e^{-theta dt}
    sigma_eff: f64, // stationary-consistent per-step std dev
    state: f64,
}

impl OrnsteinUhlenbeck {
    /// Creates the process with mean `mu`, reversion rate `theta` (per unit
    /// time), volatility `sigma` and step `dt`.
    ///
    /// # Panics
    /// If `theta <= 0`, `sigma < 0` or `dt <= 0`.
    pub fn new(mu: f64, theta: f64, sigma: f64, dt: f64) -> Self {
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
        }
    }

    /// Starts the process from its stationary distribution
    /// `N(mu, sigma^2 / (2 theta))`, so traces have no warm-up transient.
    pub fn reset_stationary(&mut self, rng: &mut SimRng) {
        // sigma_eff^2 = sigma^2 (1 - d^2) / (2 theta); stationary var is
        // sigma^2 / (2 theta) = sigma_eff^2 / (1 - d^2).
        let stationary_sd = self.sigma_eff / (1.0 - self.decay * self.decay).sqrt();
        self.state = self.mu + stationary_sd * standard_normal(rng);
    }

    /// Advances one step and returns the new value.
    #[inline]
    pub fn step(&mut self, rng: &mut SimRng) -> f64 {
        self.state =
            self.mu + (self.state - self.mu) * self.decay + self.sigma_eff * standard_normal(rng);
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ou_reverts_to_mean() {
        let mut rng = SimRng::seed_from(21);
        let mut ou = OrnsteinUhlenbeck {
            state: 100.0,
            ..OrnsteinUhlenbeck::new(10.0, 0.5, 0.0, 1.0)
        };
        let last = (0..50).fold(f64::NAN, |_, _| ou.step(&mut rng));
        assert!((last - 10.0).abs() < 1e-6);
    }

    #[test]
    fn ou_stationary_moments() {
        let mut rng = SimRng::seed_from(22);
        let theta = 0.2;
        let sigma = 1.5;
        let mut ou = OrnsteinUhlenbeck::new(0.0, theta, sigma, 1.0);
        ou.reset_stationary(&mut rng);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| ou.step(&mut rng)).collect();
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
        let mut rng = SimRng::seed_from(23);
        let mut ou = OrnsteinUhlenbeck::new(0.0, 0.3, 1.0, 1.0);
        ou.reset_stationary(&mut rng);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| ou.step(&mut rng)).collect();
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
        let _ = OrnsteinUhlenbeck::new(0.0, 0.0, 1.0, 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| -> Vec<f64> {
            let mut rng = SimRng::seed_from(seed);
            let mut ou = OrnsteinUhlenbeck::new(5.0, 0.1, 2.0, 1.0);
            ou.reset_stationary(&mut rng);
            (0..100).map(|_| ou.step(&mut rng)).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
