//! Sampling distributions built on the uniform source.
//!
//! Implemented from first principles (Box–Muller, inversion,
//! Walker's alias method) because the offline dependency set excludes
//! `rand_distr`. Each distribution validates its parameters at construction
//! and is immutable afterwards, so a single instance can be shared across
//! threads.
//!
//! Standard-normal draws come two ways, with the same bits.
//! [`standard_normal`] draws one at a time; it serves callers that
//! interleave other draws on the same stream. [`fill_standard_normal`]
//! draws a block of them for a stream that yields nothing else, such as
//! an Ornstein–Uhlenbeck process's own stream
//! ([`crate::process::OrnsteinUhlenbeck`]).

use crate::rng::SimRng;

/// Error returned when distribution parameters are invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError(pub &'static str);

impl core::fmt::Display for ParamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.0)
    }
}

impl std::error::Error for ParamError {}

/// Normal (Gaussian) distribution sampled with the Box–Muller transform.
///
/// The polar rejection variant is used to avoid evaluating trigonometric
/// functions in the hot path of trace generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution; `std_dev` must be finite and `>= 0`.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, ParamError> {
        if !mean.is_finite() || !std_dev.is_finite() {
            return Err(ParamError("normal: non-finite parameter"));
        }
        if std_dev < 0.0 {
            return Err(ParamError("normal: negative std dev"));
        }
        Ok(Normal { mean, std_dev })
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// One standard-normal draw via Marsaglia's polar method.
///
/// The per-draw reference for [`fill_standard_normal`].
#[inline]
pub fn standard_normal(rng: &mut SimRng) -> f64 {
    loop {
        let u = 2.0 * rng.uniform() - 1.0;
        let v = 2.0 * rng.uniform() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws per accept-then-transform pass of [`fill_standard_normal`].
pub(crate) const NORMAL_BLOCK: usize = 64;

/// Fills `out` with standard-normal draws: exactly the values that
/// `out.len()` calls of [`standard_normal`] return, in order, leaving
/// `rng` where those calls leave it.
///
/// Each block of 64 draws takes two passes. The first
/// draws candidate pairs `(u, v)` and stores every candidate's `u` and
/// `s = u² + v²` at the next free slot, which advances only when the
/// candidate lies inside the unit disc. So a rejected candidate is
/// overwritten by the next, without a branch the predictor must guess
/// (it would miss on ~21% of candidates). The second pass applies the
/// polar transform `u · √(−2 ln s / s)` to the whole block. Each
/// candidate consumes the same two uniforms, the accept test and the
/// transform are the same expressions, so every draw keeps its bits.
pub fn fill_standard_normal(rng: &mut SimRng, out: &mut [f64]) {
    let mut s_block = [0.0f64; NORMAL_BLOCK];
    for block in out.chunks_mut(NORMAL_BLOCK) {
        let s_block = &mut s_block[..block.len()];
        let mut j = 0;
        while j < block.len() {
            let u = 2.0 * rng.uniform() - 1.0;
            let v = 2.0 * rng.uniform() - 1.0;
            let s = u * u + v * v;
            block[j] = u;
            s_block[j] = s;
            j += usize::from((s > 0.0) & (s < 1.0));
        }
        for (x, s) in block.iter_mut().zip(s_block.iter()) {
            *x *= (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
///
/// Job runtimes and sizes in the scheduler trace generator follow
/// log-normals, the standard model for HPC job-length distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// From the parameters of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        Ok(LogNormal {
            norm: Normal::new(mu, sigma)?,
        })
    }

    /// Constructs the log-normal with a given *median* and multiplicative
    /// spread `sigma` (median = exp(mu)).
    pub fn from_median(median: f64, sigma: f64) -> Result<Self, ParamError> {
        if median <= 0.0 || median.is_nan() {
            return Err(ParamError("lognormal: median must be positive"));
        }
        Self::new(median.ln(), sigma)
    }

    /// Draws one sample (always positive).
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Exponential distribution sampled by inversion; used for Poisson-process
/// inter-arrival times in the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// `rate` (lambda) must be finite and positive.
    pub fn new(rate: f64) -> Result<Self, ParamError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ParamError("exponential: rate must be positive"));
        }
        Ok(Exponential { rate })
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        // 1 - U avoids ln(0).
        -(1.0 - rng.uniform()).ln() / self.rate
    }
}

/// Weighted discrete distribution over `0..n` using Walker's alias method:
/// O(n) construction, O(1) sampling.
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl WeightedIndex {
    /// Builds the table from non-negative weights (at least one positive).
    pub fn new(weights: &[f64]) -> Result<Self, ParamError> {
        if weights.is_empty() {
            return Err(ParamError("weighted: empty weights"));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(ParamError("weighted: weights must be finite and >= 0"));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(ParamError("weighted: total weight must be positive"));
        }
        let n = weights.len();
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0usize; n];
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, s) in scaled.iter().enumerate() {
            if *s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            // lint: allow(panic-in-library) -- both stacks are checked non-empty by the loop condition on the line above; a while-let tuple would pop (and drop) from one stack when the other is empty
            let s = small.pop().expect("checked non-empty");
            // lint: allow(panic-in-library) -- same loop-condition guarantee as the pop above
            let l = large.pop().expect("checked non-empty");
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for i in large {
            prob[i] = 1.0;
        }
        for i in small {
            prob[i] = 1.0;
        }
        Ok(WeightedIndex { prob, alias })
    }

    /// Draws a category index.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let i = rng.index(self.prob.len());
        if rng.uniform() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The block fill is `n` sequential [`standard_normal`] calls: the
        /// same draws bit for bit, and the stream left at the same place.
        /// Lengths cover empty, one, a block's edges, several blocks and a
        /// leap year's hours plus one.
        #[test]
        fn fill_equals_sequential_draws(
            seed in prop_oneof![Just(0u64), Just(u64::MAX), 0u64..=u64::MAX],
            n in prop_oneof![
                Just(0usize),
                Just(1),
                Just(63),
                Just(64),
                Just(65),
                Just(128),
                Just(8761),
            ],
        ) {
            let mut sequential = SimRng::seed_from(seed);
            let expected: Vec<u64> = (0..n)
                .map(|_| standard_normal(&mut sequential).to_bits())
                .collect();
            let mut block = SimRng::seed_from(seed);
            let mut out = vec![f64::NAN; n];
            fill_standard_normal(&mut block, &mut out);
            let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(
                got.iter().zip(&expected).position(|(g, e)| g != e),
                None
            );
            prop_assert_eq!(got.len(), expected.len());
            prop_assert_eq!(block.next_u64(), sequential.next_u64());
        }
    }

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed_from(11);
        let d = Normal::new(5.0, 2.0).unwrap();
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 5.0).abs() < 0.03, "mean={mean}");
        assert!((var - 4.0).abs() < 0.1, "var={var}");
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn lognormal_positive_and_median() {
        let mut rng = SimRng::seed_from(12);
        let d = LogNormal::from_median(100.0, 0.8).unwrap();
        let mut xs: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|x| *x > 0.0));
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median / 100.0 - 1.0).abs() < 0.05, "median={median}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::seed_from(13);
        let d = Exponential::new(0.25).unwrap();
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, _) = moments(&xs);
        assert!((mean - 4.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn weighted_frequencies() {
        let mut rng = SimRng::seed_from(16);
        let w = WeightedIndex::new(&[1.0, 2.0, 7.0]).unwrap();
        let mut counts = [0usize; 3];
        let n = 200_000;
        for _ in 0..n {
            counts[w.sample(&mut rng)] += 1;
        }
        let f: Vec<f64> = counts.iter().map(|c| *c as f64 / n as f64).collect();
        assert!((f[0] - 0.1).abs() < 0.01, "{f:?}");
        assert!((f[1] - 0.2).abs() < 0.01, "{f:?}");
        assert!((f[2] - 0.7).abs() < 0.01, "{f:?}");
    }

    #[test]
    fn weighted_zero_weight_never_sampled() {
        let mut rng = SimRng::seed_from(17);
        let w = WeightedIndex::new(&[0.0, 1.0, 0.0]).unwrap();
        for _ in 0..10_000 {
            assert_eq!(w.sample(&mut rng), 1);
        }
    }

    #[test]
    fn weighted_rejects_bad_weights() {
        assert!(WeightedIndex::new(&[]).is_err());
        assert!(WeightedIndex::new(&[0.0, 0.0]).is_err());
        assert!(WeightedIndex::new(&[-1.0, 2.0]).is_err());
        assert!(WeightedIndex::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn single_category_weighted() {
        let mut rng = SimRng::seed_from(18);
        let w = WeightedIndex::new(&[3.5]).unwrap();
        assert_eq!(w.sample(&mut rng), 0);
    }
}
