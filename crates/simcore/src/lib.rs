//! # hpcarbon-sim
//!
//! The stochastic simulation substrate shared by the grid simulator, the
//! workload models and the carbon-aware scheduler:
//!
//! - [`rng`]: deterministic, forkable random streams ([`rng::SimRng`]) so
//!   every experiment in the workspace is reproducible from a single seed,
//!   and parallel runs produce bit-identical results to sequential ones.
//! - [`dist`]: sampling distributions implemented from first principles on
//!   top of [`rng::SimRng`]'s uniform source (Box–Muller normal,
//!   lognormal, exponential, Poisson, alias-method weighted discrete).
//! - [`process`]: mean-reverting Ornstein–Uhlenbeck and AR(1) processes used
//!   to synthesize wind/solar availability and demand noise in the grid
//!   simulator.
//! - [`des`]: a binary-heap discrete-event engine driving the carbon-aware
//!   job scheduler simulation.
//! - [`par`]: structured data-parallel helpers (`par_map`) over
//!   `std::thread::scope`, with results in input order.
//!
//! # Example
//!
//! ```
//! use hpcarbon_sim::rng::SimRng;
//! use hpcarbon_sim::dist::Normal;
//!
//! let mut rng = SimRng::seed_from(42);
//! let normal = Normal::new(0.0, 1.0).unwrap();
//! let xs: Vec<f64> = (0..1000).map(|_| normal.sample(&mut rng)).collect();
//! let mean = xs.iter().sum::<f64>() / xs.len() as f64;
//! assert!(mean.abs() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des;
pub mod dist;
pub mod par;
pub mod process;
pub mod rng;
