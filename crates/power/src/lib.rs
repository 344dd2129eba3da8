//! # hpcarbon-power
//!
//! Power telemetry and operational-carbon tracking — the workspace's
//! stand-in for the measurement stack the paper uses on real nodes
//! (NVML/RAPL power counters read by the `carbontracker` tool).
//!
//! - [`sensor`]: device power models and simulated NVML/RAPL-style sensors
//!   whose utilization can be driven by a workload simulation;
//! - [`energy`]: trapezoidal energy integration over sample streams;
//! - [`sampler`]: a background sampling daemon (spawned thread, a
//!   `std` mutex + acquire/release atomics) that polls sensors and
//!   accumulates per-device energy, mirroring how carbontracker samples
//!   NVML at a fixed cadence;
//! - [`tracker`]: the carbontracker-equivalent: measure the first epochs of
//!   a training run, extrapolate whole-run energy, and convert to gCO₂
//!   with a grid-intensity trace and PUE (the paper's Eq. 6 pipeline).
//!
//! # Example
//!
//! ```
//! use hpcarbon_power::sensor::DevicePowerModel;
//! use hpcarbon_units::Power;
//!
//! // A V100-like device: 40 W idle, 300 W TDP.
//! let model = DevicePowerModel::new(Power::from_w(40.0), Power::from_w(300.0));
//! assert_eq!(model.power_at(0.0).as_w(), 40.0);
//! assert_eq!(model.power_at(1.0).as_w(), 300.0);
//! assert!(model.power_at(0.5).as_w() > 150.0); // convex-ish curve
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod pue_model;
pub mod sampler;
pub mod sensor;
pub mod tracker;

pub use pue_model::SeasonalPue;
pub use sensor::{DevicePowerModel, PowerSensor, SimulatedDevice};
pub use tracker::CarbonTracker;
