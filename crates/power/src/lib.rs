//! # hpcarbon-power
//!
//! The device power model and seasonal-PUE accounting behind the
//! operational half of the paper's model (Eq. 6):
//!
//! - [`sensor`]: the utilization-to-draw curve of one device, the node
//!   power that `hpcarbon-workloads` builds from NVML/RAPL-style idle and
//!   TDP figures;
//! - [`pue_model`]: a seasonal PUE and the hourly-priced accounting that
//!   applies it against a grid-intensity trace.
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

pub mod pue_model;
pub mod sensor;

pub use pue_model::SeasonalPue;
pub use sensor::DevicePowerModel;
