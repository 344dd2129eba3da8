//! # hpcarbon-upgrade
//!
//! The paper's hardware-upgrade decision framework (§5, RQ7/RQ8):
//! "a framework to help system practitioners make decisions on system
//! upgrades based on hardware, workload, regional carbon intensity,
//! performance, projected system lifetime, and user usage pattern."
//!
//! Model (see [`savings`]):
//!
//! - Upgrading pays the new node's **embodied carbon** up front (the
//!   "tax"); the old node's embodied carbon is sunk either way.
//! - Both options then serve the *same annual workload*: the old node busy
//!   a fraction `usage` of the time, the new node busy `usage / speedup`
//!   (it finishes the same work faster).
//! - Operational energy is accounted while serving work (busy time ×
//!   active node power × PUE); an idle node is assumed suspended or
//!   serving other tenants. Carbon prices energy at the regional
//!   intensity (Eq. 6).
//!
//! Fig. 8 sweeps the regional intensity (400/200/20 gCO₂/kWh columns);
//! Fig. 9 sweeps the usage pattern (60%/40%/26.7%) at 200 gCO₂/kWh.
//! [`advisor`] turns the curves into the paper's Insight 8/9
//! recommendations ("in regions with high carbon intensity, upgrades can
//! happen when the new generation is released … in regions with an
//! abundant amount of green energy, upgrading would be carbon-friendly
//! only if the system is expected to serve for at least five years").
//!
//! # Example
//!
//! ```
//! use hpcarbon_upgrade::savings::UpgradeScenario;
//! use hpcarbon_workloads::{benchmarks::Suite, nodes::NodeGen};
//! use hpcarbon_units::CarbonIntensity;
//!
//! let s = UpgradeScenario::paper_default(NodeGen::V100Node, NodeGen::A100Node, Suite::Nlp);
//! let high = CarbonIntensity::from_g_per_kwh(400.0);
//! let low = CarbonIntensity::from_g_per_kwh(20.0);
//! let t_high = s.break_even(high).unwrap();
//! let t_low = s.break_even(low).unwrap();
//! assert!(t_high.as_years() < 0.5);   // "less than half a year"
//! assert!(t_low.as_years() > 5.0);    // "about five years or more"
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod savings;

pub use advisor::{Recommendation, UpgradeAdvisor};
pub use savings::{SavingsCurve, UpgradeScenario, UsageLevel};
