//! The device power model.
//!
//! The paper measures device power with "power measurement tools (e.g.,
//! NVML, RAPL)". Here a power model maps a device's utilization to its
//! draw between the idle and TDP figures such tools report.

use hpcarbon_units::Power;

/// Curvature exponent of the utilization-to-power curve.
const ALPHA: f64 = 0.85;

/// Maps utilization to power draw for one device.
///
/// The model is the standard affine-plus-curvature fit used in GPU power
/// studies: `P(u) = idle + (tdp - idle) · u^alpha` with `alpha` slightly
/// below 1 (real accelerators reach near-peak power well before 100%
/// utilization because memory and static power dominate early).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DevicePowerModel {
    idle: Power,
    tdp: Power,
}

impl DevicePowerModel {
    /// Creates a model for a device drawing `idle` at rest and `tdp` at
    /// full utilization.
    ///
    /// # Panics
    /// If `idle > tdp` or either is negative.
    pub fn new(idle: Power, tdp: Power) -> DevicePowerModel {
        assert!(
            idle.as_w() >= 0.0 && tdp.as_w() >= 0.0,
            "power must be >= 0"
        );
        assert!(idle <= tdp, "idle power cannot exceed TDP");
        DevicePowerModel { idle, tdp }
    }

    /// Power at utilization `u` (clamped to `[0, 1]`).
    pub fn power_at(&self, u: f64) -> Power {
        let u = u.clamp(0.0, 1.0);
        self.idle + (self.tdp - self.idle) * u.powf(ALPHA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100_model() -> DevicePowerModel {
        DevicePowerModel::new(Power::from_w(40.0), Power::from_w(300.0))
    }

    #[test]
    fn endpoints() {
        let m = v100_model();
        assert_eq!(m.power_at(0.0).as_w(), 40.0);
        assert_eq!(m.power_at(1.0).as_w(), 300.0);
        // Clamping.
        assert_eq!(m.power_at(-1.0).as_w(), 40.0);
        assert_eq!(m.power_at(2.0).as_w(), 300.0);
    }

    #[test]
    fn monotone_in_utilization() {
        let m = v100_model();
        let mut last = -1.0;
        for i in 0..=20 {
            let p = m.power_at(f64::from(i) / 20.0).as_w();
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn sublinear_exponent_front_loads_power() {
        // With alpha < 1, half utilization draws more than half the range.
        let m = v100_model();
        let half = m.power_at(0.5).as_w();
        assert!(half > 40.0 + 0.5 * 260.0);
    }

    #[test]
    #[should_panic(expected = "idle power cannot exceed TDP")]
    fn rejects_idle_above_tdp() {
        let _ = DevicePowerModel::new(Power::from_w(400.0), Power::from_w(300.0));
    }
}
