//! Node power draw during training.
//!
//! During GPU training the accelerators run near their power limit while
//! host CPUs sit at input-pipeline utilization; DRAM draw is small and
//! flat. These are the `E_op` inputs of the paper's Eq. 6 for the RQ7/RQ8
//! upgrade study.

use crate::benchmarks::Suite;
use crate::nodes::NodeGen;
use hpcarbon_power::sensor::DevicePowerModel;
use hpcarbon_units::Power;

/// GPU utilization while training (fraction of the power-limit draw).
/// Dense training pins accelerators near their limit across all suites.
pub const GPU_TRAIN_UTILIZATION: f64 = 0.90;

/// Host CPU utilization while feeding GPUs (tokenization/augmentation).
pub const CPU_FEED_UTILIZATION: f64 = 0.25;

/// Per-DIMM active power (W).
const DRAM_ACTIVE_W: f64 = 4.0;

/// Node power while running a training workload of `suite`.
pub fn node_active_power(node: NodeGen, _suite: Suite) -> Power {
    let c = node.config();
    let gpu = c.gpu.spec();
    let gpu_model = DevicePowerModel::new(gpu.idle, gpu.tdp);
    let gpus = gpu_model.power_at(GPU_TRAIN_UTILIZATION) * f64::from(c.gpu_count);

    let cpu_spec = c.cpus.0.spec();
    let cpu_model = DevicePowerModel::new(
        // lint: allow(panic-in-library) -- table invariant, asserted by the db unit tests: every CPU part row declares idle power
        cpu_spec.idle_power.expect("CPUs declare idle power"),
        // lint: allow(panic-in-library) -- table invariant, asserted by the db unit tests: every CPU part row declares a TDP
        cpu_spec.tdp.expect("CPUs declare TDP"),
    );
    let cpus = cpu_model.power_at(CPU_FEED_UTILIZATION) * f64::from(c.cpus.1);

    let dram = Power::from_w(DRAM_ACTIVE_W) * f64::from(c.dram.1);
    gpus + cpus + dram
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitudes_are_plausible() {
        // 4-GPU nodes draw roughly 1-2 kW active.
        for node in NodeGen::ALL {
            let active = node_active_power(node, Suite::Nlp).as_w();
            assert!((800.0..2200.0).contains(&active), "{node:?}: {active}");
        }
    }
}
