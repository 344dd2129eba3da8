//! A background power-sampling daemon.
//!
//! Mirrors carbontracker's measurement loop: a thread polls every sensor at
//! a fixed cadence and accumulates per-device energy. Synchronization
//! follows the Rust-Atomics-and-Locks idioms: a release/acquire stop flag,
//! sample state behind a `std::sync::Mutex`, and a joined worker thread
//! so no samples are lost at shutdown.

use crate::energy::EnergyIntegrator;
use crate::sensor::PowerSensor;
use hpcarbon_units::{Energy, Power, TimeSpan};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Accumulated state for one sensor.
#[derive(Debug, Clone)]
pub struct SensorReport {
    /// Sensor name.
    pub name: String,
    /// Integrated energy.
    pub energy: Energy,
    /// Number of samples taken.
    pub samples: u64,
    /// Mean power over the sampling window (None with < 2 samples).
    pub mean_power: Option<Power>,
}

struct SamplerState {
    integrators: Vec<EnergyIntegrator>,
}

/// Locks the sample state. A sensor read or a push that panics does so
/// before it changes an integrator, so a poisoned lock still guards whole
/// samples and is recovered.
fn lock(state: &Mutex<SamplerState>) -> MutexGuard<'_, SamplerState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running sampling daemon. Dropping without [`PowerSampler::stop`]
/// aborts sampling but still joins the worker.
pub struct PowerSampler {
    sensors: Vec<Arc<dyn PowerSensor>>,
    state: Arc<Mutex<SamplerState>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl PowerSampler {
    /// Starts sampling `sensors` every `interval` of wall-clock time.
    ///
    /// # Panics
    /// If `sensors` is empty or `interval` is zero.
    pub fn start(sensors: Vec<Arc<dyn PowerSensor>>, interval: Duration) -> PowerSampler {
        assert!(!sensors.is_empty(), "need at least one sensor");
        assert!(!interval.is_zero(), "interval must be positive");
        let state = Arc::new(Mutex::new(SamplerState {
            integrators: sensors.iter().map(|_| EnergyIntegrator::new()).collect(),
        }));
        let stop = Arc::new(AtomicBool::new(false));

        let worker_sensors = sensors.clone();
        let worker_state = Arc::clone(&state);
        let worker_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            // lint: allow(wall-clock-in-deterministic-crate) -- this daemon *is* the wall-clock sampler for live hosts; VirtualSampler is its deterministic twin for scenarios and tests
            let t0 = Instant::now();
            loop {
                let now = TimeSpan::from_seconds(t0.elapsed().as_secs_f64());
                {
                    let mut st = lock(&worker_state);
                    for (sensor, integ) in worker_sensors.iter().zip(&mut st.integrators) {
                        integ.push(now, sensor.read_power());
                    }
                }
                if worker_stop.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(interval);
            }
        });

        PowerSampler {
            sensors,
            state,
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the daemon (taking one final sample) and returns per-sensor
    /// reports.
    pub fn stop(mut self) -> Vec<SensorReport> {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let st = lock(&self.state);
        self.sensors
            .iter()
            .zip(&st.integrators)
            .map(|(s, i)| SensorReport {
                name: s.name().to_string(),
                energy: i.total(),
                samples: i.samples(),
                mean_power: i.mean_power(),
            })
            .collect()
    }

    /// Snapshot of total energy across all sensors without stopping.
    pub fn energy_so_far(&self) -> Energy {
        let st = lock(&self.state);
        st.integrators.iter().map(|i| i.total()).sum()
    }
}

impl Drop for PowerSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A deterministic, thread-free sampler for simulations: advances virtual
/// time explicitly instead of sleeping. Used by the workload/upgrade code
/// paths where wall-clock time is irrelevant.
#[derive(Debug, Default)]
pub struct VirtualSampler {
    integrator: EnergyIntegrator,
}

impl VirtualSampler {
    /// An empty virtual sampler.
    pub fn new() -> VirtualSampler {
        VirtualSampler {
            integrator: EnergyIntegrator::new(),
        }
    }

    /// Records that the device drew `power` for the interval ending at
    /// virtual time `t`.
    pub fn record(&mut self, t: TimeSpan, power: Power) {
        self.integrator.push(t, power);
    }

    /// Total energy recorded.
    pub fn energy(&self) -> Energy {
        self.integrator.total()
    }

    /// Mean power over the recorded span.
    pub fn mean_power(&self) -> Option<Power> {
        self.integrator.mean_power()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::{DevicePowerModel, SimulatedDevice};

    fn device(idle: f64, tdp: f64) -> Arc<SimulatedDevice> {
        SimulatedDevice::new(
            "dev",
            DevicePowerModel::new(Power::from_w(idle), Power::from_w(tdp)),
        )
    }

    #[test]
    fn samples_idle_device() {
        let dev = device(50.0, 250.0);
        let sampler = PowerSampler::start(vec![dev.clone()], Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(30));
        let reports = sampler.stop();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert!(r.samples >= 5, "got {} samples", r.samples);
        // Mean power of an idle device is its idle draw.
        let mean = r.mean_power.expect("multiple samples");
        assert!((mean.as_w() - 50.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn observes_utilization_change() {
        let dev = device(50.0, 250.0);
        dev.set_utilization(1.0);
        let sampler = PowerSampler::start(vec![dev.clone()], Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(25));
        let reports = sampler.stop();
        let mean = reports[0].mean_power.expect("multiple samples");
        assert!((mean.as_w() - 250.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn multiple_sensors_tracked_independently() {
        let a = device(10.0, 100.0);
        let b = device(20.0, 200.0);
        b.set_utilization(1.0);
        let sampler = PowerSampler::start(vec![a, b], Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(25));
        let reports = sampler.stop();
        assert_eq!(reports.len(), 2);
        let ma = reports[0].mean_power.unwrap().as_w();
        let mb = reports[1].mean_power.unwrap().as_w();
        assert!(ma < 15.0, "sensor a mean {ma}");
        assert!(mb > 150.0, "sensor b mean {mb}");
    }

    #[test]
    fn energy_so_far_is_monotone() {
        let dev = device(100.0, 300.0);
        let sampler = PowerSampler::start(vec![dev], Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(10));
        let e1 = sampler.energy_so_far();
        std::thread::sleep(Duration::from_millis(10));
        let e2 = sampler.energy_so_far();
        assert!(e2 >= e1);
        let _ = sampler.stop();
    }

    #[test]
    #[should_panic(expected = "at least one sensor")]
    fn rejects_empty_sensor_list() {
        let _ = PowerSampler::start(vec![], Duration::from_millis(1));
    }

    #[test]
    fn virtual_sampler_is_deterministic() {
        let mut v = VirtualSampler::new();
        v.record(TimeSpan::from_hours(0.0), Power::from_w(100.0));
        v.record(TimeSpan::from_hours(1.0), Power::from_w(100.0));
        v.record(TimeSpan::from_hours(2.0), Power::from_w(300.0));
        // 100 Wh + 200 Wh = 300 Wh.
        assert!((v.energy().as_wh() - 300.0).abs() < 1e-9);
        assert!((v.mean_power().unwrap().as_w() - 150.0).abs() < 1e-9);
    }
}
