//! Deterministic synthetic region-years.
//!
//! The full dispatch simulator ([`crate::sim`]) prices every hour through
//! a merit order — faithful, but a sweep axis limited to the paper's seven
//! calibrated regions. This module generates *synthetic* region-years from
//! closed-form harmonics instead: a diurnal double-harmonic in local time,
//! a seasonal cosine, a weekend dip, and fuel-mix-weighted
//! Ornstein–Uhlenbeck noise from forked [`SimRng`] substreams. One
//! synthetic year costs a few harmonic evaluations per hour — about as
//! much as a dispatch year, but with no merit-order state to calibrate —
//! and any number of them can be derived per region by varying the seed,
//! so scenario sweeps are not limited to the shipped trace set.
//!
//! ## Determinism contract
//!
//! [`SyntheticSpec::generate`] is a pure function of `(spec, year, seed)`:
//! the noise stream is forked as
//! `SimRng::seed_from(seed) → substream("synth") → substream(region)`,
//! never from thread or call order, so synthetic traces are byte-identical
//! across worker counts and runs — the same guarantee the sweep engine
//! gives for simulated traces (DESIGN.md §7).

use crate::fuel::{Fuel, GenerationMix};
use crate::regions::OperatorId;
use crate::trace::IntensityTrace;
use hpcarbon_sim::process::OrnsteinUhlenbeck;
use hpcarbon_sim::rng::SimRng;
use hpcarbon_timeseries::datetime::days_in_year;
use hpcarbon_timeseries::series::HourlySeries;

/// Parameters of one synthetic region-year.
///
/// [`SyntheticSpec::for_region`] derives a spec from a calibrated
/// operator's fuel mix; the fields are public so custom hypothetical
/// regions can be swept too.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Region the trace is attributed to (time zone + labeling).
    pub operator: OperatorId,
    /// Annual mean intensity, gCO₂/kWh.
    pub mean_g_per_kwh: f64,
    /// Relative amplitude of the diurnal swing (evening peak).
    pub diurnal_amp: f64,
    /// Relative depth of the midday solar dip.
    pub solar_dip: f64,
    /// Relative amplitude of the seasonal swing (clean-season trough).
    pub seasonal_amp: f64,
    /// Relative intensity reduction on weekends (lower demand means the
    /// dirty margin stays offline).
    pub weekend_drop: f64,
    /// Stationary standard deviation of the multiplicative OU noise —
    /// fuel-mix weighted: variable-renewable-heavy mixes are noisier.
    pub noise_sd: f64,
    /// OU mean-reversion rate (per hour); small values give multi-day
    /// weather fronts.
    pub noise_theta: f64,
    /// Physical floor, gCO₂/kWh (cleanest achievable mix).
    pub floor_g_per_kwh: f64,
}

/// Mean solar capacity factor implied by the clear-sky model, used to
/// estimate a region's average variable-renewable output.
const MEAN_SOLAR_CF: f64 = 0.22;

impl SyntheticSpec {
    /// Derives a spec from a calibrated region: the annual mean comes from
    /// dispatching the average hour through the region's merit order, and
    /// the harmonic/noise amplitudes are weighted by the region's fuel
    /// mix (solar share deepens the midday dip, wind share widens the
    /// noise, fossil share steepens the demand-following swing).
    pub fn for_region(operator: OperatorId) -> SyntheticSpec {
        let p = operator.params();
        let wind_avg = p.wind_cap * p.wind_cf_mean;
        let solar_avg = p.solar_cap * (1.0 - p.cloud_mean) * MEAN_SOLAR_CF;

        // Average-hour dispatch: must-run, then mean VRE, then the merit
        // order against demand 1.0 (units of average demand).
        let mut mix = GenerationMix::new();
        mix.add(Fuel::Nuclear, p.nuclear);
        mix.add(Fuel::Hydro, p.hydro_ror);
        mix.add(Fuel::Biomass, p.biomass);
        mix.add(Fuel::Wind, wind_avg);
        mix.add(Fuel::Solar, solar_avg);
        let mut residual = (1.0 - mix.total()).max(0.0);
        for entry in &p.merit {
            if residual <= 0.0 {
                break;
            }
            let take = residual.min(entry.capacity);
            mix.add(entry.fuel, take);
            residual -= take;
        }
        if residual > 0.0 {
            mix.add(Fuel::Imports, residual);
        }
        let mean = mix.intensity(p.import_intensity).as_g_per_kwh();

        let vre_share = (wind_avg + solar_avg).min(1.0);
        let fossil_share =
            (mix.get(Fuel::Gas) + mix.get(Fuel::Coal) + mix.get(Fuel::Oil)) / mix.total().max(1e-9);
        SyntheticSpec {
            operator,
            mean_g_per_kwh: mean,
            // Demand-following fossil margins swing intensity with demand.
            diurnal_amp: (0.35 * fossil_share + 0.05).min(0.45),
            solar_dip: (1.4 * solar_avg).min(0.5),
            seasonal_amp: (0.30 * vre_share + 0.05).min(0.35),
            weekend_drop: (1.0 - p.weekend_factor).clamp(0.0, 0.3),
            noise_sd: (0.10 + 0.45 * vre_share).min(0.45),
            noise_theta: 0.03,
            floor_g_per_kwh: 12.0,
        }
    }

    /// Generates the synthetic hourly trace for `year`. Pure in
    /// `(self, year, seed)` — see the module-level determinism contract.
    pub fn generate(&self, year: i32, seed: u64) -> IntensityTrace {
        let p = self.operator.params();
        let mut rng = SimRng::seed_from(seed)
            .substream("synth")
            .substream(self.operator.info().short);
        let vol = self.noise_sd * (2.0 * self.noise_theta).sqrt();
        let mut ou = OrnsteinUhlenbeck::new(0.0, self.noise_theta, vol, 1.0);
        ou.reset_stationary(&mut rng);
        let days = f64::from(days_in_year(year));

        let series = HourlySeries::from_fn(year, |stamp| {
            let local = p.tz.from_utc(stamp);
            let h = f64::from(local.hour());
            let doy = f64::from(local.date().day_of_year());
            // Evening-peaking first harmonic (peak ≈ 19:00 local) plus a
            // midday solar dip centered on 13:00.
            let diurnal = self.diurnal_amp * (std::f64::consts::TAU * (h - 19.0) / 24.0).cos()
                - self.solar_dip * gaussian_bump(h, 13.0, 3.0);
            // Clean season ≈ spring (day 110): VRE-rich shoulder months.
            let seasonal = self.seasonal_amp * (std::f64::consts::TAU * (doy - 110.0) / days).cos();
            let weekend = if local.date().weekday().is_weekend() {
                -self.weekend_drop
            } else {
                0.0
            };
            let noise = ou.step(&mut rng);
            let v = self.mean_g_per_kwh * (1.0 + diurnal + seasonal + weekend + noise);
            v.clamp(self.floor_g_per_kwh, 850.0)
        });
        IntensityTrace::new(self.operator, series)
    }
}

/// A smooth bump of unit height at `center` with width `sigma` hours.
fn gaussian_bump(h: f64, center: f64, sigma: f64) -> f64 {
    let d = (h - center) / sigma;
    (-0.5 * d * d).exp()
}

/// Generates the default synthetic year for a region — the
/// [`SyntheticSpec::for_region`] spec evaluated at `(year, seed)`.
/// Deterministic in `(operator, year, seed)`, and cheaper than
/// [`crate::sim::simulate_year`]'s full dispatch, with no per-region
/// calibration needed for custom specs.
pub fn synthesize_year(operator: OperatorId, year: i32, seed: u64) -> IntensityTrace {
    SyntheticSpec::for_region(operator).generate(year, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = synthesize_year(OperatorId::Eso, 2021, 7);
        let b = synthesize_year(OperatorId::Eso, 2021, 7);
        assert_eq!(a.series().values(), b.series().values());
        let c = synthesize_year(OperatorId::Eso, 2021, 8);
        assert_ne!(a.series().values(), c.series().values());
    }

    #[test]
    fn regions_differ_from_the_same_seed() {
        let eso = synthesize_year(OperatorId::Eso, 2021, 7);
        let miso = synthesize_year(OperatorId::Miso, 2021, 7);
        assert_ne!(eso.series().values(), miso.series().values());
        // Coal-heavy MISO is dirtier than wind-heavy GB on annual mean.
        assert!(miso.mean().as_g_per_kwh() > eso.mean().as_g_per_kwh());
    }

    #[test]
    fn values_are_physical() {
        for op in OperatorId::ALL {
            let t = synthesize_year(op, 2021, 3);
            for (_, v) in t.series().iter() {
                assert!(v.is_finite());
                assert!((10.0..=850.0).contains(&v), "{op:?}: {v}");
            }
        }
    }

    #[test]
    fn means_land_near_the_spec() {
        for op in [OperatorId::Eso, OperatorId::Ciso, OperatorId::Miso] {
            let spec = SyntheticSpec::for_region(op);
            let t = spec.generate(2021, 11);
            let mean = t.series().mean();
            assert!(
                (mean - spec.mean_g_per_kwh).abs() < 0.25 * spec.mean_g_per_kwh,
                "{op:?}: trace mean {mean} vs spec {}",
                spec.mean_g_per_kwh
            );
        }
    }

    #[test]
    fn diurnal_structure_is_present() {
        // Fossil-margin regions must be cleaner overnight than at the
        // evening peak, on average.
        let t = synthesize_year(OperatorId::Ercot, 2021, 5);
        let prof = t.hourly_profile(OperatorId::Ercot.params().tz);
        let night = (prof[2] + prof[3] + prof[4]) / 3.0;
        let evening = (prof[18] + prof[19] + prof[20]) / 3.0;
        assert!(evening > night, "evening {evening} vs night {night}");
    }

    #[test]
    fn leap_years_generate_full_length() {
        let t = synthesize_year(OperatorId::Pjm, 2020, 1);
        assert_eq!(t.series().len(), 8784);
    }

    #[test]
    fn custom_specs_are_sweepable() {
        // A hypothetical ultra-clean region: tiny mean, big noise.
        let spec = SyntheticSpec {
            mean_g_per_kwh: 40.0,
            noise_sd: 0.4,
            ..SyntheticSpec::for_region(OperatorId::Eso)
        };
        let t = spec.generate(2021, 9);
        assert!(t.mean().as_g_per_kwh() < 80.0);
    }
}
