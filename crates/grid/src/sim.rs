//! The hourly grid dispatch simulator.
//!
//! For every hour of the year, each region:
//!
//! 1. evaluates a *demand* model — diurnal double-hump shape in local time,
//!    seasonal swing (summer- or winter-peaking), weekend reduction and an
//!    OU noise term;
//! 2. evaluates *must-run* generation (nuclear, run-of-river hydro,
//!    biomass) and *variable renewables* — wind with an OU capacity factor
//!    (slow mean reversion produces the multi-day fronts behind the UK's
//!    high CoV) and solar from an astronomical clear-sky model shaped by
//!    season and an OU cloud process;
//! 3. dispatches the residual demand through the region's merit order
//!    (coal-baseload regions dispatch coal first, carbon-priced regions
//!    dispatch it last), with unlimited marginal imports as the backstop;
//! 4. computes carbon intensity as the emissions-weighted generation mix
//!    (Eq. 6's `I_sys` input).
//!
//! Over-supply hours curtail wind/solar (keeping must-run), like real
//! system operators do.
//!
//! The calendar inputs of step 1 depend on the local date or only on the
//! local hour. [`simulate_year`] therefore walks the year one *local* day
//! at a time ([`HourlySeries::from_local_days`]): the weekend flag and the
//! seasonal phase are derived once per local date, and the night-wind
//! phase comes from a 24-entry table. Each input is the same expression
//! on the same arguments as when it is derived from every hour's UTC
//! stamp ([`RegionSim::step`], `simulate_year_per_hour`), so the trace
//! is bit-identical. The OU draws, the shaping and the dispatch still run
//! every hour.

use crate::fuel::{Fuel, GenerationMix};
use crate::regions::{OperatorId, RegionParams};
use crate::trace::IntensityTrace;
use hpcarbon_sim::process::OrnsteinUhlenbeck;
use hpcarbon_sim::rng::SimRng;
use hpcarbon_timeseries::datetime::{days_in_year, CivilDate, HourStamp};
use hpcarbon_timeseries::series::HourlySeries;

/// Normalized diurnal demand deviation by local hour: overnight trough,
/// morning ramp, sustained daytime plateau, evening peak.
const DIURNAL_SHAPE: [f64; 24] = [
    -0.90, -1.00, -1.05, -1.10, -1.00, -0.80, -0.40, 0.10, 0.50, 0.70, 0.80, 0.85, 0.80, 0.75,
    0.70, 0.70, 0.75, 0.90, 1.00, 1.00, 0.80, 0.50, 0.00, -0.50,
];

/// Deterministic inputs derived once per local date.
#[derive(Debug, Clone, Copy)]
struct DayContext {
    /// True on Saturday/Sunday (local).
    weekend: bool,
    /// Phase aligned so that 1.0 = mid-summer (Jun 21-ish), -1.0 =
    /// mid-winter: the local day of year over the local year's length.
    summer_phase: f64,
}

impl DayContext {
    fn on(local: CivilDate) -> DayContext {
        let doy = f64::from(local.day_of_year());
        let days_in_year = f64::from(days_in_year(local.year()));
        DayContext {
            weekend: local.weekday().is_weekend(),
            summer_phase: (std::f64::consts::TAU * (doy - 172.0) / days_in_year).cos(),
        }
    }
}

/// Phase of the night-wind boost at a local hour: 1.0 around 02:00,
/// -1.0 around 14:00.
fn night_phase(local_hour: usize) -> f64 {
    (std::f64::consts::TAU * (local_hour as f64 - 2.0) / 24.0).cos()
}

/// Deterministic per-hour inputs derived from the calendar.
struct HourContext {
    /// Local hour of day.
    local_hour: usize,
    /// [`night_phase`] of the local hour.
    night_phase: f64,
    /// The local date's inputs.
    day: DayContext,
}

impl HourContext {
    /// Every input derived from one UTC stamp: the per-hour reference
    /// for the per-day walk in [`simulate_year`].
    fn at(params: &RegionParams, utc: HourStamp) -> HourContext {
        let local = params.tz.from_utc(utc);
        let local_hour = local.hour() as usize;
        HourContext {
            local_hour,
            night_phase: night_phase(local_hour),
            day: DayContext::on(local.date()),
        }
    }
}

/// Demand in units of average demand.
fn demand(params: &RegionParams, ctx: &HourContext, noise: f64) -> f64 {
    let diurnal = 1.0 + params.diurnal_amp * DIURNAL_SHAPE[ctx.local_hour];
    let phase = if params.summer_peaking {
        ctx.day.summer_phase
    } else {
        -ctx.day.summer_phase
    };
    let seasonal = 1.0 + params.seasonal_amp * phase;
    let weekend = if ctx.day.weekend {
        params.weekend_factor
    } else {
        1.0
    };
    (diurnal * seasonal * weekend * (1.0 + noise)).max(0.05)
}

/// Wind generation (units of average demand).
fn wind_generation(params: &RegionParams, ctx: &HourContext, cf_dev: f64) -> f64 {
    if params.wind_cap <= 0.0 {
        return 0.0;
    }
    let winter = 1.0 - params.wind_winter_boost * ctx.day.summer_phase;
    // Night boost peaks around 02:00 local, dips around 14:00.
    let night = 1.0 + params.wind_night_boost * ctx.night_phase;
    let cf = (params.wind_cf_mean * winter * night + cf_dev).clamp(0.02, 0.95);
    params.wind_cap * cf
}

/// Solar generation (units of average demand).
fn solar_generation(params: &RegionParams, ctx: &HourContext, cloud_dev: f64) -> f64 {
    if params.solar_cap <= 0.0 {
        return 0.0;
    }
    let daylen = 12.0 + params.daylen_amp * ctx.day.summer_phase;
    let rise = 12.0 - daylen / 2.0;
    let set = 12.0 + daylen / 2.0;
    let h = ctx.local_hour as f64 + 0.5; // mid-hour sun position
    if h <= rise || h >= set {
        return 0.0;
    }
    let elevation = (std::f64::consts::PI * (h - rise) / daylen).sin();
    // Seasonal irradiance: stronger sun in summer even at equal day length.
    let irradiance = 0.75 + 0.25 * ctx.day.summer_phase;
    let clear_sky = elevation.powf(1.2) * irradiance;
    let cloud = (1.0 - (params.cloud_mean + cloud_dev)).clamp(0.10, 1.0);
    params.solar_cap * clear_sky * cloud
}

/// One dispatch step: returns the full generation mix meeting `demand`.
/// `nuclear_availability` models planned/forced outages of the nuclear
/// fleet (multi-week excursions below 1.0).
fn dispatch(
    params: &RegionParams,
    demand: f64,
    wind: f64,
    solar: f64,
    nuclear_availability: f64,
) -> GenerationMix {
    let nuclear = params.nuclear * nuclear_availability.clamp(0.0, 1.0);
    let mut mix = GenerationMix::new();
    mix.add(Fuel::Nuclear, nuclear);
    mix.add(Fuel::Hydro, params.hydro_ror);
    mix.add(Fuel::Biomass, params.biomass);
    let must_run = nuclear + params.hydro_ror + params.biomass;
    let vre = wind + solar;

    if must_run + vre >= demand {
        // Over-supply: curtail wind/solar proportionally; must-run stays.
        let usable_vre = (demand - must_run).max(0.0);
        let k = if vre > 0.0 { usable_vre / vre } else { 0.0 };
        mix.add(Fuel::Wind, wind * k);
        mix.add(Fuel::Solar, solar * k);
        return mix;
    }

    mix.add(Fuel::Wind, wind);
    mix.add(Fuel::Solar, solar);
    let mut residual = demand - must_run - vre;
    for entry in &params.merit {
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
    mix
}

/// A stateful per-region simulator: a deterministic stream of hourly
/// generation mixes. [`RegionSim::step`] derives the hour's calendar
/// inputs from its UTC stamp; `simulate_year_per_hour` loops over it.
/// [`simulate_year`] feeds the same per-hour model from a walk over local
/// days instead.
pub struct RegionSim {
    params: RegionParams,
    demand_rng: SimRng,
    wind_rng: SimRng,
    cloud_rng: SimRng,
    outage_rng: SimRng,
    demand_ou: OrnsteinUhlenbeck,
    wind_ou: OrnsteinUhlenbeck,
    cloud_ou: OrnsteinUhlenbeck,
    outage_ou: OrnsteinUhlenbeck,
}

impl RegionSim {
    /// Creates the simulator. Deterministic in `(operator, seed)`.
    pub fn new(operator: OperatorId, seed: u64) -> RegionSim {
        let params = operator.params();
        let root = SimRng::seed_from(seed).substream(operator.info().short);
        let mut demand_rng = root.substream("demand");
        let mut wind_rng = root.substream("wind");
        let mut cloud_rng = root.substream("cloud");
        let mut outage_rng = root.substream("outage");

        // Region parameters specify the *stationary* standard deviation of
        // each OU process; convert to the volatility parameter
        // (sd = σ/√(2θ)).
        let vol = |sd: f64, theta: f64| sd * (2.0 * theta).sqrt();
        let mut demand_ou = OrnsteinUhlenbeck::new(
            0.0,
            params.demand_theta,
            vol(params.demand_sigma, params.demand_theta),
            1.0,
        );
        let mut wind_ou = OrnsteinUhlenbeck::new(
            0.0,
            params.wind_theta,
            vol(params.wind_sigma, params.wind_theta),
            1.0,
        );
        let mut cloud_ou = OrnsteinUhlenbeck::new(
            0.0,
            params.cloud_theta,
            vol(params.cloud_sigma, params.cloud_theta),
            1.0,
        );
        // Nuclear fleet availability: multi-week planned/forced outage
        // excursions (theta 0.004/h ≈ 250 h correlation time).
        let mut outage_ou = OrnsteinUhlenbeck::new(0.0, 0.004, vol(0.06, 0.004), 1.0);
        demand_ou.reset_stationary(&mut demand_rng);
        wind_ou.reset_stationary(&mut wind_rng);
        cloud_ou.reset_stationary(&mut cloud_rng);
        outage_ou.reset_stationary(&mut outage_rng);
        RegionSim {
            params,
            demand_rng,
            wind_rng,
            cloud_rng,
            outage_rng,
            demand_ou,
            wind_ou,
            cloud_ou,
            outage_ou,
        }
    }

    /// The region's parameters.
    pub fn params(&self) -> &RegionParams {
        &self.params
    }

    /// Advances one hour and returns the dispatched generation mix.
    pub fn step(&mut self, stamp: HourStamp) -> GenerationMix {
        self.step_in(&HourContext::at(&self.params, stamp))
    }

    /// Advances one hour whose calendar inputs are already derived.
    fn step_in(&mut self, ctx: &HourContext) -> GenerationMix {
        let d = demand(&self.params, ctx, self.demand_ou.step(&mut self.demand_rng));
        let w = wind_generation(&self.params, ctx, self.wind_ou.step(&mut self.wind_rng));
        let s = solar_generation(&self.params, ctx, self.cloud_ou.step(&mut self.cloud_rng));
        let avail = (1.0 + self.outage_ou.step(&mut self.outage_rng)).clamp(0.75, 1.0);
        dispatch(&self.params, d, w, s, avail)
    }
}

/// Simulates one region for one civil year, returning the hourly intensity
/// trace. Deterministic in `(operator, year, seed)`.
pub fn simulate_year(operator: OperatorId, year: i32, seed: u64) -> IntensityTrace {
    let mut sim = RegionSim::new(operator, seed);
    let import_intensity = sim.params().import_intensity;
    let tz = sim.params().tz;
    let night: [f64; 24] = std::array::from_fn(night_phase);
    let series = HourlySeries::from_local_days(year, tz, DayContext::on, |day, hour| {
        let local_hour = usize::from(hour);
        let ctx = HourContext {
            local_hour,
            night_phase: night[local_hour],
            day: *day,
        };
        sim.step_in(&ctx).intensity(import_intensity).as_g_per_kwh()
    });
    IntensityTrace::new(operator, series)
}

/// [`simulate_year`] with every calendar input re-derived from each hour's
/// UTC stamp through [`RegionSim::step`]. Bit-identical and slower: the
/// reference that the proptests compare against and the bench gate's
/// baseline.
#[doc(hidden)]
pub fn simulate_year_per_hour(operator: OperatorId, year: i32, seed: u64) -> IntensityTrace {
    let mut sim = RegionSim::new(operator, seed);
    let import_intensity = sim.params().import_intensity;
    let series = HourlySeries::from_fn(year, |stamp| {
        sim.step(stamp).intensity(import_intensity).as_g_per_kwh()
    });
    IntensityTrace::new(operator, series)
}

/// Simulates all seven Table 3 regions in parallel (one worker per region,
/// deterministically seeded per region so the result is identical to a
/// sequential run).
pub fn simulate_all_regions(year: i32, seed: u64) -> Vec<IntensityTrace> {
    hpcarbon_sim::par::par_map(&OperatorId::ALL, |_, op| simulate_year(*op, year, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcarbon_timeseries::datetime::CivilDate;

    #[test]
    fn deterministic_given_seed() {
        let a = simulate_year(OperatorId::Eso, 2021, 7);
        let b = simulate_year(OperatorId::Eso, 2021, 7);
        assert_eq!(a.series().values(), b.series().values());
        let c = simulate_year(OperatorId::Eso, 2021, 8);
        assert_ne!(a.series().values(), c.series().values());
    }

    #[test]
    fn regions_have_distinct_traces_from_same_seed() {
        let eso = simulate_year(OperatorId::Eso, 2021, 7);
        let tk = simulate_year(OperatorId::Tokyo, 2021, 7);
        assert_ne!(eso.series().values(), tk.series().values());
    }

    #[test]
    fn parallel_matches_sequential() {
        let par = simulate_all_regions(2021, 42);
        for (i, op) in OperatorId::ALL.iter().enumerate() {
            let seq = simulate_year(*op, 2021, 42);
            assert_eq!(par[i].series().values(), seq.series().values(), "{op:?}");
        }
    }

    #[test]
    fn intensities_are_physical() {
        for trace in simulate_all_regions(2021, 1) {
            for (_, v) in trace.series().iter() {
                assert!(v.is_finite());
                // Bounded by the dirtiest fuel (coal 820) and cleanest
                // possible mix (> wind's 11).
                assert!(
                    (5.0..=850.0).contains(&v),
                    "{}: {v}",
                    trace.operator().info().short
                );
            }
        }
    }

    #[test]
    fn solar_is_zero_at_night() {
        let params = OperatorId::Ciso.params();
        let midnight_utc = HourStamp::new(CivilDate::new(2021, 6, 15).unwrap(), 8).unwrap();
        // UTC 08:00 = midnight PST.
        let ctx = HourContext::at(&params, midnight_utc);
        assert_eq!(ctx.local_hour, 0);
        assert_eq!(solar_generation(&params, &ctx, 0.0), 0.0);
        // Local noon (UTC 20:00) in June: strong solar.
        let noon_utc = HourStamp::new(CivilDate::new(2021, 6, 15).unwrap(), 20).unwrap();
        let ctx = HourContext::at(&params, noon_utc);
        assert_eq!(ctx.local_hour, 12);
        assert!(solar_generation(&params, &ctx, 0.0) > 0.4);
    }

    #[test]
    fn solar_stronger_in_summer_than_winter() {
        let params = OperatorId::Ciso.params();
        let summer = HourStamp::new(CivilDate::new(2021, 6, 21).unwrap(), 20).unwrap();
        let winter = HourStamp::new(CivilDate::new(2021, 12, 21).unwrap(), 20).unwrap();
        let s = solar_generation(&params, &HourContext::at(&params, summer), 0.0);
        let w = solar_generation(&params, &HourContext::at(&params, winter), 0.0);
        assert!(s > w, "summer {s} vs winter {w}");
    }

    #[test]
    fn demand_peaks_in_the_evening() {
        let params = OperatorId::Ercot.params();
        let day = CivilDate::new(2021, 7, 14).unwrap(); // a Wednesday
        let at = |utc_hour: u8| {
            let ctx = HourContext::at(&params, HourStamp::new(day, utc_hour).unwrap());
            demand(&params, &ctx, 0.0)
        };
        // CST: local 18:00 = UTC 0:00 next day; use UTC hours mapping to
        // local 3 AM (UTC 9) vs local 18:00 (UTC 0 of the same civil UTC day
        // maps to local 18:00 of the prior day — simpler: compare two UTC
        // hours whose local hours are 3 and 19).
        let trough = at(9); // local 03:00
        let peak = at(1); // local 19:00
        assert!(peak > trough * 1.2, "peak {peak} trough {trough}");
    }

    #[test]
    fn weekend_demand_is_lower() {
        let params = OperatorId::Eso.params();
        let saturday = CivilDate::new(2021, 7, 17).unwrap();
        let wednesday = CivilDate::new(2021, 7, 14).unwrap();
        let d_sat = demand(
            &params,
            &HourContext::at(&params, HourStamp::new(saturday, 12).unwrap()),
            0.0,
        );
        let d_wed = demand(
            &params,
            &HourContext::at(&params, HourStamp::new(wednesday, 12).unwrap()),
            0.0,
        );
        assert!(d_sat < d_wed);
    }

    #[test]
    fn dispatch_meets_demand_exactly() {
        let params = OperatorId::Eso.params();
        for (d, w, s) in [
            (1.0, 0.2, 0.05),
            (0.7, 0.5, 0.0),
            (1.3, 0.05, 0.1),
            (0.3, 0.6, 0.3), // over-supply -> curtailment
        ] {
            let mix = dispatch(&params, d, w, s, 1.0);
            assert!(
                (mix.total() - d).abs() < 1e-9,
                "demand {d}: total {}",
                mix.total()
            );
        }
    }

    #[test]
    fn curtailment_keeps_must_run() {
        let params = OperatorId::Eso.params();
        // Absurd over-supply: demand below must-run.
        let mix = dispatch(&params, 0.1, 2.0, 1.0, 1.0);
        assert_eq!(mix.get(Fuel::Wind), 0.0);
        assert_eq!(mix.get(Fuel::Solar), 0.0);
        assert!(mix.get(Fuel::Nuclear) > 0.0);
    }

    #[test]
    fn more_wind_means_cleaner_dispatch() {
        let params = OperatorId::Eso.params();
        let dirty = dispatch(&params, 1.0, 0.05, 0.0, 1.0).intensity(params.import_intensity);
        let clean = dispatch(&params, 1.0, 0.6, 0.0, 1.0).intensity(params.import_intensity);
        assert!(clean < dirty);
    }

    #[test]
    fn coal_first_regions_are_dirtier_at_baseload() {
        // At identical low residual, MISO (coal first) is dirtier than
        // ESO (gas first).
        let miso = OperatorId::Miso.params();
        let eso = OperatorId::Eso.params();
        let m = dispatch(&miso, 0.6, 0.1, 0.0, 1.0).intensity(miso.import_intensity);
        let e = dispatch(&eso, 0.6, 0.1, 0.0, 1.0).intensity(eso.import_intensity);
        assert!(m.as_g_per_kwh() > e.as_g_per_kwh() + 100.0);
    }
}

#[cfg(test)]
mod mix_tests {
    use super::*;

    /// Annual average generation shares per fuel for a simulated
    /// region-year: the simulator's "energy mix", validating that each
    /// region tells the physical story its parameters intend (ESO
    /// wind-heavy, MISO coal-heavy, CISO solar-rich, …).
    fn annual_fuel_shares(operator: OperatorId, year: i32, seed: u64) -> Vec<(Fuel, f64)> {
        let mut sim = RegionSim::new(operator, seed);
        let mut totals = GenerationMix::new();
        for idx in 0..hpcarbon_timeseries::datetime::hours_in_year(year) {
            let mix = sim.step(HourStamp::from_hour_of_year(year, idx));
            for fuel in Fuel::ALL {
                totals.add(fuel, mix.get(fuel));
            }
        }
        Fuel::ALL.iter().map(|f| (*f, totals.share(*f))).collect()
    }

    fn share(shares: &[(Fuel, f64)], fuel: Fuel) -> f64 {
        shares.iter().find(|(f, _)| *f == fuel).expect("present").1
    }

    #[test]
    fn shares_sum_to_one() {
        for op in [OperatorId::Eso, OperatorId::Miso, OperatorId::Tokyo] {
            let shares = annual_fuel_shares(op, 2021, 9);
            let total: f64 = shares.iter().map(|(_, s)| s).sum();
            assert!((total - 1.0).abs() < 1e-9, "{op:?}: {total}");
        }
    }

    #[test]
    fn eso_mix_is_wind_and_gas() {
        // GB 2021 reality check: wind ~20-35%, gas the largest fossil,
        // negligible coal.
        let shares = annual_fuel_shares(OperatorId::Eso, 2021, 9);
        let wind = share(&shares, Fuel::Wind);
        let gas = share(&shares, Fuel::Gas);
        let coal = share(&shares, Fuel::Coal);
        assert!((0.18..0.40).contains(&wind), "wind {wind}");
        assert!((0.25..0.55).contains(&gas), "gas {gas}");
        assert!(coal < 0.05, "coal {coal}");
    }

    #[test]
    fn miso_mix_is_coal_heavy() {
        let shares = annual_fuel_shares(OperatorId::Miso, 2021, 9);
        let coal = share(&shares, Fuel::Coal);
        assert!(coal > 0.30, "coal {coal}");
        assert!(coal > share(&shares, Fuel::Wind));
    }

    #[test]
    fn ciso_mix_is_solar_rich_and_coal_free() {
        let shares = annual_fuel_shares(OperatorId::Ciso, 2021, 9);
        assert!(share(&shares, Fuel::Solar) > 0.10, "solar too small");
        assert_eq!(share(&shares, Fuel::Coal), 0.0);
    }

    #[test]
    fn tokyo_has_no_nuclear_in_2021() {
        let shares = annual_fuel_shares(OperatorId::Tokyo, 2021, 9);
        assert_eq!(share(&shares, Fuel::Nuclear), 0.0);
        assert!(share(&shares, Fuel::Gas) > 0.40);
    }

    #[test]
    fn region_sim_matches_simulate_year() {
        // Stepping a RegionSim by UTC stamp reproduces the per-day walk's
        // trace exactly.
        let trace = simulate_year(OperatorId::Ercot, 2021, 3);
        let import = OperatorId::Ercot.params().import_intensity;
        for idx in [0u32, 1, 100, 5000] {
            // Re-create a fresh sim each time and fast-forward, because
            // the stream is stateful.
            let mut s2 = RegionSim::new(OperatorId::Ercot, 3);
            let mut value = 0.0;
            for k in 0..=idx {
                value = s2
                    .step(HourStamp::from_hour_of_year(2021, k))
                    .intensity(import)
                    .as_g_per_kwh();
            }
            assert_eq!(value, trace.series().at(idx), "hour {idx}");
        }
    }
}
