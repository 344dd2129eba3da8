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
//! The shaping terms of steps 1–2 depend on the local date or only on the
//! local hour. [`simulate_year`] therefore walks the year one *local* day
//! at a time ([`local_days`]). Once per local date it derives the
//! seasonal and weekend demand factors, the wind capacity factor before
//! its night boost, and the solar day length, sunrise, sunset and
//! irradiance (`DayContext`); the diurnal demand and night-wind factors
//! come from 24-entry tables (`HourContext`). Each term is the same
//! expression, with the same operand grouping, as when it is derived
//! from every hour's UTC stamp ([`RegionSim::step`],
//! `simulate_year_per_hour`), so the trace is bit-identical.
//!
//! The walk gathers those seed-free terms for 64 hours at a time. The
//! four OU processes then step across the block, each on its own
//! substream drawing its noise 64 at a time (`hpcarbon_sim::process`),
//! and a lane-wise dispatch (`dispatch_block`) computes every hour's mix
//! and intensity with each addition and multiplication in the order of
//! the per-hour `dispatch` and [`GenerationMix::intensity`].
//!
//! The clear-sky term of a daylight hour depends on the region and the
//! year, not on the seed. A process-wide memo of at most 16 region-years
//! (a [`Store`]: second-sight admission, least recently used evicted
//! first) keeps it as a table of the daylight hours' terms, in hour
//! order. A region-year's first sight computes the terms in the walk and
//! keeps nothing, its second builds and keeps the table, and every later
//! one reads it: a service that keeps seeing fresh seeds on a few
//! region-years stops computing them, and a sweep, which sees each
//! region-year once, allocates no table.

use crate::fuel::{Fuel, GenerationMix};
use crate::regions::{OperatorId, RegionParams};
use crate::trace::IntensityTrace;
use hpcarbon_sim::process::OrnsteinUhlenbeck;
use hpcarbon_sim::rng::SimRng;
use hpcarbon_sim::store::{Found, Store};
use hpcarbon_timeseries::datetime::{days_in_year, hours_in_year, CivilDate, HourStamp};
use hpcarbon_timeseries::series::{local_days, HourlySeries};
use std::sync::Arc;

/// Normalized diurnal demand deviation by local hour: overnight trough,
/// morning ramp, sustained daytime plateau, evening peak.
const DIURNAL_SHAPE: [f64; 24] = [
    -0.90, -1.00, -1.05, -1.10, -1.00, -0.80, -0.40, 0.10, 0.50, 0.70, 0.80, 0.85, 0.80, 0.75,
    0.70, 0.70, 0.75, 0.90, 1.00, 1.00, 0.80, 0.50, 0.00, -0.50,
];

/// A region's shaping terms that depend only on the local date.
#[derive(Debug, Clone, Copy)]
struct DayContext {
    /// Demand's seasonal factor, `1 + seasonal_amp × phase`, with the
    /// phase signed for the region's peak season.
    seasonal: f64,
    /// Demand's weekend factor: `weekend_factor` on a local Saturday or
    /// Sunday, else 1.
    weekend: f64,
    /// Wind's capacity factor before the night boost:
    /// `wind_cf_mean × winter`.
    wind_base: f64,
    /// Solar day length, hours.
    daylen: f64,
    /// Sunrise, local hours.
    sunrise: f64,
    /// Sunset, local hours.
    sunset: f64,
    /// Seasonal irradiance: stronger sun in summer even at equal day
    /// length.
    irradiance: f64,
}

impl DayContext {
    fn on(params: &RegionParams, local: CivilDate) -> DayContext {
        let doy = f64::from(local.day_of_year());
        let days_in_year = f64::from(days_in_year(local.year()));
        // 1.0 = mid-summer (Jun 21-ish), -1.0 = mid-winter: the local day
        // of year over the local year's length.
        let summer_phase = (std::f64::consts::TAU * (doy - 172.0) / days_in_year).cos();
        let phase = if params.summer_peaking {
            summer_phase
        } else {
            -summer_phase
        };
        let winter = 1.0 - params.wind_winter_boost * summer_phase;
        let daylen = 12.0 + params.daylen_amp * summer_phase;
        DayContext {
            seasonal: 1.0 + params.seasonal_amp * phase,
            weekend: if local.weekday().is_weekend() {
                params.weekend_factor
            } else {
                1.0
            },
            wind_base: params.wind_cf_mean * winter,
            daylen,
            sunrise: 12.0 - daylen / 2.0,
            sunset: 12.0 + daylen / 2.0,
            irradiance: 0.75 + 0.25 * summer_phase,
        }
    }

    /// True when the sun is down at local time `h` (hours).
    fn is_night(&self, h: f64) -> bool {
        h <= self.sunrise || h >= self.sunset
    }

    /// The clear-sky output of daylight local time `h`, before clouds:
    /// the sun's elevation shape scaled by the seasonal irradiance.
    fn clear_sky(&self, h: f64) -> f64 {
        let elevation = (std::f64::consts::PI * (h - self.sunrise) / self.daylen).sin();
        elevation.powf(1.2) * self.irradiance
    }
}

/// A region's shaping terms that depend only on the local hour.
struct HourContext {
    /// Local hour of day.
    local_hour: usize,
    /// Demand's diurnal factor, `1 + diurnal_amp × DIURNAL_SHAPE[hour]`.
    diurnal: f64,
    /// Wind's night factor: the boost peaks around 02:00 local and dips
    /// around 14:00.
    night: f64,
}

impl HourContext {
    fn at(params: &RegionParams, local_hour: usize) -> HourContext {
        let night_phase = (std::f64::consts::TAU * (local_hour as f64 - 2.0) / 24.0).cos();
        HourContext {
            local_hour,
            diurnal: 1.0 + params.diurnal_amp * DIURNAL_SHAPE[local_hour],
            night: 1.0 + params.wind_night_boost * night_phase,
        }
    }

    /// The mid-hour sun position, local hours.
    fn mid(&self) -> f64 {
        self.local_hour as f64 + 0.5
    }
}

/// Every shaping term derived from one UTC stamp: the per-hour reference
/// for the per-day walk in [`simulate_year`].
fn calendar(params: &RegionParams, utc: HourStamp) -> (DayContext, HourContext) {
    let local = params.tz.from_utc(utc);
    (
        DayContext::on(params, local.date()),
        HourContext::at(params, usize::from(local.hour())),
    )
}

/// Demand in units of average demand.
fn demand(day: &DayContext, hour: &HourContext, noise: f64) -> f64 {
    (hour.diurnal * day.seasonal * day.weekend * (1.0 + noise)).max(0.05)
}

/// Wind generation (units of average demand).
fn wind_generation(
    params: &RegionParams,
    day: &DayContext,
    hour: &HourContext,
    cf_dev: f64,
) -> f64 {
    if params.wind_cap <= 0.0 {
        return 0.0;
    }
    let cf = (day.wind_base * hour.night + cf_dev).clamp(0.02, 0.95);
    params.wind_cap * cf
}

/// Solar generation (units of average demand).
fn solar_generation(
    params: &RegionParams,
    day: &DayContext,
    hour: &HourContext,
    cloud_dev: f64,
) -> f64 {
    if params.solar_cap <= 0.0 {
        return 0.0;
    }
    if day.is_night(hour.mid()) {
        return 0.0;
    }
    params.solar_cap * day.clear_sky(hour.mid()) * cloud_cover(params, cloud_dev)
}

/// The share of clear-sky solar output that passes the clouds.
fn cloud_cover(params: &RegionParams, cloud_dev: f64) -> f64 {
    (1.0 - (params.cloud_mean + cloud_dev)).clamp(0.10, 1.0)
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

/// Hours a block holds: [`simulate_year`] gathers, steps and dispatches
/// this many at a time.
const BLOCK: usize = 64;

/// Most region-years whose clear-sky table the memo holds. A table holds
/// a year's daylight hours, ~4,400 values or ~34 KiB, so the memo stays
/// under ~550 KiB.
const CLEAR_SKY_CAPACITY: usize = 16;

/// The clear-sky tables by region-year: [`clear_sky_table`] of each.
static CLEAR_SKY: Store<(OperatorId, i32), Arc<[f64]>> = Store::new(CLEAR_SKY_CAPACITY);

/// The clear-sky term of each daylight hour of `year` in `params`'
/// region, in hour order: the walk of [`simulate_year`] and the same
/// expressions as [`solar_generation`], with the night hours left out.
fn clear_sky_table(params: &RegionParams, year: i32) -> Arc<[f64]> {
    let hours: [HourContext; 24] = std::array::from_fn(|h| HourContext::at(params, h));
    let mut table = Vec::with_capacity(hours_in_year(year) as usize);
    for (date, local_hours) in local_days(year, params.tz) {
        let day = DayContext::on(params, date);
        for hour in local_hours.map(|h| &hours[usize::from(h)]) {
            if !day.is_night(hour.mid()) {
                table.push(day.clear_sky(hour.mid()));
            }
        }
    }
    table.into()
}

/// The memo's clear-sky table of `operator`'s `year`: built and kept on
/// the region-year's second sight, read on every later one. A first
/// sight gets `None` and builds nothing, so a caller that sees each
/// region-year once, as a sweep does, allocates no table.
fn clear_sky(operator: OperatorId, year: i32, params: &RegionParams) -> Option<Arc<[f64]>> {
    match CLEAR_SKY.get((operator, year), || (), |()| clear_sky_table(params, year)) {
        Found::Unkept(()) => None,
        Found::Filled((), table) | Found::Stored(table) => Some(table),
    }
}

/// One block's inputs to [`dispatch_block`], lane `i` being one hour:
/// what [`dispatch`] takes as arguments.
struct Lanes {
    demand: [f64; BLOCK],
    wind: [f64; BLOCK],
    solar: [f64; BLOCK],
    nuclear_availability: [f64; BLOCK],
}

/// [`dispatch`] and then [`GenerationMix::intensity`] for every lane, in
/// gCO₂/kWh, each lane bit for bit the per-hour value.
///
/// Lane `i` makes the additions and multiplications the scalar path
/// makes for its hour, on the same operands in the same order, with
/// selects in place of its branches:
///
/// - the must-run fuels, and wind and solar, are set to `0.0 + x`, what
///   [`GenerationMix::add`] computes on an empty slot; an over-supplied
///   lane takes `wind × k` and `solar × k` and a residual of 0;
/// - each merit rung adds `take`, which is `+0.0` once the residual is
///   not positive, and leaves the residual where it is, as the scalar
///   loop's `break` does: a slot's sum is ≥ +0, and adding `+0.0` to it
///   changes no bit;
/// - imports add the residual left when it is positive;
/// - the total and the grams accumulate in [`Fuel::ALL`] order.
///
/// Every lane is computed; a partial block's caller reads its lanes
/// only.
fn dispatch_block(params: &RegionParams, import_factor: f64, lanes: &Lanes) -> [f64; BLOCK] {
    const FUELS: usize = Fuel::ALL.len();
    let mut gw = [[0.0f64; BLOCK]; FUELS];
    let mut residual = [0.0f64; BLOCK];
    // Each branch of the scalar path is a select over values computed
    // in every lane, so the loops carry no control flow. The
    // over-supply test and the curtailment are two loops: LLVM
    // vectorizes each, and not the two fused.
    let mut over = [false; BLOCK];
    let mut usable_vre = [0.0f64; BLOCK];
    for i in 0..BLOCK {
        let nuclear = params.nuclear * lanes.nuclear_availability[i].clamp(0.0, 1.0);
        gw[Fuel::Nuclear as usize][i] = 0.0 + nuclear;
        gw[Fuel::Hydro as usize][i] = 0.0 + params.hydro_ror;
        gw[Fuel::Biomass as usize][i] = 0.0 + params.biomass;
        let must_run = nuclear + params.hydro_ror + params.biomass;
        let demand = lanes.demand[i];
        let vre = lanes.wind[i] + lanes.solar[i];
        over[i] = must_run + vre >= demand;
        usable_vre[i] = (demand - must_run).max(0.0);
        let short = demand - must_run - vre;
        residual[i] = if over[i] { 0.0 } else { short };
    }
    for i in 0..BLOCK {
        let (wind, solar) = (lanes.wind[i], lanes.solar[i]);
        let vre = wind + solar;
        // The scalar path's `k` is `usable / vre`, or 0 without VRE.
        // Without VRE, wind and solar are 0 and so is any finite
        // multiple, so dividing by 1 instead gives the same products.
        let k = usable_vre[i] / if vre > 0.0 { vre } else { 1.0 };
        // `x × 1 = x` for every `x`: a lane that is not over-supplied
        // keeps its wind and solar whole.
        let kept = if over[i] { k } else { 1.0 };
        gw[Fuel::Wind as usize][i] = 0.0 + wind * kept;
        gw[Fuel::Solar as usize][i] = 0.0 + solar * kept;
    }
    for entry in &params.merit {
        let capacity = entry.capacity;
        let slot = &mut gw[entry.fuel as usize];
        for i in 0..BLOCK {
            let r = residual[i];
            let take = if r > 0.0 { r.min(capacity) } else { 0.0 };
            slot[i] += take;
            residual[i] = r - take;
        }
    }
    let imports = &mut gw[Fuel::Imports as usize];
    for i in 0..BLOCK {
        let r = residual[i];
        imports[i] += if r > 0.0 { r } else { 0.0 };
    }
    let mut total = [0.0f64; BLOCK];
    let mut grams = [0.0f64; BLOCK];
    for (fuel, slot) in Fuel::ALL.into_iter().zip(&gw) {
        let factor = if fuel == Fuel::Imports {
            import_factor
        } else {
            fuel.emission_factor().as_g_per_kwh()
        };
        for i in 0..BLOCK {
            total[i] += slot[i];
            grams[i] += slot[i] * factor;
        }
    }
    let mut intensity = [0.0f64; BLOCK];
    for i in 0..BLOCK {
        // Divided in every lane: behind the branch, LLVM leaves the
        // loop scalar.
        let mean = grams[i] / total[i];
        intensity[i] = if total[i] <= 0.0 { 0.0 } else { mean };
    }
    intensity
}

/// One block of hours, lane `i` being one hour: the seed-free shaping
/// terms the walk gathers, then the processes' steps and the dispatch
/// inputs derived from both. A year reuses one block; lanes `len..`
/// hold an earlier block's values, which nothing reads.
struct Block {
    /// Hours gathered: lanes `0..len` hold this block's hours.
    len: usize,
    /// Demand before its noise: `diurnal × seasonal × weekend`.
    demand: [f64; BLOCK],
    /// Wind's capacity factor before its deviation: `wind_base × night`.
    wind: [f64; BLOCK],
    /// The clear-sky term; 0 for a night hour.
    clear_sky: [f64; BLOCK],
    /// The demand, wind, cloud and outage processes' steps.
    noise: [[f64; BLOCK]; 4],
    /// What each hour dispatches.
    lanes: Lanes,
}

/// A stateful per-region simulator: a deterministic stream of hourly
/// generation mixes. [`RegionSim::step`] derives the hour's shaping terms
/// from its UTC stamp; `simulate_year_per_hour` loops over it.
/// [`simulate_year`] feeds the same model from a walk over local days,
/// 64 hours at a time.
pub struct RegionSim {
    params: RegionParams,
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

        // Region parameters specify the *stationary* standard deviation of
        // each OU process; convert to the volatility parameter
        // (sd = σ/√(2θ)). Each process draws from its own substream.
        let process = |label: &str, sd: f64, theta: f64| {
            let vol = sd * (2.0 * theta).sqrt();
            let mut ou = OrnsteinUhlenbeck::new(0.0, theta, vol, 1.0, root.substream(label));
            ou.reset_stationary();
            ou
        };
        let demand_ou = process("demand", params.demand_sigma, params.demand_theta);
        let wind_ou = process("wind", params.wind_sigma, params.wind_theta);
        let cloud_ou = process("cloud", params.cloud_sigma, params.cloud_theta);
        // Nuclear fleet availability: multi-week planned/forced outage
        // excursions (theta 0.004/h ≈ 250 h correlation time).
        let outage_ou = process("outage", 0.06, 0.004);
        RegionSim {
            params,
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
        let (day, hour) = calendar(&self.params, stamp);
        self.step_in(&day, &hour)
    }

    /// Advances one hour whose shaping terms are already derived.
    fn step_in(&mut self, day: &DayContext, hour: &HourContext) -> GenerationMix {
        let d = demand(day, hour, self.demand_ou.step());
        let w = wind_generation(&self.params, day, hour, self.wind_ou.step());
        let s = solar_generation(&self.params, day, hour, self.cloud_ou.step());
        let avail = (1.0 + self.outage_ou.step()).clamp(0.75, 1.0);
        dispatch(&self.params, d, w, s, avail)
    }

    /// Advances one hour per gathered lane of `block` and appends each
    /// hour's intensity to `out`. Each process steps once per hour, as in
    /// [`RegionSim::step_in`], and each lane evaluates its expressions.
    fn step_block(&mut self, block: &mut Block, import_factor: f64, out: &mut Vec<f64>) {
        let n = block.len;
        let [demand_dev, wind_dev, cloud_dev, outage_dev] = &mut block.noise;
        // The four recurrences are independent: stepping them together
        // lets their latency chains overlap.
        for i in 0..n {
            demand_dev[i] = self.demand_ou.step();
            wind_dev[i] = self.wind_ou.step();
            cloud_dev[i] = self.cloud_ou.step();
            outage_dev[i] = self.outage_ou.step();
        }
        let p = &self.params;
        let lanes = &mut block.lanes;
        for i in 0..BLOCK {
            lanes.demand[i] = (block.demand[i] * (1.0 + demand_dev[i])).max(0.05);
            lanes.wind[i] = if p.wind_cap <= 0.0 {
                0.0
            } else {
                p.wind_cap * (block.wind[i] + wind_dev[i]).clamp(0.02, 0.95)
            };
            // A night lane's clear-sky term is 0, so its solar is
            // `solar_cap × 0 × cover = +0`, the per-hour path's 0.
            lanes.solar[i] = if p.solar_cap <= 0.0 {
                0.0
            } else {
                p.solar_cap * block.clear_sky[i] * cloud_cover(p, cloud_dev[i])
            };
            lanes.nuclear_availability[i] = (1.0 + outage_dev[i]).clamp(0.75, 1.0);
        }
        out.extend_from_slice(&dispatch_block(p, import_factor, lanes)[..n]);
    }
}

/// Simulates one region for one civil year, returning the hourly intensity
/// trace. Deterministic in `(operator, year, seed)`.
pub fn simulate_year(operator: OperatorId, year: i32, seed: u64) -> IntensityTrace {
    let mut sim = RegionSim::new(operator, seed);
    // The day walk reads the parameters while `step_block` borrows `sim`.
    let params = sim.params().clone();
    let import_factor = params.import_intensity.as_g_per_kwh();
    let hours: [HourContext; 24] = std::array::from_fn(|h| HourContext::at(&params, h));
    let table = clear_sky(operator, year, &params);
    let mut daylight = 0;
    let mut values = Vec::with_capacity(hours_in_year(year) as usize);
    let mut block = Block {
        len: 0,
        demand: [0.0; BLOCK],
        wind: [0.0; BLOCK],
        clear_sky: [0.0; BLOCK],
        noise: [[0.0; BLOCK]; 4],
        lanes: Lanes {
            demand: [0.0; BLOCK],
            wind: [0.0; BLOCK],
            solar: [0.0; BLOCK],
            nuclear_availability: [0.0; BLOCK],
        },
    };
    for (date, local_hours) in local_days(year, params.tz) {
        let day = DayContext::on(&params, date);
        for h in local_hours {
            let hour = &hours[usize::from(h)];
            let i = block.len;
            block.demand[i] = hour.diurnal * day.seasonal * day.weekend;
            block.wind[i] = day.wind_base * hour.night;
            block.clear_sky[i] = if day.is_night(hour.mid()) {
                0.0
            } else if let Some(table) = &table {
                daylight += 1;
                table[daylight - 1]
            } else {
                day.clear_sky(hour.mid())
            };
            block.len += 1;
            if block.len == BLOCK {
                sim.step_block(&mut block, import_factor, &mut values);
                block.len = 0;
            }
        }
    }
    sim.step_block(&mut block, import_factor, &mut values);
    debug_assert!(
        table.is_none_or(|t| t.len() == daylight),
        "the walk reads the whole table"
    );
    IntensityTrace::new(operator, HourlySeries::new(year, values))
}

/// [`simulate_year`] one hour at a time through `RegionSim::step_in`,
/// with the shaping terms still derived once per local day and the
/// clear-sky term computed in every daylight hour. Bit-identical and
/// slower: the reference the block walk is checked against and the
/// bench gate's baseline for it.
#[doc(hidden)]
pub fn simulate_year_per_day(operator: OperatorId, year: i32, seed: u64) -> IntensityTrace {
    let mut sim = RegionSim::new(operator, seed);
    // The day walk reads the parameters while `step_in` borrows `sim`.
    let params = sim.params().clone();
    let import_intensity = params.import_intensity;
    let hours: [HourContext; 24] = std::array::from_fn(|h| HourContext::at(&params, h));
    let series = HourlySeries::from_local_days(
        year,
        params.tz,
        |date| DayContext::on(&params, date),
        |day, hour| {
            sim.step_in(day, &hours[usize::from(hour)])
                .intensity(import_intensity)
                .as_g_per_kwh()
        },
    );
    IntensityTrace::new(operator, series)
}

/// [`simulate_year`] with every shaping term re-derived from each hour's
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
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes this crate's tests that reach the process-wide
    /// clear-sky memo, so a test that reads it sees its own lookups only.
    pub(super) fn memo_lock() -> MutexGuard<'static, ()> {
        static MEMO: Mutex<()> = Mutex::new(());
        MEMO.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn deterministic_given_seed() {
        let _memo = memo_lock();
        let a = simulate_year(OperatorId::Eso, 2021, 7);
        let b = simulate_year(OperatorId::Eso, 2021, 7);
        assert_eq!(a.series().values(), b.series().values());
        let c = simulate_year(OperatorId::Eso, 2021, 8);
        assert_ne!(a.series().values(), c.series().values());
    }

    #[test]
    fn regions_have_distinct_traces_from_same_seed() {
        let _memo = memo_lock();
        let eso = simulate_year(OperatorId::Eso, 2021, 7);
        let tk = simulate_year(OperatorId::Tokyo, 2021, 7);
        assert_ne!(eso.series().values(), tk.series().values());
    }

    #[test]
    fn parallel_matches_sequential() {
        let _memo = memo_lock();
        let par = simulate_all_regions(2021, 42);
        for (i, op) in OperatorId::ALL.iter().enumerate() {
            let seq = simulate_year(*op, 2021, 42);
            assert_eq!(par[i].series().values(), seq.series().values(), "{op:?}");
        }
    }

    #[test]
    fn intensities_are_physical() {
        let _memo = memo_lock();
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
        let (day, hour) = calendar(&params, midnight_utc);
        assert_eq!(hour.local_hour, 0);
        assert_eq!(solar_generation(&params, &day, &hour, 0.0), 0.0);
        // Local noon (UTC 20:00) in June: strong solar.
        let noon_utc = HourStamp::new(CivilDate::new(2021, 6, 15).unwrap(), 20).unwrap();
        let (day, hour) = calendar(&params, noon_utc);
        assert_eq!(hour.local_hour, 12);
        assert!(solar_generation(&params, &day, &hour, 0.0) > 0.4);
    }

    #[test]
    fn solar_stronger_in_summer_than_winter() {
        let params = OperatorId::Ciso.params();
        let solar_at = |utc: HourStamp| {
            let (day, hour) = calendar(&params, utc);
            solar_generation(&params, &day, &hour, 0.0)
        };
        let s = solar_at(HourStamp::new(CivilDate::new(2021, 6, 21).unwrap(), 20).unwrap());
        let w = solar_at(HourStamp::new(CivilDate::new(2021, 12, 21).unwrap(), 20).unwrap());
        assert!(s > w, "summer {s} vs winter {w}");
    }

    #[test]
    fn demand_peaks_in_the_evening() {
        let params = OperatorId::Ercot.params();
        let day = CivilDate::new(2021, 7, 14).unwrap(); // a Wednesday
        let at = |utc_hour: u8| {
            let (day, hour) = calendar(&params, HourStamp::new(day, utc_hour).unwrap());
            demand(&day, &hour, 0.0)
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
        let demand_at = |date: CivilDate| {
            let (day, hour) = calendar(&params, HourStamp::new(date, 12).unwrap());
            demand(&day, &hour, 0.0)
        };
        let d_sat = demand_at(CivilDate::new(2021, 7, 17).unwrap());
        let d_wed = demand_at(CivilDate::new(2021, 7, 14).unwrap());
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
        let total = totals.total();
        Fuel::ALL
            .iter()
            .map(|f| (*f, totals.get(*f) / total))
            .collect()
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
        // Stepping a RegionSim by UTC stamp reproduces the block walk's
        // trace exactly.
        let trace = {
            let _memo = super::tests::memo_lock();
            simulate_year(OperatorId::Ercot, 2021, 3)
        };
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

#[cfg(test)]
mod block_tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-hour reference for one lane: [`dispatch`], then
    /// [`GenerationMix::intensity`].
    fn scalar(params: &RegionParams, lanes: &Lanes, i: usize) -> f64 {
        dispatch(
            params,
            lanes.demand[i],
            lanes.wind[i],
            lanes.solar[i],
            lanes.nuclear_availability[i],
        )
        .intensity(params.import_intensity)
        .as_g_per_kwh()
    }

    /// Lanes `0..hours.len()` hold `hours`, as (demand, wind, solar,
    /// availability); the rest hold NaN, which no read lane may see.
    fn lanes_of(hours: &[(f64, f64, f64, f64)]) -> Lanes {
        let mut lanes = Lanes {
            demand: [f64::NAN; BLOCK],
            wind: [f64::NAN; BLOCK],
            solar: [f64::NAN; BLOCK],
            nuclear_availability: [f64::NAN; BLOCK],
        };
        for (i, &(d, w, s, a)) in hours.iter().enumerate() {
            lanes.demand[i] = d;
            lanes.wind[i] = w;
            lanes.solar[i] = s;
            lanes.nuclear_availability[i] = a;
        }
        lanes
    }

    /// The first lane whose block value differs from the scalar path's
    /// in any bit, with both values.
    fn first_difference(
        op: OperatorId,
        hours: &[(f64, f64, f64, f64)],
    ) -> Option<(usize, f64, f64)> {
        let params = op.params();
        let lanes = lanes_of(hours);
        let block = dispatch_block(&params, params.import_intensity.as_g_per_kwh(), &lanes);
        (0..hours.len())
            .map(|i| (i, block[i], scalar(&params, &lanes, i)))
            .find(|(_, b, s)| b.to_bits() != s.to_bits())
    }

    /// Hours that reach every branch of the scalar dispatch in `op`:
    /// over-supply with and without VRE, demand below must-run, a
    /// residual exactly the first rung's capacity, imports, and an
    /// over-supplied hour whose residual still rounds above 0.
    fn edge_hours(op: OperatorId) -> Vec<(f64, f64, f64, f64)> {
        let params = op.params();
        let must_run = params.nuclear * 1.0 + params.hydro_ror + params.biomass;
        let first = params.merit[0].capacity;
        // `x = demand - must_run` within [first, 2 × first] makes
        // `x - first` exact (Sterbenz), so VRE of that much leaves a
        // residual of exactly `first`.
        let demand = must_run + 1.5 * first;
        let vre = (demand - must_run) - first;
        let all_rungs: f64 = params.merit.iter().map(|e| e.capacity).sum();
        // A sum `must_run + vre` that rounds up to the demand: the hour
        // is over-supplied, yet `(demand - must_run) - vre` is above 0.
        let rounds_up = (1..1_000)
            .map(|k| must_run * f64::from(k) / 1_000.0)
            .find(|&vre| must_run + vre - must_run - vre > 0.0)
            .expect("some VRE rounds the sum up");
        let hours = vec![
            (must_run * 0.5, 0.0, 0.0, 1.0),
            (must_run, 0.0, 0.0, 1.0),
            (must_run * 0.9, 0.3, 0.2, 1.0),
            (0.05, 0.5, 0.0, 0.75),
            (must_run + 0.1, 0.2, 0.0, 1.0),
            (demand, vre, 0.0, 1.0),
            (demand, 0.0, vre, 1.0),
            (must_run + all_rungs + 0.4, 0.01, 0.0, 0.8),
            (3.0, 0.0, 0.0, 0.5),
            (must_run + rounds_up, rounds_up, 0.0, 1.0),
        ];
        // The rung edge really is one: not over-supplied, residual exactly
        // the first rung's capacity.
        assert!(must_run + vre < demand);
        assert_eq!((demand - must_run - vre).to_bits(), first.to_bits());
        let (demand, vre) = (hours[9].0, hours[9].1);
        assert!(must_run + vre >= demand && demand - must_run - vre > 0.0);
        hours
    }

    #[test]
    fn edge_hours_match_the_scalar_dispatch() {
        for op in OperatorId::ALL {
            let edges = edge_hours(op);
            assert_eq!(first_difference(op, &edges), None, "{op:?}");
            // Partial blocks: one lane, and 63 with the edges last.
            assert_eq!(first_difference(op, &edges[5..6]), None, "{op:?}");
            let mut partial = vec![(1.0, 0.2, 0.1, 0.9); BLOCK - 1 - edges.len()];
            partial.extend(&edges);
            assert_eq!(first_difference(op, &partial), None, "{op:?}");
        }
    }

    #[test]
    fn a_rung_that_takes_the_whole_residual_leaves_the_next_untouched() {
        for op in OperatorId::ALL {
            let params = op.params();
            let edges = edge_hours(op);
            let mix = dispatch(&params, edges[5].0, edges[5].1, edges[5].2, edges[5].3);
            // What a fuel holds before the merit order: its must-run
            // output at full availability.
            let must_run = |fuel| match fuel {
                Fuel::Nuclear => params.nuclear,
                Fuel::Hydro => params.hydro_ror,
                Fuel::Biomass => params.biomass,
                _ => 0.0,
            };
            let (first, next) = (params.merit[0], params.merit[1]);
            assert_eq!(
                mix.get(first.fuel),
                must_run(first.fuel) + first.capacity,
                "{op:?}"
            );
            assert_eq!(mix.get(next.fuel), must_run(next.fuel), "{op:?}");
            assert_eq!(mix.get(Fuel::Imports), 0.0, "{op:?}");
        }
    }

    fn any_operator() -> impl Strategy<Value = OperatorId> {
        (0..OperatorId::ALL.len()).prop_map(|i| OperatorId::ALL[i])
    }

    fn any_hour() -> impl Strategy<Value = (f64, f64, f64, f64)> {
        (0.0..2.5f64, 0.0..1.2f64, 0.0..1.0f64, 0.7..1.05f64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random hours in random-length blocks, mixed with the edges,
        /// dispatch bit for bit as the scalar path does.
        #[test]
        fn dispatch_block_matches_the_scalar_dispatch(
            op in any_operator(),
            hours in proptest::collection::vec(any_hour(), 1..BLOCK + 1),
            edge_at in 0usize..BLOCK,
        ) {
            let mut hours = hours;
            let edges = edge_hours(op);
            let at = edge_at % hours.len();
            hours[at] = edges[edge_at % edges.len()];
            prop_assert_eq!(first_difference(op, &hours), None);
        }
    }
}

#[cfg(test)]
mod memo_tests {
    use super::tests::memo_lock;
    use super::*;
    use hpcarbon_sim::store::StoreCounters;

    /// Looks the table of `(operator, year)` up through the memo, the way
    /// [`simulate_year`] does.
    fn look_up(operator: OperatorId, year: i32) -> Option<Arc<[f64]>> {
        clear_sky(operator, year, &operator.params())
    }

    /// What the memo did between `before` and now, as (hits, builds).
    fn since(before: StoreCounters) -> (u64, u64) {
        let now = CLEAR_SKY.counters();
        (now.hits - before.hits, now.builds - before.builds)
    }

    // Each test uses years no other test in this crate asks for, so the
    // memo's earlier state cannot hold them.

    #[test]
    fn a_first_sight_keeps_no_table_and_a_second_keeps_one() {
        let _memo = memo_lock();
        let key = (OperatorId::Kansai, 1931);
        let before = CLEAR_SKY.counters();
        assert!(
            look_up(key.0, key.1).is_none(),
            "a first sight gets no table"
        );
        assert_eq!(since(before), (0, 1));
        assert_eq!(
            CLEAR_SKY.counters().entries,
            before.entries,
            "a first sight keeps nothing"
        );
        let second = look_up(key.0, key.1).expect("the second sight builds the table");
        assert_eq!(since(before), (0, 2), "the second sight builds and keeps");
        let third = look_up(key.0, key.1).expect("the third sight reads the table");
        assert_eq!(
            since(before),
            (1, 2),
            "the third sight reads the kept table"
        );
        assert!(Arc::ptr_eq(&second, &third));
        assert_eq!(second[..], clear_sky_table(&key.0.params(), key.1)[..]);
    }

    #[test]
    fn a_sweep_shaped_pass_keeps_nothing() {
        let _memo = memo_lock();
        let before = CLEAR_SKY.counters();
        for op in OperatorId::ALL {
            simulate_year(op, 1932, 17);
        }
        assert_eq!(since(before), (0, 7));
        assert_eq!(CLEAR_SKY.counters().entries, before.entries);
        // A second pass builds again: the first kept no table.
        for op in OperatorId::ALL {
            look_up(op, 1932);
        }
        assert_eq!(since(before), (0, 14));
    }

    #[test]
    fn the_seventeenth_region_year_evicts_the_least_recently_used() {
        let _memo = memo_lock();
        let keys: Vec<(OperatorId, i32)> = (1940..1957).map(|y| (OperatorId::Eso, y)).collect();
        assert_eq!(keys.len(), CLEAR_SKY_CAPACITY + 1);
        for &(op, year) in &keys[..CLEAR_SKY_CAPACITY] {
            look_up(op, year);
            look_up(op, year);
        }
        assert_eq!(CLEAR_SKY.counters().entries, CLEAR_SKY_CAPACITY);
        // Touch the oldest, so the second oldest is the least recently
        // used; then admit the seventeenth.
        let before = CLEAR_SKY.counters();
        look_up(keys[0].0, keys[0].1);
        assert_eq!(since(before), (1, 0));
        let last = keys[CLEAR_SKY_CAPACITY];
        look_up(last.0, last.1);
        look_up(last.0, last.1);
        assert_eq!(CLEAR_SKY.counters().entries, CLEAR_SKY_CAPACITY);
        let before = CLEAR_SKY.counters();
        for &(op, year) in [keys[0], last].iter().chain(&keys[2..CLEAR_SKY_CAPACITY]) {
            look_up(op, year);
        }
        assert_eq!(
            since(before),
            (CLEAR_SKY_CAPACITY as u64, 0),
            "every other key is held"
        );
        look_up(keys[1].0, keys[1].1);
        assert_eq!(
            since(before),
            (CLEAR_SKY_CAPACITY as u64, 1),
            "the least recently used was evicted"
        );
    }

    #[test]
    fn racing_threads_on_a_fresh_region_year_build_identical_traces() {
        let _memo = memo_lock();
        let (op, year, seed) = (OperatorId::Ciso, 1960, 23);
        let reference = simulate_year_per_day(op, year, seed);
        let start = std::sync::Barrier::new(8);
        let traces: Vec<IntensityTrace> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        simulate_year(op, year, seed)
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().expect("a racing simulation panicked"))
                .collect()
        });
        let bits = |t: &IntensityTrace| -> Vec<u64> {
            t.series().values().iter().map(|v| v.to_bits()).collect()
        };
        for trace in &traces {
            assert_eq!(bits(trace), bits(&reference));
        }
        let before = CLEAR_SKY.counters();
        look_up(op, year);
        assert_eq!(since(before), (1, 0), "the race left one table held");
    }
}
