//! Property tests for the grid simulator: invariants that must hold for
//! any seed and any region.

use hpcarbon_grid::forecast::noisy_oracle_forecast;
use hpcarbon_grid::fuel::{Fuel, GenerationMix};
use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::sim::{simulate_year, simulate_year_per_hour};
use hpcarbon_timeseries::datetime::TimeZone;
use hpcarbon_units::CarbonIntensity;
use proptest::prelude::*;

fn any_operator() -> impl Strategy<Value = OperatorId> {
    prop_oneof![
        Just(OperatorId::Kansai),
        Just(OperatorId::Tokyo),
        Just(OperatorId::Eso),
        Just(OperatorId::Ciso),
        Just(OperatorId::Pjm),
        Just(OperatorId::Miso),
        Just(OperatorId::Ercot),
    ]
}

/// Seeds for the bit-identity properties, edge values included.
fn any_seed() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), 0u64..=u64::MAX]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The per-local-day walk reproduces the per-hour reference bit for
    /// bit, across every region's zone and leap and non-leap years.
    #[test]
    fn simulate_year_matches_per_hour_bits(
        op in any_operator(),
        year in 1900i32..=2100,
        seed in any_seed(),
    ) {
        let fast = simulate_year(op, year, seed);
        let reference = simulate_year_per_hour(op, year, seed);
        let (fast, reference) = (fast.series().values(), reference.series().values());
        prop_assert_eq!(fast.len(), reference.len());
        let first_difference = fast
            .iter()
            .zip(reference)
            .position(|(x, y)| x.to_bits() != y.to_bits());
        prop_assert_eq!(first_difference, None);
    }

    /// Every simulated hour is physically bounded by the fuel palette.
    #[test]
    fn intensity_physically_bounded(op in any_operator(), seed in 0u64..200) {
        let t = simulate_year(op, 2021, seed);
        let min = t.series().min();
        let max = t.series().max();
        prop_assert!(min >= Fuel::Wind.emission_factor().as_g_per_kwh() - 1e-9);
        prop_assert!(max <= Fuel::Coal.emission_factor().as_g_per_kwh() + 1e-9);
    }

    /// Simulation is a pure function of (operator, year, seed).
    #[test]
    fn deterministic(op in any_operator(), seed in 0u64..100) {
        let a = simulate_year(op, 2021, seed);
        let b = simulate_year(op, 2021, seed);
        prop_assert_eq!(a.series().values(), b.series().values());
    }

    /// Annual ordering invariants survive any seed: Japan dirtier than GB,
    /// MISO dirtier than ESO.
    #[test]
    fn robust_orderings(seed in 0u64..50) {
        let eso = simulate_year(OperatorId::Eso, 2021, seed).mean().as_g_per_kwh();
        let tk = simulate_year(OperatorId::Tokyo, 2021, seed).mean().as_g_per_kwh();
        let miso = simulate_year(OperatorId::Miso, 2021, seed).mean().as_g_per_kwh();
        prop_assert!(tk > eso * 1.8, "tk {tk} vs eso {eso}");
        prop_assert!(miso > eso * 1.8, "miso {miso} vs eso {eso}");
    }

    /// Hourly profiles viewed from any timezone preserve the annual mean.
    #[test]
    fn profile_mean_is_zone_invariant(seed in 0u64..30, off in -12i8..=14i8) {
        let t = simulate_year(OperatorId::Ercot, 2021, seed);
        let tz = TimeZone::fixed(off, "TST");
        let profile = t.hourly_profile(tz);
        let profile_mean: f64 = profile.iter().sum::<f64>() / 24.0;
        // Hour buckets have equal sizes (8760/24), so the bucket-mean of
        // means equals the global mean.
        prop_assert!((profile_mean - t.series().mean()).abs() < 1e-6);
    }

    /// The greenest window is never worse than starting immediately.
    #[test]
    fn greenest_window_dominates_now(
        seed in 0u64..30,
        start in 0u32..8000,
        horizon in 0u32..72,
        n in 1u32..24,
    ) {
        let t = simulate_year(OperatorId::Eso, 2021, seed);
        let best = t.greenest_window(start, horizon, n);
        let mean_at = |s: u32| {
            let vals = &t.series().values()[s as usize..(s + n).min(8760) as usize];
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        if start + n <= 8760 && best + n <= 8760 {
            prop_assert!(mean_at(best) <= mean_at(start) + 1e-9);
        }
        prop_assert!(best >= start);
        prop_assert!(best <= start + horizon);
    }

    /// The noisy-oracle forecast (`noisy:<pct>`) is unbiased: over a
    /// year, the mean relative error `(f − a)/a` stays within σ/20, about
    /// 4.7 standard errors of an 8,760-hour mean of `σ·z`. Clamping at
    /// zero lifts it by under 0.01σ at 50%.
    #[test]
    fn noisy_forecast_errors_center_on_zero(
        op in any_operator(),
        seed in any_seed(),
        error_pct in 5u32..=50,
    ) {
        let actual = simulate_year(op, 2021, seed);
        let forecast = noisy_oracle_forecast(&actual, error_pct, seed);
        let (a, f) = (actual.series().values(), forecast.series().values());
        let bias = a.iter().zip(f).map(|(a, f)| (f - a) / a).sum::<f64>() / a.len() as f64;
        let sigma = f64::from(error_pct) / 100.0;
        prop_assert!(bias.abs() <= sigma / 20.0, "bias {bias} at sigma {sigma}");
    }

    /// Generation mixes always yield intensities inside the convex hull of
    /// their fuels.
    #[test]
    fn mix_intensity_convex(
        coal in 0.0..2.0f64,
        gas in 0.0..2.0f64,
        wind in 0.0..2.0f64,
        nuclear in 0.0..2.0f64,
    ) {
        prop_assume!(coal + gas + wind + nuclear > 0.0);
        let mut m = GenerationMix::new();
        m.add(Fuel::Coal, coal);
        m.add(Fuel::Gas, gas);
        m.add(Fuel::Wind, wind);
        m.add(Fuel::Nuclear, nuclear);
        let i = m.intensity(CarbonIntensity::from_g_per_kwh(450.0)).as_g_per_kwh();
        prop_assert!(i >= Fuel::Wind.emission_factor().as_g_per_kwh() - 1e-9);
        prop_assert!(i <= Fuel::Coal.emission_factor().as_g_per_kwh() + 1e-9);
    }
}
