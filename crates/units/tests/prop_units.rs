//! Property-based tests for the quantity algebra.

use hpcarbon_units::*;
use proptest::prelude::*;

fn finite_pos() -> impl Strategy<Value = f64> {
    // Positive magnitudes in a range wide enough to exercise conversions
    // without hitting float saturation.
    1e-6..1e12f64
}

proptest! {
    #[test]
    fn carbon_mass_conversion_roundtrips(g in finite_pos()) {
        let m = CarbonMass::from_g(g);
        prop_assert!((m.as_kg() * 1e3 - g).abs() <= g * 1e-12);
        prop_assert!((m.as_t() * 1e6 - g).abs() <= g * 1e-12);
    }

    #[test]
    fn energy_conversion_roundtrips(kwh in finite_pos()) {
        let e = Energy::from_kwh(kwh);
        prop_assert!((e.as_mwh() * 1e3 - kwh).abs() <= kwh * 1e-12);
        prop_assert!((Energy::from_wh(e.as_wh()).as_kwh() - kwh).abs() <= kwh * 1e-12);
    }

    #[test]
    fn addition_commutes(a in finite_pos(), b in finite_pos()) {
        let x = CarbonMass::from_g(a);
        let y = CarbonMass::from_g(b);
        prop_assert_eq!((x + y).as_g(), (y + x).as_g());
    }

    #[test]
    fn eq6_is_linear_in_energy(i in 1.0..1000.0f64, e in finite_pos(), k in 1e-3..1e3f64) {
        let intensity = CarbonIntensity::from_g_per_kwh(i);
        let energy = Energy::from_kwh(e);
        let scaled = intensity * (energy * k);
        let direct = (intensity * energy) * k;
        let rel = (scaled.as_g() - direct.as_g()).abs() / direct.as_g().max(1e-30);
        prop_assert!(rel < 1e-12);
    }

    #[test]
    fn power_time_division_inverts(w in 1.0..1e7f64, h in 1e-3..1e6f64) {
        let p = Power::from_w(w);
        let t = TimeSpan::from_hours(h);
        let e = p * t;
        prop_assert!(((e / t).as_w() - w).abs() <= w * 1e-9);
        prop_assert!(((e / p).as_hours() - h).abs() <= h * 1e-9);
    }

    #[test]
    fn ratio_of_equal_quantities_is_one(v in finite_pos()) {
        let a = Energy::from_kwh(v);
        prop_assert!((a / a - 1.0).abs() < 1e-12);
    }

    #[test]
    fn area_density_linear_in_area(d in 1.0..1e5f64, mm2 in 1.0..1e5f64) {
        let dens = CarbonAreaDensity::from_g_per_cm2(d);
        let one = dens * SiliconArea::from_mm2(mm2);
        let double = dens * SiliconArea::from_mm2(2.0 * mm2);
        prop_assert!((double.as_g() - 2.0 * one.as_g()).abs() <= one.as_g() * 1e-9);
    }

    #[test]
    fn fraction_saturating_is_identity_inside_range(v in 0.0..=1.0f64) {
        prop_assert_eq!(Fraction::saturating(v).value(), v);
    }
}
