//! The in-buffer JSON emitters against their oracles: `write_metric`
//! against std's `format!("{v:.4}")`, and `esc_into` against `esc` and
//! the parser.

use hpcarbon_api::json::{esc, esc_into, fmt_metric, parse, write_metric, Json};
use proptest::prelude::*;

/// Asserts that `write_metric` appends exactly std's `{:.4}` bytes for
/// `v` and `-v`.
fn assert_std(v: f64) {
    for v in [v, -v] {
        let mut out = String::from("|");
        write_metric(&mut out, Some(v));
        assert_eq!(out[1..], format!("{v:.4}"), "bits {:#018x}", v.to_bits());
    }
}

fn next_up(v: f64) -> f64 {
    f64::from_bits(v.to_bits() + 1)
}

fn next_down(v: f64) -> f64 {
    f64::from_bits(v.to_bits() - 1)
}

#[test]
fn special_values_and_none_match_std() {
    let specials = [
        0.0,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        f64::NAN,
        f64::INFINITY,
        9.0e14,
        next_down(9.0e14),
        next_up(9.0e14),
        f64::MAX,
        1e300,
        1e-5,
        0.00005,
        0.99995,
        1.23456,
        123_456.789_05,
    ];
    for v in specials {
        assert_std(v);
    }
    // std prints the sign of a negative zero and of a negative value
    // that rounds to zero; the writer must too.
    assert_eq!(fmt_metric(Some(-0.0)), "-0.0000");
    assert_eq!(fmt_metric(Some(-1e-5)), "-0.0000");
    let mut out = String::from("|");
    write_metric(&mut out, None);
    assert_eq!(out, "|null");
}

/// Every `±k/2^j` with `j ≤ 20` and `k < 20,000`: the dyadic values,
/// whose `j = 5`, odd-`k` members are exact four-decimal ties that
/// std rounds half to even.
#[test]
fn dyadic_values_and_exact_ties_match_std() {
    for j in 0..=20 {
        let scale = f64::from(1u32 << j);
        for k in 0..20_000u32 {
            assert_std(f64::from(k) / scale);
        }
    }
    assert_eq!(fmt_metric(Some(1.0 / 32.0)), "0.0312");
    assert_eq!(fmt_metric(Some(3.0 / 32.0)), "0.0938");
}

/// One ulp either side of (the double nearest to) each four-decimal
/// midpoint `(n + ½)·10⁻⁴` for small `n`.
#[test]
fn neighbours_of_small_midpoints_match_std() {
    for n in 0..20_000u32 {
        let mid = (f64::from(n) + 0.5) / 1e4;
        for v in [next_down(mid), mid, next_up(mid)] {
            assert_std(v);
        }
    }
}

fn any_string() -> impl Strategy<Value = String> {
    let alphabet = [
        'a', 'Z', '0', ' ', ',', '/', '"', '\\', '\n', '\r', '\t', '\u{7f}', 'é', '→', '😀',
    ];
    let char_strategy = prop_oneof![
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        (0usize..alphabet.len()).prop_map(move |i| alphabet[i]),
    ];
    proptest::collection::vec(char_strategy, 0..40).prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// Arbitrary bit patterns: NaNs, infinities, subnormals, huge and
    /// tiny magnitudes, both signs.
    #[test]
    fn arbitrary_bits_match_std(bits in 0..=u64::MAX) {
        assert_std(f64::from_bits(bits));
    }

    /// Magnitudes `2^-40 .. 2^40` with arbitrary mantissas.
    #[test]
    fn mid_range_magnitudes_match_std(mantissa in 0..(1u64 << 52), exp in -40i64..40) {
        let bits = ((1023 + exp) as u64) << 52 | mantissa;
        assert_std(f64::from_bits(bits));
    }

    /// Exact ties at every magnitude the fast path takes: odd multiples
    /// of 1/32 up to 2^47.
    #[test]
    fn exact_ties_at_any_magnitude_match_std(n in 0..(1u64 << 52)) {
        assert_std((2 * n + 1) as f64 / 32.0);
    }

    /// One ulp either side of four-decimal midpoints across the fast
    /// path's whole range.
    #[test]
    fn neighbours_of_midpoints_match_std(
        n in prop_oneof![0..(1u64 << 40), 0..9_000_000_000_000_000_000u64],
    ) {
        let mid = (n as f64 + 0.5) / 1e4;
        if mid > 0.0 {
            for v in [next_down(mid), mid, next_up(mid)] {
                assert_std(v);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// `esc_into` appends exactly `esc`'s bytes, and the parser reads
    /// them back as the original string: control characters, quotes,
    /// backslashes and multibyte scalars included.
    #[test]
    fn esc_into_appends_esc_and_round_trips(s in any_string()) {
        let mut out = String::from("[");
        esc_into(&mut out, &s);
        let whole = esc(&s);
        prop_assert_eq!(&out[1..], whole.as_str());
        prop_assert!(!out.chars().any(|c| u32::from(c) < 0x20));
        prop_assert_eq!(parse(&out[1..]).ok(), Some(Json::Str(s)));
    }
}
