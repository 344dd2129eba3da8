//! Pinned bits of whole grid years.
//!
//! `prop_grid.rs` holds the per-local-day walk to the per-hour reference,
//! but both step the same buffered Ornstein–Uhlenbeck draws, so a change
//! to the draws moves both sides together. These digests pin the values
//! themselves: an FNV-1a 64 over every hour's `f64::to_bits`, little
//! endian, in hour order. A changed sampler, draw order, shaping term or
//! dispatch sum fails here even when the two walks still agree.

use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::sim::simulate_year;
use hpcarbon_grid::synth::synthesize_year;
use hpcarbon_grid::trace::IntensityTrace;
use hpcarbon_sim::rng::{fnv1a64, fnv1a64_update};

fn digest(trace: &IntensityTrace) -> u64 {
    trace
        .series()
        .values()
        .iter()
        .fold(fnv1a64(b""), |state, v| {
            fnv1a64_update(state, &v.to_bits().to_le_bytes())
        })
}

/// `simulate_year(operator, year, seed)` digests for every region, a leap
/// and a common year, and seeds 0, 7 and `u64::MAX`.
#[rustfmt::skip]
const SIMULATED: [(OperatorId, i32, u64, u64); 42] = [
    (OperatorId::Kansai, 2020, 0, 0x7c92_92be_5f10_c1e8),
    (OperatorId::Kansai, 2020, 7, 0xdc70_229e_bddb_a38c),
    (OperatorId::Kansai, 2020, u64::MAX, 0xa387_eac4_b126_dc87),
    (OperatorId::Kansai, 2021, 0, 0xc015_a528_3b6d_2dd5),
    (OperatorId::Kansai, 2021, 7, 0xe238_00fc_0e00_9898),
    (OperatorId::Kansai, 2021, u64::MAX, 0xb7a3_c0fd_6172_1cb0),
    (OperatorId::Tokyo, 2020, 0, 0x5997_e3f7_3234_2523),
    (OperatorId::Tokyo, 2020, 7, 0x854c_dec0_b81d_1270),
    (OperatorId::Tokyo, 2020, u64::MAX, 0xc91a_3dd0_2ab5_4cfd),
    (OperatorId::Tokyo, 2021, 0, 0x78c4_21e2_db3e_eaae),
    (OperatorId::Tokyo, 2021, 7, 0xbeac_407f_61cb_af60),
    (OperatorId::Tokyo, 2021, u64::MAX, 0x1755_b705_974b_ef89),
    (OperatorId::Eso, 2020, 0, 0xf91c_f763_348a_01ba),
    (OperatorId::Eso, 2020, 7, 0x09c0_c5d5_f970_4dc5),
    (OperatorId::Eso, 2020, u64::MAX, 0x4855_36e3_2859_3294),
    (OperatorId::Eso, 2021, 0, 0x0f82_18a6_64fd_8061),
    (OperatorId::Eso, 2021, 7, 0x91e0_6425_6b25_b2b1),
    (OperatorId::Eso, 2021, u64::MAX, 0x7009_9730_e94c_463e),
    (OperatorId::Ciso, 2020, 0, 0x520c_934a_15c3_da03),
    (OperatorId::Ciso, 2020, 7, 0xab1f_2d71_6f3b_3620),
    (OperatorId::Ciso, 2020, u64::MAX, 0xcb43_b40a_f6f5_6f98),
    (OperatorId::Ciso, 2021, 0, 0x1a67_34cc_20fd_028f),
    (OperatorId::Ciso, 2021, 7, 0x9d93_7ae9_2250_5712),
    (OperatorId::Ciso, 2021, u64::MAX, 0xe246_094a_4881_ca62),
    (OperatorId::Pjm, 2020, 0, 0x2264_c891_a2e3_3693),
    (OperatorId::Pjm, 2020, 7, 0xed44_e0d8_9038_83fa),
    (OperatorId::Pjm, 2020, u64::MAX, 0xaa4e_8bf7_67d4_a428),
    (OperatorId::Pjm, 2021, 0, 0x843b_ad79_34ae_108f),
    (OperatorId::Pjm, 2021, 7, 0x2786_de25_5081_6e63),
    (OperatorId::Pjm, 2021, u64::MAX, 0xf151_1c5d_179b_2c03),
    (OperatorId::Miso, 2020, 0, 0x3ac3_6353_85a5_712d),
    (OperatorId::Miso, 2020, 7, 0xf237_12f9_e4f8_0df8),
    (OperatorId::Miso, 2020, u64::MAX, 0x6e24_e5cd_b9f5_9dc0),
    (OperatorId::Miso, 2021, 0, 0xf7cf_f01d_dea5_bd5f),
    (OperatorId::Miso, 2021, 7, 0xb4a6_1e57_9eef_5fc0),
    (OperatorId::Miso, 2021, u64::MAX, 0x5432_221b_0c96_285f),
    (OperatorId::Ercot, 2020, 0, 0x059b_ae8a_c2fb_7697),
    (OperatorId::Ercot, 2020, 7, 0x3889_00f6_6e6a_167a),
    (OperatorId::Ercot, 2020, u64::MAX, 0x0432_0430_ec11_ec96),
    (OperatorId::Ercot, 2021, 0, 0xa49f_0447_0186_58d5),
    (OperatorId::Ercot, 2021, 7, 0x1d17_94b2_54ce_0a02),
    (OperatorId::Ercot, 2021, u64::MAX, 0xa53d_94e3_d8e8_acdc),
];

/// `synthesize_year(operator, year, 7)` digests for every region, a leap
/// and a common year.
#[rustfmt::skip]
const SYNTHESIZED: [(OperatorId, i32, u64); 14] = [
    (OperatorId::Kansai, 2020, 0x304d_ea3a_2468_123c),
    (OperatorId::Kansai, 2021, 0x39b7_1f4c_f32f_c0e7),
    (OperatorId::Tokyo, 2020, 0x0a58_f1a6_1bee_e67c),
    (OperatorId::Tokyo, 2021, 0xe358_12db_1057_1b63),
    (OperatorId::Eso, 2020, 0x5b81_7ff9_1086_981e),
    (OperatorId::Eso, 2021, 0xa3c3_8fae_c6d1_5080),
    (OperatorId::Ciso, 2020, 0x7374_8915_340d_f158),
    (OperatorId::Ciso, 2021, 0x20d9_69b4_8152_6b37),
    (OperatorId::Pjm, 2020, 0xbc1b_3dad_5f68_ed4d),
    (OperatorId::Pjm, 2021, 0x08f9_8e27_0f74_5aaf),
    (OperatorId::Miso, 2020, 0x51a6_bc4a_3d09_813e),
    (OperatorId::Miso, 2021, 0xc5e9_e03f_7499_8037),
    (OperatorId::Ercot, 2020, 0xc97d_2413_8046_9168),
    (OperatorId::Ercot, 2021, 0xa78f_df80_c04a_f24b),
];

#[test]
fn simulated_years_keep_their_bits() {
    for (operator, year, seed, expected) in SIMULATED {
        let got = digest(&simulate_year(operator, year, seed));
        assert_eq!(
            got, expected,
            "simulate_year({operator:?}, {year}, {seed}): {got:#018x}"
        );
    }
}

#[test]
fn synthesized_years_keep_their_bits() {
    for (operator, year, expected) in SYNTHESIZED {
        let got = digest(&synthesize_year(operator, year, 7));
        assert_eq!(
            got, expected,
            "synthesize_year({operator:?}, {year}, 7): {got:#018x}"
        );
    }
}
