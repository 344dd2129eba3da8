//! The block walk against the per-day walk it replaced: `simulate_year`
//! (64-hour blocks, lane-wise dispatch, memoized clear-sky tables) must
//! equal `simulate_year_per_day` bit for bit for any region, year and
//! seed.

use hpcarbon_grid::regions::OperatorId;
use hpcarbon_grid::sim::{simulate_year, simulate_year_per_day};
use hpcarbon_grid::trace::IntensityTrace;
use proptest::prelude::*;

fn any_operator() -> impl Strategy<Value = OperatorId> {
    (0..OperatorId::ALL.len()).prop_map(|i| OperatorId::ALL[i])
}

/// Seeds for the bit-identity property, edge values included.
fn any_seed() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64 << 52),
        Just(31337u64),
        Just(u64::MAX),
        0u64..=u64::MAX,
    ]
}

fn bits(trace: &IntensityTrace) -> Vec<u64> {
    trace
        .series()
        .values()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every region's zone, leap and common years across two centuries:
    /// the first sight of a region-year computes its clear-sky terms in
    /// the walk, the second builds and keeps its table, and both traces
    /// equal the per-day walk's.
    #[test]
    fn block_walk_matches_the_per_day_walk_bit_for_bit(
        op in any_operator(),
        year in 1900i32..=2100,
        seed in any_seed(),
    ) {
        let reference = bits(&simulate_year_per_day(op, year, seed));
        for _ in 0..2 {
            let block = bits(&simulate_year(op, year, seed));
            prop_assert_eq!(block.len(), reference.len());
            let first_difference = block.iter().zip(&reference).position(|(x, y)| x != y);
            prop_assert_eq!(first_difference, None);
        }
    }
}

/// The sequence above, pinned for every region on the leap and common
/// years the digests cover, under the edge seeds; the third call reads
/// the kept table.
#[test]
fn block_walk_matches_the_per_day_walk_on_the_digest_years() {
    for op in OperatorId::ALL {
        for year in [2020, 2021] {
            for seed in [0, 1 << 52, 31337, u64::MAX] {
                let reference = bits(&simulate_year_per_day(op, year, seed));
                for _ in 0..3 {
                    assert_eq!(
                        bits(&simulate_year(op, year, seed)),
                        reference,
                        "{op:?} {year} {seed}"
                    );
                }
            }
        }
    }
}
