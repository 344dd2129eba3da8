//! Golden byte contract of the sweep emitters.
//!
//! The streaming engine's promise is that the API redesign changed **no
//! output byte**: CSV and JSON documents are frozen across the
//! buffered→streaming rewrite, across thread counts, and across shard
//! splits. These tests pin that contract two ways:
//!
//! - the quick grid's full documents against committed fixtures
//!   (`tests/fixtures/sweep_quick.{csv,json}`), byte for byte;
//! - all three named grids against FNV-1a 64 digests + lengths recorded
//!   from the pre-streaming executor at [`SweepConfig::fast`].
//!
//! If an intentional format change ever lands, regenerate the fixtures
//! and digests together and say so in the changelog.

use sustainable_hpc::prelude::*;
use sustainable_hpc::sweep::fnv1a64;

/// Streams `grid` over `threads` workers and returns the full (csv,
/// json) documents.
fn documents(grid: &ScenarioGrid, threads: usize) -> (Vec<u8>, Vec<u8>) {
    let mut csv = CsvSink::new(Vec::new());
    let mut json = JsonSink::new(Vec::new());
    Sweep::over(grid)
        .config(SweepConfig::fast())
        .threads(threads)
        .sink(&mut csv)
        .sink(&mut json)
        .run()
        .expect("in-memory sweep cannot fail");
    (csv.into_inner(), json.into_inner())
}

#[test]
fn quick_grid_reproduces_the_committed_fixtures() {
    let (csv, json) = documents(&ScenarioGrid::quick(), 1);
    assert_eq!(
        csv,
        include_bytes!("fixtures/sweep_quick.csv"),
        "sweep.csv drifted from tests/fixtures/sweep_quick.csv"
    );
    assert_eq!(
        json,
        include_bytes!("fixtures/sweep_quick.json"),
        "sweep.json drifted from tests/fixtures/sweep_quick.json"
    );
}

#[test]
fn all_named_grids_match_their_recorded_digests() {
    // (grid, csv bytes, csv fnv64, json bytes, json fnv64) — recorded
    // from the pre-streaming SweepExecutor at SweepConfig::fast().
    let golden: [(&str, ScenarioGrid, usize, u64, usize, u64); 3] = [
        (
            "default",
            ScenarioGrid::paper_default(),
            95050,
            0xa75b_26b8_69a4_2a88,
            281_635,
            0x1fa8_2ec8_6a07_6055,
        ),
        (
            "quick",
            ScenarioGrid::quick(),
            3266,
            0xfc89_e060_b2a2_0830,
            8859,
            0x748d_484b_7abe_ca05,
        ),
        (
            "shifting",
            ScenarioGrid::shifting(),
            3997,
            0x4339_7d86_d907_0b28,
            11046,
            0x34d6_9b5d_9618_ec0d,
        ),
    ];
    // At 2 and 3 threads the 504-row default grid spans several blocks
    // of rows, the last one partial.
    for (name, grid, csv_len, csv_fnv, json_len, json_fnv) in golden {
        for threads in [1, 2, 3] {
            let (csv, json) = documents(&grid, threads);
            let at = format!("{name} at {threads} threads");
            assert_eq!(csv.len(), csv_len, "{at}: csv length");
            assert_eq!(fnv1a64(&csv), csv_fnv, "{at}: csv digest");
            assert_eq!(json.len(), json_len, "{at}: json length");
            assert_eq!(fnv1a64(&json), json_fnv, "{at}: json digest");
        }
    }
}

#[test]
fn report_digests_agree_with_the_emitted_bytes() {
    let grid = ScenarioGrid::quick();
    let mut csv = CsvSink::new(Vec::new());
    let mut json = JsonSink::new(Vec::new());
    let report = Sweep::over(&grid)
        .config(SweepConfig::fast())
        .sink(&mut csv)
        .sink(&mut json)
        .run()
        .unwrap();
    let (csv, json) = (csv.into_inner(), json.into_inner());
    assert_eq!(report.digests.len(), 2);
    assert_eq!(report.digests[0].bytes, csv.len() as u64);
    assert_eq!(report.digests[0].fnv64, fnv1a64(&csv));
    assert_eq!(report.digests[1].bytes, json.len() as u64);
    assert_eq!(report.digests[1].fnv64, fnv1a64(&json));
}
