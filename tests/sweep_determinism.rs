//! Workspace-level guarantees of the streaming sweep engine:
//! byte-identical output for any thread count AND any shard split, soft
//! failure of infeasible grid points, shard manifest round-trips through
//! `--merge`, the default grid's ≥500-scenario coverage, and a CLI that
//! refuses a `--threads` or `--seeds` value it cannot honour.

use sustainable_hpc::prelude::*;
use sustainable_hpc::sweep::scenario::StorageVariant;
use sustainable_hpc::sweep::{
    grid_fingerprint, merge_sweep_outputs, OutputDigest, ShardManifest, ShardSpec,
};

/// A grid that keeps every layer in play (storage what-ifs included, so it
/// contains infeasible points) while staying test-sized: 2 x 2 x 2 x 1 x
/// 2 x 1 x 2 = 32 scenarios.
fn mixed_grid() -> ScenarioGrid {
    let full = ScenarioGrid::paper_default();
    full.clone()
        .systems([
            sustainable_hpc::sweep::scenario::SystemId::Frontier,
            sustainable_hpc::sweep::scenario::SystemId::Perlmutter,
        ])
        .storage(StorageVariant::ALL)
        .regions([OperatorId::Eso, OperatorId::Ciso])
        .pues([full.pues[1]])
        .policies([full.policies[0], full.policies[1]])
        .upgrades([full.upgrades[0]])
        .seeds([2021, 7])
}

/// Streams `grid` at `threads`, returning the report and full documents.
fn run_full(grid: &ScenarioGrid, threads: usize) -> (SweepReport, Vec<u8>, Vec<u8>) {
    let mut csv = CsvSink::new(Vec::new());
    let mut json = JsonSink::new(Vec::new());
    let report = Sweep::over(grid)
        .config(SweepConfig::fast())
        .threads(threads)
        .sink(&mut csv)
        .sink(&mut json)
        .run()
        .expect("in-memory sweep cannot fail");
    (report, csv.into_inner(), json.into_inner())
}

#[test]
fn csv_and_json_are_thread_count_invariant() {
    let grid = mixed_grid();
    let (_, ref_csv, ref_json) = run_full(&grid, 1);
    for threads in [2, 5, 16] {
        let (_, csv, json) = run_full(&grid, threads);
        assert_eq!(ref_csv, csv, "{threads} threads");
        assert_eq!(ref_json, json, "{threads} threads");
    }
}

#[test]
fn sharded_runs_merge_to_the_unsharded_bytes() {
    // The full end-to-end `--shard`/`--merge` loop at workspace level:
    // three shard runs write fragments + manifests to disk, the merge
    // validates the partition and must reassemble the exact unsharded
    // documents.
    let grid = mixed_grid();
    let cfg = SweepConfig::fast();
    let (_, ref_csv, ref_json) = run_full(&grid, 2);
    let base = std::env::temp_dir().join(format!("hpcarbon-shard-test-{}", std::process::id()));
    let count = 3;
    let mut dirs = Vec::new();
    for index in 0..count {
        let spec = ShardSpec { index, count };
        let dir = base.join(format!("s{index}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut csv = CsvSink::fragment(Vec::new());
        let mut json = JsonSink::fragment(Vec::new(), spec.range(grid.len()).start > 0);
        let report = Sweep::over(&grid)
            .config(cfg)
            .threads(2)
            .shard(index, count)
            .sink(&mut csv)
            .sink(&mut json)
            .run()
            .unwrap();
        std::fs::write(dir.join("sweep.csv"), csv.into_inner()).unwrap();
        std::fs::write(dir.join("sweep.json"), json.into_inner()).unwrap();
        let manifest = ShardManifest {
            fingerprint: grid_fingerprint(&grid, &cfg),
            shard: spec,
            rows: report.rows.clone(),
            ok: report.ok,
            errors: report.errors,
            outputs: report
                .digests
                .iter()
                .zip(["sweep.csv", "sweep.json"])
                .map(|(d, name)| OutputDigest {
                    path: name.to_string(),
                    bytes: d.bytes,
                    fnv64: d.fnv64,
                })
                .collect(),
        };
        manifest.write(&dir).unwrap();
        dirs.push(dir);
    }
    let merged_dir = base.join("merged");
    let (rows, digests) = merge_sweep_outputs(&dirs, &merged_dir).unwrap();
    assert_eq!(rows, grid.len());
    assert_eq!(digests.len(), 2);
    assert_eq!(
        std::fs::read(merged_dir.join("sweep.csv")).unwrap(),
        ref_csv
    );
    assert_eq!(
        std::fs::read(merged_dir.join("sweep.json")).unwrap(),
        ref_json
    );
    // A corrupted fragment must fail verification, not merge silently.
    std::fs::write(dirs[1].join("sweep.csv"), b"tampered").unwrap();
    assert!(merge_sweep_outputs(&dirs, &merged_dir).is_err());
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn infeasible_points_fail_soft_and_are_labeled() {
    let grid = mixed_grid();
    let (report, csv, _) = run_full(&grid, 4);
    // Perlmutter is all-flash already: its all-flash what-if rows error.
    assert!(report.errors > 0);
    assert_eq!(report.len(), grid.len());
    let csv = String::from_utf8(csv).unwrap();
    assert!(csv.contains("error,"));
    assert!(csv.contains("holds no"));
    // Errors never leak into the ok rows' metric columns.
    let error_rows = csv
        .lines()
        .skip(1) // header also names an "error" column
        .filter(|l| l.contains(",error,"))
        .count();
    assert_eq!(
        error_rows, report.errors,
        "one error status cell per failed row"
    );
}

#[test]
fn default_grid_covers_at_least_500_scenarios() {
    let grid = ScenarioGrid::paper_default();
    assert!(grid.len() >= 500, "{}", grid.len());
    // And it expands without duplicate ids.
    let scenarios = grid.scenarios();
    assert_eq!(scenarios.len(), grid.len());
    assert_eq!(scenarios.last().unwrap().id, grid.len() - 1);
}

#[test]
fn rerunning_a_sweep_is_reproducible() {
    let grid = mixed_grid();
    let (_, a_csv, _) = run_full(&grid, 4);
    let (_, b_csv, _) = run_full(&grid, 4);
    assert_eq!(a_csv, b_csv);
}

#[test]
fn shifting_axes_are_thread_count_invariant() {
    // The carbon-shifting grid exercises every new axis at once:
    // TemporalShift at several slacks, SpatioTemporal, and synthetic as
    // well as paper traces. Output must stay byte-identical for any
    // worker count, like every other sweep.
    let grid = ScenarioGrid::shifting();
    let (report, ref_csv, ref_json) = run_full(&grid, 1);
    for threads in [2, 4, 8] {
        let (_, csv, json) = run_full(&grid, threads);
        assert_eq!(ref_csv, csv, "{threads} threads");
        assert_eq!(ref_json, json, "{threads} threads");
    }
    // Every scenario in the shifting grid is feasible, and the shifting
    // rows actually report savings columns.
    assert_eq!(report.errors, 0);
    let csv = String::from_utf8(ref_csv).unwrap();
    assert!(csv.contains("temporal shift"));
    assert!(csv.contains("spatio-temporal shift"));
    assert!(csv.contains("synthetic"));
    // FIFO rows save nothing; at least one shifting row saves something.
    let mut collect = CollectSink::new();
    Sweep::over(&grid)
        .config(SweepConfig::fast())
        .sink(&mut collect)
        .run()
        .unwrap();
    let saved: Vec<f64> = collect
        .rows()
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|o| o.shift_saved_kg)
        .collect();
    assert!(saved.iter().any(|s| *s > 0.0), "{saved:?}");
}

#[test]
fn facade_prelude_exposes_the_sweep_types() {
    // ScenarioGrid, SweepConfig, Sweep, and the sinks all arrive via
    // the prelude.
    let mut collect = CollectSink::new();
    let report = Sweep::over(&ScenarioGrid::quick())
        .config(SweepConfig::fast())
        .threads(1)
        .sink(&mut collect)
        .run()
        .unwrap();
    assert_eq!(report.len(), 16);
    assert_eq!(report.errors, 0);
    assert_eq!(collect.rows().len(), 16);
}

#[test]
fn cli_rejects_a_malformed_threads_value() {
    // CI's 1-vs-N-thread `cmp` steps compare anything only if `--threads`
    // is honoured, so a value that is not a positive integer must exit 2
    // before the sweep writes a byte.
    for bad in ["four", "0"] {
        let dir =
            std::env::temp_dir().join(format!("hpcarbon-threads-{bad}-{}", std::process::id()));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_hpcarbon"))
            .args(["sweep", "--quick", "--threads", bad, "--out"])
            .arg(&dir)
            .output()
            .expect("hpcarbon runs");
        assert_eq!(out.status.code(), Some(2), "--threads {bad}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let want = format!("invalid --threads \"{bad}\" (expected a positive integer)");
        assert!(stderr.contains(&want), "stderr was: {stderr}");
        assert!(!dir.join("sweep.csv").exists(), "--threads {bad}");
    }
}

#[test]
fn cli_rejects_a_malformed_jobs_value() {
    // `--jobs` is strict like `--threads`: a value that is not a positive
    // integer exits 2 instead of running at the default job count.
    for (cmd, bad) in [("sweep", "four"), ("sweep", "0"), ("schedule", "four")] {
        let dir =
            std::env::temp_dir().join(format!("hpcarbon-jobs-{cmd}-{bad}-{}", std::process::id()));
        let mut command = std::process::Command::new(env!("CARGO_BIN_EXE_hpcarbon"));
        command.args([cmd, "--jobs", bad]);
        // Only `sweep` declares the quick grid and an output directory.
        if cmd == "sweep" {
            command.args(["--quick", "--out"]).arg(&dir);
        }
        let out = command.output().expect("hpcarbon runs");
        assert_eq!(out.status.code(), Some(2), "{cmd} --jobs {bad}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let want = format!("invalid --jobs \"{bad}\" (expected a positive integer)");
        assert!(stderr.contains(&want), "stderr was: {stderr}");
        assert!(!dir.join("sweep.csv").exists(), "{cmd} --jobs {bad}");
    }
}

#[test]
fn cli_lists_every_gap_policy_for_an_unknown_one() {
    // The vocabulary comes from `GapPolicy::VALUES`, so the message and
    // the parser cannot drift apart.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hpcarbon"))
        .args(["trace", "stats", "tests/fixtures/traces/sample.csv"])
        .args(["--gaps", "banana"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("hpcarbon runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8(out.stderr).unwrap(),
        "unknown --gaps \"banana\" (valid values: reject, interpolate, hold)\n"
    );
}

#[test]
fn cli_rejects_every_malformed_numeric_flag() {
    // Every numeric flag is strict: a value that does not parse, or is
    // out of range, exits 2 before any output exists instead of running
    // at the flag's default. `sweep --seed` is the flag each benchmark
    // sweep passes.
    const INT: &str = "a non-negative integer";
    let advisor: &[&str] = &["advisor", "--from", "v100", "--to", "a100"];
    let loadgen: &[&str] = &["loadgen", "--addr", "127.0.0.1:9", "--wait", "1"];
    let cases: [(&[&str], &str, &str, &str); 13] = [
        (&["sweep"], "--seed", "abc", INT),
        (&["sweep"], "--seeds", "x", "a positive integer"),
        (&["sweep", "--quick"], "--top", "four", INT),
        (&["schedule", "--jobs", "5"], "--slack", "abc", INT),
        (&["schedule", "--jobs", "5"], "--seed", "zz", INT),
        (&["regions"], "--seed", "q", INT),
        (&["figures"], "--seed", "x", INT),
        (advisor, "--usage", "7", "a fraction in [0, 1]"),
        (advisor, "--usage", "abc", "a fraction in [0, 1]"),
        (advisor, "--intensity", "abc", "a finite number ≥ 0"),
        (advisor, "--intensity", "-1", "a finite number ≥ 0"),
        (loadgen, "--connect-retries", "x", INT),
        (loadgen, "--seed", "x", INT),
    ];
    for (i, (cmd, name, bad, expected)) in cases.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("hpcarbon-flag-{i}-{}", std::process::id()));
        let mut command = std::process::Command::new(env!("CARGO_BIN_EXE_hpcarbon"));
        command.args(cmd).args([name, bad]);
        // `--out` goes only to the subcommands that declare it.
        if ["sweep", "figures", "loadgen"].contains(&cmd[0]) {
            command.arg("--out").arg(&dir);
        }
        let out = command.output().expect("hpcarbon runs");
        assert_eq!(out.status.code(), Some(2), "{cmd:?} {name} {bad}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let want = format!("invalid {name} \"{bad}\" (expected {expected})");
        assert!(stderr.contains(&want), "stderr was: {stderr}");
        assert!(
            !dir.exists(),
            "{cmd:?} {name} {bad} wrote {}",
            dir.display()
        );
    }
}

#[test]
fn an_oversized_jobs_count_is_an_error_row_not_an_abort() {
    // A job count far past MAX_JOBS would be a multi-terabyte job trace.
    // The sweep's context skips it and every row fails validation.
    let dir = std::env::temp_dir().join(format!("hpcarbon-jobs-huge-{}", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hpcarbon"))
        .args(["sweep", "--quick", "--threads", "1"])
        .args(["--jobs", "1000000000000", "--out"])
        .arg(&dir)
        .output()
        .expect("hpcarbon runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let csv = std::fs::read_to_string(dir.join("sweep.csv")).unwrap();
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(rows.len(), 16);
    assert!(
        rows.iter().all(|r| r.contains("must be at most 100000")),
        "{csv}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_a_seed_range_past_u64_max() {
    // `--seeds N` sweeps the N seeds from `--seed` up. A range that runs
    // past the largest seed must exit 2 before the sweep writes a byte,
    // not wrap around or sweep an empty grid.
    let dir = std::env::temp_dir().join(format!("hpcarbon-seeds-{}", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hpcarbon"))
        .args(["sweep", "--quick", "--seed", &u64::MAX.to_string()])
        .args(["--seeds", "2", "--out"])
        .arg(&dir)
        .output()
        .expect("hpcarbon runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("invalid --seeds \"2\""),
        "stderr was: {stderr}"
    );
    assert!(!dir.join("sweep.csv").exists());
}
