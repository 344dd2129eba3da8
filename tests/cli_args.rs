//! `hpcarbon` checks every argument against its subcommand's entry in
//! the `--help` synopsis before the command runs. A flag the entry does
//! not declare, a flag without its value, a repeated flag, two
//! alternatives given together or a stray argument is one stderr line
//! and exit 2, with nothing on stdout and nothing written. Without the
//! check a misspelt `--shards` swept every row into unsharded documents,
//! and `sweep --help` ran the whole sweep.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Longer than any rejected invocation takes; a command that instead
/// runs (`serve` would serve forever) is killed and fails its test.
const TIMEOUT: Duration = Duration::from_secs(10);

/// How one run of `hpcarbon` ended.
struct Run {
    /// `None` when it was killed at [`TIMEOUT`].
    code: Option<i32>,
    stdout: Vec<u8>,
    stderr: String,
}

/// Runs `hpcarbon args` in `dir`, killing it after [`TIMEOUT`].
fn hpcarbon(args: &[&str], dir: &Path) -> Run {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpcarbon"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hpcarbon");
    let deadline = Instant::now() + TIMEOUT;
    while child.try_wait().expect("poll hpcarbon").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect hpcarbon's output");
    Run {
        code: out.status.code(),
        stdout: out.stdout,
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// A fresh, empty working directory.
fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcarbon-cli-args-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    dir
}

/// Runs `args` in an empty directory and asserts the rejection: exit 2,
/// one stderr line that contains every string of `names`, nothing on
/// stdout and nothing written.
fn assert_rejected(name: &str, args: &[&str], names: &[&str]) {
    let dir = empty_dir(name);
    let run = hpcarbon(args, &dir);
    let why = format!("hpcarbon {args:?} exited {:?}: {:?}", run.code, run.stderr);
    assert_eq!(run.code, Some(2), "{why}");
    assert_eq!(run.stderr.lines().count(), 1, "{why}");
    assert!(names.iter().all(|n| run.stderr.contains(n)), "{why}");
    assert!(run.stdout.is_empty(), "hpcarbon {args:?} printed to stdout");
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "hpcarbon {args:?} wrote {written:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_usage_entry_rejects_an_undeclared_flag() {
    let entries: [&[&str]; 18] = [
        &["estimate"],
        &["serve"],
        &["loadgen"],
        &["figures"],
        &["parts"],
        &["systems"],
        &["regions"],
        &["advisor"],
        &["schedule"],
        &["sweep"],
        &["sweep", "--merge"],
        &["trace", "validate"],
        &["trace", "stats"],
        &["trace", "import"],
        &["catalog", "validate"],
        &["catalog", "list"],
        &["catalog", "show"],
        &["catalog", "export"],
    ];
    for (i, entry) in entries.into_iter().enumerate() {
        let args = [entry, &["--bogus"]].concat();
        let invocation = format!("`hpcarbon {}`", entry.join(" "));
        assert_rejected(&format!("bogus-{i}"), &args, &["--bogus", &invocation]);
    }
}

#[test]
fn a_misspelt_shard_flag_writes_nothing() {
    assert_rejected(
        "shards",
        &["sweep", "--quick", "--shards", "0/2", "--out", "typo"],
        &["--shards"],
    );
}

#[test]
fn a_misspelt_threads_flag_does_not_run_at_full_width() {
    assert_rejected("thread", &["sweep", "--thread", "0"], &["--thread"]);
}

#[test]
fn help_after_a_subcommand_prints_the_usage_and_runs_nothing() {
    let dir = empty_dir("sweep-help");
    let help = hpcarbon(&["--help"], &dir);
    assert_eq!(help.code, Some(0));
    let run = hpcarbon(&["sweep", "--help"], &dir);
    assert_eq!((run.code, run.stderr.as_str()), (Some(0), ""));
    assert!(
        run.stdout == help.stdout,
        "sweep --help printed other bytes"
    );
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "sweep --help wrote {written:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_value_flag_without_its_value_is_rejected() {
    assert_rejected("no-value", &["sweep", "--quick", "--out"], &["--out"]);
}

#[test]
fn a_flag_given_twice_is_rejected() {
    let args = [
        "sweep", "--quick", "--seed", "1", "--seed", "2", "--out", "twice",
    ];
    assert_rejected("twice", &args, &["--seed", "more than once"]);
}

#[test]
fn a_stray_argument_is_rejected() {
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/traces/sample.csv");
    let args = ["trace", "validate", trace.to_str().unwrap(), "extra"];
    assert_rejected("stray", &args, &["\"extra\"", "`hpcarbon trace validate`"]);
}

#[test]
fn the_quick_and_shifting_grids_are_alternatives() {
    let args = ["sweep", "--quick", "--shifting", "--out", "both"];
    assert_rejected("grids", &args, &["--quick", "--shifting"]);
}

#[test]
fn a_flat_intensity_and_a_region_are_alternatives() {
    let args = ["advisor", "--from", "v100", "--to", "a100"];
    let args = [&args[..], &["--intensity", "300", "--region", "eso"]].concat();
    assert_rejected("grid-source", &args, &["--intensity", "--region"]);
}

#[test]
fn an_unknown_catalog_subcommand_is_a_usage_error_without_a_catalog() {
    // The empty directory has no `./catalog` to load.
    assert_rejected("catalog-frob", &["catalog", "frob"], &["\"frob\""]);
}
