//! `hpcarbon` on a stdout whose reader has gone: a pipeline such as
//! `hpcarbon catalog show frontier | grep -q 'bill of materials'` stops
//! reading at its first match, and under `set -o pipefail` the pipeline
//! fails unless the writer then ends with exit 0.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// Runs `hpcarbon args` in `dir` with `stdout`, capturing stderr.
fn hpcarbon(args: &[&str], dir: &Path, stdout: impl Into<Stdio>) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpcarbon"))
        .args(args)
        .current_dir(dir)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn hpcarbon")
}

/// A stdout pipe whose read end is already closed, so the first write
/// fails with a broken pipe, whatever the timing.
fn closed_pipe() -> std::io::PipeWriter {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    writer
}

/// A fresh working directory for the subcommands that write files.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcarbon-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    dir
}

#[test]
fn printing_subcommands_end_quietly_when_the_reader_is_gone() {
    let dir = scratch_dir("closed-stdout");
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let request = fixtures.join("estimate_request.json");
    let trace = fixtures.join("traces/sample.csv");
    let catalog = Path::new(env!("CARGO_MANIFEST_DIR")).join("catalog");
    let (request, trace, catalog) = (
        request.to_str().unwrap(),
        trace.to_str().unwrap(),
        catalog.to_str().unwrap(),
    );
    // Every subcommand that prints and ends by itself (serve runs until
    // a signal; loadgen needs a server).
    let cases: [&[&str]; 17] = [
        &[],
        &["--help"],
        &["parts"],
        &["systems"],
        &["regions", "--seed", "7"],
        &["advisor", "--from", "v100", "--to", "a100"],
        &["schedule", "--jobs", "60", "--seed", "1"],
        &["figures", "--seed", "1", "--out", "figures"],
        &["sweep", "--quick", "--jobs", "40", "--out", "sweep"],
        &["estimate", "--request", request],
        &["trace", "validate", trace],
        &["trace", "stats", trace],
        &["trace", "import", trace, "--out", "import.csv"],
        &["catalog", "validate", "--catalog", catalog],
        &["catalog", "list", "--catalog", catalog],
        &["catalog", "show", "frontier", "--catalog", catalog],
        &["catalog", "export", "--out", "catalog"],
    ];
    for args in cases {
        let out = hpcarbon(args, &dir, closed_pipe());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            (out.status.code(), stderr.as_ref()),
            (Some(0), ""),
            "hpcarbon {args:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_usage_error_keeps_its_status_when_the_reader_is_gone() {
    let out = hpcarbon(&["bogus"], &std::env::temp_dir(), closed_pipe());
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "unknown subcommand: bogus\n\n"
    );
}

/// Any failure other than a gone reader is an error: one line on
/// stderr, exit 1.
#[cfg(target_os = "linux")]
#[test]
fn other_stdout_failures_are_one_line_errors() {
    let full = std::fs::File::options()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = hpcarbon(&["parts"], &std::env::temp_dir(), full);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("hpcarbon: cannot write to standard output: ")
            && stderr.lines().count() == 1,
        "{stderr:?}"
    );
}
