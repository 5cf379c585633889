//! Golden stdout: the table binaries must print byte-identical tables no
//! matter how the work is scheduled — serial or work-stealing, at any log
//! level, and from cold or warm trace/stage caches.  Each cold invocation gets a fresh scratch
//! working directory, so its cache/artifact side effects stay out of the
//! repo; warm invocations deliberately rerun in the same directory.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("guardspec-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Run `bin` with `args` in `dir`; return its stdout bytes.
fn run_in(bin: &str, args: &[&str], dir: &Path) -> Vec<u8> {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Run `bin` with `args` in a fresh scratch dir; return its stdout bytes.
fn run(bin: &str, args: &[&str], tag: &str) -> Vec<u8> {
    let dir = scratch(tag);
    let out = run_in(bin, args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn assert_invariant_stdout(bin: &str, name: &str) {
    let reference = run(bin, &["--scale", "test", "--jobs", "1"], name);
    assert!(!reference.is_empty(), "{name} printed nothing");
    for (tag, args) in [
        ("jobs8", &["--scale", "test", "--jobs", "8"] as &[&str]),
        // Structured logging goes to stderr only: cranking the level to
        // debug must not add (or move) a single stdout byte.
        (
            "debuglog",
            &["--scale", "test", "--jobs", "1", "--log-level", "debug"],
        ),
        (
            "debuglog8",
            &["--scale", "test", "--jobs", "8", "--log-level", "debug"],
        ),
    ] {
        let got = run(bin, args, &format!("{name}-{tag}"));
        assert_eq!(
            String::from_utf8_lossy(&reference),
            String::from_utf8_lossy(&got),
            "{name} stdout differs under {args:?}"
        );
    }
    // Cold then warm in the SAME directory: replaying cached stage results
    // and binary trace blobs must not change a byte of the table.
    let args = ["--scale", "test", "--jobs", "1"];
    let dir = scratch(&format!("{name}-coldwarm"));
    let cold = run_in(bin, &args, &dir);
    let warm = run_in(bin, &args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        String::from_utf8_lossy(&reference),
        String::from_utf8_lossy(&cold),
        "{name} cold stdout differs under {args:?}"
    );
    assert_eq!(
        String::from_utf8_lossy(&cold),
        String::from_utf8_lossy(&warm),
        "{name} warm stdout differs from cold under {args:?}"
    );
}

#[test]
fn table1_stdout_is_schedule_invariant() {
    assert_invariant_stdout(env!("CARGO_BIN_EXE_table1"), "table1");
}

/// Sampled estimates are a pure function of (trace, params): the printed
/// table must not change a byte across schedulers.
#[test]
fn sampled_stdout_is_schedule_invariant() {
    let bin = env!("CARGO_BIN_EXE_table3");
    // Test traces are ~10k entries; the paper-sized default interval would
    // fall back to exact runs, so size the windows to the scale.
    let base = [
        "--scale",
        "test",
        "--sample",
        "--sample-interval",
        "1000",
        "--sample-detail",
        "50",
        "--sample-warm",
        "50",
    ];
    fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
        let mut v = base.to_vec();
        v.extend_from_slice(extra);
        v
    }
    let reference = run(bin, &with(&base, &["--jobs", "1"]), "table3-sampled");
    assert!(!reference.is_empty(), "sampled table3 printed nothing");
    let got = run(bin, &with(&base, &["--jobs", "8"]), "table3-sampled-jobs8");
    assert_eq!(
        String::from_utf8_lossy(&reference),
        String::from_utf8_lossy(&got),
        "sampled table3 stdout differs under --jobs 8"
    );
}

/// `sampling` keys appear in stable artifacts exactly when `--sample` is
/// on: exact runs must stay byte-compatible with pre-sampling artifacts.
#[test]
fn stable_artifact_sampling_fields_follow_the_flag() {
    let bin = env!("CARGO_BIN_EXE_table3");
    let dir = scratch("table3-stablejson");
    run_in(
        bin,
        &[
            "--scale",
            "test",
            "--jobs",
            "1",
            "--stable-json",
            "exact.json",
        ],
        &dir,
    );
    let exact = std::fs::read_to_string(dir.join("exact.json")).unwrap();
    assert!(
        !exact.contains("sampling"),
        "exact stable artifact must carry no sampling fields"
    );
    run_in(
        bin,
        &[
            "--scale",
            "test",
            "--jobs",
            "1",
            "--sample",
            "--sample-interval",
            "1000",
            "--sample-detail",
            "50",
            "--sample-warm",
            "50",
            "--stable-json",
            "sampled.json",
        ],
        &dir,
    );
    let sampled = std::fs::read_to_string(dir.join("sampled.json")).unwrap();
    assert!(
        sampled.contains("\"sampling\""),
        "sampled stable artifact must carry the sampling estimate"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table3_stdout_is_schedule_invariant() {
    assert_invariant_stdout(env!("CARGO_BIN_EXE_table3"), "table3");
}
