//! Golden stdout for `gsx`: `run`, `prof` and `opt` on the Section 4
//! example in `examples/asm/phased_loop.s` must print exactly the text
//! committed beside this file.  `opt` prints the driver's codegen for that
//! loop: the `toggle` block's periodic split-branch and the `latch`
//! block's branch-likely.  None of the three reads or writes the results
//! cache, so they run in place.

use std::process::{Command, Output};

const GSX: &str = env!("CARGO_BIN_EXE_gsx");

fn gsx(args: &[&str]) -> Output {
    Command::new(GSX)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn gsx: {e}"))
}

fn example() -> String {
    format!(
        "{}/../../examples/asm/phased_loop.s",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn assert_golden(cmd: &str, expected: &str) {
    let out = gsx(&[cmd, &example()]);
    assert!(
        out.status.success(),
        "gsx {cmd} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "gsx {cmd} stdout changed"
    );
}

#[test]
fn gsx_run_prints_the_committed_results() {
    assert_golden("run", include_str!("gsx/phased_loop.run.txt"));
}

#[test]
fn gsx_prof_prints_the_committed_profile() {
    assert_golden("prof", include_str!("gsx/phased_loop.prof.txt"));
}

#[test]
fn gsx_opt_prints_the_committed_transform() {
    assert_golden("opt", include_str!("gsx/phased_loop.opt.txt"));
}

#[test]
fn gsx_rejects_a_stray_argument_with_status_2() {
    for cmd in ["run", "prof", "opt"] {
        let out = gsx(&[cmd, &example(), "--stray"]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "gsx {cmd} with a stray argument"
        );
        assert!(out.stdout.is_empty(), "gsx {cmd} printed before rejecting");
    }
}
