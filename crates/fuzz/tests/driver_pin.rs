//! Pins the Figure-6 driver's output.  The oracle tests check that every
//! transform preserves semantics; this one checks that the driver keeps
//! making the same decisions and emitting the same code.  It hashes, for
//! every (program, options) pair of a fixed corpus:
//!
//! * every line of the decision log,
//! * the six report counters,
//! * the printed transformed program.
//!
//! The corpus is the five workloads at test scale under each preset, plus
//! generated programs under the oracle's option variants (the five presets
//! and two random mixes per case, drawn as `run_case` draws them).  A
//! refactor of the driver must leave [`PINNED`] alone; a change that means
//! to move decisions re-pins it and says so.
//!
//! The corpus must also keep reaching every arm of the driver: each
//! `Action` kind and each reason for leaving a branch alone occurs at least
//! once, so a change to the generator cannot quietly stop covering one.

use guardspec_core::{transform_program, Action, DriverOptions};
use guardspec_fuzz::{case_seed, generate, oracle, ShapeParams};
use guardspec_harness::hash::StableHasher;
use guardspec_interp::profile::profile_program;
use guardspec_interp::Profile;
use guardspec_ir::Program;
use guardspec_workloads::{extended_workloads, Scale};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

const PROGRAMS: u64 = 2_000;
const BASE_SEED: u64 = 0xd41e_9f06;
const PINNED: &str = "76a90aa27a433c1ac40426bd9e237d0e";

/// Every action kind, with `None` split by its reason.
const ARMS: [&str; 17] = [
    "BranchLikely",
    "IfConverted",
    "LikelyAndSpeculated",
    "None(backward branch below likely threshold)",
    "None(highly not-taken; predictor suffices)",
    "None(highly taken; likelies disabled)",
    "None(irregular behavior)",
    "None(monotonic; conversion not profitable)",
    "None(never executed)",
    "None(nothing speculatable in the arm)",
    "None(periodic; split not instrumentable or not profitable)",
    "None(periodic; splitting disabled)",
    "None(phased; instrumentation cost exceeds benefit)",
    "None(phased; splitting disabled)",
    "None(split failed (resources/segments))",
    "Speculated",
    "Split",
];

fn arm(a: &Action) -> String {
    match a {
        Action::None(reason) => format!("None({reason})"),
        Action::BranchLikely => "BranchLikely".into(),
        Action::IfConverted { .. } => "IfConverted".into(),
        Action::Split { .. } => "Split".into(),
        Action::Speculated { .. } => "Speculated".into(),
        Action::LikelyAndSpeculated { .. } => "LikelyAndSpeculated".into(),
    }
}

/// Transform `prog` under `opts` and feed everything the driver produced
/// into `h`; record which arms its decisions took.
fn absorb(
    h: &mut StableHasher,
    arms: &mut BTreeSet<String>,
    prog: &Program,
    profile: &Profile,
    opts: &DriverOptions,
) {
    let mut out = prog.clone();
    let report = transform_program(&mut out, profile, opts);
    for line in report.decision_log_lines() {
        h.write_str(&line);
    }
    for n in [
        report.likelies,
        report.ifconversions,
        report.splits,
        report.speculated_ops,
        report.guarded_ops,
        report.split_likelies,
    ] {
        h.write_u64(n as u64);
    }
    h.write_str(&out.to_string());
    arms.extend(report.decisions.iter().map(|d| arm(&d.action)));
}

#[test]
fn driver_output_is_pinned_and_reaches_every_arm() {
    let mut h = StableHasher::new();
    let mut arms = BTreeSet::new();
    for w in extended_workloads(Scale::Test) {
        let (profile, _) = profile_program(&w.program).expect("profile workload");
        for (_, opts) in DriverOptions::presets() {
            absorb(&mut h, &mut arms, &w.program, &profile, &opts);
        }
    }
    for i in 0..PROGRAMS {
        let seed = case_seed(BASE_SEED, i);
        let params = ShapeParams::sample(&mut SmallRng::seed_from_u64(seed));
        let prog = generate(&params, seed);
        let (profile, _) = profile_program(&prog).expect("profile generated program");
        let mut mix_rng = SmallRng::seed_from_u64(seed ^ 0x6f72_6163_6c65);
        for (_, opts) in oracle::variants(&mut mix_rng, 2) {
            absorb(&mut h, &mut arms, &prog, &profile, &opts);
        }
    }
    let missing: Vec<&str> = ARMS.into_iter().filter(|a| !arms.contains(*a)).collect();
    assert!(
        missing.is_empty(),
        "the corpus no longer reaches {missing:?}"
    );
    let unknown: Vec<&String> = arms
        .iter()
        .filter(|a| !ARMS.contains(&a.as_str()))
        .collect();
    assert!(
        unknown.is_empty(),
        "new driver arms {unknown:?}: add them to ARMS"
    );
    assert_eq!(h.finish_hex(), PINNED, "the driver's output changed");
}
