//! Long-run differential fuzzing driver.
//!
//! ```text
//! fuzz [--cases N] [--seed S] [--jobs N] [--quick] [--no-shrink]
//! ```
//!
//! Runs `N` generated cases through the oracle on the harness's
//! [`par_for`], one thread per core unless `--jobs` says otherwise.  Output
//! is deterministic for a given `(--cases, --seed)` at any `--jobs` value,
//! because each case's parameters and data seed derive from
//! `(base seed, case index)` alone.  On divergence the first failing case
//! (lowest index) is shrunk by coordinate descent and written as a
//! replayable `.case` file under `tests/corpus/`; the process exits 1.

use guardspec_fuzz::oracle::Thoroughness;
use guardspec_fuzz::{case_seed, Case, CaseResult, ShapeParams};
use guardspec_harness::{par_for, worker_count};
use rand::prelude::*;
use std::sync::OnceLock;

#[derive(Debug)]
struct Args {
    cases: u64,
    seed: u64,
    jobs: usize,
    quick: bool,
    no_shrink: bool,
}

fn parse_args() -> Args {
    match try_parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: fuzz [--cases N] [--seed S] [--jobs N] [--quick] [--no-shrink]");
            std::process::exit(2);
        }
    }
}

fn try_parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        cases: 1000,
        seed: 1,
        jobs: 0,
        quick: false,
        no_shrink: false,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--cases" => {
                out.cases = value("--cases")?
                    .parse()
                    .map_err(|_| "bad --cases (want a non-negative integer)".to_string())?
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed (want a non-negative integer)".to_string())?
            }
            "--jobs" => {
                out.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "bad --jobs (want a non-negative integer)".to_string())?
            }
            "--quick" => out.quick = true,
            "--no-shrink" => out.no_shrink = true,
            other => return Err(guardspec_harness::args::unknown_argument(other)),
        }
    }
    Ok(out)
}

/// The parameter point for case `i` of a run (deterministic).
fn params_for(base_seed: u64, i: u64) -> (ShapeParams, u64) {
    let seed = case_seed(base_seed, i);
    let mut rng = SmallRng::seed_from_u64(seed);
    (ShapeParams::sample(&mut rng), seed)
}

fn main() {
    let args = parse_args();
    let thoroughness = if args.quick {
        Thoroughness::Quick
    } else {
        Thoroughness::Full
    };

    let n = args.cases;
    let results: Vec<OnceLock<CaseResult>> = (0..n).map(|_| OnceLock::new()).collect();
    let t0 = std::time::Instant::now();
    par_for(results.len(), worker_count(args.jobs), |i| {
        let (params, seed) = params_for(args.seed, i as u64);
        let _ = results[i].set(guardspec_fuzz::run_case(&params, seed, thoroughness));
    });
    let wall = t0.elapsed();

    let mut retired_total: u64 = 0;
    let mut first_failure: Option<CaseResult> = None;
    let mut failures = 0usize;
    for res in results.into_iter().filter_map(OnceLock::into_inner) {
        retired_total += res.retired;
        if !res.ok() {
            failures += 1;
            if first_failure.is_none() {
                first_failure = Some(res);
            }
        }
    }

    eprintln!(
        "[fuzz] {} cases, {:.1}M instructions retired, {} divergence(s), {:.2}s",
        n,
        retired_total as f64 / 1e6,
        failures,
        wall.as_secs_f64()
    );

    let Some(fail) = first_failure else {
        println!("fuzz: {n} cases OK (seed {})", args.seed);
        return;
    };

    eprintln!(
        "[fuzz] FIRST DIVERGENCE at params {:?} seed {}:",
        fail.params, fail.seed
    );
    for f in &fail.findings {
        eprintln!("[fuzz]   [{}] {}", f.variant, f.detail);
    }

    let (params, seed, shrunk) = if args.no_shrink {
        (fail.params, fail.seed, fail)
    } else {
        eprintln!("[fuzz] shrinking...");
        guardspec_fuzz::shrink(&fail.params, fail.seed, thoroughness)
    };
    let len = guardspec_fuzz::shrink::shrunk_len(&params, seed);
    let mut note = format!(
        "shrunk failing case ({len} static instructions); replay: cargo test -p guardspec-fuzz"
    );
    for f in &shrunk.findings {
        note.push_str(&format!("\n[{}] {}", f.variant, f.detail));
    }
    let case = Case::new(params, seed, note);
    let dir = guardspec_fuzz::corpus::corpus_dir_from(env!("CARGO_MANIFEST_DIR"));
    let path = dir.join(format!("shrunk-{seed:016x}.case"));
    match case.save(&path) {
        Ok(()) => eprintln!(
            "[fuzz] wrote {} ({} static instructions) — fix the bug, then keep it as a regression",
            path.display(),
            len
        ),
        Err(e) => eprintln!("[fuzz] could not write case file: {e}"),
    }
    println!(
        "fuzz: FAILED — {failures} of {n} cases diverged; minimized case: params {params:?} seed {seed}"
    );
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::try_parse;

    #[test]
    fn unknown_flags_are_rejected() {
        let err = try_parse(["--case", "5"].iter().map(|s| s.to_string())).unwrap_err();
        assert!(err.contains("unknown argument"), "got {err:?}");
        assert!(err.contains("--case"), "got {err:?}");
    }

    #[test]
    fn known_flags_still_parse() {
        let a = try_parse(
            ["--cases", "7", "--seed", "3", "--quick"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!((a.cases, a.seed), (7, 3));
        assert!(a.quick);
    }
}
