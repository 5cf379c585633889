//! `gsx` — the guardspec command line: run, profile, optimize, and simulate
//! programs written in the textual assembly format.
//!
//! ```text
//! gsx run  prog.s            execute functionally, print register/memory results
//! gsx prof prog.s            print the per-branch profile
//! gsx opt  prog.s            apply the Figure-6 transforms, print the result
//! gsx sim  prog.s            simulate under all three schemes (cached; accepts
//!                            --jobs N and --json <path>)
//! ```
//!
//! For where a program's cycles go, run the `report` bin's cycle
//! accounting over a workload.

use guardspec_core::{cleanup_program, transform_program, DriverOptions};
use guardspec_harness::{run_experiment, ExperimentSpec, HarnessArgs, RunOptions};
use guardspec_interp::profile::profile_program;
use guardspec_interp::run;
use guardspec_ir::parse::parse_program;
use guardspec_ir::validate::validate;
use guardspec_predict::Scheme;
use guardspec_sim::MachineConfig;
use guardspec_workloads::{Scale, Workload};

fn usage() -> ! {
    eprintln!("usage: gsx <run|prof|opt|sim> <file.s> [--jobs N] [--json <path>]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (cmd, path) = match (args.get(1), args.get(2)) {
        (Some(c), Some(p)) => (c.as_str(), p.as_str()),
        _ => usage(),
    };
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("gsx: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let prog = parse_program(&src, None).unwrap_or_else(|e| {
        eprintln!("gsx: parse error in {path}: {e}");
        std::process::exit(1);
    });
    let errs = validate(&prog);
    if !errs.is_empty() {
        eprintln!("gsx: {path} failed validation:");
        for e in errs {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }

    // run/prof/opt take no further arguments; a stray one is named and
    // rejected rather than silently ignored (same contract as the bench
    // binaries' strict parser).
    if matches!(cmd, "run" | "prof" | "opt") {
        if let Some(extra) = args.get(3) {
            eprintln!("gsx: {}", guardspec_harness::args::unknown_argument(extra));
            std::process::exit(2);
        }
    }

    match cmd {
        "run" => {
            let res = run(&prog).unwrap_or_else(|e| {
                eprintln!("gsx: execution trapped: {e}");
                std::process::exit(1);
            });
            println!(
                "retired {} instructions ({} branches, {} taken, {} annulled)",
                res.summary.retired,
                res.summary.cond_branches,
                res.summary.taken_branches,
                res.summary.annulled
            );
            let nonzero: Vec<(usize, i64)> = res
                .machine
                .mem
                .iter()
                .copied()
                .enumerate()
                .filter(|&(a, v)| v != 0 && a < 64)
                .collect();
            println!("non-zero low memory: {nonzero:?}");
        }
        "prof" => {
            let (profile, _) = profile_program(&prog).expect("profile");
            println!(
                "{} dynamic instructions, {:.1}% branches",
                profile.retired,
                100.0 * profile.branch_fraction()
            );
            for (site, bp) in profile.branches() {
                let f = prog.func(site.func);
                let pat: String = bp
                    .outcomes
                    .iter()
                    .take(48)
                    .map(|b| if b { 'T' } else { 'F' })
                    .collect();
                println!(
                    "  {}/{} idx {}: {} exec, rate {:.2}  [{}{}]",
                    f.name,
                    f.block(site.block).label,
                    site.idx,
                    bp.executed,
                    bp.taken_rate(),
                    pat,
                    if bp.outcomes.len() > 48 { "…" } else { "" }
                );
            }
        }
        "opt" => {
            let (profile, _) = profile_program(&prog).expect("profile");
            let mut out = prog.clone();
            let report = transform_program(&mut out, &profile, &DriverOptions::proposed());
            cleanup_program(&mut out);
            eprintln!(
                "# {} likelies, {} if-conversions, {} splits, {} ops speculated",
                report.likelies, report.ifconversions, report.splits, report.speculated_ops
            );
            print!("{out}");
        }
        "sim" => {
            // The three-scheme matrix as a one-workload experiment: profile,
            // transform and per-scheme stats all go through the shared
            // results cache, so repeat sims of the same file are instant.
            let flags = HarnessArgs::try_parse(args.iter().skip(3).cloned()).unwrap_or_else(|e| {
                eprintln!("gsx: {e}");
                std::process::exit(2);
            });
            let workload = Workload {
                name: Box::leak(path.to_string().into_boxed_str()),
                description: "gsx input file",
                program: prog.clone(),
                // No golden results for ad-hoc files: skip verification.
                expected: Vec::new(),
            };
            let mut spec = ExperimentSpec {
                name: "gsx-sim".to_string(),
                scale: Scale::Small,
                workloads: vec![workload],
                cells: Vec::new(),
            };
            let cfg = MachineConfig::r10000();
            for scheme in Scheme::ALL {
                spec.push_cell(
                    0,
                    scheme.label(),
                    (scheme == Scheme::Proposed).then(DriverOptions::proposed),
                    scheme,
                    cfg.clone(),
                );
            }
            let result = run_experiment(
                &spec,
                &RunOptions {
                    jobs: flags.jobs,
                    cache_dir: Some(guardspec_harness::DEFAULT_CACHE_DIR.into()),
                    ..RunOptions::default()
                },
            );
            println!(
                "{:<12} {:>10} {:>8} {:>10} {:>10}",
                "scheme", "cycles", "IPC", "mispredict", "indirect"
            );
            for (name, cell) in ["2-bit BP", "proposed", "perfect BP"]
                .iter()
                .zip(&result.cells)
            {
                let s = &cell.stats;
                println!(
                    "{:<12} {:>10} {:>8.3} {:>10} {:>10}",
                    name,
                    s.cycles,
                    s.ipc(),
                    s.mispredicts,
                    s.indirect_stalls
                );
            }
            if let Some(path) = &flags.json {
                match guardspec_harness::write_json_file(
                    path,
                    &guardspec_harness::full_json(&result),
                ) {
                    Ok(()) => eprintln!("[artifact] {}", path.display()),
                    Err(e) => eprintln!("[artifact] {} write failed: {e}", path.display()),
                }
            }
        }
        _ => usage(),
    }
}
