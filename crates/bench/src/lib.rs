//! # guardspec-bench
//!
//! The binaries that regenerate every table and figure of the paper's
//! evaluation.  Each binary prints one artifact:
//!
//! | binary     | artifact |
//! |------------|----------|
//! | `table1`   | Table 1 — benchmark characteristics |
//! | `table2`   | Table 2 — latencies |
//! | `table3`   | Table 3 — reservation-station usage under the three schemes |
//! | `table4`   | Table 4 — functional-unit usage and IPC |
//! | `figure2`  | Figure 2 — base/speculated/guarded schedule costs (3100/2900/3600) |
//! | `figure34` | Figures 3+4 — per-phase schedules and the 2756-cycle combined cost |
//! | `ablation` | individual/combined effects of each mechanism (the title question) |
//! | `sweeps`   | design-choice sweeps (DESIGN.md §5) |
//! | `decisions`| per-branch Figure-6 decision dump |
//! | `gsx`      | run/profile/optimize/simulate a textual-assembly file |
//! | `report`   | cycle-accounting attribution: predicted vs measured per branch site |
//!
//! ## Common flags
//!
//! Every binary accepts (via [`guardspec_harness::args`]):
//!
//! * `--scale test|small|paper` — workload size preset (default `small`;
//!   `paper` regenerates the numbers quoted in EXPERIMENTS.md).  A bad
//!   value prints a diagnostic to stderr and exits with status 2.
//! * `--jobs N` — worker threads for the experiment job graph (`0`/absent
//!   = one per core).  Output is byte-identical at any thread count.
//! * `--json <path>` — also write the run's machine-readable artifact to
//!   `<path>`.
//! * `--stable-json <path>` — also write the run's *stable* payload (no
//!   timings or machine-local meta) to `<path>`; byte-identical at any
//!   `--jobs`, cold or warm cache, and to what the `gsd` server returns
//!   for the same spec.
//! * `--observe` — enable simulator cycle accounting: each cell's artifact
//!   entry gains `cycle_buckets` (every cycle attributed to exactly one
//!   cause; the buckets sum to `stats.cycles`) and `top_sites` (the branch
//!   sites costing the most mispredict-recovery cycles).
//! * `--trace-out <path>` — write a Chrome trace-event timeline of the job
//!   graph to `<path>`; load it at ui.perfetto.dev or `chrome://tracing`.
//! * `--sample` (with `--sample-detail N`, `--sample-warm N`,
//!   `--sample-interval N`) — SMARTS-style interval sampling: per-cell
//!   `sampling` estimates (mean IPC ± 95% CI, estimated cycles) replace
//!   the exact whole-trace simulation; sampled cache entries live under
//!   their own keys.
//!
//! Unknown flags print the offending argument to stderr and exit 2.
//!
//! ## Results cache and artifacts
//!
//! Experiment-running binaries share a content-addressed cache at
//! `results/cache/<shard>/<stage>-<digest>.json`, keyed on the program
//! text, scale, driver options and machine configuration (see
//! `guardspec_harness::key`).  A warm rerun re-profiles and re-simulates
//! nothing; delete the directory to force recomputation.  The cache also
//! keeps each program's packed trace as a binary blob
//! (`trace-<digest>.bin`), so a warm run interprets nothing either.
//! `--json`, `--stable-json` and `--trace-out` are the only artifacts a run
//! writes (paths reported on stderr).

use guardspec_harness::{ExperimentResult, HarnessArgs, RunOptions};
use guardspec_interp::Profile;
use guardspec_predict::measure_twobit_accuracy;
use guardspec_workloads::{all_workloads, Scale, Workload};

/// Parse the common flags; bad values report to stderr and exit(2).
pub fn harness_args() -> HarnessArgs {
    HarnessArgs::parse()
}

/// [`RunOptions`] for the parsed flags, with the conventional cache root.
pub fn run_options(args: &HarnessArgs) -> RunOptions {
    RunOptions {
        jobs: args.jobs,
        cache_dir: Some(guardspec_harness::DEFAULT_CACHE_DIR.into()),
        observe: args.observe,
        trace_spans: args.trace_out.is_some(),
        sample: args.sample_params(),
        ..RunOptions::default()
    }
}

/// Write the artifacts the flags ask for: `--json`, `--stable-json` and
/// `--trace-out`.  Paths are reported on stderr so table text on stdout
/// stays clean.
pub fn finish_artifacts(result: &ExperimentResult, args: &HarnessArgs) {
    if let Some(path) = &args.json {
        match guardspec_harness::write_json_file(path, &guardspec_harness::full_json(result)) {
            Ok(()) => eprintln!("[artifact] {}", path.display()),
            Err(e) => eprintln!("[artifact] {} write failed: {e}", path.display()),
        }
    }
    if let Some(path) = &args.stable_json {
        match guardspec_harness::write_json_file(path, &guardspec_harness::stable_json(result)) {
            Ok(()) => eprintln!("[artifact] {}", path.display()),
            Err(e) => eprintln!("[artifact] {} write failed: {e}", path.display()),
        }
    }
    if let Some(path) = &args.trace_out {
        let trace = guardspec_harness::chrome_trace_json(&result.spans, &result.metrics);
        match guardspec_harness::write_json_file(path, &trace) {
            Ok(()) => eprintln!("[trace] {}", path.display()),
            Err(e) => eprintln!("[trace] {} write failed: {e}", path.display()),
        }
    }
}

/// Table 1 row data.
pub struct Table1Row {
    pub name: String,
    pub dynamic_millions: f64,
    pub branch_pct: f64,
    pub predicted_pct: f64,
}

/// Compute Table 1 for one workload from its profile: dynamic
/// instructions, branch fraction, and 2-bit prediction accuracy (replaying
/// every conditional-branch outcome through a fresh 512-entry table).
pub fn table1_row_from_profile(w: &Workload, profile: &Profile) -> Table1Row {
    let layout = guardspec_interp::StaticLayout::build(&w.program);
    let acc = twobit_accuracy_from_profile(profile, &layout);
    Table1Row {
        name: w.name.to_string(),
        dynamic_millions: profile.dynamic_millions(),
        branch_pct: 100.0 * profile.branch_fraction(),
        predicted_pct: 100.0 * acc,
    }
}

/// Replay the profiled outcome vectors through a 2-bit table, interleaving
/// by site in recorded order (per-site streams are independent in a
/// direct-mapped table unless they alias, which the replay preserves).
pub fn twobit_accuracy_from_profile(
    profile: &Profile,
    layout: &guardspec_interp::StaticLayout,
) -> f64 {
    let mut outcomes: Vec<(u64, bool)> = Vec::new();
    for (site, bp) in profile.branches() {
        let pc = layout.pc_of(site);
        for b in bp.outcomes.iter() {
            outcomes.push((pc, b));
        }
    }
    measure_twobit_accuracy(512, outcomes)
}

/// All workloads at a scale (re-exported for binaries).
pub fn workloads(scale: Scale) -> Vec<Workload> {
    all_workloads(scale)
}

// Render helpers ----------------------------------------------------------

pub fn hr(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_shape() {
        let w = &workloads(Scale::Test)[0];
        let (profile, _) = guardspec_interp::profile::profile_program(&w.program).expect("runs");
        let row = table1_row_from_profile(w, &profile);
        assert!(row.dynamic_millions > 0.0);
        assert!(row.branch_pct > 5.0 && row.branch_pct < 40.0);
        assert!(row.predicted_pct > 50.0 && row.predicted_pct <= 100.0);
    }
}
