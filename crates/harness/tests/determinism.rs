//! Thread-pool determinism: the full Scale::Test matrix produces identical
//! results at `--jobs 1` (the serial reference schedule) and `--jobs 8`
//! (work stealing), with the cache disabled so every stage really executes.
//! And every cell the harness replays from its program's packed trace
//! equals the materialized reference: profile, transform, trace, simulate.

use guardspec_core::transform_program;
use guardspec_harness::{full_json, run_experiment, stable_json, ExperimentSpec, RunOptions};
use guardspec_interp::profile::profile_program;
use guardspec_interp::trace::trace_program;
use guardspec_sim::reference::{prepare_program, simulate};
use guardspec_sim::{SimContext, SliceSource};
use guardspec_workloads::Scale;

fn uncached(jobs: usize) -> RunOptions {
    RunOptions {
        jobs,
        cache_dir: None,
        ..RunOptions::default()
    }
}

#[test]
fn three_scheme_matrix_is_jobcount_invariant() {
    let spec = ExperimentSpec::three_schemes("det-test", Scale::Test);
    let serial = run_experiment(&spec, &uncached(1));
    let parallel = run_experiment(&spec, &uncached(8));
    assert_eq!(serial.jobs, 1);
    assert_eq!(parallel.jobs, 8);
    assert_eq!(
        stable_json(&serial).to_pretty(),
        stable_json(&parallel).to_pretty(),
        "results depend on the thread count"
    );
}

#[test]
fn ablation_matrix_is_jobcount_invariant() {
    let spec = ExperimentSpec::ablation("det-ablation", Scale::Test);
    let serial = run_experiment(&spec, &uncached(1));
    let parallel = run_experiment(&spec, &uncached(8));
    assert_eq!(
        stable_json(&serial).to_pretty(),
        stable_json(&parallel).to_pretty()
    );
}

#[test]
fn every_cell_matches_the_materialized_reference() {
    // The reference shares nothing with the harness past the workload
    // definitions: it interprets each cell's program into a plain
    // `Vec<TraceEntry>` and runs the interpreted reference engine over
    // that slice.
    for spec in [
        ExperimentSpec::three_schemes("ref-three", Scale::Test),
        ExperimentSpec::ablation("ref-ablation", Scale::Test),
    ] {
        let r = run_experiment(&spec, &uncached(2));
        let profiles: Vec<_> = spec
            .workloads
            .iter()
            .map(|w| profile_program(&w.program).expect("profiles").0)
            .collect();
        for (w, profile) in spec.workloads.iter().zip(&profiles) {
            assert_eq!(r.profile(w.name).retired, profile.retired, "{}", w.name);
        }
        assert_eq!(r.cells.len(), spec.cells.len());
        for (cell, got) in spec.cells.iter().zip(&r.cells) {
            let w = &spec.workloads[cell.workload];
            let what = format!("{}: {}/{}", spec.name, w.name, cell.label);
            let mut program = w.program.clone();
            if let Some(options) = &cell.transform {
                transform_program(&mut program, &profiles[cell.workload], options);
            }
            let (_, trace, exec) = trace_program(&program).expect("traces");
            let want = simulate(
                &mut SimContext::new(&cell.cfg),
                &prepare_program(&program),
                SliceSource::new(&trace),
                cell.scheme,
                &cell.cfg,
                &mut (),
            )
            .expect("simulates");
            assert_eq!(got.stats, want, "{what}");
            assert_eq!(got.stats.committed_total, exec.summary.retired, "{what}");
        }
    }
}

#[test]
fn full_artifact_carries_meta_and_timings() {
    let spec = ExperimentSpec::three_schemes("meta-test", Scale::Test);
    let r = run_experiment(&spec, &uncached(2));
    let j = full_json(&r);
    let meta = j.get("meta").expect("meta object");
    assert_eq!(
        meta.get("experiment").and_then(|v| v.as_str()),
        Some("meta-test")
    );
    assert_eq!(meta.get("jobs").and_then(|v| v.as_u64()), Some(2));
    assert!(meta.get("wall_ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
    // Every cell records a simulate timing; Proposed cells also a transform.
    let cells = j.get("cells").and_then(|c| c.as_arr()).unwrap();
    assert_eq!(cells.len(), spec.cells.len());
    for cell in cells {
        assert!(cell.get("simulate").is_some());
        assert!(cell.get("stats").is_some());
        if cell.get("scheme").and_then(|s| s.as_str()) == Some("Proposed") {
            assert!(cell.get("transform").is_some());
            assert!(cell.get("report").is_some());
        }
    }
}
