//! Observability determinism: with cycle accounting and span recording on,
//! the per-cell accounting, the decision log, and the stable artifact must
//! be byte-identical across worker counts, and the
//! emitted Chrome trace document must validate.  With observability off,
//! nothing about the stable artifact changes (no `accounting` fields).

use guardspec_harness::{
    chrome_trace_json, run_experiment, stable_json, validate_chrome_trace, ExperimentResult,
    ExperimentSpec, RunOptions,
};
use guardspec_workloads::Scale;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "guardspec-observability-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn observed_run(tag: &str, jobs: usize) -> ExperimentResult {
    let dir = scratch(tag);
    let opts = RunOptions {
        jobs,
        cache_dir: Some(dir.clone()),
        observe: true,
        trace_spans: true,
        ..RunOptions::default()
    };
    let spec = ExperimentSpec::three_schemes("obs-test", Scale::Test);
    let result = run_experiment(&spec, &opts);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The full decision log, one line per visited branch, in artifact order.
fn decision_log(r: &ExperimentResult) -> String {
    let mut out = String::new();
    for c in &r.cells {
        let Some(report) = &c.report else { continue };
        for d in &report.decisions {
            out.push_str(&format!("{}/{}: {}\n", c.workload, c.label, d.log_line()));
        }
    }
    out
}

#[test]
fn accounting_and_decision_log_identical_across_jobs() {
    let base = observed_run("j1", 1);

    // Every cell carries accounting that satisfies the bucket-sum and
    // per-site invariants, and the driver logged a decision with a reason
    // for every visited loop branch of every transformed cell.
    assert!(!base.cells.is_empty());
    for c in &base.cells {
        let acct = c.accounting.as_ref().expect("observed run has accounting");
        acct.check(&c.stats);
        if let Some(report) = &c.report {
            assert!(
                !report.decisions.is_empty(),
                "{}/{}: transform visited no branches",
                c.workload,
                c.label
            );
            for d in &report.decisions {
                assert!(!d.reason.is_empty(), "decision without reason");
            }
        }
    }
    let base_stable = stable_json(&base).to_pretty();
    let base_log = decision_log(&base);
    assert!(!base_log.is_empty(), "no decisions logged at all");

    let r = observed_run("j8", 8);
    assert_eq!(
        base_stable,
        stable_json(&r).to_pretty(),
        "stable artifact differs between jobs=1 and jobs=8"
    );
    assert_eq!(
        base_log,
        decision_log(&r),
        "decision log differs between jobs=1 and jobs=8"
    );
}

#[test]
fn recorded_spans_form_a_valid_chrome_trace() {
    let r = observed_run("trace", 2);
    assert!(!r.spans.is_empty(), "trace_spans run recorded no spans");
    let doc = chrome_trace_json(&r.spans, &r.metrics);
    validate_chrome_trace(&doc).unwrap();
    // And it survives a print/parse round trip (what `--trace-out` writes
    // and `report --check-trace` reads).
    let parsed = guardspec_harness::json::parse(&doc.to_pretty()).unwrap();
    validate_chrome_trace(&parsed).unwrap();
}

#[test]
fn observability_off_leaves_the_stable_artifact_unchanged() {
    let dir = scratch("off");
    let spec = ExperimentSpec::three_schemes("obs-test", Scale::Test);
    let plain = run_experiment(
        &spec,
        &RunOptions {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            ..RunOptions::default()
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(plain.cells.iter().all(|c| c.accounting.is_none()));
    assert!(plain.spans.is_empty());
    let text = stable_json(&plain).to_pretty();
    assert!(
        !text.contains("cycle_buckets") && !text.contains("top_sites"),
        "unobserved artifact must not carry accounting fields"
    );

    // An observed run of the same spec reports the same science: stripping
    // the accounting fields from its stable artifact is not required to be
    // equal (it has extra fields), but stats themselves must match.
    let observed = observed_run("off-vs-on", 2);
    assert_eq!(plain.cells.len(), observed.cells.len());
    for (p, o) in plain.cells.iter().zip(&observed.cells) {
        assert_eq!(
            p.stats, o.stats,
            "{}/{}: observer changed stats",
            p.workload, p.label
        );
    }
}
