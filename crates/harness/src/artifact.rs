//! Run artifacts: `results/BENCH_<n>.json`.
//!
//! Two views of an [`ExperimentResult`]:
//!
//! * [`stable_json`] — only the *science*: workload profiles, transform
//!   report counts and simulator statistics, in spec order.  A cold run and
//!   a warm (fully cached) run of the same spec produce **byte-identical**
//!   stable JSON; the cache-correctness tests diff exactly this.
//! * [`full_json`] — the stable payload plus a `meta` object (jobs,
//!   wall-clock, cache hit/miss counters) and per-stage wall times, which
//!   naturally differ run to run.
//!
//! [`emit_bench_artifact`] claims the first free `BENCH_<n>.json` under the
//! results directory with `O_EXCL`, so concurrent binaries never clobber
//! each other's artifacts.

use crate::codec;
use crate::json::Json;
use crate::key::scale_tag;
use crate::runner::{CellResult, ExperimentResult, StageTiming, WorkloadResult};
use std::io::Write;
use std::path::{Path, PathBuf};

fn workload_stable(w: &WorkloadResult) -> Vec<(&'static str, Json)> {
    vec![
        ("name", Json::str(&w.name)),
        ("retired", Json::U64(w.profile.retired)),
        ("annulled", Json::U64(w.profile.annulled)),
        (
            "branch_sites",
            Json::U64(w.profile.num_branch_sites() as u64),
        ),
    ]
}

/// Sites listed per cell under `top_sites` (most recovery cycles first).
const TOP_SITES_K: usize = 8;

fn cell_stable(c: &CellResult) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("workload", Json::str(&c.workload)),
        ("label", Json::str(&c.label)),
        ("scheme", Json::str(c.scheme.label())),
    ];
    if let Some(report) = &c.report {
        fields.push(("report", codec::report_to_json(report)));
    }
    fields.push(("stats", codec::stats_to_json(&c.stats)));
    if let Some(s) = &c.sampling {
        // Only present on `--sample` runs: exact runs carry no sampling
        // fields at all, so their stable payloads stay byte-identical to
        // every pre-sampling artifact.
        fields.push((
            "sampling",
            Json::obj(vec![
                ("windows", Json::U64(s.windows)),
                ("detail", Json::U64(s.detail)),
                ("warmup", Json::U64(s.warmup)),
                ("interval", Json::U64(s.interval)),
                ("measured_entries", Json::U64(s.measured_entries)),
                ("total_entries", Json::U64(s.total_entries)),
                ("ipc_mean", Json::F64(s.ipc_mean)),
                ("ipc_ci95", Json::F64(s.ipc_ci95)),
                ("est_cycles", Json::U64(s.est_cycles)),
            ]),
        ));
    }
    if let Some(acct) = &c.accounting {
        fields.push((
            "cycle_buckets",
            Json::Obj(
                guardspec_sim::CycleBucket::ALL
                    .into_iter()
                    .map(|b| (b.name().to_string(), Json::U64(acct.bucket(b))))
                    .collect(),
            ),
        ));
        fields.push((
            "top_sites",
            Json::Arr(
                acct.top_sites(TOP_SITES_K)
                    .into_iter()
                    .map(|(id, s)| {
                        Json::obj(vec![
                            ("id", Json::U64(id as u64)),
                            ("executions", Json::U64(s.executions)),
                            ("mispredicts", Json::U64(s.mispredicts)),
                            ("likely_mispredicts", Json::U64(s.likely_mispredicts)),
                            ("recovery_cycles", Json::U64(s.recovery_cycles)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    fields
}

fn timing_json(t: StageTiming) -> Json {
    Json::obj(vec![
        ("ms", Json::F64(t.ms)),
        ("cached", Json::Bool(t.cached)),
    ])
}

/// The deterministic result payload (no timings, no machine-local meta).
pub fn stable_json(r: &ExperimentResult) -> Json {
    Json::obj(vec![
        ("experiment", Json::str(&r.name)),
        ("scale", Json::str(scale_tag(r.scale))),
        (
            "workloads",
            Json::Arr(
                r.workloads
                    .iter()
                    .map(|w| Json::obj(workload_stable(w)))
                    .collect(),
            ),
        ),
        (
            "cells",
            Json::Arr(r.cells.iter().map(|c| Json::obj(cell_stable(c))).collect()),
        ),
    ])
}

/// The complete artifact: stable payload + meta + per-stage timings.
pub fn full_json(r: &ExperimentResult) -> Json {
    let mut meta_fields = vec![
        ("experiment", Json::str(&r.name)),
        ("scale", Json::str(scale_tag(r.scale))),
        ("jobs", Json::U64(r.jobs as u64)),
        ("wall_ms", Json::F64(r.wall_ms)),
        ("cache_hits", Json::U64(r.cache_hits)),
        ("cache_misses", Json::U64(r.cache_misses)),
        ("interpretations", Json::U64(r.interpretations)),
    ];
    if !r.metrics.is_empty() {
        meta_fields.push((
            "metrics",
            Json::Obj(
                r.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::U64(*v)))
                    .collect(),
            ),
        ));
    }
    let meta = Json::obj(meta_fields);
    let workloads = r
        .workloads
        .iter()
        .map(|w| {
            let mut fields = workload_stable(w);
            fields.push(("profile", timing_json(w.timing)));
            Json::obj(fields)
        })
        .collect();
    let cells = r
        .cells
        .iter()
        .map(|c| {
            let mut fields = cell_stable(c);
            if let Some(t) = c.transform_timing {
                fields.push(("transform", timing_json(t)));
            }
            fields.push(("trace", timing_json(c.trace_timing)));
            fields.push(("simulate", timing_json(c.sim_timing)));
            Json::obj(fields)
        })
        .collect();
    Json::obj(vec![
        ("meta", meta),
        ("workloads", Json::Arr(workloads)),
        ("cells", Json::Arr(cells)),
    ])
}

/// Write pretty JSON to an explicit path (the `--json <path>` flag).
pub fn write_json_file(path: &Path, json: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json.to_pretty())
}

/// Write the full artifact to the first free `BENCH_<n>.json` under
/// `results_dir` (n counts up from 1) and return its path.
pub fn emit_bench_artifact(results_dir: &Path, r: &ExperimentResult) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(results_dir)?;
    let body = full_json(r).to_pretty();
    for n in 1u32.. {
        let path = results_dir.join(format!("BENCH_{n}.json"));
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                f.write_all(body.as_bytes())?;
                return Ok(path);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!("u32 exhausted")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_numbering_skips_existing() {
        let dir =
            std::env::temp_dir().join(format!("guardspec-artifact-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = ExperimentResult {
            name: "t".into(),
            scale: guardspec_workloads::Scale::Test,
            jobs: 1,
            wall_ms: 0.0,
            cache_hits: 0,
            cache_misses: 0,
            interpretations: 0,
            workloads: Vec::new(),
            cells: Vec::new(),
            spans: Vec::new(),
            metrics: vec![("sim.block_build_us".to_string(), 2)],
        };
        let p1 = emit_bench_artifact(&dir, &r).unwrap();
        let p2 = emit_bench_artifact(&dir, &r).unwrap();
        assert_eq!(p1.file_name().unwrap(), "BENCH_1.json");
        assert_eq!(p2.file_name().unwrap(), "BENCH_2.json");
        // The artifact parses and carries the meta block.
        let text = std::fs::read_to_string(&p1).unwrap();
        let j = crate::json::parse(&text).unwrap();
        assert_eq!(
            j.get("meta")
                .and_then(|m| m.get("experiment"))
                .and_then(Json::as_str),
            Some("t")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
