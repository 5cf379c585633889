//! The persistent binary trace cache: runs interpret each distinct program
//! exactly once cold, replay blobs instead of interpreting warm,
//! and treat corrupt or truncated blobs as misses — re-recording them and
//! still producing byte-identical science.

use guardspec_core::DriverOptions;
use guardspec_harness::{key, run_experiment, stable_json, ExperimentSpec, RunOptions};
use guardspec_interp::tracefile::{self, CHECKSUM_LEN};
use guardspec_interp::{Interp, PackedRecorder, StaticLayout, TraceRecorder};
use guardspec_workloads::Scale;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "guardspec-trace-cache-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn opts(dir: &Path) -> RunOptions {
    RunOptions {
        jobs: 2,
        cache_dir: Some(dir.to_path_buf()),
        ..RunOptions::default()
    }
}

/// All cached files whose name matches `pred`, across every shard.
fn cache_files(dir: &Path, pred: impl Fn(&str) -> bool) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for shard in std::fs::read_dir(dir).unwrap() {
        for f in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = f.unwrap().path();
            if path.file_name().and_then(|n| n.to_str()).is_some_and(&pred) {
                out.push(path);
            }
        }
    }
    out
}

/// Distinct programs in a spec = one base program per workload that any
/// untransformed cell uses, plus one per distinct transform.
fn distinct_programs(spec: &ExperimentSpec) -> u64 {
    let bases = spec
        .workloads
        .iter()
        .enumerate()
        .filter(|(wi, _)| {
            spec.cells
                .iter()
                .any(|c| c.workload == *wi && c.transform.is_none())
        })
        .count();
    let transforms = spec.cells.iter().filter(|c| c.transform.is_some()).count();
    (bases + transforms) as u64
}

#[test]
fn cold_interprets_once_per_distinct_program_and_warm_replays_blobs() {
    let dir = scratch("warm");
    let spec = ExperimentSpec::three_schemes("trace-warm", Scale::Test);
    let programs = distinct_programs(&spec);

    let cold = run_experiment(&spec, &opts(&dir));
    assert_eq!(
        cold.interpretations, programs,
        "a cold run must interpret exactly once per distinct program"
    );
    assert!(
        cold.cells.iter().all(|c| !c.trace_timing.cached),
        "cold cells must record an uncached trace stage"
    );
    let blobs = cache_files(&dir, |n| n.starts_with("trace-") && n.ends_with(".bin"));
    assert_eq!(
        blobs.len() as u64,
        programs,
        "one trace blob per distinct program"
    );

    let warm = run_experiment(&spec, &opts(&dir));
    assert_eq!(
        warm.interpretations, 0,
        "warm run must replay blobs, not interpret"
    );
    assert!(
        warm.cells.iter().all(|c| c.trace_timing.cached),
        "warm cells must report trace.cached = true"
    );
    assert_eq!(
        stable_json(&cold).to_pretty(),
        stable_json(&warm).to_pretty(),
        "blob replay changed the science"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_trace_cache_writes_no_blobs() {
    let spec = ExperimentSpec::three_schemes("trace-off", Scale::Test);
    let dir = scratch("nocache");
    let mut o = opts(&dir);
    o.trace_cache = false;
    let cold = run_experiment(&spec, &o);
    assert!(cache_files(&dir, |n| n.ends_with(".bin")).is_empty());
    // Without the blob cache every run re-interprets...
    let again = run_experiment(&spec, &o);
    assert_eq!(again.interpretations, cold.interpretations);
    assert!(again.interpretations > 0);
    // ...but the stage (JSON) cache still works and the science is stable.
    assert_eq!(
        stable_json(&cold).to_pretty(),
        stable_json(&again).to_pretty()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_trace_blobs_are_re_recorded_not_trusted() {
    let dir = scratch("corrupt");
    let spec = ExperimentSpec::three_schemes("trace-corrupt", Scale::Test);
    let cold = run_experiment(&spec, &opts(&dir));
    let programs = distinct_programs(&spec);

    // Vandalise every trace blob AND every cached simulation entry, so the
    // recovery run must actually decode-fail, re-interpret, and re-simulate
    // from the freshly recorded traces.
    let blobs = cache_files(&dir, |n| n.starts_with("trace-") && n.ends_with(".bin"));
    assert!(!blobs.is_empty());
    // Garbage, and blobs resealed with a header naming format version 1.
    fn garbage(_: &[u8]) -> Vec<u8> {
        b"GSTFnot a real trace blob".to_vec()
    }
    fn version_1(bytes: &[u8]) -> Vec<u8> {
        let mut old = bytes.to_vec();
        old[4..6].copy_from_slice(&1u16.to_le_bytes());
        reseal(&mut old);
        assert_eq!(
            tracefile::decode(&old).unwrap_err(),
            tracefile::TraceFileError::BadVersion(1)
        );
        old
    }
    let vandals = [
        ("corrupt", garbage as fn(&[u8]) -> Vec<u8>),
        ("version-1", version_1),
    ];
    for (what, vandal) in vandals {
        for b in &blobs {
            std::fs::write(b, vandal(&std::fs::read(b).unwrap())).unwrap();
        }
        for s in cache_files(&dir, |n| n.starts_with("sim-")) {
            std::fs::write(s, "{\"not\":\"a real entry\"}").unwrap();
        }

        let again = run_experiment(&spec, &opts(&dir));
        assert_eq!(
            again.interpretations, programs,
            "every {what} blob must fall back to one re-interpretation"
        );
        assert_eq!(
            stable_json(&cold).to_pretty(),
            stable_json(&again).to_pretty(),
            "recovery from {what} blobs must recompute identical results"
        );

        // The blobs were re-recorded, so a third run is fully warm again.
        let warm = run_experiment(&spec, &opts(&dir));
        assert_eq!(warm.interpretations, 0, "after {what} blobs");
        assert_eq!(warm.cache_misses, 0, "after {what} blobs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_trace_blobs_fall_back_to_interpretation() {
    let dir = scratch("truncate");
    let spec = ExperimentSpec::three_schemes("trace-trunc", Scale::Test);
    let cold = run_experiment(&spec, &opts(&dir));
    let programs = distinct_programs(&spec);

    for b in cache_files(&dir, |n| n.starts_with("trace-") && n.ends_with(".bin")) {
        let bytes = std::fs::read(&b).unwrap();
        std::fs::write(&b, &bytes[..bytes.len() / 2]).unwrap();
    }
    for s in cache_files(&dir, |n| n.starts_with("sim-")) {
        std::fs::write(s, "{\"not\":\"a real entry\"}").unwrap();
    }

    let again = run_experiment(&spec, &opts(&dir));
    assert_eq!(again.interpretations, programs);
    assert_eq!(
        stable_json(&cold).to_pretty(),
        stable_json(&again).to_pretty(),
        "recovery from truncated blobs must recompute identical results"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-encode a blob with every site id shifted `shift` places up and a
/// header that claims `u32::MAX` sites but keeps the layout digest, with a
/// valid checksum: a blob that decodes cleanly yet names sites the program
/// does not have.
fn shift_site_ids(blob: &[u8], shift: u32) -> Vec<u8> {
    let d = tracefile::decode(blob).expect("a recorded blob decodes");
    let shifted = d.trace.iter().map(|mut e| {
        e.id += shift;
        e
    });
    // The layout only fills in the header fields overwritten below.
    let any = StaticLayout::build(&guardspec_workloads::all_workloads(Scale::Test)[0].program);
    let mut out = tracefile::encode(&any, shifted, d.exec_digest);
    out[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    out[12..20].copy_from_slice(&blob[12..20]);
    reseal(&mut out);
    out
}

/// Recompute a blob's checksum after an edit.
fn reseal(blob: &mut [u8]) {
    let end = blob.len() - CHECKSUM_LEN;
    let sum = tracefile::checksum(&blob[..end]);
    blob[end..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn blobs_naming_sites_past_the_program_are_misses() {
    let dir = scratch("sites");
    let spec = ExperimentSpec::three_schemes("trace-sites", Scale::Test);
    let cold = run_experiment(&spec, &opts(&dir));
    let programs = distinct_programs(&spec);

    for b in cache_files(&dir, |n| n.starts_with("trace-") && n.ends_with(".bin")) {
        let bytes = std::fs::read(&b).unwrap();
        let num_sites = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let shifted = shift_site_ids(&bytes, num_sites);
        let d = tracefile::decode(&shifted).expect("a checksummed blob decodes");
        assert!(d.trace.iter().all(|e| e.id >= num_sites));
        std::fs::write(&b, shifted).unwrap();
    }
    for s in cache_files(&dir, |n| n.starts_with("sim-")) {
        std::fs::write(s, "{\"not\":\"a real entry\"}").unwrap();
    }

    let again = run_experiment(&spec, &opts(&dir));
    assert_eq!(
        again.interpretations, programs,
        "every blob with foreign site ids must fall back to one re-interpretation"
    );
    assert_eq!(
        stable_json(&cold).to_pretty(),
        stable_json(&again).to_pretty(),
        "recovery from foreign site ids must recompute identical results"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn small_traces_pack_exactly_into_at_most_1_25_bytes_an_entry() {
    for w in guardspec_workloads::all_workloads(Scale::Small) {
        let (profile, _) = guardspec_interp::profile::profile_program(&w.program).expect("runs");
        let mut proposed = w.program.clone();
        guardspec_core::transform_program(&mut proposed, &profile, &DriverOptions::proposed());
        for (what, program) in [("base", &w.program), ("proposed", &proposed)] {
            let mut packer = PackedRecorder::new(program);
            let mut flat = TraceRecorder::new(program);
            let res = Interp::new(program)
                .run_with(&mut (&mut packer, &mut flat))
                .expect("runs");
            let trace = packer.finish(0);
            let name = format!("{} {what}", w.name);
            assert_eq!(trace.len(), res.summary.retired, "{name}");
            assert!(trace.iter().eq(flat.entries.iter().copied()), "{name}");
            let d = tracefile::decode(trace.blob()).expect("a recorded blob decodes");
            assert!(d.trace.iter().eq(flat.entries.iter().copied()), "{name}");
            assert_eq!(
                trace.heap_bytes(),
                trace.blob().len(),
                "{name}: the packed trace holds exactly its blob"
            );
            let per_entry = trace.blob().len() as f64 / trace.len() as f64;
            assert!(per_entry <= 1.25, "{name}: {per_entry:.3} B/entry");
        }
    }
}

#[test]
fn stage_times_tile_the_wall_time() {
    let dir = scratch("tiling");
    let spec = ExperimentSpec::three_schemes("trace-tiling", Scale::Test);
    let r = run_experiment(
        &spec,
        &RunOptions {
            jobs: 1,
            ..opts(&dir)
        },
    );
    // Each stage once: a profile per workload, a transform and a trace per
    // distinct program, a simulation per cell.
    let mut total: f64 = r.workloads.iter().map(|w| w.timing.ms).sum();
    let mut seen = HashSet::new();
    for (cell, res) in spec.cells.iter().zip(&r.cells) {
        let program = (
            cell.workload,
            cell.transform.as_ref().map(key::describe_options),
        );
        if seen.insert(program) {
            total += res.transform_timing.map_or(0.0, |t| t.ms);
            total += res.trace_timing.ms;
        }
        total += res.sim_timing.ms;
    }
    assert!(
        total <= r.wall_ms,
        "stage times sum to {total:.3} ms, past the {:.3} ms wall",
        r.wall_ms
    );
    let _ = std::fs::remove_dir_all(&dir);
}
