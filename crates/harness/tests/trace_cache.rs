//! The persistent binary trace cache: fan-out runs interpret each distinct
//! program exactly once cold, replay blobs instead of interpreting warm,
//! and treat corrupt or truncated blobs as misses — re-recording them and
//! still producing byte-identical science.

use guardspec_harness::{key, run_experiment, stable_json, ExperimentSpec, RunOptions};
use guardspec_interp::tracefile::{self, CHECKSUM_LEN, HEADER_LEN};
use guardspec_interp::{Interp, PackedRecorder};
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
fn fanout_interprets_once_per_distinct_program_and_warm_replays_blobs() {
    let dir = scratch("warm");
    let spec = ExperimentSpec::three_schemes("trace-warm", Scale::Test);
    let programs = distinct_programs(&spec);

    let cold = run_experiment(&spec, &opts(&dir));
    assert_eq!(
        cold.interpretations, programs,
        "cold fan-out must interpret exactly once per distinct program"
    );
    assert!(
        cold.cells
            .iter()
            .all(|c| c.trace_timing.is_some_and(|t| !t.cached)),
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
        warm.cells
            .iter()
            .all(|c| c.trace_timing.is_some_and(|t| t.cached)),
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
fn no_fanout_and_no_trace_cache_write_no_blobs() {
    let dir = scratch("nofanout");
    let spec = ExperimentSpec::three_schemes("trace-off", Scale::Test);
    let mut o = opts(&dir);
    o.fanout = false;
    let r = run_experiment(&spec, &o);
    assert!(r.cells.iter().all(|c| c.trace_timing.is_none()));
    assert!(cache_files(&dir, |n| n.ends_with(".bin")).is_empty());
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch("nocache");
    let mut o = opts(&dir);
    o.trace_cache = false;
    let cold = run_experiment(&spec, &o);
    assert!(cache_files(&dir, |n| n.ends_with(".bin")).is_empty());
    // Without the blob cache every fan-out run re-interprets...
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
    for b in &blobs {
        std::fs::write(b, b"GSTFnot a real trace blob").unwrap();
    }
    for s in cache_files(&dir, |n| n.starts_with("sim-")) {
        std::fs::write(s, "{\"not\":\"a real entry\"}").unwrap();
    }

    let again = run_experiment(&spec, &opts(&dir));
    assert_eq!(
        again.interpretations, programs,
        "every corrupt blob must fall back to one re-interpretation"
    );
    assert_eq!(
        stable_json(&cold).to_pretty(),
        stable_json(&again).to_pretty(),
        "recovery from corrupt blobs must recompute identical results"
    );

    // The blobs were re-recorded, so a third run is fully warm again.
    let warm = run_experiment(&spec, &opts(&dir));
    assert_eq!(warm.interpretations, 0);
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

/// Read the varint at `bytes[*pos..]`.
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Re-frame a blob so every site id is shifted `shift` places up and the
/// header claims `u32::MAX` sites, with a valid checksum: a blob that
/// decodes cleanly yet names sites the program does not have.
fn shift_site_ids(blob: &[u8], shift: u64) -> Vec<u8> {
    let body_end = blob.len() - CHECKSUM_LEN;
    let mut out = blob[..HEADER_LEN + 1].to_vec();
    out[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    // Ids are deltas, so moving the first entry's id moves them all.
    let mut pos = HEADER_LEN + 1;
    let first = read_varint(blob, &mut pos);
    assert_eq!(first % 2, 0, "first id delta is non-negative");
    push_varint(&mut out, first + 2 * shift);
    out.extend_from_slice(&blob[pos..body_end]);
    let sum = tracefile::checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
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
        let shifted = shift_site_ids(&bytes, num_sites as u64);
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
fn packed_traces_are_their_blobs_at_under_three_bytes_an_entry() {
    for w in guardspec_workloads::all_workloads(Scale::Small) {
        let mut rec = PackedRecorder::new(&w.program);
        let res = Interp::new(&w.program).run_with(&mut rec).expect("runs");
        let trace = rec.finish(0);
        assert_eq!(trace.len(), res.summary.retired, "{}", w.name);
        assert_eq!(
            trace.heap_bytes(),
            trace.blob().len(),
            "{}: the packed trace holds exactly its blob",
            w.name
        );
        let per_entry = trace.blob().len() as f64 / trace.len() as f64;
        assert!(per_entry <= 3.0, "{}: {per_entry:.2} B/entry", w.name);
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
            total += res.trace_timing.expect("fan-out cells have a trace").ms;
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
