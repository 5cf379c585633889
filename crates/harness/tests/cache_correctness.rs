//! Cache correctness: a cold run and a warm run of the same spec must
//! produce byte-identical stable artifacts, and the warm run must perform
//! zero re-profiles / re-transforms / re-simulations (every stage a hit)
//! and read no trace blob and no program text, since no cell needs them.

use guardspec_harness::key::ProgramDigest;
use guardspec_harness::{
    json, run_experiment, stable_json, ExperimentResult, ExperimentSpec, Json, RunOptions,
};
use guardspec_sim::{SampleParams, SimStats};
use guardspec_workloads::Scale;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "guardspec-harness-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn cold_then_warm_is_byte_identical_and_fully_cached() {
    let dir = scratch("coldwarm");
    let opts = RunOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..RunOptions::default()
    };

    let spec = ExperimentSpec::three_schemes("cache-test", Scale::Test);
    // Per workload: one profile lookup.  Per distinct transform: one
    // transform lookup.  Plus one simulation lookup per cell.  A cold run
    // also looks up each program's trace blob (every workload has
    // untransformed 2-bit/perfect cells), since its cells all miss; a warm
    // run needs no trace.
    let transforms = spec.cells.iter().filter(|c| c.transform.is_some()).count();
    let stages = spec.workloads.len() + transforms + spec.cells.len();
    let blobs = spec.workloads.len() + transforms;

    let cold = run_experiment(&spec, &opts);
    assert_eq!(cold.cache_hits, 0, "cold run must not hit");
    assert_eq!(
        cold.cache_misses as usize,
        stages + blobs,
        "cold run misses once per stage and once per trace blob"
    );
    assert!(cold.workloads.iter().all(|w| !w.timing.cached));
    assert!(cold.cells.iter().all(|c| !c.sim_timing.cached));
    let files: usize = std::fs::read_dir(&dir)
        .unwrap()
        .map(|shard| std::fs::read_dir(shard.unwrap().path()).unwrap().count())
        .sum();
    assert_eq!(files, stages + blobs, "one file per lookup that missed");

    let warm = run_experiment(&spec, &opts);
    assert_eq!(warm.cache_misses, 0, "warm run must recompute nothing");
    assert_eq!(
        warm.cache_hits as usize, stages,
        "warm run hits once per stage and reads no blob"
    );
    assert!(
        warm.workloads.iter().all(|w| w.timing.cached),
        "no re-profiles"
    );
    assert!(
        warm.cells.iter().all(|c| c.sim_timing.cached),
        "no re-simulations"
    );
    assert!(transforms_cached(&warm), "no re-transforms");

    // The science is byte-identical regardless of cache temperature.
    assert_eq!(
        stable_json(&cold).to_pretty(),
        stable_json(&warm).to_pretty(),
        "cold and warm stable artifacts differ"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `transform-*` entry under a cache directory.
fn transform_entries(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for shard in std::fs::read_dir(dir).unwrap() {
        for f in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = f.unwrap().path();
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("transform-"))
            {
                out.push(path);
            }
        }
    }
    out
}

#[test]
fn small_scale_warm_run_replays_every_stage() {
    // The warm path at a real scale.  Transform entries hold the
    // transformed program's digest and report, never its text, so a warm
    // run parses no IR.
    let dir = scratch("small");
    let opts = RunOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let spec = ExperimentSpec::three_schemes("small-cache-test", Scale::Small);
    let cold = run_experiment(&spec, &opts);
    assert!(cold.cache_misses > 0);

    let entries = transform_entries(&dir);
    assert!(!entries.is_empty(), "no transform entries cached");
    for path in &entries {
        let j = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Json::Obj(pairs) = &j else {
            panic!("{} is not an object", path.display())
        };
        let fields: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(fields, ["digest", "report"], "{}", path.display());
        let digest = j.get("digest").and_then(Json::as_str).unwrap();
        assert!(ProgramDigest::parse(digest).is_ok(), "{}", path.display());
    }

    let warm = run_experiment(&spec, &opts);
    assert_eq!(warm.cache_misses, 0, "warm run must recompute nothing");
    assert_eq!(warm.interpretations, 0, "warm run must not interpret");
    assert_eq!(
        stable_json(&cold).to_pretty(),
        stable_json(&warm).to_pretty(),
        "cold and warm stable artifacts differ at small scale"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whether every cell's transform (if any) came from the cache.
fn transforms_cached(r: &ExperimentResult) -> bool {
    r.cells
        .iter()
        .all(|c| c.transform_timing.is_none_or(|t| t.cached))
}

#[test]
fn transform_entries_without_a_digest_are_recomputed_once() {
    // Transform entries used to hold the printed program, some with a
    // `bin` hex copy of its encoding beside it, and no digest.  Such an
    // entry is a miss, whatever program it holds: it is recomputed once
    // and rewritten, and the science is unchanged.
    let dir = scratch("legacy");
    let opts = RunOptions {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let spec = ExperimentSpec::three_schemes("legacy-test", Scale::Test);
    let cold = run_experiment(&spec, &opts);

    let program = &spec.workloads[0].program;
    let bin: String = guardspec_ir::encode::encode_program(program)
        .iter()
        .map(|w| format!("{w:08x}"))
        .collect();
    let entries = transform_entries(&dir);
    let written: Vec<String> = entries
        .iter()
        .map(|path| std::fs::read_to_string(path).unwrap())
        .collect();
    for (i, (path, entry)) in entries.iter().zip(&written).enumerate() {
        let report = json::parse(entry).unwrap().get("report").unwrap().clone();
        let mut legacy = vec![("program", Json::str(program.to_string()))];
        if i % 2 == 1 {
            legacy.push(("bin", Json::str(&bin)));
        }
        legacy.push(("report", report));
        std::fs::write(path, Json::obj(legacy).to_compact()).unwrap();
    }

    let again = run_experiment(&spec, &opts);
    assert_eq!(
        (again.cache_misses, again.interpretations),
        (0, 0),
        "a recomputed transform's cells hit their sim entries"
    );
    for c in &again.cells {
        let cached = c.transform_timing.map(|t| t.cached);
        assert_ne!(cached, Some(true), "{} not recomputed", c.workload);
    }
    assert_eq!(
        stable_json(&cold).to_pretty(),
        stable_json(&again).to_pretty()
    );
    for (path, entry) in entries.iter().zip(&written) {
        assert_eq!(
            &std::fs::read_to_string(path).unwrap(),
            entry,
            "{} not rewritten as the cold run wrote it",
            path.display()
        );
    }

    let warm = run_experiment(&spec, &opts);
    assert_eq!(warm.cache_misses, 0);
    assert!(transforms_cached(&warm), "recomputed more than once");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_transform_entry_naming_another_program_is_discarded_at_its_first_miss() {
    // An entry whose digest is not its transform's program (say, written
    // before the transform changed) keys the program's cells under the
    // wrong program.  The first cell that misses rebuilds the program,
    // finds another digest, rewrites the entry and walks the cells again
    // under the right one, so no artifact mixes two programs.
    let dir = scratch("stale");
    let opts = RunOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let spec = ExperimentSpec::three_schemes("stale-test", Scale::Test);
    let cold = run_experiment(&spec, &opts);

    // Every entry names workload 0's base program, which has no entry for
    // the proposed scheme, so each proposed cell misses.
    let other = ProgramDigest::of(&spec.workloads[0].program.to_string());
    let entries = transform_entries(&dir);
    let written: Vec<String> = entries
        .iter()
        .map(|path| std::fs::read_to_string(path).unwrap())
        .collect();
    for (path, entry) in entries.iter().zip(&written) {
        let report = json::parse(entry).unwrap().get("report").unwrap().clone();
        let stale = Json::obj(vec![
            ("digest", Json::str(other.as_str())),
            ("report", report),
        ]);
        std::fs::write(path, stale.to_compact()).unwrap();
    }

    let again = run_experiment(&spec, &opts);
    let transforms = entries.len() as u64;
    assert_eq!(
        (again.cache_misses, again.interpretations),
        (transforms, 0),
        "one sim miss per stale entry, and the right program's entries hit"
    );
    assert_eq!(
        stable_json(&cold).to_pretty(),
        stable_json(&again).to_pretty()
    );
    for (path, entry) in entries.iter().zip(&written) {
        assert_eq!(&std::fs::read_to_string(path).unwrap(), entry);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profiles_are_shared_not_recomputed_within_a_run() {
    // The ablation matrix derives 5 transforms per workload from ONE
    // profile.  Every distinct stage is consulted exactly once; the only
    // permissible cold-run hits are simulation cells whose transformed
    // program happens to coincide with an earlier cell's (two presets can
    // produce identical code), in which case the cache shares the result
    // instead of re-simulating, and trace blobs of such programs.
    let dir = scratch("shared");
    let opts = RunOptions {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let spec = ExperimentSpec::ablation("share-test", Scale::Test);
    let cold = run_experiment(&spec, &opts);
    // Every ablation cell is a distinct transform of its own, so a cell
    // whose sim entry misses is one program whose trace blob is looked
    // up; a cell that hits reads no trace.  No base traces are needed.
    let sim_misses = cold.cells.iter().filter(|c| !c.sim_timing.cached).count();
    let stages = spec.workloads.len() + 2 * spec.cells.len() + sim_misses;
    assert_eq!((cold.cache_hits + cold.cache_misses) as usize, stages);
    // Profiles and transforms all have distinct keys, so they all miss.
    let min_misses = spec.workloads.len() + spec.cells.len();
    assert!(
        (cold.cache_misses as usize) >= min_misses,
        "misses {} < {min_misses}",
        cold.cache_misses
    );
    // A warm rerun recomputes nothing at all.
    let warm = run_experiment(&spec, &opts);
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(
        stable_json(&cold).to_pretty(),
        stable_json(&warm).to_pretty()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_sim_entries_recompute_from_cached_transforms() {
    // Regression: vandalise ONLY the simulation entries, leaving profiles
    // and transforms cached.  The recompute then simulates programs
    // rebuilt from the cached profiles, since transform entries hold no
    // program: the rebuild must give the program the cold run traced, or
    // the rerun miscomputes and the golden check fires.
    let dir = scratch("simonly");
    let opts = RunOptions {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let spec = ExperimentSpec::three_schemes("simonly-test", Scale::Test);
    let cold = run_experiment(&spec, &opts);

    let mut vandalized = 0;
    for shard in std::fs::read_dir(&dir).unwrap() {
        for f in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = f.unwrap().path();
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("sim-"))
            {
                std::fs::write(&path, "{\"not\":\"a real entry\"}").unwrap();
                vandalized += 1;
            }
        }
    }
    assert!(vandalized > 0, "no sim entries found to vandalise");

    let again = run_experiment(&spec, &opts);
    assert_eq!(
        stable_json(&cold).to_pretty(),
        stable_json(&again).to_pretty(),
        "sim-only recovery must recompute identical results"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entries_are_recomputed_not_trusted() {
    let dir = scratch("corrupt");
    let opts = RunOptions {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let spec = ExperimentSpec::three_schemes("corrupt-test", Scale::Test);
    let cold = run_experiment(&spec, &opts);

    // Vandalise every cached entry.
    for shard in std::fs::read_dir(&dir).unwrap() {
        for f in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            std::fs::write(f.unwrap().path(), "{\"not\":\"a real entry\"}").unwrap();
        }
    }

    let again = run_experiment(&spec, &opts);
    assert_eq!(
        stable_json(&cold).to_pretty(),
        stable_json(&again).to_pretty(),
        "recovery run must recompute identical results"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn race_lost(r: &ExperimentResult) -> u64 {
    r.metrics
        .iter()
        .find(|(k, _)| k == "cache.race_lost")
        .map_or(0, |&(_, v)| v)
}

/// One cache directory shared by every mode: each run replays what earlier
/// runs of any mode stored, an observed run seeds the unobserved entry only
/// when it is absent, and no run rewrites an existing entry (which would
/// count as a lost race).
#[test]
fn one_cache_dir_serves_every_mode() {
    let spec = ExperimentSpec::three_schemes("modes-test", Scale::Test);
    // Test traces are ~10k entries; size the sampling windows to them.
    let sample = SampleParams {
        detail: 50,
        warmup: 50,
        interval: 1000,
    };
    // Runs in order, each in the same fresh directory:
    // (observe, sampled, cache hits, cache misses, interpretations).
    type Run = (bool, bool, u64, u64, u64);
    // A cold run looks up 4 profiles, 4 transforms, 8 trace blobs and 12
    // sim entries.  A run that misses every sim entry also reads every
    // blob; a fully warm run reads none.
    let a: &[Run] = &[
        (true, false, 0, 28, 8),
        (false, false, 20, 0, 0),
        (true, false, 20, 0, 0),
    ];
    let b: &[Run] = &[
        (false, false, 0, 28, 8),
        (true, false, 16, 12, 0),
        (false, false, 20, 0, 0),
        (false, true, 16, 12, 0),
        (true, true, 16, 12, 0),
        (false, true, 20, 0, 0),
    ];
    for (tag, runs) in [("a", a), ("b", b)] {
        let dir = scratch(&format!("modes-{tag}"));
        let mut exact: Option<Vec<SimStats>> = None;
        let mut sampled_stats: Option<Vec<SimStats>> = None;
        let mut plain_artifact: Option<String> = None;
        for (i, &(observe, sampled, hits, misses, interps)) in runs.iter().enumerate() {
            let what = format!("sequence {tag} run {i} (observe={observe}, sampled={sampled})");
            let r = run_experiment(
                &spec,
                &RunOptions {
                    jobs: 1,
                    cache_dir: Some(dir.clone()),
                    observe,
                    sample: sampled.then_some(sample),
                    ..RunOptions::default()
                },
            );
            assert_eq!(
                (
                    r.cache_hits,
                    r.cache_misses,
                    r.interpretations,
                    race_lost(&r)
                ),
                (hits, misses, interps, 0),
                "{what}: (hits, misses, interpretations, race_lost)"
            );
            for c in &r.cells {
                assert_eq!(c.accounting.is_some(), observe, "{what}: {}", c.label);
                assert_eq!(c.sampling.is_some(), sampled, "{what}: {}", c.label);
            }
            let stats: Vec<SimStats> = r.cells.iter().map(|c| c.stats.clone()).collect();
            let first = if sampled {
                &mut sampled_stats
            } else {
                &mut exact
            };
            assert_eq!(
                first.get_or_insert_with(|| stats.clone()),
                &stats,
                "{what}: stats differ from the first run of this mode"
            );
            if !observe && !sampled {
                let artifact = stable_json(&r).to_pretty();
                assert_eq!(
                    plain_artifact.get_or_insert_with(|| artifact.clone()),
                    &artifact,
                    "{what}: plain stable artifact differs"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
