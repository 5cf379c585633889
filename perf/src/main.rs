//! `perf` — guardspec's benchmark: five workloads measured end to end,
//! a traced per-layer breakdown of the same workloads, and a paired
//! comparison of two runs.
//!
//! It is a package of its own (`perf/Cargo.toml`, not a member of the
//! root workspace) and measures the repository's crates from outside,
//! through calls that later refactors are not expected to break:
//! `run_experiment` with only `jobs`, `cache_dir` and `trace_spans` set;
//! `DiskCache`, `json`, `codec`, `tracefile`, `ir::encode`,
//! `core::transform_program`, `http::try_parse` and
//! `protocol::request_from_json`; and the `/run` and `/metrics` endpoints
//! of an in-process `gsd`.  It adds no tracing inside the program: the
//! per-layer numbers come from the runner's existing stage spans and from
//! timing those calls.
//!
//! # Running it
//!
//! From the repository root (add `CARGO_TARGET_DIR=...` as you like):
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml                 # full run, 10 interleaved rounds
//! cargo run --release --manifest-path perf/Cargo.toml -- --record     #   ... appended to results/perf/trajectory.json
//! cargo run --release --manifest-path perf/Cargo.toml -- --out run.json
//! cargo run --release --manifest-path perf/Cargo.toml -- --trace 1    # per-layer: results/perf/traced.json + trace-<workload>.json
//! cargo run --release --manifest-path perf/Cargo.toml -- --compare base.json change.json
//! cargo run --release --manifest-path perf/Cargo.toml -- --workload W --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perf/Cargo.toml -- --write-expected
//! ```
//!
//! * **Full run** (no mode flag; `--seed`, default 1): each of 10 rounds
//!   runs one child per workload, one at a time, rotating the workload
//!   order each round, so a burst of host noise is spread over every
//!   workload.  It prints a table of per-round medians and quartiles for
//!   every (workload, metric), and the rep wall time of each workload
//!   pooled over the run as a median, the highest percentile with ten reps
//!   beyond it, and the rep count.  About a minute on a 2-core host.
//! * **Traced run** (`--trace 1` without `--workload`): one round of
//!   traced children; writes the per-layer metrics and one Chrome trace
//!   per workload (checked with `validate_chrome_trace`; open them at
//!   ui.perfetto.dev).
//! * **Single workload** (`--workload`): children of one workload until
//!   `--seconds` have passed (within half a child), then one JSON line:
//!   `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//!   metrics, or with `--trace 1` the per-layer metrics.  This is the form
//!   `BENCHMARK.json` runs.
//! * **Compare** (`--compare base change`): each file is a run (`--out`)
//!   or a trajectory (its last run).  Per (workload, metric) it prints
//!   *improved* (the change wins at least 9 of 10 round pairs and its
//!   median beats the base's by more than the base's interquartile
//!   distance), *regressed* (the median is worse by more than the metric's
//!   bound in `BENCHMARK.json`), *unresolved* (neither, and the base's own
//!   spread is wider than the bound) or *unchanged*.  It exits 1 when
//!   anything regressed.
//! * **Expected digests** (`--write-expected`): rewrites
//!   `results/perf/expected.json` from one rep of each offline workload.
//!
//! # Execution model
//!
//! Every measurement runs in a child process (`perf --run <workload>`)
//! that sets up, runs its batch of reps, checks them and prints one JSON
//! line.  Set-up time is the child's time from `main` to its first timed
//! operation.  Each child has a 30 s wall budget; on expiry the parent
//! kills it and counts the whole batch as failed, so a hang (such as the
//! quadratic JSON parse of ROADMAP P0 at a larger scale) becomes failed
//! operations and the run still finishes and prints every metric.  One
//! child runs at a time; offline workloads run with `jobs 1`, and the gsd
//! workload uses 2 daemon workers and 2 client threads, so the load stays
//! within 2 cores.  Children write only under `.perf_scratch/` in the
//! working directory and remove it.
//!
//! `--seed` is the only input that varies: it picks how the config
//! sweep's machine settings combine, and the gsd request pool and stream.
//!
//! # Workloads
//!
//! | workload | reps per child | what it is | why |
//! |---|---|---|---|
//! | `table3_paper_cold` | 1 | Table-3 matrix, 4 workloads × 3 schemes = 12 cells over 8 programs, paper scale, fresh cache per rep | the paper's headline table and the ROADMAP's "<1 s" target; every compute layer runs in production proportions (simulate ≈ 60%, profile, trace and transform ≈ 13% each of stage time) |
//! | `ablation_small_cold` | 2 | the 5 driver presets × 4 workloads = 20 cells, each its own program (19 interpretations), small scale, fresh cache | the title question; transform and trace take about half the stage time, and with one cell per program nothing amortises across cells, so cell batching or fan-out has nothing to act on |
//! | `config_sweep_small_cold` | 2 | per workload, the base and the proposed-transform program, each under 6 machine configs (the R10000 and 5 seeded variations of ROB, BHT, front-end depth and queues): 48 cells over 8 programs, small scale, fresh cache | simulation dominates (≈ 85%) because 6 cells share every trace; sim-engine and cell-batching changes show here and not on the ablation |
//! | `table3_test_warm` | 10 | the Table-3 matrix at test scale against a cache the set-up primes with one cold run: 28 hits, 0 interpretations, 0 simulations per rep | the cache *read* path beside the cold workloads' writes: `DiskCache::get`, JSON parse, `ir` decode and `tracefile` decode.  It stays at test scale until ROADMAP P0 is fixed, because warm small and paper runs do not finish |
//! | `gsd_mix_test` | 10 sessions | an in-process `gsd` (2 workers) on a fresh copy of a primed stage cache per session; 2 keep-alive clients drive it closed-loop (each waits for its reply, as `gsc` callers do) with 200 `/run` requests over 20 distinct test-scale requests (Table 3's untransformed columns, and its 2-bit column alone, × 10 seeded configs; one request adds grep under the proposed transform) | the service path — HTTP parse, the epoll loop, queue, dedup and the response cache: the first request for each of the 20 executes on warm stage entries (10%); the rest are response-cache hits or dedup joins.  Only one pooled cell is transformed, because a warm transformed cell is dominated by the cached transform's JSON parse (ROADMAP P0), which `table3_test_warm` already measures and which swings 2× with host load |
//!
//! # End-to-end metrics
//!
//! One rep is one sweep offline and one 200-request session for gsd; an
//! operation is one sweep offline and one request for gsd.
//!
//! | metric | unit | what | the layer expected to move it |
//! |---|---|---|---|
//! | `setup_s` | s | median over the run's children of the set-up time: spec and program build, cache priming, daemon start, request pool | `workloads` build; priming runs the warm read path |
//! | `sweep_s` | s | the run's fastest rep | every stage layer on the cold workloads; cache read and codec on the warm one; harness and server on gsd |
//! | `sim_minst_per_s` | Minst/s | committed simulated instructions of the fastest rep ÷ its wall time | `sim` on the config sweep and Table 3; the whole pipeline elsewhere |
//! | `cache_mb` | MB | median bytes in the rep's cache directory after the rep | trace blob encoding and the transform entry format |
//! | `peak_rss_mb` | MB | median of the children's `VmHWM` | trace materialisation on the paper-scale workload |
//!
//! The sweep time is the best rep because this host's speed drifts by up
//! to 2× for seconds to minutes at a time (on-CPU time drifts with it, so
//! CPU time is no steadier); the fastest of a run's reps is what repeats
//! across runs.  Failures are counted, not timed: the result line's
//! `failed` of `attempted` operations is the error rate, and a failure is
//! a panic, a timeout, a non-200 response or an artifact that differs
//! from the expected one.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced child runs one untraced and one traced rep back to back (for
//! gsd: one session for the daemon's counters, then the 20 pooled
//! requests offline against the primed cache, untraced and traced).  See
//! the `layers` module for how each is measured; each is reported with the
//! end-to-end metric it should move:
//!
//! * `workloads.build_s` → `setup_s` everywhere.
//! * `ir.print_s` → `sweep_s` on `table3_paper_cold`; `ir.decode_s` →
//!   `sweep_s` on `table3_test_warm`.
//! * `interp.profile_s` → `sweep_s` on `table3_paper_cold`;
//!   `interp.trace_s` and `interp.interpretations` → `sweep_s` on
//!   `ablation_small_cold`; `interp.trace_bytes_per_entry` → `cache_mb` on
//!   `table3_paper_cold`; `interp.tracefile_encode_mb_per_s` → `sweep_s`
//!   on `table3_paper_cold`; `interp.tracefile_decode_mb_per_s` →
//!   `sweep_s` on `table3_test_warm`.
//! * `core.transform_s` → `sweep_s` on `ablation_small_cold` (and on the
//!   warm workloads, where it is the cached transform's JSON parse).
//! * `sim.simulate_s` and `sim.minst_per_s` → `sim_minst_per_s` on
//!   `config_sweep_small_cold`; `sim.block_build_us` → `sweep_s` on
//!   `ablation_small_cold`; `sim.cells_per_trace` is a workload property
//!   (6 on the config sweep, 1 on the ablation) that batching claims must
//!   report.
//! * `harness.cache_put_s` and `harness.cache_put_mb` → `cache_mb` and
//!   `sweep_s` on `table3_paper_cold`; `harness.cache_get_s`,
//!   `harness.cache_get_mb`, `harness.cache_hit_ratio` and
//!   `harness.json_parse_mb_per_s` → `sweep_s` on `table3_test_warm`;
//!   `harness.json_encode_mb_per_s` → `sweep_s` on the cold workloads;
//!   `harness.entry_max_kb` → `cache_mb`; `harness.collect_s` and
//!   `harness.unattributed_s` → `sweep_s` on every offline workload;
//!   `harness.trace_overhead` is the traced rep's wall time over the
//!   untraced one's.
//! * `server.http_parse_mb_per_s`, `server.request_decode_us`,
//!   `server.jobs_executed`, `server.resp_cached_ratio` and
//!   `server.dedup_join_ratio` → `sweep_s` on `gsd_mix_test`.  The three
//!   daemon counters read 0 on the offline workloads, which start no
//!   daemon.
//!
//! # Correctness
//!
//! `results/perf/expected.json` holds the `StableHasher` digest of each
//! offline workload's stable artifact at seed 1; every rep at that seed
//! must reproduce it (the config sweep's at other seeds must agree with
//! each other, across children too).  The warm workload must also see no
//! cache miss and no interpretation.  For gsd, every response must be
//! byte-identical to the child's first response to the same request, 4
//! seeded requests per child must match an offline `run_experiment`, and
//! the children must agree on a digest over all 20 responses.  Traced reps
//! must tile: stage self times plus `harness.unattributed_s` equal the
//! wall time to within 1%, with no negative remainder.
//!
//! # Out of scope
//!
//! This package and `results/perf/` are all the benchmark may change, so
//! these are left to later changes: deleting the `hotloop`, `blockcomp`
//! and `tracefan` bins and their `results/BENCH_*` outputs, running `perf`
//! from `scripts/verify.sh`, pointers from DESIGN.md and README, and
//! raising the warm workloads to small and paper scale once the JSON
//! parser is linear.  The daemon's latency histograms (queue wait, flight
//! wait, loop dispatch, request p50/p99) are not metrics here: every
//! metric must be measurable on every workload, and the offline workloads
//! start no daemon.

mod bench_config;
mod child;
mod layers;
mod report;
mod stats;
mod workloads;

use bench_config::BenchConfig;
use child::{run_child, Batch, ChildSpec, CHILD_BUDGET};
use guardspec_harness::args::{take_value, unknown_argument};
use guardspec_harness::{write_json_file, Json};
use report::Run;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use workloads::{Options, DEFAULT_SEED, NAMES, SESSION_REQUESTS};

/// Where committed results live, relative to the repository root.
const RESULTS_DIR: &str = "results/perf";
/// Per-child scratch space, relative to the working directory.
const SCRATCH_DIR: &str = ".perf_scratch";
/// Rounds of a full run: ten pairs are what the comparison rule needs.
const ROUNDS: usize = 10;

static START: OnceLock<Instant> = OnceLock::new();

#[derive(Debug, Default)]
struct Args {
    run: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    reps: usize,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    scratch: Option<PathBuf>,
    out: Option<PathBuf>,
    record: bool,
    compare: Option<(String, String)>,
    write_expected: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    let mut args: Box<dyn Iterator<Item = String>> = Box::new(argv);
    let num = |v: String, flag: &str| -> Result<u64, String> {
        v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--run" => a.run = Some(take_value(&mut args, "--run")?),
            "--workload" => a.workload = Some(take_value(&mut args, "--workload")?),
            "--seed" => a.seed = Some(num(take_value(&mut args, "--seed")?, "--seed")?),
            "--reps" => a.reps = num(take_value(&mut args, "--reps")?, "--reps")? as usize,
            "--seconds" => {
                let v = take_value(&mut args, "--seconds")?;
                a.seconds = Some(
                    v.parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or(format!("bad --seconds value {v:?}"))?,
                );
            }
            "--trace" => {
                a.trace = match take_value(&mut args, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace value {other:?} (want 0 or 1)")),
                }
            }
            "--trace-out" => a.trace_out = Some(take_value(&mut args, "--trace-out")?.into()),
            "--scratch" => a.scratch = Some(take_value(&mut args, "--scratch")?.into()),
            "--out" => a.out = Some(take_value(&mut args, "--out")?.into()),
            "--record" => a.record = true,
            "--write-expected" => a.write_expected = true,
            "--compare" => {
                let base = take_value(&mut args, "--compare")?;
                a.compare = Some((base, take_value(&mut args, "--compare")?));
            }
            other => return Err(unknown_argument(other)),
        }
    }
    for w in [&a.run, &a.workload].into_iter().flatten() {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (want one of {})",
                NAMES.join(", ")
            ));
        }
    }
    if a.workload.is_some() && a.seconds.is_none() {
        return Err("--workload needs --seconds".to_string());
    }
    Ok(a)
}

fn main() {
    START.get_or_init(Instant::now);
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(2);
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let code = if let Some(w) = &args.run {
        child_main(w, seed, &args)
    } else if let Some(w) = &args.workload {
        single_main(w, seed, args.seconds.unwrap_or(0.0), args.trace)
    } else if let Some((base, change)) = &args.compare {
        compare_main(base, change)
    } else if args.write_expected {
        write_expected_main()
    } else {
        full_main(seed, &args)
    };
    std::process::exit(code);
}

/// `--run <workload>`: set up, run the reps, check, print one batch line.
fn child_main(workload: &str, seed: u64, args: &Args) -> i32 {
    let opts = Options {
        seed,
        scale: None,
        scratch: args.scratch.clone().unwrap_or_else(|| scratch_for(0)),
    };
    let batch = run_batch(
        workload,
        &opts,
        args.reps,
        args.trace,
        args.trace_out.as_deref(),
    );
    let _ = std::fs::remove_dir_all(&opts.scratch);
    println!("{}", batch.to_json().to_compact());
    0
}

/// Everything one child does, in-process.
fn run_batch(
    workload: &str,
    opts: &Options,
    reps: usize,
    traced: bool,
    trace_out: Option<&Path>,
) -> Batch {
    let (mut prepared, build_s) = match workloads::setup(workload, opts) {
        Ok(p) => p,
        Err(e) => {
            return Batch::lost(
                workload,
                child_ops(workload, reps, traced),
                format!("set-up: {e}"),
            )
        }
    };
    let mut b = Batch {
        workload: workload.to_string(),
        setup_s: Some(START.get_or_init(Instant::now).elapsed().as_secs_f64()),
        ..Batch::default()
    };
    for i in 0..reps {
        let o = prepared.rep(i);
        b.attempted += o.attempted;
        b.failed += o.failed;
        b.reps.extend(o.rep);
        b.digests.extend(o.digest);
        b.errors.extend(o.errors);
    }
    if traced {
        b.attempted += 1;
        match layers::measure(&mut prepared, opts, build_s, trace_out) {
            Ok(l) => b.layers = l,
            Err(e) => {
                b.failed += 1;
                b.errors.push(format!("traced measurement: {e}"));
            }
        }
    }
    prepared.finish();
    b.peak_rss_mb = child::peak_rss_mb();
    b
}

/// A private scratch directory for the `n`th child of this process.
fn scratch_for(n: usize) -> PathBuf {
    Path::new(SCRATCH_DIR).join(format!("{}-{n}", std::process::id()))
}

/// Operations a child counts as attempted when it yields no batch.
fn child_ops(workload: &str, reps: usize, traced: bool) -> u64 {
    let per_rep = if workload == "gsd_mix_test" {
        SESSION_REQUESTS as u64
    } else {
        1
    };
    reps as u64 * per_rep + traced as u64
}

/// Spawn children one at a time.
struct Spawner {
    exe: PathBuf,
    seed: u64,
    spawned: usize,
}

impl Spawner {
    fn new(seed: u64) -> Spawner {
        Spawner {
            exe: std::env::current_exe().expect("own executable path"),
            seed,
            spawned: 0,
        }
    }

    fn batch(
        &mut self,
        workload: &str,
        reps: usize,
        traced: bool,
        trace_out: Option<PathBuf>,
    ) -> Batch {
        self.spawned += 1;
        let spec = ChildSpec {
            workload: workload.to_string(),
            seed: self.seed,
            reps,
            traced,
            trace_out,
            scratch: scratch_for(self.spawned),
        };
        let b = run_child(
            &self.exe,
            &spec,
            child_ops(workload, reps, traced),
            CHILD_BUDGET,
        );
        for e in b.errors.iter().take(5) {
            eprintln!("perf: {workload}: {e}");
        }
        b
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // Only removes the directory once every child's scratch is gone.
        let _ = std::fs::remove_dir(SCRATCH_DIR);
    }
}

/// `--workload <w> --seconds <s> --trace <0|1>`: children of one workload
/// until the time is up, then one result line.
fn single_main(workload: &str, seed: u64, seconds: f64, traced: bool) -> i32 {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let reps = if traced {
        0
    } else {
        workloads::reps_per_child(workload)
    };
    let mut spawner = Spawner::new(seed);
    let mut batches = Vec::new();
    let started = Instant::now();
    // Start another child while at least half a child's time is left, so
    // the run ends within half a child of `seconds` either way.
    loop {
        batches.push(spawner.batch(workload, reps, traced, None));
        let per_child = started.elapsed() / batches.len() as u32;
        if Instant::now() + per_child / 2 > deadline {
            break;
        }
    }
    println!("{}", report::result_line(&batches, traced).to_compact());
    0
}

/// The default mode: interleaved rounds over every workload.
fn full_main(seed: u64, args: &Args) -> i32 {
    let cfg = BenchConfig::load();
    let traced = args.trace;
    let rounds = if traced { 1 } else { ROUNDS };
    let mut run = Run {
        commit: git_commit(),
        seed,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        rounds: rounds as u64,
        ..Run::default()
    };
    let mut spawner = Spawner::new(seed);
    let mut all: Vec<Batch> = Vec::new();
    for round in 0..rounds {
        for k in 0..NAMES.len() {
            let w = NAMES[(round + k) % NAMES.len()];
            let reps = if traced {
                0
            } else {
                workloads::reps_per_child(w)
            };
            let trace_out = traced.then(|| Path::new(RESULTS_DIR).join(format!("trace-{w}.json")));
            let b = spawner.batch(w, reps, traced, trace_out);
            eprintln!(
                "perf: round {}/{rounds} {w}: {} reps, {} of {} operations failed",
                round + 1,
                b.reps.len(),
                b.failed,
                b.attempted
            );
            run.add(w, &b, traced);
            all.push(b);
        }
    }
    for w in NAMES {
        let of_w: Vec<Batch> = all.iter().filter(|b| b.workload == w).cloned().collect();
        if !report::digests_agree(&of_w) {
            eprintln!("perf: {w}: reps produced different artifacts");
            run.failed += 1;
        }
    }
    print!("{}", run.table(&cfg));
    if !traced {
        for w in NAMES {
            let walls: Vec<f64> = all
                .iter()
                .filter(|b| b.workload == w)
                .flat_map(|b| b.reps.iter().map(|r| r.wall_s))
                .collect();
            if walls.is_empty() {
                continue;
            }
            let tail =
                stats::tail(&walls).map_or("n/a".to_string(), |(p, v)| format!("p{p:.0} {v:.6} s"));
            println!(
                "{w:<24} rep wall time: median {:.6} s, tail {tail}, {} reps",
                stats::median(&walls),
                walls.len()
            );
        }
    }
    let mut writes: Vec<(PathBuf, Json)> = Vec::new();
    if traced {
        writes.push((Path::new(RESULTS_DIR).join("traced.json"), run.to_json()));
    }
    if let Some(out) = &args.out {
        writes.push((out.clone(), run.to_json()));
    }
    if args.record {
        let path = Path::new(RESULTS_DIR).join("trajectory.json");
        let mut entries = match std::fs::read_to_string(&path) {
            Ok(text) => match guardspec_harness::json::parse(&text) {
                Ok(Json::Arr(v)) => v,
                _ => {
                    eprintln!("perf: {} is not a JSON list", path.display());
                    return 1;
                }
            },
            Err(_) => Vec::new(),
        };
        entries.push(run.to_json());
        writes.push((path, Json::Arr(entries)));
    }
    for (path, j) in writes {
        if let Err(e) = write_json_file(&path, &j) {
            eprintln!("perf: {}: {e}", path.display());
            return 1;
        }
        eprintln!("perf: wrote {}", path.display());
    }
    i32::from(run.failed > 0)
}

/// `--compare base.json change.json`.
fn compare_main(base: &str, change: &str) -> i32 {
    let (base, change) = match (Run::read(base), Run::read(change)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf: {e}");
            return 2;
        }
    };
    let (text, regressed) = report::compare(&base, &change, &BenchConfig::load());
    print!("{text}");
    i32::from(regressed)
}

/// `--write-expected`: the stable digest of each offline workload at the
/// default seed, into `results/perf/expected.json`.
fn write_expected_main() -> i32 {
    let scratch = scratch_for(0);
    let mut digests = Vec::new();
    for w in NAMES {
        let Some((spec, _)) = workloads::offline_spec(w, DEFAULT_SEED, None) else {
            continue;
        };
        let dir = scratch.join(w);
        let (r, _) = workloads::run_timed(&spec, &dir, false);
        digests.push((w.to_string(), Json::str(workloads::stable_digest(&r))));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    let j = Json::obj(vec![
        ("seed", Json::U64(DEFAULT_SEED)),
        ("digests", Json::Obj(digests)),
    ]);
    let path = Path::new(RESULTS_DIR).join("expected.json");
    match write_json_file(&path, &j) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perf: {}: {e}", path.display());
            1
        }
    }
}

/// The checked-out commit, for trajectory entries.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_workload_emits_every_listed_metric_without_errors() {
        let cfg = BenchConfig::load();
        let listed = |defs: &[bench_config::MetricDef]| -> BTreeSet<(String, String)> {
            defs.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let emitted = |ms: &[(&str, &str, f64)]| -> BTreeSet<(String, String)> {
            ms.iter()
                .map(|(n, u, _)| (n.to_string(), u.to_string()))
                .collect()
        };
        for w in NAMES {
            let opts = Options {
                seed: DEFAULT_SEED,
                scale: Some(guardspec_workloads::Scale::Test),
                scratch: Path::new(SCRATCH_DIR).join(format!("smoke-{}-{w}", std::process::id())),
            };
            let b = run_batch(w, &opts, 1, true, None);
            let _ = std::fs::remove_dir_all(&opts.scratch);
            assert_eq!(b.failed, 0, "{w}: {:?}", b.errors);
            assert_eq!(b.reps.len(), 1, "{w}");
            let batches = [b];
            let e2e = report::e2e(&batches);
            let layers = report::per_layer(&batches);
            assert_eq!(emitted(&e2e), listed(&cfg.end_to_end), "{w}");
            assert_eq!(emitted(&layers), listed(&cfg.per_layer), "{w}");
            for (name, _, v) in e2e.iter().chain(&layers) {
                assert!(v.is_finite(), "{w}: {name} = {v}");
            }
            for (name, _, v) in &e2e {
                assert!(*v > 0.0, "{w}: end-to-end {name} must never be 0");
            }
            let line = report::result_line(&batches, false);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{w}");
        }
        let _ = std::fs::remove_dir(SCRATCH_DIR);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
        let a = parse(&[
            "--workload",
            "gsd_mix_test",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("gsd_mix_test"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(3.0), true));
        assert!(parse(&["--workload", "nope", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "gsd_mix_test"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--warp"]).unwrap_err().contains("--warp"));
    }
}
