//! `blockcomp` — before/after evidence for the compiled decoded-uop engine
//! and SMARTS-style interval sampling.
//!
//! The workload is the three-schemes matrix (the shape `table3`/`table4`
//! run): every workload under 2-bit BP, Proposed and Perfect BP.  Each
//! cell's inputs are built once, before any timing: the workload's
//! profile, the cell's program (the Figure-6 transform for the Proposed
//! cells), and that program's packed trace, reference-engine tables and
//! compiled uops.  Three paths then simulate every cell from its packed
//! trace, on one reused `SimContext`:
//!
//! * **reference** — the interpreted pipeline (`guardspec_sim::reference`);
//! * **compiled** — the decoded-uop engine, exact mode.  Its `SimStats`
//!   must equal the reference's, cell by cell;
//! * **sampled** — the compiled engine under interval sampling: detailed
//!   windows separated by functional warming.  Every cell's estimate must
//!   cover the exact IPC within its 95% CI.
//!
//! The figure of merit is the summed engine time over all cells, compared
//! on the fastest rep per path (noise only ever adds time).  Reps are
//! interleaved round-robin across the paths so a sustained load spike on
//! a shared box taxes every path, not just the one that happened to run
//! inside it.  Every engine call runs on this thread, one cell after
//! another, so `--jobs` has no effect and the artifact records one job.
//! Asserts the structural and performance claims (≥1.5× compiled, ≥5×
//! sampled, CI width > 0, CI covers exact) and writes
//! `results/BENCH_8.json`.  The file is overwritten on purpose: it is the
//! engines' before/after evidence, not a per-run log.

use guardspec_bench::harness_args;
use guardspec_core::transform_program;
use guardspec_harness::{write_json_file, ExperimentSpec, Json};
use guardspec_interp::profile::profile_program;
use guardspec_interp::{Interp, PackedRecorder, PackedTrace};
use guardspec_predict::Scheme;
use guardspec_sim::reference::{prepare_program, simulate as simulate_reference, PreparedSim};
use guardspec_sim::{
    simulate_compiled_packed_in, simulate_sampled_in, CompiledProgram, MachineConfig, PackedSource,
    SampleParams, SimContext, SimError,
};
use guardspec_workloads::Scale;
use std::path::Path;
use std::time::Instant;

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Least-noise estimate of a path's engine cost: the fastest rep.
/// Scheduler preemption and frequency dips only ever add time, so the
/// minimum is the most stable cross-rep statistic for a ratio.
fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Sampling parameters sized to the scale: test traces are ~10k entries,
/// so the paper-sized default interval (20k) would fall back to an exact
/// run; a 1k interval keeps ~10 windows per workload at 10% detail.
fn sample_params(scale: Scale) -> SampleParams {
    if scale == Scale::Test {
        SampleParams {
            detail: 50,
            warmup: 50,
            interval: 1000,
        }
    } else {
        SampleParams::default()
    }
}

/// One cell's simulation inputs, built before any timing.
struct Cell {
    what: String,
    scheme: Scheme,
    cfg: MachineConfig,
    trace: PackedTrace,
    prep: PreparedSim,
    comp: CompiledProgram,
}

/// Profile, transform and trace every cell of `spec`, as the harness's
/// profile, transform and trace stages would.
fn build_cells(spec: &ExperimentSpec) -> Vec<Cell> {
    let profiles: Vec<_> = spec
        .workloads
        .iter()
        .map(|w| profile_program(&w.program).expect("profiles").0)
        .collect();
    spec.cells
        .iter()
        .map(|cell| {
            let w = &spec.workloads[cell.workload];
            let mut program = w.program.clone();
            if let Some(options) = &cell.transform {
                transform_program(&mut program, &profiles[cell.workload], options);
            }
            let mut recorder = PackedRecorder::new(&program);
            Interp::new(&program)
                .run_with(&mut recorder)
                .unwrap_or_else(|e| panic!("{}: trace failed: {e}", w.name));
            let comp = CompiledProgram::build(&program, recorder.layout());
            Cell {
                what: format!("{}/{}", w.name, cell.label),
                scheme: cell.scheme,
                cfg: cell.cfg.clone(),
                trace: recorder.finish(0),
                prep: prepare_program(&program),
                comp,
            }
        })
        .collect()
}

/// One path's per-rep engine times, checking that every rep reproduces the
/// first rep's outputs.
struct Measured<T> {
    tag: &'static str,
    sim: Vec<f64>,
    out: Vec<T>,
}

impl<T: PartialEq> Measured<T> {
    fn new(tag: &'static str) -> Measured<T> {
        Measured {
            tag,
            sim: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Time one rep: one `sim` call per cell, back to back.
    fn run(&mut self, cells: &[Cell], mut sim: impl FnMut(&Cell) -> Result<T, SimError>) {
        let tag = self.tag;
        let t0 = Instant::now();
        let out: Vec<T> = cells
            .iter()
            .map(|c| sim(c).unwrap_or_else(|e| panic!("{}: {tag} run failed: {e}", c.what)))
            .collect();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if self.sim.is_empty() {
            self.out = out;
        } else {
            assert!(out == self.out, "{tag}: results vary across reps");
        }
        self.sim.push(ms);
        eprintln!(
            "[blockcomp] {tag} rep {}: engines {ms:.1} ms",
            self.sim.len()
        );
    }

    fn json(&self) -> Json {
        Json::obj(vec![
            (
                "sim_ms",
                Json::Arr(self.sim.iter().map(|&x| Json::F64(x)).collect()),
            ),
            ("sim_ms_mean", Json::F64(mean(&self.sim))),
            ("sim_ms_best", Json::F64(best(&self.sim))),
        ])
    }
}

fn main() {
    let args = harness_args();
    let reps = if args.scale == Scale::Test { 1 } else { 5 };
    let spec = ExperimentSpec::three_schemes("blockcomp", args.scale);
    let params = sample_params(args.scale);
    let cells = build_cells(&spec);
    let ncells = cells.len() as u64;

    let mut ctx = SimContext::default();
    let mut reference = Measured::new("reference");
    let mut compiled = Measured::new("compiled");
    let mut sampled = Measured::new("sampled");
    for _ in 0..reps {
        reference.run(&cells, |c| {
            let source = PackedSource::new(&c.trace);
            simulate_reference(&mut ctx, &c.prep, source, c.scheme, &c.cfg, &mut ())
        });
        compiled.run(&cells, |c| {
            simulate_compiled_packed_in(&mut ctx, &c.comp, &c.trace, c.scheme, &c.cfg)
        });
        sampled.run(&cells, |c| {
            simulate_sampled_in(&mut ctx, &c.comp, &c.trace, c.scheme, &c.cfg, params)
        });
    }

    // The engines agree bit for bit; sampling is a different (estimated)
    // payload, checked against the exact run below instead.
    for ((c, r), e) in cells.iter().zip(&reference.out).zip(&compiled.out) {
        assert_eq!(r, e, "{}: compiled engine changed the science", c.what);
    }
    eprintln!("[blockcomp] reference and compiled stats identical on all {ncells} cells");

    // Every sampled cell carries an estimate whose 95% CI (which already
    // includes the SMARTS bias allowance) covers the exact-run IPC.
    let mut covered = 0u64;
    for ((c, (_, smp)), exact) in cells.iter().zip(&sampled.out).zip(&compiled.out) {
        assert!(
            smp.windows >= 2,
            "{}: trace too short for sampling ({} windows)",
            c.what,
            smp.windows
        );
        assert!(smp.ipc_ci95 > 0.0, "{}: CI width must be positive", c.what);
        let exact_ipc = exact.ipc();
        if (smp.ipc_mean - exact_ipc).abs() <= smp.ipc_ci95 {
            covered += 1;
        } else {
            eprintln!(
                "[blockcomp] {}: exact IPC {:.4} outside {:.4} ± {:.4}",
                c.what, exact_ipc, smp.ipc_mean, smp.ipc_ci95
            );
        }
    }
    assert_eq!(
        covered, ncells,
        "every cell's CI must cover its exact IPC on this deterministic spec"
    );
    eprintln!("[blockcomp] all {ncells} sampled CIs cover the exact IPC");

    let compiled_speedup = best(&reference.sim) / best(&compiled.sim);
    let sampled_speedup = best(&reference.sim) / best(&sampled.sim);
    println!(
        "{:<14} {:>10} {:>8}   (scale {:?}, {} cells, interval {} @ {}+{} detail)",
        "path",
        "sim/ms",
        "speedup",
        args.scale,
        ncells,
        params.interval,
        params.warmup,
        params.detail
    );
    for (tag, sim, s) in [
        ("reference", &reference.sim, 1.0),
        ("compiled", &compiled.sim, compiled_speedup),
        ("sampled", &sampled.sim, sampled_speedup),
    ] {
        println!("{tag:<14} {:>10.1} {s:>7.2}x", best(sim));
    }
    assert!(
        compiled_speedup >= 1.5,
        "compiled engine must be >= 1.5x the reference (got {compiled_speedup:.2}x)"
    );
    assert!(
        sampled_speedup >= 5.0,
        "sampling must be >= 5x the reference (got {sampled_speedup:.2}x)"
    );

    let json = Json::obj(vec![
        (
            "meta",
            Json::obj(vec![
                ("bench", Json::str("blockcomp")),
                (
                    "spec",
                    Json::str("three-schemes matrix, prebuilt inputs, summed engine wall"),
                ),
                ("scale", Json::str(format!("{:?}", args.scale))),
                ("jobs", Json::U64(1)),
                ("reps", Json::U64(reps as u64)),
                ("cells", Json::U64(ncells)),
                ("sample_detail", Json::U64(params.detail)),
                ("sample_warmup", Json::U64(params.warmup)),
                ("sample_interval", Json::U64(params.interval)),
                ("stable_artifacts_identical_engines", Json::Bool(true)),
                ("sampled_cis_cover_exact_ipc", Json::Bool(true)),
            ]),
        ),
        (
            "paths",
            Json::obj(vec![
                ("interpreted", reference.json()),
                ("compiled_exact", compiled.json()),
                ("sampled", sampled.json()),
            ]),
        ),
        (
            "speedup_vs_interpreted",
            Json::obj(vec![
                ("compiled_exact", Json::F64(compiled_speedup)),
                ("sampled", Json::F64(sampled_speedup)),
            ]),
        ),
    ]);
    let path = Path::new(guardspec_harness::DEFAULT_RESULTS_DIR).join("BENCH_8.json");
    match write_json_file(&path, &json) {
        Ok(()) => eprintln!("[artifact] {}", path.display()),
        Err(e) => {
            eprintln!("[artifact] {} write failed: {e}", path.display());
            std::process::exit(1);
        }
    }
}
