//! The differential oracle: one definition of "same behavior".
//!
//! For a generated program `P` and a transform configuration `O`, the oracle
//! checks two independent things:
//!
//! 1. **Transform equivalence** — `transform_program(P, profile, O)` must
//!    preserve *observable* behavior: the final memory image and the
//!    committed-store trace (address/value pairs in commit order).  Register
//!    files are deliberately *not* compared across a transform: speculation
//!    hoists an instruction without renaming when its destination is dead on
//!    the other path, so dead registers legitimately end up with different
//!    values (see `Machine::mem_checksum`).  The generator spills every
//!    meaningful register to memory in its epilogue, so anything that matters
//!    is covered by the memory/store comparison.
//! 2. **Engine agreement** — for a *single* program, a four-way
//!    differential: {reference, compiled} engine × {materialized slice,
//!    packed} trace source, where the reference is the interpreted
//!    pipeline in `guardspec_sim::reference`.  The plain interpreter and
//!    every interpretation that records a trace must land in the same
//!    architectural state (int/flt/pred registers and memory), and the
//!    recorded trace must carry exactly the interpreter's committed
//!    stores.  All four runs must
//!    produce identical `SimStats` and identical cycle-bucket accounting
//!    (`CycleAccounting` equality, which covers per-site counters too).
//!    The packed trace is the one the harness replays, recorded by its own
//!    interpretation, and must decode to the `Vec<TraceEntry>` reference.
//!    Then both engines replay the packed trace *unobserved*, as every
//!    harness cell does, under all three schemes on two machines (the
//!    R10000 and `small_window_config`), and must return the same
//!    `SimStats` or the same `SimError`.
//!
//! Transform panics and validation failures on the transformed program are
//! reported as findings rather than crashing the fuzz run; an original
//! program that traps or fails validation is a *generator* bug and panics
//! loudly.

use crate::gen::{generate, ShapeParams};
use guardspec_core::{transform_program, DriverOptions};
use guardspec_interp::exec::{ExecError, Interp, Observer, RetireEvent};
use guardspec_interp::profile::profile_program;
use guardspec_interp::{Machine, PackedRecorder};
use guardspec_ir::reg::{f, p, r};
use guardspec_ir::validate::validate;
use guardspec_ir::{Instruction, Opcode, Program};
use guardspec_predict::Scheme;
use guardspec_sim::reference::{prepare_program, simulate as simulate_reference};
use guardspec_sim::{
    simulate_compiled_packed_in, simulate_compiled_packed_observed_in,
    simulate_compiled_trace_observed_in, CompiledProgram, CycleAccounting, MachineConfig,
    PackedSource, SimContext, SliceSource,
};
use rand::prelude::*;

/// Interpreter fuel for generated programs: far above any shape the
/// generator can produce, small enough that a runaway loop fails fast.
pub const CASE_FUEL: u64 = 4_000_000;

/// Observer collecting the committed-store trace.
#[derive(Default)]
pub struct StoreTrace {
    /// `(word address, stored value)` in commit order; float stores appear
    /// as their IEEE bit pattern.
    pub stores: Vec<(i64, i64)>,
}

impl Observer for StoreTrace {
    fn on_retire(&mut self, _insn: &Instruction, ev: &RetireEvent) {
        if let (Some(a), Some(v)) = (ev.mem_addr, ev.store_value) {
            debug_assert!(!ev.annulled);
            self.stores.push((a, v));
        }
    }
}

/// Everything the equivalence check observes about one execution.
pub struct Behavior {
    pub mem: Vec<i64>,
    pub stores: Vec<(i64, i64)>,
    pub retired: u64,
    pub machine: Machine,
}

/// Run `prog` under the interpreter, collecting the committed-store trace.
pub fn behavior_of(prog: &Program) -> Result<Behavior, ExecError> {
    let mut st = StoreTrace::default();
    let res = Interp::new(prog).with_fuel(CASE_FUEL).run_with(&mut st)?;
    Ok(Behavior {
        mem: res.machine.mem.to_vec(),
        stores: st.stores,
        retired: res.summary.retired,
        machine: res.machine,
    })
}

/// Compare observable behavior of an original and a transformed program.
/// This is *the* definition of "same behavior" shared by the fuzzer and the
/// transform-semantics tests: final memory image + committed-store trace.
pub fn check_equivalence(orig: &Behavior, xf: &Behavior) -> Result<(), String> {
    if orig.mem != xf.mem {
        let i = orig
            .mem
            .iter()
            .zip(&xf.mem)
            .position(|(a, b)| a != b)
            .map(|i| i.to_string())
            .unwrap_or_else(|| "length".into());
        return Err(format!(
            "final memory differs (first mismatch at word {i}): orig {} words, transformed {} words",
            orig.mem.len(),
            xf.mem.len()
        ));
    }
    if orig.stores != xf.stores {
        let i = orig.stores.iter().zip(&xf.stores).position(|(a, b)| a != b);
        return Err(match i {
            Some(i) => format!(
                "committed-store trace differs at store #{i}: orig {:?}, transformed {:?} \
                 ({} vs {} stores)",
                orig.stores[i],
                xf.stores[i],
                orig.stores.len(),
                xf.stores.len()
            ),
            None => format!(
                "committed-store trace length differs: {} vs {} stores",
                orig.stores.len(),
                xf.stores.len()
            ),
        });
    }
    Ok(())
}

/// Full architectural-state comparison: only valid between engines running
/// the *same* program.
fn check_same_program_state(tag: &str, a: &Machine, b: &Machine) -> Result<(), String> {
    if a.mem != b.mem {
        return Err(format!("{tag}: memory images differ"));
    }
    for i in 0..guardspec_ir::reg::NUM_INT_REGS {
        if a.get_int(r(i)) != b.get_int(r(i)) {
            return Err(format!(
                "{tag}: int register r{i} differs: {} vs {}",
                a.get_int(r(i)),
                b.get_int(r(i))
            ));
        }
    }
    for i in 0..guardspec_ir::reg::NUM_FLT_REGS {
        if a.get_flt(f(i)).to_bits() != b.get_flt(f(i)).to_bits() {
            return Err(format!("{tag}: float register f{i} differs"));
        }
    }
    for i in 0..guardspec_ir::reg::NUM_PRED_REGS {
        if a.get_pred(p(i)) != b.get_pred(p(i)) {
            return Err(format!("{tag}: predicate register p{i} differs"));
        }
    }
    Ok(())
}

/// The transform configurations every case is checked under: the five named
/// presets plus `extra_mixes` randomized option mixes drawn from `rng`.
pub fn variants(rng: &mut SmallRng, extra_mixes: usize) -> Vec<(String, DriverOptions)> {
    let mut v: Vec<(String, DriverOptions)> = [
        ("baseline", DriverOptions::baseline()),
        ("conventional", DriverOptions::conventional()),
        ("speculation_only", DriverOptions::speculation_only()),
        ("guarded_only", DriverOptions::guarded_only()),
        ("proposed", DriverOptions::proposed()),
    ]
    .into_iter()
    .map(|(n, o)| (n.to_string(), o))
    .collect();
    for i in 0..extra_mixes {
        let mut o = DriverOptions::proposed();
        o.enable_likely = rng.gen_bool(0.5);
        o.enable_ifconvert = rng.gen_bool(0.5);
        o.enable_split = rng.gen_bool(0.5);
        o.enable_speculation = rng.gen_bool(0.5);
        o.max_arm_len = rng.gen_range(1..=8usize);
        o.max_speculate_ops = rng.gen_range(1..=6usize);
        o.allow_speculative_loads = rng.gen_bool(0.5);
        o.max_likelies_per_site = rng.gen_range(1..=4usize);
        o.feedback.likely_threshold = rng.gen_range(0.7..0.99f64);
        o.feedback.convert_threshold = rng.gen_range(0.5..0.9f64);
        v.push((format!("mix{i}"), o));
    }
    v
}

/// One divergence found by the oracle.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which transform configuration exposed it (or `engines` for an
    /// engine-agreement failure on an untransformed program).
    pub variant: String,
    pub detail: String,
}

/// Outcome of one fuzz case.
#[derive(Clone, Debug)]
pub struct CaseResult {
    pub params: ShapeParams,
    pub seed: u64,
    pub retired: u64,
    pub findings: Vec<Finding>,
}

impl CaseResult {
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

fn transform_guarded(
    prog: &Program,
    profile: &guardspec_interp::Profile,
    opts: &DriverOptions,
) -> Result<Program, String> {
    let mut p2 = prog.clone();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        transform_program(&mut p2, profile, opts);
    }));
    match r {
        Ok(()) => Ok(p2),
        Err(e) => {
            let msg = e
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| e.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            Err(format!("transform panicked: {msg}"))
        }
    }
}

/// The engine check's second machine: a window small enough that the
/// reorder buffer, the queues and the branch limit fill all the time, no
/// front-end delay, two-wide fetch and commit, and a cache-miss penalty
/// past the compiled engine's timing-wheel span, so every D-cache miss
/// completes through the overflow heap.
fn small_window_config() -> MachineConfig {
    let mut cfg = MachineConfig::r10000();
    cfg.rob_size = 8;
    cfg.queue_size = [2, 3, 4, 2];
    cfg.max_inflight_branches = 2;
    cfg.frontend_depth = 0;
    cfg.fetch_width = 2;
    cfg.commit_width = 2;
    cfg.latencies.cache_miss_penalty = 1100;
    cfg
}

/// Check the execution engines against each other on one program: the
/// interpreted pipeline and the compiled decoded-uop engine, each over the
/// materialized and packed sources, must produce identical `SimStats` and
/// identical cycle accounting, and the trace the engines consume must
/// carry exactly the interpreter's committed stores.  Unobserved replays
/// of the packed trace, the harness's path, must agree too: only they
/// take the compiled engine's idle-cycle jumps.
fn check_engines(tag: &str, prog: &Program, reference: &Behavior) -> Result<(), String> {
    let cfg = MachineConfig::r10000();
    // Materialized interpreted path.
    let (layout, trace, exec) = guardspec_interp::trace::trace_program(prog)
        .map_err(|e| format!("{tag}: trace_program failed: {e}"))?;
    check_same_program_state(
        &format!("{tag}: interp vs trace_program"),
        &reference.machine,
        &exec.machine,
    )?;
    let prep = prepare_program(prog);
    let mut ctx = SimContext::new(&cfg);
    let mut acct_interp = CycleAccounting::new();
    let stats_mat = simulate_reference(
        &mut ctx,
        &prep,
        SliceSource::new(&trace),
        Scheme::TwoBit,
        &cfg,
        &mut acct_interp,
    )
    .map_err(|e| format!("{tag}: reference simulate failed: {e}"))?;

    // The committed-store trace the simulators consume must be exactly the
    // interpreter's: every non-annulled store entry, same addresses, same
    // commit order.  (Values are not in the trace; they are covered by the
    // memory-image comparisons above.)
    let trace_stores: Vec<u32> = trace
        .iter()
        .filter(|e| !e.annulled())
        .filter(|e| {
            matches!(
                prog.insn(layout.site(e.id)).op,
                Opcode::Store { .. } | Opcode::FStore { .. }
            )
        })
        .filter_map(|e| e.mem_addr())
        .collect();
    let ref_stores: Vec<u32> = reference.stores.iter().map(|&(a, _)| a as u32).collect();
    if trace_stores != ref_stores {
        let i = trace_stores
            .iter()
            .zip(&ref_stores)
            .position(|(a, b)| a != b)
            .map(|i| i.to_string())
            .unwrap_or_else(|| "length".into());
        return Err(format!(
            "{tag}: committed-store trace differs between interpreter and recorded trace \
             (first mismatch at store #{i}; {} vs {} stores)",
            trace_stores.len(),
            ref_stores.len()
        ));
    }

    // Compiled engine, materialized path: byte-identical stats and cycle
    // accounting to the interpreted pipeline over the same trace.
    let comp = CompiledProgram::build(prog, &layout);
    let mut acct_comp = CycleAccounting::new();
    let stats_comp = simulate_compiled_trace_observed_in(
        &mut ctx,
        &comp,
        &trace,
        Scheme::TwoBit,
        &cfg,
        &mut acct_comp,
    )
    .map_err(|e| format!("{tag}: compiled simulate failed: {e}"))?;
    if stats_comp != stats_mat {
        return Err(format!(
            "{tag}: SimStats diverge between interpreted and compiled engines \
             (cycles {} vs {}, committed {} vs {})",
            stats_mat.cycles, stats_comp.cycles, stats_mat.committed, stats_comp.committed
        ));
    }
    if acct_comp != acct_interp {
        let bucket = acct_interp
            .buckets()
            .iter()
            .zip(acct_comp.buckets())
            .position(|(a, b)| a != b);
        return Err(format!(
            "{tag}: cycle accounting diverges between interpreted and compiled engines \
             (first differing bucket index: {bucket:?}; per-site counters {})",
            if acct_interp.nonzero_sites().eq(acct_comp.nonzero_sites()) {
                "agree"
            } else {
                "differ"
            }
        ));
    }

    // Packed path: the trace form the harness replays, recorded by its own
    // run, read by both engines through the decoding cursor.
    let mut packer = PackedRecorder::new(prog);
    let exec_packed = Interp::new(prog)
        .run_with(&mut packer)
        .map_err(|e| format!("{tag}: packed recording failed: {e}"))?;
    check_same_program_state(
        &format!("{tag}: interp vs packed-recording interp"),
        &reference.machine,
        &exec_packed.machine,
    )?;
    let packed = packer.finish(0);
    if !packed.iter().eq(trace.iter().copied()) {
        return Err(format!(
            "{tag}: packed trace decodes to different entries than the recorded reference"
        ));
    }
    for (engine, compiled) in [("interpreted", false), ("compiled", true)] {
        let mut acct = CycleAccounting::new();
        let stats = if compiled {
            simulate_compiled_packed_observed_in(
                &mut ctx,
                &comp,
                &packed,
                Scheme::TwoBit,
                &cfg,
                &mut acct,
            )
        } else {
            let source = PackedSource::new(&packed);
            simulate_reference(&mut ctx, &prep, source, Scheme::TwoBit, &cfg, &mut acct)
        }
        .map_err(|e| format!("{tag}: packed {engine} simulate failed: {e}"))?;
        if stats != stats_mat || acct != acct_interp {
            return Err(format!(
                "{tag}: packed {engine} run diverges from the materialized reference \
                 (cycles {} vs {}, accounting {})",
                stats_mat.cycles,
                stats.cycles,
                if acct == acct_interp {
                    "agrees"
                } else {
                    "differs"
                }
            ));
        }
    }

    // Unobserved packed replays, one context reused across machines and
    // schemes as a harness worker's is.
    for (machine, cfg) in [("r10000", cfg), ("small-window", small_window_config())] {
        for scheme in Scheme::ALL {
            let source = PackedSource::new(&packed);
            let interpreted = simulate_reference(&mut ctx, &prep, source, scheme, &cfg, &mut ());
            let compiled = simulate_compiled_packed_in(&mut ctx, &comp, &packed, scheme, &cfg);
            if interpreted != compiled {
                return Err(format!(
                    "{tag}: unobserved packed runs diverge on {machine} under {scheme:?}: \
                     interpreted {}, compiled {}",
                    outcome(&interpreted),
                    outcome(&compiled)
                ));
            }
        }
    }
    Ok(())
}

/// One line summarising a simulation result for a finding.
fn outcome(r: &Result<guardspec_sim::SimStats, guardspec_sim::SimError>) -> String {
    match r {
        Ok(s) => format!("{} cycles, {} committed", s.cycles, s.committed),
        Err(e) => e.to_string(),
    }
}

/// How much work `run_case` does beyond the transform-equivalence core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Thoroughness {
    /// Interpreter-level equivalence for every variant only.
    Quick,
    /// Also cross-check the simulation engines on the original program and
    /// on the `proposed` transform.
    Full,
}

/// Run the full oracle on one `(params, seed)` point.
pub fn run_case(params: &ShapeParams, seed: u64, thoroughness: Thoroughness) -> CaseResult {
    let prog = generate(params, seed);

    // Generator bugs are not findings; fail loudly.
    let errs = validate(&prog);
    assert!(
        errs.is_empty(),
        "generator emitted invalid program (params {params:?} seed {seed}): {errs:?}"
    );
    let orig = behavior_of(&prog)
        .unwrap_or_else(|e| panic!("generated program traps (params {params:?} seed {seed}): {e}"));

    let mut findings = Vec::new();
    let (profile, _) = match profile_program(&prog) {
        Ok(x) => x,
        Err(e) => panic!("profiling trapped on a program that ran clean: {e}"),
    };

    // Option-mix RNG is derived from the case seed, so a case is fully
    // reproducible from (params, seed) alone.
    let mut mix_rng = SmallRng::seed_from_u64(seed ^ 0x6f72_6163_6c65); // "oracle"
    for (name, opts) in variants(&mut mix_rng, 2) {
        let p2 = match transform_guarded(&prog, &profile, &opts) {
            Ok(p2) => p2,
            Err(detail) => {
                findings.push(Finding {
                    variant: name,
                    detail,
                });
                continue;
            }
        };
        let verrs = validate(&p2);
        if !verrs.is_empty() {
            findings.push(Finding {
                variant: name,
                detail: format!("transformed program fails validation: {verrs:?}"),
            });
            continue;
        }
        let xf = match behavior_of(&p2) {
            Ok(b) => b,
            Err(e) => {
                findings.push(Finding {
                    variant: name,
                    detail: format!("transformed program traps: {e}"),
                });
                continue;
            }
        };
        if let Err(detail) = check_equivalence(&orig, &xf) {
            findings.push(Finding {
                variant: name,
                detail,
            });
            continue;
        }
        if thoroughness == Thoroughness::Full && name == "proposed" {
            if let Err(detail) = check_engines("proposed", &p2, &xf) {
                findings.push(Finding {
                    variant: name,
                    detail,
                });
            }
        }
    }

    if thoroughness == Thoroughness::Full {
        if let Err(detail) = check_engines("original", &prog, &orig) {
            findings.push(Finding {
                variant: "engines".into(),
                detail,
            });
        }
    }

    CaseResult {
        params: *params,
        seed,
        retired: orig.retired,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_trace_observer_matches_memory_writes() {
        let params = ShapeParams {
            regions: 2,
            ..ShapeParams::minimal()
        };
        let prog = generate(&params, 3);
        let b = behavior_of(&prog).expect("runs");
        // Replaying the store trace onto a fresh image reproduces every cell
        // the program wrote (untouched cells come from the data preload).
        let mut replay = Machine::for_program(&prog).mem.to_vec();
        for (a, v) in &b.stores {
            replay[*a as usize] = *v;
        }
        assert_eq!(replay, b.mem);
    }

    #[test]
    fn identity_equivalence_holds() {
        let prog = generate(&ShapeParams::minimal(), 11);
        let a = behavior_of(&prog).unwrap();
        let b = behavior_of(&prog).unwrap();
        check_equivalence(&a, &b).unwrap();
    }

    #[test]
    fn quick_case_runs_clean_on_a_few_seeds() {
        let mut rng = SmallRng::seed_from_u64(1234);
        for _ in 0..10 {
            let params = ShapeParams::sample(&mut rng);
            let seed = rng.gen_range(0..u64::MAX);
            let res = run_case(&params, seed, Thoroughness::Quick);
            assert!(
                res.ok(),
                "divergence at params {:?} seed {}: {:?}",
                res.params,
                res.seed,
                res.findings
            );
        }
    }
}
