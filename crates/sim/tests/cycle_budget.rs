//! The cycle budget: a run that cannot drain within 64 cycles per trace
//! entry plus 100,000 cycles of slack fails with
//! `SimError::CycleBudgetExceeded`.  Both engines (the compiled one and the
//! interpreted reference), over both the slice and the packed source, must
//! fail on the same cycle with the same committed count — the compiled
//! engine's stall jump is capped at the budget so it cannot skip past the
//! failing cycle.
//!
//! A miss penalty of 65,536 cycles also pushes every D-cache miss past the
//! compiled engine's 1,024-cycle timing wheel into its overflow heap.

use guardspec_interp::trace::trace_program;
use guardspec_interp::tracefile::pack;
use guardspec_ir::builder::*;
use guardspec_ir::reg::r;
use guardspec_ir::Program;
use guardspec_predict::Scheme;
use guardspec_sim::reference::{prepare_program, simulate};
use guardspec_sim::{
    simulate_compiled_packed_in, simulate_compiled_trace_observed_in, CompiledProgram,
    MachineConfig, PackedSource, SimContext, SimError, SimStats, SliceSource,
};

/// A loop of `iters` loads, each on a fresh D-cache line, then a tail that
/// starts a second I-cache line (sites 8 and 9 sit at 0x1020 and up).
fn strided_loads(iters: i64) -> Program {
    let mut fb = FuncBuilder::new("strided");
    fb.block("e");
    fb.li(r(1), 0);
    fb.li(r(5), 16 * iters);
    fb.block("loop");
    fb.lw(r(2), r(1), 0);
    fb.add(r(3), r(3), r(2));
    fb.addi(r(1), r(1), 16);
    fb.slt(r(4), r(1), r(5));
    fb.bne(r(4), r(0), "loop");
    fb.block("done");
    fb.addi(r(6), r(3), 1);
    fb.addi(r(7), r(6), 1);
    fb.halt();
    let mut p = single_func_program(fb);
    p.mem_words = 1 << 14;
    p
}

fn config(miss_penalty: u64) -> MachineConfig {
    let mut cfg = MachineConfig::r10000();
    cfg.latencies.cache_miss_penalty = miss_penalty;
    cfg
}

/// The trace length and the four runs: {reference, compiled} ×
/// {slice, packed}.
fn four_ways(
    prog: &Program,
    scheme: Scheme,
    cfg: &MachineConfig,
) -> (u64, [Result<SimStats, SimError>; 4]) {
    let (layout, trace, _) = trace_program(prog).expect("runs");
    let packed = pack(&layout, &trace, 0);
    let prep = prepare_program(prog);
    let comp = CompiledProgram::build(prog, &layout);
    let mut ctx = SimContext::new(cfg);
    let runs = [
        simulate(
            &mut ctx,
            &prep,
            SliceSource::new(&trace),
            scheme,
            cfg,
            &mut (),
        ),
        simulate(
            &mut ctx,
            &prep,
            PackedSource::new(&packed),
            scheme,
            cfg,
            &mut (),
        ),
        simulate_compiled_trace_observed_in(&mut ctx, &comp, &trace, scheme, cfg, &mut ()),
        simulate_compiled_packed_in(&mut ctx, &comp, &packed, scheme, cfg),
    ];
    (trace.len() as u64, runs)
}

#[test]
fn overrun_fails_on_the_same_cycle_in_both_engines_and_sources() {
    let prog = strided_loads(4);
    let (len, runs) = four_ways(&prog, Scheme::TwoBit, &config(1 << 16));
    // The first D-cache miss alone outlasts the budget.
    let budget = 64 * len + 100_000;
    let Err(SimError::CycleBudgetExceeded { cycles, retired }) = runs[0].clone() else {
        panic!("expected a budget overrun, got {:?}", runs[0]);
    };
    assert_eq!(
        cycles,
        budget + 1,
        "fails on the first cycle past the budget"
    );
    assert!(retired < len, "retired {retired} of {len}");
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(
            run,
            &Err(SimError::CycleBudgetExceeded { cycles, retired }),
            "run {i} of reference/slice, reference/packed, compiled/slice, compiled/packed"
        );
    }
}

#[test]
fn long_latencies_within_the_budget_agree_in_both_engines_and_sources() {
    // 2,048-cycle misses overflow the timing wheel but drain in budget.
    let iters = 64;
    let prog = strided_loads(iters);
    for scheme in Scheme::ALL {
        let (len, runs) = four_ways(&prog, scheme, &config(2048));
        let stats = runs[0].clone().expect("drains within the budget");
        assert_eq!(stats.committed_total, len);
        assert_eq!(stats.dcache_misses, iters as u64);
        assert!(stats.cycles > 2048 * 3, "cycles {}", stats.cycles);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run, &Ok(stats.clone()), "run {i} under {scheme:?}");
        }
    }
}
