//! One `SimContext` reused across machine geometries, as a harness worker
//! reuses its thread's context from cell to cell.  The compiled engine
//! moves the context's hot state out for each run and each sampling
//! window and hands it back; the context must come back whole every time.
//!
//! The six machines are the `perf` config sweep's: the R10000 (ROB 32)
//! and variations with ROB 24, 48 and 64 (window rings of 32 or 64
//! slots), BHTs of 128 to 4096 entries, other front-end depths and
//! queue sizes.  Exact and sampled runs alternate, and every run must
//! equal the same run on a fresh context, stats and estimate both.

use guardspec_interp::trace::trace_program;
use guardspec_interp::tracefile::pack;
use guardspec_interp::PackedTrace;
use guardspec_ir::builder::*;
use guardspec_ir::reg::r;
use guardspec_ir::Program;
use guardspec_predict::Scheme;
use guardspec_sim::{
    simulate_compiled_packed_in, simulate_sampled_in, CompiledProgram, MachineConfig, SampleParams,
    SimContext, SimError,
};

/// A loop whose body tests a different bit of the counter at each of
/// `sites` branches (so the branches' patterns differ, and their sites
/// span enough PCs to alias in a 128-entry BHT), then loads and stores
/// one word of a 1024-word table.
fn branchy(iters: i64, sites: i64) -> Program {
    let mut fb = FuncBuilder::new("branchy");
    fb.block("e");
    fb.li(r(1), 0);
    fb.li(r(9), iters);
    fb.block("loop");
    for k in 0..sites {
        let skip = format!("s{k}");
        fb.andi(r(2), r(1), 1 << (k % 7));
        fb.beq(r(2), r(0), &skip);
        fb.block(format!("t{k}"));
        fb.addi(r(3), r(3), k + 1);
        fb.block(&skip);
    }
    fb.andi(r(6), r(1), 1023);
    fb.lw(r(4), r(6), 0);
    fb.add(r(3), r(3), r(4));
    fb.sw(r(3), r(6), 0);
    fb.addi(r(1), r(1), 1);
    fb.bne(r(1), r(9), "loop");
    fb.block("done");
    fb.halt();
    let mut p = single_func_program(fb);
    p.mem_words = 1 << 12;
    p
}

fn sweep_configs() -> Vec<MachineConfig> {
    let mut cfgs = vec![MachineConfig::r10000()];
    for (rob, bht, depth, queues) in [
        (24, 128, 1, [4, 12, 12, 12]),
        (48, 256, 3, [4, 24, 24, 24]),
        (64, 1024, 4, [8, 16, 16, 16]),
        (24, 2048, 3, [8, 16, 16, 16]),
        (64, 4096, 1, [4, 12, 12, 12]),
    ] {
        let mut cfg = MachineConfig::r10000();
        cfg.rob_size = rob;
        cfg.bht_entries = bht;
        cfg.frontend_depth = depth;
        cfg.queue_size = queues;
        cfgs.push(cfg);
    }
    cfgs
}

const PARAMS: SampleParams = SampleParams {
    detail: 300,
    warmup: 200,
    interval: 2_000,
};

fn fixture() -> (CompiledProgram, PackedTrace) {
    let prog = branchy(300, 40);
    let (layout, trace, _) = trace_program(&prog).expect("runs");
    let packed = pack(&layout, &trace, 0);
    (CompiledProgram::build(&prog, &layout), packed)
}

/// Exact runs, sampled runs, and a run that fails its cycle budget, in
/// turn on one context: each equals its fresh-context twin.
#[test]
fn reused_context_matches_fresh_runs_across_the_sweep() {
    let (comp, trace) = fixture();
    let cfgs = sweep_configs();
    let mut ctx = SimContext::default();
    for round in 0..2 {
        for (i, cfg) in cfgs.iter().enumerate() {
            let exact_first = (round + i) % 2 == 0;
            for exact in [exact_first, !exact_first] {
                if exact {
                    let reused =
                        simulate_compiled_packed_in(&mut ctx, &comp, &trace, Scheme::TwoBit, cfg);
                    let fresh = simulate_compiled_packed_in(
                        &mut SimContext::new(cfg),
                        &comp,
                        &trace,
                        Scheme::TwoBit,
                        cfg,
                    );
                    assert_eq!(reused, fresh, "exact run, config {i}, round {round}");
                } else {
                    let reused =
                        simulate_sampled_in(&mut ctx, &comp, &trace, Scheme::TwoBit, cfg, PARAMS)
                            .expect("sampled run");
                    let fresh = simulate_sampled_in(
                        &mut SimContext::new(cfg),
                        &comp,
                        &trace,
                        Scheme::TwoBit,
                        cfg,
                        PARAMS,
                    )
                    .expect("sampled run");
                    assert!(reused.1.windows >= 2, "too few windows to test");
                    assert_eq!(reused, fresh, "sampled run, config {i}, round {round}");
                }
            }
        }
        // A sampling window that overruns its cycle budget still hands
        // the context's state back.
        let mut stuck = MachineConfig::r10000();
        stuck.latencies.cache_miss_penalty = 1 << 20;
        let failed = simulate_sampled_in(&mut ctx, &comp, &trace, Scheme::TwoBit, &stuck, PARAMS);
        assert!(matches!(failed, Err(SimError::CycleBudgetExceeded { .. })));
    }
}

/// Sampling windows that tile the trace (no gaps, no warm-up) fetch every
/// entry in trace order with the predictor and I-cache state carried from
/// window to window, so their fetch-side counters, which do not depend on
/// timing, must equal the exact run's.  A window that dropped any of that
/// state on its way back to the context would mispredict more.
#[test]
fn tiled_windows_carry_fetch_state_between_windows() {
    let (comp, trace) = fixture();
    let tiled = SampleParams {
        detail: 500,
        warmup: 0,
        interval: 500,
    };
    let mut ctx = SimContext::default();
    for (i, cfg) in sweep_configs().iter().enumerate() {
        let exact =
            simulate_compiled_packed_in(&mut ctx, &comp, &trace, Scheme::TwoBit, cfg).unwrap();
        let (windows, summary) =
            simulate_sampled_in(&mut ctx, &comp, &trace, Scheme::TwoBit, cfg, tiled).unwrap();
        assert!(summary.windows >= 2, "too few windows to test");
        let fetch_side = |s: &guardspec_sim::SimStats| {
            [
                s.cond_branches,
                s.mispredicts,
                s.btb_hits,
                s.btb_misses,
                s.icache_hits,
                s.icache_misses,
                s.committed_total,
            ]
        };
        assert_eq!(fetch_side(&windows), fetch_side(&exact), "config {i}");
    }
}
