//! Property tests for SMARTS-style interval sampling: over a population of
//! generated programs, the per-run 95% confidence interval (which already
//! includes the 2%-of-mean bias allowance) must cover the exact-run IPC at
//! roughly its nominal rate, and the interval math must be bit-for-bit
//! deterministic — the estimate is a pure function of (trace, params), so
//! re-running in a reused context, or under any `--jobs` schedule, cannot
//! change a bit of it.

use guardspec_fuzz::{generate, ShapeParams};
use guardspec_interp::trace::trace_program;
use guardspec_interp::tracefile;
use guardspec_predict::Scheme;
use guardspec_sim::{
    simulate_compiled_packed_in, simulate_sampled_in, CompiledProgram, MachineConfig, SampleParams,
    SimContext,
};

/// Shape with every feature on and a long outer loop, so traces are long
/// enough for multiple detail windows.
fn shape() -> ShapeParams {
    ShapeParams {
        depth: 2,
        stmts: 3,
        regions: 3,
        max_trip: 3,
        mem_words: 64,
        repeat: 160,
        helpers: 1,
        fp: true,
        fpdiv: true,
        cross_jumps: true,
        guards: true,
    }
}

#[test]
fn sampled_ci_covers_exact_ipc_at_nominal_rate() {
    let cfg = MachineConfig::r10000();
    let params = shape();
    // A *prime* interval keeps the systematic sampler from phase-locking
    // onto generated loop periods (which are overwhelmingly powers of two
    // and small composites): successive windows precess through loop
    // phases instead of resampling the same one.
    let sp = SampleParams {
        detail: 24,
        warmup: 24,
        interval: 127,
    };
    let total = 100u64;
    let mut covered = 0u64;
    let mut multi_window = 0u64;
    let mut ctx = SimContext::new(&cfg);
    for seed in 0..total {
        let prog = generate(&params, seed);
        let (layout, trace, _) = trace_program(&prog).expect("generated program runs");
        let shared = tracefile::pack(&layout, &trace, 0);
        let comp = CompiledProgram::build(&prog, &layout);
        let exact = simulate_compiled_packed_in(&mut ctx, &comp, &shared, Scheme::TwoBit, &cfg)
            .expect("exact run");
        let (_, s1) = simulate_sampled_in(&mut ctx, &comp, &shared, Scheme::TwoBit, &cfg, sp)
            .expect("sampled run");
        // Determinism: an immediate re-run in the same (reused) context
        // reproduces the estimate bit for bit.
        let (_, s2) = simulate_sampled_in(&mut ctx, &comp, &shared, Scheme::TwoBit, &cfg, sp)
            .expect("sampled rerun");
        assert_eq!(s1.windows, s2.windows, "seed {seed}");
        assert_eq!(s1.measured_entries, s2.measured_entries, "seed {seed}");
        assert_eq!(
            s1.ipc_mean.to_bits(),
            s2.ipc_mean.to_bits(),
            "seed {seed}: ipc_mean not deterministic"
        );
        assert_eq!(
            s1.ipc_ci95.to_bits(),
            s2.ipc_ci95.to_bits(),
            "seed {seed}: ipc_ci95 not deterministic"
        );
        if s1.windows >= 2 {
            multi_window += 1;
        }
        if (s1.ipc_mean - exact.ipc()).abs() <= s1.ipc_ci95 {
            covered += 1;
        } else {
            eprintln!(
                "seed {seed}: exact {:.4} outside {:.4} ± {:.4} ({} windows)",
                exact.ipc(),
                s1.ipc_mean,
                s1.ipc_ci95,
                s1.windows
            );
        }
    }
    // The population must actually exercise the estimator, not the exact
    // fallback (which covers trivially).
    assert!(
        multi_window >= 80,
        "only {multi_window}/{total} programs produced >= 2 windows; traces too short"
    );
    assert!(
        covered >= 95,
        "CI covered the exact IPC for only {covered}/{total} programs (need >= 95)"
    );
}
