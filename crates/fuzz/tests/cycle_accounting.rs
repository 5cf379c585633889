//! Property test for the simulator's cycle accounting: on arbitrary
//! generated programs, under every predictor scheme,
//!
//! * the bucket sums equal `stats.cycles` exactly (every cycle attributed
//!   to exactly one cause — `CycleAccounting::check` also ties per-site
//!   counters back to the aggregate mispredict statistics), and
//! * the materialized-slice and packed trace sources produce identical
//!   accounting (the observer sees the same retired stream no matter how
//!   it is delivered).

use guardspec_fuzz::{case_seed, generate, ShapeParams};
use guardspec_interp::trace::trace_program;
use guardspec_interp::{Interp, PackedRecorder};
use guardspec_predict::Scheme;
use guardspec_sim::reference::{prepare_program, simulate};
use guardspec_sim::{CycleAccounting, MachineConfig, PackedSource, SimContext, SliceSource};

const CASES: u64 = 16;
const BASE_SEED: u64 = 0xacc0_0171;

#[test]
fn bucket_sums_equal_cycles_across_trace_sources() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let cfg = MachineConfig::r10000();
    let mut nontrivial = 0u32;
    for i in 0..CASES {
        let seed = case_seed(BASE_SEED, i);
        let mut rng = SmallRng::seed_from_u64(seed);
        let params = ShapeParams::sample(&mut rng);
        let prog = generate(&params, seed);

        let (_, entries, _exec) = trace_program(&prog).expect("trace");
        if entries.len() > 100 {
            nontrivial += 1;
        }

        // The packed trace comes from a second interpretation of the same
        // (deterministic) program.
        let mut recorder = PackedRecorder::new(&prog);
        Interp::new(&prog)
            .run_with(&mut recorder)
            .expect("interpret");
        let packed = recorder.finish(0);
        let prep = prepare_program(&prog);

        for scheme in Scheme::ALL {
            let mut slice_acct = CycleAccounting::new();
            let slice_stats = simulate(
                &mut SimContext::new(&cfg),
                &prep,
                SliceSource::new(&entries),
                scheme,
                &cfg,
                &mut slice_acct,
            )
            .expect("simulate slice");
            // The invariant set: buckets sum to cycles, site counters sum
            // to the aggregate mispredict statistics.
            slice_acct.check(&slice_stats);

            let mut ctx = SimContext::new(&cfg);
            let mut packed_acct = CycleAccounting::new();
            let packed_stats = simulate(
                &mut ctx,
                &prep,
                PackedSource::new(&packed),
                scheme,
                &cfg,
                &mut packed_acct,
            )
            .expect("simulate packed");

            assert_eq!(
                slice_stats, packed_stats,
                "case {i} {scheme:?}: slice vs packed stats"
            );
            assert_eq!(
                slice_acct, packed_acct,
                "case {i} {scheme:?}: slice vs packed accounting"
            );
        }
    }
    assert!(
        nontrivial >= CASES as u32 / 2,
        "generator produced mostly trivial traces; property is vacuous"
    );
}
