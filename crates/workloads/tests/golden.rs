//! Every workload's IR kernel must reproduce its Rust golden model, and the
//! dynamic profiles must show the characteristics the paper describes.

use guardspec_interp::exec::class_index;
use guardspec_interp::profile::profile_program;
use guardspec_interp::run;
use guardspec_ir::validate::assert_valid;
use guardspec_ir::FuClass;
use guardspec_workloads::{all_workloads, Scale};

#[test]
fn workloads_are_valid_programs() {
    for w in all_workloads(Scale::Test) {
        assert_valid(&w.program);
    }
}

#[test]
fn kernels_match_golden_models_at_test_scale() {
    for w in all_workloads(Scale::Test) {
        let res = run(&w.program).unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
        let bad = w.verify(&res.machine.mem);
        assert!(bad.is_empty(), "{}: mismatches {bad:?}", w.name);
    }
}

#[test]
fn kernels_match_golden_models_at_small_scale() {
    for w in all_workloads(Scale::Small) {
        let res = run(&w.program).unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
        let bad = w.verify(&res.machine.mem);
        assert!(bad.is_empty(), "{}: mismatches {bad:?}", w.name);
    }
}

#[test]
fn branch_fractions_match_table1_ballpark() {
    // Table 1 reports 19-23 % branch instructions; control transfers in our
    // kernels should sit in a generous 10-40 % band.
    for w in all_workloads(Scale::Small) {
        let (profile, _) = profile_program(&w.program).unwrap();
        let frac = profile.branch_fraction();
        assert!(
            (0.10..0.40).contains(&frac),
            "{}: branch fraction {frac:.3} out of band",
            w.name
        );
    }
}

#[test]
fn xlisp_is_dispatch_heavy() {
    let w = guardspec_workloads::xlisp::build(Scale::Test);
    let (profile, _) = profile_program(&w.program).unwrap();
    // Branch-class includes the jtab dispatches: one per VM op.
    let br = profile.by_class[class_index(FuClass::Branch)];
    assert!(
        br > profile.retired / 10,
        "jtab dispatch should dominate control"
    );
}

#[test]
fn compress_inner_branch_is_phased() {
    let w = guardspec_workloads::compress::build(Scale::Small);
    let (profile, _) = profile_program(&w.program).unwrap();
    // Find the `bne r9, r3, emit` site: block label "loop", last insn.
    let f = w.program.func(guardspec_ir::FuncId(0));
    let bb = f.block_by_label("loop").unwrap();
    let idx = f.block(bb).insns.len() as u32 - 1;
    let site = guardspec_ir::InsnRef {
        func: guardspec_ir::FuncId(0),
        block: bb,
        idx,
    };
    let bp = profile.branch(site).expect("profiled");
    // Run phase: rarely taken; pair phase: strictly alternating (TFTF).
    let v = &bp.outcomes;
    let n = v.len();
    let first = (0..n * 55 / 100).filter(|&i| v.get(i)).count() as f64 / (n * 55 / 100) as f64;
    let tail_start = n * 65 / 100;
    let last = (tail_start..n).filter(|&i| v.get(i)).count() as f64 / (n - tail_start) as f64;
    assert!(first < 0.25, "run phase taken rate {first:.2}");
    assert!(
        (0.4..0.6).contains(&last),
        "pair phase taken rate {last:.2}"
    );
    // Strict alternation in the pair phase.
    let toggles = (tail_start + 1..n)
        .filter(|&i| v.get(i) != v.get(i - 1))
        .count();
    assert!(
        toggles as f64 / (n - tail_start) as f64 > 0.95,
        "pair phase must alternate"
    );
}

#[test]
fn dynamic_size_ordering_matches_paper() {
    // Paper Table 1: xlisp >> espresso >> compress ~ grep.
    let counts: Vec<(String, u64)> = all_workloads(Scale::Paper)
        .into_iter()
        .map(|w| {
            let res = run(&w.program).unwrap();
            (w.name.to_string(), res.summary.retired)
        })
        .collect();
    let get = |n: &str| counts.iter().find(|(name, _)| name == n).unwrap().1;
    assert!(get("xlisp") > get("espresso"));
    assert!(get("espresso") > get("compress"));
    assert!(get("espresso") > get("grep"));
}

#[test]
fn ocean_fp_kernel_matches_golden_bit_exactly() {
    for scale in [Scale::Test, Scale::Small] {
        let w = guardspec_workloads::ocean::build(scale);
        assert_valid(&w.program);
        let (profile, res) =
            profile_program(&w.program).unwrap_or_else(|e| panic!("ocean failed: {e}"));
        let bad = w.verify(&res.machine.mem);
        assert!(bad.is_empty(), "ocean {scale:?}: {bad:?}");
        // The FP pipes actually ran.
        assert!(profile.by_class[class_index(FuClass::FpAdd)] > 100);
        assert!(profile.by_class[class_index(FuClass::FpMul)] > 10);
        assert!(profile.by_class[class_index(FuClass::FpDiv)] >= 1);
    }
}
