//! Figure 7 of the paper: split-branch instrumentation, printed before and
//! after, with the misprediction improvement measured in the simulator.
//!
//! Run with: `cargo run --release --example split_branch`

use guardspec::analysis::{Cfg, DomTree, LoopForest};
use guardspec::core::renamepool::RenamePool;
use guardspec::core::splitbranch::{split_branches, SplitPlan, SplitSpec};
use guardspec::core::{classify, BranchBehavior, FeedbackParams};
use guardspec::interp::profile::profile_program;
use guardspec::ir::builder::*;
use guardspec::ir::print::func_to_string;
use guardspec::ir::reg::r;
use guardspec::ir::{FuncId, InsnRef};
use guardspec::predict::Scheme;
use guardspec::sim::{simulate_program, MachineConfig};

fn main() {
    // An alternating branch (TFTF…) — the 2-bit predictor's pathological
    // case, and the paper's "algebraic counter" showcase: membership is
    // `(i & 1) == k`, so two predicated branch-likelies capture every
    // iteration and the 2-bit residual almost never executes.
    let mut fb = FuncBuilder::new("alternating");
    fb.block("entry");
    fb.li(r(1), 0);
    fb.li(r(9), 500);
    fb.block("head");
    fb.andi(r(2), r(1), 1);
    fb.bne(r(2), r(0), "B3");
    fb.block("B2");
    fb.addi(r(6), r(6), 1);
    fb.jump("B4");
    fb.block("B3");
    fb.addi(r(5), r(5), 1);
    fb.block("B4");
    fb.addi(r(1), r(1), 1);
    fb.bne(r(1), r(9), "head");
    fb.block("done");
    fb.sw(r(5), r(0), 1);
    fb.sw(r(6), r(0), 2);
    fb.halt();
    let base = single_func_program(fb);
    println!("=== before ===\n{}", func_to_string(&base.funcs[0], None));

    // Profile + classify the branch.
    let (profile, _) = profile_program(&base).expect("profile");
    let f = base.func(FuncId(0));
    let bb = f.block_by_label("head").unwrap();
    let site = InsnRef {
        func: FuncId(0),
        block: bb,
        idx: f.block(bb).insns.len() as u32 - 1,
    };
    let bp = profile.branch(site).expect("profiled");
    let params = FeedbackParams::default();
    let plan = match classify(&bp.outcomes, &params) {
        BranchBehavior::Periodic { period, pattern } => {
            println!("branch classified Periodic (period {period}, pattern {pattern:?})\n");
            SplitPlan::periodic(period, pattern, bp.outcomes.len())
        }
        BranchBehavior::Phased { segments } => {
            println!("branch classified Phased: {segments:?}\n");
            SplitPlan::Phased { segments }
        }
        other => panic!("unexpected classification {other:?}"),
    };

    // Apply the split.
    let mut split = base.clone();
    {
        let f0 = split.func(FuncId(0));
        let cfg = Cfg::build(f0);
        let dom = DomTree::dominators(&cfg);
        let forest = LoopForest::build(f0, &cfg, &dom);
        let l = &forest.loops[0];
        let (header, body) = (l.header, l.body.clone());
        let f = split.func_mut(FuncId(0));
        let mut pool = RenamePool::for_function(f);
        let specs = vec![SplitSpec { block: bb, plan }];
        let (stats, _) =
            split_branches(f, header, &body, &specs, &mut pool, 0.15, 4).expect("split");
        println!(
            "=== after ({} likelies, {} instrumentation ops) ===\n{}",
            stats.likelies,
            stats.instrumentation_ops,
            func_to_string(&split.funcs[0], None)
        );
    }

    // Same results, fewer mispredictions.
    let cfg = MachineConfig::r10000();
    let (sb, rb) = simulate_program(&base, Scheme::TwoBit, &cfg).expect("sim");
    let (ss, rs) = simulate_program(&split, Scheme::Proposed, &cfg).expect("sim");
    assert_eq!(rb.machine.mem[1], rs.machine.mem[1]);
    assert_eq!(rb.machine.mem[2], rs.machine.mem[2]);
    println!("mispredicts: {} -> {}", sb.mispredicts, ss.mispredicts);
    println!("cycles:      {} -> {}", sb.cycles, ss.cycles);
    assert!(ss.mispredicts * 4 < sb.mispredicts);
    assert!(ss.cycles < sb.cycles);
}
