//! Guarded execution (if-conversion) — Figure 1(d) of the paper.
//!
//! A hammock's branch is deleted: the branch condition is materialized into
//! a predicate (condition-code) register with `setp`, both arm bodies are
//! merged into the head guarded by the predicate (taken arm on `p`,
//! fall-through arm on `!p`), and the head jumps straight to the join.
//! "The control dependences originally present in the form of conditional
//! branches are eliminated and now treated as data dependences."

use crate::renamepool::RenamePool;
use guardspec_analysis::Hammock;
use guardspec_ir::{BlockId, BranchCond, Function, Guard, Instruction, Opcode, PredReg};

/// Why a hammock could not be converted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IfConvertError {
    /// Head does not end in a convertible conditional branch.
    NotABranch,
    /// An arm instruction cannot carry a guard (call, control flow) or is
    /// already guarded (nested predication is out of scope, as in the
    /// paper's compiler which makes "most conservative assumptions" absent
    /// a full-blown predicate analyzer).
    UnguardableArm,
    /// No free predicate register remains.
    NoPredReg,
    /// Arm longer than the requested limit.
    ArmTooLong,
    /// The branch tests a predicate register that an arm redefines; guarding
    /// the arm on it would switch the guard mid-arm (found by the
    /// differential fuzzer — see tests/corpus/ifconvert-pred-clobber.case).
    ClobbersPredicate,
}

/// Outcome of one conversion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IfConvertStats {
    /// Instructions that received a guard.
    pub guarded_ops: usize,
    /// `setp`/`pnot` instructions inserted.
    pub setup_ops: usize,
}

/// Check convertibility without mutating.
pub fn can_convert(f: &Function, h: &Hammock, max_arm_len: usize) -> Result<(), IfConvertError> {
    let head = f.block(h.head);
    let term = head.terminator().ok_or(IfConvertError::NotABranch)?;
    if !matches!(term.op, Opcode::Branch { likely: false, .. }) {
        return Err(IfConvertError::NotABranch);
    }
    // A predicate-tested branch reuses its predicate as the guard, so the
    // guard must stay constant across the merged arms: reject arms that
    // write it.  (Compare branches get a fresh pool predicate, which by
    // construction no existing instruction references.)
    let guard_pred = match term.op {
        Opcode::Branch {
            cond: BranchCond::PredT(p) | BranchCond::PredF(p),
            ..
        } => Some(p),
        _ => None,
    };
    for arm in h.arm_blocks() {
        let body = f.block(arm).body();
        if body.len() > max_arm_len {
            return Err(IfConvertError::ArmTooLong);
        }
        for i in body {
            if !i.can_guard() || i.guard.is_some() {
                return Err(IfConvertError::UnguardableArm);
            }
            if let (Some(gp), Some(guardspec_ir::Reg::Pred(d))) = (guard_pred, i.def()) {
                if d == gp {
                    return Err(IfConvertError::ClobbersPredicate);
                }
            }
        }
    }
    Ok(())
}

/// Convert the hammock.  The head ends up with:
///
/// ```text
/// <original head body>
/// setp p, <branch condition>        (unless the branch tested a predicate)
/// (!p) <fall-through arm body, guarded>
/// (p)  <taken arm body, guarded>
/// j join
/// ```
///
/// The arm blocks become unreachable `j join` stubs (removable by a
/// cleanup pass; left in place so no block ids shift).
pub fn if_convert(
    f: &mut Function,
    h: &Hammock,
    pool: &mut RenamePool,
    max_arm_len: usize,
) -> Result<IfConvertStats, IfConvertError> {
    can_convert(f, h, max_arm_len)?;
    let mut stats = IfConvertStats::default();

    // Pull the branch condition.
    let cond = match f.block(h.head).terminator().map(|t| &t.op) {
        Some(Opcode::Branch { cond, .. }) => *cond,
        _ => return Err(IfConvertError::NotABranch),
    };

    // Predicate register + setup code: p is true exactly when the branch
    // would have been taken.
    let mut setup: Vec<Instruction> = Vec::new();
    let (p, expect_taken): (PredReg, bool) = match cond {
        BranchCond::PredT(p0) => (p0, true),
        BranchCond::PredF(p0) => (p0, false),
        other => {
            let p0 = pool.take_pred().ok_or(IfConvertError::NoPredReg)?;
            let (sc, a, rhs) = other.as_compare().expect("non-predicate branch");
            let op = match rhs {
                Some(b) => Opcode::SetP {
                    cond: sc,
                    dst: p0,
                    a,
                    b,
                },
                None => Opcode::SetPImm {
                    cond: sc,
                    dst: p0,
                    a,
                    imm: 0,
                },
            };
            setup.push(Instruction::new(op));
            stats.setup_ops += 1;
            (p0, true)
        }
    };

    // Collect guarded arm bodies: fall-through arm executes when the branch
    // is NOT taken.
    let mut merged: Vec<Instruction> = Vec::new();
    let mut take_arm = |f: &mut Function, arm: Option<BlockId>, expect: bool| {
        if let Some(a) = arm {
            let body: Vec<Instruction> = f.block(a).body().to_vec();
            for mut i in body {
                i.guard = Some(Guard { pred: p, expect });
                merged.push(i);
                stats.guarded_ops += 1;
            }
            // Stub the arm: unreachable but structurally valid.
            f.block_mut(a).insns = vec![Instruction::new(Opcode::Jump { target: h.join })];
        }
    };
    take_arm(f, h.fall_arm, !expect_taken);
    take_arm(f, h.taken_arm, expect_taken);

    // Rebuild the head.
    let head = f.block_mut(h.head);
    head.insns.pop(); // the branch
    head.insns.extend(setup);
    head.insns.extend(merged);
    head.insns
        .push(Instruction::new(Opcode::Jump { target: h.join }));

    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardspec_analysis::{find_hammocks, Cfg};
    use guardspec_interp::run;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::r;
    use guardspec_ir::validate::assert_valid;
    use guardspec_ir::{FuClass, FuncId, Program};

    /// abs-diff diamond: if (r1 < r2) r3 = r2-r1 else r3 = r1-r2.
    fn diamond_program(a: i64, b: i64) -> Program {
        let mut fb = FuncBuilder::new("absd");
        fb.block("entry");
        fb.li(r(1), a);
        fb.li(r(2), b);
        fb.block("head");
        fb.slt(r(4), r(1), r(2));
        fb.bne(r(4), r(0), "lt");
        fb.block("ge");
        fb.sub(r(3), r(1), r(2));
        fb.jump("join");
        fb.block("lt");
        fb.sub(r(3), r(2), r(1));
        fb.block("join");
        fb.sw(r(3), r(0), 1);
        fb.halt();
        single_func_program(fb)
    }

    fn convert_first_hammock(prog: &mut Program) -> IfConvertStats {
        let f = prog.func_mut(FuncId(0));
        let cfg = Cfg::build(f);
        let hs = find_hammocks(f, &cfg);
        assert!(!hs.is_empty(), "no hammock found");
        let mut pool = RenamePool::for_function(f);
        if_convert(f, &hs[0], &mut pool, 16).expect("convertible")
    }

    #[test]
    fn diamond_converts_and_branch_disappears() {
        let mut prog = diamond_program(3, 10);
        let stats = convert_first_hammock(&mut prog);
        assert_valid(&prog);
        assert_eq!(stats.guarded_ops, 2);
        assert_eq!(stats.setup_ops, 1);
        // No conditional branch remains on the executed path.
        let f = prog.func(FuncId(0));
        let head = f.block_by_label("head").unwrap();
        assert!(f.block(head).insns.iter().all(|i| !i.is_cond_branch()));
        // The merged body contains one guard-true and one guard-false op.
        let guards: Vec<bool> = f
            .block(head)
            .insns
            .iter()
            .filter_map(|i| i.guard.map(|g| g.expect))
            .collect();
        assert_eq!(guards.iter().filter(|g| **g).count(), 1);
        assert_eq!(guards.iter().filter(|g| !**g).count(), 1);
    }

    #[test]
    fn semantics_preserved_both_directions() {
        for (a, b) in [(3, 10), (10, 3), (5, 5), (-7, 2)] {
            let base = diamond_program(a, b);
            let mut conv = base.clone();
            convert_first_hammock(&mut conv);
            assert_eq!(
                run(&base).unwrap().machine.mem_checksum(),
                run(&conv).unwrap().machine.mem_checksum(),
                "if-conversion changed semantics for ({a},{b})"
            );
        }
    }

    #[test]
    fn triangle_converts() {
        // if (r1 != 0) r2 += 5
        let build = |v: i64| {
            let mut fb = FuncBuilder::new("tri");
            fb.block("entry");
            fb.li(r(1), v);
            fb.block("head");
            fb.beq(r(1), r(0), "join");
            fb.block("body");
            fb.addi(r(2), r(2), 5);
            fb.block("join");
            fb.sw(r(2), r(0), 1);
            fb.halt();
            single_func_program(fb)
        };
        for v in [0, 3] {
            let base = build(v);
            let mut conv = base.clone();
            convert_first_hammock(&mut conv);
            assert_valid(&conv);
            assert_eq!(
                run(&base).unwrap().machine.mem_checksum(),
                run(&conv).unwrap().machine.mem_checksum()
            );
        }
    }

    #[test]
    fn guarded_store_in_arm_converts_correctly() {
        let build = |v: i64| {
            let mut fb = FuncBuilder::new("gs");
            fb.block("entry");
            fb.li(r(1), v);
            fb.li(r(2), 99);
            fb.block("head");
            fb.beq(r(1), r(0), "join");
            fb.block("body");
            fb.sw(r(2), r(0), 7); // store only when r1 != 0
            fb.block("join");
            fb.halt();
            single_func_program(fb)
        };
        for v in [0, 1] {
            let base = build(v);
            let mut conv = base.clone();
            convert_first_hammock(&mut conv);
            let rb = run(&base).unwrap();
            let rc = run(&conv).unwrap();
            assert_eq!(rb.machine.mem[7], rc.machine.mem[7], "v={v}");
        }
    }

    #[test]
    fn increases_dynamic_ops_but_removes_branches() {
        // The paper's trade-off: guarded execution "may result in an
        // increase in the number of instructions that get executed
        // dynamically" while eliminating branches.
        let base = diamond_program(3, 10);
        let mut conv = base.clone();
        convert_first_hammock(&mut conv);
        let (pb, rb) = guardspec_interp::profile::profile_program(&base).unwrap();
        let (pc, rc) = guardspec_interp::profile::profile_program(&conv).unwrap();
        assert!(rc.summary.retired > rb.summary.retired);
        assert!(rc.summary.cond_branches < rb.summary.cond_branches);
        assert_eq!(rc.summary.annulled, 1); // the not-executed arm
                                            // Branch-class dynamic count drops.
        let bi = guardspec_interp::exec::class_index(FuClass::Branch);
        assert!(pc.by_class[bi] <= pb.by_class[bi]);
    }

    #[test]
    fn refuses_call_in_arm() {
        let mut pb = ProgramBuilder::new();
        let mut fb = FuncBuilder::new("main");
        fb.block("head");
        fb.beq(r(1), r(0), "join");
        fb.block("body");
        fb.addi(r(2), r(2), 1);
        fb.call("h");
        fb.jump("join");
        fb.block("join");
        fb.halt();
        let mut h = FuncBuilder::new("h");
        h.block("e");
        h.ret();
        pb.add_func(fb);
        pb.add_func(h);
        let mut prog = pb.finish("main");
        let f = prog.func_mut(FuncId(0));
        let cfg = Cfg::build(f);
        let hs = find_hammocks(f, &cfg);
        // The hammock detector already refuses call-bearing arms.
        assert!(hs.is_empty());
    }

    #[test]
    fn refuses_arm_longer_than_limit() {
        let mut prog = diamond_program(1, 2);
        let f = prog.func_mut(FuncId(0));
        let cfg = Cfg::build(f);
        let hs = find_hammocks(f, &cfg);
        let mut pool = RenamePool::for_function(f);
        assert_eq!(
            if_convert(f, &hs[0], &mut pool, 0),
            Err(IfConvertError::ArmTooLong)
        );
    }

    #[test]
    fn predicate_branch_reuses_predicate() {
        let build = |v: i64| {
            let mut fb = FuncBuilder::new("pb");
            fb.block("entry");
            fb.li(r(1), v);
            fb.setpi(guardspec_ir::SetCond::Gt, guardspec_ir::reg::p(1), r(1), 0);
            fb.block("head");
            fb.bpt(guardspec_ir::reg::p(1), "join");
            fb.block("body");
            fb.addi(r(2), r(2), 1);
            fb.block("join");
            fb.sw(r(2), r(0), 1);
            fb.halt();
            single_func_program(fb)
        };
        for v in [0, 5] {
            let base = build(v);
            let mut conv = base.clone();
            let stats = convert_first_hammock(&mut conv);
            assert_eq!(stats.setup_ops, 0, "no setp needed");
            assert_eq!(
                run(&base).unwrap().machine.mem_checksum(),
                run(&conv).unwrap().machine.mem_checksum()
            );
        }
    }

    /// Distilled from a fuzzer-found miscompile
    /// (tests/corpus/ifconvert-pred-clobber.case): when the branch tests a
    /// predicate that the arm itself redefines, guarding the merged arm on
    /// that predicate flips the guard mid-arm and annuls the arm's tail.
    /// Such hammocks must be rejected, not converted.
    #[test]
    fn arm_redefining_branch_predicate_is_rejected() {
        use guardspec_ir::reg::p;
        let mut fb = FuncBuilder::new("clob");
        fb.block("entry");
        fb.li(r(1), 7);
        fb.setpi(guardspec_ir::SetCond::Gt, p(1), r(1), 0);
        fb.block("head");
        fb.bpf(p(1), "join");
        fb.block("arm");
        fb.setp(guardspec_ir::SetCond::Ge, p(1), r(2), r(1));
        fb.addi(r(2), r(2), 1);
        fb.block("join");
        fb.sw(r(2), r(0), 1);
        fb.halt();
        let prog = single_func_program(fb);
        assert_valid(&prog);
        let f = prog.func(FuncId(0));
        let cfg = Cfg::build(f);
        let hs = find_hammocks(f, &cfg);
        assert_eq!(hs.len(), 1);
        assert_eq!(
            can_convert(f, &hs[0], 16),
            Err(IfConvertError::ClobbersPredicate)
        );
        // A compare-tested branch gets a fresh pool predicate, so an arm
        // writing some *other* predicate is still convertible.
        let mut fb = FuncBuilder::new("ok");
        fb.block("entry");
        fb.li(r(1), 7);
        fb.block("head");
        fb.bgtz(r(1), "join");
        fb.block("arm");
        fb.setp(guardspec_ir::SetCond::Ge, p(2), r(2), r(1));
        fb.addi(r(2), r(2), 1);
        fb.block("join");
        fb.sw(r(2), r(0), 1);
        fb.halt();
        let base = single_func_program(fb);
        let mut conv = base.clone();
        convert_first_hammock(&mut conv);
        assert_valid(&conv);
        assert_eq!(
            run(&base).unwrap().machine.mem_checksum(),
            run(&conv).unwrap().machine.mem_checksum()
        );
    }
}
