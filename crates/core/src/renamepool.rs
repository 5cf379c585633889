//! Free-register discovery for software renaming and instrumentation.
//!
//! Software renaming "can either be from the pool of free registers (at
//! that time) or dedicated registers" (Section 1).  We use the simplest
//! sound pool: registers the *program* never references at all, drawn
//! preferentially from the non-architectural half (`r32..r63`), which the
//! paper's compiler treats as the dedicated renaming pool.  The scan must
//! be program-wide, not per-function, because every function executes on
//! the same register file: a callee may read a register its caller's
//! transform just claimed, and vice versa.

use guardspec_ir::reg::{NUM_FLT_REGS, NUM_INT_REGS, NUM_PRED_REGS};
use guardspec_ir::{FltReg, Function, IntReg, PredReg, Program, Reg};

/// Pool of registers unreferenced anywhere in a function.
#[derive(Clone, Debug)]
pub struct RenamePool {
    free_int: Vec<IntReg>,
    free_flt: Vec<FltReg>,
    free_pred: Vec<PredReg>,
}

impl RenamePool {
    /// Scan `f` and collect every unreferenced register.
    ///
    /// Sound only for single-function programs: the register file is shared
    /// across calls, so a register free in `f` may still be read by a callee
    /// (or hold a caller's value live across the call into `f`).  Whole
    /// programs should use [`RenamePool::for_program`].
    pub fn for_function(f: &Function) -> RenamePool {
        let mut used = [false; Reg::DENSE_COUNT];
        Self::mark(f, &mut used);
        Self::from_used(&used)
    }

    /// Scan *every* function of `prog` and collect registers unreferenced
    /// anywhere.  Because all functions share one architectural register
    /// file, a pool register written in one function is visible to its
    /// callees and callers; drawing from the program-wide free set (and
    /// re-scanning after earlier transforms have claimed registers) keeps
    /// renaming sound across calls.  Found by the differential fuzzer — see
    /// tests/corpus/renamepool-cross-call.case.
    pub fn for_program(prog: &Program) -> RenamePool {
        let mut used = [false; Reg::DENSE_COUNT];
        for f in &prog.funcs {
            Self::mark(f, &mut used);
        }
        Self::from_used(&used)
    }

    fn mark(f: &Function, used: &mut [bool; Reg::DENSE_COUNT]) {
        for b in &f.blocks {
            for i in &b.insns {
                if let Some(d) = i.def() {
                    used[d.dense_index()] = true;
                }
                for u in i.uses() {
                    used[u.dense_index()] = true;
                }
            }
        }
    }

    fn from_used(used: &[bool; Reg::DENSE_COUNT]) -> RenamePool {
        // Prefer the dedicated pool r32..r63, then any unused architectural
        // register except r0.
        let mut free_int: Vec<IntReg> = (32..NUM_INT_REGS)
            .chain(1..32)
            .map(IntReg)
            .filter(|r| !used[Reg::Int(*r).dense_index()])
            .collect();
        let mut free_flt: Vec<FltReg> = (32..NUM_FLT_REGS)
            .chain(0..32)
            .map(FltReg)
            .filter(|r| !used[Reg::Flt(*r).dense_index()])
            .collect();
        let mut free_pred: Vec<PredReg> = (0..NUM_PRED_REGS)
            .map(PredReg)
            .filter(|r| !used[Reg::Pred(*r).dense_index()])
            .collect();
        // Allocate from the back cheaply.
        free_int.reverse();
        free_flt.reverse();
        free_pred.reverse();
        RenamePool {
            free_int,
            free_flt,
            free_pred,
        }
    }

    /// Take a free integer register, if any remain.
    pub fn take_int(&mut self) -> Option<IntReg> {
        self.free_int.pop()
    }

    pub fn take_flt(&mut self) -> Option<FltReg> {
        self.free_flt.pop()
    }

    pub fn take_pred(&mut self) -> Option<PredReg> {
        self.free_pred.pop()
    }

    /// Take a free register in the same file as `like`.
    pub fn take_like(&mut self, like: Reg) -> Option<Reg> {
        match like {
            Reg::Int(_) => self.take_int().map(Reg::Int),
            Reg::Flt(_) => self.take_flt().map(Reg::Flt),
            Reg::Pred(_) => self.take_pred().map(Reg::Pred),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardspec_ir::builder::FuncBuilder;
    use guardspec_ir::reg::{p, r};
    use guardspec_ir::SetCond;

    #[test]
    fn pool_excludes_referenced_registers() {
        let mut fb = FuncBuilder::new("f");
        fb.block("e");
        fb.add(r(3), r(1), r(2));
        fb.setpi(SetCond::Lt, p(1), r(3), 10);
        fb.halt();
        let f = fb.finish();
        let mut pool = RenamePool::for_function(&f);
        let mut taken = std::collections::HashSet::new();
        while let Some(ri) = pool.take_int() {
            assert!(!ri.is_zero());
            assert!(![1u8, 2, 3].contains(&ri.0), "r{} is referenced", ri.0);
            assert!(taken.insert(ri), "duplicate register");
        }
        // p1 is used; p0 and p2.. are free.
        let pr = pool.take_pred().unwrap();
        assert_ne!(pr, p(1));
    }

    #[test]
    fn program_pool_excludes_other_functions_registers() {
        // leaf reads p5 and r40 without ever writing them: it observes the
        // caller's register file, so neither may be handed out as a rename
        // register anywhere in the program.
        let mut main = FuncBuilder::new("main");
        main.block("e");
        main.add(r(3), r(1), r(2));
        main.halt();
        let mut leaf = FuncBuilder::new("leaf");
        leaf.block("e");
        leaf.push_guarded(
            guardspec_ir::Opcode::AluImm {
                kind: guardspec_ir::insn::AluKind::Add,
                dst: r(40),
                a: r(40),
                imm: 1,
            },
            p(5),
            false,
        );
        leaf.ret();
        let mut pb = guardspec_ir::builder::ProgramBuilder::new();
        pb.add_func(main);
        pb.add_func(leaf);
        let prog = pb.finish("main");
        let mut pool = RenamePool::for_program(&prog);
        while let Some(ri) = pool.take_int() {
            assert_ne!(ri.0, 40, "r40 is referenced by leaf");
            assert!(![1u8, 2, 3].contains(&ri.0), "r{} referenced by main", ri.0);
        }
        let mut preds = Vec::new();
        while let Some(pr) = pool.take_pred() {
            preds.push(pr);
        }
        assert!(!preds.contains(&p(5)), "p5 is referenced by leaf");
    }

    #[test]
    fn prefers_dedicated_pool_first() {
        let mut fb = FuncBuilder::new("f");
        fb.block("e");
        fb.halt();
        let f = fb.finish();
        let mut pool = RenamePool::for_function(&f);
        let first = pool.take_int().unwrap();
        assert!(
            first.0 >= 32,
            "first allocation should come from r32..r63, got r{}",
            first.0
        );
    }

    #[test]
    fn take_like_matches_file() {
        let mut fb = FuncBuilder::new("f");
        fb.block("e");
        fb.halt();
        let f = fb.finish();
        let mut pool = RenamePool::for_function(&f);
        assert!(matches!(pool.take_like(Reg::Int(r(5))), Some(Reg::Int(_))));
        assert!(matches!(
            pool.take_like(Reg::Pred(p(0))),
            Some(Reg::Pred(_))
        ));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut fb = FuncBuilder::new("f");
        fb.block("e");
        fb.halt();
        let f = fb.finish();
        let mut pool = RenamePool::for_function(&f);
        while pool.take_pred().is_some() {}
        assert!(pool.take_pred().is_none());
    }
}
