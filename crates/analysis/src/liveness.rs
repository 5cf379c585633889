//! Per-block liveness analysis.
//!
//! Classic backward may-analysis over [`RegSet`]s.  Guarded instructions are
//! treated conservatively: a guarded def is *not* a kill (the old value
//! survives when the guard is false) but still counts as a def for def-use
//! queries.  This is exactly the conservatism Section 3 describes: "a clear
//! demarcation of the different live ranges ... can be \[a\] complicated task
//! especially now that the register lifetimes are conditional.  Most
//! conservative assumptions need to be made unless a full-blown predicate
//! analyzer is available."

use crate::cfg::Cfg;
use crate::regset::RegSet;
use guardspec_ir::{BlockId, Function, Opcode, Reg};

/// Liveness facts for one function.
#[derive(Clone, Debug)]
pub struct Liveness {
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
    /// Upward-exposed uses per block.
    gen: Vec<RegSet>,
    /// Unconditional kills per block.
    kill: Vec<RegSet>,
}

impl Liveness {
    /// Compute liveness for `f`.  Memory is not tracked (stores/loads only
    /// use their address and data registers).
    pub fn compute(f: &Function, cfg: &Cfg) -> Liveness {
        let n = f.num_blocks();
        let mut gen = vec![RegSet::new(); n];
        let mut kill = vec![RegSet::new(); n];
        for (id, b) in f.iter_blocks() {
            let (g, k) = (&mut gen[id.index()], &mut kill[id.index()]);
            for insn in &b.insns {
                // A call transfers control to a callee operating on the SAME
                // architectural register file, so it may read any register:
                // everything not yet killed in this block is upward-exposed.
                // (Callee writes are possible but not guaranteed — no kill.)
                if matches!(insn.op, Opcode::Call { .. }) {
                    g.union_without(&RegSet::all(), k);
                }
                for u in insn.uses() {
                    if !k.contains(u) && !u.is_int_zero() {
                        g.insert(u);
                    }
                }
                if let Some(d) = insn.def() {
                    // A guarded def only conditionally overwrites: it is not
                    // a kill, and the destination's old value stays live.
                    if insn.guard.is_none() && !d.is_int_zero() {
                        k.insert(d);
                    } else if insn.guard.is_some() && !k.contains(d) && !d.is_int_zero() {
                        // Conditional def: old value may be observed below,
                        // treat the dest as upward-exposed.
                        g.insert(d);
                    }
                }
            }
        }

        let mut live_in = vec![RegSet::new(); n];
        let mut live_out = vec![RegSet::new(); n];
        // Iterate to fixpoint in postorder (reverse RPO) for fast convergence.
        let order: Vec<BlockId> = cfg.rpo().iter().rev().copied().collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let mut out = RegSet::new();
                for &s in cfg.succs(b) {
                    out.union_with(&live_in[s.index()]);
                }
                let mut inp = out;
                // in = gen ∪ (out - kill)
                for r in kill[b.index()].iter() {
                    inp.remove(r);
                }
                inp.union_with(&gen[b.index()]);
                if inp != live_in[b.index()] || out != live_out[b.index()] {
                    live_in[b.index()] = inp;
                    live_out[b.index()] = out;
                    changed = true;
                }
            }
        }
        Liveness {
            live_in,
            live_out,
            gen,
            kill,
        }
    }

    pub fn live_in(&self, b: BlockId) -> &RegSet {
        &self.live_in[b.index()]
    }

    pub fn live_out(&self, b: BlockId) -> &RegSet {
        &self.live_out[b.index()]
    }

    pub fn upward_exposed(&self, b: BlockId) -> &RegSet {
        &self.gen[b.index()]
    }

    pub fn kills(&self, b: BlockId) -> &RegSet {
        &self.kill[b.index()]
    }

    /// Is `r` live on entry to `b`?
    pub fn is_live_in(&self, b: BlockId, r: Reg) -> bool {
        self.live_in[b.index()].contains(r)
    }

    /// Registers live at a given instruction position within a block
    /// (just *before* executing instruction `idx`), by walking backward
    /// from the block's live-out set.
    pub fn live_before(&self, f: &Function, b: BlockId, idx: usize) -> RegSet {
        let blk = f.block(b);
        let mut live = self.live_out[b.index()];
        for i in (idx..blk.insns.len()).rev() {
            let insn = &blk.insns[i];
            if let Some(d) = insn.def() {
                if insn.guard.is_none() {
                    live.remove(d);
                }
            }
            if matches!(insn.op, Opcode::Call { .. }) {
                live.union_with(&RegSet::all());
            }
            for u in insn.uses() {
                if !u.is_int_zero() {
                    live.insert(u);
                }
            }
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::{p, r};
    use guardspec_ir::{Guard, Opcode};

    #[test]
    fn straight_line_liveness() {
        let mut fb = FuncBuilder::new("f");
        fb.block("a");
        fb.add(r(3), r(1), r(2)); // uses r1,r2
        fb.block("b");
        fb.sw(r(3), r(4), 0); // uses r3,r4
        fb.halt();
        let f = fb.finish();
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(lv.is_live_in(guardspec_ir::BlockId(0), r(1).into()));
        assert!(lv.is_live_in(guardspec_ir::BlockId(0), r(2).into()));
        assert!(lv.is_live_in(guardspec_ir::BlockId(0), r(4).into()));
        // r3 is killed in block a before any use.
        assert!(!lv.is_live_in(guardspec_ir::BlockId(0), r(3).into()));
        assert!(lv.is_live_in(guardspec_ir::BlockId(1), r(3).into()));
    }

    #[test]
    fn figure1_renaming_condition_r6_live_on_fallthru() {
        // The paper's Figure 1: sub r6,r3,1 sits below `beq r1,r2,L1`; r6 is
        // live on the taken path (L1 uses r6), so speculation must rename.
        let mut fb = FuncBuilder::new("fig1");
        fb.block("entry");
        fb.beq(r(1), r(2), "L1");
        fb.block("fall");
        fb.subi(r(6), r(3), 1);
        fb.add(r(8), r(6), r(4));
        fb.jump("L2");
        fb.block("L1");
        fb.add(r(9), r(6), r(5)); // uses the OLD r6
        fb.block("L2");
        fb.halt();
        let f = fb.finish();
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        // r6 live into L1 (old value needed) => live out of entry.
        assert!(lv.is_live_in(guardspec_ir::BlockId(2), r(6).into()));
        assert!(lv.live_out(guardspec_ir::BlockId(0)).contains(r(6).into()));
    }

    #[test]
    fn loop_carried_liveness() {
        let mut fb = FuncBuilder::new("l");
        fb.block("head");
        fb.addi(r(1), r(1), 1); // r1 = r1 + 1: live around the loop
        fb.bne(r(1), r(2), "head");
        fb.block("exit");
        fb.sw(r(1), r(3), 0);
        fb.halt();
        let f = fb.finish();
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        let head = guardspec_ir::BlockId(0);
        assert!(lv.is_live_in(head, r(1).into()));
        assert!(lv.live_out(head).contains(r(1).into()));
        assert!(lv.is_live_in(head, r(2).into()));
    }

    #[test]
    fn guarded_def_is_not_a_kill() {
        let mut fb = FuncBuilder::new("g");
        fb.block("a");
        fb.push(guardspec_ir::Instruction::guarded(
            Opcode::Mov {
                dst: r(5),
                src: r(6),
            },
            Guard::if_true(p(1)),
        ));
        fb.block("b");
        fb.sw(r(5), r(7), 0);
        fb.halt();
        let f = fb.finish();
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        // r5's pre-existing value can flow through the guarded mov.
        assert!(lv.is_live_in(guardspec_ir::BlockId(0), r(5).into()));
        // The guard predicate is a use.
        assert!(lv.is_live_in(guardspec_ir::BlockId(0), p(1).into()));
    }

    #[test]
    fn live_before_walks_within_block() {
        let mut fb = FuncBuilder::new("w");
        fb.block("a");
        fb.li(r(1), 3);
        fb.add(r(2), r(1), r(3));
        fb.sw(r(2), r(4), 0);
        fb.halt();
        let f = fb.finish();
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        let b = guardspec_ir::BlockId(0);
        // Before insn 0: r3, r4 live (r1, r2 defined below before use).
        let l0 = lv.live_before(&f, b, 0);
        assert!(l0.contains(r(3).into()) && l0.contains(r(4).into()));
        assert!(!l0.contains(r(1).into()) && !l0.contains(r(2).into()));
        // Before insn 1 (the add): r1 live now.
        let l1 = lv.live_before(&f, b, 1);
        assert!(l1.contains(r(1).into()));
        assert!(!l1.contains(r(2).into()));
    }

    /// Distilled from a fuzzer-found miscompile
    /// (tests/corpus/speculate-call-liveness.case): a register that looks
    /// dead on a path is still observable by a callee on that path, so a
    /// call must count as a use of every register (callees share the
    /// architectural register file).
    #[test]
    fn call_makes_all_registers_live() {
        let mut fb = FuncBuilder::new("c");
        fb.block("a");
        fb.push(Opcode::Call {
            func: guardspec_ir::FuncId(0),
        });
        fb.block("b");
        fb.lw(r(13), r(0), 0); // r13 redefined before any local use
        fb.sw(r(13), r(0), 1);
        fb.halt();
        let f = fb.finish();
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        let a = guardspec_ir::BlockId(0);
        // Without the call, r13 would be dead into `a`; the callee may read it.
        assert!(lv.is_live_in(a, r(13).into()));
        assert!(!lv.is_live_in(a, r(0).into()), "r0 stays non-live");
        // live_before the call sees everything; after it only real uses.
        assert!(lv.live_before(&f, a, 0).contains(r(13).into()));
        assert!(!lv
            .live_before(&f, guardspec_ir::BlockId(1), 1)
            .contains(r(5).into()));
    }

    #[test]
    fn zero_register_never_live() {
        let mut fb = FuncBuilder::new("z");
        fb.block("a");
        fb.add(r(1), r(0), r(0));
        fb.sw(r(1), r(2), 0);
        fb.halt();
        let f = fb.finish();
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(!lv.is_live_in(guardspec_ir::BlockId(0), r(0).into()));
    }
}
