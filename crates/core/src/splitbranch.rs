//! Split-branch instrumentation — Section 5 / Figure 7 of the paper.
//!
//! A non-monotonic branch whose iteration space splits into well-biased
//! phases gets per-phase control: an iteration counter (`i` in Figure 7),
//! predicates delimiting each phase, and *predicated branch-likely*
//! instructions that steer the strongly-biased phases with static
//! prediction, leaving the anomalous phases to the ordinary 2-bit-predicted
//! branch:
//!
//! ```text
//! L0:  i = i + 1                    # header top
//!      ...
//!      p1 = <branch condition>
//!      p2 = i < 40                  # phase-A membership
//!      p3 = i >= 60                 # phase-C membership
//!      if (p1 && p2) branch-likely L1    # taken-biased phase
//!      if (!p1 && p3) branch-likely L3   # not-taken-biased phase (to fall path)
//!      if (p1) branch L1                 # residual, 2-bit predicted
//! L3:  <fall path> ...
//! ```
//!
//! The likelies are *predicated branches* (the authors' prior mechanism,
//! \[13\]): a false guard annuls the branch with no prediction made, so they
//! are free outside their phase and statically correct inside it.
//!
//! Periodic toggle patterns (`TFTF…`, `TTFF…`) are instrumented with the
//! "algebraic counter" form the paper describes: membership is
//! `(i & (period-1)) == k` for power-of-two periods.  There are two plan
//! forms.  [`SplitPlan::Phased`] steers biased phases by range.
//! [`SplitPlan::Hybrid`] also steers Mixed phases that hide a pattern, and
//! adds range predicates only when more than one phase is periodic.  A
//! whole-loop periodic pattern is a `Hybrid` plan with one Mixed segment
//! from iteration 0 ([`SplitPlan::periodic`]).  The driver's one decision
//! per branch picks the plan.
//!
//! The generated code is *semantically identical* to the original branch
//! for every input, regardless of whether the profile matches the run:
//! the likelies only fire when `condition && phase` agree, and the residual
//! branch replicates the original exactly.

use crate::feedback::{Segment, SegmentClass};
use crate::remap::Remap;
use crate::renamepool::RenamePool;
use guardspec_ir::insn::{AluKind, PLogicKind};
use guardspec_ir::{
    BasicBlock, BlockId, BranchCond, Function, Guard, Instruction, IntReg, Opcode, PredReg, SetCond,
};

/// A segment plus, for Mixed segments only, the `(period, pattern)` of a
/// detected periodic sub-structure steering that phase's split.
pub type HybridSegment = (Segment, Option<(usize, Vec<bool>)>);

/// How to instrument one branch.
#[derive(Clone, Debug)]
pub enum SplitPlan {
    /// Contiguous biased phases of the iteration space.
    Phased { segments: Vec<Segment> },
    /// The per-segment extension: biased phases steered by range
    /// predicates, plus Mixed phases with their own periodic pattern
    /// steered by range && algebraic-counter predicates.
    Hybrid { segments: Vec<HybridSegment> },
}

impl SplitPlan {
    /// A whole-loop periodic pattern over `iterations` profiled iterations:
    /// one Mixed segment from iteration 0, steered by the algebraic counter
    /// alone.  `period` must be a power of two `<= 8`.
    pub fn periodic(period: usize, pattern: Vec<bool>, iterations: usize) -> SplitPlan {
        let taken = pattern.iter().filter(|&&t| t).count();
        let segment = Segment {
            start: 0,
            end: iterations,
            class: SegmentClass::Mixed,
            rate: taken as f64 / period.max(1) as f64,
        };
        SplitPlan::Hybrid {
            segments: vec![(segment, Some((period, pattern)))],
        }
    }
}

/// One branch to split.
#[derive(Clone, Debug)]
pub struct SplitSpec {
    /// Block whose terminator is the branch.
    pub block: BlockId,
    pub plan: SplitPlan,
}

/// Outcome of a [`split_branches`] call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Branch sites split.
    pub sites: usize,
    /// Branch-likely instructions emitted.
    pub likelies: usize,
    /// Instrumentation instructions emitted (setp/pand/pnot/counter ops).
    pub instrumentation_ops: usize,
}

/// Why splitting failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SplitError {
    NotABranch,
    NoCounterReg,
    NoPredReg,
    /// No segment is biased enough to earn a branch-likely.
    NoBiasedSegment,
    /// A periodic segment with an unsupported period (not a power of two
    /// ≤ 8) or a pattern of another length.
    UnsupportedPeriod,
}

/// Insert an empty block at layout position `pos`, shifting every target at
/// or beyond `pos` up by one.
pub fn insert_block_before(f: &mut Function, pos: BlockId, label: String) {
    for b in &mut f.blocks {
        for i in &mut b.insns {
            i.remap_targets(&mut |t| if t.0 >= pos.0 { BlockId(t.0 + 1) } else { t });
        }
    }
    f.blocks.insert(pos.index(), BasicBlock::new(label));
}

/// Split every branch in `specs` (all inside the loop headed by `header`
/// with body `body`), sharing one iteration counter.
///
/// Returns stats plus the [`Remap`] for the caller's pending references.
pub fn split_branches(
    f: &mut Function,
    header: BlockId,
    body: &[BlockId],
    specs: &[SplitSpec],
    pool: &mut RenamePool,
    min_segment_frac: f64,
    max_likelies_per_site: usize,
) -> Result<(SplitStats, Remap), SplitError> {
    let mut stats = SplitStats::default();
    let mut remap = Remap::new();
    let counter = pool.take_int().ok_or(SplitError::NoCounterReg)?;
    // One shared register set for every site in this loop: each site's
    // predicates are dead once its residual branch executes, so sites can
    // reuse the same registers.
    let regs = SplitRegs {
        p_true: pool.take_pred().ok_or(SplitError::NoPredReg)?,
        p_false: pool.take_pred().ok_or(SplitError::NoPredReg)?,
        tmp_a: pool.take_pred().ok_or(SplitError::NoPredReg)?,
        tmp_b: pool.take_pred().ok_or(SplitError::NoPredReg)?,
        guards: (0..max_likelies_per_site.max(1))
            .map(|_| pool.take_pred().ok_or(SplitError::NoPredReg))
            .collect::<Result<Vec<_>, _>>()?,
        tmp_c: pool.take_pred().ok_or(SplitError::NoPredReg)?,
        masked: pool.take_int().ok_or(SplitError::NoCounterReg)?,
    };

    // Process sites in descending block order so each site's block inserts
    // do not move sites processed later.
    let mut order: Vec<&SplitSpec> = specs.iter().collect();
    order.sort_by_key(|s| std::cmp::Reverse(s.block));

    for spec in order {
        let site_remap = split_one(
            f,
            spec,
            counter,
            &regs,
            min_segment_frac,
            max_likelies_per_site,
            &mut stats,
        )?;
        remap.extend(&site_remap);
    }
    if stats.sites == 0 {
        return Err(SplitError::NoBiasedSegment);
    }

    // Counter increment at the top of the (possibly shifted) header: the
    // counter holds the 0-based iteration index during each iteration.
    let header_now = remap.apply_block(header);
    f.block_mut(header_now).insns.insert(
        0,
        Instruction::new(Opcode::AluImm {
            kind: AluKind::Add,
            dst: counter,
            a: counter,
            imm: 1,
        }),
    );
    remap.insn_insert(header_now, 0, 1);
    stats.instrumentation_ops += 1;

    // Counter initialization.  Preferred: a fresh preheader immediately
    // before the header, entered by every loop-external predecessor.  If a
    // loop-body block physically precedes the header and falls through into
    // it (a fall-through back edge), a preheader would reset the counter
    // every iteration — fall back to initializing in the function entry
    // (still semantically safe: a stale counter only costs mispredicts).
    let body_now: Vec<BlockId> = body.iter().map(|&b| remap.apply_block(b)).collect();
    let fallthrough_backedge = header_now.0 > 0
        && body_now.contains(&BlockId(header_now.0 - 1))
        && f.block(BlockId(header_now.0 - 1)).falls_through();
    let init = Instruction::new(Opcode::Li {
        dst: counter,
        imm: -1,
    });
    if fallthrough_backedge {
        f.block_mut(BlockId(0)).insns.insert(0, init);
        remap.insn_insert(BlockId(0), 0, 1);
    } else {
        let label = f.fresh_label("preheader");
        insert_block_before(f, header_now, label);
        remap.block_insert(header_now);
        let pre = header_now;
        let new_header = BlockId(header_now.0 + 1);
        f.block_mut(pre).insns.push(init);
        // Retarget loop-external predecessors that explicitly target the
        // header; latches (in-body) keep targeting the header directly.
        let body_after: Vec<BlockId> = body_now
            .iter()
            .map(|&b| if b.0 >= pre.0 { BlockId(b.0 + 1) } else { b })
            .collect();
        let nblocks = f.blocks.len();
        for bi in 0..nblocks {
            let bid = BlockId(bi as u32);
            if bid == pre || body_after.contains(&bid) {
                continue;
            }
            if let Some(t) = f.block_mut(bid).terminator_mut() {
                t.remap_targets(&mut |t| if t == new_header { pre } else { t });
            }
        }
    }
    stats.instrumentation_ops += 1;

    Ok((stats, remap))
}

/// A planned likely: `taken_dir` says whether it steers toward the branch's
/// taken target or its fall path.
struct PlannedLikely {
    guard: PredReg,
    taken_dir: bool,
}

/// Registers shared by every split site of one loop.
struct SplitRegs {
    p_true: PredReg,
    p_false: PredReg,
    tmp_a: PredReg,
    tmp_b: PredReg,
    /// Extra temp for the hybrid (range && mask) membership.
    tmp_c: PredReg,
    guards: Vec<PredReg>,
    /// Integer temp for periodic masking.
    masked: IntReg,
}

/// Split a single site.  Returns its remap contribution.
fn split_one(
    f: &mut Function,
    spec: &SplitSpec,
    counter: IntReg,
    regs: &SplitRegs,
    min_segment_frac: f64,
    max_likelies: usize,
    stats: &mut SplitStats,
) -> Result<Remap, SplitError> {
    let mut remap = Remap::new();
    let b = spec.block;

    // The branch being split.
    let branch = match f.block(b).terminator() {
        Some(t) if matches!(t.op, Opcode::Branch { likely: false, .. }) && t.guard.is_none() => {
            t.clone()
        }
        _ => return Err(SplitError::NotABranch),
    };
    let (cond, orig_taken_target) = match branch.op {
        Opcode::Branch { cond, target, .. } => (cond, target),
        _ => unreachable!(),
    };

    // Predicate setup, all computed in block `b` before the first likely.
    let mut setup: Vec<Instruction> = Vec::new();

    // p_true <=> branch taken.
    let p_true: PredReg = match cond {
        BranchCond::PredT(q) => q,
        BranchCond::PredF(q) => {
            setup.push(Instruction::new(Opcode::PNot {
                dst: regs.p_true,
                src: q,
            }));
            regs.p_true
        }
        other => {
            let (sc, a, rhs) = other.as_compare().expect("compare branch");
            setup.push(Instruction::new(match rhs {
                Some(rb) => Opcode::SetP {
                    cond: sc,
                    dst: regs.p_true,
                    a,
                    b: rb,
                },
                None => Opcode::SetPImm {
                    cond: sc,
                    dst: regs.p_true,
                    a,
                    imm: 0,
                },
            }));
            regs.p_true
        }
    };
    // p_false, materialized lazily for not-taken-biased phases.
    let mut p_false: Option<PredReg> = None;
    let mut get_p_false = |setup: &mut Vec<Instruction>| -> PredReg {
        if let Some(pf) = p_false {
            return pf;
        }
        setup.push(Instruction::new(Opcode::PNot {
            dst: regs.p_false,
            src: p_true,
        }));
        p_false = Some(regs.p_false);
        regs.p_false
    };

    // Shared temporaries for phase membership.
    let (tmp_a, tmp_b, tmp_c) = (regs.tmp_a, regs.tmp_b, regs.tmp_c);
    let mut next_guard = 0usize;

    let mut likelies: Vec<PlannedLikely> = Vec::new();

    // Emit the range-membership predicate for `seg` into `dst`
    // (counter is the 0-based iteration index): [s, e) <=> s <= i < e.
    let emit_range = |setup: &mut Vec<Instruction>,
                      seg: &Segment,
                      total: usize,
                      dst: PredReg,
                      scratch: PredReg| {
        if seg.start == 0 {
            setup.push(Instruction::new(Opcode::SetPImm {
                cond: SetCond::Lt,
                dst,
                a: counter,
                imm: seg.end as i64,
            }));
        } else if seg.end >= total {
            setup.push(Instruction::new(Opcode::SetPImm {
                cond: SetCond::Ge,
                dst,
                a: counter,
                imm: seg.start as i64,
            }));
        } else {
            setup.push(Instruction::new(Opcode::SetPImm {
                cond: SetCond::Ge,
                dst,
                a: counter,
                imm: seg.start as i64,
            }));
            setup.push(Instruction::new(Opcode::SetPImm {
                cond: SetCond::Lt,
                dst: scratch,
                a: counter,
                imm: seg.end as i64,
            }));
            setup.push(Instruction::new(Opcode::PLogic {
                kind: PLogicKind::And,
                dst,
                a: dst,
                b: scratch,
            }));
        }
    };

    match &spec.plan {
        SplitPlan::Phased { segments } => {
            let total: usize = segments.iter().map(|s| s.len()).sum();
            let mut biased: Vec<&Segment> = segments
                .iter()
                .filter(|s| s.class != SegmentClass::Mixed && s.frac_of(total) >= min_segment_frac)
                .collect();
            biased.sort_by_key(|s| std::cmp::Reverse(s.len()));
            biased.truncate(max_likelies);
            biased.sort_by_key(|s| s.start);
            if biased.is_empty() {
                return Err(SplitError::NoBiasedSegment);
            }
            for seg in &biased {
                emit_range(&mut setup, seg, total, tmp_a, tmp_b);
                let taken_dir = seg.class == SegmentClass::Taken;
                let dir_pred = if taken_dir {
                    p_true
                } else {
                    get_p_false(&mut setup)
                };
                let g = *regs.guards.get(next_guard).ok_or(SplitError::NoPredReg)?;
                next_guard += 1;
                setup.push(Instruction::new(Opcode::PLogic {
                    kind: PLogicKind::And,
                    dst: g,
                    a: dir_pred,
                    b: tmp_a,
                }));
                likelies.push(PlannedLikely {
                    guard: g,
                    taken_dir,
                });
            }
        }
        SplitPlan::Hybrid { segments } => {
            let total: usize = segments.iter().map(|(s, _)| s.len()).sum();
            // The guards below always include the true branch condition, so
            // firing outside the intended phase is *correct* (the branch
            // would have been taken anyway) — the range predicate is purely
            // an optimization.  With a single periodic alignment it can be
            // dropped entirely, halving the instrumentation.
            let periodic_count = segments.iter().filter(|(_, p)| p.is_some()).count();
            let need_range = periodic_count > 1;
            let mut mask_emitted: Option<usize> = None;
            for (seg, periodic) in segments {
                if likelies.len() >= max_likelies.max(1) {
                    break;
                }
                match (seg.class, periodic) {
                    (SegmentClass::Mixed, Some((p, pattern))) => {
                        if !p.is_power_of_two() || *p > 8 || pattern.len() != *p {
                            return Err(SplitError::UnsupportedPeriod);
                        }
                        if need_range {
                            emit_range(&mut setup, seg, total, tmp_c, tmp_b);
                        }
                        // `masked = counter & (p-1)` — the algebraic counter.
                        if mask_emitted != Some(*p) {
                            setup.push(Instruction::new(Opcode::AluImm {
                                kind: AluKind::And,
                                dst: regs.masked,
                                a: counter,
                                imm: (*p - 1) as i64,
                            }));
                            mask_emitted = Some(*p);
                        }
                        // The pattern indexes iterations *within* the
                        // segment: align to the segment start.  Taken
                        // positions only — not-taken positions fall through
                        // to the residual, which then sees a near-constant
                        // stream the 2-bit counter handles.
                        for (k, &tk) in pattern.iter().enumerate() {
                            if !tk || likelies.len() >= max_likelies.max(1) {
                                continue;
                            }
                            let k_abs = (seg.start + k) & (p - 1);
                            setup.push(Instruction::new(Opcode::SetPImm {
                                cond: SetCond::Eq,
                                dst: tmp_a,
                                a: regs.masked,
                                imm: k_abs as i64,
                            }));
                            let g = *regs.guards.get(next_guard).ok_or(SplitError::NoPredReg)?;
                            next_guard += 1;
                            setup.push(Instruction::new(Opcode::PLogic {
                                kind: PLogicKind::And,
                                dst: g,
                                a: p_true,
                                b: tmp_a,
                            }));
                            if need_range {
                                setup.push(Instruction::new(Opcode::PLogic {
                                    kind: PLogicKind::And,
                                    dst: g,
                                    a: g,
                                    b: tmp_c,
                                }));
                            }
                            likelies.push(PlannedLikely {
                                guard: g,
                                taken_dir: true,
                            });
                        }
                    }
                    // Mixed-without-pattern and not-taken-biased segments
                    // are left to the 2-bit residual (a biased segment is
                    // exactly what a 2-bit counter predicts well).
                    (SegmentClass::Mixed, None) | (SegmentClass::NotTaken, _) => {}
                    (SegmentClass::Taken, _) => {
                        if seg.frac_of(total) < min_segment_frac {
                            continue;
                        }
                        emit_range(&mut setup, seg, total, tmp_a, tmp_b);
                        let g = *regs.guards.get(next_guard).ok_or(SplitError::NoPredReg)?;
                        next_guard += 1;
                        setup.push(Instruction::new(Opcode::PLogic {
                            kind: PLogicKind::And,
                            dst: g,
                            a: p_true,
                            b: tmp_a,
                        }));
                        likelies.push(PlannedLikely {
                            guard: g,
                            taken_dir: true,
                        });
                    }
                }
            }
            if likelies.is_empty() {
                return Err(SplitError::NoBiasedSegment);
            }
        }
    }

    // Insert the continuation blocks after `b`: one per likely beyond the
    // first, plus one for the residual branch.
    let n_conts = likelies.len();
    for k in 0..n_conts {
        let label = f.fresh_label("split");
        insert_block_before(f, BlockId(b.0 + 1 + k as u32), label);
        remap.block_insert(BlockId(b.0 + 1 + k as u32));
    }
    // After insertion the original fall-through block sits past the chain;
    // the taken target may also have shifted.
    let fall_target = BlockId(b.0 + 1 + n_conts as u32);
    let taken_target = if orig_taken_target.0 > b.0 {
        BlockId(orig_taken_target.0 + n_conts as u32)
    } else {
        orig_taken_target
    };

    stats.instrumentation_ops += setup.len();
    stats.likelies += likelies.len();
    stats.sites += 1;

    // Rebuild block b and the continuation chain.
    let mk_likely = |pl: &PlannedLikely| {
        let target = if pl.taken_dir {
            taken_target
        } else {
            fall_target
        };
        Instruction::guarded(
            Opcode::Branch {
                cond: BranchCond::PredT(pl.guard),
                target,
                likely: true,
            },
            Guard::if_true(pl.guard),
        )
    };
    {
        let first = mk_likely(&likelies[0]);
        let blk = f.block_mut(b);
        blk.insns.pop(); // the original branch (re-emitted as the residual)
        blk.insns.extend(setup);
        blk.insns.push(first);
    }
    for (k, pl) in likelies.iter().enumerate().skip(1) {
        let insn = mk_likely(pl);
        let cont = BlockId(b.0 + k as u32);
        f.block_mut(cont).insns.push(insn);
    }
    // Residual: the original branch, verbatim, in the last continuation.
    let residual = BlockId(b.0 + n_conts as u32);
    f.block_mut(residual)
        .insns
        .push(Instruction::new(Opcode::Branch {
            cond,
            target: taken_target,
            likely: false,
        }));

    Ok(remap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::{classify, BranchBehavior, FeedbackParams};
    use guardspec_analysis::{Cfg, DomTree, LoopForest};
    use guardspec_interp::profile::profile_program;
    use guardspec_interp::run;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::r;
    use guardspec_ir::validate::assert_valid;
    use guardspec_ir::{FuncId, Program};

    /// A 100-iteration loop whose forward branch is taken for the first 40
    /// iterations, toggles for 20, then is not taken for the last 40 —
    /// the Section 4 running example.
    fn phased_program() -> Program {
        let mut fb = FuncBuilder::new("phased");
        fb.block("entry");
        fb.li(r(1), 0);
        fb.li(r(9), 100);
        fb.block("head");
        fb.slti(r(2), r(1), 40);
        fb.bne(r(2), r(0), "TK");
        fb.block("mid");
        fb.slti(r(3), r(1), 60);
        fb.beq(r(3), r(0), "NT");
        fb.block("toggle");
        fb.andi(r(4), r(1), 1);
        fb.beq(r(4), r(0), "NT");
        fb.block("TK");
        fb.addi(r(5), r(5), 1);
        fb.jump("latch");
        fb.block("NT");
        fb.addi(r(6), r(6), 1);
        fb.block("latch");
        fb.addi(r(1), r(1), 1);
        fb.bne(r(1), r(9), "head");
        fb.block("done");
        fb.sw(r(5), r(0), 1);
        fb.sw(r(6), r(0), 2);
        fb.halt();
        single_func_program(fb)
    }

    /// A single-branch phased loop matching the Figure 7 shape.
    fn figure7_program() -> Program {
        let mut fb = FuncBuilder::new("fig7");
        fb.block("entry");
        fb.li(r(1), 0);
        fb.li(r(9), 100);
        fb.block("head");
        fb.slti(r(2), r(1), 40);
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
        single_func_program(fb)
    }

    /// Alternating branch (TFTF…) — 2-bit prediction's pathological case,
    /// instrumentable with the `(i & 1) == k` algebraic counter.
    fn alternating_program() -> Program {
        let mut fb = FuncBuilder::new("alt");
        fb.block("entry");
        fb.li(r(1), 0);
        fb.li(r(9), 200);
        fb.block("head");
        fb.andi(r(2), r(1), 1);
        fb.bne(r(2), r(0), "ODD");
        fb.block("EVEN");
        fb.addi(r(6), r(6), 1);
        fb.jump("latch");
        fb.block("ODD");
        fb.addi(r(5), r(5), 1);
        fb.block("latch");
        fb.addi(r(1), r(1), 1);
        fb.bne(r(1), r(9), "head");
        fb.block("done");
        fb.sw(r(5), r(0), 1);
        fb.sw(r(6), r(0), 2);
        fb.halt();
        single_func_program(fb)
    }

    fn plan_for(prog: &Program, branch_block_label: &str) -> SplitPlan {
        let (profile, _) = profile_program(prog).expect("profile");
        let f = prog.func(FuncId(0));
        let bb = f.block_by_label(branch_block_label).unwrap();
        let idx = f.block(bb).insns.len() as u32 - 1;
        let site = guardspec_ir::InsnRef {
            func: FuncId(0),
            block: bb,
            idx,
        };
        let bp = profile.branch(site).expect("branch profiled");
        let params = FeedbackParams {
            seg_window: 10,
            ..FeedbackParams::default()
        };
        match classify(&bp.outcomes, &params) {
            BranchBehavior::Phased { segments } => SplitPlan::Phased { segments },
            BranchBehavior::Periodic { period, pattern } => {
                SplitPlan::periodic(period, pattern, bp.outcomes.len())
            }
            other => panic!("expected splittable behavior, got {other:?}"),
        }
    }

    fn split_it(prog: &mut Program, branch_block_label: &str) -> SplitStats {
        let plan = plan_for(prog, branch_block_label);
        let f = prog.func(FuncId(0));
        let bb = f.block_by_label(branch_block_label).unwrap();
        let cfg = Cfg::build(f);
        let dom = DomTree::dominators(&cfg);
        let forest = LoopForest::build(f, &cfg, &dom);
        let l = &forest.loops[0];
        let (header, body) = (l.header, l.body.clone());
        let f = prog.func_mut(FuncId(0));
        let mut pool = RenamePool::for_function(f);
        let specs = vec![SplitSpec { block: bb, plan }];
        let (stats, _remap) =
            split_branches(f, header, &body, &specs, &mut pool, 0.15, 4).expect("split");
        stats
    }

    #[test]
    fn figure7_split_preserves_semantics() {
        let base = figure7_program();
        let mut split = base.clone();
        let stats = split_it(&mut split, "head");
        assert_valid(&split);
        assert_eq!(stats.sites, 1);
        assert!(stats.likelies >= 1);
        let rb = run(&base).expect("base");
        let rs = run(&split).expect("split");
        assert_eq!(rb.machine.mem[1], rs.machine.mem[1]);
        assert_eq!(rb.machine.mem[2], rs.machine.mem[2]);
    }

    #[test]
    fn figure7_split_emits_predicated_likelies_and_residual() {
        let mut prog = figure7_program();
        split_it(&mut prog, "head");
        let f = prog.func(FuncId(0));
        let likelies: Vec<&Instruction> = f
            .blocks
            .iter()
            .flat_map(|b| b.insns.iter())
            .filter(|i| i.is_branch_likely())
            .collect();
        assert!(!likelies.is_empty());
        // Every likely is predicated (guarded) per the Figure 7 form.
        assert!(likelies.iter().all(|i| i.guard.is_some()));
        let residuals = f
            .blocks
            .iter()
            .flat_map(|b| b.insns.iter())
            .filter(|i| i.is_cond_branch() && !i.is_branch_likely())
            .count();
        assert!(residuals >= 1);
    }

    #[test]
    fn phased_three_way_program_splits_and_preserves_semantics() {
        let base = phased_program();
        let mut split = base.clone();
        let stats = split_it(&mut split, "head");
        assert_valid(&split);
        assert!(
            stats.likelies >= 2,
            "both biased phases get a likely: {stats:?}"
        );
        let rb = run(&base).expect("base");
        let rs = run(&split).expect("split");
        assert_eq!(rb.machine.mem[1], rs.machine.mem[1]);
        assert_eq!(rb.machine.mem[2], rs.machine.mem[2]);
        assert_eq!(rb.machine.mem_checksum(), rs.machine.mem_checksum());
    }

    #[test]
    fn alternating_branch_gets_periodic_split() {
        let base = alternating_program();
        let mut split = base.clone();
        let stats = split_it(&mut split, "head");
        assert_valid(&split);
        assert!(stats.likelies >= 1);
        let rb = run(&base).expect("base");
        let rs = run(&split).expect("split");
        assert_eq!(rb.machine.mem[1], rs.machine.mem[1]);
        assert_eq!(rb.machine.mem[2], rs.machine.mem[2]);
    }

    #[test]
    fn periodic_split_slashes_mispredictions() {
        use guardspec_predict::Scheme;
        use guardspec_sim::{simulate_program, MachineConfig};
        let base = alternating_program();
        let mut split = base.clone();
        split_it(&mut split, "head");
        let cfg = MachineConfig::r10000();
        let (sb, _) = simulate_program(&base, Scheme::TwoBit, &cfg).expect("sim base");
        let (ss, _) = simulate_program(&split, Scheme::Proposed, &cfg).expect("sim split");
        // The alternating branch mispredicts ~ half the time under 2-bit;
        // the algebraic-counter split removes nearly all of those.
        assert!(sb.mispredicts > 80, "base mispredicts {}", sb.mispredicts);
        assert!(
            ss.mispredicts * 4 < sb.mispredicts,
            "split {} vs base {}",
            ss.mispredicts,
            sb.mispredicts
        );
        assert!(
            ss.ipc() > sb.ipc(),
            "split ipc {} <= base ipc {}",
            ss.ipc(),
            sb.ipc()
        );
    }

    #[test]
    fn split_reduces_mispredictions_in_simulation() {
        use guardspec_predict::Scheme;
        use guardspec_sim::{simulate_program, MachineConfig};
        let base = figure7_program();
        let mut split = base.clone();
        split_it(&mut split, "head");
        let cfg = MachineConfig::r10000();
        let (sb, _) = simulate_program(&base, Scheme::TwoBit, &cfg).expect("sim base");
        let (ss, _) = simulate_program(&split, Scheme::Proposed, &cfg).expect("sim split");
        assert!(
            ss.mispredicts <= sb.mispredicts,
            "split {} > base {}",
            ss.mispredicts,
            sb.mispredicts
        );
    }

    #[test]
    fn counter_initialized_in_preheader() {
        let mut prog = figure7_program();
        split_it(&mut prog, "head");
        let f = prog.func(FuncId(0));
        let pre = f.block_by_label("preheader0");
        assert!(pre.is_some(), "preheader created");
        let pre = pre.unwrap();
        assert!(matches!(
            f.block(pre).insns[0].op,
            Opcode::Li { imm: -1, .. }
        ));
    }

    #[test]
    fn unbiased_profile_refuses_split() {
        let mut prog = figure7_program();
        let f = prog.func_mut(FuncId(0));
        let bb = f.block_by_label("head").unwrap();
        let mut pool = RenamePool::for_function(f);
        let segs = vec![Segment {
            start: 0,
            end: 100,
            class: SegmentClass::Mixed,
            rate: 0.5,
        }];
        let specs = vec![SplitSpec {
            block: bb,
            plan: SplitPlan::Phased { segments: segs },
        }];
        let err =
            split_branches(f, BlockId(1), &[BlockId(1)], &specs, &mut pool, 0.15, 2).unwrap_err();
        assert_eq!(err, SplitError::NoBiasedSegment);
    }

    #[test]
    fn non_power_of_two_period_refused() {
        let mut prog = figure7_program();
        let f = prog.func_mut(FuncId(0));
        let bb = f.block_by_label("head").unwrap();
        let mut pool = RenamePool::for_function(f);
        let specs = vec![SplitSpec {
            block: bb,
            plan: SplitPlan::periodic(3, vec![true, false, false], 100),
        }];
        let err =
            split_branches(f, BlockId(1), &[BlockId(1)], &specs, &mut pool, 0.15, 2).unwrap_err();
        assert_eq!(err, SplitError::UnsupportedPeriod);
    }
}

#[cfg(test)]
mod hybrid_tests {
    use super::*;
    use crate::feedback::{segment_periodicity, FeedbackParams, SegmentClass};
    use guardspec_analysis::{Cfg, DomTree, LoopForest};
    use guardspec_interp::profile::profile_program;
    use guardspec_interp::run;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::r;
    use guardspec_ir::validate::assert_valid;
    use guardspec_ir::{FuncId, Program};

    /// Branch not taken for the first 120 iterations, then alternating for
    /// 120: the hybrid (phased + per-segment periodic) case.
    fn phase_then_alternate() -> Program {
        let mut fb = FuncBuilder::new("hyb");
        fb.block("entry");
        fb.li(r(1), 0);
        fb.li(r(9), 240);
        fb.block("head");
        fb.slti(r(2), r(1), 120);
        fb.bne(r(2), r(0), "quiet"); // quiet phase: branch to skip work
        fb.block("noisy_sel");
        fb.andi(r(3), r(1), 1);
        fb.beq(r(3), r(0), "quiet");
        fb.block("work");
        fb.addi(r(5), r(5), 1);
        fb.jump("latch");
        fb.block("quiet");
        fb.addi(r(6), r(6), 1);
        fb.block("latch");
        fb.addi(r(1), r(1), 1);
        fb.bne(r(1), r(9), "head");
        fb.block("done");
        fb.sw(r(5), r(0), 1);
        fb.sw(r(6), r(0), 2);
        fb.halt();
        single_func_program(fb)
    }

    #[test]
    fn hybrid_plan_builds_and_preserves_semantics() {
        let base = phase_then_alternate();
        let (profile, _) = profile_program(&base).expect("profile");
        let f = base.func(FuncId(0));
        // The `noisy_sel` branch alternates only in the second phase; the
        // whole-vector view is Phased with a Mixed segment.
        let bb = f.block_by_label("noisy_sel").unwrap();
        let site = guardspec_ir::InsnRef {
            func: FuncId(0),
            block: bb,
            idx: f.block(bb).insns.len() as u32 - 1,
        };
        let bp = profile.branch(site).expect("profiled");
        let params = FeedbackParams::default();
        let segs = crate::feedback::segment(&bp.outcomes, &params);
        let hybrid: Vec<HybridSegment> = segs
            .iter()
            .map(|s| {
                let per = (s.class == SegmentClass::Mixed)
                    .then(|| segment_periodicity(&bp.outcomes, s, &params))
                    .flatten();
                (*s, per)
            })
            .collect();
        assert!(
            hybrid.iter().any(|(_, p)| p.is_some()),
            "a periodic Mixed segment must be detected: {hybrid:?}"
        );

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
            let specs = vec![SplitSpec {
                block: bb,
                plan: SplitPlan::Hybrid { segments: hybrid },
            }];
            let (stats, _) =
                split_branches(f, header, &body, &specs, &mut pool, 0.15, 4).expect("split");
            assert!(stats.likelies >= 1);
        }
        assert_valid(&split);
        let rb = run(&base).expect("base");
        let rs = run(&split).expect("split");
        assert_eq!(rb.machine.mem[1], rs.machine.mem[1]);
        assert_eq!(rb.machine.mem[2], rs.machine.mem[2]);
    }

    #[test]
    fn hybrid_split_cuts_mispredicts_in_sim() {
        use guardspec_predict::Scheme;
        use guardspec_sim::{simulate_program, MachineConfig};
        let base = phase_then_alternate();
        let (profile, _) = profile_program(&base).expect("profile");
        let mut tuned = base.clone();
        let report = crate::driver::transform_program(
            &mut tuned,
            &profile,
            &crate::driver::DriverOptions::proposed(),
        );
        assert!(report.splits >= 1, "{:?}", report.decisions);
        let cfg = MachineConfig::r10000();
        let (sb, _) = simulate_program(&base, Scheme::TwoBit, &cfg).expect("sim");
        let (ss, _) = simulate_program(&tuned, Scheme::Proposed, &cfg).expect("sim");
        assert!(
            ss.mispredicts * 2 < sb.mispredicts,
            "split {} vs base {}",
            ss.mispredicts,
            sb.mispredicts
        );
    }
}
