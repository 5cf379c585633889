//! The profiler: per-branch outcome bit vectors and dynamic statistics.
//!
//! This is the instrumentation pass of Section 5: "Each loop is instrumented
//! with additional feedback metrics which would tell ... branch execution
//! frequency, distribution of loop iteration space into classes with similar
//! branch execution behavior.  The previous branch outcomes are recorded
//! using bit vectors."

use crate::bitvec::BitVec;
use crate::exec::{class_index, Observer, RetireEvent};
use crate::layout::StaticLayout;
use guardspec_ir::{FuClass, InsnRef, Instruction, Program};

/// Profile data for one static conditional-branch site.
#[derive(Clone, Debug, Default)]
pub struct BranchProfile {
    /// Dynamic executions of the branch.
    pub executed: u64,
    /// How many were taken.
    pub taken: u64,
    /// The outcome bit vector, in execution order (capped; counts above are
    /// exact regardless).
    pub outcomes: BitVec,
}

impl BranchProfile {
    /// Taken frequency in `[0, 1]`; 0 for never-executed branches.
    pub fn taken_rate(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.taken as f64 / self.executed as f64
        }
    }
}

/// Complete profile of one program run.
///
/// Branch profiles are stored as two parallel vectors sorted by site
/// (which is also dense layout-id order, since ids are assigned in
/// `InsnRef` order), so iteration visits sites exactly as the previous
/// `BTreeMap` representation did while lookups stay a binary search over
/// a compact array.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Per static-site execution counts, indexed by dense layout id.
    pub site_counts: Vec<u64>,
    /// Executed conditional-branch sites, sorted.
    branch_sites: Vec<InsnRef>,
    /// Profile for `branch_sites[i]`.
    branch_profiles: Vec<BranchProfile>,
    /// Total retired instructions.
    pub retired: u64,
    /// Retired per functional-unit class.
    pub by_class: [u64; 8],
    /// Annulled (guard-false) instructions.
    pub annulled: u64,
}

impl Profile {
    /// Build from (site, profile) pairs in any order; used by the profiler
    /// and by deserialization (which has no layout at hand).
    pub fn from_branch_pairs(
        site_counts: Vec<u64>,
        mut pairs: Vec<(InsnRef, BranchProfile)>,
        retired: u64,
        by_class: [u64; 8],
        annulled: u64,
    ) -> Profile {
        pairs.sort_by_key(|(site, _)| *site);
        let mut branch_sites = Vec::with_capacity(pairs.len());
        let mut branch_profiles = Vec::with_capacity(pairs.len());
        for (site, bp) in pairs {
            branch_sites.push(site);
            branch_profiles.push(bp);
        }
        Profile {
            site_counts,
            branch_sites,
            branch_profiles,
            retired,
            by_class,
            annulled,
        }
    }

    /// Fraction of the dynamic instruction stream that is branches
    /// (conditional + unconditional control) — the paper's Table 1
    /// "Branch Instructions (%)" column.
    pub fn branch_fraction(&self) -> f64 {
        if self.retired == 0 {
            return 0.0;
        }
        self.by_class[class_index(FuClass::Branch)] as f64 / self.retired as f64
    }

    /// Dynamic instruction count in millions (Table 1 column).
    pub fn dynamic_millions(&self) -> f64 {
        self.retired as f64 / 1.0e6
    }

    /// The branch profile for a site, if it executed.
    pub fn branch(&self, site: InsnRef) -> Option<&BranchProfile> {
        let i = self.branch_sites.binary_search(&site).ok()?;
        Some(&self.branch_profiles[i])
    }

    /// Executed branch sites with their profiles, in site order.
    pub fn branches(&self) -> impl Iterator<Item = (InsnRef, &BranchProfile)> {
        self.branch_sites
            .iter()
            .copied()
            .zip(self.branch_profiles.iter())
    }

    /// Number of distinct executed conditional-branch sites.
    pub fn num_branch_sites(&self) -> usize {
        self.branch_sites.len()
    }
}

/// Observer that accumulates a [`Profile`].
///
/// Branch data is recorded into a dense vector indexed by layout site id,
/// so the per-retire hot path is array arithmetic with no tree or hash
/// operations; [`Profiler::finish`] compacts it to executed sites only.
pub struct Profiler {
    layout: StaticLayout,
    /// Functional-unit class of each site, by dense id.
    site_class: Vec<FuClass>,
    site_counts: Vec<u64>,
    /// Dense by site id; only conditional-branch sites are ever touched.
    branch_by_id: Vec<BranchProfile>,
    retired: u64,
    annulled: u64,
    /// Maximum outcome-vector length recorded per branch (memory guard).
    pub max_outcomes: usize,
}

impl Profiler {
    pub fn new(prog: &Program) -> Profiler {
        let layout = StaticLayout::build(prog);
        let n = layout.num_sites();
        let site_class = (0..n as u32)
            .map(|id| prog.insn(layout.site(id)).fu_class())
            .collect();
        Profiler {
            layout,
            site_class,
            site_counts: vec![0; n],
            branch_by_id: vec![BranchProfile::default(); n],
            retired: 0,
            annulled: 0,
            max_outcomes: 1 << 22,
        }
    }

    pub fn layout(&self) -> &StaticLayout {
        &self.layout
    }

    pub fn finish(self) -> Profile {
        // Every retirement, annulled or not, counts once for its site, so
        // the class mix is the site counts summed by class.
        let mut by_class = [0u64; 8];
        for (&class, &n) in self.site_class.iter().zip(&self.site_counts) {
            by_class[class_index(class)] += n;
        }
        // Ids are assigned in `InsnRef` order, so this pass yields pairs
        // already sorted by site.
        let pairs: Vec<(InsnRef, BranchProfile)> = self
            .branch_by_id
            .into_iter()
            .enumerate()
            .filter(|(_, bp)| bp.executed > 0)
            .map(|(id, bp)| (self.layout.site(id as u32), bp))
            .collect();
        Profile::from_branch_pairs(
            self.site_counts,
            pairs,
            self.retired,
            by_class,
            self.annulled,
        )
    }
}

impl Observer for Profiler {
    fn on_retire(&mut self, _insn: &Instruction, ev: &RetireEvent) {
        let id = self.layout.id(ev.site);
        self.site_counts[id as usize] += 1;
        self.retired += 1;
        if ev.annulled {
            self.annulled += 1;
            return;
        }
        if let Some(taken) = ev.taken {
            let bp = &mut self.branch_by_id[id as usize];
            bp.executed += 1;
            bp.taken += taken as u64;
            if bp.outcomes.len() < self.max_outcomes {
                bp.outcomes.push(taken);
            }
        }
    }
}

/// Convenience: run `prog` and return its profile together with the
/// execution result.
pub fn profile_program(
    prog: &Program,
) -> Result<(Profile, crate::exec::ExecResult), crate::exec::ExecError> {
    let mut p = Profiler::new(prog);
    let res = crate::exec::Interp::new(prog).run_with(&mut p)?;
    Ok((p.finish(), res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::r;
    use guardspec_ir::{BlockId, FuncId};

    /// A loop whose branch is taken on iterations 0..6 and not on 7..9:
    /// a phased (non-monotonic overall) branch.
    fn phased_loop() -> guardspec_ir::Program {
        let mut fb = FuncBuilder::new("ph");
        fb.block("e");
        fb.li(r(1), 0); // i
        fb.block("loop");
        fb.slti(r(2), r(1), 7);
        fb.bne(r(2), r(0), "skip"); // taken while i < 7
        fb.block("notk");
        fb.addi(r(3), r(3), 1);
        fb.block("skip");
        fb.addi(r(1), r(1), 1);
        fb.slti(r(4), r(1), 10);
        fb.bne(r(4), r(0), "loop");
        fb.block("done");
        fb.halt();
        single_func_program(fb)
    }

    #[test]
    fn branch_outcome_vectors_capture_phases() {
        let prog = phased_loop();
        let (profile, _res) = profile_program(&prog).expect("runs");
        // The forward branch sits in block `loop` (BlockId 1), idx 1.
        let site = InsnRef {
            func: FuncId(0),
            block: BlockId(1),
            idx: 1,
        };
        let bp = profile.branch(site).expect("profiled");
        assert_eq!(bp.executed, 10);
        assert_eq!(bp.taken, 7);
        let pat: String = bp
            .outcomes
            .iter()
            .map(|b| if b { 'T' } else { 'F' })
            .collect();
        assert_eq!(pat, "TTTTTTTFFF");
        assert!((bp.taken_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn site_counts_and_mix() {
        let prog = phased_loop();
        let (profile, res) = profile_program(&prog).expect("runs");
        assert_eq!(profile.retired, res.summary.retired);
        assert!(profile.branch_fraction() > 0.1);
        // The latch branch ran 10 times.
        let latch = InsnRef {
            func: FuncId(0),
            block: BlockId(3),
            idx: 2,
        };
        let bp = profile.branch(latch).expect("latch profiled");
        assert_eq!(bp.executed, 10);
        assert_eq!(bp.taken, 9);
        // Entry block ran once.
        let lay = StaticLayout::build(&prog);
        assert_eq!(
            profile.site_counts[lay.block_start(FuncId(0), BlockId(0)) as usize],
            1
        );
    }

    #[test]
    fn outcome_cap_respected() {
        let prog = phased_loop();
        let mut p = Profiler::new(&prog);
        p.max_outcomes = 4;
        crate::exec::Interp::new(&prog)
            .run_with(&mut p)
            .expect("runs");
        let profile = p.finish();
        let site = InsnRef {
            func: FuncId(0),
            block: BlockId(1),
            idx: 1,
        };
        let bp = profile.branch(site).unwrap();
        assert_eq!(bp.outcomes.len(), 4);
        assert_eq!(bp.executed, 10); // counts stay exact
    }
}
