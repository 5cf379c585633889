//! The Figure-6 decision algorithm: "for each procedure, detect all loops;
//! for each branch in the loop list, choose branch-likely conversion,
//! if-conversion, or split-branch instrumentation" — plus optional
//! compile-time speculation into vacant head slots.
//!
//! One call to a private `decide` makes each loop branch's decision: its
//! [`Action`], the [`CostComparison`] that chose it, and the plans that
//! carry it out.  Once every branch of a function is decided, four phases
//! apply the plans in a fixed order (likely flips, if-conversions,
//! speculation, then splits per loop) and write what they achieved back
//! into the branch's [`Decision`].

use crate::feedback::{
    classify, segment_periodicity, BranchBehavior, FeedbackParams, SegmentClass,
};
use crate::ifconvert::{can_convert, if_convert};
use crate::remap::Remap;
use crate::renamepool::RenamePool;
use crate::schedule::Resources;
use crate::speculate::speculate_into_head;
use crate::splitbranch::{split_branches, HybridSegment, SplitPlan, SplitSpec};
use guardspec_analysis::{find_hammocks, Cfg, DomTree, Hammock, Liveness, LoopForest};
use guardspec_interp::{BitVec, Profile};
use guardspec_ir::{BlockId, FuncId, Function, InsnRef, Opcode, Program};

/// Driver configuration.  The presets reproduce the paper's schemes and the
/// ablations of the title's "individual/combined effects".
#[derive(Clone, Debug)]
pub struct DriverOptions {
    pub feedback: FeedbackParams,
    /// Convert highly-probable branches to branch-likely (both directions
    /// of the Figure-6 algorithm).
    pub enable_likely: bool,
    /// Apply guarded execution to monotonic branches that pass the cost
    /// comparison.
    pub enable_ifconvert: bool,
    /// Apply split-branch instrumentation to non-monotonic instrumentable
    /// branches.
    pub enable_split: bool,
    /// Hoist operations from the dominant arm into vacant head slots.
    pub enable_speculation: bool,
    /// Maximum arm body length eligible for if-conversion.
    pub max_arm_len: usize,
    /// Maximum operations speculated per branch.
    pub max_speculate_ops: usize,
    /// Hoist loads speculatively (dismissible-load model).
    pub allow_speculative_loads: bool,
    /// Maximum branch-likelies emitted per split site.
    pub max_likelies_per_site: usize,
    /// Estimated misprediction penalty (cycles) used in the if-conversion
    /// cost comparison.
    pub mispredict_penalty: f64,
}

impl DriverOptions {
    /// Everything on — the paper's proposed scheme.
    pub fn proposed() -> DriverOptions {
        DriverOptions {
            feedback: FeedbackParams::default(),
            enable_likely: true,
            enable_ifconvert: true,
            enable_split: true,
            enable_speculation: true,
            max_arm_len: 24,
            max_speculate_ops: 4,
            allow_speculative_loads: false,
            max_likelies_per_site: 4,
            mispredict_penalty: 8.0,
        }
    }

    /// The conventional one-time-feedback-metric scheme: likelies and
    /// if-conversion from averaged rates, no iteration-space splitting.
    pub fn conventional() -> DriverOptions {
        DriverOptions {
            enable_split: false,
            ..DriverOptions::proposed()
        }
    }

    /// Speculation only (no guarding, no splitting, no likelies).
    pub fn speculation_only() -> DriverOptions {
        DriverOptions {
            enable_likely: false,
            enable_ifconvert: false,
            enable_split: false,
            enable_speculation: true,
            ..DriverOptions::proposed()
        }
    }

    /// Guarded execution only.
    pub fn guarded_only() -> DriverOptions {
        DriverOptions {
            enable_likely: false,
            enable_ifconvert: true,
            enable_split: false,
            enable_speculation: false,
            ..DriverOptions::proposed()
        }
    }

    /// No transformation at all (the 2-bit baseline).
    pub fn baseline() -> DriverOptions {
        DriverOptions {
            enable_likely: false,
            enable_ifconvert: false,
            enable_split: false,
            enable_speculation: false,
            ..DriverOptions::proposed()
        }
    }

    /// The presets by name, in ablation order: the title's individual
    /// effects between the untransformed baseline and the combined scheme.
    /// The names are the ablation's column labels and the `/run` protocol's
    /// option shorthands.
    pub fn presets() -> [(&'static str, DriverOptions); 5] {
        [
            ("baseline", DriverOptions::baseline()),
            ("speculation", DriverOptions::speculation_only()),
            ("guarded", DriverOptions::guarded_only()),
            ("conventional", DriverOptions::conventional()),
            ("proposed", DriverOptions::proposed()),
        ]
    }
}

impl Default for DriverOptions {
    fn default() -> DriverOptions {
        DriverOptions::proposed()
    }
}

/// What was done to one branch.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Left alone (reason attached).
    None(&'static str),
    /// Converted to a branch-likely in place.
    BranchLikely,
    /// If-converted (guarded execution).
    IfConverted { guarded_ops: usize },
    /// Split-branch instrumentation applied.
    Split { likelies: usize },
    /// Operations hoisted above the branch.
    Speculated { hoisted: usize, renamed: usize },
    /// Likely conversion plus speculation from the dominant arm.
    LikelyAndSpeculated { hoisted: usize },
}

impl Action {
    /// Compact deterministic tag for the decision log.
    pub fn tag(&self) -> String {
        match self {
            Action::None(_) => "untouched".to_string(),
            Action::BranchLikely => "branch-likely".to_string(),
            Action::IfConverted { guarded_ops } => format!("if-convert(guarded_ops={guarded_ops})"),
            Action::Split { likelies } => format!("split-branch(likelies={likelies})"),
            Action::Speculated { hoisted, renamed } => {
                format!("speculate(hoisted={hoisted},renamed={renamed})")
            }
            Action::LikelyAndSpeculated { hoisted } => {
                format!("likely+speculate(hoisted={hoisted})")
            }
        }
    }
}

/// The two sides of a Figure-6 cost comparison (estimated cycles).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostComparison {
    /// Estimated cycles saved by the transformation.
    pub benefit: f64,
    /// Estimated cycles of overhead it introduces.
    pub cost: f64,
}

impl CostComparison {
    pub fn wins(&self) -> bool {
        self.benefit > self.cost
    }
}

/// One branch's record in the report.
#[derive(Clone, Debug)]
pub struct Decision {
    pub func: FuncId,
    /// Site in the ORIGINAL (pre-transform) program.
    pub site: InsnRef,
    pub backward: bool,
    /// Dynamic executions observed in the profile.
    pub executed: u64,
    pub taken_rate: f64,
    pub behavior: BranchBehavior,
    /// The cost comparison the driver evaluated at this site, if a gate
    /// ran (split gate for phased/periodic, guarded gate otherwise).
    pub cost: Option<CostComparison>,
    pub action: Action,
}

impl Decision {
    /// Why the action was (or was not) taken.
    pub fn reason(&self) -> &'static str {
        match &self.action {
            Action::None(r) => r,
            Action::BranchLikely => "taken rate above likely threshold",
            Action::IfConverted { .. } => "guarded cost beats expected mispredict penalty",
            Action::Split { .. } => "split benefit exceeds instrumentation cost",
            Action::Speculated { .. } => "mispredict-prone; dominant arm speculated into head",
            Action::LikelyAndSpeculated { .. } => "likely conversion plus dominant-arm speculation",
        }
    }

    /// One deterministic decision-log line.
    pub fn log_line(&self) -> String {
        let (benefit, cost) = self
            .cost
            .map(|c| (format!("{:.2}", c.benefit), format!("{:.2}", c.cost)))
            .unwrap_or_else(|| ("-".to_string(), "-".to_string()));
        format!(
            "func={} block={} idx={} dir={} executed={} taken_rate={:.4} behavior={} benefit={} cost={} action={} reason={}",
            self.func.0,
            self.site.block.0,
            self.site.idx,
            if self.backward { "back" } else { "fwd" },
            self.executed,
            self.taken_rate,
            self.behavior.tag(),
            benefit,
            cost,
            self.action.tag(),
            self.reason(),
        )
    }
}

/// Aggregate transform report.
#[derive(Clone, Debug, Default)]
pub struct TransformReport {
    pub decisions: Vec<Decision>,
    pub likelies: usize,
    pub ifconversions: usize,
    pub splits: usize,
    pub speculated_ops: usize,
    pub guarded_ops: usize,
    pub split_likelies: usize,
}

impl TransformReport {
    pub fn count(&self, f: impl Fn(&Action) -> bool) -> usize {
        self.decisions.iter().filter(|d| f(&d.action)).count()
    }

    /// The structured Figure-6 decision log: one deterministic line per
    /// loop branch the driver visited, in visit order.
    pub fn decision_log_lines(&self) -> Vec<String> {
        self.decisions.iter().map(|d| d.log_line()).collect()
    }
}

/// Apply the Figure-6 algorithm to every function of `prog`, using the
/// branch profiles in `profile` (collected on the same, untransformed
/// program).
pub fn transform_program(
    prog: &mut Program,
    profile: &Profile,
    opts: &DriverOptions,
) -> TransformReport {
    let mut report = TransformReport::default();
    let nfuncs = prog.funcs.len();
    for fi in 0..nfuncs {
        transform_function(prog, FuncId(fi as u32), profile, opts, &mut report);
    }
    report
}

/// A structural change `decide` chose for one branch, applied after every
/// branch of the function is decided.
enum Plan {
    /// Flip the branch to a branch-likely in place.
    Likely,
    /// If-convert the hammock the branch heads.
    Convert(Hammock),
    /// Hoist operations from `arm` into `head`, keeping `other`'s live-ins.
    Speculate {
        head: BlockId,
        arm: BlockId,
        other: BlockId,
    },
    /// Split the branch inside loop `loop_idx`.
    Split { loop_idx: usize, spec: SplitSpec },
}

/// What `decide` chose for one branch: the action, the cost comparison
/// that decided it (if a gate ran), and the plans that carry it out.
type Decided = (Action, Option<CostComparison>, Vec<Plan>);

/// One loop branch as `decide` sees it.
struct Branch<'a> {
    f: &'a Function,
    /// Block whose terminator is the branch.
    block: BlockId,
    /// Index of the loop the branch was first visited in.
    loop_idx: usize,
    backward: bool,
    behavior: &'a BranchBehavior,
    /// The profile's outcome vector (capped at the profiler's limit).
    outcomes: &'a BitVec,
    /// The profile's taken rate over every execution.
    rate: f64,
    hammock: Option<Hammock>,
    opts: &'a DriverOptions,
}

fn transform_function(
    prog: &mut Program,
    fid: FuncId,
    profile: &Profile,
    opts: &DriverOptions,
    report: &mut TransformReport,
) {
    // ---- Decide per branch (Figure 6), on the original function ---------
    // Each plan carries the index of its branch's decision in the report.
    let mut plans: Vec<(usize, Plan)> = Vec::new();
    let loops = {
        let f = prog.func(fid);
        let cfg = Cfg::build(f);
        let dom = DomTree::dominators(&cfg);
        let forest = LoopForest::build(f, &cfg, &dom);
        let hammocks = find_hammocks(f, &cfg);
        let mut seen: std::collections::HashSet<InsnRef> = Default::default();
        for (loop_idx, l) in forest.loops.iter().enumerate() {
            for (site, backward) in forest.loop_branches(f, l) {
                let site = InsnRef { func: fid, ..site };
                if !seen.insert(site) {
                    continue;
                }
                // A branch the profile never reached keeps this record.
                let mut decision = Decision {
                    func: fid,
                    site,
                    backward,
                    executed: 0,
                    taken_rate: 0.0,
                    behavior: BranchBehavior::Irregular {
                        rate: 0.0,
                        toggle: 0.0,
                    },
                    cost: None,
                    action: Action::None("never executed"),
                };
                if let Some(bp) = profile.branch(site) {
                    let behavior = classify(&bp.outcomes, &opts.feedback);
                    let (action, cost, chosen) = decide(&Branch {
                        f,
                        block: site.block,
                        loop_idx,
                        backward,
                        behavior: &behavior,
                        outcomes: &bp.outcomes,
                        rate: bp.taken_rate(),
                        hammock: hammocks.iter().find(|h| h.head == site.block).copied(),
                        opts,
                    });
                    let d = report.decisions.len();
                    plans.extend(chosen.into_iter().map(|p| (d, p)));
                    decision = Decision {
                        executed: bp.executed,
                        taken_rate: bp.taken_rate(),
                        behavior,
                        cost,
                        action,
                        ..decision
                    };
                }
                report.decisions.push(decision);
            }
        }
        forest.loops
    };

    // ---- Apply: phase A, in-place likely flips ---------------------------
    for (d, plan) in &plans {
        if let Plan::Likely = plan {
            let site = report.decisions[*d].site;
            let blk = prog.func_mut(fid).block_mut(site.block);
            if let Some(Opcode::Branch { likely, .. }) =
                blk.insns.get_mut(site.idx as usize).map(|i| &mut i.op)
            {
                *likely = true;
                report.likelies += 1;
            }
        }
    }

    // ---- Phase B: if-conversions (no block renumbering) ------------------
    // A conversion that fails here keeps its `IfConverted { guarded_ops: 0 }`.
    {
        let mut pool = RenamePool::for_program(prog);
        let f = prog.func_mut(fid);
        for (d, plan) in &plans {
            if let Plan::Convert(h) = plan {
                if let Ok(stats) = if_convert(f, h, &mut pool, opts.max_arm_len) {
                    report.ifconversions += 1;
                    report.guarded_ops += stats.guarded_ops;
                    report.decisions[*d].action = Action::IfConverted {
                        guarded_ops: stats.guarded_ops,
                    };
                }
            }
        }
    }

    // ---- Phase C: speculation (instruction inserts only) -----------------
    for (d, plan) in &plans {
        if let Plan::Speculate { head, arm, other } = plan {
            let mut pool = RenamePool::for_program(prog);
            let f = prog.func_mut(fid);
            let cfg = Cfg::build(f);
            let lv = Liveness::compute(f, &cfg);
            let live_other = *lv.live_in(*other);
            let (stats, _remap) = speculate_into_head(
                f,
                *head,
                *arm,
                &live_other,
                opts.max_speculate_ops,
                opts.allow_speculative_loads,
                &mut pool,
            );
            report.speculated_ops += stats.hoisted;
            let action = &mut report.decisions[*d].action;
            *action = match action {
                Action::LikelyAndSpeculated { .. } if stats.hoisted > 0 => {
                    Action::LikelyAndSpeculated {
                        hoisted: stats.hoisted,
                    }
                }
                Action::LikelyAndSpeculated { .. } => Action::BranchLikely,
                _ if stats.hoisted > 0 => Action::Speculated {
                    hoisted: stats.hoisted,
                    renamed: stats.renamed,
                },
                _ => Action::None("nothing speculatable in the arm"),
            };
        }
    }

    // ---- Phase D: splits, one call per loop, descending header -----------
    // Inserts for high headers don't move lower ones, and the cumulative
    // remap covers what does move.
    let mut order: Vec<usize> = (0..loops.len()).collect();
    order.sort_by_key(|&li| std::cmp::Reverse(loops[li].header));
    let mut cum = Remap::new();
    for li in order {
        let entries: Vec<(usize, &SplitSpec)> = plans
            .iter()
            .filter_map(|(d, plan)| match plan {
                Plan::Split { loop_idx, spec } if *loop_idx == li => Some((*d, spec)),
                _ => None,
            })
            .collect();
        if entries.is_empty() {
            continue;
        }
        let mut pool = RenamePool::for_program(prog);
        let f = prog.func_mut(fid);
        let body: Vec<BlockId> = loops[li].body.iter().map(|&b| cum.apply_block(b)).collect();
        let specs: Vec<SplitSpec> = entries
            .iter()
            .map(|(_, s)| SplitSpec {
                block: cum.apply_block(s.block),
                plan: s.plan.clone(),
            })
            .collect();
        let action = match split_branches(
            f,
            cum.apply_block(loops[li].header),
            &body,
            &specs,
            &mut pool,
            opts.feedback.min_segment_frac,
            opts.max_likelies_per_site,
        ) {
            Ok((stats, remap)) => {
                report.splits += stats.sites;
                report.split_likelies += stats.likelies;
                cum.extend(&remap);
                Action::Split {
                    likelies: stats.likelies / stats.sites.max(1),
                }
            }
            Err(_) => Action::None("split failed (resources/segments)"),
        };
        for (d, _) in entries {
            report.decisions[d].action = action.clone();
        }
    }
}

/// Figure 6 for one loop branch: its action, the cost comparison that
/// decided it, and the plans that carry it out.
fn decide(b: &Branch) -> Decided {
    let opts = b.opts;
    if b.backward {
        // Figure 6, backward-branch arm: only the likely conversion.
        return if opts.enable_likely && b.rate >= opts.feedback.likely_threshold {
            (Action::BranchLikely, None, vec![Plan::Likely])
        } else {
            let reason = "backward branch below likely threshold";
            (Action::None(reason), None, Vec::new())
        };
    }
    match b.behavior {
        BranchBehavior::HighlyTaken { .. } => {
            // Likely conversion, plus speculation from the dominant (taken)
            // arm.
            let spec = b.speculation(true);
            let action = match (opts.enable_likely, spec.is_some()) {
                (true, true) => Action::LikelyAndSpeculated { hoisted: 0 },
                (true, false) => Action::BranchLikely,
                (false, true) => Action::Speculated {
                    hoisted: 0,
                    renamed: 0,
                },
                (false, false) => Action::None("highly taken; likelies disabled"),
            };
            let likely = opts.enable_likely.then_some(Plan::Likely);
            (action, None, likely.into_iter().chain(spec).collect())
        }
        // Fall-through dominant: the 2-bit predictor handles the direction;
        // speculate from the fall arm if possible.
        BranchBehavior::HighlyNotTaken { .. } => {
            b.speculate_or(false, None, "highly not-taken; predictor suffices")
        }
        // If-conversion candidate: Figure 6's cost comparison of guarded
        // cost vs weighted schedule estimates.
        BranchBehavior::Monotonic { rate, .. } => {
            b.convert_or_speculate(*rate, "monotonic; conversion not profitable")
        }
        // "Guarded execution where instruction traces are less regular but
        // suffer from insufficient parallelism": irregular short diamonds
        // are the prime if-conversion targets — the branch is
        // unpredictable, the merged code is cheap.
        BranchBehavior::Irregular { rate, .. } => {
            b.convert_or_speculate(*rate, "irregular behavior")
        }
        BranchBehavior::Phased { segments } => {
            // The per-segment extension: Mixed phases may hide a periodic
            // pattern the algebraic counter can steer.
            let hybrid: Vec<HybridSegment> = segments
                .iter()
                .map(|seg| {
                    let per = (seg.class == SegmentClass::Mixed)
                        .then(|| segment_periodicity(b.outcomes, seg, &opts.feedback))
                        .flatten();
                    (*seg, per)
                })
                .collect();
            let gate = opts
                .enable_split
                .then(|| split_cost_hybrid(b.outcomes, &hybrid, opts));
            let plan = if hybrid.iter().any(|(_, per)| per.is_some()) {
                SplitPlan::Hybrid { segments: hybrid }
            } else {
                SplitPlan::Phased {
                    segments: segments.clone(),
                }
            };
            b.split_or_fall_back(
                gate,
                plan,
                "phased; instrumentation cost exceeds benefit",
                "phased; splitting disabled",
            )
        }
        BranchBehavior::Periodic { period, pattern } => {
            let gate = (opts.enable_split && period.is_power_of_two() && *period <= 8)
                .then(|| split_cost_periodic(b.outcomes, *period, opts));
            let plan = SplitPlan::periodic(*period, pattern.clone(), b.outcomes.len());
            b.split_or_fall_back(
                gate,
                plan,
                "periodic; split not instrumentable or not profitable",
                "periodic; splitting disabled",
            )
        }
    }
}

impl Branch<'_> {
    /// Speculation from the dominant arm (taken if `taken_dom`), when it is
    /// enabled, worth it, and the branch heads a hammock with that arm.
    fn speculation(&self, taken_dom: bool) -> Option<Plan> {
        if !self.opts.enable_speculation || !worth_speculating(self.outcomes) {
            return None;
        }
        let h = self.hammock?;
        let (arm, other) = if taken_dom {
            (h.taken_arm?, h.fall_arm)
        } else {
            (h.fall_arm?, h.taken_arm)
        };
        Some(Plan::Speculate {
            head: h.head,
            arm,
            // The successor of the head on the path NOT speculated from.
            other: other.unwrap_or(h.join),
        })
    }

    /// If-convert when the guarded gate at taken rate `rate` approves, else
    /// speculate from the arm `rate` favours, else nothing for
    /// `none_reason`.  The guarded comparison is returned whenever it ran.
    fn convert_or_speculate(&self, rate: f64, none_reason: &'static str) -> Decided {
        let opts = self.opts;
        let gated = self
            .hammock
            .filter(|h| opts.enable_ifconvert && can_convert(self.f, h, opts.max_arm_len).is_ok())
            .map(|h| (h, guarded_cost(self.f, &h, self.outcomes, rate, opts)));
        if let Some((h, cmp)) = gated.filter(|(_, cmp)| cmp.wins()) {
            let action = Action::IfConverted { guarded_ops: 0 };
            return (action, Some(cmp), vec![Plan::Convert(h)]);
        }
        self.speculate_or(rate >= 0.5, gated.map(|(_, cmp)| cmp), none_reason)
    }

    /// Speculate from the dominant arm when [`Branch::speculation`] allows,
    /// else nothing for `none_reason`; either way the decision records
    /// `cost`.
    fn speculate_or(
        &self,
        taken_dom: bool,
        cost: Option<CostComparison>,
        none_reason: &'static str,
    ) -> Decided {
        let Some(spec) = self.speculation(taken_dom) else {
            return (Action::None(none_reason), cost, Vec::new());
        };
        let action = Action::Speculated {
            hoisted: 0,
            renamed: 0,
        };
        (action, cost, vec![spec])
    }

    /// Split with `plan` when the split gate `gate` ran and wins.  Otherwise
    /// fall back to the guarded gate at the profile's taken rate, giving
    /// `unprofitable` or `disabled` as the reason for doing nothing.  The
    /// decision records the guarded comparison when the fallback
    /// if-converts, the split gate's otherwise.
    fn split_or_fall_back(
        &self,
        gate: Option<CostComparison>,
        plan: SplitPlan,
        unprofitable: &'static str,
        disabled: &'static str,
    ) -> Decided {
        if gate.is_some_and(|c| c.wins()) {
            let spec = SplitSpec {
                block: self.block,
                plan,
            };
            let split = Plan::Split {
                loop_idx: self.loop_idx,
                spec,
            };
            return (Action::Split { likelies: 0 }, gate, vec![split]);
        }
        let reason = if self.opts.enable_split {
            unprofitable
        } else {
            disabled
        };
        let (action, guarded, plans) = self.convert_or_speculate(self.rate, reason);
        let cost = if matches!(action, Action::IfConverted { .. }) {
            guarded
        } else {
            gate.or(guarded)
        };
        (action, cost, plans)
    }
}

/// Is compile-time speculation worth it for this branch?  The out-of-order
/// core already speculates dynamically past *predicted* branches, so
/// hoisting only pays when the branch actually mispredicts often enough
/// that having the arm's prefix already in flight shortens recovery —
/// Section 3's "how much we would like to perform speculation at
/// compile-time versus doing it dynamically".
fn worth_speculating(outcomes: &BitVec) -> bool {
    if outcomes.is_empty() {
        return false;
    }
    let misp = twobit_mispredicts(outcomes, 0..outcomes.len()) as f64 / outcomes.len() as f64;
    misp >= 0.05
}

/// Replay an outcome vector through a fresh 2-bit counter and count
/// mispredictions — the baseline cost estimate for the split gate.
fn twobit_mispredicts(v: &BitVec, range: std::ops::Range<usize>) -> u64 {
    let mut t = guardspec_predict::TwoBitTable::new(1);
    let mut miss = 0u64;
    for i in range {
        if !t.access(0, v.get(i)) {
            miss += 1;
        }
    }
    miss
}

/// Figure 6's split gate: "if costs of adding extra instrumented code less
/// expensive than either (b), (c) and (d)".  Benefit: mispredicts the
/// per-phase likelies remove — biased segments keep ~1 mispredict per
/// boundary; Mixed segments keep the 2-bit residual unless a periodic
/// pattern was detected, in which case only the pattern disagreements
/// remain.  Cost: the per-iteration instrumentation issued on a 4-wide
/// machine.
fn split_cost_hybrid(
    v: &BitVec,
    segments: &[HybridSegment],
    opts: &DriverOptions,
) -> CostComparison {
    let n = v.len();
    if n == 0 {
        return CostComparison::default();
    }
    let m_base = twobit_mispredicts(v, 0..n);
    let mut m_after = segments.len() as u64;
    let mut extra_ops = 3.0; // counter increment + condition setp
    for (s, per) in segments {
        match (s.class, per) {
            (SegmentClass::Mixed, Some((p, pattern))) => {
                // Only pattern disagreements stay mispredicted.
                let dis = (s.start..s.end.min(n))
                    .filter(|&i| v.get(i) != pattern[(i - s.start) % p])
                    .count() as u64;
                m_after += dis;
                let taken_pos = pattern.iter().filter(|&&t| t).count();
                extra_ops += 1.0 + 2.0 * taken_pos as f64;
            }
            (SegmentClass::Mixed, None) | (SegmentClass::NotTaken, _) => {
                // Left to the 2-bit residual (codegen emits no likely).
                m_after += twobit_mispredicts(v, s.start..s.end.min(n));
            }
            (SegmentClass::Taken, _) => {
                extra_ops += 2.0;
            }
        }
    }
    CostComparison {
        benefit: (m_base.saturating_sub(m_after)) as f64 * opts.mispredict_penalty,
        cost: n as f64 * extra_ops / 4.0,
    }
}

/// Split gate for periodic patterns: the algebraic-counter likelies remove
/// all agreeing-position mispredicts.  It prices the instrumentation
/// differently from [`split_cost_hybrid`], and the decision log prints its
/// numbers.
fn split_cost_periodic(v: &BitVec, period: usize, opts: &DriverOptions) -> CostComparison {
    let n = v.len();
    if n == 0 {
        return CostComparison::default();
    }
    let m_base = twobit_mispredicts(v, 0..n);
    // Disagreements with the periodic pattern stay mispredicted.
    let pattern: Vec<bool> = (0..period).map(|i| v.get(i)).collect();
    let m_after = (0..n).filter(|&i| v.get(i) != pattern[i % period]).count() as u64;
    let taken_positions = pattern.iter().filter(|&&t| t).count();
    let extra_ops = 2.0 + 2.0 * taken_positions.min(opts.max_likelies_per_site) as f64;
    CostComparison {
        benefit: (m_base.saturating_sub(m_after)) as f64 * opts.mispredict_penalty,
        cost: n as f64 * extra_ops / 4.0,
    }
}

/// Figure 6's cost comparison, adapted to the out-of-order target: guarded
/// execution wins when the misprediction savings plus the removed control
/// ops outweigh the dispatch bandwidth spent on the (annulled) other arm
/// and the predicate setup.
///
/// (The static-schedule variant of this comparison — Figure 2's vacant-slot
/// arithmetic — lives in [`DiamondCfg`] and is reproduced by the `figure2`
/// bench; on a dynamically-scheduled machine "vacant slots" are not free,
/// so the driver gates on issue bandwidth instead.)
fn guarded_cost(
    f: &Function,
    h: &Hammock,
    outcomes: &BitVec,
    taken_rate: f64,
    opts: &DriverOptions,
) -> CostComparison {
    let arm_ops =
        |b: Option<BlockId>| -> f64 { b.map(|b| f.block(b).body_len() as f64).unwrap_or(0.0) };
    let ops_fall = arm_ops(h.fall_arm);
    let ops_taken = arm_ops(h.taken_arm);
    // Measured 2-bit misprediction rate on the actual outcome stream —
    // a phased or periodic-friendly branch may be far better predicted
    // than its average rate suggests.
    let misp_rate = if outcomes.is_empty() {
        taken_rate.min(1.0 - taken_rate)
    } else {
        twobit_mispredicts(outcomes, 0..outcomes.len()) as f64 / outcomes.len() as f64
    };
    let width = Resources::r10000().issue_width as f64;
    // Benefit: expected misprediction penalty removed, plus the branch
    // no longer occupying a fetch slot.  (The head gains a jump to the
    // join, so the arm-terminating jump is not counted as saved.)
    let benefit = misp_rate * opts.mispredict_penalty + 1.0 / width;
    // Overhead: the annulled arm's ops still flow through the pipeline,
    // plus the setp.
    let annulled = taken_rate * ops_fall + (1.0 - taken_rate) * ops_taken;
    CostComparison {
        benefit,
        cost: (annulled + 1.0) / width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardspec_interp::profile::profile_program;
    use guardspec_interp::run;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::r;
    use guardspec_ir::validate::assert_valid;

    /// A kitchen-sink loop: a hot latch (likely candidate), a phased branch
    /// (split candidate), a balanced short diamond (if-convert candidate),
    /// and an alternating branch (periodic split candidate).
    fn mixed_program(iters: i64) -> Program {
        let mut fb = FuncBuilder::new("mixed");
        fb.block("entry");
        fb.li(r(1), 0); // i
        fb.li(r(9), iters);
        fb.block("head");
        // Phased branch: taken while i < iters*2/5.
        fb.slti(r(2), r(1), iters * 2 / 5);
        fb.bne(r(2), r(0), "ph_t");
        fb.block("ph_f");
        fb.addi(r(5), r(5), 1);
        fb.jump("diamond");
        fb.block("ph_t");
        fb.addi(r(6), r(6), 1);
        fb.block("diamond");
        // Balanced diamond on a noisy condition (hash parity): short arms.
        fb.mul(r(3), r(1), r(1));
        fb.srl(r(4), r(3), 3);
        fb.andi(r(4), r(4), 1);
        fb.beq(r(4), r(0), "d_t");
        fb.block("d_f");
        fb.addi(r(7), r(7), 2);
        fb.jump("alt");
        fb.block("d_t");
        fb.addi(r(7), r(7), 3);
        fb.block("alt");
        // Alternating branch.
        fb.andi(r(8), r(1), 1);
        fb.bne(r(8), r(0), "a_t");
        fb.block("a_f");
        fb.addi(r(10), r(10), 1);
        fb.jump("latch");
        fb.block("a_t");
        fb.addi(r(11), r(11), 1);
        fb.block("latch");
        fb.addi(r(1), r(1), 1);
        fb.bne(r(1), r(9), "head"); // hot backward branch
        fb.block("done");
        fb.sw(r(5), r(0), 1);
        fb.sw(r(6), r(0), 2);
        fb.sw(r(7), r(0), 3);
        fb.sw(r(10), r(0), 4);
        fb.sw(r(11), r(0), 5);
        fb.halt();
        single_func_program(fb)
    }

    fn apply(opts: &DriverOptions, prog: &Program) -> (Program, TransformReport) {
        let (profile, _) = profile_program(prog).expect("profile");
        let mut out = prog.clone();
        let report = transform_program(&mut out, &profile, opts);
        assert_valid(&out);
        (out, report)
    }

    #[test]
    fn proposed_applies_every_mechanism() {
        let prog = mixed_program(200);
        let (out, report) = apply(&DriverOptions::proposed(), &prog);
        assert!(report.likelies >= 1, "latch should go likely: {report:?}");
        assert!(
            report.splits + report.ifconversions >= 1,
            "periodic/irregular branches should transform: {report:?}"
        );
        // Semantics preserved.
        let rb = run(&prog).unwrap();
        let ro = run(&out).unwrap();
        assert_eq!(rb.machine.mem_checksum(), ro.machine.mem_checksum());
    }

    #[test]
    fn baseline_changes_nothing() {
        let prog = mixed_program(100);
        let (out, report) = apply(&DriverOptions::baseline(), &prog);
        assert_eq!(report.likelies, 0);
        assert_eq!(report.splits, 0);
        assert_eq!(report.ifconversions, 0);
        assert_eq!(report.speculated_ops, 0);
        assert_eq!(out.funcs, prog.funcs);
    }

    #[test]
    fn conventional_never_splits() {
        let prog = mixed_program(200);
        let (_out, report) = apply(&DriverOptions::conventional(), &prog);
        assert_eq!(report.splits, 0);
    }

    #[test]
    fn every_preset_preserves_semantics() {
        let prog = mixed_program(150);
        let base = run(&prog).unwrap().machine.mem_checksum();
        for (name, opts) in DriverOptions::presets() {
            let (out, _) = apply(&opts, &prog);
            let got = run(&out).unwrap().machine.mem_checksum();
            assert_eq!(base, got, "semantics changed under {name}");
        }
    }

    #[test]
    fn decisions_cover_all_loop_branches() {
        let prog = mixed_program(100);
        let (_out, report) = apply(&DriverOptions::proposed(), &prog);
        // head, diamond, alt, latch = 4 conditional branches in the loop.
        assert_eq!(report.decisions.len(), 4, "{:?}", report.decisions);
        assert!(report.decisions.iter().any(|d| d.backward));
    }

    #[test]
    fn decision_log_is_complete_and_deterministic() {
        let prog = mixed_program(200);
        let (_out, report) = apply(&DriverOptions::proposed(), &prog);
        let lines = report.decision_log_lines();
        assert_eq!(lines.len(), report.decisions.len());
        for (d, line) in report.decisions.iter().zip(&lines) {
            assert!(!d.reason().is_empty());
            assert!(d.executed > 0 || matches!(d.action, Action::None("never executed")));
            assert!(line.contains("behavior="), "{line}");
            assert!(line.contains("reason="), "{line}");
        }
        // Phased/periodic/irregular sites record the gate they evaluated.
        for d in &report.decisions {
            if matches!(d.action, Action::Split { .. } | Action::IfConverted { .. }) {
                let c = d
                    .cost
                    .expect("active transform must carry its cost comparison");
                assert!(c.wins(), "{c:?}");
            }
        }
        // Byte-determinism: a second run over the same inputs produces the
        // identical log.
        let (_out2, report2) = apply(&DriverOptions::proposed(), &prog);
        assert_eq!(lines, report2.decision_log_lines());
    }

    #[test]
    fn proposed_improves_simulated_cycles() {
        use guardspec_predict::Scheme;
        use guardspec_sim::{simulate_program, MachineConfig};
        let prog = mixed_program(400);
        let (out, _) = apply(&DriverOptions::proposed(), &prog);
        let cfg = MachineConfig::r10000();
        let (base, _) = simulate_program(&prog, Scheme::TwoBit, &cfg).unwrap();
        let (tuned, _) = simulate_program(&out, Scheme::Proposed, &cfg).unwrap();
        let (perfect, _) = simulate_program(&prog, Scheme::Perfect, &cfg).unwrap();
        assert!(
            tuned.cycles < base.cycles,
            "proposed {} cycles should beat baseline {}",
            tuned.cycles,
            base.cycles
        );
        assert!(perfect.cycles <= base.cycles);
    }

    #[test]
    fn guarded_cost_model_rejects_uneven_arms() {
        // A monotonic branch (75% taken) guarding a LONG fall arm: merging
        // would serialize the long arm every iteration -> refuse.
        let mut fb = FuncBuilder::new("uneven");
        fb.block("entry");
        fb.li(r(1), 0);
        fb.li(r(9), 100);
        fb.block("head");
        fb.andi(r(2), r(1), 7);
        fb.slti(r(3), r(2), 6);
        fb.bne(r(3), r(0), "short");
        fb.block("long");
        for k in 0..16u8 {
            fb.addi(r(10 + (k % 4)), r(10 + (k % 4)), 1);
        }
        fb.jump("join");
        fb.block("short");
        fb.addi(r(5), r(5), 1);
        fb.block("join");
        fb.addi(r(1), r(1), 1);
        fb.bne(r(1), r(9), "head");
        fb.block("done");
        fb.sw(r(5), r(0), 1);
        fb.halt();
        let prog = single_func_program(fb);
        let (_out, report) = apply(&DriverOptions::guarded_only(), &prog);
        assert_eq!(
            report.ifconversions, 0,
            "uneven arms must not be if-converted: {:?}",
            report.decisions
        );
    }

    #[test]
    fn guarded_cost_model_accepts_noisy_short_diamond() {
        // Noisy 50-50 short diamond — misprediction-heavy, cheap to merge.
        let mut fb = FuncBuilder::new("bal");
        fb.block("entry");
        fb.li(r(1), 0);
        fb.li(r(9), 200);
        fb.block("head");
        fb.mul(r(3), r(1), r(1));
        fb.srl(r(4), r(3), 3);
        fb.andi(r(4), r(4), 1);
        fb.beq(r(4), r(0), "t");
        fb.block("f");
        fb.addi(r(7), r(7), 2);
        fb.jump("join");
        fb.block("t");
        fb.addi(r(7), r(7), 3);
        fb.block("join");
        fb.addi(r(1), r(1), 1);
        fb.bne(r(1), r(9), "head");
        fb.block("done");
        fb.sw(r(7), r(0), 1);
        fb.halt();
        let prog = single_func_program(fb);
        let (out, report) = apply(&DriverOptions::guarded_only(), &prog);
        assert_eq!(
            report.ifconversions, 1,
            "noisy diamond converts: {:?}",
            report.decisions
        );
        let rb = run(&prog).unwrap();
        let ro = run(&out).unwrap();
        assert_eq!(rb.machine.mem_checksum(), ro.machine.mem_checksum());
    }

    #[test]
    fn split_gate_rejects_well_predicted_phases() {
        // Long biased phases: 2-bit already predicts them; the gate must
        // refuse the instrumentation.
        let mut fb = FuncBuilder::new("cheap");
        fb.block("entry");
        fb.li(r(1), 0);
        fb.li(r(9), 400);
        fb.block("head");
        fb.slti(r(2), r(1), 160);
        fb.bne(r(2), r(0), "t");
        fb.block("f");
        fb.addi(r(5), r(5), 1);
        fb.jump("latch");
        fb.block("t");
        fb.addi(r(6), r(6), 1);
        fb.block("latch");
        fb.addi(r(1), r(1), 1);
        fb.bne(r(1), r(9), "head");
        fb.block("done");
        fb.sw(r(5), r(0), 1);
        fb.halt();
        let prog = single_func_program(fb);
        let (_out, report) = apply(&DriverOptions::proposed(), &prog);
        assert_eq!(report.splits, 0, "{:?}", report.decisions);
        // The phased branch was NOT split; it fell back to another
        // mechanism (or nothing), never the instrumentation.
        assert!(report
            .decisions
            .iter()
            .all(|d| !matches!(d.action, Action::Split { .. })));
    }

    #[test]
    fn periodic_split_passes_gate_and_wins() {
        use guardspec_predict::Scheme;
        use guardspec_sim::{simulate_program, MachineConfig};
        let mut fb = FuncBuilder::new("alt");
        fb.block("entry");
        fb.li(r(1), 0);
        fb.li(r(9), 400);
        fb.block("head");
        fb.andi(r(2), r(1), 1);
        fb.bne(r(2), r(0), "t");
        fb.block("f");
        fb.addi(r(5), r(5), 1);
        fb.jump("latch");
        fb.block("t");
        fb.addi(r(6), r(6), 1);
        fb.block("latch");
        fb.addi(r(1), r(1), 1);
        fb.bne(r(1), r(9), "head");
        fb.block("done");
        fb.sw(r(5), r(0), 1);
        fb.sw(r(6), r(0), 2);
        fb.halt();
        let prog = single_func_program(fb);
        let (out, report) = apply(&DriverOptions::proposed(), &prog);
        assert_eq!(report.splits, 1, "{:?}", report.decisions);
        let cfg = MachineConfig::r10000();
        let (base, _) = simulate_program(&prog, Scheme::TwoBit, &cfg).unwrap();
        let (tuned, _) = simulate_program(&out, Scheme::Proposed, &cfg).unwrap();
        assert!(tuned.mispredicts * 4 < base.mispredicts);
        assert!(
            tuned.cycles < base.cycles,
            "{} vs {}",
            tuned.cycles,
            base.cycles
        );
    }
}
