//! The reference engine: the interpreted out-of-order pipeline, fetch →
//! dispatch → issue → execute → commit, over an in-order window of
//! `Entry`s and a per-site table decoded straight from the IR.
//!
//! No runtime path reaches it.  It is the straightforward statement of the
//! timing model that the compiled engine ([`crate::block`]) must match
//! cycle for cycle — same `SimStats`, same cycle buckets, same per-site
//! attribution.  The block tests, `tests/cycle_budget.rs`, the harness's
//! materialized-reference test, the fuzz oracle's differential and the
//! `blockcomp` bench run it against the compiled engine.

use crate::config::{class_idx, MachineConfig, QueueKind};
use crate::observe::{CycleBucket, SimObserver};
use crate::pipeline::{
    EState, HotState, SimContext, SimError, StallKind, TraceSource, BUDGET_PER_ENTRY, BUDGET_SLACK,
    MAX_SRCS,
};
use crate::stats::SimStats;
use guardspec_interp::StaticLayout;
use guardspec_ir::{FuClass, Opcode, Program, Reg};
use guardspec_predict::{BranchKind, Scheme};
use std::collections::VecDeque;

/// Static per-site information the pipeline needs, precomputed once.
struct SiteInfo {
    class: FuClass,
    queue: QueueKind,
    /// Dense register indices read (including guard predicate); the dense
    /// register space (144 names) fits in a `u8`.
    uses: [u8; MAX_SRCS],
    nuses: u8,
    /// Dense register index written.
    def: Option<u8>,
    kind: Option<BranchKind>,
    /// PC of the taken-target block's first instruction (direct branches
    /// and jumps only).
    target_pc: Option<u64>,
}

impl SiteInfo {
    fn uses(&self) -> &[u8] {
        &self.uses[..self.nuses as usize]
    }
}

fn build_site_infos(prog: &Program, layout: &StaticLayout) -> Vec<SiteInfo> {
    debug_assert!(Reg::DENSE_COUNT <= u8::MAX as usize + 1);
    let mut infos = Vec::with_capacity(layout.num_sites());
    for id in 0..layout.num_sites() as u32 {
        let site = layout.site(id);
        let insn = prog.insn(site);
        let target_pc = match &insn.op {
            Opcode::Branch { target, .. } | Opcode::Jump { target } => {
                Some(layout.pc(layout.block_start(site.func, *target)))
            }
            _ => None,
        };
        let mut uses = [0u8; MAX_SRCS];
        let mut nuses = 0u8;
        for r in insn.uses() {
            let r: Reg = r;
            uses[nuses as usize] = r.dense_index() as u8;
            nuses += 1;
        }
        infos.push(SiteInfo {
            class: insn.fu_class(),
            queue: QueueKind::for_class(insn.fu_class()),
            uses,
            nuses,
            def: insn
                .def()
                .filter(|d| !d.is_int_zero())
                .map(|d| d.dense_index() as u8),
            kind: BranchKind::of(insn),
            target_pc,
        });
    }
    infos
}

/// One in-flight instruction of the reference engine's window.  The
/// compiled engine keeps its own, smaller slot.
#[derive(Clone, Copy, Debug)]
struct Entry {
    seq: u64,
    id: u32,
    class: FuClass,
    queue: QueueKind,
    state: EState,
    disp_cycle: u64,
    finish: u64,
    /// Seqs of producing instructions (ready when committed or Complete),
    /// deduplicated at dispatch; inline since an op has at most
    /// [`MAX_SRCS`] sources.
    deps: [u64; MAX_SRCS],
    ndeps: u8,
    mem_addr: Option<u32>,
    /// This entry has fetch stalled until it resolves.
    blocks_fetch: bool,
    /// Conditional branch (counts against the shadow-map limit).
    is_cond: bool,
    annulled: bool,
    /// Missed the D-cache at issue (observer bookkeeping; only written
    /// when an observer is enabled).
    dmiss: bool,
}

impl Entry {
    fn deps(&self) -> &[u64] {
        &self.deps[..self.ndeps as usize]
    }
}

/// The pipeline simulator.
struct Pipeline<'a, S: TraceSource, O: SimObserver> {
    cfg: &'a MachineConfig,
    infos: &'a [SiteInfo],
    layout: &'a StaticLayout,
    source: S,
    scheme: Scheme,
    /// The run errors once `now` passes this cycle.
    budget: u64,

    now: u64,
    head_seq: u64,
    next_seq: u64,
    queue_len: [usize; 4],
    unresolved_branches: usize,
    fetch_resume: u64,
    /// Fetch is stalled until this entry (by seq) resolves.
    fetch_blocked_by: Option<u64>,
    fpdiv_free_at: u64,
    /// Window index of the oldest entry that may still be `InQueue`.
    /// States only advance (`InQueue` → `Executing` → `Complete`), so the
    /// wake-up scan can skip the already-issued prefix — the dominant cost
    /// when a full reorder buffer drains through narrow issue ports.
    issue_head: usize,

    hot: &'a mut HotState,
    /// The in-order window, oldest entry first.
    window: VecDeque<Entry>,
    stats: SimStats,
    /// Instructions committed this cycle (cycle classification input).
    committed_cycle: u8,

    obs: &'a mut O,
    /// Observer bookkeeping (dead stores when `O::ENABLED` is false):
    /// why the pending `fetch_resume` was set, the site that caused it,
    /// the site of the branch currently blocking fetch and whether that
    /// block is a misprediction (vs an indirect transfer), and whether
    /// fetch broke on window/queue/shadow capacity this cycle.
    resume_kind: StallKind,
    resume_site: u32,
    block_site: u32,
    block_misp: bool,
    capacity_stall: bool,
}

impl<'a, S: TraceSource, O: SimObserver> Pipeline<'a, S, O> {
    fn entry(&self, seq: u64) -> Option<&Entry> {
        if seq < self.head_seq {
            return None; // committed
        }
        self.window.get((seq - self.head_seq) as usize)
    }

    fn dep_ready(&self, seq: u64) -> bool {
        match self.entry(seq) {
            None => true, // committed long ago
            Some(e) => e.state == EState::Complete,
        }
    }

    /// Stage 1: mark finished executions complete; resolve fetch blocks.
    fn complete_stage(&mut self) {
        let now = self.now;
        let mut resume: Option<u64> = None;
        let recovery = self.cfg.mispredict_recovery;
        for e in self.window.iter_mut() {
            if e.state == EState::Executing && e.finish <= now {
                e.state = EState::Complete;
                if e.is_cond {
                    self.unresolved_branches -= 1;
                }
                if e.blocks_fetch {
                    resume = Some(now + 1 + recovery);
                    e.blocks_fetch = false;
                }
            }
        }
        if let Some(r) = resume {
            self.fetch_blocked_by = None;
            if O::ENABLED && r >= self.fetch_resume {
                // The recovery bubble outlasts any pending refill/redirect,
                // so the remaining stall is attributed to the branch.
                self.resume_kind = StallKind::Recovery;
                self.resume_site = self.block_site;
            }
            self.fetch_resume = self.fetch_resume.max(r);
        }
    }

    /// Stage 2: in-order commit of up to `commit_width`.
    fn commit_stage(&mut self) {
        for _ in 0..self.cfg.commit_width {
            match self.window.front() {
                Some(e) if e.state == EState::Complete => {
                    let e = self.window.pop_front().unwrap();
                    self.head_seq = e.seq + 1;
                    self.issue_head = self.issue_head.saturating_sub(1);
                    // Reservation-station entries are held until graduation
                    // (the R10000 address queue keeps loads/stores until
                    // they graduate) — this is what makes Table 3's
                    // occupancy metric meaningful.
                    self.queue_len[e.queue.index()] -= 1;
                    self.stats.committed_total += 1;
                    self.committed_cycle = self.committed_cycle.saturating_add(1);
                    if e.annulled {
                        self.stats.annulled += 1;
                    } else {
                        self.stats.committed += 1;
                    }
                    // Clear stale writer pointers.
                    if let Some(d) = self.infos[e.id as usize].def {
                        if self.hot.reg_writer[d as usize] == Some(e.seq) {
                            self.hot.reg_writer[d as usize] = None;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    /// Stage 3: wake-up/select per reservation station, oldest first.
    fn issue_stage(&mut self) {
        let mut issued = [0usize; 8];
        let now = self.now;
        // Entries below `issue_head` have already left `InQueue`; scanning
        // in index order from there preserves oldest-first select exactly.
        let mut new_head: Option<usize> = None;
        let still_in_queue = |new_head: &mut Option<usize>, i: usize| {
            if new_head.is_none() {
                *new_head = Some(i);
            }
        };
        for i in self.issue_head..self.window.len() {
            let (ready, class) = {
                let e = &self.window[i];
                if e.state != EState::InQueue {
                    continue;
                }
                if now <= e.disp_cycle + self.cfg.frontend_depth {
                    still_in_queue(&mut new_head, i);
                    continue;
                }
                let ready = e.deps().iter().all(|&d| self.dep_ready(d));
                (ready, e.class)
            };
            if !ready {
                still_in_queue(&mut new_head, i);
                continue;
            }
            let ci = class_idx(class);
            let fus = self.cfg.fu_count[ci];
            if class != FuClass::Nop {
                if issued[ci] >= fus {
                    still_in_queue(&mut new_head, i);
                    continue; // structural hazard this cycle
                }
                if class == FuClass::FpDiv && now < self.fpdiv_free_at {
                    still_in_queue(&mut new_head, i);
                    continue; // blocking divider
                }
            }
            // Latency, including D-cache for memory ops.
            let mut lat = self.cfg.latencies.for_class(class);
            let (is_mem, addr, annulled) = {
                let e = &self.window[i];
                (e.class == FuClass::LoadStore, e.mem_addr, e.annulled)
            };
            let mut dmiss = false;
            if is_mem && !annulled {
                let byte = (addr.unwrap_or(0) as u64) << 2;
                if !self.hot.dcache.access(byte) {
                    lat += self.cfg.latencies.cache_miss_penalty;
                    self.stats.dcache_misses += 1;
                    dmiss = true;
                } else {
                    self.stats.dcache_hits += 1;
                }
            }
            let e = &mut self.window[i];
            e.state = EState::Executing;
            e.finish = now + lat;
            if O::ENABLED {
                e.dmiss = dmiss;
            }
            if class != FuClass::Nop {
                issued[ci] += 1;
                self.stats.fu_issues[ci] += 1;
                if class == FuClass::FpDiv {
                    self.fpdiv_free_at = e.finish;
                }
            }
        }
        self.issue_head = new_head.unwrap_or(self.window.len());
        // A class is "full" this cycle if every unit of the class issued.
        for (ci, &n) in issued.iter().enumerate() {
            let fus = self.cfg.fu_count[ci];
            if fus != usize::MAX && fus > 0 && n == fus {
                self.stats.fu_full_cycles[ci] += 1;
            }
        }
    }

    /// Stage 4: fetch + dispatch up to `fetch_width` correct-path
    /// instructions, applying the branch-prediction policy.
    fn fetch_stage(&mut self) {
        if self.source.cur().is_none() {
            return;
        }
        if self.fetch_blocked_by.is_some() || self.now < self.fetch_resume {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        // Copy of the shared-slice reference so `info` borrows the site
        // table, not `self`.
        let infos = self.infos;
        for _ in 0..self.cfg.fetch_width {
            let Some(te) = self.source.cur() else {
                break;
            };
            let info = &infos[te.id as usize];
            let pc = self.layout.pc(te.id);

            // Structural checks before consuming.
            if self.window.len() >= self.cfg.rob_size {
                if O::ENABLED {
                    self.capacity_stall = true;
                }
                break;
            }
            let qi = info.queue.index();
            if self.queue_len[qi] >= self.cfg.queue_size[qi] {
                if O::ENABLED {
                    self.capacity_stall = true;
                }
                break;
            }
            let is_cond = matches!(
                info.kind,
                Some(BranchKind::CondDirect) | Some(BranchKind::CondLikely)
            );
            if is_cond && self.unresolved_branches >= self.cfg.max_inflight_branches {
                if O::ENABLED {
                    self.capacity_stall = true;
                }
                break;
            }
            // I-cache probe: a miss delays fetch; the probe fills the line
            // so the retry hits.
            if !self.hot.icache.access(pc) {
                self.stats.icache_misses += 1;
                self.fetch_resume = self.now + self.cfg.latencies.cache_miss_penalty;
                if O::ENABLED {
                    self.resume_kind = StallKind::Icache;
                }
                break;
            }
            self.stats.icache_hits += 1;

            // Dispatch.
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut deps = [0u64; MAX_SRCS];
            let mut ndeps = 0u8;
            for &u in info.uses() {
                if let Some(s) = self.hot.reg_writer[u as usize] {
                    if !self.dep_ready(s) && !deps[..ndeps as usize].contains(&s) {
                        deps[ndeps as usize] = s;
                        ndeps += 1;
                    }
                }
            }
            if let Some(d) = info.def {
                self.hot.reg_writer[d as usize] = Some(seq);
            }
            self.queue_len[qi] += 1;
            if is_cond {
                self.unresolved_branches += 1;
            }
            let mut entry = Entry {
                seq,
                id: te.id,
                class: info.class,
                queue: info.queue,
                state: EState::InQueue,
                disp_cycle: self.now,
                finish: 0,
                deps,
                ndeps,
                mem_addr: te.mem_addr(),
                blocks_fetch: false,
                is_cond,
                annulled: te.annulled(),
                dmiss: false,
            };
            self.source.advance();

            // Branch policy.  An *annulled* predicated branch (guard false)
            // never redirects fetch: the predicate hardware squashes it at
            // dispatch, so it flows through the branch queue/unit but makes
            // no prediction and costs no bubble.
            let mut stop_group = false;
            if let Some(kind) = info.kind.filter(|_| !te.annulled()) {
                let taken = te.taken();
                if O::ENABLED && matches!(kind, BranchKind::CondDirect | BranchKind::CondLikely) {
                    self.obs.on_branch(te.id);
                }
                match kind {
                    BranchKind::CondDirect => {
                        let actual = taken.unwrap_or(false);
                        self.stats.cond_branches += 1;
                        if self.scheme.is_perfect() {
                            stop_group = actual;
                        } else {
                            let pred = self.hot.bht.predict(pc);
                            self.hot.bht.update(pc, actual);
                            if pred == actual {
                                if actual {
                                    // Taken, correctly predicted: BTB hit is
                                    // free, miss costs a decode redirect.
                                    match self.hot.btb.lookup(pc) {
                                        Some(_) => {
                                            self.stats.btb_hits += 1;
                                        }
                                        None => {
                                            self.stats.btb_misses += 1;
                                            self.fetch_resume = self.now + 2;
                                            if O::ENABLED {
                                                self.resume_kind = StallKind::Redirect;
                                            }
                                            if let Some(t) = info.target_pc {
                                                self.hot.btb.install(pc, t);
                                            }
                                        }
                                    }
                                    stop_group = true;
                                }
                            } else {
                                self.stats.mispredicts += 1;
                                entry.blocks_fetch = true;
                                self.fetch_blocked_by = Some(seq);
                                if O::ENABLED {
                                    self.obs.on_mispredict(te.id, false);
                                    self.block_site = te.id;
                                    self.block_misp = true;
                                }
                                if actual {
                                    if let Some(t) = info.target_pc {
                                        self.hot.btb.install(pc, t);
                                    }
                                }
                                stop_group = true;
                            }
                        }
                    }
                    BranchKind::CondLikely => {
                        let actual = taken.unwrap_or(false);
                        self.stats.cond_branches += 1;
                        self.stats.likely_branches += 1;
                        if self.scheme.is_perfect() {
                            stop_group = actual;
                        } else if actual {
                            // Statically predicted taken, target in the
                            // instruction: fetch group ends, no bubble.
                            stop_group = true;
                        } else {
                            self.stats.mispredicts += 1;
                            self.stats.likely_mispredicts += 1;
                            entry.blocks_fetch = true;
                            self.fetch_blocked_by = Some(seq);
                            if O::ENABLED {
                                self.obs.on_mispredict(te.id, true);
                                self.block_site = te.id;
                                self.block_misp = true;
                            }
                            stop_group = true;
                        }
                    }
                    BranchKind::DirectJump => {
                        // `j`: always taken, absolute target, BTB-eligible.
                        // A BTB hit redirects fetch for free; a miss costs
                        // one decode-redirect bubble and installs the entry.
                        if !self.scheme.is_perfect() {
                            match self.hot.btb.lookup(pc) {
                                Some(_) => {
                                    self.stats.btb_hits += 1;
                                }
                                None => {
                                    self.stats.btb_misses += 1;
                                    self.fetch_resume = self.now + 2;
                                    if O::ENABLED {
                                        self.resume_kind = StallKind::Redirect;
                                    }
                                    if let Some(t) = info.target_pc {
                                        self.hot.btb.install(pc, t);
                                    }
                                }
                            }
                        }
                        stop_group = true;
                    }
                    BranchKind::Call => {
                        // Calls are not BTB-registered (Section 6): one
                        // decode-redirect bubble unless perfect.
                        if !self.scheme.is_perfect() {
                            self.fetch_resume = self.now + 2;
                            if O::ENABLED {
                                self.resume_kind = StallKind::Redirect;
                            }
                        }
                        stop_group = true;
                    }
                    BranchKind::Indirect => {
                        if self.scheme.is_perfect() {
                            stop_group = true;
                        } else {
                            self.stats.indirect_stalls += 1;
                            entry.blocks_fetch = true;
                            self.fetch_blocked_by = Some(seq);
                            if O::ENABLED {
                                self.block_site = te.id;
                                self.block_misp = false;
                            }
                            stop_group = true;
                        }
                    }
                }
            }

            self.window.push_back(entry);
            if stop_group {
                break;
            }
        }
    }

    /// Attribute the cycle that just ran to exactly one [`CycleBucket`].
    ///
    /// The priority chain makes the buckets exhaustive and mutually
    /// exclusive by construction (see [`CycleBucket`] for the order), so
    /// the observer's bucket sums equal `stats.cycles` without any
    /// residual category.  Runs after `fetch_stage`.
    fn classify_cycle(&mut self) {
        let (bucket, site) = if self.committed_cycle > 0 {
            (CycleBucket::UsefulCommit, None)
        } else if self.source.cur().is_none() {
            // Trace exhausted: the remaining zero-commit cycles are the
            // pipeline draining, whatever the in-flight entries wait on.
            (CycleBucket::Drain, None)
        } else if self.fetch_blocked_by.is_some() {
            // Unresolved blocking branch: mispredict repair if it was a
            // misprediction, plain fetch stall for an indirect transfer.
            if self.block_misp {
                (CycleBucket::MispredictRecovery, Some(self.block_site))
            } else {
                (CycleBucket::FetchStall, Some(self.block_site))
            }
        } else if self.now < self.fetch_resume {
            match self.resume_kind {
                StallKind::Recovery if self.block_misp => {
                    (CycleBucket::MispredictRecovery, Some(self.resume_site))
                }
                StallKind::Recovery => (CycleBucket::FetchStall, Some(self.resume_site)),
                StallKind::Icache => (CycleBucket::IcacheMiss, None),
                _ => (CycleBucket::FetchStall, None),
            }
        } else if self.capacity_stall {
            (CycleBucket::IssueWindowFull, None)
        } else {
            // Head-of-window diagnosis.  The head cannot be `Complete`
            // here: complete runs before commit, so a complete head would
            // have committed this cycle (the first arm above).
            match self.window.front() {
                None => (CycleBucket::FetchStall, None), // frontend fill
                Some(e) if e.state == EState::Executing => {
                    if e.dmiss {
                        (CycleBucket::DcacheMiss, None)
                    } else {
                        (CycleBucket::FuContention, None)
                    }
                }
                Some(e) if self.now <= e.disp_cycle + self.cfg.frontend_depth => {
                    (CycleBucket::FetchStall, None) // frontend fill
                }
                // InQueue past the frontend depth: the head's producers
                // have all committed, so it is waiting on a functional
                // unit (structural hazard or the blocking divider).
                Some(_) => (CycleBucket::FuContention, None),
            }
        };
        self.obs.on_cycle(bucket, site);
    }

    /// Stage 5: end-of-cycle statistics sampling.
    fn sample_stage(&mut self) {
        for q in 0..4 {
            self.stats.queue_occupancy_sum[q] += self.queue_len[q] as u64;
            if self.queue_len[q] >= self.cfg.queue_size[q] {
                self.stats.queue_full_cycles[q] += 1;
            }
        }
    }

    fn run(mut self) -> Result<SimStats, SimError> {
        while self.source.cur().is_some() || !self.window.is_empty() {
            self.now += 1;
            self.committed_cycle = 0;
            if O::ENABLED {
                self.capacity_stall = false;
            }
            self.complete_stage();
            self.commit_stage();
            self.issue_stage();
            self.fetch_stage();
            if O::ENABLED {
                self.classify_cycle();
            }
            self.sample_stage();
            if self.now > self.budget {
                return Err(SimError::CycleBudgetExceeded {
                    cycles: self.now,
                    retired: self.stats.committed_total,
                });
            }
        }
        self.stats.cycles = self.now;
        Ok(self.stats)
    }
}

/// Static per-program inputs of the reference engine (layout + site
/// table), computed once and shared by every run over the program.
pub struct PreparedSim {
    layout: StaticLayout,
    infos: Vec<SiteInfo>,
}

/// Precompute the static tables [`simulate`] needs for `prog`.
pub fn prepare_program(prog: &Program) -> PreparedSim {
    let layout = StaticLayout::build(prog);
    let infos = build_site_infos(prog, &layout);
    PreparedSim { layout, infos }
}

/// Run the reference engine over `source` under `scheme` on `cfg`, reusing
/// `ctx`'s predictor, cache and scoreboard allocations, and reporting
/// cycle attribution and branch events to `obs` (pass `&mut ()` for none).
/// Every run starts from the architectural reset state.
pub fn simulate<S: TraceSource, O: SimObserver>(
    ctx: &mut SimContext,
    prep: &PreparedSim,
    source: S,
    scheme: Scheme,
    cfg: &MachineConfig,
    obs: &mut O,
) -> Result<SimStats, SimError> {
    ctx.prepare(cfg);
    if O::ENABLED {
        obs.on_run_start(prep.infos.len());
    }
    Pipeline {
        cfg,
        infos: &prep.infos,
        layout: &prep.layout,
        budget: BUDGET_PER_ENTRY * source.len() + BUDGET_SLACK,
        source,
        scheme,
        now: 0,
        head_seq: 0,
        next_seq: 0,
        queue_len: [0; 4],
        unresolved_branches: 0,
        fetch_resume: 0,
        fetch_blocked_by: None,
        fpdiv_free_at: 0,
        issue_head: 0,
        hot: ctx.hot_mut(),
        window: VecDeque::with_capacity(cfg.rob_size),
        stats: SimStats::default(),
        committed_cycle: 0,
        obs,
        resume_kind: StallKind::None,
        resume_site: 0,
        block_site: 0,
        block_misp: false,
        capacity_stall: false,
    }
    .run()
}
