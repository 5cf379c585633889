//! Compiled execution: the decoded-uop cache and the specialized pipeline
//! that executes it, plus SMARTS-style interval sampling.
//!
//! ## Decoded-uop cache
//!
//! [`CompiledProgram::build`] decodes every static instruction **once** at
//! layout time into a flat `Uop` descriptor — dense register uses/def,
//! functional-unit class, reservation-station queue index, branch kind and
//! resolved taken-target PC — indexed by site id.  The compiled pipeline
//! then executes trace entries against this table with no per-entry opcode
//! dispatch, no `InsnRef` chasing, and no PC arithmetic.
//!
//! ## Exactness contract
//!
//! In exact mode the compiled engine is **cycle-for-cycle identical** to
//! the interpreted reference engine in [`crate::reference`]: same
//! `SimStats`, same cycle buckets, same per-site attribution.  These
//! structural changes make it faster without changing any observable:
//!
//! * **Compact window slots** — the window is a power-of-two ring of
//!   56-byte `Slot`s, not the interpreted engine's `Entry`: a slot's seq
//!   is its ring index relative to `head_seq`, its queue is its uop's, its
//!   finish cycle is the wheel bucket it waits in, and its flags share one
//!   byte.  Dispatch writes
//!   each slot once, in place, after the branch logic.
//! * **Intrusive timing wheel** — issued slots are threaded onto the
//!   bucket of their finish cycle through `Slot::wnext` (the wheel holds
//!   only bucket heads), with a `(finish, slot)` min-heap overflow for
//!   latencies beyond the wheel span, normally empty; the complete stage
//!   drains the current bucket instead of scanning the whole window every
//!   cycle.  Completion order within a cycle does not affect any counter,
//!   and at most one `blocks_fetch` entry is in flight at a time, so the
//!   resume logic is order-free.
//! * **Issue list** — `InQueue` slots form a list threaded through the
//!   ring in seq order (`Slot::nextq`); the issue stage walks only it,
//!   stops at the first entry still inside its front-end delay, skips
//!   entirely when it is empty, and counts a class's FU-full cycle at the
//!   issue that fills the class.
//! * **Run-owned state** — a run moves the context's `HotState` (ring,
//!   wheel, register scoreboard, caches and predictors) into the pipeline
//!   and copies the config scalars the stages read every cycle, then
//!   hands the state back at the end of the run and of each sampling
//!   window.  Neither move allocates.
//! * **Stall jumps** — unobserved runs skip cycles on which no stage can
//!   act (see `CompiledPipeline::stall_jump`).
//!
//! ## Sampling
//!
//! [`simulate_sampled_in`] layers SMARTS-style systematic interval
//! sampling on top: per interval of [`SampleParams::interval`] trace
//! entries, the gap is fast-forwarded with **functional warming** (I-/D-
//! cache, BHT and BTB updated exactly as the detailed fetch stage would,
//! minus timing), then `warmup + detail` entries run through the detailed
//! pipeline with the first `warmup` commits excluded from measurement.
//! Per-window IPC samples yield a Student-t 95% confidence interval
//! (plus a documented 2%-of-mean bias allowance); traces too short for
//! two windows fall back to an exact run (`windows = 0`, zero-width CI).

use crate::config::{class_idx, MachineConfig, QueueKind};
use crate::observe::{CycleBucket, SimObserver};
use crate::pipeline::{
    EState, HotState, PackedSource, SimContext, SimError, SliceSource, StallKind, TraceSource,
    BUDGET_PER_ENTRY, BUDGET_SLACK, MAX_SRCS,
};
use crate::stats::SimStats;
use guardspec_interp::{PackedTrace, StaticLayout, TraceEntry};
use guardspec_ir::{FuClass, Opcode, Program, Reg};
use guardspec_predict::{BranchKind, Scheme};
use std::cmp::Reverse;

/// One decoded static instruction: everything the pipeline needs per
/// fetched trace entry, resolved once at compile time.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Uop {
    pub(crate) pc: u64,
    /// PC of the taken-target block (direct branches and jumps only).
    pub(crate) target_pc: Option<u64>,
    pub(crate) class: FuClass,
    /// Reservation-station queue (`QueueKind::index()`).
    pub(crate) qi: u8,
    pub(crate) uses: [u8; MAX_SRCS],
    pub(crate) nuses: u8,
    pub(crate) def: Option<u8>,
    pub(crate) kind: Option<BranchKind>,
    pub(crate) is_cond: bool,
    pub(crate) is_mem: bool,
}

impl Uop {
    fn uses(&self) -> &[u8] {
        &self.uses[..self.nuses as usize]
    }
}

/// The decoded-uop cache for one program: one flat descriptor per static
/// site, built once and shared (read-only) by every simulation of the
/// program.
pub struct CompiledProgram {
    uops: Vec<Uop>,
}

impl CompiledProgram {
    /// Decode `prog` into one descriptor per static site of `layout`, which
    /// must be `prog`'s own (`StaticLayout::build(prog)`, or the layout a
    /// trace recorder built for it).
    pub fn build(prog: &Program, layout: &StaticLayout) -> CompiledProgram {
        debug_assert!(Reg::DENSE_COUNT <= u8::MAX as usize + 1);
        let mut uops = Vec::with_capacity(layout.num_sites());
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
            let class = insn.fu_class();
            let kind = BranchKind::of(insn);
            uops.push(Uop {
                pc: layout.pc(id),
                target_pc,
                class,
                qi: QueueKind::for_class(class).index() as u8,
                uses,
                nuses,
                def: insn
                    .def()
                    .filter(|d| !d.is_int_zero())
                    .map(|d| d.dense_index() as u8),
                kind,
                is_cond: matches!(
                    kind,
                    Some(BranchKind::CondDirect) | Some(BranchKind::CondLikely)
                ),
                is_mem: class == FuClass::LoadStore,
            });
        }
        CompiledProgram { uops }
    }
}

/// Per-run execution latency by dense class index (resolves
/// `Latencies::for_class` once instead of per issue).
fn latency_table(cfg: &MachineConfig) -> [u64; 8] {
    let mut t = [0u64; 8];
    for c in FuClass::ALL {
        t[class_idx(c)] = cfg.latencies.for_class(c);
    }
    t
}

/// End of an intrusive slot list: the issue list and each wheel bucket.
pub(crate) const NIL: u32 = u32::MAX;

/// [`Slot::flags`] bits.
const BLOCKS_FETCH: u8 = 1 << 0;
const COND: u8 = 1 << 1;
const ANNULLED: u8 = 1 << 2;
const DMISS: u8 = 1 << 3;

/// One in-flight instruction in the compiled engine's window ring.  Holds
/// only what the stages read after dispatch: the seq is implied by the
/// ring index and `head_seq`, the queue by the uop's `qi`, and the finish
/// cycle by the wheel bucket the slot waits in.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    /// Seqs of producers unfinished at dispatch, deduplicated; ready when
    /// committed or `Complete`.
    deps: [u64; MAX_SRCS],
    /// First cycle the entry may issue: dispatch cycle + front-end depth
    /// + 1.
    eligible: u64,
    /// Static site id.
    id: u32,
    /// D-cache word address (0 for entries that carry none, as the
    /// interpreted engine's `unwrap_or(0)`).
    mem_addr: u32,
    /// Next slot of the in-queue issue list ([`NIL`] = end).
    nextq: u32,
    /// Next slot in the same timing-wheel bucket ([`NIL`] = end).
    wnext: u32,
    state: EState,
    class: FuClass,
    ndeps: u8,
    /// [`BLOCKS_FETCH`] | [`COND`] | [`ANNULLED`] | [`DMISS`] (the last
    /// written only when an observer is enabled).
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 56);

impl Slot {
    /// Inert ring filler: every live slot is rewritten by dispatch before
    /// it is read.
    const VACANT: Slot = Slot {
        deps: [0; MAX_SRCS],
        eligible: 0,
        id: 0,
        mem_addr: 0,
        nextq: NIL,
        wnext: NIL,
        state: EState::Complete,
        class: FuClass::Nop,
        ndeps: 0,
        flags: 0,
    };

    fn deps(&self) -> &[u64] {
        &self.deps[..self.ndeps as usize]
    }
}

/// The compiled pipeline.  A disciplined replica of the five stages of the
/// reference engine ([`crate::reference`]) over the flat uop table —
/// any semantic divergence is a bug (enforced by the differential fuzz
/// oracle and the unit tests below).
///
/// The run owns its hot state ([`HotState`], moved out of the
/// [`SimContext`]) and copies of the config scalars the stages read every
/// cycle, so each is one load from `self` rather than a walk through
/// `&mut SimContext` or `&MachineConfig` that every ring store would force
/// the compiler to repeat.
struct CompiledPipeline<'a, S: TraceSource, O: SimObserver> {
    hot: HotState,
    uops: &'a [Uop],
    source: S,
    scheme: Scheme,
    lat: [u64; 8],
    fetch_width: usize,
    commit_width: usize,
    rob_size: usize,
    queue_size: [usize; 4],
    fu_count: [usize; 8],
    max_inflight_branches: usize,
    mispredict_recovery: u64,
    frontend_depth: u64,
    cache_miss_penalty: u64,
    /// The run errors once `now` passes this cycle.
    budget: u64,

    now: u64,
    head_seq: u64,
    next_seq: u64,
    queue_len: [usize; 4],
    unresolved_branches: usize,
    fetch_resume: u64,
    fetch_blocked_by: Option<u64>,
    fpdiv_free_at: u64,
    /// Slot of the oldest `InQueue` entry — head of the issue list
    /// threaded through the ring via [`Slot::nextq`] ([`NIL`] = empty).
    q_head: u32,
    /// Slot of the youngest `InQueue` entry (tail of the issue list).
    q_tail: u32,
    /// Instructions committed this cycle (cycle classification input).
    committed_cycle: u8,
    /// Record `(cycle, committed)` when `committed_total` first reaches
    /// this threshold — the sampling warm-up boundary.  `u64::MAX`
    /// disables marking (exact mode).
    mark_at: u64,
    mark: Option<(u64, u64)>,

    /// Window-ring index mask: `hot.ring.len() - 1` (the length is a power
    /// of two covering `rob_size`, so the slot of seq `s` is `s & mask`).
    ring_mask: u64,
    /// Timing-wheel index mask: `hot.wheel.len() - 1` (the length is a
    /// power of two sized to cover every latency the config can produce).
    wheel_mask: u64,
    /// Completion events currently held in the wheel (the overflow heap
    /// tracks its own length).
    wheel_count: usize,
    /// Lower bound on the earliest cycle holding a wheel event — advanced
    /// lazily past empty buckets when stall-jumping needs the true value.
    wheel_next: u64,

    stats: SimStats,

    obs: &'a mut O,
    /// Set by the issue stage when a ready entry was denied only by a
    /// structural hazard (FU count or busy divider) — it can retry next
    /// cycle, so stall-jumping must not skip it.
    structural_retry: bool,
    /// Cycle at which the oldest front-end-delayed `InQueue` entry becomes
    /// issue-eligible (`u64::MAX` when none) — the issue stage's next
    /// time-driven wake-up.
    delay_eligible_at: u64,
    /// Set by the fetch stage when it consumed nothing purely because of a
    /// capacity limit (ROB/queue/branch); such a stall only clears through
    /// a completion, never by waiting, so it contributes no jump deadline
    /// (and no `fetch_stall_cycles`).
    fetch_parked: bool,
    resume_kind: StallKind,
    resume_site: u32,
    block_site: u32,
    block_misp: bool,
    capacity_stall: bool,
}

impl<'a, S: TraceSource, O: SimObserver> CompiledPipeline<'a, S, O> {
    /// Live window occupancy (`[head_seq, next_seq)`).
    #[inline]
    fn win_len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    /// Oldest live entry, if any.
    #[inline]
    fn win_front(&self) -> Option<&Slot> {
        if self.next_seq == self.head_seq {
            None
        } else {
            Some(&self.hot.ring[(self.head_seq & self.ring_mask) as usize])
        }
    }

    fn dep_ready(&self, seq: u64) -> bool {
        // Committed producers (seq below the window head) are ready.
        seq < self.head_seq
            || self.hot.ring[(seq & self.ring_mask) as usize].state == EState::Complete
    }

    /// Mark one finished execution complete (shared by the wheel and the
    /// overflow-heap drains).
    #[inline]
    fn complete_one(&mut self, slot: u32, now: u64, resume: &mut Option<u64>) {
        let e = &mut self.hot.ring[slot as usize];
        debug_assert!(e.state == EState::Executing);
        e.state = EState::Complete;
        if e.flags & COND != 0 {
            self.unresolved_branches -= 1;
        }
        if e.flags & BLOCKS_FETCH != 0 {
            *resume = Some(now + 1 + self.mispredict_recovery);
            e.flags &= !BLOCKS_FETCH;
        }
    }

    /// Stage 1: drain this cycle's completion bucket (instead of scanning
    /// the window); resolve fetch blocks.
    fn complete_stage(&mut self) {
        let now = self.now;
        let mut resume: Option<u64> = None;
        if self.wheel_count > 0 {
            let bi = (now & self.wheel_mask) as usize;
            let mut cur = std::mem::replace(&mut self.hot.wheel[bi], NIL);
            while cur != NIL {
                let next = self.hot.ring[cur as usize].wnext;
                self.complete_one(cur, now, &mut resume);
                self.wheel_count -= 1;
                cur = next;
            }
        }
        while let Some(&Reverse((finish, slot))) = self.hot.events.peek() {
            if finish > now {
                break;
            }
            self.hot.events.pop();
            self.complete_one(slot, now, &mut resume);
        }
        if let Some(r) = resume {
            self.fetch_blocked_by = None;
            if O::ENABLED && r >= self.fetch_resume {
                self.resume_kind = StallKind::Recovery;
                self.resume_site = self.block_site;
            }
            self.fetch_resume = self.fetch_resume.max(r);
        }
    }

    /// Stage 2: in-order commit of up to `commit_width`.
    fn commit_stage(&mut self) {
        for _ in 0..self.commit_width {
            match self.win_front() {
                Some(e) if e.state == EState::Complete => {
                    let (id, annulled) = (e.id, e.flags & ANNULLED != 0);
                    let seq = self.head_seq;
                    self.head_seq = seq + 1;
                    let u = &self.uops[id as usize];
                    self.queue_len[u.qi as usize] -= 1;
                    self.stats.committed_total += 1;
                    self.committed_cycle = self.committed_cycle.saturating_add(1);
                    if annulled {
                        self.stats.annulled += 1;
                    } else {
                        self.stats.committed += 1;
                    }
                    if let Some(d) = u.def {
                        if self.hot.reg_writer[d as usize] == Some(seq) {
                            self.hot.reg_writer[d as usize] = None;
                        }
                    }
                    if self.stats.committed_total == self.mark_at {
                        self.mark = Some((self.now, self.stats.committed));
                    }
                }
                _ => break,
            }
        }
    }

    /// Stage 3: wake-up/select per reservation station, oldest first.
    /// Walks the linked list of `InQueue` entries threaded through the
    /// ring (`q_head`/`Slot::nextq`) in seq order — the same visit order
    /// as the interpreted window scan, minus the entries that scan would
    /// skip for not being `InQueue`.  Skipped outright when the list is
    /// empty (the interpreted scan would find nothing, issue nothing, and
    /// charge nothing).
    ///
    /// A class is "full" on a cycle when every unit of it issued.  That is
    /// counted at the issue that fills the class: `issued[ci]` can reach
    /// `fu_count[ci]` but never pass it, so it equals it at most once a
    /// cycle, and the interpreted engine's end-of-cycle scan counts the
    /// same cycles.
    fn issue_stage(&mut self) {
        if self.q_head == NIL {
            return;
        }
        let mut issued = [0usize; 8];
        let now = self.now;
        let mut structural = false;
        let mut delay_at = u64::MAX;
        let mut prev = NIL;
        let mut cur = self.q_head;
        while cur != NIL {
            let e = &self.hot.ring[cur as usize];
            debug_assert!(e.state == EState::InQueue);
            if now < e.eligible {
                // Dispatch is in order and the front-end depth is
                // constant, so every younger list entry is also still
                // inside its front-end delay: the walk can stop here.
                delay_at = e.eligible;
                break;
            }
            let next = e.nextq;
            let class = e.class;
            if !e.deps().iter().all(|&d| self.dep_ready(d)) {
                prev = cur;
                cur = next;
                continue;
            }
            let ci = class_idx(class);
            let fus = self.fu_count[ci];
            if class != FuClass::Nop
                && (issued[ci] >= fus || (class == FuClass::FpDiv && now < self.fpdiv_free_at))
            {
                // Structural hazard this cycle (FU count or busy divider).
                structural = true;
                prev = cur;
                cur = next;
                continue;
            }
            let mut lat = self.lat[ci];
            let e = &mut self.hot.ring[cur as usize];
            if class == FuClass::LoadStore && e.flags & ANNULLED == 0 {
                if !self.hot.dcache.access((e.mem_addr as u64) << 2) {
                    lat += self.cache_miss_penalty;
                    self.stats.dcache_misses += 1;
                    if O::ENABLED {
                        e.flags |= DMISS;
                    }
                } else {
                    self.stats.dcache_hits += 1;
                }
            }
            e.state = EState::Executing;
            let fin = now + lat;
            // Completion is observed no earlier than next cycle (the
            // complete stage for `now` already ran), matching the heap
            // engine's `finish <= now` pop condition.
            let due = fin.max(now + 1);
            if due - now <= self.wheel_mask {
                let bucket = &mut self.hot.wheel[(due & self.wheel_mask) as usize];
                e.wnext = *bucket;
                *bucket = cur;
                self.wheel_count += 1;
                if due < self.wheel_next {
                    self.wheel_next = due;
                }
            } else {
                self.hot.events.push(Reverse((fin, cur)));
            }
            // Unlink the issued entry from the InQueue list.
            if prev == NIL {
                self.q_head = next;
            } else {
                self.hot.ring[prev as usize].nextq = next;
            }
            if next == NIL {
                self.q_tail = prev;
            }
            cur = next;
            if class != FuClass::Nop {
                issued[ci] += 1;
                self.stats.fu_issues[ci] += 1;
                if issued[ci] == fus {
                    self.stats.fu_full_cycles[ci] += 1;
                }
                if class == FuClass::FpDiv {
                    self.fpdiv_free_at = fin;
                }
            }
        }
        self.structural_retry = structural;
        self.delay_eligible_at = delay_at;
    }

    /// Stage 4: fetch + dispatch through the uop table.
    fn fetch_stage(&mut self) {
        if self.source.cur().is_none() {
            return;
        }
        if self.fetch_blocked_by.is_some() || self.now < self.fetch_resume {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        let uops = self.uops;
        let mut fetched = 0usize;
        for _ in 0..self.fetch_width {
            let Some(te) = self.source.cur() else {
                break;
            };
            let u = &uops[te.id as usize];

            if self.win_len() >= self.rob_size {
                if O::ENABLED {
                    self.capacity_stall = true;
                }
                self.fetch_parked = fetched == 0;
                break;
            }
            let qi = u.qi as usize;
            if self.queue_len[qi] >= self.queue_size[qi] {
                if O::ENABLED {
                    self.capacity_stall = true;
                }
                self.fetch_parked = fetched == 0;
                break;
            }
            let is_cond = u.is_cond;
            if is_cond && self.unresolved_branches >= self.max_inflight_branches {
                if O::ENABLED {
                    self.capacity_stall = true;
                }
                self.fetch_parked = fetched == 0;
                break;
            }
            if !self.hot.icache.access(u.pc) {
                self.stats.icache_misses += 1;
                self.fetch_resume = self.now + self.cache_miss_penalty;
                if O::ENABLED {
                    self.resume_kind = StallKind::Icache;
                }
                break;
            }
            self.stats.icache_hits += 1;

            let seq = self.next_seq;
            self.next_seq += 1;
            let mut deps = [0u64; MAX_SRCS];
            let mut ndeps = 0u8;
            for &r in u.uses() {
                if let Some(s) = self.hot.reg_writer[r as usize] {
                    if !self.dep_ready(s) && !deps[..ndeps as usize].contains(&s) {
                        deps[ndeps as usize] = s;
                        ndeps += 1;
                    }
                }
            }
            if let Some(d) = u.def {
                self.hot.reg_writer[d as usize] = Some(seq);
            }
            self.queue_len[qi] += 1;
            if is_cond {
                self.unresolved_branches += 1;
            }
            let annulled = te.annulled();
            let mut flags = if is_cond { COND } else { 0 } | if annulled { ANNULLED } else { 0 };
            self.source.advance();
            fetched += 1;

            let mut stop_group = false;
            if let Some(kind) = u.kind.filter(|_| !annulled) {
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
                            let pred = self.hot.bht.predict(u.pc);
                            self.hot.bht.update(u.pc, actual);
                            if pred == actual {
                                if actual {
                                    match self.hot.btb.lookup(u.pc) {
                                        Some(_) => {
                                            self.stats.btb_hits += 1;
                                        }
                                        None => {
                                            self.stats.btb_misses += 1;
                                            self.fetch_resume = self.now + 2;
                                            if O::ENABLED {
                                                self.resume_kind = StallKind::Redirect;
                                            }
                                            if let Some(t) = u.target_pc {
                                                self.hot.btb.install(u.pc, t);
                                            }
                                        }
                                    }
                                    stop_group = true;
                                }
                            } else {
                                self.stats.mispredicts += 1;
                                flags |= BLOCKS_FETCH;
                                self.fetch_blocked_by = Some(seq);
                                if O::ENABLED {
                                    self.obs.on_mispredict(te.id, false);
                                    self.block_site = te.id;
                                    self.block_misp = true;
                                }
                                if actual {
                                    if let Some(t) = u.target_pc {
                                        self.hot.btb.install(u.pc, t);
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
                            stop_group = true;
                        } else {
                            self.stats.mispredicts += 1;
                            self.stats.likely_mispredicts += 1;
                            flags |= BLOCKS_FETCH;
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
                        if !self.scheme.is_perfect() {
                            match self.hot.btb.lookup(u.pc) {
                                Some(_) => {
                                    self.stats.btb_hits += 1;
                                }
                                None => {
                                    self.stats.btb_misses += 1;
                                    self.fetch_resume = self.now + 2;
                                    if O::ENABLED {
                                        self.resume_kind = StallKind::Redirect;
                                    }
                                    if let Some(t) = u.target_pc {
                                        self.hot.btb.install(u.pc, t);
                                    }
                                }
                            }
                        }
                        stop_group = true;
                    }
                    BranchKind::Call => {
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
                            flags |= BLOCKS_FETCH;
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

            // Write the slot once, in place, and append it to the InQueue
            // issue list.
            let sl = (seq & self.ring_mask) as u32;
            let e = &mut self.hot.ring[sl as usize];
            e.deps = deps;
            e.ndeps = ndeps;
            e.eligible = self.now + self.frontend_depth + 1;
            e.id = te.id;
            e.mem_addr = te.mem_addr().unwrap_or(0);
            e.nextq = NIL;
            e.state = EState::InQueue;
            e.class = u.class;
            e.flags = flags;
            if self.q_head == NIL {
                self.q_head = sl;
            } else {
                self.hot.ring[self.q_tail as usize].nextq = sl;
            }
            self.q_tail = sl;
            if stop_group {
                break;
            }
        }
        if fetched > 0 {
            // Entries dispatched this cycle were not seen by this cycle's
            // issue scan (issue runs first): they become issue-eligible
            // once their front-end delay matures.
            self.delay_eligible_at = self
                .delay_eligible_at
                .min(self.now + self.frontend_depth + 1);
        }
    }

    /// Identical priority chain to the interpreted engine's
    /// `classify_cycle`.
    fn classify_cycle(&mut self) {
        let (bucket, site) = if self.committed_cycle > 0 {
            (CycleBucket::UsefulCommit, None)
        } else if self.source.cur().is_none() {
            (CycleBucket::Drain, None)
        } else if self.fetch_blocked_by.is_some() {
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
            match self.win_front() {
                None => (CycleBucket::FetchStall, None),
                Some(e) if e.state == EState::Executing => {
                    if e.flags & DMISS != 0 {
                        (CycleBucket::DcacheMiss, None)
                    } else {
                        (CycleBucket::FuContention, None)
                    }
                }
                Some(e) if self.now < e.eligible => (CycleBucket::FetchStall, None),
                Some(_) => (CycleBucket::FuContention, None),
            }
        };
        self.obs.on_cycle(bucket, site);
    }

    /// Jump `now` to just before the next cycle on which any stage can
    /// act, bulk-charging the per-cycle stall and occupancy counters for
    /// the skipped span.  Only run in plain (unobserved) mode: the
    /// observer's `on_cycle` classification is inherently per-cycle.
    ///
    /// Exact by construction — a cycle is skipped only when every stage
    /// provably does nothing on it:
    ///
    /// * **complete** acts next at the earliest pending event;
    /// * **commit** acts only after a completion, unless entries beyond
    ///   `commit_width` are already complete at the window head;
    /// * **issue** acts when a completion readies a dependent (covered by
    ///   the event deadline), when the oldest front-end-delayed entry
    ///   matures ([`Self::delay_eligible_at`]), or immediately if a ready
    ///   entry lost a structural hazard this cycle;
    /// * **fetch** acts at `fetch_resume` when time-stalled; a
    ///   block-on-branch or zero-progress capacity stall clears only via
    ///   a completion.
    ///
    /// Skipped cycles charge `fetch_stall_cycles` exactly when the
    /// per-cycle fetch stage would have (source pending and fetch blocked
    /// or time-stalled), and the queue occupancy/full counters advance as
    /// if the cycles had ticked (queue lengths cannot change on skipped
    /// cycles).  The jump is capped one cycle past the budget so a
    /// cycle-budget overrun errors on exactly the same cycle as the
    /// per-cycle check.
    fn stall_jump(&mut self) {
        if self.structural_retry
            || matches!(self.win_front(), Some(e) if e.state == EState::Complete)
        {
            return; // issue or commit has work next cycle
        }
        let mut next = self.delay_eligible_at;
        if self.wheel_count > 0 {
            // Advance the lazy lower bound to the first occupied bucket;
            // every wheel event lies within one wheel span of `now`.
            let mut c = self.wheel_next.max(self.now + 1);
            while self.hot.wheel[(c & self.wheel_mask) as usize] == NIL {
                c += 1;
            }
            self.wheel_next = c;
            next = next.min(c);
        }
        if let Some(&Reverse((finish, _))) = self.hot.events.peek() {
            next = next.min(finish);
        }
        let mut charge_stall = false;
        if self.source.cur().is_some() {
            if self.fetch_blocked_by.is_some() {
                charge_stall = true; // cleared by a completion event
            } else if self.now + 1 < self.fetch_resume {
                charge_stall = true;
                next = next.min(self.fetch_resume);
            } else if !self.fetch_parked {
                return; // fetch can act next cycle
            }
        } else if self.next_seq == self.head_seq {
            return; // drained: the run loop is about to exit
        }
        let next = next.min(self.budget.saturating_add(1));
        if next <= self.now + 1 {
            return;
        }
        let delta = next - self.now - 1;
        if charge_stall {
            self.stats.fetch_stall_cycles += delta;
        }
        for q in 0..4 {
            self.stats.queue_occupancy_sum[q] += self.queue_len[q] as u64 * delta;
            if self.queue_len[q] >= self.queue_size[q] {
                self.stats.queue_full_cycles[q] += delta;
            }
        }
        self.now = next - 1;
    }

    fn run(&mut self) -> Result<(SimStats, (u64, u64)), SimError> {
        if self.mark_at == 0 {
            self.mark = Some((0, 0));
        }
        while self.source.cur().is_some() || self.next_seq != self.head_seq {
            self.now += 1;
            self.committed_cycle = 0;
            self.structural_retry = false;
            self.delay_eligible_at = u64::MAX;
            self.fetch_parked = false;
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
            for q in 0..4 {
                self.stats.queue_occupancy_sum[q] += self.queue_len[q] as u64;
                if self.queue_len[q] >= self.queue_size[q] {
                    self.stats.queue_full_cycles[q] += 1;
                }
            }
            if self.now > self.budget {
                return Err(SimError::CycleBudgetExceeded {
                    cycles: self.now,
                    retired: self.stats.committed_total,
                });
            }
            if !O::ENABLED {
                self.stall_jump();
            }
        }
        self.stats.cycles = self.now;
        let mark = self.mark.unwrap_or((self.now, self.stats.committed));
        Ok((std::mem::take(&mut self.stats), mark))
    }
}

/// Run the compiled pipeline over `source` **without** resetting `ctx` or
/// notifying the observer — the building block for both exact runs (one
/// call after `prepare`) and sampled runs (one call per detailed window
/// over continuously warmed state).  The run takes `ctx`'s hot state for
/// its length and hands it back, also when it fails.
fn run_compiled<S: TraceSource, O: SimObserver>(
    ctx: &mut SimContext,
    comp: &CompiledProgram,
    source: S,
    scheme: Scheme,
    cfg: &MachineConfig,
    obs: &mut O,
    mark_at: u64,
) -> Result<(SimStats, (u64, u64)), SimError> {
    let mut hot = ctx.hot.take().expect("hot state is home between runs");
    let lat = latency_table(cfg);
    // Wheel span: the longest possible completion delay (max class latency
    // plus a cache-miss penalty) with headroom, rounded to a power of two.
    // Capped so an adversarial config cannot demand a huge allocation —
    // longer latencies spill to the overflow heap instead.
    let span = lat.iter().copied().max().unwrap_or(1) + cfg.latencies.cache_miss_penalty + 2;
    let wheel_len = span.min(1024).next_power_of_two().max(4) as usize;
    if hot.wheel.len() != wheel_len {
        hot.wheel = vec![NIL; wheel_len];
    }
    let ring_len = cfg.rob_size.next_power_of_two().max(1);
    if hot.ring.len() != ring_len {
        hot.ring.clear();
        hot.ring.resize(ring_len, Slot::VACANT);
    }
    let mut pipe = CompiledPipeline {
        hot,
        uops: &comp.uops,
        budget: BUDGET_PER_ENTRY * source.len() + BUDGET_SLACK,
        source,
        scheme,
        lat,
        fetch_width: cfg.fetch_width,
        commit_width: cfg.commit_width,
        rob_size: cfg.rob_size,
        queue_size: cfg.queue_size,
        fu_count: cfg.fu_count,
        max_inflight_branches: cfg.max_inflight_branches,
        mispredict_recovery: cfg.mispredict_recovery,
        frontend_depth: cfg.frontend_depth,
        cache_miss_penalty: cfg.latencies.cache_miss_penalty,
        now: 0,
        head_seq: 0,
        next_seq: 0,
        queue_len: [0; 4],
        unresolved_branches: 0,
        fetch_resume: 0,
        fetch_blocked_by: None,
        fpdiv_free_at: 0,
        q_head: NIL,
        q_tail: NIL,
        committed_cycle: 0,
        mark_at,
        mark: None,
        stats: SimStats::default(),
        obs,
        structural_retry: false,
        delay_eligible_at: u64::MAX,
        fetch_parked: false,
        ring_mask: ring_len as u64 - 1,
        wheel_mask: wheel_len as u64 - 1,
        wheel_count: 0,
        wheel_next: u64::MAX,
        resume_kind: StallKind::None,
        resume_site: 0,
        block_site: 0,
        block_misp: false,
        capacity_stall: false,
    };
    let res = pipe.run();
    ctx.hot = Some(pipe.hot);
    res
}

/// Exact compiled run over any [`TraceSource`], reusing `ctx` allocations
/// and reporting to `obs`.  Stats are identical to the interpreted
/// engine's over the same source.
fn simulate_compiled_source_observed_in<S: TraceSource, O: SimObserver>(
    ctx: &mut SimContext,
    comp: &CompiledProgram,
    source: S,
    scheme: Scheme,
    cfg: &MachineConfig,
    obs: &mut O,
) -> Result<SimStats, SimError> {
    ctx.prepare(cfg);
    if O::ENABLED {
        obs.on_run_start(comp.uops.len());
    }
    run_compiled(ctx, comp, source, scheme, cfg, obs, u64::MAX).map(|(s, _)| s)
}

/// Exact compiled run over a materialized trace slice, reporting to `obs`
/// (the fuzz oracle's slice leg, and [`simulate_program`]).
pub fn simulate_compiled_trace_observed_in(
    ctx: &mut SimContext,
    comp: &CompiledProgram,
    trace: &[TraceEntry],
    scheme: Scheme,
    cfg: &MachineConfig,
    obs: &mut impl SimObserver,
) -> Result<SimStats, SimError> {
    simulate_compiled_source_observed_in(ctx, comp, SliceSource::new(trace), scheme, cfg, obs)
}

/// Exact compiled run over a [`PackedTrace`] (the harness's path).  Not
/// generic, so the hot loop is instantiated and optimised inside this
/// crate, where its helpers inline; another crate's `&mut ()` instantiation
/// of the observed variant measured ~10% slower.
pub fn simulate_compiled_packed_in(
    ctx: &mut SimContext,
    comp: &CompiledProgram,
    trace: &PackedTrace,
    scheme: Scheme,
    cfg: &MachineConfig,
) -> Result<SimStats, SimError> {
    simulate_compiled_packed_observed_in(ctx, comp, trace, scheme, cfg, &mut ())
}

/// [`simulate_compiled_packed_in`] with an observer.
pub fn simulate_compiled_packed_observed_in(
    ctx: &mut SimContext,
    comp: &CompiledProgram,
    trace: &PackedTrace,
    scheme: Scheme,
    cfg: &MachineConfig,
    obs: &mut impl SimObserver,
) -> Result<SimStats, SimError> {
    simulate_compiled_source_observed_in(ctx, comp, PackedSource::new(trace), scheme, cfg, obs)
}

/// Run `prog` functionally, then simulate its trace on the compiled
/// engine.  Returns the timing statistics together with the functional
/// result (so callers can check semantics and dynamic counts in one shot).
pub fn simulate_program(
    prog: &Program,
    scheme: Scheme,
    cfg: &MachineConfig,
) -> Result<(SimStats, guardspec_interp::ExecResult), Box<dyn std::error::Error>> {
    let (layout, trace, res) = guardspec_interp::trace::trace_program(prog)?;
    let comp = CompiledProgram::build(prog, &layout);
    let mut ctx = SimContext::new(cfg);
    let stats = simulate_compiled_trace_observed_in(&mut ctx, &comp, &trace, scheme, cfg, &mut ())?;
    Ok((stats, res))
}

// ---------------------------------------------------------------------------
// SMARTS-style interval sampling.
// ---------------------------------------------------------------------------

/// Sampling knobs: each interval of `interval` trace entries runs
/// `warmup + detail` entries through the detailed pipeline (the first
/// `warmup` commits excluded from measurement) and fast-forwards the rest
/// with functional warming.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleParams {
    /// Measured (detailed) entries per window.
    pub detail: u64,
    /// Detailed warm-up entries preceding each measured region.
    pub warmup: u64,
    /// Total entries per sampling interval (gap + warmup + detail).
    pub interval: u64,
}

impl Default for SampleParams {
    fn default() -> SampleParams {
        SampleParams {
            detail: 1000,
            warmup: 1000,
            interval: 20_000,
        }
    }
}

impl SampleParams {
    /// Clamp to a consistent shape: at least one detailed entry per
    /// window, and an interval long enough to contain the window.
    pub fn normalized(&self) -> SampleParams {
        let detail = self.detail.max(1);
        let warmup = self.warmup;
        let interval = self.interval.max(detail + warmup);
        SampleParams {
            detail,
            warmup,
            interval,
        }
    }
}

/// Student-t 0.975 quantile (two-sided 95%) by degrees of freedom; the
/// asymptotic normal quantile past 30.
fn t95(df: u64) -> f64 {
    const T: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => 0.0,
        1..=30 => T[(df - 1) as usize],
        _ => 1.96,
    }
}

/// Documented bias allowance added to the statistical CI half-width:
/// functional warming is not cycle-accurate, so the interval is widened by
/// 2% of the mean (SMARTS reports sub-percent bias for comparable
/// warming; 2% is deliberately conservative and keeps the reported width
/// strictly positive).
const CI_BIAS_FRAC: f64 = 0.02;

/// The sampled-run estimate attached to artifacts when `--sample` is on.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleSummary {
    /// Detailed windows that produced an IPC sample (0 ⇒ exact fallback).
    pub windows: u64,
    /// Normalized params the run used.
    pub detail: u64,
    pub warmup: u64,
    pub interval: u64,
    /// Entries measured (committed inside detail regions).
    pub measured_entries: u64,
    /// Total trace entries.
    pub total_entries: u64,
    /// IPC point estimate: the reciprocal of the mean per-window *CPI*
    /// (exact IPC in fallback).  Windows hold a fixed number of trace
    /// entries, so equal-weight CPI averaging is the unbiased SMARTS
    /// estimator; averaging per-window IPC directly would be Jensen-biased
    /// high on phase-heterogeneous programs.
    pub ipc_mean: f64,
    /// 95% CI half-width around `ipc_mean`: the CPI-domain `t·s/√n`
    /// interval mapped through the reciprocal (delta method), plus the
    /// 2%-of-mean bias allowance (`CI_BIAS_FRAC`); 0 in fallback.
    pub ipc_ci95: f64,
    /// Estimated total cycles: exact committed count × mean CPI.
    pub est_cycles: u64,
}

/// A bounded view of the trace cursor: a [`TraceSource`] that ends after
/// `remaining` entries — one detailed window of `total` entries.
struct TakeSource<'a, 'c> {
    cursor: &'c mut PackedSource<'a>,
    remaining: u64,
    total: u64,
}

impl TraceSource for TakeSource<'_, '_> {
    fn cur(&mut self) -> Option<TraceEntry> {
        if self.remaining == 0 {
            None
        } else {
            self.cursor.cur()
        }
    }

    fn advance(&mut self) {
        self.cursor.advance();
        self.remaining -= 1;
    }

    fn len(&self) -> u64 {
        self.total
    }
}

/// Functional warming of one fast-forwarded entry: update the I-/D-cache,
/// BHT and BTB exactly as the detailed fetch stage would (the detailed
/// miss-then-retry-hit I-cache pair is state-equivalent to one probe:
/// both leave the line resident and most-recently used), with no timing.
fn warm_entry(hot: &mut HotState, u: &Uop, te: TraceEntry, annulled: bool, perfect: bool) {
    hot.icache.access(u.pc);
    if u.is_mem && !annulled {
        hot.dcache.access((te.mem_addr().unwrap_or(0) as u64) << 2);
    }
    // Annulled predicated branches make no prediction (dispatch squashes
    // them); perfect schemes consult no predictor state at all.
    if annulled || perfect {
        return;
    }
    match u.kind {
        Some(BranchKind::CondDirect) => {
            let actual = te.taken().unwrap_or(false);
            let pred = hot.bht.predict(u.pc);
            hot.bht.update(u.pc, actual);
            if pred == actual {
                if actual && hot.btb.lookup(u.pc).is_none() {
                    if let Some(t) = u.target_pc {
                        hot.btb.install(u.pc, t);
                    }
                }
            } else if actual {
                if let Some(t) = u.target_pc {
                    hot.btb.install(u.pc, t);
                }
            }
        }
        Some(BranchKind::DirectJump) if hot.btb.lookup(u.pc).is_none() => {
            if let Some(t) = u.target_pc {
                hot.btb.install(u.pc, t);
            }
        }
        // Branch-likelies are statically predicted, calls always bubble,
        // indirects always stall: none consult the BHT or BTB.
        _ => {}
    }
}

/// Field-wise sum of two stat blocks (window aggregation), via the stable
/// `field_list`/`set_field` codec so new counters can never be missed.
fn add_stats(dst: &mut SimStats, src: &SimStats) {
    for ((name, a), (_, b)) in dst.field_list().into_iter().zip(src.field_list()) {
        dst.set_field(&name, a + b);
    }
}

/// SMARTS-style sampled simulation over a [`PackedTrace`].
///
/// Microarchitectural state is prepared **once** and carried across the
/// whole run (warming between windows, detail inside them).  Returns the
/// aggregate stats of the detailed windows plus the [`SampleSummary`]
/// estimate.  Deterministic: no randomness, no dependence on thread
/// count.  Traces too short for two windows fall back to an exact run.
pub fn simulate_sampled_observed_in<O: SimObserver>(
    ctx: &mut SimContext,
    comp: &CompiledProgram,
    trace: &PackedTrace,
    scheme: Scheme,
    cfg: &MachineConfig,
    params: SampleParams,
    obs: &mut O,
) -> Result<(SimStats, SampleSummary), SimError> {
    let p = params.normalized();
    let total = trace.len();
    let span = p.warmup + p.detail;
    let gap = p.interval - span;
    ctx.prepare(cfg);
    if O::ENABLED {
        obs.on_run_start(comp.uops.len());
    }
    // Warming and the detailed windows advance one shared cursor.
    let mut cursor = PackedSource::new(trace);
    let mut agg = SimStats::default();
    let mut samples: Vec<f64> = Vec::new();
    let mut annulled_warm = 0u64;
    let mut measured_entries = 0u64;
    let mut remaining = total;
    let perfect = scheme.is_perfect();
    while remaining > 0 {
        let g = gap.min(remaining);
        let hot = ctx.hot_mut();
        cursor.consume(g, |te| {
            let annulled = te.annulled();
            annulled_warm += annulled as u64;
            warm_entry(hot, &comp.uops[te.id as usize], te, annulled, perfect);
        });
        remaining -= g;
        if remaining == 0 {
            break;
        }
        let d = span.min(remaining);
        let source = TakeSource {
            cursor: &mut cursor,
            remaining: d,
            total: d,
        };
        let mark_at = p.warmup.min(d);
        let (wstats, mark) = run_compiled(ctx, comp, source, scheme, cfg, obs, mark_at)?;
        remaining -= d;
        let dcycles = wstats.cycles - mark.0;
        let dcommitted = wstats.committed - mark.1;
        if d > p.warmup && dcycles > 0 && dcommitted > 0 {
            // Per-window CPI, not IPC: windows span equal entry counts, so
            // the equal-weight CPI mean is the aggregate-ratio estimator.
            samples.push(dcycles as f64 / dcommitted as f64);
            measured_entries += d - p.warmup;
        }
        add_stats(&mut agg, &wstats);
    }
    if samples.len() < 2 {
        // Exact fallback: not enough windows for an interval estimate.
        ctx.prepare(cfg);
        if O::ENABLED {
            obs.on_run_start(comp.uops.len());
        }
        let (stats, _) = run_compiled(
            ctx,
            comp,
            PackedSource::new(trace),
            scheme,
            cfg,
            obs,
            u64::MAX,
        )?;
        let summary = SampleSummary {
            windows: 0,
            detail: p.detail,
            warmup: p.warmup,
            interval: p.interval,
            measured_entries: stats.committed_total,
            total_entries: total,
            ipc_mean: stats.ipc(),
            ipc_ci95: 0.0,
            est_cycles: stats.cycles,
        };
        return Ok((stats, summary));
    }
    let n = samples.len() as f64;
    let cpi_mean = samples.iter().sum::<f64>() / n;
    let var = samples
        .iter()
        .map(|x| (x - cpi_mean) * (x - cpi_mean))
        .sum::<f64>()
        / (n - 1.0);
    let cpi_ci = t95(samples.len() as u64 - 1) * (var / n).sqrt();
    // Report in the IPC domain: reciprocal point estimate, CI half-width
    // mapped by the delta method (d(1/x) = -dx/x²), then the bias allowance.
    let mean = 1.0 / cpi_mean;
    let ci = cpi_ci / (cpi_mean * cpi_mean) + CI_BIAS_FRAC * mean;
    let committed_exact = total - annulled_warm - agg.annulled;
    let est_cycles = (committed_exact as f64 * cpi_mean).round() as u64;
    let summary = SampleSummary {
        windows: samples.len() as u64,
        detail: p.detail,
        warmup: p.warmup,
        interval: p.interval,
        measured_entries,
        total_entries: total,
        ipc_mean: mean,
        ipc_ci95: ci,
        est_cycles,
    };
    Ok((agg, summary))
}

/// [`simulate_sampled_observed_in`] without an observer.
pub fn simulate_sampled_in(
    ctx: &mut SimContext,
    comp: &CompiledProgram,
    trace: &PackedTrace,
    scheme: Scheme,
    cfg: &MachineConfig,
    params: SampleParams,
) -> Result<(SimStats, SampleSummary), SimError> {
    simulate_sampled_observed_in(ctx, comp, trace, scheme, cfg, params, &mut ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::CycleAccounting;
    use crate::reference::{prepare_program, simulate};
    use guardspec_interp::trace::trace_program;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::{p, r};
    use guardspec_ir::SetCond;

    fn count_loop(n: i64) -> Program {
        let mut fb = FuncBuilder::new("loop");
        fb.block("e");
        fb.li(r(1), n);
        fb.block("body");
        fb.subi(r(1), r(1), 1);
        fb.bgtz(r(1), "body");
        fb.block("done");
        fb.halt();
        single_func_program(fb)
    }

    fn mixed_prog() -> Program {
        // Loads/stores, guards with annulment, an alternating branch, and
        // a likely branch pattern via cross-block control flow.
        let mut fb = FuncBuilder::new("mix");
        fb.block("e");
        fb.li(r(1), 0);
        fb.li(r(5), 120);
        fb.block("loop");
        fb.andi(r(2), r(1), 1);
        fb.setpi(SetCond::Gt, p(1), r(2), 0);
        fb.cmov(r(3), r(1), p(1), true);
        fb.sw(r(3), r(0), 7);
        fb.lw(r(4), r(0), 7);
        fb.beq(r(2), r(0), "skip");
        fb.block("odd");
        fb.addi(r(3), r(3), 1);
        fb.block("skip");
        fb.addi(r(1), r(1), 1);
        fb.bne(r(1), r(5), "loop");
        fb.block("done");
        fb.halt();
        single_func_program(fb)
    }

    /// The compiled engine, on a reused context and through
    /// [`simulate_program`], matches the reference engine on `prog`.
    fn assert_engines_identical(prog: &Program) {
        let (layout, trace, _res) = trace_program(prog).expect("runs");
        let cfg = MachineConfig::r10000();
        let comp = CompiledProgram::build(prog, &layout);
        let prep = prepare_program(prog);
        let mut ctx = SimContext::new(&cfg);
        for scheme in Scheme::ALL {
            let source = SliceSource::new(&trace);
            let interp = simulate(&mut ctx, &prep, source, scheme, &cfg, &mut ()).expect("interp");
            let compiled =
                simulate_compiled_trace_observed_in(&mut ctx, &comp, &trace, scheme, &cfg, &mut ())
                    .expect("compiled");
            assert_eq!(interp, compiled, "scheme {scheme:?}: stats diverge");
            let (one_shot, _) = simulate_program(prog, scheme, &cfg).expect("simulate_program");
            assert_eq!(
                interp, one_shot,
                "scheme {scheme:?}: simulate_program diverges"
            );

            let mut ai = CycleAccounting::new();
            let mut ac = CycleAccounting::new();
            let source = SliceSource::new(&trace);
            let si = simulate(&mut ctx, &prep, source, scheme, &cfg, &mut ai).unwrap();
            let sc =
                simulate_compiled_trace_observed_in(&mut ctx, &comp, &trace, scheme, &cfg, &mut ac)
                    .unwrap();
            assert_eq!(si, sc, "scheme {scheme:?}: observed stats diverge");
            assert_eq!(ai, ac, "scheme {scheme:?}: cycle accounting diverges");
            ac.check(&sc);
        }
    }

    #[test]
    fn compiled_matches_interpreted_on_loop() {
        assert_engines_identical(&count_loop(500));
    }

    #[test]
    fn compiled_matches_interpreted_on_mixed_program() {
        assert_engines_identical(&mixed_prog());
    }

    /// The packed form of `prog`'s trace.
    fn packed(prog: &Program) -> PackedTrace {
        let (layout, trace, _res) = trace_program(prog).expect("runs");
        guardspec_interp::tracefile::pack(&layout, &trace, 0)
    }

    fn compiled(prog: &Program) -> CompiledProgram {
        CompiledProgram::build(prog, &StaticLayout::build(prog))
    }

    fn exact_packed(ctx: &mut SimContext, comp: &CompiledProgram, t: &PackedTrace) -> SimStats {
        let cfg = MachineConfig::r10000();
        simulate_compiled_packed_in(ctx, comp, t, Scheme::TwoBit, &cfg).unwrap()
    }

    #[test]
    fn compiled_packed_matches_slice() {
        let prog = mixed_prog();
        let (layout, trace, _res) = trace_program(&prog).expect("runs");
        let cfg = MachineConfig::r10000();
        let comp = CompiledProgram::build(&prog, &layout);
        let mut ctx = SimContext::new(&cfg);
        let a = simulate_compiled_trace_observed_in(
            &mut ctx,
            &comp,
            &trace,
            Scheme::TwoBit,
            &cfg,
            &mut (),
        )
        .unwrap();
        assert_eq!(a, exact_packed(&mut ctx, &comp, &packed(&prog)));
    }

    #[test]
    fn sampled_ci_covers_exact_ipc_on_loop() {
        let prog = count_loop(4000);
        let shared = packed(&prog);
        let cfg = MachineConfig::r10000();
        let comp = compiled(&prog);
        let mut ctx = SimContext::new(&cfg);
        let exact = exact_packed(&mut ctx, &comp, &shared);
        let params = SampleParams {
            detail: 64,
            warmup: 32,
            interval: 512,
        };
        let (_stats, summary) =
            simulate_sampled_in(&mut ctx, &comp, &shared, Scheme::TwoBit, &cfg, params).unwrap();
        assert!(summary.windows >= 2, "windows {}", summary.windows);
        assert!(summary.ipc_ci95 > 0.0);
        assert!(
            (summary.ipc_mean - exact.ipc()).abs() <= summary.ipc_ci95,
            "exact {} not in {} ± {}",
            exact.ipc(),
            summary.ipc_mean,
            summary.ipc_ci95
        );
        assert!(summary.est_cycles > 0);
    }

    #[test]
    fn sampled_run_is_deterministic() {
        let prog = mixed_prog();
        let shared = packed(&prog);
        let cfg = MachineConfig::r10000();
        let comp = compiled(&prog);
        let params = SampleParams {
            detail: 32,
            warmup: 16,
            interval: 128,
        };
        let mut ctx = SimContext::new(&cfg);
        let (s1, sum1) =
            simulate_sampled_in(&mut ctx, &comp, &shared, Scheme::TwoBit, &cfg, params).unwrap();
        let (s2, sum2) =
            simulate_sampled_in(&mut ctx, &comp, &shared, Scheme::TwoBit, &cfg, params).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(sum1, sum2);
    }

    #[test]
    fn short_trace_falls_back_to_exact() {
        let prog = count_loop(10);
        let shared = packed(&prog);
        let cfg = MachineConfig::r10000();
        let comp = compiled(&prog);
        let mut ctx = SimContext::new(&cfg);
        let exact = exact_packed(&mut ctx, &comp, &shared);
        let (stats, summary) = simulate_sampled_in(
            &mut ctx,
            &comp,
            &shared,
            Scheme::TwoBit,
            &cfg,
            SampleParams::default(),
        )
        .unwrap();
        assert_eq!(stats, exact);
        assert_eq!(summary.windows, 0);
        assert_eq!(summary.ipc_ci95, 0.0);
        assert_eq!(summary.est_cycles, exact.cycles);
    }

    #[test]
    fn sampled_observed_accounting_is_consistent() {
        let prog = mixed_prog();
        let shared = packed(&prog);
        let cfg = MachineConfig::r10000();
        let comp = compiled(&prog);
        let mut ctx = SimContext::new(&cfg);
        let mut acct = CycleAccounting::new();
        let params = SampleParams {
            detail: 32,
            warmup: 16,
            interval: 128,
        };
        let (stats, _summary) = simulate_sampled_observed_in(
            &mut ctx,
            &comp,
            &shared,
            Scheme::TwoBit,
            &cfg,
            params,
            &mut acct,
        )
        .unwrap();
        acct.check(&stats);
    }
}
