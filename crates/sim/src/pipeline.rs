//! The out-of-order pipeline: fetch → dispatch → issue → execute → commit.

use crate::block::{Slot, NIL};
use crate::cache::Cache;
use crate::config::{class_idx, MachineConfig, QueueKind};
use crate::observe::{CycleBucket, SimObserver};
use crate::stats::SimStats;
use guardspec_interp::{PackedIter, PackedTrace, StaticLayout, TraceEntry};
use guardspec_ir::{FuClass, Opcode, Program, Reg};
use guardspec_predict::{BranchKind, Btb, Scheme, TwoBitTable};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Maximum source operands per instruction (two register operands plus the
/// guard predicate), so dependence lists fit inline without heap traffic.
pub(crate) const MAX_SRCS: usize = 3;

/// Simulation failure (indicates a model bug or absurd input, not a
/// program error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The pipeline failed to drain within the cycle budget.
    CycleBudgetExceeded { cycles: u64, retired: u64 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleBudgetExceeded { cycles, retired } => {
                write!(
                    f,
                    "pipeline did not drain: {cycles} cycles, {retired} committed"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

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

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum EState {
    InQueue,
    Executing,
    Complete,
}

/// One in-flight instruction of the interpreted engine's window.  The
/// compiled engine keeps its own, smaller [`crate::block::Slot`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub(crate) seq: u64,
    pub(crate) id: u32,
    pub(crate) class: FuClass,
    pub(crate) queue: QueueKind,
    pub(crate) state: EState,
    pub(crate) disp_cycle: u64,
    pub(crate) finish: u64,
    /// Seqs of producing instructions (ready when committed or Complete),
    /// deduplicated at dispatch; inline since an op has at most
    /// [`MAX_SRCS`] sources.
    pub(crate) deps: [u64; MAX_SRCS],
    pub(crate) ndeps: u8,
    pub(crate) mem_addr: Option<u32>,
    /// This entry has fetch stalled until it resolves.
    pub(crate) blocks_fetch: bool,
    /// Conditional branch (counts against the shadow-map limit).
    pub(crate) is_cond: bool,
    pub(crate) annulled: bool,
    /// Missed the D-cache at issue (observer bookkeeping; only written
    /// when an observer is enabled).
    pub(crate) dmiss: bool,
}

impl Entry {
    pub(crate) fn deps(&self) -> &[u64] {
        &self.deps[..self.ndeps as usize]
    }
}

/// One cycle's activity snapshot, for pipeline visualization.
#[derive(Clone, Copy, Debug, Default)]
pub struct CycleRecord {
    pub cycle: u64,
    /// Instructions fetched+dispatched this cycle.
    pub fetched: u8,
    /// Issues per functional-unit class (dense `FuClass` index).
    pub issued: [u8; 8],
    /// Instructions committed this cycle.
    pub committed: u8,
    /// Reservation-station occupancy at end of cycle (QueueKind index).
    pub queue_len: [u8; 4],
    /// Fetch was stalled this cycle (mispredict/indirect/bubble).
    pub fetch_stalled: bool,
}

/// A bounded per-cycle activity log.
#[derive(Clone, Debug, Default)]
pub struct CycleLog {
    pub records: Vec<CycleRecord>,
    pub limit: usize,
}

impl CycleLog {
    pub fn new(limit: usize) -> CycleLog {
        CycleLog {
            records: Vec::with_capacity(limit.min(1 << 16)),
            limit,
        }
    }

    fn push(&mut self, r: CycleRecord) {
        if self.records.len() < self.limit {
            self.records.push(r);
        }
    }
}

/// Where the pipeline's retired-instruction stream comes from: a packed
/// trace, an unpacked slice, or one sampling window of a packed trace.
///
/// The read head is persistent: `cur()` returns the same entry until
/// `advance()` consumes it (fetch may stall on an entry for many cycles).
pub trait TraceSource {
    /// Entry at the read head, or `None` once the trace is exhausted.
    fn cur(&mut self) -> Option<TraceEntry>;

    /// Consume the entry at the read head.
    fn advance(&mut self);

    /// Entries the source yields from its start.  An engine reads it once,
    /// before the first `cur()`, to set its cycle budget: 64 cycles per
    /// entry plus fixed slack.
    fn len(&self) -> u64;

    /// Whether the source yields no entries at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

pub(crate) const BUDGET_SLACK: u64 = 100_000;
pub(crate) const BUDGET_PER_ENTRY: u64 = 64;

/// A fully materialized trace.
pub struct SliceSource<'a> {
    trace: &'a [TraceEntry],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    pub fn new(trace: &'a [TraceEntry]) -> SliceSource<'a> {
        SliceSource { trace, pos: 0 }
    }
}

impl TraceSource for SliceSource<'_> {
    fn cur(&mut self) -> Option<TraceEntry> {
        self.trace.get(self.pos).copied()
    }

    fn advance(&mut self) {
        self.pos += 1;
    }

    fn len(&self) -> u64 {
        self.trace.len() as u64
    }
}

/// A per-consumer decoding cursor over a [`PackedTrace`] — the one source
/// both engines read in the harness.
///
/// Many simulator instances can hold a `PackedSource` over the same trace
/// concurrently: each decodes its own position and the bytes are shared,
/// never copied.  The entry at the read head is decoded once, on
/// `advance()`, so the hot `cur()` path (called several times per
/// simulated cycle) is a plain copy.  Both calls are forced inline, with
/// the decoder behind them: left to the inliner inside the engines' large
/// loops they stayed out of line and cost ~10 ns/entry instead of ~2.
/// (Decoding in batches into a small buffer measured no faster.)
pub struct PackedSource<'a> {
    entries: PackedIter<'a>,
    head: Option<TraceEntry>,
    total: u64,
}

impl<'a> PackedSource<'a> {
    pub fn new(trace: &'a PackedTrace) -> PackedSource<'a> {
        let mut entries = trace.iter();
        PackedSource {
            head: entries.next(),
            entries,
            total: trace.len(),
        }
    }

    /// Consume the next `n` entries, read head first, passing each to `f`
    /// in one tight decoding loop — the bulk path of sampling's functional
    /// warming.  Panics if fewer than `n` entries remain.
    pub(crate) fn consume(&mut self, n: u64, mut f: impl FnMut(TraceEntry)) {
        if n == 0 {
            return;
        }
        f(self.head.expect("trace shorter than its length"));
        for _ in 1..n {
            f(self.entries.next().expect("trace shorter than its length"));
        }
        self.head = self.entries.next();
    }
}

impl TraceSource for PackedSource<'_> {
    #[inline(always)]
    fn cur(&mut self) -> Option<TraceEntry> {
        self.head
    }

    #[inline(always)]
    fn advance(&mut self) {
        self.head = self.entries.next();
    }

    fn len(&self) -> u64 {
        self.total
    }
}

/// The state a simulation touches every cycle: prediction structures,
/// cache models, the register-writer scoreboard, and the compiled engine's
/// window ring and completion wheel.  A compiled run moves it out of its
/// [`SimContext`] for the length of the run (and of each sampling window),
/// so the stages reach it straight from the pipeline, and hands it back
/// at the end; both moves copy the struct and allocate nothing.
pub(crate) struct HotState {
    pub(crate) bht: TwoBitTable,
    pub(crate) btb: Btb,
    pub(crate) icache: Cache,
    pub(crate) dcache: Cache,
    /// Last dispatched writer (seq) per dense register index.
    pub(crate) reg_writer: Vec<Option<u64>>,
    /// The compiled engine's re-order window: a power-of-two ring indexed
    /// by `seq & (len-1)` (live seqs span `[head_seq, next_seq)`, at most
    /// `rob_size` wide).  Slots are rewritten by dispatch before any read,
    /// so stale contents never need clearing.  The interpreted path keeps
    /// using [`SimContext::window`].
    pub(crate) ring: Vec<Slot>,
    /// Completion timing wheel: `wheel[cycle & mask]` heads the list of
    /// ring slots whose executions finish at `cycle`, threaded through
    /// [`Slot::wnext`] ([`NIL`] = empty bucket).  Sized by the compiled
    /// engine to cover every latency the config can produce; unused (and
    /// empty) on the interpreted path.
    pub(crate) wheel: Vec<u32>,
    /// Overflow for completion events whose latency exceeds the wheel span
    /// (possible only under extreme custom configs) — `(finish, slot)`
    /// min-heap, normally empty.
    pub(crate) events: BinaryHeap<Reverse<(u64, u32)>>,
}

impl HotState {
    fn new(cfg: &MachineConfig) -> HotState {
        HotState {
            bht: TwoBitTable::new(cfg.bht_entries),
            btb: Btb::new(cfg.btb_sets),
            icache: Cache::new(cfg.icache.0, cfg.icache.1, cfg.icache.2),
            dcache: Cache::new(cfg.dcache.0, cfg.dcache.1, cfg.dcache.2),
            reg_writer: vec![None; Reg::DENSE_COUNT],
            ring: Vec::new(),
            wheel: Vec::new(),
            events: BinaryHeap::new(),
        }
    }

    /// Reset to the architectural initial state for `cfg`, reallocating
    /// only the structures whose geometry changed.
    fn prepare(&mut self, cfg: &MachineConfig) {
        if self.bht.entries() == cfg.bht_entries {
            self.bht.reset();
        } else {
            self.bht = TwoBitTable::new(cfg.bht_entries);
        }
        if self.btb.sets() == cfg.btb_sets {
            self.btb.reset();
        } else {
            self.btb = Btb::new(cfg.btb_sets);
        }
        if self
            .icache
            .has_shape(cfg.icache.0, cfg.icache.1, cfg.icache.2)
        {
            self.icache.reset();
        } else {
            self.icache = Cache::new(cfg.icache.0, cfg.icache.1, cfg.icache.2);
        }
        if self
            .dcache
            .has_shape(cfg.dcache.0, cfg.dcache.1, cfg.dcache.2)
        {
            self.dcache.reset();
        } else {
            self.dcache = Cache::new(cfg.dcache.0, cfg.dcache.1, cfg.dcache.2);
        }
        self.reg_writer.fill(None);
        self.wheel.fill(NIL);
        self.events.clear();
    }
}

/// Reusable simulator state whose allocations survive across simulations.
/// Passing one context to many [`simulate_packed_in`] calls skips per-run
/// construction; every run still starts from the architectural reset state.
pub struct SimContext {
    /// `None` only while a compiled run owns it, or after a run unwound
    /// mid-way (the next `prepare` rebuilds it).
    pub(crate) hot: Option<HotState>,
    /// The interpreted engine's in-order window.
    pub(crate) window: VecDeque<Entry>,
}

impl SimContext {
    pub fn new(cfg: &MachineConfig) -> SimContext {
        SimContext {
            hot: Some(HotState::new(cfg)),
            window: VecDeque::with_capacity(cfg.rob_size),
        }
    }

    /// Reset to the architectural initial state for `cfg`, reallocating
    /// only the structures whose geometry changed.
    pub(crate) fn prepare(&mut self, cfg: &MachineConfig) {
        match &mut self.hot {
            Some(hot) => hot.prepare(cfg),
            None => self.hot = Some(HotState::new(cfg)),
        }
        self.window.clear();
    }

    /// The hot state, which is home between runs.
    pub(crate) fn hot_mut(&mut self) -> &mut HotState {
        self.hot.as_mut().expect("hot state is home between runs")
    }
}

impl Default for SimContext {
    fn default() -> SimContext {
        SimContext::new(&MachineConfig::r10000())
    }
}

/// Why `fetch_resume` was last set (observer bookkeeping; only
/// maintained when an observer is enabled, and only read while
/// `now < fetch_resume`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallKind {
    None,
    /// Post-resolution recovery bubble of a blocking branch.
    Recovery,
    /// I-cache miss refill.
    Icache,
    /// Decode redirect (BTB miss or call bubble).
    Redirect,
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
    window: &'a mut VecDeque<Entry>,
    stats: SimStats,
    log: Option<CycleLog>,
    cycle_rec: CycleRecord,

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
                    self.cycle_rec.committed = self.cycle_rec.committed.saturating_add(1);
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
                self.cycle_rec.issued[ci] = self.cycle_rec.issued[ci].saturating_add(1);
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
            self.cycle_rec.fetch_stalled = true;
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
            self.cycle_rec.fetched = self.cycle_rec.fetched.saturating_add(1);
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
    /// residual category.  Runs after `fetch_stage` and before
    /// `sample_stage` (which resets `cycle_rec`).
    fn classify_cycle(&mut self) {
        let (bucket, site) = if self.cycle_rec.committed > 0 {
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
        if let Some(log) = &mut self.log {
            let mut rec = std::mem::take(&mut self.cycle_rec);
            rec.cycle = self.now;
            for q in 0..4 {
                rec.queue_len[q] = self.queue_len[q].min(255) as u8;
            }
            log.push(rec);
        } else {
            self.cycle_rec = CycleRecord::default();
        }
    }

    fn run_logged(mut self) -> Result<(SimStats, Option<CycleLog>), SimError> {
        while self.source.cur().is_some() || !self.window.is_empty() {
            self.now += 1;
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
        Ok((self.stats, self.log))
    }
}

/// Run one simulation over `source` using the reusable state in `ctx`,
/// reporting cycle attribution and branch events to `obs` (pass `&mut ()`
/// for the zero-overhead disabled observer).
#[allow(clippy::too_many_arguments)]
fn simulate_source<S: TraceSource, O: SimObserver>(
    ctx: &mut SimContext,
    infos: &[SiteInfo],
    layout: &StaticLayout,
    source: S,
    scheme: Scheme,
    cfg: &MachineConfig,
    log_cycles: usize,
    obs: &mut O,
) -> Result<(SimStats, Option<CycleLog>), SimError> {
    ctx.prepare(cfg);
    if O::ENABLED {
        obs.on_run_start(infos.len());
    }
    let SimContext { hot, window } = ctx;
    let pipe = Pipeline {
        cfg,
        infos,
        layout,
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
        hot: hot.as_mut().expect("prepare restores the hot state"),
        window,
        stats: SimStats::default(),
        log: (log_cycles > 0).then(|| CycleLog::new(log_cycles)),
        cycle_rec: CycleRecord::default(),
        obs,
        resume_kind: StallKind::None,
        resume_site: 0,
        block_site: 0,
        block_misp: false,
        capacity_stall: false,
    };
    pipe.run_logged()
}

/// Simulate a pre-recorded trace under `scheme` on `cfg`.
pub fn simulate_trace(
    prog: &Program,
    layout: &StaticLayout,
    trace: &[TraceEntry],
    scheme: Scheme,
    cfg: &MachineConfig,
) -> Result<SimStats, SimError> {
    simulate_trace_logged(prog, layout, trace, scheme, cfg, 0).map(|(s, _)| s)
}

/// Like [`simulate_trace`], but reporting cycle attribution and per-site
/// branch events to `obs`.  The returned stats are identical to the
/// unobserved run's.
pub fn simulate_trace_observed(
    prog: &Program,
    layout: &StaticLayout,
    trace: &[TraceEntry],
    scheme: Scheme,
    cfg: &MachineConfig,
    obs: &mut impl SimObserver,
) -> Result<SimStats, SimError> {
    let infos = build_site_infos(prog, layout);
    let mut ctx = SimContext::new(cfg);
    simulate_source(
        &mut ctx,
        &infos,
        layout,
        SliceSource::new(trace),
        scheme,
        cfg,
        0,
        obs,
    )
    .map(|(s, _)| s)
}

/// Like [`simulate_trace`], but also records a per-cycle activity log of up
/// to `log_cycles` cycles (0 disables logging).
pub fn simulate_trace_logged(
    prog: &Program,
    layout: &StaticLayout,
    trace: &[TraceEntry],
    scheme: Scheme,
    cfg: &MachineConfig,
    log_cycles: usize,
) -> Result<(SimStats, Option<CycleLog>), SimError> {
    let infos = build_site_infos(prog, layout);
    let mut ctx = SimContext::new(cfg);
    simulate_source(
        &mut ctx,
        &infos,
        layout,
        SliceSource::new(trace),
        scheme,
        cfg,
        log_cycles,
        &mut (),
    )
}

/// Static per-program simulation inputs (layout + site table), computed
/// once and shared by every cell simulating the same program.  Rebuilding
/// these per cell is cheap next to interpretation, but sharing them keeps
/// each cell's simulation allocation-light and makes the dependency
/// explicit.
pub struct PreparedSim {
    layout: StaticLayout,
    infos: Vec<SiteInfo>,
}

impl PreparedSim {
    pub fn layout(&self) -> &StaticLayout {
        &self.layout
    }
}

/// Precompute the static tables [`simulate_packed_in`] needs for `prog`.
pub fn prepare_program(prog: &Program) -> PreparedSim {
    let layout = StaticLayout::build(prog);
    let infos = build_site_infos(prog, &layout);
    PreparedSim { layout, infos }
}

/// Simulate a [`PackedTrace`] under `scheme` on `cfg`, reusing `ctx`
/// allocations.  Safe to call concurrently from many threads over the same
/// `prep`/`trace` (each call only reads them); produces stats identical to
/// [`simulate_trace`] over the unpacked trace.
pub fn simulate_packed_in(
    ctx: &mut SimContext,
    prep: &PreparedSim,
    trace: &PackedTrace,
    scheme: Scheme,
    cfg: &MachineConfig,
) -> Result<SimStats, SimError> {
    simulate_packed_observed_in(ctx, prep, trace, scheme, cfg, &mut ())
}

/// Like [`simulate_packed_in`], but reporting cycle attribution and
/// per-site branch events to `obs`.
pub fn simulate_packed_observed_in(
    ctx: &mut SimContext,
    prep: &PreparedSim,
    trace: &PackedTrace,
    scheme: Scheme,
    cfg: &MachineConfig,
    obs: &mut impl SimObserver,
) -> Result<SimStats, SimError> {
    simulate_source(
        ctx,
        &prep.infos,
        &prep.layout,
        PackedSource::new(trace),
        scheme,
        cfg,
        0,
        obs,
    )
    .map(|(s, _)| s)
}

/// Run `prog` functionally, then simulate its trace.  Returns the timing
/// statistics together with the functional result (so callers can check
/// semantics and dynamic counts in one shot).
pub fn simulate_program(
    prog: &Program,
    scheme: Scheme,
    cfg: &MachineConfig,
) -> Result<(SimStats, guardspec_interp::ExecResult), Box<dyn std::error::Error>> {
    let (layout, trace, res) = guardspec_interp::trace::trace_program(prog)?;
    let stats = simulate_trace(prog, &layout, &trace, scheme, cfg)?;
    Ok((stats, res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::r;

    pub(super) fn count_loop(n: i64) -> Program {
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

    #[test]
    fn pipeline_drains_and_counts_commits() {
        let prog = count_loop(100);
        let cfg = MachineConfig::r10000();
        let (stats, res) = simulate_program(&prog, Scheme::TwoBit, &cfg).expect("sim");
        assert_eq!(stats.committed_total, res.summary.retired);
        assert_eq!(stats.committed, res.summary.retired); // nothing annulled
        assert!(stats.cycles > 0);
        assert!(stats.ipc() > 0.0 && stats.ipc() <= 4.0);
    }

    #[test]
    fn perfect_is_at_least_as_fast_as_twobit() {
        let prog = count_loop(500);
        let cfg = MachineConfig::r10000();
        let (two, _) = simulate_program(&prog, Scheme::TwoBit, &cfg).expect("sim");
        let (perf, _) = simulate_program(&prog, Scheme::Perfect, &cfg).expect("sim");
        assert!(
            perf.cycles <= two.cycles,
            "perfect {} > twobit {}",
            perf.cycles,
            two.cycles
        );
        assert_eq!(perf.mispredicts, 0);
    }

    #[test]
    fn biased_loop_branch_predicts_well_after_warmup() {
        let prog = count_loop(1000);
        let cfg = MachineConfig::r10000();
        let (stats, _) = simulate_program(&prog, Scheme::TwoBit, &cfg).expect("sim");
        // Loop-closing branch: taken 999 times, not taken once.
        assert!(
            stats.branch_accuracy() > 0.99,
            "accuracy {}",
            stats.branch_accuracy()
        );
    }

    #[test]
    fn alternating_branch_mispredicts_under_twobit_not_perfect() {
        // if (i & 1) x++ inside a loop: the inner branch alternates TFTF.
        let mut fb = FuncBuilder::new("alt");
        fb.block("e");
        fb.li(r(1), 0);
        fb.li(r(5), 200);
        fb.block("loop");
        fb.andi(r(2), r(1), 1);
        fb.beq(r(2), r(0), "skip");
        fb.block("odd");
        fb.addi(r(3), r(3), 1);
        fb.block("skip");
        fb.addi(r(1), r(1), 1);
        fb.bne(r(1), r(5), "loop");
        fb.block("done");
        fb.halt();
        let prog = single_func_program(fb);
        let cfg = MachineConfig::r10000();
        let (two, _) = simulate_program(&prog, Scheme::TwoBit, &cfg).expect("sim");
        let (perf, _) = simulate_program(&prog, Scheme::Perfect, &cfg).expect("sim");
        assert!(two.mispredicts > 50, "mispredicts {}", two.mispredicts);
        assert_eq!(perf.mispredicts, 0);
        assert!(perf.ipc() > two.ipc());
    }

    #[test]
    fn annulled_instructions_excluded_from_ipc() {
        use guardspec_ir::reg::p;
        use guardspec_ir::SetCond;
        let mut fb = FuncBuilder::new("g");
        fb.block("e");
        fb.li(r(1), 100);
        fb.block("loop");
        fb.setpi(SetCond::Gt, p(1), r(1), 50);
        fb.cmov(r(2), r(1), p(1), true); // annulled half the time
        fb.subi(r(1), r(1), 1);
        fb.bgtz(r(1), "loop");
        fb.block("done");
        fb.halt();
        let prog = single_func_program(fb);
        let cfg = MachineConfig::r10000();
        let (stats, res) = simulate_program(&prog, Scheme::TwoBit, &cfg).expect("sim");
        assert_eq!(stats.annulled, res.summary.annulled);
        assert_eq!(stats.committed + stats.annulled, stats.committed_total);
        assert!(stats.annulled == 50, "annulled {}", stats.annulled);
    }

    #[test]
    fn indirect_jump_stalls_fetch_under_twobit() {
        let mut fb = FuncBuilder::new("ind");
        fb.block("e");
        fb.li(r(1), 0);
        fb.li(r(5), 100);
        fb.block("loop");
        fb.andi(r(2), r(1), 1);
        fb.jtab(r(2), &["c0", "c1"]);
        fb.block("c0");
        fb.addi(r(3), r(3), 1);
        fb.jump("next");
        fb.block("c1");
        fb.addi(r(3), r(3), 2);
        fb.block("next");
        fb.addi(r(1), r(1), 1);
        fb.bne(r(1), r(5), "loop");
        fb.block("done");
        fb.halt();
        let prog = single_func_program(fb);
        let cfg = MachineConfig::r10000();
        let (two, _) = simulate_program(&prog, Scheme::TwoBit, &cfg).expect("sim");
        let (perf, _) = simulate_program(&prog, Scheme::Perfect, &cfg).expect("sim");
        assert_eq!(two.indirect_stalls, 100);
        assert_eq!(perf.indirect_stalls, 0);
        assert!(perf.cycles < two.cycles);
    }

    #[test]
    fn dependent_chain_bounded_by_latency() {
        // Loop a 24-instruction body 40 times so the I-cache is warm.
        // Serial body: every add depends on the previous -> >= 1 cycle/add.
        // Parallel body: independent adds -> bounded by the 2 ALUs.
        let build = |serial: bool| {
            let mut fb = FuncBuilder::new("k");
            fb.block("e");
            fb.li(r(9), 40);
            fb.block("loop");
            for i in 0..24u8 {
                if serial {
                    fb.addi(r(1), r(1), 1);
                } else {
                    fb.addi(r(1 + (i % 8)), r(20 + (i % 8)), 1);
                }
            }
            fb.subi(r(9), r(9), 1);
            fb.bgtz(r(9), "loop");
            fb.block("done");
            fb.halt();
            single_func_program(fb)
        };
        let cfg = MachineConfig::r10000();
        let (serial, _) = simulate_program(&build(true), Scheme::Perfect, &cfg).expect("sim");
        let (par, _) = simulate_program(&build(false), Scheme::Perfect, &cfg).expect("sim");
        assert!(serial.cycles >= 40 * 24, "serial {}", serial.cycles);
        assert!(
            par.cycles * 3 < serial.cycles * 2,
            "parallel {} serial {}",
            par.cycles,
            serial.cycles
        );
    }

    #[test]
    fn dcache_misses_slow_strided_loads() {
        // Stride of 16 words = 64 bytes: every load a fresh line.
        let mk = |stride: i64| {
            let mut fb = FuncBuilder::new("ld");
            fb.block("e");
            fb.li(r(1), 0);
            fb.li(r(5), 256);
            fb.block("loop");
            fb.lw(r(2), r(1), 0);
            fb.add(r(3), r(3), r(2));
            fb.addi(r(1), r(1), stride);
            fb.slt(r(4), r(1), r(5));
            fb.bne(r(4), r(0), "loop");
            fb.block("done");
            fb.halt();
            let mut p = single_func_program(fb);
            p.mem_words = 1 << 12;
            p
        };
        let cfg = MachineConfig::r10000();
        let (unit, _) = simulate_program(&mk(1), Scheme::Perfect, &cfg).expect("sim");
        let (strided, _) = simulate_program(&mk(16), Scheme::Perfect, &cfg).expect("sim");
        // The strided run touches fewer words but should still suffer many
        // more misses per load.
        let unit_mr = unit.dcache_misses as f64 / (unit.dcache_misses + unit.dcache_hits) as f64;
        let str_mr =
            strided.dcache_misses as f64 / (strided.dcache_misses + strided.dcache_hits) as f64;
        assert!(str_mr > 0.9, "strided miss rate {str_mr}");
        assert!(unit_mr < 0.2, "unit miss rate {unit_mr}");
    }

    #[test]
    fn rs_occupancy_sampled() {
        let prog = count_loop(200);
        let cfg = MachineConfig::r10000();
        let (stats, _) = simulate_program(&prog, Scheme::Perfect, &cfg).expect("sim");
        // Something must have flowed through the integer queue.
        assert!(stats.queue_occupancy_sum[QueueKind::Integer.index()] > 0);
        assert!(stats.rs_full_pct(QueueKind::Integer) <= 100.0);
    }

    #[test]
    fn packed_trace_stats_match_slice_for_every_scheme() {
        let prog = count_loop(1000);
        let cfg = MachineConfig::r10000();
        let (layout, flat, _) = guardspec_interp::trace::trace_program(&prog).expect("trace");
        let packed = guardspec_interp::tracefile::pack(&layout, &flat, 0);
        let prep = prepare_program(&prog);
        let mut ctx = SimContext::new(&cfg);
        for scheme in [Scheme::TwoBit, Scheme::Proposed, Scheme::Perfect] {
            let slice = simulate_trace(&prog, &layout, &flat, scheme, &cfg).expect("slice");
            let from_packed =
                simulate_packed_in(&mut ctx, &prep, &packed, scheme, &cfg).expect("packed");
            assert_eq!(slice, from_packed, "stats diverge under {scheme:?}");
        }
    }

    #[test]
    fn reused_context_matches_fresh_state() {
        // One SimContext reused across programs and schemes must reproduce
        // the fresh-construction results exactly (reset leaves no residue).
        let progs = [count_loop(300), count_loop(1000)];
        let cfg = MachineConfig::r10000();
        let mut ctx = SimContext::new(&cfg);
        for _round in 0..2 {
            for prog in &progs {
                let (layout, trace, _) =
                    guardspec_interp::trace::trace_program(prog).expect("trace");
                let packed = guardspec_interp::tracefile::pack(&layout, &trace, 0);
                let prep = prepare_program(prog);
                for scheme in [Scheme::TwoBit, Scheme::Perfect] {
                    let fresh = simulate_trace(prog, &layout, &trace, scheme, &cfg).expect("sim");
                    let reused =
                        simulate_packed_in(&mut ctx, &prep, &packed, scheme, &cfg).expect("sim");
                    assert_eq!(fresh, reused, "context reuse diverged under {scheme:?}");
                }
            }
        }
    }

    #[test]
    fn context_reshapes_across_configs() {
        // Reuse the same context under a different machine geometry: prepare
        // must rebuild what changed and results must match fresh state.
        let prog = count_loop(400);
        let (layout, trace, _) = guardspec_interp::trace::trace_program(&prog).expect("trace");
        let packed = guardspec_interp::tracefile::pack(&layout, &trace, 0);
        let prep = prepare_program(&prog);
        let big = MachineConfig::r10000();
        let mut small = MachineConfig::r10000();
        small.bht_entries = 64;
        small.icache = (4 * 1024, 32, 2);
        small.dcache = (4 * 1024, 32, 2);
        let mut ctx = SimContext::new(&big);
        for cfg in [&big, &small, &big] {
            let fresh = simulate_trace(&prog, &layout, &trace, Scheme::TwoBit, cfg).expect("sim");
            let reused =
                simulate_packed_in(&mut ctx, &prep, &packed, Scheme::TwoBit, cfg).expect("sim");
            assert_eq!(fresh, reused, "reshape diverged");
        }
    }
}

#[cfg(test)]
mod observe_tests {
    use super::*;
    use crate::observe::CycleAccounting;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::r;

    fn alt_program(iters: i64) -> Program {
        // Loop with an alternating inner branch (mispredict-heavy under
        // TwoBit) plus a strided load (D-cache misses).
        let mut fb = FuncBuilder::new("alt");
        fb.block("e");
        fb.li(r(1), 0);
        fb.li(r(5), iters);
        fb.block("loop");
        fb.andi(r(2), r(1), 1);
        fb.beq(r(2), r(0), "skip");
        fb.block("odd");
        fb.addi(r(3), r(3), 1);
        fb.block("skip");
        fb.lw(r(4), r(1), 0);
        fb.addi(r(1), r(1), 16);
        fb.slt(r(6), r(1), r(5));
        fb.bne(r(6), r(0), "loop");
        fb.block("done");
        fb.halt();
        let mut p = single_func_program(fb);
        p.mem_words = 1 << 14;
        p
    }

    /// Trace `prog`, then simulate it under `acc`.
    fn observed(prog: &Program, scheme: Scheme, acc: &mut CycleAccounting) -> SimStats {
        let (layout, trace, _) = guardspec_interp::trace::trace_program(prog).unwrap();
        let cfg = MachineConfig::r10000();
        simulate_trace_observed(prog, &layout, &trace, scheme, &cfg, acc).unwrap()
    }

    #[test]
    fn observed_stats_match_unobserved_and_buckets_sum() {
        for prog in [alt_program(4000), tests::count_loop(700)] {
            let (layout, trace, _) = guardspec_interp::trace::trace_program(&prog).unwrap();
            let cfg = MachineConfig::r10000();
            let mut acc = CycleAccounting::new();
            for scheme in [Scheme::TwoBit, Scheme::Proposed, Scheme::Perfect] {
                let plain = simulate_trace(&prog, &layout, &trace, scheme, &cfg).unwrap();
                let observed =
                    simulate_trace_observed(&prog, &layout, &trace, scheme, &cfg, &mut acc)
                        .unwrap();
                assert_eq!(plain, observed, "observer changed stats under {scheme:?}");
                acc.check(&observed);
                assert!(acc.bucket(CycleBucket::UsefulCommit) > 0);
            }
        }
    }

    #[test]
    fn accounting_agrees_across_trace_paths() {
        let prog = alt_program(2000);
        let cfg = MachineConfig::r10000();
        let (layout, flat, _) = guardspec_interp::trace::trace_program(&prog).unwrap();
        let packed = guardspec_interp::tracefile::pack(&layout, &flat, 0);
        let prep = prepare_program(&prog);
        let mut ctx = SimContext::new(&cfg);
        for scheme in [Scheme::TwoBit, Scheme::Proposed, Scheme::Perfect] {
            let mut slice_acc = CycleAccounting::new();
            let slice =
                simulate_trace_observed(&prog, &layout, &flat, scheme, &cfg, &mut slice_acc)
                    .unwrap();
            let mut packed_acc = CycleAccounting::new();
            let from_packed = simulate_packed_observed_in(
                &mut ctx,
                &prep,
                &packed,
                scheme,
                &cfg,
                &mut packed_acc,
            )
            .unwrap();
            assert_eq!(slice, from_packed, "stats diverge under {scheme:?}");
            assert_eq!(
                slice_acc, packed_acc,
                "accounting diverges under {scheme:?}"
            );
            slice_acc.check(&slice);
        }
    }

    #[test]
    fn mispredict_heavy_branch_dominates_site_attribution() {
        let prog = alt_program(4000);
        let mut acc = CycleAccounting::new();
        let stats = observed(&prog, Scheme::TwoBit, &mut acc);
        acc.check(&stats);
        // The alternating branch owns nearly all mispredicts and therefore
        // tops the squashed-cost ranking.
        let top = acc.top_sites(1);
        assert_eq!(top.len(), 1);
        let (_, c) = top[0];
        assert!(
            c.mispredicts * 2 > stats.mispredicts,
            "top site owns {} of {} mispredicts",
            c.mispredicts,
            stats.mispredicts
        );
        assert!(c.recovery_cycles > 0);
        assert!(acc.bucket(CycleBucket::MispredictRecovery) > 0);
        // Executions are conditional-branch fetches.
        let execs: u64 = acc.nonzero_sites().map(|(_, c)| c.executions).sum();
        assert_eq!(execs, stats.cond_branches);
    }

    #[test]
    fn perfect_scheme_has_no_recovery_cycles() {
        let prog = alt_program(1000);
        let mut acc = CycleAccounting::new();
        let stats = observed(&prog, Scheme::Perfect, &mut acc);
        acc.check(&stats);
        assert_eq!(acc.bucket(CycleBucket::MispredictRecovery), 0);
        // With no recovery bubbles in the way, the strided loads' misses
        // surface as head-of-window D-cache stall cycles.
        assert!(stats.dcache_misses > 0);
        assert!(acc.bucket(CycleBucket::DcacheMiss) > 0);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::{p, r};
    use guardspec_ir::{Guard, Opcode, SetCond};

    /// Annulled predicated branches flow through the BR queue but make no
    /// prediction and cost no bubble.
    #[test]
    fn annulled_predicated_branch_is_penalty_free() {
        // Loop with a predicated branch whose guard is always false.
        let mut fb = FuncBuilder::new("ann");
        fb.block("e");
        fb.li(r(1), 200);
        fb.setpi(SetCond::Lt, p(1), r(0), 0); // p1 = false forever
        fb.block("loop");
        fb.push(guardspec_ir::Instruction::guarded(
            Opcode::Branch {
                cond: guardspec_ir::BranchCond::PredT(p(1)),
                target: guardspec_ir::BlockId(2),
                likely: true,
            },
            Guard::if_true(p(1)),
        ));
        fb.block("cont");
        fb.subi(r(1), r(1), 1);
        fb.bgtz(r(1), "loop");
        fb.block("done");
        fb.halt();
        let prog = single_func_program(fb);
        let cfg = MachineConfig::r10000();
        let (stats, _) = simulate_program(&prog, Scheme::TwoBit, &cfg).expect("sim");
        // Only the latch is a *predicted* conditional; the annulled likely
        // contributes no mispredicts and no cond_branches.
        assert_eq!(stats.likely_mispredicts, 0);
        assert_eq!(stats.cond_branches, 200);
        assert!(stats.mispredicts <= 3, "mispredicts {}", stats.mispredicts);
        assert_eq!(stats.annulled, 200);
    }

    /// Unconditional direct jumps hit the BTB after the first pass and cost
    /// no fetch bubble from then on.
    #[test]
    fn jumps_warm_the_btb() {
        let mut fb = FuncBuilder::new("j");
        fb.block("e");
        fb.li(r(1), 100);
        fb.block("loop");
        fb.jump("body");
        fb.block("dead");
        fb.addi(r(9), r(9), 1);
        fb.block("body");
        fb.subi(r(1), r(1), 1);
        fb.bgtz(r(1), "loop");
        fb.block("done");
        fb.halt();
        let prog = single_func_program(fb);
        let cfg = MachineConfig::r10000();
        let (stats, _) = simulate_program(&prog, Scheme::TwoBit, &cfg).expect("sim");
        assert!(stats.btb_hits > 90, "btb hits {}", stats.btb_hits);
    }

    /// The front-end depth delays first issue after dispatch.
    #[test]
    fn frontend_depth_delays_short_programs() {
        let mut fb = FuncBuilder::new("d");
        fb.block("e");
        fb.li(r(1), 1);
        fb.halt();
        let prog = single_func_program(fb);
        let mut cfg = MachineConfig::r10000();
        cfg.frontend_depth = 0;
        let (shallow, _) = simulate_program(&prog, Scheme::Perfect, &cfg).expect("sim");
        cfg.frontend_depth = 4;
        let (deep, _) = simulate_program(&prog, Scheme::Perfect, &cfg).expect("sim");
        assert!(deep.cycles > shallow.cycles);
    }
}

#[cfg(test)]
mod log_tests {
    use super::*;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::r;

    #[test]
    fn cycle_log_conserves_counts() {
        let mut fb = FuncBuilder::new("l");
        fb.block("e");
        fb.li(r(1), 50);
        fb.block("loop");
        fb.subi(r(1), r(1), 1);
        fb.bgtz(r(1), "loop");
        fb.block("done");
        fb.halt();
        let prog = single_func_program(fb);
        let (layout, trace, _) = guardspec_interp::trace::trace_program(&prog).unwrap();
        let cfg = MachineConfig::r10000();
        let (stats, log) =
            simulate_trace_logged(&prog, &layout, &trace, Scheme::TwoBit, &cfg, 1 << 20)
                .expect("sim");
        let log = log.expect("log enabled");
        assert_eq!(log.records.len() as u64, stats.cycles);
        let fetched: u64 = log.records.iter().map(|r| r.fetched as u64).sum();
        let committed: u64 = log.records.iter().map(|r| r.committed as u64).sum();
        assert_eq!(fetched, trace.len() as u64);
        assert_eq!(committed, stats.committed_total);
        // Cycle numbers are strictly increasing.
        assert!(log.records.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }

    #[test]
    fn cycle_log_respects_limit() {
        let mut fb = FuncBuilder::new("l");
        fb.block("e");
        fb.li(r(1), 200);
        fb.block("loop");
        fb.subi(r(1), r(1), 1);
        fb.bgtz(r(1), "loop");
        fb.block("done");
        fb.halt();
        let prog = single_func_program(fb);
        let (layout, trace, _) = guardspec_interp::trace::trace_program(&prog).unwrap();
        let cfg = MachineConfig::r10000();
        let (_stats, log) =
            simulate_trace_logged(&prog, &layout, &trace, Scheme::TwoBit, &cfg, 16).expect("sim");
        assert_eq!(log.unwrap().records.len(), 16);
    }

    #[test]
    fn disabled_log_returns_none() {
        let mut fb = FuncBuilder::new("l");
        fb.block("e");
        fb.halt();
        let prog = single_func_program(fb);
        let (layout, trace, _) = guardspec_interp::trace::trace_program(&prog).unwrap();
        let cfg = MachineConfig::r10000();
        let (_s, log) =
            simulate_trace_logged(&prog, &layout, &trace, Scheme::TwoBit, &cfg, 0).expect("sim");
        assert!(log.is_none());
    }
}
