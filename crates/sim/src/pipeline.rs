//! What both engines of the timing model share: where the retired
//! instruction stream comes from ([`TraceSource`] and its slice and packed
//! cursors), the reusable run state ([`SimContext`] and the hot state it
//! carries), the error a run can end in, and the small enums and budget
//! constants the stages use.
//!
//! The compiled engine ([`crate::block`]) is the one every runtime path
//! runs; the interpreted reference engine ([`crate::reference`]) exists to
//! check it.  Most tests below pin the model's behavior through
//! [`crate::simulate_program`], which runs the compiled engine; the rest
//! check the trace sources, context reuse and cycle accounting on the
//! reference engine.

use crate::block::{Slot, NIL};
use crate::cache::Cache;
use crate::config::MachineConfig;
use guardspec_interp::{PackedIter, PackedTrace, TraceEntry};
use guardspec_ir::Reg;
use guardspec_predict::{Btb, TwoBitTable};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum EState {
    InQueue,
    Executing,
    Complete,
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

/// A per-consumer decoding cursor over a [`PackedTrace`] — the source every
/// harness cell reads.
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
/// at the end; both moves copy the struct and allocate nothing.  The
/// reference engine borrows it in place and keeps its window to itself.
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
    /// so stale contents never need clearing.
    pub(crate) ring: Vec<Slot>,
    /// Completion timing wheel: `wheel[cycle & mask]` heads the list of
    /// ring slots whose executions finish at `cycle`, threaded through
    /// [`Slot::wnext`] ([`NIL`] = empty bucket).  Sized by the compiled
    /// engine to cover every latency the config can produce; unused (and
    /// empty) by the reference engine.
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
/// Passing one context to many [`crate::simulate_compiled_packed_in`]
/// calls skips per-run construction; every run still starts from the
/// architectural reset state.
pub struct SimContext {
    /// `None` only while a compiled run owns it, or after a run unwound
    /// mid-way (the next `prepare` rebuilds it).
    pub(crate) hot: Option<HotState>,
}

impl SimContext {
    pub fn new(cfg: &MachineConfig) -> SimContext {
        SimContext {
            hot: Some(HotState::new(cfg)),
        }
    }

    /// Reset to the architectural initial state for `cfg`, reallocating
    /// only the structures whose geometry changed.
    pub(crate) fn prepare(&mut self, cfg: &MachineConfig) {
        match &mut self.hot {
            Some(hot) => hot.prepare(cfg),
            None => self.hot = Some(HotState::new(cfg)),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QueueKind;
    use crate::observe::SimObserver;
    use crate::reference::{prepare_program, simulate, PreparedSim};
    use crate::simulate_program;
    use crate::stats::SimStats;
    use guardspec_interp::trace::trace_program;
    use guardspec_interp::tracefile::pack;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::r;
    use guardspec_ir::Program;
    use guardspec_predict::Scheme;

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

    /// The reference engine over a materialized trace, on a fresh context.
    pub(super) fn reference_on_slice(
        prep: &PreparedSim,
        trace: &[TraceEntry],
        scheme: Scheme,
        cfg: &MachineConfig,
        obs: &mut impl SimObserver,
    ) -> Result<SimStats, SimError> {
        simulate(
            &mut SimContext::new(cfg),
            prep,
            SliceSource::new(trace),
            scheme,
            cfg,
            obs,
        )
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
        let (layout, flat, _) = trace_program(&prog).expect("trace");
        let packed = pack(&layout, &flat, 0);
        let prep = prepare_program(&prog);
        let mut ctx = SimContext::new(&cfg);
        for scheme in [Scheme::TwoBit, Scheme::Proposed, Scheme::Perfect] {
            let slice = reference_on_slice(&prep, &flat, scheme, &cfg, &mut ()).expect("slice");
            let from_packed = simulate(
                &mut ctx,
                &prep,
                PackedSource::new(&packed),
                scheme,
                &cfg,
                &mut (),
            )
            .expect("packed");
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
                let (layout, trace, _) = trace_program(prog).expect("trace");
                let packed = pack(&layout, &trace, 0);
                let prep = prepare_program(prog);
                for scheme in [Scheme::TwoBit, Scheme::Perfect] {
                    let fresh =
                        reference_on_slice(&prep, &trace, scheme, &cfg, &mut ()).expect("sim");
                    let source = PackedSource::new(&packed);
                    let reused =
                        simulate(&mut ctx, &prep, source, scheme, &cfg, &mut ()).expect("sim");
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
        let (layout, trace, _) = trace_program(&prog).expect("trace");
        let packed = pack(&layout, &trace, 0);
        let prep = prepare_program(&prog);
        let big = MachineConfig::r10000();
        let mut small = MachineConfig::r10000();
        small.bht_entries = 64;
        small.icache = (4 * 1024, 32, 2);
        small.dcache = (4 * 1024, 32, 2);
        let mut ctx = SimContext::new(&big);
        for cfg in [&big, &small, &big] {
            let fresh =
                reference_on_slice(&prep, &trace, Scheme::TwoBit, cfg, &mut ()).expect("sim");
            let source = PackedSource::new(&packed);
            let reused =
                simulate(&mut ctx, &prep, source, Scheme::TwoBit, cfg, &mut ()).expect("sim");
            assert_eq!(fresh, reused, "reshape diverged");
        }
    }
}

#[cfg(test)]
mod observe_tests {
    use super::tests::reference_on_slice;
    use super::*;
    use crate::observe::{CycleAccounting, CycleBucket};
    use crate::reference::{prepare_program, simulate};
    use crate::stats::SimStats;
    use guardspec_interp::trace::trace_program;
    use guardspec_interp::tracefile::pack;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::r;
    use guardspec_ir::Program;
    use guardspec_predict::Scheme;

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
        let (_, trace, _) = trace_program(prog).unwrap();
        let cfg = MachineConfig::r10000();
        reference_on_slice(&prepare_program(prog), &trace, scheme, &cfg, acc).unwrap()
    }

    #[test]
    fn observed_stats_match_unobserved_and_buckets_sum() {
        for prog in [alt_program(4000), super::tests::count_loop(700)] {
            let (_, trace, _) = trace_program(&prog).unwrap();
            let prep = prepare_program(&prog);
            let cfg = MachineConfig::r10000();
            let mut acc = CycleAccounting::new();
            for scheme in [Scheme::TwoBit, Scheme::Proposed, Scheme::Perfect] {
                let plain = reference_on_slice(&prep, &trace, scheme, &cfg, &mut ()).unwrap();
                let observed = reference_on_slice(&prep, &trace, scheme, &cfg, &mut acc).unwrap();
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
        let (layout, flat, _) = trace_program(&prog).unwrap();
        let packed = pack(&layout, &flat, 0);
        let prep = prepare_program(&prog);
        let mut ctx = SimContext::new(&cfg);
        for scheme in [Scheme::TwoBit, Scheme::Proposed, Scheme::Perfect] {
            let mut slice_acc = CycleAccounting::new();
            let slice = reference_on_slice(&prep, &flat, scheme, &cfg, &mut slice_acc).unwrap();
            let mut packed_acc = CycleAccounting::new();
            let from_packed = simulate(
                &mut ctx,
                &prep,
                PackedSource::new(&packed),
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
    use crate::simulate_program;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::{p, r};
    use guardspec_ir::{Guard, Opcode, SetCond};
    use guardspec_predict::Scheme;

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
