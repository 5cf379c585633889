//! The functional interpreter.

use crate::machine::Machine;
use guardspec_ir::insn::{AluKind, FAluKind, PLogicKind, ShiftKind};
use guardspec_ir::{BlockId, BranchCond, FuClass, FuncId, InsnRef, Instruction, Opcode, Program};
use std::fmt;

/// What one retired instruction did — everything an observer (profiler,
/// trace recorder) needs.
#[derive(Clone, Copy, Debug)]
pub struct RetireEvent {
    pub site: InsnRef,
    /// Conditional-branch outcome, if this was a conditional branch.
    pub taken: Option<bool>,
    /// Actual next block for control transfers (branch taken, jump, jtab).
    pub target_block: Option<BlockId>,
    /// Effective word address for memory operations.
    pub mem_addr: Option<i64>,
    /// Word written to memory, for (non-annulled) stores.  Float stores
    /// report the IEEE bit pattern.  Lets an observer reconstruct the
    /// committed-store trace without shadowing the memory image.
    pub store_value: Option<i64>,
    /// Guard predicate evaluated false: the instruction was fetched and
    /// issued but its result was annulled.
    pub annulled: bool,
}

/// Observer of retired instructions.
pub trait Observer {
    fn on_retire(&mut self, insn: &Instruction, ev: &RetireEvent);
}

/// The no-op observer.
impl Observer for () {
    fn on_retire(&mut self, _insn: &Instruction, _ev: &RetireEvent) {}
}

impl<A: Observer, B: Observer> Observer for (&mut A, &mut B) {
    fn on_retire(&mut self, insn: &Instruction, ev: &RetireEvent) {
        self.0.on_retire(insn, ev);
        self.1.on_retire(insn, ev);
    }
}

/// Why execution stopped abnormally.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    MemOutOfBounds {
        site: InsnRef,
        addr: i64,
    },
    JtabOutOfBounds {
        site: InsnRef,
        index: i64,
        table_len: usize,
    },
    CallDepthExceeded {
        site: InsnRef,
    },
    ReturnFromEntry {
        site: InsnRef,
    },
    FuelExhausted {
        retired: u64,
    },
    FellOffEnd {
        func: FuncId,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MemOutOfBounds { site, addr } => {
                write!(f, "memory access out of bounds at {site:?}: addr {addr}")
            }
            ExecError::JtabOutOfBounds {
                site,
                index,
                table_len,
            } => {
                write!(f, "jtab index {index} out of range {table_len} at {site:?}")
            }
            ExecError::CallDepthExceeded { site } => write!(f, "call depth exceeded at {site:?}"),
            ExecError::ReturnFromEntry { site } => write!(f, "ret with empty stack at {site:?}"),
            ExecError::FuelExhausted { retired } => {
                write!(f, "fuel exhausted after {retired} instructions")
            }
            ExecError::FellOffEnd { func } => write!(f, "fell off end of function @{}", func.0),
        }
    }
}

impl std::error::Error for ExecError {}

/// Aggregate execution counts.
#[derive(Clone, Debug, Default)]
pub struct ExecSummary {
    /// All retired instructions, including annulled guarded ones.
    pub retired: u64,
    /// Guarded instructions whose guard was false.
    pub annulled: u64,
    /// Conditional branches retired.
    pub cond_branches: u64,
    /// Conditional branches that were taken.
    pub taken_branches: u64,
}

/// Dense index for [`FuClass`] stat arrays.
pub fn class_index(c: FuClass) -> usize {
    c.index()
}

/// Result of a successful run (the program reached `halt`).
#[derive(Clone, Debug)]
pub struct ExecResult {
    pub summary: ExecSummary,
    pub machine: Machine,
}

/// Interpreter over a program.  Create with [`Interp::new`], step with
/// [`Interp::run_with`].
pub struct Interp<'p> {
    prog: &'p Program,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Instruction budget (guards against runaway programs in tests).
    pub fuel: u64,
}

const DEFAULT_FUEL: u64 = 200_000_000;

impl<'p> Interp<'p> {
    pub fn new(prog: &'p Program) -> Interp<'p> {
        Interp {
            prog,
            max_call_depth: 1024,
            fuel: DEFAULT_FUEL,
        }
    }

    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Run from the program entry to `halt`, reporting every retired
    /// instruction to `obs`.
    pub fn run_with(&self, obs: &mut impl Observer) -> Result<ExecResult, ExecError> {
        let prog = self.prog;
        let mut m = Machine::for_program(prog);
        let mut summary = ExecSummary::default();
        // (func, block, idx) return positions.
        let mut stack: Vec<(FuncId, BlockId, u32)> = Vec::new();
        let mut func = prog.entry;
        let mut block = BlockId(0);
        let mut idx: u32 = 0;

        loop {
            let f = prog.func(func);
            let blk = &f.blocks[block.index()];
            if idx as usize >= blk.insns.len() {
                // Fall through to the next block in layout order.
                let next = BlockId(block.0 + 1);
                if next.index() >= f.blocks.len() {
                    return Err(ExecError::FellOffEnd { func });
                }
                block = next;
                idx = 0;
                continue;
            }
            let insn = &blk.insns[idx as usize];
            let site = InsnRef { func, block, idx };
            if summary.retired >= self.fuel {
                return Err(ExecError::FuelExhausted {
                    retired: summary.retired,
                });
            }
            summary.retired += 1;

            // Guard evaluation: annulled instructions retire with no effect
            // (control instructions can't be guarded, so flow is unaffected).
            let annulled = match insn.guard {
                Some(g) => m.get_pred(g.pred) != g.expect,
                None => false,
            };
            if annulled {
                summary.annulled += 1;
                obs.on_retire(
                    insn,
                    &RetireEvent {
                        site,
                        taken: None,
                        target_block: None,
                        mem_addr: None,
                        store_value: None,
                        annulled,
                    },
                );
                idx += 1;
                continue;
            }

            let mut ev = RetireEvent {
                site,
                taken: None,
                target_block: None,
                mem_addr: None,
                store_value: None,
                annulled,
            };

            use Opcode::*;
            match &insn.op {
                Alu { kind, dst, a, b } => {
                    let (x, y) = (m.get_int(*a), m.get_int(*b));
                    m.set_int(*dst, alu_eval(*kind, x, y));
                }
                AluImm { kind, dst, a, imm } => {
                    let x = m.get_int(*a);
                    m.set_int(*dst, alu_eval(*kind, x, *imm));
                }
                Li { dst, imm } => m.set_int(*dst, *imm),
                Mov { dst, src } => {
                    let v = m.get_int(*src);
                    m.set_int(*dst, v);
                }
                Shift { kind, dst, a, b } => {
                    let (x, s) = (m.get_int(*a), m.get_int(*b) as u32 & 63);
                    m.set_int(*dst, shift_eval(*kind, x, s));
                }
                ShiftImm { kind, dst, a, sh } => {
                    let x = m.get_int(*a);
                    m.set_int(*dst, shift_eval(*kind, x, *sh as u32 & 63));
                }
                Load { dst, base, off } => {
                    let addr = m.get_int(*base) + off;
                    ev.mem_addr = Some(addr);
                    match m.load(addr) {
                        Some(v) => m.set_int(*dst, v),
                        None => return Err(ExecError::MemOutOfBounds { site, addr }),
                    }
                }
                Store { src, base, off } => {
                    let addr = m.get_int(*base) + off;
                    ev.mem_addr = Some(addr);
                    let v = m.get_int(*src);
                    ev.store_value = Some(v);
                    if !m.store(addr, v) {
                        return Err(ExecError::MemOutOfBounds { site, addr });
                    }
                }
                FAlu { kind, dst, a, b } => {
                    let (x, y) = (m.get_flt(*a), m.get_flt(*b));
                    let v = match kind {
                        FAluKind::Add => x + y,
                        FAluKind::Sub => x - y,
                        FAluKind::Mul => x * y,
                        FAluKind::Div => x / y,
                        FAluKind::Sqrt => x.sqrt(),
                    };
                    m.set_flt(*dst, v);
                }
                FMov { dst, src } => {
                    let v = m.get_flt(*src);
                    m.set_flt(*dst, v);
                }
                FLoad { dst, base, off } => {
                    let addr = m.get_int(*base) + off;
                    ev.mem_addr = Some(addr);
                    match m.load(addr) {
                        Some(v) => m.set_flt(*dst, f64::from_bits(v as u64)),
                        None => return Err(ExecError::MemOutOfBounds { site, addr }),
                    }
                }
                FStore { src, base, off } => {
                    let addr = m.get_int(*base) + off;
                    ev.mem_addr = Some(addr);
                    let v = m.get_flt(*src).to_bits() as i64;
                    ev.store_value = Some(v);
                    if !m.store(addr, v) {
                        return Err(ExecError::MemOutOfBounds { site, addr });
                    }
                }
                ItoF { dst, src } => {
                    let v = m.get_int(*src) as f64;
                    m.set_flt(*dst, v);
                }
                FtoI { dst, src } => {
                    let v = m.get_flt(*src) as i64;
                    m.set_int(*dst, v);
                }
                SetP { cond, dst, a, b } => {
                    let v = cond.eval(m.get_int(*a), m.get_int(*b));
                    m.set_pred(*dst, v);
                }
                SetPImm { cond, dst, a, imm } => {
                    let v = cond.eval(m.get_int(*a), *imm);
                    m.set_pred(*dst, v);
                }
                PLogic { kind, dst, a, b } => {
                    let (x, y) = (m.get_pred(*a), m.get_pred(*b));
                    let v = match kind {
                        PLogicKind::And => x && y,
                        PLogicKind::Or => x || y,
                        PLogicKind::Xor => x != y,
                    };
                    m.set_pred(*dst, v);
                }
                PNot { dst, src } => {
                    let v = !m.get_pred(*src);
                    m.set_pred(*dst, v);
                }
                Branch { cond, target, .. } => {
                    let taken = branch_eval(&m, *cond);
                    summary.cond_branches += 1;
                    ev.taken = Some(taken);
                    if taken {
                        summary.taken_branches += 1;
                        ev.target_block = Some(*target);
                        obs.on_retire(insn, &ev);
                        block = *target;
                        idx = 0;
                        continue;
                    }
                }
                Jump { target } => {
                    ev.target_block = Some(*target);
                    obs.on_retire(insn, &ev);
                    block = *target;
                    idx = 0;
                    continue;
                }
                Jtab { index, table } => {
                    let i = m.get_int(*index);
                    if i < 0 || i as usize >= table.len() {
                        return Err(ExecError::JtabOutOfBounds {
                            site,
                            index: i,
                            table_len: table.len(),
                        });
                    }
                    let t = table[i as usize];
                    ev.target_block = Some(t);
                    obs.on_retire(insn, &ev);
                    block = t;
                    idx = 0;
                    continue;
                }
                Call { func: callee } => {
                    if stack.len() >= self.max_call_depth {
                        return Err(ExecError::CallDepthExceeded { site });
                    }
                    obs.on_retire(insn, &ev);
                    stack.push((func, block, idx + 1));
                    func = *callee;
                    block = BlockId(0);
                    idx = 0;
                    continue;
                }
                Ret => match stack.pop() {
                    Some((rf, rb, ri)) => {
                        obs.on_retire(insn, &ev);
                        func = rf;
                        block = rb;
                        idx = ri;
                        continue;
                    }
                    None => return Err(ExecError::ReturnFromEntry { site }),
                },
                Halt => {
                    obs.on_retire(insn, &ev);
                    return Ok(ExecResult {
                        summary,
                        machine: m,
                    });
                }
                Nop => {}
            }
            obs.on_retire(insn, &ev);
            idx += 1;
        }
    }
}

fn alu_eval(kind: AluKind, a: i64, b: i64) -> i64 {
    match kind {
        AluKind::Add => a.wrapping_add(b),
        AluKind::Sub => a.wrapping_sub(b),
        AluKind::And => a & b,
        AluKind::Or => a | b,
        AluKind::Xor => a ^ b,
        AluKind::Nor => !(a | b),
        AluKind::Slt => (a < b) as i64,
        AluKind::Sltu => ((a as u32) < (b as u32)) as i64,
        AluKind::Mul => a.wrapping_mul(b),
    }
}

fn shift_eval(kind: ShiftKind, a: i64, s: u32) -> i64 {
    match kind {
        ShiftKind::Sll => ((a as u64) << s) as i64,
        ShiftKind::Srl => ((a as u64) >> s) as i64,
        ShiftKind::Sra => a >> s,
    }
}

fn branch_eval(m: &Machine, cond: BranchCond) -> bool {
    match cond {
        BranchCond::Eq(a, b) => m.get_int(a) == m.get_int(b),
        BranchCond::Ne(a, b) => m.get_int(a) != m.get_int(b),
        BranchCond::Lez(a) => m.get_int(a) <= 0,
        BranchCond::Gtz(a) => m.get_int(a) > 0,
        BranchCond::Ltz(a) => m.get_int(a) < 0,
        BranchCond::Gez(a) => m.get_int(a) >= 0,
        BranchCond::PredT(p) => m.get_pred(p),
        BranchCond::PredF(p) => !m.get_pred(p),
    }
}

/// Run `prog` with the no-op observer.
///
/// ```
/// use guardspec_ir::builder::{single_func_program, FuncBuilder};
/// use guardspec_ir::reg::r;
/// let mut fb = FuncBuilder::new("m");
/// fb.block("e");
/// fb.li(r(1), 21);
/// fb.add(r(1), r(1), r(1));
/// fb.sw(r(1), r(0), 0);
/// fb.halt();
/// let prog = single_func_program(fb);
/// let res = guardspec_interp::run(&prog).unwrap();
/// assert_eq!(res.machine.mem[0], 42);
/// ```
pub fn run(prog: &Program) -> Result<ExecResult, ExecError> {
    Interp::new(prog).run_with(&mut ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::{p, r};
    use guardspec_ir::SetCond;

    #[test]
    fn arithmetic_loop_sums_correctly() {
        // r3 = sum of 1..=10
        let mut fb = FuncBuilder::new("sum");
        fb.block("entry");
        fb.li(r(1), 1);
        fb.li(r(2), 10);
        fb.li(r(3), 0);
        fb.block("loop");
        fb.add(r(3), r(3), r(1));
        fb.addi(r(1), r(1), 1);
        fb.slt(r(4), r(2), r(1)); // r4 = 10 < i
        fb.beq(r(4), r(0), "loop");
        fb.block("done");
        fb.halt();
        let prog = single_func_program(fb);
        let res = run(&prog).expect("runs");
        assert_eq!(res.machine.get_int(r(3)), 55);
        assert_eq!(res.summary.cond_branches, 10);
        assert_eq!(res.summary.taken_branches, 9);
    }

    #[test]
    fn guarded_instruction_annuls() {
        let mut fb = FuncBuilder::new("g");
        fb.block("e");
        fb.li(r(1), 5);
        fb.setpi(SetCond::Gt, p(1), r(1), 3); // true
        fb.cmov(r(2), r(1), p(1), true); // executes
        fb.cmov(r(3), r(1), p(1), false); // annulled
        fb.halt();
        let prog = single_func_program(fb);
        let res = run(&prog).expect("runs");
        assert_eq!(res.machine.get_int(r(2)), 5);
        assert_eq!(res.machine.get_int(r(3)), 0);
        assert_eq!(res.summary.annulled, 1);
    }

    #[test]
    fn memory_roundtrip_and_class_counts() {
        let mut fb = FuncBuilder::new("mem");
        fb.block("e");
        fb.li(r(1), 8);
        fb.li(r(2), 1234);
        fb.sw(r(2), r(1), 1); // mem[9] = 1234
        fb.lw(r(3), r(1), 1);
        fb.sll(r(4), r(3), 1);
        fb.halt();
        let prog = single_func_program(fb);
        let (profile, res) = crate::profile::profile_program(&prog).expect("runs");
        assert_eq!(res.machine.get_int(r(3)), 1234);
        assert_eq!(res.machine.get_int(r(4)), 2468);
        assert_eq!(profile.by_class[class_index(FuClass::LoadStore)], 2);
        assert_eq!(profile.by_class[class_index(FuClass::Shift)], 1);
        assert_eq!(profile.by_class.iter().sum::<u64>(), res.summary.retired);
    }

    #[test]
    fn jtab_dispatch() {
        let mut fb = FuncBuilder::new("sw");
        fb.block("e");
        fb.li(r(1), 1);
        fb.jtab(r(1), &["c0", "c1", "c2"]);
        fb.block("c0");
        fb.li(r(2), 100);
        fb.jump("done");
        fb.block("c1");
        fb.li(r(2), 200);
        fb.jump("done");
        fb.block("c2");
        fb.li(r(2), 300);
        fb.block("done");
        fb.halt();
        let prog = single_func_program(fb);
        let res = run(&prog).expect("runs");
        assert_eq!(res.machine.get_int(r(2)), 200);
    }

    #[test]
    fn jtab_out_of_range_traps() {
        let mut fb = FuncBuilder::new("sw");
        fb.block("e");
        fb.li(r(1), 7);
        fb.jtab(r(1), &["done"]);
        fb.block("done");
        fb.halt();
        let prog = single_func_program(fb);
        match run(&prog) {
            Err(ExecError::JtabOutOfBounds {
                index: 7,
                table_len: 1,
                ..
            }) => {}
            other => panic!("expected jtab trap, got {other:?}"),
        }
    }

    #[test]
    fn call_ret_midblock_resume() {
        let mut pb = ProgramBuilder::new();
        let mut main = FuncBuilder::new("main");
        main.block("e");
        main.li(r(1), 1);
        main.call("double");
        main.addi(r(1), r(1), 5); // executes after return, same block
        main.halt();
        let mut dbl = FuncBuilder::new("double");
        dbl.block("e");
        dbl.add(r(1), r(1), r(1));
        dbl.ret();
        pb.add_func(main);
        pb.add_func(dbl);
        let prog = pb.finish("main");
        let res = run(&prog).expect("runs");
        assert_eq!(res.machine.get_int(r(1)), 7);
    }

    #[test]
    fn recursion_depth_guard() {
        let mut pb = ProgramBuilder::new();
        let mut f = FuncBuilder::new("f");
        f.block("e");
        f.call("f");
        f.ret();
        pb.add_func(f);
        let prog = pb.finish("f");
        match run(&prog) {
            Err(ExecError::CallDepthExceeded { .. }) => {}
            other => panic!("expected depth trap, got {other:?}"),
        }
    }

    #[test]
    fn fuel_exhaustion() {
        let mut fb = FuncBuilder::new("spin");
        fb.block("a");
        fb.jump("a");
        let prog = single_func_program(fb);
        match Interp::new(&prog).with_fuel(100).run_with(&mut ()) {
            Err(ExecError::FuelExhausted { retired: 100 }) => {}
            other => panic!("expected fuel trap, got {other:?}"),
        }
    }

    #[test]
    fn oob_store_traps() {
        let mut fb = FuncBuilder::new("bad");
        fb.block("e");
        fb.li(r(1), 1 << 30);
        fb.sw(r(1), r(1), 0);
        fb.halt();
        let mut prog = single_func_program(fb);
        prog.mem_words = 16;
        match run(&prog) {
            Err(ExecError::MemOutOfBounds { .. }) => {}
            other => panic!("expected mem trap, got {other:?}"),
        }
    }

    #[test]
    fn fp_pipeline() {
        let mut fb = FuncBuilder::new("fp");
        fb.block("e");
        fb.li(r(1), 9);
        fb.itof(guardspec_ir::reg::f(1), r(1));
        fb.fmul(
            guardspec_ir::reg::f(2),
            guardspec_ir::reg::f(1),
            guardspec_ir::reg::f(1),
        );
        fb.ftoi(r(2), guardspec_ir::reg::f(2));
        fb.halt();
        let prog = single_func_program(fb);
        let res = run(&prog).expect("runs");
        assert_eq!(res.machine.get_int(r(2)), 81);
    }

    #[test]
    fn observer_sees_store_values_except_annulled() {
        struct Stores(Vec<(i64, i64)>);
        impl Observer for Stores {
            fn on_retire(&mut self, _i: &Instruction, ev: &RetireEvent) {
                if let (Some(a), Some(v)) = (ev.mem_addr, ev.store_value) {
                    assert!(!ev.annulled, "annulled stores must not report a value");
                    self.0.push((a, v));
                }
            }
        }
        let mut fb = FuncBuilder::new("s");
        fb.block("e");
        fb.li(r(1), 3);
        fb.setpi(SetCond::Gt, p(1), r(1), 0); // true
        fb.sw(r(1), r(0), 4);
        fb.push_guarded(
            guardspec_ir::Opcode::Store {
                src: r(1),
                base: r(0),
                off: 5,
            },
            p(1),
            false, // guard false: annulled, must not appear in the trace
        );
        fb.itof(guardspec_ir::reg::f(1), r(1));
        fb.fsw(guardspec_ir::reg::f(1), r(0), 6);
        fb.halt();
        let prog = single_func_program(fb);
        let mut s = Stores(Vec::new());
        Interp::new(&prog).run_with(&mut s).expect("runs");
        assert_eq!(
            s.0,
            vec![(4, 3), (6, 3.0f64.to_bits() as i64)],
            "committed stores only, float stores as bit patterns"
        );
    }

    #[test]
    fn observer_sees_branch_outcomes() {
        struct Count(u64, u64);
        impl Observer for Count {
            fn on_retire(&mut self, _i: &Instruction, ev: &RetireEvent) {
                if let Some(t) = ev.taken {
                    self.0 += 1;
                    self.1 += t as u64;
                }
            }
        }
        let mut fb = FuncBuilder::new("b");
        fb.block("e");
        fb.li(r(1), 0);
        fb.block("loop");
        fb.addi(r(1), r(1), 1);
        fb.slti(r(2), r(1), 5);
        fb.bne(r(2), r(0), "loop");
        fb.block("done");
        fb.halt();
        let prog = single_func_program(fb);
        let mut c = Count(0, 0);
        Interp::new(&prog).run_with(&mut c).expect("runs");
        assert_eq!(c.0, 5);
        assert_eq!(c.1, 4);
    }
}
