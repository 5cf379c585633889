//! Ergonomic program construction with label-based control flow.
//!
//! Branch targets are given as string labels and resolved when the function
//! is finished; calls are given as function names and resolved when the
//! program is finished.

use crate::insn::*;
use crate::program::*;
use crate::reg::*;

/// Builds one [`Function`], resolving block labels at the end.
///
/// ```
/// use guardspec_ir::builder::{single_func_program, FuncBuilder};
/// use guardspec_ir::reg::r;
/// let mut fb = FuncBuilder::new("count");
/// fb.block("entry");
/// fb.li(r(1), 10);
/// fb.block("loop");
/// fb.subi(r(1), r(1), 1);
/// fb.bgtz(r(1), "loop");
/// fb.block("done");
/// fb.halt();
/// let prog = single_func_program(fb);
/// assert!(guardspec_ir::validate::validate(&prog).is_empty());
/// ```
pub struct FuncBuilder {
    func: Function,
    /// `(block, insn index, label)` fixups for branch/jump targets.
    fixups: Vec<(usize, usize, String)>,
    /// `(block, insn index, table of labels)` fixups for jump tables.
    tab_fixups: Vec<(usize, usize, Vec<String>)>,
    /// `(block, insn index, callee name)` fixups for calls.
    call_fixups: Vec<(usize, usize, String)>,
    started: bool,
}

impl FuncBuilder {
    pub fn new(name: impl Into<String>) -> FuncBuilder {
        FuncBuilder {
            func: Function::new(name),
            fixups: Vec::new(),
            tab_fixups: Vec::new(),
            call_fixups: Vec::new(),
            started: false,
        }
    }

    /// Start a new basic block with the given label.
    pub fn block(&mut self, label: impl Into<String>) -> &mut Self {
        self.func.blocks.push(BasicBlock::new(label));
        self.started = true;
        self
    }

    fn cur(&mut self) -> &mut BasicBlock {
        if !self.started {
            self.block("entry");
        }
        self.func.blocks.last_mut().expect("block started")
    }

    /// Iterate the instructions appended so far, in block order.  Useful for
    /// generators that adapt later code to what earlier code touched.
    pub fn insns(&self) -> impl Iterator<Item = &Instruction> {
        self.func.blocks.iter().flat_map(|b| b.insns.iter())
    }

    /// Append an already-formed instruction.
    pub fn push(&mut self, i: impl Into<Instruction>) -> &mut Self {
        self.cur().insns.push(i.into());
        self
    }

    /// Append an instruction guarded by `(pred, expect)`.
    pub fn push_guarded(&mut self, op: Opcode, pred: PredReg, expect: bool) -> &mut Self {
        self.cur()
            .insns
            .push(Instruction::guarded(op, Guard { pred, expect }));
        self
    }

    // ---- integer ops -----------------------------------------------------

    pub fn alu(&mut self, kind: AluKind, dst: IntReg, a: IntReg, b: IntReg) -> &mut Self {
        self.push(Opcode::Alu { kind, dst, a, b })
    }
    pub fn alui(&mut self, kind: AluKind, dst: IntReg, a: IntReg, imm: i64) -> &mut Self {
        self.push(Opcode::AluImm { kind, dst, a, imm })
    }
    pub fn add(&mut self, dst: IntReg, a: IntReg, b: IntReg) -> &mut Self {
        self.alu(AluKind::Add, dst, a, b)
    }
    pub fn addi(&mut self, dst: IntReg, a: IntReg, imm: i64) -> &mut Self {
        self.alui(AluKind::Add, dst, a, imm)
    }
    pub fn sub(&mut self, dst: IntReg, a: IntReg, b: IntReg) -> &mut Self {
        self.alu(AluKind::Sub, dst, a, b)
    }
    pub fn subi(&mut self, dst: IntReg, a: IntReg, imm: i64) -> &mut Self {
        self.alui(AluKind::Sub, dst, a, imm)
    }
    pub fn and(&mut self, dst: IntReg, a: IntReg, b: IntReg) -> &mut Self {
        self.alu(AluKind::And, dst, a, b)
    }
    pub fn andi(&mut self, dst: IntReg, a: IntReg, imm: i64) -> &mut Self {
        self.alui(AluKind::And, dst, a, imm)
    }
    pub fn or(&mut self, dst: IntReg, a: IntReg, b: IntReg) -> &mut Self {
        self.alu(AluKind::Or, dst, a, b)
    }
    pub fn ori(&mut self, dst: IntReg, a: IntReg, imm: i64) -> &mut Self {
        self.alui(AluKind::Or, dst, a, imm)
    }
    pub fn xor(&mut self, dst: IntReg, a: IntReg, b: IntReg) -> &mut Self {
        self.alu(AluKind::Xor, dst, a, b)
    }
    pub fn xori(&mut self, dst: IntReg, a: IntReg, imm: i64) -> &mut Self {
        self.alui(AluKind::Xor, dst, a, imm)
    }
    pub fn mul(&mut self, dst: IntReg, a: IntReg, b: IntReg) -> &mut Self {
        self.alu(AluKind::Mul, dst, a, b)
    }
    pub fn slt(&mut self, dst: IntReg, a: IntReg, b: IntReg) -> &mut Self {
        self.alu(AluKind::Slt, dst, a, b)
    }
    pub fn slti(&mut self, dst: IntReg, a: IntReg, imm: i64) -> &mut Self {
        self.alui(AluKind::Slt, dst, a, imm)
    }
    pub fn sltu(&mut self, dst: IntReg, a: IntReg, b: IntReg) -> &mut Self {
        self.alu(AluKind::Sltu, dst, a, b)
    }
    pub fn sltui(&mut self, dst: IntReg, a: IntReg, imm: i64) -> &mut Self {
        self.alui(AluKind::Sltu, dst, a, imm)
    }
    pub fn nor(&mut self, dst: IntReg, a: IntReg, b: IntReg) -> &mut Self {
        self.alu(AluKind::Nor, dst, a, b)
    }
    pub fn muli(&mut self, dst: IntReg, a: IntReg, imm: i64) -> &mut Self {
        self.alui(AluKind::Mul, dst, a, imm)
    }
    pub fn li(&mut self, dst: IntReg, imm: i64) -> &mut Self {
        self.push(Opcode::Li { dst, imm })
    }
    pub fn mov(&mut self, dst: IntReg, src: IntReg) -> &mut Self {
        self.push(Opcode::Mov { dst, src })
    }
    pub fn sll(&mut self, dst: IntReg, a: IntReg, sh: u8) -> &mut Self {
        self.push(Opcode::ShiftImm {
            kind: ShiftKind::Sll,
            dst,
            a,
            sh,
        })
    }
    pub fn srl(&mut self, dst: IntReg, a: IntReg, sh: u8) -> &mut Self {
        self.push(Opcode::ShiftImm {
            kind: ShiftKind::Srl,
            dst,
            a,
            sh,
        })
    }
    pub fn sra(&mut self, dst: IntReg, a: IntReg, sh: u8) -> &mut Self {
        self.push(Opcode::ShiftImm {
            kind: ShiftKind::Sra,
            dst,
            a,
            sh,
        })
    }
    pub fn sllv(&mut self, dst: IntReg, a: IntReg, b: IntReg) -> &mut Self {
        self.push(Opcode::Shift {
            kind: ShiftKind::Sll,
            dst,
            a,
            b,
        })
    }
    pub fn srlv(&mut self, dst: IntReg, a: IntReg, b: IntReg) -> &mut Self {
        self.push(Opcode::Shift {
            kind: ShiftKind::Srl,
            dst,
            a,
            b,
        })
    }
    pub fn srav(&mut self, dst: IntReg, a: IntReg, b: IntReg) -> &mut Self {
        self.push(Opcode::Shift {
            kind: ShiftKind::Sra,
            dst,
            a,
            b,
        })
    }

    // ---- memory ----------------------------------------------------------

    pub fn lw(&mut self, dst: IntReg, base: IntReg, off: i64) -> &mut Self {
        self.push(Opcode::Load { dst, base, off })
    }
    pub fn sw(&mut self, src: IntReg, base: IntReg, off: i64) -> &mut Self {
        self.push(Opcode::Store { src, base, off })
    }

    // ---- floating point --------------------------------------------------

    pub fn fadd(&mut self, dst: FltReg, a: FltReg, b: FltReg) -> &mut Self {
        self.push(Opcode::FAlu {
            kind: FAluKind::Add,
            dst,
            a,
            b,
        })
    }
    pub fn fsub(&mut self, dst: FltReg, a: FltReg, b: FltReg) -> &mut Self {
        self.push(Opcode::FAlu {
            kind: FAluKind::Sub,
            dst,
            a,
            b,
        })
    }
    pub fn fmul(&mut self, dst: FltReg, a: FltReg, b: FltReg) -> &mut Self {
        self.push(Opcode::FAlu {
            kind: FAluKind::Mul,
            dst,
            a,
            b,
        })
    }
    pub fn fdiv(&mut self, dst: FltReg, a: FltReg, b: FltReg) -> &mut Self {
        self.push(Opcode::FAlu {
            kind: FAluKind::Div,
            dst,
            a,
            b,
        })
    }
    pub fn fsqrt(&mut self, dst: FltReg, a: FltReg) -> &mut Self {
        self.push(Opcode::FAlu {
            kind: FAluKind::Sqrt,
            dst,
            a,
            b: a,
        })
    }
    pub fn fmov(&mut self, dst: FltReg, src: FltReg) -> &mut Self {
        self.push(Opcode::FMov { dst, src })
    }
    pub fn flw(&mut self, dst: FltReg, base: IntReg, off: i64) -> &mut Self {
        self.push(Opcode::FLoad { dst, base, off })
    }
    pub fn fsw(&mut self, src: FltReg, base: IntReg, off: i64) -> &mut Self {
        self.push(Opcode::FStore { src, base, off })
    }
    pub fn itof(&mut self, dst: FltReg, src: IntReg) -> &mut Self {
        self.push(Opcode::ItoF { dst, src })
    }
    pub fn ftoi(&mut self, dst: IntReg, src: FltReg) -> &mut Self {
        self.push(Opcode::FtoI { dst, src })
    }

    // ---- predicates ------------------------------------------------------

    pub fn setp(&mut self, cond: SetCond, dst: PredReg, a: IntReg, b: IntReg) -> &mut Self {
        self.push(Opcode::SetP { cond, dst, a, b })
    }
    pub fn setpi(&mut self, cond: SetCond, dst: PredReg, a: IntReg, imm: i64) -> &mut Self {
        self.push(Opcode::SetPImm { cond, dst, a, imm })
    }
    pub fn pand(&mut self, dst: PredReg, a: PredReg, b: PredReg) -> &mut Self {
        self.push(Opcode::PLogic {
            kind: PLogicKind::And,
            dst,
            a,
            b,
        })
    }
    pub fn por(&mut self, dst: PredReg, a: PredReg, b: PredReg) -> &mut Self {
        self.push(Opcode::PLogic {
            kind: PLogicKind::Or,
            dst,
            a,
            b,
        })
    }
    pub fn pnot(&mut self, dst: PredReg, src: PredReg) -> &mut Self {
        self.push(Opcode::PNot { dst, src })
    }

    /// Conditional move: `dst = src` when `pred == expect` (guarded `mov`).
    pub fn cmov(&mut self, dst: IntReg, src: IntReg, pred: PredReg, expect: bool) -> &mut Self {
        self.push_guarded(Opcode::Mov { dst, src }, pred, expect)
    }

    // ---- control flow ----------------------------------------------------

    fn branch_fix(&mut self, cond: BranchCond, label: &str, likely: bool) -> &mut Self {
        let placeholder = BlockId(u32::MAX);
        self.push(Opcode::Branch {
            cond,
            target: placeholder,
            likely,
        });
        let bi = self.func.blocks.len() - 1;
        let ii = self.func.blocks[bi].insns.len() - 1;
        self.fixups.push((bi, ii, label.to_string()));
        self
    }

    pub fn beq(&mut self, a: IntReg, b: IntReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::Eq(a, b), label, false)
    }
    pub fn bne(&mut self, a: IntReg, b: IntReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::Ne(a, b), label, false)
    }
    pub fn blez(&mut self, a: IntReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::Lez(a), label, false)
    }
    pub fn bgtz(&mut self, a: IntReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::Gtz(a), label, false)
    }
    pub fn bltz(&mut self, a: IntReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::Ltz(a), label, false)
    }
    pub fn bgez(&mut self, a: IntReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::Gez(a), label, false)
    }
    pub fn bpt(&mut self, p: PredReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::PredT(p), label, false)
    }
    pub fn bpf(&mut self, p: PredReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::PredF(p), label, false)
    }

    /// Branch-likely forms (statically predicted taken, no BTB entry).
    pub fn beql(&mut self, a: IntReg, b: IntReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::Eq(a, b), label, true)
    }
    pub fn bnel(&mut self, a: IntReg, b: IntReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::Ne(a, b), label, true)
    }
    pub fn bptl(&mut self, p: PredReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::PredT(p), label, true)
    }
    pub fn bpfl(&mut self, p: PredReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::PredF(p), label, true)
    }
    pub fn blezl(&mut self, a: IntReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::Lez(a), label, true)
    }
    pub fn bgtzl(&mut self, a: IntReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::Gtz(a), label, true)
    }
    pub fn bltzl(&mut self, a: IntReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::Ltz(a), label, true)
    }
    pub fn bgezl(&mut self, a: IntReg, label: &str) -> &mut Self {
        self.branch_fix(BranchCond::Gez(a), label, true)
    }

    pub fn jump(&mut self, label: &str) -> &mut Self {
        let placeholder = BlockId(u32::MAX);
        self.push(Opcode::Jump {
            target: placeholder,
        });
        let bi = self.func.blocks.len() - 1;
        let ii = self.func.blocks[bi].insns.len() - 1;
        self.fixups.push((bi, ii, label.to_string()));
        self
    }

    /// Register-relative jump through a label table (`switch` dispatch).
    pub fn jtab(&mut self, index: IntReg, labels: &[&str]) -> &mut Self {
        self.push(Opcode::Jtab {
            index,
            table: Vec::new(),
        });
        let bi = self.func.blocks.len() - 1;
        let ii = self.func.blocks[bi].insns.len() - 1;
        self.tab_fixups
            .push((bi, ii, labels.iter().map(|s| s.to_string()).collect()));
        self
    }

    pub fn call(&mut self, name: &str) -> &mut Self {
        self.push(Opcode::Call {
            func: FuncId(u32::MAX),
        });
        let bi = self.func.blocks.len() - 1;
        let ii = self.func.blocks[bi].insns.len() - 1;
        self.call_fixups.push((bi, ii, name.to_string()));
        self
    }

    pub fn ret(&mut self) -> &mut Self {
        self.push(Opcode::Ret)
    }
    pub fn halt(&mut self) -> &mut Self {
        self.push(Opcode::Halt)
    }
    pub fn nop(&mut self) -> &mut Self {
        self.push(Opcode::Nop)
    }

    /// Resolve label fixups and hand back the function plus unresolved call
    /// fixups (resolved later by [`ProgramBuilder::finish`]).
    fn finish_internal(mut self) -> (Function, Vec<(usize, usize, String)>) {
        for (bi, ii, label) in std::mem::take(&mut self.fixups) {
            let target = self
                .func
                .block_by_label(&label)
                .unwrap_or_else(|| panic!("undefined label `{label}` in `{}`", self.func.name));
            match &mut self.func.blocks[bi].insns[ii].op {
                Opcode::Branch { target: t, .. } | Opcode::Jump { target: t } => *t = target,
                other => panic!("fixup on non-branch {other:?}"),
            }
        }
        for (bi, ii, labels) in std::mem::take(&mut self.tab_fixups) {
            let table: Vec<BlockId> = labels
                .iter()
                .map(|l| {
                    self.func
                        .block_by_label(l)
                        .unwrap_or_else(|| panic!("undefined label `{l}` in `{}`", self.func.name))
                })
                .collect();
            match &mut self.func.blocks[bi].insns[ii].op {
                Opcode::Jtab { table: t, .. } => *t = table,
                other => panic!("table fixup on non-jtab {other:?}"),
            }
        }
        (self.func, self.call_fixups)
    }

    /// Finish a function that makes no calls.
    pub fn finish(self) -> Function {
        let name = self.func.name.clone();
        let (f, calls) = self.finish_internal();
        assert!(
            calls.is_empty(),
            "function `{name}` has unresolved calls; use ProgramBuilder"
        );
        f
    }
}

/// Builds a whole [`Program`], resolving cross-function calls by name.
pub struct ProgramBuilder {
    funcs: Vec<Function>,
    pending_calls: Vec<(usize, usize, usize, String)>,
    data: Vec<(u64, i64)>,
    mem_words: u64,
}

impl ProgramBuilder {
    pub fn new() -> ProgramBuilder {
        ProgramBuilder {
            funcs: Vec::new(),
            pending_calls: Vec::new(),
            data: Vec::new(),
            mem_words: 1 << 16,
        }
    }

    /// Add a finished builder's function.
    pub fn add_func(&mut self, fb: FuncBuilder) -> FuncId {
        let (f, calls) = fb.finish_internal();
        let fi = self.funcs.len();
        for (bi, ii, name) in calls {
            self.pending_calls.push((fi, bi, ii, name));
        }
        self.funcs.push(f);
        FuncId(fi as u32)
    }

    /// Preload one memory word.
    pub fn data_word(&mut self, addr: u64, value: i64) -> &mut Self {
        self.data.push((addr, value));
        self
    }

    /// Preload a slice of memory words starting at `addr`.
    pub fn data_words(&mut self, addr: u64, values: &[i64]) -> &mut Self {
        for (i, v) in values.iter().enumerate() {
            self.data.push((addr + i as u64, *v));
        }
        self
    }

    /// Set the memory size in words.
    pub fn mem_words(&mut self, words: u64) -> &mut Self {
        self.mem_words = words;
        self
    }

    /// Resolve calls and produce the program; entry is the function named
    /// `entry_name`.
    pub fn finish(mut self, entry_name: &str) -> Program {
        let lookup: std::collections::HashMap<String, FuncId> = self
            .funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), FuncId(i as u32)))
            .collect();
        for (fi, bi, ii, name) in std::mem::take(&mut self.pending_calls) {
            let id = *lookup
                .get(&name)
                .unwrap_or_else(|| panic!("call to undefined function `{name}`"));
            match &mut self.funcs[fi].blocks[bi].insns[ii].op {
                Opcode::Call { func } => *func = id,
                other => panic!("call fixup on non-call {other:?}"),
            }
        }
        let entry = *lookup
            .get(entry_name)
            .unwrap_or_else(|| panic!("entry function `{entry_name}` not defined"));
        Program {
            funcs: self.funcs,
            entry,
            data: self.data,
            mem_words: self.mem_words,
        }
    }
}

impl Default for ProgramBuilder {
    fn default() -> ProgramBuilder {
        ProgramBuilder::new()
    }
}

/// Wrap a single call-free function into a program.
pub fn single_func_program(fb: FuncBuilder) -> Program {
    let mut pb = ProgramBuilder::new();
    let name = fb.func.name.clone();
    pb.add_func(fb);
    pb.finish(&name)
}
