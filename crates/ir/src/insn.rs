//! Instructions: opcodes, guards, operand accessors.

use crate::program::{BlockId, FuncId};
use crate::reg::{FltReg, IntReg, PredReg, Reg};

/// Integer ALU operation kinds (execute on the two integer ALUs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluKind {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Nor,
    /// Set-less-than (signed): `dst = (a < b) as i64`.
    Slt,
    /// Set-less-than (unsigned compare of the low 32 bits).
    Sltu,
    /// Integer multiply (low word).
    Mul,
}

/// Shift kinds (execute on the dedicated shifter).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ShiftKind {
    Sll,
    Srl,
    Sra,
}

/// Floating-point operation kinds, one per R10000 FP pipe
/// (adder, multiplier, divide/square-root).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FAluKind {
    Add,
    Sub,
    Mul,
    Div,
    Sqrt,
}

/// Predicate-register logic kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PLogicKind {
    And,
    Or,
    Xor,
}

/// Comparison conditions for `setp` (predicate-defining compares).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SetCond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl SetCond {
    /// The condition that is true exactly when `self` is false.
    pub fn negate(self) -> SetCond {
        match self {
            SetCond::Eq => SetCond::Ne,
            SetCond::Ne => SetCond::Eq,
            SetCond::Lt => SetCond::Ge,
            SetCond::Le => SetCond::Gt,
            SetCond::Gt => SetCond::Le,
            SetCond::Ge => SetCond::Lt,
        }
    }

    /// Evaluate the comparison on two integer values.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            SetCond::Eq => a == b,
            SetCond::Ne => a != b,
            SetCond::Lt => a < b,
            SetCond::Le => a <= b,
            SetCond::Gt => a > b,
            SetCond::Ge => a >= b,
        }
    }
}

/// The condition of a conditional branch, with its operands.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchCond {
    /// Branch if `a == b`.
    Eq(IntReg, IntReg),
    /// Branch if `a != b`.
    Ne(IntReg, IntReg),
    /// Branch if `a <= 0`.
    Lez(IntReg),
    /// Branch if `a > 0`.
    Gtz(IntReg),
    /// Branch if `a < 0`.
    Ltz(IntReg),
    /// Branch if `a >= 0`.
    Gez(IntReg),
    /// Branch if predicate register is true.
    PredT(PredReg),
    /// Branch if predicate register is false.
    PredF(PredReg),
}

impl BranchCond {
    /// The condition that is taken exactly when `self` is not.
    pub fn negate(self) -> BranchCond {
        match self {
            BranchCond::Eq(a, b) => BranchCond::Ne(a, b),
            BranchCond::Ne(a, b) => BranchCond::Eq(a, b),
            BranchCond::Lez(a) => BranchCond::Gtz(a),
            BranchCond::Gtz(a) => BranchCond::Lez(a),
            BranchCond::Ltz(a) => BranchCond::Gez(a),
            BranchCond::Gez(a) => BranchCond::Ltz(a),
            BranchCond::PredT(p) => BranchCond::PredF(p),
            BranchCond::PredF(p) => BranchCond::PredT(p),
        }
    }

    /// The `setp` condition + operand shape equivalent to this branch
    /// condition, as `(cond, a, rhs)` where `rhs` is either a register or
    /// the constant zero.  Used by if-conversion to materialize the branch
    /// condition into a predicate register.  Predicate-operand branches
    /// return `None` (they already have a predicate).
    pub fn as_compare(self) -> Option<(SetCond, IntReg, Option<IntReg>)> {
        match self {
            BranchCond::Eq(a, b) => Some((SetCond::Eq, a, Some(b))),
            BranchCond::Ne(a, b) => Some((SetCond::Ne, a, Some(b))),
            BranchCond::Lez(a) => Some((SetCond::Le, a, None)),
            BranchCond::Gtz(a) => Some((SetCond::Gt, a, None)),
            BranchCond::Ltz(a) => Some((SetCond::Lt, a, None)),
            BranchCond::Gez(a) => Some((SetCond::Ge, a, None)),
            BranchCond::PredT(_) | BranchCond::PredF(_) => None,
        }
    }
}

/// A guard on an instruction: the instruction only takes architectural
/// effect when predicate register `pred` holds the value `expect`.
///
/// This is the paper's *guarded execution*: "the guarded instruction is
/// executed conditionally depending on the value of this predicate operand".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Guard {
    pub pred: PredReg,
    pub expect: bool,
}

impl Guard {
    /// Guard that fires when `pred` is true.
    pub fn if_true(pred: PredReg) -> Guard {
        Guard { pred, expect: true }
    }
    /// Guard that fires when `pred` is false.
    pub fn if_false(pred: PredReg) -> Guard {
        Guard {
            pred,
            expect: false,
        }
    }
}

/// Instruction opcodes with their operands.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Opcode {
    /// Three-register integer ALU op.
    Alu {
        kind: AluKind,
        dst: IntReg,
        a: IntReg,
        b: IntReg,
    },
    /// Register-immediate integer ALU op.
    AluImm {
        kind: AluKind,
        dst: IntReg,
        a: IntReg,
        imm: i64,
    },
    /// Load immediate.
    Li { dst: IntReg, imm: i64 },
    /// Register move (assembles to `or dst, src, r0`).
    Mov { dst: IntReg, src: IntReg },
    /// Three-register shift (shift amount in `b`).
    Shift {
        kind: ShiftKind,
        dst: IntReg,
        a: IntReg,
        b: IntReg,
    },
    /// Immediate shift.
    ShiftImm {
        kind: ShiftKind,
        dst: IntReg,
        a: IntReg,
        sh: u8,
    },
    /// Word load: `dst = mem[base + off]` (word addressing).
    Load { dst: IntReg, base: IntReg, off: i64 },
    /// Word store: `mem[base + off] = src`.
    Store { src: IntReg, base: IntReg, off: i64 },
    /// Floating-point arithmetic.
    FAlu {
        kind: FAluKind,
        dst: FltReg,
        a: FltReg,
        b: FltReg,
    },
    /// Floating-point move.
    FMov { dst: FltReg, src: FltReg },
    /// Floating-point word load.
    FLoad { dst: FltReg, base: IntReg, off: i64 },
    /// Floating-point word store.
    FStore { src: FltReg, base: IntReg, off: i64 },
    /// Convert integer register to floating point.
    ItoF { dst: FltReg, src: IntReg },
    /// Truncate floating point to integer register.
    FtoI { dst: IntReg, src: FltReg },
    /// Predicate-defining compare: `dst = cond(a, b)`.
    SetP {
        cond: SetCond,
        dst: PredReg,
        a: IntReg,
        b: IntReg,
    },
    /// Predicate-defining compare against an immediate.
    SetPImm {
        cond: SetCond,
        dst: PredReg,
        a: IntReg,
        imm: i64,
    },
    /// Predicate logic: `dst = a <op> b`.
    PLogic {
        kind: PLogicKind,
        dst: PredReg,
        a: PredReg,
        b: PredReg,
    },
    /// Predicate negate: `dst = !src`.
    PNot { dst: PredReg, src: PredReg },
    /// Conditional branch.  `likely` marks the MIPS-IV branch-likely form:
    /// statically predicted taken, never allocated a BTB/BHT entry.
    Branch {
        cond: BranchCond,
        target: BlockId,
        likely: bool,
    },
    /// Unconditional direct jump.
    Jump { target: BlockId },
    /// Register-relative jump through a compile-time table
    /// (`switch` dispatch).  Not predictable by the BTB.
    Jtab { index: IntReg, table: Vec<BlockId> },
    /// Direct call to another function (return block is implicit: control
    /// resumes at the next block in layout order).
    Call { func: FuncId },
    /// Return from the current function.  Register-relative in hardware,
    /// hence not predictable by the BTB.
    Ret,
    /// Stop the machine.
    Halt,
    /// No operation.
    Nop,
}

/// Functional-unit classes, matching the columns of Tables 3 and 4.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum FuClass {
    /// Integer ALU (two units on the R10000).
    Alu,
    /// Dedicated shifter.
    Shift,
    /// Address-calculation / load-store unit.
    LoadStore,
    /// Branch unit.
    Branch,
    /// Floating-point adder pipe.
    FpAdd,
    /// Floating-point multiplier pipe.
    FpMul,
    /// Floating-point divide/square-root pipe.
    FpDiv,
    /// Consumes an issue slot but no functional unit.
    Nop,
}

impl FuClass {
    /// All classes, for stats tables.
    pub const ALL: [FuClass; 8] = [
        FuClass::Alu,
        FuClass::Shift,
        FuClass::LoadStore,
        FuClass::Branch,
        FuClass::FpAdd,
        FuClass::FpMul,
        FuClass::FpDiv,
        FuClass::Nop,
    ];

    /// Dense index of this class: its position in [`FuClass::ALL`].
    pub const fn index(self) -> usize {
        match self {
            FuClass::Alu => 0,
            FuClass::Shift => 1,
            FuClass::LoadStore => 2,
            FuClass::Branch => 3,
            FuClass::FpAdd => 4,
            FuClass::FpMul => 5,
            FuClass::FpDiv => 6,
            FuClass::Nop => 7,
        }
    }
}

/// A complete instruction: opcode plus optional guard predicate.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Instruction {
    pub op: Opcode,
    pub guard: Option<Guard>,
}

/// Iterator over the (at most five) register uses of an instruction.
pub struct Uses {
    slots: [Option<Reg>; 5],
    next: usize,
}

impl Iterator for Uses {
    type Item = Reg;
    fn next(&mut self) -> Option<Reg> {
        while self.next < self.slots.len() {
            let s = self.slots[self.next];
            self.next += 1;
            if s.is_some() {
                return s;
            }
        }
        None
    }
}

impl Instruction {
    /// An unguarded instruction.
    pub fn new(op: Opcode) -> Instruction {
        Instruction { op, guard: None }
    }

    /// A guarded instruction.
    pub fn guarded(op: Opcode, guard: Guard) -> Instruction {
        Instruction {
            op,
            guard: Some(guard),
        }
    }

    /// The register this instruction defines, if any.  Writes to the
    /// hard-wired `r0` still report a def; callers that care should filter
    /// with [`Reg::is_int_zero`].
    pub fn def(&self) -> Option<Reg> {
        use Opcode::*;
        match &self.op {
            Alu { dst, .. }
            | AluImm { dst, .. }
            | Li { dst, .. }
            | Mov { dst, .. }
            | Shift { dst, .. }
            | ShiftImm { dst, .. }
            | Load { dst, .. }
            | FtoI { dst, .. } => Some((*dst).into()),
            FAlu { dst, .. } | FMov { dst, .. } | FLoad { dst, .. } | ItoF { dst, .. } => {
                Some((*dst).into())
            }
            SetP { dst, .. } | SetPImm { dst, .. } | PLogic { dst, .. } | PNot { dst, .. } => {
                Some((*dst).into())
            }
            Store { .. }
            | FStore { .. }
            | Branch { .. }
            | Jump { .. }
            | Jtab { .. }
            | Call { .. }
            | Ret
            | Halt
            | Nop => None,
        }
    }

    /// Iterate over the registers this instruction reads, including the
    /// guard predicate and branch-condition operands.
    pub fn uses(&self) -> Uses {
        use Opcode::*;
        let mut slots: [Option<Reg>; 5] = [None; 5];
        let mut n = 0;
        let mut push = |r: Reg| {
            slots[n] = Some(r);
            n += 1;
        };
        match &self.op {
            Alu { a, b, .. } | Shift { a, b, .. } => {
                push((*a).into());
                push((*b).into());
            }
            AluImm { a, .. } | ShiftImm { a, .. } => push((*a).into()),
            Li { .. } => {}
            Mov { src, .. } => push((*src).into()),
            Load { base, .. } => push((*base).into()),
            Store { src, base, .. } => {
                push((*src).into());
                push((*base).into());
            }
            FAlu { a, b, .. } => {
                push((*a).into());
                push((*b).into());
            }
            FMov { src, .. } => push((*src).into()),
            FLoad { base, .. } => push((*base).into()),
            FStore { src, base, .. } => {
                push((*src).into());
                push((*base).into());
            }
            ItoF { src, .. } => push((*src).into()),
            FtoI { src, .. } => push((*src).into()),
            SetP { a, b, .. } => {
                push((*a).into());
                push((*b).into());
            }
            SetPImm { a, .. } => push((*a).into()),
            PLogic { a, b, .. } => {
                push((*a).into());
                push((*b).into());
            }
            PNot { src, .. } => push((*src).into()),
            Branch { cond, .. } => match cond {
                BranchCond::Eq(a, b) | BranchCond::Ne(a, b) => {
                    push((*a).into());
                    push((*b).into());
                }
                BranchCond::Lez(a)
                | BranchCond::Gtz(a)
                | BranchCond::Ltz(a)
                | BranchCond::Gez(a) => push((*a).into()),
                BranchCond::PredT(p) | BranchCond::PredF(p) => push((*p).into()),
            },
            Jtab { index, .. } => push((*index).into()),
            Jump { .. } | Call { .. } | Ret | Halt | Nop => {}
        }
        if let Some(g) = self.guard {
            push(g.pred.into());
        }
        Uses { slots, next: 0 }
    }

    /// The functional-unit class the instruction occupies, i.e. the column
    /// it contributes to in Tables 3 and 4.
    pub fn fu_class(&self) -> FuClass {
        use Opcode::*;
        match &self.op {
            Alu { .. }
            | AluImm { .. }
            | Li { .. }
            | Mov { .. }
            | SetP { .. }
            | SetPImm { .. }
            | PLogic { .. }
            | PNot { .. }
            | ItoF { .. }
            | FtoI { .. } => FuClass::Alu,
            Shift { .. } | ShiftImm { .. } => FuClass::Shift,
            Load { .. } | Store { .. } | FLoad { .. } | FStore { .. } => FuClass::LoadStore,
            Branch { .. } | Jump { .. } | Jtab { .. } | Call { .. } | Ret | Halt => FuClass::Branch,
            FAlu { kind, .. } => match kind {
                FAluKind::Add | FAluKind::Sub => FuClass::FpAdd,
                FAluKind::Mul => FuClass::FpMul,
                FAluKind::Div | FAluKind::Sqrt => FuClass::FpDiv,
            },
            FMov { .. } => FuClass::FpAdd,
            Nop => FuClass::Nop,
        }
    }

    /// True for a *conditional* branch (the instruction kind the paper's
    /// feedback metrics profile).
    pub fn is_cond_branch(&self) -> bool {
        matches!(self.op, Opcode::Branch { .. })
    }

    /// True for the branch-likely form.
    pub fn is_branch_likely(&self) -> bool {
        matches!(self.op, Opcode::Branch { likely: true, .. })
    }

    /// True if the instruction may transfer control (must be last in block).
    pub fn is_control(&self) -> bool {
        matches!(
            self.op,
            Opcode::Branch { .. }
                | Opcode::Jump { .. }
                | Opcode::Jtab { .. }
                | Opcode::Ret
                | Opcode::Halt
        )
    }

    /// True if the instruction ends fetch along the fall-through path
    /// unconditionally (no fall-through successor).
    pub fn is_unconditional_exit(&self) -> bool {
        matches!(
            self.op,
            Opcode::Jump { .. } | Opcode::Jtab { .. } | Opcode::Ret | Opcode::Halt
        )
    }

    /// True if the instruction may legally carry a guard predicate:
    /// computational and memory instructions, plus *conditional branches*
    /// (the "predicated branch instructions" of the authors' prior work
    /// \[13\], which the split-branch transform relies on: a false guard
    /// annuls the branch entirely).  Unconditional control flow and calls
    /// cannot be guarded.
    pub fn can_guard(&self) -> bool {
        match self.op {
            Opcode::Branch { .. } => true,
            Opcode::Call { .. } => false,
            _ => !self.is_control(),
        }
    }

    /// True if speculating (unconditionally hoisting) this instruction above
    /// a branch is safe: no memory writes, no control, no faulting ops.
    /// Loads are allowed only when `allow_loads` (the "dismissible load"
    /// model); integer ops cannot fault in this IR.
    pub fn can_speculate(&self, allow_loads: bool) -> bool {
        use Opcode::*;
        match &self.op {
            Store { .. } | FStore { .. } => false,
            Load { .. } | FLoad { .. } => allow_loads,
            FAlu {
                kind: FAluKind::Div,
                ..
            }
            | FAlu {
                kind: FAluKind::Sqrt,
                ..
            } => false,
            Call { .. } => false,
            _ => !self.is_control(),
        }
    }

    /// Direct control-flow targets of this instruction (empty for
    /// non-control instructions; the fall-through successor is implicit).
    pub fn targets(&self) -> Vec<BlockId> {
        match &self.op {
            Opcode::Branch { target, .. } | Opcode::Jump { target } => vec![*target],
            Opcode::Jtab { table, .. } => table.clone(),
            _ => Vec::new(),
        }
    }

    /// Rewrite every use of register `from` into `to` (same file required
    /// for a rewrite to apply).  Returns the number of operands rewritten.
    /// This is the primitive behind *forward substitution* (Figure 1(b)).
    pub fn rewrite_uses(&mut self, from: Reg, to: Reg) -> usize {
        use Opcode::*;
        let mut n = 0;
        let (fi, ti) = (from.as_int(), to.as_int());
        let mut ri = |r: &mut IntReg| {
            if let (Some(f), Some(t)) = (fi, ti) {
                if *r == f {
                    *r = t;
                    n += 1;
                }
            }
        };
        match &mut self.op {
            Alu { a, b, .. } | Shift { a, b, .. } => {
                ri(a);
                ri(b);
            }
            AluImm { a, .. } | ShiftImm { a, .. } => ri(a),
            Mov { src, .. } => ri(src),
            Load { base, .. } => ri(base),
            Store { src, base, .. } => {
                ri(src);
                ri(base);
            }
            FLoad { base, .. } | FStore { base, .. } => ri(base),
            ItoF { src, .. } => ri(src),
            SetP { a, b, .. } => {
                ri(a);
                ri(b);
            }
            SetPImm { a, .. } => ri(a),
            Branch { cond, .. } => match cond {
                BranchCond::Eq(a, b) | BranchCond::Ne(a, b) => {
                    ri(a);
                    ri(b);
                }
                BranchCond::Lez(a)
                | BranchCond::Gtz(a)
                | BranchCond::Ltz(a)
                | BranchCond::Gez(a) => ri(a),
                BranchCond::PredT(_) | BranchCond::PredF(_) => {}
            },
            Jtab { index, .. } => ri(index),
            _ => {}
        }
        // FP and predicate operand rewrites.
        let (ff, tf) = (from.as_flt(), to.as_flt());
        if let (Some(f), Some(t)) = (ff, tf) {
            let mut rf = |r: &mut FltReg| {
                if *r == f {
                    *r = t;
                    n += 1;
                }
            };
            match &mut self.op {
                FAlu { a, b, .. } => {
                    rf(a);
                    rf(b);
                }
                FMov { src, .. } => rf(src),
                FStore { src, .. } => rf(src),
                FtoI { src, .. } => rf(src),
                _ => {}
            }
        }
        let (fp, tp) = (from.as_pred(), to.as_pred());
        if let (Some(f), Some(t)) = (fp, tp) {
            let mut rp = |r: &mut PredReg| {
                if *r == f {
                    *r = t;
                    n += 1;
                }
            };
            match &mut self.op {
                PLogic { a, b, .. } => {
                    rp(a);
                    rp(b);
                }
                PNot { src, .. } => rp(src),
                Branch {
                    cond: BranchCond::PredT(p) | BranchCond::PredF(p),
                    ..
                } => rp(p),
                _ => {}
            }
            if let Some(g) = &mut self.guard {
                if g.pred == f {
                    g.pred = t;
                    n += 1;
                }
            }
        }
        n
    }

    /// Replace the destination register (must be the same register file).
    /// Returns false if the instruction has no def or the file differs.
    /// This is the primitive behind *software renaming* (Figure 1(b)).
    pub fn rename_def(&mut self, to: Reg) -> bool {
        use Opcode::*;
        match (&mut self.op, to) {
            (Alu { dst, .. }, Reg::Int(t))
            | (AluImm { dst, .. }, Reg::Int(t))
            | (Li { dst, .. }, Reg::Int(t))
            | (Mov { dst, .. }, Reg::Int(t))
            | (Shift { dst, .. }, Reg::Int(t))
            | (ShiftImm { dst, .. }, Reg::Int(t))
            | (Load { dst, .. }, Reg::Int(t))
            | (FtoI { dst, .. }, Reg::Int(t)) => {
                *dst = t;
                true
            }
            (FAlu { dst, .. }, Reg::Flt(t))
            | (FMov { dst, .. }, Reg::Flt(t))
            | (FLoad { dst, .. }, Reg::Flt(t))
            | (ItoF { dst, .. }, Reg::Flt(t)) => {
                *dst = t;
                true
            }
            (SetP { dst, .. }, Reg::Pred(t))
            | (SetPImm { dst, .. }, Reg::Pred(t))
            | (PLogic { dst, .. }, Reg::Pred(t))
            | (PNot { dst, .. }, Reg::Pred(t)) => {
                *dst = t;
                true
            }
            _ => false,
        }
    }

    /// Remap every block-id target through `f` (used when blocks are
    /// inserted/renumbered by transforms).
    pub fn remap_targets(&mut self, f: &mut dyn FnMut(BlockId) -> BlockId) {
        match &mut self.op {
            Opcode::Branch { target, .. } | Opcode::Jump { target } => *target = f(*target),
            Opcode::Jtab { table, .. } => {
                for t in table.iter_mut() {
                    *t = f(*t);
                }
            }
            _ => {}
        }
    }
}

impl From<Opcode> for Instruction {
    fn from(op: Opcode) -> Instruction {
        Instruction::new(op)
    }
}
