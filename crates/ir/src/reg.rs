//! Register name spaces.
//!
//! Three architectural register files, mirroring the machine model of
//! Section 6 of the paper:
//!
//! * **integer** registers `r0..r63` — the R10000 has 64 physical integer
//!   registers of which 32 are architecturally visible; the compiler's
//!   software-renaming pool draws from the upper half, so the IR exposes all
//!   64 names (`r0` is hard-wired to zero, as on MIPS),
//! * **floating-point** registers `f0..f63`, same split,
//! * **predicate** (condition-code) registers `p0..p15` — the "extra
//!   condition code registers which can be used as operands in the
//!   instructions" that guarded execution requires (Section 3).

use std::fmt;

/// Number of integer register names visible to the IR.
pub const NUM_INT_REGS: u8 = 64;
/// Number of floating-point register names visible to the IR.
pub const NUM_FLT_REGS: u8 = 64;
/// Number of predicate (condition-code) register names.
pub const NUM_PRED_REGS: u8 = 16;
/// Integer registers `r0..r31` are architecturally visible; `r32..r63` form
/// the software-renaming pool.
pub const NUM_ARCH_INT_REGS: u8 = 32;

/// An integer register name, `r0..r63`. `r0` always reads zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntReg(pub u8);

/// A floating-point register name, `f0..f63`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FltReg(pub u8);

/// A predicate (condition-code) register name, `p0..p15`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredReg(pub u8);

/// Any register operand.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reg {
    Int(IntReg),
    Flt(FltReg),
    Pred(PredReg),
}

impl IntReg {
    /// The hard-wired zero register.
    pub const ZERO: IntReg = IntReg(0);

    /// True if this is the hard-wired zero register.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl From<IntReg> for Reg {
    fn from(r: IntReg) -> Reg {
        Reg::Int(r)
    }
}
impl From<FltReg> for Reg {
    fn from(r: FltReg) -> Reg {
        Reg::Flt(r)
    }
}
impl From<PredReg> for Reg {
    fn from(r: PredReg) -> Reg {
        Reg::Pred(r)
    }
}

impl Reg {
    /// The integer register inside, if any.
    pub fn as_int(self) -> Option<IntReg> {
        match self {
            Reg::Int(r) => Some(r),
            _ => None,
        }
    }

    /// The floating-point register inside, if any.
    pub fn as_flt(self) -> Option<FltReg> {
        match self {
            Reg::Flt(r) => Some(r),
            _ => None,
        }
    }

    /// The predicate register inside, if any.
    pub fn as_pred(self) -> Option<PredReg> {
        match self {
            Reg::Pred(r) => Some(r),
            _ => None,
        }
    }

    /// True for the integer zero register, which is never really written.
    pub fn is_int_zero(self) -> bool {
        matches!(self, Reg::Int(r) if r.is_zero())
    }

    /// A dense index usable as a table key: integer regs first, then FP,
    /// then predicates.
    pub fn dense_index(self) -> usize {
        match self {
            Reg::Int(IntReg(i)) => i as usize,
            Reg::Flt(FltReg(i)) => NUM_INT_REGS as usize + i as usize,
            Reg::Pred(PredReg(i)) => (NUM_INT_REGS + NUM_FLT_REGS) as usize + i as usize,
        }
    }

    /// Total number of dense register indices.
    pub const DENSE_COUNT: usize = (NUM_INT_REGS + NUM_FLT_REGS + NUM_PRED_REGS) as usize;

    /// True if the register name is in range for its file.
    pub fn in_range(self) -> bool {
        match self {
            Reg::Int(IntReg(i)) => i < NUM_INT_REGS,
            Reg::Flt(FltReg(i)) => i < NUM_FLT_REGS,
            Reg::Pred(PredReg(i)) => i < NUM_PRED_REGS,
        }
    }
}

/// Shorthand constructor for an integer register.
pub fn r(i: u8) -> IntReg {
    IntReg(i)
}
/// Shorthand constructor for a floating-point register.
pub fn f(i: u8) -> FltReg {
    FltReg(i)
}
/// Shorthand constructor for a predicate register.
pub fn p(i: u8) -> PredReg {
    PredReg(i)
}

impl fmt::Display for IntReg {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(fm, "r{}", self.0)
    }
}
impl fmt::Display for FltReg {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(fm, "f{}", self.0)
    }
}
impl fmt::Display for PredReg {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(fm, "p{}", self.0)
    }
}
impl fmt::Display for Reg {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::Int(r) => r.fmt(fm),
            Reg::Flt(r) => r.fmt(fm),
            Reg::Pred(r) => r.fmt(fm),
        }
    }
}

impl fmt::Debug for IntReg {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, fm)
    }
}
impl fmt::Debug for FltReg {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, fm)
    }
}
impl fmt::Debug for PredReg {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, fm)
    }
}
impl fmt::Debug for Reg {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, fm)
    }
}
