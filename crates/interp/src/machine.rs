//! Architectural machine state.

use crate::wordmem::WordMem;
use guardspec_ir::reg::{NUM_FLT_REGS, NUM_INT_REGS, NUM_PRED_REGS};
use guardspec_ir::{FltReg, IntReg, PredReg, Program};

/// Register files plus flat word-addressed memory.
///
/// Integer registers are 64-bit two's-complement; `r0` reads zero and
/// ignores writes.  Memory is word-granular: `lw`/`sw` address words
/// directly (the cache model in `guardspec-sim` scales to byte addresses).
/// Memory lives on fresh anonymous pages ([`WordMem`]): words the program
/// never writes never become resident.
#[derive(Clone, Debug)]
pub struct Machine {
    int: [i64; NUM_INT_REGS as usize],
    flt: [f64; NUM_FLT_REGS as usize],
    pred: [bool; NUM_PRED_REGS as usize],
    pub mem: WordMem,
}

impl Machine {
    /// Fresh machine with `mem_words` zeroed words.
    pub fn new(mem_words: u64) -> Machine {
        Machine {
            int: [0; NUM_INT_REGS as usize],
            flt: [0.0; NUM_FLT_REGS as usize],
            pred: [false; NUM_PRED_REGS as usize],
            mem: WordMem::zeroed(mem_words as usize),
        }
    }

    /// Machine initialized for `prog`: memory sized and data preloaded.
    pub fn for_program(prog: &Program) -> Machine {
        let mut m = Machine::new(prog.mem_words);
        for &(addr, v) in &prog.data {
            m.mem[addr as usize] = v;
        }
        m
    }

    pub fn get_int(&self, r: IntReg) -> i64 {
        if r.is_zero() {
            0
        } else {
            self.int[r.0 as usize]
        }
    }

    pub fn set_int(&mut self, r: IntReg, v: i64) {
        if !r.is_zero() {
            self.int[r.0 as usize] = v;
        }
    }

    pub fn get_flt(&self, r: FltReg) -> f64 {
        self.flt[r.0 as usize]
    }

    pub fn set_flt(&mut self, r: FltReg, v: f64) {
        self.flt[r.0 as usize] = v;
    }

    pub fn get_pred(&self, r: PredReg) -> bool {
        self.pred[r.0 as usize]
    }

    pub fn set_pred(&mut self, r: PredReg, v: bool) {
        self.pred[r.0 as usize] = v;
    }

    /// Word load; `None` when out of range.
    pub fn load(&self, addr: i64) -> Option<i64> {
        if addr < 0 {
            return None;
        }
        self.mem.get(addr as usize).copied()
    }

    /// Word store; `false` when out of range.
    pub fn store(&mut self, addr: i64, v: i64) -> bool {
        if addr < 0 {
            return false;
        }
        match self.mem.get_mut(addr as usize) {
            Some(slot) => {
                *slot = v;
                true
            }
            None => false,
        }
    }

    /// A checksum over memory only.  Transforms allocate scratch registers
    /// from the free pool, so register state legitimately diverges between
    /// a program and its transformed twin; memory is the observable output
    /// and must match exactly.  Semantic-equivalence tests use this.
    pub fn mem_checksum(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64; // FNV-1a
        for &v in self.mem.iter() {
            h ^= v as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// A simple checksum over memory and integer registers, used by
    /// semantic-equivalence tests: transforms must preserve it.
    pub fn checksum(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64; // FNV-1a
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        for &v in &self.int {
            mix(v as u64);
        }
        for &v in self.mem.iter() {
            mix(v as u64);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardspec_ir::reg::{f, p, r};

    #[test]
    fn r0_is_hardwired_zero() {
        let mut m = Machine::new(16);
        m.set_int(r(0), 42);
        assert_eq!(m.get_int(r(0)), 0);
        m.set_int(r(1), 42);
        assert_eq!(m.get_int(r(1)), 42);
    }

    #[test]
    fn memory_bounds_checked() {
        let mut m = Machine::new(4);
        assert!(m.store(3, 7));
        assert_eq!(m.load(3), Some(7));
        assert!(!m.store(4, 1));
        assert_eq!(m.load(4), None);
        assert_eq!(m.load(-1), None);
        assert!(!m.store(-1, 1));
    }

    #[test]
    fn empty_memory_is_all_out_of_range() {
        let mut m = Machine::new(0);
        assert_eq!(m.load(0), None);
        assert!(!m.store(0, 1));
        assert!(m.clone().mem.is_empty());
    }

    #[test]
    fn program_preload() {
        let mut prog = Program::new();
        prog.mem_words = 8;
        prog.data = vec![(0, 10), (5, -3)];
        let m = Machine::for_program(&prog);
        assert_eq!(m.mem[0], 10);
        assert_eq!(m.mem[5], -3);
        assert_eq!(m.mem.len(), 8);
    }

    #[test]
    fn checksum_sensitive_to_state() {
        let mut a = Machine::new(8);
        let b = Machine::new(8);
        assert_eq!(a.checksum(), b.checksum());
        a.set_int(r(3), 1);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn flt_and_pred_files() {
        let mut m = Machine::new(1);
        m.set_flt(f(2), 1.5);
        assert_eq!(m.get_flt(f(2)), 1.5);
        m.set_pred(p(3), true);
        assert!(m.get_pred(p(3)));
        assert!(!m.get_pred(p(4)));
    }
}
