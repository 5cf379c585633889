//! Binary encoding of programs — the "resultant MIPS-binary … fed to the
//! superscalar simulator" of Section 6.
//!
//! The format is a word stream (u32), one header word per instruction plus
//! trailing words for wide immediates and jump tables:
//!
//! ```text
//! word 0:  GSXB magic
//! word 1:  format version
//! word 2:  entry function index
//! word 3:  memory size in words (lo), word 4: (hi)
//! word 5:  data preload count, then per entry: addr lo/hi, value lo/hi
//! word k:  function count, then per function:
//!            name length + UTF-8 bytes (word-padded), block count,
//!            per block: label length + bytes, instruction count,
//!            per instruction: header word [+ operand words]
//! ```
//!
//! The header word packs `op:8 | a:8 | b:8 | c:8`; wide operands (64-bit
//! immediates, block targets, jump tables) follow as full words.  Encoding
//! and decoding round-trip exactly (including labels), which the property
//! tests lock in.

use crate::insn::*;
use crate::program::*;
use crate::reg::{FltReg, IntReg, PredReg};
use std::fmt;

const MAGIC: u32 = 0x4753_5842; // "GSXB"
const VERSION: u32 = 1;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    pub at: usize,
    pub msg: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at word {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for DecodeError {}

// Opcode tags.
const T_ALU: u8 = 1;
const T_ALUI: u8 = 2;
const T_LI: u8 = 3;
const T_MOV: u8 = 4;
const T_SHIFT: u8 = 5;
const T_SHIFTI: u8 = 6;
const T_LOAD: u8 = 7;
const T_STORE: u8 = 8;
const T_FALU: u8 = 9;
const T_FMOV: u8 = 10;
const T_FLOAD: u8 = 11;
const T_FSTORE: u8 = 12;
const T_ITOF: u8 = 13;
const T_FTOI: u8 = 14;
const T_SETP: u8 = 15;
const T_SETPI: u8 = 16;
const T_PLOGIC: u8 = 17;
const T_PNOT: u8 = 18;
const T_BRANCH: u8 = 19;
const T_JUMP: u8 = 20;
const T_JTAB: u8 = 21;
const T_CALL: u8 = 22;
const T_RET: u8 = 23;
const T_HALT: u8 = 24;
const T_NOP: u8 = 25;

struct Writer {
    words: Vec<u32>,
}

impl Writer {
    fn w(&mut self, v: u32) {
        self.words.push(v);
    }

    fn w64(&mut self, v: i64) {
        self.w(v as u64 as u32);
        self.w(((v as u64) >> 32) as u32);
    }

    fn header(&mut self, op: u8, a: u8, b: u8, c: u8) {
        self.w(u32::from_le_bytes([op, a, b, c]));
    }

    fn string(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.w(bytes.len() as u32);
        for chunk in bytes.chunks(4) {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            self.w(u32::from_le_bytes(word));
        }
    }
}

struct Reader<'a> {
    words: &'a [u32],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn r(&mut self) -> Result<u32, DecodeError> {
        let v = self.words.get(self.pos).copied().ok_or(DecodeError {
            at: self.pos,
            msg: "unexpected end of stream".into(),
        })?;
        self.pos += 1;
        Ok(v)
    }

    fn r64(&mut self) -> Result<i64, DecodeError> {
        let lo = self.r()? as u64;
        let hi = self.r()? as u64;
        Ok((lo | (hi << 32)) as i64)
    }

    /// Read an element count, rejecting one the remaining words cannot
    /// hold at `min_words` per element, so a corrupt count can never size
    /// a huge allocation.
    fn count(&mut self, min_words: usize) -> Result<usize, DecodeError> {
        let at = self.pos;
        let n = self.r()? as usize;
        if n.saturating_mul(min_words) > self.words.len() - self.pos {
            return Err(DecodeError {
                at,
                msg: format!("count {n} exceeds the remaining stream"),
            });
        }
        Ok(n)
    }

    fn header(&mut self) -> Result<(u8, u8, u8, u8), DecodeError> {
        let [op, a, b, c] = self.r()?.to_le_bytes();
        Ok((op, a, b, c))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let at = self.pos;
        let len = self.r()? as usize;
        if len > 1 << 20 {
            return Err(DecodeError {
                at,
                msg: format!("string length {len} too large"),
            });
        }
        let mut bytes = Vec::with_capacity(len);
        let mut remaining = len;
        while remaining > 0 {
            let word = self.r()?.to_le_bytes();
            let take = remaining.min(4);
            bytes.extend_from_slice(&word[..take]);
            remaining -= take;
        }
        String::from_utf8(bytes).map_err(|e| DecodeError {
            at,
            msg: format!("bad UTF-8 in string: {e}"),
        })
    }
}

fn alu_code(k: AluKind) -> u8 {
    match k {
        AluKind::Add => 0,
        AluKind::Sub => 1,
        AluKind::And => 2,
        AluKind::Or => 3,
        AluKind::Xor => 4,
        AluKind::Nor => 5,
        AluKind::Slt => 6,
        AluKind::Sltu => 7,
        AluKind::Mul => 8,
    }
}

fn alu_kind(c: u8, at: usize) -> Result<AluKind, DecodeError> {
    Ok(match c {
        0 => AluKind::Add,
        1 => AluKind::Sub,
        2 => AluKind::And,
        3 => AluKind::Or,
        4 => AluKind::Xor,
        5 => AluKind::Nor,
        6 => AluKind::Slt,
        7 => AluKind::Sltu,
        8 => AluKind::Mul,
        _ => {
            return Err(DecodeError {
                at,
                msg: format!("bad alu kind {c}"),
            })
        }
    })
}

fn cond_code(c: SetCond) -> u8 {
    match c {
        SetCond::Eq => 0,
        SetCond::Ne => 1,
        SetCond::Lt => 2,
        SetCond::Le => 3,
        SetCond::Gt => 4,
        SetCond::Ge => 5,
    }
}

fn set_cond(c: u8, at: usize) -> Result<SetCond, DecodeError> {
    Ok(match c {
        0 => SetCond::Eq,
        1 => SetCond::Ne,
        2 => SetCond::Lt,
        3 => SetCond::Le,
        4 => SetCond::Gt,
        5 => SetCond::Ge,
        _ => {
            return Err(DecodeError {
                at,
                msg: format!("bad set cond {c}"),
            })
        }
    })
}

fn encode_insn(w: &mut Writer, i: &Instruction) {
    // Guard marker word: 0 = none, 1 = expect-true, 2 = expect-false, with
    // the predicate register in the high byte.
    match i.guard {
        None => w.w(0),
        Some(g) => w.w(1 + g.expect as u32 + ((g.pred.0 as u32) << 8)),
    }
    use Opcode::*;
    match &i.op {
        Alu { kind, dst, a, b } => {
            w.header(T_ALU, dst.0, a.0, b.0);
            w.w(alu_code(*kind) as u32);
        }
        AluImm { kind, dst, a, imm } => {
            w.header(T_ALUI, dst.0, a.0, alu_code(*kind));
            w.w64(*imm);
        }
        Li { dst, imm } => {
            w.header(T_LI, dst.0, 0, 0);
            w.w64(*imm);
        }
        Mov { dst, src } => w.header(T_MOV, dst.0, src.0, 0),
        Shift { kind, dst, a, b } => w.header(T_SHIFT, dst.0, a.0, b.0 | ((*kind as u8) << 6)),
        ShiftImm { kind, dst, a, sh } => {
            w.header(T_SHIFTI, dst.0, a.0, *kind as u8);
            w.w(*sh as u32);
        }
        Load { dst, base, off } => {
            w.header(T_LOAD, dst.0, base.0, 0);
            w.w64(*off);
        }
        Store { src, base, off } => {
            w.header(T_STORE, src.0, base.0, 0);
            w.w64(*off);
        }
        FAlu { kind, dst, a, b } => {
            w.header(T_FALU, dst.0, a.0, b.0);
            w.w(*kind as u32);
        }
        FMov { dst, src } => w.header(T_FMOV, dst.0, src.0, 0),
        FLoad { dst, base, off } => {
            w.header(T_FLOAD, dst.0, base.0, 0);
            w.w64(*off);
        }
        FStore { src, base, off } => {
            w.header(T_FSTORE, src.0, base.0, 0);
            w.w64(*off);
        }
        ItoF { dst, src } => w.header(T_ITOF, dst.0, src.0, 0),
        FtoI { dst, src } => w.header(T_FTOI, dst.0, src.0, 0),
        SetP { cond, dst, a, b } => {
            w.header(T_SETP, dst.0, a.0, b.0);
            w.w(cond_code(*cond) as u32);
        }
        SetPImm { cond, dst, a, imm } => {
            w.header(T_SETPI, dst.0, a.0, cond_code(*cond));
            w.w64(*imm);
        }
        PLogic { kind, dst, a, b } => w.header(T_PLOGIC, dst.0, a.0, b.0 | ((*kind as u8) << 5)),
        PNot { dst, src } => w.header(T_PNOT, dst.0, src.0, 0),
        Branch {
            cond,
            target,
            likely,
        } => {
            let (code, ra, rb) = match cond {
                BranchCond::Eq(a, b) => (0u8, a.0, b.0),
                BranchCond::Ne(a, b) => (1, a.0, b.0),
                BranchCond::Lez(a) => (2, a.0, 0),
                BranchCond::Gtz(a) => (3, a.0, 0),
                BranchCond::Ltz(a) => (4, a.0, 0),
                BranchCond::Gez(a) => (5, a.0, 0),
                BranchCond::PredT(p) => (6, p.0, 0),
                BranchCond::PredF(p) => (7, p.0, 0),
            };
            w.header(T_BRANCH, ra, rb, code | ((*likely as u8) << 7));
            w.w(target.0);
        }
        Jump { target } => {
            w.header(T_JUMP, 0, 0, 0);
            w.w(target.0);
        }
        Jtab { index, table } => {
            w.header(T_JTAB, index.0, 0, 0);
            w.w(table.len() as u32);
            for t in table {
                w.w(t.0);
            }
        }
        Call { func } => {
            w.header(T_CALL, 0, 0, 0);
            w.w(func.0);
        }
        Ret => w.header(T_RET, 0, 0, 0),
        Halt => w.header(T_HALT, 0, 0, 0),
        Nop => w.header(T_NOP, 0, 0, 0),
    }
}

fn decode_insn(rd: &mut Reader) -> Result<Instruction, DecodeError> {
    let at = rd.pos;
    let gw = rd.r()?;
    let guard = match gw & 0xFF {
        0 => None,
        1 => Some(Guard {
            pred: PredReg(((gw >> 8) & 0xFF) as u8),
            expect: false,
        }),
        2 => Some(Guard {
            pred: PredReg(((gw >> 8) & 0xFF) as u8),
            expect: true,
        }),
        other => {
            return Err(DecodeError {
                at,
                msg: format!("bad guard marker {other}"),
            })
        }
    };
    let (op, a, b, c) = rd.header()?;
    use Opcode::*;
    let opcode = match op {
        T_ALU => {
            let (dst, ra, rb) = (IntReg(a), IntReg(b), IntReg(c));
            let kind = alu_kind(rd.r()? as u8, at)?;
            Alu {
                kind,
                dst,
                a: ra,
                b: rb,
            }
        }
        T_ALUI => {
            let kind = alu_kind(c, at)?;
            AluImm {
                kind,
                dst: IntReg(a),
                a: IntReg(b),
                imm: rd.r64()?,
            }
        }
        T_LI => Li {
            dst: IntReg(a),
            imm: rd.r64()?,
        },
        T_MOV => Mov {
            dst: IntReg(a),
            src: IntReg(b),
        },
        T_SHIFT => Shift {
            kind: shift_kind(c >> 6, at)?,
            dst: IntReg(a),
            a: IntReg(b),
            b: IntReg(c & 0x3F),
        },
        T_SHIFTI => {
            let kind = shift_kind(c, at)?;
            ShiftImm {
                kind,
                dst: IntReg(a),
                a: IntReg(b),
                sh: rd.r()? as u8,
            }
        }
        T_LOAD => Load {
            dst: IntReg(a),
            base: IntReg(b),
            off: rd.r64()?,
        },
        T_STORE => Store {
            src: IntReg(a),
            base: IntReg(b),
            off: rd.r64()?,
        },
        T_FALU => {
            let (dst, ra, rb) = (FltReg(a), FltReg(b), FltReg(c));
            let kind = falu_kind(rd.r()? as u8, at)?;
            FAlu {
                kind,
                dst,
                a: ra,
                b: rb,
            }
        }
        T_FMOV => FMov {
            dst: FltReg(a),
            src: FltReg(b),
        },
        T_FLOAD => FLoad {
            dst: FltReg(a),
            base: IntReg(b),
            off: rd.r64()?,
        },
        T_FSTORE => FStore {
            src: FltReg(a),
            base: IntReg(b),
            off: rd.r64()?,
        },
        T_ITOF => ItoF {
            dst: FltReg(a),
            src: IntReg(b),
        },
        T_FTOI => FtoI {
            dst: IntReg(a),
            src: FltReg(b),
        },
        T_SETP => {
            let (dst, ra, rb) = (PredReg(a), IntReg(b), IntReg(c));
            let cond = set_cond(rd.r()? as u8, at)?;
            SetP {
                cond,
                dst,
                a: ra,
                b: rb,
            }
        }
        T_SETPI => {
            let cond = set_cond(c, at)?;
            SetPImm {
                cond,
                dst: PredReg(a),
                a: IntReg(b),
                imm: rd.r64()?,
            }
        }
        T_PLOGIC => PLogic {
            kind: plogic_kind(c >> 5, at)?,
            dst: PredReg(a),
            a: PredReg(b),
            b: PredReg(c & 0x1F),
        },
        T_PNOT => PNot {
            dst: PredReg(a),
            src: PredReg(b),
        },
        T_BRANCH => {
            let likely = c & 0x80 != 0;
            let cond = match c & 0x7F {
                0 => BranchCond::Eq(IntReg(a), IntReg(b)),
                1 => BranchCond::Ne(IntReg(a), IntReg(b)),
                2 => BranchCond::Lez(IntReg(a)),
                3 => BranchCond::Gtz(IntReg(a)),
                4 => BranchCond::Ltz(IntReg(a)),
                5 => BranchCond::Gez(IntReg(a)),
                6 => BranchCond::PredT(PredReg(a)),
                7 => BranchCond::PredF(PredReg(a)),
                other => {
                    return Err(DecodeError {
                        at,
                        msg: format!("bad branch cond {other}"),
                    })
                }
            };
            Branch {
                cond,
                target: BlockId(rd.r()?),
                likely,
            }
        }
        T_JUMP => Jump {
            target: BlockId(rd.r()?),
        },
        T_JTAB => {
            let index = IntReg(a);
            let len = rd.r()? as usize;
            if len > 1 << 16 {
                return Err(DecodeError {
                    at,
                    msg: format!("jump table too large: {len}"),
                });
            }
            let mut table = Vec::with_capacity(len);
            for _ in 0..len {
                table.push(BlockId(rd.r()?));
            }
            Jtab { index, table }
        }
        T_CALL => Call {
            func: FuncId(rd.r()?),
        },
        T_RET => Ret,
        T_HALT => Halt,
        T_NOP => Nop,
        other => {
            return Err(DecodeError {
                at,
                msg: format!("unknown opcode tag {other}"),
            })
        }
    };
    Ok(Instruction { op: opcode, guard })
}

fn shift_kind(c: u8, at: usize) -> Result<ShiftKind, DecodeError> {
    Ok(match c {
        0 => ShiftKind::Sll,
        1 => ShiftKind::Srl,
        2 => ShiftKind::Sra,
        _ => {
            return Err(DecodeError {
                at,
                msg: format!("bad shift kind {c}"),
            })
        }
    })
}

fn falu_kind(c: u8, at: usize) -> Result<FAluKind, DecodeError> {
    Ok(match c {
        0 => FAluKind::Add,
        1 => FAluKind::Sub,
        2 => FAluKind::Mul,
        3 => FAluKind::Div,
        4 => FAluKind::Sqrt,
        _ => {
            return Err(DecodeError {
                at,
                msg: format!("bad falu kind {c}"),
            })
        }
    })
}

fn plogic_kind(c: u8, at: usize) -> Result<PLogicKind, DecodeError> {
    Ok(match c {
        0 => PLogicKind::And,
        1 => PLogicKind::Or,
        2 => PLogicKind::Xor,
        _ => {
            return Err(DecodeError {
                at,
                msg: format!("bad plogic kind {c}"),
            })
        }
    })
}

/// Serialize a program to its binary word stream.
pub fn encode_program(p: &Program) -> Vec<u32> {
    let mut w = Writer { words: Vec::new() };
    w.w(MAGIC);
    w.w(VERSION);
    w.w(p.entry.0);
    w.w64(p.mem_words as i64);
    w.w(p.data.len() as u32);
    for &(addr, value) in &p.data {
        w.w64(addr as i64);
        w.w64(value);
    }
    w.w(p.funcs.len() as u32);
    for f in &p.funcs {
        w.string(&f.name);
        w.w(f.blocks.len() as u32);
        for b in &f.blocks {
            w.string(&b.label);
            w.w(b.insns.len() as u32);
            for i in &b.insns {
                encode_insn(&mut w, i);
            }
        }
    }
    w.words
}

/// Deserialize a program from its binary word stream.
pub fn decode_program(words: &[u32]) -> Result<Program, DecodeError> {
    let mut rd = Reader { words, pos: 0 };
    if rd.r()? != MAGIC {
        return Err(DecodeError {
            at: 0,
            msg: "bad magic".into(),
        });
    }
    let version = rd.r()?;
    if version != VERSION {
        return Err(DecodeError {
            at: 1,
            msg: format!("unsupported version {version}"),
        });
    }
    let entry = FuncId(rd.r()?);
    let mem_words = rd.r64()? as u64;
    let ndata = rd.count(4)?;
    let mut data = Vec::with_capacity(ndata);
    for _ in 0..ndata {
        let addr = rd.r64()? as u64;
        let value = rd.r64()?;
        data.push((addr, value));
    }
    // A function is at least its name's length word and a block count.
    let nfuncs = rd.count(2)?;
    let mut funcs = Vec::with_capacity(nfuncs);
    for _ in 0..nfuncs {
        let name = rd.string()?;
        let mut f = Function::new(name);
        let nblocks = rd.r()? as usize;
        for _ in 0..nblocks {
            let label = rd.string()?;
            let mut blk = BasicBlock::new(label);
            let ninsns = rd.r()? as usize;
            for _ in 0..ninsns {
                blk.insns.push(decode_insn(&mut rd)?);
            }
            f.blocks.push(blk);
        }
        funcs.push(f);
    }
    Ok(Program {
        funcs,
        entry,
        data,
        mem_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::reg::{f, p, r};

    fn sample() -> Program {
        let mut fb = FuncBuilder::new("main");
        fb.block("entry");
        fb.li(r(1), 1 << 40); // wide immediate
        fb.addi(r(2), r(1), -7);
        fb.setpi(SetCond::Ge, p(3), r(2), 0);
        fb.cmov(r(4), r(2), p(3), false);
        fb.fadd(f(1), f(2), f(3));
        fb.fsw(f(1), r(1), -3);
        fb.bptl(p(3), "other");
        fb.block("mid");
        fb.jtab(r(2), &["entry", "mid", "other"]);
        fb.block("other");
        fb.halt();
        let mut pb = ProgramBuilder::new();
        pb.data_word(5, -123456789);
        pb.mem_words(1 << 20);
        pb.add_func(fb);
        pb.finish("main")
    }

    #[test]
    fn roundtrip_exact() {
        let prog = sample();
        let words = encode_program(&prog);
        let back = decode_program(&words).expect("decode");
        assert_eq!(back, prog);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut words = encode_program(&sample());
        words[0] = 0xDEAD_BEEF;
        assert!(decode_program(&words).is_err());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let words = encode_program(&sample());
        for cut in 1..words.len() {
            assert!(
                decode_program(&words[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn huge_counts_are_errors_not_allocations() {
        let words = encode_program(&sample());
        // Word 5 counts the data pairs; the function count follows them.
        let nfuncs_at = 6 + 4 * words[5] as usize;
        for at in [5, nfuncs_at] {
            let mut m = words.clone();
            m[at] = u32::MAX;
            let e = decode_program(&m).unwrap_err();
            assert!(e.msg.contains("exceeds the remaining stream"), "{}", e.msg);
        }
    }

    #[test]
    fn corrupt_opcode_rejected() {
        let prog = sample();
        let words = encode_program(&prog);
        // Flip every word to an invalid opcode tag and require either an
        // error or a different (never silently identical-but-wrong) result.
        let mut bad = 0;
        for i in 6..words.len() {
            let mut m = words.clone();
            m[i] = 0xFF;
            if decode_program(&m).is_err() {
                bad += 1;
            }
        }
        assert!(bad > 0, "some corruptions must be caught");
    }
}
