//! Textual assembly parsing — the inverse of [`crate::print`].
//!
//! Grammar (line oriented, `#` starts a comment):
//!
//! ```text
//! program  := directive* func*
//! directive:= ".mem_words" N | ".entry" NAME | ".data" ADDR ":" VALUE+
//! func     := "func" NAME ":" block*
//! block    := LABEL ":" insn*
//! insn     := guard? MNEMONIC operands
//! guard    := "(" "!"? PREG ")"
//! ```
//!
//! The directives carry the non-code program state (memory size, initial
//! memory image, entry point), so `Program::to_string` → `parse_program`
//! round-trips the *whole* program, not just its instructions.

use crate::insn::*;
use crate::program::*;
use crate::reg::*;
use std::collections::HashMap;
use std::fmt;

/// A parse failure with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

fn err<T>(line: usize, msg: impl Into<String>) -> PResult<T> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// Parse a whole program.  `entry` names the entry function (defaults to the
/// first function when `None`).
pub fn parse_program(src: &str, entry: Option<&str>) -> PResult<Program> {
    // Pass 1: split into functions.
    struct RawFunc<'a> {
        name: String,
        lines: Vec<(usize, &'a str)>,
    }
    let mut raw: Vec<RawFunc> = Vec::new();
    let mut data: Vec<(u64, i64)> = Vec::new();
    let mut mem_words: u64 = 1 << 16;
    let mut entry_directive: Option<String> = None;
    for (ln0, raw_line) in src.lines().enumerate() {
        let line = ln0 + 1;
        let text = match raw_line.find('#') {
            Some(i) => &raw_line[..i],
            None => raw_line,
        }
        .trim();
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = text.strip_prefix('.') {
            parse_directive(line, rest, &mut data, &mut mem_words, &mut entry_directive)?;
            continue;
        }
        if let Some(rest) = text.strip_prefix("func ") {
            let name = rest.trim_end_matches(':').trim();
            if name.is_empty() {
                return err(line, "empty function name");
            }
            raw.push(RawFunc {
                name: name.to_string(),
                lines: Vec::new(),
            });
        } else {
            match raw.last_mut() {
                Some(f) => f.lines.push((line, text)),
                None => return err(line, "instruction before any `func` header"),
            }
        }
    }
    if raw.is_empty() {
        return err(0, "no functions in source");
    }

    let func_ids: HashMap<String, FuncId> = raw
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), FuncId(i as u32)))
        .collect();

    let mut funcs = Vec::new();
    for rf in &raw {
        funcs.push(parse_func(&rf.name, &rf.lines, &func_ids)?);
    }

    // Explicit argument beats the `.entry` directive beats the first func.
    let entry_name = entry.or(entry_directive.as_deref()).unwrap_or(&raw[0].name);
    let entry = match func_ids.get(entry_name) {
        Some(id) => *id,
        None => return err(0, format!("entry function `{entry_name}` not found")),
    };
    Ok(Program {
        funcs,
        entry,
        data,
        mem_words,
    })
}

/// Parse a header directive (the leading `.` already stripped):
///
/// * `.mem_words N` — memory size in words,
/// * `.entry NAME` — entry function (overridden by an explicit caller arg),
/// * `.data ADDR: V ...` — initial memory words at consecutive addresses.
fn parse_directive(
    line: usize,
    rest: &str,
    data: &mut Vec<(u64, i64)>,
    mem_words: &mut u64,
    entry: &mut Option<String>,
) -> PResult<()> {
    let mut toks = rest.split_whitespace();
    match toks.next() {
        Some("mem_words") => {
            let n = toks
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| ParseError {
                    line,
                    msg: ".mem_words needs a word count".into(),
                })?;
            *mem_words = n;
        }
        Some("entry") => {
            let name = toks.next().ok_or_else(|| ParseError {
                line,
                msg: ".entry needs a function name".into(),
            })?;
            *entry = Some(name.to_string());
        }
        Some("data") => {
            let addr_tok = toks.next().ok_or_else(|| ParseError {
                line,
                msg: ".data needs an address".into(),
            })?;
            let addr = addr_tok
                .trim_end_matches(':')
                .parse::<u64>()
                .map_err(|_| ParseError {
                    line,
                    msg: format!(".data address `{addr_tok}` is not a number"),
                })?;
            let mut any = false;
            for (i, t) in toks.enumerate() {
                let v = t.parse::<i64>().map_err(|_| ParseError {
                    line,
                    msg: format!(".data value `{t}` is not a number"),
                })?;
                data.push((addr + i as u64, v));
                any = true;
            }
            if !any {
                return err(line, ".data needs at least one value");
            }
        }
        Some(other) => return err(line, format!("unknown directive `.{other}`")),
        None => return err(line, "empty directive"),
    }
    Ok(())
}

fn parse_func(
    name: &str,
    lines: &[(usize, &str)],
    func_ids: &HashMap<String, FuncId>,
) -> PResult<Function> {
    // Pass 1: labels.
    let mut labels: HashMap<String, BlockId> = HashMap::new();
    let mut nblocks = 0u32;
    for (line, text) in lines {
        if let Some(lbl) = as_label(text) {
            if labels.insert(lbl.to_string(), BlockId(nblocks)).is_some() {
                return err(*line, format!("duplicate label `{lbl}`"));
            }
            nblocks += 1;
        }
    }

    let mut f = Function::new(name);
    for (line, text) in lines {
        if let Some(lbl) = as_label(text) {
            f.blocks.push(BasicBlock::new(lbl));
            continue;
        }
        if f.blocks.is_empty() {
            return err(*line, "instruction before any label");
        }
        let insn = parse_insn(*line, text, &labels, func_ids)?;
        f.blocks.last_mut().unwrap().insns.push(insn);
    }
    if f.blocks.is_empty() {
        return err(0, format!("function `{name}` has no blocks"));
    }
    Ok(f)
}

fn as_label(text: &str) -> Option<&str> {
    let t = text.strip_suffix(':')?;
    if !t.is_empty() && !t.contains(char::is_whitespace) && !t.contains(',') {
        Some(t)
    } else {
        None
    }
}

fn parse_insn(
    line: usize,
    text: &str,
    labels: &HashMap<String, BlockId>,
    func_ids: &HashMap<String, FuncId>,
) -> PResult<Instruction> {
    let mut rest = text;
    // Optional guard prefix.
    let mut guard = None;
    if rest.starts_with('(') {
        let close = match rest.find(')') {
            Some(i) => i,
            None => return err(line, "unterminated guard"),
        };
        let inner = rest[1..close].trim();
        let (expect, pname) = match inner.strip_prefix('!') {
            Some(p) => (false, p.trim()),
            None => (true, inner),
        };
        let pred = parse_pred(line, pname)?;
        guard = Some(Guard { pred, expect });
        rest = rest[close + 1..].trim_start();
    }

    let (mnem, ops) = match rest.find(char::is_whitespace) {
        Some(i) => (&rest[..i], rest[i..].trim()),
        None => (rest, ""),
    };

    let args: Vec<String> = split_operands(ops);
    let a = |i: usize| -> PResult<&str> {
        args.get(i).map(|s| s.as_str()).ok_or(ParseError {
            line,
            msg: format!("missing operand {i} for `{mnem}`"),
        })
    };
    let nargs = args.len();
    let want = |n: usize| -> PResult<()> {
        if nargs != n {
            err(line, format!("`{mnem}` wants {n} operands, got {nargs}"))
        } else {
            Ok(())
        }
    };

    let ir = |line: usize, s: &str| parse_int_reg(line, s);
    let fr = |line: usize, s: &str| parse_flt_reg(line, s);
    let blk = |line: usize, s: &str| -> PResult<BlockId> {
        labels.get(s).copied().ok_or(ParseError {
            line,
            msg: format!("undefined label `{s}`"),
        })
    };

    use Opcode::*;
    let alu3 = |k: AluKind, line: usize, args: &[String]| -> PResult<Opcode> {
        Ok(Alu {
            kind: k,
            dst: ir(line, &args[0])?,
            a: ir(line, &args[1])?,
            b: ir(line, &args[2])?,
        })
    };
    let alui = |k: AluKind, line: usize, args: &[String]| -> PResult<Opcode> {
        Ok(AluImm {
            kind: k,
            dst: ir(line, &args[0])?,
            a: ir(line, &args[1])?,
            imm: parse_imm(line, &args[2])?,
        })
    };

    let op: Opcode = match mnem {
        "add" | "sub" | "and" | "or" | "xor" | "nor" | "slt" | "sltu" | "mul" => {
            want(3)?;
            alu3(alu_kind(mnem), line, &args)?
        }
        "addi" | "subi" | "andi" | "ori" | "xori" | "nori" | "slti" | "sltui" | "muli" => {
            want(3)?;
            alui(alu_kind(&mnem[..mnem.len() - 1]), line, &args)?
        }
        "li" => {
            want(2)?;
            Li {
                dst: ir(line, a(0)?)?,
                imm: parse_imm(line, a(1)?)?,
            }
        }
        "mov" => {
            want(2)?;
            Mov {
                dst: ir(line, a(0)?)?,
                src: ir(line, a(1)?)?,
            }
        }
        "sll" | "srl" | "sra" => {
            want(3)?;
            ShiftImm {
                kind: shift_kind(mnem),
                dst: ir(line, a(0)?)?,
                a: ir(line, a(1)?)?,
                sh: parse_imm(line, a(2)?)? as u8,
            }
        }
        "sllv" | "srlv" | "srav" => {
            want(3)?;
            Shift {
                kind: shift_kind(&mnem[..3]),
                dst: ir(line, a(0)?)?,
                a: ir(line, a(1)?)?,
                b: ir(line, a(2)?)?,
            }
        }
        "lw" => {
            want(2)?;
            let (off, base) = parse_mem(line, a(1)?)?;
            Load {
                dst: ir(line, a(0)?)?,
                base,
                off,
            }
        }
        "sw" => {
            want(2)?;
            let (off, base) = parse_mem(line, a(1)?)?;
            Store {
                src: ir(line, a(0)?)?,
                base,
                off,
            }
        }
        "fadd" | "fsub" | "fmul" | "fdiv" | "fsqrt" => {
            want(3)?;
            FAlu {
                kind: falu_kind(mnem),
                dst: fr(line, a(0)?)?,
                a: fr(line, a(1)?)?,
                b: fr(line, a(2)?)?,
            }
        }
        "fmov" => {
            want(2)?;
            FMov {
                dst: fr(line, a(0)?)?,
                src: fr(line, a(1)?)?,
            }
        }
        "flw" => {
            want(2)?;
            let (off, base) = parse_mem(line, a(1)?)?;
            FLoad {
                dst: fr(line, a(0)?)?,
                base,
                off,
            }
        }
        "fsw" => {
            want(2)?;
            let (off, base) = parse_mem(line, a(1)?)?;
            FStore {
                src: fr(line, a(0)?)?,
                base,
                off,
            }
        }
        "itof" => {
            want(2)?;
            ItoF {
                dst: fr(line, a(0)?)?,
                src: ir(line, a(1)?)?,
            }
        }
        "ftoi" => {
            want(2)?;
            FtoI {
                dst: ir(line, a(0)?)?,
                src: fr(line, a(1)?)?,
            }
        }
        _ if mnem.starts_with("setp.") => {
            want(3)?;
            let suffix = &mnem[5..];
            let (cond, is_imm) = match suffix.strip_suffix('i') {
                Some(c) if set_cond(c).is_some() => (set_cond(c).unwrap(), true),
                _ => match set_cond(suffix) {
                    Some(c) => (c, false),
                    None => return err(line, format!("bad setp condition `{suffix}`")),
                },
            };
            let dst = parse_pred(line, a(0)?)?;
            let ra = ir(line, a(1)?)?;
            if is_imm {
                SetPImm {
                    cond,
                    dst,
                    a: ra,
                    imm: parse_imm(line, a(2)?)?,
                }
            } else {
                SetP {
                    cond,
                    dst,
                    a: ra,
                    b: ir(line, a(2)?)?,
                }
            }
        }
        "pand" | "por" | "pxor" => {
            want(3)?;
            PLogic {
                kind: match mnem {
                    "pand" => PLogicKind::And,
                    "por" => PLogicKind::Or,
                    _ => PLogicKind::Xor,
                },
                dst: parse_pred(line, a(0)?)?,
                a: parse_pred(line, a(1)?)?,
                b: parse_pred(line, a(2)?)?,
            }
        }
        "pnot" => {
            want(2)?;
            PNot {
                dst: parse_pred(line, a(0)?)?,
                src: parse_pred(line, a(1)?)?,
            }
        }
        "beq" | "bne" | "beql" | "bnel" => {
            want(3)?;
            let likely = mnem.ends_with('l') && mnem.len() == 4;
            let (ra, rb) = (ir(line, a(0)?)?, ir(line, a(1)?)?);
            let cond = if mnem.starts_with("beq") {
                BranchCond::Eq(ra, rb)
            } else {
                BranchCond::Ne(ra, rb)
            };
            Branch {
                cond,
                target: blk(line, a(2)?)?,
                likely,
            }
        }
        "blez" | "bgtz" | "bltz" | "bgez" | "blezl" | "bgtzl" | "bltzl" | "bgezl" => {
            want(2)?;
            let likely = mnem.len() == 5;
            let base = &mnem[..4];
            let ra = ir(line, a(0)?)?;
            let cond = match base {
                "blez" => BranchCond::Lez(ra),
                "bgtz" => BranchCond::Gtz(ra),
                "bltz" => BranchCond::Ltz(ra),
                _ => BranchCond::Gez(ra),
            };
            Branch {
                cond,
                target: blk(line, a(1)?)?,
                likely,
            }
        }
        "bpt" | "bpf" | "bptl" | "bpfl" => {
            want(2)?;
            let likely = mnem.len() == 4;
            let p = parse_pred(line, a(0)?)?;
            let cond = if mnem.starts_with("bpt") {
                BranchCond::PredT(p)
            } else {
                BranchCond::PredF(p)
            };
            Branch {
                cond,
                target: blk(line, a(1)?)?,
                likely,
            }
        }
        "j" => {
            want(1)?;
            Jump {
                target: blk(line, a(0)?)?,
            }
        }
        "jtab" => {
            if nargs < 2 {
                return err(line, "`jtab` wants an index register and a label table");
            }
            let index = ir(line, a(0)?)?;
            let mut table = Vec::new();
            for lbl in &args[1..] {
                let l = lbl.trim_start_matches('[').trim_end_matches(']').trim();
                if l.is_empty() {
                    continue;
                }
                table.push(blk(line, l)?);
            }
            Jtab { index, table }
        }
        "call" => {
            want(1)?;
            let name = a(0)?;
            match func_ids.get(name) {
                Some(id) => Call { func: *id },
                None => return err(line, format!("call to undefined function `{name}`")),
            }
        }
        "ret" => {
            want(0)?;
            Ret
        }
        "halt" => {
            want(0)?;
            Halt
        }
        "nop" => {
            want(0)?;
            Nop
        }
        other => return err(line, format!("unknown mnemonic `{other}`")),
    };
    Ok(Instruction { op, guard })
}

fn alu_kind(m: &str) -> AluKind {
    match m {
        "add" => AluKind::Add,
        "sub" => AluKind::Sub,
        "and" => AluKind::And,
        "or" => AluKind::Or,
        "xor" => AluKind::Xor,
        "nor" => AluKind::Nor,
        "slt" => AluKind::Slt,
        "sltu" => AluKind::Sltu,
        "mul" => AluKind::Mul,
        _ => unreachable!("alu_kind({m})"),
    }
}

fn shift_kind(m: &str) -> ShiftKind {
    match m {
        "sll" => ShiftKind::Sll,
        "srl" => ShiftKind::Srl,
        _ => ShiftKind::Sra,
    }
}

fn falu_kind(m: &str) -> FAluKind {
    match m {
        "fadd" => FAluKind::Add,
        "fsub" => FAluKind::Sub,
        "fmul" => FAluKind::Mul,
        "fdiv" => FAluKind::Div,
        _ => FAluKind::Sqrt,
    }
}

fn set_cond(s: &str) -> Option<SetCond> {
    Some(match s {
        "eq" => SetCond::Eq,
        "ne" => SetCond::Ne,
        "lt" => SetCond::Lt,
        "le" => SetCond::Le,
        "gt" => SetCond::Gt,
        "ge" => SetCond::Ge,
        _ => return None,
    })
}

fn split_operands(s: &str) -> Vec<String> {
    s.split(',')
        .map(|t| t.trim().to_string())
        .filter(|t| !t.is_empty())
        .collect()
}

fn parse_int_reg(line: usize, s: &str) -> PResult<IntReg> {
    match s.strip_prefix('r').and_then(|n| n.parse::<u8>().ok()) {
        Some(i) if i < NUM_INT_REGS => Ok(IntReg(i)),
        _ => err(line, format!("bad integer register `{s}`")),
    }
}

fn parse_flt_reg(line: usize, s: &str) -> PResult<FltReg> {
    match s.strip_prefix('f').and_then(|n| n.parse::<u8>().ok()) {
        Some(i) if i < NUM_FLT_REGS => Ok(FltReg(i)),
        _ => err(line, format!("bad FP register `{s}`")),
    }
}

fn parse_pred(line: usize, s: &str) -> PResult<PredReg> {
    match s.strip_prefix('p').and_then(|n| n.parse::<u8>().ok()) {
        Some(i) if i < NUM_PRED_REGS => Ok(PredReg(i)),
        _ => err(line, format!("bad predicate register `{s}`")),
    }
}

fn parse_imm(line: usize, s: &str) -> PResult<i64> {
    let t = s.trim();
    let v = if let Some(hex) = t.strip_prefix("0x") {
        i64::from_str_radix(hex, 16).ok()
    } else if let Some(hex) = t.strip_prefix("-0x") {
        i64::from_str_radix(hex, 16).ok().map(|v| -v)
    } else {
        t.parse::<i64>().ok()
    };
    v.ok_or(ParseError {
        line,
        msg: format!("bad immediate `{s}`"),
    })
}

/// Parse `off(base)` memory operands.
fn parse_mem(line: usize, s: &str) -> PResult<(i64, IntReg)> {
    let open = s.find('(');
    let close = s.rfind(')');
    match (open, close) {
        (Some(o), Some(c)) if c > o => {
            let off = if o == 0 { 0 } else { parse_imm(line, &s[..o])? };
            let base = parse_int_reg(line, s[o + 1..c].trim())?;
            Ok((off, base))
        }
        _ => err(line, format!("bad memory operand `{s}`")),
    }
}
