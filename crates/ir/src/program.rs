//! Program structure: blocks, functions, whole programs.

use crate::insn::{Instruction, Opcode};

/// Index of a basic block within its function's layout order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BlockId(pub u32);

impl BlockId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a function within a program.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FuncId(pub u32);

impl FuncId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A stable reference to one static instruction site.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct InsnRef {
    pub func: FuncId,
    pub block: BlockId,
    pub idx: u32,
}

/// A basic block: a label, straight-line instructions, and (as the last
/// instruction) an optional control transfer.  A block whose last
/// instruction is not an unconditional exit falls through to the next block
/// in layout order.
#[derive(Clone, PartialEq, Debug)]
pub struct BasicBlock {
    pub label: String,
    pub insns: Vec<Instruction>,
}

impl BasicBlock {
    pub fn new(label: impl Into<String>) -> BasicBlock {
        BasicBlock {
            label: label.into(),
            insns: Vec::new(),
        }
    }

    /// The control-flow instruction ending the block, if any.
    pub fn terminator(&self) -> Option<&Instruction> {
        self.insns.last().filter(|i| i.is_control())
    }

    /// Mutable access to the terminator.
    pub fn terminator_mut(&mut self) -> Option<&mut Instruction> {
        self.insns.last_mut().filter(|i| i.is_control())
    }

    /// The straight-line body: all instructions except a trailing terminator.
    pub fn body(&self) -> &[Instruction] {
        match self.terminator() {
            Some(_) => &self.insns[..self.insns.len() - 1],
            None => &self.insns[..],
        }
    }

    /// Number of instructions in the straight-line body.
    pub fn body_len(&self) -> usize {
        self.body().len()
    }

    /// True if this block can fall through to the next block in layout.
    pub fn falls_through(&self) -> bool {
        match self.insns.last() {
            Some(i) => !i.is_unconditional_exit(),
            None => true,
        }
    }
}

/// A function: an entry block (always block 0) plus a layout-ordered list of
/// basic blocks.
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    pub name: String,
    pub blocks: Vec<BasicBlock>,
}

impl Function {
    pub fn new(name: impl Into<String>) -> Function {
        Function {
            name: name.into(),
            blocks: Vec::new(),
        }
    }

    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterate `(BlockId, &BasicBlock)` in layout order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Find a block by label.
    pub fn block_by_label(&self, label: &str) -> Option<BlockId> {
        self.blocks
            .iter()
            .position(|b| b.label == label)
            .map(|i| BlockId(i as u32))
    }

    /// Total static instruction count.
    pub fn num_insns(&self) -> usize {
        self.blocks.iter().map(|b| b.insns.len()).sum()
    }

    /// Successor block ids of `id`, fall-through first (when present).
    /// `Jtab` successors appear in table order, deduplicated.
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        let b = self.block(id);
        let mut out = Vec::new();
        if b.falls_through() {
            let next = BlockId(id.0 + 1);
            if next.index() < self.blocks.len() {
                out.push(next);
            }
        }
        if let Some(t) = b.terminator() {
            for s in t.targets() {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Generate a label not currently used by any block.
    pub fn fresh_label(&self, stem: &str) -> String {
        let mut n = 0usize;
        loop {
            let cand = format!("{stem}{n}");
            if self.block_by_label(&cand).is_none() {
                return cand;
            }
            n += 1;
        }
    }
}

/// A whole program: functions plus static data to preload into memory and
/// the number of memory words the program needs.
#[derive(Clone, PartialEq, Debug)]
pub struct Program {
    pub funcs: Vec<Function>,
    /// Function executed first.
    pub entry: FuncId,
    /// `(word_address, value)` pairs loaded into memory before execution.
    pub data: Vec<(u64, i64)>,
    /// Memory size in words; addresses are word-granular.
    pub mem_words: u64,
}

impl Program {
    pub fn new() -> Program {
        Program {
            funcs: Vec::new(),
            entry: FuncId(0),
            data: Vec::new(),
            mem_words: 1 << 16,
        }
    }

    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    /// Iterate `(FuncId, &Function)`.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Total static instruction count across all functions.
    pub fn num_insns(&self) -> usize {
        self.funcs.iter().map(|f| f.num_insns()).sum()
    }

    /// Look up an instruction by reference.
    pub fn insn(&self, r: InsnRef) -> &Instruction {
        &self.funcs[r.func.index()].blocks[r.block.index()].insns[r.idx as usize]
    }

    /// Assign a unique pseudo-PC (byte address) to every static instruction
    /// site, in layout order, 4 bytes apart — what the branch-prediction
    /// tables index with.  Returns a map keyed by `InsnRef`.
    pub fn assign_pcs(&self) -> PcMap {
        let mut map = std::collections::HashMap::new();
        let mut pc = 0x1000u64;
        for (fid, f) in self.iter_funcs() {
            for (bid, b) in f.iter_blocks() {
                for idx in 0..b.insns.len() {
                    map.insert(
                        InsnRef {
                            func: fid,
                            block: bid,
                            idx: idx as u32,
                        },
                        pc,
                    );
                    pc += 4;
                }
            }
        }
        PcMap { map }
    }
}

impl Default for Program {
    fn default() -> Program {
        Program::new()
    }
}

/// Pseudo program-counter assignment for static instruction sites.
#[derive(Clone, Debug)]
pub struct PcMap {
    map: std::collections::HashMap<InsnRef, u64>,
}

impl PcMap {
    pub fn pc(&self, r: InsnRef) -> u64 {
        self.map[&r]
    }

    pub fn get(&self, r: InsnRef) -> Option<u64> {
        self.map.get(&r).copied()
    }
}

/// Convenience: classify a branch at block `b` in function `f` as forward
/// (target later in layout order) or backward (target at or before `b` —
/// a loop latch).  The paper's Figure-6 algorithm branches on this.
pub fn is_backward_branch(block: BlockId, i: &Instruction) -> Option<bool> {
    match &i.op {
        Opcode::Branch { target, .. } => Some(target.0 <= block.0),
        _ => None,
    }
}
