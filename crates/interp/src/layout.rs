//! Dense numbering of static instruction sites.
//!
//! Both the profiler and the cycle-level simulator want a flat `u32` id per
//! static instruction, plus the pseudo-PC the branch-prediction structures
//! hash on.  Ids are assigned in layout order (function, block, index), so
//! `id + 1` is the next instruction in fetch order within a block.

use guardspec_ir::{BlockId, FuncId, InsnRef, Program};

/// Layout table mapping `InsnRef` <-> dense id <-> pseudo-PC.
///
/// `id()` is on the retire path of both the profiler and the trace
/// recorder (once per dynamic instruction), so it is pure arithmetic over
/// a dense per-function table of block-start ids — no hashing.
#[derive(Clone, Debug)]
pub struct StaticLayout {
    sites: Vec<InsnRef>,
    /// `starts[func][block]` = first dense id of that block (empty blocks
    /// get the id the next instruction would have).
    starts: Vec<Vec<u32>>,
}

impl StaticLayout {
    pub fn build(prog: &Program) -> StaticLayout {
        let mut sites = Vec::with_capacity(prog.num_insns());
        let mut starts = Vec::new();
        for (fid, f) in prog.iter_funcs() {
            let mut fstarts = Vec::new();
            for (bid, b) in f.iter_blocks() {
                fstarts.push(sites.len() as u32);
                for idx in 0..b.insns.len() {
                    sites.push(InsnRef {
                        func: fid,
                        block: bid,
                        idx: idx as u32,
                    });
                }
            }
            starts.push(fstarts);
        }
        StaticLayout { sites, starts }
    }

    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    pub fn id(&self, site: InsnRef) -> u32 {
        self.starts[site.func.index()][site.block.index()] + site.idx
    }

    pub fn site(&self, id: u32) -> InsnRef {
        self.sites[id as usize]
    }

    /// Dense id of the first instruction of a block (empty blocks get the
    /// id the next instruction would have).
    pub fn block_start(&self, func: FuncId, block: BlockId) -> u32 {
        self.starts[func.index()][block.index()]
    }

    /// Pseudo program counter: 4 bytes per instruction starting at 0x1000,
    /// matching [`Program::assign_pcs`].
    pub fn pc(&self, id: u32) -> u64 {
        0x1000 + 4 * id as u64
    }

    pub fn pc_of(&self, site: InsnRef) -> u64 {
        self.pc(self.id(site))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::r;

    #[test]
    fn ids_are_dense_and_layout_ordered() {
        let mut fb = FuncBuilder::new("m");
        fb.block("a");
        fb.li(r(1), 1);
        fb.li(r(2), 2);
        fb.block("b");
        fb.halt();
        let prog = single_func_program(fb);
        let lay = StaticLayout::build(&prog);
        assert_eq!(lay.num_sites(), 3);
        for i in 0..3 {
            assert_eq!(lay.id(lay.site(i)), i);
        }
        assert_eq!(lay.block_start(FuncId(0), BlockId(0)), 0);
        assert_eq!(lay.block_start(FuncId(0), BlockId(1)), 2);
        assert_eq!(lay.pc(0), 0x1000);
        assert_eq!(lay.pc(2), 0x1008);
    }

    #[test]
    fn pcs_agree_with_program_assignment() {
        let mut fb = FuncBuilder::new("m");
        fb.block("a");
        fb.li(r(1), 1);
        fb.block("b");
        fb.halt();
        let prog = single_func_program(fb);
        let lay = StaticLayout::build(&prog);
        let pcs = prog.assign_pcs();
        for i in 0..lay.num_sites() as u32 {
            assert_eq!(lay.pc(i), pcs.pc(lay.site(i)));
        }
    }
}
