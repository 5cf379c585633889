//! Dynamic instruction trace recording, feeding the cycle-level simulator.
//!
//! The simulator is trace-driven on the *correct* path (the standard
//! technique for this class of study): the functional interpreter supplies
//! the retired instruction stream with branch outcomes and memory addresses;
//! the timing model fetches down *predicted* paths through the static code
//! and uses the trace to resolve branches, squashing wrong-path work.
//!
//! A recorded trace has one form, [`PackedTrace`]: the [`crate::tracefile`]
//! blob itself, about 1.1 bytes per entry.  [`PackedRecorder`] appends each
//! retired instruction's record to it as the interpreter runs, the harness
//! writes those bytes to its trace cache unchanged, and every simulator
//! reads them through its own decoding cursor ([`PackedTrace::iter`]).
//! [`TraceEntry`] is the decoded view of one record; a `Vec<TraceEntry>`
//! from [`trace_program`] is the unpacked reference form tests and the
//! per-cell path use.

use crate::exec::{Observer, RetireEvent};
use crate::layout::StaticLayout;
use crate::tracefile::{self, Packer, Strides};
use guardspec_ir::{Instruction, Program};

pub(crate) const F_TAKEN: u8 = 1 << 0;
pub(crate) const F_IS_BRANCH: u8 = 1 << 1;
pub(crate) const F_HAS_ADDR: u8 = 1 << 2;
pub(crate) const F_ANNULLED: u8 = 1 << 3;
/// Every flag bit a record can carry.
pub(crate) const KNOWN_FLAGS: u8 = F_TAKEN | F_IS_BRANCH | F_HAS_ADDR | F_ANNULLED;

/// One retired instruction, 12 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Dense static-site id (see [`StaticLayout`]).
    pub id: u32,
    /// Effective word address for memory ops (valid when `has_addr`, else 0).
    pub(crate) addr: u32,
    pub(crate) flags: u8,
}

impl TraceEntry {
    /// Encode a retirement event for static site `id`.
    pub fn from_retire(id: u32, ev: &RetireEvent) -> TraceEntry {
        let mut flags = 0u8;
        if let Some(t) = ev.taken {
            flags |= F_IS_BRANCH;
            if t {
                flags |= F_TAKEN;
            }
        }
        let mut addr = 0u32;
        if let Some(a) = ev.mem_addr {
            flags |= F_HAS_ADDR;
            addr = a.max(0) as u32;
        }
        if ev.annulled {
            flags |= F_ANNULLED;
        }
        TraceEntry { id, addr, flags }
    }

    /// Conditional-branch outcome, if this was a conditional branch.
    pub fn taken(&self) -> Option<bool> {
        (self.flags & F_IS_BRANCH != 0).then_some(self.flags & F_TAKEN != 0)
    }

    /// Effective word address for memory operations.
    pub fn mem_addr(&self) -> Option<u32> {
        (self.flags & F_HAS_ADDR != 0).then_some(self.addr)
    }

    /// Guard predicate was false; the instruction retired with no effect.
    pub fn annulled(&self) -> bool {
        self.flags & F_ANNULLED != 0
    }
}

/// A complete dynamic trace in packed form: the self-checking
/// [`crate::tracefile`] blob, header and checksum included.  Many
/// simulator instances can read one trace concurrently, each through its
/// own [`PackedIter`]; the bytes are never copied per consumer.
///
/// Built only by a [`PackedRecorder`], [`tracefile::pack`] or a successful
/// [`tracefile::decode`], so its records are always well formed.
pub struct PackedTrace {
    blob: Vec<u8>,
    len: u64,
}

impl std::fmt::Debug for PackedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedTrace")
            .field("len", &self.len)
            .field("bytes", &self.blob.len())
            .finish()
    }
}

impl PackedTrace {
    /// Wrap a blob whose records a packer wrote or decode validated.
    pub(crate) fn from_blob(blob: Vec<u8>, len: u64) -> PackedTrace {
        debug_assert_eq!(tracefile::header_count(&blob), len);
        PackedTrace { blob, len }
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decode every entry in order.
    pub fn iter(&self) -> PackedIter<'_> {
        PackedIter {
            bytes: &self.blob,
            pos: tracefile::HEADER_LEN,
            left: self.len,
            id: u32::MAX,
            run: 0,
            strides: Strides::default(),
        }
    }

    /// The blob: exactly the bytes the trace cache stores.
    pub fn blob(&self) -> &[u8] {
        &self.blob
    }

    /// Give up the trace for its blob.
    pub fn into_blob(self) -> Vec<u8> {
        self.blob
    }

    /// Heap bytes the trace holds.
    pub fn heap_bytes(&self) -> usize {
        self.blob.capacity()
    }
}

/// A decoding cursor over a [`PackedTrace`]'s records.  It trusts the
/// bytes: every way to build a `PackedTrace` writes or validates them.
pub struct PackedIter<'a> {
    /// The whole blob: the checksum trailer keeps a read one byte past the
    /// last record in bounds.
    bytes: &'a [u8],
    pos: usize,
    left: u64,
    /// The last entry's site id; `u32::MAX` (the format's −1) before the
    /// first.
    id: u32,
    /// Plain entries still to come from the current run byte.
    run: u8,
    strides: Strides,
}

impl PackedIter<'_> {
    /// The varint at the read position if `take`, else 0 with nothing
    /// consumed.  One-byte varints, nearly all of them, take no branch on
    /// `take`.
    #[inline(always)]
    fn varint_if(&mut self, take: bool) -> u64 {
        let b = self.bytes[self.pos];
        if take & (b >= 0x80) {
            return self.long_varint();
        }
        self.pos += take as usize;
        b as u64 & (take as u64).wrapping_neg()
    }

    /// A varint of two or more bytes at the read position.
    #[cold]
    #[inline(never)]
    fn long_varint(&mut self) -> u64 {
        let mut v = 0;
        for shift in (0..).step_by(7) {
            let b = self.bytes[self.pos];
            self.pos += 1;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                break;
            }
        }
        v
    }

    /// Decode the entry whose header byte is `head`.  Inside the engines'
    /// loops a data-dependent branch costs more than the arithmetic it
    /// saves, so `J`, `A` and `P` select values instead of branching.
    #[inline(always)]
    fn entry(&mut self, head: u8) -> TraceEntry {
        let jump = head & tracefile::JUMP != 0;
        let delta = self.varint_if(jump);
        self.id = self.id.wrapping_add(if jump {
            tracefile::unzigzag(delta) as u32
        } else {
            1
        });
        let has_addr = head & F_HAS_ADDR != 0;
        let miss = has_addr & (head & tracefile::PREDICTED == 0);
        let correction = tracefile::unzigzag(self.varint_if(miss));
        let addr = self.strides.predict(self.id) + correction;
        self.strides.record(self.id, addr, has_addr);
        TraceEntry {
            id: self.id,
            addr: if has_addr { addr as u32 } else { 0 },
            flags: head & KNOWN_FLAGS,
        }
    }
}

impl Iterator for PackedIter<'_> {
    type Item = TraceEntry;

    // Forced: inside the simulator's large hot loop the inliner otherwise
    // keeps this call out of line, which measured ~20% slower per entry.
    #[inline(always)]
    fn next(&mut self) -> Option<TraceEntry> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        if self.run == 0 {
            let head = self.bytes[self.pos];
            self.pos += 1;
            if head & tracefile::ENTRY != 0 {
                return Some(self.entry(head));
            }
            self.run = head;
        }
        self.run -= 1;
        self.id = self.id.wrapping_add(1);
        Some(TraceEntry {
            id: self.id,
            addr: 0,
            flags: 0,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.left as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for PackedIter<'_> {}

/// Observer that packs the dynamic trace as instructions retire — the
/// single-interpretation path behind the harness trace stage ("trace once,
/// simulate many").
pub struct PackedRecorder {
    layout: StaticLayout,
    packer: Packer,
}

impl PackedRecorder {
    pub fn new(prog: &Program) -> PackedRecorder {
        PackedRecorder {
            layout: StaticLayout::build(prog),
            packer: Packer::default(),
        }
    }

    /// The program's layout, which the trace's site ids index.
    pub fn layout(&self) -> &StaticLayout {
        &self.layout
    }

    /// Frame the records into the finished trace; `exec_digest` goes into
    /// the header verbatim (see [`tracefile::DecodedTrace::exec_digest`]).
    pub fn finish(self, exec_digest: u64) -> PackedTrace {
        self.packer.finish(&self.layout, exec_digest)
    }
}

impl Observer for PackedRecorder {
    fn on_retire(&mut self, _insn: &Instruction, ev: &RetireEvent) {
        self.packer
            .push(TraceEntry::from_retire(self.layout.id(ev.site), ev));
    }
}

/// Observer that records the full dynamic trace.
pub struct TraceRecorder {
    layout: StaticLayout,
    pub entries: Vec<TraceEntry>,
}

impl TraceRecorder {
    pub fn new(prog: &Program) -> TraceRecorder {
        TraceRecorder {
            layout: StaticLayout::build(prog),
            entries: Vec::new(),
        }
    }

    pub fn layout(&self) -> &StaticLayout {
        &self.layout
    }

    pub fn into_parts(self) -> (StaticLayout, Vec<TraceEntry>) {
        (self.layout, self.entries)
    }
}

impl Observer for TraceRecorder {
    fn on_retire(&mut self, _insn: &Instruction, ev: &RetireEvent) {
        self.entries
            .push(TraceEntry::from_retire(self.layout.id(ev.site), ev));
    }
}

/// Record the complete trace of a program run.
pub fn trace_program(
    prog: &Program,
) -> Result<(StaticLayout, Vec<TraceEntry>, crate::exec::ExecResult), crate::exec::ExecError> {
    let mut t = TraceRecorder::new(prog);
    let res = crate::exec::Interp::new(prog).run_with(&mut t)?;
    let (layout, entries) = t.into_parts();
    Ok((layout, entries, res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::{p, r};
    use guardspec_ir::SetCond;

    #[test]
    fn trace_is_complete_and_ordered() {
        let mut fb = FuncBuilder::new("t");
        fb.block("e");
        fb.li(r(1), 2);
        fb.block("loop");
        fb.subi(r(1), r(1), 1);
        fb.bgtz(r(1), "loop");
        fb.block("done");
        fb.sw(r(1), r(0), 5);
        fb.halt();
        let prog = single_func_program(fb);
        let (layout, entries, res) = trace_program(&prog).expect("runs");
        assert_eq!(entries.len() as u64, res.summary.retired);
        // li, (sub, bgtz) x2, sw, halt = 1 + 4 + 2
        assert_eq!(entries.len(), 7);
        // First branch taken, second not.
        let branches: Vec<bool> = entries.iter().filter_map(|e| e.taken()).collect();
        assert_eq!(branches, vec![true, false]);
        // Store address recorded.
        let store = entries.iter().find(|e| e.mem_addr().is_some()).unwrap();
        assert_eq!(store.mem_addr(), Some(5));
        // Trace ids are valid layout sites.
        for e in &entries {
            assert!((e.id as usize) < layout.num_sites());
        }
    }

    #[test]
    fn packed_recorder_matches_flat_recorder() {
        let mut fb = FuncBuilder::new("c");
        fb.block("e");
        fb.li(r(1), 3000);
        fb.block("loop");
        fb.subi(r(1), r(1), 1);
        fb.sw(r(1), r(0), 3);
        fb.bgtz(r(1), "loop");
        fb.block("done");
        fb.halt();
        let prog = single_func_program(fb);
        let (layout, flat, _) = trace_program(&prog).expect("runs");
        let mut rec = PackedRecorder::new(&prog);
        crate::exec::Interp::new(&prog).run_with(&mut rec).unwrap();
        let packed = rec.finish(5);
        assert_eq!(packed.len(), flat.len() as u64);
        assert_eq!(packed.iter().len(), flat.len());
        assert!(packed.iter().eq(flat.iter().copied()));
        // The recorder's bytes are the codec's bytes, with no slack.
        assert_eq!(packed.blob(), &tracefile::encode(&layout, &flat, 5)[..]);
        assert_eq!(packed.heap_bytes(), packed.blob().len());
        assert!(packed.blob().len() < flat.len() * 2);
    }

    #[test]
    fn annulled_flag_recorded() {
        let mut fb = FuncBuilder::new("a");
        fb.block("e");
        fb.setpi(SetCond::Gt, p(1), r(0), 5); // false
        fb.cmov(r(2), r(1), p(1), true); // annulled
        fb.halt();
        let prog = single_func_program(fb);
        let (_l, entries, _r) = trace_program(&prog).expect("runs");
        assert!(entries[1].annulled());
        assert!(!entries[0].annulled());
    }
}
