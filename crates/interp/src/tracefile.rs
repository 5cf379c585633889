//! The packed trace format: one byte layout that is both the in-memory
//! trace every simulator reads and the blob the harness trace cache
//! stores — "trace once, simulate many" with no second representation.
//!
//! The harness caches one blob per distinct (program text, scale) so warm
//! experiment runs skip functional interpretation entirely.  Traces are
//! large (millions of entries at paper scale), so the format is built for
//! size and sequential decode speed rather than generality.  A blob is a
//! fixed header carrying a format magic/version, the producing
//! [`StaticLayout`]'s site count and digest, an opaque caller-supplied
//! execution digest and the exact entry count; then the records; then a
//! 64-bit FNV-1a checksum over **everything before it** (header included),
//! so any single corrupted byte fails decode loudly.
//!
//! # Records (version 2)
//!
//! Each record starts with one byte:
//!
//! | byte | meaning | bytes that follow |
//! |---|---|---|
//! | `0nnnnnnn`, n = 1..=127 | a run of n *plain* entries: each has id = previous id + 1, no flags, no address | none |
//! | `1 0 P J N A B T` | one entry with flags `N A B T` ([`TraceEntry`]'s annulled, has-address, is-branch and taken bits) | if `J`: the zigzag varint of id − previous id (otherwise the id is previous + 1); then if `A` and not `P`: the zigzag varint of address − prediction |
//!
//! Bit 6 of an entry header is reserved and zero.  The first entry's
//! "previous id" is −1, so a trace that starts at site 0 starts with a run.
//!
//! **Address prediction.**  Memory entries predict their address from
//! their own site's history: slot `id % 256` holds the last address `L`
//! and the stride `S` seen there, both starting at 0.  The prediction is
//! `L + S`; after address `a` the slot becomes `S = a − L`, `L = a`.  A
//! correctly predicted address sets `P` and costs no bytes.  The table has
//! a fixed size, so nothing is allocated from header fields.
//!
//! **Density.**  Plain entries are half of a typical trace, and a run of
//! them costs one byte per 127; a load or store on its site's stride costs
//! its header byte, a branch one byte unless it jumps.  The eight
//! paper-scale Table-3 traces (14.9 M entries) pack to 15.8 MB, 1.06 bytes
//! per entry, against 12 for a [`TraceEntry`].  The packer is a
//! deterministic function of the entries (greedy runs, a fresh predictor
//! per trace), so re-encoding a decoded trace reproduces its blob byte for
//! byte.
//!
//! # Packing and validation
//!
//! One packer appends records as instructions retire (the
//! [`crate::trace::PackedRecorder`] observer) and frames the result into a
//! [`PackedTrace`]; [`pack`] and [`encode`] run it over an entry sequence.
//! [`decode`] never trusts its input and materialises nothing: one
//! validating walk, O(1) per record, checks the checksum, then every
//! record — reserved bit, `P` without `A`, `T` without `B`, empty runs,
//! runs past the entry count, ids or runs reaching the site count,
//! addresses outside `0..=u32::MAX` — and the trailing bytes, then hands
//! the bytes back as a [`PackedTrace`].  Each failure is a
//! [`TraceFileError`], which cache consumers treat as a miss (re-interpret
//! and overwrite — the same recovery discipline as the JSON stage caches);
//! blobs of another version fail with [`TraceFileError::BadVersion`] and
//! are recorded again once.  Only bytes that passed that walk (or that a
//! packer wrote) ever reach the trusting decoder behind
//! [`PackedTrace::iter`].

use crate::layout::StaticLayout;
use crate::trace::{PackedTrace, TraceEntry, F_HAS_ADDR, F_IS_BRANCH, F_TAKEN};
use std::borrow::{Borrow, Cow};
use std::fmt;

/// `"GSTF"` — guardspec trace file.
pub const MAGIC: [u8; 4] = *b"GSTF";
/// Bumped on any incompatible format change; old blobs then decode-fail
/// and are re-recorded.
pub const VERSION: u16 = 2;

/// Bytes before the first record.
pub const HEADER_LEN: usize = 4 + 2 + 2 + 4 + 8 + 8 + 8;
/// Bytes after the last record.
pub const CHECKSUM_LEN: usize = 8;
/// Byte offset of the header's entry count.
const COUNT_AT: usize = HEADER_LEN - 8;

/// Set on an entry header; clear on a run byte.
pub(crate) const ENTRY: u8 = 1 << 7;
/// Reserved entry-header bit; always zero.
const RESERVED: u8 = 1 << 6;
/// The address is its site's prediction; no address bytes follow.
pub(crate) const PREDICTED: u8 = 1 << 5;
/// An id delta follows; otherwise the id is the previous one + 1.
pub(crate) const JUMP: u8 = 1 << 4;
/// The longest run one byte holds.
const MAX_RUN: u8 = 127;

/// Why a blob failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceFileError {
    Truncated,
    BadMagic,
    BadVersion(u16),
    BadChecksum {
        want: u64,
        got: u64,
    },
    /// An entry header with the reserved bit, `P` without `A`, or `T`
    /// without `B`.
    BadEntry {
        index: u64,
    },
    /// A run byte of 0, or a run longer than the entries that remain.
    BadRun {
        index: u64,
        len: u8,
    },
    AddressOutOfRange {
        index: u64,
        addr: i64,
    },
    SiteOutOfRange {
        index: u64,
        id: u64,
        num_sites: u32,
    },
    TrailingBytes(usize),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Truncated => write!(f, "trace blob truncated"),
            TraceFileError::BadMagic => write!(f, "not a trace blob (bad magic)"),
            TraceFileError::BadVersion(v) => write!(f, "unsupported trace format version {v}"),
            TraceFileError::BadChecksum { want, got } => {
                write!(
                    f,
                    "trace checksum mismatch: stored {want:016x}, computed {got:016x}"
                )
            }
            TraceFileError::BadEntry { index } => write!(f, "malformed trace entry {index}"),
            TraceFileError::BadRun { index, len } => {
                write!(f, "trace entry {index}: bad run of {len}")
            }
            TraceFileError::AddressOutOfRange { index, addr } => {
                write!(f, "trace entry {index}: address {addr} out of range")
            }
            TraceFileError::SiteOutOfRange {
                index,
                id,
                num_sites,
            } => write!(
                f,
                "trace entry {index}: site id {id} out of range (layout has {num_sites})"
            ),
            TraceFileError::TrailingBytes(n) => write!(f, "{n} trailing bytes after trace"),
        }
    }
}

impl std::error::Error for TraceFileError {}

/// A successfully validated blob: the header fields a consumer should
/// verify against its own layout/run, plus the trace itself.
#[derive(Debug)]
pub struct DecodedTrace {
    /// Site count of the layout the trace was recorded against; every
    /// entry's site id is below it.
    pub num_sites: u32,
    /// [`layout_digest`] of that layout.
    pub layout_digest: u64,
    /// Opaque caller digest stored at encode time (e.g. a hash of the
    /// run's golden memory results).
    pub exec_digest: u64,
    pub trace: PackedTrace,
}

/// 64-bit FNV-1a (stable across runs/platforms; fast enough to be
/// invisible next to varint coding).
fn fnv64(state: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut s = state;
    for &b in bytes {
        s ^= b as u64;
        s = s.wrapping_mul(PRIME);
    }
    s
}
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The checksum a blob whose checksummed prefix is `bytes` must end with.
pub fn checksum(bytes: &[u8]) -> u64 {
    fnv64(FNV_OFFSET, bytes)
}

/// A stable digest of the layout geometry (site count + per-block start
/// ids), so a blob recorded against a different program shape can never be
/// replayed silently even if site ids happen to stay in range.
pub fn layout_digest(layout: &StaticLayout) -> u64 {
    let mut s = fnv64(FNV_OFFSET, &(layout.num_sites() as u64).to_le_bytes());
    for id in 0..layout.num_sites() as u32 {
        let site = layout.site(id);
        s = fnv64(
            s,
            &[
                site.func.0.to_le_bytes(),
                site.block.0.to_le_bytes(),
                site.idx.to_le_bytes(),
            ]
            .concat(),
        );
    }
    s
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The per-site address predictor: slot `id % 256` holds the last
/// address and stride seen there (see the module docs).
pub(crate) struct Strides(Box<[(i64, i64); 256]>);

impl Default for Strides {
    fn default() -> Strides {
        Strides(Box::new([(0, 0); 256]))
    }
}

impl Strides {
    /// The predicted address of the next memory entry at site `id`.
    #[inline(always)]
    pub(crate) fn predict(&self, id: u32) -> i64 {
        let (last, stride) = self.0[id as u8 as usize];
        last + stride
    }

    /// Record that site `id` accessed `addr`, if `accessed`.  A select
    /// rather than a branch, so the trusting decoder can call it for every
    /// entry record.
    #[inline(always)]
    pub(crate) fn record(&mut self, id: u32, addr: i64, accessed: bool) {
        let slot = &mut self.0[id as u8 as usize];
        *slot = if accessed {
            (addr, addr - slot.0)
        } else {
            *slot
        };
    }
}

/// Appends packed records to a growing blob whose header is written last.
pub(crate) struct Packer {
    out: Vec<u8>,
    count: u64,
    prev_id: i64,
    /// Entries in the run whose byte ends `out`; 0 when the last record is
    /// an entry header.
    run: u8,
    strides: Strides,
}

impl Default for Packer {
    fn default() -> Packer {
        Packer {
            out: vec![0; HEADER_LEN],
            count: 0,
            prev_id: -1,
            run: 0,
            strides: Strides::default(),
        }
    }
}

impl Packer {
    /// Append one entry: to the open run if it is plain, else as an entry
    /// record.
    #[inline]
    pub(crate) fn push(&mut self, e: TraceEntry) {
        self.count += 1;
        let id_delta = e.id as i64 - self.prev_id;
        self.prev_id = e.id as i64;
        if id_delta == 1 && e.flags == 0 {
            if self.run == 0 || self.run == MAX_RUN {
                self.out.push(1);
                self.run = 1;
            } else {
                *self.out.last_mut().expect("a run byte is open") += 1;
                self.run += 1;
            }
            return;
        }
        self.run = 0;
        let mut head = ENTRY | e.flags;
        let mut addr_miss = 0;
        if e.flags & F_HAS_ADDR != 0 {
            addr_miss = e.addr as i64 - self.strides.predict(e.id);
            self.strides.record(e.id, e.addr as i64, true);
            if addr_miss == 0 {
                head |= PREDICTED;
            }
        }
        if id_delta != 1 {
            head |= JUMP;
        }
        self.out.push(head);
        if id_delta != 1 {
            push_varint(&mut self.out, zigzag(id_delta));
        }
        if addr_miss != 0 {
            push_varint(&mut self.out, zigzag(addr_miss));
        }
    }

    /// Write the header for a trace recorded against `layout`, append the
    /// checksum, and hand the blob over as the trace.  `exec_digest` is
    /// stored verbatim for the consumer to interpret.
    pub(crate) fn finish(self, layout: &StaticLayout, exec_digest: u64) -> PackedTrace {
        let Packer { mut out, count, .. } = self;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes()); // reserved flags
        header.extend_from_slice(&(layout.num_sites() as u32).to_le_bytes());
        header.extend_from_slice(&layout_digest(layout).to_le_bytes());
        header.extend_from_slice(&exec_digest.to_le_bytes());
        header.extend_from_slice(&count.to_le_bytes());
        out[..HEADER_LEN].copy_from_slice(&header);
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out.shrink_to_fit();
        PackedTrace::from_blob(out, count)
    }
}

/// Pack an entry sequence recorded against `layout` into a trace.
pub fn pack(
    layout: &StaticLayout,
    entries: impl IntoIterator<Item = impl Borrow<TraceEntry>>,
    exec_digest: u64,
) -> PackedTrace {
    let mut p = Packer::default();
    for e in entries {
        p.push(*e.borrow());
    }
    p.finish(layout, exec_digest)
}

/// Encode an entry sequence into a self-checking blob: the bytes of
/// [`pack`]'s trace.
pub fn encode(
    layout: &StaticLayout,
    entries: impl IntoIterator<Item = impl Borrow<TraceEntry>>,
    exec_digest: u64,
) -> Vec<u8> {
    pack(layout, entries, exec_digest).into_blob()
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes(b.try_into().unwrap())
}
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().unwrap())
}
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().unwrap())
}

/// The entry count a well-formed blob's header carries.
pub(crate) fn header_count(blob: &[u8]) -> u64 {
    le_u64(&blob[COUNT_AT..HEADER_LEN])
}

/// Read one varint at `*pos`, failing on a missing byte or more than ten.
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceFileError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *bytes.get(*pos).ok_or(TraceFileError::Truncated)?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(TraceFileError::Truncated)
}

/// Validate a blob produced by [`encode`] or a [`PackedTrace`]: checksum,
/// header, and every record, without materialising an entry.  A borrowed
/// blob is copied once on success; an owned one is kept as is.
pub fn decode<'a>(bytes: impl Into<Cow<'a, [u8]>>) -> Result<DecodedTrace, TraceFileError> {
    let bytes = bytes.into();
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(TraceFileError::Truncated);
    }
    // Checksum first: covers header + body, stored in the final 8 bytes.
    let body_end = bytes.len() - CHECKSUM_LEN;
    let want = le_u64(&bytes[body_end..]);
    let got = checksum(&bytes[..body_end]);
    if want != got {
        return Err(TraceFileError::BadChecksum { want, got });
    }
    if bytes[..4] != MAGIC {
        return Err(TraceFileError::BadMagic);
    }
    let version = le_u16(&bytes[4..6]);
    if version != VERSION {
        return Err(TraceFileError::BadVersion(version));
    }
    let num_sites = le_u32(&bytes[8..12]);
    let layout_digest = le_u64(&bytes[12..20]);
    let exec_digest = le_u64(&bytes[20..28]);
    let count = header_count(&bytes);

    let body = &bytes[..body_end];
    let mut pos = HEADER_LEN;
    let mut index = 0u64;
    let mut prev_id = -1i64;
    let mut strides = Strides::default();
    let out_of_range = |index, id: i64| TraceFileError::SiteOutOfRange {
        index,
        id: id as u64,
        num_sites,
    };
    while index < count {
        let head = *body.get(pos).ok_or(TraceFileError::Truncated)?;
        pos += 1;
        if head & ENTRY == 0 {
            let len = head;
            if len == 0 || len as u64 > count - index {
                return Err(TraceFileError::BadRun { index, len });
            }
            let last = prev_id + len as i64;
            if last >= num_sites as i64 {
                // Name the run's first entry at the site count.
                let at = index + (num_sites as i64 - prev_id - 1) as u64;
                return Err(out_of_range(at, num_sites as i64));
            }
            prev_id = last;
            index += len as u64;
            continue;
        }
        // TAKEN without IS_BRANCH is a state no retirement produces.
        if head & RESERVED != 0
            || head & (PREDICTED | F_HAS_ADDR) == PREDICTED
            || head & (F_TAKEN | F_IS_BRANCH) == F_TAKEN
        {
            return Err(TraceFileError::BadEntry { index });
        }
        let mut id = prev_id + 1;
        if head & JUMP != 0 {
            id = prev_id.saturating_add(unzigzag(read_varint(body, &mut pos)?));
        }
        if id < 0 || id >= num_sites as i64 {
            return Err(out_of_range(index, id));
        }
        prev_id = id;
        if head & F_HAS_ADDR != 0 {
            let mut addr = strides.predict(id as u32);
            if head & PREDICTED == 0 {
                addr = addr.saturating_add(unzigzag(read_varint(body, &mut pos)?));
            }
            if !(0..=u32::MAX as i64).contains(&addr) {
                return Err(TraceFileError::AddressOutOfRange { index, addr });
            }
            strides.record(id as u32, addr, true);
        }
        index += 1;
    }
    if pos != body_end {
        return Err(TraceFileError::TrailingBytes(body_end - pos));
    }
    let mut blob = bytes.into_owned();
    blob.shrink_to_fit();
    Ok(DecodedTrace {
        num_sites,
        layout_digest,
        exec_digest,
        trace: PackedTrace::from_blob(blob, count),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{trace_program, F_ANNULLED};
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::r;

    fn sample_program() -> guardspec_ir::Program {
        let mut fb = FuncBuilder::new("s");
        fb.block("e");
        fb.li(r(1), 700);
        fb.block("loop");
        fb.subi(r(1), r(1), 1);
        fb.sw(r(1), r(0), 3);
        fb.lw(r(2), r(1), 9);
        fb.addi(r(3), r(3), 1);
        fb.addi(r(4), r(4), 1);
        fb.bgtz(r(1), "loop");
        fb.block("done");
        fb.halt();
        single_func_program(fb)
    }

    fn sample_blob() -> (StaticLayout, Vec<TraceEntry>, Vec<u8>) {
        let prog = sample_program();
        let (layout, entries, _) = trace_program(&prog).expect("runs");
        let blob = encode(&layout, &entries, 0xfeed_beef);
        (layout, entries, blob)
    }

    /// A layout of `n` straight-line sites.
    fn line_layout(n: usize) -> StaticLayout {
        let mut fb = FuncBuilder::new("line");
        fb.block("e");
        for _ in 1..n {
            fb.addi(r(1), r(1), 1);
        }
        fb.halt();
        StaticLayout::build(&single_func_program(fb))
    }

    /// Re-frame `blob` with its header patched by `edit` and a fresh
    /// checksum, so only the header check can reject it.
    fn reframed(blob: &[u8], edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut b = blob[..blob.len() - CHECKSUM_LEN].to_vec();
        edit(&mut b);
        let sum = checksum(&b);
        b.extend_from_slice(&sum.to_le_bytes());
        b
    }

    /// Frame hand-written records claiming `count` entries over `sites`
    /// sites, with a valid checksum.
    fn framed(sites: usize, count: u64, records: &[u8]) -> Vec<u8> {
        let mut out = vec![0; HEADER_LEN];
        out.extend_from_slice(records);
        let p = Packer {
            out,
            count,
            ..Packer::default()
        };
        p.finish(&line_layout(sites), 0).into_blob()
    }

    fn entry(id: u32, flags: u8, addr: u32) -> TraceEntry {
        TraceEntry { id, addr, flags }
    }

    /// Decode `blob` back to its entries.
    fn entries_of(blob: &[u8]) -> Vec<TraceEntry> {
        decode(blob).expect("decodes").trace.iter().collect()
    }

    #[test]
    fn roundtrip_preserves_every_entry_header_and_byte() {
        let (layout, entries, blob) = sample_blob();
        // Two iterations of 8 and 9 bytes while the strides settle, then 6
        // a round: the jump back (2), the store and the load on their
        // strides (1 each), a run byte for the adds, the branch; then halt.
        assert_eq!(blob.len(), HEADER_LEN + 8 + 9 + 698 * 6 + 1 + CHECKSUM_LEN);
        let d = decode(&blob).expect("decodes");
        assert_eq!(d.num_sites, layout.num_sites() as u32);
        assert_eq!(d.layout_digest, layout_digest(&layout));
        assert_eq!(d.exec_digest, 0xfeed_beef);
        assert_eq!(d.trace.len(), entries.len() as u64);
        assert!(d.trace.iter().eq(entries.iter().copied()));
        assert_eq!(d.trace.blob(), &blob[..], "decode keeps the bytes as is");
        assert_eq!(encode(&layout, d.trace.iter(), d.exec_digest), blob);
    }

    #[test]
    fn runs_jumps_and_strides_roundtrip() {
        let layout = line_layout(600);
        let mut entries: Vec<TraceEntry> = (0..300).map(|id| entry(id, 0, 0)).collect();
        for i in 0..40u32 {
            // Sites 5 and 261 share a slot; 7 strides downwards and 9
            // repeats one address.
            entries.push(entry(5, F_HAS_ADDR, 1000 + 8 * i));
            entries.push(entry(261, F_HAS_ADDR | F_ANNULLED, 4 * i));
            entries.push(entry(7, F_HAS_ADDR, u32::MAX - 3 * i));
            entries.push(entry(8, F_IS_BRANCH | (i as u8 & F_TAKEN), 0));
            entries.push(entry(9, F_HAS_ADDR, u32::MAX));
            entries.extend((10..140).map(|id| entry(id, 0, 0)));
        }
        entries.push(entry(599, 0, 0));
        entries.push(entry(0, 0, 0));
        let blob = encode(&layout, &entries, 3);
        assert_eq!(entries_of(&blob), entries);
        assert_eq!(encode(&layout, entries_of(&blob), 3), blob);
        // 300 plain entries take three run bytes; a steady stride at a
        // site of its own costs its header alone.
        assert_eq!(blob[HEADER_LEN..HEADER_LEN + 3], [127, 127, 46]);
        let plain: Vec<_> = (0..600).map(|id| entry(id, 0, 0)).collect();
        assert_eq!(
            encode(&layout, &plain, 0).len(),
            HEADER_LEN + 5 + CHECKSUM_LEN
        );
        // The first two records carry their addresses; from the third on
        // the stride predicts it, leaving the header and the jump to site 0.
        let strided: Vec<_> = (0..100).map(|i| entry(0, F_HAS_ADDR, 4 + 2 * i)).collect();
        assert_eq!(
            encode(&layout, &strided, 0).len(),
            HEADER_LEN + 2 + 3 + 98 * 2 + CHECKSUM_LEN
        );
    }

    #[test]
    fn owned_and_borrowed_decode_agree() {
        let (_, _, blob) = sample_blob();
        let borrowed = decode(&blob[..]).expect("decodes");
        let owned = decode(blob.clone()).expect("decodes");
        assert_eq!(borrowed.trace.blob(), owned.trace.blob());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let prog = sample_program();
        let layout = StaticLayout::build(&prog);
        let blob = encode(&layout, std::iter::empty::<TraceEntry>(), 7);
        assert_eq!(blob.len(), HEADER_LEN + CHECKSUM_LEN);
        let d = decode(&blob).expect("decodes");
        assert!(d.trace.is_empty());
        assert_eq!(d.trace.iter().count(), 0);
        assert_eq!(d.exec_digest, 7);
        assert_eq!(encode(&layout, d.trace.iter(), 7), blob);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let (_, _, blob) = sample_blob();
        for pos in 0..blob.len() {
            let mut bad = blob.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode(&bad).is_err(),
                "flip at byte {pos}/{} decoded successfully",
                blob.len()
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let (_, _, blob) = sample_blob();
        for len in 0..blob.len() {
            assert!(decode(&blob[..len]).is_err(), "prefix of {len} decoded");
        }
        let mut extended = blob.clone();
        extended.push(0);
        assert!(decode(&extended).is_err(), "trailing byte decoded");
    }

    #[test]
    fn checksummed_header_edits_are_still_rejected() {
        let (layout, _, blob) = sample_blob();
        let sites = layout.num_sites() as u32;
        // One site fewer: the highest id in the trace is now out of range.
        let fewer = reframed(&blob, |b| {
            b[8..12].copy_from_slice(&(sites - 1).to_le_bytes())
        });
        assert!(matches!(
            decode(&fewer),
            Err(TraceFileError::SiteOutOfRange { .. })
        ));
        // A count past the records runs out of bytes; one short leaves some.
        let count = header_count(&blob);
        let more = reframed(&blob, |b| {
            b[COUNT_AT..HEADER_LEN].copy_from_slice(&(count + 1).to_le_bytes())
        });
        assert_eq!(decode(&more).unwrap_err(), TraceFileError::Truncated);
        let less = reframed(&blob, |b| {
            b[COUNT_AT..HEADER_LEN].copy_from_slice(&(count - 1).to_le_bytes())
        });
        assert!(matches!(
            decode(&less),
            Err(TraceFileError::TrailingBytes(_))
        ));
        // Blobs of the first format version, and of unknown ones, are misses.
        for v in [1u16, 9] {
            let version = reframed(&blob, |b| b[4..6].copy_from_slice(&v.to_le_bytes()));
            assert_eq!(decode(&version).unwrap_err(), TraceFileError::BadVersion(v));
        }
    }

    #[test]
    fn each_rejection_rule_has_a_record_that_trips_it() {
        use TraceFileError::*;
        let (b, t, a) = (F_IS_BRANCH, F_TAKEN, F_HAS_ADDR);
        let ok = |count, records: &[u8]| {
            let blob = framed(6, count, records);
            decode(&blob).unwrap_or_else(|e| panic!("{records:?}: {e}"));
        };
        let err = |count, records: &[u8]| decode(framed(6, count, records)).unwrap_err();

        ok(1, &[ENTRY | b | t]);
        ok(6, &[6]);
        // Site −1 + 5; address 0 + 0; address 7.
        ok(1, &[ENTRY | JUMP, 10]);
        ok(1, &[ENTRY | a | PREDICTED]);
        ok(1, &[ENTRY | a, 14]);
        // u32::MAX twice: the second predicted 2 × u32::MAX, then corrected.
        let max = [0xfe, 0xff, 0xff, 0xff, 0x1f];
        let back = [0xfd, 0xff, 0xff, 0xff, 0x1f];
        let twice = [&[ENTRY | a][..], &max, &[ENTRY | JUMP | a, 0], &back].concat();
        ok(2, &twice);

        // Bad checksum.
        let mut sealed = framed(6, 1, &[ENTRY]);
        *sealed.last_mut().unwrap() ^= 1;
        assert!(matches!(decode(&sealed), Err(BadChecksum { .. })));
        // Reserved bit, P without A, T without B.
        assert_eq!(err(1, &[ENTRY | RESERVED]), BadEntry { index: 0 });
        assert_eq!(err(1, &[ENTRY | PREDICTED | b]), BadEntry { index: 0 });
        assert_eq!(err(2, &[1, ENTRY | t]), BadEntry { index: 1 });
        // A run byte of 0, and a run past the count.
        assert_eq!(err(1, &[0]), BadRun { index: 0, len: 0 });
        assert_eq!(err(4, &[2, 3]), BadRun { index: 2, len: 3 });
        // A run, or an id, that reaches the site count (or falls below 0).
        let past = |index, id| SiteOutOfRange {
            index,
            id,
            num_sites: 6,
        };
        assert_eq!(err(7, &[7]), past(6, 6));
        assert_eq!(err(9, &[2, ENTRY, 6]), past(6, 6));
        assert_eq!(err(1, &[ENTRY | JUMP, 14]), past(0, 6));
        assert_eq!(err(1, &[ENTRY | JUMP, 3]), past(0, -3i64 as u64));
        // A ten-byte varint delta far past the id range, not an overflow;
        // eleven bytes is no varint at all.
        let mut huge = vec![ENTRY | JUMP];
        huge.extend([0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert_eq!(err(1, &huge), past(0, i64::MAX as u64 - 1));
        let mut too_long = vec![ENTRY | JUMP];
        too_long.extend([0x80; 10]);
        too_long.push(0);
        assert_eq!(err(1, &too_long), Truncated);
        // An address outside 0..=u32::MAX: written, or predicted from a
        // site's stride (5, then 0, then 0 − 5).
        assert_eq!(
            err(1, &[ENTRY | a, 1]),
            AddressOutOfRange { index: 0, addr: -1 }
        );
        assert_eq!(
            err(1, &[ENTRY | a, 0x80, 0x80, 0x80, 0x80, 0x20]),
            AddressOutOfRange {
                index: 0,
                addr: 1 << 32
            }
        );
        let again = ENTRY | JUMP | a;
        assert_eq!(
            err(3, &[ENTRY | a, 10, again, 0, 19, again | PREDICTED, 0]),
            AddressOutOfRange { index: 2, addr: -5 }
        );
        // Trailing bytes after the counted records.
        assert_eq!(err(1, &[ENTRY, 1]), TrailingBytes(1));
    }

    #[test]
    fn layout_digest_distinguishes_shapes() {
        let a = StaticLayout::build(&sample_program());
        let mut fb = FuncBuilder::new("other");
        fb.block("e");
        fb.li(r(1), 1);
        fb.halt();
        let b = StaticLayout::build(&single_func_program(fb));
        assert_ne!(layout_digest(&a), layout_digest(&b));
    }
}
