//! The packed trace format: one byte layout that is both the in-memory
//! trace every simulator reads and the blob the harness trace cache
//! stores — "trace once, simulate many" with no second representation.
//!
//! The harness caches one blob per distinct (program text, scale) so warm
//! experiment runs skip functional interpretation entirely.  Traces are
//! large (millions of entries at paper scale), so the format is built for
//! size and sequential decode speed rather than generality:
//!
//! * a fixed header carrying a format magic/version, the producing
//!   [`StaticLayout`]'s site count and digest, an opaque caller-supplied
//!   execution digest, and the exact entry count;
//! * one record per entry: the flags byte, then the **zigzag-varint delta**
//!   of the site id against the previous entry (fetch mostly walks forward
//!   through a block, so deltas are tiny), then — only for memory
//!   operations — the zigzag-varint delta of the effective address against
//!   the previous memory operation (strided access patterns collapse to a
//!   byte);
//! * a trailing 64-bit FNV-1a checksum over **everything before it**
//!   (header included), so any single corrupted byte fails decode loudly.
//!
//! Typical density is ~1.5–2.5 bytes per entry versus 12 bytes for a
//! [`TraceEntry`].  One packer appends records as instructions retire (the
//! [`crate::trace::PackedRecorder`] observer) and frames the result into a
//! [`PackedTrace`]; [`pack`] and [`encode`] run it over an entry sequence.
//! [`decode`] never trusts its input and materialises nothing: one
//! validating walk checks the checksum, flag bits, id and address ranges,
//! the count and trailing bytes, then hands the bytes back as a
//! [`PackedTrace`].  Truncation, bad counts, unknown flag bits,
//! out-of-range site ids and checksum mismatches all return a
//! [`TraceFileError`], which cache consumers treat as a miss (re-interpret
//! and overwrite — the same recovery discipline as the JSON stage caches).
//! Only bytes that passed that walk (or that a packer wrote) ever reach
//! the trusting decoder behind [`PackedTrace::iter`].

use crate::layout::StaticLayout;
use crate::trace::{PackedTrace, TraceEntry, F_HAS_ADDR, F_IS_BRANCH, F_TAKEN, KNOWN_FLAGS};
use std::borrow::{Borrow, Cow};
use std::fmt;

/// `"GSTF"` — guardspec trace file.
pub const MAGIC: [u8; 4] = *b"GSTF";
/// Bumped on any incompatible format change; old blobs then decode-fail
/// and are re-recorded.
pub const VERSION: u16 = 1;

/// Bytes before the first record.
pub const HEADER_LEN: usize = 4 + 2 + 2 + 4 + 8 + 8 + 8;
/// Bytes after the last record.
pub const CHECKSUM_LEN: usize = 8;
/// Byte offset of the header's entry count.
const COUNT_AT: usize = HEADER_LEN - 8;

/// Why a blob failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceFileError {
    Truncated,
    BadMagic,
    BadVersion(u16),
    BadChecksum { want: u64, got: u64 },
    BadEntry { index: u64 },
    SiteOutOfRange { index: u64, id: u64, num_sites: u32 },
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

/// Appends packed records to a growing blob whose header is written last.
pub(crate) struct Packer {
    out: Vec<u8>,
    count: u64,
    prev_id: i64,
    prev_addr: i64,
}

impl Default for Packer {
    fn default() -> Packer {
        Packer {
            out: vec![0; HEADER_LEN],
            count: 0,
            prev_id: 0,
            prev_addr: 0,
        }
    }
}

impl Packer {
    /// Append one entry's record.
    #[inline]
    pub(crate) fn push(&mut self, e: TraceEntry) {
        self.out.push(e.flags);
        push_varint(&mut self.out, zigzag(e.id as i64 - self.prev_id));
        self.prev_id = e.id as i64;
        if e.flags & F_HAS_ADDR != 0 {
            push_varint(&mut self.out, zigzag(e.addr as i64 - self.prev_addr));
            self.prev_addr = e.addr as i64;
        }
        self.count += 1;
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
    let mut prev_id = 0i64;
    let mut prev_addr = 0i64;
    for index in 0..count {
        let flags = *body.get(pos).ok_or(TraceFileError::Truncated)?;
        pos += 1;
        // TAKEN without IS_BRANCH is a state no retirement produces.
        if flags & !KNOWN_FLAGS != 0 || flags & (F_TAKEN | F_IS_BRANCH) == F_TAKEN {
            return Err(TraceFileError::BadEntry { index });
        }
        let delta = unzigzag(read_varint(body, &mut pos)?);
        let id = prev_id.checked_add(delta).unwrap_or(-1);
        if id < 0 || id >= num_sites as i64 {
            return Err(TraceFileError::SiteOutOfRange {
                index,
                id: id as u64,
                num_sites,
            });
        }
        prev_id = id;
        if flags & F_HAS_ADDR != 0 {
            let delta = unzigzag(read_varint(body, &mut pos)?);
            prev_addr = prev_addr
                .checked_add(delta)
                .filter(|a| (0..=u32::MAX as i64).contains(a))
                .ok_or(TraceFileError::BadEntry { index })?;
        }
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
    use crate::trace::trace_program;
    use guardspec_ir::builder::*;
    use guardspec_ir::reg::r;

    fn sample_program() -> guardspec_ir::Program {
        let mut fb = FuncBuilder::new("s");
        fb.block("e");
        fb.li(r(1), 700);
        fb.block("loop");
        fb.subi(r(1), r(1), 1);
        fb.sw(r(1), r(0), 3);
        fb.lw(r(2), r(0), 3);
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

    /// Re-frame `blob` with its header patched by `edit` and a fresh
    /// checksum, so only the header check can reject it.
    fn reframed(blob: &[u8], edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut b = blob[..blob.len() - CHECKSUM_LEN].to_vec();
        edit(&mut b);
        let sum = checksum(&b);
        b.extend_from_slice(&sum.to_le_bytes());
        b
    }

    #[test]
    fn roundtrip_preserves_every_entry_and_header() {
        let (layout, entries, blob) = sample_blob();
        assert!(
            blob.len() < entries.len() * 4 + 64,
            "blob too large: {} bytes for {} entries",
            blob.len(),
            entries.len()
        );
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
        let d = decode(encode(&layout, std::iter::empty::<TraceEntry>(), 7)).expect("decodes");
        assert!(d.trace.is_empty());
        assert_eq!(d.trace.iter().count(), 0);
        assert_eq!(d.exec_digest, 7);
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
        let version = reframed(&blob, |b| b[4] = 9);
        assert_eq!(decode(&version).unwrap_err(), TraceFileError::BadVersion(9));
    }

    #[test]
    fn impossible_records_are_rejected() {
        let prog = sample_program();
        let layout = StaticLayout::build(&prog);
        // Frame one hand-written record.
        let record = |body: &[u8]| {
            let mut out = vec![0; HEADER_LEN];
            out.extend_from_slice(body);
            let p = Packer {
                out,
                count: 1,
                prev_id: 0,
                prev_addr: 0,
            };
            decode(p.finish(&layout, 0).into_blob())
        };
        assert!(record(&[F_IS_BRANCH | F_TAKEN, 2]).is_ok());
        assert!(record(&[F_TAKEN, 2]).is_err(), "taken without branch");
        assert!(record(&[1 << 6, 2]).is_err(), "unknown flag bit");
        assert!(record(&[F_HAS_ADDR, 2, 14]).is_ok());
        assert!(record(&[F_HAS_ADDR, 2, 1]).is_err(), "negative address");
        // A ten-byte varint delta far past the id range, not an overflow.
        let huge = [
            0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
        ];
        assert!(matches!(
            record(&huge),
            Err(TraceFileError::SiteOutOfRange { .. })
        ));
        let too_long = [
            0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0,
        ];
        assert_eq!(record(&too_long).unwrap_err(), TraceFileError::Truncated);
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
