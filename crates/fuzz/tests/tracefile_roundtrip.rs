//! Property test: the binary trace codec round-trips the retired trace of
//! arbitrary generated programs exactly — every entry, every digest — and
//! its checksum catches single-byte corruption of real-world blobs, not
//! just the synthetic ones the unit tests build by hand.

use guardspec_fuzz::{case_seed, generate, ShapeParams};
use guardspec_interp::trace::trace_program;
use guardspec_interp::tracefile::{self, TraceFileError};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const CASES: u64 = 24;
const BASE_SEED: u64 = 0x7ace_f11e;

#[test]
fn generated_traces_roundtrip_exactly() {
    let mut nonempty = 0u32;
    for i in 0..CASES {
        let seed = case_seed(BASE_SEED, i);
        let mut rng = SmallRng::seed_from_u64(seed);
        let params = ShapeParams::sample(&mut rng);
        let prog = generate(&params, seed);
        let (layout, entries, _exec) = trace_program(&prog).expect("trace");
        let exec_digest = seed ^ 0x5151_5151;

        let bytes = tracefile::encode(&layout, entries.iter(), exec_digest);
        let dec = tracefile::decode(&bytes)
            .unwrap_or_else(|e| panic!("case {i} (seed {seed:#x}): decode failed: {e:?}"));

        assert_eq!(dec.num_sites, layout.num_sites() as u32, "case {i}");
        assert_eq!(dec.layout_digest, tracefile::layout_digest(&layout));
        assert_eq!(dec.exec_digest, exec_digest, "case {i}");
        assert_eq!(dec.trace.len(), entries.len() as u64, "case {i}");
        let decoded: Vec<_> = dec.trace.iter().collect();
        assert_eq!(decoded, entries, "case {i} (seed {seed:#x}) entries differ");
        if !entries.is_empty() {
            nonempty += 1;
        }
    }
    assert!(
        nonempty >= CASES as u32 / 2,
        "generator produced mostly empty traces; property is vacuous"
    );
}

#[test]
fn generated_blobs_reject_corruption_and_truncation() {
    // One representative non-trivial case; flip a byte at a spread of
    // offsets and truncate at a spread of lengths.  Every mutation must be
    // rejected — a blob that decodes must be the blob that was written.
    let seed = case_seed(BASE_SEED, 7);
    let mut rng = SmallRng::seed_from_u64(seed);
    let params = ShapeParams::sample(&mut rng);
    let prog = generate(&params, seed);
    let (layout, entries, _) = trace_program(&prog).expect("trace");
    assert!(!entries.is_empty(), "pick a seed with a non-empty trace");
    let bytes = tracefile::encode(&layout, entries.iter(), 42);

    for step in [1usize, 7, 97] {
        for off in (0..bytes.len()).step_by(step) {
            let mut bad = bytes.clone();
            bad[off] ^= 0x20;
            assert!(
                tracefile::decode(&bad).is_err(),
                "flipping byte {off} went undetected"
            );
        }
    }
    for len in (0..bytes.len()).step_by(13) {
        match tracefile::decode(&bytes[..len]) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {len} bytes went undetected"),
        }
    }
    // Trailing garbage is not silently ignored either.
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(matches!(
        tracefile::decode(&padded),
        Err(TraceFileError::Truncated
            | TraceFileError::TrailingBytes(_)
            | TraceFileError::BadChecksum { .. })
    ));
}
