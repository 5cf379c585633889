//! # guardspec-fuzz
//!
//! Differential fuzzing for the transformation pipeline: a seeded random
//! CFG-shape generator ([`gen`]), a transform-equivalence oracle ([`oracle`])
//! that checks every `DriverOptions` preset plus randomized option mixes
//! against the interpreter and both simulation paths, coordinate-descent
//! shrinking of failing cases ([`shrink`](mod@shrink)), and a replayable regression
//! corpus ([`corpus`], persisted under `tests/corpus/`).
//!
//! Long runs go through the `fuzz` binary:
//!
//! ```text
//! cargo run --release -p guardspec-fuzz --bin fuzz -- --cases 1000 --seed 7 --jobs 4
//! ```
//!
//! Case seeds are derived from `(base seed, case index)`, so a run is
//! deterministic and every reported case replays in isolation regardless of
//! `--jobs`.  DESIGN.md §9 documents the generator grammar, the equivalence
//! definition, and the shrinking strategy.

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use corpus::{corpus_dir_from, list_cases, Case};
pub use gen::{generate, ShapeParams};
pub use oracle::{behavior_of, check_equivalence, run_case, Behavior, CaseResult, Thoroughness};
pub use shrink::shrink;

/// Derive the per-case seed from the run's base seed and the case index
/// (SplitMix64 over the pair, so neighboring indices decorrelate).
pub fn case_seed(base: u64, index: u64) -> u64 {
    let mut x = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    #[test]
    fn case_seeds_decorrelate() {
        let a = super::case_seed(7, 0);
        let b = super::case_seed(7, 1);
        let c = super::case_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, super::case_seed(7, 0));
    }
}
