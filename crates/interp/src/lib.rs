//! # guardspec-interp
//!
//! Functional execution of guardspec IR programs, plus the profiling
//! infrastructure the paper's feedback heuristics consume:
//!
//! * [`machine`] — architectural state (register files + flat word memory),
//! * [`exec`] — the interpreter proper, with an [`exec::Observer`] hook that
//!   sees every retired instruction (this is how profiles and timing-model
//!   traces are collected),
//! * [`layout`] — dense numbering of static instruction sites and their
//!   pseudo-PCs (what the 512-entry branch-history table indexes),
//! * [`blocks`] — a block-granular cursor over recorded traces (maximal
//!   consecutive-site runs), the trace-side half of the compiled
//!   simulator's decoded-uop cache,
//! * [`bitvec`] — compact branch-outcome bit vectors ("the previous branch
//!   outcomes are recorded using bit vectors", Section 5),
//! * [`profile`] — the profiler observer: per-branch outcome vectors, edge
//!   frequencies, dynamic instruction mix,
//! * [`trace`] — the trace recorders feeding the cycle-level simulator,
//!   and [`trace::PackedTrace`], the one packed form many simulator
//!   instances read concurrently,
//! * [`tracefile`] — the packed trace's self-checking byte format: the
//!   in-memory trace is the blob the harness trace cache stores.

pub mod bitvec;
pub mod blocks;
pub mod exec;
pub mod layout;
pub mod machine;
pub mod profile;
pub mod trace;
pub mod tracefile;

pub use bitvec::BitVec;
pub use blocks::{block_of_table, BlockCursor, BlockRun};
pub use exec::{run, ExecError, ExecResult, ExecSummary, Interp, Observer, RetireEvent};
pub use layout::StaticLayout;
pub use machine::Machine;
pub use profile::{BranchProfile, Profile, Profiler};
pub use trace::{PackedIter, PackedRecorder, PackedTrace, TraceEntry, TraceRecorder};
