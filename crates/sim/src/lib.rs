//! # guardspec-sim
//!
//! A cycle-level, trace-driven simulator of a MIPS R10000-class out-of-order
//! superscalar — the stand-in for the Paratool simulator the paper used
//! (Shimura & Nishimoto, Fujitsu Labs TR, 1994 \[12\]).
//!
//! ## Machine model (Section 6 of the paper)
//!
//! * 4-wide in-order fetch/dispatch, 4-wide in-order commit, 32-entry
//!   active list (reorder buffer);
//! * reservation stations: 16-entry integer queue, 16-entry address queue,
//!   16-entry FP queue, plus a branch queue;
//! * functional units: two integer ALUs, a dedicated shifter, an
//!   address-calculation/load-store unit, a branch unit, and three FP pipes
//!   (adder, multiplier, divide/square-root);
//! * at most four unresolved conditional branches in flight (the R10000's
//!   four shadow register maps);
//! * 512-entry 2-bit branch history table, tagged BTB restricted to
//!   absolute-target branches; returns and register-relative jumps stall
//!   fetch until they resolve;
//! * separate 32 KB 2-way I- and D-caches, 32-byte lines, 6-cycle miss
//!   penalty; operation latencies per Table 2.
//!
//! ## Trace-driven methodology
//!
//! The functional interpreter ([`guardspec_interp`]) supplies the retired
//! instruction stream (correct path).  The pipeline fetches it, charging
//! branch-prediction costs at fetch and resolution time:
//!
//! * correctly-predicted taken branches end the fetch group (BTB hit) or
//!   cost one decode-redirect bubble (BTB miss / calls);
//! * branch-likelies are statically predicted taken with the target known
//!   at fetch — taken costs nothing, not-taken is a full misprediction;
//! * mispredictions and BTB-ineligible indirect transfers stall fetch until
//!   the branch resolves in the branch unit;
//! * wrong-path instructions are not injected into the window (their
//!   second-order pressure on the reservation stations is not modeled —
//!   documented substitution, see DESIGN.md).
//!
//! Annulled guarded instructions flow through the pipeline and consume
//! resources, but are excluded from IPC, matching Table 4's note
//! "instructions per cycle (excluding annulled)".
//!
//! ## Engines
//!
//! Every runtime path simulates on the compiled engine ([`block`]): exact
//! runs, SMARTS-style sampled runs, and [`simulate_program`].  The
//! interpreted pipeline lives on as [`reference`](mod@reference), the plain statement of
//! the model that tests, the fuzz oracle and the `blockcomp` bench check
//! the compiled engine against, cycle for cycle.  Both read the trace
//! sources and run state in [`pipeline`].

pub mod block;
pub mod cache;
pub mod config;
pub mod observe;
pub mod pipeline;
pub mod reference;
pub mod stats;

pub use block::{
    simulate_compiled_packed_in, simulate_compiled_packed_observed_in,
    simulate_compiled_trace_observed_in, simulate_program, simulate_sampled_in,
    simulate_sampled_observed_in, CompiledProgram, SampleParams, SampleSummary,
};
pub use cache::Cache;
pub use config::{Latencies, MachineConfig, QueueKind};
pub use observe::{CycleAccounting, CycleBucket, SimObserver, SiteCounters};
pub use pipeline::{PackedSource, SimContext, SimError, SliceSource, TraceSource};
pub use stats::SimStats;
