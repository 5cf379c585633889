//! # guardspec-harness
//!
//! Experiment orchestration for the bench binaries: describe *what* to
//! measure as an [`ExperimentSpec`] (workload × transform × scheme ×
//! machine cells), and [`run_experiment`] takes care of *how* —
//!
//! * grouping cells into one job per program and running the jobs in two
//!   passes of the scoped [`pool::par_for`]: one profile per workload,
//!   then per program its transform (one per distinct option set), its
//!   trace (only when a cell misses its cached result) and its cells
//!   (`--jobs N`; results are byte-identical at any thread count),
//! * memoising every stage in a content-addressed on-disk [`cache`] under
//!   `results/cache/`, keyed by a stable 128-bit hash of the program text
//!   (for simulations, of its digest, computed once per program), scale
//!   and full option/config state ([`key`]); a transform entry holds its
//!   program's digest and report, so a fully warm run reads no program
//!   text and no trace,
//! * emitting machine-readable run [`artifact`]s (`--json <path>`) with
//!   per-stage timings and cache counters via a dependency-free [`json`]
//!   writer.
//!
//! The binaries in `guardspec-bench` are thin views over this crate: they
//! build a spec, run it, and format the paper's tables from the result.

pub mod args;
pub mod artifact;
pub mod cache;
pub mod codec;
pub mod hash;
pub mod json;
pub mod key;
pub mod log;
pub mod metrics;
pub mod pool;
pub mod prom;
pub mod runner;
pub mod spec;
pub mod trace_out;

pub use args::{parse_jobs, parse_scale, HarnessArgs};
pub use artifact::{full_json, stable_json, write_json_file};
pub use cache::DiskCache;
pub use codec::{DecisionSummary, ReportSummary};
pub use json::Json;
pub use log::{parse_log_level, LogLevel};
pub use metrics::{Histogram, MetricsRegistry, HIST_BOUNDS, HIST_MAX_RATIO};
pub use pool::{par_for, worker_count};
pub use prom::{parse_prometheus, prometheus_text, registry_prometheus_text};
pub use runner::{
    run_experiment, run_experiment_shared, CellResult, ExperimentResult, ProgressEvent,
    ProgressHook, RunOptions, WorkloadResult,
};
pub use spec::{CellSpec, ExperimentSpec};
pub use trace_out::{
    chrome_trace_json, chrome_trace_json_grouped, validate_chrome_trace, Span, SpanRecorder,
};

/// The conventional cache root used by the bench binaries.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";
/// The conventional artifact directory used by the bench binaries.
pub const DEFAULT_RESULTS_DIR: &str = "results";
