//! Spec execution: one job per program, in two passes of [`par_for`], and
//! deterministic collection of the results.
//!
//! Every cell is one program's trace replayed under one scheme and machine,
//! so the unit of work is a program together with the cells that replay
//! its trace:
//!
//! ```text
//! pass 1, one item per workload:  profile  (+ base trace, same interpretation)
//! pass 2, one item per program:   [transform] → cell, cell, …
//!                                                └ [rebuild], trace, at the first sim miss
//! ```
//!
//! * **Pass 1** profiles each workload once; the profile is shared by
//!   every cell and by the binaries' post-processing (Table 1 columns,
//!   predictor sweeps).  A cached profile touches no blob.  When the
//!   profile is missing and some cell simulates the untransformed code, the
//!   *same* interpreter pass also records the base program's trace (unless
//!   its blob replays it), and hands it to the base program's pass-2 item.
//! * **Pass 2** runs one item per program: each workload's base program
//!   that some cell runs, and each distinct (workload, options) pair — the
//!   ablation's five presets over four workloads make twenty, while Tables
//!   3+4 share one proposed-options transform per workload.  The item
//!   transforms the program if needed, then walks its cells in spec order.
//!   A cell looks up its one [`key::sim_key`] entry, keyed by the
//!   [`ProgramDigest`] of its program's text, computed once per item: from
//!   the printed base program, from a freshly transformed one, or read
//!   from the transform entry, which holds only that digest and the
//!   report.  The first cell that misses gets the program's
//!   [`PackedTrace`] (the handed-over one, the cached blob, or one
//!   interpretation whose bytes are stored as they are), then runs
//!   `simulate_cell`, the runner's only call into a simulator engine.  A
//!   transform that came from the cache is first rebuilt from the profile,
//!   as a `transform` stage nested in that cell's; if its digest differs
//!   from the entry's, the entry is stale, so it is rewritten and the
//!   cells are walked again under the new digest.  The trace and the
//!   program are dropped when the item ends, so a fully warm run reads
//!   profiles, transform entries and sim entries, no program text and no
//!   blob at all.
//!
//! Every stage consults the content-addressed [`DiskCache`] first; cold
//! results are verified against the workload's golden memory image before
//! being stored, so the cache only ever holds results from correctly
//! computing kernels.  Trace blobs additionally carry layout and
//! golden-result digests — a blob that fails its checksum, was recorded
//! against a different program shape, or predates a workload change decodes
//! as a miss and is re-recorded.  Blob storage is garbage-collected after
//! a run that stored a blob; a run that stored none walks no directory.

use crate::cache::DiskCache;
use crate::codec;
use crate::codec::{ReportSummary, SimEntry};
use crate::json::Json;
use crate::key;
use crate::key::ProgramDigest;
use crate::metrics::MetricsRegistry;
use crate::pool::{par_for, worker_count};
use crate::spec::ExperimentSpec;
use crate::trace_out::{Span, SpanRecorder};
use guardspec_core::DriverOptions;
use guardspec_interp::{tracefile, Interp, PackedRecorder, PackedTrace, Profile, StaticLayout};
use guardspec_predict::Scheme;
use guardspec_sim::{
    simulate_compiled_packed_in, simulate_compiled_packed_observed_in, simulate_sampled_in,
    simulate_sampled_observed_in, CompiledProgram, CycleAccounting, MachineConfig, SampleParams,
    SampleSummary, SimContext, SimError, SimStats,
};
use guardspec_workloads::Scale;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One stage's lifecycle notification, for live progress reporting (the
/// service layer's `POST /run?stream=1` turns these into newline-delimited
/// JSON events).  Every stage emits a start event (`done = false`) when it
/// begins and a done event carrying the stage wall time and whether the
/// cache satisfied it.
#[derive(Clone, Debug)]
pub struct ProgressEvent {
    /// `"profile"`, `"transform"`, `"trace"`, `"simulate"` or
    /// `"collect"` (the final deterministic result-assembly stage).
    pub stage: &'static str,
    /// The workload name, or `workload/label` for simulate stages.
    pub unit: String,
    /// `false` at stage start, `true` at stage completion.
    pub done: bool,
    /// Whether the disk cache satisfied the stage (done events only).
    pub cached: bool,
    /// Stage wall time in milliseconds (done events only).
    pub ms: f64,
}

/// A shareable progress callback.  Wrapped so [`RunOptions`] can keep its
/// `Clone + Debug` derives; the callback runs on the run's worker threads,
/// so it must be cheap and must not block on the caller.
#[derive(Clone)]
pub struct ProgressHook(pub Arc<dyn Fn(&ProgressEvent) + Send + Sync>);

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// How to execute a spec.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Cache root; `None` disables caching entirely.  An enabled cache
    /// also keeps each program's packed trace as a binary blob, so warm
    /// runs skip interpretation entirely.
    pub cache_dir: Option<PathBuf>,
    /// Run every simulation under the cycle-accounting observer and attach
    /// [`CycleAccounting`] to each cell.  Off by default: the no-op
    /// observer compiles to the exact uninstrumented hot loop and all
    /// artifacts stay byte-identical to an unobserved run's stable payload.
    pub observe: bool,
    /// Record per-stage [`Span`]s for the Chrome trace export
    /// (`--trace-out`).
    pub trace_spans: bool,
    /// SMARTS-style interval sampling parameters; `None` (the default) runs
    /// every cell exactly.  Sampling adds the estimate to the sim cache
    /// entries, under sampling-aware keys.
    pub sample: Option<SampleParams>,
    /// Stage start/done notifications ([`ProgressEvent`]) delivered from
    /// the worker threads as the run advances; `None` emits nothing.
    /// Deliberately **not** part of any cache key — progress reporting
    /// must never perturb the science.
    pub progress: Option<ProgressHook>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            jobs: 0,
            cache_dir: Some(PathBuf::from("results/cache")),
            observe: false,
            trace_spans: false,
            sample: None,
            progress: None,
        }
    }
}

thread_local! {
    /// Per-worker reusable simulator state: caches, BHT, BTB and window
    /// allocations survive across the cells a worker thread executes.
    static SIM_CTX: RefCell<SimContext> = RefCell::new(SimContext::default());
}

impl RunOptions {
    pub fn effective_jobs(&self) -> usize {
        worker_count(self.jobs)
    }
}

/// Wall time and cache status of one executed stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTiming {
    pub ms: f64,
    pub cached: bool,
}

/// Per-workload outputs (always produced, even with no cells).
pub struct WorkloadResult {
    pub name: String,
    pub profile: Arc<Profile>,
    pub timing: StageTiming,
}

/// One evaluated cell, in spec order.
pub struct CellResult {
    pub workload: String,
    pub label: String,
    pub scheme: Scheme,
    pub stats: SimStats,
    pub report: Option<ReportSummary>,
    /// Timing of its program's transform stage (transformed cells only).
    /// A cached transform that one of the program's cells had to rebuild
    /// adds the rebuild's time and reports `cached: false`.
    pub transform_timing: Option<StageTiming>,
    /// Timing of its program's trace stage (cells of one program report
    /// the same stage once each); `{ms: 0, cached: true}` when every cell
    /// of the program hit its sim entry, so no trace was read.  A trace
    /// fetched inside a stage (a profile, or a cell's simulation) is
    /// excluded from that stage's timing.
    pub trace_timing: StageTiming,
    pub sim_timing: StageTiming,
    /// Cycle buckets + per-branch-site counters ([`RunOptions::observe`]
    /// runs only).  Always satisfies `CycleAccounting::check` against
    /// `stats`.
    pub accounting: Option<CycleAccounting>,
    /// Sampled-run estimate ([`RunOptions::sample`] runs only).
    pub sampling: Option<SampleSummary>,
}

/// Everything a binary needs to print its table and emit its artifact.
pub struct ExperimentResult {
    pub name: String,
    pub scale: Scale,
    pub jobs: usize,
    pub wall_ms: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Functional interpreter passes this run actually executed.  A cold
    /// run performs exactly one per distinct program; a warm trace-cached
    /// run performs zero.
    pub interpretations: u64,
    pub workloads: Vec<WorkloadResult>,
    pub cells: Vec<CellResult>,
    /// Stage spans for the Chrome trace export (empty unless
    /// [`RunOptions::trace_spans`]).
    pub spans: Vec<Span>,
    /// Named run counters (sorted), e.g. warm-transform decode statistics.
    pub metrics: Vec<(String, u64)>,
}

impl ExperimentResult {
    /// The profile for a workload by name (panics on unknown names — specs
    /// and consumers are compiled together).
    pub fn profile(&self, workload: &str) -> &Profile {
        &self
            .workloads
            .iter()
            .find(|w| w.name == workload)
            .unwrap_or_else(|| panic!("no workload {workload} in experiment"))
            .profile
    }

    /// Cells in spec order (convenience for per-workload iteration).
    pub fn cells_for<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a CellResult> + 'a {
        self.cells.iter().filter(move |c| c.workload == workload)
    }
}

/// A program's packed trace plus its decoded-uop descriptors: fetched at
/// the program's first sim miss, replayed by its remaining cells, and
/// dropped when its pass-2 item ends.
struct TraceData {
    trace: PackedTrace,
    comp: CompiledProgram,
}

/// A trace and the timing of the stage that produced it.
type Fetched = (TraceData, StageTiming);

/// One pass-2 item: a program and the cells that replay its trace, in
/// spec order.  `options` is `None` for a workload's base program.
struct ProgramJob<'a> {
    workload: usize,
    options: Option<&'a DriverOptions>,
    cells: Vec<usize>,
}

/// What collection reads of a pass-2 item besides its cells' entries.
struct ProgramSlot {
    report: Option<ReportSummary>,
    transform_timing: Option<StageTiming>,
    trace_timing: StageTiming,
}

/// A freshly computed or cached transform.  A cached entry holds the
/// program's digest and report but not the program, so `built` stays
/// `None` until a cell that misses its sim entry rebuilds it.
struct Transformed {
    built: Option<Built>,
    digest: ProgramDigest,
    report: ReportSummary,
    timing: StageTiming,
}

/// A transformed program and its printed text, its trace key's material.
struct Built {
    program: guardspec_ir::Program,
    text: String,
}

/// A stage in progress: its start event is out, and [`Run::close`] records
/// the rest.
struct Stage {
    cat: &'static str,
    unit: String,
    t0: Instant,
}

/// What both passes borrow: the spec, the cache and the run's counters.
struct Run<'a> {
    spec: &'a ExperimentSpec,
    cache: &'a DiskCache,
    sample: Option<SampleParams>,
    observe: bool,
    interps: AtomicU64,
    metrics: MetricsRegistry,
    recorder: SpanRecorder,
    progress: Option<&'a ProgressHook>,
    /// Each workload's program text, the cache-key ingredient of its stages.
    texts: Vec<String>,
    /// Whether this run stored a trace blob, and so may have pushed blob
    /// storage past its cap.
    stored_blob: AtomicBool,
}

/// Execute a spec.  Panics (once running jobs finish; no new one starts)
/// if any kernel miscomputes its golden results — the harness never
/// reports numbers from a wrong answer.
pub fn run_experiment(spec: &ExperimentSpec, opts: &RunOptions) -> ExperimentResult {
    let cache = Arc::new(match &opts.cache_dir {
        Some(dir) => DiskCache::new(dir),
        None => DiskCache::disabled(),
    });
    run_experiment_shared(spec, opts, cache)
}

/// [`run_experiment`] against a caller-owned cache handle.  This is the
/// server's per-request entry point: one long-lived [`DiskCache`] is shared
/// by every request so its hit/miss/race counters accumulate across the
/// daemon's lifetime, while the returned [`ExperimentResult`] reports only
/// *this run's* deltas (so artifacts stay identical to a fresh-cache run of
/// the same spec).  `opts.cache_dir` is ignored — the handle wins.
pub fn run_experiment_shared(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    cache: Arc<DiskCache>,
) -> ExperimentResult {
    let start = Instant::now();
    let hits0 = cache.hits();
    let misses0 = cache.misses();
    let race0 = cache.race_lost();
    let jobs_n = opts.effective_jobs();
    let run = Run {
        spec,
        cache: &cache,
        sample: opts.sample.as_ref().map(|p| p.normalized()),
        observe: opts.observe,
        interps: AtomicU64::new(0),
        metrics: MetricsRegistry::new(),
        recorder: SpanRecorder::new(opts.trace_spans),
        progress: opts.progress.as_ref(),
        texts: spec
            .workloads
            .iter()
            .map(|w| w.program.to_string())
            .collect(),
        stored_blob: AtomicBool::new(false),
    };

    // The programs of pass 2, in order of first appearance: a workload's
    // base program when some cell runs it untransformed, and each distinct
    // (workload, options) pair.
    let mut programs: Vec<ProgramJob> = Vec::new();
    let mut cell_program = Vec::with_capacity(spec.cells.len());
    let mut index: HashMap<(usize, Option<String>), usize> = HashMap::new();
    for (ci, cell) in spec.cells.iter().enumerate() {
        let id = (
            cell.workload,
            cell.transform.as_ref().map(key::describe_options),
        );
        let p = *index.entry(id).or_insert_with(|| {
            programs.push(ProgramJob {
                workload: cell.workload,
                options: cell.transform.as_ref(),
                cells: Vec::new(),
            });
            programs.len() - 1
        });
        programs[p].cells.push(ci);
        cell_program.push(p);
    }

    // Results land in pre-sized slots and are collected in spec order, so
    // they do not depend on the schedule.
    let profiles: Vec<OnceLock<(Profile, StageTiming)>> = slots(spec.workloads.len());
    let program_slots: Vec<OnceLock<ProgramSlot>> = slots(programs.len());
    let sims: Vec<OnceLock<(SimEntry, StageTiming)>> = slots(spec.cells.len());
    // Base traces recorded in pass 1, each taken by its pass-2 item.
    let handover: Vec<Mutex<Option<Fetched>>> =
        spec.workloads.iter().map(|_| Mutex::new(None)).collect();

    par_for(spec.workloads.len(), jobs_n, |wi| {
        let wants_trace = programs
            .iter()
            .any(|p| p.workload == wi && p.options.is_none());
        let (profile, timing, trace) = run.profile_job(wi, wants_trace);
        *handover[wi].lock().expect("no panic while held") = trace;
        let _ = profiles[wi].set((profile, timing));
    });
    par_for(programs.len(), jobs_n, |p| {
        let job = &programs[p];
        let profile = &profiles[job.workload].get().expect("pass 1 ran").0;
        let handed = match job.options {
            None => handover[job.workload]
                .lock()
                .expect("no panic while held")
                .take(),
            Some(_) => None,
        };
        let (slot, entries) = run.program_job(job, profile, handed);
        for (&ci, entry) in job.cells.iter().zip(entries) {
            let _ = sims[ci].set(entry);
        }
        let _ = program_slots[p].set(slot);
    });

    // Keep the blob footprint bounded (oldest evicted first); JSON stage
    // entries are never evicted.  Only a stored blob can push it past the
    // cap, so a run that stored none skips the directory walk.
    const TRACE_BLOB_CAP: u64 = 256 * 1024 * 1024;
    if run.stored_blob.load(Ordering::Relaxed) {
        cache.gc_blobs(TRACE_BLOB_CAP);
    }

    // Deterministic collection in spec order — the fifth stage (after
    // profile/transform/trace/simulate).
    let collect = run.open("collect", spec.name.clone());
    let workloads = spec
        .workloads
        .iter()
        .zip(profiles)
        .map(|(w, slot)| {
            let (profile, timing) = slot.into_inner().expect("pass 1 ran");
            WorkloadResult {
                name: w.name.to_string(),
                profile: Arc::new(profile),
                timing,
            }
        })
        .collect();
    let program_slots: Vec<ProgramSlot> = program_slots
        .into_iter()
        .map(|s| s.into_inner().expect("pass 2 ran"))
        .collect();
    let cells = spec
        .cells
        .iter()
        .zip(sims)
        .zip(cell_program)
        .map(|((cell, sim), p)| {
            let (entry, sim_timing) = sim.into_inner().expect("pass 2 ran");
            let program = &program_slots[p];
            CellResult {
                workload: spec.workloads[cell.workload].name.to_string(),
                label: cell.label.clone(),
                scheme: cell.scheme,
                stats: entry.stats,
                report: program.report.clone(),
                transform_timing: program.transform_timing,
                trace_timing: program.trace_timing,
                sim_timing,
                accounting: entry.accounting,
                sampling: entry.sampling,
            }
        })
        .collect();

    // Same-key writes that lost to a concurrent writer (two racing worker
    // threads, or a server request that slipped past in-flight dedup) show
    // up as a named counter so duplicated work is observable.
    let race_delta = cache.race_lost() - race0;
    if race_delta > 0 {
        run.metrics.add("cache.race_lost", race_delta);
    }
    run.close(collect, false, 0.0);

    ExperimentResult {
        name: spec.name.clone(),
        scale: spec.scale,
        jobs: jobs_n,
        wall_ms: ms_since(start),
        cache_hits: cache.hits() - hits0,
        cache_misses: cache.misses() - misses0,
        interpretations: run.interps.load(Ordering::Relaxed),
        workloads,
        cells,
        spans: run.recorder.finish(),
        metrics: run.metrics.snapshot(),
    }
}

impl Run<'_> {
    /// Open a stage: start its clock and emit its start event.
    fn open(&self, cat: &'static str, unit: String) -> Stage {
        let stage = Stage {
            cat,
            unit,
            t0: Instant::now(),
        };
        self.emit(&stage, false, StageTiming::default());
        stage
    }

    /// Close a stage: record its span, emit its done event and return its
    /// timing, less the `nested_ms` that stages nested inside it took.
    fn close(&self, stage: Stage, cached: bool, nested_ms: f64) -> StageTiming {
        let end = Instant::now();
        let name = format!("{} {}", stage.cat, stage.unit);
        let args = vec![("cached".to_string(), cached.to_string())];
        self.recorder
            .record_to(name, stage.cat, stage.t0, end, args);
        let timing = StageTiming {
            ms: ms_between(stage.t0, end) - nested_ms,
            cached,
        };
        self.emit(&stage, true, timing);
        timing
    }

    fn emit(&self, stage: &Stage, done: bool, timing: StageTiming) {
        if let Some(hook) = self.progress {
            (hook.0)(&ProgressEvent {
                stage: stage.cat,
                unit: stage.unit.clone(),
                done,
                cached: timing.cached,
                ms: timing.ms,
            });
        }
    }

    /// Pass 1: workload `wi`'s profile.  A cached profile touches no blob.
    /// Otherwise one interpretation computes it and, when `wants_trace`
    /// and no blob replays the base program, records the base trace too.
    /// The base trace this job holds goes to the base program's pass-2
    /// item; its stages nest inside the profile stage.
    fn profile_job(&self, wi: usize, wants_trace: bool) -> (Profile, StageTiming, Option<Fetched>) {
        let w = &self.spec.workloads[wi];
        let stage = self.open("profile", w.name.to_string());
        let pkey = key::profile_key(&self.texts[wi], self.spec.scale);
        if let Some(profile) = load_profile(self.cache, &pkey) {
            return (profile, self.close(stage, true, 0.0), None);
        }
        let tkey = key::trace_key(&self.texts[wi], self.spec.scale);
        let read = wants_trace.then(|| {
            let read = self.open("trace", w.name.to_string());
            let loaded = self.load_trace(wi, &tkey, &w.program);
            let timing = self.close(read, loaded.is_some(), 0.0);
            (loaded, timing)
        });
        self.interps.fetch_add(1, Ordering::Relaxed);
        let mut profiler = guardspec_interp::Profiler::new(&w.program);
        let mut packer = matches!(read, Some((None, _))).then(|| PackedRecorder::new(&w.program));
        let exec = match &mut packer {
            Some(packer) => Interp::new(&w.program).run_with(&mut (&mut profiler, packer)),
            None => Interp::new(&w.program).run_with(&mut profiler),
        }
        .unwrap_or_else(|e| panic!("{}: profile failed: {e}", w.name));
        assert_golden(w.name, "profiling", &w.expected, &exec.machine.mem);
        let profile = profiler.finish();
        self.cache
            .put(&pkey, &codec::profile_to_json(&profile).to_compact());
        let trace = read.map(|(loaded, mut timing)| match (loaded, packer) {
            (Some(data), _) => (data, timing),
            (None, packer) => {
                let tail = self.open("trace", w.name.to_string());
                let packer = packer.expect("recorded with the profile");
                let data = self.finish_trace(wi, &tkey, &w.program, packer);
                timing.ms += self.close(tail, false, 0.0).ms;
                (data, timing)
            }
        });
        let nested = trace.as_ref().map_or(0.0, |(_, t)| t.ms);
        (profile, self.close(stage, false, nested), trace)
    }

    /// Pass 2: one program and its cells.  Transforms the program if the
    /// job asks for it, then walks the cells in spec order.  The first cell
    /// that misses its sim entry gets the trace: the one pass 1 `handed`
    /// over, else the program's blob, else one interpretation.  A cached
    /// transform is rebuilt first (see [`Run::rebuild`]).  The trace, its
    /// decoded uops and the transformed program are dropped on return.
    fn program_job(
        &self,
        job: &ProgramJob,
        profile: &Profile,
        handed: Option<Fetched>,
    ) -> (ProgramSlot, Vec<(SimEntry, StageTiming)>) {
        let (wi, scale) = (job.workload, self.spec.scale);
        let w = &self.spec.workloads[wi];
        let mut transformed = job.options.map(|o| self.transform(wi, o, profile));
        let mut digest = match &transformed {
            Some(t) => t.digest.clone(),
            None => ProgramDigest::of(&self.texts[wi]),
        };
        // A program whose every cell hits reads no trace at all.
        let untouched = StageTiming {
            ms: 0.0,
            cached: true,
        };
        let (mut trace, mut trace_timing) = handed.map_or((None, untouched), |(d, t)| (Some(d), t));
        let (sample, observe) = (self.sample.as_ref(), self.observe);
        let mut entries = Vec::with_capacity(job.cells.len());
        let mut cells = job.cells.iter();
        while let Some(&ci) = cells.next() {
            let cell = &self.spec.cells[ci];
            let stage = self.open("simulate", format!("{}/{}", w.name, cell.label));
            let key = key::sim_key(&digest, scale, cell.scheme, &cell.cfg, sample, observe);
            if let Some(entry) = load_sim(self.cache, &key, observe, sample.is_some()) {
                entries.push((entry, self.close(stage, true, 0.0)));
                continue;
            }
            let mut nested = 0.0;
            if trace.is_none() {
                if let (Some(t), Some(options)) = (&mut transformed, job.options) {
                    if t.built.is_none() {
                        let (stale, ms) = self.rebuild(wi, options, profile, t);
                        nested += ms;
                        if stale {
                            // The cells walked so far hit entries of
                            // another program: walk them all again.
                            self.close(stage, false, nested);
                            digest = t.digest.clone();
                            entries.clear();
                            cells = job.cells.iter();
                            continue;
                        }
                    }
                }
                let (program, text) = match &transformed {
                    Some(t) => {
                        let b = t.built.as_ref().expect("built or rebuilt above");
                        (&b.program, b.text.as_str())
                    }
                    None => (&w.program, self.texts[wi].as_str()),
                };
                let (data, timing) = self.fetch_trace(wi, program, text);
                nested += timing.ms;
                trace_timing = timing;
                trace = Some(data);
            }
            let data = trace.as_ref().expect("fetched above");
            let entry = simulate_cell(data, cell.scheme, &cell.cfg, self.sample, observe)
                .unwrap_or_else(|e| panic!("{}: simulate failed: {e}", stage.unit));
            self.cache
                .put(&key, &codec::sim_entry_to_json(&entry).to_compact());
            if observe {
                // Seed the unobserved entry too, so later unobserved runs
                // stay warm.  Only when absent: rewriting an existing entry
                // would count as a lost race.
                let plain_key = key::sim_key(&digest, scale, cell.scheme, &cell.cfg, sample, false);
                if self.cache.peek(&plain_key).is_none() {
                    let plain = SimEntry {
                        stats: entry.stats.clone(),
                        accounting: None,
                        sampling: entry.sampling.clone(),
                    };
                    self.cache
                        .put(&plain_key, &codec::sim_entry_to_json(&plain).to_compact());
                }
            }
            entries.push((entry, self.close(stage, false, nested)));
        }
        let (report, transform_timing) = match transformed {
            Some(t) => (Some(t.report), Some(t.timing)),
            None => (None, None),
        };
        let slot = ProgramSlot {
            report,
            transform_timing,
            trace_timing,
        };
        (slot, entries)
    }

    /// The transform stage: workload `wi` under `options`, from the cache or
    /// computed from `profile` and stored as its digest and report.
    fn transform(&self, wi: usize, options: &DriverOptions, profile: &Profile) -> Transformed {
        let w = &self.spec.workloads[wi];
        let stage = self.open("transform", w.name.to_string());
        let key = key::transform_key(&self.texts[wi], self.spec.scale, options);
        let (built, digest, report, cached) = match load_transform(self.cache, &key) {
            Some((digest, report)) => (None, digest, report, true),
            None => {
                let (built, report) = build_transform(&w.program, profile, options);
                let digest = ProgramDigest::of(&built.text);
                store_transform(self.cache, &key, &digest, &report);
                (Some(built), digest, report, false)
            }
        };
        Transformed {
            built,
            digest,
            report,
            timing: self.close(stage, cached, 0.0),
        }
    }

    /// Rebuild a cached transform's program from `profile`, for its first
    /// cell that misses: a `transform` stage nested in that cell's, whose
    /// time joins `t`'s.  An entry whose digest is not the rebuilt
    /// program's is stale (the transform changed under an old cache): it
    /// is rewritten, and `t` takes the new digest and report.  An entry
    /// that matches is left as it is.  Returns whether the entry was stale
    /// and the nested stage's time.
    fn rebuild(
        &self,
        wi: usize,
        options: &DriverOptions,
        profile: &Profile,
        t: &mut Transformed,
    ) -> (bool, f64) {
        let w = &self.spec.workloads[wi];
        let stage = self.open("transform", w.name.to_string());
        let (built, report) = build_transform(&w.program, profile, options);
        let digest = ProgramDigest::of(&built.text);
        let stale = digest != t.digest;
        if stale {
            let key = key::transform_key(&self.texts[wi], self.spec.scale, options);
            let e = format!(
                "the entry names program {}, the transform gives {}",
                t.digest.as_str(),
                digest.as_str()
            );
            warn_bad_cache(&key, &e);
            store_transform(self.cache, &key, &digest, &report);
            t.digest = digest;
            t.report = report;
        }
        t.built = Some(built);
        let timing = self.close(stage, false, 0.0);
        t.timing = StageTiming {
            ms: t.timing.ms + timing.ms,
            cached: false,
        };
        (stale, timing.ms)
    }

    /// Pass 2's trace stage: load `program`'s blob, or interpret it once
    /// and store the blob.
    fn fetch_trace(&self, wi: usize, program: &guardspec_ir::Program, text: &str) -> Fetched {
        let w = &self.spec.workloads[wi];
        let stage = self.open("trace", w.name.to_string());
        let tkey = key::trace_key(text, self.spec.scale);
        let (data, cached) = match self.load_trace(wi, &tkey, program) {
            Some(data) => (data, true),
            None => {
                self.interps.fetch_add(1, Ordering::Relaxed);
                let mut packer = PackedRecorder::new(program);
                let exec = Interp::new(program)
                    .run_with(&mut packer)
                    .unwrap_or_else(|e| panic!("{}: trace failed: {e}", w.name));
                assert_golden(w.name, "tracing", &w.expected, &exec.machine.mem);
                (self.finish_trace(wi, &tkey, program, packer), false)
            }
        };
        (data, self.close(stage, cached, 0.0))
    }

    /// Load and validate the cached trace blob of workload `wi`'s
    /// `program`.  Any decode error, site-count or layout mismatch, or
    /// golden-digest mismatch is a miss — the caller re-interprets and
    /// overwrites.  Decode checks every site id against the blob's own site
    /// count, so matching that count to the program's is what keeps every
    /// id inside the simulator's tables.
    fn load_trace(
        &self,
        wi: usize,
        key: &str,
        program: &guardspec_ir::Program,
    ) -> Option<TraceData> {
        let bytes = self.cache.get_bytes(key)?;
        let layout = StaticLayout::build(program);
        let check = || -> Result<PackedTrace, String> {
            let d = tracefile::decode(bytes).map_err(|e| e.to_string())?;
            let sites = layout.num_sites();
            if d.num_sites as usize != sites {
                return Err(format!(
                    "site count mismatch: blob has {}, program has {sites}",
                    d.num_sites
                ));
            }
            if d.layout_digest != tracefile::layout_digest(&layout) {
                return Err("layout digest mismatch".into());
            }
            if d.exec_digest != expected_digest(&self.spec.workloads[wi].expected) {
                return Err("golden-result digest mismatch".into());
            }
            Ok(d.trace)
        };
        match check() {
            Ok(trace) => Some(TraceData {
                trace,
                comp: self.build_compiled(program, &layout),
            }),
            Err(e) => {
                warn_bad_cache(key, &e);
                None
            }
        }
    }

    /// The trace stage's work after interpretation: decode the program's
    /// uops against the recorder's layout, frame the packed records, and
    /// store their bytes as the cache blob under `key`.
    fn finish_trace(
        &self,
        wi: usize,
        key: &str,
        program: &guardspec_ir::Program,
        packer: PackedRecorder,
    ) -> TraceData {
        let comp = self.build_compiled(program, packer.layout());
        let trace = packer.finish(expected_digest(&self.spec.workloads[wi].expected));
        self.cache.put_bytes(key, trace.blob());
        self.stored_blob.store(true, Ordering::Relaxed);
        TraceData { trace, comp }
    }

    /// Decode `program`'s uops against the layout the stage already holds,
    /// recording the decode time as the `sim.block_build_us` run metric:
    /// blob replays skip interpretation but still pay this (small) cost, so
    /// it is accounted separately from the sim stage proper.
    fn build_compiled(
        &self,
        program: &guardspec_ir::Program,
        layout: &StaticLayout,
    ) -> CompiledProgram {
        let t0 = Instant::now();
        let comp = CompiledProgram::build(program, layout);
        self.metrics
            .add("sim.block_build_us", t0.elapsed().as_micros() as u64);
        comp
    }
}

fn slots<T>(n: usize) -> Vec<OnceLock<T>> {
    (0..n).map(|_| OnceLock::new()).collect()
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// Panic unless `mem` carries the workload's expected golden values.
fn assert_golden(wname: &str, stage: &str, expected: &[(u64, i64)], mem: &[i64]) {
    let bad: Vec<_> = expected
        .iter()
        .filter(|&&(addr, want)| mem.get(addr as usize).copied() != Some(want))
        .collect();
    assert!(bad.is_empty(), "{wname} miscomputed under {stage}: {bad:?}");
}

/// FNV-1a digest of the golden `(address, value)` pairs — stored in trace
/// blobs so a blob recorded before a workload's expected results changed
/// can never replay silently.
fn expected_digest(expected: &[(u64, i64)]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut s = 0xcbf2_9ce4_8422_2325u64;
    for &(addr, want) in expected {
        for b in addr
            .to_le_bytes()
            .into_iter()
            .chain((want as u64).to_le_bytes())
        {
            s ^= b as u64;
            s = s.wrapping_mul(PRIME);
        }
    }
    s
}

/// A cache entry failed to decode: drop it (the stage recomputes) and say
/// so as a structured warning.
fn warn_bad_cache(key: &str, e: &str) {
    crate::log::warn(
        "cache.discard",
        &[("key", Json::str(key)), ("error", Json::str(e))],
    );
}

fn load_profile(cache: &DiskCache, key: &str) -> Option<Profile> {
    let text = cache.get(key)?;
    match crate::json::parse(&text).and_then(|j| codec::profile_from_json(&j)) {
        Ok(p) => Some(p),
        Err(e) => {
            warn_bad_cache(key, &e);
            None
        }
    }
}

/// The Figure-6 transform of `program` under `options`, validated, and
/// its report.
fn build_transform(
    program: &guardspec_ir::Program,
    profile: &Profile,
    options: &DriverOptions,
) -> (Built, ReportSummary) {
    let mut program = program.clone();
    let report = guardspec_core::transform_program(&mut program, profile, options);
    guardspec_ir::validate::assert_valid(&program);
    let text = program.to_string();
    (Built { program, text }, ReportSummary::from(&report))
}

/// Store a transform entry: the transformed program's digest and its
/// report, never its text, so a hit parses no IR.
fn store_transform(cache: &DiskCache, key: &str, digest: &ProgramDigest, report: &ReportSummary) {
    let entry = Json::obj(vec![
        ("digest", Json::str(digest.as_str())),
        ("report", codec::report_to_json(report)),
    ]);
    cache.put(key, &entry.to_compact());
}

/// A cached transform: its program's digest and its report.  An entry
/// without a digest (one that held the printed program) is a miss, so it
/// is recomputed and rewritten once.
fn load_transform(cache: &DiskCache, key: &str) -> Option<(ProgramDigest, ReportSummary)> {
    let text = cache.get(key)?;
    let decode = || -> Result<_, String> {
        let j = crate::json::parse(&text)?;
        let digest = j.get("digest").and_then(Json::as_str).ok_or("no digest")?;
        let report = codec::report_from_json(j.get("report").ok_or("no report")?)?;
        Ok((ProgramDigest::parse(digest)?, report))
    };
    match decode() {
        Ok(v) => Some(v),
        Err(e) => {
            warn_bad_cache(key, &e);
            None
        }
    }
}

/// A cached simulation entry of the shape its key family implies (see
/// [`codec::sim_entry_from_json`]).
fn load_sim(cache: &DiskCache, key: &str, observed: bool, sampled: bool) -> Option<SimEntry> {
    let text = cache.get(key)?;
    match crate::json::parse(&text).and_then(|j| codec::sim_entry_from_json(&j, observed, sampled))
    {
        Ok(e) => Some(e),
        Err(e) => {
            warn_bad_cache(key, &e);
            None
        }
    }
}

/// Simulate one cell on this worker's reusable context: the one place the
/// runner calls a simulator engine.  An observed run's cycle accounting is
/// checked against its stats here.
fn simulate_cell(
    data: &TraceData,
    scheme: Scheme,
    cfg: &MachineConfig,
    sample: Option<SampleParams>,
    observe: bool,
) -> Result<SimEntry, SimError> {
    let (trace, comp) = (&data.trace, &data.comp);
    let mut acct = CycleAccounting::new();
    let (stats, sampling) = SIM_CTX.with(|ctx| -> Result<_, SimError> {
        let ctx = &mut ctx.borrow_mut();
        Ok(match (sample, observe) {
            (Some(p), _) => {
                let (stats, smp) = if observe {
                    simulate_sampled_observed_in(ctx, comp, trace, scheme, cfg, p, &mut acct)?
                } else {
                    simulate_sampled_in(ctx, comp, trace, scheme, cfg, p)?
                };
                (stats, Some(smp))
            }
            (None, true) => (
                simulate_compiled_packed_observed_in(ctx, comp, trace, scheme, cfg, &mut acct)?,
                None,
            ),
            (None, false) => (
                simulate_compiled_packed_in(ctx, comp, trace, scheme, cfg)?,
                None,
            ),
        })
    })?;
    let accounting = observe.then(|| {
        acct.check(&stats);
        acct
    });
    Ok(SimEntry {
        stats,
        accounting,
        sampling,
    })
}
