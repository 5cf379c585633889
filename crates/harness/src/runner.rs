//! Spec execution: expand cells into a deduplicated four-stage job graph,
//! run it on the work-stealing pool, and collect deterministic results.
//!
//! Stage pipeline per cell (arrows are job-graph dependencies):
//!
//! ```text
//! profile(workload) ──► transform(workload, options) ──► trace(program) ──► simulate(cell)
//!        │                                                                     ▲
//!        └── (cells without a transform: base trace, recorded by the  ─────────┘
//!             profile job's single interpretation)
//! ```
//!
//! * One **profile** job per workload, shared by every cell and by the
//!   binaries' post-processing (Table 1 columns, predictor sweeps).  Under
//!   fan-out, the *same* interpreter pass also records the base program's
//!   dynamic trace when any cell simulates the untransformed code — one
//!   interpretation, two products.
//! * One **transform** job per distinct (workload, options) pair — the
//!   ablation's five presets over four workloads make twenty transforms, but
//!   e.g. Tables 3+4 share a single proposed-options transform per workload.
//! * One **trace** job per distinct transformed program ("trace once"):
//!   interpret it once, record [`SharedTrace`] chunks, and persist them as
//!   a self-checking binary blob so warm runs skip interpretation entirely.
//! * One **simulate** job per cell ("simulate many"): all cells of the same
//!   program consume the shared chunks concurrently, each through its own
//!   cursor.  `RunOptions::fanout = false` falls back to the historical
//!   interpret-per-cell path (results are byte-identical either way).
//!
//! Every stage consults the content-addressed [`DiskCache`] first; cold
//! results are verified against the workload's golden memory image before
//! being stored, so the cache only ever holds results from correctly
//! computing kernels.  Trace blobs additionally carry layout and
//! golden-result digests — a blob that fails its checksum, was recorded
//! against a different program shape, or predates a workload change decodes
//! as a miss and is re-recorded.

use crate::cache::DiskCache;
use crate::codec;
use crate::codec::ReportSummary;
use crate::key;
use crate::metrics::MetricsRegistry;
use crate::pool::JobGraph;
use crate::spec::ExperimentSpec;
use crate::trace_out::{Span, SpanRecorder};
use guardspec_interp::{tracefile, ChunkRecorder, Interp, Profile, SharedTrace};
use guardspec_predict::Scheme;
use guardspec_sim::{
    prepare_program, simulate_compiled_shared_in, simulate_compiled_shared_observed_in,
    simulate_compiled_trace_observed_in, simulate_program_compiled_streamed_observed_in,
    simulate_program_streamed_observed_in, simulate_sampled_observed_in, simulate_shared_in,
    simulate_shared_observed_in, simulate_trace_observed_in, CompiledProgram, CycleAccounting,
    MachineConfig, PreparedSim, SampleParams, SampleSummary, SimContext, SimObserver, SimStats,
};
use guardspec_workloads::Scale;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One stage job's lifecycle notification, for live progress reporting
/// (the service layer's `POST /run?stream=1` turns these into
/// newline-delimited JSON events).  Every stage emits a start event
/// (`done = false`) when its job begins and a done event carrying the
/// stage wall time and whether the cache satisfied it.
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
/// `Clone + Debug` derives; the callback runs on pool worker threads, so
/// it must be cheap and must not block on the caller.
#[derive(Clone)]
pub struct ProgressHook(pub Arc<dyn Fn(&ProgressEvent) + Send + Sync>);

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

fn progress_emit(
    hook: &Option<ProgressHook>,
    stage: &'static str,
    unit: &str,
    done: bool,
    cached: bool,
    ms: f64,
) {
    if let Some(h) = hook {
        (h.0)(&ProgressEvent {
            stage,
            unit: unit.to_string(),
            done,
            cached,
            ms,
        });
    }
}

/// How to execute a spec.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Cache root; `None` disables caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// Stream each cell's trace from a concurrent interpreter thread
    /// (bounded memory, overlapped phases).  Only consulted with
    /// `fanout = false`; the fan-out path shares one materialized trace per
    /// program instead.  Results are identical either way.
    pub stream: bool,
    /// Trace once, simulate many: interpret each distinct program in a
    /// dedicated trace stage and fan the shared chunks out to every
    /// dependent sim cell.  `false` restores the historical
    /// one-interpretation-per-cell pipeline.
    pub fanout: bool,
    /// Persist fan-out traces as binary blobs in the cache so warm runs
    /// skip interpretation entirely.  Only meaningful with `fanout` and an
    /// enabled cache.
    pub trace_cache: bool,
    /// Total on-disk budget for trace blobs; oldest blobs beyond it are
    /// evicted after each run ([`DiskCache::gc_blobs`]).
    pub trace_blob_cap: u64,
    /// Run every simulation under the cycle-accounting observer and attach
    /// [`CycleAccounting`] to each cell.  Off by default: the no-op
    /// observer compiles to the exact uninstrumented hot loop and all
    /// artifacts stay byte-identical to an unobserved run's stable payload.
    pub observe: bool,
    /// Record per-stage [`Span`]s for the Chrome trace export
    /// (`--trace-out`).
    pub trace_spans: bool,
    /// Simulate through the compiled block-descriptor engine (the default).
    /// `false` restores the per-entry interpreted dispatch loop.  Exact-mode
    /// results are **byte-identical** either way, so this knob is
    /// deliberately *not* part of any cache key — both engines read and
    /// write the same entries.
    pub compile: bool,
    /// SMARTS-style interval sampling parameters; `None` (the default) runs
    /// every cell exactly.  Sampling forces the compiled engine and the
    /// fan-out pipeline, and switches the sim cache entries to a
    /// `{stats, sampling}` payload under sampling-aware keys.
    pub sample: Option<SampleParams>,
    /// Stage start/done notifications ([`ProgressEvent`]) delivered from
    /// pool worker threads as the run advances; `None` emits nothing.
    /// Deliberately **not** part of any cache key — progress reporting
    /// must never perturb the science.
    pub progress: Option<ProgressHook>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            jobs: 0,
            cache_dir: Some(PathBuf::from("results/cache")),
            stream: true,
            fanout: true,
            trace_cache: true,
            trace_blob_cap: 256 * 1024 * 1024,
            observe: false,
            trace_spans: false,
            compile: true,
            sample: None,
            progress: None,
        }
    }
}

thread_local! {
    /// Per-worker reusable simulator state: caches, BHT, BTB and window
    /// allocations survive across the cells a worker executes.
    static SIM_CTX: RefCell<SimContext> = RefCell::new(SimContext::default());
}

impl RunOptions {
    pub fn effective_jobs(&self) -> usize {
        if self.jobs != 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
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
    pub transform_timing: Option<StageTiming>,
    /// Timing of the shared trace stage this cell consumed (fan-out runs
    /// only; cells of one program report the same stage once each).
    pub trace_timing: Option<StageTiming>,
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
    /// fan-out run performs exactly one per distinct program; a warm
    /// trace-cached run performs zero.
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

/// A program's shared trace plus the static tables every simulation of it
/// needs — produced once, consumed by all dependent cells concurrently.
struct TraceData {
    prep: PreparedSim,
    trace: SharedTrace,
    /// Decoded-uop block descriptors ([`RunOptions::compile`] runs only) —
    /// built once per distinct program, shared by every dependent cell.
    comp: Option<Arc<CompiledProgram>>,
}

struct TraceSlot {
    timing: StageTiming,
    data: Arc<TraceData>,
}

struct ProfileSlot {
    timing: StageTiming,
    profile: Arc<Profile>,
    /// Base-program trace, recorded by the same interpretation, when some
    /// cell simulates the untransformed program under fan-out.
    trace: Option<TraceSlot>,
}

struct TransformSlot {
    timing: StageTiming,
    program: Arc<guardspec_ir::Program>,
    text: Arc<String>,
    report: ReportSummary,
}

struct SimSlot {
    timing: StageTiming,
    trace_timing: Option<StageTiming>,
    stats: SimStats,
    accounting: Option<CycleAccounting>,
    sampling: Option<SampleSummary>,
}

/// Execute a spec.  Panics (after cancelling outstanding jobs) if any
/// kernel miscomputes its golden results — the harness never reports
/// numbers from a wrong answer.
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
    let scale = spec.scale;
    let jobs_n = opts.effective_jobs();
    let use_trace_cache = opts.trace_cache && cache.is_enabled();
    let observe = opts.observe;
    // Sampling needs the compiled engine (functional warming walks the uop
    // descriptors) and a materialized shared trace, so it forces both.
    let sample = opts.sample.as_ref().map(|p| p.normalized());
    let compile = opts.compile || sample.is_some();
    let fanout = opts.fanout || sample.is_some();
    let interps = Arc::new(AtomicU64::new(0));
    let metrics = Arc::new(MetricsRegistry::new());
    let recorder = Arc::new(SpanRecorder::new(opts.trace_spans));

    // Shared, pre-sized output slots: job closures write, the collection
    // phase below reads in spec order — this is what makes results
    // independent of scheduling.
    let profile_slots: Arc<Vec<OnceLock<ProfileSlot>>> =
        Arc::new((0..spec.workloads.len()).map(|_| OnceLock::new()).collect());
    let sim_slots: Arc<Vec<OnceLock<SimSlot>>> =
        Arc::new((0..spec.cells.len()).map(|_| OnceLock::new()).collect());

    // Program text is the cache-key ingredient for every stage; compute it
    // once per workload up front.
    let texts: Vec<Arc<String>> = spec
        .workloads
        .iter()
        .map(|w| Arc::new(w.program.to_string()))
        .collect();

    let mut graph = JobGraph::new();

    // Stage 1: one profile job per workload.  Under fan-out, workloads with
    // untransformed cells get their base trace recorded by the same
    // interpreter pass (or loaded from the trace cache).
    let mut profile_jobs = Vec::with_capacity(spec.workloads.len());
    for (wi, w) in spec.workloads.iter().enumerate() {
        let wants_trace = fanout
            && spec
                .cells
                .iter()
                .any(|c| c.workload == wi && c.transform.is_none());
        let slots = profile_slots.clone();
        let cache = cache.clone();
        let interps = interps.clone();
        let metrics = metrics.clone();
        let recorder = recorder.clone();
        let text = texts[wi].clone();
        let program = w.program.clone();
        let expected = w.expected.clone();
        let wname = w.name;
        let progress = opts.progress.clone();
        let id = graph.add(&[], move || {
            let t0 = Instant::now();
            progress_emit(&progress, "profile", wname, false, false, 0.0);
            let pkey = key::profile_key(&text, scale);
            let tkey = key::trace_key(&text, scale);
            let exp_digest = expected_digest(&expected);
            let cached_profile = load_profile(&cache, &pkey);
            let cached_trace = (wants_trace && use_trace_cache)
                .then(|| load_trace(&cache, &tkey, &program, exp_digest, compile, &metrics))
                .flatten();
            let profile_cached = cached_profile.is_some();
            let trace_cached = cached_trace.is_some();
            let need_trace = wants_trace && !trace_cached;
            let (profile, trace_data) = if profile_cached && !need_trace {
                (cached_profile.unwrap(), cached_trace)
            } else {
                // One interpretation produces whatever is missing: the
                // profile, the base trace, or both at once through the
                // observer pair.
                interps.fetch_add(1, Ordering::Relaxed);
                let mut profiler = guardspec_interp::Profiler::new(&program);
                let mut recorder = ChunkRecorder::new(&program);
                let exec = match (profile_cached, need_trace) {
                    (false, true) => {
                        Interp::new(&program).run_with(&mut (&mut profiler, &mut recorder))
                    }
                    (false, false) => Interp::new(&program).run_with(&mut profiler),
                    (true, true) => Interp::new(&program).run_with(&mut recorder),
                    (true, false) => unreachable!("nothing to interpret"),
                }
                .unwrap_or_else(|e| panic!("{wname}: profile failed: {e}"));
                assert_golden(wname, "profiling", &expected, &exec.machine.mem);
                let profile = match cached_profile {
                    Some(p) => p,
                    None => {
                        let p = profiler.finish();
                        cache.put(&pkey, &codec::profile_to_json(&p).to_compact());
                        p
                    }
                };
                let trace_data = if need_trace {
                    let trace = recorder.finish();
                    let prep = prepare_program(&program);
                    if use_trace_cache {
                        cache.put_bytes(
                            &tkey,
                            &tracefile::encode(prep.layout(), trace.iter(), exp_digest),
                        );
                    }
                    let comp = build_compiled(&program, compile, &metrics);
                    Some(Arc::new(TraceData { prep, trace, comp }))
                } else {
                    cached_trace
                };
                (profile, trace_data)
            };
            let ms = ms_since(t0);
            progress_emit(&progress, "profile", wname, true, profile_cached, ms);
            recorder.record(
                format!("profile {wname}"),
                "profile",
                t0,
                vec![("cached".to_string(), profile_cached.to_string())],
            );
            let _ = slots[wi].set(ProfileSlot {
                timing: StageTiming {
                    ms,
                    cached: profile_cached,
                },
                profile: Arc::new(profile),
                // The merged pass makes per-product wall time inseparable;
                // both stages report the job's time with their own flags.
                trace: trace_data.map(|data| TraceSlot {
                    timing: StageTiming {
                        ms,
                        cached: trace_cached,
                    },
                    data,
                }),
            });
        });
        profile_jobs.push(id);
    }

    // Stage 2: one transform job per distinct (workload, options) — and,
    // under fan-out, one trace job per transform right behind it.
    let transform_slots: Arc<Vec<OnceLock<TransformSlot>>> = Arc::new(
        (0..spec.cells.len()).map(|_| OnceLock::new()).collect(), // upper bound
    );
    let trace_slots: Arc<Vec<OnceLock<TraceSlot>>> =
        Arc::new((0..spec.cells.len()).map(|_| OnceLock::new()).collect());
    let mut transform_jobs: HashMap<(usize, String), (usize, usize)> = HashMap::new();
    // Trace job id per transform slot index (fan-out only).
    let mut trace_jobs: Vec<usize> = Vec::new();
    // Per cell: the transform's (job id, slot index), stored together at
    // creation so stage dependencies can never desync from result slots.
    let mut cell_transform: Vec<Option<(usize, usize)>> = vec![None; spec.cells.len()];
    for (ci, cell) in spec.cells.iter().enumerate() {
        let Some(options) = &cell.transform else {
            continue;
        };
        let dedupe = (cell.workload, key::describe_options(options));
        if let Some(&known) = transform_jobs.get(&dedupe) {
            cell_transform[ci] = Some(known);
            continue;
        }
        let next_slot = transform_jobs.len();
        let wi = cell.workload;
        let tf_id = {
            let slots = transform_slots.clone();
            let profiles = profile_slots.clone();
            let cache = cache.clone();
            let recorder = recorder.clone();
            let text = texts[wi].clone();
            let program = spec.workloads[wi].program.clone();
            let options = options.clone();
            let wname = spec.workloads[wi].name;
            let progress = opts.progress.clone();
            graph.add(&[profile_jobs[wi]], move || {
                let t0 = Instant::now();
                progress_emit(&progress, "transform", wname, false, false, 0.0);
                let key = key::transform_key(&text, scale, &options);
                let (program, text, report, cached) = match load_transform(&cache, &key) {
                    Some((p, t, r)) => (p, t, r, true),
                    None => {
                        let profile = &profiles[wi].get().expect("profile dependency ran").profile;
                        let mut p = program;
                        let report = guardspec_core::transform_program(&mut p, profile, &options);
                        guardspec_ir::validate::assert_valid(&p);
                        let out_text = p.to_string();
                        let summary = ReportSummary::from(&report);
                        // The printed text is the whole entry: warm hits
                        // re-parse it, which is smaller and faster than
                        // decoding a binary copy.
                        cache.put(
                            &key,
                            &crate::json::Json::obj(vec![
                                ("program", crate::json::Json::str(&out_text)),
                                ("report", codec::report_to_json(&summary)),
                            ])
                            .to_compact(),
                        );
                        (p, out_text, summary, false)
                    }
                };
                let timing = StageTiming {
                    ms: ms_since(t0),
                    cached,
                };
                progress_emit(&progress, "transform", wname, true, cached, timing.ms);
                recorder.record(
                    format!("transform {wname}"),
                    "transform",
                    t0,
                    vec![("cached".to_string(), cached.to_string())],
                );
                let _ = slots[next_slot].set(TransformSlot {
                    timing,
                    program: Arc::new(program),
                    text: Arc::new(text),
                    report,
                });
            })
        };
        transform_jobs.insert(dedupe, (tf_id, next_slot));
        cell_transform[ci] = Some((tf_id, next_slot));
        if fanout {
            // Stage 2.5: trace the transformed program exactly once.
            let slots = trace_slots.clone();
            let transforms = transform_slots.clone();
            let cache = cache.clone();
            let interps = interps.clone();
            let metrics = metrics.clone();
            let recorder = recorder.clone();
            let expected = spec.workloads[wi].expected.clone();
            let wname = spec.workloads[wi].name;
            let progress = opts.progress.clone();
            let tr_id = graph.add(&[tf_id], move || {
                let t0 = Instant::now();
                progress_emit(&progress, "trace", wname, false, false, 0.0);
                let t = transforms[next_slot]
                    .get()
                    .expect("transform dependency ran");
                let tkey = key::trace_key(&t.text, scale);
                let exp_digest = expected_digest(&expected);
                let cached_trace = use_trace_cache
                    .then(|| load_trace(&cache, &tkey, &t.program, exp_digest, compile, &metrics))
                    .flatten();
                let cached = cached_trace.is_some();
                let data = match cached_trace {
                    Some(d) => d,
                    None => {
                        interps.fetch_add(1, Ordering::Relaxed);
                        let mut recorder = ChunkRecorder::new(&t.program);
                        let exec = Interp::new(&t.program)
                            .run_with(&mut recorder)
                            .unwrap_or_else(|e| panic!("{wname}: trace failed: {e}"));
                        assert_golden(wname, "tracing", &expected, &exec.machine.mem);
                        let trace = recorder.finish();
                        let prep = prepare_program(&t.program);
                        if use_trace_cache {
                            cache.put_bytes(
                                &tkey,
                                &tracefile::encode(prep.layout(), trace.iter(), exp_digest),
                            );
                        }
                        let comp = build_compiled(&t.program, compile, &metrics);
                        Arc::new(TraceData { prep, trace, comp })
                    }
                };
                recorder.record(
                    format!("trace {wname}"),
                    "trace",
                    t0,
                    vec![("cached".to_string(), cached.to_string())],
                );
                let ms = ms_since(t0);
                progress_emit(&progress, "trace", wname, true, cached, ms);
                let _ = slots[next_slot].set(TraceSlot {
                    timing: StageTiming { ms, cached },
                    data,
                });
            });
            trace_jobs.push(tr_id);
        }
    }

    // Stage 3: one simulate job per cell.
    for (ci, cell) in spec.cells.iter().enumerate() {
        let wi = cell.workload;
        let slots = sim_slots.clone();
        let cache = cache.clone();
        let base_text = texts[wi].clone();
        let wname = spec.workloads[wi].name;
        let label = cell.label.clone();
        let scheme = cell.scheme;
        let cfg = cell.cfg.clone();
        let tslot = cell_transform[ci];
        if fanout {
            // Fan-out: consume the program's shared trace; interpretation
            // and golden verification already happened in its trace stage.
            let deps = match tslot {
                Some((_job, slot)) => vec![trace_jobs[slot]],
                None => vec![profile_jobs[wi]],
            };
            let transforms = transform_slots.clone();
            let traces = trace_slots.clone();
            let profiles = profile_slots.clone();
            let recorder = recorder.clone();
            let progress = opts.progress.clone();
            graph.add(&deps, move || {
                let t0 = Instant::now();
                let unit = format!("{wname}/{label}");
                progress_emit(&progress, "simulate", &unit, false, false, 0.0);
                let (text, data, trace_timing): (Arc<String>, Arc<TraceData>, StageTiming) =
                    match tslot {
                        Some((_job, s)) => {
                            let tf = transforms[s].get().expect("transform dependency ran");
                            let tr = traces[s].get().expect("trace dependency ran");
                            (tf.text.clone(), tr.data.clone(), tr.timing)
                        }
                        None => {
                            let p = profiles[wi].get().expect("profile dependency ran");
                            let tr = p.trace.as_ref().expect("base trace recorded");
                            (base_text, tr.data.clone(), tr.timing)
                        }
                    };
                let (stats, accounting, sampling, cached) = if let Some(p) = sample {
                    let comp = data
                        .comp
                        .as_ref()
                        .expect("sampling forces compiled descriptors");
                    if observe {
                        let okey = key::sampled_obs_sim_key(&text, scale, scheme, &cfg, &p);
                        match load_observed_sampled(&cache, &okey) {
                            Some((s, a, smp)) => (s, Some(a), Some(smp), true),
                            None => {
                                let mut acct = CycleAccounting::new();
                                let (stats, smp) = SIM_CTX
                                    .with(|ctx| {
                                        simulate_sampled_observed_in(
                                            &mut ctx.borrow_mut(),
                                            comp,
                                            &data.trace,
                                            scheme,
                                            &cfg,
                                            p,
                                            &mut acct,
                                        )
                                    })
                                    .unwrap_or_else(|e| {
                                        panic!("{wname}/{label}: simulate failed: {e}")
                                    });
                                acct.check(&stats);
                                cache.put(
                                    &okey,
                                    &observed_sampled_to_json(&stats, &acct, &smp).to_compact(),
                                );
                                let skey = key::sampled_sim_key(&text, scale, scheme, &cfg, &p);
                                cache.put(&skey, &sampled_to_json(&stats, &smp).to_compact());
                                (stats, Some(acct), Some(smp), false)
                            }
                        }
                    } else {
                        let skey = key::sampled_sim_key(&text, scale, scheme, &cfg, &p);
                        match load_sampled(&cache, &skey) {
                            Some((s, smp)) => (s, None, Some(smp), true),
                            None => {
                                let (stats, smp) = SIM_CTX
                                    .with(|ctx| {
                                        simulate_sampled_observed_in(
                                            &mut ctx.borrow_mut(),
                                            comp,
                                            &data.trace,
                                            scheme,
                                            &cfg,
                                            p,
                                            &mut (),
                                        )
                                    })
                                    .unwrap_or_else(|e| {
                                        panic!("{wname}/{label}: simulate failed: {e}")
                                    });
                                cache.put(&skey, &sampled_to_json(&stats, &smp).to_compact());
                                (stats, None, Some(smp), false)
                            }
                        }
                    }
                } else if observe {
                    let okey = key::obs_sim_key(&text, scale, scheme, &cfg);
                    match load_observed(&cache, &okey) {
                        Some((s, a)) => (s, Some(a), None, true),
                        None => {
                            let mut acct = CycleAccounting::new();
                            let stats = SIM_CTX
                                .with(|ctx| {
                                    let ctx = &mut ctx.borrow_mut();
                                    match &data.comp {
                                        Some(comp) => simulate_compiled_shared_observed_in(
                                            ctx,
                                            comp,
                                            &data.trace,
                                            scheme,
                                            &cfg,
                                            &mut acct,
                                        ),
                                        None => simulate_shared_observed_in(
                                            ctx,
                                            &data.prep,
                                            &data.trace,
                                            scheme,
                                            &cfg,
                                            &mut acct,
                                        ),
                                    }
                                })
                                .unwrap_or_else(|e| {
                                    panic!("{wname}/{label}: simulate failed: {e}")
                                });
                            acct.check(&stats);
                            cache.put(&okey, &observed_to_json(&stats, &acct).to_compact());
                            // Seed the plain entry too: an observed run
                            // leaves later unobserved runs warm.
                            let skey = key::sim_key(&text, scale, scheme, &cfg);
                            cache.put(&skey, &codec::stats_to_json(&stats).to_compact());
                            (stats, Some(acct), None, false)
                        }
                    }
                } else {
                    let key = key::sim_key(&text, scale, scheme, &cfg);
                    match load_stats(&cache, &key) {
                        Some(s) => (s, None, None, true),
                        None => {
                            let stats = SIM_CTX
                                .with(|ctx| {
                                    let ctx = &mut ctx.borrow_mut();
                                    match &data.comp {
                                        Some(comp) => simulate_compiled_shared_in(
                                            ctx,
                                            comp,
                                            &data.trace,
                                            scheme,
                                            &cfg,
                                        ),
                                        None => simulate_shared_in(
                                            ctx,
                                            &data.prep,
                                            &data.trace,
                                            scheme,
                                            &cfg,
                                        ),
                                    }
                                })
                                .unwrap_or_else(|e| {
                                    panic!("{wname}/{label}: simulate failed: {e}")
                                });
                            cache.put(&key, &codec::stats_to_json(&stats).to_compact());
                            (stats, None, None, false)
                        }
                    }
                };
                recorder.record(
                    format!("simulate {wname}/{label}"),
                    "simulate",
                    t0,
                    vec![("cached".to_string(), cached.to_string())],
                );
                let ms = ms_since(t0);
                progress_emit(&progress, "simulate", &unit, true, cached, ms);
                let _ = slots[ci].set(SimSlot {
                    timing: StageTiming { ms, cached },
                    trace_timing: Some(trace_timing),
                    stats,
                    accounting,
                    sampling,
                });
            });
        } else {
            // Historical path: each cold cell interprets its own program
            // (streamed or materialized) and verifies golden memory itself.
            let deps = match tslot {
                Some((job, _slot)) => vec![job],
                None => Vec::new(),
            };
            let transforms = transform_slots.clone();
            let interps = interps.clone();
            let metrics = metrics.clone();
            let recorder = recorder.clone();
            let base_program = spec.workloads[wi].program.clone();
            let expected = spec.workloads[wi].expected.clone();
            let stream = opts.stream;
            let progress = opts.progress.clone();
            graph.add(&deps, move || {
                let t0 = Instant::now();
                let unit = format!("{wname}/{label}");
                progress_emit(&progress, "simulate", &unit, false, false, 0.0);
                let (program, text): (Arc<guardspec_ir::Program>, Arc<String>) = match tslot {
                    Some((_job, s)) => {
                        let t = transforms[s].get().expect("transform dependency ran");
                        (t.program.clone(), t.text.clone())
                    }
                    None => (Arc::new(base_program), base_text),
                };
                let (stats, accounting, cached) = if observe {
                    let okey = key::obs_sim_key(&text, scale, scheme, &cfg);
                    match load_observed(&cache, &okey) {
                        Some((s, a)) => (s, Some(a), true),
                        None => {
                            interps.fetch_add(1, Ordering::Relaxed);
                            let comp = build_compiled(&program, compile, &metrics);
                            let mut acct = CycleAccounting::new();
                            let (stats, exec) = SIM_CTX.with(|ctx| {
                                simulate_cell_cold(
                                    &mut ctx.borrow_mut(),
                                    &program,
                                    comp.as_deref(),
                                    scheme,
                                    &cfg,
                                    stream,
                                    wname,
                                    &label,
                                    &mut acct,
                                )
                            });
                            assert_golden(wname, &label, &expected, &exec.machine.mem);
                            acct.check(&stats);
                            cache.put(&okey, &observed_to_json(&stats, &acct).to_compact());
                            let skey = key::sim_key(&text, scale, scheme, &cfg);
                            cache.put(&skey, &codec::stats_to_json(&stats).to_compact());
                            (stats, Some(acct), false)
                        }
                    }
                } else {
                    let key = key::sim_key(&text, scale, scheme, &cfg);
                    match load_stats(&cache, &key) {
                        Some(s) => (s, None, true),
                        None => {
                            interps.fetch_add(1, Ordering::Relaxed);
                            let comp = build_compiled(&program, compile, &metrics);
                            let (stats, exec) = SIM_CTX.with(|ctx| {
                                simulate_cell_cold(
                                    &mut ctx.borrow_mut(),
                                    &program,
                                    comp.as_deref(),
                                    scheme,
                                    &cfg,
                                    stream,
                                    wname,
                                    &label,
                                    &mut (),
                                )
                            });
                            assert_golden(wname, &label, &expected, &exec.machine.mem);
                            cache.put(&key, &codec::stats_to_json(&stats).to_compact());
                            (stats, None, false)
                        }
                    }
                };
                recorder.record(
                    format!("simulate {wname}/{label}"),
                    "simulate",
                    t0,
                    vec![("cached".to_string(), cached.to_string())],
                );
                let ms = ms_since(t0);
                progress_emit(&progress, "simulate", &unit, true, cached, ms);
                let _ = slots[ci].set(SimSlot {
                    timing: StageTiming { ms, cached },
                    trace_timing: None,
                    stats,
                    accounting,
                    sampling: None,
                });
            });
        }
    }

    graph.execute(jobs_n);

    // Keep the blob footprint bounded; JSON stage entries are never evicted.
    if use_trace_cache {
        cache.gc_blobs(opts.trace_blob_cap);
    }

    // Deterministic collection in spec order — the fifth pipeline stage
    // (after profile/transform/trace/simulate): assemble slot outputs into
    // the result in a fixed order, independent of execution schedule.
    let t_collect = Instant::now();
    progress_emit(&opts.progress, "collect", &spec.name, false, false, 0.0);
    let workloads = spec
        .workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let slot = profile_slots[wi].get().expect("profile job ran");
            WorkloadResult {
                name: w.name.to_string(),
                profile: slot.profile.clone(),
                timing: slot.timing,
            }
        })
        .collect();
    let cells = spec
        .cells
        .iter()
        .enumerate()
        .map(|(ci, cell)| {
            let sim = sim_slots[ci].get().expect("sim job ran");
            let transform = cell_transform[ci]
                .map(|(_job, s)| transform_slots[s].get().expect("transform job ran"));
            CellResult {
                workload: spec.workloads[cell.workload].name.to_string(),
                label: cell.label.clone(),
                scheme: cell.scheme,
                stats: sim.stats.clone(),
                report: transform.map(|t| t.report.clone()),
                transform_timing: transform.map(|t| t.timing),
                trace_timing: sim.trace_timing,
                sim_timing: sim.timing,
                accounting: sim.accounting.clone(),
                sampling: sim.sampling.clone(),
            }
        })
        .collect();

    // Same-key writes that lost to a concurrent writer (two racing worker
    // threads, or a server request that slipped past in-flight dedup) show
    // up as a named counter so duplicated work is observable.
    let race_delta = cache.race_lost() - race0;
    if race_delta > 0 {
        metrics.add("cache.race_lost", race_delta);
    }

    recorder.record(
        format!("collect {}", spec.name),
        "collect",
        t_collect,
        Vec::new(),
    );
    progress_emit(
        &opts.progress,
        "collect",
        &spec.name,
        true,
        false,
        ms_since(t_collect),
    );

    ExperimentResult {
        name: spec.name.clone(),
        scale,
        jobs: jobs_n,
        wall_ms: ms_since(start),
        cache_hits: cache.hits() - hits0,
        cache_misses: cache.misses() - misses0,
        interpretations: interps.load(Ordering::Relaxed),
        workloads,
        cells,
        spans: recorder.finish(),
        metrics: metrics.snapshot(),
    }
}

/// The uncached no-fanout simulation: interpret (streamed or materialized)
/// and simulate under `obs`.  `&mut ()` is the uninstrumented fast path —
/// the disabled observer folds every hook to dead code.  `comp` selects the
/// compiled block-descriptor engine; `None` runs the historical
/// interpreted dispatch loop (results byte-identical either way).
#[allow(clippy::too_many_arguments)]
fn simulate_cell_cold<O: SimObserver>(
    ctx: &mut SimContext,
    program: &guardspec_ir::Program,
    comp: Option<&CompiledProgram>,
    scheme: Scheme,
    cfg: &MachineConfig,
    stream: bool,
    wname: &str,
    label: &str,
    obs: &mut O,
) -> (SimStats, guardspec_interp::ExecResult) {
    if stream {
        match comp {
            Some(c) => {
                simulate_program_compiled_streamed_observed_in(ctx, program, c, scheme, cfg, obs)
            }
            None => simulate_program_streamed_observed_in(ctx, program, scheme, cfg, obs),
        }
        .unwrap_or_else(|e| panic!("{wname}/{label}: simulate failed: {e}"))
    } else {
        let (layout, trace, exec) = guardspec_interp::trace::trace_program(program)
            .unwrap_or_else(|e| panic!("{wname}/{label}: trace failed: {e}"));
        let stats = match comp {
            Some(c) => simulate_compiled_trace_observed_in(ctx, c, &trace, scheme, cfg, obs),
            None => simulate_trace_observed_in(ctx, program, &layout, &trace, scheme, cfg, obs),
        }
        .unwrap_or_else(|e| panic!("{wname}/{label}: simulate failed: {e}"));
        (stats, exec)
    }
}

/// Build the decoded-uop descriptors for a compiled run, recording the
/// build time as the `sim.block_build_us` run metric: warm trace-cache
/// hits skip interpretation entirely but still pay this (small) decode
/// cost, so it is accounted separately from the sim stage proper.
fn build_compiled(
    program: &guardspec_ir::Program,
    compile: bool,
    metrics: &MetricsRegistry,
) -> Option<Arc<CompiledProgram>> {
    if !compile {
        return None;
    }
    let t0 = Instant::now();
    let comp = Arc::new(CompiledProgram::build(program));
    metrics.add("sim.block_build_us", t0.elapsed().as_micros() as u64);
    Some(comp)
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
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
        &[
            ("key", crate::json::Json::str(key)),
            ("error", crate::json::Json::str(e)),
        ],
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

/// Load and validate a cached trace blob for `program`.  Any decode error,
/// layout mismatch or golden-digest mismatch is a miss — the caller
/// re-interprets and overwrites.
fn load_trace(
    cache: &DiskCache,
    key: &str,
    program: &guardspec_ir::Program,
    want_digest: u64,
    compile: bool,
    metrics: &MetricsRegistry,
) -> Option<Arc<TraceData>> {
    let bytes = cache.get_bytes(key)?;
    let prep = prepare_program(program);
    let check = || -> Result<SharedTrace, String> {
        let d = tracefile::decode(&bytes).map_err(|e| e.to_string())?;
        if d.layout_digest != tracefile::layout_digest(prep.layout()) {
            return Err("layout digest mismatch".into());
        }
        if d.exec_digest != want_digest {
            return Err("golden-result digest mismatch".into());
        }
        Ok(d.trace)
    };
    match check() {
        Ok(trace) => {
            let comp = build_compiled(program, compile, metrics);
            Some(Arc::new(TraceData { prep, trace, comp }))
        }
        Err(e) => {
            warn_bad_cache(key, &e);
            None
        }
    }
}

/// A cached transform: the printed program (re-parsed) and its report.
/// Entries written with a binary `bin` copy alongside still hit; the copy
/// is ignored.
fn load_transform(
    cache: &DiskCache,
    key: &str,
) -> Option<(guardspec_ir::Program, String, ReportSummary)> {
    let text = cache.get(key)?;
    let decode = || -> Result<_, String> {
        let j = crate::json::parse(&text)?;
        let src = j
            .get("program")
            .and_then(crate::json::Json::as_str)
            .ok_or("no program")?;
        let report = codec::report_from_json(j.get("report").ok_or("no report")?)?;
        let program = guardspec_ir::parse::parse_program(src, None).map_err(|e| e.to_string())?;
        Ok((program, src.to_string(), report))
    };
    match decode() {
        Ok(v) => Some(v),
        Err(e) => {
            warn_bad_cache(key, &e);
            None
        }
    }
}

fn observed_to_json(stats: &SimStats, acct: &CycleAccounting) -> crate::json::Json {
    crate::json::Json::obj(vec![
        ("stats", codec::stats_to_json(stats)),
        ("accounting", codec::accounting_to_json(acct)),
    ])
}

fn sampled_to_json(stats: &SimStats, smp: &SampleSummary) -> crate::json::Json {
    crate::json::Json::obj(vec![
        ("stats", codec::stats_to_json(stats)),
        ("sampling", codec::sample_to_json(smp)),
    ])
}

fn observed_sampled_to_json(
    stats: &SimStats,
    acct: &CycleAccounting,
    smp: &SampleSummary,
) -> crate::json::Json {
    crate::json::Json::obj(vec![
        ("stats", codec::stats_to_json(stats)),
        ("accounting", codec::accounting_to_json(acct)),
        ("sampling", codec::sample_to_json(smp)),
    ])
}

/// Load a cached sampled-simulation entry ({stats, sampling}).
fn load_sampled(cache: &DiskCache, key: &str) -> Option<(SimStats, SampleSummary)> {
    let text = cache.get(key)?;
    let decode = || -> Result<_, String> {
        let j = crate::json::parse(&text)?;
        let stats = codec::stats_from_json(j.get("stats").ok_or("no stats")?)?;
        let smp = codec::sample_from_json(j.get("sampling").ok_or("no sampling")?)?;
        Ok((stats, smp))
    };
    match decode() {
        Ok(v) => Some(v),
        Err(e) => {
            warn_bad_cache(key, &e);
            None
        }
    }
}

/// Load a cached sampled+observed entry; the bucket-sum invariant is
/// re-checked against the aggregate window stats on load.
fn load_observed_sampled(
    cache: &DiskCache,
    key: &str,
) -> Option<(SimStats, CycleAccounting, SampleSummary)> {
    let text = cache.get(key)?;
    let decode = || -> Result<_, String> {
        let j = crate::json::parse(&text)?;
        let stats = codec::stats_from_json(j.get("stats").ok_or("no stats")?)?;
        let acct = codec::accounting_from_json(j.get("accounting").ok_or("no accounting")?)?;
        if acct.bucket_sum() != stats.cycles {
            return Err(format!(
                "bucket sum {} != cycles {}",
                acct.bucket_sum(),
                stats.cycles
            ));
        }
        let smp = codec::sample_from_json(j.get("sampling").ok_or("no sampling")?)?;
        Ok((stats, acct, smp))
    };
    match decode() {
        Ok(v) => Some(v),
        Err(e) => {
            warn_bad_cache(key, &e);
            None
        }
    }
}

/// Load a cached observed-simulation entry (stats + cycle accounting).
/// The bucket-sum invariant is re-checked on load so a corrupt entry is a
/// miss, never a wrong attribution table.
fn load_observed(cache: &DiskCache, key: &str) -> Option<(SimStats, CycleAccounting)> {
    let text = cache.get(key)?;
    let decode = || -> Result<_, String> {
        let j = crate::json::parse(&text)?;
        let stats = codec::stats_from_json(j.get("stats").ok_or("no stats")?)?;
        let acct = codec::accounting_from_json(j.get("accounting").ok_or("no accounting")?)?;
        if acct.bucket_sum() != stats.cycles {
            return Err(format!(
                "bucket sum {} != cycles {}",
                acct.bucket_sum(),
                stats.cycles
            ));
        }
        Ok((stats, acct))
    };
    match decode() {
        Ok(v) => Some(v),
        Err(e) => {
            warn_bad_cache(key, &e);
            None
        }
    }
}

fn load_stats(cache: &DiskCache, key: &str) -> Option<SimStats> {
    let text = cache.get(key)?;
    match crate::json::parse(&text).and_then(|j| codec::stats_from_json(&j)) {
        Ok(s) => Some(s),
        Err(e) => {
            warn_bad_cache(key, &e);
            None
        }
    }
}
