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
//!   binaries' post-processing (Table 1 columns, predictor sweeps).  The
//!   *same* interpreter pass also records the base program's dynamic trace
//!   when any cell simulates the untransformed code — one interpretation,
//!   two products.
//! * One **transform** job per distinct (workload, options) pair — the
//!   ablation's five presets over four workloads make twenty transforms, but
//!   e.g. Tables 3+4 share a single proposed-options transform per workload.
//! * One **trace** job per distinct transformed program ("trace once"):
//!   interpret it once into a [`PackedTrace`] — the self-checking blob
//!   itself — and store those bytes as they are, so warm runs skip
//!   interpretation entirely.
//! * One **simulate** job per cell ("simulate many"): all cells of the same
//!   program read the packed trace concurrently, each through its own
//!   decoding cursor.  A cell looks up its one [`key::sim_key`] entry and,
//!   on a miss, runs `simulate_cell`, the runner's only call into a
//!   simulator engine, and stores the result.
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
use crate::codec::{ReportSummary, SimEntry};
use crate::key;
use crate::metrics::MetricsRegistry;
use crate::pool::JobGraph;
use crate::spec::ExperimentSpec;
use crate::trace_out::{Span, SpanRecorder};
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
            observe: false,
            trace_spans: false,
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
    /// Timing of the shared trace stage this cell consumed (cells of one
    /// program report the same stage once each).  For an untransformed
    /// program this is the trace-only part of its profile job, which the
    /// workload's profile timing excludes.
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

/// A program's packed trace plus its decoded-uop descriptors — produced
/// once per distinct program, consumed by all dependent cells
/// concurrently.
struct TraceData {
    trace: PackedTrace,
    comp: Arc<CompiledProgram>,
}

struct TraceSlot {
    timing: StageTiming,
    data: Arc<TraceData>,
}

struct ProfileSlot {
    timing: StageTiming,
    profile: Arc<Profile>,
    /// Base-program trace, recorded by the same interpretation, when some
    /// cell simulates the untransformed program.  Its timing is the job's
    /// trace-only work, which `timing` excludes.
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
    trace_timing: StageTiming,
    entry: SimEntry,
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
    let observe = opts.observe;
    let sample = opts.sample.as_ref().map(|p| p.normalized());
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

    // Stage 1: one profile job per workload.  Workloads with untransformed
    // cells get their base trace recorded by the same interpreter pass (or
    // loaded from the trace cache).
    let mut profile_jobs = Vec::with_capacity(spec.workloads.len());
    for (wi, w) in spec.workloads.iter().enumerate() {
        let wants_trace = spec
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
            // The job tiles into [trace read][profile][trace tail]: the base
            // trace's cache read and its post-interpretation tail are the
            // trace stage, everything between is the profile stage.
            let t0 = Instant::now();
            progress_emit(&progress, "profile", wname, false, false, 0.0);
            let pkey = key::profile_key(&text, scale);
            let tkey = key::trace_key(&text, scale);
            let exp_digest = expected_digest(&expected);
            let cached_trace = wants_trace
                .then(|| load_trace(&cache, &tkey, &program, exp_digest, &metrics))
                .flatten();
            let t1 = Instant::now();
            let cached_profile = load_profile(&cache, &pkey);
            let profile_cached = cached_profile.is_some();
            let trace_cached = cached_trace.is_some();
            let need_trace = wants_trace && !trace_cached;
            let (profile, packer) = if profile_cached && !need_trace {
                (cached_profile.unwrap(), None)
            } else {
                // One interpretation produces whatever is missing: the
                // profile, the base trace, or both at once through the
                // observer pair.
                interps.fetch_add(1, Ordering::Relaxed);
                let mut profiler = guardspec_interp::Profiler::new(&program);
                let mut packer = PackedRecorder::new(&program);
                let exec = match (profile_cached, need_trace) {
                    (false, true) => {
                        Interp::new(&program).run_with(&mut (&mut profiler, &mut packer))
                    }
                    (false, false) => Interp::new(&program).run_with(&mut profiler),
                    (true, true) => Interp::new(&program).run_with(&mut packer),
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
                (profile, need_trace.then_some(packer))
            };
            let t2 = Instant::now();
            let trace_data = match packer {
                Some(packer) => Some(finish_trace(
                    packer, &program, exp_digest, &cache, &tkey, &metrics,
                )),
                None => cached_trace,
            };
            let t3 = Instant::now();
            let ms = ms_between(t1, t2);
            progress_emit(&progress, "profile", wname, true, profile_cached, ms);
            let span = |name: &str, cat, from, to, cached: bool| {
                let args = vec![("cached".to_string(), cached.to_string())];
                recorder.record_to(format!("{name} {wname}"), cat, from, to, args);
            };
            if wants_trace && cache.is_enabled() {
                span("trace", "trace", t0, t1, trace_cached);
            }
            span("profile", "profile", t1, t2, profile_cached);
            if need_trace {
                span("trace", "trace", t2, t3, false);
            }
            let _ = slots[wi].set(ProfileSlot {
                timing: StageTiming {
                    ms,
                    cached: profile_cached,
                },
                profile: Arc::new(profile),
                trace: trace_data.map(|data| TraceSlot {
                    timing: StageTiming {
                        ms: ms_between(t0, t1) + ms_between(t2, t3),
                        cached: trace_cached,
                    },
                    data,
                }),
            });
        });
        profile_jobs.push(id);
    }

    // Stage 2: one transform job per distinct (workload, options), and one
    // trace job per transform right behind it.
    let transform_slots: Arc<Vec<OnceLock<TransformSlot>>> = Arc::new(
        (0..spec.cells.len()).map(|_| OnceLock::new()).collect(), // upper bound
    );
    let trace_slots: Arc<Vec<OnceLock<TraceSlot>>> =
        Arc::new((0..spec.cells.len()).map(|_| OnceLock::new()).collect());
    // Slot index per distinct (workload, options); one slot indexes both the
    // transform and the trace results.
    let mut transform_slot: HashMap<(usize, String), usize> = HashMap::new();
    // Trace job id per slot index.
    let mut trace_jobs: Vec<usize> = Vec::new();
    // Per cell: its program's slot index.
    let mut cell_transform: Vec<Option<usize>> = vec![None; spec.cells.len()];
    for (ci, cell) in spec.cells.iter().enumerate() {
        let Some(options) = &cell.transform else {
            continue;
        };
        let dedupe = (cell.workload, key::describe_options(options));
        if let Some(&known) = transform_slot.get(&dedupe) {
            cell_transform[ci] = Some(known);
            continue;
        }
        let next_slot = transform_slot.len();
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
        transform_slot.insert(dedupe, next_slot);
        cell_transform[ci] = Some(next_slot);
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
            let cached_trace = load_trace(&cache, &tkey, &t.program, exp_digest, &metrics);
            let cached = cached_trace.is_some();
            let data = match cached_trace {
                Some(d) => d,
                None => {
                    interps.fetch_add(1, Ordering::Relaxed);
                    let mut packer = PackedRecorder::new(&t.program);
                    let exec = Interp::new(&t.program)
                        .run_with(&mut packer)
                        .unwrap_or_else(|e| panic!("{wname}: trace failed: {e}"));
                    assert_golden(wname, "tracing", &expected, &exec.machine.mem);
                    finish_trace(packer, &t.program, exp_digest, &cache, &tkey, &metrics)
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
        // Consume the program's shared trace; interpretation and golden
        // verification already happened in its trace stage.
        let deps = match tslot {
            Some(slot) => vec![trace_jobs[slot]],
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
            let (text, data, trace_timing) = match tslot {
                Some(s) => {
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
            let key = key::sim_key(&text, scale, scheme, &cfg, sample.as_ref(), observe);
            let (entry, cached) = match load_sim(&cache, &key, observe, sample.is_some()) {
                Some(entry) => (entry, true),
                None => {
                    let entry = simulate_cell(&data, scheme, &cfg, sample, observe)
                        .unwrap_or_else(|e| panic!("{unit}: simulate failed: {e}"));
                    cache.put(&key, &codec::sim_entry_to_json(&entry).to_compact());
                    if observe {
                        // Seed the unobserved entry too, so later unobserved
                        // runs stay warm.  Only when absent: rewriting an
                        // existing entry would count as a lost race.
                        let plain_key =
                            key::sim_key(&text, scale, scheme, &cfg, sample.as_ref(), false);
                        if cache.peek(&plain_key).is_none() {
                            let plain = SimEntry {
                                stats: entry.stats.clone(),
                                accounting: None,
                                sampling: entry.sampling.clone(),
                            };
                            cache.put(&plain_key, &codec::sim_entry_to_json(&plain).to_compact());
                        }
                    }
                    (entry, false)
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
                trace_timing,
                entry,
            });
        });
    }

    graph.execute(jobs_n);

    // Keep the blob footprint bounded (oldest evicted first); JSON stage
    // entries are never evicted.
    const TRACE_BLOB_CAP: u64 = 256 * 1024 * 1024;
    cache.gc_blobs(TRACE_BLOB_CAP);

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
            let transform =
                cell_transform[ci].map(|s| transform_slots[s].get().expect("transform job ran"));
            CellResult {
                workload: spec.workloads[cell.workload].name.to_string(),
                label: cell.label.clone(),
                scheme: cell.scheme,
                stats: sim.entry.stats.clone(),
                report: transform.map(|t| t.report.clone()),
                transform_timing: transform.map(|t| t.timing),
                trace_timing: sim.trace_timing,
                sim_timing: sim.timing,
                accounting: sim.entry.accounting.clone(),
                sampling: sim.entry.sampling.clone(),
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

/// The trace stage's work after interpretation: decode the program's uops
/// against the recorder's layout, frame the packed records, and store
/// their bytes as the cache blob under `key`.
fn finish_trace(
    packer: PackedRecorder,
    program: &guardspec_ir::Program,
    exp_digest: u64,
    cache: &DiskCache,
    key: &str,
    metrics: &MetricsRegistry,
) -> Arc<TraceData> {
    let comp = build_compiled(program, packer.layout(), metrics);
    let trace = packer.finish(exp_digest);
    cache.put_bytes(key, trace.blob());
    Arc::new(TraceData { trace, comp })
}

/// Decode `program`'s uops against the layout the stage already holds,
/// recording the decode time as the `sim.block_build_us` run metric: warm
/// trace-cache hits skip interpretation entirely but still pay this
/// (small) cost, so it is accounted separately from the sim stage proper.
fn build_compiled(
    program: &guardspec_ir::Program,
    layout: &StaticLayout,
    metrics: &MetricsRegistry,
) -> Arc<CompiledProgram> {
    let t0 = Instant::now();
    let comp = Arc::new(CompiledProgram::build(program, layout));
    metrics.add("sim.block_build_us", t0.elapsed().as_micros() as u64);
    comp
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
/// site-count or layout mismatch, or golden-digest mismatch is a miss —
/// the caller re-interprets and overwrites.  Decode checks every site id
/// against the blob's own site count, so matching that count to the
/// program's is what keeps every id inside the simulator's tables.
fn load_trace(
    cache: &DiskCache,
    key: &str,
    program: &guardspec_ir::Program,
    want_digest: u64,
    metrics: &MetricsRegistry,
) -> Option<Arc<TraceData>> {
    let bytes = cache.get_bytes(key)?;
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
        if d.exec_digest != want_digest {
            return Err("golden-result digest mismatch".into());
        }
        Ok(d.trace)
    };
    match check() {
        Ok(trace) => {
            let comp = build_compiled(program, &layout, metrics);
            Some(Arc::new(TraceData { trace, comp }))
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
    let (trace, comp) = (&data.trace, &*data.comp);
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
