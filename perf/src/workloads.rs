//! The five workloads: what each set-up builds, what one rep runs, and how
//! each rep's output is checked.  Everything here runs inside a child
//! process (`perf --run <workload>`); the parent only spawns, times out and
//! aggregates.

use guardspec_core::DriverOptions;
use guardspec_harness::hash::hex_digest;
use guardspec_harness::{
    json, run_experiment, stable_json, ExperimentResult, ExperimentSpec, Json, RunOptions,
};
use guardspec_predict::Scheme;
use guardspec_server::http::ClientConn;
use guardspec_server::protocol::{
    request_to_json, three_schemes_request, to_spec, CellReq, RunRequest, WorkloadReq,
};
use guardspec_server::{Server, ServerConfig, ServerHandle};
use guardspec_sim::MachineConfig;
use guardspec_workloads::Scale;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Workload names, in the order a full run starts its first round.
pub const NAMES: [&str; 5] = [
    "table3_paper_cold",
    "ablation_small_cold",
    "config_sweep_small_cold",
    "table3_test_warm",
    "gsd_mix_test",
];

/// The seed a full run uses unless told otherwise; `expected.json` holds
/// the stable digests at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Reps one child runs (one gsd rep is a session): a round of a full run
/// runs one child per workload.
pub fn reps_per_child(workload: &str) -> usize {
    match workload {
        "table3_paper_cold" => 1,
        "table3_test_warm" | "gsd_mix_test" => 10,
        _ => 2,
    }
}

/// Machine-config points per workload of the config sweep.
const SWEEP_POINTS: usize = 6;
/// Distinct requests in the gsd pool, half of each request shape.
const POOL_REQUESTS: usize = 20;
/// Requests per gsd session.
pub const SESSION_REQUESTS: usize = 200;
/// Closed-loop clients (one keep-alive connection each) and daemon workers.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;

/// The stable digests every rep at [`DEFAULT_SEED`] must reproduce.
const EXPECTED_JSON: &str = include_str!("../../results/perf/expected.json");

/// How a child builds its workload.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    /// Run the offline workloads at this scale instead of their own (the
    /// smoke test runs everything at `Test`).
    pub scale: Option<Scale>,
    /// Private directory for caches; the child owns everything under it.
    pub scratch: PathBuf,
}

/// One completed rep.
#[derive(Clone, Debug, PartialEq)]
pub struct Rep {
    pub wall_s: f64,
    /// Committed simulated instructions the rep delivered, in millions.
    pub minst: f64,
    /// Bytes in the rep's cache directory after the rep.
    pub cache_bytes: u64,
}

/// What one rep produced: the measurement, how many operations it
/// attempted and failed, and why.
#[derive(Debug, Default)]
pub struct RepOutcome {
    pub rep: Option<Rep>,
    pub attempted: u64,
    pub failed: u64,
    /// Stable digest of an offline rep's artifact (cross-checked between
    /// children by the parent).
    pub digest: Option<String>,
    pub errors: Vec<String>,
}

/// A workload after set-up, ready to run reps.
pub enum Prepared {
    Offline(Offline),
    Gsd(Box<Gsd>),
}

/// The sweep an offline workload runs, and whether it runs warm.
pub fn offline_spec(name: &str, seed: u64, scale: Option<Scale>) -> Option<(ExperimentSpec, bool)> {
    let at = |own: Scale| scale.unwrap_or(own);
    Some(match name {
        "table3_paper_cold" => (
            ExperimentSpec::three_schemes("table3", at(Scale::Paper)),
            false,
        ),
        "ablation_small_cold" => (
            ExperimentSpec::ablation("ablation", at(Scale::Small)),
            false,
        ),
        "config_sweep_small_cold" => (sweep_spec(seed, at(Scale::Small)), false),
        "table3_test_warm" => (ExperimentSpec::three_schemes("table3", Scale::Test), true),
        _ => return None,
    })
}

/// Build a workload.  Returns the prepared state and the seconds spent
/// building the workload programs (`workloads.build_s`).
pub fn setup(name: &str, opts: &Options) -> Result<(Prepared, f64), String> {
    if name == "gsd_mix_test" {
        let g = Gsd::new(opts)?;
        let build_s = g.build_s;
        return Ok((Prepared::Gsd(Box::new(g)), build_s));
    }
    let t0 = Instant::now();
    let (spec, warm) =
        offline_spec(name, opts.seed, opts.scale).ok_or(format!("unknown workload {name:?}"))?;
    let build_s = t0.elapsed().as_secs_f64();
    let o = Offline::new(name, spec, opts, warm)?;
    Ok((Prepared::Offline(o), build_s))
}

impl Prepared {
    /// Run rep `i`.  Panics inside the program become a failed rep.
    pub fn rep(&mut self, i: usize) -> RepOutcome {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match self {
            Prepared::Offline(o) => o.rep(i),
            Prepared::Gsd(g) => g.session(),
        }));
        run.unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string());
            let ops = match self {
                Prepared::Offline(_) => 1,
                Prepared::Gsd(_) => SESSION_REQUESTS as u64,
            };
            RepOutcome {
                attempted: ops,
                failed: ops,
                errors: vec![format!("rep {i} panicked: {msg}")],
                ..RepOutcome::default()
            }
        })
    }

    /// Stop whatever the set-up started.
    pub fn finish(self) {
        if let Prepared::Gsd(g) = self {
            g.finish();
        }
    }
}

/// `RunOptions` with only the three fields the benchmark relies on set.
fn run_options(cache: &Path, trace_spans: bool) -> RunOptions {
    RunOptions {
        jobs: 1,
        cache_dir: Some(cache.to_path_buf()),
        trace_spans,
        ..RunOptions::default()
    }
}

/// Run `spec` once against `cache`; returns the result and its wall time.
pub fn run_timed(
    spec: &ExperimentSpec,
    cache: &Path,
    trace_spans: bool,
) -> (ExperimentResult, f64) {
    let t0 = Instant::now();
    let r = run_experiment(spec, &run_options(cache, trace_spans));
    (r, t0.elapsed().as_secs_f64())
}

/// Digest of a result's stable artifact, exactly as `--stable-json` and
/// `gsd` render it.
pub fn stable_digest(r: &ExperimentResult) -> String {
    hex_digest(&stable_json(r).to_pretty())
}

/// Committed simulated instructions over every cell, in millions.
pub fn committed_minst(r: &ExperimentResult) -> f64 {
    r.cells
        .iter()
        .map(|c| c.stats.committed as f64)
        .sum::<f64>()
        / 1e6
}

/// The digest an offline workload must reproduce, when one is committed
/// for this seed and scale.
fn expected_digest(name: &str, opts: &Options) -> Option<String> {
    if opts.scale.is_some() {
        return None;
    }
    let j = json::parse(EXPECTED_JSON).expect("expected.json parses");
    let seed = j.get("seed").and_then(Json::as_u64)?;
    if name == "config_sweep_small_cold" && seed != opts.seed {
        return None;
    }
    j.get("digests")?
        .get(name)
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// An offline sweep: cold (fresh cache per rep) or warm (primed once).
pub struct Offline {
    pub spec: ExperimentSpec,
    expected: Option<String>,
    scratch: PathBuf,
    /// The primed cache of a warm workload.
    prime: Option<PathBuf>,
}

impl Offline {
    fn new(
        name: &str,
        spec: ExperimentSpec,
        opts: &Options,
        warm: bool,
    ) -> Result<Offline, String> {
        let mut o = Offline {
            expected: expected_digest(name, opts),
            scratch: opts.scratch.clone(),
            prime: None,
            spec,
        };
        if warm {
            let dir = o.scratch.join("prime");
            let _ = std::fs::remove_dir_all(&dir);
            let (r, _) = run_timed(&o.spec, &dir, false);
            o.check_digest(&stable_digest(&r))?;
            o.prime = Some(dir);
        }
        Ok(o)
    }

    fn check_digest(&mut self, digest: &str) -> Result<(), String> {
        match &self.expected {
            Some(want) if want != digest => Err(format!(
                "stable artifact digest {digest} differs from the expected {want}"
            )),
            Some(_) => Ok(()),
            // No committed digest: every later rep must agree with this one.
            None => {
                self.expected = Some(digest.to_string());
                Ok(())
            }
        }
    }

    /// The cache directory a rep runs against: an emptied one for cold
    /// workloads, the primed one for warm.
    pub fn rep_dir(&self) -> PathBuf {
        match &self.prime {
            Some(p) => p.clone(),
            None => {
                let d = self.scratch.join("cache");
                let _ = std::fs::remove_dir_all(&d);
                d
            }
        }
    }

    pub fn is_warm(&self) -> bool {
        self.prime.is_some()
    }

    /// Check one result; the error names what was wrong.
    pub fn check(&mut self, r: &ExperimentResult) -> Result<String, String> {
        let digest = stable_digest(r);
        self.check_digest(&digest)?;
        if self.is_warm() && (r.cache_misses != 0 || r.interpretations != 0) {
            return Err(format!(
                "warm rep missed the cache: {} misses, {} interpretations",
                r.cache_misses, r.interpretations
            ));
        }
        Ok(digest)
    }

    fn rep(&mut self, i: usize) -> RepOutcome {
        let dir = self.rep_dir();
        let (r, wall_s) = run_timed(&self.spec, &dir, false);
        let cache_bytes = dir_bytes(&dir);
        if !self.is_warm() {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let mut out = RepOutcome {
            attempted: 1,
            ..RepOutcome::default()
        };
        match self.check(&r) {
            Ok(digest) => {
                out.digest = Some(digest);
                out.rep = Some(Rep {
                    wall_s,
                    minst: committed_minst(&r),
                    cache_bytes,
                });
            }
            Err(e) => {
                out.failed = 1;
                out.errors.push(format!("rep {i}: {e}"));
            }
        }
        out
    }
}

/// SplitMix64: the benchmark's only source of input variation.
struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// `n` distinct machine configurations: the R10000 first, then `n - 1`
/// variations of its reorder buffer, branch history table, front-end depth
/// and issue queues.  Every seed uses the same multiset of settings per
/// knob (the history tables all differ, so the points do too); the seed
/// only decides how the knobs' settings combine, which keeps the cost of a
/// sweep nearly independent of the seed.
fn config_points(rng: &mut Rng, n: usize) -> Vec<MachineConfig> {
    let k = n - 1;
    let mut robs: Vec<usize> = (0..k).map(|i| [24, 48, 64][i % 3]).collect();
    let mut depths: Vec<u64> = (0..k).map(|i| [1, 3, 4][i % 3]).collect();
    let mut queues: Vec<[usize; 4]> = (0..k)
        .map(|i| [[4, 12, 12, 12], [4, 24, 24, 24], [8, 16, 16, 16]][i % 3])
        .collect();
    // Powers of two from 128, skipping the R10000's 512.
    let mut bhts: Vec<usize> = (0..k)
        .map(|i| 128 << if i < 2 { i } else { i + 1 })
        .collect();
    rng.shuffle(&mut robs);
    rng.shuffle(&mut depths);
    rng.shuffle(&mut queues);
    rng.shuffle(&mut bhts);
    let mut points = vec![MachineConfig::r10000()];
    for i in 0..k {
        let mut cfg = MachineConfig::r10000();
        cfg.rob_size = robs[i];
        cfg.bht_entries = bhts[i];
        cfg.frontend_depth = depths[i];
        cfg.queue_size = queues[i];
        points.push(cfg);
    }
    points
}

/// The config sweep: per workload, the base program under 2-bit
/// prediction and the proposed-transform program, each at every point.
fn sweep_spec(seed: u64, scale: Scale) -> ExperimentSpec {
    let points = config_points(&mut Rng::new(seed), SWEEP_POINTS);
    let mut spec = ExperimentSpec::profiles_only("config_sweep", scale);
    for w in 0..spec.workloads.len() {
        for (p, cfg) in points.iter().enumerate() {
            spec.push_cell(
                w,
                format!("2-bit BP/p{p}"),
                None,
                Scheme::TwoBit,
                cfg.clone(),
            );
            spec.push_cell(
                w,
                format!("Proposed/p{p}"),
                Some(DriverOptions::proposed()),
                Scheme::Proposed,
                cfg.clone(),
            );
        }
    }
    spec
}

/// The same sweep as a `/run` request (builtin workloads by name).
pub fn spec_request(spec: &ExperimentSpec) -> RunRequest {
    RunRequest {
        name: spec.name.clone(),
        scale: spec.scale,
        client: None,
        observe: false,
        sample: None,
        workloads: spec
            .workloads
            .iter()
            .map(|w| WorkloadReq::Builtin(w.name.to_string()))
            .collect(),
        cells: spec
            .cells
            .iter()
            .map(|c| CellReq {
                workload: c.workload,
                label: c.label.clone(),
                scheme: c.scheme,
                options: c.transform.clone(),
                config: c.cfg.clone(),
            })
            .collect(),
    }
}

/// The gsd request pool at test scale: Table 3's untransformed columns
/// (2-bit and perfect prediction) under each seeded machine configuration,
/// then its 2-bit column alone under each.  The last request also asks for
/// grep under the proposed transform, so each session reads one cached
/// transform, grep's, the smallest.  No more: a warm transformed cell is
/// dominated by parsing its cached transform (ROADMAP P0), whose speed
/// swings 2× with host load and would drown the service path this
/// workload is for.
fn request_pool(seed: u64) -> Vec<RunRequest> {
    let mut rng = Rng::new(seed ^ 0x0067_7364_5f6d_6978); // "gsd_mix"
    let configs = config_points(&mut rng, POOL_REQUESTS / 2);
    let mut pool = Vec::with_capacity(POOL_REQUESTS);
    for name in ["table3-base", "twobit"] {
        for cfg in &configs {
            let mut req = three_schemes_request(name, Scale::Test);
            req.cells.retain(|c| match c.scheme {
                Scheme::TwoBit => true,
                Scheme::Perfect => name == "table3-base",
                Scheme::Proposed => false,
            });
            for c in &mut req.cells {
                c.config = cfg.clone();
            }
            pool.push(req);
        }
    }
    let last = pool.last_mut().expect("pool is not empty");
    let grep = last
        .workloads
        .iter()
        .position(|w| w.name() == "grep")
        .expect("Table 3 runs grep");
    let cfg = last.cells[0].config.clone();
    last.name = "twobit-grep".to_string();
    last.cells.push(CellReq {
        workload: grep,
        label: Scheme::Proposed.label().to_string(),
        scheme: Scheme::Proposed,
        options: Some(DriverOptions::proposed()),
        config: cfg,
    });
    pool
}

/// The session's request order.  It opens with every pooled request once,
/// in a seeded order arranged so each client gets the same number of each
/// shape (the first-time requests are the ones the daemon executes, so
/// this keeps the clients' work even at every seed); then seeded draws.
fn request_stream(seed: u64, pool: usize, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x7374_7265_616d); // "stream"
    let half = pool / 2;
    let mut table3: Vec<usize> = (0..half).collect();
    let mut ablation: Vec<usize> = (half..pool).collect();
    rng.shuffle(&mut table3);
    rng.shuffle(&mut ablation);
    let mut order = Vec::with_capacity(len.max(pool));
    for (t, a) in table3.chunks(CLIENTS).zip(ablation.chunks(CLIENTS)) {
        order.extend_from_slice(t);
        order.extend_from_slice(a);
    }
    order.truncate(len);
    while order.len() < len {
        order.push(rng.below(pool));
    }
    order
}

/// Pooled requests whose responses are checked against an offline run.
const CHECKED_REQUESTS: usize = 4;

/// Daemon counters a session reads from `/metrics`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    pub requests: u64,
    pub executed: u64,
    pub resp_cached: u64,
    pub joined: u64,
}

/// The gsd mix: an in-process daemon, a primed stage cache and a seeded
/// request stream.
pub struct Gsd {
    pub bodies: Vec<String>,
    pub specs: Vec<ExperimentSpec>,
    /// Offline artifacts of the checked requests, by pool index.
    offline: Vec<(usize, String)>,
    /// The first response the child saw to each pooled request; every
    /// later response must repeat it byte for byte.
    seen: std::sync::Mutex<Vec<Option<Vec<u8>>>>,
    /// Committed instructions (millions) each pooled request delivers.
    minst: Vec<f64>,
    pub stream: Vec<usize>,
    /// Stage cache primed with every pooled request's cells.
    pub template: PathBuf,
    /// The daemon's cache directory, reset from the template per session.
    dir: PathBuf,
    server: ServerHandle,
    addr: String,
    /// Counters over the last session.
    pub last: ServerCounters,
    build_s: f64,
}

impl Gsd {
    fn new(opts: &Options) -> Result<Gsd, String> {
        // Resolving a request builds its workload programs.
        let t0 = Instant::now();
        let pool = request_pool(opts.seed);
        let specs: Vec<ExperimentSpec> = pool.iter().map(to_spec).collect::<Result<_, _>>()?;
        let build_s = t0.elapsed().as_secs_f64();

        // One run over the union of the pooled cells primes every stage
        // entry the daemon will read (all requests share the workloads).
        let mut prime = to_spec(&pool[0])?;
        prime.name = "prime".to_string();
        prime.cells = specs.iter().flat_map(|s| s.cells.iter().cloned()).collect();
        let template = opts.scratch.join("template");
        let _ = std::fs::remove_dir_all(&template);
        let (primed, _) = run_timed(&prime, &template, false);
        let mut cells = primed.cells.iter();
        let minst = specs
            .iter()
            .map(|s| {
                cells
                    .by_ref()
                    .take(s.cells.len())
                    .map(|c| c.stats.committed as f64)
                    .sum::<f64>()
                    / 1e6
            })
            .collect();

        let mut rng = Rng::new(opts.seed ^ 0x0063_6865_636b); // "check"
        let mut offline = Vec::with_capacity(CHECKED_REQUESTS);
        while offline.len() < CHECKED_REQUESTS {
            let i = rng.below(pool.len());
            if offline.iter().all(|(j, _)| *j != i) {
                let (r, _) = run_timed(&specs[i], &template, false);
                offline.push((i, stable_json(&r).to_pretty()));
            }
        }
        let dir = opts.scratch.join("daemon");
        let server = Server::start(ServerConfig {
            cache_dir: Some(dir.clone()),
            workers: WORKERS,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("gsd start: {e}"))?;
        Ok(Gsd {
            bodies: pool
                .iter()
                .map(|r| request_to_json(r).to_compact())
                .collect(),
            seen: std::sync::Mutex::new(vec![None; pool.len()]),
            stream: request_stream(opts.seed, pool.len(), SESSION_REQUESTS),
            specs,
            offline,
            minst,
            template,
            addr: server.addr().to_string(),
            dir,
            server,
            last: ServerCounters::default(),
            build_s,
        })
    }

    fn counters(&self) -> Result<ServerCounters, String> {
        let mut conn = ClientConn::with_timeout(&self.addr, Duration::from_secs(10));
        let resp = conn
            .request_with("GET", "/metrics", &[("Accept", "application/json")], b"")
            .map_err(|e| format!("/metrics: {e}"))?;
        let body = String::from_utf8_lossy(&resp.body);
        let j = json::parse(&body)?;
        let c = |k: &str| {
            j.get("counters")
                .and_then(|c| c.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        Ok(ServerCounters {
            requests: c("requests.run"),
            executed: c("jobs.executed"),
            resp_cached: c("jobs.resp_cached"),
            joined: c("dedup.joined"),
        })
    }

    /// Check one response to pooled request `idx`.
    fn check_response(&self, idx: usize, body: &[u8]) -> Result<(), String> {
        if let Some((_, want)) = self.offline.iter().find(|(i, _)| *i == idx) {
            if body != want.as_bytes() {
                return Err(format!(
                    "request {idx}: response differs from the offline artifact"
                ));
            }
        }
        let mut seen = self.seen.lock().expect("response log lock");
        match &seen[idx] {
            Some(first) if first != body => Err(format!(
                "request {idx}: response differs from an earlier one"
            )),
            Some(_) => Ok(()),
            None => {
                seen[idx] = Some(body.to_vec());
                Ok(())
            }
        }
    }

    /// Check an offline run of pooled request `i` against the daemon's
    /// responses to it.
    pub fn check_offline(&self, i: usize, r: &ExperimentResult) -> Result<(), String> {
        let seen = self.seen.lock().expect("response log lock");
        match &seen[i] {
            Some(body) if *body == stable_json(r).to_pretty().into_bytes() => Ok(()),
            _ => Err(format!(
                "pooled request {i}: offline artifact differs from the daemon's"
            )),
        }
    }

    /// One closed-loop session against a fresh copy of the primed cache.
    pub fn session(&mut self) -> RepOutcome {
        let _ = std::fs::remove_dir_all(&self.dir);
        let mut out = RepOutcome {
            attempted: self.stream.len() as u64,
            ..RepOutcome::default()
        };
        let before = copy_dir(&self.template, &self.dir).and_then(|()| self.counters());
        let before = match before {
            Ok(c) => c,
            Err(e) => {
                out.failed = out.attempted;
                out.errors.push(e);
                return out;
            }
        };
        let failed = AtomicU64::new(0);
        let errors = std::sync::Mutex::new(Vec::new());
        let this = &*self;
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let (failed, errors) = (&failed, &errors);
                s.spawn(move || {
                    let mut conn = ClientConn::with_timeout(&this.addr, Duration::from_secs(20));
                    for &idx in this.stream.iter().skip(c).step_by(CLIENTS) {
                        let checked =
                            match conn.request("POST", "/run", this.bodies[idx].as_bytes()) {
                                Ok(r) if r.status != 200 => {
                                    Err(format!("request {idx}: status {}", r.status))
                                }
                                Ok(r) => this.check_response(idx, &r.body),
                                Err(e) => Err(format!("request {idx}: {e}")),
                            };
                        if let Err(e) = checked {
                            failed.fetch_add(1, Ordering::Relaxed);
                            errors.lock().expect("error list lock").push(e);
                        }
                    }
                });
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();
        out.failed = failed.into_inner();
        out.errors = errors.into_inner().expect("error list lock");
        match self.counters() {
            Ok(after) => {
                self.last = ServerCounters {
                    requests: after.requests - before.requests,
                    executed: after.executed - before.executed,
                    resp_cached: after.resp_cached - before.resp_cached,
                    joined: after.joined - before.joined,
                };
            }
            Err(e) => out.errors.push(e),
        }
        // One digest over every pooled request's response lets the parent
        // check that all children saw the same artifacts.
        let seen = self.seen.lock().expect("response log lock");
        if seen.iter().all(Option::is_some) {
            let all: Vec<u8> = seen.iter().flatten().flatten().copied().collect();
            out.digest = Some(hex_digest(&String::from_utf8_lossy(&all)));
        }
        drop(seen);
        if out.failed == 0 {
            out.rep = Some(Rep {
                wall_s,
                minst: self.stream.iter().map(|&i| self.minst[i]).sum(),
                cache_bytes: dir_bytes(&self.dir),
            });
        }
        out
    }

    fn finish(self) {
        self.server.shutdown();
    }
}

/// Total bytes of the regular files under `dir` (0 if it is missing).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// Copy a directory tree of regular files.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for e in entries.flatten() {
        let (src, dst) = (e.path(), to.join(e.file_name()));
        if e.file_type().is_ok_and(|t| t.is_dir()) {
            copy_dir(&src, &dst)?;
        } else {
            std::fs::copy(&src, &dst).map_err(|e| format!("copy {}: {e}", src.display()))?;
        }
    }
    Ok(())
}
