//! The daemon core: epoll connection plane, worker pool and the glue
//! between [`crate::dedup`], [`crate::queue`], [`crate::peer`] and the
//! harness runner.
//!
//! One [`Server`] owns one [`guardspec_harness::DiskCache`] handle shared
//! by every request, so the content-addressed cache — not the HTTP layer —
//! is what makes warm requests fast.  The request lifecycle:
//!
//! 1. the event loop ([`crate::event_loop`]) parses requests incrementally
//!    off nonblocking sockets and calls [`Service::handle`];
//! 2. [`crate::protocol::request_key`] names the flight; the first arrival
//!    becomes the owner, duplicates register completion callbacks and wait
//!    without holding a thread;
//! 3. the owner answers straight from the response cache when the finished
//!    artifact is already on disk ([`crate::protocol::response_key`]),
//!    otherwise it queues one job;
//! 4. a worker pops the job (round-robin across client lanes), consults
//!    cache peers ([`crate::peer`]) for the finished artifact, and only
//!    then runs [`guardspec_harness::run_experiment_shared`]; the published
//!    outcome fans out to every connection on the flight.
//!
//! Streaming requests (`POST /run?stream=1`) additionally wire a
//! [`ProgressHook`] from the harness into the owner's connection: stage
//! start/done events appear on the wire as they happen, then the same
//! stable artifact bytes close the stream.  The stream flag is transport
//! dressing — it is *not* part of the request key, so a streamed and a
//! plain request for the same question share one flight and one artifact.
//!
//! **Telemetry** (DESIGN.md §15): every request lands a sample in the
//! `request.latency` histogram; `?trace=1` (or an inbound `X-Trace-Id`,
//! or a configured `--slow-ms`) additionally builds a
//! [`crate::trace::RequestTrace`] whose spans tile the whole lifecycle —
//! `admit` → `queue.wait` → `flight` (containing `peer.pull` and the
//! harness runner's five stage spans, time-shifted onto the request
//! clock) → `respond`; joiners record a `dedup.join` span carrying the
//! owning flight's trace id.  Finished timelines are returned inline
//! (`?trace=1` wraps the artifact in a `{trace_id, trace, artifact}`
//! envelope; streams emit an `{"event":"trace",...}` line) and buffered
//! in a bounded ring drained by `GET /trace` as one Chrome trace
//! document.  `GET /metrics` speaks Prometheus text by default and the
//! legacy JSON under `Accept: application/json`.  None of this perturbs
//! artifact bytes: the stable JSON never contains spans or metrics.
//!
//! Shutdown is cooperative: [`ServerHandle::begin_shutdown`] closes the
//! queue (new work gets 503), the event loop keeps answering `/healthz`
//! ("draining") until every queued and in-flight job has published and
//! every response byte is flushed, then the loop exits and the workers
//! are joined.

use crate::dedup::{FlightMap, Outcome};
use crate::event_loop::{run_event_loop, EventLoopConfig, Responder, Service, Wakeup};
use crate::http::HttpRequest;
use crate::peer::PeerSet;
use crate::protocol::{self, RunRequest};
use crate::queue::{FairQueue, PushError};
use crate::shard::{check_request_routing, ShardSpec};
use crate::trace::{mint_trace_id, RequestTrace, TraceRing};
use guardspec_harness::{
    chrome_trace_json, chrome_trace_json_grouped, log as glog, registry_prometheus_text,
    run_experiment_shared, stable_json, DiskCache, Json, MetricsRegistry, ProgressEvent,
    ProgressHook, RunOptions,
};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Completed request timelines kept for `GET /trace` scrapers.
const TRACE_RING_CAP: usize = 64;

/// How a [`Server`] is wired up.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// TCP port; `0` picks an ephemeral port (read it back from
    /// [`ServerHandle::addr`]).
    pub port: u16,
    /// Disk cache root; `None` disables caching (every request simulates).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Total queued-job cap across all clients (admission control).
    pub queue_cap: usize,
    /// Testing hook: each worker sleeps this long before executing a job,
    /// widening the dedup window deterministically.  Tests set it here;
    /// `gsd` has no flag for it.
    pub hold_ms: u64,
    /// This daemon's slice of a sharded sweep.
    pub shard: ShardSpec,
    /// `RunOptions::jobs` for each experiment (intra-request parallelism).
    pub jobs_per_request: usize,
    /// Per-job service-time estimate behind the 429 `Retry-After` hint.
    pub est_job_ms: u64,
    /// Sibling daemons (`host:port`) to probe for finished artifacts
    /// before simulating.  Empty disables peering.
    pub peers: Vec<String>,
    /// Per-probe peer budget (connect + read + write), `--peer-timeout-ms`.
    pub peer_timeout_ms: u64,
    /// Close keep-alive connections idle this long (ms).
    pub idle_timeout_ms: u64,
    /// Close a connection after serving this many requests.
    pub max_conn_requests: u64,
    /// Per-connection pipelining depth cap.
    pub pipeline_depth: usize,
    /// Trace every request and log (level `warn`, with the full span
    /// tree) any that takes at least this long, `--slow-ms`.
    pub slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            port: 0,
            cache_dir: Some(PathBuf::from("results/cache")),
            workers: 2,
            queue_cap: 64,
            hold_ms: 0,
            shard: ShardSpec::default(),
            jobs_per_request: 1,
            est_job_ms: 1000,
            peers: Vec::new(),
            peer_timeout_ms: 2_000,
            idle_timeout_ms: 30_000,
            max_conn_requests: 1000,
            pipeline_depth: 16,
            slow_ms: None,
        }
    }
}

/// One unit of work.  The spec is resolved on the worker (parsing
/// programs is work; the event loop doesn't do work), so the job carries
/// the raw request.
struct Job {
    key: String,
    resp_key: String,
    request: RunRequest,
    /// Forwards harness stage events: always feeds the per-stage latency
    /// histograms, and additionally the owning connection on streams.
    progress: ProgressHook,
    /// When the owner admitted this job to the queue (`queue.wait`).
    enqueued: Instant,
    /// Present when the owning request is traced.
    trace: Option<Arc<RequestTrace>>,
}

/// State shared by the event loop and workers.
struct Shared {
    config: ServerConfig,
    cache: Arc<DiskCache>,
    metrics: Arc<MetricsRegistry>,
    queue: FairQueue<Job>,
    flights: FlightMap,
    peers: PeerSet,
    /// Completed request timelines, drained by `GET /trace`.
    traces: Arc<TraceRing>,
    /// Monotone per-daemon counter feeding deterministic trace ids.
    trace_epoch: AtomicU64,
    /// Set by `begin_shutdown`; checked by the loop and handlers.
    draining: AtomicBool,
    /// Jobs popped by a worker but not yet published.
    executing: AtomicU64,
}

pub struct Server;

/// A running daemon.  Dropping the handle does *not* stop the server —
/// call [`ServerHandle::begin_shutdown`] (or send the process SIGTERM via
/// the `gsd` binary) and then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    wake: Arc<Wakeup>,
    loop_thread: Option<JoinHandle<std::io::Result<()>>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and the event loop, return the handle.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let cache = Arc::new(match &config.cache_dir {
            Some(dir) => DiskCache::new(dir.clone()),
            None => DiskCache::disabled(),
        });
        let wake = Arc::new(Wakeup::new()?);
        let shared = Arc::new(Shared {
            queue: FairQueue::new(config.queue_cap, config.est_job_ms),
            cache,
            metrics: Arc::new(MetricsRegistry::new()),
            flights: FlightMap::new(),
            peers: PeerSet::new(
                &config.peers,
                Duration::from_millis(config.peer_timeout_ms.max(1)),
            ),
            traces: Arc::new(TraceRing::new(TRACE_RING_CAP)),
            trace_epoch: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            executing: AtomicU64::new(0),
            config,
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let loop_cfg = EventLoopConfig {
            idle_timeout_ms: shared.config.idle_timeout_ms,
            max_conn_requests: shared.config.max_conn_requests.max(1),
            pipeline_depth: shared.config.pipeline_depth.max(1),
        };
        let loop_thread = {
            let service: Arc<dyn Service> = shared.clone();
            let wake = wake.clone();
            Some(std::thread::spawn(move || {
                run_event_loop(listener, service, wake, loop_cfg)
            }))
        };
        Ok(ServerHandle {
            addr,
            shared,
            wake,
            loop_thread,
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop admitting work; queued and in-flight jobs keep draining.
    pub fn begin_shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        self.wake.notify();
    }

    /// Wait until the drain completes and every thread has exited.
    pub fn join(mut self) {
        if let Some(t) = self.loop_thread.take() {
            t.join()
                .expect("event loop panicked")
                .expect("event loop failed");
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker panicked");
        }
    }

    /// `begin_shutdown` + `join` in one call.
    pub fn shutdown(self) {
        self.begin_shutdown();
        self.join();
    }
}

// --- the Service the event loop drives ------------------------------------

impl Service for Shared {
    fn handle(&self, req: HttpRequest, peer: SocketAddr, responder: Responder) {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => respond(&responder, healthz(self)),
            ("GET", "/metrics") => respond(&responder, metrics(self, &req)),
            ("GET", "/trace") => respond(&responder, trace_dump(self)),
            ("GET", path) if path.starts_with("/cache/") => {
                cache_probe(self, &path["/cache/".len()..], &responder)
            }
            ("POST", "/run") => run(self, &req, peer, responder),
            _ => respond(
                &responder,
                error_reply(404, &format!("no route {} {}", req.method, req.path)),
            ),
        }
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn drained(&self) -> bool {
        drained(self)
    }

    fn metric_incr(&self, name: &str) {
        self.metrics.incr(name);
    }

    fn metric_max(&self, name: &str, value: u64) {
        self.metrics.record_max(name, value);
    }

    fn metric_time(&self, name: &str, ns: u64) {
        self.metrics.time_ns(name, ns);
    }
}

/// Fully drained: nothing queued, nothing executing, every flight
/// published.  (Connection quiescence is the event loop's own check.)
fn drained(shared: &Shared) -> bool {
    shared.queue.is_empty()
        && shared.executing.load(Ordering::SeqCst) == 0
        && shared.flights.in_flight() == 0
}

// --- request handling (event-loop thread: parse, route, never compute) ----

type Reply = (u16, Vec<(&'static str, String)>, String);

fn respond(responder: &Responder, reply: Reply) {
    let (status, headers, body) = reply;
    let headers = headers
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    responder.reply(status, headers, body.into_bytes());
}

fn healthz(shared: &Shared) -> Reply {
    let status = if shared.draining.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ok"
    };
    let body = Json::obj(vec![
        ("status", Json::str(status)),
        ("shard", Json::str(shared.config.shard.tag())),
    ]);
    (200, Vec::new(), body.to_compact())
}

/// `GET /metrics`: Prometheus text exposition by default, the legacy
/// JSON document under `Accept: application/json`.
fn metrics(shared: &Shared, req: &HttpRequest) -> Reply {
    let gauges: [(&str, u64); 6] = [
        ("queue_depth", shared.queue.len() as u64),
        ("in_flight", shared.flights.in_flight() as u64),
        ("executing", shared.executing.load(Ordering::SeqCst)),
        ("cache_hits", shared.cache.hits()),
        ("cache_misses", shared.cache.misses()),
        ("cache_race_lost", shared.cache.race_lost()),
    ];
    let wants_json = req
        .header("accept")
        .is_some_and(|a| a.contains("application/json"));
    if !wants_json {
        let text = registry_prometheus_text("gsd", &gauges, &shared.metrics);
        return (
            200,
            vec![(
                "Content-Type",
                "text/plain; version=0.0.4; charset=utf-8".to_string(),
            )],
            text,
        );
    }
    let counters: Vec<(String, Json)> = shared
        .metrics
        .snapshot()
        .into_iter()
        .map(|(k, v)| (k, Json::U64(v)))
        .collect();
    let body = Json::obj(vec![
        ("queue_depth", Json::U64(gauges[0].1)),
        ("in_flight", Json::U64(gauges[1].1)),
        ("executing", Json::U64(gauges[2].1)),
        ("cache_hits", Json::U64(gauges[3].1)),
        ("cache_misses", Json::U64(gauges[4].1)),
        ("cache_race_lost", Json::U64(gauges[5].1)),
        ("counters", Json::Obj(counters)),
    ]);
    (200, Vec::new(), body.to_pretty())
}

/// `GET /trace`: drain the ring of completed request timelines as one
/// Chrome trace document (read-once — each request appears to exactly
/// one scraper).
fn trace_dump(shared: &Shared) -> Reply {
    let groups = shared.traces.drain();
    let doc = chrome_trace_json_grouped(&groups);
    (200, Vec::new(), doc.to_pretty())
}

/// `GET /cache/<key>`: the peering endpoint.  Serves raw local cache
/// bytes counter-free (see `DiskCache::peek`) so sibling daemons probing
/// for finished artifacts never skew this daemon's cache-efficacy
/// numbers.  The key charset is locked down — a key is a hash name, not
/// a path.
fn cache_probe(shared: &Shared, key: &str, responder: &Responder) {
    let valid = !key.is_empty()
        && key.len() <= 128
        && key
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-');
    if !valid {
        return respond(responder, error_reply(400, "malformed cache key"));
    }
    match shared.cache.peek(key) {
        Some(bytes) => {
            shared.metrics.incr("cache.peer_served");
            responder.reply(200, Vec::new(), bytes);
        }
        None => respond(responder, error_reply(404, "not cached here")),
    }
}

fn run(shared: &Shared, req: &HttpRequest, peer: SocketAddr, responder: Responder) {
    let t_start = Instant::now();
    shared.metrics.incr("requests.run");
    let parsed = std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(guardspec_harness::json::parse)
        .and_then(|j| protocol::request_from_json(&j))
        .and_then(|r| {
            check_request_routing(&shared.config.shard, &r)?;
            Ok(r)
        });
    let request = match parsed {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.incr("requests.bad");
            return respond(&responder, error_reply(400, &e));
        }
    };
    let key = protocol::request_key(&request);
    let resp_key = protocol::response_key(&key);
    let want_stream = req.query_flag("stream");

    // A request is traced when the client asks (`?trace=1`), when an
    // upstream daemon forwarded its id (`X-Trace-Id`), or when `--slow-ms`
    // wants every request's timeline on standby.  Client-supplied ids
    // win; minted ids are deterministic (key hash + daemon epoch).
    let want_trace = req.query_flag("trace");
    let hdr_trace = req.header("x-trace-id").map(str::to_string);
    let trace = (want_trace || hdr_trace.is_some() || shared.config.slow_ms.is_some()).then(|| {
        let id = hdr_trace.unwrap_or_else(|| {
            mint_trace_id(&key, shared.trace_epoch.fetch_add(1, Ordering::Relaxed))
        });
        Arc::new(RequestTrace::new(id))
    });
    if let Some(tr) = &trace {
        // If an open flight already carries a trace, we are about to join
        // it — remember the owner's id for the `dedup.join` span.  (Set
        // preemptively: owners simply never read it.)
        if let Some(owner_id) = shared.flights.trace_of(&key) {
            tr.set_joined(owner_id);
        }
    }

    // Everyone — owner and joiners alike — answers through the flight.
    // The flag starts "joiner" and the owner clears it right after
    // `enter_async`, before any publish can fire the waiter.
    let joined = Arc::new(AtomicBool::new(true));
    let waiter = {
        let responder = responder.clone();
        let metrics = shared.metrics.clone();
        let traces = shared.traces.clone();
        let trace = trace.clone();
        let joined = joined.clone();
        let slow_ms = shared.config.slow_ms;
        Box::new(move |outcome: Outcome| {
            let t_done = Instant::now();
            metrics.time_ns(
                "request.latency",
                t_done.duration_since(t_start).as_nanos() as u64,
            );
            let reply = outcome_reply(&outcome);
            let Some(tr) = trace else {
                return respond(&responder, reply);
            };
            if joined.load(Ordering::SeqCst) {
                metrics.time_ns(
                    "flight.wait",
                    t_done.duration_since(tr.started()).as_nanos() as u64,
                );
                let owner = tr.joined().unwrap_or_default();
                tr.span_args(
                    "dedup.join",
                    "flight",
                    tr.started(),
                    t_done,
                    vec![("owner_trace".to_string(), owner)],
                );
            } else if let Some(t_pub) = tr.published() {
                tr.span("respond", "respond", t_pub, t_done);
            }
            tr.span("request", "request", tr.started(), t_done);
            let spans = tr.finish();
            let doc = chrome_trace_json(&spans, &[]);
            let elapsed_ms = t_done.duration_since(tr.started()).as_millis() as u64;
            if slow_ms.is_some_and(|limit| elapsed_ms >= limit) {
                glog::warn(
                    "request.slow",
                    &[
                        ("trace_id", Json::str(&tr.id)),
                        ("ms", Json::U64(elapsed_ms)),
                        ("trace", doc.clone()),
                    ],
                );
            }
            traces.push(tr.id.clone(), spans);
            let (status, headers, body) = reply;
            if !(want_trace && status == 200) {
                return respond(&responder, (status, headers, body));
            }
            if want_stream {
                // The timeline rides the stream as its own event line;
                // the artifact bytes close the stream untouched.
                let line = Json::obj(vec![
                    ("event", Json::str("trace")),
                    ("trace_id", Json::str(&tr.id)),
                    ("trace", doc),
                ]);
                responder.event(&line.to_compact());
                respond(&responder, (status, headers, body));
            } else {
                // Envelope: the artifact travels as a JSON *string*, so
                // clients recover its exact bytes by unescaping — the
                // stable artifact stays byte-identical, traced or not.
                let envelope = Json::obj(vec![
                    ("trace_id", Json::str(&tr.id)),
                    ("trace", doc),
                    ("artifact", Json::str(&body)),
                ]);
                respond(&responder, (200, headers, envelope.to_pretty()));
            }
        })
    };
    let owner = shared.flights.enter_async(&key, waiter);
    if !owner {
        shared.metrics.incr("dedup.joined");
        return;
    }
    joined.store(false, Ordering::SeqCst);
    if let Some(tr) = &trace {
        shared.flights.set_trace(&key, &tr.id);
    }

    // Owner path: every exit publishes *something* so joiners never hang.
    if shared.draining.load(Ordering::SeqCst) {
        return shared.flights.publish(&key, Outcome::Draining);
    }
    // Finished-artifact fast path: a disk read, cheap enough for the loop
    // thread, and it skips the queue (and `hold_ms`) entirely.
    if let Some(body) = shared.cache.get(&resp_key) {
        shared.metrics.incr("jobs.resp_cached");
        if let Some(tr) = &trace {
            let t_hit = tr.mark_published();
            tr.span("resp_cache", "flight", tr.started(), t_hit);
        }
        return shared.flights.publish(&key, Outcome::Done(Arc::new(body)));
    }
    let progress = {
        let metrics = shared.metrics.clone();
        let stream_to = want_stream.then(|| responder.clone());
        ProgressHook(Arc::new(move |ev: &ProgressEvent| {
            if ev.done {
                metrics.time_ns(&format!("stage.{}", ev.stage), (ev.ms * 1e6) as u64);
            }
            if let Some(r) = &stream_to {
                r.event(&progress_line(ev));
            }
        }))
    };
    let client = request
        .client
        .clone()
        .unwrap_or_else(|| peer.ip().to_string());
    let enqueued = match &trace {
        Some(tr) => {
            let t_enq = tr.mark_enqueued();
            tr.span("admit", "admit", tr.started(), t_enq);
            t_enq
        }
        None => Instant::now(),
    };
    let job = Job {
        key: key.clone(),
        resp_key,
        request,
        progress,
        enqueued,
        trace: trace.clone(),
    };
    match shared.queue.push(&client, job) {
        Ok(()) => {} // a worker now owns publication
        Err(PushError::Full { retry_after_ms }) => {
            shared.metrics.incr("requests.rejected");
            shared
                .flights
                .publish(&key, Outcome::Rejected { retry_after_ms });
        }
        Err(PushError::Draining) => shared.flights.publish(&key, Outcome::Draining),
    }
}

/// One NDJSON stage event.  Schema (documented in DESIGN.md §13):
/// `{"event":"stage_start","stage":S,"unit":U}` and
/// `{"event":"stage_done","stage":S,"unit":U,"cached":B,"ms":F}`.
fn progress_line(ev: &ProgressEvent) -> String {
    let mut pairs = vec![
        (
            "event",
            Json::str(if ev.done { "stage_done" } else { "stage_start" }),
        ),
        ("stage", Json::str(ev.stage)),
        ("unit", Json::str(&ev.unit)),
    ];
    if ev.done {
        pairs.push(("cached", Json::Bool(ev.cached)));
        pairs.push(("ms", Json::F64(ev.ms)));
    }
    Json::obj(pairs).to_compact()
}

fn outcome_reply(outcome: &Outcome) -> Reply {
    match outcome {
        Outcome::Done(body) => (200, Vec::new(), body.as_str().to_string()),
        Outcome::Rejected { retry_after_ms } => {
            let secs = retry_after_ms.div_ceil(1000).max(1);
            let body = Json::obj(vec![
                ("error", Json::str("queue full")),
                ("retry_after_ms", Json::U64(*retry_after_ms)),
            ]);
            (
                429,
                vec![("Retry-After", secs.to_string())],
                body.to_compact(),
            )
        }
        Outcome::Failed(msg) => {
            let status = if msg.starts_with("bad request:") {
                400
            } else {
                500
            };
            error_reply(status, msg)
        }
        Outcome::Draining => error_reply(503, "draining: server is shutting down"),
    }
}

fn error_reply(status: u16, msg: &str) -> Reply {
    let body = Json::obj(vec![("error", Json::str(msg))]);
    (status, Vec::new(), body.to_compact())
}

// --- workers -------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        shared.executing.fetch_add(1, Ordering::SeqCst);
        let t_pop = Instant::now();
        shared.metrics.time_ns(
            "queue.wait",
            t_pop.duration_since(job.enqueued).as_nanos() as u64,
        );
        if shared.config.hold_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.config.hold_ms));
        }
        let outcome = execute(&job, shared);
        if let Outcome::Done(body) = &outcome {
            // Feed the response cache (and thereby our peers) before
            // publishing, so a peer probing right after our clients see
            // the bytes finds them too.
            shared.cache.put(&job.resp_key, body);
        }
        if let Some(tr) = &job.trace {
            // Spans must land before publish — publication fires the
            // waiter, which drains the recorder.
            let t_pub = tr.mark_published();
            if let Some(t_enq) = tr.enqueued() {
                tr.span("queue.wait", "queue", t_enq, t_pop);
            }
            tr.span("flight", "flight", t_pop, t_pub);
        }
        shared.flights.publish(&job.key, outcome);
        shared.executing.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Worker path: peers first (a network read beats a simulation by orders
/// of magnitude), then the full pipeline.  Runs strictly as the flight
/// owner's delegate, so a peered fetch and a local compute for the same
/// key can never race.
fn execute(job: &Job, shared: &Shared) -> Outcome {
    if !shared.peers.is_empty() {
        let t0 = Instant::now();
        let trace_id = job.trace.as_ref().map(|t| t.id.clone());
        let fetched = fetch_from_peers(shared, &job.resp_key, trace_id.as_deref());
        if let Some(tr) = &job.trace {
            tr.span_args(
                "peer.pull",
                "peer",
                t0,
                Instant::now(),
                vec![("hit".to_string(), fetched.is_some().to_string())],
            );
        }
        match fetched {
            Some(body) => {
                shared.metrics.incr("cache.peer_hits");
                return Outcome::Done(Arc::new(body));
            }
            None => shared.metrics.incr("cache.peer_misses"),
        }
    }
    let spec = match protocol::to_spec(&job.request) {
        Ok(s) => s,
        Err(e) => {
            shared.metrics.incr("requests.bad");
            return Outcome::Failed(format!("bad request: {e}"));
        }
    };
    let opts = RunOptions {
        jobs: shared.config.jobs_per_request.max(1),
        cache_dir: None, // ignored: the shared handle wins
        observe: job.request.observe,
        sample: job.request.sample,
        progress: Some(job.progress.clone()),
        trace_spans: job.trace.is_some(),
    };
    let started = Instant::now();
    let cache = shared.cache.clone();
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_experiment_shared(&spec, &opts, cache)
    }));
    match run {
        Ok(mut result) => {
            shared.metrics.incr("jobs.executed");
            shared
                .metrics
                .add("jobs.wall_us", started.elapsed().as_micros() as u64);
            let mut profile_us = 0u64;
            for w in &result.workloads {
                profile_us += (w.timing.ms * 1000.0) as u64;
            }
            let (mut transform_us, mut trace_us, mut sim_us) = (0u64, 0u64, 0u64);
            for c in &result.cells {
                if let Some(t) = c.transform_timing {
                    transform_us += (t.ms * 1000.0) as u64;
                }
                trace_us += (c.trace_timing.ms * 1000.0) as u64;
                sim_us += (c.sim_timing.ms * 1000.0) as u64;
            }
            shared.metrics.add("stage.profile_us", profile_us);
            shared.metrics.add("stage.transform_us", transform_us);
            shared.metrics.add("stage.trace_us", trace_us);
            shared.metrics.add("stage.simulate_us", sim_us);
            if let Some(tr) = &job.trace {
                // The runner's stage spans are timestamped from its own
                // origin; shift them onto the request clock.  The stable
                // artifact never contains spans, so taking them cannot
                // perturb response bytes.
                tr.absorb(std::mem::take(&mut result.spans), started);
            }
            Outcome::Done(Arc::new(stable_json(&result).to_pretty()))
        }
        Err(panic) => {
            shared.metrics.incr("jobs.failed");
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("job panicked");
            Outcome::Failed(format!("job failed: {msg}"))
        }
    }
}

/// A peer's bytes are only trusted if they parse as JSON — a truncated
/// or corrupt blob degrades to local compute, never to a bad response.
/// A traced request's id rides the probe as `X-Trace-Id`.
fn fetch_from_peers(shared: &Shared, resp_key: &str, trace_id: Option<&str>) -> Option<String> {
    let bytes = shared.peers.fetch(resp_key, trace_id, &shared.metrics)?;
    let body = String::from_utf8(bytes).ok()?;
    guardspec_harness::json::parse(&body).ok()?;
    shared.cache.put(resp_key, &body);
    Some(body)
}
