//! End-to-end tests: a real daemon on an ephemeral port, driven over TCP.
//!
//! The load-bearing claims of the service layer are asserted here:
//! dedup (8 concurrent identical requests execute exactly one job),
//! byte-identity (server responses `==` the offline stable artifact at a
//! different worker count), sharded fan/merge, structured backpressure
//! (429 + retry hint, nothing silently dropped), and the `gsd` binary's
//! SIGTERM drain.

mod common;

use common::{counter, get, get_json, offline_stable, post_json, scratch};
use guardspec_harness::{json, Json};
use guardspec_server::http::ClientConn;
use guardspec_server::protocol::{
    request_to_json, three_schemes_request, CellReq, RunRequest, WorkloadReq,
};
use guardspec_server::{run_fanout_stats, Server, ServerConfig, ShardSpec};
use guardspec_sim::MachineConfig;
use guardspec_workloads::{extended_workloads, Scale};
use std::time::{Duration, Instant};

fn gauge(metrics_body: &str, name: &str) -> u64 {
    json::parse(metrics_body)
        .expect("metrics parse")
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn eight_identical_requests_execute_one_job_and_match_offline() {
    let handle = Server::start(ServerConfig {
        cache_dir: Some(scratch("dedup")),
        workers: 1,
        hold_ms: 300, // hold the job so all eight arrivals share one flight
        jobs_per_request: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let req = three_schemes_request("table3", Scale::Test);
    let body = request_to_json(&req).to_compact();
    let posts: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let body = body.clone();
            std::thread::spawn(move || post_json(&addr, "/run", &body).unwrap())
        })
        .collect();
    let responses: Vec<(u16, String)> = posts.into_iter().map(|t| t.join().unwrap()).collect();
    let expected = offline_stable(&req);
    for (status, got) in &responses {
        assert_eq!(*status, 200);
        assert_eq!(
            got, &expected,
            "server response must be byte-identical to the offline stable artifact"
        );
    }
    let (st, metrics) = get_json(&addr, "/metrics").unwrap();
    assert_eq!(st, 200);
    assert_eq!(counter(&metrics, "jobs.executed"), 1, "{metrics}");
    assert_eq!(counter(&metrics, "dedup.joined"), 7, "{metrics}");
    assert_eq!(counter(&metrics, "requests.run"), 8, "{metrics}");

    // A later identical request opens a fresh flight and is answered from
    // the response cache without re-running the pipeline — same bytes, no
    // second execution.
    let (st, again) = post_json(&addr, "/run", &body).unwrap();
    assert_eq!(st, 200);
    assert_eq!(again, expected);
    let (_, metrics) = get_json(&addr, "/metrics").unwrap();
    assert_eq!(counter(&metrics, "jobs.executed"), 1, "{metrics}");
    assert!(counter(&metrics, "jobs.resp_cached") >= 1, "{metrics}");
    assert!(gauge(&metrics, "cache_hits") > 0, "{metrics}");
    handle.shutdown();
}

#[test]
fn sharded_fanout_merges_to_the_offline_bytes() {
    let mk = |index| {
        Server::start(ServerConfig {
            cache_dir: Some(scratch("shard")),
            workers: 1,
            shard: ShardSpec { index, count: 2 },
            ..ServerConfig::default()
        })
        .unwrap()
    };
    let (h0, h1) = (mk(0), mk(1));
    let servers = vec![h0.addr().to_string(), h1.addr().to_string()];
    let req = three_schemes_request("table3", Scale::Test);
    let (merged, _) = run_fanout_stats(&servers, &req).unwrap();
    assert_eq!(merged, offline_stable(&req));

    // A full (unsplit) sweep posted straight at one shard is a structured
    // 400 naming the misroute — never a silently partial answer.
    let (status, body) =
        post_json(&servers[0], "/run", &request_to_json(&req).to_compact()).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("belongs to shard"), "{body}");
    h0.shutdown();
    h1.shutdown();
}

#[test]
fn queue_full_is_a_structured_429_and_nothing_is_dropped() {
    let handle = Server::start(ServerConfig {
        cache_dir: None,
        workers: 1,
        queue_cap: 1,
        hold_ms: 600,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    // Three *distinct* single-workload requests so no two dedup together.
    let reqs: Vec<String> = ["compress", "espresso", "xlisp"]
        .iter()
        .map(|w| {
            let mut r = three_schemes_request(&format!("probe-{w}"), Scale::Test);
            r.workloads = vec![WorkloadReq::Builtin(w.to_string())];
            r.cells.truncate(1);
            r.cells[0].workload = 0;
            request_to_json(&r).to_compact()
        })
        .collect();
    // A occupies the worker (held 600ms); B fills the one queue slot.
    let spawn = |body: String, addr: String| {
        std::thread::spawn(move || post_json(&addr, "/run", &body).unwrap())
    };
    let a = spawn(reqs[0].clone(), addr.clone());
    wait_until(&addr, |m| gauge(m, "executing") == 1);
    let b = spawn(reqs[1].clone(), addr.clone());
    wait_until(&addr, |m| gauge(m, "queue_depth") == 1);
    // C must bounce immediately with a retry hint, via headers and body.
    let resp = ClientConn::new(&addr)
        .request("POST", "/run", reqs[2].as_bytes())
        .unwrap();
    assert_eq!(resp.status, 429);
    assert!(resp.header("Retry-After").is_some());
    let parsed = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert!(parsed.get("retry_after_ms").and_then(Json::as_u64).unwrap() >= 100);
    // A and B still complete normally — refusal never cancels admitted work.
    assert_eq!(a.join().unwrap().0, 200);
    assert_eq!(b.join().unwrap().0, 200);
    let (_, metrics) = get_json(&addr, "/metrics").unwrap();
    assert_eq!(counter(&metrics, "requests.rejected"), 1);
    assert_eq!(counter(&metrics, "jobs.executed"), 2);
    handle.shutdown();
}

fn wait_until(addr: &str, mut pred: impl FnMut(&str) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, m) = get_json(addr, "/metrics").unwrap();
        if pred(&m) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting; last: {m}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn adhoc_text_programs_run_and_match_offline() {
    // Ship a builtin's printed program as an ad-hoc one: the server must
    // produce exactly what the in-process runner produces for the same
    // request.
    let workloads = extended_workloads(Scale::Test);
    let req = RunRequest {
        name: "adhoc".to_string(),
        scale: Scale::Test,
        client: None,
        observe: false,
        sample: None,
        workloads: vec![WorkloadReq::Text {
            name: "shipped".to_string(),
            program: workloads[0].program.to_string(),
        }],
        cells: vec![CellReq {
            workload: 0,
            label: "Proposed".to_string(),
            scheme: guardspec_predict::Scheme::Proposed,
            options: Some(guardspec_core::DriverOptions::proposed()),
            config: MachineConfig::r10000(),
        }],
    };
    let handle = Server::start(ServerConfig {
        cache_dir: Some(scratch("adhoc")),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let (status, body) = post_json(&addr, "/run", &request_to_json(&req).to_compact()).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, offline_stable(&req));

    // Garbage programs are a 400, not a hung flight or a 500 panic page.
    let mut bad = req.clone();
    bad.workloads = vec![WorkloadReq::Text {
        name: "garbage".to_string(),
        program: "not assembly".to_string(),
    }];
    let (status, body) = post_json(&addr, "/run", &request_to_json(&bad).to_compact()).unwrap();
    assert_eq!(status, 400, "{body}");

    // Binary-encoded programs are not part of the protocol: a `bin` slot
    // is a 400 that names it.
    let mut bin = request_to_json(&req);
    let Json::Obj(pairs) = &mut bin else {
        unreachable!("a request encodes as an object")
    };
    for (k, v) in pairs.iter_mut() {
        if k == "workloads" {
            *v = Json::Arr(vec![Json::obj(vec![
                ("name", Json::str("shipped")),
                ("bin", Json::str("00000000")),
            ])]);
        }
    }
    let (status, body) = post_json(&addr, "/run", &bin.to_compact()).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("shipped"), "{body}");
    handle.shutdown();
}

#[test]
fn deeply_nested_bodies_are_a_400_not_a_crash() {
    // One MiB of `[` once recursed the JSON parser off the end of its
    // thread's stack and aborted the whole daemon.
    let handle = Server::start(ServerConfig {
        cache_dir: Some(scratch("nested")),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let bodies = [
        "[".repeat(1 << 20),
        format!(
            "{{\"name\":\"deep\",\"workloads\":{}",
            "[{\"a\":".repeat(1 << 17)
        ),
    ];
    for body in &bodies {
        let (status, reply) = post_json(&addr, "/run", body).unwrap();
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("nesting deeper"), "{reply}");
    }
    // The daemon is still up and still answers real work.
    let (status, _) = get(&addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    let req = three_schemes_request("after-nest", Scale::Test);
    let (status, body) = post_json(&addr, "/run", &request_to_json(&req).to_compact()).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, offline_stable(&req));
    handle.shutdown();
}

/// Pull the executable (`ph == "X"`) spans out of a Chrome trace doc as
/// `(name, cat, ts, end)` tuples.
fn x_spans(doc: &Json) -> Vec<(String, String, u64, u64)> {
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            let ts = e.get("ts").and_then(Json::as_u64).unwrap();
            let dur = e.get("dur").and_then(Json::as_u64).unwrap();
            (
                e.get("name").and_then(Json::as_str).unwrap().to_string(),
                e.get("cat").and_then(Json::as_str).unwrap().to_string(),
                ts,
                ts + dur,
            )
        })
        .collect()
}

#[test]
fn traced_request_spans_tile_the_whole_lifecycle() {
    let handle = Server::start(ServerConfig {
        cache_dir: Some(scratch("traced")),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let req = three_schemes_request("table3", Scale::Test);
    let body = request_to_json(&req).to_compact();

    let (status, envelope) = post_json(&addr, "/run?trace=1", &body).unwrap();
    assert_eq!(status, 200, "{envelope}");
    let env = json::parse(&envelope).expect("trace envelope parses");
    let trace_id = env.get("trace_id").and_then(Json::as_str).unwrap();
    assert!(trace_id.ends_with("-s0"), "daemon-minted id: {trace_id}");

    // The artifact rides the envelope as a JSON string: byte-exact.
    let artifact = env.get("artifact").and_then(Json::as_str).unwrap();
    assert_eq!(
        artifact,
        offline_stable(&req),
        "tracing must not perturb artifact bytes"
    );

    let doc = env.get("trace").expect("trace document");
    guardspec_harness::validate_chrome_trace(doc).expect("valid Chrome trace");
    let spans = x_spans(doc);
    let one = |name: &str| -> (u64, u64) {
        let hits: Vec<_> = spans.iter().filter(|(n, ..)| n == name).collect();
        assert_eq!(hits.len(), 1, "exactly one {name:?} span: {spans:?}");
        (hits[0].2, hits[0].3)
    };
    // Adjacent phases share their boundary Instants, so they tile with
    // exact microsecond equality — no gaps, no overlaps.
    let admit = one("admit");
    let queue_wait = one("queue.wait");
    let flight = one("flight");
    let respond = one("respond");
    let request_span = one("request");
    assert_eq!(admit.0, 0, "admit starts on the request clock's zero");
    assert_eq!(admit.1, queue_wait.0, "admit → queue.wait tiles exactly");
    assert_eq!(queue_wait.1, flight.0, "queue.wait → flight tiles exactly");
    assert_eq!(flight.1, respond.0, "flight → respond tiles exactly");
    assert_eq!(request_span.0, 0);
    assert!(respond.1 <= request_span.1, "respond ends inside the root");

    // The harness runner's five stages all land inside the flight span.
    for stage in ["profile", "transform", "trace", "simulate", "collect"] {
        let inside: Vec<_> = spans
            .iter()
            .filter(|(_, cat, ts, end)| cat == stage && *ts >= flight.0 && *end <= flight.1)
            .collect();
        assert!(
            !inside.is_empty(),
            "stage {stage:?} span inside flight {flight:?}: {spans:?}"
        );
    }

    // The completed timeline also landed in the daemon ring: one GET
    // /trace drains it, the next finds it empty (read-once).
    let (st, ring) = get(&addr, "/trace").unwrap();
    assert_eq!(st, 200);
    let ring_doc = json::parse(&ring).unwrap();
    guardspec_harness::validate_chrome_trace(&ring_doc).expect("ring doc valid");
    assert!(
        !x_spans(&ring_doc).is_empty(),
        "ring must hold the request's spans: {ring}"
    );
    let (_, empty) = get(&addr, "/trace").unwrap();
    assert!(
        x_spans(&json::parse(&empty).unwrap()).is_empty(),
        "second drain must be empty: {empty}"
    );
    handle.shutdown();
}

#[test]
fn a_joining_duplicate_traces_the_dedup_with_the_owners_trace_id() {
    let handle = Server::start(ServerConfig {
        cache_dir: Some(scratch("joiner")),
        workers: 1,
        hold_ms: 300, // keep the owner's flight open for the duplicate
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let req = three_schemes_request("table3", Scale::Test);
    let body = request_to_json(&req).to_compact();
    let owner = {
        let addr = addr.clone();
        let body = body.clone();
        std::thread::spawn(move || post_json(&addr, "/run?trace=1", &body).unwrap())
    };
    std::thread::sleep(Duration::from_millis(120)); // owner holds the flight
    let (status, joined) = post_json(&addr, "/run?trace=1", &body).unwrap();
    assert_eq!(status, 200);
    let (status, owned) = owner.join().unwrap();
    assert_eq!(status, 200);

    let owner_env = json::parse(&owned).unwrap();
    let joiner_env = json::parse(&joined).unwrap();
    let owner_id = owner_env.get("trace_id").and_then(Json::as_str).unwrap();
    let joiner_id = joiner_env.get("trace_id").and_then(Json::as_str).unwrap();
    assert_ne!(owner_id, joiner_id, "two requests, two trace ids");
    assert_eq!(
        owner_env.get("artifact").and_then(Json::as_str),
        joiner_env.get("artifact").and_then(Json::as_str),
        "both arrivals get the same bytes"
    );

    // The joiner's timeline names the flight it piggybacked on.
    let joiner_trace = joiner_env.get("trace").unwrap().to_compact();
    assert!(joiner_trace.contains("dedup.join"), "{joiner_trace}");
    assert!(
        joiner_trace.contains(owner_id),
        "dedup.join must carry the owner's trace id {owner_id}: {joiner_trace}"
    );
    let owner_trace = owner_env.get("trace").unwrap().to_compact();
    assert!(
        !owner_trace.contains("dedup.join"),
        "the owner did not join anyone: {owner_trace}"
    );
    handle.shutdown();
}

#[test]
fn metrics_speak_prometheus_by_default_with_live_latency_histograms() {
    let handle = Server::start(ServerConfig {
        cache_dir: Some(scratch("prom")),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let req = three_schemes_request("table3", Scale::Test);
    let (status, _) = post_json(&addr, "/run", &request_to_json(&req).to_compact()).unwrap();
    assert_eq!(status, 200);

    let resp = ClientConn::new(&addr)
        .request("GET", "/metrics", b"")
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.header("Content-Type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "Prometheus content type: {:?}",
        resp.header("Content-Type")
    );
    let text = String::from_utf8(resp.body).unwrap();
    let series = guardspec_harness::parse_prometheus(&text).expect("valid exposition");
    assert!(
        series
            .get("gsd_request_latency_seconds_count")
            .copied()
            .unwrap_or(0.0)
            >= 1.0,
        "request latency histogram must have samples: {text}"
    );
    assert!(
        series
            .get("gsd_queue_wait_seconds_count")
            .copied()
            .unwrap_or(0.0)
            >= 1.0,
        "queue wait histogram must have samples: {text}"
    );
    assert!(series.contains_key("gsd_queue_depth"), "{text}");

    // The JSON document is still there for callers that ask for it.
    let (st, legacy) = get_json(&addr, "/metrics").unwrap();
    assert_eq!(st, 200);
    assert_eq!(counter(&legacy, "jobs.executed"), 1, "{legacy}");
    handle.shutdown();
}

#[test]
fn tracing_and_slow_logging_never_perturb_artifact_bytes() {
    // Same request against a telemetry-hot daemon (slow-ms traces every
    // request) and a telemetry-cold one: byte-identical artifacts.
    let hot = Server::start(ServerConfig {
        cache_dir: Some(scratch("hot")),
        workers: 1,
        slow_ms: Some(0), // trace and slow-log literally every request
        ..ServerConfig::default()
    })
    .unwrap();
    let cold = Server::start(ServerConfig {
        cache_dir: Some(scratch("cold")),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let req = three_schemes_request("table3", Scale::Test);
    let body = request_to_json(&req).to_compact();
    let (st_hot, from_hot) = post_json(&hot.addr().to_string(), "/run", &body).unwrap();
    let (st_cold, from_cold) = post_json(&cold.addr().to_string(), "/run", &body).unwrap();
    assert_eq!((st_hot, st_cold), (200, 200));
    assert_eq!(from_hot, from_cold, "telemetry must not leak into bytes");
    assert_eq!(from_hot, offline_stable(&req));
    hot.shutdown();
    cold.shutdown();
}

#[test]
fn gsd_binary_drains_cleanly_on_sigterm() {
    use std::io::BufRead;
    let cache = scratch("bin");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_gsd"))
        .args(["--port", "0", "--workers", "1", "--cache-dir"])
        .arg(&cache)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    // "gsd listening on 127.0.0.1:PORT shard 0/1"
    let addr = line
        .split_whitespace()
        .nth(3)
        .expect("address in banner")
        .to_string();
    let (status, health) = get(&addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(health.contains("\"ok\""), "{health}");

    let req = three_schemes_request("table3", Scale::Test);
    let (status, body) = post_json(&addr, "/run", &request_to_json(&req).to_compact()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, offline_stable(&req));

    let kill = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let exit = child.wait().unwrap();
    assert!(exit.success(), "gsd must drain and exit 0, got {exit:?}");
}

#[test]
fn gsd_debug_logging_never_touches_stdout() {
    use std::io::{BufRead, Read};
    let cache = scratch("binlog");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_gsd"))
        .args(["--port", "0", "--workers", "1", "--log-level", "debug"])
        .args(["--slow-ms", "0", "--cache-dir"])
        .arg(&cache)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .split_whitespace()
        .nth(3)
        .expect("address in banner")
        .to_string();

    // Drive real traffic — traced (slow-ms 0 traces everything) and debug
    // logged — then drain. Nothing beyond the banner may reach stdout.
    let req = three_schemes_request("table3", Scale::Test);
    let (status, body) = post_json(&addr, "/run", &request_to_json(&req).to_compact()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, offline_stable(&req));
    let (status, _) = get(&addr, "/metrics").unwrap();
    assert_eq!(status, 200);

    std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    let exit = child.wait().unwrap();
    assert!(exit.success(), "{exit:?}");

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert_eq!(
        rest, "",
        "stdout must carry the banner and nothing else, got {rest:?}"
    );
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let mut structured = 0;
    for line in stderr.lines().filter(|l| !l.trim().is_empty()) {
        let j = json::parse(line)
            .unwrap_or_else(|e| panic!("stderr line must be JSON ({e}): {line:?}"));
        assert!(j.get("level").is_some(), "leveled log line: {line}");
        assert!(j.get("event").is_some(), "named log event: {line}");
        structured += 1;
    }
    assert!(
        structured >= 2,
        "expected slow-request + drain logs on stderr, got: {stderr:?}"
    );
}
