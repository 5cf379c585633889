//! Connection-plane tests: a real daemon on an ephemeral port, driven
//! over raw TCP at the byte level.  Where `server_e2e.rs` asserts the
//! service semantics (dedup, shard/merge, drain), this file asserts the
//! epoll state machine itself: incremental parsing under adversarial
//! write boundaries (slow-loris, split pipelines), keep-alive accounting,
//! limits (oversized heads/bodies, max-requests, idle reaping), framing
//! violations that get one answer and a hang-up, request order for a
//! pipelining client served one request at a time, answers to a client
//! that half-closes, and the chunked progress stream.

mod common;

use common::{counter, get_json, offline_stable, scratch};
use guardspec_harness::{json, Json};
use guardspec_server::http::ClientConn;
use guardspec_server::protocol::{request_to_json, three_schemes_request};
use guardspec_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Read one `Content-Length`-framed response off a raw socket; returns
/// (status, full head, body).
fn read_raw_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut head = Vec::new();
    let mut b = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut b).expect("read head");
        assert!(n > 0, "connection closed mid-head: {head:?}");
        head.push(b[0]);
        assert!(head.len() < 64 * 1024, "head never terminated");
    }
    let head = String::from_utf8_lossy(&head).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let content_length = head
        .lines()
        .find_map(|l| {
            let lower = l.to_ascii_lowercase();
            lower
                .strip_prefix("content-length:")
                .map(|v| v.trim().parse::<usize>().expect("numeric length"))
        })
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    (status, head, String::from_utf8_lossy(&body).to_string())
}

#[test]
fn slow_loris_fragments_get_no_answer_until_the_head_completes() {
    let handle = Server::start(ServerConfig {
        cache_dir: None,
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(150)))
        .unwrap();

    // Drip the request head in five fragments with pauses; after each
    // incomplete fragment the server must stay silent (Partial parse).
    let fragments: &[&[u8]] = &[b"GET /he", b"alth", b"z HTT", b"P/1.1\r\nHost: x\r\n"];
    for frag in fragments {
        stream.write_all(frag).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let mut probe = [0u8; 1];
        match stream.read(&mut probe) {
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            other => panic!("server answered a partial request head: {other:?}"),
        }
    }
    stream.write_all(b"\r\n").unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let (status, _, body) = read_raw_response(&mut stream);
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");
    handle.shutdown();
}

#[test]
fn pipelined_requests_split_at_arbitrary_boundaries_answer_in_order() {
    let handle = Server::start(ServerConfig {
        cache_dir: None,
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    // Three back-to-back requests as one byte stream, then re-split at
    // every stride — the parser must not care where reads land.
    let wire = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".repeat(3);
    for stride in [1usize, 3, 7, wire.len()] {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for chunk in wire.chunks(stride) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
        }
        for _ in 0..3 {
            let (status, head, body) = read_raw_response(&mut stream);
            assert_eq!(status, 200, "stride {stride}");
            assert!(
                head.to_ascii_lowercase().contains("connection: keep-alive"),
                "pipelined healthz must keep the connection alive: {head}"
            );
            assert!(body.contains("\"ok\""));
        }
    }
    handle.shutdown();
}

#[test]
fn oversized_head_is_rejected_without_harming_prior_responses() {
    let handle = Server::start(ServerConfig {
        cache_dir: None,
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // A good request first: its response must be intact.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_raw_response(&mut stream);
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""));

    // Then a head that never ends: >64 KiB of header junk on the same
    // keep-alive connection.  Ignore write errors near the end — the
    // server may reset as soon as it has decided on 413.
    let junk = format!("GET / HTTP/1.1\r\nX-Junk: {}\r\n", "a".repeat(70 * 1024));
    let _ = stream.write_all(junk.as_bytes());
    let _ = stream.flush();
    let (status, head, _) = read_raw_response(&mut stream);
    assert_eq!(status, 413, "{head}");
    assert!(head.to_ascii_lowercase().contains("connection: close"));
    // And the connection is gone.
    let mut probe = [0u8; 16];
    assert_eq!(
        stream.read(&mut probe).unwrap_or(0),
        0,
        "must close after 413"
    );
    handle.shutdown();
}

#[test]
fn oversized_body_is_rejected_on_sight() {
    let handle = Server::start(ServerConfig {
        cache_dir: None,
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The Content-Length alone convicts it; no body bytes needed.
    stream
        .write_all(b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 20000000\r\n\r\n")
        .unwrap();
    let (status, head, _) = read_raw_response(&mut stream);
    assert_eq!(status, 413, "{head}");
    handle.shutdown();
}

/// Send `wire` on a fresh connection and assert that the daemon answers
/// exactly once, says it closes, and hangs up; return the status.
fn one_answer_then_eof(wire: &[u8]) -> u16 {
    let handle = Server::start(ServerConfig {
        cache_dir: None,
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(wire).unwrap();
    let (status, head, _) = read_raw_response(&mut stream);
    assert!(
        head.to_ascii_lowercase().contains("connection: close"),
        "{head}"
    );
    let mut rest = Vec::new();
    match stream.read_to_end(&mut rest) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("the server must hang up after the {status}: {e}"),
    }
    assert!(
        rest.is_empty(),
        "a second answer followed: {}",
        String::from_utf8_lossy(&rest)
    );
    handle.shutdown();
    status
}

#[test]
fn a_chunked_request_gets_one_501_then_eof() {
    // Read as a 0-byte body, its chunk bytes would parse as a second
    // request and draw a second answer.
    let wire =
        b"POST /run HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n";
    assert_eq!(one_answer_then_eof(wire), 501);
}

#[test]
fn conflicting_content_lengths_get_one_400_then_eof() {
    // Read by its last length, this is a bodiless health check whose 5
    // body bytes would start a second request.
    let wire =
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello";
    assert_eq!(one_answer_then_eof(wire), 400);
}

#[test]
fn idle_keep_alive_connections_are_reaped() {
    let handle = Server::start(ServerConfig {
        cache_dir: None,
        workers: 1,
        idle_timeout_ms: 200,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_raw_response(&mut stream);
    assert_eq!(status, 200);
    // Sit idle past the timeout (+ the loop's 100ms tick): the server
    // must hang up on us.
    let mut probe = [0u8; 16];
    assert_eq!(
        stream.read(&mut probe).unwrap_or(0),
        0,
        "server must close an idle connection"
    );
    let (st, metrics) = get_json(&addr, "/metrics").unwrap();
    assert_eq!(st, 200);
    assert!(counter(&metrics, "connections.reaped") >= 1, "{metrics}");
    handle.shutdown();
}

#[test]
fn keep_alive_reuse_is_the_default_and_is_counted() {
    let handle = Server::start(ServerConfig {
        cache_dir: None,
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let mut conn = ClientConn::new(&addr);
    for _ in 0..5 {
        let resp = conn.request("GET", "/healthz", b"").unwrap();
        assert_eq!(resp.status, 200);
    }
    // Read the metrics over the SAME connection, so no second connection
    // muddies the accounting: 6 requests, 1 connection, 5 reuses.
    let resp = conn
        .request_with("GET", "/metrics", &[("Accept", "application/json")], b"")
        .unwrap();
    assert_eq!(resp.status, 200);
    let metrics = String::from_utf8_lossy(&resp.body).to_string();
    assert_eq!(conn.connections_opened(), 1);
    assert_eq!(counter(&metrics, "connections.opened"), 1, "{metrics}");
    assert_eq!(counter(&metrics, "connections.reused"), 5, "{metrics}");
    handle.shutdown();
}

#[test]
fn max_conn_requests_closes_politely_and_the_client_reconnects() {
    let handle = Server::start(ServerConfig {
        cache_dir: None,
        workers: 1,
        max_conn_requests: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let mut conn = ClientConn::new(&addr);
    for i in 0..6 {
        let resp = conn.request("GET", "/healthz", b"").unwrap();
        assert_eq!(resp.status, 200, "request {i}");
    }
    // Every second response carries `Connection: close`, so 6 requests
    // ride exactly 3 connections.
    assert_eq!(conn.connections_opened(), 3);
    handle.shutdown();
}

#[test]
fn pipelined_runs_answer_in_request_order_with_offline_bytes() {
    let handle = Server::start(ServerConfig {
        cache_dir: Some(scratch("pipeline")),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let req = three_schemes_request("pipe", guardspec_workloads::Scale::Test);
    let body = request_to_json(&req).to_compact();
    let expected = offline_stable(&req);

    // Two runs and a healthz in one write: the server takes them one at a
    // time, so the fast healthz still comes back last.
    let run = format!(
        "POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let wire = format!("{run}{run}GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(wire.as_bytes()).unwrap();
    for _ in 0..2 {
        let (status, _, artifact) = read_raw_response(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(
            artifact, expected,
            "pipelined /run must return the offline stable bytes"
        );
    }
    let (status, _, health) = read_raw_response(&mut stream);
    assert_eq!(status, 200);
    assert!(health.contains("\"ok\""), "{health}");

    let (_, metrics) = get_json(&addr, "/metrics").unwrap();
    assert_eq!(counter(&metrics, "connections.reused"), 2, "{metrics}");
    handle.shutdown();
}

#[test]
fn a_pipelined_burst_is_answered_without_waiting_out_the_poll_timeout() {
    let handle = Server::start(ServerConfig {
        cache_dir: None,
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    // 32 requests already sitting in the server's read buffer raise no new
    // readiness event: each must dispatch as soon as its predecessor's
    // response is queued, not after the loop's 100 ms poll timeout
    // (32 stalls would take 3.2 s).
    let wire = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".repeat(32);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let t0 = Instant::now();
    stream.write_all(&wire).unwrap();
    for i in 0..32 {
        let (status, head, body) = read_raw_response(&mut stream);
        assert_eq!(status, 200, "response {i}");
        assert!(
            head.to_ascii_lowercase().contains("connection: keep-alive"),
            "response {i}: {head}"
        );
        assert!(body.contains("\"ok\""), "response {i}: {body}");
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "32 pipelined answers took {elapsed:?}"
    );
    handle.shutdown();
}

#[test]
fn a_half_closing_client_gets_every_answer_before_eof() {
    let handle = Server::start(ServerConfig {
        cache_dir: None,
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    // Three requests and the FIN arrive together, usually in one read: the
    // EOF must not cost the complete requests ahead of it their answers.
    let wire = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".repeat(3);
    for round in 0..20 {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let t0 = Instant::now();
        stream.write_all(&wire).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        for i in 0..3 {
            let (status, _, body) = read_raw_response(&mut stream);
            assert_eq!(status, 200, "round {round}, response {i}");
            assert!(
                body.contains("\"ok\""),
                "round {round}, response {i}: {body}"
            );
        }
        let mut rest = Vec::new();
        stream
            .read_to_end(&mut rest)
            .expect("the server closes after the last answer");
        assert!(rest.is_empty(), "round {round}: bytes after the answers");
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "round {round} took {elapsed:?}"
        );
    }
    handle.shutdown();
}

#[test]
fn streaming_run_emits_stage_events_then_the_exact_artifact() {
    let handle = Server::start(ServerConfig {
        cache_dir: Some(scratch("stream")),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let req = three_schemes_request("stream", guardspec_workloads::Scale::Test);
    let body = request_to_json(&req).to_compact();
    let expected = offline_stable(&req);

    let mut conn = ClientConn::new(&addr);
    let mut events = Vec::new();
    let (status, artifact) = conn
        .post_stream_with("/run?stream=1", &[], body.as_bytes(), |line| {
            events.push(line.to_string())
        })
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        String::from_utf8_lossy(&artifact),
        expected,
        "streamed artifact must be byte-identical to the offline bytes"
    );
    assert!(!events.is_empty(), "a cold run must emit stage events");
    let mut seen_done = false;
    for line in &events {
        let j = json::parse(line).unwrap_or_else(|e| panic!("bad event {line:?}: {e}"));
        let kind = j.get("event").and_then(Json::as_str).unwrap();
        assert!(
            kind == "stage_start" || kind == "stage_done",
            "unexpected event {line}"
        );
        let stage = j.get("stage").and_then(Json::as_str).unwrap();
        assert!(
            ["profile", "transform", "trace", "simulate", "collect"].contains(&stage),
            "unexpected stage {line}"
        );
        if kind == "stage_done" {
            seen_done = true;
            assert!(j.get("ms").and_then(Json::as_f64).is_some(), "{line}");
            assert!(j.get("cached").and_then(Json::as_bool).is_some(), "{line}");
        }
    }
    assert!(seen_done, "at least one stage must complete: {events:?}");

    // Warm replay on the SAME keep-alive connection: the response cache
    // answers, so the stream carries zero stage events and the same bytes.
    let mut warm_events = Vec::new();
    let (status, warm) = conn
        .post_stream_with("/run?stream=1", &[], body.as_bytes(), |line| {
            warm_events.push(line.to_string())
        })
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8_lossy(&warm), expected);
    assert!(
        warm_events.is_empty(),
        "a response-cached run has no stages to report: {warm_events:?}"
    );
    assert_eq!(
        conn.connections_opened(),
        1,
        "stream must not burn the keep-alive"
    );
    handle.shutdown();
}
