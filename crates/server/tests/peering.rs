//! Cross-shard cache peering tests: two real daemons with *separate*
//! cache directories, one warm and one cold, peered over `/cache/<key>`.
//!
//! (The daemons are deliberately unsharded: two `--shard k/2` daemons
//! have disjoint key spaces by construction and would 400 each other's
//! full requests, so peering between them never sees a shared key.  The
//! interesting topology is N replicas of the same shard — warm spares —
//! and that is what these tests build.)

mod common;

use common::{counter, get, get_json, offline_stable, post_json, scratch, serve_one};
use guardspec_harness::{json, Json};
use guardspec_server::http::encode_response;
use guardspec_server::protocol::{request_to_json, three_schemes_request};
use guardspec_server::{Server, ServerConfig};

#[test]
fn a_cold_daemon_is_satisfied_by_its_warm_peer_without_simulating() {
    // B computes the answer the old-fashioned way...
    let b = Server::start(ServerConfig {
        cache_dir: Some(scratch("warm-b")),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let b_addr = b.addr().to_string();
    let req = three_schemes_request("peered", guardspec_workloads::Scale::Test);
    let body = request_to_json(&req).to_compact();
    let expected = offline_stable(&req);
    let (status, warm) = post_json(&b_addr, "/run", &body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(warm, expected);

    // ...then A, stone cold with its own cache dir, peers with B.
    let a = Server::start(ServerConfig {
        cache_dir: Some(scratch("cold-a")),
        workers: 1,
        peers: vec![b_addr.clone()],
        ..ServerConfig::default()
    })
    .unwrap();
    let a_addr = a.addr().to_string();
    let (status, got) = post_json(&a_addr, "/run", &body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(got, expected, "peered bytes must equal the offline bytes");

    let (_, metrics) = get_json(&a_addr, "/metrics").unwrap();
    assert_eq!(counter(&metrics, "cache.peer_hits"), 1, "{metrics}");
    assert_eq!(
        counter(&metrics, "jobs.executed"),
        0,
        "the peer hit must preempt the simulation: {metrics}"
    );
    let (_, b_metrics) = get_json(&b_addr, "/metrics").unwrap();
    assert!(counter(&b_metrics, "cache.peer_served") >= 1, "{b_metrics}");

    // The fetched artifact is now in A's own cache: a replay answers
    // locally (resp-cached), no second peer round-trip.
    let (status, again) = post_json(&a_addr, "/run", &body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(again, expected);
    let (_, metrics) = get_json(&a_addr, "/metrics").unwrap();
    assert_eq!(counter(&metrics, "cache.peer_hits"), 1, "{metrics}");
    assert!(counter(&metrics, "jobs.resp_cached") >= 1, "{metrics}");

    a.shutdown();
    b.shutdown();
}

#[test]
fn a_dead_peer_degrades_to_local_compute() {
    // A port with nothing behind it: bind, note the address, drop.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let a = Server::start(ServerConfig {
        cache_dir: Some(scratch("lonely-a")),
        workers: 1,
        peers: vec![dead],
        ..ServerConfig::default()
    })
    .unwrap();
    let a_addr = a.addr().to_string();
    let req = three_schemes_request("lonely", guardspec_workloads::Scale::Test);
    let body = request_to_json(&req).to_compact();
    let expected = offline_stable(&req);
    let (status, got) = post_json(&a_addr, "/run", &body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(got, expected, "peer failure must not change the answer");

    let (_, metrics) = get_json(&a_addr, "/metrics").unwrap();
    assert_eq!(counter(&metrics, "cache.peer_hits"), 0, "{metrics}");
    assert!(counter(&metrics, "cache.peer_misses") >= 1, "{metrics}");
    assert_eq!(counter(&metrics, "jobs.executed"), 1, "{metrics}");
    a.shutdown();
}

#[test]
fn a_silent_peer_times_out_and_is_counted_separately_from_misses() {
    // A peer that accepts the TCP connection and then says nothing: the
    // probe must hit `--peer-timeout-ms`, bump the dedicated timeout
    // counter (not just the generic miss), and fall back to computing.
    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let silent = l.local_addr().unwrap().to_string();
    let hold = std::thread::spawn(move || {
        let conns: Vec<_> = l.incoming().take(1).collect();
        std::thread::sleep(std::time::Duration::from_millis(600));
        drop(conns);
    });
    let a = Server::start(ServerConfig {
        cache_dir: Some(scratch("deaf-a")),
        workers: 1,
        peers: vec![silent],
        peer_timeout_ms: 100,
        ..ServerConfig::default()
    })
    .unwrap();
    let a_addr = a.addr().to_string();
    let req = three_schemes_request("deaf", guardspec_workloads::Scale::Test);
    let (status, got) = post_json(&a_addr, "/run", &request_to_json(&req).to_compact()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        got,
        offline_stable(&req),
        "timeout must not change the answer"
    );

    let (_, metrics) = get_json(&a_addr, "/metrics").unwrap();
    assert!(counter(&metrics, "cache.peer_timeouts") >= 1, "{metrics}");
    assert_eq!(counter(&metrics, "cache.peer_hits"), 0, "{metrics}");
    assert_eq!(counter(&metrics, "jobs.executed"), 1, "{metrics}");
    a.shutdown();
    hold.join().unwrap();
}

#[test]
fn a_traced_request_propagates_its_trace_id_to_peer_probes() {
    // A hand-rolled "peer" that records the X-Trace-Id it was probed
    // with and answers 404 (an honest miss).
    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let peer_addr = l.local_addr().unwrap().to_string();
    let probe = std::thread::spawn(move || {
        let (mut s, _) = l.accept().unwrap();
        let req = serve_one(&mut s, &encode_response(404, &[], b"", false));
        req.header("x-trace-id").map(str::to_string)
    });
    let a = Server::start(ServerConfig {
        cache_dir: Some(scratch("traced-a")),
        workers: 1,
        peers: vec![peer_addr],
        ..ServerConfig::default()
    })
    .unwrap();
    let a_addr = a.addr().to_string();
    let req = three_schemes_request("traced-peer", guardspec_workloads::Scale::Test);
    let (status, envelope) =
        post_json(&a_addr, "/run?trace=1", &request_to_json(&req).to_compact()).unwrap();
    assert_eq!(status, 200);
    let env = json::parse(&envelope).unwrap();
    let trace_id = env
        .get("trace_id")
        .and_then(Json::as_str)
        .expect("trace id in envelope")
        .to_string();
    assert_eq!(
        probe.join().unwrap().as_deref(),
        Some(trace_id.as_str()),
        "the peer probe must carry the request's trace id"
    );
    // And the probe itself shows up in the request's own timeline.
    let trace = env.get("trace").unwrap().to_compact();
    assert!(trace.contains("peer.pull"), "{trace}");
    a.shutdown();
}

#[test]
fn the_cache_endpoint_validates_keys_and_misses_cleanly() {
    let h = Server::start(ServerConfig {
        cache_dir: Some(scratch("probe")),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = h.addr().to_string();
    let (status, _) = get(&addr, "/cache/resp-0123abcd").unwrap();
    assert_eq!(status, 404, "an honest miss is a 404");
    for bad in ["/cache/", "/cache/UPPER", "/cache/a..b", "/cache/a%2Fb"] {
        let (status, body) = get(&addr, bad).unwrap();
        assert_eq!(status, 400, "{bad} must be rejected: {body}");
    }
    h.shutdown();
}
