//! Helpers the server's integration tests share: scratch cache dirs, the
//! offline answer, metric lookups, one-shot requests over [`ClientConn`],
//! and the server half of a fake peer.

#![allow(dead_code)]

use guardspec_harness::{json, run_experiment, Json, RunOptions};
use guardspec_server::http::{try_parse, ClientConn, HttpRequest, Parsed};
use guardspec_server::protocol::{to_spec, RunRequest};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// A scratch cache dir unique to this test invocation.
pub fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "guardspec-server-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The offline answer: run the same request's spec in-process, no cache.
pub fn offline_stable(req: &RunRequest) -> String {
    let spec = to_spec(req).expect("request resolves");
    let opts = RunOptions {
        jobs: 1,
        cache_dir: None,
        observe: req.observe,
        ..RunOptions::default()
    };
    guardspec_harness::stable_json(&run_experiment(&spec, &opts)).to_pretty()
}

/// A counter from a `/metrics` JSON document (0 if absent).
pub fn counter(metrics_body: &str, name: &str) -> u64 {
    let j = json::parse(metrics_body).expect("metrics parse");
    j.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// One request on a fresh connection, dropped after the response; returns
/// the status and the body as text.
fn one_shot(
    addr: &str,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<(u16, String)> {
    let resp = ClientConn::new(addr).request_with(method, path, extra_headers, body)?;
    Ok((
        resp.status,
        String::from_utf8_lossy(&resp.body).into_owned(),
    ))
}

pub fn get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    one_shot(addr, "GET", path, &[], b"")
}

/// GET asking for the JSON representation: `/metrics` defaults to
/// Prometheus text without `Accept: application/json`.
pub fn get_json(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    one_shot(addr, "GET", path, &[("Accept", "application/json")], b"")
}

pub fn post_json(addr: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    one_shot(addr, "POST", path, &[], body.as_bytes())
}

/// A fake server's half: read one request off `s` with [`try_parse`],
/// write `reply` (an `encode_response`), and return the request.
pub fn serve_one(s: &mut TcpStream, reply: &[u8]) -> HttpRequest {
    let mut buf = Vec::new();
    loop {
        match try_parse(&buf) {
            Parsed::Complete { req, .. } => {
                s.write_all(reply).unwrap();
                return req;
            }
            Parsed::Partial => {}
            Parsed::Error { msg, .. } => panic!("fake server got a bad request: {msg}"),
        }
        let mut chunk = [0u8; 4096];
        let n = s.read(&mut chunk).unwrap();
        assert!(n > 0, "the client hung up mid-request");
        buf.extend_from_slice(&chunk[..n]);
    }
}
