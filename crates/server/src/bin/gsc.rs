//! `gsc` — the guardspec sweep client.
//!
//! ```text
//! gsc --servers ADDR[,ADDR...] [--spec table3|ablation]
//!     [--scale test|small|paper] [--out PATH] [--stream] [--trace-out PATH]
//! gsc --servers ADDR[,ADDR...] --healthz
//! gsc --servers ADDR[,ADDR...] --metrics [--prom]
//! ```
//!
//! With `M` servers the sweep is split by cache-key range — cell →
//! `cell_shard_hash % M` — each shard runs its slice, and the partial
//! artifacts are merged back into one stable artifact, byte-identical to
//! an offline `--stable-json` run of the same sweep.  The merged artifact
//! goes to `--out` (or stdout); transport diagnostics go to stderr as
//! structured JSON log lines (info level) so the artifact bytes stay pure.
//! The experiment is named after `--spec`, as the offline binaries name
//! theirs.
//! `--stream` (single server only) asks for `POST /run?stream=1` and
//! relays the server's stage-progress events to stderr as they arrive.
//! `--trace-out PATH` (single server only) additionally requests the
//! request's span timeline (`?trace=1`, originating the trace id
//! client-side via `X-Trace-Id`), validates it as a Chrome trace
//! document, and writes it to PATH — the artifact is still recovered
//! byte-exact from the trace envelope.  `--metrics --prom` scrapes the
//! Prometheus exposition and parse-checks it instead of printing the
//! JSON document.  Unknown flags print the offending flag and exit 2.

use guardspec_harness::args::{parse_scale, take_value, unknown_argument};
use guardspec_harness::log::{self as glog, LogLevel};
use guardspec_harness::{json, validate_chrome_trace, Json};
use guardspec_server::http::ClientConn;
use guardspec_server::protocol::{
    ablation_request, request_key, request_to_json, three_schemes_request,
};
use guardspec_server::{run_fanout_stats, ClientStats};
use guardspec_workloads::Scale;
use std::io::Write;
use std::path::{Path, PathBuf};

#[derive(Debug)]
struct Args {
    servers: Vec<String>,
    spec: String,
    scale: Scale,
    out: Option<PathBuf>,
    healthz: bool,
    metrics: bool,
    stream: bool,
    trace_out: Option<PathBuf>,
    prom: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        servers: Vec::new(),
        spec: "table3".to_string(),
        scale: Scale::Test,
        out: None,
        healthz: false,
        metrics: false,
        stream: false,
        trace_out: None,
        prom: false,
    };
    let mut args: Box<dyn Iterator<Item = String>> = Box::new(argv);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--servers" => {
                parsed.servers = take_value(&mut args, "--servers")?
                    .split(',')
                    .map(str::to_string)
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--spec" => {
                let v = take_value(&mut args, "--spec")?;
                if v != "table3" && v != "ablation" {
                    return Err(format!("bad --spec {v:?} (want table3|ablation)"));
                }
                parsed.spec = v;
            }
            "--scale" => parsed.scale = parse_scale(&take_value(&mut args, "--scale")?)?,
            "--out" => parsed.out = Some(PathBuf::from(take_value(&mut args, "--out")?)),
            "--healthz" => parsed.healthz = true,
            "--metrics" => parsed.metrics = true,
            "--stream" => parsed.stream = true,
            "--trace-out" => {
                parsed.trace_out = Some(PathBuf::from(take_value(&mut args, "--trace-out")?));
            }
            "--prom" => parsed.prom = true,
            other => return Err(unknown_argument(other)),
        }
    }
    if parsed.servers.is_empty() {
        return Err("--servers is required".to_string());
    }
    if parsed.stream && parsed.servers.len() > 1 {
        return Err("--stream works with exactly one server (no fan-out)".to_string());
    }
    if parsed.trace_out.is_some() && parsed.servers.len() > 1 {
        return Err(
            "--trace-out works with exactly one server (one trace, one timeline)".to_string(),
        );
    }
    if parsed.prom && !parsed.metrics {
        return Err("--prom only makes sense with --metrics".to_string());
    }
    Ok(parsed)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gsc: {e}");
            std::process::exit(2);
        }
    };
    glog::set_level(LogLevel::Info);
    if args.healthz || args.metrics {
        std::process::exit(probe_servers(&args));
    }
    let request = match args.spec.as_str() {
        "ablation" => ablation_request(&args.spec, args.scale),
        _ => three_schemes_request(&args.spec, args.scale),
    };
    let result = if args.stream {
        run_streaming(&args.servers[0], &request, args.trace_out.as_deref())
    } else if let Some(path) = &args.trace_out {
        run_traced(&args.servers[0], &request, path)
    } else {
        run_fanout_stats(&args.servers, &request)
    };
    match result {
        Ok((body, stats)) => {
            glog::info(
                "client.summary",
                &[
                    ("shards", Json::U64(args.servers.len() as u64)),
                    ("connections", Json::U64(stats.connections_opened)),
                    ("retries", Json::U64(stats.retries)),
                ],
            );
            if let Some(out) = &args.out {
                if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(dir).ok();
                }
                if let Err(e) = std::fs::write(out, &body) {
                    eprintln!("gsc: writing {}: {e}", out.display());
                    std::process::exit(1);
                }
                glog::info(
                    "client.wrote",
                    &[("path", Json::str(out.display().to_string()))],
                );
            } else {
                println!("{body}");
                std::io::stdout().flush().ok();
            }
        }
        Err(e) => {
            eprintln!("gsc: {e}");
            std::process::exit(1);
        }
    }
}

/// `--healthz` / `--metrics [--prom]`: probe every server, print one
/// block per server on stdout, return the process exit code.
fn probe_servers(args: &Args) -> i32 {
    let mut failed = false;
    for addr in &args.servers {
        let mut conn = ClientConn::new(addr);
        let fetched = if args.healthz {
            conn.request("GET", "/healthz", b"")
        } else if args.prom {
            // The default exposition: Prometheus text.
            conn.request("GET", "/metrics", b"")
        } else {
            // The legacy JSON document, for eyeballs and jq.
            conn.request_with("GET", "/metrics", &[("Accept", "application/json")], b"")
        };
        match fetched {
            Ok(resp) => {
                let (status, body) = (resp.status, String::from_utf8_lossy(&resp.body));
                failed |= status != 200;
                if args.prom {
                    match guardspec_harness::parse_prometheus(&body) {
                        Ok(series) => {
                            println!("{addr}: {status} {} series", series.len());
                            print!("{body}");
                        }
                        Err(e) => {
                            println!("{addr}: {status} bad exposition: {e}");
                            failed = true;
                        }
                    }
                } else {
                    println!("{addr}: {status} {body}");
                }
            }
            Err(e) => {
                println!("{addr}: unreachable ({e})");
                failed = true;
            }
        }
    }
    i32::from(failed)
}

/// The client-originated trace id: 8 chars of the request key's stable
/// hash, suffixed `-c0` (client epoch — one id per invocation).
fn client_trace_id(request: &guardspec_server::RunRequest) -> String {
    let key = request_key(request);
    let hash = key.strip_prefix("req-").unwrap_or(&key);
    let short: String = hash.chars().take(8).collect();
    format!("{short}-c0")
}

/// Validate `doc` as a Chrome trace and write it pretty-printed.
fn write_trace(path: &Path, doc: &Json) -> Result<(), String> {
    validate_chrome_trace(doc).map_err(|e| format!("server returned an invalid trace: {e}"))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    glog::info(
        "client.trace_written",
        &[("path", Json::str(path.display().to_string()))],
    );
    Ok(())
}

/// Single-server traced (non-streaming) run: `?trace=1` wraps the
/// artifact in a `{trace_id, trace, artifact}` envelope; the artifact is
/// recovered byte-exact from the envelope's JSON string.
fn run_traced(
    addr: &str,
    request: &guardspec_server::RunRequest,
    trace_out: &Path,
) -> Result<(String, ClientStats), String> {
    let body = request_to_json(request).to_compact();
    let id = client_trace_id(request);
    let mut conn = ClientConn::new(addr);
    let resp = conn
        .request_with(
            "POST",
            "/run?trace=1",
            &[("X-Trace-Id", &id)],
            body.as_bytes(),
        )
        .map_err(|e| format!("POST {addr}/run?trace=1 failed: {e}"))?;
    let text = String::from_utf8_lossy(&resp.body).to_string();
    if resp.status != 200 {
        return Err(format!("{addr}/run returned {}: {text}", resp.status));
    }
    let envelope = json::parse(&text).map_err(|e| format!("bad trace envelope: {e}"))?;
    let artifact = envelope
        .get("artifact")
        .and_then(Json::as_str)
        .ok_or("trace envelope carries no artifact")?
        .to_string();
    let doc = envelope
        .get("trace")
        .cloned()
        .ok_or("trace envelope carries no trace document")?;
    write_trace(trace_out, &doc)?;
    Ok((
        artifact,
        ClientStats {
            retries: 0,
            connections_opened: conn.connections_opened(),
        },
    ))
}

/// Single-server streaming run: stage events logged as they land, the
/// final artifact returned like any other run.  With `--trace-out` the
/// stream additionally requests `?trace=1`; the timeline arrives as its
/// own `{"event":"trace",...}` line just before the artifact.
fn run_streaming(
    addr: &str,
    request: &guardspec_server::RunRequest,
    trace_out: Option<&Path>,
) -> Result<(String, ClientStats), String> {
    let body = request_to_json(request).to_compact();
    let id = client_trace_id(request);
    let (path, headers): (&str, Vec<(&str, &str)>) = match trace_out {
        Some(_) => ("/run?stream=1&trace=1", vec![("X-Trace-Id", &id)]),
        None => ("/run?stream=1", Vec::new()),
    };
    let mut conn = ClientConn::new(addr);
    let mut trace_doc: Option<Json> = None;
    let (status, artifact) = conn
        .post_stream_with(path, &headers, body.as_bytes(), |line| {
            match json::parse(line) {
                Ok(ev) if ev.get("event").and_then(Json::as_str) == Some("trace") => {
                    trace_doc = ev.get("trace").cloned();
                }
                Ok(ev) => glog::info("server.event", &[("body", ev)]),
                Err(_) => glog::info("server.event", &[("line", Json::str(line))]),
            }
        })
        .map_err(|e| format!("POST {addr}{path} failed: {e}"))?;
    let text = String::from_utf8_lossy(&artifact).to_string();
    if status != 200 {
        return Err(format!("{addr}/run returned {status}: {text}"));
    }
    if let Some(out) = trace_out {
        let doc = trace_doc.ok_or("server stream never delivered a trace event")?;
        write_trace(out, &doc)?;
    }
    Ok((
        text,
        ClientStats {
            retries: 0,
            connections_opened: conn.connections_opened(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let err = parse(&["--servers", "x:1", "--bogus"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn servers_split_on_commas() {
        let a = parse(&[
            "--servers",
            "a:1,b:2",
            "--spec",
            "ablation",
            "--scale",
            "small",
        ])
        .unwrap();
        assert_eq!(a.servers, ["a:1", "b:2"]);
        assert_eq!(a.spec, "ablation");
        assert_eq!(a.scale, Scale::Small);
    }

    #[test]
    fn stream_requires_a_single_server() {
        assert!(parse(&["--servers", "a:1", "--stream"]).unwrap().stream);
        let err = parse(&["--servers", "a:1,b:2", "--stream"]).unwrap_err();
        assert!(err.contains("--stream"), "{err}");
    }

    #[test]
    fn trace_out_requires_a_single_server_and_prom_requires_metrics() {
        let a = parse(&["--servers", "a:1", "--trace-out", "t.json"]).unwrap();
        assert_eq!(a.trace_out, Some(PathBuf::from("t.json")));
        let err = parse(&["--servers", "a:1,b:2", "--trace-out", "t.json"]).unwrap_err();
        assert!(err.contains("--trace-out"), "{err}");
        let err = parse(&["--servers", "a:1", "--prom"]).unwrap_err();
        assert!(err.contains("--metrics"), "{err}");
        assert!(
            parse(&["--servers", "a:1", "--metrics", "--prom"])
                .unwrap()
                .prom
        );
    }

    #[test]
    fn deleted_flags_are_rejected_by_name() {
        for flag in ["--name", "--client", "--observe", "--log-level"] {
            let err = parse(&["--servers", "a:1", flag, "x"]).unwrap_err();
            assert!(err.contains(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn client_trace_ids_are_deterministic() {
        let r = three_schemes_request("t", Scale::Test);
        let id = client_trace_id(&r);
        assert_eq!(id, client_trace_id(&r), "same request, same id");
        assert!(id.ends_with("-c0"), "{id}");
        assert_eq!(id.len(), 8 + 3, "{id}");
    }

    #[test]
    fn servers_are_required_and_specs_validated() {
        assert!(parse(&[]).unwrap_err().contains("--servers"));
        assert!(parse(&["--servers", "x:1", "--spec", "nope"])
            .unwrap_err()
            .contains("--spec"));
    }
}
