//! `loadgen` — drives an embedded `gsd` server with concurrent clients and
//! writes `results/BENCH_35.json`: requests/sec, p50/p95/p99/max latency
//! (from the same log-linear [`Histogram`] the daemon exports on
//! `/metrics`), dedup ratio, connection accounting, and cold- vs
//! warm-cache behaviour of the service layer under two transport modes:
//! a fresh connection per request and HTTP/1.1 keep-alive.
//!
//! The server runs in-process on an ephemeral port with a scratch cache,
//! so the numbers measure the daemon (epoll loop + dedup + queue +
//! runner), not network weather.  Each client cycles through a small set
//! of distinct sweeps; with more clients than distinct sweeps, concurrent
//! duplicates dedup into shared flights (the `dedup_ratio` reported).
//! After the cold pass populates the cache, two warm passes replay the
//! same mix: once on a fresh connection per request, once on keep-alive
//! connections.  The file is overwritten on purpose: it is the latest
//! evidence artifact, not a per-run log.
//!
//! ```text
//! loadgen [--scale test|small|paper] [--clients N] [--requests R]
//!         [--workers W] [--keep-alive] [--out PATH]
//! ```
//!
//! `--keep-alive` makes the *cold* pass reuse connections too (default: a
//! fresh connection per request, comparable to the historical BENCH_6
//! numbers).
//! Unknown flags print the offending flag and exit 2.

use guardspec_harness::args::{parse_scale, take_value, unknown_argument};
use guardspec_harness::{json, write_json_file, Histogram, Json};
use guardspec_server::http::ClientConn;
use guardspec_server::protocol::{ablation_request, request_to_json, three_schemes_request};
use guardspec_server::{Server, ServerConfig};
use guardspec_workloads::Scale;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug)]
struct Args {
    scale: Scale,
    clients: usize,
    requests: usize,
    workers: usize,
    keep_alive: bool,
    out: PathBuf,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        scale: Scale::Test,
        clients: 4,
        requests: 8,
        workers: 2,
        keep_alive: false,
        out: PathBuf::from("results/BENCH_35.json"),
    };
    let mut args: Box<dyn Iterator<Item = String>> = Box::new(argv);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => parsed.scale = parse_scale(&take_value(&mut args, "--scale")?)?,
            "--clients" => {
                let v = take_value(&mut args, "--clients")?;
                parsed.clients = v.parse().map_err(|_| format!("bad --clients {v:?}"))?;
            }
            "--requests" => {
                let v = take_value(&mut args, "--requests")?;
                parsed.requests = v.parse().map_err(|_| format!("bad --requests {v:?}"))?;
            }
            "--workers" => {
                let v = take_value(&mut args, "--workers")?;
                parsed.workers = v.parse().map_err(|_| format!("bad --workers {v:?}"))?;
            }
            "--keep-alive" => parsed.keep_alive = true,
            "--out" => parsed.out = PathBuf::from(take_value(&mut args, "--out")?),
            other => return Err(unknown_argument(other)),
        }
    }
    if parsed.clients == 0 || parsed.requests == 0 {
        return Err("--clients and --requests must be positive".to_string());
    }
    Ok(parsed)
}

/// How a client pass talks to the server.
#[derive(Clone, Copy, Debug)]
enum Mode {
    /// One fresh connection per request, dropped after its response.
    Close,
    /// One keep-alive connection per client for the whole pass.
    KeepAlive,
}

impl Mode {
    fn tag(self) -> &'static str {
        match self {
            Mode::Close => "close",
            Mode::KeepAlive => "keep-alive",
        }
    }
}

/// One measured pass: every client posts its share of the mix; returns
/// per-request latencies (ms), the pass's wall time (ms), and how many
/// TCP connections the clients opened.
fn drive(
    addr: &str,
    mix: &[String],
    clients: usize,
    requests: usize,
    mode: Mode,
) -> (Vec<f64>, f64, u64) {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.to_string();
            let mix: Vec<String> = mix.to_vec();
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(requests);
                let mut conn = ClientConn::new(&addr);
                let mut opened = 0;
                for r in 0..requests {
                    let body = &mix[(c + r) % mix.len()];
                    let t0 = Instant::now();
                    let resp = conn
                        .request("POST", "/run", body.as_bytes())
                        .expect("request failed");
                    assert_eq!(resp.status, 200);
                    lat.push(t0.elapsed().as_secs_f64() * 1000.0);
                    if let Mode::Close = mode {
                        opened += conn.connections_opened();
                        conn = ClientConn::new(&addr);
                    }
                }
                (lat, opened + conn.connections_opened())
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(clients * requests);
    let mut conns = 0u64;
    for h in handles {
        let (lat, opened) = h.join().expect("client thread panicked");
        latencies.extend(lat);
        conns += opened;
    }
    (latencies, started.elapsed().as_secs_f64() * 1000.0, conns)
}

/// Per-pass summary: throughput plus histogram-derived latency quantiles.
struct PassStats {
    json: Json,
    rps: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    max: f64,
}

/// Fold per-request latencies into the harness's log-linear [`Histogram`]
/// — the same bucket layout the daemon exports on `/metrics` — and read
/// the quantiles back out (upper bucket bounds, so each estimate is ≥ the
/// true order statistic and at most ×1.4145 above it; `max` is exact).
fn pass_stats(mode: Mode, latencies: &[f64], wall_ms: f64, conns: u64) -> PassStats {
    let hist = Histogram::new();
    for &ms in latencies {
        hist.record((ms * 1e6) as u64);
    }
    let q = |p: f64| hist.quantile(p).unwrap_or(0) as f64 / 1e6;
    let (p50, p95, p99) = (q(0.50), q(0.95), q(0.99));
    let max = hist.max() as f64 / 1e6;
    let rps = latencies.len() as f64 / (wall_ms / 1000.0);
    let json = Json::obj(vec![
        ("mode", Json::str(mode.tag())),
        ("requests", Json::U64(latencies.len() as u64)),
        ("wall_ms", Json::F64(wall_ms)),
        ("requests_per_sec", Json::F64(rps)),
        ("p50_ms", Json::F64(p50)),
        ("p95_ms", Json::F64(p95)),
        ("p99_ms", Json::F64(p99)),
        ("max_ms", Json::F64(max)),
        ("histogram_count", Json::U64(hist.count())),
        ("histogram_sum_ms", Json::F64(hist.sum() as f64 / 1e6)),
        ("client_connections_opened", Json::U64(conns)),
    ]);
    PassStats {
        json,
        rps,
        p50,
        p95,
        p99,
        max,
    }
}

/// The daemon's `/metrics` JSON document.
fn metrics_json(addr: &str) -> String {
    let resp = ClientConn::new(addr)
        .request_with("GET", "/metrics", &[("Accept", "application/json")], b"")
        .expect("metrics");
    String::from_utf8_lossy(&resp.body).into_owned()
}

fn metric(metrics_body: &str, path: &[&str]) -> u64 {
    let mut j = json::parse(metrics_body).expect("metrics parse");
    for p in path {
        match j.get(p) {
            Some(inner) => j = inner.clone(),
            None => return 0,
        }
    }
    j.as_u64().unwrap_or(0)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };
    let cache_dir = std::env::temp_dir().join(format!("guardspec-loadgen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let handle = Server::start(ServerConfig {
        cache_dir: Some(cache_dir.clone()),
        workers: args.workers,
        queue_cap: args.clients * args.requests + 8,
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = handle.addr().to_string();

    // The request mix: two sweep shapes at the chosen scale.  Fewer
    // distinct requests than clients means concurrent duplicates dedup.
    let mix: Vec<String> = [
        request_to_json(&three_schemes_request("table3", args.scale)),
        request_to_json(&ablation_request("ablation", args.scale)),
    ]
    .iter()
    .map(Json::to_compact)
    .collect();

    let cold_mode = if args.keep_alive {
        Mode::KeepAlive
    } else {
        Mode::Close
    };
    eprintln!(
        "loadgen: {} clients x {} requests, {} workers, scale {:?}, cold mode {}, server {addr}",
        args.clients,
        args.requests,
        args.workers,
        args.scale,
        cold_mode.tag()
    );

    let (cold_lat, cold_wall, cold_conns) =
        drive(&addr, &mix, args.clients, args.requests, cold_mode);
    let cold_metrics = metrics_json(&addr);
    let (wc_lat, wc_wall, wc_conns) = drive(&addr, &mix, args.clients, args.requests, Mode::Close);
    let (wk_lat, wk_wall, wk_conns) =
        drive(&addr, &mix, args.clients, args.requests, Mode::KeepAlive);
    let final_metrics = metrics_json(&addr);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);

    let cold = pass_stats(cold_mode, &cold_lat, cold_wall, cold_conns);
    let wc = pass_stats(Mode::Close, &wc_lat, wc_wall, wc_conns);
    let wk = pass_stats(Mode::KeepAlive, &wk_lat, wk_wall, wk_conns);

    let run = metric(&cold_metrics, &["counters", "requests.run"]);
    let joined = metric(&cold_metrics, &["counters", "dedup.joined"]);
    let executed = metric(&final_metrics, &["counters", "jobs.executed"]);
    let dedup_ratio = if run > 0 {
        joined as f64 / run as f64
    } else {
        0.0
    };

    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "metric", "cold", "warm/close", "warm/ka"
    );
    let row =
        |name: &str, a: f64, b: f64, c: f64| println!("{name:<22} {a:>12.2} {b:>12.2} {c:>12.2}");
    row("requests/sec", cold.rps, wc.rps, wk.rps);
    row("p50 latency (ms)", cold.p50, wc.p50, wk.p50);
    row("p95 latency (ms)", cold.p95, wc.p95, wk.p95);
    row("p99 latency (ms)", cold.p99, wc.p99, wk.p99);
    row("max latency (ms)", cold.max, wc.max, wk.max);
    println!(
        "dedup: {joined}/{run} cold requests joined an in-flight duplicate ({:.0}%), {executed} jobs executed",
        dedup_ratio * 100.0
    );
    println!(
        "connections: server opened {} / reused {}",
        metric(&final_metrics, &["counters", "connections.opened"]),
        metric(&final_metrics, &["counters", "connections.reused"]),
    );

    let json = Json::obj(vec![
        (
            "meta",
            Json::obj(vec![
                ("bench", Json::str("loadgen")),
                ("scale", Json::str(format!("{:?}", args.scale))),
                ("clients", Json::U64(args.clients as u64)),
                ("requests_per_client", Json::U64(args.requests as u64)),
                ("workers", Json::U64(args.workers as u64)),
                ("mix", Json::str("table3 + ablation, alternating")),
            ]),
        ),
        ("cold", cold.json),
        ("warm_close", wc.json),
        ("warm_keep_alive", wk.json),
        (
            "dedup",
            Json::obj(vec![
                ("requests", Json::U64(run)),
                ("joined", Json::U64(joined)),
                ("jobs_executed", Json::U64(executed)),
                ("ratio", Json::F64(dedup_ratio)),
            ]),
        ),
        (
            "connections",
            Json::obj(vec![
                (
                    "server_opened",
                    Json::U64(metric(&final_metrics, &["counters", "connections.opened"])),
                ),
                (
                    "server_reused",
                    Json::U64(metric(&final_metrics, &["counters", "connections.reused"])),
                ),
            ]),
        ),
        (
            "cache",
            Json::obj(vec![
                (
                    "hits_after_cold",
                    Json::U64(metric(&cold_metrics, &["cache_hits"])),
                ),
                (
                    "hits_final",
                    Json::U64(metric(&final_metrics, &["cache_hits"])),
                ),
                (
                    "misses_final",
                    Json::U64(metric(&final_metrics, &["cache_misses"])),
                ),
                (
                    "resp_cached",
                    Json::U64(metric(&final_metrics, &["counters", "jobs.resp_cached"])),
                ),
                (
                    "race_lost",
                    Json::U64(metric(&final_metrics, &["cache_race_lost"])),
                ),
            ]),
        ),
    ]);
    write_json_file(&args.out, &json).expect("write artifact");
    eprintln!("loadgen: wrote {}", args.out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let err = parse_args(["--warp".to_string()].into_iter()).unwrap_err();
        assert!(err.contains("--warp"), "{err}");
    }

    #[test]
    fn transport_flags_parse() {
        let a = parse_args(["--keep-alive".to_string()].into_iter()).unwrap();
        assert!(a.keep_alive);
        assert!(a.out.ends_with("BENCH_35.json"));
        // Every pass sends one request at a time; `--pipeline` is rejected.
        let err = parse_args(["--pipeline", "8"].iter().map(|s| s.to_string())).unwrap_err();
        assert!(err.contains("--pipeline"), "{err}");
    }

    #[test]
    fn histogram_quantiles_bracket_the_exact_order_statistics() {
        let lat: Vec<f64> = (1..=100).map(|i| i as f64).collect(); // 1..100 ms
        let stats = pass_stats(Mode::Close, &lat, 1000.0, 0);
        assert_eq!(stats.max, 100.0, "max is exact");
        // Each histogram quantile is ≥ the exact rank and at most
        // ×HIST_MAX_RATIO above it.
        for (got, exact) in [(stats.p50, 50.0), (stats.p95, 95.0), (stats.p99, 99.0)] {
            assert!(
                got >= exact && got <= exact * guardspec_harness::HIST_MAX_RATIO,
                "{got} vs exact {exact}"
            );
        }
        assert!(stats.rps > 0.0);
    }
}
