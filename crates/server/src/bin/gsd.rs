//! `gsd` — the guardspec simulation daemon.
//!
//! ```text
//! gsd [--port P] [--cache-dir DIR | --no-cache] [--workers N]
//!     [--queue-cap N] [--shard N/M] [--jobs N] [--est-job-ms MS]
//!     [--peers HOST:PORT,...] [--peer-timeout-ms MS]
//!     [--idle-timeout-ms MS] [--max-conn-requests N]
//!     [--pipeline-depth N] [--slow-ms MS]
//!     [--log-level off|error|warn|info|debug]
//! ```
//!
//! Binds 127.0.0.1, prints `gsd listening on ADDR shard N/M` once ready
//! (scrape the port with `--port 0`), and serves until SIGTERM/SIGINT —
//! on which it drains queued and in-flight jobs, refuses new ones with
//! 503, and exits 0.  Unknown flags print the offending flag and exit 2.
//!
//! The startup banner is the ONLY thing `gsd` ever writes to stdout;
//! diagnostics are structured JSON log lines on stderr (one object per
//! line, gated by `--log-level`, default `info`).

use guardspec_harness::args::{take_value, unknown_argument};
use guardspec_harness::log::{self as glog, parse_log_level, LogLevel};
use guardspec_server::{Server, ServerConfig, ShardSpec};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

#[cfg(unix)]
mod sig {
    use super::*;

    pub static SIGNALED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Install SIGINT (2) and SIGTERM (15) handlers via the libc `signal`
    /// symbol the process already links — no external crate needed.
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(2, handler);
            signal(15, handler);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    use super::*;
    pub static SIGNALED: AtomicBool = AtomicBool::new(false);
    pub fn install() {}
}

fn parse_config(argv: impl Iterator<Item = String>) -> Result<(ServerConfig, LogLevel), String> {
    let mut config = ServerConfig::default();
    let mut level = LogLevel::Info;
    let mut args: Box<dyn Iterator<Item = String>> = Box::new(argv);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => {
                let v = take_value(&mut args, "--port")?;
                config.port = v.parse().map_err(|_| format!("bad --port {v:?}"))?;
            }
            "--cache-dir" => {
                config.cache_dir = Some(PathBuf::from(take_value(&mut args, "--cache-dir")?));
            }
            "--no-cache" => config.cache_dir = None,
            "--workers" => {
                let v = take_value(&mut args, "--workers")?;
                config.workers = v.parse().map_err(|_| format!("bad --workers {v:?}"))?;
            }
            "--queue-cap" => {
                let v = take_value(&mut args, "--queue-cap")?;
                config.queue_cap = v.parse().map_err(|_| format!("bad --queue-cap {v:?}"))?;
            }
            "--shard" => {
                config.shard = ShardSpec::parse(&take_value(&mut args, "--shard")?)?;
            }
            "--jobs" => {
                let v = take_value(&mut args, "--jobs")?;
                config.jobs_per_request = v.parse().map_err(|_| format!("bad --jobs {v:?}"))?;
            }
            "--est-job-ms" => {
                let v = take_value(&mut args, "--est-job-ms")?;
                config.est_job_ms = v.parse().map_err(|_| format!("bad --est-job-ms {v:?}"))?;
            }
            "--peers" => {
                config.peers = take_value(&mut args, "--peers")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--idle-timeout-ms" => {
                let v = take_value(&mut args, "--idle-timeout-ms")?;
                config.idle_timeout_ms = v
                    .parse()
                    .map_err(|_| format!("bad --idle-timeout-ms {v:?}"))?;
            }
            "--max-conn-requests" => {
                let v = take_value(&mut args, "--max-conn-requests")?;
                config.max_conn_requests = v
                    .parse()
                    .map_err(|_| format!("bad --max-conn-requests {v:?}"))?;
            }
            "--pipeline-depth" => {
                let v = take_value(&mut args, "--pipeline-depth")?;
                config.pipeline_depth = v
                    .parse()
                    .map_err(|_| format!("bad --pipeline-depth {v:?}"))?;
            }
            "--peer-timeout-ms" => {
                let v = take_value(&mut args, "--peer-timeout-ms")?;
                config.peer_timeout_ms = v
                    .parse()
                    .map_err(|_| format!("bad --peer-timeout-ms {v:?}"))?;
            }
            "--slow-ms" => {
                let v = take_value(&mut args, "--slow-ms")?;
                config.slow_ms = Some(v.parse().map_err(|_| format!("bad --slow-ms {v:?}"))?);
            }
            "--log-level" => {
                level = parse_log_level(&take_value(&mut args, "--log-level")?)?;
            }
            other => return Err(unknown_argument(other)),
        }
    }
    Ok((config, level))
}

fn main() {
    let (config, level) = match parse_config(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gsd: {e}");
            std::process::exit(2);
        }
    };
    glog::set_level(level);
    sig::install();
    let shard = config.shard;
    let handle = match Server::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("gsd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("gsd listening on {} shard {}", handle.addr(), shard.tag());
    std::io::stdout().flush().ok();
    while !sig::SIGNALED.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
    }
    glog::info("daemon.draining", &[]);
    handle.shutdown();
    glog::info("daemon.drained", &[]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(ServerConfig, LogLevel), String> {
        parse_config(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let err = parse(&["--port", "0", "--frobnicate"]).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn known_flags_parse() {
        let (c, level) = parse(&[
            "--port",
            "8123",
            "--no-cache",
            "--workers",
            "3",
            "--queue-cap",
            "7",
            "--shard",
            "1/4",
            "--jobs",
            "2",
            "--est-job-ms",
            "50",
            "--peers",
            "127.0.0.1:7001, 127.0.0.1:7002",
            "--idle-timeout-ms",
            "1500",
            "--max-conn-requests",
            "64",
            "--pipeline-depth",
            "4",
            "--peer-timeout-ms",
            "250",
            "--slow-ms",
            "900",
            "--log-level",
            "debug",
        ])
        .unwrap();
        assert_eq!(c.port, 8123);
        assert_eq!(c.cache_dir, None);
        assert_eq!(c.workers, 3);
        assert_eq!(c.queue_cap, 7);
        assert_eq!(c.shard.tag(), "1/4");
        assert_eq!(c.jobs_per_request, 2);
        assert_eq!(c.est_job_ms, 50);
        assert_eq!(c.peers, vec!["127.0.0.1:7001", "127.0.0.1:7002"]);
        assert_eq!(c.idle_timeout_ms, 1500);
        assert_eq!(c.max_conn_requests, 64);
        assert_eq!(c.pipeline_depth, 4);
        assert_eq!(c.peer_timeout_ms, 250);
        assert_eq!(c.slow_ms, Some(900));
        assert_eq!(level, LogLevel::Debug);
        // The job hold is a test hook set through `ServerConfig`, not a flag.
        let err = parse(&["--hold-ms", "5"]).unwrap_err();
        assert!(err.contains("--hold-ms"), "{err}");
    }

    #[test]
    fn telemetry_defaults_are_quietly_sane() {
        let (c, level) = parse(&[]).unwrap();
        assert_eq!(c.peer_timeout_ms, 2_000);
        assert_eq!(c.slow_ms, None);
        assert_eq!(level, LogLevel::Info);
        assert!(parse(&["--log-level", "shouty"]).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--port"]).is_err());
    }
}
