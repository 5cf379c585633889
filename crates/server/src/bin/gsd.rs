//! `gsd` — the guardspec simulation daemon.
//!
//! ```text
//! gsd [--port P] [--cache-dir DIR] [--workers N] [--shard N/M]
//!     [--peers HOST:PORT,...] [--slow-ms MS]
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
            "--workers" => {
                let v = take_value(&mut args, "--workers")?;
                config.workers = v.parse().map_err(|_| format!("bad --workers {v:?}"))?;
            }
            "--shard" => {
                config.shard = ShardSpec::parse(&take_value(&mut args, "--shard")?)?;
            }
            "--peers" => {
                config.peers = take_value(&mut args, "--peers")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
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
            "--cache-dir",
            "/tmp/gsd-cache",
            "--workers",
            "3",
            "--shard",
            "1/4",
            "--peers",
            "127.0.0.1:7001, 127.0.0.1:7002",
            "--slow-ms",
            "900",
            "--log-level",
            "debug",
        ])
        .unwrap();
        assert_eq!(c.port, 8123);
        assert_eq!(c.cache_dir, Some(PathBuf::from("/tmp/gsd-cache")));
        assert_eq!(c.workers, 3);
        assert_eq!(c.shard.tag(), "1/4");
        assert_eq!(c.peers, vec!["127.0.0.1:7001", "127.0.0.1:7002"]);
        assert_eq!(c.slow_ms, Some(900));
        assert_eq!(level, LogLevel::Debug);
        // Settings no caller passes are `ServerConfig` fields (or
        // constants), not flags: each is rejected by name.
        for flag in [
            "--hold-ms",
            "--no-cache",
            "--queue-cap",
            "--jobs",
            "--est-job-ms",
            "--peer-timeout-ms",
            "--idle-timeout-ms",
            "--max-conn-requests",
            "--pipeline-depth",
        ] {
            let err = parse(&[flag, "5"]).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
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
