//! Shared command-line parsing for the bench binaries.
//!
//! Every binary accepts the same flags:
//!
//! * `--scale test|small|paper` — workload size preset (default `small`),
//! * `--jobs N` — worker threads (`0`/absent = one per core; `1` = the
//!   deterministic serial reference schedule),
//! * `--json <path>` — additionally write the run's machine-readable
//!   artifact to `<path>`,
//! * `--stable-json <path>` — additionally write the run's *stable*
//!   payload (no timings or machine-local meta) to `<path>`; this is the
//!   byte-comparable form the simulation server also returns,
//! * `--observe` — run cycle accounting and per-branch-site attribution in
//!   the simulator and attach the buckets/top-sites to the artifact.
//! * `--trace-out <path>` — write a Chrome trace-event (Perfetto-loadable)
//!   span timeline of the run's stages to `<path>` (implies span
//!   recording).
//! * `--sample` — SMARTS-style interval sampling: simulate short detailed
//!   windows, functionally warm the predictors/caches between them, and
//!   attach a per-cell `sampling` estimate (mean IPC ± 95% CI) to the
//!   artifact.
//! * `--sample-detail N` / `--sample-warm N` / `--sample-interval N` —
//!   override the measured/warm-up/total entries per sampling interval
//!   (each implies `--sample`).
//! * `--log-level off|error|warn|info|debug` — structured-log verbosity
//!   (one JSON object per line on **stderr**; default `warn`).  Parsing
//!   this flag also sets the process-global [`crate::log`] level, so
//!   every binary gets leveled logging for free.
//!
//! Bad values print a one-line diagnostic to **stderr** and exit with
//! status 2 — never a panic with a backtrace.  Unknown arguments are
//! **rejected** the same way (the offending flag named in the diagnostic):
//! a typo like `--job 4` silently running the default configuration was a
//! footgun.  Binaries with extra flags parse them through
//! [`HarnessArgs::try_parse_with`], which consults a binary-specific hook
//! before rejecting.

use guardspec_sim::SampleParams;
use guardspec_workloads::Scale;
use std::path::PathBuf;

/// Parsed common flags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HarnessArgs {
    pub scale: Scale,
    /// `0` means auto (one worker per available core).
    pub jobs: usize,
    /// Where to write the JSON artifact, if requested.
    pub json: Option<PathBuf>,
    /// Where to write the stable (deterministic) payload, if requested.
    pub stable_json: Option<PathBuf>,
    /// Enable simulator cycle accounting + per-site attribution.
    pub observe: bool,
    /// Where to write the Chrome trace-event timeline, if requested.
    pub trace_out: Option<PathBuf>,
    /// Enable SMARTS-style interval sampling.
    pub sample: bool,
    /// Measured entries per sampling window.
    pub sample_detail: u64,
    /// Detailed warm-up entries preceding each measured region.
    pub sample_warm: u64,
    /// Total entries per sampling interval (gap + warm-up + detail).
    pub sample_interval: u64,
    /// Structured-log verbosity (stderr-only JSON lines).
    pub log_level: crate::log::LogLevel,
}

impl Default for HarnessArgs {
    fn default() -> HarnessArgs {
        HarnessArgs {
            scale: Scale::Small,
            jobs: 0,
            json: None,
            stable_json: None,
            observe: false,
            trace_out: None,
            sample: false,
            sample_detail: SampleParams::default().detail,
            sample_warm: SampleParams::default().warmup,
            sample_interval: SampleParams::default().interval,
            log_level: crate::log::LogLevel::Warn,
        }
    }
}

/// Parse a `--scale` value.
pub fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "test" => Ok(Scale::Test),
        "small" => Ok(Scale::Small),
        "paper" => Ok(Scale::Paper),
        other => Err(format!("bad --scale {other:?} (want test|small|paper)")),
    }
}

/// Parse a `--jobs` value.
pub fn parse_jobs(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("bad --jobs {s:?} (want a non-negative integer)"))
}

/// Parse a `u64` count for a `--sample-*` flag.  Out-of-range combinations
/// (zero detail, interval shorter than a window) are normalized by
/// [`SampleParams::normalized`] rather than rejected.
pub fn parse_count(s: &str, flag: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| format!("bad {flag} {s:?} (want a non-negative integer)"))
}

/// The standard unknown-argument diagnostic (names the offending flag).
/// Every binary — bench, `gsd`, `gsc`, `fuzz` — routes rejection through
/// this so the message shape stays greppable.
pub fn unknown_argument(arg: &str) -> String {
    format!("unknown argument {arg:?}")
}

/// Pull the value following a flag, or explain which flag wanted one.
pub fn take_value(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

impl HarnessArgs {
    /// The sampling parameters, if `--sample` (or any `--sample-*`
    /// override) was given.
    pub fn sample_params(&self) -> Option<SampleParams> {
        self.sample.then_some(SampleParams {
            detail: self.sample_detail,
            warmup: self.sample_warm,
            interval: self.sample_interval,
        })
    }

    /// Parse the process arguments; on error print to stderr and exit(2).
    pub fn parse() -> HarnessArgs {
        HarnessArgs::parse_with(|_, _| Ok(false))
    }

    /// [`HarnessArgs::parse`] with a binary-specific extension hook (see
    /// [`HarnessArgs::try_parse_with`]); errors print to stderr + exit(2).
    pub fn parse_with(
        extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> HarnessArgs {
        match HarnessArgs::try_parse_with(std::env::args().skip(1), extra) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: [--scale test|small|paper] [--jobs N] [--json <path>] \
                     [--stable-json <path>] [--observe] [--trace-out <path>] \
                     [--sample] [--sample-detail N] [--sample-warm N] \
                     [--sample-interval N] [--log-level off|error|warn|info|debug]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Testable core of [`HarnessArgs::parse`].  Unknown arguments are
    /// errors naming the offending flag.
    pub fn try_parse(args: impl Iterator<Item = String>) -> Result<HarnessArgs, String> {
        HarnessArgs::try_parse_with(args, |_, _| Ok(false))
    }

    /// [`HarnessArgs::try_parse`] with an extension hook: `extra` sees every
    /// argument the common parser does not recognise (plus the argument
    /// iterator, to consume a value) and returns `Ok(true)` if it handled
    /// it.  Unhandled arguments fail with [`unknown_argument`].
    pub fn try_parse_with(
        args: impl Iterator<Item = String>,
        mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Result<HarnessArgs, String> {
        let mut out = HarnessArgs::default();
        let mut args: Box<dyn Iterator<Item = String>> = Box::new(args);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => out.scale = parse_scale(&take_value(&mut args, "--scale")?)?,
                "--jobs" => out.jobs = parse_jobs(&take_value(&mut args, "--jobs")?)?,
                "--json" => out.json = Some(PathBuf::from(take_value(&mut args, "--json")?)),
                "--stable-json" => {
                    out.stable_json = Some(PathBuf::from(take_value(&mut args, "--stable-json")?))
                }
                "--observe" => out.observe = true,
                "--sample" => out.sample = true,
                "--sample-detail" => {
                    out.sample = true;
                    out.sample_detail = parse_count(
                        &take_value(&mut args, "--sample-detail")?,
                        "--sample-detail",
                    )?;
                }
                "--sample-warm" => {
                    out.sample = true;
                    out.sample_warm =
                        parse_count(&take_value(&mut args, "--sample-warm")?, "--sample-warm")?;
                }
                "--sample-interval" => {
                    out.sample = true;
                    out.sample_interval = parse_count(
                        &take_value(&mut args, "--sample-interval")?,
                        "--sample-interval",
                    )?;
                }
                "--trace-out" => {
                    out.trace_out = Some(PathBuf::from(take_value(&mut args, "--trace-out")?))
                }
                "--log-level" => {
                    out.log_level =
                        crate::log::parse_log_level(&take_value(&mut args, "--log-level")?)?;
                    crate::log::set_level(out.log_level);
                }
                other => {
                    if !extra(other, &mut args)? {
                        return Err(unknown_argument(other));
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        assert_eq!(parse(&[]).unwrap(), HarnessArgs::default());
    }

    #[test]
    fn all_flags() {
        let a = parse(&["--scale", "test", "--jobs", "4", "--json", "out.json"]).unwrap();
        assert_eq!(a.scale, Scale::Test);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("out.json")));
    }

    #[test]
    fn bad_values_are_errors_not_panics() {
        assert!(parse(&["--scale", "huge"])
            .unwrap_err()
            .contains("bad --scale"));
        assert!(parse(&["--jobs", "many"])
            .unwrap_err()
            .contains("bad --jobs"));
        assert!(parse(&["--json"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--scale"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn unknown_args_rejected_naming_the_flag() {
        // The historical behaviour silently ignored unknown flags; now the
        // offending argument is named and the parse fails (callers exit 2).
        let err = parse(&["--verbose", "--scale", "paper"]).unwrap_err();
        assert!(err.contains("unknown argument"), "got {err:?}");
        assert!(err.contains("--verbose"), "got {err:?}");
        // A typo'd common flag is caught too, not absorbed as a value.
        assert!(parse(&["--job", "4"]).unwrap_err().contains("--job"));
    }

    #[test]
    fn extension_hook_consumes_extra_flags() {
        let mut seen = Vec::new();
        let a = HarnessArgs::try_parse_with(
            ["--check-trace", "t.json", "--scale", "test"]
                .iter()
                .map(|s| s.to_string()),
            |arg, args| {
                if arg == "--check-trace" {
                    seen.push(take_value(args, "--check-trace")?);
                    Ok(true)
                } else {
                    Ok(false)
                }
            },
        )
        .unwrap();
        assert_eq!(a.scale, Scale::Test);
        assert_eq!(seen, vec!["t.json".to_string()]);
        // The hook declining still rejects.
        let err =
            HarnessArgs::try_parse_with(["--mystery"].iter().map(|s| s.to_string()), |_, _| {
                Ok(false)
            })
            .unwrap_err();
        assert!(err.contains("--mystery"));
    }

    #[test]
    fn observe_and_trace_out_flags() {
        let d = parse(&[]).unwrap();
        assert!(!d.observe);
        assert!(d.trace_out.is_none());
        let a = parse(&["--observe", "--trace-out", "t.json"]).unwrap();
        assert!(a.observe);
        assert_eq!(a.trace_out.as_deref(), Some(std::path::Path::new("t.json")));
        assert!(parse(&["--trace-out"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn stable_json_flag() {
        assert!(parse(&[]).unwrap().stable_json.is_none());
        let a = parse(&["--stable-json", "s.json"]).unwrap();
        assert_eq!(
            a.stable_json.as_deref(),
            Some(std::path::Path::new("s.json"))
        );
        assert!(parse(&["--stable-json"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn no_compile_flag() {
        // The interpreted engine is test-only, so `--no-compile` is an
        // unknown argument like any other.
        let err = parse(&["--no-compile", "--scale", "test"]).unwrap_err();
        assert_eq!(err, unknown_argument("--no-compile"));
    }

    #[test]
    fn sample_flags() {
        let d = parse(&[]).unwrap();
        assert!(!d.sample);
        assert_eq!(d.sample_params(), None);
        // Bare --sample uses the library defaults.
        let a = parse(&["--sample"]).unwrap();
        assert_eq!(a.sample_params(), Some(SampleParams::default()));
        // Each override implies --sample and sets its field.
        let a = parse(&["--sample-detail", "64"]).unwrap();
        assert_eq!(a.sample_params().unwrap().detail, 64);
        let a = parse(&["--sample-warm", "0"]).unwrap();
        assert_eq!(a.sample_params().unwrap().warmup, 0);
        let a = parse(&[
            "--sample",
            "--sample-detail",
            "100",
            "--sample-warm",
            "50",
            "--sample-interval",
            "1000",
        ])
        .unwrap();
        assert_eq!(
            a.sample_params(),
            Some(SampleParams {
                detail: 100,
                warmup: 50,
                interval: 1000,
            })
        );
        // Bad values are clean errors naming the flag.
        assert!(parse(&["--sample-detail", "x"])
            .unwrap_err()
            .contains("--sample-detail"));
        assert!(parse(&["--sample-interval"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn log_level_flag() {
        assert_eq!(parse(&[]).unwrap().log_level, crate::log::LogLevel::Warn);
        let a = parse(&["--log-level", "debug"]).unwrap();
        assert_eq!(a.log_level, crate::log::LogLevel::Debug);
        assert!(parse(&["--log-level", "loud"])
            .unwrap_err()
            .contains("bad --log-level"));
        // Parsing set the process-global level; restore the default so
        // other tests in this binary see the usual threshold.
        crate::log::set_level(crate::log::LogLevel::Warn);
    }
}
