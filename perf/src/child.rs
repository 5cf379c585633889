//! The parent/child protocol.
//!
//! Every measurement runs in a child process (`perf --run <workload>`) that
//! sets up, runs its batch of reps, checks them and prints one JSON line —
//! a [`Batch`] — as the last line of its standard output.  The parent gives
//! each child a wall budget; a child that overruns it is killed and its
//! whole batch counts as failed, so a hang anywhere in the program becomes
//! failed operations instead of a stuck benchmark.

use crate::workloads::Rep;
use guardspec_harness::{json, Json};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Wall budget of one child.
pub const CHILD_BUDGET: Duration = Duration::from_secs(30);

/// What one child measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Batch {
    pub workload: String,
    /// Seconds from process start to the first timed operation; `None`
    /// when the child never got that far.
    pub setup_s: Option<f64>,
    /// The child's peak resident set (`VmHWM`), in MB.
    pub peak_rss_mb: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Successful reps only.
    pub reps: Vec<Rep>,
    /// Stable artifact digests of the offline reps.
    pub digests: Vec<String>,
    pub errors: Vec<String>,
    /// Per-layer metrics (traced children only), by name.
    pub layers: Vec<(String, f64)>,
}

impl Batch {
    /// A batch that produced nothing: all `ops` attempted operations
    /// failed for `why`.
    pub fn lost(workload: &str, ops: u64, why: String) -> Batch {
        Batch {
            workload: workload.to_string(),
            attempted: ops,
            failed: ops,
            errors: vec![why],
            ..Batch::default()
        }
    }

    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::F64);
        let strs = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("setup_s", opt(self.setup_s)),
            ("peak_rss_mb", opt(self.peak_rss_mb)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            (
                "reps",
                Json::Arr(
                    self.reps
                        .iter()
                        .map(|r| {
                            Json::Arr(vec![
                                Json::F64(r.wall_s),
                                Json::F64(r.minst),
                                Json::U64(r.cache_bytes),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("digests", strs(&self.digests)),
            ("errors", strs(&self.errors)),
            (
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::F64(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Batch, String> {
        let arr = |k: &str| {
            j.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("batch: no {k:?} list"))
        };
        let strs = |k: &str| -> Result<Vec<String>, String> {
            arr(k)?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or("batch: non-string".into())
                })
                .collect()
        };
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("batch: no {k:?}"))
        };
        let reps = arr("reps")?
            .iter()
            .map(|r| {
                let f = |i: usize| r.as_arr().and_then(|a| a.get(i)).and_then(Json::as_f64);
                Some(Rep {
                    wall_s: f(0)?,
                    minst: f(1)?,
                    cache_bytes: r.as_arr()?.get(2)?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("batch: malformed rep")?;
        let layers = match j.get("layers") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<Vec<_>>>()
                .ok_or("batch: malformed layer value")?,
            _ => return Err("batch: no layers object".into()),
        };
        Ok(Batch {
            workload: j
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("batch: no workload")?
                .to_string(),
            setup_s: j.get("setup_s").and_then(Json::as_f64),
            peak_rss_mb: j.get("peak_rss_mb").and_then(Json::as_f64),
            attempted: num("attempted")?,
            failed: num("failed")?,
            reps,
            digests: strs("digests")?,
            errors: strs("errors")?,
            layers,
        })
    }
}

/// One child to run.
#[derive(Clone, Debug)]
pub struct ChildSpec {
    pub workload: String,
    pub seed: u64,
    pub reps: usize,
    pub traced: bool,
    /// Where a traced child writes its Chrome trace.
    pub trace_out: Option<PathBuf>,
    /// The child's private scratch directory (removed afterwards).
    pub scratch: PathBuf,
}

impl ChildSpec {
    /// The command line that runs this child from `exe`.
    pub fn command(&self, exe: &Path) -> Command {
        let mut cmd = Command::new(exe);
        cmd.arg("--run")
            .arg(&self.workload)
            .arg("--seed")
            .arg(self.seed.to_string())
            .arg("--reps")
            .arg(self.reps.to_string())
            .arg("--scratch")
            .arg(&self.scratch);
        if self.traced {
            cmd.arg("--trace").arg("1");
        }
        if let Some(p) = &self.trace_out {
            cmd.arg("--trace-out").arg(p);
        }
        cmd
    }
}

/// Run one child to completion or to its budget, then remove its scratch
/// directory.  `ops` is what the batch counts as attempted (and failed)
/// if the child yields no batch.
pub fn run_child(exe: &Path, spec: &ChildSpec, ops: u64, budget: Duration) -> Batch {
    let batch = run_command(spec.command(exe), budget, &spec.workload, ops);
    let _ = std::fs::remove_dir_all(&spec.scratch);
    batch
}

/// Run `cmd`, killing it once `budget` has passed, and read the [`Batch`]
/// on the last line of its standard output.
fn run_command(mut cmd: Command, budget: Duration, workload: &str, ops: u64) -> Batch {
    cmd.stdin(Stdio::null()).stdout(Stdio::piped());
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return Batch::lost(workload, ops, format!("spawn failed: {e}")),
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let deadline = Instant::now() + budget;
    let exited = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let out = reader.join().unwrap_or_default();
    let Some(status) = exited else {
        return Batch::lost(
            workload,
            ops,
            format!("killed after its {:.0} s budget", budget.as_secs_f64()),
        );
    };
    let last = out
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    match json::parse(last).and_then(|j| Batch::from_json(&j)) {
        Ok(b) => b,
        Err(e) => Batch::lost(
            workload,
            ops,
            format!("child exited with {status}, no batch: {e}"),
        ),
    }
}

/// This process's peak resident set in MB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_that_never_exits_is_killed_and_counted_failed() {
        let mut cmd = Command::new("sleep");
        cmd.arg("60");
        let t0 = Instant::now();
        let b = run_command(cmd, Duration::from_millis(300), "hang", 3);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the kill was not prompt"
        );
        assert_eq!((b.attempted, b.failed), (3, 3));
        assert!(b.reps.is_empty() && b.setup_s.is_none());
        assert!(b.errors[0].contains("killed"), "{:?}", b.errors);
    }

    #[test]
    fn a_child_without_a_batch_line_is_counted_failed() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo not json; exit 3"]);
        let b = run_command(cmd, Duration::from_secs(10), "w", 2);
        assert_eq!((b.attempted, b.failed), (2, 2));
        assert!(b.errors[0].contains("no batch"), "{:?}", b.errors);
    }

    #[test]
    fn batches_roundtrip_through_the_child_line() {
        let b = Batch {
            workload: "w".into(),
            setup_s: Some(0.25),
            peak_rss_mb: Some(12.5),
            attempted: 3,
            failed: 1,
            reps: vec![Rep {
                wall_s: 1.5,
                minst: 2.25,
                cache_bytes: 4096,
            }],
            digests: vec!["ab".into()],
            errors: vec!["one failed".into()],
            layers: vec![("sim.simulate_s".into(), 0.125)],
        };
        let line = b.to_json().to_compact();
        let mut cmd = Command::new("sh");
        cmd.args(["-c", &format!("echo setup chatter; echo '{line}'")]);
        assert_eq!(run_command(cmd, Duration::from_secs(10), "w", 3), b);
    }
}
