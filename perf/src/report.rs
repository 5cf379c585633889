//! Turning batches into metrics: the one-line result of a single-workload
//! run, the per-round samples of a full run, and the paired comparison of
//! two full runs.

use crate::bench_config::BenchConfig;
use crate::child::Batch;
use crate::layers;
use crate::stats::{self, median, quartiles, verdict, Verdict};
use guardspec_harness::{json, Json};
use std::collections::BTreeMap;

/// Every end-to-end metric, with its unit.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("cache_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

fn median_or_nan(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        median(xs)
    }
}

/// End-to-end metrics over a set of batches of one workload.  Set-up
/// time, peak RSS and cache size are medians (over children, children and
/// reps); the sweep time is the fastest rep and the throughput that rep's
/// — the host's speed drifts by up to 2× for seconds at a time, and the
/// best of a run's reps is what stays steady across runs.
pub fn e2e(batches: &[Batch]) -> Vec<(&'static str, &'static str, f64)> {
    let setup: Vec<f64> = batches.iter().filter_map(|b| b.setup_s).collect();
    let rss: Vec<f64> = batches.iter().filter_map(|b| b.peak_rss_mb).collect();
    let reps: Vec<_> = batches.iter().flat_map(|b| &b.reps).collect();
    let best = reps.iter().min_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let cache: Vec<f64> = reps.iter().map(|r| r.cache_bytes as f64 / 1e6).collect();
    let values = [
        median_or_nan(&setup),
        best.map_or(f64::NAN, |r| r.wall_s),
        best.map_or(f64::NAN, |r| r.minst / r.wall_s),
        median_or_nan(&cache),
        median_or_nan(&rss),
    ];
    E2E.iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// Per-layer metrics: each the median over the traced batches.
pub fn per_layer(batches: &[Batch]) -> Vec<(&'static str, &'static str, f64)> {
    layers::METRICS
        .iter()
        .map(|&(name, unit)| {
            let xs: Vec<f64> = batches
                .iter()
                .flat_map(|b| b.layers.iter().filter(|(k, _)| k == name).map(|(_, v)| *v))
                .collect();
            (name, unit, median_or_nan(&xs))
        })
        .collect()
}

/// Whether every offline rep of every batch produced the same artifact.
pub fn digests_agree(batches: &[Batch]) -> bool {
    let mut all = batches.iter().flat_map(|b| &b.digests);
    match all.next() {
        Some(first) => all.all(|d| d == first),
        None => true,
    }
}

/// The single-workload result line: correctness, operation counts and
/// either the end-to-end or the per-layer metrics.
pub fn result_line(batches: &[Batch], traced: bool) -> Json {
    let attempted: u64 = batches.iter().map(|b| b.attempted).sum();
    let failed: u64 = batches.iter().map(|b| b.failed).sum();
    let metrics = if traced {
        per_layer(batches)
    } else {
        e2e(batches)
    };
    let complete = metrics.iter().all(|(_, _, v)| v.is_finite());
    Json::obj(vec![
        (
            "correct",
            Json::Bool(failed == 0 && attempted > 0 && complete && digests_agree(batches)),
        ),
        ("attempted", Json::U64(attempted.max(1))),
        ("failed", Json::U64(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, unit, v)| {
                        let value =
                            Json::obj(vec![("value", Json::F64(v)), ("unit", Json::str(unit))]);
                        (name.to_string(), value)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A full run: per workload and metric, one sample per round.
#[derive(Clone, Debug, Default)]
pub struct Run {
    pub commit: String,
    pub seed: u64,
    pub nproc: u64,
    pub rounds: u64,
    pub attempted: u64,
    pub failed: u64,
    pub samples: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

impl Run {
    /// Fold one round's batch of `workload` into the run.
    pub fn add(&mut self, workload: &str, batch: &Batch, traced: bool) {
        self.attempted += batch.attempted;
        self.failed += batch.failed;
        let one = std::slice::from_ref(batch);
        let metrics = if traced { per_layer(one) } else { e2e(one) };
        let w = self.samples.entry(workload.to_string()).or_default();
        for (name, _, v) in metrics {
            w.entry(name.to_string()).or_default().push(v);
        }
    }

    pub fn to_json(&self) -> Json {
        let workloads = self
            .samples
            .iter()
            .map(|(w, metrics)| {
                let m = metrics
                    .iter()
                    .map(|(name, xs)| {
                        let finite: Vec<f64> =
                            xs.iter().copied().filter(|x| x.is_finite()).collect();
                        let entry = Json::obj(vec![
                            ("median", Json::F64(median_or_nan(&finite))),
                            (
                                "samples",
                                Json::Arr(xs.iter().map(|&x| Json::F64(x)).collect()),
                            ),
                        ]);
                        (name.clone(), entry)
                    })
                    .collect();
                (w.clone(), Json::Obj(m))
            })
            .collect();
        Json::obj(vec![
            ("commit", Json::str(&self.commit)),
            ("seed", Json::U64(self.seed)),
            ("nproc", Json::U64(self.nproc)),
            ("rounds", Json::U64(self.rounds)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("workloads", Json::Obj(workloads)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Run, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("run: no {k:?}"))
        };
        let Some(Json::Obj(workloads)) = j.get("workloads") else {
            return Err("run: no workloads object".into());
        };
        let mut samples = BTreeMap::new();
        for (w, metrics) in workloads {
            let Json::Obj(metrics) = metrics else {
                return Err(format!("run: {w} is not an object"));
            };
            let mut m = BTreeMap::new();
            for (name, entry) in metrics {
                let xs = entry
                    .get("samples")
                    .and_then(Json::as_arr)
                    .ok_or(format!("run: {w}/{name} has no samples"))?
                    .iter()
                    .map(|x| x.as_f64().unwrap_or(f64::NAN))
                    .collect();
                m.insert(name.clone(), xs);
            }
            samples.insert(w.clone(), m);
        }
        Ok(Run {
            commit: j
                .get("commit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            seed: num("seed")?,
            nproc: num("nproc")?,
            rounds: num("rounds")?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            samples,
        })
    }

    /// Read a run file: one run object, or a trajectory (its last run).
    pub fn read(path: &str) -> Result<Run, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let j = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        match &j {
            Json::Arr(runs) => Run::from_json(runs.last().ok_or(format!("{path}: empty"))?),
            one => Run::from_json(one),
        }
    }

    /// A table of medians and quartiles per (workload, metric).
    pub fn table(&self, cfg: &BenchConfig) -> String {
        let mut out = format!(
            "{:<24} {:<32} {:<8} {:>12} {:>12} {:>12} {:>3}\n",
            "workload", "metric", "unit", "median", "q1", "q3", "n"
        );
        for (w, metrics) in &self.samples {
            for (name, xs) in metrics {
                let finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
                let unit = cfg.metric(name).map_or("?", |m| m.unit.as_str());
                let (q1, q3) = if finite.is_empty() {
                    (f64::NAN, f64::NAN)
                } else {
                    quartiles(&finite)
                };
                out += &format!(
                    "{w:<24} {name:<32} {unit:<8} {:>12.6} {q1:>12.6} {q3:>12.6} {:>3}\n",
                    median_or_nan(&finite),
                    finite.len()
                );
            }
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        out += &format!(
            "{} of {} operations failed (error rate {rate})\n",
            self.failed, self.attempted
        );
        out
    }
}

/// Compare two full runs metric by metric with the pair rule and the
/// bounds from `BENCHMARK.json`.  Returns the report and whether any
/// metric regressed.
pub fn compare(base: &Run, change: &Run, cfg: &BenchConfig) -> (String, bool) {
    let mut out = format!(
        "{:<24} {:<32} {:>12} {:>12} {:>6}  verdict\n",
        "workload", "metric", "base", "change", "wins"
    );
    let mut regressed = false;
    for (w, metrics) in &base.samples {
        for (name, b) in metrics {
            let (Some(c), Some(def)) = (
                change.samples.get(w).and_then(|m| m.get(name)),
                cfg.metric(name),
            ) else {
                continue;
            };
            let clean = |xs: &[f64]| {
                xs.iter()
                    .copied()
                    .filter(|x| x.is_finite())
                    .collect::<Vec<_>>()
            };
            let (b, c) = (clean(b), clean(c));
            if b.is_empty() || c.is_empty() {
                out += &format!("{w:<24} {name:<32} no samples\n");
                continue;
            }
            // Per-layer metrics carry no bound: any move past the base's
            // own spread is reported, never gated.
            let bound = def.bound.unwrap_or(f64::INFINITY);
            let v = verdict(&b, &c, def.better, bound);
            regressed |= v == Verdict::Regressed;
            let (wins, pairs) = stats::pair_wins(&b, &c, def.better);
            out += &format!(
                "{w:<24} {name:<32} {:>12.6} {:>12.6} {:>3}/{:<2}  {}\n",
                median(&b),
                median(&c),
                wins,
                pairs,
                v.label()
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Rep;

    fn batch(setup: f64, walls: &[f64]) -> Batch {
        Batch {
            workload: "w".into(),
            setup_s: Some(setup),
            peak_rss_mb: Some(100.0),
            attempted: walls.len() as u64,
            reps: walls
                .iter()
                .map(|&w| Rep {
                    wall_s: w,
                    minst: 10.0,
                    cache_bytes: 2_000_000,
                })
                .collect(),
            digests: vec!["d".into(); walls.len()],
            ..Batch::default()
        }
    }

    #[test]
    fn e2e_takes_the_best_rep_and_medians_of_the_rest() {
        let m = e2e(&[batch(0.1, &[4.0, 3.0]), batch(0.3, &[2.0]), batch(0.2, &[])]);
        let get = |n: &str| m.iter().find(|(k, _, _)| *k == n).unwrap().2;
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("sweep_s"), 2.0);
        assert_eq!(get("sim_minst_per_s"), 5.0);
        assert_eq!(get("cache_mb"), 2.0);
        assert_eq!(get("peak_rss_mb"), 100.0);
    }

    #[test]
    fn result_line_is_incorrect_on_failures_or_disagreement() {
        let ok = vec![batch(0.1, &[1.0]), batch(0.1, &[1.1])];
        let line = result_line(&ok, false);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let mut bad = ok.clone();
        bad[1].digests = vec!["other".into()];
        assert_eq!(
            result_line(&bad, false).get("correct"),
            Some(&Json::Bool(false))
        );
        let mut failed = ok;
        failed.push(Batch::lost("w", 2, "killed".into()));
        let line = result_line(&failed, false);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(2));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn runs_roundtrip_and_compare_against_themselves_as_unchanged() {
        let mut run = Run {
            commit: "abc".into(),
            seed: 1,
            nproc: 2,
            rounds: 10,
            ..Run::default()
        };
        for r in 0..10 {
            run.add(
                "w",
                &batch(0.1 + r as f64 * 1e-3, &[1.0 + r as f64 * 1e-3]),
                false,
            );
        }
        let back = Run::from_json(&json::parse(&run.to_json().to_compact()).unwrap()).unwrap();
        assert_eq!(back.samples, run.samples);
        let cfg = BenchConfig::load();
        let (report, regressed) = compare(&run, &back, &cfg);
        assert!(!regressed, "{report}");
        assert!(report.contains("unchanged"), "{report}");
        assert!(!report.contains("improved"), "{report}");
    }
}
