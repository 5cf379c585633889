//! The benchmark's own description, `BENCHMARK.json` at the repository
//! root, compiled in so the comparison bounds and the emitted metric
//! names can never drift from the file.

use crate::stats::Better;
use guardspec_harness::{json, Json};

/// The file's bytes, fixed at build time.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric entry (`end_to_end` or `per_layer`).
#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed worsening as a share of the base median (end-to-end only).
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct BenchConfig {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl BenchConfig {
    pub fn load() -> BenchConfig {
        BenchConfig::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<BenchConfig, String> {
        let j = json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            j.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no {key:?} list"))
        };
        let field = |e: &Json, k: &str| -> Result<String, String> {
            e.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {k:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|e| {
                    Ok(MetricDef {
                        name: field(e, "name")?,
                        unit: field(e, "unit")?,
                        better: Better::parse(&field(e, "better")?)?,
                        bound: e.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchConfig {
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The definition of a metric by name, from either list.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// A name as the benchmark contract allows it: starts with a letter or a
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn workload_names() -> Vec<String> {
        let j = json::parse(BENCHMARK_JSON).unwrap();
        j.get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_is_within_its_limits() {
        let cfg = BenchConfig::load();
        let workloads = workload_names();
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=16).contains(&cfg.end_to_end.len()));
        assert!((1..=128).contains(&cfg.per_layer.len()));
        let mut seen = BTreeSet::new();
        for name in workloads
            .iter()
            .chain(cfg.end_to_end.iter().map(|m| &m.name))
            .chain(cfg.per_layer.iter().map(|m| &m.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "{name:?} used twice");
        }
        for m in &cfg.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = cfg.metric("setup_s").expect("setup_s is listed");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let largest = cfg
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }

    #[test]
    fn listed_workloads_are_the_ones_the_binary_runs() {
        let names = workload_names();
        let listed: BTreeSet<&str> = names.iter().map(String::as_str).collect();
        let run: BTreeSet<&str> = crate::workloads::NAMES.iter().copied().collect();
        assert_eq!(listed, run);
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("sim.minst_per_s"));
        assert!(valid_name("0x"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
    }
}
