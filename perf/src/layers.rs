//! Per-layer metrics, measured from outside the program.
//!
//! A traced child runs one untraced and one traced rep back to back, then
//! works out three things:
//!
//! 1. **Stage self times** from the runner's own stage spans
//!    (`RunOptions::trace_spans`).  With `jobs 1` the spans of a run lie on
//!    one thread; a span's self time is its duration minus what its nested
//!    spans cover, and the rep's wall time not covered by any span is
//!    `harness.unattributed_s`.  Self times plus the unattributed rest must
//!    tile the wall time to within 1%, with no negative remainder.
//! 2. **Codec and cache throughput**, by replaying the traced rep's real
//!    cache entries through the public `DiskCache`, `json`, `ir::encode`
//!    and `tracefile` calls.
//! 3. **Request handling**, by timing `http::try_parse` and
//!    `protocol::request_from_json` on the workload's sweep as a `/run`
//!    request, and (gsd only) the daemon's `/metrics` counters.

use crate::workloads::{self, Gsd, Offline, Options, Prepared};
use guardspec_harness::{
    chrome_trace_json, chrome_trace_json_grouped, codec, json, key, validate_chrome_trace,
    DiskCache, ExperimentResult, ExperimentSpec, Json, Span,
};
use guardspec_interp::{tracefile, StaticLayout};
use guardspec_ir::Program;
use guardspec_server::http::{try_parse, Parsed};
use guardspec_server::protocol::{request_from_json, request_to_json};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric a traced child reports, with its unit.
pub const METRICS: [(&str, &str); 30] = [
    ("workloads.build_s", "s"),
    ("ir.print_s", "s"),
    ("ir.decode_s", "s"),
    ("interp.profile_s", "s"),
    ("interp.trace_s", "s"),
    ("interp.interpretations", "count"),
    ("interp.trace_bytes_per_entry", "B"),
    ("interp.tracefile_encode_mb_per_s", "MB/s"),
    ("interp.tracefile_decode_mb_per_s", "MB/s"),
    ("core.transform_s", "s"),
    ("sim.simulate_s", "s"),
    ("sim.minst_per_s", "Minst/s"),
    ("sim.block_build_us", "us"),
    ("sim.cells_per_trace", "ratio"),
    ("harness.collect_s", "s"),
    ("harness.unattributed_s", "s"),
    ("harness.trace_overhead", "ratio"),
    ("harness.cache_hit_ratio", "ratio"),
    ("harness.cache_get_s", "s"),
    ("harness.cache_get_mb", "MB"),
    ("harness.cache_put_s", "s"),
    ("harness.cache_put_mb", "MB"),
    ("harness.json_parse_mb_per_s", "MB/s"),
    ("harness.json_encode_mb_per_s", "MB/s"),
    ("harness.entry_max_kb", "KB"),
    ("server.http_parse_mb_per_s", "MB/s"),
    ("server.request_decode_us", "us"),
    ("server.jobs_executed", "count"),
    ("server.resp_cached_ratio", "ratio"),
    ("server.dedup_join_ratio", "ratio"),
];

/// Runner stage span category → per-layer metric.
const STAGES: [(&str, &str); 5] = [
    ("profile", "interp.profile_s"),
    ("transform", "core.transform_s"),
    ("trace", "interp.trace_s"),
    ("simulate", "sim.simulate_s"),
    ("collect", "harness.collect_s"),
];

/// Largest cache entry the JSON replay parses.  The harness JSON parser
/// is quadratic in string length (ROADMAP P0), so the multi-megabyte
/// transform entries of the small and paper scales would not finish.
const PARSE_CAP_BYTES: u64 = 256 * 1024;

type Metrics = BTreeMap<&'static str, f64>;

/// Measure every per-layer metric of a prepared workload.  `build_s`
/// comes from its set-up; `trace_out` receives the Chrome trace.
pub fn measure(
    p: &mut Prepared,
    opts: &Options,
    build_s: f64,
    trace_out: Option<&Path>,
) -> Result<Vec<(String, f64)>, String> {
    let mut m = match p {
        Prepared::Offline(o) => offline(o, opts, trace_out)?,
        Prepared::Gsd(g) => gsd(g, opts, trace_out)?,
    };
    m.insert("workloads.build_s", build_s);
    let out: Vec<(String, f64)> = METRICS
        .iter()
        .map(|(name, _)| {
            m.get(name)
                .map(|v| (name.to_string(), *v))
                .ok_or_else(|| format!("layer metric {name} was not measured"))
        })
        .collect::<Result<_, _>>()?;
    Ok(out)
}

fn offline(o: &mut Offline, opts: &Options, trace_out: Option<&Path>) -> Result<Metrics, String> {
    let (r0, plain_s) = workloads::run_timed(&o.spec, &o.rep_dir(), false);
    o.check(&r0)?;
    let dir = o.rep_dir();
    let (r, traced_s) = workloads::run_timed(&o.spec, &dir, true);
    o.check(&r)?;
    let doc = chrome_trace_json(&r.spans, &r.metrics);
    write_trace(&doc, trace_out)?;

    let mut m = stage_metrics(&[(&r, traced_s)], &[&o.spec])?;
    m.insert("harness.trace_overhead", traced_s / plain_s);
    m.extend(replay(&dir, &[&o.spec], &opts.scratch.join("put"))?);
    if !o.is_warm() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let body = request_to_json(&workloads::spec_request(&o.spec)).to_compact();
    m.extend(request_metrics(&[body])?);
    for name in [
        "server.jobs_executed",
        "server.resp_cached_ratio",
        "server.dedup_join_ratio",
    ] {
        m.insert(name, 0.0);
    }
    Ok(m)
}

/// The gsd mix's layers: one session for the daemon's counters, then the
/// session's executions (every pooled request, warm) replayed offline,
/// untraced and traced.
fn gsd(g: &mut Gsd, opts: &Options, trace_out: Option<&Path>) -> Result<Metrics, String> {
    let session = g.session();
    if session.failed > 0 {
        return Err(format!("session failed: {:?}", session.errors));
    }
    let c = g.last;
    let mut passes = Vec::new();
    for traced in [false, true] {
        let dir = opts.scratch.join(format!("pass-{traced}"));
        let _ = std::fs::remove_dir_all(&dir);
        workloads::copy_dir(&g.template, &dir)?;
        let runs: Vec<(ExperimentResult, f64)> = g
            .specs
            .iter()
            .map(|s| workloads::run_timed(s, &dir, traced))
            .collect();
        for (i, (r, _)) in runs.iter().enumerate() {
            g.check_offline(i, r)?;
        }
        passes.push((dir, runs));
    }
    let plain_s: f64 = passes[0].1.iter().map(|(_, w)| w).sum();
    let (dir, runs) = &passes[1];
    let traced_s: f64 = runs.iter().map(|(_, w)| w).sum();
    let groups: Vec<(String, Vec<Span>)> = runs
        .iter()
        .enumerate()
        .map(|(i, (r, _))| (format!("request-{i}"), r.spans.clone()))
        .collect();
    write_trace(&chrome_trace_json_grouped(&groups), trace_out)?;

    let pairs: Vec<(&ExperimentResult, f64)> = runs.iter().map(|(r, w)| (r, *w)).collect();
    let specs: Vec<&ExperimentSpec> = g.specs.iter().collect();
    let mut m = stage_metrics(&pairs, &specs)?;
    m.insert("harness.trace_overhead", traced_s / plain_s);
    m.extend(replay(dir, &specs, &opts.scratch.join("put"))?);
    m.extend(request_metrics(&g.bodies)?);
    let share = |n: u64| n as f64 / c.requests.max(1) as f64;
    m.insert("server.jobs_executed", c.executed as f64);
    m.insert("server.resp_cached_ratio", share(c.resp_cached));
    m.insert("server.dedup_join_ratio", share(c.joined));
    for (dir, _) in &passes {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(m)
}

fn write_trace(doc: &Json, path: Option<&Path>) -> Result<(), String> {
    validate_chrome_trace(doc)?;
    if let Some(p) = path {
        guardspec_harness::write_json_file(p, doc).map_err(|e| format!("{}: {e}", p.display()))?;
    }
    Ok(())
}

/// Self time of every span: its duration minus the part its directly
/// nested spans (same thread) cover.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        (
            spans[i].tid,
            spans[i].ts_us,
            std::cmp::Reverse(spans[i].dur_us),
        )
    });
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_us).collect();
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = open.last() {
            let t = &spans[top];
            if t.tid != s.tid || t.ts_us + t.dur_us <= s.ts_us {
                open.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = open.last() {
            own[parent] = own[parent].saturating_sub(s.dur_us);
        }
        open.push(i);
    }
    own
}

/// Microseconds covered by at least one span.
fn covered_us(spans: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.ts_us, s.ts_us + s.dur_us))
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Stage self times, the unattributed rest, and the simulator and cache
/// counters of traced runs (each with its wall time in seconds).
fn stage_metrics(
    runs: &[(&ExperimentResult, f64)],
    specs: &[&ExperimentSpec],
) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    for (_, name) in STAGES {
        m.insert(name, 0.0);
    }
    let (mut unattributed, mut committed) = (0.0, 0.0);
    let (mut hits, mut lookups, mut interps, mut build_us) = (0u64, 0u64, 0u64, 0u64);
    for (r, wall_s) in runs {
        let own = self_times(&r.spans);
        let mut self_sum = 0.0;
        for (s, us) in r.spans.iter().zip(&own) {
            let secs = *us as f64 / 1e6;
            self_sum += secs;
            let (_, name) = STAGES
                .iter()
                .find(|(cat, _)| *cat == s.cat)
                .ok_or_else(|| format!("unknown stage span category {:?}", s.cat))?;
            *m.get_mut(name).expect("stage metric present") += secs;
        }
        let covered = covered_us(&r.spans) as f64 / 1e6;
        let rest = wall_s - covered;
        if rest < 0.0 || (self_sum - covered).abs() > 0.01 * wall_s {
            return Err(format!(
                "stage spans do not tile the wall time: {self_sum:.6} s of self time, \
                 {covered:.6} s covered, {wall_s:.6} s wall"
            ));
        }
        unattributed += rest;
        committed += workloads::committed_minst(r);
        hits += r.cache_hits;
        lookups += r.cache_hits + r.cache_misses;
        interps += r.interpretations;
        build_us += r
            .metrics
            .iter()
            .find(|(k, _)| k == "sim.block_build_us")
            .map_or(0, |(_, v)| *v);
    }
    let cells: usize = specs.iter().map(|s| s.cells.len()).sum();
    let programs: usize = specs.iter().map(|s| distinct_programs(s)).sum();
    m.insert("harness.unattributed_s", unattributed);
    m.insert("sim.minst_per_s", committed / m["sim.simulate_s"]);
    m.insert("sim.block_build_us", build_us as f64);
    m.insert("sim.cells_per_trace", cells as f64 / programs.max(1) as f64);
    m.insert("interp.interpretations", interps as f64);
    m.insert(
        "harness.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    Ok(m)
}

/// Programs a spec simulates: each workload with an untransformed cell,
/// plus each distinct (workload, transform options) pair.
fn distinct_programs(spec: &ExperimentSpec) -> usize {
    let mut seen: Vec<(usize, Option<String>)> = spec
        .cells
        .iter()
        .map(|c| (c.workload, c.transform.as_ref().map(key::describe_options)))
        .collect();
    seen.sort();
    seen.dedup();
    seen.len()
}

/// One cache entry on disk.
struct Entry {
    key: String,
    bin: bool,
    bytes: u64,
}

fn cache_entries(dir: &Path) -> Vec<Entry> {
    let mut out = Vec::new();
    for shard in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        for f in std::fs::read_dir(shard.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let name = f.file_name().to_string_lossy().into_owned();
            let (stem, bin) = match (name.strip_suffix(".json"), name.strip_suffix(".bin")) {
                (Some(s), _) => (s, false),
                (_, Some(s)) => (s, true),
                _ => continue,
            };
            if stem.starts_with(".tmp") {
                continue;
            }
            out.push(Entry {
                key: stem.to_string(),
                bin,
                bytes: f.metadata().map_or(0, |m| m.len()),
            });
        }
    }
    out.sort_by(|a, b| a.key.cmp(&b.key));
    out
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    *acc += t0.elapsed().as_secs_f64();
    v
}

/// Replay every entry of a cache directory through the public cache and
/// codec calls.  The programs the specs simulate — the workloads as built
/// and their transforms, rebuilt from the cached profiles — are encoded,
/// decoded and printed through `ir`, and key the trace blobs, which are
/// decoded and re-encoded through `tracefile`.
fn replay(dir: &Path, specs: &[&ExperimentSpec], put_dir: &Path) -> Result<Metrics, String> {
    let _ = std::fs::remove_dir_all(put_dir);
    let src = DiskCache::new(dir);
    let dst = DiskCache::new(put_dir);
    let entries = cache_entries(dir);
    let (mut get_s, mut get_b, mut put_s, mut put_b) = (0.0, 0u64, 0.0, 0u64);
    let (mut parse_s, mut parse_b, mut enc_s, mut enc_b) = (0.0, 0u64, 0.0, 0u64);
    let (mut ir_decode_s, mut print_s) = (0.0, 0.0);
    let (mut tf_dec_s, mut tf_enc_s, mut blob_b, mut trace_entries) = (0.0, 0.0, 0u64, 0u64);
    let max_entry = entries.iter().map(|e| e.bytes).max().unwrap_or(0);

    let mut profiles: HashMap<String, Json> = HashMap::new();
    for e in entries.iter().filter(|e| !e.bin) {
        let text = timed(&mut get_s, || src.get(&e.key))
            .ok_or_else(|| format!("cache entry {} vanished", e.key))?;
        get_b += text.len() as u64;
        timed(&mut put_s, || dst.put(&e.key, &text));
        put_b += text.len() as u64;
        if e.bytes > PARSE_CAP_BYTES {
            continue;
        }
        let j = timed(&mut parse_s, || json::parse(&text))?;
        parse_b += text.len() as u64;
        enc_b += timed(&mut enc_s, || j.to_compact()).len() as u64;
        if e.key.starts_with("profile-") {
            profiles.insert(e.key.clone(), j);
        }
    }

    // Programs by the key of their trace blob.
    let mut programs: HashMap<String, Program> = HashMap::new();
    let mut seen: Vec<(&str, Option<String>)> = Vec::new();
    let mut base_texts: HashMap<&str, String> = HashMap::new();
    for spec in specs {
        for c in &spec.cells {
            let w = &spec.workloads[c.workload];
            let id = (w.name, c.transform.as_ref().map(key::describe_options));
            if seen.contains(&id) {
                continue;
            }
            seen.push(id);
            let base = base_texts
                .entry(w.name)
                .or_insert_with(|| timed(&mut print_s, || w.program.to_string()));
            let Some(opts) = &c.transform else {
                programs.insert(key::trace_key(base, spec.scale), w.program.clone());
                continue;
            };
            let pkey = key::profile_key(base, spec.scale);
            let profile = profiles
                .get(&pkey)
                .ok_or_else(|| format!("no cached profile {pkey} for {}", w.name))
                .and_then(codec::profile_from_json)?;
            let mut p = w.program.clone();
            guardspec_core::transform_program(&mut p, &profile, opts);
            let text = timed(&mut print_s, || p.to_string());
            let words = guardspec_ir::encode::encode_program(&p);
            let decoded = timed(&mut ir_decode_s, || {
                guardspec_ir::encode::decode_program(&words)
            })
            .map_err(|err| format!("{}: {err}", w.name))?;
            programs.insert(key::trace_key(&text, spec.scale), decoded);
        }
    }

    for e in entries.iter().filter(|e| e.bin) {
        let bytes = timed(&mut get_s, || src.get_bytes(&e.key))
            .ok_or_else(|| format!("cache entry {} vanished", e.key))?;
        get_b += bytes.len() as u64;
        timed(&mut put_s, || dst.put_bytes(&e.key, &bytes));
        put_b += bytes.len() as u64;
        let d =
            timed(&mut tf_dec_s, || tracefile::decode(&bytes)).map_err(|err| err.to_string())?;
        blob_b += bytes.len() as u64;
        trace_entries += d.trace.len();
        let p = programs
            .get(&e.key)
            .ok_or_else(|| format!("no program for trace blob {}", e.key))?;
        let layout = StaticLayout::build(p);
        let again = timed(&mut tf_enc_s, || {
            tracefile::encode(&layout, d.trace.iter(), d.exec_digest)
        });
        if again != bytes {
            return Err(format!(
                "trace blob {} does not re-encode to its own bytes",
                e.key
            ));
        }
    }
    let _ = std::fs::remove_dir_all(put_dir);
    let mb = |b: u64| b as f64 / 1e6;
    Ok(Metrics::from([
        ("harness.cache_get_s", get_s),
        ("harness.cache_get_mb", mb(get_b)),
        ("harness.cache_put_s", put_s),
        ("harness.cache_put_mb", mb(put_b)),
        ("harness.json_parse_mb_per_s", mb(parse_b) / parse_s),
        ("harness.json_encode_mb_per_s", mb(enc_b) / enc_s),
        ("harness.entry_max_kb", max_entry as f64 / 1e3),
        ("ir.decode_s", ir_decode_s),
        ("ir.print_s", print_s),
        ("interp.tracefile_decode_mb_per_s", mb(blob_b) / tf_dec_s),
        ("interp.tracefile_encode_mb_per_s", mb(blob_b) / tf_enc_s),
        (
            "interp.trace_bytes_per_entry",
            blob_b as f64 / trace_entries.max(1) as f64,
        ),
    ]))
}

/// Shortest total time the request-handling micro-timings accumulate.
const MIN_TIMED_S: f64 = 0.02;

/// Time `try_parse` over each body framed as a `POST /run`, and the JSON
/// parse plus `request_from_json` of each body.
fn request_metrics(bodies: &[String]) -> Result<Metrics, String> {
    let messages: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| {
            format!(
                "POST /run HTTP/1.1\r\nHost: perf\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{b}",
                b.len()
            )
            .into_bytes()
        })
        .collect();
    let (mut parse_s, mut parse_b) = (0.0, 0u64);
    while parse_s < MIN_TIMED_S {
        for m in &messages {
            match timed(&mut parse_s, || try_parse(m)) {
                Parsed::Complete { consumed, .. } if consumed == m.len() => {}
                other => return Err(format!("try_parse: {other:?}")),
            }
            parse_b += m.len() as u64;
        }
    }
    let (mut decode_s, mut decoded) = (0.0, 0u64);
    while decode_s < MIN_TIMED_S {
        for b in bodies {
            timed(&mut decode_s, || {
                json::parse(b).and_then(|j| request_from_json(&j))
            })?;
            decoded += 1;
        }
    }
    Ok(Metrics::from([
        ("server.http_parse_mb_per_s", parse_b as f64 / 1e6 / parse_s),
        ("server.request_decode_us", decode_s * 1e6 / decoded as f64),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u64, ts_us: u64, dur_us: u64) -> Span {
        Span {
            name: "s".to_string(),
            cat: "simulate",
            ts_us,
            dur_us,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_directly_nested_spans_on_the_same_thread() {
        // [0,100) holds [10,30) which holds [15,20); [40,50) is a second
        // child; [60,70) on another thread is no child at all.
        let spans = [
            span(1, 0, 100),
            span(1, 10, 20),
            span(1, 15, 5),
            span(1, 40, 10),
            span(2, 60, 10),
        ];
        assert_eq!(self_times(&spans), vec![70, 15, 5, 10, 10]);
        let own: u64 = self_times(&spans).iter().sum();
        assert_eq!(
            own,
            100 + 10,
            "each thread's self times add up to its busy time"
        );
    }

    #[test]
    fn coverage_merges_overlaps_and_keeps_gaps() {
        let spans = [
            span(1, 0, 10),
            span(2, 5, 10),
            span(1, 20, 5),
            span(1, 25, 5),
        ];
        assert_eq!(covered_us(&spans), 15 + 10);
        assert_eq!(covered_us(&[]), 0);
    }
}
