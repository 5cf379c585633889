//! Chrome trace-event export for the runner's stages (`--trace-out <file>`).
//!
//! Stages record [`Span`]s through a shared [`SpanRecorder`]; after the run,
//! [`chrome_trace_json`] renders them in the Chrome trace-event format
//! (`{"traceEvents": [...]}` with `ph:"X"` complete events), which loads
//! directly in Perfetto (ui.perfetto.dev) and `chrome://tracing`.
//!
//! * Timestamps are microseconds since the recorder was created, so traces
//!   carry no wall-clock and diff cleanly apart from durations.
//! * Worker threads get small dense `tid`s in first-use order (assigned via
//!   a thread-local, so the pool itself needs no instrumentation), plus a
//!   `ph:"M"` thread-name metadata record each.
//! * [`validate_chrome_trace`] is the CI check: required fields present and
//!   spans on one thread strictly nest (a stage that overlaps another
//!   half-way is a recorder bug, not a real schedule).

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed stage execution.
#[derive(Clone, Debug)]
pub struct Span {
    /// Event name, e.g. `simulate xlisp/Proposed`.
    pub name: String,
    /// Chrome category — the stage kind (`profile`/`transform`/`trace`/`simulate`).
    pub cat: &'static str,
    /// Start, microseconds since recorder creation.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Dense per-thread id (first-use order).
    pub tid: u64,
    /// Extra key/value detail rendered into the event's `args`.
    pub args: Vec<(String, String)>,
}

/// Dense trace `tid` for the calling thread.
fn chrome_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Collects spans from all worker threads; a disabled recorder is a cheap
/// no-op so instrumented code paths need no conditionals.
#[derive(Debug)]
pub struct SpanRecorder {
    t0: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl SpanRecorder {
    pub fn new(enabled: bool) -> SpanRecorder {
        SpanRecorder::with_origin(enabled, Instant::now())
    }

    /// A recorder whose timestamps are measured from `t0`.  Request-scoped
    /// tracing passes the instant the request arrived so phase spans that
    /// share boundary `Instant`s tile exactly (identical microsecond
    /// timestamps) in the emitted document.
    pub fn with_origin(enabled: bool, t0: Instant) -> SpanRecorder {
        SpanRecorder {
            t0,
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span over an explicit `[start, end]` window on the calling
    /// thread's trace track.  The duration is *not* clamped to 1 µs:
    /// request-phase spans share boundary `Instant`s with their
    /// neighbours, and padding a zero-length phase would push its end
    /// past the next phase's start (a partial overlap the validator
    /// rejects).  Zero-duration spans are legal trace events.
    pub fn record_to(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        start: Instant,
        end: Instant,
        args: Vec<(String, String)>,
    ) {
        if !self.enabled {
            return;
        }
        // Floor both endpoints against the shared origin and subtract:
        // two spans that meet at the same `Instant` then tile exactly
        // (end ts+dur == next ts), which flooring each duration
        // independently would break by ±1µs.
        let ts_us = start
            .saturating_duration_since(self.t0)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        let end_us = end
            .saturating_duration_since(self.t0)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        let dur_us = end_us.saturating_sub(ts_us);
        self.record_span(Span {
            name: name.into(),
            cat,
            ts_us,
            dur_us,
            tid: chrome_tid(),
            args,
        });
    }

    /// Push an already-built span (used when folding another recorder's
    /// spans — e.g. the runner's stage timeline — into a request trace
    /// with a timestamp offset applied).
    pub fn record_span(&self, span: Span) {
        if !self.enabled {
            return;
        }
        self.spans.lock().unwrap().push(span);
    }

    /// All recorded spans so far (drained), sorted by (start, tid) for
    /// stable output.  `&self` so it works behind the `Arc` the job
    /// closures share.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().unwrap());
        spans.sort_by_key(|s| (s.ts_us, s.tid, std::cmp::Reverse(s.dur_us)));
        spans
    }
}

/// Render spans (plus run counters) as a Chrome trace-event document.
pub fn chrome_trace_json(spans: &[Span], metrics: &[(String, u64)]) -> Json {
    let mut events = Vec::new();
    events.push(Json::obj(vec![
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::U64(1)),
        ("tid", Json::U64(0)),
        (
            "args",
            Json::obj(vec![("name", Json::str("guardspec-harness"))]),
        ),
    ]));
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        events.push(Json::obj(vec![
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::U64(1)),
            ("tid", Json::U64(tid)),
            (
                "args",
                Json::obj(vec![("name", Json::str(format!("worker-{tid}")))]),
            ),
        ]));
    }
    for s in spans {
        let args = s
            .args
            .iter()
            .map(|(k, v)| (k.clone(), Json::str(v)))
            .collect();
        events.push(Json::obj(vec![
            ("name", Json::str(&s.name)),
            ("cat", Json::str(s.cat)),
            ("ph", Json::str("X")),
            ("ts", Json::U64(s.ts_us)),
            ("dur", Json::U64(s.dur_us)),
            ("pid", Json::U64(1)),
            ("tid", Json::U64(s.tid)),
            ("args", Json::Obj(args)),
        ]));
    }
    let mut top = vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ];
    if !metrics.is_empty() {
        top.push((
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::U64(*v)))
                    .collect(),
            ),
        ));
    }
    Json::obj(top)
}

/// Render several independent span groups (e.g. a daemon's ring of recent
/// request timelines) as one Chrome trace document.  Each group's `tid`s
/// are remapped into a private range (`group_index * 1024 + dense rank`),
/// so spans from different requests that happened to run on the same
/// thread cannot violate the per-tid nesting invariant, and each track is
/// named after its group label.
pub fn chrome_trace_json_grouped(groups: &[(String, Vec<Span>)]) -> Json {
    let mut events = Vec::new();
    events.push(Json::obj(vec![
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::U64(1)),
        ("tid", Json::U64(0)),
        ("args", Json::obj(vec![("name", Json::str("gsd"))])),
    ]));
    for (gi, (label, spans)) in groups.iter().enumerate() {
        let mut ranks: Vec<u64> = Vec::new();
        let mut remap = |tid: u64| -> u64 {
            let rank = match ranks.iter().position(|&t| t == tid) {
                Some(r) => r,
                None => {
                    ranks.push(tid);
                    ranks.len() - 1
                }
            };
            gi as u64 * 1024 + rank as u64
        };
        let mut ordered: Vec<&Span> = spans.iter().collect();
        ordered.sort_by_key(|s| (s.ts_us, s.tid, std::cmp::Reverse(s.dur_us)));
        let mut mapped: Vec<Json> = Vec::with_capacity(ordered.len());
        for s in &ordered {
            let tid = remap(s.tid);
            let args = s
                .args
                .iter()
                .map(|(k, v)| (k.clone(), Json::str(v)))
                .collect();
            mapped.push(Json::obj(vec![
                ("name", Json::str(&s.name)),
                ("cat", Json::str(s.cat)),
                ("ph", Json::str("X")),
                ("ts", Json::U64(s.ts_us)),
                ("dur", Json::U64(s.dur_us)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(tid)),
                ("args", Json::Obj(args)),
            ]));
        }
        for (rank, _) in ranks.iter().enumerate() {
            events.push(Json::obj(vec![
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(gi as u64 * 1024 + rank as u64)),
                (
                    "args",
                    Json::obj(vec![("name", Json::str(format!("{label}/t{rank}")))]),
                ),
            ]));
        }
        events.extend(mapped);
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

/// CI validation of an emitted trace document: the required trace-event
/// fields are present and complete events strictly nest per thread.
pub fn validate_chrome_trace(j: &Json) -> Result<(), String> {
    let events = j
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace: missing traceEvents array")?;
    if events.is_empty() {
        return Err("trace: no events".to_string());
    }
    // (ts, dur) complete events per tid.
    let mut by_tid: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    let mut complete = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("trace: event {i} missing ph"))?;
        for field in ["name", "pid", "tid"] {
            if e.get(field).is_none() {
                return Err(format!("trace: event {i} missing {field}"));
            }
        }
        if ph == "M" {
            continue; // metadata events carry no timestamps
        }
        let ts = e
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("trace: event {i} missing ts"))?;
        if ph != "X" {
            return Err(format!("trace: event {i} has unexpected ph {ph:?}"));
        }
        let dur = e
            .get("dur")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("trace: X event {i} missing dur"))?;
        let tid = e.get("tid").and_then(Json::as_u64).unwrap();
        by_tid.entry(tid).or_default().push((ts, dur));
        complete += 1;
    }
    if complete == 0 {
        return Err("trace: no complete (ph=X) events".to_string());
    }
    for (tid, mut spans) in by_tid {
        spans.sort_by_key(|&(ts, dur)| (ts, std::cmp::Reverse(dur)));
        let mut stack: Vec<u64> = Vec::new(); // open end-times
        for (ts, dur) in spans {
            while stack.last().is_some_and(|&end| end <= ts) {
                stack.pop();
            }
            if let Some(&end) = stack.last() {
                if ts + dur > end {
                    return Err(format!(
                        "trace: spans on tid {tid} partially overlap \
                         ([{ts}, {}] vs enclosing end {end})",
                        ts + dur
                    ));
                }
            }
            stack.push(ts + dur);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = SpanRecorder::new(false);
        let now = Instant::now();
        r.record_to("x", "test", now, now, Vec::new());
        assert!(r.finish().is_empty());
    }

    #[test]
    fn recorded_spans_render_and_validate() {
        let r = SpanRecorder::new(true);
        let start = Instant::now();
        let end = start + std::time::Duration::from_micros(40);
        r.record_to(
            "simulate w/cell",
            "simulate",
            start,
            end,
            vec![("cached".to_string(), "false".to_string())],
        );
        r.record_to("profile w", "profile", start, end, Vec::new());
        let spans = r.finish();
        assert_eq!(spans.len(), 2);
        let j = chrome_trace_json(&spans, &[("cache.hits".to_string(), 3)]);
        validate_chrome_trace(&j).unwrap();
        let text = j.to_pretty();
        assert!(text.contains("traceEvents"));
        assert!(text.contains("\"ph\": \"X\""));
        assert!(text.contains("cache.hits"));
        // And the text parses back and still validates (what CI does).
        validate_chrome_trace(&crate::json::parse(&text).unwrap()).unwrap();
    }

    #[test]
    fn validation_rejects_partial_overlap() {
        let mk = |ts: u64, dur: u64| Span {
            name: "s".to_string(),
            cat: "test",
            ts_us: ts,
            dur_us: dur,
            tid: 1,
            args: Vec::new(),
        };
        // [0,10) and [5,15) on one tid: partial overlap.
        let j = chrome_trace_json(&[mk(0, 10), mk(5, 10)], &[]);
        assert!(validate_chrome_trace(&j).unwrap_err().contains("overlap"));
        // [0,10) enclosing [2,5): fine.  Adjacent [10,20): fine.
        let j = chrome_trace_json(&[mk(0, 10), mk(2, 3), mk(10, 10)], &[]);
        validate_chrome_trace(&j).unwrap();
    }

    #[test]
    fn record_to_allows_zero_duration_and_tiles_exactly() {
        let t0 = Instant::now();
        let r = SpanRecorder::with_origin(true, t0);
        // Phase boundaries share the same Instant: spans must tile with
        // identical microsecond timestamps and never overlap.
        let mid = t0 + std::time::Duration::from_micros(250);
        let end = t0 + std::time::Duration::from_micros(900);
        r.record_to("request", "request", t0, end, Vec::new());
        r.record_to("admit", "queue", t0, mid, Vec::new());
        r.record_to("respond", "respond", mid, end, Vec::new());
        r.record_to("instant", "queue", mid, mid, Vec::new()); // zero dur
        let spans = r.finish();
        assert_eq!(spans.len(), 4);
        let admit = spans.iter().find(|s| s.name == "admit").unwrap();
        let respond = spans.iter().find(|s| s.name == "respond").unwrap();
        assert_eq!(admit.ts_us + admit.dur_us, respond.ts_us);
        assert_eq!(
            spans.iter().find(|s| s.name == "instant").unwrap().dur_us,
            0
        );
        validate_chrome_trace(&chrome_trace_json(&spans, &[])).unwrap();
    }

    #[test]
    fn grouped_export_remaps_colliding_tids() {
        let mk = |ts: u64, dur: u64| Span {
            name: "s".to_string(),
            cat: "test",
            ts_us: ts,
            dur_us: dur,
            tid: 7, // same tid in both groups
            args: Vec::new(),
        };
        // As one flat list these would partially overlap on tid 7; the
        // grouped export gives each request its own tid namespace.
        let groups = vec![
            ("req-a".to_string(), vec![mk(0, 10)]),
            ("req-b".to_string(), vec![mk(5, 10)]),
        ];
        let j = chrome_trace_json_grouped(&groups);
        validate_chrome_trace(&j).unwrap();
        let text = j.to_compact();
        assert!(text.contains("req-a/t0"));
        assert!(text.contains("req-b/t0"));
        assert!(validate_chrome_trace(&chrome_trace_json(&[mk(0, 10), mk(5, 10)], &[])).is_err());
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(validate_chrome_trace(&Json::obj(vec![])).is_err());
        let j = Json::obj(vec![(
            "traceEvents",
            Json::Arr(vec![Json::obj(vec![("ph", Json::str("X"))])]),
        )]);
        assert!(validate_chrome_trace(&j).is_err());
    }
}
