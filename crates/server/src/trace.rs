//! Request-scoped distributed tracing for the daemon.
//!
//! A [`RequestTrace`] is one request's span timeline: it owns a
//! [`SpanRecorder`] whose origin is the instant the request was parsed, so
//! the request phases — `admit` (loop thread), `queue.wait`, `flight`
//! (worker), `respond` (publication → bytes handed to the loop) — tile
//! exactly by sharing their boundary `Instant`s through `Marks`.  The
//! harness runner's own stage spans are folded in with a timestamp offset
//! ([`RequestTrace::absorb`]), so one Chrome document shows the whole
//! story: admission → queue → peer pull → profile/transform/trace/
//! simulate/collect → respond.
//!
//! Trace ids are deterministic: `{key8}-s{epoch}` where `key8` is a slice
//! of the request key's stable hash and `epoch` a per-daemon counter — no
//! wall-clock entropy.  A client-originated id arrives via `X-Trace-Id`
//! and wins; the daemon forwards it on outbound peer pulls.
//!
//! Completed timelines land in a bounded [`TraceRing`]; `GET /trace`
//! drains it as one grouped Chrome document
//! ([`guardspec_harness::chrome_trace_json_grouped`]).

use guardspec_harness::{Span, SpanRecorder};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Mint a daemon-originated trace id from the request key and the
/// daemon's request epoch.  `req-<32 hex>` keys contribute 8 stable hash
/// characters; the epoch disambiguates repeats of the same request.
pub fn mint_trace_id(key: &str, epoch: u64) -> String {
    let hash = key.strip_prefix("req-").unwrap_or(key);
    let short: String = hash.chars().take(8).collect();
    format!("{short}-s{epoch}")
}

/// Phase-boundary instants, shared between the loop thread and the worker
/// so adjacent phase spans start/end on the *same* `Instant`.
#[derive(Default)]
struct Marks {
    enqueued: Option<Instant>,
    published: Option<Instant>,
    /// Set on joiner requests: the owning flight's trace id.
    joined_owner: Option<String>,
}

/// One traced request's span timeline.
pub struct RequestTrace {
    pub id: String,
    started: Instant,
    rec: SpanRecorder,
    marks: Mutex<Marks>,
}

impl RequestTrace {
    /// A trace whose clock starts now (call when the request is parsed).
    pub fn new(id: String) -> RequestTrace {
        let started = Instant::now();
        RequestTrace {
            id,
            started,
            rec: SpanRecorder::with_origin(true, started),
            marks: Mutex::new(Marks::default()),
        }
    }

    /// The instant the request arrived (the root span's start).
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Record a span over `[start, end]` on the calling thread's track.
    pub fn span(&self, name: &str, cat: &'static str, start: Instant, end: Instant) {
        self.rec.record_to(name, cat, start, end, Vec::new());
    }

    /// [`RequestTrace::span`] with `args` rendered into the event.
    pub fn span_args(
        &self,
        name: &str,
        cat: &'static str,
        start: Instant,
        end: Instant,
        args: Vec<(String, String)>,
    ) {
        self.rec.record_to(name, cat, start, end, args);
    }

    /// Capture *now* as the queue-admission boundary and return it.
    pub fn mark_enqueued(&self) -> Instant {
        let t = Instant::now();
        self.marks.lock().unwrap().enqueued = Some(t);
        t
    }

    pub fn enqueued(&self) -> Option<Instant> {
        self.marks.lock().unwrap().enqueued
    }

    /// Capture *now* as the publication boundary and return it.
    pub fn mark_published(&self) -> Instant {
        let t = Instant::now();
        self.marks.lock().unwrap().published = Some(t);
        t
    }

    pub fn published(&self) -> Option<Instant> {
        self.marks.lock().unwrap().published
    }

    /// Record that this request joined an existing flight owned by
    /// `owner_trace` (empty when the owner was untraced).
    pub fn set_joined(&self, owner_trace: String) {
        self.marks.lock().unwrap().joined_owner = Some(owner_trace);
    }

    pub fn joined(&self) -> Option<String> {
        self.marks.lock().unwrap().joined_owner.clone()
    }

    /// Fold another recorder's spans (the harness runner's stage timeline,
    /// timestamped from its own origin `base`) into this trace, shifted
    /// onto this trace's clock.
    pub fn absorb(&self, spans: Vec<Span>, base: Instant) {
        let offset = base
            .saturating_duration_since(self.started)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        for mut s in spans {
            s.ts_us = s.ts_us.saturating_add(offset);
            self.rec.record_span(s);
        }
    }

    /// Drain the recorded spans, sorted for stable output.
    pub fn finish(&self) -> Vec<Span> {
        self.rec.finish()
    }
}

/// A bounded ring of recently completed request timelines; `GET /trace`
/// drains it (read-once semantics, so scrapers see each request once).
pub struct TraceRing {
    cap: usize,
    entries: Mutex<VecDeque<(String, Vec<Span>)>>,
}

impl TraceRing {
    pub fn new(cap: usize) -> TraceRing {
        TraceRing {
            cap: cap.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Append a completed timeline, evicting the oldest beyond the cap.
    pub fn push(&self, id: String, spans: Vec<Span>) {
        let mut e = self.entries.lock().unwrap();
        if e.len() >= self.cap {
            e.pop_front();
        }
        e.push_back((id, spans));
    }

    /// Take every buffered timeline (oldest first).
    pub fn drain(&self) -> Vec<(String, Vec<Span>)> {
        self.entries.lock().unwrap().drain(..).collect()
    }

    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardspec_harness::{chrome_trace_json, validate_chrome_trace};
    use std::time::Duration;

    #[test]
    fn trace_ids_are_deterministic_and_keyed() {
        assert_eq!(mint_trace_id("req-0123456789abcdef", 0), "01234567-s0");
        assert_eq!(mint_trace_id("req-0123456789abcdef", 7), "01234567-s7");
        assert_eq!(mint_trace_id("odd", 1), "odd-s1");
    }

    #[test]
    fn phases_tile_through_shared_marks() {
        let tr = RequestTrace::new("t-1".to_string());
        let t_enq = tr.mark_enqueued();
        std::thread::sleep(Duration::from_millis(2));
        let t_pub = tr.mark_published();
        let t_done = Instant::now();
        tr.span("admit", "queue", tr.started(), t_enq);
        tr.span("flight", "flight", tr.enqueued().unwrap(), t_pub);
        tr.span("respond", "respond", tr.published().unwrap(), t_done);
        tr.span("request", "request", tr.started(), t_done);
        let spans = tr.finish();
        let admit = spans.iter().find(|s| s.name == "admit").unwrap();
        let flight = spans.iter().find(|s| s.name == "flight").unwrap();
        let respond = spans.iter().find(|s| s.name == "respond").unwrap();
        // Shared Instants ⇒ exact microsecond tiling, no gaps or overlaps.
        assert_eq!(admit.ts_us, 0);
        assert_eq!(admit.ts_us + admit.dur_us, flight.ts_us);
        assert!(flight.ts_us + flight.dur_us <= respond.ts_us);
        assert!(respond.ts_us - (flight.ts_us + flight.dur_us) <= 1);
        validate_chrome_trace(&chrome_trace_json(&spans, &[])).unwrap();
    }

    #[test]
    fn absorb_shifts_foreign_spans_onto_the_request_clock() {
        let tr = RequestTrace::new("t-2".to_string());
        std::thread::sleep(Duration::from_millis(1));
        let base = Instant::now();
        let foreign = vec![Span {
            name: "simulate x".to_string(),
            cat: "simulate",
            ts_us: 5,
            dur_us: 10,
            tid: 3,
            args: Vec::new(),
        }];
        tr.absorb(foreign, base);
        let spans = tr.finish();
        assert_eq!(spans.len(), 1);
        assert!(
            spans[0].ts_us >= 1000 + 5,
            "ts {} not shifted",
            spans[0].ts_us
        );
    }

    #[test]
    fn ring_is_bounded_and_drains_once() {
        let ring = TraceRing::new(2);
        for i in 0..3 {
            ring.push(format!("t-{i}"), Vec::new());
        }
        assert_eq!(ring.len(), 2);
        let drained = ring.drain();
        assert_eq!(
            drained
                .iter()
                .map(|(id, _)| id.as_str())
                .collect::<Vec<_>>(),
            vec!["t-1", "t-2"]
        );
        assert!(ring.is_empty());
    }
}
