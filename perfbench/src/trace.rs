//! Spans around the public calls the benchmark makes, kept in memory and
//! written out as Chrome trace-event JSON, which Perfetto and
//! `chrome://tracing` open as they are.
//!
//! A disabled tracer only reads the clock for callers that need the
//! duration anyway; timed runs use a disabled tracer, and the per-layer
//! figures come from a separate traced run.

use crate::json::push_str;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Span {
    name: String,
    start: Duration,
    dur: Duration,
    tid: u64,
    req: Option<u64>,
}

/// Records spans when enabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recording a span named `name` when enabled, and returns
    /// its result with the wall time it took.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        self.span_for(name, None, f)
    }

    /// Like [`Tracer::span`], tagging the span with the request `req` so
    /// every span of one request shares an identifier.
    pub fn span_for<T>(
        &self,
        name: &str,
        req: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let started = Instant::now();
        let out = f();
        let dur = started.elapsed();
        if self.enabled {
            self.record(name, req, started, dur);
        }
        (out, dur)
    }

    /// Records a span that was timed elsewhere (a request's round trip,
    /// measured by the client from its due instant).
    pub fn record(&self, name: &str, req: Option<u64>, started: Instant, dur: Duration) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.to_owned(),
            start: started.saturating_duration_since(self.origin),
            dur,
            tid: TID.with(|t| *t),
            req,
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Durations of every recorded span, by span name.
    pub fn durations(&self) -> BTreeMap<String, Vec<Duration>> {
        let mut by_name: BTreeMap<String, Vec<Duration>> = BTreeMap::new();
        for span in self.spans.lock().expect("span list lock").iter() {
            by_name.entry(span.name.clone()).or_default().push(span.dur);
        }
        by_name
    }

    /// The spans as a Chrome trace-event document: one complete (`"X"`)
    /// event per span, timestamps in microseconds from the tracer's start.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span list lock");
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"name\":");
            push_str(&mut out, &span.name);
            let cat = span.name.split('.').next().unwrap_or("bench");
            out.push_str(",\"cat\":");
            push_str(&mut out, cat);
            out.push_str(&format!(
                ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}",
                span.tid,
                span.start.as_secs_f64() * 1e6,
                span.dur.as_secs_f64() * 1e6
            ));
            if let Some(req) = span.req {
                out.push_str(&format!(",\"args\":{{\"req\":{req}}}"));
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, dur) = t.span("kernel.run", || 7);
        assert_eq!(v, 7);
        assert!(dur <= Duration::from_secs(1));
        assert!(t.durations().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let t = Tracer::new(true);
        t.span("builder.build", || ());
        t.span_for("server.request", Some(4), || ());
        let doc = parse(&t.chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[0].get("cat").and_then(Json::as_str), Some("builder"));
        let req = events[1].get("args").and_then(|a| a.get("req"));
        assert_eq!(req.and_then(Json::as_u64), Some(4));
        assert_eq!(t.durations()["server.request"].len(), 1);
    }
}
