//! The traced run's span log. Spans live in memory and are written out
//! once, when the run ends; untraced runs never create a log.

use e2c_tune::clock;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counts observed at this boundary (events, requests, bytes).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    }
}

pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: clock::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id for children to name.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        counts: Vec<(&'static str, u64)>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span log poisoned by a panic");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            counts,
        });
        id
    }

    /// Time `f` as a span.
    pub fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = clock::now();
        let out = f();
        self.record(name, parent, start, clock::now(), Vec::new());
        out
    }

    /// Open a parent span now; close it with [`SpanLog::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let now = clock::now();
        self.record(name, parent, now, now, Vec::new())
    }

    pub fn close(&self, id: usize) {
        let end = self.ns(clock::now());
        self.spans.lock().expect("span log poisoned by a panic")[id].end_ns = end;
    }

    /// Durations in ms of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.with(|spans| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::ms)
                .collect()
        })
    }

    pub fn with<T>(&self, f: impl FnOnce(&[Span]) -> T) -> T {
        f(&self.spans.lock().expect("span log poisoned by a panic"))
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        self.with(|spans| {
            let mut out = String::with_capacity(spans.len() * 96);
            for s in spans {
                out.push_str(&format!(
                    "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.name,
                    s.start_ns,
                    s.end_ns
                ));
                for (k, v) in &s.counts {
                    out.push_str(&format!(", \"{k}\": {v}"));
                }
                out.push_str("}\n");
            }
            out
        })
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}
