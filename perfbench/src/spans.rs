//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public function in a
//! span (name, start, end, parent span, op id). Spans stay in memory
//! until the run ends, are written out as JSON lines, and the per-layer
//! metrics are derived from them.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Thread-safe span store.
pub struct Spans {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Self { t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// so nested calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            let start_ns = self.now_ns();
            spans.push(Span { name: name.to_owned(), op, parent, start_ns, end_ns: start_ns });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span store poisoned")[id].end_ns = end;
        out
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Every span as a JSON line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.lock().expect("span store poisoned").iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Runs `f` in a span when tracing, and bare otherwise. `f` receives
/// the span id to pass on as its children's parent.
pub fn traced<T>(
    spans: Option<&Spans>,
    name: &str,
    op: u64,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match spans {
        Some(s) => s.span(name, op, parent, |id| f(Some(id))),
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_dump() {
        let spans = Spans::new();
        spans.span("outer", 7, None, |id| {
            spans.span("inner", 7, Some(id), |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let outer = spans.durations_ms("outer")[0];
        let inner = spans.durations_ms("inner")[0];
        assert!(inner >= 20.0 && outer >= inner);
        assert!(spans.to_jsonl().contains("\"name\":\"inner\",\"op\":7,\"parent\":0"));
    }
}
