//! Span recording for the traced run.
//!
//! A span covers one call into a layer's public function. Spans live in
//! a `Vec` sized up front, so recording one costs two clock reads and a
//! push; they are written out once, after the measurement, as Chrome
//! trace-event JSON (open it in Perfetto or `chrome://tracing`).

use std::time::Instant;

use crate::json;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// The fleet device id or audio cell index the span works on.
    item: u64,
}

/// An append-only span log with one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, item: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            item,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        item: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, item);
        let out = f();
        self.end(id);
        out
    }

    /// Number of spans recorded so far; a round's spans are those from
    /// its starting mark on.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of the spans named `name` recorded since `mark`.
    pub fn durations(&self, mark: usize, name: &str) -> Vec<u64> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Total duration (ns) of the spans named `name` since `mark`.
    pub fn total(&self, mark: usize, name: &str) -> u64 {
        self.durations(mark, name).iter().sum()
    }

    /// The log as Chrome trace-event JSON: one complete (`"X"`) event
    /// per span, timestamps in microseconds from the tracer's origin.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 64);
        out.push_str("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"span\":{id},\"parent\":{parent},\"item\":{}}}}}",
                json::string(s.name),
                json::number(s.start_ns as f64 / 1e3),
                json::number((s.end_ns - s.start_ns) as f64 / 1e3),
                s.item,
            ));
        }
        out.push_str(&format!(
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":{}}}}}\n",
            json::string(workload)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut t = Tracer::with_capacity(8);
        let mark = t.mark();
        let parent = t.begin("device", None, 7);
        let x = t.time("sim", Some(parent), 7, || 41 + 1);
        t.time("sim", Some(parent), 7, || ());
        t.end(parent);
        assert_eq!(x, 42);
        assert_eq!(t.durations(mark, "sim").len(), 2);
        assert!(t.total(mark, "device") >= t.total(mark, "sim"));
        assert!(t.durations(t.mark(), "sim").is_empty());
    }

    #[test]
    fn chrome_json_names_parents_and_items() {
        let mut t = Tracer::with_capacity(2);
        let p = t.begin("cell", None, 3);
        t.time("sim \"f32\"", Some(p), 3, || ());
        t.end(p);
        let json = t.chrome_json("audio_eval");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"sim \\\"f32\\\"\""));
        assert!(json.contains("\"args\":{\"span\":1,\"parent\":0,\"item\":3}"));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"workload\":\"audio_eval\""));
    }
}
