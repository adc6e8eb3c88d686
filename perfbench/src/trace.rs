//! In-memory spans for the traced run. Spans are recorded only in the
//! benchmark's own code, around calls into each layer's public functions,
//! and written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the id of the span that caused it (0 for
/// a root); spans of one request share `request`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, caused by span `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        self.spans.push(Span {
            id: self.spans.len() as u64 + 1,
            parent,
            request: 0,
            name,
            start_us,
            end_us,
        });
        out
    }

    /// Record a span measured elsewhere (e.g. by a client thread), with
    /// times in milliseconds since `origin`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        origin: Instant,
        start_ms: f64,
        end_ms: f64,
    ) -> u64 {
        let shift_us = origin.duration_since(self.t0).as_secs_f64() * 1e6;
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us: shift_us + start_ms * 1e3,
            end_us: shift_us + end_ms * 1e3,
        });
        id
    }

    /// Durations (ms) of every span named `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.id, s.parent, s.request, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_durations_and_their_parent() {
        let mut t = Tracer::new();
        let origin = Instant::now();
        let load = t.record("load", 0, 0, origin, 0.0, 10.0);
        let req = t.record("request", load, 7, origin, 2.0, 5.5);
        assert_eq!(t.span("call", 0, || 41) + 1, 42);
        assert_eq!(t.len(), 3);
        assert_eq!((load, req), (1, 2));
        let r = &t.spans[1];
        assert_eq!((r.parent, r.request), (load, 7));
        assert!((r.ms() - 3.5).abs() < 1e-9);
        assert_eq!(t.durations_ms("call").len(), 1);
        assert!(t.durations_ms("call")[0] >= 0.0);
    }
}
