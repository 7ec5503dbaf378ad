//! Span recording for `--trace` runs. Spans are taken from the
//! benchmark's side of each call into a layer, kept in memory, and
//! written out once when the run ends.

use crate::stats::Span;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// An in-memory span log.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index, to be passed as `parent` of
    /// the spans it causes and to [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u32, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Appends the spans another thread recorded against the same origin.
    pub fn absorb(&mut self, mut other: Tracer) {
        debug_assert!(other.spans.iter().all(|s| s.parent.is_none()));
        self.spans.append(&mut other.spans);
    }

    /// A second log on this log's clock, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of closed span `id`, µs.
    pub fn duration_us(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
