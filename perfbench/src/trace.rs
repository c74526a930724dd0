//! In-memory spans for the traced run: one span per call into a crate's
//! public function, written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (the per-layer metric it feeds).
    pub name: &'static str,
    /// The operation (request or publish) the span belongs to.
    pub op: u64,
    /// The enclosing span's name, or `None` for an operation's root.
    pub parent: Option<&'static str>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Collects spans in memory; nothing is written until [`Tracer::write`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as span `name` of operation `op` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a span measured elsewhere (e.g. a round trip timed by the
    /// client loop).
    pub fn record(&mut self, name: &'static str, op: u64, started: Instant, ended: Instant) {
        let start_ns = started.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = ended.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: None,
            start_ns,
            end_ns,
        });
    }

    /// Durations in milliseconds of every span named `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per-operation durations in milliseconds of the spans named in
    /// `names`: one row per operation that has a `root` span, in
    /// operation order.
    pub fn per_op_ms(&self, root: &str, names: &[&str]) -> (Vec<f64>, Vec<Vec<f64>>) {
        let mut by_op: BTreeMap<u64, (Option<f64>, Vec<f64>)> = BTreeMap::new();
        for s in &self.spans {
            if s.name == root {
                by_op.entry(s.op).or_default().0 = Some(s.ms());
            } else if names.contains(&s.name) {
                by_op.entry(s.op).or_default().1.push(s.ms());
            }
        }
        let mut roots = Vec::new();
        let mut layers = Vec::new();
        for (_, (root_ms, layer_ms)) in by_op {
            if let Some(r) = root_ms {
                roots.push(r);
                layers.push(layer_ms);
            }
        }
        (roots, layers)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.op,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
