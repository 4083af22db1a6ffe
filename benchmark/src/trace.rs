//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark's own code around each call
//! into a library layer (name, start, end, parent span, request id),
//! kept in memory, and written out as JSON lines when the run ends.
//! With tracing off every call is a no-op, so untraced runs pay only
//! for a branch.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

/// One recorded span; times are nanoseconds since the run's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.session.hessians`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to start while the span is open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// The request (or pipeline run) this span serves.
    pub request: Option<u64>,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder measuring from `origin`; records nothing unless `on`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: Option<u64>) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span now.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            let now = self.ns(Instant::now());
            self.spans[i].end_ns = now;
        }
    }

    /// Records a closed span from timestamps already taken.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: Option<u64>,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span named `name` whose end passes `keep`, in
    /// microseconds: its duration minus the time its child spans cover.
    /// Children are nested inside and sequential within their parent,
    /// so the covered time is the sum of their durations.
    pub fn self_times_us(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name && keep(s.end_ns))
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e3)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut t = Tracer::new(true, origin);
        let root = t.record("root", at(0), at(10), None, Some(7));
        t.record("child", at(1), at(4), root, Some(7));
        t.record("child", at(5), at(6), root, Some(7));
        assert_eq!(t.self_times_us("root", |_| true), vec![6000.0]);
        let mut child = t.self_times_us("child", |_| true);
        child.sort_by(f64::total_cmp);
        assert_eq!(child, vec![1000.0, 3000.0]);
        assert!(t.self_times_us("child", |end| end > 5_000_000).len() == 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("x", None, None);
        t.end(id);
        assert_eq!(id, None);
        assert_eq!(t.len(), 0);
    }
}
