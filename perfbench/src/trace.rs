//! Spans recorded around calls into the program's public API. The
//! program itself carries no tracing: every span starts and ends in
//! the benchmark's own code, just outside the call it measures.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.replay.direct`.
    pub name: String,
    /// Sweep or request the span belongs to.
    pub id: u64,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

/// An in-memory span recorder. Disabled, it only runs the closures, so
/// the same code path gives the untraced reference time.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested in the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            id,
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the time its children cover.
    /// Children of one span never overlap: the traced code is serial.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.end - span.start;
            }
        }
        own
    }

    /// Total self time and count per span name.
    pub fn by_name(&self) -> BTreeMap<String, (f64, u64)> {
        let mut totals: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let entry = totals.entry(span.name.clone()).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        totals
    }

    /// Total duration of the spans named `name`, children included.
    #[cfg(test)]
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Share of the root spans' wall time that layer spans account
    /// for: the self time of every non-root span over the roots'
    /// duration.
    pub fn coverage(&self) -> f64 {
        let own = self.self_times();
        let (mut wall, mut uncovered) = (0.0, 0.0);
        for (span, own) in self.spans.iter().zip(own) {
            if span.parent.is_none() {
                wall += span.end - span.start;
                uncovered += own;
            }
        }
        if wall > 0.0 {
            1.0 - uncovered / wall
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"start\":{},\"end\":{},\"parent\":{parent}}}",
                s.name, s.id, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn self_time_excludes_children_and_coverage_counts_roots() {
        let mut t = Tracer::new(true);
        t.span("root", 0, |t| {
            t.span("a", 1, |t| {
                busy(20);
                t.span("b", 1, |_| busy(30));
            });
            busy(10);
        });
        let names = t.by_name();
        let (a, b, root) = (names["a"].0, names["b"].0, names["root"].0);
        assert!((a - (t.total("a") - t.total("b"))).abs() < 1e-9);
        assert!((root - (t.total("root") - t.total("a"))).abs() < 1e-9);
        assert!(a >= 0.02 && b >= 0.03 && root >= 0.01, "{a} {b} {root}");
        let cover = t.coverage();
        let expected = (a + b) / t.total("root");
        assert!((cover - expected).abs() < 1e-9);
        assert_eq!(t.spans()[2].parent, Some(1));
    }

    #[test]
    fn a_disabled_tracer_runs_the_code_and_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 0, |t| t.span("y", 0, |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
