//! The traced pass's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each
//! crate (name, start, end, parent), kept in memory, and written out
//! as JSON when the run ends. A span's self time is its duration minus
//! the part of its interval that its child spans cover.

use crate::stats::now;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Dotted layer name, e.g. `index.build`.
    pub name: String,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An in-memory span recorder; nesting follows the call stack.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s result and the span's index.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, usize) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        (out, idx)
    }

    /// Record a span measured elsewhere (a `meme-metrics` registry span)
    /// as a child of `parent`, laid end to end after the parent's
    /// previous imported children so child intervals never overlap.
    pub fn import(&mut self, parent: usize, name: &str, secs: f64) {
        let cursor = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        let dur = (secs * 1e9) as u64;
        self.spans.push(SpanRec {
            name: name.to_string(),
            start_ns: cursor,
            end_ns: cursor + dur,
            parent: Some(parent),
        });
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Total duration in seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::secs)
            .sum()
    }

    /// Duration of span `idx` in seconds.
    pub fn secs(&self, idx: usize) -> f64 {
        self.spans[idx].secs()
    }

    /// Self time of span `idx` in seconds: its duration minus the union
    /// of its children's intervals (clipped to its own).
    pub fn self_secs(&self, idx: usize) -> f64 {
        let me = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = me.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (me.end_ns - me.start_ns - covered) as f64 / 1e9
    }

    /// Write every span as JSON (`name`, `start_ns`, `end_ns`,
    /// `parent`, `self_ns`) to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                (self.self_secs(i) * 1e9) as u64,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let (_, op) = t.span("op", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let total = t.secs(op);
        let child = t.secs(op + 1);
        assert!((t.self_secs(op) - (total - child)).abs() < 1e-6);
        assert_eq!(t.spans()[op + 1].parent, Some(op));
        // Imported children are laid end to end after the last child.
        t.import(op, "b", 0.001);
        assert!(t.spans()[op + 2].start_ns >= t.spans()[op + 1].end_ns);
    }
}
