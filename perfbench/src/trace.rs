//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! made), the span that was open when it started, and the request id it
//! belongs to. Spans stay in memory until the run ends; self time is a
//! span's duration minus the time its direct children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// An open span's handle.
#[must_use]
pub struct Open(usize);

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Spans opened from here on belong to a new request.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let i = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(i);
        Open(i)
    }

    pub fn close(&mut self, open: Open) -> u64 {
        let end = self.now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close innermost first");
        let span = &mut self.spans[open.0];
        span.end = end;
        span.ns()
    }

    /// Time `f` as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.open(name);
        let r = f();
        self.close(s);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by index.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Durations of the spans called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Write the first `n` spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, n: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().take(n).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new();
        let root = t.open("root");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let own = t.self_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(own[0], t.spans()[0].ns() - t.spans()[1].ns());
        assert_eq!(own[1], t.spans()[1].ns());
    }
}
