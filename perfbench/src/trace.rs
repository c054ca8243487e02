//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] records `(name, start, end, parent)` per call and keeps
//! everything in memory; [`Tracer::write`] saves the spans when the run
//! ends. A span's *self time* is its duration minus the time its direct
//! children cover. A disabled tracer records nothing and costs a branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.try_build`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the outermost enclosing span (the span itself for a
    /// root): every span of one operation shares it.
    pub root: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. Spans nest through [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`, against a shared `origin`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Run `f` inside a span named `name`, nested under whatever span
    /// is open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let root = parent.map_or(index, |p| self.spans[p].root);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            root,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Record a span that was timed elsewhere, nested under whatever
    /// span is open (for calls that overlap rather than nest, such as
    /// requests in flight on two connections at once).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let root = parent.map_or(index, |p| self.spans[p].root);
        let at = |i: Instant| i.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            root,
        });
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Duration of the latest span called `name`, in nanoseconds (NaN
    /// when there is none).
    pub fn last_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(f64::NAN, |s| s.ns() as f64)
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(children) {
            *out.entry(s.name).or_insert(0) += s.ns().saturating_sub(covered);
        }
        out
    }

    /// Mean self time per call of one span name, in seconds (0 when
    /// never entered).
    pub fn self_s_per_call(&self, name: &str) -> f64 {
        let calls = self.spans.iter().filter(|s| s.name == name).count();
        let total = self.self_ns().get(name).copied().unwrap_or(0);
        total as f64 / 1e9 / calls.max(1) as f64
    }

    /// Save the spans as tab-separated `name start_ns end_ns parent
    /// root` lines (`-` for no parent) under a header line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\troot")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.root
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {}
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("op", |t| {
            spin(2);
            t.span("layer.a", |t| {
                spin(3);
                t.span("layer.b", |_| spin(3));
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.root == 0));
        let self_ns = t.self_ns();
        let total: u64 = self_ns.values().sum();
        assert_eq!(total, spans[0].ns(), "self times partition the root");
        assert!(self_ns["layer.a"] >= 3_000_000 && self_ns["layer.a"] < spans[1].ns());
        assert!(self_ns["layer.b"] >= 3_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("x", |_| 5), 5);
        off.record("y", Instant::now(), Instant::now());
        assert!(off.spans().is_empty());
    }
}
