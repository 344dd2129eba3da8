//! Spans around the replay's calls into each layer: name, start, end,
//! parent and request id, held in memory and written when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Records spans when on; when off, only runs the closures, which is the
/// baseline the tracing overhead is measured against.
pub struct Tracer {
    on: bool,
    origin: Instant,
    request: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Tags the spans that follow with request `id`.
    pub fn request(&mut self, id: u64) {
        self.request = id;
    }

    /// Runs `f` inside a span named `name`, child of the enclosing span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Calls, total time and self time (the span minus its children) of
/// every span with one name.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub total_us: f64,
    pub self_us: f64,
}

impl Totals {
    pub fn mean_us(&self) -> f64 {
        self.total_us / self.calls.max(1) as f64
    }

    pub fn self_mean_us(&self) -> f64 {
        self.self_us / self.calls.max(1) as f64
    }
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.us();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_us) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_us += s.us();
        t.self_us += s.us() - child;
    }
    out
}

/// Writes one tab-separated line per span.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        writeln!(
            w,
            "{id}\t{parent}\t{}\t{}\t{}\t{}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.request(7);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.request == 7));
        let by_name = totals(&t.spans);
        let (outer, inner) = (by_name["outer"], by_name["inner"]);
        assert!(inner.total_us >= 2000.0);
        assert!((outer.self_us - (outer.total_us - inner.total_us)).abs() < 1e-6);
        assert!(outer.self_us < inner.total_us);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 5), 5);
        assert!(off.spans.is_empty());
    }
}
