//! In-memory spans around each call into a layer.
//!
//! A span holds its name, start, end, parent and the id of the operation
//! (round or query) it belongs to. Spans stay in memory while the run
//! measures and are written out as JSON lines when it ends. A layer's self
//! time is its span's duration minus the part of it that child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The root operation this span belongs to.
    pub request: u64,
}

/// Records spans for one thread. A disabled tracer runs the closures and
/// records nothing.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags later spans with operation `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        if let Some(s) = self.spans.get_mut(idx) {
            s.end = end;
        }
        out
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }
}

/// Per span name: (self nanoseconds, calls).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = s.parent.and_then(|p| children.get_mut(p)) {
            list.push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_within(kids, s.start, s.end);
        let entry = out.entry(s.name).or_default();
        entry.0 += (s.end - s.start).saturating_sub(covered);
        entry.1 += 1;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Writes one JSON object per span to `path`, creating its directory.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
            s.name, s.start, s.end, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a", 20, 40, Some(0)),  // overlaps the first child
            span("b", 90, 120, Some(0)), // runs past its parent
            span("leaf", 12, 18, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (100 - 30 - 10, 1));
        assert_eq!(t["a"], (20 - 6 + 20, 2));
        assert_eq!(t["b"], (30, 1));
        assert_eq!(t["leaf"], (6, 1));
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_request() {
        let mut t = Tracer::new(Instant::now(), true);
        t.set_request(7);
        let v = t.span("outer", |t| t.span("inner", |_| 42));
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut other = Tracer::new(Instant::now(), true);
        other.span("x", |t| t.span("y", |_| ()));
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, Some(2));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("outer", |t| t.span("inner", |_| 1)), 1);
        assert!(t.spans().is_empty());
    }
}
