//! Spans recorded around the benchmark's own calls into the server's
//! layers: over HTTP (the front end plus a handler) and directly into
//! the layers' public functions. Nothing inside the program is
//! instrumented.
//!
//! Each thread owns a [`Trace`] buffer, so recording takes no lock; the
//! buffers are merged when the run ends and written out as JSON lines.
//! A disabled trace records nothing and costs one branch per span.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `http.query` or `store.ingest_batch`.
    pub name: &'static str,
    /// Unique within a run.
    pub id: u64,
    /// The span this one was called from, if any.
    pub parent: Option<u64>,
    /// Request (or operation) id shared by every span of one request.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span, closed with [`Trace::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    request: u64,
    start: Option<Instant>,
}

impl Open {
    /// This span's id, for use as a child's parent.
    pub fn id(&self) -> Option<u64> {
        self.start.map(|_| self.id)
    }
}

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    /// High bits of every id this buffer hands out, so ids from
    /// different threads never collide.
    lane: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Trace {
    /// A buffer for lane `lane` (one per thread); `enabled = false`
    /// makes every call a no-op.
    pub fn new(enabled: bool, origin: Instant, lane: u64) -> Self {
        Self {
            enabled,
            origin,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Opens a span. `request` groups the spans of one request.
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> Open {
        self.next += 1;
        Open {
            name,
            id: (self.lane << 40) | self.next,
            parent,
            request,
            start: self.enabled.then(Instant::now),
        }
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(start) = open.start {
            let end = Instant::now();
            self.spans.push(Span {
                name: open.name,
                id: open.id,
                parent: open.parent,
                request: open.request,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            });
        }
    }

    /// Records a span whose instants were measured elsewhere; returns
    /// its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        self.next += 1;
        let id = (self.lane << 40) | self.next;
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        });
        Some(id)
    }

    /// Takes the recorded spans, leaving the buffer empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the part of each span covered by its
    /// children.
    pub self_ns: u64,
}

/// A layer's self time: each span's duration minus the union of its
/// children's intervals (clipped to the parent), summed per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total - covered.min(total);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Renders spans as JSON lines (one object per span).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name, s.id, s.request, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            request: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100] ─ a [10,40] ─ c [15,20]
        //              └ b [30,60]   (overlaps a: union is [10,60])
        let spans = vec![
            span("root", 1, None, 0, 100),
            span("a", 2, Some(1), 10, 40),
            span("b", 3, Some(1), 30, 60),
            span("c", 4, Some(2), 15, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["root"].self_ns, 50);
        assert_eq!(t["a"].self_ns, 25);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 5);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("p", 1, None, 10, 20),
            span("k", 2, Some(1), 5, 15),
            span("p", 3, None, 30, 40),
        ];
        let t = self_times(&spans);
        assert_eq!(t["p"].count, 2);
        assert_eq!(t["p"].total_ns, 20);
        assert_eq!(t["p"].self_ns, 15);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false, Instant::now(), 0);
        let open = t.begin("x", None, 0);
        assert_eq!(open.id(), None);
        t.end(open);
        assert!(t.take().is_empty());
        let mut t = Trace::new(true, Instant::now(), 3);
        let outer = t.begin("outer", None, 7);
        let inner = t.begin("inner", outer.id(), 7);
        t.end(inner);
        t.end(outer);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some((3 << 40) | 1));
    }
}
