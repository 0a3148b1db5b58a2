//! In-memory spans for the traced run, and the self-time arithmetic.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (spans inside the program are ROADMAP item 1). A served
//! turn's root span is the client-measured round trip; its children are
//! **shadow spans**: the same request replayed against an in-process
//! mirror right after the reply arrives. A shadow span keeps its measured
//! duration but is laid out inside its parent, after the previous child,
//! so that "self time = span − covered children" reads the same as for
//! spans recorded in place.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`serve.protocol.parse_request`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by every span of one request (the wire `id`).
    pub request_id: u64,
    /// Measured on the mirror and re-based into the parent (see module docs).
    pub shadow: bool,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Per span: where the next shadow child starts.
    cursor: Vec<u64>,
    clipped: usize,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            cursor: Vec::new(),
            clipped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span measured in place.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request_id: u64,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
            shadow: false,
        })
    }

    /// Record a shadow child of `parent` lasting `duration_ns`, placed
    /// right after `parent`'s previous children. A replay that took longer
    /// than what is left of the parent (the mirror had a slower moment
    /// than the server) is cut at the parent's end and counted in
    /// [`Tracer::clipped`], so a parent always equals the self times of
    /// its subtree.
    pub fn shadow(&mut self, name: &'static str, parent: SpanId, duration_ns: u64) -> SpanId {
        let start_ns = self.cursor[parent];
        let end_ns = (start_ns + duration_ns).min(self.spans[parent].end_ns.max(start_ns));
        self.clipped += usize::from(end_ns < start_ns + duration_ns);
        self.cursor[parent] = end_ns;
        let request_id = self.spans[parent].request_id;
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            request_id,
            shadow: true,
        })
    }

    /// Shadow spans that had to be cut to fit their parent.
    pub fn clipped(&self) -> usize {
        self.clipped
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.cursor.push(span.start_ns);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its direct children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// The trace file: one JSON array of span objects.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 110 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{},\"shadow\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request_id, s.shadow
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
/// Overlapping children are counted once; a child reaching past its
/// parent only counts for the part inside it.
pub fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn coverage_unions_and_clips() {
        assert_eq!(covered(0, 100, &mut []), 0);
        assert_eq!(covered(0, 100, &mut [(10, 30), (50, 60)]), 30);
        // Overlap counted once, order irrelevant.
        assert_eq!(covered(0, 100, &mut [(20, 40), (10, 30)]), 30);
        // Nested child adds nothing.
        assert_eq!(covered(0, 100, &mut [(10, 90), (20, 30)]), 80);
        // Clipped to the parent on both sides.
        assert_eq!(covered(50, 100, &mut [(0, 60), (90, 150)]), 20);
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let at = |ns: u64| e + Duration::from_nanos(ns);
        let root = t.record("root", at(1_000), at(11_000), None, 42);
        let a = t.shadow("a", root, 2_000);
        let b = t.shadow("b", root, 3_000);
        let a1 = t.shadow("a1", a, 500);
        let s = t.spans();
        // Shadow children are laid end to end from the parent's start and
        // inherit its request id.
        assert_eq!((s[a].start_ns, s[a].end_ns), (1_000, 3_000));
        assert_eq!((s[b].start_ns, s[b].end_ns), (3_000, 6_000));
        assert_eq!((s[a1].start_ns, s[a1].end_ns), (1_000, 1_500));
        assert!(s.iter().all(|x| x.request_id == 42));
        let st = t.self_times();
        assert_eq!(st[root], 10_000 - 5_000);
        assert_eq!(st[a], 2_000 - 500);
        assert_eq!(st[b], 3_000);
        assert_eq!(st[a1], 500);
        // The children's self times plus the root's own sum to the root.
        assert_eq!(st.iter().sum::<u64>(), s[root].duration_ns());
    }

    #[test]
    fn a_shadow_child_longer_than_its_parent_is_cut_and_counted() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let root = t.record("root", e, e + Duration::from_nanos(1_000), None, 1);
        let a = t.shadow("a", root, 600);
        let big = t.shadow("big", root, 5_000);
        let late = t.shadow("late", root, 10);
        assert_eq!(t.spans()[big].end_ns, 1_000);
        assert_eq!(t.spans()[late].duration_ns(), 0);
        assert_eq!(t.clipped(), 2);
        let st = t.self_times();
        assert_eq!((st[root], st[a], st[big]), (0, 600, 400));
        assert_eq!(st.iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn trace_file_is_a_json_array_of_spans() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let root = t.record("root", e, e + Duration::from_nanos(10), None, 7);
        t.shadow("kid", root, 4);
        let json = t.to_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"name\":\"kid\",\"start_ns\":0,\"end_ns\":4,\"parent\":0,\"request_id\":7,\"shadow\":true"));
    }
}
