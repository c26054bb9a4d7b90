//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each of its own calls into a layer
//! crate; the crates themselves are not instrumented. Spans of one step
//! or batch share a `group` id, nest under that step's root span, stay in
//! memory while the run measures, and are written out as JSON lines when
//! it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `models.fwd`.
    pub name: &'static str,
    /// Id shared by every span of one step or batch.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    groups: u64,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
            groups: 0,
        }
    }

    /// A recorder that records nothing, for the untraced run of code
    /// that takes a tracer.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// A fresh id for the spans of one step or batch.
    pub fn next_group(&mut self) -> u64 {
        self.groups += 1;
        self.groups
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, group: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order, a bug in the caller.
    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans closed out of order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, group);
        let r = f();
        self.end(id);
        r
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines: name, group, parent, start and end.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.group, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`, each
/// clipped to that window; overlapping intervals count once.
pub fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(cs, ce)| ce - cs)
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameStats {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
}

impl NameStats {
    /// Mean duration per span, in milliseconds; 0 when none ran.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, c)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, c))
        .collect()
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
    }
    out
}

/// Share of the summed wall of spans named `root` that their children
/// cover.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let self_ns = self_times(spans);
    let (mut wall, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(self_ns) {
        if s.name == root {
            wall += s.dur_ns();
            uncovered += own;
        }
    }
    if wall == 0 {
        0.0
    } else {
        1.0 - uncovered as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            group: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn covered_counts_overlaps_once_and_clips_to_the_window() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (30, 40)]), 20);
        assert_eq!(covered_ns(0, 100, &[(10, 30), (20, 40)]), 30);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (20, 30)]), 20);
        assert_eq!(covered_ns(50, 100, &[(0, 60), (90, 200)]), 20);
        assert_eq!(covered_ns(50, 100, &[(0, 40), (120, 200)]), 0);
    }

    #[test]
    fn self_time_subtracts_only_covered_intervals() {
        let spans = [
            span("step", None, 0, 100),
            span("fwd", Some(0), 10, 40),
            span("bwd", Some(0), 30, 60),
            span("inner", Some(1), 15, 25),
            span("other", None, 200, 300),
        ];
        // step: children cover [10, 60) = 50 of 100; the grandchild and
        // the unrelated root do not count against it.
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10, 100]);
        assert!((coverage(&spans, "step") - 0.5).abs() < 1e-12);
        let by = by_name(&spans);
        assert_eq!(by["fwd"].total_ns, 30);
        assert_eq!(by["step"].count, 1);
    }

    #[test]
    fn tracer_nests_and_serializes() {
        let mut t = Tracer::new();
        let root = t.begin("step", 7);
        let v = t.time("fwd", 7, || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"fwd\",\"group\":7,\"parent\":0"));
    }
}
