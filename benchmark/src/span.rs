//! In-memory spans around the benchmark's calls into each layer.
//!
//! The traced pass runs on one thread, so spans nest strictly: a span's
//! parent is whichever span was open when it started, and siblings never
//! overlap. Spans stay in memory and are written out once, at the end of
//! the run.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Campaign index of the flow the call served, if it served one.
    pub flow: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Calls, total time and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per span, its duration minus the part of that interval its child
/// spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for child in spans {
        if let Some(p) = child.parent {
            let parent = &spans[p as usize];
            let covered = child
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(child.start_ns.max(parent.start_ns));
            own[p as usize] = own[p as usize].saturating_sub(covered);
        }
    }
    own
}

/// Folds spans into per-name totals.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += own;
    }
    out
}

/// Span recorder for the traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span; `f` gets the tracer back to open spans of its own.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        flow: Option<u32>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            flow,
        });
        // The clock is read innermost, so the recorder's own bookkeeping
        // lands in the parent's self time, not in this span.
        self.spans[id as usize].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id as usize].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            flow: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("flow", 0, 100, None),
            // Two adjacent children of the flow...
            span("a", 10, 40, Some(0)),
            span("b", 40, 90, Some(0)),
            // ...the second with a child of its own.
            span("c", 50, 70, Some(2)),
            // A second root is untouched by the first one's children.
            span("flow", 100, 130, None),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20, 30]);
        let t = totals(&spans);
        assert_eq!(
            t["flow"],
            LayerTotal {
                count: 2,
                total_ns: 130,
                self_ns: 50
            }
        );
        assert_eq!(t["b"].self_ns, 30);
        // Self times partition the root spans exactly.
        let self_sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 130);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new();
        let v = t.span("flow", Some(7), |t| {
            t.span("inner", Some(7), |_| 1) + t.span("inner", Some(7), |_| 2)
        });
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].flow), ("flow", None, Some(7)));
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(s[1].end_ns <= s[2].start_ns);
    }
}
