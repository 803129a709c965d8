//! Host-time spans and counters that the benchmark records around its
//! calls into the repository's public APIs, and the self-time
//! arithmetic over them.
//!
//! A span names the layer a call belongs to (`compiler.map`,
//! `sim.run`, ...). Spans nest: a span's *self* time is its duration
//! minus the durations of its direct children, so summing self times
//! over every span counts each host nanosecond once. Time inside the
//! measured region that no span covers is `other`.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// One closed span: `[start, end)` in seconds from the ledger's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Spans and counters of one single-threaded replay.
pub struct Ledger {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
    distinct: BTreeMap<&'static str, HashSet<Vec<u8>>>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            distinct: BTreeMap::new(),
        }
    }
}

impl Ledger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Seconds since the ledger was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ledger) -> T) -> T {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: usize) {
        *self.counts.entry(name).or_default() += n as u64;
    }

    /// Records `key` under `name`; [`Ledger::distinct`] reports how
    /// many different keys were seen.
    pub fn note(&mut self, name: &'static str, key: Vec<u8>) {
        self.distinct.entry(name).or_default().insert(key);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn distinct(&self, name: &str) -> u64 {
        self.distinct.get(name).map_or(0, |s| s.len() as u64)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: each span's duration minus its direct
/// children's durations, summed by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.duration();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_time) {
        *out.entry(s.name).or_insert(0.0) += s.duration() - c;
    }
    out
}

/// Inclusive time per span name: durations, children included, summed
/// by name. (No span nests inside one of its own name.)
pub fn inclusive_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.duration();
    }
    out
}

/// Time inside a measured region of `wall` seconds that no span covers:
/// the wall minus the top-level spans.
pub fn uncovered(spans: &[Span], wall: f64) -> f64 {
    wall - spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration)
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // prepare [0,10) > node_accel [1,7) > map [2,5); stitcher [8,9).
        let spans = vec![
            span("prepare", 0.0, 10.0, None),
            span("node_accel", 1.0, 7.0, Some(0)),
            span("map", 2.0, 5.0, Some(1)),
            span("stitcher", 8.0, 9.0, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["prepare"], 3.0);
        assert_eq!(st["node_accel"], 3.0);
        assert_eq!(st["map"], 3.0);
        assert_eq!(st["stitcher"], 1.0);
        // Self times partition the covered time.
        assert_eq!(st.values().sum::<f64>(), 10.0);
        let inc = inclusive_times(&spans);
        assert_eq!(inc["prepare"], 10.0);
        assert_eq!(inc["node_accel"], 6.0);
    }

    #[test]
    fn self_times_plus_other_equal_the_wall() {
        let spans = vec![
            span("a", 0.5, 2.0, None),
            span("b", 1.0, 1.5, Some(0)),
            span("a", 3.0, 4.0, None),
        ];
        let wall = 5.0;
        let other = uncovered(&spans, wall);
        assert_eq!(other, 2.5);
        let total: f64 = self_times(&spans).values().sum();
        assert_eq!(total + other, wall);
    }

    #[test]
    fn recorded_spans_nest_and_count() {
        let mut l = Ledger::new();
        let v = l.span("outer", |l| {
            l.count("calls", 2);
            l.note("keys", vec![1]);
            l.note("keys", vec![1]);
            l.note("keys", vec![2]);
            l.span("inner", |_| 7)
        });
        assert_eq!(v, 7);
        assert_eq!(l.spans().len(), 2);
        assert_eq!(l.spans()[1].parent, Some(0));
        assert!(l.spans()[0].duration() >= l.spans()[1].duration());
        assert_eq!(l.counter("calls"), 2);
        assert_eq!(l.distinct("keys"), 2);
        assert_eq!(l.counter("missing"), 0);
    }
}
