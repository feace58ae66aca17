//! Spans recorded from outside the program, around each public call the
//! benchmark makes, kept in memory and written out when the run ends.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. An engine span may also carry the
//! phase timers the engine reports about itself (`DpStats`); those are
//! counters named `phase:<layer>` and are carved out of the span's self
//! time, so the item's layers still add up to its wall time.

use crate::json::quote;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for an item root.
    pub parent: Option<usize>,
    /// The item the span belongs to.
    pub item: u64,
    /// Counters the call returned, attached where the work happened.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while enabled; while disabled every method is a no-op
/// and [`Tracer::span`] just calls through.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    item: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            item: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens the root span of item `item`.
    pub fn begin_item(&mut self, item: u64) {
        self.item = item;
        self.open("item");
    }

    pub fn end_item(&mut self) {
        self.close();
    }

    /// Opens a span; returns its index while enabled.
    fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            item: self.item,
            counters: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        self.open.last().copied()
    }

    fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("close matches an open");
        self.spans[idx].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Runs `f` inside a span named `name`, then reads counters off its
    /// result with `count` (after the span has closed) and attaches
    /// them to that span. Returns the result and the counters.
    pub fn span_with<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> T,
        count: impl FnOnce(&T) -> Vec<(&'static str, f64)>,
    ) -> (T, Vec<(&'static str, f64)>) {
        let idx = self.open(name);
        let out = f();
        self.close();
        let counters = count(&out);
        if let Some(i) = idx {
            self.spans[i].counters.clone_from(&counters);
        }
        (out, counters)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("{}:{v}", quote(k)))
                .collect();
            writeln!(
                w,
                "{{\"id\":{id},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"item\":{},\"counters\":{{{}}}}}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.item,
                counters.join(",")
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Where one item's wall time went.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemBreakdown {
    pub item: u64,
    pub wall_ns: u64,
    /// Layer name → self time. The root span's own self time is the
    /// benchmark's remainder, named `other`.
    pub layers: Vec<(&'static str, u64)>,
}

/// Attributes every item's wall time to layers. Self times of spans
/// with the same name add up; `phase:` counters move time from their
/// span's self time to the named phase layer (never more than the span
/// has, so the layers always sum to the item's wall time).
pub fn breakdown(spans: &[Span]) -> Vec<ItemBreakdown> {
    let selfs = self_times(spans);
    let mut items: Vec<ItemBreakdown> = Vec::new();
    let mut root_of = vec![usize::MAX; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let slot = match s.parent {
            None => {
                items.push(ItemBreakdown {
                    item: s.item,
                    wall_ns: s.duration(),
                    layers: Vec::new(),
                });
                items.len() - 1
            }
            Some(p) => root_of[p],
        };
        root_of[i] = slot;
        let layers = &mut items[slot].layers;
        let mut add = |name: &'static str, ns: u64| match layers.iter_mut().find(|l| l.0 == name) {
            Some(l) => l.1 += ns,
            None => layers.push((name, ns)),
        };
        let mut own = selfs[i];
        for &(key, value) in &s.counters {
            if let Some(phase) = key.strip_prefix("phase:") {
                let ns = (value.max(0.0) as u64).min(own);
                own -= ns;
                add(phase, ns);
            }
        }
        add(if s.parent.is_none() { "other" } else { s.name }, own);
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            item: 0,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // item [0,100] ⊃ a [10,40] ⊃ a1 [15,25]; b [50,90]; c [85,95]
        // overlaps b (a defensive case: the union is counted once).
        let spans = vec![
            span("item", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
            span("c", 85, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 45, 20, 10, 40, 10]);
    }

    #[test]
    fn breakdown_sums_to_wall_and_splits_phases() {
        let mut spans = vec![
            span("item", 0, 1000, None),
            span("rctree.read", 0, 100, Some(0)),
            span("dp.optimize", 100, 900, Some(0)),
            span("yield_eval.analyze", 900, 980, Some(0)),
            span("item", 1000, 1500, None),
            span("dp.optimize", 1000, 1400, Some(4)),
        ];
        spans[2].counters = vec![
            ("phase:dp.merge", 300.0),
            ("phase:dp.buffer", 200.0),
            ("generated", 7.0),
        ];
        // More phase time than the span has is clipped, never negative.
        spans[5].counters = vec![("phase:dp.merge", 1e9)];
        spans[4].item = 1;
        spans[5].item = 1;
        let items = breakdown(&spans);
        assert_eq!(items.len(), 2);
        let first = &items[0];
        let get = |name: &str| first.layers.iter().find(|l| l.0 == name).unwrap().1;
        assert_eq!(get("dp.merge"), 300);
        assert_eq!(get("dp.buffer"), 200);
        assert_eq!(get("dp.optimize"), 300);
        assert_eq!(get("rctree.read"), 100);
        assert_eq!(get("other"), 20);
        for it in &items {
            assert_eq!(it.layers.iter().map(|l| l.1).sum::<u64>(), it.wall_ns);
        }
        assert_eq!(items[1].item, 1);
        assert_eq!(
            items[1].layers,
            vec![("other", 100), ("dp.merge", 400), ("dp.optimize", 0)]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let count = |v: &i32| vec![("k", f64::from(*v))];
        t.begin_item(0);
        assert_eq!(t.span("x", || 41 + 1), 42);
        assert_eq!(t.span_with("y", || 7, count), (7, vec![("k", 7.0)]));
        t.end_item();
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.begin_item(3);
        t.span_with("y", || 5, count);
        t.span("z", || ());
        t.end_item();
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].counters, vec![("k", 5.0)]);
        assert!(t.spans()[2].counters.is_empty());
        assert_eq!(t.spans()[0].item, 3);
    }
}
