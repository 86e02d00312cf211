//! Harness-side wall-clock spans around the calls into each layer.
//!
//! Spans are `{id, parent, name, start_ns, end_ns}`, held in memory and
//! written out as a Chrome trace when the traced run ends. The program
//! under test is not instrumented; a disabled tracer reads no clock, so
//! end-to-end metrics are taken with tracing off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `id` is its index in [`Tracer::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals derived from the span tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Records a tree of spans on one thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing and reads no clock.
    pub fn off() -> Self {
        Tracer::new(false)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto):
    /// complete events in microseconds with `id`/`parent` in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"harness\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                parent,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Count, total and self time per span name. Self time is a span's
/// duration minus its direct children's durations (children never
/// overlap: one thread, strictly nested).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - children_ns[s.id as usize];
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100) > rep [10,90) > invoke [20,40), invoke [50,80)
        let spans = [
            span(0, None, "run", 0, 100),
            span(1, Some(0), "rep", 10, 90),
            span(2, Some(1), "invoke", 20, 40),
            span(3, Some(1), "invoke", 50, 80),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["run"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            t["rep"],
            NameTotals {
                count: 1,
                total_ns: 80,
                self_ns: 30
            }
        );
        assert_eq!(
            t["invoke"],
            NameTotals {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        // Self times telescope to the root's duration.
        assert_eq!(t.values().map(|n| n.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_and_links_parents() {
        let mut t = Tracer::new(true);
        t.span("run", |t| {
            t.span("a", |t| t.span("b", |_| ()));
            t.span("a", |_| ());
        });
        let parents: Vec<Option<u32>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let totals = totals(t.spans());
        assert_eq!(totals["a"].count, 2);
        let root = &t.spans()[0];
        assert_eq!(
            totals.values().map(|n| n.self_ns).sum::<u64>(),
            root.end_ns - root.start_ns
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.to_chrome_json(), "{\"traceEvents\":[\n]}\n");
    }
}
