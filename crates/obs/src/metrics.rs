//! Deterministic metrics registry: counters, gauges, and fixed-bucket
//! histograms keyed by `&'static str` names plus label pairs.
//!
//! **A series is exported once written.** A counter or gauge is written
//! once any update reaches it (`add(0)` and `set(0)` included), a
//! histogram once it has been observed; [`Metrics::snapshot`], and so
//! every export, skips the series nothing has written yet. Resolving a
//! handle creates its series but exports nothing, so an owner of a fixed
//! set of series resolves their handles where it is built.
//!
//! Two ways in, for two kinds of event:
//!
//! - **Per-invocation series go through handles.** [`Metrics::counter`],
//!   [`Metrics::gauge`] and [`Metrics::histogram`] resolve a series once
//!   and return a [`Counter`], [`Gauge`] or [`Histogram`] that shares it;
//!   an update through a handle is a `Cell` store (a histogram's, one
//!   bucket search), with no name or label lookup.
//! - **Rare events go by name.** [`Metrics::inc`], [`Metrics::add`],
//!   [`Metrics::gauge_set`] and [`Metrics::observe`] resolve the series
//!   on every call: the name selects a table of label sets kept sorted,
//!   binary-searched with the caller's labels sorted on the stack. That
//!   allocates nothing once the series exists (only its first update
//!   allocates the key), but it is a lookup per update, so it belongs on
//!   failures, retries and other events an invocation does not repeat.
//!
//! [`Metrics::lookups`] counts the by-name resolutions, so a test can pin
//! that a path does none.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Default histogram bucket upper bounds, in nanoseconds: 1µs to 10s in
/// decades. Chosen so one set of buckets covers everything from a page
/// fault (~11µs) to a circuit-breaker cooldown (10s).
pub const DEFAULT_BOUNDS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// The label pairs of one series, sorted.
type Labels = Box<[(&'static str, Box<str>)]>;

/// Every series of one metric name, sorted by labels: iterating the
/// name map and then a family yields series in (name, labels) order.
type Family<T> = Vec<(Labels, T)>;

/// Label sets up to this size are sorted on the stack.
const INLINE_LABELS: usize = 4;

/// Calls `f` with `labels` sorted, without allocating for up to
/// [`INLINE_LABELS`] pairs.
fn with_sorted<'a, R>(
    labels: &[(&'static str, &'a str)],
    f: impl FnOnce(&[(&'static str, &'a str)]) -> R,
) -> R {
    if labels.len() <= INLINE_LABELS {
        let mut buf = [("", ""); INLINE_LABELS];
        let buf = &mut buf[..labels.len()];
        buf.copy_from_slice(labels);
        buf.sort_unstable();
        f(buf)
    } else {
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        f(&sorted)
    }
}

fn cmp_labels(have: &Labels, want: &[(&'static str, &str)]) -> Ordering {
    have.iter()
        .map(|(k, v)| (*k, &**v))
        .cmp(want.iter().copied())
}

/// The series `name{labels}` of `map`, created with `make` if absent,
/// counting the resolution in `lookups`. Finding an existing series
/// allocates nothing.
fn series<'m, T>(
    map: &'m mut BTreeMap<&'static str, Family<T>>,
    lookups: &Cell<u64>,
    name: &'static str,
    labels: &[(&'static str, &str)],
    make: impl FnOnce() -> T,
) -> &'m mut T {
    lookups.set(lookups.get() + 1);
    let family = map.entry(name).or_default();
    let i = with_sorted(labels, |sorted| {
        family
            .binary_search_by(|(have, _)| cmp_labels(have, sorted))
            .unwrap_or_else(|i| {
                let key = sorted.iter().map(|&(k, v)| (k, Box::from(v))).collect();
                family.insert(i, (key, make()));
                i
            })
    });
    &mut family[i].1
}

/// Rendered form: `name` or `name{k=v,k2=v2}` with the labels in the
/// order given (sorted, for every caller), built in one allocation: a
/// snapshot renders every series.
fn render<V: AsRef<str>>(name: &'static str, labels: &[(&'static str, V)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let len: usize = labels
        .iter()
        .map(|(k, v)| k.len() + v.as_ref().len() + 2)
        .sum();
    let mut out = String::with_capacity(name.len() + len + 1);
    out.push_str(name);
    for (i, (k, v)) in labels.iter().enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        out.push_str(k);
        out.push('=');
        out.push_str(v.as_ref());
    }
    out.push('}');
    out
}

fn render_key(name: &'static str, labels: &[(&'static str, &str)]) -> String {
    with_sorted(labels, |sorted| render(name, sorted))
}

/// Every written series of `map` in (name, labels) order, rendered,
/// with its value: `f` of a series is `None` while nothing has written it.
fn rendered<T, V>(
    map: &BTreeMap<&'static str, Family<T>>,
    f: impl Fn(&T) -> Option<V>,
) -> BTreeMap<String, V> {
    map.iter()
        .flat_map(|(&name, family)| {
            family
                .iter()
                .map(move |(labels, value)| (name, labels, value))
        })
        .filter_map(|(name, labels, value)| f(value).map(|v| (render(name, labels), v)))
        .collect()
}

#[derive(Debug, Clone, Default)]
struct Buckets {
    /// One count per bound of [`DEFAULT_BOUNDS`], plus a trailing
    /// overflow bucket.
    counts: [u64; DEFAULT_BOUNDS.len() + 1],
    count: u64,
    sum: u128,
}

impl Buckets {
    fn observe(&mut self, value: u64) {
        let idx = DEFAULT_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(DEFAULT_BOUNDS.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += u128::from(value);
    }
}

/// A counter or gauge cell: `None` until its first update.
type Scalar<T> = Rc<Cell<Option<T>>>;

#[derive(Debug, Default)]
struct MetricsInner {
    counters: BTreeMap<&'static str, Family<Scalar<u64>>>,
    gauges: BTreeMap<&'static str, Family<Scalar<i64>>>,
    histograms: BTreeMap<&'static str, Family<Rc<RefCell<Buckets>>>>,
    /// By-name resolutions so far (see [`Metrics::lookups`]).
    lookups: Cell<u64>,
}

/// A pre-resolved counter series: updates are a single `Cell` store.
///
/// Obtained from [`Metrics::counter`]; clones share the series. The
/// handle stays live after snapshots — it points at the same cell the
/// registry renders.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Scalar<u64>,
}

impl Counter {
    /// Increments by 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cell.set(Some(self.get().wrapping_add(delta)));
    }

    /// Current value (0 until written).
    pub fn get(&self) -> u64 {
        self.cell.get().unwrap_or(0)
    }
}

/// A pre-resolved gauge series: updates are a single `Cell` store.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Scalar<i64>,
}

impl Gauge {
    /// Sets the gauge (last write wins).
    #[inline]
    pub fn set(&self, value: i64) {
        self.cell.set(Some(value));
    }

    /// Current value (0 until set).
    pub fn get(&self) -> i64 {
        self.cell.get().unwrap_or(0)
    }
}

/// A pre-resolved histogram series: an update finds its bucket and
/// bumps it, with no name or label lookup.
///
/// Obtained from [`Metrics::histogram`]; clones share the series.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Rc<RefCell<Buckets>>,
}

impl Histogram {
    /// Records one observation: it lands in the first bucket whose upper
    /// bound is `>= value`, else overflow.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets.borrow_mut().observe(value);
    }
}

/// A registry of counters, gauges, and fixed-bucket histograms.
///
/// Handles are cheap clones sharing one interior-mutable store, like
/// [`fireworks_sim::Clock`]. All iteration is over [`BTreeMap`]s, so
/// snapshots and exports are deterministic regardless of insertion
/// order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Rc<RefCell<MetricsInner>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increments a counter by 1.
    pub fn inc(&self, name: &'static str, labels: &[(&'static str, &str)]) {
        self.add(name, labels, 1);
    }

    /// Increments a counter by `delta`.
    pub fn add(&self, name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
        self.counter(name, labels).add(delta);
    }

    /// Resolves (creating if absent) a [`Counter`] handle for the
    /// series. Resolve once, then update through the handle on hot
    /// paths. The series is exported once an update reaches it, so an
    /// owner resolves its handles where it is built.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        let inner = &mut *self.inner.borrow_mut();
        let cell = series(
            &mut inner.counters,
            &inner.lookups,
            name,
            labels,
            Rc::default,
        );
        Counter {
            cell: Rc::clone(cell),
        }
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &'static str, labels: &[(&'static str, &str)], value: i64) {
        self.gauge(name, labels).set(value);
    }

    /// Resolves (creating if absent) a [`Gauge`] handle for the series,
    /// exported once set.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        let inner = &mut *self.inner.borrow_mut();
        let cell = series(&mut inner.gauges, &inner.lookups, name, labels, Rc::default);
        Gauge {
            cell: Rc::clone(cell),
        }
    }

    /// Resolves (creating if absent, empty, over [`DEFAULT_BOUNDS`]) a
    /// [`Histogram`] handle for the series, exported once observed.
    pub fn histogram(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Histogram {
        let inner = &mut *self.inner.borrow_mut();
        let buckets = series(
            &mut inner.histograms,
            &inner.lookups,
            name,
            labels,
            Rc::default,
        );
        Histogram {
            buckets: Rc::clone(buckets),
        }
    }

    /// Records one observation into histogram `name`. The value lands in
    /// the first bucket whose upper bound is `>= value`, else overflow.
    pub fn observe(&self, name: &'static str, labels: &[(&'static str, &str)], value: u64) {
        self.histogram(name, labels).observe(value);
    }

    /// How many times a series has been looked up by name and labels so
    /// far: every by-name update and every handle resolution counts one.
    /// Updates through a handle count none.
    pub fn lookups(&self) -> u64 {
        self.inner.borrow().lookups.get()
    }

    /// A point-in-time copy of every written series, for assertions and
    /// export.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        MetricsSnapshot {
            counters: rendered(&inner.counters, |v| v.get()),
            gauges: rendered(&inner.gauges, |v| v.get()),
            histograms: rendered(&inner.histograms, |h| {
                let h = h.borrow();
                (h.count > 0).then(|| HistogramSnapshot {
                    bounds: DEFAULT_BOUNDS.to_vec(),
                    counts: h.counts.to_vec(),
                    count: h.count,
                    sum: h.sum,
                })
            }),
        }
    }
}

/// A frozen copy of one histogram series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (inclusive), ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; the trailing entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u128,
}

/// A frozen, deterministic copy of a [`Metrics`] registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, or 0 if the series was never written.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> u64 {
        self.counters
            .get(&render_key(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Gauge value, or `None` if never set.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Option<i64> {
        self.gauges.get(&render_key(name, labels)).copied()
    }

    /// Histogram series, or `None` if it has no observations.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Option<&HistogramSnapshot> {
        self.histograms.get(&render_key(name, labels))
    }

    /// All counters, by rendered key, sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, by rendered key, sorted.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Whether the snapshot holds no series at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Compact deterministic JSON:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", crate::json::escape(k));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", crate::json::escape(k));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{{\"bounds\":[", crate::json::escape(k));
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(out, "],\"count\":{},\"sum\":{}}}", h.count, h.sum);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let m = Metrics::new();
        m.inc("core.cache.hits", &[]);
        m.inc("core.cache.hits", &[]);
        m.add("store.docstore.requests", &[("op", "get")], 3);
        m.inc("store.docstore.requests", &[("op", "put")]);
        let s = m.snapshot();
        assert_eq!(s.counter("core.cache.hits", &[]), 2);
        assert_eq!(s.counter("store.docstore.requests", &[("op", "get")]), 3);
        assert_eq!(s.counter("store.docstore.requests", &[("op", "put")]), 1);
        assert_eq!(s.counter("store.docstore.requests", &[("op", "scan")]), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let m = Metrics::new();
        m.inc("net.host.drops", &[("ns", "1"), ("proto", "udp")]);
        m.inc("net.host.drops", &[("proto", "udp"), ("ns", "1")]);
        let s = m.snapshot();
        assert_eq!(
            s.counter("net.host.drops", &[("ns", "1"), ("proto", "udp")]),
            2
        );
    }

    #[test]
    fn gauges_keep_the_last_write() {
        let m = Metrics::new();
        m.gauge_set("guestmem.clone.pss_bytes", &[("function", "fact")], 900);
        m.gauge_set("guestmem.clone.pss_bytes", &[("function", "fact")], 750);
        let s = m.snapshot();
        assert_eq!(
            s.gauge("guestmem.clone.pss_bytes", &[("function", "fact")]),
            Some(750)
        );
        assert_eq!(
            s.gauge("guestmem.clone.pss_bytes", &[("function", "mapper")]),
            None
        );
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let m = Metrics::new();
        // Exactly on a bound lands in that bucket; one past it spills over.
        for v in [0, 1_000, 1_001, 10_000, 10_001, u64::MAX] {
            m.observe("lat", &[], v);
        }
        let s = m.snapshot();
        let h = s.histogram("lat", &[]).expect("observed");
        assert_eq!(h.bounds, DEFAULT_BOUNDS.to_vec());
        assert_eq!(h.counts, vec![2, 2, 1, 0, 0, 0, 0, 0, 1]);
        assert_eq!(h.count, 6);
        assert_eq!(
            h.sum,
            1_000 + 1_001 + 10_000 + 10_001 + u128::from(u64::MAX)
        );
    }

    #[test]
    fn default_bounds_cover_microseconds_to_seconds() {
        let m = Metrics::new();
        m.observe("core.invoke.latency_ns", &[], 11_000); // 11µs page fault
        m.observe("core.invoke.latency_ns", &[], 10_000_000_000); // 10s cooldown
        m.observe("core.invoke.latency_ns", &[], 10_000_000_001); // overflow
        let s = m.snapshot();
        let h = s.histogram("core.invoke.latency_ns", &[]).unwrap();
        assert_eq!(h.bounds, DEFAULT_BOUNDS.to_vec());
        assert_eq!(h.counts.len(), DEFAULT_BOUNDS.len() + 1);
        assert_eq!(h.counts[DEFAULT_BOUNDS.len()], 1, "one overflow");
        assert_eq!(h.count, 3);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let m = Metrics::new();
        m.inc("z.last", &[]);
        m.inc("a.first", &[]);
        m.gauge_set("mid.gauge", &[], -5);
        m.observe("h", &[], 2);
        let json = m.snapshot().to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a.first\":1,\"z.last\":1},\"gauges\":{\"mid.gauge\":-5},\
             \"histograms\":{\"h\":{\"bounds\":[1000,10000,100000,1000000,10000000,\
             100000000,1000000000,10000000000],\"counts\":[1,0,0,0,0,0,0,0,0],\
             \"count\":1,\"sum\":2}}}"
        );
        crate::json::validate(&json).expect("well-formed");
        assert_eq!(json, m.snapshot().to_json(), "stable across snapshots");
    }

    #[test]
    fn clones_share_one_store() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.inc("shared", &[]);
        assert_eq!(m.snapshot().counter("shared", &[]), 1);
    }

    #[test]
    fn counter_handles_share_the_series_with_by_name_writes() {
        let m = Metrics::new();
        let h = m.counter("engine.completions", &[("host", "0")]);
        h.inc();
        h.add(4);
        m.inc("engine.completions", &[("host", "0")]);
        assert_eq!(h.get(), 6);
        assert_eq!(
            m.snapshot().counter("engine.completions", &[("host", "0")]),
            6
        );
        let again = m.counter("engine.completions", &[("host", "0")]);
        again.inc();
        assert_eq!(h.get(), 7, "re-resolving returns the same cell");
    }

    #[test]
    fn gauge_handles_share_the_series() {
        let m = Metrics::new();
        let g = m.gauge("engine.inflight", &[]);
        g.set(3);
        m.gauge_set("engine.inflight", &[], 9);
        assert_eq!(g.get(), 9);
        assert_eq!(m.snapshot().gauge("engine.inflight", &[]), Some(9));
    }

    #[test]
    fn histogram_handles_share_the_series_with_by_name_observes() {
        let m = Metrics::new();
        let h = m.histogram("core.invoke.latency_ns", &[]);
        h.observe(7);
        m.observe("core.invoke.latency_ns", &[], 5_000);
        h.observe(20_000_000_000);
        let s = m.snapshot();
        let got = s
            .histogram("core.invoke.latency_ns", &[])
            .expect("observed");
        assert_eq!(got.counts, vec![1, 1, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!((got.count, got.sum), (3, 20_000_005_007));

        let labelled = m.histogram("core.invoke.latency_ns", &[("function", "fact")]);
        m.observe("core.invoke.latency_ns", &[("function", "fact")], 5);
        labelled.observe(5);
        let s = m.snapshot();
        let got = s
            .histogram("core.invoke.latency_ns", &[("function", "fact")])
            .expect("one series");
        assert_eq!((got.counts[0], got.count), (2, 2));
    }

    #[test]
    fn lookups_count_by_name_resolutions_and_no_handle_updates() {
        let m = Metrics::new();
        let c = m.counter("a", &[]);
        let g = m.gauge("b", &[]);
        let h = m.histogram("c", &[]);
        assert_eq!(m.lookups(), 3);
        c.add(2);
        g.set(4);
        h.observe(9);
        assert_eq!(m.lookups(), 3, "handle updates look nothing up");
        m.inc("a", &[]);
        m.gauge_set("b", &[], 1);
        m.observe("c", &[], 1);
        assert_eq!(m.lookups(), 6);
        let _ = m.snapshot();
        assert_eq!(m.lookups(), 6, "a snapshot is not a lookup");
    }

    #[test]
    fn resolved_series_are_exported_only_once_written() {
        let m = Metrics::new();
        let (c, g, h) = (
            m.counter("c", &[]),
            m.gauge("g", &[]),
            m.histogram("h", &[]),
        );
        let empty = m.snapshot();
        assert!(empty.is_empty(), "resolving writes nothing");
        assert_eq!(
            empty.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
        c.add(0);
        g.set(0);
        let s = m.snapshot();
        assert_eq!(s.counters().collect::<Vec<_>>(), [("c", 0)]);
        assert_eq!(s.gauge("g", &[]), Some(0));
        assert!(s.histogram("h", &[]).is_none(), "not observed yet");
        h.observe(0);
        let s = m.snapshot();
        let got = s.histogram("h", &[]).expect("observed once");
        assert_eq!((got.count, got.sum, got.counts[0]), (1, 0, 1));
        crate::json::validate(&s.to_json()).expect("well-formed");
    }

    #[test]
    fn a_handle_resolved_before_a_by_name_write_shares_its_series() {
        let m = Metrics::new();
        let (c, g, h) = (
            m.counter("c", &[]),
            m.gauge("g", &[]),
            m.histogram("h", &[]),
        );
        m.inc("c", &[]);
        m.gauge_set("g", &[], 3);
        m.observe("h", &[], 9);
        assert_eq!((c.get(), g.get()), (1, 3));
        h.observe(1);
        let s = m.snapshot();
        assert_eq!((s.counter("c", &[]), s.gauge("g", &[])), (1, Some(3)));
        assert_eq!(s.histogram("h", &[]).map(|h| h.count), Some(2));
    }
}
