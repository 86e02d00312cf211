//! Hierarchical spans and instant events over virtual time.

use std::cell::RefCell;
use std::rc::Rc;

use fireworks_sim::trace::{Breakdown, Phase};
use fireworks_sim::{Clock, Nanos};

/// Span category names used across the workspace.
///
/// Categories are coarse "which subsystem" tags (Chrome trace-event
/// `cat` fields); the span *name* carries the fine-grained operation.
pub mod cat {
    /// VM lifecycle: VMM setup, kernel boot, guest init, pause/resume.
    pub const BOOT: &str = "boot";
    /// Snapshot restore: file read, checksum verify, page mapping.
    pub const RESTORE: &str = "restore";
    /// REAP working-set prefetching and cold-storage paging.
    pub const PREFETCH: &str = "prefetch";
    /// Snapshot cache lookups, inserts, evictions, quarantines.
    pub const CACHE: &str = "cache";
    /// Host networking: namespaces, NAT, delivery, retransmits.
    pub const NET: &str = "net";
    /// Injected faults (one instant event per injection).
    pub const FAULT: &str = "fault";
    /// Document-store requests and outages.
    pub const STORE: &str = "store";
    /// Guest-memory accounting: CoW sharing, PSS recomputation.
    pub const MEM: &str = "mem";
    /// Snapshot capture (the install-time write).
    pub const SNAPSHOT: &str = "snapshot";
    /// Guest execution: framework path, function body, guest I/O.
    pub const EXEC: &str = "exec";
    /// Top-level platform operations (one root span per invocation).
    pub const INVOKE: &str = "invoke";
    /// Admission queueing: time spent waiting for a slot (host queue or
    /// cluster queue), recorded retroactively at service start.
    pub const QUEUE: &str = "queue";
    /// Router decisions and placement events (zero virtual width).
    pub const ROUTE: &str = "route";
    /// Control-plane artifact movement: drain hand-offs, archive
    /// resurrections, prewarm pulls.
    pub const MIGRATE: &str = "migrate";
}

/// Identifier of one end-to-end request trace. Ids are minted
/// sequentially from 1 by [`Recorder::next_trace_id`]; every span and
/// instant belonging to the request carries the same id, across hosts,
/// so exports can be regrouped into per-request causal trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw id (1-based, dense per recorder).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a trace id from its raw value (for carrying trace
    /// context across API boundaries that serialize it).
    pub fn from_raw(raw: u64) -> Self {
        TraceId(raw)
    }
}

/// Propagated trace context: which trace a downstream operation belongs
/// to and which span caused it. Carried on `InvokeRequest` so platform
/// internals can join the caller's tree even when invoked outside an
/// open span (e.g. a direct blocking `invoke`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The request's trace.
    pub trace: TraceId,
    /// The causing span (becomes the parent of adopted spans).
    pub parent: SpanId,
}

/// Identifier of one recorded span. Ids are assigned sequentially from 1
/// by the [`Recorder`] that created the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw id (1-based, dense).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A typed attribute value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (page counts, bytes).
    Uint(u64),
    /// A float (ratios).
    Float(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl AttrValue {
    /// Renders the value as a JSON literal.
    pub fn to_json(&self) -> String {
        match self {
            AttrValue::Int(v) => v.to_string(),
            AttrValue::Uint(v) => v.to_string(),
            AttrValue::Float(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                }
            }
            AttrValue::Str(s) => crate::json::escape(s),
            AttrValue::Bool(b) => b.to_string(),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Uint(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Uint(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::Uint(u64::from(v))
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<Nanos> for AttrValue {
    fn from(v: Nanos) -> Self {
        AttrValue::Uint(v.as_nanos())
    }
}

/// One recorded interval of virtual time.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// The span that was open when this one started, if any.
    pub parent: Option<SpanId>,
    /// Operation name (e.g. `"kernel_boot"`).
    pub name: String,
    /// Subsystem category (see [`cat`]).
    pub category: &'static str,
    /// Latency-breakdown phase, if this span feeds the paper's
    /// three-way split. `None` inherits the nearest phased ancestor.
    pub phase: Option<Phase>,
    /// Virtual start instant.
    pub start: Nanos,
    /// Virtual end instant; `None` while the span is still open.
    pub end: Option<Nanos>,
    /// Typed attributes, in attachment order.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// The request trace this span belongs to; inherited from the parent
    /// span at open time, `None` for standalone platform work.
    pub trace: Option<TraceId>,
    /// Perfetto flow-event ids this span *starts* (causal edges to spans
    /// on other hosts or later events).
    pub flows_out: Vec<u64>,
    /// Perfetto flow-event ids this span *receives*.
    pub flows_in: Vec<u64>,
}

impl SpanRecord {
    /// Span duration, treating a still-open span as ending at `now`.
    pub fn duration_at(&self, now: Nanos) -> Nanos {
        self.end.unwrap_or(now).max(self.start) - self.start
    }
}

/// A zero-width event (fault injections, cache hits, retransmits).
#[derive(Debug, Clone)]
pub struct InstantRecord {
    /// The span that was open when the event fired, if any.
    pub parent: Option<SpanId>,
    /// Event name (e.g. `"fault:snapshot_read"`).
    pub name: String,
    /// Subsystem category (see [`cat`]).
    pub category: &'static str,
    /// Virtual instant of the event.
    pub at: Nanos,
    /// Typed attributes, in attachment order.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// The request trace this event belongs to (inherited from the
    /// parent span).
    pub trace: Option<TraceId>,
}

/// One entry of a recorder's event log, in recording order.
#[derive(Debug, Clone)]
pub enum Event {
    /// An interval.
    Span(SpanRecord),
    /// A zero-width event.
    Instant(InstantRecord),
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Event>,
    /// `events` index of span id `i + 1`.
    span_pos: Vec<usize>,
    /// Stack of currently open spans (innermost last).
    open: Vec<SpanId>,
    /// Trace ids minted so far (the next is `minted_traces + 1`).
    minted_traces: u64,
}

impl Inner {
    fn span_mut(&mut self, id: SpanId) -> &mut SpanRecord {
        let pos = self.span_pos[(id.0 - 1) as usize];
        match &mut self.events[pos] {
            Event::Span(s) => s,
            Event::Instant(_) => unreachable!("span_pos points at spans only"),
        }
    }

    fn span_ref(&self, id: SpanId) -> &SpanRecord {
        let pos = self.span_pos[(id.0 - 1) as usize];
        match &self.events[pos] {
            Event::Span(s) => s,
            Event::Instant(_) => unreachable!("span_pos points at spans only"),
        }
    }

    fn trace_of(&self, id: SpanId) -> Option<TraceId> {
        self.span_ref(id).trace
    }

    /// Appends a zero-width event under `parent`, inheriting its trace.
    fn push_instant(
        &mut self,
        parent: Option<SpanId>,
        name: String,
        category: &'static str,
        at: Nanos,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        let trace = parent.and_then(|p| self.trace_of(p));
        self.events.push(Event::Instant(InstantRecord {
            parent,
            name,
            category,
            at,
            attrs,
            trace,
        }));
    }

    /// `root` and its descendant spans, in id (= recording) order.
    ///
    /// Spans nest through the open stack, so everything recorded while
    /// `root` was open sits directly behind it in the log: the subtree is
    /// the run of spans after `root` whose parent is inside the run, and
    /// the walk stops at the first span parented outside it (the cost is
    /// the subtree's size, wherever `root` sits in the log). An id this
    /// recorder never issued has an empty subtree.
    fn subtree_spans(&self, root: SpanId) -> impl Iterator<Item = &SpanRecord> {
        self.span_pos
            .get((root.0 - 1) as usize..)
            .unwrap_or_default()
            .iter()
            .map(|&pos| match &self.events[pos] {
                Event::Span(s) => s,
                Event::Instant(_) => unreachable!("span_pos points at spans only"),
            })
            .take_while(move |s| s.id == root || s.parent.is_some_and(|p| p >= root))
    }

    /// Appends a span record, wiring the id/position tables. The caller
    /// decides whether it goes on the open stack.
    #[allow(clippy::too_many_arguments)]
    fn push_span(
        &mut self,
        parent: Option<SpanId>,
        name: String,
        category: &'static str,
        phase: Option<Phase>,
        trace: Option<TraceId>,
        start: Nanos,
        end: Option<Nanos>,
    ) -> SpanId {
        let id = SpanId(self.span_pos.len() as u64 + 1);
        let pos = self.events.len();
        self.events.push(Event::Span(SpanRecord {
            id,
            parent,
            name,
            category,
            phase,
            start,
            end,
            attrs: Vec::new(),
            trace,
            flows_out: Vec::new(),
            flows_in: Vec::new(),
        }));
        self.span_pos.push(pos);
        id
    }
}

/// An append-only log of hierarchical spans and instant events, stamped
/// on a virtual [`Clock`].
///
/// This is the workspace's only span model. A platform opens one root
/// span per invocation ([`Recorder::root`]) and records each phase once
/// underneath it; the paper's start-up / exec / others split is the
/// self-time fold of that root's subtree ([`RootSpan::close`]), so
/// hierarchy never double-counts, and per-label totals are asked of the
/// same subtree ([`Recorder::total_under`]).
///
/// The fold is taken at the instant the root closes and the result is
/// handed to the caller by value: a recorder that later bounds its
/// memory (sampling, a ring buffer) may drop a closed subtree without
/// moving any figure. Only post-hoc queries ([`Recorder::total_under`],
/// [`Recorder::subtree`]) need the subtree to still be in the log.
///
/// Orphan handling: ending a span that has open descendants closes the
/// descendants at the same instant; ending a span that is not open at
/// all is a no-op.
#[derive(Debug, Clone)]
pub struct Recorder {
    clock: Clock,
    inner: Rc<RefCell<Inner>>,
}

impl Recorder {
    /// Creates an empty recorder timestamping on `clock`.
    pub fn new(clock: Clock) -> Self {
        Recorder {
            clock,
            inner: Rc::new(RefCell::new(Inner::default())),
        }
    }

    /// The clock this recorder stamps events with.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    fn start_impl(&self, name: String, category: &'static str, phase: Option<Phase>) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        let trace = parent.and_then(|p| inner.trace_of(p));
        let id = inner.push_span(parent, name, category, phase, trace, self.clock.now(), None);
        inner.open.push(id);
        id
    }

    /// Mints the next trace id. Sequential per recorder, so seeded runs
    /// mint identical ids for identical request schedules.
    pub fn next_trace_id(&self) -> TraceId {
        let mut inner = self.inner.borrow_mut();
        inner.minted_traces += 1;
        TraceId(inner.minted_traces)
    }

    /// Opens a *detached* request-root span: parent-less, tagged with
    /// `trace`, and **not** pushed on the open stack — so roots of many
    /// interleaved requests can stay open across discrete events without
    /// mis-parenting each other's spans. Close it with
    /// [`Recorder::end_detached`]; attach children explicitly with
    /// [`Recorder::start_under`] / [`Recorder::record_closed_under`].
    pub fn start_detached(
        &self,
        name: impl Into<String>,
        category: &'static str,
        trace: TraceId,
    ) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        inner.push_span(
            None,
            name.into(),
            category,
            None,
            Some(trace),
            self.clock.now(),
            None,
        )
    }

    /// Closes a detached span at the current instant (first close wins;
    /// spans on the open stack should use [`Recorder::end`] instead).
    pub fn end_detached(&self, id: SpanId) {
        let now = self.clock.now();
        let mut inner = self.inner.borrow_mut();
        let span = inner.span_mut(id);
        if span.end.is_none() {
            span.end = Some(now);
        }
    }

    /// Opens a span under an *explicit* parent (inheriting the parent's
    /// trace id) and pushes it on the open stack, so spans opened by
    /// downstream platform code nest underneath it and join the trace.
    pub fn start_under(
        &self,
        parent: SpanId,
        name: impl Into<String>,
        category: &'static str,
    ) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        let trace = inner.trace_of(parent);
        let id = inner.push_span(
            Some(parent),
            name.into(),
            category,
            None,
            trace,
            self.clock.now(),
            None,
        );
        inner.open.push(id);
        id
    }

    /// Records an already-measured closed interval under an explicit
    /// parent (inheriting its trace) — e.g. the queueing interval known
    /// only once service starts.
    pub fn record_closed_under(
        &self,
        parent: SpanId,
        name: impl Into<String>,
        category: &'static str,
        phase: Phase,
        start: Nanos,
        end: Nanos,
    ) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        let trace = inner.trace_of(parent);
        inner.push_span(
            Some(parent),
            name.into(),
            category,
            Some(phase),
            trace,
            start,
            Some(end.max(start)),
        )
    }

    /// Records a zero-width event under an explicit parent (inheriting
    /// its trace), regardless of what is on the open stack.
    pub fn instant_under(
        &self,
        parent: SpanId,
        name: impl Into<String>,
        category: &'static str,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        let at = self.clock.now();
        self.inner
            .borrow_mut()
            .push_instant(Some(parent), name.into(), category, at, attrs);
    }

    /// The trace a recorded span belongs to, if any.
    pub fn trace_of(&self, id: SpanId) -> Option<TraceId> {
        self.inner.borrow().trace_of(id)
    }

    /// Propagatable context naming `id` as the causal parent; `None` if
    /// the span carries no trace.
    pub fn context_of(&self, id: SpanId) -> Option<SpanContext> {
        self.inner
            .borrow()
            .trace_of(id)
            .map(|trace| SpanContext { trace, parent: id })
    }

    /// Marks span `id` as the *source* of Perfetto flow `flow`.
    pub fn flow_out(&self, id: SpanId, flow: u64) {
        self.inner.borrow_mut().span_mut(id).flows_out.push(flow);
    }

    /// Marks span `id` as a *sink* of Perfetto flow `flow`.
    pub fn flow_in(&self, id: SpanId, flow: u64) {
        self.inner.borrow_mut().span_mut(id).flows_in.push(flow);
    }

    /// Opens a span as a child of the innermost open span.
    pub fn start(&self, name: impl Into<String>, category: &'static str) -> SpanId {
        self.start_impl(name.into(), category, None)
    }

    /// Opens a span carrying a latency-breakdown [`Phase`].
    pub fn start_phase(
        &self,
        name: impl Into<String>,
        category: &'static str,
        phase: Phase,
    ) -> SpanId {
        self.start_impl(name.into(), category, Some(phase))
    }

    /// Closes `id` at the current virtual instant. Open descendants are
    /// closed at the same instant; ending a non-open span is a no-op.
    pub fn end(&self, id: SpanId) {
        let now = self.clock.now();
        let mut inner = self.inner.borrow_mut();
        let Some(depth) = inner.open.iter().rposition(|&s| s == id) else {
            return;
        };
        let to_close: Vec<SpanId> = inner.open.split_off(depth);
        for sid in to_close {
            inner.span_mut(sid).end = Some(now);
        }
    }

    /// Runs `f` inside a span, attributing the virtual time it charges.
    pub fn scope<T>(
        &self,
        name: impl Into<String>,
        category: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, category);
        let value = f();
        self.end(id);
        value
    }

    /// Like [`Recorder::scope`] with a latency-breakdown [`Phase`].
    pub fn scope_phase<T>(
        &self,
        name: impl Into<String>,
        category: &'static str,
        phase: Phase,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start_phase(name, category, phase);
        let value = f();
        self.end(id);
        value
    }

    /// Attaches a typed attribute to a recorded span.
    pub fn attr(&self, id: SpanId, key: &'static str, value: impl Into<AttrValue>) {
        self.inner
            .borrow_mut()
            .span_mut(id)
            .attrs
            .push((key, value.into()));
    }

    /// Records a zero-width event under the innermost open span.
    pub fn instant(&self, name: impl Into<String>, category: &'static str) {
        self.instant_with(name, category, Vec::new());
    }

    /// Records a zero-width event with attributes.
    pub fn instant_with(
        &self,
        name: impl Into<String>,
        category: &'static str,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        let at = self.clock.now();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        inner.push_instant(parent, name.into(), category, at, attrs);
    }

    /// The innermost open span, if any.
    pub fn current(&self) -> Option<SpanId> {
        self.inner.borrow().open.last().copied()
    }

    /// Records a zero-width event that happened at `at` (not now) under
    /// the innermost open span — e.g. an injected fault surfaced when the
    /// invocation it hit ends.
    pub fn instant_at(&self, name: impl Into<String>, category: &'static str, at: Nanos) {
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        inner.push_instant(parent, name.into(), category, at, Vec::new());
    }

    /// Opens the root span of one platform invocation and returns the
    /// guard that closes it on every exit. Inside a cluster driver the
    /// `service` span is already open and the root nests (and inherits
    /// the trace) under it; on a direct blocking invoke with nothing
    /// open, `ctx` adopts the caller's tree instead.
    pub fn root(
        &self,
        name: impl Into<String>,
        category: &'static str,
        ctx: Option<SpanContext>,
    ) -> RootSpan<'_> {
        let id = match ctx.filter(|_| self.current().is_none()) {
            Some(ctx) => self.start_under(ctx.parent, name, category),
            None => self.start(name, category),
        };
        RootSpan { rec: self, id }
    }

    /// Records an already-measured interval as a closed child of the
    /// innermost open span. Used for retroactive attribution, e.g.
    /// splitting one clock slice into compute and I/O after the run.
    pub fn record_closed(
        &self,
        name: impl Into<String>,
        category: &'static str,
        phase: Phase,
        start: Nanos,
        end: Nanos,
    ) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        let trace = parent.and_then(|p| inner.trace_of(p));
        inner.push_span(
            parent,
            name.into(),
            category,
            Some(phase),
            trace,
            start,
            Some(end.max(start)),
        )
    }

    /// Closes every open span at the current instant (call before
    /// exporting a finished run).
    pub fn finish(&self) {
        let now = self.clock.now();
        let mut inner = self.inner.borrow_mut();
        let to_close: Vec<SpanId> = inner.open.split_off(0);
        for sid in to_close {
            inner.span_mut(sid).end = Some(now);
        }
    }

    /// A snapshot of the event log, in recording order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.borrow().events.clone()
    }

    /// Number of recorded events (spans + instants).
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().events.is_empty()
    }

    /// Folds the subtree of `root` into the paper's three-way
    /// [`Breakdown`].
    ///
    /// Each span contributes its *self time* (duration minus the summed
    /// durations of its direct children) to its phase; a span without a
    /// phase inherits the nearest phased ancestor's, up to and including
    /// `root`, and time no phased span covers is not attributed. Still-
    /// open spans count up to now. Costs O(spans under `root`).
    fn breakdown_under(&self, root: SpanId) -> Breakdown {
        let now = self.clock.now();
        let inner = self.inner.borrow();
        // (effective phase, summed child durations) of span `root + i`:
        // the subtree's ids are consecutive and parents precede children.
        let mut acc: Vec<(Option<Phase>, Nanos)> = Vec::new();
        for s in inner.subtree_spans(root) {
            let inherited = s.parent.filter(|_| s.id != root).and_then(|parent| {
                let (phase, children) = &mut acc[(parent.0 - root.0) as usize];
                *children += s.duration_at(now);
                *phase
            });
            acc.push((s.phase.or(inherited), Nanos::ZERO));
        }
        let mut b = Breakdown::default();
        for (s, (phase, children)) in inner.subtree_spans(root).zip(acc) {
            let self_time = s.duration_at(now).saturating_sub(children);
            match phase {
                Some(Phase::Startup) => b.startup += self_time,
                Some(Phase::Exec) => b.exec += self_time,
                Some(Phase::Other) => b.other += self_time,
                None => {}
            }
        }
        b
    }

    /// Summed duration of the spans named `name` under `root`
    /// (`root` itself excluded).
    pub fn total_under(&self, root: SpanId, name: &str) -> Nanos {
        let now = self.clock.now();
        let inner = self.inner.borrow();
        inner
            .subtree_spans(root)
            .skip(1)
            .filter(|s| s.name == name)
            .map(|s| s.duration_at(now))
            .sum()
    }

    /// The spans and instants recorded under `root` (excluding `root`
    /// itself), in recording order.
    pub fn subtree(&self, root: SpanId) -> Vec<Event> {
        let inner = self.inner.borrow();
        let Some(&root_pos) = inner.span_pos.get((root.0 - 1) as usize) else {
            return Vec::new();
        };
        inner.events[root_pos + 1..]
            .iter()
            .take_while(|event| {
                let parent = match event {
                    Event::Span(s) => s.parent,
                    Event::Instant(i) => i.parent,
                };
                parent.is_some_and(|p| p >= root)
            })
            .cloned()
            .collect()
    }
}

/// Guard over the root span of one invocation ([`Recorder::root`]):
/// dropping it closes the root — and any descendant an early return left
/// open — so no exit path can leak an open root.
#[derive(Debug)]
pub struct RootSpan<'r> {
    rec: &'r Recorder,
    id: SpanId,
}

impl RootSpan<'_> {
    /// The root span's id.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Closes the root and folds its subtree (the tail of the event log
    /// at this instant) into the invocation's [`Breakdown`].
    pub fn close(self) -> Breakdown {
        self.rec.end(self.id);
        self.rec.breakdown_under(self.id)
    }
}

impl Drop for RootSpan<'_> {
    fn drop(&mut self) {
        self.rec.end(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let root = rec.start("invoke", cat::INVOKE);
        let child = rec.start("snapshot_restore", cat::RESTORE);
        clock.advance(ms(3));
        rec.instant("fault:snapshot_read", cat::FAULT);
        rec.end(child);
        rec.end(root);

        let events = rec.events();
        assert_eq!(events.len(), 3);
        let Event::Span(c) = &events[1] else { panic!() };
        assert_eq!(c.parent, Some(root));
        assert_eq!(c.duration_at(clock.now()), ms(3));
        let Event::Instant(i) = &events[2] else {
            panic!()
        };
        assert_eq!(i.parent, Some(child));
        assert_eq!(i.at, ms(3));
    }

    #[test]
    fn ending_a_parent_closes_open_descendants() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let outer = rec.start("outer", cat::INVOKE);
        let inner = rec.start("inner", cat::EXEC);
        let innermost = rec.start("innermost", cat::EXEC);
        clock.advance(ms(2));
        rec.end(outer); // Closes all three at the same instant.
        assert_eq!(rec.current(), None);
        for ev in rec.events() {
            let Event::Span(s) = ev else { panic!() };
            assert_eq!(s.end, Some(ms(2)), "{}", s.name);
        }
        // Ending an already-closed span is a no-op, not a panic.
        rec.end(inner);
        rec.end(innermost);
    }

    #[test]
    fn ending_a_never_opened_or_foreign_id_is_a_no_op() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let a = rec.start("a", cat::EXEC);
        rec.end(a);
        rec.end(a); // Double-end.
        clock.advance(ms(1));
        let events = rec.events();
        let Event::Span(s) = &events[0] else { panic!() };
        assert_eq!(s.end, Some(Nanos::ZERO), "first end wins");
    }

    #[test]
    fn subtree_fold_attributes_self_time_by_inherited_phase() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let root = rec.root("invoke", cat::INVOKE, None);
        clock.advance(ms(1)); // Unphased root self time: not attributed.
        let restore = rec.start_phase("snapshot_restore", cat::RESTORE, Phase::Startup);
        clock.advance(ms(2)); // Phased child's own self time.
        rec.scope("restore_read", cat::RESTORE, || clock.advance(ms(3)));
        rec.scope("map_pages", cat::RESTORE, || clock.advance(ms(4)));
        rec.end(restore);
        clock.advance(ms(10));
        // A fault that fired during the restore, surfaced afterwards.
        rec.instant_at("fault:snapshot_read", cat::FAULT, ms(4));
        // Retroactively split the last 10 ms into compute and I/O.
        let exec = rec.record_closed("exec", cat::EXEC, Phase::Exec, ms(10), ms(17));
        rec.record_closed("guest_io", cat::EXEC, Phase::Other, ms(17), ms(20));
        let root_id = root.id();
        let b = root.close();
        assert_eq!(
            b,
            Breakdown {
                startup: ms(9), // 2 own + 3 + 4 inherited, counted once.
                exec: ms(7),
                other: ms(3),
            }
        );
        assert_eq!(rec.current(), None);
        assert_eq!(rec.total_under(root_id, "restore_read"), ms(3));
        assert_eq!(
            rec.total_under(root_id, "invoke"),
            Nanos::ZERO,
            "root excluded"
        );
        let events = rec.subtree(root_id);
        assert_eq!(events.len(), 6, "5 spans + 1 instant, root excluded");
        let Event::Instant(i) = &events[3] else {
            panic!()
        };
        assert_eq!(
            (i.parent, i.at),
            (Some(root_id), ms(4)),
            "keeps its instant"
        );
        let Event::Span(s) = &events[4] else { panic!() };
        assert_eq!((s.id, s.parent, s.end), (exec, Some(root_id), Some(ms(17))));
        // The fold was taken at close; later clock movement changes nothing.
        clock.advance(ms(100));
        assert_eq!(rec.breakdown_under(root_id), b);
    }

    #[test]
    fn a_second_root_folds_only_its_own_subtree() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let first = rec.root("invoke", cat::INVOKE, None);
        rec.scope_phase("boot", cat::BOOT, Phase::Startup, || clock.advance(ms(50)));
        let first_id = first.id();
        assert_eq!(first.close().startup, ms(50));
        // Work between invocations lands under no root.
        rec.scope_phase("refresh", cat::SNAPSHOT, Phase::Startup, || {
            clock.advance(ms(7));
        });
        let second = rec.root("invoke", cat::INVOKE, None);
        rec.scope_phase("exec", cat::EXEC, Phase::Exec, || clock.advance(ms(5)));
        let second_id = second.id();
        assert_eq!(
            second.close(),
            Breakdown {
                startup: Nanos::ZERO,
                exec: ms(5),
                other: Nanos::ZERO,
            }
        );
        assert_eq!(rec.total_under(second_id, "boot"), Nanos::ZERO);
        assert_eq!(rec.total_under(first_id, "exec"), Nanos::ZERO);
        assert_eq!(rec.breakdown_under(first_id).startup, ms(50));
    }

    #[test]
    fn subtree_queries_cost_the_subtree_not_the_log() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        // Closes 100 roots of 14 children each, then asks `early` (or the
        // first of them) for its label total and events; returns the wall
        // time of both and the first root.
        let invoke = |early: Option<SpanId>| {
            let t0 = std::time::Instant::now();
            let mut first = None;
            for _ in 0..100 {
                let root = rec.root("invoke", cat::INVOKE, None);
                for _ in 0..14 {
                    rec.scope_phase("exec", cat::EXEC, Phase::Exec, || clock.advance(ms(1)));
                }
                first.get_or_insert(root.id());
                assert_eq!(root.close().exec, ms(14));
            }
            let asked = early.or(first).unwrap();
            for _ in 0..100 {
                assert_eq!(rec.total_under(asked, "exec"), ms(14));
                assert_eq!(rec.subtree(asked).len(), 14);
            }
            (t0.elapsed(), asked)
        };
        let (on_empty_log, early) = invoke(None);
        for _ in 0..300_000 {
            rec.scope("background", cat::STORE, || {});
        }
        let (on_long_log, _) = invoke(Some(early));
        // A fold that sized its scratch by the log, or a query that walked
        // on to the end of it, is tens of times slower here; equal work
        // leaves room for noise.
        assert!(
            on_long_log < on_empty_log * 10 + std::time::Duration::from_millis(50),
            "{on_long_log:?} around 300k events vs {on_empty_log:?} on an empty log"
        );
        // An id this recorder never issued has an empty subtree.
        let foreign = SpanId(rec.len() as u64 + 1);
        assert_eq!(rec.total_under(foreign, "exec"), Nanos::ZERO);
        assert!(rec.subtree(foreign).is_empty());
        assert_eq!(rec.breakdown_under(foreign), Breakdown::default());
    }

    #[test]
    fn dropping_the_root_guard_closes_open_descendants() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let failing = || -> Result<(), ()> {
            let _root = rec.root("invoke", cat::INVOKE, None);
            rec.start_phase("snapshot_restore", cat::RESTORE, Phase::Startup);
            rec.start("restore_read", cat::RESTORE);
            clock.advance(ms(2));
            Err(()) // Early return with two descendants still open.
        };
        assert!(failing().is_err());
        assert_eq!(rec.current(), None, "no leaked root");
        for ev in rec.events() {
            let Event::Span(s) = ev else { panic!() };
            assert_eq!(s.end, Some(ms(2)), "{}", s.name);
        }
    }

    #[test]
    fn root_adopts_a_context_only_when_nothing_is_open() {
        let rec = Recorder::new(Clock::new());
        let t = rec.next_trace_id();
        let request = rec.start_detached("request", cat::INVOKE, t);
        let ctx = rec.context_of(request);
        // Direct blocking invoke: nothing open, the context is adopted.
        let direct = rec.root("invoke", cat::INVOKE, ctx);
        assert_eq!(rec.trace_of(direct.id()), Some(t));
        drop(direct);
        // Under a driver's service span the root nests there instead.
        let service = rec.start("service", cat::INVOKE);
        let nested = rec.root("invoke", cat::INVOKE, ctx);
        let Event::Span(s) = &rec.events()[3] else {
            panic!()
        };
        assert_eq!((s.id, s.parent), (nested.id(), Some(service)));
    }

    #[test]
    fn open_spans_count_up_to_now() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let running = rec.start_phase("running", cat::EXEC, Phase::Exec);
        clock.advance(ms(7));
        assert_eq!(rec.breakdown_under(running).exec, ms(7));
        rec.finish();
        clock.advance(ms(100));
        assert_eq!(
            rec.breakdown_under(running).exec,
            ms(7),
            "finish pinned the end"
        );
    }

    #[test]
    fn trace_ids_mint_sequentially() {
        let rec = Recorder::new(Clock::new());
        assert_eq!(rec.next_trace_id().raw(), 1);
        assert_eq!(rec.next_trace_id().raw(), 2);
        assert_eq!(TraceId::from_raw(3), rec.next_trace_id());
    }

    #[test]
    fn detached_roots_do_not_capture_interleaved_spans() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let t1 = rec.next_trace_id();
        let t2 = rec.next_trace_id();
        let root1 = rec.start_detached("request", cat::INVOKE, t1);
        let root2 = rec.start_detached("request", cat::INVOKE, t2);
        // A span opened while both roots are "open" must NOT nest under
        // either (they are off the stack).
        let stray = rec.start("background", cat::STORE);
        rec.end(stray);
        clock.advance(ms(5));
        rec.end_detached(root1);
        clock.advance(ms(2));
        rec.end_detached(root2);
        rec.end_detached(root1); // First close wins.
        let events = rec.events();
        let Event::Span(r1) = &events[0] else {
            panic!()
        };
        let Event::Span(r2) = &events[1] else {
            panic!()
        };
        let Event::Span(s) = &events[2] else { panic!() };
        assert_eq!(r1.trace, Some(t1));
        assert_eq!(r2.trace, Some(t2));
        assert_eq!(r1.end, Some(ms(5)));
        assert_eq!(r2.end, Some(ms(7)));
        assert_eq!(s.parent, None, "detached roots never adopt strays");
        assert_eq!(s.trace, None);
    }

    #[test]
    fn start_under_inherits_trace_and_opens_the_stack() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let t = rec.next_trace_id();
        let root = rec.start_detached("request", cat::INVOKE, t);
        let service = rec.start_under(root, "service", cat::INVOKE);
        // Downstream platform code uses the plain stack API and still
        // joins the trace.
        let inner = rec.start("snapshot_restore", cat::RESTORE);
        rec.instant("cache_hit", cat::CACHE);
        clock.advance(ms(4));
        rec.end(inner);
        rec.end(service);
        rec.end_detached(root);
        let events = rec.events();
        let Event::Span(svc) = &events[1] else {
            panic!()
        };
        let Event::Span(restore) = &events[2] else {
            panic!()
        };
        let Event::Instant(hit) = &events[3] else {
            panic!()
        };
        assert_eq!(svc.parent, Some(root));
        assert_eq!(svc.trace, Some(t));
        assert_eq!(restore.parent, Some(service));
        assert_eq!(restore.trace, Some(t), "stack children inherit the trace");
        assert_eq!(hit.trace, Some(t));
        assert_eq!(rec.trace_of(restore.id), Some(t));
        let ctx = rec.context_of(service).unwrap();
        assert_eq!(ctx.trace, t);
        assert_eq!(ctx.parent, service);
    }

    #[test]
    fn record_closed_under_and_instant_under_join_the_trace() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let t = rec.next_trace_id();
        clock.advance(ms(9));
        let root = rec.start_detached("request", cat::INVOKE, t);
        let q = rec.record_closed_under(root, "queued", cat::QUEUE, Phase::Other, ms(2), ms(9));
        rec.instant_under(root, "rerouted", cat::ROUTE, vec![("host", 3u64.into())]);
        rec.end_detached(root);
        let events = rec.events();
        let Event::Span(queued) = &events[1] else {
            panic!()
        };
        let Event::Instant(i) = &events[2] else {
            panic!()
        };
        assert_eq!(queued.id, q);
        assert_eq!(queued.parent, Some(root));
        assert_eq!(queued.trace, Some(t));
        assert_eq!(queued.start, ms(2));
        assert_eq!(queued.end, Some(ms(9)));
        assert_eq!(i.parent, Some(root));
        assert_eq!(i.trace, Some(t));
    }

    #[test]
    fn flow_edges_attach_to_spans() {
        let rec = Recorder::new(Clock::new());
        let t = rec.next_trace_id();
        let root = rec.start_detached("request", cat::INVOKE, t);
        let service = rec.start_under(root, "service", cat::INVOKE);
        rec.flow_out(root, t.raw());
        rec.flow_in(service, t.raw());
        rec.end(service);
        rec.end_detached(root);
        let events = rec.events();
        let Event::Span(r) = &events[0] else { panic!() };
        let Event::Span(s) = &events[1] else { panic!() };
        assert_eq!(r.flows_out, vec![t.raw()]);
        assert!(r.flows_in.is_empty());
        assert_eq!(s.flows_in, vec![t.raw()]);
    }

    #[test]
    fn attrs_attach_in_order() {
        let rec = Recorder::new(Clock::new());
        let id = rec.start("restore", cat::RESTORE);
        rec.attr(id, "pages", 42u64);
        rec.attr(id, "verified", true);
        rec.attr(id, "function", "fact");
        rec.end(id);
        let Event::Span(s) = &rec.events()[0] else {
            panic!()
        };
        assert_eq!(s.attrs.len(), 3);
        assert_eq!(s.attrs[0], ("pages", AttrValue::Uint(42)));
        assert_eq!(s.attrs[2], ("function", AttrValue::Str("fact".into())));
    }
}
