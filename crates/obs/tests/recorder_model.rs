//! Model-based property test of the span recorder: random sequences of
//! recorder operations run against the [`Recorder`] and against a plain
//! model that keeps the public [`Event`]s themselves, and after every
//! step the two must agree on `events()`, `len()` and `current()`. Each
//! `RootSpan::close()` must return the model's breakdown, and at the end
//! of a sequence `subtree()` and `total_under()` of every span must match.
//!
//! The model's fold is the definition written out: a span's self time is
//! its duration minus its direct children's, its phase is its own or its
//! nearest phased ancestor's, and the subtree is the run of spans after
//! the root whose parents lie inside the run.

use std::borrow::Cow;

use fireworks_obs::{
    AttrValue, Breakdown, Event, InstantRecord, Phase, Recorder, RootSpan, SpanContext, SpanId,
    SpanRecord, TraceId,
};
use fireworks_sim::{Clock, Nanos};
use proptest::prelude::*;

const CATEGORIES: [&str; 3] = ["invoke", "exec", "fault"];
const LITERALS: [&str; 3] = ["invoke", "exec", "boot"];

/// A span or instant name: a literal, or one built at run time (a few
/// distinct values, so built names repeat).
#[derive(Debug, Clone, Copy)]
enum NameOf {
    Literal(usize),
    Built(u8),
}

impl NameOf {
    fn cow(self) -> Cow<'static, str> {
        match self {
            NameOf::Literal(i) => Cow::Borrowed(LITERALS[i]),
            NameOf::Built(n) => Cow::Owned(format!("fault:{n}")),
        }
    }
}

fn phase_of(code: u8) -> Option<Phase> {
    match code {
        1 => Some(Phase::Startup),
        2 => Some(Phase::Exec),
        3 => Some(Phase::Other),
        _ => None,
    }
}

/// One attribute: an integer, a float, a bool, a repeated string or one
/// borrowed through `attr_str`.
fn attr_of(code: u8) -> (&'static str, AttrValue) {
    match code % 5 {
        0 => ("pages", AttrValue::Uint(u64::from(code))),
        1 => ("delta", AttrValue::Int(-i64::from(code))),
        2 => ("ratio", AttrValue::Float(f64::from(code) / 7.0)),
        3 => ("function", AttrValue::Str(format!("f{}", code % 3))),
        _ => ("ok", AttrValue::Bool(code < 10)),
    }
}

/// A recorder operation. `span` fields pick an issued span (modulo the
/// count); they are skipped while no span exists.
#[derive(Debug, Clone)]
enum Op {
    Start {
        name: NameOf,
        cat: usize,
        phase: u8,
    },
    End {
        span: usize,
    },
    Advance {
        ns: u64,
    },
    Detached {
        name: NameOf,
    },
    Under {
        span: usize,
        name: NameOf,
    },
    EndDetached {
        span: usize,
    },
    RecordClosed {
        name: NameOf,
        phase: u8,
        back: u64,
        len: u64,
    },
    RecordClosedUnder {
        span: usize,
        name: NameOf,
        phase: u8,
        back: u64,
        len: u64,
    },
    Instant {
        name: NameOf,
        attrs: Vec<u8>,
    },
    InstantAt {
        name: NameOf,
        back: u64,
    },
    InstantUnder {
        span: usize,
        name: NameOf,
        attrs: Vec<u8>,
    },
    Attr {
        span: usize,
        code: u8,
        borrowed: bool,
    },
    FlowOut {
        span: usize,
        flow: u64,
    },
    FlowIn {
        span: usize,
        flow: u64,
    },
    Root {
        name: NameOf,
        ctx: Option<usize>,
    },
    CloseRoot {
        which: usize,
    },
    DropRoot {
        which: usize,
    },
    Finish,
}

fn name_strategy() -> impl Strategy<Value = NameOf> {
    prop_oneof![
        3 => (0..LITERALS.len()).prop_map(NameOf::Literal),
        1 => (0u8..3).prop_map(NameOf::Built),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let attrs = || proptest::collection::vec(0u8..20, 0..3);
    prop_oneof![
        6 => (name_strategy(), 0..CATEGORIES.len(), 0u8..4)
            .prop_map(|(name, cat, phase)| Op::Start { name, cat, phase }),
        5 => (0usize..64).prop_map(|span| Op::End { span }),
        5 => (0u64..1_000).prop_map(|ns| Op::Advance { ns }),
        2 => name_strategy().prop_map(|name| Op::Detached { name }),
        2 => (0usize..64, name_strategy()).prop_map(|(span, name)| Op::Under { span, name }),
        2 => (0usize..64).prop_map(|span| Op::EndDetached { span }),
        2 => (name_strategy(), 0u8..4, 0u64..500, 0u64..500)
            .prop_map(|(name, phase, back, len)| Op::RecordClosed { name, phase, back, len }),
        2 => (0usize..64, name_strategy(), 0u8..4, 0u64..500, 0u64..500).prop_map(
            |(span, name, phase, back, len)| Op::RecordClosedUnder { span, name, phase, back, len }
        ),
        2 => (name_strategy(), attrs()).prop_map(|(name, attrs)| Op::Instant { name, attrs }),
        1 => (name_strategy(), 0u64..500).prop_map(|(name, back)| Op::InstantAt { name, back }),
        1 => (0usize..64, name_strategy(), attrs())
            .prop_map(|(span, name, attrs)| Op::InstantUnder { span, name, attrs }),
        3 => (0usize..64, 0u8..20, 0u8..2)
            .prop_map(|(span, code, b)| Op::Attr { span, code, borrowed: b == 1 }),
        1 => (0usize..64, 0u64..8).prop_map(|(span, flow)| Op::FlowOut { span, flow }),
        1 => (0usize..64, 0u64..8).prop_map(|(span, flow)| Op::FlowIn { span, flow }),
        3 => (name_strategy(), proptest::option::of(0usize..64))
            .prop_map(|(name, ctx)| Op::Root { name, ctx }),
        2 => (0usize..8).prop_map(|which| Op::CloseRoot { which }),
        1 => (0usize..8).prop_map(|which| Op::DropRoot { which }),
        1 => Just(Op::Finish),
    ]
}

/// The reference: the event log as the public records, and the open
/// stack.
#[derive(Default)]
struct Model {
    events: Vec<Event>,
    open: Vec<SpanId>,
    /// Every span id issued, and each span's index in `events`.
    ids: Vec<SpanId>,
    spans: Vec<usize>,
    traces: u64,
}

impl Model {
    fn span(&self, id: SpanId) -> &SpanRecord {
        match &self.events[self.spans[(id.raw() - 1) as usize]] {
            Event::Span(s) => s,
            Event::Instant(_) => unreachable!(),
        }
    }

    fn span_mut(&mut self, id: SpanId) -> &mut SpanRecord {
        match &mut self.events[self.spans[(id.raw() - 1) as usize]] {
            Event::Span(s) => s,
            Event::Instant(_) => unreachable!(),
        }
    }

    /// Appends span `id`, which the recorder returned for the same
    /// operation; ids must be dense from 1.
    #[allow(clippy::too_many_arguments)]
    fn push_span(
        &mut self,
        id: SpanId,
        parent: Option<SpanId>,
        name: NameOf,
        category: &'static str,
        phase: Option<Phase>,
        trace: Option<TraceId>,
        start: Nanos,
        end: Option<Nanos>,
    ) -> Result<(), String> {
        prop_assert_eq!(id.raw(), self.ids.len() as u64 + 1);
        self.ids.push(id);
        self.spans.push(self.events.len());
        self.events.push(Event::Span(SpanRecord {
            id,
            parent,
            name: name.cow().into_owned(),
            category,
            phase,
            start,
            end,
            attrs: Vec::new(),
            trace,
            flows_out: Vec::new(),
            flows_in: Vec::new(),
        }));
        Ok(())
    }

    fn trace_of(&self, parent: Option<SpanId>) -> Option<TraceId> {
        parent.and_then(|p| self.span(p).trace)
    }

    fn push_instant(
        &mut self,
        parent: Option<SpanId>,
        name: NameOf,
        at: Nanos,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        let trace = self.trace_of(parent);
        self.events.push(Event::Instant(InstantRecord {
            parent,
            name: name.cow().into_owned(),
            category: CATEGORIES[2],
            at,
            attrs,
            trace,
        }));
    }

    fn end(&mut self, id: SpanId, now: Nanos) {
        if let Some(depth) = self.open.iter().rposition(|&s| s == id) {
            for sid in self.open.split_off(depth) {
                self.span_mut(sid).end = Some(now);
            }
        }
    }

    /// The spans of `root`'s subtree: the run of spans after it whose
    /// parents lie inside the run.
    fn subtree_spans(&self, root: SpanId) -> Vec<&SpanRecord> {
        let mut out = Vec::new();
        for &id in self
            .ids
            .get((root.raw() - 1) as usize..)
            .unwrap_or_default()
        {
            let s = self.span(id);
            let inside = s.id == root || s.parent.is_some_and(|p| p >= root);
            if !inside {
                break;
            }
            out.push(s);
        }
        out
    }

    fn subtree(&self, root: SpanId) -> Vec<Event> {
        let Some(&pos) = self.spans.get((root.raw() - 1) as usize) else {
            return Vec::new();
        };
        self.events[pos + 1..]
            .iter()
            .take_while(|e| {
                let parent = match e {
                    Event::Span(s) => s.parent,
                    Event::Instant(i) => i.parent,
                };
                parent.is_some_and(|p| p >= root)
            })
            .cloned()
            .collect()
    }

    fn breakdown(&self, root: SpanId, now: Nanos) -> Breakdown {
        let spans = self.subtree_spans(root);
        let find = |id: SpanId| spans.iter().find(|s| s.id == id).copied();
        let mut b = Breakdown::default();
        for s in &spans {
            let children: Nanos = spans
                .iter()
                .filter(|c| c.id != root && c.parent == Some(s.id))
                .map(|c| c.duration_at(now))
                .sum();
            let self_time = s.duration_at(now).saturating_sub(children);
            let mut phase = s.phase;
            let mut at = *s;
            while phase.is_none() && at.id != root {
                at = find(at.parent.expect("inside the subtree")).expect("inside the subtree");
                phase = at.phase;
            }
            match phase {
                Some(Phase::Startup) => b.startup += self_time,
                Some(Phase::Exec) => b.exec += self_time,
                Some(Phase::Other) => b.other += self_time,
                None => {}
            }
        }
        b
    }

    fn total_under(&self, root: SpanId, name: &str, now: Nanos) -> Nanos {
        self.subtree_spans(root)
            .iter()
            .skip(1)
            .filter(|s| s.name == name)
            .map(|s| s.duration_at(now))
            .sum()
    }
}

fn same(rec: &Recorder, model: &Model) -> Result<(), String> {
    let (got, want) = (format!("{:?}", rec.events()), format!("{:?}", model.events));
    if got != want {
        return Err(format!(
            "events differ:\n  recorder {got}\n  model    {want}"
        ));
    }
    prop_assert_eq!(rec.len(), model.events.len());
    prop_assert_eq!(rec.current(), model.open.last().copied());
    Ok(())
}

fn run(ops: &[Op]) -> Result<(), String> {
    let clock = Clock::new();
    clock.advance(Nanos::from_nanos(1_000));
    let rec = Recorder::new(clock.clone());
    let mut model = Model::default();
    let mut roots: Vec<RootSpan<'_>> = Vec::new();
    let pick = |model: &Model, k: usize| -> Option<SpanId> {
        (!model.ids.is_empty()).then(|| model.ids[k % model.ids.len()])
    };
    for op in ops {
        let now = clock.now();
        match op.clone() {
            Op::Start { name, cat, phase } => {
                let parent = model.open.last().copied();
                let trace = model.trace_of(parent);
                let id = match phase_of(phase) {
                    Some(p) => rec.start_phase(name.cow(), CATEGORIES[cat], p),
                    None => rec.start(name.cow(), CATEGORIES[cat]),
                };
                model.push_span(
                    id,
                    parent,
                    name,
                    CATEGORIES[cat],
                    phase_of(phase),
                    trace,
                    now,
                    None,
                )?;
                model.open.push(id);
            }
            Op::End { span } => {
                if let Some(id) = pick(&model, span) {
                    rec.end(id);
                    model.end(id, now);
                }
            }
            Op::Advance { ns } => {
                clock.advance(Nanos::from_nanos(ns));
            }
            Op::Detached { name } => {
                model.traces += 1;
                let trace = rec.next_trace_id();
                prop_assert_eq!(trace.raw(), model.traces);
                let id = rec.start_detached(name.cow(), CATEGORIES[0], trace);
                model.push_span(id, None, name, CATEGORIES[0], None, Some(trace), now, None)?;
            }
            Op::Under { span, name } => {
                if let Some(parent) = pick(&model, span) {
                    let id = rec.start_under(parent, name.cow(), CATEGORIES[1]);
                    let trace = model.trace_of(Some(parent));
                    model.push_span(
                        id,
                        Some(parent),
                        name,
                        CATEGORIES[1],
                        None,
                        trace,
                        now,
                        None,
                    )?;
                    model.open.push(id);
                }
            }
            Op::EndDetached { span } => {
                if let Some(id) = pick(&model, span) {
                    rec.end_detached(id);
                    let s = model.span_mut(id);
                    s.end.get_or_insert(now);
                }
            }
            Op::RecordClosed {
                name,
                phase,
                back,
                len,
            } => {
                let phase = phase_of(phase).unwrap_or(Phase::Other);
                let start = now.saturating_sub(Nanos::from_nanos(back));
                let end = start + Nanos::from_nanos(len);
                let id = rec.record_closed(name.cow(), CATEGORIES[1], phase, start, end);
                let parent = model.open.last().copied();
                let trace = model.trace_of(parent);
                model.push_span(
                    id,
                    parent,
                    name,
                    CATEGORIES[1],
                    Some(phase),
                    trace,
                    start,
                    Some(end),
                )?;
            }
            Op::RecordClosedUnder {
                span,
                name,
                phase,
                back,
                len,
            } => {
                if let Some(parent) = pick(&model, span) {
                    let phase = phase_of(phase).unwrap_or(Phase::Startup);
                    // An end before the start is clamped to the start.
                    let start = now.saturating_sub(Nanos::from_nanos(back));
                    let end = now.saturating_sub(Nanos::from_nanos(len));
                    let id = rec.record_closed_under(
                        parent,
                        name.cow(),
                        CATEGORIES[0],
                        phase,
                        start,
                        end,
                    );
                    let trace = model.trace_of(Some(parent));
                    model.push_span(
                        id,
                        Some(parent),
                        name,
                        CATEGORIES[0],
                        Some(phase),
                        trace,
                        start,
                        Some(end.max(start)),
                    )?;
                }
            }
            Op::Instant { name, attrs } => {
                let attrs: Vec<_> = attrs.into_iter().map(attr_of).collect();
                if attrs.is_empty() {
                    rec.instant(name.cow(), CATEGORIES[2]);
                } else {
                    rec.instant_with(name.cow(), CATEGORIES[2], attrs.clone());
                }
                let parent = model.open.last().copied();
                model.push_instant(parent, name, now, attrs);
            }
            Op::InstantAt { name, back } => {
                let at = now.saturating_sub(Nanos::from_nanos(back));
                rec.instant_at(name.cow(), CATEGORIES[2], at);
                let parent = model.open.last().copied();
                model.push_instant(parent, name, at, Vec::new());
            }
            Op::InstantUnder { span, name, attrs } => {
                if let Some(parent) = pick(&model, span) {
                    let attrs: Vec<_> = attrs.into_iter().map(attr_of).collect();
                    rec.instant_under(parent, name.cow(), CATEGORIES[2], attrs.clone());
                    model.push_instant(Some(parent), name, now, attrs);
                }
            }
            Op::Attr {
                span,
                code,
                borrowed,
            } => {
                if let Some(id) = pick(&model, span) {
                    let (key, value) = attr_of(code);
                    match (&value, borrowed) {
                        (AttrValue::Str(s), true) => rec.attr_str(id, key, s),
                        _ => rec.attr(id, key, value.clone()),
                    }
                    model.span_mut(id).attrs.push((key, value));
                }
            }
            Op::FlowOut { span, flow } => {
                if let Some(id) = pick(&model, span) {
                    rec.flow_out(id, flow);
                    model.span_mut(id).flows_out.push(flow);
                }
            }
            Op::FlowIn { span, flow } => {
                if let Some(id) = pick(&model, span) {
                    rec.flow_in(id, flow);
                    model.span_mut(id).flows_in.push(flow);
                }
            }
            Op::Root { name, ctx } => {
                let ctx = ctx.and_then(|k| pick(&model, k)).and_then(|parent| {
                    model
                        .span(parent)
                        .trace
                        .map(|trace| SpanContext { trace, parent })
                });
                let root = rec.root(name.cow(), CATEGORIES[0], ctx);
                let parent = match ctx {
                    Some(ctx) if model.open.is_empty() => Some(ctx.parent),
                    _ => model.open.last().copied(),
                };
                let trace = model.trace_of(parent);
                let id = root.id();
                model.push_span(id, parent, name, CATEGORIES[0], None, trace, now, None)?;
                model.open.push(id);
                roots.push(root);
            }
            Op::CloseRoot { which } => {
                if !roots.is_empty() {
                    let root = roots.remove(which % roots.len());
                    let id = root.id();
                    let got = root.close();
                    model.end(id, now);
                    prop_assert_eq!(got, model.breakdown(id, now));
                }
            }
            Op::DropRoot { which } => {
                if !roots.is_empty() {
                    let root = roots.remove(which % roots.len());
                    model.end(root.id(), now);
                }
            }
            Op::Finish => {
                rec.finish();
                for id in std::mem::take(&mut model.open) {
                    model.span_mut(id).end = Some(now);
                }
            }
        }
        same(&rec, &model)?;
    }
    let now = clock.now();
    for &id in &model.ids {
        let (got, want) = (
            format!("{:?}", rec.subtree(id)),
            format!("{:?}", model.subtree(id)),
        );
        prop_assert_eq!(got, want);
        for name in LITERALS.iter().copied().chain(["fault:0", "fault:2"]) {
            prop_assert_eq!(rec.total_under(id, name), model.total_under(id, name, now));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_compact_log_matches_the_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        run(&ops)?;
    }
}
