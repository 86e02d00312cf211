//! Latency-attribution engine: regroups a recorder's event log into
//! per-request causal trees and decomposes each request's sojourn into
//! queueing / routing / fetch / restore / JIT-warmup / exec self-time.
//!
//! This is the analysis the paper's figures are built from, generalized
//! to the cluster: every span carries the [`TraceId`] minted at
//! admission, so one request's story — admission queueing, the router's
//! placement, the snapshot delta fetch from a donor host, the restore,
//! the JIT-warmup hidden inside a rebuild, the guest execution — can be
//! reassembled no matter how many hosts it crossed.
//!
//! Attribution uses *self time* (a span's duration minus the summed
//! durations of its direct children), so nesting never double-counts
//! and the per-class nanoseconds of one tree sum exactly to the root
//! span's duration, which the drivers pin to the request's sojourn.

use fireworks_sim::Nanos;

use crate::span::{cat, AttrValue, Event, SpanId, SpanRecord, TraceId};

/// The six-way latency decomposition classes (plus a catch-all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseClass {
    /// Waiting for an admission slot (host or cluster queue).
    Queueing,
    /// Router decisions and placement.
    Routing,
    /// Moving snapshot bytes: store reads, delta fetches, prefetch,
    /// cache traffic, migrations.
    Fetch,
    /// Turning resident bytes into a runnable VM: restore, boot, memory
    /// mapping.
    Restore,
    /// Runtime/JIT warm-up — the rebuild-from-source path where the
    /// guest boots, initializes the framework, and JITs before the
    /// snapshot is written.
    JitWarmup,
    /// Guest function execution.
    Exec,
    /// Everything else (bookkeeping, faults).
    Other,
}

/// Number of [`PhaseClass`] variants.
pub const CLASS_COUNT: usize = 7;

impl PhaseClass {
    /// All classes, in decomposition order.
    pub fn all() -> [PhaseClass; CLASS_COUNT] {
        [
            PhaseClass::Queueing,
            PhaseClass::Routing,
            PhaseClass::Fetch,
            PhaseClass::Restore,
            PhaseClass::JitWarmup,
            PhaseClass::Exec,
            PhaseClass::Other,
        ]
    }

    /// Stable lowercase name (used in JSON output).
    pub fn name(self) -> &'static str {
        match self {
            PhaseClass::Queueing => "queueing",
            PhaseClass::Routing => "routing",
            PhaseClass::Fetch => "fetch",
            PhaseClass::Restore => "restore",
            PhaseClass::JitWarmup => "jit_warmup",
            PhaseClass::Exec => "exec",
            PhaseClass::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            PhaseClass::Queueing => 0,
            PhaseClass::Routing => 1,
            PhaseClass::Fetch => 2,
            PhaseClass::Restore => 3,
            PhaseClass::JitWarmup => 4,
            PhaseClass::Exec => 5,
            PhaseClass::Other => 6,
        }
    }
}

/// Maps a span to its decomposition class. The span *name* rule runs
/// first: `snapshot_rebuild` is where JIT warm-up actually happens
/// (rebuild-from-source = boot + runtime init + JIT + snapshot write),
/// even though its category is `snapshot`. After that the category
/// decides.
pub fn classify(name: &str, category: &str) -> PhaseClass {
    if name == "snapshot_rebuild" {
        return PhaseClass::JitWarmup;
    }
    match category {
        cat::QUEUE => PhaseClass::Queueing,
        cat::ROUTE => PhaseClass::Routing,
        cat::SNAPSHOT | cat::PREFETCH | cat::STORE | cat::NET | cat::CACHE | cat::MIGRATE => {
            PhaseClass::Fetch
        }
        cat::RESTORE | cat::BOOT | cat::MEM => PhaseClass::Restore,
        cat::EXEC => PhaseClass::Exec,
        _ => PhaseClass::Other,
    }
}

/// Per-class nanosecond totals for one request (or one aggregate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    ns: [u64; CLASS_COUNT],
}

impl Attribution {
    /// Adds `dur` to `class`.
    pub fn add(&mut self, class: PhaseClass, dur: Nanos) {
        self.ns[class.index()] += dur.as_nanos();
    }

    /// Nanoseconds attributed to `class`.
    pub fn get(&self, class: PhaseClass) -> Nanos {
        Nanos::from_nanos(self.ns[class.index()])
    }

    /// Sum over all classes.
    pub fn total(&self) -> Nanos {
        Nanos::from_nanos(self.ns.iter().sum())
    }

    /// Element-wise accumulation (for cluster-wide aggregates).
    pub fn merge(&mut self, other: &Attribution) {
        for (dst, src) in self.ns.iter_mut().zip(other.ns) {
            *dst += src;
        }
    }
}

/// One hop on a request's critical path (the greedy longest-child
/// descent from the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalHop {
    /// Span name.
    pub name: String,
    /// Span category.
    pub category: &'static str,
    /// The class the hop's span falls in.
    pub class: PhaseClass,
    /// The hop span's full duration.
    pub duration: Nanos,
}

/// One reassembled request: its causal tree collapsed to the facts the
/// analysis needs.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// The request's trace id.
    pub trace: TraceId,
    /// The root span's id.
    pub root: SpanId,
    /// The invoked function (root span's `function` attribute).
    pub function: Option<String>,
    /// Distinct hosts touched, in first-seen order (`host` attributes
    /// anywhere in the tree).
    pub hosts: Vec<u64>,
    /// Root span start (admission).
    pub start: Nanos,
    /// Root span end (completion or rejection).
    pub end: Nanos,
    /// `end - start`; the drivers pin this to the request's sojourn.
    pub sojourn: Nanos,
    /// Number of spans in the tree (including the root).
    pub spans: usize,
    /// Whether the root carries a `rejected` attribute.
    pub rejected: bool,
    /// Self-time decomposition; `attribution.total() == sojourn`.
    pub attribution: Attribution,
    /// Greedy longest-child descent from the root.
    pub critical_path: Vec<CriticalHop>,
}

/// The full regrouping of an event log into request trees.
#[derive(Debug, Clone, Default)]
pub struct TraceForest {
    /// One entry per trace id that has a root span, sorted by trace id.
    pub requests: Vec<RequestTrace>,
    /// Spans that carry a trace id but do not belong to a well-formed
    /// tree: their trace has no root (or more than one), their parent is
    /// missing, or their parent belongs to a different trace. Empty on a
    /// healthy run.
    pub orphans: Vec<SpanId>,
}

impl TraceForest {
    /// Builds the forest from a recorder's event log. `now` closes any
    /// still-open spans for duration math (use the clock's final
    /// instant; exports call [`crate::Recorder::finish`] first anyway).
    pub fn build(events: &[Event], now: Nanos) -> TraceForest {
        // Dense span table: ids are 1-based and dense per recorder.
        let spans: Vec<&SpanRecord> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) => Some(s),
                Event::Instant(_) => None,
            })
            .collect();
        let lookup = |id: SpanId| -> Option<&&SpanRecord> {
            let idx = (id.raw() - 1) as usize;
            spans.get(idx).filter(|s| s.id == id)
        };

        // Group span indices by trace, preserving id order.
        let mut by_trace: std::collections::BTreeMap<TraceId, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(t) = s.trace {
                by_trace.entry(t).or_default().push(i);
            }
        }

        let mut forest = TraceForest::default();
        for (trace, members) in by_trace {
            let roots: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&i| spans[i].parent.is_none())
                .collect();
            if roots.len() != 1 {
                // No root or ambiguous roots: the whole group is orphaned.
                forest.orphans.extend(members.iter().map(|&i| spans[i].id));
                continue;
            }
            let root_idx = roots[0];
            let root = spans[root_idx];

            // Verify every non-root member's parent exists and carries
            // the same trace; otherwise it is an orphan.
            let mut tree: Vec<usize> = Vec::with_capacity(members.len());
            for &i in &members {
                let s = spans[i];
                if i == root_idx {
                    tree.push(i);
                    continue;
                }
                match s.parent.and_then(lookup) {
                    Some(p) if p.trace == Some(trace) => tree.push(i),
                    _ => forest.orphans.push(s.id),
                }
            }

            // Self-time attribution: subtract each span's children from
            // it. Parents always precede children in id order, and all
            // tree members share the trace, so one pass suffices.
            let mut child_sum: std::collections::BTreeMap<SpanId, Nanos> =
                std::collections::BTreeMap::new();
            for &i in &tree {
                let s = spans[i];
                if let Some(p) = s.parent {
                    *child_sum.entry(p).or_default() += s.duration_at(now);
                }
            }
            let mut attribution = Attribution::default();
            let mut hosts: Vec<u64> = Vec::new();
            for &i in &tree {
                let s = spans[i];
                let self_time = s
                    .duration_at(now)
                    .saturating_sub(child_sum.get(&s.id).copied().unwrap_or(Nanos::ZERO));
                attribution.add(classify(&s.name, s.category), self_time);
                for (k, v) in &s.attrs {
                    if *k == "host" {
                        if let AttrValue::Uint(h) = v {
                            if !hosts.contains(h) {
                                hosts.push(*h);
                            }
                        }
                    }
                }
            }

            // Critical path: greedy longest-child descent. Children of
            // each tree member, in id order.
            let mut children: std::collections::BTreeMap<SpanId, Vec<usize>> =
                std::collections::BTreeMap::new();
            for &i in &tree {
                if let Some(p) = spans[i].parent {
                    children.entry(p).or_default().push(i);
                }
            }
            let mut critical_path = Vec::new();
            let mut cursor = root.id;
            while let Some(kids) = children.get(&cursor) {
                let Some(&widest) = kids
                    .iter()
                    .max_by_key(|&&i| (spans[i].duration_at(now), std::cmp::Reverse(i)))
                else {
                    break;
                };
                let s = spans[widest];
                critical_path.push(CriticalHop {
                    name: s.name.clone(),
                    category: s.category,
                    class: classify(&s.name, s.category),
                    duration: s.duration_at(now),
                });
                cursor = s.id;
            }

            let function = root.attrs.iter().find_map(|(k, v)| match (k, v) {
                (&"function", AttrValue::Str(f)) => Some(f.clone()),
                _ => None,
            });
            let rejected = root.attrs.iter().any(|(k, _)| *k == "rejected");
            let end = root.end.unwrap_or(now).max(root.start);
            forest.requests.push(RequestTrace {
                trace,
                root: root.id,
                function,
                hosts,
                start: root.start,
                end,
                sojourn: end - root.start,
                spans: tree.len(),
                rejected,
                attribution,
                critical_path,
            });
        }
        forest
    }
}

/// Per-function SLO accounting over a forest's completed requests.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Function name (`"?"` for requests whose root lost its attribute).
    pub function: String,
    /// Completed (non-rejected) requests observed.
    pub total: u64,
    /// Requests whose sojourn exceeded the SLO target.
    pub violations: u64,
    /// `(violations / total) / budget` — the rate at which the error
    /// budget is being consumed; > 1.0 means the SLO is burning faster
    /// than the budget allows.
    pub burn_rate: f64,
}

/// Computes per-function SLO burn rates: `slo` is the per-request
/// sojourn target, `budget` the allowed violation fraction (e.g. 0.01
/// for a 99% SLO). Rejected requests are excluded (they fail admission,
/// not the latency target). Output is sorted by function name.
pub fn slo_burn(requests: &[RequestTrace], slo: Nanos, budget: f64) -> Vec<SloReport> {
    let mut by_fn: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    for r in requests {
        if r.rejected {
            continue;
        }
        let name = r.function.clone().unwrap_or_else(|| "?".to_string());
        let entry = by_fn.entry(name).or_default();
        entry.0 += 1;
        if r.sojourn > slo {
            entry.1 += 1;
        }
    }
    by_fn
        .into_iter()
        .map(|(function, (total, violations))| SloReport {
            function,
            total,
            violations,
            burn_rate: if total == 0 || budget <= 0.0 {
                0.0
            } else {
                (violations as f64 / total as f64) / budget
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Recorder;
    use crate::Phase;
    use fireworks_sim::Clock;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    /// Builds one request: 2 ms queued, then service = 3 ms restore +
    /// 5 ms rebuild + 10 ms exec + 1 ms root-service slack.
    fn one_request(rec: &Recorder, clock: &Clock) -> TraceId {
        let t = rec.next_trace_id();
        let arrival = clock.now();
        let root = rec.start_detached("request", cat::INVOKE, t);
        rec.attr(root, "function", "fact");
        clock.advance(ms(2));
        rec.record_closed_under(
            root,
            "queued",
            cat::QUEUE,
            Phase::Other,
            arrival,
            clock.now(),
        );
        let service = rec.start_under(root, "service", cat::INVOKE);
        rec.attr(service, "host", 3u64);
        rec.scope("snapshot_restore", cat::RESTORE, || clock.advance(ms(3)));
        rec.scope("snapshot_rebuild", cat::SNAPSHOT, || clock.advance(ms(5)));
        rec.scope("guest_exec", cat::EXEC, || clock.advance(ms(10)));
        clock.advance(ms(1));
        rec.end(service);
        rec.end_detached(root);
        t
    }

    #[test]
    fn attribution_sums_to_sojourn() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        one_request(&rec, &clock);
        let forest = TraceForest::build(&rec.events(), clock.now());
        assert!(forest.orphans.is_empty());
        assert_eq!(forest.requests.len(), 1);
        let r = &forest.requests[0];
        assert_eq!(r.sojourn, ms(21));
        assert_eq!(r.attribution.total(), r.sojourn);
        assert_eq!(r.attribution.get(PhaseClass::Queueing), ms(2));
        assert_eq!(r.attribution.get(PhaseClass::Restore), ms(3));
        assert_eq!(r.attribution.get(PhaseClass::JitWarmup), ms(5));
        assert_eq!(r.attribution.get(PhaseClass::Exec), ms(10));
        assert_eq!(r.attribution.get(PhaseClass::Other), ms(1));
        assert_eq!(r.function.as_deref(), Some("fact"));
        assert_eq!(r.hosts, vec![3]);
        assert_eq!(r.spans, 6);
    }

    #[test]
    fn interleaved_requests_stay_separate() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let t1 = one_request(&rec, &clock);
        let t2 = one_request(&rec, &clock);
        assert_ne!(t1, t2);
        let forest = TraceForest::build(&rec.events(), clock.now());
        assert!(forest.orphans.is_empty());
        assert_eq!(forest.requests.len(), 2);
        assert_eq!(forest.requests[0].trace, t1);
        assert_eq!(forest.requests[1].trace, t2);
        for r in &forest.requests {
            assert_eq!(r.attribution.total(), r.sojourn);
        }
    }

    #[test]
    fn critical_path_descends_widest_children() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        one_request(&rec, &clock);
        let forest = TraceForest::build(&rec.events(), clock.now());
        let path = &forest.requests[0].critical_path;
        // service (19 ms) beats queued (2 ms); exec (10 ms) is its
        // widest child.
        assert_eq!(path[0].name, "service");
        assert_eq!(path[1].name, "guest_exec");
        assert_eq!(path[1].class, PhaseClass::Exec);
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn rootless_trace_groups_are_orphans() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        let t = rec.next_trace_id();
        let root = rec.start_detached("request", cat::INVOKE, t);
        let child = rec.start_under(root, "service", cat::INVOKE);
        rec.end(child);
        rec.end_detached(root);
        let mut events = rec.events();
        // Drop the root: the surviving child's parent is missing.
        events.remove(0);
        let forest = TraceForest::build(&events, clock.now());
        assert!(forest.requests.is_empty());
        assert_eq!(forest.orphans.len(), 1);
    }

    #[test]
    fn classification_name_rule_beats_category() {
        assert_eq!(
            classify("snapshot_rebuild", cat::SNAPSHOT),
            PhaseClass::JitWarmup
        );
        assert_eq!(classify("snapshot_write", cat::SNAPSHOT), PhaseClass::Fetch);
        assert_eq!(classify("queued", cat::QUEUE), PhaseClass::Queueing);
        assert_eq!(classify("route", cat::ROUTE), PhaseClass::Routing);
        assert_eq!(classify("invoke", cat::INVOKE), PhaseClass::Other);
    }

    #[test]
    fn slo_burn_counts_violations_per_function() {
        let clock = Clock::new();
        let rec = Recorder::new(clock.clone());
        for _ in 0..4 {
            one_request(&rec, &clock); // 21 ms each
        }
        let forest = TraceForest::build(&rec.events(), clock.now());
        let reports = slo_burn(&forest.requests, ms(20), 0.5);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].function, "fact");
        assert_eq!(reports[0].total, 4);
        assert_eq!(reports[0].violations, 4);
        assert!((reports[0].burn_rate - 2.0).abs() < 1e-9);
        let relaxed = slo_burn(&forest.requests, ms(30), 0.5);
        assert_eq!(relaxed[0].violations, 0);
        assert_eq!(relaxed[0].burn_rate, 0.0);
    }
}
