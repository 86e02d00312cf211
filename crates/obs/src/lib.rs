//! Unified observability plane for the Fireworks simulation.
//!
//! The paper's core claims are latency *breakdowns* (Figs. 6/7/9 split
//! start-up vs exec vs others) and memory *attribution* (PSS/RSS sharing
//! in Fig. 11). Those totals, what happens *inside* a restore (checksum
//! verify vs page mapping vs REAP prefetch), which invocation paid for a
//! cache eviction, and which injected fault caused which recovery
//! latency all come from one timeline. This crate is the measurement
//! substrate for all of that:
//!
//! - [`Recorder`] — hierarchical spans over virtual time, the only span
//!   model in the workspace. Spans have parent/child [`SpanId`]s, a
//!   category (see [`cat`]), typed [`AttrValue`] attributes, and an
//!   optional [`fireworks_sim::trace::Phase`]. Every platform opens one
//!   [`Recorder::root`] per invocation; closing it ([`RootSpan::close`])
//!   folds the root's subtree into the
//!   [`fireworks_sim::trace::Breakdown`] the paper's figures use
//!   (self-time attribution, so nesting never double-counts), and
//!   [`Recorder::total_under`] answers per-label questions of the same
//!   subtree.
//! - [`Metrics`] — a deterministic registry of counters, gauges, and
//!   fixed-bucket histograms keyed by `&'static str` names plus label
//!   pairs, with a [`Metrics::snapshot`] for tests and benches. Names
//!   follow the `layer.component.event` convention (see DESIGN.md).
//! - [`export`] — a JSONL event log and a Chrome trace-event file
//!   (loadable in `chrome://tracing` or Perfetto), both keyed to virtual
//!   nanoseconds and byte-for-byte deterministic for a given schedule.
//!
//! Everything is single-threaded simulation state: handles are cheap
//! clones sharing one interior-mutable core, exactly like
//! [`fireworks_sim::Clock`].
//!
//! # Examples
//!
//! ```
//! use fireworks_obs::{cat, Obs};
//! use fireworks_sim::trace::Phase;
//! use fireworks_sim::{Clock, Nanos};
//!
//! let clock = Clock::new();
//! let obs = Obs::new(clock.clone());
//! let rec = obs.recorder();
//!
//! let invoke = rec.root("invoke", cat::INVOKE, None);
//! let boot = rec.start_phase("vm_boot", cat::BOOT, Phase::Startup);
//! rec.scope("kernel_boot", cat::BOOT, || {
//!     clock.advance(Nanos::from_millis(125));
//! });
//! rec.attr(boot, "os_pages", 18_432u64);
//! rec.end(boot);
//! let id = invoke.id();
//! assert_eq!(invoke.close().startup, Nanos::from_millis(125));
//! assert_eq!(rec.total_under(id, "kernel_boot"), Nanos::from_millis(125));
//!
//! obs.metrics().inc("microvm.manager.boots", &[]);
//! assert_eq!(obs.metrics().snapshot().counter("microvm.manager.boots", &[]), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attribution;
pub mod export;
pub mod json;
pub mod metrics;
pub mod sketch;
pub mod span;

pub use attribution::{
    classify, slo_burn, Attribution, CriticalHop, PhaseClass, RequestTrace, SloReport, TraceForest,
};
pub use metrics::{BatchedCounter, Counter, Gauge, HistogramSnapshot, Metrics, MetricsSnapshot};
pub use sketch::LogHistogram;
pub use span::{
    cat, AttrValue, Event, InstantRecord, Recorder, RootSpan, SpanContext, SpanId, SpanRecord,
    TraceId,
};

use fireworks_sim::Clock;

/// The pair of observability handles one platform (or one simulated
/// host) carries: a span [`Recorder`] and a [`Metrics`] registry.
///
/// Cloning an `Obs` clones handles to the *same* recorder and registry,
/// so every layer a platform wires it into appends to one timeline.
#[derive(Debug, Clone)]
pub struct Obs {
    recorder: Recorder,
    metrics: Metrics,
}

impl Obs {
    /// Creates a recorder (timestamping on `clock`) and an empty registry.
    pub fn new(clock: Clock) -> Self {
        Obs {
            recorder: Recorder::new(clock),
            metrics: Metrics::new(),
        }
    }

    /// The span recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}
