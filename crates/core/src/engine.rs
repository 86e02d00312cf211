//! The concurrent invocation engine: N invocations in flight at once.
//!
//! [`Platform::invoke`](crate::api::Platform::invoke) is a blocking call
//! — by the time it returns, its sandbox has already been released, so no
//! two invocations ever coexist and the load curves produced from it are
//! post-hoc queueing math over idle-host latencies. This module drives a
//! [`ConcurrentPlatform`] through the discrete-event engine
//! ([`fireworks_sim::engine`]) instead: arrivals and completions are
//! events on the shared virtual timeline, admission is a FIFO queue in
//! front of a bounded set of invoker slots, and an invocation's resources
//! (its in-flight token) are held from service start to its virtual
//! finish instant. Concurrent clones therefore genuinely contend — for
//! slots, for host RAM (guest-memory PSS under live populations), and
//! for the snapshot cache — which is what the paper's consolidation
//! claims (Figs. 10/12) are about.
//!
//! # Event model
//!
//! [`run_concurrent`] is the cluster driver over a one-host fleet: the
//! borrowed platform, `slots` invoker slots and an unbounded FIFO
//! admission queue. Arrivals, completions, deadline rejection and the
//! determinism argument are the ones [`crate::cluster`] documents; a
//! rejected request never consumes a slot.

use fireworks_obs::{Gauge, Obs};
use fireworks_sim::{Clock, Nanos};

use crate::api::{ConcurrentPlatform, InFlightToken, InvokeRequest};
use crate::cluster::{ClusterCompletion, RoundRobin};
use crate::driver::{self, Control, Driver, Fleet, HostPhase};

/// One request offered to the engine: an invocation plus its arrival
/// instant on the virtual timeline.
#[derive(Debug, Clone)]
pub struct EngineRequest {
    /// Arrival instant on the virtual timeline.
    pub arrival: Nanos,
    /// The invocation to perform.
    pub invoke: InvokeRequest,
}

impl EngineRequest {
    /// A request arriving at `arrival`.
    pub fn at(arrival: Nanos, invoke: InvokeRequest) -> Self {
        EngineRequest { arrival, invoke }
    }
}

/// What to do with an invocation's resources at its completion event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionPolicy {
    /// Release the token (warm-pool return / teardown) — the normal
    /// serving loop.
    Release,
    /// Keep every token resident and return them in the report — the
    /// density experiments (paper §5.4), where clones keep serving and
    /// the question is how many fit in host RAM.
    Retain,
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Invoker slots (maximum concurrent service activities).
    pub slots: usize,
    /// What happens to in-flight tokens at completion.
    pub completion: CompletionPolicy,
}

impl EngineConfig {
    /// A serving configuration with `slots` invoker slots.
    pub fn new(slots: usize) -> Self {
        EngineConfig {
            slots,
            completion: CompletionPolicy::Release,
        }
    }

    /// Switches the engine to retain completed invocations' resources.
    pub fn retain_completed(mut self) -> Self {
        self.completion = CompletionPolicy::Retain;
        self
    }
}

/// One request's outcome with its queueing timeline — the driver's one
/// completion type; `host` is always the engine's single host 0 (or
/// `None` for a request rejected at its deadline).
pub type EngineCompletion = ClusterCompletion;

/// The engine's output: completions in request order, plus concurrency
/// high-water marks.
#[derive(Debug)]
pub struct EngineReport<T> {
    /// One entry per request, ordered by request index.
    pub completions: Vec<EngineCompletion>,
    /// Tokens still resident ([`CompletionPolicy::Retain`] only), in
    /// completion order.
    pub retained: Vec<T>,
    /// Most invocations ever simultaneously in service.
    pub peak_inflight: usize,
    /// Deepest the admission queue ever got.
    pub peak_queue_depth: usize,
    /// Highest total PSS attributed to live in-flight (plus retained)
    /// guest memory, sampled at event boundaries.
    pub peak_live_pss_bytes: u64,
    /// Simulator events (arrivals + completions) the run processed —
    /// the deterministic denominator of an events/sec throughput
    /// measurement.
    pub events_processed: u64,
}

/// The engine's control plane: nothing to control, only the six
/// unlabelled `engine.*` gauges and the live-PSS sample to publish.
/// Handles are resolved once, so the per-event sampling is a handful of
/// `Cell` stores.
struct EngineGauges {
    inflight: Gauge,
    queue_depth: Gauge,
    live_pss: Gauge,
    peak_inflight: Gauge,
    peak_queue_depth: Gauge,
    peak_live_pss: Gauge,
    peak_live_pss_bytes: u64,
}

impl<P: ConcurrentPlatform> Control<P, &mut P> for EngineGauges {
    type Event = ();

    fn after_event(&mut self, d: &Driver<'_, P, &mut P, Self>) {
        let host = &d.fleet.hosts[0];
        let live: u64 = host
            .inflight
            .values()
            .chain(d.retained.iter().map(|(_, token)| token))
            .map(InFlightToken::pss_bytes)
            .fold(0u64, u64::saturating_add);
        self.peak_live_pss_bytes = self.peak_live_pss_bytes.max(live);
        self.inflight.set(host.inflight.len() as i64);
        self.queue_depth.set(host.waiting.len() as i64);
        self.live_pss.set(live as i64);
        self.peak_inflight.set(d.stats.peak_inflight as i64);
        self.peak_queue_depth
            .set(d.stats.peak_host_queue_depth as i64);
        self.peak_live_pss.set(self.peak_live_pss_bytes as i64);
    }
}

/// Drives `requests` (sorted by arrival) through `platform` on the
/// event engine and returns the completions with concurrency stats.
///
/// The engine publishes live gauges on `obs` at every event boundary —
/// `engine.inflight`, `engine.queue_depth`, `engine.live_pss_bytes` —
/// and their `engine.peak_*` high-water marks, so a metrics snapshot
/// taken after a run carries the concurrency profile.
///
/// # Panics
///
/// Panics if `config.slots == 0` or `requests` are not sorted by
/// arrival time.
pub fn run_concurrent<P: ConcurrentPlatform>(
    platform: &mut P,
    clock: &Clock,
    obs: &Obs,
    config: &EngineConfig,
    requests: &[EngineRequest],
) -> EngineReport<P::InFlight> {
    let mut fleet = Fleet::new(
        clock.clone(),
        obs.clone(),
        config.slots,
        usize::MAX,
        config.completion,
    );
    fleet.push_host(platform, None, HostPhase::Active);
    let m = obs.metrics();
    let mut gauges = EngineGauges {
        inflight: m.gauge("engine.inflight", &[]),
        queue_depth: m.gauge("engine.queue_depth", &[]),
        live_pss: m.gauge("engine.live_pss_bytes", &[]),
        peak_inflight: m.gauge("engine.peak_inflight", &[]),
        peak_queue_depth: m.gauge("engine.peak_queue_depth", &[]),
        peak_live_pss: m.gauge("engine.peak_live_pss_bytes", &[]),
        peak_live_pss_bytes: 0,
    };
    let out = driver::run(&mut fleet, &mut gauges, &mut RoundRobin::new(), requests);
    EngineReport {
        completions: out.completions,
        retained: out.retained.into_iter().map(|(_, token)| token).collect(),
        peak_inflight: out.stats.peak_inflight,
        peak_queue_depth: out.stats.peak_host_queue_depth,
        peak_live_pss_bytes: gauges.peak_live_pss_bytes,
        events_processed: out.stats.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{FunctionSpec, PlatformError, StartKind};
    use crate::env::PlatformEnv;
    use crate::fireworks::FireworksPlatform;
    use crate::symbols::fid;
    use fireworks_lang::Value;
    use fireworks_runtime::RuntimeKind;

    const SRC: &str = "
        fn main(params) {
            let n = params[\"n\"];
            let t = 0;
            for (let i = 0; i < n; i = i + 1) { t = t + i; }
            return t;
        }";

    fn spec(name: &str) -> FunctionSpec {
        FunctionSpec::new(
            name,
            SRC,
            RuntimeKind::NodeLike,
            Value::map([("n".to_string(), Value::Int(1000))]),
        )
    }

    fn args(n: i64) -> Value {
        Value::map([("n".to_string(), Value::Int(n))])
    }

    fn burst(count: usize, at: Nanos) -> Vec<EngineRequest> {
        (0..count)
            .map(|_| EngineRequest::at(at, InvokeRequest::new(fid("f"), args(500))))
            .collect()
    }

    fn installed_platform() -> FireworksPlatform {
        let mut p = FireworksPlatform::new(PlatformEnv::default_env());
        p.install(&spec("f")).expect("installs");
        p
    }

    use crate::api::Platform;

    #[test]
    fn a_burst_genuinely_overlaps_in_flight() {
        let mut p = installed_platform();
        let env = p.env().clone();
        let report = run_concurrent(
            &mut p,
            &env.clock,
            &env.obs,
            &EngineConfig::new(4),
            &burst(4, Nanos::ZERO),
        );
        assert_eq!(report.peak_inflight, 4, "all four clones live at once");
        assert_eq!(report.peak_queue_depth, 0);
        assert!(report.peak_live_pss_bytes > 0, "live clones have PSS");
        for c in &report.completions {
            let inv = c.result.as_ref().expect("succeeds");
            assert_eq!(inv.start, StartKind::SnapshotRestore);
            assert_eq!(c.waited(), Nanos::ZERO);
        }
        // Concurrent arrivals all start at t=0: their service spans
        // overlap on the virtual timeline.
        assert!(report.completions.iter().all(|c| c.started == Nanos::ZERO));
    }

    #[test]
    fn slots_gate_admission_fcfs() {
        let mut p = installed_platform();
        let env = p.env().clone();
        let report = run_concurrent(
            &mut p,
            &env.clock,
            &env.obs,
            &EngineConfig::new(1),
            &burst(3, Nanos::ZERO),
        );
        assert_eq!(report.peak_inflight, 1);
        assert_eq!(report.peak_queue_depth, 2);
        // FCFS: request k starts when request k-1 finishes.
        for w in report.completions.windows(2) {
            assert_eq!(w[1].started, w[0].finished);
        }
        let snap = env.obs.metrics().snapshot();
        assert_eq!(snap.gauge("engine.peak_queue_depth", &[]), Some(2));
        assert_eq!(snap.gauge("engine.inflight", &[]), Some(0), "drained");
        assert_eq!(snap.gauge("engine.queue_depth", &[]), Some(0));
    }

    #[test]
    fn retain_mode_keeps_clones_resident() {
        let mut p = installed_platform();
        let env = p.env().clone();
        let used_before = env.host_mem.used_bytes();
        let report = run_concurrent(
            &mut p,
            &env.clock,
            &env.obs,
            &EngineConfig::new(2).retain_completed(),
            &burst(3, Nanos::ZERO),
        );
        assert_eq!(report.retained.len(), 3);
        assert!(
            env.host_mem.used_bytes() > used_before,
            "retained clones keep their guest memory charged"
        );
        for clone in report.retained {
            p.release_clone(clone);
        }
    }

    #[test]
    fn identical_schedules_produce_identical_reports() {
        let run = || {
            let mut p = installed_platform();
            let env = p.env().clone();
            let mut requests = burst(5, Nanos::ZERO);
            for (k, r) in requests.iter_mut().enumerate() {
                r.arrival = Nanos::from_millis(3 * k as u64);
            }
            let report = run_concurrent(
                &mut p,
                &env.clock,
                &env.obs,
                &EngineConfig::new(2),
                &requests,
            );
            report
                .completions
                .iter()
                .map(|c| (c.arrived, c.started, c.finished))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn failures_occupy_their_slot_until_the_failure_instant() {
        let mut p = installed_platform();
        let env = p.env().clone();
        let requests = vec![
            EngineRequest::at(Nanos::ZERO, InvokeRequest::new(fid("ghost"), args(1))),
            EngineRequest::at(Nanos::ZERO, InvokeRequest::new(fid("f"), args(10))),
        ];
        let report = run_concurrent(
            &mut p,
            &env.clock,
            &env.obs,
            &EngineConfig::new(1),
            &requests,
        );
        assert!(matches!(
            report.completions[0].result,
            Err(PlatformError::UnknownFunction(_))
        ));
        let inv = report.completions[1].result.as_ref().expect("succeeds");
        assert_eq!(inv.value, Value::Int(45));
        assert_eq!(
            report.completions[1].started,
            report.completions[0].finished
        );
    }

    #[test]
    fn queued_requests_past_their_deadline_are_rejected_without_a_slot() {
        let mut p = installed_platform();
        let env = p.env().clone();
        // One slot; the first request occupies it for its whole service
        // time, so the second — deadline 1 ns after arrival — expires in
        // the queue, and the third still runs.
        let requests = vec![
            EngineRequest::at(Nanos::ZERO, InvokeRequest::new(fid("f"), args(500))),
            EngineRequest::at(
                Nanos::ZERO,
                InvokeRequest::new(fid("f"), args(500)).with_deadline(Nanos::from_nanos(1)),
            ),
            EngineRequest::at(Nanos::ZERO, InvokeRequest::new(fid("f"), args(500))),
        ];
        let report = run_concurrent(
            &mut p,
            &env.clock,
            &env.obs,
            &EngineConfig::new(1),
            &requests,
        );
        assert!(report.completions[0].result.is_ok());
        assert!(matches!(
            report.completions[1].result,
            Err(PlatformError::DeadlineExceeded { .. })
        ));
        assert_eq!(
            report.completions[1].sojourn(),
            report.completions[0].finished,
            "rejected exactly when its slot would have opened"
        );
        let inv2 = report.completions[2].result.as_ref().expect("succeeds");
        assert_eq!(inv2.value, Value::Int(124750));
        // The third request started right after the first finished: the
        // expired request never held the slot.
        assert_eq!(
            report.completions[2].started,
            report.completions[0].finished
        );
    }
}
