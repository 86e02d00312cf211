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
//! An [`Engine`] is the cluster driver over a one-host fleet it owns:
//! the platform, `slots` invoker slots and an unbounded FIFO admission
//! queue. Arrivals, completions, deadline rejection and the determinism
//! argument are the ones [`crate::cluster`] documents; a rejected request
//! never consumes a slot. The engine differs from a one-host
//! [`crate::cluster::Cluster`] only in its control plane (the unlabelled
//! `engine.*` gauges) and in its host having no environment of its own:
//! it never draws [`fireworks_sim::FaultSite::HostCrash`], and its
//! `service` spans carry no `host` attribute.

use std::ops::Deref;

use fireworks_obs::{Gauge, Obs};
use fireworks_sim::{Clock, Nanos};

use crate::api::{ConcurrentPlatform, InFlightToken, InvokeRequest};
use crate::cluster::{ClusterReport, RoundRobin};
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

impl<P: ConcurrentPlatform> Control<P> for EngineGauges {
    type Event = ();

    fn after_event(&mut self, d: &Driver<'_, P, Self>) {
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

/// One platform on the event engine: `slots` invoker slots in front of
/// an unbounded FIFO queue, on the caller's clock and obs plane.
///
/// Every [`Engine::run`] publishes live gauges on the obs plane at each
/// event boundary — `engine.inflight`, `engine.queue_depth`,
/// `engine.live_pss_bytes` — and their `engine.peak_*` high-water marks
/// for that run, so a metrics snapshot taken after a run carries its
/// concurrency profile. Dereferences to its one-host [`Fleet`] for the
/// clock, obs plane and the events processed by every run so far.
pub struct Engine<P: ConcurrentPlatform> {
    fleet: Fleet<P>,
    gauges: EngineGauges,
}

impl<P: ConcurrentPlatform> Deref for Engine<P> {
    type Target = Fleet<P>;

    fn deref(&self) -> &Fleet<P> {
        &self.fleet
    }
}

impl<P: ConcurrentPlatform> Engine<P> {
    /// Puts `platform` on the engine with `slots` invoker slots;
    /// `completion` decides what happens to in-flight tokens.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn new(
        platform: P,
        clock: &Clock,
        obs: &Obs,
        slots: usize,
        completion: CompletionPolicy,
    ) -> Self {
        let mut fleet = Fleet::new(clock.clone(), obs.clone(), slots, usize::MAX, completion);
        fleet.push_host(platform, None, HostPhase::Active);
        let m = obs.metrics();
        let gauges = EngineGauges {
            inflight: m.gauge("engine.inflight", &[]),
            queue_depth: m.gauge("engine.queue_depth", &[]),
            live_pss: m.gauge("engine.live_pss_bytes", &[]),
            peak_inflight: m.gauge("engine.peak_inflight", &[]),
            peak_queue_depth: m.gauge("engine.peak_queue_depth", &[]),
            peak_live_pss: m.gauge("engine.peak_live_pss_bytes", &[]),
            peak_live_pss_bytes: 0,
        };
        Engine { fleet, gauges }
    }

    /// Drives `requests` (sorted by arrival) through the platform and
    /// returns the completions with this run's concurrency peaks; every
    /// completion and retained token is on host 0.
    ///
    /// # Panics
    ///
    /// Panics if `requests` are not sorted by arrival time.
    pub fn run(&mut self, requests: &[EngineRequest]) -> ClusterReport<P::InFlight> {
        self.gauges.peak_live_pss_bytes = 0;
        let router = &mut RoundRobin::new();
        driver::run(&mut self.fleet, &mut self.gauges, router, requests).into_report()
    }

    /// Highest total PSS of live in-flight (plus retained) guest memory
    /// during the last run, sampled at event boundaries.
    pub fn peak_live_pss_bytes(&self) -> u64 {
        self.gauges.peak_live_pss_bytes
    }

    /// The platform, mutably.
    pub fn platform_mut(&mut self) -> &mut P {
        &mut self.fleet.hosts[0].platform
    }

    /// Gives the platform back.
    pub fn into_platform(self) -> P {
        let host = self.fleet.hosts.into_iter().next();
        host.expect("the engine has one host").platform
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{FunctionSpec, Platform, PlatformError, StartKind};
    use crate::env::PlatformEnv;
    use crate::fireworks::{FireworksPlatform, ResidentClone};
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

    /// An engine over `platform` on the platform's own clock and obs
    /// plane.
    fn engine_on(
        platform: FireworksPlatform,
        slots: usize,
        completion: CompletionPolicy,
    ) -> Engine<FireworksPlatform> {
        let env = platform.env().clone();
        Engine::new(platform, &env.clock, &env.obs, slots, completion)
    }

    fn serving(slots: usize) -> Engine<FireworksPlatform> {
        engine_on(installed_platform(), slots, CompletionPolicy::Release)
    }

    #[test]
    fn a_burst_genuinely_overlaps_in_flight() {
        let mut engine = serving(4);
        let report = engine.run(&burst(4, Nanos::ZERO));
        assert_eq!(report.peak_inflight, 4, "all four clones live at once");
        assert_eq!(report.peak_host_queue_depth, 0);
        assert!(engine.peak_live_pss_bytes() > 0, "live clones have PSS");
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
        let mut engine = serving(1);
        let report = engine.run(&burst(3, Nanos::ZERO));
        assert_eq!(report.peak_inflight, 1);
        assert_eq!(report.peak_host_queue_depth, 2);
        // FCFS: request k starts when request k-1 finishes.
        for w in report.completions.windows(2) {
            assert_eq!(w[1].started, w[0].finished);
        }
        let snap = engine.obs().metrics().snapshot();
        assert_eq!(snap.gauge("engine.peak_queue_depth", &[]), Some(2));
        assert_eq!(snap.gauge("engine.inflight", &[]), Some(0), "drained");
        assert_eq!(snap.gauge("engine.queue_depth", &[]), Some(0));
    }

    #[test]
    fn retain_mode_keeps_clones_resident() {
        let p = installed_platform();
        let env = p.env().clone();
        let used_before = env.host_mem.used_bytes();
        let mut engine = engine_on(p, 2, CompletionPolicy::Retain);
        let report = engine.run(&burst(3, Nanos::ZERO));
        assert_eq!(report.retained.len(), 3);
        assert!(
            env.host_mem.used_bytes() > used_before,
            "retained clones keep their guest memory charged"
        );
        for (_, clone) in report.retained {
            engine.platform_mut().release_clone(clone);
        }
    }

    /// What one wave leaves behind: every completion's instants and
    /// value, the run's peaks (in-flight, host queue, live PSS) and the
    /// six `engine.*` gauges.
    type Wave = (
        Vec<(Nanos, Nanos, Nanos, Option<Value>)>,
        [u64; 3],
        Vec<Option<i64>>,
    );

    /// Runs `count` simultaneous requests arriving now; retained clones
    /// go to `kept`, so they stay resident for later waves.
    fn wave(
        engine: &mut Engine<FireworksPlatform>,
        count: usize,
        kept: &mut Vec<ResidentClone>,
    ) -> Wave {
        let requests = burst(count, engine.clock().now());
        let report = engine.run(&requests);
        let completions = report
            .completions
            .iter()
            .map(|c| {
                let value = c.result.as_ref().ok().map(|inv| inv.value.deep_clone());
                (c.arrived, c.started, c.finished, value)
            })
            .collect();
        let peaks = [
            report.peak_inflight as u64,
            report.peak_host_queue_depth as u64,
            engine.peak_live_pss_bytes(),
        ];
        let snap = engine.obs().metrics().snapshot();
        let gauges = [
            "engine.inflight",
            "engine.queue_depth",
            "engine.live_pss_bytes",
            "engine.peak_inflight",
            "engine.peak_queue_depth",
            "engine.peak_live_pss_bytes",
        ]
        .iter()
        .map(|name| snap.gauge(name, &[]))
        .collect();
        kept.extend(report.retained.into_iter().map(|(_, clone)| clone));
        (completions, peaks, gauges)
    }

    #[test]
    fn a_reused_engine_runs_each_wave_like_a_fresh_one() {
        // The second wave is smaller than the first, so peaks carried
        // over from the first run would show.
        for completion in [CompletionPolicy::Release, CompletionPolicy::Retain] {
            let mut kept = Vec::new();
            let mut reused = engine_on(installed_platform(), 2, completion);
            let one_engine = [
                wave(&mut reused, 5, &mut kept),
                wave(&mut reused, 1, &mut kept),
            ];
            let mut first = engine_on(installed_platform(), 2, completion);
            let wave_one = wave(&mut first, 5, &mut kept);
            let mut second = engine_on(first.into_platform(), 2, completion);
            let two_engines = [wave_one, wave(&mut second, 1, &mut kept)];
            assert_eq!(one_engine, two_engines, "{completion:?}");
            assert_eq!(one_engine[1].1[..2], [1, 0], "{completion:?}");
        }
    }

    #[test]
    fn identical_schedules_produce_identical_reports() {
        let run = || {
            let mut requests = burst(5, Nanos::ZERO);
            for (k, r) in requests.iter_mut().enumerate() {
                r.arrival = Nanos::from_millis(3 * k as u64);
            }
            let report = serving(2).run(&requests);
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
        let requests = vec![
            EngineRequest::at(Nanos::ZERO, InvokeRequest::new(fid("ghost"), args(1))),
            EngineRequest::at(Nanos::ZERO, InvokeRequest::new(fid("f"), args(10))),
        ];
        let report = serving(1).run(&requests);
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
        let report = serving(1).run(&requests);
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
