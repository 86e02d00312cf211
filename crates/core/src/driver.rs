//! The one discrete-event driver behind every front-end.
//!
//! [`crate::engine::run_concurrent`] (one borrowed platform),
//! [`crate::cluster::Cluster::run`] (N fixed hosts) and
//! [`crate::elastic::ElasticCluster::run`] (N elastic hosts) all run the
//! same loop over the same host table ([`Fleet`]): a fixed cluster is an
//! elastic one whose hosts only ever are `Active` or `Dead`, a single
//! host is a one-host cluster. The loop owns admission (per-host FIFO
//! queues bounded by the fleet's cap, plus the cluster-level queue),
//! routing, the per-request tracing protocol, deadline rejection,
//! `HostCrash`/mesh-dead drain-and-reroute, token release or retention,
//! and the request-conservation assert. What differs between the
//! front-ends is a [`Control`] implementation — hook bodies and
//! control-plane events — and which metrics they publish from the plain
//! counters in [`RunStats`]; no metric name appears in this file.
//!
//! # Events
//!
//! - `Arrive(i)`: mint request `i`'s trace (a detached `request` root),
//!   then route it: service now, a host queue, the cluster queue, or a
//!   terminal rejection.
//! - `Complete { host, index }`: release (or retain) the in-flight
//!   token, free the slot, start the head of that host's queue, then
//!   re-offer cluster-queued requests to the router.
//! - `Control(c)`: a control-plane event the [`Control`] impl scheduled
//!   for itself (the elastic tick, boot, drain deadline, hand-off).
//!
//! After every event the loop fails hosts the chunk mesh saw die
//! mid-transfer and samples the concurrency high-water marks.

use std::borrow;
use std::collections::{BTreeMap, VecDeque};

use fireworks_obs::{cat, Metrics, Obs, Recorder, SpanContext, SpanId, TraceId};
use fireworks_sim::engine::EventQueue;
use fireworks_sim::fault::FaultSite;
use fireworks_sim::trace::Phase;
use fireworks_sim::{Clock, Nanos};

use crate::api::{ConcurrentPlatform, PlatformError};
use crate::cluster::{ClusterCompletion, HostView, Route, Router};
use crate::config::PlatformConfig;
use crate::engine::{CompletionPolicy, EngineRequest};
use crate::env::{EnvConfig, PlatformEnv};
use crate::mesh::{ChunkMesh, SharedChunkMesh};
use crate::symbols::{FunctionId, HostId};

/// Per-host seed spacing for the derived fault plans (golden-ratio
/// increment, the SplitMix64 stream constant).
const HOST_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Lifecycle phase of one host. Ids are never reused, so every host a
/// fleet ever powered has a phase; a fixed cluster only uses `Active`
/// and `Dead`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPhase {
    /// Provisioning: boot scheduled, not yet admitting.
    Booting,
    /// Serving and admitting.
    Active,
    /// Admissions stopped; finishing in-flight work and handing hot
    /// snapshots to survivors.
    Draining,
    /// Left gracefully (drain completed or deadline-forced removal).
    Retired,
    /// Crashed, or failed to boot. Permanent.
    Dead,
}

impl HostPhase {
    /// Whether the host consumes machine-time right now (powered
    /// phases are what [`crate::elastic::ElasticReport::host_time`]
    /// integrates).
    pub fn is_powered(self) -> bool {
        matches!(
            self,
            HostPhase::Booting | HostPhase::Active | HostPhase::Draining
        )
    }
}

/// One row of the host table.
pub(crate) struct Host<P: ConcurrentPlatform, B = P> {
    /// The platform: owned by clusters, borrowed by `run_concurrent`.
    platform: B,
    /// The host's own services. `None` marks the anonymous host
    /// `run_concurrent` wraps around a borrowed platform: it has no
    /// injector to draw `HostCrash` from and its `service` spans carry
    /// no `host` attribute.
    pub env: Option<PlatformEnv>,
    pub phase: HostPhase,
    /// Free invoker slots.
    pub free: usize,
    /// The host's FIFO admission queue (request indices).
    pub waiting: VecDeque<usize>,
    /// In-flight tokens by request index (ordered, so PSS sampling is
    /// deterministic).
    pub inflight: BTreeMap<usize, P::InFlight>,
}

impl<P: ConcurrentPlatform, B: borrow::BorrowMut<P>> Host<P, B> {
    // `borrow::BorrowMut` stays out of method scope: it would shadow
    // `RefCell::borrow_mut` on every `Rc<RefCell<_>>` in this file.
    pub fn platform(&self) -> &P {
        borrow::Borrow::borrow(&self.platform)
    }

    pub fn platform_mut(&mut self) -> &mut P {
        borrow::BorrowMut::borrow_mut(&mut self.platform)
    }
}

/// The host table shared by [`crate::cluster::Cluster`] and
/// [`crate::elastic::ElasticCluster`], which both dereference to it:
/// per-host platforms and environments on one virtual clock, one obs
/// plane and one chunk mesh.
pub struct Fleet<P: ConcurrentPlatform, B = P> {
    pub(crate) clock: Clock,
    pub(crate) obs: Obs,
    pub(crate) mesh: SharedChunkMesh,
    pub(crate) hosts: Vec<Host<P, B>>,
    pub(crate) slots_per_host: usize,
    pub(crate) host_queue_cap: usize,
    pub(crate) completion: CompletionPolicy,
    /// Hosts per [`HostPhase`], maintained by [`Fleet::set_phase`] so no
    /// per-event path scans the host table.
    census: [usize; 5],
    /// Invocations in service fleet-wide (same reason).
    pub(crate) inflight_total: usize,
    events_processed: u64,
}

impl<P: ConcurrentPlatform, B: borrow::BorrowMut<P>> Fleet<P, B> {
    /// An empty fleet with its own chunk mesh on the given clock and obs
    /// plane.
    pub(crate) fn new(
        clock: Clock,
        obs: Obs,
        slots_per_host: usize,
        host_queue_cap: usize,
        completion: CompletionPolicy,
    ) -> Self {
        assert!(slots_per_host > 0, "need at least one slot per host");
        Fleet {
            clock,
            obs,
            mesh: ChunkMesh::shared(),
            hosts: Vec::new(),
            slots_per_host,
            host_queue_cap,
            completion,
            census: [0; 5],
            inflight_total: 0,
            events_processed: 0,
        }
    }

    /// Appends a host in `phase` with every slot free; returns its id.
    pub(crate) fn push_host(
        &mut self,
        platform: B,
        env: Option<PlatformEnv>,
        phase: HostPhase,
    ) -> usize {
        self.census[phase as usize] += 1;
        self.hosts.push(Host {
            platform,
            env,
            phase,
            free: self.slots_per_host,
            waiting: VecDeque::new(),
            inflight: BTreeMap::new(),
        });
        self.hosts.len() - 1
    }

    pub(crate) fn set_phase(&mut self, h: usize, phase: HostPhase) {
        let old = std::mem::replace(&mut self.hosts[h].phase, phase);
        self.census[old as usize] -= 1;
        self.census[phase as usize] += 1;
    }

    pub(crate) fn count(&self, phase: HostPhase) -> usize {
        self.census[phase as usize]
    }

    /// Hosts consuming machine-time (booting, active or draining).
    pub(crate) fn powered(&self) -> usize {
        self.count(HostPhase::Booting)
            + self.count(HostPhase::Active)
            + self.count(HostPhase::Draining)
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The shared observability plane.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The fleet's chunk mesh (content-addressed snapshot distribution).
    pub fn mesh(&self) -> &SharedChunkMesh {
        &self.mesh
    }

    /// Number of hosts ever created (alive or not).
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the fleet has no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Host `h`'s platform.
    pub fn host(&self, h: HostId) -> &P {
        self.hosts[h.index()].platform()
    }

    /// Host `h`'s platform, mutably.
    pub fn host_mut(&mut self, h: HostId) -> &mut P {
        self.hosts[h.index()].platform_mut()
    }

    /// Host `h`'s environment (its RAM, bus, store, injector, …).
    pub fn host_env(&self, h: HostId) -> &PlatformEnv {
        self.hosts[h.index()]
            .env
            .as_ref()
            .expect("cluster hosts own their environment")
    }

    /// Host `h`'s current lifecycle phase.
    pub fn phase(&self, h: HostId) -> HostPhase {
        self.hosts[h.index()].phase
    }

    /// Simulator events processed by every run on this fleet so far —
    /// the denominator of the events/sec throughput metric the sweeps
    /// report.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Fills `buf` with the router's per-host views for `function`: only
    /// `Active` hosts are healthy. The buffer is reused across routing
    /// decisions so the hot path never allocates.
    fn views_into(&self, function: FunctionId, buf: &mut Vec<HostView>) {
        buf.clear();
        buf.extend(self.hosts.iter().enumerate().map(|(id, host)| HostView {
            id: HostId::from_index(id),
            healthy: host.phase == HostPhase::Active,
            inflight: host.inflight.len(),
            queue_depth: host.waiting.len(),
            slots: self.slots_per_host,
            queue_cap: self.host_queue_cap,
            residency: host.platform().residency(function),
        }));
    }
}

impl<P: ConcurrentPlatform> Fleet<P> {
    /// Stamps out one `Booting` host with `factory(env, platform)` and
    /// attaches it to the mesh; returns its id. The host's fault-plan
    /// seed derives from the template seed and the host id, so
    /// same-config fleets are bit-for-bit reproducible while hosts still
    /// fail independently.
    pub(crate) fn add_host(
        &mut self,
        env: &EnvConfig,
        platform: &PlatformConfig,
        factory: &mut dyn FnMut(PlatformEnv, &PlatformConfig) -> P,
    ) -> usize {
        let h = self.hosts.len();
        let mut env = env.clone();
        env.fault_plan.seed = env
            .fault_plan
            .seed
            .wrapping_add((h as u64).wrapping_mul(HOST_SEED_STRIDE));
        let env = PlatformEnv::with_shared(env, self.clock.clone(), self.obs.clone());
        let mut platform = factory(env.clone(), platform);
        platform.attach_mesh(self.mesh.clone(), HostId::from_index(h));
        self.push_host(platform, Some(env), HostPhase::Booting)
    }
}

/// What the loop counted during one run, as plain data: each front-end
/// publishes these under its own metric names.
#[derive(Debug, Default)]
pub(crate) struct RunStats {
    /// Requests placed off their router-preferred host (fallbacks and
    /// reroutes of displaced requests).
    pub rebalances: u64,
    /// Service starts on a host already fully holding the snapshot.
    pub locality_hits: u64,
    /// Requests displaced from a failed host and handed back to the
    /// router.
    pub crash_reroutes: u64,
    /// Hosts that failed, in failure order.
    pub failed_hosts: Vec<HostId>,
    pub peak_inflight: usize,
    pub peak_host_queue_depth: usize,
    pub peak_cluster_queue_depth: usize,
    /// Events this run processed.
    pub events: u64,
}

impl RunStats {
    /// Adds each `(name, n)` to the front-end's counter `name` — only
    /// when `n` is non-zero, so a counter appears in a metrics snapshot
    /// once it has counted something.
    pub fn publish(m: &Metrics, counters: [(&'static str, u64); 3]) {
        for (name, n) in counters.into_iter().filter(|(_, n)| *n > 0) {
            m.add(name, &[], n);
        }
    }
}

/// What [`run`] hands back to its front-end.
pub(crate) struct Outcome<T> {
    /// One entry per request, ordered by request index.
    pub completions: Vec<ClusterCompletion>,
    /// `(host, token)` pairs kept resident under
    /// [`CompletionPolicy::Retain`], in completion order.
    pub retained: Vec<(HostId, T)>,
    pub stats: RunStats,
}

enum Event<E> {
    Arrive(usize),
    Complete { host: usize, index: usize },
    Control(E),
}

/// A front-end's control plane: the hooks [`run`] calls. Every hook
/// defaults to a no-op, which is the whole control plane of a fixed
/// fleet.
pub(crate) trait Control<P: ConcurrentPlatform, B: borrow::BorrowMut<P>>: Sized {
    /// Payload of the control-plane events this impl schedules for
    /// itself through [`Driver::schedule`].
    type Event;

    /// Once, after the arrivals are on the queue.
    fn on_start(&mut self, _d: &mut Driver<'_, P, B, Self>) {}

    /// Before each event, with the pre-event fleet and the clock not yet
    /// warped to `at`.
    fn before_event(&mut self, _fleet: &Fleet<P, B>, _at: Nanos) {}

    /// Request `function` was admitted and `root` opened for it.
    fn on_arrive(&mut self, _d: &mut Driver<'_, P, B, Self>, _function: FunctionId, _root: SpanId) {
    }

    /// `host` took a slot for a service activity.
    fn on_service_start(&mut self, _host: usize) {}

    /// `host`'s in-flight set or admission queue changed.
    fn on_host_changed(&mut self, _h: usize, _host: &Host<P, B>) {}

    /// A completion on `host` freed its slot and restarted its queue;
    /// the cluster queue is re-offered next.
    fn on_complete(&mut self, _d: &mut Driver<'_, P, B, Self>, _host: usize) {}

    /// A control-plane event this impl scheduled fired.
    fn on_control(&mut self, _d: &mut Driver<'_, P, B, Self>, _event: Self::Event) {}

    /// `host` failed and everything it was queueing has been rerouted.
    fn on_host_failed(&mut self, _d: &mut Driver<'_, P, B, Self>, _host: usize) {}

    /// With no `Active` host left: whether the control plane can still
    /// bring capacity back (so requests wait instead of failing).
    fn capacity_may_return(&self, _fleet: &Fleet<P, B>) -> bool {
        false
    }

    /// After each event (and the mesh reap that follows it): gauges,
    /// front-end peaks.
    fn after_event(&mut self, _d: &Driver<'_, P, B, Self>) {}
}

/// The loop's state during one run, handed to the [`Control`] hooks so
/// the control plane can route, reject, fail hosts and schedule its own
/// events through the same code paths the loop uses.
pub(crate) struct Driver<'a, P: ConcurrentPlatform, B: borrow::BorrowMut<P>, C: Control<P, B>> {
    pub fleet: &'a mut Fleet<P, B>,
    router: &'a mut dyn Router,
    pub requests: &'a [EngineRequest],
    /// The fleet's recorder, cloned once per run.
    pub rec: Recorder,
    queue: EventQueue<Event<C::Event>>,
    out: Vec<Option<ClusterCompletion>>,
    /// Requests with an outcome in `out`.
    pub resolved: usize,
    /// Per-request detached trace roots, set at arrival and cleared at
    /// service start or rejection.
    roots: Vec<Option<(TraceId, SpanId)>>,
    /// The cluster-level admission queue.
    pub cluster_waiting: VecDeque<usize>,
    pub retained: Vec<(HostId, P::InFlight)>,
    views_buf: Vec<HostView>,
    pub stats: RunStats,
}

/// Drives `requests` (sorted by arrival) through `fleet` under `router`
/// and `ctl`.
///
/// # Panics
///
/// Panics if `requests` are not sorted by arrival time, or if any
/// request fails to reach a terminal outcome (request conservation — a
/// driver or control-plane bug by definition).
pub(crate) fn run<P, B, C>(
    fleet: &mut Fleet<P, B>,
    ctl: &mut C,
    router: &mut dyn Router,
    requests: &[EngineRequest],
) -> Outcome<P::InFlight>
where
    P: ConcurrentPlatform,
    B: borrow::BorrowMut<P>,
    C: Control<P, B>,
{
    assert!(
        requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "requests must be sorted by arrival time"
    );
    let mut d = Driver {
        rec: fleet.obs.recorder().clone(),
        out: std::iter::repeat_with(|| None)
            .take(requests.len())
            .collect(),
        resolved: 0,
        roots: vec![None; requests.len()],
        cluster_waiting: VecDeque::new(),
        retained: Vec::new(),
        views_buf: Vec::with_capacity(fleet.hosts.len()),
        stats: RunStats::default(),
        fleet,
        router,
        requests,
        queue: EventQueue::new(),
    };
    for (i, r) in requests.iter().enumerate() {
        d.queue.schedule(r.arrival, Event::Arrive(i));
    }
    ctl.on_start(&mut d);

    while let Some(ev) = d.queue.pop() {
        d.stats.events += 1;
        d.fleet.events_processed += 1;
        ctl.before_event(d.fleet, ev.at);
        d.fleet.clock.warp_to(ev.at);
        match ev.event {
            Event::Arrive(i) => d.arrive(ctl, i),
            Event::Complete { host, index } => d.complete(ctl, host, index),
            Event::Control(event) => ctl.on_control(&mut d, event),
        }
        d.reap_mesh_dead(ctl);
        let stats = &mut d.stats;
        stats.peak_inflight = stats.peak_inflight.max(d.fleet.inflight_total);
        stats.peak_cluster_queue_depth =
            stats.peak_cluster_queue_depth.max(d.cluster_waiting.len());
        ctl.after_event(&d);
    }

    // Request conservation: every submitted request — including any
    // displaced from a failed or draining host's queue — must have
    // reached a terminal outcome. A hole here means a drain dropped a
    // request instead of rerouting it.
    assert!(
        d.resolved == requests.len(),
        "request conservation violated: requests {:?} have no outcome \
         ({} displaced requests were rerouted, failed hosts: {:?})",
        (0..requests.len())
            .filter(|&i| d.out[i].is_none())
            .collect::<Vec<_>>(),
        d.stats.crash_reroutes,
        d.stats.failed_hosts,
    );
    Outcome {
        completions: d.out.into_iter().flatten().collect(),
        retained: d.retained,
        stats: d.stats,
    }
}

impl<P: ConcurrentPlatform, B: borrow::BorrowMut<P>, C: Control<P, B>> Driver<'_, P, B, C> {
    /// Schedules control-plane event `event` at `at`.
    pub fn schedule(&mut self, at: Nanos, event: C::Event) {
        self.queue.schedule(at, Event::Control(event));
    }

    /// Admission mints the request's trace: one detached root span per
    /// request, so spans from interleaved requests (and hosts) never
    /// adopt each other.
    fn arrive(&mut self, ctl: &mut C, i: usize) {
        let function = self.requests[i].invoke.function;
        let trace = self.rec.next_trace_id();
        let root = self.rec.start_detached("request", cat::INVOKE, trace);
        self.rec.attr(root, "function", &*function.name());
        self.roots[i] = Some((trace, root));
        ctl.on_arrive(self, function, root);
        self.place(ctl, i, None);
    }

    fn complete(&mut self, ctl: &mut C, h: usize, index: usize) {
        let host = &mut self.fleet.hosts[h];
        if let Some(token) = host.inflight.remove(&index) {
            self.fleet.inflight_total -= 1;
            match self.fleet.completion {
                CompletionPolicy::Release => host.platform_mut().finish_invoke(token),
                CompletionPolicy::Retain => self.retained.push((HostId::from_index(h), token)),
            }
        }
        host.free += 1;
        ctl.on_host_changed(h, host);
        // Drain this host's own queue first (FIFO), skipping requests
        // whose deadline passed while they waited…
        if host.phase == HostPhase::Active {
            while let Some(next) = self.fleet.hosts[h].waiting.pop_front() {
                if !self.reject_if_expired(next, None) {
                    self.start_service(ctl, h, next);
                    break;
                }
            }
        }
        ctl.on_complete(self, h);
        // …then let cluster-queued requests try the router again.
        self.drain_cluster_queue(ctl);
    }

    /// FIFO-drains the cluster admission queue through the router,
    /// stopping at the first request that still cannot place.
    pub fn drain_cluster_queue(&mut self, ctl: &mut C) {
        while let Some(next) = self.cluster_waiting.pop_front() {
            if !self.dispatch(ctl, next, None) {
                self.cluster_waiting.push_front(next);
                break;
            }
        }
    }

    /// Routes request `i`, parking it at the back of the cluster queue
    /// if nothing can take it now.
    pub fn place(&mut self, ctl: &mut C, i: usize, rerouted_from: Option<usize>) {
        if !self.dispatch(ctl, i, rerouted_from) {
            self.cluster_waiting.push_back(i);
        }
    }

    /// Routes request `i` and places it: service, host queue, or
    /// terminal rejection. Returns `false` only when the request must
    /// wait on the cluster queue (the caller parks it front or back).
    /// `rerouted_from` marks a request displaced off that host: its
    /// placement counts as a rebalance and a terminal failure names the
    /// host.
    fn dispatch(&mut self, ctl: &mut C, i: usize, rerouted_from: Option<usize>) -> bool {
        if self.reject_if_expired(i, rerouted_from) {
            return true;
        }
        let r = &self.requests[i];
        if let (Some(from), Some((_, root))) = (rerouted_from, self.roots[i]) {
            // The router consult below is a second routing decision on
            // this request's trace.
            self.rec.instant_under(
                root,
                "rerouted",
                cat::ROUTE,
                vec![("from_host", from.into())],
            );
        }
        if self.fleet.count(HostPhase::Active) == 0 {
            // No serving capacity. The cluster queue only drains on
            // completions and control events, so unless the control
            // plane can still provision a host nothing will ever serve
            // this request.
            if ctl.capacity_may_return(self.fleet) {
                return false;
            }
            let error = PlatformError::HostUnavailable {
                function: r.invoke.function.name().to_string(),
                host: rerouted_from,
            };
            self.reject(i, rerouted_from, "host_unavailable", error);
            return true;
        }
        let mut views = std::mem::take(&mut self.views_buf);
        self.fleet.views_into(r.invoke.function, &mut views);
        let placed = match self.router.route(&r.invoke, &views) {
            Route::Host(h) => Some((h.index(), false)),
            Route::Fallback(h) => Some((h.index(), true)),
            Route::Defer => None,
        };
        debug_assert!(
            placed.is_none_or(|(h, _)| views[h].has_capacity()),
            "router picked a full host"
        );
        self.views_buf = views;
        let Some((h, rebalanced)) = placed else {
            return false;
        };
        if rebalanced || rerouted_from.is_some() {
            self.stats.rebalances += 1;
        }
        let host = &mut self.fleet.hosts[h];
        if host.free > 0 {
            self.start_service(ctl, h, i);
        } else {
            host.waiting.push_back(i);
            let stats = &mut self.stats;
            stats.peak_host_queue_depth = stats.peak_host_queue_depth.max(host.waiting.len());
            ctl.on_host_changed(h, host);
        }
        true
    }

    /// Starts request `i` on host `h` at the current instant — unless
    /// the host's injector fires [`FaultSite::HostCrash`] at this
    /// service boundary, in which case the host fails and everything it
    /// was queueing (this request included) re-routes.
    fn start_service(&mut self, ctl: &mut C, h: usize, i: usize) {
        let host = &mut self.fleet.hosts[h];
        let crashed = host
            .env
            .as_ref()
            .is_some_and(|env| env.injector.borrow_mut().should_fail(FaultSite::HostCrash));
        if crashed {
            self.fail_host(ctl, h, Some(i));
            return;
        }
        host.free -= 1;
        ctl.on_service_start(h);
        let started = self.fleet.clock.now();
        let r = &self.requests[i];
        if host.platform().residency(r.invoke.function).is_full() {
            self.stats.locality_hits += 1;
        }
        let rec = &self.rec;
        let (trace, root) = self.roots[i].take().expect("request admitted");
        rec.record_closed_under(root, "queued", cat::QUEUE, Phase::Other, r.arrival, started);
        // The service span goes on the shared open stack: every span the
        // host platform records nests under it and inherits the trace.
        // The flow pair draws the admission → service causal arrow
        // (rendered as a cross-track arrow in Perfetto).
        let service = rec.start_under(root, "service", cat::INVOKE);
        if host.env.is_some() {
            rec.attr(service, "host", h);
        }
        rec.flow_out(root, trace.raw());
        rec.flow_in(service, trace.raw());
        let invoke = r.invoke.clone().with_trace(SpanContext {
            trace,
            parent: service,
        });
        let result = host.platform_mut().begin_invoke(&invoke);
        let finished = self.fleet.clock.now();
        rec.end(service);
        rec.end_detached(root);
        // A failed invocation held its slot up to the failure instant;
        // the Complete event frees it there.
        let result = result.map(|(invocation, token)| {
            host.inflight.insert(i, token);
            self.fleet.inflight_total += 1;
            invocation
        });
        ctl.on_host_changed(h, host);
        self.resolve(ClusterCompletion {
            index: i,
            host: Some(HostId::from_index(h)),
            function: r.invoke.function,
            arrived: r.arrival,
            started,
            finished,
            result,
        });
        self.queue
            .schedule(finished, Event::Complete { host: h, index: i });
    }

    fn resolve(&mut self, completion: ClusterCompletion) {
        let slot = &mut self.out[completion.index];
        debug_assert!(slot.is_none(), "request resolved twice");
        *slot = Some(completion);
        self.resolved += 1;
    }

    /// Resolves request `i` with `error` at the current instant without
    /// it ever consuming a slot; its trace root closes with a `rejected`
    /// attribute.
    fn reject(
        &mut self,
        i: usize,
        rerouted_from: Option<usize>,
        reason: &'static str,
        error: PlatformError,
    ) {
        let now = self.fleet.clock.now();
        let r = &self.requests[i];
        if let Some((_, root)) = self.roots[i].take() {
            self.rec
                .record_closed_under(root, "queued", cat::QUEUE, Phase::Other, r.arrival, now);
            self.rec.attr(root, "rejected", reason);
            self.rec.end_detached(root);
        }
        self.resolve(ClusterCompletion {
            index: i,
            host: rerouted_from.map(HostId::from_index),
            function: r.invoke.function,
            arrived: r.arrival,
            started: now,
            finished: now,
            result: Err(error),
        });
    }

    /// Rejects request `i` with [`PlatformError::DeadlineExceeded`] if
    /// its deadline has passed; returns whether it was rejected.
    fn reject_if_expired(&mut self, i: usize, rerouted_from: Option<usize>) -> bool {
        let r = &self.requests[i];
        let Some(deadline) = r.invoke.deadline else {
            return false;
        };
        if self.fleet.clock.now() <= deadline {
            return false;
        }
        let error = PlatformError::DeadlineExceeded {
            function: r.invoke.function.name().to_string(),
            deadline,
        };
        self.reject(i, rerouted_from, "deadline", error);
        true
    }

    /// Fails host `h` permanently: marks it dead (fleet and mesh), then
    /// re-routes `trigger` and every request in its admission queue
    /// through the router. In-flight invocations on the host finish
    /// normally — their completion events are already on the timeline.
    pub fn fail_host(&mut self, ctl: &mut C, h: usize, trigger: Option<usize>) {
        self.fleet.set_phase(h, HostPhase::Dead);
        let id = HostId::from_index(h);
        self.fleet.mesh.borrow_mut().mark_dead(id);
        self.stats.failed_hosts.push(id);
        self.rec.instant(format!("host_crash:{h}"), cat::FAULT);
        let mut displaced = std::mem::take(&mut self.fleet.hosts[h].waiting);
        ctl.on_host_changed(h, &self.fleet.hosts[h]);
        if let Some(trigger) = trigger {
            displaced.push_front(trigger);
        }
        self.stats.crash_reroutes += displaced.len() as u64;
        for i in displaced {
            self.place(ctl, i, Some(h));
        }
        ctl.on_host_failed(self, h);
    }

    /// Fails hosts whose crash was first observed by a peer's delta
    /// fetch (the mesh marks them dead mid-transfer, before any service
    /// boundary on the host itself would have drawn the fault). Their
    /// queued requests drain and re-route exactly like a
    /// service-boundary crash.
    fn reap_mesh_dead(&mut self, ctl: &mut C) {
        // Collect first: `fail_host` needs the mesh borrow back.
        let dead = self.fleet.mesh.borrow().dead_hosts();
        for h in dead {
            let (h, hosts) = (h.index(), &self.fleet.hosts);
            if hosts.get(h).is_some_and(|host| host.phase.is_powered()) {
                self.fail_host(ctl, h, None);
            }
        }
    }
}
