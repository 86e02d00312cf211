//! Multi-host cluster scheduling with snapshot-locality routing.
//!
//! The single-host [`crate::engine::Engine`] drives one
//! [`ConcurrentPlatform`]; this module scales that model out: a
//! [`Cluster`] owns N per-host platform instances, each with its *own*
//! [`PlatformEnv`] — slot pool, RAM budget, snapshot cache, message bus,
//! store, network, fault injector — all advancing one shared virtual
//! clock and emitting into one shared obs plane. A [`Router`] policy
//! decides which host serves each request.
//!
//! # Why routing policy matters here
//!
//! Each host's post-JIT snapshot cache is bounded (paper §6): a host that
//! does not hold a function's snapshot must rebuild it from source —
//! seconds of virtual time charged to that invocation's start-up.
//! REAP (ASPLOS '21) showed snapshot working-set locality dominates
//! restore latency; at cluster scale the analogue is *cache* locality:
//! spraying requests round-robin thrashes every host's LRU, while
//! affinity routing keeps each function's snapshot hot on a few hosts.
//! [`LocalityAffinity`] implements that policy; `cluster_sweep` measures
//! it against [`RoundRobin`] and [`LeastLoaded`].
//!
//! # Admission and backpressure
//!
//! Each host has a FIFO admission queue bounded by
//! [`ClusterConfig::host_queue_cap`]. The router only places requests on
//! hosts with capacity (a free slot or queue room); when no healthy host
//! has capacity the request waits in the *cluster-level* admission queue,
//! which drains — FIFO, re-consulting the router — every time any host
//! completes an invocation. A request whose
//! [`InvokeRequest::deadline`] passes while queued is rejected with
//! [`PlatformError::DeadlineExceeded`] without consuming a slot.
//!
//! # Host failure
//!
//! Arm [`fireworks_sim::FaultSite::HostCrash`] on the cluster's fault
//! plan and the per-host injector is checked at every service start. A
//! firing permanently fails the host: its queued requests drain and
//! re-route through the router (counted in `cluster.rebalances`),
//! invocations already in flight still complete (their events are on the
//! timeline), and if no healthy host remains a request fails with
//! [`PlatformError::HostUnavailable`].
//!
//! # Determinism
//!
//! Everything is a pure function of the config, the request schedule, and
//! the fault-plan seed: hosts are stamped out in index order with
//! per-host derived fault seeds, the event queue orders by `(time, seq)`,
//! and every router policy is deterministic. Two runs with the same
//! inputs produce byte-identical reports for any host count.

use std::ops::{Deref, DerefMut};

use fireworks_obs::{Gauge, Obs};
use fireworks_sim::hash::fnv1a;
use fireworks_sim::{Clock, Nanos};

use crate::api::{
    ConcurrentPlatform, FunctionSpec, InstallReport, Invocation, InvokeRequest, PlatformError,
    SnapshotResidency,
};
use crate::config::PlatformConfig;
pub use crate::driver::Fleet;
use crate::driver::{self, Control, Driver, HostPhase, RunStats};
use crate::engine::{CompletionPolicy, EngineRequest};
use crate::env::{EnvConfig, PlatformEnv};
use crate::symbols::{FunctionId, HostId};

/// Cluster shape and per-host configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of hosts.
    pub hosts: usize,
    /// Invoker slots per host.
    pub slots_per_host: usize,
    /// Per-host admission-queue bound; a host whose queue is full exerts
    /// backpressure and receives no further requests until it drains.
    pub host_queue_cap: usize,
    /// Per-host environment template (RAM, costs, fault plan). Each host
    /// gets its own services built from this; the fault-plan seed is
    /// re-derived per host so hosts fail independently.
    pub env: EnvConfig,
    /// Per-host platform configuration (cache budget, recovery, …).
    pub platform: PlatformConfig,
    /// What happens to in-flight tokens at completion (retain for the
    /// cluster-wide §5.4 consolidation experiment).
    pub completion: CompletionPolicy,
}

impl ClusterConfig {
    /// A serving cluster of `hosts` hosts with `slots_per_host` slots,
    /// a queue bound of twice the slot count, default environment and
    /// platform config.
    pub fn new(hosts: usize, slots_per_host: usize) -> Self {
        ClusterConfig {
            hosts,
            slots_per_host,
            host_queue_cap: slots_per_host * 2,
            env: EnvConfig::default(),
            platform: PlatformConfig::default(),
            completion: CompletionPolicy::Release,
        }
    }
}

/// What a router sees about one host when placing a request.
#[derive(Debug, Clone, Copy)]
pub struct HostView {
    /// Host index.
    pub id: HostId,
    /// Whether the host is alive (a crashed host never comes back).
    pub healthy: bool,
    /// Invocations currently in service on this host.
    pub inflight: usize,
    /// Requests waiting in this host's admission queue.
    pub queue_depth: usize,
    /// The host's invoker-slot count.
    pub slots: usize,
    /// The host's admission-queue bound.
    pub queue_cap: usize,
    /// How much of the request's function's start artifact (post-JIT
    /// snapshot / checkpoint / warm sandbox) this host already holds —
    /// the locality signal. Content-addressed hosts report
    /// [`SnapshotResidency::Partial`] with the bytes a delta fetch would
    /// have to move.
    pub residency: SnapshotResidency,
}

impl HostView {
    /// Whether the host can accept one more request: alive, with a free
    /// slot or room in its admission queue.
    pub fn has_capacity(&self) -> bool {
        self.healthy && (self.inflight < self.slots || self.queue_depth < self.queue_cap)
    }

    /// Queueing-relevant load: in-service plus waiting.
    pub fn load(&self) -> usize {
        self.inflight + self.queue_depth
    }
}

/// A routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Serve on this host (the policy's genuine first choice).
    Host(HostId),
    /// The policy's preferred host could not take the request; serve on
    /// this fallback instead. The cluster counts these in
    /// `cluster.rebalances`.
    Fallback(HostId),
    /// No healthy host has capacity; wait in the cluster admission
    /// queue.
    Defer,
}

/// A deterministic request-placement policy.
///
/// The contract: return only hosts for which
/// [`HostView::has_capacity`] holds, and [`Route::Defer`] when there is
/// none. Policies must be pure functions of their own state and the
/// views — no randomness, no wall clock — so cluster runs replay
/// byte-identically.
pub trait Router {
    /// Policy name (used in reports and metric labels).
    fn name(&self) -> &'static str;

    /// Places one request given the current per-host views.
    fn route(&mut self, req: &InvokeRequest, hosts: &[HostView]) -> Route;
}

/// Cycles through hosts in index order, skipping hosts without capacity.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A round-robin router starting at host 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn route(&mut self, _req: &InvokeRequest, hosts: &[HostView]) -> Route {
        let n = hosts.len();
        for k in 0..n {
            let h = (self.next + k) % n;
            if hosts[h].has_capacity() {
                self.next = (h + 1) % n;
                return Route::Host(hosts[h].id);
            }
        }
        Route::Defer
    }
}

/// Places each request on the host with the lowest load (in-flight plus
/// queue depth), ties broken by lowest host index.
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// A least-loaded router.
    pub fn new() -> Self {
        LeastLoaded
    }
}

impl Router for LeastLoaded {
    fn name(&self) -> &'static str {
        "least_loaded"
    }

    fn route(&mut self, _req: &InvokeRequest, hosts: &[HostView]) -> Route {
        match least_loaded(hosts, |v| v.has_capacity()) {
            Some(h) => Route::Host(h),
            None => Route::Defer,
        }
    }
}

/// Prefers hosts whose cache already holds the function's snapshot;
/// falls back under overload.
///
/// Placement order:
/// 1. the least-loaded host *with capacity* whose residency is
///    [`SnapshotResidency::Full`];
/// 2. else the partial holder that would move the fewest bytes — a
///    content-addressed host sharing most of the snapshot's chunks
///    delta-fetches the remainder far cheaper than a rebuild (ties:
///    lowest load, then lowest id);
/// 3. else the function's stable home host (FNV-1a hash of its name,
///    probing upward), so a function's rebuilds concentrate on one host
///    whose cache then keeps it hot;
/// 4. else — home, holders, and partials all saturated — the first
///    host with capacity after the home probe, reported as
///    [`Route::Fallback`].
///
/// With a flat snapshot store every residency is `Full` or `Absent`, so
/// step 2 never matches and the policy reduces to its pre-dedup
/// behaviour.
///
/// The home hash is the FNV-1a of the function *name* (matching
/// [`Cluster::install_home`]), but it is computed once per
/// [`FunctionId`] and memoised in a dense id-indexed table — routing
/// decisions on the hot path never re-hash the string.
#[derive(Debug, Default)]
pub struct LocalityAffinity {
    /// `FunctionId::raw() → fnv1a(name)`, filled on first sight.
    home_hashes: Vec<Option<u64>>,
}

impl LocalityAffinity {
    /// A snapshot-locality-affinity router.
    pub fn new() -> Self {
        LocalityAffinity::default()
    }

    /// The function's stable home hash, memoised per id.
    fn home_hash(&mut self, function: FunctionId) -> u64 {
        let idx = function.raw() as usize;
        if idx >= self.home_hashes.len() {
            self.home_hashes.resize(idx + 1, None);
        }
        *self.home_hashes[idx].get_or_insert_with(|| fnv1a(function.name().as_bytes()))
    }
}

impl Router for LocalityAffinity {
    fn name(&self) -> &'static str {
        "locality"
    }

    fn route(&mut self, req: &InvokeRequest, hosts: &[HostView]) -> Route {
        if let Some(h) = least_loaded(hosts, |v| v.has_capacity() && v.residency.is_full()) {
            return Route::Host(h);
        }
        // No full holder free: the cheapest partial holder ships only its
        // missing chunks.
        if let Some(h) = hosts
            .iter()
            .filter(|v| {
                v.has_capacity() && matches!(v.residency, SnapshotResidency::Partial { .. })
            })
            .min_by_key(|v| (v.residency.missing_bytes(), v.load(), v.id))
            .map(|v| v.id)
        {
            return Route::Host(h);
        }
        // Otherwise send the function to its stable home so the rebuild
        // happens where future requests will land.
        let n = hosts.len();
        let home = (self.home_hash(req.function) % n as u64) as usize;
        for k in 0..n {
            let h = (home + k) % n;
            if hosts[h].has_capacity() {
                return if h == home {
                    Route::Host(hosts[h].id)
                } else {
                    Route::Fallback(hosts[h].id)
                };
            }
        }
        Route::Defer
    }
}

/// Least-loaded host among those passing `accept`; ties go to the
/// lowest index.
fn least_loaded(hosts: &[HostView], accept: impl Fn(&HostView) -> bool) -> Option<HostId> {
    hosts
        .iter()
        .filter(|v| accept(v))
        .min_by_key(|v| (v.load(), v.id))
        .map(|v| v.id)
}

/// One request's outcome on the cluster, with its placement.
#[derive(Debug)]
pub struct ClusterCompletion {
    /// Index of the request in the submitted schedule.
    pub index: usize,
    /// The host that served (or was serving) it; `None` if it was never
    /// placed (missed deadline, no healthy host).
    pub host: Option<HostId>,
    /// The function invoked.
    pub function: FunctionId,
    /// When the request arrived.
    pub arrived: Nanos,
    /// When a slot picked it up (for a rejection: when it was rejected).
    pub started: Nanos,
    /// When its service activity finished.
    pub finished: Nanos,
    /// The invocation, or the error that ended it.
    pub result: Result<Invocation, PlatformError>,
}

impl ClusterCompletion {
    /// Time spent waiting for a slot (on any queue).
    pub fn waited(&self) -> Nanos {
        self.started.saturating_sub(self.arrived)
    }

    /// Total time in the system.
    pub fn sojourn(&self) -> Nanos {
        self.finished.saturating_sub(self.arrived)
    }

    /// Queueing delay plus the invocation's start-up phase — the
    /// client-visible "time to first instruction of function code", the
    /// quantity `cluster_sweep` reports percentiles of.
    pub fn start_latency(&self) -> Option<Nanos> {
        self.result
            .as_ref()
            .ok()
            .map(|inv| self.waited() + inv.breakdown.startup)
    }
}

/// The cluster's output: completions in request order plus routing and
/// concurrency statistics.
#[derive(Debug)]
pub struct ClusterReport<T> {
    /// One entry per request, ordered by request index.
    pub completions: Vec<ClusterCompletion>,
    /// `(host, token)` pairs still resident ([`CompletionPolicy::Retain`]
    /// only), in completion order.
    pub retained: Vec<(HostId, T)>,
    /// Most invocations ever simultaneously in service cluster-wide.
    pub peak_inflight: usize,
    /// Deepest any single host's admission queue ever got.
    pub peak_host_queue_depth: usize,
    /// Deepest the cluster-level admission queue ever got.
    pub peak_cluster_queue_depth: usize,
    /// Requests moved off their policy-preferred host (locality
    /// fallbacks and crash re-routes).
    pub rebalances: u64,
    /// Service starts on a host already holding the function's snapshot.
    pub locality_hits: u64,
    /// Hosts that crashed during the run, in failure order.
    pub failed_hosts: Vec<HostId>,
    /// Requests displaced from a crashed host's admission queue and
    /// handed back to the router. Conservation: every one of these still
    /// reaches a terminal outcome (served elsewhere, deadline-rejected,
    /// or `HostUnavailable`) — `run` asserts no request is dropped.
    pub crash_reroutes: u64,
}

/// N per-host platforms on one virtual timeline, driven by a [`Router`].
///
/// Dereferences to its [`Fleet`] — the host table — for the clock, obs
/// plane, mesh and per-host accessors.
pub struct Cluster<P: ConcurrentPlatform> {
    fleet: Fleet<P>,
    gauges: ClusterGauges,
}

impl<P: ConcurrentPlatform> Deref for Cluster<P> {
    type Target = Fleet<P>;

    fn deref(&self) -> &Fleet<P> {
        &self.fleet
    }
}

impl<P: ConcurrentPlatform> DerefMut for Cluster<P> {
    fn deref_mut(&mut self) -> &mut Fleet<P> {
        &mut self.fleet
    }
}

/// The fixed cluster's control plane: no control events, only the
/// `cluster.*` and per-host `engine.*{host=}` gauges. Handles are
/// resolved at construction. The totals are maintained incrementally,
/// so per-event sampling is O(1); the per-host gauges are set from the
/// host table when [`Cluster::run`] returns.
struct ClusterGauges {
    hosts: Gauge,
    inflight: Gauge,
    queue_depth: Gauge,
    /// Per host: `engine.inflight{host=}`, `engine.queue_depth{host=}`.
    per_host: Vec<(Gauge, Gauge)>,
}

impl<P: ConcurrentPlatform> Control<P> for ClusterGauges {
    type Event = ();

    fn on_host_failed(&mut self, d: &mut Driver<'_, P, Self>, host: usize) {
        let m = d.fleet.obs.metrics();
        m.inc("cluster.host_crashes", &[("host", &host.to_string())]);
    }

    fn after_event(&mut self, d: &Driver<'_, P, Self>) {
        self.hosts.set(d.fleet.count(HostPhase::Active) as i64);
        self.inflight.set(d.fleet.inflight_total as i64);
        self.queue_depth.set(d.cluster_waiting.len() as i64);
    }
}

impl<P: ConcurrentPlatform> Cluster<P> {
    /// Builds a cluster, stamping out one platform per host with
    /// `factory(env, &config.platform)`. Hosts are built in index order
    /// on a fresh shared clock and obs plane; each host's fault-plan
    /// seed is derived from the template seed and the host index, so
    /// same-config clusters are bit-for-bit reproducible while hosts
    /// still fail independently.
    ///
    /// # Panics
    ///
    /// Panics if `config.hosts == 0` or `config.slots_per_host == 0`.
    pub fn new(
        config: ClusterConfig,
        mut factory: impl FnMut(PlatformEnv, &PlatformConfig) -> P,
    ) -> Self {
        assert!(config.hosts > 0, "need at least one host");
        let clock = Clock::new();
        let obs = Obs::new(clock.clone());
        let mut fleet = Fleet::new(
            clock,
            obs.clone(),
            config.slots_per_host,
            config.host_queue_cap,
            config.completion,
        );
        let m = obs.metrics();
        let per_host = (0..config.hosts)
            .map(|_| {
                let h = fleet.add_host(&config.env, &config.platform, &mut factory);
                fleet.set_phase(h, HostPhase::Active);
                let label = h.to_string();
                let labels: &[(&'static str, &str)] = &[("host", &label)];
                (
                    m.gauge("engine.inflight", labels),
                    m.gauge("engine.queue_depth", labels),
                )
            })
            .collect();
        let gauges = ClusterGauges {
            hosts: m.gauge("cluster.hosts", &[]),
            inflight: m.gauge("cluster.inflight", &[]),
            queue_depth: m.gauge("cluster.queue_depth", &[]),
            per_host,
        };
        Cluster { fleet, gauges }
    }

    /// Installs a function on every host (each host needs its own
    /// snapshot to restore from). Returns per-host reports in host
    /// order.
    pub fn install(&mut self, spec: &FunctionSpec) -> Result<Vec<InstallReport>, PlatformError> {
        self.fleet
            .hosts
            .iter_mut()
            .map(|host| host.platform.install(spec))
            .collect()
    }

    /// Installs a function on its stable FNV home host only, registering
    /// it (no snapshot build) everywhere else. On a content-addressed
    /// cluster the other hosts pick the snapshot up by delta fetch the
    /// first time a request lands on them; on a flat cluster they rebuild
    /// from source. Returns the home host's report.
    pub fn install_home(&mut self, spec: &FunctionSpec) -> Result<InstallReport, PlatformError> {
        let home = (fnv1a(spec.name.as_bytes()) % self.fleet.len() as u64) as usize;
        let mut report = None;
        for (h, host) in self.fleet.hosts.iter_mut().enumerate() {
            if h == home {
                report = Some(host.platform.install(spec)?);
            } else {
                host.platform.register(spec)?;
            }
        }
        Ok(report.expect("home host is in range"))
    }

    /// Drives `requests` (sorted by arrival) through the cluster under
    /// `router` and returns the completions with routing statistics.
    ///
    /// # Panics
    ///
    /// Panics if `requests` are not sorted by arrival time, or if any
    /// request fails to reach a terminal outcome (request conservation).
    pub fn run(
        &mut self,
        router: &mut dyn Router,
        requests: &[EngineRequest],
    ) -> ClusterReport<P::InFlight> {
        let out = driver::run(&mut self.fleet, &mut self.gauges, router, requests);
        for (host, (inflight, queue_depth)) in self.fleet.hosts.iter().zip(&self.gauges.per_host) {
            inflight.set(host.inflight.len() as i64);
            queue_depth.set(host.waiting.len() as i64);
        }
        let stats = &out.stats;
        let counters = [
            ("cluster.rebalances", stats.rebalances),
            ("cluster.locality_hits", stats.locality_hits),
            ("cluster.crash_reroutes", stats.crash_reroutes),
        ];
        RunStats::publish(self.fleet.obs.metrics(), counters);
        out.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::StartMode;
    use crate::fireworks::FireworksPlatform;
    use crate::symbols::fid;
    use fireworks_lang::Value;
    use fireworks_runtime::RuntimeKind;
    use fireworks_sim::fault::{FaultPlan, FaultSite};

    fn hid(i: usize) -> HostId {
        HostId::from_index(i)
    }

    fn view(id: usize, inflight: usize, queue_depth: usize, holds: bool) -> HostView {
        view_with(
            id,
            inflight,
            queue_depth,
            if holds {
                SnapshotResidency::Full
            } else {
                SnapshotResidency::Absent
            },
        )
    }

    fn view_with(
        id: usize,
        inflight: usize,
        queue_depth: usize,
        residency: SnapshotResidency,
    ) -> HostView {
        HostView {
            id: hid(id),
            healthy: true,
            inflight,
            queue_depth,
            slots: 2,
            queue_cap: 4,
            residency,
        }
    }

    fn some_req() -> InvokeRequest {
        InvokeRequest::new(fid("f"), Value::Int(1)).with_mode(StartMode::Auto)
    }

    #[test]
    fn round_robin_cycles_and_skips_saturated_hosts() {
        let mut rr = RoundRobin::new();
        let mut views = vec![
            view(0, 0, 0, false),
            view(1, 0, 0, false),
            view(2, 0, 0, false),
        ];
        assert_eq!(rr.route(&some_req(), &views), Route::Host(hid(0)));
        assert_eq!(rr.route(&some_req(), &views), Route::Host(hid(1)));
        assert_eq!(rr.route(&some_req(), &views), Route::Host(hid(2)));
        assert_eq!(rr.route(&some_req(), &views), Route::Host(hid(0)));
        // Host 1 saturated (full slots and full queue): skipped.
        views[1].inflight = 2;
        views[1].queue_depth = 4;
        assert_eq!(rr.route(&some_req(), &views), Route::Host(hid(2)));
        // Everyone saturated: defer.
        for v in &mut views {
            v.inflight = 2;
            v.queue_depth = 4;
        }
        assert_eq!(rr.route(&some_req(), &views), Route::Defer);
    }

    #[test]
    fn least_loaded_picks_min_load_lowest_id() {
        let mut ll = LeastLoaded::new();
        let views = vec![
            view(0, 2, 1, false),
            view(1, 1, 0, false),
            view(2, 0, 1, false),
        ];
        // Loads: 3, 1, 1 → tie between hosts 1 and 2 → lowest id wins.
        assert_eq!(ll.route(&some_req(), &views), Route::Host(hid(1)));
        let unhealthy: Vec<HostView> = views
            .iter()
            .map(|v| HostView {
                healthy: false,
                ..*v
            })
            .collect();
        assert_eq!(ll.route(&some_req(), &unhealthy), Route::Defer);
    }

    #[test]
    fn locality_prefers_holders_then_home_then_fallback() {
        let mut loc = LocalityAffinity::new();
        let req = some_req();
        // Hosts 1 and 2 hold the snapshot; 2 is less loaded.
        let views = vec![
            view(0, 0, 0, false),
            view(1, 2, 1, true),
            view(2, 1, 0, true),
        ];
        assert_eq!(loc.route(&req, &views), Route::Host(hid(2)));
        // No holder: the function's stable FNV home gets it (and will
        // cache it for the next request).
        let home = (fnv1a(req.function.name().as_bytes()) % 3) as usize;
        let views = vec![
            view(0, 1, 1, false),
            view(1, 1, 1, false),
            view(2, 1, 1, false),
        ];
        assert_eq!(loc.route(&req, &views), Route::Host(hid(home)));
        // Home saturated: falls back (counted as a rebalance).
        let mut views = views;
        views[home].inflight = 2;
        views[home].queue_depth = 4;
        match loc.route(&req, &views) {
            Route::Fallback(h) => assert_ne!(h, hid(home)),
            other => panic!("expected fallback, got {other:?}"),
        }
        // All saturated: defer.
        for v in &mut views {
            v.inflight = 2;
            v.queue_depth = 4;
        }
        assert_eq!(loc.route(&req, &views), Route::Defer);
    }

    #[test]
    fn locality_ranks_partial_holders_by_missing_bytes() {
        let mut loc = LocalityAffinity::new();
        let req = some_req();
        // No full holder: the partial host that would move the fewest
        // bytes wins, beating the FNV home probe.
        let views = vec![
            view_with(0, 0, 0, SnapshotResidency::Absent),
            view_with(
                1,
                3,
                1,
                SnapshotResidency::Partial {
                    missing_bytes: 4 << 20,
                },
            ),
            view_with(
                2,
                0,
                0,
                SnapshotResidency::Partial {
                    missing_bytes: 96 << 20,
                },
            ),
        ];
        assert_eq!(loc.route(&req, &views), Route::Host(hid(1)));
        // A full holder still beats every partial one.
        let mut views = views;
        views[0].residency = SnapshotResidency::Full;
        assert_eq!(loc.route(&req, &views), Route::Host(hid(0)));
        // Saturate the cheap partial: the next-cheapest takes it.
        views[0].residency = SnapshotResidency::Absent;
        views[1].inflight = 2;
        views[1].queue_depth = 4;
        assert_eq!(loc.route(&req, &views), Route::Host(hid(2)));
    }

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

    fn burst(count: usize) -> Vec<EngineRequest> {
        (0..count)
            .map(|_| {
                EngineRequest::at(
                    Nanos::ZERO,
                    InvokeRequest::new(fid("f"), Value::map([("n".to_string(), Value::Int(500))])),
                )
            })
            .collect()
    }

    #[test]
    fn two_hosts_serve_a_burst_genuinely_in_parallel() {
        let mut cluster = Cluster::new(ClusterConfig::new(2, 1), |env, cfg| {
            FireworksPlatform::with_config(env, cfg.clone())
        });
        cluster.install(&spec("f")).expect("installs everywhere");
        let mut rr = RoundRobin::new();
        let report = cluster.run(&mut rr, &burst(2));
        assert_eq!(report.peak_inflight, 2, "one clone per host, concurrently");
        let hosts: Vec<Option<HostId>> = report.completions.iter().map(|c| c.host).collect();
        assert_eq!(hosts, vec![Some(hid(0)), Some(hid(1))]);
        for c in &report.completions {
            assert!(c.result.is_ok());
            assert_eq!(c.waited(), Nanos::ZERO, "no queueing across two hosts");
        }
        // Install populated every host's cache: both starts are local.
        assert_eq!(report.locality_hits, 2);
        assert_eq!(report.rebalances, 0);
        assert!(report.failed_hosts.is_empty());
        let snap = cluster.obs().metrics().snapshot();
        assert_eq!(snap.gauge("cluster.hosts", &[]), Some(2));
        assert_eq!(snap.gauge("engine.inflight", &[("host", "0")]), Some(0));
    }

    /// Prefers host 0, spills to host 1 — makes crash scheduling in the
    /// test below deterministic and legible.
    struct PrimaryBackup;
    impl Router for PrimaryBackup {
        fn name(&self) -> &'static str {
            "primary_backup"
        }
        fn route(&mut self, _req: &InvokeRequest, hosts: &[HostView]) -> Route {
            match hosts.iter().find(|v| v.has_capacity()) {
                Some(v) => Route::Host(v.id),
                None => Route::Defer,
            }
        }
    }

    #[test]
    fn host_crash_drains_and_reroutes_its_queue() {
        // Each host's injector crashes it at its 2nd service start. With
        // a primary/backup router and one slot per host: request 0 starts
        // on host 0 (check 1); request 1 queues behind it; at request 0's
        // completion the drain tries to start request 1 on host 0 —
        // check 2 fires, host 0 dies, and request 1 re-routes to host 1.
        let env = EnvConfig {
            fault_plan: FaultPlan::new(42).nth(FaultSite::HostCrash, 2),
            ..EnvConfig::default()
        };
        let mut config = ClusterConfig::new(2, 1);
        config.env = env;
        let mut cluster = Cluster::new(config, |env, cfg| {
            FireworksPlatform::with_config(env, cfg.clone())
        });
        cluster.install(&spec("f")).expect("installs");
        let report = cluster.run(&mut PrimaryBackup, &burst(2));
        assert_eq!(report.failed_hosts, vec![hid(0)]);
        assert_eq!(report.rebalances, 1, "the drained request was re-routed");
        assert_eq!(report.completions[0].host, Some(hid(0)));
        assert_eq!(report.completions[1].host, Some(hid(1)));
        for c in &report.completions {
            assert!(c.result.is_ok(), "both requests still succeed");
        }
        assert!(
            report.completions[1].started >= report.completions[0].finished,
            "the re-routed request started at the drain instant"
        );
        let snap = cluster.obs().metrics().snapshot();
        assert_eq!(snap.gauge("cluster.hosts", &[]), Some(1), "one host left");
        assert_eq!(snap.counter("cluster.rebalances", &[]), 1);
        assert_eq!(snap.counter("cluster.host_crashes", &[("host", "0")]), 1);
    }

    #[test]
    fn all_hosts_down_surfaces_host_unavailable() {
        // Crash every host at its first service start: nothing can serve.
        let env = EnvConfig {
            fault_plan: FaultPlan::new(42).nth(FaultSite::HostCrash, 1),
            ..EnvConfig::default()
        };
        let mut config = ClusterConfig::new(2, 1);
        config.env = env;
        let mut cluster = Cluster::new(config, |env, cfg| {
            FireworksPlatform::with_config(env, cfg.clone())
        });
        cluster.install(&spec("f")).expect("installs");
        let report = cluster.run(&mut PrimaryBackup, &burst(1));
        assert_eq!(report.failed_hosts, vec![hid(0), hid(1)]);
        assert!(matches!(
            &report.completions[0].result,
            Err(PlatformError::HostUnavailable { host: Some(1), .. })
        ));
        let snap = cluster.obs().metrics().snapshot();
        assert_eq!(snap.gauge("cluster.hosts", &[]), Some(0));
    }

    #[test]
    fn retain_mode_reports_host_tagged_tokens() {
        let mut config = ClusterConfig::new(2, 1);
        config.completion = CompletionPolicy::Retain;
        let mut cluster = Cluster::new(config, |env, cfg| {
            FireworksPlatform::with_config(env, cfg.clone())
        });
        cluster.install(&spec("f")).expect("installs");
        let report = cluster.run(&mut RoundRobin::new(), &burst(2));
        assert_eq!(report.retained.len(), 2);
        let hosts: Vec<HostId> = report.retained.iter().map(|(h, _)| *h).collect();
        assert_eq!(hosts, vec![hid(0), hid(1)]);
        for (h, token) in report.retained {
            assert!(token.pss_bytes() > 0, "retained clone on host {h} is live");
            cluster.host_mut(h).release_clone(token);
        }
    }
}
