//! Elastic control plane: scale-out/in with graceful drain, live delta
//! migration, and crash-safe scale-to-zero resurrection.
//!
//! The fixed-fleet [`crate::cluster::Cluster`] answers "how does a
//! cluster of N hosts behave"; this module answers "how many hosts
//! should be powered *right now*, and how do hosts join and leave
//! without losing work". An [`ElasticCluster`] owns a growable list of
//! per-host platforms on one virtual timeline and runs a periodic
//! control loop that:
//!
//! - **scales up** when queue pressure exceeds the policy threshold (or
//!   a sliding-window arrival predictor sees a rising trend), booting a
//!   fresh host after [`ElasticPolicy::boot_delay`];
//! - **scales down** by *gracefully draining* an idle host: it stops
//!   admitting, finishes its in-flight invocations, and hands its hot
//!   snapshots to survivors via [`crate::mesh::ChunkMesh`] delta
//!   transfers with bounded, exponentially backed-off retries — a drain
//!   that outlives [`ElasticPolicy::drain_deadline`] degrades to hard
//!   removal that abandons the unfinished hand-offs, never requests;
//! - **retires** functions idle longer than
//!   [`ElasticPolicy::retire_after`] to a cluster-durable archive
//!   [`ChunkStore`] (scale-to-zero) and resurrects them on demand or on
//!   predictor signal — the archive is just another mesh donor, so
//!   resurrection is an ordinary delta fetch.
//!
//! # Fault model
//!
//! Three elasticity-specific fault sites can be armed on the cluster's
//! fault plan, alongside the existing
//! [`FaultSite::HostCrash`]:
//!
//! - [`FaultSite::DrainInterrupt`] — the draining host dies before its
//!   drain completes, drawn when the drain starts and before each
//!   hand-off; it leaves through the driver's host-failure path like any
//!   crash, abandoning its outstanding hand-offs. A draining host queues
//!   nothing, so there is nothing to reroute.
//! - [`FaultSite::MigrationStall`] — one snapshot hand-off wedges
//!   mid-transfer; the receiver retries with exponential virtual-time
//!   backoff up to [`RecoveryPolicy::max_attempts`], then gives up (the
//!   survivor rebuilds from source on first demand instead).
//! - [`FaultSite::ScaleUpFail`] — a scale-up host fails to boot; the
//!   scale-up circuit [`Breaker`] (driven by [`RecoveryPolicy`]) backs off,
//!   and after [`SCALE_UP_GIVE_UP`] consecutive boot failures with no
//!   serving capacity left, queued admissions fail fast with
//!   [`PlatformError::HostUnavailable`] rather than waiting forever.
//!
//! # Invariants
//!
//! After every membership event (boot, drain completion, hard removal,
//! crash, retire, resurrect) the built-in auditor cross-checks:
//!
//! 1. every powered host's [`StoreAudit`] — chunk refcounts equal live
//!    manifest occurrences (no orphaned chunks, no dangling refs);
//! 2. the archive store's refcounts against the archived manifests;
//! 3. every alive mesh registration belongs to a powered host (or the
//!    archive) — no routes to dead or retired hosts.
//!
//! Violations are collected into [`ElasticReport::audit_violations`].
//! Request conservation — every submitted request reaches a terminal
//! outcome — is asserted at the end of every run, exactly like the
//! fixed cluster.
//!
//! # Determinism
//!
//! As for the fixed cluster, plus: host ids are never reused and all
//! control-plane bookkeeping iterates `BTreeMap`s.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use fireworks_guestmem::SnapshotManifest;
use fireworks_obs::{cat, Gauge, Obs, SpanId};
use fireworks_sim::fault::{self, FaultInjector, FaultPlan, FaultSite};
use fireworks_sim::{Clock, Nanos};

use crate::api::{ConcurrentPlatform, FunctionSpec, PlatformError, StoreAudit};
use crate::cluster::{ClusterCompletion, Router};
use crate::config::{Breaker, PlatformConfig, RecoveryPolicy};
pub use crate::driver::HostPhase;
use crate::driver::{self, Control, Driver, Fleet, RunStats};
use crate::engine::{CompletionPolicy, EngineRequest};
use crate::env::{EnvConfig, PlatformEnv};
use crate::symbols::{fid, FunctionId, HostId};
use fireworks_store::ChunkStore;

/// Reserved mesh host id for the scale-to-zero archive store. Chosen
/// above any realistic host count (and within `u8` so delta fetches can
/// address the archive as peer `10.42.0.250`), and *above* real ids so
/// the mesh's lowest-id-first donor selection prefers a live replica
/// over the archive whenever one exists.
pub const ARCHIVE_HOST: usize = 250;

/// [`ARCHIVE_HOST`] as a typed mesh id.
fn archive_host_id() -> HostId {
    HostId::from_index(ARCHIVE_HOST)
}

/// Consecutive failed boot attempts after which the control plane stops
/// trying to scale up and fails queued admissions fast (bounds the run
/// under `ScaleUpFail` probability 1.0).
pub const SCALE_UP_GIVE_UP: u32 = 10;

/// How many predictor-ranked functions a freshly booted host prewarms
/// (when [`ElasticPolicy::prewarm`] is on).
const PREWARM_TOP_K: usize = 2;

/// Control ticks of per-function arrival history the predictor keeps.
const PREDICTOR_WINDOW: usize = 4;

/// Elasticity policy: when to grow, when to shrink, how to hand off.
#[derive(Debug, Clone)]
pub struct ElasticPolicy {
    /// Hosts the cluster never shrinks below (also the initial fleet).
    pub min_hosts: usize,
    /// Hosts the cluster never grows beyond.
    pub max_hosts: usize,
    /// Control-loop period: queue pressure, idleness, retirement, and
    /// the arrival predictor are evaluated once per interval.
    pub control_interval: Nanos,
    /// Scale up when cluster-wide queued requests exceed this many per
    /// active host.
    pub scale_up_queue: usize,
    /// Control ticks a host must sit fully idle (no in-flight work, no
    /// queue) before it becomes a drain candidate.
    pub scale_down_idle_ticks: u32,
    /// Virtual time between deciding to scale up and the new host
    /// serving (machine provisioning + boot).
    pub boot_delay: Nanos,
    /// Budget for a graceful drain; past it the host is hard-removed
    /// (unfinished hand-offs are abandoned).
    pub drain_deadline: Nanos,
    /// Retries, backoff and [`Breaker`] thresholds for drain-time
    /// hand-offs (one breaker per function) and for scale-up boots.
    pub migration: RecoveryPolicy,
    /// Retire a function's snapshots to the archive after it has gone
    /// unseen for this long (`None`: never scale to zero).
    pub retire_after: Option<Nanos>,
    /// Whether to prewarm predictor-hot functions on freshly booted
    /// hosts and scale up proactively on a rising arrival trend.
    pub prewarm: bool,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        ElasticPolicy {
            min_hosts: 1,
            max_hosts: 8,
            control_interval: Nanos::from_millis(50),
            scale_up_queue: 4,
            scale_down_idle_ticks: 3,
            boot_delay: Nanos::from_millis(200),
            drain_deadline: Nanos::from_millis(500),
            migration: RecoveryPolicy::default(),
            retire_after: None,
            prewarm: false,
        }
    }
}

/// Shape and per-host configuration of an elastic cluster.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Invoker slots per host.
    pub slots_per_host: usize,
    /// Per-host admission-queue bound.
    pub host_queue_cap: usize,
    /// Per-host environment template; each host's fault-plan seed is
    /// re-derived from its id so hosts fail independently.
    pub env: EnvConfig,
    /// Per-host platform configuration.
    pub platform: PlatformConfig,
    /// The elasticity policy.
    pub policy: ElasticPolicy,
}

impl ElasticConfig {
    /// A config with `slots_per_host` slots, a queue bound of twice the
    /// slot count, and default environment, platform, and policy.
    pub fn new(slots_per_host: usize) -> Self {
        ElasticConfig {
            slots_per_host,
            host_queue_cap: slots_per_host * 2,
            env: EnvConfig::default(),
            platform: PlatformConfig::default(),
            policy: ElasticPolicy::default(),
        }
    }
}

/// Counters describing what the control plane did during a run.
#[derive(Debug, Default, Clone)]
pub struct ElasticStats {
    /// Boot attempts initiated by the scale-up path.
    pub scale_ups: u64,
    /// Boots that drew [`FaultSite::ScaleUpFail`] and died unprovisioned.
    pub scale_up_failures: u64,
    /// Graceful drains started by the scale-down path.
    pub drains_started: u64,
    /// Drains that completed within their deadline (in-flight work
    /// finished, hand-offs resolved).
    pub graceful_drains: u64,
    /// Drains forced into hard removal by the deadline.
    pub hard_removals: u64,
    /// Drains aborted by [`FaultSite::DrainInterrupt`] (the draining
    /// host died through the driver's host-failure path).
    pub drain_interrupts: u64,
    /// Snapshot hand-offs that completed (survivor made fully
    /// resident by delta fetch).
    pub migrations: u64,
    /// Hand-off attempts retried after a stall (with backoff).
    pub migration_retries: u64,
    /// [`FaultSite::MigrationStall`] draws observed.
    pub migration_stalls: u64,
    /// Hand-offs abandoned (retries exhausted, breaker open, or no
    /// eligible destination); the survivor rebuilds on demand instead.
    pub migration_failures: u64,
    /// Functions retired to the archive (scale-to-zero).
    pub retired_functions: u64,
    /// Archived functions brought back (on demand or by prewarm).
    pub resurrections: u64,
    /// Successful proactive prewarms on freshly booted hosts.
    pub prewarms: u64,
    /// Requests displaced from a dead host's queue and rerouted.
    /// Conservation: each still reaches a terminal outcome.
    pub crash_reroutes: u64,
    /// Requests placed off their router-preferred host.
    pub rebalances: u64,
    /// Service starts on a host already fully holding the snapshot.
    pub locality_hits: u64,
}

/// The elastic cluster's output: completions plus control-plane
/// statistics and the audit trail.
#[derive(Debug)]
pub struct ElasticReport {
    /// One entry per request, ordered by request index.
    pub completions: Vec<ClusterCompletion>,
    /// What the control plane did.
    pub stats: ElasticStats,
    /// Most hosts ever simultaneously powered.
    pub peak_hosts: usize,
    /// Most invocations ever simultaneously in service.
    pub peak_inflight: usize,
    /// Deepest the cluster-level admission queue ever got.
    pub peak_cluster_queue_depth: usize,
    /// Integral of powered hosts over virtual time — the machine-time
    /// cost the elasticity-vs-overprovisioning trade is measured in.
    pub host_time: Nanos,
    /// Invariant-auditor findings (empty means every membership event
    /// left mesh, stores, and caches mutually consistent).
    pub audit_violations: Vec<String>,
    /// Hosts that crashed or failed to boot, in failure order.
    pub failed_hosts: Vec<HostId>,
    /// Simulator events (arrivals, completions, control ticks, boots,
    /// drains, migrations) the run processed — the deterministic
    /// denominator of an events/sec throughput measurement.
    pub events_processed: u64,
}

/// The control plane's own events on the shared driver's timeline.
enum Ev {
    Tick,
    BootDone(usize),
    DrainDeadline(usize),
    Migrate(Handoff),
}

/// One drain-time snapshot hand-off attempt: `donor`'s copy of
/// `function` to `dest`.
#[derive(Clone, Copy)]
struct Handoff {
    dest: usize,
    donor: usize,
    function: FunctionId,
    attempt: u32,
}

/// The shared driver as the control plane sees it.
type D<'a, P> = Driver<'a, P, ControlPlane<P>>;

/// Per-run control-plane bookkeeping, reset by every
/// [`ElasticCluster::run`].
#[derive(Default)]
struct PlaneRun {
    stats: ElasticStats,
    peak_hosts: usize,
    host_time: Nanos,
    last_sample: Nanos,
    audit_violations: Vec<String>,
    /// Per-function arrivals in the current control interval.
    tick_counts: BTreeMap<FunctionId, u64>,
    /// Previous interval's total (rising-trend detection).
    prev_tick_total: u64,
    /// Per-function sliding window of per-interval arrival counts.
    window: BTreeMap<FunctionId, VecDeque<u64>>,
    /// Last arrival instant per function (retirement input).
    last_arrival: BTreeMap<FunctionId, Nanos>,
    /// Outstanding drain hand-offs per draining host.
    pending: BTreeMap<usize, usize>,
    /// The scale-up breaker; its failure streak is also what
    /// [`SCALE_UP_GIVE_UP`] counts.
    scale_up: Breaker,
}

/// A boxed host-platform constructor, retained by the cluster so the
/// control plane can stamp out new hosts mid-run.
pub type HostFactory<P> = Box<dyn FnMut(PlatformEnv, &PlatformConfig) -> P>;

/// A growable fleet of per-host platforms under an elasticity policy.
///
/// The factory passed to [`ElasticCluster::new`] is retained so the
/// control plane can stamp out new hosts mid-run; installed specs are
/// retained so new hosts can register every function on boot.
/// Dereferences to its [`Fleet`] — the host table — for the clock, obs
/// plane, mesh, phases and per-host accessors.
pub struct ElasticCluster<P: ConcurrentPlatform> {
    fleet: Fleet<P>,
    plane: ControlPlane<P>,
}

impl<P: ConcurrentPlatform> Deref for ElasticCluster<P> {
    type Target = Fleet<P>;

    fn deref(&self) -> &Fleet<P> {
        &self.fleet
    }
}

impl<P: ConcurrentPlatform> DerefMut for ElasticCluster<P> {
    fn deref_mut(&mut self) -> &mut Fleet<P> {
        &mut self.fleet
    }
}

/// What is genuinely the elastic cluster's own: policy, host factory,
/// archive, breakers, predictor and auditor — the [`Control`] the shared
/// driver runs the fleet under.
struct ControlPlane<P> {
    config: ElasticConfig,
    factory: HostFactory<P>,
    specs: BTreeMap<FunctionId, FunctionSpec>,
    /// The scale-to-zero archive: a cluster-durable chunk store
    /// registered in the mesh under [`ARCHIVE_HOST`] with an inert
    /// injector (the archive never crashes — it models replicated
    /// durable storage).
    archive: Rc<RefCell<ChunkStore>>,
    /// Manifests archived so far, for the audit (the mesh holds the
    /// serving copies).
    archive_manifests: BTreeMap<FunctionId, SnapshotManifest>,
    /// Functions currently scaled to zero.
    archived: BTreeSet<FunctionId>,
    migration_breakers: BTreeMap<FunctionId, Breaker>,
    /// Per host: consecutive control ticks it sat fully idle.
    idle_ticks: Vec<u32>,
    g_hosts: Gauge,
    g_active: Gauge,
    g_inflight: Gauge,
    g_queue: Gauge,
    run: PlaneRun,
}

impl<P: ConcurrentPlatform> ElasticCluster<P> {
    /// Builds an elastic cluster with `policy.min_hosts` hosts already
    /// active (a steady-state start; scale-up later in the run pays the
    /// boot delay). Host ids are assigned in creation order and never
    /// reused; each host's fault-plan seed derives from its id exactly
    /// like the fixed cluster, so arming a fault plan perturbs nothing
    /// else.
    ///
    /// # Panics
    ///
    /// Panics if `min_hosts == 0`, `min_hosts > max_hosts`,
    /// `max_hosts >= ARCHIVE_HOST`, or `slots_per_host == 0`.
    pub fn new(
        config: ElasticConfig,
        factory: impl FnMut(PlatformEnv, &PlatformConfig) -> P + 'static,
    ) -> Self {
        assert!(config.policy.min_hosts > 0, "need at least one host");
        assert!(
            config.policy.min_hosts <= config.policy.max_hosts,
            "min_hosts must not exceed max_hosts"
        );
        assert!(
            config.policy.max_hosts < ARCHIVE_HOST,
            "max_hosts collides with the archive's reserved mesh id"
        );
        let clock = Clock::new();
        let obs = Obs::new(clock.clone());
        let mut fleet = Fleet::new(
            clock.clone(),
            obs.clone(),
            config.slots_per_host,
            config.host_queue_cap,
            CompletionPolicy::Release,
        );
        let mut archive_env_config = config.env.clone();
        // The archive never fails: empty plan, disabled injector.
        archive_env_config.fault_plan = FaultPlan::default();
        let archive_env = PlatformEnv::with_shared(archive_env_config, clock, obs.clone());
        let archive = Rc::new(RefCell::new(ChunkStore::new(archive_env.host_mem.clone())));
        fleet.mesh.borrow_mut().register(
            archive_host_id(),
            archive.clone(),
            fault::shared(FaultInjector::disabled()),
        );
        let m = obs.metrics();
        let mut plane = ControlPlane {
            factory: Box::new(factory),
            specs: BTreeMap::new(),
            archive,
            archive_manifests: BTreeMap::new(),
            archived: BTreeSet::new(),
            migration_breakers: BTreeMap::new(),
            idle_ticks: Vec::new(),
            g_hosts: m.gauge("elastic.hosts", &[]),
            g_active: m.gauge("elastic.active_hosts", &[]),
            g_inflight: m.gauge("elastic.inflight", &[]),
            g_queue: m.gauge("elastic.queue_depth", &[]),
            run: PlaneRun::default(),
            config,
        };
        for _ in 0..plane.config.policy.min_hosts {
            let h = plane.create_host(&mut fleet);
            fleet.set_phase(h, HostPhase::Active);
        }
        ElasticCluster { fleet, plane }
    }

    /// Installs `spec` on the lowest-id active host (building its
    /// snapshot there) and registers it on every other host; hosts
    /// booted later register it too. On a content-addressed cluster the
    /// other hosts pick the snapshot up by delta fetch on first demand.
    pub fn install(&mut self, spec: &FunctionSpec) -> Result<(), PlatformError> {
        let mut installed = false;
        for host in self.fleet.hosts.iter_mut() {
            if host.phase != HostPhase::Active {
                continue;
            }
            if installed {
                host.platform.register(spec)?;
            } else {
                host.platform.install(spec)?;
                installed = true;
            }
        }
        assert!(installed, "no active host to install on");
        self.plane.specs.insert(fid(&spec.name), spec.clone());
        Ok(())
    }

    /// Runs the cluster's invariant audit now (see the module docs for
    /// the three checks). Empty means consistent.
    pub fn audit(&self) -> Vec<String> {
        self.plane.audit(&self.fleet)
    }

    /// Drives `requests` (sorted by arrival) through the elastic
    /// cluster under `router` and returns the completions with
    /// control-plane statistics.
    ///
    /// # Panics
    ///
    /// Panics if `requests` are not sorted by arrival time, or if any
    /// request fails to reach a terminal outcome (request-conservation
    /// violation — a control-plane bug by definition).
    pub fn run(&mut self, router: &mut dyn Router, requests: &[EngineRequest]) -> ElasticReport {
        let ElasticCluster { fleet, plane } = self;
        fleet.max_powered = plane.config.policy.max_hosts;
        plane.run = PlaneRun {
            peak_hosts: fleet.powered(),
            last_sample: fleet.clock.now(),
            ..PlaneRun::default()
        };
        let out = driver::run(fleet, plane, router, requests);
        let driven = out.stats;
        plane.audit_into(fleet);
        let run = std::mem::take(&mut plane.run);
        let stats = ElasticStats {
            crash_reroutes: driven.crash_reroutes,
            rebalances: driven.rebalances,
            locality_hits: driven.locality_hits,
            ..run.stats
        };
        let counters = [
            ("elastic.rebalances", stats.rebalances),
            ("elastic.locality_hits", stats.locality_hits),
            ("elastic.crash_reroutes", stats.crash_reroutes),
        ];
        RunStats::publish(fleet.obs.metrics(), counters);
        ElasticReport {
            completions: out.completions,
            stats,
            peak_hosts: run.peak_hosts,
            peak_inflight: driven.peak_inflight,
            peak_cluster_queue_depth: driven.peak_cluster_queue_depth,
            host_time: run.host_time,
            audit_violations: run.audit_violations,
            failed_hosts: driven.failed_hosts,
            events_processed: driven.events,
        }
    }
}

impl<P: ConcurrentPlatform> Control<P> for ControlPlane<P> {
    type Event = Ev;

    fn on_start(&mut self, d: &mut D<'_, P>) {
        // Anchor the control loop to the schedule itself: installs may
        // have advanced the clock far past the first arrival instant.
        let anchor = d
            .requests
            .first()
            .map_or(d.fleet.clock.now(), |r| r.arrival);
        d.schedule(anchor + self.config.policy.control_interval, Ev::Tick);
    }

    /// Integrates powered-host machine time up to this event with the
    /// pre-event fleet size.
    fn before_event(&mut self, fleet: &Fleet<P>, at: Nanos) {
        let dt = at.saturating_sub(self.run.last_sample);
        self.run.host_time += dt * fleet.powered() as u64;
        self.run.last_sample = at;
    }

    fn on_arrive(&mut self, d: &mut D<'_, P>, f: FunctionId, root: SpanId) {
        *self.run.tick_counts.entry(f).or_insert(0) += 1;
        self.run.last_arrival.insert(f, d.fleet.clock.now());
        // Demand resurrection: the archive (or any later replica) serves
        // the delta fetch when a host first restores it.
        if self.resurrect(d.fleet, f) {
            d.rec.attr(root, "resurrected", true);
        }
    }

    /// A completion restarts the host's idle count (every service start
    /// has exactly one).
    fn on_complete(&mut self, d: &mut D<'_, P>, host: usize) {
        self.idle_ticks[host] = 0;
        self.try_finish_drain(d.fleet, host);
    }

    fn on_control(&mut self, d: &mut D<'_, P>, event: Ev) {
        match event {
            Ev::Tick => self.on_tick(d),
            Ev::BootDone(host) => self.on_boot_done(d, host),
            Ev::DrainDeadline(host) => self.on_drain_deadline(d, host),
            Ev::Migrate(handoff) => self.on_migrate(d, handoff),
        }
    }

    /// A crash (or drain interrupt) cancels the host's pending
    /// hand-offs (a dead host's are never read meanwhile); membership
    /// changed, so the auditor runs.
    fn on_host_failed(&mut self, d: &mut D<'_, P>, host: usize) {
        self.run.pending.remove(&host);
        let m = d.fleet.obs.metrics();
        m.inc("elastic.host_crashes", &[("host", &host.to_string())]);
        self.audit_into(d.fleet);
    }

    fn after_event(&mut self, d: &D<'_, P>) {
        let (fleet, powered) = (&*d.fleet, d.fleet.powered());
        self.run.peak_hosts = self.run.peak_hosts.max(powered);
        self.g_hosts.set(powered as i64);
        self.g_active.set(fleet.count(HostPhase::Active) as i64);
        self.g_inflight.set(fleet.inflight_total as i64);
        self.g_queue.set(d.cluster_waiting.len() as i64);
    }
}

impl<P: ConcurrentPlatform> ControlPlane<P> {
    /// Stamps out one host in [`HostPhase::Booting`] and returns its id.
    fn create_host(&mut self, fleet: &mut Fleet<P>) -> usize {
        self.idle_ticks.push(0);
        fleet.add_host(&self.config.env, &self.config.platform, &mut self.factory)
    }

    fn audit(&self, fleet: &Fleet<P>) -> Vec<String> {
        let mut violations = Vec::new();
        let hosts = fleet.hosts.iter().enumerate();
        for (id, host) in hosts.filter(|(_, h)| h.phase.is_powered()) {
            if let Some(audit) = host.platform.store_audit() {
                violations.extend(
                    audit
                        .verify()
                        .into_iter()
                        .map(|v| format!("host {id}: {v}")),
                );
            }
        }
        let archive_audit = StoreAudit {
            chunk_refs: self.archive.borrow().chunk_refcounts(),
            manifests: self
                .archive_manifests
                .iter()
                .map(|(k, v)| (k.name().to_string(), v.clone()))
                .collect(),
        };
        violations.extend(
            archive_audit
                .verify()
                .into_iter()
                .map(|v| format!("archive: {v}")),
        );
        for id in fleet.mesh.borrow().alive_hosts() {
            if id.index() == ARCHIVE_HOST {
                continue;
            }
            let powered = fleet
                .hosts
                .get(id.index())
                .is_some_and(|h| h.phase.is_powered());
            if !powered {
                violations.push(format!(
                    "mesh: alive registration for host {id}, which is not powered \
                     (route to nowhere)"
                ));
            }
        }
        violations
    }

    fn audit_into(&mut self, fleet: &Fleet<P>) {
        let violations = self.audit(fleet);
        self.run.audit_violations.extend(violations);
    }

    /// Copies `name`'s snapshot chunks from a live mesh donor into the
    /// archive store and publishes the manifest under [`ARCHIVE_HOST`],
    /// making the archive a resurrection donor. Idempotent: a function
    /// already archived is not re-ingested (no refcount inflation).
    /// Returns whether the archive now holds the function. The copy is
    /// modeled as background replication traffic — it does not charge
    /// the serving timeline.
    fn archive_function(&mut self, fleet: &Fleet<P>, function: FunctionId) -> bool {
        if self.archive_manifests.contains_key(&function) {
            return true;
        }
        let Some(donor) = fleet.mesh.borrow().donor_for(function, archive_host_id()) else {
            return false;
        };
        // Background replication: no wire cost on the serving timeline.
        let adopted = self.archive.borrow_mut().adopt_manifest(
            &donor.store.borrow(),
            &donor.manifest,
            |_| true,
        );
        if !adopted {
            return false;
        }
        fleet.mesh.borrow_mut().publish(
            archive_host_id(),
            function,
            donor.manifest.clone(),
            donor.template,
        );
        self.archive_manifests.insert(function, donor.manifest);
        let m = fleet.obs.metrics();
        m.inc("elastic.archived", &[("function", &function.name())]);
        true
    }

    /// One control-loop evaluation: predictor update, retirement,
    /// scale-up, scale-down, queue drain, and rescheduling.
    fn on_tick(&mut self, d: &mut D<'_, P>) {
        let now = d.fleet.clock.now();
        let policy = self.config.policy.clone();

        // Slide the arrival predictor's window forward one interval.
        let tick_total: u64 = self.run.tick_counts.values().sum();
        let counts = std::mem::take(&mut self.run.tick_counts);
        for (f, n) in &counts {
            self.run.window.entry(*f).or_default().push_back(*n);
        }
        for (f, w) in self.run.window.iter_mut() {
            if !counts.contains_key(f) {
                w.push_back(0);
            }
            while w.len() > PREDICTOR_WINDOW {
                w.pop_front();
            }
        }

        // Idleness accounting.
        for (h, host) in d.fleet.hosts.iter().enumerate() {
            let idle = host.phase == HostPhase::Active
                && host.inflight.is_empty()
                && host.waiting.is_empty();
            self.idle_ticks[h] = if idle { self.idle_ticks[h] + 1 } else { 0 };
        }

        // Scale-to-zero retirement.
        if let Some(after) = policy.retire_after {
            self.retire_idle_functions(d, after, now);
        }

        // Scale up on queue pressure (or a rising trend, when the
        // predictor is armed for proactive capacity).
        let active = d.fleet.count(HostPhase::Active);
        let pressure: usize = d.cluster_waiting.len()
            + d.fleet
                .hosts
                .iter()
                .filter(|h| h.phase == HostPhase::Active)
                .map(|h| h.waiting.len())
                .sum::<usize>();
        let overloaded = pressure > policy.scale_up_queue * active.max(1);
        let starved = active == 0 && pressure > 0;
        let rising = policy.prewarm
            && tick_total > self.run.prev_tick_total
            && tick_total as usize > policy.scale_up_queue;
        self.run.prev_tick_total = tick_total;
        if (overloaded || starved || rising)
            && d.fleet.count(HostPhase::Booting) == 0
            && d.fleet.powered() < d.fleet.max_powered
            && !self.run.scale_up.is_open(now)
        {
            let host = self.create_host(d.fleet);
            self.run.stats.scale_ups += 1;
            d.fleet.obs.metrics().inc("elastic.scale_ups", &[]);
            d.schedule(now + policy.boot_delay, Ev::BootDone(host));
        }

        // Give up on scale-up after too many consecutive boot failures:
        // the fleet may power no more hosts, so with no serving capacity
        // left either the queue drain below fails parked admissions
        // fast, and the run terminates under ScaleUpFail = 1.0.
        if self.run.scale_up.consecutive >= SCALE_UP_GIVE_UP {
            d.fleet.max_powered = 0;
        }

        // Scale down: drain at most one idle host at a time, highest id
        // first (the most recently added capacity leaves first). Never
        // shed capacity while work is queued anywhere — an idle host
        // next to a backlogged peer is the cluster's catch-up capacity,
        // and draining it forces a boot (and a snapshot rebuild) the
        // moment the backlog surfaces as pressure.
        if d.fleet.count(HostPhase::Draining) == 0
            && pressure == 0
            && d.fleet.count(HostPhase::Active) > policy.min_hosts
        {
            let victim = (0..d.fleet.hosts.len()).rev().find(|&h| {
                d.fleet.hosts[h].phase == HostPhase::Active
                    && self.idle_ticks[h] >= policy.scale_down_idle_ticks
            });
            if let Some(h) = victim {
                self.start_drain(d, h);
            }
        }

        // The tick re-offers the cluster queue to the router (and so
        // rejects expired requests earlier than a completion would).
        d.drain_cluster_queue();

        // Keep ticking while anything still needs the control loop:
        // unresolved requests, boots, or drains (pending hand-offs
        // belong to a draining host).
        let work_remains = d.resolved < d.requests.len()
            || d.fleet.count(HostPhase::Booting) > 0
            || d.fleet.count(HostPhase::Draining) > 0;
        if work_remains {
            d.schedule(now + policy.control_interval, Ev::Tick);
        }
    }

    /// Retires functions unseen for longer than `after`: their chunks
    /// are copied to the archive, then every live replica is dropped.
    fn retire_idle_functions(&mut self, d: &mut D<'_, P>, after: Nanos, now: Nanos) {
        let function_of = |i: &usize| d.requests[*i].invoke.function;
        let mut resident: BTreeSet<FunctionId> = BTreeSet::new();
        // Functions with outstanding demand — queued anywhere or in
        // service — are never retirement candidates, even when their
        // last *arrival* is past the horizon (a backlog served slower
        // than it arrived would otherwise thrash retire/resurrect).
        let mut busy: BTreeSet<FunctionId> = d.cluster_waiting.iter().map(function_of).collect();
        for host in &d.fleet.hosts {
            if host.phase == HostPhase::Active {
                resident.extend(host.platform.hot_functions());
            }
            busy.extend(host.waiting.iter().map(function_of));
            busy.extend(host.inflight.keys().map(function_of));
        }
        for f in resident {
            if busy.contains(&f) {
                continue;
            }
            let last = self.run.last_arrival.get(&f).map_or(Nanos::ZERO, |t| *t);
            if now.saturating_sub(last) <= after {
                continue;
            }
            // Crash safety: the archive copy must exist before any
            // replica is dropped — a retirement that cannot reach the
            // archive keeps its live replicas.
            if !self.archive_function(d.fleet, f) {
                continue;
            }
            let mut any = false;
            for host in d.fleet.hosts.iter_mut() {
                if host.phase.is_powered() {
                    any |= host.platform.retire(f);
                }
            }
            if any {
                self.run.stats.retired_functions += 1;
                self.archived.insert(f);
                let m = d.fleet.obs.metrics();
                m.inc("elastic.retired", &[("function", &f.name())]);
                self.audit_into(d.fleet);
            }
        }
    }

    /// A scale-up host finishes provisioning — or draws
    /// [`FaultSite::ScaleUpFail`] and dies unprovisioned.
    fn on_boot_done(&mut self, d: &mut D<'_, P>, h: usize) {
        if d.fleet.hosts[h].phase != HostPhase::Booting {
            return;
        }
        let now = d.fleet.clock.now();
        if self.draws(d.fleet, h, FaultSite::ScaleUpFail) {
            d.fleet.set_phase(h, HostPhase::Dead);
            // The host never served: deregister (no crash record for
            // the reaper — there is nothing to drain).
            d.fleet.mesh.borrow_mut().deregister(HostId::from_index(h));
            d.stats.failed_hosts.push(HostId::from_index(h));
            self.run.stats.scale_up_failures += 1;
            self.run
                .scale_up
                .failure(now, &self.config.policy.migration);
            d.fleet.obs.metrics().inc("elastic.scale_up_failures", &[]);
            d.rec.instant(format!("scale_up_fail:{h}"), cat::FAULT);
            self.audit_into(d.fleet);
            return;
        }
        d.fleet.set_phase(h, HostPhase::Active);
        self.run.scale_up.success();
        // A late joiner must know every installed function.
        for spec in self.specs.values() {
            // Registration failures surface on first invocation; a boot
            // must not abort the whole run.
            let _ = d.fleet.hosts[h].platform.register(spec);
        }
        if self.config.policy.prewarm {
            self.prewarm_host(d.fleet, h);
        }
        self.audit_into(d.fleet);
        d.drain_cluster_queue();
    }

    /// Whether host `h`'s injector fires `site` now.
    fn draws(&self, fleet: &Fleet<P>, h: usize, site: FaultSite) -> bool {
        let injector = &fleet.host_env(HostId::from_index(h)).injector;
        injector.borrow_mut().should_fail(site)
    }

    /// Prewarms the predictor's hottest functions on host `h`.
    fn prewarm_host(&mut self, fleet: &mut Fleet<P>, h: usize) {
        let mut scored: Vec<(u64, FunctionId)> = self
            .run
            .window
            .iter()
            .map(|(f, w)| (w.iter().sum::<u64>(), *f))
            .filter(|(score, _)| *score > 0)
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for (_, f) in scored.into_iter().take(PREWARM_TOP_K) {
            if fleet.hosts[h].platform.prewarm(f) {
                self.run.stats.prewarms += 1;
                let m = fleet.obs.metrics();
                m.inc("elastic.prewarms", &[("function", &f.name())]);
                // Predictor-signal resurrection: the prewarm pulled an
                // archived function back into live service.
                self.resurrect(fleet, f);
            }
        }
    }

    /// Takes `f` out of the archived set; returns whether it was there.
    fn resurrect(&mut self, fleet: &Fleet<P>, f: FunctionId) -> bool {
        let archived = self.archived.remove(&f);
        if archived {
            self.run.stats.resurrections += 1;
            let m = fleet.obs.metrics();
            m.inc("elastic.resurrections", &[("function", &f.name())]);
        }
        archived
    }

    /// Begins a graceful drain of host `h`: stop admitting, schedule one
    /// hand-off per hot function, and arm the drain deadline. The victim
    /// queues nothing: scale-down waits for zero pressure, which counts
    /// every active host's queue.
    fn start_drain(&mut self, d: &mut D<'_, P>, h: usize) {
        let now = d.fleet.clock.now();
        self.run.stats.drains_started += 1;
        let m = d.fleet.obs.metrics();
        m.inc("elastic.drains", &[("host", &h.to_string())]);
        d.fleet.set_phase(h, HostPhase::Draining);
        debug_assert!(d.fleet.hosts[h].waiting.is_empty());
        // The drain itself can be interrupted before any hand-off.
        if self.drain_interrupted(d, h) {
            return;
        }
        // Schedule one hand-off per hot function to the cheapest
        // survivor that doesn't already hold it.
        let mut scheduled = 0usize;
        for function in d.fleet.hosts[h].platform.hot_functions() {
            let Some(dest) = self.pick_migration_dest(d.fleet, function, h) else {
                continue;
            };
            d.schedule(
                now,
                Ev::Migrate(Handoff {
                    dest,
                    donor: h,
                    function,
                    attempt: 1,
                }),
            );
            scheduled += 1;
        }
        self.run.pending.insert(h, scheduled);
        d.schedule(
            now + self.config.policy.drain_deadline,
            Ev::DrainDeadline(h),
        );
        self.try_finish_drain(d.fleet, h);
    }

    /// Whether draining host `h` draws [`FaultSite::DrainInterrupt`];
    /// if so it dies through the driver's host-failure path, and the
    /// loop's [`Control::on_host_failed`] report cancels its pending
    /// hand-offs.
    fn drain_interrupted(&mut self, d: &mut D<'_, P>, h: usize) -> bool {
        if !self.draws(d.fleet, h, FaultSite::DrainInterrupt) {
            return false;
        }
        self.run.stats.drain_interrupts += 1;
        d.fleet.obs.metrics().inc("elastic.drain_interrupts", &[]);
        d.fail_host(h, None);
        true
    }

    /// The cheapest active host (fewest missing bytes, then load, then
    /// id) that does not already fully hold `function`; `None` when no
    /// active host exists or every one already holds it.
    fn pick_migration_dest(
        &self,
        fleet: &Fleet<P>,
        function: FunctionId,
        donor: usize,
    ) -> Option<usize> {
        fleet
            .hosts
            .iter()
            .enumerate()
            .filter(|(id, h)| *id != donor && h.phase == HostPhase::Active)
            .map(|(id, h)| {
                let residency = h.platform.residency(function);
                (residency, h.inflight.len() + h.waiting.len(), id)
            })
            .filter(|(residency, _, _)| !residency.is_full())
            .min_by_key(|(residency, load, id)| (residency.missing_bytes(), *load, *id))
            .map(|(_, _, id)| id)
    }

    /// Attempts one hand-off and settles it, unless a stall scheduled a
    /// retry.
    fn on_migrate(&mut self, d: &mut D<'_, P>, handoff: Handoff) {
        let donor = handoff.donor;
        // The drain may already have ended (deadline, interrupt, crash),
        // and the donor can die mid-hand-off.
        if d.fleet.hosts[donor].phase != HostPhase::Draining || self.drain_interrupted(d, donor) {
            return;
        }
        let now = d.fleet.clock.now();
        if let Some(migrated) = self.transfer(d, handoff, now) {
            self.resolve_handoff(d.fleet, handoff, now, migrated);
        }
    }

    /// One hand-off attempt at `now`: whether the survivor received the
    /// snapshot, or `None` when the transfer stalled and a retry is
    /// scheduled.
    fn transfer(&mut self, d: &mut D<'_, P>, handoff: Handoff, now: Nanos) -> Option<bool> {
        let Handoff {
            dest,
            donor,
            function,
            attempt,
        } = handoff;
        let breaker = self.migration_breakers.get(&function);
        if breaker.is_some_and(|b| b.is_open(now)) {
            return Some(false);
        }
        // Re-validate the destination; it may have drained or died
        // since the hand-off was scheduled.
        let Some(dest) = Some(dest)
            .filter(|&h| d.fleet.hosts[h].phase == HostPhase::Active)
            .or_else(|| self.pick_migration_dest(d.fleet, function, donor))
        else {
            return Some(false);
        };
        // The transfer can stall (receiver-side wedge): retry with
        // exponential virtual-time backoff on a re-picked destination.
        if self.draws(d.fleet, dest, FaultSite::MigrationStall) {
            self.run.stats.migration_stalls += 1;
            d.fleet.obs.metrics().inc("elastic.migration_stalls", &[]);
            let policy = &self.config.policy.migration;
            if attempt >= policy.max_attempts {
                return Some(false);
            }
            self.run.stats.migration_retries += 1;
            let retry = Handoff {
                dest,
                attempt: attempt + 1,
                ..handoff
            };
            d.schedule(now + policy.backoff(attempt), Ev::Migrate(retry));
            return None;
        }
        // The hand-off is the mesh's ordinary delta fetch: the
        // destination prewarns itself from the best donor (usually the
        // draining host — the lowest-id full holder). It gets its own
        // control-plane trace: the delta-fetch spans the prewarm records
        // nest under the hand-off span and inherit the migration trace.
        // No donor qualifying (publication raced away) falls back to
        // rebuild-from-source on first demand at the destination.
        let rec = &d.rec;
        let mtrace = rec.next_trace_id();
        let mroot = rec.start_detached("migration", cat::MIGRATE, mtrace);
        rec.attr_str(mroot, "function", &function.name());
        rec.attr(mroot, "donor", donor);
        rec.attr(mroot, "dest", dest);
        let span = rec.start_under(mroot, "handoff", cat::MIGRATE);
        let migrated = d.fleet.hosts[dest].platform.prewarm(function);
        rec.end(span);
        let outcome = if migrated {
            "migrated"
        } else {
            "rebuild_fallback"
        };
        rec.attr_str(mroot, "outcome", outcome);
        rec.end_detached(mroot);
        Some(migrated)
    }

    /// Settles one of the donor's hand-offs attempted at `now`: a
    /// migration closes the function's breaker; a failure (the survivor
    /// rebuilds on demand instead) counts toward it, unless the open
    /// breaker refused the attempt. Then checks whether the drain can
    /// complete.
    fn resolve_handoff(
        &mut self,
        fleet: &mut Fleet<P>,
        handoff: Handoff,
        now: Nanos,
        migrated: bool,
    ) {
        let breaker = self.migration_breakers.entry(handoff.function).or_default();
        if migrated {
            self.run.stats.migrations += 1;
            let m = fleet.obs.metrics();
            m.inc(
                "elastic.migrations",
                &[("function", &handoff.function.name())],
            );
            breaker.success();
        } else {
            self.run.stats.migration_failures += 1;
            if !breaker.is_open(now) {
                breaker.failure(now, &self.config.policy.migration);
            }
        }
        if let Some(n) = self.run.pending.get_mut(&handoff.donor) {
            *n = n.saturating_sub(1);
        }
        self.try_finish_drain(fleet, handoff.donor);
    }

    /// Completes a graceful drain once the host has no in-flight work
    /// and no outstanding hand-offs.
    fn try_finish_drain(&mut self, fleet: &mut Fleet<P>, h: usize) {
        if fleet.hosts[h].phase != HostPhase::Draining
            || !fleet.hosts[h].inflight.is_empty()
            || self.run.pending.get(&h).copied().unwrap_or(0) > 0
        {
            return;
        }
        self.run.stats.graceful_drains += 1;
        fleet.obs.metrics().inc("elastic.graceful_drains", &[]);
        self.retire_host(fleet, h);
    }

    /// The drain deadline fired: if the host is still draining, degrade
    /// to hard removal. Unfinished hand-offs are abandoned (survivors
    /// rebuild on demand); in-flight invocations still complete.
    fn on_drain_deadline(&mut self, d: &mut D<'_, P>, h: usize) {
        if d.fleet.hosts[h].phase != HostPhase::Draining {
            return;
        }
        self.run.stats.hard_removals += 1;
        d.fleet.obs.metrics().inc("elastic.hard_removals", &[]);
        self.retire_host(d.fleet, h);
    }

    /// Ends draining host `h`'s drain: it leaves the fleet and the mesh
    /// as [`HostPhase::Retired`], and hand-offs still pending are
    /// dropped. A draining host is never routed to, so its queue is
    /// still empty.
    fn retire_host(&mut self, fleet: &mut Fleet<P>, h: usize) {
        debug_assert!(fleet.hosts[h].waiting.is_empty());
        self.run.pending.remove(&h);
        fleet.set_phase(h, HostPhase::Retired);
        fleet.mesh.borrow_mut().deregister(HostId::from_index(h));
        self.audit_into(fleet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{InvokeRequest, StartMode};
    use crate::cluster::LocalityAffinity;
    use crate::config::SnapshotStorePolicy;
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

    fn dedup_config(policy: ElasticPolicy) -> ElasticConfig {
        let mut config = ElasticConfig::new(1);
        config.platform = PlatformConfig::builder()
            .snapshot_store(SnapshotStorePolicy::dedup())
            .build();
        config.policy = policy;
        config
    }

    fn requests(count: usize, gap: Nanos) -> Vec<EngineRequest> {
        (0..count)
            .map(|i| {
                EngineRequest::at(
                    gap * i as u64,
                    InvokeRequest::new(fid("f"), Value::map([("n".to_string(), Value::Int(200))]))
                        .with_mode(StartMode::Auto),
                )
            })
            .collect()
    }

    #[test]
    fn powered_phases_are_booting_active_draining() {
        assert!(HostPhase::Booting.is_powered());
        assert!(HostPhase::Active.is_powered());
        assert!(HostPhase::Draining.is_powered());
        assert!(!HostPhase::Retired.is_powered());
        assert!(!HostPhase::Dead.is_powered());
    }

    #[test]
    fn steady_state_run_serves_everything_and_audits_clean() {
        let mut cluster =
            ElasticCluster::new(dedup_config(ElasticPolicy::default()), |env, cfg| {
                FireworksPlatform::with_config(env, cfg.clone())
            });
        cluster.install(&spec("f")).expect("installs");
        let report = cluster.run(
            &mut LocalityAffinity::new(),
            &requests(6, Nanos::from_millis(5)),
        );
        assert!(report.completions.iter().all(|c| c.result.is_ok()));
        assert!(
            report.audit_violations.is_empty(),
            "{:?}",
            report.audit_violations
        );
        assert!(report.failed_hosts.is_empty());
        assert!(report.host_time > Nanos::ZERO);
    }

    #[test]
    fn burst_scales_up_and_idle_tail_drains_back_down() {
        let policy = ElasticPolicy {
            min_hosts: 1,
            max_hosts: 4,
            scale_up_queue: 1,
            scale_down_idle_ticks: 2,
            control_interval: Nanos::from_micros(500),
            boot_delay: Nanos::from_millis(1),
            ..ElasticPolicy::default()
        };
        let mut cluster = ElasticCluster::new(dedup_config(policy), |env, cfg| {
            FireworksPlatform::with_config(env, cfg.clone())
        });
        cluster.install(&spec("f")).expect("installs");
        // A tight burst overloads one single-slot host, then a quiet
        // tail lets the control loop shrink the fleet again.
        let mut reqs = requests(12, Nanos::from_micros(100));
        let last = reqs.last().expect("non-empty").arrival;
        reqs.push(EngineRequest::at(
            last + Nanos::from_millis(50),
            InvokeRequest::new(fid("f"), Value::map([("n".to_string(), Value::Int(200))])),
        ));
        let report = cluster.run(&mut LocalityAffinity::new(), &reqs);
        assert!(report.completions.iter().all(|c| c.result.is_ok()));
        assert!(report.stats.scale_ups > 0, "burst must grow the fleet");
        assert!(report.peak_hosts > 1);
        assert!(
            report.stats.drains_started > 0 && report.stats.graceful_drains > 0,
            "idle tail must shrink it again: {:?}",
            report.stats
        );
        assert!(
            report.audit_violations.is_empty(),
            "{:?}",
            report.audit_violations
        );
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let fingerprint = |seed: u64| -> String {
            let mut config = dedup_config(ElasticPolicy {
                scale_up_queue: 1,
                max_hosts: 3,
                ..ElasticPolicy::default()
            });
            config.env.fault_plan = FaultPlan::uniform(seed, 0.05);
            let mut cluster = ElasticCluster::new(config, |env, cfg| {
                FireworksPlatform::with_config(env, cfg.clone())
            });
            cluster.install(&spec("f")).expect("installs");
            let report = cluster.run(
                &mut LocalityAffinity::new(),
                &requests(10, Nanos::from_millis(1)),
            );
            format!(
                "{:?}|{:?}|{:?}|{}",
                report
                    .completions
                    .iter()
                    .map(|c| (c.host, c.started.as_nanos(), c.finished.as_nanos()))
                    .collect::<Vec<_>>(),
                report.stats,
                report.failed_hosts,
                report.host_time.as_nanos(),
            )
        };
        assert_eq!(fingerprint(7), fingerprint(7));
    }
}
