//! The FIREWORKS platform: install builds a function's post-JIT snapshot
//! and hands it to `crate::supply`; an invocation clones it in five
//! stages — `admit`, `start`, `page_in`, `run`, `settle` — each a private
//! function recording its own spans under the `invoke` root.

use std::cell::RefCell;
use std::rc::Rc;

use fireworks_annotator::{annotate, Annotated, AnnotationConfig};
use fireworks_lang::{JitConfig, JitPolicy, Value};
use fireworks_microvm::{
    MicroVm, MicroVmConfig, ReapMode, ReapSession, VmError, VmFullSnapshot, VmManager, WorkingSet,
};
use fireworks_netsim::{Ip, Mac, NsId};
use fireworks_obs::{cat, RootSpan};
use fireworks_runtime::guest::{InvokeResult, RunOutcome};
use fireworks_runtime::RuntimeProfile;
use fireworks_sandbox::{IoPath, IoPathKind, IsolationLevel};
use fireworks_sim::trace::Phase;
use fireworks_sim::Nanos;

use crate::api::{
    attribute_run, run_guest, ConcurrentPlatform, FunctionSpec, InFlightToken, InstallReport,
    Invocation, InvokeRequest, Platform, PlatformError, SnapshotResidency, StartKind, StoreAudit,
};
use crate::audit::{SecurityAudit, SecurityPolicy};
use crate::config::{PagingPolicy, PlatformConfig, RecoveryPolicy};
use crate::env::PlatformEnv;
use crate::host::{GuestHost, NetMode};
use crate::mesh::SharedChunkMesh;
use crate::supply::SnapshotSupply;
use crate::symbols::{fid, FunctionId, HostId, IdMap};

/// The guest IP baked into every snapshot (identical across clones —
/// paper Fig. 5's `A.A.A.A`).
pub const GUEST_IP: Ip = Ip::new(172, 16, 0, 2);
/// The guest MAC baked into every snapshot.
pub const GUEST_MAC: Mac = Mac([0x06, 0x00, 0xac, 0x10, 0x00, 0x02]);
/// Tap device name baked into every snapshot.
pub const GUEST_TAP: &str = "tap0";

/// Reliability counters for one installed function (see
/// [`FireworksPlatform::health`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FunctionHealth {
    /// Infrastructure failures since the last successful invocation.
    pub consecutive_failures: u32,
    /// When the circuit breaker half-opens, if it is open.
    pub circuit_open_until: Option<Nanos>,
    /// Invocations that succeeded only after restore/boot retries.
    pub recoveries: u64,
    /// Snapshots quarantined after failing their integrity check.
    pub quarantines: u64,
    /// Snapshot rebuilds from source (security refreshes, cache misses,
    /// and corruption recoveries).
    pub rebuilds: u64,
    /// Restore attempts that had to be retried (transient read faults,
    /// restore crashes, or integrity failures). Also counted in the
    /// metrics registry as `core.recovery.restore_retries{function=..}`.
    pub restore_retries: u64,
    /// Invocations whose REAP prefetch failed and degraded to per-page
    /// major faults. Also `core.reap.prefetch_degraded{function=..}`.
    pub prefetch_degraded: u64,
}

struct FunctionEntry {
    spec: FunctionSpec,
    annotated: Annotated,
    profile: RuntimeProfile,
    install_report: InstallReport,
    clones_since_snapshot: u64,
    refresh_time: Nanos,
    /// REAP-recorded working set (ColdStorage + reap only).
    working_set: Option<WorkingSet>,
    /// Breaker state and reliability counters; `rebuilds` is also the
    /// security audit's refresh count.
    health: FunctionHealth,
}

impl FunctionEntry {
    /// Annotates `spec` into a registered, not yet built, function.
    fn new(spec: &FunctionSpec) -> Result<Self, PlatformError> {
        let annotated = annotate(&spec.source, &AnnotationConfig::default())?;
        Ok(FunctionEntry {
            spec: spec.clone(),
            profile: RuntimeProfile::for_kind(spec.runtime),
            install_report: InstallReport {
                install_time: Nanos::ZERO,
                snapshot_pages: 0,
                snapshot_bytes: 0,
                annotated_functions: annotated.annotated_functions,
            },
            annotated,
            clones_since_snapshot: 0,
            refresh_time: Nanos::ZERO,
            working_set: None,
            health: FunctionHealth::default(),
        })
    }
}

/// A restored microVM kept resident after its invocation (for memory
/// density experiments — paper §5.4).
#[derive(Debug)]
pub struct ResidentClone {
    vm: MicroVm,
    ns: NsId,
    /// The clone's instance id (MMDS).
    pub instance: String,
    /// The clone's parameter-passer topic, `params-<instance>`.
    topic: String,
}

impl ResidentClone {
    /// Proportional set size of the clone's guest memory.
    pub fn pss_bytes(&self) -> u64 {
        self.vm.pss_bytes()
    }

    /// Resident set size of the clone's guest memory.
    pub fn rss_bytes(&self) -> u64 {
        self.vm.rss_bytes()
    }

    /// Ages the clone by `extra_ops` guest ops of continued service
    /// (models the paper's Fig. 10 methodology of running every microVM
    /// until the host swaps).
    pub fn age_ops(&mut self, extra_ops: u64) {
        self.vm.age_ops(extra_ops);
    }
}

impl InFlightToken for ResidentClone {
    fn pss_bytes(&self) -> u64 {
        ResidentClone::pss_bytes(self)
    }
}

/// What the stages of one invocation hand forward: the clone being
/// served plus the recovery and paging bookkeeping `settle` folds into
/// the function's health.
struct Flight {
    clone: ResidentClone,
    /// The snapshot the clone was restored from (REAP re-verifies the
    /// working-set pages it prefetches from it).
    snapshot: Rc<VmFullSnapshot>,
    started_at: Nanos,
    /// Restore attempts that had to be retried before one succeeded.
    restore_retries: u64,
    recorded_ws: Option<WorkingSet>,
    prefetch_degraded: bool,
}

/// The Fireworks serverless platform.
pub struct FireworksPlatform {
    env: PlatformEnv,
    mgr: VmManager,
    registry: IdMap<FunctionEntry>,
    supply: SnapshotSupply,
    next_instance: u64,
    security: SecurityPolicy,
    paging: PagingPolicy,
    recovery: RecoveryPolicy,
    jit: JitConfig,
}

impl FireworksPlatform {
    /// Creates a platform with the default [`PlatformConfig`] (generous
    /// snapshot-cache budget, default recovery/paging/security).
    pub fn new(env: PlatformEnv) -> Self {
        FireworksPlatform::with_config(env, PlatformConfig::default())
    }

    /// Creates a platform with an explicit construction-time config:
    /// snapshot-cache budget (paper §6: disk-space overhead), recovery,
    /// paging, and security policies. The config is fixed for the
    /// platform's lifetime.
    pub fn with_config(env: PlatformEnv, config: PlatformConfig) -> Self {
        let mut mgr = VmManager::new(env.clock.clone(), env.costs.clone(), env.host_mem.clone());
        mgr.set_fault_injector(env.injector.clone());
        mgr.set_obs(env.obs.clone());
        let supply = SnapshotSupply::new(config.cache_budget_bytes, config.snapshot_store, &env);
        FireworksPlatform {
            env,
            mgr,
            registry: IdMap::new(),
            supply,
            next_instance: 1,
            security: config.security,
            paging: config.paging,
            recovery: config.recovery,
            jit: config.jit,
        }
    }

    /// The environment this platform runs on.
    pub fn env(&self) -> &PlatformEnv {
        &self.env
    }

    /// Snapshot-cache eviction count (for the disk-budget ablation).
    pub fn cache_evictions(&self) -> u64 {
        self.supply.evictions()
    }

    /// Chunk-store statistics — `None` unless the platform runs the
    /// content-addressed store
    /// ([`crate::config::SnapshotStorePolicy::Dedup`]).
    pub fn chunk_stats(&self) -> Option<fireworks_store::ChunkStoreStats> {
        self.supply.chunk_stats()
    }

    fn guest_host(env: &PlatformEnv, default_params: Value) -> GuestHost {
        let io = IoPath::new(IoPathKind::VirtioBlk, env.costs.clone());
        env.guest_host(io, NetMode::ThroughNat, default_params)
    }

    /// A host for the install phase: same cost model, but side effects go
    /// to a staging store and bus so JIT warm-up never pollutes
    /// production state.
    fn install_host(&self, default_params: &Value) -> GuestHost {
        let clock = &self.env.clock;
        let staging = PlatformEnv {
            bus: Rc::new(RefCell::new(fireworks_msgbus::MessageBus::new(
                clock.clone(),
                self.env.costs.bus.clone(),
            ))),
            store: Rc::new(RefCell::new(fireworks_store::DocumentStore::new(
                clock.clone(),
                fireworks_store::StoreCosts::default(),
            ))),
            ..self.env.clone()
        };
        FireworksPlatform::guest_host(&staging, default_params.deep_clone())
    }

    /// Runs the install pipeline and returns the snapshot.
    fn build_snapshot(
        &mut self,
        spec: &FunctionSpec,
        annotated: &Annotated,
        profile: &RuntimeProfile,
    ) -> Result<Rc<VmFullSnapshot>, PlatformError> {
        let clock = self.env.clock.clone();
        let mut vm = self.mgr.create(MicroVmConfig::default());
        // Boot crashes during install are transient: the VM stays in the
        // pre-boot state, so wait out the backoff and try again.
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.mgr.boot(&mut vm) {
                Ok(()) => break,
                Err(err) if attempt >= self.recovery.max_attempts => {
                    return Err(PlatformError::Vm(err))
                }
                Err(_) => {
                    clock.advance(self.recovery.backoff(attempt));
                }
            }
        }
        self.mgr.launch_runtime(
            &mut vm,
            profile.clone(),
            &annotated.source,
            // The platform's JIT shape, with the install-time policy
            // pinned: annotated functions compile eagerly so the
            // snapshot is taken post-JIT.
            self.jit.with_policy(Some(JitPolicy::AnnotatedEager)),
        )?;
        let mut host = self.install_host(&spec.default_params);
        {
            let rt = vm
                .runtime_mut()
                .ok_or_else(|| PlatformError::Other("runtime failed to launch".into()))?;
            rt.run_toplevel(&clock, &mut host)?;
            rt.start(&annotated.entry, Vec::new())?;
            match rt.run(&clock, &mut host)? {
                RunOutcome::SnapshotPoint => {}
                RunOutcome::Done(_) => {
                    return Err(PlatformError::Other(format!(
                        "`{}` finished without reaching the snapshot point",
                        spec.name
                    )))
                }
            }
            // The warm-up served real requests: the snapshot starts warm.
            rt.mark_warmed();
        }
        Ok(Rc::new(self.mgr.snapshot(&mut vm)))
    }

    /// Regenerates a function's snapshot (security refresh / cache-miss
    /// reinstall). Returns the snapshot as cached.
    fn refresh_snapshot(
        &mut self,
        function: FunctionId,
    ) -> Result<Rc<VmFullSnapshot>, PlatformError> {
        let entry = self
            .registry
            .get(function)
            .ok_or_else(|| PlatformError::UnknownFunction(function.name().to_string()))?;
        let spec = entry.spec.clone();
        let annotated = entry.annotated.clone();
        let profile = entry.profile.clone();
        let t0 = self.env.clock.now();
        let snapshot = self.build_snapshot(&spec, &annotated, &profile)?;
        let took = self.env.clock.now() - t0;
        let snapshot = self.supply.insert(function, snapshot);
        let entry = self
            .registry
            .get_mut(function)
            .ok_or_else(|| PlatformError::UnknownFunction(function.name().to_string()))?;
        entry.clones_since_snapshot = 0;
        entry.health.rebuilds += 1;
        entry.refresh_time += took;
        Ok(snapshot)
    }

    /// The common invoke path; returns the invocation and the still-live
    /// clone. `trace_ctx` is the caller's distributed-tracing context:
    /// when set and no span is already open (the direct blocking-invoke
    /// path), the invocation's root span is parented under it so the
    /// platform's internals join the request's cross-host tree.
    fn invoke_internal(
        &mut self,
        function: FunctionId,
        args: &Value,
        trace_ctx: Option<fireworks_obs::SpanContext>,
    ) -> Result<(Invocation, ResidentClone), PlatformError> {
        // Resolve the label once; every metric and span below borrows it.
        let name = function.name();
        let (default_params, known_working_set, timeout) = self.admit(function, &name)?;

        // Root span of the invocation: every span and instant the stages
        // record lands underneath it, each phase recorded once, and the
        // guard closes it (with any still-open descendant) on every exit
        // path.
        let obs = self.env.obs.clone();
        let root = obs.recorder().root("invoke", cat::INVOKE, trace_ctx);
        obs.recorder().attr(root.id(), "function", &*name);
        obs.metrics()
            .inc("core.invoke.attempts", &[("function", &name)]);

        let mut flight = self.start(function, &name, args)?;
        if let PagingPolicy::ColdStorage { reap } = self.paging {
            self.page_in(&name, reap, known_working_set, &mut flight);
        }
        let (result, host) =
            self.run(function, &name, timeout, default_params, &mut flight.clone)?;
        self.settle(function, &name, root, flight, result, host)
    }

    /// Stage 1 — admit: the function must be installed and its circuit
    /// breaker closed. An open breaker fails fast without touching any
    /// resources; past the cooldown the attempt is let through
    /// (half-open) and either resets the breaker or re-opens it. Returns
    /// what the later stages need from the registry: default parameters,
    /// the REAP working set recorded so far, and the invocation timeout.
    fn admit(
        &self,
        function: FunctionId,
        name: &str,
    ) -> Result<(Value, Option<WorkingSet>, Option<Nanos>), PlatformError> {
        let entry = self
            .registry
            .get(function)
            .ok_or_else(|| PlatformError::UnknownFunction(name.to_string()))?;
        if let Some(until) = entry.health.circuit_open_until {
            if self.env.clock.now() < until {
                return Err(PlatformError::CircuitOpen {
                    function: name.to_string(),
                    until,
                });
            }
        }
        Ok((
            entry.spec.default_params.deep_clone(),
            entry.working_set.clone(),
            entry.spec.timeout,
        ))
    }

    /// Stage 2 — start: everything up to a restored clone. Spans:
    /// `snapshot_delta_fetch` or `snapshot_rebuild` on a supply miss,
    /// `param_produce`, `netns_setup`, and those of the restore itself.
    /// A restore failure that survives the recovery policy tears the
    /// clone's resources down, counts toward the function's circuit
    /// breaker, and surfaces as a typed error.
    fn start(
        &mut self,
        function: FunctionId,
        name: &str,
        args: &Value,
    ) -> Result<Flight, PlatformError> {
        let obs = self.env.obs.clone();
        let rec = obs.recorder();
        let started_at = self.env.clock.now();

        // Snapshot lookup; on an LRU miss the supply first tries to
        // delta-fetch the snapshot's missing chunks from a mesh peer,
        // and otherwise the platform must rebuild it from source (the §6
        // disk-budget trade-off) — either way charged to this invocation
        // as a labelled start-up span.
        let hit = self.supply.get(function);
        let mut snapshot = match hit.or_else(|| self.supply.fetch_delta(function, &self.env)) {
            Some(s) => s,
            None => rec.scope_phase("snapshot_rebuild", cat::SNAPSHOT, Phase::Startup, || {
                self.refresh_snapshot(function)
            })?,
        };

        // Parameter passer: produce the arguments into the per-instance
        // topic before resuming (paper §3.6).
        let instance = format!("vm-{}", self.next_instance);
        let topic = format!("params-{instance}");
        self.next_instance += 1;
        rec.scope_phase("param_produce", cat::INVOKE, Phase::Other, || {
            let bytes = args.heap_estimate() as u64;
            let mut bus = self.env.bus.borrow_mut();
            bus.produce(&topic, args.deep_clone(), bytes);
        });

        // Network namespace + NAT for the clone (paper §3.5).
        let ns = rec.scope_phase("netns_setup", cat::NET, Phase::Startup, || {
            let mut net = self.env.net.borrow_mut();
            let ns = net.create_namespace();
            net.attach_tap(ns, GUEST_TAP, GUEST_IP, GUEST_MAC)?;
            let ext = net.alloc_external_ip(ns)?;
            net.install_nat(ns, ext, GUEST_IP)?;
            Ok::<NsId, PlatformError>(ns)
        })?;

        let (restored, restore_retries) = self.restore_recovering(function, name, &mut snapshot);
        let mut vm = match restored {
            Ok(vm) => vm,
            Err(e) => {
                self.teardown_clone(ns, &topic);
                if let Some(entry) = self.registry.get_mut(function) {
                    // An infrastructure failure feeds the breaker, which
                    // opens once the streak reaches the threshold.
                    let health = &mut entry.health;
                    health.consecutive_failures += 1;
                    if health.consecutive_failures >= self.recovery.circuit_threshold {
                        let cooldown = self.recovery.circuit_cooldown;
                        health.circuit_open_until = Some(self.env.clock.now() + cooldown);
                    }
                    health.restore_retries += restore_retries;
                }
                obs.metrics()
                    .inc("core.invoke.failures", &[("function", name)]);
                // The failed invocation's fault events land under its own
                // root instead of bleeding into the next invocation's.
                self.env.flush_faults();
                return Err(e);
            }
        };
        vm.mmds_set("instance-id", &instance);
        Ok(Flight {
            clone: ResidentClone {
                vm,
                ns,
                instance,
                topic,
            },
            snapshot,
            started_at,
            restore_retries,
            recorded_ws: None,
            prefetch_degraded: false,
        })
    }

    /// The restore step of `start`, recovering from infrastructure
    /// faults: transient failures (read errors, restore crashes) retry
    /// after an exponential virtual-time backoff (`recovery_backoff`); a
    /// failed integrity check quarantines the cached snapshot and
    /// rebuilds it from source (`snapshot_rebuild`, replacing `snapshot`)
    /// — this start degrades to roughly a cold install, but the
    /// invocation still succeeds. Returns the outcome once the policy's
    /// attempts are spent, and how many attempts had to be retried.
    fn restore_recovering(
        &mut self,
        function: FunctionId,
        name: &str,
        snapshot: &mut Rc<VmFullSnapshot>,
    ) -> (Result<MicroVm, PlatformError>, u64) {
        let obs = self.env.obs.clone();
        let rec = obs.recorder();
        let labels: &[(&'static str, &str)] = &[("function", name)];
        let mut attempt = 0u32;
        let mut retries = 0u64;
        let restored = loop {
            attempt += 1;
            // `VmManager::restore` records its own start-up
            // `snapshot_restore` span (with read/verify/map children)
            // under the root, so only the retry bookkeeping is recorded
            // here.
            let err = match self.mgr.restore(snapshot) {
                Ok(vm) => break Ok(vm),
                Err(err) if attempt >= self.recovery.max_attempts => {
                    break Err(PlatformError::Vm(err))
                }
                Err(err) => err,
            };
            retries += 1;
            obs.metrics().inc("core.recovery.restore_retries", labels);
            if !matches!(err, VmError::Corrupt(_)) {
                rec.scope_phase("recovery_backoff", cat::RESTORE, Phase::Startup, || {
                    self.env.clock.advance(self.recovery.backoff(attempt));
                });
                continue;
            }
            // Every later restore would fail the same checksums: evict
            // the damaged snapshot and rebuild from source.
            self.supply.remove(function);
            if let Some(entry) = self.registry.get_mut(function) {
                entry.health.quarantines += 1;
            }
            obs.metrics().inc("core.recovery.quarantines", labels);
            rec.instant_with(
                format!("snapshot_quarantine:{name}"),
                cat::CACHE,
                vec![("attempt", attempt.into())],
            );
            match rec.scope_phase("snapshot_rebuild", cat::SNAPSHOT, Phase::Startup, || {
                self.refresh_snapshot(function)
            }) {
                Ok(rebuilt) => *snapshot = rebuilt,
                Err(e) => break Err(e),
            }
        };
        (restored, retries)
    }

    /// Stage 3 — page-in, under [`PagingPolicy::ColdStorage`] only (the
    /// REAP extension, §7): when snapshot pages are not in the host page
    /// cache, the invocation's working set must come from storage — one
    /// major fault per page, or one bulk prefetch of the recorded set.
    /// Span: `paging`.
    fn page_in(
        &self,
        name: &str,
        reap: bool,
        known_working_set: Option<WorkingSet>,
        flight: &mut Flight,
    ) {
        let clock = &self.env.clock;
        let obs = &self.env.obs;
        let rec = obs.recorder();
        let mode = match (&known_working_set, reap) {
            (_, false) => ReapMode::Off,
            (Some(_), true) => ReapMode::Prefetch,
            (None, true) => ReapMode::Record,
        };
        let ws = known_working_set.unwrap_or_default();
        flight.recorded_ws = rec.scope_phase("paging", cat::PREFETCH, Phase::Exec, || {
            let mut session = match ReapSession::start_observed(
                clock,
                mode,
                &self.env.costs.mem,
                ws.clone(),
                Some(&self.env.injector),
                Some(flight.snapshot.mem()),
                Some(obs),
            ) {
                Ok(session) => session,
                // Prefetch failed (read fault or corrupt working-set
                // page): degrade gracefully to per-page major faults
                // instead of failing the invocation.
                Err(_) => {
                    flight.prefetch_degraded = true;
                    ReapSession::start(clock, ReapMode::Off, &self.env.costs.mem, ws)
                }
            };
            for (first, count) in flight.clone.vm.working_set_ranges() {
                session.touch_range(clock, first, count);
            }
            session.finish()
        });
        if flight.prefetch_degraded {
            obs.metrics()
                .inc("core.reap.prefetch_degraded", &[("function", name)]);
            rec.instant(format!("prefetch_degraded:{name}"), cat::PREFETCH);
        }
    }

    /// Stage 4 — run: resume the guest right after the snapshot point.
    /// Spans: `framework`, then whatever the guest's I/O records. A
    /// failure kills the clone — namespace, topic, and VM all go — but
    /// guest errors are not infrastructure failures and do not feed the
    /// circuit breaker.
    fn run(
        &self,
        function: FunctionId,
        name: &str,
        timeout: Option<Nanos>,
        default_params: Value,
        clone: &mut ResidentClone,
    ) -> Result<(InvokeResult, GuestHost), PlatformError> {
        let clock = &self.env.clock;
        let mut host = FireworksPlatform::guest_host(&self.env, default_params);
        host.mmds_set("instance-id", &clone.instance);
        let ran = (|| {
            let rt = clone
                .vm
                .runtime_mut()
                .ok_or_else(|| PlatformError::Other("snapshot has no runtime".into()))?;
            if !rt.is_suspended() {
                return Err(PlatformError::Other(
                    "snapshot is not suspended at the resume point".into(),
                ));
            }
            // The framework path is already warmed into the post-JIT
            // snapshot, so the shared step charges its steady-state cost.
            run_guest(&self.env, function, timeout, rt, |rt| loop {
                match rt.run(clock, &mut host)? {
                    RunOutcome::Done(r) => return Ok(r),
                    RunOutcome::SnapshotPoint => continue,
                }
            })
        })();
        match ran {
            Ok(result) => Ok((result, host)),
            Err(e) => {
                self.teardown_clone(clone.ns, &clone.topic);
                self.env.flush_faults();
                self.env
                    .obs
                    .metrics()
                    .inc("core.invoke.failures", &[("function", name)]);
                Err(e)
            }
        }
    }

    /// Stage 5 — settle: the invocation succeeded; account for it. Spans:
    /// `page_faults` (the CoW faults of this invocation's write set),
    /// `exec` / `guest_io` (the guest's run slice, attributed), and
    /// `pss_recompute`. Then the function's health, the fault flush, the
    /// invocation itself (closing the root), the latency and guest-JIT
    /// metrics, and — off the invocation path — the security refresh.
    fn settle(
        &mut self,
        function: FunctionId,
        name: &str,
        root: RootSpan<'_>,
        flight: Flight,
        result: InvokeResult,
        host: GuestHost,
    ) -> Result<(Invocation, ResidentClone), PlatformError> {
        let obs = self.env.obs.clone();
        let rec = obs.recorder();
        let m = obs.metrics();
        let labels: &[(&'static str, &str)] = &[("function", name)];
        let mut clone = flight.clone;

        rec.scope_phase("page_faults", cat::MEM, Phase::Exec, || {
            clone.vm.sync_runtime_memory();
            clone.vm.dirty_invocation();
        });
        attribute_run(&self.env, &result, &host);

        // Guest-memory accounting after this invocation's CoW faults
        // (paper §5.4): one pass over the clone's address space yields
        // PSS and the sharing split; RSS is a maintained counter.
        rec.scope("pss_recompute", cat::MEM, || {
            let sharing = clone.vm.sharing_stats();
            m.gauge_set("guestmem.clone.pss_bytes", labels, sharing.pss_bytes as i64);
            m.gauge_set(
                "guestmem.clone.rss_bytes",
                labels,
                clone.vm.rss_bytes() as i64,
            );
            m.gauge_set(
                "guestmem.clone.shared_pages",
                labels,
                sharing.shared_pages as i64,
            );
            m.gauge_set(
                "guestmem.clone.private_pages",
                labels,
                sharing.private_pages as i64,
            );
        });

        let entry = self
            .registry
            .get_mut(function)
            .ok_or_else(|| PlatformError::UnknownFunction(name.to_string()))?;
        entry.clones_since_snapshot += 1;
        if let Some(ws) = flight.recorded_ws {
            entry.working_set = Some(ws);
        }
        // Success closes the breaker and resets the failure streak.
        let health = &mut entry.health;
        health.consecutive_failures = 0;
        health.circuit_open_until = None;
        health.restore_retries += flight.restore_retries;
        health.prefetch_degraded += u64::from(flight.prefetch_degraded);
        health.recoveries += u64::from(flight.restore_retries > 0);
        let needs_refresh = self.security.refresh_after_invocations > 0
            && entry.clones_since_snapshot >= self.security.refresh_after_invocations;

        // Surface every fault injected during this invocation under its
        // root, so recovery is auditable alongside the latency spans.
        self.env.flush_faults();
        let invocation = Invocation::from_run(root, result, host, StartKind::SnapshotRestore);
        m.observe(
            "core.invoke.latency_ns",
            labels,
            (self.env.clock.now() - flight.started_at).as_nanos(),
        );
        // Guest-JIT health for this invocation: inline-cache hit/miss
        // traffic, deopts, and code-cache evictions. Restore-side deopt
        // storms (snapshot taken before IC warm-up, or shape drift in
        // live traffic) surface here.
        let stats = &invocation.stats;
        m.add("vm.ic.hits", labels, stats.ic_hits);
        m.add("vm.ic.misses", labels, stats.ic_misses);
        m.add("vm.jit.deopts", labels, stats.deopts);
        m.add("vm.code_cache.evictions", labels, stats.code_evictions);
        if let Some(rt) = clone.vm.runtime() {
            m.gauge_set(
                "vm.code_cache.used_bytes",
                labels,
                rt.vm().code_cache_used_bytes() as i64,
            );
            let ic = rt.vm().ic_summary();
            m.gauge_set("vm.ic.sites", labels, ic.sites as i64);
            m.gauge_set("vm.ic.megamorphic_sites", labels, ic.mega as i64);
        }

        // Security maintenance off the invocation path (paper §6): a
        // failed rebuild must not fail the request it rode behind. The
        // old snapshot keeps serving and, `clones_since_snapshot` being
        // untouched, the next invocation retries the refresh.
        if needs_refresh && self.refresh_snapshot(function).is_err() {
            m.inc("core.security.refresh_failures", labels);
            rec.instant(format!("refresh_failed:{name}"), cat::SNAPSHOT);
            self.env.flush_faults();
        }
        Ok((invocation, clone))
    }

    /// Invokes a function and keeps the clone resident (for memory
    /// experiments). Release it with [`FireworksPlatform::release_clone`].
    pub fn invoke_resident(
        &mut self,
        function: FunctionId,
        args: &Value,
    ) -> Result<(Invocation, ResidentClone), PlatformError> {
        self.invoke_internal(function, args, None)
    }

    /// Tears down a resident clone: namespace, parameter topic, and guest
    /// memory.
    pub fn release_clone(&mut self, clone: ResidentClone) {
        self.teardown_clone(clone.ns, &clone.topic);
        drop(clone.vm);
    }

    /// The one place a clone's host-side resources go: every exit of an
    /// invocation that set them up — restore failure, guest error,
    /// release — ends here.
    fn teardown_clone(&self, ns: NsId, topic: &str) {
        let _ = self.env.net.borrow_mut().destroy_namespace(ns);
        self.env.bus.borrow_mut().delete_topic(topic);
    }

    /// Security audit for an installed function (paper §6).
    pub fn audit(&self, function: FunctionId) -> Option<SecurityAudit> {
        let entry = self.registry.get(function)?;
        Some(SecurityAudit {
            function: function.name().to_string(),
            clones_from_current_snapshot: entry.clones_since_snapshot,
            shared_aslr_layout: entry.clones_since_snapshot > 0,
            rng_reseeded_on_restore: self.security.reseed_rng_on_restore,
            refreshes: entry.health.rebuilds,
            refresh_time: entry.refresh_time,
        })
    }

    /// The install report of a function.
    pub fn install_report(&self, function: FunctionId) -> Option<&InstallReport> {
        self.registry.get(function).map(|e| &e.install_report)
    }

    /// The function's cached snapshot, if the LRU still holds it. Touches
    /// the LRU like any other access. Handy for inspecting (or, in
    /// robustness tests, damaging) the exact pages later restores read.
    pub fn cached_snapshot(&mut self, function: FunctionId) -> Option<Rc<VmFullSnapshot>> {
        self.supply.get(function)
    }

    /// Reliability counters and breaker state of an installed function.
    pub fn health(&self, function: FunctionId) -> Option<FunctionHealth> {
        self.registry.get(function).map(|e| e.health.clone())
    }
}

impl Platform for FireworksPlatform {
    fn name(&self) -> &'static str {
        "fireworks"
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::Vm
    }

    fn install(&mut self, spec: &FunctionSpec) -> Result<InstallReport, PlatformError> {
        let t0 = self.env.clock.now();
        let mut entry = FunctionEntry::new(spec)?;
        let snapshot = self.build_snapshot(spec, &entry.annotated, &entry.profile)?;
        let report = InstallReport {
            install_time: self.env.clock.now() - t0,
            snapshot_pages: snapshot.pages(),
            snapshot_bytes: snapshot.file_bytes(),
            ..entry.install_report
        };
        entry.install_report = report.clone();
        let function = fid(&spec.name);
        self.supply.insert(function, snapshot);
        self.registry.insert(function, entry);
        Ok(report)
    }

    fn invoke(&mut self, req: &InvokeRequest) -> Result<Invocation, PlatformError> {
        // A blocking invoke is the degenerate one-event schedule: service
        // and completion at the same instant.
        let (invocation, clone) = self.begin_invoke(req)?;
        self.finish_invoke(clone);
        Ok(invocation)
    }

    fn evict(&mut self, _function: FunctionId) {
        // Fireworks keeps no warm sandboxes; nothing to evict.
    }

    fn supports_chains(&self) -> bool {
        true
    }
}

impl ConcurrentPlatform for FireworksPlatform {
    type InFlight = ResidentClone;

    fn begin_invoke(
        &mut self,
        req: &InvokeRequest,
    ) -> Result<(Invocation, ResidentClone), PlatformError> {
        // Fireworks has no cold/warm distinction (§5.1): every invocation
        // is a snapshot restore regardless of `req.mode`, and the clone
        // stays resident — its guest memory charged against the host —
        // until `finish_invoke`.
        self.invoke_internal(req.function, &req.args, req.trace)
    }

    fn finish_invoke(&mut self, clone: ResidentClone) {
        self.release_clone(clone);
    }

    fn residency(&self, function: FunctionId) -> SnapshotResidency {
        self.supply.residency(function)
    }

    fn hot_functions(&self) -> Vec<FunctionId> {
        self.supply.names()
    }

    fn prewarm(&mut self, function: FunctionId) -> bool {
        // Already hot, or provisioned by delta-fetching the missing
        // chunks from a mesh donor. Prewarming is opportunistic: with no
        // donor (or a donor crash) it reports `false` and the next
        // invocation pays the ordinary rebuild.
        if self.supply.contains(function) {
            return true;
        }
        if !self.registry.contains(function) {
            return false;
        }
        self.supply.fetch_delta(function, &self.env).is_some()
    }

    fn retire(&mut self, function: FunctionId) -> bool {
        self.supply.remove(function).is_some()
    }

    fn store_audit(&self) -> Option<StoreAudit> {
        self.supply.audit()
    }

    fn attach_mesh(&mut self, mesh: SharedChunkMesh, host_id: HostId) {
        self.supply.attach_mesh(mesh, host_id, &self.env);
    }

    fn register(&mut self, spec: &FunctionSpec) -> Result<(), PlatformError> {
        // Registration without the install-time build: the function is
        // invocable, and its first invocation pays a delta fetch (if a
        // mesh peer holds the snapshot) or a rebuild from source. This is
        // how a cluster installs a function on its home host only.
        self.registry
            .insert(fid(&spec.name), FunctionEntry::new(spec)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;
    use fireworks_runtime::RuntimeKind;

    const FACT_SRC: &str = "
        fn factorize(n) {
            let factors = [];
            let d = 2;
            let m = n;
            while (d * d <= m) {
                while (m % d == 0) { push(factors, d); m = m / d; }
                d = d + 1;
            }
            if (m > 1) { push(factors, m); }
            return factors;
        }
        fn main(params) { return len(factorize(params[\"n\"])); }";

    fn spec(name: &str) -> FunctionSpec {
        FunctionSpec::new(
            name,
            FACT_SRC,
            RuntimeKind::NodeLike,
            Value::map([("n".to_string(), Value::Int(1_000_003))]),
        )
    }

    fn platform() -> FireworksPlatform {
        FireworksPlatform::new(PlatformEnv::default_env())
    }

    fn args(n: i64) -> Value {
        Value::map([("n".to_string(), Value::Int(n))])
    }

    fn req(name: &str, n: i64) -> InvokeRequest {
        InvokeRequest::new(fid(name), args(n))
    }

    #[test]
    fn install_creates_post_jit_snapshot() {
        let mut p = platform();
        let report = p.install(&spec("fact")).expect("installs");
        assert!(report.snapshot_pages > 10_000, "full VM image captured");
        assert!(report.annotated_functions >= 2);
        // §5.1: install takes seconds (boot + runtime + JIT + write).
        assert!(report.install_time.as_secs_f64() > 1.0);
    }

    /// `EnvConfig.costs.mem` is the table the host memory charges from.
    #[test]
    fn doubling_the_cow_fault_cost_doubles_an_invocations_cow_time() {
        let run = |cow_fault: Nanos| {
            let mut config = EnvConfig::default();
            config.costs.mem.cow_fault = cow_fault;
            let env = PlatformEnv::new(config);
            let mut p = FireworksPlatform::new(env.clone());
            p.install(&spec("fact")).expect("installs");
            let faults_before = env.host_mem.stats().cow_faults;
            let started = env.clock.now();
            p.invoke(&req("fact", 360)).expect("invokes");
            let faults = env.host_mem.stats().cow_faults - faults_before;
            (env.clock.now() - started, faults)
        };
        let cow_fault = EnvConfig::default().costs.mem.cow_fault;
        let (time, faults) = run(cow_fault);
        let (time_doubled, faults_doubled) = run(cow_fault * 2);
        assert!(faults > 0, "a restored clone dirties shared pages");
        assert_eq!(faults_doubled, faults);
        assert_eq!(time_doubled - time, cow_fault * faults);
    }

    #[test]
    fn invoke_runs_user_function_with_real_arguments() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        // 360 = 2^3 * 3^2 * 5 → 6 prime factors.
        let inv = p.invoke(&req("fact", 360)).expect("invokes");
        assert_eq!(inv.value, Value::Int(6));
        assert_eq!(inv.start, StartKind::SnapshotRestore);
    }

    #[test]
    fn startup_is_orders_of_magnitude_below_install() {
        let mut p = platform();
        let report = p.install(&spec("fact")).expect("installs");
        let inv = p.invoke(&req("fact", 12345)).expect("invokes");
        assert!(
            inv.breakdown.startup.as_nanos() * 20 < report.install_time.as_nanos(),
            "startup {} vs install {}",
            inv.breakdown.startup,
            report.install_time
        );
        // Fireworks startup target: tens of ms (§5.2).
        assert!(inv.breakdown.startup < Nanos::from_millis(80));
    }

    #[test]
    fn invocation_executes_jitted_without_compiles() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        let inv = p.invoke(&req("fact", 1_000_003)).expect("invokes");
        assert_eq!(inv.stats.compiles, 0, "post-JIT: no compile at invoke");
        assert!(
            inv.stats.jit_ops > inv.stats.interp_ops,
            "runs in the JIT tier: {:?}",
            inv.stats
        );
    }

    #[test]
    fn concurrent_clones_share_memory() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        let (_, a) = p.invoke_resident(fid("fact"), &args(99)).expect("a");
        let (_, b) = p.invoke_resident(fid("fact"), &args(100)).expect("b");
        // Each clone's private write set (exec state + dirtied heap) is a
        // small fraction of the image, so PSS sits well below RSS.
        assert!(
            (a.pss_bytes() as f64) < 0.65 * a.rss_bytes() as f64,
            "pss {} vs rss {}",
            a.pss_bytes(),
            a.rss_bytes()
        );
        assert_ne!(a.instance, b.instance);
        p.release_clone(a);
        p.release_clone(b);
    }

    #[test]
    fn clones_get_distinct_arguments_despite_identical_memory() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        let i1 = p.invoke(&req("fact", 8)).expect("1");
        let i2 = p.invoke(&req("fact", 36)).expect("2");
        assert_eq!(i1.value, Value::Int(3)); // 2*2*2
        assert_eq!(i2.value, Value::Int(4)); // 2*2*3*3
    }

    #[test]
    fn unknown_function_errors() {
        let mut p = platform();
        assert!(matches!(
            p.invoke(&req("ghost", 1)),
            Err(PlatformError::UnknownFunction(_))
        ));
    }

    #[test]
    fn cache_eviction_triggers_rebuild_on_invoke() {
        // Budget fits roughly one snapshot: installing two functions
        // evicts the first; invoking it must transparently rebuild.
        let mut p = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder().cache_budget(200 << 20).build(),
        );
        p.install(&spec("f1")).expect("installs");
        p.install(&spec("f2")).expect("installs");
        assert!(p.cache_evictions() > 0, "budget forced an eviction");
        assert!(
            p.residency(fid("f2")).is_full() && !p.residency(fid("f1")).is_full(),
            "the locality signal tracks the LRU"
        );
        let inv = p.invoke(&req("f1", 10)).expect("rebuilds");
        assert_eq!(inv.value, Value::Int(2));
        assert!(
            inv.total_for(p.env().obs.recorder(), "snapshot_rebuild") > Nanos::ZERO,
            "rebuild must be visible in the trace"
        );
        assert!(
            p.residency(fid("f1")).is_full(),
            "the rebuild re-populated the cache"
        );
    }

    #[test]
    fn security_refresh_regenerates_snapshot() {
        let mut p = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder()
                .security(SecurityPolicy {
                    reseed_rng_on_restore: true,
                    refresh_after_invocations: 2,
                })
                .build(),
        );
        p.install(&spec("fact")).expect("installs");
        for _ in 0..2 {
            p.invoke(&req("fact", 10)).expect("ok");
        }
        let audit = p.audit(fid("fact")).expect("installed");
        assert_eq!(audit.refreshes, 1, "refresh after 2 invocations");
        assert_eq!(audit.clones_from_current_snapshot, 0);
        assert!(audit.refresh_time > Nanos::ZERO);
    }

    #[test]
    fn failed_security_refresh_keeps_the_invocation_and_retries() {
        use fireworks_sim::fault::{FaultPlan, FaultSite};
        // VmCrash is drawn once per boot and once per restore: install
        // boot (1), two restores (2, 3), then the refresh's boot (4).
        let plan = FaultPlan::new(5).nth(FaultSite::VmCrash, 4);
        let mut p = FireworksPlatform::with_config(
            PlatformEnv::with_fault_plan(plan),
            PlatformConfig::builder()
                .security(SecurityPolicy {
                    reseed_rng_on_restore: true,
                    refresh_after_invocations: 2,
                })
                .recovery(RecoveryPolicy {
                    max_attempts: 1,
                    ..RecoveryPolicy::default()
                })
                .build(),
        );
        p.install(&spec("fact")).expect("installs");
        let ns_before = p.env().net.borrow().namespace_count();
        p.invoke(&req("fact", 360)).expect("first");

        // The refresh behind the second invocation fails to boot; the
        // invocation itself already succeeded and must stay that way.
        let inv = p.invoke(&req("fact", 360)).expect("refresh is off-path");
        assert_eq!(inv.value, Value::Int(6));
        assert_eq!(p.env().net.borrow().namespace_count(), ns_before);
        assert!(!p.env().bus.borrow().has_topic("params-vm-2"));
        let audit = p.audit(fid("fact")).expect("installed");
        assert_eq!(audit.refreshes, 0);
        assert_eq!(audit.clones_from_current_snapshot, 2, "old snapshot serves");
        let fact = &[("function", "fact")];
        let snap = p.env().obs.metrics().snapshot();
        assert_eq!(snap.counter("core.security.refresh_failures", fact), 1);
        assert_eq!(snap.counter("core.invoke.failures", fact), 0);

        // The next invocation retries the refresh, which now succeeds.
        p.invoke(&req("fact", 360)).expect("third");
        let audit = p.audit(fid("fact")).expect("installed");
        assert_eq!(audit.refreshes, 1);
        assert_eq!(audit.clones_from_current_snapshot, 0);
    }

    #[test]
    fn audit_reports_shared_layout_without_refresh() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        for _ in 0..3 {
            p.invoke(&req("fact", 10)).expect("ok");
        }
        let audit = p.audit(fid("fact")).expect("installed");
        assert_eq!(audit.clones_from_current_snapshot, 3);
        assert!(audit.has_findings(), "shared ASLR across 3 clones");
    }

    #[test]
    fn failed_invocations_release_namespace_and_topic() {
        let mut p = platform();
        p.install(&FunctionSpec::new(
            "crashy",
            "fn main(params) { return 1 / params[\"zero\"]; }",
            RuntimeKind::NodeLike,
            Value::map([("zero".to_string(), Value::Int(1))]),
        ))
        .expect("installs");
        let ns_before = p.env().net.borrow().namespace_count();
        for _ in 0..3 {
            let err = p.invoke(&InvokeRequest::new(
                fid("crashy"),
                Value::map([("zero".to_string(), Value::Int(0))]),
            ));
            assert!(err.is_err());
        }
        assert_eq!(
            p.env().net.borrow().namespace_count(),
            ns_before,
            "crashed invocations must not leak namespaces"
        );
        // Successful invocations clean up their parameter topics too.
        p.invoke(&InvokeRequest::new(
            fid("crashy"),
            Value::map([("zero".to_string(), Value::Int(2))]),
        ))
        .expect("runs");
        assert!(
            !p.env().bus.borrow().has_topic("params-vm-1"),
            "parameter topics must be deleted after teardown"
        );
    }

    #[test]
    fn cold_storage_paging_faults_and_reap_prefetch_recovers() {
        let req10 = req("fact", 10);

        // Warm page cache: no paging span at all.
        let mut warm = platform();
        warm.install(&spec("fact")).expect("installs");
        let warm_inv = warm.invoke(&req10).expect("ok");
        let paging = |p: &FireworksPlatform, inv: &Invocation| {
            inv.total_for(p.env().obs.recorder(), "paging")
        };
        assert_eq!(paging(&warm, &warm_inv), Nanos::ZERO);

        // Cold storage without REAP: every invocation faults the whole
        // working set from storage.
        let mut cold = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder()
                .paging(PagingPolicy::ColdStorage { reap: false })
                .build(),
        );
        cold.install(&spec("fact")).expect("installs");
        let c1 = cold.invoke(&req10).expect("ok");
        let c2 = cold.invoke(&req10).expect("ok");
        let cold_paging = paging(&cold, &c1);
        assert!(
            cold_paging > Nanos::from_millis(5),
            "major faults hurt: {cold_paging}"
        );
        assert_eq!(paging(&cold, &c2), cold_paging, "no learning");

        // Cold storage with REAP: first invocation records, later ones
        // prefetch in one sequential read — much cheaper.
        let mut reap = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder()
                .paging(PagingPolicy::ColdStorage { reap: true })
                .build(),
        );
        reap.install(&spec("fact")).expect("installs");
        let r1 = reap.invoke(&req10).expect("ok");
        let r2 = reap.invoke(&req10).expect("ok");
        assert_eq!(
            paging(&reap, &r1),
            cold_paging,
            "recording pass pays the same faults"
        );
        let prefetch = paging(&reap, &r2);
        assert!(
            prefetch.as_nanos() * 4 < cold_paging.as_nanos(),
            "prefetch {prefetch} vs faulting {cold_paging}"
        );
        // Results are identical regardless of paging policy.
        assert_eq!(warm_inv.value, r2.value);
    }

    #[test]
    fn transient_restore_fault_recovers_with_backoff() {
        use fireworks_sim::fault::{FaultPlan, FaultSite};
        let plan = FaultPlan::new(7).nth(FaultSite::SnapshotRead, 1);
        let mut p = FireworksPlatform::new(PlatformEnv::with_fault_plan(plan));
        p.install(&spec("fact")).expect("installs");
        let inv = p.invoke(&req("fact", 360)).expect("recovers");
        assert_eq!(inv.value, Value::Int(6), "result unaffected by the fault");
        let rec = p.env().obs.recorder();
        assert!(
            inv.total_for(rec, "recovery_backoff") > Nanos::ZERO,
            "retry backoff must be visible in the trace"
        );
        assert!(
            inv.total_for(rec, "fault:snapshot_read") == Nanos::ZERO
                && rec.subtree(inv.span.expect("recorded")).iter().any(
                    |e| matches!(e, fireworks_obs::Event::Instant(i) if i.name == "fault:snapshot_read")
                ),
            "the injected fault appears as a zero-width event"
        );
        let health = p.health(fid("fact")).expect("installed");
        assert_eq!(health.recoveries, 1);
        assert_eq!(health.consecutive_failures, 0);
        assert_eq!(health.quarantines, 0);
    }

    #[test]
    fn observability_plane_sees_retries_spans_and_metrics() {
        use fireworks_obs::Event;
        use fireworks_sim::fault::{FaultPlan, FaultSite};
        let plan = FaultPlan::new(7).nth(FaultSite::SnapshotRead, 1);
        let mut p = FireworksPlatform::new(PlatformEnv::with_fault_plan(plan));
        p.install(&spec("fact")).expect("installs");
        p.invoke(&req("fact", 360)).expect("recovers");

        let health = p.health(fid("fact")).expect("installed");
        assert_eq!(health.restore_retries, 1, "one transient retry");
        assert_eq!(health.prefetch_degraded, 0);

        let snap = p.env().obs.metrics().snapshot();
        let fact = &[("function", "fact")];
        assert_eq!(snap.counter("core.recovery.restore_retries", fact), 1);
        assert_eq!(snap.counter("core.invoke.attempts", fact), 1);
        assert_eq!(snap.counter("core.invoke.failures", fact), 0);
        assert_eq!(snap.counter("core.cache.hits", &[]), 1);
        assert_eq!(
            snap.counter("microvm.restore.failures", &[("kind", "read")]),
            1
        );
        assert!(snap.gauge("guestmem.clone.pss_bytes", fact).unwrap_or(0) > 0);
        assert!(
            snap.histogram("core.invoke.latency_ns", fact).is_some(),
            "invoke latency lands in the default-bounds histogram"
        );

        let events = p.env().obs.recorder().events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::Span(s) if s.name == "invoke" && s.end.is_some())),
            "root invoke span is recorded and closed"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::Instant(i) if i.name == "fault:snapshot_read")),
            "the injected fault surfaces as an instant event"
        );
        assert!(
            events.iter().any(
                |e| matches!(e, Event::Span(s) if s.name == "snapshot_restore" && s.parent.is_some())
            ),
            "the manager's restore span nests under the invocation"
        );
    }

    #[test]
    fn guest_jit_health_is_exported_through_obs() {
        // `main(params)` reads `params["n"]` — a string-literal index,
        // i.e. an inline-cache property site. The platform must export
        // per-invocation IC and code-cache telemetry under `vm.*`.
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        let inv = p.invoke(&req("fact", 360)).expect("runs");
        assert!(
            inv.stats.ic_hits + inv.stats.ic_misses > 0,
            "property site must route through the IC: {:?}",
            inv.stats
        );

        let snap = p.env().obs.metrics().snapshot();
        let fact = &[("function", "fact")];
        assert_eq!(
            snap.counter("vm.ic.hits", fact) + snap.counter("vm.ic.misses", fact),
            inv.stats.ic_hits + inv.stats.ic_misses
        );
        assert_eq!(snap.counter("vm.jit.deopts", fact), inv.stats.deopts);
        assert_eq!(
            snap.counter("vm.code_cache.evictions", fact),
            inv.stats.code_evictions
        );
        assert!(
            snap.gauge("vm.code_cache.used_bytes", fact).unwrap_or(-1) > 0,
            "post-JIT snapshot clones carry resident compiled code"
        );
        assert!(snap.gauge("vm.ic.sites", fact).unwrap_or(0) >= 1);
    }

    #[test]
    fn platform_jit_config_constrains_guest_code_cache() {
        // A byte-starved platform-level code-cache budget suppresses
        // compilation in every launched runtime: installs still work,
        // but the snapshot carries no JIT code.
        let mut p = FireworksPlatform::with_config(
            PlatformEnv::default_env(),
            PlatformConfig::builder()
                .jit(fireworks_lang::JitConfig::default().with_code_cache_capacity_bytes(8))
                .build(),
        );
        p.install(&spec("fact")).expect("installs");
        let inv = p.invoke(&req("fact", 360)).expect("runs");
        assert_eq!(inv.stats.compiles, 0, "{:?}", inv.stats);
        let snap = p.env().obs.metrics().snapshot();
        assert_eq!(
            snap.gauge("vm.code_cache.used_bytes", &[("function", "fact")]),
            Some(0)
        );
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_and_rebuilt() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        // Damage a page of the cached snapshot behind the platform's back
        // (disk corruption, not an armed injector).
        p.cached_snapshot(fid("fact"))
            .expect("cached")
            .mem()
            .corrupt_page(123);
        let inv = p.invoke(&req("fact", 360)).expect("self-heals");
        assert_eq!(inv.value, Value::Int(6));
        assert!(
            inv.total_for(p.env().obs.recorder(), "snapshot_rebuild") > Nanos::ZERO,
            "recovery rebuilds the snapshot from source"
        );
        let health = p.health(fid("fact")).expect("installed");
        assert_eq!(health.quarantines, 1);
        assert_eq!(health.rebuilds, 1);
        // The rebuilt snapshot serves the next invocation cleanly.
        let inv2 = p.invoke(&req("fact", 360)).expect("restores");
        assert_eq!(inv2.start, StartKind::SnapshotRestore);
        let rec = p.env().obs.recorder();
        assert_eq!(inv2.total_for(rec, "snapshot_rebuild"), Nanos::ZERO);
        assert_eq!(inv2.total_for(rec, "recovery_backoff"), Nanos::ZERO);
    }

    #[test]
    fn repeated_infra_failures_open_the_circuit_breaker() {
        use fireworks_sim::fault::{FaultPlan, FaultSite};
        // Every snapshot read fails: each invocation exhausts its retries.
        let plan = FaultPlan::new(3).probability(FaultSite::SnapshotRead, 1.0);
        let mut p = FireworksPlatform::new(PlatformEnv::with_fault_plan(plan));
        p.install(&spec("fact")).expect("installs");
        let ns_before = p.env().net.borrow().namespace_count();
        for i in 0..3 {
            let err = p.invoke(&req("fact", 10));
            assert!(matches!(err, Err(PlatformError::Vm(_))), "attempt {i}");
        }
        assert_eq!(
            p.env().net.borrow().namespace_count(),
            ns_before,
            "failed restores must not leak namespaces"
        );
        // Threshold reached: the breaker fails fast without retrying.
        let t0 = p.env().clock.now();
        let err = p.invoke(&req("fact", 10));
        assert!(matches!(err, Err(PlatformError::CircuitOpen { .. })));
        assert_eq!(p.env().clock.now(), t0, "fail-fast charges nothing");
        // After the cooldown one half-open attempt goes through (and, with
        // the fault still armed, re-opens the breaker).
        p.env().clock.advance(Nanos::from_secs(11));
        let err = p.invoke(&req("fact", 10));
        assert!(matches!(err, Err(PlatformError::Vm(_))));
        let err = p.invoke(&req("fact", 10));
        assert!(matches!(err, Err(PlatformError::CircuitOpen { .. })));
        let health = p.health(fid("fact")).expect("installed");
        assert!(health.circuit_open_until.is_some());
        assert_eq!(health.consecutive_failures, 4);
    }

    #[test]
    fn guest_errors_do_not_trip_the_breaker() {
        let mut p = platform();
        p.install(&FunctionSpec::new(
            "crashy",
            "fn main(params) { return 1 / params[\"zero\"]; }",
            RuntimeKind::NodeLike,
            Value::map([("zero".to_string(), Value::Int(1))]),
        ))
        .expect("installs");
        for _ in 0..5 {
            let err = p.invoke(&InvokeRequest::new(
                fid("crashy"),
                Value::map([("zero".to_string(), Value::Int(0))]),
            ));
            assert!(matches!(err, Err(PlatformError::Lang(_))));
        }
        let health = p.health(fid("crashy")).expect("installed");
        assert_eq!(
            health.consecutive_failures, 0,
            "guest bugs are not infrastructure failures"
        );
        assert!(health.circuit_open_until.is_none());
    }

    #[test]
    fn chains_are_supported() {
        let mut p = platform();
        p.install(&spec("fact")).expect("installs");
        const WRAP_SRC: &str = "
            fn main(params) { return { n: params + 1 }; }";
        // A tiny adapter stage: takes the previous count, passes n+1 on.
        p.install(&FunctionSpec::new(
            "wrap",
            WRAP_SRC,
            RuntimeKind::NodeLike,
            Value::Int(1),
        ))
        .expect("installs");
        assert!(p.supports_chains());
        let results = p
            .invoke_chain(
                &[fid("fact"), fid("wrap")],
                &InvokeRequest::new(fid("fact"), args(8)),
            )
            .expect("chain runs");
        assert_eq!(results.len(), 2);
        // fact(8) = 3 primes → wrap makes { n: 4 }.
        let Value::Map(m) = &results[1].value else {
            panic!("map")
        };
        assert_eq!(m.borrow()["n"], Value::Int(4));
    }
}
