//! The Firecracker baseline: microVM sandbox manager.

use std::rc::Rc;

use fireworks_core::api::{
    attribute_run, run_guest, ConcurrentPlatform, FunctionSpec, InFlightToken, InstallReport,
    Invocation, InvokeRequest, Platform, PlatformError, SnapshotResidency, StartKind, StartMode,
};
use fireworks_core::config::PlatformConfig;
use fireworks_core::env::PlatformEnv;
use fireworks_core::host::{GuestHost, NetMode};
use fireworks_core::{fid, FunctionId, IdMap};
use fireworks_lang::{JitConfig, Value};
use fireworks_microvm::{MicroVm, MicroVmConfig, VmFullSnapshot, VmManager};
use fireworks_obs::{cat, Recorder, RootSpan};
use fireworks_runtime::RuntimeProfile;
use fireworks_sandbox::{IoPath, IoPathKind, IsolationLevel};
use fireworks_sim::trace::Phase;

/// Whether the platform uses VM-level snapshots for starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotPolicy {
    /// Plain Firecracker: every cold start boots a fresh VM.
    None,
    /// The Fig. 11 "+VM-level OS snapshot" factor: install captures a
    /// snapshot after boot + runtime launch + app load (no execution, no
    /// JIT); starts restore it.
    OsSnapshot,
}

struct Entry {
    spec: FunctionSpec,
    profile: RuntimeProfile,
    snapshot: Option<Rc<VmFullSnapshot>>,
}

/// A resident Firecracker sandbox (for memory experiments).
#[derive(Debug)]
pub struct ResidentVm {
    vm: MicroVm,
}

impl ResidentVm {
    /// Proportional set size of the VM's guest memory.
    pub fn pss_bytes(&self) -> u64 {
        self.vm.pss_bytes()
    }

    /// Resident set size of the VM's guest memory.
    pub fn rss_bytes(&self) -> u64 {
        self.vm.rss_bytes()
    }

    /// Ages the VM by `extra_ops` guest ops of continued service (see
    /// [`fireworks_microvm::MicroVm::age_ops`]).
    pub fn age_ops(&mut self, extra_ops: u64) {
        self.vm.age_ops(extra_ops);
    }
}

/// The Firecracker sandbox-manager baseline.
pub struct FirecrackerPlatform {
    env: PlatformEnv,
    mgr: VmManager,
    policy: SnapshotPolicy,
    registry: IdMap<Entry>,
    warm: IdMap<Vec<(MicroVm, fireworks_sim::Nanos)>>,
    keep_alive: Option<fireworks_sim::Nanos>,
}

impl FirecrackerPlatform {
    /// Creates the baseline with the given snapshot policy and the
    /// default [`PlatformConfig`].
    pub fn new(env: PlatformEnv, policy: SnapshotPolicy) -> Self {
        FirecrackerPlatform::with_config(env, policy, PlatformConfig::default())
    }

    /// Creates the baseline from a [`PlatformConfig`] (API v2).
    /// Firecracker consumes the `keep_alive` field: paused warm VMs idle
    /// past the window are terminated, releasing their guest memory.
    pub fn with_config(env: PlatformEnv, policy: SnapshotPolicy, config: PlatformConfig) -> Self {
        let mut mgr = VmManager::new(env.clock.clone(), env.costs.clone(), env.host_mem.clone());
        mgr.set_obs(env.obs.clone());
        FirecrackerPlatform {
            env,
            mgr,
            policy,
            registry: IdMap::new(),
            warm: IdMap::new(),
            keep_alive: config.keep_alive,
        }
    }

    /// The environment this platform runs on.
    pub fn env(&self) -> &PlatformEnv {
        &self.env
    }

    /// Drops warm VMs idle past the keep-alive timeout.
    fn purge_expired(&mut self) {
        let Some(timeout) = self.keep_alive else {
            return;
        };
        let now = self.env.clock.now();
        for pool in self.warm.values_mut() {
            pool.retain(|(_, last_used)| now - *last_used <= timeout);
        }
    }

    /// The active snapshot policy.
    pub fn policy(&self) -> SnapshotPolicy {
        self.policy
    }

    fn guest_host(&self, default_params: &Value) -> GuestHost {
        GuestHost::new(
            self.env.clock.clone(),
            IoPath::new(IoPathKind::VirtioBlk, self.env.costs.clone()),
            &self.env.costs.net,
            NetMode::Direct,
            self.env.costs.microvm.mmds_lookup,
            self.env.bus.clone(),
            self.env.store.clone(),
            default_params.deep_clone(),
        )
    }

    /// Builds a fresh VM with the function loaded (cold-boot path).
    fn cold_boot(&mut self, function: FunctionId) -> Result<MicroVm, PlatformError> {
        let (source, profile) = {
            let e = self
                .registry
                .get(function)
                .ok_or_else(|| PlatformError::UnknownFunction(function.name().to_string()))?;
            (e.spec.source.clone(), e.profile.clone())
        };
        let mut vm = self.mgr.create(MicroVmConfig::default());
        self.mgr.boot(&mut vm)?;
        self.mgr
            .launch_runtime(&mut vm, profile, &source, JitConfig::default())?;
        Ok(vm)
    }

    fn invoke_on_vm(
        &mut self,
        function: FunctionId,
        args: &Value,
        mode: StartMode,
        trace_ctx: Option<fireworks_obs::SpanContext>,
    ) -> Result<(Invocation, MicroVm), PlatformError> {
        // Root span mirroring the one Fireworks records, so side-by-side
        // traces line up (`trace_dump`). The VM manager's boot/restore/
        // resume spans nest underneath it, and the guard closes it on
        // every exit.
        let obs = self.env.obs.clone();
        let rec = obs.recorder();
        let root = rec.root("invoke", cat::INVOKE, trace_ctx);
        let fname = function.name();
        rec.attr(root.id(), "function", &*fname);
        rec.attr(root.id(), "platform", self.name());
        obs.metrics()
            .inc("baseline.invoke.attempts", &[("function", &fname)]);
        let result = self.invoke_under(root, rec, function, args, mode);
        if result.is_err() {
            obs.metrics()
                .inc("baseline.invoke.failures", &[("function", &fname)]);
        }
        result
    }

    fn invoke_under(
        &mut self,
        root: RootSpan<'_>,
        rec: &Recorder,
        function: FunctionId,
        args: &Value,
        mode: StartMode,
    ) -> Result<(Invocation, MicroVm), PlatformError> {
        let (default_params, timeout, snapshot) = {
            let e = self
                .registry
                .get(function)
                .ok_or_else(|| PlatformError::UnknownFunction(function.name().to_string()))?;
            (
                e.spec.default_params.deep_clone(),
                e.spec.timeout,
                e.snapshot.clone(),
            )
        };
        self.purge_expired();
        let clock = self.env.clock.clone();

        // The start-up wrappers carry the phase; the manager's own
        // `vm_boot` / `snapshot_restore` / `vm_resume` spans nest inside.
        let (mut vm, start) = match mode {
            StartMode::Warm | StartMode::Auto
                if self
                    .warm
                    .get(function)
                    .map(|v| !v.is_empty())
                    .unwrap_or(false) =>
            {
                let (mut vm, _) = self
                    .warm
                    .get_mut(function)
                    .and_then(Vec::pop)
                    .expect("non-empty checked");
                rec.scope_phase("warm_start", cat::BOOT, Phase::Startup, || {
                    self.mgr.resume(&mut vm);
                });
                (vm, StartKind::WarmPool)
            }
            StartMode::Warm => {
                return Err(PlatformError::NoWarmSandbox(function.name().to_string()))
            }
            _ => match snapshot {
                Some(snap) => {
                    let vm =
                        rec.scope_phase("snapshot_start", cat::RESTORE, Phase::Startup, || {
                            // Clones restored from one snapshot need the
                            // same network-for-clones setup as Fireworks
                            // (namespace + tap + NAT); charged here as a
                            // cost (routing state is not exercised by the
                            // baseline).
                            let net_costs = &self.env.costs.net;
                            clock.advance(net_costs.netns_create);
                            clock.advance(net_costs.tap_create);
                            clock.advance(net_costs.nat_rule_install);
                            self.mgr.restore(&snap)
                        })?;
                    (vm, StartKind::SnapshotRestore)
                }
                None => {
                    let vm = rec.scope_phase("cold_start", cat::BOOT, Phase::Startup, || {
                        self.cold_boot(function)
                    })?;
                    (vm, StartKind::ColdBoot)
                }
            },
        };

        let mut host = self.guest_host(&default_params);
        let rt = vm
            .runtime_mut()
            .ok_or_else(|| PlatformError::Other("VM has no runtime".into()))?;
        rt.run_toplevel(&clock, &mut host)?;
        // The framework request path is interpreted and cold on the first
        // request of a fresh or OS-snapshot-restored VM.
        let result = run_guest(&self.env, function, timeout, rt, |rt| {
            rt.invoke(&clock, "main", vec![args.deep_clone()], &mut host)
        })?;
        rec.scope_phase("page_faults", cat::MEM, Phase::Exec, || {
            vm.sync_runtime_memory();
            vm.dirty_invocation();
        });
        attribute_run(&self.env, &result, &host);
        Ok((Invocation::from_run(root, result, host, start), vm))
    }

    /// Invokes without releasing the serving VM; pair with
    /// [`ConcurrentPlatform::finish_invoke`] at the invocation's virtual
    /// completion instant. While the token lives, the VM's guest memory
    /// stays charged against the host, so concurrent populations contend
    /// for RAM.
    fn begin_invoke_internal(
        &mut self,
        function: FunctionId,
        args: &Value,
        mode: StartMode,
        trace_ctx: Option<fireworks_obs::SpanContext>,
    ) -> Result<(Invocation, InFlightVm), PlatformError> {
        if mode == StartMode::Cold {
            self.evict(function);
        }
        let (invocation, vm) = self.invoke_on_vm(function, args, mode, trace_ctx)?;
        let inflight = InFlightVm { vm, function };
        Ok((invocation, inflight))
    }

    /// Invokes and keeps the VM resident (for Fig. 10's density sweep).
    pub fn invoke_resident(
        &mut self,
        function: FunctionId,
        args: &Value,
    ) -> Result<(Invocation, ResidentVm), PlatformError> {
        let (invocation, vm) = self.invoke_on_vm(function, args, StartMode::Cold, None)?;
        Ok((invocation, ResidentVm { vm }))
    }

    /// Releases a resident VM.
    pub fn release_resident(&mut self, vm: ResidentVm) {
        drop(vm);
    }
}

/// An in-flight Firecracker invocation: the VM serving it, checked out of
/// the pool until the completion event returns it warm.
#[derive(Debug)]
pub struct InFlightVm {
    vm: MicroVm,
    function: FunctionId,
}

impl InFlightVm {
    /// Ages the VM by `extra_ops` guest ops of continued service.
    pub fn age_ops(&mut self, extra_ops: u64) {
        self.vm.age_ops(extra_ops);
    }

    /// Resident set size of the VM's guest memory.
    pub fn rss_bytes(&self) -> u64 {
        self.vm.rss_bytes()
    }
}

impl InFlightToken for InFlightVm {
    fn pss_bytes(&self) -> u64 {
        self.vm.pss_bytes()
    }
}

impl ConcurrentPlatform for FirecrackerPlatform {
    type InFlight = InFlightVm;

    fn begin_invoke(
        &mut self,
        req: &InvokeRequest,
    ) -> Result<(Invocation, InFlightVm), PlatformError> {
        self.begin_invoke_internal(req.function, &req.args, req.mode, req.trace)
    }

    fn finish_invoke(&mut self, inflight: InFlightVm) {
        // Completion keeps the sandbox warm (paused in memory), like the
        // paper's warm configuration, stamped with its last-use time.
        let InFlightVm { mut vm, function } = inflight;
        self.mgr.pause(&mut vm);
        let stamped = (vm, self.env.clock.now());
        match self.warm.get_mut(function) {
            Some(pool) => pool.push(stamped),
            None => {
                self.warm.insert(function, vec![stamped]);
            }
        }
    }

    fn residency(&self, function: FunctionId) -> SnapshotResidency {
        // Ready-to-restore artifacts: an OS snapshot captured at install,
        // or a paused warm VM. Firecracker's artifacts are monolithic, so
        // residency is all-or-nothing — never `Partial`.
        let snapshot = self
            .registry
            .get(function)
            .map(|e| e.snapshot.is_some())
            .unwrap_or(false);
        if snapshot
            || self
                .warm
                .get(function)
                .map(|pool| !pool.is_empty())
                .unwrap_or(false)
        {
            SnapshotResidency::Full
        } else {
            SnapshotResidency::Absent
        }
    }
}

impl Platform for FirecrackerPlatform {
    fn name(&self) -> &'static str {
        match self.policy {
            SnapshotPolicy::None => "firecracker",
            SnapshotPolicy::OsSnapshot => "firecracker+snapshot",
        }
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::Vm
    }

    fn install(&mut self, spec: &FunctionSpec) -> Result<InstallReport, PlatformError> {
        let clock = self.env.clock.clone();
        let t0 = clock.now();
        let function = fid(&spec.name);
        let profile = RuntimeProfile::for_kind(spec.runtime);
        self.registry.insert(
            function,
            Entry {
                spec: spec.clone(),
                profile,
                snapshot: None,
            },
        );
        let (pages, bytes) = if self.policy == SnapshotPolicy::OsSnapshot {
            // Snapshot after boot + runtime + load, before execution: no
            // JIT code, no warm profile.
            let mut vm = self.cold_boot(function)?;
            let snap = Rc::new(self.mgr.snapshot(&mut vm));
            assert!(!snap.is_post_jit(), "OS snapshot must predate JIT");
            let info = (snap.pages(), snap.file_bytes());
            self.registry
                .get_mut(function)
                .expect("inserted above")
                .snapshot = Some(snap);
            info
        } else {
            (0, 0)
        };
        Ok(InstallReport {
            install_time: clock.now() - t0,
            snapshot_pages: pages,
            snapshot_bytes: bytes,
            annotated_functions: 0,
        })
    }

    fn invoke(&mut self, req: &InvokeRequest) -> Result<Invocation, PlatformError> {
        // A blocking invoke is the degenerate one-event schedule: service
        // and completion at the same instant.
        let (invocation, inflight) =
            self.begin_invoke_internal(req.function, &req.args, req.mode, req.trace)?;
        self.finish_invoke(inflight);
        Ok(invocation)
    }

    fn evict(&mut self, function: FunctionId) {
        self.warm.remove(function);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_runtime::RuntimeKind;
    use fireworks_sim::Nanos;

    const SRC: &str = "
        fn main(params) {
            let n = params[\"n\"];
            let t = 0;
            for (let i = 0; i < n; i = i + 1) { t = t + i; }
            return t;
        }";

    fn spec() -> FunctionSpec {
        FunctionSpec::new(
            "f",
            SRC,
            RuntimeKind::NodeLike,
            Value::map([("n".to_string(), Value::Int(1000))]),
        )
    }

    fn args(n: i64) -> Value {
        Value::map([("n".to_string(), Value::Int(n))])
    }

    fn req(n: i64, mode: StartMode) -> InvokeRequest {
        InvokeRequest::new(fid("f"), args(n)).with_mode(mode)
    }

    #[test]
    fn cold_start_boots_a_full_vm() {
        let mut p = FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::None);
        p.install(&spec()).expect("installs");
        let inv = p.invoke(&req(10, StartMode::Cold)).expect("invokes");
        assert_eq!(inv.start, StartKind::ColdBoot);
        assert_eq!(inv.value, Value::Int(45));
        // VM + OS + runtime + load: seconds of start-up.
        assert!(inv.breakdown.startup > Nanos::from_millis(1_500));
    }

    #[test]
    fn warm_start_resumes_paused_vm() {
        let mut p = FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::None);
        p.install(&spec()).expect("installs");
        let cold = p.invoke(&req(10, StartMode::Cold)).expect("cold");
        let warm = p.invoke(&req(10, StartMode::Warm)).expect("warm");
        assert_eq!(warm.start, StartKind::WarmPool);
        assert!(
            warm.breakdown.startup.as_nanos() * 20 < cold.breakdown.startup.as_nanos(),
            "warm {} vs cold {}",
            warm.breakdown.startup,
            cold.breakdown.startup
        );
    }

    #[test]
    fn keep_alive_expires_idle_warm_vms() {
        let env = PlatformEnv::default_env();
        let mut p = FirecrackerPlatform::with_config(
            env.clone(),
            SnapshotPolicy::None,
            PlatformConfig::builder()
                .keep_alive(Some(Nanos::from_secs(60)))
                .build(),
        );
        p.install(&spec()).expect("installs");
        p.invoke(&req(10, StartMode::Cold)).expect("cold");
        assert!(p.residency(fid("f")).is_full(), "warm VM held");
        env.clock.advance(Nanos::from_secs(61));
        let inv = p.invoke(&req(10, StartMode::Auto)).expect("again");
        assert_eq!(inv.start, StartKind::ColdBoot, "warm VM expired");
    }

    #[test]
    fn warm_without_pool_errors() {
        let mut p = FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::None);
        p.install(&spec()).expect("installs");
        assert!(matches!(
            p.invoke(&req(1, StartMode::Warm)),
            Err(PlatformError::NoWarmSandbox(_))
        ));
    }

    #[test]
    fn os_snapshot_policy_restores_instead_of_booting() {
        let mut p =
            FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::OsSnapshot);
        p.install(&spec()).expect("installs");
        assert!(
            p.residency(fid("f")).is_full(),
            "OS snapshot captured at install"
        );
        let inv = p.invoke(&req(10, StartMode::Cold)).expect("invokes");
        assert_eq!(inv.start, StartKind::SnapshotRestore);
        assert!(
            inv.breakdown.startup < Nanos::from_millis(100),
            "snapshot start {} should be fast",
            inv.breakdown.startup
        );
    }

    #[test]
    fn os_snapshot_still_pays_jit_at_execution() {
        // Unlike Fireworks, the OS snapshot contains no JIT code, so hot
        // code compiles during the invocation.
        let mut p =
            FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::OsSnapshot);
        p.install(&spec()).expect("installs");
        let inv = p.invoke(&req(300_000, StartMode::Cold)).expect("invokes");
        assert!(inv.stats.compiles > 0, "JIT happens during execution");
    }

    #[test]
    fn warm_execution_is_faster_than_cold_for_node() {
        let mut p = FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::None);
        p.install(&spec()).expect("installs");
        let cold = p.invoke(&req(200_000, StartMode::Cold)).expect("cold");
        let warm = p.invoke(&req(200_000, StartMode::Warm)).expect("warm");
        assert!(
            warm.breakdown.exec < cold.breakdown.exec,
            "warm exec {} vs cold exec {}",
            warm.breakdown.exec,
            cold.breakdown.exec
        );
    }

    #[test]
    fn chains_are_not_supported() {
        let mut p = FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::None);
        p.install(&spec()).expect("installs");
        assert!(!p.supports_chains());
        assert!(p
            .invoke_chain(&[fid("f")], &InvokeRequest::new(fid("f"), args(1)))
            .is_err());
    }

    #[test]
    fn resident_vms_have_private_memory() {
        let mut p = FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::None);
        p.install(&spec()).expect("installs");
        let (_, a) = p.invoke_resident(fid("f"), &args(10)).expect("a");
        let (_, b) = p.invoke_resident(fid("f"), &args(10)).expect("b");
        // Cold-booted VMs share nothing: PSS equals RSS.
        assert_eq!(a.pss_bytes(), a.rss_bytes());
        assert_eq!(b.pss_bytes(), b.rss_bytes());
        p.release_resident(a);
        p.release_resident(b);
    }
}
