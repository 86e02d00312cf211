//! The Firecracker baseline: microVM sandbox manager.

use std::rc::Rc;

use fireworks_core::api::{FunctionSpec, Invocation, InvokeRequest, PlatformError, StartMode};
use fireworks_core::config::PlatformConfig;
use fireworks_core::env::PlatformEnv;
use fireworks_core::{ConcurrentPlatform, FunctionId};
use fireworks_lang::{ExecStats, JitConfig, Program, Value};
use fireworks_microvm::{MicroVm, MicroVmConfig, VmFullSnapshot, VmManager};
use fireworks_obs::{cat, Phase};
use fireworks_runtime::RuntimeProfile;
use fireworks_sandbox::{IoPath, IoPathKind, IsolationLevel};

use crate::pool::{Flavor, InFlight, PooledPlatform};

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

/// The Firecracker mechanism: microVMs from a [`VmManager`], booted from
/// scratch or restored from an install-time OS snapshot.
pub struct Firecracker {
    mgr: VmManager,
    policy: SnapshotPolicy,
}

/// The Firecracker sandbox-manager baseline.
pub type FirecrackerPlatform = PooledPlatform<Firecracker>;

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
        PooledPlatform::with_flavor(env, Firecracker { mgr, policy }, config)
    }

    /// The active snapshot policy.
    pub fn policy(&self) -> SnapshotPolicy {
        self.flavor().policy
    }

    /// Invokes on a fresh VM and keeps it resident (for Fig. 10's density
    /// sweep): the token is never finished, so the VM's guest memory
    /// stays charged against the host until the token is dropped.
    pub fn invoke_resident(
        &mut self,
        function: FunctionId,
        args: &Value,
    ) -> Result<(Invocation, InFlight<MicroVm>), PlatformError> {
        self.begin_invoke(&InvokeRequest::new(function, args.clone()).with_mode(StartMode::Cold))
    }
}

impl Firecracker {
    /// Builds a fresh VM with the function's program loaded (cold boot).
    fn cold_boot(
        &mut self,
        spec: &FunctionSpec,
        program: &Rc<Program>,
    ) -> Result<MicroVm, PlatformError> {
        let mut vm = self.mgr.create(MicroVmConfig::default());
        self.mgr.boot(&mut vm)?;
        let profile = RuntimeProfile::for_kind(spec.runtime);
        self.mgr
            .launch(&mut vm, profile, program.clone(), JitConfig::default());
        Ok(vm)
    }
}

impl Flavor for Firecracker {
    type Sandbox = MicroVm;
    type Artifact = Rc<VmFullSnapshot>;
    const ISOLATION: IsolationLevel = IsolationLevel::Vm;
    const CHAINS: bool = false;

    fn name(&self) -> &'static str {
        match self.policy {
            SnapshotPolicy::None => "firecracker",
            SnapshotPolicy::OsSnapshot => "firecracker+snapshot",
        }
    }

    fn install(
        &mut self,
        spec: &FunctionSpec,
        program: &Rc<Program>,
    ) -> Result<Option<(Rc<VmFullSnapshot>, usize, u64)>, PlatformError> {
        if self.policy == SnapshotPolicy::None {
            return Ok(None);
        }
        // Snapshot after boot + runtime + load, before execution: no JIT
        // code, no warm profile.
        let mut vm = self.cold_boot(spec, program)?;
        let snap = Rc::new(self.mgr.snapshot(&mut vm));
        assert!(!snap.is_post_jit(), "OS snapshot must predate JIT");
        let (pages, bytes) = (snap.pages(), snap.file_bytes());
        Ok(Some((snap, pages, bytes)))
    }

    fn start(
        &mut self,
        env: &PlatformEnv,
        spec: &FunctionSpec,
        program: &Rc<Program>,
        snapshot: Option<&Rc<VmFullSnapshot>>,
        pooled: Option<MicroVm>,
    ) -> Result<MicroVm, PlatformError> {
        // The start-up wrappers carry the phase; the manager's own
        // `vm_boot` / `snapshot_restore` / `vm_resume` spans nest inside.
        let rec = env.obs.recorder();
        match (pooled, snapshot) {
            (Some(mut vm), _) => {
                rec.scope_phase("warm_start", cat::BOOT, Phase::Startup, || {
                    self.mgr.resume(&mut vm);
                });
                Ok(vm)
            }
            (None, Some(snap)) => {
                rec.scope_phase("snapshot_start", cat::RESTORE, Phase::Startup, || {
                    // Clones restored from one snapshot need the same
                    // network-for-clones setup as Fireworks (namespace +
                    // tap + NAT); charged here as a cost (routing state is
                    // not exercised by the baseline).
                    env.clock.advance(env.costs.net.netns_create);
                    env.clock.advance(env.costs.net.tap_create);
                    env.clock.advance(env.costs.net.nat_rule_install);
                    Ok(self.mgr.restore(snap)?)
                })
            }
            (None, None) => rec.scope_phase("cold_start", cat::BOOT, Phase::Startup, || {
                self.cold_boot(spec, program)
            }),
        }
    }

    fn io(&self, env: &PlatformEnv, _vm: &MicroVm) -> IoPath {
        IoPath::new(IoPathKind::VirtioBlk, env.costs.clone())
    }

    fn after_guest(&mut self, env: &PlatformEnv, vm: &mut MicroVm, _stats: &ExecStats) {
        let rec = env.obs.recorder();
        rec.scope_phase("page_faults", cat::MEM, Phase::Exec, || {
            vm.sync_runtime_memory();
            vm.dirty_invocation();
        });
    }

    fn pause(&mut self, vm: &mut MicroVm) {
        self.mgr.pause(vm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::contract::{self, args, req, spec, Make};
    use fireworks_core::api::{Platform, StartKind};
    use fireworks_core::fid;
    use fireworks_sim::Nanos;

    fn plain(env: PlatformEnv, config: PlatformConfig) -> FirecrackerPlatform {
        FirecrackerPlatform::with_config(env, SnapshotPolicy::None, config)
    }

    fn os_snapshot(env: PlatformEnv, config: PlatformConfig) -> FirecrackerPlatform {
        FirecrackerPlatform::with_config(env, SnapshotPolicy::OsSnapshot, config)
    }

    /// Runs one clause of the pool contract under both snapshot policies.
    fn both(clause: fn(Make<Firecracker>)) {
        clause(plain);
        clause(os_snapshot);
    }

    #[test]
    fn warm_start_resumes_paused_vm() {
        let (cold, warm) = contract::auto_is_cold_then_warm(plain);
        assert!(
            warm.breakdown.startup.as_nanos() * 20 < cold.breakdown.startup.as_nanos(),
            "warm {} vs cold {}",
            warm.breakdown.startup,
            cold.breakdown.startup
        );
        contract::auto_is_cold_then_warm(os_snapshot);
    }

    #[test]
    fn warm_without_pool_errors() {
        both(contract::warm_on_empty_pool_is_refused);
    }

    #[test]
    fn cold_evicts_pool_first() {
        both(contract::cold_evicts_pool_first);
    }

    #[test]
    fn keep_alive_expires_idle_warm_vms() {
        both(contract::keep_alive_purges_and_frees);
    }

    #[test]
    fn guest_error_drops_the_vm() {
        both(contract::guest_error_drops_the_sandbox);
    }

    #[test]
    fn overlapping_invokes_get_two_vms() {
        both(contract::overlapping_invokes_get_two_sandboxes);
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
    fn cold_starts_share_the_program_compiled_at_install() {
        let mut p = FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::None);
        p.install(&spec()).expect("installs");
        let (_, a) = p.invoke_resident(fid("f"), &args(10)).expect("a");
        let (_, b) = p.invoke_resident(fid("f"), &args(10)).expect("b");
        let program = |vm: &MicroVm| vm.runtime().expect("launched").program().clone();
        assert!(Rc::ptr_eq(&program(&a), &program(&b)));
    }

    #[test]
    fn resident_vms_have_private_memory() {
        let env = PlatformEnv::default_env();
        let mut p = FirecrackerPlatform::new(env.clone(), SnapshotPolicy::None);
        p.install(&spec()).expect("installs");
        let (_, a) = p.invoke_resident(fid("f"), &args(10)).expect("a");
        let (_, b) = p.invoke_resident(fid("f"), &args(10)).expect("b");
        // Cold-booted VMs share nothing: PSS equals RSS.
        assert_eq!(a.pss_bytes(), a.rss_bytes());
        assert_eq!(b.pss_bytes(), b.rss_bytes());
        // Dropping the tokens releases the VMs.
        drop((a, b));
        assert_eq!(env.host_mem.used_bytes(), 0);
    }

    #[test]
    fn invoke_resident_is_a_cold_begin() {
        // A resident invoke is `begin_invoke` with `StartMode::Cold`: it
        // evicts the pool first and ticks the same counters.
        let mut p = FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::None);
        p.install(&spec()).expect("installs");
        p.invoke(&req(10, StartMode::Auto)).expect("pools a VM");
        assert_eq!(p.idle().count(), 1);
        let (inv, vm) = p.invoke_resident(fid("f"), &args(10)).expect("resident");
        assert_eq!(inv.start, StartKind::ColdBoot);
        assert_eq!(p.idle().count(), 0, "the pooled VM was evicted");
        assert_eq!(p.start_counts(), (2, 0));
        drop(vm);
    }
}
