//! The gVisor baseline: secure-container sandbox manager.

use std::rc::Rc;

use fireworks_core::api::{FunctionSpec, PlatformError};
use fireworks_core::config::PlatformConfig;
use fireworks_core::env::PlatformEnv;
use fireworks_lang::{ExecStats, JitConfig, Program};
use fireworks_obs::{cat, Phase};
use fireworks_runtime::RuntimeProfile;
use fireworks_sandbox::container::ContainerCheckpoint;
use fireworks_sandbox::{Container, ContainerKind, ContainerManager, IoPath, IsolationLevel};

use crate::pool::{Flavor, PooledPlatform};

/// The gVisor mechanism (Sentry + Gofer), optionally with process
/// checkpoints for starts (Table 1's "Medium (snapshot)" performance
/// column).
pub struct Gvisor {
    containers: ContainerManager,
    use_checkpoints: bool,
}

/// The gVisor sandbox-manager baseline.
pub type GvisorPlatform = PooledPlatform<Gvisor>;

impl GvisorPlatform {
    /// Creates the platform without checkpoint-based starts (the paper's
    /// Fig. 6/7 configuration: cold and warm starts only).
    pub fn new(env: PlatformEnv) -> Self {
        GvisorPlatform::with_checkpoints(env, false)
    }

    /// Creates the platform; with `use_checkpoints`, installs capture a
    /// post-load checkpoint and non-warm starts restore it.
    pub fn with_checkpoints(env: PlatformEnv, use_checkpoints: bool) -> Self {
        GvisorPlatform::with_config(env, use_checkpoints, PlatformConfig::default())
    }

    /// Creates the platform from a [`PlatformConfig`] (API v2). gVisor
    /// consumes the `keep_alive` field: idle warm sandboxes past the
    /// window are terminated.
    pub fn with_config(env: PlatformEnv, use_checkpoints: bool, config: PlatformConfig) -> Self {
        let containers =
            ContainerManager::new(env.clock.clone(), env.costs.clone(), env.host_mem.clone());
        let flavor = Gvisor {
            containers,
            use_checkpoints,
        };
        PooledPlatform::with_flavor(env, flavor, config)
    }
}

impl Gvisor {
    /// Boots a Sentry sandbox with the function's program loaded.
    fn create(&mut self, spec: &FunctionSpec, program: &Rc<Program>) -> Container {
        self.containers.create(
            ContainerKind::Gvisor,
            RuntimeProfile::for_kind(spec.runtime),
            program.clone(),
            JitConfig::default(),
        )
    }
}

impl Flavor for Gvisor {
    type Sandbox = Container;
    type Artifact = ContainerCheckpoint;
    const ISOLATION: IsolationLevel = IsolationLevel::SecureContainer;
    const CHAINS: bool = false;

    fn name(&self) -> &'static str {
        "gvisor"
    }

    fn install(
        &mut self,
        spec: &FunctionSpec,
        program: &Rc<Program>,
    ) -> Result<Option<(ContainerCheckpoint, usize, u64)>, PlatformError> {
        if !self.use_checkpoints {
            return Ok(None);
        }
        // Catalyzer-style: boot once, load the function, checkpoint the
        // process before any execution.
        let mut c = self.create(spec, program);
        let checkpoint = self.containers.checkpoint(&mut c);
        let (pages, bytes) = (checkpoint.pages(), checkpoint.file_bytes());
        Ok(Some((checkpoint, pages, bytes)))
    }

    fn start(
        &mut self,
        env: &PlatformEnv,
        spec: &FunctionSpec,
        program: &Rc<Program>,
        checkpoint: Option<&ContainerCheckpoint>,
        pooled: Option<Container>,
    ) -> Result<Container, PlatformError> {
        let rec = env.obs.recorder();
        Ok(match (pooled, checkpoint) {
            (Some(mut c), _) => {
                rec.scope_phase("warm_attach", cat::BOOT, Phase::Startup, || {
                    self.containers.warm_attach(&mut c);
                });
                c
            }
            (None, Some(checkpoint)) => {
                rec.scope_phase("checkpoint_restore", cat::RESTORE, Phase::Startup, || {
                    self.containers.restore(checkpoint)
                })
            }
            (None, None) => rec.scope_phase("sandbox_create", cat::BOOT, Phase::Startup, || {
                self.create(spec, program)
            }),
        })
    }

    fn io(&self, _env: &PlatformEnv, container: &Container) -> IoPath {
        container.io().clone()
    }

    fn after_guest(&mut self, env: &PlatformEnv, container: &mut Container, stats: &ExecStats) {
        // Sentry intercepts the guest's syscalls; charge interception for
        // the call-outs the guest made.
        let intercepts = stats.host_calls + stats.builtin_calls;
        let rec = env.obs.recorder();
        rec.scope_phase("sentry_intercept", cat::EXEC, Phase::Exec, || {
            container.io().charge_syscalls(&env.clock, intercepts);
        });
        container.sync_runtime_memory();
    }

    fn pause(&mut self, container: &mut Container) {
        self.containers.pause(container);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::contract::{self, Make};
    use crate::{FirecrackerPlatform, OpenWhiskPlatform, SnapshotPolicy};
    use fireworks_core::api::{InvokeRequest, Platform, StartKind, StartMode};
    use fireworks_core::{fid, ConcurrentPlatform};
    use fireworks_lang::Value;
    use fireworks_runtime::RuntimeKind;

    const DISKIO_SRC: &str = "
        fn main(params) {
            let n = params[\"ops\"];
            let total = 0;
            for (let i = 0; i < n; i = i + 1) {
                total = total + io_read(\"data\", 10);
                io_write(\"data\", 10);
            }
            return total;
        }";

    fn spec() -> FunctionSpec {
        FunctionSpec::new(
            "diskio",
            DISKIO_SRC,
            RuntimeKind::NodeLike,
            Value::map([("ops".to_string(), Value::Int(10))]),
        )
    }

    fn args(ops: i64) -> Value {
        Value::map([("ops".to_string(), Value::Int(ops))])
    }

    fn req(ops: i64, mode: StartMode) -> InvokeRequest {
        InvokeRequest::new(fid("diskio"), args(ops)).with_mode(mode)
    }

    #[test]
    fn gvisor_cold_start_is_slowest_container_path() {
        let mut gv = GvisorPlatform::new(PlatformEnv::default_env());
        gv.install(&spec()).expect("installs");
        let gv_inv = gv.invoke(&req(1, StartMode::Cold)).expect("gv");

        let mut ow = OpenWhiskPlatform::new(PlatformEnv::default_env());
        ow.install(&spec()).expect("installs");
        let ow_inv = ow.invoke(&req(1, StartMode::Cold)).expect("ow");

        assert!(
            gv_inv.breakdown.startup > ow_inv.breakdown.startup,
            "gvisor {} vs openwhisk {}",
            gv_inv.breakdown.startup,
            ow_inv.breakdown.startup
        );
    }

    #[test]
    fn gvisor_io_is_slowest_of_all_sandboxes() {
        // §5.2.1(2): Sentry+Gofer I/O costs dominate; container overlayfs
        // is fastest, virtio in between.
        fn cold_io<P: Platform>(make: impl FnOnce(PlatformEnv) -> P) -> fireworks_sim::Nanos {
            let env = PlatformEnv::default_env();
            let mut p = make(env.clone());
            p.install(&spec()).expect("installs");
            let inv = p.invoke(&req(100, StartMode::Cold)).expect("invokes");
            inv.total_for(env.obs.recorder(), "guest_io")
        }
        let gv_io = cold_io(GvisorPlatform::new);
        let ow_io = cold_io(OpenWhiskPlatform::new);
        let fc_io = cold_io(|env| FirecrackerPlatform::new(env, SnapshotPolicy::None));

        assert!(ow_io < fc_io, "overlayfs {ow_io} < virtio {fc_io}");
        assert!(fc_io < gv_io, "virtio {fc_io} < gofer {gv_io}");
        assert!(gv_io.as_nanos() > 3 * ow_io.as_nanos());
    }

    fn plain(env: PlatformEnv, config: PlatformConfig) -> GvisorPlatform {
        GvisorPlatform::with_config(env, false, config)
    }

    fn checkpointed(env: PlatformEnv, config: PlatformConfig) -> GvisorPlatform {
        GvisorPlatform::with_config(env, true, config)
    }

    /// Runs one clause of the pool contract with and without checkpoints.
    fn both(clause: fn(Make<Gvisor>)) {
        clause(plain);
        clause(checkpointed);
    }

    #[test]
    fn warm_pool_works() {
        let (cold, warm) = contract::auto_is_cold_then_warm(plain);
        assert!(warm.breakdown.startup.as_nanos() * 5 < cold.breakdown.startup.as_nanos());
        contract::auto_is_cold_then_warm(checkpointed);
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
    fn keep_alive_expires_idle_sandboxes() {
        both(contract::keep_alive_purges_and_frees);
    }

    #[test]
    fn guest_error_drops_the_sandbox() {
        both(contract::guest_error_drops_the_sandbox);
    }

    #[test]
    fn overlapping_invokes_get_two_sandboxes() {
        both(contract::overlapping_invokes_get_two_sandboxes);
    }

    #[test]
    fn checkpoint_mode_restores_instead_of_booting() {
        let mut p = GvisorPlatform::with_checkpoints(PlatformEnv::default_env(), true);
        let report = p.install(&spec()).expect("installs");
        assert!(report.snapshot_pages > 0, "install captured a checkpoint");
        assert!(
            p.residency(fid("diskio")).is_full(),
            "checkpoint counts as held"
        );
        let inv = p.invoke(&req(1, StartMode::Cold)).expect("invokes");
        assert_eq!(inv.start, StartKind::SnapshotRestore);

        // Checkpoint start is far faster than a Sentry cold boot.
        let mut cold = GvisorPlatform::new(PlatformEnv::default_env());
        cold.install(&spec()).expect("installs");
        let cold_inv = cold.invoke(&req(1, StartMode::Cold)).expect("cold");
        assert!(
            inv.breakdown.startup.as_nanos() * 5 < cold_inv.breakdown.startup.as_nanos(),
            "checkpoint {} vs cold {}",
            inv.breakdown.startup,
            cold_inv.breakdown.startup
        );
    }

    #[test]
    fn chains_are_not_supported() {
        let mut p = GvisorPlatform::new(PlatformEnv::default_env());
        p.install(&spec()).expect("installs");
        assert!(!p.supports_chains());
        assert!(p
            .invoke_chain(
                &[fid("diskio")],
                &InvokeRequest::new(fid("diskio"), args(1))
            )
            .is_err());
    }
}
