//! The gVisor baseline: secure-container sandbox manager.

use fireworks_core::api::{
    attribute_run, run_guest, ConcurrentPlatform, FunctionSpec, InFlightToken, InstallReport,
    Invocation, InvokeRequest, Platform, PlatformError, SnapshotResidency, StartKind, StartMode,
};
use fireworks_core::config::PlatformConfig;
use fireworks_core::env::PlatformEnv;
use fireworks_core::host::{GuestHost, NetMode};
use fireworks_core::{fid, FunctionId, IdMap};
use fireworks_lang::JitConfig;
use fireworks_obs::cat;
use fireworks_runtime::RuntimeProfile;
use fireworks_sandbox::container::ContainerCheckpoint;
use fireworks_sandbox::{Container, ContainerKind, ContainerManager, IsolationLevel};
use fireworks_sim::trace::Phase;

struct Entry {
    spec: FunctionSpec,
    profile: RuntimeProfile,
    checkpoint: Option<ContainerCheckpoint>,
}

/// The gVisor sandbox-manager baseline (Sentry + Gofer), optionally with
/// process checkpoints for starts (Table 1's "Medium (snapshot)"
/// performance column).
pub struct GvisorPlatform {
    env: PlatformEnv,
    containers: ContainerManager,
    registry: IdMap<Entry>,
    warm: IdMap<Vec<(Container, fireworks_sim::Nanos)>>,
    use_checkpoints: bool,
    keep_alive: Option<fireworks_sim::Nanos>,
}

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
        GvisorPlatform {
            env,
            containers,
            registry: IdMap::new(),
            warm: IdMap::new(),
            use_checkpoints,
            keep_alive: config.keep_alive,
        }
    }

    /// The environment this platform runs on.
    pub fn env(&self) -> &PlatformEnv {
        &self.env
    }

    /// Drops warm sandboxes idle past the keep-alive timeout.
    fn purge_expired(&mut self) {
        let Some(timeout) = self.keep_alive else {
            return;
        };
        let now = self.env.clock.now();
        for pool in self.warm.values_mut() {
            pool.retain(|(_, last_used)| now - *last_used <= timeout);
        }
    }

    /// The service activity of one invocation; the sandbox stays checked
    /// out until [`ConcurrentPlatform::finish_invoke`].
    fn begin_invoke_internal(
        &mut self,
        req: &InvokeRequest,
    ) -> Result<(Invocation, InFlightSandbox), PlatformError> {
        let (function, args, mode) = (req.function, &req.args, req.mode);
        if mode == StartMode::Cold {
            self.evict(function);
        }
        self.purge_expired();
        let (source, profile, default_params, timeout) = {
            let e = self
                .registry
                .get(function)
                .ok_or_else(|| PlatformError::UnknownFunction(function.name().to_string()))?;
            (
                e.spec.source.clone(),
                e.profile.clone(),
                e.spec.default_params.deep_clone(),
                e.spec.timeout,
            )
        };
        let clock = self.env.clock.clone();
        // Root span of the invocation; the guard closes it on every exit.
        let rec = self.env.obs.recorder();
        let root = rec.root("invoke", cat::INVOKE, req.trace);
        rec.attr(root.id(), "function", &*function.name());
        rec.attr(root.id(), "platform", self.name());
        let have_warm = self
            .warm
            .get(function)
            .map(|v| !v.is_empty())
            .unwrap_or(false);

        let (mut container, start) = match mode {
            StartMode::Warm | StartMode::Auto if have_warm => {
                let (mut c, _) = self
                    .warm
                    .get_mut(function)
                    .and_then(Vec::pop)
                    .expect("non-empty checked");
                rec.scope_phase("warm_attach", cat::BOOT, Phase::Startup, || {
                    self.containers.warm_attach(&mut c);
                });
                (c, StartKind::WarmPool)
            }
            StartMode::Warm => {
                return Err(PlatformError::NoWarmSandbox(function.name().to_string()))
            }
            _ => {
                let checkpoint = self
                    .registry
                    .get(function)
                    .and_then(|e| e.checkpoint.as_ref());
                match checkpoint {
                    Some(ckpt) => {
                        let c = rec.scope_phase(
                            "checkpoint_restore",
                            cat::RESTORE,
                            Phase::Startup,
                            || self.containers.restore(ckpt),
                        );
                        (c, StartKind::SnapshotRestore)
                    }
                    None => {
                        let c =
                            rec.scope_phase("sandbox_create", cat::BOOT, Phase::Startup, || {
                                self.containers.create(
                                    ContainerKind::Gvisor,
                                    profile,
                                    &source,
                                    JitConfig::default(),
                                )
                            })?;
                        (c, StartKind::ColdBoot)
                    }
                }
            }
        };

        let mut host = GuestHost::new(
            clock.clone(),
            container.io().clone(),
            &self.env.costs.net,
            NetMode::Direct,
            self.env.costs.microvm.mmds_lookup,
            self.env.bus.clone(),
            self.env.store.clone(),
            default_params,
        );
        let rt = container
            .runtime_mut()
            .ok_or_else(|| PlatformError::Other("sandbox has no runtime".into()))?;
        rt.run_toplevel(&clock, &mut host)?;
        let result = run_guest(&self.env, function, timeout, rt, |rt| {
            rt.invoke(&clock, "main", vec![args.deep_clone()], &mut host)
        })?;
        // Sentry intercepts the guest's syscalls; charge interception for
        // the call-outs the guest made.
        let intercepts = result.stats.host_calls + result.stats.builtin_calls;
        rec.scope_phase("sentry_intercept", cat::EXEC, Phase::Exec, || {
            container.io().charge_syscalls(&clock, intercepts);
        });
        container.sync_runtime_memory();
        attribute_run(&self.env, &result, &host);

        let invocation = Invocation::from_run(root, result, host, start);
        let inflight = InFlightSandbox {
            container,
            function,
        };
        Ok((invocation, inflight))
    }
}

/// An in-flight gVisor invocation: the sandbox serving it, checked out
/// of the warm pool until the completion event returns it.
#[derive(Debug)]
pub struct InFlightSandbox {
    container: Container,
    function: FunctionId,
}

impl InFlightToken for InFlightSandbox {
    fn pss_bytes(&self) -> u64 {
        // Sandboxes share nothing; PSS equals RSS.
        self.container.rss_bytes()
    }
}

impl ConcurrentPlatform for GvisorPlatform {
    type InFlight = InFlightSandbox;

    fn begin_invoke(
        &mut self,
        req: &InvokeRequest,
    ) -> Result<(Invocation, InFlightSandbox), PlatformError> {
        self.begin_invoke_internal(req)
    }

    fn finish_invoke(&mut self, inflight: InFlightSandbox) {
        let InFlightSandbox {
            mut container,
            function,
        } = inflight;
        self.containers.pause(&mut container);
        let stamped = (container, self.env.clock.now());
        match self.warm.get_mut(function) {
            Some(pool) => pool.push(stamped),
            None => {
                self.warm.insert(function, vec![stamped]);
            }
        }
    }

    fn residency(&self, function: FunctionId) -> SnapshotResidency {
        // Ready-to-restore artifacts: a process checkpoint captured at
        // install, or a paused warm sandbox. All-or-nothing, never
        // `Partial`.
        let checkpoint = self
            .registry
            .get(function)
            .map(|e| e.checkpoint.is_some())
            .unwrap_or(false);
        if checkpoint
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

impl Platform for GvisorPlatform {
    fn name(&self) -> &'static str {
        "gvisor"
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::SecureContainer
    }

    fn install(&mut self, spec: &FunctionSpec) -> Result<InstallReport, PlatformError> {
        let t0 = self.env.clock.now();
        let profile = RuntimeProfile::for_kind(spec.runtime);
        let checkpoint = if self.use_checkpoints {
            // Catalyzer-style: boot once, load the function, checkpoint
            // the process before any execution.
            let mut c = self.containers.create(
                ContainerKind::Gvisor,
                profile.clone(),
                &spec.source,
                JitConfig::default(),
            )?;
            Some(self.containers.checkpoint(&mut c))
        } else {
            None
        };
        let (pages, bytes) = checkpoint
            .as_ref()
            .map(|c| (c.pages(), c.file_bytes()))
            .unwrap_or((0, 0));
        self.registry.insert(
            fid(&spec.name),
            Entry {
                spec: spec.clone(),
                profile,
                checkpoint,
            },
        );
        Ok(InstallReport {
            install_time: self.env.clock.now() - t0,
            snapshot_pages: pages,
            snapshot_bytes: bytes,
            annotated_functions: 0,
        })
    }

    fn invoke(&mut self, req: &InvokeRequest) -> Result<Invocation, PlatformError> {
        // A blocking invoke is the degenerate one-event schedule: service
        // and completion at the same instant.
        let (invocation, inflight) = self.begin_invoke_internal(req)?;
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
    use crate::{FirecrackerPlatform, OpenWhiskPlatform, SnapshotPolicy};
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

    #[test]
    fn warm_pool_works() {
        let mut p = GvisorPlatform::new(PlatformEnv::default_env());
        p.install(&spec()).expect("installs");
        assert!(!p.residency(fid("diskio")).is_full());
        p.invoke(&req(1, StartMode::Cold)).expect("cold");
        assert!(p.residency(fid("diskio")).is_full(), "warm sandbox held");
        let warm = p.invoke(&req(1, StartMode::Warm)).expect("warm");
        assert_eq!(warm.start, StartKind::WarmPool);
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
        assert_eq!(inv.start, fireworks_core::api::StartKind::SnapshotRestore);

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
