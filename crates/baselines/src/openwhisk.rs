//! The OpenWhisk baseline: container platform with a controller front end.

use fireworks_core::api::{
    attribute_run, run_chain, run_guest, ConcurrentPlatform, FunctionSpec, InFlightToken,
    InstallReport, Invocation, InvokeRequest, Platform, PlatformError, SnapshotResidency,
    StartKind, StartMode,
};
use fireworks_core::config::PlatformConfig;
use fireworks_core::env::PlatformEnv;
use fireworks_core::host::{GuestHost, NetMode};
use fireworks_core::{fid, FunctionId, IdMap};
use fireworks_lang::{JitConfig, Value};
use fireworks_obs::cat;
use fireworks_runtime::RuntimeProfile;
use fireworks_sandbox::{Container, ContainerKind, ContainerManager, IsolationLevel};
use fireworks_sim::trace::Phase;

struct Entry {
    spec: FunctionSpec,
    profile: RuntimeProfile,
}

/// The OpenWhisk-style container platform.
pub struct OpenWhiskPlatform {
    env: PlatformEnv,
    containers: ContainerManager,
    registry: IdMap<Entry>,
    warm: IdMap<Vec<(Container, fireworks_sim::Nanos)>>,
    keep_alive: Option<fireworks_sim::Nanos>,
    cold_starts: u64,
    warm_starts: u64,
}

impl OpenWhiskPlatform {
    /// Creates the platform with the default [`PlatformConfig`].
    pub fn new(env: PlatformEnv) -> Self {
        OpenWhiskPlatform::with_config(env, PlatformConfig::default())
    }

    /// Creates the platform from a [`PlatformConfig`] (API v2). OpenWhisk
    /// consumes the `keep_alive` field: idle warm containers are
    /// terminated after that much virtual time (the provider practice
    /// described in §2.2; `None` keeps them forever).
    pub fn with_config(env: PlatformEnv, config: PlatformConfig) -> Self {
        let containers =
            ContainerManager::new(env.clock.clone(), env.costs.clone(), env.host_mem.clone());
        OpenWhiskPlatform {
            env,
            containers,
            registry: IdMap::new(),
            warm: IdMap::new(),
            keep_alive: config.keep_alive,
            cold_starts: 0,
            warm_starts: 0,
        }
    }

    /// The environment this platform runs on.
    pub fn env(&self) -> &PlatformEnv {
        &self.env
    }

    /// (cold, warm) start counters since creation.
    pub fn start_counts(&self) -> (u64, u64) {
        (self.cold_starts, self.warm_starts)
    }

    /// Total resident bytes held by idle warm containers right now.
    pub fn idle_warm_bytes(&mut self) -> u64 {
        self.purge_expired();
        self.warm
            .values()
            .flat_map(|v| v.iter())
            .map(|(c, _)| c.rss_bytes())
            .sum()
    }

    /// Drops warm containers idle past the keep-alive timeout.
    fn purge_expired(&mut self) {
        let Some(timeout) = self.keep_alive else {
            return;
        };
        let now = self.env.clock.now();
        for pool in self.warm.values_mut() {
            pool.retain(|(_, last_used)| now - *last_used <= timeout);
        }
    }

    fn guest_host(&self, c: &Container, default_params: &Value) -> GuestHost {
        GuestHost::new(
            self.env.clock.clone(),
            c.io().clone(),
            &self.env.costs.net,
            NetMode::Direct,
            self.env.costs.microvm.mmds_lookup,
            self.env.bus.clone(),
            self.env.store.clone(),
            default_params.deep_clone(),
        )
    }

    /// The service activity of one invocation; the container stays
    /// checked out until [`ConcurrentPlatform::finish_invoke`].
    fn begin_invoke_internal(
        &mut self,
        req: &InvokeRequest,
    ) -> Result<(Invocation, InFlightContainer), PlatformError> {
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

        // Controller front end: authentication and dispatch to an invoker
        // (the paper's "authentication and message queue initialization"
        // cold-start overhead; the auth path is also on warm starts but
        // cheaper because the controller caches the subject).
        let costs = self.env.costs.clone();
        let have_warm = self
            .warm
            .get(function)
            .map(|v| !v.is_empty())
            .unwrap_or(false);
        rec.scope_phase("controller", cat::INVOKE, Phase::Startup, || {
            if have_warm {
                clock.advance(costs.container.controller_dispatch);
            } else {
                clock.advance(costs.container.controller_auth);
                clock.advance(costs.container.controller_dispatch);
            }
        });

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
                self.warm_starts += 1;
                (c, StartKind::WarmPool)
            }
            StartMode::Warm => {
                return Err(PlatformError::NoWarmSandbox(function.name().to_string()))
            }
            _ => {
                let c = rec.scope_phase("container_create", cat::BOOT, Phase::Startup, || {
                    self.containers.create(
                        ContainerKind::Plain,
                        profile,
                        &source,
                        JitConfig::default(),
                    )
                })?;
                self.cold_starts += 1;
                (c, StartKind::ColdBoot)
            }
        };

        // The `/init` + `/run` action proxy round trip.
        rec.scope_phase("action_proxy", cat::INVOKE, Phase::Startup, || {
            clock.advance(self.env.costs.container.action_proxy);
        });

        let mut host = self.guest_host(&container, &default_params);
        let rt = container
            .runtime_mut()
            .ok_or_else(|| PlatformError::Other("container has no runtime".into()))?;
        rt.run_toplevel(&clock, &mut host)?;
        let result = run_guest(&self.env, function, timeout, rt, |rt| {
            rt.invoke(&clock, "main", vec![args.deep_clone()], &mut host)
        })?;
        container.sync_runtime_memory();
        attribute_run(&self.env, &result, &host);

        let invocation = Invocation::from_run(root, result, host, start);
        let inflight = InFlightContainer {
            container,
            function,
        };
        Ok((invocation, inflight))
    }
}

/// An in-flight OpenWhisk invocation: the container serving it, checked
/// out of the warm pool until the completion event returns it.
#[derive(Debug)]
pub struct InFlightContainer {
    container: Container,
    function: FunctionId,
}

impl InFlightToken for InFlightContainer {
    fn pss_bytes(&self) -> u64 {
        // Containers share nothing across sandboxes; PSS equals RSS.
        self.container.rss_bytes()
    }
}

impl ConcurrentPlatform for OpenWhiskPlatform {
    type InFlight = InFlightContainer;

    fn begin_invoke(
        &mut self,
        req: &InvokeRequest,
    ) -> Result<(Invocation, InFlightContainer), PlatformError> {
        self.begin_invoke_internal(req)
    }

    fn finish_invoke(&mut self, inflight: InFlightContainer) {
        // Keep the container warm, stamped with its last-use time (the
        // invocation's virtual completion instant).
        let InFlightContainer {
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
        // OpenWhisk has no snapshots; its ready-to-start artifact is a
        // non-empty warm pool. All-or-nothing, never `Partial`.
        if self
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

impl Platform for OpenWhiskPlatform {
    fn name(&self) -> &'static str {
        "openwhisk"
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::Container
    }

    fn install(&mut self, spec: &FunctionSpec) -> Result<InstallReport, PlatformError> {
        // OpenWhisk registration is metadata-only (the action is stored);
        // sandboxes are created lazily on invocation.
        let t0 = self.env.clock.now();
        let profile = RuntimeProfile::for_kind(spec.runtime);
        self.registry.insert(
            fid(&spec.name),
            Entry {
                spec: spec.clone(),
                profile,
            },
        );
        Ok(InstallReport {
            install_time: self.env.clock.now() - t0,
            snapshot_pages: 0,
            snapshot_bytes: 0,
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

    fn supports_chains(&self) -> bool {
        true
    }

    fn invoke_chain(
        &mut self,
        stages: &[FunctionId],
        req: &InvokeRequest,
    ) -> Result<Vec<Invocation>, PlatformError> {
        run_chain(self, stages, req)
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
            Value::map([("n".to_string(), Value::Int(100))]),
        )
    }

    fn args(n: i64) -> Value {
        Value::map([("n".to_string(), Value::Int(n))])
    }

    fn req(n: i64, mode: StartMode) -> InvokeRequest {
        InvokeRequest::new(fid("f"), args(n)).with_mode(mode)
    }

    #[test]
    fn cold_start_includes_controller_and_container() {
        let mut p = OpenWhiskPlatform::new(PlatformEnv::default_env());
        p.install(&spec()).expect("installs");
        let inv = p.invoke(&req(10, StartMode::Cold)).expect("invokes");
        assert_eq!(inv.start, StartKind::ColdBoot);
        assert_eq!(inv.value, Value::Int(45));
        let rec = p.env().obs.recorder();
        assert!(inv.total_for(rec, "controller") > Nanos::ZERO);
        assert!(inv.total_for(rec, "container_create") > Nanos::ZERO);
    }

    #[test]
    fn openwhisk_cold_is_faster_than_firecracker_cold() {
        // §5.2.1: the container platform's cold start beats the microVM's.
        let mut ow = OpenWhiskPlatform::new(PlatformEnv::default_env());
        ow.install(&spec()).expect("installs");
        let ow_cold = ow.invoke(&req(10, StartMode::Cold)).expect("ow");

        let mut fc = crate::FirecrackerPlatform::new(
            PlatformEnv::default_env(),
            crate::SnapshotPolicy::None,
        );
        fc.install(&spec()).expect("installs");
        let fc_cold = fc.invoke(&req(10, StartMode::Cold)).expect("fc");

        assert!(
            ow_cold.breakdown.startup < fc_cold.breakdown.startup,
            "openwhisk {} vs firecracker {}",
            ow_cold.breakdown.startup,
            fc_cold.breakdown.startup
        );
    }

    #[test]
    fn warm_start_reuses_container() {
        let mut p = OpenWhiskPlatform::new(PlatformEnv::default_env());
        p.install(&spec()).expect("installs");
        assert!(
            !p.residency(fid("f")).is_full(),
            "no warm artifact before first run"
        );
        let cold = p.invoke(&req(10, StartMode::Cold)).expect("cold");
        assert!(
            p.residency(fid("f")).is_full(),
            "warm pool counts as held artifact"
        );
        let warm = p.invoke(&req(10, StartMode::Warm)).expect("warm");
        assert_eq!(warm.start, StartKind::WarmPool);
        assert!(warm.breakdown.startup.as_nanos() * 5 < cold.breakdown.startup.as_nanos());
    }

    #[test]
    fn chains_pipe_results_between_functions() {
        let mut p = OpenWhiskPlatform::new(PlatformEnv::default_env());
        p.install(&spec()).expect("installs");
        p.install(&FunctionSpec::new(
            "wrap",
            "fn main(prev) { return { n: prev * 2 }; }",
            RuntimeKind::NodeLike,
            Value::Int(1),
        ))
        .expect("installs");
        assert!(p.supports_chains());
        let results = p
            .invoke_chain(
                &[fid("f"), fid("wrap")],
                &InvokeRequest::new(fid("f"), args(10)),
            )
            .expect("chain");
        // f(10) = 45, wrap → { n: 90 }.
        let Value::Map(m) = &results[1].value else {
            panic!("map")
        };
        assert_eq!(m.borrow()["n"], Value::Int(90));
    }

    #[test]
    fn keep_alive_expires_idle_containers() {
        use fireworks_sim::Nanos;
        let env = PlatformEnv::default_env();
        let mut p = OpenWhiskPlatform::with_config(
            env.clone(),
            PlatformConfig::builder()
                .keep_alive(Some(Nanos::from_secs(60)))
                .build(),
        );
        p.install(&spec()).expect("installs");

        p.invoke(&req(1, StartMode::Cold)).expect("cold");
        assert!(p.idle_warm_bytes() > 0, "warm container held in memory");

        // Within the window: warm hit.
        env.clock.advance(Nanos::from_secs(30));
        let inv = p.invoke(&req(1, StartMode::Auto)).expect("warm");
        assert_eq!(inv.start, StartKind::WarmPool);

        // Past the window: the container expired; cold again, and the
        // idle memory was released.
        env.clock.advance(Nanos::from_secs(61));
        assert_eq!(p.idle_warm_bytes(), 0);
        let inv = p.invoke(&req(1, StartMode::Auto)).expect("cold again");
        assert_eq!(inv.start, StartKind::ColdBoot);
        let (cold, warm) = p.start_counts();
        assert_eq!((cold, warm), (2, 1));
    }

    #[test]
    fn eviction_forces_cold_path() {
        let mut p = OpenWhiskPlatform::new(PlatformEnv::default_env());
        p.install(&spec()).expect("installs");
        p.invoke(&req(1, StartMode::Cold)).expect("cold");
        p.evict(fid("f"));
        let inv = p.invoke(&req(1, StartMode::Auto)).expect("again");
        assert_eq!(inv.start, StartKind::ColdBoot);
    }
}
