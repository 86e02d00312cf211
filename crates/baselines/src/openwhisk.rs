//! The OpenWhisk baseline: container platform with a controller front end.

use std::convert::Infallible;
use std::rc::Rc;

use fireworks_core::api::{FunctionSpec, PlatformError};
use fireworks_core::config::PlatformConfig;
use fireworks_core::env::PlatformEnv;
use fireworks_lang::{ExecStats, JitConfig, Program};
use fireworks_obs::{cat, Phase};
use fireworks_runtime::RuntimeProfile;
use fireworks_sandbox::{Container, ContainerKind, ContainerManager, IoPath, IsolationLevel};

use crate::pool::{Flavor, PooledPlatform};

/// The OpenWhisk mechanism: plain containers behind a controller and an
/// action proxy. Registration is metadata-only (the action is stored);
/// containers are created lazily on invocation, so there is no install
/// artifact.
pub struct OpenWhisk {
    containers: ContainerManager,
}

/// The OpenWhisk-style container platform.
pub type OpenWhiskPlatform = PooledPlatform<OpenWhisk>;

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
        PooledPlatform::with_flavor(env, OpenWhisk { containers }, config)
    }

    /// Total resident bytes held by idle warm containers right now.
    pub fn idle_warm_bytes(&mut self) -> u64 {
        self.idle().map(|c| c.rss_bytes()).sum()
    }
}

impl Flavor for OpenWhisk {
    type Sandbox = Container;
    type Artifact = Infallible;
    const ISOLATION: IsolationLevel = IsolationLevel::Container;
    const CHAINS: bool = true;

    fn name(&self) -> &'static str {
        "openwhisk"
    }

    fn before_start(&mut self, env: &PlatformEnv, have_warm: bool) {
        // Controller front end: authentication and dispatch to an invoker
        // (the paper's "authentication and message queue initialization"
        // cold-start overhead; the auth path is also on warm starts but
        // cheaper because the controller caches the subject).
        let rec = env.obs.recorder();
        rec.scope_phase("controller", cat::INVOKE, Phase::Startup, || {
            if !have_warm {
                env.clock.advance(env.costs.container.controller_auth);
            }
            env.clock.advance(env.costs.container.controller_dispatch);
        });
    }

    fn start(
        &mut self,
        env: &PlatformEnv,
        spec: &FunctionSpec,
        program: &Rc<Program>,
        _artifact: Option<&Infallible>,
        pooled: Option<Container>,
    ) -> Result<Container, PlatformError> {
        let rec = env.obs.recorder();
        let container = match pooled {
            Some(mut c) => {
                rec.scope_phase("warm_attach", cat::BOOT, Phase::Startup, || {
                    self.containers.warm_attach(&mut c);
                });
                c
            }
            None => rec.scope_phase("container_create", cat::BOOT, Phase::Startup, || {
                self.containers.create(
                    ContainerKind::Plain,
                    RuntimeProfile::for_kind(spec.runtime),
                    program.clone(),
                    JitConfig::default(),
                )
            }),
        };
        // The `/init` + `/run` action proxy round trip.
        rec.scope_phase("action_proxy", cat::INVOKE, Phase::Startup, || {
            env.clock.advance(env.costs.container.action_proxy);
        });
        Ok(container)
    }

    fn io(&self, _env: &PlatformEnv, container: &Container) -> IoPath {
        container.io().clone()
    }

    fn after_guest(&mut self, _env: &PlatformEnv, container: &mut Container, _stats: &ExecStats) {
        container.sync_runtime_memory();
    }

    fn pause(&mut self, container: &mut Container) {
        self.containers.pause(container);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::contract::{self, args, req, spec};
    use fireworks_core::api::{InvokeRequest, Platform, StartKind, StartMode};
    use fireworks_core::fid;
    use fireworks_lang::Value;
    use fireworks_runtime::RuntimeKind;
    use fireworks_sim::Nanos;

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
        let (cold, warm) = contract::auto_is_cold_then_warm(OpenWhiskPlatform::with_config);
        assert!(warm.breakdown.startup.as_nanos() * 5 < cold.breakdown.startup.as_nanos());
    }

    #[test]
    fn warm_without_pool_errors() {
        contract::warm_on_empty_pool_is_refused(OpenWhiskPlatform::with_config);
    }

    #[test]
    fn eviction_forces_cold_path() {
        contract::cold_evicts_pool_first(OpenWhiskPlatform::with_config);
    }

    #[test]
    fn keep_alive_expires_idle_containers() {
        contract::keep_alive_purges_and_frees(OpenWhiskPlatform::with_config);
    }

    #[test]
    fn guest_error_drops_the_container() {
        contract::guest_error_drops_the_sandbox(OpenWhiskPlatform::with_config);
    }

    #[test]
    fn overlapping_invokes_get_two_containers() {
        contract::overlapping_invokes_get_two_sandboxes(OpenWhiskPlatform::with_config);
    }

    #[test]
    fn unparsable_source_is_refused_at_install() {
        // Registration is metadata-only, but the action is compiled once
        // here: a bad source never reaches a container start.
        let env = PlatformEnv::default_env();
        let mut p = OpenWhiskPlatform::new(env.clone());
        let bad = FunctionSpec::new("bad", "fn main(p) {", RuntimeKind::NodeLike, args(1));
        let err = p.install(&bad).expect_err("does not parse");
        assert!(matches!(err, PlatformError::Lang(_)), "{err:?}");
        assert_eq!(env.clock.now(), Nanos::ZERO, "nothing was started");
        assert!(p.invoke(&InvokeRequest::new(fid("bad"), args(1))).is_err());
    }

    #[test]
    fn idle_warm_bytes_is_the_pool_resident_memory() {
        let env = PlatformEnv::default_env();
        let mut p = OpenWhiskPlatform::new(env.clone());
        p.install(&spec()).expect("installs");
        assert_eq!(p.idle_warm_bytes(), 0);
        p.invoke(&req(1, StartMode::Cold)).expect("cold");
        assert!(p.idle_warm_bytes() > 0, "warm container held in memory");
        assert_eq!(p.idle_warm_bytes(), env.host_mem.used_bytes());
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
}
