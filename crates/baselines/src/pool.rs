//! The warm-pool sandbox platform every baseline is a flavour of: what
//! [`PooledPlatform`] owns and what a [`Flavor`] supplies is laid out in
//! the crate docs.

use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use fireworks_core::api::{
    attribute_run, run_guest, ConcurrentPlatform, FunctionSpec, InFlightToken, InstallReport,
    Invocation, InvokeRequest, Platform, PlatformError, SnapshotResidency, StartKind, StartMode,
};
use fireworks_core::config::PlatformConfig;
use fireworks_core::env::PlatformEnv;
use fireworks_core::host::NetMode;
use fireworks_core::{fid, FunctionId, IdMap};
use fireworks_lang::{compile, ExecStats, Program};
use fireworks_obs::{cat, Counter, RootSpan};
use fireworks_runtime::Guest;
use fireworks_sandbox::{IoPath, IsolationLevel};
use fireworks_sim::Nanos;

/// The mechanism of one baseline: everything that differs between
/// OpenWhisk, gVisor and Firecracker, called by [`PooledPlatform`] at the
/// point of the invocation where the difference sits. Hooks record their
/// own spans and charge their own costs on `env`.
pub trait Flavor {
    /// The sandbox this flavour runs guests in: whatever isolates it, the
    /// skeleton reaches the [`Guest`] inside (runtime, PSS).
    type Sandbox: DerefMut<Target = Guest>;
    /// The install-time artifact fresh starts restore from.
    type Artifact;
    /// Isolation level (paper Table 1).
    const ISOLATION: IsolationLevel;
    /// Whether the platform runs chains of functions (paper §5.3).
    const CHAINS: bool;

    /// Platform name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Builds the function's start artifact at install from its
    /// `program` (compiled once by the skeleton), returning it with its
    /// size as `(artifact, pages, file_bytes)`; `None` when starts build
    /// their sandbox from the program.
    fn install(
        &mut self,
        spec: &FunctionSpec,
        program: &Rc<Program>,
    ) -> Result<Option<(Self::Artifact, usize, u64)>, PlatformError> {
        let _ = (spec, program);
        Ok(None)
    }

    /// Charged before the start path is chosen, knowing only whether a
    /// pooled sandbox is available.
    fn before_start(&mut self, env: &PlatformEnv, have_warm: bool) {
        let _ = (env, have_warm);
    }

    /// Brings a sandbox to the point where the guest can run: re-attaches
    /// `pooled` if the skeleton checked one out, otherwise makes a fresh
    /// one — restored from the install `artifact` when there is one,
    /// launched with the function's compiled `program` when not.
    fn start(
        &mut self,
        env: &PlatformEnv,
        spec: &FunctionSpec,
        program: &Rc<Program>,
        artifact: Option<&Self::Artifact>,
        pooled: Option<Self::Sandbox>,
    ) -> Result<Self::Sandbox, PlatformError>;

    /// The I/O path the guest's host calls are charged on.
    fn io(&self, env: &PlatformEnv, sandbox: &Self::Sandbox) -> IoPath;

    /// Settles the sandbox after a successful guest run: memory sync and
    /// the flavour's own post-run phase.
    fn after_guest(&mut self, env: &PlatformEnv, sandbox: &mut Self::Sandbox, stats: &ExecStats);

    /// Pauses a sandbox on its way into the pool.
    fn pause(&mut self, sandbox: &mut Self::Sandbox);
}

/// An in-flight invocation: the sandbox serving it, checked out of the
/// pool until the completion event returns it. While the token lives the
/// sandbox's guest memory stays charged against the host; dropping the
/// token instead of finishing it terminates the sandbox. Dereferences to
/// the sandbox, so memory experiments can measure and age it.
#[derive(Debug)]
pub struct InFlight<S> {
    sandbox: S,
    function: FunctionId,
}

impl<S> Deref for InFlight<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.sandbox
    }
}

impl<S> DerefMut for InFlight<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.sandbox
    }
}

impl<S: Deref<Target = Guest>> InFlightToken for InFlight<S> {
    fn pss_bytes(&self) -> u64 {
        self.sandbox.pss_bytes()
    }
}

/// A baseline platform: the shared warm-pool skeleton around one
/// [`Flavor`].
pub struct PooledPlatform<F: Flavor> {
    env: PlatformEnv,
    flavor: F,
    /// Installed functions: each with its program, compiled at install,
    /// and the start artifact (OS snapshot, checkpoint) if there is one.
    registry: IdMap<(FunctionSpec, Rc<Program>, Option<F::Artifact>)>,
    /// Paused sandboxes per function, each stamped with its last use.
    warm: IdMap<Vec<(F::Sandbox, Nanos)>>,
    keep_alive: Option<Nanos>,
    cold_starts: u64,
    warm_starts: u64,
    /// `baseline.invoke.attempts{function}`, resolved at each function's
    /// first invoke: registering a function on every host must create no series.
    attempts: IdMap<Counter>,
}

impl<F: Flavor> PooledPlatform<F> {
    /// Wraps `flavor` in the skeleton. The skeleton consumes the config's
    /// `keep_alive` field: pooled sandboxes idle past the window are
    /// terminated, releasing their guest memory (`None` keeps them
    /// forever).
    pub fn with_flavor(env: PlatformEnv, flavor: F, config: PlatformConfig) -> Self {
        PooledPlatform {
            env,
            flavor,
            registry: IdMap::new(),
            warm: IdMap::new(),
            keep_alive: config.keep_alive,
            cold_starts: 0,
            warm_starts: 0,
            attempts: IdMap::new(),
        }
    }

    /// The environment this platform runs on.
    pub fn env(&self) -> &PlatformEnv {
        &self.env
    }

    /// The mechanism this platform runs.
    pub fn flavor(&self) -> &F {
        &self.flavor
    }

    /// (fresh, pooled) start counters since creation.
    pub fn start_counts(&self) -> (u64, u64) {
        (self.cold_starts, self.warm_starts)
    }

    /// The sandboxes idling in the pool right now.
    pub fn idle(&mut self) -> impl Iterator<Item = &F::Sandbox> {
        self.purge_expired();
        self.warm.values().flatten().map(|(sandbox, _)| sandbox)
    }

    /// Drops pooled sandboxes idle past the keep-alive timeout.
    fn purge_expired(&mut self) {
        let Some(timeout) = self.keep_alive else {
            return;
        };
        let now = self.env.clock.now();
        for pool in self.warm.values_mut() {
            pool.retain(|(_, last_used)| now - *last_used <= timeout);
        }
    }

    /// Everything under the `invoke` root: start, guest run, settle.
    fn serve(
        &mut self,
        root: RootSpan<'_>,
        req: &InvokeRequest,
    ) -> Result<(Invocation, InFlight<F::Sandbox>), PlatformError> {
        let function = req.function;
        self.purge_expired();
        let (spec, program, artifact) = self
            .registry
            .get(function)
            .ok_or_else(|| PlatformError::UnknownFunction(function.name().to_string()))?;
        let env = &self.env;

        // Start-mode policy. `Cold` emptied the pool before the root
        // opened, so only `Auto` and `Warm` can find a sandbox here.
        let pooled = self.warm.get_mut(function).and_then(Vec::pop);
        let pooled = pooled.map(|(sandbox, _last_used)| sandbox);
        self.flavor.before_start(env, pooled.is_some());
        let start = match (&pooled, req.mode) {
            (Some(_), _) => StartKind::WarmPool,
            (None, StartMode::Warm) => {
                return Err(PlatformError::NoWarmSandbox(function.name().to_string()))
            }
            (None, _) if artifact.is_some() => StartKind::SnapshotRestore,
            (None, _) => StartKind::ColdBoot,
        };
        let mut sandbox = self
            .flavor
            .start(env, spec, program, artifact.as_ref(), pooled)?;
        match start {
            StartKind::WarmPool => self.warm_starts += 1,
            _ => self.cold_starts += 1,
        }

        let mut host = env.guest_host(
            self.flavor.io(env, &sandbox),
            NetMode::Direct,
            spec.default_params.deep_clone(),
        );
        let rt = sandbox
            .runtime_mut()
            .ok_or_else(|| PlatformError::Other("sandbox has no runtime".into()))?;
        rt.run_toplevel(&env.clock, &mut host)?;
        // The framework request path is interpreted and cold on the first
        // request of a fresh or restored sandbox. A guest error drops the
        // sandbox here instead of pooling it.
        let result = run_guest(env, function, spec.timeout, rt, |rt| {
            rt.invoke(&env.clock, "main", vec![req.args.deep_clone()], &mut host)
        })?;
        self.flavor.after_guest(env, &mut sandbox, &result.stats);
        attribute_run(env, &result, &host);
        let invocation = Invocation::from_run(root, result, host, start);
        Ok((invocation, InFlight { sandbox, function }))
    }
}

impl<F: Flavor> ConcurrentPlatform for PooledPlatform<F> {
    type InFlight = InFlight<F::Sandbox>;

    fn begin_invoke(
        &mut self,
        req: &InvokeRequest,
    ) -> Result<(Invocation, Self::InFlight), PlatformError> {
        if req.mode == StartMode::Cold {
            self.evict(req.function);
        }
        // Root span mirroring the one Fireworks records, so side-by-side
        // traces line up (`trace_dump`). Every phase below nests under it
        // and the guard closes it on every exit.
        let obs = self.env.obs.clone();
        let rec = obs.recorder();
        let root = rec.root("invoke", cat::INVOKE, req.trace);
        let fname = req.function.name();
        rec.attr_str(root.id(), "function", &fname);
        rec.attr_str(root.id(), "platform", self.flavor.name());
        match self.attempts.get(req.function) {
            Some(attempts) => attempts.inc(),
            None => {
                let labels = [("function", &*fname)];
                let attempts = obs.metrics().counter("baseline.invoke.attempts", &labels);
                attempts.inc();
                self.attempts.insert(req.function, attempts);
            }
        }
        let result = self.serve(root, req);
        if result.is_err() {
            obs.metrics()
                .inc("baseline.invoke.failures", &[("function", &fname)]);
        }
        result
    }

    fn finish_invoke(&mut self, inflight: Self::InFlight) {
        // Completion keeps the sandbox warm (paused in memory), stamped
        // with its last-use time: the invocation's virtual finish instant.
        let InFlight {
            mut sandbox,
            function,
        } = inflight;
        self.flavor.pause(&mut sandbox);
        let stamped = (sandbox, self.env.clock.now());
        match self.warm.get_mut(function) {
            Some(pool) => pool.push(stamped),
            None => {
                self.warm.insert(function, vec![stamped]);
            }
        }
    }

    fn residency(&self, function: FunctionId) -> SnapshotResidency {
        // Ready-to-start artifacts: one captured at install, or a paused
        // sandbox. Both are monolithic, so residency is all-or-nothing —
        // never `Partial`.
        let artifact = self
            .registry
            .get(function)
            .is_some_and(|(_, _, artifact)| artifact.is_some());
        let pooled = self.warm.get(function).is_some_and(|p| !p.is_empty());
        if artifact || pooled {
            SnapshotResidency::Full
        } else {
            SnapshotResidency::Absent
        }
    }
}

impl<F: Flavor> Platform for PooledPlatform<F> {
    fn name(&self) -> &'static str {
        self.flavor.name()
    }

    fn isolation(&self) -> IsolationLevel {
        F::ISOLATION
    }

    fn install(&mut self, spec: &FunctionSpec) -> Result<InstallReport, PlatformError> {
        let t0 = self.env.clock.now();
        // Uncompilable source is refused here, not at the first start.
        let program = Rc::new(compile(&spec.source)?);
        let (artifact, pages, bytes) = match self.flavor.install(spec, &program)? {
            Some((artifact, pages, bytes)) => (Some(artifact), pages, bytes),
            None => (None, 0, 0),
        };
        self.registry
            .insert(fid(&spec.name), (spec.clone(), program, artifact));
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
        let (invocation, inflight) = self.begin_invoke(req)?;
        self.finish_invoke(inflight);
        Ok(invocation)
    }

    fn evict(&mut self, function: FunctionId) {
        self.warm.remove(function);
    }

    fn supports_chains(&self) -> bool {
        F::CHAINS
    }
}

#[cfg(test)]
pub(crate) mod contract {
    //! The pool contract: what a platform does *because it is pooled*,
    //! stated once and instantiated by each flavour's tests (both
    //! Firecracker policies, gVisor with and without checkpoints,
    //! OpenWhisk).

    use super::*;
    use fireworks_lang::Value;
    use fireworks_runtime::RuntimeKind;

    /// How a flavour's tests build their platform.
    pub type Make<F> = fn(PlatformEnv, PlatformConfig) -> PooledPlatform<F>;

    /// The guest the baselines' unit tests run: `f(n)` sums `0..n`.
    pub fn spec() -> FunctionSpec {
        const SRC: &str = "
            fn main(params) {
                let n = params[\"n\"];
                let t = 0;
                for (let i = 0; i < n; i = i + 1) { t = t + i; }
                return t;
            }";
        FunctionSpec::new("f", SRC, RuntimeKind::NodeLike, args(100))
    }

    /// Arguments for [`spec`].
    pub fn args(n: i64) -> Value {
        Value::map([("n".to_string(), Value::Int(n))])
    }

    /// A request for [`spec`].
    pub fn req(n: i64, mode: StartMode) -> InvokeRequest {
        InvokeRequest::new(fid("f"), args(n)).with_mode(mode)
    }

    /// A started platform with [`spec`] installed.
    struct Rig<F: Flavor> {
        env: PlatformEnv,
        p: PooledPlatform<F>,
        /// What a start without a pooled sandbox reports.
        fresh: StartKind,
        /// Host memory in use with nothing pooled.
        idle_bytes: u64,
    }

    fn rig<F: Flavor>(make: Make<F>, keep_alive: Option<Nanos>) -> Rig<F> {
        let env = PlatformEnv::default_env();
        let config = PlatformConfig::builder().keep_alive(keep_alive).build();
        let mut p = make(env.clone(), config);
        let report = p.install(&spec()).expect("installs");
        let fresh = if report.snapshot_pages > 0 {
            StartKind::SnapshotRestore
        } else {
            StartKind::ColdBoot
        };
        // An install artifact is residency on its own; without one
        // nothing is held before the first run.
        assert_eq!(
            p.residency(fid("f")).is_full(),
            fresh == StartKind::SnapshotRestore
        );
        let idle_bytes = env.host_mem.used_bytes();
        Rig {
            env,
            p,
            fresh,
            idle_bytes,
        }
    }

    impl<F: Flavor> Rig<F> {
        fn invoke(&mut self, n: i64, mode: StartMode) -> Invocation {
            let inv = self.p.invoke(&req(n, mode)).expect("invokes");
            assert_eq!(inv.value, Value::Int(n * (n - 1) / 2));
            inv
        }

        fn pooled(&mut self) -> usize {
            self.p.idle().count()
        }

        /// (attempts, failures) counted for `f`.
        fn counters(&self) -> (u64, u64) {
            let m = self.env.obs.metrics().snapshot();
            let labels = [("function", "f")];
            (
                m.counter("baseline.invoke.attempts", &labels),
                m.counter("baseline.invoke.failures", &labels),
            )
        }
    }

    /// `Auto` starts fresh on an empty pool and from the pool afterwards,
    /// as does `Warm`; a pooled sandbox is residency. Returns the fresh
    /// and the pooled invocation: how much faster the pooled start is
    /// than the fresh one is the flavour's to assert (against a restore it
    /// need not be).
    pub fn auto_is_cold_then_warm<F: Flavor>(make: Make<F>) -> (Invocation, Invocation) {
        let mut r = rig(make, None);
        let cold = r.invoke(4, StartMode::Auto);
        assert_eq!(cold.start, r.fresh);
        assert!(r.p.residency(fid("f")).is_full(), "pooled sandbox held");
        assert_eq!(r.pooled(), 1);
        let warm = r.invoke(5, StartMode::Auto);
        assert_eq!(warm.start, StartKind::WarmPool);
        assert_eq!(r.invoke(5, StartMode::Warm).start, StartKind::WarmPool);
        assert_eq!(r.pooled(), 1, "one sandbox served all three");
        assert_eq!(r.p.start_counts(), (1, 2));
        assert_eq!(r.counters(), (3, 0));
        (cold, warm)
    }

    /// A warm invoke resolves no metric series by name: the per-invoke
    /// series are handles resolved at the function's first invoke.
    pub fn a_warm_invoke_looks_nothing_up_by_name<F: Flavor>(make: Make<F>) {
        let mut r = rig(make, None);
        r.invoke(4, StartMode::Auto);
        let metrics = r.env.obs.metrics().clone();
        let before = metrics.lookups();
        for n in 5..9 {
            assert_eq!(r.invoke(n, StartMode::Warm).start, StartKind::WarmPool);
        }
        assert_eq!(metrics.lookups(), before);
        assert_eq!(r.counters(), (5, 0));
    }

    /// `Warm` on an empty pool is refused with nothing left behind: no
    /// open span, no sandbox, no residency gained.
    pub fn warm_on_empty_pool_is_refused<F: Flavor>(make: Make<F>) {
        let mut r = rig(make, None);
        let held = r.p.residency(fid("f"));
        assert!(matches!(
            r.p.invoke(&req(1, StartMode::Warm)),
            Err(PlatformError::NoWarmSandbox(name)) if name == "f"
        ));
        assert_eq!(r.env.obs.recorder().current(), None, "root span closed");
        assert_eq!(r.pooled(), 0);
        assert_eq!(r.p.residency(fid("f")), held);
        assert_eq!(r.env.host_mem.used_bytes(), r.idle_bytes);
        assert_eq!(r.p.start_counts(), (0, 0));
        assert_eq!(r.counters(), (1, 1));
        assert_eq!(r.invoke(1, StartMode::Auto).start, r.fresh);
    }

    /// `Cold` and `evict` empty the pool before the start: the next start
    /// is fresh and the evicted sandbox's memory is gone.
    pub fn cold_evicts_pool_first<F: Flavor>(make: Make<F>) {
        let mut r = rig(make, None);
        r.invoke(1, StartMode::Auto);
        let one_pooled = r.env.host_mem.used_bytes();
        assert_eq!(r.invoke(1, StartMode::Cold).start, r.fresh);
        assert_eq!(r.pooled(), 1, "the evicted sandbox was not kept");
        assert_eq!(r.env.host_mem.used_bytes(), one_pooled);

        r.p.evict(fid("f"));
        assert_eq!(r.pooled(), 0);
        assert_eq!(r.env.host_mem.used_bytes(), r.idle_bytes);
        assert_eq!(
            r.p.residency(fid("f")).is_full(),
            r.fresh == StartKind::SnapshotRestore,
            "only an install artifact survives eviction"
        );
        assert_eq!(r.invoke(1, StartMode::Auto).start, r.fresh);
    }

    /// Keep-alive terminates sandboxes idle past the window and frees
    /// their memory; inside the window they serve.
    pub fn keep_alive_purges_and_frees<F: Flavor>(make: Make<F>) {
        let mut r = rig(make, Some(Nanos::from_secs(60)));
        r.invoke(1, StartMode::Cold);
        assert_eq!(r.pooled(), 1);
        assert!(r.env.host_mem.used_bytes() > r.idle_bytes);

        r.env.clock.advance(Nanos::from_secs(30));
        assert_eq!(r.invoke(1, StartMode::Auto).start, StartKind::WarmPool);

        r.env.clock.advance(Nanos::from_secs(61));
        assert_eq!(r.pooled(), 0, "idle sandbox expired");
        assert_eq!(r.env.host_mem.used_bytes(), r.idle_bytes);
        assert_eq!(r.invoke(1, StartMode::Auto).start, r.fresh);
        assert_eq!(r.p.start_counts(), (2, 1));
    }

    /// A guest error drops the checked-out sandbox instead of pooling it.
    pub fn guest_error_drops_the_sandbox<F: Flavor>(make: Make<F>) {
        let mut r = rig(make, None);
        r.invoke(1, StartMode::Auto);
        // Arguments that are not a map crash the guest at `params["n"]`.
        let crash = InvokeRequest::new(fid("f"), Value::Int(7));
        assert!(matches!(r.p.invoke(&crash), Err(PlatformError::Lang(_))));
        assert_eq!(r.env.obs.recorder().current(), None, "root span closed");
        assert_eq!(r.pooled(), 0, "the crashed sandbox is not reused");
        assert_eq!(r.env.host_mem.used_bytes(), r.idle_bytes);
        assert_eq!(r.counters(), (2, 1));
        assert_eq!(r.invoke(1, StartMode::Auto).start, r.fresh);
    }

    /// Two overlapping invocations of one function get a sandbox each,
    /// and both return to the pool.
    pub fn overlapping_invokes_get_two_sandboxes<F: Flavor>(make: Make<F>) {
        let mut r = rig(make, None);
        let (a, token_a) = r.p.begin_invoke(&req(1, StartMode::Auto)).expect("a");
        let (b, token_b) = r.p.begin_invoke(&req(2, StartMode::Auto)).expect("b");
        assert_eq!((a.start, b.start), (r.fresh, r.fresh));
        assert!(token_a.pss_bytes() > 0 && token_b.pss_bytes() > 0);
        assert_eq!(r.pooled(), 0, "both checked out");
        r.p.finish_invoke(token_a);
        r.p.finish_invoke(token_b);
        assert_eq!(r.pooled(), 2);

        let (c, token_c) = r.p.begin_invoke(&req(1, StartMode::Warm)).expect("c");
        let (d, token_d) = r.p.begin_invoke(&req(2, StartMode::Warm)).expect("d");
        assert_eq!(
            (c.start, d.start),
            (StartKind::WarmPool, StartKind::WarmPool)
        );
        // A token that is dropped instead of finished terminates its
        // sandbox.
        drop(token_c);
        r.p.finish_invoke(token_d);
        assert_eq!(r.pooled(), 1);
    }
}
