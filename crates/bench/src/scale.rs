//! Planet-scale cluster simulation: a cost-model platform plus the
//! measurement harness behind the `scale_sweep` bench.
//!
//! The full [`fireworks_core::FireworksPlatform`] on the trivial guest
//! takes 5–6.5× the wall time and 2.4–2.8× the peak RSS of this model
//! on the same sweep (one run each, 2-core host: 1.6 s / 291 MiB against
//! 0.24 s / 106 MiB at 16 hosts × 100 000 invocations; 15.7 s / 2.4 GiB
//! against 3.2 s / 1.0 GiB at 64 × 1 000 000). Until the driver streams
//! and the recorder is bounded, that buries what `scale_sweep` measures:
//! the *simulator's* routing, queueing and event-loop throughput. So
//! [`SimPlatform`] keeps the whole `ConcurrentPlatform` contract (shared
//! virtual clock, residency-gated starts, in-flight tokens, install vs
//! register laziness) but replaces the service activity with a two-cost
//! model: a cold start pays [`SimPlatform::COLD_START`], a warm one
//! [`SimPlatform::WARM_START`], and execution time is the request's
//! `Value::Int(nanos)` argument: the Azure trace's log-normal durations.

use fireworks_core::api::{
    ConcurrentPlatform, FunctionSpec, InFlightToken, InstallReport, Invocation, InvokeRequest,
    Platform, PlatformError, SnapshotResidency, StartKind, StartMode,
};
use fireworks_core::cluster::{Cluster, ClusterConfig, LocalityAffinity};
use fireworks_core::engine::EngineRequest;
use fireworks_core::env::PlatformEnv;
use fireworks_core::{FunctionId, IdMap};
use fireworks_lang::Value;
use fireworks_obs::{Breakdown, LogHistogram};
use fireworks_runtime::RuntimeKind;
use fireworks_sandbox::IsolationLevel;
use fireworks_sim::Nanos;
use fireworks_workloads::azure::TraceSpec;

/// In-flight token for [`SimPlatform`]: a nominal clone footprint so
/// cluster memory accounting has something to add up.
#[derive(Debug)]
pub struct SimFlight {
    pss: u64,
}

impl InFlightToken for SimFlight {
    fn pss_bytes(&self) -> u64 {
        self.pss
    }
}

/// The cost-model platform (see the module docs).
pub struct SimPlatform {
    env: PlatformEnv,
    registered: IdMap<()>,
    resident: IdMap<()>,
    cold_starts: u64,
    warm_starts: u64,
}

impl SimPlatform {
    /// Virtual cost of a start with no resident snapshot (a from-source
    /// rebuild; the paper's cold-boot order of magnitude).
    pub const COLD_START: Nanos = Nanos::from_millis(180);
    /// Virtual cost of a start on a resident post-JIT snapshot.
    pub const WARM_START: Nanos = Nanos::from_millis(2);
    /// Fallback execution time when a request carries no duration hint.
    pub const DEFAULT_EXEC: Nanos = Nanos::from_millis(10);
    /// Nominal per-clone guest footprint reported by the token.
    pub const CLONE_PSS: u64 = 24 << 20;

    /// A fresh platform on `env`.
    pub fn new(env: PlatformEnv) -> Self {
        SimPlatform {
            env,
            registered: IdMap::new(),
            resident: IdMap::new(),
            cold_starts: 0,
            warm_starts: 0,
        }
    }

    /// Starts served from a resident snapshot so far.
    pub fn warm_starts(&self) -> u64 {
        self.warm_starts
    }

    /// Starts that paid the cold rebuild so far.
    pub fn cold_starts(&self) -> u64 {
        self.cold_starts
    }

    /// The execution time a request asks for: its `Value::Int` argument
    /// in nanoseconds, else [`SimPlatform::DEFAULT_EXEC`].
    fn exec_of(req: &InvokeRequest) -> Nanos {
        match req.args {
            Value::Int(ns) if ns > 0 => Nanos::from_nanos(ns as u64),
            _ => Self::DEFAULT_EXEC,
        }
    }
}

impl Platform for SimPlatform {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::Vm
    }

    fn install(&mut self, spec: &FunctionSpec) -> Result<InstallReport, PlatformError> {
        let function = fireworks_core::fid(&spec.name);
        self.registered.insert(function, ());
        self.resident.insert(function, ());
        Ok(InstallReport {
            install_time: Self::COLD_START,
            snapshot_pages: 0,
            snapshot_bytes: 0,
            annotated_functions: 0,
        })
    }

    fn invoke(&mut self, req: &InvokeRequest) -> Result<Invocation, PlatformError> {
        let (invocation, inflight) = self.begin_invoke(req)?;
        self.finish_invoke(inflight);
        Ok(invocation)
    }

    fn evict(&mut self, function: FunctionId) {
        self.resident.remove(function);
    }
}

impl ConcurrentPlatform for SimPlatform {
    type InFlight = SimFlight;

    fn begin_invoke(
        &mut self,
        req: &InvokeRequest,
    ) -> Result<(Invocation, Self::InFlight), PlatformError> {
        if !self.registered.contains(req.function) {
            return Err(PlatformError::UnknownFunction(
                req.function.name().to_string(),
            ));
        }
        let resident = self.resident.contains(req.function);
        let (start, startup) = match req.mode {
            StartMode::Warm if !resident => {
                return Err(PlatformError::NoWarmSandbox(
                    req.function.name().to_string(),
                ));
            }
            StartMode::Cold => (StartKind::ColdBoot, Self::COLD_START),
            _ if resident => (StartKind::SnapshotRestore, Self::WARM_START),
            _ => (StartKind::ColdBoot, Self::COLD_START),
        };
        match start {
            StartKind::ColdBoot => self.cold_starts += 1,
            _ => self.warm_starts += 1,
        }
        // A cold start leaves the snapshot behind: later requests for
        // this function on this host restore instead of rebuilding.
        self.resident.insert(req.function, ());
        let exec = Self::exec_of(req);
        self.env.clock.advance(startup + exec);
        let invocation = Invocation {
            value: Value::Int(exec.as_nanos() as i64),
            breakdown: Breakdown {
                startup,
                exec,
                other: Nanos::ZERO,
            },
            span: None,
            start,
            stats: Default::default(),
            printed: Vec::new(),
            response: None,
        };
        Ok((
            invocation,
            SimFlight {
                pss: Self::CLONE_PSS,
            },
        ))
    }

    fn finish_invoke(&mut self, _inflight: Self::InFlight) {}

    fn residency(&self, function: FunctionId) -> SnapshotResidency {
        if self.resident.contains(function) {
            SnapshotResidency::Full
        } else {
            SnapshotResidency::Absent
        }
    }

    fn hot_functions(&self) -> Vec<FunctionId> {
        self.resident.keys().collect()
    }

    fn prewarm(&mut self, function: FunctionId) -> bool {
        if self.registered.contains(function) {
            self.resident.insert(function, ());
            true
        } else {
            false
        }
    }

    fn retire(&mut self, function: FunctionId) -> bool {
        self.resident.remove(function).is_some()
    }

    fn register(&mut self, spec: &FunctionSpec) -> Result<(), PlatformError> {
        self.registered.insert(fireworks_core::fid(&spec.name), ());
        Ok(())
    }
}

/// One point of the scale sweep: the knobs.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ScalePoint {
    /// Cluster width.
    pub hosts: usize,
    /// Invoker slots per host.
    pub slots_per_host: usize,
    /// Expected invocation count over the trace horizon.
    pub invocations: u64,
    /// Tenants in the generated trace.
    pub tenants: u32,
    /// Functions per tenant.
    pub functions_per_tenant: u32,
    /// Trace seed.
    pub seed: u64,
}

impl ScalePoint {
    /// A point at `hosts` × `invocations` with the sweep's standard
    /// tenant population (2 000 tenants × 2 functions) and 8 slots per
    /// host.
    pub fn new(hosts: usize, invocations: u64, seed: u64) -> Self {
        ScalePoint {
            hosts,
            slots_per_host: 8,
            invocations,
            tenants: 2_000,
            functions_per_tenant: 2,
            seed,
        }
    }

    /// The trace spec this point drives.
    pub fn trace_spec(&self) -> TraceSpec {
        TraceSpec::new()
            .tenants(self.tenants)
            .functions_per_tenant(self.functions_per_tenant)
            .total_invocations(self.invocations)
            .seed(self.seed)
    }
}

/// What one scale point measured. Every field is a pure function of the
/// [`ScalePoint`] — wall-clock throughput is *not* in here (the bench
/// prints it to stderr) so stdout stays byte-identical across runs.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ScaleReport {
    /// The swept point.
    pub hosts: usize,
    /// Trace events driven through the cluster.
    pub requests: usize,
    /// Functions in the trace population.
    pub functions: u32,
    /// Requests that completed with a result.
    pub completed: usize,
    /// Requests that completed with an error.
    pub failed: usize,
    /// Median start latency.
    pub p50_start: Nanos,
    /// Tail start latency.
    pub p99_start: Nanos,
    /// Median sojourn (arrival → completion).
    pub p50_sojourn: Nanos,
    /// Tail sojourn.
    pub p99_sojourn: Nanos,
    /// Service starts on a host already holding the snapshot.
    pub locality_hits: u64,
    /// Requests moved off their preferred host.
    pub rebalances: u64,
    /// Cold rebuilds across all hosts.
    pub cold_starts: u64,
    /// Snapshot-restore starts across all hosts.
    pub warm_starts: u64,
    /// Simulator events (arrivals + completions) processed — the
    /// deterministic denominator of the events/sec metric.
    pub events_processed: u64,
    /// Virtual makespan of the run.
    pub makespan: Nanos,
    /// FNV fingerprint over every completion's (index, host, started,
    /// finished) — the CI two-run diff compares this.
    pub fingerprint: u64,
}

/// Runs one scale point: generates the Azure trace, drives it through a
/// [`SimPlatform`] cluster under locality-affinity routing, and folds
/// the completions into a [`ScaleReport`].
pub fn run_scale_point(point: &ScalePoint) -> ScaleReport {
    let spec = point.trace_spec();
    let trace = spec.generate();
    let mut cluster = Cluster::new(
        ClusterConfig::new(point.hosts, point.slots_per_host),
        |env, _| SimPlatform::new(env),
    );
    for f in 0..spec.functions() {
        let name = spec.function_id(f).name();
        cluster
            .install_home(&FunctionSpec::new(
                &*name,
                "",
                RuntimeKind::NodeLike,
                Value::Null,
            ))
            .expect("install_home");
    }
    let schedule: Vec<EngineRequest> = trace
        .events
        .iter()
        .map(|e| {
            EngineRequest::at(
                e.at,
                InvokeRequest::new(e.function, Value::Int(e.exec.as_nanos() as i64)),
            )
        })
        .collect();
    let mut router = LocalityAffinity::new();
    let report = cluster.run(&mut router, &schedule);

    let mut starts = LogHistogram::new();
    let mut sojourns = LogHistogram::new();
    let (mut completed, mut failed) = (0usize, 0usize);
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            fingerprint ^= b as u64;
            // Not the FNV prime (one zero too many); frozen by goldens.
            fingerprint = fingerprint.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for c in &report.completions {
        mix(c.index as u64);
        mix(c.host.map(|h| h.index() as u64 + 1).unwrap_or(0));
        mix(c.started.as_nanos());
        mix(c.finished.as_nanos());
        match (&c.result, c.start_latency()) {
            (Ok(_), Some(start)) => {
                completed += 1;
                starts.observe(start.as_nanos());
                sojourns.observe(c.sojourn().as_nanos());
            }
            _ => failed += 1,
        }
    }
    let (cold, warm) = (0..point.hosts).fold((0, 0), |(c, w), h| {
        let p = cluster.host(fireworks_core::HostId::from_index(h));
        (c + p.cold_starts(), w + p.warm_starts())
    });
    ScaleReport {
        hosts: point.hosts,
        requests: schedule.len(),
        functions: spec.functions(),
        completed,
        failed,
        p50_start: Nanos::from_nanos(starts.quantile(50.0)),
        p99_start: Nanos::from_nanos(starts.quantile(99.0)),
        p50_sojourn: Nanos::from_nanos(sojourns.quantile(50.0)),
        p99_sojourn: Nanos::from_nanos(sojourns.quantile(99.0)),
        locality_hits: report.locality_hits,
        rebalances: report.rebalances,
        cold_starts: cold,
        warm_starts: warm,
        events_processed: cluster.events_processed(),
        makespan: cluster.clock().now(),
        fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireworks_core::fid;

    fn install(p: &mut SimPlatform, name: &str) -> FunctionId {
        p.install(&FunctionSpec::new(
            name,
            "",
            RuntimeKind::NodeLike,
            Value::Null,
        ))
        .expect("install");
        fid(name)
    }

    #[test]
    fn sim_platform_charges_the_two_cost_model() {
        let env = PlatformEnv::default_env();
        let clock = env.clock.clone();
        let mut p = SimPlatform::new(env);
        let f = install(&mut p, "sp-f");
        let exec = Nanos::from_millis(7);
        let before = clock.now();
        let inv = p
            .invoke(&InvokeRequest::new(f, Value::Int(exec.as_nanos() as i64)))
            .expect("invoke");
        assert_eq!(inv.start, StartKind::SnapshotRestore);
        assert_eq!(inv.breakdown.startup, SimPlatform::WARM_START);
        assert_eq!(inv.breakdown.exec, exec);
        assert_eq!(clock.now() - before, SimPlatform::WARM_START + exec);
        // A registered-only function pays the cold rebuild once, then
        // restores.
        p.register(&FunctionSpec::new(
            "sp-g",
            "",
            RuntimeKind::NodeLike,
            Value::Null,
        ))
        .expect("register");
        let cold = p
            .invoke(&InvokeRequest::new(fid("sp-g"), Value::Null))
            .expect("cold");
        assert_eq!(cold.start, StartKind::ColdBoot);
        assert_eq!(cold.breakdown.startup, SimPlatform::COLD_START);
        assert!(p.residency(fid("sp-g")).is_full());
        assert_eq!(p.cold_starts(), 1);
        assert_eq!(p.warm_starts(), 1);
    }

    #[test]
    fn sim_platform_honours_modes_and_unknowns() {
        let mut p = SimPlatform::new(PlatformEnv::default_env());
        let f = install(&mut p, "sp-m");
        assert!(matches!(
            p.invoke(&InvokeRequest::new(fid("sp-ghost"), Value::Null)),
            Err(PlatformError::UnknownFunction(_))
        ));
        let forced = p
            .invoke(&InvokeRequest::new(f, Value::Null).with_mode(StartMode::Cold))
            .expect("forced cold");
        assert_eq!(forced.start, StartKind::ColdBoot);
        p.evict(f);
        assert!(matches!(
            p.invoke(&InvokeRequest::new(f, Value::Null).with_mode(StartMode::Warm)),
            Err(PlatformError::NoWarmSandbox(_))
        ));
    }

    #[test]
    fn scale_point_runs_are_deterministic() {
        let point = {
            let mut p = ScalePoint::new(4, 2_000, 9);
            p.tenants = 50;
            p
        };
        let a = run_scale_point(&point);
        let b = run_scale_point(&point);
        assert_eq!(a.fingerprint, b.fingerprint, "same point, same bytes");
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.failed, 0, "fault-free sweep");
        assert_eq!(a.completed, a.requests);
        // Every completion is an arrival plus a completion event, and
        // admission-queue deferrals can only add to that.
        assert!(a.events_processed >= 2 * a.requests as u64);
        assert!(a.warm_starts > a.cold_starts, "snapshots must dominate");
    }
}
