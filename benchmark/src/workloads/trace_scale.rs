//! `trace_scale`: 16 hosts x 8 slots serving an Azure-shaped trace
//! (40 tenants x 2 functions, Zipf popularity, diurnal envelopes,
//! correlated bursts) of a trivial guest through `Cluster::run` — the
//! real-platform stand-in for the cost-model `scale_sweep`.
//!
//! It adds what `warm_io` lacks: the `core::cluster` driver, the
//! `sim::EventQueue`, a `TraceId` and span tree per request in the
//! unbounded `obs` recorder, and trace generation. This is where
//! `peak_rss_mib` moves and where driver overhead over a direct invoke
//! is visible.

use std::time::Instant;

use fireworks::core::cluster::{Cluster, ClusterConfig, LocalityAffinity};
use fireworks::core::engine::EngineRequest;
use fireworks::core::{FireworksPlatform, HostId};
use fireworks::lang::Value;
use fireworks::prelude::{FunctionSpec, InvokeRequest};
use fireworks::runtime::RuntimeKind;
use fireworks::sim::rng::SplitMix64;
use fireworks::sim::Nanos;
use fireworks::workloads::azure::TraceSpec;

use super::{fold_report, int_args, ClusterTotals, Rep, Workload};
use crate::oracle::{self, Fingerprint};
use crate::spans::Tracer;

const HOSTS: usize = 16;
const SLOTS_PER_HOST: usize = 8;
const TENANTS: u32 = 40;
const FUNCTIONS_PER_TENANT: u32 = 2;
/// Expected invocations per repetition; the realised count is a Poisson
/// draw of the seed.
pub const INVOCATIONS: u64 = 3_000;
/// Virtual length of the trace.
const HORIZON_S: u64 = 600;

/// The trace the workload serves.
pub fn trace_spec(seed: u64) -> TraceSpec {
    TraceSpec::new()
        .tenants(TENANTS)
        .functions_per_tenant(FUNCTIONS_PER_TENANT)
        .horizon(Nanos::from_secs(HORIZON_S))
        .diurnal(0.6, Nanos::from_secs(HORIZON_S))
        .total_invocations(INVOCATIONS)
        .seed(seed)
}

fn spec_of(name: &str) -> FunctionSpec {
    FunctionSpec::new(
        name,
        oracle::TRIVIAL_SRC,
        RuntimeKind::NodeLike,
        int_args([("x", 0)]),
    )
}

pub struct TraceScale {
    cluster: Cluster<FireworksPlatform>,
    requests: Vec<EngineRequest>,
    expect: Vec<i64>,
    probe: FunctionSpec,
}

impl Workload for TraceScale {
    fn setup(seed: u64, t: &mut Tracer) -> Self {
        let spec = trace_spec(seed);
        let trace = t.span("workloads.azure.generate", |_| spec.generate());
        let mut cluster = Cluster::new(ClusterConfig::new(HOSTS, SLOTS_PER_HOST), |env, cfg| {
            FireworksPlatform::with_config(env, cfg.clone())
        });
        for f in 0..spec.functions() {
            let name = spec.function_id(f).name();
            t.span("core.install", |_| cluster.install_home(&spec_of(&name)))
                .expect("install on the home host");
        }
        let mut rng = SplitMix64::new(seed);
        let (requests, expect) = trace
            .events
            .iter()
            .map(|e| {
                let x = rng.next_below(1 << 40) as i64;
                (
                    EngineRequest::at(e.at, InvokeRequest::new(e.function, int_args([("x", x)]))),
                    oracle::trivial(x),
                )
            })
            .unzip();
        TraceScale {
            cluster,
            requests,
            expect,
            probe: spec_of(&spec.function_id(0).name()),
        }
    }

    fn run(&mut self, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let mut fp = Fingerprint::default();
        let before = ClusterTotals::of(&self.cluster);
        let mut router = LocalityAffinity::new();
        let t0 = Instant::now();
        let report = t.span("core.cluster.run", |_| {
            self.cluster.run(&mut router, &self.requests)
        });
        rep.wall_ns = t0.elapsed().as_nanos() as u64;
        rep.cluster_run_ns = rep.wall_ns;
        let did = before.since(&self.cluster);
        fold_report(&mut rep, &mut fp, &report, &self.expect);
        fp.mix(did.events);
        rep.counts.add_cluster(&did);
        rep.counts.pages_per_snapshot = (0..HOSTS)
            .find_map(|h| {
                self.cluster
                    .host(HostId::from_index(h))
                    .install_report(fireworks::core::fid(&self.probe.name))
                    .filter(|r| r.snapshot_pages > 0)
            })
            .map_or(0, |r| r.snapshot_pages as u64);
        rep.fingerprint = fp.value();
        rep
    }

    fn probe_function(&self) -> (FunctionSpec, Value) {
        (self.probe.clone(), int_args([("x", 41)]))
    }
}
