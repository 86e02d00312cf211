//! `cluster_churn`: three `Cluster::run` batches per repetition that use
//! the snapshot layers the other way round from `warm_io` — the write
//! side beside the read side.
//!
//! Phase `flat` (4 hosts x 4 slots, a snapshot cache that holds two of
//! the eight functions per host) runs one Poisson schedule under
//! `RoundRobin`, which thrashes every host's LRU and forces
//! rebuild-from-source (`annotator` -> `lang::compile` -> `microvm` boot
//! -> `runtime` launch + JIT warm-up -> `SnapshotFile::capture` -> cache
//! evict), then under `LocalityAffinity`, which mostly restores. Phase
//! `dedup` installs each function on its home host only, with a
//! content-addressed store and two slots per host, so homes overflow and
//! peers delta-fetch missing chunks over the mesh (`store` chunk
//! hashing, `ChunkMesh`, `netsim` transfer). A restore optimisation that
//! makes capture, manifest or ingest dearer shows up here.

use std::time::Instant;

use fireworks::core::cluster::{Cluster, ClusterConfig, LocalityAffinity, RoundRobin, Router};
use fireworks::core::engine::EngineRequest;
use fireworks::core::{
    fid, FireworksPlatform, FunctionId, HostId, PlatformConfig, SnapshotStorePolicy,
};
use fireworks::lang::Value;
use fireworks::prelude::FunctionSpec;
use fireworks::runtime::RuntimeKind;
use fireworks::sim::rng::SplitMix64;
use fireworks::sim::Nanos;
use fireworks::workloads::arrivals::poisson_schedule;

use super::{fold_report, int_args, ClusterTotals, Rep, Workload};
use crate::oracle::{self, Fingerprint};
use crate::spans::Tracer;

const HOSTS: usize = 4;
const FUNCTIONS: usize = 8;
/// Room for two ~155 MiB post-JIT snapshots per host.
const CACHE_BUDGET: u64 = 340 << 20;
const FLAT_SLOTS: usize = 4;
const FLAT_MEAN_MS: u64 = 8;
/// Requests per `flat` batch (one batch per router).
pub const FLAT_REQUESTS: usize = 120;
const DEDUP_SLOTS: usize = 2;
const DEDUP_MEAN_MS: u64 = 2;
const DEDUP_CHUNK_PAGES: usize = 16;
/// Requests in the `dedup` batch.
pub const DEDUP_REQUESTS: usize = 240;

/// One function of the mix: distinct source per `salt`, seeded `n`.
struct Service {
    spec: FunctionSpec,
    id: FunctionId,
    salt: i64,
    n: i64,
}

fn services(prefix: &str, rng: &mut SplitMix64) -> Vec<Service> {
    (0..FUNCTIONS as i64)
        .map(|salt| {
            let name = format!("{prefix}-{salt}");
            Service {
                spec: FunctionSpec::new(
                    &name,
                    oracle::churn_src(salt),
                    RuntimeKind::NodeLike,
                    int_args([("n", 2_000)]),
                ),
                id: fid(&name),
                salt,
                n: rng.next_range(1_900, 2_100) as i64,
            }
        })
        .collect()
}

/// A Poisson schedule over `services` and each request's expected result.
fn schedule(
    seed: u64,
    count: usize,
    mean_ms: u64,
    services: &[Service],
) -> (Vec<EngineRequest>, Vec<i64>) {
    let mix: Vec<(FunctionId, Value)> = services
        .iter()
        .map(|s| (s.id, int_args([("n", s.n)])))
        .collect();
    let requests = poisson_schedule(seed, count, Nanos::from_millis(mean_ms), &mix);
    let expect = requests
        .iter()
        .map(|r| {
            let s = services
                .iter()
                .find(|s| s.id == r.invoke.function)
                .expect("scheduled function is in the mix");
            oracle::churn(s.salt, s.n)
        })
        .collect();
    (requests, expect)
}

fn new_cluster(config: ClusterConfig) -> Cluster<FireworksPlatform> {
    Cluster::new(config, |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    })
}

fn flat_cluster(services: &[Service], t: &mut Tracer) -> Cluster<FireworksPlatform> {
    let mut config = ClusterConfig::new(HOSTS, FLAT_SLOTS);
    config.platform = PlatformConfig::builder().cache_budget(CACHE_BUDGET).build();
    let mut cluster = new_cluster(config);
    for s in services {
        t.span("core.install", |_| cluster.install(&s.spec))
            .expect("install on every host");
    }
    cluster
}

fn dedup_cluster(services: &[Service], t: &mut Tracer) -> Cluster<FireworksPlatform> {
    let mut config = ClusterConfig::new(HOSTS, DEDUP_SLOTS);
    // A busy home host pushes back after one waiter, so load spills to
    // the partial holders instead of queueing behind the full one.
    config.host_queue_cap = 1;
    config.platform = PlatformConfig::builder()
        .snapshot_store(SnapshotStorePolicy::Dedup {
            chunk_pages: DEDUP_CHUNK_PAGES,
            delta_fetch: true,
        })
        .build();
    let mut cluster = new_cluster(config);
    for s in services {
        t.span("core.install", |_| cluster.install_home(&s.spec))
            .expect("install on the home host");
    }
    cluster
}

/// What a batch must be seen to do, or it measures something else.
enum Mechanism {
    Rebuilds,
    DeltaFetches,
}

/// One timed batch: the cluster it runs on, its router and its schedule.
struct Batch {
    must_show: Option<Mechanism>,
    cluster: Cluster<FireworksPlatform>,
    router: Box<dyn Router>,
    requests: Vec<EngineRequest>,
    expect: Vec<i64>,
}

pub struct ClusterChurn {
    batches: Vec<Batch>,
    probe: (FunctionSpec, Value),
}

impl Workload for ClusterChurn {
    fn setup(seed: u64, t: &mut Tracer) -> Self {
        let mut rng = SplitMix64::new(seed);
        let flat = services("churn-flat", &mut rng);
        let dedup = services("churn-dedup", &mut rng);
        let probe = (flat[0].spec.clone(), int_args([("n", flat[0].n)]));
        let routers: [(Option<Mechanism>, Box<dyn Router>); 2] = [
            (Some(Mechanism::Rebuilds), Box::new(RoundRobin::new())),
            (None, Box::new(LocalityAffinity::new())),
        ];
        let mut batches = Vec::with_capacity(3);
        for (must_show, router) in routers {
            // Both routers serve the same schedule.
            let (requests, expect) = schedule(seed, FLAT_REQUESTS, FLAT_MEAN_MS, &flat);
            batches.push(Batch {
                must_show,
                cluster: flat_cluster(&flat, t),
                router,
                requests,
                expect,
            });
        }
        let (requests, expect) = schedule(seed ^ 0xD5, DEDUP_REQUESTS, DEDUP_MEAN_MS, &dedup);
        batches.push(Batch {
            must_show: Some(Mechanism::DeltaFetches),
            cluster: dedup_cluster(&dedup, t),
            router: Box::new(LocalityAffinity::new()),
            requests,
            expect,
        });
        ClusterChurn { batches, probe }
    }

    fn run(&mut self, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let mut fp = Fingerprint::default();
        for batch in &mut self.batches {
            let before = ClusterTotals::of(&batch.cluster);
            let t0 = Instant::now();
            let report = t.span("core.cluster.run", |_| {
                batch.cluster.run(batch.router.as_mut(), &batch.requests)
            });
            let wall = t0.elapsed().as_nanos() as u64;
            rep.wall_ns += wall;
            rep.cluster_run_ns += wall;
            let did = before.since(&batch.cluster);
            fold_report(&mut rep, &mut fp, &report, &batch.expect);
            fp.mix(did.events);

            match batch.must_show {
                Some(Mechanism::Rebuilds) if did.rebuilds == 0 => rep
                    .violations
                    .push("flat/round_robin forced no rebuild-from-source".into()),
                Some(Mechanism::DeltaFetches) if did.delta_fetches == 0 => rep
                    .violations
                    .push("dedup served no miss by delta fetch".into()),
                _ => {}
            }
            rep.counts.add_cluster(&did);
        }
        let dedup = &self.batches[2].cluster;
        for h in 0..dedup.len() {
            let host = dedup.host(HostId::from_index(h));
            if let Some(stats) = host.chunk_stats() {
                rep.counts.dedup_logical_bytes += stats.logical_bytes;
                rep.counts.dedup_unique_bytes += stats.unique_bytes;
            }
        }
        rep.counts.pages_per_snapshot = self.batches[0]
            .cluster
            .host(HostId::from_index(0))
            .install_report(fid(&self.probe.0.name))
            .map_or(0, |r| r.snapshot_pages as u64);
        rep.fingerprint = fp.value();
        rep
    }

    fn probe_function(&self) -> (FunctionSpec, Value) {
        (self.probe.0.clone(), self.probe.1.deep_clone())
    }
}
