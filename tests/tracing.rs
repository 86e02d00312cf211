//! End-to-end request tracing: every invocation driven through a
//! cluster — including requests that cross a host crash, a graceful
//! drain migration, or an archive resurrection — yields exactly one
//! causal tree with a single `TraceId`, no orphan spans, and a latency
//! attribution that sums to the request's sojourn.

use std::collections::BTreeMap;

use fireworks::core::cluster::{
    Cluster, ClusterCompletion, ClusterConfig, LeastLoaded, LocalityAffinity,
};
use fireworks::core::elastic::{ElasticCluster, ElasticConfig, ElasticPolicy};
use fireworks::core::engine::EngineRequest;
use fireworks::core::{HostView, Route, SnapshotStorePolicy};
use fireworks::obs::{Event, TraceForest};
use fireworks::prelude::*;

const SRC: &str = "
    fn main(params) {
        let n = params[\"n\"];
        let t = 0;
        for (let i = 0; i < n; i = i + 1) { t = t + i; }
        return t;
    }";

fn spec(name: &str) -> FunctionSpec {
    FunctionSpec::new(
        name,
        SRC,
        RuntimeKind::NodeLike,
        Value::map([("n".to_string(), Value::Int(500))]),
    )
}

fn req_at(at: Nanos, name: &str) -> EngineRequest {
    EngineRequest::at(
        at,
        InvokeRequest::new(fid(name), Value::map([("n".to_string(), Value::Int(500))])),
    )
}

/// Root span name per trace id (`request` for invocations, `migration`
/// for drain hand-offs).
fn root_names(events: &[Event]) -> BTreeMap<u64, String> {
    let mut names = BTreeMap::new();
    for e in events {
        if let Event::Span(s) = e {
            if s.parent.is_none() {
                if let Some(t) = s.trace {
                    names.insert(t.raw(), s.name.clone());
                }
            }
        }
    }
    names
}

/// The tracing contract, checked against a run's completions: one tree
/// per request (single `TraceId`), zero orphans, attribution == sojourn,
/// and tree sojourns matching the report's sojourns as multisets.
fn assert_trace_complete(obs: &Obs, now: Nanos, completions: &[ClusterCompletion]) {
    let events = obs.recorder().events();
    let forest = TraceForest::build(&events, now);
    assert!(
        forest.orphans.is_empty(),
        "orphan spans: {:?}",
        forest.orphans
    );
    let roots = root_names(&events);
    let requests: Vec<_> = forest
        .requests
        .iter()
        .filter(|r| roots.get(&r.trace.raw()).map(String::as_str) == Some("request"))
        .collect();
    assert_eq!(
        requests.len(),
        completions.len(),
        "exactly one trace tree per invocation"
    );
    for r in &requests {
        assert_eq!(
            r.attribution.total(),
            r.sojourn,
            "trace {}: attribution must sum to the sojourn",
            r.trace.raw()
        );
    }
    let mut tree_sojourns: Vec<Nanos> = requests.iter().map(|r| r.sojourn).collect();
    let mut report_sojourns: Vec<Nanos> = completions.iter().map(|c| c.sojourn()).collect();
    tree_sojourns.sort_unstable();
    report_sojourns.sort_unstable();
    assert_eq!(
        tree_sojourns, report_sojourns,
        "trace-tree sojourns must match the report's"
    );
}

/// A 4-host cluster where every host crashes at its 3rd service start:
/// requests are displaced, rerouted, and — once the whole fleet is dead
/// — terminally rejected. Each of those journeys must still be one
/// complete trace tree.
#[test]
fn requests_crossing_host_crashes_keep_one_complete_trace() {
    let mut config = ClusterConfig::new(4, 1);
    config.env = EnvConfig {
        fault_plan: FaultPlan::new(42).nth(FaultSite::HostCrash, 3),
        ..EnvConfig::default()
    };
    let mut cluster = Cluster::new(config, |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    cluster.install(&spec("f")).expect("installs");
    let start = cluster.clock().now();
    let reqs: Vec<EngineRequest> = (0..40)
        .map(|i| req_at(start + Nanos::from_millis(40) * i, "f"))
        .collect();
    let report = cluster.run(&mut LeastLoaded::new(), &reqs);

    assert!(
        !report.failed_hosts.is_empty(),
        "the fault plan must crash hosts"
    );
    assert!(report.crash_reroutes > 0, "crashes must displace requests");
    let ok = report
        .completions
        .iter()
        .filter(|c| c.result.is_ok())
        .count();
    assert!(ok > 0 && ok < reqs.len(), "mixed outcomes exercised");
    let obs = cluster.obs().clone();
    obs.recorder().finish();
    assert_trace_complete(&obs, cluster.clock().now(), &report.completions);

    // Rejected requests carry the rejection on their root.
    let events = obs.recorder().events();
    let rejected_roots = events
        .iter()
        .filter(|e| match e {
            Event::Span(s) => s.parent.is_none() && s.attrs.iter().any(|(k, _)| *k == "rejected"),
            Event::Instant(_) => false,
        })
        .count();
    assert_eq!(
        rejected_roots,
        report
            .completions
            .iter()
            .filter(|c| c.result.is_err())
            .count(),
        "every failed completion closes its root with a rejected attribute"
    );
}

/// Pins `f` to the lowest-id active host and `g` to the highest-id one
/// (deferring when full) — makes host 0 the sole holder of `f` so its
/// drain must migrate the snapshot.
struct SplitByFunction;

impl Router for SplitByFunction {
    fn name(&self) -> &'static str {
        "split_by_function"
    }
    fn route(&mut self, req: &InvokeRequest, hosts: &[HostView]) -> Route {
        let healthy = hosts.iter().filter(|v| v.healthy);
        let pick = if req.function == fid("g") {
            healthy.max_by_key(|v| v.id)
        } else {
            healthy.min_by_key(|v| v.id)
        };
        match pick {
            Some(v) if v.has_capacity() => Route::Host(v.id),
            _ => Route::Defer,
        }
    }
}

fn dedup_elastic(policy: ElasticPolicy, plan: FaultPlan) -> ElasticCluster<FireworksPlatform> {
    let mut config = ElasticConfig::new(1);
    config.platform = PlatformConfig::builder()
        .snapshot_store(SnapshotStorePolicy::dedup())
        .build();
    config.env.fault_plan = plan;
    config.policy = policy;
    ElasticCluster::new(config, |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    })
}

/// A graceful drain hands the sole-held snapshot to a survivor; the
/// hand-off gets its own `migration` control-plane trace and every
/// request trace stays complete across the drain.
#[test]
fn drain_migration_traces_are_complete_and_tagged() {
    let policy = ElasticPolicy {
        min_hosts: 1,
        max_hosts: 2,
        scale_up_queue: 3,
        scale_down_idle_ticks: 2,
        control_interval: Nanos::from_millis(20),
        boot_delay: Nanos::from_millis(20),
        drain_deadline: Nanos::from_secs(5),
        ..ElasticPolicy::default()
    };
    let mut cluster = dedup_elastic(policy, FaultPlan::new(3));
    cluster.install(&spec("f")).expect("installs");
    cluster.install(&spec("g")).expect("installs");
    let mut reqs: Vec<EngineRequest> = (0..6)
        .map(|i| req_at(Nanos::from_millis(1) * i, "f"))
        .collect();
    let g_start = Nanos::from_millis(60);
    for i in 0..30u64 {
        reqs.push(req_at(g_start + Nanos::from_millis(20) * i, "g"));
    }
    reqs.push(req_at(Nanos::from_millis(1_200), "f"));
    let report = cluster.run(&mut SplitByFunction, &reqs);

    assert!(report.completions.iter().all(|c| c.result.is_ok()));
    assert!(report.stats.graceful_drains >= 1, "{:?}", report.stats);
    assert!(report.stats.migrations >= 1, "{:?}", report.stats);
    let obs = cluster.obs().clone();
    obs.recorder().finish();
    let now = cluster.clock().now();
    assert_trace_complete(&obs, now, &report.completions);

    // Drain hand-offs are their own control-plane traces, complete in
    // the same forest.
    let events = obs.recorder().events();
    let forest = TraceForest::build(&events, now);
    let roots = root_names(&events);
    let migrations = forest
        .requests
        .iter()
        .filter(|r| roots.get(&r.trace.raw()).map(String::as_str) == Some("migration"))
        .count();
    assert!(
        migrations as u64 >= report.stats.migrations,
        "each hand-off must yield a migration trace ({migrations} trees, {} migrations)",
        report.stats.migrations
    );
}

/// A function that retires to the archive and resurrects on demand: the
/// comeback request's trace carries the resurrection marker and its
/// delta fetch, and remains a single complete tree.
#[test]
fn archive_resurrection_is_traced_on_the_comeback_request() {
    let policy = ElasticPolicy {
        min_hosts: 1,
        max_hosts: 2,
        control_interval: Nanos::from_millis(50),
        retire_after: Some(Nanos::from_millis(200)),
        ..ElasticPolicy::default()
    };
    let mut cluster = dedup_elastic(policy, FaultPlan::new(9));
    cluster.install(&spec("f")).expect("installs");
    cluster.install(&spec("g")).expect("installs");
    let mut reqs: Vec<EngineRequest> = (0..5)
        .map(|i| req_at(Nanos::from_millis(10) * i, "f"))
        .collect();
    for i in 0..84u64 {
        reqs.push(req_at(Nanos::from_millis(30) * i, "g"));
    }
    let f_return = Nanos::from_millis(2_000);
    for i in 0..3u64 {
        reqs.push(req_at(f_return + Nanos::from_millis(10) * i, "f"));
    }
    reqs.sort_by_key(|r| r.arrival);
    let report = cluster.run(&mut LocalityAffinity::new(), &reqs);

    assert!(report.completions.iter().all(|c| c.result.is_ok()));
    assert!(report.stats.resurrections >= 1, "{:?}", report.stats);
    let obs = cluster.obs().clone();
    obs.recorder().finish();
    assert_trace_complete(&obs, cluster.clock().now(), &report.completions);

    // The comeback request's root is tagged with the resurrection.
    let events = obs.recorder().events();
    let resurrected = events.iter().any(|e| match e {
        Event::Span(s) => s.parent.is_none() && s.attrs.iter().any(|(k, _)| *k == "resurrected"),
        Event::Instant(_) => false,
    });
    assert!(
        resurrected,
        "the resurrecting request's root must carry the marker"
    );
}

/// Byte-determinism of the whole trace plane: same seed, same schedule,
/// byte-identical JSONL export.
#[test]
fn same_seed_cluster_traces_export_identically() {
    let run = |seed: u64| -> String {
        let mut config = ClusterConfig::new(4, 2);
        config.env = EnvConfig {
            fault_plan: FaultPlan::new(seed).nth(FaultSite::HostCrash, 4),
            ..EnvConfig::default()
        };
        let mut cluster = Cluster::new(config, |env, cfg| {
            FireworksPlatform::with_config(env, cfg.clone())
        });
        cluster.install(&spec("f")).expect("installs");
        let start = cluster.clock().now();
        let reqs: Vec<EngineRequest> = (0..24)
            .map(|i| req_at(start + Nanos::from_millis(25) * i, "f"))
            .collect();
        cluster.run(&mut LocalityAffinity::new(), &reqs);
        cluster.obs().recorder().finish();
        fireworks::obs::export::jsonl(cluster.obs().recorder())
    };
    assert_eq!(run(7), run(7), "same-seed exports must be byte-identical");
    fireworks::obs::export::schema::check_jsonl(&run(7)).expect("export passes the schema check");
}

/// A series is exported once written, and building a front end writes
/// none: a fixed cluster, an engine and an elastic cluster with nothing
/// installed export an empty metrics snapshot.
#[test]
fn front_ends_built_with_nothing_installed_export_no_metrics() {
    use fireworks::core::{CompletionPolicy, Engine};
    let cluster = Cluster::new(ClusterConfig::new(4, 2), |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    let env = PlatformEnv::default_env();
    let platform = FireworksPlatform::new(env.clone());
    let engine = Engine::new(platform, &env.clock, &env.obs, 2, CompletionPolicy::Release);
    let elastic = dedup_elastic(ElasticPolicy::default(), FaultPlan::default());
    for (front, obs) in [
        ("cluster", cluster.obs()),
        ("engine", engine.obs()),
        ("elastic", elastic.obs()),
    ] {
        let json = obs.metrics().snapshot().to_json();
        assert_eq!(
            json, "{\"counters\":{},\"gauges\":{},\"histograms\":{}}",
            "{front}"
        );
    }
}
