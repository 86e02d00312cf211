//! Platform API v2 contract tests: trait-object safety, construction-time
//! configuration round-trips, and cluster determinism.

use fireworks::core::engine::EngineRequest;
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
        Value::map([("n".to_string(), Value::Int(100))]),
    )
}

fn req(name: &str, n: i64) -> InvokeRequest {
    InvokeRequest::new(fid(name), Value::map([("n".to_string(), Value::Int(n))]))
}

/// `Platform` must stay object-safe: a router or CLI holds heterogeneous
/// platforms behind one vtable and drives them uniformly.
#[test]
fn platform_is_object_safe() {
    let mut platforms: Vec<Box<dyn Platform>> = vec![
        Box::new(FireworksPlatform::new(PlatformEnv::default_env())),
        Box::new(OpenWhiskPlatform::new(PlatformEnv::default_env())),
        Box::new(GvisorPlatform::new(PlatformEnv::default_env())),
        Box::new(FirecrackerPlatform::new(
            PlatformEnv::default_env(),
            SnapshotPolicy::None,
        )),
    ];
    for p in &mut platforms {
        let dyn_ref: &mut dyn Platform = p.as_mut();
        dyn_ref.install(&spec("f")).expect("install via dyn");
        let inv = dyn_ref.invoke(&req("f", 10)).expect("invoke via dyn");
        assert_eq!(inv.value, Value::Int(45), "{}", dyn_ref.name());
    }
}

/// `run_chain` accepts an unsized platform, so chains work through the
/// same trait objects.
#[test]
fn chains_run_through_a_trait_object() {
    use fireworks::core::api::run_chain;
    // A stage that accepts either the head request's map or the previous
    // stage's integer output.
    const STAGE: &str = "
        fn main(params) {
            let n = params;
            if (type(params) == \"map\") { n = params[\"n\"]; }
            return n + 1;
        }";
    let stage_spec = FunctionSpec::new(
        "stage",
        STAGE,
        RuntimeKind::NodeLike,
        Value::map([("n".to_string(), Value::Int(1))]),
    );
    let mut boxed: Box<dyn Platform> = Box::new(FireworksPlatform::new(PlatformEnv::default_env()));
    boxed.install(&stage_spec).expect("install");
    let stages = run_chain(
        boxed.as_mut(),
        &[fid("stage"), fid("stage")],
        &req("stage", 10),
    )
    .expect("chain");
    assert_eq!(stages.len(), 2);
    assert_eq!(
        stages[1].value,
        Value::Int(12),
        "10 + 1 + 1 through the chain"
    );
}

/// Every knob set through the builder must surface in the built config.
#[test]
fn builder_round_trips_every_field() {
    let cfg = PlatformConfig::builder()
        .cache_budget(7 << 20)
        .paging(PagingPolicy::ColdStorage { reap: true })
        .keep_alive(Some(Nanos::from_secs(90)))
        .build();
    assert_eq!(cfg.cache_budget_bytes, 7 << 20);
    assert!(matches!(
        cfg.paging,
        PagingPolicy::ColdStorage { reap: true }
    ));
    assert_eq!(cfg.keep_alive, Some(Nanos::from_secs(90)));

    let defaults = PlatformConfig::default();
    assert_eq!(defaults.cache_budget_bytes, u64::MAX);
    assert_eq!(defaults.keep_alive, None);
}

/// `InvokeRequest` construction round-trips its fields, and `stage`
/// derives per-stage requests that inherit mode and deadline.
#[test]
fn invoke_request_round_trips_and_stages_inherit() {
    let r = InvokeRequest::new(fid("f"), Value::Int(1))
        .with_mode(StartMode::Cold)
        .with_deadline(Nanos::from_secs(3));
    assert_eq!(r.function, fid("f"));
    assert_eq!(&*r.function.name(), "f");
    assert_eq!(r.mode, StartMode::Cold);
    assert_eq!(r.deadline, Some(Nanos::from_secs(3)));
    let staged = r.stage(fid("g"), Value::Int(2));
    assert_eq!(staged.function, fid("g"));
    assert_eq!(staged.args, Value::Int(2));
    assert_eq!(staged.mode, StartMode::Cold, "stages inherit the mode");
    assert_eq!(staged.deadline, Some(Nanos::from_secs(3)));
}

/// A cluster run is a pure function of (config, schedule, seed): two
/// fresh runs must agree byte-for-byte on the full completion record and
/// the metrics snapshot, for every swept host count.
#[test]
fn cluster_runs_are_byte_identical() {
    for hosts in [1, 2, 4] {
        let run = || {
            let mut config = ClusterConfig::new(hosts, 2);
            config.platform = PlatformConfig::builder().cache_budget(340 << 20).build();
            let mut cluster = Cluster::new(config, |env, cfg| {
                FireworksPlatform::with_config(env, cfg.clone())
            });
            for i in 0..4 {
                cluster
                    .install(&spec(&format!("svc-{i}")))
                    .expect("install");
            }
            let schedule: Vec<EngineRequest> = (0..24)
                .map(|i| {
                    EngineRequest::at(
                        Nanos::from_millis(5 * (i as u64 / 4)),
                        req(&format!("svc-{}", i % 4), 50 + i as i64),
                    )
                })
                .collect();
            let mut router = LocalityAffinity::new();
            let report = cluster.run(&mut router, &schedule);
            let mut fingerprint = String::new();
            for c in &report.completions {
                fingerprint.push_str(&format!(
                    "{}:{:?}:{}:{}:{}:{:?}\n",
                    c.index,
                    c.host,
                    c.arrived,
                    c.started,
                    c.finished,
                    c.result.as_ref().map(|inv| inv.value.deep_clone())
                ));
            }
            fingerprint.push_str(&format!(
                "hits={} rebalances={} peaks={}/{}/{}\n",
                report.locality_hits,
                report.rebalances,
                report.peak_inflight,
                report.peak_host_queue_depth,
                report.peak_cluster_queue_depth,
            ));
            fingerprint.push_str(&cluster.obs().metrics().snapshot().to_json());
            fingerprint
        };
        assert_eq!(run(), run(), "cluster run diverged on {hosts} hosts");
    }
}

/// Deadlines are enforced cluster-wide: a request whose deadline passes
/// while queued is rejected without consuming a slot.
#[test]
fn cluster_rejects_expired_deadlines() {
    let mut cluster = Cluster::new(ClusterConfig::new(1, 1), |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    cluster.install(&spec("f")).expect("install");
    // Two simultaneous arrivals on one slot: the second waits behind a
    // multi-second install-grade start and its 1 ms deadline expires.
    let schedule = vec![
        EngineRequest::at(Nanos::ZERO, req("f", 100)),
        EngineRequest::at(
            Nanos::ZERO,
            req("f", 100).with_deadline(Nanos::from_millis(1)),
        ),
    ];
    let report = cluster.run(&mut RoundRobin::new(), &schedule);
    assert!(report.completions[0].result.is_ok());
    assert!(matches!(
        report.completions[1].result,
        Err(PlatformError::DeadlineExceeded { .. })
    ));
}
