//! The three front-ends are one driver: a single host is a one-host
//! cluster, and a fixed cluster is an elastic cluster that never scales.
//! One schedule pushed through `Engine::run`, `Cluster::run` and
//! `ElasticCluster::run` over equally prepared platforms must therefore
//! serve every request on the same host at the same virtual instants.

use fireworks::core::cluster::ClusterCompletion;
use fireworks::core::elastic::{ElasticCluster, ElasticConfig, ElasticPolicy};
use fireworks::core::engine::{CompletionPolicy, Engine, EngineRequest};
use fireworks::core::ConcurrentPlatform;
use fireworks::prelude::*;

const SRC: &str = "
    fn main(params) {
        let n = params[\"n\"];
        let t = 0;
        for (let i = 0; i < n; i = i + 1) { t = t + i; }
        return t;
    }";

const FUNCTIONS: [&str; 2] = ["f", "g"];

/// Arrivals begin here; installs (seconds of virtual time) finish long
/// before, so every front-end starts the schedule from the same state.
const START: Nanos = Nanos::from_secs(60);

fn spec(name: &str) -> FunctionSpec {
    FunctionSpec::new(
        name,
        SRC,
        RuntimeKind::NodeLike,
        Value::map([("n".to_string(), Value::Int(300))]),
    )
}

/// 40 requests over two functions at 8 arrivals/ms; each index in
/// `deadlines` gets a deadline 1 ms after its arrival.
fn schedule(deadlines: &[usize]) -> Vec<EngineRequest> {
    (0..40)
        .map(|i| {
            let at = START + Nanos::from_micros(125) * i as u64;
            let args = Value::map([("n".to_string(), Value::Int(100 + i as i64))]);
            let mut req = InvokeRequest::new(fid(FUNCTIONS[i % 2]), args);
            if deadlines.contains(&i) {
                req = req.with_deadline(at + Nanos::from_millis(1));
            }
            EngineRequest::at(at, req)
        })
        .collect()
}

/// What must agree: placement, service instants, and the value (or that
/// the request was rejected).
type Outcome = (Option<HostId>, Nanos, Nanos, Option<Value>);

fn outcomes(completions: &[ClusterCompletion]) -> Vec<Outcome> {
    completions
        .iter()
        .map(|c| {
            let value = c.result.as_ref().ok().map(|inv| inv.value.deep_clone());
            (c.host, c.started, c.finished, value)
        })
        .collect()
}

fn through_engine(slots: usize, requests: &[EngineRequest]) -> Vec<Outcome> {
    let mut p = FireworksPlatform::new(PlatformEnv::default_env());
    for f in FUNCTIONS {
        p.install(&spec(f)).expect("installs");
    }
    let env = p.env().clone();
    assert!(env.clock.now() <= START);
    let mut engine = Engine::new(p, &env.clock, &env.obs, slots, CompletionPolicy::Release);
    outcomes(&engine.run(requests).completions)
}

/// Installs every function on host 0 and registers it elsewhere — what
/// `ElasticCluster::install` does.
fn through_cluster(
    hosts: usize,
    slots: usize,
    queue_cap: usize,
    requests: &[EngineRequest],
) -> Vec<Outcome> {
    let mut config = ClusterConfig::new(hosts, slots);
    config.host_queue_cap = queue_cap;
    let mut cluster = Cluster::new(config, |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    for f in FUNCTIONS {
        cluster
            .host_mut(HostId::from_index(0))
            .install(&spec(f))
            .expect("installs");
        for h in 1..hosts {
            cluster
                .host_mut(HostId::from_index(h))
                .register(&spec(f))
                .expect("registers");
        }
    }
    assert!(cluster.clock().now() <= START);
    let report = cluster.run(&mut RoundRobin::new(), requests);
    outcomes(&report.completions)
}

fn through_elastic(
    hosts: usize,
    slots: usize,
    queue_cap: usize,
    requests: &[EngineRequest],
) -> Vec<Outcome> {
    let mut config = ElasticConfig::new(slots);
    config.host_queue_cap = queue_cap;
    config.policy = ElasticPolicy {
        min_hosts: hosts,
        max_hosts: hosts,
        ..ElasticPolicy::default()
    };
    let mut cluster = ElasticCluster::new(config, |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    for f in FUNCTIONS {
        cluster.install(&spec(f)).expect("installs");
    }
    assert!(cluster.clock().now() <= START);
    let report = cluster.run(&mut RoundRobin::new(), requests);
    assert!(report.audit_violations.is_empty());
    outcomes(&report.completions)
}

#[test]
fn one_schedule_is_served_identically_by_all_three_front_ends() {
    let requests = schedule(&[]);
    let engine = through_engine(2, &requests);
    assert!(engine.iter().all(|(_, _, _, value)| value.is_some()));
    assert_eq!(engine, through_cluster(1, 2, usize::MAX, &requests));
    assert_eq!(engine, through_elastic(1, 2, usize::MAX, &requests));

    let fixed = through_cluster(3, 1, 2, &requests);
    assert!(
        (0..3).all(|h| fixed.iter().any(|o| o.0 == Some(HostId::from_index(h)))),
        "round-robin spreads the schedule over every host"
    );
    assert_eq!(fixed, through_elastic(3, 1, 2, &requests));
}

#[test]
fn deadlines_reject_the_same_requests_everywhere() {
    let requests = schedule(&[1, 9, 18, 27]);
    let engine = through_engine(2, &requests);
    let rejected = engine.iter().filter(|o| o.3.is_none()).count();
    assert!(
        rejected > 0 && rejected < 4,
        "some deadlines are met, some missed"
    );
    assert_eq!(engine, through_cluster(1, 2, usize::MAX, &requests));

    // With a bounded host queue the overflow waits on the cluster queue,
    // which the elastic control tick re-offers to the router — so an
    // expired request can be rejected earlier than its would-be service
    // start, never later, and everything served is served identically.
    let elastic = through_elastic(1, 2, 4, &requests);
    for (i, (e, x)) in engine.iter().zip(&elastic).enumerate() {
        if e.3.is_some() {
            assert_eq!(e, x, "request {i} is served identically");
        } else {
            assert!(x.3.is_none(), "request {i} is rejected by both");
            assert!(x.1 <= e.1, "request {i} is rejected no later");
        }
    }
}
