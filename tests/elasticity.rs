//! Elastic control plane: crash-reroute conservation on the fixed
//! cluster, graceful drain with live snapshot hand-off, a drain
//! interrupted mid-hand-off, deadline-forced hard removal, scale-to-zero
//! resurrection, chaos over the control-plane fault sites, and
//! byte-determinism.

use fireworks::core::elastic::{ElasticCluster, ElasticConfig, ElasticPolicy, HostPhase};
use fireworks::core::engine::EngineRequest;
use fireworks::core::{ConcurrentPlatform, HostView, Route, SnapshotStorePolicy};
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

/// Regression for the fixed cluster's conservation guarantee: a host
/// that crashes with a deep admission queue must leave no request
/// behind — everything it held reaches a terminal outcome elsewhere
/// (or fails with `HostUnavailable` once nothing can serve).
#[test]
fn crashed_host_queue_is_conserved() {
    // Every host's injector crashes it at its 2nd service start, so a
    // 6-deep burst over 2 one-slot hosts kills the whole fleet with
    // queued work stranded on both.
    let mut config = ClusterConfig::new(2, 1);
    config.env = EnvConfig {
        fault_plan: FaultPlan::new(42).nth(FaultSite::HostCrash, 2),
        ..EnvConfig::default()
    };
    let mut cluster = Cluster::new(config, |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    cluster.install(&spec("f")).expect("installs");
    let at = cluster.clock().now();
    let burst: Vec<EngineRequest> = (0..6).map(|_| req_at(at, "f")).collect();
    let report = cluster.run(&mut LeastLoaded::new(), &burst);

    // Conservation: all six requests are accounted for, none lost.
    assert_eq!(report.completions.len(), 6);
    let ok = report
        .completions
        .iter()
        .filter(|c| c.result.is_ok())
        .count();
    assert_eq!(ok, 2, "one service start per host before its crash");
    for c in &report.completions {
        if let Err(e) = &c.result {
            assert!(
                matches!(e, PlatformError::HostUnavailable { .. }),
                "stranded requests fail terminally, got {e:?}"
            );
        }
    }
    assert_eq!(
        report.failed_hosts,
        vec![HostId::from_index(0), HostId::from_index(1)]
    );
    assert!(
        report.crash_reroutes > 0,
        "the dead hosts' queues were displaced and rerouted"
    );
    let snap = cluster.obs().metrics().snapshot();
    assert_eq!(
        snap.counter("cluster.crash_reroutes", &[]),
        report.crash_reroutes
    );
}

#[test]
fn burst_scales_up_and_every_request_is_served() {
    let policy = ElasticPolicy {
        min_hosts: 1,
        max_hosts: 4,
        scale_up_queue: 1,
        control_interval: Nanos::from_millis(10),
        boot_delay: Nanos::from_millis(20),
        ..ElasticPolicy::default()
    };
    let mut cluster = dedup_elastic(policy, FaultPlan::new(1));
    cluster.install(&spec("f")).expect("installs");
    let reqs: Vec<EngineRequest> = (0..24)
        .map(|i| req_at(Nanos::from_millis(2) * i, "f"))
        .collect();
    let report = cluster.run(&mut LocalityAffinity::new(), &reqs);
    assert!(report.completions.iter().all(|c| c.result.is_ok()));
    assert!(report.stats.scale_ups > 0, "{:?}", report.stats);
    assert!(report.peak_hosts > 1);
    assert!(
        report.audit_violations.is_empty(),
        "{:?}",
        report.audit_violations
    );
}

/// Pins `f` to the lowest-id active host and `g` to the highest-id
/// active host, deferring when the pinned host is full — the crafted
/// topology that makes host 0 the sole holder of `f` while host 1
/// stays busy with `g`.
struct SplitByFunction;

impl Router for SplitByFunction {
    fn name(&self) -> &'static str {
        "split_by_function"
    }
    fn route(&mut self, req: &InvokeRequest, hosts: &[HostView]) -> Route {
        // Strict pinning: if the pinned host is full, wait — never
        // spill onto the other host (that would hand it the snapshot
        // organically and defeat the sole-holder setup).
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

/// The crafted sole-holder workload: a burst of `f` overloads host 0
/// into a scale-up, then a long `g` stream keeps host 1 busy while
/// host 0 goes idle and drains.
fn sole_holder_schedule() -> Vec<EngineRequest> {
    let mut reqs: Vec<EngineRequest> = (0..6)
        .map(|i| req_at(Nanos::from_millis(1) * i, "f"))
        .collect();
    let g_start = Nanos::from_millis(60);
    for i in 0..30u64 {
        reqs.push(req_at(g_start + Nanos::from_millis(20) * i, "g"));
    }
    reqs.push(req_at(Nanos::from_millis(1_200), "f"));
    reqs
}

fn sole_holder_policy() -> ElasticPolicy {
    ElasticPolicy {
        min_hosts: 1,
        max_hosts: 2,
        // High enough that only the opening f burst (5 queued behind a
        // one-slot host) triggers growth — the steady g stream never
        // re-triggers it, so the fleet settles instead of churning.
        scale_up_queue: 3,
        scale_down_idle_ticks: 2,
        control_interval: Nanos::from_millis(20),
        boot_delay: Nanos::from_millis(20),
        drain_deadline: Nanos::from_secs(5),
        ..ElasticPolicy::default()
    }
}

#[test]
fn graceful_drain_migrates_sole_snapshot_to_survivor() {
    let mut cluster = dedup_elastic(sole_holder_policy(), FaultPlan::new(3));
    cluster.install(&spec("f")).expect("installs");
    cluster.install(&spec("g")).expect("installs");
    let reqs = sole_holder_schedule();
    let report = cluster.run(&mut SplitByFunction, &reqs);

    assert!(report.completions.iter().all(|c| c.result.is_ok()));
    assert!(report.stats.scale_ups >= 1, "{:?}", report.stats);
    assert!(
        report.stats.graceful_drains >= 1,
        "host 0 must drain gracefully: {:?}",
        report.stats
    );
    assert!(
        report.stats.migrations >= 1,
        "the drain must hand f to the survivor: {:?}",
        report.stats
    );
    assert!(
        report.audit_violations.is_empty(),
        "{:?}",
        report.audit_violations
    );

    // The surviving host ends fully resident for f — the hand-off
    // moved real chunks — and the post-drain f request was served
    // warm, nowhere near the ~470 ms a rebuild-from-source costs.
    let last = report.completions.last().expect("final f request");
    assert_eq!(last.function, fid("f"));
    let survivor = last.host.expect("served by a live host");
    assert!(survivor.index() > 0, "host 0 was drained away");
    assert!(cluster.host(survivor).residency(fid("f")).is_full());
    assert!(
        last.start_latency().expect("served") < Nanos::from_millis(100),
        "migrated snapshot must serve warm, got {:?}",
        last.start_latency()
    );
}

/// A drain interrupt drawn mid-hand-off is a host death like one drawn
/// when the drain starts: the donor leaves through the driver's failure
/// path, with its crash instant and counter, dead to fleet and mesh.
#[test]
fn interrupt_during_handoff_fails_the_donor_like_a_crash() {
    // Draw 1 is the drain start; draw 2 is the first hand-off's.
    let plan = FaultPlan::new(3).nth(FaultSite::DrainInterrupt, 2);
    let mut cluster = dedup_elastic(sole_holder_policy(), plan);
    cluster.install(&spec("f")).expect("installs");
    cluster.install(&spec("g")).expect("installs");
    let report = cluster.run(&mut SplitByFunction, &sole_holder_schedule());

    assert_eq!(report.stats.drain_interrupts, 1, "{:?}", report.stats);
    assert_eq!(report.stats.migrations, 0, "{:?}", report.stats);
    let donor = HostId::from_index(0);
    assert_eq!(report.failed_hosts, vec![donor]);
    assert!(
        report.audit_violations.is_empty(),
        "{:?}",
        report.audit_violations
    );
    assert_eq!(cluster.phase(donor), HostPhase::Dead);
    let mesh = cluster.mesh().borrow();
    assert!(!mesh.is_alive(donor) && mesh.dead_hosts().contains(&donor));
    drop(mesh);
    let snap = cluster.obs().metrics().snapshot();
    assert_eq!(snap.counter("elastic.host_crashes", &[("host", "0")]), 1);
    let crash_instants = cluster
        .obs()
        .recorder()
        .events()
        .iter()
        .filter(|e| matches!(e, fireworks::obs::Event::Instant(i) if i.name == "host_crash:0"))
        .count();
    assert_eq!(crash_instants, 1);
}

#[test]
fn stalled_handoff_past_deadline_forces_hard_removal() {
    let policy = ElasticPolicy {
        drain_deadline: Nanos::from_millis(10),
        migration: RecoveryPolicy {
            backoff_base: Nanos::from_millis(200),
            ..RecoveryPolicy::default()
        },
        ..sole_holder_policy()
    };
    // Every hand-off attempt stalls; the first retry's backoff already
    // overshoots the 10 ms drain budget, so the deadline fires with the
    // hand-off still pending and the host is hard-removed.
    let plan = FaultPlan::new(5).probability(FaultSite::MigrationStall, 1.0);
    let mut cluster = dedup_elastic(policy, plan);
    cluster.install(&spec("f")).expect("installs");
    cluster.install(&spec("g")).expect("installs");
    let reqs = sole_holder_schedule();
    let report = cluster.run(&mut SplitByFunction, &reqs);

    // Degraded, never lossy: the drain times out, but every request —
    // including the post-removal f, rebuilt from source — completes.
    assert!(report.completions.iter().all(|c| c.result.is_ok()));
    assert!(report.stats.migration_stalls >= 1, "{:?}", report.stats);
    assert!(
        report.stats.hard_removals >= 1,
        "the stalled drain must degrade to hard removal: {:?}",
        report.stats
    );
    assert_eq!(report.stats.migrations, 0, "{:?}", report.stats);
    assert!(
        report.audit_violations.is_empty(),
        "{:?}",
        report.audit_violations
    );
}

#[test]
fn idle_function_retires_to_archive_and_resurrects_on_demand() {
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
    // g stays hot the whole run (so the shared runtime/OS chunks stay
    // pinned on the host); f goes quiet past the retirement horizon,
    // then comes back.
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
    assert!(
        report.stats.retired_functions >= 1,
        "the idle stretch must retire f: {:?}",
        report.stats
    );
    assert!(
        report.stats.resurrections >= 1,
        "renewed demand must resurrect f: {:?}",
        report.stats
    );
    assert!(
        report.audit_violations.is_empty(),
        "{:?}",
        report.audit_violations
    );
    // Resurrection is a *delta* fetch from the archive: only f's unique
    // chunks cross the wire (g kept the shared image resident), so the
    // comeback start is far cheaper than the ~470 ms rebuild.
    let comeback = report
        .completions
        .iter()
        .find(|c| c.function == fid("f") && c.arrived >= f_return)
        .expect("f comes back");
    assert!(
        comeback.start_latency().expect("served") < Nanos::from_millis(300),
        "resurrected start must be a cheap delta fetch, got {:?}",
        comeback.start_latency()
    );
    // (f may legitimately be re-archived once its comeback burst goes
    // idle again — the archive set at run end is not asserted.)
}

#[test]
fn chaos_over_control_plane_fault_sites_loses_nothing() {
    // Two bursts separated by an idle valley: the first forces
    // scale-ups, the valley forces drains, the second forces re-growth
    // — every control-plane transition runs under a 50% fault rate.
    let schedule: Vec<EngineRequest> = (0..20)
        .map(|i| req_at(Nanos::from_millis(2) * i, "f"))
        .chain((0..20).map(|i| req_at(Nanos::from_millis(600) + Nanos::from_millis(2) * i, "f")))
        .collect();
    for site in [
        FaultSite::DrainInterrupt,
        FaultSite::MigrationStall,
        FaultSite::ScaleUpFail,
    ] {
        for seed in [42, 7] {
            let policy = ElasticPolicy {
                min_hosts: 1,
                max_hosts: 3,
                scale_up_queue: 1,
                scale_down_idle_ticks: 2,
                control_interval: Nanos::from_millis(10),
                boot_delay: Nanos::from_millis(20),
                drain_deadline: Nanos::from_millis(200),
                ..ElasticPolicy::default()
            };
            let plan = FaultPlan::new(seed).probability(site, 0.5);
            let mut cluster = dedup_elastic(policy, plan);
            cluster.install(&spec("f")).expect("installs");
            // `run` itself asserts request conservation; a lost request
            // panics the test. On top: the invariant auditor must stay
            // clean through every faulted membership event.
            let report = cluster.run(&mut LocalityAffinity::new(), &schedule);
            assert_eq!(report.completions.len(), schedule.len());
            assert!(
                report.audit_violations.is_empty(),
                "{:?}@{seed}: {:?}",
                site,
                report.audit_violations
            );
            assert!(
                report.completions.iter().all(|c| c.result.is_ok()),
                "{site:?}@{seed}: control-plane faults must not fail requests"
            );
        }
    }
}

#[test]
fn same_seed_elastic_chaos_runs_are_identical() {
    let run_once = || {
        let policy = ElasticPolicy {
            min_hosts: 1,
            max_hosts: 3,
            scale_up_queue: 1,
            scale_down_idle_ticks: 2,
            control_interval: Nanos::from_millis(10),
            boot_delay: Nanos::from_millis(20),
            ..ElasticPolicy::default()
        };
        let mut cluster = dedup_elastic(policy, FaultPlan::uniform(11, 0.02));
        cluster.install(&spec("f")).expect("installs");
        let reqs: Vec<EngineRequest> = (0..30)
            .map(|i| req_at(Nanos::from_millis(3) * i, "f"))
            .collect();
        let report = cluster.run(&mut LocalityAffinity::new(), &reqs);
        format!("{report:?}")
    };
    assert_eq!(run_once(), run_once(), "same seed, same bytes");
}

/// With every host dead and every boot failing, the control plane gives
/// up after `SCALE_UP_GIVE_UP` consecutive boot failures and fails the
/// parked admissions fast instead of ticking forever.
#[test]
fn hopeless_scale_up_fails_parked_requests_and_terminates() {
    let policy = ElasticPolicy {
        min_hosts: 1,
        max_hosts: 3,
        scale_up_queue: 1,
        control_interval: Nanos::from_millis(10),
        boot_delay: Nanos::from_millis(20),
        ..ElasticPolicy::default()
    };
    let plan = FaultPlan::new(3)
        .nth(FaultSite::HostCrash, 1)
        .probability(FaultSite::ScaleUpFail, 1.0);
    let mut cluster = dedup_elastic(policy, plan);
    cluster.install(&spec("f")).expect("installs");
    let reqs: Vec<EngineRequest> = (0..6)
        .map(|i| req_at(Nanos::from_millis(2) * i, "f"))
        .collect();
    let report = cluster.run(&mut LocalityAffinity::new(), &reqs);
    assert_eq!(report.completions.len(), reqs.len());
    for c in &report.completions {
        assert!(
            matches!(c.result, Err(PlatformError::HostUnavailable { .. })),
            "nothing can serve, got {:?}",
            c.result
        );
    }
    assert!(report.stats.scale_up_failures >= 10, "{:?}", report.stats);
    assert!(
        report.audit_violations.is_empty(),
        "{:?}",
        report.audit_violations
    );
    // Each rejection closed its request's trace root.
    let rejected_roots = cluster
        .obs()
        .recorder()
        .events()
        .iter()
        .filter(|e| match e {
            fireworks::obs::Event::Span(s) => {
                s.end.is_some() && s.attrs.iter().any(|(k, _)| *k == "rejected")
            }
            fireworks::obs::Event::Instant(_) => false,
        })
        .count();
    assert_eq!(rejected_roots, reqs.len());
}
