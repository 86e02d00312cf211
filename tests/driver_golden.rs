//! Golden lock on the event-loop driver: one small scenario per entry
//! point (`run_concurrent`, `Cluster::run`, `ElasticCluster::run`), each
//! dumping every completion, every report counter, the metrics snapshot
//! and the recorder's JSONL export, compared byte-for-byte with
//! `tests/golden/driver/*.txt`.
//!
//! The goldens were generated on the three hand-written loops this
//! driver replaced and are not re-blessed by refactors: a change that is
//! deterministic but wrong passes a two-run self-diff, it cannot pass
//! this. To regenerate after an *intentional* behaviour change:
//! `BLESS=1 cargo test --test driver_golden`.

use std::fmt::Write as _;

use fireworks::core::elastic::{ElasticCluster, ElasticConfig, ElasticPolicy, ElasticReport};
use fireworks::core::engine::{run_concurrent, EngineConfig, EngineReport, EngineRequest};
use fireworks::core::SnapshotStorePolicy;
use fireworks::obs::export;
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
        Value::map([("n".to_string(), Value::Int(300))]),
    )
}

fn req(name: &str, n: i64) -> InvokeRequest {
    InvokeRequest::new(fid(name), Value::map([("n".to_string(), Value::Int(n))]))
}

/// `count` requests alternating over `functions`, one every `gap`
/// starting at `start`; every `deadline_every`-th request (0: none)
/// carries a deadline `slack` after its arrival.
fn schedule(
    functions: &[&str],
    count: usize,
    start: Nanos,
    gap: Nanos,
    deadline_every: usize,
    slack: Nanos,
) -> Vec<EngineRequest> {
    (0..count)
        .map(|i| {
            let at = start + gap * i as u64;
            let mut r = req(functions[i % functions.len()], 100 + i as i64);
            if deadline_every > 0 && i % deadline_every == deadline_every - 1 {
                r = r.with_deadline(at + slack);
            }
            EngineRequest::at(at, r)
        })
        .collect()
}

fn check(name: &str, actual: &str) {
    let path = format!(
        "{}/tests/golden/driver/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden exists (generate with BLESS=1)");
    if actual != golden {
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "{name} drifted from tests/golden/driver/{name}.txt at line {}:\n  actual: {}\n  golden: {}",
            line + 1,
            actual.lines().nth(line).unwrap_or("<eof>"),
            golden.lines().nth(line).unwrap_or("<eof>"),
        );
    }
}

fn dump_completion(
    out: &mut String,
    index: usize,
    host: Option<HostId>,
    (arrived, started, finished): (Nanos, Nanos, Nanos),
    result: &Result<Invocation, PlatformError>,
) {
    let host = host.map_or("-".to_string(), |h| h.index().to_string());
    let outcome = match result {
        Ok(inv) => format!(
            "ok {:?} startup={}",
            inv.value,
            inv.breakdown.startup.as_nanos()
        ),
        Err(e) => format!("err {e}"),
    };
    writeln!(
        out,
        "{index} host={host} arrived={} started={} finished={} {outcome}",
        arrived.as_nanos(),
        started.as_nanos(),
        finished.as_nanos(),
    )
    .expect("write to string");
}

fn dump_obs(out: &mut String, obs: &Obs) {
    writeln!(out, "== metrics\n{}", obs.metrics().snapshot().to_json()).expect("write");
    writeln!(out, "== jsonl\n{}", export::jsonl(obs.recorder())).expect("write");
}

fn dump_engine<T>(report: &EngineReport<T>, obs: &Obs) -> String {
    let mut out = String::from("== completions\n");
    for c in &report.completions {
        dump_completion(
            &mut out,
            c.index,
            None,
            (c.arrived, c.started, c.finished),
            &c.result,
        );
    }
    writeln!(
        out,
        "== report\nretained={} peak_inflight={} peak_queue_depth={} peak_live_pss_bytes={} events_processed={}",
        report.retained.len(),
        report.peak_inflight,
        report.peak_queue_depth,
        report.peak_live_pss_bytes,
        report.events_processed,
    )
    .expect("write");
    dump_obs(&mut out, obs);
    out
}

fn engine_platform(plan: FaultPlan) -> FireworksPlatform {
    let mut p = FireworksPlatform::new(PlatformEnv::with_fault_plan(plan));
    p.install(&spec("f")).expect("installs");
    p.install(&spec("g")).expect("installs");
    p
}

#[test]
fn engine_release_under_a_fault_plan() {
    let mut p = engine_platform(FaultPlan::uniform(7, 0.05));
    let env = p.env().clone();
    let requests = schedule(
        &["f", "g"],
        30,
        env.clock.now(),
        Nanos::from_micros(400),
        5,
        Nanos::from_millis(2),
    );
    let report = run_concurrent(
        &mut p,
        &env.clock,
        &env.obs,
        &EngineConfig::new(2),
        &requests,
    );
    check("engine_release_faulted", &dump_engine(&report, &env.obs));
}

#[test]
fn engine_retain_keeps_every_clone() {
    let mut p = engine_platform(FaultPlan::default());
    let env = p.env().clone();
    let requests = schedule(
        &["f", "g"],
        12,
        env.clock.now(),
        Nanos::from_micros(250),
        0,
        Nanos::ZERO,
    );
    let report = run_concurrent(
        &mut p,
        &env.clock,
        &env.obs,
        &EngineConfig::new(3).retain_completed(),
        &requests,
    );
    let dump = dump_engine(&report, &env.obs);
    for clone in report.retained {
        p.release_clone(clone);
    }
    check("engine_retain", &dump);
}

fn cluster_scenario(name: &str, plan: FaultPlan, store: SnapshotStorePolicy) {
    let mut config = ClusterConfig::new(4, 1);
    config.host_queue_cap = 2;
    config.platform = PlatformConfig::builder().snapshot_store(store).build();
    config.env.fault_plan = plan;
    let mut cluster = Cluster::new(config, |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    for f in ["svc-0", "svc-1", "svc-2"] {
        cluster.install_home(&spec(f)).expect("install_home");
    }
    let requests = schedule(
        &["svc-0", "svc-1", "svc-2"],
        48,
        cluster.clock().now(),
        Nanos::from_millis(3),
        4,
        Nanos::from_millis(40),
    );
    let report = cluster.run(&mut LocalityAffinity::new(), &requests);
    let mut out = String::from("== completions\n");
    for c in &report.completions {
        dump_completion(
            &mut out,
            c.index,
            c.host,
            (c.arrived, c.started, c.finished),
            &c.result,
        );
    }
    writeln!(
        out,
        "== report\nretained={} peak_inflight={} peak_host_queue_depth={} peak_cluster_queue_depth={} \
         rebalances={} locality_hits={} failed_hosts={:?} crash_reroutes={} events_processed={}",
        report.retained.len(),
        report.peak_inflight,
        report.peak_host_queue_depth,
        report.peak_cluster_queue_depth,
        report.rebalances,
        report.locality_hits,
        report.failed_hosts,
        report.crash_reroutes,
        cluster.events_processed(),
    )
    .expect("write");
    dump_obs(&mut out, cluster.obs());
    check(name, &out);
}

#[test]
fn cluster_locality_with_deadlines() {
    cluster_scenario(
        "cluster_locality_deadlines",
        FaultPlan::default(),
        SnapshotStorePolicy::Flat,
    );
}

#[test]
fn cluster_survives_host_crashes() {
    cluster_scenario(
        "cluster_host_crash",
        FaultPlan::new(42).nth(FaultSite::HostCrash, 2),
        SnapshotStorePolicy::Flat,
    );
}

#[test]
fn dedup_cluster_reaps_donors_that_crash_mid_fetch() {
    cluster_scenario(
        "cluster_dedup_host_crash",
        FaultPlan::new(42).nth(FaultSite::HostCrash, 3),
        SnapshotStorePolicy::dedup(),
    );
}

fn dump_elastic(report: &ElasticReport, obs: &Obs) -> String {
    let mut out = String::from("== completions\n");
    for c in &report.completions {
        dump_completion(
            &mut out,
            c.index,
            c.host,
            (c.arrived, c.started, c.finished),
            &c.result,
        );
    }
    writeln!(
        out,
        "== report\n{:?}\npeak_hosts={} peak_inflight={} peak_cluster_queue_depth={} host_time={} \
         audit_violations={:?} failed_hosts={:?} events_processed={}",
        report.stats,
        report.peak_hosts,
        report.peak_inflight,
        report.peak_cluster_queue_depth,
        report.host_time.as_nanos(),
        report.audit_violations,
        report.failed_hosts,
        report.events_processed,
    )
    .expect("write");
    dump_obs(&mut out, obs);
    out
}

/// A flash crowd that forces scale-up, an idle valley that forces a
/// drain, and a second, smaller burst with deadlines on some requests.
fn flash_crowd(start: Nanos) -> Vec<EngineRequest> {
    let mut requests = schedule(
        &["f", "g"],
        24,
        start,
        Nanos::from_millis(2),
        0,
        Nanos::ZERO,
    );
    requests.extend(schedule(
        &["g", "f"],
        12,
        start + Nanos::from_millis(600),
        Nanos::from_millis(2),
        3,
        Nanos::from_millis(30),
    ));
    requests
}

fn elastic_scenario(name: &str, plan: FaultPlan, tweak: impl FnOnce(&mut ElasticPolicy)) {
    let mut config = ElasticConfig::new(1);
    config.platform = PlatformConfig::builder()
        .snapshot_store(SnapshotStorePolicy::dedup())
        .build();
    config.env.fault_plan = plan;
    config.policy = ElasticPolicy {
        min_hosts: 1,
        max_hosts: 3,
        scale_up_queue: 1,
        scale_down_idle_ticks: 2,
        control_interval: Nanos::from_millis(10),
        boot_delay: Nanos::from_millis(20),
        drain_deadline: Nanos::from_millis(200),
        ..ElasticPolicy::default()
    };
    tweak(&mut config.policy);
    let mut cluster = ElasticCluster::new(config, |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    cluster.install(&spec("f")).expect("installs");
    cluster.install(&spec("g")).expect("installs");
    let requests = flash_crowd(cluster.clock().now());
    let report = cluster.run(&mut LocalityAffinity::new(), &requests);
    check(name, &dump_elastic(&report, cluster.obs()));
}

#[test]
fn elastic_flash_crowd_scales_up_and_drains() {
    elastic_scenario("elastic_flash_crowd", FaultPlan::new(1), |_| {});
}

#[test]
fn elastic_under_drain_interrupts() {
    let plan = FaultPlan::new(42).probability(FaultSite::DrainInterrupt, 0.5);
    elastic_scenario("elastic_drain_interrupt", plan, |_| {});
}

#[test]
fn elastic_under_migration_stalls() {
    let plan = FaultPlan::new(42).probability(FaultSite::MigrationStall, 0.5);
    elastic_scenario("elastic_migration_stall", plan, |_| {});
}

#[test]
fn elastic_under_scale_up_failures() {
    let plan = FaultPlan::new(42).probability(FaultSite::ScaleUpFail, 0.5);
    elastic_scenario("elastic_scale_up_fail", plan, |_| {});
}

#[test]
fn elastic_under_host_crashes() {
    let plan = FaultPlan::new(42).nth(FaultSite::HostCrash, 6);
    elastic_scenario("elastic_host_crash", plan, |_| {});
}

#[test]
fn elastic_retires_and_prewarms() {
    elastic_scenario("elastic_retire_after", FaultPlan::new(9), |policy| {
        policy.retire_after = Some(Nanos::from_millis(150));
        policy.prewarm = true;
    });
}

#[test]
fn elastic_stalled_drain_degrades_to_hard_removal() {
    // Every hand-off stalls and the first retry's backoff overshoots the
    // drain budget, so the deadline fires with hand-offs still pending.
    let plan = FaultPlan::new(5).probability(FaultSite::MigrationStall, 1.0);
    elastic_scenario("elastic_hard_removal", plan, |policy| {
        policy.drain_deadline = Nanos::from_millis(10);
        policy.migration.backoff_base = Nanos::from_millis(200);
    });
}
