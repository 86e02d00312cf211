//! Elastic control-plane sweep: elasticity cost vs. steady-state
//! overprovisioning, measured under a flash crowd.
//!
//! One flash-crowd schedule (quiet Poisson arrivals that suddenly
//! densify 10x, then recover) is driven through four fleets:
//!
//! - `fixed_max`: `min_hosts == max_hosts == MAX_FLEET` — the
//!   overprovisioned baseline. Great latency, pays for idle machines
//!   the whole run.
//! - `fixed_min`: `min_hosts == max_hosts == MIN_FLEET` — the
//!   underprovisioned baseline. Cheap, and the crowd buries it.
//! - `elastic`: reactive scaling only (queue-pressure scale-up,
//!   idle-driven graceful drain with snapshot hand-off).
//! - `elastic_prewarm`: the same, plus the sliding-window arrival
//!   predictor prewarming hot snapshots onto freshly booted hosts and
//!   scaling up on a rising trend.
//!
//! The headline asserts the elastic trade-off from both sides: the
//! prewarmed elastic fleet beats the fixed-min fleet on flash-crowd
//! p99 start latency, while burning less host-time than the fixed-max
//! fleet. A scale-to-zero phase retires an idle function to the archive
//! and resurrects it on the next request, and a chaos phase sweeps the
//! three control-plane fault sites (`drain_interrupt`,
//! `migration_stall`, `scale_up_fail`) up to certainty, asserting the
//! control plane converges with zero lost requests and zero invariant
//! violations.
//!
//! Output is a single JSON document on stdout, a pure function of the
//! seed: two same-seed runs are byte-identical (CI diffs them).
//!
//! Usage: `experiments elastic_sweep [seed]` (default 42).

use super::seed_arg;
use crate::{request_mix, service_specs};
use fireworks_core::cluster::LocalityAffinity;
use fireworks_core::config::{PlatformConfig, SnapshotStorePolicy};
use fireworks_core::elastic::{ElasticCluster, ElasticConfig, ElasticPolicy, ElasticReport};
use fireworks_core::engine::EngineRequest;
use fireworks_core::fid;
use fireworks_core::{FireworksPlatform, InvokeRequest};
use fireworks_lang::Value;
use fireworks_obs::LogHistogram;
use fireworks_sim::fault::{FaultPlan, FaultSite};
use fireworks_sim::Nanos;
use fireworks_workloads::arrivals::flash_crowd;

/// Invoker slots per host.
const SLOTS_PER_HOST: usize = 2;
/// Functions in the request mix.
const FUNCTIONS: usize = 3;
/// Requests in the flash-crowd schedule — enough to fill the whole
/// crowd window (~500 arrivals at the crowd rate) plus a quiet tail.
const REQUESTS: usize = 600;
/// Floor of the elastic fleet (and the underprovisioned baseline).
const MIN_FLEET: usize = 1;
/// Ceiling of the elastic fleet (and the overprovisioned baseline).
const MAX_FLEET: usize = 6;
/// Mean inter-arrival time outside the crowd window.
const BASE_MEAN: Nanos = Nanos::from_millis(40);
/// Mean inter-arrival time inside the crowd window (10x denser).
const CROWD_MEAN: Nanos = Nanos::from_millis(4);
/// Crowd window, relative to schedule start.
const CROWD_START: Nanos = Nanos::from_millis(3_000);
const CROWD_END: Nanos = Nanos::from_millis(5_000);

/// Requests in the chaos phase (shorter: each point runs thrice).
const CHAOS_REQUESTS: usize = 120;
/// The swept per-draw probabilities for each control-plane fault site.
const CHAOS_RATES: [f64; 3] = [0.1, 0.5, 1.0];

/// The policy all scenarios share; control periods are sized to the
/// observed service times (~17 ms warm, ~470 ms rebuild-from-source)
/// so the loop reacts to sustained pressure, not single requests.
fn base_policy() -> ElasticPolicy {
    ElasticPolicy {
        min_hosts: MIN_FLEET,
        max_hosts: MAX_FLEET,
        control_interval: Nanos::from_millis(50),
        scale_up_queue: 2,
        scale_down_idle_ticks: 6,
        boot_delay: Nanos::from_millis(200),
        drain_deadline: Nanos::from_millis(500),
        ..ElasticPolicy::default()
    }
}

fn config_with(policy: ElasticPolicy, fault_plan: FaultPlan) -> ElasticConfig {
    let mut config = ElasticConfig::new(SLOTS_PER_HOST);
    config.platform = PlatformConfig::builder()
        .snapshot_store(SnapshotStorePolicy::dedup())
        .build();
    config.env.fault_plan = fault_plan;
    config.policy = policy;
    config
}

fn build(config: ElasticConfig) -> ElasticCluster<FireworksPlatform> {
    let mut cluster = ElasticCluster::new(config, |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    for spec in &service_specs(FUNCTIONS) {
        cluster.install(spec).expect("install is fault-free");
    }
    cluster
}

fn schedule(seed: u64, count: usize) -> Vec<EngineRequest> {
    flash_crowd(
        seed,
        count,
        BASE_MEAN,
        CROWD_MEAN,
        CROWD_START,
        CROWD_END,
        &request_mix(&service_specs(FUNCTIONS)),
    )
}

/// One scenario's measurements.
struct Scenario {
    name: &'static str,
    p50_start: Nanos,
    p99_start: Nanos,
    host_time: Nanos,
    peak_hosts: usize,
    report: ElasticReport,
}

fn run_scenario(name: &'static str, policy: ElasticPolicy, seed: u64) -> Scenario {
    let mut cluster = build(config_with(policy, FaultPlan::default()));
    let report = cluster.run(&mut LocalityAffinity::new(), &schedule(seed, REQUESTS));
    assert!(
        report.completions.iter().all(|c| c.result.is_ok()),
        "{name}: fault-free scenarios must serve every request"
    );
    assert!(
        report.audit_violations.is_empty(),
        "{name}: invariant violations: {:?}",
        report.audit_violations
    );
    // Start latencies stream into a mergeable log-bucketed sketch
    // (quantiles within 2⁻⁵ relative error) instead of collect-and-sort.
    let mut starts = LogHistogram::new();
    for s in report.completions.iter().filter_map(|c| c.start_latency()) {
        starts.observe(s.as_nanos());
    }
    Scenario {
        name,
        p50_start: Nanos::from_nanos(starts.quantile(50.0)),
        p99_start: Nanos::from_nanos(starts.quantile(99.0)),
        host_time: report.host_time,
        peak_hosts: report.peak_hosts,
        report,
    }
}

/// Scale-to-zero: a lone function sees a burst, goes idle past the
/// retirement horizon (its replicas move to the archive), then demand
/// returns and the snapshot is resurrected by delta fetch.
struct ScaleToZero {
    retired: u64,
    resurrections: u64,
    p99_resurrect_start: Nanos,
}

fn run_scale_to_zero(seed: u64) -> ScaleToZero {
    let policy = ElasticPolicy {
        retire_after: Some(Nanos::from_millis(400)),
        ..base_policy()
    };
    let mut cluster = build(config_with(policy, FaultPlan::new(seed)));
    let args = Value::map([("n".to_string(), Value::Int(2_000))]);
    let gap = Nanos::from_millis(20);
    let mut reqs: Vec<EngineRequest> = (0..8)
        .map(|i| EngineRequest::at(gap * i, InvokeRequest::new(fid("svc-0"), args.deep_clone())))
        .collect();
    // A quiet stretch long enough for the control loop to retire the
    // function, then renewed demand.
    let quiet_until = reqs.last().expect("non-empty").arrival + Nanos::from_millis(2_000);
    for i in 0..4u64 {
        reqs.push(EngineRequest::at(
            quiet_until + gap * i,
            InvokeRequest::new(fid("svc-0"), args.deep_clone()),
        ));
    }
    let report = cluster.run(&mut LocalityAffinity::new(), &reqs);
    assert!(
        report.completions.iter().all(|c| c.result.is_ok()),
        "scale-to-zero requests all complete"
    );
    assert!(
        report.audit_violations.is_empty(),
        "scale-to-zero invariants: {:?}",
        report.audit_violations
    );
    assert!(
        report.stats.retired_functions > 0,
        "the idle stretch must retire the function: {:?}",
        report.stats
    );
    assert!(
        report.stats.resurrections > 0,
        "renewed demand must resurrect it: {:?}",
        report.stats
    );
    let mut tail = LogHistogram::new();
    for s in report
        .completions
        .iter()
        .filter(|c| c.arrived >= quiet_until)
        .filter_map(|c| c.start_latency())
    {
        tail.observe(s.as_nanos());
    }
    ScaleToZero {
        retired: report.stats.retired_functions,
        resurrections: report.stats.resurrections,
        p99_resurrect_start: Nanos::from_nanos(tail.quantile(99.0)),
    }
}

/// One chaos point: a single control-plane fault site armed at `rate`.
struct ChaosPoint {
    site: &'static str,
    rate: f64,
    ok: usize,
    failed: usize,
    stats_json: String,
    failed_hosts: usize,
}

fn run_chaos(site: FaultSite, rate: f64, seed: u64) -> ChaosPoint {
    let policy = ElasticPolicy {
        max_hosts: 4,
        scale_down_idle_ticks: 3,
        ..base_policy()
    };
    let plan = FaultPlan::new(seed ^ (site as u64) << 32).probability(site, rate);
    let mut cluster = build(config_with(policy, plan));
    let report = cluster.run(
        &mut LocalityAffinity::new(),
        &schedule(seed, CHAOS_REQUESTS),
    );
    // Conservation is asserted inside `run`; here we assert the audit
    // stayed clean through every membership event the storm caused.
    assert!(
        report.audit_violations.is_empty(),
        "{}@{rate}: invariant violations: {:?}",
        site.label(),
        report.audit_violations
    );
    let ok = report
        .completions
        .iter()
        .filter(|c| c.result.is_ok())
        .count();
    let s = &report.stats;
    let stats_json = format!(
        "{{\"scale_ups\": {}, \"scale_up_failures\": {}, \"drains_started\": {}, \
         \"graceful_drains\": {}, \"hard_removals\": {}, \"drain_interrupts\": {}, \
         \"migrations\": {}, \"migration_retries\": {}, \"migration_stalls\": {}, \
         \"migration_failures\": {}, \"crash_reroutes\": {}}}",
        s.scale_ups,
        s.scale_up_failures,
        s.drains_started,
        s.graceful_drains,
        s.hard_removals,
        s.drain_interrupts,
        s.migrations,
        s.migration_retries,
        s.migration_stalls,
        s.migration_failures,
        s.crash_reroutes,
    );
    ChaosPoint {
        site: site.label(),
        rate,
        ok,
        failed: report.completions.len() - ok,
        stats_json,
        failed_hosts: report.failed_hosts.len(),
    }
}

pub const USAGE: &str = "elastic_sweep [seed]";

pub fn run(args: &[String]) -> Result<u64, String> {
    let seed = seed_arg(args, USAGE);

    let fixed_max = ElasticPolicy {
        min_hosts: MAX_FLEET,
        ..base_policy()
    };
    let fixed_min = ElasticPolicy {
        max_hosts: MIN_FLEET,
        ..base_policy()
    };
    let elastic = base_policy();
    let elastic_prewarm = ElasticPolicy {
        prewarm: true,
        ..base_policy()
    };

    let scenarios = [
        run_scenario("fixed_max", fixed_max, seed),
        run_scenario("fixed_min", fixed_min, seed),
        run_scenario("elastic", elastic, seed),
        run_scenario("elastic_prewarm", elastic_prewarm, seed),
    ];
    let events: u64 = scenarios.iter().map(|s| s.report.events_processed).sum();

    let by_name = |n: &str| scenarios.iter().find(|s| s.name == n).expect("scenario");
    let (fmax, fmin) = (by_name("fixed_max"), by_name("fixed_min"));
    let (ela, pre) = (by_name("elastic"), by_name("elastic_prewarm"));

    // The elastic trade, asserted from both sides: prewarmed elasticity
    // beats the underprovisioned fleet where it hurts (flash-crowd p99)
    // and beats the overprovisioned fleet where *it* hurts (host-time).
    assert!(
        pre.p99_start < fmin.p99_start,
        "prewarmed elastic p99 {} must beat fixed-min p99 {}",
        pre.p99_start,
        fmin.p99_start
    );
    for s in [ela, pre] {
        assert!(
            s.host_time < fmax.host_time,
            "{} host_time {} must undercut fixed-max {}",
            s.name,
            s.host_time,
            fmax.host_time
        );
        assert!(
            s.report.stats.scale_ups > 0 && s.peak_hosts > MIN_FLEET,
            "{} must actually scale: {:?}",
            s.name,
            s.report.stats
        );
    }

    let zero = run_scale_to_zero(seed);

    let chaos_sites = [
        FaultSite::DrainInterrupt,
        FaultSite::MigrationStall,
        FaultSite::ScaleUpFail,
    ];
    let mut chaos = Vec::new();
    for site in chaos_sites {
        for rate in CHAOS_RATES {
            chaos.push(run_chaos(site, rate, seed));
        }
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"elastic_sweep\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!(
        "  \"workload\": {{\"requests\": {REQUESTS}, \"functions\": {FUNCTIONS}, \"base_mean_ns\": {}, \"crowd_mean_ns\": {}, \"crowd_start_ns\": {}, \"crowd_end_ns\": {}}},\n",
        BASE_MEAN.as_nanos(),
        CROWD_MEAN.as_nanos(),
        CROWD_START.as_nanos(),
        CROWD_END.as_nanos(),
    ));
    out.push_str(&format!(
        "  \"fleet\": {{\"slots_per_host\": {SLOTS_PER_HOST}, \"min_hosts\": {MIN_FLEET}, \"max_hosts\": {MAX_FLEET}}},\n"
    ));
    out.push_str("  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let st = &s.report.stats;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"p50_start_ns\": {}, \"p99_start_ns\": {}, \"host_time_ns\": {}, \"peak_hosts\": {}, \"scale_ups\": {}, \"drains_started\": {}, \"graceful_drains\": {}, \"hard_removals\": {}, \"migrations\": {}, \"prewarms\": {}, \"resurrections\": {}, \"rebalances\": {}, \"locality_hits\": {}, \"events_processed\": {}}}{}\n",
            s.name,
            s.p50_start.as_nanos(),
            s.p99_start.as_nanos(),
            s.host_time.as_nanos(),
            s.peak_hosts,
            st.scale_ups,
            st.drains_started,
            st.graceful_drains,
            st.hard_removals,
            st.migrations,
            st.prewarms,
            st.resurrections,
            st.rebalances,
            st.locality_hits,
            s.report.events_processed,
            if i + 1 < scenarios.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"scale_to_zero\": {{\"retired_functions\": {}, \"resurrections\": {}, \"p99_resurrect_start_ns\": {}}},\n",
        zero.retired,
        zero.resurrections,
        zero.p99_resurrect_start.as_nanos(),
    ));
    out.push_str("  \"chaos\": [\n");
    for (i, c) in chaos.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"site\": \"{}\", \"rate\": {}, \"ok\": {}, \"failed\": {}, \"failed_hosts\": {}, \"control\": {}}}{}\n",
            c.site,
            c.rate,
            c.ok,
            c.failed,
            c.failed_hosts,
            c.stats_json,
            if i + 1 < chaos.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"headline\": {{\"fixed_min_p99_ns\": {}, \"elastic_prewarm_p99_ns\": {}, \"p99_ratio\": {:.2}, \"fixed_max_host_time_ns\": {}, \"elastic_host_time_ns\": {}, \"host_time_ratio\": {:.2}}}\n",
        fmin.p99_start.as_nanos(),
        pre.p99_start.as_nanos(),
        fmin.p99_start.ratio(pre.p99_start),
        fmax.host_time.as_nanos(),
        ela.host_time.as_nanos(),
        fmax.host_time.ratio(ela.host_time),
    ));
    out.push_str("}\n");

    fireworks_obs::json::validate(&out).expect("elastic_sweep emits valid JSON");
    print!("{out}");
    Ok(events)
}
