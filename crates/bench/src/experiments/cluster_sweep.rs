//! Cluster sweep: routing policy × host count × arrival rate, measured
//! with real concurrent invocations on a multi-host cluster.
//!
//! Every host's post-JIT snapshot cache is bounded to two snapshots
//! (§6-style disk budget), and the request mix spans eight functions —
//! more than any single host can keep hot. Spraying requests round-robin
//! therefore thrashes every host's LRU cache: most starts must rebuild
//! the snapshot from source, seconds of virtual time charged to start-up
//! latency. Snapshot-locality affinity routing keeps each function
//! pinned to the few hosts that already hold it, so the same schedule
//! sees mostly cache-hit restores. The sweep quantifies that gap per
//! policy, host count, and offered load, and asserts the headline:
//! locality routing beats round-robin on p99 start latency at the
//! highest swept rate on ≥ 4 hosts.
//!
//! A second phase wires the engine's retain/density machinery through
//! the cluster: waves of concurrent clones are admitted (and retained)
//! until every host passes its swap threshold, reproducing the §5.4
//! consolidation experiment cluster-wide — sustained clones scale with
//! host count.
//!
//! Output is a single JSON document on stdout, a pure function of the
//! seed: two same-seed runs are byte-identical (CI diffs them).
//!
//! Usage: `experiments cluster_sweep [seed]` (default 42).

use super::seed_arg;
use crate::{request_mix, service_specs};
use fireworks_core::cluster::{
    Cluster, ClusterConfig, ClusterReport, LeastLoaded, LocalityAffinity, RoundRobin, Router,
};
use fireworks_core::engine::CompletionPolicy;
use fireworks_core::env::EnvConfig;
use fireworks_core::{fid, FireworksPlatform, HostId, PlatformConfig, ResidentClone};
use fireworks_obs::LogHistogram;
use fireworks_runtime::RuntimeKind;
use fireworks_sim::Nanos;
use fireworks_workloads::arrivals::{burst, poisson_schedule};
use fireworks_workloads::faasdom::Bench;

/// Invoker slots per host.
const SLOTS_PER_HOST: usize = 4;
/// Functions in the request mix — more than one host's cache can hold.
const FUNCTIONS: usize = 8;
/// Requests per swept point.
const REQUESTS: usize = 160;
/// Swept host counts.
const HOSTS: [usize; 2] = [2, 4];
/// Swept mean inter-arrival times (ms), light to heavy load.
const RATES_MS: [u64; 3] = [50, 20, 8];
/// Per-host snapshot-cache budget: room for two ~155 MiB post-JIT
/// snapshots, an eighth of the installed mix.
const CACHE_BUDGET: u64 = 340 << 20;

/// Host RAM for the density phase; swap onset at 60% (vm.swappiness=60).
const DENSITY_RAM: u64 = 2 << 30;
/// Clones admitted per wave in the density phase.
const DENSITY_WAVE: usize = 8;
/// Safety cap on density waves.
const DENSITY_MAX_WAVES: usize = 120;

fn make_router(policy: &str) -> Box<dyn Router> {
    match policy {
        "round_robin" => Box::new(RoundRobin::new()),
        "least_loaded" => Box::new(LeastLoaded::new()),
        "locality" => Box::new(LocalityAffinity::new()),
        other => unreachable!("unknown policy {other}"),
    }
}

/// One swept point's measurements.
struct Point {
    policy: &'static str,
    hosts: usize,
    rate_ms: u64,
    p50_start: Nanos,
    p99_start: Nanos,
    locality_hits: u64,
    rebalances: u64,
    peak_cluster_queue: usize,
    events_processed: u64,
}

/// Streams `samples` into a mergeable log-bucketed sketch (see
/// `fireworks_obs::LogHistogram`): no collect-and-sort, bounded memory,
/// quantiles within one bucket (≤ 2⁻⁵ relative error) of exact.
fn sketch_of(samples: impl IntoIterator<Item = Nanos>) -> LogHistogram {
    let mut h = LogHistogram::new();
    for s in samples {
        h.observe(s.as_nanos());
    }
    h
}

/// Builds an `hosts`-host cluster with the bounded cache, installs the
/// mix, and drives one rate point's schedule under `policy`.
fn run_point(policy: &'static str, hosts: usize, rate_ms: u64, seed: u64) -> Point {
    let mut config = ClusterConfig::new(hosts, SLOTS_PER_HOST);
    config.platform = PlatformConfig::builder().cache_budget(CACHE_BUDGET).build();
    let mut cluster = Cluster::new(config, |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    let specs = service_specs(FUNCTIONS);
    for spec in &specs {
        cluster.install(spec).expect("install on every host");
    }
    let schedule = poisson_schedule(
        seed.wrapping_add(rate_ms),
        REQUESTS,
        Nanos::from_millis(rate_ms),
        &request_mix(&specs),
    );
    let mut router = make_router(policy);
    let report = cluster.run(router.as_mut(), &schedule);
    let starts = sketch_of(report.completions.iter().map(|c| {
        c.start_latency()
            .unwrap_or_else(|| panic!("fault-free sweep: {:?}", c.result))
    }));
    Point {
        policy,
        hosts,
        rate_ms,
        p50_start: Nanos::from_nanos(starts.quantile(50.0)),
        p99_start: Nanos::from_nanos(starts.quantile(99.0)),
        locality_hits: report.locality_hits,
        rebalances: report.rebalances,
        peak_cluster_queue: report.peak_cluster_queue_depth,
        events_processed: cluster.events_processed(),
    }
}

/// Admits waves of retained clones through an `hosts`-host cluster until
/// every host passes its swap threshold; returns the sustained
/// cluster-wide clone count.
fn density(hosts: usize) -> usize {
    let mut config = ClusterConfig::new(hosts, DENSITY_WAVE);
    config.env = EnvConfig {
        ram_bytes: DENSITY_RAM,
        swappiness: 60,
        ..EnvConfig::default()
    };
    config.completion = CompletionPolicy::Retain;
    let mut cluster = Cluster::new(config, |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    let spec = Bench::Fact.spec(RuntimeKind::NodeLike);
    let args = Bench::Fact.request_params();
    cluster.install(&spec).expect("install on every host");
    let all_swapping = |c: &Cluster<FireworksPlatform>| {
        (0..hosts).all(|h| c.host_env(HostId::from_index(h)).host_mem.is_swapping())
    };
    let mut resident: Vec<(HostId, ResidentClone)> = Vec::new();
    let mut router = LeastLoaded::new();
    for _ in 0..DENSITY_MAX_WAVES {
        if all_swapping(&cluster) {
            break;
        }
        let wave = burst(fid(&spec.name), &args, DENSITY_WAVE, cluster.clock().now());
        let report: ClusterReport<ResidentClone> = cluster.run(&mut router, &wave);
        for c in &report.completions {
            assert!(c.result.is_ok(), "density waves are fault-free");
        }
        resident.extend(report.retained);
    }
    // Count only clones on hosts *before* their swap onset: drop the
    // last-admitted clone per swapping host, as load_sweep does.
    let over = (0..hosts)
        .filter(|h| {
            cluster
                .host_env(HostId::from_index(*h))
                .host_mem
                .is_swapping()
        })
        .count();
    resident.len().saturating_sub(over)
}

pub const USAGE: &str = "cluster_sweep [seed]";

pub fn run(args: &[String]) -> Result<u64, String> {
    let seed = seed_arg(args, USAGE);

    let mut points = Vec::new();
    for policy in ["round_robin", "least_loaded", "locality"] {
        for hosts in HOSTS {
            for rate_ms in RATES_MS {
                points.push(run_point(policy, hosts, rate_ms, seed));
            }
        }
    }
    let events: u64 = points.iter().map(|p| p.events_processed).sum();

    let fw_density: Vec<(usize, usize)> = HOSTS.iter().map(|&h| (h, density(h))).collect();

    // The headline claim: at the highest swept rate on the most hosts,
    // locality-affinity routing beats round-robin on p99 start latency.
    let max_hosts = *HOSTS.iter().max().expect("swept hosts");
    let max_rate = *RATES_MS.iter().min().expect("swept rates");
    let p99_of = |policy: &str| {
        points
            .iter()
            .find(|p| p.policy == policy && p.hosts == max_hosts && p.rate_ms == max_rate)
            .expect("swept point")
            .p99_start
    };
    let (rr_p99, loc_p99) = (p99_of("round_robin"), p99_of("locality"));
    assert!(
        loc_p99 < rr_p99,
        "locality p99 {loc_p99} must beat round-robin p99 {rr_p99} \
         at {max_rate}ms mean inter-arrival on {max_hosts} hosts"
    );

    // Density must scale with host count: the widest cluster sustains
    // proportionally more clones than the narrowest.
    let (h_lo, d_lo) = fw_density[0];
    let (h_hi, d_hi) = *fw_density.last().expect("density points");
    assert!(
        d_hi as f64 >= d_lo as f64 * (h_hi as f64 / h_lo as f64) * 0.8,
        "density must scale with hosts: {d_lo} clones on {h_lo} vs {d_hi} on {h_hi}"
    );

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!(
        "  \"slots_per_host\": {SLOTS_PER_HOST},\n  \"functions\": {FUNCTIONS},\n  \"requests\": {REQUESTS},\n  \"cache_budget_bytes\": {CACHE_BUDGET},\n"
    ));
    out.push_str("  \"sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"hosts\": {}, \"rate_ms\": {}, \"p50_start_ns\": {}, \"p99_start_ns\": {}, \"locality_hits\": {}, \"rebalances\": {}, \"peak_cluster_queue\": {}, \"events_processed\": {}}}{}\n",
            p.policy,
            p.hosts,
            p.rate_ms,
            p.p50_start.as_nanos(),
            p.p99_start.as_nanos(),
            p.locality_hits,
            p.rebalances,
            p.peak_cluster_queue,
            p.events_processed,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"density\": [\n");
    for (i, (hosts, clones)) in fw_density.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"hosts\": {hosts}, \"ram_per_host_bytes\": {DENSITY_RAM}, \"sustained_clones\": {clones}}}{}\n",
            if i + 1 < fw_density.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"headline\": {{\"hosts\": {max_hosts}, \"rate_ms\": {max_rate}, \"round_robin_p99_ns\": {}, \"locality_p99_ns\": {}, \"p99_ratio\": {:.2}}}\n",
        rr_p99.as_nanos(),
        loc_p99.as_nanos(),
        rr_p99.ratio(loc_p99)
    ));
    out.push_str("}\n");

    fireworks_obs::json::validate(&out).expect("cluster_sweep emits valid JSON");
    print!("{out}");
    Ok(events)
}
