//! Dedup sweep: content-addressed snapshot storage measured two ways.
//!
//! **Dedup ratio curve.** One host installs 1..=8 functions that share a
//! runtime (Node-like profile, distinct user code). Flat storage pays
//! the full snapshot file per function; the chunk store pays each
//! distinct chunk once, so the logical/unique byte ratio grows with
//! every function added — the runtime image, JIT scaffolding, and boot
//! pages are shared chunks. Asserted: the ratio never shrinks as
//! functions are added and exceeds 1.5× at eight functions.
//!
//! **Delta vs rebuild.** Two identically-shaped clusters (home-host
//! installs, locality routing, same schedule) differ in one bit:
//! whether a remote miss may fetch its missing chunks from a mesh peer
//! (`delta_fetch`) or must rebuild the snapshot from source. Under load
//! the home hosts saturate and requests overflow to hosts that hold
//! only the shared chunks; the delta arm ships the small per-function
//! remainder over the simulated network (overlapped with restore-side
//! work), the rebuild arm pays install-grade boot + JIT. Asserted:
//! the delta arm's p99 start latency is strictly below the rebuild
//! arm's at every swept arrival rate.
//!
//! Output is a single JSON document on stdout, a pure function of the
//! seed: two same-seed runs are byte-identical (CI diffs them).
//!
//! Usage: `experiments dedup_sweep [seed]` (default 42).

use super::seed_arg;
use crate::{nearest_rank, request_mix};
use fireworks_core::api::{FunctionSpec, Platform};
use fireworks_core::cluster::{Cluster, ClusterConfig, LocalityAffinity};
use fireworks_core::env::PlatformEnv;
use fireworks_core::{FireworksPlatform, PlatformConfig, SnapshotStorePolicy};
use fireworks_lang::Value;
use fireworks_runtime::RuntimeKind;
use fireworks_sim::Nanos;
use fireworks_workloads::arrivals::poisson_schedule;

/// Hosts in the delta-vs-rebuild clusters.
const HOSTS: usize = 3;
/// Invoker slots per host — small, so home hosts saturate and requests
/// overflow to non-holding hosts (the remote-miss traffic under test).
const SLOTS_PER_HOST: usize = 2;
/// Functions sharing one runtime.
const FUNCTIONS: usize = 8;
/// Requests per swept point.
const REQUESTS: usize = 120;
/// Swept mean inter-arrival times (ms), light to heavy load. Even the
/// lightest rate outpaces the home hosts' slot capacity, so every point
/// sees overflow placements (remote misses) — the traffic under test.
const RATES_MS: [u64; 3] = [10, 5, 2];

/// Distinct user code per function (the `i * …` constant differs). The
/// captured images do not show it: an image's chunks depend only on its
/// region sizes (its pages are accounting-only writes), so every
/// function's snapshot is chunk-identical to the others and
/// `unique_bytes` stays flat at one image's worth as functions are
/// added.
fn src(i: usize) -> String {
    format!(
        "
    fn main(params) {{
        let n = params[\"n\"];
        let t = {i};
        for (let j = 0; j < n; j = j + 1) {{ t = t + j * {}; }}
        return t;
    }}",
        i + 1
    )
}

fn specs() -> Vec<FunctionSpec> {
    let args = Value::map([("n".to_string(), Value::Int(2_000))]);
    (0..FUNCTIONS)
        .map(|i| {
            FunctionSpec::new(
                format!("svc-{i}"),
                src(i),
                RuntimeKind::NodeLike,
                args.deep_clone(),
            )
        })
        .collect()
}

/// One point on the dedup-ratio curve: a fresh host with `count`
/// installed functions.
struct RatioPoint {
    functions: usize,
    unique_bytes: u64,
    logical_bytes: u64,
    ratio: f64,
}

fn ratio_point(count: usize) -> RatioPoint {
    let mut p = FireworksPlatform::with_config(
        PlatformEnv::default_env(),
        PlatformConfig::builder()
            .snapshot_store(SnapshotStorePolicy::dedup())
            .build(),
    );
    for spec in specs().iter().take(count) {
        p.install(spec).expect("install");
    }
    let stats = p.chunk_stats().expect("dedup store attached");
    RatioPoint {
        functions: count,
        unique_bytes: stats.unique_bytes,
        logical_bytes: stats.logical_bytes,
        ratio: stats.logical_bytes as f64 / stats.unique_bytes as f64,
    }
}

/// One swept point's measurements for one arm.
struct Point {
    arm: &'static str,
    rate_ms: u64,
    p50_start: Nanos,
    p99_start: Nanos,
    delta_fetches: u64,
    delta_fallbacks: u64,
    locality_hits: u64,
    events_processed: u64,
}

/// Drives one rate point's schedule through an `arm` cluster: home-host
/// installs only, so every cross-host placement is a remote miss served
/// by delta fetch (`delta_fetch: true`) or rebuild-from-source.
fn run_point(arm: &'static str, delta_fetch: bool, rate_ms: u64, seed: u64) -> Point {
    let mut config = ClusterConfig::new(HOSTS, SLOTS_PER_HOST);
    // A tight admission queue: a busy home host exerts backpressure
    // after one waiter instead of six, so load spills to the partial
    // holders rather than queueing behind the full one.
    config.host_queue_cap = 1;
    config.platform = PlatformConfig::builder()
        .snapshot_store(SnapshotStorePolicy::Dedup {
            chunk_pages: SnapshotStorePolicy::DEFAULT_CHUNK_PAGES,
            delta_fetch,
        })
        .build();
    let mut cluster = Cluster::new(config, |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    let specs = specs();
    for spec in &specs {
        cluster.install_home(spec).expect("install on home host");
    }
    let schedule = poisson_schedule(
        seed.wrapping_add(rate_ms),
        REQUESTS,
        Nanos::from_millis(rate_ms),
        &request_mix(&specs),
    );
    let mut router = LocalityAffinity::new();
    let report = cluster.run(&mut router, &schedule);
    let mut starts: Vec<Nanos> = report
        .completions
        .iter()
        .map(|c| {
            c.start_latency()
                .unwrap_or_else(|| panic!("fault-free sweep: {:?}", c.result))
        })
        .collect();
    starts.sort_unstable();
    let snap = cluster.obs().metrics().snapshot();
    let sum_prefix = |prefix: &str| {
        snap.counters()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum::<u64>()
    };
    Point {
        arm,
        rate_ms,
        p50_start: nearest_rank(&starts, 50.0),
        p99_start: nearest_rank(&starts, 99.0),
        delta_fetches: sum_prefix("core.delta.fetches"),
        delta_fallbacks: sum_prefix("core.delta.fallbacks"),
        locality_hits: report.locality_hits,
        events_processed: cluster.events_processed(),
    }
}

pub const USAGE: &str = "dedup_sweep [seed]";

pub fn run(args: &[String]) -> Result<u64, String> {
    let seed = seed_arg(args, USAGE);

    // Phase 1: dedup ratio vs function count on one host.
    let curve: Vec<RatioPoint> = [1, 2, 4, FUNCTIONS]
        .iter()
        .map(|&n| ratio_point(n))
        .collect();
    for pair in curve.windows(2) {
        assert!(
            pair[1].ratio >= pair[0].ratio,
            "dedup ratio must not shrink as functions are added: \
             {:.3} at {} functions vs {:.3} at {}",
            pair[0].ratio,
            pair[0].functions,
            pair[1].ratio,
            pair[1].functions
        );
    }
    let full = curve.last().expect("curve points");
    assert!(
        full.ratio > 1.5,
        "{} functions sharing a runtime must dedup better than 1.5x, got {:.3}",
        full.functions,
        full.ratio
    );

    // Phase 2: delta fetch vs rebuild under overflow load.
    let mut points = Vec::new();
    for rate_ms in RATES_MS {
        points.push(run_point("delta", true, rate_ms, seed));
        points.push(run_point("rebuild", false, rate_ms, seed));
    }
    let events: u64 = points.iter().map(|p| p.events_processed).sum();
    for rate_ms in RATES_MS {
        let of = |arm: &str| {
            points
                .iter()
                .find(|p| p.arm == arm && p.rate_ms == rate_ms)
                .expect("swept point")
        };
        let (delta, rebuild) = (of("delta"), of("rebuild"));
        assert!(
            delta.delta_fetches > 0,
            "the delta arm must see remote misses at {rate_ms}ms \
             (otherwise the comparison is vacuous)"
        );
        assert!(
            delta.p99_start < rebuild.p99_start,
            "delta p99 {} must be strictly below rebuild p99 {} at {rate_ms}ms",
            delta.p99_start,
            rebuild.p99_start
        );
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!(
        "  \"hosts\": {HOSTS},\n  \"slots_per_host\": {SLOTS_PER_HOST},\n  \"functions\": {FUNCTIONS},\n  \"requests\": {REQUESTS},\n  \"chunk_pages\": {},\n",
        SnapshotStorePolicy::DEFAULT_CHUNK_PAGES
    ));
    out.push_str("  \"dedup_ratio_curve\": [\n");
    for (i, p) in curve.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"functions\": {}, \"unique_bytes\": {}, \"logical_bytes\": {}, \"ratio\": {:.4}}}{}\n",
            p.functions,
            p.unique_bytes,
            p.logical_bytes,
            p.ratio,
            if i + 1 < curve.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"arm\": \"{}\", \"rate_ms\": {}, \"p50_start_ns\": {}, \"p99_start_ns\": {}, \"delta_fetches\": {}, \"delta_fallbacks\": {}, \"locality_hits\": {}, \"events_processed\": {}}}{}\n",
            p.arm,
            p.rate_ms,
            p.p50_start.as_nanos(),
            p.p99_start.as_nanos(),
            p.delta_fetches,
            p.delta_fallbacks,
            p.locality_hits,
            p.events_processed,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let max_rate = *RATES_MS.iter().min().expect("swept rates");
    let p99_of = |arm: &str| {
        points
            .iter()
            .find(|p| p.arm == arm && p.rate_ms == max_rate)
            .expect("swept point")
            .p99_start
    };
    let (delta_p99, rebuild_p99) = (p99_of("delta"), p99_of("rebuild"));
    out.push_str(&format!(
        "  \"headline\": {{\"rate_ms\": {max_rate}, \"dedup_ratio\": {:.4}, \"rebuild_p99_ns\": {}, \"delta_p99_ns\": {}, \"p99_ratio\": {:.2}}}\n",
        full.ratio,
        rebuild_p99.as_nanos(),
        delta_p99.as_nanos(),
        rebuild_p99.ratio(delta_p99)
    ));
    out.push_str("}\n");

    fireworks_obs::json::validate(&out).expect("dedup_sweep emits valid JSON");
    print!("{out}");
    Ok(events)
}
