//! Trace query: end-to-end request tracing over a multi-host cluster.
//!
//! Drives a seeded 4-host cluster (bounded snapshot caches, an 8-function
//! mix, locality routing), then reassembles the recorder's event log into
//! per-request causal trees with [`fireworks_obs::TraceForest`] and
//! reports:
//!
//! - the top-N slowest requests with their critical paths (the greedy
//!   longest-child descent from each request's root span),
//! - the cluster-wide latency decomposition (queueing / routing / fetch /
//!   restore / JIT-warmup / exec self-time),
//! - sojourn percentiles from merged per-function
//!   [`fireworks_obs::LogHistogram`] sketches,
//! - per-function SLO burn rates.
//!
//! The report is a pure function of the seed: two same-seed runs are
//! byte-identical (CI diffs them). Before printing, the binary verifies
//! its own trace plane — every request yields exactly one tree, no
//! orphan spans, per-request attribution sums to the sojourn — and
//! schema-checks the JSONL/Chrome/metrics exports, exiting non-zero on
//! any violation.
//!
//! Usage:
//!   `experiments trace_query [seed] [top_n]`     — run + report (JSON
//!                                                  on stdout)
//!   `experiments trace_query --check-schema DIR` — schema-check exported
//!                                                  artifacts (`*.jsonl`,
//!                                                  `trace.chrome.json`,
//!                                                  `metrics.json`) in `DIR`

use std::path::Path;

use super::{seed_arg, usage_error};
use crate::{request_mix, service_specs};
use fireworks_core::cluster::{Cluster, ClusterConfig, LocalityAffinity};
use fireworks_core::{FireworksPlatform, PlatformConfig};
use fireworks_obs::{export, json, slo_burn, LogHistogram, PhaseClass, RequestTrace, TraceForest};
use fireworks_sim::Nanos;
use fireworks_workloads::arrivals::poisson_schedule;

/// Hosts in the traced cluster.
const HOSTS: usize = 4;
/// Invoker slots per host.
const SLOTS_PER_HOST: usize = 2;
/// Functions in the request mix — more than one host's cache can hold.
const FUNCTIONS: usize = 8;
/// Requests driven through the cluster.
const REQUESTS: usize = 120;
/// Mean inter-arrival time. Roughly balances offered load against the
/// fleet's service rate, so slow requests split between queueing delay
/// and in-service work (fetch / restore / JIT warm-up) instead of
/// queueing swamping every critical path.
const RATE_MS: u64 = 250;
/// Per-host snapshot-cache budget: room for roughly two post-JIT
/// snapshots, so rebuilds (JIT warm-up) show up in the decomposition.
const CACHE_BUDGET: u64 = 340 << 20;
/// Per-request sojourn SLO target for the burn-rate report: generous
/// for a warm restore, blown by any rebuild-from-source.
const SLO: Nanos = Nanos::from_millis(100);
/// Allowed SLO violation fraction (99% target).
const SLO_BUDGET: f64 = 0.01;

/// Runs the traced cluster, self-validates its exports, and returns its
/// forest plus the simulator events the run processed.
fn run_cluster(seed: u64) -> Result<(TraceForest, u64), String> {
    let mut config = ClusterConfig::new(HOSTS, SLOTS_PER_HOST);
    config.platform = PlatformConfig::builder().cache_budget(CACHE_BUDGET).build();
    let mut cluster = Cluster::new(config, |env, cfg| {
        FireworksPlatform::with_config(env, cfg.clone())
    });
    let specs = service_specs(FUNCTIONS);
    for spec in &specs {
        cluster
            .install(spec)
            .map_err(|e| format!("install {}: {e:?}", spec.name))?;
    }
    let schedule = poisson_schedule(
        seed,
        REQUESTS,
        Nanos::from_millis(RATE_MS),
        &request_mix(&specs),
    );
    let mut router = LocalityAffinity::new();
    let report = cluster.run(&mut router, &schedule);
    for c in &report.completions {
        if c.result.is_err() {
            return Err(format!("fault-free run failed: {:?}", c.result));
        }
    }

    let obs = cluster.obs().clone();
    obs.recorder().finish();
    let now = cluster.clock().now();

    // Self-validation: the exports the trace plane would write must pass
    // their schema checks before we trust the forest built from them.
    export::schema::check_jsonl(&export::jsonl(obs.recorder()))
        .map_err(|e| format!("jsonl schema: {e}"))?;
    export::schema::check_chrome(&export::chrome_trace(&[("cluster", obs.recorder())]))
        .map_err(|e| format!("chrome schema: {e}"))?;
    export::schema::check_metrics(&obs.metrics().snapshot().to_json())
        .map_err(|e| format!("metrics schema: {e}"))?;

    let forest = TraceForest::build(&obs.recorder().events(), now);
    if !forest.orphans.is_empty() {
        return Err(format!("orphan spans: {:?}", forest.orphans));
    }
    if forest.requests.len() != REQUESTS {
        return Err(format!(
            "expected {REQUESTS} request trees, got {}",
            forest.requests.len()
        ));
    }
    for r in &forest.requests {
        if r.attribution.total() != r.sojourn {
            return Err(format!(
                "trace {}: attribution {:?} != sojourn {:?}",
                r.trace.raw(),
                r.attribution.total(),
                r.sojourn
            ));
        }
    }
    Ok((forest, cluster.events_processed()))
}

fn sketch_json(h: &LogHistogram) -> String {
    format!(
        "{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        h.count(),
        h.quantile(50.0),
        h.quantile(90.0),
        h.quantile(99.0),
        h.max().unwrap_or(0)
    )
}

fn slowest_json(requests: &[&RequestTrace]) -> String {
    let entries: Vec<String> = requests
        .iter()
        .map(|r| {
            let hops: Vec<String> = r
                .critical_path
                .iter()
                .map(|h| {
                    format!(
                        "{{\"name\":{},\"class\":{},\"dur_ns\":{}}}",
                        json::escape(&h.name),
                        json::escape(h.class.name()),
                        h.duration.as_nanos()
                    )
                })
                .collect();
            let hosts: Vec<String> = r.hosts.iter().map(u64::to_string).collect();
            format!(
                "{{\"trace\":{},\"function\":{},\"sojourn_ns\":{},\"spans\":{},\"hosts\":[{}],\"critical_path\":[{}]}}",
                r.trace.raw(),
                json::escape(r.function.as_deref().unwrap_or("?")),
                r.sojourn.as_nanos(),
                r.spans,
                hosts.join(","),
                hops.join(",")
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

fn report(seed: u64, top_n: usize) -> Result<u64, String> {
    let (forest, events) = run_cluster(seed)?;

    // Per-function sojourn sketches, then merged cluster-wide — the
    // merge is the point: sketches built independently (per function,
    // per host, per shard) combine without re-reading samples.
    let mut per_fn: std::collections::BTreeMap<String, LogHistogram> =
        std::collections::BTreeMap::new();
    for r in &forest.requests {
        per_fn
            .entry(r.function.clone().unwrap_or_else(|| "?".to_string()))
            .or_default()
            .observe(r.sojourn.as_nanos());
    }
    let mut merged = LogHistogram::new();
    for h in per_fn.values() {
        merged.merge(h);
    }
    if merged.count() != forest.requests.len() as u64 {
        return Err("merged sketch lost samples".to_string());
    }

    let mut total = fireworks_obs::Attribution::default();
    for r in &forest.requests {
        total.merge(&r.attribution);
    }

    let mut slowest: Vec<&RequestTrace> = forest.requests.iter().collect();
    slowest.sort_by_key(|r| (std::cmp::Reverse(r.sojourn), r.trace.raw()));
    slowest.truncate(top_n);

    let attribution: Vec<String> = PhaseClass::all()
        .iter()
        .map(|c| format!("{}:{}", json::escape(c.name()), total.get(*c).as_nanos()))
        .collect();
    let slo: Vec<String> = slo_burn(&forest.requests, SLO, SLO_BUDGET)
        .iter()
        .map(|s| {
            format!(
                "{{\"function\":{},\"total\":{},\"violations\":{},\"burn_rate\":{:.4}}}",
                json::escape(&s.function),
                s.total,
                s.violations,
                s.burn_rate
            )
        })
        .collect();

    let slo_json = format!("[{}]", slo.join(","));
    let doc = format!(
        "{{\n\"seed\":{seed},\n\"hosts\":{HOSTS},\n\"requests\":{REQUESTS},\n\"traces\":{},\n\"orphans\":0,\n\"sojourn_ns\":{},\n\"attribution_ns\":{{{}}},\n\"slowest\":{},\n\"slo\":{slo_json}\n}}",
        forest.requests.len(),
        sketch_json(&merged),
        attribution.join(","),
        slowest_json(&slowest),
    );
    json::validate(&doc).map_err(|e| format!("report is invalid JSON: {e}"))?;
    println!("{doc}");
    Ok(events)
}

/// Schema-checks previously exported artifacts (e.g. `trace_dump`
/// output): every `*.jsonl` line log, the Chrome trace, and the metrics
/// snapshot(s).
fn check_schema(dir: &Path) -> Result<(), String> {
    let mut checked = 0usize;
    let mut names: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    names.sort();
    for path in names {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let read =
            || std::fs::read_to_string(&path).map_err(|e| format!("cannot read {name}: {e}"));
        if name.ends_with(".jsonl") {
            export::schema::check_jsonl(&read()?).map_err(|e| format!("{name}: {e}"))?;
            checked += 1;
        } else if name == "trace.chrome.json" {
            export::schema::check_chrome(&read()?).map_err(|e| format!("{name}: {e}"))?;
            checked += 1;
        } else if name == "metrics.json" {
            // One snapshot, or a `{"label": snapshot, …}` wrapper (the
            // shape trace_dump writes) — accept both.
            let text = read()?;
            let v = json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
            let snapshots: Vec<String> = if v.get("counters").is_some() {
                vec![text.clone()]
            } else {
                match &v {
                    json::Value::Object(members) => members
                        .iter()
                        .map(|(_, snap)| json::to_text(snap))
                        .collect(),
                    _ => return Err(format!("{name}: not a metrics snapshot")),
                }
            };
            for snap in &snapshots {
                export::schema::check_metrics(snap).map_err(|e| format!("{name}: {e}"))?;
            }
            checked += 1;
        }
    }
    if checked == 0 {
        return Err(format!("no artifacts found in {}", dir.display()));
    }
    println!(
        "trace_query: schema-checked {checked} artifacts in {}",
        dir.display()
    );
    Ok(())
}

pub const USAGE: &str = "trace_query [seed] [top_n] | --check-schema DIR";

pub fn run(args: &[String]) -> Result<u64, String> {
    match args {
        [flag, rest @ ..] if flag == "--check-schema" => match rest {
            [dir] => check_schema(Path::new(dir)).map(|()| 0),
            _ => usage_error("--check-schema needs one directory", USAGE),
        },
        [_, _, extra, ..] => usage_error(&format!("unexpected argument {extra:?}"), USAGE),
        _ => {
            let seed = seed_arg(&args[..args.len().min(1)], USAGE);
            let top_n = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(5);
            report(seed, top_n)
        }
    }
}
