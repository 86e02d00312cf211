//! Trace dump: side-by-side invocation timelines for Perfetto.
//!
//! Runs one Fireworks invocation pair (cold-storage REAP paging, with a
//! deterministic fault-recovery episode) and one Firecracker+OS-snapshot
//! invocation pair against separate hosts, then exports what the
//! observability plane recorded:
//!
//! - `trace.chrome.json` — one Chrome trace-event file holding both
//!   platforms as separate processes (load it at <https://ui.perfetto.dev>);
//!   timestamps are virtual nanoseconds rendered as microseconds.
//! - `fireworks.jsonl` / `firecracker.jsonl` — per-platform JSONL event
//!   logs (one span or instant per line).
//! - `metrics.json` — both hosts' metrics-registry snapshots.
//!
//! The dump is a pure function of the seed: two runs with the same seed
//! produce byte-identical files. The binary validates its own output
//! (well-formed JSON, ≥ 6 distinct span categories) and exits non-zero
//! on any violation, so CI can run it as a smoke test.
//!
//! Usage: `experiments trace_dump [seed] [outdir]` (defaults: 42, `target/obs`).

use std::collections::BTreeSet;
use std::path::Path;

use super::{seed_arg, usage_error};
use fireworks_baselines::{FirecrackerPlatform, SnapshotPolicy};
use fireworks_core::api::{InvokeRequest, Platform};
use fireworks_core::fid;
use fireworks_core::{FireworksPlatform, PagingPolicy, PlatformConfig, PlatformEnv};
use fireworks_obs::{export, json, Event, Obs};
use fireworks_runtime::RuntimeKind;
use fireworks_sim::fault::{FaultPlan, FaultSite};
use fireworks_workloads::faasdom::Bench;

/// Runs install + two invocations on Fireworks with cold-storage REAP
/// paging and a deterministic fault episode (one corrupt snapshot page,
/// one transient read error), returning the host's observability plane.
fn run_fireworks(seed: u64) -> Obs {
    let plan = FaultPlan::new(seed)
        .nth(FaultSite::SnapshotCorruption, 1)
        .nth(FaultSite::SnapshotRead, 2);
    let env = PlatformEnv::with_fault_plan(plan);
    let obs = env.obs.clone();
    let mut platform = FireworksPlatform::with_config(
        env,
        PlatformConfig::builder()
            .paging(PagingPolicy::ColdStorage { reap: true })
            .build(),
    );
    let spec = Bench::Fact.spec(RuntimeKind::NodeLike);
    let args = Bench::Fact.request_params();
    platform.install(&spec).expect("fireworks install");
    // First invocation records the REAP working set and hits the injected
    // corruption (quarantine + rebuild) and read fault (retry + backoff);
    // the second prefetches the recorded set cleanly.
    for i in 0..2 {
        platform
            .invoke(&InvokeRequest::new(fid(&spec.name), args.deep_clone()))
            .unwrap_or_else(|e| panic!("fireworks invocation {i}: {e:?}"));
    }
    obs.recorder().finish();
    obs
}

/// Runs install + two invocations on the Firecracker+OS-snapshot
/// baseline (fault-free): one snapshot restore, one warm resume.
fn run_firecracker(_seed: u64) -> Obs {
    let env = PlatformEnv::default_env();
    let obs = env.obs.clone();
    let mut platform = FirecrackerPlatform::new(env, SnapshotPolicy::OsSnapshot);
    let spec = Bench::Fact.spec(RuntimeKind::NodeLike);
    let args = Bench::Fact.request_params();
    platform.install(&spec).expect("firecracker install");
    for i in 0..2 {
        platform
            .invoke(&InvokeRequest::new(fid(&spec.name), args.deep_clone()))
            .unwrap_or_else(|e| panic!("firecracker invocation {i}: {e:?}"));
    }
    obs.recorder().finish();
    obs
}

/// Distinct span/instant categories recorded across both platforms.
fn categories(planes: &[&Obs]) -> BTreeSet<&'static str> {
    let mut cats = BTreeSet::new();
    for obs in planes {
        for event in obs.recorder().events() {
            cats.insert(match event {
                Event::Span(s) => s.category,
                Event::Instant(i) => i.category,
            });
        }
    }
    cats
}

fn validate_json(label: &str, text: &str) -> Result<(), String> {
    json::validate(text).map_err(|e| format!("{label}: invalid JSON: {e}"))
}

fn dump(seed: u64, outdir: &Path) -> Result<(), String> {
    let fireworks = run_fireworks(seed);
    let firecracker = run_firecracker(seed);

    let chrome = export::chrome_trace(&[
        ("fireworks", fireworks.recorder()),
        ("firecracker+snapshot", firecracker.recorder()),
    ]);
    let fw_jsonl = export::jsonl(fireworks.recorder());
    let fc_jsonl = export::jsonl(firecracker.recorder());
    let metrics = format!(
        "{{\"fireworks\":{},\"firecracker_snapshot\":{}}}\n",
        fireworks.metrics().snapshot().to_json(),
        firecracker.metrics().snapshot().to_json()
    );

    // Self-validation before anything lands on disk.
    validate_json("trace.chrome.json", &chrome)?;
    validate_json("metrics.json", &metrics)?;
    for (label, jsonl) in [
        ("fireworks.jsonl", &fw_jsonl),
        ("firecracker.jsonl", &fc_jsonl),
    ] {
        for (no, line) in jsonl.lines().enumerate() {
            validate_json(&format!("{label}:{}", no + 1), line)?;
        }
    }
    let cats = categories(&[&fireworks, &firecracker]);
    for required in ["boot", "restore", "prefetch", "cache", "net", "fault"] {
        if !cats.contains(required) {
            return Err(format!(
                "missing span category {required:?} (recorded: {cats:?})"
            ));
        }
    }

    std::fs::create_dir_all(outdir)
        .map_err(|e| format!("cannot create {}: {e}", outdir.display()))?;
    for (name, content) in [
        ("trace.chrome.json", &chrome),
        ("fireworks.jsonl", &fw_jsonl),
        ("firecracker.jsonl", &fc_jsonl),
        ("metrics.json", &metrics),
    ] {
        let path = outdir.join(name);
        std::fs::write(&path, content)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let events = fireworks.recorder().len() + firecracker.recorder().len();
    println!("trace_dump: seed {seed}, {events} events, categories: {cats:?}");
    println!(
        "trace_dump: wrote {}/{{trace.chrome.json, fireworks.jsonl, firecracker.jsonl, metrics.json}}",
        outdir.display()
    );
    println!("trace_dump: open trace.chrome.json at https://ui.perfetto.dev");
    Ok(())
}

pub const USAGE: &str = "trace_dump [seed] [outdir]";

pub fn run(args: &[String]) -> Result<u64, String> {
    let (seed, rest) = args.split_at(args.len().min(1));
    let seed = seed_arg(seed, USAGE);
    let outdir = match rest {
        [] => "target/obs",
        [dir] => dir,
        [_, extra, ..] => usage_error(&format!("unexpected argument {extra:?}"), USAGE),
    };
    dump(seed, Path::new(outdir))?;
    Ok(0)
}
