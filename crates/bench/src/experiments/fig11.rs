//! Fig. 11: factor analysis of performance — starting from plain
//! Firecracker, adding a VM-level OS snapshot, then the post-JIT snapshot
//! (= Fireworks). Cold starts, end-to-end latency, all eight FaaSdom
//! variants.

use crate::Scale;
use fireworks_baselines::{FirecrackerPlatform, SnapshotPolicy};
use fireworks_core::api::{InvokeRequest, Platform, StartMode};
use fireworks_core::env::EnvConfig;
use fireworks_core::fid;
use fireworks_core::{FireworksPlatform, PlatformEnv};
use fireworks_runtime::RuntimeKind;
use fireworks_sim::Nanos;
use fireworks_workloads::faasdom::Bench;

/// Cold-start end-to-end latency of one benchmark variant under the three
/// configurations.
pub struct Row {
    pub name: String,
    pub base: Nanos,
    pub os: Nanos,
    pub jit: Nanos,
}

pub fn measure(env: &EnvConfig, scale: Scale, runtime: RuntimeKind, bench: Bench) -> Row {
    let spec = bench.paper_spec(runtime);
    let args = scale.params(bench);
    let cold = |mut p: Box<dyn Platform>, mode: StartMode| {
        p.install(&spec).expect("install");
        let req = InvokeRequest::new(fid(&spec.name), args.deep_clone()).with_mode(mode);
        p.invoke(&req).expect("invoke").total()
    };
    let host = || PlatformEnv::new(env.clone());
    let fc = |policy| Box::new(FirecrackerPlatform::new(host(), policy));
    Row {
        base: cold(fc(SnapshotPolicy::None), StartMode::Cold),
        os: cold(fc(SnapshotPolicy::OsSnapshot), StartMode::Cold),
        jit: cold(Box::new(FireworksPlatform::new(host())), StartMode::Auto),
        name: spec.name.clone(),
    }
}

fn print(rows: &[Row]) {
    println!("=== Fig.11: Performance impact of Fireworks optimizations ===");
    println!("(cold-start end-to-end latency; speedups are vs the Firecracker baseline)\n");
    println!(
        "{:<30} {:>12} {:>15} {:>15} {:>9} {:>9}",
        "benchmark", "baseline", "+OS snapshot", "+post-JIT", "os x", "jit x"
    );
    for r in rows {
        println!(
            "{:<30} {:>12} {:>15} {:>15} {:>8.1}x {:>8.1}x",
            r.name,
            format!("{}", r.base),
            format!("{}", r.os),
            format!("{}", r.jit),
            r.base.ratio(r.os),
            r.base.ratio(r.jit),
        );
    }
    println!();
    println!("paper: +OS snapshot gives ~2.3x on Node compute and up to 6.1x on");
    println!("       net-latency; +post-JIT adds large gains where JIT compilation");
    println!("       lands late in execution (Node I/O benchmarks) or never (Python).");
}

pub fn run(_args: &[String]) -> Result<u64, String> {
    print(&super::variants(|runtime, bench| {
        measure(&EnvConfig::default(), Scale::PAPER, runtime, bench)
    }));
    Ok(0)
}
