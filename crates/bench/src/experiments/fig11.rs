//! Fig. 11: factor analysis of performance — starting from plain
//! Firecracker, adding a VM-level OS snapshot, then the post-JIT snapshot
//! (= Fireworks). Cold starts, end-to-end latency, all eight FaaSdom
//! variants.

use fireworks_baselines::{FirecrackerPlatform, SnapshotPolicy};
use fireworks_core::api::{InvokeRequest, Platform, StartMode};
use fireworks_core::fid;
use fireworks_core::{FireworksPlatform, PlatformEnv};
use fireworks_runtime::RuntimeKind;
use fireworks_sim::Nanos;
use fireworks_workloads::faasdom::Bench;

pub fn run(_args: &[String]) -> Result<u64, String> {
    println!("=== Fig.11: Performance impact of Fireworks optimizations ===");
    println!("(cold-start end-to-end latency; speedups are vs the Firecracker baseline)\n");
    println!(
        "{:<30} {:>12} {:>15} {:>15} {:>9} {:>9}",
        "benchmark", "baseline", "+OS snapshot", "+post-JIT", "os x", "jit x"
    );

    for runtime in [RuntimeKind::NodeLike, RuntimeKind::PythonLike] {
        for bench in Bench::ALL {
            let spec = bench.paper_spec(runtime);
            let args = bench.paper_params();
            let req = |mode: StartMode| {
                InvokeRequest::new(fid(&spec.name), args.deep_clone()).with_mode(mode)
            };

            let t_base = {
                let mut p =
                    FirecrackerPlatform::new(PlatformEnv::default_env(), SnapshotPolicy::None);
                p.install(&spec).expect("install");
                p.invoke(&req(StartMode::Cold)).expect("invoke").total()
            };
            let t_os = {
                let mut p = FirecrackerPlatform::new(
                    PlatformEnv::default_env(),
                    SnapshotPolicy::OsSnapshot,
                );
                p.install(&spec).expect("install");
                p.invoke(&req(StartMode::Cold)).expect("invoke").total()
            };
            let t_jit = {
                let mut p = FireworksPlatform::new(PlatformEnv::default_env());
                p.install(&spec).expect("install");
                p.invoke(&req(StartMode::Auto)).expect("invoke").total()
            };
            println!(
                "{:<30} {:>12} {:>15} {:>15} {:>8.1}x {:>8.1}x",
                spec.name,
                format!("{t_base}"),
                format!("{t_os}"),
                format!("{t_jit}"),
                t_base.ratio(t_os),
                t_base.ratio(t_jit),
            );
            debug_assert!(t_os <= t_base && t_jit <= t_os, "factor ordering");
            let _: Nanos = t_jit;
        }
    }
    println!();
    println!("paper: +OS snapshot gives ~2.3x on Node compute and up to 6.1x on");
    println!("       net-latency; +post-JIT adds large gains where JIT compilation");
    println!("       lands late in execution (Node I/O benchmarks) or never (Python).");
    Ok(0)
}
