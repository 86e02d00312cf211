//! §5.1: post-JIT snapshot creation time in the install phase.
//!
//! The paper reports 0.36–0.47 s (Node.js) and 0.38–0.44 s (Python) for
//! the snapshot write itself, on top of package install and JIT warm-up.

use crate::mib;
use fireworks_core::api::Platform;
use fireworks_core::{FireworksPlatform, PlatformEnv};
use fireworks_runtime::RuntimeKind;
use fireworks_sim::CostModel;
use fireworks_workloads::faasdom::Bench;

pub fn run(_args: &[String]) -> Result<u64, String> {
    println!("=== §5.1: Post-JIT snapshot creation time (install phase) ===\n");
    println!(
        "{:<30} {:>14} {:>14} {:>14} {:>12}",
        "function", "install total", "snapshot write", "snapshot size", "@jit fns"
    );
    let costs = CostModel::default();
    for runtime in [RuntimeKind::NodeLike, RuntimeKind::PythonLike] {
        for bench in Bench::ALL {
            let mut platform = FireworksPlatform::new(PlatformEnv::default_env());
            let spec = bench.paper_spec(runtime);
            let report = platform.install(&spec).expect("install");
            let write = costs.microvm.snapshot_create_base
                + costs.microvm.snapshot_write_per_page * report.snapshot_pages as u64;
            println!(
                "{:<30} {:>14} {:>14} {:>14} {:>12}",
                spec.name,
                format!("{}", report.install_time),
                format!("{}", write),
                mib(report.snapshot_bytes),
                report.annotated_functions,
            );
        }
    }
    println!();
    println!("paper: snapshot write 0.36–0.47 s (Node.js), 0.38–0.44 s (Python);");
    println!("       install total dominated by package install + JIT warm-up.");
    Ok(0)
}
