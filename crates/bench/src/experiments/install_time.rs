//! §5.1: post-JIT snapshot creation time in the install phase.
//!
//! The paper reports 0.36–0.47 s (Node.js) and 0.38–0.44 s (Python) for
//! the snapshot write itself, on top of package install and JIT warm-up.

use crate::mib;
use fireworks_core::api::{InstallReport, Platform};
use fireworks_core::env::EnvConfig;
use fireworks_core::{FireworksPlatform, PlatformEnv};
use fireworks_runtime::RuntimeKind;
use fireworks_sim::Nanos;
use fireworks_workloads::faasdom::Bench;

/// One function's install on Fireworks; `write` is the snapshot write's
/// share of `report.install_time`.
pub struct Row {
    pub name: String,
    pub report: InstallReport,
    pub write: Nanos,
}

pub fn measure(env: &EnvConfig, runtime: RuntimeKind, bench: Bench) -> Row {
    let mut platform = FireworksPlatform::new(PlatformEnv::new(env.clone()));
    let spec = bench.paper_spec(runtime);
    let report = platform.install(&spec).expect("install");
    let costs = &env.costs.microvm;
    Row {
        write: costs.snapshot_create_base
            + costs.snapshot_write_per_page * report.snapshot_pages as u64,
        name: spec.name,
        report,
    }
}

fn print(rows: &[Row]) {
    println!("=== §5.1: Post-JIT snapshot creation time (install phase) ===\n");
    println!(
        "{:<30} {:>14} {:>14} {:>14} {:>12}",
        "function", "install total", "snapshot write", "snapshot size", "@jit fns"
    );
    for r in rows {
        println!(
            "{:<30} {:>14} {:>14} {:>14} {:>12}",
            r.name,
            format!("{}", r.report.install_time),
            format!("{}", r.write),
            mib(r.report.snapshot_bytes),
            r.report.annotated_functions,
        );
    }
    println!();
    println!("paper: snapshot write 0.36–0.47 s (Node.js), 0.38–0.44 s (Python);");
    println!("       install total dominated by package install + JIT warm-up.");
}

pub fn run(_args: &[String]) -> Result<u64, String> {
    print(&super::variants(|runtime, bench| {
        measure(&EnvConfig::default(), runtime, bench)
    }));
    Ok(0)
}
